"""The three workloads: seeded inputs, one operation each, and its oracle.

Inputs are made in two steps.  ``plan`` makes every random draw from a
seeded ``random.Random`` and filters the draws with ``oracle``; it runs
once, outside the timed set-up.  ``build`` turns the plan into the inputs
the program sees, graph files in a scratch directory or graphs, with
flowinv's own calls (``from_matrix``, the moves) and file writes; it is what
set-up time measures.  Random choices made inside ``build`` come from a
per-input seed drawn by ``plan``.  ``run`` performs one operation through a
public entry point of flowinv.  ``check`` compares one answer with
``oracle``, which does not use flowinv; it runs after the timed loop.
``summary`` is what must repeat when an input is run again.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import oracle


@dataclass
class Item:
    """One input: what ``run`` passes to flowinv, and what the oracle needs."""

    kind: str
    args: tuple
    facts: dict = field(default_factory=dict)


def _write_matrix(path: str, rows) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"matrix {len(rows)}\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in rows)
    return path


def _write_edges(path: str, rows) -> str:
    n = len(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"edges {n}\n")
        fh.writelines(
            f"{i} {j} {rows[i][j]}\n" for i in range(n) for j in range(n) if rows[i][j]
        )
    return path


def _dense(rng, n: int, top: int) -> list[list[int]]:
    return [[rng.randint(0, top) for _ in range(n)] for _ in range(n)]


def _split(rng, fl, g, mode: str):
    """Split one vertex with two or more in- (or out-) edges into two classes."""
    incident = g.in_edges if mode == "in" else g.out_edges
    v = rng.choice([v for v in range(g.n) if len(incident(v)) >= 2])
    edges = [e.id for e in incident(v)]
    rng.shuffle(edges)
    cut = rng.randint(1, len(edges) - 1)
    classes = dict(fl.moves.Partition.trivial(g, mode).classes)
    classes[v] = [edges[:cut], edges[cut:]]
    split = fl.moves.in_split if mode == "in" else fl.moves.out_split
    return split(g, fl.moves.Partition(classes)).graph


def _cli(fl, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = fl.cli.main(list(argv))
    return code, out.getvalue()


def _payload(result, key: str):
    code, text = result
    if code != 0:
        raise ValueError(f"exit status {code}")
    return json.loads(text)[key]


class Invariants:
    """``flowinv invariants --json FILE`` on dense graphs and on files of
    about 1e5 parallel edges."""

    name = "invariants"
    budget_s = 5.0
    SIZES = range(2, 65, 2)
    # (largest n, graphs per size): many small graphs give p50 and p90 over
    # a hundred inputs while one pass stays near 10 s.
    COPIES = ((32, 5), (48, 2), (64, 1))
    # Ten files of 1e5 edges, which take about the same time whatever the
    # seed, hold the 90th percentile of latency: without them it falls
    # among the single graphs of n 50..56, which differ by 1.3x from seed
    # to seed.
    MULTI_FILES = 10
    MULTI_VERTICES = 8
    MULTI_CELLS = 16
    MULTI_EDGES = 100_000

    def plan(self, rng, fl):
        specs = []
        for n in self.SIZES:
            for k in range(next(c for top, c in self.COPIES if n <= top)):
                specs.append(("dense", f"dense{n}-{k}.txt", _dense(rng, n, 3)))
        n = self.MULTI_VERTICES
        for k in range(self.MULTI_FILES):
            cells = {(i, (i + 1) % n) for i in range(n)}  # a cycle keeps it irreducible
            while len(cells) < self.MULTI_CELLS:
                cells.add((rng.randrange(n), rng.randrange(n)))
            cuts = sorted(rng.sample(range(1, self.MULTI_EDGES), len(cells) - 1))
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [self.MULTI_EDGES])]
            rows = [[0] * n for _ in range(n)]
            for (i, j), m in zip(sorted(cells), sizes):
                rows[i][j] = m
            specs.append(("multi", f"multi{k}.txt", rows))
        return specs

    def build(self, specs, fl, workdir):
        write = {"dense": _write_matrix, "multi": _write_edges}
        return [
            Item(kind, (write[kind](os.path.join(workdir, name), rows),), {"rows": rows})
            for kind, name, rows in specs
        ]

    def run(self, fl, item):
        return _cli(fl, ["invariants", "--json", item.args[0]])

    def summary(self, result):
        return result

    def answered(self, result):
        return True

    def check(self, fl, item, result):
        inv = _payload(result, "invariants")
        rows = item.facts["rows"]
        n = len(rows)
        b = oracle.bowen_franks(rows)
        d = oracle.det(b)
        torsion = inv["group"]["torsion"]
        free = inv["group"]["free_rank"]
        if inv["det"] != d:
            return f"det {inv['det']}, oracle {d}"
        if free != n - oracle.rank(b):
            return f"free rank {free}, oracle {n - oracle.rank(b)}"
        if d != 0:
            order = 1
            for t in torsion:
                order *= t
            if order != abs(d):
                return f"torsion order {order} is not |det| = {abs(d)}"
            if oracle.element_order(torsion, inv["unit"]) != oracle.unit_order(b):
                return "unit class order differs from the order of B^-1 1"
        return None


class Classify:
    """``flowinv classify --json LEFT RIGHT`` on pairs with equal group and
    det up to sign, so the unit-class orbit test always runs."""

    name = "classify"
    budget_s = 0.5
    SIZES = range(8, 29, 2)
    KINDS = ("transpose", "out-split", "in-split-or-expand", "minus")
    PER_SIZE = 3
    # Left graphs whose torsion factoring runs for minutes, fixed so that
    # every seed has the same few overruns and p90 stays among the answered
    # ops.  Their right graphs are drawn per seed.
    HANGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hang_pairs.json")

    def _draw(self, rng, n: int):
        while True:
            rows = _dense(rng, n, 3)
            if not oracle.irreducible_nontrivial(rows):
                continue
            d = oracle.det(oracle.bowen_franks(rows))
            if oracle.torsion_factoring(d) == "cheap":
                return rows, d

    def plan(self, rng, fl):
        specs = []
        for copy in range(self.PER_SIZE):
            for i, n in enumerate(self.SIZES):
                for kind in self.KINDS:
                    if kind == "in-split-or-expand":  # alternated: the same mix for every seed
                        kind = ("in-split", "expand")[(copy + i) % 2]
                    specs.append((kind, n, *self._draw(rng, n), rng.getrandbits(64)))
        with open(self.HANGS, encoding="utf-8") as fh:
            hangs = json.load(fh)["pairs"]
        for pair in hangs:
            d = oracle.det(oracle.bowen_franks(pair["rows"]))
            if d != pair["det"] or oracle.torsion_factoring(d) != "hang":
                raise ValueError(f"{self.HANGS}: the n = {pair['n']} graph is not predicted to hang")
            specs.append((pair["kind"], pair["n"], pair["rows"], d, rng.getrandbits(64)))
        return specs

    def build(self, specs, fl, workdir):
        items = []
        for serial, (kind, n, rows, d, seed) in enumerate(specs):
            rng = random.Random(seed)
            g = fl.graph.MultiGraph.from_matrix(rows)
            if kind == "transpose":
                h = fl.graph.transpose(g)
            elif kind == "out-split":
                h = _split(rng, fl, g, "out")
            elif kind == "minus":
                h = fl.moves.minus(g)
            elif kind == "in-split":
                h = _split(rng, fl, g, "in")
            else:
                h = fl.moves.expand(g, rng.randrange(n))
            stem = os.path.join(workdir, f"pair{serial}-{kind}-{n}")
            left = _write_matrix(stem + "-l.txt", rows)
            right = _write_matrix(stem + "-r.txt", h.incidence().to_lists())
            items.append(Item(kind, (left, right), {"det": d}))
        return items

    def run(self, fl, item):
        return _cli(fl, ["classify", "--json", *item.args])

    def summary(self, result):
        return result

    def answered(self, result):
        return _payload(result, "verdict")["reason_tag"] != "pointed-resource-cap"

    def check(self, fl, item, result):
        v = _payload(result, "verdict")
        d = item.facts["det"]
        if v["reason_tag"] == "pointed-resource-cap":
            return None
        left = v["witness"]["left"]["det"]
        if left != d:
            return f"left det {left}, oracle {d}"
        # What the theorems force for each kind of pair.
        want = {
            "transpose": ("morita", "yes"),
            "out-split": ("isomorphic", "yes"),
            "in-split": ("morita", "yes"),
            "expand": ("morita", "yes"),
            "minus": ("reason_tag", "determinant-sign-gap"),
        }[item.kind]
        if v[want[0]] != want[1]:
            return f"{item.kind} pair: {want[0]} is {v[want[0]]}, theorem says {want[1]}"
        return None


class Search:
    """``find_sequence`` on three-move scrambles, which meet early, and on
    two Franks-equivalent pairs that exhaust their bounds today."""

    name = "search"
    budget_s = 10.0
    MOVES = 3
    # Scrambles per (start vertices, goal edges), in proportion to how often
    # the generator draws each.  Fixed counts keep the mix the same for every
    # seed; goals of two-vertex starts with ten or more edges are left out,
    # because their search times spread over two orders of magnitude.
    # 450 scrambles: with 300, the 90th percentile of latency moved by 1.2x
    # from seed to seed with the few slowest scrambles drawn.
    QUOTAS = {
        (1, 5): 45, (1, 6): 82, (1, 7): 75, (1, 8): 50, (1, 9): 15,
        (2, 6): 8, (2, 7): 35, (2, 8): 40, (2, 9): 40,
        (3, 9): 6, (3, 10): 9, (3, 11): 18, (3, 12): 27,
    }
    SCRAMBLE_BOUNDS = {"max_depth": 6, "max_vertices": 6}
    EXHAUSTED = (
        ([[2]], [[3, 3], [1, 2]], {"max_depth": 6, "max_vertices": 5}),
        ([[3]], [[3, 3], [2, 3]], {"max_depth": 6, "max_vertices": 4}),
    )

    @staticmethod
    def _base(rng):
        while True:
            rows = _dense(rng, rng.randint(1, 3), 2)
            if oracle.irreducible_nontrivial(rows):
                return rows

    def _scramble(self, rng, fl, rows):
        g = fl.graph.MultiGraph.from_matrix(rows)
        for _ in range(self.MOVES):
            move = rng.choice(("expand", "in", "out"))
            if move == "expand":
                g = fl.moves.expand(g, rng.randrange(g.n))
            else:
                g = _split(rng, fl, g, move)
        return g.incidence().to_lists()

    def plan(self, rng, fl):
        specs = []
        need = dict(self.QUOTAS)
        while len(specs) < sum(self.QUOTAS.values()):
            start, seed = self._base(rng), rng.getrandbits(64)
            goal = self._scramble(random.Random(seed), fl, start)
            stratum = (len(start), sum(map(sum, goal)))
            if need.get(stratum, 0) > 0:
                need[stratum] -= 1
                specs.append((start, seed))
        return specs

    def build(self, specs, fl, workdir):
        items = []
        for start, seed in specs:
            goal = self._scramble(random.Random(seed), fl, start)
            items.append(Item("scramble", (start, goal, self.SCRAMBLE_BOUNDS)))
        return items + [Item("exhausted", args) for args in self.EXHAUSTED]

    def run(self, fl, item):
        start, goal, bounds = item.args
        graph = fl.graph.MultiGraph.from_matrix
        try:
            return fl.flowsearch.find_sequence(graph(start), graph(goal), **bounds)
        except fl.flowsearch.NotFoundWithinBounds as exc:
            # The traceback would keep the whole search frontier alive.
            return exc.with_traceback(None)

    def summary(self, result):
        if isinstance(result, Exception):
            return ("not-found", result.reason, tuple(sorted(result.stats.to_dict().items())))
        return ("found", len(result), tuple(map(tuple, result.end.incidence().to_lists())))

    def answered(self, result):
        return not isinstance(result, Exception)

    def check(self, fl, item, result):
        start, goal, _ = item.args
        if isinstance(result, Exception):
            # A scramble has a path within its bounds: it must be found.
            if item.kind == "scramble" or result.reason != "bounds-exhausted":
                return f"{result.reason} on a {item.kind} pair"
            return None
        if not fl.flowsearch.verify_sequence(result):
            return "verify_sequence rejected the sequence"
        end = result.end.incidence().to_lists()
        if not oracle.isomorphic(end, goal):
            return "the sequence ends at a graph not isomorphic to the goal"
        if oracle.det(oracle.bowen_franks(end)) != oracle.det(oracle.bowen_franks(start)):
            return "the sequence changed det"
        return None


WORKLOADS = {w.name: w for w in (Invariants(), Classify(), Search())}
