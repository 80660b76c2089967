"""Bounded bidirectional search for a move sequence joining two graphs.

The search walks the neighbor relation generated by expansion, contraction,
single-vertex in-/out-splittings and single-block in-/out-amalgamations
(plus source elimination, which never fires on the essential graphs the
search admits).  Every one of these moves has its inverse in the catalogue,
so the relation is symmetric and a meet-in-the-middle frontier search from
both endpoints is sound.

The search is a function of incidence rows until it returns.  Neighbors are
enumerated as rows straight from their parent's rows and keyed from them
alone (:func:`flowinv.graph.canonical_rows_key`); each visited key keeps
only its parent's key.  Graphs, with their edges, labels and script
arguments, are built only for the steps of a found path: :func:`_replay`
walks the key chain from the start, enumerates each graph's rows again and
builds, through the move itself, only the neighbor whose key matches.

Graphs are identified up to isomorphism via canonical keys, so a found
sequence ends at a graph isomorphic to the goal.  The search is bounded
(depth, vertex count, entry size, partitions per vertex); splittings into
more classes than the vertex bound allows are never generated.  When
nothing is found it reports the work done and the cuts the bounds made.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

# det is unused here but stays importable: bench/tracing.py wraps flowsearch.det.
from flowinv.exactla import cokernel, det, group_iso  # noqa: F401
from flowinv.graph import (
    GraphError,
    GraphReport,
    MultiGraph,
    canonical_key,
    canonical_rows_key,
    classify_graph,
)
from flowinv.invariants import bowen_franks_matrix, equiv_det_pair, franks_triple
from flowinv.moves import (
    MoveError,
    Partition,
    apply_move,
    contract,
    eliminate_source,
    expand,
    in_amalgamate,
    in_split,
    out_amalgamate,
    out_split,
    quotient_rows,
)

DEFAULT_MAX_DEPTH = 6
DEFAULT_MAX_VERTICES = 8
DEFAULT_PARTITION_CAP = 512


@dataclass
class SearchStats:
    """Counters describing how much work a search did and what it skipped.

    ``expanded`` counts the graphs whose neighbors were enumerated.
    ``vertex_capped`` counts the neighbors the vertex cap cut (expansions)
    and ``entry_capped`` those the entry cap cut; ``pruned`` is their sum.
    Splittings into more classes than the vertex cap allows are never
    generated, so they are not counted.  ``partition_capped`` counts
    vertices whose splittings were cut off at the partition cap.
    """

    expanded: int = 0
    vertex_capped: int = 0
    entry_capped: int = 0
    partition_capped: int = 0

    @property
    def pruned(self) -> int:
        return self.vertex_capped + self.entry_capped

    def to_dict(self) -> dict:
        return {
            "expanded": self.expanded,
            "pruned": self.pruned,
            "partition_capped": self.partition_capped,
            "vertex_capped": self.vertex_capped,
            "entry_capped": self.entry_capped,
        }


class NotFoundWithinBounds(Exception):
    """No sequence was found; ``reason`` says whether one can exist.

    ``invariant-mismatch`` means the Bowen-Franks pair already separates the
    graphs, so no sequence exists at any depth; ``bounds-exhausted`` means
    the bounded search space was used up without meeting.  ``stats`` holds
    the :class:`SearchStats` of the search.
    """

    def __init__(self, reason: str, stats: SearchStats):
        self.reason = reason
        self.stats = stats
        if reason == "invariant-mismatch":
            msg = (
                "no sequence exists: the Bowen-Franks pair (group, det) "
                "separates the graphs"
            )
        else:
            msg = (
                "no sequence found within bounds "
                f"(expanded {stats.expanded}, pruned {stats.pruned}, "
                f"partitions capped {stats.partition_capped})"
            )
        super().__init__(msg)


@dataclass(frozen=True)
class MoveStep:
    """One applied move: its script keyword, arguments, and the result."""

    kind: str
    args: dict
    graph: MultiGraph


@dataclass(frozen=True)
class MoveSequence:
    """A start graph and the chain of steps applied to it; a found sequence
    carries the :class:`SearchStats` of the search that found it."""

    start: MultiGraph
    steps: tuple[MoveStep, ...]
    stats: SearchStats = field(default_factory=SearchStats, compare=False)

    @property
    def end(self) -> MultiGraph:
        return self.steps[-1].graph if self.steps else self.start

    def __len__(self) -> int:
        return len(self.steps)


def verify_sequence(seq: MoveSequence) -> bool:
    """Re-apply every step and confirm graphs and invariants line up."""
    want = franks_triple(seq.start)
    cur = seq.start
    for step in seq.steps:
        cur = apply_move(cur, step.kind, step.args)
        if cur != step.graph:
            raise MoveError(f"step {step.kind} does not reproduce its graph")
        have = franks_triple(cur)
        if not equiv_det_pair(want, have):
            raise MoveError(f"step {step.kind} drifted the invariant pair")
    return True


# ---------------------------------------------------------------------------
# Neighbor enumeration.


def _vector_partitions(total, max_parts):
    """Multisets of at most ``max_parts`` (>= 1) nonzero vectors summing to
    ``total``.

    Parts are emitted in lexicographically non-increasing order, so each
    multiset appears exactly once; used to enumerate edge partitions up to
    the interchange of parallel edges.  Only what fits is built: each part
    is drawn, in descending order, from the vectors within what remains and
    not above the previous part, and it must cover the first nonzero
    coordinate of what remains, since no later part, being no larger, could.
    The last allowed part is all that remains.
    """

    def candidates(remaining, bound):
        lead = next(i for i, r in enumerate(remaining) if r)
        out = [((), True)]  # (prefix, prefix equals the bound's prefix)
        for i, r in enumerate(remaining):
            low = 1 if i == lead else 0
            nxt = []
            for x, tight in out:
                top = bound[i] if tight and bound[i] < r else r
                for c in range(top, low - 1, -1):
                    nxt.append((x + (c,), tight and c == bound[i]))
            out = nxt
        return [x for x, _ in out]

    def rec(remaining, bound, slots):
        if not any(remaining):
            yield []
            return
        if slots == 1:
            if remaining <= bound:
                yield [remaining]
            return
        for part in candidates(remaining, bound):
            rest = tuple(r - p for r, p in zip(remaining, part))
            for tail in rec(rest, part, slots - 1):
                yield [part] + tail

    total = tuple(total)
    yield from rec(total, total, max_parts)


def _split_rows(m, v, max_classes, partition_cap, stats):
    """In-splittings of vertex v of the incidence rows ``m`` into
    2..max_classes classes, as (parts, rows) pairs.

    The in-edges of v are bundled by source, and bundles of parallel edges
    are interchangeable, so each vector partition of the bundle sizes (one
    part per class, over the sorted sources of v) is one result up to
    isomorphism.  Its rows are m with column v replaced by one column per
    part and row v repeated once per part: every copy of v keeps v's
    out-edges, and copy i receives part i.  This is the incidence of
    :func:`in_split` by the matching partition, vertex order included.
    """
    order = [u for u, row in enumerate(m) if row[v]]
    counts = tuple(m[u][v] for u in order)
    if sum(counts) < 2:
        return
    emitted = 0
    for parts in _vector_partitions(counts, max_classes):
        if len(parts) < 2:
            continue
        if partition_cap is not None and emitted >= partition_cap:
            stats.partition_capped += 1
            break
        emitted += 1
        split_col = [(0,) * len(parts)] * len(m)
        for i, u in enumerate(order):
            split_col[u] = tuple(part[i] for part in parts)
        rows = []
        for u, row in enumerate(m):
            new = row[:v] + split_col[u] + row[v + 1 :]
            rows.extend([new] * (len(parts) if u == v else 1))
        yield parts, tuple(rows)


def _amalgam_blocks(m):
    """Single-block groupings of vertices with identical rows of ``m``: the
    in-amalgamations of m that are moves (an out-amalgamation is the
    in-amalgamation of the transpose).

    A vertex with a zero column would leave its partition class empty, so it
    is dropped from its group of identical rows; groups keep the order of
    their first members, so the groupings come in the same order as if every
    subset were formed and the unfed ones skipped.
    """
    n = len(m)
    fed = [any(col) for col in zip(*m)]
    groups: dict[tuple, list[int]] = {}
    for v, row in enumerate(m):
        groups.setdefault(row, []).append(v)
    for members in groups.values():
        members = [v for v in members if fed[v]]
        for size in range(2, len(members) + 1):
            for subset in itertools.combinations(members, size):
                chosen = set(subset)
                blocks = []
                for v in range(n):
                    if v == subset[0]:
                        blocks.append(list(subset))
                    elif v not in chosen:
                        blocks.append([v])
                yield blocks


def _max_entry(g) -> int:
    return max((max(row) for row in g.incidence().entries), default=0)


def _drop(row, v):
    return row[:v] + row[v + 1 :]


def _neighbors(m, *, max_vertices, entry_cap, partition_cap, stats):
    """All admissible one-move neighbors of the graph with incidence rows
    ``m``, in a fixed order, as (kind, rows, recipe) triples.

    ``rows`` is the neighbor's incidence matrix, computed from ``m`` alone:
    a splitting edits rows and columns (see :func:`_split_rows`), an
    amalgamation is :func:`flowinv.moves.quotient_rows` (see
    :func:`_amalgam_blocks`), and expansion, contraction and elimination
    edit rows directly; out-moves are the in-moves of the transpose.  The
    entry cap is read from the rows.  ``recipe`` is what :func:`_realize`
    needs to build the graph and the script arguments through the move
    itself: the vertex (expand, eliminate), the vertex and its star
    (contract), the vertex and the vector partition (splittings), or the
    blocks (amalgamations).
    """
    n = len(m)
    cols = tuple(zip(*m))

    if n >= 2:
        for v in range(n):
            if not any(cols[v]):
                yield "eliminate", tuple(_drop(m[u], v) for u in range(n) if u != v), v

    if n + 1 <= max_vertices:
        for v in range(n):
            rows = [row + (0,) for row in m]
            rows[v] = (0,) * n + (1,)
            rows.append(m[v] + (0,))
            yield "expand", tuple(rows), v
    else:
        stats.vertex_capped += n

    for v in range(n):
        if sum(m[v]) != 1:
            continue
        vs = m[v].index(1)
        if vs != v and sum(cols[vs]) == 1:
            rows = tuple(_drop(m[vs] if u == v else m[u], vs) for u in range(n) if u != vs)
            yield "contract", rows, (v, vs)

    max_classes = max_vertices - n + 1
    if max_classes >= 2:
        for kind, oriented in (("in-split", m), ("out-split", cols)):
            for v in range(n):
                for parts, rows in _split_rows(oriented, v, max_classes, partition_cap, stats):
                    if max(map(max, rows)) > entry_cap:
                        stats.entry_capped += 1
                        continue
                    if kind == "out-split":
                        rows = tuple(zip(*rows))
                    yield kind, rows, (v, parts)

    for kind, oriented in (("in-amalgamate", m), ("out-amalgamate", cols)):
        for blocks in _amalgam_blocks(oriented):
            rows = quotient_rows(oriented, blocks)
            if max(map(max, rows)) > entry_cap:
                stats.entry_capped += 1
                continue
            if kind == "out-amalgamate":
                rows = tuple(zip(*rows))
            yield kind, rows, blocks


def _realize(g, kind, recipe):
    """Build the neighbor of g that :func:`_neighbors` described by ``kind``
    and ``recipe``, through the move itself: returns (script args, graph).

    A splitting's partition puts, in class i at its vertex, the first
    part-i-many edges of each bundle in g's edge order; every other vertex
    keeps its single class.
    """
    if kind == "expand":
        return {"vertex": g.label(recipe)}, expand(g, recipe)
    if kind == "eliminate":
        return {"vertex": g.label(recipe)}, eliminate_source(g, recipe)
    if kind == "contract":
        v, vs = recipe
        return {"vertex": g.label(v), "star": g.label(vs)}, contract(g, v, vs)
    if kind in ("in-split", "out-split"):
        v, parts = recipe
        mode = "in" if kind == "in-split" else "out"
        bundles: dict[int, list[str]] = {}
        for e in g.in_edges(v) if mode == "in" else g.out_edges(v):
            bundles.setdefault(e.source if mode == "in" else e.target, []).append(e.id)
        queues = [bundles[u] for u in sorted(bundles)]
        classes = []
        for part in parts:
            cls = []
            for queue, take in zip(queues, part):
                cls.extend(queue[:take])
                del queue[:take]
            classes.append(cls)
        trivial = Partition.trivial(g, mode).classes
        p = Partition({**{u: c for u, c in trivial.items() if u != v}, v: classes})
        split = in_split if mode == "in" else out_split
        return {"partition": p}, split(g, p).graph
    amalgamate = in_amalgamate if kind == "in-amalgamate" else out_amalgamate
    labeled = [[g.label(v) for v in block] for block in recipe]
    return {"blocks": labeled}, amalgamate(g, recipe)


# ---------------------------------------------------------------------------
# Bidirectional search.


def _require_search_ready(g: MultiGraph, side: str, max_vertices: int) -> GraphReport:
    """The structural report of ``g``; raises GraphError unless ``g`` is
    essential, irreducible, nontrivial and within the vertex cap."""
    report = classify_graph(g)
    problems = []
    if not report.essential:
        problems.append("essential")
    if not report.irreducible:
        problems.append("irreducible")
    if report.trivial:
        problems.append("nontrivial")
    if problems:
        raise GraphError(
            f"flow search requires the {side} graph to be "
            + ", ".join(problems)
        )
    if g.n > max_vertices:
        raise GraphError(
            f"the {side} graph has {g.n} vertices, above the search cap "
            f"{max_vertices}"
        )
    return report


def find_sequence(
    src: MultiGraph,
    dst: MultiGraph,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> MoveSequence:
    """Search for a move sequence carrying ``src`` to a graph isomorphic to
    ``dst``.

    Both graphs must be essential, irreducible and nontrivial.  If the
    Bowen-Franks pair already separates them the search refuses immediately
    (``invariant-mismatch``); otherwise a meet-in-the-middle frontier search
    runs up to ``max_depth`` total moves, cutting splittings at
    ``DEFAULT_PARTITION_CAP`` partitions per vertex, and raises
    :class:`NotFoundWithinBounds` with ``bounds-exhausted`` on failure.
    """
    report_src = _require_search_ready(src, "start", max_vertices)
    report_dst = _require_search_ready(dst, "goal", max_vertices)
    stats = SearchStats()

    want = franks_triple(src, report=report_src)
    if not equiv_det_pair(want, franks_triple(dst, report=report_dst)):
        raise NotFoundWithinBounds("invariant-mismatch", stats)

    entry_cap = max(9, _max_entry(src), _max_entry(dst))
    bounds = dict(
        max_vertices=max_vertices, entry_cap=entry_cap, partition_cap=DEFAULT_PARTITION_CAP
    )
    key_src, key_dst = canonical_key(src), canonical_key(dst)
    if key_src == key_dst:
        return MoveSequence(start=src, steps=(), stats=stats)

    # visited maps canonical key -> parent key; the roots have parent None.
    # A key's parent is the graph that first reached it.  Frontiers hold
    # (key, rows) pairs.
    visited_f = {key_src: None}
    visited_b = {key_dst: None}
    frontier_f = [(key_src, src.incidence().entries)]
    frontier_b = [(key_dst, dst.incidence().entries)]
    dist_f = dist_b = 0

    def chain(visited, key):
        out = []
        while key is not None:
            out.append(key)
            key = visited[key]
        return out

    while dist_f + dist_b < max_depth and frontier_f and frontier_b:
        forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if forward else frontier_b
        visited, other = (visited_f, visited_b) if forward else (visited_b, visited_f)
        next_frontier = []
        for key, m in frontier:
            stats.expanded += 1
            for _, rows, _ in _neighbors(m, stats=stats, **bounds):
                hkey = canonical_rows_key(rows)
                if hkey in visited:
                    continue
                visited[hkey] = key
                if hkey in other:
                    # The root of each chain has no step.
                    keys = chain(visited_f, hkey)[-2::-1] + chain(visited_b, hkey)[1:]
                    steps = _replay(src, keys, want, **bounds)
                    return MoveSequence(start=src, steps=steps, stats=stats)
                next_frontier.append((hkey, rows))
        if forward:
            frontier_f = next_frontier
            dist_f += 1
        else:
            frontier_b = next_frontier
            dist_b += 1

    raise NotFoundWithinBounds("bounds-exhausted", stats)


def _replay(start, keys, want, *, max_vertices, entry_cap, partition_cap):
    """Build the path from ``start`` through the canonical ``keys``; returns
    the steps.

    Each link is found again by enumerating the current graph's neighbor
    rows and matching their keys, and only the match is built, through
    :func:`_realize`.  A link the search made forward is the first neighbor,
    in enumeration order, with its key, so the capped pass finds that very
    step.  A link it made backward was discovered as the inverse of a move;
    the inverse always exists in the catalogue but may sit past the
    partition cap, hence the uncapped second pass.  Every step is checked
    not to drift the (group, det) pair of ``want``, the start's
    :class:`flowinv.invariants.FranksTriple`.
    """
    steps = []
    cur = start
    for key in keys:
        for cap in (partition_cap, None):
            found = next(
                (
                    (kind, recipe)
                    for kind, rows, recipe in _neighbors(
                        cur.incidence().entries,
                        max_vertices=max_vertices,
                        entry_cap=entry_cap,
                        partition_cap=cap,
                        stats=SearchStats(),
                    )
                    if canonical_rows_key(rows) == key
                ),
                None,
            )
            if found:
                break
        else:
            raise RuntimeError("internal error: discovered step could not be replayed")
        step = MoveStep(found[0], *_realize(cur, *found))
        group, proj = cokernel(bowen_franks_matrix(step.graph))
        if proj.det != want.determinant or not group_iso(group, want.group):
            raise RuntimeError("internal error: a step drifted the invariants")
        steps.append(step)
        cur = step.graph
    return tuple(steps)
