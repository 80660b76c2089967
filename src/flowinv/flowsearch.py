"""Bounded bidirectional search for a move sequence joining two graphs.

The search walks the neighbor relation generated by expansion, contraction,
single-vertex in-/out-splittings and single-block in-/out-amalgamations
(plus source elimination, which never fires on the essential graphs the
search admits).  Every one of these moves has its inverse in the catalogue,
so the relation is symmetric and a meet-in-the-middle frontier search from
both endpoints is sound: the backward half of a discovered path is replayed
forward by re-enumerating neighbors and matching canonical keys.

Graphs are identified up to isomorphism via canonical keys, so a found
sequence ends at a graph isomorphic to the goal.  The search is bounded
(depth, vertex count, entry size, partitions per vertex) and reports which
bound was the reason when nothing is found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from flowinv.exactla import cokernel, det, group_iso
from flowinv.graph import GraphError, MultiGraph, canonical_key, classify_graph
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
)

DEFAULT_MAX_DEPTH = 6
DEFAULT_MAX_VERTICES = 8
DEFAULT_PARTITION_CAP = 512


@dataclass
class SearchStats:
    """Counters describing how much work a search did and what it skipped."""

    expanded: int = 0
    pruned: int = 0
    partition_capped: int = 0

    def to_dict(self) -> dict:
        return {
            "expanded": self.expanded,
            "pruned": self.pruned,
            "partition_capped": self.partition_capped,
        }


class NotFoundWithinBounds(Exception):
    """No sequence was found; ``reason`` says whether one can exist.

    ``invariant-mismatch`` means the Bowen-Franks pair already separates the
    graphs, so no sequence exists at any depth; ``bounds-exhausted`` means
    the bounded search space was used up without meeting.
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
    """A start graph and the chain of steps applied to it."""

    start: MultiGraph
    steps: tuple[MoveStep, ...]

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


def _vector_partitions(total):
    """Multisets of nonzero vectors summing to ``total``.

    Parts are emitted in lexicographically non-increasing order, so each
    multiset appears exactly once; used to enumerate edge partitions up to
    the interchange of parallel edges.
    """

    def candidates(remaining, bound):
        ranges = [range(r + 1) for r in remaining]
        out = [x for x in itertools.product(*ranges) if any(x) and x <= bound]
        out.sort(reverse=True)
        return out

    def rec(remaining, bound):
        if not any(remaining):
            yield []
            return
        for part in candidates(remaining, bound):
            rest = tuple(r - p for r, p in zip(remaining, part))
            for tail in rec(rest, part):
                yield [part] + tail

    total = tuple(total)
    yield from rec(total, total)


def _split_partitions(g, v, mode, max_classes, partition_cap, stats):
    """Partitions of v's in- or out-edges into >= 2 classes, as Partitions.

    Bundles of parallel edges are treated as interchangeable, so each
    emitted partition represents a distinct result graph up to isomorphism.
    """
    incident = g.in_edges(v) if mode == "in" else g.out_edges(v)
    if len(incident) < 2:
        return
    bundles: dict[int, list[str]] = {}
    for e in incident:
        other = e.source if mode == "in" else e.target
        bundles.setdefault(other, []).append(e.id)
    order = sorted(bundles)
    counts = tuple(len(bundles[u]) for u in order)

    trivial = Partition.trivial(g, mode).classes
    base = {u: whole for u, whole in trivial.items() if u != v}

    emitted = 0
    for parts in _vector_partitions(counts):
        if len(parts) < 2:
            continue
        if len(parts) > max_classes:
            stats.pruned += 1
            continue
        if partition_cap is not None and emitted >= partition_cap:
            stats.partition_capped += 1
            break
        emitted += 1
        queues = {u: list(bundles[u]) for u in order}
        classes = []
        for part in parts:
            cls = []
            for u, take in zip(order, part):
                if take:
                    cls.extend(queues[u][:take])
                    del queues[u][:take]
            classes.append(cls)
        yield Partition({**base, v: classes})


def _amalgam_blocks(g, mode):
    """Single-block groupings of vertices with identical rows or columns."""
    m = g.incidence().entries
    groups: dict[tuple, list[int]] = {}
    for v in range(g.n):
        sig = tuple(m[v]) if mode == "in" else tuple(m[w][v] for w in range(g.n))
        groups.setdefault(sig, []).append(v)
    for members in groups.values():
        if len(members) < 2:
            continue
        for size in range(2, len(members) + 1):
            for subset in itertools.combinations(members, size):
                chosen = set(subset)
                blocks = []
                for v in range(g.n):
                    if v == subset[0]:
                        blocks.append(list(subset))
                    elif v not in chosen:
                        blocks.append([v])
                yield blocks


def _max_entry(g) -> int:
    return max((max(row) for row in g.incidence().entries), default=0)


def _neighbors(g, *, max_vertices, entry_cap, partition_cap, stats):
    """All admissible one-move neighbors of g, in a fixed order."""
    for v in range(g.n):
        if g.in_degree(v) == 0 and g.n >= 2:
            yield ("eliminate", {"vertex": g.label(v)}, eliminate_source(g, v))

    if g.n + 1 <= max_vertices:
        for v in range(g.n):
            yield ("expand", {"vertex": g.label(v)}, expand(g, v))
    else:
        stats.pruned += g.n

    for v in range(g.n):
        if g.out_degree(v) != 1:
            continue
        vs = g.out_edges(v)[0].target
        if vs != v and g.in_degree(vs) == 1:
            yield (
                "contract",
                {"vertex": g.label(v), "star": g.label(vs)},
                contract(g, v, vs),
            )

    for mode, name, split in (("in", "in-split", in_split), ("out", "out-split", out_split)):
        for v in range(g.n):
            max_classes = max_vertices - g.n + 1
            if max_classes < 2:
                continue
            for p in _split_partitions(g, v, mode, max_classes, partition_cap, stats):
                h = split(g, p).graph
                if _max_entry(h) > entry_cap:
                    stats.pruned += 1
                    continue
                yield (name, {"partition": p}, h)

    for mode, name, amalgamate in (
        ("in", "in-amalgamate", in_amalgamate),
        ("out", "out-amalgamate", out_amalgamate),
    ):
        for blocks in _amalgam_blocks(g, mode):
            try:
                h = amalgamate(g, blocks)
            except MoveError:
                continue
            if _max_entry(h) > entry_cap:
                stats.pruned += 1
                continue
            labeled = [[g.label(v) for v in block] for block in blocks]
            yield (name, {"blocks": labeled}, h)


# ---------------------------------------------------------------------------
# Bidirectional search.


def _require_search_ready(g: MultiGraph, side: str, max_vertices: int) -> None:
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


def find_sequence(
    src: MultiGraph,
    dst: MultiGraph,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    partition_cap: int | None = DEFAULT_PARTITION_CAP,
) -> MoveSequence:
    """Search for a move sequence carrying ``src`` to a graph isomorphic to
    ``dst``.

    Both graphs must be essential, irreducible and nontrivial.  If the
    Bowen-Franks pair already separates them the search refuses immediately
    (``invariant-mismatch``); otherwise a meet-in-the-middle frontier search
    runs up to ``max_depth`` total moves and raises
    :class:`NotFoundWithinBounds` with ``bounds-exhausted`` on failure.
    """
    _require_search_ready(src, "start", max_vertices)
    _require_search_ready(dst, "goal", max_vertices)
    stats = SearchStats()

    bs, bd = bowen_franks_matrix(src), bowen_franks_matrix(dst)
    if det(bs) != det(bd) or not equiv_det_pair(franks_triple(src), franks_triple(dst)):
        raise NotFoundWithinBounds("invariant-mismatch", stats)

    entry_cap = max(9, _max_entry(src), _max_entry(dst))
    key_src, key_dst = canonical_key(src), canonical_key(dst)
    if key_src == key_dst:
        return MoveSequence(start=src, steps=())

    # visited maps canonical key -> (graph, parent key); roots have parent None.
    visited_f = {key_src: (src, None)}
    visited_b = {key_dst: (dst, None)}
    frontier_f = [key_src]
    frontier_b = [key_dst]
    dist_f = dist_b = 0

    def chain(visited, key):
        out = []
        while key is not None:
            graph, key = visited[key]
            out.append(graph)
        return out

    while dist_f + dist_b < max_depth and frontier_f and frontier_b:
        forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if forward else frontier_b
        visited = visited_f if forward else visited_b
        other = visited_b if forward else visited_f
        next_frontier = []
        for key in frontier:
            graph = visited[key][0]
            stats.expanded += 1
            for _kind, _args, h in _neighbors(
                graph,
                max_vertices=max_vertices,
                entry_cap=entry_cap,
                partition_cap=partition_cap,
                stats=stats,
            ):
                hkey = canonical_key(h)
                if hkey in visited:
                    continue
                visited[hkey] = (h, key)
                if hkey in other:
                    toward_src = chain(visited_f, hkey)
                    toward_dst = chain(visited_b, hkey)
                    graphs = toward_src[::-1] + toward_dst[1:]
                    return _replay(
                        graphs,
                        max_vertices=max_vertices,
                        entry_cap=entry_cap,
                        partition_cap=partition_cap,
                    )
                next_frontier.append(hkey)
        if forward:
            frontier_f = next_frontier
            dist_f += 1
        else:
            frontier_b = next_frontier
            dist_b += 1

    raise NotFoundWithinBounds("bounds-exhausted", stats)


def _replay(graphs, *, max_vertices, entry_cap, partition_cap) -> MoveSequence:
    """Turn a chain of graphs into concrete steps by re-finding each move.

    Forward-half links were discovered by capped enumeration, so they are
    found again; backward-half links are inverses of discovered moves, which
    always exist in the catalogue but may sit past the partition cap, hence
    the uncapped second pass.
    """
    b0 = bowen_franks_matrix(graphs[0])
    group0, _ = cokernel(b0)
    det0 = det(b0)

    steps = []
    cur = graphs[0]
    for nxt in graphs[1:]:
        want = canonical_key(nxt)
        found = None
        for cap in (partition_cap, None):
            for kind, args, h in _neighbors(
                cur,
                max_vertices=max_vertices,
                entry_cap=entry_cap,
                partition_cap=cap,
                stats=SearchStats(),
            ):
                if canonical_key(h) == want:
                    found = (kind, args, h)
                    break
            if found:
                break
        if not found:
            raise RuntimeError("internal error: discovered step could not be replayed")
        kind, args, h = found
        bh = bowen_franks_matrix(h)
        gh, _ = cokernel(bh)
        if det(bh) != det0 or not group_iso(gh, group0):
            raise RuntimeError("internal error: replayed step drifted the invariants")
        steps.append(MoveStep(kind=kind, args=args, graph=h))
        cur = h
    return MoveSequence(start=graphs[0], steps=tuple(steps))
