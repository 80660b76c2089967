"""Bounded bidirectional search for a move sequence joining two graphs.

The search walks the neighbor relation generated by expansion, contraction,
single-vertex in-/out-splittings and single-block in-/out-amalgamations
(plus source elimination, which never fires on the essential graphs the
search admits).  Every one of these moves has its inverse in the catalogue,
so the relation is symmetric and a meet-in-the-middle frontier search from
both endpoints is sound.  The forward half of a discovered path is the
steps the search recorded as it went; only the backward half is replayed
forward, by re-enumerating neighbors and matching canonical keys.

Graphs are identified up to isomorphism via canonical keys, so a found
sequence ends at a graph isomorphic to the goal.  The search is bounded
(depth, vertex count, entry size, partitions per vertex); splittings into
more classes than the vertex bound allows are never generated.  When
nothing is found it reports the work done and the cuts the bounds made.
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
    """Counters describing how much work a search did and what it skipped.

    ``expanded`` counts the graphs whose neighbors were enumerated.
    ``pruned`` counts neighbors cut by the vertex cap (expansions) or the
    entry cap; splittings into more classes than the vertex cap allows are
    never generated, so they are not counted.  ``partition_capped`` counts
    vertices whose splittings were cut off at the partition cap.
    """

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
    the bounded search space was used up without meeting.  ``stats`` holds
    the :class:`SearchStats` of the search; its ``pruned`` counts only
    vertex-cap and entry-cap cuts.
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


def _split_partitions(g, v, mode, trivial, max_classes, partition_cap, stats):
    """Partitions of v's in- or out-edges into 2..max_classes classes, as
    Partitions; ``trivial`` holds every other vertex's single class.

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
    base = {u: whole for u, whole in trivial.items() if u != v}

    emitted = 0
    for parts in _vector_partitions(counts, max_classes):
        if len(parts) < 2:
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

    max_classes = max_vertices - g.n + 1
    for mode, name, split in (("in", "in-split", in_split), ("out", "out-split", out_split)):
        if max_classes < 2:
            continue
        trivial = Partition.trivial(g, mode).classes
        for v in range(g.n):
            for p in _split_partitions(g, v, mode, trivial, max_classes, partition_cap, stats):
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

    # visited maps canonical key -> (graph, parent key, step); roots have
    # parent None.  A forward entry's step is the move that reached it from
    # its parent: the first neighbor, in enumeration order, with that key.
    visited_f = {key_src: (src, None, None)}
    visited_b = {key_dst: (dst, None, None)}
    frontier_f = [key_src]
    frontier_b = [key_dst]
    dist_f = dist_b = 0

    def chain(visited, key):
        out = []
        while key is not None:
            out.append(visited[key])
            key = out[-1][1]
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
            for kind, args, h in _neighbors(
                graph,
                max_vertices=max_vertices,
                entry_cap=entry_cap,
                partition_cap=partition_cap,
                stats=stats,
            ):
                hkey = canonical_key(h)
                if hkey in visited:
                    continue
                step = MoveStep(kind=kind, args=args, graph=h) if forward else None
                visited[hkey] = (h, key, step)
                if hkey in other:
                    toward_src = chain(visited_f, hkey)[:-1]  # the root has no step
                    toward_dst = chain(visited_b, hkey)[1:]
                    return _replay(
                        src,
                        [step for _, _, step in reversed(toward_src)],
                        [graph for graph, _, _ in toward_dst],
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


def _replay(start, forward, backward, *, max_vertices, entry_cap, partition_cap) -> MoveSequence:
    """Join the recorded forward steps and the backward half of a path.

    ``forward`` holds the steps that carried ``start`` to the meeting graph,
    as the search recorded them.  ``backward`` lists the graphs from the
    meeting graph's backward parent to the goal; each link was discovered as
    the inverse of a move, so it is found again by enumerating neighbors and
    matching canonical keys.  The inverse always exists in the catalogue but
    may sit past the partition cap, hence the uncapped second pass.  Every
    step, forward and backward, is checked not to drift the invariants.
    """
    b0 = bowen_franks_matrix(start)
    group0, _ = cokernel(b0)
    det0 = det(b0)

    def checked(step):
        bh = bowen_franks_matrix(step.graph)
        gh, _ = cokernel(bh)
        if det(bh) != det0 or not group_iso(gh, group0):
            raise RuntimeError("internal error: a step drifted the invariants")
        return step

    steps = [checked(step) for step in forward]
    cur = steps[-1].graph if steps else start
    for nxt in backward:
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
                    found = MoveStep(kind=kind, args=args, graph=h)
                    break
            if found:
                break
        if not found:
            raise RuntimeError("internal error: discovered step could not be replayed")
        steps.append(checked(found))
        cur = found.graph
    return MoveSequence(start=start, steps=tuple(steps))
