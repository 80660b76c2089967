"""Bounded bidirectional search for a move sequence joining two graphs.

The search walks the neighbor relation generated by expansion, contraction,
single-vertex in-/out-splittings and single-block in-/out-amalgamations.
Every one of these moves has its inverse among them, so the relation is
symmetric and a meet-in-the-middle frontier search from both endpoints is
sound.  The search admits only essential graphs, and each of these moves
keeps a graph essential, so source elimination would never apply and is
not walked.

One :class:`_Search` holds a search's bounds, its :class:`SearchStats` and
its memos, and lives and dies with it.  The search is a function of
incidence rows until it returns:

- It records, for each visited key (:func:`flowinv.graph.canonical_rows_key`
  of a neighbor's rows, computed from its parent's rows alone), only its
  parent's key, and for each key the forward side reached, the (kind,
  recipe) of the neighbor that first reached it.
- The replay of a found path builds graphs, with their edges, labels and
  script arguments, through the moves themselves and only for its steps.
  A link the forward side made is built from its recorded recipe; one the
  backward side made is the inverse of the move it recorded, so it is found
  again by enumerating the graph's rows, building only the neighbor whose
  key matches.
- It skips work whose result is already known or cannot matter.  The shape
  of a matrix (:func:`_shape`: its vertex count and sorted (out-degree,
  in-degree) pairs) survives every vertex permutation, so a key has the
  shape of what it keys.  A neighbor on the last level, whose frontier is
  never expanded, is keyed only if some key of the other side has its
  shape; one the replay enumerates, only if it has the shape of the key
  sought.  Each distinct rows is keyed once, and the vector partitions of
  each bundle vector are enumerated once, keeping only the first
  ``partition_cap + 1`` with two or more parts: all the cap lets through,
  and the one that shows it cut.  None of this changes the first meet or
  the first match in enumeration order.

Graphs are identified up to isomorphism via canonical keys, so a found
sequence ends at a graph isomorphic to the goal.  The search is bounded
(depth, vertex count, entry size, partitions per vertex); splittings into
more classes than the vertex bound allows are never generated.  When
nothing is found it reports the work done and the cuts the bounds made.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

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
    eliminate_source,  # noqa: F401 - unused, but bench/tracing.py wraps this name
    expand,
    in_amalgamate,
    in_split,
    move_side,
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


def _split_rows(m, v, max_classes, partition_cap, stats, partitions):
    """In-splittings of vertex v of the incidence rows ``m`` into
    2..max_classes classes, as (parts, rows) pairs.

    The in-edges of v are bundled by source, and bundles of parallel edges
    are interchangeable, so each vector partition of the bundle sizes (one
    part per class, over the sorted sources of v) is one result up to
    isomorphism.  Its rows are m with column v replaced by one column per
    part and row v repeated once per part: every copy of v keeps v's
    out-edges, and copy i receives part i.  This is the incidence of
    :func:`in_split` by the matching partition, vertex order included.
    Every row is cut around column v once per call; each splitting joins
    the cut ends to its split column, whose entries come from
    ``zip(*parts)``: one tuple per source, one entry per part.

    ``partitions`` memoizes the vector partitions of each bundle vector:
    only those with two or more parts, and only the first
    ``partition_cap + 1``, which is all the cap lets through plus the one
    that tells whether it cut.  Uncapped, they stay a lazy generator.
    """
    order = [u for u, row in enumerate(m) if row[v]]
    counts = tuple(m[u][v] for u in order)
    if sum(counts) < 2:
        return
    splits = (p for p in _vector_partitions(counts, max_classes) if len(p) >= 2)
    if partition_cap is not None:
        at = (counts, max_classes, partition_cap)
        if at not in partitions:
            partitions[at] = list(itertools.islice(splits, partition_cap + 1))
        splits = partitions[at]
    heads = [row[:v] for row in m]
    tails = [row[v + 1 :] for row in m]
    emitted = 0
    for parts in splits:
        if partition_cap is not None and emitted >= partition_cap:
            stats.partition_capped += 1
            break
        emitted += 1
        split_col = [(0,) * len(parts)] * len(m)
        for u, col in zip(order, zip(*parts)):
            split_col[u] = col
        rows = [head + col + tail for head, col, tail in zip(heads, split_col, tails)]
        rows[v : v + 1] = rows[v : v + 1] * len(parts)
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


def _shape(rows):
    """(vertex count, sorted (out-degree, in-degree) pairs) of the incidence
    rows ``rows``.  No vertex permutation changes it, and a canonical key is
    permuted rows, so a key has the shape of every matrix it keys."""
    return len(rows), tuple(sorted(zip(map(sum, rows), map(sum, zip(*rows)))))


def _realize(g, kind, recipe):
    """Build the neighbor of g that :meth:`_Search.neighbors` described by
    ``kind`` and ``recipe``, through the move itself: returns (script args,
    graph).

    A splitting's partition puts, in class i at its vertex, the first
    part-i-many edges of each bundle in g's edge order; every other vertex
    keeps its single class.
    """
    if kind == "expand":
        return {"vertex": g.label(recipe)}, expand(g, recipe)
    if kind == "contract":
        v, vs = recipe
        return {"vertex": g.label(v), "star": g.label(vs)}, contract(g, v, vs)
    mode, family = kind.split("-")
    if family == "split":
        v, parts = recipe
        side = move_side(mode)
        bundles: dict[int, list[str]] = {}
        for e in side.edges(g, v):
            bundles.setdefault(side.far(e), []).append(e.id)
        queues = [bundles[u] for u in sorted(bundles)]
        classes = []
        for part in parts:
            cls = []
            for queue, take in zip(queues, part):
                cls.extend(queue[:take])
                del queue[:take]
            classes.append(cls)
        p = Partition({**Partition.trivial(g, mode).classes, v: classes})
        # Looked up per call, not at import, so a wrapper put on a move is called.
        split = {"in": in_split, "out": out_split}[mode]
        return {"partition": p}, split(g, p).graph
    amalgamate = {"in": in_amalgamate, "out": out_amalgamate}[mode]
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


@dataclass
class _Search:
    """One search: its bounds, its counters and its memos.

    ``max_vertices``, ``entry_cap`` and ``partition_cap`` bound the
    neighbors; ``stats`` counts what the search did and what the bounds cut.
    ``keyed`` maps each rows to its key, ``partitions`` is
    :func:`_split_rows`'s memo, and ``links`` maps each key the forward side
    reached to the (kind, recipe) of the neighbor that first reached it.
    """

    max_vertices: int
    entry_cap: int
    partition_cap: int | None
    stats: SearchStats = field(default_factory=SearchStats)
    keyed: dict = field(default_factory=dict)
    partitions: dict = field(default_factory=dict)
    links: dict = field(default_factory=dict)

    def neighbors(self, m):
        """All admissible one-move neighbors of the graph with incidence
        rows ``m``, in a fixed order, as (kind, rows, recipe) triples.

        ``rows`` is the neighbor's incidence matrix, computed from ``m``
        alone: a splitting edits rows and columns (see :func:`_split_rows`),
        an amalgamation is :func:`flowinv.moves.quotient_rows` (see
        :func:`_amalgam_blocks`), and expansion and contraction edit rows
        directly; out-moves are the in-moves of the transpose.  The entry
        cap is read from the rows.  ``recipe`` is what :func:`_realize`
        needs to build the graph and the script arguments through the move
        itself: the vertex (expand), the vertex and its star (contract), the
        vertex and the vector partition (splittings), or the blocks
        (amalgamations).
        """
        stats, entry_cap = self.stats, self.entry_cap
        n = len(m)
        cols = tuple(zip(*m))

        if n + 1 <= self.max_vertices:
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

        max_classes = self.max_vertices - n + 1
        if max_classes >= 2:
            for kind, oriented in (("in-split", m), ("out-split", cols)):
                for v in range(n):
                    for parts, rows in _split_rows(
                        oriented, v, max_classes, self.partition_cap, stats, self.partitions
                    ):
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

    def key(self, rows):
        """:func:`flowinv.graph.canonical_rows_key` of ``rows``, through
        the memo ``keyed``."""
        key = self.keyed.get(rows)
        if key is None:
            key = self.keyed[rows] = canonical_rows_key(rows)
        return key

    def find_link(self, m, key):
        """The (kind, recipe) of the first neighbor of the rows ``m``, in
        enumeration order, whose key is ``key``; None if there is none.

        The inverse of a move always exists in the catalogue but may sit
        past the partition cap, hence the uncapped second pass.  Each pass
        is a probe that shares this search's memos but counts into a stats
        of its own.  A neighbor is keyed only if its :func:`_shape` is the
        key's, which every match passes, so the first match is unchanged.
        """
        shape = _shape(key)
        for cap in (self.partition_cap, None):
            probe = replace(self, partition_cap=cap, stats=SearchStats())
            for kind, rows, recipe in probe.neighbors(m):
                if _shape(rows) == shape and self.key(rows) == key:
                    return kind, recipe
        return None

    def replay(self, start, keys, want):
        """Build the path from ``start`` through the canonical ``keys``;
        returns the steps.

        On a path the links the search made forward come first, from the
        start to the meet, and each recipe was enumerated from the rows of
        the key before it, which are the rows of the graph the replay built
        for that key; so such a link is built directly, through
        :func:`_realize`.  A link the search made backward was discovered as
        the inverse of a move, so :meth:`find_link` finds it again.

        Every step built must key to its link, which the memo answers for a
        recorded one, and must not drift the (group, det) pair of ``want``,
        the start's :class:`flowinv.invariants.FranksTriple`; either failure
        is an internal error.
        """
        steps = []
        cur = start
        for key in keys:
            link = self.links.get(key) or self.find_link(cur.incidence().entries, key)
            if link is not None:
                step = MoveStep(link[0], *_realize(cur, *link))
            if link is None or self.key(step.graph.incidence().entries) != key:
                raise RuntimeError("internal error: discovered step could not be replayed")
            group, proj = cokernel(bowen_franks_matrix(step.graph))
            if proj.det != want.determinant or not group_iso(group, want.group):
                raise RuntimeError("internal error: a step drifted the invariants")
            steps.append(step)
            cur = step.graph
        return tuple(steps)


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
    A negative ``max_depth`` raises GraphError.
    """
    if max_depth < 0:
        raise GraphError(f"max_depth must be non-negative, got {max_depth}")
    report_src = _require_search_ready(src, "start", max_vertices)
    report_dst = _require_search_ready(dst, "goal", max_vertices)

    want = franks_triple(src, report=report_src)
    if not equiv_det_pair(want, franks_triple(dst, report=report_dst)):
        raise NotFoundWithinBounds("invariant-mismatch", SearchStats())

    entry_cap = max(9, _max_entry(src), _max_entry(dst))
    search = _Search(max_vertices, entry_cap, DEFAULT_PARTITION_CAP)
    stats = search.stats
    key_src, key_dst = canonical_key(src), canonical_key(dst)
    if key_src == key_dst:
        return MoveSequence(start=src, steps=(), stats=stats)

    # visited maps canonical key -> parent key; the roots have parent None.
    # A key's parent is the graph that first reached it.  Frontiers hold
    # (key, rows) pairs; depth counts the levels both sides have walked.
    visited_f = {key_src: None}
    visited_b = {key_dst: None}
    frontier_f = [(key_src, src.incidence().entries)]
    frontier_b = [(key_dst, dst.incidence().entries)]
    depth = 0

    def chain(visited, key):
        out = []
        while key is not None:
            out.append(key)
            key = visited[key]
        return out

    while depth < max_depth and frontier_f and frontier_b:
        forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if forward else frontier_b
        visited, other = (visited_f, visited_b) if forward else (visited_b, visited_f)
        depth += 1
        # The last level's frontier is never expanded, so only a meet can
        # come of it, and a neighbor meets only keys of its own shape.
        last = depth == max_depth
        shapes = {_shape(k) for k in other} if last else None
        next_frontier = []
        for key, m in frontier:
            stats.expanded += 1
            for kind, rows, recipe in search.neighbors(m):
                if last and _shape(rows) not in shapes:
                    continue
                hkey = search.key(rows)
                if hkey in visited:
                    continue
                visited[hkey] = key
                if forward:
                    search.links[hkey] = kind, recipe
                if hkey in other:
                    # The root of each chain has no step.
                    keys = chain(visited_f, hkey)[-2::-1] + chain(visited_b, hkey)[1:]
                    steps = search.replay(src, keys, want)
                    return MoveSequence(start=src, steps=steps, stats=stats)
                next_frontier.append((hkey, rows))
        if forward:
            frontier_f = next_frontier
        else:
            frontier_b = next_frontier

    raise NotFoundWithinBounds("bounds-exhausted", stats)
