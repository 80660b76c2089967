"""Graph moves: splittings, amalgamations, delays, and determinant gadgets.

Every move returns a new graph (inputs are never mutated).  The six moves
that generate flow equivalence are in-splitting, in-amalgamation,
out-splitting, out-amalgamation, expansion and contraction; source
elimination, the Drinen delays, the shift move and the sign gadgets
``minus``/``minus1`` extend the catalogue.

Mirrored moves are written once.  Out-splitting is in-splitting conjugated
by transposition, out-amalgamation is in-amalgamation conjugated the same
way, and the in-delay is the out-delay conjugated the same way (its chain
labels take ``_`` where the out-delay's take ``^``).  Each pair shares one
kernel.  The kernel works on (source, target, id) triples, or on the
incidence rows for the amalgamations.  The mirror feeds it the reversed
triples or the transposed matrix and reverses what it returns.  So the
mirror keeps edge ids and edge order, and no graph is transposed.

The moves that name no edge (source elimination, expansion, contraction,
the shift move and the sign gadgets) build the child's incidence matrix from
the parent's, in O(n^2).  Each hands the child its edge rule, a function
from the parent's edge columns (sources, targets, ids) to the child's, and
the child's edges are derived from it on first read (see
:class:`~flowinv.graph.MultiGraph`); so a caller that reads only matrices,
as the search and the classifier do, builds no edge.  The amalgamations
build a matrix-only graph.  The rows of an expansion, a contraction and an
amalgamation come from one rule each (:func:`expansion_rows`,
:func:`contraction_rows`, :func:`quotient_rows`), which the search calls
too.  The splittings and delays name edges and build the child from its
edge list.

Each script keyword's argument names are written once, in ``MOVES``;
:func:`apply_move` and the command line's script reader and writer read them.

Vertex order conventions are fixed so results are reproducible: splittings
keep the original vertex order and expand each split vertex into a
consecutive run, labelled ``v#1 .. v#m``; appended vertices go last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Callable, NamedTuple

from flowinv.exactla import IntMatrix, cokernel, exact_int, group_iso, smith_diagonal
from flowinv.graph import (
    Edge,
    GraphError,
    MultiGraph,
    is_cyclic_component,
    make_edges,
    strongly_connected_components,
    vertex_budget_breach,
)
from flowinv.invariants import bowen_franks_matrix


class MoveError(ValueError):
    """A move's hypotheses are not met by the given arguments."""


# (target, source, id) of a (source, target, id) triple.
_REVERSED = itemgetter(1, 0, 2)


def _fresh_label(used, base: str) -> str:
    if base not in used:
        return base
    k = 0
    while f"{base}{k}" in used:
        k += 1
    return f"{base}{k}"


def _fresh_edge_id(used, base: str) -> str:
    if base not in used:
        used.add(base)
        return base
    k = 0
    while f"{base}.{k}" in used:
        k += 1
    used.add(f"{base}.{k}")
    return f"{base}.{k}"


def _with_new_edges(sources, targets, ids, pairs, base: str):
    """The edge columns with one edge per (source, target) of ``pairs``
    appended, in order, each with the next fresh id made from ``base``."""
    used = set(ids)
    fresh = [_fresh_edge_id(used, base) for _ in pairs]
    return [*sources, *(s for s, _ in pairs)], [*targets, *(t for _, t in pairs)], [*ids, *fresh]


def _drop_leaving(gone: int, at):
    """The edge rule that drops the edges leaving ``gone`` and moves every
    other edge's endpoints u to at[u]; ids and order are kept."""
    remap = at.__getitem__

    def edges(sources, targets, ids):
        keep = [u != gone for u in sources]
        sources, targets, ids = (compress(col, keep) for col in (sources, targets, ids))
        return map(remap, sources), map(remap, targets), ids

    return edges


# ---------------------------------------------------------------------------
# The two sides of a mirrored move.


class Side(NamedTuple):
    """The edges an in- or out-move reads at a vertex, and its words."""

    edges: Callable[[MultiGraph, int], tuple[Edge, ...]]  # the edges at v
    far: Callable[[Edge], int]  # the other end of such an edge, its source or target
    adjective: str
    verb: str
    compared: str  # what an amalgamation's block members must share
    vector_kind: str  # the Drinen vector that delays these edges


_SIDES = {
    "in": Side(
        MultiGraph.in_edges, itemgetter(0), "incoming", "entering", "outgoing rows", "range"
    ),
    "out": Side(
        MultiGraph.out_edges, itemgetter(1), "outgoing", "leaving", "incoming columns", "source"
    ),
}
_VECTOR_SIDES = {side.vector_kind: side for side in _SIDES.values()}


def move_side(mode: str) -> Side:
    """The side of ``mode``, ``"in"`` or ``"out"``; any other is a ValueError."""
    try:
        return _SIDES[mode]
    except (KeyError, TypeError):
        raise ValueError("mode must be 'in' or 'out'") from None


# ---------------------------------------------------------------------------
# Partitions.


class Partition:
    """Assignment of edge sets to numbered classes, driving a splitting.

    For an in-splitting the classes at vertex v partition the edges entering
    v; for an out-splitting they partition the edges leaving v.  Classes are
    numbered 1..m(v) by position.  Vertices whose relevant edge set is empty
    carry no classes (m(v) = 0) and survive a splitting unchanged.
    """

    def __init__(self, classes):
        self.classes = {
            exact_int(v): tuple(tuple(str(e) for e in cls) for cls in classlist)
            for v, classlist in classes.items()
            if classlist
        }

    def m(self, v: int) -> int:
        return len(self.classes.get(v, ()))

    def validate(self, g: MultiGraph, mode: str) -> None:
        side = move_side(mode)
        edge_sets = {v: {e.id for e in side.edges(g, v)} for v in range(g.n)}
        for v, classlist in self.classes.items():
            if not 0 <= v < g.n:
                raise MoveError(f"partition names vertex {v}, graph has {g.n}")
            want = edge_sets[v]
            seen = set()
            for idx, cls in enumerate(classlist, start=1):
                if not cls:
                    raise MoveError(f"class {idx} at {g.label(v)} is empty")
                for eid in cls:
                    if eid not in want:
                        raise MoveError(f"edge {eid!r} is not {side.verb} {g.label(v)}")
                    if eid in seen:
                        raise MoveError(f"edge {eid!r} listed twice at {g.label(v)}")
                    seen.add(eid)
            if seen != want:
                missing = sorted(want - seen)
                raise MoveError(
                    f"classes at {g.label(v)} miss edges {missing}"
                )
        for v in range(g.n):
            if edge_sets[v] and self.m(v) == 0:
                raise MoveError(
                    f"vertex {g.label(v)} has {side.adjective} edges but no classes"
                )

    @staticmethod
    def trivial(g: MultiGraph, mode: str) -> "Partition":
        """One class per non-isolated vertex: the identity splitting."""
        edges = move_side(mode).edges
        return Partition({v: [[e.id for e in edges(g, v)]] for v in range(g.n) if edges(g, v)})

    @staticmethod
    def singletons(g: MultiGraph, mode: str) -> "Partition":
        """Every edge in its own class: the maximal splitting."""
        edges = move_side(mode).edges
        return Partition({v: [[e.id] for e in edges(g, v)] for v in range(g.n)})


@dataclass(frozen=True)
class VertexClassMap:
    """Integer vector over the target's vertices for each source vertex.

    Extending linearly gives a map Z^(source) -> Z^(target); the map is the
    claimed description of where each vertex class lands.
    """

    vectors: tuple[tuple[int, ...], ...]

    def as_matrix(self) -> IntMatrix:
        return IntMatrix.from_rows(zip(*self.vectors))


def _class_map(width: int, images) -> VertexClassMap:
    """The 0/1 class map into ``width`` target vertices that sends each
    source vertex, in order, to the sum of the target vertices ``images``
    lists for it."""
    vectors = []
    for image in images:
        vec = [0] * width
        for idx in image:
            vec[idx] = 1
        vectors.append(tuple(vec))
    return VertexClassMap(tuple(vectors))


@dataclass(frozen=True)
class SplitFactorization:
    """A_E = R @ S and (for source-free E) A_split = S @ R.

    R counts, per original vertex, the edges it emits into each partition
    class; S marks which vertex each class enters.  When E has sources the
    split graph keeps them as extra vertices outside the class indexing, so
    only the source-free case gives the full S @ R identity.
    """

    r: IntMatrix
    s: IntMatrix


@dataclass(frozen=True)
class SplitResult:
    """A splitting's graph, the blocks of new indices per old vertex, and
    its ``mode``, ``"in"`` or ``"out"``.

    The vertex class map and, for an in-splitting, the factorization are
    read off the graph and the blocks on first read and cached, the way
    :attr:`flowinv.exactla.CokernelProjection.u` is; a caller that reads
    only the graph, as the search does, never builds them.
    """

    graph: MultiGraph
    blocks: tuple[tuple[int, ...], ...]
    mode: str

    @cached_property
    def class_map(self) -> VertexClassMap:
        """v -> v#1 for an in-splitting; v -> the sum of its copies for an
        out-splitting."""
        if self.mode == "out":
            return _class_map(self.graph.n, self.blocks)
        return _class_map(self.graph.n, (block[:1] for block in self.blocks))

    @cached_property
    def factorization(self) -> SplitFactorization | None:
        """A_E = R @ S of an in-splitting; None for an out-splitting, or
        when no vertex has incoming edges.

        The classes are the copies of the split vertices, which are the
        vertices with incoming edges, so those whose first copy has a
        nonzero column.  R[w][c] counts the edges from w in class c: the
        first copy of w (w itself if it was not split) sends one edge to c
        for each of them.
        """
        if self.mode != "in":
            return None
        m = self.graph.incidence().entries
        classes = [
            (v, c)
            for v, block in enumerate(self.blocks)
            if any(row[block[0]] for row in m)
            for c in block
        ]
        if not classes:
            return None
        n = len(self.blocks)
        r = IntMatrix.from_rows([[m[b[0]][c] for _, c in classes] for b in self.blocks])
        s = IntMatrix.from_rows([[int(v == w) for w in range(n)] for v, _ in classes])
        return SplitFactorization(r=r, s=s)


# ---------------------------------------------------------------------------
# Splittings.


def _split_triples(labels, p: Partition, triples):
    """In-split the edges ``triples``, (source, target, id) each, by ``p``.

    The kernel of both splittings: an out-splitting is this in-splitting of
    the reversed triples, read back reversed.  Returns the new labels, the
    blocks of new indices per vertex, and the new triples in the order of
    the old ones.

    The j-th copy of edge e is named ``e#j``, unless an edge that is not
    copied already has that id; then the copy gets a fresh one.
    """
    n = len(labels)
    m = [p.m(v) for v in range(n)]
    new_labels: list[str] = []
    blocks: list[tuple[int, ...]] = []
    taken = {labels[v] for v in range(n) if m[v] == 0}
    for v in range(n):
        start = len(new_labels)
        if m[v] == 0:
            new_labels.append(labels[v])
        for i in range(1, m[v] + 1):
            lab = _fresh_label(taken, f"{labels[v]}#{i}")
            taken.add(lab)
            new_labels.append(lab)
        blocks.append(tuple(range(start, len(new_labels))))

    class_of: dict[str, int] = {}
    for classlist in p.classes.values():
        for i, cls in enumerate(classlist):
            for eid in cls:
                class_of[eid] = i

    kept = {eid for src, _, eid in triples if m[src] == 0}
    edges = []
    for src, tgt, eid in triples:
        head = blocks[tgt][class_of[eid]]
        if m[src] == 0:
            edges.append((blocks[src][0], head, eid))
        else:
            for j, tail in enumerate(blocks[src], start=1):
                copy = f"{eid}#{j}"
                if copy in kept:
                    copy = _fresh_edge_id(kept, copy)
                edges.append((tail, head, copy))
    return new_labels, tuple(blocks), edges


def in_split(g: MultiGraph, p: Partition) -> SplitResult:
    """Split each vertex according to a partition of its incoming edges.

    Vertex v with m(v) classes becomes v#1..v#m(v); an edge e into v lying
    in class i points at v#i, and e is duplicated once for every class of
    its source vertex (edges from unsplit source vertices survive as single
    copies).

    The result carries the per-vertex blocks of new indices; its vertex
    class map v -> v#1 and its factorization A_E = R @ S are built on
    first read.
    """
    p.validate(g, "in")
    labels, blocks, edges = _split_triples(g.labels, p, g.edges)
    return SplitResult(MultiGraph(labels, make_edges(edges)), blocks, "in")


def out_split(g: MultiGraph, p: Partition) -> SplitResult:
    """Split each vertex according to a partition of its outgoing edges.

    The transpose-conjugate of :func:`in_split`: vertex v becomes
    v#1..v#m(v), an edge e leaving v from class i starts at v#i, and e is
    duplicated once for every class of its target vertex.  The vertex class
    map, built on first read, sends v to the sum of its copies.
    """
    p.validate(g, "out")
    labels, blocks, edges = _split_triples(g.labels, p, list(map(_REVERSED, g.edges)))
    return SplitResult(MultiGraph(labels, make_edges(map(_REVERSED, edges))), blocks, "out")


# ---------------------------------------------------------------------------
# Amalgamations (checked inverses of the splittings).


def _normalize_blocks(g: MultiGraph, blocks) -> list[list[int]]:
    norm = [[g.vertex(v) for v in block] for block in blocks]
    flat = [v for block in norm for v in block]
    if sorted(flat) != list(range(g.n)):
        raise MoveError("blocks must partition the vertex set")
    if any(not block for block in norm):
        raise MoveError("blocks must be nonempty")
    return norm


def quotient_rows(m, blocks) -> tuple[tuple[int, ...], ...]:
    """Incidence rows of the in-amalgamation of the rows ``m`` by ``blocks``
    (lists of vertex indices): Q[bi][bj] = sum over u in bj of
    m[first(bi)][u], where first(b) is the first vertex of block b.

    The rows of a block are assumed equal; :func:`in_amalgamate` checks
    that, and the search only forms such blocks.
    """
    return tuple(tuple(sum(m[bi[0]][u] for u in bj) for bj in blocks) for bi in blocks)


def _amalgamate_rows(g: MultiGraph, blocks, m, side: str):
    """In-amalgamate the graph with g's labels and incidence rows ``m``.

    The kernel of both amalgamations: an out-amalgamation is this
    in-amalgamation of the transposed matrix, read back transposed; ``side``
    only words the errors.  Returns the quotient's labels and its rows
    (:func:`quotient_rows`) in m's orientation.

    The two checks make the move exact, so the quotient needs no re-split to
    certify it.  The recovered in-partition puts, at block bj, one class per
    member u, holding the m[first(bi)][u] edges from each bi.  When bj has
    two or more members, every member's column is nonzero, so every class is
    nonempty and bj splits into exactly |bj| copies, one per member; a
    one-member block stays one vertex either way.  Re-splitting Q by this
    partition sends, from the copy of each member w of bi, the
    m[first(bi)][u] edges of class u to the copy of u, and m[first(bi)][u] =
    m[w][u] because the rows of a block are equal.  So the re-split is m
    with its vertices in block order.
    """
    words = move_side(side)
    norm = _normalize_blocks(g, blocks)
    for block in norm:
        first = m[block[0]]
        for v in block[1:]:
            if m[v] != first:
                raise MoveError(
                    f"vertices {g.label(block[0])} and {g.label(v)} have "
                    f"different {words.compared}"
                )
        if len(block) > 1:
            for v in block:
                if not any(row[v] for row in m):
                    raise MoveError(
                        f"vertex {g.label(v)} has no {words.adjective} edges, its "
                        "partition class would be empty"
                    )

    qlabels = []
    for block in norm:
        base = g.label(block[0]).rsplit("#", 1)[0]
        qlabels.append(_fresh_label(qlabels, base))
    return qlabels, quotient_rows(m, norm)


def in_amalgamate(g: MultiGraph, blocks) -> MultiGraph:
    """Merge the vertices of each block, undoing an in-splitting.

    Each block must consist of vertices with identical outgoing rows (the
    footprint an in-splitting leaves behind), and in a block of two or more
    every vertex must have an incoming edge.  Then re-splitting the quotient
    by the recovered partition gives back ``g`` exactly, with its vertices
    in block order.
    """
    labels, rows = _amalgamate_rows(g, blocks, g.incidence().entries, "in")
    return MultiGraph(labels, matrix=rows)


def out_amalgamate(g: MultiGraph, blocks) -> MultiGraph:
    """Merge the vertices of each block, undoing an out-splitting.

    The transpose-conjugate of :func:`in_amalgamate`: blocks must have
    identical incoming columns, and in a block of two or more every vertex
    must have an outgoing edge.
    """
    labels, rows = _amalgamate_rows(g, blocks, tuple(zip(*g.incidence().entries)), "out")
    return MultiGraph(labels, matrix=zip(*rows))


# ---------------------------------------------------------------------------
# Source elimination, expansion, contraction.


def expansion_rows(m, v) -> tuple[tuple[int, ...], ...]:
    """Incidence rows of the expansion of the rows ``m`` at vertex v: the new
    last vertex v* takes over v's row, and v's one edge goes to v*."""
    rows = [row + (0,) for row in m]
    rows[v] = (0,) * len(m) + (1,)
    rows.append(m[v] + (0,))
    return tuple(rows)


def contraction_rows(m, v, vs) -> tuple[tuple[int, ...], ...]:
    """Incidence rows of the contraction of v* = ``vs`` into v, which
    :func:`contract` checks is an expansion pattern: v takes over row v*,
    which replaces v's single edge, the bridge; the bridge alone enters v*,
    so column v* goes with it."""
    return _drop_vertex([m[vs] if u == v else row for u, row in enumerate(m)], vs)


def _drop_vertex(m, v) -> tuple[tuple[int, ...], ...]:
    """The rows ``m`` without vertex v's row and column."""
    return tuple(row[:v] + row[v + 1 :] for u, row in enumerate(m) if u != v)


def _removable_source(g: MultiGraph, v) -> int:
    """The index of vertex v, which :func:`eliminate_source` may remove: a
    source that is not the only vertex; else a MoveError."""
    v = g.vertex(v)
    if g.in_degree(v) != 0:
        raise MoveError(f"vertex {g.label(v)} is not a source")
    if g.n < 2:
        raise MoveError("cannot remove the only vertex")
    return v


def eliminate_source(g: MultiGraph, v) -> MultiGraph:
    """Remove a source vertex together with all the edges it emits."""
    v = _removable_source(g, v)
    labels = [g.label(u) for u in range(g.n) if u != v]
    rows = _drop_vertex(g.incidence().entries, v)
    at = [u - (u > v) for u in range(g.n)]
    return MultiGraph(labels, matrix=rows, _derive=(g, _drop_leaving(v, at)))


def expand(g: MultiGraph, v) -> MultiGraph:
    """Insert a new vertex v* after v: v keeps its incoming edges, emits a
    single new edge to v*, and v* takes over all edges formerly leaving v."""
    v = g.vertex(v)
    star = g.n
    labels = list(g.labels)
    labels.append(_fresh_label(labels, g.label(v) + "*"))
    rows = expansion_rows(g.incidence().entries, v)

    def edges(sources, targets, ids):
        at = list(range(star))
        at[v] = star
        return _with_new_edges(map(at.__getitem__, sources), targets, ids, [(v, star)], "f")

    return MultiGraph(labels, matrix=rows, _derive=(g, edges))


def contract(g: MultiGraph, v, v_star) -> MultiGraph:
    """Undo an expansion: checked inverse of :func:`expand`.

    Requires v != v*, that v's unique outgoing edge points at v*, and that
    this edge is v*'s unique incoming edge; v absorbs v*'s outgoing edges.
    """
    v = g.vertex(v)
    vs = g.vertex(v_star)
    if v == vs:
        raise MoveError("expansion pattern needs two distinct vertices")
    if g.out_degree(v) != 1:
        raise MoveError(f"vertex {g.label(v)} must have exactly one outgoing edge")
    m = g.incidence().entries
    if m[v][vs] != 1:
        raise MoveError(
            f"the edge leaving {g.label(v)} must point at {g.label(vs)}"
        )
    if g.in_degree(vs) != 1:
        raise MoveError(f"vertex {g.label(vs)} must have exactly one incoming edge")
    labels = [g.label(u) for u in range(g.n) if u != vs]
    rows = contraction_rows(m, v, vs)
    # Old vertex u goes to u's new index; v* merges into v.  The bridge, the
    # one edge leaving v, is dropped.
    at = [u - (u > vs) for u in range(g.n)]
    at[vs] = at[v]
    return MultiGraph(labels, matrix=rows, _derive=(g, _drop_leaving(v, at)))


# ---------------------------------------------------------------------------
# Drinen delays.


class DrinenVector:
    """Finite delay vector on vertices and edges.

    A source vector requires every non-sink vertex's value to equal the
    maximum over its outgoing edges; a range vector mirrors this over
    incoming edges.  Unlisted vertices and edges default to 0.
    """

    def __init__(self, kind: str, vertices=None, edges=None):
        try:
            self.side = _VECTOR_SIDES[kind]
        except (KeyError, TypeError):
            raise ValueError("kind must be 'source' or 'range'") from None
        self.kind = kind
        self.vertices = {exact_int(v): exact_int(d) for v, d in (vertices or {}).items()}
        self.edges = {str(e): exact_int(d) for e, d in (edges or {}).items()}

    def vertex_value(self, v: int) -> int:
        return self.vertices.get(v, 0)

    def edge_value(self, eid: str) -> int:
        return self.edges.get(eid, 0)

    def _max_rule(self, g: MultiGraph, v: int) -> int:
        """The max rule at v: its largest edge delay on this side, or its own value if none."""
        delays = (self.edge_value(e.id) for e in self.side.edges(g, v))
        return max(delays, default=self.vertex_value(v))

    def validate(self, g: MultiGraph) -> None:
        for v, d in self.vertices.items():
            if not 0 <= v < g.n:
                raise MoveError(f"delay names vertex {v}, graph has {g.n}")
            if d < 0:
                raise MoveError(f"negative delay at vertex {g.label(v)}")
        known = {e.id for e in g.edges}
        for eid, d in self.edges.items():
            if eid not in known:
                raise MoveError(f"delay names unknown edge {eid!r}")
            if d < 0:
                raise MoveError(f"negative delay at edge {eid!r}")
        for v in range(g.n):
            expected = self._max_rule(g, v)
            if self.vertex_value(v) != expected:
                raise MoveError(
                    f"delay at {g.label(v)} is {self.vertex_value(v)}, but the "
                    f"maximum over its {self.side.adjective} edges is {expected}"
                )

    @staticmethod
    def from_edges(g: MultiGraph, kind: str, edges=None, vertices=None) -> "DrinenVector":
        """Build a valid vector from edge delays via the max rule.

        Explicit vertex values are only consulted for vertices without
        incident edges on the relevant side (sinks for source vectors,
        sources for range vectors).
        """
        d = DrinenVector(kind, vertices, edges)
        d.vertices = {v: d._max_rule(g, v) for v in range(g.n)}
        return d

    @staticmethod
    def expansion_at(g: MultiGraph, v) -> "DrinenVector":
        """The source vector whose out-delay is the expansion at v."""
        v = g.vertex(v)
        edges = {e.id: 1 for e in g.out_edges(v)}
        return DrinenVector.from_edges(g, "source", edges, {v: 1})


def _delay_triples(labels, d: DrinenVector, triples, suffix: str):
    """Out-delay the edges ``triples``, (source, target, id) each, by ``d``.

    The kernel of both delays: an in-delay is this out-delay of the reversed
    triples, read back reversed, with chain vertices labelled ``v_i`` where
    the out-delay's are ``v^i``.  Returns the new labels and triples.  A
    delay that would grow the graph past the vertex budget is refused first.
    """
    breach = vertex_budget_breach(len(labels) + sum(d.vertices.values()))
    if breach:
        raise MoveError(breach)
    new_index = {}
    new_labels = []
    taken = set(labels)
    for v, label in enumerate(labels):
        for i in range(d.vertex_value(v) + 1):
            new_index[(v, i)] = len(new_labels)
            if i == 0:
                new_labels.append(label)
            else:
                lab = _fresh_label(taken, f"{label}{suffix}{i}")
                taken.add(lab)
                new_labels.append(lab)
    used = {eid for _, _, eid in triples}
    edges = []
    for v in range(len(labels)):
        for i in range(1, d.vertex_value(v) + 1):
            eid = _fresh_edge_id(used, f"d{v}.{i}")
            edges.append((new_index[(v, i - 1)], new_index[(v, i)], eid))
    for src, tgt, eid in triples:
        edges.append((new_index[(src, d.edge_value(eid))], new_index[(tgt, 0)], eid))
    return new_labels, edges


def out_delay(g: MultiGraph, d: DrinenVector) -> MultiGraph:
    """Drinen out-delay: postpone departures along a chain at each vertex.

    Vertex v grows into a chain v = v^0 -> v^1 -> ... -> v^d(v); an edge e
    leaving v departs from v^d(e) instead, and every edge arrives at the
    chain head of its target.
    """
    if d.kind != "source":
        raise MoveError("out-delay needs a source vector")
    d.validate(g)
    labels, edges = _delay_triples(g.labels, d, g.edges, "^")
    return MultiGraph(labels, make_edges(edges))


def in_delay(g: MultiGraph, d: DrinenVector) -> MultiGraph:
    """Drinen in-delay: postpone arrivals along a chain at each vertex.

    The transpose-conjugate of :func:`out_delay`: vertex v grows into a chain
    v_d(v) -> ... -> v_1 -> v_0 = v; an edge e into v arrives at v_d(e)
    instead, and every edge departs from the chain foot of its source.
    """
    if d.kind != "range":
        raise MoveError("in-delay needs a range vector")
    d.validate(g)
    labels, edges = _delay_triples(g.labels, d, list(map(_REVERSED, g.edges)), "_")
    return MultiGraph(labels, make_edges(map(_REVERSED, edges)))


def proper_in_partition_vector(g: MultiGraph, p: Partition) -> DrinenVector:
    """The range vector matching an in-partition: delay class i by i - 1.

    A partition is proper when it does not split any sink into two or more
    classes; only then does the delayed graph carry the same algebra as the
    in-splitting.
    """
    p.validate(g, "in")
    edges = {}
    for v, classlist in p.classes.items():
        for i, cls in enumerate(classlist, start=1):
            for eid in cls:
                edges[eid] = i - 1
    vertices = {v: max(p.m(v) - 1, 0) for v in range(g.n)}
    return DrinenVector("range", vertices, edges)


def is_proper_in_partition(g: MultiGraph, p: Partition) -> bool:
    """Whether no sink is split into two or more classes."""
    return all(
        p.m(v) <= 1 for v in range(g.n) if g.out_degree(v) == 0
    )


# ---------------------------------------------------------------------------
# Shift move.


def shift(g: MultiGraph, v, w) -> MultiGraph:
    """Replace parallel copies of w's out-edges at v by a single edge v -> w.

    Requires v != w, both non-sinks, and row v of the incidence matrix to
    dominate row w entrywise; row v becomes row(v) - row(w) plus one new
    edge v -> w.  The Bowen-Franks data is exactly preserved (column
    operation on I - A^t).
    """
    v = g.vertex(v)
    w = g.vertex(w)
    if v == w:
        raise MoveError("shift needs two distinct vertices")
    if g.out_degree(v) == 0:
        raise MoveError(f"vertex {g.label(v)} is a sink")
    if g.out_degree(w) == 0:
        raise MoveError(f"vertex {g.label(w)} is a sink")
    m = g.incidence().entries
    for j in range(g.n):
        if m[v][j] < m[w][j]:
            raise MoveError(
                f"row {g.label(v)} does not dominate row {g.label(w)} at "
                f"target {g.label(j)}: {m[v][j]} < {m[w][j]}"
            )
    rows = [list(row) for row in m]
    rows[v] = [a - b for a, b in zip(m[v], m[w])]
    rows[v][w] += 1
    drop = {j: k for j, k in enumerate(m[w]) if k}

    def edges(sources, targets, ids):
        # The first m[w][j] edges from v to each j, in edge order, go.
        left = dict(drop)
        keep = []
        for src, tgt in zip(sources, targets):
            gone = src == v and left.get(tgt, 0) > 0
            if gone:
                left[tgt] -= 1
            keep.append(not gone)
        sources, targets, ids = (list(compress(col, keep)) for col in (sources, targets, ids))
        return _with_new_edges(sources, targets, ids, [(v, w)], "s")

    return MultiGraph(g.labels, matrix=rows, _derive=(g, edges))


# ---------------------------------------------------------------------------
# Determinant sign gadgets.


def _attach_vertex(g: MultiGraph, at) -> int:
    cyclic = {
        v
        for comp in strongly_connected_components(g)
        if is_cyclic_component(g, comp)
        for v in comp
    }
    if at is None:
        if not cyclic:
            raise MoveError("graph has no vertex on a cycle")
        return max(cyclic)
    at = g.vertex(at)
    if at not in cyclic:
        raise MoveError(f"vertex {g.label(at)} does not lie on a cycle")
    return at


def minus(g: MultiGraph, at=None) -> MultiGraph:
    """Append the two-vertex sign gadget at a cycle vertex.

    Adds vertices a, b and edges at->a, a->at, a->a, a->b, b->a, b->b; the
    cokernel of I - A^t is preserved while det(I - A^t) changes sign.  With
    ``at`` omitted the last cycle vertex in the order is used.
    """
    at = _attach_vertex(g, at)
    a, b = g.n, g.n + 1
    labels = list(g.labels)
    labels.append(_fresh_label(labels, "w0"))
    labels.append(_fresh_label(labels, "w1"))
    gadget = [(at, a), (a, at), (a, a), (a, b), (b, a), (b, b)]
    rows = [[*row, 0, 0] for row in g.incidence().entries]
    rows += [[0] * (g.n + 2), [0] * (g.n + 2)]
    for src, tgt in gadget:
        rows[src][tgt] += 1

    def edges(sources, targets, ids):
        return _with_new_edges(sources, targets, ids, gadget, "m")

    return MultiGraph(labels, matrix=rows, _derive=(g, edges))


def minus1(g: MultiGraph, at=None) -> MultiGraph:
    """Append the three-vertex sign gadget: ``minus`` plus a feeding source.

    The extra source c emits a single edge c -> at; eliminating c recovers
    ``minus(g, at)``.  The pointed Bowen-Franks pair is preserved while
    det(I - A^t) changes sign.
    """
    at = _attach_vertex(g, at)
    h = minus(g, at)
    labels = list(h.labels)
    labels.append(_fresh_label(labels, "w2"))
    c = h.n
    rows = [[*row, 0] for row in h.incidence().entries]
    rows.append([int(u == at) for u in range(c + 1)])

    def edges(sources, targets, ids):
        return _with_new_edges(sources, targets, ids, [(c, at)], "m")

    return MultiGraph(labels, matrix=rows, _derive=(h, edges))


# ---------------------------------------------------------------------------
# Vertex class maps.


def elimination_class_map(g: MultiGraph, v) -> VertexClassMap:
    """Class map of source elimination: from eliminate_source(g, v) into g.
    A vertex that :func:`eliminate_source` refuses is refused with its
    MoveError."""
    v = _removable_source(g, v)
    return _class_map(g.n, ((u,) for u in range(g.n) if u != v))


def expansion_class_map(g: MultiGraph, v) -> VertexClassMap:
    """Class map of expansion: from g into expand(g, v), each w to itself."""
    g.vertex(v)
    return _class_map(g.n + 1, ((u,) for u in range(g.n)))


def verify_vertex_class_map(src: MultiGraph, tgt: MultiGraph, cmap: VertexClassMap) -> bool:
    """Check that a vertex class map induces a cokernel isomorphism.

    The linear extension must carry the image lattice of I - A_src^t into
    the image lattice of I - A_tgt^t (well-definedness) and the induced map
    on cokernels must be bijective; surjectivity plus isomorphic finitely
    generated groups already forces bijectivity.
    """
    if len(cmap.vectors) != src.n or len(cmap.vectors[0]) != tgt.n:
        raise ValueError("class map shape does not match the graphs")
    bs = bowen_franks_matrix(src)
    bt = bowen_franks_matrix(tgt)
    m = cmap.as_matrix()

    gt, project = cokernel(bt)
    image = m @ bs
    for j in range(image.cols):
        if any(project(image.column(j))):
            return False

    gs, _ = cokernel(bs)
    if not group_iso(gs, gt):
        return False

    diag = smith_diagonal(m.hstack(bt))
    return len(diag) == tgt.n and all(d == 1 for d in diag)


# ---------------------------------------------------------------------------
# The move table (scripts, sequence replay).


class MoveSpec(NamedTuple):
    """A script keyword's move: ``apply(g, *values)`` returns the new graph,
    where the values are ``args[name]`` for each name in ``required`` and
    ``args.get(name)`` for each in ``optional``, in script order."""

    apply: Callable[..., MultiGraph]
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()


# The one place that names each keyword's arguments.  Every entry calls its
# move through this module's globals, so a wrapper put on the module after
# import is called too.
MOVES = {
    "eliminate": MoveSpec(lambda g, v: eliminate_source(g, v), ("vertex",)),
    "expand": MoveSpec(lambda g, v: expand(g, v), ("vertex",)),
    "contract": MoveSpec(lambda g, v, star: contract(g, v, star), ("vertex", "star")),
    "in-split": MoveSpec(lambda g, p: in_split(g, p).graph, ("partition",)),
    "out-split": MoveSpec(lambda g, p: out_split(g, p).graph, ("partition",)),
    "in-amalgamate": MoveSpec(lambda g, blocks: in_amalgamate(g, blocks), ("blocks",)),
    "out-amalgamate": MoveSpec(lambda g, blocks: out_amalgamate(g, blocks), ("blocks",)),
    "in-delay": MoveSpec(lambda g, d: in_delay(g, d), ("vector",)),
    "out-delay": MoveSpec(lambda g, d: out_delay(g, d), ("vector",)),
    "shift": MoveSpec(lambda g, v, w: shift(g, v, w), ("v", "w")),
    "minus": MoveSpec(lambda g, at: minus(g, at), (), ("vertex",)),
    "minus1": MoveSpec(lambda g, at: minus1(g, at), (), ("vertex",)),
}


def move_spec(kind: str) -> MoveSpec:
    """The table entry of a script keyword; an unknown one is a MoveError."""
    try:
        return MOVES[kind]
    except KeyError:
        raise MoveError(f"unknown move {kind!r}") from None


def apply_move(g: MultiGraph, kind: str, args: dict) -> MultiGraph:
    """Apply a move named by its script keyword; returns the new graph.

    A missing required argument raises KeyError.
    """
    spec = move_spec(kind)
    return spec.apply(
        g, *[args[name] for name in spec.required], *[args.get(name) for name in spec.optional]
    )
