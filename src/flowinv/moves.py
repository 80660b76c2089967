"""Graph moves: splittings, amalgamations, delays, and determinant gadgets.

Every move returns a new graph (inputs are never mutated).  The six moves
that generate flow equivalence are in-splitting, in-amalgamation,
out-splitting, out-amalgamation, expansion and contraction; source
elimination, the Drinen delays, the shift move and the sign gadgets
``minus``/``minus1`` extend the catalogue.

Vertex order conventions are fixed so results are reproducible: splittings
keep the original vertex order and expand each split vertex into a
consecutive run, labelled ``v#1 .. v#m``; appended vertices go last.
"""

from __future__ import annotations

from dataclasses import dataclass

from flowinv.exactla import IntMatrix, cokernel, group_iso, smith_diagonal
from flowinv.graph import Edge, GraphError, MultiGraph, strongly_connected_components
from flowinv.invariants import bowen_franks_matrix


class MoveError(ValueError):
    """A move's hypotheses are not met by the given arguments."""


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
            int(v): tuple(tuple(str(e) for e in cls) for cls in classlist)
            for v, classlist in classes.items()
            if classlist
        }

    def m(self, v: int) -> int:
        return len(self.classes.get(v, ()))

    def validate(self, g: MultiGraph, mode: str) -> None:
        if mode not in ("in", "out"):
            raise ValueError("mode must be 'in' or 'out'")
        edge_sets = {
            v: {e.id for e in (g.in_edges(v) if mode == "in" else g.out_edges(v))}
            for v in range(g.n)
        }
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
                        side = "entering" if mode == "in" else "leaving"
                        raise MoveError(
                            f"edge {eid!r} is not {side} {g.label(v)}"
                        )
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
                side = "incoming" if mode == "in" else "outgoing"
                raise MoveError(
                    f"vertex {g.label(v)} has {side} edges but no classes"
                )

    @staticmethod
    def trivial(g: MultiGraph, mode: str) -> "Partition":
        """One class per non-isolated vertex: the identity splitting."""
        if mode not in ("in", "out"):
            raise ValueError("mode must be 'in' or 'out'")
        classes = {}
        for v in range(g.n):
            edges = g.in_edges(v) if mode == "in" else g.out_edges(v)
            if edges:
                classes[v] = [[e.id for e in edges]]
        return Partition(classes)

    @staticmethod
    def singletons(g: MultiGraph, mode: str) -> "Partition":
        """Every edge in its own class: the maximal splitting."""
        if mode not in ("in", "out"):
            raise ValueError("mode must be 'in' or 'out'")
        classes = {}
        for v in range(g.n):
            edges = g.in_edges(v) if mode == "in" else g.out_edges(v)
            if edges:
                classes[v] = [[e.id] for e in edges]
        return Partition(classes)


@dataclass(frozen=True)
class VertexClassMap:
    """Integer vector over the target's vertices for each source vertex.

    Extending linearly gives a map Z^(source) -> Z^(target); the map is the
    claimed description of where each vertex class lands.
    """

    vectors: tuple[tuple[int, ...], ...]

    def as_matrix(self) -> IntMatrix:
        tgt_n = len(self.vectors[0])
        return IntMatrix.from_rows(
            [[vec[i] for vec in self.vectors] for i in range(tgt_n)]
        )


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
class InSplitResult:
    graph: MultiGraph
    blocks: tuple[tuple[int, ...], ...]
    class_map: VertexClassMap
    factorization: SplitFactorization | None


@dataclass(frozen=True)
class OutSplitResult:
    graph: MultiGraph
    blocks: tuple[tuple[int, ...], ...]
    class_map: VertexClassMap


# ---------------------------------------------------------------------------
# Splittings.


def in_split(g: MultiGraph, p: Partition) -> InSplitResult:
    """Split each vertex according to a partition of its incoming edges.

    Vertex v with m(v) classes becomes v#1..v#m(v); an edge e into v lying
    in class i points at v#i, and e is duplicated once for every class of
    its source vertex (edges from unsplit source vertices survive as single
    copies).

    The result carries the factorization A_E = R @ S, the per-vertex blocks
    of new indices, and the vertex class map v -> v#1.
    """
    p.validate(g, "in")
    n = g.n

    new_index: dict[tuple[int, int], int] = {}
    labels: list[str] = []
    blocks: list[tuple[int, ...]] = []
    taken = {g.label(v) for v in range(n) if p.m(v) == 0}
    for v in range(n):
        m = p.m(v)
        if m == 0:
            new_index[(v, 0)] = len(labels)
            blocks.append((len(labels),))
            labels.append(g.label(v))
        else:
            ids = []
            for i in range(1, m + 1):
                lab = _fresh_label(taken, f"{g.label(v)}#{i}")
                taken.add(lab)
                new_index[(v, i)] = len(labels)
                ids.append(len(labels))
                labels.append(lab)
            blocks.append(tuple(ids))

    class_of: dict[str, int] = {}
    for v, classlist in p.classes.items():
        for i, cls in enumerate(classlist, start=1):
            for eid in cls:
                class_of[eid] = i

    edges = []
    for e in g.edges:
        tgt = new_index[(e.target, class_of[e.id])]
        ms = p.m(e.source)
        if ms == 0:
            edges.append((new_index[(e.source, 0)], tgt, e.id))
        else:
            for j in range(1, ms + 1):
                edges.append((new_index[(e.source, j)], tgt, f"{e.id}#{j}"))
    graph = MultiGraph(labels, edges)

    classes_in_order = [
        (v, i) for v in range(n) for i in range(1, p.m(v) + 1)
    ]
    factorization = None
    if classes_in_order:
        src_count = {
            (v, i): [0] * n for v, i in classes_in_order
        }
        for v, classlist in p.classes.items():
            for i, cls in enumerate(classlist, start=1):
                for eid in cls:
                    src_count[(v, i)][g.edge_by_id(eid).source] += 1
        r = IntMatrix.from_rows(
            [[src_count[c][w] for c in classes_in_order] for w in range(n)]
        )
        s = IntMatrix.from_rows(
            [[1 if c[0] == w else 0 for w in range(n)] for c in classes_in_order]
        )
        factorization = SplitFactorization(r=r, s=s)

    vectors = []
    for v in range(n):
        vec = [0] * graph.n
        vec[blocks[v][0]] = 1
        vectors.append(tuple(vec))

    return InSplitResult(
        graph=graph,
        blocks=tuple(blocks),
        class_map=VertexClassMap(tuple(vectors)),
        factorization=factorization,
    )


def out_split(g: MultiGraph, p: Partition) -> OutSplitResult:
    """Split each vertex according to a partition of its outgoing edges.

    Mirror of :func:`in_split`: vertex v becomes v#1..v#m(v), an edge e
    leaving v from class i starts at v#i, and e is duplicated once for every
    class of its target vertex.  The vertex class map sends v to the sum of
    its copies.
    """
    p.validate(g, "out")
    n = g.n

    new_index: dict[tuple[int, int], int] = {}
    labels: list[str] = []
    blocks: list[tuple[int, ...]] = []
    taken = {g.label(v) for v in range(n) if p.m(v) == 0}
    for v in range(n):
        m = p.m(v)
        if m == 0:
            new_index[(v, 0)] = len(labels)
            blocks.append((len(labels),))
            labels.append(g.label(v))
        else:
            ids = []
            for i in range(1, m + 1):
                lab = _fresh_label(taken, f"{g.label(v)}#{i}")
                taken.add(lab)
                new_index[(v, i)] = len(labels)
                ids.append(len(labels))
                labels.append(lab)
            blocks.append(tuple(ids))

    class_of: dict[str, int] = {}
    for v, classlist in p.classes.items():
        for i, cls in enumerate(classlist, start=1):
            for eid in cls:
                class_of[eid] = i

    edges = []
    for e in g.edges:
        src = new_index[(e.source, class_of[e.id])]
        mt = p.m(e.target)
        if mt == 0:
            edges.append((src, new_index[(e.target, 0)], e.id))
        else:
            for j in range(1, mt + 1):
                edges.append((src, new_index[(e.target, j)], f"{e.id}#{j}"))
    graph = MultiGraph(labels, edges)

    vectors = []
    for v in range(n):
        vec = [0] * graph.n
        for idx in blocks[v]:
            vec[idx] = 1
        vectors.append(tuple(vec))

    return OutSplitResult(
        graph=graph, blocks=tuple(blocks), class_map=VertexClassMap(tuple(vectors))
    )


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


def _block_permutation(g: MultiGraph, norm) -> tuple[int, ...]:
    perm = [0] * g.n
    pos = 0
    for block in norm:
        for v in block:
            perm[v] = pos
            pos += 1
    return tuple(perm)


def in_amalgamate(g: MultiGraph, blocks) -> MultiGraph:
    """Merge the vertices of each block, undoing an in-splitting.

    Each block must consist of vertices with identical outgoing rows (the
    footprint an in-splitting leaves behind); the recovered partition is
    re-split and compared against ``g`` to certify the move.
    """
    norm = _normalize_blocks(g, blocks)
    m = g.incidence().entries

    for block in norm:
        first = m[block[0]]
        for v in block[1:]:
            if m[v] != first:
                raise MoveError(
                    f"vertices {g.label(block[0])} and {g.label(v)} have "
                    "different outgoing rows"
                )
        if len(block) > 1:
            for v in block:
                if g.in_degree(v) == 0:
                    raise MoveError(
                        f"vertex {g.label(v)} has no incoming edges, its "
                        "partition class would be empty"
                    )

    k = len(norm)
    qmat = [
        [sum(m[norm[bi][0]][u] for u in norm[bj]) for bj in range(k)]
        for bi in range(k)
    ]
    qlabels = []
    for block in norm:
        base = g.label(block[0]).rsplit("#", 1)[0]
        qlabels.append(_fresh_label(qlabels, base))
    quotient = MultiGraph.from_matrix(qmat, labels=qlabels)

    bundle_ids: dict[tuple[int, int], list[str]] = {}
    for e in quotient.edges:
        bundle_ids.setdefault((e.source, e.target), []).append(e.id)

    classes: dict[int, list[list[str]]] = {}
    for bj, block in enumerate(norm):
        if quotient.in_degree(bj) == 0:
            continue
        cls: list[list[str]] = [[] for _ in block]
        cursor = {bi: 0 for bi in range(k)}
        for pos, u in enumerate(block):
            for bi in range(k):
                count = m[norm[bi][0]][u]
                if count:
                    ids = bundle_ids[(bi, bj)]
                    start = cursor[bi]
                    cls[pos].extend(ids[start : start + count])
                    cursor[bi] += count
        classes[bj] = cls
    partition = Partition(classes)

    resplit = in_split(quotient, partition).graph
    if resplit != g.permuted(_block_permutation(g, norm)):
        raise MoveError("grouping is not realizable as an in-splitting")
    return quotient


def out_amalgamate(g: MultiGraph, blocks) -> MultiGraph:
    """Merge the vertices of each block, undoing an out-splitting.

    Mirror of :func:`in_amalgamate`: blocks must have identical incoming
    columns, and the recovered out-partition is re-split to certify.
    """
    norm = _normalize_blocks(g, blocks)
    m = g.incidence().entries

    for block in norm:
        first = [m[w][block[0]] for w in range(g.n)]
        for v in block[1:]:
            if [m[w][v] for w in range(g.n)] != first:
                raise MoveError(
                    f"vertices {g.label(block[0])} and {g.label(v)} have "
                    "different incoming columns"
                )
        if len(block) > 1:
            for v in block:
                if g.out_degree(v) == 0:
                    raise MoveError(
                        f"vertex {g.label(v)} has no outgoing edges, its "
                        "partition class would be empty"
                    )

    k = len(norm)
    qmat = [
        [sum(m[u][norm[bj][0]] for u in norm[bi]) for bj in range(k)]
        for bi in range(k)
    ]
    qlabels = []
    for block in norm:
        base = g.label(block[0]).rsplit("#", 1)[0]
        qlabels.append(_fresh_label(qlabels, base))
    quotient = MultiGraph.from_matrix(qmat, labels=qlabels)

    bundle_ids: dict[tuple[int, int], list[str]] = {}
    for e in quotient.edges:
        bundle_ids.setdefault((e.source, e.target), []).append(e.id)

    classes: dict[int, list[list[str]]] = {}
    for bi, block in enumerate(norm):
        if quotient.out_degree(bi) == 0:
            continue
        cls: list[list[str]] = [[] for _ in block]
        cursor = {bj: 0 for bj in range(k)}
        for pos, u in enumerate(block):
            for bj in range(k):
                count = m[u][norm[bj][0]]
                if count:
                    ids = bundle_ids[(bi, bj)]
                    start = cursor[bj]
                    cls[pos].extend(ids[start : start + count])
                    cursor[bj] += count
        classes[bi] = cls
    partition = Partition(classes)

    resplit = out_split(quotient, partition).graph
    if resplit != g.permuted(_block_permutation(g, norm)):
        raise MoveError("grouping is not realizable as an out-splitting")
    return quotient


# ---------------------------------------------------------------------------
# Source elimination, expansion, contraction.


def eliminate_source(g: MultiGraph, v) -> MultiGraph:
    """Remove a source vertex together with all the edges it emits."""
    v = g.vertex(v)
    if g.in_degree(v) != 0:
        raise MoveError(f"vertex {g.label(v)} is not a source")
    if g.n < 2:
        raise MoveError("cannot remove the only vertex")
    remap = {}
    labels = []
    for u in range(g.n):
        if u != v:
            remap[u] = len(labels)
            labels.append(g.label(u))
    edges = [
        Edge(remap[e.source], remap[e.target], e.id)
        for e in g.edges
        if e.source != v
    ]
    return MultiGraph(labels, edges)


def expand(g: MultiGraph, v) -> MultiGraph:
    """Insert a new vertex v* after v: v keeps its incoming edges, emits a
    single new edge to v*, and v* takes over all edges formerly leaving v."""
    v = g.vertex(v)
    star = g.n
    labels = list(g.labels)
    labels.append(_fresh_label(labels, g.label(v) + "*"))
    used = {e.id for e in g.edges}
    edges = [
        Edge(star if e.source == v else e.source, e.target, e.id) for e in g.edges
    ]
    edges.append(Edge(v, star, _fresh_edge_id(used, "f")))
    return MultiGraph(labels, edges)


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
    bridge = g.out_edges(v)[0]
    if bridge.target != vs:
        raise MoveError(
            f"the edge leaving {g.label(v)} must point at {g.label(vs)}"
        )
    if g.in_degree(vs) != 1:
        raise MoveError(f"vertex {g.label(vs)} must have exactly one incoming edge")
    remap = {}
    labels = []
    for u in range(g.n):
        if u != vs:
            remap[u] = len(labels)
            labels.append(g.label(u))
    edges = []
    for e in g.edges:
        if e.id == bridge.id:
            continue
        src = v if e.source == vs else e.source
        edges.append(Edge(remap[src], remap[e.target], e.id))
    return MultiGraph(labels, edges)


# ---------------------------------------------------------------------------
# Drinen delays.


class DrinenVector:
    """Finite delay vector on vertices and edges.

    A source vector requires every non-sink vertex's value to equal the
    maximum over its outgoing edges; a range vector mirrors this over
    incoming edges.  Unlisted vertices and edges default to 0.
    """

    def __init__(self, kind: str, vertices=None, edges=None):
        if kind not in ("source", "range"):
            raise ValueError("kind must be 'source' or 'range'")
        self.kind = kind
        self.vertices = {int(v): int(d) for v, d in (vertices or {}).items()}
        self.edges = {str(e): int(d) for e, d in (edges or {}).items()}

    def vertex_value(self, v: int) -> int:
        return self.vertices.get(v, 0)

    def edge_value(self, eid: str) -> int:
        return self.edges.get(eid, 0)

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
            incident = g.out_edges(v) if self.kind == "source" else g.in_edges(v)
            if not incident:
                continue
            expected = max(self.edge_value(e.id) for e in incident)
            if self.vertex_value(v) != expected:
                side = "outgoing" if self.kind == "source" else "incoming"
                raise MoveError(
                    f"delay at {g.label(v)} is {self.vertex_value(v)}, but the "
                    f"maximum over its {side} edges is {expected}"
                )

    @staticmethod
    def from_edges(g: MultiGraph, kind: str, edges=None, vertices=None) -> "DrinenVector":
        """Build a valid vector from edge delays via the max rule.

        Explicit vertex values are only consulted for vertices without
        incident edges on the relevant side (sinks for source vectors,
        sources for range vectors).
        """
        edges = {str(e): int(d) for e, d in (edges or {}).items()}
        overrides = {int(v): int(d) for v, d in (vertices or {}).items()}
        vertex_values = {}
        for v in range(g.n):
            incident = g.out_edges(v) if kind == "source" else g.in_edges(v)
            if incident:
                vertex_values[v] = max(edges.get(e.id, 0) for e in incident)
            else:
                vertex_values[v] = overrides.get(v, 0)
        return DrinenVector(kind, vertex_values, edges)

    @staticmethod
    def expansion_at(g: MultiGraph, v) -> "DrinenVector":
        """The source vector whose out-delay is the expansion at v."""
        v = g.vertex(v)
        edges = {e.id: 1 for e in g.out_edges(v)}
        return DrinenVector.from_edges(g, "source", edges, {v: 1})


def out_delay(g: MultiGraph, d: DrinenVector) -> MultiGraph:
    """Drinen out-delay: postpone departures along a chain at each vertex.

    Vertex v grows into a chain v = v^0 -> v^1 -> ... -> v^d(v); an edge e
    leaving v departs from v^d(e) instead, and every edge arrives at the
    chain head of its target.
    """
    if d.kind != "source":
        raise MoveError("out-delay needs a source vector")
    d.validate(g)
    new_index = {}
    labels = []
    taken = set(g.labels)
    for v in range(g.n):
        for i in range(d.vertex_value(v) + 1):
            new_index[(v, i)] = len(labels)
            if i == 0:
                labels.append(g.label(v))
            else:
                lab = _fresh_label(taken, f"{g.label(v)}^{i}")
                taken.add(lab)
                labels.append(lab)
    used = {e.id for e in g.edges}
    edges = []
    for v in range(g.n):
        for i in range(1, d.vertex_value(v) + 1):
            eid = _fresh_edge_id(used, f"d{v}.{i}")
            edges.append(Edge(new_index[(v, i - 1)], new_index[(v, i)], eid))
    for e in g.edges:
        edges.append(
            Edge(
                new_index[(e.source, d.edge_value(e.id))],
                new_index[(e.target, 0)],
                e.id,
            )
        )
    return MultiGraph(labels, edges)


def in_delay(g: MultiGraph, d: DrinenVector) -> MultiGraph:
    """Drinen in-delay: postpone arrivals along a chain at each vertex.

    Vertex v grows into a chain v_d(v) -> ... -> v_1 -> v_0 = v; an edge e
    into v arrives at v_d(e) instead, and every edge departs from the chain
    foot of its source.
    """
    if d.kind != "range":
        raise MoveError("in-delay needs a range vector")
    d.validate(g)
    new_index = {}
    labels = []
    taken = set(g.labels)
    for v in range(g.n):
        for i in range(d.vertex_value(v) + 1):
            new_index[(v, i)] = len(labels)
            if i == 0:
                labels.append(g.label(v))
            else:
                lab = _fresh_label(taken, f"{g.label(v)}_{i}")
                taken.add(lab)
                labels.append(lab)
    used = {e.id for e in g.edges}
    edges = []
    for v in range(g.n):
        for i in range(1, d.vertex_value(v) + 1):
            eid = _fresh_edge_id(used, f"d{v}.{i}")
            edges.append(Edge(new_index[(v, i)], new_index[(v, i - 1)], eid))
    for e in g.edges:
        edges.append(
            Edge(
                new_index[(e.source, 0)],
                new_index[(e.target, d.edge_value(e.id))],
                e.id,
            )
        )
    return MultiGraph(labels, edges)


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
    drop: dict[int, int] = {j: m[w][j] for j in range(g.n) if m[w][j]}
    edges = []
    for e in g.edges:
        if e.source == v and drop.get(e.target, 0) > 0:
            drop[e.target] -= 1
            continue
        edges.append(e)
    used = {e.id for e in edges}
    edges.append(Edge(v, w, _fresh_edge_id(used, "s")))
    return MultiGraph(g.labels, edges)


# ---------------------------------------------------------------------------
# Determinant sign gadgets.


def _cycle_vertices(g: MultiGraph) -> set[int]:
    out = set()
    for comp in strongly_connected_components(g):
        if len(comp) > 1:
            out.update(comp)
    for v in range(g.n):
        if any(e.target == v for e in g.out_edges(v)):
            out.add(v)
    return out


def _attach_vertex(g: MultiGraph, at) -> int:
    cyclic = _cycle_vertices(g)
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
    used = {e.id for e in g.edges}
    edges = list(g.edges)
    for src, tgt in [(at, a), (a, at), (a, a), (a, b), (b, a), (b, b)]:
        edges.append(Edge(src, tgt, _fresh_edge_id(used, "m")))
    return MultiGraph(labels, edges)


def minus1(g: MultiGraph, at=None) -> MultiGraph:
    """Append the three-vertex sign gadget: ``minus`` plus a feeding source.

    The extra source c emits a single edge c -> at; eliminating c recovers
    ``minus(g, at)``.  The pointed Bowen-Franks pair is preserved while
    det(I - A^t) changes sign.
    """
    at = _attach_vertex(g, at)
    a, b, c = g.n, g.n + 1, g.n + 2
    labels = list(g.labels)
    labels.append(_fresh_label(labels, "w0"))
    labels.append(_fresh_label(labels, "w1"))
    labels.append(_fresh_label(labels, "w2"))
    used = {e.id for e in g.edges}
    edges = list(g.edges)
    for src, tgt in [(at, a), (a, at), (a, a), (a, b), (b, a), (b, b), (c, at)]:
        edges.append(Edge(src, tgt, _fresh_edge_id(used, "m")))
    return MultiGraph(labels, edges)


# ---------------------------------------------------------------------------
# Vertex class maps.


def elimination_class_map(g: MultiGraph, v) -> VertexClassMap:
    """Class map of source elimination: from eliminate_source(g, v) into g."""
    v = g.vertex(v)
    vectors = []
    for u in range(g.n):
        if u == v:
            continue
        vec = [0] * g.n
        vec[u] = 1
        vectors.append(tuple(vec))
    return VertexClassMap(tuple(vectors))


def expansion_class_map(g: MultiGraph, v) -> VertexClassMap:
    """Class map of expansion: from g into expand(g, v), each w to itself."""
    g.vertex(v)
    vectors = []
    for u in range(g.n):
        vec = [0] * (g.n + 1)
        vec[u] = 1
        vectors.append(tuple(vec))
    return VertexClassMap(tuple(vectors))


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
# Uniform dispatch (scripts, search replay).


def apply_move(g: MultiGraph, kind: str, args: dict) -> MultiGraph:
    """Apply a move named by its script keyword; returns the new graph."""
    if kind == "eliminate":
        return eliminate_source(g, args["vertex"])
    if kind == "expand":
        return expand(g, args["vertex"])
    if kind == "contract":
        return contract(g, args["vertex"], args["star"])
    if kind == "in-split":
        return in_split(g, args["partition"]).graph
    if kind == "out-split":
        return out_split(g, args["partition"]).graph
    if kind == "in-amalgamate":
        return in_amalgamate(g, args["blocks"])
    if kind == "out-amalgamate":
        return out_amalgamate(g, args["blocks"])
    if kind == "in-delay":
        return in_delay(g, args["vector"])
    if kind == "out-delay":
        return out_delay(g, args["vector"])
    if kind == "shift":
        return shift(g, args["v"], args["w"])
    if kind == "minus":
        return minus(g, args.get("vertex"))
    if kind == "minus1":
        return minus1(g, args.get("vertex"))
    raise MoveError(f"unknown move {kind!r}")
