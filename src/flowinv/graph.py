"""Finite directed multigraphs: structure, predicates, text format.

Graphs are immutable.  Vertex order is part of a graph's identity, because
incidence matrices (and everything derived from them) depend on it.  Entry
(i, j) of the incidence matrix counts edges from vertex i to vertex j.
"""

from __future__ import annotations

import itertools
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from operator import add, itemgetter
from typing import NamedTuple

from flowinv.exactla import IntMatrix, exact_int


class GraphError(ValueError):
    """Structural problem with a graph or a graph operation."""


class ParseError(ValueError):
    """Graph text that does not follow the format."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


# The most vertices a graph read from text, or grown by a delay, may have.
# Each graph keeps its dense n x n incidence matrix, so the count is checked
# before anything of size n is allocated.  A graph at the budget is read in
# under 1 GiB, and a sparse graph of 4000 vertices is within it.
MAX_VERTICES = 5_000


def vertex_budget_breach(n: int) -> str | None:
    """The error text for a graph of ``n`` vertices when that is more than
    MAX_VERTICES, else None."""
    if n > MAX_VERTICES:
        return f"{n} vertices exceed the vertex budget of {MAX_VERTICES}"
    return None


class Edge(NamedTuple):
    """An edge from ``source`` to ``target``, named ``id``.  Being a tuple, it
    unpacks, orders, and compares equal to the plain (source, target, id)."""

    source: int
    target: int
    id: str


# An Edge from a (source, target, id) triple; map() calls it without a
# Python-level frame, unlike Edge() or Edge._make.
_new_edge = partial(tuple.__new__, Edge)
_SOURCE = itemgetter(0)
_TARGET = itemgetter(1)


def edge_columns(edges):
    """The sources, targets and ids of ``edges``, as three tuples."""
    return tuple(zip(*edges)) or ((), (), ())


def make_edges(triples) -> list:
    """The Edges of (source, target, id) triples, made without a
    Python-level call per edge.  No value is checked or converted."""
    return list(map(_new_edge, triples))


def _edges_item_by_item(items, n: int) -> list:
    """The Edges of edge-list ``items``, converted one by one: endpoints
    become ints, an id a str, and an id of None the next of e0, e1, ...
    that no earlier item holds.  Raises the GraphError of the first item
    that is out of range or reuses an earlier id; an item's range is
    checked before its id."""
    built, seen, auto = [], set(), 0
    for item in items:
        if len(item) == 2:
            (src, tgt), eid = item, None
        else:
            src, tgt, eid = item
        if not (0 <= src < n and 0 <= tgt < n):
            raise GraphError(f"edge endpoint out of range: ({src}, {tgt})")
        if eid is None:
            while f"e{auto}" in seen:
                auto += 1
            eid = f"e{auto}"
            auto += 1
        eid = str(eid)
        if eid in seen:
            raise GraphError(f"duplicate edge id {eid!r}")
        seen.add(eid)
        built.append(_new_edge((int(src), int(tgt), eid)))
    return built


def _reversed(sources, targets, ids):
    """The edge rule of :meth:`MultiGraph.transpose`: each edge reversed."""
    return targets, sources, ids


def _derivation(parent: "MultiGraph", rule):
    """The pending derivation of a child that a move built from ``parent``
    with the edge rule ``rule``: the nearest ancestor whose edges exist or
    come from its matrix alone, and the rules from its edges to the child's,
    in order."""
    if parent._pending is None:
        return parent, (rule,)
    base, rules = parent._pending
    return base, (*rules, rule)


def _slices(edges, sizes) -> tuple:
    """``edges`` cut into consecutive tuples of the given sizes."""
    edges = tuple(edges)
    out, start = [], 0
    for size in sizes:
        out.append(edges[start : start + size])
        start += size
    return tuple(out)


class MultiGraph:
    """Directed multigraph with ordered vertices and named edges.

    Parallel edges and loops are allowed.  Vertices are 0..n-1 with string
    labels; edges carry unique string ids so that splittings can name the
    copies they create.  The empty graph is rejected.

    The incidence matrix is the source of truth: degrees, the structural
    report, invariants and canonical keys read it alone.  A graph built from
    a matrix (``matrix=``, :meth:`from_matrix`, :func:`parse_graph`) stores
    only the matrix; its edges, with ids ``e0, e1, ...`` in row-major order,
    are derived on the first read of ``edges``, ``out_edges``, ``in_edges``
    or ``edge_by_id`` and cached.  A graph built from an edge list keeps its
    edges, ids and order as given.

    A move builds its child from the parent: it hands over the child's
    labels and its edge rule, a function from the parent's edge columns
    (sources, targets, ids) to the child's, as ``_derive=(parent, rule)``.
    The moves that name no edge (:meth:`transpose`, :meth:`permuted`, and
    expansion, contraction, source elimination, the shift move and the sign
    gadgets of :mod:`flowinv.moves`) also hand over the child's matrix,
    built from the parent's, and the child's edges are derived on first
    read, with the ids and order the rule gives them: the nearest ancestor
    that has its edges, or derives them from its matrix alone, is held with
    the tuple of rules that lead from it, and the rules are applied in a
    loop.  So a long chain of such moves neither recurses nor keeps the
    intermediate graphs alive.  A rule handed over with no matrix, as the
    splittings and delays hand theirs, is applied at once, and the child's
    matrix is counted from the edges it gives.  The amalgamations build a
    matrix-only graph.

    A matrix given as an :class:`~flowinv.exactla.IntMatrix` (as
    :func:`parse_graph` gives it) keeps its entries as they are, since its
    entries are ints already; any other matrix has every entry converted
    with ``int()``, and an entry the conversion would change or cannot make,
    such as 1.5, NaN, infinity or None, is an error that names its place.
    Either way its shape and signs are checked.

    An edge list's items are (source, target, id) triples, :class:`Edge`
    among them, or (source, target) pairs.  They are converted item by
    item: endpoints become ints, an id a str, and an id of None the next of
    ``e0, e1, ...`` that no earlier item holds.  That pass raises the error
    of the first item that is out of range or reuses an earlier id, checking
    an item's range before its id.  Out- and in-edges are grouped on their
    first read.
    """

    __slots__ = ("_labels", "_edges", "_matrix", "_out", "_in", "_pending")

    def __init__(self, vertices, edges=(), *, matrix=None, _derive=None):
        if isinstance(vertices, int):
            labels = tuple(f"v{i}" for i in range(vertices))
        else:
            labels = tuple(str(x) for x in vertices)
        if not labels:
            raise GraphError("graph must have at least one vertex")
        n = len(labels)
        self._labels = labels
        self._edges = self._out = self._in = None
        self._pending = None if _derive is None else _derivation(*_derive)

        if matrix is not None:
            if edges:
                raise GraphError("give either edges or a matrix, not both")
            if isinstance(matrix, IntMatrix):
                rows = matrix.entries
            else:
                given = tuple(map(tuple, matrix))
                try:
                    rows = tuple(tuple(map(int, row)) for row in given)
                except (TypeError, ValueError, OverflowError):
                    rows = None
                if rows != given:
                    for i, row in enumerate(given):
                        for j, x in enumerate(row):
                            try:
                                exact_int(x)
                            except ValueError:
                                raise GraphError(
                                    f"non-integer multiplicity {x!r} at ({i}, {j})"
                                ) from None
            if len(rows) != n or any(len(r) != n for r in rows):
                raise GraphError(f"incidence matrix must be square of size {n}")
            if min(map(min, rows)) < 0:
                i, j = next(
                    (i, j)
                    for i, row in enumerate(rows)
                    for j, k in enumerate(row)
                    if k < 0
                )
                raise GraphError(f"negative multiplicity at ({i}, {j})")
            self._matrix = IntMatrix(n, n, rows)
            return

        if _derive is None:
            self._edges = tuple(_edges_item_by_item(edges, n))
        else:
            self._materialize()
        sources, targets, _ = edge_columns(self._edges)
        cells = [0] * (n * n)
        for cell, k in Counter(map(add, map(n.__mul__, sources), targets)).items():
            cells[cell] = k
        self._matrix = IntMatrix(
            n, n, tuple(tuple(cells[i : i + n]) for i in range(0, n * n, n))
        )

    def _materialize(self) -> None:
        """Derive the edges of a graph built from a matrix or by a move.  A
        move's child applies its pending rules, in order, to the edge columns
        of the ancestor it holds; any other graph's edges are row-major, ids
        e0, e1, ..."""
        if self._pending is not None:
            base, rules = self._pending
            columns = edge_columns(base.edges)
            for rule in rules:
                # Stored as tuples, so no chain of iterators grows with the rules.
                columns = tuple(map(tuple, rule(*columns)))
            self._edges = tuple(make_edges(zip(*columns)))
            self._pending = None
            return
        m = self._matrix.entries
        chain, repeat = itertools.chain.from_iterable, itertools.repeat
        sources = chain(map(repeat, range(self.n), map(sum, m)))
        targets = chain(map(repeat, itertools.cycle(range(self.n)), chain(m)))
        ids = [f"e{k}" for k in range(self.edge_count)]
        self._edges = tuple(make_edges(zip(sources, targets, ids)))

    def _group_edges(self) -> None:
        """Group the edges by source and by target, on the first read of
        ``out_edges`` or ``in_edges``.

        A stable sort by source (target) keeps each vertex's edges in list
        order; the row (column) sums of the matrix cut it into vertices.
        """
        edges, entries = self.edges, self._matrix.entries
        self._out = _slices(sorted(edges, key=_SOURCE), map(sum, entries))
        self._in = _slices(sorted(edges, key=_TARGET), map(sum, zip(*entries)))

    @staticmethod
    def from_matrix(rows, labels=None) -> "MultiGraph":
        """Build a graph from a square non-negative incidence matrix."""
        data = [list(r) for r in rows]
        return MultiGraph(labels if labels is not None else len(data), matrix=data)

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            self._materialize()
        return self._edges

    @property
    def edge_count(self) -> int:
        """Number of edges, summed from the matrix; builds no edge."""
        return sum(map(sum, self._matrix.entries))

    def label(self, v: int) -> str:
        return self._labels[v]

    def vertex(self, name) -> int:
        """Resolve a vertex given as a label or an index.  A str is a label,
        or else the digits of an index; any other name is an index, read by
        :func:`~flowinv.exactla.exact_int`, so 1.0 and True name vertex 1
        and 0.7 or None are errors."""
        if isinstance(name, str):
            if name in self._labels:
                return self._labels.index(name)
            if not re.fullmatch(r"\d+", name):
                raise GraphError(f"no vertex named {name!r}")
            name = int(name)
        try:
            index = exact_int(name)
        except ValueError:
            raise GraphError(f"vertex {name!r} is not an integer") from None
        if not 0 <= index < self.n:
            raise GraphError(f"vertex index {index} out of range")
        return index

    def edge_by_id(self, eid: str) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise GraphError(f"no edge with id {eid!r}")

    def out_edges(self, v: int) -> tuple[Edge, ...]:
        if self._out is None:
            self._group_edges()
        return self._out[v]

    def in_edges(self, v: int) -> tuple[Edge, ...]:
        if self._in is None:
            self._group_edges()
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return sum(self._matrix.entries[v])

    def in_degree(self, v: int) -> int:
        return sum(row[v] for row in self._matrix.entries)

    def incidence(self) -> IntMatrix:
        return self._matrix

    def transpose(self) -> "MultiGraph":
        """The graph with every edge reversed, built from the transposed
        matrix; edge ids and order are kept."""
        n = self.n
        rows = IntMatrix(n, n, tuple(zip(*self._matrix.entries)))
        return MultiGraph(self._labels, matrix=rows, _derive=(self, _reversed))

    def permuted(self, perm) -> "MultiGraph":
        """Relabel vertices: old vertex i becomes position perm[i].  Edge ids
        and order are kept."""
        try:
            perm = tuple(map(exact_int, perm))
        except ValueError:
            perm = None
        if perm is None or sorted(perm) != list(range(self.n)):
            raise GraphError("not a permutation")
        labels = [None] * self.n
        order = [0] * self.n
        for old, new in enumerate(perm):
            labels[new] = self._labels[old]
            order[new] = old
        m = self._matrix.entries
        rows = [[m[i][j] for j in order] for i in order]
        at = perm.__getitem__

        def edges(sources, targets, ids):
            return map(at, sources), map(at, targets), ids

        return MultiGraph(labels, matrix=rows, _derive=(self, edges))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and self._matrix == other._matrix

    def __hash__(self) -> int:
        return hash((self.n, self._matrix.entries))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, edges={self.edge_count})"


def incidence_matrix(g: MultiGraph) -> IntMatrix:
    """Incidence matrix: entry (i, j) counts edges from vertex i to j.

    Examples
    --------
    >>> rose = MultiGraph(1, [(0, 0)] * 4)
    >>> incidence_matrix(rose).to_lists()
    [[4]]
    """
    return g.incidence()


def transpose(g: MultiGraph) -> MultiGraph:
    """The graph with every edge reversed; edge ids are kept."""
    return g.transpose()


def sources(g: MultiGraph) -> list[int]:
    """Vertices that receive no edges."""
    return [v for v in range(g.n) if g.in_degree(v) == 0]


def sinks(g: MultiGraph) -> list[int]:
    """Vertices that emit no edges."""
    return [v for v in range(g.n) if g.out_degree(v) == 0]


def strongly_connected_components(g: MultiGraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in discovery order, each
    with its vertices sorted.

    ``index[v]`` is -1 until v is reached, then its discovery number while
    v is on the stack, then n once its component is out.  Discovery numbers
    are below n, so the one test ``index[w] < low`` both asks whether w is
    on the stack and takes the minimum.  Each frame of the depth-first walk
    holds its vertex's successor iterator: a ``for`` that breaks has reached
    a new vertex, and its ``else`` finishes the frame's vertex.
    """
    n = g.n
    vertices = range(n)
    succ = [list(itertools.compress(vertices, row)) for row in g.incidence().entries]
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    components: list[list[int]] = []
    count = 0
    for root in vertices:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            lv = low[v]
            for w in successors:
                i = index[w]
                if i < 0:
                    low[v] = lv
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if i < lv:
                    lv = i
            else:
                work.pop()
                if lv < index[v]:
                    # Not a component's root, so v has a parent frame.
                    parent = work[-1][0]
                    if lv < low[parent]:
                        low[parent] = lv
                elif stack[-1] == v:
                    stack.pop()
                    index[v] = n
                    components.append([v])
                else:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    comp = stack[at:]
                    del stack[at:]
                    for w in comp:
                        index[w] = n
                    comp.sort()
                    components.append(comp)
    return components


@dataclass(frozen=True)
class GraphReport:
    """Structural predicates that drive the classification hypotheses."""

    has_sources: bool
    has_sinks: bool
    irreducible: bool
    essential: bool
    trivial: bool
    every_cycle_has_exit: bool
    every_vertex_reaches_cycle_or_sink: bool
    simple_lpa: bool
    purely_infinite_simple: bool

    def to_dict(self) -> dict:
        return asdict(self)


def is_cyclic_component(g: MultiGraph, comp: list[int]) -> bool:
    """Whether the strongly connected component ``comp`` of ``g`` contains a
    cycle: it has two or more vertices, or one vertex with a loop."""
    return len(comp) > 1 or g.incidence().entries[comp[0]][comp[0]] > 0


def classify_graph(g: MultiGraph) -> GraphReport:
    """Compute the structural predicate report for a graph.

    ``simple_lpa`` holds when every cycle has an exit and every vertex has a
    path to every cycle and to every sink; adding the existence of a cycle
    gives ``purely_infinite_simple``.

    Every predicate is read off one pass of
    :func:`strongly_connected_components` and the vertex degrees:

    * Each vertex of a cycle without an exit has out-degree 1, its edge on
      the cycle, so no path leaves the cycle: its vertices form a whole
      cyclic component whose vertices all have out-degree 1.  Conversely,
      in such a component each vertex's one edge stays inside (the vertex
      must reach the rest of the component), so the component is a single
      cycle without an exit.  Hence ``every_cycle_has_exit`` fails exactly
      when some cyclic component has out-degree 1 throughout.
    * Following edges from any vertex either ends at a sink or repeats a
      vertex, entering a cyclic component; so each vertex reaches at least
      one target (a sink or a cyclic component).  Distinct targets are
      distinct components and cannot reach each other both ways, so every
      vertex reaches every target exactly when there is one target.
    * ``trivial`` (one component, a single cycle) is an irreducible graph
      with a cycle without an exit, by the first point.
    """
    m = g.incidence().entries
    out_deg = [sum(row) for row in m]
    comps = strongly_connected_components(g)
    cyclic = [c for c in comps if is_cyclic_component(g, c)]
    irreducible = len(comps) == 1
    has_sources = any(not any(col) for col in zip(*m))
    sink_count = out_deg.count(0)

    cycle_exits = not any(all(out_deg[v] == 1 for v in c) for c in cyclic)
    reaches = len(cyclic) + sink_count == 1
    simple = cycle_exits and reaches

    return GraphReport(
        has_sources=has_sources,
        has_sinks=sink_count > 0,
        irreducible=irreducible,
        essential=not has_sources and not sink_count,
        trivial=irreducible and not cycle_exits,
        every_cycle_has_exit=cycle_exits,
        every_vertex_reaches_cycle_or_sink=reaches,
        simple_lpa=simple,
        purely_infinite_simple=simple and bool(cyclic),
    )


# ---------------------------------------------------------------------------
# Isomorphism and canonical forms.

_ISO_LIMIT = 8


def _refinement_cells(m) -> list[tuple[int, ...]]:
    """Partition the vertices of the square rows ``m`` into
    isomorphism-invariant cells, as a list of tuples of vertices.

    Colour refinement, the first step of McKay–Piperno's
    individualization-refinement: start from (loop count, sorted pairs of
    out- and in-multiplicities) and re-colour each vertex by its colour and
    the sorted (neighbour colour, out-multiplicity, in-multiplicity) triples
    of its row and column until the number of colours stops growing or every
    cell is a singleton.  Colours are the ranks of sorted signatures, so
    isomorphic graphs refine to matching cell sequences.

    Each round reads every row and column once.  When a round leaves every
    signature distinct, the cells are singletons in signature order, found
    by one sort of the vertices; only while some cell holds two or more
    vertices are the signatures ranked through a dict.  A round that splits
    no cell ends the refinement with the colours it started from: its
    signatures lead with those colours, so their ranks give the same cells
    in the same order.
    """
    n = len(m)
    cols = tuple(zip(*m))
    sigs = [(m[v][v], tuple(sorted(zip(m[v], cols[v])))) for v in range(n)]
    count = 0
    while True:
        distinct = set(sigs)
        if len(distinct) == n:
            return list(zip(sorted(range(n), key=sigs.__getitem__)))
        if len(distinct) == count:
            break
        count = len(distinct)
        index = {s: i for i, s in enumerate(sorted(distinct))}
        colors = [index[s] for s in sigs]
        sigs = [(colors[v], tuple(sorted(zip(colors, m[v], cols[v])))) for v in range(n)]
    cells: list[list[int]] = [[] for _ in range(count)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return list(map(tuple, cells))


def _canonical_order(m):
    """The cell-respecting vertex order whose permuted rows are smallest,
    and those rows.

    When every cell is a singleton that order is the only one, and its rows
    are built once.  Rows are permuted by ``itemgetter(*order)``, which for
    a single vertex would return an entry, not a tuple; one vertex has one
    order, so that case is answered directly.
    """
    if len(m) == 1:
        return [0], ((m[0][0],),)
    cells = _refinement_cells(m)
    if len(cells) == len(m):
        order = list(itertools.chain.from_iterable(cells))
        get = itemgetter(*order)
        return order, tuple(map(get, get(m)))
    best = best_order = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        order = [v for part in parts for v in part]
        get = itemgetter(*order)
        rows = tuple(map(get, get(m)))
        if best is None or rows < best:
            best, best_order = rows, order
    return best_order, best


def canonical_rows_key(m):
    """Canonical key of the graph with square incidence rows ``m``.

    Among all vertex orders that respect the refinement cells, the one whose
    permuted rows are smallest, compared row by row (which is row-major
    order), is chosen; the key is those rows.  So two matrices get equal
    keys exactly when a permutation carries one onto the other.
    """
    return _canonical_order(m)[1]


def canonical_permutation(g: MultiGraph) -> tuple[int, ...]:
    """A permutation sending g to its canonical representative: old vertex
    i goes to position perm[i] of the order :func:`canonical_rows_key`
    picks."""
    order, _ = _canonical_order(g.incidence().entries)
    perm = [0] * g.n
    for pos, old in enumerate(order):
        perm[old] = pos
    return tuple(perm)


def canonical_key(g: MultiGraph):
    """Hashable isomorphism invariant: two graphs get equal keys iff
    isomorphic; :func:`canonical_rows_key` of the incidence rows."""
    return canonical_rows_key(g.incidence().entries)


def is_isomorphic(a: MultiGraph, b: MultiGraph) -> bool:
    """Exact isomorphism test by canonical forms; refuses graphs above
    ``_ISO_LIMIT`` vertices whose vertex and edge counts match.

    :func:`canonical_key` has no vertex cap, but its cost is the product of
    the factorials of its refinement's cell sizes: a 9-vertex 2-regular
    circulant is one cell, 9! orders, and took 1.2 s to key on a shared
    2-core x86_64 host under Python 3.11.
    """
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if a.n > _ISO_LIMIT:
        raise GraphError(f"isomorphism test limited to {_ISO_LIMIT} vertices")
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# Text format.
#
#   # comment
#   matrix n          | edges n
#   <n rows of n ints> | i j k   (k parallel edges from i to j), any number

_TOKEN = re.compile(r"\S+")

# What each token of an edge line is, in error messages.
_EDGE_FIELDS = ("source vertex", "target vertex", "multiplicity")


def int_string_limit() -> int:
    """Python's int-string limit, the most decimal digits ``int()`` reads
    and ``str()`` writes (``sys.get_int_max_str_digits()``); 0 when there is
    none, as before Python 3.10.7 or with the limit switched off."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get is not None else 0


def _tokenize(text: str):
    """Significant lines as (line number, body, tokens): the body is the
    line's text before any '#', the tokens are the body split on whitespace,
    and lines without a token are dropped."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = body.split()
        if toks:
            out.append((ln, body, toks))
    return out


def _column(body: str, index: int) -> int:
    """The 1-based column of token ``index`` of a line body.  Only error
    reports need a column, so it is found only then."""
    return [m.start() + 1 for m in _TOKEN.finditer(body)][index]


def _int_error(ln: int, body: str, index: int, tok: str, what: str) -> ParseError:
    """The error for token ``index``, ``tok``, which ``int()`` refused.

    A decimal literal longer than Python's int-string limit gets a short
    message that names the limit; anything else is not an integer.
    """
    col = _column(body, index)
    digits = (tok[1:] if tok[0] in "+-" else tok).replace("_", "")
    limit = int_string_limit()
    if limit and len(digits) > limit and digits.isdecimal():
        return ParseError(
            ln,
            col,
            f"{what} has {len(digits)} digits, more than Python's int-string "
            f"limit of {limit} (sys.get_int_max_str_digits())",
        )
    return ParseError(ln, col, f"expected {what}, found {tok!r}")


def _entry_error(ln: int, body: str, toks, whats, signed: bool) -> ParseError:
    """The error for the first token of a line that ``int()`` refuses or,
    unless ``signed``, that is negative; ``whats`` names each token."""
    for index, (tok, what) in enumerate(zip(toks, whats)):
        try:
            negative = int(tok) < 0
        except ValueError:
            return _int_error(ln, body, index, tok, what)
        if negative and not signed:
            return ParseError(ln, _column(body, index), f"{what} must be non-negative")
    raise AssertionError("every token of the line is valid")


def parse_graph(text: str) -> MultiGraph:
    """Parse the graph text format.

    Each significant line is split once and each entry converted once, with
    ``int()``; a token's column is looked up only to report an error.  The
    rows reach :class:`MultiGraph` as an ``IntMatrix``, so they are not
    converted again.

    Examples
    --------
    >>> parse_graph("edges 2\\n0 1 1\\n1 0 1\\n").n
    2
    """
    lines = _tokenize(text)
    if not lines:
        raise ParseError(1, 1, "empty input")
    ln, body, toks = lines[0]
    if len(toks) != 2 or toks[0] not in ("matrix", "edges"):
        raise ParseError(ln, _column(body, 0), "expected header 'matrix n' or 'edges n'")
    kind = toks[0]
    try:
        n = int(toks[1])
    except ValueError:
        raise _int_error(ln, body, 1, toks[1], "vertex count") from None
    if n < 1:
        raise ParseError(ln, _column(body, 1), "vertex count must be at least 1")
    breach = vertex_budget_breach(n)
    if breach:
        raise ParseError(ln, _column(body, 1), breach)

    lines = lines[1:]
    if kind == "matrix":
        if len(lines) != n:
            where = lines[n][0] if len(lines) > n else (lines[-1][0] if lines else ln)
            raise ParseError(where, 1, f"matrix block needs exactly {n} rows")
        rows = []
        for row_ln, body, toks in lines:
            if len(toks) != n:
                raise ParseError(row_ln, _column(body, 0), f"row needs {n} entries")
            try:
                row = tuple(map(int, toks))
            except ValueError:
                row = None
            if row is None or min(row) < 0:
                raise _entry_error(
                    row_ln, body, toks, itertools.repeat("multiplicity"), False
                )
            rows.append(row)
        return MultiGraph(n, matrix=IntMatrix(n, n, tuple(rows)))

    rows = [[0] * n for _ in range(n)]
    for row_ln, body, toks in lines:
        if len(toks) != 3:
            raise ParseError(row_ln, _column(body, 0), "edge line needs 'i j k'")
        try:
            i, j, k = map(int, toks)
        except ValueError:
            raise _entry_error(row_ln, body, toks, _EDGE_FIELDS, True) from None
        if not 0 <= i < n:
            raise ParseError(
                row_ln, _column(body, 0), f"source {i} out of range 0..{n - 1}"
            )
        if not 0 <= j < n:
            raise ParseError(
                row_ln, _column(body, 1), f"target {j} out of range 0..{n - 1}"
            )
        if k < 1:
            raise ParseError(row_ln, _column(body, 2), "multiplicity must be at least 1")
        rows[i][j] += k
    return MultiGraph(n, matrix=IntMatrix(n, n, tuple(map(tuple, rows))))


def format_graph(g: MultiGraph, style: str = "edges") -> str:
    """Render a graph in the text format; parsing the output recovers it."""
    if style == "edges":
        m = g.incidence().entries
        lines = [f"edges {g.n}"]
        for i in range(g.n):
            for j in range(g.n):
                if m[i][j]:
                    lines.append(f"{i} {j} {m[i][j]}")
        return "\n".join(lines) + "\n"
    if style == "matrix":
        lines = [f"matrix {g.n}"]
        for row in g.incidence().entries:
            lines.append(" ".join(str(x) for x in row))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown style {style!r}")
