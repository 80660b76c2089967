"""Bounded bidirectional search for a move sequence joining two graphs.

The search walks the neighbor relation generated by expansion, contraction,
single-vertex in-/out-splittings and single-block in-/out-amalgamations.
Every one of these moves has its inverse among them, so the relation is
symmetric and a meet-in-the-middle frontier search from both endpoints is
sound.  The search admits only essential graphs, and each of these moves
keeps a graph essential, so source elimination would never apply and is
not walked.

One :class:`_Search` holds a search's bounds, its :class:`SearchStats` and
its key memo, and lives and dies with it; only the capped vector partitions of
each bundle vector (:func:`_capped_partitions`) are kept for the process.
The search is a function of incidence rows until it returns:

- It records, for each key a side visited
  (:func:`flowinv.graph.canonical_rows_key` of a neighbor's rows, computed
  from its parent's rows alone), its parent's key, the (kind, recipe) of
  the neighbor that first reached it and that neighbor's rows; both sides,
  from the start and from the goal, record the same, in one pair of visited
  maps, and walk one pair of frontiers.  Each neighbor's rows come from the
  moves' own rules.
- The replay of a found path builds graphs, with their edges, labels and
  script arguments, through the moves themselves and only for its steps.
  A link the start's side made is built from its recorded recipe.  One the
  goal's side made is built as the inverse of the move it recorded
  (:func:`_undo`), written in the built graph's vertex order through the
  two canonical orders; so the replay enumerates no neighbor and no
  partition.
- It skips work whose result is already known or cannot matter.  The size
  of a matrix (:func:`_size`: its vertex count and edge count) and its
  shape (:func:`_shape`: its vertex count and sorted (out-degree,
  in-degree) pairs) survive every vertex permutation, so a key has the
  size and shape of what it keys.  A neighbor is keyed at once only if
  some key of the other side, keyed or held, has its size; the others
  cannot meet yet, and are held unkeyed in enumeration order, grouped by
  size (:class:`_Side`).  A held group is keyed only when the other side
  makes a neighbor of its size, when its own side is about to expand, or
  when bounds on the two frontiers' lengths cannot tell which is smaller
  or whether one is empty (:func:`_next_side`); so a level that meets
  keys none of its held neighbors.  On the last level, whose frontier is
  never expanded, a neighbor that cannot meet is dropped, and one is keyed
  only if some key of the other side also has its shape.  Each distinct
  rows is keyed once per search, and the vector partitions of each bundle
  vector are enumerated once per process, keeping only the first
  ``partition_cap + 1`` with two or more parts: all the cap lets through,
  and the one that shows it cut; no search reads more.  That cache holds
  at most ``PARTITION_CACHE_SPLITTINGS`` splittings.  None of this changes
  the first meet, a parent, the frontier order or a counter.

Graphs are identified up to isomorphism via canonical keys, so a found
sequence ends at a graph isomorphic to the goal.  The search is bounded
(depth, vertex count, entry size, partitions per vertex), and refuses an
input with an entry above ``MAX_SEARCH_ENTRY``; splittings into
more classes than the vertex bound allows are never generated.  When
nothing is found it reports the work done and the cuts the bounds made.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass, field

# det is unused here but stays importable: bench/tracing.py wraps flowsearch.det.
from flowinv.exactla import cokernel, det, exact_int, group_iso  # noqa: F401
from flowinv.graph import (
    GraphError,
    GraphReport,
    MultiGraph,
    _canonical_order,
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
    contraction_rows,
    eliminate_source,  # noqa: F401 - unused, but bench/tracing.py wraps this name
    expand,
    expansion_rows,
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
# The largest entry a search's start or goal may have.  No neighbor's
# entries exceed the inputs' largest entry or 9 (the entry cap), so this
# bounds the whole search: a splitting's partitions of an entry k are drawn
# from a pool of k ints, and the replay of a splitting or amalgamation
# builds one Edge per edge.  Through the CLI, a 1-vertex start with 10^5
# loops in-split in two took 1.1 s and 105 MB; with 10^6, 10.6 s and 820 MB
# (2-core x86_64, Python 3.11).
MAX_SEARCH_ENTRY = 100_000


@dataclass
class SearchStats:
    """Counters describing how much work a search did and what it skipped.

    ``expanded`` counts the graphs whose neighbors were enumerated.
    ``vertex_capped`` counts the neighbors the vertex cap cut (expansions)
    and ``entry_capped`` those the entry cap cut (amalgamations, the only
    moves that can raise an entry); ``pruned`` is their sum.
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

    Each multiset is a tuple of parts, emitted in lexicographically
    non-increasing order, so it appears exactly once; used to enumerate
    edge partitions up to the interchange of parallel edges.  Each part is
    drawn from :func:`itertools.product` over one descending range per
    coordinate, from what remains down to 0, or down to 1 at the first
    nonzero coordinate, which the part must cover since no later part,
    being no larger, could.  The product comes in descending order, and the vectors
    above the previous part are filtered out.  The last allowed part is all
    that remains.
    """

    def rec(remaining, bound, slots):
        if not any(remaining):
            yield ()
            return
        if slots == 1:
            if remaining <= bound:
                yield (remaining,)
            return
        lead = next(i for i, r in enumerate(remaining) if r)
        ranges = [range(r, 0 if i == lead else -1, -1) for i, r in enumerate(remaining)]
        for part in filter(bound.__ge__, itertools.product(*ranges)):
            rest = tuple(r - p for r, p in zip(remaining, part))
            for tail in rec(rest, part, slots - 1):
                yield (part,) + tail

    total = tuple(total)
    yield from rec(total, total, max_parts)


# The splittings the partition cache holds at most, over all its entries:
# about 13 MB at the 0.1 MB that the 513 splittings of
# _capped_partitions((3,) * 6, 7, 512) take (tracemalloc, Python 3.11).
PARTITION_CACHE_SPLITTINGS = 65_536

_MemoInfo = collections.namedtuple("_MemoInfo", "currsize held budget")


def _memo_by_length(budget):
    """Memoize a function of hashable arguments that returns a tuple,
    holding at most ``budget`` tuple items over all the results it keeps.

    When a new result would pass the budget, the least recently used
    results are evicted first; a result longer than the whole budget is
    returned without being kept.  The memoized function has
    ``cache_clear()``, and ``cache_info()``, which returns the number of
    results kept (``currsize``), their items (``held``) and ``budget``.
    """

    def wrap(func):
        memo = collections.OrderedDict()
        held = 0

        @functools.wraps(func)
        def cached(*args):
            nonlocal held
            value = memo.get(args)
            if value is not None:
                memo.move_to_end(args)
                return value
            value = func(*args)
            if len(value) <= budget:
                memo[args] = value
                held += len(value)
                while held > budget:
                    held -= len(memo.popitem(last=False)[1])
            return value

        def cache_clear():
            nonlocal held
            memo.clear()
            held = 0

        cached.cache_clear = cache_clear
        cached.cache_info = lambda: _MemoInfo(len(memo), held, budget)
        return cached

    return wrap


@_memo_by_length(PARTITION_CACHE_SPLITTINGS)
def _capped_partitions(counts, max_classes, partition_cap):
    """The first ``partition_cap + 1`` vector partitions of the bundle
    vector ``counts`` into 2..max_classes parts, as a tuple: all the cap
    lets through, plus the one that tells whether it cut.

    A pure function of its arguments, so it is enumerated once per process
    and shared by every search, up to ``PARTITION_CACHE_SPLITTINGS``
    splittings in all; a search's working set of bundle vectors is a few
    hundred, holding a few thousand splittings, well inside the cache.
    """
    splits = (p for p in _vector_partitions(counts, max_classes) if len(p) >= 2)
    return tuple(itertools.islice(splits, partition_cap + 1))


def _split_rows(m, v, max_classes, partition_cap, stats):
    """In-splittings of vertex v of the incidence rows ``m`` into
    2..max_classes classes, as (parts, rows) pairs: the first
    ``partition_cap`` of :func:`_capped_partitions`, and a count in ``stats``
    if it holds more.

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
    """
    order = [u for u, row in enumerate(m) if row[v]]
    counts = tuple(m[u][v] for u in order)
    if sum(counts) < 2:
        return
    splits = _capped_partitions(counts, max_classes, partition_cap)
    heads = [row[:v] for row in m]
    tails = [row[v + 1 :] for row in m]
    for parts in splits[:partition_cap]:
        split_col = [(0,) * len(parts)] * len(m)
        for u, col in zip(order, zip(*parts)):
            split_col[u] = col
        rows = [head + col + tail for head, col, tail in zip(heads, split_col, tails)]
        rows[v : v + 1] = rows[v : v + 1] * len(parts)
        yield parts, tuple(rows)
    if len(splits) > partition_cap:
        stats.partition_capped += 1


def _amalgam_blocks(m):
    """Single-block groupings of vertices with identical rows of ``m``: the
    in-amalgamations of m that are moves (an out-amalgamation is the
    in-amalgamation of the transpose).

    A vertex with a zero column would leave its partition class empty, so it
    is dropped from its group of identical rows; groups keep the order of
    their first members, so the groupings come in the same order as if every
    subset were formed and the unfed ones skipped.
    """
    fed = [any(col) for col in zip(*m)]
    groups: dict[tuple, list[int]] = {}
    for v, row in enumerate(m):
        groups.setdefault(row, []).append(v)
    for members in groups.values():
        members = [v for v in members if fed[v]]
        for size in range(2, len(members) + 1):
            for subset in itertools.combinations(members, size):
                yield _blocks(len(m), subset)


def _blocks(n, block):
    """The grouping of vertices 0..n-1 with the vertices of ``block``, in
    ascending order, in the place of the first of them, and every other
    vertex alone: the recipe of a single-block amalgamation."""
    block = sorted(block)
    return [block if v == block[0] else [v] for v in range(n) if v == block[0] or v not in block]


def _max_entry(g) -> int:
    return max((max(row) for row in g.incidence().entries), default=0)


def _shape(rows):
    """(vertex count, sorted (out-degree, in-degree) pairs) of the incidence
    rows ``rows``.  No vertex permutation changes it, and a canonical key is
    permuted rows, so a key has the shape of every matrix it keys."""
    return len(rows), tuple(sorted(zip(map(sum, rows), map(sum, zip(*rows)))))


def _size(rows):
    """(vertex count, edge count) of the incidence rows ``rows``, which
    :func:`_shape` determines; so a key, too, has the size of every matrix
    it keys."""
    return len(rows), sum(map(sum, rows))


def _realize(g, kind, recipe):
    """Build the neighbor of g that :meth:`_Search.neighbors` described by
    ``kind`` and ``recipe``, through the move itself: returns (script args,
    graph).

    A splitting's partition puts, in class i at its vertex, the next
    part-i-many edges of each bundle in g's edge order, dealt from one
    iterator per bundle; every other vertex keeps its single class.
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
        queues = [iter(bundles[u]) for u in sorted(bundles)]
        classes = [
            [eid for queue, take in zip(queues, part) for eid in itertools.islice(queue, take)]
            for part in parts
        ]
        p = Partition({**Partition.trivial(g, mode).classes, v: classes})
        # Looked up per call, not at import, so a wrapper put on a move is called.
        split = {"in": in_split, "out": out_split}[mode]
        return {"partition": p}, split(g, p).graph
    amalgamate = {"in": in_amalgamate, "out": out_amalgamate}[mode]
    labeled = [[g.label(v) for v in block] for block in recipe]
    return {"blocks": labeled}, amalgamate(g, recipe)


def _undo(kind, recipe, p, r, c):
    """The (kind, recipe) of the move that undoes (kind, recipe), the move
    that made the rows ``r`` from the rows ``p``, written for the rows ``c``
    of r's key: it carries a graph with rows c to one with p's key.

    ``at`` sends each vertex of r to the vertex of c in the same canonical
    position, an isomorphism of r onto c.  An expansion's inverse contracts
    v and the new last vertex v*; a contraction's expands v, renumbered past
    the dropped v*; a splitting's amalgamates v's copies, which sit at v and
    after it.  An amalgamation's splits its one block b of two or more
    vertices, in the move's orientation: one part per member w, which holds,
    over c's sorted sources of b, the entries of column w of p in the first
    row of each source's block.  The parts are sorted in descending order,
    as :func:`_vector_partitions` writes them.
    """
    at = dict(zip(_canonical_order(r)[0], _canonical_order(c)[0]))
    if kind == "expand":
        return "contract", (at[recipe], at[len(p)])
    if kind == "contract":
        v, vs = recipe
        return "expand", at[v - (v > vs)]
    mode, family = kind.split("-")
    if family == "split":
        v, parts = recipe
        return f"{mode}-amalgamate", _blocks(len(c), [at[u] for u in range(v, v + len(parts))])
    if mode == "out":
        p, c = tuple(zip(*p)), tuple(zip(*c))
    b = next(i for i, block in enumerate(recipe) if len(block) > 1)
    back = {w: u for u, w in at.items()}
    firsts = [recipe[back[s]][0] for s, row in enumerate(c) if row[at[b]]]
    parts = sorted((tuple(p[f][w] for f in firsts) for w in recipe[b]), reverse=True)
    return f"{mode}-split", (at[b], tuple(parts))


# ---------------------------------------------------------------------------
# Bidirectional search.


def _require_search_ready(g: MultiGraph, side: str, max_vertices: int) -> GraphReport:
    """The structural report of ``g``; raises GraphError unless ``g`` is
    essential, irreducible, nontrivial, within the vertex cap and has no
    entry above ``MAX_SEARCH_ENTRY``."""
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
    if (top := _max_entry(g)) > MAX_SEARCH_ENTRY:
        raise GraphError(
            f"the {side} graph has an entry of {top}, above the search's "
            f"entry budget of {MAX_SEARCH_ENTRY:,}"
        )
    return report


@dataclass
class _Search:
    """One search: its bounds, its counters and its memo.

    ``max_vertices``, ``entry_cap`` and ``partition_cap`` bound the
    neighbors; ``stats`` counts what the search did and what the bounds cut.
    ``keyed`` maps each rows to its key.
    """

    max_vertices: int
    entry_cap: int
    partition_cap: int
    stats: SearchStats = field(default_factory=SearchStats)
    keyed: dict = field(default_factory=dict)

    def neighbors(self, m):
        """All admissible one-move neighbors of the graph with incidence
        rows ``m``, in a fixed order, as (kind, rows, recipe) triples.

        ``rows`` is the neighbor's incidence matrix, computed from ``m``
        alone by the moves' own rules: an expansion is
        :func:`flowinv.moves.expansion_rows`, a contraction
        :func:`flowinv.moves.contraction_rows` and an amalgamation
        :func:`flowinv.moves.quotient_rows` (see :func:`_amalgam_blocks`);
        a splitting edits rows and columns (see :func:`_split_rows`).
        Out-moves are the in-moves of the transpose.  ``recipe`` is what
        :func:`_realize` needs to build the graph and the script arguments
        through the move itself: the vertex (expand), the vertex and its
        star (contract), the vertex and the vector partition (splittings),
        or the blocks (amalgamations).

        The entries of ``m`` must be within the entry cap, as the roots set
        it and every neighbor yielded keeps to it.  Then only an
        amalgamation, whose entries are sums of m's, can break the cap, so
        only amalgamations are checked and counted in ``entry_capped``: an
        expansion's or contraction's entries are m's and a 1, and a
        splitting's are parts of m's.
        """
        stats, entry_cap = self.stats, self.entry_cap
        n = len(m)
        cols = tuple(zip(*m))

        if n + 1 <= self.max_vertices:
            for v in range(n):
                yield "expand", expansion_rows(m, v), v
        else:
            stats.vertex_capped += n

        for v in range(n):
            if sum(m[v]) != 1:
                continue
            vs = m[v].index(1)
            if vs != v and sum(cols[vs]) == 1:
                yield "contract", contraction_rows(m, v, vs), (v, vs)

        max_classes = self.max_vertices - n + 1
        if max_classes >= 2:
            for kind, oriented in (("in-split", m), ("out-split", cols)):
                for v in range(n):
                    for parts, rows in _split_rows(
                        oriented, v, max_classes, self.partition_cap, stats
                    ):
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

    def replay(self, start, visited, meet, want):
        """Build the path from ``start`` to the goal through the key
        ``meet``, which both sides of ``visited`` reached; returns the steps.

        ``visited`` is the search's pair of maps from each key a side
        reached to (parent's key, kind, recipe, rows).  On the path the
        links the start's side made come first, from the start to the meet,
        and each recipe was enumerated from the rows of the key before it,
        which are the rows of the graph the replay built for that key; so
        such a link is built as recorded, through :func:`_realize`.  The
        goal's side reached each key after the meet from the key after it,
        so that link is built as the :func:`_undo` of the move it recorded.

        Every step built must key to its link, which the memo answers for a
        recorded one, and must not drift the (group, det) pair of ``want``,
        the start's :class:`flowinv.invariants.FranksTriple`; either failure
        is an internal error.
        """
        keys = [meet]
        while (key := visited[0][keys[0]][0]) is not None:
            keys.insert(0, key)
        while (key := visited[1][keys[-1]][0]) is not None:
            keys.append(key)
        steps = []
        cur = start
        for prev, key in zip(keys, keys[1:]):
            parent, kind, recipe, _ = visited[0].get(key, (None,) * 4)
            if parent != prev:
                # The goal's side reached prev from key: undo that move.
                _, kind, recipe, rows = visited[1][prev]
                p = visited[1][key][3]
                kind, recipe = _undo(kind, recipe, p, rows, cur.incidence().entries)
            step = MoveStep(kind, *_realize(cur, kind, recipe))
            if self.key(step.graph.incidence().entries) != key:
                raise RuntimeError("internal error: discovered step could not be replayed")
            group, proj = cokernel(bowen_franks_matrix(step.graph))
            if proj.det != want.determinant or not group_iso(group, want.group):
                raise RuntimeError("internal error: a step drifted the invariants")
            steps.append(step)
            cur = step.graph
        return tuple(steps)


class _Side:
    """One side of the search: the keys it reached and its newest level.

    ``visited`` maps each key the side reached to (parent's key, kind,
    recipe, rows): the graph that first reached it, the move that did and
    the rows it made, a root's entry being (None, None, None, its rows).
    ``sizes`` holds the :func:`_size` of every key in ``visited``.

    ``level`` holds the links of the newest level in enumeration order,
    each keyed as it came or held unkeyed, and ``held`` groups the held ones
    by size; ``known`` counts the links known to have first reached their
    key.  A held group is keyed, in order, only when something needs it
    (:meth:`settle`): a neighbor of its size on the other side, this side's
    expansion, or a frontier comparison its bounds cannot settle
    (:func:`_next_side`).  Equal keys have equal sizes, so keying a group
    later records each key's first reach as keying it at once would, and
    the frontier is the links, in order, that first reached their key.  The
    root's rows go into the search's memo, where the frontier reads every
    link's key.
    """

    def __init__(self, search, key, rows):
        self.search = search
        self.visited = {key: (None, None, None, rows)}
        self.sizes = {_size(rows)}
        self.level = [self.visited[key]]
        self.held = {}
        self.known = 1
        search.keyed[rows] = key

    def settle(self, size):
        """Key the held group of ``size`` in order, recording each key's
        first reach."""
        visited, key = self.visited, self.search.key
        for link in self.held.pop(size):
            hkey = key(link[3])
            if hkey not in visited:
                visited[hkey] = link
                self.known += 1
        self.sizes.add(size)

    def bounds(self):
        """(lower, upper) bounds of the frontier's length: a held group of a
        size no key of this side has holds at least one new key."""
        held = self.held
        return (self.known + sum(size not in self.sizes for size in held),
                self.known + sum(map(len, held.values())))

    def shapes(self):
        """The :func:`_shape` of every key this side reached or holds."""
        held = (link[3] for group in self.held.values() for link in group)
        return set(map(_shape, itertools.chain(self.visited, held)))

    def take_frontier(self):
        """The frontier's keys, in order, every held group keyed; starts an
        empty level."""
        for size in list(self.held):
            self.settle(size)
        visited, keyed = self.visited, self.search.keyed
        frontier = [k for link in self.level if visited[k := keyed[link[3]]] is link]
        self.level, self.held, self.known = [], {}, 0
        return frontier


def _next_side(sides):
    """The side whose frontier is smaller, side 0 on a tie, or None if a
    frontier is empty, keying held groups only until the bounds of
    :meth:`_Side.bounds` settle it: a frontier whose emptiness is open
    first, then the side with the narrower gap, then the other, one group
    at a time, largest first."""
    while True:
        (lo0, hi0), (lo1, hi1) = (side.bounds() for side in sides)
        if not hi0 or not hi1:
            return None
        if lo0 and lo1:
            if lo0 > hi1:
                return 1
            if hi0 <= lo1:
                return 0
            gaps = hi0 - lo0, hi1 - lo1
            narrow = int(gaps[1] < gaps[0])
            side = sides[narrow] if gaps[narrow] else sides[1 - narrow]
        else:
            side = sides[0] if not lo0 else sides[1]
        held = side.held
        side.settle(max(held, key=lambda size: len(held[size])))


def _read_bound(name, value, least):
    """``value`` read by :func:`~flowinv.exactla.exact_int`; GraphError if
    it is not an integer or is below ``least``, 0 or 1."""
    try:
        bound = exact_int(value)
    except ValueError:
        raise GraphError(f"{name} must be an integer, got {value!r}") from None
    if bound < least:
        what = "positive" if least else "non-negative"
        raise GraphError(f"{name} must be {what}, got {bound}")
    return bound


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
    Both bounds are read by :func:`~flowinv.exactla.exact_int`, so 3.0
    reads as 3 and True as 1; a bound that is not an integer, a negative
    ``max_depth`` or a ``max_vertices`` below 1 raises GraphError, and so
    does a graph with an entry above ``MAX_SEARCH_ENTRY``.
    """
    max_depth = _read_bound("max_depth", max_depth, 0)
    max_vertices = _read_bound("max_vertices", max_vertices, 1)
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

    # One walk from two sides: side 0 from the start, side 1 from the goal;
    # each neighbor's rows come from the moves' own rules (expansion_rows,
    # contraction_rows, quotient_rows) or from _split_rows.  The smaller
    # frontier expands, side 0 on a tie; depth counts the levels both sides
    # have walked.
    sides = (_Side(search, key_src, src.incidence().entries),
             _Side(search, key_dst, dst.incidence().entries))
    visited = (sides[0].visited, sides[1].visited)
    depth = 0

    while depth < max_depth and (side := _next_side(sides)) is not None:
        mine, other = sides[side], sides[1 - side]
        frontier = mine.take_frontier()
        seen, known_sizes, level, held = mine.visited, mine.sizes, mine.level, mine.held
        depth += 1
        # A neighbor meets only keys of its own size, so one of a size no key
        # of the other side has, held or known, is held unkeyed (see _Side).
        # Before a neighbor is tested against the other side, the other
        # side's held neighbors of its size are keyed.  The last level's
        # frontier is never expanded, so there a neighbor that cannot meet is
        # dropped, and one is keyed only if some key of the other side also
        # has its shape.
        sizes, waiting, reached = other.sizes, other.held, other.visited
        last = depth == max_depth
        shapes = other.shapes() if last else None
        for key in frontier:
            stats.expanded += 1
            for kind, rows, recipe in search.neighbors(seen[key][3]):
                size = _size(rows)
                if size not in sizes and size not in waiting:
                    if not last:
                        link = key, kind, recipe, rows
                        level.append(link)
                        held.setdefault(size, []).append(link)
                    continue
                if last and _shape(rows) not in shapes:
                    continue
                hkey = search.key(rows)
                if hkey in seen:
                    continue
                link = seen[hkey] = key, kind, recipe, rows
                known_sizes.add(size)
                if size in waiting:
                    other.settle(size)
                if hkey in reached:
                    return MoveSequence(src, search.replay(src, visited, hkey, want), stats)
                level.append(link)
                mine.known += 1

    raise NotFoundWithinBounds("bounds-exhausted", stats)
