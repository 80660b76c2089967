"""Bounded bidirectional search for move sequences between graphs."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random

import pytest

from flowinv import flowsearch
from flowinv.cli import format_move_step, main
from flowinv.flowsearch import (
    DEFAULT_MAX_VERTICES,
    DEFAULT_PARTITION_CAP,
    MoveSequence,
    MoveStep,
    NotFoundWithinBounds,
    SearchStats,
    _amalgam_blocks,
    _capped_partitions,
    _max_entry,
    _realize,
    _Search,
    _split_rows,
    _vector_partitions,
    find_sequence,
    verify_sequence,
)
from flowinv.graph import (
    GraphError,
    MultiGraph,
    canonical_key,
    canonical_rows_key,
    classify_graph,
    is_isomorphic,
)
from flowinv.invariants import equiv_det_pair, franks_triple
from flowinv.moves import (
    MoveError,
    expand,
    in_amalgamate,
    minus,
    out_amalgamate,
    quotient_rows,
)


# A partition cap above the number of splittings of every bundle vector
# these tests draw, so that it cuts none: where a test counts the cuts, it
# checks that this cap made none.
_NO_CUT = 10**6


def _rose(petals: int) -> MultiGraph:
    return MultiGraph.from_matrix([[petals]])


def _rand_pis_graph(rng: random.Random, max_n: int = 3) -> MultiGraph:
    while True:
        n = rng.randint(1, max_n)
        g = MultiGraph.from_matrix(
            [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        )
        r = classify_graph(g)
        if r.purely_infinite_simple and not r.has_sources:
            return g


def _scramble(rng: random.Random, g: MultiGraph, moves: int) -> MultiGraph:
    cur = g
    for _ in range(moves):
        search = _Search(max_vertices=6, entry_cap=9, partition_cap=64)
        nbrs = list(search.neighbors(cur.incidence().entries))
        kind, _, recipe = rng.choice(nbrs)
        _, cur = _realize(cur, kind, recipe)
    return cur


# ---------------------------------------------------------------------------
# Success paths.


def test_identical_graphs_need_no_moves():
    seq = find_sequence(_rose(4), _rose(4))
    assert len(seq) == 0
    assert seq.end == _rose(4)
    assert verify_sequence(seq)


def test_isomorphic_graphs_need_no_moves():
    a = MultiGraph.from_matrix([[0, 2], [1, 1]])
    b = a.permuted([1, 0])
    assert len(find_sequence(a, b)) == 0


def test_single_expansion_is_found():
    g = MultiGraph.from_matrix([[1, 1], [1, 1]])
    goal = expand(g, 0)
    seq = find_sequence(g, goal)
    assert 1 <= len(seq) <= 2
    assert verify_sequence(seq)
    assert is_isomorphic(seq.end, goal)


def test_rose_connects_to_its_companion():
    companion = MultiGraph.from_matrix([[1, 1], [3, 2]])
    seq = find_sequence(_rose(4), companion)
    assert len(seq) <= 6
    assert verify_sequence(seq)
    assert is_isomorphic(seq.end, companion)
    want = franks_triple(_rose(4))
    for step in seq.steps:
        assert equiv_det_pair(want, franks_triple(step.graph))


def test_scramble_recovery():
    rng = random.Random(71)
    for _ in range(5):
        g = _rand_pis_graph(rng)
        goal = _scramble(rng, g, 3)
        seq = find_sequence(g, goal)
        assert len(seq) <= 6
        assert verify_sequence(seq)
        assert is_isomorphic(seq.end, goal)


def test_search_is_deterministic():
    companion = MultiGraph.from_matrix([[1, 1], [3, 2]])
    runs = []
    for _ in range(2):
        seq = find_sequence(_rose(4), companion)
        runs.append([(s.kind, canonical_key(s.graph)) for s in seq.steps])
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Refusals.


def test_invariant_mismatch_is_detected_immediately():
    with pytest.raises(NotFoundWithinBounds) as exc:
        find_sequence(_rose(4), _rose(3))  # Z/3 versus Z/2
    assert exc.value.reason == "invariant-mismatch"
    assert "separates the graphs" in str(exc.value)
    assert exc.value.stats.expanded == 0


def test_determinant_sign_counts_as_mismatch():
    with pytest.raises(NotFoundWithinBounds) as exc:
        find_sequence(_rose(2), minus(_rose(2)))
    assert exc.value.reason == "invariant-mismatch"


def test_bounds_exhausted_at_depth_zero():
    companion = MultiGraph.from_matrix([[1, 1], [3, 2]])
    with pytest.raises(NotFoundWithinBounds) as exc:
        find_sequence(_rose(4), companion, max_depth=0)
    assert exc.value.reason == "bounds-exhausted"
    assert "within bounds" in str(exc.value)


def test_negative_depth_is_rejected():
    companion = MultiGraph.from_matrix([[1, 1], [3, 2]])
    for goal in (companion, _rose(4)):
        with pytest.raises(GraphError, match="max_depth"):
            find_sequence(_rose(4), goal, max_depth=-1)


def test_bounds_must_be_integers():
    companion = MultiGraph.from_matrix([[1, 1], [3, 2]])
    for bounds in (
        dict(max_depth=None),
        dict(max_depth=2.5),
        dict(max_depth="2"),
        dict(max_vertices=2.5),
        dict(max_vertices=None),
        dict(max_vertices=float("inf")),
    ):
        (name,) = bounds
        with pytest.raises(GraphError, match=f"{name} must be an integer"):
            find_sequence(_rose(4), companion, **bounds)


def test_max_vertices_must_be_positive():
    for cap in (0, -3, False):
        with pytest.raises(GraphError, match=f"max_vertices must be positive, got {int(cap)}$"):
            find_sequence(_rose(4), _rose(4), max_vertices=cap)


def test_integral_bounds_read_as_ints():
    # 6.0 is 6 and True is 1: the same search as with the ints.
    companion = MultiGraph.from_matrix([[1, 1], [3, 2]])
    want = _answer(find_sequence, _rose(4), companion, max_depth=6, max_vertices=8)
    assert want[0] != "bounds-exhausted"
    assert _answer(find_sequence, _rose(4), companion, max_depth=6.0, max_vertices=8.0) == want
    one = _answer(find_sequence, _rose(4), companion, max_depth=1)
    assert one[0] == "bounds-exhausted"
    assert _answer(find_sequence, _rose(4), companion, max_depth=True) == one
    with pytest.raises(GraphError, match="above the search cap 1$"):
        find_sequence(_rose(4), companion, max_vertices=True)


def test_bounds_exhausted_reports_stats():
    companion = MultiGraph.from_matrix([[1, 1], [3, 2]])
    with pytest.raises(NotFoundWithinBounds) as exc:
        find_sequence(_rose(4), companion, max_depth=1)
    assert exc.value.reason == "bounds-exhausted"
    assert exc.value.stats.expanded >= 1
    d = exc.value.stats.to_dict()
    assert list(d) == ["expanded", "pruned", "partition_capped", "vertex_capped", "entry_capped"]


def test_search_rejects_unsuitable_graphs():
    line = MultiGraph.from_matrix([[0, 1], [0, 0]])
    with pytest.raises(GraphError) as exc:
        find_sequence(line, _rose(4))
    assert "essential" in str(exc.value)

    cycle = MultiGraph.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(GraphError) as exc:
        find_sequence(_rose(4), cycle)
    assert "nontrivial" in str(exc.value)

    reducible = MultiGraph.from_matrix([[1, 1], [0, 2]])
    with pytest.raises(GraphError) as exc:
        find_sequence(reducible, _rose(4))
    assert "irreducible" in str(exc.value)


def test_search_rejects_oversized_graphs():
    big = MultiGraph.from_matrix([[1] * 9 for _ in range(9)])
    with pytest.raises(GraphError) as exc:
        find_sequence(big, big, max_vertices=8)
    assert "above the search cap" in str(exc.value)


# ---------------------------------------------------------------------------
# Sequence verification.


def test_verify_sequence_rejects_tampered_graph():
    g = MultiGraph.from_matrix([[1, 1], [1, 1]])
    wrong = MoveSequence(
        start=g,
        steps=(MoveStep(kind="expand", args={"vertex": "v0"}, graph=_rose(4)),),
    )
    with pytest.raises(MoveError):
        verify_sequence(wrong)


def test_move_sequence_end_property():
    g = MultiGraph.from_matrix([[1, 1], [1, 1]])
    empty = MoveSequence(start=g, steps=())
    assert empty.end == g
    h = expand(g, 0)
    one = MoveSequence(
        start=g, steps=(MoveStep(kind="expand", args={"vertex": "v0"}, graph=h),)
    )
    assert one.end == h and len(one) == 1
    assert verify_sequence(one)


# ---------------------------------------------------------------------------
# Equivalence with the search that built every partition and replayed every
# step, pinned in a file and checked against oracles kept here.


def _all_vector_partitions(total):
    """Every multiset partition of ``total``, in the bounded generator's
    order: the enumeration the search once filtered by the number of parts."""

    def candidates(remaining, bound):
        ranges = [range(r + 1) for r in remaining]
        out = [x for x in itertools.product(*ranges) if any(x) and x <= bound]
        out.sort(reverse=True)
        return out

    def rec(remaining, bound):
        if not any(remaining):
            yield ()
            return
        for part in candidates(remaining, bound):
            rest = tuple(r - p for r, p in zip(remaining, part))
            for tail in rec(rest, part):
                yield (part,) + tail

    total = tuple(total)
    yield from rec(total, total)


def test_bounded_partitions_match_generate_then_filter():
    for k in range(4):
        for total in itertools.product(range(5), repeat=k):
            every = list(_all_vector_partitions(total))
            for max_parts in range(1, 7):
                want = [parts for parts in every if len(parts) <= max_parts]
                assert list(_vector_partitions(total, max_parts)) == want, (total, max_parts)


def test_bounded_partitions_match_the_oracle_up_to_five_coordinates(hypothesis_api):
    # The search hands _vector_partitions bundle vectors of up to six
    # sources; past the grid above, draw totals of up to five coordinates
    # with sum at most 7.
    hyp, st = hypothesis_api
    totals = st.integers(1, 5).flatmap(
        lambda k: st.lists(st.integers(0, k - 1), max_size=7).map(
            lambda picks: tuple(map(picks.count, range(k)))
        )
    )

    @hyp.seed(5)
    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(totals, st.integers(1, 6))
    def check(total, max_parts):
        want = [parts for parts in _all_vector_partitions(total) if len(parts) <= max_parts]
        assert list(_vector_partitions(total, max_parts)) == want

    check()


def _replay_by_enumeration(seq, *, max_vertices, entry_cap, partition_cap):
    """Re-find every step of ``seq`` as the first neighbor, in enumeration
    order, with the next graph's key: under ``partition_cap`` first, then
    under ``_NO_CUT``."""
    steps = []
    cur = seq.start
    for step in seq.steps:
        want = canonical_key(step.graph)
        found = None
        for cap in (partition_cap, _NO_CUT):
            found = next(
                (
                    MoveStep(kind=kind, args=args, graph=h)
                    for kind, _, recipe in _Search(
                        max_vertices=max_vertices, entry_cap=entry_cap, partition_cap=cap
                    ).neighbors(cur.incidence().entries)
                    for args, h in [_realize(cur, kind, recipe)]
                    if canonical_key(h) == want
                ),
                None,
            )
            if found:
                break
        assert found is not None
        steps.append(found)
        cur = found.graph
    return steps


def _script(seq) -> list[str]:
    lines, prev = [], seq.start
    for step in seq.steps:
        lines.extend(format_move_step(prev, step))
        prev = step.graph
    return lines


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _search_golden() -> dict:
    path = os.path.join(os.path.dirname(__file__), "data", "search_golden.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _golden_scrambles():
    """Criterion 9's 25 scrambles, drawn again the same way, as (case,
    start, goal); the goals must be the golden file's."""
    golden = _search_golden()["scrambles"]
    assert len(golden) == 25
    rng = random.Random(1009)
    for case in golden:
        base = _rand_pis_graph(rng)
        goal = base
        for _ in range(3):
            search = _Search(max_vertices=6, entry_cap=9, partition_cap=64)
            nbrs = list(search.neighbors(goal.incidence().entries))
            kind, _, recipe = rng.choice(nbrs)
            _, goal = _realize(goal, kind, recipe)
        assert base.incidence().to_lists() == case["start"]
        assert goal.incidence().to_lists() == case["goal"]
        yield case, base, goal


def test_found_scripts_match_golden_file():
    # The goals pin the neighbor order, the script digests pin every found
    # step, and the counters pin the search's work: replaying the path adds
    # none.  Each step must also be what enumerating all neighbors again
    # would pick.
    for case, base, goal in _golden_scrambles():
        seq = find_sequence(base, goal, max_depth=6)
        assert len(seq) == case["moves"]
        assert _digest(_script(seq)) == case["script_sha256"]
        assert seq.stats.to_dict() == _golden_stats(case)
        entry_cap = max(9, _max_entry(base), _max_entry(goal))
        replayed = _replay_by_enumeration(
            seq, max_vertices=8, entry_cap=entry_cap, partition_cap=DEFAULT_PARTITION_CAP
        )
        assert [s.graph for s in replayed] == [s.graph for s in seq.steps]
        assert _script(MoveSequence(start=base, steps=tuple(replayed))) == _script(seq)


def test_meets_on_the_last_level_match_golden_file():
    # With the depth bound at the path's length the meet comes on the last
    # level, where neighbors of a shape the other side lacks go unkeyed:
    # the first meet, and so the script, must not change.
    for case, base, goal in _golden_scrambles():
        seq = find_sequence(base, goal, max_depth=case["moves"])
        assert _digest(_script(seq)) == case["script_sha256"]


def test_shape_is_a_permutation_invariant(hypothesis_api):
    hyp, st = hypothesis_api

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def check(rows):
        m = tuple(map(tuple, rows))
        shape = flowsearch._shape(m)
        assert shape[0] == len(m)
        for order in itertools.permutations(range(len(m))):
            permuted = tuple(tuple(m[i][j] for j in order) for i in order)
            assert flowsearch._shape(permuted) == shape
        assert flowsearch._shape(canonical_rows_key(m)) == shape

    check()


def _graph_file(path, rows) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"matrix {len(rows)}\n")
        for row in rows:
            fh.write(" ".join(map(str, row)) + "\n")
    return str(path)


def test_cli_search_scripts_match_golden_file(tmp_path, capsys):
    for k, case in enumerate(_search_golden()["cli"]):
        start = _graph_file(tmp_path / f"start{k}.graph", case["start"])
        goal = _graph_file(tmp_path / f"goal{k}.graph", case["goal"])
        assert main(["search", start, goal, "--json", *case["options"]]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["found"] and got["moves"] == case["moves"]
        assert _digest(got["script"]) == case["script_sha256"], k
        assert got["stats"] == _golden_stats(case), k
        # The script replays, through the move command, to the goal.
        script = tmp_path / f"found{k}.script"
        script.write_text("\n".join(got["script"]) + "\n", encoding="utf-8")
        assert main(["move", "--script", str(script), start, "--json"]) == 0
        end = MultiGraph.from_matrix(json.loads(capsys.readouterr().out)["matrix"])
        assert is_isomorphic(end, MultiGraph.from_matrix(case["goal"])), k


def _golden_stats(case) -> dict:
    return {
        "expanded": case["expanded"],
        "pruned": case["vertex_capped"] + case["entry_capped"],
        "partition_capped": case["partition_capped"],
        "vertex_capped": case["vertex_capped"],
        "entry_capped": case["entry_capped"],
    }


def test_exhausted_searches_match_golden_file():
    # Every counter of the exhausted searches is pinned.
    for case in _search_golden()["exhausted"]:
        with pytest.raises(NotFoundWithinBounds) as exc:
            find_sequence(
                MultiGraph.from_matrix(case["start"]),
                MultiGraph.from_matrix(case["goal"]),
                **case["bounds"],
            )
        assert exc.value.reason == case["reason"]
        assert exc.value.stats.to_dict() == _golden_stats(case)


def test_memoized_partitions_match_the_generator():
    # The cache keeps at most partition_cap + 1 splittings per bundle
    # vector; a splitting read from it must equal one enumerated afresh, and
    # so must the cap count: with the cache cleared before each case and
    # read again at once, then over a second sweep that finds the cache as
    # the first left it (more splittings than it holds, so some were
    # evicted).
    cases = []
    for k in range(4):
        for counts in itertools.product(range(5), repeat=k):
            # Vertex k receives counts[u] edges from each vertex u < k.
            m = tuple(
                tuple(counts[u] if u < k == j else 0 for j in range(k + 1)) for u in range(k + 1)
            )
            for max_classes in range(2, 7):
                for cap in (1, 2, 3, 512, _NO_CUT):
                    fresh = SearchStats()
                    want = list(_split_rows_reference(m, k, max_classes, cap, fresh))
                    assert cap != _NO_CUT or not fresh.partition_capped
                    cases.append((m, k, max_classes, cap, want, fresh.partition_capped))
    for cold in (True, False):
        for m, k, max_classes, cap, want, capped in cases:
            if cold:
                _capped_partitions.cache_clear()
            for _ in range(2 if cold else 1):
                stats = SearchStats()
                assert list(_split_rows(m, k, max_classes, cap, stats)) == want, (m, max_classes, cap)
                assert stats.partition_capped == capped
            if cold and want:
                assert _capped_partitions.cache_info().currsize == 1
    info = _capped_partitions.cache_info()
    assert info.held <= info.budget == flowsearch.PARTITION_CACHE_SPLITTINGS
    assert info.currsize < len({(m, max_classes, cap) for m, _, max_classes, cap, want, _ in cases if want})


def test_partition_cache_is_bounded_by_what_it_holds():
    # The least recently used results go first, until the items held are
    # within the budget; a result longer than the budget is not kept.
    calls = []

    @flowsearch._memo_by_length(5)
    def ones(n):
        calls.append(n)
        return (1,) * n

    for n in (2, 2, 3, 1):
        assert ones(n) == (1,) * n
    assert calls == [2, 3, 1]
    assert ones.cache_info() == (2, 4, 5)  # 2 went to make room for 1
    assert ones(3) == (1, 1, 1)
    assert ones(6) == (1,) * 6
    assert ones(6) == (1,) * 6
    assert ones(2) == (1, 1)  # 1, read less recently than 3, goes
    assert ones(3) == (1, 1, 1)
    assert calls == [2, 3, 1, 6, 6, 2]
    assert ones.cache_info() == (2, 5, 5)
    ones.cache_clear()
    assert ones.cache_info() == (0, 0, 5)


def _split_rows_reference(m, v, max_classes, partition_cap, stats):
    """:func:`flowinv.flowsearch._split_rows` as it was before the rows were
    cut once per vertex: each splitting builds its split column part by
    part and cuts every row again.  Kept as an oracle."""
    order = [u for u, row in enumerate(m) if row[v]]
    counts = tuple(m[u][v] for u in order)
    if sum(counts) < 2:
        return
    splits = (p for p in _vector_partitions(counts, max_classes) if len(p) >= 2)
    emitted = 0
    for parts in splits:
        if emitted >= partition_cap:
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


def _check_split_rows(m, v, max_classes, cap, cold):
    """_split_rows, with the partition cache cleared first if ``cold`` and
    as earlier calls left it otherwise, yields the reference's (parts,
    rows) sequence and counts the same partition cut."""
    if cold:
        _capped_partitions.cache_clear()
    want_stats, got_stats = SearchStats(), SearchStats()
    want = list(_split_rows_reference(m, v, max_classes, cap, want_stats))
    got = list(_split_rows(m, v, max_classes, cap, got_stats))
    assert got == want, (m, v, max_classes, cap)
    assert got_stats.partition_capped == want_stats.partition_capped
    return len(want)


def test_split_rows_match_the_reference(hypothesis_api):
    # Vertex 0 has a loop of 2 and receives 1 and 2 edges from vertices 1
    # and 2; vertices 1 and 2 each receive one edge (vertex 2 its loop), a
    # bundle sum below 2, so they have no splitting.
    m = ((2, 1, 0), (1, 0, 0), (2, 0, 1))
    for cap in (_NO_CUT, 1, 3):
        for cold in (True, False, False):
            count = _check_split_rows(m, 0, 4, cap, cold)
            assert count == cap if cap < _NO_CUT else count > 3
            assert _check_split_rows(m, 1, 4, cap, cold) == 0
            assert _check_split_rows(m, 2, 4, cap, cold) == 0

    hyp, st = hypothesis_api

    rows = st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, 3)] * n), min_size=n, max_size=n
        ).map(tuple)
    )

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(rows, st.data())
    def check(m, data):
        v = data.draw(st.integers(0, len(m) - 1))
        max_classes = data.draw(st.integers(2, 5))
        cap = data.draw(st.sampled_from((_NO_CUT, 1, 3)))
        shared = data.draw(st.booleans())
        # With a shared cache, a second call reads what the first one filled.
        _check_split_rows(m, v, max_classes, cap, True)
        _check_split_rows(m, v, max_classes, cap, not shared)

    check()


def _cache_history_jobs():
    """Calls whose answers must not depend on what the partition cache
    holds: find_sequence on the golden scrambles and exhausted pairs, and
    the neighbors of each scramble's start and goal at partition caps 1 and
    3, with their stats."""
    golden = _search_golden()
    jobs = []
    for case in golden["scrambles"]:
        start, goal = (MultiGraph.from_matrix(case[k]) for k in ("start", "goal"))
        jobs.append(functools.partial(_answer, find_sequence, start, goal, max_depth=6))
    for case in golden["exhausted"]:
        start, goal = (MultiGraph.from_matrix(case[k]) for k in ("start", "goal"))
        jobs.append(functools.partial(_answer, find_sequence, start, goal, **case["bounds"]))

    def neighbors(m, cap):
        search = _Search(max_vertices=len(m) + 2, entry_cap=9, partition_cap=cap)
        return list(search.neighbors(m)), search.stats.to_dict()

    for case in golden["scrambles"]:
        for m in (case["start"], case["goal"]):
            rows = tuple(map(tuple, m))
            jobs.extend(functools.partial(neighbors, rows, cap) for cap in (1, 3))
    return jobs


def test_answers_do_not_depend_on_the_partition_cache(monkeypatch):
    # The capped partitions are cached for the process, so a search may
    # find them filled by any earlier one; each answer must be the one it
    # gets from an empty cache.  Every value the cache hands out is a tuple
    # of at most cap + 1 splittings, each a tuple, under an integral cap.
    cached = _capped_partitions
    handed = []

    def watched(counts, max_classes, partition_cap):
        value = cached(counts, max_classes, partition_cap)
        handed.append((partition_cap, value))
        return value

    monkeypatch.setattr(flowsearch, "_capped_partitions", watched)
    jobs = _cache_history_jobs()

    cold = []
    for job in jobs:
        cached.cache_clear()
        cold.append(job())
    cached.cache_clear()
    warm = [job() for job in jobs]
    backward = [job() for job in reversed(jobs)][::-1]
    assert warm == cold
    assert backward == cold

    assert handed
    for cap, value in handed:
        assert type(cap) is int and 1 <= cap <= DEFAULT_PARTITION_CAP
        assert type(value) is tuple and 0 < len(value) <= cap + 1
        assert all(type(parts) is tuple and len(parts) >= 2 for parts in value)
    assert cached.cache_info().held <= cached.cache_info().budget


# ---------------------------------------------------------------------------
# Neighbors as rows: what the search keys and what it builds.


def _check_neighbor_rows(g, stats, **bounds):
    """Every neighbor's rows are exactly the incidence of the graph its
    recipe builds, and their key is that graph's canonical key.  The cuts
    are counted into ``stats``; ``_NO_CUT`` must make none."""
    search = _Search(**bounds)
    for kind, rows, recipe in search.neighbors(g.incidence().entries):
        _, h = _realize(g, kind, recipe)
        assert h.incidence().entries == rows, (kind, recipe)
        if h.n <= DEFAULT_MAX_VERTICES:  # keys of larger graphs can be factorial
            assert canonical_rows_key(rows) == canonical_key(h), (kind, recipe)
    assert bounds["partition_cap"] != _NO_CUT or not search.stats.partition_capped
    for name in ("partition_capped", "vertex_capped", "entry_capped"):
        setattr(stats, name, getattr(stats, name) + getattr(search.stats, name))


def test_neighbor_rows_match_realized_golden_graphs():
    path = os.path.join(os.path.dirname(__file__), "data", "moves_golden.json")
    with open(path, encoding="utf-8") as fh:
        specs = {json.dumps(c["graph"], sort_keys=True): c["graph"] for c in json.load(fh)["cases"]}
    stats = SearchStats()
    checked = 0
    for spec in specs.values():
        if "matrix" in spec:
            g = MultiGraph.from_matrix(spec["matrix"], labels=spec["labels"])
        else:
            g = MultiGraph(spec["labels"], [tuple(t) for t in spec["edges"]])
        # No cut only where that stays small; the search never expands a
        # graph above DEFAULT_MAX_VERTICES.
        caps = (1, _NO_CUT) if g.n <= 3 else (2,) if g.n <= 8 else (1,)
        for cap in caps:
            _check_neighbor_rows(
                g, stats, max_vertices=g.n + 2, entry_cap=4, partition_cap=cap
            )
        checked += 1
    assert checked > 140
    assert stats.partition_capped and stats.entry_capped


def test_neighbor_rows_match_realized_random_graphs(hypothesis_api):
    hyp, st = hypothesis_api
    seen = SearchStats()

    @hyp.settings(max_examples=100, deadline=None)
    @hyp.given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n
            )
        ),
        st.integers(0, 2),
        st.sampled_from([1, 3, _NO_CUT]),
        st.integers(1, 9),
    )
    def check(rows, extra, cap, entry_cap):
        g = MultiGraph.from_matrix(rows)
        _check_neighbor_rows(
            g, seen, max_vertices=g.n + extra, entry_cap=entry_cap, partition_cap=cap
        )

    check()
    # Every cap was both hit and missed among the drawn graphs.
    assert seen.partition_capped and seen.vertex_capped and seen.entry_capped


def _essential(rows) -> bool:
    return all(map(any, rows)) and all(map(any, zip(*rows)))


def test_neighbors_of_essential_graphs_are_essential(hypothesis_api):
    # The search admits only essential graphs, so it walks no source
    # elimination: no neighbor it enumerates has a zero row or column.
    hyp, st = hypothesis_api

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(
        st.integers(1, 4)
        .flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
        .filter(_essential),
        st.integers(0, 2),
        st.sampled_from([1, 3, _NO_CUT]),
        st.integers(1, 6),
    )
    def check(rows, extra, cap, entry_cap):
        m = tuple(map(tuple, rows))
        search = _Search(max_vertices=len(m) + extra, entry_cap=entry_cap, partition_cap=cap)
        for kind, got, _ in search.neighbors(m):
            assert _essential(got), (kind, m, got)
        assert cap != _NO_CUT or not search.stats.partition_capped

    check()


def test_search_builds_only_expanded_graphs_and_the_path(monkeypatch):
    # Realizing a neighbor goes through the moves; count the splits and
    # expansions.  The search expands rows, so a graph is built only for a
    # step of the found path, and an exhausted search builds none.
    built = []

    def counted(move):
        def build(*args):
            built.append(move.__name__)
            return move(*args)

        return build

    for name in ("in_split", "out_split", "expand"):
        monkeypatch.setattr(flowsearch, name, counted(getattr(flowsearch, name)))

    for case in _search_golden()["exhausted"]:
        built.clear()
        with pytest.raises(NotFoundWithinBounds) as exc:
            find_sequence(
                MultiGraph.from_matrix(case["start"]),
                MultiGraph.from_matrix(case["goal"]),
                **case["bounds"],
            )
        assert exc.value.stats.to_dict() == _golden_stats(case)
        assert not built

    for case in _search_golden()["scrambles"]:
        built.clear()
        start = MultiGraph.from_matrix(case["start"])
        seq = find_sequence(start, MultiGraph.from_matrix(case["goal"]), max_depth=6)
        assert len(seq) == case["moves"]
        assert len(built) <= len(seq)


def test_replay_takes_a_link_past_the_partition_cap(monkeypatch):
    # The rose with three petals in-splits into the all-ones 3x3 matrix only
    # by its second vector partition, (1), (1), (1); with partition_cap=1 the
    # start's side yields only (2), (1), so it never reaches the goal.  The
    # goal's side reaches the rose by amalgamating all three vertices, and
    # the replay builds that link as the splitting that undoes it, past the
    # cap: it enumerates no neighbor and adds nothing to the search's stats.
    rose = _rose(3)
    goal = MultiGraph.from_matrix([[1] * 3] * 3)
    key_rose, key_goal = canonical_key(rose), canonical_key(goal)
    search = _Search(max_vertices=3, entry_cap=9, partition_cap=1)
    capped = search.neighbors(rose.incidence().entries)
    assert key_goal not in {canonical_rows_key(rows) for _, rows, _ in capped}
    assert search.stats == SearchStats(partition_capped=2)
    m = goal.incidence().entries
    link = next(
        (kind, recipe, rows)
        for kind, rows, recipe in _Search(3, 9, 1).neighbors(m)
        if canonical_rows_key(rows) == key_rose
    )
    assert link == ("in-amalgamate", [[0, 1, 2]], ((3,),))
    visited = (
        {key_rose: (None, None, None, rose.incidence().entries)},
        {key_goal: (None, None, None, m), key_rose: (key_goal, *link)},
    )
    monkeypatch.setattr(_Search, "neighbors", None)
    steps = search.replay(rose, visited, key_rose, franks_triple(rose))
    assert search.stats == SearchStats(partition_capped=2)
    assert [s.kind for s in steps] == ["in-split"]
    assert steps[0].graph == goal
    assert steps[0].args["partition"].classes == {0: (("e0",), ("e1",), ("e2",))}
    assert verify_sequence(MoveSequence(start=rose, steps=steps))


def test_replay_enumerates_no_neighbors(monkeypatch):
    # A link the start's side made is built from its recorded recipe, and
    # one the goal's side made as the _undo of the move it recorded: the
    # replay enumerates no neighbor, and undoes each goal-side link once.
    calls, undone, seen = [], [], []
    neighbors, replay, undo = _Search.neighbors, _Search.replay, flowsearch._undo

    def counted(search, m):
        calls.append(m)
        return neighbors(search, m)

    def counted_undo(*args):
        undone.append(args)
        return undo(*args)

    def watched(search, start, visited, meet, want):
        before = len(calls), len(undone)
        steps = replay(search, start, visited, meet, want)
        backward, key = 0, visited[1][meet][0]
        while key is not None:
            backward, key = backward + 1, visited[1][key][0]
        seen.append((len(calls) - before[0], len(undone) - before[1], backward, len(steps)))
        return steps

    monkeypatch.setattr(_Search, "neighbors", counted)
    monkeypatch.setattr(_Search, "replay", watched)
    monkeypatch.setattr(flowsearch, "_undo", counted_undo)
    rose = _rose(2)
    assert len(find_sequence(rose, expand(rose, 0), max_depth=2)) == 1
    assert seen == [(0, 0, 0, 1)]
    for case in _search_golden()["scrambles"]:
        start = MultiGraph.from_matrix(case["start"])
        find_sequence(start, MultiGraph.from_matrix(case["goal"]), max_depth=6)
    assert len(seen) == 26
    assert all(made == 0 and undid == backward for made, undid, backward, _ in seen)
    assert any(backward < steps for _, _, backward, steps in seen[1:])
    assert any(backward for _, _, backward, _ in seen)


def _walk(start, moves, rng, **bounds):
    """A walk of ``moves`` steps from ``start`` through new keys, recorded
    as a side of the search records it: the keys from ``start``'s on, the
    map from each key to (parent's key, kind, recipe, rows), and the graphs
    the recipes build."""
    keys = [canonical_key(start)]
    walk = {keys[0]: (None, None, None, start.incidence().entries)}
    graphs = []
    cur = start
    for _ in range(moves):
        fresh = [
            (kind, rows, recipe)
            for kind, rows, recipe in _Search(**bounds).neighbors(cur.incidence().entries)
            if canonical_rows_key(rows) not in walk
        ]
        kind, rows, recipe = rng.choice(fresh)
        key = canonical_rows_key(rows)
        walk[key] = keys[-1], kind, recipe, rows
        keys.append(key)
        cur = _realize(cur, kind, recipe)[1]
        graphs.append(cur)
    return keys, walk, graphs


def test_replay_builds_recorded_links_and_rejects_a_tampered_one(monkeypatch):
    bounds = dict(max_vertices=5, entry_cap=9, partition_cap=DEFAULT_PARTITION_CAP)
    start = MultiGraph.from_matrix([[1, 1], [1, 1]])
    want = franks_triple(start)
    rng = random.Random(1601)
    for _ in range(10):
        # The walk is the start's side; the goal's side is its last key.
        keys, walk, graphs = _walk(start, 3, rng, **bounds)
        goal_side = {keys[-1]: (None, None, None, graphs[-1].incidence().entries)}
        keyed = {link[3]: key for key, link in walk.items()}
        called = []
        monkeypatch.setattr(_Search, "neighbors", lambda *a: called.append(a))
        monkeypatch.setattr(flowsearch, "canonical_rows_key", lambda rows: called.append(rows))
        monkeypatch.setattr(flowsearch, "_undo", lambda *a: called.append(a))
        search = _Search(keyed=keyed, **bounds)
        steps = search.replay(start, (walk, goal_side), keys[-1], want)
        monkeypatch.undo()
        # Every recorded link is built as it is and keyed by the memo.
        assert not called
        assert [s.graph for s in steps] == graphs
        assert [s.kind for s in steps] == [walk[k][1] for k in keys[1:]]
        assert verify_sequence(MoveSequence(start=start, steps=steps))

        # Another neighbor's move from the same graph in place of the second
        # link builds a graph with the wrong key: an internal error, not a
        # wrong step.
        other = next(
            (kind, recipe, rows)
            for kind, rows, recipe in _Search(**bounds).neighbors(graphs[0].incidence().entries)
            if canonical_rows_key(rows) != keys[2]
        )
        tampered = {**walk, keys[2]: (keys[1], *other)}
        with pytest.raises(RuntimeError, match="internal error"):
            _Search(keyed=keyed, **bounds).replay(start, (tampered, goal_side), keys[-1], want)


def test_replay_undoes_the_links_the_goal_side_made():
    # A walk from the goal is the goal's side, and the start is its last
    # graph with its vertices shuffled, so the replay's graphs are in
    # another vertex order than the rows the walk recorded.  Each step
    # undoes one recorded move and keys to the walk's key before it.
    bounds = dict(max_vertices=5, entry_cap=9, partition_cap=DEFAULT_PARTITION_CAP)
    goal = MultiGraph.from_matrix([[1, 1], [1, 1]])
    rng = random.Random(1607)
    kinds = set()
    for _ in range(20):
        keys, walk, graphs = _walk(goal, 3, rng, **bounds)
        perm = list(range(graphs[-1].n))
        rng.shuffle(perm)
        start = graphs[-1].permuted(perm)
        start_side = {keys[-1]: (None, None, None, start.incidence().entries)}
        steps = _Search(**bounds).replay(start, (start_side, walk), keys[-1], franks_triple(start))
        assert [canonical_key(s.graph) for s in steps] == keys[-2::-1]
        assert verify_sequence(MoveSequence(start=start, steps=steps))
        kinds.update(s.kind for s in steps)
    assert len(kinds) >= 4, kinds


_INVERSE = {
    "expand": "contract",
    "contract": "expand",
    "in-split": "in-amalgamate",
    "in-amalgamate": "in-split",
    "out-split": "out-amalgamate",
    "out-amalgamate": "out-split",
}


def _isomorphic_by_permutation(a, b) -> bool:
    """Brute force: some vertex permutation carries the rows ``a`` onto
    the rows ``b``."""
    n = len(a)
    return len(b) == n and any(
        all(b[s[i]][s[j]] == a[i][j] for i in range(n) for j in range(n))
        for s in itertools.permutations(range(n))
    )


def _check_undo(g, rng, seen):
    """Each neighbor of g, as the rows r its move makes, is undone in a
    shuffled copy c of r: the move _undo returns is the inverse kind, and
    the graph it builds from c is g up to a permutation.  The kinds undone
    are added to ``seen``."""
    p = g.incidence().entries
    search = _Search(max_vertices=g.n + 2, entry_cap=10**9, partition_cap=8)
    for kind, r, recipe in search.neighbors(p):
        perm = list(range(len(r)))
        rng.shuffle(perm)
        c = MultiGraph.from_matrix(r).permuted(perm)
        back_kind, back_recipe = flowsearch._undo(kind, recipe, p, r, c.incidence().entries)
        assert back_kind == _INVERSE[kind]
        _, back = _realize(c, back_kind, back_recipe)
        assert _isomorphic_by_permutation(back.incidence().entries, p), (kind, recipe, perm)
        seen.add(kind)


def _has_automorphism(rows) -> bool:
    """Some vertex permutation other than the identity fixes ``rows``."""
    n = len(rows)
    return any(
        all(rows[s[i]][s[j]] == rows[i][j] for i in range(n) for j in range(n))
        for s in itertools.islice(itertools.permutations(range(n)), 1, None)
    )


def test_undo_inverts_every_move_on_golden_graphs():
    path = os.path.join(os.path.dirname(__file__), "data", "moves_golden.json")
    with open(path, encoding="utf-8") as fh:
        specs = {json.dumps(c["graph"], sort_keys=True): c["graph"] for c in json.load(fh)["cases"]}
    rng = random.Random(1613)
    seen, checked, symmetric = set(), 0, 0
    for spec in specs.values():
        if "matrix" in spec:
            g = MultiGraph.from_matrix(spec["matrix"], labels=spec["labels"])
        else:
            g = MultiGraph(spec["labels"], [tuple(t) for t in spec["edges"]])
        if g.n <= 5:  # the oracle tries every permutation
            _check_undo(g, rng, seen)
            checked += 1
            symmetric += _has_automorphism(g.incidence().entries)
    assert seen == set(_INVERSE)
    assert checked > 100 and symmetric


def test_undo_inverts_every_move_on_seeded_graphs():
    # Random graphs of up to five vertices, entries 0..2, and graphs with
    # many automorphisms, where the canonical order has ties to break.
    rng = random.Random(1619)
    symmetric = [
        MultiGraph.from_matrix([[1, 1], [1, 1]]),
        MultiGraph.from_matrix([[0, 2], [2, 0]]),
        MultiGraph.from_matrix([[1] * 3] * 3),
        MultiGraph.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        MultiGraph.from_matrix([[1 if j != i else 0 for j in range(4)] for i in range(4)]),
        MultiGraph.from_matrix([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]),
    ]
    assert all(_has_automorphism(g.incidence().entries) for g in symmetric)
    drawn = []
    for _ in range(60):
        n = rng.randint(1, 5)
        drawn.append(MultiGraph.from_matrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]))
    seen = set()
    for g in [_rose(3), *symmetric, *drawn]:
        _check_undo(g, rng, seen)
    assert seen == set(_INVERSE)


def _accepted_single_blocks(g, amalgamate):
    """Every grouping with one block of two or more vertices that the move
    accepts, in the form the search writes it: the block in the place of its
    first vertex, every other vertex alone."""
    out = []
    for size in range(2, g.n + 1):
        for block in itertools.combinations(range(g.n), size):
            blocks = [list(block) if v == block[0] else [v] for v in range(g.n)
                      if v == block[0] or v not in block]
            try:
                amalgamate(g, blocks)
            except MoveError:
                continue
            out.append(blocks)
    return out


def _check_amalgamation_groupings(g):
    yielded = {"in-amalgamate": [], "out-amalgamate": []}
    search = _Search(max_vertices=g.n, entry_cap=10**9, partition_cap=1)
    for kind, _, recipe in search.neighbors(g.incidence().entries):
        if kind in yielded:
            yielded[kind].append(recipe)
    for kind, amalgamate in (("in-amalgamate", in_amalgamate), ("out-amalgamate", out_amalgamate)):
        assert sorted(yielded[kind]) == sorted(_accepted_single_blocks(g, amalgamate)), kind
    return sum(map(len, yielded.values()))


def test_amalgamation_neighbors_are_the_accepted_groupings_golden():
    # Graphs above ten vertices are left out: the oracle tries every subset.
    path = os.path.join(os.path.dirname(__file__), "data", "moves_golden.json")
    with open(path, encoding="utf-8") as fh:
        specs = {json.dumps(c["graph"], sort_keys=True): c["graph"] for c in json.load(fh)["cases"]}
    found = 0
    for spec in specs.values():
        if "matrix" in spec:
            g = MultiGraph.from_matrix(spec["matrix"], labels=spec["labels"])
        else:
            g = MultiGraph(spec["labels"], [tuple(t) for t in spec["edges"]])
        if g.n <= 10:
            found += _check_amalgamation_groupings(g)
    assert found > 100


def test_amalgamation_neighbors_are_the_accepted_groupings_random(hypothesis_api):
    hyp, st = hypothesis_api

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def check(rows):
        found.append(_check_amalgamation_groupings(MultiGraph.from_matrix(rows)))

    found = []
    check()
    assert any(found)


# ---------------------------------------------------------------------------
# The level loop against the one that keyed every held neighbor at its
# level's end, and the entry cap's invariant.


def _find_sequence_reference(src, dst, *, max_depth, max_vertices):
    """:func:`flowinv.flowsearch.find_sequence` with the level loop it had
    before a held neighbor was keyed only when needed: a neighbor is keyed
    at once only if some key of the other side has its size; every other
    one is held, in enumeration order, and keyed when its level ends.  On
    the last level a held neighbor is dropped, and one is keyed only if some
    key of the other side also has its shape.  Each level's frontier is
    counted exactly, every held neighbor keyed.  Both sides record what
    :func:`find_sequence` records, (parent's key, kind, recipe, rows), and a
    found path is built by the same replay.  Kept as an oracle."""
    src_report = flowsearch._require_search_ready(src, "start", max_vertices)
    dst_report = flowsearch._require_search_ready(dst, "goal", max_vertices)
    want = franks_triple(src, report=src_report)
    if not equiv_det_pair(want, franks_triple(dst, report=dst_report)):
        raise NotFoundWithinBounds("invariant-mismatch", SearchStats())
    entry_cap = max(9, _max_entry(src), _max_entry(dst))
    search = _Search(max_vertices, entry_cap, DEFAULT_PARTITION_CAP)
    stats = search.stats
    key_src, key_dst = canonical_key(src), canonical_key(dst)
    if key_src == key_dst:
        return MoveSequence(start=src, steps=(), stats=stats)
    visited = ({key_src: (None, None, None, src.incidence().entries)},
               {key_dst: (None, None, None, dst.incidence().entries)})
    # The roots' keys are in the memo, as in find_sequence, so that the two
    # key the same rows but for the held neighbors they key.
    search.keyed[src.incidence().entries] = key_src
    search.keyed[dst.incidence().entries] = key_dst
    frontiers = [[key_src], [key_dst]]
    depth = 0

    while depth < max_depth and all(frontiers):
        side = int(len(frontiers[0]) > len(frontiers[1]))
        mine, other = visited[side], visited[1 - side]
        depth += 1
        sizes = {flowsearch._size(k) for k in other}
        last = depth == max_depth
        shapes = {flowsearch._shape(k) for k in other} if last else None
        # (key, None) of each new key and (None, link) of each held neighbor.
        level = []
        for key in frontiers[side]:
            stats.expanded += 1
            for kind, rows, recipe in search.neighbors(mine[key][3]):
                if flowsearch._size(rows) not in sizes:
                    if not last:
                        level.append((None, (key, kind, recipe, rows)))
                    continue
                if last and flowsearch._shape(rows) not in shapes:
                    continue
                hkey = search.key(rows)
                if hkey in mine:
                    continue
                mine[hkey] = key, kind, recipe, rows
                if hkey in other:
                    return MoveSequence(src, search.replay(src, visited, hkey, want), stats)
                level.append((hkey, None))
        frontiers[side] = []
        for hkey, link in level:
            if hkey is None:
                hkey = search.key(link[3])
                if hkey in mine:
                    continue
                mine[hkey] = link
            frontiers[side].append(hkey)
    raise NotFoundWithinBounds("bounds-exhausted", stats)


def _answer(find, start, goal, **bounds):
    """What a search answers, as plain data: the script lines, each step's
    kind, labels, edges and rows, and the stats; or the reason and stats."""
    try:
        seq = find(start, goal, **bounds)
    except NotFoundWithinBounds as exc:
        return exc.reason, exc.stats.to_dict()
    steps = [
        (s.kind, s.graph.labels, s.graph.edges, s.graph.incidence().entries) for s in seq.steps
    ]
    return _script(seq), steps, seq.stats.to_dict()


_SCRAMBLE_BOUNDS = dict(max_depth=6, max_vertices=6)

# Searches whose side choice or stop needs held neighbors keyed: at these
# bounds a frontier empties and the search exhausts within a few levels.
_EMPTIED = (
    ([[2]], [[3, 3], [1, 2]], dict(max_depth=20, max_vertices=2)),
    ([[2]], [[3, 3], [1, 2]], dict(max_depth=14, max_vertices=3)),
    ([[3]], [[3, 3], [2, 3]], dict(max_depth=30, max_vertices=2)),
)


def _seeded_scrambles(count, seed):
    """``count`` three-move scrambles of starts of 1..3 vertices, entries
    0..2, as (start, goal) pairs."""
    rng = random.Random(seed)
    for _ in range(count):
        start = _rand_pis_graph(rng)
        yield start, _scramble(rng, start, 3)


def _exhausted_pairs():
    """The golden exhausted pairs and :data:`_EMPTIED`, as (start, goal,
    bounds)."""
    for case in _search_golden()["exhausted"]:
        start, goal = (MultiGraph.from_matrix(case[k]) for k in ("start", "goal"))
        yield start, goal, case["bounds"]
    for start, goal, bounds in _EMPTIED:
        yield MultiGraph.from_matrix(start), MultiGraph.from_matrix(goal), bounds


def test_level_loop_matches_the_reference():
    # Keying a held neighbor only when it is needed changes no answer: the
    # scripts, every step's graph, labels and edge ids, and every counter
    # agree, on searches that meet and on ones that exhaust, some because a
    # frontier empties.
    for start, goal in _seeded_scrambles(160, 2903):
        want = _answer(_find_sequence_reference, start, goal, **_SCRAMBLE_BOUNDS)
        assert want[0] != "bounds-exhausted"
        assert _answer(find_sequence, start, goal, **_SCRAMBLE_BOUNDS) == want
    for start, goal, bounds in _exhausted_pairs():
        want = _answer(_find_sequence_reference, start, goal, **bounds)
        assert want[0] == "bounds-exhausted"
        assert _answer(find_sequence, start, goal, **bounds) == want
    # A 12-move path through levels that hold thousands of neighbors.
    start, goal = MultiGraph.from_matrix([[0, 3], [3, 0]]), MultiGraph.from_matrix([[2, 3], [3, 2]])
    want = _answer(_find_sequence_reference, start, goal, max_depth=12, max_vertices=4)
    assert len(want[1]) == 12
    assert _answer(find_sequence, start, goal, max_depth=12, max_vertices=4) == want


def test_search_keys_no_more_rows_than_the_reference(monkeypatch):
    # A held neighbor is keyed only when a meet, its side's expansion or the
    # frontier comparison needs it, and the reference keys every one whose
    # level ends; so no search keys more rows than the reference, and those
    # that meet before their held neighbors are needed key fewer.
    keyed = 0
    key = _Search.key

    def counted(search, rows):
        nonlocal keyed
        keyed += rows not in search.keyed
        return key(search, rows)

    monkeypatch.setattr(_Search, "key", counted)

    def keyings(find, start, goal, bounds):
        nonlocal keyed
        keyed = 0
        _answer(find, start, goal, **bounds)
        return keyed

    pairs = [(start, goal, _SCRAMBLE_BOUNDS) for start, goal in _seeded_scrambles(160, 2903)]
    totals = [0, 0]
    for start, goal, bounds in pairs + list(_exhausted_pairs()):
        want = keyings(_find_sequence_reference, start, goal, bounds)
        got = keyings(find_sequence, start, goal, bounds)
        assert got <= want, (start.incidence().entries, goal.incidence().entries, bounds)
        totals[0] += want
        totals[1] += got
    assert totals[1] < totals[0]


def test_only_amalgamations_can_break_the_entry_cap(hypothesis_api):
    # The rows of expansions and contractions are m's entries and a 1, and
    # a splitting's are parts of m's; only an amalgamation adds entries.
    # So with the cap at max(m), only amalgamations are cut and counted.
    hyp, st = hypothesis_api

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(
        st.integers(1, 4)
        .flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
        .filter(_essential),
        st.integers(0, 2),
        st.sampled_from([1, 3, _NO_CUT]),
    )
    def check(rows, extra, cap):
        m = tuple(map(tuple, rows))
        top = max(map(max, m))
        search = _Search(max_vertices=len(m) + extra, entry_cap=top, partition_cap=cap)
        for kind, got, _ in search.neighbors(m):
            assert max(map(max, got)) <= top, (kind, m, got)
        over = sum(
            max(map(max, quotient_rows(oriented, blocks))) > top
            for oriented in (m, tuple(zip(*m)))
            for blocks in _amalgam_blocks(oriented)
        )
        assert search.stats.entry_capped == over
        assert cap != _NO_CUT or not search.stats.partition_capped
        counts.append(over)

    counts = []
    check()
    assert any(counts)
