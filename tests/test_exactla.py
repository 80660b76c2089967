"""Exact integer linear algebra: determinants, Smith form, cokernels."""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod

import pytest

from flowinv import exactla
from flowinv.exactla import (
    AbelianGroup,
    _eliminate,
    _quotient,
    _replay,
    IntMatrix,
    PointedGroup,
    Ternary,
    cokernel,
    det,
    group_iso,
    lattice_contains,
    pointed_equivalent,
    smith_diagonal,
    smith_normal_form,
)


def _rand_matrix(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def _det_fractions(m: IntMatrix) -> int:
    """Independent determinant oracle: Gaussian elimination over Fractions."""
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.to_lists()]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    assert result.denominator == 1
    return int(result)


def _factors_by_minors(m: IntMatrix) -> list[int]:
    """Invariant-factor oracle: quotients of gcds of k-by-k minors."""
    n = min(m.rows, m.cols)
    data = m.to_lists()
    out: list[int] = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = IntMatrix.from_rows([[data[r][c] for c in cols] for r in rows])
                g = gcd(g, abs(_det_fractions(sub)))
        if g == 0:
            out.extend([0] * (n - len(out)))
            break
        out.append(g // prev)
        prev = g
    return out


def _minor_gcd(m: IntMatrix, k: int) -> int:
    """The gcd of all k-by-k minors of m."""
    data = m.to_lists()
    g = 0
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            sub = IntMatrix.from_rows([[data[r][c] for c in cols] for r in rows])
            g = gcd(g, abs(_det_fractions(sub)))
    return g


def _rational_solve(m: IntMatrix, v):
    """Gauss-Jordan elimination over Fractions on [m | v].

    Returns the rank of m, whether m x = v has a rational solution, and that
    solution when m has full column rank (it is then unique).
    """
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(m.to_lists(), v)]
    r = 0
    for c in range(m.cols):
        p = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    solvable = all(row[-1] == 0 for row in rows[r:])
    solution = [rows[i][-1] for i in range(r)] if r == m.cols and solvable else None
    return r, solvable, solution


def _in_column_lattice(m: IntMatrix, v) -> bool:
    """Lattice-membership oracle.

    With independent columns the rational solution of m x = v is unique and
    must be integral.  Otherwise v must keep the rank r of m and the gcd of
    the r-by-r minors: the index of L(m) in L([m | v]) is their ratio.
    """
    rank, solvable, solution = _rational_solve(m, v)
    if not solvable:
        return False
    if solution is not None:
        return all(x.denominator == 1 for x in solution)
    if rank == 0:
        return not any(v)
    with_v = m.hstack(IntMatrix.from_rows([[x] for x in v]))
    return _minor_gcd(m, rank) == _minor_gcd(with_v, rank)


def _matrices(st):
    """Hypothesis strategy: integer matrices of any shape up to 8 by 8."""
    side = st.integers(1, 8)
    return st.tuples(side, side).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(-5, 5), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(IntMatrix.from_rows)
    )


# ---------------------------------------------------------------------------
# Ternary and matrices.


def test_ternary_values_and_no_truthiness():
    assert Ternary.YES.value == "yes"
    assert Ternary.NO.value == "no"
    assert Ternary.UNKNOWN.value == "unknown"
    with pytest.raises(TypeError):
        bool(Ternary.YES)


def test_matrix_construction_and_arithmetic():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.identity(2)
    assert (a + b).to_lists() == [[2, 2], [3, 5]]
    assert (a - b).to_lists() == [[0, 2], [3, 3]]
    assert (a @ b).to_lists() == a.to_lists()
    assert a.transpose().to_lists() == [[1, 3], [2, 4]]
    assert a.mul_vector([1, 1]) == (3, 7)
    assert a.hstack(b).to_lists() == [[1, 2, 1, 0], [3, 4, 0, 1]]


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


# ---------------------------------------------------------------------------
# Determinant.


def test_det_worked_examples():
    assert det(IntMatrix.from_rows([[-3]])) == -3
    assert det(IntMatrix.identity(3)) == 1
    assert det(IntMatrix.from_rows([[0, -3], [-1, -1]])) == -3


def test_det_requires_square():
    with pytest.raises(ValueError):
        det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_fraction_elimination():
    rng = random.Random(7)
    for _ in range(200):
        m = _rand_matrix(rng, rng.randint(1, 5))
        assert det(m) == _det_fractions(m)


def test_det_of_transpose():
    rng = random.Random(8)
    for _ in range(100):
        m = _rand_matrix(rng, rng.randint(1, 5))
        assert det(m) == det(m.transpose())


# ---------------------------------------------------------------------------
# Smith normal form.


def test_snf_trivial_cases():
    assert smith_normal_form(IntMatrix.identity(4)).diagonal() == (1, 1, 1, 1)
    assert smith_normal_form(IntMatrix.zeros(2, 2)).diagonal() == (0, 0)


def test_snf_two_by_two_example():
    assert smith_normal_form(IntMatrix.from_rows([[0, -3], [-1, -1]])).diagonal() == (1, 3)


def test_snf_contract_on_random_matrices():
    rng = random.Random(9)
    for _ in range(200):
        m = _rand_matrix(rng, rng.randint(1, 6))
        dec = smith_normal_form(m)
        assert dec.u @ m @ dec.v == dec.s
        assert abs(det(dec.u)) == 1
        assert abs(det(dec.v)) == 1
        diag = dec.diagonal()
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert nonzero == list(diag[: len(nonzero)]), "zeros come last"
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        product = 1
        for d in diag:
            product *= d
        assert abs(det(m)) == product


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(10)
    for _ in range(60):
        m = _rand_matrix(rng, rng.randint(1, 4), -6, 6)
        assert list(smith_normal_form(m).diagonal()) == _factors_by_minors(m)


def test_snf_contract_property(hypothesis_api):
    hyp, st = hypothesis_api

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(_matrices(st))
    def check(m):
        dec = smith_normal_form(m)
        assert dec.u @ m @ dec.v == dec.s
        assert abs(_det_fractions(dec.u)) == 1
        assert abs(_det_fractions(dec.v)) == 1
        diag = dec.diagonal()
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert nonzero == list(diag[: len(nonzero)]), "zeros come last"
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        assert smith_diagonal(m) == diag

    check()


def test_snf_is_deterministic():
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first.u == second.u and first.s == second.s and first.v == second.v


# ---------------------------------------------------------------------------
# The Smith pass against a reference kernel, and the det it returns.


def _eliminate_reference(a: IntMatrix, want_v: bool):
    """The Smith elimination before it returned det: a plain loop pivot
    search, a column pass over every row and an offender scan at every pivot.
    Returns ``(diagonal, log, v)``."""
    nr, nc = a.rows, a.cols
    s = [list(row) for row in a.entries]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)] if want_v else None
    log = []

    def row_sub(i, j, q, k):
        si, sj = s[i], s[j]
        si[k:] = [x - q * y for x, y in zip(si[k:], sj[k:])]
        log.append((i, j, q))

    def col_sub(i, j, q, k):
        for row in s[k:]:
            x = row[j]
            if x:
                row[i] -= q * x
        if v is not None:
            for row in v:
                row[i] -= q * row[j]

    def find_pivot(k):
        best = None
        best_abs = 0
        for i in range(k, nr):
            row = s[i]
            for j in range(k, nc):
                e = row[j]
                if e:
                    m = e if e > 0 else -e
                    if best is None or m < best_abs:
                        best, best_abs = (i, j), m
                        if m == 1:
                            return best
        return best

    k = 0
    limit = min(nr, nc)
    while k < limit:
        piv = find_pivot(k)
        if piv is None:
            break
        if piv[0] != k:
            s[k], s[piv[0]] = s[piv[0]], s[k]
            log.append((k, piv[0], None))
        if piv[1] != k:
            p = piv[1]
            for row in s[k:]:
                row[k], row[p] = row[p], row[k]
            if v is not None:
                for row in v:
                    row[k], row[p] = row[p], row[k]
        pivot = s[k][k]
        dirty = False
        for i in range(k, nr):
            if i != k and s[i][k]:
                q = s[i][k] // pivot
                if q:
                    row_sub(i, k, q, k)
                if s[i][k]:
                    dirty = True
        for j in range(k, nc):
            if j != k and s[k][j]:
                q = s[k][j] // pivot
                if q:
                    col_sub(j, k, q, k)
                if s[k][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(k + 1, nr):
            row = s[i]
            for j in range(k + 1, nc):
                if row[j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(k, offender, -1, k)
            continue
        k += 1

    diagonal = []
    for i in range(limit):
        d = s[i][i]
        if d < 0:
            d = -d
            if v is not None:
                for row in v:
                    row[i] = -row[i]
        diagonal.append(d)
    return tuple(diagonal), log, v


def _assert_same_pass(m: IntMatrix) -> int | None:
    """The pass makes the reference's pivots and operations; returns its det."""
    for want_v in (False, True):
        *ops, determinant = _eliminate(m, want_v)
        assert tuple(ops) == _eliminate_reference(m, want_v)
    return determinant


def _singular(rng: random.Random, n: int) -> IntMatrix:
    """A random n x n matrix, n >= 2, whose last row combines the others."""
    rows = _rand_matrix(rng, n).to_lists()
    coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
    rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    return IntMatrix.from_rows(rows)


def test_smith_pass_matches_reference_on_square_matrices():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 9)
        lo, hi = rng.choice([(-9, 9), (-2, 2), (0, 3), (-1, 1)])
        m = _rand_matrix(rng, n, lo, hi)
        assert _assert_same_pass(m) == det(m)


def test_smith_pass_matches_reference_on_singular_matrices():
    rng = random.Random(32)
    for _ in range(150):
        m = _singular(rng, rng.randint(2, 8))
        assert _assert_same_pass(m) == 0
    assert _assert_same_pass(IntMatrix.zeros(3, 3)) == 0


def test_smith_pass_matches_reference_on_non_square_matrices():
    # [C | B] with B square, the shape moves.py reduces, and a few wide and
    # tall blocks; none of them has a determinant.
    rng = random.Random(33)
    for _ in range(150):
        n = rng.randint(1, 7)
        b = _rand_matrix(rng, n, -3, 3)
        c = _rand_matrix(rng, n, 0, 2)
        assert _assert_same_pass(c.hstack(b)) is None
        tall = IntMatrix.from_rows(b.to_lists() + [[rng.randint(-3, 3)] * n])
        assert _assert_same_pass(tall) is None
        assert _assert_same_pass(tall.transpose()) is None
    _, project = _quotient(IntMatrix.from_rows([[2, 0, 1], [0, 3, 1]]))
    assert project.det is None


def test_smith_pass_matches_reference_on_dense_bowen_franks_matrices():
    rng = random.Random(34)
    for n in (8, 16, 24, 32, 48, 64):
        a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        b = IntMatrix.from_rows([[(i == j) - a[j][i] for j in range(n)] for i in range(n)])
        *ops, determinant = _eliminate(b, want_v=True)
        assert tuple(ops) == _eliminate_reference(b, want_v=True)
        assert determinant == det(b)


def test_smith_pass_matches_reference_property(hypothesis_api):
    # The pass holds only its active block, so the draws reach each part of
    # that bookkeeping: tall and wide shapes, zero rows and columns, entries
    # from 0 and +-1 up to +-10^40, and matrices of low rank, whose block is
    # all zero after a few pivots and ends the loop early.
    hyp, st = hypothesis_api
    entries = st.one_of(
        st.sampled_from([0, 0, 1, -1]),
        st.integers(-10, 10),
        st.integers(-(10**40), 10**40),
    )

    @st.composite
    def matrices(draw):
        nr, nc = draw(st.integers(1, 10)), draw(st.integers(1, 10))
        width = st.lists(entries, min_size=nc, max_size=nc)
        rows = draw(st.lists(width, min_size=nr, max_size=nr))
        rank = draw(st.one_of(st.none(), st.integers(1, min(nr, nc))))
        if rank is not None:
            # Every row after the first ``rank`` combines those.
            coeff = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
            for i in range(rank, nr):
                c = draw(coeff)
                rows[i] = [sum(x * row[j] for x, row in zip(c, rows)) for j in range(nc)]
        for i in draw(st.sets(st.integers(0, nr - 1), max_size=2)):
            rows[i] = [0] * nc
        for j in draw(st.sets(st.integers(0, nc - 1), max_size=2)):
            for row in rows:
                row[j] = 0
        return IntMatrix.from_rows(rows)

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(matrices())
    def check(m):
        determinant = _assert_same_pass(m)
        assert determinant == (det(m) if m.is_square else None)

    check()


def test_smith_pass_det_matches_fraction_oracle():
    rng = random.Random(35)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = _rand_matrix(rng, n) if rng.random() < 0.7 else _singular(rng, max(n, 2))
        group, project = cokernel(m)
        assert project.det == _eliminate(m, want_v=False)[3] == _det_fractions(m)
        # |det| is the order of the group, 0 exactly when it has a free part.
        assert abs(project.det) == (prod(group.torsion) if not group.free_rank else 0)


# ---------------------------------------------------------------------------
# Cokernels.


def test_cokernel_worked_examples():
    group, project = cokernel(IntMatrix.from_rows([[-3]]))
    assert group == AbelianGroup(torsion=(3,))
    assert project([1]) == (1,)

    group, project = cokernel(IntMatrix.from_rows([[0, -1], [-1, 0]]))
    assert group.is_trivial
    assert project([5, -7]) == ()

    group, project = cokernel(IntMatrix.zeros(3, 3))
    assert group == AbelianGroup(free_rank=3)
    assert project([1, 2, 3]) == (1, 2, 3)


def test_cokernel_requires_square():
    with pytest.raises(ValueError):
        cokernel(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_cokernel_projection_kills_column_lattice():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = _rand_matrix(rng, n)
        _, project = cokernel(m)
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        vec = m.mul_vector(coeffs)
        assert all(c == 0 for c in project(vec))


def test_cokernel_projection_rejects_wrong_length():
    group, project = cokernel(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 0]]))
    assert group == AbelianGroup(torsion=(6,), free_rank=1)
    assert len(project([1, 1, 1])) == 2
    for vec in ([1, 1], [1, 1, 1, 1], []):
        with pytest.raises(ValueError):
            project(vec)
    with pytest.raises(ValueError):
        lattice_contains(IntMatrix.from_rows([[2, 0], [0, 3]]), (2, 3, 0))


def test_cokernel_projection_matches_snf_transform():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = _rand_matrix(rng, n, -4, 4)
        group, project = cokernel(m)
        dec = smith_normal_form(m)
        assert project.u == dec.u
        diag = dec.diagonal()
        assert group == AbelianGroup(
            torsion=tuple(d for d in diag if d >= 2), free_rank=diag.count(0)
        )
        vec = [rng.randint(-9, 9) for _ in range(n)]
        y = dec.u.mul_vector(vec)
        want = [y[i] % d for i, d in enumerate(diag) if d >= 2]
        want += [y[i] for i, d in enumerate(diag) if d == 0]
        assert project(vec) == tuple(want)


# ---------------------------------------------------------------------------
# The replay mod e: against the exact replay of the whole log.


def _project_exact(project, vec) -> tuple[int, ...]:
    """The coordinates of ``vec`` by the exact replay: every logged operation
    on the unreduced entries, then y_i mod d_i, free entries whole."""
    y = list(vec)
    _replay(project.log, y)
    torsion = [y[i] % d for i, d in enumerate(project.diagonal) if d >= 2]
    return tuple(torsion + [y[i] for i, d in enumerate(project.diagonal) if d == 0])


@pytest.mark.parametrize("block", [1, 3, 8])
def test_replay_mod_e_matches_exact_replay(monkeypatch, block):
    # A small block sends short logs down the reduced path; singular
    # matrices, whose diagonal ends in 0, keep the exact one.
    monkeypatch.setattr(exactla, "_REDUCE_EVERY", block)
    rng = random.Random(70 + block)
    reduced = singular = 0
    for _ in range(80):
        n = rng.randint(2, 7)
        m = _rand_matrix(rng, n, -6, 6) if rng.random() < 0.7 else _singular(rng, n)
        _, project = cokernel(m)
        if 0 in project.diagonal:
            singular += 1
        elif len(project.log) > block:
            reduced += 1
        for _ in range(3):
            vec = [rng.randint(-10**6, 10**6) for _ in range(n)]
            assert project(vec) == _project_exact(project, vec), m.to_lists()
    assert reduced >= 20 and singular >= 10, (reduced, singular)


def test_replay_mod_e_matches_exact_replay_on_long_logs():
    # Bowen-Franks-like matrices of n 32..40, whose logs pass the default
    # block, so the reduction runs as it does in a real projection.
    rng = random.Random(74)
    for n in (32, 36, 40):
        m = IntMatrix.from_rows(
            [[int(i == j) - rng.randint(0, 3) for j in range(n)] for i in range(n)]
        )
        _, project = cokernel(m)
        assert len(project.log) > exactla._REDUCE_EVERY and 0 not in project.diagonal
        for vec in ([1] * n, [rng.randint(-99, 99) for _ in range(n)]):
            assert project(vec) == _project_exact(project, vec)


def test_lattice_contains_mod_e_matches_exact_replay_on_any_shape(monkeypatch):
    # Wide matrices can end their diagonal without a 0 and take the reduced
    # replay; tall ones add a free summand per extra row and keep the exact.
    monkeypatch.setattr(exactla, "_REDUCE_EVERY", 2)
    rng = random.Random(75)
    shapes = set()
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        vec = m.mul_vector([rng.randint(-3, 3) for _ in range(cols)])
        if rng.random() < 0.5:
            vec = tuple(x + rng.randint(-2, 2) for x in vec)
        _, project = _quotient(m)
        want = not any(_project_exact(project, vec))
        assert lattice_contains(m, vec) is want is _in_column_lattice(m, vec), m.to_lists()
        shapes.add((rows > cols) - (rows < cols))
    assert shapes == {-1, 0, 1}


def test_projection_vanishes_exactly_on_column_lattice_property(hypothesis_api):
    hyp, st = hypothesis_api

    @st.composite
    def cases(draw):
        m = draw(_matrices(st))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=m.cols, max_size=m.cols))
        # Half the vectors are column combinations, the rest are moved off
        # the lattice's points by a small shift that may land on another.
        shift = draw(
            st.one_of(
                st.just([0] * m.rows),
                st.lists(st.integers(-2, 2), min_size=m.rows, max_size=m.rows),
            )
        )
        return m, tuple(a + b for a, b in zip(m.mul_vector(coeffs), shift)), not any(shift)

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(cases())
    def check(case):
        m, vec, combination = case
        want = _in_column_lattice(m, vec)
        assert want or not combination
        assert lattice_contains(m, vec) is want
        if m.is_square:
            _, project = cokernel(m)
            assert (not any(project(vec))) is want

    check()


def test_cokernel_of_transpose_is_isomorphic():
    rng = random.Random(12)
    for _ in range(100):
        m = _rand_matrix(rng, rng.randint(1, 5))
        a, _ = cokernel(m)
        b, _ = cokernel(m.transpose())
        assert group_iso(a, b)


def _random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.randint(-2, 2)
        for c in range(n):
            rows[i][c] += k * rows[j][c]
    return IntMatrix.from_rows(rows)


def test_cokernel_invariant_under_unimodular_change():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, n)
        u = _random_unimodular(rng, n)
        v = _random_unimodular(rng, n)
        conj = u @ m @ v
        a, _ = cokernel(m)
        b, _ = cokernel(conj)
        assert group_iso(a, b)
        assert abs(det(m)) == abs(det(conj))


# ---------------------------------------------------------------------------
# Groups and points.


def test_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(torsion=(1,))
    with pytest.raises(ValueError):
        AbelianGroup(torsion=(4, 2))
    with pytest.raises(ValueError):
        AbelianGroup(free_rank=-1)


def test_group_str():
    assert str(AbelianGroup()) == "0"
    assert str(AbelianGroup(torsion=(3,))) == "Z/3"
    assert str(AbelianGroup(free_rank=1)) == "Z"
    assert str(AbelianGroup(torsion=(2, 4), free_rank=2)) == "Z/2 + Z/4 + Z^2"


def test_group_iso_compares_normal_forms():
    assert group_iso(AbelianGroup(torsion=(3,)), AbelianGroup(torsion=(3,)))
    assert not group_iso(AbelianGroup(torsion=(2, 4)), AbelianGroup(torsion=(8,)))
    assert not group_iso(AbelianGroup(free_rank=1), AbelianGroup())


def test_pointed_group_reduces_coordinates():
    p = PointedGroup(AbelianGroup(torsion=(3,)), (4,))
    assert p.point == (1,)
    with pytest.raises(ValueError):
        PointedGroup(AbelianGroup(torsion=(3,)), (1, 2))


# ---------------------------------------------------------------------------
# Pointed equivalence.


def test_pointed_worked_examples():
    z2 = AbelianGroup(torsion=(2,))
    z3 = AbelianGroup(torsion=(3,))
    trivial = AbelianGroup()
    assert pointed_equivalent(PointedGroup(z2, (1,)), PointedGroup(z2, (0,))) is Ternary.NO
    assert pointed_equivalent(PointedGroup(z3, (1,)), PointedGroup(z3, (2,))) is Ternary.YES
    assert pointed_equivalent(PointedGroup(trivial, ()), PointedGroup(trivial, ())) is Ternary.YES


def test_pointed_distinct_groups_are_never_equivalent():
    p = PointedGroup(AbelianGroup(torsion=(2,)), (0,))
    q = PointedGroup(AbelianGroup(torsion=(4,)), (0,))
    assert pointed_equivalent(p, q) is Ternary.NO


def test_pointed_cyclic_gcd_law():
    # On Z/d the automorphisms are the units, so orbits are gcd classes.
    for d in range(2, 65):
        group = AbelianGroup(torsion=(d,))
        units = [u for u in range(1, d) if gcd(u, d) == 1]
        for a in range(d):
            orbit = {(u * a) % d for u in units}
            for b in range(d):
                want = Ternary.YES if b in orbit else Ternary.NO
                got = pointed_equivalent(PointedGroup(group, (a,)), PointedGroup(group, (b,)))
                assert got is want, (d, a, b)


def _orbit_bruteforce(torsion: tuple[int, ...], a, b) -> bool:
    """Exhaustive oracle: search all group automorphisms for one with a -> b."""
    k = len(torsion)
    elements = list(itertools.product(*(range(d) for d in torsion)))

    def apply(mat, x):
        return tuple(
            sum(mat[i][j] * x[j] for j in range(k)) % torsion[i] for i in range(k)
        )

    entry_ranges = [range(torsion[i]) for i in range(k) for _ in range(k)]
    for flat in itertools.product(*entry_ranges):
        mat = [list(flat[i * k : (i + 1) * k]) for i in range(k)]
        if any(
            (mat[i][j] * torsion[j]) % torsion[i]
            for i in range(k)
            for j in range(k)
        ):
            continue  # not a well-defined homomorphism
        if len({apply(mat, x) for x in elements}) != len(elements):
            continue  # not bijective
        if apply(mat, a) == b:
            return True
    return False


def test_pointed_torsion_matches_bruteforce_orbits():
    for torsion in [(2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 2)]:
        group = AbelianGroup(torsion=torsion)
        elements = list(itertools.product(*(range(d) for d in torsion)))
        for a in elements:
            for b in elements:
                want = Ternary.YES if _orbit_bruteforce(torsion, a, b) else Ternary.NO
                got = pointed_equivalent(PointedGroup(group, a), PointedGroup(group, b))
                assert got is want, (torsion, a, b)


def test_pointed_free_content_rule():
    z2 = AbelianGroup(free_rank=2)
    assert pointed_equivalent(PointedGroup(z2, (2, 4)), PointedGroup(z2, (4, 2))) is Ternary.YES
    assert pointed_equivalent(PointedGroup(z2, (2, 4)), PointedGroup(z2, (3, 0))) is Ternary.NO
    assert pointed_equivalent(PointedGroup(z2, (0, 0)), PointedGroup(z2, (0, 0))) is Ternary.YES
    assert pointed_equivalent(PointedGroup(z2, (0, 0)), PointedGroup(z2, (1, 0))) is Ternary.NO


def test_pointed_mixed_free_and_torsion():
    # In Z/2 + Z the map (t, u) -> (t + u, u) is an automorphism.
    mixed = AbelianGroup(torsion=(2,), free_rank=1)
    assert pointed_equivalent(PointedGroup(mixed, (0, 1)), PointedGroup(mixed, (1, 1))) is Ternary.YES
    # With free content 2 the torsion residue mod gcd(2, 2) is pinned.
    assert pointed_equivalent(PointedGroup(mixed, (0, 2)), PointedGroup(mixed, (1, 2))) is Ternary.NO


def _chains(max_order: int) -> list[tuple[int, ...]]:
    """Every nontrivial invariant-factor chain d_1 | d_2 | ... (each d_i >= 2)
    whose product is at most ``max_order``."""
    out = []

    def extend(chain, order):
        step = chain[-1] if chain else 1
        for d in range(max(2, step), max_order // order + 1, step):
            out.append(chain + (d,))
            extend(chain + (d,), order * d)

    extend((), 1)
    return out


def _automorphisms(torsion: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """Every automorphism of T = Z/d_1 + ... + Z/d_r, by exhaustive search.

    Generator j goes to an element whose order divides d_j, and the map must
    stay injective on the span of the generators placed so far; on all of T,
    injective means bijective.  An automorphism is given as the list of the
    images of the elements of T, in ``itertools.product`` order.
    """
    elements = list(itertools.product(*(range(d) for d in torsion)))
    # Partial maps: the images of the span of the generators placed so far.
    spans = [[tuple(0 for _ in torsion)]]
    for d in torsion:
        targets = [t for t in elements if not any(d * x % m for x, m in zip(t, torsion))]
        grown = []
        for span in spans:
            for t in targets:
                images = [
                    tuple((x + n * y) % m for x, y, m in zip(s, t, torsion))
                    for s in span
                    for n in range(d)
                ]
                if len(set(images)) == len(images):
                    grown.append(images)
        spans = grown
    return spans


def test_pointed_matches_automorphism_oracle():
    """Exhaustive over every chain of order <= 16 and free content c in 0..8:
    (x, u) ~ (y, u') in T + Z with content(u) = content(u') = c exactly when
    y lies in Aut(T) x + cT, by the block-triangular form of Aut(T + Z)."""
    # The oracle itself: |Aut(Z/n)| = phi(n), |Aut((Z/2)^3)| = |GL_3(F_2)|.
    assert len(_automorphisms((12,))) == 4
    assert len(_automorphisms((2, 2, 2))) == 168
    assert len(_automorphisms((2, 4))) == 8
    assert 9 * sum(prod(t) ** 2 for t in _chains(16)) == 25_992  # (x, y, c) triples
    for torsion in _chains(16):
        elements = list(itertools.product(*(range(d) for d in torsion)))
        auts = _automorphisms(torsion)
        orbits = [{aut[i] for aut in auts} for i in range(len(elements))]
        mixed = AbelianGroup(torsion=torsion, free_rank=1)
        pure = AbelianGroup(torsion=torsion)
        for c in range(9):
            ct = {tuple(c * x % m for x, m in zip(t, torsion)) for t in elements}
            for x, orbit in zip(elements, orbits):
                reach = {
                    tuple((a + b) % m for a, b, m in zip(s, h, torsion))
                    for s in orbit
                    for h in ct
                }
                for y in elements:
                    want = Ternary.YES if y in reach else Ternary.NO
                    got = pointed_equivalent(
                        PointedGroup(mixed, x + (c,)), PointedGroup(mixed, y + (c,))
                    )
                    assert got is want, (torsion, c, x, y)
                    if c == 0:
                        got = pointed_equivalent(PointedGroup(pure, x), PointedGroup(pure, y))
                        assert got is want, (torsion, x, y)


# Answers that follow by construction, on groups built from the Mersenne
# primes M61 = 2^61 - 1 and M89 = 2^89 - 1, far past trial division.
_LARGE_TORSION_CASES = """
from flowinv.exactla import AbelianGroup, PointedGroup, pointed_equivalent
M61, M89 = 2**61 - 1, 2**89 - 1
d = M61 * M89
pure = AbelianGroup(torsion=(d,))
mixed = AbelianGroup(torsion=(d,), free_rank=1)
cases = [
    # unit multiples: 2 is a unit mod the odd d
    ((pure, (1,)), (pure, (2,))),
    ((pure, (M61,)), (pure, (2 * M61,))),
    # different valuations at both primes
    ((pure, (M61,)), (pure, (M89,))),
    # content M61: (t, u) -> (t + u, u) and (t, u) -> (2t, u)
    ((mixed, (0, M61)), (mixed, (M61, M61))),
    ((mixed, (1, M61)), (mixed, (M61 + 1, M61))),
    ((mixed, (1, M61)), (mixed, (2, M61))),
    # x lies in cT, so its orbit is cT, which y is not in
    ((mixed, (M61, M61)), (mixed, (M89, M61))),
    ((mixed, (0, M89)), (mixed, (M61, M89))),
]
for (g, x), (h, y) in cases:
    print(pointed_equivalent(PointedGroup(g, x), PointedGroup(h, y)).value)
"""


def test_pointed_large_torsion_answers_without_factoring():
    # Run in a child process, so that a factoring regression times out
    # instead of hanging the suite.
    done = subprocess.run(
        [sys.executable, "-c", _LARGE_TORSION_CASES],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["yes", "yes", "no", "yes", "yes", "yes", "no", "no"]


def test_pointed_reflexive_and_symmetric():
    rng = random.Random(14)
    groups = [
        AbelianGroup(torsion=(2,)),
        AbelianGroup(torsion=(2, 4)),
        AbelianGroup(free_rank=2),
        AbelianGroup(torsion=(3,), free_rank=1),
    ]
    for group in groups:
        size = len(group.torsion) + group.free_rank
        for _ in range(20):
            a = tuple(rng.randint(-5, 5) for _ in range(size))
            b = tuple(rng.randint(-5, 5) for _ in range(size))
            p, q = PointedGroup(group, a), PointedGroup(group, b)
            assert pointed_equivalent(p, p) is Ternary.YES
            assert pointed_equivalent(p, q) is pointed_equivalent(q, p)


# ---------------------------------------------------------------------------
# Lattice membership.


def test_lattice_contains():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert lattice_contains(a, (2, 3))
    assert lattice_contains(a, (-4, 9))
    assert not lattice_contains(a, (1, 0))
    assert not lattice_contains(a, (0, 2))


def test_lattice_contains_every_column_combination():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = _rand_matrix(rng, n, -4, 4)
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        assert lattice_contains(m, m.mul_vector(coeffs))
