"""Exact integer linear algebra: determinants, Smith normal form, cokernels.

Everything here runs on Python's arbitrary-precision integers; no floating
point is involved anywhere.  The functions are deterministic: the same input
always yields the same decomposition, so downstream invariant reports are
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import gcd, prod


class Ternary(Enum):
    """Verdict of a decision procedure.

    UNKNOWN marks a question the invariants leave open (the determinant-sign
    gap, or inputs outside the purely infinite simple class), never a
    resource bound.
    """

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __bool__(self):
        # Forcing explicit comparison; truthiness of an enum member would
        # silently treat NO/UNKNOWN as True.
        raise TypeError("Ternary verdicts must be compared explicitly")


def exact_int(x) -> int:
    """``int(x)`` when that equals ``x``, as for ``2``, ``2.0`` or ``True``.

    A value that ``int()`` would change or cannot convert (``1.5``,
    ``nan``, ``inf``, ``None``, the string ``'2'``) is a ValueError that
    names it, so no number is truncated on its way in.
    """
    try:
        k = int(x)
        if k == x:
            return k
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{x!r} is not an integer")


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        data = tuple(tuple(map(exact_int, row)) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0:
            raise ValueError("matrix needs at least one column")
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        return IntMatrix(len(data), width, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix.from_rows([[0] * cols for _ in range(rows)])

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix.from_rows(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix.from_rows(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        cols = other.transpose().entries
        return IntMatrix.from_rows(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        )

    def mul_vector(self, vec) -> tuple[int, ...]:
        v = tuple(map(exact_int, vec))
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return IntMatrix.from_rows(
            [list(ra) + list(rb) for ra, rb in zip(self.entries, other.entries)]
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


def det(a: IntMatrix) -> int:
    """Determinant by the Bareiss fraction-free elimination, exact.

    The quickest way to det alone; ``cokernel`` also returns det, from its
    Smith elimination, as ``project.det``.

    Examples
    --------
    >>> det(IntMatrix.from_rows([[-3]]))
    -3
    >>> det(IntMatrix.from_rows([[0, -3], [-1, -1]]))
    -3
    """
    if not a.is_square:
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = S with U, V unimodular and S in Smith normal form."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s[i, i] for i in range(n))


# A row operation of the elimination, applied to a list of rows or entries:
# (i, j, None) swaps i and j; (i, j, q) subtracts q times j from i.
RowOp = tuple[int, int, "int | None"]


def _replay(log, y: list) -> None:
    """Apply the logged row operations to the entries of ``y`` in place."""
    for i, j, q in log:
        if q is None:
            y[i], y[j] = y[j], y[i]
        else:
            y[i] -= q * y[j]


def _replay_rows(log, n: int) -> list[list[int]]:
    """The product U of the logged row operations, applied to the identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, q in log:
        if q is None:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]
    return u


def _eliminate(a: IntMatrix, want_v: bool):
    """Reduce ``a`` to Smith normal form S.

    Returns ``(diagonal, log, v, det)``: the diagonal of S, the row operations
    in the order they were made (U is their product), the column transform V
    when ``want_v`` is set, else None, and det(a) when ``a`` is square, else
    None.  Row operations are only logged, so no U is built here.

    Pivoting always selects the nonzero entry of least absolute value in the
    remaining submatrix (ties broken by smallest row, then smallest column
    index), making the decomposition deterministic.  Finished rows and columns
    are zero off the diagonal, so the operations at pivot k touch only rows and
    columns from k on.

    *Active block.*  The loop holds only those rows from k on, cut to the
    columns from k on: entry (r, c) of the block is entry (k + r, k + c) of
    the matrix.  A finished pivot's row is dropped and every other row loses
    its first entry, so each step reads and writes whole rows.  The log
    holds global indices, (k + r, k, q) and so on, and V keeps its full width.

    *Determinant.*  Each step is a row or column swap, which negates the
    determinant, or adds a multiple of one row (column) to another, which
    keeps it.  A step at pivot k skips only entries before k, and those are
    zero in both rows (columns) it involves, so it is the whole elementary
    operation.  Hence det(a) = (-1)^swaps * det(D), D the matrix when the loop
    ends, before its diagonal is made non-negative.  D is diagonal: finished
    pivot rows and columns are zero off the diagonal, and a loop that stops
    early does so because the rest of the matrix is zero.  So det(a) is the
    swap sign times the signed diagonal product, and 0 after an early stop.
    """
    block = [list(row) for row in a.entries]
    v = [[int(i == j) for j in range(a.cols)] for i in range(a.cols)] if want_v else None
    log: list[RowOp] = []
    pivots: list[int] = []
    swaps = 0
    k = 0
    limit = min(a.rows, a.cols)
    while k < limit:
        # The first entry of least magnitude in the first row that holds the
        # block's least magnitude; nothing is strictly smaller than a 1.
        best = None
        best_abs = 0
        for r, row in enumerate(block):
            m = min(map(abs, filter(None, row)), default=0)
            if m and (best is None or m < best_abs):
                best, best_abs = (r, list(map(abs, row)).index(m)), m
                if m == 1:
                    break
        if best is None:
            break
        r, c = best
        if r:
            block[0], block[r] = block[r], block[0]
            log.append((k, k + r, None))
            swaps += 1
        if c:
            for row in block:
                row[0], row[c] = row[c], row[0]
            if v is not None:
                for row in v:
                    row[k], row[k + c] = row[k + c], row[k]
            swaps += 1
        top = block[0]
        pivot = top[0]
        dirty = False
        for r in range(1, len(block)):
            row = block[r]
            if row[0]:
                q = row[0] // pivot
                if q:
                    # row k + r -= q * row k
                    block[r] = row = [x - q * y for x, y in zip(row, top)]
                    log.append((k + r, k, q))
                if row[0]:
                    dirty = True
        # The first column stays fixed while the other columns are reduced
        # against it, so only the rows with a nonzero entry there change.
        active = [row for row in block if row[0]]
        for j in range(1, len(top)):
            if top[j]:
                q = top[j] // pivot
                if q:
                    # col k + j -= q * col k
                    for row in active:
                        row[j] -= q * row[0]
                    if v is not None:
                        for row in v:
                            row[k + j] -= q * row[k]
                if top[j]:
                    dirty = True
        if dirty:
            continue
        if pivot != 1 and pivot != -1:
            # Every entry must be divisible by the pivot; a unit divides all.
            # The first column is zero below the pivot, so whole rows are read.
            offender = next(
                (r for r in range(1, len(block)) if any(x % pivot for x in block[r])),
                None,
            )
            if offender is not None:
                # Pull the non-divisible row up next to the pivot and reduce again.
                block[0] = [x + y for x, y in zip(top, block[offender])]
                log.append((k, k + offender, -1))
                continue
        pivots.append(pivot)
        del block[0]
        for row in block:
            del row[0]
        k += 1

    determinant = None
    if a.rows == a.cols:
        determinant = (-1) ** swaps * prod(pivots) if k == limit else 0
    diagonal = []
    for i, d in enumerate(pivots):
        if d < 0:
            d = -d
            if v is not None:
                for row in v:
                    row[i] = -row[i]
        diagonal.append(d)
    diagonal += [0] * (limit - k)
    return tuple(diagonal), log, v, determinant


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers.

    The diagonal of S is non-negative, each entry divides the next, and zero
    entries come last.  Pivoting always selects the nonzero entry of least
    absolute value in the remaining submatrix (ties broken by smallest row,
    then smallest column index), making the decomposition deterministic.
    The elimination logs its row operations and U is their product, built
    here by replaying them on the identity; callers that need only the
    diagonal or the cokernel use ``smith_diagonal`` or ``cokernel``, which
    build neither U nor V.
    """
    diagonal, log, v, _ = _eliminate(a, want_v=True)
    s = [[0] * a.cols for _ in range(a.rows)]
    for i, d in enumerate(diagonal):
        s[i][i] = d
    return SmithDecomposition(
        IntMatrix.from_rows(_replay_rows(log, a.rows)),
        IntMatrix.from_rows(s),
        IntMatrix.from_rows(v),
    )


def smith_diagonal(a: IntMatrix) -> tuple[int, ...]:
    """The diagonal of the Smith normal form of ``a``, without U or V.

    >>> smith_diagonal(IntMatrix.from_rows([[0, -3], [-1, -1]]))
    (1, 3)
    """
    return _eliminate(a, want_v=False)[0]


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``torsion`` lists the invariant factors that are at least 2, each
    dividing the next; ``free_rank`` counts the Z summands.
    """

    torsion: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    def __str__(self) -> str:
        return self.text()

    def text(self, number=str) -> str:
        """The group as ``Z/d1 + ... + Z^f``, each d written by ``number``."""
        parts = [f"Z/{number(d)}" for d in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


# Logged operations a projection replays between two reductions mod e.
_REDUCE_EVERY = 1024


@dataclass(frozen=True)
class CokernelProjection:
    """Maps an integer vector to its class in coker(A) coordinates.

    Coordinates follow the group's invariant factors: one residue per torsion
    factor, then one integer per free summand.  The projection keeps the row
    operations of the Smith elimination of A and replays them on each vector
    it is given, so U is never formed unless ``u`` is read.  ``det`` is
    det(A) for a square A, read off the same elimination, and None otherwise.
    """

    log: tuple[RowOp, ...]
    diagonal: tuple[int, ...]
    det: int | None = None

    @cached_property
    def u(self) -> IntMatrix:
        """The row transform U of the Smith form, built on first read."""
        return IntMatrix.from_rows(_replay_rows(self.log, len(self.diagonal)))

    def __call__(self, vec) -> tuple[int, ...]:
        """The coordinates of ``vec``: the log replayed on it, then entry i
        taken mod d_i for each torsion factor d_i.

        The log is replayed in blocks of ``_REDUCE_EVERY`` operations.
        When no d_i is 0, each divides the last one, e, and reduction mod e
        is a ring map, so it commutes with every logged operation and leaves
        each y_i mod d_i as it is; the vector is then reduced mod e after
        each block, so its entries stay below e instead of growing like
        those of U.  Zeros sort last, so e is 0 exactly when there is a free
        summand, which reads its entry whole: that log is replayed exactly.
        """
        y = list(map(exact_int, vec))
        if len(y) != len(self.diagonal):
            raise ValueError("vector length mismatch")
        log, e = self.log, self.diagonal[-1] if self.diagonal else 0
        for start in range(0, len(log), _REDUCE_EVERY):
            _replay(log[start : start + _REDUCE_EVERY], y)
            if e:
                y = [x % e for x in y]
        torsion = [y[i] % d for i, d in enumerate(self.diagonal) if d >= 2]
        free = [y[i] for i, d in enumerate(self.diagonal) if d == 0]
        return tuple(torsion + free)


def _quotient(a: IntMatrix) -> tuple[AbelianGroup, CokernelProjection]:
    """Z^rows modulo the column lattice of ``a``, for any shape of ``a``."""
    diagonal, log, _, determinant = _eliminate(a, want_v=False)
    # Rows past the last column have no pivot: each adds a free summand.
    diagonal += (0,) * (a.rows - len(diagonal))
    group = AbelianGroup(
        torsion=tuple(d for d in diagonal if d >= 2),
        free_rank=sum(1 for d in diagonal if d == 0),
    )
    return group, CokernelProjection(tuple(log), diagonal, determinant)


def cokernel(a: IntMatrix) -> tuple[AbelianGroup, CokernelProjection]:
    """Cokernel Z^n / A Z^n of a square integer matrix.

    One Smith elimination, which builds neither U nor V: the projection
    replays its row operations, and carries det(A) from the same pass as
    ``project.det``, so a caller that needs both makes no second elimination.

    Examples
    --------
    >>> group, project = cokernel(IntMatrix.from_rows([[-3]]))
    >>> str(group), project([1]), project.det
    ('Z/3', (1,), -3)
    """
    if not a.is_square:
        raise ValueError("cokernel requires a square matrix")
    return _quotient(a)


def group_iso(a: AbelianGroup, b: AbelianGroup) -> bool:
    """Whether two groups in invariant-factor form are isomorphic."""
    return a == b


@dataclass(frozen=True)
class PointedGroup:
    """A finitely generated abelian group with a marked element."""

    group: AbelianGroup
    point: tuple[int, ...]

    def __post_init__(self):
        expected = len(self.group.torsion) + self.group.free_rank
        if len(self.point) != expected:
            raise ValueError(
                f"point has {len(self.point)} coordinates, group needs {expected}"
            )
        reduced = tuple(
            c % d for c, d in zip(self.point, self.group.torsion)
        ) + tuple(self.point[len(self.group.torsion):])
        object.__setattr__(self, "point", reduced)

    def torsion_part(self) -> tuple[int, ...]:
        return self.point[: len(self.group.torsion)]

    def free_part(self) -> tuple[int, ...]:
        return self.point[len(self.group.torsion):]


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers >= 2 over which every given positive integer
    is a product of powers.

    Gcd factor refinement (Bach, Driscoll and Shallit 1993): a number that
    shares a factor g with a base element b is replaced, with b, by g, b/g
    and its own cofactor.  The product of all the numbers held drops by g at
    each step, so the loop ends; no number is factored into primes.
    """
    base: list[int] = []
    todo = [n for n in set(numbers) if n > 1]
    while todo:
        n = todo.pop()
        for i, b in enumerate(base):
            g = gcd(n, b)
            if g > 1:
                del base[i]
                todo.extend(m for m in (g, b // g, n // g) if m > 1)
                break
        else:
            base.append(n)
    return base


def _valuation(b: int, n: int) -> int:
    """The largest v with b**v dividing n, for b >= 2 and n != 0."""
    v = 0
    while n % b == 0:
        n //= b
        v += 1
    return v


def _heights(b: int, es: list[int], k: int, zs: list[int]) -> list[int]:
    """min(g_z(t), k) for t = 0 .. max(es), in b-adic valuations: ``es`` are
    the exponents E_i and ``zs`` the coordinates gcd(z_i, d_i)."""
    vs = [_valuation(b, z) for z in zs]
    return [
        min([k] + [v for v, e in zip(vs, es) if e - v > t])
        for t in range(max(es) + 1)
    ]


def pointed_equivalent(p: PointedGroup, q: PointedGroup) -> Ternary:
    """Whether some automorphism of the underlying group maps point to point.

    Exact for every finitely generated abelian group, and never UNKNOWN.
    Write the group as Z^f + T with T = Z/d_1 + ... + Z/d_r, the point of
    ``p`` as (u, x) and that of ``q`` as (u', y), x and y in T.

    *Mixed case.*  T is characteristic, so every automorphism is
    block-triangular, (u, x) -> (A u, h(u) + s(x)) with A in GL_f(Z),
    h in Hom(Z^f, T) and s in Aut(T).  A u runs over the vectors of the same
    content as u, and h(u) over cT, c = content(u), because u/c extends to a
    basis.  So (u, x) ~ (u', y) exactly when content(u) = content(u') = c and
    y lies in Aut(T) x + cT (c = 0 when f = 0).  Both sides split over the
    primes p of |T|: Aut(T) is the product of the Aut(T_p), and
    cT_p = p^k T_p with k = v_p(c).

    *One finite p-group.*  Let e be the exponent of T_p, cap k at e (when
    c = 0, p^e T_p = 0 = cT_p) and take N >= 2e + k + 1.  Then s(x) = y mod
    p^k T_p for some s in Aut(T_p) exactly when (x, p^k) and (y, p^k) are
    automorphic in T_p + Z/p^N.  If y = s(x) + p^k b, the map
    [[s, b], [0, 1]] is an automorphism carrying one to the other.
    Conversely the T_p -> T_p block of any automorphism is itself one,
    because a map T_p -> Z/p^N -> T_p lands in p^(N-e) Z/p^N first and is
    zero when N >= 2e; and the other block moves x only by p^k T_p.

    *Kaplansky-Mackey.*  Elements of a finite abelian p-group are
    automorphic exactly when their height sequences agree (Kaplansky,
    Infinite Abelian Groups, 1954/69).  With E_i = v_p(d_i),
    X_i = min(v_p(x_i), E_i) (E_i when x_i = 0) and
    g_x(t) = min{X_i : E_i - X_i > t} (infinite when no i qualifies), the
    height of p^t x in T_p is t + g_x(t), so that of p^t (x, p^k) is
    t + min(g_x(t), k).  The rule: min(g_x(t), k) = min(g_y(t), k) for
    every t from 0 to e; past e both sides read k.

    *No primes.*  The rule runs on b-adic valuations for each b in a coprime
    base, built by gcd refinement, of the d_i, gcd(x_i, d_i), gcd(y_i, d_i)
    and gcd(c, d_r): these carry the capped X_i and min(k, e).  Each prime p
    of |T| divides exactly one such b, and v_p = v_p(b) v_b on every number
    the base covers; that scales E, X, k and g by v_p(b) and turns t into
    floor(t / v_p(b)), which keeps the equality unchanged.

    >>> g = AbelianGroup(torsion=(2, 4), free_rank=1)
    >>> pointed_equivalent(PointedGroup(g, (0, 1, 2)), PointedGroup(g, (1, 1, 2)))
    <Ternary.YES: 'yes'>
    >>> pointed_equivalent(PointedGroup(g, (0, 2, 2)), PointedGroup(g, (0, 1, 2)))
    <Ternary.NO: 'no'>
    """
    c = gcd(*p.free_part())
    if not group_iso(p.group, q.group) or c != gcd(*q.free_part()):
        return Ternary.NO
    torsion = p.group.torsion
    xs = [gcd(x, d) for x, d in zip(p.torsion_part(), torsion)]
    ys = [gcd(y, d) for y, d in zip(q.torsion_part(), torsion)]
    ck = gcd(c, torsion[-1]) if torsion else 1

    for b in _coprime_base([*torsion, *xs, *ys, ck]):
        es = [_valuation(b, d) for d in torsion]
        k = _valuation(b, ck)
        if _heights(b, es, k, xs) != _heights(b, es, k, ys):
            return Ternary.NO
    return Ternary.YES


def lattice_contains(a: IntMatrix, vec) -> bool:
    """Whether ``vec`` lies in the lattice spanned by the columns of ``a``.

    >>> lattice_contains(IntMatrix.from_rows([[2, 0], [0, 3]]), (4, 3))
    True
    """
    _, project = _quotient(a)
    return not any(project(vec))
