"""Reference arithmetic for checking flowinv's answers, written apart from it.

Nothing here imports flowinv.  Determinants come from elimination modulo
large primes joined by the Chinese remainder theorem, the order of the unit
class from a fraction-free Gauss-Jordan solve of B x = 1, ranks from
elimination modulo primes, and graph isomorphism from a backtracking search
over vertex bijections.  The same module predicts, from det alone, how long
trial-division factoring of the torsion will run (``torsion_factoring``).
"""

from __future__ import annotations

from math import gcd, isqrt, prod

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on fixed bases; exact below 3.3e24, near-certain above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(limit: int, count: int) -> list[int]:
    out = []
    c = limit - 1
    while len(out) < count:
        if is_probable_prime(c):
            out.append(c)
        c -= 2 if c % 2 else 1
    return out


_MODULI = _primes_below(1 << 61, 24)


def _det_mod(rows, p: int) -> int:
    m = [[x % p for x in row] for row in rows]
    n = len(m)
    d = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            d = -d
        mk = m[k]
        d = d * mk[k] % p
        inv = pow(mk[k], p - 2, p)
        tail = mk[k + 1 :]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k] * inv % p
            if f:
                mi[k + 1 :] = [(x - f * y) % p for x, y in zip(mi[k + 1 :], tail)]
    return d % p


def det(rows) -> int:
    """Exact determinant: residues modulo 61-bit primes past twice the
    Hadamard bound, joined by CRT into the symmetric range."""
    bound = 2 * prod(isqrt(sum(x * x for x in row)) + 1 for row in rows)
    value, modulus = 0, 1
    for p in _MODULI:
        r = _det_mod(rows, p)
        # CRT step: value = r (mod p), value = old value (mod modulus).
        t = (r - value) * pow(modulus, -1, p) % p
        value += modulus * t
        modulus *= p
        if modulus > bound:
            break
    else:
        raise ValueError("matrix too large for the prime table")
    return value - modulus if value > modulus // 2 else value


def _rank_mod(rows, p: int) -> int:
    m = [[x % p for x in row] for row in rows]
    rank, cols = 0, len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rank(rows) -> int:
    """Rank over Q; modulo two large primes, which can only undercount."""
    return max(_rank_mod(rows, p) for p in _MODULI[-2:])


def unit_order(rows) -> int | None:
    """Order of the all-ones class in Z^n / B Z^n, or None when det B = 0.

    Fraction-free Gauss-Jordan on [B | 1] ends at [D I | y] with D = +-det B
    and y = D B^-1 1, so the order is |D| / gcd(D, y).
    """
    n = len(rows)
    m = [list(row) + [1] for row in rows]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        mk = m[k]
        a = mk[k]
        for i in range(n):
            if i == k:
                continue
            mi = m[i]
            b = mi[k]
            mi[k + 1 :] = [(a * x - b * y) // prev for x, y in zip(mi[k + 1 :], mk[k + 1 :])]
            mi[k] = 0
        prev = a
    d = abs(prev)
    return d // gcd(d, *(row[n] for row in m))


def element_order(torsion, point) -> int | None:
    """Order of an element given in invariant-factor coordinates."""
    free = point[len(torsion):]
    if any(free):
        return None
    order = 1
    for d, c in zip(torsion, point):
        k = d // gcd(d, c)
        order = order * k // gcd(order, k)
    return order


def bowen_franks(rows) -> list[list[int]]:
    """B = I - A^t for an incidence matrix A."""
    n = len(rows)
    return [[int(i == j) - rows[j][i] for j in range(n)] for i in range(n)]


def isomorphic(a, b) -> bool:
    """Whether two incidence matrices differ by a vertex relabelling."""
    n = len(a)
    if n != len(b):
        return False

    def profile(m, v):
        return (m[v][v], sorted(m[v]), sorted(row[v] for row in m))

    pa = [profile(a, v) for v in range(n)]
    pb = [profile(b, v) for v in range(n)]
    if sorted(pa) != sorted(pb):
        return False
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or pa[v] != pb[w]:
                continue
            if all(
                a[v][u] == b[w][image[u]] and a[u][v] == b[image[u]][w]
                for u in range(v)
            ):
                image[v], used[w] = w, True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


# Trial division in flowinv runs about 5e6 candidate divisors a second on a
# 2-core x86 host: a torsion whose primes all lie below SMOOTH costs at most
# 1e4 candidates, about 2 ms; a factor whose square root exceeds HANG costs
# more than 1e8 candidates, about 20 s.
SMOOTH = 20_000
HANG = 10**8


def _product_of_primes_below(limit: int) -> int:
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    terms = [p for p in range(limit) if sieve[p]]
    while len(terms) > 1:  # product tree: balanced operand sizes
        terms = [prod(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    return terms[0]


_SMALL_PRIMES = _product_of_primes_below(SMOOTH)


def torsion_factoring(d: int) -> str:
    """How trial-division factoring of a torsion of order |d| will run.

    Strip every prime below SMOOTH from |d| with gcds against their product.
    ``cheap``: nothing is left, or one prime below SMOOTH**2, so no candidate
    divisor past SMOOTH is tried.  ``hang``: one prime is left whose square
    root exceeds HANG, so the divisor loop must run past it.  ``unclear``:
    anything else, including det 0, where the torsion is not |det|.
    """
    m = abs(d)
    if m == 0:
        return "unclear"
    while True:
        g = gcd(m, _SMALL_PRIMES)
        if g == 1:
            break
        m //= g
    if m == 1:
        return "cheap"
    if not is_probable_prime(m):
        return "unclear"
    if m < SMOOTH * SMOOTH:
        return "cheap"
    if isqrt(m) > 2 * HANG:
        return "hang"
    return "unclear"


def irreducible_nontrivial(rows) -> bool:
    """Strongly connected and not a single cycle: such a graph is essential
    and presents a purely infinite simple algebra."""
    n = len(rows)

    def reach(step) -> int:
        seen, todo = {0}, [0]
        while todo:
            v = todo.pop()
            for w in range(n):
                if step(v, w) and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen)

    strong = reach(lambda v, w: rows[v][w]) == n == reach(lambda v, w: rows[w][v])
    return strong and sum(map(sum, rows)) > n
