"""Positive definite quadratic-form lattices.

A GramForm is a rank-r lattice presented by its Gram matrix: the lattice
is Z^r, the geometry comes from f(x) = x^T G x.  The package builds them
for its rank-4 quaternion lattices.  The rank-2 layer (reduce_binary and
the *_dim2 functions) instead takes a positive definite binary form, a
qform.BinaryQF, and reads its integer coefficients a, b, c; over a reduced
basis one box, plain integers of any size, and one row formula serve
counting, enumeration and the exact coset sampler.  A coset shift is the
integer triple (q1, q2, d), the point (q1, q2)/d.
Everything is exact integer arithmetic, never floats: a GramForm holds
the integer matrix 2G, LLL and Fincke-Pohst enumeration share one
integral Gram-Schmidt computation, and the ellipsoid sampler reads its
box from Bareiss cofactors.  The only
Fractions are the half-integer Gram entries GramForm's constructor reads.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import linalg
from .errors import BudgetError, ValidationError

__all__ = [
    "GramForm",
    "lll_reduce",
    "reduce_binary",
    "count_ellipsoid_dim2",
    "enumerate_ellipsoid_dim2",
    "sample_ellipsoid_coset_dim2",
    "ellipsoid_sampler",
    "sample_ellipsoid",
    "enumerate_by_value",
]


class GramForm:
    """Integral positive definite quadratic form f(x) on Z^r.

    Stored as one integer matrix m = 2G, the Gram matrix of the bilinear
    form f(x + y) - f(x) - f(y), so f(x) = x^T m x / 2.  Its diagonal is
    even.  The constructor takes G itself, with integer diagonal and
    half-integers allowed off it, and checks those invariants and positive
    definiteness.
    """

    __slots__ = ("rank", "m")

    def __init__(self, gram):
        g = tuple(tuple(Fraction(x) for x in row) for row in gram)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            if g[i][i].denominator != 1:
                raise ValueError("diagonal must be integral")
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
                if (2 * g[i][j]).denominator != 1:
                    raise ValueError("off-diagonal entries must be half-integers")
        self.rank = n
        self.m = tuple(tuple(int(2 * x) for x in row) for row in g)
        _gram_schmidt(self.m)  # raises unless every leading minor is positive

    @classmethod
    def _of(cls, m) -> "GramForm":
        """The form with 2G = m, for an m that is already known to be valid."""
        form = cls.__new__(cls)
        form.rank = len(m)
        form.m = m
        return form

    def value_int(self, x) -> int:
        """f(x) for an integer vector x."""
        m = self.m
        twice = sum(m[i][j] * a * b for i, a in enumerate(x) if a for j, b in enumerate(x) if b)
        return twice // 2

    def transform(self, u) -> "GramForm":
        """The form on the basis with rows u (new = u * old): 2G' = u 2G u^T."""
        return GramForm._of(linalg.mat_mul(linalg.mat_mul(u, self.m), linalg.transpose(u)))

    def __eq__(self, other):
        return isinstance(other, GramForm) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"GramForm(m={self.m})"


def _gram_schmidt(m):
    """Integral Gram-Schmidt data (d, lam) of the integer Gram matrix m.

    d[i] is the i-th leading principal minor, d[0] = 1, found by Bareiss
    elimination, and lam[i][j] = d[j+1] * mu_ij for j < i, so both are
    integers: |b_i*|^2 = d[i+1] / d[i].  Raises ValueError at the first
    minor that is not positive.
    """
    n = len(m)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = m[i][j]
            for t in range(j):
                s = (d[t + 1] * s - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = s
            elif s <= 0:
                raise ValueError("form is not positive definite")
            else:
                d[i + 1] = s
    return d, lam


def _lll(m):
    """Integral LLL with delta = 3/4 on the integer Gram matrix m.

    Returns (u, d, lam): u unimodular, its rows the reduced basis, and the
    integral Gram-Schmidt data of that basis, kept up to date through
    every size reduction and swap (de Weger 1987; Cohen, Alg. 2.6.7).
    Row k is size-reduced against k-1, ..., 0 before the Lovasz test, by
    the nearest integer floor(mu + 1/2).  Every step is exact.
    """
    n = len(m)
    d, lam = _gram_schmidt(m)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            if q:
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                lam[k][j] -= q * d[j + 1]
                for t in range(j):
                    lam[k][t] -= q * lam[j][t]
        lk = lam[k][k - 1]
        # |b_k*|^2 >= (3/4 - mu^2) |b_{k-1}*|^2, times 4 d[k] d[k-1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * lk * lk:
            k += 1
            continue
        u[k - 1], u[k] = u[k], u[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (dk * t + lk * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return tuple(map(tuple, u)), d, lam


def lll_reduce(form: GramForm) -> tuple[GramForm, tuple]:
    """LLL with parameter delta = 3/4, working on the Gram matrix directly.

    Returns (reduced_form, U) with U unimodular and U G U^T the reduced
    Gram, rows of U giving the reduced basis in the original coordinates.
    """
    u = _lll(form.m)[0]
    return form.transform(u), u


def reduce_binary(a: int, b: int, c: int) -> tuple[tuple[int, int, int], tuple]:
    """Canonical reduction of the positive definite form a*x^2 + b*x*y + c*y^2.

    Returns ((a, b, c), U): the reduced coefficients, with -a < b <= a <= c
    and b >= 0 when a = c, and U in SL2(Z) whose rows are the reduced
    basis in the input's coordinates, so f_red(x) = f(x U).  This is the
    package's one binary reduction; qform.reduce_form reads U transposed.
    """
    r0, r1 = (1, 0), (0, 1)
    while True:
        if abs(b) > a:
            # shear b2 <- b2 + k*b1 bringing b into (-a, a]
            k = (a - b) // (2 * a)
            b, c = b + 2 * a * k, a * k * k + b * k + c
            r1 = (r1[0] + k * r0[0], r1[1] + k * r0[1])
        elif a > c or (a == c and b < 0):
            # (b1, b2) <- (b2, -b1)
            a, b, c = c, -b, a
            r0, r1 = r1, (-r0[0], -r0[1])
        elif b == -a:
            b = a
            r1 = (r1[0] + r0[0], r1[1] + r0[1])
        else:
            return (a, b, c), (r0, r1)


def _to_input(z, u) -> tuple[int, int]:
    """Reduced coordinates z back to the input basis: z U."""
    return (z[0] * u[0][0] + z[1] * u[1][0], z[0] * u[0][1] + z[1] * u[1][1])


# Up to this many box rows the coset sampler scans them all, which is
# exact at any point count and finds an empty set.  Past it a reduced form
# has long rows too, so a drawn box point lands inside with probability
# over 1/3 and a draw costs a few row computations, not one per row.
_FEW_ROWS = 32

# Tries the coset sampler makes past _FEW_ROWS rows; each fails with
# probability under 2/3, so running out has probability under 10^-176.
_ROW_TRIES = 1000


def _coset_box(form, shift, rho: int):
    """((a, b, c), U, (p1, p2, d), (first, count, W)) for {x : f(x + s) <= rho}.

    shift = (q1, q2, d) is the point s = (q1, q2)/d, integers with d >= 1,
    in lowest terms or not.  The set is {x' U : f_red(x' + s') <= rho} with
    (a, b, c) reduced and s' = s U^-1 = (p1, p2)/d; U is in SL2(Z), so s'
    keeps the denominator d.  The box, plain integers of any size, is the
    count rows x2 from first with disc4*n^2 <= 4a*rho*d^2, n = x2*d + p2:
    every point inside has one, at each _row's square root is real, and
    count <= 4*sqrt(a*rho/disc4) + 1 (0 for rho < 0).  W = isqrt(4*rho/a) + 2
    is above every row's point count, as a row spans at most 2*sqrt(rho/a).
    """
    q1, q2, d = shift
    if d < 1:
        raise ValidationError("the shift's denominator d must be at least 1")
    (a, b, c), u = reduce_binary(form.a, form.b, form.c)
    p1, p2 = q1 * u[1][1] - q2 * u[1][0], q2 * u[0][0] - q1 * u[0][1]
    if rho < 0:
        return (a, b, c), u, (p1, p2, d), (0, 0, 0)
    nbound = math.isqrt(4 * a * rho * d * d // (4 * a * c - b * b))
    first = -((nbound + p2) // d)
    count = (nbound - p2) // d + 1 - first
    return (a, b, c), u, (p1, p2, d), (first, count, math.isqrt(4 * rho // a) + 2)


def _row(a: int, b: int, c: int, p1: int, p2: int, d: int, rho: int, x2: int):
    """(lo, hi): row x2 of {x : f(x + (p1, p2)/d) <= rho} is lo <= x1 <= hi.

    With m = x1*d + p1 and n = x2*d + p2, a point is inside iff
    (2am + bn)^2 <= 4a*rho*d^2 - disc4*n^2, a nonnegative bound for x2 in
    the rows of _coset_box.  Exact integer arithmetic; lo > hi for an empty
    row.
    """
    n = x2 * d + p2
    # |2am + bn| <= isqrt(bound) exactly, as 2am + bn is an integer
    sq = math.isqrt(4 * a * rho * d * d - (4 * a * c - b * b) * n * n)
    m_lo = -((sq + b * n) // (2 * a))
    m_hi = (sq - b * n) // (2 * a)
    return -((p1 - m_lo) // d), (m_hi - p1) // d


def _rows(a: int, b: int, c: int, p1: int, p2: int, d: int, rho: int, first: int, count: int):
    """The nonempty rows (x2, lo, hi) of {x : f(x + (p1, p2)/d) <= rho}, f
    reduced, x2 ascending: one pass per row of the box (first, count),
    however many points the rows hold.  Callers check count first."""
    for x2 in range(first, first + count):
        lo, hi = _row(a, b, c, p1, p2, d, rho, x2)
        if lo <= hi:
            yield x2, lo, hi


def count_ellipsoid_dim2(form, shift, rho: int, budget: int = 10**8) -> int:
    """Exact #{x in Z^2 : f(x + (q1, q2)/d) <= rho}, shift = (q1, q2, d), by
    the row scan.

    The scan runs over a reduced basis and costs one pass per row, so
    `budget` caps the row count; the number of points inside plays no
    role in the work done.
    """
    (a, b, c), _, (p1, p2, d), (first, count, _) = _coset_box(form, shift, rho)
    if count > budget:
        raise BudgetError(f"enumeration rows {count} exceed budget {budget}")
    return sum(hi - lo + 1 for _, lo, hi in _rows(a, b, c, p1, p2, d, rho, first, count))


def enumerate_ellipsoid_dim2(form, shift, rho: int, budget: int = 10**8) -> list:
    """All x in Z^2 with f(x + (q1, q2)/d) <= rho, shift = (q1, q2, d), by
    the same row scan as count_ellipsoid_dim2.  Refuses oversized boxes."""
    (a, b, c), u, (p1, p2, d), (first, count, w) = _coset_box(form, shift, rho)
    if count * w > budget:
        raise BudgetError(f"enumeration box {count}x{w} exceeds budget {budget}")
    return [
        _to_input((x1, x2), u)
        for x2, lo, hi in _rows(a, b, c, p1, p2, d, rho, first, count)
        for x1 in range(lo, hi + 1)
    ]


def coset_sampler_dim2(form, shift, rho: int):
    """draw(rng): uniform samples from {x in Z^2 : f(x + (q1, q2)/d) <= rho},
    shift = (q1, q2, d), each None if the set is empty.

    Works over a reduced basis, whose box (_coset_box) has R rows, each holding
    fewer than W points.  The reduction and the box are computed here once,
    and so, for R <= _FEW_ROWS, are the rows and their point count; each
    draw then picks one of those points uniformly.  Past that a draw picks
    a box row x2 and an offset k in [0, W) uniformly and accepts
    (lo + k, x2) when lo + k <= hi: every point has the same chance
    1/(R*W) per try, so the draw is exact.

    Acceptance bound.  Reduced means |b| <= a <= c, so disc4 = 4ac - b^2
    >= 3ac >= 3a^2 and R - 1 <= 4*sqrt(a*rho/disc4) <= (2/sqrt3)*L, where
    L = 2*sqrt(rho/a) is the longest row's length: many rows force long
    rows.  The rows with |n| <= (sqrt3/2)*max|n| are at least
    (sqrt3/2)(R - 1) - 1 in number, each of length at least L/2, so they
    hold at least L/2 - 1 points each, while W <= L + 2.  A try therefore
    accepts with probability at least
    ((sqrt3/2)(R - 1) - 1)(L/2 - 1) / (R(L + 2)), which increases in R
    and L and exceeds 1/3 for every R > _FEW_ROWS = 32; in particular the
    set is not empty.  A draw raises BudgetError after _ROW_TRIES tries.
    """
    (a, b, c), u, (p1, p2, d), (first, count, w) = _coset_box(form, shift, rho)
    if count <= _FEW_ROWS:
        rows = list(_rows(a, b, c, p1, p2, d, rho, first, count))
        total = sum(hi - lo + 1 for _, lo, hi in rows)
        if total == 0:
            return lambda rng: None

        def draw_stored(rng: random.Random):
            k = rng.randrange(total)
            for x2, lo, hi in rows:
                if lo + k <= hi:
                    return _to_input((lo + k, x2), u)
                k -= hi - lo + 1

        return draw_stored

    def draw(rng: random.Random):
        for _ in range(_ROW_TRIES):
            x2 = first + rng.randrange(count)
            lo, hi = _row(a, b, c, p1, p2, d, rho, x2)
            x1 = lo + rng.randrange(w)
            if x1 <= hi:
                return _to_input((x1, x2), u)
        raise BudgetError(f"coset sampler: no point accepted in {_ROW_TRIES} tries")

    return draw


def sample_ellipsoid_coset_dim2(form, shift, rho: int, rng: random.Random):
    """One draw of coset_sampler_dim2(form, shift, rho): a uniform point of
    {x in Z^2 : f(x + (q1, q2)/d) <= rho}, shift = (q1, q2, d), or None if
    that set is empty."""
    return coset_sampler_dim2(form, shift, rho)(rng)


_BOX_TRIES = 4096  # box points one ellipsoid_sampler draw tries
# Fincke-Pohst nodes enumerate_by_value may visit: 7x the largest tree the
# test suite walks (13,169 nodes), half a second of work on a rank-4 form.
_NODE_BUDGET = 10**5


def ellipsoid_sampler(form: GramForm, rho: int):
    """draw(rng): uniform lattice points with 0 < f(x) <= rho.

    Rejection from the tight coordinate box of the LLL-reduced basis, so
    the acceptance rate is a dimension-only constant.  The reduction and
    the box are computed here once; each draw returns coordinates over
    the original basis or raises BudgetError after _BOX_TRIES rejections.
    """
    n = form.rank
    red, u = lll_reduce(form)
    m = red.m
    # |x_i| <= sqrt(rho (G^-1)_ii) = sqrt(2 rho C_ii / det m), C the cofactors of m
    det = linalg.det_bareiss(m)
    bounds = []
    for i in range(n):
        minor = tuple(row[:i] + row[i + 1:] for k, row in enumerate(m) if k != i)
        bounds.append(math.isqrt(2 * rho * linalg.det_bareiss(minor) // det))

    def draw(rng: random.Random) -> tuple:
        for _ in range(_BOX_TRIES):
            x = tuple(rng.randint(-b, b) for b in bounds)
            if not any(x):
                continue
            val2 = sum(
                m[i][j] * x[i] * x[j] for i in range(n) for j in range(n) if x[i] and x[j]
            )
            if val2 <= 2 * rho:
                return tuple(sum(x[i] * u[i][j] for i in range(n)) for j in range(n))
        raise BudgetError("ellipsoid sampling budget exhausted")

    return draw


def sample_ellipsoid(form: GramForm, rho: int, rng: random.Random) -> tuple:
    """One draw of ellipsoid_sampler(form, rho): uniform 0 < f(x) <= rho."""
    return ellipsoid_sampler(form, rho)(rng)


def enumerate_by_value(form: GramForm, bound: int, lower: int = 1):
    """All x in Z^r with lower <= f(x) <= bound, one per antipodal pair.

    Fincke-Pohst on the integral Gram-Schmidt data (d, lam) that the LLL
    reduction ends with (skewed input bases would blow the search tree
    up), mapped back afterwards.  Yields (x, f(x)) with the first nonzero
    coordinate of x positive.  Raises BudgetError once the search tree
    passes _NODE_BUDGET nodes, points below lower included.
    """
    n = form.rank
    u_rows, d, lam = _lll(form.m)
    top = 2 * bound  # the bound in the scale of m
    x = [0] * n
    nodes = 0

    def rec(i: int, part: int):
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise BudgetError(f"enumeration tree over {_NODE_BUDGET} nodes")
        # part = d[i+1] * |pi_{i+1}(v)|^2 in the scale of m, where v is the
        # vector of the coordinates fixed so far and pi_{i+1} projects away
        # from b_0, ..., b_i; it is an integer, a Gram determinant
        if i < 0:
            val = part // 2
            if val >= lower:
                # one representative per antipodal pair, picked in the
                # reduced coordinates
                lead = next((c for c in x if c), 0)
                if lead <= 0:
                    return
                vec = tuple(
                    sum(x[k] * u_rows[k][j] for k in range(n)) for j in range(n)
                )
                # presented with its first nonzero coordinate positive
                for coord in vec:
                    if coord < 0:
                        vec = tuple(-c for c in vec)
                        break
                    if coord > 0:
                        break
                yield vec, val
            return
        di, dj = d[i], d[i + 1]
        s = sum(lam[j][i] * x[j] for j in range(i + 1, n) if x[j])
        # the integer y = dj * x_i + s adds y^2 / (di * dj) to |pi_i(v)|^2,
        # which stays within top exactly when y^2 <= di * (top * dj - part)
        ymax = math.isqrt(di * (top * dj - part))
        for xi in range(-((ymax + s) // dj), (ymax - s) // dj + 1):
            x[i] = xi
            y = dj * xi + s
            yield from rec(i - 1, (di * part + y * y) // dj)
        x[i] = 0

    yield from rec(n - 1, 0)
