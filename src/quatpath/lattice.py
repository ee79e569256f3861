"""Positive definite quadratic-form lattices.

A GramForm is a rank-r lattice presented by its Gram matrix: the lattice
is Z^r, the geometry comes from f(x) = x^T G x.  The package builds them
for its rank-4 quaternion lattices.  The rank-2 layer (reduce_binary,
cvp_dim2, the *_dim2 functions) instead takes a positive definite binary
form, a qform.BinaryQF, and reads its integer coefficients a, b, c.
Everything is exact integer arithmetic, never floats: a GramForm holds
the integer matrix 2G, and LLL, Fincke-Pohst enumeration and the
ellipsoid sampler share one integral Gram-Schmidt computation.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import linalg
from .errors import BudgetError

__all__ = [
    "GramForm",
    "lll_reduce",
    "reduce_binary",
    "cvp_dim2",
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

    def disc(self) -> int:
        """Parity-dependent discriminant: det(2G) up to sign and a half."""
        d = linalg.det_bareiss(self.m)
        r = self.rank
        if r % 2 == 0:
            return (-1) ** (r // 2) * d
        # det(2G) is even at odd rank: 2G is alternating mod 2
        return (-1) ** ((r + 1) // 2) * d // 2

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


def _cvp2_scaled(a: int, b: int, c: int, n1: int, n2: int, d: int) -> tuple[int, int]:
    """Closest vector for the form (a,b,c) and target (n1/d, n2/d).

    Minimizes q(x1*d - n1, x2*d - n2) where q(X,Y) = aX^2 + bXY + cY^2,
    over integer (x1, x2).  Ties break lexicographically on (x1, x2).
    Everything is exact integer arithmetic.
    """
    disc4 = 4 * a * c - b * b  # > 0 for definite forms
    best_val = None
    best = None

    def consider(x1: int, x2: int):
        nonlocal best_val, best
        x = x1 * d - n1
        y = x2 * d - n2
        val = a * x * x + b * x * y + c * y * y
        if best_val is None or val < best_val or (val == best_val and (x1, x2) < best):
            best_val = val
            best = (x1, x2)

    def probe_x1(x2: int):
        # optimal real x1 at X = -bY/(2a), i.e. x1 = (n1 - bY/(2a)) / d
        y = x2 * d - n2
        num = 2 * a * n1 - b * y
        den = 2 * a * d
        x1 = num // den  # floor
        consider(x1, x2)
        consider(x1 + 1, x2)

    base = n2 // d  # floor of target's second coordinate
    probe_x1(base)
    probe_x1(base + 1)
    # scan outward in x2 until the projected norm alone exceeds the best
    step = 1
    lo_alive = hi_alive = True
    while lo_alive or hi_alive:
        for x2, alive_flag in ((base - step, "lo"), (base + 1 + step, "hi")):
            if alive_flag == "lo" and not lo_alive:
                continue
            if alive_flag == "hi" and not hi_alive:
                continue
            y = x2 * d - n2
            # min over real x1 of q is disc4 * y^2 / (4a)
            if disc4 * y * y > 4 * a * best_val:
                if alive_flag == "lo":
                    lo_alive = False
                else:
                    hi_alive = False
                continue
            probe_x1(x2)
        step += 1
    return best


def cvp_dim2(form, target) -> tuple[int, int]:
    """Closest lattice vector to a rational target in a binary form.

    Ties on Voronoi boundaries break lexicographically on the vector.
    """
    a, b, c = form.a, form.b, form.c
    t1 = Fraction(target[0])
    t2 = Fraction(target[1])
    d = t1.denominator * t2.denominator // math.gcd(t1.denominator, t2.denominator)
    n1 = int(t1 * d)
    n2 = int(t2 * d)
    return _cvp2_scaled(a, b, c, n1, n2, d)


# Grid resolution for the continuous-sampling step: fine enough that the
# discretization bias is invisible next to sampling noise at desk scale.
_GRID_BITS = 16

# The coset sampler draws from sets of up to this many points exactly, by
# enumeration, and from larger ones by rejection.
_ENUMERATE_THRESHOLD = 4096


def _reduced_coset(form, shift):
    """((a, b, c), U, (p1, p2, d)) for the point set {x : f(x + shift) <= rho}.

    The set is {x' U : f_red(x' + s') <= rho} with (a, b, c) reduced and
    s' = shift U^-1 = (p1, p2)/d.  U is in SL2(Z), so U^-1 is integral and
    s' keeps the denominator d of the shift.
    """
    (a, b, c), u = reduce_binary(form.a, form.b, form.c)
    s1 = Fraction(shift[0])
    s2 = Fraction(shift[1])
    d = math.lcm(s1.denominator, s2.denominator)
    q1 = s1.numerator * (d // s1.denominator)
    q2 = s2.numerator * (d // s2.denominator)
    return (a, b, c), u, (q1 * u[1][1] - q2 * u[1][0], q2 * u[0][0] - q1 * u[0][1], d)


def _box(a: int, b: int, c: int, d: int, rho: int) -> tuple[int, int]:
    """Rows and columns of the box the row scan covers; the budgets cap these."""
    disc4 = 4 * a * c - b * b
    rd2 = rho * d * d
    return (
        2 * ((math.isqrt(4 * a * rd2 // disc4) + 1) // d) + 3,
        2 * (math.isqrt(4 * c * rd2 // disc4) // d) + 3,
    )


def _rows(a: int, b: int, c: int, p1: int, p2: int, d: int, rho: int):
    """The nonempty rows of {x in Z^2 : f(x + (p1, p2)/d) <= rho}, f reduced.

    Yields (x2, lo, hi), x2 ascending: the row holds the points (x1, x2)
    with lo <= x1 <= hi.  With m = x1*d + p1 and n = x2*d + p2, a point is
    inside iff (2am + bn)^2 <= 4a*rho*d^2 - disc4*n^2.  Exact integer
    arithmetic; one pass per row of the box, however many points the rows
    hold.
    """
    disc4 = 4 * a * c - b * b
    rd2 = rho * d * d
    nbound = math.isqrt(4 * a * rd2 // disc4) + 1
    for x2 in range((-nbound - p2) // d - 1, (nbound - p2) // d + 2):
        n = x2 * d + p2
        delta = 4 * a * rd2 - disc4 * n * n
        if delta < 0:
            continue
        # |2am + bn| <= isqrt(delta) exactly, as 2am + bn is an integer
        sq = math.isqrt(delta)
        m_lo = -((sq + b * n) // (2 * a))
        m_hi = (sq - b * n) // (2 * a)
        lo = -((p1 - m_lo) // d)
        hi = (m_hi - p1) // d
        if lo <= hi:
            yield x2, lo, hi


def _sample_rejection(a, b, c, p1, p2, d, rho, rng) -> tuple[int, int]:
    """Uniform x with f(x + (p1, p2)/d) <= rho, f reduced and the set nonempty.

    Draws a point of the grid 2^-16 Z^2 uniformly from the ellipse of squared
    radius (sqrt(rho) + mu)^2, mu bounding the covering radius, rounds it to
    the nearest point of Z^2 + (p1, p2)/d and accepts it if inside.  The
    acceptance regions are translates of one Voronoi cell, so accepted
    points are uniform.  Returns reduced coordinates.
    """
    disc4 = 4 * a * c - b * b
    # covering radius bound for integral binary forms: mu^2 <= (2/3) det(G)
    mu2 = disc4 // 6 + 1
    # S2 >= (sqrt(rho) + mu)^2, kept integral
    s2 = rho + mu2 + 2 * (math.isqrt(rho * mu2) + 1)
    t = 1 << _GRID_BITS
    s2t = s2 * t * t
    # bounding box of the ellipse q <= S2 (scaled by t)
    w1 = math.isqrt(4 * c * s2t // disc4) + 1
    w2 = math.isqrt(4 * a * s2t // disc4) + 1
    rd2 = rho * d * d
    for _ in range(100000):
        v1 = rng.randint(-w1, w1)
        v2 = rng.randint(-w2, w2)
        if a * v1 * v1 + b * v1 * v2 + c * v2 * v2 > s2t:
            continue
        # nearest x to the target v/t - p/d, over the denominator t*d
        z = _cvp2_scaled(a, b, c, v1 * d - p1 * t, v2 * d - p2 * t, t * d)
        y1 = z[0] * d + p1
        y2 = z[1] * d + p2
        if a * y1 * y1 + b * y1 * y2 + c * y2 * y2 <= rd2:
            return z
    raise RuntimeError("ellipse sampler failed to accept; this should not happen")


def count_ellipsoid_dim2(form, shift, rho: int, budget: int = 10**8) -> int:
    """Exact #{x in Z^2 : f(x + shift) <= rho}, by the row scan.

    The scan runs over a reduced basis and costs one pass per row, so
    `budget` caps the row count; the number of points inside plays no
    role in the work done.
    """
    (a, b, c), _, (p1, p2, d) = _reduced_coset(form, shift)
    if rho < 0:
        return 0
    box_rows = _box(a, b, c, d, rho)[0]
    if box_rows > budget:
        raise BudgetError(f"enumeration rows {box_rows} exceed budget {budget}")
    return sum(hi - lo + 1 for _, lo, hi in _rows(a, b, c, p1, p2, d, rho))


def enumerate_ellipsoid_dim2(form, shift, rho: int, budget: int = 10**8) -> list:
    """All x in Z^2 with f(x + shift) <= rho, by the same row scan as
    count_ellipsoid_dim2.  Refuses oversized boxes."""
    (a, b, c), u, (p1, p2, d) = _reduced_coset(form, shift)
    if rho < 0:
        return []
    box_rows, box_cols = _box(a, b, c, d, rho)
    if box_rows * box_cols > budget:
        raise BudgetError(
            f"enumeration box {box_rows}x{box_cols} exceeds budget {budget}"
        )
    return [
        _to_input((x1, x2), u)
        for x2, lo, hi in _rows(a, b, c, p1, p2, d, rho)
        for x1 in range(lo, hi + 1)
    ]


def sample_ellipsoid_coset_dim2(form, shift, rho: int, rng: random.Random):
    """Uniform sample from {x in Z^2 : f(x + shift) <= rho}, or None if empty.

    One pass of the row scan over a reduced basis, stopped as soon as it
    has seen more than _ENUMERATE_THRESHOLD points.  A set no larger is
    sampled exactly from the stored rows; a larger one goes to the
    rejection core, which rounds in the translated lattice Z^2 + shift
    (whose Voronoi cells are the same translates, so accepted points are
    uniform).
    """
    (a, b, c), u, (p1, p2, d) = _reduced_coset(form, shift)
    if rho < 0:
        return None
    rows, total = [], 0
    for x2, lo, hi in _rows(a, b, c, p1, p2, d, rho):
        rows.append((x2, lo, hi))
        total += hi - lo + 1
        if total > _ENUMERATE_THRESHOLD:
            return _to_input(_sample_rejection(a, b, c, p1, p2, d, rho, rng), u)
    if total == 0:
        return None
    k = rng.randrange(total)
    for x2, lo, hi in rows:
        if lo + k <= hi:
            return _to_input((lo + k, x2), u)
        k -= hi - lo + 1


def ellipsoid_sampler(form: GramForm, rho: int):
    """draw(rng, max_tries): uniform lattice points with 0 < f(x) <= rho.

    Rejection from the tight coordinate box of the LLL-reduced basis, so
    the acceptance rate is a dimension-only constant.  The reduction and
    the box are computed here once; each draw returns coordinates over
    the original basis or raises BudgetError after max_tries rejections.
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

    def draw(rng: random.Random, max_tries: int) -> tuple:
        for _ in range(max_tries):
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


def sample_ellipsoid(
    form: GramForm, rho: int, rng: random.Random, max_tries: int = 1 << 20
) -> tuple:
    """One draw of ellipsoid_sampler(form, rho): uniform 0 < f(x) <= rho."""
    return ellipsoid_sampler(form, rho)(rng, max_tries)


def enumerate_by_value(form: GramForm, bound: int, lower: int = 1):
    """All x in Z^r with lower <= f(x) <= bound, one per antipodal pair.

    Fincke-Pohst on the integral Gram-Schmidt data (d, lam) that the LLL
    reduction ends with (skewed input bases would blow the search tree
    up), mapped back afterwards.  Yields (x, f(x)) with the first nonzero
    coordinate of x positive.
    """
    n = form.rank
    u_rows, d, lam = _lll(form.m)
    top = 2 * bound  # the bound in the scale of m
    x = [0] * n

    def rec(i: int, part: int):
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
