"""Positive definite quadratic-form lattices.

A GramForm is a rank-r lattice presented by its Gram matrix: the lattice
is Z^r, the geometry comes from f(x) = x^T G x.  The package builds them
for its rank-4 quaternion lattices.  The rank-2 layer (reduce_binary,
cvp_dim2, the *_dim2 functions) instead takes a positive definite binary
form, a qform.BinaryQF, and reads its integer coefficients a, b, c.
Everything is exact: entries are Fractions (half-integers allowed off the
diagonal), bounds are compared by integer arithmetic, never floats.
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
    "sample_ellipsoid_dim2",
    "count_ellipsoid_dim2",
    "enumerate_ellipsoid_dim2",
    "sample_ellipsoid_coset_dim2",
    "ellipsoid_sampler",
    "sample_ellipsoid",
    "enumerate_by_value",
    "shortest_nonzero",
]


class GramForm:
    """Integral quadratic form given by its Gram matrix.

    Invariants: symmetric, positive definite, integer diagonal,
    off-diagonal entries in (1/2)Z.  So f is integer-valued on Z^r.
    """

    __slots__ = ("rank", "gram")

    def __init__(self, gram, check: bool = True):
        g = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.rank = len(g)
        self.gram = g
        if check:
            self._validate()

    def _validate(self):
        n = self.rank
        if any(len(row) != n for row in self.gram):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            if self.gram[i][i].denominator != 1:
                raise ValueError("diagonal must be integral")
            for j in range(i + 1, n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
                if (2 * self.gram[i][j]).denominator != 1:
                    raise ValueError("off-diagonal entries must be half-integers")
        # positive definite iff all leading principal minors are positive
        for k in range(1, n + 1):
            minor = linalg.det_fraction(tuple(row[:k] for row in self.gram[:k]))
            if minor <= 0:
                raise ValueError("form is not positive definite")

    def value(self, x) -> Fraction:
        g = self.gram
        n = self.rank
        total = Fraction(0)
        for i in range(n):
            xi = x[i]
            if not xi:
                continue
            total += g[i][i] * xi * xi
            for j in range(i + 1, n):
                if x[j]:
                    total += 2 * g[i][j] * xi * x[j]
        return total

    def value_int(self, x) -> int:
        v = self.value(x)
        if v.denominator != 1:
            raise ValueError("form value not integral on this input")
        return v.numerator

    def inner(self, x, y) -> Fraction:
        g = self.gram
        n = self.rank
        total = Fraction(0)
        for i in range(n):
            for j in range(n):
                if x[i] and y[j]:
                    total += g[i][j] * x[i] * y[j]
        return total

    def det(self) -> Fraction:
        return linalg.det_fraction(self.gram)

    def disc(self) -> int:
        """Parity-dependent discriminant: det(2G) up to sign and a half."""
        d2 = linalg.det_fraction(tuple(tuple(2 * x for x in row) for row in self.gram))
        r = self.rank
        if r % 2 == 0:
            val = (-1) ** (r // 2) * d2
        else:
            val = Fraction((-1) ** ((r + 1) // 2), 2) * d2
        if val.denominator != 1:
            raise ValueError("discriminant is not integral")
        return val.numerator

    def transform(self, u) -> "GramForm":
        """Gram of the basis with rows u (new = u * old), i.e. u G u^T."""
        g = linalg.mat_mul(linalg.mat_mul(u, self.gram), linalg.transpose(u))
        return GramForm(g, check=False)

    def __eq__(self, other):
        return isinstance(other, GramForm) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"GramForm({self.gram})"


def _gso(g, n):
    """Gram-Schmidt data (B_i = |b_i*|^2, mu) from a Gram matrix alone."""
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    # inner[i][j] = <b_i, b_j*>
    inner = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = Fraction(g[i][j])
            for k in range(j):
                s -= mu[j][k] * inner[i][k]
            inner[i][j] = s
            if j < i:
                mu[i][j] = s / b[j]
        b[i] = inner[i][i]
    return b, mu


def lll_reduce(form: GramForm) -> tuple[GramForm, tuple]:
    """LLL with parameter delta = 3/4, working on the Gram matrix directly.

    Returns (reduced_form, U) with U unimodular and U G U^T the reduced
    Gram, rows of U giving the reduced basis in the original coordinates.
    """
    n = form.rank
    g = [[Fraction(x) for x in row] for row in form.gram]
    u = [list(row) for row in linalg.identity(n)]

    def row_sub(k, j, q):
        # b_k <- b_k - q b_j
        for t in range(n):
            g[k][t] -= q * g[j][t]
        for t in range(n):
            g[t][k] -= q * g[t][j]
        for t in range(n):
            u[k][t] -= q * u[j][t]

    def swap(k):
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        u[k], u[k - 1] = u[k - 1], u[k]

    bvals, mu = _gso(g, n)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = (mu[k][j] + Fraction(1, 2)).__floor__()
            if q:
                row_sub(k, j, q)
                bvals, mu = _gso(g, n)
        if bvals[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bvals[k - 1]:
            k += 1
        else:
            swap(k)
            bvals, mu = _gso(g, n)
            k = max(k - 1, 1)
    return GramForm(g, check=False), tuple(tuple(row) for row in u)


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


def sample_ellipsoid_dim2(form, rho: int, rng: random.Random) -> tuple[int, int]:
    """Uniform sample from {x in Z^2 : f(x) <= rho}.

    If rho < f(b2) for a reduced basis, the set is one-dimensional along
    b1 and an integer multiple is sampled directly; otherwise the
    rejection core samples it.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    if rho == 0:
        return (0, 0)
    (a, b, c), u = reduce_binary(form.a, form.b, form.c)
    if rho < c:
        # all lattice points of value <= rho lie on the b1 line
        kmax = math.isqrt(rho // a)
        return _to_input((rng.randint(-kmax, kmax), 0), u)
    return _to_input(_sample_rejection(a, b, c, 0, 0, 1, rho, rng), u)


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


def ellipsoid_sampler(form: GramForm, rho):
    """draw(rng, max_tries): uniform lattice points with 0 < f(x) <= rho.

    Rejection from the tight coordinate box of the LLL-reduced basis, so
    the acceptance rate is a dimension-only constant.  The reduction and
    the box are computed here once; each draw returns coordinates over
    the original basis or raises BudgetError after max_tries rejections.
    """
    n = form.rank
    red, u = lll_reduce(form)
    inv = linalg.inverse_fraction(red.gram)
    rho = Fraction(rho)
    bounds = [_frac_floor_sqrt(rho * inv[i][i]) for i in range(n)]
    twog = tuple(tuple(int(2 * red.gram[i][j]) for j in range(n)) for i in range(n))
    two_rho_num = 2 * rho.numerator

    def draw(rng: random.Random, max_tries: int) -> tuple:
        for _ in range(max_tries):
            x = tuple(rng.randint(-b, b) for b in bounds)
            if not any(x):
                continue
            val2 = sum(
                twog[i][j] * x[i] * x[j] for i in range(n) for j in range(n) if x[i] and x[j]
            )
            if val2 * rho.denominator <= two_rho_num:
                return tuple(sum(x[i] * u[i][j] for i in range(n)) for j in range(n))
        raise BudgetError("ellipsoid sampling budget exhausted")

    return draw


def sample_ellipsoid(
    form: GramForm, rho, rng: random.Random, max_tries: int = 1 << 20
) -> tuple:
    """One draw of ellipsoid_sampler(form, rho): uniform 0 < f(x) <= rho."""
    return ellipsoid_sampler(form, rho)(rng, max_tries)


def _cholesky(form: GramForm):
    """q[i][j] for f(x) = sum_i q_ii (x_i + sum_{j>i} q_ij x_j)^2."""
    n = form.rank
    q = [[Fraction(form.gram[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    return q


def _frac_floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative rational."""
    if x < 0:
        raise ValueError("negative")
    n, d = x.numerator, x.denominator
    r = math.isqrt(n * d) // d
    while (r + 1) * (r + 1) <= x:
        r += 1
    while r * r > x:
        r -= 1
    return r


def enumerate_by_value(form: GramForm, bound, lower=1):
    """All x in Z^r with lower <= f(x) <= bound, one per antipodal pair.

    Fincke-Pohst over the exact Cholesky decomposition of the
    LLL-reduced Gram (skewed input bases would blow the search tree up),
    mapped back afterwards.  Yields (x, f(x)) with the first nonzero
    coordinate of x positive.
    """
    n = form.rank
    red, u_rows = lll_reduce(form)
    q = _cholesky(red)
    bound = Fraction(bound)
    lower = Fraction(lower)
    x = [0] * n

    def rec(i: int, remaining: Fraction):
        if i < 0:
            val = bound - remaining
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
                if val.denominator == 1:
                    yield vec, val.numerator
                else:
                    yield vec, val
            return
        s = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                s += q[i][j] * x[j]
        # bound the integer y = x*Q + P (s = P/Q) so boundary points where
        # the square root is irrational but y hits it exactly are kept
        pnum, qden = s.numerator, s.denominator
        t2 = remaining * qden * qden / q[i][i]
        ymax = _frac_floor_sqrt(t2)
        lo = -((ymax + pnum) // qden)  # ceil((-ymax - P) / Q)
        hi = (ymax - pnum) // qden
        for xi in range(lo, hi + 1):
            x[i] = xi
            used = q[i][i] * (xi + s) ** 2
            if used <= remaining:
                yield from rec(i - 1, remaining - used)
        x[i] = 0

    yield from rec(n - 1, bound)


def shortest_nonzero(form: GramForm) -> tuple[tuple, Fraction]:
    """A shortest nonzero vector and its value (exact)."""
    red, u = lll_reduce(form)
    start = min(red.gram[i][i] for i in range(form.rank))
    best_vec, best_val = None, None
    for vec, val in enumerate_by_value(red, start, lower=1):
        if best_val is None or val < best_val:
            best_vec, best_val = vec, val
    # map through the LLL transform back to original coordinates
    orig = linalg.vec_mat(best_vec, u)
    return tuple(orig), best_val
