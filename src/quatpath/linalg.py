"""Small exact linear algebra over Z.

Matrices are tuples of tuples (rows) of ints.  All sizes here are tiny
(rank <= 8), so clarity wins over asymptotics: HNF by gcd elimination,
determinants by fraction-free Bareiss.  inverse_fraction, Gaussian
elimination over Q, has no caller in the package; tests use it as an
oracle and the benchmark traces it.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import xgcd

Mat = tuple  # tuple of row tuples


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def vec_mat(v, a: Mat) -> tuple:
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0])))


def mat_neg(a: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in a)


def det_bareiss(m: Mat) -> int:
    """Determinant of an integer matrix, fraction-free."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inverse_fraction(m: Mat) -> Mat:
    """Inverse of a square matrix, entries Fraction.  Raises on singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if a[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        a[k], a[pivot] = a[pivot], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                factor = a[i][k]
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def hnf_with_transform(m: Mat) -> tuple[Mat, Mat]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*M = H, H in row-echelon HNF:
    pivots positive, strictly right-moving, entries above each pivot
    reduced into [0, pivot).  Zero rows sink to the bottom (so U stays
    square and unimodular).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u = [list(row) for row in identity(rows)]
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # clear the column below pivot_row by gcd steps
        nz = [i for i in range(pivot_row, rows) if a[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        a[pivot_row], a[i0] = a[i0], a[pivot_row]
        u[pivot_row], u[i0] = u[i0], u[pivot_row]
        for i in range(pivot_row + 1, rows):
            while a[i][col] != 0:
                g, s, t = xgcd(a[pivot_row][col], a[i][col])
                p, q = a[pivot_row][col] // g, a[i][col] // g
                # rows (pivot, i) <- (s*pivot + t*i, -q*pivot + p*i); det = 1
                new_p = [s * x + t * y for x, y in zip(a[pivot_row], a[i])]
                new_i = [-q * x + p * y for x, y in zip(a[pivot_row], a[i])]
                a[pivot_row], a[i] = new_p, new_i
                new_pu = [s * x + t * y for x, y in zip(u[pivot_row], u[i])]
                new_iu = [-q * x + p * y for x, y in zip(u[pivot_row], u[i])]
                u[pivot_row], u[i] = new_pu, new_iu
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        # reduce entries above the pivot
        piv = a[pivot_row][col]
        for i in range(pivot_row):
            q = a[i][col] // piv
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[pivot_row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
        pivot_row += 1
    return tuple(tuple(r) for r in a), tuple(tuple(r) for r in u)


def hnf(m: Mat) -> Mat:
    """Row HNF with zero rows dropped."""
    h, _ = hnf_with_transform(m)
    return tuple(row for row in h if any(row))


def left_kernel(m: Mat) -> Mat:
    """Basis of {x in Z^rows : x * M = 0}, as rows.  Saturated."""
    h, u = hnf_with_transform(m)
    return tuple(u[i] for i in range(len(h)) if not any(h[i]))


def lattice_intersection(b1: Mat, b2: Mat) -> Mat:
    """Intersection of two full-rank row lattices in the same Z^n.

    Rows generate; output is the HNF basis of the intersection.
    """
    neg2 = mat_neg(b2)
    stacked = tuple(b1) + tuple(neg2)
    kern = left_kernel(stacked)
    n1 = len(b1)
    vecs = [vec_mat(k[:n1], b1) for k in kern]
    if not vecs:
        return ()
    return hnf(tuple(vecs))
