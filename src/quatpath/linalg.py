"""Small exact linear algebra over Z.

Matrices are tuples of tuples (rows) of ints.  All sizes here are tiny
(at most 16 rows, 14 columns), so clarity wins over asymptotics.  hnf
is by gcd elimination: left kernels and lattice intersections are read
off the HNF of a block matrix (Cohen, A Course in Computational
Algebraic Number Theory, 2.4).  hnf_mod_prime is the HNF of a lattice
holding ell * Z^n, by Gauss-Jordan elimination over F_ell.  Determinants
are by fraction-free Bareiss.  inverse_fraction, Gaussian elimination
over Q, has no caller in the package; tests use it as an oracle and
the benchmark traces it.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import xgcd

Mat = tuple  # tuple of row tuples


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def vec_mat(v, a: Mat) -> tuple:
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0])))


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


def hnf(m: Mat) -> Mat:
    """Row Hermite normal form, zero rows dropped.

    Pivots positive and strictly right-moving, entries above each pivot
    reduced into [0, pivot).  Unique for the row lattice of M.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
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
        for i in range(pivot_row + 1, rows):
            while a[i][col] != 0:
                g, s, t = xgcd(a[pivot_row][col], a[i][col])
                p, q = a[pivot_row][col] // g, a[i][col] // g
                # rows (pivot, i) <- (s*pivot + t*i, -q*pivot + p*i); det = 1
                new_p = [s * x + t * y for x, y in zip(a[pivot_row], a[i])]
                new_i = [-q * x + p * y for x, y in zip(a[pivot_row], a[i])]
                a[pivot_row], a[i] = new_p, new_i
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
        # reduce entries above the pivot
        piv = a[pivot_row][col]
        for i in range(pivot_row):
            q = a[i][col] // piv
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[pivot_row])]
        pivot_row += 1
    # every row from pivot_row on was cleared in every column
    return tuple(tuple(r) for r in a[:pivot_row])


def hnf_mod_prime(m: Mat, ell: int) -> Mat:
    """Row HNF of the lattice spanned by the rows of M and ell * Z^n, ell prime.

    That lattice holds ell * Z^n, so its HNF is read off the reduced row
    echelon form of M over F_ell, the prime case of the modular HNF
    (Cohen 2.4): the echelon row, lifted to [0, ell), in each pivot
    column, and ell * e_j in every other column j.
    """
    n = len(m[0])
    a = [[x % ell for x in row] for row in m]
    pivots = {}  # pivot column -> its echelon row
    for col in range(n):
        piv = next((row for row in a if row[col]), None)
        if piv is None:
            continue
        a.remove(piv)
        inv = pow(piv[col], -1, ell)
        piv = [x * inv % ell for x in piv]
        for row in a + list(pivots.values()):
            row[:] = [(x - row[col] * y) % ell for x, y in zip(row, piv)]
        pivots[col] = piv
    return tuple(tuple(pivots[j]) if j in pivots else tuple(ell * (k == j) for k in range(n))
                 for j in range(n))


def left_kernel(m: Mat) -> Mat:
    """HNF basis of {x in Z^rows : x * M = 0}, as rows.  Saturated.

    The rows of hnf([M | I]) span {(x*M, x)}; those with zero M-part
    come last and span its vectors (0, x) with x*M = 0.
    """
    c = len(m[0]) if m else 0
    n = len(m)
    h = hnf(tuple(tuple(row) + tuple(int(i == j) for j in range(n)) for i, row in enumerate(m)))
    return tuple(row[c:] for row in h if not any(row[:c]))


def lattice_intersection(b1: Mat, b2: Mat) -> Mat:
    """HNF basis of the intersection of two row lattices in the same Z^n.

    The rows of [[b1, b1], [b2, 0]] span {(x*b1 + y*b2, x*b1)}; the HNF
    rows with zero first half come last, and their second halves are
    the HNF of the intersection.
    """
    n = len(b1[0])
    zero = (0,) * n
    h = hnf(tuple(tuple(r) + tuple(r) for r in b1) + tuple(tuple(r) + zero for r in b2))
    return tuple(row[n:] for row in h if not any(row[:n]))
