"""Output checks that share no code with quatpath.

Quaternions are 4-tuples of Fractions over the basis (1, i, j, ij) of
B_{p,oo} = (-q, -p | Q); lattices are four such rows.  The product, the
reduced norm, the lattice inverse and the primality test below are written
here from their definitions, so a fault in quatpath's own arithmetic cannot
hide a fault in its outputs.

Every check raises CheckError with the reason on a bad output.
"""

from __future__ import annotations

from fractions import Fraction


class CheckError(Exception):
    pass


def require(cond: bool, what: str):
    if not cond:
        raise CheckError(what)


# --- integers --------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact below 3.3e24."""
    require(n < 3 * 10**24, "primality check is exact only below 3e24")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    require(n > 0 and n % 2 == 1, "Jacobi symbol needs an odd positive modulus")
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def eichler_class_number(p: int) -> int:
    """Number of left ideal classes of a maximal order of B_{p,oo}, p > 3."""
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


# --- quaternions -----------------------------------------------------------


def qmul(p: int, q: int, a, b) -> tuple:
    """Product in (-q, -p | Q): i^2 = -q, j^2 = -p, ij = -ji."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return (
        a1 * b1 - q * a2 * b2 - p * a3 * b3 - q * p * a4 * b4,
        a1 * b2 + a2 * b1 + p * a3 * b4 - p * a4 * b3,
        a1 * b3 + a3 * b1 - q * a2 * b4 + q * a4 * b2,
        a1 * b4 + a4 * b1 + a2 * b3 - a3 * b2,
    )


def qconj(a) -> tuple:
    return (a[0], -a[1], -a[2], -a[3])


def nrd(p: int, q: int, a) -> Fraction:
    return Fraction(a[0] ** 2 + q * a[1] ** 2 + p * a[2] ** 2 + q * p * a[3] ** 2)


def trd(a) -> Fraction:
    return Fraction(2 * a[0])


def _det(m) -> Fraction:
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _inverse(m) -> list:
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        require(piv is not None, "lattice basis is singular")
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


class Lattice:
    """A full-rank lattice in B_{p,oo} given by four basis rows."""

    def __init__(self, p: int, q: int, rows):
        self.p, self.q = p, q
        self.rows = [tuple(Fraction(c) for c in r) for r in rows]
        require(len(self.rows) == 4, "a lattice needs four basis rows")
        self.inv = _inverse(self.rows)

    @staticmethod
    def of(lat) -> "Lattice":
        """Read a quatpath QuatLattice (integer rows over one denominator)."""
        return Lattice(lat.alg.p, lat.alg.q,
                       [[Fraction(c, lat.den) for c in row] for row in lat.mat])

    def volume(self) -> Fraction:
        return abs(_det(self.rows))

    def contains(self, v) -> bool:
        return all(
            sum(v[k] * self.inv[k][c] for k in range(4)).denominator == 1
            for c in range(4)
        )

    def contains_all(self, vs) -> bool:
        return all(self.contains(v) for v in vs)

    def mul(self, a, b) -> tuple:
        return qmul(self.p, self.q, a, b)

    def products(self, other: "Lattice") -> list:
        return [self.mul(a, b) for a in self.rows for b in other.rows]

    def same_as(self, other: "Lattice") -> bool:
        return self.contains_all(other.rows) and other.contains_all(self.rows)


# --- checks per workload ---------------------------------------------------


def check_maximal_order(o: Lattice):
    """o contains 1, is closed under multiplication and has discriminant
    p^2 (reduced discriminant p), which makes it a maximal order."""
    require(o.contains((1, 0, 0, 0)), "order does not contain 1")
    require(o.contains_all(o.products(o)), "order is not closed under multiplication")
    disc = abs(_det([[trd(o.mul(a, qconj(b))) for b in o.rows] for a in o.rows]))
    require(disc == o.p ** 2, f"order discriminant {disc} is not p^2")


def check_left_ideal(o: Lattice, ideal: Lattice):
    """ideal lies in o and o * ideal lies in ideal.  With o maximal this
    also makes o the full left order of ideal."""
    require(o.contains_all(ideal.rows), "ideal is not inside the order")
    require(ideal.contains_all(o.products(ideal)), "ideal is not a left ideal of the order")


def check_norm_rep(o: Lattice, n: int, alpha):
    require(nrd(o.p, o.q, alpha) == n, "Nrd(alpha) differs from the target")
    require(o.contains(alpha), "alpha is not in O0")


def check_ideal_walk(o0: Lattice, walk_norm: int, rho: int, ell: int, out):
    """out holds the walk endpoint I, the prime-norm ideal J with its
    witness w, the right order R of I, and the connecting ideal C.  The
    prime norm N is read off the witness: Nrd(w) = N * N(I)."""
    I, J, w, R, C = out
    p, q = o0.p, o0.q
    check_left_ideal(o0, I)
    require(I.volume() == o0.volume() * walk_norm ** 2, "[O0 : I] differs from N(I)^2")
    require(I.contains(w), "the witness is not in I")
    N = nrd(p, q, w) / walk_norm
    require(N.denominator == 1, "Nrd(witness) is not a multiple of N(I)")
    N = N.numerator
    require(is_prime(N), "the prime norm is not prime")
    require(rho <= N <= rho * rho, "the prime norm is outside [rho, rho^2]")
    require(jacobi(ell, N) == -1, "ell is a residue modulo the prime norm")
    image = [tuple(c / walk_norm for c in I.mul(b, qconj(w))) for b in I.rows]
    require(J.same_as(Lattice(p, q, image)), "J is not I * conj(w) / N(I)")
    require(J.volume() == o0.volume() * N ** 2, "[O0 : J] differs from N^2")
    check_maximal_order(R)
    require(I.contains_all(I.products(R)), "R is not the right order of I")
    require(C.contains_all(o0.products(C)), "the connecting ideal's left order is not O0")
    require(C.contains_all(C.products(R)), "the connecting ideal's right order is not R")


def check_class_enum(o0: Lattice, reps):
    want = eichler_class_number(o0.p)
    require(len(reps) == want, f"{len(reps)} classes found, Eichler's formula gives {want}")
    for r in reps:
        check_left_ideal(o0, r)
