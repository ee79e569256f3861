"""The rational quaternion algebra ramified exactly at {p, infinity}.

Elements and lattices share one representation: integers over one
positive denominator, in coordinates over the basis (1, i, j, ij) with
i^2 = -q, j^2 = -p, ji = -ij.  An element is four numerators over a
denominator in lowest terms; a lattice is a canonical integer HNF basis
over one denominator.  So equal values compare equal bitwise.  Lattice
products multiply these integer rows, fold any scalar factor into the
denominator and take one HNF, with no element built per product.  On top
of that sit orders, ideals, and the prime-norm equivalent-ideal
constructions used by the path algorithms.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import arith, lattice, linalg, qform
from .errors import BudgetError, ValidationError, _ensure


@dataclass(frozen=True)
class QuatAlgebra:
    p: int
    q: int

    def element(self, c1, c2, c3, c4) -> "QuatElement":
        """The element with these int or Fraction coordinates."""
        fr = [Fraction(c) for c in (c1, c2, c3, c4)]
        den = math.lcm(*(f.denominator for f in fr))
        return QuatElement(self, tuple(f.numerator * (den // f.denominator) for f in fr), den)

    @property
    def one(self) -> "QuatElement":
        return self.element(1, 0, 0, 0)

    @property
    def i(self) -> "QuatElement":
        return self.element(0, 1, 0, 0)

    @property
    def j(self) -> "QuatElement":
        return self.element(0, 0, 1, 0)

    @property
    def ij(self) -> "QuatElement":
        return self.element(0, 0, 0, 1)


def construct_algebra(p: int) -> QuatAlgebra:
    """Algebra ramified at p and infinity, with the standard minimal q."""
    if p <= 2 or not arith.is_prime(p):
        raise ValidationError("p must be an odd prime")
    if p % 4 == 3:
        q = 1
    elif p % 8 == 5:
        q = 2
    else:
        q = 3
        while not (q % 4 == 3 and arith.kronecker(p, q) == -1):
            q = arith.next_prime(q)
    return QuatAlgebra(p, q)


@dataclass(frozen=True, slots=True)
class QuatElement:
    """The element num / den: four integers over one denominator.

    The constructor brings it to lowest terms with den > 0, so equal
    elements have equal fields.
    """

    alg: QuatAlgebra
    num: tuple
    den: int = 1

    def __post_init__(self):
        if self.den <= 0:
            raise ValidationError("the denominator must be positive")
        g = math.gcd(self.den, *self.num)
        if g != 1:
            object.__setattr__(self, "num", tuple(c // g for c in self.num))
            object.__setattr__(self, "den", self.den // g)

    @property
    def coords(self) -> tuple:
        """The four coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __add__(self, other):
        self._check(other)
        d1, d2 = self.den, other.den
        num = tuple(a * d2 + b * d1 for a, b in zip(self.num, other.num))
        return QuatElement(self.alg, num, d1 * d2)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return QuatElement(self.alg, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = tuple(a * other.numerator for a in self.num)
            return QuatElement(self.alg, num, self.den * other.denominator)
        self._check(other)
        return QuatElement(self.alg, _mul(self.alg, self.num, other.num), self.den * other.den)

    __rmul__ = __mul__  # scalars commute with every element

    def _check(self, other):
        if not isinstance(other, QuatElement) or other.alg != self.alg:
            raise ValidationError("algebra mismatch")

    def conj(self) -> "QuatElement":
        return QuatElement(self.alg, _conj(self.num), self.den)

    def trd(self) -> Fraction:
        return Fraction(2 * self.num[0], self.den)

    def nrd(self) -> Fraction:
        return self.pairing(self)

    def pairing(self, other) -> Fraction:
        """(a*conj(b) + b*conj(a)) / 2, the bilinear form of nrd."""
        self._check(other)
        return Fraction(_pair(self.alg, self.num, other.num), self.den * other.den)

    def is_zero(self) -> bool:
        return not any(self.num)


def _mul(alg: QuatAlgebra, a, b) -> tuple:
    """The product of two integer coordinate vectors."""
    q, p = alg.q, alg.p
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return (
        a1 * b1 - q * a2 * b2 - p * a3 * b3 - q * p * a4 * b4,
        a1 * b2 + a2 * b1 + p * a3 * b4 - p * a4 * b3,
        a1 * b3 + a3 * b1 - q * a2 * b4 + q * a4 * b2,
        a1 * b4 + a4 * b1 + a2 * b3 - a3 * b2,
    )


def _conj(a) -> tuple:
    return (a[0], -a[1], -a[2], -a[3])


def _pair(alg: QuatAlgebra, a, b) -> int:
    """The pairing of two integer coordinate vectors."""
    q, p = alg.q, alg.p
    return a[0] * b[0] + q * a[1] * b[1] + p * a[2] * b[2] + q * p * a[3] * b[3]


def _canonical(alg: QuatAlgebra, rows, den: int) -> "QuatLattice":
    """The lattice spanned by the integer rows over den, in canonical form."""
    h = linalg.hnf(tuple(rows))
    if len(h) != 4:
        raise ValidationError("lattice must have full rank 4")
    g = math.gcd(den, *(c for row in h for c in row))
    return QuatLattice(alg, den // g, tuple(tuple(c // g for c in row) for row in h))


def _products(alg: QuatAlgebra, left, right, den: int, r=1) -> "QuatLattice":
    """The lattice spanned by a * b * r / den, over the integer rows a of
    left and b of right and an int or Fraction r: one HNF of the products."""
    rows = [tuple(c * r.numerator for c in _mul(alg, a, b)) for a in left for b in right]
    return _canonical(alg, rows, den * r.denominator)


class QuatLattice:
    """Full-rank lattice in the algebra, in canonical form.

    The basis is a positive-pivot upper-triangular integer HNF divided by
    one global denominator, with the gcd of everything pulled out, so the
    representation is unique per lattice.  A lattice is never mutated, so
    its left order and whether it is a maximal order are computed once, by
    the first left_order (or has_left_order) and is_maximal_order calls,
    or handed on by equiv_from_element.
    """

    __slots__ = ("alg", "den", "mat", "gram_scaled", "nrd", "_left_order", "_is_maximal")

    def __init__(self, alg: QuatAlgebra, den: int, mat: tuple):
        self.alg = alg
        self.den = den
        self.mat = mat
        gram = tuple(tuple(_pair(alg, ra, rb) for rb in mat) for ra in mat)
        self.gram_scaled = gram  # pairing Gram times den^2
        g = 0
        for a in range(4):
            g = math.gcd(g, gram[a][a])
            for b in range(a + 1, 4):
                g = math.gcd(g, 2 * gram[a][b])
        self.nrd = Fraction(g, den * den)
        self._left_order = None
        self._is_maximal = None

    @staticmethod
    def from_rows(alg: QuatAlgebra, rows) -> "QuatLattice":
        """The lattice spanned by a sequence of elements."""
        den = math.lcm(*(r.den for r in rows))
        return _canonical(alg, [tuple(c * (den // r.den) for c in r.num) for r in rows], den)

    def basis_elements(self) -> tuple:
        return tuple(QuatElement(self.alg, row, self.den) for row in self.mat)

    def _solve(self, num, den: int):
        """Integer x with x * basis = num / den, or None: back-substitution."""
        v = [c * self.den for c in num]  # x * (den * basis matrix) = v
        x = []
        for k, row in enumerate(self.mat):
            xk, r = divmod(v[k], row[k] * den)
            if r:
                return None
            x.append(xk)
            for t in range(k + 1, 4):
                v[t] -= xk * row[t] * den
        return tuple(x)

    def contains(self, el: QuatElement) -> bool:
        return el.alg == self.alg and self._solve(el.num, el.den) is not None

    def coordinates_of(self, el: QuatElement) -> tuple:
        """Integer coordinates of el over the lattice basis."""
        x = self._solve(el.num, el.den) if el.alg == self.alg else None
        if x is None:
            raise ValidationError("element is not in the lattice")
        return x

    def element_from(self, coords) -> QuatElement:
        """sum coords[k] * basis[k], for integer coords."""
        num = tuple(sum(c * row[t] for c, row in zip(coords, self.mat)) for t in range(4))
        return QuatElement(self.alg, num, self.den)

    def q_gram(self) -> lattice.GramForm:
        """The normalised form nrd/nrd(lattice) over the basis.

        Its matrix 2G is the trace pairing trd(a conj(b)) over N(I).
        """
        g0 = int(self.nrd * self.den * self.den)
        return lattice.GramForm._of(
            tuple(tuple(2 * x // g0 for x in row) for row in self.gram_scaled)
        )

    def norm(self) -> int:
        """Integer reduced norm; raises for non-integral lattices."""
        if self.nrd.denominator != 1:
            raise ValidationError("lattice norm is not an integer")
        return self.nrd.numerator

    def __eq__(self, other):
        return (
            isinstance(other, QuatLattice)
            and self.alg == other.alg
            and self.den == other.den
            and self.mat == other.mat
        )

    def __hash__(self):
        return hash((self.alg, self.den, self.mat))

    def __repr__(self):
        return f"QuatLattice(p={self.alg.p}, den={self.den}, mat={self.mat})"

    # --- arithmetic ---

    def _rows_over(self, d: int) -> tuple:
        """The basis rows over the denominator d, a multiple of self.den."""
        return tuple(tuple(c * (d // self.den) for c in row) for row in self.mat)

    def add(self, other: "QuatLattice") -> "QuatLattice":
        self._compat(other)
        d = math.lcm(self.den, other.den)
        return _canonical(self.alg, self._rows_over(d) + other._rows_over(d), d)

    def mul(self, other: "QuatLattice") -> "QuatLattice":
        self._compat(other)
        return _products(self.alg, self.mat, other.mat, self.den * other.den)

    def intersect(self, other: "QuatLattice") -> "QuatLattice":
        self._compat(other)
        d = math.lcm(self.den, other.den)
        meet = linalg.lattice_intersection(self._rows_over(d), other._rows_over(d))
        return _canonical(self.alg, meet, d)

    def scale(self, r) -> "QuatLattice":
        r = Fraction(r)
        rows = [tuple(c * r.numerator for c in row) for row in self.mat]
        return _canonical(self.alg, rows, self.den * r.denominator)

    def mul_right(self, el: QuatElement) -> "QuatLattice":
        if not isinstance(el, QuatElement) or el.alg != self.alg:
            raise ValidationError("algebra mismatch")
        return _products(self.alg, self.mat, (el.num,), self.den * el.den)

    def conj_lattice(self) -> "QuatLattice":
        return _canonical(self.alg, [_conj(row) for row in self.mat], self.den)

    def _compat(self, other):
        if not isinstance(other, QuatLattice) or other.alg != self.alg:
            raise ValidationError("algebra mismatch")

    def index_in(self, other: "QuatLattice") -> int:
        """[other : self] for self a sublattice of other."""
        da = abs(linalg.det_bareiss(self.mat))
        db = abs(linalg.det_bareiss(other.mat))
        r = Fraction(da * other.den**4, db * self.den**4)
        if r.denominator != 1:
            raise ValidationError("not a sublattice")
        return r.numerator

    def is_sublattice_of(self, other: "QuatLattice") -> bool:
        return self.alg == other.alg and all(
            other._solve(row, self.den) is not None for row in self.mat)

    # --- order structure ---

    def is_order(self) -> bool:
        if not self.contains(self.alg.one):
            return False
        d = self.den * self.den
        return all(self._solve(_mul(self.alg, a, b), d) is not None
                   for a in self.mat for b in self.mat)

    def is_maximal_order(self) -> bool:
        """An order whose discriminant det(2 * Gram of nrd) is p^2; memoised."""
        if self._is_maximal is None:
            twog = tuple(tuple(2 * x for x in row) for row in self.gram_scaled)
            self._is_maximal = (self.is_order() and linalg.det_bareiss(twog)
                                == self.alg.p**2 * self.den**8)
        return self._is_maximal

    # --- serialization ---

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.alg.p,
                "q": self.alg.q,
                "den": self.den,
                "basis": [list(row) for row in self.mat],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(s: str) -> "QuatLattice":
        """The lattice to_json wrote; ValidationError on malformed input."""
        d = json.loads(s)
        if not isinstance(d, dict) or not _ints(d.get("p"), d.get("q"), d.get("den")):
            raise ValidationError("p, q and den must be integers")
        alg = construct_algebra(d["p"])
        if d["q"] != alg.q:
            raise ValidationError(f"q must be {alg.q} for p = {alg.p}")
        if d["den"] <= 0:
            raise ValidationError("den must be positive")
        rows = d.get("basis")
        if not (isinstance(rows, list) and len(rows) == 4
                and all(isinstance(r, list) and len(r) == 4 and _ints(*r) for r in rows)):
            raise ValidationError("basis must be a 4x4 integer matrix")
        return _canonical(alg, rows, d["den"])


def _ints(*xs) -> bool:
    return all(type(x) is int for x in xs)


def left_order(lat: QuatLattice) -> QuatLattice:
    """{x : x * lat inside lat}, the intersection of lat * b^-1 over the basis.

    Memoised on lat: later calls return the first call's value.
    """
    if lat._left_order is None:
        # b^-1 = conj(b) / nrd(b), so lat * b^-1 is lat.mat * conj(row) / pair(row, row)
        cands = [_products(lat.alg, lat.mat, (_conj(row),), _pair(lat.alg, row, row))
                 for row in lat.mat]
        lat._left_order = functools.reduce(QuatLattice.intersect, cands)
    return lat._left_order


def right_order(lat: QuatLattice) -> QuatLattice:
    """{x : lat * x inside lat}.

    When the left order of lat is memoised and maximal, lat is invertible
    and conj(lat) * lat = nrd(lat) * O_R(lat) (Voight, Quaternion
    Algebras, ch. 16): one HNF of the 16 products, and O_R(lat) is maximal
    too.  Any other lattice takes the left order of conj(lat): lat * x
    inside lat is conj(x) * conj(lat) inside conj(lat), and an order is
    closed under conjugation.  Both give the same lattice.
    """
    left = lat._left_order
    if left is None or not left.is_maximal_order():
        return left_order(lat.conj_lattice())
    out = _products(lat.alg, [_conj(row) for row in lat.mat], lat.mat, lat.den * lat.den,
                    1 / lat.nrd)
    _ensure(out.is_maximal_order(), "the right order of an invertible lattice is maximal")
    return out


def has_left_order(lat: QuatLattice, order: QuatLattice) -> bool:
    """Whether order is the left order of lat, exactly, on any input.

    The left order stabilises lat, so an order with order * lat outside
    lat is not it.  One that stabilises lat lies inside the left order,
    and a maximal order is maximal under inclusion, so it is the left
    order (Voight, Quaternion Algebras, ch. 10 and 16): 16 products and
    16 back-substitutions, no HNF, and the memo of lat is filled.  Only a
    stabilising non-maximal order falls back to left_order(lat).
    """
    lat._compat(order)
    if lat._left_order is not None:
        return lat._left_order == order
    d = order.den * lat.den
    if not all(lat._solve(_mul(lat.alg, a, b), d) is not None
               for a in order.mat for b in lat.mat):
        return False
    if not order.is_maximal_order():
        return left_order(lat) == order
    lat._left_order = order
    return True


def has_right_order(lat: QuatLattice, order: QuatLattice) -> bool:
    """Whether order is the right order of lat: the left order of conj(lat)."""
    return has_left_order(lat.conj_lattice(), order)


def connecting_ideal(o1: QuatLattice, o2: QuatLattice) -> QuatLattice:
    """The left o1, right o2 ideal joining two maximal orders."""
    if not (o1.is_maximal_order() and o2.is_maximal_order()):
        raise ValidationError("connecting ideal needs maximal orders")
    n = o1.intersect(o2).index_in(o2)
    ideal = _products(o1.alg, o1.mat, o2.mat, o1.den * o2.den, n)
    _ensure(has_left_order(ideal, o1) and has_right_order(ideal, o2),
            "left and right orders of the connecting ideal")
    return ideal


@dataclass(frozen=True)
class SpecialOrder:
    """The distinguished maximal order with its quadratic suborder.

    omega generates R = Z[omega] inside Q(i); f is the principal form of
    disc(R); every s + t*omega + (x + y*omega)*j has reduced norm
    f(s, t) + p * f(x, y).
    """

    alg: QuatAlgebra
    order: QuatLattice
    suborder: QuatLattice
    omega: QuatElement
    f: qform.BinaryQF

    def embed(self, s, t, x, y) -> QuatElement:
        one = self.alg.one
        om = self.omega
        jj = self.alg.j
        return (one * s + om * t) + (one * x + om * y) * jj


@functools.lru_cache(maxsize=16)
def special_order(alg: QuatAlgebra) -> SpecialOrder:
    """The special order of the algebra, built and checked once per algebra."""
    p, q = alg.p, alg.q
    half = Fraction(1, 2)
    if p % 4 == 3:
        rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, half, 0, half), (half, 0, half, 0)]
        omega = alg.i
        f = qform.BinaryQF(1, 0, 1)
    elif p % 8 == 5:
        quarter = Fraction(1, 4)
        rows = [(1, 0, 0, 0), (0, 1, 0, 0), (half, -quarter, 0, quarter), (-half, half, half, 0)]
        omega = alg.i
        f = qform.BinaryQF(1, 0, 2)
    else:
        c = arith.sqrt_mod_prime((-arith.inv_mod(p, q)) % q, q)
        rows = [(half, half, 0, 0), (0, 0, half, half),
                (0, Fraction(1, q), 0, Fraction(c, q)), (0, 0, 0, 1)]
        omega = alg.element(half, half, 0, 0)
        f = qform.BinaryQF(1, 1, (1 + q) // 4)
    order = QuatLattice.from_rows(alg, [alg.element(*r) for r in rows])
    sub = QuatLattice.from_rows(alg, [alg.one, omega, alg.j, omega * alg.j])
    _ensure(order.is_maximal_order(), "the special order is maximal")
    _ensure(sub.is_sublattice_of(order), "the suborder lies in the special order")
    return SpecialOrder(alg, order, sub, omega, f)


def equiv_from_element(ideal: QuatLattice, el: QuatElement) -> QuatLattice:
    """The equivalent ideal ideal * conj(el) / nrd(ideal)."""
    if el.is_zero():
        raise ValidationError("element must be nonzero")
    if not ideal.contains(el):
        raise ValidationError("element must lie in the ideal")
    out = _products(ideal.alg, ideal.mat, (_conj(el.num),), ideal.den * el.den, 1 / ideal.nrd)
    _ensure(out.nrd == el.nrd() / ideal.nrd, "nrd of the equivalent ideal")
    out._left_order = ideal._left_order  # I*x has I's left order
    return out


def equiv_prime_large_nonresidue(ideal: QuatLattice, rho: int, ell: int, rng: random.Random):
    """Equivalent ideal of prime norm N in [rho, rho^2] with (ell/N) = -1.

    Restricts the prime hunt to the sublattice Z x + 4*ell*I (8I when
    ell = 2) where x is chosen so every candidate norm is forced into
    the non-residue classes.  Raises BudgetError when no such x turns up,
    or with qform.sample_prime_large's reason when the hunt fails.
    """
    if not arith.is_prime(ell) or ell == ideal.alg.p:
        raise ValidationError("ell must be a prime different from p")
    if rho <= max(ell, 2):
        raise ValidationError("rho must exceed ell and 2")
    g = ideal.q_gram()
    mod = 8 if ell == 2 else 4 * ell
    x = None
    for _ in range(64 * mod * mod):
        cand = tuple(rng.randrange(mod) for _ in range(4))
        v = g.value_int(cand)
        if ell == 2:
            ok = v % 8 in (3, 5)
        else:
            ok = v % 4 == 1 and arith.kronecker(v, ell) == -1
        if ok:
            x = cand
            break
    if x is None:
        raise BudgetError("no admissible residue class found")
    rows = [x] + [
        tuple(mod if t == k else 0 for t in range(4)) for k in range(4)
    ]
    c = linalg.hnf(rows)
    sub = g.transform(c)
    y, n = qform.sample_prime_large(sub, rho, rng)
    coords = linalg.vec_mat(y, c)
    el = ideal.element_from(coords)
    _ensure(arith.kronecker(ell, n) == -1, "(ell / N) = -1")
    out = equiv_from_element(ideal, el)
    _ensure(out.norm() == n, "norm of the prime-norm ideal")
    return out, el


def ideal_equivalence_test(i1: QuatLattice, i2: QuatLattice):
    """Witness element a with i2 = i1 * conj(a) / nrd(i1), or None.

    Looks for a norm-one vector of the normalised form on conj(i1)*i2;
    one exists exactly when the classes agree.
    """
    if not has_left_order(i2, left_order(i1)):
        raise ValidationError("ideals must share their left order")
    k = _products(i1.alg, [_conj(row) for row in i1.mat], i2.mat, i1.den * i2.den)
    hits = list(lattice.enumerate_by_value(k.q_gram(), 1, lower=1))
    if not hits:
        return None
    gamma = k.element_from(hits[0][0])
    alpha = gamma.conj()
    _ensure(_products(i1.alg, i1.mat, (gamma.num,), i1.den * gamma.den, 1 / i1.nrd) == i2,
            "i1 * gamma / N(i1) = i2")
    return alpha
