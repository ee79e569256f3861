"""Binary quadratic forms over Z.

Reduction with explicit SL2(Z) transforms, Gauss composition carrying
representations, Cornacchia-style representation solving, class-group
enumeration (no genus data: eqsolver reads a form's genus off its unit
values mod |disc|), and a sampler that hunts for prime values in a
window [rho, rho^2] of a positive definite form of any rank.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from . import arith, lattice
from .errors import BudgetError, ValidationError, _ensure


@dataclass(frozen=True)
class BinaryQF:
    """f(x, y) = a x^2 + b xy + c y^2 with D = b^2 - 4ac < 0 and a > 0."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.b * self.b - 4 * self.a * self.c >= 0:
            raise ValidationError("discriminant must be negative")
        if self.a <= 0:
            raise ValidationError("leading coefficient must be positive")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self) -> int:
        return math.gcd(math.gcd(self.a, self.b), self.c)

    @property
    def is_primitive(self) -> bool:
        return self.content == 1

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def opposite(self) -> "BinaryQF":
        """Inverse class: (a, -b, c)."""
        return BinaryQF(self.a, -self.b, self.c)

    def transform(self, m) -> "BinaryQF":
        """f composed with the column action of a 2x2 integer matrix m."""
        a, b, c = self.a, self.b, self.c
        p, q = m[0]
        r, s = m[1]
        return BinaryQF(
            self.value(p, r),
            2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
            self.value(q, s),
        )


def _mul2(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def _inv2(m):
    d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return ((m[1][1] * d, -m[0][1] * d), (-m[1][0] * d, m[0][0] * d))


def _apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


_ID2 = ((1, 0), (0, 1))


def reduce_form(f: BinaryQF) -> tuple[BinaryQF, tuple]:
    """Reduced representative plus m in SL2(Z) with reduced = f o m."""
    (a, b, c), u = lattice.reduce_binary(f.a, f.b, f.c)
    m = ((u[0][0], u[1][0]), (u[0][1], u[1][1]))
    red = BinaryQF(a, b, c)
    _ensure(f.transform(m) == red, "f o m is the reduced form")
    return red, m


def principal_form(D: int) -> BinaryQF:
    _check_disc(D)
    if D % 4 == 0:
        return BinaryQF(1, 0, -D // 4)
    return BinaryQF(1, 1, (1 - D) // 4)


def prime_form(D: int, p: int) -> BinaryQF | None:
    """A form (p, b, c) of discriminant D, or None when p does not split."""
    _check_disc(D)
    if arith.kronecker(D, p) != 1:
        return None
    if p == 2:
        b = 1  # split at 2 forces D = 1 mod 8
    else:
        b = arith.sqrt_mod_prime(D % p, p)
        if (b - D) % 2:
            b = p - b
    c4 = b * b - D
    _ensure(c4 % (4 * p) == 0, "4p divides b^2 - D")
    return BinaryQF(p, b, c4 // (4 * p))


def _check_disc(D: int):
    if D >= 0 or D % 4 not in (0, 1):
        raise ValidationError(f"{D} is not a negative discriminant")


def _coprime_part(t: int, a: int) -> int:
    """Largest divisor of t coprime to a."""
    while True:
        g = math.gcd(t, a)
        if g == 1:
            return t
        t //= g


def _coprime_leading_transform(f: BinaryQF, t: int):
    """m in SL2(Z) such that (f o m)(1, 0) is coprime to t.

    Chooses, prime by prime, one of (1,0), (0,1), (1,1) where f does not
    vanish; the split of t into the three cases only needs gcds, not a
    factorization of t.
    """
    if t == 1 or math.gcd(f.a, t) == 1:
        return _ID2
    ta = _coprime_part(t, f.a)
    rest = t // ta
    tc = _coprime_part(rest, f.c)
    tb = rest // tc
    x, _ = arith.crt([1, 0, 1], [ta, tc, tb])
    y, _ = arith.crt([0, 1, 1], [ta, tc, tb])
    g = math.gcd(x, y)
    if g > 1:
        x, y = x // g, y // g
    _, u, v = arith.xgcd(x, y)
    m = ((x, -v), (y, u))
    _ensure(math.gcd(f.transform(m).a, t) == 1, "(f o m)(1, 0) is coprime to t")
    return m


def _concordant(f1: BinaryQF, f2: BinaryQF):
    """Equivalent pair (a1, B, a2*C), (a2, B, a1*C) with gcd(a1, a2) = 1.

    Returns (a1, a2, B, C, m1, m2) where fi o mi is the stated form.
    """
    D = f1.disc
    m1 = _coprime_leading_transform(f1, 2 * abs(D))
    g1 = f1.transform(m1)
    m2 = _coprime_leading_transform(f2, 2 * abs(D) * g1.a)
    g2 = f2.transform(m2)
    a1, a2 = g1.a, g2.a
    # align middle coefficients: B = b1 mod 2a1 and B = b2 mod 2a2
    k = (((g2.b - g1.b) // 2) * arith.inv_mod(a1, a2)) % a2
    B = g1.b + 2 * a1 * k
    m1 = _mul2(m1, ((1, k), (0, 1)))
    t2 = (B - g2.b) // (2 * a2)
    m2 = _mul2(m2, ((1, t2), (0, 1)))
    C4 = B * B - D
    _ensure(C4 % (4 * a1 * a2) == 0, "4 a1 a2 divides B^2 - D")
    C = C4 // (4 * a1 * a2)
    _ensure(f1.transform(m1) == BinaryQF(a1, B, a2 * C)
            and f2.transform(m2) == BinaryQF(a2, B, a1 * C), "fi o mi is the concordant pair")
    return a1, a2, B, C, m1, m2


def _require_composable(f1: BinaryQF, f2: BinaryQF):
    if f1.disc != f2.disc:
        raise ValidationError("discriminant mismatch")
    if not (f1.is_primitive and f2.is_primitive):
        raise ValidationError("composition needs primitive forms")


def compose_with_coords(f1: BinaryQF, v1, f2: BinaryQF, v2) -> tuple[BinaryQF, tuple]:
    """Gauss composition carrying representations.

    Returns (h, w) with h reduced, [h] = [f1][f2], and
    h(w) = f1(v1) * f2(v2).
    """
    _require_composable(f1, f2)
    a1, a2, B, C, m1, m2 = _concordant(f1, f2)
    w1 = _apply(_inv2(m1), v1)
    w2 = _apply(_inv2(m2), v2)
    # bilinear product identity for a concordant pair
    X = w1[0] * w2[0] - C * w1[1] * w2[1]
    Y = a1 * w1[0] * w2[1] + a2 * w2[0] * w1[1] + B * w1[1] * w2[1]
    comp = BinaryQF(a1 * a2, B, C)
    _ensure(comp.value(X, Y) == f1.value(*v1) * f2.value(*v2),
            "the composed form represents f1(v1) * f2(v2)")
    red, m3 = reduce_form(comp)
    return red, _apply(_inv2(m3), (X, Y))


def compose(f1: BinaryQF, f2: BinaryQF) -> BinaryQF:
    """Reduced representative of the composed class."""
    red, _ = compose_with_coords(f1, (1, 0), f2, (1, 0))
    return red


def cornacchia(f: BinaryQF, z: int, fz: arith.Factorization):
    """Solve f(s, t) = z given the factorization of z, or return None.

    Walks every square divisor e^2 | z and every square root B of
    disc(f) mod 4(z/e^2); a representation exists iff one of the forms
    (z/e^2, B, *) reduces to f.
    """
    if not f.is_primitive or not f.is_reduced:
        raise ValidationError("a primitive reduced form is required")
    if z == 0:
        return (0, 0)
    if z < 0:
        return None
    if not fz.complete:
        raise ValidationError("incomplete factorization rejected")
    if fz.value() != z:
        raise ValidationError("factorization does not match z")
    D = f.disc
    fdict = dict(fz.factors)
    for e, zp_exps in _square_divisors(fdict):
        zp = z // (e * e)
        four_zp = {p: k for p, k in zp_exps.items() if k > 0}
        four_zp[2] = four_zp.get(2, 0) + 2
        seen = set()
        for r in arith.sqrt_mod_factored(D, four_zp.items()):
            B = r % (2 * zp)
            if B in seen:
                continue
            seen.add(B)
            g = BinaryQF(zp, B, (B * B - D) // (4 * zp))
            red, m = reduce_form(g)
            if red == f:
                s, t = _apply(_inv2(m), (1, 0))
                _ensure(f.value(e * s, e * t) == z, "f(s, t) = z")
                return (e * s, e * t)
    return None


def _square_divisors(fdict: dict) -> list:
    """Every (e, exps) with e^2 dividing the factored value, e ascending;
    exps maps each prime of fdict to its exponent in the value / e^2."""
    out = [(1, {})]
    for p, k in fdict.items():
        out = [(d * p**i, {**exps, p: k - 2 * i})
               for d, exps in out for i in range(k // 2 + 1)]
    return sorted(out, key=lambda pair: pair[0])


def fundamental_discriminant(D: int) -> tuple[int, int]:
    """Write D = d * m^2 with d fundamental; returns (d, m)."""
    _check_disc(D)
    fac = arith.factor_completely(abs(D))
    m = 1
    for p, e in fac.factors:
        m *= p ** (e // 2)
    s = D // (m * m)
    if s % 4 == 1:
        return s, m
    _ensure(m % 2 == 0, "D / m^2 = 2 or 3 mod 4 leaves m even")
    return 4 * s, m // 2


class ClassGroup:
    """Every reduced primitive form of one negative discriminant.

    Immutable after construction; classes compose through compose and
    index_of.  No genus partition is stored: eqsolver decides a genus by
    the unit residues mod |disc| a form takes.
    """

    def __init__(self, disc: int, forms: tuple):
        self.disc = disc
        self.forms = forms
        self.h = len(forms)
        self._index = {f: i for i, f in enumerate(forms)}
        self.identity_index = self._index[reduce_form(principal_form(disc))[0]]

    def index_of(self, f: BinaryQF) -> int:
        red, _ = reduce_form(f)
        try:
            return self._index[red]
        except KeyError:
            raise ValidationError(
                "form is not a primitive form of this discriminant"
            ) from None


# Class groups kept for reuse: eqsolver's class divisor tables read the
# class group of the same disc(g) for every target n.
_CLASS_GROUP_CACHE = 16


@functools.lru_cache(maxsize=_CLASS_GROUP_CACHE)
def class_group(D: int) -> ClassGroup:
    """Enumerate all reduced primitive forms of discriminant D, |D| <= 10^7.

    Memoised on D: a repeat call returns the same, immutable ClassGroup.
    """
    _check_disc(D)
    if abs(D) > 10**7:
        raise BudgetError(f"|D| = {abs(D)} over the enumeration bound 10^7")
    forms = []
    amax = math.isqrt(abs(D) // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            forms.append(BinaryQF(a, b, c))
    forms.sort(key=lambda f: (f.a, f.b, f.c))
    return ClassGroup(D, tuple(forms))


def _form_content(form: lattice.GramForm) -> int:
    """The content of f: the gcd of the diagonal of G and of 2G off it."""
    m = form.m
    return math.gcd(*(m[i][j] if i != j else m[i][i] // 2
                      for i in range(form.rank) for j in range(form.rank)))


def sample_prime_large(f: lattice.GramForm, rho: int, rng: random.Random) -> tuple[tuple, int]:
    """Random x with f(x) a prime in [rho, rho^2], for any rank.

    Rejects from the full-rank ellipsoid first, 32 draws per bit of rho^2
    (about 46*ln(rho^2), where the prime number theorem expects a prime
    every ln(rho^2) in-window draws), then decides a sparse window by
    exact enumeration: BudgetError "prime window holds no prime" when it
    has none, "prime window too large to enumerate" past the node budget.
    """
    if _form_content(f) != 1:
        raise ValidationError("a primitive form is required")
    if rho < 2:
        raise ValidationError("rho must be at least 2")
    hi = rho * rho
    draw = lattice.ellipsoid_sampler(f, hi)
    try:
        for _ in range(32 * hi.bit_length()):
            x = draw(rng)
            val = f.value_int(x)
            if rho <= val <= hi and arith.is_prime(val):
                return x, val
    except BudgetError:
        pass
    try:
        pool = [(x, val) for x, val in lattice.enumerate_by_value(f, hi, lower=rho)
                if arith.is_prime(val)]
    except BudgetError:
        raise BudgetError("prime window too large to enumerate") from None
    if not pool:
        raise BudgetError("prime window holds no prime")
    return pool[rng.randrange(len(pool))]
