"""Binary quadratic forms: reduction, composition, representations.

The oracle style throughout: recompute the claim by exhaustive search
(triple loops over coefficients, box scans over (x, y)) and compare.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from quatpath import arith, lattice
from quatpath.errors import BudgetError, ValidationError
from quatpath.qform import (
    BinaryQF,
    class_group,
    compose,
    compose_with_coords,
    cornacchia,
    fundamental_discriminant,
    prime_form,
    principal_form,
    reduce_form,
    sample_prime_large,
)

from oracles import (
    genus_representation_count,
    representation_count,
    run_under_python_O,
)

FUND_DISCS = [-3, -4, -7, -8, -11, -15, -20, -23, -24, -31, -35, -39, -40, -47]


def brute_reduced_forms(D):
    """Primitive reduced forms of discriminant D by coefficient scan."""
    out = []
    amax = math.isqrt(abs(D) // 3)
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (b == -a or a == c) and b < 0:
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                out.append(BinaryQF(a, b, c))
    return sorted(out, key=lambda f: (f.a, f.b, f.c))


def brute_representations(f, n):
    """All (x, y) with f(x, y) = n, n >= 1."""
    out = []
    bx = math.isqrt(4 * f.c * n // abs(f.disc)) + 2
    by = math.isqrt(4 * f.a * n // abs(f.disc)) + 2
    for x in range(-bx, bx + 1):
        for y in range(-by, by + 1):
            if f.value(x, y) == n:
                out.append((x, y))
    return out


def test_binaryqf_validation():
    BinaryQF(1, 1, 1)
    with pytest.raises(ValidationError):
        BinaryQF(1, 3, 1)  # positive discriminant
    with pytest.raises(ValidationError):
        BinaryQF(-1, 0, -1)  # negative definite
    f = BinaryQF(2, 2, 3)
    assert f.disc == -20 and f.content == 1 and f.is_primitive
    assert BinaryQF(2, 2, 2).content == 2


def test_reduce_form_properties():
    rng = random.Random(40)
    for _ in range(400):
        a = rng.randrange(1, 40)
        b = rng.randrange(-60, 61)
        cmin = (b * b) // (4 * a) + 1
        c = cmin + rng.randrange(0, 40)
        f = BinaryQF(a, b, c)
        red, m = reduce_form(f)
        assert red.is_reduced
        assert f.transform(m) == red
        assert abs(linalg_det2(m)) == 1
        assert red.disc == f.disc
        # idempotent
        red2, m2 = reduce_form(red)
        assert red2 == red


def linalg_det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def test_every_form_reduces_into_the_class_list():
    for D in FUND_DISCS:
        forms = set(brute_reduced_forms(D))
        rng = random.Random(D)
        for _ in range(60):
            # random SL2 scramble of a random reduced form
            f = random.Random(rng.random()).choice(sorted(forms, key=str))
            m = random_sl2(rng)
            red, _ = reduce_form(f.transform(m))
            assert red in forms


def random_sl2(rng, steps=6):
    m = ((1, 0), (0, 1))
    for _ in range(steps):
        k = rng.randrange(-3, 4)
        if rng.randrange(2):
            s = ((1, k), (0, 1))
        else:
            s = ((1, 0), (k, 1))
        m = tuple(
            tuple(sum(m[i][t] * s[t][j] for t in range(2)) for j in range(2))
            for i in range(2)
        )
    return m


def test_class_group_matches_brute_enumeration():
    for D in FUND_DISCS + [-84, -120, -163, -95]:
        cg = class_group(D)
        assert list(cg.forms) == brute_reduced_forms(D)


def test_known_class_numbers():
    # classical values, cross-checked against the coefficient scan above
    for D, h in [(-3, 1), (-4, 1), (-7, 1), (-8, 1), (-11, 1), (-15, 2),
                 (-20, 2), (-23, 3), (-47, 5), (-71, 7), (-95, 8), (-163, 1)]:
        assert class_group(D).h == h == len(brute_reduced_forms(D))


def test_principal_and_prime_forms():
    for D in FUND_DISCS:
        f = principal_form(D)
        assert f.disc == D and f.is_reduced
        assert f.value(1, 0) == 1
        for p in [2, 3, 5, 7, 11, 13]:
            g = prime_form(D, p)
            if arith.kronecker(D, p) != 1:
                assert g is None
                continue
            assert g.a == p and g.disc == D
            red, _ = reduce_form(g)
            assert red in set(class_group(D).forms)


def test_compose_with_coords_value_identity():
    rng = random.Random(41)
    for D in FUND_DISCS:
        cg = class_group(D)
        for _ in range(20):
            f1 = cg.forms[rng.randrange(cg.h)]
            f2 = cg.forms[rng.randrange(cg.h)]
            v1 = (rng.randrange(-5, 6), rng.randrange(-5, 6))
            v2 = (rng.randrange(-5, 6), rng.randrange(-5, 6))
            h, w = compose_with_coords(f1, v1, f2, v2)
            assert h.is_reduced and h.disc == D
            assert h.value(*w) == f1.value(*v1) * f2.value(*v2)


def test_class_group_is_memoised():
    # eqsolver's class divisor tables read the class group of one disc(g)
    # for every target, so a repeat call returns the same immutable object
    assert class_group(-34983) is class_group(-34983)
    assert class_group.cache_info().maxsize == 16  # bounded across targets


def test_class_group_axioms():
    for D in [-23, -47, -84, -95, -120]:
        cg = class_group(D)
        n = cg.h
        table = [[cg.index_of(compose(cg.forms[i], cg.forms[j])) for j in range(n)]
                 for i in range(n)]
        e = cg.identity_index
        for i in range(n):
            assert table[i][e] == table[e][i] == i
            inv = cg.index_of(cg.forms[i].opposite())
            assert table[i][inv] == e
            for j in range(n):
                assert table[i][j] == table[j][i]
                for k in range(n):
                    assert table[table[i][j]][k] == table[i][table[j][k]]


def test_order_of_elements_divides_h():
    for D in [-23, -47, -71, -95]:
        cg = class_group(D)
        for i in range(cg.h):
            k, cur = 1, i
            while cur != cg.identity_index:
                cur = cg.index_of(compose(cg.forms[cur], cg.forms[i]))
                k += 1
            assert cg.h % k == 0


def test_cornacchia_against_brute():
    rng = random.Random(42)
    for D in FUND_DISCS:
        cg = class_group(D)
        for f in cg.forms:
            for n in range(1, 120):
                fz = arith.factor_completely(n)
                got = cornacchia(f, n, fz)
                want = brute_representations(f, n)
                if got is None:
                    assert not want, (D, f, n)
                else:
                    assert f.value(*got) == n
                    assert got in want


def test_cornacchia_input_validation():
    f = principal_form(-4)
    with pytest.raises(ValidationError):
        cornacchia(BinaryQF(2, 2, 2), 4, arith.factor_completely(4))  # imprimitive
    with pytest.raises(ValidationError):
        cornacchia(BinaryQF(5, 4, 1), 5, arith.factor_completely(5))  # not reduced
    with pytest.raises(ValidationError):
        # incomplete factorization is refused
        incomplete = arith.Factorization.from_dict({2: 2}, cofactor=10007)
        cornacchia(f, 10007 * 4, incomplete)
    with pytest.raises(ValidationError):
        # factorization of the wrong number is refused
        cornacchia(f, 10, arith.factor_completely(12))
    assert cornacchia(f, 0, arith.factor_completely(1)) == (0, 0)


def test_fundamental_discriminant():
    rng = random.Random(43)
    for _ in range(300):
        D = -rng.randrange(3, 4000)
        if D % 4 not in (0, 1):
            continue
        d, m = fundamental_discriminant(D)
        assert d * m * m == D
        assert d % 4 in (0, 1)
        # d squarefree odd part, and 4-part minimal
        if d % 4 == 1:
            assert squarefree(abs(d))
        else:
            assert d % 4 == 0 and squarefree(abs(d) // 4) and (d // 4) % 4 in (2, 3)


def squarefree(n):
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def test_representation_counts_match_brute():
    rng = random.Random(44)
    for D in [-4, -7, -20, -23, -24]:
        cg = class_group(D)
        for n in range(1, 80):
            total = 0
            for f in cg.forms:
                r = representation_count(f, n)
                assert r == len(brute_representations(f, n))
                total += r
            assert genus_representation_count(D, n) == total


def test_divisor_sum_identity():
    # sum over the full class list of r(f, N) equals w * sum of chi(d)
    # over divisors of N, for fundamental D coprime to N
    for D in [-4, -3, -7, -8, -20, -23, -40]:
        cg = class_group(D)
        d, _ = fundamental_discriminant(D)
        w = {(-3): 6, (-4): 4}.get(D, 2)
        for n in range(1, 60):
            if math.gcd(n, D) != 1:
                continue
            total = sum(representation_count(f, n) for f in cg.forms)
            chi_sum = sum(arith.kronecker(d, v) for v in range(1, n + 1) if n % v == 0)
            assert total == w * chi_sum, (D, n)


def test_sample_prime_large_window():
    from quatpath.lattice import GramForm

    rng = random.Random(47)
    f2 = GramForm(((1, 0), (0, 1)))
    for rho in (10, 50, 211):
        x, val = sample_prime_large(f2, rho, rng)
        assert f2.value_int(x) == val
        assert rho <= val <= rho * rho
        assert arith.is_prime(val)
    g4 = GramForm(
        ((4, 1, 0, 0), (1, 6, 1, 0), (0, 1, 8, 1), (0, 0, 1, 9))
    )
    for rho in (12, 40):
        x, val = sample_prime_large(g4, rho, rng)
        assert g4.value_int(x) == val
        assert rho <= val <= rho * rho and arith.is_prime(val)
    with pytest.raises(ValidationError):
        sample_prime_large(f2, 1, rng)


def always_missing(form, rho):
    """An ellipsoid_sampler whose every draw misses the window: f(0) = 0."""
    return lambda rng: (0,) * form.rank


def test_sample_prime_large_enumeration_fallback(monkeypatch):
    from quatpath.lattice import GramForm

    # every rejection draw misses, so every result comes from the exact pool
    rng = random.Random(48)
    f = GramForm(((2, Fraction(1, 2)), (Fraction(1, 2), 3)))
    vals = set()
    with monkeypatch.context() as m:
        m.setattr(lattice, "ellipsoid_sampler", always_missing)
        for _ in range(24):
            x, val = sample_prime_large(f, 10, rng)
            assert f.value_int(x) == val
            assert 10 <= val <= 100 and arith.is_prime(val)
            vals.add(val)
    assert len(vals) > 1
    # x^2 + 15y^2 takes 4, 9, 15 and 16 in [4, 16], none of them prime, so
    # the draws miss unpatched
    with pytest.raises(BudgetError, match="holds no prime"):
        sample_prime_large(GramForm(((1, 0), (0, 15))), 4, rng)


# 2G of a form the equivalence search hunted a prime norm in, at
# p = 4294967357 with n2 = 5^65: its window [463075, 463075^2] holds few
# primes, and the tree of all points below 463075^2 has millions of nodes
SPARSE_WINDOW_2G = (
    (562640723770, 326417519136, 481036343984, 618475299408),
    (326417519136, 206158433152, 274877910848, 274877910848),
    (481036343984, 274877910848, 412316866272, 549755821696),
    (618475299408, 274877910848, 549755821696, 1099511643392),
)


def test_sample_prime_large_sparse_window_is_bounded(monkeypatch):
    from quatpath.lattice import GramForm

    f = GramForm(tuple(tuple(Fraction(v, 2) for v in row) for row in SPARSE_WINDOW_2G))
    monkeypatch.setattr(lattice, "ellipsoid_sampler", always_missing)
    start = time.process_time()
    with pytest.raises(BudgetError, match="too large to enumerate"):
        sample_prime_large(f, 463075, random.Random(2))
    assert time.process_time() - start < 2


def test_cornacchia_root_cap():
    # z, a product of 17 primes 1 mod 4, has 2^18 square roots of -4 mod 4z
    primes = [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113, 137, 149, 157]
    fz = arith.Factorization(tuple((q, 1) for q in primes), 1)
    with pytest.raises(BudgetError, match="square-root count"):
        cornacchia(BinaryQF(1, 0, 1), fz.value(), fz)


def postcondition_under_python_O(patch, call):
    """What call prints under python -O after patch: its value or its
    AssertionError."""
    run = run_under_python_O(f"""
from quatpath import qform
from quatpath.arith import Factorization
{patch}
try:
    print("returned", {call})
except AssertionError as e:
    print("AssertionError:", e)
""")
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_reduce_form_postcondition_holds_under_python_O():
    # a reduction whose transform misses the reduced form raises, asserts
    # compiled away or not
    got = postcondition_under_python_O(
        "qform.lattice.reduce_binary = lambda a, b, c: ((a, b, c), ((1, 0), (1, 1)))",
        "qform.reduce_form(qform.BinaryQF(1, 0, 1))")
    assert got == "AssertionError: postcondition failed: f o m is the reduced form"


def test_compose_postcondition_holds_under_python_O():
    # so does a composition off a concordant pair with the wrong C
    got = postcondition_under_python_O(
        "conc = qform._concordant\n"
        "qform._concordant = lambda f1, f2: (lambda a1, a2, B, C, m1, m2: "
        "(a1, a2, B, C + 1, m1, m2))(*conc(f1, f2))",
        "qform.compose_with_coords(qform.BinaryQF(2, 1, 3), (1, 1), qform.BinaryQF(2, -1, 3), (1, 0))")
    assert got == ("AssertionError: postcondition failed: "
                   "the composed form represents f1(v1) * f2(v2)")


def test_concordant_postcondition_holds_under_python_O():
    # and a concordant pair whose transforms dropped the aligning shear
    got = postcondition_under_python_O(
        "qform._mul2 = lambda m, n: m",
        "qform.compose_with_coords(qform.BinaryQF(2, 1, 3), (1, 1), qform.BinaryQF(2, -1, 3), (1, 0))")
    assert got == "AssertionError: postcondition failed: fi o mi is the concordant pair"


def test_cornacchia_postcondition_holds_under_python_O():
    # and a representation read off a wrong reduction transform
    got = postcondition_under_python_O(
        "rf = qform.reduce_form\n"
        "qform.reduce_form = lambda g: (rf(g)[0], ((1, 0), (0, 1)))",
        "qform.cornacchia(qform.BinaryQF(1, 0, 1), 5, Factorization(((5, 1),), 1))")
    assert got == "AssertionError: postcondition failed: f(s, t) = z"


@pytest.mark.parametrize("patch, call, what", [
    ("qform.arith.sqrt_mod_prime = lambda a, p: 1",
     "qform.prime_form(-23, 13)", "4p divides b^2 - D"),
    ("qform.arith.inv_mod = lambda a, m: 0",
     "qform.compose_with_coords(qform.BinaryQF(2, 1, 3), (1, 1), qform.BinaryQF(2, -1, 3), (1, 0))",
     "4 a1 a2 divides B^2 - D"),
    ("qform.arith.factor_completely = lambda n: Factorization(((n, 1),), 1)",
     "qform.fundamental_discriminant(-20)", "D / m^2 = 2 or 3 mod 4 leaves m even"),
], ids=["prime_form", "_concordant", "fundamental_discriminant"])
def test_internal_invariants_hold_under_python_O(patch, call, what):
    # a wrong square root, inverse or factorization breaks an invariant of
    # prime_form, _concordant or fundamental_discriminant, which no bare
    # assert guards since python -O would strip it
    assert postcondition_under_python_O(patch, call) == f"AssertionError: postcondition failed: {what}"
