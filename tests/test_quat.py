"""Quaternion algebra, orders, ideals, and equivalent-ideal search."""

import json
import math
import random
from fractions import Fraction

import pytest

from quatpath import arith, klpt, linalg, quat
from quatpath.arith import Factorization
from quatpath.errors import ValidationError
from quatpath.quat import (
    QuatElement,
    QuatLattice,
    connecting_ideal,
    construct_algebra,
    equiv_from_element,
    equiv_prime_large_nonresidue,
    ideal_equivalence_test,
    left_order,
    right_order,
    special_order,
)

from oracles import inverse, mul_right_scaled, right_order_by_intersection, run_under_python_O

PRIMES = [13, 37, 97, 101, 103, 1019]


def random_left_ideal(so, N, rng):
    """Left ideal of the special order with prime reduced norm N."""
    o0 = so.order
    while True:
        el = o0.element_from(tuple(rng.randrange(N) for _ in range(4)))
        if el.nrd() % N == 0:
            co = o0.coordinates_of(el)
            if all(c % N == 0 for c in co):
                continue
            ideal = o0.scale(N).add(o0.mul_right(el))
            if ideal.nrd == N:
                return ideal


def split_prime(alg, lo, rng):
    """A prime where the algebra splits nontrivially, usable as ideal norm."""
    while True:
        n = arith.next_prime(rng.randrange(lo, 4 * lo))
        if n != alg.p and n != 2:
            return n


def test_construct_algebra_parameter_table():
    for p, q in [(103, 1), (1019, 1), (13, 2), (37, 2), (101, 2), (97, 7)]:
        alg = construct_algebra(p)
        assert alg.q == q
        if q > 2:
            assert q % 4 == 3 and arith.kronecker(p, q) == -1
    with pytest.raises(ValidationError):
        construct_algebra(15)
    with pytest.raises(ValidationError):
        construct_algebra(2)


def test_element_multiplication_table():
    alg = construct_algebra(103)
    i, j, ij = alg.i, alg.j, alg.ij
    assert i * i == alg.element(-alg.q, 0, 0, 0)
    assert j * j == alg.element(-alg.p, 0, 0, 0)
    assert i * j == ij
    assert j * i == -ij
    assert (alg.one + i + j + ij).nrd() == 208
    assert ij.nrd() == alg.q * alg.p


def test_element_algebra_laws():
    rng = random.Random(60)
    for p in (103, 101, 97):
        alg = construct_algebra(p)
        for _ in range(150):
            a, b, c = (
                alg.element(
                    *[Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(4)]
                )
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).nrd() == a.nrd() * b.nrd()
            assert (a * b).conj() == b.conj() * a.conj()
            assert a.trd() == a.coords[0] * 2
            assert a + a.conj() == alg.element(a.trd(), 0, 0, 0)
            # pairing is the polarization of nrd
            assert (a + b).nrd() == a.nrd() + b.nrd() + 2 * a.pairing(b)
            if not a.is_zero():
                assert a * inverse(a) == alg.one


def rand_rational(rng):
    return Fraction(rng.randrange(-60, 61), rng.randrange(1, 40))


def test_elements_are_integers_over_one_denominator():
    rng = random.Random(75)
    for p in (103, 101, 97):
        alg = construct_algebra(p)
        for _ in range(300):
            fr = [rand_rational(rng) for _ in range(4)]
            el = alg.element(*fr)
            assert all(type(c) is int for c in el.num) and type(el.den) is int
            assert el.den > 0 and math.gcd(el.den, *el.num) == 1
            assert el.den == math.lcm(*(f.denominator for f in fr))
            assert el.coords == tuple(fr)
            # coords round-trips through the algebra's constructor
            assert alg.element(*el.coords) == el
            # arithmetic results are in lowest terms as well
            other = alg.element(*[rand_rational(rng) for _ in range(4)])
            for out in (el + other, el - other, el * other, el * rand_rational(rng)):
                assert out.den > 0 and math.gcd(out.den, *out.num) == 1
    with pytest.raises(ValidationError):
        QuatElement(alg, (1, 0, 0, 0), 0)


def test_equal_values_compare_and_hash_equal():
    alg = construct_algebra(103)
    half = alg.element(Fraction(1, 2), 0, 0, 0)
    pairs = [
        (half, alg.one * Fraction(2, 4)),
        (half, Fraction(3, 6) * alg.one),
        (half, QuatElement(alg, (-3, 0, 0, 0), 1) * Fraction(-1, 6)),
        (alg.element(0, Fraction(1, 2), 0, 0), (alg.i * 2) * Fraction(1, 4)),
        (alg.element(0, 0, 0, 0), half - half),
        (alg.one, inverse(alg.i + alg.j) * (alg.i + alg.j)),
        (QuatElement(alg, (4, 6, 8, 10), 4), alg.element(1, Fraction(3, 2), 2, Fraction(5, 2))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert (a.num, a.den) == (b.num, b.den)


def fraction_coordinates(lat, el):
    """Coordinates of el over lat's basis by a Fraction inverse (test oracle)."""
    basis = tuple(tuple(Fraction(c, lat.den) for c in row) for row in lat.mat)
    return linalg.vec_mat(el.coords, linalg.inverse_fraction(basis))


def test_membership_agrees_with_fraction_oracle():
    rng = random.Random(76)
    for p in (103, 101, 97):
        alg = construct_algebra(p)
        so = special_order(alg)
        lats = [so.order, so.suborder, random_left_ideal(so, 13, rng)]
        lats.append(right_order(lats[-1]))
        for lat in lats:
            cands = []
            for _ in range(40):
                co = tuple(rng.randrange(-30, 31) for _ in range(4))
                el = lat.element_from(co)
                cands.append(el)  # member
                cands.append(el * Fraction(1, rng.choice([2, 3, 5, 7])))  # wrong denominator
                cands.append(QuatElement(alg, co, lat.den))  # off-lattice integers
                cands.append(QuatElement(alg, co, 1))
            for el in cands:
                x = fraction_coordinates(lat, el)
                inside = all(c.denominator == 1 for c in x)
                assert lat.contains(el) == inside
                if inside:
                    assert lat.coordinates_of(el) == tuple(int(c) for c in x)
                else:
                    with pytest.raises(ValidationError):
                        lat.coordinates_of(el)
            assert not lat.contains(construct_algebra(1019).one)


def test_nrd_multiplicative_bulk():
    # the load-bearing identity, hammered over a large sample
    rng = random.Random(61)
    alg = construct_algebra(1019)
    for _ in range(2500):
        a = alg.element(*[rng.randrange(-50, 51) for _ in range(4)])
        b = alg.element(*[rng.randrange(-50, 51) for _ in range(4)])
        assert (a * b).nrd() == a.nrd() * b.nrd()


def test_special_order_all_congruence_classes():
    for p in PRIMES:
        alg = construct_algebra(p)
        so = special_order(alg)
        assert so.order.is_maximal_order()
        assert so.order.nrd == 1
        # suborder sits inside with finite integer index
        assert so.suborder.is_sublattice_of(so.order)
        assert so.suborder.index_in(so.order) >= 1
        # omega generates the right quadratic ring
        om = so.omega
        D = so.f.disc
        assert om * om - alg.element(om.trd(), 0, 0, 0) * om + alg.element(
            om.nrd(), 0, 0, 0
        ) == alg.element(0, 0, 0, 0)
        assert om.trd() ** 2 - 4 * om.nrd() == D


def test_special_order_norm_law():
    rng = random.Random(62)
    for p in PRIMES:
        alg = construct_algebra(p)
        so = special_order(alg)
        for _ in range(40):
            s, t, x, y = (rng.randrange(-9, 10) for _ in range(4))
            el = so.embed(s, t, x, y)
            assert el.nrd() == so.f.value(s, t) + p * so.f.value(x, y)


def test_lattice_canonical_form():
    rng = random.Random(63)
    alg = construct_algebra(103)
    so = special_order(alg)
    o0 = so.order
    for _ in range(60):
        # regenerate from random unimodular recombinations: same lattice,
        # bitwise-equal canonical data
        basis = list(o0.basis_elements())
        rows = []
        for _ in range(6):
            v = [rng.randrange(-3, 4) for _ in range(4)]
            rows.append(sum((b * c for b, c in zip(basis, v)), alg.element(0, 0, 0, 0)))
        cand = QuatLattice.from_rows(alg, rows + list(basis))
        assert cand == o0
        assert cand.den == o0.den and cand.mat == o0.mat
    with pytest.raises(ValidationError):
        QuatLattice.from_rows(alg, [alg.one, alg.i, alg.one + alg.i, alg.i * 2])


def test_lattice_membership_and_coordinates():
    rng = random.Random(64)
    alg = construct_algebra(101)
    so = special_order(alg)
    o0 = so.order
    for _ in range(100):
        co = tuple(rng.randrange(-9, 10) for _ in range(4))
        el = o0.element_from(co)
        assert o0.contains(el)
        assert o0.coordinates_of(el) == co
    assert not o0.contains(alg.element(Fraction(1, 3), 0, 0, 0))


def test_json_round_trip():
    rng = random.Random(65)
    alg = construct_algebra(103)
    so = special_order(alg)
    for N in (5, 13, 29):
        ideal = random_left_ideal(so, N, rng)
        s = ideal.to_json()
        back = QuatLattice.from_json(s)
        assert back == ideal
        assert back.to_json() == s
        # any integer basis over any denominator reads back canonically
        d = json.loads(s)
        b = d["basis"]
        rows = [[x + 3 * y for x, y in zip(b[0], b[2])], b[1], b[2], [-x for x in b[3]]]
        d.update(den=5 * d["den"], basis=[[5 * x for x in r] for r in rows])
        assert QuatLattice.from_json(json.dumps(d)) == ideal


O0_103 = json.loads(special_order(construct_algebra(103)).order.to_json())


def with_entry(key, value):
    return json.dumps({**O0_103, key: value})


def with_basis(fn):
    return with_entry("basis", fn([list(r) for r in O0_103["basis"]]))


MALFORMED_JSON = {
    "p=4": with_entry("p", 4),
    "p=2": with_entry("p", 2),
    "p=str": with_entry("p", "103"),
    "q=5": with_entry("q", 5),
    "q=true": with_entry("q", True),
    "den=0": with_entry("den", 0),
    "den=-2": with_entry("den", -2),
    "den=float": with_entry("den", 2.0),
    "float-entry": with_basis(lambda b: [[float(b[0][0])] + b[0][1:]] + b[1:]),
    "3-rows": with_basis(lambda b: b[:3]),
    "3-columns": with_basis(lambda b: [r[:3] for r in b]),
    "singular": with_basis(lambda b: [b[0], b[0], b[2], b[3]]),
    "not-an-object": json.dumps([103, 1]),
    "no-basis": json.dumps({k: v for k, v in O0_103.items() if k != "basis"}),
}


@pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON.keys())
def test_from_json_rejects_malformed_input(text):
    with pytest.raises(ValidationError):
        QuatLattice.from_json(text)


def test_orders_are_their_own_stabilizers():
    for p in (103, 101, 97):
        alg = construct_algebra(p)
        o0 = special_order(alg).order
        assert left_order(o0) == o0
        assert right_order(o0) == o0
        # a conjugated maximal order is again maximal with itself as stabilizer
        g = alg.element(1, 2, 0, 1)
        og = QuatLattice.from_rows(alg, [g * b * inverse(g) for b in o0.basis_elements()])
        assert og.is_maximal_order()
        assert left_order(og) == og


def test_ideal_invariants():
    rng = random.Random(66)
    for p in (103, 1019):
        alg = construct_algebra(p)
        so = special_order(alg)
        o0 = so.order
        for _ in range(12):
            N = split_prime(alg, 5, rng)
            ideal = random_left_ideal(so, N, rng)
            assert ideal.norm() == N
            assert left_order(ideal) == o0
            assert right_order(ideal).is_maximal_order()
            # quotient size is the square of the norm
            assert ideal.index_in(o0) == N * N
            # ideal times its conjugate recovers the left order, scaled
            assert ideal.mul(ideal.conj_lattice()) == o0.scale(N)
            # normalized Gram is integral, primitive, with det(2G) = p^2
            g = ideal.q_gram()
            assert linalg.det_bareiss(g.m) == p * p
            vals = [g.m[k][k] // 2 for k in range(4)] + [
                g.m[a][b] for a in range(4) for b in range(a + 1, 4)
            ]
            assert math.gcd(*vals) == 1


def test_ideal_sum_product_intersection():
    rng = random.Random(67)
    alg = construct_algebra(103)
    so = special_order(alg)
    o0 = so.order
    i1 = random_left_ideal(so, 5, rng)
    i2 = random_left_ideal(so, 13, rng)
    s = i1.add(i2)
    assert i1.is_sublattice_of(s) and i2.is_sublattice_of(s)
    inter = i1.intersect(i2)
    assert inter.is_sublattice_of(i1) and inter.is_sublattice_of(i2)
    # coprime norms: the sum is the whole order, the intersection has
    # norm N1 * N2
    assert s == o0
    assert inter.norm() == 65


def test_nrd_multiplicative_on_ideal_products():
    rng = random.Random(68)
    alg = construct_algebra(103)
    so = special_order(alg)
    o0 = so.order
    for _ in range(10):
        i1 = random_left_ideal(so, split_prime(alg, 5, rng), rng)
        # compatible second factor: a right ideal of O_R(i1)
        orr = right_order(i1)
        el = None
        N2 = split_prime(alg, 5, rng)
        while True:
            cand = orr.element_from(tuple(rng.randrange(N2) for _ in range(4)))
            if cand.nrd() % N2 == 0:
                co = orr.coordinates_of(cand)
                if not all(c % N2 == 0 for c in co):
                    el = cand
                    break
        i2 = orr.scale(N2).add(orr.mul_right(el))
        if i2.nrd != N2:
            continue
        prod = i1.mul(i2)
        assert prod.norm() == i1.norm() * i2.norm()


def test_connecting_ideal():
    rng = random.Random(69)
    alg = construct_algebra(103)
    so = special_order(alg)
    o0 = so.order
    assert connecting_ideal(o0, o0) == o0
    for _ in range(6):
        ideal = random_left_ideal(so, split_prime(alg, 5, rng), rng)
        o2 = right_order(ideal)
        conn = connecting_ideal(o0, o2)
        assert left_order(conn) == o0 and right_order(conn) == o2
        n = o0.intersect(o2).index_in(o2)
        assert n % conn.norm() == 0
        # the connecting ideal is equivalent to the one that built o2
        assert ideal_equivalence_test(conn, ideal) is not None
    with pytest.raises(ValidationError):
        connecting_ideal(o0, o0.scale(2))


def test_equiv_from_element():
    rng = random.Random(70)
    alg = construct_algebra(103)
    so = special_order(alg)
    ideal = random_left_ideal(so, 13, rng)
    el = ideal.basis_elements()[2]
    out = equiv_from_element(ideal, el)
    assert out.nrd == el.nrd() / ideal.nrd
    assert left_order(out) == left_order(ideal)
    with pytest.raises(ValidationError):
        equiv_from_element(ideal, alg.element(0, 0, 0, 0))
    with pytest.raises(ValidationError):
        equiv_from_element(ideal, alg.element(Fraction(1, 7), 0, 0, 0))


def test_equiv_prime_large_nonresidue():
    rng = random.Random(72)
    alg = construct_algebra(103)
    so = special_order(alg)
    ideal = random_left_ideal(so, 13, rng)
    for ell in (2, 3, 5):
        out, el = equiv_prime_large_nonresidue(ideal, 60, ell, rng)
        n = out.norm()
        assert arith.is_prime(n)
        assert 60 <= n <= 3600
        assert arith.kronecker(ell, n) == -1
        if ell == 2:
            assert n % 8 in (3, 5)
    with pytest.raises(ValidationError):
        equiv_prime_large_nonresidue(ideal, 60, 103, rng)  # ell = p
    with pytest.raises(ValidationError):
        equiv_prime_large_nonresidue(ideal, 2, 3, rng)  # window floor


def test_ideal_equivalence_relation_consistency():
    rng = random.Random(73)
    alg = construct_algebra(103)
    so = special_order(alg)
    ideals = [random_left_ideal(so, split_prime(alg, 5, rng), rng) for _ in range(7)]
    # reflexive
    for ideal in ideals:
        assert ideal_equivalence_test(ideal, ideal) is not None
    rel = {}
    for a in range(len(ideals)):
        for b in range(len(ideals)):
            rel[a, b] = ideal_equivalence_test(ideals[a], ideals[b]) is not None
    for a in range(len(ideals)):
        for b in range(len(ideals)):
            assert rel[a, b] == rel[b, a]
            for c in range(len(ideals)):
                if rel[a, b] and rel[b, c]:
                    assert rel[a, c]
    # at p = 103 the class set has more than one class: with seven random
    # prime-norm ideals, inequivalent pairs must show up
    assert not all(rel.values())


def test_left_order_is_memoised_on_the_lattice():
    o0 = special_order(construct_algebra(103)).order
    spec = klpt.WalkSpec.from_norm(Factorization(((5, 1), (7, 1)), 1))
    ideal = klpt.random_walk(o0, spec, random.Random(75))
    first = left_order(ideal)
    assert left_order(ideal) is first
    # an equal lattice built afresh computes the same order on its own
    assert left_order(QuatLattice.from_json(ideal.to_json())) == first == o0


def test_equivalence_rejects_different_left_orders_once_memoised():
    # conj(I) has I's right order as its left order; both left orders are
    # memoised before the test, which must still compare them
    o0 = special_order(construct_algebra(103)).order
    spec = klpt.WalkSpec.from_norm(Factorization(((5, 1), (7, 1)), 1))
    ideal = klpt.random_walk(o0, spec, random.Random(76))
    conj = ideal.conj_lattice()
    assert left_order(ideal) == o0
    assert left_order(conj) == right_order(ideal) != o0
    with pytest.raises(ValidationError, match="share their left order"):
        ideal_equivalence_test(ideal, conj)


def test_equivalence_rejects_different_left_orders_on_fresh_lattices():
    # the same pair rebuilt from JSON: neither left order is memoised, so
    # ideal_equivalence_test computes I's and certifies conj(I) against it
    o0 = special_order(construct_algebra(103)).order
    spec = klpt.WalkSpec.from_norm(Factorization(((5, 1), (7, 1)), 1))
    ideal = klpt.random_walk(o0, spec, random.Random(76))
    fresh = QuatLattice.from_json(ideal.to_json())
    conj = QuatLattice.from_json(ideal.conj_lattice().to_json())
    assert fresh._left_order is None and conj._left_order is None
    with pytest.raises(ValidationError, match="share their left order"):
        ideal_equivalence_test(fresh, conj)


def _fresh(lat):
    """An equal lattice with no memo filled."""
    return QuatLattice.from_json(lat.to_json())


def _certificate_cases(p):
    """Lattices and candidate orders at p: O0, a walked ideal I, its right
    order R, conj(I), the connecting ideal of O0 and R, the non-maximal
    order Z + 3*O0, and two lattices that are not orders."""
    alg = construct_algebra(p)
    o0 = special_order(alg).order
    spec = klpt.WalkSpec.from_norm(Factorization(((5, 1), (7, 1)), 1))
    ideal = klpt.random_walk(o0, spec, random.Random(f"certify/{p}"))
    right = right_order(ideal)
    lam = QuatLattice.from_rows(alg, [alg.one] + [b * 3 for b in o0.basis_elements()])
    skew = QuatLattice.from_rows(alg, [alg.element(1, 0, 0, 0), alg.element(0, 2, 0, 0),
                                       alg.element(0, 0, 3, 0), alg.element(0, 0, 0, 5)])
    lats = [o0, ideal, right, ideal.conj_lattice(), connecting_ideal(o0, right), lam, skew]
    orders = [o0, right, lam, o0.scale(2), skew, left_order(_fresh(skew))]
    return lats, orders


@pytest.mark.parametrize("p", [103, 1019, 1009])
def test_order_certificates_agree_with_recomputed_orders(p):
    lats, orders = _certificate_cases(p)
    seen = set()
    for x in lats:
        for o in orders:
            want_left = left_order(_fresh(x)) == o
            want_right = right_order(_fresh(x)) == o
            seen.add((want_left, want_right))
            lat = _fresh(x)
            assert quat.has_left_order(lat, _fresh(o)) == want_left
            assert quat.has_right_order(_fresh(x), _fresh(o)) == want_right
            if want_left:
                assert lat._left_order == o
    # both answers occur on each side
    assert {a for a, _ in seen} == {b for _, b in seen} == {True, False}


@pytest.mark.parametrize("p", [103, 1019, 1009])
def test_maximality_memo_matches_a_fresh_lattice(p):
    lats, orders = _certificate_cases(p)
    for x in lats + orders:
        first = x.is_maximal_order()
        assert x._is_maximal is first and x.is_maximal_order() is first
        assert _fresh(x).is_maximal_order() == first
    assert lats[0].is_maximal_order() and not lats[5].is_maximal_order()


def _count_intersections(monkeypatch):
    calls = []
    meet = QuatLattice.intersect
    monkeypatch.setattr(QuatLattice, "intersect", lambda a, b: calls.append(1) or meet(a, b))
    return calls


def test_connecting_ideal_makes_one_intersection(monkeypatch):
    o0 = special_order(construct_algebra(1019)).order
    spec = klpt.WalkSpec.from_norm(Factorization(((2, 4), (3, 2)), 1))
    right = _fresh(right_order(klpt.random_walk(o0, spec, random.Random(77))))
    calls = _count_intersections(monkeypatch)
    conn = connecting_ideal(o0, right)
    assert len(calls) == 1  # o1 meet o2, for the norm
    assert left_order(_fresh(conn)) == o0 and right_order(_fresh(conn)) == right


@pytest.mark.parametrize("p", [1019, 1013, 1009])
def test_right_order_matches_intersection_oracle(p):
    o0 = special_order(construct_algebra(p)).order
    spec = klpt.WalkSpec.from_norm(Factorization(((2, 3), (3, 2)), 1))
    rng = random.Random(f"right/{p}")
    for _ in range(20):
        ideal = klpt.random_walk(o0, spec, rng)
        assert ideal._left_order == o0  # so right_order takes one product
        assert right_order(ideal) == right_order_by_intersection(ideal)


def test_right_order_of_a_walk_endpoint_makes_no_intersection(monkeypatch):
    o0 = special_order(construct_algebra(1019)).order
    spec = klpt.WalkSpec.from_norm(Factorization(((2, 4), (3, 2)), 1))
    ideal = klpt.random_walk(o0, spec, random.Random(80))
    calls = _count_intersections(monkeypatch)
    right = right_order(ideal)
    assert calls == [] and right._is_maximal


def test_right_order_of_a_prime_norm_ideal_makes_no_intersection(monkeypatch):
    # equiv_from_element carries I's left order over to I*x
    o0 = special_order(construct_algebra(1019)).order
    spec = klpt.WalkSpec.from_norm(Factorization(((2, 4), (3, 2)), 1))
    rng = random.Random(5)
    prime, _ = equiv_prime_large_nonresidue(klpt.random_walk(o0, spec, rng), 1019, 2, rng)
    calls = _count_intersections(monkeypatch)
    right = right_order(prime)
    assert calls == []
    assert right == right_order_by_intersection(_fresh(prime))


@pytest.mark.parametrize("p", [103, 1019, 1009])
def test_right_order_without_maximal_left_order_intersects(monkeypatch, p):
    # Z + 3*O0 and the skew lattice: their memoised left orders are not
    # maximal, so right_order takes the left order of the conjugate
    lats, _ = _certificate_cases(p)
    calls = _count_intersections(monkeypatch)
    for lat in (lats[5], lats[6]):
        assert not left_order(lat).is_maximal_order()
        calls.clear()
        assert right_order(lat) == right_order_by_intersection(_fresh(lat))
        assert calls


def test_right_order_postcondition_raises_under_optimize():
    # python -O strips assert statements; a wrong product must still raise.
    # Z + 3*O0 is told its left order is O0, so conj(lam) * lam / nrd(lam),
    # which is lam, is taken for its right order
    out = run_under_python_O("""
from quatpath import quat
alg = quat.construct_algebra(103)
o0 = quat.special_order(alg).order
lam = quat.QuatLattice.from_rows(alg, [alg.one] + [b * 3 for b in o0.basis_elements()])
lam._left_order = o0
try:
    print("returned", quat.right_order(lam))
except AssertionError as e:
    print("AssertionError:", e)
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == (
        "AssertionError: postcondition failed: the right order of an invertible lattice is maximal")


def test_products_match_element_oracles():
    o0 = special_order(construct_algebra(1013)).order
    spec = klpt.WalkSpec.from_norm(Factorization(((5, 1), (7, 1)), 1))
    rng = random.Random(81)
    for _ in range(6):
        i1 = klpt.random_walk(o0, spec, rng)
        el = i1.element_from(tuple(rng.randrange(-5, 6) for _ in range(4)))
        if el.is_zero():
            continue
        i2 = equiv_from_element(i1, el)
        assert i2 == mul_right_scaled(i1, el.conj(), 1 / i1.nrd)
        alpha = ideal_equivalence_test(i1, i2)
        assert mul_right_scaled(i1, alpha.conj(), 1 / i1.nrd) == i2
        assert i1.mul_right(el) == mul_right_scaled(i1, el, 1)


def test_products_reject_another_algebra():
    o103 = special_order(construct_algebra(103)).order
    o101 = special_order(construct_algebra(101)).order
    for bad in (lambda: o103.mul_right(o101.basis_elements()[1]), lambda: o103.mul(o101)):
        with pytest.raises(ValidationError, match="algebra mismatch"):
            bad()


def test_equivalence_test_certifies_the_second_ideal_without_intersections(monkeypatch):
    o0 = special_order(construct_algebra(103)).order
    spec = klpt.WalkSpec.from_norm(Factorization(((5, 1), (7, 1)), 1))
    rng = random.Random(78)
    i1 = klpt.random_walk(o0, spec, rng)
    assert left_order(i1) == o0 and left_order(i1).is_maximal_order()
    i2 = _fresh(equiv_from_element(i1, i1.basis_elements()[1]))
    i3 = _fresh(klpt.random_walk(o0, spec, rng))
    calls = _count_intersections(monkeypatch)
    assert ideal_equivalence_test(i1, i2) is not None
    ideal_equivalence_test(i1, i3)
    assert calls == []


def test_ideal_equivalence_witness_transforms_correctly():
    rng = random.Random(74)
    alg = construct_algebra(103)
    so = special_order(alg)
    ideal = random_left_ideal(so, 41, rng)
    # build a known-equivalent partner, then recover a witness
    el = ideal.basis_elements()[1]
    other = equiv_from_element(ideal, el)
    w = ideal_equivalence_test(ideal, other)
    assert w is not None
    moved = QuatLattice.from_rows(
        alg,
        [(b * w.conj()) * (Fraction(1) / ideal.nrd) for b in ideal.basis_elements()],
    )
    assert moved == other


def test_equivalence_postcondition_raises_under_optimize():
    # python -O strips assert statements; a wrong witness must still raise.
    # The patched enumeration hands back the first basis vector of O0, whose
    # reduced norm is not one, as if it were a norm-one vector.
    o0 = special_order(construct_algebra(103)).order
    assert o0.q_gram().value_int((1, 0, 0, 0)) != 1
    out = run_under_python_O("""
from quatpath import lattice, quat
o0 = quat.special_order(quat.construct_algebra(103)).order
lattice.enumerate_by_value = lambda form, bound, lower=1: iter([((1, 0, 0, 0), 1)])
try:
    print("returned", quat.ideal_equivalence_test(o0, o0))
except AssertionError as e:
    print("AssertionError:", e)
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == (
        "AssertionError: postcondition failed: i1 * gamma / N(i1) = i2")
