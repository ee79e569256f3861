"""Equation solvers: a*z + b*g sampling, genus randomization, the master
equation, and norm representation on the special order."""

import itertools
import math
import random
import sys
from types import SimpleNamespace

import pytest

from quatpath import arith, eqsolver, lattice, linalg, qform, quat
from quatpath.arith import Factorization
from quatpath.eqsolver import (
    equation_instance,
    genus_randomizer_B,
    lift_genus_solution,
    represent_in_O0,
    sample_az_plus_bg,
    solve_master,
)
from quatpath.errors import BudgetError, ValidationError

from oracles import (
    genus_representation_count,
    genus_residues,
    representation_count,
    run_under_python_O,
)

ID2 = ((1, 0), (0, 1))


def chi2_critical(df, alpha=1e-3):
    # Wilson-Hilferty; plenty accurate for the df and alpha used here
    z = {1e-3: 3.0902}[alpha]
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def brute_solutions(a, b, n, g):
    """All (z, x, y) with a*z + b*g(x,y) = n and z > 0, by direct scan."""
    out = []
    bound = (n - a) // b
    # crude box: g(x, y) <= bound forces |x|, |y| <= sqrt(bound * 4A / |disc|)
    if bound < 0:
        return out
    lim = math.isqrt(4 * max(g.a, g.c) * bound // abs(g.disc)) + 2
    for x in range(-lim, lim + 1):
        for y in range(-lim, lim + 1):
            rem = n - b * g.value(x, y)
            if rem > 0 and rem % a == 0:
                out.append((rem // a, x, y))
    return out


# ---------------------------------------------------------------------------
# sample_az_plus_bg


def test_sampler_matches_enumeration():
    rng = random.Random(1)
    g = qform.BinaryQF(3, 1, 4)  # disc -47
    fa = Factorization(((47, 1),), 1)
    gs = g.transform(((1, 0), (0, 47)))  # disc -47 * 47^2, divisible by 47
    assert gs.disc % 47 == 0
    n = 90001
    while n % 47 == 0 or not brute_solutions(47, 1, n, gs):
        n += 2  # skip locally unsolvable n; the oracle decides
    want = set(brute_solutions(47, 1, n, gs))
    seen = set()
    for _ in range(400):
        got = sample_az_plus_bg(47, 1, n, gs, fa, rng)
        assert got in want
        seen.add(got)
    assert len(seen) > len(want) // 2


def test_sampler_reports_local_failure_exactly():
    # None iff the congruence b*g = n mod a has no solution, per direct scan
    rng = random.Random(2)
    g = qform.BinaryQF(5, 0, 7)
    fa = Factorization(((5, 1),), 1)
    outcomes = {True: 0, False: 0}
    for n in range(3, 400, 2):
        if n % 5 == 0:
            continue
        locally_ok = any(
            (g.value(x, y) - n) % 5 == 0 for x in range(5) for y in range(5)
        )
        try:
            res = sample_az_plus_bg(5, 1, n, g, fa, rng)
        except BudgetError:
            # solvable mod 5 but the window is empty; still not a local failure
            assert locally_ok
            continue
        assert (res is None) == (not locally_ok), n
        if res is not None:
            z, x, y = res
            assert 5 * z + g.value(x, y) == n and z > 0
        outcomes[locally_ok] += 1
    assert outcomes[True] > 20 and outcomes[False] > 20


def test_sampler_count_against_density():
    # #solutions with z > 0 is ~ 2^omega(a) * pi * T / (a * Vol(g)) with
    # T = (n - a)/b and Vol(g) = sqrt(|disc g|)/2: each of the 2^omega(a)
    # root classes is a coset of index a cut by the ellipsoid g <= T
    g = qform.BinaryQF(1, 0, 1).transform(((1, 0), (0, 5)))  # x^2 + 25 y^2
    a, b = 5, 3
    for n in (70003, 140003):  # 2n is a square mod 5, so both roots exist
        count = len(brute_solutions(a, b, n, g))
        vol = math.sqrt(abs(g.disc)) / 2
        main = 2 * math.pi * ((n - a) / b) / (a * vol)
        boundary = 6 * math.sqrt(n / b) + 32
        assert count > 0
        assert abs(count - main) <= boundary, (n, count, main)


def test_sampler_coset_marginal_uniform():
    # fully enumerable instance; the sampler's distribution over the
    # admissible points must put 1/2 on each root class, uniform within
    rng = random.Random(3)
    g = qform.BinaryQF(1, 0, 1).transform(((1, 0), (0, 5)))
    fa = Factorization(((5, 1),), 1)
    n = 451  # 4n is a square mod 5, so both root classes live
    assert arith.kronecker(4 * n, 5) == 1
    pts = {}
    for z, x, y in brute_solutions(5, 1, n, g):
        if (g.value(x, y) - n) % 5 == 0:
            w = (2 * x) % 5  # 4g = (2x)^2 + 100 y^2: root class is 2x mod 5
            pts[(x, y)] = w
    classes = sorted(set(pts.values()))
    assert len(classes) == 2
    sizes = {c: sum(1 for v in pts.values() if v == c) for c in classes}
    draws = 10**5
    counts = {p: 0 for p in pts}
    for _ in range(draws):
        z, x, y = sample_az_plus_bg(5, 1, n, g, fa, rng)
        counts[(x, y)] += 1
    # expected: 1/2 per class, uniform inside the class
    stat = 0.0
    for p, c in counts.items():
        exp = draws * 0.5 / sizes[pts[p]]
        stat += (c - exp) ** 2 / exp
    assert stat < chi2_critical(len(pts) - 1), stat


def draws_or_budget(draw, k):
    """k draws, each a solution or "BudgetError"."""
    out = []
    for _ in range(k):
        try:
            out.append(draw())
        except BudgetError:
            out.append("BudgetError")
    return out


def test_prepared_sampler_draws_as_one_shot_calls():
    # a = 35 has four root classes, the class of (z, x, y) being 2x mod 35.
    # A sampler prepared once and drawn k times gives the solutions, the
    # fall-through over empty cosets and the BudgetErrors of k one-shot
    # calls on the same rng, and leaves the rng in the same state.  The
    # windows hold no class (n = 81), two of the four (109), all four
    # (1009), and all four in cosets of 57 box rows (10^6 + 1).
    g = qform.BinaryQF(1, 0, 1).transform(((1, 0), (0, 35)))
    fa = Factorization(((5, 1), (7, 1)), 1)
    for n, classes in ((81, 0), (109, 2), (1009, 4), (10**6 + 1, 4)):
        assert len(arith.sqrt_mod_factored((4 * n) % 35, fa.factors)) == 4
        rng1, rng2 = random.Random(n), random.Random(n)
        draw = eqsolver._az_plus_bg_sampler(35, 1, n, g, fa)
        prepared = draws_or_budget(lambda: draw(rng1), 60)
        assert prepared == draws_or_budget(
            lambda: sample_az_plus_bg(35, 1, n, g, fa, rng2), 60)
        assert rng1.getstate() == rng2.getstate()
        sols = [sol for sol in prepared if sol != "BudgetError"]
        assert len(sols) == (60 if classes else 0)
        assert len({(2 * x) % 35 for _, x, _ in sols}) == classes
    # no root class: both report the local obstruction with None
    g5, fa5 = qform.BinaryQF(5, 0, 7), Factorization(((5, 1),), 1)
    assert eqsolver._az_plus_bg_sampler(5, 1, 11, g5, fa5) is None
    assert sample_az_plus_bg(5, 1, 11, g5, fa5, random.Random(0)) is None


def test_sampler_rejects_bad_inputs():
    rng = random.Random(4)
    g = qform.BinaryQF(5, 0, 7)
    fa5 = Factorization(((5, 1),), 1)
    with pytest.raises(ValidationError):
        sample_az_plus_bg(3, 1, 11, g, fa5, rng)  # fa is not a factorization of 3
    with pytest.raises(ValidationError):
        sample_az_plus_bg(3, 1, 11, g, Factorization(((3, 1),), 1), rng)  # 3 ∤ disc
    with pytest.raises(ValidationError):
        sample_az_plus_bg(5, 5, 11, g, fa5, rng)  # gcd(a, 2bn) != 1
    with pytest.raises(ValidationError):
        sample_az_plus_bg(5, 1, 10, g, fa5, rng)  # 5 | n
    big = Factorization(((5, 1),), 7)  # incomplete
    with pytest.raises(ValidationError):
        sample_az_plus_bg(35, 1, 11, g, big, rng)


# ---------------------------------------------------------------------------
# genus_randomizer_B


def test_randomizer_trivial_group():
    rng = random.Random(5)
    principal = qform.reduce_form(qform.principal_form(-4))[0]
    for _ in range(20):
        cls, d, wit = genus_randomizer_B(-4, 30, rng)
        assert cls == principal and d == 1 and cls.value(*wit) == d


def test_randomizer_witness_and_coprimality():
    rng = random.Random(6)
    m = 2 * 3 * 11
    for D in (-23, -47, -71, -20, -56):
        for _ in range(40):
            cls, d, wit = genus_randomizer_B(D, m, rng)
            assert cls.value(*wit) == d
            assert d == 1 or (d % 2 == 1 and math.gcd(d, m * D) == 1)
            if d > 1:
                assert arith.is_prime(d)


def test_randomizer_uniform_over_h3():
    rng = random.Random(7)
    cg = qform.class_group(-23)
    assert cg.h == 3
    counts = {i: 0 for i in range(3)}
    draws = 10**4
    for _ in range(draws):
        cls, d, wit = genus_randomizer_B(-23, 6, rng)
        counts[cg.index_of(cls)] += 1
    exp = draws / 3
    stat = sum((c - exp) ** 2 / exp for c in counts.values())
    assert stat < chi2_critical(2), counts


def test_randomizer_large_disc_over_budget():
    # past the bound no per-class table is built, so no class is drawn
    D = -4 * (eqsolver.GENUS_ENUM_DISC_BOUND + 1)
    with pytest.raises(BudgetError, match="class table bound"):
        genus_randomizer_B(D, 6, random.Random(8))


# ---------------------------------------------------------------------------
# equation_instance and its validation


def test_instance_validation():
    f = qform.BinaryQF(1, 0, 1)
    with pytest.raises(ValidationError):
        equation_instance(f, ((2, 0), (0, 1)), 7, 11)  # even det
    with pytest.raises(ValidationError):
        equation_instance(f, ((3, 0), (0, 3)), 7, 11)  # content 3
    with pytest.raises(ValidationError):
        equation_instance(f, ((0, 0), (0, 0)), 7, 11)  # rank 0
    with pytest.raises(ValidationError):
        equation_instance(f, ID2, 7, 14)  # gcd(b, n) > 1
    with pytest.raises(ValidationError):
        equation_instance(f, ((3, 0), (0, 1)), 9, 11)  # gcd(det, b) > 1
    with pytest.raises(ValidationError):
        equation_instance(qform.BinaryQF(1, 0, 4), ID2, 7, 11)  # disc -16 not fundamental
    with pytest.raises(ValidationError):
        equation_instance(qform.BinaryQF(5, 4, 1), ID2, 7, 11)  # not reduced
    with pytest.raises(ValidationError):
        # complete factorization of the wrong number
        equation_instance(f, ((3, 0), (0, 1)), 7, 11, det_fac=Factorization(((5, 1),), 1))


def test_instance_derived_fields():
    # a = det(gamma)^2 and g = f o gamma, at any class number of f
    f = qform.BinaryQF(2, 1, 3)  # disc -23, h = 3
    n = 100000007
    for gamma, b in ((ID2, 1), (((3, 1), (1, 2)), 7)):
        inst = equation_instance(f, gamma, b, n)
        assert inst.a == eqsolver._det2(gamma) ** 2
        assert inst.g == f.transform(gamma)
        assert inst.g.disc == inst.a * f.disc
        assert inst.a_fac.complete and inst.a_fac.value() == inst.a
    # admissible residues are genus residues of f passing the character test
    inst = equation_instance(f, ID2, 1, n)
    assert inst.a == 1
    res = genus_residues(f)
    for u in inst.u_residues:
        assert u in res
        w = ((n - u * inst.a) * arith.inv_mod(1, 23)) % 23
        assert arith.kronecker(-23, w) != -1


def test_g_is_primitive_off_the_isotropic_lines():
    # mod each prime r of det(gamma), g = f o gamma collapses to f(w)*L^2
    # for w the image line of gamma, so g keeps content 1 exactly when
    # f(w) != 0 mod r.  disc -23 is a non-square mod 5, 7 and 11, so f
    # vanishes on no line there.
    f = qform.BinaryQF(2, 1, 3)  # disc -23, h = 3
    built = 0
    for gamma, b in ((((1, 0), (0, 5)), 7), (((3, 1), (1, 2)), 7), (((1, 2), (0, 7)), 11)):
        for n in range(10**9 + 1, 10**9 + 201, 2):
            try:
                inst = equation_instance(f, gamma, b, n)
            except ValidationError:
                continue
            built += 1
            assert inst.g.is_primitive, (gamma, b, n, inst.g)
    assert built > 200
    # x^2 + y^2 vanishes mod 5 on the image line (3, 1) of this gamma
    inst = equation_instance(qform.BinaryQF(1, 0, 1), ((3, 1), (1, 2)), 103, 10**7 + 9)
    assert inst.g.content == 5
    assert eqsolver.local_obstruction(inst)[0] == 5


def test_master_nontrivial_gamma_at_class_number_3():
    # disc -23 has h = 3 and gamma has determinant 5, so a = 25
    inst = equation_instance(qform.BinaryQF(2, 1, 3), ((1, 0), (0, 5)), 7, 10**9 + 9)
    assert inst.a == 25 and inst.g.is_primitive
    check_master(inst, random.Random(0))


# ---------------------------------------------------------------------------
# lift_genus_solution


def test_lift_h1_is_plain_cornacchia():
    # disc -4: trivial class group, lift is Cornacchia on x^2 + y^2
    f = qform.BinaryQF(1, 0, 1)
    n = 1000033
    inst = equation_instance(f, ID2, 103, n)
    assert inst.a == 1
    # build a valid triple by scanning small (x', y')
    found = None
    for x in range(40):
        for y in range(40):
            ell = n - 103 * inst.g.value(x, y)
            if ell > 1 and arith.is_prime(ell) and ell % 4 == 1:
                found = (ell, x, y)
                break
        if found:
            break
    s, t, x, y = lift_genus_solution(inst, found)
    assert f.value(s, t) + 103 * f.value(x, y) == n
    assert f.value(s, t) == found[0]
    assert (s, t) == qform.cornacchia(f, found[0], Factorization(((found[0], 1),), 1))
    assert (x, y) == found[1:]


def triple_with_prime(f, ell):
    """An instance of f with b = 1 and a solution (ell, x, y) of
    a*z + g(x, y) = n, whether or not ell is in an admissible class."""
    inst0 = equation_instance(f, ID2, 1, 99991)
    for x in range(1, 60):
        for y in range(60):
            n = inst0.a * ell + inst0.g.value(x, y)
            try:
                inst = equation_instance(f, ID2, 1, n)
            except ValidationError:
                continue
            if inst.a == inst0.a and inst.g == inst0.g:
                return inst, (ell, x, y)
    raise AssertionError("no triple found")


def test_lift_two_genera_disc20():
    # disc -20 has classes (1,0,5) and (2,2,3) in different genera, one
    # class each, so a prime in the (2,2,3) genus is represented by
    # (2,2,3) itself and lifts by Cornacchia on it
    f = qform.BinaryQF(2, 2, 3)
    ell = 23
    assert representation_count(qform.BinaryQF(2, 2, 3), ell) > 0
    assert representation_count(qform.BinaryQF(1, 0, 5), ell) == 0
    inst, sol = triple_with_prime(f, ell)
    s, t, x, y = lift_genus_solution(inst, sol)
    assert f.value(s, t) + inst.g.value(x, y) == inst.n
    assert inst.a == 1 and f.value(s, t) == ell


def test_lift_keeps_only_primes_f_represents():
    # disc -23 is one genus of three classes: (1,1,6) and (2,+-1,3).  A
    # prime that only (2,+-1,3) represents is in the genus of (1,1,6), so
    # it passes the residue screen, but (1,1,6) cannot lift it
    principal, other = qform.BinaryQF(1, 1, 6), qform.BinaryQF(2, 1, 3)
    ell = next(q for q in range(3, 200) if arith.is_prime(q)
               and representation_count(other, q) > 0
               and representation_count(principal, q) == 0)
    inst, sol = triple_with_prime(principal, ell)
    assert ell % 23 in inst.u_residues
    assert lift_genus_solution(inst, sol) is None
    inst, sol = triple_with_prime(other, ell)
    s, t, x, y = lift_genus_solution(inst, sol)
    assert other.value(s, t) == ell and ell + inst.g.value(x, y) == inst.n


@pytest.mark.parametrize("f, ell", [((2, 2, 3), 29), ((1, 0, 5), 23)])
def test_lift_rejects_prime_of_the_other_genus(f, ell):
    # disc -20: 29 = 3^2 + 5*2^2 is only in the principal genus, 23 only in
    # the (2,2,3) genus; each triple solves its equation but its prime is
    # not in an admissible class
    f = qform.BinaryQF(*f)
    assert representation_count(f, ell) == 0
    inst, sol = triple_with_prime(f, ell)
    assert inst.a * ell + inst.g.value(*sol[1:]) == inst.n
    with pytest.raises(ValidationError, match="not in an admissible class"):
        lift_genus_solution(inst, sol)


def test_lift_rejects_prime_dividing_disc():
    # 11 = f(-1, 2) for f of disc -11, but a prime dividing disc(f) is no
    # unit residue, so it is not in an admissible class
    f = qform.BinaryQF(1, 1, 3)
    inst = equation_instance(f, ID2, 7, 11 + 7 * f.value(1, 0))
    assert inst.a == 1 and f.value(-1, 2) == 11
    with pytest.raises(ValidationError, match="not in an admissible class"):
        lift_genus_solution(inst, (11, 1, 0))


def test_lift_rejects_wrong_triple():
    f = qform.BinaryQF(1, 0, 1)
    inst = equation_instance(f, ID2, 103, 1000033)
    with pytest.raises(ValidationError):
        lift_genus_solution(inst, (4, 1, 1))  # wrong sum
    # right sum, composite z
    val = 1000033 - 103 * inst.g.value(1, 2)
    if not arith.is_prime(val):
        with pytest.raises(ValidationError):
            lift_genus_solution(inst, (val, 1, 2))


# ---------------------------------------------------------------------------
# solve_master


def check_master(inst, rng):
    s, t, x, y = solve_master(inst, rng)
    det2 = eqsolver._det2(inst.gamma) ** 2
    assert det2 * inst.f.value(s, t) + inst.b * inst.g.value(x, y) == inst.n
    return s, t, x, y


def test_master_norm_equation_shape():
    # f = x^2+y^2, gamma = 1, b = p: exactly the special-order norm equation
    rng = random.Random(9)
    f = qform.BinaryQF(1, 0, 1)
    for n in (10**6 + 3, 10**7 + 19, 123456789 + 2):
        inst = equation_instance(f, ID2, 103, n)
        check_master(inst, rng)


def test_master_at_class_number_3():
    # disc -23: h = 3, one genus; only the z that f itself represents lift
    rng = random.Random(10)
    f = qform.BinaryQF(2, 1, 3)
    inst = equation_instance(f, ID2, 1, 100000007)
    assert inst.a == 1
    s, t, x, y = check_master(inst, rng)
    assert (s, t) != (0, 0)


def test_master_two_genus_disc():
    rng = random.Random(11)
    f = qform.BinaryQF(2, 2, 3)  # disc -20, two genera
    for n in (1000003, 5000011):
        inst = equation_instance(f, ID2, 1, n)
        check_master(inst, rng)


def test_master_nontrivial_gamma():
    rng = random.Random(12)
    f = qform.BinaryQF(1, 0, 1)
    gamma = ((1, 2), (0, 5))
    # n must be 103 * (square) mod 5, i.e. 2 or 3 mod 5, for local solvability
    for n in (10**7 + 3, 10**7 + 33):
        inst = equation_instance(f, gamma, 103, n)
        check_master(inst, rng)


def count_master_work(monkeypatch, run):
    """Attempts, classes drawn and forms composed by solve_master itself
    (not by the lift after the last attempt) during run(), and the
    arguments of every sampler set-up it built.  An attempt is one draw
    from a prepared sampler."""
    attempts, drawn, composed, prepared = [], set(), [], []
    prepare, draw, compose = eqsolver._az_plus_bg_sampler, genus_randomizer_B, qform.compose

    def counting_prepare(*args):
        prepared.append(args)
        sample = prepare(*args)

        def counting_sample(rng):
            attempts.append(args)
            return sample(rng)

        return None if sample is None else counting_sample

    def counting_draw(*args):
        out = draw(*args)
        drawn.add(out[0])
        return out

    def counting_compose(f1, f2):
        if sys._getframe(1).f_code is solve_master.__code__:
            composed.append((f1, f2))
        return compose(f1, f2)

    monkeypatch.setattr(eqsolver, "_az_plus_bg_sampler", counting_prepare)
    monkeypatch.setattr(eqsolver, "genus_randomizer_B", counting_draw)
    monkeypatch.setattr(qform, "compose", counting_compose)
    run()
    return len(attempts), drawn, len(composed), prepared


def test_master_composes_once_per_class_drawn(monkeypatch):
    # disc g = -4 has one class: the principal entry is seeded, so no
    # attempt composes
    alg = quat.construct_algebra(103)
    attempts, drawn, composed, _ = count_master_work(
        monkeypatch, lambda: represent_in_O0(alg, 1000037, random.Random(0)))
    assert attempts >= 20 and len(drawn) == 1 and composed == 0
    # disc g = -23 has 3 classes: h = [k^-2 g] is composed the first
    # time a class is drawn, never again
    inst = equation_instance(qform.BinaryQF(2, 1, 3), ID2, 1, 100000007)
    attempts, drawn, composed, _ = count_master_work(
        monkeypatch, lambda: check_master(inst, random.Random(3)))
    assert len(drawn) < attempts
    assert composed <= 2 * len(drawn)


def test_master_prepares_once_per_class_drawn(monkeypatch):
    # disc g = -23 has 3 classes: the sampler of a*z + (b*d^2)*h = n is
    # set up at most once per class drawn and per solve_master call, never
    # twice for one (b*d^2, h), and every later attempt only draws
    inst = equation_instance(qform.BinaryQF(2, 1, 3), ID2, 1, 100000007)
    total_attempts = total_prepared = 0
    for seed in range(6):
        calls = []
        attempts, drawn, _, prepared = count_master_work(
            monkeypatch, lambda: calls.append(solve_master(inst, random.Random(seed))))
        assert len(calls) == 1
        assert 1 <= len(prepared) <= len(drawn) <= attempts
        assert len({(b, h) for _, b, _, h, _ in prepared}) == len(prepared)
        total_attempts += attempts
        total_prepared += len(prepared)
    assert total_prepared < total_attempts


def test_master_local_obstruction_no_admissible_u():
    # disc -4 has a single candidate residue u = 1; kronecker(-4, 3) = -1
    # kills it when (n - a) * b^{-1} = 3 mod 4, i.e. n = 2 mod 4 for b = 103
    f = qform.BinaryQF(1, 0, 1)
    bad = None
    for n in range(10**6, 10**6 + 50):
        if n % 103 == 0:
            continue
        inst = equation_instance(f, ID2, 103, n)
        if not inst.u_residues:
            bad = inst
            break
    assert bad is not None and bad.n % 4 == 2
    assert arith.kronecker(-4, ((bad.n - 1) * arith.inv_mod(103, 4)) % 4) == -1
    with pytest.raises(ValidationError):
        solve_master(bad, random.Random(13))


def test_master_local_obstruction_at_det():
    # gamma with isotropic image line mod 5 makes f o gamma vanish mod 5
    f = qform.BinaryQF(1, 0, 1)
    inst = equation_instance(f, ((3, 1), (1, 2)), 103, 10**7 + 9)
    with pytest.raises(ValidationError):
        solve_master(inst, random.Random(14))


def test_master_stuck_budget_reports_no_drawn_class():
    # |disc g| = 4 * 227^2 is past the class table bound: no class is
    # drawn, so none can have failed the window fit
    f = qform.BinaryQF(1, 0, 1)
    inst = equation_instance(f, ((1, 0), (0, 227)), 103, 10000433)
    assert abs(inst.g.disc) > eqsolver.GENUS_ENUM_DISC_BOUND
    with pytest.raises(BudgetError, match="within 200 attempts") as err:
        solve_master(inst, random.Random(0))
    assert "'divisor_infeasible': 0" in str(err.value)
    assert "'z_composite': 200" in str(err.value)


def image_basis(gamma, mod):
    """HNF rows of the image of gamma mod `mod`: its columns plus mod*Z^2."""
    cols = ((gamma[0][0], gamma[1][0]), (gamma[0][1], gamma[1][1]))
    return linalg.hnf(cols + ((mod, 0), (0, mod)))


def image_values(f, basis, mod):
    """Every value of f mod `mod` on the image with this basis.

    (x, y) -> gamma*(x, y) covers the image evenly, so these are the values
    of f o gamma found by the scan of (Z/mod)^2 that solve_master once
    ran, read from |det gamma|_r times fewer points.
    """
    (h11, h12), (_, h22) = basis
    return {f.value(i * h11, i * h12 + j * h22) % mod
            for i in range(mod // h11) for j in range(mod // h22)}


def local_check_passes(f, gamma, det_fac, b, n):
    # a nonempty u_residues leaves the primes of det(gamma) to decide
    inst = SimpleNamespace(f=f, gamma=gamma, det_fac=det_fac, b=b, n=n, u_residues=(1,))
    return eqsolver.local_obstruction(inst) is None


def test_local_check_matches_scan():
    # every content-1 gamma with entries in [-6, 6] and one of these
    # determinants, prime powers and composites alike
    dets = {d: arith.factor_completely(d) for d in (3, 5, 7, 9, 15, 21, 25, 27)}
    forms = (qform.BinaryQF(1, 0, 1), qform.BinaryQF(1, 0, 2),
             qform.BinaryQF(1, 1, 2), qform.BinaryQF(2, 1, 3))
    pairs = ((1, 1), (1, 2), (2, 1), (103, 11), (5, 3))
    memo = {}
    outcomes = {}
    for m in itertools.product(range(-6, 7), repeat=4):
        gamma = ((m[0], m[1]), (m[2], m[3]))
        det = abs(eqsolver._det2(gamma))
        if det not in dets or eqsolver._content2(gamma) != 1:
            continue
        fac = dets[det]
        images = [(r ** (2 * k), image_basis(gamma, r ** (2 * k))) for r, k in fac.factors]
        for f in forms:
            scans = []
            for mod, basis in images:
                if (f, basis) not in memo:
                    memo[f, basis] = image_values(f, basis, mod)
                scans.append((mod, memo[f, basis]))
            for b, n in pairs:
                if math.gcd(b * n, det) != 1:
                    continue
                want = all(n * arith.inv_mod(b, mod) % mod in vals for mod, vals in scans)
                assert local_check_passes(f, gamma, fac, b, n) == want, (f, gamma, b, n)
                outcomes.setdefault(det, set()).add(want)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes
    assert set(outcomes) == set(dets)


def test_local_check_beyond_the_old_scan():
    # det(gamma) = 1009 needs the residues mod 1009^2, out of reach of a
    # scan; gamma's image line mod 1009 is (1, 0), where f = 1, so the
    # instance is locally solvable exactly when n/103 is a square mod 1009
    f = qform.BinaryQF(1, 0, 1)
    gamma = ((1, 0), (0, 1009))
    good, bad = 10**14 + 1, 10**14 + 7
    assert arith.kronecker(good * arith.inv_mod(103, 1009), 1009) == 1
    assert arith.kronecker(bad * arith.inv_mod(103, 1009), 1009) == -1
    inst = equation_instance(f, gamma, 103, good)
    assert eqsolver.local_obstruction(inst) is None
    check_master(inst, random.Random(21))
    inst = equation_instance(f, gamma, 103, bad)
    assert inst.u_residues
    assert eqsolver.local_obstruction(inst) == (
        1009, "no local solution modulo 1009^2 of det(gamma)^2")
    with pytest.raises(ValidationError, match="modulo 1009"):
        solve_master(inst, random.Random(21))


def test_master_thin_coset():
    # at n = 10^15 + 5 sample_az_plus_bg draws from thin ellipses: few rows,
    # long ones, and a covering radius far above the window
    f = qform.BinaryQF(1, 0, 1)
    inst = equation_instance(f, ((1, 0), (0, 1009)), 103, 10**15 + 5)
    check_master(inst, random.Random(21))


def test_master_solution_diversity():
    # min-entropy proxy: 100 seeded runs on one instance give >= 25 tuples
    f = qform.BinaryQF(1, 0, 1)
    inst = equation_instance(f, ID2, 103, 10**6 + 3)
    seen = set()
    for seed in range(100):
        seen.add(solve_master(inst, random.Random(seed)))
    assert len(seen) >= 25, len(seen)


def test_master_success_rate_on_random_instances():
    # >= 50% success within the attempt budget over random admissible
    # instances; at desk sizes it should be nearly always
    rng = random.Random(15)
    pool = [qform.BinaryQF(1, 0, 1), qform.BinaryQF(1, 0, 2),
            qform.BinaryQF(1, 1, 2), qform.BinaryQF(2, 1, 3),
            qform.BinaryQF(2, 2, 3)]
    built = 0
    solved = 0
    while built < 40:
        f = pool[rng.randrange(len(pool))]
        b = [1, 3, 5, 7, 11, 13][rng.randrange(6)]
        n = rng.randrange(10**6, 10**8) * 2 + 1
        try:
            inst = equation_instance(f, ID2, b, n)
            if not inst.u_residues:
                continue
        except ValidationError:
            continue
        built += 1
        try:
            check_master(inst, rng)
            solved += 1
        except (BudgetError, ValidationError):
            pass
    assert solved >= built // 2, (solved, built)


def test_master_positivity_of_solution_counts():
    # counting sanity on tiny instances: whenever the character condition
    # and coprimality hold, the solution set summed over the class group is
    # nonempty for nearly all instances
    rng = random.Random(16)
    discs = [-4, -8, -20, -23, -56]
    tried = 0
    positive = 0
    while tried < 60:
        D = discs[rng.randrange(len(discs))]
        cg = qform.class_group(D)
        a = [1, 3, 5, 7, 9][rng.randrange(5)]
        b = [1, 2, 3, 5][rng.randrange(4)]
        n = rng.randrange(10**4, 10**5)
        if math.gcd(a, 2 * b * n) != 1 or math.gcd(b * n, D) != 1 \
                or math.gcd(b, n) != 1:
            continue
        v = abs(D)
        u = n % v  # z = u mod v with az = n - b*value; use u from a z guess
        # pick u admissible: u in (Z/v)* with chi((n - u*a)/b) = 1
        binv = arith.inv_mod(b, v)
        us = [u for u in range(1, v) if math.gcd(u, v) == 1
              and arith.kronecker(D, ((n - u * a) * binv) % v) == 1]
        if not us:
            continue
        u = us[rng.randrange(len(us))]
        tried += 1
        count = 0
        z = u if u > 0 else u + v
        while a * z < n and count == 0:
            if arith.is_prime(z):
                rem = n - a * z
                if rem > 0 and rem % b == 0:
                    count += genus_representation_count(D, rem // b)
            z += v
        if count > 0:
            positive += 1
    assert positive >= math.ceil(0.95 * tried), (positive, tried)


# ---------------------------------------------------------------------------
# represent_in_O0


def test_represent_trivial_cases():
    rng = random.Random(17)
    for p in (13, 37, 97, 101, 103, 1019):
        alg = quat.construct_algebra(p)
        assert represent_in_O0(alg, 1, rng) == alg.one
        el = represent_in_O0(alg, p, rng)
        assert el.nrd() == p and el == alg.j
    with pytest.raises(ValidationError):
        represent_in_O0(quat.construct_algebra(103), 0, rng)


def test_represent_random_n():
    rng = random.Random(18)
    for p in (13, 97, 101, 103):
        alg = quat.construct_algebra(p)
        so = quat.special_order(alg)
        for _ in range(3):
            n = rng.randrange(10**5, 10**7) * 2 + 1
            while n % p == 0:
                n += 2
            el = represent_in_O0(alg, n, rng)
            assert el.nrd() == n
            assert so.order.contains(el)


def test_represent_peels_p_powers():
    rng = random.Random(19)
    alg = quat.construct_algebra(103)
    n1 = 10**5 + 1  # odd-ish small factor times p^2
    while n1 % 103 == 0 or n1 % 2 == 0:
        n1 += 1
    n = n1 * 103**2
    el = represent_in_O0(alg, n, rng)
    assert el.nrd() == n
    assert quat.special_order(alg).order.contains(el)


def test_represent_at_a_61_bit_prime_and_a_260_bit_norm():
    # the norm equation's ellipse boxes here have far over 2^63 rows
    alg = quat.construct_algebra(2**61 - 1)
    n = arith.next_prime(2**260)
    el = represent_in_O0(alg, n, random.Random(0))
    assert el.nrd() == n
    assert quat.special_order(alg).order.contains(el)


# primes p = 1 mod 8 where construct_algebra picks q = 23: f = (1, 1, 6) of
# disc -23, whose one genus holds three classes
CLASS_NUMBER_3_PRIMES = (1873, 2137, 3217, 3697, 7417, 7681)


def test_represent_at_class_number_3():
    # solve_master keeps a prime z only where f itself represents it, so
    # at h(f) = 3 about one prime z in three is drawn again
    for p in CLASS_NUMBER_3_PRIMES:
        alg = quat.construct_algebra(p)
        so = quat.special_order(alg)
        assert so.f.disc == -23 and qform.class_group(-23).h == 3
        for seed in range(6):
            n = arith.next_prime(random.Random(seed).randrange(p * p, math.isqrt(p**5)))
            el = represent_in_O0(alg, n, random.Random(seed))
            assert el.nrd() == n and so.order.contains(el)


def test_divisor_table_cache_is_bounded():
    # every target n brings its own (D, m) key; the cache must not keep
    # one table per target
    bound = eqsolver._DIVISOR_TABLE_CACHE
    eqsolver._class_divisor_table.cache_clear()
    alg = quat.construct_algebra(103)
    rng = random.Random(12)
    n = 300_000
    for _ in range(3 * bound):
        n = arith.next_prime(n)
        assert represent_in_O0(alg, n, rng).nrd() == n
    info = eqsolver._class_divisor_table.cache_info()
    assert info.misses >= 3 * bound
    assert info.currsize <= bound


def test_represent_builds_no_gramform(monkeypatch):
    # the norm-equation stack samples on integer binary forms; a Fraction
    # Gram matrix is only for the rank-4 quaternion lattices
    calls = []
    init = lattice.GramForm.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    algs = [quat.construct_algebra(p) for p in (1019, 1013, 1009)]
    monkeypatch.setattr(lattice.GramForm, "__init__", counting_init)
    for alg in algs:
        n = arith.next_prime(37 * alg.p * alg.p)
        assert represent_in_O0(alg, n, random.Random(alg.p)).nrd() == n
    assert calls == []


def test_represent_builds_no_new_special_order(monkeypatch):
    # the special order and its maximality check are built once per
    # algebra, not once per norm target
    builds = []

    class CountingSpecialOrder(quat.SpecialOrder):
        def __init__(self, *args):
            builds.append(args[0])
            super().__init__(*args)

    alg = quat.construct_algebra(103)
    rng = random.Random(13)
    n = arith.next_prime(37 * 103 * 103)
    assert represent_in_O0(alg, n, rng).nrd() == n
    monkeypatch.setattr(quat, "SpecialOrder", CountingSpecialOrder)
    for _ in range(3):
        n = arith.next_prime(n)
        assert represent_in_O0(quat.construct_algebra(103), n, rng).nrd() == n
    assert builds == []


# what each script run under python -O below starts with
O_HEADER = """
import random
from quatpath import eqsolver, qform, quat
from quatpath.arith import Factorization
"""


def test_represent_postconditions_hold_under_python_O():
    # a wrong tuple from solve_master must not slip out when asserts are
    # compiled away
    run = run_under_python_O(O_HEADER + """
eqsolver.solve_master = lambda inst, rng: (1, 0, 0, 0)
eqsolver.represent_in_O0(quat.construct_algebra(103), 10**6 + 3, random.Random(0))
""")
    assert run.returncode != 0
    assert "postcondition failed: nrd of the norm representative" in run.stderr


def test_sampler_postcondition_holds_under_python_O():
    # nor a point outside the window from the coset sampler
    run = run_under_python_O(O_HEADER + """
eqsolver.lattice.coset_sampler_dim2 = lambda *args: lambda rng: (10**6, 0)
eqsolver.sample_az_plus_bg(47, 1, 100007, qform.BinaryQF(5, 4, 29),
                           Factorization(((47, 1),), 1), random.Random(0))
""")
    assert run.returncode != 0
    assert "postcondition failed: a*z + b*g(x, y) = n, z > 0" in run.stderr


def test_lift_postcondition_holds_under_python_O():
    # nor a lift whose Cornacchia step hands back wrong coordinates;
    # 1000033 is a prime 1 mod 4, so (1000033, 0, 0) is a valid triple
    run = run_under_python_O(O_HEADER + """
corn = qform.cornacchia
qform.cornacchia = lambda *args: (lambda s, t: (s + 1, t))(*corn(*args))
eqsolver.lift_genus_solution(eqsolver.equation_instance(qform.BinaryQF(1, 0, 1),
                             ((1, 0), (0, 1)), 103, 1000033), (1000033, 0, 0))
""")
    assert run.returncode != 0
    assert "postcondition failed: det(gamma)^2 f(s,t) + b*g(x,y) = n" in run.stderr


# a compose_with_coords whose coordinates come back one off in the first entry
SHIFTED_COMPOSE = """
cwc = qform.compose_with_coords
qform.compose_with_coords = lambda *args: (lambda form, w: (form, (w[0] + 1, w[1])))(*cwc(*args))
"""


def test_master_pull_back_postcondition_holds_under_python_O():
    # nor a pull-back to g that misses d^2 h(x1, y1): it is solve_master's
    # own fault, not a caller error from the lift it would reach
    run = run_under_python_O(O_HEADER + SHIFTED_COMPOSE + """
eqsolver.represent_in_O0(quat.construct_algebra(103), 10**6 + 3, random.Random(0))
""")
    assert run.returncode != 0
    assert "postcondition failed: the pull-back to g represents d^2 h(x1, y1)" in run.stderr


def test_represent_infeasible_small_n():
    # 21 is not a sum of two squares and sits under every prime window
    rng = random.Random(20)
    alg = quat.construct_algebra(103)
    with pytest.raises(BudgetError):
        represent_in_O0(alg, 21, rng)
