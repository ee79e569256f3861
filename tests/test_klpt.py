"""Brandt-graph neighbours, walks and class enumeration, the
equivalent-ideal transcript (KlptContext.verify() on tampered input), and
the search's success rate at fixed seeds."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatpath import arith, eqsolver, klpt, lattice, linalg, quat
from quatpath.arith import Factorization
from quatpath.errors import BudgetError, ValidationError

from oracles import class_representatives_bfs, run_under_python_O, step_lattice_by_generators
from test_golden import GOLDEN_TRANSCRIPT


def o0_and_ideal(p, rng):
    """O0 at p and a left O0-ideal of norm 5 * 7, reached by a walk."""
    o0 = quat.special_order(quat.construct_algebra(p)).order
    spec = klpt.WalkSpec.from_norm(Factorization(((5, 1), (7, 1)), 1))
    return o0, klpt.random_walk(o0, spec, rng)


@pytest.mark.parametrize("p", [103, 101, 97])
@pytest.mark.parametrize("ell", [2, 3])
def test_ell_neighbors(monkeypatch, p, ell):
    o0, ideal = o0_and_ideal(p, random.Random(f"neighbors/{p}"))
    built = []  # each neighbor lattice is built once
    step = klpt._step_lattice
    monkeypatch.setattr(klpt, "_step_lattice", lambda *a: built.append(a) or step(*a))
    # the third start has norm ell: I/ell*I is still free of rank one, and
    # the neighbours of a neighbour of O0 include ell*O0, the step back
    first = klpt.ell_neighbors(o0, ell)[0]
    for start in (o0, ideal, first):
        built.clear()
        nbs = klpt.ell_neighbors(start, ell)
        assert len(nbs) == ell + 1 and len(set(nbs)) == ell + 1 and len(built) == ell + 1
        for nb in nbs:
            assert nb.nrd == start.nrd * ell
            assert nb.is_sublattice_of(start) and nb.index_in(start) == ell * ell
            assert quat.left_order(nb) == o0
    assert o0.scale(ell) in nbs


def test_ell_neighbors_rejects_non_maximal_left_order():
    # Z + 3*O0 is its own left order but not maximal; its rank-one scan
    # would find 13 sublattices where a maximal order has 4
    alg = quat.construct_algebra(103)
    o0 = quat.special_order(alg).order
    lam = quat.QuatLattice.from_rows(alg, [alg.one] + [b * 3 for b in o0.basis_elements()])
    assert quat.left_order(lam) == lam and lam.nrd == 1
    assert not lam.is_maximal_order()
    with pytest.raises(ValidationError, match="must be maximal"):
        klpt.ell_neighbors(lam, 3)


def test_ell_neighbors_postcondition_raises_under_optimize():
    # python -O strips assert statements; a missing neighbor must still raise.
    # The patched scan drops the last of the ell + 1 neighbors.
    out = run_under_python_O("""
from quatpath import klpt, quat
o0 = quat.special_order(quat.construct_algebra(103)).order
scan = klpt._neighbor_lattices
klpt._neighbor_lattices = lambda order, ideal, ell: scan(order, ideal, ell)[:-1]
try:
    print("returned", len(klpt.ell_neighbors(o0, 3)))
except AssertionError as e:
    print("AssertionError:", e)
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "AssertionError: postcondition failed: ell + 1 neighbors"


@pytest.mark.parametrize("ell", [2, 3])
def test_random_walk_rejects_non_maximal_left_order(ell):
    # from Z + 3*O0 a walk of norm 3 used to end with the wrong norm
    alg = quat.construct_algebra(103)
    o0 = quat.special_order(alg).order
    lam = quat.QuatLattice.from_rows(alg, [alg.one] + [b * 3 for b in o0.basis_elements()])
    spec = klpt.WalkSpec.from_norm(Factorization(((ell, 1),), 1))
    with pytest.raises(ValidationError, match="must be maximal"):
        klpt.random_walk(lam, spec, random.Random(0))


@pytest.mark.parametrize("p", [103, 101, 97])
def test_random_walk_endpoint(p):
    rng = random.Random(f"walk/{p}")
    o0, ideal = o0_and_ideal(p, rng)
    spec = klpt.WalkSpec.from_norm(Factorization(((2, 3), (3, 2)), 1))
    assert spec.steps == (2, 2, 2, 3, 3)  # factor order
    for start in (o0, ideal):
        end = klpt.random_walk(start, spec, rng)
        assert end.nrd == start.nrd * 72
        assert end.is_sublattice_of(start)
        assert quat.left_order(end) == o0


@pytest.mark.parametrize("p", [103, 1019, 1013, 1009])
@pytest.mark.parametrize("ell", [2, 3, 5])
def test_step_lattice_matches_generator_hnf(p, ell):
    # every rank-one vector mod ell, from O0, a walked ideal and a norm-ell
    # neighbour: the step solved mod ell against the HNF of 8 generators
    o0, ideal = o0_and_ideal(p, random.Random(f"step/{p}"))
    for start in (o0, ideal, klpt.ell_neighbors(o0, ell)[0]):
        gram, steps = start.q_gram(), 0
        for coeffs in itertools.product(range(ell), repeat=4):
            if not any(coeffs) or gram.value_int(coeffs) % ell:
                continue
            w = start.element_from(coeffs)
            assert klpt._step_lattice(o0, start, w, ell) == step_lattice_by_generators(
                o0, start, w, ell)
            steps += 1
        assert steps == (ell + 1) * (ell * ell - 1)  # nonzero singular 2x2 matrices


def test_step_lattice_postconditions_raise_under_optimize():
    # python -O strips assert statements; a bad step must still raise.  1 is
    # not in 2*O0, and it spans all of O0 mod 3, not a rank-one image
    out = run_under_python_O("""
from quatpath import klpt, quat
alg = quat.construct_algebra(103)
o0 = quat.special_order(alg).order
for ideal, ell in ((o0.scale(2), 2), (o0, 3)):
    try:
        print("returned", klpt._step_lattice(o0, ideal, alg.one, ell))
    except AssertionError as e:
        print("AssertionError:", e)
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "AssertionError: postcondition failed: each b*w lies in the ideal",
        "AssertionError: postcondition failed: the image mod ell has rank 2"]


def test_random_walk_hnf_calls_get_at_most_4_rows(monkeypatch):
    o0 = quat.special_order(quat.construct_algebra(1019)).order
    quat.left_order(o0)  # memoised before the count
    sizes = []
    hnf = linalg.hnf
    monkeypatch.setattr(linalg, "hnf", lambda m: sizes.append(len(m)) or hnf(m))
    spec = klpt.WalkSpec.from_norm(Factorization(((2, 8), (3, 4)), 1))
    klpt.random_walk(o0, spec, random.Random(79))
    assert len(sizes) == 12 and max(sizes) <= 4


CLASS_PRIMES = [11, 13, 17, 19, 23, 29, 31, 37]


@pytest.mark.parametrize("p", CLASS_PRIMES)
def test_class_number_is_eichlers(p):
    # Eichler's mass formula for B_{p,oo}: floor(p/12) + (0, 1, 1, 2) for
    # p = (1, 5, 7, 11) mod 12
    want = p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]
    o0 = quat.special_order(quat.construct_algebra(p)).order
    for ell in (2, 3):
        reps = klpt.ideal_class_representatives(o0, ell)
        assert len(reps) == want
        assert all(quat.left_order(r) == o0 for r in reps)


@pytest.mark.parametrize("p", [p for p in range(5, 201) if arith.is_prime(p)])
def test_mass_formula(p):
    # Eichler's mass formula: the classes' 1/|O_R(I)^x| sum to (p - 1)/24.
    # O_R(I)^x is the norm-one vectors of O_R(I), listed up to sign
    o0 = quat.special_order(quat.construct_algebra(p)).order
    for ell in (2, 3):
        mass = 0
        for rep in klpt.ideal_class_representatives(o0, ell):
            pairs = lattice.enumerate_by_value(quat.right_order(rep).q_gram(), 1)
            mass += Fraction(1, 2 * len(list(pairs)))
        assert mass == Fraction(p - 1, 24), ell


def test_class_number():
    assert klpt.class_number(3) == 1
    for p in range(5, 201):
        if arith.is_prime(p):
            assert klpt.class_number(p) == p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12], p
    with pytest.raises(ValidationError):
        klpt.class_number(15)


@pytest.mark.parametrize("p", CLASS_PRIMES)
@pytest.mark.parametrize("ell", [2, 3])
def test_class_representatives_match_exhaustive_bfs(p, ell):
    o0 = quat.special_order(quat.construct_algebra(p)).order
    assert klpt.ideal_class_representatives(o0, ell) == class_representatives_bfs(o0, ell)


@pytest.mark.parametrize("p", [23, 59])
def test_theta_key_is_a_class_invariant(p):
    rng = random.Random(f"theta/{p}")
    o0 = quat.special_order(quat.construct_algebra(p)).order
    for ideal in klpt.ideal_class_representatives(o0, 2):
        key = klpt._theta_key(ideal)
        for _ in range(4):
            coeffs = (0, 0, 0, 0)
            while not any(coeffs):
                coeffs = tuple(rng.randrange(-4, 5) for _ in range(4))
            other = quat.equiv_from_element(ideal, ideal.element_from(coeffs))
            assert klpt._theta_key(other) == key


def test_class_enumeration_short_count_raises(monkeypatch):
    # a search that runs out of neighbors short of the class number fails
    # its postcondition, also under python -O
    monkeypatch.setattr(klpt, "class_number", lambda p: 4)
    o0 = quat.special_order(quat.construct_algebra(23)).order
    with pytest.raises(AssertionError, match="postcondition failed: class_number"):
        klpt.ideal_class_representatives(o0, 2)


def test_class_enumeration_tests_within_theta_buckets(monkeypatch):
    # an exhaustive BFS testing each neighbor against every representative
    # makes 80 equivalence tests here
    calls = []
    test = quat.ideal_equivalence_test
    monkeypatch.setattr(quat, "ideal_equivalence_test", lambda *a: calls.append(a) or test(*a))
    o0 = quat.special_order(quat.construct_algebra(59)).order
    assert len(klpt.ideal_class_representatives(o0, 3)) == 6
    assert len(calls) <= 20


# A transcript at p = 103 whose prime norm, 4, is not prime, with the input
# ideal (the special order itself) as its output.
TAMPERED = """
from quatpath import klpt, quat
from quatpath.arith import Factorization

alg = quat.construct_algebra(103)
ideal = quat.special_order(alg).order
one = alg.one
ctx = klpt.KlptContext(
    ideal=ideal, n1=Factorization((), 1), n2=Factorization(((5, 2),), 1), ell=2,
    randomized=ideal, prime_ideal=ideal, to_prime_witness=one, prime_norm=4,
    norm_rep=one, line_select=(1, 0), coeff_lattice=((1, 0), (0, 1)),
    quadratic_sol=(1, 0, 1, 0), extra_exp=0, combined=one, connector=one,
    output=ideal, rounds=1, failures={},
)
"""


def test_verify_rejects_tampered_transcript():
    ns = {}
    exec(TAMPERED, ns)
    with pytest.raises(ValidationError, match="prime_norm is prime"):
        ns["ctx"].verify()


def test_verify_rejects_tampered_transcript_under_optimize():
    # python -O strips assert statements; verify() must not rely on them
    out = run_under_python_O(TAMPERED + """
from quatpath.errors import ValidationError
try:
    print("returned", ctx.verify())
except ValidationError as e:
    print("ValidationError:", e)
""")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ValidationError: transcript check failed: prime_norm is prime"


def test_extra_exponent_check_raises():
    # 2 = 3^2 mod 7, so when n2 leaves a non-residue mod 7 neither exponent
    # fixes it; the check is a postcondition, so it raises under python -O too
    p, n, ell = 103, 7, 2
    f = quat.special_order(quat.construct_algebra(p)).f
    g = klpt._coeff_columns((1, 0), n)
    lam = eqsolver._image_value(f, g, n)
    n2v = next(m for m in range(1, n)
               if arith.kronecker(m * arith.inv_mod(p * lam % n, n), n) == -1)
    with pytest.raises(AssertionError, match="postcondition failed: ell twists"):
        klpt._extra_exponent(f, g, n, p, n2v, ell)


# ---------------------------------------------------------------------------
# success rate of the equivalent-ideal search at fixed seeds


def round_failures(result):
    """The failure tally of a search: a KlptContext's, or the final SearchFailed's."""
    assert isinstance(result, (klpt.KlptContext, klpt.SearchFailed)), result
    return result.failures


def search_outcomes(p, n2, seeds):
    """{seed: verified output or the BudgetError} of equiv_ideal_context from
    O0, each checked to have filed only declared round failures."""
    o0 = quat.special_order(quat.construct_algebra(p)).order
    n1 = Factorization(((3, 2),), 1)
    out = {}
    for seed in seeds:
        try:
            ctx = klpt.equiv_ideal_context(o0, n1, n2, 2, random.Random(seed))
        except BudgetError as e:
            out[seed] = e
        else:
            assert ctx.verify()
            assert ctx.output.norm() == 9 * n2.value() * 2**ctx.extra_exp
            out[seed] = ctx
        assert set(round_failures(out[seed])) <= klpt.ROUND_FAILURES
    return out


@pytest.mark.parametrize("p", [103, 101, 97])
def test_search_succeeds_near_100(p):
    outcomes = search_outcomes(p, Factorization(((5, 20),), 1), range(4))
    assert all(isinstance(ctx, klpt.KlptContext) for ctx in outcomes.values()), outcomes


def test_equiv_ideal_returns_the_transcripts_output():
    # equiv_ideal is equiv_ideal_context's output: the pinned transcript's
    o0 = quat.special_order(quat.construct_algebra(103)).order
    n1, n2 = Factorization(((3, 2),), 1), Factorization(((5, 20),), 1)
    out = klpt.equiv_ideal(o0, n1, n2, 2, random.Random(0))
    assert hashlib.sha256(out.to_json().encode()).hexdigest() == GOLDEN_TRANSCRIPT[3]
    assert out.norm() in (9 * 5**20, 9 * 5**20 * 2)


def test_search_success_rate_at_1009():
    # seed 0 still fails: its rounds end in "line pairing fixed point" (a
    # norm representative with no j-part) or "prime norm not represented"
    # (a prime norm below ~100p); it stays in the gate
    outcomes = search_outcomes(1009, Factorization(((5, 24),), 1), range(4))
    wins = [s for s, ctx in outcomes.items() if isinstance(ctx, klpt.KlptContext)]
    assert 1 in wins and len(wins) >= 3, outcomes


def test_search_at_a_61_bit_prime():
    # n2 = 5^124 ~ p^4.7 and 5^316 ~ p^12, where the prime norm's own solve
    # samples an ellipse box of far over 2^63 rows; seed 0 succeeds in its
    # first round at both
    for k in (124, 316):
        outcomes = search_outcomes(2**61 - 1, Factorization(((5, k),), 1), [0])
        assert isinstance(outcomes[0], klpt.KlptContext), outcomes
        assert outcomes[0].rounds == 1


# one prime of each class near 2^61: 3 mod 4, 5 mod 8 and 1 mod 8 (q = 3)
SEARCH_PRIMES = (2**61 - 1, 2305843009213693973, 2305843009213694009)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(SEARCH_PRIMES), st.integers(124, 316), st.integers(0, 2**32))
def test_search_raises_only_budget_errors(p, k, seed):
    # n2 = 5^k from p^4.7 to p^12: search_outcomes checks a verified output
    # or a SearchFailed tally of declared round failures; any other
    # exception fails the test
    search_outcomes(p, Factorization(((5, k),), 1), [seed])


def test_disc_f_obstruction_has_its_own_reason():
    # at p = 103 (f = x^2 + y^2) one of seed 7's rounds builds a master
    # instance that keeps no residue mod |disc f| = 4, not an obstruction
    # at det(gamma), which _extra_exponent rules out.  The screen runs
    # before any rng draw: the search still ends in round 3
    o0 = quat.special_order(quat.construct_algebra(103)).order
    ctx = klpt.equiv_ideal_context(o0, Factorization(((3, 2),), 1),
                                   Factorization(((5, 20),), 1), 2, random.Random(7))
    assert ctx.rounds == 3
    assert ctx.failures == {"line pairing fixed point": 1,
                            "no admissible residue mod disc(f)": 1}


def search_with_first_call(monkeypatch, owner, name, first):
    """The p = 103 transcript search, or its BudgetError, with the first call
    of owner.name replaced by first(real, *args); later calls are real."""
    real = getattr(owner, name)
    calls = []

    def once(*args):
        calls.append(args)
        return first(real, *args) if len(calls) == 1 else real(*args)

    monkeypatch.setattr(owner, name, once)
    o0 = quat.special_order(quat.construct_algebra(103)).order
    try:
        return klpt.equiv_ideal_context(o0, Factorization(((3, 2),), 1),
                                        Factorization(((5, 20),), 1), 2, random.Random(0))
    except BudgetError as e:
        return e
    finally:
        monkeypatch.undo()


def raising(error):
    def first(real, *args):
        raise error("injected")
    return first


def test_norm_rep_failure_has_its_own_reason(monkeypatch):
    # a prime norm whose solve gives up is filed as not represented; it fails
    # before drawing, so the search ends where it did when the round called
    # represent_in_O0 for the prime norm
    gave_up = search_with_first_call(monkeypatch, eqsolver, "solve_master",
                                     raising(BudgetError))
    assert gave_up.failures == {"prime norm not represented": 3,
                                "line pairing fixed point": 4,
                                "no admissible residue mod disc(f)": 3}
    assert gave_up.rounds == 11
    assert hashlib.sha256(gave_up.output.to_json().encode()).hexdigest() == \
        "82ffbc2cb70a3442bb91fd53d1f13628b74c87e5a4a52d2f51710de559abe9d9"
    # a ValidationError is a caller's mistake, not a failed round: it escapes
    with pytest.raises(ValidationError, match="injected"):
        search_with_first_call(monkeypatch, eqsolver, "solve_master",
                               raising(ValidationError))


def test_obstruction_at_the_prime_norm_is_a_bug(monkeypatch):
    # _extra_exponent picks the e that makes the master equation solvable
    # mod N, so the other e obstructs there: a failed _ensure, not a round
    def flipped(real, *args):
        e = real(*args)
        return None if e is None else 1 - e

    with pytest.raises(AssertionError, match="solvable mod the prime norm"):
        search_with_first_call(monkeypatch, klpt, "_extra_exponent", flipped)


class _Zeros(random.Random):
    """An rng whose randrange always returns 0."""

    def randrange(self, *args):
        return 0


def hunt_without_draws(monkeypatch):
    """first(real, *args) for the hunt: no ellipsoid draw accepts and the
    enumeration may visit no node."""
    def first(real, *args):
        with monkeypatch.context() as m:
            m.setattr(lattice, "_BOX_TRIES", 0)
            m.setattr(lattice, "_NODE_BUDGET", 0)
            return real(*args)
    return first


def test_every_round_failure_is_reached(monkeypatch):
    # seeds reach six reasons; monkeypatched stages reach the other four
    reached = Counter()
    for p, k, seed in ((103, 20, 1), (103, 16, 1), (1097, 24, 0)):
        reached.update(round_failures(search_outcomes(p, Factorization(((5, k),), 1),
                                                      [seed])[seed]))
    # p = 1097 = 17 mod 24 has q = 3: f = x^2 + xy + y^2 is 0 or 1 mod 3 and
    # p = 2 mod 3, so every prime norm N = 2 mod 3 keeps no residue mod 3
    assert reached["prime norm has no admissible residue mod disc(f)"] == 30
    stages = [
        (quat, "equiv_prime_large_nonresidue",
         lambda real, ideal, rho, ell, rng: real(ideal, rho, ell, _Zeros()),
         "no admissible residue class found"),
        (quat, "equiv_prime_large_nonresidue", hunt_without_draws(monkeypatch),
         "prime window too large to enumerate"),
        (klpt, "_extra_exponent", lambda real, *args: None, "isotropic coefficient line"),
    ]
    for owner, name, first, reason in stages:
        tally = round_failures(search_with_first_call(monkeypatch, owner, name, first))
        assert tally[reason] == 1, (name, tally)
        reached.update(tally)
    monkeypatch.setattr(klpt, "PRIME_DRAWS_PER_ROUND", 0)
    tally = round_failures(search_outcomes(103, Factorization(((5, 20),), 1), [0])[0])
    assert tally == {"no admissible prime norm": klpt.ROUND_CAP}
    reached.update(tally)
    assert set(reached) == klpt.ROUND_FAILURES


def test_prime_hunt_failure_keeps_its_reason(monkeypatch):
    # a round whose prime hunt raises is filed under the hunt's own message
    ctx = search_with_first_call(monkeypatch, quat, "equiv_prime_large_nonresidue",
                                 hunt_without_draws(monkeypatch))
    assert ctx.failures["prime window too large to enumerate"] == 1
    assert ctx.verify()


@pytest.mark.parametrize("p", [103, 101, 97])
def test_powersmooth_equiv(p):
    bound = 2**10
    o0 = quat.special_order(quat.construct_algebra(p)).order
    out = klpt.powersmooth_equiv(o0, bound, random.Random(0))
    assert quat.ideal_equivalence_test(o0, out) is not None
    fac = arith.factor_completely(out.norm())
    assert fac.complete and all(q**e <= bound for q, e in fac.factors)


def test_powersmooth_equiv_at_a_61_bit_prime():
    # bound 2^20 gives n1 = n2 ~ 2^1478; the search's ellipse boxes pass 2^63 rows
    bound = 2**20
    o0 = quat.special_order(quat.construct_algebra(2**61 - 1)).order
    out = klpt.powersmooth_equiv(o0, bound, random.Random(0))
    assert quat.ideal_equivalence_test(o0, out) is not None
