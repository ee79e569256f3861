"""Quadratic form lattices: reduction, counting, samplers.

Brute-force box enumerations serve as the oracle for every geometric
claim; samplers are additionally checked for support and rough balance.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatpath import klpt, lattice, linalg, qform, quat
from quatpath.arith import Factorization
from quatpath.errors import BudgetError, ValidationError
from quatpath.lattice import (
    GramForm,
    count_ellipsoid_dim2,
    enumerate_by_value,
    enumerate_ellipsoid_dim2,
    lll_reduce,
    reduce_binary,
    sample_ellipsoid,
    sample_ellipsoid_coset_dim2,
)
from quatpath.qform import BinaryQF

from oracles import shortest_nonzero


def rand_posdef(rng, n, spread=6, odd=False):
    """Random positive definite form with Gram B^T B, B random and nonsingular.

    With odd=True the Gram is B^T A B / 2 instead, A the Gram of the root
    lattice A_n (2 on the diagonal, -1 beside it).  Then 2G has odd entries
    off the diagonal, as every quaternion form q_gram has.
    """
    if odd:
        a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    else:
        a = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        b = [[rng.randrange(-spread, spread + 1) for _ in range(n)] for _ in range(n)]
        g = [[sum(b[k][i] * a[k][t] * b[t][j] for k in range(n) for t in range(n))
              for j in range(n)] for i in range(n)]
        if linalg.det_bareiss(tuple(map(tuple, g))) != 0:
            return GramForm([[Fraction(x, 1 + odd) for x in row] for row in g])


def quat_forms():
    """q_gram of O0 and of a seeded 3-walk from it at p = 103, 101, 97."""
    spec = klpt.WalkSpec.from_norm(Factorization(((3, 1),), 1))
    out = []
    for p in (103, 101, 97):
        o0 = quat.special_order(quat.construct_algebra(p)).order
        out += [o0.q_gram(), klpt.random_walk(o0, spec, random.Random(f"forms/{p}")).q_gram()]
    return out


def rand_binary(rng, spread=6):
    """The binary form of a random rank-2 rand_posdef Gram."""
    m = rand_posdef(rng, 2, spread).m
    return BinaryQF(m[0][0] // 2, m[0][1], m[1][1] // 2)


def as_gram(f):
    """The Fraction Gram of a binary form, for the brute-force oracles."""
    h = Fraction(f.b, 2)
    return GramForm(((f.a, h), (h, f.c)))


def twice_value(form, v):
    """2 f(v) = v^T (2G) v for a rational vector v, for the oracles."""
    m = form.m
    return sum(m[i][j] * a * b for i, a in enumerate(v) if a for j, b in enumerate(v) if b)


def as_point(shift):
    """The rational point (q1, q2)/d of a rank-2 coset shift (q1, q2, d)."""
    q1, q2, d = shift
    return Fraction(q1, d), Fraction(q2, d)


def brute_box(form, shift, rho):
    """Per-coordinate range certain to contain {x : f(x + shift) <= rho}.

    Coordinate i of any point in the ellipsoid is bounded by
    sqrt(rho * (G^-1)_ii) = sqrt(2 rho ((2G)^-1)_ii), independent of
    basis skew.
    """
    inv = linalg.inverse_fraction(form.m)
    out = []
    for i in range(form.rank):
        r2 = 2 * Fraction(rho) * inv[i][i]
        b = math.isqrt(r2.numerator // r2.denominator) + 2
        s = Fraction(shift[i])
        out.append(b + abs(s.numerator) // s.denominator + 1)
    return out


def brute_points(form, shift, rho):
    """All x with f(x + shift) <= rho, by exhaustive box scan."""
    box = brute_box(form, shift, rho)
    return [
        x for x in itertools.product(*(range(-b, b + 1) for b in box))
        if twice_value(form, tuple(a + s for a, s in zip(x, shift))) <= 2 * rho
    ]


def test_gramform_validation():
    GramForm(((2, Fraction(1, 2)), (Fraction(1, 2), 3)))
    with pytest.raises(ValueError):
        GramForm(((Fraction(1, 2), 0), (0, 1)))  # non-integer diagonal
    with pytest.raises(ValueError):
        GramForm(((1, Fraction(1, 3)), (Fraction(1, 3), 1)))  # off-diag not half-int
    with pytest.raises(ValueError):
        GramForm(((1, 2), (2, 1)))  # indefinite
    with pytest.raises(ValueError):
        GramForm(((1, 0), (1, 1)))  # asymmetric


def test_value_and_inner():
    f = GramForm(((2, Fraction(3, 2)), (Fraction(3, 2), 5)))
    assert f.value_int((1, 0)) == 2
    assert f.value_int((0, 1)) == 5
    assert f.value_int((1, 1)) == 10
    assert f.value_int((2, -1)) == 2 * 4 - 3 * 2 + 5
    # the stored matrix is 2G, the Gram of the bilinear form of f
    assert f.m == ((4, 3), (3, 10))


def test_transform_identity():
    rng = random.Random(20)
    for _ in range(100):
        f = rand_posdef(rng, 3)
        u = tuple(
            tuple(rng.randrange(-3, 4) for _ in range(3)) for _ in range(3)
        )
        g = f.transform(u)
        for _ in range(10):
            x = tuple(rng.randrange(-4, 5) for _ in range(3))
            xu = tuple(sum(x[i] * u[i][j] for i in range(3)) for j in range(3))
            assert g.value_int(x) == f.value_int(xu)


def check_lll(f):
    n = f.rank
    red, u = lll_reduce(f)
    assert abs(linalg.det_bareiss(u)) == 1
    assert f.transform(u).m == red.m
    assert linalg.det_bareiss(red.m) == linalg.det_bareiss(f.m)
    # LLL guarantee: first vector within 2^(n-1) of the minimum
    lam = shortest_nonzero(f)[1]
    assert red.m[0][0] <= 2 ** n * lam


def test_lll_reduce():
    rng = random.Random(21)
    for _ in range(60):
        check_lll(rand_posdef(rng, rng.randrange(2, 5)))
    # half-integer forms: odd entries off the diagonal of 2G
    rng = random.Random(32)
    for _ in range(40):
        check_lll(rand_posdef(rng, rng.randrange(2, 6), odd=True))
    for f in quat_forms():
        check_lll(f)


def test_gauss_reduce_binary():
    # the one binary reduction: canonical output, an SL2(Z) transform
    # carrying the input to it, and the same steps as qform.reduce_form
    rng = random.Random(22)
    forms = [(f.a, f.b, f.c) for f in (rand_binary(rng) for _ in range(200))]
    # boundaries of the fundamental domain (b = -a, a = c), reached directly,
    # by a swap (162, 162, 63) and by a shear ((3, 3, 5) sheared by 5)
    forms += [(3, -3, 5), (3, 3, 5), (5, -2, 5), (5, 2, 5), (4, -4, 4), (4, 4, 4),
              (7, 7, 7), (2, -2, 2), (162, 162, 63), (3, 33, 95)]
    for abc in forms:
        (a, b, c), u = reduce_binary(*abc)
        assert abs(b) <= a <= c
        assert -a < b <= a <= c and (a != c or b >= 0)
        assert linalg.det_bareiss(u) == 1
        assert BinaryQF(*abc).transform(linalg.transpose(u)) == BinaryQF(a, b, c)
        red, m = qform.reduce_form(BinaryQF(*abc))
        assert (red.a, red.b, red.c) == (a, b, c)
        assert linalg.transpose(m) == u


def test_count_and_enumerate_ellipsoid_dim2():
    rng = random.Random(24)
    for _ in range(100):
        f = rand_binary(rng, spread=3)
        rho = rng.randrange(1, 60)
        shift = (rng.randrange(-8, 9), rng.randrange(-8, 9), 4)
        want = brute_points(as_gram(f), as_point(shift), rho)
        assert count_ellipsoid_dim2(f, shift, rho) == len(want)
        got = enumerate_ellipsoid_dim2(f, shift, rho)
        assert sorted(got) == sorted(want)


def test_count_ellipsoid_budget():
    with pytest.raises(BudgetError):
        count_ellipsoid_dim2(BinaryQF(1, 0, 1), (0, 0, 1), 10**9, budget=100)


@pytest.mark.parametrize("d", [0, -3])
def test_coset_shift_denominator_must_be_positive(d):
    f, rng = BinaryQF(2, 1, 3), random.Random(0)
    for call in (lambda: count_ellipsoid_dim2(f, (1, 1, d), 40),
                 lambda: enumerate_ellipsoid_dim2(f, (1, 1, d), 40),
                 lambda: sample_ellipsoid_coset_dim2(f, (1, 1, d), 40, rng)):
        with pytest.raises(ValidationError, match="denominator"):
            call()


def test_coset_shift_need_not_be_in_lowest_terms():
    # the row box depends on the point only, so (15, -18, 45) gives the
    # points and the draws of (5, -6, 15), both rows-scanned and, at
    # rho = 3000, box-sampled
    f = BinaryQF(7, 13, 11)
    for rho in (0, 45, 300, 3000):
        want = sorted(brute_points(as_gram(f), (Fraction(1, 3), Fraction(-2, 5)), rho))
        draws = []
        for shift in ((5, -6, 15), (15, -18, 45)):
            assert count_ellipsoid_dim2(f, shift, rho) == len(want)
            assert sorted(enumerate_ellipsoid_dim2(f, shift, rho)) == want
            rng = random.Random(rho)
            draws.append([sample_ellipsoid_coset_dim2(f, shift, rho, rng) for _ in range(20)])
        assert draws[0] == draws[1]
    assert coset_box_rows(f, (15, -18, 45), 3000) > lattice._FEW_ROWS


def chi2_z(counts, draws):
    """z-score of Pearson's chi^2 against the uniform law on the counts' keys."""
    k = len(counts)
    want = draws / k
    chi2 = sum((c - want) ** 2 / want for c in counts.values())
    return (chi2 - (k - 1)) / math.sqrt(2 * (k - 1))


def coset_box_rows(f, shift, rho):
    _, _, _, (_, count, _) = lattice._coset_box(f, shift, rho)
    return count


def test_sample_ellipsoid_coset_dim2():
    f = BinaryQF(2, 1, 3)
    shift = (1, -1, 3)
    # rho = 40 is drawn from the stored rows, rho = 800 (34 rows, one set
    # past the row cutoff) by accepting points of the row box
    for rho, few in ((40, True), (800, False)):
        assert (coset_box_rows(f, shift, rho) <= lattice._FEW_ROWS) == few
        pts = brute_points(as_gram(f), as_point(shift), rho)
        rng = random.Random(27)
        counts = {p: 0 for p in pts}
        draws = 20 * len(pts)
        for _ in range(draws):
            x = sample_ellipsoid_coset_dim2(f, shift, rho, rng)
            assert x in counts
            counts[x] += 1
        assert all(c > 0 for c in counts.values())
        assert abs(chi2_z(counts, draws)) < 4
    # empty coset window reports None
    assert sample_ellipsoid_coset_dim2(f, shift, 0, rng) is None


def test_prepared_coset_sampler_draws_as_one_shot_calls():
    # a sampler prepared once and drawn k times gives the points of k
    # one-shot calls on the same rng: from the stored rows (rho = 40), by
    # row-box acceptance (rho = 800) and from an empty coset (rho = 0, -1)
    f = BinaryQF(2, 1, 3)
    shift = (1, -1, 3)
    assert coset_box_rows(f, shift, 40) <= lattice._FEW_ROWS < coset_box_rows(f, shift, 800)
    for rho in (40, 800, 0, -1):
        draw = lattice.coset_sampler_dim2(f, shift, rho)
        rng1, rng2 = random.Random(rho), random.Random(rho)
        prepared = [draw(rng1) for _ in range(50)]
        assert prepared == [sample_ellipsoid_coset_dim2(f, shift, rho, rng2) for _ in range(50)]
        assert rng1.getstate() == rng2.getstate()
        assert (prepared == [None] * 50) == (rho <= 0)


def test_sample_ellipsoid_coset_dim2_thin():
    # a thin ellipse: 4 rows but 5022 points, and disc4 ~ 2.4e22 dwarfs
    # rho ~ 1.2e14, so a sampler padded by the covering radius would accept
    # about one try in 10^7
    f = BinaryQF(143591459, 143591459, 42600257174205)
    shift = (10043973, -20087946, 13053769)
    rho = 118145975755924
    assert coset_box_rows(f, shift, rho) == 4
    assert count_ellipsoid_dim2(f, shift, rho) == 5022
    pts = set(enumerate_ellipsoid_dim2(f, shift, rho))
    rng = random.Random(0)
    for _ in range(500):
        assert sample_ellipsoid_coset_dim2(f, shift, rho, rng) in pts


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(-30, 30), st.integers(1, 30),
       st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 20),
       st.integers(0, 400), st.data())
def test_rank2_layer_at_any_size(a, b, c, q1, q2, d, bits, data):
    # rho + 1 lies in [2^(bits-1), 2^bits] (rho = -1 or 0 at bits 0): a box
    # of over 2^63 rows is plain integers to the sampler, and past their
    # budgets count and enumerate refuse it before reading a row
    if b * b >= 4 * a * c:
        b = 0
    f, shift = BinaryQF(a, b, c), (q1, q2, d)
    rho = data.draw(st.integers(2**bits // 2, 2**bits)) - 1
    x = sample_ellipsoid_coset_dim2(f, shift, rho, random.Random(bits))
    if x is not None:
        m, n = d * x[0] + q1, d * x[1] + q2
        assert a * m * m + b * m * n + c * n * n <= rho * d * d
    if bits <= 10:
        want = sorted(brute_points(as_gram(f), as_point(shift), rho)) if rho >= 0 else []
        assert count_ellipsoid_dim2(f, shift, rho) == len(want)
        assert sorted(enumerate_ellipsoid_dim2(f, shift, rho)) == want
        assert (x is None) == (not want)
    elif bits >= 80:
        # over 4*sqrt(rho/disc4) - 2 > 10^8 rows, as disc4 <= 3600
        assert x is not None
        with pytest.raises(BudgetError):
            count_ellipsoid_dim2(f, shift, rho)
        with pytest.raises(BudgetError):
            enumerate_ellipsoid_dim2(f, shift, rho)


def test_sample_ellipsoid_general_rank():
    rng = random.Random(28)
    for n in (3, 4):
        f = rand_posdef(rng, n, spread=2)
        rho = (f.m[0][0] + f.m[1][1]) // 2 + 8
        seen = set()
        for _ in range(400):
            x = sample_ellipsoid(f, rho, rng)
            v = f.value_int(x)
            assert 0 < v <= rho
            seen.add(x)
        assert len(seen) > 1
    # the boundary f(x) = rho is inside: at rho = 1 only unit vectors qualify
    unit = GramForm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for _ in range(50):
        assert unit.value_int(sample_ellipsoid(unit, 1, rng)) == 1


def test_sample_ellipsoid_budget():
    # radius below the first minimum: nothing to sample, and a draw gives
    # up after its fixed number of box tries
    f = GramForm(((5, 0), (0, 7)))
    with pytest.raises(BudgetError):
        sample_ellipsoid(f, 3, random.Random(29))


def check_enumeration(f, bound, lower):
    n = f.rank
    got = list(enumerate_by_value(f, bound, lower=lower))
    for x, v in got:
        assert f.value_int(x) == v and lower <= v <= bound
        # canonical antipodal representative
        nz = next(c for c in x if c)
        assert nz > 0
    want = {
        tuple(p)
        for p in brute_points(f, (0,) * n, bound)
        if any(p) and f.value_int(p) >= lower
    }
    # fold antipodes
    folded = set()
    for p in want:
        nz = next(c for c in p if c)
        folded.add(p if nz > 0 else tuple(-c for c in p))
    assert {x for x, _ in got} == folded


def test_enumerate_by_value_matches_brute():
    # the second pass draws half-integer forms: odd entries off the diagonal of 2G
    for seed, odd, cases in ((30, False, 60), (33, True, 30)):
        rng = random.Random(seed)
        done = 0
        while done < cases:
            n = rng.randrange(2, 4)
            f = rand_posdef(rng, n, spread=3, odd=odd)
            bound = rng.randrange(1, 40)
            box = brute_box(f, (0,) * n, bound)
            if math.prod(2 * b + 1 for b in box) > 3 * 10**5:
                continue  # oracle too slow for this eccentricity, draw again
            done += 1
            check_enumeration(f, bound, rng.randrange(1, bound + 1))
    for f, lower in zip(quat_forms(), (1, 2, 1, 3, 2, 1)):
        check_enumeration(f, 4, lower)


def test_enumerate_by_value_node_budget(monkeypatch):
    monkeypatch.setattr(lattice, "_NODE_BUDGET", 1000)
    f = GramForm(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(BudgetError, match="over 1000 nodes"):
        list(enumerate_by_value(f, 10**4))
    assert len(list(enumerate_by_value(f, 1))) == 3


def test_enumerate_by_value_exact_boundary():
    f = GramForm(((1, 0), (0, 1)))
    hits = [x for x, v in enumerate_by_value(f, 25, lower=25)]
    assert sorted(hits) == [(0, 5), (3, -4), (3, 4), (4, -3), (4, 3), (5, 0)]


def test_shortest_nonzero():
    rng = random.Random(31)
    done = 0
    while done < 60:
        f = rand_posdef(rng, rng.randrange(2, 5), spread=4)
        x, v = shortest_nonzero(f)
        assert f.value_int(x) == v
        box = brute_box(f, (0,) * f.rank, v)
        if math.prod(2 * b + 1 for b in box) > 3 * 10**5:
            continue
        done += 1
        vals = [f.value_int(p) for p in brute_points(f, (0,) * f.rank, v) if any(p)]
        assert vals and min(vals) == v
