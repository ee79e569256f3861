"""Seeded outputs pinned bit for bit.

Each expected value below was recorded once from the code as it stood and
must never be edited to follow a change: a refactor of the binary
reduction, the rank-2 lattice layer, the norm-equation stack, the
quaternion layer, the rank-4 LLL and Fincke-Pohst core, the integer
elimination or the equivalent-ideal search has to reproduce every one
of them.  Long outputs are pinned by a digest of their repr, short ones
literally.
"""

import ast
import hashlib
import random
from fractions import Fraction

import pytest

from quatpath import arith, eqsolver, klpt, lattice, linalg, qform, quat
from quatpath.arith import Factorization
from quatpath.errors import BudgetError
from quatpath.qform import BinaryQF


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# norm equations on O0


def norm_rep_outputs():
    out = []
    for p in (1019, 1013, 1009):  # p = 3 mod 4, 5 mod 8, 1 mod 8
        alg = quat.construct_algebra(p)
        prime = arith.next_prime(37 * p * p)
        smooth = 3**5 * 5**3 * 7**2 * 11 * 13
        for n in (prime, smooth):
            assert p * p <= n <= p**3
            alpha = eqsolver.represent_in_O0(alg, n, random.Random(f"golden/{p}/{n}"))
            out.append((p, n, tuple(str(c) for c in alpha.coords)))
    return out


# Re-pinned with GOLDEN_COSET: these targets reach cosets of more than 32
# box rows.
def test_represent_in_O0_pinned():
    assert norm_rep_outputs() == [
        (1019, 38419379, ("-3638", "2895", "127", "19")),
        (1019, 212837625, ("12020", "3517", "-140", "188")),
        (1013, 37968277, ("1829", "1032", "126", "90")),
        (1013, 212837625, ("-4939", "-8289", "206", "63")),
        (1009, 37669003, ("207/2", "1607/2", "153", "25")),
        (1009, 212837625, ("-6531", "-1760", "-214", "90")),
    ]


# solve_master with gamma = 1 at h(f) > 1, so a = 1 and the right-hand
# layer draws non-principal classes of disc g = disc f: -23 has three
# classes in one genus, -20 two in two genera.  At n = 100003 seed 3 draws
# one prime z of f's genus that f does not represent, and draws again.
# Re-pinned when the left-hand layer, which scaled f(s, t) by b0^2 for b0
# the product of one table prime per class of disc f, was replaced by
# Cornacchia on f alone.
MASTER_CASES = [((2, 1, 3), 1, 100000007), ((2, 1, 3), 1, 100003), ((2, 2, 3), 1, 99991)]

GOLDEN_MASTER = [
    [(-2444, -2521, 917, -4670), (-14, 1191, 4929, 3228), (5654, 1179, -1711, -2272),
     (358, 5619, -1219, -31), (-532, -1815, 4838, -4624), (4882, 1533, 3569, -2707)],
    [(32, -41, 209, -94), (140, -107, -136, -22), (64, 57, -202, 42),
     (-44, 125, -92, -98), (-176, -73, -52, -28), (74, 55, -183, 93)],
    [(-77, -65, -14, 152), (-136, -27, 146, -126), (62, -133, 96, 84),
     (86, 119, -6, -84), (-173, 127, 146, -56), (29, -79, -122, -100)],
]


def test_solve_master_multi_class_pinned():
    got = []
    for f, b, n in MASTER_CASES:
        inst = eqsolver.equation_instance(BinaryQF(*f), ((1, 0), (0, 1)), b, n)
        got.append([eqsolver.solve_master(inst, random.Random(seed)) for seed in range(6)])
    assert got == GOLDEN_MASTER


# solve_master with gamma of determinant 5: a = 25 has two root classes, so
# every attempt shuffles and walks several coset offsets.
GOLDEN_MASTER_GAMMA = [(26, -35, 333, -17), (350, -389, -69, 35), (494, -11, -199, 25),
                       (-227, 298, 249, 1)]


def test_solve_master_gamma_pinned():
    inst = eqsolver.equation_instance(BinaryQF(1, 0, 1), ((1, 2), (0, 5)), 103, 10**7 + 3)
    got = [eqsolver.solve_master(inst, random.Random(seed)) for seed in range(4)]
    assert got == GOLDEN_MASTER_GAMMA


# At p = 1873 (f = (1, 1, 6), h(f) = 3) and n = 10007 the window n - 1
# holds only f-values 0 and 1 at b = 1873, so z is 10007 or
# 8134 = 2 * 7^2 * 83.  10007 is prime and of f's one genus, but only
# (2, +-1, 3) represents it: all 4000 attempts end z_composite or z_class,
# and the stats witness each of them, including the 2658 classes drawn
# whose window fit fell back to the principal class.  Re-pinned with
# GOLDEN_MASTER: the left-hand layer's a = 39^2 had left every window empty.
GOLDEN_MASTER_EXHAUSTED = {"empty_window": 0, "z_composite": 3196, "z_residue": 0,
                           "z_class": 804, "divisor_infeasible": 2658}


def test_represent_in_O0_exhausted_pinned():
    alg = quat.construct_algebra(1873)
    with pytest.raises(BudgetError) as err:
        eqsolver.represent_in_O0(alg, arith.next_prime(10**4), random.Random(0))
    stats = ast.literal_eval(str(err.value).partition("stats ")[2])
    assert stats == GOLDEN_MASTER_EXHAUSTED


# ---------------------------------------------------------------------------
# the coset sampler on the skew forms sample_az_plus_bg builds

# (g, a, n): sample_az_plus_bg(a, 1, n, g, ...) samples the coset
# x0/a + Z^2 of the sublattice basis ((a, 0), (r, 1)) of g, whose Gram is
# far from reduced.  rho values give sets of exactly 0 and 1 points, sets
# whose box has exactly _FEW_ROWS = 32 and 33 rows (up to 32 rows the
# sampler draws from the stored rows) and one large set.
COSET_CASES = [
    ((5, 4, 29), 47, 100007, (37, 38, 166061, 173280, 5_000_000)),
    ((10, -6, 17), 23, 100001, (65, 66, 307461, 324635, 3_000_000)),
    ((3, -2, 41), 61, 100001, (265, 266, 300834, 334668)),
]


def az_coset(g: BinaryQF, a: int, n: int):
    """The form and the root-class offsets x0, each the coset shift
    (x0, 0, a), that sample_az_plus_bg builds for b = 1."""
    m = qform._coprime_leading_transform(g, a)
    gt = g.transform(m)
    target = (4 * gt.a * n) % a
    inv2a = arith.inv_mod(2 * gt.a, a)
    gram = gt.transform(((a, (-gt.b * inv2a) % a), (0, 1)))
    offsets = sorted((r * inv2a) % a for r in arith.sqrt_mod(target, a, 1))
    return gram, offsets


def coset_outputs():
    out = []
    for g, a, n, rhos in COSET_CASES:
        gram, offsets = az_coset(BinaryQF(*g), a, n)
        shift = (offsets[0], 0, a)
        for rho in rhos:
            size = lattice.count_ellipsoid_dim2(gram, shift, rho)
            rng = random.Random(f"golden/coset/{g}/{rho}")
            draws = [lattice.sample_ellipsoid_coset_dim2(gram, shift, rho, rng) for _ in range(6)]
            out.append(((gram.a, gram.b, gram.c), str(Fraction(offsets[0], a)), rho, size,
                        digest(draws)))
    return out


# The entries of rho 166061 and up were re-pinned when the rejection core
# behind sets of over 4096 points was replaced by the exact row sampler: on
# thin ellipses that core raised RuntimeError.  Sets of at most 32 box rows
# keep the draws they had.
GOLDEN_COSET = [
    ((11045, 4418, 470), '8/47', 37, 0, '97feebf13ebdd66935da2417'),
    ((11045, 4418, 470), '8/47', 38, 1, '50111d837f68542f054f1a2b'),
    ((11045, 4418, 470), '8/47', 166061, 934, 'dceca5763c3fe2bd479c2432'),
    ((11045, 4418, 470), '8/47', 173280, 973, 'd93f106ef91fc3ebdceb6cd4'),
    ((11045, 4418, 470), '8/47', 5000000, 28137, '9aa2302c8b1bfaab9d7bf8c5'),
    ((5290, 9522, 4301), '5/23', 65, 0, '97feebf13ebdd66935da2417'),
    ((5290, 9522, 4301), '5/23', 66, 1, 'c842e035c7e45ab86fbba577'),
    ((5290, 9522, 4301), '5/23', 307461, 3303, '27721cd21aa0418ca3b42e54'),
    ((5290, 9522, 4301), '5/23', 324635, 3483, 'a82aafcd177bd9fa8feac35f'),
    ((5290, 9522, 4301), '5/23', 3000000, 32300, 'c189ea8cfd6a498248abe40f'),
    ((11163, 14884, 5002), '29/61', 265, 0, '97feebf13ebdd66935da2417'),
    ((11163, 14884, 5002), '29/61', 266, 1, '6759bd7957abc97a9646301d'),
    ((11163, 14884, 5002), '29/61', 300834, 1402, '1e02bb1026ba7255d7927635'),
    ((11163, 14884, 5002), '29/61', 334668, 1561, '658d126ba82977e2863e6faf'),
]


def box_rows(gram, shift, rho):
    _, _, _, (_, count, _) = lattice._coset_box(gram, shift, rho)
    return count


def test_coset_sampler_pinned():
    got = coset_outputs()
    assert [row[3] for row in got] == [
        0, 1, 934, 973, 28137, 0, 1, 3303, 3483, 32300, 0, 1, 1402, 1561
    ]
    for g, a, n, rhos in COSET_CASES:
        gram, offsets = az_coset(BinaryQF(*g), a, n)
        shift = (offsets[0], 0, a)
        assert [box_rows(gram, shift, rho) for rho in rhos[2:4]] == [32, 33]
        assert box_rows(gram, shift, rhos[2] - 1) == 31
    assert got == GOLDEN_COSET


# The second row was re-pinned with GOLDEN_COSET: its cosets have more than
# 32 box rows.
GOLDEN_AZ = [
    [(223, 125, 13), (1231, -83, 23), (2118, 3, -4), (1290, 78, 13), (381, 128, -18)],
    [(122259, 130, 904), (442272, 414, 509), (189636, 2055, -280),
     (287823, -828, -616), (572652, 469, -296)],
    [(2664, -12, -49), (2569, -47, 26), (655, -94, -8), (1579, -82, -14), (3132, 51, -5)],
]


def test_sample_az_plus_bg_pinned():
    out = []
    for g, a, n in [((5, 4, 29), 47, 100007), ((5, 4, 29), 47, 30_000_017),
                    ((10, -6, 17), 23, 100001)]:
        fa = Factorization(((a, 1),), 1)
        rng = random.Random(f"golden/az/{g}/{n}")
        out.append([eqsolver.sample_az_plus_bg(a, 1, n, BinaryQF(*g), fa, rng)
                    for _ in range(5)])
    assert out == GOLDEN_AZ


# ---------------------------------------------------------------------------
# counting and enumerating shifted ellipses


SHIFTED_CASES = [
    ((11045, 4418, 470), (39, 0, 47), 40000),
    ((5290, 9522, 4301), (5, 0, 23), 30000),
    ((7, 13, 11), (5, -6, 15), 300),
    ((3, -3, 5), (1, 1, 2), 120),
    ((5, -2, 5), (0, 3, 4), 90),
    ((1, 0, 1), (0, 0, 1), 50),
]


GOLDEN_SHIFTED = [
    (226, 226, '7b86295c5d84927963247137'),
    (324, 324, 'c3ec6fdcbd5269a860f302f9'),
    (162, 162, '4a503fdc214bffa16fff95a7'),
    (106, 106, '0497512fe6c56fbc939f54ff'),
    (59, 59, 'b261e198b8162a1812fcc1a9'),
    (161, 161, '0caba0accbee84a0bbf337c0'),
]


def test_count_and_enumerate_pinned():
    got = []
    for abc, shift, rho in SHIFTED_CASES:
        gram = BinaryQF(*abc)
        pts = sorted(lattice.enumerate_ellipsoid_dim2(gram, shift, rho))
        got.append((lattice.count_ellipsoid_dim2(gram, shift, rho), len(pts), digest(pts)))
    assert got == GOLDEN_SHIFTED


# ---------------------------------------------------------------------------
# binary forms


REDUCE_CASES = [
    (3, -3, 5),    # b = -a
    (5, -2, 5),    # a = c, b < 0
    (4, -4, 9),    # b = -a after nothing else moves
    (6, 6, 6),
    (7, 30, 40),
    (162, 162, 63),
    (11532, 13454, 3937),
    (136493019, 178134957, 58120452),
    (1, 101, 2600),
    (2209, 0, 141),
]


GOLDEN_REDUCE = [
    ((3, 3, 5), ((1, 1), (0, 1))),
    ((5, 2, 5), ((0, -1), (1, 0))),
    ((4, 4, 9), ((1, 1), (0, 1))),
    ((6, 6, 6), ((1, 0), (0, 1))),
    ((7, 2, 8), ((1, -2), (0, 1))),
    ((63, 36, 63), ((-1, 0), (1, -1))),
    ((372, -62, 403), ((1, 3), (-2, -5))),
    ((88218, -77571, 246402), ((-15, -2), (23, 3))),
    ((1, 1, 50), ((1, -50), (0, 1))),
    ((141, 0, 2209), ((0, -1), (1, 0))),
]
GOLDEN_REDUCE_SWEEP = "e6c7ce2eae04bf420982d14d"


def test_reduce_form_pinned():
    got = [reduce_and_transform(BinaryQF(*abc)) for abc in REDUCE_CASES]
    assert got == GOLDEN_REDUCE
    rng = random.Random("golden/reduce")
    sweep = []
    for _ in range(300):
        a = rng.randrange(1, 500)
        b = rng.randrange(-3000, 3001)
        c = (b * b) // (4 * a) + 1 + rng.randrange(0, 200)
        sweep.append(reduce_and_transform(BinaryQF(a, b, c)))
    assert digest(sweep) == GOLDEN_REDUCE_SWEEP


def reduce_and_transform(f):
    red, m = qform.reduce_form(f)
    return (red.a, red.b, red.c), m


GOLDEN_COMPOSE = [
    ((2, 2, 71), (-2, 1)),
    ((1, 0, 141), (-275, 15)),
    ((2, 2, 71), (23, -2)),
    ((1, 0, 141), (186, 11)),
]


def test_compose_with_coords_pinned():
    cg = qform.class_group(-564)
    got = []
    for i, j, v1, v2 in [(0, 1, (1, 0), (2, -1)), (1, 1, (3, 1), (-1, 4)),
                         (2, 5, (1, 1), (0, 1)), (3, 4, (2, 3), (5, -2))]:
        h, w = qform.compose_with_coords(cg.forms[i], v1, cg.forms[j], v2)
        got.append(((h.a, h.b, h.c), w))
    assert got == GOLDEN_COMPOSE


GOLDEN_CORNACCHIA = [
    (-131, 122),
    (209, 110),
    (-12, 49),
    (-171, -3),
    None,
]


def test_cornacchia_pinned():
    got = []
    for abc, z in [((1, 0, 1), 5 * 13 * 17 * 29), ((1, 1, 3), 11 * 11 * 23 * 37),
                   ((2, 1, 3), 3 * 3 * 13 * 59), ((1, 0, 1), 2 * 3 * 3 * 5 * 5 * 5 * 13),
                   ((5, 4, 29), 5 * 7 * 7 * 11)]:
        got.append(qform.cornacchia(BinaryQF(*abc), z, arith.factor_completely(z)))
    assert got == GOLDEN_CORNACCHIA


# ---------------------------------------------------------------------------
# quaternion ideals: walks, prime-norm equivalents, orders, classes


def json_digest(lat) -> str:
    return hashlib.sha256(lat.to_json().encode()).hexdigest()[:24]


GOLDEN_QUAT = [
    (103, '1770719bab5beb86b15c6f7f', '74e6fff23cfd6ae1dee00034', 8291,
     ('-700', '477', '-68', '1'), 'e2e1271a5d4d657bf227447e', '74a1418c010332efb774050a'),
    (101, 'ed52b1cf4485096686cbb732', '432c3d65f3b9c7cd5d82b62a', 7547,
     ('-723', '-603/2', '0', '87/2'), '374394c62195adf019c8e5ed', '452b262fcc5035be2a160586'),
    (97, '3faf07c907f10d769bd2d78d', '74f9daa789cfcd787e77ac07', 7309,
     ('-632', '454/7', '22', '-204/7'), '8bd5cce6003ff019c6a1dd7b', '6bb45612195f1bd46b329eaf'),
]


def test_quat_ideals_pinned():
    # one prime per class: p = 3 mod 4, 5 mod 8, 1 mod 8
    spec = klpt.WalkSpec.from_norm(Factorization(((2, 4), (3, 2)), 1))
    got = []
    for p in (103, 101, 97):
        o0 = quat.special_order(quat.construct_algebra(p)).order
        rng = random.Random(f"golden/quat/{p}")
        walked = klpt.random_walk(o0, spec, rng)
        prime_ideal, wit = quat.equiv_prime_large_nonresidue(walked, p, 2, rng)
        right = quat.right_order(walked)
        conn = quat.connecting_ideal(o0, right)
        got.append((p, json_digest(walked), json_digest(prime_ideal), prime_ideal.norm(),
                    tuple(str(c) for c in wit.coords), json_digest(right), json_digest(conn)))
    assert got == GOLDEN_QUAT


# (p, ell, class number, digest of the representatives); p = 13, 17, 19, 23
# cover p = 1, 5, 7, 11 mod 12
GOLDEN_CLASSES = [
    (37, 2, 3, "de0d8dce8136b16c20caca25"),
    (13, 2, 1, "90835e8428e9753d69972f0a"),
    (13, 3, 1, "90835e8428e9753d69972f0a"),
    (17, 2, 2, "bae181e435981a8a54668fa7"),
    (17, 3, 2, "87c99c7298f9abd6a35b92cb"),
    (19, 2, 2, "1c45bcf52845545fdad9abbd"),
    (19, 3, 2, "71ffc84b8aca4efa4e38d698"),
    (23, 2, 3, "5bf5ea7bf921f927f896ca42"),
    (23, 3, 3, "971a7b32db9316ee42f44af9"),
]


def test_class_representatives_pinned():
    got = []
    for p, ell, _, _ in GOLDEN_CLASSES:
        o0 = quat.special_order(quat.construct_algebra(p)).order
        reps = klpt.ideal_class_representatives(o0, ell)
        joined = "\n".join(r.to_json() for r in reps)
        got.append((p, ell, len(reps), hashlib.sha256(joined.encode()).hexdigest()[:24]))
    assert got == GOLDEN_CLASSES


def test_ell_neighbors_pinned():
    # from O0 and from a walked ideal of norm 5 * 7, one prime per class
    spec = klpt.WalkSpec.from_norm(Factorization(((5, 1), (7, 1)), 1))
    got = []
    for p in (103, 101, 97):
        o0 = quat.special_order(quat.construct_algebra(p)).order
        walked = klpt.random_walk(o0, spec, random.Random(f"golden/neighbors/{p}"))
        for start in (o0, walked):
            for ell in (2, 3):
                nbs = klpt.ell_neighbors(start, ell)
                got.append((p, ell, "\n".join(nb.to_json() for nb in nbs)))
    assert digest(got) == "5b895b564d32272302780326"


# ---------------------------------------------------------------------------
# the rank-4 core: LLL and Fincke-Pohst on Gram forms


def two_g(form) -> tuple:
    """The integer matrix 2G of a form, read off its values alone."""
    n = form.rank
    e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    f = [form.value_int(v) for v in e]
    return tuple(
        tuple(2 * f[i] if i == j else
              form.value_int(tuple(a + b for a, b in zip(e[i], e[j]))) - f[i] - f[j]
              for j in range(n))
        for i in range(n)
    )


def skew_forms():
    """Seeded skewed forms B^T A B / 2 of rank 2 to 5, A the A_n root Gram.

    A has odd off-diagonal entries, so these forms have half-integers off
    the diagonal of G, as every quaternion form does.
    """
    rng = random.Random("golden/lll")
    out = []
    for n in (2, 3, 4, 5):
        a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
        while len(out) < 6 * (n - 1):
            b = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            m = [[sum(b[k][i] * a[k][t] * b[t][j] for k in range(n) for t in range(n))
                  for j in range(n)] for i in range(n)]
            if linalg.det_bareiss(tuple(map(tuple, m))) != 0:
                out.append(lattice.GramForm([[Fraction(x, 2) for x in row] for row in m]))
    return out


def walked_forms():
    """q_gram of the seeded walks of test_quat_ideals_pinned's spec."""
    spec = klpt.WalkSpec.from_norm(Factorization(((2, 4), (3, 2)), 1))
    out = []
    for p in (103, 101, 97):
        o0 = quat.special_order(quat.construct_algebra(p)).order
        out.append((p, klpt.random_walk(o0, spec, random.Random(f"golden/quat/{p}")).q_gram()))
    return out


def lll_outputs(forms):
    out = []
    for form in forms:
        red, u = lattice.lll_reduce(form)
        out.append((tuple(map(tuple, u)), two_g(red)))
    return out


GOLDEN_LLL_SKEW = "44a76c48899cee6a75ec34a3"
GOLDEN_LLL_QUAT = [
    (103, '89cc78ac7b4bf4ec9a722c5c'),
    (101, '47df0f623d80cb9be9b42fe3'),
    (97, 'e7a69d8b8972a1073be9abcf'),
]
GOLDEN_ENUMERATE = [
    (103, 1, 'b1253ace7835b1041a4410b8'),
    (103, 51, '6ef0570f27605b21dc08a14b'),
    (101, 1, '2b425cca2185e67c93df37e3'),
    (101, 50, 'b1cfc85f10888f7fd7405e11'),
    (97, 1, 'd1e5fa18f24749bb76a33281'),
    (97, 48, '4040e01a1ccd7e9e9cd77247'),
]


def test_lll_reduce_pinned():
    # mu = 1/2 exactly: the rounding tie goes up, as floor(mu + 1/2)
    assert lll_outputs([lattice.GramForm(((2, 1), (1, 2)))]) == [
        (((1, 0), (-1, 1)), ((4, -2), (-2, 4)))
    ]
    assert digest(lll_outputs(skew_forms())) == GOLDEN_LLL_SKEW
    assert [(p, digest(lll_outputs([g]))) for p, g in walked_forms()] == GOLDEN_LLL_QUAT


def test_enumerate_by_value_pinned():
    got = []
    for p, g in walked_forms():
        for lower in (1, p // 2):
            got.append((p, lower, digest(list(lattice.enumerate_by_value(g, p, lower=lower)))))
    assert got == GOLDEN_ENUMERATE


# ---------------------------------------------------------------------------
# integer elimination: HNF, left kernels and intersections


def hnf_inputs():
    """Seeded integer matrices of the shapes the package eliminates.

    Rows x 4 from 4 to 16 rows (ideal bases, sums and products), the 8 x 8
    of an intersection of two rank-4 lattices and the 10 x 4 of a line
    selection, whose last four rows are n * I; then products of rank 2
    and 3, whose eliminations meet zero columns and leave zero rows.
    """
    rng = random.Random("golden/hnf")
    out = []
    for rows, cols in ((4, 4), (8, 4), (12, 4), (16, 4), (8, 8), (10, 4), (3, 2)):
        for _ in range(4):
            out.append(tuple(tuple(rng.randrange(-40, 41) for _ in range(cols))
                             for _ in range(rows)))
    for _ in range(4):
        n = rng.choice((7, 11, 61, 1009))
        top = [tuple(rng.randrange(-40, 41) for _ in range(4)) for _ in range(6)]
        out.append(tuple(top) + tuple(tuple(n * (i == k) for i in range(4)) for k in range(4)))
    for rows, inner, cols in ((6, 2, 4), (8, 3, 4), (8, 3, 8)):
        a = [[rng.randrange(-9, 10) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(inner)]
        out.append(linalg.mat_mul(a, b))
    return out


def intersection_inputs():
    """Seeded pairs of full-rank 4 x 4 bases, some sharing a sublattice."""
    rng = random.Random("golden/intersect")
    out = []
    while len(out) < 12:
        a, b = (tuple(tuple(rng.randrange(-12, 13) for _ in range(4)) for _ in range(4))
                for _ in range(2))
        if linalg.det_bareiss(a) and linalg.det_bareiss(b):
            out.append((a, b))
    return out


GOLDEN_HNF = "f3a675e1f28496969701ce8e"
GOLDEN_LEFT_KERNEL = "a3b31317b93107888f71f330"
GOLDEN_INTERSECTION = "1def2abef57a5aed80c85bba"


def test_hnf_pinned():
    assert linalg.hnf(((6, 4), (4, 6), (2, 2))) == ((2, 0), (0, 2))
    assert digest([linalg.hnf(m) for m in hnf_inputs()]) == GOLDEN_HNF


def test_left_kernel_pinned():
    # the kernel lattice is pinned, through its HNF; its basis may vary
    got = [linalg.hnf(linalg.left_kernel(m)) for m in hnf_inputs()]
    assert digest(got) == GOLDEN_LEFT_KERNEL


def test_lattice_intersection_pinned():
    got = [linalg.lattice_intersection(a, b) for a, b in intersection_inputs()]
    assert digest(got) == GOLDEN_INTERSECTION


# ---------------------------------------------------------------------------
# one seeded transcript of the equivalent-ideal search

GOLDEN_TRANSCRIPT = (
    1, (1, 603), 1483, "8ce5c9531d6926f87d7d38a0b66d2df639afac1621f4c5d3fc8fe5b69ce9f5d7")


def test_equiv_ideal_transcript_pinned():
    o0 = quat.special_order(quat.construct_algebra(103)).order
    ctx = klpt.equiv_ideal_context(o0, Factorization(((3, 2),), 1),
                                   Factorization(((5, 20),), 1), 2, random.Random(0))
    got = (ctx.rounds, ctx.line_select, ctx.prime_norm,
           hashlib.sha256(ctx.output.to_json().encode()).hexdigest())
    assert got == GOLDEN_TRANSCRIPT
