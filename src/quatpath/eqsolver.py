"""Integer solutions of a*f(s,t) + b*g(x,y) = n, and norm equations on O0.

The solver works in stages.  sample_az_plus_bg draws uniform solutions of
a*z + b*g(x,y) = n with z > 0 by splitting the congruence b*g = n mod a
into square-root classes and sampling the translated sublattice inside the
ellipsoid g <= (n-a)/b; everything but the draw depends only on
(a, b, n, g), so that set-up is built once and drawn from as often as
needed.  solve_master wraps this in two layers of class group
randomization so that the prime z-candidates it keeps can always be
pulled back to the target form f by Gauss composition: a right-hand layer
that moves g around its genus (trading a divisor d of the helper bound B
for a d^2 scaling), and a left-hand layer that replaces f(s,t) by
det(rho)^2 * z for a crafted transform rho whose determinant every class
of disc(f) can reach.  Both layers read exact per-class divisor tables.
The left layer takes one path for every class number: at h(f) = 1 its
table makes rho the identity.  The right layer resolves each class once
per solve_master call, sets up the sampler once per resolved class, and
never composes for the principal class; past GENUS_ENUM_DISC_BOUND no
table is built for disc(g), and it stays at the principal class.
represent_in_O0 feeds the special order's norm form through the same
pipeline.

local_obstruction(inst), the one solvability check, names the modulus where
solve_master cannot reach a solution: at each prime r of det(gamma) one
Legendre symbol on f at the image line of gamma mod r; mod |disc f| one
scan of f's values, read as the admissible residues for prime z-values.

Everything here is exact integer arithmetic; every returned tuple is
checked against its defining equation before it escapes.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

from . import arith, lattice, qform, quat
from .arith import Factorization
from .errors import BudgetError, ValidationError, _ensure

__all__ = [
    "EquationInstance",
    "equation_instance",
    "sample_az_plus_bg",
    "genus_randomizer_B",
    "lift_genus_solution",
    "local_obstruction",
    "solve_master",
    "represent_in_O0",
    "GENUS_ENUM_DISC_BOUND",
    "MASTER_MAX_ATTEMPTS",
]

LOG = logging.getLogger(__name__)

# The genus randomizer draws classes from a per-class divisor table, built
# by enumerating the class group; past this |disc| no table is built.
GENUS_ENUM_DISC_BOUND = 200_000

# Retry budget for the master solver's sample-test-lift loop.
MASTER_MAX_ATTEMPTS = 4000
MASTER_STUCK_ATTEMPTS = 200

# Cap for the prime scan that fills a class divisor table.
_TABLE_PRIME_CAP = 1_000_000

def _content2(m) -> int:
    return math.gcd(math.gcd(abs(m[0][0]), abs(m[0][1])),
                    math.gcd(abs(m[1][0]), abs(m[1][1])))


def _det2(m) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


# ---------------------------------------------------------------------------
# sampling a*z + b*g(x,y) = n


def sample_az_plus_bg(a, b, n, g, fa, rng):
    """One uniform solution (z, x, y) of a*z + b*g(x, y) = n with z > 0.

    a must divide disc(g) and be odd and coprime to b and n; fa is its
    complete factorization.  Returns None when the congruence
    b*g(x, y) = n (mod a) has no solution, which is the exact local
    obstruction.  Raises BudgetError when solutions exist mod a but the
    window g <= (n - a)/b contains no point of any admissible coset.

    The root class is chosen uniformly among the 2^omega(a) square-root
    classes, and the point uniformly within the chosen class; empty
    classes fall through to the remaining ones so a solution is found
    whenever one exists.  This is one draw of the sampler that
    _az_plus_bg_sampler prepares.
    """
    draw = _az_plus_bg_sampler(a, b, n, g, fa)
    return None if draw is None else draw(rng)


def _az_plus_bg_sampler(a, b, n, g, fa):
    """draw(rng) for sample_az_plus_bg(a, b, n, g, fa, rng), or None when
    b*g(x, y) = n (mod a) has no solution.

    The validation, the transform to a leading coefficient prime to a, the
    root classes and the sublattice form are computed here once; each root
    class's coset sampler is built the first time a draw reaches it.  Each
    draw shuffles a fresh copy of the root-class offsets, so its rng draws
    are those of a one-shot call.
    """
    if a < 1 or b < 1 or n < 1:
        raise ValidationError("a, b, n must be positive")
    if not isinstance(fa, Factorization) or not fa.complete or fa.value() != a:
        raise ValidationError("fa must be a complete factorization of a")
    if not g.is_primitive or g.a <= 0 or g.disc >= 0:
        raise ValidationError("g must be primitive and positive definite")
    if g.disc % a:
        raise ValidationError("a must divide disc(g)")
    if math.gcd(a, 2 * b * n) != 1:
        raise ValidationError("gcd(a, 2bn) must be 1")

    # Move to an equivalent form whose leading coefficient is a unit mod a,
    # so that 4A*g = (2Ax + By)^2 - disc*y^2 completes the square mod a.
    m = qform._coprime_leading_transform(g, a)
    gt = g.transform(m)

    # mod a = 1 every quantity below is 0 and the one root class is 0
    target = (4 * gt.a * n * arith.inv_mod(b, a)) % a
    roots = arith.sqrt_mod_factored(target, fa.factors)
    if not roots:
        return None

    rho = (n - a) // b
    if rho < 0:
        raise BudgetError("empty solution set: n < a leaves no room for z > 0")

    # Root class x0 is the coset (x0, 0) + L of the lattice L spanned by the
    # columns of ((a, shear), (0, 1)); over that basis it is x0/a + Z^2.
    inv2a = arith.inv_mod(2 * gt.a, a)
    shear = (-gt.b * inv2a) % a
    offsets = [(w0 * inv2a) % a for w0 in roots]
    sub = gt.transform(((a, shear), (0, 1)))
    cosets = {}  # x0 -> its coset sampler, built on first use

    def draw(rng):
        order = offsets.copy()
        rng.shuffle(order)
        for x0 in order:
            if x0 not in cosets:
                cosets[x0] = lattice.coset_sampler_dim2(sub, (x0, 0, a), rho)
            pt = cosets[x0](rng)
            if pt is None:
                continue
            v = (pt[0] * a + pt[1] * shear + x0, pt[1])
            x, y = qform._apply(m, v)
            val = g.value(x, y)
            z, rem = divmod(n - b * val, a)
            _ensure(rem == 0 and z > 0 and a * z + b * val == n, "a*z + b*g(x, y) = n, z > 0")
            return z, x, y
        raise BudgetError("empty solution set: no admissible point with z > 0")

    return draw


# ---------------------------------------------------------------------------
# genus randomization


# Per-class divisor tables kept for reuse.  A table is keyed on (D, m) and
# m carries the target n, so the cache bound caps memory across targets
# while one solve_master call, which needs two tables, always hits.
_DIVISOR_TABLE_CACHE = 16


@functools.lru_cache(maxsize=_DIVISOR_TABLE_CACHE)
def _class_divisor_table(D, m):
    """Per-class small divisors: entries[i] = (d_i, witness) with
    forms[i](witness) = d_i, every d_i odd, prime (or 1 for the principal
    class) and coprime to m and D, all distinct.

    The product of the d_i is the bound B: every class represents its own
    divisor of B.  Deterministic in (D, m).
    """
    cg = qform.class_group(D)
    entries = [None] * cg.h
    entries[cg.identity_index] = (1, (1, 0))
    missing = cg.h - 1
    r = 2
    while missing > 0:
        r = arith.next_prime(r)
        if r > _TABLE_PRIME_CAP:
            raise BudgetError("class divisor table: prime scan cap hit")
        if m % r == 0 or D % r == 0:
            continue
        fp = qform.prime_form(D, r)
        if fp is None:
            continue
        for fr in (fp, fp.opposite()):
            i = cg.index_of(fr)
            if entries[i] is not None:
                continue
            red, mt = qform.reduce_form(fr)
            wit = qform._apply(qform._inv2(mt), (1, 0))
            _ensure(red.value(*wit) == r, "each table witness represents its divisor")
            entries[i] = (r, wit)
            missing -= 1
            break  # one prime serves one class; keeps the d_i distinct
    return cg, tuple(entries)


def genus_randomizer_B(D, m, rng):
    """Uniform class of discriminant D plus a represented divisor.

    Returns (cls, d, wit) with cls reduced, cls(wit) = d, and d = 1 or a
    small prime coprime to m and D, read off the exact per-class table.
    Raises BudgetError when |D| exceeds GENUS_ENUM_DISC_BOUND, past which
    no table is built.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    if abs(D) > GENUS_ENUM_DISC_BOUND:
        raise BudgetError(
            f"|D| = {abs(D)} over the class table bound {GENUS_ENUM_DISC_BOUND}"
        )
    cg, entries = _class_divisor_table(D, m)
    i = rng.randrange(cg.h)
    d, wit = entries[i]
    return cg.forms[i], d, wit


# ---------------------------------------------------------------------------
# the master equation


@dataclass(frozen=True, eq=False)
class EquationInstance:
    """One instance of det(gamma)^2 f(s,t) + b*(f o gamma)(x,y) = n.

    f is reduced, primitive, positive definite, of fundamental
    discriminant; gamma is an integer 2x2 matrix of odd nonzero
    determinant and content 1 with det(gamma), disc(f), b pairwise
    coprime and gcd(det(gamma)*b, n) = 1.

    The derived fields fix the whole left-hand randomization at build
    time: b0 is the left divisor bound, rho the crafted determinant-b0
    transform, a = (b0*det(gamma))^2 the coefficient actually sampled
    against, g = f o (gamma rho) the sampled right-hand form, and
    u_residues the admissible residues mod |disc f| for the prime
    z-values (in the genus of f, with (n - u*a)/b landing on a residue
    the right-hand form actually takes).
    """

    f: qform.BinaryQF
    gamma: tuple
    det_fac: Factorization
    b: int
    n: int
    b0: int
    rho: tuple
    a: int
    a_fac: Factorization
    g_gamma: qform.BinaryQF
    g: qform.BinaryQF
    chi_mod: int
    u_residues: tuple
    class_group_f: qform.ClassGroup
    left_table: tuple


def _craft_left_transform(g_gamma, b0, primes, b, n):
    """rho with det(rho) = b0, content 1, rank 1 mod each prime r of b0,
    its image line chosen so b*(g_gamma o rho) = n stays solvable mod r^2.

    Mod r the composed form collapses to lambda(w)^2 * g_gamma(v_r), so it
    is enough to aim the image v_r itself at a value of g_gamma in the
    same square class as n/b mod r.  Nondegenerate binary forms over F_r
    take every nonzero class, so the aim always exists.
    """
    if b0 == 1:
        return qform._ID2
    residues = []
    for r in primes:
        want = arith.kronecker((n * arith.inv_mod(b, r)) % r, r)
        residues.append(next((x, y) for x in range(r) for y in range(r)
                             if arith.kronecker(g_gamma.value(x, y), r) == want))
    xs = arith.crt([v[0] for v in residues], list(primes))[0]
    ys = arith.crt([v[1] for v in residues], list(primes))[0]
    for k1 in range(64):
        for k2 in range(64):
            x, y = xs + k1 * b0, ys + k2 * b0
            if math.gcd(x, y) == 1:
                _, u, v = arith.xgcd(x, y)
                rho = ((v * b0, x), (-u * b0, y))
                _ensure(_det2(rho) == b0 and _content2(rho) == 1,
                        "rho has determinant b0 and content 1")
                return rho
    raise BudgetError("no primitive image vector found for rho")


def equation_instance(f, gamma, b, n, det_fac=None):
    """Validate and precompute an EquationInstance.

    det_fac may be omitted when det(gamma) is small enough to factor
    directly; it must multiply out to |det(gamma)| and be complete.
    """
    gamma = (tuple(int(v) for v in gamma[0]), tuple(int(v) for v in gamma[1]))
    if not (f.is_primitive and f.is_reduced and f.a > 0 and f.disc < 0):
        raise ValidationError("f must be reduced, primitive, positive definite")
    d0, cond = qform.fundamental_discriminant(f.disc)
    if cond != 1:
        raise ValidationError("disc(f) must be fundamental")
    det = _det2(gamma)
    if det == 0:
        raise ValidationError("gamma must have rank 2")
    if det % 2 == 0:
        # a = det(rho gamma)^2 must stay coprime to 2bn for the sampler
        raise ValidationError("det(gamma) must be odd")
    if _content2(gamma) != 1:
        raise ValidationError("gamma must have content 1")
    if b < 1 or n < 1:
        raise ValidationError("b and n must be positive")
    adet = abs(det)
    if math.gcd(adet, f.disc) != 1 or math.gcd(adet, b) != 1 \
            or math.gcd(b, f.disc) != 1:
        raise ValidationError("det(gamma), disc(f), b must be pairwise coprime")
    if math.gcd(adet * b, n) != 1:
        raise ValidationError("gcd(det(gamma)*b, n) must be 1")
    if det_fac is None:
        det_fac = arith.factor_bounded(adet)
    if not det_fac.complete or det_fac.value() != adet:
        raise ValidationError("det_fac must be a complete factorization")

    g_gamma = f.transform(gamma)
    cgf, left = _class_divisor_table(f.disc, 2 * n * b * abs(g_gamma.disc))
    primes = [d for d, _ in left if d > 1]
    b0 = math.prod(primes)
    rho = _craft_left_transform(g_gamma, b0, primes, b, n)

    a = (b0 * adet) ** 2
    afac = {r: 2 for r in primes}
    for r, k in det_fac.factors:
        afac[r] = afac.get(r, 0) + 2 * k
    a_fac = Factorization.from_dict(afac)
    g = g_gamma.transform(rho)
    _ensure(g.disc == a * f.disc, "disc(g) = a * disc(f)")

    chi_mod = abs(f.disc)
    if chi_mod * chi_mod > 10**6:
        raise BudgetError(f"residue scan {chi_mod}^2 exceeds budget {10**6}")
    fvals = {f.value(x, y) % chi_mod
             for x in range(chi_mod) for y in range(chi_mod)}
    binv = arith.inv_mod(b, chi_mod)
    # u runs over the unit values of f mod |disc f|: the residues of f's
    # genus.  (n - u*a)/b must be a value of g there, and g's values are
    # exactly f's since gamma*rho is invertible mod disc f.  This test is
    # exact: a residue outside the value set admits no integer solution at
    # all, while the bare Kronecker != -1 test wrongly keeps
    # character-zero classes the right-hand side can never reach.
    admissible = [u for u in sorted(fvals) if math.gcd(u, chi_mod) == 1
                  and ((n - u * a) * binv) % chi_mod in fvals]

    return EquationInstance(
        f=f, gamma=gamma, det_fac=det_fac, b=b, n=n,
        b0=b0, rho=rho, a=a, a_fac=a_fac,
        g_gamma=g_gamma, g=g, chi_mod=chi_mod,
        u_residues=tuple(admissible),
        class_group_f=cgf, left_table=tuple(left),
    )


def _image_value(f, gamma, r):
    """f(w) mod r for w a nonzero column of gamma mod r.

    For gamma of content 1 and r | det(gamma), gamma mod r has rank one:
    gamma = w*L for a nonzero linear form L, so f o gamma = f(w)*L^2 mod r.
    """
    w = (gamma[0][0] % r, gamma[1][0] % r)
    if w == (0, 0):
        w = (gamma[0][1] % r, gamma[1][1] % r)
    return f.value(*w) % r


def local_obstruction(inst):
    """None, or (m, reason): why solve_master cannot solve inst modulo m.

    At each prime power r^k of det(gamma), m = r: the equation must be
    solvable modulo r^(2k).  rho is invertible there, so g may be replaced
    by f o gamma = f(w)*L^2 mod r: a solution mod r needs f(w) != 0 and
    n/(b*f(w)) a square mod r; conversely such a solution has L != 0, where
    the gradient 2*f(w)*L*grad(L) is a unit (r is odd), so Hensel's lemma
    lifts it to every power of r.  The exponent k plays no part.  Mod
    m = |disc f| the solver keeps only prime z-values in u_residues; with
    none it cannot reach n, even where a z sharing a prime with disc f would.
    """
    for r, k in inst.det_fac.factors:
        lam = _image_value(inst.f, inst.gamma, r)
        if lam == 0 or arith.kronecker(inst.n * arith.inv_mod(inst.b * lam, r), r) != 1:
            return r, f"no local solution modulo {r}^{2 * k} of det(gamma)^2"
    if not inst.u_residues:
        return inst.chi_mod, (f"no admissible residue modulo |disc f| = {inst.chi_mod}: "
                              "the solver's z-values, all prime to it, cannot reach n there")
    return None


def lift_genus_solution(inst, sol):
    """Turn (l, x', y') with a*l + b*g(x', y') = n, l prime in an
    admissible class (l mod |disc f| in inst.u_residues, f's genus), into
    (s, t, x, y) with det(gamma)^2 f(s,t) + b*g_gamma(x,y) = n.

    Cornacchia finds the first class h of disc f with h(s0,t0) = l; h is
    in f's genus, so [k]^2 = [h]^(-1)[f] exists by the principal genus
    theorem and comes with a table divisor d = k(s1,t1) dividing b0, so
    composing twice gives f-coordinates for d^2*l and scaling by b0/d
    reaches b0^2*l.
    """
    ell, xp, yp = sol
    if inst.a * ell + inst.b * inst.g.value(xp, yp) != inst.n:
        raise ValidationError("input triple does not solve the rho-equation")
    if not arith.is_prime(ell):
        raise ValidationError("z-value must be prime")
    if ell % inst.chi_mod not in inst.u_residues:
        raise ValidationError("z-value is not in an admissible class modulo disc(f)")
    cg = inst.class_group_f
    fa_ell = Factorization.of_prime_power(ell, 1)
    for idx_h, h in enumerate(cg.forms):
        co = qform.cornacchia(h, ell, fa_ell)
        if co is not None:
            break
    _ensure(co is not None, "some class of disc(f) represents the prime")

    want = cg.compose_indices(cg.inverse_index(idx_h), cg.index_of(inst.f))
    roots = [i for i in range(cg.h) if cg.compose_indices(i, i) == want]
    _ensure(bool(roots), "[h]^(-1)[f] has a square root")
    # largest divisor = smallest b0/d scaling; the choice is free since
    # the left side is exact, never sampled
    idx_k = max(roots, key=lambda i: inst.left_table[i][0])
    d, wit = inst.left_table[idx_k]
    k_form = cg.forms[idx_k]

    f1, w1 = qform.compose_with_coords(k_form, wit, k_form, wit)
    f2, w2 = qform.compose_with_coords(f1, w1, h, co)
    # f(w2) = d^2*l is the final check below, times det(gamma)^2 (b0/d)^2
    _ensure(f2 == inst.f, "the composition back to f lands on f")
    scale = inst.b0 // d
    s, t = w2[0] * scale, w2[1] * scale

    x, y = qform._apply(inst.rho, (xp, yp))
    det2 = _det2(inst.gamma) ** 2
    _ensure(det2 * inst.f.value(s, t) + inst.b * inst.g_gamma.value(x, y) == inst.n,
            "det(gamma)^2 f(s,t) + b*g_gamma(x,y) = n")
    return s, t, x, y


def solve_master(inst, rng):
    """Random solution (s, t, x, y) of
    det(gamma)^2 f(s,t) + b*(f o gamma)(x,y) = n.

    Loop: draw a class k and divisor d for disc(g), move g to
    h = [k^-2 g], sample a*z + (b*d^2)*h(x1,y1) = n, keep z prime with
    z = u mod |disc f|, compose back to g, lift to f.  h and the window
    fit b*d^2*h.a <= n - a are resolved once per class drawn; a class that
    does not fit falls back to the principal class, d = 1 and h = g reduced.
    The sampler's set-up for a resolved class is built on its first attempt
    and drawn from on every later one, so an attempt costs one draw.
    Raises ValidationError with the reason local_obstruction(inst) gives,
    and BudgetError when the attempt budget runs out.
    """
    obstruction = local_obstruction(inst)
    if obstruction is not None:
        raise ValidationError(obstruction[1])
    g_red, mg = qform.reduce_form(inst.g)
    dg = inst.g.disc
    m_b = 2 * inst.n * inst.b * abs(dg)
    principal = qform.reduce_form(qform.principal_form(dg))[0]
    budget = inst.n - inst.a
    # for a > 1 the zero vector is never in an admissible coset, so some
    # b*h-value >= b must fit under n - a; for a = 1 it is and z = n works
    if budget < 0 or (inst.a > 1 and budget < inst.b):
        raise BudgetError("n too small: the window holds no z > 0")
    stats = {"empty_window": 0, "z_composite": 0, "z_residue": 0,
             "divisor_infeasible": 0}
    # z only has to land on some admissible residue, not on a residue drawn
    # ahead of time; matching a single pre-drawn u would reject the same
    # solutions chi_mod times slower
    uset = frozenset(inst.u_residues)
    # class drawn -> (k, d, wit, h); the principal entry is seeded, so the
    # principal class never composes, and a class that does not fit the
    # window resolves to it (then k != the class drawn)
    fallback = (principal, 1, (1, 0), g_red)
    resolved = {principal: fallback}
    # resolved class k -> the sampler of a*z + (b*d^2)*h = n, set up once;
    # a set-up that raises is not kept and is tried again next attempt
    prepared = {}
    # past GENUS_ENUM_DISC_BOUND there is no per-class table to draw a
    # class from, so every attempt uses the principal entry, the same h
    # and the same few cosets; a short budget covers them fully
    stuck = abs(dg) > GENUS_ENUM_DISC_BOUND
    max_attempts = MASTER_STUCK_ATTEMPTS if stuck else MASTER_MAX_ATTEMPTS
    for attempt in range(1, max_attempts + 1):
        if stuck:
            k_form, d, wit, h = fallback
        else:
            cls, d, wit = genus_randomizer_B(dg, m_b, rng)
            if cls not in resolved:
                k_inv = qform.reduce_form(cls.opposite())[0]
                h = qform.compose(qform.compose(k_inv, k_inv), g_red)
                fits = inst.b * d * d * h.a <= budget
                resolved[cls] = (cls, d, wit, h) if fits else fallback
            k_form, d, wit, h = resolved[cls]
            if k_form != cls:
                stats["divisor_infeasible"] += 1
        try:
            if k_form not in prepared:
                prepared[k_form] = _az_plus_bg_sampler(inst.a, inst.b * d * d,
                                                       inst.n, h, inst.a_fac)
                # the screen at det(gamma), rho at b0 and h in g's genus
                _ensure(prepared[k_form] is not None, "a root class mod a")
            z, x1, y1 = prepared[k_form](rng)
        except BudgetError:
            stats["empty_window"] += 1
            if stuck:
                # the fallback window is identical on every attempt here;
                # empty once means empty forever
                raise BudgetError(
                    "left divisor too large for this n: the fixed fallback "
                    f"window holds no admissible point; stats {stats}"
                ) from None
            # the admissible cosets miss the ellipsoid at this h; retry
            continue
        if not arith.is_prime(z):
            stats["z_composite"] += 1
            continue
        if z % inst.chi_mod not in uset:
            stats["z_residue"] += 1
            continue
        f1, w1 = qform.compose_with_coords(k_form, wit, k_form, wit)
        f2, w2 = qform.compose_with_coords(f1, w1, h, (x1, y1))
        _ensure(f2 == g_red and g_red.value(*w2) == d * d * h.value(x1, y1),
                "the pull-back to g represents d^2 h(x1, y1)")
        v2 = qform._apply(mg, w2)
        sol = lift_genus_solution(inst, (z, v2[0], v2[1]))
        LOG.debug("master solved after %d attempts, stats %s", attempt, stats)
        return sol
    raise BudgetError(
        f"no solution within {max_attempts} attempts; stats {stats}"
    )


# ---------------------------------------------------------------------------
# representing integers by the reduced norm on O0


def _o0_instance(so, n):
    """Nrd = n on O0, n prime to p: f(s,t) + p*f(x,y) = n, gamma the identity."""
    return equation_instance(so.f, qform._ID2, so.alg.p, n, det_fac=Factorization((), 1))


def represent_in_O0(alg, n, rng):
    """A random alpha in O0 with Nrd(alpha) = n.

    Powers of p are peeled off with j (Nrd(j) = p); the p-free part goes
    through solve_master on Nrd(s + t*w + x*j + y*w*j) = f(s,t) + p*f(x,y)
    with gamma the identity.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    so = quat.special_order(alg)
    p = alg.p
    e, n1 = 0, n
    while n1 % p == 0:
        n1 //= p
        e += 1
    if n1 == 1:
        out = alg.one
    else:
        out = so.embed(*solve_master(_o0_instance(so, n1), rng))
    for _ in range(e):
        out = alg.j * out
    _ensure(out.nrd() == n, "nrd of the norm representative")
    _ensure(so.order.contains(out), "norm representative in O0")
    return out
