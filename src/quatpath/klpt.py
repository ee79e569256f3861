"""Brandt-graph walks and equivalence search hitting prescribed norms.

Left ideals of the special maximal order fall into finitely many
classes; the ell-neighbor relation (index-ell^2 sublattices with norm
multiplied by ell) makes this set into the Brandt graph, whose walks
mix rapidly.  equiv_ideal chains a randomizing walk, a prime-norm
reduction with a controlled non-residue condition, and the master norm
equation into an equivalent ideal of norm exactly n1*n2, times one
stray factor of ell when local solvability forces it.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

from . import arith, eqsolver, lattice, linalg, qform, quat
from .arith import Factorization
from .errors import BudgetError, ValidationError, _ensure

# retry budgets for the equivalence search; rounds are cheap at desk
# scale so the caps are generous
ROUND_CAP = 48
PRIME_DRAWS_PER_ROUND = 12
STEP_TRIES = 4096

# class enumeration keys each ideal by its counts of vectors of normalised
# norm 1, ..., THETA_BOUND
THETA_BOUND = 4


@dataclass(frozen=True)
class WalkSpec:
    """A walk plan: the factored total norm, walked one prime step at a
    time in factor order."""

    norm: Factorization

    def __post_init__(self):
        if not isinstance(self.norm, Factorization) or not self.norm.complete:
            raise ValidationError("walk norm needs a complete factorization")
        for p, _ in self.norm.factors:
            if not arith.is_prime(p):
                raise ValidationError("every walk step must be prime")

    @property
    def steps(self) -> tuple:
        return tuple(p for p, e in self.norm.factors for _ in range(e))

    @staticmethod
    def from_norm(fac: Factorization) -> "WalkSpec":
        return WalkSpec(fac)


# ---------------------------------------------------------------------------
# neighbors in the Brandt graph


def _step_lattice(order, ideal, w, ell):
    """The neighbor order*w + ell*ideal for a rank-one w in ideal.

    The ideal coordinates of the four products b*w, by back-substitution,
    span the neighbor's rank-2 image in ideal/ell*ideal.  Their HNF mod ell
    times the ideal's basis is a triangular basis of the neighbor, which
    leaves the canonical form no gcd steps.
    """
    d = order.den * w.den
    coords = [ideal._solve(quat._mul(ideal.alg, b, w.num), d) for b in order.mat]
    _ensure(None not in coords, "each b*w lies in the ideal")
    h = linalg.hnf_mod_prime(coords, ell)
    _ensure(sum(h[k][k] == 1 for k in range(4)) == 2, "the image mod ell has rank 2")
    return quat._canonical(ideal.alg, linalg.mat_mul(h, ideal.mat), ideal.den)


def _neighbor_lattices(order, ideal, ell):
    """All distinct neighbors, sorted canonically.

    ideal/ell*ideal is free of rank one over the mod-ell order, which is a
    full 2x2 matrix algebra for ell away from p, so the element w with
    coefficients c mod ell generates a proper nonzero left submodule (is
    rank one) exactly when c is not 0 mod ell and ell divides the
    normalised norm nrd(w)/nrd(ideal), the integral form q_gram() at c.

    order must be the left order of ideal and maximal.  Then every
    rank-one w spans a neighbor of index ell^2 in ideal, so a w inside a
    neighbor found already spans that very neighbor and is skipped: one
    lattice is built per neighbor, by _step_lattice, solved mod ell.
    """
    gram = ideal.q_gram()
    out = []
    for coeffs in itertools.product(range(ell), repeat=4):
        if not any(coeffs) or gram.value_int(coeffs) % ell:
            continue
        w = ideal.element_from(coeffs)
        if any(nb.contains(w) for nb in out):
            continue
        out.append(_step_lattice(order, ideal, w, ell))
    out.sort(key=lambda lat: (lat.den, lat.mat))
    return out


def ell_neighbors(ideal, ell):
    """The ell + 1 neighbors of a left ideal: sublattices with norm
    scaled by ell and index ell^2, each again a left ideal of the same
    left order.

    Scans the ell^4 coefficient vectors of the quotient mod ell for
    rank-one elements, but builds only the ell + 1 neighbor lattices;
    fine for the walk primes this package targets.  The left order of
    the ideal must be maximal.
    """
    if not arith.is_prime(ell):
        raise ValidationError("ell must be prime")
    if ell == ideal.alg.p:
        raise ValidationError("ell must differ from the base prime p")
    order = quat.left_order(ideal)
    if not order.is_maximal_order():
        raise ValidationError("the left order of the ideal must be maximal")
    out = _neighbor_lattices(order, ideal, ell)
    _ensure(len(out) == ell + 1, "ell + 1 neighbors")
    for nb in out:
        _ensure(nb.nrd == ideal.nrd * ell, "nrd of each neighbor")
        _ensure(nb.is_sublattice_of(ideal), "each neighbor inside the ideal")
    return tuple(out)


def random_walk(ideal, spec, rng):
    """Walk endpoint: one uniformly chosen neighbor per step of spec.

    Steps draw random rank-one elements of ideal/ell*ideal, tested as in
    _neighbor_lattices, instead of enumerating neighbors; the ell + 1
    lines have equally many rank-one generators, so each step is uniform.
    Each step is one _step_lattice, solved mod ell, whose only HNF is of 4
    triangular rows.  The endpoint sits inside the input with norm scaled
    by the walk norm, and keeps the left order, which must be maximal.
    """
    if not isinstance(spec, WalkSpec):
        raise ValidationError("spec must be a WalkSpec")
    p = ideal.alg.p
    for ell in spec.steps:
        if ell == p:
            raise ValidationError("walk steps must avoid the base prime p")
    order = quat.left_order(ideal)
    if not order.is_maximal_order():
        raise ValidationError("the left order of the ideal must be maximal")
    cur = ideal
    for ell in spec.steps:
        gram = cur.q_gram()
        for _ in range(STEP_TRIES):
            coeffs = tuple(rng.randrange(ell) for _ in range(4))
            if any(coeffs) and gram.value_int(coeffs) % ell == 0:
                break
        else:
            raise BudgetError("no rank-one step generator found")
        cur = _step_lattice(order, cur, cur.element_from(coeffs), ell)
    _ensure(cur.nrd == ideal.nrd * spec.norm.value(), "nrd of the walk endpoint")
    _ensure(cur.is_sublattice_of(ideal), "walk endpoint inside the ideal")
    _ensure(quat.has_left_order(cur, order), "left order of the walk endpoint")
    return cur


def class_number(p: int) -> int:
    """Eichler's class number of B_{p,oo}: left-ideal classes of a maximal order.

    ((p - 1) + 3*(1 - (-4/p)) + 4*(1 - (-3/p))) / 12, which is
    floor(p/12) + (0, 1, 1, 2) for p = (1, 5, 7, 11) mod 12, and 1 at p = 2, 3.
    """
    if not arith.is_prime(p):
        raise ValidationError("p must be prime")
    k4, k3 = arith.kronecker(-4, p), arith.kronecker(-3, p)
    return ((p - 1) + 3 * (1 - k4) + 4 * (1 - k3)) // 12


def _theta_key(ideal) -> tuple:
    """Counts of vectors of normalised norm 1, ..., THETA_BOUND, up to sign.

    x -> x*a maps I onto I*a and keeps nrd(x)/nrd(I), so equivalent left
    ideals share the key.
    """
    counts = [0] * THETA_BOUND
    for _, v in lattice.enumerate_by_value(ideal.q_gram(), THETA_BOUND):
        counts[v - 1] += 1
    return tuple(counts)


def ideal_class_representatives(order, ell: int = 2):
    """One ideal per left-ideal class of a maximal order, deterministic.

    Breadth-first search along ell-neighbors starting at the order
    itself, keeping the first ideal of each new class, until it holds
    class_number(p) of them.  The ell-neighbor graph is connected, so the
    search gets there; a short count raises.  A neighbor is tested for
    equivalence only against the representatives with its theta key, a
    class invariant, and each representative is certified to have the
    order as its left order once, when it is kept.
    """
    if not order.is_maximal_order():
        raise ValidationError("class enumeration needs a maximal order")
    if not arith.is_prime(ell) or ell == order.alg.p:
        raise ValidationError("ell must be a prime different from p")
    h = class_number(order.alg.p)
    reps, buckets, queue = [], {}, deque()

    def keep(lat, bucket):
        _ensure(quat.has_left_order(lat, order), "left order of each representative")
        reps.append(lat)
        bucket.append(lat)
        queue.append(lat)

    keep(order, buckets.setdefault(_theta_key(order), []))
    while queue and len(reps) < h:
        for nb in _neighbor_lattices(order, queue.popleft(), ell):
            bucket = buckets.setdefault(_theta_key(nb), [])
            if any(quat.ideal_equivalence_test(r, nb) is not None for r in bucket):
                continue
            keep(nb, bucket)
            if len(reps) == h:
                break
    _ensure(len(reps) == h, "class_number(p) representatives")
    return tuple(reps)


# ---------------------------------------------------------------------------
# the equivalence search


# every reason a round can be filed under; the first three are the hunt's
ROUND_FAILURES = frozenset((
    "no admissible residue class found", "prime window holds no prime",
    "prime window too large to enumerate", "no admissible prime norm",
    "prime norm has no admissible residue mod disc(f)", "prime norm not represented",
    "line pairing fixed point", "isotropic coefficient line",
    "no admissible residue mod disc(f)", "norm window empty",
    "no rank-one step generator found"))


class _RoundRetry(Exception):
    """One search round failed for a transient reason; try a fresh one."""

    def __init__(self, reason):
        _ensure(reason in ROUND_FAILURES, f"round failure reason declared: {reason}")
        self.reason = reason
        super().__init__(reason)


class SearchFailed(BudgetError):
    """The search used up its ROUND_CAP rounds; failures tallies their reasons."""

    def __init__(self, failures: dict):
        self.failures = failures
        super().__init__(f"no equivalent ideal found in {ROUND_CAP} rounds; failures {failures}")


@dataclass
class KlptContext:
    """Transcript of one successful equivalence search.

    Every intermediate was checked against its defining relation when it
    was built; verify() re-runs the whole chain from the stored pieces.
    """

    ideal: quat.QuatLattice
    n1: Factorization
    n2: Factorization
    ell: int
    randomized: quat.QuatLattice  # walk endpoint inside the input ideal
    prime_ideal: quat.QuatLattice  # equivalent to it, prime norm
    to_prime_witness: quat.QuatElement  # element carrying randomized there
    prime_norm: int
    norm_rep: quat.QuatElement  # special-order element of that norm
    line_select: tuple  # (b0, b1) picking the line pairing the two
    coeff_lattice: tuple  # 2x2 columns spanning the paired coefficient set
    quadratic_sol: tuple  # (s, t, x, y) solving the master equation
    extra_exp: int  # 0 or 1, the stray ell exponent
    combined: quat.QuatElement
    connector: quat.QuatElement  # the equivalence witness, inside randomized
    output: quat.QuatLattice
    rounds: int
    failures: dict

    def verify(self):
        """Re-check every relation of the transcript; True or ValidationError."""
        so = quat.special_order(self.ideal.alg)
        p = self.ideal.alg.p
        n1v, n2v = self.n1.value(), self.n2.value()
        n = self.prime_norm
        target = n2v * self.ell**self.extra_exp
        _require(self.randomized.is_sublattice_of(self.ideal), "randomized in ideal")
        _require(self.randomized.nrd == self.ideal.nrd * n1v, "nrd(randomized)")
        _require(arith.is_prime(n), "prime_norm is prime")
        _require(arith.kronecker(self.ell, n) == -1, "(ell / prime_norm) = -1")
        _require(quat.equiv_from_element(self.randomized, self.to_prime_witness)
                 == self.prime_ideal, "to_prime_witness")
        _require(self.prime_ideal.norm() == n, "norm(prime_ideal)")
        _require(so.order.contains(self.norm_rep), "norm_rep in O0")
        _require(self.norm_rep.nrd() == n, "nrd(norm_rep)")
        b0, b1 = self.line_select
        g = self.coeff_lattice
        _require(eqsolver._det2(g) in (n, -n), "det(coeff_lattice)")
        cols = linalg.hnf(((g[0][0], g[1][0]), (g[0][1], g[1][1])))
        want = linalg.hnf(((b0, b1), (n, 0), (0, n)))
        _require(tuple(cols) == tuple(want), "coeff_lattice spans line_select")
        w = self.norm_rep * (so.alg.one * b0 + so.omega * b1) * so.alg.j
        _require(so.order.scale(n).add(so.order.mul_right(w)) == self.prime_ideal,
                 "line_select")
        s, t, x, y = self.quadratic_sol
        f = so.f
        _require(n * n * f.value(s, t) + p * f.transform(g).value(x, y) == target,
                 "quadratic_sol")
        xp, yp = qform._apply(g, (x, y))
        _require(self.combined == so.embed(n * s, n * t, xp, yp), "combined")
        _require(self.combined.nrd() == target, "nrd(combined)")
        prod = self.norm_rep * self.combined
        _require(self.prime_ideal.contains(prod), "norm_rep*combined in prime_ideal")
        _require(prod * self.to_prime_witness * Fraction(1, n) == self.connector,
                 "connector")
        _require(self.randomized.contains(self.connector), "connector in randomized")
        _require(quat.equiv_from_element(self.ideal, self.connector) == self.output,
                 "output")
        _require(self.output.norm() == n1v * target, "norm(output)")
        return True


def _require(holds: bool, relation: str):
    """Raise ValidationError naming the transcript relation that fails."""
    if not holds:
        raise ValidationError(f"transcript check failed: {relation}")


def _window_base(p, ell, n2v):
    """Lower edge rho of the prime-norm window [rho, rho^2].

    For a prime norm N the master equation's admissible coset holds
    about n2/(p*N^3) points, so N must stay below (n2/p)^(1/3).  rho is
    the largest integer with 64*p*rho^6 <= n2, which puts the top of the
    window at about (n2/p)^(1/3)/4, and at least ell + 2.  Raises
    BudgetError when that floor leaves the coset at the top of the
    window with less than one point to expect.
    """
    m = n2v // (64 * p)
    rho = 0  # floor(m^(1/6)), bit by bit from 2^(bitlength(m)//6) down
    for bit in reversed(range(m.bit_length() // 6 + 1)):
        if (rho | 1 << bit) ** 6 <= m:
            rho |= 1 << bit
    rho = max(rho, ell + 2)
    if p * rho**6 > n2v:
        raise BudgetError("n2 too small for a usable prime-norm window at this p and ell")
    return rho


def _line_select(so, prime_ideal, n, norm_rep):
    """(b0, b1) with prime_ideal = O*n + O*norm_rep*(b0 + b1*omega)*j.

    The admissible pairs form a subgroup mod n: the integer kernel of
    the stacked relation matrix, projected to the first two coordinates.
    Testing the two projected generators decides existence, since any
    member outside the degenerate subgroup generates the right line.
    """
    order = so.order
    alg = so.alg
    c1 = order.coordinates_of(norm_rep * alg.j)
    c2 = order.coordinates_of(norm_rep * so.omega * alg.j)
    rows = [c1, c2]
    rows += [order.coordinates_of(b) for b in prime_ideal.basis_elements()]
    rows += [tuple(n if i == k else 0 for i in range(4)) for k in range(4)]
    kern = linalg.left_kernel(tuple(rows))
    proj = [(k[0] % n, k[1] % n) for k in kern] + [(n, 0), (0, n)]
    h = linalg.hnf(tuple(proj))
    for cand in h:
        b0, b1 = cand[0] % n, cand[1] % n
        if b0 == 0 and b1 == 0:
            continue
        w = norm_rep * (alg.one * b0 + so.omega * b1) * alg.j
        if order.scale(n).add(order.mul_right(w)) == prime_ideal:
            return (b0, b1)
    return None


def _coeff_columns(line, n):
    """Column matrix whose column lattice is Z*line + n*Z^2, det n."""
    h = linalg.hnf(((line[0], line[1]), (n, 0), (0, n)))
    g = ((h[0][0], h[1][0]), (h[0][1], h[1][1]))
    _ensure(eqsolver._det2(g) in (n, -n), "det of the coefficient columns is +-n")
    return g


def _extra_exponent(f, g, n, p, n2v, ell):
    """The e in {0, 1} making the master equation solvable mod n.

    Mod n the left layer vanishes and the right one is a square times
    p*f(image line of g), so exactly one choice of e works because ell
    is a non-residue mod n.  None when the image line is isotropic for
    f; that is the degenerate suborder-ideal case, retried upstream.
    """
    lam = eqsolver._image_value(f, g, n)
    if lam == 0:
        return None
    base = n2v * arith.inv_mod(p * lam % n, n) % n
    if arith.kronecker(base, n) == 1:
        return 0
    _ensure(arith.kronecker(base * ell % n, n) == 1, "ell twists the class mod n")
    return 1


def _one_round(so, ideal, spec, n1, n2, ell, rho, rng, round_no, failures):
    p = so.alg.p
    n2v = n2.value()
    try:
        walked = random_walk(ideal, spec, rng)
    except BudgetError as e:
        raise _RoundRetry(str(e)) from None
    pick = None
    for _ in range(PRIME_DRAWS_PER_ROUND):
        try:
            cand, wit = quat.equiv_prime_large_nonresidue(walked, rho, ell, rng)
        except BudgetError as e:
            raise _RoundRetry(str(e)) from None
        n = cand.norm()
        if n == p or (n2v * ell) % n == 0 or so.f.disc % n == 0:
            continue
        if n < p and arith.kronecker(so.f.disc, n) != 1:
            # below p the norm form has no second layer to lean on, so
            # its binary part must represent the prime on its own
            continue
        pick = (cand, wit, n)
        break
    if pick is None:
        raise _RoundRetry("no admissible prime norm")
    prime_ideal, wit, n = pick
    # represent_in_O0's path for a prime n != p, with n's instance screened
    try:
        rep = eqsolver._o0_instance(so, n)
        if eqsolver.local_obstruction(rep) is not None:
            raise _RoundRetry("prime norm has no admissible residue mod disc(f)")
        norm_rep = so.embed(*eqsolver.solve_master(rep, rng))
    except BudgetError:
        raise _RoundRetry("prime norm not represented") from None
    line = _line_select(so, prime_ideal, n, norm_rep)
    if line is None:
        raise _RoundRetry("line pairing fixed point")
    g = _coeff_columns(line, n)
    e = _extra_exponent(so.f, g, n, p, n2v, ell)
    if e is None:
        raise _RoundRetry("isotropic coefficient line")
    target = n2v * ell**e
    try:
        inst = eqsolver.equation_instance(so.f, g, p, target, det_fac=Factorization(((n, 1),), 1))
        obstruction = eqsolver.local_obstruction(inst)
        if obstruction is not None:
            # _extra_exponent settled solvability mod n, so only mod |disc f|
            # can the instance keep no residue (p = 3 mod 4, n2 = 1 mod 4, e = 1)
            _ensure(obstruction[0] == inst.chi_mod, f"solvable mod the prime norm: {obstruction}")
            raise _RoundRetry("no admissible residue mod disc(f)")
        s, t, x, y = eqsolver.solve_master(inst, rng)
    except BudgetError:
        raise _RoundRetry("norm window empty") from None
    xp, yp = qform._apply(g, (x, y))
    combined = so.embed(n * s, n * t, xp, yp)
    connector = norm_rep * combined * wit * Fraction(1, n)
    out = quat.equiv_from_element(ideal, connector)
    ctx = KlptContext(
        ideal=ideal,
        n1=n1,
        n2=n2,
        ell=ell,
        randomized=walked,
        prime_ideal=prime_ideal,
        to_prime_witness=wit,
        prime_norm=n,
        norm_rep=norm_rep,
        line_select=line,
        coeff_lattice=g,
        quadratic_sol=(s, t, x, y),
        extra_exp=e,
        combined=combined,
        connector=connector,
        output=out,
        rounds=round_no,
        failures=dict(failures),
    )
    ctx.verify()
    return ctx


def equiv_ideal_context(ideal, n1, n2, ell, rng):
    """Run the equivalence search and keep the whole transcript.

    Each round walks afresh, reduces to a fresh prime norm with ell a
    non-residue, pairs the prime against a norm representative, and
    hands the resulting two-layer norm equation to the master solver.
    Transient failures retry up to ROUND_CAP times; then SearchFailed, a
    BudgetError, carries the failure tally.
    """
    alg = ideal.alg
    so = quat.special_order(alg)
    p = alg.p
    if not isinstance(n1, Factorization) or not n1.complete:
        raise ValidationError("n1 must be a complete factorization")
    if not isinstance(n2, Factorization) or not n2.complete:
        raise ValidationError("n2 must be a complete factorization")
    if not arith.is_prime(ell) or ell == p:
        raise ValidationError("ell must be a prime different from p")
    if any(q == p for q in n1.primes()):
        raise ValidationError("n1 must avoid the base prime p")
    n2v = n2.value()
    if n2v % p == 0:
        raise ValidationError("n2 must be coprime to p")
    if not ideal.is_sublattice_of(so.order) or not quat.has_left_order(ideal, so.order):
        raise ValidationError("input must be an integral left ideal of the special order")
    rho = _window_base(p, ell, n2v)
    spec = WalkSpec.from_norm(n1)
    failures = Counter()
    for round_no in range(1, ROUND_CAP + 1):
        try:
            return _one_round(
                so, ideal, spec, n1, n2, ell, rho, rng, round_no, failures
            )
        except _RoundRetry as r:
            failures[r.reason] += 1
    raise SearchFailed(dict(failures))


def equiv_ideal(ideal, n1, n2, ell, rng):
    """An ideal equivalent to the input of norm n1*n2 or n1*n2*ell.

    n1 and n2 arrive factored; n1 shapes the randomizing walk, n2 the
    norm equation, and the extra factor of ell appears exactly when the
    equation is only solvable in the twisted class mod the chosen prime.
    """
    return equiv_ideal_context(ideal, n1, n2, ell, rng).output


def powersmooth_equiv(ideal, bound, rng):
    """An equivalent ideal whose norm is bound-powersmooth.

    Both walk norms take every prime whose square fits under the bound,
    exponents balanced so each prime power of the output norm stays at
    or below it; the stray factor (ell = 2 here) is budgeted up front,
    and the 2-exponent floor keeps the target clear of the bad 2-adic
    classes of the norm form.
    """
    p = ideal.alg.p
    need2 = 3 if p % 8 == 5 else 2
    e2 = 0
    while 2 ** (2 * (e2 + 1) + 1) <= bound:
        e2 += 1
    if e2 < need2:
        raise BudgetError("bound too small for the 2-part of the norm window")
    factors = [(2, e2)]
    q = 3
    while q * q <= bound:
        if q != p:
            e = 1
            while q ** (2 * (e + 1)) <= bound:
                e += 1
            factors.append((q, e))
        q = arith.next_prime(q)
    n = Factorization(tuple(factors), 1)
    ctx = equiv_ideal_context(ideal, n, n, 2, rng)
    exps = {q: 2 * e for q, e in n.factors}
    exps[2] += ctx.extra_exp
    _ensure(all(q**e <= bound for q, e in exps.items()),
            "output norm is bound-powersmooth")
    return ctx.output
