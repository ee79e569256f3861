"""The benchmark's workloads: their inputs, their ops and the check of each op.

A workload is a fixed round of op kinds repeated for a number of rounds set
only by the requested run length, so the ops measured never depend on the
machine's speed.  Op i takes every random choice from its own
random.Random seeded with "<workload>/<seed>/<i>": its inputs are drawn
from it while the workload is set up, and the rest of its stream is the rng
handed to quatpath.  So op i does the same work whatever the other ops do
and however long the run is.

Every workload covers primes of each class p = 3 mod 4, 5 mod 8 and
1 mod 8, because the algebra and the special order are built differently
for each.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import checks
from quatpath import arith, eqsolver, klpt, quat

# norm_rep: (p, largest target exponent).  Targets n run from p^2 up to
# p^3 at p ~ 10^3, and up to p^2.5 at p ~ 10^4, where a target near p^3
# costs a second and more with a spread that would take minutes of ops to
# average out.
NORM_REP_PRIMES = ((1019, 3.0), (1013, 3.0), (1009, 3.0),
                   (10007, 2.5), (10037, 2.5), (10009, 2.5))
SMOOTH_FACTORS = (3, 5, 7, 11, 13)

IDEAL_WALK_PRIMES = (103, 101, 97, 1019, 1013, 1009)
WALK_FACTORS = ((2, 8), (3, 4))  # walk norm 2^8 * 3^4
WALK_ELL = 2  # the prime-norm hunt keeps N with (2 / N) = -1

# Up to where one op (ell = 3) takes about 2 s.  With primes up to 71 a
# round takes 25 s, a run holds one, and its median op rests on a single
# timing; up to 59 a run holds two rounds, timing every op twice.
CLASS_ENUM_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
CLASS_ENUM_ELLS = (2, 3)

# Measured seconds of one round on a 2-core x86-64 container, used only to
# turn --seconds into a round count.
NOMINAL_ROUND_S = {"norm_rep": 0.65, "ideal_walk": 1.1, "class_enum": 17.5}


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def op_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


class Setup:
    """Algebras and special orders, built by quatpath once per prime, and
    their orders re-read by the independent checks (checked on first use)."""

    def __init__(self, primes):
        self.algebra = {}
        self.order = {}
        for p in primes:
            alg = quat.construct_algebra(p)
            self.algebra[p] = alg
            self.order[p] = quat.special_order(alg).order
        self._checked = {}

    def checked_order(self, p: int) -> checks.Lattice:
        if p not in self._checked:
            o = checks.Lattice.of(self.order[p])
            checks.check_maximal_order(o)
            self._checked[p] = o
        return self._checked[p]


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _next_prime(n: int) -> int:
    while not checks.is_prime(n):
        n += 1
    return n


def norm_rep(seed: int, rounds: int) -> list:
    setup = Setup([p for p, _ in NORM_REP_PRIMES])
    kinds = [(p, e, t) for p, e in NORM_REP_PRIMES for t in ("prime", "smooth")]
    ops = []
    for i in range(rounds * len(kinds)):
        p, e, target = kinds[i % len(kinds)]
        rng = op_rng("norm_rep", seed, i)
        hi = round(p ** e)
        if target == "prime":
            n = _next_prime(_log_uniform(rng, p * p, hi))
        else:
            # the product overshoots its start by less than the largest
            # factor, so it too stays inside [p^2, p^e]
            start = _log_uniform(rng, p * p, hi // max(SMOOTH_FACTORS))
            n = 1
            while n < start:
                n *= rng.choice(SMOOTH_FACTORS)
        alg = setup.algebra[p]

        def run(alg=alg, n=n, rng=rng):
            return eqsolver.represent_in_O0(alg, n, rng)

        def check(alpha, p=p, n=n):
            checks.check_norm_rep(setup.checked_order(p), n, alpha.coords)

        ops.append(Op(f"p={p} {target}", run, check))
    return ops


def ideal_walk(seed: int, rounds: int) -> list:
    setup = Setup(IDEAL_WALK_PRIMES)
    spec = klpt.WalkSpec.from_norm(arith.Factorization(WALK_FACTORS, 1))
    walk_norm = math.prod(b ** e for b, e in WALK_FACTORS)
    ops = []
    for i in range(rounds * len(IDEAL_WALK_PRIMES)):
        p = IDEAL_WALK_PRIMES[i % len(IDEAL_WALK_PRIMES)]
        rng = op_rng("ideal_walk", seed, i)
        o0, rho = setup.order[p], p

        def run(o0=o0, rho=rho, rng=rng):
            walked = klpt.random_walk(o0, spec, rng)
            prime_ideal, wit = quat.equiv_prime_large_nonresidue(walked, rho, WALK_ELL, rng)
            right = quat.right_order(walked)
            conn = quat.connecting_ideal(o0, right)
            return walked, prime_ideal, wit, right, conn

        def check(out, p=p, rho=rho):
            walked, prime_ideal, wit, right, conn = out
            L = checks.Lattice.of
            checks.check_ideal_walk(
                setup.checked_order(p), walk_norm, rho, WALK_ELL,
                (L(walked), L(prime_ideal), wit.coords, L(right), L(conn)))

        ops.append(Op(f"p={p}", run, check))
    return ops


def class_enum(seed: int, rounds: int) -> list:
    """Class enumeration takes no random input, so the seed changes nothing."""
    setup = Setup(CLASS_ENUM_PRIMES)
    kinds = [(p, ell) for p in CLASS_ENUM_PRIMES for ell in CLASS_ENUM_ELLS]
    ops = []
    for i in range(rounds * len(kinds)):
        p, ell = kinds[i % len(kinds)]
        o0 = setup.order[p]

        def run(o0=o0, ell=ell):
            return klpt.ideal_class_representatives(o0, ell)

        def check(reps, p=p):
            checks.check_class_enum(setup.checked_order(p), [checks.Lattice.of(r) for r in reps])

        ops.append(Op(f"p={p} ell={ell}", run, check))
    return ops


WORKLOADS = {"norm_rep": norm_rep, "ideal_walk": ideal_walk, "class_enum": class_enum}
