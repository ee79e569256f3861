"""Tests of the benchmark itself: every output check accepts a genuine
quatpath output and rejects a tampered one, the independent primitives
agree with sympy, and traced runs count calls reproducibly.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, Lattice  # noqa: E402
from quatpath import arith, eqsolver, klpt, quat  # noqa: E402

P = 103


@pytest.fixture(scope="module")
def o0():
    return quat.special_order(quat.construct_algebra(P)).order


@pytest.fixture(scope="module")
def walk_output(o0):
    spec = klpt.WalkSpec.from_norm(arith.Factorization(workloads.WALK_FACTORS, 1))
    rng = random.Random(7)
    walked = klpt.random_walk(o0, spec, rng)
    prime_ideal, wit = quat.equiv_prime_large_nonresidue(walked, P, workloads.WALK_ELL, rng)
    right = quat.right_order(walked)
    conn = quat.connecting_ideal(o0, right)
    L = Lattice.of
    return [L(walked), L(prime_ideal), wit.coords, L(right), L(conn)]


WALK_NORM = 2**8 * 3**4


def _check_walk(o0, out):
    checks.check_ideal_walk(Lattice.of(o0), WALK_NORM, P, workloads.WALK_ELL, out)


def test_primitives_agree_with_sympy():
    rng = random.Random(1)
    samples = list(range(2000)) + [rng.randrange(10**12) for _ in range(300)]
    samples += [3215031751, 3825123056546413051, 2**61 - 1, (2**61 - 1) * (2**19 - 1)]
    for n in samples:
        assert checks.is_prime(n) == sympy.isprime(n), n
    for n in range(1, 400, 2):
        for a in range(-20, 40):
            assert checks.jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (11, 2), (13, 1), (37, 3), (71, 7), (83, 8)])
def test_eichler_class_number(p, h):
    assert checks.eichler_class_number(p) == h


def test_quaternion_product_is_associative_with_multiplicative_norm():
    rng = random.Random(2)
    for p, q in [(103, 1), (101, 2), (97, 5)]:
        for _ in range(20):
            a, b, c = ([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                       for _ in range(3))
            ab = checks.qmul(p, q, a, b)
            assert checks.qmul(p, q, ab, c) == checks.qmul(p, q, a, checks.qmul(p, q, b, c))
            assert checks.nrd(p, q, ab) == checks.nrd(p, q, a) * checks.nrd(p, q, b)


def test_maximal_order_check(o0):
    o = Lattice.of(o0)
    checks.check_maximal_order(o)
    with pytest.raises(CheckError, match="discriminant"):
        checks.check_maximal_order(Lattice(P, 1, [(1, 0, 0, 0), (0, 1, 0, 0),
                                                  (0, 0, 1, 0), (0, 0, 0, 1)]))
    with pytest.raises(CheckError, match="contain 1"):
        checks.check_maximal_order(Lattice(P, 1, [[2 * c for c in r] for r in o.rows]))


def test_norm_rep_check(o0):
    alg = o0.alg
    n = 104729  # prime, near p^2.5
    alpha = eqsolver.represent_in_O0(alg, n, random.Random(3)).coords
    o = Lattice.of(o0)
    checks.check_norm_rep(o, n, alpha)
    with pytest.raises(CheckError, match="Nrd"):
        checks.check_norm_rep(o, n, (alpha[0] + 1,) + tuple(alpha[1:]))
    # norm 1 (q = 1 here) but denominators of 5, so outside O0
    with pytest.raises(CheckError, match="not in O0"):
        checks.check_norm_rep(o, 1, (Fraction(3, 5), Fraction(4, 5), 0, 0))


def test_ideal_walk_check_accepts(o0, walk_output):
    _check_walk(o0, walk_output)


@pytest.mark.parametrize("slot,tamper,reason", [
    (0, lambda I, o: Lattice(P, 1, [[2 * c for c in r] for r in I.rows]), r"\[O0 : I\]"),
    (0, lambda I, o: o, r"\[O0 : I\]"),
    (1, lambda J, o: o, "J is not"),
    (2, lambda w, o: tuple(2 * c for c in w), "not prime"),
    (3, lambda R, o: o, "right order of I"),
    (4, lambda C, o: o, "connecting ideal's right order"),
])
def test_ideal_walk_check_rejects(o0, walk_output, slot, tamper, reason):
    out = list(walk_output)
    out[slot] = tamper(out[slot], Lattice.of(o0))
    with pytest.raises(CheckError, match=reason):
        _check_walk(o0, out)


def test_class_enum_check(o0):
    reps = [Lattice.of(r) for r in klpt.ideal_class_representatives(o0, 2)]
    o = Lattice.of(o0)
    checks.check_class_enum(o, reps)
    with pytest.raises(CheckError, match="Eichler"):
        checks.check_class_enum(o, reps[:-1])
    not_ideal = Lattice(P, 1, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(CheckError, match="left ideal"):
        checks.check_class_enum(o, reps[:-1] + [not_ideal])


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=170)


def test_traced_runs_count_calls_reproducibly():
    counts = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "norm_rep", "--seed", "5", "--seconds", "1",
                    "--trace", "1")
        assert proc.returncode == 0
        res = json.loads(proc.stdout.splitlines()[-1])
        assert res["correct"] and res["failed"] == 0
        assert list(res["metrics"]) == [name for name, _, _ in spans.metric_names()]
        counts.append({k: v["value"] for k, v in res["metrics"].items() if k.endswith(".calls")})
    assert len(res["metrics"]) == 86
    assert counts[0] == counts[1]
    assert counts[0]["eqsolver.represent_in_O0.calls"] == res["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "norm_rep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
