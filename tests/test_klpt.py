"""The equivalent-ideal transcript: KlptContext.verify() on tampered input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import quatpath
from quatpath.errors import ValidationError

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
    src = str(Path(quatpath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = TAMPERED + """
from quatpath.errors import ValidationError
try:
    print("returned", ctx.verify())
except ValidationError as e:
    print("ValidationError:", e)
"""
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ValidationError: transcript check failed: prime_norm is prime"
