"""Exact oracles shared by the tests, written for plainness, not speed, and
the harness that runs a script under python -O."""

import math
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import quatpath
from quatpath import arith, klpt, lattice, qform, quat
from quatpath.errors import ValidationError


def run_under_python_O(script):
    """Run script under python -O; the finished process.

    The child imports quatpath from this checkout, put ahead of the
    caller's PYTHONPATH.  It first prints sys.flags.optimize, which must
    read 1 and is cut from the process's stdout, leaving the script's own.
    """
    src = str(Path(quatpath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys\nprint(sys.flags.optimize)\n" + script
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    flag, _, run.stdout = run.stdout.partition("\n")
    if flag != "1":  # not an assert: pytest leaves this module's to python -O
        raise AssertionError(f"the script did not run under python -O: {run.stderr}")
    return run


def representation_count(f, N):
    """Exact #{(x, y) in Z^2 : f(x, y) = N}, as a difference of ellipse counts."""
    if N <= 0:
        raise ValidationError("N must be positive")
    return (lattice.count_ellipsoid_dim2(f, (0, 0, 1), N)
            - lattice.count_ellipsoid_dim2(f, (0, 0, 1), N - 1))


def genus_representation_count(D, N):
    """Representations of N summed over every primitive class of disc D."""
    return sum(representation_count(f, N) for f in qform.class_group(D).forms)


def genus_residues(f):
    """The residues mod |disc f|, coprime to it, that f takes: its genus's."""
    mod = abs(f.disc)
    vals = {f.value(x, y) % mod for x in range(mod) for y in range(mod)}
    return frozenset(v for v in vals if math.gcd(v, mod) == 1)


def shortest_nonzero(form):
    """A shortest nonzero vector of a GramForm and its value.

    One Fincke-Pohst run, up to the least value on a basis vector.
    """
    bound = min(form.m[i][i] for i in range(form.rank)) // 2
    return min(lattice.enumerate_by_value(form, bound, lower=1), key=lambda hit: hit[1])


def hnf_with_transform(m):
    """Row HNF (H, U) with U unimodular and U * M = H, zero rows at the bottom.

    The elimination linalg.hnf runs, with every row operation also applied
    to U, which starts as the identity; the rows of U facing zero rows of H
    span the left kernel of M.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        nz = [i for i in range(pivot_row, rows) if a[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        a[pivot_row], a[i0] = a[i0], a[pivot_row]
        u[pivot_row], u[i0] = u[i0], u[pivot_row]
        for i in range(pivot_row + 1, rows):
            while a[i][col] != 0:
                g, s, t = arith.xgcd(a[pivot_row][col], a[i][col])
                p, q = a[pivot_row][col] // g, a[i][col] // g
                for w in (a, u):
                    w[pivot_row], w[i] = ([s * x + t * y for x, y in zip(w[pivot_row], w[i])],
                                          [-q * x + p * y for x, y in zip(w[pivot_row], w[i])])
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        piv = a[pivot_row][col]
        for i in range(pivot_row):
            q = a[i][col] // piv
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[pivot_row])]
                u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
        pivot_row += 1
    return tuple(map(tuple, a)), tuple(map(tuple, u))


def class_representatives_bfs(order, ell):
    """One ideal per left-ideal class of a maximal order, by exhaustive BFS.

    Breadth-first search along ell-neighbors from the order until the
    queue empties, testing each neighbor against every representative
    kept so far; the first ideal of each new class is kept.
    """
    reps = [order]
    queue = deque([order])
    while queue:
        for nb in klpt._neighbor_lattices(order, queue.popleft(), ell):
            if any(quat.ideal_equivalence_test(r, nb) is not None for r in reps):
                continue
            reps.append(nb)
            queue.append(nb)
    return tuple(reps)


def step_lattice_by_generators(order, ideal, w, ell):
    """The neighbor order*w + ell*ideal, as the HNF of its 8 generators."""
    rows = [b * w for b in order.basis_elements()]
    rows += [b * ell for b in ideal.basis_elements()]
    return quat.QuatLattice.from_rows(ideal.alg, rows)


def inverse(el):
    """The inverse conj(el) / nrd(el) of a quaternion; ValidationError for zero."""
    if el.is_zero():
        raise ValidationError("zero is not invertible")
    return el.conj() * (1 / el.nrd())


def right_order_by_intersection(lat):
    """{x : lat * x inside lat}, as the left order of conj(lat)."""
    return quat.left_order(lat.conj_lattice())


def mul_right_scaled(lat, el, r):
    """The lattice lat * el * r, from the element products, then scaled."""
    return quat.QuatLattice.from_rows(lat.alg, [b * el for b in lat.basis_elements()]).scale(r)
