"""Exact integer/rational linear algebra underneath everything else."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quatpath import linalg

from oracles import hnf_with_transform


def rand_mat(rng, r, c, lo=-9, hi=9):
    return tuple(tuple(rng.randrange(lo, hi + 1) for _ in range(c)) for _ in range(r))


def det_fraction(m) -> Fraction:
    """Determinant over Q by Gaussian elimination: the oracle for Bareiss."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot = None
        for i in range(k, n):
            if a[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] * inv
            if factor:
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def test_det_bareiss_matches_fraction_elimination():
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randrange(1, 6)
        m = rand_mat(rng, n, n)
        assert linalg.det_bareiss(m) == det_fraction(m)


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        a = rand_mat(rng, 4, 4)
        b = rand_mat(rng, 4, 4)
        assert linalg.det_bareiss(linalg.mat_mul(a, b)) == linalg.det_bareiss(
            a
        ) * linalg.det_bareiss(b)


def test_inverse_fraction():
    rng = random.Random(12)
    n_done = 0
    while n_done < 100:
        m = rand_mat(rng, 4, 4)
        if linalg.det_bareiss(m) == 0:
            continue
        n_done += 1
        inv = linalg.inverse_fraction(m)
        prod = linalg.mat_mul(m, inv)
        assert prod == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    with pytest.raises(ValueError):
        linalg.inverse_fraction(((1, 2), (2, 4)))


def hnf_properties(h, original):
    # row-style HNF: nonzero rows, positive pivots moving right,
    # entries above each pivot reduced into [0, pivot)
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        assert nz, "zero rows must be dropped"
        j = nz[0]
        assert row[j] > 0
        if pivots:
            assert j > pivots[-1][1]
        pivots.append((row[j], j))
    for k, (piv, j) in enumerate(pivots):
        for r in range(k):
            assert 0 <= h[r][j] < piv


def row_space_mod(m, q):
    """Frozen set of the row space over Z/q, brute force."""
    rows = [tuple(x % q for x in row) for row in m]
    space = {tuple([0] * len(m[0]))}
    for row in rows:
        add = []
        for v in space:
            for c in range(1, q):
                add.append(tuple((a + c * b) % q for a, b in zip(v, row)))
        space.update(add)
    return frozenset(space)


def test_hnf_canonical_and_equal_lattice():
    rng = random.Random(13)
    for _ in range(150):
        r = rng.randrange(1, 5)
        c = rng.randrange(r, 5)
        m = rand_mat(rng, r, c, -6, 6)
        h = linalg.hnf(m)
        if not h:
            assert all(all(x == 0 for x in row) for row in m)
            continue
        hnf_properties(h, m)
        # same row lattice mod small primes
        for q in (2, 3, 5):
            assert row_space_mod(list(h) + [[0] * c], q) == row_space_mod(m, q)


def test_hnf_and_left_kernel_match_oracle():
    # the transform-tracking elimination of the oracle is the witness:
    # U is unimodular with U * M = H, hnf is H without its zero rows, and
    # the rows of U facing them span the same lattice as left_kernel
    rng = random.Random(14)
    for _ in range(150):
        r, c = rng.randrange(1, 7), rng.randrange(1, 5)
        m = rand_mat(rng, r, c, -6, 6)
        if rng.random() < 0.3 and r > 1:
            m = m[:-1] + (tuple(2 * x - y for x, y in zip(m[0], m[-2])),)
        h, u = hnf_with_transform(m)
        assert linalg.mat_mul(u, m) == h
        assert abs(linalg.det_bareiss(u)) == 1
        assert linalg.hnf(m) == tuple(row for row in h if any(row))
        kern = tuple(u[i] for i in range(r) if not any(h[i]))
        assert linalg.hnf(linalg.left_kernel(m)) == linalg.hnf(kern)


def test_hnf_idempotent():
    rng = random.Random(15)
    for _ in range(100):
        m = rand_mat(rng, 3, 4)
        h = linalg.hnf(m)
        assert linalg.hnf(h) == h


def test_left_kernel():
    rng = random.Random(16)
    for _ in range(150):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        m = rand_mat(rng, r, c, -4, 4)
        k = linalg.left_kernel(m)
        for row in k:
            assert all(
                sum(row[i] * m[i][j] for i in range(r)) == 0 for j in range(c)
            )
        # rank-nullity
        assert len(k) == r - len(linalg.hnf(m))


def test_lattice_intersection():
    rng = random.Random(19)
    done = 0
    while done < 60:
        a = rand_mat(rng, 3, 3, -3, 3)
        b = rand_mat(rng, 3, 3, -3, 3)
        if linalg.det_bareiss(a) == 0 or linalg.det_bareiss(b) == 0:
            continue
        done += 1
        k = linalg.hnf(linalg.lattice_intersection(a, b))
        # brute membership: v in both row lattices iff v * inv is integral
        ia = linalg.inverse_fraction(a)
        ib = linalg.inverse_fraction(b)

        def in_lat(v, inv):
            return all(c.denominator == 1 for c in linalg.vec_mat(v, inv))

        for row in k:
            assert in_lat(row, ia) and in_lat(row, ib)
        # small brute scan finds nothing in the intersection outside k
        ik = linalg.inverse_fraction(k)
        for _ in range(40):
            v = tuple(rng.randrange(-6, 7) for _ in range(3))
            if in_lat(v, ia) and in_lat(v, ib):
                assert in_lat(v, ik)


@given(st.sampled_from([2, 3, 5, 7]),
       st.lists(st.lists(st.integers(-30, 30), min_size=4, max_size=4), min_size=1, max_size=6))
def test_hnf_mod_prime_matches_hnf_with_ell_rows(ell, rows):
    ell_rows = [tuple(ell * (k == j) for k in range(4)) for j in range(4)]
    assert linalg.hnf_mod_prime(rows, ell) == linalg.hnf(tuple(map(tuple, rows)) + tuple(ell_rows))
