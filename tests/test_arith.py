"""Number-theory kernel: every routine checked against a brute oracle."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatpath import arith
from quatpath.errors import BudgetError


def sieve(n):
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            for k in range(i * i, n + 1, i):
                flags[k] = False
    return flags


def test_is_prime_against_sieve():
    flags = sieve(20000)
    for n in range(20001):
        assert arith.is_prime(n) == flags[n], n


def test_is_prime_large_known():
    assert arith.is_prime(2**61 - 1)
    assert not arith.is_prime(2**67 - 1)  # Mersenne composite, 193707721 * ...
    assert arith.is_prime(10**18 + 9)
    # Carmichael numbers must not fool it
    for c in (561, 1105, 41041, 825265):
        assert not arith.is_prime(c)


def test_next_prime():
    assert arith.next_prime(2) == 3
    assert arith.next_prime(3) == 5
    assert arith.next_prime(89) == 97
    assert arith.next_prime(10**6) == 1000003
    flags = sieve(3000)
    for n in range(1, 2500):
        np = arith.next_prime(n)
        assert flags[np]
        assert all(not flags[k] for k in range(n + 1, np))


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_xgcd_identity(a, b):
    g, x, y = arith.xgcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_inv_mod():
    rng = random.Random(1)
    for _ in range(300):
        m = rng.randrange(2, 10**6)
        a = rng.randrange(1, m)
        if math.gcd(a, m) == 1:
            assert a * arith.inv_mod(a, m) % m == 1
        else:
            with pytest.raises(ValueError):
                arith.inv_mod(a, m)
    assert arith.inv_mod(7, 1) == 0
    assert arith.inv_mod(-3, 10) == 3


def test_crt():
    rng = random.Random(2)
    for _ in range(200):
        moduli = []
        m = 1
        while len(moduli) < 3:
            c = rng.randrange(2, 500)
            if math.gcd(c, m) == 1:
                moduli.append(c)
                m *= c
        residues = [rng.randrange(mod) for mod in moduli]
        r, total = arith.crt(residues, moduli)
        assert total == m
        assert all(r % mod == res for res, mod in zip(residues, moduli))
    # modulus-1 entries are legal and ignored
    assert arith.crt([0, 3], [1, 7]) == (3, 7)


def test_kronecker_odd_prime_is_euler():
    for p in [3, 5, 7, 11, 13, 101, 103, 997]:
        for a in range(0, 2 * p):
            e = pow(a, (p - 1) // 2, p)
            expected = 0 if a % p == 0 else (1 if e == 1 else -1)
            assert arith.kronecker(a, p) == expected


def test_kronecker_two_and_multiplicativity():
    # (a/2) by the mod-8 rule
    for a in range(-20, 21):
        if a % 2 == 0:
            assert arith.kronecker(a, 2) == 0
        else:
            assert arith.kronecker(a, 2) == (1 if a % 8 in (1, 7) else -1)
    rng = random.Random(3)
    for _ in range(500):
        a = rng.randrange(-200, 201)
        m = rng.randrange(1, 200)
        n = rng.randrange(1, 200)
        assert arith.kronecker(a, m * n) == arith.kronecker(a, m) * arith.kronecker(
            a, n
        )


def test_sqrt_mod_prime():
    for p in [3, 5, 7, 13, 17, 101, 103, 65537]:
        squares = {pow(x, 2, p) for x in range(p)} if p < 200 else None
        for n in range(min(p, 120)):
            r = arith.sqrt_mod_prime(n, p)
            if r is not None:
                assert r * r % p == n % p
            elif squares is not None:
                assert n % p not in squares


def test_sqrt_mod_prime_powers():
    # complete root sets, brute-force compared, odd and even p
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3, 4):
            m = p**k
            for n in range(m):
                got = sorted(arith.sqrt_mod_prime_power(n, p, k))
                want = sorted(x for x in range(m) if x * x % m == n)
                assert got == want, (p, k, n)


def test_sqrt_mod_factored():
    # every root, combined in itertools.product order, first factor outermost
    roots = arith.sqrt_mod_factored(1, [(5, 1), (2, 3), (3, 1)])
    assert [(r % 5, r % 8, r % 3) for r in roots] == list(
        itertools.product([1, 4], [1, 3, 5, 7], [1, 2]))
    assert all(0 <= r < 120 for r in roots)
    assert sorted(roots) == [x for x in range(120) if x * x % 120 == 1]
    assert arith.sqrt_mod_factored(2, [(7, 1), (3, 1)]) == []  # 2 is no square mod 3
    assert arith.sqrt_mod_factored(5, []) == [0]
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    with pytest.raises(BudgetError, match="square-root count"):
        arith.sqrt_mod_factored(1, [(q, 1) for q in primes])  # 2^17 roots
    # one singular prime power: the roots of 0 mod 3^k number 3^(k // 2)
    with pytest.raises(BudgetError, match="root count"):
        arith.sqrt_mod_factored(0, [(3, 30)])


def test_sqrt_mod_odd_coprime():
    rng = random.Random(4)
    for _ in range(200):
        q = rng.choice([3, 5, 7, 11, 13])
        k = rng.randrange(1, 4)
        x = rng.randrange(q**k)
        if x % q == 0:
            continue
        n = x * x % q**k
        roots = arith.sqrt_mod(n, q, k)
        assert x in roots or (-x) % q**k in roots
        assert all(r * r % q**k == n for r in roots)


def test_factor_bounded_and_completely():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 10**7)
        f = arith.factor_bounded(n)
        assert f.value() == n
        back = f.cofactor
        for p, e in f.factors:
            assert arith.is_prime(p)
            back *= p**e
        assert back == n
    f = arith.factor_completely(2**10 * 3**4 * 10007)
    assert f.complete
    assert f.factors == ((2, 10), (3, 4), (10007, 1))


def test_factor_bounded_leaves_large_composite_in_cofactor():
    # both primes lie past trial division's 10^6 and the product past 10^12
    n = 1000003 * 1000033
    f = arith.factor_bounded(n)
    assert f.factors == () and f.cofactor == n and f.value() == n
    assert not f.complete
    with pytest.raises(ValueError, match="could not fully factor"):
        arith.factor_completely(n)
    # a prime past 10^12 is recorded as a prime
    q = arith.next_prime(10**12)
    assert arith.factor_bounded(6 * q).factors == ((2, 1), (3, 1), (q, 1))


def test_factorization_from_dict():
    f = arith.Factorization.from_dict({3: 2, 2: 1})
    assert f.value() == 18
    assert f.factors == ((2, 1), (3, 2))
    g = arith.Factorization.from_dict({2: 1}, cofactor=77)
    assert not g.complete
    assert g.value() == 154
    assert arith.Factorization.of_prime_power(5, 3) == arith.Factorization(((5, 3),), 1)
    assert arith.Factorization.of_prime_power(5, 0).factors == ()
