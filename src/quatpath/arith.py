"""Exact integer and residue arithmetic primitives.

Everything here works on plain Python ints (arbitrary precision) and is
deterministic: the random rounds of is_prime draw from an rng seeded
by n.  No floats anywhere: callers rely on exact answers.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import BudgetError

__all__ = [
    "is_prime",
    "next_prime",
    "xgcd",
    "inv_mod",
    "crt",
    "kronecker",
    "sqrt_mod",
    "sqrt_mod_prime",
    "sqrt_mod_factored",
    "Factorization",
    "factor_bounded",
    "factor_completely",
]

# Deterministic Miller-Rabin witness set.  Sufficient for all n < 3.3 * 10^24
# (Sorenson-Webster), which covers every desk-scale input; above that we fall
# back to random rounds.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_DETERMINISTIC_BOUND = 3317044064679887385961981


def _mr_round(n: int, a: int, d: int, s: int) -> bool:
    """One Miller-Rabin round; True means 'probably prime'."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic below the Sorenson-Webster bound (far beyond 2^64),
    otherwise 64 random Miller-Rabin rounds (error < 2^-128).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses = [a for a in _MR_WITNESSES if a < n]
    else:
        rng = random.Random(0xC0FFEE ^ (n & 0xFFFFFFFF))
        witnesses = [rng.randrange(2, n - 1) for _ in range(64)]
    return all(_mr_round(n, a, d, s) for a in witnesses)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def inv_mod(a: int, m: int) -> int:
    """Inverse of a modulo m; raises ValueError if not coprime."""
    g, x, _ = xgcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} not invertible modulo {m}")
    return x % m


def crt(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    """Chinese remainder lift for pairwise coprime moduli.

    Returns (r, M) with r unique mod M = prod(moduli).
    """
    r, m = 0, 1
    for ri, mi in zip(residues, moduli):
        g, u, v = xgcd(m, mi)
        if g != 1:
            raise ValueError("moduli not coprime")
        r = (r * v * mi + ri * u * m) % (m * mi)
        m *= mi
    return r, m


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), extended to all integer pairs."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        sign = -1 if a < 0 else 1
        return sign * kronecker(a, -n)
    # strip factors of 2 from n; (a/2) = 0, 1, -1 for a even, a = +-1 mod 8, else
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t and a % 2 == 0:
        return 0
    result = 1
    if t % 2 == 1 and a % 8 in (3, 5):
        result = -result
    a %= n
    # Jacobi symbol main loop with quadratic reciprocity
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod_prime(n: int, q: int) -> int | None:
    """A square root of n modulo odd prime q, or None for non-residues.

    Tonelli-Shanks.  Returns the root in [0, q).
    """
    n %= q
    if n == 0:
        return 0
    if kronecker(n, q) != 1:
        return None
    if q % 4 == 3:
        return pow(n, (q + 1) // 4, q)
    # write q-1 = d * 2^s with d odd
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while kronecker(z, q) != -1:
        z += 1
    c = pow(z, d, q)
    x = pow(n, (d + 1) // 2, q)
    t = pow(n, d, q)
    m = s
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        x = x * b % q
        t = t * b * b % q
        c = b * b % q
        m = i
    return x


def sqrt_mod(n: int, q: int, k: int = 1) -> list[int]:
    """All square roots of n modulo q^k for odd prime q with gcd(n, q) = 1.

    Tonelli-Shanks at the bottom, Hensel lifting above.  Returns the empty
    list when n is a non-residue, otherwise exactly two roots, sorted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if q % 2 == 0 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    if math.gcd(n, q) != 1:
        raise ValueError("gcd(n, q) must be 1")
    r = sqrt_mod_prime(n, q)
    if r is None:
        return []
    m = q
    for _ in range(k - 1):
        # Hensel: r' = r - (r^2 - n) / (2r) mod m*q
        m_next = m * q
        num = (r * r - n) % m_next
        r = (r - num * inv_mod(2 * r, m_next)) % m_next
        m = m_next
    return sorted({r % m, (-r) % m})


def sqrt_mod_prime_power(n: int, p: int, k: int = 1) -> list[int]:
    """All x in [0, p^k) with x^2 = n mod p^k, for any prime p.

    Unlike sqrt_mod this handles p = 2 and gcd(n, p) > 1, by explicit
    level-by-level lifting.  The root count can grow like p^(k/2) when
    p^k | n; past 10^5 roots it raises BudgetError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m_full = p**k
    n %= m_full
    if p % 2 == 1 and n % p != 0:
        return sqrt_mod(n, p, k)  # which checks that p is prime
    if not is_prime(p):
        raise ValueError("p must be prime")
    sols = [x for x in range(p) if (x * x - n) % p == 0]
    m = p
    for _ in range(k - 1):
        m_next = m * p
        lifted = set()
        for r in sols:
            for t in range(p):
                c = r + t * m
                if (c * c - n) % m_next == 0:
                    lifted.add(c)
        sols = sorted(lifted)
        m = m_next
        if len(sols) > 10**5:
            raise BudgetError("root count over budget; modulus too singular")
    return sols


def sqrt_mod_factored(n: int, factors) -> list[int]:
    """Every square root of n modulo m = prod p^k, factors the pairs (p, k).

    The roots modulo each prime power, from sqrt_mod_prime_power, are
    combined by CRT in itertools.product order, the first factor
    outermost, each into [0, m).  Returns the empty list when some prime
    power has no root, and raises BudgetError past 10^5 roots.
    """
    root_sets, moduli, count = [], [], 1
    for p, k in factors:
        roots = sqrt_mod_prime_power(n, p, k)
        if not roots:
            return []
        count *= len(roots)
        if count > 10**5:
            raise BudgetError("square-root count over budget")
        root_sets.append(roots)
        moduli.append(p**k)
    return [crt(list(combo), moduli)[0] for combo in itertools.product(*root_sets)]


@dataclass(frozen=True)
class Factorization:
    """A (possibly partial) factorization: prod p^e * cofactor.

    factors is sorted by prime; every listed prime passes is_prime;
    cofactor == 1 means the factorization is complete.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    def value(self) -> int:
        v = self.cofactor
        for p, e in self.factors:
            v *= p**e
        return v

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]

    @staticmethod
    def from_dict(d: dict[int, int], cofactor: int = 1) -> "Factorization":
        items = tuple(sorted((p, e) for p, e in d.items() if e > 0))
        return Factorization(items, cofactor)

    @staticmethod
    def of_prime_power(p: int, e: int) -> "Factorization":
        return Factorization(((p, e),), 1) if e > 0 else Factorization((), 1)


def factor_bounded(n: int) -> Factorization:
    """Factor n by trial division up to 10^6.

    Never fails: the part left over is recorded as a prime when it is
    below 10^12, where trial division proved it prime, or passes
    is_prime, and lands in the cofactor otherwise.  The invariant
    prod(p^e) * cofactor == n always holds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    found: dict[int, int] = {}
    rem = n
    for p in (2, 3, 5):
        while rem % p == 0:
            found[p] = found.get(p, 0) + 1
            rem //= p
    # wheel over 6k +- 1
    d = 7
    step = 4
    while d <= 10**6 and d * d <= rem:
        while rem % d == 0:
            found[d] = found.get(d, 0) + 1
            rem //= d
        d += step
        step = 6 - step
    if rem > 1 and (rem < 10**12 or is_prime(rem)):
        found[rem] = found.get(rem, 0) + 1
        rem = 1
    return Factorization.from_dict(found, rem)


def factor_completely(n: int) -> Factorization:
    """Full factorization; raises ValueError when factor_bounded leaves a
    cofactor, a composite whose prime factors all exceed 10^6."""
    f = factor_bounded(n)
    if not f.complete:
        raise ValueError(f"could not fully factor {n} by trial division")
    return f
