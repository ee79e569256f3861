"""Exact oracles shared by the tests, written for plainness, not speed."""

import math

from quatpath import lattice, qform
from quatpath.errors import ValidationError


def representation_count(f, N):
    """Exact #{(x, y) in Z^2 : f(x, y) = N}, as a difference of ellipse counts."""
    if N <= 0:
        raise ValidationError("N must be positive")
    return (lattice.count_ellipsoid_dim2(f, (0, 0), N)
            - lattice.count_ellipsoid_dim2(f, (0, 0), N - 1))


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
