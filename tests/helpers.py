"""Constructions that only the tests use."""

import numpy as np

from splitfp.operators import FixedPointMap, power_apply


def power_map(T, n, name=None):
    """The n-th iterate power of T as a map in its own right."""
    return FixedPointMap(
        lambda x: power_apply(T, n, x, check_domain=False),
        T.domain,
        known_fixed_points=T.known_fixed_points,
        name=name or ("%s^%d" % (T.name or "T", n)),
    )


def full_orbit(T, x, n_max):
    """x, Tx, ..., T^{n_max} x with every power evaluated: the reference for
    ``operators._iterates``, which stops at a bitwise-fixed iterate."""
    out = [np.atleast_1d(np.asarray(x, dtype=float))]
    for _ in range(n_max):
        out.append(T(out[-1]))
    return out
