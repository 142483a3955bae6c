"""Constructions that only the tests use."""

from splitfp.operators import FixedPointMap, power_apply


def power_map(T, n, name=None):
    """The n-th iterate power of T as a map in its own right."""
    return FixedPointMap(
        lambda x: power_apply(T, n, x, check_domain=False),
        T.domain,
        known_fixed_points=T.known_fixed_points,
        name=name or ("%s^%d" % (T.name or "T", n)),
    )
