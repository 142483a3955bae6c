"""
Projection toolkit
==================

Closed-form metric projections, the ways an intersection projects (an
analytic interval in 1-D, an exact active-set method for boxes and
halfspaces, the same method with one ball added, the meeting of two
spheres for two balls, Dykstra's method otherwise), and the
distance-dominance halfspaces the extra-gradient solver cuts with.
"""

import numpy as np

from splitfp import Ball, Box, Halfspace, Intersection, project
from splitfp.projections import contains, halfspace_from_distance_dominance

# closed forms
half_line = Box([0.0], [np.inf])
print("P_[0,inf)(-2)        =", project(half_line, [-2.0]))

wall = Halfspace([1.0, 0.0], 0.0)          # z_1 <= 0
print("P_{z1<=0}(2, 3)      =", project(wall, [2.0, 3.0]))

disc = Ball([0.0, 0.0], 1.0)
print("P_disc(2, 0)         =", project(disc, [2.0, 0.0]))

# A box cut by a diagonal halfspace is a polyhedron {z : N z <= b}, so its
# projection is exact: the dual active-set method of Goldfarb & Idnani
# enters the most violated row until none is left, and its multipliers
# certify the nearest point.
wedge = Intersection([Box([-2.0, -2.0], [2.0, 2.0]), Halfspace([1.0, 1.0], 1.0)])
x = np.array([3.0, 2.5])
p = project(wedge, x)
print("P_wedge(3, 2.5)      =", p, " (feasible:", contains(wedge, p), ")")

# A box cut by a disc is exact too: the nearest point is the box's projection
# of x + s (c - x), for the smallest s in [0, 1] that lands in the disc, and
# on each face of the box that is a quadratic in s.
rounded = Intersection([Box([-2.0, -2.0], [2.0, 2.0]), Ball([1.0, 1.0], 2.0)])
p = project(rounded, [-3.0, 2.5])
print("P_rounded(-3, 2.5)   =", p, " (feasible:", contains(rounded, p), ")")

# Two discs and a halfspace have no closed form here, so they go to Dykstra's
# method.  Plain alternating projection would only find *a* feasible point;
# Dykstra's correction terms recover the nearest one.
cut_lens = Intersection([Ball([0.0, 0.0], 1.5), Ball([1.0, 0.0], 1.5),
                         Halfspace([0.0, 1.0], 0.5)])
p = project(cut_lens, [3.0, 1.0])
print("P_cut_lens(3, 1)     =", p, " (feasible:", contains(cut_lens, p), ")")

# One-dimensional intersections collapse analytically before projecting,
# which keeps the reference runs exact.
interval = Intersection([half_line, Halfspace([1.0], 7.0), Halfspace([-2.0], -4.0)])
print("P_[2,7](10)          =", project(interval, [10.0]))

# the halfspace of points at least as close to `near` as to `far`
cut = halfspace_from_distance_dominance([5.0], [9.0])
print("closer-to-5-than-9   = {z <= %.1f}" % (cut.b / cut.a[0]))
print("  contains 6.9:", contains(cut, [6.9]), " contains 7.1:", contains(cut, [7.1]))
