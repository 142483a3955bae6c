"""
Extra-gradient cuts
===================

The cut-accumulating solver on the half-line: every iteration folds three
distance-dominance halfspaces into the running cut set and re-projects the
*initial* point onto what survives.  The departure ||x_n - x_0|| can only
grow, and the solution 1.0 is never cut away.
"""

import numpy as np

from splitfp.presets import get_example
from splitfp.projections import CutSet, contains
from splitfp.solvers import StepResult, step_extragradient
from splitfp.spaces import norm

spec = get_example("extragradient_1d").spec
x0 = np.array([10.0])
# the state carries the running cut set and the anchor x0
state, kept = StepResult(x0, carry=(CutSet(spec.C), x0)), True

print("n    x_n          departure   cuts  solution kept")
for n in range(12):
    state = step_extragradient(spec, state, n)
    x, (cuts, _) = state.x, state.carry
    kept = kept and all(contains(cut, [1.0]) for cut in cuts.latest)
    print("%-4d %-12.8f %-11.8f %-5d %s" % (n + 1, x[0], norm(x - x0), len(cuts), kept))

print("\nafter 12 iterations the active interval has contracted toward 1.0;")
print("running to a 1e-9 step residual lands at", end=" ")
from splitfp import StoppingRule, run_example

trace = run_example("extragradient_1d", rule=StoppingRule(max_iters=500,
                                                          residual_tol=1e-9))
print("%.9f in %d iterations." % (trace.final.x[0], trace.final.n))
