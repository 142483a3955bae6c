"""Named, self-contained solver configurations with pinned expected values.

Each entry reproduces one of the bundled reference tables or exercises one
solver family end to end.  Expected rows carry a provenance tag:
``tabulated`` values are lifted verbatim from the reference tables,
``derived`` values were computed with an independent oracle (exact
rationals, brute force, or the high-precision re-execution).  Each
preset's problem is a ``problem`` document of the run-config schema
(:mod:`splitfp.config`), a plain JSON-compatible dict, and its spec is
built from that document, as ``run --config`` builds an inline problem.

Two of the tabulated configurations deliberately sit outside the
theoretical parameter ranges, exactly as published:

- ``bnm_*``: the published simplification of the coupled update drops the
  A*(Ax - By) correction, which is the coupled recurrence with a zero
  coupling step; the tables follow that simplification, so these presets
  pin ``lam = 0``.
- ``wq_*``: the coupling step 1 equals the boundary 2/(L1 + L2); the
  printed first-row value matches the *swapped* block assignment, which is
  what ``wq_t3`` pins (see the solver module notes).
"""

import json
from dataclasses import dataclass, field
from functools import cache
from types import MappingProxyType

from .config import build_spec_from_config
from .problems import ProblemSpec, StoppingRule
from .solvers import run
from .spaces import _vector

__all__ = ["ExpectedRow", "NamedExample", "catalog", "get_example", "run_example"]

TABULATED = "tabulated"
DERIVED = "derived"


@dataclass(frozen=True)
class ExpectedRow:
    """A pinned trace row: iterate index, values, per-value tolerances."""

    n: int
    values: tuple          # (x,) or (x, y)
    tolerances: tuple
    provenance: str

    def __post_init__(self):
        if len(self.values) != len(self.tolerances):
            raise ValueError("values and tolerances differ in length")
        if self.provenance not in (TABULATED, DERIVED):
            raise ValueError("provenance must be tabulated|derived")


@dataclass(frozen=True)
class NamedExample:
    """A preset: its ``problem`` document, the spec built from it, and its runs."""

    id: str
    document: str                  # a run config's ``problem`` object, as JSON
    starts: tuple                  # ((x0,) or (x0, y0), ...)
    default_rule: StoppingRule
    expected: tuple = ()
    notes: str = ""
    spec: ProblemSpec = field(init=False)

    # a new dict at each read: an edit reaches neither the spec nor another preset
    problem = property(lambda self: json.loads(self.document))

    def __post_init__(self):
        object.__setattr__(self, "spec", build_spec_from_config(self.problem))

    def run(self, start_index=0, rule=None):
        """Run from one of the registered starts, by default under ``default_rule``."""
        return run(self.spec, *self.starts[start_index],
                   rule=rule or self.default_rule)

    def to_doc(self):
        """Structured description for listings and machine consumption."""
        return {
            "id": self.id,
            "family": self.spec.family,
            "starts": [
                [_vector(s).tolist() for s in start]
                for start in self.starts
            ],
            "max_iters": self.default_rule.max_iters,
            "expected_rows": [
                {
                    "n": row.n,
                    "values": [float(v) for v in row.values],
                    "tolerances": [float(t) for t in row.tolerances],
                    "provenance": row.provenance,
                }
                for row in self.expected
            ],
            "notes": self.notes,
        }


_BNM = {
    "family": "sffpep", "U": "bigU", "T": "smallS", "A": [[1.0]], "B": [[4.0]],
    "C": {"whole_space": 1}, "Q": {"whole_space": 1},
    "alpha": {"constant": 1 / 5}, "beta": {"constant": 1 / 8},
    "lam": {"constant": 0.0}, "reference": [[5.0], [1.25]],
    "enforce_ranges": False,   # lam = 0 reproduces the published simplification
}
_WQ = {
    "family": "scfpep",
    "U_family": ["wqU"], "u_relax": [1 / 3], "u_weights": [1.0],
    "T_family": ["wqT"], "t_relax": [1 / 5], "t_weights": [1.0],
    "A": [[1.0]], "B": [[1.0]],
    "alpha": {"constant": 1 / 7}, "beta": {"constant": 1 / 9},
    "lam": {"constant": 1.0}, "reference": [[1.0], [1.0]],
    "branch_assignment": "swapped",
    "enforce_ranges": False,   # lam = 1 sits on the boundary 2/(L1+L2)
}
_SCFPP = {
    "family": "scfpp", "T": "smallS", "G": "smallS", "A": [[1.0]],
    "alpha": {"constant": 0.5}, "gamma": 0.5, "reference": [1.25],
}
_ADAPTIVE = {
    "family": "scfpp_adaptive", "U": "scaledNeg", "T": "scaledNeg",
    "A": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
    "alpha": {"constant": 0.5}, "reference": [0.0, 0.0, 0.0],
}
_SYNCHRONAL = {
    "family": "synchronal_vip", "T": "wqT",
    "f": {"num": [0.0, 0.5], "class": "contraction:0.5", "fixed_points": [0.0],
          "name": "halving"},
    "G": {"num": [0.0, 1.0], "class": "strongly_monotone:1.0",
          "extra_classes": ["lipschitzian:1.0"], "fixed_points": [0.0],
          "name": "identity-steering"},
    "alpha": {"formula": "1/(n+2)"}, "beta": {"constant": 0.5},
    "mu": 1.0, "gamma_visc": 0.5, "reference": [1.0],
}
_EXTRAGRADIENT = {
    "family": "extragradient_sffpp", "T": "wqT", "G": "identity", "A": [[1.0]],
    "C": {"box": {"lower": [0.0], "upper": [None]}}, "Q": {"whole_space": 1},
    "alpha": {"constant": 0.5}, "beta": {"constant": 0.5},
    "gamma_seq": {"constant": 0.5}, "reference": [1.0],
}


@cache
def catalog():
    """All named examples, keyed by id.

    Built once per process and shared: examples and their specs are frozen,
    and the mapping is read-only.
    """
    examples = {}

    examples["bnm_t1"] = NamedExample(
        id="bnm_t1",
        document=json.dumps(_BNM),
        starts=(((10.0,), (15.0,)),),
        default_rule=StoppingRule(max_iters=250),
        expected=(
            ExpectedRow(1, (9.898293685, 12.74500000), (1e-6, 1e-6), TABULATED),
            ExpectedRow(2, (9.797736851, 10.85982000), (1e-6, 1e-6), TABULATED),
            ExpectedRow(3, (9.698337655, 9.283809520), (1e-6, 1e-6), TABULATED),
            ExpectedRow(248, (5.001051418, 1.250000002), (1e-4, 1e-6), TABULATED),
            ExpectedRow(249, (5.001012726, 1.250000002), (1e-4, 1e-6), TABULATED),
            ExpectedRow(250, (5.000975458, 1.250000002), (1e-4, 1e-6), TABULATED),
        ),
        notes=(
            "Equality problem with decoupled blocks (lam = 0, matching the "
            "published simplification); converges to (5, 5/4)."
        ),
    )
    examples["bnm_t2"] = NamedExample(
        id="bnm_t2",
        document=json.dumps(_BNM),
        starts=(((5.0,), (1.25,)),),
        default_rule=StoppingRule(max_iters=100),
        expected=tuple(
            ExpectedRow(n, (5.0, 1.25), (1e-9, 1e-9), TABULATED)
            for n in range(0, 101)
        ),
        notes="Started at the solution; every iterate stays put.",
    )
    examples["wq_t3"] = NamedExample(
        id="wq_t3",
        document=json.dumps(_WQ),
        starts=(((5.0,), (5.0,)),),
        default_rule=StoppingRule(max_iters=2000),
        expected=(
            ExpectedRow(1, (4.916472663,), (1e-6,), TABULATED),
            ExpectedRow(2000, (1.0, 1.0), (1e-3, 1e-3), DERIVED),
        ),
        notes=(
            "Only the first x row of the reference table is reproducible, and "
            "only under the swapped block assignment; the y column matches "
            "neither assignment.  The limit (1, 1) is forced by the shared "
            "algorithmic target of both blocks."
        ),
    )
    examples["wq_t4"] = NamedExample(
        id="wq_t4",
        document=json.dumps(_WQ),
        starts=(((-5.0,), (-5.0,)),),
        default_rule=StoppingRule(max_iters=149),
        notes=(
            "Negative start: the piecewise operator is evaluated on its zero "
            "branch below the breakpoint.  The trajectory is recorded for "
            "reference only; the published rows match no assignment of the "
            "printed update rules and no values are asserted."
        ),
    )
    examples["scfpp_smallS"] = NamedExample(
        id="scfpp_smallS",
        document=json.dumps(_SCFPP),
        starts=(((10.0,),),),
        default_rule=StoppingRule(max_iters=200, residual_tol=1e-12),
        expected=(ExpectedRow(1, (4.4,), (1e-12,), DERIVED),),
        notes="Iterate-power splitting with both operators the affine map (x+5)/5.",
    )
    examples["adaptive_demo"] = NamedExample(
        id="adaptive_demo",
        document=json.dumps(_ADAPTIVE),
        starts=(((1.0, 1.0, 1.0),),),
        default_rule=StoppingRule(max_iters=5000, residual_tol=1e-10),
        notes=(
            "Norm-free step choice on the scaled negation (demicontractive "
            "constant 3/7) against a diagonal coupling map."
        ),
    )
    examples["synchronal_demo"] = NamedExample(
        id="synchronal_demo",
        document=json.dumps(_SYNCHRONAL),
        starts=(((4.0,),),),
        default_rule=StoppingRule(max_iters=100000, target_tol=1e-4),
        expected=(ExpectedRow(1, (2.0,), (1e-12,), DERIVED),),
        notes=(
            "Viscosity step toward the unique point of Fix((x+2)/3) = {1}; "
            "the harmonic weight sequence makes convergence O(1/n)."
        ),
    )
    examples["extragradient_1d"] = NamedExample(
        id="extragradient_1d",
        document=json.dumps(_EXTRAGRADIENT),
        starts=(((10.0,),),),
        default_rule=StoppingRule(max_iters=500, residual_tol=1e-9),
        expected=(ExpectedRow(1, (8.25,), (1e-12,), DERIVED),),
        notes=(
            "Cut-accumulating run on the half-line; the limit 1.0 is the "
            "unique point of C intersected with the fixed points of (x+2)/3."
        ),
    )
    return MappingProxyType(examples)


def get_example(example_id):
    examples = catalog()
    if example_id not in examples:
        raise KeyError(
            "unknown example %r; known: %s" % (example_id, ", ".join(sorted(examples)))
        )
    return examples[example_id]


def run_example(example_id, start_index=0, rule=None):
    """Run a named example from one of its registered starts."""
    return get_example(example_id).run(start_index, rule)
