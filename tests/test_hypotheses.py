"""Each family's hypotheses as rows: the slots it uses, ranges decided over
every n, and the operator classes the paper assumes."""

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from splitfp.cli import main
from splitfp.config import build_spec_from_config
from splitfp.operators import (SequenceSpec, StrictlyPseudocontractive, map_from_rule,
                               operator_catalog)
from splitfp.presets import catalog
from splitfp.problems import FAMILIES, ProblemSpec, ValidationError
from splitfp.projections import WholeSpace
from splitfp.rules import Rational1D
from splitfp.spaces import LinearMap

REPO = Path(__file__).resolve().parents[1]
DEMO_CONFIGS = sorted(str(p.relative_to(REPO))
                      for p in (REPO / "demos" / "configs").glob("*.json"))


def _run(tmp_path, capsys, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# range warnings, pinned

_LAM_BNM = ("lam(n=0) = 0 outside (0, 0.117647)",)   # lam = 0, the published simplification
_LAM_WQ = ("lam(n=0) = 1 outside (0, 1)",)           # lam = 1, on the boundary 2/(L1+L2)
RANGE_WARNINGS = {
    "bnm_t1": _LAM_BNM, "bnm_t2": _LAM_BNM, "wq_t3": _LAM_WQ, "wq_t4": _LAM_WQ,
    "scfpp_smallS": (), "adaptive_demo": (), "synchronal_demo": (), "extragradient_1d": (),
    # a preset's own config, and an inline copy of the bnm problem
    "demos/configs/bnm_t1.json": _LAM_BNM, "demos/configs/scfpp_inline.json": (),
    "demos/configs/sffpep_inline_rules.json": _LAM_BNM,
}


@pytest.mark.parametrize("name", sorted(catalog()) + DEMO_CONFIGS)
def test_range_warnings_of_every_preset_and_demo_config(name):
    if name in catalog():
        spec = catalog()[name].spec
    else:
        problem = json.loads((REPO / name).read_text())["problem"]
        spec = (catalog()[problem["example"]].spec if "example" in problem
                else build_spec_from_config(problem))
    assert spec.warnings == RANGE_WARNINGS[name]


# ---------------------------------------------------------------------------
# slots: a family reads its own, and any other slot away from its default is
# refused


# the slots each family reads, besides family, reference_solution and
# enforce_ranges, which every family may set
READS = {
    "scfpp": {"T", "G", "A", "alpha", "gamma", "gamma_bound_choice"},
    "scfpp_adaptive": {"U", "T", "A", "alpha"},
    "synchronal_vip": {"T", "f", "G", "alpha", "beta", "mu", "gamma_visc"},
    "sffpep": {"U", "T", "A", "B", "C", "Q", "alpha", "beta", "lam", "branch_assignment"},
    "scfpep": {"U_family", "u_relax", "u_weights", "T_family", "t_relax", "t_weights",
               "A", "B", "alpha", "beta", "lam", "branch_assignment"},
    "extragradient_sffpp": {"T", "G", "A", "C", "Q", "alpha", "beta", "gamma_seq",
                            "cut_cap"},
}
PRESET = {"scfpp": "scfpp_smallS", "scfpp_adaptive": "adaptive_demo",
          "synchronal_vip": "synchronal_demo", "sffpep": "bnm_t1", "scfpep": "wq_t3",
          "extragradient_sffpp": "extragradient_1d"}
_IDENTITY = operator_catalog()["identity"]
# a value away from its default for every slot
AWAY = {
    "T": _IDENTITY, "G": _IDENTITY, "U": _IDENTITY, "f": _IDENTITY,
    "U_family": (_IDENTITY,), "u_relax": (0.5,), "u_weights": (1.0,),
    "T_family": (_IDENTITY,), "t_relax": (0.5,), "t_weights": (1.0,),
    "A": LinearMap([[1.0]]), "B": LinearMap([[1.0]]), "C": WholeSpace(1), "Q": WholeSpace(1),
    "alpha": SequenceSpec.const(0.5), "beta": SequenceSpec.const(0.5),
    "lam": SequenceSpec.const(0.5), "gamma": 0.5, "gamma_seq": SequenceSpec.const(0.5),
    "mu": 0.5, "gamma_visc": 0.5, "branch_assignment": "swapped",
    "gamma_bound_choice": "lipschitz", "cut_cap": 5,
}


def test_every_slot_has_a_value_away_from_its_default():
    assert set(AWAY) == {f.name for f in fields(ProblemSpec) if f.init} - {
        "family", "reference_solution", "enforce_ranges"}
    assert set(READS) == set(FAMILIES) == set(PRESET)


@pytest.mark.parametrize("family", sorted(READS))
def test_a_slot_the_family_does_not_use_is_refused(family):
    record = FAMILIES[family]
    assert {*record.required, *record.optional} == READS[family]
    spec = catalog()[PRESET[family]].spec
    for slot in sorted(set(AWAY) - READS[family]):
        with pytest.raises(ValidationError, match=r"^%s: family '%s' does not use this slot$"
                           % (slot, family)):
            replace(spec, **{slot: AWAY[slot]})


def test_a_required_number_of_zero_is_a_range_not_a_missing_slot():
    spec = replace(catalog()["scfpp_smallS"].spec, gamma=0.0, enforce_ranges=False)
    assert spec.warnings == ("gamma = 0 outside (0, 1)",)
    with pytest.raises(ValidationError, match=r"^family 'scfpp' requires gamma$"):
        replace(spec, gamma=None)


def test_a_relaxation_weight_takes_the_range_form():
    # was "u_relax entries must lie in (0, 1)"
    spec = replace(catalog()["wq_t3"].spec, u_relax=(1.0,))
    assert spec.warnings == ("u_relax[0] = 1 outside (0, 1)",) + _LAM_WQ


_WQ_WITH_C = {"problem": dict(catalog()["wq_t3"].problem,
                              C={"box": {"lower": [100.0], "upper": [101.0]}}),
              "start": {"x": [5.0], "y": [5.0]}}


@pytest.mark.parametrize("doc, message", [
    # scfpep never projects: this C used to be ignored, and the run exited 0
    (_WQ_WITH_C, "problem.C: family 'scfpep' does not use this slot"),
    ({"problem": {"example": "scfpp_smallS"}, "flags": {"wq_branch": "swapped"}},
     "flags.wq_branch: branch_assignment: family 'scfpp' does not use this slot"),
], ids=["problem.C", "flags.wq_branch"])
def test_a_slot_the_family_does_not_use_exits_2_naming_it(tmp_path, capsys, doc, message):
    code, _, err = _run(tmp_path, capsys, doc)
    assert (code, err) == (2, "configuration error: %s\n" % message)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# sequence ranges, decided over every n


@pytest.mark.parametrize("seq, lo, hi, first", [
    (SequenceSpec.const(0.5), 0.0, 1.0, None),
    (SequenceSpec.const(1.0), 0.0, 1.0, (0, 1.0)),
    (SequenceSpec.table([0.5] * 100, 1.5), 0.0, 1.0, (100, 1.5)),
    (SequenceSpec.table([0.5, 2.0], 0.5), 0.0, 1.0, (1, 2.0)),
    (SequenceSpec.from_formula("1/(n+1)"), 0.0, 1.0, (0, 1.0)),
    # the limit 0 sits on the open bound, never reached
    (SequenceSpec.from_formula("1/(n+2)"), 0.0, 1.0, None),
    (SequenceSpec.from_formula("1+1/(n+1)^2"), 1.0, 3.0, None),
    # a limit past a bound: the first crossing, however far
    (SequenceSpec.from_formula("1/(n+2)"), 0.1, 1.0, (8, 0.1)),
    (SequenceSpec.from_formula("1+1/(n+1)^2"), 1.25, 3.0, (1, 1.25)),
    (SequenceSpec.from_formula("1/(n+1)^2"), 1e-12, 2.0, (999999, 1e-12)),
    (SequenceSpec.from_formula("1/(n+1)"), 1e-15, 2.0, (10 ** 15 - 1, 1e-15)),
])
def test_a_sequence_range_is_decided_over_every_n(seq, lo, hi, first):
    assert seq.first_outside(lo, hi) == first
    if first and first[0]:
        assert lo < seq(first[0] - 1) < hi


def test_a_table_is_decided_at_its_tail(tmp_path, capsys):
    # alpha(100) = 1.5 lies past the 100 values once sampled; lam = 0.1
    # lies in (0, 2/17), so alpha is the only parameter out of range
    problem = dict(catalog()["bnm_t1"].problem, alpha={"table": [0.5] * 100, "tail": 1.5},
                   lam={"constant": 0.1}, enforce_ranges=True)
    code, _, err = _run(tmp_path, capsys, {"problem": problem,
                                           "start": {"x": [10.0], "y": [15.0]}})
    assert (code, err) == (2, "configuration error: problem: alpha(n=100) = 1.5 "
                              "outside (0, 1)\n")


# ---------------------------------------------------------------------------
# class rows: the abstract states the sffpep, scfpep and extra-gradient
# results for quasi-nonexpansive maps

_PSEUDO = map_from_rule(Rational1D([0.0, -2.0]), WholeSpace(1), StrictlyPseudocontractive(0.5),
                        known_fixed_points=([0.0],))
_NOT_QNE = "StrictlyPseudocontractive(k=0.5) does not imply quasi_nonexpansive"


@pytest.mark.parametrize("preset, slot, value, warning", [
    ("bnm_t1", "U", _PSEUDO, "U: " + _NOT_QNE),
    ("bnm_t1", "T", _PSEUDO, "T: " + _NOT_QNE),
    ("wq_t3", "U_family", (_PSEUDO,), "U_family[0]: " + _NOT_QNE),
    ("wq_t3", "T_family", (_PSEUDO,), "T_family[0]: " + _NOT_QNE),
    ("extragradient_1d", "T", _PSEUDO, "T: " + _NOT_QNE),
    ("scfpp_smallS", "T", _PSEUDO, None),   # no class is stated for scfpp
])
def test_a_map_short_of_the_stated_class_is_a_warning(preset, slot, value, warning):
    spec = replace(catalog()[preset].spec, enforce_ranges=False, **{slot: value})
    if warning is None:
        assert spec.warnings == RANGE_WARNINGS[preset]
        return
    # the class rows come before the ranges: under enforce_ranges this
    # warning is the error
    assert spec.warnings == (warning,) + RANGE_WARNINGS[preset]
    with pytest.raises(ValidationError, match="^%s$" % re.escape(warning)):
        replace(spec, enforce_ranges=True)


@pytest.mark.parametrize("enforce", [True, False])
def test_an_sffpep_t_short_of_quasi_nonexpansive(tmp_path, capsys, enforce):
    T = {"num": [0.0, -2.0], "class": "strictly_pseudocontractive:0.5",
         "fixed_points": [0.0]}
    # lam = 0.1 lies in (0, 2/17), so the class row alone warns
    problem = dict(catalog()["bnm_t1"].problem, T=T, lam={"constant": 0.1},
                   enforce_ranges=enforce)
    code, out, err = _run(tmp_path, capsys, {"problem": problem,
                                             "start": {"x": [10.0], "y": [15.0]},
                                             "stopping": {"max_iters": 50}})
    if enforce:
        assert (code, err) == (2, "configuration error: problem.T: %s\n" % _NOT_QNE)
    else:
        assert (code, err) == (0, "")
        assert json.loads(out)["range_warnings"] == ["T: " + _NOT_QNE]
