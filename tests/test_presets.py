"""Named configurations: validation, pinned rows, and catalog export."""

import dataclasses
import json

import pytest

from splitfp.config import build_spec_from_config
from splitfp.presets import DERIVED, TABULATED, ExpectedRow, catalog, get_example, run_example


def test_catalog_ids_unique_and_complete():
    examples = catalog()
    assert set(examples) == {
        "bnm_t1", "bnm_t2", "wq_t3", "wq_t4", "scfpp_smallS",
        "adaptive_demo", "synchronal_demo", "extragradient_1d",
    }
    for ex_id, ex in examples.items():
        assert ex.id == ex_id


def test_every_spec_constructs_and_carries_provenance():
    # construction already ran validation; each preset's range warnings are
    # pinned in test_hypotheses.py
    for ex in catalog().values():
        for row in ex.expected:
            assert row.provenance in (TABULATED, DERIVED)


def test_expected_row_validation():
    with pytest.raises(ValueError):
        ExpectedRow(0, (1.0, 2.0), (1e-6,), TABULATED)
    with pytest.raises(ValueError):
        ExpectedRow(0, (1.0,), (1e-6,), "guessed")


@pytest.mark.parametrize("ex_id", sorted(catalog()))
def test_tabulated_rows_reproduce(ex_id):
    ex = get_example(ex_id)
    if not ex.expected:
        pytest.skip("no pinned rows")
    from splitfp.problems import StoppingRule

    needed = max(row.n for row in ex.expected)
    trace = run_example(ex_id, rule=StoppingRule(max_iters=max(needed, 1)))
    for row in ex.expected:
        rec = trace.records[row.n]
        got = (rec.x[0],) if len(row.values) == 1 else (rec.x[0], rec.y[0])
        for g, want, tol in zip(got, row.values, row.tolerances):
            assert abs(g - want) <= tol, (ex_id, row.n, want, g)


def test_catalog_export_is_structured():
    docs = [ex.to_doc() for ex in catalog().values()]
    for doc in docs:
        assert set(doc) == {"id", "family", "starts", "max_iters",
                            "expected_rows", "notes"}
        for row in doc["expected_rows"]:
            assert set(row) == {"n", "values", "tolerances", "provenance"}


def test_examples_are_shared_and_frozen():
    ex = get_example("wq_t3")
    assert get_example("wq_t3") is ex
    with pytest.raises(dataclasses.FrozenInstanceError):
        ex.spec.branch_assignment = "as_printed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        ex.default_rule.max_iters = 1
    with pytest.raises(TypeError):
        catalog()["wq_t3"] = ex
    assert ex.spec.branch_assignment == "swapped"


def test_an_edit_of_a_problem_document_reaches_no_preset():
    # bnm_t1 and bnm_t2 are built from one document
    get_example("bnm_t1").problem["lam"] = {"constant": 1.0}
    for ex_id in ("bnm_t1", "bnm_t2"):
        ex = get_example(ex_id)
        assert ex.problem["lam"] == {"constant": 0.0}
        assert build_spec_from_config(ex.problem).lam == ex.spec.lam
    for ex in catalog().values():
        assert json.loads(json.dumps(ex.problem, allow_nan=False)) == ex.problem


def test_get_example_unknown_id():
    with pytest.raises(KeyError):
        get_example("bnm_t9")
