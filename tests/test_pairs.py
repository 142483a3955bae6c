"""The summary arithmetic of ``tools/pairs.py``, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def test_quartiles_interpolate_between_order_statistics():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_summary_gives_medians_ratios_and_wins():
    parent = [{"wall_s": w, "iters_per_s": 1.0 / w} for w in (0.10, 0.12, 0.11, 0.10, 0.13)]
    change = [{"wall_s": w, "iters_per_s": 1.0 / w} for w in (0.09, 0.12, 0.10, 0.08, 0.10)]
    wall, rate = pairs.summarize(parent, change, METRICS)
    assert wall["parent"] == (0.10, 0.11, 0.12)
    assert wall["change"] == (0.09, 0.10, 0.10)
    assert wall["ratio"] == pytest.approx(0.10 / 0.11)
    # the second pair ties, and a tie counts for neither side
    assert (wall["won"], wall["pairs"]) == (4, 5)
    assert wall["worse"] == pytest.approx(-1.0 / 11.0) and not wall["over"]
    assert rate["ratio"] == pytest.approx(1.1)
    assert rate["won"] == 4
    assert rate["worse"] == pytest.approx(-0.1) and not rate["over"]


@pytest.mark.parametrize("better, new, over", [
    ("lower", 1.25, False), ("lower", 1.26, True),
    ("higher", 0.75, False), ("higher", 0.74, True)])
def test_a_median_is_over_its_bound_when_worse_by_more_than_the_bound(better, new, over):
    metric = [{"name": "m", "unit": "s", "better": better, "bound": 0.25}]
    (row,) = pairs.summarize([{"m": 1.0}] * 3, [{"m": new}] * 3, metric)
    assert row["over"] is over and row["won"] == 0
    assert over == ("WORSE THAN ITS BOUND" in pairs.format_rows([row]))
