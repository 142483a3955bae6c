"""``tools/probes.py`` prints one JSON line with a figure per probe and n."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "probes", Path(__file__).resolve().parent.parent / "tools" / "probes.py")
probes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probes)


def test_the_probes_print_one_json_line_keyed_by_n(capsys):
    assert probes.main(["--rotation", "3", "5", "--orthant", "4", "--synchronal", "6", "--repeats",
                        "1", "--rewrite", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert sorted(out["rotation_scfpp_s"]) == ["3", "5"]
    assert list(out["orthant_extragradient_ms_per_iter"]) == ["4"]
    assert all(v > 0.0 for v in out["rotation_scfpp_s"].values())
    assert list(out["synchronal_peak_bytes_per_row"]) == ["6"]
    assert out["synchronal_peak_bytes_per_row"]["6"] > 0.0
    rewrite = out["rewrite_run_s"]
    assert rewrite["same_dir"] > 0.0 and rewrite["fresh_dir"] > 0.0 and rewrite["ratio"] > 0.0
    assert out["rewrite"] == 2 and out["repeats"] == 1 and out["python"] and out["numpy"]
