"""The stress harness ``tools/stress.py``: one case and the comparison."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "stress.py"
_spec = importlib.util.spec_from_file_location("stress", _PATH)
stress = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stress)


def test_the_grid_has_540_distinct_cases():
    labels = [stress.label(case) for case in stress.cases()]
    assert len(labels) == len(set(labels)) == 540


def test_one_benign_case_and_the_comparison(tmp_path):
    case = {"nr": 8, "nphi": 32, "D": 0.5, "k": 0.9, "cap": 0.05, "max_iter": 5,
            "perturb": 0.0}
    rec = stress.run_case(case)
    assert rec["case"] == "8x32 D=0.5 k=0.9 cap=k+0.05 max_iter=5 perturb=0"
    assert rec["status"] == "converged" and rec["error"] is None
    assert float.fromhex(rec["tau"]) == 1.0
    assert rec["newton_steps"] > 0 and len(rec["f_sha256"]) == 64
    assert rec == stress.run_case(case)  # a rerun is bitwise the same

    other = {**rec, "case": "other"}
    path = tmp_path / "a.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in (rec, other)))
    a = stress.read(path)
    assert stress.compare(a, stress.read(path)) == []
    assert stress.main(["compare", str(path), str(path)]) == 0

    altered = dict(a, other={**other, "tau": (0.85).hex()})
    assert stress.compare(a, altered) == ["other"]
    assert stress.compare(a, {rec["case"]: rec}) == ["other"]  # a missing case differs
    changed = tmp_path / "b.jsonl"
    changed.write_text("".join(json.dumps(r) + "\n" for r in altered.values()))
    assert stress.main(["compare", str(path), str(changed)]) == 1


def test_the_nested_grid_has_96_distinct_cases():
    labels = [stress.label(case) for case in stress.nested_cases()]
    assert len(labels) == len(set(labels)) == 96


def test_one_nested_case_runs_the_cli_on_three_levels():
    case = {"nr": 64, "nphi": 256, "D": 0.5, "k": 0.9, "cap": 0.05, "perturb": 0.0}
    rec = stress.run_nested_case(case)
    assert rec["case"] == "64x256 D=0.5 k=0.9 cap=k+0.05 perturb=0"
    assert rec["exit_code"] == 0 and rec["status"] == "converged"
    assert [level["start"] for level in rec["levels"]] == ["continuation", "prolonged",
                                                          "prolonged"]
    assert all(level["newton_total"] > 0 for level in rec["levels"])
    assert len(rec["solution_sha256"]) == 64
    assert rec == stress.run_nested_case(case)  # a rerun is bitwise the same
