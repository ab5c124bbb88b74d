"""tools/benchpairs.py summarizes paired bench runs.

The bench runs themselves take seconds each, so these tests feed the
summary and the abtime digest made-up pairs and a made-up abtime file.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_counts_wins_in_each_metric_direction():
    tool = load_tool()
    # verify_s falls in 9 of 10 pairs, far beyond the against side's IQR;
    # ops_per_s rises in every pair but by less than that IQR.
    pairs = [{"verify_s": [1.0 + 0.01 * k, 0.3 if k else 1.5],
              "ops_per_s": [10.0 + k, 10.5 + k]} for k in range(10)]
    out = tool.summarize(pairs, {"verify_s": "lower",
                                 "ops_per_s": "higher"})
    v, o = out["verify_s"], out["ops_per_s"]
    assert (v["pairs_won"], v["pairs"], v["resolved"]) == (9, 10, True)
    assert v["median_this"] == 0.3 and v["change"] < -0.7
    assert (o["pairs_won"], o["resolved"]) == (10, False)
    assert o["iqr_frac_against"] > o["change"] > 0.0


def test_abtime_digest_keeps_ratio_wins_and_best_times(tmp_path):
    tool = load_tool()
    row = {"median_ratio": 0.2, "rounds_won": 40, "rounds": 40,
           "best_us": {"this": 200.0, "against": 1000.0},
           "ratios": [0.2] * 40, "us": {"this": [], "against": []}}
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({"commits": {"this": "a", "against": "b"},
                                "rounds": 40,
                                "rows": {"x/global_error": row}}))
    assert tool.abtime_summary(path) == {
        "commits": {"this": "a", "against": "b"}, "rounds": 40,
        "rows": {"x/global_error": {"median_ratio": 0.2, "rounds_won": 40,
                                   "best_us_this": 200.0,
                                   "best_us_against": 1000.0}}}
