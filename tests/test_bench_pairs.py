"""tools/bench_pairs.py's summary, on made-up pairs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_gives_the_calibration_ratio_next_to_each_metric():
    """Each metric's entry carries the workload's median calibration_s
    ratio, change over parent, beside its own median ratio."""
    pairs = [{"parent": {"ops_per_s": p, "wall_s": 1.0, "calibration_s": cp},
              "change": {"ops_per_s": c, "wall_s": 0.5, "calibration_s": cc}}
             for p, c, cp, cc in ((100, 190, 0.2, 0.3), (110, 200, 0.4, 0.5),
                                  (90, 210, 0.3, 0.3))]
    summary = _bench_pairs().summarize(pairs, {"ops_per_s": "higher", "wall_s": "lower"})
    for name, ratio in (("ops_per_s", 2.0), ("wall_s", 0.5)):
        assert summary[name]["median_ratio_change_over_parent"] == ratio
        assert summary[name]["calibration_ratio_change_over_parent"] == 1.0
        assert summary[name]["change_better_pairs"] == 3
