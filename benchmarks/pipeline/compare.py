"""Compare two sets of pipeline-benchmark runs, one verdict per metric.

    python3 benchmarks/pipeline/compare.py A.json B.json

*A* is the baseline and *B* the candidate; each is a file written by
``run.py --out`` (a set of runs, or a single run).  For every workload
present in both and every end-to-end metric of ``BENCHMARK.json`` the
change is B's median against A's or, when both sides ran the same seeds,
the median of the per-seed changes.  The verdict is one of:

* ``regressed``  -- the change is worse than the bound;
* ``improved``   -- the change is better than the bound;
* ``unchanged``  -- the change is within the bound;
* ``unresolved`` -- the noise (each side's IQR / median, or the IQR of
  the per-seed changes) is wider than the bound, so the data cannot
  tell, unless every run of B is better (or, when worse by more than
  the bound, every run is worse) than A.

Exit status 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from run import BENCH_FILE, spread


def load_runs(path: str) -> Dict[str, Dict[str, Dict[int, float]]]:
    """workload -> metric -> {seed: value}, from a run set or one run."""
    data = json.loads(Path(path).read_text())
    table: Dict[str, Dict[str, Dict[int, float]]] = {}
    for report in data.get("runs", [data]):
        per = table.setdefault(report["workload"], {})
        for name, metric in report["metrics"].items():
            per.setdefault(name, {})[report["seed"]] = metric["value"]
    return table


def judge(base: Dict[int, float], cand: Dict[int, float], bound: float,
          lower_is_better: bool) -> dict:
    """Change, noise and verdict of one metric.

    When both sides ran the same seeds the runs are paired: each seed's
    relative change cancels the host drift its two runs shared, and the
    noise is the IQR of those changes.  Otherwise the medians are
    compared and the noise is the wider side's IQR/median.
    """
    sign = 1.0 if lower_is_better else -1.0  # sign * change > 0: worse
    if len(base) > 1 and base.keys() == cand.keys():
        changes = [cand[s] / base[s] - 1.0 for s in base]
        change = statistics.median(changes)
        q1, _, q3 = statistics.quantiles(changes, n=4)
        noise = q3 - q1
        all_worse = min(sign * c for c in changes) > 0.0
        all_better = max(sign * c for c in changes) < 0.0
    else:
        a, b = list(base.values()), list(cand.values())
        change = statistics.median(b) / statistics.median(a) - 1.0
        noise = max(spread(a), spread(b))
        all_worse = min(sign * v for v in b) > max(sign * v for v in a)
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
    worse = sign * change
    if noise > bound:
        if all_better:
            result = "improved"
        elif all_worse and worse > bound:
            result = "regressed"
        else:
            result = "unresolved"
    elif worse > bound:
        result = "regressed"
    elif -worse > bound:
        result = "improved"
    else:
        result = "unchanged"
    return {"change": change, "spread": noise, "verdict": result}


def compare(base_path: str, cand_path: str) -> List[dict]:
    bench = json.loads(BENCH_FILE.read_text())
    base, cand = load_runs(base_path), load_runs(cand_path)
    rows = []
    for workload in [w for w in base if w in cand]:
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a, b = base[workload].get(name), cand[workload].get(name)
            if not a or not b:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "base": statistics.median(a.values()),
                "cand": statistics.median(b.values()),
                "bound": spec["bound"],
                **judge(a, b, spec["bound"], spec["better"] == "lower"),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="baseline run file (A)")
    parser.add_argument("cand", help="candidate run file (B)")
    parser.add_argument("--json", action="store_true",
                        help="print the verdict rows as JSON")
    args = parser.parse_args(argv)
    rows = compare(args.base, args.cand)
    if args.json:
        print(json.dumps(rows, indent=1))
    else:
        for row in rows:
            print(f"{row['workload']:12s} {row['metric']:12s} "
                  f"{row['base']:.6g} -> {row['cand']:.6g} {row['unit']} "
                  f"({row['change']:+.1%}, spread {row['spread']:.1%}, "
                  f"bound {row['bound']:.0%}): {row['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
