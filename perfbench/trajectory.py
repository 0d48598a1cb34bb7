"""Append one point to perfbench/trajectory.json from the run records in perfbench/out/.

    python3 perfbench/trajectory.py --label LABEL

Run from the root of the checkout that was measured. Only records made at
its current commit and on its current source are used; records left in
perfbench/out/ by other code are skipped and counted on stderr. A point
holds, per workload, every run's metric values (untraced runs for the
end-to-end metrics, traced runs for the per-layer ones), their median and
quartiles, and each run's seed, so later changes can compare pair by pair
against it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import common
import run

TRAJECTORY_PATH = common.HERE / "trajectory.json"


def point(label: str, root: Path, records_dir: Path = run.OUT_DIR) -> dict:
    env = run.environment(root)
    records, skipped = [], 0
    for path in sorted(records_dir.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if (rec["env"]["commit"], rec["env"]["source_sha256"]) == (env["commit"], env["source_sha256"]):
            records.append(rec)
        else:
            skipped += 1
    if skipped:
        print(f"skipped {skipped} run records made at another commit or on other source", file=sys.stderr)
    if not records:
        raise SystemExit(f"no run records of commit {env['commit']} in {records_dir}")
    workloads: dict[str, dict] = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        kind = "per_layer" if rec["trace"] else "end_to_end"
        entry = workloads.setdefault(rec["workload"], {}).setdefault(kind, {"seeds": [], "metrics": {}})
        entry["seeds"].append(rec["seed"])
        for name, m in rec["result"]["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": m["unit"], "runs": []})["runs"].append(m["value"])
    for per_kind in workloads.values():
        for entry in per_kind.values():
            for m in entry["metrics"].values():
                m["median"] = statistics.median(m["runs"])
                m["q1"], m["q3"] = run.quartiles(m["runs"])
    rec_env = records[0]["env"]
    return {"label": label, "commit": env["commit"], "source_sha256": env["source_sha256"],
            "env": {k: rec_env[k] for k in ("nproc", "cpu_model", "python", "versions")},
            "workloads": workloads}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    try:
        with open(TRAJECTORY_PATH, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    except FileNotFoundError:
        trajectory = []
    trajectory.append(point(args.label, Path.cwd()))
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
