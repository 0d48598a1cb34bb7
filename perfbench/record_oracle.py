"""Record the expected stdout digest and exit code of every workload and program seed.

Run from the repo root at the commit whose reports are the reference:

    python3 perfbench/record_oracle.py [--workload NAME ...]

Each entry comes from the real command line, `python3 -m poset_secretary.cli
ARGV`, in a fresh process, not from the benchmark's in-process capture, so
the benchmark's capture is checked against it. Each workload's digests are
stored with the commit they were recorded at. A change that is meant to
alter report bytes re-records the digests in its own benchmark change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common


def record(root: Path, names: list[str]) -> dict:
    spec = common.load_spec()
    try:
        oracle = common.load_oracle()
    except FileNotFoundError:
        oracle = {"workloads": {}}
    env = common.child_env(root)
    commit = common.git_commit(root)
    for name in names:
        wl = spec["workloads"][name]
        entries = {}
        for seed in range(spec["seed_pool"]):
            argv = common.cli_argv(wl, seed, common.workers_for(wl))
            proc = subprocess.run(
                [sys.executable, "-m", "poset_secretary.cli", *argv],
                cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
            )
            if proc.returncode not in (0, 1):
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            entries[str(seed)] = {"sha256": common.digest(proc.stdout), "exit": proc.returncode}
            print(f"{name} S={seed} exit={proc.returncode} {entries[str(seed)]['sha256'][:16]}", flush=True)
        oracle["workloads"][name] = entries
        oracle.setdefault("commits", {})[name] = commit
    return oracle


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="workload to record (default: all)")
    args = ap.parse_args()
    root = Path.cwd()
    names = args.workload or list(common.load_spec()["workloads"])
    oracle = record(root, names)
    with open(common.ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
