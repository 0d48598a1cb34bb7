"""Workload definitions, program-seed choice and the seed-commit oracle.

Shared by run.py (the benchmark), child.py (one measured process) and
record_oracle.py (re-records the expected report digests).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE / "spec.json"
ORACLE_PATH = HERE / "oracle.json"

# BLAS/OpenMP pools capped at one thread in every measured process, so a
# run's CPU use is the program's own and pool workers do not oversubscribe.
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_oracle() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers_for(workload: dict) -> int:
    """Pool workers for a workload: its declared maximum, at most nproc."""
    return min(workload.get("max_workers", 1), nproc())


def _fill(token: str, seed: int, workers: int) -> str:
    return token.replace("{S}", str(seed)).replace("{workers}", str(workers))


def cli_argv(workload: dict, seed: int, workers: int) -> list[str]:
    """The poset-secretary argv of one repetition with program seed `seed`."""
    return [_fill(tok, seed, workers) for tok in workload["argv"]]


def source_spec(workload: dict, seed: int) -> str:
    """The generator spec the set-up phase builds."""
    return _fill(workload["source"], seed, 1)


def program_seeds(name: str, run_seed: int, pool: int):
    """Endless program-seed stream of one run: a pure function of (name, run_seed)."""
    rng = random.Random(f"{name}:{run_seed}")
    while True:
        yield rng.randrange(pool)


def child_env(root: Path) -> dict:
    """Environment of every measured process: the checkout's src first, thread caps on."""
    env = dict(os.environ)
    env.pop("POSET_SECRETARY_WORKERS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_CAPS)
    return env


def git_commit(root: Path) -> str | None:
    """The commit checked out at `root`, or None outside a git repository."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def quantiles(values, n: int) -> list[float]:
    """The n-1 cut points of `values` (inclusive method: within their range).

    One value gives itself at every cut; no values give zeros.
    """
    if len(values) < 2:
        return [values[0] if values else 0.0] * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(oracle: dict, name: str, seed: int, stdout_sha256: str, exit_code: int) -> str | None:
    """None when (stdout digest, exit code) equals the seed commit's; else why not."""
    want = oracle["workloads"].get(name, {}).get(str(seed))
    if want is None:
        return f"no recorded output for {name} seed {seed}"
    if exit_code != want["exit"]:
        return f"exit code {exit_code}, seed commit gave {want['exit']}"
    if stdout_sha256 != want["sha256"]:
        return f"stdout sha256 {stdout_sha256[:12]}, seed commit gave {want['sha256'][:12]}"
    return None
