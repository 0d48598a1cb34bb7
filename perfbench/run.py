"""The benchmark of the poset-secretary CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1

Run from the root of a checkout. A run measures one workload (see
perfbench/spec.json; `all` runs each in turn, one at a time). Every
repetition is a fresh process (perfbench/child.py) that imports the package
from the checkout's `src`, builds the poset, and runs `cli.main(argv)` once.
Repetitions start until T seconds have passed; each picks its program seed
from the seed pool with a generator seeded by (workload, N), so a run's
inputs are a pure function of N. Each report's stdout digest and exit code
must equal the ones recorded at the seed commit in perfbench/oracle.json.

--trace 0 prints the end-to-end metrics: medians over the repetitions, and
for set-up over at least nine fresh processes. --trace 1 alternates
untraced and traced repetitions and prints the per-layer metrics of the
traced ones (medians), with the tracing overhead against the untraced ones.
The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics. The full run record, with every repetition's raw
values and every traced repetition's spans, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

OUT_DIR = common.HERE / "out"
MIN_SETUP_SAMPLES = 9
RUN_LIMIT_S = 165.0  # every run, set-up probes included, ends well within 180 s


class Abort(Exception):
    """The run cannot measure anything: exit non-zero, print no result."""


def load_benchmark(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise Abort(f"{path} not found: run from the root of a checkout")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout(root: Path) -> None:
    if not (root / "src" / "poset_secretary" / "__init__.py").is_file():
        raise Abort(f"no src/poset_secretary under {root}: nothing to measure")


class Spawner:
    """Starts measured processes one at a time and waits for each."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = common.child_env(root)
        self.tmp = OUT_DIR / f"tmp-{os.getpid()}"
        self.count = 0

    def __enter__(self):
        self.tmp.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, cfg: dict) -> tuple[dict | None, str | None]:
        """(measurement, None) or (None, why the process failed)."""
        self.count += 1
        work = self.tmp / str(self.count)
        work.mkdir()
        cfg = dict(cfg, out=str(work / "result.json"), trace_dir=str(work), run_id=str(self.count))
        cfg_path = work / "config.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(common.HERE / "child.py"), str(cfg_path), repr(t0)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,  # its own process group, so a kill also reaches pool workers
        )
        try:
            _, err = proc.communicate(timeout=max(5.0, self.time_left()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, "timed out"
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return None, f"exit {proc.returncode}: {tail[0]}"
        with open(cfg["out"], encoding="utf-8") as fh:
            out = json.load(fh)
        src = (self.root / "src").resolve()
        if not Path(out["package_file"]).resolve().is_relative_to(src):
            raise Abort(f"measured process imported {out['package_file']}, not the checkout's src")
        return out, None


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float]:
    q = common.quantiles(values, 4)
    return q[0], q[2]


def environment(root: Path) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = sorted((root / "src" / "poset_secretary").glob("*.py"))
    source_digest = common.digest(b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in src))
    return {"nproc": common.nproc(), "cpu_model": cpu_model, "python": platform.python_version(),
            "platform": platform.platform(), "commit": common.git_commit(root),
            "source_sha256": source_digest}


def measure_workload(root: Path, name: str, run_seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for `seconds`; returns the run record."""
    spec = common.load_spec()
    try:
        oracle = common.load_oracle()
    except FileNotFoundError as exc:
        raise Abort(f"no recorded seed-commit outputs ({exc.filename}); run perfbench/record_oracle.py") from exc
    wl = spec["workloads"][name]
    workers = common.workers_for(wl)
    seeds = common.program_seeds(name, run_seed, spec["seed_pool"])
    record = {"workload": name, "seed": run_seed, "seconds": seconds, "trace": int(trace),
              "workers": workers, "started_unix": time.time(), "loadavg_before": os.getloadavg(),
              "env": environment(root)}
    reps, setups = [], []
    with Spawner(root, time.monotonic() + RUN_LIMIT_S) as spawner:
        # untimed: compiles bytecode and fills the page cache, which users do not pay per run
        warm, why = spawner.run({"mode": "setup", "trace": 0, "source": common.source_spec(wl, 0)})
        if warm is None:
            raise Abort(f"set-up failed: {why}")
        record["env"]["versions"] = warm["versions"]

        t_begin = time.monotonic()
        last_rep_s = 0.0
        while True:
            traced = trace and len(reps) % 2 == 1  # traced runs alternate with untraced ones
            s = next(seeds)
            t_rep = time.monotonic()
            cfg = {"mode": "run", "trace": int(traced), "source": common.source_spec(wl, s),
                   "argv": common.cli_argv(wl, s, workers)}
            out, why = spawner.run(cfg)
            last_rep_s = time.monotonic() - t_rep
            rep = {"program_seed": s, "traced": traced}
            if out is None:
                rep.update(ok=False, reason=why)
            else:
                why = common.check_output(oracle, name, s, out["stdout_sha256"], out["exit"])
                rep.update(ok=why is None, reason=why, exit=out["exit"], stdout_sha256=out["stdout_sha256"],
                           **{k: out[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")})
                rep["throughput_per_s"] = wl["work"] / out["wall_s"]
                if traced:
                    rep["layers"] = out["layers"]
                    rep["spans"] = out["spans"]
                else:
                    setups.append(out["setup_s"])
            reps.append(rep)
            elapsed = time.monotonic() - t_begin
            enough = elapsed >= seconds and (not trace or len(reps) >= 2)
            if enough or spawner.time_left() < 2 * last_rep_s:
                break
        while not trace and len(setups) < MIN_SETUP_SAMPLES and spawner.time_left() > 10.0:
            out, why = spawner.run({"mode": "setup", "trace": 0,
                                    "source": common.source_spec(wl, next(seeds))})
            if out is None:
                raise Abort(f"set-up failed: {why}")
            setups.append(out["setup_s"])
    record["loadavg_after"] = os.getloadavg()
    record["reps"] = reps
    record["setup_samples"] = setups
    return record


def summarize(record: dict, declared: list[dict]) -> dict:
    """The result object of a run record: correct, attempted, failed, metrics.

    Also stores the raw values behind each median in the record, as `raw`.
    """
    reps = record["reps"]
    timed = [r for r in reps if "wall_s" in r and not r["traced"]]
    if not timed:
        raise Abort("no repetition completed: " + "; ".join(str(r.get("reason")) for r in reps))
    failed = sum(1 for r in reps if not r["ok"])
    values: dict[str, list[float]] = {}
    if record["trace"]:
        traced = [r for r in reps if "layers" in r]
        if not traced:
            raise Abort("no traced repetition completed")
        for r in traced:
            for k, v in r["layers"].items():
                values.setdefault(k, []).append(v)
        untraced_wall = median([r["wall_s"] for r in timed])
        values["trace.overhead_frac"] = [median([r["wall_s"] for r in traced]) / untraced_wall - 1.0]
    else:
        for k in ("wall_s", "cpu_s", "throughput_per_s", "peak_rss_mb"):
            values[k] = [r[k] for r in timed]
        values["setup_s"] = record["setup_samples"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {name: {"value": median(values.get(name, [])), "unit": units[name]} for name in units}
    record["raw"] = values
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}


def report_lines(record: dict, result: dict) -> list[str]:
    raw = record["raw"]
    lines = [f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
             f"{result['attempted']} runs, program seeds {[r['program_seed'] for r in record['reps']]}"]
    for name, m in result["metrics"].items():
        vals = raw.get(name, [])
        q1, q3 = quartiles(vals)
        lines.append(f"{name} = {m['value']!r} {m['unit']} (median of {len(vals)}; q1 {q1!r}, q3 {q3!r})")
    lines.append(f"failed_frac = {result['failed'] / result['attempted']!r} "
                 f"({result['failed']} of {result['attempted']} runs differ from the seed commit's report)")
    for r in record["reps"]:
        if not r["ok"]:
            lines.append(f"failed run: program seed {r['program_seed']}: {r['reason']}")
    return lines


def run(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = load_benchmark(root)
    check_checkout(root)
    record = measure_workload(root, name, seed, seconds, trace)
    result = summarize(record, bench["per_layer"] if trace else bench["end_to_end"])
    record["result"] = result
    for line in report_lines(record, result):
        print(line)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{name}.seed{seed}.trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="poset-secretary CLI benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        names = list(common.load_spec()["workloads"])
        if args.workload != "all" and args.workload not in names:
            raise Abort(f"unknown workload {args.workload!r}; one of {names} or all")
        if not (math.isfinite(args.seconds) and args.seconds > 0):
            raise Abort("--seconds must be positive")
        for name in names if args.workload == "all" else [args.workload]:
            result = run(root, name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
