"""One measured process: set up, run `cli.main(argv)` once, write what was measured.

    python3 perfbench/child.py CONFIG_JSON T0

T0 is time.monotonic() in the parent just before it started this process
(CLOCK_MONOTONIC is shared by all processes). CONFIG_JSON names `mode`
("setup" stops after building the poset, "run" also runs the CLI), `trace`
(0 or 1), `source`, `argv`, `out` (where the result JSON goes) and
`trace_dir` (where traced pool workers write their spans).

The report the CLI writes to stdout is captured in memory and reduced to its
sha256, so the process's own stdout carries nothing.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time


def measure(cfg: dict) -> dict:
    t_import = time.monotonic()
    import poset_secretary
    from poset_secretary import cli, families

    t_build = time.monotonic()
    families.parse_generator_spec(cfg["source"]).build()
    t_built = time.monotonic()
    out = {
        "setup_s": t_built - cfg["t0"],
        "import_s": t_build - t_import,
        "build_s": t_built - t_build,
        "package_file": poset_secretary.__file__,
    }
    if cfg["mode"] == "setup":
        import numpy
        import scipy

        out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                           "poset_secretary": poset_secretary.__version__}
        return out
    result = run_cli(cli, cfg)
    if "layers" in result:
        result["layers"]["setup.import_s"] = out["import_s"]
        result["layers"]["families.build_s"] = out["build_s"]
    out.update(result)
    return out


def run_cli(cli, cfg: dict) -> dict:
    """Run cli.main once; with trace on, wrap the layers first and unwrap after."""
    tracer = undo = None
    if cfg["trace"]:
        import tracing  # only traced processes load the tracer

        tracer = tracing.Tracer(cfg.get("run_id", "run"), cfg["trace_dir"])
        undo = tracing.install(tracer)
    main = cli.main  # looked up after install, so traced runs get the wrapper

    buf = io.StringIO()
    saved = sys.stdout
    sys.stdout = buf
    ru_self0 = resource.getrusage(resource.RUSAGE_SELF)
    ru_kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    w0 = time.perf_counter()
    try:
        code = main(cfg["argv"])
    except SystemExit as exc:  # argparse rejects its input
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        wall = time.perf_counter() - w0
        sys.stdout = saved
        if undo is not None:
            tracing.uninstall(undo)
    ru_self = resource.getrusage(resource.RUSAGE_SELF)
    ru_kids = resource.getrusage(resource.RUSAGE_CHILDREN)

    cpu = sum(getattr(b, f) - getattr(a, f)
              for a, b in ((ru_self0, ru_self), (ru_kids0, ru_kids))
              for f in ("ru_utime", "ru_stime"))
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(ru_self.ru_maxrss, ru_kids.ru_maxrss) / 1024.0,  # KiB on Linux
        "exit": int(code),
        "stdout_sha256": hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest(),
    }
    if tracer is not None:
        spans = tracer.collect()
        result["layers"] = tracing.layer_metrics(spans, os.getpid(), cpu)
        result["spans"] = spans
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["t0"] = float(sys.argv[2])
    out = measure(cfg)
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
