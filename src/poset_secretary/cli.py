"""Command-line front end: poset I/O, experiment orchestration, reports.

Subcommands
    simulate   Monte Carlo success probability of the threshold strategy
    exact-mu   exact greedy-maximum distribution (and mu_t at a given t)
    verify     statistical / exact checks of the strategy's distributional laws
    sweep      success estimates across a list of thresholds

Poset sources are either generator specs (chain:20, antichain:5, wedge,
boolean:3, forest:2,3,4, random:8:0.3:42) or paths to poset text files.

Reports embed the command, every semantic parameter (seeds included) and the
toolkit version, so re-running the embedded command reproduces the bytes.
Worker count is deliberately not a parameter of the output: results are
identical for any parallel layout.

Exit codes: 0 ok / checks passed, 1 verification failure, 2 source parse
error, 3 invalid parameter, 4 over the size cap of every command (n <= 64,
one bit per element in the tag kernel).  A source over it is refused before
its relation is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .errors import (
    CycleError,
    EmptyPosetError,
    GeneratorSpecError,
    NotMaximalError,
    PosetFileError,
    SourceError,
    TooLargeError,
    ZeroTrialsError,
)
from .engine import check_sim_cap
from .families import parse_generator_spec
from .greedy import mu_exact
from .montecarlo import (
    ALPHA_DEFAULT,
    LEMMAS,
    TRIALS_DEFAULT,
    estimate_success,
    threshold_sweep,
    verify_lemmas,
)
from .posetfile import parse_poset_relations
from .posets import Poset, from_relations
from .simulate import TAU_DEFAULT

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_BAD_PARAM = 3
EXIT_OVER_CAP = 4

_FAMILIES = ("chain", "antichain", "wedge", "boolean", "forest", "random")


def _load_poset(source: str) -> Poset:
    """Resolve a source: generator specs win over file paths."""
    family = source.split(":", 1)[0]
    if family in _FAMILIES:
        spec = parse_generator_spec(source)
        check_sim_cap(spec.n)
        return spec.build()
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SourceError(f"cannot read poset file {source!r}: {exc}") from exc
        n, pairs = parse_poset_relations(text)
        check_sim_cap(n)
        try:
            return from_relations(n, pairs)
        except (CycleError, IndexError, ValueError) as exc:
            # bad indices, cycles, or an empty header are content problems
            raise PosetFileError(f"{source}: {exc}") from exc
    raise SourceError(
        f"{source!r} is neither a known generator spec ({', '.join(_FAMILIES)}) nor a file"
    )


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _json_report(command: str, params: dict, results) -> str:
    doc = {"command": command, "version": __version__, "params": params, "results": results}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _estimate_dict(est) -> dict:
    return {
        "successes": est.successes,
        "trials": est.trials,
        "p_hat": est.p_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "tau": est.tau,
        "seed": est.master_seed,
        "confidence": est.confidence,
    }


def _report_dict(rep) -> dict:
    return {
        "statistic": rep.statistic,
        "observed": rep.observed,
        "reference": rep.reference,
        "p_value": rep.p_value,
        "passed": rep.passed,
        "sample_size": rep.sample_size,
    }


_SWEEP_HEADER = "tau,p_hat,ci_low,ci_high,trials,seed"


def _estimates_csv(estimates) -> str:
    lines = [_SWEEP_HEADER]
    for e in estimates:
        lines.append(f"{e.tau!r},{e.p_hat!r},{e.ci_low!r},{e.ci_high!r},{e.trials},{e.master_seed}")
    return "\n".join(lines) + "\n"


def _reports_csv(reports) -> str:
    lines = ["statistic,observed,reference,p_value,passed,sample_size"]
    for r in reports:
        pv = "" if r.p_value is None else repr(r.p_value)
        ref = r.reference if isinstance(r.reference, str) else repr(r.reference)
        lines.append(f'{r.statistic},{r.observed!r},"{ref}",{pv},{r.passed},{r.sample_size}')
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poset-secretary",
        description="Threshold-strategy simulation and verification for partially ordered secretaries.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(sp, trials=True):
        sp.add_argument("source", help="generator spec (e.g. chain:20, random:8:0.3:42) or poset file path")
        sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        if trials:
            sp.add_argument("--trials", type=int, default=TRIALS_DEFAULT,
                            help=f"Monte Carlo trials (default {TRIALS_DEFAULT})")
        sp.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt",
                        help="report format (default json)")
        sp.add_argument("--workers", type=int, default=None,
                        help="parallel workers (default: $POSET_SECRETARY_WORKERS or 1); results do not depend on it")

    sp = sub.add_parser("simulate", help="estimate the strategy's success probability")
    common(sp)
    sp.add_argument("--tau", type=float, default=TAU_DEFAULT,
                    help="rejection threshold in [0,1) (default 1/e)")

    sp = sub.add_parser("exact-mu", help="exact greedy-maximum distribution")
    common(sp, trials=False)
    sp.add_argument("--t", default=None,
                    help="also report mu_t per maximal element at this rational t (e.g. 1/2)")

    sp = sub.add_parser("verify", help="verify the strategy's distributional laws")
    common(sp)
    sp.add_argument("--lemma", choices=(*LEMMAS, "all"), default="all",
                    help="2: tag marginals+independence; 3: last-tag uniformity; "
                         "4: pinned-arrival tag probability vs exact mu_t; "
                         "5: exact mu_t >= mu monotonicity (default all)")
    sp.add_argument("--alpha", type=float, default=ALPHA_DEFAULT,
                    help=f"per-test significance level (default {ALPHA_DEFAULT})")

    sp = sub.add_parser("sweep", help="success estimates across thresholds")
    common(sp)
    sp.add_argument("--taus", required=True,
                    help="comma-separated thresholds, each in [0,1)")

    return parser


def _cmd_simulate(args) -> int:
    p = _load_poset(args.source)
    est = estimate_success(p, args.tau, args.trials, args.seed, workers=args.workers)
    command = (f"poset-secretary simulate {args.source} --tau {args.tau!r} "
               f"--trials {args.trials} --seed {args.seed} --format {args.fmt}")
    if args.fmt == "csv":
        _emit(_estimates_csv([est]))
    else:
        params = {"source": args.source, "tau": args.tau, "trials": args.trials, "seed": args.seed}
        _emit(_json_report(command, params, _estimate_dict(est)))
    return EXIT_OK


def _cmd_exact_mu(args) -> int:
    p = _load_poset(args.source)
    table = mu_exact(p)
    t = None
    if args.t is not None:
        try:
            t = Fraction(args.t)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"--t must be a rational like 1/2 or 0.5: {exc}") from exc
    rows = []
    for x in range(p.n):
        row = {"element": x, "mu": str(table[x])}
        if t is not None and x in p.maximal:
            row["mu_t"] = str(table.mu_t(x, t))
        rows.append(row)
    command = f"poset-secretary exact-mu {args.source}"
    if t is not None:
        command += f" --t {t}"
    command += f" --seed {args.seed} --format {args.fmt}"
    if args.fmt == "csv":
        header = "element,mu,mu_t" if t is not None else "element,mu"
        lines = [header]
        for row in rows:
            cells = [str(row["element"]), row["mu"]]
            if t is not None:
                cells.append(row.get("mu_t", ""))
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n")
    else:
        params = {"source": args.source, "t": None if t is None else str(t), "seed": args.seed}
        _emit(_json_report(command, params, {"n": p.n, "mu": rows}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {args.alpha}")
    p = _load_poset(args.source)
    lemmas = LEMMAS if args.lemma == "all" else (args.lemma,)
    reports = verify_lemmas(p, lemmas, args.trials, args.seed, args.alpha, args.workers)
    ok = all(r.passed for r in reports)
    command = (f"poset-secretary verify {args.source} --lemma {args.lemma} "
               f"--trials {args.trials} --seed {args.seed} --alpha {args.alpha!r} "
               f"--format {args.fmt}")
    if args.fmt == "csv":
        _emit(_reports_csv(reports))
    else:
        params = {"source": args.source, "lemma": args.lemma, "trials": args.trials,
                  "seed": args.seed, "alpha": args.alpha}
        results = {"checks": [_report_dict(r) for r in reports],
                   "total": len(reports),
                   "failures": sum(1 for r in reports if not r.passed),
                   "passed": ok}
        _emit(_json_report(command, params, results))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_sweep(args) -> int:
    try:
        taus = [float(tok) for tok in args.taus.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--taus must be a comma list of floats: {exc}") from exc
    if not taus:
        raise ValueError("--taus must contain at least one threshold")
    p = _load_poset(args.source)
    estimates = threshold_sweep(p, taus, args.trials, args.seed, workers=args.workers)
    command = (f"poset-secretary sweep {args.source} --taus {args.taus} "
               f"--trials {args.trials} --seed {args.seed} --format {args.fmt}")
    if args.fmt == "csv":
        _emit(_estimates_csv(estimates))
    else:
        params = {"source": args.source, "taus": taus, "trials": args.trials, "seed": args.seed}
        _emit(_json_report(command, params, [_estimate_dict(e) for e in estimates]))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "exact-mu": _cmd_exact_mu,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.cmd](args)
    except (SourceError, PosetFileError, GeneratorSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVER_CAP
    except (ValueError, IndexError, ZeroTrialsError, EmptyPosetError, NotMaximalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAM


if __name__ == "__main__":
    sys.exit(main())
