"""Command-line front end: poset I/O, experiment orchestration, reports.

Subcommands
    simulate   Monte Carlo success probability of the threshold strategy
    exact-mu   exact greedy-maximum distribution (and mu_t at a given t)
    verify     statistical / exact checks of the strategy's distributional laws
    sweep      success estimates across a list of thresholds

Poset sources are either generator specs (grammar: `families.FAMILIES`, e.g.
chain:20 or random:8:0.3:42) or paths to poset text files.

Reports embed the command, every semantic parameter (seeds included) and the
toolkit version, so re-running the embedded command reproduces the bytes.
The command is built from the parameters alone, so the two cannot disagree.
Worker count is deliberately not a parameter of the output: results are
identical for any parallel layout.

Exit codes: 0 ok / checks passed, 1 verification failure, 2 source parse
error or a command line that argparse rejects (e.g. --trials 1e6, or
exact-mu --workers 2), 3 invalid parameter, 4 over the size cap of every
command (n <= 64, one bit per element in the tag kernel).  A source over it
is refused before its relation is built.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import shlex
import sys
from fractions import Fraction

from . import __version__
from .errors import CycleError, GeneratorSpecError, PosetFileError, SourceError, TooLargeError
from .engine import check_sim_cap
from .families import FAMILIES, parse_generator_spec
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


def _load_poset(source: str) -> Poset:
    """Resolve a source: generator specs win over file paths."""
    if source.split(":", 1)[0] in FAMILIES:
        spec = parse_generator_spec(source)
        check_sim_cap(spec.n)
        return spec.build()
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SourceError(f"cannot read poset file {source!r}: {exc}") from exc
        n, pairs = parse_poset_relations(text)
        check_sim_cap(n)
        try:
            return from_relations(n, pairs)
        except (CycleError, IndexError, ValueError) as exc:
            # bad indices, cycles, or an empty header are content problems
            raise PosetFileError(f"{source}: {exc}") from exc
    raise SourceError(
        f"{source!r} is neither a known generator spec ({', '.join(FAMILIES)}) nor a file"
    )


def _estimate_dict(est) -> dict:
    d = dict(vars(est), confidence=est.confidence)
    d["seed"] = d.pop("master_seed")
    return d


def _csv(header, rows) -> str:
    """RFC 4180 CSV text: a None cell is blank; one holding a comma, quote or newline is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _estimates_csv(estimates) -> str:
    return _csv(("tau", "p_hat", "ci_low", "ci_high", "trials", "seed"),
                [(e.tau, e.p_hat, e.ci_low, e.ci_high, e.trials, e.master_seed) for e in estimates])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poset-secretary",
        description="Threshold-strategy simulation and verification for partially ordered secretaries.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(sp, monte_carlo=True):
        sp.add_argument("source", help="generator spec (e.g. chain:20, random:8:0.3:42) or poset file path")
        sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        if monte_carlo:
            sp.add_argument("--trials", type=int, default=TRIALS_DEFAULT,
                            help=f"Monte Carlo trials (default {TRIALS_DEFAULT})")
        sp.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt",
                        help="report format (default json)")
        if monte_carlo:
            sp.add_argument("--workers", type=int, default=1,
                            help="parallel workers (default 1); results do not depend on it")

    sp = sub.add_parser("simulate", help="estimate the strategy's success probability")
    common(sp)
    sp.add_argument("--tau", type=float, default=TAU_DEFAULT,
                    help="rejection threshold in [0,1) (default 1/e)")

    sp = sub.add_parser("exact-mu", help="exact greedy-maximum distribution")
    common(sp, monte_carlo=False)
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


# Each handler returns (exit code, params, results, csv text); main alone
# renders and writes the report, and derives its command from params.


def _cmd_simulate(args):
    p = _load_poset(args.source)
    est = estimate_success(p, args.tau, args.trials, args.seed, workers=args.workers)
    params = {"source": args.source, "tau": args.tau, "trials": args.trials, "seed": args.seed}
    return EXIT_OK, params, _estimate_dict(est), _estimates_csv([est])


def _cmd_exact_mu(args):
    p = _load_poset(args.source)
    t = t_text = None
    if args.t is not None:
        try:
            # Fraction builds 10^|e| for an exponent e, which str() could not
            # print past Python's default digit limit: refuse e before the build
            limit = sys.int_info.default_max_str_digits
            exp = re.search(r"e([-+]?[\d_]+)\s*$", args.t, re.IGNORECASE)
            if exp and abs(int(exp[1])) > limit:
                raise ValueError(f"its exponent is past {limit} in magnitude")
            t = Fraction(args.t)
            t_text = str(t)  # the report's params print t
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"--t must be a rational like 1/2 or 0.5: {exc}") from exc
    table = mu_exact(p)
    rows = []
    for x in range(p.n):
        row = {"element": x, "mu": str(table[x])}
        if t is not None and x in p.maximal:
            mu_t = table.mu_t(x, t)
            try:
                row["mu_t"] = str(mu_t)
            except ValueError as exc:  # Python's digit limit for int -> str
                raise ValueError(
                    f"--t {args.t}: mu_t of element {x} has more digits than Python prints "
                    f"(sys.get_int_max_str_digits() is {sys.get_int_max_str_digits()})"
                ) from exc
        rows.append(row)
    columns = ["element", "mu"] if t is None else ["element", "mu", "mu_t"]
    params = {"source": args.source, "t": t_text, "seed": args.seed}
    table = _csv(columns, ([row.get(c) for c in columns] for row in rows))
    return EXIT_OK, params, {"n": p.n, "mu": rows}, table


def _cmd_verify(args):
    p = _load_poset(args.source)
    reports = verify_lemmas(p, args.lemma, args.trials, args.seed, args.alpha, args.workers)
    ok = all(r.passed for r in reports)
    params = {"source": args.source, "lemma": args.lemma, "trials": args.trials,
              "seed": args.seed, "alpha": args.alpha}
    results = {"checks": [vars(r) for r in reports],
               "total": len(reports),
               "failures": sum(1 for r in reports if not r.passed),
               "passed": ok}
    table = _csv(("statistic", "observed", "reference", "p_value", "passed", "sample_size"),
                 [(r.statistic, r.observed, r.reference, r.p_value, r.passed, r.sample_size)
                  for r in reports])
    return EXIT_OK if ok else EXIT_VERIFY_FAILED, params, results, table


def _cmd_sweep(args):
    try:
        taus = [float(tok) for tok in args.taus.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--taus must be a comma list of floats: {exc}") from exc
    if not taus:
        raise ValueError("--taus must contain at least one threshold")
    p = _load_poset(args.source)
    estimates = threshold_sweep(p, taus, args.trials, args.seed, workers=args.workers)
    params = {"source": args.source, "taus": taus, "trials": args.trials, "seed": args.seed}
    return EXIT_OK, params, [_estimate_dict(e) for e in estimates], _estimates_csv(estimates)


def _command(cmd: str, params: dict, fmt: str) -> str:
    """The shell command that replays a report: the subcommand, the source, then
    `--key value` per other param in order (None skipped, a list comma-joined)."""
    words = ["poset-secretary", cmd, params["source"]]
    for key, value in params.items():
        if key != "source" and value is not None:
            words += [f"--{key}", ",".join(map(repr, value)) if isinstance(value, list) else str(value)]
    return shlex.join([*words, "--format", fmt])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "exact-mu": _cmd_exact_mu,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        code, params, results, table = handlers[args.cmd](args)
    except (SourceError, PosetFileError, GeneratorSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVER_CAP
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAM
    if args.fmt == "csv":
        text = table
    else:
        doc = {"command": _command(args.cmd, params, args.fmt),
               "version": __version__, "params": params, "results": results}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
