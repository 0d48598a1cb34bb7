"""The benchmark's byte gate, run in-process: each benchmarked workload's report
must hash to the digest and exit code recorded in perfbench/oracle.json.

perfbench/spec.json holds every workload's argv, BENCHMARK.json names the ones
the benchmark times, and the oracle holds each program seed's stdout sha256 and
exit code.  Report bytes never depend on the worker count, so every run here
takes one worker.
"""

import hashlib
import json
from pathlib import Path

import pytest

from poset_secretary.cli import main

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1)


def _load(*parts):
    return json.loads(ROOT.joinpath(*parts).read_text(encoding="utf-8"))


SPEC = _load("perfbench", "spec.json")
ORACLE = _load("perfbench", "oracle.json")
WORKLOADS = [w["name"] for w in _load("BENCHMARK.json")["workloads"]]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_report_matches_the_recorded_digest(capsys, name, seed):
    argv = [tok.replace("{S}", str(seed)).replace("{workers}", "1")
            for tok in SPEC["workloads"][name]["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    want = ORACLE["workloads"][name][str(seed)]
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), code) == (want["sha256"], want["exit"])
