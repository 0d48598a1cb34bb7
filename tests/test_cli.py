"""End-to-end CLI behaviour: formats, determinism, exit codes."""

import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import poset_secretary
from poset_secretary import cli, engine, families, greedy, montecarlo, posetfile, posets
from poset_secretary.cli import main
from poset_secretary.engine import SIM_CAP

from helpers import _a_ignores_arrival, _b_only, _members_ignore_t, _read_after_order


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


SIM = ("simulate", "antichain:5", "--trials", "1000", "--seed", "7")


class TestSimulate:
    def test_json_document_shape(self, run):
        code, out, _ = run(*SIM)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"command", "version", "params", "results"}
        assert doc["params"]["seed"] == 7
        res = doc["results"]
        assert res["trials"] == 1000
        assert res["successes"] == pytest.approx(res["p_hat"] * 1000)
        assert 0 <= res["ci_low"] <= res["p_hat"] <= res["ci_high"] <= 1

    def test_reruns_are_byte_identical(self, run):
        _, first, _ = run(*SIM)
        _, second, _ = run(*SIM)
        assert first == second

    def test_worker_count_never_changes_bytes(self, run):
        _, one, _ = run(*SIM, "--workers", "1")
        _, two, _ = run(*SIM, "--workers", "2")
        assert one == two

    def test_csv_matches_single_tau_sweep(self, run):
        _, sim, _ = run(*SIM, "--tau", "0.4", "--format", "csv")
        _, swp, _ = run("sweep", "antichain:5", "--taus", "0.4",
                        "--trials", "1000", "--seed", "7", "--format", "csv")
        assert sim == swp

    @pytest.mark.parametrize("tau,trials,bound", [("0", "4", "ci_high"), ("0.9999999", "9", "ci_low")])
    def test_all_or_no_successes_report_the_exact_wilson_endpoint(self, run, tau, trials, bound):
        code, out, _ = run("simulate", "chain:1", "--tau", tau, "--trials", trials)
        res = json.loads(out)["results"]
        assert code == 0 and res[bound] == res["p_hat"] in (0.0, 1.0)

    def test_tau_out_of_range_is_exit_3(self, run):
        code, _, err = run("simulate", "wedge", "--tau", "1.5")
        assert code == 3 and "tau" in err

    def test_unknown_source_is_exit_2(self, run):
        code, _, _ = run("simulate", "spiral:9")
        assert code == 2

    def test_unknown_source_lists_the_family_table_in_order(self, run):
        _, _, err = run("simulate", "spiral:9")
        assert f"known generator spec ({', '.join(families.FAMILIES)})" in err

    def test_file_source(self, run, tmp_path):
        f = tmp_path / "p.poset"
        f.write_text("poset n=3\n0 < 1\n0 < 2\n")
        code_file, out_file, _ = run("simulate", str(f), "--trials", "500")
        code_gen, out_gen, _ = run("simulate", "wedge", "--trials", "500")
        assert code_file == code_gen == 0
        # identical poset, identical stream; only the embedded source differs
        assert (json.loads(out_file)["results"] == json.loads(out_gen)["results"])

    def test_malformed_file_is_exit_2(self, run, tmp_path):
        f = tmp_path / "bad.poset"
        f.write_text("not a poset\n")
        code, _, _ = run("simulate", str(f))
        assert code == 2

    def test_file_that_is_not_utf8_is_exit_2_naming_it(self, run, tmp_path):
        f = tmp_path / "bad.poset"
        f.write_bytes(b"\xff\xfe")
        code, out, err = run("simulate", str(f))
        assert code == 2 and out == "" and str(f) in err


class TestExactMu:
    def test_json_values_are_fraction_strings(self, run):
        code, out, _ = run("exact-mu", "wedge")
        assert code == 0
        doc = json.loads(out)
        mu = {row["element"]: row["mu"] for row in doc["results"]["mu"]}
        assert mu == {0: "0", 1: "1/2", 2: "1/2"}

    def test_csv_header_without_t(self, run):
        _, out, _ = run("exact-mu", "wedge", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "element,mu"
        assert lines[1:] == ["0,0", "1,1/2", "2,1/2"]

    def test_csv_with_t_blanks_non_maximal(self, run):
        _, out, _ = run("exact-mu", "wedge", "--t", "1/2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "element,mu,mu_t"
        assert lines[1] == "0,0,"          # not maximal: no mu_t
        assert lines[2] == "1,1/2,3/4"
        assert lines[3] == "2,1/2,3/4"

    def test_over_cap_is_exit_4(self, run):
        code, _, err = run("exact-mu", f"chain:{SIM_CAP + 1}")
        assert code == 4 and "cap" in err

    def test_every_row_reads_one_table(self, run, monkeypatch):
        calls = []

        def counted(p, _fn=greedy._visit_densities):
            calls.append(p)
            return _fn(p)

        monkeypatch.setattr(greedy, "_visit_densities", counted)
        code, out, _ = run("exact-mu", "random:8:0.3:42", "--t", "1/2")
        rows = json.loads(out)["results"]["mu"]
        assert code == 0 and sum("mu_t" in row for row in rows) > 1
        assert len(calls) == 1
        # verify's lemma 4 (every pinned row) and lemma 5 read one table too
        calls.clear()
        code, out, _ = run("verify", "random:8:0.3:42", "--lemma", "all", "--trials", "8000",
                           "--workers", "1")
        names = [c["statistic"] for c in json.loads(out)["results"]["checks"]]
        assert code == 0 and "mu_monotonicity" in names
        assert sum(s.startswith("tagged_given_arrival") for s in names) > 1
        assert len(calls) == 1

    def test_bad_t_is_exit_3(self, run):
        assert run("exact-mu", "wedge", "--t", "zebra")[0] == 3
        assert run("exact-mu", "wedge", "--t", "3/2")[0] == 3

    @pytest.mark.parametrize("t", ["1e10000000", "1E-10000000", "1e4301", "1e-4300"])
    def test_t_past_the_digit_limit_is_exit_3_at_once(self, run, t):
        start = time.perf_counter()
        code, out, err = run("exact-mu", "wedge", "--t", t)
        assert code == 3 and out == "" and "--t" in err
        assert time.perf_counter() - start < 1.0

    def test_a_mu_t_past_the_digit_limit_is_exit_3_naming_t_and_the_row(self, run):
        # the table builds, but mu_t at a tiny t has more digits than str() prints
        code, out, err = run("exact-mu", "antichain:64", "--t", "1e-100")
        assert code == 3 and out == ""
        assert "--t" in err and "element 0" in err
        assert f"sys.get_int_max_str_digits() is {sys.get_int_max_str_digits()}" in err

    @pytest.mark.parametrize("k", [5, 6])
    def test_boolean_lattices_up_to_the_cap(self, run, k):
        code, out, _ = run("exact-mu", f"boolean:{k}")
        rows = json.loads(out)["results"]["mu"]
        assert code == 0 and len(rows) == 1 << k
        assert rows[-1] == {"element": (1 << k) - 1, "mu": "1"}


class TestVerify:
    ARGS = ("--trials", "6000", "--seed", "5")
    PINNED = ("verify", "random:8:0.3:42", "--lemma", "4", "--trials", "200000", "--workers", "1")
    LAWS = ("verify", "random:8:0.3:42", "--lemma", "2", "--trials", "200000", "--seed", "1",
            "--workers", "1")

    def test_all_lemmas_pass_on_small_poset(self, run):
        code, out, _ = run("verify", "wedge", *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["passed"] is True
        assert doc["results"]["failures"] == 0
        names = {c["statistic"] for c in doc["results"]["checks"]}
        assert any(s.startswith("tag_marginal") for s in names)
        assert any(s.startswith("tag_independence") for s in names)
        assert any(s.startswith("last_tag_uniform") for s in names)
        assert any(s.startswith("tagged_given_arrival") for s in names)
        assert "mu_monotonicity" in names

    def test_lemma_filter_narrows_checks(self, run):
        code, out, _ = run("verify", "wedge", "--lemma", "5", *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        assert [c["statistic"] for c in doc["results"]["checks"]] == ["mu_monotonicity"]

    def test_csv_header(self, run):
        _, out, _ = run("verify", "wedge", "--lemma", "5", *self.ARGS, "--format", "csv")
        assert out.splitlines()[0] == "statistic,observed,reference,p_value,passed,sample_size"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="parallel chunks need os.fork")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_worker_count_never_changes_bytes_over_several_chunks(self, run, monkeypatch, fmt):
        # two chunks, so --workers 2 forks two children even on a one-CPU host
        argv = ("verify", "random:5:0.3:1", "--lemma", "all", "--trials", "40000",
                "--format", fmt)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        code1, one, _ = run(*argv, "--workers", "1")
        assert forks == []
        code2, two, _ = run(*argv, "--workers", "2")
        assert len(forks) == 2
        assert code1 == code2 == 0 and one == two

    def test_lemma_2_tallies_tag_pairs_once_per_piece(self, run, monkeypatch):
        # the marginal and independence checks share one tally, so the pair
        # count runs once per piece of rows, not once per check
        calls = []

        def counted(*args, _fn=montecarlo._tag_pair_counts):
            calls.append(1)
            return _fn(*args)

        monkeypatch.setattr(montecarlo, "_tag_pair_counts", counted)
        code, out, _ = run("verify", "wedge", "--lemma", "2", "--trials",
                           str(engine.CHUNK_TRIALS + 1), "--workers", "1")
        assert code == 0 and len(json.loads(out)["results"]["checks"]) == 6
        # 16 pieces of 2048 rows, then the second chunk's one row
        assert len(calls) == engine.CHUNK_TRIALS // engine._SUB_BATCH + 1 == 17

    def test_lemma_4_passes_the_pinned_scan(self, run):
        assert run(*self.PINNED)[0] == 0

    @pytest.mark.parametrize("mutant", [_members_ignore_t, _read_after_order])
    def test_lemma_4_fails_a_wrong_pinned_scan(self, run, monkeypatch, mutant):
        monkeypatch.setattr(engine, "_passed_mask", mutant)
        code, out, _ = run(*self.PINNED)
        assert code == 1 and json.loads(out)["results"]["failures"] > 0

    @pytest.mark.parametrize("mutant,code", [(None, 0), (_b_only, 1), (_a_ignores_arrival, 1)])
    def test_lemma_2_fails_a_wrong_tag_kernel(self, run, monkeypatch, mutant, code):
        if mutant is not None:
            monkeypatch.setattr(engine, "_tag_sub_batch", mutant)
        got, out, _ = run(*self.LAWS)
        assert got == code and (json.loads(out)["results"]["failures"] > 0) == bool(code)

    @pytest.mark.parametrize("lemma", ["4", "5"])
    def test_exact_lemmas_run_at_the_simulation_cap(self, run, lemma):
        code, out, _ = run("verify", "random:64:0.1:3", "--lemma", lemma, *self.ARGS,
                           "--workers", "1")
        assert code == 0 and json.loads(out)["results"]["passed"] is True

    def test_pinned_check_respects_cap(self, run):
        code, _, _ = run("verify", f"antichain:{SIM_CAP + 1}", "--lemma", "4", *self.ARGS)
        assert code == 4

    def test_bad_alpha_is_exit_3(self, run):
        assert run("verify", "wedge", "--alpha", "0", *self.ARGS)[0] == 3

    # lemma 5 alone draws no chunk, so nothing that draws sees these values
    @pytest.mark.parametrize("lemma", ["3", "4", "5"])
    @pytest.mark.parametrize("bad", [("--seed", "-1"), ("--seed", str(1 << 64)), ("--workers", "0")],
                             ids=["negative_seed", "seed_over_64_bits", "no_workers"])
    def test_bad_seed_or_workers_is_exit_3(self, run, lemma, bad):
        # lemma 3 gets enough trials that its sample floor cannot be what refuses
        trials = "1000" if lemma == "3" else "100"
        code, out, err = run("verify", "wedge", "--lemma", lemma, "--trials", trials, *bad)
        assert code == 3 and out == "" and err

    def test_a_lemma_3_sample_below_the_ks_floor_is_exit_3(self, run):
        # 138 of the 150 trials have an arrival before t = 0.5
        code, out, err = run("verify", "wedge", "--lemma", "3", "--trials", "150", "--seed", "0")
        assert code == 3 and out == "" and "138 trials" in err and "141" in err

    # lemma 5 alone draws nothing and takes 0 trials, but no negative count
    @pytest.mark.parametrize("lemma", ["3", "4", "5"])
    def test_negative_trials_is_exit_3(self, run, lemma):
        code, out, err = run("verify", "wedge", "--lemma", lemma, "--trials", "-5")
        assert code == 3 and out == "" and "trials" in err

    def test_every_lemma_is_validated_before_any_draw(self, run, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a chunk before every lemma was validated")

        monkeypatch.setattr(engine, "_philox", no_draws)
        code, out, err = run("verify", f"antichain:{SIM_CAP + 1}")
        assert code == 4 and out == "" and f"n <= {SIM_CAP}" in err
        # the lemma-2 trials floor is checked before any draw too
        assert run("verify", f"antichain:{SIM_CAP}", "--trials", "10")[0] == 3


class TestGoldenBytes:
    """Report bytes pinned by digest: a faster or restructured path must not move them."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("verify", "random:8:0.3:42", "--trials", "20000", "--seed", "3"),
             "f3be31d5651498f3b241e0ece6369d4e31660f4577be4af87198bf2f40218ca0"),
            (("verify", "random:8:0.3:42", "--trials", "20000", "--seed", "3", "--format", "csv"),
             "22894cab2a6ca8f666987303def89b10121933da381de9180e48a3dc0724273c"),
            (("sweep", "chain:5", "--taus", "0.1,0.3679,0.7", "--trials", "20000",
              "--seed", "3", "--format", "csv"),
             "e30ad01e03a74670d1bfc5e1a326c0f28c0ba6c38f299053f49e1785d65e273d"),
            (("simulate", "chain:20", "--trials", "20000", "--seed", "3"),
             "63b31487e9f8902b55105115ab406fbfef0e1732dbfbb5ea61adbf1e6b0dabb4"),
            (("exact-mu", "boolean:3", "--t", "1/2"),
             "c9f0383128017b003b75383909ec356115df9c3af69567e172c9ed548ff3988a"),
            # KS samples of 143 and 170 values, the smallest lemma 3 still tests:
            # Pelz-Good at n*D^1.5 = 1.7 and 2.7
            (("verify", "wedge", "--lemma", "3", "--trials", "170", "--seed", "1"),
             "2ba3e96c99d57f2ddab1caf62ecc8216d20828ac791c378d4c4432e7e5cde277"),
            (("simulate", "chain:20", "--trials", "20000", "--seed", "3", "--format", "csv"),
             "c70824e0be291fd78bda4d76ee28e021a5bf3aaced34cf468ea902762732eda7"),
            (("sweep", "chain:5", "--taus", "0.1,0.3679,0.7", "--trials", "20000", "--seed", "3"),
             "defcadc176d7b5c2f9d9e04017351cf5df526df4cac5c275211aa0fe197c5c1e"),
            (("exact-mu", "boolean:3"),
             "0603613eba66a7d623bb78e63cb65f1a0722a8552bd7ebdffbe23a77b8512e88"),
            (("exact-mu", "boolean:3", "--format", "csv"),
             "14a22162ae51cf7d3d5e4dbbd80f459f10c5b7b5637423f103461286d8a005fb"),
            (("exact-mu", "boolean:3", "--t", "1/2", "--format", "csv"),
             "2402952f251d9aa1039e2948ef319ca0be98fd4af157bb3df17636ce63fd5afa"),
            # lemma 3 read off a chain's running-minimum tag keys
            (("verify", "chain:20", "--lemma", "3", "--trials", "20000", "--seed", "3"),
             "792a8cd4b1bedea820782ab0edc5c6a2b24dae93f1c80e5dd707827029a65cdb"),
            (("verify", "chain:20", "--lemma", "3", "--trials", "20000", "--seed", "3",
              "--format", "csv"),
             "85b9955360e4124ad7167899e40a45fa87870ba0be5dd67a9206bd6ccec2abb8"),
        ],
    )
    def test_stdout_digest(self, run, argv, digest):
        code, out, _ = run(*argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCsvReadsBack:
    """Every CSV report parses under csv.reader into rows of the header's width."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "wedge", "--trials", "2000"),
            ("sweep", "chain:5", "--taus", "0.1,0.5", "--trials", "2000"),
            ("exact-mu", "wedge"),
            ("exact-mu", "wedge", "--t", "1/2"),
            ("verify", "wedge", "--lemma", "2", "--trials", "3000"),
            ("verify", "wedge", "--lemma", "3", "--trials", "3000"),
            ("verify", "wedge", "--lemma", "4", "--trials", "3000"),
            ("verify", "wedge", "--lemma", "5", "--trials", "3000"),
        ],
    )
    def test_rows_have_the_header_width(self, run, argv):
        code, out, _ = run(*argv, "--format", "csv")
        header, *rows = csv.reader(out.splitlines())
        assert code == 0 and rows
        assert [len(row) for row in rows] == [len(header)] * len(rows)


class TestReplay:
    """The command a JSON report embeds replays it: same bytes, same exit code."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "wedge", "--trials", "2000", "--seed", "4"),
            ("simulate", "{file}", "--tau", "0.5", "--trials", "2000"),
            ("sweep", "chain:5", "--taus", "0.1, 0.5", "--trials", "2000"),
            ("verify", "wedge", "--lemma", "all", "--trials", "3000", "--workers", "1"),
            ("verify", "chain:12", "--lemma", "2", "--trials", "20000", "--seed", "2"),
            ("exact-mu", "wedge"),
            ("exact-mu", "wedge", "--t", "0.5"),
            ("exact-mu", "{file}", "--t", "1/3"),
        ],
    )
    def test_embedded_command_reproduces_the_report(self, run, tmp_path, argv):
        spaced = tmp_path / "sp ace"
        spaced.mkdir()
        f = spaced / "w.poset"
        f.write_text(posetfile.format_poset_text(families.wedge()))
        code, out, _ = run(*(a.format(file=f) for a in argv))
        assert code in (0, 1)
        command = shlex.split(json.loads(out)["command"])
        assert command[0] == "poset-secretary"
        assert run(*command[1:])[:2] == (code, out)

    def test_workers_is_a_monte_carlo_option(self, run):
        with pytest.raises(SystemExit) as exc:
            run("exact-mu", "boolean:3", "--workers", "2")
        assert exc.value.code == 2
        for argv in (("simulate", "wedge"), ("sweep", "wedge", "--taus", "0.5"),
                     ("verify", "wedge", "--lemma", "3")):
            assert run(*argv, "--trials", "1000", "--workers", "2")[0] == 0


class TestImports:
    """No command loads scipy.stats: its import alone outweighs a desk-scale run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "wedge", "--trials", "1000"],
            ["sweep", "wedge", "--taus", "0.2,0.5", "--trials", "1000"],
            ["exact-mu", "wedge", "--t", "1/2"],
            ["verify", "wedge", "--lemma", "all", "--trials", "3000", "--workers", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_runs_without_scipy_stats(self, argv):
        script = (
            "import sys\n"
            "import poset_secretary\n"
            "from poset_secretary import cli\n"
            f"code = cli.main({argv!r})\n"
            "assert code == 0, code\n"
            "assert 'scipy.stats' not in sys.modules\n"
        )
        src = str(Path(poset_secretary.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestSweep:
    def test_csv_header_exact(self, run):
        _, out, _ = run("sweep", "chain:1", "--taus", "0.2,0.5",
                        "--trials", "1000", "--format", "csv")
        assert out.splitlines()[0] == "tau,p_hat,ci_low,ci_high,trials,seed"
        assert len(out.splitlines()) == 3

    def test_json_rows(self, run):
        code, out, _ = run("sweep", "chain:1", "--taus", "0.2,0.5", "--trials", "1000")
        assert code == 0
        doc = json.loads(out)
        assert [row["tau"] for row in doc["results"]] == [0.2, 0.5]

    def test_invalid_tau_in_list_is_exit_3(self, run):
        assert run("sweep", "chain:1", "--taus", "0.2,1.0")[0] == 3

    def test_garbage_tau_list_is_exit_3(self, run):
        assert run("sweep", "chain:1", "--taus", "0.2,zebra")[0] == 3

    def test_empty_tau_list_is_exit_3(self, run):
        assert run("sweep", "chain:1", "--taus", ",")[0] == 3


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "antichain:65", "--trials", "10"),
            ("sweep", "antichain:65", "--taus", "0.5", "--trials", "10"),
            ("verify", "antichain:65", "--trials", "10"),
        ],
    )
    def test_over_simulation_cap_is_exit_4(self, run, argv):
        code, out, err = run(*argv)
        assert code == 4 and "cap" in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "chain:1500"),
            ("simulate", "antichain:100000000"),
            ("exact-mu", "random:100000:0.1:1"),
            ("verify", "forest:40,40"),
            ("sweep", "boolean:7", "--taus", "0.5"),
            ("exact-mu", "boolean:7"),
            ("exact-mu", "{file}"),
            ("exact-mu", "boolean:20000"),  # 2^K has more digits than str() prints
            ("exact-mu", "boolean:10000000000"),  # 2^K would take over a gigabyte
        ],
    )
    def test_over_every_cap_is_refused_before_building(self, run, monkeypatch, tmp_path, argv):
        def no_build(*args, **kwargs):
            raise AssertionError("built a poset over every command's cap")

        for module in (posets, families, posetfile, cli):
            monkeypatch.setattr(module, "from_relations", no_build)
        monkeypatch.setattr(posets, "Poset", no_build)
        big = tmp_path / "big.poset"
        big.write_text("poset n=100000000\n0 < 1\n")
        code, out, err = run(*(a.format(file=big) for a in argv))
        assert code == 4 and "cap" in err and str(SIM_CAP) in err and out == ""

    def test_zero_trials_is_exit_3(self, run):
        assert run("simulate", "wedge", "--trials", "0")[0] == 3

    def test_chain_zero_is_exit_3(self, run):
        # grammar parses, the size itself is invalid
        assert run("simulate", "chain:0")[0] == 3

    def test_bad_grammar_is_exit_2(self, run):
        assert run("simulate", "chain:zebra")[0] == 2

    def test_missing_file_is_exit_2(self, run, tmp_path):
        assert run("simulate", str(tmp_path / "nope.poset"))[0] == 2
