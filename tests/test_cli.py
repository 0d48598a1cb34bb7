"""End-to-end CLI behaviour: formats, determinism, exit codes."""

import hashlib
import json

import pytest

from poset_secretary import engine, montecarlo
from poset_secretary.cli import main


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

    def test_tau_out_of_range_is_exit_3(self, run):
        code, _, err = run("simulate", "wedge", "--tau", "1.5")
        assert code == 3 and "tau" in err

    def test_unknown_source_is_exit_2(self, run):
        code, _, _ = run("simulate", "spiral:9")
        assert code == 2

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
        code, _, err = run("exact-mu", "chain:12")
        assert code == 4 and "cap" in err

    def test_bad_t_is_exit_3(self, run):
        assert run("exact-mu", "wedge", "--t", "zebra")[0] == 3
        assert run("exact-mu", "wedge", "--t", "3/2")[0] == 3


class TestVerify:
    ARGS = ("--trials", "6000", "--seed", "5")

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

    def test_lemma_2_tallies_tag_pairs_once_per_chunk(self, run, monkeypatch):
        # the marginal and independence checks share one tally per chunk
        calls = []

        def counted(*args, _fn=montecarlo._tag_pair_counts):
            calls.append(1)
            return _fn(*args)

        monkeypatch.setattr(montecarlo, "_tag_pair_counts", counted)
        code, out, _ = run("verify", "wedge", "--lemma", "2", "--trials",
                           str(engine.CHUNK_TRIALS + 1), "--workers", "1")
        assert code == 0 and len(json.loads(out)["results"]["checks"]) == 6
        assert len(calls) == 2  # two chunks

    def test_pinned_check_respects_cap(self, run):
        code, _, _ = run("verify", "antichain:9", "--lemma", "4", *self.ARGS)
        assert code == 4

    def test_bad_alpha_is_exit_3(self, run):
        assert run("verify", "wedge", "--alpha", "0", *self.ARGS)[0] == 3

    def test_every_lemma_is_validated_before_any_draw(self, run, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a chunk before every lemma was validated")

        monkeypatch.setattr(engine, "chunk_uniforms", no_draws)
        code, out, err = run("verify", "antichain:9")
        assert code == 4 and out == "" and "n <= 8" in err
        # the lemma-2 trials floor is checked first
        assert run("verify", "antichain:9", "--trials", "10")[0] == 3


class TestGoldenBytes:
    """Report bytes pinned by digest: a faster or restructured path must not move them."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("verify", "random:8:0.3:42", "--trials", "20000", "--seed", "3"),
             "f3be31d5651498f3b241e0ece6369d4e31660f4577be4af87198bf2f40218ca0"),
            (("verify", "random:8:0.3:42", "--trials", "20000", "--seed", "3", "--format", "csv"),
             "380285b9a98789cfc53022bd44fb700445028868a3fb9bcd6d6feae68bc3ddbe"),
            (("sweep", "chain:5", "--taus", "0.1,0.3679,0.7", "--trials", "20000",
              "--seed", "3", "--format", "csv"),
             "e30ad01e03a74670d1bfc5e1a326c0f28c0ba6c38f299053f49e1785d65e273d"),
        ],
    )
    def test_stdout_digest(self, run, argv, digest):
        code, out, _ = run(*argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_zero_trials_is_exit_3(self, run):
        assert run("simulate", "wedge", "--trials", "0")[0] == 3

    def test_chain_zero_is_exit_3(self, run):
        # grammar parses, the size itself is invalid
        assert run("simulate", "chain:0")[0] == 3

    def test_bad_grammar_is_exit_2(self, run):
        assert run("simulate", "chain:zebra")[0] == 2

    def test_missing_file_is_exit_2(self, run, tmp_path):
        assert run("simulate", str(tmp_path / "nope.poset"))[0] == 2
