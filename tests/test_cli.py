import json

import numpy as np
import pytest

from nlsqueeze import cli
from nlsqueeze.cli import EXIT_INTEGRITY, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_csv_layout_and_hierarchy(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", "OAT", "--n", "8", "--kmax", "3",
            "--tau-start", "0", "--tau-end", "3.141592653589793",
            "--steps", "5", "--parity", "--qfi",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "tau,xi2inv_k1,xi2inv_k2,xi2inv_k3,xi2inv_parity,f_max,ent_bound"
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            ks = [float(c) for c in cells[1:4]]
            fmax = float(cells[5])
            assert ks[0] <= ks[1] + 1e-9
            assert ks[1] <= ks[2] + 1e-9
            assert ks[2] <= fmax + 1e-9
            int(cells[6])  # ent_bound column is an integer

    def test_revival_endpoints(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--n", "8", "--kmax", "1", "--tau-start", "0",
            "--tau-end", "3.141592653589793", "--steps", "2",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "tau,xi2inv_k1,ent_bound"
        first = float(lines[1].split(",")[1])
        last = float(lines[2].split(",")[1])
        assert abs(first - last) < 1e-8

    def test_kmax_one_limits_columns(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--n", "4", "--kmax", "1",
            "--tau-start", "0", "--tau-end", "1", "--steps", "3",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "tau,xi2inv_k1,ent_bound"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--n", "6", "--kmax", "2", "--tau-start", "0",
            "--tau-end", "1", "--steps", "3", "--format", "json", "--qfi",
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert len(records) == 3
        rec = records[0]
        assert set(rec) == {"tau", "xi2_inv_by_k", "n_opt_by_k", "f_max", "ent_bound"}
        assert len(rec["xi2_inv_by_k"]) == 2
        assert len(rec["n_opt_by_k"][0]) == 3

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys, "sweep", "--n", "6", "--kmax", "2", "--tau-start", "0",
                "--tau-end", "2", "--steps", "7", "--parity", "--qfi",
                "--out", str(path),
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_invalid_grid_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--n", "4", "--tau-start", "2", "--tau-end", "1",
        )
        assert code == EXIT_USAGE
        assert "tau-start" in err

    def test_invalid_steps_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--n", "4", "--steps", "1")
        assert code == EXIT_USAGE

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "OAT", "n_particles": 6, "k_max": 2,
            "tau_start": 0.0, "tau_end": 1.0, "steps": 5,
            "include_parity": True,
        }))
        code, out, _ = run(
            capsys, "sweep", "--config", str(cfg), "--steps", "3",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 records (flag wins over config)
        assert "xi2inv_parity" in lines[0]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_partlicles": 4}))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "unknown config keys" in err

    @pytest.mark.parametrize("document", [
        {"n_particles": "16"},
        {"steps": 2.5},
        {"n_particles": 16.5},
        {"tau_end": "3"},
        5,
        {"include_qfi": "false"},
    ], ids=["n_str", "steps_float", "n_float", "tau_str", "not_object", "flag_str"])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, document):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_odd_n_oat_warns(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--n", "5", "--kmax", "1",
            "--tau-start", "0", "--tau-end", "1", "--steps", "2",
        )
        assert code == EXIT_OK
        assert "even particle" in err


    def test_large_n_high_order_exits_cleanly(self, capsys):
        # degree-5 means at N=100 are ~1e8, so their rounding residue must be
        # judged against the operator scale, not an absolute threshold
        code, out, _ = run(capsys, "sweep", "--n", "100", "--kmax", "5", "--steps", "11")
        assert code in (EXIT_OK, EXIT_INTEGRITY)
        assert len(out.strip().splitlines()) == 12


class TestFock:
    def test_vacuum_order3(self, capsys):
        code, out, _ = run(capsys, "fock", "--n", "0", "--order", "3")
        assert code == EXIT_OK
        assert "chi2_inv = 2" in out

    def test_n5_order3(self, capsys):
        code, out, _ = run(capsys, "fock", "--n", "5", "--order", "3")
        assert code == EXIT_OK
        line = next(l for l in out.splitlines() if l.startswith("chi2_inv"))
        assert abs(float(line.split("=")[1]) - 22.0) < 1e-8

    def test_n5_order2(self, capsys):
        code, out, _ = run(capsys, "fock", "--n", "5", "--order", "2")
        assert code == EXIT_OK
        line = next(l for l in out.splitlines() if l.startswith("chi2_inv"))
        assert abs(float(line.split("=")[1]) - 1.0 / 5.5) < 1e-10

    def test_cutoff_too_small_refused(self, capsys):
        code, _, err = run(capsys, "fock", "--n", "5", "--cutoff", "7")
        assert code == EXIT_USAGE
        assert "cutoff" in err

    def test_missing_n_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "fock")
        assert code == EXIT_USAGE

    # both inputs are refused by the dimension bound before anything is allocated
    @pytest.mark.parametrize("argv", [
        ("--n", "3", "--order", "2", "--cutoff", "1000000000"),
        ("--n", "1000000000",),
    ])
    def test_huge_dimension_refused(self, capsys, argv):
        code, out, err = run(capsys, "fock", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cutoff") and err.count("\n") == 1
        assert "1024" in err


# the Dicke dimension bound refuses this before anything is allocated
@pytest.mark.parametrize("command", ["sweep", "analyze", "estimate"])
def test_huge_particle_number_refused(capsys, command):
    code, out, err = run(capsys, command, "--n", "1000000000")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: n_particles") and err.count("\n") == 1
    assert "1024" in err


class TestAnalyze:
    def test_dimensions_and_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--model", "OAT", "--n", "4", "--tau", "0.1",
            "--kmax", "2",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["m_matrix"]) == 9
        assert len(payload["m_tilde"]) == 3
        assert len(payload["labels"]) == 9
        # re-serializing the parsed payload reproduces the bytes exactly
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    def test_css_lambda_max(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "6", "--tau", "0", "--kmax", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["lambda_max"] - 6.0) < 1e-9

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "analysis.json"
        code, _, _ = run(
            capsys, "analyze", "--n", "4", "--tau", "0.3", "--kmax", "2",
            "--out", str(target),
        )
        assert code == EXIT_OK
        payload = json.loads(target.read_text())
        assert payload["n_particles"] == 4


    @pytest.mark.parametrize("kmax", ["0", "9"])
    def test_kmax_out_of_range_is_usage_error(self, capsys, kmax):
        code, out, err = run(capsys, "analyze", "--n", "4", "--kmax", kmax)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: kmax must be between 1 and 6\n"


class TestEstimate:
    ARGS = (
        "estimate", "--model", "OAT", "--n", "16", "--tau", "0",
        "--generator", "Jx", "--observable", "Jy",
        "--mu", "2000", "--trials", "100", "--seed", "0",
    )

    def test_ratio_and_determinism(self, capsys):
        code, out1, _ = run(capsys, *self.ARGS)
        assert code == EXIT_OK
        ratio = float(next(l for l in out1.splitlines() if l.startswith("ratio")).split("=")[1])
        assert 0.7 < ratio < 1.3
        code, out2, _ = run(capsys, *self.ARGS)
        assert code == EXIT_OK
        assert out1 == out2

    def test_small_mu_warns(self, capsys):
        with pytest.warns(UserWarning) as record:
            code, _, _ = run(
                capsys, "estimate", "--n", "8", "--mu", "1", "--trials", "5",
            )
        assert code == EXIT_OK
        assert any("central-limit" in str(w.message) for w in record)

    def test_non_invertible_window(self, capsys):
        code, _, err = run(
            capsys, "estimate", "--n", "8", "--mu", "100", "--trials", "5",
            "--window", "6.0",
        )
        assert code == EXIT_USAGE
        assert "monotonic" in err

    def test_non_finite_tau_is_usage_error(self, capsys):
        code, out, err = run(capsys, "estimate", "--n", "8", "--tau", "nan")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: tau must be finite\n"

    def test_bad_observable(self, capsys):
        code, _, _ = run(capsys, "estimate", "--n", "8", "--observable", "Qz")
        assert code == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize("command", ["sweep", "analyze", "fock"])
def test_library_value_error_is_usage_error(capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise ValueError("planted failure")

    monkeypatch.setattr(cli, "spin_squeezing_profile", refuse)
    monkeypatch.setattr(cli, "chi2_inverse_opt", refuse)
    argv = ["--n", "4"] if command == "fock" else ["--n", "4", "--kmax", "2"]
    code, out, err = run(capsys, command, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: planted failure\n"
