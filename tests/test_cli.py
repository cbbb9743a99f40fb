import json
import warnings

import numpy as np
import pytest

from nlsqueeze import OperatorFamily, cli, moments
from nlsqueeze.cli import EXIT_INTEGRITY, EXIT_OK, EXIT_USAGE, main

INTEGRITY_WARNING = ("warning: covariance kernel carries commutator signal "
                     "(numerical integrity flag)\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def flag_every_result(monkeypatch):
    """Make every result raise the integrity flag: any leakage, even 0,
    exceeds a negative tolerance.  `cli.KERNEL_LEAK_TOL` is set as well, so
    that a CLI comparing against its own copy of the tolerance flags too."""
    monkeypatch.setattr(moments, "KERNEL_LEAK_TOL", -1.0)
    monkeypatch.setattr(cli, "KERNEL_LEAK_TOL", -1.0, raising=False)


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

    def test_json_records_of_a_flagged_sweep(self, capsys, monkeypatch):
        flag_every_result(monkeypatch)
        code, out, _ = run(
            capsys, "sweep", "--n", "6", "--kmax", "2", "--tau-start", "0",
            "--tau-end", "1", "--steps", "4", "--format", "json", "--parity", "--qfi",
        )
        assert code == EXIT_INTEGRITY
        for rec in json.loads(out):
            assert set(rec) == {"tau", "xi2_inv_by_k", "n_opt_by_k", "xi2_inv_parity",
                                "f_max", "ent_bound"}

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

    @pytest.mark.parametrize("document, message", [
        ({"model": "XYZ"}, "model must be one of ('OAT', 'TAT')"),
        ({"n_particles": 0}, "n must be >= 1"),
        ({"k_max": 7}, "kmax must be between 1 and 6"),
        ({"format": "xml"}, "format must be csv or json"),
        # JSON integers are exact: one beyond float range must not reach float arithmetic
        ({"tau_end": 10 ** 334}, "tau_end lies beyond float range"),
        ({"tau_start": -10 ** 334}, "tau_start lies beyond float range"),
    ], ids=["model", "n", "kmax", "format", "tau_end beyond float range", "tau_start beyond float range"])
    def test_config_value_out_of_range_rejected(self, tmp_path, capsys, document, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

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

    @pytest.mark.parametrize("n, line", [("0", "xi2      = 1"), ("5", "xi2      = 0.0909090909091"),
                                         ("60", "xi2      = 0.00826446280992")])
    def test_gain_coefficient_uses_the_mode_shot_noise(self, capsys, n, line):
        # xi2 = F_SN / chi2_inv with F_SN = 2 and chi2_inv = 4n + 2 at order 3
        code, out, _ = run(capsys, "fock", "--n", n, "--order", "3")
        assert code == EXIT_OK
        assert line in out.splitlines()

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

    def test_huge_tau_is_one_clean_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "analyze", "--n", "5", "--tau", "1e308")
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")  # no RuntimeWarning lines
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

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

    def test_ghz_parity_reaches_heisenberg_variance(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--model", "OAT", "--n", "16", "--tau", "1.5707963267948966",
            "--generator", "Jz", "--observable", "parity", "--theta", "0.05", "--window", "0.04",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "predicted variance = 3.90625e-07" in lines  # 1 / (N^2 mu), N = 16, mu = 10^4
        ratio = float(next(l for l in lines if l.startswith("ratio")).split("=")[1])
        assert 0.7 < ratio < 1.3

    def test_small_mu_warns(self, capsys):
        code, _, err = run(capsys, "estimate", "--n", "8", "--mu", "1", "--trials", "5")
        assert code == EXIT_OK
        assert "warning: mu = 1 is too small for the central-limit regime" in err

    def test_library_warning_is_one_line_without_a_path(self, capsys):
        code, out, err = run(capsys, "estimate", "--n", "4", "--mu", "10", "--trials", "5")
        assert code == EXIT_OK and out.startswith("model OAT, N=4")
        assert err == "warning: mu = 10 is too small for the central-limit regime the prediction relies on\n"

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


@pytest.mark.parametrize("argv, builds", [
    (("estimate", "--n", "8", "--mu", "100", "--trials", "5"), 2),
    (("sweep", "--n", "8", "--steps", "3", "--parity"), 1),
], ids=["estimate", "parity sweep"])
def test_densifies_only_the_operators_it_reads(capsys, monkeypatch, argv, builds):
    """Every dense member is built by `OperatorFamily.__getitem__`: estimate
    builds its generator and its observable, the parity sweep its Jz, once each."""
    calls = []
    getitem = OperatorFamily.__getitem__

    def counting(self, idx):
        calls.append(idx)
        return getitem(self, idx)

    monkeypatch.setattr(OperatorFamily, "__getitem__", counting)
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert len(calls) == builds


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


@pytest.mark.parametrize("argv, line", [
    (("sweep", "--n", "3", "--steps", "2"), "OAT revival and GHZ statements assume an even particle number"),
    (("estimate", "--n", "4", "--mu", "10", "--trials", "5"), "mu = 10 is too small for the central-limit"),
], ids=["odd n", "small mu"])
def test_warning_is_a_line_under_an_error_filter(capsys, argv, line):
    # as `python -W error` sets it: the warning is still one line, not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert err.startswith(f"warning: {line}") and err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [
    ("sweep", "--n", "6", "--kmax", "2", "--tau-start", "0", "--tau-end", "1", "--steps", "3"),
    ("analyze", "--n", "4", "--tau", "0.3", "--kmax", "2"),
    ("fock", "--n", "2"),
], ids=["sweep", "analyze", "fock"])
def test_integrity_flag_exits_2_with_a_warning(capsys, monkeypatch, argv):
    code, clean_out, clean_err = run(capsys, *argv)
    assert (code, clean_err) == (EXIT_OK, "")
    flag_every_result(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INTEGRITY
    assert out == clean_out  # the flag changes no output byte
    assert err == INTEGRITY_WARNING


@pytest.mark.parametrize("argv, fragment", [
    (["analyze", "--model", "OAT"], "analyze needs --n >= 1"),
    (["estimate", "--generator", "Jx"], "estimate needs --n >= 1"),
    (["sweep", "--n", "4", "--kmax", "1", "--steps", "2", "--out", "{tmp}/missing/out.csv"],
     "cannot write output"),
    # every tau and theta below is finite or refused by name, yet their span
    # is not: no numpy warning may print before the error line
    (["sweep", "--n", "4", "--tau-start=-1e308", "--tau-end=1e308", "--steps", "3"],
     "tau-end - tau-start must be finite"),
    # a non-finite end is named, before the order of the ends is tested
    (["sweep", "--n", "4", "--tau-start=-inf", "--steps", "3"], "tau-start must be finite, got -inf"),
    (["sweep", "--config", "{tmp}/config.json"], "tau-start must be finite, got -inf"),
    (["sweep", "--n", "4", "--tau-start", "nan"], "tau-start must be finite, got nan"),
    (["sweep", "--n", "4", "--tau-end", "nan"], "tau-end must be finite, got nan"),
    (["sweep", "--n", "4", "--tau-end", "inf"], "tau-end must be finite, got inf"),
    (["estimate", "--n", "4", "--window", "1e308"], "window width must be finite"),
    (["estimate", "--n", "4", "--window", "inf"], "window width must be finite"),
    (["estimate", "--n", "4", "--mu", "100000000000000000000"], "mu must be >= 1 and <="),
    # a window that is not positive is named, not blamed on theta_true
    (["estimate", "--n", "16", "--window", "0"], "window must be positive, got 0.0"),
    (["estimate", "--n", "16", "--window=-1"], "window must be positive, got -1.0"),
    (["estimate", "--n", "16", "--window", "nan"], "window must be positive, got nan"),
    # 10^17 elements: 8e17 bytes lie beyond any 64-bit address space, so the
    # allocation fails at once, whatever the overcommit setting
    (["sweep", "--n", "2", "--steps", "100000000000000000"], "Unable to allocate"),
    (["estimate", "--n", "4", "--trials", "100000000000000000"], "Unable to allocate"),
    (["sweep", "--config", "{tmp}/deep.json"], "is nested too deeply"),
], ids=["analyze without n", "estimate without n", "unwritable out", "sweep span beyond float range",
        "sweep from -inf", "config from -Infinity", "sweep from nan", "sweep to nan", "sweep to inf",
        "estimate window beyond float range",
        "estimate infinite window", "estimate mu beyond int64",
        "estimate zero window", "estimate negative window", "estimate nan window",
        "sweep steps beyond memory", "estimate trials beyond memory", "config nested too deeply"])
def test_refusals_exit_one(capsys, tmp_path, argv, fragment):
    (tmp_path / "config.json").write_text('{"n_particles": 4, "steps": 3, "tau_start": -Infinity}')
    (tmp_path / "deep.json").write_text("[" * 100_000)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and fragment in err and err.count("\n") == 1
