"""Front-end: config resolution, exit codes, CSV/manifest contracts."""

import csv
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab import cli, evolve, linop, modeanalysis, modulation
from blowuplab.cli import (
    EXIT_ACCEPTANCE,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_PASS,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run,
)


def test_parse_defaults():
    cfg = parse_config(["spectrum"])
    assert cfg.command == "spectrum"
    assert cfg["p"] == 0.75
    assert cfg["N"] == 64
    assert cfg["seed"] == 0


def test_parse_flag_overrides():
    cfg = parse_config(["spectrum", "--p", "0.5", "--N", "96"])
    assert cfg["p"] == 0.5
    assert cfg["N"] == 96


def test_parse_config_file_and_flag_priority(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("p = 0.25\nN = 48   # comment\n\nseed = 7\n")
    cfg = parse_config(["spectrum", "--config", str(f), "--p", "0.5"])
    assert cfg["p"] == 0.5         # flags beat the file
    assert cfg["N"] == 48
    assert cfg["seed"] == 7


def test_unknown_key_rejected(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(["spectrum", "--config", str(f)])


def test_type_mismatch_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(["spectrum", "--N", "sixty-four"])


def test_constraint_violations_named():
    with pytest.raises(ConfigError, match=r"p must lie in \(0, 1\]"):
        parse_config(["spectrum", "--p", "1.5"])
    with pytest.raises(ConfigError, match="tau_max"):
        parse_config(["evolve", "--tau-max", "99"])
    with pytest.raises(ConfigError, match="lambda_re_max.*lambda_re_min"):
        parse_config(["mode-scan", "--lambda-re-min", "3",
                      "--lambda-re-max", "0"])
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        parse_config(["profile-check", "--seed", "-1"])


# the domain of each numeric key once parsed; parse_config must either
# resolve a key into it or raise a ConfigError naming the key
_DOMAINS = {
    "p": lambda v: 0.0 < v <= 1.0,
    "T": lambda v: v > 0.0,
    "kappa": lambda v: True,
    "x0": lambda v: True,
    "N": lambda v: 8 <= v <= cli.MAX_N,
    "dt": lambda v: v >= 0.0,
    "tau_max": lambda v: 0.0 < v <= 15.0,
    "epsilon": lambda v: v >= 0.0,
    "seed": lambda v: v >= 0,
    "lambda_re_min": lambda v: v <= 3.0,    # the default lambda_re_max
    "lambda_re_max": lambda v: v >= 0.0,    # the default lambda_re_min
    "lambda_im_max": lambda v: v >= 0.0,
    "lambda_step": lambda v: v > 0.0,
}

_RAW_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-0.0", "0", "8",
                     "512", "513", "100000", "1e308", "5e-324"]))


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(_DOMAINS)), raw=_RAW_VALUES)
def test_parse_config_is_total(key, raw):
    """Finite, boundary, huge, NaN and infinite values of every numeric
    key: each resolves to a finite value in the key's domain, or raises a
    ConfigError that names the key.  Only the configuration is parsed."""
    flag = f"--{key.replace('_', '-')}={raw}"
    try:
        cfg = parse_config(["spectrum", flag])
    except ConfigError as exc:
        assert key in str(exc)
        return
    value = cfg[key]
    assert math.isfinite(value)
    assert _DOMAINS[key](value)


@pytest.mark.parametrize("argv,message", [
    (["evolve", "--dt", "nan"], "key 'dt' must be finite"),
    (["evolve", "--kappa", "nan"], "key 'kappa' must be finite"),
    (["modulate", "--epsilon", "nan"], "key 'epsilon' must be finite"),
    (["evolve", "--x0=-inf"], "key 'x0' must be finite"),
    (["spectrum", "--N", "100000"], f"N must lie in [8, {cli.MAX_N}]"),
    (["evolve", "--tag", "a/b"], "tag"),
    (["modulate", "--tag", "../escaped"], "tag"),
])
def test_non_finite_or_huge_value_exits_config(capsys, argv, message):
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_nul_tag_in_config_file_exits_config_before_any_command(tmp_path,
                                                                capsys):
    """The tag is part of CSV file names; a NUL byte, which only a config
    file can carry, is a config error naming tag, and nothing runs."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tag = a\0b\n", encoding="utf-8")
    code = main(["evolve", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "config error: tag must be a file-name part" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_unknown_command_rejected():
    with pytest.raises(ConfigError):
        RunConfig(command="frobnicate")


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOWUPLAB_OUT", str(tmp_path / "env_out"))
    cfg = parse_config(["appendixB"])
    assert str(cfg.output_dir) == str(tmp_path / "env_out")


def test_main_config_error_exit_code():
    assert main(["spectrum", "--p", "2.0"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ([], "the following arguments are required: command"),
])
def test_invalid_command_line_exit_code(capsys, argv, message):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "config error: invalid command line" in err


def test_config_file_errors_name_file_and_line(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["spectrum", "--config", str(missing)]) == EXIT_CONFIG
    assert f"cannot read config file {missing}" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("p = 0.5\nN 32\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(bad)]) == EXIT_CONFIG
    assert f"{bad}:2: expected 'key = value'" in capsys.readouterr().err


@pytest.mark.parametrize("via_env", [False, True])
def test_uncreatable_output_dir_exits_config(tmp_path, capsys, monkeypatch,
                                             via_env):
    """An output directory under a file (flag) or equal to a file
    (BLOWUPLAB_OUT) is a config error, raised before any command runs."""
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    ran = []
    monkeypatch.setitem(cli._DISPATCH, "appendixB", ran.append)
    if via_env:
        out = blocker
        monkeypatch.setenv("BLOWUPLAB_OUT", str(out))
        argv = ["appendixB"]
    else:
        out = blocker / "x"
        argv = ["appendixB", "--output-dir", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: cannot create output directory {out}: " in err
    assert "Traceback" not in err
    assert not ran


def test_nul_output_dir_in_config_file_exits_config(tmp_path, capsys,
                                                    monkeypatch):
    """An output_dir with a NUL byte, which only a config file can carry,
    is a config error naming the directory, and no file is written."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output_dir = a\0b\n", encoding="utf-8")
    monkeypatch.delenv("BLOWUPLAB_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["appendixB", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: cannot create output directory a\0b: " in err
    assert "Traceback" not in err
    assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]


def test_numerical_value_error_exit_code(tmp_path, monkeypatch):
    # a ValueError raised while computing is a numerical failure, not a
    # configuration error
    def ill_conditioned(cfg):
        raise ValueError("neutral modes nearly degenerate")

    monkeypatch.setitem(cli._DISPATCH, "appendixB", ill_conditioned)
    cfg = parse_config(["appendixB", "--output-dir", str(tmp_path)])
    assert run(cfg) == EXIT_NUMERICAL
    assert (tmp_path / "manifest.txt").exists()


def test_numerical_failure_keeps_earlier_check_lines(tmp_path, capsys,
                                                    monkeypatch):
    """Under `all` each command's check lines are printed as it returns, so
    a later numerical failure (exit 3) keeps them on stdout, and the
    manifest records them."""
    def passes(cfg):
        return [("stub", True, "ran")]

    def fails(cfg):
        raise ValueError("trajectory diverged")

    monkeypatch.setattr(cli, "_DISPATCH", {"first": passes, "second": fails})
    assert main(["all", "--output-dir", str(tmp_path)]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == "PASS stub: ran\n"
    assert "numerical failure in second: trajectory diverged" in err
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "check_stub = pass (ran)" in manifest
    assert "timing_first_s" in manifest and "timing_second_s" not in manifest


def test_unmeasured_gap_exit_code(tmp_path, capsys, monkeypatch):
    """A gap the spectrum cannot measure fails the `spectrum` gap check
    (exit 4); semigroup-check gates on OMEGA0 and measures no spectrum."""
    def no_gap(p, grid):
        return linop.SpectrumReport(eigenvalues=np.zeros(0),
                                    residuals=np.zeros(0))

    monkeypatch.setattr(linop, "spectrum", no_gap)
    code = main(["spectrum", "--N", "32", "--output-dir", str(tmp_path)])
    assert code == EXIT_ACCEPTANCE
    assert "FAIL gap: omega0=nan gap_raw=nan" in capsys.readouterr().out

    def no_spectrum(*args, **kwargs):
        raise AssertionError("semigroup-check measured the spectrum")

    monkeypatch.setattr(linop, "spectrum", no_spectrum)
    assert main(["semigroup-check", "--output-dir", str(tmp_path)]) == EXIT_PASS


def test_evolve_tiny_tau_max_fails_decay_check(tmp_path, capsys):
    # one step of 1e-14 leaves no sample in the fit window: rate nan, exit 4
    code = main(["evolve", "--tau-max", "1e-14", "--N", "32",
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_ACCEPTANCE
    assert "FAIL decay_rate: rate=nan" in capsys.readouterr().out


def test_evolve_crosschecks_at_p_half(tmp_path, capsys):
    # the characteristic lattice is the light cone, so the crosscheck runs
    # at p = 0.5; the decay fit fails its r^2 there (exit 4, not 3)
    code = main(["evolve", "--p", "0.5", "--N", "32",
                 "--output-dir", str(tmp_path)])
    assert code != EXIT_NUMERICAL
    assert "PASS crosscheck" in capsys.readouterr().out


def test_evolve_tiny_dt_exits_before_any_step(tmp_path, capsys, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("evolve stepped")

    monkeypatch.setattr(evolve, "step_similarity", no_step)
    code = main(["evolve", "--dt", "1e-6", "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "takes 12000000 steps" in capsys.readouterr().err


@pytest.mark.parametrize("argv,steps", [
    (["evolve", "--dt", "5e-324"], "inf"),
    (["all", "--dt", "1e-7"], "120000000"),
])
def test_dt_past_step_cap_exits_config_before_any_command(tmp_path, capsys,
                                                          argv, steps):
    """A dt that takes more than MAX_SIMILARITY_STEPS steps to tau_max is a
    config error naming dt, also when the step count overflows to inf and
    under `all`, whose other commands do not read dt: nothing runs."""
    code = main([*argv, "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"dt = {float(argv[-1]):g} takes {steps} steps" in err
    assert not list(tmp_path.rglob("*.csv"))


def test_modulate_unconverged_fit_exits_acceptance(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(modulation, "FIT_MAX_ITER", 1)
    code = main(["modulate", "--output-dir", str(tmp_path)])
    assert code == EXIT_ACCEPTANCE
    assert "FAIL modulation_converged: iters=1 " in capsys.readouterr().out
    assert not list(tmp_path.glob("decay_*_modulated.csv"))


@pytest.mark.parametrize("p", [0.75, 0.9, 0.99])
def test_modulate_passes_at_five_times_the_default_epsilon(tmp_path, capsys,
                                                           p):
    """At epsilon = 5e-4 the fitted point's trajectory starts from the data
    modulated_decay evolves, so the modulated data decay at the gap rate."""
    code = main(["modulate", "--epsilon", "5e-4", "--p", str(p),
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_PASS, capsys.readouterr().out
    assert "PASS modulated_decay" in capsys.readouterr().out


def test_non_numerical_error_propagates(tmp_path, monkeypatch):
    # a missing module is not a numerical result: it propagates instead of
    # exiting 3, and the manifest is still written
    def missing_scipy(cfg):
        raise ImportError("No module named 'scipy.integrate'")

    monkeypatch.setitem(cli._DISPATCH, "appendixB", missing_scipy)
    cfg = parse_config(["appendixB", "--output-dir", str(tmp_path)])
    with pytest.raises(ImportError, match="scipy.integrate"):
        run(cfg)
    assert (tmp_path / "manifest.txt").exists()


def test_parse_records_given_keys(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("N = 48\n")
    cfg = parse_config(["spectrum", "--config", str(f), "--p", "0.75"])
    assert cfg.given == {"N", "p"}
    assert parse_config(["spectrum"]).given == frozenset()


@pytest.mark.parametrize("flags,p", [(["--p", "0.75"], "0.75"), ([], "0.99")])
def test_instability_p1_honours_explicit_p(tmp_path, flags, p):
    # an explicit --p equal to the schema default is still the user's choice;
    # only an absent p falls back to the command's default 0.99
    cfg = parse_config(["instability-p1", "--output-dir", str(tmp_path), *flags])
    run(cfg)
    assert [f.name for f in tmp_path.glob("instability_*.csv")] == [
        f"instability_p{p}.csv"]
    with open(tmp_path / f"instability_p{p}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(float(row["p"]) == float(p) for row in rows)
    # the manifest records the p the run used
    manifest = dict(line.split(" = ", 1) for line in
                    (tmp_path / "manifest.txt").read_text().splitlines())
    assert float(manifest["p"]) == float(p)


def _reference_csv(path, header, rows):
    # the writers the library modules used before the CLI took over:
    # csv.writer, every float at 17 significant digits
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([v if isinstance(v, int) else f"{v:.17g}" for v in row])


def test_mode_scan_csv_matches_reference_writer(tmp_path, monkeypatch):
    results = [(0j, 3.5e-12), (0.1 - 0.2j, 0.4182736450192837),
               (2.9 + 3j, math.nan)]
    continued = [False, True, True]
    lams, defects = (np.array(v) for v in zip(*results))
    scan = modeanalysis.ModeScan(lams, defects, np.array(continued),
                                 failures=[])
    monkeypatch.setattr(modeanalysis, "mode_scan", lambda p, grid: scan)
    cfg = parse_config(["mode-scan", "--output-dir", str(tmp_path / "run")])
    assert run(cfg) == EXIT_ACCEPTANCE          # the NaN fails the check
    _reference_csv(tmp_path / "ref.csv",
                   ["re_lambda", "im_lambda", "defect", "continued"],
                   [(lam.real, lam.imag, d, int(cont))
                    for (lam, d), cont in zip(results, continued)])
    assert ((tmp_path / "run" / "mode_scan.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())
    assert "1 NaN" in (tmp_path / "run" / "manifest.txt").read_text()
    assert not list(tmp_path.glob("run/*.tmp"))


def test_mode_scan_reports_method_counts_and_first_failure(tmp_path,
                                                           monkeypatch):
    # at p = 0.75 the closed form degenerates at lambda = 0.5, 1.5, 2.5, so
    # those three go to the continuation; make the one at 1.5 fail
    continue_defect = modeanalysis.connection_defect

    def failing_at_1p5(p, lam, N=modeanalysis.DEFAULT_SERIES_N):
        if abs(lam - 1.5) < 1e-9:
            raise RuntimeError("continuation failed: step size underflow")
        return continue_defect(p, lam, N)

    monkeypatch.setattr(modeanalysis, "connection_defect", failing_at_1p5)
    cfg = parse_config(["mode-scan", "--output-dir", str(tmp_path)])
    assert run(cfg) == EXIT_ACCEPTANCE
    manifest = (tmp_path / "manifest.txt").read_text()
    assert ("1891 points (1888 closed form, 3 continuation), 1 violations, "
            "1 NaN (lam=1.5+0j: continuation failed: step size underflow)"
            in manifest)


@pytest.mark.parametrize("flags", [["--lambda-step", "1e-7"],
                                   ["--lambda-re-min=-1e300"],
                                   ["--lambda-re-min=-1e308",
                                    "--lambda-re-max=1e308"]])
def test_oversized_lambda_grid_exits_config(tmp_path, capsys, monkeypatch,
                                            flags):
    """A grid above MAX_LAMBDA_POINTS, or of infinitely many points, is a
    config error before any scan array exists."""
    def no_grid(*args, **kwargs):
        raise AssertionError("a lambda grid was built")

    monkeypatch.setattr(modeanalysis, "default_lambda_grid", no_grid)
    code = main(["mode-scan", *flags, "--output-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "MAX_LAMBDA_POINTS" in capsys.readouterr().err


def test_mode_scan_fine_step_passes(tmp_path, capsys):
    """At step 0.01 each disc about 0 and 1 holds many points, whose
    defects rise continuously off the eigenvalue (1.0e-2 at 0.05i); only
    the smallest in each disc must vanish."""
    code = main(["mode-scan", "--lambda-step", "0.01", "--lambda-re-max",
                 "1.5", "--lambda-im-max", "0.5", "--output-dir",
                 str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS, out
    assert "0 violations, 0 NaN" in out


def test_mode_scan_nan_in_disc_is_a_violation(tmp_path, capsys, monkeypatch):
    lams = np.array([0.0, 0.05j, 0.5, 1.0, 1.03])
    defects = np.array([0.0, math.nan, 0.4, 1e-12, 2e-3])
    scan = modeanalysis.ModeScan(lams, defects, np.zeros(5, dtype=bool),
                                 failures=[])
    monkeypatch.setattr(modeanalysis, "mode_scan", lambda p, grid: scan)
    assert main(["mode-scan", "--output-dir", str(tmp_path)]) == EXIT_ACCEPTANCE
    assert "1 violations, 1 NaN" in capsys.readouterr().out


def test_manifest_written_atomically(tmp_path, monkeypatch):
    cfg = parse_config(["appendixB", "--output-dir", str(tmp_path)])
    assert run(cfg) == EXIT_PASS
    assert not list(tmp_path.glob("*.tmp"))
    before = (tmp_path / "manifest.txt").read_text()

    def rename_fails(src, dst):
        raise OSError("disk full")

    # the rename after the temporary file is written fails: the previous
    # manifest stays and no temporary file is left behind
    monkeypatch.setattr(cli.os, "replace", rename_fails)
    with pytest.raises(OSError, match="disk full"):
        cli._write_manifest(cfg, [("appendixB", 1.0)], [])
    assert (tmp_path / "manifest.txt").read_text() == before
    assert not list(tmp_path.glob("*.tmp"))
    monkeypatch.undo()

    # a failure while the rows are being written leaves the previous CSV
    csv_before = (tmp_path / "appendixB.csv").read_bytes()

    def rows():
        yield ("jump", 1.0)
        raise ValueError("row failed")

    with pytest.raises(ValueError, match="row failed"):
        cli.write_csv(tmp_path / "appendixB.csv", ["quantity", "value"], rows())
    assert (tmp_path / "appendixB.csv").read_bytes() == csv_before
    assert not list(tmp_path.glob("*.tmp"))


def test_modulation_csv_matches_reference_writer(tmp_path, monkeypatch):
    history = [(1, 0.75, 1.0, 0.0, 1.25e-5, -3.0e-6, 7.5e-7, 2.2e-4),
               (2, 0.7500125, 0.99999925, -2.5e-6, 1e-9, 2e-10, -3e-11, 4e-9)]
    state = modulation.ModulationState(
        p_star=0.7500125, T_star=0.99999925, kappa_star=-2.5e-6,
        correction_norm=4e-9, iterations=2, converged=False, history=history)
    monkeypatch.setattr(modulation, "fit_parameters", lambda *a, **kw: state)
    cfg = parse_config(["modulate", "--output-dir", str(tmp_path / "run")])
    assert run(cfg) == EXIT_ACCEPTANCE          # not converged
    _reference_csv(tmp_path / "ref.csv",
                   ["iter", "p", "T", "kappa", "l_g0", "l_f0", "l_f1",
                    "correction_norm"], history)
    assert ((tmp_path / "run" / "modulation_modulate.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())
    assert not list(tmp_path.glob("run/*.tmp"))


def test_appendixB_run_passes(tmp_path, capsys):
    cfg = parse_config(["appendixB", "--output-dir", str(tmp_path)])
    assert run(cfg) == EXIT_PASS
    out = capsys.readouterr().out
    assert "PASS" in out
    assert (tmp_path / "manifest.txt").exists()
    assert (tmp_path / "appendixB.csv").exists()
    with open(tmp_path / "appendixB.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["quantity", "value"]


def test_manifest_contains_resolved_config_and_seed(tmp_path):
    cfg = parse_config(["profile-check", "--output-dir", str(tmp_path),
                        "--seed", "11"])
    assert run(cfg) == EXIT_PASS
    text = (tmp_path / "manifest.txt").read_text()
    assert "seed = 11" in text
    assert "command = profile-check" in text
    assert "rng = philox" in text
    assert "timing_profile-check_s" in text


def _manifest(out_dir) -> dict:
    return dict(line.split(" = ", 1) for line in
                (out_dir / "manifest.txt").read_text().splitlines())


def test_manifest_lists_the_config_keys_no_command_read(tmp_path):
    """`unread_keys` names the keys no command of the run read: x0 at
    `evolve`, which has no shift, but not at `profile-check`, which
    evaluates the profile at x0.  Every key stays in the manifest."""
    assert main(["evolve", "--x0", "0.5",
                 "--output-dir", str(tmp_path / "evolve")]) == EXIT_PASS
    manifest = _manifest(tmp_path / "evolve")
    assert manifest["x0"] == "0.5"
    assert manifest["unread_keys"].split(", ") == [
        "lambda_im_max", "lambda_re_max", "lambda_re_min", "lambda_step",
        "seed", "x0"]
    assert run(parse_config(["profile-check", "--output-dir",
                             str(tmp_path / "profile")])) == EXIT_PASS
    unread = _manifest(tmp_path / "profile")["unread_keys"].split(", ")
    assert "x0" not in unread and "seed" not in unread
    assert "N" in unread and "x0" in _manifest(tmp_path / "profile")


def test_manifest_names_the_directory_blowuplab_out_chose(tmp_path,
                                                          monkeypatch):
    """Under BLOWUPLAB_OUT the manifest's output_dir is the directory the
    run wrote its manifest and CSVs to, not the flag's."""
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("BLOWUPLAB_OUT", str(env_out))
    assert main(["appendixB", "--output-dir",
                 str(tmp_path / "flag_out")]) == EXIT_PASS
    assert _manifest(env_out)["output_dir"] == str(env_out)
    assert (env_out / "appendixB.csv").exists()
    assert not (tmp_path / "flag_out").exists()


def test_manifest_records_environment(tmp_path):
    # a fresh process, so that sys.modules holds only what mode-scan loaded;
    # OPENBLAS_NUM_THREADS unset, so the manifest shows the CLI's default
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src),
           "BLOWUPLAB_OUT": str(tmp_path)}
    env.pop("OPENBLAS_NUM_THREADS", None)
    subprocess.run([sys.executable, "-m", "blowuplab.cli", "mode-scan",
                    "--p", "0.5"],
                   env=env, check=True, capture_output=True)
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert all(" = " in line and line.split(" = ", 1)[0].strip()
               for line in lines)
    manifest = dict(line.split(" = ", 1) for line in lines)
    for key in ("numpy_version", "blas", "nproc", "openblas_num_threads",
                "scipy_modules"):
        assert manifest[key]
    assert int(manifest["nproc"]) >= 1
    assert manifest["openblas_num_threads"] == "1"
    # the scan at p = 0.5 continues no point, so it needs no scipy at all
    assert manifest["scipy_modules"] == "none"
    assert "scipy_version" not in manifest


def _cli_subprocess(argv, out_dir, threads=None):
    """Exit code of `python -m blowuplab.cli argv` in a fresh process that
    writes to out_dir, with OPENBLAS_NUM_THREADS set to threads or unset."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "BLOWUPLAB_OUT": str(out_dir)}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return subprocess.run([sys.executable, "-m", "blowuplab.cli", *argv],
                          env=env, capture_output=True).returncode


def test_all_loads_no_scipy(tmp_path):
    """The spectral split needs no Schur form and the propagators take
    linop._expm, so no command loads scipy: the manifest of `all`, which
    runs every command in one process, lists no scipy module."""
    assert _cli_subprocess(["all", "--seed", "0"], tmp_path) == EXIT_PASS
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    manifest = dict(line.split(" = ", 1) for line in lines)
    assert manifest["scipy_modules"] == "none"
    assert "scipy_version" not in manifest


SCIPY_BLOCKED = textwrap.dedent("""
    import sys

    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")

    sys.meta_path.insert(0, BlockScipy())
    from blowuplab import cli

    codes = [cli.main([cmd, "--output-dir", sys.argv[1]])
             for cmd in ("semigroup-check", "evolve", "modulate")]
    try:
        import scipy
    except ImportError:
        print("blocked", *codes)
""")


def test_propagator_commands_run_with_scipy_blocked(tmp_path):
    """The three commands that take expm(h L_p) pass in a process where
    every scipy import raises."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1].split() == ["blocked"] + ["0"] * 3


@pytest.mark.slow
@pytest.mark.parametrize("p", ["0.75", "0.72"])
def test_semigroup_check_N96_exit_code_independent_of_threads(tmp_path, p):
    """semigroup-check --N 96 flipped with the BLAS thread count at the
    Schur split: at p = 0.75 err_P0 read 6.8e-7 on one thread and 2.25e-6
    on two, against the 1e-6 gate.  The refined split reads 6.6e-8 and
    7.8e-8 at these p on either count."""
    codes = {threads: _cli_subprocess(["semigroup-check", "--N", "96",
                                       "--p", p], tmp_path / str(threads),
                                      threads)
             for threads in (1, 2)}
    assert codes == {1: EXIT_PASS, 2: EXIT_PASS}


def test_manifest_nproc_without_sched_getaffinity(tmp_path, monkeypatch):
    """Where os has no sched_getaffinity (macOS, Windows) the run still
    passes and the manifest records os.cpu_count()."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    cfg = parse_config(["appendixB", "--output-dir", str(tmp_path)])
    assert run(cfg) == EXIT_PASS
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert f"nproc = {os.cpu_count()}" in lines


def test_manifest_records_source_tree_version(tmp_path):
    """The manifest records the version of pyproject.toml also when the
    package runs from the source tree, with no installed metadata."""
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    expected = tomllib.loads(pyproject.read_text())["project"]["version"]
    cfg = parse_config(["appendixB", "--output-dir", str(tmp_path)])
    cli._write_manifest(cfg, [], [])
    assert f"version = {expected}\n" in (tmp_path / "manifest.txt").read_text()


def test_profile_check_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        cfg = parse_config(["profile-check", "--output-dir", str(d),
                            "--seed", "42"])
        assert run(cfg) == EXIT_PASS
    csv1 = (d1 / "profile_residuals.csv").read_bytes()
    csv2 = (d2 / "profile_residuals.csv").read_bytes()
    assert csv1 == csv2


def test_profile_check_seed_186_passes(tmp_path):
    """In float64 seed 186 read res(h = 1e-3) = 1.006e-9 at p = 0.75, the
    eps/h^2 roundoff floor of the stencil, against the 1e-9 gate."""
    cfg = parse_config(["profile-check", "--output-dir", str(tmp_path),
                        "--seed", "186"])
    assert run(cfg) == EXIT_PASS


# A NaN behind a finite first value fails each check below; Python's max
# drops it (max(0.5, nan) is 0.5).

def test_spectrum_nan_eigen_triple_residual_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(linop, "eigen_triple_residuals", lambda p, N: {
        "res_f0": 1e-9, "res_f1": math.nan, "res_g0": 1e-9, "res_L2g0": 1e-9})
    cfg = parse_config(["spectrum", "--N", "32", "--output-dir",
                        str(tmp_path)])
    checks = {name: ok for name, ok, _ in cli._run_spectrum(cfg)}
    assert checks["gap"] and checks["ranks"] and not checks["eigen_triples"]


def test_spectrum_csv_lists_every_eigenvalue(tmp_path):
    code = main(["spectrum", "--N", "32", "--output-dir", str(tmp_path)])
    assert code == EXIT_PASS
    with open(tmp_path / "spectrum_p0.75_N32.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re", "im", "residual"]
    # one eigenvalue per unknown of the state (c, v, q2): 2 N + 3
    assert len(rows) - 1 == 2 * 32 + 3


def test_instability_nan_slope_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(evolve, "ode_blowup_instability", lambda p, kappa: {
        "slopes": {0.0: 0.5, 1.0: math.nan}, "expected_slope": 0.5,
        "smallness": 0.5})
    cfg = parse_config(["instability-p1", "--output-dir", str(tmp_path)])
    checks = {name: ok for name, ok, _ in cli._run_instability_p1(cfg)}
    assert checks["smallness"] and not checks["divergence_slopes"]


@pytest.mark.parametrize("p,kappa", [("0.999", "0.3"), ("0.99", "2.5")])
def test_instability_p1_passes_with_large_shift(tmp_path, p, kappa):
    # the norm turns linear only once (1-p) tau is past the shift kappa,
    # which here is well beyond tau = 200
    code = main(["instability-p1", "--p", p, "--kappa", kappa,
                 "--output-dir", str(tmp_path)])
    assert code == EXIT_PASS
    with open(tmp_path / f"instability_p{p}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        exp = float(row["expected_slope"])
        assert float(row["slope"]) == pytest.approx(exp, rel=1e-3), row["a"]


def test_every_csv_has_header(tmp_path):
    cfg = parse_config(["profile-check", "--output-dir", str(tmp_path)])
    run(cfg)
    for path in tmp_path.glob("*.csv"):
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header and not any(ch.isdigit() for ch in header[0])


@pytest.mark.parametrize("command", ["spectrum", "evolve", "instability-p1"])
def test_p_one_numerical_failure_names_p(tmp_path, capsys, command):
    # g0 exists only for p < 1, and the divergence slope vanishes at p = 1,
    # so each command fails with a cause that names p = 1 rather than a
    # bare division by zero or a slope check that cannot pass
    code = main([command, "--p", "1", "--output-dir", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "p = 1" in capsys.readouterr().err
    # rejected before any eigenvalues are taken, so no spectrum is written
    assert not list(tmp_path.glob("spectrum_*.csv"))
