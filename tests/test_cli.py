"""Front-end: config resolution, exit codes, CSV/manifest contracts."""

import csv
import math

import pytest

from blowuplab import cli, modeanalysis, modulation
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


def test_unknown_command_rejected():
    with pytest.raises(ConfigError):
        RunConfig(command="frobnicate")


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOWUPLAB_OUT", str(tmp_path / "env_out"))
    cfg = parse_config(["appendixB"])
    assert str(cfg.output_dir) == str(tmp_path / "env_out")


def test_main_config_error_exit_code():
    assert main(["spectrum", "--p", "2.0"]) == EXIT_CONFIG


def test_numerical_value_error_exit_code(tmp_path, monkeypatch):
    # a ValueError raised while computing is a numerical failure, not a
    # configuration error
    def ill_conditioned(cfg):
        raise ValueError("Gram matrix ill-conditioned")

    monkeypatch.setitem(cli._DISPATCH, "appendixB", ill_conditioned)
    cfg = parse_config(["appendixB", "--output-dir", str(tmp_path)])
    assert run(cfg) == EXIT_NUMERICAL
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
    scan = modeanalysis.ModeScan(results, continued=continued, failures=[])
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
                   ["iter", "p", "T", "kappa", "F1", "F2", "F3",
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


def test_profile_check_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        cfg = parse_config(["profile-check", "--output-dir", str(d),
                            "--seed", "42"])
        assert run(cfg) == EXIT_PASS
    csv1 = (d1 / "profile_residuals.csv").read_bytes()
    csv2 = (d2 / "profile_residuals.csv").read_bytes()
    assert csv1 == csv2


def test_every_csv_has_header(tmp_path):
    cfg = parse_config(["profile-check", "--output-dir", str(tmp_path)])
    run(cfg)
    for path in tmp_path.glob("*.csv"):
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header and not any(ch.isdigit() for ch in header[0])
