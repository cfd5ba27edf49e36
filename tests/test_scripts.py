"""The sweep scripts in scripts/ run end to end and write their CSVs."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,argv,csvs", [
    ("run_mode_scans.py", ["--p", "0.5", "--step", "0.5"],
     ["mode_scans/p0.5/mode_scan.csv"]),
    ("run_instability_sweep.py", ["--p", "0.99"],
     ["instability/instability_p0.99.csv"]),
    ("run_modulation_sweep.py", ["--epsilon", "1e-5"],
     ["modulation_sweep/modulation_eps1e-05.csv",
      "modulation_sweep/decay_eps1e-05_modulated.csv"]),
], ids=["mode_scans", "instability_sweep", "modulation_sweep"])
def test_sweep_script_runs(script, argv, csvs, tmp_path, monkeypatch):
    # the scripts write under out/ relative to the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BLOWUPLAB_OUT", raising=False)
    run = runpy.run_path(str(SCRIPTS / script))["run"]
    assert run(argv) == 0
    for name in csvs:
        assert (tmp_path / "out" / name).is_file(), name
