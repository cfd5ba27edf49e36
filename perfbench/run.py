"""blowuplab benchmark: closed-loop runs of ``python -m blowuplab.cli``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``. One
client runs a workload's commands one after another, each in a fresh
process, as a user would. The whole sequence is a pass; the run makes one
pass, and more while the next is expected to end within ``--seconds``. Every
pass is timed, and every metric is the median over the passes. Outputs go to
a scratch directory under ``.perfbench_work/`` and are verified: exit codes,
PASS lines, finite CSV values, and agreement with the reference samples in
``perfbench/reference``.

With ``--trace 0`` the run prints the end-to-end metrics; before and after
the passes it times ``SETUP_REPEATS`` fresh interpreters that import the
package and everything it imports lazily, and reports the median of all of
them as ``setup_s``. With ``--trace 1`` the passes launch the commands
through ``trace_cli.py`` and the run prints the per-layer metrics, among
them the time tracing added (``trace.overhead_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is a
command's exit status, a check line it prints, or a verification made here;
``failed / attempted`` is the failure ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
WORKLOADS = {
    "certify": [
        ["profile-check", "--seed", "{seed}"],
        ["instability-p1", "--p", "0.99"],
        ["appendixB"],
        ["spectrum"],
        ["semigroup-check", "--seed", "{seed}"],
        ["evolve"],
    ],
    "mode-scan": [["mode-scan", "--p", "0.5"]],
    "modulate": [["modulate", "--epsilon", "1e-4"]],
}
COMMANDS = [args[0] for seq in WORKLOADS.values() for args in seq]
SETUP_REPEATS = 2             # fresh imports before and again after the passes
IMPORTS = ", ".join([f"blowuplab.{m}" for m in layers.LAYERS] + ["mpmath"])
RUN_LIMIT_S = 170.0           # a run must end within 180 s
MODE_SCAN_POINTS = 1891       # default rectangle, step 0.1
SMOOTH_TOL = 1e-6             # the mode-scan gate's "smooth" threshold
SLOPE_RTOL = 1e-9


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    returncode: int
    stdout: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def launch(self, argv: list[str], out_dir: Path | None = None) -> Proc:
        """Run one process to its end; wall, CPU and RSS include its pool."""
        env = self.env if out_dir is None else dict(self.env,
                                                    BLOWUPLAB_OUT=str(out_dir))
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise TimeoutError("run time limit reached")
        with tempfile.TemporaryFile("w+", dir=self.work) as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=env, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            killer = threading.Timer(timeout, os.killpg,
                                     (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            log.seek(0)
            out = log.read()
        return Proc(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode, out)

    def cli(self, args: list[str], out_dir: Path, span_dir: Path | None,
            run_id: str) -> Proc:
        if span_dir is None:
            return self.launch([sys.executable, "-m", "blowuplab.cli", *args],
                               out_dir)
        launch_t = repr(time.perf_counter())
        return self.launch([sys.executable, str(HERE / "trace_cli.py"),
                            str(span_dir), run_id, launch_t, *args], out_dir)


# ---------------------------------------------------------------------------
# verification

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None      # a label, such as appendixB.csv's quantity names


def verify_csvs(out_dir: Path, tally: Tally) -> None:
    for path in sorted(out_dir.glob("*.csv")):
        _, rows = _read_csv(path)
        values = [_number(v) for row in rows for v in row]
        bad = sum(1 for v in values if v is not None and not math.isfinite(v))
        tally.check(bool(rows) and bad == 0,
                    f"{path.name}: {bad} non-finite values")


def verify_mode_scan(out_dir: Path, tally: Tally) -> int:
    _, rows = _read_csv(out_dir / "mode_scan.csv")
    tally.check(len(rows) == MODE_SCAN_POINTS,
                f"mode_scan.csv has {len(rows)} rows, not {MODE_SCAN_POINTS}")
    defects = {}
    nan_count = 0
    for re_, im, defect, _ in rows:
        d = float(defect)
        if not tally.check(math.isfinite(d), f"defect at {re_}+{im}i is {d}"):
            nan_count += 1
        defects[(round(float(re_), 6), round(float(im), 6))] = d
    _, ref = _read_csv(REFERENCE / "mode_scan_p0.5.csv")
    for re_, im, defect, _ in ref:
        got = defects.get((round(float(re_), 6), round(float(im), 6)))
        tally.check(got is not None and abs(got - float(defect)) <= SMOOTH_TOL,
                    f"defect at {re_}+{im}i: {got} vs reference {defect}")
    return nan_count


def verify_instability(out_dir: Path, tally: Tally) -> None:
    _, rows = _read_csv(out_dir / "instability_p0.99.csv")
    slopes = {a: float(s) for _, a, s, _ in rows}
    _, ref = _read_csv(REFERENCE / "instability_p0.99.csv")
    for _, a, slope, _ in ref:
        got = slopes.get(a)
        tally.check(got is not None
                    and abs(got - float(slope)) <= SLOPE_RTOL * abs(float(slope)),
                    f"instability slope a={a}: {got} vs reference {slope}")


def verify_pass(procs: dict[str, Proc], out_dir: Path, tally: Tally) -> dict:
    """Check one pass's outputs; returns the facts the layer table reports."""
    facts = {"nan_count": 0, "fit_iterations": 0, "fit_converged": 0}
    for name, proc in procs.items():
        tally.check(proc.returncode == 0, f"{name} exited {proc.returncode}")
        checks = [ln for ln in proc.stdout.splitlines()
                  if ln.startswith(("PASS ", "FAIL "))]
        tally.check(bool(checks), f"{name} printed no check line")
        for line in checks:
            tally.check(line.startswith("PASS "), f"{name}: {line}")
    if any(p.returncode != 0 for p in procs.values()):
        return facts
    verify_csvs(out_dir, tally)
    if "mode-scan" in procs:
        facts["nan_count"] = verify_mode_scan(out_dir, tally)
    if "instability-p1" in procs:
        verify_instability(out_dir, tally)
    if "modulate" in procs:
        converged = "PASS modulation_converged" in procs["modulate"].stdout
        tally.check(converged, "modulate did not report converged")
        _, rows = _read_csv(out_dir / "modulation_modulate.csv")
        facts["fit_iterations"] = len(rows)
        facts["fit_converged"] = int(converged)
    return facts


# ---------------------------------------------------------------------------
# passes

def run_pass(runner: Runner, workload: str, seed: int, index: int,
             traced: bool, tally: Tally) -> dict:
    out_dir = Path(tempfile.mkdtemp(dir=runner.work))
    span_dir = out_dir / "spans" if traced else None
    if traced:
        span_dir.mkdir()
    procs = {}
    t0 = time.perf_counter()
    for args in WORKLOADS[workload]:
        args = [a.format(seed=seed) for a in args]
        procs[args[0]] = runner.cli(args, out_dir, span_dir,
                                    f"{workload}-{seed}-{index}-{args[0]}")
    wall = time.perf_counter() - t0
    facts = verify_pass(procs, out_dir, tally)
    m = {"wall_s": wall,
         "cpu_s": sum(p.cpu_s for p in procs.values()),
         "peak_rss_mb": max(p.max_rss_mb for p in procs.values())}
    if traced:
        spans = layers.load(span_dir)
        m.update(layers.layer_metrics(spans))
        unattributed = 0.0
        for cmd in COMMANDS:
            proc = procs.get(cmd)
            m[f"cli.{cmd}.wall_s"] = proc.wall_s if proc else 0.0
            if proc:
                run_id = f"{workload}-{seed}-{index}-{cmd}"
                unattributed += proc.wall_s - layers.attributed_s(spans, run_id)
        m["trace.unattributed_s"] = unattributed
        m["modeanalysis.mode_scan.nan_count"] = facts["nan_count"]
        m["modulation.fit_parameters.iterations"] = facts["fit_iterations"]
        m["modulation.fit_parameters.converged"] = facts["fit_converged"]
    shutil.rmtree(out_dir)
    return m


def measure_setup(runner: Runner, repeats: int) -> list[float]:
    """Start-up plus import times of fresh interpreters."""
    times = []
    for _ in range(repeats):
        proc = runner.launch([sys.executable, "-c", f"import {IMPORTS}"])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed:\n{proc.stdout}")
        times.append(proc.wall_s)
    return times


def environment(root: Path, args) -> dict:
    """Versions, BLAS, cores and commit, recorded with every result."""
    import numpy

    env = {"python": platform.python_version(),
           "numpy": numpy.__version__,
           "scipy": metadata.version("scipy"),
           "mpmath": metadata.version("mpmath"),
           "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
           "nproc": len(os.sched_getaffinity(0)),
           "os_cpu_count": os.cpu_count(),
           "git_commit": None, "git_dirty": None}
    if (root / ".git").exists():
        env["git_commit"] = _command_output(["git", "rev-parse", "HEAD"], root)
        status = _command_output(["git", "status", "--porcelain"], root)
        env["git_dirty"] = None if status is None else bool(status)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    return env


def _command_output(argv: list[str], cwd: Path) -> str | None:
    try:
        return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def metric_specs(root: Path, trace: int) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "blowuplab" / "cli.py").is_file():
        print(f"no blowuplab sources under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    specs = metric_specs(root, args.trace)
    start = time.perf_counter()
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench_work"))
    runner = Runner(root, work, start + RUN_LIMIT_S)
    tally = Tally()
    env = environment(root, args)
    print("environment " + json.dumps(env, sort_keys=True))
    try:
        setup = [] if args.trace else measure_setup(runner, SETUP_REPEATS)
        passes, durations = [], []
        # another pass only while it is expected to end within --seconds
        while not passes or (time.perf_counter() - start
                             + statistics.median(durations) <= args.seconds):
            t0 = time.perf_counter()
            index = len(passes)
            m = run_pass(runner, args.workload, args.seed, index,
                         bool(args.trace), tally)
            passes.append(m)
            durations.append(time.perf_counter() - t0)
            print(f"pass {index}: wall {m['wall_s']:.3f} s, "
                  f"cpu {m['cpu_s']:.3f} s, peak rss {m['peak_rss_mb']:.1f} MB")
        if not args.trace:
            setup += measure_setup(runner, SETUP_REPEATS)
            print("setup samples: " + ", ".join(f"{t:.3f}" for t in setup))
            passes = [dict(m, setup_s=statistics.median(setup)) for m in passes]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for spec in specs:
        value = statistics.median(m[spec["name"]] for m in passes)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:48s} {value:16.6f} {spec['unit']}")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed "
          f"(fail_ratio {tally.failed / max(tally.attempted, 1):.6f})")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
