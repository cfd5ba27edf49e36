"""Tests of the benchmark's tracer and span analysis.

    python3 -m pytest perfbench -q                 # all, ~4 min
    python3 -m pytest perfbench -q -m "not slow"   # span bookkeeping only

The slow tests run each workload traced and compare the call counts with
the ones the seed code makes.  Each count catches one way tracing can go
wrong: a by-value import left unwrapped (``riesz_projection`` is reached
through ``from .linop import riesz_projectors_for``), a generator timed only
at creation (``step_similarity`` runs inside ``evolve_states``), or spans
lost in forked pool workers (every ``connection_defect`` call).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import trace_cli

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_children():
    spans = [layers.Span(0, None, "cli.main", 0.0, 10.0, 10.0),
             layers.Span(1, 0, "linop.spectrum", 1.0, 4.0, 3.0),
             layers.Span(2, 1, "linop.assemble_Lp", 1.5, 2.0, 0.5),
             layers.Span(3, 0, "evolve.evolve_states", 5.0, 9.0, 2.0)]
    layers.set_self_times(spans)
    assert [s.self_s for s in spans] == [5.0, 2.5, 0.5, 2.0]


def test_generator_span_covers_iteration_not_consumer(tmp_path):
    tracer = trace_cli.Tracer(str(tmp_path), "t")
    child = tracer.wrap("chebgrid.child", lambda: time.sleep(0.01))

    def produce(n):
        for i in range(n):
            child()
            yield i

    gen = tracer.wrap("evolve.produce", produce)
    outer = tracer.wrap("evolve.consume",
                        lambda: [time.sleep(0.02) for _ in gen(3)])
    outer()
    by_name = {}
    for row in tracer.spans:
        by_name.setdefault(row[2], []).append(row)
    (gen_row,) = by_name["evolve.produce"]
    (outer_row,) = by_name["evolve.consume"]
    assert len(by_name["chebgrid.child"]) == 3
    assert all(r[1] == gen_row[0] for r in by_name["chebgrid.child"])
    assert gen_row[1] == outer_row[0]
    # busy time holds the three child calls but none of the consumer's sleeps
    assert 0.03 <= gen_row[5] < 0.075
    assert gen_row[4] - gen_row[3] > 0.07


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


# (workload, counts made by the seed code)
SEED_COUNTS = [
    ("certify", {"linop.riesz_projection.calls": 6,
                 "evolve.step_similarity.calls": 871}),
    ("mode-scan", {"modeanalysis.connection_defect.calls": 1891}),
    ("modulate", {"linop.riesz_projection.calls": 8,
                  "evolve.step_similarity.calls": 10432}),
]


@pytest.mark.slow
@pytest.mark.parametrize("workload,counts", SEED_COUNTS,
                         ids=[w for w, _ in SEED_COUNTS])
def test_traced_counts_match_seed(workload, counts):
    m = _traced(workload)
    for name, expected in counts.items():
        assert m[name] == expected, name
    # the spans and the writing of the span files account for each
    # command's wall time, up to interpreter exit: 0.1-0.3 s per process
    # that has imported numpy, scipy and mpmath, on a 2-core host
    walls = [v for k, v in m.items()
             if k.startswith("cli.") and k.endswith(".wall_s") and v]
    assert 0.0 <= m["trace.unattributed_s"] < 0.5 * len(walls)
    assert 0.0 < m["trace.overhead_s"] < 0.2 * sum(walls)
