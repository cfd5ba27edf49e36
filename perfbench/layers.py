"""Per-layer metrics from the span files that ``trace_cli.py`` writes.

A span's self time is its busy time minus the busy time of its child spans.
Spans of forked pool workers have no parent in their own file; they run in
parallel with their parent, so they are counted in the layer sums but not
subtracted from the parent's self time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from trace_cli import LAYERS


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    busy: float
    tag: object = None
    self_s: float = 0.0


@dataclass
class Process:
    pid: int
    run_id: str
    is_worker: bool
    flush_s: float
    span_cost_s: float
    spans: list[Span] = field(default_factory=list)

    @property
    def overhead_s(self) -> float:
        """Time tracing added to this process."""
        return len(self.spans) * self.span_cost_s + self.flush_s


def load(span_dir: Path) -> list[Process]:
    procs = []
    for path in sorted(span_dir.glob("spans-*.json")):
        doc_line, cost_line = path.read_text(encoding="utf-8").splitlines()
        doc = json.loads(doc_line)
        cost = json.loads(cost_line)
        names = doc["names"]
        spans = [Span(r[0], r[1], names[r[2]], *r[3:]) for r in doc["spans"]]
        set_self_times(spans)
        procs.append(Process(doc["pid"], doc["run_id"],
                             doc["fork_parent"] is not None, cost["flush_s"],
                             cost["span_cost_s"], spans))
    return procs


def set_self_times(spans: list[Span]) -> None:
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.busy
    for s in spans:
        s.self_s = s.busy - children[s.sid]


def _ancestors(span: Span, by_id: dict) -> list[str]:
    out = []
    while span.parent is not None:
        span = by_id[span.parent]
        out.append(span.name)
    return out


def layer_metrics(procs: list[Process]) -> dict[str, float]:
    """The per-layer metrics that the spans alone determine."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    spectrum_p = set()
    projector_builds = 0
    worker_pids = set()
    worker_defect_busy = 0.0
    for proc in procs:
        by_id = {s.sid: s for s in proc.spans}
        for s in proc.spans:
            calls[s.name] += 1
            busy[s.name] += s.busy
            self_s[s.name] += s.self_s
            layer_self[s.name.split(".", 1)[0]] += s.self_s
            if s.name == "linop.spectrum":
                spectrum_p.add((proc.run_id, s.tag))
            if (s.name == "linop.riesz_projectors_for"
                    and "modulation.fit_parameters" in _ancestors(s, by_id)):
                projector_builds += 1
        if proc.is_worker:
            worker_pids.add(proc.pid)
            worker_defect_busy += sum(s.busy for s in proc.spans
                                      if s.name == "modeanalysis.connection_defect")

    def per_call(name, scale):
        return scale * busy[name] / calls[name] if calls[name] else 0.0

    scan_capacity = busy["modeanalysis.mode_scan"] * len(worker_pids)
    m = {
        "cli.import_s": busy["cli.import"],
        "linop.riesz_projection.calls": calls["linop.riesz_projection"],
        "linop.riesz_projection.self_s": self_s["linop.riesz_projection"],
        "linop.riesz_projectors_for.calls": calls["linop.riesz_projectors_for"],
        "linop.spectrum.calls": calls["linop.spectrum"],
        "linop.spectrum.calls_per_distinct_p":
            calls["linop.spectrum"] / len(spectrum_p) if spectrum_p else 0.0,
        "linop.measured_gap.calls": calls["linop.measured_gap"],
        "linop.semigroup_action_check.self_s":
            self_s["linop.semigroup_action_check"],
        "linop.eigen_triple_residuals.self_s":
            self_s["linop.eigen_triple_residuals"],
        "modeanalysis.connection_defect.calls":
            calls["modeanalysis.connection_defect"],
        "modeanalysis.connection_defect.self_s":
            self_s["modeanalysis.connection_defect"],
        "modeanalysis.connection_defect.ms_per_call":
            per_call("modeanalysis.connection_defect", 1e3),
        "modeanalysis.pool_efficiency":
            worker_defect_busy / scan_capacity if scan_capacity else 0.0,
        "evolve.step_similarity.calls": calls["evolve.step_similarity"],
        "evolve.step_similarity.self_s": self_s["evolve.step_similarity"],
        "evolve.step_similarity.us_per_step":
            per_call("evolve.step_similarity", 1e6),
        "evolve.evolve_states.trajectories": calls["evolve.evolve_states"],
        "evolve.evolve_states.self_s": self_s["evolve.evolve_states"],
        "evolve.physical_space_crosscheck.self_s":
            self_s["evolve.physical_space_crosscheck"],
        "chebgrid.exponential_filter.calls": calls["chebgrid.exponential_filter"],
        "chebgrid.exponential_filter.self_s": self_s["chebgrid.exponential_filter"],
        "modulation.fit_parameters.self_s": self_s["modulation.fit_parameters"],
        "modulation.correction_functional.calls":
            calls["modulation.correction_functional"],
        "modulation.projector_builds": projector_builds,
        "profiles.pde_residual.calls": calls["profiles.pde_residual"],
        "profiles.pde_residual.self_s": self_s["profiles.pde_residual"],
    }
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    m["trace.overhead_s"] = sum(p.overhead_s for p in procs)
    return m


def attributed_s(procs: list[Process], run_id: str) -> float:
    """Self time of a command's own spans (workers excluded) plus the time
    its process took to write them."""
    main = [p for p in procs if p.run_id == run_id and not p.is_worker]
    return sum(p.flush_s + sum(s.self_s for s in p.spans) for p in main)
