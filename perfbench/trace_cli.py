"""Run one ``blowuplab`` command with a span around every public function.

    python perfbench/trace_cli.py SPAN_DIR RUN_ID LAUNCH_T COMMAND [ARGS...]

The package must be importable (``PYTHONPATH=src``).  Each module of the
package is a layer: ``cli``, ``profiles``, ``chebgrid``, ``modeanalysis``,
``linop``, ``evolve`` and ``modulation``.  Every public function defined in
one of them is replaced by a wrapper that records a span named
``<layer>.<function>``, in its own module and in every module that imported
it by value (``from .linop import riesz_projectors_for``).  Generator
functions are timed while they run, between resumption and yield, so a
span covers the generator's iteration and not its creation.

A span row is ``[id, parent, name, start, end, busy]`` (plus the value of
one argument for the functions in ``ARG_TAGS``); ``busy`` is ``end - start``
except for generators.  Times are ``time.perf_counter()`` seconds, which is
CLOCK_MONOTONIC on Linux and so comparable across processes; LAUNCH_T is the
launcher's clock reading just before it started this process, so the
``cli.import`` span covers interpreter start-up plus the imports.

Spans stay in memory and are written to ``SPAN_DIR/spans-<pid>.json`` when
the process ends. A second line holds the time the writing took and the
time the wrapper adds to one call, measured on a no-op function, so the
tracing overhead of the process is its span count times that cost plus the
writing time. Forked ``multiprocessing`` workers leave through
``os._exit``, which skips ``atexit``, so they write theirs from a
``multiprocessing`` finalizer, which their bootstrap runs before exiting.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import sys
import time

LAYERS = ("cli", "profiles", "chebgrid", "modeanalysis", "linop", "evolve",
          "modulation")
# span name -> argument whose value the span records
ARG_TAGS = {"linop.spectrum": "p"}

_clock = time.perf_counter


class Tracer:
    def __init__(self, span_dir: str, run_id: str):
        self.span_dir = span_dir
        self.run_id = run_id
        self.fork_parent = None
        self._reset()

    def _reset(self):
        self.spans = []
        self.stack = []
        self.next_id = 0

    def begin(self) -> tuple[int, int | None]:
        sid = self.next_id
        self.next_id += 1
        return sid, (self.stack[-1] if self.stack else None)

    def wrap(self, name: str, fn):
        tag = ARG_TAGS.get(name)
        sig = inspect.signature(fn) if tag else None

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                sid, parent = self.begin()
                first = last = None
                busy = 0.0
                try:
                    while True:
                        self.stack.append(sid)
                        t0 = _clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            t1 = _clock()
                            self.stack.pop()
                            busy += t1 - t0
                            first = t0 if first is None else first
                            last = t1
                        yield item
                finally:
                    it.close()
                    if first is not None:
                        self.spans.append([sid, parent, name, first, last, busy])
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self.begin()
            self.stack.append(sid)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                self.stack.pop()
                row = [sid, parent, name, t0, t1, t1 - t0]
                if tag:
                    row.append(sig.bind(*args, **kwargs).arguments.get(tag))
                self.spans.append(row)
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, wherever they are bound."""
        modules = {layer: importlib.import_module(f"blowuplab.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
        atexit.register(self.flush)
        multiprocessing.util.register_after_fork(self, Tracer._in_worker)

    def _in_worker(self):
        # runs in a forked multiprocessing child after its bootstrap cleared
        # the inherited finalizers
        self.fork_parent = [os.getppid(), self.stack[-1] if self.stack else None]
        self._reset()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def span_cost(self, calls: int = 2000, repeats: int = 5) -> float:
        """Seconds the wrapper adds to one call, the least over `repeats`."""
        def noop():
            return None

        wrapped = Tracer(self.span_dir, self.run_id).wrap("probe", noop)
        best = float("inf")
        for _ in range(repeats):
            t0 = _clock()
            for _ in range(calls):
                wrapped()
            t1 = _clock()
            for _ in range(calls):
                noop()
            best = min(best, (t1 - t0) - (_clock() - t1))
        return max(best, 0.0) / calls

    def flush(self) -> None:
        t0 = _clock()
        names = sorted({row[2] for row in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[r[0], r[1], index[r[2]], *r[3:]] for r in self.spans]
        doc = {"run_id": self.run_id, "pid": os.getpid(),
               "fork_parent": self.fork_parent, "names": names, "spans": rows}
        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            cost = {"flush_s": _clock() - t0, "span_cost_s": self.span_cost()}
            fh.write("\n" + json.dumps(cost) + "\n")
        os.replace(path + ".tmp", path)
        self.spans = []


def main(argv: list[str]) -> int:
    span_dir, run_id, launch_t, *cli_args = argv
    tracer = Tracer(span_dir, run_id)
    sid, _ = tracer.begin()
    for layer in LAYERS:
        importlib.import_module(f"blowuplab.{layer}")
    importlib.import_module("mpmath")         # imported lazily by linop
    t1 = _clock()
    tracer.spans.append([sid, None, "cli.import", float(launch_t), t1,
                         t1 - float(launch_t)])
    tracer.install()
    from blowuplab import cli
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
