"""Summarise saved outputs of ``run.py`` as medians and quartiles.

    python3 perfbench/summarize.py OUT.json RESULT.txt [RESULT.txt ...]

Each RESULT.txt is the standard output of one ``run.py`` run.  Runs are
grouped by workload and by ``--trace``; for every metric the summary holds
the median, the quartiles of ``statistics.quantiles(values, n=4)``, the
spread ``(q3 - q1) / median`` and the number of runs, plus the environment
record and seeds of the runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def read_run(path: Path) -> tuple[dict, dict]:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    env = next(json.loads(ln.split(" ", 1)[1]) for ln in lines
               if ln.startswith("environment "))
    return env, json.loads(lines[-1])


def summarize(paths: list[Path]) -> dict:
    groups = defaultdict(list)
    for path in paths:
        env, result = read_run(path)
        groups[(env["workload"], "per_layer" if env["trace"] else "end_to_end")
               ].append((env, result))
    out = {}
    for (workload, kind), runs in sorted(groups.items()):
        values = defaultdict(list)
        units = {}
        for _, result in runs:
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
                units[name] = m["unit"]
        table = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            table[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0,
                           "unit": units[name], "runs": len(vals)}
        env = {k: v for k, v in runs[0][0].items() if k != "seed"}
        out.setdefault(workload, {})[kind] = {
            "seeds": [e["seed"] for e, _ in runs],
            "all_correct": all(r["correct"] for _, r in runs),
            "environment": env,
            "metrics": table,
        }
    return out


def main(argv: list[str]) -> int:
    out, *paths = argv
    summary = summarize([Path(p) for p in paths])
    Path(out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    for workload, kinds in summary.items():
        for kind, group in kinds.items():
            for name, m in group["metrics"].items():
                print(f"{workload:10s} {name:48s} median {m['median']:14.6f} "
                      f"{m['unit']:6s} spread {m['spread']:.4f} n={m['runs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
