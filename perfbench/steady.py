"""Steadiness of the benchmark: fresh processes, several seeds, two sets.

    python3 perfbench/steady.py

Two sets, one after the other.  In each, for every workload of
BENCHMARK.json, runs ``run.py --trace 0`` for ``run_seconds`` once per
seed 1-10, each in a fresh process, then ``run.py --trace 1`` on seeds 1
and 2.  Prints, for every end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as
a share of the median, next to the metric's bound from BENCHMARK.json,
and from the second set on the change of the median against the first.

Exits 1 when a run is incorrect, when a work count (certificate nodes
and prunes, moves of each kind, stabilisations, link sizes, and in the
traced runs compose and FreeAutomorphism constructions, less the calls
a workload declares as ``seeded_calls``) differs between runs or seeds,
when the failed share of operations differs, when a spread of any
end-to-end metric exceeds a third of its bound, or when a median moves
by more than its bound, up or down, between the sets.  The report is
also written as JSON under perfbench/out/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACED_SEEDS = SEEDS[:2]
SETS = 2


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} printed no result (exit {proc.returncode}):\n"
                         f"{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    report = {"seeds": SEEDS, "seconds": seconds, "sets": []}
    for set_index in range(SETS):
        this_set = {}
        for workload in workloads:
            runs = []
            for seed in SEEDS:
                work, result = _run(workload, seed, seconds, 0)
                runs.append({"seed": seed, "work": work, "result": result})
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
            traced = []
            for seed in TRACED_SEEDS:
                work, result = _run(workload, seed, seconds, 1)
                traced.append({"seed": seed, "work": work, "result": result})
            this_set[workload] = {"runs": runs, "traced": traced}
        report["sets"].append(this_set)

    print()
    print(f"{'workload':<15} {'metric':<13} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10}"
          f" {'spread':>7} {'bound':>6} {'vs set 1':>8}")
    for workload in workloads:
        works, failed_shares, calls = set(), set(), set()
        for this_set in report["sets"]:
            data = this_set[workload]
            for run in data["runs"]:
                result = run["result"]
                if not result["correct"]:
                    problems.append(f"{workload} seed {run['seed']}: incorrect")
                works.add(json.dumps(run["work"]["work"], sort_keys=True))
                failed_shares.add(result["failed"] / result["attempted"])
            for run in data["traced"]:
                work = run["work"]
                works.add(json.dumps(work["work"], sort_keys=True))
                # calls a workload declares seed-dependent are taken out; a
                # list means the count differed between rounds of one run
                calls.add(tuple(
                    json.dumps(value if isinstance(value, list) else value - work["seeded_calls"])
                    for value in (work["freegroup.compose.calls"], work["freegroup.aut_new.calls"])
                ))
        if len(works) != 1:
            problems.append(f"{workload}: work counts differ between runs or seeds")
        if len(failed_shares) != 1:
            problems.append(f"{workload}: failed share differs between runs")
        if len(calls) != 1 or any("[" in c for pair in calls for c in pair):
            problems.append(f"{workload}: compose or aut_new calls differ between runs")
        for metric, bound in bounds.items():
            first = None
            for set_index, this_set in enumerate(report["sets"]):
                values = [r["result"]["metrics"][metric]["value"] for r in this_set[workload]["runs"]]
                median, q1, q3, spread = _spread(values)
                change = "" if first is None else f"{median / first - 1:+.1%}"
                print(f"{workload:<15} {metric:<13} {set_index + 1:>3} {median:>10.4g} {q1:>10.4g}"
                      f" {q3:>10.4g} {spread:>7.1%} {bound:>6.0%} {change:>8}")
                if spread > bound / 3:
                    problems.append(f"{workload} {metric}: set {set_index + 1} spread "
                                    f"{spread:.1%} > a third of bound {bound:.0%}")
                if first is not None and abs(median / first - 1) > bound:
                    problems.append(f"{workload} {metric}: set {set_index + 1} median "
                                    f"{median / first - 1:+.1%} against set 1, bound {bound:.0%}")
                first = median if first is None else first
    report["problems"] = problems
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print()
    for problem in problems:
        print(f"problem: {problem}")
    print(f"report: {path.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
