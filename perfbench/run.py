"""Benchmark for openbook: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload certify-phi --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; openbook is imported from its ``src``
directory.  A single caller in one thread runs whole rounds of the
workload's fixed batch, each after the previous one returned, until
``--seconds`` have passed (at least one round).  The first round's
outputs are checked against the reference computations in ``oracle``;
every later round must return exactly the same outputs.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing openbook, loading and validating the
pages and building the seeded inputs), ``round_s`` (median round time,
checks excluded) and ``peak_rss_mib``.  Both times are wall times scaled
to a reference host speed sampled while they run (``hostspeed.py``);
the plain median round wall time is printed with the work counts.  ``--trace 1`` wraps
openbook's public functions (see ``tracing.py``), alternates untraced and
traced rounds, and prints the per-layer metrics of one set-up plus one
round, with ``trace.overhead_s``.  The last line of standard output is
the result as one JSON object; the line before it holds the work counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 13
SETUP_INTERVAL_S = 0.02  # a set-up lasts about 0.1 s: sample the host speed often
PROBE_TIMEOUT_S = 60


def _import_openbook():
    """Import openbook from this checkout's sources, and nowhere else."""
    if not (SRC / "openbook" / "__init__.py").is_file():
        raise SystemExit(f"error: no openbook sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import openbook

    if Path(openbook.__file__).resolve().parent != SRC / "openbook":
        raise SystemExit(f"error: openbook imported from {openbook.__file__}, not {SRC}")
    return openbook


def _probe(workload, seed):
    """Set-up time in this fresh interpreter (import, pages, inputs),
    scaled to the reference host speed."""
    from workloads import WORKLOADS

    def setup():
        _import_openbook()
        WORKLOADS[workload](seed)

    return hostspeed.scaled(setup, SETUP_INTERVAL_S)[2]


def _setup_samples(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _count_failed(out):
    """Failed operations in a round: its output is a list of per-operation
    results, or a tuple of such lists."""
    from workloads import _failed

    groups = out if isinstance(out, tuple) else (out,)
    return sum(_failed(result) for group in groups for result in group)


class Run:
    """Rounds of one workload; the first is checked, the rest compared."""

    def __init__(self, bench):
        self.bench = bench
        self.first = None
        self.work = None
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def one_round(self, scale=True):
        """Run, count and check one round; return its wall time and that
        time scaled to the reference host speed (None if not scaled)."""
        gc.collect()
        if scale:
            out, elapsed, at_reference = hostspeed.scaled(self.bench.round)
        else:
            start = time.perf_counter()
            out = self.bench.round()
            elapsed, at_reference = time.perf_counter() - start, None
        self.attempted += self.bench.ops()
        self.failed += _count_failed(out)
        if self.first is None:
            self.first = out
            self.failures.extend(self.bench.check(out))
            self.work = self.bench.work(out)
        elif out != self.first:
            self.failures.append("a round returned other outputs than the first")
        return elapsed, at_reference


def _untraced(bench, seconds):
    run = Run(bench)
    walls, times = [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        wall, at_reference = run.one_round()
        walls.append(wall)
        times.append(at_reference)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "round_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mib": {"value": peak, "unit": "MiB"},
    }
    return run, metrics, {"rounds": len(times), "round_wall_s": statistics.median(walls)}


def _traced(workload, seed, seconds):
    from tracing import SELF_ONLY, SPAN_NAMES, Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    tracer.install()
    bench = WORKLOADS[workload](seed)
    setup = tracer.snapshot()
    tracer.uninstall()
    run = Run(bench)
    plain, traced, per_round = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run.one_round(scale=False)[0])
        tracer.reset_counts()
        tracer.install()
        traced.append(run.one_round(scale=False)[0])
        tracer.uninstall()
        tracer.record = False  # spans of the set-up and first traced round only
        per_round.append(tracer.snapshot())

    def total(key, name=None):
        base = setup[key] if name is None else setup[key][name]
        values = [r[key] if name is None else r[key][name] for r in per_round]
        middle = statistics.median_low if isinstance(base, int) else statistics.median
        return base + middle(values)

    metrics = {}
    for name in SPAN_NAMES:
        if name not in SELF_ONLY:
            metrics[f"{name}.calls"] = {"value": total("calls", name), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": total("self_s", name), "unit": "s"}
    metrics["freegroup.image_letters"] = {"value": total("image_letters"), "unit": "count"}
    nodes = total("search_nodes")
    search_s = total("search_s")
    metrics["factorsearch.nodes"] = {"value": nodes, "unit": "count"}
    metrics["factorsearch.nodes_per_s"] = {
        "value": nodes / search_s if search_s else 0.0, "unit": "1/s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
    keep = ("freegroup.compose", "freegroup.aut_new")
    counts = {f"{n}.calls": [r["calls"][n] for r in per_round] for n in keep}
    extra = {"rounds": len(plain) + len(traced),
             "seeded_calls": getattr(bench, "seeded_calls", 0)}
    for key, values in counts.items():
        extra[key] = values[0] if len(set(values)) == 1 else values
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    return run, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.probe:
        print(repr(_probe(args.workload, args.seed)))
        return 0

    _import_openbook()
    if args.trace:
        run, metrics, extra = _traced(args.workload, args.seed, args.seconds)
    else:
        samples = _setup_samples(args.workload, args.seed)
        run, metrics, extra = _untraced(WORKLOADS[args.workload](args.seed), args.seconds)
        metrics = {"setup_s": {"value": statistics.median(samples), "unit": "s"}, **metrics}
    for failure in run.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"work": run.work, **extra}, sort_keys=True))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
