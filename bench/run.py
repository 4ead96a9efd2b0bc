#!/usr/bin/env python3
"""qmask benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 bench/run.py                                  # every workload, one fresh process each
    python3 bench/run.py --workload crosscheck --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A workload run is a closed loop with one caller: each op
starts when the previous one has returned and been checked.  Inputs
are generated from ``--seed`` before timing starts.

A run makes whole passes over the workload's pool of distinct inputs
until ``--seconds`` of op time are spent, and times each op by its
best of those passes.  On a machine shared with other tenants, speed
drifts by up to 2x in phases of tens of seconds; the best of many
passes spread over the run is what stays put from run to run.  The
price: a change that only adds sporadic stalls does not show.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes in which every public qmask function is
wrapped, half of ``--seconds`` each, prints the per-layer metrics of
each input's best traced op, and writes all spans to ``bench/out/``.
Metric names and units are those of ``BENCHMARK.json``;
``bench/design.json`` says which end-to-end metric each per-layer
metric should move, on which workload.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one caller and no helper threads: pin BLAS before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 9  # interpreter starts per run, spread over it; setup_s is their median

# The child prints the monotonic clock (system-wide on Linux) right after
# the import returns; the parent read the same clock before spawning it.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import qmask.cli; "
    "t = time.monotonic_ns(); print(t, qmask.cli.__file__)"
)


def start_interpreter() -> float:
    """Seconds from spawning a fresh interpreter until ``import qmask.cli`` returns."""
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    ready, path = proc.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup imported qmask from {path.strip()}, not from {SRC}")
    return (int(ready) - t0) / 1e9


class Loop:
    """Closed-loop op runner: times each op, checks it, tallies outcomes."""

    def __init__(self, workload, cases):
        from workloads import FAIL, MISS

        self.workload = workload
        self.cases = cases
        self.fail, self.miss = FAIL, MISS
        self.attempted = self.failed = self.missed = 0
        self.digest = hashlib.sha256()  # over the first pass: one result per input, in order
        self.reported = set()

    def run(self, seconds: float, call=None, after_pass=None) -> list[int]:
        """Whole passes over the cases, at least one, until their op time reaches ``seconds``.

        ``after_pass`` gets the share of ``seconds`` spent so far after each
        pass.  Returns every op's duration in ns; op i ran case i % len(cases).
        """
        from qmask.errors import MaskingError

        durations = []
        budget = int(seconds * 1e9)
        spent = 0
        while not durations or spent < budget:
            for case in self.cases:
                i = len(durations)
                out = exc = None
                t0 = time.perf_counter_ns()
                try:
                    out = call(i, self.workload.op, case) if call else self.workload.op(case)
                except Exception as err:  # an op that raises is counted, and the loop goes on
                    exc = err
                dt = time.perf_counter_ns() - t0
                durations.append(dt)
                spent += dt
                if exc is None:
                    outcome = self.workload.check(case, out)
                else:
                    outcome = self.workload.check(case, None) if isinstance(exc, MaskingError) else self.fail
                self._tally(i, case, out, exc, outcome)
            if after_pass:
                after_pass(spent / budget)
        return durations

    def _tally(self, i, case, out, exc, outcome):
        self.attempted += 1
        if outcome == self.fail:
            self.failed += 1
            kind = type(exc).__name__ if exc else "check"
            if kind not in self.reported:  # first failure of each kind, on stderr
                self.reported.add(kind)
                print(f"op {i} failed ({kind}) on {case!r}", file=sys.stderr)
                if exc:
                    traceback.print_exception(exc, file=sys.stderr)
        elif outcome == self.miss:
            self.missed += 1
        if self.attempted <= len(self.cases):
            text = repr(exc) if exc else self.workload.text(out)
            self.digest.update(text.encode("utf-8"))


def best_ops(durations: list[int], pool: int) -> list[int]:
    """Index of each input's fastest op."""
    best = list(range(pool))
    for i in range(pool, len(durations)):
        if durations[i] < durations[best[i % pool]]:
            best[i % pool] = i
    return best


def throughput(best_ms: list[float]) -> float:
    """Ops per second over one pass with every op at its best time."""
    return len(best_ms) / (sum(best_ms) / 1e3)


def layer_metrics(s, overhead: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from a traced run's spans (per op unless a ratio)."""
    return {
        "oracle.grid_deviations.calls": s.calls("oracle.grid_deviations"),
        "oracle.grid_deviations.nodes": s.work_per_op("oracle.grid_deviations"),
        "oracle.grid_deviations.ns_per_node": s.ns_per_unit("oracle.grid_deviations"),
        "oracle.self_frac": s.self_frac("oracle"),
        "crosscheck.agreement_report.self_ms": s.self_us("crosscheck.agreement_report") / 1e3,
        "crosscheck.self_frac": s.self_frac("crosscheck"),
        "analysis.maskable_set.self_us": s.self_us("analysis.maskable_set"),
        "analysis.extract_constraints.calls": s.calls("analysis.extract_constraints"),
        "analysis.extract_constraints.self_us": s.self_us("analysis.extract_constraints"),
        "analysis.product_form_diagnosis.self_us": s.self_us("analysis.product_form_diagnosis"),
        "analysis.class_distance.self_us": s.self_us("analysis.class_distance"),
        "analysis.self_frac": s.self_frac("analysis"),
        "analysis.errors": s.errors("analysis"),
        "bloch.sample_circle.us_per_point": s.ns_per_unit("bloch.sample_circle") / 1e3,
        "bloch.bloch_to_angles.calls": s.calls("bloch.bloch_to_angles"),
        "bloch.intersect_circles.calls": s.calls("bloch.intersect_circles"),
        "bloch.intersect_circles.self_us": s.self_us("bloch.intersect_circles"),
        "bloch.self_frac": s.self_frac("bloch"),
        "masking.verify_mask.us_per_state": s.ns_per_unit("masking.verify_mask") / 1e3,
        "masking.apply_masker.calls": s.calls("masking.apply_masker"),
        "masking.build_masker.self_us": s.self_us("masking.build_masker"),
        "masking.self_frac": s.self_frac("masking"),
        "linalg.partial_trace.calls": s.calls("linalg.partial_trace_a") + s.calls("linalg.partial_trace_b"),
        "linalg.self_frac": s.self_frac("linalg"),
        "protocol.encode.us_per_share": s.ns_per_unit("protocol.encode") / 1e3,
        "protocol.decode.us_per_share": s.ns_per_unit("protocol.decode") / 1e3,
        "protocol.share_constraint.calls": s.calls("protocol.share_constraint"),
        "protocol.errors": s.errors("protocol"),
        "protocol.self_frac": s.self_frac("protocol"),
        "documents.dump.self_us": s.self_us("documents.dump"),
        "documents.self_frac": s.self_frac("documents"),
        "bench.self_frac": s.self_frac("bench"),
        "trace.overhead_frac": overhead,
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import qmask
    import tracing
    from workloads import WORKLOADS

    if not Path(qmask.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported qmask from {qmask.__file__}, not from {SRC}")
    workload = WORKLOADS[name]
    cases = workload.make_inputs(np.random.default_rng(seed), workload.pool)
    loop = Loop(workload, cases)

    lines = [f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}, {len(cases)} distinct inputs"]
    if trace:
        # alternate plain and traced passes, so that slow phases of the
        # machine fall on both sides of the overhead comparison alike
        tracer = tracing.Tracer()
        plain, traced = [], []
        while sum(plain) < seconds / 2 * 1e9 or sum(traced) < seconds / 2 * 1e9:
            plain += loop.run(0)
            base = len(traced)
            with tracing.installed(tracer):
                traced += loop.run(0, call=lambda i, fn, case: tracer.run_op(base + i, fn, case))
        best = best_ops(traced, len(cases))
        summary = tracing.Summary(tracer, best)
        overhead = 1.0 - throughput([traced[i] / 1e6 for i in best]) / throughput(
            [plain[i] / 1e6 for i in best_ops(plain, len(cases))]
        )
        values = layer_metrics(summary, overhead)
        accounted = sum(summary.self_frac(layer) for layer in tracing.LAYERS + ("bench",))
        if abs(accounted - 1.0) > 1e-9:
            raise RuntimeError(f"layer self times account for {accounted!r} of op time, not 1")
        spans = BENCH / "out" / f"{name}.spans.json.gz"  # the latest traced run of each workload
        tracer.write(spans)
        lines.append(
            f"  {len(plain) // len(cases)} untraced passes alternating with as many traced ones; "
            f"{len(tracer.start)} spans written to {spans.relative_to(ROOT)}; per-layer metrics over "
            f"the {summary.n_ops} best traced ops, whose layer self times + bench.self_frac = {accounted:.12f}"
        )
        wanted = spec["per_layer"]
    else:
        setup = []

        def sample_setup(done: float) -> None:
            # interpreter starts spread over the run, between passes, so that
            # setup_s samples the same slow and quiet phases the ops do
            while len(setup) < SETUP_REPEATS and done >= len(setup) / SETUP_REPEATS:
                setup.append(start_interpreter())

        sample_setup(0.0)
        durations = loop.run(seconds, after_pass=sample_setup)
        sample_setup(1.0)
        best_ms = [durations[i] / 1e6 for i in best_ops(durations, len(cases))]
        ok = loop.attempted - loop.failed - loop.missed
        values = {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": throughput(best_ms),
            "op_p50_ms": statistics.median(best_ms),
            "op_p90_ms": statistics.quantiles(best_ms, n=10, method="inclusive")[-1],
            "ok_ratio": ok / loop.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines.append(
            f"  setup_s: median of {len(setup)} interpreter starts; timings: best of "
            f"{len(durations) // len(cases)} passes for each of {len(cases)} inputs ({len(durations)} timed ops); "
            f"ok_ratio = {ok}/{loop.attempted} ops ({loop.failed} failed, {loop.missed} noisy-share misses)"
        )
        wanted = spec["end_to_end"]

    if sorted(values) != sorted(m["name"] for m in wanted):
        raise RuntimeError("metrics computed here differ from those listed in BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        lines.append(f"  {m['name']:<42} {values[m['name']]:>14.6g} {m['unit']}")
    lines.append(f"  digest sha256 {loop.digest.hexdigest()} over the first pass ({len(cases)} ops)")
    print("\n".join(lines))
    correct = loop.failed == 0
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(names, seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    results, status = {}, 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        body, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        print(body, flush=True)
        status = status or proc.returncode
        if proc.returncode == 0 or last.startswith("{"):
            results[name] = json.loads(last)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    if not SPEC.is_file() or not (SRC / "qmask" / "__init__.py").is_file():
        print(f"bench: run from a qmask source checkout ({SPEC.name} and src/qmask/ are needed)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    design = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))
    if sorted(design["workloads"]) != sorted(names) or sorted(design["per_layer"]) != sorted(
        m["name"] for m in spec["per_layer"]
    ):
        print("bench: bench/design.json and BENCHMARK.json name different workloads or metrics", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds, args.trace)
    return run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
