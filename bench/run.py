"""kinsila benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload {catalog,rebased,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; kinsila is imported from
``src/``.  The load is a closed loop with one client: one operation at a
time, from this single process, no threads, and for ``cli`` at most one
child process at a time.  One operation is one ``classify`` call on a
freshly built ``LieAlgebra`` (``catalog``, ``rebased``) or one
``python -m kinsila.cli classify FILE --json`` process (``cli``).

Operations run in whole passes over the workload's inputs, each pass in
an order shuffled by the seed.  Passes continue until the run holds at
least MIN_OPS operations and another pass would end after ``--seconds``.
With ``--trace 0`` the last line of standard output is the end-to-end
result; its times are scaled to a fixed host speed (see PROBE_REF_S).
With ``--trace 1`` the layers are wrapped by ``spans.Tracer``, every
operation is also run once more with the wrappers removed (its outcome
must be the same; the latency ratio is the tracing overhead), the last
line carries the per-layer means, and the spans are written to
``bench/out/``.  The line before the last one holds the details:
environment, tail percentile, per-operation latencies, failures.
``--ops N`` runs one pass over the first N inputs (used by the self
test).  NOTES.md says what each number means.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Host-speed probe.  On a shared machine the same work takes up to three
# times longer from one second to the next (this probe: 23-68 ms within a
# few minutes), far more than any change a benchmark should detect.  Every
# reported time is therefore scaled by PROBE_REF_S over the time the probe
# took just before it: it is given in seconds of a host on which the probe
# takes PROBE_REF_S.  The probe is fixed exact arithmetic from the standard
# library, so nothing in kinsila can change its time.  The unscaled values
# are in the detail line.
PROBE_REF_S = 0.035


def probe_seconds() -> float:
    """Time a fixed piece of Fraction arithmetic, with the collector off."""
    row = [Fraction(i, 7) for i in range(1, 40)]
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for _ in range(250):
            for x in row:
                acc += x * x
        return time.perf_counter() - start
    finally:
        gc.enable()


START_PROBE = probe_seconds()
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

END_TO_END = ("setup_s", "latency_p50_s", "latency_tail_s",
              "throughput_ops_per_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
         "throughput_ops_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metrics taken from the tracer: "<span name>.<kind>"
LAYER_METRICS = (
    "kinematics.validate.s", "kinematics.omega_and_radical.s",
    "kinematics.transvection_and_holonomy.s", "kinematics.z_action_split.s",
    "kinematics.kahler_split.s", "kinematics.poincare_certificate.s",
    "kinematics.classify.self_s",
    "repth.is_simple.calls", "repth.is_simple.s", "repth.is_simple.env_ratio",
    "repth.enveloping_basis.calls", "repth.enveloping_basis.s",
    "repth.enveloping_basis.dim_sum", "repth.hom_space.calls",
    "repth.hom_space.s", "repth.hom_space.unknowns",
    "repth.simple_decomposition.s", "repth.invariant_complement.s",
    "repth.match_decompositions.s", "repth.nondegenerate_invariant_form.s",
    "exactla.kernel.calls", "exactla.kernel.s", "exactla.kernel.cells",
    "exactla.kernel.input_bits", "exactla.rank.calls", "exactla.rank.s",
    "exactla.Subspace.span.calls", "exactla.Subspace.span.s",
    "exactla.Mat.matmul.calls", "exactla.Mat.matmul.s",
    "exactla.Mat.init.calls", "exactla.sn_decomposition.s",
    "liecore.LieAlgebra.init.s", "liecore.bracket.calls",
    "liecore.bracket_span.s", "liecore.solvable_radical.s",
    "liecore.levi_complement.s", "liecore.is_automorphism.calls",
    "liecore.is_automorphism.s",
    "catalog.make.s",
    "documents.parse_text.s", "documents.entry_to_document.s",
    "cli.main.s",
)
# kind -> (column of Tracer.totals, unit); "ratio" is counter over calls
_KINDS = {
    "calls": (0, "count"), "s": (1, "s"), "self_s": (2, "s"),
    "dim_sum": (3, "count"), "unknowns": (3, "count"), "cells": (3, "count"),
    "input_bits": (4, "bit"), "env_ratio": ("ratio", "ratio"),
}
# spans that only run while inputs are built: reported per call in set-up
SETUP_LAYERS = ("catalog.make", "documents.entry_to_document")
# enough operations per run that ten of them lie above the tail percentile
# and that percentile still lies above the median
MIN_OPS = 21


def tail(latencies):
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile, samples above).  With ten samples or
    fewer there is no such percentile; the maximum is returned with zero
    samples above it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def environment(rebase_seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rebased_seed": rebase_seed,
    }


def import_seconds(env, runs=3):
    """Median time of ``import kinsila.cli`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import kinsila.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def make_workload(name, traced):
    from workloads import Catalog, Cli, Rebased

    if name == "cli":
        return Cli(SRC, traced)
    return {"catalog": Catalog, "rebased": Rebased}[name]()


def run(workload_name, seed, seconds, traced, ops_limit=None):
    """Run one benchmark; return (result line, detail dict)."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import OUT_DIR, load_oracle

    import kinsila.cli  # noqa: F401  (every layer the tracer wraps)

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    oracle = load_oracle()
    workload = make_workload(workload_name, traced)
    names = workload.op_names()
    if ops_limit is not None:
        names = names[:ops_limit]
    ops = workload.setup(names, seed)
    rng = random.Random(seed)

    records = []          # (op name, latency, failure or None, probe)
    marks = []            # when each operation's probe started and ended
    untraced = []         # traced runs: latency of the same op, wrappers off
    digests = {}          # op name -> digest of its outcome
    passes = 0
    begin = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            if tracer is not None:
                tracer.bucket = len(records)
            mark = time.perf_counter()
            probe = probe_seconds()
            marks.append((mark, mark + probe))
            latency, outcome, failure = timed_op(workload, op, tracer)
            if failure is None:
                failure = workload.check(op, outcome, oracle)
            if failure is None:
                digests[op.name] = workload.digest(outcome)
            if tracer is not None:
                # the same operation with every wrapper removed: its answer
                # must not change, and the latency ratio is the overhead
                tracer.uninstall()
                try:
                    plain, plain_outcome, plain_failure = timed_op(
                        workload, op, None)
                finally:
                    tracer.install()
                untraced.append(plain)
                if failure is None and (
                        plain_failure is not None
                        or workload.digest(plain_outcome) != digests[op.name]):
                    failure = "traced and untraced outcomes differ"
            records.append((op.name, latency, failure, probe))
        passes += 1
        elapsed = time.perf_counter() - begin
        if ops_limit is not None or (
                len(records) >= MIN_OPS
                and elapsed * (passes + 1) / passes > seconds):
            break
    end = time.perf_counter()

    latencies = [r[1] for r in records]
    failures = [(r[0], r[2]) for r in records if r[2] is not None]
    attempted = len(records)
    scale = [PROBE_REF_S / r[3] for r in records]
    adjusted = [t * k for t, k in zip(latencies, scale)]
    # the timed passes, probes excluded, each stretch scaled by its probe
    starts = [m[0] for m in marks[1:]] + [end]
    wall = sum((nxt - probe_end) * k
               for (_, probe_end), nxt, k in zip(marks, starts, scale))
    raw_wall = end - begin - sum(b - a for a, b in marks)
    tail_value, tail_pct, tail_beyond = tail(adjusted)
    detail = {
        "workload": workload_name,
        "seed": seed,
        "traced": bool(traced),
        "environment": environment(seed if workload_name == "rebased" else None),
        "passes": passes,
        "operations": attempted,
        "timed_wall_s": end - begin,
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": tail_beyond,
        "outcome_digests": digests,
        "latencies": [[r[0], r[1]] for r in records],
        "probes": [r[3] for r in records],
    }
    if tracer is None:
        if workload_name == "cli":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup = marks[0][0] - PROCESS_START
        correct = attempted - len(failures)
        values = {
            "setup_s": setup * PROBE_REF_S / ((START_PROBE + records[0][3]) / 2),
            "latency_p50_s": statistics.median(adjusted),
            "latency_tail_s": tail_value,
            "throughput_ops_per_s": correct / wall,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        detail["unscaled"] = {
            "setup_s": setup,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail(latencies)[0],
            "throughput_ops_per_s": correct / raw_wall,
        }
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}
    else:
        tracer.uninstall()
        metrics = layer_metrics(tracer, attempted, latencies, untraced,
                                workload)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"{workload_name}-seed{seed}.trace.json"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(BENCH_DIR.parent))
        detail["self_time_error_s"] = tracer.self_time_error()
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return line, detail


def timed_op(workload, op, tracer):
    """Prepare op untimed, then time it; returns (latency, outcome,
    failure).  Any exception is a failed operation."""
    if tracer is not None:
        bucket = tracer.bucket
        tracer.bucket = ("prep", bucket)
    prepared = workload.prepare(op)
    if tracer is not None:
        tracer.bucket = bucket
    outcome = failure = None
    t0 = time.perf_counter()
    try:
        outcome = workload.execute(prepared)
    except Exception as exc:  # every traceback is a failed operation
        failure = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.bucket = "check"
    return t1 - t0, outcome, failure


def layer_metrics(tracer, n_ops, latencies, untraced, workload):
    """Per-operation means of every per-layer metric."""
    op_buckets = [b for b in tracer.totals
                  if isinstance(b, int) or (isinstance(b, tuple) and b[0] == "prep")]
    metrics = {}
    for metric in LAYER_METRICS:
        span, kind = metric.rsplit(".", 1)
        column, unit = _KINDS[kind]
        if span in SETUP_LAYERS:
            calls = tracer.layer_sum(span, ["setup"], 0)
            value = tracer.layer_sum(span, ["setup"], 1) / calls if calls else 0.0
        elif column == "ratio":
            calls = tracer.layer_sum(span, op_buckets, 0)
            value = tracer.layer_sum(span, op_buckets, 3) / calls if calls else 0.0
        else:
            value = tracer.layer_sum(span, op_buckets, column) / n_ops
        metrics[metric] = {"value": value, "unit": unit}
    metrics["cli.import.s"] = {
        "value": import_seconds(workload.env) if workload.name == "cli" else 0.0,
        "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(latencies) / statistics.median(untraced) - 1,
        "unit": "ratio"}
    metrics["trace.extras.s"] = {
        "value": tracer.layer_sum("trace.extras", op_buckets, 1) / n_ops,
        "unit": "s"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "rebased", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="keep only the first N inputs of the workload")
    args = parser.parse_args(argv)
    if not (SRC / "kinsila" / "__init__.py").is_file():
        print(f"no kinsila sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    line, detail = run(args.workload, args.seed, args.seconds, args.trace,
                       args.ops)
    for key, m in line["metrics"].items():
        print(f"{args.workload:8s} {key:40s} {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(f"{args.workload:8s} {'fail_ratio':40s} {detail['fail_ratio']:.6g} "
          f"({line['failed']}/{line['attempted']})", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
