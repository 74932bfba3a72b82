"""cubelab benchmark: one workload per run, exact outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, so nothing needs installing.  The workloads
are described in ``workloads.py`` and listed, with their metrics, in
``BENCHMARK.json``.

With ``--trace 0`` the run sets up (several times; the median is setup_s),
times PASSES passes over one plan of --seconds / PASSES nominal seconds with
tracing off, cross-checks the outputs off the clock, and reports the
end-to-end metrics.  Every pass builds fresh objects from the same
descriptors, so the passes repeat the same ops; each op's time is its best
over the passes, which leaves out the moments a shared host runs slower.
wall_s is the sum of those best op times, one pass at its best; ops_per_s
is taken over them too, and op_tail_ms is the mean of the slowest tenth (at
least ten).  The ops of a plan are unlike calls, so a single order
statistic, a median or a p90, jumps from one kind of call to another between
runs; a mean over the slowest tenth does not.  The median, the highest
percentile with ten ops beyond it and the interquartile mean are printed as
well, but not reported as metrics: on a shared host the sub-millisecond
calls around the median slow down more than the rest, and those figures
spread across runs by more than a bound could allow.

With ``--trace 1`` it runs one pass untraced, one with every public cubelab
function wrapped in spans, and one more untraced, and reports the per-layer
metrics; the tracing overhead is the traced wall time minus that of the last
pass.  Both print human-readable lines first and one JSON object last:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count the ops of every pass.

Exit code 0 means the run finished; ``correct`` says whether the outputs
matched.  A checkout without the package exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PASSES = 2
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import cubelab.harness, cubelab.cli; print(time.perf_counter() - t)")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]

CHECK_IDS = (
    "PARSEVAL", "FWHT-NAIVE", "DUAL", "INFLUENCE-XCHECK", "MONO-FOURIER", "PAPER5",
    "SUBCUBE-VB", "DICT-VB", "EX54", "EX74", "LEM32-WITNESS", "LEM111", "LEM32", "LEM42",
    "COR36", "LEM51", "LEM52", "LEM62", "PROP5", "THM18", "THM19", "THM110", "THM64",
    "GAUSS-EATON", "GL-halfplane", "LVL1-upper", "THM12-lower", "LVLK-upper", "THM14-band",
    "THM15-band", "PROP71", "IH-DERIV", "FDERIV", "NG", "SIGN-COND", "WK-PIPELINE",
    "THM17", "PROP92", "PROP93", "PROP16", "NSREMARK")
QUERY_METHODS = ("count_gt_scaled", "count_ge_scaled", "counts_gt_scaled",
                 "counts_ge_scaled", "first_value_tail_le", "support_window", "support")
BACKEND_CLASS = {"dense": "TailDistribution", "mitm": "MeetInMiddleDistribution"}

# per-layer self-time metric -> the span it reads
_SELF = {
    "spectral.fwht_spectrum": "spectral.fwht_spectrum",
    "influence.influences": "influence.influences",
    "influence.boundary_measures": "influence.boundary_measures",
    "bfcore.build": "bfcore.FunctionSpec.build",
    "bfcore.is_monotone": "bfcore.is_monotone",
    "bfcore.dual": "bfcore.dual",
    "levelk.elementary_symmetric_pointwise": "levelk.elementary_symmetric_pointwise",
    "levelk.level_k_pipeline": "levelk.level_k_pipeline",
    "levelk.sign_condition_holds": "levelk.sign_condition_holds",
    "correlate.best_halfspace_over_form": "correlate.best_halfspace_over_form",
    "correlate.threshold_integral_identity": "correlate.threshold_integral_identity",
    "correlate.unbiased_correlator": "correlate.unbiased_correlator",
    "correlate.noise_resistance_class": "correlate.noise_resistance_class",
    "chernoff.check_local_chernoff": "chernoff.check_local_chernoff",
    "chernoff.gaussian_tail_ratio": "chernoff.gaussian_tail_ratio",
    "harness.run_suite": "harness.run_suite",
    "harness.report_to_json": "harness.Report.to_json",
    **{f"check.{cid}": f"check.{cid}" for cid in CHECK_IDS},
}
# what each kernel boundary counts besides calls and self time
KERNEL_WORK = {"fwht": ("elements",), "signed_sum_counts": ("cells",),
               "dot_values": ("elements",)}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    out = []
    for kernel in tracing.KERNELS:
        kinds = ("calls", "self_s", *KERNEL_WORK.get(kernel, ()))
        out += [(f"kernels.{kernel}.{k}", "s" if k == "self_s" else "count") for k in kinds]
    out += [("halfspace.dist_build.dense.calls", "count"), ("halfspace.dist_build.dense.self_s", "s"),
            ("halfspace.dist_build.dense.max_len", "count"),
            ("halfspace.dist_build.mitm.calls", "count"), ("halfspace.dist_build.mitm.self_s", "s"),
            ("halfspace.dist_builds_per_member", "count"),
            ("halfspace.query.dense.calls", "count"), ("halfspace.query.dense.self_s", "s"),
            ("halfspace.query.mitm.calls", "count"), ("halfspace.query.mitm.self_s", "s"),
            ("spectral.fwht_spectrum.calls", "count"), ("spectral.fwht_spectrum.per_member", "count")]
    out += [(f"{name}.self_s", "s") for name in _SELF]
    out += [(f"layer.{layer}.self_s", "s") for layer in tracing.MODULES]
    out += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
            ("trace.self_s_total", "s"), ("trace.spans", "count"), ("trace.absent_names", "count"),
            ("computed.fwht_butterflies", "count"), ("computed.dp_cell_updates", "count"),
            ("computed.max_array_bytes", "bytes"), ("computed.max_array_over_l2", "ratio"),
            ("computed.max_array_over_l3", "ratio"),
            ("machine.l2_bytes", "bytes"), ("machine.l3_bytes", "bytes"),
            ("mix.members", "count"), ("mix.arity_min", "count"), ("mix.arity_max", "count"),
            ("mix.scaled_sum_min", "count"), ("mix.scaled_sum_max", "count"),
            ("mix.dense_share", "ratio")]
    return out


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cache_sizes() -> tuple[int, int]:
    """Per-core L2 and shared L3 sizes in bytes from sysfs (0 when unknown)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        factor = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        sizes[level] = int(text.rstrip("KM")) * factor
    return sizes.get(2, 0), sizes.get(3, 0)


# ---------------------------------------------------------------------------
# measurement helpers

def interquartile_mean(sorted_values: list[float]) -> float:
    """Mean of the middle half of sorted values."""
    quarter = len(sorted_values) // 4
    return statistics.fmean(sorted_values[quarter:len(sorted_values) - quarter])


def tail_count(count: int) -> int:
    """How many of the slowest ops op_tail_ms averages: a tenth, at least ten."""
    return min(count, max(10, math.ceil(count / 10)))


def import_seconds() -> float:
    """Median time to import the package, each time in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def release_free_memory() -> None:
    """Return the heap's free pages to the system (glibc), so that what one
    pass leaves on the heap does not add to the next pass's peak memory."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


def timed_phase(workload, plan, workloads_mod, tracer=None):
    """One pass over the plan: its recorder, results and wall time."""
    rec = workloads_mod.Recorder(tracer)
    gc.collect()
    release_free_memory()
    start = time.perf_counter()
    try:
        results = workload.run(plan, rec)
    except Exception as exc:  # a crash outside any op still ends in a result line
        rec.failed += 1
        rec.problem(f"workload raised {type(exc).__name__}: {exc}")
        results = {}
    wall = time.perf_counter() - start - rec.off_clock_s
    return rec, results, wall


def best_op_times(recs) -> list[tuple[float, str]]:
    """Each op's best time over the passes, with its label; ops that failed
    in every pass are left out."""
    best = []
    for times, label in zip(zip(*(rec.times for rec in recs)), recs[0].labels):
        ok = [t for t in times if not math.isnan(t)]
        if ok:
            best.append((min(ok), label))
    return best


def kernel_hooks(tracer):
    """Work counts recorded at the kernel and distribution-build boundaries."""
    import numpy as np

    def fwht(args, result):
        size = len(args[0])
        tracer.count("kernels.fwht.elements", size)
        tracer.count("computed.fwht_butterflies", size * int(size).bit_length() - size)
        tracer.peak("computed.max_array_bytes", args[0].nbytes)

    def signed_sum_counts(args, result):
        cells = 2 * int(np.sum(args[0])) + 1
        tracer.count("kernels.signed_sum_counts.cells", cells)
        tracer.count("computed.dp_cell_updates", len(args[0]) * cells)
        tracer.peak("computed.max_array_bytes", 2 * 8 * cells)

    def dot_values(args, result):
        tracer.count("kernels.dot_values.elements", len(result))
        tracer.peak("computed.max_array_bytes", result.nbytes)

    def table(args, result):
        tracer.peak("computed.max_array_bytes", args[0].nbytes)

    def build(args, result):
        if type(result).__name__ == BACKEND_CLASS["dense"]:
            tracer.peak("halfspace.dist_build.dense.max_len", 2 * int(np.sum(args[0])) + 1)
            return "halfspace.dist_build.dense"
        return "halfspace.dist_build.mitm"

    return {"kernels.fwht": fwht, "kernels.signed_sum_counts": signed_sum_counts,
            "kernels.dot_values": dot_values, "kernels.influence_counts": table,
            "kernels.boundary_counts": table, "kernels.monotone_violations": table,
            "halfspace.distribution_from_scaled": build}


def per_layer_metrics(tracer, members: int, wall: float, untraced: float, mix: dict):
    """Values of every per-layer metric, and the span names the package lacks."""
    values: dict[str, float] = {}
    absent: set[str] = set()

    def spans(*names):
        known = [n for n in names if n in tracer.wrapped]
        if not known:
            absent.add(" or ".join(names))
        return (sum(tracer.calls.get(n, 0) for n in names),
                sum(tracer.self_s.get(n, 0.0) for n in names))

    for kernel in tracing.KERNELS:
        calls, self_s = spans(f"kernels.{kernel}")
        values[f"kernels.{kernel}.calls"] = calls
        values[f"kernels.{kernel}.self_s"] = self_s
        for kind in KERNEL_WORK.get(kernel, ()):
            values[f"kernels.{kernel}.{kind}"] = tracer.counts.get(f"kernels.{kernel}.{kind}", 0)
    builds = 0
    spans("halfspace.distribution_from_scaled")  # the hook names its spans by backend
    for backend in ("dense", "mitm"):
        calls = tracer.calls.get(f"halfspace.dist_build.{backend}", 0)
        self_s = tracer.self_s.get(f"halfspace.dist_build.{backend}", 0.0)
        builds += calls
        values[f"halfspace.dist_build.{backend}.calls"] = calls
        values[f"halfspace.dist_build.{backend}.self_s"] = self_s
        calls, self_s = spans(*(f"halfspace.{BACKEND_CLASS[backend]}.{m}" for m in QUERY_METHODS))
        values[f"halfspace.query.{backend}.calls"] = calls
        values[f"halfspace.query.{backend}.self_s"] = self_s
    values["halfspace.dist_build.dense.max_len"] = tracer.maxima.get("halfspace.dist_build.dense.max_len", 0)
    values["halfspace.dist_builds_per_member"] = builds / max(members, 1)
    calls, _ = spans("spectral.fwht_spectrum")
    values["spectral.fwht_spectrum.calls"] = calls
    values["spectral.fwht_spectrum.per_member"] = calls / max(members, 1)
    for metric, span in _SELF.items():
        values[f"{metric}.self_s"] = spans(span)[1]
    for layer, self_s in tracer.layer_self_s().items():
        values[f"layer.{layer}.self_s"] = self_s
    l2, l3 = cache_sizes()
    biggest = tracer.maxima.get("computed.max_array_bytes", 0)
    sums = mix["scaled_sums"] or [0]
    values.update({
        "trace.wall_s": wall, "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced, "trace.self_s_total": tracer.total_self_s(),
        "trace.spans": len(tracer.spans), "trace.absent_names": len(absent),
        "computed.fwht_butterflies": tracer.counts.get("computed.fwht_butterflies", 0),
        "computed.dp_cell_updates": tracer.counts.get("computed.dp_cell_updates", 0),
        "computed.max_array_bytes": biggest,
        "computed.max_array_over_l2": biggest / l2 if l2 else 0.0,
        "computed.max_array_over_l3": biggest / l3 if l3 else 0.0,
        "machine.l2_bytes": l2, "machine.l3_bytes": l3,
        "mix.members": members, "mix.arity_min": min(mix["arities"]),
        "mix.arity_max": max(mix["arities"]),
        "mix.scaled_sum_min": min(sums), "mix.scaled_sum_max": max(sums),
        "mix.dense_share": values["halfspace.dist_build.dense.calls"] / builds if builds else 0.0,
    })
    return {name: values[name] for name, _ in per_layer_names()}, sorted(absent)


# ---------------------------------------------------------------------------

def main(argv=None, expected=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "cubelab" / "__init__.py").is_file():
        fail(f"no cubelab package under {SRC}; run from a source checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread of work
    # numpy asks for huge pages for large arrays, and whether the host has
    # them free varies from run to run: peak_rss_mb of one plan read 605 MB
    # on some runs and 750 MB on others.  Without the request it repeats.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    if args.seed < 0:
        fail("--seed must be nonnegative")
    sys.path.insert(0, str(SRC))
    import cubelab

    if Path(cubelab.__file__).resolve().parent != (SRC / "cubelab").resolve():
        fail(f"imported cubelab from {cubelab.__file__}, not from {SRC}")
    import workloads

    if expected is None:
        expected = json.loads((HERE / "expected.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    workload = (cls(expected["expected_fail_records"]) if cls is workloads.VerifyStd else cls())

    # set-up: imports, input generation and warm-up, repeated; medians
    imports = import_seconds()
    prepare = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = workload.plan(args.seed, args.seconds / PASSES)
        workload.warm_up()
        prepare.append(time.perf_counter() - start)
    setup_s = imports + statistics.median(prepare)

    runs = [timed_phase(workload, plan, workloads) for _ in range(1 if args.trace else PASSES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = None
    if args.trace:
        # the first pass pays for first-touch memory that later passes reuse,
        # so the overhead compares the traced pass with an untraced rerun
        tracer = tracing.Tracer()
        tracer.install(kernel_hooks(tracer))
        try:
            runs.append(timed_phase(workload, plan, workloads, tracer))
        finally:
            tracer.uninstall()
        runs.append(timed_phase(workload, plan, workloads))
        (rec, results, wall), untraced = runs[1], runs[2][2]
    else:
        rec, results, _ = runs[-1]
    recs = [r for r, _, _ in runs]
    problems = [text for r in recs for text in r.problems]
    failed = sum(r.failed for r in recs)
    digests = [r.digest for r in recs]
    if len(set(digests)) != 1:
        problems.append("the passes give different digests")
        failed += 1

    key = f"{args.workload} seed={args.seed} seconds={args.seconds:g}"
    want = expected["digests"].get(key)
    if want is not None and want != digests[-1]:
        problems.append(f"digest {digests[-1]} differs from the recorded {want}")
        failed += 1
    try:
        cross = workload.cross_check(plan, results)
    except Exception as exc:  # the program failed an independent route outright
        cross = [f"cross-check raised {type(exc).__name__}: {exc}"]

    best = sorted(best_op_times(recs), reverse=True)
    times = sorted(t for t, _ in best)
    slowest = tail_count(len(times))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"digest {digests[-1]} "
          + ("(matches the recorded digest)" if want == digests[-1] else
             "(differs from the recorded digest)" if want else "(none recorded for this seed)"))
    mix = workload.mix(plan)
    hist = {n: mix["arities"].count(n) for n in sorted(set(mix["arities"]))}
    print(f"input mix: {rec.members} members, arity histogram {hist}"
          + (f", scaled sums {min(mix['scaled_sums'])}..{max(mix['scaled_sums'])}"
             if mix["scaled_sums"] else ""))
    print(f"passes: wall {', '.join(f'{w:.3f}' for _, _, w in runs)} s; "
          f"best op times sum to {sum(times):.3f} s")
    print("slowest ops: " + ", ".join(f"{label} {t * 1e3:.1f} ms" for t, label in best[:3]))
    if len(times) >= 20:
        # the highest percentile with at least ten ops beyond it
        pct = math.floor(100 * (1 - 10 / len(times)))
        rank = math.ceil(pct / 100 * len(times)) - 1
        print(f"op times, not reported as metrics: p50 {statistics.median(times) * 1e3:.3f} ms, "
              f"p{pct} {times[rank] * 1e3:.3f} ms of {len(times)} ops, "
              f"interquartile mean {interquartile_mean(times) * 1e3:.3f} ms")
    print(f"cross-checks: {'ok' if not cross else '; '.join(cross)}")
    for text in problems:
        print(f"problem: {text}")

    if args.trace:
        metrics, absent = per_layer_metrics(tracer, rec.members, wall, untraced, mix)
        units = dict(per_layer_names())
        (HERE / "traces").mkdir(exist_ok=True)
        tracer.dump(HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        for name in absent:
            print(f"absent: {name} (no such function in the package)")
    else:
        ok_times = times or [0.0]
        wall_s = sum(times)
        metrics = {
            "setup_s": setup_s, "wall_s": wall_s,
            "ops_per_s": len(times) / wall_s if wall_s else 0.0,
            "op_tail_ms": statistics.fmean(ok_times[-slowest:]) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    for name, value in metrics.items():
        note = (f"  (mean of the slowest {slowest} of {len(times)} ops)"
                if name == "op_tail_ms" else "")
        print(f"{name} {value!r} {units[name]}{note}")
    attempted = max(sum(r.attempted for r in recs), failed, 1)
    print(f"ops_attempted {attempted}")
    print(f"ops_failed {failed}")
    result = {"correct": failed == 0 and not cross and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
