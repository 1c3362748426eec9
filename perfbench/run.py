"""Benchmark of rangetri's solvers and reductions, run from a checkout root.

    python3 perfbench/run.py --workload range_direct --seed 1 --seconds 24 --trace 0

Runs passes over the workload's cells for ``--seconds`` seconds, checks
every answer against the reference answers, prints one line per metric
with its unit, and ends with one JSON line.  ``--trace 0`` reports the
end-to-end metrics of untraced passes; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics.  The exit code is 0
when every answer is correct, 1 when some answer failed, and 2 when the
library sources are missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # the set-up time of a probe counts from here

import argparse  # noqa: E402
from array import array  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Percentile reported as query_tail_us.  range_direct answers one online
# query per call, and p99 is the highest percentile with at least ten of
# its 7168 samples per pass beyond it.  The other two deliver answers in
# batches of 32 to ~5000; above p90 the tail falls inside the one or two
# slowest calls and follows the cost of a single seed-dependent input, so
# they report p90, which has several calls beyond it.
WORKLOADS = {"range_direct": 99.0, "range_via_triangle": 90.0, "graph_triangle": 90.0}

END_TO_END = {
    "wall_s": "s",
    "answers_per_s": "1/s",
    "setup_s": "s",
    "index_build_s": "s",
    "query_p50_us": "us",
    "query_tail_us": "us",
    "peak_rss_mb": "MB",
}

LAYERS = ("rangequery", "reductions_range", "reductions_triangle", "triangle", "minmax")

# Span times are reported as shares of the traced wall time: a layer that
# a workload leaves idle then reads 0 as a ratio, not as a time.
SHARE_SPANS = (
    "rangequery.online_eq_build",
    "rangequery.mo_offline",
    "rangequery.matmul",
    "reductions_triangle.build_query_multigraph",
    "reductions_triangle.neighbor_list_array",
    "triangle.ayz_edge_counts",
    "triangle.baseline_list",
    "triangle.detect_via_listing",
    "triangle.list_via_detection",
    "triangle.main_listing_retry",
    "triangle.inner_listing",
    "minmax.minmax_product",
)
CALL_SPANS = (
    "rangequery.online_eq_build",
    "rangequery.mo_offline",
    "rangequery.matmul",
    "triangle.ayz_edge_counts",
    "triangle.baseline_list",
)
COUNTS = (
    "rangequery.MoOnline.rebuilds",
    "rangequery.OnlineEqSolver.rebuilds",
    "rangequery.online_eq_build.blocks",
    "rangequery.online_eq_build.frequent_values",
    "rangequery.extender_steps",
    "rangequery.extender_bound",
    "rangequery.matmul.mults",
    "reductions_range.subqueries",
    "reductions_range.bit_terms",
    "reductions_range.bit_terms_bound",
    "reductions_triangle.pieces",
    "reductions_triangle.piece_edges",
    "reductions_triangle.mg_vertices",
    "triangle.ayz.heavy_vertices",
    "triangle.ayz.heavy_bound",
    "triangle.ayz.light_wedges",
    "triangle.ayz.light_wedges_bound",
    "triangle.baseline_list.input_edges",
    "triangle.baseline_list.triangles",
    "triangle.detect_via_listing.lister_calls",
    "triangle.list_via_detection.detector_calls",
    "triangle.list_via_detection.detector_edges",
    "triangle.inner_calls",
    "minmax.batches",
    "minmax.batches_bound",
    "minmax.solver_queries",
)
# (metric, numerator, denominator) over counts
RATIOS = (
    ("rangequery.extender_steps_over_bound", "rangequery.extender_steps", "rangequery.extender_bound"),
    ("triangle.detect_via_listing.useful_ratio", "triangle.detect_via_listing.useful_calls",
     "triangle.detect_via_listing.lister_calls"),
    ("triangle.listing.useful_ratio", "triangle.listing.kept", "triangle.listing.enumerated"),
)
# Paper bounds printed next to the counts they bound.
BOUNDS = (
    ("rangequery.extender_steps", "rangequery.extender_bound", "sum of n*sqrt(q) over Mo walks"),
    ("reductions_range.bit_terms", "reductions_range.bit_terms_bound", "sum of ceil(log2 n) over INV splits"),
    ("minmax.batches", "minmax.batches_bound", "ceil(log2 2n^2)"),
    ("triangle.ayz.heavy_vertices", "triangle.ayz.heavy_bound", "sum of 2m/theta, theta = ceil(sqrt m)"),
    ("triangle.ayz.light_wedges", "triangle.ayz.light_wedges_bound", "sum of m*theta"),
)

SETUP_PROBES = 5

# Reported times are in reference seconds: measured seconds times
# CALIBRATION_S / (measured time of calibrate()), taken around the same
# work.  On a shared VM the CPU speed drifts by tens of percent from minute
# to minute, and the fixed loop below slows and speeds up with it.
CALIBRATION_S = 0.01


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch the
    library; about CALIBRATION_S at the reference speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - start


def per_layer_units() -> dict[str, str]:
    units = {"traced.wall_s": "s", "trace_overhead_s": "s", "check_s": "s", "gen.s": "s"}
    for layer in LAYERS + ("other",):
        units[f"{layer}.self_share"] = "ratio"
    for name in ("MoOnline", "OnlineEqSolver"):
        units[f"rangequery.{name}.query_share"] = "ratio"
        units[f"rangequery.{name}.rebuild_share"] = "ratio"
    for span in SHARE_SPANS:
        units[f"{span}.share"] = "ratio"
    for span in CALL_SPANS:
        units[f"{span}.calls"] = "count"
    for name in COUNTS:
        units[name] = "count"
    for name, _, _ in RATIOS:
        units[name] = "ratio"
    return units


def import_library() -> bool:
    """Put the checkout's ``src`` first on the path and import rangetri
    from it; False when the sources are not there."""
    if not (SRC / "rangetri" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import rangetri

    return Path(rangetri.__file__).resolve().parent == SRC / "rangetri"


def weighted_quantile(samples: list[tuple[float, int]], q: float) -> float:
    ordered = sorted(s for s in samples if s[1] > 0)
    target = q * sum(w for _, w in ordered)
    acc = 0
    for value, weight in ordered:
        acc += weight
        if acc >= target:
            return value
    return ordered[-1][0]


class Failed:
    """Stands in for the output of a cell that raised."""


def run_pass(cells, traced: bool):
    import workloads

    tracer = spans.Tracer()
    wrappers = spans.library_wrappers(tracer) if traced else spans.index_wrappers(tracer)
    p = workloads.Pass(tracer if traced else None)
    outputs, cell_s = [], []
    workloads.clear_caches()
    # The cyclic collector's full collections land at moments that differ
    # from pass to pass and made identical passes differ by ~10 %; it is
    # paused during a pass and run between passes.  Reference counting
    # still frees acyclic garbage as it goes.
    gc.collect()
    gc.disable()
    calibration = 0.0
    try:
        with spans.rebound(wrappers):
            for cell in cells:
                calibration += calibrate()
                before = p.wall
                try:
                    outputs.append(cell.run(p))
                except Exception:
                    traceback.print_exc()
                    outputs.append(Failed())
                cell_s.append(p.wall - before)
            calibration += calibrate()
    finally:
        gc.enable()
    if not traced:
        p.index_build += sum(tracer.total[name] for name in spans.INDEX_SPANS)
    summary = {
        "speed": CALIBRATION_S * (len(cells) + 1) / calibration,
        "wall_s": p.wall,
        "answers": sum(workloads.answer_count(o) for o in outputs if not isinstance(o, Failed)),
        "index_build_s": p.index_build,
        # kept as flat arrays: per-sample objects retained across passes
        # would pin allocator arenas and raise peak_rss_mb with the pass count
        "latency_s": array("d", (lat for lat, _ in p.latencies)),
        "latency_answers": array("q", (w for _, w in p.latencies)),
        "cell_s": cell_s,
    }
    if traced:
        tracer.count("rangequery.extender_steps", p.counters.extender_steps)
        summary["layers"] = layer_metrics(tracer, p.wall, summary["speed"])
    return summary, outputs


def layer_metrics(tracer, wall: float, speed: float) -> dict[str, float]:
    out = {"traced.wall_s": wall * speed}
    attributed = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_share"] = tracer.self_time[layer] / wall
        attributed += tracer.self_time[layer]
    out["other.self_share"] = (wall - attributed - tracer.hook_s) / wall
    for name in ("MoOnline", "OnlineEqSolver"):
        out[f"rangequery.{name}.query_share"] = tracer.counts[f"rangequery.{name}.query_s"] / wall
        out[f"rangequery.{name}.rebuild_share"] = tracer.counts[f"rangequery.{name}.rebuild_s"] / wall
    for span in SHARE_SPANS:
        out[f"{span}.share"] = tracer.total[span] / wall
    for span in CALL_SPANS:
        out[f"{span}.calls"] = tracer.calls[span]
    for name in COUNTS:
        out[name] = tracer.counts[name]
    for name, num, den in RATIOS:
        out[name] = tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0.0
    return out


def reference_timed(fn, *args, **kwargs):
    """(fn(*args, **kwargs), its duration in reference seconds)."""
    before = calibrate()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    return result, elapsed * 2 * CALIBRATION_S / (before + calibrate())


def setup_time(args) -> float:
    """Set-up time, in reference seconds, of a fresh process: from the
    start of this script to the workload's inputs being generated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
    return float(done.stdout)


def check(cells, runs) -> tuple[int, int]:
    """(attempted, failed) over every pass's outputs; ``runs`` holds each
    distinct list of outputs with the number of passes that returned it."""
    attempted = failed = 0
    for k, cell in enumerate(cells):
        try:
            expected = cell.reference()
        except Exception:
            traceback.print_exc()
            passes = sum(times for _, times in runs)
            attempted += passes
            failed += passes
            continue
        for outputs, times in runs:
            out = outputs[k]
            try:
                if isinstance(out, Failed):
                    raise ValueError("cell raised")
                a, f = cell.compare(out, expected)
            except Exception:
                a = f = max(1, cell.expected_answers(expected))
            if f:
                print(f"FAILED {cell.name}: {f} of {a} answers", file=sys.stderr)
            attempted += a * times
            failed += f * times
    return attempted, failed


def remember(runs: list, outputs: list) -> None:
    """Count ``outputs`` against an equal earlier pass, or keep them, so
    that memory does not grow with the number of passes."""
    for entry in runs:
        if entry[0] == outputs:
            entry[1] += 1
            return
    runs.append([outputs, 1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    before = calibrate()
    if not import_library():
        print(f"rangetri sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    if args.setup_probe:
        workloads.make(args.workload, args.seed, args.tiny)
        elapsed = time.perf_counter() - STARTED
        print(elapsed * 2 * CALIBRATION_S / (before + calibrate()))
        return 0

    setup_s = median(setup_time(args) for _ in range(SETUP_PROBES))
    cells, gen_s = reference_timed(workloads.make, args.workload, args.seed, args.tiny)

    untraced, traced, runs = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for mode in ((False, True) if args.trace else (False,)):
            summary, outputs = run_pass(cells, mode)
            (traced if mode else untraced).append(summary)
            remember(runs, outputs)
            del outputs
        now = time.perf_counter()
        # start another round only if at least half of it fits
        if now - start + (now - round_start) / 2 >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (attempted, failed), check_s = reference_timed(check, cells, runs)

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced passes")
    for k, cell in enumerate(cells):
        print(f"  cell {cell.name}: {median(s['cell_s'][k] * s['speed'] for s in untraced):.4f} s")
    # Latencies are pooled over the untraced passes; the tail percentile
    # follows from the samples of one pass, so it does not depend on how
    # many passes fitted into the run.
    latencies = [(lat * s["speed"], w) for s in untraced
                 for lat, w in zip(s["latency_s"], s["latency_answers"])]
    per_pass = sum(untraced[0]["latency_answers"])
    pct = WORKLOADS[args.workload]
    e2e = {
        "wall_s": median(s["wall_s"] * s["speed"] for s in untraced),
        "answers_per_s": median(s["answers"] / (s["wall_s"] * s["speed"]) for s in untraced),
        "setup_s": setup_s,
        "index_build_s": median(s["index_build_s"] * s["speed"] for s in untraced),
        "query_p50_us": weighted_quantile(latencies, 0.5) * 1e6,
        "query_tail_us": weighted_quantile(latencies, pct / 100) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    print(f"  times in reference seconds; measured wall_s {median(s['wall_s'] for s in untraced):.6g} s "
          f"at speed factor {median(s['speed'] for s in untraced):.4g}")
    print(f"  answers per pass {untraced[0]['answers']}; query latency over {per_pass} answers "
          f"per pass x {len(untraced)} passes, tail = p{pct:g}")
    print(f"failed_frac = {failed / max(1, attempted):.6g} ratio ({failed} of {attempted} answers)")

    if args.trace:
        units = per_layer_units()
        layers = {name: median(s["layers"][name] for s in traced) for name in traced[0]["layers"]}
        layers["trace_overhead_s"] = layers["traced.wall_s"] - e2e["wall_s"]
        layers["check_s"] = check_s
        layers["gen.s"] = gen_s
        for name, unit in units.items():
            line = f"{name} = {layers[name]:.6g} {unit}"
            if name.endswith("share"):
                line += f"  ({layers[name] * layers['traced.wall_s']:.6g} s)"
            print(line)
        for count, bound, what in BOUNDS:
            if layers[bound]:
                print(f"bound {count} = {layers[count]:.6g} vs {what} = "
                      f"{layers[bound]:.6g} (ratio {layers[count] / layers[bound]:.4g})")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}

    ok = failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
