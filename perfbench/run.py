"""VIProf native-session benchmark: command-line entry point.

Runs one workload for about ``--seconds`` seconds as a series of fresh
iteration processes (``iteration.py``), checks every iteration's
outputs, and prints the medians.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of traced iterations with ``--trace 1``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload jit_churn --seed 7 --seconds 30 --trace 0

See ``perfbench/README.md`` for the metrics, workloads and measured
spread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import STAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("jit_churn", "steady_state", "fleet")

#: set-up-only processes started before the measured iterations, so the
#: set-up median rests on several samples even when few iterations fit
SETUP_PROBES = 3
#: iterations are stopped once the run has taken this long (a run must
#: end within 180 s)
RUN_DEADLINE_S = 165
#: distance between the session seeds of one run's iterations
SEED_STRIDE = 1_000_003

E2E_UNITS = {
    "setup_s": "s",
    "collect_s": "s",
    "report_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "sim_overhead_pct": "%",
    "misattributed_jit_pp": "pp",
    "attributed_sample_pct": "%",
}

#: Per-layer metric units.  Names ending in ``_s`` are seconds of self
#: time (summed over shard workers on ``fleet``); the rest are counts or
#: ratios taken from the program's own counters and files.
LAYER_UNITS = {
    "setup.imports_s": "s",
    "setup.engine_build_s": "s",
    "system.simulate_self_s": "s",
    "system.sim_cycles_per_s": "cycles/s",
    "daemon.drain_s": "s",
    "daemon.records": "count",
    "daemon.buffer_lost": "count",
    "codec.write_s": "s",
    "codec.bytes_written": "bytes",
    "codec.spills": "count",
    "codec.decode_s": "s",
    "codec.records_decoded": "count",
    "codemap.emit_s": "s",
    "codemap.maps_written": "count",
    "codemap.records_written": "count",
    "arena.build_s": "s",
    "arena.bytes": "bytes",
    "arena.records": "count",
    "arena.fallbacks": "count",
    "codemap.load_s": "s",
    "codemap.epochs": "count",
    "jit.map_probes": "count",
    "jit.lookup_runs": "count",
    "jit.probes_per_jit_sample": "ratio",
    "jit.earlier_epoch_pct": "%",
    "jit.unresolved": "count",
    "jit.blocked": "count",
    **{
        f"stage.{stage}.{field}": unit
        for stage in STAGES
        for field, unit in (("self_s", "s"), ("offered", "count"),
                            ("hit_ratio", "ratio"))
    },
    "cache.probes": "count",
    "cache.hit_ratio": "ratio",
    "columnar.self_s": "s",
    "columnar.distinct_keys": "count",
    "columnar.samples_per_key": "ratio",
    "columnar.key_runs": "count",
    "parallel.workers": "count",
    "parallel.shards": "count",
    "parallel.plan_s": "s",
    "parallel.merge_s": "s",
    "parallel.wait_s": "s",
    "parallel.shard_busy_s": "s",
    "aggregate.rows": "count",
    "aggregate.report_s": "s",
    "render.table_s": "s",
    "metrics.report_doc_s": "s",
    "metrics.collection_summary_s": "s",
    "xen.save_fleet_s": "s",
    "xen.root_bytes": "bytes",
    "xen.domains": "count",
    "trace.self_sum_pct": "%",
    "trace.unattributed_pct": "%",
    "trace.overhead_pct": "%",
}


def spawn(workload: str, seed: int, workdir: Path, trace: bool,
          timeout: float, setup_only: bool = False) -> dict:
    """Run one iteration process; returns its result or a ``crash``.
    The process gets its own process group, so a timeout also stops the
    shard workers it forked."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "iteration.py"),
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--out", str(out),
        "--trace", "1" if trace else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd += ["--spawned-at-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crash": f"iteration exceeded its {timeout:.0f} s budget"}
    if proc.returncode != 0 or not out.exists():
        tail = "\n".join(err.strip().splitlines()[-8:])
        return {"crash": f"iteration exited {proc.returncode}: {tail}"}
    return json.loads(out.read_text())


def shape_problems(workload: str, seed: int, shape: dict, expected: dict) -> list[str]:
    """Pinned seeds must reproduce their recorded shape exactly; any other
    seed must fall in the workload's shape class."""
    spec = expected[workload]
    pinned = spec["seeds"].get(str(seed))
    if pinned is not None:
        if shape != pinned["shape"]:
            return [f"shape {shape} != recorded {pinned['shape']}"]
        return []
    ref = spec["seeds"][spec["reference_seed"]]["shape"]
    problems = []
    for key, (kind, tol) in spec["shape_class"].items():
        got, want = derived_shape(shape)[key], derived_shape(ref)[key]
        off = abs(got - want) / want if kind == "rel" else abs(got - want)
        if off > tol:
            problems.append(
                f"shape class: {key} {got:.4g} vs reference {want:.4g} "
                f"(tolerance {tol} {kind})"
            )
    return problems


def derived_shape(shape: dict) -> dict[str, float]:
    """The shape-class quantities: sizes, and shares in percent."""
    jit = shape["jit_samples"]
    return {
        "samples": shape["samples"],
        "epoch_maps": shape["epoch_maps"],
        "map_records": shape["map_records"],
        "domains": shape["domains"],
        "distinct_key_pct": 100.0 * shape["distinct_keys"] / shape["samples"],
        "jit_pct": 100.0 * jit / shape["samples"],
        "earlier_epoch_pct": 100.0 * shape["earlier_epoch_samples"] / jit if jit else 0.0,
    }


def session_seed(seed: int, k: int, trace: bool) -> int:
    """Session seed of iteration ``k``.  Untraced runs give every
    iteration its own session, so the per-session figures (attribution,
    simulated overhead) are averaged over several sessions;
    traced runs pair a traced and an untraced iteration on one session,
    which prices the tracing and checks that it changes no output."""
    j = k // 2 if trace else k
    return seed + SEED_STRIDE * j


def check_iterations(workload: str, results: list[tuple[int, dict]],
                     expected: dict) -> list[str]:
    """Cross-iteration checks: identical deterministic outputs for every
    iteration of one session, the pinned digest, the workload shape."""
    problems: list[str] = []
    by_seed: dict[int, list[dict]] = {}
    for seed, r in results:
        if "crash" not in r:
            by_seed.setdefault(seed, []).append(r)
    for seed, runs in by_seed.items():
        for key in ("digest", "shape", "accounting"):
            if len({json.dumps(r[key], sort_keys=True) for r in runs}) > 1:
                problems.append(f"seed {seed}: {key} differs between iterations")
        first = runs[0]
        pinned = expected[workload]["seeds"].get(str(seed))
        if pinned is not None and first["digest"] != pinned["digest"]:
            problems.append(
                f"seed {seed}: report digest {first['digest'][:16]} != pinned "
                f"{pinned['digest'][:16]}"
            )
        problems.extend(
            f"seed {seed}: {p}"
            for p in shape_problems(workload, seed, first["shape"], expected)
        )
    return problems


def describe(values: list[float]) -> str:
    return f"median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no profiler sources under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    base = ROOT / ".perfbench"
    work = base / f"run-{os.getpid()}"
    try:
        return run(args, expected, base, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, expected: dict, base: Path, work: Path) -> int:
    start = time.monotonic()

    def budget() -> float:
        return start + RUN_DEADLINE_S - time.monotonic()

    setups: list[float] = []
    problems: list[str] = []
    for i in range(SETUP_PROBES):
        probe = spawn(args.workload, args.seed, work / f"setup{i}", trace=False,
                      timeout=budget(), setup_only=True)
        if "crash" in probe:
            problems.append(probe["crash"])
            break
        setups.append(probe["setup_s"])

    results: list[tuple[int, dict]] = []
    traced: list[bool] = []
    min_iterations = 2 if args.trace else 1
    while not problems and (
        len(results) < min_iterations or time.monotonic() - start < args.seconds
    ):
        k = len(results)
        seed = session_seed(args.seed, k, bool(args.trace))
        want_trace = bool(args.trace) and k % 2 == 0
        r = spawn(args.workload, seed, work / f"it{k}", want_trace, timeout=budget())
        results.append((seed, r))
        traced.append(want_trace)
        if "crash" in r:
            problems.append(r["crash"])
            break
        problems.extend(f"seed {seed}: {p}" for p in r["problems"])
        if want_trace:
            keep = base / "traces" / args.workload
            shutil.rmtree(keep, ignore_errors=True)
            shutil.copytree(work / f"it{k}" / "trace", keep)
    problems.extend(check_iterations(args.workload, results, expected))

    done = [(seed, r, t) for (seed, r), t in zip(results, traced) if "crash" not in r]
    reference = expected[args.workload]["seeds"][expected[args.workload]["reference_seed"]]
    attempted = sum(r["taken"] for _, r, _ in done) or reference["shape"]["samples"]
    failed = attempted if problems else sum(r["unattributed"] for _, r, _ in done)
    correct = not problems

    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"workload {args.workload} seed {args.seed}: {len(results)} iteration(s) "
          f"({sum(traced)} traced), {len(setups)} set-up probe(s), "
          f"{time.monotonic() - start:.1f} s")
    for seed, r, t in done:
        acc = r["accounting"]
        print(f"session seed {seed}{' (traced)' if t else ''}: digest {r['digest'][:16]}")
        print("  shape: " + ", ".join(f"{k}={v}" for k, v in r["shape"].items()))
        print("  shape class: " + ", ".join(
            f"{k}={v:.4g}" for k, v in derived_shape(r["shape"]).items()))
        print("  cycle accounting: " + ", ".join(
            f"{k}={acc[k]}" for k in ("wall_cycles", "nmi_cycles",
                                      "daemon_cycles", "agent_cycles")))
        print(f"  ground truth: {acc['hot_methods']} hot JIT methods, max share "
              f"error {acc['attribution_error_pp']:.6f} pp; misattributed JIT "
              f"{acc['misattributed_jit_pp']:.6f} pp")
    print(f"failed_sample_pct = {100.0 * failed / attempted:.6f} % "
          f"({failed} of {attempted} samples)")

    metrics: dict[str, dict] = {}
    plain = [r for _, r, t in done if not t]
    if args.trace:
        with_layers = [r for _, r, t in done if t]
        if with_layers and plain:
            metrics = trace_metrics(with_layers, plain)
    elif plain:
        setups.extend(r["setup_s"] for r in plain)
        per_iter = {
            "setup_s": setups,
            "collect_s": [r["collect_s"] for r in plain],
            "report_samples_per_s": [
                r["samples"] / t for r in plain for t in r["report_s"]
            ],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        # Deterministic per session: averaged over the run's sessions.
        per_session = {
            "sim_overhead_pct": [r["accounting"]["sim_overhead_pct"] for r in plain],
            "misattributed_jit_pp": [r["accounting"]["misattributed_jit_pp"] for r in plain],
        }
        for name, values in per_iter.items():
            metrics[name] = {"value": median(values), "unit": E2E_UNITS[name]}
            print(f"{name} = {median(values):.6f} {E2E_UNITS[name]} ({describe(values)})")
        for name, values in per_session.items():
            metrics[name] = {"value": statistics.fmean(values), "unit": E2E_UNITS[name]}
            print(f"{name} = {statistics.fmean(values):.6f} {E2E_UNITS[name]} "
                  f"(mean of {len(values)} sessions; min {min(values):.6g}, "
                  f"max {max(values):.6g})")
        value = 100.0 * (attempted - failed) / attempted
        metrics["attributed_sample_pct"] = {"value": value, "unit": "%"}
        print(f"attributed_sample_pct = {value:.6f} %")
        errors = [r["accounting"]["attribution_error_pp"] for r in plain]
        print(f"attribution_error_pp = {statistics.fmean(errors):.6f} pp (unbounded; "
              f"mean of {len(errors)} sessions; min {min(errors):.6g}, "
              f"max {max(errors):.6g})")
        report_s = [t for r in plain for t in r["report_s"]]
        print(f"report time = {median(report_s):.6f} s ({describe(report_s)})")
    if not metrics:
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def trace_metrics(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer medians over traced iterations, plus the tracing
    accounting against the untraced iterations of the same run."""
    layered = [r["layers"] for r in traced]

    def e2e(r: dict) -> float:
        return r["setup_s"] + r["collect_s"] + r["report_s"][0]

    untraced = median([e2e(r) for r in plain])
    self_sum = median([m["trace.self_sum_s"] for m in layered])
    unattributed = median([m["trace.unattributed_s"] for m in layered])
    extra = {
        "trace.self_sum_pct": 100.0 * self_sum / untraced,
        "trace.unattributed_pct": 100.0 * unattributed / untraced,
        "trace.overhead_pct": 100.0 * (median([e2e(r) for r in traced]) - untraced) / untraced,
    }
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        value = extra[name] if name in extra else median([m[name] for m in layered])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    print(f"untraced end-to-end = {untraced:.6f} s; traced self times sum to "
          f"{extra['trace.self_sum_pct']:.2f} % of it")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
