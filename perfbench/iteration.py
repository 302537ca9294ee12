"""One benchmark iteration, in its own process.

Runs a workload end to end through the profiler's public APIs, timing
each step from outside:

1. set-up: process start (measured by the launching ``run.py``) to an engine
   ready to ``run()`` -- interpreter, imports, workload model, machine,
   boot image, loader;
2. collect: ``run()`` through session teardown (summary and arena); on
   ``fleet`` also the fleet-layout save;
3. report: code-map load, report generation, text table and
   ``report_json_doc``, repeated :data:`REPORT_PASSES` times.

It then checks the outputs (sample conservation, resolver-stage flow,
pinned digest and workload shape) and writes one JSON result.  With
``--trace 1`` the layers are wrapped with spans (``tracing.py``) and
the result also carries the per-layer metrics.

Usage (normally launched by ``run.py``)::

    python3 perfbench/iteration.py --workload jit_churn --seed 7 \
        --spawned-at-ns <monotonic ns> --workdir DIR --out RESULT.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.accuracy import sampleable_share  # noqa: E402
from repro.jvm.machine import JIT_APP_IMAGE_LABEL  # noqa: E402
from repro.metrics.build import report_json_doc  # noqa: E402
from repro.oprofile.opcontrol import OprofileConfig  # noqa: E402
from repro.profiling.model import Layer  # noqa: E402
from repro.profiling.record_codec import RecordFileReader  # noqa: E402
from repro.system.engine import EngineConfig, ProfilerMode, SystemEngine  # noqa: E402
from repro.viprof.arena import CodeMapArena, arena_path_for  # noqa: E402
from repro.viprof.codemap import CodeMapIndex  # noqa: E402
from repro.viprof.postprocess import ViprofReport  # noqa: E402
from repro.workloads import by_name  # noqa: E402
from repro.workloads.fleet import fleet_workloads  # noqa: E402
from repro.xen.engine import GuestSpec, MultiStackEngine  # noqa: E402
from repro.xen.fleet import FleetSession  # noqa: E402

import tracing  # noqa: E402

#: sampling period of every workload (the paper's densest setting)
PERIOD = 3_000
#: the time event the accuracy rule scores, as analysis/accuracy.py does
TIME_EVENT = "GLOBAL_POWER_EVENTS"
#: minimum true cycle share for a JIT method to be scored
HOT_THRESHOLD = 0.01

WORKLOADS = {
    "jit_churn": {"benchmark": "jython", "time_scale": 2.0, "workers": 1},
    "steady_state": {"benchmark": "mpegaudio", "time_scale": 4.0, "workers": 1},
    "fleet": {"guests": 8, "time_scale": 40.0, "workers": 2},
}

#: Report passes per untraced iteration over the one collected session.
#: Host speed on small shared machines swings by tens of percent within
#: seconds and the report step is shorter than collection, so it is timed
#: several times; every pass starts from the closed session directory.
REPORT_PASSES = 3


def build_engine(workload: str, seed: int, session_dir: Path):
    spec = WORKLOADS[workload]
    if workload == "fleet":
        guests = fleet_workloads(spec["guests"], seed=seed)
        return MultiStackEngine(
            [GuestSpec(w, seed=seed) for w in guests],
            period=PERIOD,
            time_scale=spec["time_scale"],
            session_dir=session_dir,
            seed=seed,
        )
    cfg = EngineConfig(
        mode=ProfilerMode.VIPROF,
        profile_config=OprofileConfig.paper_config(PERIOD),
        session_dir=session_dir,
        seed=seed,
        time_scale=spec["time_scale"],
    )
    return SystemEngine(by_name(spec["benchmark"]), cfg)


def collect(workload: str, engine):
    result = engine.run()
    if workload == "fleet":
        return FleetSession(result=result, saved=result.save_fleet_session())
    return result


def report(workload: str, collected, rec):
    """Steps 3-5: returns (report, chain, JSON doc, epochs loaded).  The
    rendered table is produced for its cost only."""
    workers = WORKLOADS[workload]["workers"]
    if workload == "fleet":
        rep, chain = collected.resolve(workers=workers, sharded=True)
        epochs = None
    else:
        session = collected.viprof_session
        codemaps = CodeMapIndex.load_dir(session.map_dir)
        post = ViprofReport(
            kernel=collected.kernel,
            sample_dir=collected.sample_dir,
            codemaps=codemaps,
            rvm_map=collected.boot.rvm_map,
            registrations=session.daemon.registrations,
        )
        rep = post.generate(workers=workers)
        chain = post.chain
        epochs = len(codemaps.epochs)
    with _maybe_span(rec, "render.table"):
        rep.format_table()
    with _maybe_span(rec, "metrics.report_doc"):
        doc = report_json_doc(rep, chain.stats_dict())
    return rep, chain, doc, epochs


def _maybe_span(rec, name):
    return rec.span(name) if rec is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# deterministic outputs: cycle accounting, ground truth, shape
# ----------------------------------------------------------------------


def stage_totals(stats: dict) -> dict[str, dict]:
    """Stage counters summed by stage name over the chain and, for the
    fleet, every domain's inner chain; also checks stage flow."""
    out: dict[str, dict] = {}
    problems: list[str] = []
    caches: list[dict] = []

    def walk(sd: dict, where: str) -> None:
        offered = sd["total_samples"]
        for entry in sd["stages"]:
            name = entry["stage"]
            if entry["hits"] + entry["misses"] != offered:
                problems.append(
                    f"{where}{name}: offered {entry['hits'] + entry['misses']} "
                    f"!= {offered} passed down"
                )
            offered = entry["misses"]
            agg = out.setdefault(name, {"hits": 0, "misses": 0, "detail": {}})
            agg["hits"] += entry["hits"]
            agg["misses"] += entry["misses"]
            detail = entry.get("detail") or {}
            if name == "domain-dispatch":
                inner = sum(d["total_samples"] for d in detail.values())
                if inner != entry["hits"]:
                    problems.append(
                        f"{where}domain-dispatch: inner chains saw {inner} "
                        f"of {entry['hits']} dispatched samples"
                    )
                for dom, sub in sorted(detail.items()):
                    walk(sub, f"{where}{dom}/")
                continue
            for k, v in detail.items():
                if isinstance(v, int):
                    agg["detail"][k] = agg["detail"].get(k, 0) + v
        if offered != 0:
            problems.append(f"{where}terminal stage passed {offered} samples on")
        if sd.get("cache") is not None:
            caches.append(sd["cache"])

    walk(stats, "")
    jit = out.get("jit-epoch", {}).get("detail", {})
    split = sum(
        jit.get(k, 0)
        for k in ("resolved_in_own_epoch", "resolved_in_earlier_epoch",
                  "unresolved", "blocked_at_quarantine")
    )
    if jit and split != out["jit-epoch"]["hits"]:
        problems.append(f"jit-epoch: split {split} != {out['jit-epoch']['hits']} hits")
    return {"stages": out, "problems": problems, "caches": caches}


def jit_stages(chain) -> list:
    """The chain's JIT epoch stages, inside per-domain chains too."""
    found = []
    for stage in chain.stages:
        if stage.name == "jit-epoch":
            found.append(stage)
        for inner in getattr(stage, "chains", {}).values():
            found.extend(jit_stages(inner))
    return found


def sample_files(workload: str, collected) -> list[Path]:
    if workload == "fleet":
        return sorted((collected.session_dir / "samples").glob("*.samples"))
    return sorted(Path(collected.sample_dir).glob("*.samples"))


def decode_pass(paths: list[Path]) -> tuple[dict[str, int], int, int]:
    """Independent decode of the session's sample files: records on disk
    and decoded per event, plus distinct resolution keys."""
    on_disk: dict[str, int] = {}
    decoded: dict[str, int] = {}
    keys: set[tuple] = set()
    nbytes = 0
    for path in paths:
        nbytes += path.stat().st_size
        with RecordFileReader(path) as reader:
            ev = reader.event_name
            on_disk[ev] = on_disk.get(ev, 0) + len(reader)
            has_domain = reader.codec.has_domain
            for chunk in reader.iter_field_chunks():
                decoded[ev] = decoded.get(ev, 0) + len(chunk)
                for f in chunk:
                    keys.add((f[0], f[4], f[2], f[1], f[5] if has_domain else None))
    return {"on_disk": on_disk, "decoded": decoded}, len(keys), nbytes


def accounting(workload: str, engine, collected, rep) -> dict:
    """Simulated profiler overhead (Figure 2) and attribution against the
    ground-truth ledger(s): the ``analysis/accuracy.py`` rule (worst
    share error over hot JIT methods) and the misattributed share of the
    whole JIT profile (half the summed share error over every JIT
    method, i.e. the samples that would have to move to match the
    truth)."""
    if workload == "fleet":
        result = collected.result
        nmi = engine.cpu.stats.nmi_handler_cycles
        agent = sum(g.ledger.layer_cycles(Layer.AGENT) for g in result.guests.values())
        daemon = 0
        wall = result.wall_cycles
        sampleable = wall - nmi
        truth: dict[tuple[str, str], int] = {}
        for g in result.guests.values():
            for key, entry in g.ledger.by_symbol.items():
                truth[key] = truth.get(key, 0) + entry.cycles
        shares = {k: c / sampleable for k, c in truth.items()}
    else:
        nmi = collected.cpu_stats.nmi_handler_cycles
        agent = collected.ledger.layer_cycles(Layer.AGENT)
        daemon = collected.ledger.layer_cycles(Layer.DAEMON)
        wall = collected.wall_cycles
        shares = {
            k: sampleable_share(collected, e.cycles)
            for k, e in collected.ledger.by_symbol.items()
        }
    errors = []
    moved = 0.0
    jit_rows = {(r.image, r.symbol) for r in rep.rows if r.image == JIT_APP_IMAGE_LABEL}
    jit_truth = {k for k in shares if k[0] == JIT_APP_IMAGE_LABEL}
    for key in jit_rows | jit_truth:
        true_share = shares.get(key, 0.0)
        row = rep.row_for(*key)
        sampled = rep.percent(row, TIME_EVENT) / 100.0 if row is not None else 0.0
        moved += abs(sampled - true_share)
        if true_share >= HOT_THRESHOLD:
            errors.append(abs(sampled - true_share))
    profiler = nmi + daemon + agent
    return {
        "wall_cycles": wall,
        "nmi_cycles": nmi,
        "daemon_cycles": daemon,
        "agent_cycles": agent,
        "sim_overhead_pct": 100.0 * profiler / (wall - profiler),
        "attribution_error_pp": 100.0 * max(errors) if errors else 0.0,
        "misattributed_jit_pp": 50.0 * moved,
        "hot_methods": len(errors),
    }


def digest_of(doc: dict) -> str:
    """SHA-256 of the canonical report document (report plus the full
    ``stats_dict()`` under ``resolution``)."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def agent_stats(workload: str, collected) -> tuple[int, int]:
    if workload == "fleet":
        guests = collected.result.guests.values()
        return (sum(g.agent.stats.maps_written for g in guests),
                sum(g.agent.stats.records_written for g in guests))
    st = collected.agent_stats
    return st.maps_written, st.records_written


def check_outputs(workload, engine, collected, rep, chain, doc):
    """Run every output check; returns (result fields, problems)."""
    problems: list[str] = []
    counts, distinct_keys, nbytes = decode_pass(sample_files(workload, collected))
    if workload == "fleet":
        buf = collected.result.buffer
        taken = len(buf) + buf.lost
        lost = buf.lost
        written = len(buf)
        for dom in collected.domain_ids:
            for path in (collected.domain_dir(dom) / "samples").glob("*.samples"):
                nbytes += path.stat().st_size
        part: dict[str, int] = {}
        for path in collected.session_dir.glob("dom*/samples/*.samples"):
            with RecordFileReader(path) as reader:
                part[reader.event_name] = part.get(reader.event_name, 0) + len(reader)
        if part != counts["on_disk"]:
            problems.append(f"domain partition {part} != root stream {counts['on_disk']}")
    else:
        buffer = engine.kmodule.buffer
        taken = buffer.total_captured + buffer.lost
        lost = buffer.lost
        written = collected.daemon_stats.samples_logged
        if buffer.total_captured != written:
            problems.append(
                f"captured {buffer.total_captured} != daemon-written {written}"
            )
    totals = {ev: rep.totals.get(ev, 0) for ev in rep.events}
    if sum(counts["on_disk"].values()) != written:
        problems.append(f"records on disk {counts['on_disk']} != written {written}")
    if counts["decoded"] != counts["on_disk"]:
        problems.append(f"decoded {counts['decoded']} != on disk {counts['on_disk']}")
    if totals != counts["on_disk"]:
        problems.append(f"report totals {totals} != on disk {counts['on_disk']}")
    if chain.total_samples != sum(totals.values()):
        problems.append(f"chain resolved {chain.total_samples} != report {totals}")

    flow = stage_totals(doc["resolution"])
    problems.extend(flow["problems"])
    stages = flow["stages"]
    jit = stages["jit-epoch"]["detail"]
    unattributed = (
        lost
        + jit.get("unresolved", 0)
        + jit.get("blocked_at_quarantine", 0)
        + stages["unresolved"]["hits"]
    )

    digest = digest_of(doc)
    maps, records = agent_stats(workload, collected)
    samples = sum(totals.values())
    shape = {
        "samples": samples,
        "distinct_keys": distinct_keys,
        "epoch_maps": maps,
        "map_records": records,
        "jit_samples": jit.get("jit_samples", 0),
        "earlier_epoch_samples": jit.get("resolved_in_earlier_epoch", 0),
        "domains": len(collected.domain_ids) if workload == "fleet" else 1,
    }
    return {
        "taken": taken,
        "unattributed": unattributed,
        "samples": samples,
        "digest": digest,
        "shape": shape,
        "sample_bytes": nbytes,
        "stages": stages,
        "caches": flow["caches"],
    }, problems


# ----------------------------------------------------------------------
# per-layer metrics of a traced iteration
# ----------------------------------------------------------------------


def layer_metrics(workload, collected, rep, chain, epochs, outputs,
                  main_dump, shard_dumps):
    busy: dict[str, float] = {}
    main_self = tracing.self_times(main_dump)
    for dump in [main_dump, *shard_dumps]:
        for name, s in tracing.self_times(dump).items():
            busy[name] = busy.get(name, 0.0) + s
    counters: dict[str, int] = dict(main_dump["counters"])
    for dump in shard_dumps:
        for k, v in dump["counters"].items():
            counters[k] = counters.get(k, 0) + v
    probes = counters.get("jit.map_probes", 0) + tracing.walk_probes(jit_stages(chain))

    def t(name):
        return busy.get(name, 0.0)

    stages = outputs["stages"]
    jit = stages["jit-epoch"]["detail"]
    jit_samples = jit.get("jit_samples", 0)
    maps, records = agent_stats(workload, collected)
    m: dict[str, float] = {
        "setup.imports_s": main_self.get("bench.setup", 0.0),
        "setup.engine_build_s": t("system.build"),
        "system.simulate_self_s": t("system.simulate"),
        "system.sim_cycles_per_s": outputs["accounting"]["wall_cycles"] / t("system.simulate"),
        "daemon.drain_s": t("daemon.drain"),
        "daemon.records": (
            0 if workload == "fleet" else collected.daemon_stats.samples_logged
        ),
        "daemon.buffer_lost": outputs["taken"] - outputs["samples"],
        "codec.write_s": t("codec.write"),
        "codec.bytes_written": outputs["sample_bytes"],
        "codec.spills": counters.get("codec.spills", 0),
        "codec.decode_s": t("codec.decode"),
        "codec.records_decoded": counters.get("codec.records_decoded", 0),
        "codemap.emit_s": t("codemap.emit"),
        "codemap.maps_written": maps,
        "codemap.records_written": records,
        "arena.build_s": t("arena.build"),
        "arena.fallbacks": counters.get("arena.fallbacks", 0),
        "codemap.load_s": t("codemap.load"),
        "codemap.epochs": epochs if epochs is not None else maps,
        "jit.map_probes": probes,
        "jit.lookup_runs": counters.get("jit.lookup_runs", 0),
        "jit.probes_per_jit_sample": probes / jit_samples if jit_samples else 0.0,
        "jit.earlier_epoch_pct": (
            100.0 * jit.get("resolved_in_earlier_epoch", 0) / jit_samples
            if jit_samples else 0.0
        ),
        "jit.unresolved": jit.get("unresolved", 0),
        "jit.blocked": jit.get("blocked_at_quarantine", 0),
    }
    arena_bytes = arena_records = 0
    if workload != "fleet":
        path = arena_path_for(collected.viprof_session.map_dir)
        if path.exists():
            arena_bytes = path.stat().st_size
            with CodeMapArena.open(path) as arena:
                arena_records = arena.records
    m["arena.bytes"] = arena_bytes
    m["arena.records"] = arena_records
    for name in tracing.STAGES:
        st = stages.get(name, {"hits": 0, "misses": 0})
        offered = st["hits"] + st["misses"]
        m[f"stage.{name}.self_s"] = t(f"stage.{name}")
        m[f"stage.{name}.offered"] = offered
        m[f"stage.{name}.hit_ratio"] = st["hits"] / offered if offered else 0.0
    cache_hits = sum(c["hits"] for c in outputs["caches"])
    cache_probes = cache_hits + sum(c["misses"] for c in outputs["caches"])
    m["cache.probes"] = cache_probes
    m["cache.hit_ratio"] = cache_hits / cache_probes if cache_probes else 0.0
    col_keys = counters.get("columnar.distinct_keys", 0)
    m["columnar.self_s"] = t("columnar.chunk")
    m["columnar.distinct_keys"] = col_keys
    m["columnar.samples_per_key"] = (
        counters.get("columnar.samples", 0) / col_keys if col_keys else 0.0
    )
    m["columnar.key_runs"] = counters.get("columnar.key_runs", 0)
    m["parallel.workers"] = WORKLOADS[workload]["workers"]
    m["parallel.shards"] = len(shard_dumps)
    m["parallel.plan_s"] = t("parallel.plan")
    m["parallel.merge_s"] = t("parallel.merge")
    m["parallel.wait_s"] = main_self.get("parallel.run", 0.0)
    m["parallel.shard_busy_s"] = t("parallel.shard")
    m["aggregate.rows"] = len(rep.rows)
    m["aggregate.report_s"] = t("aggregate.report")
    m["render.table_s"] = t("render.table")
    m["metrics.report_doc_s"] = t("metrics.report_doc")
    m["metrics.collection_summary_s"] = t("metrics.collection_summary")
    if workload == "fleet":
        root = collected.session_dir / "samples"
        m["xen.root_bytes"] = sum(p.stat().st_size for p in root.glob("*.samples"))
        m["xen.domains"] = len(collected.domain_ids)
    else:
        m["xen.root_bytes"] = 0
        m["xen.domains"] = 0
    m["xen.save_fleet_s"] = t("xen.save_fleet")
    m["trace.self_sum_s"] = sum(main_self.values())
    m["trace.unattributed_s"] = (
        main_self.get("bench.collect", 0.0) + main_self.get("bench.report", 0.0)
    )
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at-ns", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rec = None
    if args.trace:
        rec = tracing.Recorder("main")
        tracing.install(rec, args.workdir / "trace")
    session_dir = args.workdir / "session"
    engine = build_engine(args.workload, args.seed, session_dir)
    ready = time.monotonic_ns()
    out: dict[str, object] = {"setup_s": (ready - args.spawned_at_ns) / 1e9}
    if args.setup_only:
        args.out.write_text(json.dumps(out))
        return 0
    if rec is not None:
        setup_idx = rec.add_span("bench.setup", args.spawned_at_ns, ready)
        # Spans recorded while building the engine belong under set-up.
        for i, s in enumerate(rec.spans[:setup_idx]):
            if s[3] == -1:
                rec.spans[i] = (s[0], s[1], s[2], setup_idx)

    t0 = time.monotonic_ns()
    with _maybe_span(rec, "bench.collect"):
        collected = collect(args.workload, engine)
    collect_s = (time.monotonic_ns() - t0) / 1e9
    report_s: list[float] = []
    digests: set[str] = set()
    for _ in range(1 if rec is not None else REPORT_PASSES):
        t1 = time.monotonic_ns()
        with _maybe_span(rec, "bench.report"):
            rep, chain, doc, epochs = report(args.workload, collected, rec)
        report_s.append((time.monotonic_ns() - t1) / 1e9)
        if len(report_s) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digests.add(digest_of(doc))

    main_dump = shard_dumps = None
    if rec is not None:
        tracing.collect_shards(rec, args.workdir / "trace")
        main_dump = rec.dump()
        shard_dumps = rec.shard_dumps
        rec.save(args.workdir / "trace" / "main.trace")

    outputs, problems = check_outputs(
        args.workload, engine, collected, rep, chain, doc
    )
    if len(digests) > 1:
        problems.append("report digest differs between report passes")
    outputs["accounting"] = accounting(args.workload, engine, collected, rep)
    out.update(
        collect_s=collect_s,
        report_s=report_s,
        peak_rss_mb=peak_rss_mb,
        problems=problems,
        **{k: outputs[k] for k in ("taken", "unattributed", "samples", "digest", "shape")},
        accounting=outputs["accounting"],
    )
    if rec is not None:
        out["layers"] = layer_metrics(
            args.workload, collected, rep, chain, epochs, outputs,
            main_dump, shard_dumps,
        )
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
