//! Scale-axis sweep: implicit topologies from 64 to 65 536 nodes.
//!
//! Climbs a size ladder of multistage (`min-<k>x<stages>`) and
//! hierarchical (`clustered-<C>x-<inner>`) networks built through the
//! registry — all with *implicit* O(1) channel storage and lazy
//! [`SimPlan`] tables, so the 64k-node point never allocates an `n × n`
//! path table. Every rung asserts finite simulated latencies; rungs up to
//! 4 096 nodes run both engines over one shared plan and require
//! bit-identical dynamics (the differential guarantee does not weaken
//! with scale), while the 64k rung runs the event engine alone.
//!
//! Analytical overlays are deliberately absent: no backend is applicable
//! to implicit storage (`ModelError::UnsupportedTopology`), which is why
//! the ladder sweeps explicit rates rather than saturation fractions.
//!
//! Writes `BENCH_scale.json` at the workspace root with per-rung wall
//! clock, flit traffic and the process peak RSS (`VmHWM`) after each
//! rung. The 64k rung must finish inside [`RSS_BUDGET_MIB`] — the memory
//! gate CI holds the implicit representation to; exceeding it (or any
//! non-finite latency) exits nonzero.
//!
//! ```text
//! cargo run --release -p noc-bench --bin fig-scale -- [--quick] [--seed n]
//! ```

use noc_bench::cli::Options;
use noc_sim::{build_engine_with_plan, EngineKind, SimConfig, SimPlan, SimResults, TelemetrySpec};
use noc_topology::TopologySpec;
use noc_workloads::{DestinationSets, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Peak-RSS budget (MiB) for the whole ladder through the 64k quick
/// point. The dominant allocations at 65 536 nodes are the per-cv and
/// per-channel engine state (~459k channels, one vc each) plus the lazy
/// plan's memoized stream slots — tens of MiB; an `n × n` path table
/// alone would need gigabytes, so this budget fails loudly if the dense
/// path ever sneaks back in.
const RSS_BUDGET_MIB: u64 = 512;

/// The size ladder: registry spec, generation rate, and whether the rung
/// runs both engines differentially (bounded to ≤ 4 096 nodes to keep
/// the cycle engine's O(nodes · cycles) scan out of the 64k rung).
const LADDER: &[(&str, f64, bool)] = &[
    ("min-4x3", 5e-4, true),
    ("clustered-4x-mesh-8x8", 5e-4, true),
    ("min-8x3", 5e-4, true),
    ("min-16x3", 5e-4, true),
    ("min-16x4", 5e-4, false), // 65 536 terminals — the scale target
];

fn cfg(quick: bool, seed: u64) -> SimConfig {
    let (warmup, measure, drain) = if quick {
        (200, 800, 4_000)
    } else {
        (500, 3_000, 12_000)
    };
    SimConfig {
        seed,
        warmup_cycles: warmup,
        measure_cycles: measure,
        drain_cycles: drain,
        buffer_depth: 2,
        backlog_limit: 500_000,
        batch_size: 16,
        engine: EngineKind::default(),
        telemetry: TelemetrySpec::off(),
    }
}

/// Current peak resident set (`VmHWM`) in MiB; `None` where
/// `/proc/self/status` is unavailable (non-Linux hosts skip the gate).
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

fn assert_finite(spec: &str, engine: &str, res: &SimResults) {
    assert!(
        !res.saturated && !res.deadlocked,
        "{spec} [{engine}]: the ladder's fixed rates must stay sub-saturation"
    );
    for (what, v) in [
        ("unicast mean", res.unicast.mean),
        ("multicast mean", res.multicast.mean),
    ] {
        assert!(
            v.is_finite() && v > 0.0,
            "{spec} [{engine}]: non-finite {what} ({v})"
        );
    }
}

struct Row {
    spec: String,
    nodes: usize,
    channels: usize,
    wall_ms: f64,
    cycles: u64,
    flit_moves: u64,
    unicast_mean: f64,
    multicast_mean: f64,
    differential: bool,
    peak_rss_mib: Option<u64>,
}

fn run_rung(spec_str: &str, rate: f64, differential: bool, opts: &Options) -> Row {
    let spec = TopologySpec::parse(spec_str).expect("ladder specs parse");
    let topo = spec.build().expect("ladder specs build");
    let n = topo.num_nodes();
    assert!(
        topo.network().is_implicit(),
        "{spec_str}: the scale ladder exists to exercise implicit storage"
    );

    let sets = DestinationSets::sampled(topo.as_ref(), 4, opts.seed);
    let wl = Workload::new(8, rate, 0.1, sets).expect("ladder workload");
    let plan = SimPlan::build(topo.as_ref(), &wl).expect("plan builds");
    assert!(plan.is_lazy(), "{spec_str}: implicit nets get lazy plans");

    let cfg = cfg(opts.quick, opts.seed);
    let t0 = Instant::now();
    let event = build_engine_with_plan(topo.as_ref(), &wl, cfg, Arc::clone(&plan)).run();
    let wall_ms = t0.elapsed().as_nanos() as f64 / 1e6;
    assert_finite(spec_str, "event", &event);

    if differential {
        let cycle_cfg = cfg.with_engine(EngineKind::Cycle);
        let cycle = build_engine_with_plan(topo.as_ref(), &wl, cycle_cfg, Arc::clone(&plan)).run();
        assert_finite(spec_str, "cycle", &cycle);
        assert_eq!(event.cycles, cycle.cycles, "{spec_str}: cycles diverged");
        assert_eq!(
            event.flit_moves, cycle.flit_moves,
            "{spec_str}: flit moves diverged"
        );
        assert_eq!(
            event.total_absorbed, cycle.total_absorbed,
            "{spec_str}: absorbed counts diverged"
        );
    }

    Row {
        spec: spec_str.to_string(),
        nodes: n,
        channels: topo.network().num_channels(),
        wall_ms,
        cycles: event.cycles,
        flit_moves: event.flit_moves,
        unicast_mean: event.unicast.mean,
        multicast_mean: event.multicast.mean,
        differential,
        peak_rss_mib: peak_rss_mib(),
    }
}

fn emit_json(rows: &[Row], quick: bool) {
    let mut json = String::from("{\n  \"bench\": \"fig-scale\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"rss_budget_mib\": {RSS_BUDGET_MIB},\n"));
    json.push_str("  \"points\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let rss = r.peak_rss_mib.map_or("null".to_string(), |m| m.to_string());
        json.push_str(&format!(
            "    {{\"spec\": \"{}\", \"nodes\": {}, \"channels\": {}, \
             \"wall_ms\": {:.2}, \"cycles\": {}, \"flit_moves\": {}, \
             \"unicast_mean\": {:.4}, \"multicast_mean\": {:.4}, \
             \"differential\": {}, \"peak_rss_mib\": {}}}{}\n",
            r.spec,
            r.nodes,
            r.channels,
            r.wall_ms,
            r.cycles,
            r.flit_moves,
            r.unicast_mean,
            r.multicast_mean,
            r.differential,
            rss,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote BENCH_scale.json ({} rungs)", rows.len()),
        Err(e) => eprintln!("could not write BENCH_scale.json: {e}"),
    }
}

fn main() {
    let opts = Options::from_env();
    println!("== Scale ladder: implicit topologies, explicit-rate sweep ==\n");
    let mut rows = Vec::with_capacity(LADDER.len());
    for &(spec, rate, differential) in LADDER {
        let row = run_rung(spec, rate, differential, &opts);
        println!(
            "{:<24} {:>6} nodes {:>8} channels  {:>9.1} ms  {:>9} flits  \
             uni {:>7.2}  multi {:>7.2}  rss {:>5} MiB{}",
            row.spec,
            row.nodes,
            row.channels,
            row.wall_ms,
            row.flit_moves,
            row.unicast_mean,
            row.multicast_mean,
            row.peak_rss_mib
                .map_or("n/a".to_string(), |m| m.to_string()),
            if row.differential {
                "  [both engines, bit-identical]"
            } else {
                "  [event engine]"
            },
        );
        rows.push(row);
    }
    emit_json(&rows, opts.quick);

    if let Some(rss) = rows.last().and_then(|r| r.peak_rss_mib) {
        if rss > RSS_BUDGET_MIB {
            eprintln!(
                "FAIL: peak RSS {rss} MiB exceeds the {RSS_BUDGET_MIB} MiB budget \
                 for the 64k implicit-topology rung"
            );
            std::process::exit(1);
        }
        println!("\npeak RSS {rss} MiB (budget {RSS_BUDGET_MIB} MiB) — OK");
    } else {
        println!("\npeak RSS unavailable on this host; memory gate skipped");
    }
}
