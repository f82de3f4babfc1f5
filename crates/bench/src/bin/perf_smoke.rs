//! CI perf smoke: the event engine must not lose to the cycle engine at
//! high load.
//!
//! Runs one deliberately hostile sweep point — a 64-node Quarc past the
//! saturation knee, where nearly every cycle is active and the event
//! engine has no inert cycles to skip — on both engines over a shared
//! [`SimPlan`], checks the runs are bit-identical, and fails (exit 1) if
//! the event engine's wall-clock exceeds 1.1× the cycle engine's. Both
//! are the same flit kernel, so this gates exactly what the skip policy
//! adds per simulated cycle: the event-queue jumps, the streaming-span
//! scan and its backoff. The cycle run must have simulated every cycle
//! and batched nothing, or the comparison is void. The full trajectory
//! lives in `BENCH_sim.json`.
//!
//! ```text
//! cargo run --release -p noc-bench --bin perf-smoke [-- n rate samples]
//! ```
//!
//! Defaults to `64 0.005 5`; the optional overrides probe other points
//! with the same interleaved-sampling methodology.

use noc_sim::{build_engine_with_plan, EngineKind, SimConfig, SimPlan, SimResults, TelemetrySpec};
use noc_topology::{Quarc, Topology};
use noc_workloads::{DestinationSets, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock budget: event time must stay within this factor of cycle
/// time at the probed point (a loss here is exactly the regression this
/// gate exists to catch; the tolerance absorbs CI timer noise).
const BUDGET: f64 = 1.1;

fn cfg() -> SimConfig {
    SimConfig {
        seed: 7,
        warmup_cycles: 1_000,
        measure_cycles: 8_000,
        drain_cycles: 20_000,
        buffer_depth: 2,
        backlog_limit: 50_000,
        batch_size: 32,
        engine: EngineKind::default(),
        // The gate times the hot path as shipped: telemetry off. The
        // disabled taps are the overhead budget this run holds them to.
        telemetry: TelemetrySpec::off(),
    }
}

fn run_once(
    topo: &dyn Topology,
    wl: &Workload,
    plan: &Arc<SimPlan>,
    engine: EngineKind,
) -> SimResults {
    build_engine_with_plan(topo, wl, cfg().with_engine(engine), Arc::clone(plan)).run()
}

/// Run `samples` back-to-back cycle/event pairs (after one warmup run of
/// each) and return `(cycle_ms, event_ms, ratio)`:
///
/// * the per-engine wall-clock *minima* — host steal time only ever
///   adds, so the minimum estimates each engine's intrinsic cost;
/// * the *median of per-pair event/cycle ratios*, the statistic the gate
///   judges. The two runs of a pair execute within milliseconds of each
///   other, so each pair's ratio is taken under one machine state
///   (frequency, steal, cache temperature) and common-mode noise
///   divides out; pair order alternates to cancel ramp bias, and the
///   median discards pairs a steal burst split down the middle. Ratios
///   of minima taken seconds apart spread several percent on a shared
///   box — paired medians hold to well under one percent.
fn time_engines(
    topo: &dyn Topology,
    wl: &Workload,
    plan: &Arc<SimPlan>,
    samples: usize,
) -> (f64, f64, f64, SimResults, SimResults) {
    let cycle_res = run_once(topo, wl, plan, EngineKind::Cycle);
    // The gate must compare skipping against stepping: a cycle run that
    // skipped or batched would make the ratio meaningless.
    assert_eq!(
        cycle_res.engine.simulated_cycles, cycle_res.cycles,
        "the cycle engine skipped cycles"
    );
    assert_eq!(
        cycle_res.engine.spans_batched, 0,
        "the cycle engine batched spans"
    );
    let event_res = run_once(topo, wl, plan, EngineKind::EventDriven);
    let mut cycle_times = Vec::with_capacity(samples);
    let mut event_times = Vec::with_capacity(samples);
    let mut ratios = Vec::with_capacity(samples);
    for i in 0..samples {
        let timed = |engine| {
            let t0 = Instant::now();
            let _ = run_once(topo, wl, plan, engine);
            t0.elapsed().as_nanos()
        };
        let (cycle_ns, event_ns) = if i % 2 == 0 {
            let c = timed(EngineKind::Cycle);
            let e = timed(EngineKind::EventDriven);
            (c, e)
        } else {
            let e = timed(EngineKind::EventDriven);
            let c = timed(EngineKind::Cycle);
            (c, e)
        };
        cycle_times.push(cycle_ns);
        event_times.push(event_ns);
        ratios.push(event_ns as f64 / cycle_ns.max(1) as f64);
    }
    ratios.sort_unstable_by(f64::total_cmp);
    (
        *cycle_times.iter().min().unwrap() as f64 / 1e6,
        *event_times.iter().min().unwrap() as f64 / 1e6,
        ratios[samples / 2],
        cycle_res,
        event_res,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().map_or(64, |s| s.parse().expect("n"));
    let rate: f64 = args.get(1).map_or(0.005, |s| s.parse().expect("rate"));
    let samples: usize = args.get(2).map_or(5, |s| s.parse().expect("samples"));
    let topo = Quarc::new(n).unwrap();
    let sets = DestinationSets::random(&topo, n / 4, 1);
    let wl = Workload::new(32, rate, 0.05, sets).unwrap();
    let plan = SimPlan::build(&topo, &wl).expect("plan builds");

    println!("== Perf smoke: quarc n={n} @ rate {rate} (past the knee) ==\n");
    let (cycle_ms, event_ms, ratio, cycle_res, event_res) =
        time_engines(&topo, &wl, &plan, samples);

    // The perf gate is only meaningful if the engines ran the same
    // simulation; a divergence is a far worse bug than a slowdown.
    assert_eq!(cycle_res.cycles, event_res.cycles, "cycle counts diverged");
    assert_eq!(
        cycle_res.flit_moves, event_res.flit_moves,
        "flit moves diverged"
    );
    assert_eq!(
        cycle_res.total_absorbed, event_res.total_absorbed,
        "absorbed counts diverged"
    );

    let ec = event_res.engine;
    println!(
        "cycle engine: {cycle_ms:>8.2} ms  ({} cycles)",
        cycle_res.cycles
    );
    println!(
        "event engine: {event_ms:>8.2} ms  ({} stepped / {} total cycles, \
         {} events, {} spans x {} cycles, {} failed scans)",
        ec.simulated_cycles,
        event_res.cycles,
        ec.events_popped,
        ec.spans_batched,
        ec.span_cycles,
        ec.span_scans_failed,
    );
    println!("\nevent / cycle wall-clock: {ratio:.3} (paired-median; budget {BUDGET})");

    if ratio > BUDGET {
        eprintln!(
            "FAIL: the event engine lost to the cycle engine at high load \
             ({event_ms:.2} ms vs {cycle_ms:.2} ms)"
        );
        std::process::exit(1);
    }
    println!("OK");
}
