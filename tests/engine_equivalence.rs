//! Differential suite: the event-driven engine must reproduce the
//! cycle-stepped reference engine **bit-for-bit** under a shared seed —
//! same delivered counts, same latency samples in the same order (hence
//! bit-identical means and confidence intervals), same cycle counts, same
//! per-channel utilisation — on every topology, at low and mid load, and
//! across early-termination paths (saturation, backlog overflow).

use quarc_noc::prelude::*;
use quarc_noc::sim::{build_engine, EngineKind, SimConfig, SimResults};

/// Run both engines on the same (topology, workload, seed) and return
/// their results as (cycle, event).
fn both(topo: &dyn Topology, wl: &Workload, cfg: SimConfig) -> (SimResults, SimResults) {
    let cycle = build_engine(topo, wl, cfg.with_engine(EngineKind::Cycle))
        .unwrap()
        .run();
    let event = build_engine(topo, wl, cfg.with_engine(EngineKind::EventDriven))
        .unwrap()
        .run();
    assert_stepped(&cycle);
    (cycle, event)
}

/// The oracle side of a pair must really have stepped every cycle: the
/// policy comes from `cfg.engine` alone, so no type stops a skipping
/// engine from standing in for the reference.
fn assert_stepped(cycle: &SimResults) {
    assert_eq!(
        cycle.engine.simulated_cycles, cycle.cycles,
        "the cycle-side run skipped cycles"
    );
    assert_eq!(
        cycle.engine.spans_batched, 0,
        "the cycle-side run batched spans"
    );
}

/// Bitwise equality for f64 statistics (NaN-safe: both engines must
/// produce the same bits, including for empty-population NaNs).
fn assert_f64_bits(a: f64, b: f64, what: &str, ctx: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{ctx}: {what} differs: cycle {a} vs event {b}"
    );
}

fn assert_stats_equal(
    a: &quarc_noc::sim::LatencyStats,
    b: &quarc_noc::sim::LatencyStats,
    ctx: &str,
) {
    assert_eq!(a.count, b.count, "{ctx}: sample count");
    assert_f64_bits(a.mean, b.mean, "mean", ctx);
    assert_f64_bits(a.ci95, b.ci95, "ci95", ctx);
    assert_f64_bits(a.min, b.min, "min", ctx);
    assert_f64_bits(a.max, b.max, "max", ctx);
    assert_f64_bits(a.p50, b.p50, "p50", ctx);
    assert_f64_bits(a.p95, b.p95, "p95", ctx);
    assert_f64_bits(a.p99, b.p99, "p99", ctx);
}

fn assert_runs_identical(cycle: &SimResults, event: &SimResults, ctx: &str) {
    // Termination trajectory.
    assert_eq!(cycle.cycles, event.cycles, "{ctx}: cycle count");
    assert_eq!(cycle.saturated, event.saturated, "{ctx}: saturation flag");
    assert_eq!(cycle.deadlocked, event.deadlocked, "{ctx}: deadlock flag");

    // Conservation counters.
    assert_eq!(
        cycle.total_generated, event.total_generated,
        "{ctx}: generated"
    );
    assert_eq!(
        cycle.total_absorbed, event.total_absorbed,
        "{ctx}: absorbed"
    );
    assert_eq!(cycle.flit_moves, event.flit_moves, "{ctx}: flit moves");
    assert_eq!(
        cycle.peak_backlog, event.peak_backlog,
        "{ctx}: peak backlog"
    );

    // Delivered-message counts.
    assert_eq!(
        cycle.unicast_injected, event.unicast_injected,
        "{ctx}: uni inj"
    );
    assert_eq!(
        cycle.unicast_delivered, event.unicast_delivered,
        "{ctx}: uni del"
    );
    assert_eq!(
        cycle.multicast_injected, event.multicast_injected,
        "{ctx}: mc inj"
    );
    assert_eq!(
        cycle.multicast_delivered, event.multicast_delivered,
        "{ctx}: mc del"
    );

    // Latency populations, bit-identical (same samples in the same order).
    assert_stats_equal(&cycle.unicast, &event.unicast, ctx);
    assert_stats_equal(&cycle.multicast, &event.multicast, ctx);
    assert_stats_equal(&cycle.stream, &event.stream, ctx);
    assert_eq!(
        cycle.multicast_by_source.len(),
        event.multicast_by_source.len(),
        "{ctx}: per-source stats arity"
    );
    for (i, (c, e)) in cycle
        .multicast_by_source
        .iter()
        .zip(&event.multicast_by_source)
        .enumerate()
    {
        assert_stats_equal(c, e, &format!("{ctx} (source {i})"));
    }

    // Histogram and per-channel utilisation, exact.
    assert_eq!(
        cycle.multicast_hist.bins(),
        event.multicast_hist.bins(),
        "{ctx}: histogram bins"
    );
    assert_eq!(
        cycle.multicast_hist.overflow(),
        event.multicast_hist.overflow(),
        "{ctx}: histogram overflow"
    );
    assert_eq!(
        cycle.channel_utilization.len(),
        event.channel_utilization.len(),
        "{ctx}: utilisation arity"
    );
    for (ch, (c, e)) in cycle
        .channel_utilization
        .iter()
        .zip(&event.channel_utilization)
        .enumerate()
    {
        assert_f64_bits(*c, *e, &format!("utilisation of channel {ch}"), ctx);
    }

    // Flight-recorder artifacts: the streaming latency histograms and the
    // windowed utilization series are integer-counted and must match
    // exactly. The raw event trace is *excluded*: the engines schedule
    // work in different orders inside a cycle (documented on
    // `SimResults::trace`), so only its derived aggregates are contracts.
    assert_eq!(
        cycle.latency_hists, event.latency_hists,
        "{ctx}: latency histograms"
    );
    assert_eq!(cycle.util, event.util, "{ctx}: utilization series");
}

/// Seeded low/mid-load differential run on one topology.
fn check_topology(topo: &dyn Topology, rates: &[f64], alpha: f64, group: usize, seed: u64) {
    let sets = DestinationSets::random(topo, group, seed);
    for &rate in rates {
        let wl = Workload::new(16, rate, alpha, sets.clone()).unwrap();
        let (cycle, event) = both(topo, &wl, SimConfig::quick(seed));
        let ctx = format!("{} rate {rate}", topo.name());
        assert!(
            cycle.total_generated > 0,
            "{ctx}: the run must generate traffic"
        );
        assert_runs_identical(&cycle, &event, &ctx);
    }
}

#[test]
fn quarc_low_and_mid_load_identical() {
    let topo = Quarc::new(16).unwrap();
    check_topology(&topo, &[0.002, 0.012], 0.05, 4, 11);
}

#[test]
fn ring_low_and_mid_load_identical() {
    let topo = Ring::new(9).unwrap();
    check_topology(&topo, &[0.002, 0.010], 0.08, 3, 13);
}

#[test]
fn mesh_low_and_mid_load_identical() {
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    check_topology(&topo, &[0.002, 0.008], 0.08, 4, 17);
}

#[test]
fn torus_low_and_mid_load_identical() {
    let topo = Mesh::new(4, 4, MeshKind::Torus).unwrap();
    check_topology(&topo, &[0.002, 0.008], 0.08, 4, 19);
}

#[test]
fn spidergon_low_and_mid_load_identical() {
    let topo = Spidergon::new(12).unwrap();
    check_topology(&topo, &[0.001, 0.006], 0.05, 4, 23);
}

#[test]
fn hypercube_low_and_mid_load_identical() {
    let topo = Hypercube::new(4).unwrap();
    check_topology(&topo, &[0.002, 0.010], 0.05, 4, 29);
}

#[test]
fn min_low_and_mid_load_identical() {
    // Implicit storage + lazy plan: the engines memoize stream tables on
    // demand in different orders, which must not leak into the results.
    let topo = Min::new(2, 4).unwrap();
    check_topology(&topo, &[0.002, 0.010], 0.05, 4, 73);
}

#[test]
fn clustered_low_and_mid_load_identical() {
    let inner: std::sync::Arc<dyn Topology> = std::sync::Arc::new(Quarc::new(8).unwrap());
    let topo = Clustered::new(2, inner).unwrap();
    check_topology(&topo, &[0.002, 0.010], 0.05, 4, 79);
}

#[test]
fn min_saturated_load_breaks_identically() {
    // One-port butterfly under far-past-knee load: the backlog break must
    // land on the same cycle even though the lazy plan forces its stream
    // tables mid-run.
    let topo = Min::new(2, 4).unwrap();
    let sets = DestinationSets::random(&topo, 4, 83);
    let wl = Workload::new(64, 0.8, 0.5, sets).unwrap();
    let mut cfg = SimConfig::quick(83);
    cfg.backlog_limit = 2_000;
    let (cycle, event) = both(&topo, &wl, cfg);
    assert!(cycle.saturated, "rate 0.8 with 64-flit messages saturates");
    assert_runs_identical(&cycle, &event, "min saturated");
}

#[test]
fn clustered_saturated_load_breaks_identically() {
    // The express crossbar is the bottleneck: inter-cluster traffic piles
    // onto one gateway link per cluster pair.
    let inner: std::sync::Arc<dyn Topology> = std::sync::Arc::new(Quarc::new(8).unwrap());
    let topo = Clustered::new(2, inner).unwrap();
    let sets = DestinationSets::random(&topo, 4, 89);
    let wl = Workload::new(64, 0.8, 0.5, sets).unwrap();
    let mut cfg = SimConfig::quick(89);
    cfg.backlog_limit = 2_000;
    let (cycle, event) = both(&topo, &wl, cfg);
    assert!(cycle.saturated, "rate 0.8 with 64-flit messages saturates");
    assert_runs_identical(&cycle, &event, "clustered saturated");
}

#[test]
fn every_routing_scheme_is_engine_bit_identical() {
    // The engines replay the SimPlan's stream tables, so equivalence must
    // hold per routing scheme, not just for the default path-based one.
    use quarc_noc::topology::ALL_ROUTINGS;
    let quarc = Quarc::new(16).unwrap();
    let mesh = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let cube = Hypercube::new(4).unwrap();
    let topos: [&dyn Topology; 3] = [&quarc, &mesh, &cube];
    for topo in topos {
        let sets = DestinationSets::random(topo, 4, 37);
        for routing in ALL_ROUTINGS {
            for rate in [0.002, 0.010] {
                let wl = Workload::new(16, rate, 0.08, sets.clone())
                    .unwrap()
                    .with_routing(routing);
                let (cycle, event) = both(topo, &wl, SimConfig::quick(37));
                let ctx = format!("{} {routing} rate {rate}", topo.name());
                assert!(cycle.multicast_injected > 0, "{ctx}: multicast ran");
                assert_runs_identical(&cycle, &event, &ctx);
            }
        }
    }
}

#[test]
fn saturating_runs_break_identically() {
    // Early termination paths (backlog overflow / drain deadline) must
    // happen on the same cycle with the same flags.
    let topo = Quarc::new(8).unwrap();
    let sets = DestinationSets::random(&topo, 2, 3);
    let wl = Workload::new(64, 0.9, 0.5, sets).unwrap();
    let mut cfg = SimConfig::quick(13);
    cfg.backlog_limit = 2_000;
    let (cycle, event) = both(&topo, &wl, cfg);
    assert!(cycle.saturated);
    assert_runs_identical(&cycle, &event, "quarc saturating");
}

#[test]
fn mesh_saturated_load_breaks_identically() {
    // Saturated mesh: the event queue sees dense same-cycle arrival
    // bursts and the span-scan backoff is maximally engaged; the early
    // backlog break must still land on the same cycle with identical
    // statistics.
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let sets = DestinationSets::random(&topo, 4, 41);
    let wl = Workload::new(64, 0.8, 0.5, sets).unwrap();
    let mut cfg = SimConfig::quick(41);
    cfg.backlog_limit = 2_000;
    let (cycle, event) = both(&topo, &wl, cfg);
    assert!(cycle.saturated, "rate 0.8 with 64-flit messages saturates");
    assert_runs_identical(&cycle, &event, "mesh saturated");
}

#[test]
fn torus_saturated_load_breaks_identically() {
    // Same probe on the torus, whose wraparound channels give the
    // dateline vc switch plenty of exercise under full backpressure.
    let topo = Mesh::new(4, 4, MeshKind::Torus).unwrap();
    let sets = DestinationSets::random(&topo, 4, 43);
    let wl = Workload::new(64, 0.8, 0.5, sets).unwrap();
    let mut cfg = SimConfig::quick(43);
    cfg.backlog_limit = 2_000;
    let (cycle, event) = both(&topo, &wl, cfg);
    assert!(cycle.saturated, "rate 0.8 with 64-flit messages saturates");
    assert_runs_identical(&cycle, &event, "torus saturated");
}

#[test]
fn near_knee_load_identical() {
    // Heavy-but-draining load: the event engine spends most cycles in
    // active stepping rather than skipping; equality must still be exact.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 7);
    let wl = Workload::new(32, 0.02, 0.10, sets).unwrap();
    let (cycle, event) = both(&topo, &wl, SimConfig::quick(31));
    assert_runs_identical(&cycle, &event, "quarc near knee");
}

#[test]
fn zero_rate_runs_terminate_identically() {
    // With no traffic at all the run must end at the measurement boundary
    // on both engines (the event engine jumps there in one hop).
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 1);
    let wl = Workload::new(16, 0.0, 0.0, sets).unwrap();
    let (cycle, event) = both(&topo, &wl, SimConfig::quick(1));
    assert_runs_identical(&cycle, &event, "quarc zero rate");
    assert_eq!(cycle.cycles, SimConfig::quick(1).measure_end());
}

// ---------------------------------------------------------------------
// Closed-loop protocols: the per-node machines must replay bit-
// identically on both engines — same event order, same RNG draws, same
// injections, same quiescence cycle.
// ---------------------------------------------------------------------

/// Run both engines closed-loop on the same (topology, sets, spec, seed).
fn both_closed(
    topo: &dyn Topology,
    sets: DestinationSets,
    spec: &ClosedLoopSpec,
    seed: u64,
) -> (SimResults, SimResults) {
    let wl = Workload::new(8, 0.0, 0.0, sets).unwrap();
    let cfg = SimConfig::quick(seed);
    let mut cycle = build_engine(topo, &wl, cfg.with_engine(EngineKind::Cycle)).unwrap();
    cycle.install_closed_loop(spec, seed);
    let mut event = build_engine(topo, &wl, cfg.with_engine(EngineKind::EventDriven)).unwrap();
    event.install_closed_loop(spec, seed);
    (cycle.run(), event.run())
}

fn assert_closed_identical(cycle: &SimResults, event: &SimResults, ctx: &str) {
    assert_runs_identical(cycle, event, ctx);
    let c = cycle.closed_loop.as_ref().expect("cycle closed-loop stats");
    let e = event.closed_loop.as_ref().expect("event closed-loop stats");
    assert_eq!(c.requests_issued, e.requests_issued, "{ctx}: issued");
    assert_eq!(c.requests_retired, e.requests_retired, "{ctx}: retired");
    assert_stats_equal(&c.completion, &e.completion, ctx);
    assert_f64_bits(c.avg_outstanding, e.avg_outstanding, "avg outstanding", ctx);
    assert_f64_bits(c.ops_per_cycle, e.ops_per_cycle, "ops per cycle", ctx);
    assert_eq!(c.quiesced, e.quiesced, "{ctx}: quiesced flag");
    assert_eq!(c.quiesce_cycle, e.quiesce_cycle, "{ctx}: quiescence cycle");
    assert_eq!(
        c.completion_hist, e.completion_hist,
        "{ctx}: completion histogram"
    );
}

#[test]
fn coherence_closed_loop_identical_on_quarc_and_mesh() {
    let spec = ClosedLoopSpec::Coherence {
        window: 4,
        requests: 40,
        write_fraction: 0.3,
    };
    let quarc = Quarc::new(16).unwrap();
    let mesh = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let topos: [&dyn Topology; 2] = [&quarc, &mesh];
    for topo in topos {
        let sets = DestinationSets::random(topo, 4, 51);
        let (cycle, event) = both_closed(topo, sets, &spec, 51);
        let ctx = format!("{} coherence", topo.name());
        let cl = cycle.closed_loop.as_ref().unwrap();
        assert!(cl.quiesced, "{ctx}: must quiesce");
        assert_eq!(cl.requests_retired, 16 * 40, "{ctx}: every request retires");
        assert_closed_identical(&cycle, &event, &ctx);
    }
}

#[test]
fn barrier_closed_loop_identical_on_quarc_and_torus() {
    // The barrier exercises the timer path (compute delays) and the
    // broadcast release; its fan-in tree must converge identically.
    let spec = ClosedLoopSpec::Barrier {
        rounds: 6,
        radix: 2,
        compute: 12,
    };
    let quarc = Quarc::new(16).unwrap();
    let torus = Mesh::new(4, 4, MeshKind::Torus).unwrap();
    let topos: [&dyn Topology; 2] = [&quarc, &torus];
    for topo in topos {
        let sets = DestinationSets::broadcast(topo);
        let (cycle, event) = both_closed(topo, sets, &spec, 53);
        let ctx = format!("{} barrier", topo.name());
        let cl = cycle.closed_loop.as_ref().unwrap();
        assert!(cl.quiesced, "{ctx}: must quiesce");
        assert_eq!(cl.requests_retired, 16 * 6, "{ctx}: every round retires");
        assert_closed_identical(&cycle, &event, &ctx);
    }
}

#[test]
fn closed_loop_seeds_decorrelate_but_replay() {
    // Same seed → bit-identical; different master seed → different
    // trajectory (the protocol RNGs really are seeded per run).
    let topo = Quarc::new(16).unwrap();
    let spec = ClosedLoopSpec::Coherence {
        window: 2,
        requests: 24,
        write_fraction: 0.5,
    };
    let sets = DestinationSets::random(&topo, 4, 57);
    let (a, _) = both_closed(&topo, sets.clone(), &spec, 57);
    let (b, _) = both_closed(&topo, sets.clone(), &spec, 57);
    assert_eq!(a.flit_moves, b.flit_moves, "same seed replays");
    assert_eq!(a.cycles, b.cycles);
    let (c, _) = both_closed(&topo, sets, &spec, 58);
    assert_ne!(
        a.flit_moves, c.flit_moves,
        "different master seed, different run"
    );
}

// ---------------------------------------------------------------------
// Flight recorder: enabling telemetry must not perturb the simulation,
// and the telemetry the two engines record must itself be identical
// (utilization series exactly; traces compared as multisets since the
// engines order same-cycle work differently).
// ---------------------------------------------------------------------

#[test]
fn telemetry_on_both_engines_stays_bit_identical() {
    use quarc_noc::sim::TelemetrySpec;
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 61);
    for rate in [0.002, 0.012] {
        let wl = Workload::new(16, rate, 0.05, sets.clone()).unwrap();
        let cfg = SimConfig::quick(61).with_telemetry(TelemetrySpec::flight_recorder(1 << 16, 64));
        let (cycle, event) = both(&topo, &wl, cfg);
        let ctx = format!("quarc telemetry-on rate {rate}");
        assert_runs_identical(&cycle, &event, &ctx);
        let cu = cycle.util.as_ref().expect("cycle util captured");
        assert!(cu.num_windows() > 0, "{ctx}: windows recorded");
        // Same flit movement → same trace *population*, even though the
        // engines emit same-cycle events in different orders.
        let ct = cycle.trace.as_ref().expect("cycle trace captured");
        let et = event.trace.as_ref().expect("event trace captured");
        assert_eq!(ct.dropped, 0, "{ctx}: ring big enough for a quick run");
        let key = |t: &quarc_noc::sim::TraceLog| {
            let mut k: Vec<(u64, u8, u32)> = t
                .events
                .iter()
                .map(|e| (e.at, e.kind as u8, e.loc))
                .collect();
            k.sort_unstable();
            k
        };
        assert_eq!(key(ct), key(et), "{ctx}: trace multisets");
    }
}

#[test]
fn telemetry_is_observation_only() {
    use quarc_noc::sim::TelemetrySpec;
    // The PR 6 guard: a run with the flight recorder on must report the
    // same simulation — every pre-telemetry field bit-identical — as the
    // same run with it off, on both engines.
    let topo = Mesh::new(4, 4, MeshKind::Mesh).unwrap();
    let sets = DestinationSets::random(&topo, 4, 67);
    let wl = Workload::new(16, 0.008, 0.08, sets).unwrap();
    let base = SimConfig::quick(67);
    let on = base.with_telemetry(TelemetrySpec::flight_recorder(1 << 16, 128));
    let (cycle_off, event_off) = both(&topo, &wl, base);
    let (cycle_on, event_on) = both(&topo, &wl, on);
    for (off, on, ctx) in [
        (&cycle_off, &cycle_on, "cycle on-vs-off"),
        (&event_off, &event_on, "event on-vs-off"),
    ] {
        assert_eq!(off.cycles, on.cycles, "{ctx}: cycle count");
        assert_eq!(off.flit_moves, on.flit_moves, "{ctx}: flit moves");
        assert_eq!(off.total_absorbed, on.total_absorbed, "{ctx}: absorbed");
        assert_stats_equal(&off.unicast, &on.unicast, ctx);
        assert_stats_equal(&off.multicast, &on.multicast, ctx);
        for (c, e) in off.channel_utilization.iter().zip(&on.channel_utilization) {
            assert_f64_bits(*c, *e, "channel utilization", ctx);
        }
        assert!(
            off.trace.is_none() && off.util.is_none(),
            "{ctx}: off is off"
        );
        assert!(on.trace.is_some() && on.util.is_some(), "{ctx}: on is on");
    }
}

#[test]
fn closed_loop_telemetry_identical_and_offsets_re_zeroed() {
    use quarc_noc::sim::TelemetrySpec;
    // Closed-loop runs measure from cycle 1 (no warmup): the utilization
    // series must start at window 0, and both engines must agree on it.
    let topo = Quarc::new(16).unwrap();
    let spec = ClosedLoopSpec::Coherence {
        window: 4,
        requests: 24,
        write_fraction: 0.3,
    };
    let sets = DestinationSets::random(&topo, 4, 71);
    let wl = Workload::new(8, 0.0, 0.0, sets).unwrap();
    let cfg = SimConfig::quick(71).with_telemetry(TelemetrySpec::flight_recorder(1 << 16, 64));
    let mut cycle = build_engine(&topo, &wl, cfg.with_engine(EngineKind::Cycle)).unwrap();
    cycle.install_closed_loop(&spec, 71);
    let mut event = build_engine(&topo, &wl, cfg.with_engine(EngineKind::EventDriven)).unwrap();
    event.install_closed_loop(&spec, 71);
    let (cycle, event) = (cycle.run(), event.run());
    assert_closed_identical(&cycle, &event, "quarc coherence telemetry");
    let util = cycle.util.as_ref().expect("util captured");
    assert!(
        util.counts
            .first()
            .is_some_and(|w| w.iter().any(|&c| c > 0)),
        "first window carries traffic — offsets re-zeroed, not warmup-shifted"
    );
    let hist = &cycle.closed_loop.as_ref().unwrap().completion_hist;
    assert_eq!(hist.count(), 16 * 24, "one completion sample per request");
}

#[test]
fn shared_plan_differential_pair_is_identical_too() {
    // The intended production setup: one SimPlan serving both engines.
    use quarc_noc::sim::{build_engine_with_plan, SimPlan};
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(16, 0.006, 0.1, sets).unwrap();
    let plan = SimPlan::build(&topo, &wl).expect("plan builds");
    let cfg = SimConfig::quick(43);
    let cycle = build_engine_with_plan(
        &topo,
        &wl,
        cfg.with_engine(EngineKind::Cycle),
        std::sync::Arc::clone(&plan),
    )
    .run();
    let event = build_engine_with_plan(&topo, &wl, cfg, plan).run();
    assert_stepped(&cycle);
    assert_runs_identical(&cycle, &event, "quarc shared plan");
}

// ---------------------------------------------------------------------
// Deadlock break: no other case stops on the watchdog.
// ---------------------------------------------------------------------

#[test]
fn deadlocked_runs_break_identically() {
    // Multipath routing on torus-8x8 under on/off bursts at seed 8 stops
    // on the deadlock watchdog at cycle 209,920. The watchdog, not the
    // routing, is at fault: an off period leaves the network idle from
    // cycle 197,109, and the arrival that ends it lands on the
    // stride-aligned cycle 209,920 and is granted its injection channel,
    // so the watchdog sees a held channel and no flit move for more than
    // its window. The skip policy jumps over the idle gap straight to
    // that arrival; both policies must break on the same cycle with the
    // same statistics.
    //
    // This pins known behaviour (perfbench's first target). A future fix
    // of the watchdog must flip this assertion, as perfbench's
    // `first_target_deadlock_still_reproduces` test says for its copy of
    // this input.
    let run = |engine: EngineKind| {
        let workload = WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 8 })
            .with_routing(RoutingSpec::Multipath)
            .with_traffic(TrafficSpec::OnOff {
                burst_len: 8.0,
                peak_rate: 0.2,
            });
        let sim = SimConfig {
            warmup_cycles: 20_000,
            measure_cycles: 400_000,
            ..SimConfig::standard(8)
        };
        let nc = ModelOptions {
            backend: BackendSpec::NetworkCalculus,
            ..ModelOptions::default()
        };
        let sc = Scenario::new(
            "torus-8x8-multipath-onoff",
            TopologySpec::parse("torus-8x8").unwrap(),
            workload,
            SweepSpec::SaturationFractions {
                fractions: vec![0.05],
            },
        )
        .with_sim(sim.with_engine(engine))
        .with_model(Some(nc))
        .with_seed(8);
        let mut r = Runner::new()
            .threads(1)
            .cache(None)
            .run(&sc)
            .expect("scenario runs");
        r.sims.swap_remove(0).swap_remove(0)
    };
    let (cycle, event) = (run(EngineKind::Cycle), run(EngineKind::EventDriven));
    assert!(
        cycle.deadlocked,
        "the pinned input no longer stops on the watchdog"
    );
    assert_eq!(cycle.cycles, 209_920, "watchdog break cycle");
    assert_runs_identical(&cycle, &event, "torus-8x8 multipath deadlock");
}
