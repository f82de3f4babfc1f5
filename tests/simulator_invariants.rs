//! Integration: structural invariants of the flit-level simulator under
//! load — conservation, determinism, deadlock freedom, latency lower
//! bounds and saturation behaviour — plus proptest conservation
//! invariants for the event-driven engine over randomly drawn workloads.

use proptest::prelude::*;
use quarc_noc::prelude::*;
use quarc_noc::sim::{build_engine, EngineKind, SimConfig};

#[test]
fn no_deadlock_at_heavy_load_on_ring_topologies() {
    // The rim rings have cyclic channel dependencies; the dateline VCs
    // must keep heavy wrap-around traffic deadlock-free. Drive each
    // topology far past saturation and require forward progress
    // throughout (the watchdog flags 10k move-free cycles).
    let cfg = |seed| {
        let mut c = SimConfig::quick(seed);
        c.backlog_limit = 100_000;
        c.drain_cycles = 30_000;
        c
    };
    let quarc = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&quarc, 4, 1);
    let wl = Workload::new(32, 0.08, 0.10, sets).unwrap();
    let res = build_engine(&quarc, &wl, cfg(1).with_engine(EngineKind::Cycle))
        .unwrap()
        .run();
    assert!(!res.deadlocked, "quarc deadlocked");
    assert!(res.total_absorbed > 0);

    let ring = Ring::new(8).unwrap();
    let sets = DestinationSets::random(&ring, 3, 1);
    let wl = Workload::new(32, 0.12, 0.10, sets).unwrap();
    let res = build_engine(&ring, &wl, cfg(2).with_engine(EngineKind::Cycle))
        .unwrap()
        .run();
    assert!(!res.deadlocked, "ring deadlocked");

    let torus = Mesh::new(4, 4, MeshKind::Torus).unwrap();
    let sets = DestinationSets::random(&torus, 4, 1);
    let wl = Workload::new(32, 0.08, 0.10, sets).unwrap();
    let res = build_engine(&torus, &wl, cfg(3).with_engine(EngineKind::Cycle))
        .unwrap()
        .run();
    assert!(!res.deadlocked, "torus deadlocked");

    let spid = Spidergon::new(16).unwrap();
    let sets = DestinationSets::random(&spid, 4, 1);
    let wl = Workload::new(32, 0.08, 0.10, sets).unwrap();
    let res = build_engine(&spid, &wl, cfg(4).with_engine(EngineKind::Cycle))
        .unwrap()
        .run();
    assert!(!res.deadlocked, "spidergon deadlocked");
}

#[test]
fn observed_latency_never_below_zero_load_bound() {
    // min latency >= msg + min hop count over any pair.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(32, 0.006, 0.10, sets).unwrap();
    let res = build_engine(
        &topo,
        &wl,
        SimConfig::quick(7).with_engine(EngineKind::Cycle),
    )
    .unwrap()
    .run();
    // Cheapest possible unicast: 1 link => hop_count 2 => 32 + 2.
    assert!(res.unicast.min >= 34.0, "unicast min {}", res.unicast.min);
    // Cheapest multicast: the farthest target of the op is at least one
    // link away; completion also needs all streams done.
    assert!(
        res.multicast.min >= 34.0,
        "multicast min {}",
        res.multicast.min
    );
}

#[test]
fn tagged_counts_are_consistent() {
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(16, 0.005, 0.2, sets).unwrap();
    let res = build_engine(
        &topo,
        &wl,
        SimConfig::quick(11).with_engine(EngineKind::Cycle),
    )
    .unwrap()
    .run();
    assert!(!res.saturated);
    assert_eq!(res.unicast_delivered, res.unicast_injected);
    assert_eq!(res.multicast_delivered, res.multicast_injected);
    assert_eq!(res.unicast.count, res.unicast_delivered);
    assert_eq!(res.multicast.count, res.multicast_delivered);
    assert!(res.total_absorbed <= res.total_generated);
}

#[test]
fn utilization_scales_linearly_at_low_load() {
    // Channel utilisation must scale ~linearly with the offered rate well
    // below saturation (flit conservation check against the workload).
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let mut utils = Vec::new();
    for rate in [0.002, 0.004] {
        let wl = Workload::new(32, rate, 0.05, sets.clone()).unwrap();
        let res = build_engine(
            &topo,
            &wl,
            SimConfig::quick(13).with_engine(EngineKind::Cycle),
        )
        .unwrap()
        .run();
        utils.push(res.max_utilization());
    }
    let ratio = utils[1] / utils[0];
    assert!(
        (ratio - 2.0).abs() < 0.25,
        "doubling the rate should roughly double utilisation, got {ratio} ({utils:?})"
    );
}

#[test]
fn model_channel_rates_match_simulated_utilization() {
    // The model's per-channel arrival rates λ_j (rates.rs) imply a flit
    // throughput of λ_j · msg on every channel; at low load (negligible
    // blocking) the simulator's measured utilisation must match — a
    // direct cross-validation of the routing/weighting logic feeding
    // Eq. 6, independent of the queueing approximations.
    use quarc_noc::model::rates::ChannelLoads;
    use quarc_noc::model::ModelOptions;

    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(32, 0.003, 0.05, sets).unwrap();
    let loads = ChannelLoads::build(&topo, &wl, &ModelOptions::default());

    let mut cfg = SimConfig::quick(31);
    cfg.measure_cycles *= 8;
    cfg.drain_cycles *= 4;
    let res = build_engine(&topo, &wl, cfg.with_engine(EngineKind::Cycle))
        .unwrap()
        .run();
    assert!(!res.saturated);

    let net = topo.network();
    let mut checked = 0;
    for c in net.links() {
        let model_util = loads.lambda[c.id.idx()] * 32.0;
        let sim_util = res.channel_utilization[c.id.idx()];
        if model_util < 0.02 {
            continue; // too little traffic for a stable estimate
        }
        checked += 1;
        // Tolerance: 8% structural + Poisson sampling noise (2/sqrt(n)).
        let expected_msgs = model_util * cfg.measure_cycles as f64 / 32.0;
        let tol = 0.08 + 2.0 / expected_msgs.sqrt();
        let rel = (model_util - sim_util).abs() / model_util;
        assert!(
            rel < tol,
            "{}: model util {model_util:.4} vs sim {sim_util:.4} (rel {rel:.3} > tol {tol:.3})",
            c.label
        );
    }
    assert!(checked > 30, "most links should carry measurable traffic");
}

#[test]
fn same_seed_same_everything_different_seed_different_run() {
    let topo = Mesh::new(4, 3, MeshKind::Mesh).unwrap();
    let sets = DestinationSets::random(&topo, 3, 5);
    let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
    let a = build_engine(
        &topo,
        &wl,
        SimConfig::quick(5).with_engine(EngineKind::Cycle),
    )
    .unwrap()
    .run();
    let b = build_engine(
        &topo,
        &wl,
        SimConfig::quick(5).with_engine(EngineKind::Cycle),
    )
    .unwrap()
    .run();
    assert_eq!(a.flit_moves, b.flit_moves);
    assert_eq!(a.unicast.mean, b.unicast.mean);
    assert_eq!(a.multicast.mean, b.multicast.mean);
    assert_eq!(a.total_generated, b.total_generated);
    let c = build_engine(
        &topo,
        &wl,
        SimConfig::quick(6).with_engine(EngineKind::Cycle),
    )
    .unwrap()
    .run();
    assert_ne!(a.flit_moves, c.flit_moves);
}

#[test]
fn spidergon_one_port_serialisation_hurts_multicast() {
    // The same multicast workload must exhibit far higher collective
    // latency on the one-port Spidergon than on the all-port Quarc —
    // the architectural claim of the Quarc paper reproduced under load.
    let msg = 32u32;
    let quarc = Quarc::new(16).unwrap();
    let spid = Spidergon::new(16).unwrap();
    let q_sets = DestinationSets::random(&quarc, 8, 5);
    let s_sets = DestinationSets::random(&spid, 8, 5);
    let q_wl = Workload::new(msg, 0.003, 0.1, q_sets).unwrap();
    let s_wl = Workload::new(msg, 0.003, 0.1, s_sets).unwrap();
    let q = build_engine(
        &quarc,
        &q_wl,
        SimConfig::quick(3).with_engine(EngineKind::Cycle),
    )
    .unwrap()
    .run();
    let s = build_engine(
        &spid,
        &s_wl,
        SimConfig::quick(3).with_engine(EngineKind::Cycle),
    )
    .unwrap()
    .run();
    assert!(q.multicast.count > 10 && s.multicast.count > 10);
    assert!(
        s.multicast.mean > 2.0 * q.multicast.mean,
        "spidergon {} should be >2x slower than quarc {}",
        s.multicast.mean,
        q.multicast.mean
    );
}

#[test]
fn buffer_depth_one_still_works_but_slower_under_load() {
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 5);
    let wl = Workload::new(32, 0.005, 0.05, sets).unwrap();
    let mut deep = SimConfig::quick(9);
    deep.buffer_depth = 4;
    let mut shallow = SimConfig::quick(9);
    shallow.buffer_depth = 1;
    let d = build_engine(&topo, &wl, deep.with_engine(EngineKind::Cycle))
        .unwrap()
        .run();
    let s = build_engine(&topo, &wl, shallow.with_engine(EngineKind::Cycle))
        .unwrap()
        .run();
    assert!(!d.deadlocked && !s.deadlocked);
    // Depth-1 buffers halve per-channel throughput under the one-cycle
    // credit loop, so latency must be no better.
    assert!(
        s.unicast.mean >= d.unicast.mean,
        "depth-1 {} should be >= depth-4 {}",
        s.unicast.mean,
        d.unicast.mean
    );
}

// ---------------------------------------------------------------------------
// Proptest conservation invariants for the event-driven engine.
//
// `Engine::audit` walks the engine's resource state and rejects any
// structural violation (a cv owned by a dead message, a (message, hop)
// holding two cvs, a live multicast op with zero targets remaining, broken
// op accounting). On top of the audit these properties pin the
// conservation laws over randomly drawn workloads:
//
//   * flits injected == flits absorbed + flits in flight (message
//     granularity: every generated message is absorbed or still live);
//   * no channel is owned by two messages (audit's per-cv walk);
//   * every multicast op's `remaining` hits zero exactly once
//     (ops_allocated == ops_completed + live_ops, and completed ops are
//     recycled, never re-zeroed).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_engine_conserves_messages_and_ops(
        seed in 0u64..10_000,
        rate_milli in 1u32..=8,
        alpha_pct in 0u32..=25,
        msg_len in 4u32..=24,
        group in 2usize..=6,
    ) {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, group, seed);
        let wl = Workload::new(
            msg_len,
            rate_milli as f64 * 0.001,
            alpha_pct as f64 / 100.0,
            sets,
        )
        .unwrap();
        let mut sim = build_engine(&topo, &wl, SimConfig::quick(seed)).unwrap();
        let res = sim.run();
        let audit = sim.audit().map_err(TestCaseError::fail)?;
        prop_assert_eq!(
            audit.total_generated,
            audit.total_absorbed + audit.live_messages,
            "message conservation"
        );
        prop_assert_eq!(
            audit.ops_allocated,
            audit.ops_completed + audit.live_ops,
            "every multicast op completes exactly once"
        );
        prop_assert_eq!(audit.tagged_outstanding == 0, res.complete());
        prop_assert!(audit.queued_messages <= audit.live_messages);
        if !res.saturated {
            prop_assert_eq!(res.unicast_delivered, res.unicast_injected);
            prop_assert_eq!(res.multicast_delivered, res.multicast_injected);
            prop_assert_eq!(audit.tagged_outstanding, 0);
        }
    }

    #[test]
    fn event_engine_mid_run_state_is_structurally_sound(
        seed in 0u64..10_000,
        steps in 50u64..400,
        rate_milli in 2u32..=20,
    ) {
        // Freeze the engine mid-flight (messages queued, streaming and
        // draining) and audit the resource graph; then drain to the end
        // and require the conservation counters to close.
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, seed);
        let wl = Workload::new(16, rate_milli as f64 * 0.001, 0.2, sets).unwrap();
        let mut sim = build_engine(&topo, &wl, SimConfig::quick(seed)).unwrap();
        for _ in 0..steps {
            sim.step_one();
        }
        let mid = sim.audit().map_err(TestCaseError::fail)?;
        prop_assert_eq!(
            mid.total_generated,
            mid.total_absorbed + mid.live_messages,
            "mid-run message conservation"
        );
        prop_assert_eq!(
            mid.ops_allocated,
            mid.ops_completed + mid.live_ops,
            "mid-run op accounting"
        );
        // The cycle engine under the same seed must agree mid-run too.
        let mut reference = build_engine(&topo, &wl, SimConfig::quick(seed).with_engine(EngineKind::Cycle)).unwrap();
        for _ in 0..steps {
            reference.step_one();
        }
        let ref_mid = reference.audit().map_err(TestCaseError::fail)?;
        prop_assert_eq!(mid, ref_mid, "mid-run audits of the two engines");
    }
}
