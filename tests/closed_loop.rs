//! Integration: closed-loop protocol invariants on both engines.
//!
//! The dispatcher promises *conservation*: every request a machine
//! issues retires exactly once, and at quiescence nothing is left — no
//! live messages, no pending timers, no outstanding window slots. The
//! proptests below drive randomly drawn protocol parameters through
//! both engines and check the promise against the engines' structural
//! audit, not just the driver's own counters.

use proptest::prelude::*;
use quarc_noc::prelude::*;
use quarc_noc::sim::{build_engine, EngineKind, SimConfig, SimResults};

fn run_closed(
    engine: EngineKind,
    topo: &dyn Topology,
    sets: DestinationSets,
    spec: &ClosedLoopSpec,
    seed: u64,
) -> (SimResults, quarc_noc::sim::EngineAudit) {
    let wl = Workload::new(8, 0.0, 0.0, sets).unwrap();
    let cfg = SimConfig::quick(seed).with_engine(engine);
    match engine {
        EngineKind::Cycle => {
            let mut sim = build_engine(topo, &wl, cfg).unwrap();
            sim.install_closed_loop(spec, seed);
            let res = sim.run();
            (res, sim.audit().expect("cycle audit"))
        }
        EngineKind::EventDriven => {
            let mut sim = build_engine(topo, &wl, cfg).unwrap();
            sim.install_closed_loop(spec, seed);
            let res = sim.run();
            (res, sim.audit().expect("event audit"))
        }
    }
}

fn check_conservation(
    res: &SimResults,
    audit: &quarc_noc::sim::EngineAudit,
    expected_requests: u64,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let cl = res.closed_loop.as_ref().expect("closed-loop stats");
    prop_assert!(cl.quiesced, "{}: run must reach quiescence", ctx);
    prop_assert_eq!(
        cl.requests_issued,
        cl.requests_retired,
        "{}: every issued request retires",
        ctx
    );
    prop_assert_eq!(
        cl.requests_retired,
        expected_requests,
        "{}: retired count matches the spec",
        ctx
    );
    prop_assert_eq!(
        cl.completion.count,
        cl.requests_retired,
        "{}: one completion sample per request",
        ctx
    );
    // Nothing outstanding at quiescence, per the engine's own audit.
    prop_assert_eq!(audit.live_messages, 0, "{}: live messages", ctx);
    prop_assert_eq!(audit.live_ops, 0, "{}: live multicast ops", ctx);
    prop_assert_eq!(audit.tagged_outstanding, 0, "{}: tagged outstanding", ctx);
    prop_assert_eq!(
        audit.total_generated,
        audit.total_absorbed,
        "{}: every flit absorbed",
        ctx
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn coherence_conserves_requests_on_both_engines(
        seed in 0u64..10_000,
        window in 1u32..=8,
        requests in 1u32..=48,
        write_pct in 0u32..=100,
        group in 2usize..=6,
    ) {
        let topo = Quarc::new(16).unwrap();
        let spec = ClosedLoopSpec::Coherence {
            window,
            requests,
            write_fraction: write_pct as f64 / 100.0,
        };
        let expected = spec.total_requests(16);
        let sets = DestinationSets::random(&topo, group, seed);
        for engine in [EngineKind::Cycle, EngineKind::EventDriven] {
            let (res, audit) = run_closed(engine, &topo, sets.clone(), &spec, seed);
            check_conservation(&res, &audit, expected, &format!("{engine:?} coherence"))?;
            // The window bounds occupancy by construction.
            let cl = res.closed_loop.as_ref().unwrap();
            prop_assert!(
                cl.avg_outstanding <= (window as f64) * 16.0,
                "occupancy {} exceeds the aggregate window",
                cl.avg_outstanding
            );
        }
    }

    #[test]
    fn barrier_conserves_rounds_on_both_engines(
        seed in 0u64..10_000,
        rounds in 1u32..=6,
        radix in 2u32..=4,
        compute in 0u64..=16,
    ) {
        let topo = Quarc::new(16).unwrap();
        let spec = ClosedLoopSpec::Barrier { rounds, radix, compute };
        let expected = spec.total_requests(16);
        let sets = DestinationSets::broadcast(&topo);
        for engine in [EngineKind::Cycle, EngineKind::EventDriven] {
            let (res, audit) = run_closed(engine, &topo, sets.clone(), &spec, seed);
            check_conservation(&res, &audit, expected, &format!("{engine:?} barrier"))?;
        }
    }
}

#[test]
fn closed_loop_rejects_nonzero_rate() {
    // The protocol must be the only traffic source; installing on an
    // open-loop workload is a contract violation, not a silent merge.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 3);
    let wl = Workload::new(8, 0.01, 0.1, sets).unwrap();
    let spec = ClosedLoopSpec::Coherence {
        window: 2,
        requests: 8,
        write_fraction: 0.5,
    };
    // AssertUnwindSafe: nothing is reused after the catch, and Network's
    // implicit-storage handle is plain shared data either way.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut sim = build_engine(
            &topo,
            &wl,
            SimConfig::quick(3).with_engine(EngineKind::Cycle),
        )
        .unwrap();
        sim.install_closed_loop(&spec, 3);
    }));
    assert!(result.is_err(), "non-zero rate must be rejected");
}
