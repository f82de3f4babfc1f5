//! Integration: the traffic subsystem's contracts.
//!
//! * **Mean-rate matching** — the on/off bursty source must average the
//!   nominal sweep rate, so burstiness sweeps stay comparable
//!   point-for-point with Poisson runs.
//! * **Engine equivalence under new processes** — both engines must stay
//!   bit-identical under every traffic spec, not just the geometric one
//!   the differential suite pins.
//! * **Record → replay** — recording a run's arrival trace and replaying
//!   it through [`TrafficSpec::Trace`] must reproduce the run
//!   bit-for-bit, on both engines.
//! * **Permutation routing** — the new adversarial patterns must route
//!   every message to the addressing-defined partner on mesh, torus and
//!   hypercube, and degrade to typed errors where the node index space
//!   lacks the required structure.
//! * **Scenario round-trips** — serializing and re-running a scenario
//!   must be bit-identical for every new `TrafficSpec`/`UnicastPattern`
//!   variant.

use quarc_noc::prelude::*;
use quarc_noc::sim::record_trace;
use quarc_noc::topology::addressing;

fn quick_workload(topo: &dyn Topology, rate: f64, traffic: TrafficSpec) -> Workload {
    let sets = DestinationSets::random(topo, 4, 3);
    Workload::new(16, rate, 0.1, sets)
        .unwrap()
        .with_traffic(traffic)
}

/// Run both engines on the same (topology, workload, seed); the
/// differential contract must hold for every traffic spec.
fn both(topo: &dyn Topology, wl: &Workload, cfg: SimConfig) -> (SimResults, SimResults) {
    let cycle = build_engine(topo, wl, cfg.with_engine(EngineKind::Cycle))
        .unwrap()
        .run();
    let event = build_engine(topo, wl, cfg.with_engine(EngineKind::EventDriven))
        .unwrap()
        .run();
    (cycle, event)
}

fn assert_runs_identical(a: &SimResults, b: &SimResults, ctx: &str) {
    assert_eq!(a.cycles, b.cycles, "{ctx}: cycle count");
    assert_eq!(a.saturated, b.saturated, "{ctx}: saturation flag");
    assert_eq!(a.total_generated, b.total_generated, "{ctx}: generated");
    assert_eq!(a.total_absorbed, b.total_absorbed, "{ctx}: absorbed");
    assert_eq!(a.flit_moves, b.flit_moves, "{ctx}: flit moves");
    assert_eq!(a.unicast.count, b.unicast.count, "{ctx}: uni samples");
    assert_eq!(a.multicast.count, b.multicast.count, "{ctx}: mc samples");
    assert_eq!(
        a.unicast.mean.to_bits(),
        b.unicast.mean.to_bits(),
        "{ctx}: unicast mean"
    );
    assert_eq!(
        a.multicast.mean.to_bits(),
        b.multicast.mean.to_bits(),
        "{ctx}: multicast mean"
    );
    assert_eq!(
        a.multicast.ci95.to_bits(),
        b.multicast.ci95.to_bits(),
        "{ctx}: multicast ci"
    );
}

// ---------------------------------------------------------------------------
// (a) On/off mean-rate matching
// ---------------------------------------------------------------------------

#[test]
fn onoff_long_run_rate_matches_the_nominal_rate() {
    let topo = Quarc::new(16).unwrap();
    for (burst_len, peak) in [(2.0, 0.3), (8.0, 0.5), (32.0, 0.25)] {
        let rate = 0.01;
        let wl = quick_workload(
            &topo,
            rate,
            TrafficSpec::OnOff {
                burst_len,
                peak_rate: peak,
            },
        );
        let mut streams = quarc_noc::sim::ArrivalStream::build_all(&wl, 16, 11);
        let n = 30_000u64;
        let mut last = 0u64;
        for _ in 0..n {
            let next = streams[2].next_arrival();
            assert!(next > last, "gaps stay >= 1 cycle");
            last = next;
            streams[2].pop(&wl, 16, NodeId(2));
        }
        // n arrivals took `last` cycles: the empirical rate must match
        // the nominal one within a few percent (the burstier the source,
        // the wider the variance, hence the 5% tolerance).
        let empirical = n as f64 / last as f64;
        assert!(
            (empirical - rate).abs() < 0.05 * rate,
            "burst {burst_len} peak {peak}: empirical rate {empirical} vs nominal {rate}"
        );
    }
}

// ---------------------------------------------------------------------------
// (b) Engine equivalence + record -> replay bit-identity
// ---------------------------------------------------------------------------

#[test]
fn engines_stay_bit_identical_under_onoff_traffic() {
    let topo = Quarc::new(16).unwrap();
    let wl = quick_workload(
        &topo,
        0.006,
        TrafficSpec::OnOff {
            burst_len: 8.0,
            peak_rate: 0.3,
        },
    );
    let (cycle, event) = both(&topo, &wl, SimConfig::quick(17));
    assert!(cycle.total_generated > 0);
    assert_runs_identical(&cycle, &event, "quarc on/off");
}

#[test]
fn recorded_trace_replays_bit_identically_on_both_engines() {
    let topo = Quarc::new(16).unwrap();
    for (label, traffic) in [
        ("geometric", TrafficSpec::Geometric),
        (
            "onoff",
            TrafficSpec::OnOff {
                burst_len: 8.0,
                peak_rate: 0.3,
            },
        ),
    ] {
        let wl = quick_workload(&topo, 0.005, traffic);
        let cfg = SimConfig::quick(23);
        let (cycle, event) = both(&topo, &wl, cfg);
        assert_runs_identical(&cycle, &event, label);

        // Record the arrival trace up to the run's final cycle and replay
        // it as deterministic traffic: the run must reproduce exactly.
        let trace = record_trace(&wl, 16, cfg.seed, cycle.cycles);
        assert!(!trace.is_empty(), "{label}: trace must not be empty");
        let replay_wl = wl.clone().with_traffic(TrafficSpec::trace(trace));
        let (replay_cycle, replay_event) = both(&topo, &replay_wl, cfg);
        assert_runs_identical(&cycle, &replay_cycle, &format!("{label} replay (cycle)"));
        assert_runs_identical(&event, &replay_event, &format!("{label} replay (event)"));
    }
}

// ---------------------------------------------------------------------------
// (c) Permutation patterns on mesh / torus / hypercube
// ---------------------------------------------------------------------------

#[test]
fn permutation_patterns_route_to_the_defined_partner() {
    let topologies: Vec<Box<dyn Topology>> = vec![
        Box::new(Mesh::new(4, 4, MeshKind::Mesh).unwrap()),
        Box::new(Mesh::new(4, 4, MeshKind::Torus).unwrap()),
        Box::new(Hypercube::new(4).unwrap()),
    ];
    type PartnerFn = fn(usize, NodeId) -> Option<NodeId>;
    let patterns: [(UnicastPattern, PartnerFn); 5] = [
        (UnicastPattern::Transpose, addressing::transpose),
        (UnicastPattern::BitReversal, addressing::bit_reverse),
        (UnicastPattern::Shuffle, addressing::shuffle),
        (UnicastPattern::Tornado, addressing::tornado),
        (UnicastPattern::Neighbor, |n, s| {
            Some(addressing::neighbor(n, s))
        }),
    ];
    for topo in &topologies {
        let n = topo.num_nodes();
        for (pattern, partner_fn) in &patterns {
            pattern.validate(n).expect("16 nodes fit every pattern");
            // Run a short simulation and check delivery: every tagged
            // unicast must land on the partner, which shows up as traffic
            // on exactly the partner's ejection channels.
            let sets = DestinationSets::random(topo.as_ref(), 2, 1);
            let wl = Workload::new(8, 0.004, 0.0, sets)
                .unwrap()
                .with_unicast_pattern(*pattern);
            let res = build_engine(topo.as_ref(), &wl, SimConfig::quick(5))
                .unwrap()
                .run();
            assert!(res.unicast.count > 0, "{pattern:?} on {}", topo.name());
            let net = topo.network();
            for ch in net.channels() {
                if ch.kind != quarc_noc::topology::ChannelKind::Ejection {
                    continue;
                }
                if res.channel_utilization[ch.id.idx()] > 0.0 {
                    // Someone absorbed at ch.to: that node must be the
                    // partner of at least one source (or a uniform
                    // fallback of a self-mapped source).
                    let dst = ch.to;
                    let reachable = (0..n as u32).map(NodeId).any(|src| {
                        src != dst
                            && match partner_fn(n, src) {
                                Some(p) if p != src => p == dst,
                                // Self-mapped sources fall back to uniform:
                                // any destination is fair.
                                _ => true,
                            }
                    });
                    assert!(
                        reachable,
                        "{pattern:?} on {}: unexpected traffic into {dst:?}",
                        topo.name()
                    );
                }
            }
            // And sampling hits the partner exactly (spot check per node).
            for s in 0..n as u32 {
                let src = NodeId(s);
                let partner = partner_fn(n, src).unwrap();
                if partner != src {
                    use rand::SeedableRng;
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
                    assert_eq!(
                        pattern.sample(n, src, &mut rng),
                        partner,
                        "{pattern:?} sample at {src:?} on {}",
                        topo.name()
                    );
                }
            }
        }
    }
}

#[test]
fn structured_patterns_degrade_to_typed_errors_elsewhere() {
    // A 12-node ring is neither square nor a power of two.
    let n = Ring::new(12).unwrap().num_nodes();
    assert!(matches!(
        UnicastPattern::Transpose.validate(n),
        Err(PatternError::RequiresSquare { .. })
    ));
    assert!(matches!(
        UnicastPattern::BitReversal.validate(n),
        Err(PatternError::RequiresPowerOfTwo { .. })
    ));
    // Through the scenario layer the same mismatch is a workspace error,
    // not a panic.
    let sc = Scenario::new(
        "bitrev-ring",
        TopologySpec::Ring { n: 12 },
        WorkloadSpec::new(8, 0.0, MulticastPattern::Broadcast)
            .with_unicast(UnicastPattern::BitReversal),
        SweepSpec::Explicit { rates: vec![0.001] },
    )
    .with_sim(SimConfig::quick(1));
    match Runner::new().run(&sc) {
        Err(Error::Pattern(PatternError::RequiresPowerOfTwo { .. })) => {}
        other => panic!("expected a typed pattern error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// (d) Scenario JSON round-trips with every new variant
// ---------------------------------------------------------------------------

#[test]
fn scenario_round_trip_stays_bit_identical_with_new_variants() {
    // Short runs: round-trip testing needs determinism, not statistics.
    let mut sim = SimConfig::quick(9);
    sim.warmup_cycles = 500;
    sim.measure_cycles = 2_000;
    sim.drain_cycles = 8_000;

    // A trace to round-trip through JSON as well.
    let topo = Quarc::new(16).unwrap();
    let trace_wl = quick_workload(&topo, 0.004, TrafficSpec::Geometric);
    let trace = record_trace(&trace_wl, 16, 9, 4_000);

    let variants: Vec<(TrafficSpec, UnicastPattern)> = vec![
        (
            TrafficSpec::OnOff {
                burst_len: 4.0,
                peak_rate: 0.25,
            },
            UnicastPattern::Uniform,
        ),
        (TrafficSpec::trace(trace), UnicastPattern::Uniform),
        (TrafficSpec::Geometric, UnicastPattern::Transpose),
        (TrafficSpec::Geometric, UnicastPattern::BitReversal),
        (TrafficSpec::Geometric, UnicastPattern::Shuffle),
        (TrafficSpec::Geometric, UnicastPattern::Tornado),
        (TrafficSpec::Geometric, UnicastPattern::Neighbor),
        (
            TrafficSpec::OnOff {
                burst_len: 8.0,
                peak_rate: 0.25,
            },
            UnicastPattern::Tornado,
        ),
    ];
    let runner = Runner::new().threads(2);
    for (traffic, unicast) in variants {
        // Trace replay fixes the arrival schedule, so multi-point sweeps
        // over it are rejected by validation — sweep a single point there.
        let rates = if traffic.is_rate_driven() {
            vec![0.001, 0.003]
        } else {
            vec![0.003]
        };
        let original = Scenario::new(
            format!("rt-{}-{unicast:?}", traffic.code()),
            TopologySpec::Quarc { n: 16 },
            WorkloadSpec::new(8, 0.05, MulticastPattern::Random { group: 2 })
                .with_traffic(traffic)
                .with_unicast(unicast),
            SweepSpec::Explicit { rates },
        )
        .with_sim(sim)
        .with_seed(9);
        let json = original.to_json();
        let reloaded = Scenario::from_json(&json).expect("serialized scenario parses");
        assert_eq!(original, reloaded, "spec round-trip must be identity");
        let a = runner.run(&original).expect("original runs");
        let b = runner.run(&reloaded).expect("reloaded runs");
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{}: results diverged after a JSON round-trip",
            original.name
        );
        assert!(
            a.sims[0][0].total_absorbed > 0,
            "{}: empty run",
            original.name
        );
    }
}

// ---------------------------------------------------------------------------
// Satellite: MulticastPattern::Explicit edge cases through the Runner
// ---------------------------------------------------------------------------

#[test]
fn explicit_multicast_edge_cases_error_not_panic() {
    let scenario_with = |sets: Vec<Vec<u32>>, alpha: f64| {
        Scenario::new(
            "explicit-edge",
            TopologySpec::Ring { n: 4 },
            WorkloadSpec::new(8, alpha, MulticastPattern::Explicit { sets }),
            SweepSpec::Explicit { rates: vec![0.001] },
        )
        .with_sim(SimConfig::quick(1))
    };
    // Empty destination set while alpha > 0.
    let sets: Vec<Vec<u32>> = vec![vec![1], Vec::new(), vec![3], vec![0]];
    match Runner::new().run(&scenario_with(sets.clone(), 0.1)) {
        Err(Error::InvalidScenario(msg)) => assert!(msg.contains("empty"), "{msg}"),
        other => panic!("empty set with alpha > 0: got {other:?}"),
    }
    // The same sets are fine without multicast traffic.
    assert!(Runner::new().run(&scenario_with(sets, 0.0)).is_ok());

    // A source inside its own destination set.
    let sets = vec![vec![0, 1], vec![2], vec![3], vec![0]];
    match Runner::new().run(&scenario_with(sets, 0.1)) {
        Err(Error::InvalidScenario(msg)) => assert!(msg.contains("itself"), "{msg}"),
        other => panic!("self-in-set: got {other:?}"),
    }

    // An out-of-range node index.
    let sets = vec![vec![1], vec![2], vec![3], vec![7]];
    match Runner::new().run(&scenario_with(sets, 0.1)) {
        Err(Error::InvalidScenario(msg)) => assert!(msg.contains("outside"), "{msg}"),
        other => panic!("out-of-range: got {other:?}"),
    }
}
