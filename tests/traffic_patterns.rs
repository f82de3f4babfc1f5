//! Integration: non-uniform unicast traffic patterns (extension) — the
//! model and the simulator must stay consistent when the destination
//! distribution is skewed, and the physics must respond correctly
//! (hot-spots collapse the saturation rate).

use quarc_noc::model::{max_sustainable_rate, AnalyticModel, ModelOptions};
use quarc_noc::prelude::*;
use quarc_noc::sim::{build_engine, EngineKind, SimConfig};
use quarc_noc::workloads::UnicastPattern;

fn proto(topo: &dyn Topology, pattern: UnicastPattern) -> Workload {
    let sets = DestinationSets::random(topo, 4, 3);
    Workload::new(32, 1e-5, 0.05, sets)
        .unwrap()
        .with_unicast_pattern(pattern)
}

#[test]
fn model_tracks_simulation_under_hot_spot_traffic() {
    let topo = Quarc::new(16).unwrap();
    let pattern = UnicastPattern::HotSpot {
        node: NodeId(5),
        fraction: 0.25,
    };
    let p = proto(&topo, pattern);
    let sat = max_sustainable_rate(&topo, &p, ModelOptions::default(), 0.01);
    assert!(sat > 0.0);
    let wl = p.at_rate(sat * 0.4).unwrap();
    let pred = AnalyticModel::new(&topo, &wl, ModelOptions::default())
        .evaluate()
        .unwrap();
    let res = build_engine(
        &topo,
        &wl,
        SimConfig::quick(3).with_engine(EngineKind::Cycle),
    )
    .unwrap()
    .run();
    assert!(!res.saturated);
    let uni_err = (pred.unicast_latency - res.unicast.mean).abs() / res.unicast.mean;
    assert!(uni_err < 0.10, "hot-spot unicast error {uni_err:.3}");
    let mc_err = (pred.multicast_latency - res.multicast.mean).abs() / res.multicast.mean;
    assert!(mc_err < 0.15, "hot-spot multicast error {mc_err:.3}");
}

#[test]
fn hot_spot_collapses_the_saturation_rate() {
    let topo = Quarc::new(16).unwrap();
    let uniform = proto(&topo, UnicastPattern::Uniform);
    let hot = proto(
        &topo,
        UnicastPattern::HotSpot {
            node: NodeId(0),
            fraction: 0.5,
        },
    );
    let sat_u = max_sustainable_rate(&topo, &uniform, ModelOptions::default(), 0.01);
    let sat_h = max_sustainable_rate(&topo, &hot, ModelOptions::default(), 0.01);
    assert!(
        sat_h < 0.75 * sat_u,
        "a 50% hot-spot must cost >25% of the sustainable rate ({sat_h} vs {sat_u})"
    );
}

#[test]
fn hot_spot_concentrates_simulated_traffic() {
    // The ejection channels of the hot node must absorb far more flits
    // than those of an ordinary node.
    let topo = Quarc::new(16).unwrap();
    let hot = NodeId(4);
    let wl = proto(
        &topo,
        UnicastPattern::HotSpot {
            node: hot,
            fraction: 0.4,
        },
    )
    .at_rate(0.003)
    .unwrap();
    let res = build_engine(
        &topo,
        &wl,
        SimConfig::quick(5).with_engine(EngineKind::Cycle),
    )
    .unwrap()
    .run();
    let net = topo.network();
    let absorbed_at = |node: NodeId| -> f64 {
        net.channels()
            .iter()
            .filter(|c| c.kind == quarc_noc::topology::ChannelKind::Ejection && c.to == node)
            .map(|c| res.channel_utilization[c.id.idx()])
            .sum()
    };
    let at_hot = absorbed_at(hot);
    let at_cold = absorbed_at(NodeId(10));
    assert!(
        at_hot > 3.0 * at_cold,
        "hot node should absorb >3x an ordinary node ({at_hot:.4} vs {at_cold:.4})"
    );
}

#[test]
fn complement_pattern_agrees_between_model_and_simulation() {
    let topo = Quarc::new(16).unwrap();
    let p = proto(&topo, UnicastPattern::Complement);
    let sat = max_sustainable_rate(&topo, &p, ModelOptions::default(), 0.01);
    let wl = p.at_rate(sat * 0.4).unwrap();
    let pred = AnalyticModel::new(&topo, &wl, ModelOptions::default())
        .evaluate()
        .unwrap();
    let res = build_engine(
        &topo,
        &wl,
        SimConfig::quick(7).with_engine(EngineKind::Cycle),
    )
    .unwrap()
    .run();
    assert!(!res.saturated);
    let uni_err = (pred.unicast_latency - res.unicast.mean).abs() / res.unicast.mean;
    assert!(uni_err < 0.10, "complement unicast error {uni_err:.3}");
}

#[test]
fn complement_unicast_latency_reflects_fixed_distance() {
    // Under the complement permutation on a Quarc, every node sends to
    // N-1-s; at zero-ish load the mean unicast latency must equal the
    // mean over exactly those pairs, not the all-pairs mean.
    let topo = Quarc::new(16).unwrap();
    let p = proto(&topo, UnicastPattern::Complement)
        .at_rate(1e-5)
        .unwrap();
    let pred = AnalyticModel::new(&topo, &p, ModelOptions::default())
        .evaluate()
        .unwrap();
    let mut expected = 0.0;
    for s in 0..16u32 {
        let d = NodeId(15 - s);
        let path = topo.unicast_path(NodeId(s), d);
        expected += 32.0 + path.hop_count() as f64;
    }
    expected /= 16.0;
    assert!(
        (pred.unicast_latency - expected).abs() < 0.5,
        "complement mean {} vs expected {}",
        pred.unicast_latency,
        expected
    );
}

#[test]
fn pattern_validation_guards_simulator_and_model() {
    let topo = Quarc::new(8).unwrap();
    let bad = proto(
        &topo,
        UnicastPattern::HotSpot {
            node: NodeId(99),
            fraction: 0.2,
        },
    );
    // AssertUnwindSafe: nothing is reused after the catch, and Network's
    // implicit-storage handle is plain shared data either way.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = build_engine(
            &topo,
            &bad,
            SimConfig::quick(1).with_engine(EngineKind::Cycle),
        )
        .unwrap();
    }));
    assert!(
        result.is_err(),
        "simulator must reject an out-of-range hot node"
    );
}
