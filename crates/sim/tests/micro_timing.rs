//! Cycle-precise micro scenarios with hand-derived expected timings,
//! executed under **both** time-advance policies of the one [`Engine`].
//!
//! These tests pin the exact semantics of the wormhole engines: injection
//! serialisation, FIFO link arbitration, blocking duration, virtual-channel
//! bandwidth sharing and multicast/unicast equivalences. Every expected
//! number below is derived by hand from the timing conventions in the
//! crate docs (one flit per channel per cycle, one-cycle credit loop,
//! grants at end of cycle). Running each scenario on the cycle-stepped
//! reference and the event-driven engine keeps the zero-load `L + H + 1`
//! exactness (and every contention timing) a property of the *contract*,
//! not of one implementation.

use noc_sim::{build_engine, Engine, EngineKind, SimConfig};
use noc_topology::{NodeId, Quarc, Topology};
use noc_workloads::{DestinationSets, Workload};

const L: u64 = 8; // message length in flits for these scenarios

fn fixture(n: usize) -> (Quarc, Workload) {
    let topo = Quarc::new(n).unwrap();
    let sets = DestinationSets::random(&topo, 2, 1);
    let wl = Workload::new(L as u32, 0.0, 0.0, sets).unwrap();
    (topo, wl)
}

/// Isolated latency over a path with `links` links is `L + links + 1`.
fn isolated(links: u64) -> u64 {
    L + links + 1
}

/// Run `scenario` against a fresh engine of each kind, labelling failures
/// with the engine under test.
fn on_both_engines(
    topo: &dyn Topology,
    wl: &Workload,
    mut scenario: impl FnMut(&mut Engine, &str),
) {
    let cfg = SimConfig::quick(1);
    let mut cycle = build_engine(topo, wl, cfg.with_engine(EngineKind::Cycle)).unwrap();
    scenario(&mut cycle, "cycle engine");
    let mut event = build_engine(topo, wl, cfg).unwrap();
    scenario(&mut event, "event engine");
}

#[test]
fn back_to_back_same_port_serialise_on_the_injection_channel() {
    // Two messages from node 0 to node 2 (clockwise, same port). The
    // second acquires the injection channel when the first's tail leaves
    // its buffer (traverses the first link) at g + L + 1, so it finishes
    // exactly L + 1 cycles after the first.
    let (topo, wl) = fixture(16);
    on_both_engines(&topo, &wl, |sim, eng| {
        let g = sim.now();
        let m1 = sim.inject_unicast_now(NodeId(0), NodeId(2));
        let m2 = sim.inject_unicast_now(NodeId(0), NodeId(2));
        let t1 = sim.run_until_complete(m1);
        let t2 = sim.run_until_complete(m2);
        assert_eq!(t1 - g, isolated(2), "{eng}: first message is unobstructed");
        assert_eq!(t2 - t1, L + 1, "{eng}: second waits for injection release");
    });
}

#[test]
fn different_ports_of_one_node_do_not_serialise() {
    // Node 0 sends clockwise (to 2) and counter-clockwise (to 14)
    // simultaneously; the all-port router gives each its own injection
    // channel, so both complete at the isolated latency.
    let (topo, wl) = fixture(16);
    on_both_engines(&topo, &wl, |sim, eng| {
        let g = sim.now();
        let m1 = sim.inject_unicast_now(NodeId(0), NodeId(2));
        let m2 = sim.inject_unicast_now(NodeId(0), NodeId(14));
        let t1 = sim.run_until_complete(m1);
        let t2 = sim.run_until_complete(m2);
        assert_eq!(t1 - g, isolated(2), "{eng}");
        assert_eq!(t2 - g, isolated(2), "{eng}");
    });
}

#[test]
fn fifo_arbitration_earlier_request_wins_and_blocks_exactly_l_cycles() {
    // m1: 0 -> 2 needs links cw0, cw1. m2: 1 -> 3 needs links cw1, cw2.
    // Injected the same cycle, m2's header requests cw1 at g+1 (straight
    // from injection) while m1's header requests it at g+2 (after
    // traversing cw0) — FIFO grants m2 first. m1 then waits until m2's
    // tail leaves cw1's buffer, which adds exactly L cycles:
    //   m2 completes at g + L + 3 (isolated),
    //   m1 completes at g + 2L + 3.
    let (topo, wl) = fixture(16);
    on_both_engines(&topo, &wl, |sim, eng| {
        let g = sim.now();
        let m1 = sim.inject_unicast_now(NodeId(0), NodeId(2));
        let m2 = sim.inject_unicast_now(NodeId(1), NodeId(3));
        let t2 = sim.run_until_complete(m2);
        let t1 = sim.run_until_complete(m1);
        assert_eq!(
            t2 - g,
            isolated(2),
            "{eng}: m2 wins arbitration and is unobstructed"
        );
        assert_eq!(
            t1 - g,
            isolated(2) + L,
            "{eng}: m1 blocks for exactly one message drain"
        );
    });
}

#[test]
fn non_overlapping_paths_do_not_interact() {
    // 0 -> 2 (cw links 0,1) and 4 -> 6 (cw links 4,5): disjoint resources.
    let (topo, wl) = fixture(16);
    on_both_engines(&topo, &wl, |sim, eng| {
        let g = sim.now();
        let m1 = sim.inject_unicast_now(NodeId(0), NodeId(2));
        let m2 = sim.inject_unicast_now(NodeId(4), NodeId(6));
        let t1 = sim.run_until_complete(m1);
        let t2 = sim.run_until_complete(m2);
        assert_eq!(t1 - g, isolated(2), "{eng}");
        assert_eq!(t2 - g, isolated(2), "{eng}");
    });
}

#[test]
fn vc_multiplexing_shares_physical_bandwidth_fairly() {
    // Quarc N=8: m1 goes 7 -> 1 clockwise, crossing the 7->0 dateline, so
    // it rides VC1 on links 7->0 and 0->1. m2 goes 0 -> 2 on VC0 over
    // links 0->1 and 1->2. The physical link 0->1 is shared by the two
    // VCs; round-robin multiplexing interleaves them flit by flit:
    //
    //   m2 flit k crosses 0->1 at g + 2 + 2k (VC0 goes first, rr = 0),
    //   m1 flit k crosses 0->1 at g + 3 + 2k,
    //
    // after which each drains its private downstream channel, so BOTH
    // tails absorb at exactly g + 2L + 2 — unlike strict head-of-line
    // serialisation, which would delay one of them by a full drain.
    let (topo, wl) = fixture(8);
    on_both_engines(&topo, &wl, |sim, eng| {
        let g = sim.now();
        let m1 = sim.inject_unicast_now(NodeId(7), NodeId(1));
        let m2 = sim.inject_unicast_now(NodeId(0), NodeId(2));
        let t1 = sim.run_until_complete(m1);
        let t2 = sim.run_until_complete(m2);
        assert_eq!(t1 - g, 2 * L + 2, "{eng}: m1 shares the link flit-by-flit");
        assert_eq!(t2 - g, 2 * L + 2, "{eng}: m2 shares the link flit-by-flit");
        // Both beat strict serialisation (isolated + L = 2L + 3) while
        // paying more than the isolated latency (L + 3).
        assert!(t1 - g > isolated(2) && t1 - g < isolated(2) + L, "{eng}");
    });
}

#[test]
fn one_port_spidergon_serialises_at_the_ejection_channel() {
    // Two one-link messages arrive at node 0 from opposite directions
    // (1 -> 0 counter-clockwise, 7 -> 0 clockwise). The one-port Spidergon
    // has a single ejection channel, so the loser of the FIFO arbitration
    // waits a full drain: winner at L + 2, loser at 2L + 2. On the
    // all-port Quarc the same scenario does not contend at all — the
    // architectural difference the paper's Fig. 1 illustrates.
    use noc_topology::Spidergon;
    let spid = Spidergon::new(8).unwrap();
    let sets = DestinationSets::random(&spid, 2, 1);
    let wl = Workload::new(L as u32, 0.0, 0.0, sets).unwrap();
    on_both_engines(&spid, &wl, |sim, eng| {
        let g = sim.now();
        let m1 = sim.inject_unicast_now(NodeId(1), NodeId(0));
        let m2 = sim.inject_unicast_now(NodeId(7), NodeId(0));
        let t1 = sim.run_until_complete(m1);
        let t2 = sim.run_until_complete(m2);
        let (w, l) = (t1.min(t2), t1.max(t2));
        assert_eq!(w - g, L + 2, "{eng}: winner is unobstructed");
        assert_eq!(l - g, 2 * L + 2, "{eng}: loser waits one full drain");
    });

    // Same scenario on the Quarc: distinct ejection channels per input
    // direction, no contention.
    let (quarc, qwl) = fixture(8);
    on_both_engines(&quarc, &qwl, |sim, eng| {
        let g = sim.now();
        let q1 = sim.inject_unicast_now(NodeId(1), NodeId(0));
        let q2 = sim.inject_unicast_now(NodeId(7), NodeId(0));
        let t1 = sim.run_until_complete(q1);
        let t2 = sim.run_until_complete(q2);
        assert_eq!(t1 - g, L + 2, "{eng}");
        assert_eq!(t2 - g, L + 2, "{eng}");
    });
}

#[test]
fn single_target_multicast_times_equal_unicast() {
    let (topo, wl) = fixture(16);
    for dst in [1u32, 4, 8, 5, 11, 12] {
        let sets = DestinationSets::explicit({
            let mut v = vec![Vec::new(); 16];
            v[0] = vec![NodeId(dst)];
            v
        });
        let wl_mc = Workload::new(L as u32, 0.0, 0.0, sets).unwrap();
        let mut results = Vec::new();
        on_both_engines(&topo, &wl_mc, |sim, eng| {
            let mc = sim.measure_isolated_multicast(NodeId(0));
            results.push((eng.to_string(), mc));
        });
        on_both_engines(&topo, &wl, |sim, eng| {
            let uc = sim.measure_isolated_unicast(NodeId(0), NodeId(dst));
            for (mc_eng, mc) in &results {
                assert_eq!(
                    *mc, uc,
                    "single-target multicast to {dst} ({mc_eng}) equals unicast ({eng})"
                );
            }
        });
    }
}

#[test]
fn multicast_completion_is_the_slowest_stream() {
    // Targets at clockwise distance 1 and counter-clockwise distance 4:
    // the op completes with the deeper stream: L + 4 + 1.
    let (topo, _) = fixture(16);
    let sets = DestinationSets::explicit({
        let mut v = vec![Vec::new(); 16];
        v[0] = vec![NodeId(1), NodeId(12)];
        v
    });
    let wl = Workload::new(L as u32, 0.0, 0.0, sets).unwrap();
    on_both_engines(&topo, &wl, |sim, eng| {
        let lat = sim.measure_isolated_multicast(NodeId(0));
        assert_eq!(lat, L + 4 + 1, "{eng}");
    });
}

#[test]
fn absorb_and_forward_does_not_stall_the_stream() {
    // A cross-left stream absorbing at every visited node (targets 8,7,6,5
    // from node 0) must complete in exactly the same time as a plain
    // unicast to the final node 5 — cloning at intermediate targets costs
    // no cycles (simultaneous receive-and-forward, §3.3.2).
    let (topo, wl) = fixture(16);
    let sets = DestinationSets::explicit({
        let mut v = vec![Vec::new(); 16];
        v[0] = vec![NodeId(8), NodeId(7), NodeId(6), NodeId(5)];
        v
    });
    let wl_mc = Workload::new(L as u32, 0.0, 0.0, sets).unwrap();
    let mut mc_results = Vec::new();
    on_both_engines(&topo, &wl_mc, |sim, eng| {
        mc_results.push((eng.to_string(), sim.measure_isolated_multicast(NodeId(0))));
    });
    on_both_engines(&topo, &wl, |sim, eng| {
        let uc = sim.measure_isolated_unicast(NodeId(0), NodeId(5));
        for (mc_eng, mc) in &mc_results {
            assert_eq!(
                *mc, uc,
                "absorb-and-forward must be free ({mc_eng} vs {eng})"
            );
        }
    });
}

#[test]
fn broadcast_behind_a_unicast_waits_one_drain_on_the_contended_port() {
    // A unicast 0 -> 2 departs first; a broadcast from 0 follows
    // immediately. Its clockwise stream shares the cw injection channel
    // and must wait L + 1 cycles; the other three streams are free, but
    // the op latency is governed by the blocked cw stream:
    //   cw stream completes at (L + 1) + L + (4 + 1).
    let (topo, _) = fixture(16);
    let sets = DestinationSets::broadcast(&topo);
    let wl = Workload::new(L as u32, 0.0, 0.0, sets).unwrap();
    on_both_engines(&topo, &wl, |sim, eng| {
        let g = sim.now();
        let uni = sim.inject_unicast_now(NodeId(0), NodeId(2));
        let streams = sim.inject_multicast_now(NodeId(0));
        for id in streams {
            sim.run_until_complete(id);
        }
        let op_done = sim.now();
        sim.run_until_complete(uni);
        // Free streams take L + 5; the cw stream is delayed by the
        // unicast's injection occupancy (L + 1 cycles), finishing at
        // 2L + 6.
        assert_eq!(op_done - g, (L + 1) + L + 5, "{eng}");
    });
}

#[test]
fn zero_load_l_h_1_exactness_holds_for_both_engines() {
    // The documented identity on every engine, over a spread of pairs and
    // message lengths (the integration sweep covers all pairs on the
    // reference; this pins the contract for both implementations).
    let topo = Quarc::new(16).unwrap();
    for msg_len in [2u32, L as u32, 32] {
        let sets = DestinationSets::random(&topo, 2, 1);
        let wl = Workload::new(msg_len, 0.0, 0.0, sets).unwrap();
        on_both_engines(&topo, &wl, |sim, eng| {
            for (s, d) in [(0u32, 1u32), (0, 8), (5, 1), (3, 15)] {
                let lat = sim.measure_isolated_unicast(NodeId(s), NodeId(d));
                let hops = topo.unicast_path(NodeId(s), NodeId(d)).hop_count() as u64;
                assert_eq!(
                    lat,
                    msg_len as u64 + hops,
                    "{eng}: L + H + 1 identity for {s}->{d} at len {msg_len}"
                );
            }
        });
    }
}

#[test]
fn scripted_injections_compose_with_poisson_background_on_both_engines() {
    // The scripted hooks must behave identically under background traffic
    // too: same seed, same background, same completion cycles.
    let topo = Quarc::new(16).unwrap();
    let sets = DestinationSets::random(&topo, 4, 9);
    let wl = Workload::new(L as u32, 0.01, 0.1, sets).unwrap();
    let cfg = SimConfig::quick(17);
    let mut cycle = build_engine(&topo, &wl, cfg.with_engine(EngineKind::Cycle)).unwrap();
    let mut event = build_engine(&topo, &wl, cfg).unwrap();
    let completions: Vec<u64> = {
        let run = |sim: &mut Engine| {
            for _ in 0..100 {
                sim.step_one();
            }
            let id = sim.inject_unicast_now(NodeId(0), NodeId(5));
            sim.run_until_complete(id)
        };
        vec![run(&mut cycle), run(&mut event)]
    };
    assert_eq!(
        completions[0], completions[1],
        "scripted injection under background traffic must agree"
    );
}
