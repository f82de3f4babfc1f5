//! Closed-loop knee: completion latency vs throughput over the
//! outstanding-request window.
//!
//! Open-loop sweeps (Fig. 6/7) drive the network with a rate knob the
//! application never has; real memory-system traffic is *closed-loop* —
//! each node keeps at most `w` requests outstanding and injects only
//! when a delivery retires one. This binary sweeps the window `w` of the
//! invalidation-coherence protocol (powers of two from 1) on the 16-node
//! Quarc and the 4×4 mesh, charting the classic closed-loop shape:
//! per-request completion latency rises with `w` while ops retired per
//! cycle climbs until the network, not the window, is the bottleneck —
//! and can *roll back* past the knee, where wormhole blocking makes the
//! congested windows retire slower. With zero think time, 16 sources are
//! already enough to saturate the 16-node Quarc at `w = 1` (the curve is
//! the knee's congested side); the mesh keeps its knee interior.
//!
//! The analytical model has no notion of delivery-triggered injections,
//! so every point is stamped `model_applicable = false` — the curve is a
//! simulation-only exhibit by construction.
//!
//! ```text
//! cargo run --release -p noc-bench --bin fig-closedloop -- [--quick] [--points N] [--json]
//! ```
//!
//! `--points N` selects the number of window sizes (powers of two from
//! 1), so `--points 2` is a CI-sized smoke sweep; the binary exits
//! non-zero if throughput is not monotone in the window up to the knee.

use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, Runner, Scenario, SweepSpec, WorkloadSpec};
use noc_sim::ClosedLoopSpec;
use noc_topology::TopologySpec;
use noc_workloads::table::Table;

fn main() -> Result<()> {
    let opts = Options::from_env();
    println!("== Closed-loop coherence: latency/throughput knee over the window ==\n");

    // Enough requests per node that the steady window, not the start-up
    // ramp, dominates the measurement.
    let requests: u32 = if opts.quick { 32 } else { 128 };
    let windows: Vec<u32> = (0..opts.points as u32).map(|i| 1 << i).collect();
    let panels = [
        ("quarc-n16", TopologySpec::Quarc { n: 16 }),
        (
            "mesh-4x4",
            TopologySpec::Mesh {
                width: 4,
                height: 4,
            },
        ),
    ];

    let runner = Runner::new().threads(opts.threads).cache(opts.cache_dir());
    for (label, topology) in panels {
        let mut table = Table::new(vec![
            "window",
            "completion",
            "compl_ci95",
            "avg_outstanding",
            "ops_per_kcycle",
            "quiesce_cycle",
        ]);
        let mut throughputs: Vec<f64> = Vec::new();
        for &window in &windows {
            let spec = ClosedLoopSpec::Coherence {
                window,
                requests,
                write_fraction: 0.1,
            };
            let sc = Scenario::new(
                format!("closedloop-{label}-w{window}"),
                topology,
                WorkloadSpec::new(8, 0.0, MulticastPattern::Random { group: 4 })
                    .with_closed_loop(spec),
                SweepSpec::Explicit { rates: vec![0.0] },
            )
            .with_sim(opts.sim_config())
            .with_model(None)
            .with_seed(opts.seed);
            let res = runner.run(&sc)?;
            let point = &res.points[0];
            assert!(
                !point.model_applicable,
                "closed-loop points must never claim model applicability"
            );
            let cl = res.sims[0][0]
                .closed_loop
                .as_ref()
                .expect("closed-loop scenario stamps closed-loop results");
            assert!(
                cl.quiesced,
                "{label} w={window}: protocol must quiesce inside the deadline"
            );
            table.push_row(vec![
                window.to_string(),
                format!("{:.2}", cl.completion.mean),
                format!("{:.2}", cl.completion.ci95),
                format!("{:.2}", cl.avg_outstanding),
                format!("{:.3}", cl.ops_per_cycle * 1000.0),
                cl.quiesce_cycle.to_string(),
            ]);
            throughputs.push(cl.ops_per_cycle);
            if opts.json {
                res.write_json(&opts.out)?;
            }
        }

        println!("panel {label} ({requests} requests/node, write fraction 0.1):");
        println!("{}", table.to_aligned());
        opts.save_csv(&format!("fig-closedloop-{label}.csv"), &table.to_csv());
        println!();

        // The knee shape check: up to the best window, doubling the
        // window must not *lose* throughput (5% tolerance absorbs
        // protocol-RNG wiggle). Past the knee anything goes — wormhole
        // blocking can make congested windows retire *slower*, which is
        // exactly the rollback the closed-loop exhibit is for.
        let knee = throughputs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        for i in 0..knee {
            assert!(
                throughputs[i + 1] >= throughputs[i] * 0.95,
                "{label}: throughput not monotone below the knee: \
                 w={} gives {:.6}, w={} gives {:.6}",
                windows[i],
                throughputs[i],
                windows[i + 1],
                throughputs[i + 1]
            );
        }
    }
    Ok(())
}
