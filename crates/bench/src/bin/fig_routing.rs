//! Routing-scheme ablation: path-based vs dual-path vs multipath vs
//! unicast-replicated multicast, scheme × rate.
//!
//! The paper's model (§2.2, Eq. 8–16) assumes path-based multicast. This
//! binary sweeps the *routing scheme* at fixed workload on mesh, torus and
//! hypercube: every scheme runs the same destination sets over the same
//! rate grid (fractions of the path-based saturation rate), with the
//! analytical overlay evaluated everywhere it is defined. Two things are
//! visible in one table: how much latency the scheme itself costs (the
//! unicast baseline pays for source serialization, multipath wins back
//! concurrency), and where the model's path-based assumption stops being a
//! prediction (`model_applicable = no` rows).
//!
//! ```text
//! cargo run --release -p noc-bench --bin fig-routing -- [--quick] [--points N] [--json]
//! ```
//!
//! `--points N` selects the number of load fractions between 30% and 90%
//! of saturation, so `--points 2` is a CI-sized smoke sweep.

use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, Runner, Scenario, SweepSpec, WorkloadSpec};
use noc_topology::{RoutingSpec, TopologySpec, ALL_ROUTINGS};
use noc_workloads::table::{fmt_latency, Table};
use quarc_core::max_sustainable_rate;

fn main() -> Result<()> {
    let opts = Options::from_env();
    println!("== Routing-scheme ablation: scheme x rate, fixed workload ==\n");

    // The Quarc leads the list because it is where dual-path genuinely
    // differs from the native scheme (4-port BRCP vs 2 rim streams); on
    // mesh/torus/hypercube the native multicast *is* the Hamiltonian
    // dual-path, so those rows coincide by construction.
    let topologies = [
        TopologySpec::Quarc { n: 16 },
        TopologySpec::Mesh {
            width: 4,
            height: 4,
        },
        TopologySpec::Torus {
            width: 4,
            height: 4,
        },
        TopologySpec::Hypercube { dim: 4 },
    ];
    let points = opts.points.max(2);
    let fractions: Vec<f64> = (0..points)
        .map(|i| 0.3 + 0.6 * i as f64 / (points - 1) as f64)
        .collect();

    let runner = Runner::new().threads(opts.threads);
    let mut table = Table::new(vec![
        "topology",
        "scheme",
        "rate",
        "model_mc",
        "bound_mc",
        "sim_mc",
        "err_mc%",
        "model_applicable",
        "sim_sat",
    ]);
    let mut bound_violations = 0usize;
    for topology in topologies {
        let workload = WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 4 });
        // One rate grid per topology, anchored at the *path-based*
        // saturation point so every scheme sees identical offered load.
        let probe = Scenario::new(
            format!("routing-probe-{topology}"),
            topology,
            workload.clone(),
            SweepSpec::Explicit { rates: vec![] },
        )
        .with_seed(opts.seed);
        let (topo, proto) = probe.materialize()?;
        let sat = max_sustainable_rate(topo.as_ref(), &proto, Default::default(), 0.01);
        let rates: Vec<f64> = fractions.iter().map(|f| f * sat).collect();
        println!("{topology}: path-based saturation {sat:.5} msg/node/cycle");

        for routing in ALL_ROUTINGS {
            let scenario = Scenario::new(
                format!("routing-{topology}-{routing}"),
                topology,
                workload.clone().with_routing(routing),
                SweepSpec::Explicit {
                    rates: rates.clone(),
                },
            )
            .with_sim(opts.sim_config())
            .with_seed(opts.seed);
            let result = runner.run(&scenario)?;
            for p in &result.points {
                table.push_row(vec![
                    topology.to_string(),
                    routing.to_string(),
                    format!("{:.5}", p.rate),
                    // Renders the model's own saturation (rate grids are
                    // anchored at *path-based* saturation, which lower-
                    // capacity schemes exceed) as "saturated", not NaN.
                    fmt_latency(p.model_multicast),
                    fmt_latency(p.bound_multicast),
                    format!("{:.2}", p.sim_multicast),
                    p.multicast_error()
                        .map(|e| format!("{:.1}", e * 100.0))
                        .unwrap_or_else(|| "-".into()),
                    if p.model_applicable { "yes" } else { "no" }.into(),
                    if p.sim_saturated { "yes" } else { "no" }.into(),
                ]);
                if p.bound_multicast.is_finite()
                    && p.sim_multicast.is_finite()
                    && !p.sim_saturated
                    && p.bound_multicast < p.sim_multicast
                {
                    bound_violations += 1;
                    eprintln!(
                        "BOUND VIOLATION: {topology}/{routing} rate {:.5}: \
                         calculus bound {:.2} < simulated mean {:.2}",
                        p.rate, p.bound_multicast, p.sim_multicast
                    );
                }
            }
            if opts.json {
                let path = result.write_json(&opts.out)?;
                println!("wrote {}", path.display());
            }
        }
    }
    println!("\n{}", table.to_aligned());
    opts.save_csv("fig-routing.csv", &table.to_csv());

    // Schemes that need concurrent injection ports are *typed* spec
    // errors on one-port topologies, not panics deep inside a sweep.
    let one_port = TopologySpec::Spidergon { n: 8 };
    let rejected = Scenario::new(
        "routing-spidergon-multipath",
        one_port,
        WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 2 })
            .with_routing(RoutingSpec::Multipath),
        SweepSpec::Explicit { rates: vec![1e-3] },
    )
    .validate()
    .expect_err("multipath needs multi-port routers");
    println!("\n{one_port}: {rejected}");
    println!(
        "\nPath-based rows reproduce the paper's scheme; unicast rows are the\n\
         no-hardware-support baseline whose source serialization the model does not\n\
         see (model_applicable = no). The dual-path/multipath gaps are the ablation:\n\
         where partitioning the destination set shifts the latency curve (cf.\n\
         arXiv:1610.00751, arXiv:2108.00566)."
    );
    assert_eq!(
        bound_violations, 0,
        "{bound_violations} network-calculus bound(s) fell below the simulated mean"
    );
    Ok(())
}
