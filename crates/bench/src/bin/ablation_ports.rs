//! Ablation B: the asynchronous max-of-exponentials combination (Eq. 13)
//! vs the "largest sub-network wins" heuristic the paper argues against in
//! §2, on two multi-port topologies:
//!
//! * the 2-port ring (`m = 2` streams), and
//! * the 4-port Quarc (`m = 4` streams),
//!
//! each against the simulated multicast latency. Both topologies share
//! one [`Scenario`] shape (two saturation-relative operating points)
//! executed by the common [`Runner`]; the largest-subset heuristic is
//! overlaid analytically on the same points. The gap between the
//! heuristic and the simulation grows with the number of ports, which is
//! precisely the paper's motivation for modelling the last-completion
//! time.
//!
//! ```text
//! cargo run --release -p noc-bench --bin ablation-ports -- [--quick] [--json]
//! ```

use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, Runner, Scenario, SweepSpec, WorkloadSpec};
use noc_topology::TopologySpec;
use noc_workloads::table::{fmt_latency, Table};
use quarc_core::multicast::largest_subset_latency;
use quarc_core::rates::ChannelLoads;
use quarc_core::{service, AnalyticModel, ModelOptions};

fn run_topo(
    name: &str,
    topology: TopologySpec,
    group: usize,
    opts: &Options,
    table: &mut Table,
) -> Result<()> {
    let sc = Scenario::new(
        format!("ablation-ports-{topology}"),
        topology,
        WorkloadSpec::new(32, 0.05, MulticastPattern::Random { group }),
        SweepSpec::SaturationFractions {
            fractions: vec![0.4, 0.8],
        },
    )
    .with_sim(opts.sim_config())
    .with_seed(opts.seed);
    let result = Runner::new().threads(opts.threads).run(&sc)?;
    if opts.json {
        result.write_json(&opts.out)?;
    }

    let (topo, proto) = sc.materialize()?;
    let mo = ModelOptions::default();
    for (p, load_frac) in result.points.iter().zip([0.4, 0.8]) {
        let wl = proto.at_rate(p.rate)?;
        let pred = AnalyticModel::new(topo.as_ref(), &wl, mo).evaluate();
        let loads = ChannelLoads::build(topo.as_ref(), &wl, &mo);
        let heuristic = service::solve(topo.as_ref(), &loads, wl.msg_len as f64, &mo)
            .map(|sol| {
                largest_subset_latency(
                    topo.as_ref(),
                    wl.routing,
                    wl.msg_len as f64,
                    &|n| wl.multicast_set(n),
                    &loads,
                    &sol,
                    &mo,
                )
            })
            .unwrap_or(f64::NAN);
        let (emax, ports) = match &pred {
            Ok(pred) => (
                pred.multicast_latency,
                pred.per_node
                    .iter()
                    .map(|nm| nm.port_waits.len())
                    .max()
                    .unwrap_or(0),
            ),
            Err(_) => (f64::NAN, 0),
        };
        table.push_row(vec![
            name.to_string(),
            format!("{ports}"),
            format!("{:.0}% of sat", load_frac * 100.0),
            fmt_latency(emax),
            fmt_latency(heuristic),
            fmt_latency(p.sim_multicast),
        ]);
    }
    Ok(())
}

fn main() -> Result<()> {
    let opts = Options::from_env();
    println!("== Ablation: E[max] combination vs largest-subset heuristic ==\n");
    let mut table = Table::new(vec![
        "topology",
        "streams",
        "load",
        "model_E[max]",
        "model_largest",
        "sim_mc",
    ]);
    run_topo(
        "ring-16 (m=2)",
        TopologySpec::Ring { n: 16 },
        4,
        &opts,
        &mut table,
    )?;
    run_topo(
        "quarc-16 (m=4)",
        TopologySpec::Quarc { n: 16 },
        4,
        &opts,
        &mut table,
    )?;
    println!("{}", table.to_aligned());
    opts.save_csv("ablation-ports.csv", &table.to_csv());
    Ok(())
}
