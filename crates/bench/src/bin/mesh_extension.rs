//! The paper's stated future work (§5): applying the multi-port multicast
//! model to mesh and torus topologies.
//!
//! Unicast uses XY / dimension-ordered routing; multicast uses the
//! dual-path Hamiltonian scheme (two asynchronous streams, `m = 2`). Both
//! networks share one declarative [`Scenario`] shape — only the
//! [`TopologySpec`] differs — executed by the common [`Runner`]: the same
//! validation protocol as Fig. 6, transplanted to the new networks.
//!
//! ```text
//! cargo run --release -p noc-bench --bin mesh-extension -- [--quick] [--json]
//! ```

use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, Runner, Scenario, SweepSpec, WorkloadSpec};
use noc_topology::TopologySpec;
use noc_workloads::table::{fmt_latency, Table};

fn scenario(topology: TopologySpec, opts: &Options) -> Scenario {
    Scenario::new(
        format!("mesh-extension-{topology}"),
        topology,
        WorkloadSpec::new(
            32,
            0.05,
            MulticastPattern::Random {
                group: topology.num_nodes() / 4,
            },
        ),
        SweepSpec::SaturationFractions {
            fractions: vec![0.3, 0.6, 0.9],
        },
    )
    .with_sim(opts.sim_config())
    .with_seed(opts.seed)
}

fn main() -> Result<()> {
    let opts = Options::from_env();
    println!("== Extension: multi-port mesh and torus (paper §5 future work) ==\n");
    println!("unicast: XY routing; multicast: dual-path Hamiltonian (m = 2)\n");
    let mut table = Table::new(vec![
        "topology",
        "rate",
        "model_uni",
        "sim_uni",
        "model_mc",
        "sim_mc",
        "err_mc%",
    ]);
    let runner = Runner::new().threads(opts.threads);
    for topology in [
        TopologySpec::Mesh {
            width: 4,
            height: 4,
        },
        TopologySpec::Torus {
            width: 4,
            height: 4,
        },
    ] {
        let sc = scenario(topology, &opts);
        let result = runner.run(&sc)?;
        for p in &result.points {
            table.push_row(vec![
                topology.kind_name().to_string(),
                format!("{:.5}", p.rate),
                fmt_latency(p.model_unicast),
                fmt_latency(p.sim_unicast),
                fmt_latency(p.model_multicast),
                fmt_latency(p.sim_multicast),
                p.multicast_error()
                    .map(|e| format!("{:.1}", e * 100.0))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        if opts.json {
            result.write_json(&opts.out)?;
        }
    }
    println!("{}", table.to_aligned());
    opts.save_csv("mesh-extension.csv", &table.to_csv());
    Ok(())
}
