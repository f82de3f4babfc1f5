//! Extension: the multi-port model on the binary hypercube — the topology
//! family of the paper's predecessor work (Shahrabi et al., MASCOTS 2000,
//! ref.\[18\]), which modelled broadcast with one-port routers and
//! non-wormhole collectives. Here the hypercube gets one port per
//! dimension, e-cube wormhole unicast and Gray-code dual-path multicast,
//! and the same model-vs-simulation validation protocol as Fig. 6 — one
//! [`Scenario`] per dimension, all through the shared [`Runner`].
//!
//! ```text
//! cargo run --release -p noc-bench --bin hypercube-extension -- [--quick] [--json]
//! ```

use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, Runner, Scenario, SweepSpec, WorkloadSpec};
use noc_topology::TopologySpec;
use noc_workloads::table::{fmt_latency, Table};

fn main() -> Result<()> {
    let opts = Options::from_env();
    println!("== Extension: multi-port hypercube (cf. paper ref. 18) ==\n");
    println!("unicast: e-cube; multicast: Gray-code dual-path (m = 2)\n");
    let mut table = Table::new(vec![
        "dim",
        "nodes",
        "rate",
        "model_uni",
        "sim_uni",
        "model_mc",
        "sim_mc",
        "err_mc%",
    ]);
    let runner = Runner::new().threads(opts.threads);
    for dim in [3usize, 4, 5] {
        let topology = TopologySpec::Hypercube { dim };
        let n = topology.num_nodes();
        let sc = Scenario::new(
            format!("hypercube-extension-{topology}"),
            topology,
            WorkloadSpec::new(32, 0.05, MulticastPattern::Random { group: n / 4 }),
            SweepSpec::SaturationFractions {
                fractions: vec![0.35, 0.7],
            },
        )
        .with_sim(opts.sim_config())
        .with_seed(opts.seed);
        let result = runner.run(&sc)?;
        for p in &result.points {
            table.push_row(vec![
                dim.to_string(),
                n.to_string(),
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
    opts.save_csv("hypercube-extension.csv", &table.to_csv());
    Ok(())
}
