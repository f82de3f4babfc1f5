//! Baseline comparison motivating the Quarc (paper §3.1–3.2): collective
//! latency of the Quarc's true multicast vs the Spidergon's
//! broadcast-by-consecutive-unicast, measured in simulation on otherwise
//! idle networks. Each `(topology, N)` cell is a broadcast [`Scenario`]
//! measured through [`Runner::isolated_multicast`].
//!
//! The paper's qualitative claims reproduced here:
//!
//! * a Quarc broadcast visits each quadrant in `N/4` link hops, while the
//!   Spidergon needs `N − 1` consecutive unicasts through one port;
//! * the Quarc broadcast latency is therefore dramatically lower and the
//!   gap widens with `N`.
//!
//! ```text
//! cargo run --release -p noc-bench --bin spidergon-baseline
//! ```

use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, Runner, Scenario, SweepSpec, WorkloadSpec};
use noc_sim::SimConfig;
use noc_topology::{NodeId, TopologySpec};
use noc_workloads::table::Table;

/// Zero-load broadcast latency: one broadcast injected on an idle network.
fn idle_broadcast_latency(topology: TopologySpec, msg_len: u32) -> Result<u64> {
    let sc = Scenario::new(
        format!("idle-broadcast-{topology}"),
        topology,
        WorkloadSpec::new(msg_len, 0.0, MulticastPattern::Broadcast),
        SweepSpec::Explicit { rates: vec![] },
    )
    .with_sim(SimConfig::quick(1))
    .with_seed(1);
    Runner::new().isolated_multicast(&sc, NodeId(0))
}

fn main() -> Result<()> {
    let opts = Options::from_env();
    println!("== Baseline: Quarc true multicast vs Spidergon unicast train ==\n");
    let msg = 32u32;
    let mut table = Table::new(vec![
        "N",
        "quarc_bcast",
        "spidergon_bcast",
        "speedup",
        "quarc_links",
        "spidergon_msgs",
    ]);
    for n in [8usize, 16, 32, 64] {
        let ql = idle_broadcast_latency(TopologySpec::Quarc { n }, msg)?;
        let sl = idle_broadcast_latency(TopologySpec::Spidergon { n }, msg)?;
        table.push_row(vec![
            n.to_string(),
            ql.to_string(),
            sl.to_string(),
            format!("{:.1}x", sl as f64 / ql as f64),
            (n / 4).to_string(),
            (n - 1).to_string(),
        ]);
    }
    println!("zero-load broadcast latency, {msg}-flit messages (cycles):");
    println!("{}", table.to_aligned());
    opts.save_csv("spidergon-baseline.csv", &table.to_csv());
    Ok(())
}
