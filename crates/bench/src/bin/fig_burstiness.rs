//! Burstiness ablation: where the Poisson assumption of the analytical
//! model breaks.
//!
//! The paper's model (and its validation protocol, §4) assumes per-node
//! Poisson injection. This binary holds the *mean* rate fixed at 50% of
//! the model's saturation rate on a 16-node Quarc and sweeps the
//! *burstiness* of the arrival process: on/off sources with mean burst
//! lengths 1, 2, 4, … messages at a fixed peak rate. The model overlay is
//! evaluated unchanged at every point (it only sees the mean rate), so
//! the chart is the model-vs-simulation divergence as a function of burst
//! length — the ablation the traffic subsystem exists for. Each point is
//! annotated with the runner's model-applicability flag.
//!
//! ```text
//! cargo run --release -p noc-bench --bin fig-burstiness -- [--quick] [--points N] [--json]
//! ```
//!
//! `--points N` selects the number of burst lengths (powers of two from
//! 1), so `--points 2` is a CI-sized smoke sweep.

use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, Runner, Scenario, SweepSpec, WorkloadSpec};
use noc_topology::TopologySpec;
use noc_workloads::table::Table;
use noc_workloads::TrafficSpec;
use quarc_core::max_sustainable_rate;

fn main() -> Result<()> {
    let opts = Options::from_env();
    println!("== Burstiness ablation: model (Poisson) vs simulation (on/off traffic) ==\n");

    let topology = TopologySpec::Quarc { n: 16 };
    let workload = WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 4 });

    // Fix the operating point at 50% of the model's saturation rate and
    // pick a peak rate well above it, so every burst length below draws
    // the same mean load.
    let probe = Scenario::new("burstiness-probe", topology, workload.clone(), {
        SweepSpec::Explicit { rates: vec![] }
    })
    .with_seed(opts.seed);
    let (topo, proto) = probe.materialize()?;
    let sat = max_sustainable_rate(topo.as_ref(), &proto, Default::default(), 0.01);
    let rate = 0.5 * sat;
    let peak_rate = (8.0 * rate).min(0.8);
    println!(
        "operating point: rate {rate:.5} msg/node/cycle (50% of saturation {sat:.5}), \
         on/off peak rate {peak_rate:.5}\n"
    );

    let runner = Runner::new().threads(opts.threads);
    let mut table = Table::new(vec![
        "burst_len",
        "model_mc",
        "sim_mc",
        "divergence%",
        "sim_sat",
        "model_applicable",
    ]);
    for i in 0..opts.points as u32 {
        let burst_len = f64::from(1u32 << i);
        let traffic = if burst_len == 1.0 {
            // Burst length 1 is the Poisson baseline: run it as the
            // genuine geometric source so the model flag stays `yes`.
            TrafficSpec::Geometric
        } else {
            TrafficSpec::OnOff {
                burst_len,
                peak_rate,
            }
        };
        let scenario = Scenario::new(
            format!("burstiness-b{burst_len}"),
            topology,
            workload.clone().with_traffic(traffic),
            SweepSpec::Explicit { rates: vec![rate] },
        )
        .with_sim(opts.sim_config())
        .with_seed(opts.seed);
        let result = runner.run(&scenario)?;
        let p = &result.points[0];
        table.push_row(vec![
            format!("{burst_len}"),
            format!("{:.2}", p.model_multicast),
            format!("{:.2}", p.sim_multicast),
            p.multicast_error()
                .map(|e| format!("{:.1}", e * 100.0))
                .unwrap_or_else(|| "-".into()),
            if p.sim_saturated { "yes" } else { "no" }.into(),
            if p.model_applicable { "yes" } else { "no" }.into(),
        ]);
        if opts.json {
            let path = result.write_json(&opts.out)?;
            println!("wrote {}", path.display());
        }
    }
    println!("{}", table.to_aligned());
    opts.save_csv("fig-burstiness.csv", &table.to_csv());
    println!(
        "\nThe model only sees the mean rate; rising divergence with burst length is the\n\
         Poisson assumption visibly breaking (cf. the network-calculus critique of\n\
         arXiv:1007.4853). Points with model_applicable = no carry the same warning in\n\
         their JSON results."
    );
    Ok(())
}
