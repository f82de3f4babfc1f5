//! Worst-case bound vs simulation: the network-calculus backend's
//! cross-validation panels.
//!
//! The M/G/1 overlay predicts *means* and is only sound for Poisson
//! traffic on path-based/dual-path streams. The network-calculus backend
//! ([`quarc_core::NetworkCalculusBackend`]) predicts *worst-case bounds*
//! for every traffic process and routing scheme; its saturation estimate
//! also anchors saturation-relative sweeps wherever M/G/1 is
//! inapplicable. This binary runs the backend end-to-end on panels that
//! cross the M/G/1 domain boundary in both directions — routing
//! (path-based vs multipath) and traffic (geometric vs on/off bursts) —
//! and hard-checks the invariant that makes a bound a bound:
//!
//! > wherever the bound is finite and the simulator is not saturated,
//! > `bound ≥ simulated mean`.
//!
//! Any violation is printed and the process exits nonzero, so the CI
//! smoke run of this binary is a real gate, not a demo.
//!
//! ```text
//! cargo run --release -p noc-bench --bin fig-bounds -- [--quick] [--points N] [--json]
//! ```

use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, Runner, Scenario, SweepSpec, WorkloadSpec};
use noc_topology::{RoutingSpec, TopologySpec};
use noc_workloads::table::{fmt_latency, Table};
use noc_workloads::TrafficSpec;
use quarc_core::{BackendSpec, ModelOptions};

fn main() -> Result<()> {
    let opts = Options::from_env();
    println!("== Network-calculus bounds vs simulation (backend = nc) ==\n");

    let topologies = [
        TopologySpec::Quarc { n: 16 },
        TopologySpec::Mesh {
            width: 4,
            height: 4,
        },
    ];
    let routings = [RoutingSpec::PathBased, RoutingSpec::Multipath];
    let traffics = [
        ("geometric", TrafficSpec::Geometric),
        (
            "onoff",
            TrafficSpec::OnOff {
                burst_len: 8.0,
                peak_rate: 0.2,
            },
        ),
    ];
    let points = opts.points.max(2);
    // Fractions of the *calculus* saturation anchor: selecting the nc
    // backend makes SweepSpec::resolve bisect its worst-case stability
    // horizon, which is exactly the fix for saturation-relative sweeps on
    // workloads the M/G/1 model cannot anchor.
    let fractions: Vec<f64> = (0..points)
        .map(|i| 0.3 + 0.6 * i as f64 / (points - 1) as f64)
        .collect();
    let model = ModelOptions {
        backend: BackendSpec::NetworkCalculus,
        ..ModelOptions::default()
    };

    let runner = Runner::new().threads(opts.threads);
    let mut table = Table::new(vec![
        "topology",
        "scheme",
        "traffic",
        "rate",
        "bound_uni",
        "sim_uni",
        "bound_mc",
        "sim_mc",
        "sim_sat",
        "bound_ok",
    ]);
    let mut violations = 0usize;
    let mut finite_points = 0usize;
    for topology in topologies {
        for routing in routings {
            for (traffic_name, traffic) in &traffics {
                let scenario = Scenario::new(
                    format!("bounds-{topology}-{routing}-{traffic_name}"),
                    topology,
                    WorkloadSpec::new(16, 0.05, MulticastPattern::Random { group: 4 })
                        .with_routing(routing)
                        .with_traffic(traffic.clone()),
                    SweepSpec::SaturationFractions {
                        fractions: fractions.clone(),
                    },
                )
                .with_sim(opts.sim_config())
                .with_seed(opts.seed)
                .with_model(Some(model));
                let result = runner.run(&scenario)?;
                for p in &result.points {
                    let comparable = p.bound_multicast.is_finite()
                        && p.sim_multicast.is_finite()
                        && !p.sim_saturated;
                    let ok = !comparable
                        || (p.bound_multicast >= p.sim_multicast
                            && (!p.bound_unicast.is_finite()
                                || !p.sim_unicast.is_finite()
                                || p.bound_unicast >= p.sim_unicast));
                    if comparable {
                        finite_points += 1;
                    }
                    if !ok {
                        violations += 1;
                        eprintln!(
                            "BOUND VIOLATION: {topology}/{routing}/{traffic_name} \
                             rate {:.5}: bound ({:.2}, {:.2}) vs sim ({:.2}, {:.2})",
                            p.rate,
                            p.bound_unicast,
                            p.bound_multicast,
                            p.sim_unicast,
                            p.sim_multicast
                        );
                    }
                    table.push_row(vec![
                        topology.to_string(),
                        routing.to_string(),
                        (*traffic_name).into(),
                        format!("{:.5}", p.rate),
                        fmt_latency(p.bound_unicast),
                        format!("{:.2}", p.sim_unicast),
                        fmt_latency(p.bound_multicast),
                        format!("{:.2}", p.sim_multicast),
                        if p.sim_saturated { "yes" } else { "no" }.into(),
                        if !comparable {
                            "-".into()
                        } else if ok {
                            "yes".to_string()
                        } else {
                            "NO".into()
                        },
                    ]);
                }
                if opts.json {
                    let path = result.write_json(&opts.out)?;
                    println!("wrote {}", path.display());
                }
            }
        }
    }
    println!("{}", table.to_aligned());
    opts.save_csv("fig-bounds.csv", &table.to_csv());
    println!(
        "\nEvery row sweeps fractions of the calculus backend's own saturation\n\
         anchor — including multipath routing and on/off bursts, where the M/G/1\n\
         model cannot place the knee. bound_ok checks bound >= simulated mean\n\
         per comparable row ({finite_points} comparable point(s))."
    );
    assert!(
        finite_points > 0,
        "no comparable (finite bound, unsaturated sim) points — panels mis-anchored"
    );
    assert_eq!(
        violations, 0,
        "{violations} network-calculus bound(s) fell below the simulated mean"
    );
    println!("\nbound >= simulated mean held on all comparable points.");
    Ok(())
}
