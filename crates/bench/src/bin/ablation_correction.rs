//! Ablation A: the two formula ambiguities of the printed paper.
//!
//! * Eq. 3's waiting-time prefactor: standard Pollaczek–Khinchine vs the
//!   literal printed form (`λρ` numerator — dimensionally a rate).
//! * Eq. 6's self-traffic correction: fraction-of-arrivals vs the literal
//!   printed factor vs no correction.
//!
//! The simulated ground truth comes from one [`Scenario`] (three
//! saturation-relative operating points) executed by the shared
//! [`Runner`]; each formula variant is then overlaid analytically on the
//! same operating points. The table reports the multicast latency each
//! variant predicts against the simulation, justifying the defaults
//! chosen in DESIGN.md.
//!
//! ```text
//! cargo run --release -p noc-bench --bin ablation-correction -- [--quick] [--json]
//! ```

use noc_bench::cli::Options;
use noc_bench::{MulticastPattern, Result, Runner, Scenario, SweepSpec, WorkloadSpec};
use noc_topology::TopologySpec;
use noc_workloads::table::{fmt_latency, Table};
use quarc_core::{AnalyticModel, ModelOptions, ServiceCorrection, WaitingFormula};

fn main() -> Result<()> {
    let opts = Options::from_env();
    let load_fractions = [0.3, 0.6, 0.85];
    let sc = Scenario::new(
        "ablation-correction",
        TopologySpec::Quarc { n: 16 },
        WorkloadSpec::new(32, 0.05, MulticastPattern::Random { group: 4 }),
        SweepSpec::SaturationFractions {
            fractions: load_fractions.to_vec(),
        },
    )
    .with_sim(opts.sim_config())
    .with_seed(opts.seed);

    let variants: Vec<(&str, ModelOptions)> = vec![
        ("PK + self-excluding (default)", ModelOptions::default()),
        (
            "PK + literal Eq.6 factor",
            ModelOptions {
                correction: ServiceCorrection::LiteralEq6,
                ..Default::default()
            },
        ),
        (
            "PK + no correction",
            ModelOptions {
                correction: ServiceCorrection::None,
                ..Default::default()
            },
        ),
        (
            "literal Eq.3 prefactor",
            ModelOptions {
                formula: WaitingFormula::LiteralEq3,
                ..Default::default()
            },
        ),
        (
            "clone ejection load counted",
            ModelOptions {
                clone_ejection_load: true,
                ..Default::default()
            },
        ),
    ];

    println!("== Ablation: formula variants of Eq. 3 / Eq. 6 (N=16, M=32, alpha=5%) ==\n");
    let result = Runner::new().threads(opts.threads).run(&sc)?;
    if opts.json {
        result.write_json(&opts.out)?;
    }

    // Overlay each formula variant on the already-simulated points,
    // rebuilding the exact pair the runner used.
    let (topo, proto) = sc.materialize()?;
    let mut table = Table::new(vec!["variant", "load", "model_mc", "sim_mc", "err%"]);
    for (p, load_frac) in result.points.iter().zip(load_fractions) {
        let wl = proto.at_rate(p.rate)?;
        for (name, mo) in &variants {
            let model_mc = match AnalyticModel::new(topo.as_ref(), &wl, *mo).evaluate() {
                Ok(pred) => pred.multicast_latency,
                Err(_) => f64::NAN,
            };
            let err = if model_mc.is_finite() && p.sim_multicast > 0.0 {
                format!(
                    "{:.1}",
                    (model_mc - p.sim_multicast).abs() / p.sim_multicast * 100.0
                )
            } else {
                "-".into()
            };
            table.push_row(vec![
                name.to_string(),
                format!("{:.0}% of sat", load_frac * 100.0),
                fmt_latency(model_mc),
                fmt_latency(p.sim_multicast),
                err,
            ]);
        }
    }
    println!("{}", table.to_aligned());
    opts.save_csv("ablation-correction.csv", &table.to_csv());
    Ok(())
}
