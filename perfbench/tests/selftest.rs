//! Self-test of the benchmark: a reduced pass over every workload, untraced
//! and traced, checking what the full runs promise.

use noc_bench::Runner;
use noc_topology::RoutingSpec;
use perfbench::check::recorded_digests;
use perfbench::workloads::{mesh_onoff, Size, NAMES};
use perfbench::{run, Options, BASELINE, DEFAULT_SEED};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let v = serde::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Some(serde::Value::Seq(metrics)) = v.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    metrics
        .iter()
        .map(|m| {
            let s = |k| match m.get(k) {
                Some(serde::Value::Str(s)) => s.clone(),
                _ => panic!("metric without {k}"),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn reduced_pass_over_every_workload() {
    for workload in NAMES {
        for trace in [false, true] {
            let opts = Options {
                workload: workload.to_string(),
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace,
                size: Size::Reduced,
                out_dir: None,
            };
            let report = run(&opts).expect("workload runs");
            let ctx = format!("{workload} trace={trace}: {:#?}", report.notes);

            // Every declared metric is printed, by name, with its unit.
            let line = serde::json::parse(&report.json_line()).expect("result line is JSON");
            let expected = declared(if trace { "per_layer" } else { "end_to_end" });
            let Some(serde::Value::Map(printed)) = line.get("metrics") else {
                panic!("result line has no metrics map");
            };
            assert_eq!(printed.len(), expected.len(), "{ctx}");
            for (name, unit) in &expected {
                let m = line
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{name} missing; {ctx}"));
                assert_eq!(
                    m.get("unit"),
                    Some(&serde::Value::Str(unit.clone())),
                    "{name}; {ctx}"
                );
            }

            // No job failed, so failed_frac = 0.
            assert!(report.attempted > 0, "{ctx}");
            assert_eq!(report.failed, 0, "{ctx}");
            assert!(report.correct, "{ctx}");

            // The simulated statistics reproduce the recorded digests.
            let recorded = recorded_digests(BASELINE, workload, Size::Reduced.key())
                .expect("reduced digests are recorded");
            assert_eq!(report.digests, recorded, "{ctx}");

            // Layer spans account for the traced pass's wall time.
            if trace {
                let coverage = report
                    .metrics
                    .iter()
                    .find(|m| m.name == "trace.coverage")
                    .expect("traced run reports trace.coverage")
                    .value;
                assert!(coverage >= 0.9, "coverage {coverage}; {ctx}");
            }
        }
    }
}

/// First target 1 in baseline.json: multipath on torus-8x8 deadlocks at the
/// lowest `mesh-mix` rate for seed 8. `mesh-mix` runs the affected pairs at
/// the default seed only; once this input stops deadlocking, let them
/// follow `--seed` again, record their digests and drop the target.
#[test]
fn first_target_deadlock_still_reproduces() {
    let sc = mesh_onoff("torus-8x8", RoutingSpec::Multipath, 8, Size::Full);
    let r = Runner::new()
        .threads(2)
        .cache(None)
        .run(&sc)
        .expect("scenario runs");
    assert!(
        r.sims[0][0].deadlocked,
        "torus-8x8 multipath at seed 8 no longer deadlocks at rate {}",
        r.points[0].rate
    );
}
