//! End-to-end and per-layer benchmark of the Scenario/Runner pipeline.
//!
//! One run measures one workload (see [`workloads`]). With tracing off it
//! times whole passes through the public `Runner::run` and reports the
//! end-to-end metrics; with tracing on it alternates those passes with
//! traced passes that call each layer's public functions one at a time
//! inside spans and with direct passes that make the same calls untraced,
//! and reports per-layer metrics. Every job's output is
//! checked (see [`check`]) and counted in `attempted`/`failed`.

pub mod check;
pub mod pipeline;
pub mod trace;
pub mod workloads;

use check::{hex, job_failure, planned_jobs, scenario_digest, Reference};
use noc_bench::Runner;
use noc_sim::SimResults;
use pipeline::{Pass, ScenarioOutcome};
use quarc_core::BackendSpec;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{Size, WorkloadDef};

/// The seed whose scenario digests `baseline.json` records.
pub const DEFAULT_SEED: u64 = 1;

/// Baseline file: recorded digests, numbers and notes.
pub const BASELINE: &str = include_str!("../baseline.json");

/// Fewest set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Set-ups measured before each untraced pass.
const SETUPS_PER_PASS: usize = 2;

/// Pooled jobs needed so that `job_ms_p75` has at least ten jobs beyond it.
const MIN_JOBS: usize = 40;

/// Run options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Measured or reduced workload.
    pub size: Size,
    /// Directory the traced run writes its spans to.
    pub out_dir: Option<std::path::PathBuf>,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Result of a run.
#[derive(Debug, Default)]
pub struct Report {
    /// Did every output check pass?
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// Scenario digests of the first pass (`name → hex`).
    pub digests: BTreeMap<String, String>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank quantile.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Job-level checks over one pass, each scenario's digest against
/// `reference`. Returns `(attempted, failed)`.
fn check_pass(
    def: &WorkloadDef,
    pass: &Pass,
    reference: &mut Reference,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for (sc, outcome) in def.scenarios.iter().zip(&pass.results) {
        let r = match outcome {
            Ok(r) => r,
            Err(e) => {
                attempted += planned_jobs(sc);
                failed += planned_jobs(sc);
                notes.push(format!("FAIL {}: {e}", sc.name));
                continue;
            }
        };
        let jobs = r.points.len() as u64;
        attempted += jobs;
        let mut bad = 0;
        for (p, sims) in r.points.iter().zip(&r.sims) {
            if let Some(why) = job_failure(p, &sims[0]) {
                bad += 1;
                notes.push(format!("FAIL {} @ {}: {why}", sc.name, p.rate));
            }
        }
        let sims: Vec<&SimResults> = r.sims.iter().map(|s| &s[0]).collect();
        if let Err(why) = reference.check(sc, &hex(scenario_digest(&sims))) {
            notes.push(format!("FAIL {}: {why}", sc.name));
            bad = jobs;
        }
        failed += bad;
    }
    (attempted, failed)
}

/// Engine-run seconds, flit moves and cycles of one pass's open- and
/// closed-loop jobs, plus every job's wall time in milliseconds.
#[derive(Default)]
struct JobTotals {
    job_ms: Vec<f64>,
    engine_s: f64,
    flit_moves: u64,
    cycles: u64,
}

fn job_totals(results: &[ScenarioOutcome]) -> JobTotals {
    let mut t = JobTotals::default();
    for r in results.iter().flatten() {
        for (p, sims) in r.points.iter().zip(&r.sims) {
            t.job_ms.push(p.wall_ms);
            t.engine_s += p.wall_ms / 1e3;
            t.flit_moves += sims[0].flit_moves;
            t.cycles += sims[0].cycles;
        }
    }
    t
}

/// Mean relative M/G/1 multicast error over applicable, unsaturated
/// points, in percent (0 when no point qualifies).
fn model_err_mc_pct(results: &[ScenarioOutcome]) -> f64 {
    let errs: Vec<f64> = results
        .iter()
        .flatten()
        .filter(|r| {
            r.scenario
                .model
                .is_some_and(|m| m.backend == BackendSpec::MgOne)
        })
        .flat_map(|r| &r.points)
        .filter(|p| p.model_applicable && !p.sim_saturated)
        .filter_map(|p| p.multicast_error())
        .collect();
    if errs.is_empty() {
        0.0
    } else {
        100.0 * errs.iter().sum::<f64>() / errs.len() as f64
    }
}

/// Run the benchmark.
pub fn run(opts: &Options) -> Result<Report, String> {
    let def = workloads::build(&opts.workload, opts.seed, opts.size).ok_or_else(|| {
        format!(
            "unknown workload '{}' (known: {})",
            opts.workload,
            workloads::NAMES.join(", ")
        )
    })?;
    let mut report = Report::default();
    let mut reference = Reference::new(&opts.workload, opts.size.key());
    if opts.trace {
        run_traced(&def, opts, &mut report, &mut reference)?;
    } else {
        run_untraced(&def, opts, &mut report, &mut reference)?;
    }
    report.correct = report.failed == 0;
    Ok(report)
}

fn min_passes(def: &WorkloadDef, size: Size) -> usize {
    let jobs: usize = def.scenarios.iter().map(|s| s.sweep.num_points()).sum();
    match size {
        Size::Full => MIN_JOBS.div_ceil(jobs.max(1)).max(2),
        Size::Reduced => 2,
    }
}

/// What one pass leaves behind once its checks have run: the results
/// themselves are dropped, so the benchmark's own memory does not grow
/// with the number of passes and `peak_rss_mib` measures the program.
struct PassSummary {
    wall_s: f64,
    totals: JobTotals,
}

/// Check a pass, add its counts to the report and summarise it.
fn absorb(
    def: &WorkloadDef,
    pass: &Pass,
    reference: &mut Reference,
    report: &mut Report,
) -> PassSummary {
    let (a, f) = check_pass(def, pass, reference, &mut report.notes);
    report.attempted += a;
    report.failed += f;
    PassSummary {
        wall_s: pass.wall_s,
        totals: job_totals(&pass.results),
    }
}

fn run_untraced(
    def: &WorkloadDef,
    opts: &Options,
    report: &mut Report,
    reference: &mut Reference,
) -> Result<(), String> {
    let runner = Runner::new().threads(worker_threads()).cache(None);
    let t0 = Instant::now();
    let mut first: Option<Pass> = None;
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    // Set-ups interleave with the passes so both sample the same spread
    // of host conditions over the run.
    while passes.len() < min_passes(def, opts.size)
        || setups.len() < SETUP_REPS
        || t0.elapsed().as_secs_f64() < opts.seconds
    {
        for _ in 0..SETUPS_PER_PASS {
            setups.push(pipeline::setup_once(def)?);
        }
        let pass = pipeline::untraced_pass(def, &runner);
        passes.push(absorb(def, &pass, reference, report));
        first.get_or_insert(pass);
    }
    let first = first.expect("at least one pass");
    report.digests = first_digests(def, &first);

    let mut job_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.totals.job_ms.iter().copied())
        .collect();
    job_ms.sort_unstable_by(f64::total_cmp);
    report.notes.push(format!(
        "{} passes, {} setups, {} jobs pooled for job_ms (p75 has {} jobs beyond it)",
        passes.len(),
        setups.len(),
        job_ms.len(),
        job_ms.len() - ((0.75 * job_ms.len() as f64).ceil() as usize),
    ));
    report.notes.push(format!(
        "samples: setup_s {setups:?}; wall_s {:?}",
        passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()
    ));
    report.notes.push(format!(
        "model_err_mc_pct {:.4} % (M/G/1 vs sim, applicable unsaturated points)",
        model_err_mc_pct(&first.results)
    ));
    for r in first.results.iter().flatten() {
        let saturated: Vec<String> = r
            .points
            .iter()
            .filter(|p| p.sim_saturated)
            .map(|p| format!("{:.3e}", p.rate))
            .collect();
        if !saturated.is_empty() {
            report.notes.push(format!(
                "{} saturates at rates {}",
                r.scenario.name,
                saturated.join(", ")
            ));
        }
    }
    let rate = |f: fn(&JobTotals) -> u64| -> f64 {
        median(
            passes
                .iter()
                .map(|p| f(&p.totals) as f64 / p.totals.engine_s)
                .collect(),
        )
    };
    report.push("setup_s", median(setups), "s");
    report.push(
        "wall_s",
        median(passes.iter().map(|p| p.wall_s).collect()),
        "s",
    );
    report.push("flit_moves_per_s", rate(|t| t.flit_moves), "1/s");
    report.push("sim_cycles_per_s", rate(|t| t.cycles), "1/s");
    report.push("job_ms_p50", quantile(&job_ms, 0.5), "ms");
    report.push("job_ms_p75", quantile(&job_ms, 0.75), "ms");
    report.push("peak_rss_mib", pipeline::proc_status_mib("VmHWM:"), "MiB");
    Ok(())
}

fn first_digests(def: &WorkloadDef, pass: &Pass) -> BTreeMap<String, String> {
    def.scenarios
        .iter()
        .zip(&pass.results)
        .filter_map(|(sc, r)| {
            let r = r.as_ref().ok()?;
            let sims: Vec<&SimResults> = r.sims.iter().map(|s| &s[0]).collect();
            Some((sc.name.clone(), hex(scenario_digest(&sims))))
        })
        .collect()
}

/// Layer names whose spans count towards trace coverage: every span that
/// wraps one call into the program (`runner.jobs` is the Runner's
/// `parallel_map` worker pool).
const LAYER_SPANS: [&str; 11] = [
    "scenario.validate",
    "topology.build",
    "workloads.prototype",
    "core.resolve",
    "plan.build",
    "workloads.at_rate",
    "core.mg1_eval",
    "core.nc_eval",
    "engine.run",
    "runner.jobs",
    "runner.sinks",
];

/// Per-layer metrics of one traced pass, in `BENCHMARK.json` order.
fn layer_metrics(tracer: &trace::Tracer, pass: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let self_ms = |name: &str| -> f64 {
        selfs
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.1)
            .sum::<u64>() as f64
            / 1e6
    };
    let root = spans
        .iter()
        .find(|s| s.name == "workload")
        .expect("root span");
    let wall_ns = (root.end - root.start) as f64;
    let covered = trace::union_len(
        spans
            .iter()
            .filter(|s| LAYER_SPANS.contains(&s.name))
            .map(|s| (s.start, s.end))
            .collect(),
    ) as f64;
    let busy_ms: f64 = LAYER_SPANS.iter().map(|n| self_ms(n)).sum();
    let core_ms = self_ms("core.resolve") + self_ms("core.mg1_eval") + self_ms("core.nc_eval");

    #[derive(Default)]
    struct Eng {
        ns: f64,
        flits: u64,
        cycles: u64,
        stepped: u64,
        events: u64,
        spans: u64,
        span_cycles: u64,
        failed_scans: u64,
        fixpoints: u64,
        backlog: usize,
        requests: u64,
    }
    let (mut open, mut closed) = (Eng::default(), Eng::default());
    for r in pass.results.iter().flatten() {
        for (p, sims) in r.points.iter().zip(&r.sims) {
            let s = &sims[0];
            let e = if s.closed_loop.is_some() {
                &mut closed
            } else {
                &mut open
            };
            e.ns += p.wall_ms * 1e6;
            e.flits += s.flit_moves;
            e.cycles += s.cycles;
            e.stepped += s.engine.simulated_cycles;
            e.events += s.engine.events_popped;
            e.spans += s.engine.spans_batched;
            e.span_cycles += s.engine.span_cycles;
            e.failed_scans += s.engine.span_scans_failed;
            e.fixpoints += s.engine.stall_fixpoints;
            e.backlog = e.backlog.max(s.peak_backlog);
            e.requests += s.closed_loop.as_ref().map_or(0, |c| c.requests_retired);
        }
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("topology.build_ms", self_ms("topology.build"), "ms"),
        (
            "workloads.destinations_ms",
            self_ms("workloads.prototype"),
            "ms",
        ),
        ("workloads.at_rate_ms", self_ms("workloads.at_rate"), "ms"),
        ("core.saturation_ms", self_ms("core.resolve"), "ms"),
        ("core.mg1_eval_ms", self_ms("core.mg1_eval"), "ms"),
        ("core.nc_eval_ms", self_ms("core.nc_eval"), "ms"),
        ("core.busy_share", ratio(core_ms, busy_ms), "ratio"),
        (
            "core.model_err_mc_pct",
            model_err_mc_pct(&pass.results),
            "%",
        ),
        ("plan.build_ms", self_ms("plan.build"), "ms"),
        ("engine.run_ms", self_ms("engine.run"), "ms"),
        (
            "engine.ns_per_flit_move",
            ratio(open.ns, open.flits as f64),
            "ns",
        ),
        (
            "engine.ns_per_stepped_cycle",
            ratio(open.ns, open.stepped as f64),
            "ns",
        ),
        (
            "engine.compression",
            ratio(open.cycles as f64, open.stepped as f64),
            "ratio",
        ),
        (
            "engine.stepped_frac",
            ratio(open.stepped as f64, open.cycles as f64),
            "ratio",
        ),
        ("engine.events_popped", open.events as f64, "count"),
        ("engine.spans_batched", open.spans as f64, "count"),
        ("engine.span_cycles", open.span_cycles as f64, "count"),
        (
            "engine.span_scans_failed",
            open.failed_scans as f64,
            "count",
        ),
        (
            "engine.span_yield",
            ratio(open.spans as f64, (open.spans + open.failed_scans) as f64),
            "ratio",
        ),
        ("engine.stall_fixpoints", open.fixpoints as f64, "count"),
        ("engine.peak_backlog", open.backlog as f64, "count"),
        (
            "app.ns_per_request",
            ratio(closed.ns, closed.requests as f64),
            "ns",
        ),
        (
            "app.ns_per_flit_move",
            ratio(closed.ns, closed.flits as f64),
            "ns",
        ),
        ("runner.sink_ms", self_ms("runner.sinks"), "ms"),
        ("trace.coverage", covered / wall_ns, "ratio"),
        ("trace.spans", spans.len() as f64, "count"),
    ]
}

fn run_traced(
    def: &WorkloadDef,
    opts: &Options,
    report: &mut Report,
    reference: &mut Reference,
) -> Result<(), String> {
    let threads = worker_threads();
    let runner = Runner::new().threads(threads).cache(None);
    let t0 = Instant::now();
    // Probes first: they measure destination-set memory on a fresh heap.
    let probes = pipeline::probes(def, opts.seed)?;
    let noop = trace::Tracer::noop();
    let mut per_pass: Vec<Vec<(&'static str, f64, &'static str)>> = Vec::new();
    let (mut trace_diff_ms, mut runner_diff_ms) = (Vec::new(), Vec::new());
    let mut firsts: Option<(Pass, Pass)> = None;
    let mut last_tracer = None;
    // Each round runs a traced pass, a direct pass (the same layer calls
    // with a no-op tracer) and a pass through `Runner::run`, the direct one
    // in the middle and the order reversed every other round, so that each
    // difference to the direct pass is taken between adjacent passes.
    while per_pass.len() < 2 || t0.elapsed().as_secs_f64() < opts.seconds {
        let tracer = trace::Tracer::default();
        let run = |kind| match kind {
            0 => pipeline::layer_pass(def, threads, &tracer),
            1 => pipeline::layer_pass(def, threads, &noop),
            _ => pipeline::untraced_pass(def, &runner),
        };
        let mut out: [Option<Pass>; 3] = Default::default();
        let order = if per_pass.len().is_multiple_of(2) {
            [0, 1, 2]
        } else {
            [2, 1, 0]
        };
        for kind in order {
            out[kind] = Some(run(kind));
        }
        let [t, d, u] = out.map(|p| p.expect("every pass kind ran"));
        per_pass.push(layer_metrics(&tracer, &t));
        last_tracer = Some(tracer);
        let [t_wall, d_wall, u_wall] =
            [&t, &d, &u].map(|p| absorb(def, p, reference, report).wall_s);
        trace_diff_ms.push((t_wall - d_wall) * 1e3);
        runner_diff_ms.push((u_wall - d_wall) * 1e3);
        firsts.get_or_insert((t, u));
    }
    let (first_traced, first_untraced) = firsts.expect("at least one pass");
    // The traced pipeline must reproduce the Runner's sinks exactly.
    for (sc, (t, u)) in def
        .scenarios
        .iter()
        .zip(first_traced.results.iter().zip(&first_untraced.results))
    {
        if let (Ok(t), Ok(u)) = (t, u) {
            if t.to_csv() != u.to_csv() {
                report.failed += 1;
                report.notes.push(format!(
                    "FAIL {}: traced table differs from Runner's",
                    sc.name
                ));
            }
        }
    }
    report.digests = first_digests(def, &first_untraced);

    let (eoc, oracle_jobs, diverged) = pipeline::event_over_cycle(def, 3)?;
    report.attempted += oracle_jobs;
    report.failed += diverged;
    if diverged > 0 {
        report.notes.push(format!(
            "FAIL {diverged} oracle jobs diverge between engines"
        ));
    }

    for (i, &(name, _, unit)) in per_pass[0].iter().enumerate() {
        report.push(
            name,
            median(per_pass.iter().map(|m| m[i].1).collect()),
            unit,
        );
    }
    let ratio = |a: f64, b: u64| if b > 0 { a / b as f64 } else { 0.0 };
    report.push(
        "workloads.destinations_rss_mib",
        probes.destinations_rss_mib,
        "MiB",
    );
    report.push("core.resolve_evals", probes.resolve_evals as f64, "count");
    report.push("plan.lazy", probes.lazy_plans as f64, "count");
    report.push(
        "plan.unicast_path_ns",
        ratio(probes.path_ns as f64, probes.path_calls),
        "ns",
    );
    report.push(
        "schedule.ns_per_arrival",
        ratio(probes.arrival_ns as f64, probes.arrivals),
        "ns",
    );
    report.push("engine.event_over_cycle", eoc, "ratio");
    for (name, diffs) in [
        ("runner.overhead_ms", &runner_diff_ms),
        ("trace.overhead_ms", &trace_diff_ms),
    ] {
        report.push(name, median(diffs.clone()), "ms");
        let mut sorted = diffs.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        report.notes.push(format!(
            "{name}: median of {} per-round differences to the direct pass, \
             quartiles {:.1} .. {:.1} ms, all {diffs:.1?}",
            diffs.len(),
            quantile(&sorted, 0.25),
            quantile(&sorted, 0.75),
        ));
    }
    report.notes.push(format!(
        "{} rounds of traced, direct and Runner passes; {} plans ({} lazy)",
        per_pass.len(),
        probes.plans,
        probes.lazy_plans
    ));

    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
        let spans = last_tracer.expect("at least one traced pass").to_json();
        std::fs::write(&path, spans).map_err(|e| e.to_string())?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(())
}
