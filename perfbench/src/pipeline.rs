//! The measured passes: untraced passes through `Runner::run`, traced
//! passes that call each layer's public functions one at a time, the
//! set-up timing, and the probes that time single layer operations.

use crate::trace::Tracer;
use crate::workloads::WorkloadDef;
use noc_bench::{PointResult, Runner, Scenario, ScenarioResult};
use noc_sim::{
    build_engine_with_plan, ArrivalStream, EngineKind, LogHistogram, SimPlan, SimResults,
};
use noc_topology::{NodeId, Topology};
use noc_workloads::{parallel_map, Workload};
use quarc_core::{
    BackendSpec, ModelBackend, ModelError, ModelOptions, NetworkCalculusBackend, Prediction,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Relative tolerance of the saturation bisection inside
/// `SweepSpec::resolve`; the eval-counting probe repeats that search.
const SATURATION_TOL: f64 = 0.01;

/// Outcome of running one scenario.
pub type ScenarioOutcome = Result<ScenarioResult, String>;

/// One pass over a workload.
pub struct Pass {
    /// Wall time of the whole pass, sinks included.
    pub wall_s: f64,
    /// One outcome per scenario, in workload order.
    pub results: Vec<ScenarioOutcome>,
}

/// Render every sink the Runner offers, returning the total length so
/// the work cannot be optimised away.
fn sinks(r: &ScenarioResult) -> usize {
    r.table().to_aligned().len()
        + r.to_csv().len()
        + r.to_json().len()
        + r.quantiles_table().to_csv().len()
        + r.engine_table().to_csv().len()
}

/// One untraced pass: every scenario through `Runner::run`, then the sinks.
pub fn untraced_pass(def: &WorkloadDef, runner: &Runner) -> Pass {
    let t0 = Instant::now();
    let mut results = Vec::with_capacity(def.scenarios.len());
    for sc in &def.scenarios {
        let r = runner.run(sc);
        if let Ok(r) = &r {
            black_box(sinks(r));
        }
        results.push(r.map_err(|e| e.to_string()));
    }
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        results,
    }
}

/// Everything `Runner::run` does before its first engine run: validate,
/// topology build, destination sets, sweep resolution and plan build.
/// Returns the elapsed seconds.
pub fn setup_once(def: &WorkloadDef) -> Result<f64, String> {
    let t0 = Instant::now();
    for sc in &def.scenarios {
        sc.validate().map_err(|e| e.to_string())?;
        let (topo, proto) = sc.materialize().map_err(|e| e.to_string())?;
        if sc.workload.closed_loop.is_none() {
            let sweep = sc
                .sweep
                .resolve(topo.as_ref(), &proto, sc.model.unwrap_or_default())
                .map_err(|e| e.to_string())?;
            black_box(sweep);
        }
        black_box(SimPlan::build(topo.as_ref(), &proto).map_err(|e| e.to_string())?);
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Current value of a `/proc/self/status` memory line in MiB (0 where
/// unavailable).
pub fn proc_status_mib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One pass that calls each layer's public functions in turn, inside
/// spans of `tr`; with [`Tracer::noop`] it is the direct, untraced form of
/// the same calls.
pub fn layer_pass(def: &WorkloadDef, threads: usize, tr: &Tracer) -> Pass {
    let t0 = Instant::now();
    let mut results = Vec::with_capacity(def.scenarios.len());
    tr.span("workload", 0, None, |root| {
        for (si, sc) in def.scenarios.iter().enumerate() {
            let r = tr.span("scenario", root, None, |sid| {
                traced_scenario(sc, si, threads, tr, sid)
            });
            results.push(r);
        }
    });
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        results,
    }
}

fn model_span_name(backend: &dyn ModelBackend) -> &'static str {
    match backend.code() {
        "mg1" => "core.mg1_eval",
        _ => "core.nc_eval",
    }
}

/// The Runner's pipeline for one scenario, one layer call per span. The
/// result is assembled exactly as `Runner::run` assembles a one-replicate
/// scenario, so its sinks can be compared with the untraced run's.
fn traced_scenario(
    sc: &Scenario,
    si: usize,
    threads: usize,
    tr: &Tracer,
    sid: u32,
) -> ScenarioOutcome {
    assert_eq!(sc.replicates, 1, "benchmark scenarios run one replicate");
    tr.span("scenario.validate", sid, None, |_| sc.validate())
        .map_err(|e| e.to_string())?;
    let topo = tr
        .span("topology.build", sid, None, |_| sc.topology.build())
        .map_err(|e| e.to_string())?;
    let proto = tr
        .span("workloads.prototype", sid, None, |_| {
            sc.workload.prototype(topo.as_ref(), sc.seed)
        })
        .map_err(|e| e.to_string())?;
    let model_opts = sc.model.unwrap_or_default();
    let closed = sc.workload.closed_loop;
    let rates: Vec<f64> = if closed.is_some() {
        vec![0.0]
    } else {
        tr.span("core.resolve", sid, None, |_| {
            sc.sweep.resolve(topo.as_ref(), &proto, model_opts)
        })
        .map_err(|e| e.to_string())?
        .rates()
        .to_vec()
    };
    let plan = tr
        .span("plan.build", sid, None, |_| {
            SimPlan::build(topo.as_ref(), &proto)
        })
        .map_err(|e| e.to_string())?;

    let jobs: Vec<(u32, f64)> = rates
        .iter()
        .enumerate()
        .map(|(i, &r)| ((si * 1000 + i) as u32, r))
        .collect();
    type JobOut = ((f64, f64), (f64, f64), SimResults, f64);
    let samples: Vec<Result<JobOut, String>> = tr.span("runner.jobs", sid, None, |jobs_id| {
        parallel_map(&jobs, threads, |&(job, rate)| {
            tr.span("job", jobs_id, Some(job), |jid| {
                let wl = tr
                    .span("workloads.at_rate", jid, Some(job), |_| proto.at_rate(rate))
                    .map_err(|e| e.to_string())?;
                let nan2 = (f64::NAN, f64::NAN);
                let (model, bound) = match sc.model {
                    Some(mo) if closed.is_none() => {
                        let eval = |b: &dyn ModelBackend| {
                            tr.span(model_span_name(b), jid, Some(job), |_| {
                                match b.evaluate(topo.as_ref(), &wl, &mo) {
                                    Ok(p) => (p.unicast_latency, p.multicast_latency),
                                    Err(_) => nan2,
                                }
                            })
                        };
                        let model = eval(mo.backend.backend());
                        let bound = if mo.backend == BackendSpec::NetworkCalculus {
                            model
                        } else {
                            eval(&NetworkCalculusBackend)
                        };
                        (model, bound)
                    }
                    _ => (nan2, nan2),
                };
                let mut cfg = sc.sim;
                cfg.seed = sc.seed;
                let t = Instant::now();
                let res = tr.span("engine.run", jid, Some(job), |_| {
                    let mut engine =
                        build_engine_with_plan(topo.as_ref(), &wl, cfg, Arc::clone(&plan));
                    if let Some(spec) = &closed {
                        engine.install_closed_loop(spec, cfg.seed);
                    }
                    engine.run()
                });
                Ok((model, bound, res, t.elapsed().as_secs_f64() * 1e3))
            })
        })
    });

    let model_applicable = closed.is_none()
        && model_opts
            .backend
            .backend()
            .applicable(topo.as_ref(), &proto);
    let mut points = Vec::with_capacity(rates.len());
    let mut sims = Vec::with_capacity(rates.len());
    for (rate, s) in rates.iter().zip(samples) {
        let (model, bound, res, wall_ms) = s?;
        let mut hist = LogHistogram::new();
        match &res.closed_loop {
            Some(cl) => hist.merge(&cl.completion_hist),
            None => hist.merge(&res.latency_hists.multicast),
        }
        points.push(PointResult {
            rate: *rate,
            model_unicast: model.0,
            model_multicast: model.1,
            bound_unicast: bound.0,
            bound_multicast: bound.1,
            model_applicable,
            sim_unicast: res.unicast.mean,
            sim_multicast: res.multicast.mean,
            sim_multicast_ci: res.multicast.ci95,
            sim_p50: hist.p50(),
            sim_p95: hist.p95(),
            sim_p99: hist.p99(),
            cache_hits: 0,
            cache_misses: 1,
            wall_ms,
            sim_saturated: res.saturated,
        });
        sims.push(vec![res]);
    }
    let result = ScenarioResult {
        scenario: sc.clone(),
        points,
        sims,
    };
    tr.span("runner.sinks", sid, None, |_| black_box(sinks(&result)));
    Ok(result)
}

/// A [`ModelBackend`] that counts `evaluate` calls of the backend it
/// wraps; used to count the evaluations a saturation search makes.
struct Counting<'a> {
    inner: &'a dyn ModelBackend,
    calls: AtomicU64,
}

impl ModelBackend for Counting<'_> {
    fn code(&self) -> &'static str {
        self.inner.code()
    }

    fn applicable(&self, topo: &dyn Topology, wl: &Workload) -> bool {
        self.inner.applicable(topo, wl)
    }

    fn evaluate(
        &self,
        topo: &dyn Topology,
        wl: &Workload,
        opts: &ModelOptions,
    ) -> Result<Prediction, ModelError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(topo, wl, opts)
    }
}

/// Single-layer operation costs, measured outside the timed passes.
#[derive(Default)]
pub struct Probes {
    /// Model evaluations the saturation searches of all scenarios make.
    pub resolve_evals: u64,
    /// Plans built lazily (implicit topologies).
    pub lazy_plans: u64,
    /// Plans built.
    pub plans: u64,
    /// `SimPlan::unicast_path` calls timed.
    pub path_calls: u64,
    /// Total nanoseconds of those calls.
    pub path_ns: u64,
    /// Arrivals drawn from `ArrivalStream`s.
    pub arrivals: u64,
    /// Total nanoseconds of those draws.
    pub arrival_ns: u64,
    /// Largest resident-memory growth across one destination-set build,
    /// MiB.
    pub destinations_rss_mib: f64,
}

const PATH_CALLS: u64 = 20_000;
const ARRIVALS: u64 = 20_000;

/// Time `SimPlan::unicast_path`, `ArrivalStream` draws and count the
/// saturation search's evaluations, for every scenario of the workload.
/// Every prototype stays alive until the end, so the memory growth of
/// each destination-set build is not hidden by reuse of freed memory.
pub fn probes(def: &WorkloadDef, seed: u64) -> Result<Probes, String> {
    let mut p = Probes::default();
    let mut alive = Vec::with_capacity(def.scenarios.len());
    for sc in &def.scenarios {
        let topo = sc.topology.build().map_err(|e| e.to_string())?;
        let before = proc_status_mib("VmRSS:");
        let proto = sc
            .workload
            .prototype(topo.as_ref(), sc.seed)
            .map_err(|e| e.to_string())?;
        p.destinations_rss_mib = p
            .destinations_rss_mib
            .max(proc_status_mib("VmRSS:") - before);
        let n = topo.num_nodes();
        let plan = SimPlan::build(topo.as_ref(), &proto).map_err(|e| e.to_string())?;
        p.plans += 1;
        p.lazy_plans += plan.is_lazy() as u64;
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let pairs: Vec<(NodeId, NodeId)> = (0..PATH_CALLS)
            .map(|_| {
                let s = (next() % n as u64) as usize;
                let d = (s + 1 + (next() % (n as u64 - 1)) as usize) % n;
                (NodeId(s as u32), NodeId(d as u32))
            })
            .collect();
        let t = Instant::now();
        for &(s, d) in &pairs {
            black_box(plan.unicast_path(s, d));
        }
        p.path_ns += t.elapsed().as_nanos() as u64;
        p.path_calls += PATH_CALLS;

        if sc.workload.closed_loop.is_some() {
            alive.push(proto);
            continue;
        }
        let opts = sc.model.unwrap_or_default();
        let rates = sc
            .sweep
            .resolve(topo.as_ref(), &proto, opts)
            .map_err(|e| e.to_string())?;
        if matches!(
            sc.sweep,
            noc_bench::SweepSpec::SaturationSpan { .. }
                | noc_bench::SweepSpec::SaturationFractions { .. }
        ) {
            let anchor = if opts.backend.backend().applicable(topo.as_ref(), &proto) {
                opts.backend
            } else {
                BackendSpec::NetworkCalculus
            };
            let counting = Counting {
                inner: anchor.backend(),
                calls: AtomicU64::new(0),
            };
            black_box(counting.max_sustainable_rate(topo.as_ref(), &proto, &opts, SATURATION_TOL));
            p.resolve_evals += counting.calls.load(Ordering::Relaxed);
        }
        let wl = proto.at_rate(rates.rates()[0]).map_err(|e| e.to_string())?;
        let (count, ns) = time_arrivals(&wl, n, seed);
        p.arrivals += count;
        p.arrival_ns += ns;
        alive.push(proto);
    }
    Ok(p)
}

/// Draw up to [`ARRIVALS`] arrivals round-robin over the nodes' streams.
fn time_arrivals(wl: &Workload, n: usize, seed: u64) -> (u64, u64) {
    let mut streams = ArrivalStream::build_all(wl, n, seed);
    let t = Instant::now();
    let mut drawn = 0;
    let mut node = 0;
    'draw: while drawn < ARRIVALS {
        let mut hops = 0;
        while streams[node].next_arrival() == u64::MAX {
            node = (node + 1) % n;
            hops += 1;
            if hops > n {
                break 'draw;
            }
        }
        black_box(streams[node].pop(wl, n, NodeId(node as u32)));
        drawn += 1;
        node = (node + 1) % n;
    }
    (drawn, t.elapsed().as_nanos() as u64)
}

/// Event-over-cycle wall-time ratio on the workload's oracle jobs,
/// measured as `perf-smoke` measures it: one warm-up run per engine, then
/// `pairs` back-to-back pairs in alternating order, and the median of the
/// per-pair ratios. Also returns the number of oracle jobs and how many of
/// them produced different simulated statistics on the two engines.
pub fn event_over_cycle(def: &WorkloadDef, pairs: usize) -> Result<(f64, u64, u64), String> {
    let mut ratios = Vec::new();
    let mut diverged = 0;
    for &(si, ri) in &def.oracle_jobs {
        let sc = &def.scenarios[si];
        let (topo, proto) = sc.materialize().map_err(|e| e.to_string())?;
        let rates = sc
            .sweep
            .resolve(topo.as_ref(), &proto, sc.model.unwrap_or_default())
            .map_err(|e| e.to_string())?;
        let rate = *rates
            .rates()
            .get(ri)
            .ok_or_else(|| format!("oracle job {si}/{ri} is outside the sweep"))?;
        let wl = proto.at_rate(rate).map_err(|e| e.to_string())?;
        let plan = SimPlan::build(topo.as_ref(), &wl).map_err(|e| e.to_string())?;
        let run = |kind: EngineKind| {
            let mut cfg = sc.sim.with_engine(kind);
            cfg.seed = sc.seed;
            let t = Instant::now();
            let res = build_engine_with_plan(topo.as_ref(), &wl, cfg, Arc::clone(&plan)).run();
            (res, t.elapsed().as_nanos() as f64)
        };
        let (cycle_res, _) = run(EngineKind::Cycle);
        let (event_res, _) = run(EngineKind::EventDriven);
        diverged +=
            (crate::check::job_digest(&cycle_res) != crate::check::job_digest(&event_res)) as u64;
        for i in 0..pairs {
            let (c, e) = if i % 2 == 0 {
                let c = run(EngineKind::Cycle).1;
                (c, run(EngineKind::EventDriven).1)
            } else {
                let e = run(EngineKind::EventDriven).1;
                (run(EngineKind::Cycle).1, e)
            };
            ratios.push(e / c.max(1.0));
        }
    }
    ratios.sort_unstable_by(f64::total_cmp);
    Ok((
        ratios[ratios.len() / 2],
        def.oracle_jobs.len() as u64,
        diverged,
    ))
}
