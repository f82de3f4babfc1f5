//! Output checks: per-job failure rules and digests of simulated
//! statistics.
//!
//! A digest covers only simulated semantics (cycles, flit moves,
//! generated/absorbed counts, latency histograms, closed-loop counters),
//! never host timings or engine-mechanics counters, so a change that only
//! makes the program faster must leave every digest identical.

use noc_bench::{PointResult, Scenario};
use noc_sim::SimResults;
use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Digest of one job's simulated statistics.
pub fn job_digest(r: &SimResults) -> u64 {
    let mut h = FNV_OFFSET;
    for v in [
        r.cycles,
        r.flit_moves,
        r.total_generated,
        r.total_absorbed,
        r.unicast_injected,
        r.unicast_delivered,
        r.multicast_injected,
        r.multicast_delivered,
        r.saturated as u64,
        r.deadlocked as u64,
    ] {
        h = fnv(h, &v.to_le_bytes());
    }
    h = fnv(h, serde::json::to_string(&r.latency_hists).as_bytes());
    if let Some(cl) = &r.closed_loop {
        for v in [cl.requests_issued, cl.requests_retired, cl.quiesce_cycle] {
            h = fnv(h, &v.to_le_bytes());
        }
        h = fnv(h, serde::json::to_string(&cl.completion_hist).as_bytes());
    }
    h
}

/// Digest of a scenario: its jobs' digests in job order.
pub fn scenario_digest(sims: &[&SimResults]) -> u64 {
    sims.iter()
        .fold(FNV_OFFSET, |h, r| fnv(h, &job_digest(r).to_le_bytes()))
}

/// Why a job failed, if it did (the digest rule is applied per scenario by
/// the caller).
pub fn job_failure(point: &PointResult, res: &SimResults) -> Option<&'static str> {
    if res.deadlocked {
        return Some("deadlocked");
    }
    if let Some(cl) = &res.closed_loop {
        if !cl.quiesced {
            return Some("closed loop did not quiesce");
        }
    }
    let below = |bound: f64, sim: f64| bound.is_finite() && sim.is_finite() && bound < sim;
    if !point.sim_saturated
        && (below(point.bound_multicast, point.sim_multicast)
            || below(point.bound_unicast, point.sim_unicast))
    {
        return Some("calculus bound below the simulated mean");
    }
    None
}

/// Expected scenario digests (`name → hex digest`) recorded for one
/// workload at one size, from the baseline file; an error when the file
/// does not parse or records nothing for that workload and size.
pub fn recorded_digests(
    baseline: &str,
    workload: &str,
    size: &str,
) -> Result<BTreeMap<String, String>, String> {
    let v = serde::json::parse(baseline).map_err(|e| format!("baseline.json: {e}"))?;
    match v
        .get("digests")
        .and_then(|d| d.get(size))
        .and_then(|d| d.get(workload))
    {
        Some(serde::Value::Map(entries)) => Ok(entries
            .iter()
            .filter_map(|(k, v)| match v {
                serde::Value::Str(s) => Some((k.clone(), s.clone())),
                _ => None,
            })
            .collect()),
        _ => Err(format!(
            "baseline.json records no {size} digests for {workload}"
        )),
    }
}

/// The digest each scenario of a run must reproduce. A scenario seeded
/// with [`DEFAULT_SEED`](crate::DEFAULT_SEED) must match the digest the
/// baseline file records for it, and a missing or unreadable record is a
/// failure; any other scenario must match its own first pass.
pub struct Reference {
    recorded: Result<BTreeMap<String, String>, String>,
    seen: BTreeMap<String, String>,
}

impl Reference {
    /// Reference for one workload at one size.
    pub fn new(workload: &str, size: &str) -> Self {
        Reference {
            recorded: recorded_digests(crate::BASELINE, workload, size),
            seen: BTreeMap::new(),
        }
    }

    /// Check `digest` of scenario `sc`; `Err` says why it fails.
    pub fn check(&mut self, sc: &Scenario, digest: &str) -> Result<(), String> {
        let expected = if sc.seed == crate::DEFAULT_SEED {
            let recorded = self.recorded.as_ref().map_err(Clone::clone)?;
            recorded
                .get(&sc.name)
                .ok_or_else(|| format!("no digest recorded for seed {}", sc.seed))?
        } else {
            self.seen
                .entry(sc.name.clone())
                .or_insert_with(|| digest.to_string())
        };
        if expected == digest {
            Ok(())
        } else {
            Err(format!("digest {digest} differs from {expected}"))
        }
    }
}

/// Hex form used in the baseline file.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Jobs a scenario contributes when it fails before any job ran.
pub fn planned_jobs(sc: &Scenario) -> u64 {
    sc.sweep.num_points() as u64 * sc.replicates as u64
}
