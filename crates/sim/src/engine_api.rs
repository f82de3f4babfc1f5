//! The engine abstraction: one simulation contract, two time-advance
//! policies.
//!
//! [`SimEngine`] is the interface the rest of the workspace programs
//! against — the harness, the figure binaries and the timing tests all
//! accept `dyn SimEngine`. Both implementations are the same
//! [`Kernel`](crate::Kernel) under a different time-advance policy: the
//! stepping oracle ([`crate::Simulator`]) advances every cycle, the
//! event-driven engine ([`crate::EventSimulator`]) skips inert cycles
//! and batches streaming spans. [`build_engine`] dispatches on
//! [`crate::config::EngineKind`].
//!
//! The two policies promise *bit-identical* runs under the same seed:
//! identical delivered counts, identical latency samples in identical
//! order, identical cycle counts. `tests/engine_equivalence.rs` enforces
//! the promise differentially; [`SimEngine::audit`] exposes the structural
//! invariants (ownership consistency, conservation counters) that the
//! property tests check on both.

use crate::config::{EngineKind, SimConfig};
use crate::engine::{EventSimulator, Simulator};
use crate::message::MsgId;
use crate::plan::SimPlan;
use crate::results::SimResults;
use noc_app::ClosedLoopSpec;
use noc_topology::{NodeId, Topology};
use noc_workloads::Workload;
use std::sync::Arc;

/// A flit-level wormhole simulation engine.
///
/// Implementations must agree cycle-for-cycle: every method here has the
/// exact semantics documented on [`crate::Kernel`].
pub trait SimEngine {
    /// Run to completion and produce results.
    fn run(&mut self) -> SimResults;

    /// Advance exactly one cycle without tagging or measuring (testing
    /// hook for cycle-precise assertions).
    fn step_one(&mut self);

    /// Current simulated cycle.
    fn now(&self) -> u64;

    /// Is the message still in the network (queued or in flight)?
    fn message_in_flight(&self, id: MsgId) -> bool;

    /// Scripted-injection hook: enqueue a unicast `src → dst` *now*,
    /// eligible for injection next cycle.
    fn inject_unicast_now(&mut self, src: NodeId, dst: NodeId) -> MsgId;

    /// Scripted-injection hook: start `src`'s configured multicast
    /// operation *now*; returns the ids of its port-stream messages.
    fn inject_multicast_now(&mut self, src: NodeId) -> Vec<MsgId>;

    /// Inject a single unicast on an idle network and return its latency.
    /// Must be called on a simulator with a zero-rate workload.
    fn measure_isolated_unicast(&mut self, src: NodeId, dst: NodeId) -> u64;

    /// Inject a single multicast operation on an idle network and return
    /// the operation latency (generation until the last target absorbs).
    fn measure_isolated_multicast(&mut self, src: NodeId) -> u64;

    /// Structural self-check: ownership consistency plus the conservation
    /// counters. `Err` describes the first violated invariant.
    fn audit(&self) -> Result<EngineAudit, String>;

    /// Install a closed-loop protocol: [`SimEngine::run`] is then driven
    /// by the spec's per-node machines instead of open-loop arrivals,
    /// ends at protocol quiescence, and stamps
    /// [`SimResults::closed_loop`](crate::results::SimResults::closed_loop).
    ///
    /// # Panics
    ///
    /// Panics if any cycle has already been simulated or the workload's
    /// generation rate is non-zero (the protocol must be the only
    /// traffic source).
    fn install_closed_loop(&mut self, spec: &ClosedLoopSpec, master_seed: u64);

    /// Step until `id` completes, returning the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if the message does not complete within 1M cycles (deadlock
    /// or a forgotten zero-length path — both are bugs).
    fn run_until_complete(&mut self, id: MsgId) -> u64;
}

/// Snapshot of an engine's structural counters, produced by
/// [`SimEngine::audit`] after the per-resource consistency checks pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineAudit {
    /// Current simulated cycle.
    pub cycle: u64,
    /// Messages allocated and not yet absorbed (queued or in flight).
    pub live_messages: u64,
    /// Messages waiting at injection channels (the backlog).
    pub queued_messages: u64,
    /// Cv resources currently owned by a message.
    pub owned_cvs: u64,
    /// Multicast operations allocated and not yet completed.
    pub live_ops: u64,
    /// Multicast operations allocated since the start of the run.
    pub ops_allocated: u64,
    /// Multicast operations whose `remaining` reached zero (each op must
    /// complete exactly once: `ops_allocated == ops_completed + live_ops`).
    pub ops_completed: u64,
    /// Messages generated (all classes, tagged or not).
    pub total_generated: u64,
    /// Messages fully absorbed by sinks.
    pub total_absorbed: u64,
    /// Tagged traffic still outstanding.
    pub tagged_outstanding: u64,
}

/// Build the engine selected by `cfg.engine`.
///
/// Returns a typed [`PlanError`](crate::plan::PlanError) when the
/// workload does not fit the topology, instead of panicking.
pub fn build_engine<'a>(
    topo: &'a dyn Topology,
    wl: &'a Workload,
    cfg: SimConfig,
) -> Result<Box<dyn SimEngine + 'a>, crate::plan::PlanError> {
    Ok(build_engine_with_plan(
        topo,
        wl,
        cfg,
        SimPlan::build(topo, wl)?,
    ))
}

/// Build the engine selected by `cfg.engine` on a prebuilt [`SimPlan`]
/// (rate sweeps and differential pairs share one plan across runs).
pub fn build_engine_with_plan<'a>(
    topo: &'a dyn Topology,
    wl: &'a Workload,
    cfg: SimConfig,
    plan: Arc<SimPlan>,
) -> Box<dyn SimEngine + 'a> {
    match cfg.engine {
        EngineKind::Cycle => Box::new(Simulator::with_plan(topo, wl, cfg, plan)),
        EngineKind::EventDriven => Box::new(EventSimulator::with_plan(topo, wl, cfg, plan)),
    }
}
