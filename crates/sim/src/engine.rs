//! The flit-level wormhole kernel: one implementation of the cycle, two
//! time-advance policies.
//!
//! See the crate-level documentation for the node model and timing
//! conventions. The kernel state is a flat set of *channel virtual-channel*
//! (cv) resources; each cv is either free or owned by one message at one
//! hop of its path, with a FIFO list of waiting headers — the
//! non-preemptive FIFO arbitration of the paper's simulator (§4).
//!
//! A simulated cycle runs four phases:
//!
//! 1. **Generation** — every event due this cycle pops off the kernel's
//!    queue in node order: an open-loop arrival ([`ArrivalStream`], built
//!    from the workload's traffic spec — Poisson by default) spawns a
//!    unicast (path from the precomputed table) or a multicast operation
//!    (one stream per active injection port), a closed-loop timer wakes
//!    its protocol machine. New messages join the injection channel's
//!    waiter queue (the "passive queue" in creation-time order).
//! 2. **Selection** — each active physical channel picks at most one of its
//!    cvs (round-robin) whose owner can move a flit, judged against the
//!    *previous* cycle's counters (one-cycle credit loop).
//! 3. **Application** — chosen flits traverse; headers entering a buffer
//!    request the next channel; tails leaving a buffer release channels and
//!    trigger absorptions (clone-to-sink at multicast targets, completion
//!    at ejection). Closed-loop deliveries are dispatched right after.
//! 4. **Grants** — released or newly requested free cvs are granted to the
//!    FIFO head of their waiter queues.
//!
//! What differs between the two time-advance policies is only *which*
//! cycles run those phases. The policy is read from
//! [`SimConfig::engine`] when the engine is built ([`build_engine`],
//! [`build_engine_with_plan`]) and never changes afterwards:
//!
//! * [`EngineKind::Cycle`] — the reference oracle: advances to
//!   `cycle + 1`, every cycle, and never batches.
//! * [`EngineKind::EventDriven`] (the default) — jumps over provably
//!   inert cycles and batches streaming spans; the policy and the
//!   argument that it preserves every observable live in
//!   `event_engine.rs`.
//!
//! Because both run the same phases on the same state, the differential
//! suite (`tests/engine_equivalence.rs`) tests exactly the time-advance
//! decision: skip versus step by one. The engine is not generic, so one
//! compiled copy of the phases serves both policies ([`Engine::run`]
//! branches on the policy once per simulated cycle): a kernel generic over
//! the policy, instantiated for both in one crate, ran the skip policy
//! measurably slower.

use crate::arena::Arena;
use crate::closed_loop::{Action, ClosedDelivery, ClosedLoopDriver};
use crate::config::{EngineKind, SimConfig};
use crate::message::{ActiveMsg, CvState, MsgId, MulticastOp, OpId};
use crate::metrics::Metrics;
use crate::plan::{PlanError, SimPlan};
use crate::results::{EngineCounters, SimResults};
use crate::schedule::{Arrival, ArrivalStream, EventQueue};
use noc_app::{AppEvent, ClosedLoopSpec, NetEnv};
use noc_topology::{ChannelKind, NodeId, Topology};
use noc_workloads::Workload;
use std::collections::HashSet;
use std::sync::Arc;

/// Deadlock watchdog: checked on multiples of `WATCHDOG_STRIDE`, firing
/// after `WATCHDOG_WINDOW` move-free cycles with channels still held.
/// With the dateline virtual channels it must never trigger; it exists to
/// catch regressions in the deadlock-avoidance schemes.
pub(crate) const WATCHDOG_STRIDE: u64 = 1024;
pub(crate) const WATCHDOG_WINDOW: u64 = 10_000;

/// A flit-level wormhole simulation engine: all simulation state and the
/// one implementation of the cycle, under the time-advance policy that
/// [`SimConfig::engine`] selected when it was built. Runs of the two
/// policies are bit-identical under a shared seed.
///
/// Borrowing the topology and workload keeps runs cheap to set up inside
/// parameter sweeps; the precomputed [`SimPlan`] can additionally be
/// shared across runs and between the two policies.
pub struct Engine<'a> {
    /// Time-advance policy, fixed at construction from `cfg.engine`: skip
    /// inert cycles and batch streaming spans (`true`), or step every
    /// cycle (`false`).
    skip: bool,
    topo: &'a dyn Topology,
    wl: &'a Workload,
    pub(crate) cfg: SimConfig,
    pub(crate) plan: Arc<SimPlan>,

    // --- dynamic state ---
    pub(crate) cycle: u64,
    pub(crate) cvs: Vec<CvState>,
    /// Round-robin pointer per physical channel.
    rr: Vec<u8>,
    /// Physical channels with at least one owned cv.
    pub(crate) active: Vec<u32>,
    active_flag: Vec<bool>,
    /// Owned-cv count per physical channel, maintained on grant/release
    /// (the streaming scan's single-ownership test; audited).
    pub(crate) owned_count: Vec<u8>,
    /// Live messages in a generation-tagged slab (ids stay `u32`, so cv
    /// owners/waiters are plain integers; stale ids panic with the
    /// violated invariant by name).
    pub(crate) msgs: Arena<ActiveMsg>,
    /// Live multicast operations, same layout.
    ops: Arena<MulticastOp>,
    ops_allocated: u64,
    ops_completed: u64,
    /// Messages waiting at injection channels (backlog).
    inj_backlog: usize,
    peak_backlog: usize,
    /// Tagged traffic still in flight.
    pub(crate) tagged_outstanding: u64,
    /// Last cycle on which any flit moved (deadlock watchdog).
    pub(crate) last_move_cycle: u64,

    // --- event scheduling ---
    /// Per-node arrival streams (traffic-spec driven; Poisson default).
    arrivals: Vec<ArrivalStream>,
    /// Min-queue of `(cycle, node)`: the next arrival of every open-loop
    /// source, or the pending protocol timers of a closed-loop run.
    /// Same-cycle entries pop in node order.
    pub(crate) queue: EventQueue,
    /// The last simulated cycle moved no flit and granted no owner: the
    /// state is a fixpoint until the next event (see `event_engine.rs`).
    pub(crate) stalled: bool,
    /// Consecutive failed streaming-scan attempts (skip policy only).
    pub(crate) span_fail_streak: u32,
    /// Eligible cycles left before the next streaming-scan attempt.
    pub(crate) span_cooldown: u32,
    /// Work counters surfaced through
    /// [`SimResults::engine`](crate::results::SimResults::engine).
    pub(crate) counters: EngineCounters,

    // --- scratch (reused across cycles) ---
    /// The cycle's move set; kept after `apply_moves` for the streaming
    /// scan (selection clears it).
    pub(crate) moves: Vec<(MsgId, u16)>,
    /// Per-cv "moved this cycle" marks, set and cleared by the streaming
    /// scan only.
    pub(crate) cv_moved: Vec<bool>,
    /// Per-channel "moved this cycle" marks, same lifetime.
    pub(crate) channel_moved: Vec<bool>,
    regrant: Vec<u32>,

    // --- closed-loop protocol drive (None on open-loop runs) ---
    closed: Option<ClosedLoopDriver>,
    /// Absorptions recorded by `apply_moves` for post-phase dispatch.
    arrived: Vec<ClosedDelivery>,
    /// Pending protocol actions (injections, timers).
    actions: Vec<Action>,

    // --- statistics ---
    pub(crate) metrics: Metrics,
}

/// Snapshot of an engine's structural counters, produced by
/// [`Engine::audit`] after the per-resource consistency checks pass.
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

/// Build the engine for `topo` under `wl`, with the time-advance policy
/// selected by `cfg.engine`.
///
/// Returns a typed [`PlanError`] when the workload does not fit the
/// topology, instead of panicking.
///
/// # Panics
///
/// Panics if the configuration is invalid ([`SimConfig::validate`]).
pub fn build_engine<'a>(
    topo: &'a dyn Topology,
    wl: &'a Workload,
    cfg: SimConfig,
) -> Result<Engine<'a>, PlanError> {
    Ok(build_engine_with_plan(
        topo,
        wl,
        cfg,
        SimPlan::build(topo, wl)?,
    ))
}

/// Build the engine selected by `cfg.engine` on a prebuilt [`SimPlan`]
/// (rate sweeps and differential pairs share one plan across runs).
///
/// # Panics
///
/// Panics if the configuration is invalid or `plan` was built for another
/// topology or workload.
pub fn build_engine_with_plan<'a>(
    topo: &'a dyn Topology,
    wl: &'a Workload,
    cfg: SimConfig,
    plan: Arc<SimPlan>,
) -> Engine<'a> {
    cfg.validate().expect("invalid simulator configuration");
    plan.assert_matches(topo, wl);
    let arrivals = ArrivalStream::build_all(wl, plan.n, cfg.seed);
    let mut queue = EventQueue::with_capacity(plan.n);
    for (node, stream) in arrivals.iter().enumerate() {
        if stream.next_arrival() != u64::MAX {
            queue.push(stream.next_arrival(), node as u32);
        }
    }
    let channels = plan.num_channels;
    let metrics = Metrics::new(&cfg, plan.n, channels, !plan.is_lazy());
    Engine {
        skip: cfg.engine == EngineKind::EventDriven,
        topo,
        wl,
        cfg,
        cycle: 0,
        cvs: vec![CvState::default(); plan.num_cvs],
        rr: vec![0; channels],
        active: Vec::with_capacity(channels),
        active_flag: vec![false; channels],
        owned_count: vec![0; channels],
        msgs: Arena::with_capacity(plan.spawn_wave_hint()),
        ops: Arena::with_capacity(plan.num_nodes()),
        ops_allocated: 0,
        ops_completed: 0,
        inj_backlog: 0,
        peak_backlog: 0,
        tagged_outstanding: 0,
        last_move_cycle: 0,
        arrivals,
        queue,
        stalled: false,
        span_fail_streak: 0,
        span_cooldown: 0,
        counters: EngineCounters::default(),
        moves: Vec::new(),
        cv_moved: vec![false; plan.num_cvs],
        channel_moved: vec![false; channels],
        regrant: Vec::new(),
        closed: None,
        arrived: Vec::new(),
        actions: Vec::new(),
        metrics,
        plan,
    }
}

impl<'a> Engine<'a> {
    /// Install a closed-loop protocol: the run is then driven by the
    /// per-node machines instead of the open-loop arrival streams, and
    /// the event queue carries the protocol's timers.
    ///
    /// Must be called before any cycle is simulated, on a zero-rate
    /// workload (the protocol is the only traffic source).
    pub fn install_closed_loop(&mut self, spec: &ClosedLoopSpec, master_seed: u64) {
        assert_eq!(self.cycle, 0, "closed-loop install after the run started");
        assert!(
            self.queue.is_empty(),
            "closed-loop runs require a zero-rate workload"
        );
        let env = NetEnv {
            n: self.plan.n,
            fanout: self.plan.fanout_table(),
        };
        // Closed-loop runs measure every cycle from cycle 1.
        self.metrics.set_measure_origin(0);
        self.closed = Some(ClosedLoopDriver::new(spec.build(&env, master_seed)));
    }

    #[inline]
    fn cv_index(&self, hop: noc_topology::Hop) -> u32 {
        self.plan.cv_index(hop)
    }

    fn alloc_op(&mut self, op: MulticastOp) -> OpId {
        self.ops_allocated += 1;
        self.ops.insert(op)
    }

    fn activate(&mut self, channel: usize) {
        if !self.active_flag[channel] {
            self.active_flag[channel] = true;
            self.active.push(channel as u32);
        }
    }

    /// Enqueue a freshly generated message at the head channel of its
    /// path (`node` = the injecting source, for the trace).
    fn enqueue(&mut self, id: MsgId, node: u32) {
        let hop0 = self.msgs.get(id, "freshly enqueued message").path.hops[0];
        let cv = self.cv_index(hop0) as usize;
        self.cvs[cv].waiters.push_back((id, 0));
        self.inj_backlog += 1;
        self.peak_backlog = self.peak_backlog.max(self.inj_backlog);
        self.regrant.push(cv as u32);
        self.metrics.trace_inject(self.cycle, node);
    }

    /// Generate and enqueue a unicast `src → dst` this cycle; `tagged`
    /// messages join the measured population.
    fn spawn_unicast(&mut self, src: NodeId, dst: NodeId, tagged: bool) -> MsgId {
        let path = self.plan.unicast_path(src, dst);
        let id = self.msgs.insert(ActiveMsg::unicast(
            path,
            self.wl.msg_len,
            self.cycle,
            tagged,
        ));
        if tagged {
            self.metrics.unicast_injected += 1;
            self.tagged_outstanding += 1;
        }
        self.metrics.total_generated += 1;
        self.enqueue(id, src.0);
        id
    }

    /// Start `src`'s multicast operation this cycle: one message per
    /// port stream, each reported to `on_stream` after it is enqueued.
    fn spawn_multicast(
        &mut self,
        src: NodeId,
        tagged: bool,
        mut on_stream: impl FnMut(MsgId),
    ) -> OpId {
        let node = src.idx();
        let gen = self.cycle;
        let op = self.alloc_op(MulticastOp {
            src,
            gen,
            remaining: self.plan.op_targets(node),
            last_absorb: gen,
            tagged,
        });
        if tagged {
            self.metrics.multicast_injected += 1;
            self.tagged_outstanding += 1;
        }
        for si in 0..self.plan.streams(node).len() {
            let (path, absorbs) = {
                let pre = &self.plan.streams(node)[si];
                (Arc::clone(&pre.path), Arc::clone(&pre.absorbs))
            };
            let msg = ActiveMsg::stream(path, self.wl.msg_len, gen, tagged, op, absorbs);
            let id = self.msgs.insert(msg);
            self.metrics.total_generated += 1;
            self.enqueue(id, src.0);
            on_stream(id);
        }
        op
    }

    /// Phase 1: pop every event due this cycle (node-ascending for ties).
    /// Open loop: spawn the node's arrival and reschedule its source.
    /// Closed loop: fire the node's timer, then perform the actions.
    fn generate(&mut self, tagging: bool) {
        while let Some(node) = self.queue.pop_due(self.cycle) {
            self.counters.events_popped += 1;
            let id = NodeId(node);
            if let Some(driver) = self.closed.as_mut() {
                debug_assert_eq!(driver.timer_at(id), Some(self.cycle));
                driver.dispatch(self.cycle, id, AppEvent::Timeout, &mut self.actions);
                continue;
            }
            let n = node as usize;
            debug_assert_eq!(self.arrivals[n].next_arrival(), self.cycle);
            match self.arrivals[n].pop(self.wl, self.plan.n, id) {
                Arrival::Unicast(dst) => {
                    self.spawn_unicast(id, dst, tagging);
                }
                Arrival::Multicast => {
                    self.spawn_multicast(id, tagging, |_| {});
                }
            }
            let next = self.arrivals[n].next_arrival();
            if next != u64::MAX {
                self.queue.push(next, node);
            }
        }
        if self.closed.is_some() {
            self.closed_perform();
        }
    }

    /// Phase 2: pick at most one flit move per active physical channel,
    /// judged on the previous cycle's counters. Round-robin start, FIFO
    /// tie-breaks and the lazy-deactivation order all feed the order
    /// statistics are recorded in.
    fn select_moves(&mut self) {
        self.moves.clear();
        let buffer_depth = self.cfg.buffer_depth;
        let mut i = 0;
        while i < self.active.len() {
            let pc = self.active[i] as usize;
            let base = self.plan.cv_base[pc];
            let nv = self.plan.vcs[pc];
            let mut any_owned = false;
            let mut chosen: Option<u8> = None;
            for j in 0..nv {
                let vc = (self.rr[pc] + j) % nv;
                let cv = &self.cvs[(base + vc as u32) as usize];
                let Some((m, h)) = cv.owner else { continue };
                any_owned = true;
                if chosen.is_some() {
                    continue;
                }
                let msg = self.msgs.get(m, "cv owner");
                let h = h as usize;
                // Supply: the next flit must be available upstream.
                let supply = if h == 0 {
                    msg.traversed[0] < msg.len
                } else {
                    msg.traversed[h] < msg.traversed[h - 1]
                };
                if !supply {
                    continue;
                }
                // Capacity: downstream buffer space as of last cycle.
                if h + 1 < msg.path.len() && msg.occupancy(h) >= buffer_depth {
                    continue;
                }
                chosen = Some(vc);
            }
            if let Some(vc) = chosen {
                let cv_idx = base + vc as u32;
                let (m, h) = self.cvs[cv_idx as usize]
                    .owner
                    .expect("selection invariant violated: chosen vc lost its owner mid-cycle");
                self.moves.push((m, h));
                self.rr[pc] = (vc + 1) % nv;
            }
            if any_owned {
                i += 1;
            } else {
                // Lazy deactivation: no cv of this channel is owned.
                self.active_flag[pc] = false;
                self.active.swap_remove(i);
            }
        }
    }

    /// Release cv `cv` of physical channel `channel`.
    fn release(&mut self, cv: usize, channel: usize) {
        self.cvs[cv].owner = None;
        self.owned_count[channel] -= 1;
        self.regrant.push(cv as u32);
        self.metrics.trace_release(self.cycle, channel);
    }

    /// Phase 3: apply the selected moves (requests, releases, absorptions,
    /// completions) in selection order — the order statistics accumulate
    /// in.
    fn apply_moves(&mut self, measuring: bool) {
        let now = self.cycle;
        let moves = std::mem::take(&mut self.moves);
        for &(mid, h16) in &moves {
            let h = h16 as usize;
            // --- advance the flit ---
            let (channel_of_h, header_arrived, tail_passed, prev_hop, next_hop) = {
                let msg = self.msgs.get_mut(mid, "moving flit's message");
                msg.traversed[h] += 1;
                let t = msg.traversed[h];
                (
                    msg.path.hops[h].channel.idx(),
                    t == 1,
                    t == msg.len,
                    (h > 0).then(|| msg.path.hops[h - 1]),
                    (h + 1 < msg.path.len()).then(|| msg.path.hops[h + 1]),
                )
            };
            self.metrics.record_flit_move(now, channel_of_h, measuring);

            // --- header entered buffer(h): request the next channel ---
            if header_arrived {
                if h == 0 {
                    // The message left the injection queue head.
                    self.inj_backlog -= 1;
                }
                if let Some(next) = next_hop {
                    let cv = self.cv_index(next) as usize;
                    self.cvs[cv].waiters.push_back((mid, (h + 1) as u16));
                    self.regrant.push(cv as u32);
                }
            }

            if !tail_passed {
                continue;
            }
            // --- tail traversed hop h: it left buffer(h-1) ---
            if let Some(prev) = prev_hop {
                let cv = self.cv_index(prev) as usize;
                debug_assert_eq!(self.cvs[cv].owner, Some((mid, (h - 1) as u16)));
                self.release(cv, prev.channel.idx());
            }
            // Absorptions scheduled at this hop (multicast targets; the
            // final target's completion hop is the ejection hop).
            let mut op_done: Option<OpId> = None;
            let closed = self.closed.is_some();
            let msg = self.msgs.get_mut(mid, "absorbing stream's message");
            let (tagged, gen, is_last) = (msg.tagged, msg.gen, h == msg.last_hop());
            if let Some(stream) = msg.multicast.as_mut() {
                let mut absorbed_here = 0u32;
                while (stream.next_absorb as usize) < stream.absorbs.len()
                    && stream.absorbs[stream.next_absorb as usize].0 == h16
                {
                    let target = stream.absorbs[stream.next_absorb as usize].1;
                    if closed {
                        self.arrived.push(ClosedDelivery::Absorb {
                            op: stream.op,
                            target,
                        });
                    }
                    self.metrics.trace_absorb(now, target.0);
                    stream.next_absorb += 1;
                    absorbed_here += 1;
                }
                if absorbed_here > 0 {
                    let op = self.ops.get_mut(stream.op, "stream's multicast op");
                    op.remaining -= absorbed_here;
                    op.last_absorb = now;
                    if op.remaining == 0 {
                        op_done = Some(stream.op);
                    }
                }
            }
            let is_unicast = msg.multicast.is_none();
            let eject = msg.path.hops[h];
            let dst = msg.path.dst;
            if let Some(opid) = op_done {
                self.ops_completed += 1;
                let op = self.ops.get(opid, "completed multicast op");
                self.metrics.trace_op_done(now, op.src.0);
                if op.tagged {
                    self.metrics.record_op_delivery(op);
                    self.tagged_outstanding -= 1;
                }
                self.ops.free(opid, "completed multicast op");
                if closed {
                    self.arrived.push(ClosedDelivery::OpDone(opid));
                }
            }

            // Message fully absorbed at the ejection hop?
            if !is_last {
                continue;
            }
            let cv = self.cv_index(eject) as usize;
            debug_assert_eq!(self.cvs[cv].owner, Some((mid, h16)));
            self.metrics.total_absorbed += 1;
            self.release(cv, eject.channel.idx());
            if is_unicast {
                // Multicast targets trace their absorbs in the stream's
                // absorb list above; unicasts here.
                self.metrics.trace_absorb(now, dst.0);
                if tagged {
                    self.metrics.record_unicast_delivery(now, gen);
                    self.tagged_outstanding -= 1;
                }
                if closed {
                    self.arrived.push(ClosedDelivery::Unicast(mid));
                }
            } else if tagged {
                self.metrics.record_stream_delivery(now, gen);
            }
            self.msgs.free(mid, "absorbed message");
        }
        self.moves = moves;
    }

    /// Phase 4: grant free channels to FIFO-first waiters; returns how many
    /// new owners were installed (zero feeds the stall detector).
    fn grant(&mut self) -> usize {
        let mut granted = 0usize;
        let regrant = std::mem::take(&mut self.regrant);
        for &cv_u in &regrant {
            let cv = cv_u as usize;
            if self.cvs[cv].owner.is_none() {
                if let Some((m, h)) = self.cvs[cv].waiters.pop_front() {
                    self.cvs[cv].owner = Some((m, h));
                    granted += 1;
                    let msg = self.msgs.get(m, "granted waiter");
                    let channel = msg.path.hops[h as usize].channel.idx();
                    self.owned_count[channel] += 1;
                    self.activate(channel);
                    self.metrics.trace_grant(self.cycle, channel);
                }
            }
        }
        self.regrant = regrant;
        self.regrant.clear();
        granted
    }

    /// Simulate exactly cycle `target` (every cycle strictly between the
    /// current one and `target` is inert — trivially so when stepping)
    /// and update the stall detector. Returns the number of new grants.
    fn simulate_cycle(&mut self, target: u64, tagging: bool, measuring: bool) -> usize {
        debug_assert!(target > self.cycle);
        self.cycle = target;
        self.counters.simulated_cycles += 1;
        self.generate(tagging);
        self.select_moves();
        let moved = !self.moves.is_empty();
        if moved {
            self.last_move_cycle = self.cycle;
        }
        self.apply_moves(measuring);
        // Deliveries dispatch inside the cycle (between application and
        // grant), so the machines' injections join the waiter queues in
        // the same cycle the absorptions landed.
        self.closed_deliver();
        let granted = self.grant();
        self.stalled = !moved && granted == 0;
        if self.stalled {
            self.counters.stall_fixpoints += 1;
            if !self.active.is_empty() {
                self.metrics.trace_stall(self.cycle);
            }
        }
        granted
    }

    /// Channels are held but nothing has moved for the watchdog window.
    fn watchdog_fires(&self) -> bool {
        self.cycle.saturating_sub(self.last_move_cycle) > WATCHDOG_WINDOW && !self.active.is_empty()
    }

    /// Does the run end at the current cycle? `Some((saturated,
    /// deadlocked))` if so. Open loop ends once the measurement window is
    /// over and every tagged message is delivered, closed loop at protocol
    /// quiescence; the drain deadline, the backlog limit and the deadlock
    /// watchdog are the safety nets of both.
    fn stop_reason(&self, measure_end: u64, deadline: u64) -> Option<(bool, bool)> {
        let done = match &self.closed {
            Some(driver) => self.tagged_outstanding == 0 && driver.quiescent(),
            None => self.cycle >= measure_end && self.tagged_outstanding == 0,
        };
        if done {
            return Some((false, false));
        }
        if self.cycle >= deadline {
            return Some((self.closed.is_some() || self.tagged_outstanding > 0, false));
        }
        if self.inj_backlog > self.cfg.backlog_limit {
            return Some((true, false));
        }
        if self.cycle.is_multiple_of(WATCHDOG_STRIDE) && self.watchdog_fires() {
            return Some((true, true));
        }
        None
    }

    // ------------------------------------------------------------------
    // Closed-loop drive: the protocol machines are the traffic source and
    // the event queue (unused by arrivals: closed-loop workloads are
    // zero-rate) carries their timers.
    // ------------------------------------------------------------------

    fn driver(&mut self) -> &mut ClosedLoopDriver {
        self.closed.as_mut().expect("closed-loop driver present")
    }

    /// Dispatch [`AppEvent::Start`] to every machine in node order and
    /// perform the resulting injections (eligible to move next cycle,
    /// like any cycle-0 arrival).
    fn closed_start(&mut self) {
        let driver = self.closed.as_mut().expect("closed-loop driver present");
        for node in 0..self.plan.n {
            driver.dispatch(
                self.cycle,
                NodeId(node as u32),
                AppEvent::Start,
                &mut self.actions,
            );
        }
        self.closed_perform();
        self.grant();
    }

    /// Dispatch every absorption `apply_moves` recorded this cycle (in
    /// absorption order) and perform the resulting actions.
    fn closed_deliver(&mut self) {
        if self.arrived.is_empty() {
            return;
        }
        let driver = self.closed.as_mut().expect("closed-loop driver present");
        for d in self.arrived.drain(..) {
            match d {
                ClosedDelivery::Unicast(mid) => {
                    let (dst, payload) = driver.unicast_delivered(mid);
                    let event = AppEvent::Delivery(payload);
                    driver.dispatch(self.cycle, dst, event, &mut self.actions);
                }
                ClosedDelivery::Absorb { op, target } => {
                    let event = AppEvent::Delivery(driver.absorb_payload(op));
                    driver.dispatch(self.cycle, target, event, &mut self.actions);
                }
                ClosedDelivery::OpDone(op) => driver.op_done(op),
            }
        }
        self.closed_perform();
    }

    /// Perform the pending protocol actions: allocate and enqueue the
    /// requested messages (all tagged — closed-loop statistics cover the
    /// whole run) and schedule timers on the event queue.
    fn closed_perform(&mut self) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Unicast { src, dst, payload } => {
                    let id = self.spawn_unicast(src, dst, true);
                    self.driver().note_unicast(id, dst, payload);
                }
                Action::Multicast { src, payload } => {
                    assert!(
                        !self.plan.streams(src.idx()).is_empty(),
                        "protocol multicast from a source with no streams"
                    );
                    let op = self.spawn_multicast(src, true, |_| {});
                    self.driver().note_multicast(op, payload);
                }
                Action::Timer { node, at } => self.queue.push(at, node.0),
            }
        }
        self.actions = actions;
    }

    /// Run to completion and produce results. The observable trajectory
    /// (break cycle, flags, every statistic) is the same under both
    /// policies; the skip policy evaluates it only on cycles of interest.
    pub fn run(&mut self) -> SimResults {
        let warmup = self.cfg.warmup_cycles;
        let measure_end = self.cfg.measure_end();
        let deadline = self.cfg.deadline();
        let closed = self.closed.is_some();
        let mut stop = None;
        if closed {
            self.closed_start();
            stop = self.stop_reason(measure_end, deadline);
        }
        while stop.is_none() {
            let target = if self.skip {
                // Closed-loop runs have no measurement boundary to stop at.
                let boundary = if closed { u64::MAX } else { measure_end };
                self.next_cycle_of_interest(boundary, deadline)
            } else {
                self.cycle + 1
            };
            let tagging = closed || (target > warmup && target <= measure_end);
            let granted = self.simulate_cycle(target, tagging, tagging);
            stop = self.stop_reason(measure_end, deadline);
            // Streaming fast-forward (open loop only: protocol messages
            // are short, and the span caps do not model delivery-triggered
            // injections).
            if self.skip
                && !closed
                && stop.is_none()
                && granted == 0
                && !self.moves.is_empty()
                && self.batch_span(warmup, measure_end, deadline)
            {
                stop = self.stop_reason(measure_end, deadline);
            }
        }
        let (saturated, deadlocked) = stop.expect("the run loop exits on a stop reason");

        let cycles = self.cycle;
        // Normalise utilisation by the cycles actually spent measuring: a
        // run that breaks out early (saturation, backlog overflow) covers
        // less than the configured window.
        let measured_cycles = if closed {
            cycles
        } else {
            cycles.min(measure_end).saturating_sub(warmup)
        };
        let quiesced = closed && self.tagged_outstanding == 0 && self.driver().quiescent();
        let mut res = self.metrics.finish(
            saturated,
            deadlocked,
            cycles,
            self.peak_backlog,
            measured_cycles,
            self.counters,
        );
        if let Some(driver) = self.closed.as_mut() {
            res.closed_loop = Some(driver.finish(cycles, quiesced));
        }
        res
    }

    /// Scripted-injection hook: enqueue a unicast `src → dst` *now* and
    /// make it eligible for injection next cycle, exactly as if the
    /// source had generated it this cycle. Returns the message id for use
    /// with [`Engine::message_in_flight`].
    ///
    /// Intended for deterministic micro-benchmarks and timing tests; it
    /// composes with background traffic.
    pub fn inject_unicast_now(&mut self, src: NodeId, dst: NodeId) -> MsgId {
        let id = self.spawn_unicast(src, dst, false);
        self.grant();
        // New work exists; whatever stall was proven before no longer holds.
        self.stalled = false;
        id
    }

    /// Scripted-injection hook: start `src`'s configured multicast
    /// operation *now*; returns the ids of its port-stream messages.
    pub fn inject_multicast_now(&mut self, src: NodeId) -> Vec<MsgId> {
        assert!(
            !self.plan.streams(src.idx()).is_empty(),
            "source has no multicast streams configured"
        );
        let mut ids = Vec::new();
        self.spawn_multicast(src, false, |id| ids.push(id));
        self.grant();
        self.stalled = false;
        ids
    }

    /// Advance exactly one cycle without tagging or measuring (testing
    /// hook for cycle-precise assertions; never skips).
    pub fn step_one(&mut self) {
        self.simulate_cycle(self.cycle + 1, false, false);
    }

    /// Is the message still in the network (queued or in flight)?
    pub fn message_in_flight(&self, id: MsgId) -> bool {
        self.msgs.contains(id)
    }

    /// Step until `id` completes, returning the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if the message does not complete within 1M cycles (deadlock
    /// or a forgotten zero-length path — both are bugs).
    pub fn run_until_complete(&mut self, id: MsgId) -> u64 {
        let guard = self.cycle + 1_000_000;
        while self.message_in_flight(id) {
            self.step_one();
            assert!(self.cycle < guard, "message {id} did not complete");
        }
        self.cycle
    }

    /// Inject a single unicast on an idle network and return its latency
    /// (testing hook). Must be called on a zero-rate workload.
    pub fn measure_isolated_unicast(&mut self, src: NodeId, dst: NodeId) -> u64 {
        assert_eq!(self.wl.gen_rate, 0.0, "requires a zero-rate workload");
        let gen = self.cycle;
        let id = self.inject_unicast_now(src, dst);
        self.run_until_complete(id) - gen
    }

    /// Inject a single multicast operation on an idle network and return
    /// the operation latency: generation until the last target absorbs
    /// the tail flit (testing hook).
    pub fn measure_isolated_multicast(&mut self, src: NodeId) -> u64 {
        assert_eq!(self.wl.gen_rate, 0.0, "requires a zero-rate workload");
        let gen = self.cycle;
        let ids = self.inject_multicast_now(src);
        // The op's arena slot is freed the moment it completes, so the
        // latency is read off the run instead: each stream's final target
        // absorbs at its ejection hop, so the op's last absorb is exactly
        // the completion cycle of the slowest stream.
        let mut done = gen;
        for id in ids {
            done = done.max(self.run_until_complete(id));
        }
        done - gen
    }

    /// Structural self-check: the cached owned-cv counts match the cvs,
    /// every owned cv points at a live message whose path crosses that
    /// cv, no (message, hop) owns two cvs, waiters reference live
    /// messages, every live multicast operation still has targets
    /// outstanding, and the op and flit conservation counters balance.
    /// `Err` describes the first violated invariant.
    pub fn audit(&self) -> Result<EngineAudit, String> {
        for (pc, &count) in self.owned_count.iter().enumerate() {
            let base = self.plan.cv_base[pc];
            let nv = self.plan.vcs[pc];
            let actual = (0..nv)
                .filter(|&vc| self.cvs[(base + vc as u32) as usize].owner.is_some())
                .count();
            if actual != count as usize {
                return Err(format!(
                    "channel {pc}: owned-cv count drifted (cached {count}, actual {actual})"
                ));
            }
        }

        let mut owned_cvs = 0u64;
        let mut holders: HashSet<(MsgId, u16)> = HashSet::new();
        for (cv, state) in self.cvs.iter().enumerate() {
            if let Some((m, h)) = state.owner {
                owned_cvs += 1;
                let msg = self
                    .msgs
                    .try_get(m)
                    .ok_or_else(|| format!("cv {cv} owned by dead message {m}"))?;
                let hop =
                    *msg.path.hops.get(h as usize).ok_or_else(|| {
                        format!("cv {cv} owner hop {h} beyond message {m}'s path")
                    })?;
                if self.cv_index(hop) as usize != cv {
                    return Err(format!(
                        "cv {cv} owned by message {m} at hop {h}, but that hop maps to cv {}",
                        self.cv_index(hop)
                    ));
                }
                if !holders.insert((m, h)) {
                    return Err(format!("message {m} hop {h} owns two cvs"));
                }
            }
            for &(m, _) in &state.waiters {
                if !self.msgs.contains(m) {
                    return Err(format!("cv {cv} queues dead message {m}"));
                }
            }
        }

        if let Some((i, _)) = self.ops.iter().find(|(_, op)| op.remaining == 0) {
            return Err(format!("live multicast op {i} has zero targets remaining"));
        }
        let live_ops = self.ops.len() as u64;
        if self.ops_allocated != self.ops_completed + live_ops {
            return Err(format!(
                "op accounting broken: {} allocated != {} completed + {} live",
                self.ops_allocated, self.ops_completed, live_ops
            ));
        }

        let live_messages = self.msgs.len() as u64;
        let (generated, absorbed) = (self.metrics.total_generated, self.metrics.total_absorbed);
        if generated != absorbed + live_messages {
            return Err(format!(
                "flit conservation broken: {generated} generated != {absorbed} absorbed + \
                 {live_messages} live"
            ));
        }

        Ok(EngineAudit {
            cycle: self.cycle,
            live_messages,
            queued_messages: self.inj_backlog as u64,
            owned_cvs,
            live_ops,
            ops_allocated: self.ops_allocated,
            ops_completed: self.ops_completed,
            total_generated: generated,
            total_absorbed: absorbed,
            tagged_outstanding: self.tagged_outstanding,
        })
    }

    /// Current simulated cycle (testing/diagnostics).
    pub fn now(&self) -> u64 {
        self.cycle
    }

    /// How many cycles ran through the per-cycle machinery (the rest were
    /// skipped or fast-forwarded). Diagnostics: `now() /
    /// simulated_cycles()` is the skip policy's compression ratio; the
    /// stepping policy simulates every cycle.
    pub fn simulated_cycles(&self) -> u64 {
        self.counters.simulated_cycles
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &dyn Topology {
        self.topo
    }

    /// Count of channels whose kind matches (diagnostics). Works on both
    /// dense and implicit storage.
    pub fn channel_count(&self, kind: ChannelKind) -> usize {
        let net = self.topo.network();
        (0..net.num_channels() as u32)
            .filter(|&id| net.channel_at(noc_topology::ChannelId(id)).kind == kind)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Quarc;
    use noc_workloads::DestinationSets;

    fn zero_workload(topo: &dyn Topology, msg_len: u32) -> Workload {
        Workload::new(msg_len, 0.0, 0.0, DestinationSets::random(topo, 4, 1)).unwrap()
    }

    #[test]
    fn zero_load_unicast_latency_is_exact() {
        let topo = Quarc::new(16).unwrap();
        for (src, dst, msg_len) in [(0u32, 3u32, 16u32), (0, 8, 32), (5, 1, 64), (2, 12, 16)] {
            let wl = zero_workload(&topo, msg_len);
            let mut sim = build_engine(
                &topo,
                &wl,
                SimConfig::quick(1).with_engine(EngineKind::Cycle),
            )
            .unwrap();
            let lat = sim.measure_isolated_unicast(NodeId(src), NodeId(dst));
            let path = topo.unicast_path(NodeId(src), NodeId(dst));
            let expected = msg_len as u64 + path.hop_count() as u64;
            assert_eq!(
                lat, expected,
                "zero-load latency {src}->{dst} len {msg_len}: got {lat}, want {expected}"
            );
        }
    }

    #[test]
    fn zero_load_broadcast_latency_matches_longest_stream() {
        let topo = Quarc::new(16).unwrap();
        let wl = Workload::new(32, 0.0, 0.0, DestinationSets::broadcast(&topo)).unwrap();
        let mut sim = build_engine(
            &topo,
            &wl,
            SimConfig::quick(1).with_engine(EngineKind::Cycle),
        )
        .unwrap();
        let lat = sim.measure_isolated_multicast(NodeId(0));
        // All four broadcast streams traverse k = 4 links; the slowest
        // completes at msg + (k + 1) cycles.
        assert_eq!(lat, 32 + 4 + 1);
    }

    #[test]
    fn conservation_all_generated_messages_absorb() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 3);
        let wl = Workload::new(16, 0.004, 0.05, sets).unwrap();
        let mut sim = build_engine(
            &topo,
            &wl,
            SimConfig::quick(7).with_engine(EngineKind::Cycle),
        )
        .unwrap();
        let res = sim.run();
        assert!(!res.saturated, "low load must not saturate");
        assert!(res.complete(), "all tagged traffic must be delivered");
        assert!(res.total_generated > 0);
        // Anything generated but unabsorbed must still be in flight (the
        // run stops once tagged traffic drains, untagged may remain).
        assert!(res.total_absorbed <= res.total_generated);
        let in_flight = res.total_generated - res.total_absorbed;
        assert!(
            in_flight < 3000,
            "untagged in-flight backlog should be small at low load, got {in_flight}"
        );
        sim.audit().expect("post-run audit");
    }

    #[test]
    fn latencies_grow_with_load() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 3);
        let mut means = Vec::new();
        for rate in [0.002, 0.02] {
            let wl = Workload::new(16, rate, 0.05, sets.clone()).unwrap();
            let mut sim = build_engine(
                &topo,
                &wl,
                SimConfig::quick(11).with_engine(EngineKind::Cycle),
            )
            .unwrap();
            let res = sim.run();
            assert!(res.unicast.count > 50, "need samples at rate {rate}");
            means.push(res.unicast.mean);
        }
        assert!(
            means[1] > means[0],
            "unicast latency must rise with load: {means:?}"
        );
    }

    #[test]
    fn saturation_is_detected_at_absurd_load() {
        let topo = Quarc::new(8).unwrap();
        let sets = DestinationSets::random(&topo, 2, 3);
        let wl = Workload::new(64, 0.9, 0.5, sets).unwrap();
        let mut cfg = SimConfig::quick(13);
        cfg.backlog_limit = 2_000;
        let mut sim = build_engine(&topo, &wl, cfg.with_engine(EngineKind::Cycle)).unwrap();
        let res = sim.run();
        assert!(
            res.saturated,
            "rate 0.9 with 64-flit messages must saturate"
        );
    }

    #[test]
    fn early_break_normalises_utilization_by_actual_measured_cycles() {
        // Force an early backlog break well inside the measurement window
        // and check the utilisation denominator is the cycles actually
        // measured, not the configured window. With the configured-window
        // denominator the busiest channel of a saturated 8-node Quarc
        // would read far below its true (≈1) utilisation.
        let topo = Quarc::new(8).unwrap();
        let sets = DestinationSets::random(&topo, 2, 3);
        let wl = Workload::new(64, 0.9, 0.5, sets).unwrap();
        let mut cfg = SimConfig::quick(13);
        cfg.warmup_cycles = 100;
        cfg.measure_cycles = 1_000_000; // never reached
        cfg.backlog_limit = 2_000;
        let mut sim = build_engine(&topo, &wl, cfg.with_engine(EngineKind::Cycle)).unwrap();
        let res = sim.run();
        assert!(res.saturated);
        assert!(
            res.cycles < cfg.warmup_cycles + cfg.measure_cycles,
            "the run must have broken out early"
        );
        let measured = res.cycles - cfg.warmup_cycles;
        // The busiest channel moves a flit nearly every measured cycle at
        // this load; the old `measure_cycles` denominator would report
        // measured / 1_000_000 ≪ 0.5.
        assert!(
            res.max_utilization() > 0.5,
            "bottleneck utilisation {} should be ~1 over the {} measured cycles",
            res.max_utilization(),
            measured
        );
        assert!(
            res.max_utilization() <= 1.0 + 1e-12,
            "utilisation cannot exceed one flit per cycle"
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 5);
        let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
        let r1 = build_engine(
            &topo,
            &wl,
            SimConfig::quick(99).with_engine(EngineKind::Cycle),
        )
        .unwrap()
        .run();
        let r2 = build_engine(
            &topo,
            &wl,
            SimConfig::quick(99).with_engine(EngineKind::Cycle),
        )
        .unwrap()
        .run();
        assert_eq!(r1.unicast.count, r2.unicast.count);
        assert_eq!(r1.unicast.mean, r2.unicast.mean);
        assert_eq!(r1.multicast.mean, r2.multicast.mean);
        assert_eq!(r1.flit_moves, r2.flit_moves);
        let r3 = build_engine(
            &topo,
            &wl,
            SimConfig::quick(100).with_engine(EngineKind::Cycle),
        )
        .unwrap()
        .run();
        assert_ne!(
            r1.flit_moves, r3.flit_moves,
            "different seed, different run"
        );
    }

    #[test]
    fn multicast_latency_at_least_stream_latency() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 6, 5);
        let wl = Workload::new(16, 0.008, 0.2, sets).unwrap();
        let res = build_engine(
            &topo,
            &wl,
            SimConfig::quick(42).with_engine(EngineKind::Cycle),
        )
        .unwrap()
        .run();
        assert!(res.multicast.count > 20);
        assert!(
            res.multicast.mean >= res.stream.mean,
            "op latency (max over streams) must dominate stream latency"
        );
    }

    #[test]
    fn stepping_policy_simulates_every_cycle_and_batches_nothing() {
        // The oracle must never skip or batch, open loop and closed loop
        // alike — otherwise the differential suite and the perf-smoke
        // gate would compare the skip policy against itself. The open
        // run is a low-load point the skip policy compresses >5×.
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 3);
        let wl = Workload::new(32, 0.0005, 0.05, sets.clone()).unwrap();
        let open = build_engine(
            &topo,
            &wl,
            SimConfig::quick(7).with_engine(EngineKind::Cycle),
        )
        .unwrap()
        .run();
        let idle = Workload::new(8, 0.0, 0.0, sets).unwrap();
        let mut sim = build_engine(
            &topo,
            &idle,
            SimConfig::quick(7).with_engine(EngineKind::Cycle),
        )
        .unwrap();
        let spec = ClosedLoopSpec::Coherence {
            window: 4,
            requests: 24,
            write_fraction: 0.3,
        };
        sim.install_closed_loop(&spec, 7);
        let closed = sim.run();
        assert!(closed.closed_loop.as_ref().is_some_and(|c| c.quiesced));
        for (res, ctx) in [(&open, "open loop"), (&closed, "closed loop")] {
            assert!(res.cycles > 0, "{ctx}: the run advanced");
            assert_eq!(
                res.engine.simulated_cycles, res.cycles,
                "{ctx}: every cycle simulated"
            );
            assert_eq!(res.engine.spans_batched, 0, "{ctx}: no span batched");
            assert_eq!(res.engine.span_cycles, 0, "{ctx}: no span cycles");
        }
    }

    #[test]
    fn shared_plan_reproduces_fresh_construction() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 5);
        let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
        let plan = SimPlan::build(&topo, &wl).expect("plan builds");
        let a = build_engine(
            &topo,
            &wl,
            SimConfig::quick(5).with_engine(EngineKind::Cycle),
        )
        .unwrap()
        .run();
        let b = build_engine_with_plan(
            &topo,
            &wl,
            SimConfig::quick(5).with_engine(EngineKind::Cycle),
            Arc::clone(&plan),
        )
        .run();
        let c = build_engine_with_plan(
            &topo,
            &wl,
            SimConfig::quick(5).with_engine(EngineKind::Cycle),
            plan,
        )
        .run();
        assert_eq!(a.flit_moves, b.flit_moves);
        assert_eq!(a.unicast.mean, b.unicast.mean);
        assert_eq!(b.flit_moves, c.flit_moves, "plans are reusable");
    }
}
