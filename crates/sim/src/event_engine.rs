//! The event-driven time-advance policy of the kernel
//! ([`EventSimulator`](crate::EventSimulator) = `Engine<'_, true>`).
//!
//! The kernel runs the same four phases under both policies; this module
//! decides *which* cycles run them. Instead of advancing every cycle, the
//! skip policy only *simulates* cycles on which the network state can
//! change, and jumps over the rest. Runs are bit-identical to the
//! stepping oracle under the same seed — same arrivals, same arbitration
//! outcomes, same statistics in the same order — which the differential
//! suite (`tests/engine_equivalence.rs`) enforces.
//!
//! ## Which cycles can be skipped?
//!
//! A cycle is *inert* when simulating it would change nothing. Two
//! situations guarantee that, and the kernel proves them incrementally:
//!
//! * **Idle** — no cv is owned (`active` is empty). Then no flit can
//!   move, no waiter exists (a waiter on a free cv would have been
//!   granted when it enqueued), and only a new arrival changes anything.
//! * **Stalled** — the last simulated cycle selected no moves and granted
//!   no new owners. Selection judges supply/capacity purely on the flit
//!   counters, which only moves mutate, and round-robin pointers only
//!   advance on a chosen move; so if nothing moved and nothing was
//!   granted, the next cycle's selection reaches the identical verdict.
//!   The state is a fixpoint until the next event.
//!
//! In either situation the kernel advances straight to the earliest of:
//! the next queued event (arrival or protocol timer), the end of the
//! measurement window (where the run may terminate), the drain deadline,
//! and — when channels are still held — the next deadlock watchdog tick.
//! Each of those is exactly a cycle where the stepping run could newly
//! stop or its state could change, so the observable trajectory (break
//! cycle, flags, every counter) is preserved.
//!
//! ## Streaming fast-forward
//!
//! Between structural events a wormhole message simply *streams*: every
//! channel of its granted window moves one flit per cycle, and the cycle
//! outcome repeats verbatim. After simulating a cycle the kernel checks
//! whether the next cycles are guaranteed replays — every active channel
//! either moved its single owned cv (with stable supply and credit) or is
//! stably blocked, nothing was granted, no tail/header/absorb threshold,
//! arrival, run boundary or watchdog tick is due — and if so it applies
//! `K` repetitions in one bulk update of the flit counters.
//! Grant-to-grant, the per-cycle machinery only runs on cycles where
//! arbitration can change.
//!
//! Together the two mechanisms collapse the cost from O(cycles) to
//! O(structural events): injections, header hand-offs, grants and tail
//! releases.

use crate::engine::{Kernel, WATCHDOG_STRIDE, WATCHDOG_WINDOW};
use crate::message::{ActiveMsg, MsgId};

/// Cap of the streaming-scan backoff exponent: after repeated
/// unprofitable eligibility scans the kernel re-attempts at most every
/// `2^SPAN_BACKOFF_CAP` eligible cycles. At high load the scan almost
/// always fails (held channels trip its conservative freeze checks),
/// and running it after every simulated cycle was the hot-path overhead
/// that made the event engine lose to the stepping oracle there — the
/// backoff is a deterministic heuristic that only changes *when* spans
/// are attempted, never their outcome, so results are unaffected.
const SPAN_BACKOFF_CAP: u32 = 8;

/// A span must advance at least this many cycles to count as profitable
/// and reset the backoff. A full eligibility scan costs on the order of
/// a few simulated cycles, so shorter spans — the typical find deep in
/// saturation, where a handful of cycles stream between structural
/// events — are applied (the cycles are already bought) but pace the
/// scan like a failure: without this, each short find re-arms per-cycle
/// scanning and the scan overhead eats the streamed cycles it saves.
const SPAN_PROFIT_MIN: u64 = 8;

impl Kernel<'_> {
    /// The next cycle on which anything can happen or the run could newly
    /// stop. When the network can make progress that is simply the next
    /// cycle; when it is idle or stalled, jump to the earliest external
    /// event. `measure_end` is the boundary an open-loop run may stop at
    /// once its tagged traffic drains (`u64::MAX` for closed loop).
    pub(crate) fn next_cycle_of_interest(&self, measure_end: u64, deadline: u64) -> u64 {
        let next = self.cycle + 1;
        if !self.active.is_empty() && !self.stalled {
            return next;
        }
        let mut t = self.queue.peek_time().unwrap_or(u64::MAX);
        if self.tagged_outstanding == 0 {
            t = t.min(measure_end);
        }
        t = t.min(deadline);
        if !self.active.is_empty() {
            // Channels are held but nothing moves: the deadlock watchdog
            // must fire on the same cycle the stepping run fires on.
            t = t.min(self.next_watchdog_cycle());
        }
        t.max(next)
    }

    /// First stride-aligned cycle at which the watchdog condition
    /// `cycle − last_move > window` holds.
    pub(crate) fn next_watchdog_cycle(&self) -> u64 {
        self.last_move_cycle
            .saturating_add(WATCHDOG_WINDOW + 1)
            .max(self.cycle + 1)
            .next_multiple_of(WATCHDOG_STRIDE)
    }

    /// Streaming fast-forward after a simulated cycle that moved flits
    /// and granted nothing: replay its move set in bulk while nothing
    /// structural can happen. Returns whether time advanced.
    ///
    /// The eligibility scan is the high-load overhead: in a congested
    /// network it fails almost every cycle (blocked channels hit its
    /// conservative bails), so repeated failures back off exponentially.
    /// The cooldown only gates *when* the scan re-runs — skipped
    /// opportunities fall back to normal per-cycle simulation, so results
    /// are bit-identical either way.
    pub(crate) fn batch_span(&mut self, warmup: u64, measure_end: u64, deadline: u64) -> bool {
        if self.span_cooldown > 0 {
            self.span_cooldown -= 1;
            return false;
        }
        let k = self.streaming_span_len(warmup, measure_end, deadline);
        if k >= SPAN_PROFIT_MIN {
            self.span_fail_streak = 0;
        } else {
            // A failed scan, or a find too short to pay for the scan:
            // back off either way.
            if k == 0 {
                self.counters.span_scans_failed += 1;
            }
            self.span_fail_streak = (self.span_fail_streak + 1).min(SPAN_BACKOFF_CAP);
            self.span_cooldown = 1 << self.span_fail_streak;
        }
        if k == 0 {
            return false;
        }
        let measuring = self.cycle >= warmup && self.cycle < measure_end;
        self.apply_streaming_span(k, measuring);
        true
    }

    /// Did hop `h` of message `m` (with body `msg`) move this cycle?
    /// O(1): a hop's flits cross exactly its path cv, so the per-cv moved
    /// bitmap plus the ownership check identifies the pair. Only valid in
    /// the streaming eligibility scan, where no release or grant has
    /// disturbed the cycle's ownership (both are disqualifying events).
    #[inline]
    fn in_move_set(&self, msg: &ActiveMsg, m: MsgId, h: usize) -> bool {
        let cv = self.plan.cv_index(msg.path.hops[h]) as usize;
        self.cv_moved[cv] && self.cvs[cv].owner == Some((m, h as u16))
    }

    /// How many cycles after the just-simulated one are guaranteed exact
    /// replays of its move set, with no structural event (grant, header or
    /// tail threshold, absorb, arrival, deactivation, run boundary or
    /// watchdog tick)? Returns 0 when the next cycle must be simulated
    /// normally.
    ///
    /// Must only be called when the simulated cycle moved flits and
    /// granted nothing.
    fn streaming_span_len(&mut self, warmup: u64, measure_end: u64, deadline: u64) -> u64 {
        let c = self.cycle;

        // External caps: the span may not contain an arrival, cross the
        // warmup or measurement boundary (the measuring flag must stay
        // constant and the run may stop at `measure_end`), or pass the
        // drain deadline.
        let next_arrival = self.queue.peek_time().unwrap_or(u64::MAX);
        let mut k = next_arrival.saturating_sub(c + 1);
        if c < warmup {
            k = k.min(warmup - c);
        } else if c < measure_end {
            k = k.min(measure_end - c);
        }
        k = k.min(deadline.saturating_sub(c));
        if k == 0 {
            return 0;
        }

        // Cheap pre-checks that need no mark state: a dead mover or a
        // crossed tail threshold disqualifies the span outright, paying a
        // few loads per mover and leaving no mark bookkeeping to undo.
        // The full pass below re-derives these facts; this pass only
        // filters.
        for &(m, h16) in &self.moves {
            let Some(msg) = self.msgs.try_get(m) else {
                return 0;
            };
            if msg.traversed[h16 as usize] >= msg.len {
                return 0;
            }
        }

        // Mark the cycle's move set for `in_move_set` — lazily, here,
        // so only scan cycles pay for the bookkeeping. Every mover is
        // alive: the pre-check above bailed on absorbed ones.
        let moves = std::mem::take(&mut self.moves);
        for &(m, h16) in &moves {
            let msg = self.msgs.get(m, "streaming mover");
            self.cv_moved[self.plan.cv_index(msg.path.hops[h16 as usize]) as usize] = true;
        }

        // Movers: numeric caps, single-ownership, and channel marking.
        // On the streaming fast path this loop is the whole scan.
        let buffer_depth = self.cfg.buffer_depth;
        let mut ok = true;
        for &(m, h16) in &moves {
            let msg = self.msgs.get(m, "streaming mover");
            let h = h16 as usize;
            let t = msg.traversed[h];
            // Sibling vcs on the mover's channel do not disqualify the
            // span by themselves: after the move the round-robin pointer
            // sits just past the mover's vc, so the mover is examined
            // *last* on the next pass and re-chosen iff every sibling is
            // unelectable — which the held-channel loop below verifies
            // stays true for the whole span.
            let pc = msg.path.hops[h].channel.idx();
            self.channel_moved[pc] = true;
            // Stop before the tail threshold (`t == len` is a structural
            // cycle: releases, absorbs, completions).
            k = k.min((msg.len - 1 - t) as u64);
            // Supply: upstream counter is frozen unless hop h−1 is also
            // streaming in this span.
            if h > 0 && !self.in_move_set(msg, m, h - 1) {
                k = k.min((msg.traversed[h - 1] - t) as u64);
            }
            // Credit: downstream occupancy grows unless hop h+1 is also
            // streaming.
            if h + 1 < msg.path.len() && !self.in_move_set(msg, m, h + 1) {
                k = k.min((buffer_depth - msg.occupancy(h)) as u64);
            }
            if k == 0 {
                ok = false;
                break;
            }
        }

        // Held channels: every owned cv that is not this cycle's mover
        // must stay unelectable for the whole span — on a blocked channel
        // that is every owned cv, on a moving channel the sibling vcs the
        // round-robin would otherwise rotate in. Only single-vc streaming
        // channels skip the walk (the pure-streaming fast path).
        if ok {
            'channels: for &pc_u in &self.active {
                let pc = pc_u as usize;
                if self.channel_moved[pc] && self.owned_count[pc] == 1 {
                    continue;
                }
                if self.owned_count[pc] == 0 {
                    // Fully released channel: the next select pass must
                    // lazily deactivate it to keep the active-list
                    // permutation (and with it every downstream ordering)
                    // identical to the stepping run's.
                    ok = false;
                    break;
                }
                let base = self.plan.cv_base[pc];
                let nv = self.plan.vcs[pc];
                for vc in 0..nv {
                    let cv_idx = (base + vc as u32) as usize;
                    if self.cv_moved[cv_idx] {
                        // The channel's mover: streaming eligibility is
                        // the mover loop's job, not a freeze condition.
                        continue;
                    }
                    let Some((m, h)) = self.cvs[cv_idx].owner else {
                        continue;
                    };
                    let msg = self.msgs.get(m, "cv owner");
                    let h = h as usize;
                    let supply = if h == 0 {
                        msg.traversed[0] < msg.len
                    } else {
                        msg.traversed[h] < msg.traversed[h - 1]
                    };
                    if !supply {
                        // Starved: stays starved iff the upstream hop is
                        // not streaming (h == 0 starvation means the whole
                        // message already crossed this hop — permanent).
                        if h > 0 && self.in_move_set(msg, m, h - 1) {
                            ok = false;
                            break 'channels;
                        }
                    } else if h + 1 < msg.path.len() && msg.occupancy(h) >= buffer_depth {
                        // Credit-blocked: stays blocked iff the downstream
                        // hop is not draining.
                        if self.in_move_set(msg, m, h + 1) {
                            ok = false;
                            break 'channels;
                        }
                    } else {
                        // Supply and credit fine yet not selected — only
                        // possible through round-robin interplay this scan
                        // does not model; be conservative.
                        ok = false;
                        break 'channels;
                    }
                }
            }
        }

        // Clear the cv and channel marks.
        for &(m, h16) in &moves {
            let hop = self.msgs.get(m, "streaming mover").path.hops[h16 as usize];
            self.cv_moved[self.plan.cv_index(hop) as usize] = false;
            self.channel_moved[hop.channel.idx()] = false;
        }
        self.moves = moves;
        if ok {
            k
        } else {
            0
        }
    }

    /// Apply `k` exact replays of the current move set in one step: every
    /// moving hop advances `k` flits, time and the watchdog anchor jump to
    /// the span's end. No grants, releases, deliveries or backlog changes
    /// occur inside a span by construction.
    fn apply_streaming_span(&mut self, k: u64, measuring: bool) {
        let start = self.cycle;
        for &(m, h) in &self.moves {
            let msg = self.msgs.get_mut(m, "streaming mover");
            msg.traversed[h as usize] += k as u32;
            let channel = msg.path.hops[h as usize].channel.idx();
            self.metrics
                .record_flit_moves_bulk(start, channel, k, measuring);
        }
        self.cycle += k;
        self.last_move_cycle = self.cycle;
        self.counters.spans_batched += 1;
        self.counters.span_cycles += k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventSimulator, SimConfig};
    use noc_topology::{NodeId, Quarc, Topology};
    use noc_workloads::{DestinationSets, Workload};

    #[test]
    fn zero_load_latency_is_exact() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(32, 0.0, 0.0, sets).unwrap();
        let mut sim = EventSimulator::new(&topo, &wl, SimConfig::quick(1));
        let lat = sim.measure_isolated_unicast(NodeId(0), NodeId(8));
        let path = topo.unicast_path(NodeId(0), NodeId(8));
        assert_eq!(lat, 32 + path.hop_count() as u64);
    }

    #[test]
    fn low_load_run_completes_and_audits_clean() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 3);
        let wl = Workload::new(16, 0.004, 0.05, sets).unwrap();
        let mut sim = EventSimulator::new(&topo, &wl, SimConfig::quick(7));
        let res = sim.run();
        assert!(!res.saturated);
        assert!(res.complete());
        assert!(res.total_generated > 0);
        sim.audit().expect("post-run audit");
    }

    #[test]
    fn low_load_runs_skip_most_cycles() {
        // The engine's raison d'être: at low load, the vast majority of
        // cycles are idle gaps or streaming spans and must not be
        // simulated one by one.
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 3);
        let wl = Workload::new(32, 0.0005, 0.05, sets).unwrap();
        let mut sim = EventSimulator::new(&topo, &wl, SimConfig::quick(7));
        let res = sim.run();
        assert!(!res.saturated);
        let ratio = res.cycles as f64 / sim.simulated_cycles() as f64;
        assert!(
            ratio > 5.0,
            "expected >5x cycle compression at low load, got {ratio:.1} \
             ({} simulated of {})",
            sim.simulated_cycles(),
            res.cycles
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 5);
        let wl = Workload::new(16, 0.01, 0.1, sets).unwrap();
        let a = EventSimulator::new(&topo, &wl, SimConfig::quick(99)).run();
        let b = EventSimulator::new(&topo, &wl, SimConfig::quick(99)).run();
        assert_eq!(a.flit_moves, b.flit_moves);
        assert_eq!(a.unicast.mean, b.unicast.mean);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn saturation_detected_like_the_reference() {
        let topo = Quarc::new(8).unwrap();
        let sets = DestinationSets::random(&topo, 2, 3);
        let wl = Workload::new(64, 0.9, 0.5, sets).unwrap();
        let mut cfg = SimConfig::quick(13);
        cfg.backlog_limit = 2_000;
        let res = EventSimulator::new(&topo, &wl, cfg).run();
        assert!(res.saturated);
    }

    #[test]
    fn watchdog_schedule_is_stride_aligned_and_past_the_window() {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        let wl = Workload::new(16, 0.0, 0.0, sets).unwrap();
        let sim = EventSimulator::new(&topo, &wl, SimConfig::quick(1));
        let c = sim.next_watchdog_cycle();
        assert_eq!(c % WATCHDOG_STRIDE, 0);
        assert!(c > sim.last_move_cycle + WATCHDOG_WINDOW);
    }
}
