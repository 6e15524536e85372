//! One streaming multiprocessor: resident blocks, warp scheduling, issue.

use crate::config::{GpuConfig, SchedPolicy};
use crate::memory::MemorySystem;
use crate::stats::SmStats;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use tbpoint_emu::{TbStats, TraceArena, TraceInst};
use tbpoint_ir::{ExecCtx, Kernel, LatencyClass, Op, TbId};
use tbpoint_obs::{NullRecorder, Recorder};

/// Runtime state of one resident warp.
#[derive(Debug)]
struct WarpRt {
    /// Interned trace — identical warps across blocks share one
    /// allocation (see [`tbpoint_emu::TraceArena`]).
    trace: Arc<[TraceInst]>,
    pc: usize,
    ready_at: u64,
    at_barrier: bool,
    done: bool,
    gtid_base: u64,
    birth: u64,
}

/// A thread block resident on the SM.
#[derive(Debug)]
struct ResidentBlock {
    tb_id: TbId,
    ctx: ExecCtx,
    warps: Vec<WarpRt>,
    live: u32,
    at_barrier: u32,
    /// Feature counters accumulated at issue time — at retirement they
    /// equal exactly what the profiler would have recorded for this
    /// block ([`tbpoint_emu::profile_tb`] counts the same events), which
    /// is what lets the live sampler run without a profiling pass.
    stats: TbStats,
}

/// Outcome of one issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueResult {
    /// Basic block of the issued instruction, if one issued.
    pub issued_bb: Option<u16>,
    /// Active-lane count of the issued instruction (thread instructions).
    pub issued_lanes: u32,
    /// A thread block that retired as a result of this issue.
    pub retired: Option<TbId>,
    /// The retired block's accumulated feature counters (meaningful only
    /// when `retired` is `Some`; zeroed otherwise). Streamed to the
    /// sampling hook so live mode needs no separate profiling pass.
    pub retired_stats: TbStats,
}

/// One SM core.
pub struct SmCore {
    /// This SM's index (selects its L1/MSHRs in the memory system).
    pub id: usize,
    slots: Vec<Option<ResidentBlock>>,
    /// Free slot indices, min-first — `free_slot` must keep returning the
    /// *lowest* free index (slot order feeds the round-robin scheduler,
    /// so any other order would perturb issue order).
    free_slots: BinaryHeap<Reverse<u32>>,
    /// Resident-block count, maintained at dispatch/retire so occupancy
    /// queries stop scanning `slots`.
    resident: u32,
    /// Conservative lower bound on the next cycle at which some warp
    /// could issue; `u64::MAX` when nothing is issueable. Lowered at
    /// dispatch, reset to `now` on every issue, raised to the exact
    /// candidate minimum by a failed scheduling scan. `try_issue` returns
    /// without scanning while `now < ready_hint`.
    ready_hint: u64,
    /// Event-horizon switch: when false, `try_issue` always scans (the
    /// pre-optimisation reference behaviour golden tests compare against).
    use_hint: bool,
    rr_cursor: usize,
    gto_current: Option<(usize, usize)>,
    sched: SchedPolicy,
    alu_latency: u64,
    sfu_latency: u64,
    smem_latency: u64,
    /// Warp instructions issued by this SM.
    pub issued_warp_insts: u64,
    /// Thread instructions issued by this SM.
    pub issued_thread_insts: u64,
    /// Full per-SM statistics (mix, residency, retirements).
    pub stats: SmStats,
}

impl SmCore {
    /// An empty SM with `occupancy` block slots.
    pub fn new(id: usize, occupancy: u32, cfg: &GpuConfig) -> Self {
        SmCore {
            id,
            slots: (0..occupancy).map(|_| None).collect(),
            free_slots: (0..occupancy).map(Reverse).collect(),
            resident: 0,
            ready_hint: u64::MAX,
            use_hint: true,
            rr_cursor: 0,
            gto_current: None,
            sched: cfg.sched,
            alu_latency: cfg.alu_latency as u64,
            sfu_latency: cfg.sfu_latency as u64,
            smem_latency: cfg.smem_latency as u64,
            issued_warp_insts: 0,
            issued_thread_insts: 0,
            stats: SmStats::default(),
        }
    }

    /// Index of a free block slot, if any — always the lowest free index,
    /// matching the linear scan this replaced.
    pub fn free_slot(&self) -> Option<usize> {
        self.free_slots.peek().map(|&Reverse(s)| s as usize)
    }

    /// Number of resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.resident as usize
    }

    /// Disable the `ready_hint` fast path so every `try_issue` performs a
    /// full scheduling scan (the cycle-stepped reference the bit-identity
    /// golden suite compares the event horizon against).
    #[doc(hidden)]
    pub fn set_event_horizon(&mut self, on: bool) {
        self.use_hint = on;
    }

    /// Remove `slot` from the free pool (it is about to be occupied).
    fn take_free_slot(&mut self, slot: usize) {
        match self.free_slots.peek() {
            // The dispatcher grabs slots via `free_slot`, so the common
            // case is popping the minimum.
            Some(&Reverse(s)) if s as usize == slot => {
                self.free_slots.pop();
            }
            _ => {
                let mut v = std::mem::take(&mut self.free_slots).into_vec();
                v.retain(|&Reverse(s)| s as usize != slot);
                self.free_slots = v.into();
            }
        }
    }

    /// Materialise (or intern) traces for `tb_id` and install it in
    /// `slot`; the block's warps first become ready at `start` (>= now),
    /// letting the dispatcher stagger the initial fill.
    ///
    /// Returns `Some(tb_id)` immediately if every warp's trace is empty
    /// (the block retires without issuing anything).
    // Eight arguments: the dispatcher's full per-block context. Bundling
    // them into a one-shot struct would only move the same fields.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch(
        &mut self,
        slot: usize,
        kernel: &Kernel,
        ctx: ExecCtx,
        tb_id: TbId,
        now: u64,
        start: u64,
        arena: &mut TraceArena,
    ) -> Option<TbId> {
        assert!(self.slots[slot].is_none(), "dispatch into occupied slot");
        let mut warps = Vec::with_capacity(kernel.warps_per_block() as usize);
        for w in 0..kernel.warps_per_block() {
            let trace = arena.warp_trace(kernel, &ctx, w);
            let done = trace.is_empty();
            warps.push(WarpRt {
                trace,
                pc: 0,
                ready_at: now.max(start),
                at_barrier: false,
                done,
                gtid_base: ctx.block_id as u64 * kernel.threads_per_block as u64 + w as u64 * 32,
                birth: now,
            });
        }
        // warps.len() <= warps_per_block: u32 by construction.
        #[allow(clippy::cast_possible_truncation)]
        let live = warps.iter().filter(|w| !w.done).count() as u32;
        if live == 0 {
            return Some(tb_id); // degenerate block, retires instantly
        }
        self.take_free_slot(slot);
        self.resident += 1;
        // New warps wake at `start` — lower the hint so the fast path
        // cannot skip past them.
        self.ready_hint = self.ready_hint.min(now.max(start));
        self.slots[slot] = Some(ResidentBlock {
            tb_id,
            ctx,
            warps,
            live,
            at_barrier: 0,
            stats: TbStats::default(),
        });
        None
    }

    /// Select a warp to issue at `now`, maintaining `ready_hint` as a
    /// side effect: a successful pick resets it to `now` (forcing a full
    /// scan next cycle, so scheduler bookkeeping such as `gto_current`
    /// stays exactly as in the always-scan reference), and a failed scan
    /// raises it to the exact minimum `ready_at` among candidate warps
    /// (`u64::MAX` when none exist).
    // tbpoint-hot
    fn pick_warp(&mut self, now: u64) -> Option<(usize, usize)> {
        let ready = |w: &WarpRt| !w.done && !w.at_barrier && w.ready_at <= now;
        // Flatten candidates as (slot, warp) pairs.
        let picked = match self.sched {
            SchedPolicy::RoundRobin => 'rr: {
                // Walk (slot, warp) pairs starting from the cursor; the
                // cursor advances past each issued warp, giving loose
                // round-robin. Fixed-capacity scratch avoids allocating on
                // the issue path (resident warps <= max_warps_per_sm).
                let mut order = [(0u16, 0u16); 128];
                let mut len = 0usize;
                for (s, blk) in self.slots.iter().enumerate() {
                    if let Some(b) = blk {
                        for w in 0..b.warps.len() {
                            if len < order.len() {
                                // Slot and warp counts are both < 128.
                                #[allow(clippy::cast_possible_truncation)]
                                {
                                    order[len] = (s as u16, w as u16);
                                }
                                len += 1;
                            }
                        }
                    }
                }
                if len == 0 {
                    break 'rr None;
                }
                let start = self.rr_cursor % len;
                let mut pick = None;
                let mut wake = u64::MAX;
                for k in 0..len {
                    let (s, w) = order[(start + k) % len];
                    let (s, w) = (s as usize, w as usize);
                    // `order` only names occupied slots.
                    let Some(b) = self.slots[s].as_ref() else {
                        continue;
                    };
                    let warp = &b.warps[w];
                    if ready(warp) {
                        self.rr_cursor = (start + k + 1) % len;
                        pick = Some((s, w));
                        break;
                    }
                    if !warp.done && !warp.at_barrier {
                        wake = wake.min(warp.ready_at);
                    }
                }
                if pick.is_none() {
                    self.ready_hint = wake;
                }
                pick
            }
            SchedPolicy::Gto => 'gto: {
                // Stick with the current warp while it is ready.
                if let Some((s, w)) = self.gto_current {
                    if let Some(b) = self.slots[s].as_ref() {
                        if w < b.warps.len() && ready(&b.warps[w]) {
                            break 'gto Some((s, w));
                        }
                    }
                }
                // Otherwise the oldest ready warp.
                let mut best: Option<(u64, usize, usize)> = None;
                let mut wake = u64::MAX;
                for (s, blk) in self.slots.iter().enumerate() {
                    if let Some(b) = blk {
                        for (w, warp) in b.warps.iter().enumerate() {
                            if ready(warp) {
                                if best.is_none_or(|(bb, _, _)| warp.birth < bb) {
                                    best = Some((warp.birth, s, w));
                                }
                            } else if !warp.done && !warp.at_barrier {
                                wake = wake.min(warp.ready_at);
                            }
                        }
                    }
                }
                let pick = best.map(|(_, s, w)| (s, w));
                self.gto_current = pick;
                if pick.is_none() {
                    self.ready_hint = wake;
                }
                pick
            }
        };
        if picked.is_some() {
            self.ready_hint = now;
        }
        picked
    }

    /// Attempt to issue one warp instruction at cycle `now`.
    pub fn try_issue(&mut self, now: u64, mem: &mut MemorySystem) -> IssueResult {
        self.try_issue_obs(now, mem, &NullRecorder)
    }

    /// [`SmCore::try_issue`] with observability: issue counters plus the
    /// cache/DRAM events the memory system emits. Monomorphised over the
    /// recorder, so `NullRecorder` compiles the instrumentation away.
    // tbpoint-hot
    pub fn try_issue_obs<R: Recorder + ?Sized>(
        &mut self,
        now: u64,
        mem: &mut MemorySystem,
        rec: &R,
    ) -> IssueResult {
        // Event-horizon fast path. `now < ready_hint` implies a *failed*
        // scan already ran since the last issue (issuing resets the hint
        // to its cycle, so the first attempt after it always scans) and
        // proved no warp wakes before `ready_hint`; nothing lowers the
        // hint below `now` except dispatch, which maintains it. A repeat
        // scan would fail again and failed scans are idempotent (the
        // first one already cleared `gto_current`), so skipping them is
        // free of observable effects.
        if self.use_hint && now < self.ready_hint {
            return IssueResult {
                issued_bb: None,
                issued_lanes: 0,
                retired: None,
                retired_stats: TbStats::default(),
            };
        }
        let Some((s, w)) = self.pick_warp(now) else {
            return IssueResult {
                issued_bb: None,
                issued_lanes: 0,
                retired: None,
                retired_stats: TbStats::default(),
            };
        };
        // pick_warp only returns occupied slots; an empty one issues nothing.
        let Some(block) = self.slots[s].as_mut() else {
            return IssueResult {
                issued_bb: None,
                issued_lanes: 0,
                retired: None,
                retired_stats: TbStats::default(),
            };
        };
        let ctx = block.ctx;
        let warp = &mut block.warps[w];
        let inst = warp.trace[warp.pc];
        warp.pc += 1;
        self.issued_warp_insts += 1;
        let lanes = inst.mask.count_ones();
        self.issued_thread_insts += lanes as u64;
        block.stats.warp_insts += 1;
        block.stats.thread_insts += lanes as u64;
        self.stats.issued_warp_insts += 1;
        self.stats.issued_thread_insts += lanes as u64;
        self.stats.mix.record(inst.op.latency_class());
        rec.counter("issued_warp_insts", 1);

        match inst.op.latency_class() {
            LatencyClass::Alu => warp.ready_at = now + self.alu_latency,
            LatencyClass::Sfu => warp.ready_at = now + self.sfu_latency,
            LatencyClass::SharedMem => warp.ready_at = now + self.smem_latency,
            LatencyClass::GlobalMem => {
                // Every GlobalMem op carries a pattern by construction of
                // the IR; a missing one degrades to ALU latency instead of
                // aborting the simulation.
                if let Some(pat) = inst.op.addr_pattern() {
                    let lines = pat.coalesced_lines(
                        &ctx,
                        warp.gtid_base,
                        inst.mask,
                        inst.iter_key,
                        inst.site,
                    );
                    // Same count the profiler records: coalesced lines,
                    // loads and stores alike.
                    block.stats.mem_requests += lines.len() as u64;
                    let is_store = matches!(inst.op, Op::StGlobal(_));
                    if is_store {
                        for line in lines.iter() {
                            mem.store_obs(self.id, line, now, rec);
                        }
                        // Fire-and-forget: the warp only pays issue latency.
                        warp.ready_at = now + self.alu_latency;
                    } else {
                        let mut done_at = now + self.alu_latency;
                        for line in lines.iter() {
                            done_at = done_at.max(mem.load_obs(self.id, line, now, rec));
                        }
                        warp.ready_at = done_at;
                        self.stats.load_latency_sum += done_at - now;
                        self.stats.loads_waited += 1;
                        rec.counter("load_wait_cycles", done_at - now);
                    }
                } else {
                    warp.ready_at = now + self.alu_latency;
                }
            }
            LatencyClass::Barrier => {
                warp.at_barrier = true;
                warp.ready_at = now + 1;
                block.at_barrier += 1;
            }
        }

        // Trace exhausted?
        let mut retired = None;
        let mut retired_stats = TbStats::default();
        if warp.pc >= warp.trace.len() {
            warp.done = true;
            // A warp cannot end on an unreleased barrier (validated IR),
            // but guard the accounting anyway.
            if warp.at_barrier {
                warp.at_barrier = false;
                block.at_barrier -= 1;
            }
            block.live -= 1;
            if block.live == 0 {
                retired = Some(block.tb_id);
                retired_stats = block.stats;
                self.stats.blocks_retired += 1;
                self.slots[s] = None;
                self.resident -= 1;
                // Slot indices are occupancy-bounded (tens), far below u32.
                #[allow(clippy::cast_possible_truncation)]
                self.free_slots.push(Reverse(s as u32));
                if self.gto_current == Some((s, w)) {
                    self.gto_current = None;
                }
            }
        }

        // Barrier release: all live warps arrived.
        if let Some(b) = self.slots[s].as_mut() {
            if b.at_barrier > 0 && b.at_barrier == b.live {
                for warp in &mut b.warps {
                    if warp.at_barrier {
                        warp.at_barrier = false;
                        warp.ready_at = warp.ready_at.max(now + 1);
                    }
                }
                b.at_barrier = 0;
            }
        }

        IssueResult {
            issued_bb: Some(inst.bb),
            issued_lanes: lanes,
            retired,
            retired_stats,
        }
    }

    /// The earliest cycle at which some warp could issue, or `None` when
    /// the SM has nothing issueable (empty, or everything at a barrier
    /// that cannot release without external progress — impossible for
    /// validated kernels).
    pub fn next_ready(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        for blk in self.slots.iter().flatten() {
            for w in &blk.warps {
                if !w.done && !w.at_barrier {
                    best = Some(best.map_or(w.ready_at, |b: u64| b.min(w.ready_at)));
                }
            }
        }
        best
    }

    /// The maintained lower bound on this SM's next issueable cycle
    /// (`u64::MAX` when nothing is issueable). Exact whenever the last
    /// scheduling scan failed — which is the case on every SM when the
    /// machine as a whole is idle, making `min` over the hints the global
    /// event horizon the cycle loop can jump to.
    pub fn ready_hint(&self) -> u64 {
        self.ready_hint
    }

    /// True when no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Credit `delta` cycles of residency if any block is resident
    /// (called by the simulator's cycle loop, including over skipped
    /// idle spans).
    pub fn credit_resident_cycles(&mut self, delta: u64) {
        if !self.is_empty() {
            self.stats.resident_cycles += delta;
        }
    }
}
