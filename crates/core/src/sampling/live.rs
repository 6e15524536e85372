//! Live single-pass sampling: region detection *during* the timing
//! simulation, with no profiling pass.
//!
//! The two-phase pipeline learns each thread block's features (stall
//! probability, instruction count) from the emulator profile, clusters
//! epochs offline, and only then simulates. The live sampler instead
//! consumes the same per-TB feature counters as they stream out of the
//! simulator's retire hook ([`tbpoint_sim::SamplingHook::on_retire_stats`])
//! and rebuilds the epoch/cluster/region structure on the fly:
//!
//! * **Epochs** are `occupancy`-sized runs of consecutive TB ids, exactly
//!   as in the offline [`crate::intra::build_epochs`]. An epoch is
//!   *complete* once every one of its blocks has either retired (with
//!   feature counters) or been skipped; completed epochs are classified
//!   in index order.
//! * **Online clustering** is leader clustering on the epoch's mean
//!   stall probability: an epoch joins the first cluster whose running
//!   centre is within a relative `sigma` band, otherwise it founds a new
//!   cluster (`LiveEpochDetected` event either way).
//! * **Warming** starts after `min_run` consecutive epochs land in the
//!   same (non-abandoned) cluster, and reuses the designated-TB
//!   sampling-unit machinery of [`crate::sampling::RegionSampler`]: once
//!   the trailing `warming_window` unit IPCs agree pairwise within the
//!   warming threshold, fast-forwarding begins (`LiveFastForward`).
//! * **Fast-forwarding** skips dispatched blocks, predicting their
//!   cycles as `estimated insts / unit IPC`. Every `guard_period`-th
//!   dispatch is simulated as a *guard*; a guard whose stall probability
//!   strays more than `destab_tolerance` (relative) from the cluster
//!   centre — or a completed epoch that classifies into a different
//!   cluster — *destabilises* the sampler (`LiveDestabilised`) and
//!   returns it to detailed simulation.
//!
//! Degradation rides the existing ladder: a cluster whose warming budget
//! runs out is abandoned with a `DegradedMode` event and its blocks stay
//! on the detailed path, exactly like an abandoned offline region.
//!
//! Skipped-block instruction counts are *estimates*: exact when the
//! kernel is block-invariant (identical traces per TB, known from
//! [`tbpoint_emu::TraceDeps::block_invariant`]), otherwise the running
//! mean instruction count of the cluster's simulated blocks.

use crate::error::{invalid, TbError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use tbpoint_emu::TbStats;
use tbpoint_ir::TbId;
use tbpoint_obs::{DegradeReason, EventKind, NullRecorder, Recorder};
use tbpoint_sim::{DispatchDecision, SamplingHook};

/// Relative-band floor: clusters whose centre is (near) zero still accept
/// exactly-zero epochs without the band collapsing to nothing.
const EPS: f64 = 1e-9;

/// Accounting produced by one live-sampled launch (the single-pass
/// analogue of [`crate::sampling::IntraOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LiveOutcome {
    /// Thread blocks skipped during fast-forward periods.
    pub skipped_tbs: u32,
    /// *Estimated* warp instructions belonging to skipped blocks (exact
    /// for block-invariant kernels, cluster running mean otherwise).
    pub skipped_warp_insts: u64,
    /// Predicted cycles those instructions would have taken, from the
    /// last warm sampling unit's IPC.
    pub predicted_skipped_cycles: f64,
    /// Sampling units completed (diagnostic).
    pub units_observed: u32,
    /// Epochs completed and classified (diagnostic).
    pub epochs_classified: u32,
    /// Distinct clusters discovered online (diagnostic).
    pub clusters_discovered: u32,
    /// Warming phases entered (the live analogue of regions entered).
    pub regions_entered: u32,
    /// Guard blocks simulated during fast-forward periods.
    pub guard_tbs: u32,
    /// Fast-forward periods cut short because a guard block (or a fresh
    /// epoch) no longer matched the cluster.
    pub destabilisations: u32,
    /// Clusters abandoned because their IPC failed to stabilise within
    /// the warming budget (each abandonment is a `DegradedMode` event).
    pub degraded_regions: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Outside,
    Warming(u32),
    FastForward { cluster: u32, ipc: f64 },
}

/// Running statistics of one online cluster.
#[derive(Debug, Clone, Copy)]
struct Cluster {
    /// Running mean of member epochs' mean stall probability.
    center: f64,
    /// Epochs assigned so far (with at least one simulated block).
    epochs: u32,
    /// Total warp instructions of simulated member blocks.
    sum_insts: u64,
    /// Simulated member blocks.
    sim_tbs: u64,
    /// Warming budget ran out: never warm this cluster again.
    abandoned: bool,
}

/// Per-epoch completion accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct EpochAcc {
    /// Blocks retired or skipped.
    done: u32,
    /// Blocks retired with feature counters.
    sim_count: u32,
    /// Sum of simulated blocks' stall probabilities.
    sum_p: f64,
    /// Sum of simulated blocks' warp instructions.
    sum_insts: u64,
}

/// The live sampling hook. Plug into [`tbpoint_sim::simulate_launch`];
/// needs no profile and no region table — only the launch's block count
/// and the GPU's system occupancy.
///
/// Construct with [`LiveSampler::builder`].
pub struct LiveSampler<'a> {
    occupancy: u32,
    num_blocks: u32,
    block_invariant: bool,
    sigma: f64,
    warming_threshold: f64,
    unit_tb_span: u32,
    warming_window: usize,
    warming_budget: Option<u32>,
    min_run: u32,
    guard_period: u32,
    destab_tolerance: f64,
    recorder: &'a dyn Recorder,

    state: State,
    epochs: Vec<EpochAcc>,
    next_epoch: u32,
    clusters: Vec<Cluster>,
    last_cluster: Option<u32>,
    run_cluster: Option<u32>,
    run_len: u32,
    guards: BTreeSet<u32>,
    ff_dispatch_idx: u64,
    exact_insts: Option<u64>,
    global_sum_insts: u64,
    global_sim_tbs: u64,
    designated: Option<u32>,
    need_designation: bool,
    unit_tbs_retired: u32,
    unit_start_cycle: u64,
    unit_start_insts: u64,
    warm_ipcs: Vec<f64>,
    outcome: LiveOutcome,
}

/// Builder for [`LiveSampler`]. Settings left untouched keep the paper's
/// two-phase defaults plus the live-mode defaults of
/// [`crate::predict::TbpointConfig`]; [`LiveSamplerBuilder::build`]
/// validates and reports nonsense values as [`TbError::InvalidConfig`].
pub struct LiveSamplerBuilder<'a> {
    occupancy: u32,
    num_blocks: u32,
    block_invariant: bool,
    sigma: f64,
    threshold: f64,
    unit_tb_span: u32,
    warming_window: usize,
    warming_budget: Option<u32>,
    min_run: u32,
    guard_period: u32,
    destab_tolerance: f64,
    recorder: &'a dyn Recorder,
}

impl<'a> LiveSamplerBuilder<'a> {
    /// The kernel's traces are identical for every thread block (from
    /// [`tbpoint_emu::TraceDeps::block_invariant`]): skipped-block
    /// instruction counts are then *exact*, taken from the first retired
    /// block. Otherwise they are the cluster's running mean.
    pub fn block_invariant(mut self, invariant: bool) -> Self {
        self.block_invariant = invariant;
        self
    }

    /// Relative band of the online leader clustering (reuses the offline
    /// `intra.sigma`, default 0.2). Must be finite and positive.
    pub fn sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// Warming convergence threshold (paper: 0.10). Must be finite and
    /// positive.
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Designated-TB lifetimes per sampling unit (see
    /// [`crate::sampling::DEFAULT_UNIT_TB_SPAN`]). Must be at least 1.
    pub fn unit_tb_span(mut self, span: u32) -> Self {
        self.unit_tb_span = span;
        self
    }

    /// Trailing units that must agree pairwise before fast-forwarding
    /// (see [`crate::sampling::WARMING_WINDOW`]). Must be at least 2.
    pub fn warming_window(mut self, window: usize) -> Self {
        self.warming_window = window;
        self
    }

    /// Bound the warming phase: a cluster whose per-unit IPC has not
    /// converged after this many closed units is *abandoned* (a
    /// `DegradedMode` event; its blocks simulate in detail). `None`
    /// warms indefinitely.
    pub fn warming_budget(mut self, budget: Option<u32>) -> Self {
        self.warming_budget = budget;
        self
    }

    /// Consecutive same-cluster epochs required before warming starts.
    /// Must be at least 1.
    pub fn min_run(mut self, min_run: u32) -> Self {
        self.min_run = min_run;
        self
    }

    /// During fast-forward, every `period`-th dispatched block is
    /// simulated as a guard instead of skipped. Must be at least 1 (1
    /// means every block is a guard — i.e. no skipping at all).
    pub fn guard_period(mut self, period: u32) -> Self {
        self.guard_period = period;
        self
    }

    /// Relative deviation of a guard block's stall probability from the
    /// cluster centre that destabilises the fast-forward. Must be finite
    /// and positive.
    pub fn destab_tolerance(mut self, tolerance: f64) -> Self {
        self.destab_tolerance = tolerance;
        self
    }

    /// Attach a [`Recorder`]; every epoch classification, state
    /// transition and skipped block is reported to it. The default is
    /// the free [`NullRecorder`].
    pub fn recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Validate the settings and build the sampler.
    ///
    /// # Errors
    ///
    /// [`TbError::InvalidConfig`] naming the offending field when the
    /// occupancy is zero, a band/threshold is non-finite or non-positive,
    /// `unit_tb_span`, `live_min_run` or `live_guard_period` is zero, or
    /// `warming_window` is below 2.
    pub fn build(self) -> Result<LiveSampler<'a>, TbError> {
        if self.occupancy == 0 {
            return Err(invalid("occupancy", "must be at least 1 (got 0)"));
        }
        if !self.sigma.is_finite() || self.sigma <= 0.0 {
            return Err(invalid(
                "intra.sigma",
                format!("must be finite and positive (got {})", self.sigma),
            ));
        }
        if !self.threshold.is_finite() || self.threshold <= 0.0 {
            return Err(invalid(
                "warming_threshold",
                format!("must be finite and positive (got {})", self.threshold),
            ));
        }
        if self.unit_tb_span == 0 {
            return Err(invalid("unit_tb_span", "must be at least 1 (got 0)"));
        }
        if self.warming_window < 2 {
            return Err(invalid(
                "warming_window",
                format!(
                    "needs at least 2 units to compare (got {})",
                    self.warming_window
                ),
            ));
        }
        if let Some(budget) = self.warming_budget {
            if (budget as usize) < self.warming_window {
                return Err(invalid(
                    "warming_budget",
                    format!(
                        "must allow at least warming_window = {} units (got {budget})",
                        self.warming_window
                    ),
                ));
            }
        }
        if self.min_run == 0 {
            return Err(invalid("live_min_run", "must be at least 1 (got 0)"));
        }
        if self.guard_period == 0 {
            return Err(invalid("live_guard_period", "must be at least 1 (got 0)"));
        }
        if !self.destab_tolerance.is_finite() || self.destab_tolerance <= 0.0 {
            return Err(invalid(
                "live_destab_tolerance",
                format!(
                    "must be finite and positive (got {})",
                    self.destab_tolerance
                ),
            ));
        }
        let n_epochs = self.num_blocks.div_ceil(self.occupancy);
        Ok(LiveSampler {
            occupancy: self.occupancy,
            num_blocks: self.num_blocks,
            block_invariant: self.block_invariant,
            sigma: self.sigma,
            warming_threshold: self.threshold,
            unit_tb_span: self.unit_tb_span,
            warming_window: self.warming_window,
            warming_budget: self.warming_budget,
            min_run: self.min_run,
            guard_period: self.guard_period,
            destab_tolerance: self.destab_tolerance,
            recorder: self.recorder,
            state: State::Outside,
            epochs: vec![EpochAcc::default(); n_epochs as usize],
            next_epoch: 0,
            clusters: Vec::new(),
            last_cluster: None,
            run_cluster: None,
            run_len: 0,
            guards: BTreeSet::new(),
            ff_dispatch_idx: 0,
            exact_insts: None,
            global_sum_insts: 0,
            global_sim_tbs: 0,
            designated: None,
            need_designation: true,
            unit_tbs_retired: 0,
            unit_start_cycle: 0,
            unit_start_insts: 0,
            warm_ipcs: Vec::new(),
            outcome: LiveOutcome::default(),
        })
    }
}

impl<'a> LiveSampler<'a> {
    /// Start building a live sampler for a launch of `num_blocks` thread
    /// blocks on a GPU with `occupancy` concurrently resident blocks
    /// (from [`tbpoint_sim::GpuConfig::system_occupancy`]).
    pub fn builder(num_blocks: u32, occupancy: u32) -> LiveSamplerBuilder<'a> {
        LiveSamplerBuilder {
            occupancy,
            num_blocks,
            block_invariant: false,
            sigma: 0.2,
            threshold: 0.10,
            unit_tb_span: crate::sampling::DEFAULT_UNIT_TB_SPAN,
            warming_window: crate::sampling::WARMING_WINDOW,
            warming_budget: None,
            min_run: 2,
            guard_period: 8,
            destab_tolerance: 0.5,
            recorder: &NullRecorder,
        }
    }

    /// The accounting gathered so far (read after simulation).
    pub fn outcome(&self) -> LiveOutcome {
        self.outcome
    }

    /// Blocks in epoch `e` (the last epoch may be ragged).
    fn epoch_size(&self, e: u32) -> u32 {
        let start = e * self.occupancy;
        (self.num_blocks - start).min(self.occupancy)
    }

    /// Leader clustering: the first cluster whose centre is within the
    /// relative `sigma` band wins; otherwise a new cluster is founded.
    fn assign(&mut self, p: f64) -> u32 {
        let mut id = 0u32;
        for c in &self.clusters {
            if (p - c.center).abs() <= self.sigma * c.center.max(EPS) {
                return id;
            }
            id += 1;
        }
        self.clusters.push(Cluster {
            center: p,
            epochs: 0,
            sum_insts: 0,
            sim_tbs: 0,
            abandoned: false,
        });
        self.outcome.clusters_discovered += 1;
        id
    }

    /// Estimated warp instructions of one skipped block.
    fn estimate_insts(&self, cluster: u32) -> u64 {
        if let Some(exact) = self.exact_insts {
            return exact;
        }
        let c = &self.clusters[cluster as usize];
        if let Some(avg) = c.sum_insts.checked_div(c.sim_tbs) {
            return avg;
        }
        self.global_sum_insts
            .checked_div(self.global_sim_tbs)
            .unwrap_or(0)
    }

    fn exit_region(&mut self, cycle: u64) {
        self.state = State::Outside;
        self.warm_ipcs.clear();
        self.recorder.record(cycle, EventKind::RegionExited);
    }

    fn destabilise(&mut self, cycle: u64, cluster: u32) {
        self.state = State::Outside;
        self.warm_ipcs.clear();
        self.run_cluster = None;
        self.run_len = 0;
        self.outcome.destabilisations += 1;
        self.recorder
            .record(cycle, EventKind::LiveDestabilised { cluster });
    }

    /// Classify the completed epoch `e` and run the state transitions it
    /// triggers.
    fn classify_epoch(&mut self, e: u32, cycle: u64) {
        let acc = self.epochs[e as usize];
        let cluster = if acc.sim_count == 0 {
            // Fully skipped epoch: nothing measurable; it inherits the
            // cluster we are fast-forwarding through. (`last_cluster` is
            // always set here — skipping requires an earlier classified
            // epoch — but classify an all-zero feature defensively.)
            match self.last_cluster {
                Some(c) => c,
                None => self.assign(0.0),
            }
        } else {
            self.assign(acc.sum_p / f64::from(acc.sim_count))
        };
        if acc.sim_count > 0 {
            let c = &mut self.clusters[cluster as usize];
            c.epochs += 1;
            let p = acc.sum_p / f64::from(acc.sim_count);
            c.center += (p - c.center) / f64::from(c.epochs);
            c.sum_insts += acc.sum_insts;
            c.sim_tbs += u64::from(acc.sim_count);
        }
        self.outcome.epochs_classified += 1;
        self.recorder
            .record(cycle, EventKind::LiveEpochDetected { epoch: e, cluster });
        self.last_cluster = Some(cluster);
        if self.run_cluster == Some(cluster) {
            self.run_len += 1;
        } else {
            self.run_cluster = Some(cluster);
            self.run_len = 1;
        }
        match self.state {
            State::Outside => {
                if self.run_len >= self.min_run && !self.clusters[cluster as usize].abandoned {
                    self.state = State::Warming(cluster);
                    self.warm_ipcs.clear();
                    self.outcome.regions_entered += 1;
                    self.recorder
                        .record(cycle, EventKind::RegionEntered { region: cluster });
                }
            }
            State::Warming(c) => {
                if cluster != c {
                    self.exit_region(cycle);
                }
            }
            State::FastForward { cluster: c, .. } => {
                // An epoch with real measurements landing in a different
                // cluster is as good a destabilisation signal as a stray
                // guard block.
                if acc.sim_count > 0 && cluster != c {
                    self.destabilise(cycle, c);
                }
            }
        }
    }

    /// One block of its epoch is accounted for (retired or skipped);
    /// classify any epochs this completes, in index order.
    fn epoch_done(&mut self, tb: TbId, cycle: u64, stats: Option<TbStats>) {
        let e = tb.0 / self.occupancy;
        let acc = &mut self.epochs[e as usize];
        acc.done += 1;
        if let Some(s) = stats {
            acc.sim_count += 1;
            acc.sum_p += s.stall_probability();
            acc.sum_insts += s.warp_insts;
            if self.block_invariant && self.exact_insts.is_none() {
                self.exact_insts = Some(s.warp_insts);
            }
            self.global_sum_insts += s.warp_insts;
            self.global_sim_tbs += 1;
        }
        while self.next_epoch < self.num_blocks.div_ceil(self.occupancy)
            && self.epochs[self.next_epoch as usize].done == self.epoch_size(self.next_epoch)
        {
            let e = self.next_epoch;
            self.next_epoch += 1;
            self.classify_epoch(e, cycle);
        }
    }
}

impl SamplingHook for LiveSampler<'_> {
    fn on_dispatch(&mut self, tb: TbId, cycle: u64, issued: u64) -> DispatchDecision {
        if let State::FastForward { cluster, ipc } = self.state {
            let guard = self
                .ff_dispatch_idx
                .is_multiple_of(u64::from(self.guard_period));
            self.ff_dispatch_idx += 1;
            if guard {
                self.guards.insert(tb.0);
                self.outcome.guard_tbs += 1;
                // Fall through: simulated like any other block.
            } else {
                let est = self.estimate_insts(cluster);
                self.outcome.skipped_tbs += 1;
                self.outcome.skipped_warp_insts += est;
                if ipc > 0.0 {
                    self.outcome.predicted_skipped_cycles += est as f64 / ipc;
                }
                self.recorder.record(
                    cycle,
                    EventKind::BlockSkipped {
                        tb: tb.0,
                        warp_insts: est,
                    },
                );
                self.epoch_done(tb, cycle, None);
                return DispatchDecision::Skip;
            }
        }
        if self.need_designation {
            self.designated = Some(tb.0);
            self.need_designation = false;
            // The unit's clock starts with its first designated TB only;
            // later designated TBs extend the same unit.
            if self.unit_tbs_retired == 0 {
                self.unit_start_cycle = cycle;
                self.unit_start_insts = issued;
            }
        }
        DispatchDecision::Simulate
    }

    fn on_retire(&mut self, tb: TbId, cycle: u64, issued: u64) {
        // The simulator always calls `on_retire_stats`; this path only
        // serves hand-driven hooks, with empty feature counters.
        self.on_retire_stats(tb, cycle, issued, TbStats::default());
    }

    fn on_retire_stats(&mut self, tb: TbId, cycle: u64, issued: u64, stats: TbStats) {
        if self.guards.remove(&tb.0) {
            if let State::FastForward { cluster, .. } = self.state {
                let center = self.clusters[cluster as usize].center;
                let p = stats.stall_probability();
                if (p - center).abs() > self.destab_tolerance * center.max(EPS) {
                    self.destabilise(cycle, cluster);
                }
            }
        }

        if self.designated == Some(tb.0) {
            // A designated TB retired; the next simulated dispatch takes
            // over. The unit closes after `unit_tb_span` such lifetimes.
            self.designated = None;
            self.need_designation = true;
            self.unit_tbs_retired += 1;
            if self.unit_tbs_retired >= self.unit_tb_span {
                self.unit_tbs_retired = 0;
                let cycles = cycle.saturating_sub(self.unit_start_cycle);
                let insts = issued.saturating_sub(self.unit_start_insts);
                if cycles > 0 && insts > 0 {
                    let unit_ipc = insts as f64 / cycles as f64;
                    self.outcome.units_observed += 1;
                    self.recorder
                        .record(cycle, EventKind::UnitClosed { ipc: unit_ipc });
                    if let State::Warming(c) = self.state {
                        self.warm_ipcs.push(unit_ipc);
                        // Same trailing-window convergence criterion as
                        // the two-phase RegionSampler: the last
                        // `warming_window` unit IPCs must agree pairwise
                        // within the band.
                        let n = self.warm_ipcs.len();
                        let mut converged = false;
                        if n >= self.warming_window {
                            let window = &self.warm_ipcs[n - self.warming_window..];
                            let lo = window.iter().cloned().fold(f64::INFINITY, f64::min);
                            let hi = window.iter().cloned().fold(0.0f64, f64::max);
                            if lo > 0.0 && (hi - lo) / lo < self.warming_threshold {
                                converged = true;
                                self.state = State::FastForward {
                                    cluster: c,
                                    ipc: unit_ipc,
                                };
                                self.ff_dispatch_idx = 0;
                                self.recorder.record(
                                    cycle,
                                    EventKind::LiveFastForward {
                                        cluster: c,
                                        ipc: unit_ipc,
                                    },
                                );
                            }
                        }
                        if !converged {
                            if let Some(budget) = self.warming_budget {
                                if n >= budget as usize {
                                    self.clusters[c as usize].abandoned = true;
                                    self.outcome.degraded_regions += 1;
                                    self.recorder.record(
                                        cycle,
                                        EventKind::DegradedMode {
                                            reason: DegradeReason::WarmingBudgetExceeded {
                                                region: c,
                                            },
                                        },
                                    );
                                    self.exit_region(cycle);
                                }
                            }
                        }
                    }
                }
            }
        }

        self.epoch_done(tb, cycle, Some(stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_emu::{profile_launch, TraceDeps};
    use tbpoint_ir::{AddrPattern, Kernel, KernelBuilder, LaunchId, LaunchSpec, Op, TripCount};
    use tbpoint_obs::CollectingRecorder;
    use tbpoint_sim::{simulate_launch, GpuConfig, NullSampling};

    fn homogeneous_kernel() -> Kernel {
        let mut b = KernelBuilder::new("homog", 31, 128);
        let body = b.block(&[
            Op::IAlu,
            Op::FAlu,
            Op::LdGlobal(AddrPattern::Coalesced {
                region: 0,
                stride: 4,
            }),
        ]);
        let n = b.loop_(TripCount::Const(30), body);
        b.finish(n)
    }

    fn spec(n: u32) -> LaunchSpec {
        LaunchSpec {
            launch_id: LaunchId(0),
            num_blocks: n,
            work_scale: 1.0,
        }
    }

    fn live_sampler_for<'a>(k: &Kernel, gpu: &GpuConfig, n: u32) -> LiveSampler<'a> {
        LiveSampler::builder(n, gpu.system_occupancy(k))
            .block_invariant(TraceDeps::of(k).block_invariant())
            .build()
            .unwrap()
    }

    #[test]
    fn homogeneous_launch_gets_fast_forwarded_live() {
        let k = homogeneous_kernel();
        let gpu = GpuConfig::fermi();
        let sp = spec(3000);
        let mut sampler = live_sampler_for(&k, &gpu, 3000);
        let r = simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let out = sampler.outcome();
        assert!(out.skipped_tbs > 0, "fast-forward must engage: {out:?}");
        assert_eq!(r.skipped_tbs, out.skipped_tbs);
        assert!(out.epochs_classified > 0);
        assert_eq!(out.clusters_discovered, 1, "homogeneous -> one cluster");
        assert_eq!(out.destabilisations, 0);
        // Block-invariant kernel: skipped-inst accounting is exact.
        let profile = profile_launch(&k, &sp, 1);
        let total: u64 = profile.tbs.iter().map(|t| t.warp_insts).sum();
        assert_eq!(out.skipped_warp_insts + r.issued_warp_insts, total);
    }

    #[test]
    fn live_sampled_ipc_close_to_full_ipc() {
        let k = homogeneous_kernel();
        let gpu = GpuConfig::fermi();
        let sp = spec(3000);
        let full = simulate_launch(&k, &sp, &gpu, &mut NullSampling, None);
        let mut sampler = live_sampler_for(&k, &gpu, 3000);
        let sampled = simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let out = sampler.outcome();

        let full_ipc = full.ipc();
        let predicted_cycles = sampled.cycles as f64 + out.predicted_skipped_cycles;
        let total_insts = (sampled.issued_warp_insts + out.skipped_warp_insts) as f64;
        let predicted_ipc = total_insts / predicted_cycles;
        let err = ((predicted_ipc - full_ipc) / full_ipc).abs();
        assert!(
            err < 0.10,
            "live sampling error {:.2}% too high (pred {predicted_ipc:.3} vs full {full_ipc:.3})",
            err * 100.0
        );
        assert!(sampled.issued_warp_insts < full.issued_warp_insts / 2);
    }

    #[test]
    fn guard_blocks_are_simulated_during_fast_forward() {
        let k = homogeneous_kernel();
        let gpu = GpuConfig::fermi();
        let sp = spec(3000);
        let mut sampler = LiveSampler::builder(3000, gpu.system_occupancy(&k))
            .block_invariant(TraceDeps::of(&k).block_invariant())
            .guard_period(4)
            .build()
            .unwrap();
        simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let out = sampler.outcome();
        assert!(out.guard_tbs > 0, "guards must run: {out:?}");
        assert!(out.skipped_tbs > out.guard_tbs, "guards stay the minority");
        // Guards of a homogeneous kernel never destabilise.
        assert_eq!(out.destabilisations, 0);
    }

    #[test]
    fn live_recorder_tells_a_consistent_story() {
        let k = homogeneous_kernel();
        let gpu = GpuConfig::fermi();
        let sp = spec(3000);
        let rec = CollectingRecorder::new();
        let mut sampler = LiveSampler::builder(3000, gpu.system_occupancy(&k))
            .block_invariant(TraceDeps::of(&k).block_invariant())
            .recorder(&rec)
            .build()
            .unwrap();
        simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let out = sampler.outcome();
        let events = rec.events();
        let epochs = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LiveEpochDetected { .. }))
            .count();
        let skips = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BlockSkipped { .. }))
            .count();
        assert_eq!(epochs as u32, out.epochs_classified);
        assert_eq!(skips as u32, out.skipped_tbs);
        // Epoch detection precedes warming entry precedes fast-forward.
        let i_epoch = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::LiveEpochDetected { .. }))
            .unwrap();
        let i_enter = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::RegionEntered { .. }))
            .unwrap();
        let i_ff = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::LiveFastForward { .. }))
            .expect("homogeneous launch must fast-forward live");
        assert!(i_epoch < i_enter && i_enter < i_ff);
    }

    #[test]
    fn warming_budget_abandons_unstable_clusters_live() {
        let k = homogeneous_kernel();
        let gpu = GpuConfig::fermi();
        let sp = spec(3000);
        let mut sampler = LiveSampler::builder(3000, gpu.system_occupancy(&k))
            .threshold(1e-300)
            .warming_budget(Some(crate::sampling::WARMING_WINDOW as u32))
            .build()
            .unwrap();
        let r = simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let out = sampler.outcome();
        assert!(out.degraded_regions > 0, "budget must trip: {out:?}");
        assert_eq!(out.skipped_tbs, 0, "abandoned cluster never skips");
        assert_eq!(r.skipped_tbs, 0);
    }

    #[test]
    fn builder_rejects_nonsense_live_settings() {
        for (build, field) in [
            (LiveSampler::builder(10, 0).build().err(), "occupancy"),
            (
                LiveSampler::builder(10, 8).sigma(f64::NAN).build().err(),
                "intra.sigma",
            ),
            (
                LiveSampler::builder(10, 8).min_run(0).build().err(),
                "live_min_run",
            ),
            (
                LiveSampler::builder(10, 8).guard_period(0).build().err(),
                "live_guard_period",
            ),
            (
                LiveSampler::builder(10, 8)
                    .destab_tolerance(-1.0)
                    .build()
                    .err(),
                "live_destab_tolerance",
            ),
            (
                LiveSampler::builder(10, 8).threshold(0.0).build().err(),
                "warming_threshold",
            ),
            (
                LiveSampler::builder(10, 8).unit_tb_span(0).build().err(),
                "unit_tb_span",
            ),
            (
                LiveSampler::builder(10, 8).warming_window(1).build().err(),
                "warming_window",
            ),
        ] {
            let err = build.expect("must be rejected");
            match err {
                TbError::InvalidConfig { field: f, .. } => assert_eq!(f, field),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }
}
