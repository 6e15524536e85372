//! Homogeneous region sampling (Section IV-B2 of the paper): the runtime
//! half of intra-launch sampling, implemented as a simulator hook.
//!
//! State machine per Fig. 7:
//!
//! * **Outside** — simulate normally. When every concurrently resident
//!   thread block maps to the same homogeneous region, *enter* it.
//! * **Warming** — keep simulating; measure sampling-unit IPCs (a unit is
//!   the lifetime of a *designated* TB: the first dispatched TB at start,
//!   then the next dispatched TB each time the current one retires). When
//!   two consecutive units agree within the warming threshold (10%), the
//!   cache state is considered stable: start fast-forwarding.
//! * **Fast-forwarding** — skip every dispatched TB that belongs to the
//!   region, predicting its cycles as `warp_insts / unit_ipc` with the
//!   last warm unit's IPC. A dispatch from a different region (or from no
//!   region) *exits* back to Outside.
//!
//! The warming half — the unit clock, the convergence test and the
//! warming budget — is one private engine that [`RegionSampler`] and the
//! live [`live::LiveSampler`] both drive; they differ only in what they
//! enter (an offline region or an online epoch cluster). Samplers are
//! built from a [`TbpointConfig`]; every state transition is reported to
//! the attached [`tbpoint_obs::Recorder`] (a [`tbpoint_obs::NullRecorder`]
//! makes that free).

pub mod live;

use crate::error::TbError;
use crate::intra::RegionTable;
use crate::predict::TbpointConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use tbpoint_emu::LaunchProfile;
use tbpoint_ir::TbId;
use tbpoint_obs::{DegradeReason, EventKind, Recorder};
use tbpoint_sim::{DispatchDecision, SamplingHook};

/// Accounting produced by one sampled launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct IntraOutcome {
    /// Thread blocks skipped during fast-forward periods.
    pub skipped_tbs: u32,
    /// Warp instructions belonging to skipped thread blocks (from the
    /// profile; they were never issued). Live mode estimates them: exact
    /// for block-invariant kernels, the cluster's running mean otherwise.
    pub skipped_warp_insts: u64,
    /// Predicted cycles those instructions would have taken, from the
    /// last warm sampling unit's IPC (Table IV's intra-launch term).
    pub predicted_skipped_cycles: f64,
    /// Sampling units completed (diagnostic).
    pub units_observed: u32,
    /// Warming phases entered: regions, or online clusters in live mode
    /// (diagnostic).
    pub regions_entered: u32,
    /// Regions (or live clusters) abandoned because their IPC failed to
    /// stabilise within the warming budget (each abandonment is a
    /// `DegradedMode` event; the abandoned blocks are simulated in
    /// detail).
    pub degraded_regions: u32,
}

impl IntraOutcome {
    /// Account one fast-forwarded block of `warp_insts` instructions,
    /// predicting its cycles at the warm unit IPC `ipc`.
    fn skip(&mut self, rec: &dyn Recorder, cycle: u64, tb: TbId, warp_insts: u64, ipc: f64) {
        self.skipped_tbs += 1;
        self.skipped_warp_insts += warp_insts;
        if ipc > 0.0 {
            self.predicted_skipped_cycles += warp_insts as f64 / ipc;
        }
        rec.record(
            cycle,
            EventKind::BlockSkipped {
                tb: tb.0,
                warp_insts,
            },
        );
    }

    /// Account a region (or live cluster) whose warming budget ran out.
    fn abandon(&mut self, rec: &dyn Recorder, cycle: u64, region: u32) {
        self.degraded_regions += 1;
        rec.record(
            cycle,
            EventKind::DegradedMode {
                reason: DegradeReason::WarmingBudgetExceeded { region },
            },
        );
    }
}

/// Where a sampler stands in Fig. 7. `id` is the region (two-phase) or
/// the online cluster (live) being warmed or fast-forwarded.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Outside,
    Warming(u32),
    FastForward { id: u32, ipc: f64 },
}

/// Default number of trailing sampling units that must agree pairwise
/// within the warming threshold before fast-forwarding begins. The paper
/// compares two consecutive units; see `Warmer::warm` for why the
/// scaled substrate uses three.
pub const WARMING_WINDOW: usize = 3;

/// How many consecutive designated-TB lifetimes make one sampling unit.
///
/// The paper's unit is a single designated TB. Our workloads scale each
/// TB's work down by ~3 orders of magnitude (so full simulations finish
/// in minutes), which makes one TB lifetime shorter than the simulator's
/// queue/cache warm-up transient — consecutive raw units then agree to
/// within 10% while still riding the transient, and fast-forwarding locks
/// in a biased IPC. Spanning a unit over two designated TBs restores
/// the paper's unit-length-to-warm-up ratio (two lifetimes suffice once
/// the simulator's dispatch stagger removes the lockstep start).
/// Recorded in DESIGN.md.
pub const DEFAULT_UNIT_TB_SPAN: u32 = 2;

/// What one closed unit did to a warming phase ([`Warmer::warm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Warmth {
    /// Not converged yet; keep warming.
    Pending,
    /// The trailing window agrees: start fast-forwarding.
    Stable,
    /// The warming budget ran out without convergence: abandon.
    Exhausted,
}

/// The warming half of Fig. 7, shared by both samplers: the
/// designated-TB unit clock, the trailing-window convergence test and
/// the warming budget. The sampler decides when a warming phase starts
/// ([`Warmer::reset`]) and what to do with each verdict.
struct Warmer {
    threshold: f64,
    unit_tb_span: u32,
    window: usize,
    budget: Option<u32>,
    /// The block whose lifetime the current unit is timing; `None` until
    /// the next simulated dispatch takes over.
    designated: Option<u32>,
    unit_tbs_retired: u32,
    unit_start_cycle: u64,
    unit_start_insts: u64,
    /// Unit IPCs of the current warming phase.
    ipcs: Vec<f64>,
}

impl Warmer {
    fn new(cfg: &TbpointConfig) -> Self {
        Warmer {
            threshold: cfg.warming_threshold,
            unit_tb_span: cfg.unit_tb_span,
            window: cfg.warming_window,
            budget: cfg.warming_budget,
            designated: None,
            unit_tbs_retired: 0,
            unit_start_cycle: 0,
            unit_start_insts: 0,
            ipcs: Vec::new(),
        }
    }

    /// Block `tb` is simulated: it becomes the designated TB if the
    /// previous one has retired.
    fn on_simulate(&mut self, tb: TbId, cycle: u64, issued: u64) {
        if self.designated.is_none() {
            self.designated = Some(tb.0);
            // The unit's clock starts with its first designated TB only;
            // later designated TBs extend the same unit.
            if self.unit_tbs_retired == 0 {
                self.unit_start_cycle = cycle;
                self.unit_start_insts = issued;
            }
        }
    }

    /// Block `tb` retired. Returns the IPC of the sampling unit this
    /// closes, if any: a unit closes after `unit_tb_span` designated-TB
    /// lifetimes, and one that measured nothing yields no IPC.
    fn on_retire(&mut self, tb: TbId, cycle: u64, issued: u64) -> Option<f64> {
        if self.designated != Some(tb.0) {
            return None;
        }
        self.designated = None;
        self.unit_tbs_retired += 1;
        if self.unit_tbs_retired < self.unit_tb_span {
            return None;
        }
        self.unit_tbs_retired = 0;
        let cycles = cycle.saturating_sub(self.unit_start_cycle);
        let insts = issued.saturating_sub(self.unit_start_insts);
        (cycles > 0 && insts > 0).then(|| insts as f64 / cycles as f64)
    }

    /// Feed one closed unit's IPC to the current warming phase.
    ///
    /// The paper declares the caches stable when the current and previous
    /// units agree within the threshold. Our scaled substrate drifts
    /// monotonically in sub-threshold steps during its (relatively much
    /// longer) queue warm-up, so we additionally require the unit BEFORE
    /// the pair to agree — i.e. the last `window` units must be pairwise
    /// within the band, which rejects a sustained trend. A phase still not
    /// converged after `budget` units is exhausted: its IPC is not
    /// trustworthy, so the sampler keeps its blocks on the detailed path
    /// (graceful degradation) instead of fast-forwarding.
    fn warm(&mut self, ipc: f64) -> Warmth {
        self.ipcs.push(ipc);
        let n = self.ipcs.len();
        if n >= self.window {
            let window = &self.ipcs[n - self.window..];
            let lo = window.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = window.iter().cloned().fold(0.0f64, f64::max);
            if lo > 0.0 && (hi - lo) / lo < self.threshold {
                return Warmth::Stable;
            }
        }
        match self.budget {
            Some(budget) if n >= budget as usize => Warmth::Exhausted,
            _ => Warmth::Pending,
        }
    }

    /// Start a new warming phase: forget the previous phase's unit IPCs.
    /// The unit clock keeps running across phases.
    fn reset(&mut self) {
        self.ipcs.clear();
    }
}

/// The intra-launch sampling hook. Borrow one region table + profile per
/// launch; plug into [`tbpoint_sim::simulate_launch`].
pub struct RegionSampler<'a> {
    table: &'a RegionTable,
    profile: &'a LaunchProfile,
    recorder: &'a dyn Recorder,
    warmer: Warmer,
    state: State,
    resident: BTreeSet<u32>,
    abandoned: BTreeSet<u32>, // regions whose warming budget ran out
    outcome: IntraOutcome,
}

impl<'a> RegionSampler<'a> {
    /// A sampler for the launch whose region table is `table` and whose
    /// profile is `profile`, warming as `cfg` says and reporting every
    /// region entry/exit, unit close, fast-forward start and skipped
    /// block to `recorder`.
    ///
    /// # Errors
    ///
    /// [`TbError::InvalidConfig`] when [`TbpointConfig::validate`]
    /// rejects `cfg`.
    pub fn new(
        table: &'a RegionTable,
        profile: &'a LaunchProfile,
        cfg: &TbpointConfig,
        recorder: &'a dyn Recorder,
    ) -> Result<Self, TbError> {
        cfg.validate()?;
        Ok(RegionSampler {
            table,
            profile,
            recorder,
            warmer: Warmer::new(cfg),
            state: State::Outside,
            resident: BTreeSet::new(),
            abandoned: BTreeSet::new(),
            outcome: IntraOutcome::default(),
        })
    }

    /// The accounting gathered so far (read after simulation).
    pub fn outcome(&self) -> IntraOutcome {
        self.outcome
    }

    /// The region every resident block belongs to, if they share one.
    fn resident_region(&self) -> Option<u32> {
        let mut iter = self.resident.iter();
        let r0 = self.table.region_of(TbId(*iter.next()?))?;
        iter.all(|&tb| self.table.region_of(TbId(tb)) == Some(r0))
            .then_some(r0)
    }

    fn maybe_enter(&mut self, cycle: u64) {
        if self.state != State::Outside {
            return;
        }
        // A region whose warming budget already ran out keeps its blocks
        // on the detailed-simulation path.
        if let Some(r) = self
            .resident_region()
            .filter(|r| !self.abandoned.contains(r))
        {
            self.state = State::Warming(r);
            self.warmer.reset();
            self.outcome.regions_entered += 1;
            self.recorder
                .record(cycle, EventKind::RegionEntered { region: r });
        }
    }

    fn exit_region(&mut self, cycle: u64) {
        self.state = State::Outside;
        self.recorder.record(cycle, EventKind::RegionExited);
    }
}

impl SamplingHook for RegionSampler<'_> {
    fn on_dispatch(&mut self, tb: TbId, cycle: u64, issued: u64) -> DispatchDecision {
        let region = self.table.region_of(tb);
        match self.state {
            State::FastForward { id, ipc } => {
                // Skip in-region blocks outright. A block missing from the
                // profile (e.g. a truncated profile file) cannot be
                // fast-forwarded — its instruction count is unknown — so it
                // falls through to detailed simulation instead of indexing
                // out of bounds.
                let known = self.profile.tbs.get(tb.0 as usize);
                if let Some(tbp) = known.filter(|_| region == Some(id)) {
                    self.outcome
                        .skip(self.recorder, cycle, tb, tbp.warp_insts, ipc);
                    return DispatchDecision::Skip;
                }
                // A block from elsewhere (or unknown to the profile): the
                // region exits (Fig. 7).
                self.exit_region(cycle);
            }
            State::Warming(r) if region != Some(r) => self.exit_region(cycle),
            _ => {}
        }

        // Simulate the block.
        self.resident.insert(tb.0);
        self.warmer.on_simulate(tb, cycle, issued);
        self.maybe_enter(cycle);
        DispatchDecision::Simulate
    }

    fn on_retire(&mut self, tb: TbId, cycle: u64, issued: u64) {
        self.resident.remove(&tb.0);
        if let Some(ipc) = self.warmer.on_retire(tb, cycle, issued) {
            self.outcome.units_observed += 1;
            self.recorder.record(cycle, EventKind::UnitClosed { ipc });
            if let State::Warming(r) = self.state {
                match self.warmer.warm(ipc) {
                    Warmth::Pending => {}
                    Warmth::Stable => {
                        // Fast-forward, predicting with the last warm
                        // unit's IPC.
                        self.state = State::FastForward { id: r, ipc };
                        self.recorder
                            .record(cycle, EventKind::FastForwardStarted { region: r, ipc });
                    }
                    Warmth::Exhausted => {
                        self.abandoned.insert(r);
                        self.outcome.abandon(self.recorder, cycle, r);
                        self.exit_region(cycle);
                    }
                }
            }
        }
        self.maybe_enter(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intra::{build_epochs, identify_regions, IntraConfig};
    use tbpoint_emu::profile_launch;
    use tbpoint_ir::{AddrPattern, Kernel, KernelBuilder, LaunchId, LaunchSpec, Op, TripCount};
    use tbpoint_obs::{CollectingRecorder, NullRecorder};
    use tbpoint_sim::{simulate_launch, GpuConfig, NullSampling};

    /// A perfectly homogeneous kernel: every TB identical.
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

    /// A sampler with the paper's defaults and no recorder.
    fn paper_sampler<'a>(table: &'a RegionTable, profile: &'a LaunchProfile) -> RegionSampler<'a> {
        RegionSampler::new(table, profile, &TbpointConfig::default(), &NullRecorder).unwrap()
    }

    fn spec(n: u32) -> LaunchSpec {
        LaunchSpec {
            launch_id: LaunchId(0),
            num_blocks: n,
            work_scale: 1.0,
        }
    }

    #[test]
    fn homogeneous_launch_gets_fast_forwarded() {
        let k = homogeneous_kernel();
        let cfg = GpuConfig::fermi();
        let sp = spec(3000);
        let profile = profile_launch(&k, &sp, 2);
        let occupancy = cfg.system_occupancy(&k);
        let epochs = build_epochs(&profile, occupancy);
        let table = identify_regions(&epochs, &IntraConfig::default());
        assert_eq!(table.regions.len(), 1, "homogeneous kernel -> one region");

        let mut sampler = paper_sampler(&table, &profile);
        let r = simulate_launch(&k, &sp, &cfg, &mut sampler, None);
        let out = sampler.outcome();
        assert!(out.skipped_tbs > 0, "fast-forward must engage: {out:?}");
        assert_eq!(r.skipped_tbs, out.skipped_tbs);
        assert!(out.units_observed >= 2, "warming needs at least two units");
        assert_eq!(out.regions_entered, 1);
        assert!(out.predicted_skipped_cycles > 0.0);
        // Accounting consistency: skipped + issued = full workload.
        let total: u64 = profile.tbs.iter().map(|t| t.warp_insts).sum();
        assert_eq!(out.skipped_warp_insts + r.issued_warp_insts, total);
    }

    #[test]
    fn sampled_ipc_close_to_full_ipc() {
        let k = homogeneous_kernel();
        let cfg = GpuConfig::fermi();
        let sp = spec(3000);
        let profile = profile_launch(&k, &sp, 2);
        let epochs = build_epochs(&profile, cfg.system_occupancy(&k));
        let table = identify_regions(&epochs, &IntraConfig::default());

        let full = simulate_launch(&k, &sp, &cfg, &mut NullSampling, None);
        let mut sampler = paper_sampler(&table, &profile);
        let sampled = simulate_launch(&k, &sp, &cfg, &mut sampler, None);
        let out = sampler.outcome();

        let full_ipc = full.ipc();
        let predicted_cycles = sampled.cycles as f64 + out.predicted_skipped_cycles;
        let total_insts = (sampled.issued_warp_insts + out.skipped_warp_insts) as f64;
        let predicted_ipc = total_insts / predicted_cycles;
        let err = ((predicted_ipc - full_ipc) / full_ipc).abs();
        assert!(
            err < 0.10,
            "sampling error {:.2}% too high (pred {predicted_ipc:.3} vs full {full_ipc:.3})",
            err * 100.0
        );
        // And it actually saved work.
        assert!(sampled.issued_warp_insts < full.issued_warp_insts / 2);
    }

    #[test]
    fn empty_region_table_simulates_everything() {
        let k = homogeneous_kernel();
        let cfg = GpuConfig::fermi();
        let sp = spec(300);
        let profile = profile_launch(&k, &sp, 2);
        let table = RegionTable::default();
        let mut sampler = paper_sampler(&table, &profile);
        let r = simulate_launch(&k, &sp, &cfg, &mut sampler, None);
        assert_eq!(r.skipped_tbs, 0);
        assert_eq!(sampler.outcome().skipped_tbs, 0);
        assert_eq!(sampler.outcome().regions_entered, 0);
    }

    #[test]
    fn recorder_tells_a_consistent_story() {
        let k = homogeneous_kernel();
        let cfg = GpuConfig::fermi();
        let sp = spec(3000);
        let profile = profile_launch(&k, &sp, 2);
        let epochs = build_epochs(&profile, cfg.system_occupancy(&k));
        let table = identify_regions(&epochs, &IntraConfig::default());
        let rec = CollectingRecorder::new();
        let mut sampler =
            RegionSampler::new(&table, &profile, &TbpointConfig::default(), &rec).unwrap();
        simulate_launch(&k, &sp, &cfg, &mut sampler, None);
        let out = sampler.outcome();
        let events = rec.events();
        assert!(!events.is_empty());
        // Counts in the trace agree with the outcome counters.
        let entered = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RegionEntered { .. }))
            .count();
        let skipped = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BlockSkipped { .. }))
            .count();
        let units = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::UnitClosed { .. }))
            .count();
        assert_eq!(entered as u32, out.regions_entered);
        assert_eq!(skipped as u32, out.skipped_tbs);
        assert_eq!(units as u32, out.units_observed);
        // Fast-forward must come after the region entry, and the first
        // skip after the fast-forward start.
        let i_enter = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::RegionEntered { .. }))
            .unwrap();
        let i_ff = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::FastForwardStarted { .. }))
            .expect("homogeneous launch must fast-forward");
        let i_skip = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::BlockSkipped { .. }))
            .unwrap();
        assert!(i_enter < i_ff && i_ff < i_skip);
    }

    #[test]
    fn tight_threshold_delays_fast_forward() {
        let k = homogeneous_kernel();
        let cfg = GpuConfig::fermi();
        let sp = spec(3000);
        let profile = profile_launch(&k, &sp, 2);
        let epochs = build_epochs(&profile, cfg.system_occupancy(&k));
        let table = identify_regions(&epochs, &IntraConfig::default());

        let with_threshold = |warming_threshold| TbpointConfig {
            warming_threshold,
            ..Default::default()
        };
        let mut loose =
            RegionSampler::new(&table, &profile, &with_threshold(0.5), &NullRecorder).unwrap();
        simulate_launch(&k, &sp, &cfg, &mut loose, None);
        let mut tight =
            RegionSampler::new(&table, &profile, &with_threshold(1e-6), &NullRecorder).unwrap();
        simulate_launch(&k, &sp, &cfg, &mut tight, None);
        assert!(
            tight.outcome().skipped_tbs <= loose.outcome().skipped_tbs,
            "tighter warming threshold must not skip more: tight {:?} loose {:?}",
            tight.outcome(),
            loose.outcome()
        );
    }
}
