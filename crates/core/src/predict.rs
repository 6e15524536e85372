//! The end-to-end TBPoint pipeline and IPC prediction (Table IV).
//!
//! Given a one-time profile of every launch:
//!
//! 1. inter-launch clustering picks one representative launch per cluster;
//! 2. each representative is simulated under homogeneous-region sampling
//!    (its own intra-launch fast-forwarding);
//! 3. a representative's predicted launch time is `simulated cycles +
//!    skipped insts / unit IPC`; a non-representative's is
//!    `its insts / representative's predicted IPC`;
//! 4. the overall IPC prediction is `total insts / total predicted
//!    cycles`, compared against the Full simulation for the Fig. 9
//!    sampling error.
//!
//! The same accounting yields the Fig. 10 *total sample size* (simulated
//! insts / total insts) and the Fig. 11 breakdown of skipped instructions
//! between the two techniques. Inter- and intra-launch sampling are
//! orthogonal (the paper's Table IV note); the config can disable either.
//!
//! [`run_tbpoint`] is the one entry point for both sampling modes: it
//! runs the pipeline `TbpointConfig::mode` selects, validates its inputs
//! and returns `Result<TbpointResult, TbError>`. [`run_tbpoint_traced`]
//! additionally captures a per-simulated-launch [`TraceBundle`] of
//! observability events without perturbing the result. The modes differ
//! only in where instruction counts and launch clusters come from: the
//! profile (two-phase) or the simulation itself (live).

use crate::error::{invalid, TbError};
use crate::inter::{inter_launch_sample, InterConfig, InterResult};
use crate::intra::{build_epochs, identify_regions, IntraConfig};
use crate::sampling::live::LiveSampler;
use crate::sampling::{IntraOutcome, RegionSampler};
use serde::{Deserialize, Serialize};
use tbpoint_cluster::Clustering;
use tbpoint_emu::LaunchProfile;
use tbpoint_emu::RunProfile;
use tbpoint_emu::TraceDeps;
use tbpoint_ir::KernelRun;
use tbpoint_ir::LaunchSpec;
use tbpoint_obs::{
    CollectingRecorder, DegradeReason, EventKind, NullRecorder, Recorder, Span, TraceBundle,
};
use tbpoint_pool::{run_indexed, ExecPlan};
use tbpoint_sim::{simulate_launch_obs, CycleBudgetHook, GpuConfig, NullSampling, SamplingHook};

/// Which pipeline produces the prediction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingMode {
    /// The paper's two-phase pipeline: profile every launch first, then
    /// sample the timing simulation against the profile.
    #[default]
    TwoPhase,
    /// Live single-pass sampling: no profiling pass; epochs and clusters
    /// are detected online from the simulator's retire-time feature
    /// stream (see [`crate::sampling::live::LiveSampler`]).
    Live,
}

/// Full TBPoint configuration (paper defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TbpointConfig {
    /// Inter-launch clustering (σ = 0.1).
    pub inter: InterConfig,
    /// Intra-launch clustering (σ = 0.2, VF = 0.3).
    pub intra: IntraConfig,
    /// Warming convergence threshold (10%).
    pub warming_threshold: f64,
    /// Designated-TB lifetimes per sampling unit (scale compensation; see
    /// `sampling::DEFAULT_UNIT_TB_SPAN`).
    pub unit_tb_span: u32,
    /// Trailing units that must agree before fast-forwarding (the paper
    /// compares 2; see `sampling::WARMING_WINDOW`).
    pub warming_window: usize,
    /// Enable inter-launch sampling.
    pub inter_enabled: bool,
    /// Enable intra-launch sampling.
    pub intra_enabled: bool,
    /// Bound on warming units per region before the sampler abandons the
    /// region and degrades to detailed simulation (`None` = warm
    /// indefinitely, the paper's behaviour). Must be at least
    /// `warming_window` when set.
    pub warming_budget: Option<u32>,
    /// Per-launch simulated-cycle watchdog: a representative still
    /// dispatching blocks past this many cycles is drained and reported
    /// as [`TbError::BudgetExceeded`] (`None` = no watchdog).
    pub cycle_budget: Option<u64>,
    /// Which pipeline [`run_tbpoint`] runs ([`SamplingMode::TwoPhase`] by
    /// default). Two-phase needs the run's profile and live takes none;
    /// a call that gets this wrong fails with [`TbError::InvalidConfig`]
    /// naming `mode`.
    pub mode: SamplingMode,
    /// Live mode: consecutive same-cluster epochs required before
    /// warming starts. Must be at least 1.
    pub live_min_run: u32,
    /// Live mode: during fast-forward, every `live_guard_period`-th
    /// dispatched block is simulated as a guard (destabilisation probe)
    /// instead of skipped. Must be at least 1.
    pub live_guard_period: u32,
    /// Live mode: relative deviation of a guard block's stall
    /// probability from its cluster centre that destabilises the
    /// fast-forward. Must be finite and positive.
    pub live_destab_tolerance: f64,
}

impl Default for TbpointConfig {
    fn default() -> Self {
        TbpointConfig {
            inter: InterConfig::default(),
            intra: IntraConfig::default(),
            warming_threshold: 0.10,
            unit_tb_span: crate::sampling::DEFAULT_UNIT_TB_SPAN,
            warming_window: crate::sampling::WARMING_WINDOW,
            inter_enabled: true,
            intra_enabled: true,
            warming_budget: None,
            cycle_budget: None,
            mode: SamplingMode::TwoPhase,
            live_min_run: 2,
            live_guard_period: 8,
            live_destab_tolerance: 0.5,
        }
    }
}

impl TbpointConfig {
    /// Check every field the pipeline depends on, naming the first
    /// offender. This is the one place the fields are checked: it is
    /// called by [`run_tbpoint`] and by both sampler constructors
    /// ([`crate::RegionSampler::new`], [`crate::LiveSampler::new`]); call
    /// it yourself to validate user input early.
    ///
    /// # Errors
    ///
    /// [`TbError::InvalidConfig`] naming the first of these that fails:
    ///
    /// * `inter.sigma` is non-finite or non-positive;
    /// * `inter.algo.max_k` is zero (k-means + BIC only);
    /// * `intra.sigma` is non-finite or non-positive;
    /// * `intra.variation_factor` is non-finite or negative;
    /// * `warming_threshold` is non-finite or non-positive;
    /// * `unit_tb_span` is zero;
    /// * `warming_window` is below 2;
    /// * `warming_budget` is set below `warming_window`;
    /// * `cycle_budget` is set to zero;
    /// * `live_min_run` or `live_guard_period` is zero;
    /// * `live_destab_tolerance` is non-finite or non-positive.
    ///
    /// Parallelism lives outside this config — see
    /// [`tbpoint_pool::ExecPlan`] and [`run_tbpoint`] — because results
    /// are bit-identical at any worker count, so the worker count is an
    /// execution concern, not a result-affecting one.
    pub fn validate(&self) -> Result<(), TbError> {
        self.inter.validate()?;
        self.intra.validate()?;
        if !self.warming_threshold.is_finite() || self.warming_threshold <= 0.0 {
            return Err(invalid(
                "warming_threshold",
                format!(
                    "must be finite and positive (got {})",
                    self.warming_threshold
                ),
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
        if self.cycle_budget == Some(0) {
            return Err(invalid("cycle_budget", "must be at least 1 cycle (got 0)"));
        }
        if self.live_min_run == 0 {
            return Err(invalid("live_min_run", "must be at least 1 (got 0)"));
        }
        if self.live_guard_period == 0 {
            return Err(invalid("live_guard_period", "must be at least 1 (got 0)"));
        }
        if !self.live_destab_tolerance.is_finite() || self.live_destab_tolerance <= 0.0 {
            return Err(invalid(
                "live_destab_tolerance",
                format!(
                    "must be finite and positive (got {})",
                    self.live_destab_tolerance
                ),
            ));
        }
        Ok(())
    }
}

/// Where the instruction savings came from (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SavingsBreakdown {
    /// Warp instructions skipped because their whole launch was predicted
    /// from a cluster representative.
    pub inter_skipped_warp_insts: u64,
    /// Warp instructions skipped by fast-forwarding inside simulated
    /// launches.
    pub intra_skipped_warp_insts: u64,
}

impl SavingsBreakdown {
    /// Total skipped instructions.
    pub fn total_skipped(&self) -> u64 {
        self.inter_skipped_warp_insts + self.intra_skipped_warp_insts
    }

    /// Fraction of the savings attributable to inter-launch sampling
    /// (the Fig. 11 stacked-bar split). Zero when nothing was skipped.
    pub fn inter_fraction(&self) -> f64 {
        let t = self.total_skipped();
        if t == 0 {
            0.0
        } else {
            self.inter_skipped_warp_insts as f64 / t as f64
        }
    }
}

/// Everything TBPoint produces for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TbpointResult {
    /// Benchmark name.
    pub kernel_name: String,
    /// Predicted overall IPC.
    pub predicted_ipc: f64,
    /// Warp instructions actually simulated.
    pub simulated_warp_insts: u64,
    /// Total warp instructions in the workload: the profile's count in
    /// two-phase mode. In live mode it is an estimate, exact only for
    /// block- and launch-invariant kernels (the live inter-launch
    /// grouping treats launches with equal specs as equal work; see
    /// DESIGN.md, "Live inter-launch grouping").
    pub total_warp_insts: u64,
    /// Predicted total cycles.
    pub predicted_total_cycles: f64,
    /// Savings attribution (Fig. 11).
    pub breakdown: SavingsBreakdown,
    /// Launches simulated / total.
    pub num_simulated_launches: usize,
    /// Total launches.
    pub num_launches: usize,
    /// Per-launch predicted cycles (launch order).
    pub per_launch_predicted_cycles: Vec<f64>,
    /// The inter-launch clustering (diagnostics).
    pub inter_clustering: Clustering,
    /// Simulated launches that fell back to detailed simulation —
    /// because their profile failed validation or a region's warming
    /// budget ran out. Each fallback also emits a `DegradedMode` event.
    pub degraded_launches: usize,
}

impl TbpointResult {
    /// Total sample size (Fig. 10): simulated / total warp instructions.
    pub fn sample_size(&self) -> f64 {
        if self.total_warp_insts == 0 {
            0.0
        } else {
            self.simulated_warp_insts as f64 / self.total_warp_insts as f64
        }
    }

    /// Absolute sampling error in percent against a reference IPC.
    pub fn error_vs(&self, full_ipc: f64) -> f64 {
        tbpoint_stats::abs_pct_error(self.predicted_ipc, full_ipc)
    }

    /// Fraction of simulated launches that degraded to detailed
    /// simulation (0.0 = everything sampled as planned, 1.0 = every
    /// simulated launch fell back). Zero when nothing was simulated.
    pub fn degradation_ratio(&self) -> f64 {
        if self.num_simulated_launches == 0 {
            0.0
        } else {
            self.degraded_launches as f64 / self.num_simulated_launches as f64
        }
    }
}

/// The observability trace of one simulated representative launch,
/// returned by [`run_tbpoint_traced`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchTrace {
    /// Index of the launch within the run.
    pub launch: usize,
    /// Events, counters and gauges recorded while simulating it.
    pub trace: TraceBundle,
}

/// Where a run's instruction counts and launch clusters come from: the
/// one thing the two sampling modes do not share.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// Two-phase: the one-time profile of every launch.
    Profile(&'a RunProfile),
    /// Live: only the timing simulation itself. `block_invariant` lets
    /// the live sampler credit skipped blocks with an exact count.
    Live { block_invariant: bool },
}

/// What simulating one representative produced.
#[derive(Debug, Clone, Copy)]
struct RepSim {
    issued: u64,
    skipped_insts: u64,
    sim_cycles: u64,
    predicted_cycles: f64,
    predicted_ipc: f64,
    degraded: bool,
}

/// Validate everything a pipeline call depends on: `cfg` itself, that
/// `cfg.mode` matches whether a profile was given, the profile's launch
/// count, and the [`ExecPlan`] (whose `sim_jobs` compatibility field
/// must be 1). Returns the run's [`Source`] and the normalized plan.
fn validate_call<'a>(
    run: &KernelRun,
    profile: Option<&'a RunProfile>,
    cfg: &TbpointConfig,
    plan: ExecPlan,
) -> Result<(Source<'a>, ExecPlan), TbError> {
    cfg.validate()?;
    let source = match (cfg.mode, profile) {
        (SamplingMode::TwoPhase, Some(profile)) => Source::Profile(profile),
        (SamplingMode::Live, None) => Source::Live {
            block_invariant: TraceDeps::of(&run.kernel).block_invariant(),
        },
        (SamplingMode::TwoPhase, None) => {
            return Err(invalid(
                "mode",
                "is TwoPhase, which needs a profile (got none)",
            ));
        }
        (SamplingMode::Live, Some(_)) => {
            return Err(invalid("mode", "is Live, which takes no profile (got one)"));
        }
    };
    let plan = plan.normalized();
    if plan.sim_jobs != 1 {
        return Err(invalid(
            "sim_jobs",
            format!(
                "must be 1 (got {}): each launch's cycle loop is serial; \
                 parallelism comes from pool_workers",
                plan.sim_jobs
            ),
        ));
    }
    if let Some(profile) = profile {
        if run.launches.len() != profile.launches.len() {
            return Err(TbError::ProfileMismatch {
                run_launches: run.launches.len(),
                profile_launches: profile.launches.len(),
            });
        }
    }
    Ok((source, plan))
}

/// Step 1: pick the launches to simulate, one representative per
/// cluster (every launch is its own cluster when inter-launch sampling
/// is off).
///
/// Two-phase clusters the profile's Eq. 2 feature vectors. Live mode has
/// no profile, so it groups launches by their *specs*: equal
/// `(num_blocks, work_scale)` is taken to mean equal work, and the first
/// launch of each class represents it. That holds exactly only for
/// launch-invariant kernels: `PerBlock`/`PerThread` trip counts hash the
/// launch id, so merged launches of such kernels differ slightly and a
/// live `total_warp_insts` is then an estimate (Dev-scale bfs, sssp, mst
/// and spmv read 0.9974–1.0023x the profiled count). Pac-Sim-style
/// online signatures are the intended profile-free replacement.
fn pick_launches(run: &KernelRun, source: Source, cfg: &TbpointConfig) -> InterResult {
    let n = run.launches.len();
    if !cfg.inter_enabled {
        return InterResult {
            clustering: Clustering::from_assignments(&(0..n).collect::<Vec<_>>()),
            representatives: (0..n).collect(),
            features: vec![],
        };
    }
    if let Source::Profile(profile) = source {
        return inter_launch_sample(profile, &cfg.inter);
    }
    let mut keys: Vec<(u32, u64)> = Vec::new();
    let mut assignments = Vec::with_capacity(n);
    let mut representatives = Vec::new();
    for (i, spec) in run.launches.iter().enumerate() {
        let key = (spec.num_blocks, spec.work_scale.to_bits());
        match keys.iter().position(|k| *k == key) {
            Some(c) => assignments.push(c),
            None => {
                assignments.push(keys.len());
                representatives.push(i);
                keys.push(key);
            }
        }
    }
    InterResult {
        clustering: Clustering::from_assignments(&assignments),
        representatives,
        features: vec![],
    }
}

/// Sanity-check one representative's launch profile before trusting it
/// for fast-forwarding: the block roster must match the launch spec and
/// the derived features must be finite numbers. A failure here means the
/// profile is truncated, padded, misnumbered or numerically corrupt.
fn validate_launch_profile(spec: &LaunchSpec, lp: &LaunchProfile) -> Result<(), String> {
    if lp.tbs.len() != spec.num_blocks as usize {
        return Err(format!(
            "profile has {} thread blocks, launch declares {}",
            lp.tbs.len(),
            spec.num_blocks
        ));
    }
    for (i, tb) in lp.tbs.iter().enumerate() {
        if tb.tb_id.0 as usize != i {
            return Err(format!("thread block {i} is numbered {}", tb.tb_id.0));
        }
    }
    let f = lp.inter_features();
    if !(f.thread_insts.is_finite()
        && f.warp_insts.is_finite()
        && f.mem_requests.is_finite()
        && f.tb_size_cov.is_finite())
    {
        return Err("inter-launch features are not finite".to_string());
    }
    Ok(())
}

/// Simulate launch `rep` under the optional cycle-budget watchdog.
fn simulate_guarded<R: Recorder>(
    run: &KernelRun,
    rep: usize,
    gpu: &GpuConfig,
    hook: &mut dyn SamplingHook,
    cycle_budget: Option<u64>,
    rec: &R,
) -> Result<tbpoint_sim::LaunchSimResult, TbError> {
    let spec = &run.launches[rep];
    match cycle_budget {
        Some(budget) => {
            let mut guard = CycleBudgetHook::new(hook, budget);
            let r = simulate_launch_obs(&run.kernel, spec, gpu, &mut guard, None, rec);
            if guard.exceeded() {
                Err(TbError::BudgetExceeded {
                    launch: rep,
                    budget_cycles: budget,
                })
            } else {
                Ok(r)
            }
        }
        None => Ok(simulate_launch_obs(&run.kernel, spec, gpu, hook, None, rec)),
    }
}

/// Step 2 for one representative: simulate it with intra-launch sampling
/// (when enabled), reporting into `rec`. The sampler is the
/// profile-driven [`RegionSampler`] or the online [`LiveSampler`];
/// everything else is shared. Monomorphised over the recorder, so the
/// untraced pipeline keeps its zero-instrumentation fast path.
///
/// The launch's instruction count is the profile's when it can be
/// trusted, otherwise what the simulator issued plus the sampler's skip
/// estimate. Degradation ladder: a representative whose profile fails
/// validation is simulated in full and its IPC taken from the simulator;
/// a region whose warming budget runs out falls back to detailed
/// simulation inside the sampler. Both paths emit `DegradedMode` and
/// mark the rep degraded. A launch that overruns `cfg.cycle_budget` is
/// the one unrecoverable case: its numbers are garbage, so it surfaces
/// as [`TbError::BudgetExceeded`].
fn simulate_rep<R: Recorder>(
    run: &KernelRun,
    source: Source,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    occupancy: u32,
    rep: usize,
    rec: &R,
) -> Result<RepSim, TbError> {
    let spec = &run.launches[rep];
    let profile_invalid = match source {
        Source::Profile(profile) => validate_launch_profile(spec, &profile.launches[rep]).is_err(),
        Source::Live { .. } => false,
    };
    if profile_invalid {
        rec.record(
            0,
            EventKind::DegradedMode {
                reason: DegradeReason::ProfileInvalid,
            },
        );
    }

    let (r, intra) = match source {
        _ if !cfg.intra_enabled || profile_invalid => {
            let r = simulate_guarded(run, rep, gpu, &mut NullSampling, cfg.cycle_budget, rec)?;
            (r, IntraOutcome::default())
        }
        Source::Profile(profile) => {
            let lp = &profile.launches[rep];
            let epochs = build_epochs(lp, occupancy);
            let table = identify_regions(&epochs, &cfg.intra);
            let mut sampler = RegionSampler::new(&table, lp, cfg, rec)?;
            let r = simulate_guarded(run, rep, gpu, &mut sampler, cfg.cycle_budget, rec)?;
            (r, sampler.outcome())
        }
        Source::Live { block_invariant } => {
            let mut sampler =
                LiveSampler::new(spec.num_blocks, occupancy, block_invariant, cfg, rec)?;
            let r = simulate_guarded(run, rep, gpu, &mut sampler, cfg.cycle_budget, rec)?;
            (r, sampler.outcome().intra)
        }
    };

    let launch_insts = match source {
        Source::Profile(profile) if !profile_invalid => profile.launches[rep].warp_insts(),
        _ => r.issued_warp_insts + intra.skipped_warp_insts,
    };
    let predicted_cycles = r.cycles as f64 + intra.predicted_skipped_cycles;
    let predicted_ipc = if predicted_cycles > 0.0 {
        launch_insts as f64 / predicted_cycles
    } else {
        0.0
    };
    Ok(RepSim {
        issued: r.issued_warp_insts,
        skipped_insts: intra.skipped_warp_insts,
        sim_cycles: r.cycles,
        predicted_cycles,
        predicted_ipc,
        degraded: profile_invalid || intra.degraded_regions > 0,
    })
}

/// Steps 3-4: extend representatives to their clusters and aggregate.
///
/// A launch's instruction count comes from the profile in two-phase
/// mode. Live mode has none, so a launch is credited with its class
/// representative's estimated total (issued + estimated skipped); see
/// [`pick_launches`] for when that is exact.
fn aggregate(
    run: &KernelRun,
    source: Source,
    inter: InterResult,
    rep_results: &[RepSim],
) -> TbpointResult {
    let n_launches = run.launches.len();
    let mut rep_outcome: Vec<Option<&RepSim>> = vec![None; n_launches];
    let mut simulated_warp_insts = 0u64;
    let mut intra_skipped = 0u64;
    let mut degraded_launches = 0usize;
    for (&rep, r) in inter.representatives.iter().zip(rep_results) {
        simulated_warp_insts += r.issued;
        intra_skipped += r.skipped_insts;
        if r.degraded {
            degraded_launches += 1;
        }
        rep_outcome[rep] = Some(r);
    }

    let mut per_launch_predicted_cycles = Vec::with_capacity(n_launches);
    let mut inter_skipped = 0u64;
    let mut total_insts = 0u64;
    for i in 0..n_launches {
        let rep = inter.representatives[inter.clustering.assignments[i]];
        // Filled for every representative by the loop above; the
        // fallback only guards an impossible index.
        let (rep_cycles, rep_ipc, rep_insts) = rep_outcome[rep].map_or((0.0, 0.0, 0), |r| {
            (
                r.predicted_cycles,
                r.predicted_ipc,
                r.issued + r.skipped_insts,
            )
        });
        let launch_insts = match source {
            Source::Profile(profile) => profile.launches[i].warp_insts(),
            Source::Live { .. } => rep_insts,
        };
        total_insts += launch_insts;
        if i == rep {
            per_launch_predicted_cycles.push(rep_cycles);
        } else {
            inter_skipped += launch_insts;
            let cycles = if rep_ipc > 0.0 {
                launch_insts as f64 / rep_ipc
            } else {
                rep_cycles
            };
            per_launch_predicted_cycles.push(cycles);
        }
    }
    let predicted_total_cycles: f64 = per_launch_predicted_cycles.iter().sum();
    let predicted_ipc = if predicted_total_cycles > 0.0 {
        total_insts as f64 / predicted_total_cycles
    } else {
        0.0
    };

    TbpointResult {
        kernel_name: run.kernel.name.clone(),
        predicted_ipc,
        simulated_warp_insts,
        total_warp_insts: total_insts,
        predicted_total_cycles,
        breakdown: SavingsBreakdown {
            inter_skipped_warp_insts: inter_skipped,
            intra_skipped_warp_insts: intra_skipped,
        },
        num_simulated_launches: inter.representatives.len(),
        num_launches: n_launches,
        per_launch_predicted_cycles,
        inter_clustering: inter.clustering,
        degraded_launches,
    }
}

/// The pipeline body behind [`run_tbpoint`] and [`run_tbpoint_traced`]:
/// every representative gets its own `R`, created inside its pool job
/// and wrapped in a [`Span::SimulateLaunch`] span, and is returned with
/// its launch index in canonical representative order. `NullRecorder`
/// compiles the instrumentation away.
fn run_pipeline<R: Recorder + Default + Send>(
    run: &KernelRun,
    profile: Option<&RunProfile>,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<(TbpointResult, Vec<(usize, R)>), TbError> {
    let (source, plan) = validate_call(run, profile, cfg, plan)?;
    let inter = pick_launches(run, source, cfg);
    let occupancy = gpu.system_occupancy(&run.kernel);

    // Step 2: simulate each representative, scheduled as whole launches
    // across the pool.
    let reps = &inter.representatives;
    let outcomes = run_indexed(plan.pool_workers, reps.len(), |i| {
        let rep = reps[i];
        let rec = R::default();
        let span = Span::SimulateLaunch {
            launch: run.launches[rep].launch_id.0,
        };
        rec.span_start(0, span);
        let r = simulate_rep(run, source, cfg, gpu, occupancy, rep, &rec)?;
        rec.span_end(r.sim_cycles, span);
        Ok((r, rec))
    })
    .map_err(|(_, e): (usize, TbError)| e)?;

    let (rep_results, recs): (Vec<RepSim>, Vec<R>) = outcomes.into_iter().unzip();
    let recs = reps.iter().copied().zip(recs).collect();
    Ok((aggregate(run, source, inter, &rep_results), recs))
}

/// Run the TBPoint pipeline for one benchmark in the mode `cfg.mode`
/// selects.
///
/// * [`SamplingMode::TwoPhase`] needs `profile`: the one-time profile of
///   `run` (from [`tbpoint_emu::profile_run`]). Changing `gpu` only
///   re-runs clustering and simulation, never profiling.
/// * [`SamplingMode::Live`] takes no profile: epoch detection,
///   clustering and fast-forwarding all happen online inside the one
///   timing simulation (see [`crate::sampling::live::LiveSampler`]).
///
/// Representatives fan out across `plan.pool_workers` threads of the
/// deterministic job pool (whole launches are the unit of scheduling).
/// Results land in per-representative slots and are merged in canonical
/// representative order, so the [`TbpointResult`] is bit-identical to
/// serial at every worker count.
///
/// # Errors
///
/// [`TbError::InvalidConfig`] when [`TbpointConfig::validate`] rejects
/// `cfg`, naming `mode` when a two-phase call has no profile or a live
/// call has one, and naming `sim_jobs` when `plan.sim_jobs` is neither 0
/// nor 1; [`TbError::ProfileMismatch`] when the profile's launch count
/// differs from the run's; [`TbError::BudgetExceeded`] when a
/// representative overruns `cfg.cycle_budget`. A failing representative
/// reports the error with the lowest recorded representative index.
pub fn run_tbpoint(
    run: &KernelRun,
    profile: Option<&RunProfile>,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<TbpointResult, TbError> {
    run_pipeline::<NullRecorder>(run, profile, cfg, gpu, plan).map(|(result, _)| result)
}

/// [`run_tbpoint`] with per-launch observability traces.
///
/// Every representative records into its own [`CollectingRecorder`]
/// created inside its pool job (the recorder is `Send` but not `Sync`,
/// so recorders are never shared across workers), wrapped in a
/// [`Span::SimulateLaunch`] span. Traces come back in representative
/// order (ascending launch index within each cluster pick). Recording is
/// observation-only: the result is bit-identical to [`run_tbpoint`]'s,
/// and both the result *and* the traces are bit-identical to the serial
/// run at every worker count.
///
/// # Errors
///
/// Exactly as [`run_tbpoint`].
pub fn run_tbpoint_traced(
    run: &KernelRun,
    profile: Option<&RunProfile>,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<(TbpointResult, Vec<LaunchTrace>), TbError> {
    let (result, recs) = run_pipeline::<CollectingRecorder>(run, profile, cfg, gpu, plan)?;
    let traces = recs
        .into_iter()
        .map(|(launch, rec)| LaunchTrace {
            launch,
            trace: rec.finish(),
        })
        .collect();
    Ok((result, traces))
}

/// Two-phase [`run_tbpoint`], kept only for the frozen benchmark
/// (`perfbench/`).
#[doc(hidden)]
pub fn run_tbpoint_plan(
    run: &KernelRun,
    profile: &RunProfile,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<TbpointResult, TbError> {
    run_tbpoint(run, Some(profile), cfg, gpu, plan)
}

/// Live [`run_tbpoint`], kept only for the frozen benchmark
/// (`perfbench/`).
#[doc(hidden)]
pub fn run_tbpoint_live_plan(
    run: &KernelRun,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<TbpointResult, TbError> {
    run_tbpoint(run, None, cfg, gpu, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inter::InterAlgo;
    use tbpoint_emu::profile_run;
    use tbpoint_ir::{
        AddrPattern, Dist, KernelBuilder, KernelRun, LaunchId, LaunchSpec, Op, TripCount,
    };
    use tbpoint_sim::{simulate_run, NullSampling};

    /// Serial two-phase run on the Fermi model.
    fn two_phase(
        run: &KernelRun,
        profile: &RunProfile,
        cfg: &TbpointConfig,
    ) -> Result<TbpointResult, TbError> {
        run_tbpoint(
            run,
            Some(profile),
            cfg,
            &GpuConfig::fermi(),
            ExecPlan::serial(),
        )
    }

    /// Serial live run on the Fermi model.
    fn live(run: &KernelRun, cfg: &TbpointConfig) -> Result<TbpointResult, TbError> {
        run_tbpoint(run, None, cfg, &GpuConfig::fermi(), ExecPlan::serial())
    }

    fn live_cfg() -> TbpointConfig {
        TbpointConfig {
            mode: SamplingMode::Live,
            ..Default::default()
        }
    }

    fn homogeneous_run(n_launches: u32, blocks_per_launch: u32) -> KernelRun {
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
        let kernel = b.finish(n);
        KernelRun {
            kernel,
            launches: (0..n_launches)
                .map(|i| LaunchSpec {
                    launch_id: LaunchId(i),
                    num_blocks: blocks_per_launch,
                    work_scale: 1.0,
                })
                .collect(),
        }
    }

    #[test]
    fn tbpoint_on_homogeneous_run_is_accurate_and_cheap() {
        let run = homogeneous_run(6, 1800);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let full = simulate_run(&run, &gpu, &mut NullSampling, None);

        let result = two_phase(&run, &profile, &TbpointConfig::default()).unwrap();
        assert_eq!(
            result.num_simulated_launches, 1,
            "6 identical launches -> 1 simulated"
        );
        let err = result.error_vs(full.overall_ipc());
        assert!(err < 10.0, "error {err:.2}% too high");
        assert!(
            result.sample_size() < 0.25,
            "sample size {:.3} should be small",
            result.sample_size()
        );
        // Savings from both techniques.
        assert!(result.breakdown.inter_skipped_warp_insts > 0);
        assert!(result.breakdown.intra_skipped_warp_insts > 0);
        // Conservation: simulated + skipped = total.
        assert_eq!(
            result.simulated_warp_insts + result.breakdown.total_skipped(),
            result.total_warp_insts
        );
    }

    #[test]
    fn disabling_inter_simulates_every_launch() {
        let run = homogeneous_run(4, 200);
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig {
            inter_enabled: false,
            ..Default::default()
        };
        let result = two_phase(&run, &profile, &cfg).unwrap();
        assert_eq!(result.num_simulated_launches, 4);
        assert_eq!(result.breakdown.inter_skipped_warp_insts, 0);
    }

    #[test]
    fn disabling_intra_runs_representatives_in_full() {
        let run = homogeneous_run(4, 200);
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig {
            intra_enabled: false,
            ..Default::default()
        };
        let result = two_phase(&run, &profile, &cfg).unwrap();
        assert_eq!(result.breakdown.intra_skipped_warp_insts, 0);
        assert_eq!(result.num_simulated_launches, 1);
        // The one simulated launch runs in full.
        let one_launch: u64 = profile.launches[0].warp_insts();
        assert_eq!(result.simulated_warp_insts, one_launch);
    }

    #[test]
    fn disabling_both_is_full_simulation() {
        let run = homogeneous_run(3, 100);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig {
            inter_enabled: false,
            intra_enabled: false,
            ..Default::default()
        };
        let result = two_phase(&run, &profile, &cfg).unwrap();
        assert_eq!(result.sample_size(), 1.0);
        let full = simulate_run(&run, &gpu, &mut NullSampling, None);
        assert!(result.error_vs(full.overall_ipc()) < 1e-9);
    }

    #[test]
    fn breakdown_fraction_math() {
        let b = SavingsBreakdown {
            inter_skipped_warp_insts: 30,
            intra_skipped_warp_insts: 10,
        };
        assert!((b.inter_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(SavingsBreakdown::default().inter_fraction(), 0.0);
    }

    #[test]
    fn mismatched_profile_is_an_error_not_a_panic() {
        let run = homogeneous_run(3, 10);
        let short_run = homogeneous_run(2, 10);
        let profile = profile_run(&short_run, 1);
        let err = two_phase(&run, &profile, &TbpointConfig::default()).unwrap_err();
        assert_eq!(
            err,
            TbError::ProfileMismatch {
                run_launches: 3,
                profile_launches: 2
            }
        );
    }

    #[test]
    fn every_validated_field_is_rejected_in_its_mode() {
        // One row per field `TbpointConfig::validate` names, each run
        // through `run_tbpoint` in every mode that reads it.
        let run = homogeneous_run(1, 10);
        let profile = profile_run(&run, 1);
        let both = [SamplingMode::TwoPhase, SamplingMode::Live];
        let live_only = [SamplingMode::Live];
        let d = TbpointConfig::default();
        let cases: [(&str, TbpointConfig, &[SamplingMode]); 12] = [
            (
                "inter.sigma",
                TbpointConfig {
                    inter: InterConfig {
                        sigma: f64::NAN,
                        ..d.inter
                    },
                    ..d
                },
                &both,
            ),
            (
                "inter.algo.max_k",
                TbpointConfig {
                    inter: InterConfig {
                        algo: InterAlgo::KMeansBic { max_k: 0 },
                        ..d.inter
                    },
                    ..d
                },
                &both,
            ),
            (
                "intra.sigma",
                TbpointConfig {
                    intra: IntraConfig {
                        sigma: f64::NAN,
                        ..d.intra
                    },
                    ..d
                },
                &both,
            ),
            (
                "intra.variation_factor",
                TbpointConfig {
                    intra: IntraConfig {
                        variation_factor: -0.1,
                        ..d.intra
                    },
                    ..d
                },
                &both,
            ),
            (
                "warming_threshold",
                TbpointConfig {
                    warming_threshold: -0.1,
                    ..d
                },
                &both,
            ),
            (
                "unit_tb_span",
                TbpointConfig {
                    unit_tb_span: 0,
                    ..d
                },
                &both,
            ),
            (
                "warming_window",
                TbpointConfig {
                    warming_window: 1,
                    ..d
                },
                &both,
            ),
            (
                "warming_budget",
                TbpointConfig {
                    warming_budget: Some(1),
                    ..d
                },
                &both,
            ),
            (
                "cycle_budget",
                TbpointConfig {
                    cycle_budget: Some(0),
                    ..d
                },
                &both,
            ),
            (
                "live_min_run",
                TbpointConfig {
                    live_min_run: 0,
                    ..d
                },
                &live_only,
            ),
            (
                "live_guard_period",
                TbpointConfig {
                    live_guard_period: 0,
                    ..d
                },
                &live_only,
            ),
            (
                "live_destab_tolerance",
                TbpointConfig {
                    live_destab_tolerance: f64::NAN,
                    ..d
                },
                &live_only,
            ),
        ];
        for (field, cfg, modes) in cases {
            for &mode in modes {
                let cfg = TbpointConfig { mode, ..cfg };
                let profile = (mode == SamplingMode::TwoPhase).then_some(&profile);
                let r = run_tbpoint(&run, profile, &cfg, &GpuConfig::fermi(), ExecPlan::serial());
                assert_invalid(r, field);
            }
        }
    }

    #[test]
    fn invalid_profile_degrades_to_detailed_simulation() {
        let run = homogeneous_run(3, 200);
        let mut profile = profile_run(&run, 2);
        // Truncate every launch's block roster: validation must fail and
        // the pipeline must fall back to full detailed simulation of the
        // representatives instead of indexing out of bounds.
        for lp in &mut profile.launches {
            lp.tbs.pop();
        }
        let result = two_phase(&run, &profile, &TbpointConfig::default()).unwrap();
        assert_eq!(result.degraded_launches, result.num_simulated_launches);
        assert_eq!(result.degradation_ratio(), 1.0);
        // Degraded reps run in full: nothing was intra-skipped.
        assert_eq!(result.breakdown.intra_skipped_warp_insts, 0);
        assert!(result.predicted_ipc.is_finite() && result.predicted_ipc > 0.0);
    }

    #[test]
    fn invalid_profile_emits_degraded_mode_event() {
        let run = homogeneous_run(2, 100);
        let gpu = GpuConfig::fermi();
        let mut profile = profile_run(&run, 2);
        for lp in &mut profile.launches {
            lp.tbs.pop();
        }
        let (result, traces) = run_tbpoint_traced(
            &run,
            Some(&profile),
            &TbpointConfig::default(),
            &gpu,
            ExecPlan::serial(),
        )
        .unwrap();
        assert!(result.degraded_launches > 0);
        let degraded_events: usize = traces
            .iter()
            .flat_map(|t| &t.trace.events)
            .filter(|e| {
                matches!(
                    e.kind,
                    tbpoint_obs::EventKind::DegradedMode {
                        reason: DegradeReason::ProfileInvalid
                    }
                )
            })
            .count();
        assert_eq!(degraded_events, result.degraded_launches);
    }

    #[test]
    fn warming_budget_abandons_unstable_regions() {
        let run = homogeneous_run(1, 1800);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        // A threshold no pair of real unit IPCs can meet plus the
        // tightest legal budget forces every region to abandon warming.
        let cfg = TbpointConfig {
            warming_threshold: 1e-300,
            warming_budget: Some(crate::sampling::WARMING_WINDOW as u32),
            ..Default::default()
        };
        let (result, traces) =
            run_tbpoint_traced(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert_eq!(result.degraded_launches, 1);
        assert!(result.degradation_ratio() > 0.0);
        // Abandoned regions are simulated in detail: no fast-forwarding.
        assert_eq!(result.breakdown.intra_skipped_warp_insts, 0);
        assert!(traces.iter().flat_map(|t| &t.trace.events).any(|e| {
            matches!(
                e.kind,
                tbpoint_obs::EventKind::DegradedMode {
                    reason: DegradeReason::WarmingBudgetExceeded { .. }
                }
            )
        }));
        // Sanity: the same config without the budget warms forever but
        // still terminates (regions just never fast-forward).
        let no_budget = TbpointConfig {
            warming_budget: None,
            ..cfg
        };
        let r2 = two_phase(&run, &profile, &no_budget).unwrap();
        assert_eq!(r2.degraded_launches, 0);
    }

    #[test]
    fn cycle_budget_overrun_is_an_error_not_a_hang() {
        let run = homogeneous_run(1, 1800);
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig {
            cycle_budget: Some(1),
            ..Default::default()
        };
        let err = two_phase(&run, &profile, &cfg).unwrap_err();
        assert_eq!(
            err,
            TbError::BudgetExceeded {
                launch: 0,
                budget_cycles: 1
            }
        );
        // A generous budget never trips and leaves the result untouched.
        let roomy = TbpointConfig {
            cycle_budget: Some(u64::MAX),
            ..Default::default()
        };
        let guarded = two_phase(&run, &profile, &roomy).unwrap();
        let plain = two_phase(&run, &profile, &TbpointConfig::default()).unwrap();
        assert_eq!(guarded, plain);
    }

    #[test]
    fn degradation_ratio_math() {
        let run = homogeneous_run(2, 100);
        let profile = profile_run(&run, 2);
        let mut r = two_phase(&run, &profile, &TbpointConfig::default()).unwrap();
        assert_eq!(r.degradation_ratio(), 0.0);
        r.degraded_launches = r.num_simulated_launches;
        assert_eq!(r.degradation_ratio(), 1.0);
        r.num_simulated_launches = 0;
        assert_eq!(r.degradation_ratio(), 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_captures_spans() {
        let run = homogeneous_run(4, 400);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig::default();
        let plain = two_phase(&run, &profile, &cfg).unwrap();
        let (traced, traces) =
            run_tbpoint_traced(&run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        // Recording is observation-only: bit-identical results.
        assert_eq!(plain, traced);
        assert_eq!(traces.len(), traced.num_simulated_launches);
        for t in &traces {
            assert!(!t.trace.events.is_empty(), "launch {} empty", t.launch);
            // Each trace opens and closes its SimulateLaunch span.
            assert!(matches!(
                t.trace.events.first().map(|e| e.kind),
                Some(tbpoint_obs::EventKind::SpanStart { .. })
            ));
            assert!(matches!(
                t.trace.events.last().map(|e| e.kind),
                Some(tbpoint_obs::EventKind::SpanEnd { .. })
            ));
            // And saw real simulator traffic (counters from the SM layer).
            assert!(t
                .trace
                .counters
                .iter()
                .any(|c| c.name == "issued_warp_insts"));
        }
    }

    /// One launch whose loop trip count follows a power law per
    /// `phase_len`-block phase (mri's shape): no rng stream per block,
    /// yet blocks in different phases run different instruction counts.
    fn phase_run(num_blocks: u32, phase_len: u32, seed: u64) -> KernelRun {
        let mut b = KernelBuilder::new("phased", seed, 128);
        let site = b.fresh_site();
        let body = b.block(&[Op::IAlu, Op::FAlu]);
        let trips = TripCount::PerBlockPhase {
            base: 2,
            spread: 40,
            phase_len,
            dist: Dist::PowerLaw { alpha: 1.8 },
            site,
        };
        let n = b.loop_(trips, body);
        KernelRun {
            kernel: b.finish(n),
            launches: vec![LaunchSpec {
                launch_id: LaunchId(0),
                num_blocks,
                work_scale: 1.0,
            }],
        }
    }

    #[test]
    fn live_estimates_phase_kernel_totals_from_the_cluster_mean() {
        // Phase trip counts read no rng stream, but the kernel is not
        // block-invariant: crediting every skipped block with the first
        // simulated block's count (phase 0's) misestimated these totals
        // by 20% on average, against 7% for the cluster running mean.
        let mut sum_rel_err = 0.0;
        let seeds = 1..=8u64;
        for seed in seeds.clone() {
            let run = phase_run(1800, 200, seed);
            let profile = profile_run(&run, 2);
            let exact = profile.launches[0].warp_insts();
            let r = live(&run, &live_cfg()).unwrap();
            assert_eq!(
                r.simulated_warp_insts + r.breakdown.total_skipped(),
                r.total_warp_insts
            );
            sum_rel_err += (r.total_warp_insts as f64 / exact as f64 - 1.0).abs();
        }
        let mean_rel_err = sum_rel_err / seeds.count() as f64;
        assert!(
            mean_rel_err < 0.10,
            "mean |live/exact - 1| = {mean_rel_err:.4}"
        );
    }

    #[test]
    fn live_mode_on_homogeneous_run_is_accurate_and_cheap() {
        let run = homogeneous_run(6, 1800);
        let gpu = GpuConfig::fermi();
        let full = simulate_run(&run, &gpu, &mut NullSampling, None);

        let cfg = TbpointConfig {
            mode: SamplingMode::Live,
            ..Default::default()
        };
        let result = live(&run, &cfg).unwrap();
        assert_eq!(
            result.num_simulated_launches, 1,
            "6 identical specs -> 1 simulated"
        );
        let err = result.error_vs(full.overall_ipc());
        assert!(err < 10.0, "live error {err:.2}% too high");
        assert!(
            result.sample_size() < 0.25,
            "live sample size {:.3} should be small",
            result.sample_size()
        );
        assert!(result.breakdown.inter_skipped_warp_insts > 0);
        assert!(result.breakdown.intra_skipped_warp_insts > 0);
        // Conservation holds on the estimated totals too.
        assert_eq!(
            result.simulated_warp_insts + result.breakdown.total_skipped(),
            result.total_warp_insts
        );
        // Block-invariant kernel: the estimate is exact, so the total
        // matches what a profile would report.
        let profile = profile_run(&run, 2);
        let exact: u64 = profile.launches.iter().map(|l| l.warp_insts()).sum();
        assert_eq!(result.total_warp_insts, exact);
    }

    #[test]
    fn live_spec_classes_are_exact_on_block_invariant_kernels() {
        // Live grouping merges launches with equal (num_blocks,
        // work_scale). On a block- and launch-invariant kernel that is
        // exact: four spec classes over six launches, and the merged
        // launches reproduce the profile's total to the instruction.
        let mut run = homogeneous_run(6, 300);
        for (i, spec) in run.launches.iter_mut().enumerate() {
            spec.num_blocks = [300, 450][i % 2];
            spec.work_scale = [1.0, 1.0, 2.0][i % 3];
        }
        let result = live(&run, &live_cfg()).unwrap();
        assert_eq!(result.num_simulated_launches, 4);
        assert!(result.breakdown.inter_skipped_warp_insts > 0);
        let profile = profile_run(&run, 2);
        let exact: u64 = profile.launches.iter().map(|l| l.warp_insts()).sum();
        assert_eq!(result.total_warp_insts, exact);
    }

    #[test]
    fn live_and_two_phase_agree_on_homogeneous_run() {
        let run = homogeneous_run(4, 1800);
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig::default();
        let two_phase = two_phase(&run, &profile, &cfg).unwrap();
        let live = live(&run, &live_cfg()).unwrap();
        let rel = ((live.predicted_ipc - two_phase.predicted_ipc) / two_phase.predicted_ipc).abs();
        assert!(
            rel < 0.10,
            "live {:.3} vs two-phase {:.3}: {:.2}% apart",
            live.predicted_ipc,
            two_phase.predicted_ipc,
            rel * 100.0
        );
    }

    #[test]
    fn live_with_intra_disabled_matches_full_simulation() {
        let run = homogeneous_run(2, 300);
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig {
            inter_enabled: false,
            intra_enabled: false,
            ..live_cfg()
        };
        let result = live(&run, &cfg).unwrap();
        assert_eq!(result.sample_size(), 1.0);
        let full = simulate_run(&run, &gpu, &mut NullSampling, None);
        assert!(result.error_vs(full.overall_ipc()) < 1e-9);
    }

    #[test]
    fn live_warming_budget_degrades_gracefully() {
        let run = homogeneous_run(1, 1800);
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig {
            warming_threshold: 1e-300,
            warming_budget: Some(crate::sampling::WARMING_WINDOW as u32),
            ..live_cfg()
        };
        let (result, traces) =
            run_tbpoint_traced(&run, None, &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert_eq!(result.degraded_launches, 1);
        assert_eq!(result.breakdown.intra_skipped_warp_insts, 0);
        assert!(traces.iter().flat_map(|t| &t.trace.events).any(|e| {
            matches!(
                e.kind,
                tbpoint_obs::EventKind::DegradedMode {
                    reason: DegradeReason::WarmingBudgetExceeded { .. }
                }
            )
        }));
    }

    #[test]
    fn live_cycle_budget_overrun_is_an_error() {
        let run = homogeneous_run(1, 1800);
        let cfg = TbpointConfig {
            cycle_budget: Some(1),
            ..live_cfg()
        };
        let err = live(&run, &cfg).unwrap_err();
        assert_eq!(
            err,
            TbError::BudgetExceeded {
                launch: 0,
                budget_cycles: 1
            }
        );
    }

    #[test]
    fn pooled_results_and_traces_are_identical_at_any_worker_count() {
        // Disable inter-launch sampling so several representatives are
        // actually simulated and the pool has launches to schedule.
        let run = homogeneous_run(5, 300);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        for (mode, profile) in [
            (SamplingMode::TwoPhase, Some(&profile)),
            (SamplingMode::Live, None),
        ] {
            let cfg = TbpointConfig {
                inter_enabled: false,
                mode,
                ..Default::default()
            };
            let serial = run_tbpoint(&run, profile, &cfg, &gpu, ExecPlan::serial()).unwrap();
            let (serial_traced, serial_traces) =
                run_tbpoint_traced(&run, profile, &cfg, &gpu, ExecPlan::serial()).unwrap();
            assert_eq!(
                serial, serial_traced,
                "{mode:?}: tracing changed the result"
            );
            for pool_workers in [1, 2, 4] {
                let plan = ExecPlan::pool(pool_workers);
                let pooled = run_tbpoint(&run, profile, &cfg, &gpu, plan).unwrap();
                assert_eq!(pooled, serial, "{mode:?} pool_workers={pool_workers}");
                let (traced, traces) = run_tbpoint_traced(&run, profile, &cfg, &gpu, plan).unwrap();
                assert_eq!(
                    traced, serial_traced,
                    "{mode:?} pool_workers={pool_workers}"
                );
                // Canonical-order merge: the trace *streams* are identical
                // too, not just the results.
                assert_eq!(
                    traces, serial_traces,
                    "{mode:?} pool_workers={pool_workers}"
                );
            }
        }
    }

    fn assert_invalid<T: std::fmt::Debug>(r: Result<T, TbError>, field: &str) {
        match r {
            Err(TbError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
            other => panic!("expected InvalidConfig({field}), got {other:?}"),
        }
    }

    #[test]
    fn two_phase_without_a_profile_is_rejected() {
        let run = homogeneous_run(1, 10);
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig::default();
        let plan = ExecPlan::serial();
        assert_invalid(run_tbpoint(&run, None, &cfg, &gpu, plan), "mode");
        assert_invalid(run_tbpoint_traced(&run, None, &cfg, &gpu, plan), "mode");
        assert_invalid(run_tbpoint_live_plan(&run, &cfg, &gpu, plan), "mode");
    }

    #[test]
    fn live_with_a_profile_is_rejected() {
        let run = homogeneous_run(1, 10);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 1);
        let cfg = live_cfg();
        let plan = ExecPlan::serial();
        assert_invalid(run_tbpoint(&run, Some(&profile), &cfg, &gpu, plan), "mode");
        assert_invalid(
            run_tbpoint_traced(&run, Some(&profile), &cfg, &gpu, plan),
            "mode",
        );
        assert_invalid(run_tbpoint_plan(&run, &profile, &cfg, &gpu, plan), "mode");
    }

    #[test]
    fn plan_entry_points_reject_sim_jobs_above_one() {
        let run = homogeneous_run(1, 10);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 1);
        let plan = ExecPlan {
            sim_jobs: 2,
            pool_workers: 1,
        };
        let cfg = TbpointConfig::default();
        let live = live_cfg();
        assert_invalid(
            run_tbpoint(&run, Some(&profile), &cfg, &gpu, plan),
            "sim_jobs",
        );
        assert_invalid(run_tbpoint(&run, None, &live, &gpu, plan), "sim_jobs");
        assert_invalid(
            run_tbpoint_plan(&run, &profile, &cfg, &gpu, plan),
            "sim_jobs",
        );
        assert_invalid(run_tbpoint_live_plan(&run, &live, &gpu, plan), "sim_jobs");
        // Zero keeps normalizing to one.
        let zero = ExecPlan {
            sim_jobs: 0,
            pool_workers: 1,
        };
        assert!(run_tbpoint(&run, Some(&profile), &cfg, &gpu, zero).is_ok());
        assert!(run_tbpoint(&run, None, &live, &gpu, zero).is_ok());
    }
}
