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
//! [`run_tbpoint`] validates its configuration and returns
//! `Result<TbpointResult, TbError>`; [`run_tbpoint_traced`] additionally
//! captures a per-simulated-launch [`TraceBundle`] of observability
//! events without perturbing the result.

use crate::error::{invalid, TbError};
use crate::inter::{inter_launch_sample, InterConfig, InterResult};
use crate::intra::{build_epochs, identify_regions, IntraConfig};
use crate::sampling::live::LiveSampler;
use crate::sampling::RegionSampler;
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
    /// Which pipeline to run ([`SamplingMode::TwoPhase`] by default).
    /// Callers branch on it to pick between the [`run_tbpoint`] and
    /// [`run_tbpoint_live`] families; each family rejects a config set
    /// to the other mode with [`TbError::InvalidConfig`] naming `mode`.
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
    /// offender. Called by [`run_tbpoint`]; call it yourself to validate
    /// user input early.
    ///
    /// # Errors
    ///
    /// [`TbError::InvalidConfig`] when a clustering σ is non-finite or
    /// non-positive, the variation factor is negative, the warming
    /// threshold is non-finite or non-positive, `unit_tb_span` is zero,
    /// or `warming_window` is below 2. Parallelism lives outside this
    /// config — see [`tbpoint_pool::ExecPlan`] and [`run_tbpoint_plan`]
    /// — because results are bit-identical at any worker count, so the
    /// worker count is an execution concern, not a result-affecting one.
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
    /// Total warp instructions in the workload.
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

fn check_profile(run: &KernelRun, profile: &RunProfile) -> Result<(), TbError> {
    if run.launches.len() == profile.launches.len() {
        Ok(())
    } else {
        Err(TbError::ProfileMismatch {
            run_launches: run.launches.len(),
            profile_launches: profile.launches.len(),
        })
    }
}

/// Step 1: pick the launches to simulate.
fn pick_launches(profile: &RunProfile, cfg: &TbpointConfig, n_launches: usize) -> InterResult {
    if cfg.inter_enabled {
        inter_launch_sample(profile, &cfg.inter)
    } else {
        // Every launch is its own cluster: all are simulated.
        InterResult {
            clustering: Clustering::from_assignments(&(0..n_launches).collect::<Vec<_>>()),
            representatives: (0..n_launches).collect(),
            features: vec![],
        }
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

/// Validate the inputs every pipeline entry point shares: `cfg` itself,
/// its `mode` against the family being called, and the [`ExecPlan`]
/// (whose `sim_jobs` compatibility field must be 1). Returns the
/// normalized plan.
fn validate_call(
    cfg: &TbpointConfig,
    family: SamplingMode,
    plan: ExecPlan,
) -> Result<ExecPlan, TbError> {
    cfg.validate()?;
    if cfg.mode != family {
        let entry = match family {
            SamplingMode::TwoPhase => "run_tbpoint",
            SamplingMode::Live => "run_tbpoint_live",
        };
        return Err(invalid(
            "mode",
            format!(
                "is {:?}, but the {entry} family runs only {family:?} configs",
                cfg.mode
            ),
        ));
    }
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
    Ok(plan)
}

/// Run one launch simulation under the optional cycle-budget watchdog.
fn simulate_guarded<R: Recorder>(
    run: &KernelRun,
    spec: &LaunchSpec,
    gpu: &GpuConfig,
    hook: &mut dyn SamplingHook,
    cycle_budget: Option<u64>,
    rep: usize,
    rec: &R,
) -> Result<tbpoint_sim::LaunchSimResult, TbError> {
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
/// (when enabled), reporting into `rec`. Monomorphised over the recorder,
/// so the untraced pipeline keeps its zero-instrumentation fast path.
///
/// Degradation ladder: a representative whose profile fails validation
/// is simulated in full and its IPC taken from the simulator (the
/// profile's instruction counts are untrustworthy); a region whose
/// warming budget runs out falls back to detailed simulation inside the
/// sampler. Both paths emit `DegradedMode` and mark the rep degraded. A
/// launch that overruns `cfg.cycle_budget` is the one unrecoverable
/// case: its numbers are garbage, so it surfaces as
/// [`TbError::BudgetExceeded`].
fn simulate_rep<R: Recorder>(
    run: &KernelRun,
    profile: &RunProfile,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    occupancy: u32,
    rep: usize,
    rec: &R,
) -> Result<RepSim, TbError> {
    let spec = &run.launches[rep];
    let launch_profile = &profile.launches[rep];

    let profile_ok = match validate_launch_profile(spec, launch_profile) {
        Ok(()) => true,
        Err(_) => {
            rec.record(
                0,
                EventKind::DegradedMode {
                    reason: DegradeReason::ProfileInvalid,
                },
            );
            false
        }
    };

    if profile_ok && cfg.intra_enabled {
        let epochs = build_epochs(launch_profile, occupancy);
        let table = identify_regions(&epochs, &cfg.intra);
        let mut sampler = RegionSampler::builder(&table, launch_profile)
            .threshold(cfg.warming_threshold)
            .unit_tb_span(cfg.unit_tb_span)
            .warming_window(cfg.warming_window)
            .warming_budget(cfg.warming_budget)
            .recorder(rec)
            .build()?;
        let r = simulate_guarded(run, spec, gpu, &mut sampler, cfg.cycle_budget, rep, rec)?;
        let o = sampler.outcome();
        let launch_insts = launch_profile.warp_insts();
        let predicted_cycles = r.cycles as f64 + o.predicted_skipped_cycles;
        let predicted_ipc = if predicted_cycles > 0.0 {
            launch_insts as f64 / predicted_cycles
        } else {
            0.0
        };
        return Ok(RepSim {
            issued: r.issued_warp_insts,
            skipped_insts: o.skipped_warp_insts,
            sim_cycles: r.cycles,
            predicted_cycles,
            predicted_ipc,
            degraded: o.degraded_regions > 0,
        });
    }

    // Detailed simulation: either intra-launch sampling is disabled, or
    // the profile cannot be trusted (degraded). In the degraded case the
    // launch's instruction count comes from the simulator, not the
    // corrupt profile.
    let r = simulate_guarded(
        run,
        spec,
        gpu,
        &mut NullSampling,
        cfg.cycle_budget,
        rep,
        rec,
    )?;
    let launch_insts = if profile_ok {
        launch_profile.warp_insts()
    } else {
        r.issued_warp_insts
    };
    let predicted_cycles = r.cycles as f64;
    let predicted_ipc = if predicted_cycles > 0.0 {
        launch_insts as f64 / predicted_cycles
    } else {
        0.0
    };
    Ok(RepSim {
        issued: r.issued_warp_insts,
        skipped_insts: 0,
        sim_cycles: r.cycles,
        predicted_cycles,
        predicted_ipc,
        degraded: !profile_ok,
    })
}

/// Steps 3-4: extend representatives to their clusters and aggregate.
fn aggregate(
    run: &KernelRun,
    profile: &RunProfile,
    inter: InterResult,
    rep_results: &[RepSim],
) -> TbpointResult {
    let n_launches = run.launches.len();
    // rep_outcome[launch] = Some((predicted_cycles, predicted_ipc)).
    let mut rep_outcome: Vec<Option<(f64, f64)>> = vec![None; n_launches];
    let mut simulated_warp_insts = 0u64;
    let mut intra_skipped = 0u64;
    let mut degraded_launches = 0usize;
    for (&rep, r) in inter.representatives.iter().zip(rep_results) {
        simulated_warp_insts += r.issued;
        intra_skipped += r.skipped_insts;
        if r.degraded {
            degraded_launches += 1;
        }
        rep_outcome[rep] = Some((r.predicted_cycles, r.predicted_ipc));
    }

    let mut per_launch_predicted_cycles = Vec::with_capacity(n_launches);
    let mut inter_skipped = 0u64;
    let mut total_insts = 0u64;
    for i in 0..n_launches {
        let launch_insts = profile.launches[i].warp_insts();
        total_insts += launch_insts;
        let rep = inter.representatives[inter.clustering.assignments[i]];
        // Filled for every representative by the loop above; the
        // fallback only guards an impossible index.
        let (rep_cycles, rep_ipc) = rep_outcome[rep].unwrap_or((0.0, 0.0));
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

/// Run the full TBPoint pipeline for one benchmark.
///
/// `profile` must be the one-time profile of `run` (from
/// [`tbpoint_emu::profile_run`]); `gpu` is the simulated configuration —
/// changing it only re-runs clustering and simulation, never profiling.
///
/// # Errors
///
/// [`TbError::InvalidConfig`] when [`TbpointConfig::validate`] rejects
/// `cfg` or `cfg.mode` is not [`SamplingMode::TwoPhase`];
/// [`TbError::ProfileMismatch`] when the profile's launch count differs
/// from the run's.
pub fn run_tbpoint(
    run: &KernelRun,
    profile: &RunProfile,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
) -> Result<TbpointResult, TbError> {
    run_tbpoint_plan(run, profile, cfg, gpu, ExecPlan::serial())
}

/// [`run_tbpoint`] under an explicit [`ExecPlan`].
///
/// Step 2 fans the representatives out across `plan.pool_workers`
/// threads of the deterministic job pool (whole launches are the unit
/// of scheduling). Results land in per-representative slots and are
/// merged in canonical representative order, so the [`TbpointResult`]
/// is bit-identical to serial at every worker count (the golden
/// determinism suite asserts this).
///
/// # Errors
///
/// As [`run_tbpoint`], plus [`TbError::InvalidConfig`] naming
/// `sim_jobs` when `plan.sim_jobs` is neither 0 nor 1. A failing
/// representative reports the error with the lowest recorded
/// representative index.
pub fn run_tbpoint_plan(
    run: &KernelRun,
    profile: &RunProfile,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<TbpointResult, TbError> {
    let plan = validate_call(cfg, SamplingMode::TwoPhase, plan)?;
    check_profile(run, profile)?;
    let n_launches = run.launches.len();
    let inter = pick_launches(profile, cfg, n_launches);
    let occupancy = gpu.system_occupancy(&run.kernel);

    // Step 2: simulate each representative with intra-launch sampling,
    // scheduled as whole launches across the pool.
    let reps = &inter.representatives;
    let rep_results = run_indexed(plan.pool_workers, reps.len(), |i| {
        simulate_rep(run, profile, cfg, gpu, occupancy, reps[i], &NullRecorder)
    })
    .map_err(|(_, e)| e)?;

    Ok(aggregate(run, profile, inter, &rep_results))
}

/// [`run_tbpoint`] with per-launch observability traces.
///
/// Each simulated representative gets its own [`CollectingRecorder`]
/// wrapped in a [`Span::SimulateLaunch`] span; traces are returned in
/// representative order (ascending launch index within each cluster
/// pick). Recording is observation-only: the [`TbpointResult`] is
/// bit-identical to [`run_tbpoint`]'s (the golden determinism test
/// asserts this). Runs serially; use [`run_tbpoint_traced_plan`] to
/// fan out.
///
/// # Errors
///
/// Exactly as [`run_tbpoint`].
pub fn run_tbpoint_traced(
    run: &KernelRun,
    profile: &RunProfile,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
) -> Result<(TbpointResult, Vec<LaunchTrace>), TbError> {
    run_tbpoint_traced_plan(run, profile, cfg, gpu, ExecPlan::serial())
}

/// [`run_tbpoint_traced`] under an explicit [`ExecPlan`].
///
/// Tracing composes with the pool: every representative records into
/// its own [`CollectingRecorder`] created inside its pool job (the
/// recorder is `Send` but not `Sync`, so recorders are never shared
/// across workers), and the per-launch [`TraceBundle`]s are merged back
/// in canonical representative order. Both the result *and* the traces
/// are therefore bit-identical to the serial run at every worker count.
///
/// # Errors
///
/// Exactly as [`run_tbpoint_plan`].
pub fn run_tbpoint_traced_plan(
    run: &KernelRun,
    profile: &RunProfile,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<(TbpointResult, Vec<LaunchTrace>), TbError> {
    let plan = validate_call(cfg, SamplingMode::TwoPhase, plan)?;
    check_profile(run, profile)?;
    let n_launches = run.launches.len();
    let inter = pick_launches(profile, cfg, n_launches);
    let occupancy = gpu.system_occupancy(&run.kernel);

    let reps = &inter.representatives;
    let outcomes = run_indexed(plan.pool_workers, reps.len(), |i| {
        let rep = reps[i];
        let rec = CollectingRecorder::new();
        let span = Span::SimulateLaunch {
            launch: run.launches[rep].launch_id.0,
        };
        rec.span_start(0, span);
        let r = simulate_rep(run, profile, cfg, gpu, occupancy, rep, &rec)?;
        rec.span_end(r.sim_cycles, span);
        Ok((r, rec.finish()))
    })
    .map_err(|(_, e): (usize, TbError)| e)?;

    let mut rep_results = Vec::with_capacity(outcomes.len());
    let mut traces = Vec::with_capacity(outcomes.len());
    for (&rep, (r, trace)) in reps.iter().zip(outcomes) {
        rep_results.push(r);
        traces.push(LaunchTrace { launch: rep, trace });
    }

    Ok((aggregate(run, profile, inter, &rep_results), traces))
}

// --- live single-pass pipeline -----------------------------------------

/// Live inter-launch grouping: with no profile (and therefore no Eq. 2
/// feature vectors), launches are grouped by their *specs* — identical
/// `(num_blocks, work_scale)` means identical work on our deterministic
/// substrate, so one representative per spec class suffices. The first
/// launch of each class is its representative.
fn live_classes(run: &KernelRun, cfg: &TbpointConfig) -> InterResult {
    let n = run.launches.len();
    if !cfg.inter_enabled {
        return InterResult {
            clustering: Clustering::from_assignments(&(0..n).collect::<Vec<_>>()),
            representatives: (0..n).collect(),
            features: vec![],
        };
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

/// Step 2 of the live pipeline: simulate one representative with the
/// online [`LiveSampler`] (no profile). Instruction totals come out of
/// the simulator plus the sampler's skip estimates instead of a profile.
#[allow(clippy::too_many_arguments)]
fn simulate_rep_live<R: Recorder>(
    run: &KernelRun,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    occupancy: u32,
    block_invariant: bool,
    rep: usize,
    rec: &R,
) -> Result<RepSim, TbError> {
    let spec = &run.launches[rep];
    if cfg.intra_enabled {
        let mut sampler = LiveSampler::builder(spec.num_blocks, occupancy)
            .block_invariant(block_invariant)
            .sigma(cfg.intra.sigma)
            .threshold(cfg.warming_threshold)
            .unit_tb_span(cfg.unit_tb_span)
            .warming_window(cfg.warming_window)
            .warming_budget(cfg.warming_budget)
            .min_run(cfg.live_min_run)
            .guard_period(cfg.live_guard_period)
            .destab_tolerance(cfg.live_destab_tolerance)
            .recorder(rec)
            .build()?;
        let r = simulate_guarded(run, spec, gpu, &mut sampler, cfg.cycle_budget, rep, rec)?;
        let o = sampler.outcome();
        let est_total = r.issued_warp_insts + o.skipped_warp_insts;
        let predicted_cycles = r.cycles as f64 + o.predicted_skipped_cycles;
        let predicted_ipc = if predicted_cycles > 0.0 {
            est_total as f64 / predicted_cycles
        } else {
            0.0
        };
        return Ok(RepSim {
            issued: r.issued_warp_insts,
            skipped_insts: o.skipped_warp_insts,
            sim_cycles: r.cycles,
            predicted_cycles,
            predicted_ipc,
            degraded: o.degraded_regions > 0,
        });
    }

    // Intra-launch sampling disabled: the "live" run is just a detailed
    // simulation (still profile-free; instruction counts are exact).
    let r = simulate_guarded(
        run,
        spec,
        gpu,
        &mut NullSampling,
        cfg.cycle_budget,
        rep,
        rec,
    )?;
    let predicted_cycles = r.cycles as f64;
    let predicted_ipc = if predicted_cycles > 0.0 {
        r.issued_warp_insts as f64 / predicted_cycles
    } else {
        0.0
    };
    Ok(RepSim {
        issued: r.issued_warp_insts,
        skipped_insts: 0,
        sim_cycles: r.cycles,
        predicted_cycles,
        predicted_ipc,
        degraded: false,
    })
}

/// Steps 3-4 of the live pipeline. Identical accounting to the two-phase
/// [`aggregate`], except instruction totals come from the simulated
/// representatives (issued + estimated skipped) instead of the profile:
/// a non-representative launch shares its class representative's spec,
/// so its instruction count *is* the representative's estimated total.
fn aggregate_live(run: &KernelRun, inter: InterResult, rep_results: &[RepSim]) -> TbpointResult {
    let n_launches = run.launches.len();
    // rep_outcome[launch] = (predicted_cycles, predicted_ipc, est insts).
    let mut rep_outcome: Vec<Option<(f64, f64, u64)>> = vec![None; n_launches];
    let mut simulated_warp_insts = 0u64;
    let mut intra_skipped = 0u64;
    let mut degraded_launches = 0usize;
    for (&rep, r) in inter.representatives.iter().zip(rep_results) {
        simulated_warp_insts += r.issued;
        intra_skipped += r.skipped_insts;
        if r.degraded {
            degraded_launches += 1;
        }
        rep_outcome[rep] = Some((
            r.predicted_cycles,
            r.predicted_ipc,
            r.issued + r.skipped_insts,
        ));
    }

    let mut per_launch_predicted_cycles = Vec::with_capacity(n_launches);
    let mut inter_skipped = 0u64;
    let mut total_insts = 0u64;
    for i in 0..n_launches {
        let rep = inter.representatives[inter.clustering.assignments[i]];
        // Filled for every representative by the loop above; the
        // fallback only guards an impossible index.
        let (rep_cycles, rep_ipc, rep_insts) = rep_outcome[rep].unwrap_or((0.0, 0.0, 0));
        total_insts += rep_insts;
        if i == rep {
            per_launch_predicted_cycles.push(rep_cycles);
        } else {
            inter_skipped += rep_insts;
            let cycles = if rep_ipc > 0.0 {
                rep_insts as f64 / rep_ipc
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

/// Run the live single-pass TBPoint pipeline for one benchmark: no
/// profiling pass, no region tables — epoch detection, clustering and
/// fast-forwarding all happen online inside the one timing simulation
/// (see [`crate::sampling::live::LiveSampler`]).
///
/// The returned [`TbpointResult`] has the same shape as
/// [`run_tbpoint`]'s, but `total_warp_insts` (and everything derived
/// from it) is an *estimate*: exact for block-invariant kernels, the
/// cluster running mean otherwise.
///
/// # Errors
///
/// [`TbError::InvalidConfig`] when [`TbpointConfig::validate`] rejects
/// `cfg` or `cfg.mode` is not [`SamplingMode::Live`];
/// [`TbError::BudgetExceeded`] when a representative overruns
/// `cfg.cycle_budget`.
pub fn run_tbpoint_live(
    run: &KernelRun,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
) -> Result<TbpointResult, TbError> {
    run_tbpoint_live_plan(run, cfg, gpu, ExecPlan::serial())
}

/// [`run_tbpoint_live`] under an explicit [`ExecPlan`].
///
/// Exactly like [`run_tbpoint_plan`], representatives fan out across
/// `plan.pool_workers` pool threads; the retire-time feature stream the
/// live sampler consumes is delivered in the same deterministic order at
/// every worker count, so the result is bit-identical to serial.
///
/// # Errors
///
/// As [`run_tbpoint_live`], plus [`TbError::InvalidConfig`] naming
/// `sim_jobs` when `plan.sim_jobs` is neither 0 nor 1. A failing
/// representative reports the error with the lowest recorded
/// representative index.
pub fn run_tbpoint_live_plan(
    run: &KernelRun,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<TbpointResult, TbError> {
    let plan = validate_call(cfg, SamplingMode::Live, plan)?;
    let inter = live_classes(run, cfg);
    let occupancy = gpu.system_occupancy(&run.kernel);
    let deps = TraceDeps::of(&run.kernel);
    let block_invariant = !deps.per_thread && !deps.per_block;

    let reps = &inter.representatives;
    let rep_results = run_indexed(plan.pool_workers, reps.len(), |i| {
        simulate_rep_live(
            run,
            cfg,
            gpu,
            occupancy,
            block_invariant,
            reps[i],
            &NullRecorder,
        )
    })
    .map_err(|(_, e)| e)?;

    Ok(aggregate_live(run, inter, &rep_results))
}

/// [`run_tbpoint_live`] with per-launch observability traces (the live
/// analogue of [`run_tbpoint_traced`]). Runs serially; use
/// [`run_tbpoint_live_traced_plan`] to fan out.
///
/// # Errors
///
/// Exactly as [`run_tbpoint_live`].
pub fn run_tbpoint_live_traced(
    run: &KernelRun,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
) -> Result<(TbpointResult, Vec<LaunchTrace>), TbError> {
    run_tbpoint_live_traced_plan(run, cfg, gpu, ExecPlan::serial())
}

/// [`run_tbpoint_live_traced`] under an explicit [`ExecPlan`]: each
/// representative records into its own [`CollectingRecorder`] inside its
/// pool job and traces merge back in canonical representative order, so
/// both the result and the trace streams are bit-identical to serial at
/// every worker count.
///
/// # Errors
///
/// Exactly as [`run_tbpoint_live_plan`].
pub fn run_tbpoint_live_traced_plan(
    run: &KernelRun,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
    plan: ExecPlan,
) -> Result<(TbpointResult, Vec<LaunchTrace>), TbError> {
    let plan = validate_call(cfg, SamplingMode::Live, plan)?;
    let inter = live_classes(run, cfg);
    let occupancy = gpu.system_occupancy(&run.kernel);
    let deps = TraceDeps::of(&run.kernel);
    let block_invariant = !deps.per_thread && !deps.per_block;

    let reps = &inter.representatives;
    let outcomes = run_indexed(plan.pool_workers, reps.len(), |i| {
        let rep = reps[i];
        let rec = CollectingRecorder::new();
        let span = Span::SimulateLaunch {
            launch: run.launches[rep].launch_id.0,
        };
        rec.span_start(0, span);
        let r = simulate_rep_live(run, cfg, gpu, occupancy, block_invariant, rep, &rec)?;
        rec.span_end(r.sim_cycles, span);
        Ok((r, rec.finish()))
    })
    .map_err(|(_, e): (usize, TbError)| e)?;

    let mut rep_results = Vec::with_capacity(outcomes.len());
    let mut traces = Vec::with_capacity(outcomes.len());
    for (&rep, (r, trace)) in reps.iter().zip(outcomes) {
        rep_results.push(r);
        traces.push(LaunchTrace { launch: rep, trace });
    }

    Ok((aggregate_live(run, inter, &rep_results), traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_emu::profile_run;
    use tbpoint_ir::{AddrPattern, KernelBuilder, KernelRun, LaunchId, LaunchSpec, Op, TripCount};
    use tbpoint_sim::{simulate_run, NullSampling};

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

        let result = run_tbpoint(&run, &profile, &TbpointConfig::default(), &gpu).unwrap();
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
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig {
            inter_enabled: false,
            ..Default::default()
        };
        let result = run_tbpoint(&run, &profile, &cfg, &gpu).unwrap();
        assert_eq!(result.num_simulated_launches, 4);
        assert_eq!(result.breakdown.inter_skipped_warp_insts, 0);
    }

    #[test]
    fn disabling_intra_runs_representatives_in_full() {
        let run = homogeneous_run(4, 200);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig {
            intra_enabled: false,
            ..Default::default()
        };
        let result = run_tbpoint(&run, &profile, &cfg, &gpu).unwrap();
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
        let result = run_tbpoint(&run, &profile, &cfg, &gpu).unwrap();
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
        let err = run_tbpoint(
            &run,
            &profile,
            &TbpointConfig::default(),
            &GpuConfig::fermi(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            TbError::ProfileMismatch {
                run_launches: 3,
                profile_launches: 2
            }
        );
    }

    #[test]
    fn nonsense_config_is_rejected_up_front() {
        let run = homogeneous_run(2, 10);
        let profile = profile_run(&run, 1);
        let gpu = GpuConfig::fermi();

        let zero_span = TbpointConfig {
            unit_tb_span: 0,
            ..Default::default()
        };
        let err = run_tbpoint(&run, &profile, &zero_span, &gpu).unwrap_err();
        assert!(matches!(
            err,
            TbError::InvalidConfig {
                field: "unit_tb_span",
                ..
            }
        ));

        let bad_threshold = TbpointConfig {
            warming_threshold: -0.1,
            ..Default::default()
        };
        let err = run_tbpoint(&run, &profile, &bad_threshold, &gpu).unwrap_err();
        assert!(matches!(
            err,
            TbError::InvalidConfig {
                field: "warming_threshold",
                ..
            }
        ));

        let bad_sigma = TbpointConfig {
            inter: InterConfig {
                sigma: f64::NAN,
                ..Default::default()
            },
            ..Default::default()
        };
        let err = bad_sigma.validate().unwrap_err();
        assert!(matches!(
            err,
            TbError::InvalidConfig {
                field: "inter.sigma",
                ..
            }
        ));
    }

    #[test]
    fn invalid_profile_degrades_to_detailed_simulation() {
        let run = homogeneous_run(3, 200);
        let gpu = GpuConfig::fermi();
        let mut profile = profile_run(&run, 2);
        // Truncate every launch's block roster: validation must fail and
        // the pipeline must fall back to full detailed simulation of the
        // representatives instead of indexing out of bounds.
        for lp in &mut profile.launches {
            lp.tbs.pop();
        }
        let result = run_tbpoint(&run, &profile, &TbpointConfig::default(), &gpu).unwrap();
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
        let (result, traces) =
            run_tbpoint_traced(&run, &profile, &TbpointConfig::default(), &gpu).unwrap();
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
        let (result, traces) = run_tbpoint_traced(&run, &profile, &cfg, &gpu).unwrap();
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
        let r2 = run_tbpoint(&run, &profile, &no_budget, &gpu).unwrap();
        assert_eq!(r2.degraded_launches, 0);
    }

    #[test]
    fn cycle_budget_overrun_is_an_error_not_a_hang() {
        let run = homogeneous_run(1, 1800);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig {
            cycle_budget: Some(1),
            ..Default::default()
        };
        let err = run_tbpoint(&run, &profile, &cfg, &gpu).unwrap_err();
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
        let guarded = run_tbpoint(&run, &profile, &roomy, &gpu).unwrap();
        let plain = run_tbpoint(&run, &profile, &TbpointConfig::default(), &gpu).unwrap();
        assert_eq!(guarded, plain);
    }

    #[test]
    fn resilience_config_fields_are_validated() {
        let bad_budget = TbpointConfig {
            warming_budget: Some(1),
            ..Default::default()
        };
        assert!(matches!(
            bad_budget.validate().unwrap_err(),
            TbError::InvalidConfig {
                field: "warming_budget",
                ..
            }
        ));
        let zero_cycles = TbpointConfig {
            cycle_budget: Some(0),
            ..Default::default()
        };
        assert!(matches!(
            zero_cycles.validate().unwrap_err(),
            TbError::InvalidConfig {
                field: "cycle_budget",
                ..
            }
        ));
    }

    #[test]
    fn degradation_ratio_math() {
        let run = homogeneous_run(2, 100);
        let profile = profile_run(&run, 2);
        let mut r = run_tbpoint(
            &run,
            &profile,
            &TbpointConfig::default(),
            &GpuConfig::fermi(),
        )
        .unwrap();
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
        let plain = run_tbpoint(&run, &profile, &cfg, &gpu).unwrap();
        let (traced, traces) = run_tbpoint_traced(&run, &profile, &cfg, &gpu).unwrap();
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

    #[test]
    fn live_mode_on_homogeneous_run_is_accurate_and_cheap() {
        let run = homogeneous_run(6, 1800);
        let gpu = GpuConfig::fermi();
        let full = simulate_run(&run, &gpu, &mut NullSampling, None);

        let cfg = TbpointConfig {
            mode: SamplingMode::Live,
            ..Default::default()
        };
        let result = run_tbpoint_live(&run, &cfg, &gpu).unwrap();
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
    fn live_and_two_phase_agree_on_homogeneous_run() {
        let run = homogeneous_run(4, 1800);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig::default();
        let two_phase = run_tbpoint(&run, &profile, &cfg, &gpu).unwrap();
        let live = run_tbpoint_live(&run, &live_cfg(), &gpu).unwrap();
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
        let result = run_tbpoint_live(&run, &cfg, &gpu).unwrap();
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
        let (result, traces) = run_tbpoint_live_traced(&run, &cfg, &gpu).unwrap();
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
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig {
            cycle_budget: Some(1),
            ..live_cfg()
        };
        let err = run_tbpoint_live(&run, &cfg, &gpu).unwrap_err();
        assert_eq!(
            err,
            TbError::BudgetExceeded {
                launch: 0,
                budget_cycles: 1
            }
        );
    }

    #[test]
    fn live_config_knobs_are_validated() {
        let run = homogeneous_run(1, 10);
        let gpu = GpuConfig::fermi();
        for (cfg, field) in [
            (
                TbpointConfig {
                    live_min_run: 0,
                    ..live_cfg()
                },
                "live_min_run",
            ),
            (
                TbpointConfig {
                    live_guard_period: 0,
                    ..live_cfg()
                },
                "live_guard_period",
            ),
            (
                TbpointConfig {
                    live_destab_tolerance: f64::NAN,
                    ..live_cfg()
                },
                "live_destab_tolerance",
            ),
        ] {
            let err = run_tbpoint_live(&run, &cfg, &gpu).unwrap_err();
            match err {
                TbError::InvalidConfig { field: f, .. } => assert_eq!(f, field),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn live_pooled_results_and_traces_are_identical_at_any_worker_count() {
        let run = homogeneous_run(5, 300);
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig {
            inter_enabled: false,
            ..live_cfg()
        };
        let serial = run_tbpoint_live(&run, &cfg, &gpu).unwrap();
        let (serial_traced, serial_traces) = run_tbpoint_live_traced(&run, &cfg, &gpu).unwrap();
        assert_eq!(serial, serial_traced, "tracing changed the live result");
        for pool_workers in [1, 2, 4] {
            let plan = ExecPlan::pool(pool_workers);
            let pooled = run_tbpoint_live_plan(&run, &cfg, &gpu, plan).unwrap();
            assert_eq!(pooled, serial, "workers={pool_workers}");
            let (traced, traces) = run_tbpoint_live_traced_plan(&run, &cfg, &gpu, plan).unwrap();
            assert_eq!(traced, serial_traced, "workers={pool_workers}");
            // Canonical-order merge: the trace streams match too.
            assert_eq!(traces, serial_traces, "workers={pool_workers}");
        }
    }

    #[test]
    fn pooled_results_and_traces_are_identical_at_any_worker_count() {
        // Disable inter-launch sampling so several representatives are
        // actually simulated and the pool has launches to schedule.
        let run = homogeneous_run(5, 300);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 2);
        let cfg = TbpointConfig {
            inter_enabled: false,
            ..Default::default()
        };
        let serial = run_tbpoint(&run, &profile, &cfg, &gpu).unwrap();
        let (serial_traced, serial_traces) =
            run_tbpoint_traced(&run, &profile, &cfg, &gpu).unwrap();
        for pool_workers in [1, 2, 4] {
            let plan = ExecPlan::pool(pool_workers);
            let pooled = run_tbpoint_plan(&run, &profile, &cfg, &gpu, plan).unwrap();
            assert_eq!(pooled, serial, "pool_workers={pool_workers}");
            let (traced, traces) =
                run_tbpoint_traced_plan(&run, &profile, &cfg, &gpu, plan).unwrap();
            assert_eq!(traced, serial_traced, "pool_workers={pool_workers}");
            // Canonical-order merge: the trace *streams* are identical
            // too, not just the results.
            assert_eq!(traces, serial_traces, "pool_workers={pool_workers}");
        }
    }

    fn assert_invalid<T: std::fmt::Debug>(r: Result<T, TbError>, field: &str) {
        match r {
            Err(TbError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
            other => panic!("expected InvalidConfig({field}), got {other:?}"),
        }
    }

    #[test]
    fn two_phase_family_rejects_a_live_config() {
        let run = homogeneous_run(1, 10);
        let gpu = GpuConfig::fermi();
        let profile = profile_run(&run, 1);
        let cfg = live_cfg();
        let plan = ExecPlan::serial();
        assert_invalid(run_tbpoint(&run, &profile, &cfg, &gpu), "mode");
        assert_invalid(run_tbpoint_traced(&run, &profile, &cfg, &gpu), "mode");
        assert_invalid(run_tbpoint_plan(&run, &profile, &cfg, &gpu, plan), "mode");
        assert_invalid(
            run_tbpoint_traced_plan(&run, &profile, &cfg, &gpu, plan),
            "mode",
        );
    }

    #[test]
    fn live_family_rejects_a_two_phase_config() {
        let run = homogeneous_run(1, 10);
        let gpu = GpuConfig::fermi();
        let cfg = TbpointConfig::default();
        let plan = ExecPlan::serial();
        assert_invalid(run_tbpoint_live(&run, &cfg, &gpu), "mode");
        assert_invalid(run_tbpoint_live_traced(&run, &cfg, &gpu), "mode");
        assert_invalid(run_tbpoint_live_plan(&run, &cfg, &gpu, plan), "mode");
        assert_invalid(run_tbpoint_live_traced_plan(&run, &cfg, &gpu, plan), "mode");
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
        assert_invalid(
            run_tbpoint_plan(&run, &profile, &cfg, &gpu, plan),
            "sim_jobs",
        );
        assert_invalid(
            run_tbpoint_traced_plan(&run, &profile, &cfg, &gpu, plan),
            "sim_jobs",
        );
        let cfg = live_cfg();
        assert_invalid(run_tbpoint_live_plan(&run, &cfg, &gpu, plan), "sim_jobs");
        assert_invalid(
            run_tbpoint_live_traced_plan(&run, &cfg, &gpu, plan),
            "sim_jobs",
        );
        // Zero keeps normalizing to one.
        let zero = ExecPlan {
            sim_jobs: 0,
            pool_workers: 1,
        };
        assert!(run_tbpoint_plan(&run, &profile, &TbpointConfig::default(), &gpu, zero).is_ok());
        assert!(run_tbpoint_live_plan(&run, &cfg, &gpu, zero).is_ok());
    }
}
