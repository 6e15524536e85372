//! The fault-injection matrix runner.
//!
//! Runs every `(benchmark, fault, seed)` cell under
//! [`std::panic::catch_unwind`] and classifies what the pipeline did
//! with the damage. The contract under test: **no fault ever panics** —
//! each one surfaces as a [`tbpoint_core::TbError`], as degraded mode
//! (with `DegradedMode` events and a nonzero `degradation_ratio`), as a
//! rejected trace, or as a quantified IPC error.
//!
//! [`error_growth`] additionally sweeps a jitter magnitude and reports
//! how the sampling error grows with injected profile noise, which
//! checks the paper's headline empirically: at zero injected noise the
//! TBPoint prediction stays within ~10% of the full simulation.

use crate::fault::{corrupt_text, inject_profile, Fault};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use tbpoint_core::{run_tbpoint, run_tbpoint_traced, ExecPlan, TbpointConfig};
use tbpoint_emu::{profile_run, RunProfile};
use tbpoint_ir::KernelRun;
use tbpoint_obs::TraceBundle;
use tbpoint_pool::{run_supervised, UnitError};
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling};

/// What one matrix cell did with its fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The pipeline panicked — always a bug; the matrix exists to keep
    /// this count at zero.
    Panicked(String),
    /// The pipeline returned a `TbError` (message attached).
    GracefulError(String),
    /// The pipeline completed but fell back to detailed simulation for
    /// some representatives, emitting `DegradedMode`.
    Degraded {
        /// `TbpointResult::degradation_ratio()` of the faulty run.
        degradation_ratio: f64,
        /// Absolute IPC error (percent) vs the clean full simulation.
        err_pct: f64,
    },
    /// The pipeline completed normally; the fault's effect is the
    /// quantified IPC error vs the clean full simulation.
    Quantified {
        /// Absolute IPC error (percent) vs the clean full simulation.
        err_pct: f64,
    },
    /// A corrupted trace was rejected by the checked parser (message
    /// attached) — the correct behaviour for trace faults.
    Rejected(String),
    /// A corrupted trace parsed without complaint — a hole in the
    /// integrity defence; the matrix exists to keep this count at zero.
    SilentlyAccepted,
}

/// One `(benchmark, fault, seed)` result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Benchmark name.
    pub bench: String,
    /// The injected fault.
    pub fault: Fault,
    /// The injection seed (replay coordinate).
    pub seed: u64,
    /// What happened.
    pub outcome: Outcome,
}

/// The whole matrix plus the per-benchmark clean baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MatrixReport {
    /// Every cell, in `(bench, fault, seed)` order.
    pub cells: Vec<MatrixCell>,
    /// Per-benchmark clean TBPoint error vs full simulation (percent) —
    /// the zero-noise baseline the faulty errors are read against.
    pub clean_err_pct: Vec<(String, f64)>,
}

impl MatrixReport {
    /// Cells that panicked (must be zero).
    pub fn panics(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::Panicked(_)))
            .count()
    }

    /// Trace cells that were silently accepted (must be zero).
    pub fn silently_accepted(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::SilentlyAccepted))
            .count()
    }

    /// The matrix's pass criterion: every fault was contained.
    pub fn all_contained(&self) -> bool {
        self.panics() == 0 && self.silently_accepted() == 0
    }

    /// Human-readable per-fault tally.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut faults: Vec<&'static str> = self.cells.iter().map(|c| c.fault.name()).collect();
        faults.dedup();
        for fname in faults {
            let (mut err, mut deg, mut quant, mut rej, mut bad) = (0, 0, 0, 0, 0);
            for c in self.cells.iter().filter(|c| c.fault.name() == fname) {
                match c.outcome {
                    Outcome::GracefulError(_) => err += 1,
                    Outcome::Degraded { .. } => deg += 1,
                    Outcome::Quantified { .. } => quant += 1,
                    Outcome::Rejected(_) => rej += 1,
                    Outcome::Panicked(_) | Outcome::SilentlyAccepted => bad += 1,
                }
            }
            let _ = writeln!(
                out,
                "{fname:18} error={err:3} degraded={deg:3} quantified={quant:3} \
                 rejected={rej:3} CONTAINMENT-FAILURES={bad}"
            );
        }
        let _ = writeln!(
            out,
            "cells={} panics={} silently-accepted={}",
            self.cells.len(),
            self.panics(),
            self.silently_accepted()
        );
        out
    }
}

/// Matrix shape: which faults, which seeds, and the pipeline config the
/// faulty profiles run under.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Faults to inject (default: [`Fault::default_matrix`]).
    pub faults: Vec<Fault>,
    /// Injection seeds (default: 8 seeds).
    pub seeds: Vec<u64>,
    /// GPU model for simulations.
    pub gpu: GpuConfig,
    /// Pipeline config. The default enables a warming budget so regions
    /// destabilised by jitter degrade instead of warming forever.
    pub config: TbpointConfig,
}

impl Default for MatrixOptions {
    fn default() -> Self {
        MatrixOptions {
            faults: Fault::default_matrix(),
            seeds: (0..8).map(|i| 0xF00D + i).collect(),
            gpu: GpuConfig::fermi(),
            config: TbpointConfig {
                warming_budget: Some(32),
                ..TbpointConfig::default()
            },
        }
    }
}

fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one profile-fault cell: inject, run the pipeline, classify.
fn profile_cell(
    run: &KernelRun,
    profile: &RunProfile,
    full_ipc: f64,
    fault: Fault,
    seed: u64,
    opts: &MatrixOptions,
) -> Outcome {
    let mut faulty = profile.clone();
    inject_profile(&mut faulty, fault, seed);
    let plan = ExecPlan::serial();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_tbpoint(run, Some(&faulty), &opts.config, &opts.gpu, plan)
    }));
    match outcome {
        Err(p) => Outcome::Panicked(panic_msg(p)),
        Ok(Err(e)) => Outcome::GracefulError(e.to_string()),
        Ok(Ok(r)) => {
            let err_pct = r.error_vs(full_ipc);
            if r.degraded_launches > 0 {
                Outcome::Degraded {
                    degradation_ratio: r.degradation_ratio(),
                    err_pct,
                }
            } else {
                Outcome::Quantified { err_pct }
            }
        }
    }
}

/// Run one trace-fault cell: corrupt a sealed bundle, feed it to the
/// checked parser, classify.
fn trace_cell(sealed: &str, fault: Fault, seed: u64) -> Outcome {
    let corrupted = corrupt_text(sealed, fault, seed);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        TraceBundle::from_jsonl_checked(&corrupted)
    }));
    match outcome {
        Err(p) => Outcome::Panicked(panic_msg(p)),
        Ok(Err(e)) => Outcome::Rejected(e.to_string()),
        Ok(Ok(_)) => Outcome::SilentlyAccepted,
    }
}

/// Run one pool-fault cell: schedule a batch of units on the
/// *supervised* pool with two seeded units rigged to panic, at several
/// worker counts, and classify the containment. The contract:
///
/// * no panic escapes the pool (else [`Outcome::Panicked`]);
/// * exactly the rigged indices report [`UnitError::Panicked`] with the
///   injected message, **every other index completes** with the correct
///   value, and the outcome vector is identical at every worker count —
///   then the cell is [`Outcome::GracefulError`] carrying the
///   *lowest* failed index (the workspace's error-reporting rule);
/// * anything else — a lost panic, a wrong sibling value, a
///   worker-count-dependent outcome — is [`Outcome::SilentlyAccepted`].
///
/// The cell is a pure function of the seed (it ignores the benchmark:
/// the pool under attack schedules synthetic units, not profiles).
fn pool_cell(seed: u64) -> Outcome {
    const UNITS: usize = 16;
    let bad_a = crate::fault::seeded_index(&[seed, 20], UNITS);
    let bad_b = crate::fault::seeded_index(&[seed, 21], UNITS);
    let is_bad = |i: usize| i == bad_a || i == bad_b;

    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_supervised::<u64, String, _>(workers, UNITS, |i| {
                if is_bad(i) {
                    // The fault under test: a deliberate unit panic the
                    // supervised pool must contain.
                    // tbpoint-lint: allow(no-panic-in-library)
                    panic!("injected unit panic");
                }
                Ok(i as u64 * 3)
            })
        }));
        match run {
            Err(p) => return Outcome::Panicked(panic_msg(p)),
            Ok(results) => runs.push(results),
        }
    }

    let contained = runs.iter().all(|results| {
        results.len() == UNITS
            && results.iter().enumerate().all(|(i, r)| match r {
                Ok(v) => !is_bad(i) && *v == i as u64 * 3,
                Err(UnitError::Panicked(msg)) => is_bad(i) && msg == "injected unit panic",
                Err(UnitError::Failed(_)) => false,
            })
    });
    let identical = runs.windows(2).all(|w| w[0] == w[1]);
    if contained && identical {
        let lowest = bad_a.min(bad_b);
        Outcome::GracefulError(format!(
            "unit {lowest} panicked: injected unit panic ({}/{UNITS} units completed)",
            UNITS - if bad_a == bad_b { 1 } else { 2 }
        ))
    } else {
        // A lost panic or a timing-dependent outcome is exactly the
        // silent-damage class the matrix exists to keep at zero.
        Outcome::SilentlyAccepted
    }
}

/// Run the full fault matrix over the given named workloads.
///
/// Per benchmark this profiles once, runs one full simulation (the IPC
/// reference), runs one clean traced TBPoint pass (whose first trace
/// becomes the sealed bundle the trace faults corrupt), then executes
/// every `(fault, seed)` cell.
pub fn run_fault_matrix(runs: &[(String, KernelRun)], opts: &MatrixOptions) -> MatrixReport {
    let mut report = MatrixReport::default();
    for (name, run) in runs {
        let profile = profile_run(run, 1);
        let full = simulate_run(run, &opts.gpu, &mut NullSampling, None);
        let full_ipc = full.overall_ipc();
        let plan = ExecPlan::serial();
        let sealed = match run_tbpoint_traced(run, Some(&profile), &opts.config, &opts.gpu, plan) {
            Ok((clean, traces)) => {
                report
                    .clean_err_pct
                    .push((name.clone(), clean.error_vs(full_ipc)));
                traces
                    .first()
                    .map(|t| t.trace.to_jsonl_checked())
                    .unwrap_or_default()
            }
            Err(e) => {
                // A benchmark whose *clean* run fails is reported as one
                // graceful-error cell per fault so the hole is visible.
                report.clean_err_pct.push((name.clone(), f64::NAN));
                for &fault in &opts.faults {
                    for &seed in &opts.seeds {
                        report.cells.push(MatrixCell {
                            bench: name.clone(),
                            fault,
                            seed,
                            outcome: Outcome::GracefulError(format!("clean run failed: {e}")),
                        });
                    }
                }
                continue;
            }
        };
        for &fault in &opts.faults {
            for &seed in &opts.seeds {
                let outcome = if fault.is_profile_fault() {
                    profile_cell(run, &profile, full_ipc, fault, seed, opts)
                } else if fault.is_pool_fault() {
                    pool_cell(seed)
                } else {
                    trace_cell(&sealed, fault, seed)
                };
                report.cells.push(MatrixCell {
                    bench: name.clone(),
                    fault,
                    seed,
                    outcome,
                });
            }
        }
    }
    report
}

/// One point of the noise-vs-error curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrowthPoint {
    /// Injected stall-jitter magnitude (0 = clean).
    pub magnitude: f64,
    /// Mean absolute IPC error (percent) vs full simulation across
    /// seeds.
    pub mean_err_pct: f64,
    /// Worst seed's error.
    pub max_err_pct: f64,
}

/// Sweep stall-jitter magnitude and measure how the TBPoint IPC error
/// grows with injected profile noise (the empirical check on the
/// paper's ~10% claim: the `magnitude = 0` point is the clean sampling
/// error). Degraded and failed runs count as `100%` error so they are
/// visible in the curve rather than silently dropped.
pub fn error_growth(
    run: &KernelRun,
    magnitudes: &[f64],
    seeds: &[u64],
    opts: &MatrixOptions,
) -> Vec<GrowthPoint> {
    let profile = profile_run(run, 1);
    let full_ipc = simulate_run(run, &opts.gpu, &mut NullSampling, None).overall_ipc();
    let plan = ExecPlan::serial();
    magnitudes
        .iter()
        .map(|&magnitude| {
            let errs: Vec<f64> = seeds
                .iter()
                .map(|&seed| {
                    let mut faulty = profile.clone();
                    inject_profile(&mut faulty, Fault::StallJitter { magnitude }, seed);
                    match run_tbpoint(run, Some(&faulty), &opts.config, &opts.gpu, plan) {
                        Ok(r) => r.error_vs(full_ipc),
                        Err(_) => 100.0,
                    }
                })
                .collect();
            GrowthPoint {
                magnitude,
                mean_err_pct: tbpoint_stats::mean(&errs),
                max_err_pct: tbpoint_stats::max_f64(&errs),
            }
        })
        .collect()
}
