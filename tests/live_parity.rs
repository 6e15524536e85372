//! The live-sampling parity contract, per workload:
//!
//! * live single-pass estimates track the two-phase pipeline within a
//!   fixed tolerance on every Tiny roster workload and on seeded
//!   random kernels — fusing profiling into the timing pass must not
//!   change what the pipeline concludes, only how often it runs;
//! * live errors against the full simulation stay inside the same
//!   clean-baseline envelope `tbpoint bench --check` enforces;
//! * live results are **bit-identical** at every [`ExecPlan`] pool
//!   worker count — the online detector consumes the retire stream in
//!   launch order, so scheduling must be invisible.
//!
//! Inputs come from seeded deterministic generators (see `common::Gen`)
//! rather than `proptest`, which is unavailable in the offline build
//! environment; each case reproduces exactly from its loop index.

mod common;

use common::Gen;
use tbpoint::core::{run_tbpoint, SamplingMode, TbpointConfig, TbpointResult};
use tbpoint::emu::profile_run;
use tbpoint::ir::KernelRun;
use tbpoint::pool::ExecPlan;
use tbpoint::sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint::workloads::{all_benchmarks, PhaseSpec, Scale, SyntheticSpec};

/// Relative IPC gap allowed between the two sampling modes. They make
/// different (both defensible) sampling decisions, so exact equality is
/// not the contract — agreement on the answer is.
const MODE_TOLERANCE: f64 = 0.10;

/// Sampled-vs-full error envelope, matching `bench::ERROR_BOUND_PCT`
/// (the resilience suite's clean-baseline anchor).
const ERROR_BOUND_PCT: f64 = 10.0;

/// The pool worker counts the plan-invariance check runs.
const POOL_WORKERS: [usize; 3] = [1, 2, 4];

fn live_cfg() -> TbpointConfig {
    TbpointConfig {
        mode: SamplingMode::Live,
        ..TbpointConfig::default()
    }
}

/// Live vs two-phase vs full on one run; panics with `label` context
/// when the modes disagree beyond tolerance or live leaves the error
/// envelope.
fn assert_live_tracks_two_phase(label: &str, run: &KernelRun, gpu: &GpuConfig) {
    let profile = profile_run(run, 1);
    let cfg = TbpointConfig::default();
    let two_phase = run_tbpoint(run, Some(&profile), &cfg, gpu, ExecPlan::serial())
        .expect("two-phase pipeline");
    let live = run_tbpoint(run, None, &live_cfg(), gpu, ExecPlan::serial()).expect("live pipeline");

    let rel = if two_phase.predicted_ipc > 0.0 {
        ((live.predicted_ipc - two_phase.predicted_ipc) / two_phase.predicted_ipc).abs()
    } else {
        0.0
    };
    assert!(
        rel <= MODE_TOLERANCE,
        "{label}: live IPC {:.4} vs two-phase {:.4} — {:.2}% apart (tolerance {:.0}%)",
        live.predicted_ipc,
        two_phase.predicted_ipc,
        rel * 100.0,
        MODE_TOLERANCE * 100.0
    );

    let full_ipc = simulate_run(run, gpu, &mut NullSampling, None).overall_ipc();
    let live_err = live.error_vs(full_ipc);
    assert!(
        live_err <= ERROR_BOUND_PCT,
        "{label}: live sampled-vs-full error {live_err:.2}% breaches the \
         {ERROR_BOUND_PCT}% envelope (two-phase: {:.2}%)",
        two_phase.error_vs(full_ipc)
    );
}

/// Live results at every pool worker count; panics with `label`
/// context when any differs from the serial result.
fn assert_live_plan_invariant(label: &str, run: &KernelRun, gpu: &GpuConfig) {
    let mut reference: Option<TbpointResult> = None;
    for workers in POOL_WORKERS {
        let r = run_tbpoint(run, None, &live_cfg(), gpu, ExecPlan::pool(workers))
            .expect("live pipeline");
        match &reference {
            None => reference = Some(r),
            Some(serial) => assert_eq!(
                &r, serial,
                "{label}: live result at pool-workers={workers} differs from the serial run"
            ),
        }
    }
}

#[test]
fn live_tracks_two_phase_on_every_tiny_workload() {
    let gpu = GpuConfig::fermi();
    for bench in all_benchmarks(Scale::Tiny) {
        assert_live_tracks_two_phase(bench.name, &bench.run, &gpu);
    }
}

#[test]
fn live_results_are_bit_identical_across_both_plan_axes() {
    let gpu = GpuConfig::fermi();
    for bench in all_benchmarks(Scale::Tiny) {
        assert_live_plan_invariant(bench.name, &bench.run, &gpu);
    }
}

fn random_spec(g: &mut Gen) -> SyntheticSpec {
    let phases = if g.usize(0, 2) == 0 {
        PhaseSpec::None
    } else {
        PhaseSpec::Phased {
            phase_len: g.u32(4, 32),
            max_mult: g.u32(2, 5),
        }
    };
    SyntheticSpec {
        name: "live-parity".into(),
        seed: g.any_u64(),
        threads_per_block: 64,
        launches: g.u32(2, 5),
        blocks_per_launch: g.u32(8, 48),
        iterations: g.u32(1, 8),
        alu_per_iter: g.u32(0, 4).max(1),
        loads_per_iter: g.u32(0, 3),
        gather_fraction: g.f64(0.0, 1.0),
        divergence_spread: g.u32(0, 8),
        phases,
        branch_prob: g.f64(0.0, 0.6),
    }
}

#[test]
fn live_parity_holds_on_seeded_random_kernels() {
    const CASES: u64 = 8;
    let gpu = GpuConfig::fermi();
    for case in 0..CASES {
        let mut g = Gen::new(0x1b, case);
        let run = random_spec(&mut g).build();
        let label = format!("case {case}");
        assert_live_tracks_two_phase(&label, &run, &gpu);
        assert_live_plan_invariant(&label, &run, &gpu);
    }
}
