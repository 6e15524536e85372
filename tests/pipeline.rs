//! End-to-end integration tests: the full TBPoint pipeline (profile ->
//! cluster -> sampled simulation -> prediction) against full simulation,
//! across crates. Tiny scale keeps them fast.

use tbpoint::core::predict::{run_tbpoint, TbpointConfig, TbpointResult};
use tbpoint::emu::{profile_run, RunProfile};
use tbpoint::ir::KernelRun;
use tbpoint::pool::ExecPlan;
use tbpoint::sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint::workloads::{all_benchmarks, benchmark_by_name, Scale};

/// The paper-default two-phase pipeline, serial.
fn paper_default(run: &KernelRun, profile: &RunProfile, gpu: &GpuConfig) -> TbpointResult {
    let cfg = TbpointConfig::default();
    run_tbpoint(run, Some(profile), &cfg, gpu, ExecPlan::serial()).unwrap()
}

/// Any benchmark, full pipeline: the prediction must be finite, the
/// accounting must conserve instructions, and the error must be sane.
#[test]
fn pipeline_invariants_hold_for_every_benchmark() {
    let gpu = GpuConfig::fermi();
    for bench in all_benchmarks(Scale::Tiny) {
        let profile = profile_run(&bench.run, 2);
        let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        let tbp = paper_default(&bench.run, &profile, &gpu);

        // Instruction conservation: the profile and the full simulation
        // must agree exactly (same walker), and TBPoint's accounting must
        // partition the workload.
        assert_eq!(
            profile.total_warp_insts(),
            full.total_issued_warp_insts(),
            "{}: profile and simulation disagree on instruction count",
            bench.name
        );
        assert_eq!(
            tbp.simulated_warp_insts + tbp.breakdown.total_skipped(),
            tbp.total_warp_insts,
            "{}: sampled accounting does not conserve instructions",
            bench.name
        );
        assert_eq!(
            tbp.total_warp_insts,
            profile.total_warp_insts(),
            "{}",
            bench.name
        );

        // Prediction sanity.
        assert!(
            tbp.predicted_ipc.is_finite() && tbp.predicted_ipc > 0.0,
            "{}",
            bench.name
        );
        let err = tbp.error_vs(full.overall_ipc());
        assert!(err < 25.0, "{}: error {err:.2}% at tiny scale", bench.name);

        // Sample size is a valid fraction and never zero (something must
        // be simulated).
        let s = tbp.sample_size();
        assert!(s > 0.0 && s <= 1.0, "{}: sample size {s}", bench.name);
    }
}

/// Regular many-launch kernels must collapse to very few simulated
/// launches; single-launch kernels must rely on intra sampling only.
#[test]
fn savings_structure_matches_kernel_shape() {
    let gpu = GpuConfig::fermi();
    for (name, expect_single) in [("cfd", false), ("stream", false), ("lbm", true)] {
        let bench = benchmark_by_name(name, Scale::Tiny).unwrap();
        let profile = profile_run(&bench.run, 2);
        let tbp = paper_default(&bench.run, &profile, &gpu);
        if expect_single {
            assert_eq!(tbp.num_launches, 1, "{name}");
            assert_eq!(
                tbp.breakdown.inter_skipped_warp_insts, 0,
                "{name}: single launch cannot have inter savings"
            );
        } else {
            assert!(
                tbp.num_simulated_launches * 5 <= tbp.num_launches,
                "{name}: homogeneous launches should collapse ({}/{})",
                tbp.num_simulated_launches,
                tbp.num_launches
            );
            assert!(tbp.breakdown.inter_skipped_warp_insts > 0, "{name}");
        }
    }
}

/// TBPoint's defining accuracy claim at small scale: on regular kernels
/// the error stays within a few percent of full simulation.
#[test]
fn regular_kernels_predict_accurately() {
    let gpu = GpuConfig::fermi();
    for name in ["cfd", "kmeans", "stream", "conv"] {
        let bench = benchmark_by_name(name, Scale::Tiny).unwrap();
        let profile = profile_run(&bench.run, 2);
        let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        let tbp = paper_default(&bench.run, &profile, &gpu);
        let err = tbp.error_vs(full.overall_ipc());
        assert!(err < 8.0, "{name}: error {err:.2}%");
    }
}

/// The hardware-independence claim: one profile drives TBPoint at any
/// simulated configuration.
#[test]
fn one_profile_serves_multiple_configs() {
    let bench = benchmark_by_name("spmv", Scale::Tiny).unwrap();
    let profile = profile_run(&bench.run, 2); // collected once
    for (w, s) in [(16u32, 8u32), (48, 14)] {
        let gpu = GpuConfig::with_occupancy(w, s);
        let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        let tbp = paper_default(&bench.run, &profile, &gpu);
        assert!(
            tbp.error_vs(full.overall_ipc()) < 20.0,
            "W{w}S{s}: error {:.2}%",
            tbp.error_vs(full.overall_ipc())
        );
    }
}

/// Disabling both techniques must reproduce the full simulation exactly
/// (the null sampling identity).
#[test]
fn null_config_is_exact() {
    let bench = benchmark_by_name("hotspot", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let profile = profile_run(&bench.run, 2);
    let full = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
    let cfg = TbpointConfig {
        inter_enabled: false,
        intra_enabled: false,
        ..TbpointConfig::default()
    };
    let tbp = run_tbpoint(&bench.run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
    assert!(tbp.error_vs(full.overall_ipc()) < 1e-9);
    assert_eq!(tbp.sample_size(), 1.0);
}
