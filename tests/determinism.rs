//! Cross-crate determinism: the entire stack — workload generation,
//! profiling (serial and parallel), timing simulation, clustering and
//! prediction — must be bit-reproducible. Reproducibility is what makes
//! profile-once-simulate-anywhere sound.

use tbpoint::baselines::{collect_units, ideal_simpoint, IdealSimpointConfig};
use tbpoint::core::predict::{run_tbpoint, TbpointConfig};
use tbpoint::emu::{profile_launch, profile_run};
use tbpoint::pool::ExecPlan;
use tbpoint::sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint::workloads::{benchmark_by_name, Scale};

#[test]
fn workload_generation_is_stable() {
    let a = benchmark_by_name("bfs", Scale::Tiny).unwrap();
    let b = benchmark_by_name("bfs", Scale::Tiny).unwrap();
    assert_eq!(a.run, b.run);
}

#[test]
fn profiling_is_thread_count_invariant() {
    let bench = benchmark_by_name("sssp", Scale::Tiny).unwrap();
    let spec = bench
        .run
        .launches
        .iter()
        .max_by_key(|l| l.num_blocks)
        .unwrap();
    let serial = profile_launch(&bench.run.kernel, spec, 1);
    let parallel = profile_launch(&bench.run.kernel, spec, 8);
    assert_eq!(serial, parallel);
}

#[test]
fn simulation_is_run_to_run_deterministic() {
    let bench = benchmark_by_name("mst", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let a = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
    let b = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
    assert_eq!(a, b);
}

#[test]
fn tbpoint_prediction_is_deterministic() {
    let bench = benchmark_by_name("spmv", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let profile = profile_run(&bench.run, 4);
    let (cfg, plan) = (TbpointConfig::default(), ExecPlan::serial());
    let a = run_tbpoint(&bench.run, Some(&profile), &cfg, &gpu, plan).unwrap();
    let b = run_tbpoint(&bench.run, Some(&profile), &cfg, &gpu, plan).unwrap();
    assert_eq!(a, b);
}

#[test]
fn tbpoint_is_worker_count_invariant() {
    // Parallel representative simulation must not change any number.
    let bench = benchmark_by_name("cfd", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let profile = profile_run(&bench.run, 4);
    let cfg = TbpointConfig::default();
    let serial = run_tbpoint(&bench.run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
    let parallel = run_tbpoint(
        &bench.run,
        Some(&profile),
        &cfg,
        &gpu,
        ExecPlan {
            sim_jobs: 1,
            pool_workers: 8,
        },
    )
    .unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn baseline_unit_collection_is_deterministic() {
    let bench = benchmark_by_name("kmeans", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let (units_a, ipc_a) = collect_units(&bench.run, &gpu, 5_000, true);
    let (units_b, ipc_b) = collect_units(&bench.run, &gpu, 5_000, true);
    assert_eq!(units_a, units_b);
    assert_eq!(ipc_a, ipc_b);
    let isp_a = ideal_simpoint(&units_a, &IdealSimpointConfig::default());
    let isp_b = ideal_simpoint(&units_b, &IdealSimpointConfig::default());
    assert_eq!(isp_a, isp_b);
}
