//! The three workloads and one measured pass over a workload's kernels.
//!
//! A pass drives the library from outside, kernel by kernel: the full
//! detailed simulation of every launch (through `map_indexed`), the
//! two-phase pipeline (`profile_run` then `run_tbpoint_plan`) and the
//! live pipeline (`run_tbpoint_live_plan`). A traced pass also probes
//! the sampling-side steps `run_tbpoint_plan` performs internally
//! (`inter_launch_sample`, `build_epochs`, `identify_regions`) outside
//! the end-to-end spans, so their cost can be split out of the plan
//! call without inflating the pipeline's own span.

use crate::synth;
use crate::trace::Tracer;
use std::time::Instant;
use tbpoint_core::{
    build_epochs, identify_regions, inter_launch_sample, run_tbpoint_live_plan, run_tbpoint_plan,
    ExecPlan, SamplingMode, TbpointConfig, TbpointResult,
};
use tbpoint_ir::KernelRun;
use tbpoint_pool::map_indexed;
use tbpoint_sim::{simulate_launch_perf, GpuConfig, NullSampling, SimPerf};
use tbpoint_workloads::{all_benchmarks, Scale};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["irregular-dev", "largegrid-full", "synthetic-pool"];

/// Full-simulation `(cycles, warp insts)` of each fixed kernel, recorded
/// when the benchmark was defined. Any drift means the simulator's
/// results changed.
const REFERENCES: [(&str, &str, u64, u64); 22] = [
    ("irregular-dev", "bfs", 13_684_356, 2_687_742),
    ("irregular-dev", "sssp", 10_534_138, 1_075_313),
    ("irregular-dev", "mst", 8_247_240, 156_480),
    ("irregular-dev", "mri", 7_353_620, 886_316),
    ("irregular-dev", "spmv", 4_423_756, 745_067),
    ("largegrid-full", "lbm", 1_586_913, 5_184_000),
    ("largegrid-full", "cfd", 32_066_400, 3_643_200),
    ("largegrid-full", "kmeans", 1_492_260, 9_757_440),
    ("largegrid-full", "hotspot", 313_541, 4_334_056),
    ("largegrid-full", "stream", 695_191, 1_763_328),
    ("largegrid-full", "black", 512_453, 2_672_640),
    ("largegrid-full", "conv", 852_784, 3_244_032),
    ("synthetic-pool", "syn0", 8_935_593, 534_810),
    ("synthetic-pool", "syn1", 115_036, 611_786),
    ("synthetic-pool", "syn2", 10_481_839, 623_704),
    ("synthetic-pool", "syn3", 55_402, 469_336),
    ("synthetic-pool", "syn4", 224_053, 817_244),
    ("synthetic-pool", "syn5", 97_464, 421_464),
    ("synthetic-pool", "syn6", 4_040_686, 485_360),
    ("synthetic-pool", "syn7", 120_165, 358_920),
    ("synthetic-pool", "syn8", 50_065, 350_054),
    ("synthetic-pool", "syn9", 84_078, 516_605),
];

/// One kernel of a workload.
pub struct Kernel {
    /// Roster abbreviation or synthetic name.
    pub name: String,
    /// The generated input.
    pub run: KernelRun,
    /// Expected full-simulation `(cycles, warp insts)`, when recorded.
    pub reference: Option<(u64, u64)>,
}

/// Everything a workload's passes need, built once per set-up.
pub struct Inputs {
    /// The kernels, in pass order.
    pub kernels: Vec<Kernel>,
    /// Pool workers (and profiling threads) for every call.
    pub workers: usize,
    /// Simulated GPU.
    pub gpu: GpuConfig,
    /// Two-phase pipeline configuration (paper defaults).
    pub two_phase: TbpointConfig,
    /// Live pipeline configuration.
    pub live: TbpointConfig,
}

impl Inputs {
    /// Whether `other` holds the same kernels, bit for bit.
    pub fn same_kernels(&self, other: &Inputs) -> bool {
        self.kernels.len() == other.kernels.len()
            && self
                .kernels
                .iter()
                .zip(&other.kernels)
                .all(|(a, b)| a.name == b.name && a.run == b.run)
    }
}

fn roster(names: &[&str], scale: Scale) -> Vec<(String, KernelRun)> {
    all_benchmarks(scale)
        .into_iter()
        .filter(|b| names.contains(&b.name))
        .map(|b| (b.name.to_string(), b.run))
        .collect()
}

/// Build the inputs of `workload`: generation and config. `nproc`
/// caps the pool workers of `synthetic-pool`.
pub fn setup(workload: &str, nproc: usize) -> Result<Inputs, String> {
    let (runs, workers) = match workload {
        "irregular-dev" => (
            roster(&["bfs", "sssp", "mst", "mri", "spmv"], Scale::Dev),
            1,
        ),
        "largegrid-full" => (
            roster(
                &["lbm", "cfd", "kmeans", "hotspot", "stream", "black", "conv"],
                Scale::Full,
            ),
            1,
        ),
        "synthetic-pool" => (synth::build_mix(synth::MIX_SEED), nproc.max(1)),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    let kernels = runs
        .into_iter()
        .map(|(name, run)| {
            let reference = REFERENCES
                .iter()
                .find(|(w, k, _, _)| *w == workload && *k == name)
                .map(|&(_, _, cycles, insts)| (cycles, insts));
            Kernel {
                name,
                run,
                reference,
            }
        })
        .collect();
    let two_phase = TbpointConfig::default();
    let live = TbpointConfig {
        mode: SamplingMode::Live,
        ..two_phase
    };
    two_phase.validate().map_err(|e| e.to_string())?;
    live.validate().map_err(|e| e.to_string())?;
    Ok(Inputs {
        kernels,
        workers,
        gpu: GpuConfig::fermi(),
        two_phase,
        live,
    })
}

/// Per-launch outputs of the full simulation that the metrics use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchOut {
    /// Simulated cycles.
    pub cycles: u64,
    /// Issued warp instructions.
    pub warp_insts: u64,
    /// L1 hit rate.
    pub l1_hit_rate: f64,
    /// L2 hit rate.
    pub l2_hit_rate: f64,
    /// DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Mean DRAM wait per access, cycles.
    pub dram_avg_wait: f64,
}

/// What the traced pass's probes of the sampling-side steps counted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probe {
    /// Launches in the run.
    pub launches: u64,
    /// Representatives inter-launch clustering keeps.
    pub representatives: u64,
    /// Epochs built over the representatives.
    pub epochs: u64,
    /// Homogeneous regions identified.
    pub regions: u64,
    /// Thread blocks the regions cover.
    pub covered_tbs: u64,
    /// Thread blocks of the representatives.
    pub rep_tbs: u64,
}

/// One kernel's outcome of one pass.
pub struct KernelPass {
    /// Kernel name.
    pub name: String,
    /// Wall time of the full simulation of every launch.
    pub full_s: f64,
    /// Wall time of `profile_run` plus `run_tbpoint_plan`.
    pub two_phase_s: f64,
    /// Wall time of `run_tbpoint_live_plan`.
    pub live_s: f64,
    /// Full-simulation outputs, in launch order.
    pub launches: Vec<LaunchOut>,
    /// Simulator hot-path counters summed over launches.
    pub perf: SimPerf,
    /// `profile.total_warp_insts()`.
    pub profile_warp_insts: u64,
    /// Two-phase result.
    pub two_phase: Result<TbpointResult, String>,
    /// Live result.
    pub live: Result<TbpointResult, String>,
    /// Sampling-side counts (traced passes only).
    pub probe: Option<Probe>,
}

impl KernelPass {
    /// Full-simulation IPC over all launches.
    pub fn full_ipc(&self) -> f64 {
        let (cycles, insts) = self.totals();
        crate::stats::ratio(insts as f64, cycles as f64)
    }

    /// Full-simulation `(cycles, warp insts)` over all launches.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.launches.iter().map(|l| l.cycles).sum(),
            self.launches.iter().map(|l| l.warp_insts).sum(),
        )
    }
}

/// Probe the steps `run_tbpoint_plan` runs before simulating, with the
/// same inputs and configuration, each in its own span.
fn probe(
    inputs: &Inputs,
    kernel: &Kernel,
    profile: &tbpoint_emu::RunProfile,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Probe {
    let name = kernel.name.as_str();
    tracer.span("bench.probe", name, parent, |probe_id| {
        let cfg = &inputs.two_phase;
        let inter = tracer.span("core.inter", name, probe_id, |_| {
            inter_launch_sample(profile, &cfg.inter)
        });
        let occupancy = inputs.gpu.system_occupancy(&kernel.run.kernel);
        let mut p = Probe {
            launches: kernel.run.launches.len() as u64,
            representatives: inter.representatives.len() as u64,
            ..Probe::default()
        };
        for &rep in &inter.representatives {
            let launch = &profile.launches[rep];
            let epochs = tracer.span("core.epochs", name, probe_id, |_| {
                build_epochs(launch, occupancy)
            });
            let table = tracer.span("core.regions", name, probe_id, |_| {
                identify_regions(&epochs, &cfg.intra)
            });
            p.epochs += epochs.len() as u64;
            p.regions += table.regions.len() as u64;
            p.covered_tbs += table.covered_tbs();
            p.rep_tbs += u64::from(kernel.run.launches[rep].num_blocks);
        }
        p
    })
}

/// Run one pass over every kernel. With an enabled `tracer` the pass
/// records its spans under a `pass` root and probes the sampling steps.
/// `between` runs after each timed call, outside its timing.
pub fn run_pass(inputs: &Inputs, tracer: &Tracer, between: &mut dyn FnMut()) -> Vec<KernelPass> {
    let plan = ExecPlan {
        sim_jobs: 1,
        pool_workers: inputs.workers,
    };
    let gpu = &inputs.gpu;
    tracer.span("pass", "", None, |pass_id| {
        inputs
            .kernels
            .iter()
            .map(|kernel| {
                let name = kernel.name.as_str();
                let run = &kernel.run;

                let t = Instant::now();
                let sims = tracer.span("e2e.full_sim", name, pass_id, |e2e| {
                    tracer.span("pool.map", name, e2e, |map_id| {
                        map_indexed(inputs.workers, run.launches.len(), |i| {
                            tracer.span("pool.unit", name, map_id, |unit_id| {
                                tracer.span("sim.launch", name, unit_id, |_| {
                                    simulate_launch_perf(
                                        &run.kernel,
                                        &run.launches[i],
                                        gpu,
                                        &mut NullSampling,
                                        None,
                                        1,
                                    )
                                })
                            })
                        })
                    })
                });
                let full_s = t.elapsed().as_secs_f64();
                between();

                let t = Instant::now();
                let (profile, two_phase) = tracer.span("e2e.two_phase", name, pass_id, |e2e| {
                    let profile = tracer.span("emu.profile", name, e2e, |_| {
                        tbpoint_emu::profile_run(run, inputs.workers)
                    });
                    let result = tracer.span("core.plan", name, e2e, |_| {
                        run_tbpoint_plan(run, &profile, &inputs.two_phase, gpu, plan)
                    });
                    (profile, result.map_err(|e| e.to_string()))
                });
                let two_phase_s = t.elapsed().as_secs_f64();
                between();

                let probe = tracer
                    .enabled()
                    .then(|| probe(inputs, kernel, &profile, tracer, pass_id));

                let t = Instant::now();
                let live = tracer.span("e2e.live", name, pass_id, |e2e| {
                    tracer.span("core.live", name, e2e, |_| {
                        run_tbpoint_live_plan(run, &inputs.live, gpu, plan)
                    })
                });
                let live_s = t.elapsed().as_secs_f64();
                between();

                let mut perf = SimPerf::default();
                let launches = sims
                    .iter()
                    .map(|(r, p)| {
                        perf.accumulate(p);
                        LaunchOut {
                            cycles: r.cycles,
                            warp_insts: r.issued_warp_insts,
                            l1_hit_rate: r.l1_hit_rate,
                            l2_hit_rate: r.l2_hit_rate,
                            dram_row_hit_rate: r.dram_row_hit_rate,
                            dram_avg_wait: r.dram_avg_wait,
                        }
                    })
                    .collect();
                KernelPass {
                    name: kernel.name.clone(),
                    full_s,
                    two_phase_s,
                    live_s,
                    launches,
                    perf,
                    profile_warp_insts: profile.total_warp_insts(),
                    two_phase,
                    live: live.map_err(|e| e.to_string()),
                    probe,
                }
            })
            .collect()
    })
}
