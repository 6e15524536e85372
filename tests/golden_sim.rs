//! Golden bit-identity suite for the simulator hot-path optimisations.
//!
//! The trace interner and the event-horizon cycle skipping (see
//! DESIGN.md, "Performance") are pure optimisations: they must not
//! change a single bit of any simulation result. Three layers of tests
//! pin that down:
//!
//! 1. **Committed golden**: every Table-VI workload at Tiny scale is
//!    simulated in full and the serialised [`tbpoint::sim::RunSimResult`]
//!    compared byte-for-byte against `tests/goldens/launch_sim_tiny.json`,
//!    which was generated *before* the optimisations landed (see
//!    `examples/gen_goldens.rs` and EXPERIMENTS.md, "Bit-identity
//!    goldens"). This catches drift against history, not just against a
//!    reference mode that might share a bug.
//! 2. **Mode cross-check**: each launch is re-simulated with interning
//!    off (fresh re-emulation per warp), with the event horizon off
//!    (cycle-by-cycle stepping), and with both off; all four mode
//!    combinations must serialise identically.
//! 3. **Interner key property**: over seeded random kernels spanning
//!    every trip-count/condition dependence class, two (block, warp)
//!    coordinates that map to the same `TraceKey` must produce equal
//!    traces — the invariant the whole interner rests on.
//!
//! A second committed golden, `tests/goldens/pipeline_tiny.json`, pins
//! the end-to-end [`tbpoint::core::TbpointResult`] of the paper-default
//! two-phase pipeline and of the default live pipeline on every Tiny
//! workload, so a pipeline refactor cannot drift silently either.

mod common;

use common::Gen;
use tbpoint::core::{run_tbpoint, ExecPlan, SamplingMode, TbpointConfig};
use tbpoint::emu::{profile_run, trace_warp, TraceArena, TraceKey};
use tbpoint::ir::{Cond, Dist, ExecCtx, Kernel, KernelBuilder, LaunchId, Op, TripCount};
use tbpoint::sim::{
    simulate_launch, simulate_launch_with_options, simulate_run, GpuConfig, NullSampling,
    SimOptions,
};
use tbpoint::workloads::{all_benchmarks, Scale};

/// The committed pre-optimisation reference output.
const GOLDEN: &str = include_str!("goldens/launch_sim_tiny.json");

/// The committed end-to-end pipeline results (two-phase and live).
const PIPELINE_GOLDEN: &str = include_str!("goldens/pipeline_tiny.json");

/// Extract the JSON object committed for one workload. The golden files
/// are line-oriented (`"name": {...},` per workload) precisely so tests
/// and reviews can address one workload at a time.
fn golden_entry(golden: &'static str, name: &str) -> &'static str {
    let prefix = format!("\"{name}\": ");
    for line in golden.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            return rest.strip_suffix(',').unwrap_or(rest);
        }
    }
    panic!(
        "a golden file under tests/goldens/ has no entry for `{name}`; \
         regenerate with `cargo run --release --example gen_goldens`"
    );
}

/// Byte-exact comparison with a readable failure: print the window
/// around the first diverging byte instead of two full JSON dumps.
fn assert_same_json(what: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    let diff = expected
        .bytes()
        .zip(actual.bytes())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.len().min(actual.len()));
    // The golden is ASCII JSON, so byte windows are valid char boundaries.
    let window = |s: &str| {
        let lo = diff.saturating_sub(80);
        let hi = (diff + 80).min(s.len());
        s[lo..hi].to_string()
    };
    panic!(
        "{what}: results diverge at byte {diff} \
         (expected {} bytes, got {})\n  expected: …{}…\n  actual:   …{}…",
        expected.len(),
        actual.len(),
        window(expected),
        window(actual),
    );
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("sim results serialise")
}

/// The golden file covers exactly the current roster, in roster order.
#[test]
fn golden_covers_every_workload() {
    let names: Vec<&str> = all_benchmarks(Scale::Tiny).iter().map(|b| b.name).collect();
    assert_eq!(names.len(), 12, "Table VI roster is twelve benchmarks");
    for name in names {
        // Each lookup panics with a regeneration hint if absent.
        golden_entry(GOLDEN, name);
        golden_entry(PIPELINE_GOLDEN, name);
    }
}

/// Layer 1: full-detail simulation of every Tiny workload reproduces the
/// committed pre-optimisation output byte-for-byte.
#[test]
fn tiny_runs_match_committed_golden() {
    let cfg = GpuConfig::fermi();
    for bench in all_benchmarks(Scale::Tiny) {
        let r = simulate_run(&bench.run, &cfg, &mut NullSampling, None);
        assert_same_json(bench.name, golden_entry(GOLDEN, bench.name), &to_json(&r));
    }
}

/// The paper-default two-phase pipeline and the default live pipeline
/// reproduce the committed `TbpointResult`s byte-for-byte on every Tiny
/// workload (serial plan).
#[test]
fn tiny_pipelines_match_committed_golden() {
    let gpu = GpuConfig::fermi();
    let two_phase = TbpointConfig::default();
    let live = TbpointConfig {
        mode: SamplingMode::Live,
        ..TbpointConfig::default()
    };
    for bench in all_benchmarks(Scale::Tiny) {
        let profile = profile_run(&bench.run, 1);
        let serial = ExecPlan::serial();
        let tp = run_tbpoint(&bench.run, Some(&profile), &two_phase, &gpu, serial)
            .expect("two-phase runs");
        let lv = run_tbpoint(&bench.run, None, &live, &gpu, serial).expect("live runs");
        let actual = format!(
            "{{\"two_phase\":{},\"live\":{}}}",
            to_json(&tp),
            to_json(&lv)
        );
        assert_same_json(
            bench.name,
            golden_entry(PIPELINE_GOLDEN, bench.name),
            &actual,
        );
    }
}

/// Layer 2: the optimised default (interned traces + event horizon)
/// serialises identically to the three reference modes that disable
/// either or both optimisations. Every workload is covered; within a
/// workload the cross-check runs on representative launches (first,
/// widest grid, last) — the reference modes are an order of magnitude
/// slower by design, and layer 1 already pins the default mode on every
/// launch against committed history.
#[test]
fn interning_and_event_horizon_are_bit_identical() {
    let modes = [
        (
            "fresh traces",
            SimOptions {
                intern_traces: false,
                event_horizon: true,
            },
        ),
        (
            "cycle-stepped",
            SimOptions {
                intern_traces: true,
                event_horizon: false,
            },
        ),
        (
            "fresh traces + cycle-stepped",
            SimOptions {
                intern_traces: false,
                event_horizon: false,
            },
        ),
    ];
    let cfg = GpuConfig::fermi();
    for bench in all_benchmarks(Scale::Tiny) {
        let launches = &bench.run.launches;
        let widest = launches
            .iter()
            .enumerate()
            .max_by_key(|(_, l)| l.num_blocks)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut picks = vec![0, widest, launches.len() - 1];
        picks.sort_unstable();
        picks.dedup();
        for spec in picks.into_iter().map(|i| &launches[i]) {
            let base = simulate_launch(&bench.run.kernel, spec, &cfg, &mut NullSampling, None);
            let base_json = to_json(&base);
            for (label, opts) in modes {
                let alt = simulate_launch_with_options(
                    &bench.run.kernel,
                    spec,
                    &cfg,
                    &mut NullSampling,
                    None,
                    opts,
                );
                assert_same_json(
                    &format!("{} launch {} vs {label}", bench.name, spec.launch_id.0),
                    &base_json,
                    &to_json(&alt),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 3: seeded interner-key collision property
// ---------------------------------------------------------------------------

/// A random kernel mixing the dependence classes the key derivation has
/// to distinguish: constant, per-block, per-thread and phase-sliced trip
/// counts, plus divergent / block-uniform / lane-structured branches.
fn random_kernel(g: &mut Gen, case: u64) -> Kernel {
    // Odd thread counts produce partial trailing warps (mask variation).
    let tpb = g.u32(16, 200);
    let mut b = KernelBuilder::new(&format!("prop{case}"), g.u64(1, 1 << 20), tpb);
    let mut nodes = Vec::new();
    for _ in 0..g.usize(1, 4) {
        let body = b.block(&[Op::IAlu, Op::FAlu]);
        let site = b.fresh_site();
        let base = g.u32(1, 6);
        let spread = g.u32(0, 8);
        let trips = match g.u32(0, 4) {
            0 => TripCount::Const(base),
            1 => TripCount::PerBlock {
                base,
                spread,
                dist: Dist::Uniform,
                site,
            },
            2 => TripCount::PerThread {
                base,
                spread,
                dist: Dist::Uniform,
                site,
            },
            _ => TripCount::PerBlockPhase {
                base,
                spread,
                phase_len: g.u32(1, 6),
                dist: Dist::Uniform,
                site,
            },
        };
        let looped = b.loop_(trips, body);
        match g.u32(0, 4) {
            0 => nodes.push(looped),
            1 => {
                let cond = Cond::ThreadProb {
                    p: g.f64(0.1, 0.9),
                    site: b.fresh_site(),
                };
                nodes.push(b.if_(cond, looped, None));
            }
            2 => {
                let cond = Cond::BlockProb {
                    p: g.f64(0.1, 0.9),
                    site: b.fresh_site(),
                };
                nodes.push(b.if_(cond, looped, None));
            }
            _ => {
                let cond = Cond::LaneLt(g.u32(1, 32));
                nodes.push(b.if_(cond, looped, None));
            }
        }
    }
    let root = b.seq(nodes);
    b.finish(root)
}

/// The invariant the interner rests on: within one launch, if two
/// (block, warp) coordinates map to the same [`TraceKey`], their freshly
/// emulated traces are equal — a key collision between two *differing*
/// traces would silently corrupt the simulation. Also cross-checks that
/// the arena itself serves exactly the fresh trace at every coordinate
/// (including its block-local and bypass routes).
#[test]
fn interner_key_never_collides_differing_traces() {
    const CASES: u64 = 48;
    for case in 0..CASES {
        let mut g = Gen::new(0x9d, case);
        let kernel = random_kernel(&mut g, case);
        let num_blocks = g.u32(4, 24);
        let ctx = |block_id: u32| ExecCtx {
            kernel_seed: kernel.seed,
            launch_id: LaunchId(g_launch(case)),
            block_id,
            num_blocks,
            work_scale: 1.0,
        };
        let warps_per_block = kernel.threads_per_block.div_ceil(32);
        let mut arena = TraceArena::new(&kernel);
        let mut by_key: Vec<(TraceKey, Vec<tbpoint::emu::TraceInst>, u32, u32)> = Vec::new();
        // Visit blocks in dispatch order (the arena's block-local cache
        // assumes back-to-back warps of one block, like the simulator).
        for block_id in 0..num_blocks {
            for warp_id in 0..warps_per_block {
                let c = ctx(block_id);
                let fresh = trace_warp(&kernel, &c, warp_id);
                let interned = arena.warp_trace(&kernel, &c, warp_id);
                assert_eq!(
                    &*interned,
                    &fresh[..],
                    "case {case}: arena trace differs from fresh emulation \
                     at block {block_id} warp {warp_id}"
                );
                let key = arena.key(&kernel, &c, warp_id);
                match by_key.iter().find(|(k, ..)| *k == key) {
                    Some((_, seen, b0, w0)) => assert_eq!(
                        seen, &fresh,
                        "case {case}: key collision — block {block_id} warp {warp_id} \
                         and block {b0} warp {w0} share a key but trace differently"
                    ),
                    None => by_key.push((key, fresh, block_id, warp_id)),
                }
            }
        }
    }
}

/// Launch index for a case: varied so the property is not accidentally
/// proved only for launch 0, deterministic so failures reproduce.
fn g_launch(case: u64) -> u32 {
    (case % 5) as u32
}
