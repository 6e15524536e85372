//! The seeded generator behind the `synthetic-pool` workload.
//!
//! Every input of a mix is a pure function of its mix seed: each
//! kernel's [`SyntheticSpec`] knobs (gather fraction, divergence,
//! phases, branch probability, loop shape), its RNG seed and each
//! launch's `(num_blocks, work_scale)`. Launches are drawn from a few
//! per-kernel classes so inter-launch clustering has repeats to merge,
//! as in the roster's multi-launch kernels.

use tbpoint_ir::KernelRun;
use tbpoint_stats::SplitMix64;
use tbpoint_workloads::{PhaseSpec, SyntheticSpec};

/// The mix seed of the benchmark's `synthetic-pool` workload (see
/// `perfbench/README.md` for why the run seed does not pick the mix).
pub const MIX_SEED: u64 = 1;

/// Kernels in one synthetic mix.
const MIX_KERNELS: usize = 10;

/// Warp instructions each kernel of the mix is sized to, approximately:
/// kernel shapes vary with the seed, total work per kernel does not.
const KERNEL_WARP_INSTS: f64 = 400_000.0;

/// One knob value per kernel of the mix, Latin-hypercube style: the
/// range `lo..hi` is cut into [`MIX_KERNELS`] equal strata, each kernel
/// gets one stratum (a seed-chosen permutation) and a seed-chosen point
/// inside it. Each seed thus draws fresh kernels while every mix still
/// spans the whole range once, which keeps mix-level totals steady.
fn stratified(rng: &mut SplitMix64, lo: f64, hi: f64) -> Vec<f64> {
    let n = MIX_KERNELS;
    let mut strata: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        strata.swap(i, rng.next_index(i as u64 + 1) as usize);
    }
    strata
        .into_iter()
        .map(|s| lo + (hi - lo) * (s as f64 + rng.next_f64()) / n as f64)
        .collect()
}

/// The [`SyntheticSpec`]s of the mix for `seed`, each with one
/// `(num_blocks, work_scale)` per launch.
fn mix_specs(seed: u64) -> Vec<(SyntheticSpec, Vec<(u32, f64)>)> {
    let mut rng = SplitMix64::new(tbpoint_stats::hash_coords(&[seed]));
    let gather = stratified(&mut rng, 0.0, 0.6);
    let spread = stratified(&mut rng, 0.0, 13.0);
    let branch = stratified(&mut rng, 0.0, 0.3);
    let iters = stratified(&mut rng, 8.0, 21.0);
    let alu = stratified(&mut rng, 2.0, 7.0);
    let loads = stratified(&mut rng, 1.0, 4.0);
    let phased = stratified(&mut rng, 0.0, 2.0);
    (0..MIX_KERNELS)
        .map(|i| {
            let phases = if phased[i] < 1.0 {
                PhaseSpec::None
            } else {
                PhaseSpec::Phased {
                    phase_len: 16 + rng.next_index(49) as u32,
                    max_mult: 2 + rng.next_index(3) as u32,
                }
            };
            let spec = SyntheticSpec {
                name: format!("syn{i}"),
                seed: rng.next_u64(),
                threads_per_block: 128,
                launches: 3 + rng.next_index(6) as u32,
                blocks_per_launch: 0,
                iterations: iters[i] as u32,
                alu_per_iter: alu[i] as u32,
                loads_per_iter: loads[i] as u32,
                gather_fraction: gather[i],
                divergence_spread: spread[i] as u32,
                phases,
                branch_prob: branch[i],
            };
            let shape = launch_shape(&spec, &mut rng);
            (spec, shape)
        })
        .collect()
}

/// Per-launch `(num_blocks, work_scale)`: launches drawn from one to
/// three classes, blocks sized so the kernel totals about
/// [`KERNEL_WARP_INSTS`].
fn launch_shape(spec: &SyntheticSpec, rng: &mut SplitMix64) -> Vec<(u32, f64)> {
    // Warp instructions per block at work_scale 1: one body per trip,
    // the slowest thread's trip count, the phase multiplier's mean.
    let body = f64::from(spec.alu_per_iter + spec.loads_per_iter) + 2.0 * spec.branch_prob;
    let trips = f64::from(spec.iterations + spec.divergence_spread);
    let phase_mean = match spec.phases {
        PhaseSpec::None => 1.0,
        PhaseSpec::Phased { max_mult, .. } => f64::from(1 + max_mult) / 2.0,
    };
    let warps = f64::from(spec.threads_per_block / 32);
    let per_block = warps * (body * trips * phase_mean + 1.0);
    let per_launch = KERNEL_WARP_INSTS / f64::from(spec.launches);
    let classes: Vec<(u32, f64)> = (0..1 + rng.next_index(3))
        .map(|_| {
            let scale = 0.5 * (1 + rng.next_index(4)) as f64;
            let blocks = (per_launch / (per_block * scale)).round().max(32.0) as u32;
            (blocks, scale)
        })
        .collect();
    (0..spec.launches)
        .map(|_| classes[rng.next_index(classes.len() as u64) as usize])
        .collect()
}

/// Build the mix for `seed`: [`MIX_KERNELS`] kernel runs.
pub fn build_mix(seed: u64) -> Vec<(String, KernelRun)> {
    mix_specs(seed)
        .into_iter()
        .map(|(spec, shape)| {
            let mut run = spec.build();
            for (launch, (blocks, scale)) in run.launches.iter_mut().zip(shape) {
                launch.num_blocks = blocks;
                launch.work_scale = scale;
            }
            (spec.name, run)
        })
        .collect()
}

/// FNV-1a 64-bit hash of the serialised runs: equal inputs give equal
/// fingerprints, so a result can be tied to the exact inputs it measured.
pub fn fingerprint<'a>(runs: impl IntoIterator<Item = &'a KernelRun>) -> Result<u64, String> {
    let mut text = String::new();
    for run in runs {
        text += &serde_json::to_string(run).map_err(|e| format!("serialise run: {e:?}"))?;
    }
    Ok(tbpoint_obs::fnv1a64(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(seed: u64) -> u64 {
        let mix = build_mix(seed);
        fingerprint(mix.iter().map(|(_, r)| r)).unwrap()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(build_mix(42), build_mix(42));
        assert_eq!(fp(42), fp(42));
    }

    #[test]
    fn different_seeds_different_inputs() {
        let fps: Vec<u64> = (0..8).map(fp).collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "seeds {i} and {j} collide");
            }
        }
    }

    #[test]
    fn stratified_covers_each_stratum_once() {
        let mut rng = SplitMix64::new(9);
        let v = stratified(&mut rng, 0.0, 10.0);
        let mut strata: Vec<usize> = v
            .iter()
            .map(|x| (x / (10.0 / MIX_KERNELS as f64)) as usize)
            .collect();
        strata.sort_unstable();
        assert_eq!(strata, (0..MIX_KERNELS).collect::<Vec<_>>());
    }

    #[test]
    fn mix_kernels_are_valid_and_in_range() {
        for seed in 0..4 {
            let specs = mix_specs(seed);
            assert_eq!(specs.len(), MIX_KERNELS);
            for (spec, shape) in &specs {
                assert!((0.0..0.6).contains(&spec.gather_fraction));
                assert!(spec.divergence_spread <= 12);
                assert!((8..=20).contains(&spec.iterations));
                assert!((0.0..0.3).contains(&spec.branch_prob));
                assert_eq!(shape.len(), spec.launches as usize);
                for &(blocks, scale) in shape {
                    assert!(blocks >= 32);
                    assert!([0.5, 1.0, 1.5, 2.0].contains(&scale));
                }
            }
            for (_, run) in build_mix(seed) {
                run.kernel.validate().unwrap();
                assert!(run.launches.len() >= 3);
            }
        }
    }
}
