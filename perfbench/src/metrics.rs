//! Output checks, end-to-end metrics and per-layer metrics.

use crate::stats::{median, percentile, ratio, unattributed_pct, utilization};
use crate::trace::{self_secs, Span};
use crate::workload::{Inputs, KernelPass};
use std::collections::HashMap;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Attempted and failed operations: pipeline calls plus output checks.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Sampled-vs-full IPC error in percent, when the pipeline succeeded.
fn err_pct(k: &KernelPass, live: bool) -> Option<f64> {
    let result = if live { &k.live } else { &k.two_phase };
    result.as_ref().ok().map(|r| r.error_vs(k.full_ipc()))
}

/// Check every output once per run, so one failed check always moves
/// `ok_frac` by `1 / attempted`: per kernel, both pipeline calls return
/// `Ok`, full simulation issues exactly the profiled warp instructions,
/// recorded references hold, both errors are finite, and (with more
/// than one pass) every later pass repeats the first bit for bit.
pub fn check(inputs: &Inputs, passes: &[Vec<KernelPass>]) -> Tally {
    let mut t = Tally::default();
    let Some((first, later)) = passes.split_first() else {
        return t;
    };
    for (k, kernel) in first.iter().zip(&inputs.kernels) {
        let name = &k.name;
        for (what, r) in [("two-phase", &k.two_phase), ("live", &k.live)] {
            t.check(r.is_ok(), || {
                format!("{name}: {what} pipeline failed: {:?}", r.as_ref().err())
            });
        }
        let (cycles, insts) = k.totals();
        t.check(insts == k.profile_warp_insts, || {
            format!(
                "{name}: full sim issued {insts} warp insts, profile counts {}",
                k.profile_warp_insts
            )
        });
        if let Some((ref_cycles, ref_insts)) = kernel.reference {
            t.check(cycles == ref_cycles, || {
                format!("{name}: {cycles} cycles, reference {ref_cycles}")
            });
            t.check(insts == ref_insts, || {
                format!("{name}: {insts} warp insts, reference {ref_insts}")
            });
        }
        for live in [false, true] {
            let e = err_pct(k, live);
            t.check(e.is_some_and(f64::is_finite), || {
                format!("{name}: error not finite (live={live}): {e:?}")
            });
        }
        if !later.is_empty() {
            let differs = later.iter().position(|pass| {
                !pass.iter().find(|f| &f.name == name).is_some_and(|f| {
                    f.launches == k.launches && f.two_phase == k.two_phase && f.live == k.live
                })
            });
            t.check(differs.is_none(), || {
                format!(
                    "{name}: pass {} differs from pass 0",
                    differs.unwrap_or(0) + 1
                )
            });
        }
    }
    t
}

/// The end-to-end metrics of an untraced run, all but `ok_frac`, which
/// must count the checks of these metrics too.
///
/// A time is the fastest pass's sum over kernels: interference from
/// other tenants of a shared host only ever adds time to the same
/// deterministic work, so the minimum is the steadiest estimate of it.
pub fn end_to_end(passes: &[Vec<KernelPass>], setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let per_pass = |f: fn(&KernelPass) -> f64| -> f64 {
        passes
            .iter()
            .map(|p| p.iter().map(f).sum::<f64>())
            .fold(f64::INFINITY, f64::min)
    };
    let errors = |live: bool| -> (f64, f64) {
        let e: Vec<f64> = passes
            .first()
            .map(|p| p.iter().filter_map(|k| err_pct(k, live)).collect())
            .unwrap_or_default();
        let mean = ratio(e.iter().sum(), e.len() as f64);
        (mean, e.iter().copied().fold(0.0, f64::max))
    };
    let (two_mean, two_max) = errors(false);
    let (live_mean, live_max) = errors(true);
    vec![
        m("setup_s", setup_s, "s"),
        m("full_sim_s", per_pass(|k| k.full_s), "s"),
        m("two_phase_s", per_pass(|k| k.two_phase_s), "s"),
        m("live_s", per_pass(|k| k.live_s), "s"),
        m("two_phase_err_pct", two_mean, "%"),
        m("two_phase_err_max_pct", two_max, "%"),
        m("live_err_pct", live_mean, "%"),
        m("live_err_max_pct", live_max, "%"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// The spans of one pass.
struct PassSpans<'a> {
    all: Vec<&'a Span>,
}

impl<'a> PassSpans<'a> {
    fn named(&self, name: &'static str) -> impl Iterator<Item = &&'a Span> {
        self.all.iter().filter(move |s| s.name == name)
    }

    fn total(&self, name: &'static str) -> f64 {
        self.named(name).map(|s| s.secs()).sum()
    }

    fn kernel_total(&self, name: &'static str, kernel: &str) -> f64 {
        self.named(name)
            .filter(|s| s.kernel == kernel)
            .map(|s| s.secs())
            .sum()
    }
}

/// Group `spans` by the `pass` root they descend from, in pass order.
fn by_pass(spans: &[Span]) -> Vec<PassSpans<'_>> {
    let parent: HashMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let root_of = |mut id: u64| {
        while let Some(Some(p)) = parent.get(&id) {
            id = *p;
        }
        id
    };
    let mut roots: Vec<&Span> = spans.iter().filter(|s| s.name == "pass").collect();
    roots.sort_by_key(|s| s.id);
    roots
        .iter()
        .map(|r| PassSpans {
            all: spans.iter().filter(|s| root_of(s.id) == r.id).collect(),
        })
        .collect()
}

/// Per-layer metrics of one traced pass.
fn layer_pass(
    spans: &PassSpans<'_>,
    pass: &[KernelPass],
    workers: usize,
    span_cost_s: f64,
) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&KernelPass) -> f64| -> f64 { pass.iter().map(f).sum() };
    let launches: Vec<_> = pass.iter().flat_map(|k| k.launches.iter()).collect();
    let cycles = launches.iter().map(|l| l.cycles as f64).sum::<f64>();
    let insts = launches.iter().map(|l| l.warp_insts as f64).sum::<f64>();
    // Rates are per launch; weight them by the launch's warp insts.
    let weighted = |f: &dyn Fn(&crate::workload::LaunchOut) -> f64| -> f64 {
        ratio(
            launches.iter().map(|l| f(l) * l.warp_insts as f64).sum(),
            insts,
        )
    };
    let perf = |f: &dyn Fn(&tbpoint_sim::SimPerf) -> u64| -> f64 { sum(&|k| f(&k.perf) as f64) };
    let two = |f: &dyn Fn(&tbpoint_core::TbpointResult) -> f64| -> f64 {
        sum(&|k| k.two_phase.as_ref().map_or(0.0, f))
    };
    let live = |f: &dyn Fn(&tbpoint_core::TbpointResult) -> f64| -> f64 {
        sum(&|k| k.live.as_ref().map_or(0.0, f))
    };
    let probe = |f: &dyn Fn(&crate::workload::Probe) -> u64| -> f64 {
        sum(&|k| k.probe.as_ref().map_or(0.0, |p| f(p) as f64))
    };

    let launch_ms: Vec<f64> = spans.named("sim.launch").map(|s| s.secs() * 1e3).collect();
    let launch_s = spans.total("sim.launch");
    let profile_s = spans.total("emu.profile");
    let pool_wall = spans.total("pool.map");
    let pool_busy = spans.total("pool.unit");
    let straggler_ms = spans
        .named("pool.unit")
        .map(|s| s.secs() * 1e3)
        .fold(0.0, f64::max);
    // Representative simulation, the sampling hook and aggregation: the
    // plan call minus the sampling-side steps probed beside it.
    let rep_sim_s: f64 = pass
        .iter()
        .map(|k| {
            let n = k.name.as_str();
            let probed = spans.kernel_total("core.inter", n)
                + spans.kernel_total("core.epochs", n)
                + spans.kernel_total("core.regions", n);
            (spans.kernel_total("core.plan", n) - probed).max(0.0)
        })
        .sum();

    // Share of each end-to-end span not covered by a layer span, and the
    // recorder's own cost for the spans recorded inside them.
    let e2e: Vec<&&Span> = spans
        .all
        .iter()
        .filter(|s| s.name.starts_with("e2e."))
        .collect();
    let e2e_s: f64 = e2e.iter().map(|s| s.secs()).sum();
    let e2e_self_s: f64 = e2e
        .iter()
        .map(|s| self_secs(s, spans.all.iter().copied()))
        .sum();
    let by_id: HashMap<u64, &Span> = spans.all.iter().map(|s| (s.id, *s)).collect();
    let inside_e2e = spans
        .all
        .iter()
        .filter(|s| {
            let mut cur = Some(**s);
            while let Some(c) = cur {
                if c.name.starts_with("e2e.") {
                    return true;
                }
                cur = c.parent.and_then(|p| by_id.get(&p).copied());
            }
            false
        })
        .count();

    vec![
        m("emu.profile_s", profile_s, "s"),
        m(
            "emu.profile_winsts_per_s",
            ratio(sum(&|k| k.profile_warp_insts as f64), profile_s),
            "1/s",
        ),
        m(
            "emu.intern_hit_ratio",
            ratio(
                perf(&|p| p.intern_hits),
                perf(&|p| p.intern_hits + p.intern_misses + p.intern_uncacheable),
            ),
            "ratio",
        ),
        m("emu.traced_winsts", perf(&|p| p.traced_warp_insts), "count"),
        m("emu.reused_winsts", perf(&|p| p.reused_warp_insts), "count"),
        m("sim.launch_s", launch_s, "s"),
        m(
            "sim.launch_ms_p50",
            percentile(&launch_ms, 50.0).unwrap_or(0.0),
            "ms",
        ),
        m(
            "sim.launch_ms_p90",
            percentile(&launch_ms, 90.0).unwrap_or(0.0),
            "ms",
        ),
        m("sim.winsts_per_s", ratio(insts, launch_s), "1/s"),
        m("sim.cycles_per_s", ratio(cycles, launch_s), "1/s"),
        m("sim.idle_jumps", perf(&|p| p.idle_jumps), "count"),
        m(
            "sim.idle_skip_ratio",
            ratio(perf(&|p| p.idle_cycles_skipped), cycles),
            "ratio",
        ),
        m("sim.cycles", cycles, "count"),
        m("sim.warp_insts", insts, "count"),
        m("sim.ipc", ratio(insts, cycles), "1/cycle"),
        m("sim.l1_hit_rate", weighted(&|l| l.l1_hit_rate), "ratio"),
        m("sim.l2_hit_rate", weighted(&|l| l.l2_hit_rate), "ratio"),
        m(
            "sim.dram_row_hit_rate",
            weighted(&|l| l.dram_row_hit_rate),
            "ratio",
        ),
        m(
            "sim.dram_avg_wait_cyc",
            weighted(&|l| l.dram_avg_wait),
            "cycles",
        ),
        m("core.inter_s", spans.total("core.inter"), "s"),
        m(
            "core.inter_keep_ratio",
            ratio(probe(&|p| p.representatives), probe(&|p| p.launches)),
            "ratio",
        ),
        m("core.epochs_s", spans.total("core.epochs"), "s"),
        m("core.regions_s", spans.total("core.regions"), "s"),
        m("core.epochs", probe(&|p| p.epochs), "count"),
        m("core.regions", probe(&|p| p.regions), "count"),
        m(
            "core.region_cover_ratio",
            ratio(probe(&|p| p.covered_tbs), probe(&|p| p.rep_tbs)),
            "ratio",
        ),
        m("core.rep_sim_s", rep_sim_s, "s"),
        m(
            "core.sample_size",
            ratio(
                two(&|r| r.simulated_warp_insts as f64),
                two(&|r| r.total_warp_insts as f64),
            ),
            "ratio",
        ),
        m(
            "core.inter_skipped_winsts",
            two(&|r| r.breakdown.inter_skipped_warp_insts as f64),
            "count",
        ),
        m(
            "core.intra_skipped_winsts",
            two(&|r| r.breakdown.intra_skipped_warp_insts as f64),
            "count",
        ),
        m(
            "core.degraded_launches",
            two(&|r| r.degraded_launches as f64),
            "count",
        ),
        m("core.live_call_s", spans.total("core.live"), "s"),
        m(
            "core.live_sample_size",
            ratio(
                live(&|r| r.simulated_warp_insts as f64),
                live(&|r| r.total_warp_insts as f64),
            ),
            "ratio",
        ),
        m(
            "core.live_degraded_launches",
            live(&|r| r.degraded_launches as f64),
            "count",
        ),
        m("pool.wall_s", pool_wall, "s"),
        m("pool.busy_s", pool_busy, "s"),
        m(
            "pool.utilization",
            utilization(pool_busy, pool_wall, workers),
            "ratio",
        ),
        m("pool.straggler_ms", straggler_ms, "ms"),
        m(
            "bench.trace_overhead_pct",
            100.0 * ratio(span_cost_s * inside_e2e as f64, e2e_s),
            "%",
        ),
        m(
            "bench.unattributed_pct",
            unattributed_pct(e2e_s, e2e_s - e2e_self_s),
            "%",
        ),
    ]
}

/// The per-layer metrics of a traced run: each metric's median over
/// the run's passes.
pub fn per_layer(
    spans: &[Span],
    passes: &[Vec<KernelPass>],
    workers: usize,
    span_cost_s: f64,
) -> Vec<Metric> {
    let per_pass: Vec<Vec<Metric>> = by_pass(spans)
        .iter()
        .zip(passes)
        .map(|(s, p)| layer_pass(s, p, workers, span_cost_s))
        .collect();
    let Some(first) = per_pass.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, metric)| {
            let values: Vec<f64> = per_pass.iter().map(|p| p[i].value).collect();
            m(metric.name, median(&values), metric.unit)
        })
        .collect()
}
