//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <irregular-dev|largegrid-full|synthetic-pool> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! One process runs one workload, closed loop: set up the inputs, then
//! run whole passes over the workload's kernels until `--seconds` would
//! be exceeded (at least one); each end-to-end time is the fastest
//! pass's. Set-up is timed in batches, one at the start and one after
//! each timed call; `setup_s` is the median per-set-up time.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records
//! spans and reports the per-layer metrics. Every metric goes to stderr
//! by name with its unit; the last line of stdout is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. A record of the
//! run (host, build, inputs' fingerprint, per-kernel results, failures)
//! and, when traced, the spans as JSON lines are written under `--out`
//! (default `perfbench/results`). See `perfbench/README.md`.

mod host;
mod metrics;
mod stats;
mod synth;
mod trace;
mod workload;

use metrics::{Metric, Tally};
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;
use workload::{Inputs, KernelPass};

/// Set-ups per timed batch. One set-up takes about 10 µs, too short to
/// time alone.
const SETUP_BATCH: usize = 500;

/// Spans recorded to estimate the recorder's cost per span.
const CALIBRATION_SPANS: u32 = 20_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {:?}",
            workload::WORKLOADS
        ));
    }
    Ok(args)
}

/// JSON string literal.
fn jstr(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(m.name),
                m.value,
                jstr(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The record of one run written next to the spans.
fn run_record(
    args: &Args,
    inputs: &Inputs,
    fingerprint: u64,
    passes: &[Vec<KernelPass>],
    metrics: &[Metric],
    tally: &Tally,
    nproc: usize,
) -> String {
    let kernels: Vec<String> = passes
        .first()
        .map(|pass| {
            pass.iter()
                .map(|k| {
                    let (cycles, insts) = k.totals();
                    let err = |r: &Result<tbpoint_core::TbpointResult, String>| {
                        r.as_ref().map_or("null".to_string(), |r| r.error_vs(k.full_ipc()).to_string())
                    };
                    format!(
                        "{{\"name\": {}, \"launches\": {}, \"cycles\": {cycles}, \"warp_insts\": {insts}, \"full_s\": {}, \"two_phase_s\": {}, \"live_s\": {}, \"two_phase_err_pct\": {}, \"live_err_pct\": {}}}",
                        jstr(&k.name),
                        k.launches.len(),
                        k.full_s,
                        k.two_phase_s,
                        k.live_s,
                        err(&k.two_phase),
                        err(&k.live)
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let pass_times: Vec<String> = passes
        .iter()
        .map(|p| {
            let sum = |f: fn(&KernelPass) -> f64| p.iter().map(f).sum::<f64>();
            format!(
                "{{\"full_sim_s\": {}, \"two_phase_s\": {}, \"live_s\": {}}}",
                sum(|k| k.full_s),
                sum(|k| k.two_phase_s),
                sum(|k| k.live_s)
            )
        })
        .collect();
    let failures: Vec<String> = tally.failures.iter().map(|f| jstr(f)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seed_used\": false,\n  \"inputs_fingerprint\": \"{:016x}\",\n  \"trace\": {},\n  \"passes\": [{}],\n  \"host\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}}},\n  \"threads\": {{\"pool_workers\": {}, \"profile_threads\": {}, \"sim_jobs\": 1}},\n  \"kernels\": [\n    {}\n  ],\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"metrics\": {}\n}}\n",
        jstr(&args.workload),
        args.seed,
        fingerprint,
        u8::from(args.trace),
        pass_times.join(", "),
        jstr(&host::cpu_model()),
        jstr(host::rustc_version()),
        jstr(host::build_profile()),
        inputs.workers,
        inputs.workers,
        kernels.join(",\n    "),
        tally.attempted,
        tally.failed,
        failures.join(", "),
        metrics_json(metrics)
    )
}

/// Time one batch of [`SETUP_BATCH`] set-ups, push its time per set-up
/// to `times` and return its last set-up.
fn setup_batch(args: &Args, nproc: usize, times: &mut Vec<f64>) -> Result<Inputs, String> {
    let t = Instant::now();
    let mut built = workload::setup(&args.workload, nproc)?;
    for _ in 1..SETUP_BATCH {
        built = workload::setup(&args.workload, nproc)?;
    }
    times.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    Ok(built)
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let nproc = host::nproc();

    // Set-up: input generation and configuration, timed in batches.
    // One batch builds the inputs; one more runs after each timed call of
    // every pass, so `setup_s`, their median, samples the host over the
    // whole run like the pipeline times do; batches at the start alone
    // would catch only whichever of the host's fast or slow spells is on.
    // Each batch's last set-up must build the same kernels as the first.
    let mut setup_times = Vec::new();
    let inputs = setup_batch(args, nproc, &mut setup_times)?;
    let fingerprint = synth::fingerprint(inputs.kernels.iter().map(|k| &k.run))?;

    let run_id = tbpoint_stats::hash_coords(&[
        fingerprint,
        args.seed,
        u64::from(args.trace),
        u64::from(std::process::id()),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64),
    ]);
    let span_cost_s = if args.trace {
        Tracer::cost_per_span(CALIBRATION_SPANS)
    } else {
        0.0
    };
    let tracer = Tracer::new(args.trace, run_id);

    // Closed loop: whole passes until the next would overrun the budget.
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut setups_agree = true;
    let mut between = || {
        setups_agree &= setup_batch(args, nproc, &mut setup_times)
            .is_ok_and(|built| inputs.same_kernels(&built));
    };
    loop {
        let t = Instant::now();
        passes.push(workload::run_pass(&inputs, &tracer, &mut between));
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    let setup_s = stats::median(&setup_times);

    let mut tally = metrics::check(&inputs, &passes);
    tally.check(setups_agree, || {
        "set-ups built different inputs".to_string()
    });
    let mut metrics = if args.trace {
        metrics::per_layer(&tracer.spans(), &passes, inputs.workers, span_cost_s)
    } else {
        let rss = host::peak_rss_mb().ok_or("peak RSS unavailable")?;
        metrics::end_to_end(&passes, setup_s, rss)
    };
    let not_finite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    tally.check(not_finite.is_empty(), || {
        format!("metrics not finite: {not_finite:?}")
    });
    for metric in &mut metrics {
        if !metric.value.is_finite() {
            metric.value = -1.0;
        }
    }
    if !args.trace {
        let ok = 1.0 - stats::ratio(tally.failed as f64, tally.attempted as f64);
        metrics.push(Metric {
            name: "ok_frac",
            value: ok,
            unit: "ratio",
        });
    }

    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = run_record(args, &inputs, fingerprint, &passes, &metrics, &tally, nproc);
    std::fs::write(args.out.join(format!("{stem}.json")), record).map_err(|e| e.to_string())?;
    if args.trace {
        std::fs::write(
            args.out.join(format!("{stem}.spans.jsonl")),
            tracer.to_jsonl(),
        )
        .map_err(|e| e.to_string())?;
    }

    eprintln!(
        "perfbench {} seed={} trace={} passes={} workers={} nproc={} cpu={:?} {} ({}) inputs={:016x}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        passes.len(),
        inputs.workers,
        nproc,
        host::cpu_model(),
        host::rustc_version(),
        host::build_profile(),
        fingerprint
    );
    for m in &metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &tally.failures {
        eprintln!("  FAILED: {f}");
    }
    Ok((tally, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            metrics_json(&metrics)
        ),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
