//! Regenerate the golden files used by `tests/golden_sim.rs`.
//!
//! ```text
//! cargo run --release --example gen_goldens
//! ```
//!
//! For every Table-VI workload at Tiny scale this writes two files:
//!
//! * `tests/goldens/launch_sim_tiny.json` — every launch simulated with
//!   the default (full-detail) dispatch hook, the complete
//!   [`tbpoint_sim::RunSimResult`] serialised;
//! * `tests/goldens/pipeline_tiny.json` — the serialised
//!   [`tbpoint_core::TbpointResult`] of the paper-default two-phase
//!   pipeline and of the default live pipeline, both serial.
//!
//! The golden tests compare current output byte-for-byte against the
//! committed files, so any change that perturbs a single cycle count,
//! issue total, hit rate or prediction — however small — fails loudly.
//!
//! Only regenerate (and commit the diff) when a change is *supposed* to
//! alter results; performance work and refactors must leave both files
//! untouched. See EXPERIMENTS.md ("Bit-identity goldens").

use tbpoint_core::{run_tbpoint, ExecPlan, SamplingMode, TbpointConfig, TbpointResult};
use tbpoint_emu::profile_run;
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint_workloads::{all_benchmarks, Scale};

/// Write a line-oriented JSON object: one `"name": {...}` line per entry.
fn write_golden(path: &str, entries: &[(&str, String)]) {
    let mut out = String::from("{\n");
    for (i, (name, json)) in entries.iter().enumerate() {
        out.push_str(&format!("\"{name}\": {json}"));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create goldens dir");
    }
    std::fs::write(path, &out).expect("write golden file");
    println!("wrote {} ({} bytes)", path.display(), out.len());
}

fn main() {
    let gpu = GpuConfig::fermi();
    let benches = all_benchmarks(Scale::Tiny);
    let two_phase = TbpointConfig::default();
    let live = TbpointConfig {
        mode: SamplingMode::Live,
        ..TbpointConfig::default()
    };
    let mut sims = Vec::new();
    let mut pipelines = Vec::new();
    for bench in &benches {
        let r = simulate_run(&bench.run, &gpu, &mut NullSampling, None);
        sims.push((
            bench.name,
            serde_json::to_string(&r).expect("RunSimResult serialises"),
        ));
        eprintln!(
            "{:8} {:3} launches, {:>12} cycles total",
            bench.name,
            r.launches.len(),
            r.total_cycles()
        );

        let profile = profile_run(&bench.run, 1);
        let serial = ExecPlan::serial();
        let tp = run_tbpoint(&bench.run, Some(&profile), &two_phase, &gpu, serial)
            .expect("two-phase runs");
        let lv = run_tbpoint(&bench.run, None, &live, &gpu, serial).expect("live runs");
        let json = |r: &TbpointResult| serde_json::to_string(r).expect("TbpointResult serialises");
        pipelines.push((
            bench.name,
            format!("{{\"two_phase\":{},\"live\":{}}}", json(&tp), json(&lv)),
        ));
    }
    write_golden("tests/goldens/launch_sim_tiny.json", &sims);
    write_golden("tests/goldens/pipeline_tiny.json", &pipelines);
}
