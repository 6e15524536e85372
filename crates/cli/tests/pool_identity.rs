//! The pool's headline guarantee, tested end-to-end: every on-disk
//! artifact of a pooled sweep — unit files, the sealed manifest, the
//! final assembled JSON, and the recorder's trace JSONL — is
//! **byte-identical** at every `--pool-workers` value, with or without
//! an interrupt + `--resume` in between. Scheduling order is
//! timing-dependent; the bytes never are.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tbpoint_cli::experiments::{EvalConfig, EvalUnit};
use tbpoint_cli::output::{self, TraceEntry};
use tbpoint_cli::sweep::{run_units, SweepPlan};
use tbpoint_core::predict::{run_tbpoint_traced, TbpointConfig};
use tbpoint_emu::profile_run;
use tbpoint_pool::ExecPlan;
use tbpoint_sim::GpuConfig;
use tbpoint_workloads::{benchmark_by_name, Benchmark, Scale};

/// Fresh scratch directory per test leg (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tbpoint-poolid-{}-{}-{tag}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small real roster slice — big enough to be scheduled out of order,
/// small enough for a unit test.
fn roster() -> Vec<Benchmark> {
    ["bfs", "cfd", "spmv"]
        .iter()
        .map(|n| benchmark_by_name(n, Scale::Tiny).expect("roster name"))
        .collect()
}

/// Every file of a sweep directory, keyed by file name.
type DirBytes = BTreeMap<String, Vec<u8>>;

/// Every file under `dir`, keyed by file name, so whole-directory
/// byte-comparison is one map equality.
fn dir_bytes(dir: &Path) -> DirBytes {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read sweep dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).expect("read file"));
    }
    out
}

/// Run the real eval pipeline over the roster slice as a pooled sweep
/// and return (per-file bytes, final artifact bytes).
fn sweep_leg(
    dir: &Path,
    workers: usize,
    resume: bool,
    max_units: Option<usize>,
) -> Option<(DirBytes, Vec<u8>)> {
    let benches = roster();
    let cfg = EvalConfig::new(Scale::Tiny);
    let gpu = GpuConfig::fermi();
    let units: Vec<EvalUnit<'_>> = benches
        .iter()
        .map(|bench| EvalUnit {
            bench,
            cfg: &cfg,
            gpu: &gpu,
            plan: ExecPlan::serial(),
        })
        .collect();
    let plan = SweepPlan {
        name: "poolid".to_string(),
        dir: dir.to_path_buf(),
        resume,
        max_units,
        workers,
    };
    let outcome = run_units(&plan, &units).expect("sweep runs");
    if outcome.partial {
        return None;
    }
    let final_path = dir.join("final.json");
    output::write_json(&final_path, &outcome.into_complete()).expect("write final");
    let files = dir_bytes(dir);
    let final_bytes = std::fs::read(&final_path).expect("read final");
    Some((files, final_bytes))
}

#[test]
fn sweep_artifacts_are_byte_identical_at_every_worker_count() {
    let dir1 = scratch("w1");
    let (files1, final1) = sweep_leg(&dir1, 1, false, None).expect("complete");
    for workers in [2, 4] {
        let dir = scratch(&format!("w{workers}"));
        let (files, final_bytes) = sweep_leg(&dir, workers, false, None).expect("complete");
        assert_eq!(
            files1.keys().collect::<Vec<_>>(),
            files.keys().collect::<Vec<_>>(),
            "workers={workers}: same file set"
        );
        for (name, bytes) in &files1 {
            assert_eq!(
                bytes, &files[name],
                "workers={workers}: {name} must be byte-identical to serial"
            );
        }
        assert_eq!(
            final1, final_bytes,
            "workers={workers}: final artifact must be byte-identical to serial"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir1);
}

#[test]
fn interrupted_pooled_sweep_resumes_to_identical_bytes() {
    // Reference: uninterrupted, 2 workers.
    let dir_a = scratch("ref");
    let (files_a, final_a) = sweep_leg(&dir_a, 2, false, None).expect("complete");

    // Interrupted at 1 unit with concurrent writers, then resumed —
    // still 2 workers on the resume leg.
    let dir_b = scratch("resume");
    assert!(
        sweep_leg(&dir_b, 2, false, Some(1)).is_none(),
        "max_units leg must report partial"
    );
    let (files_b, final_b) = sweep_leg(&dir_b, 2, true, None).expect("resume completes");

    for (name, bytes) in &files_a {
        assert_eq!(
            bytes, &files_b[name],
            "{name} must be byte-identical after interrupt + resume"
        );
    }
    assert_eq!(final_a, final_b);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn recorder_trace_jsonl_is_byte_identical_at_every_worker_count() {
    let bench = benchmark_by_name("cfd", Scale::Tiny).expect("roster name");
    let profile = profile_run(&bench.run, 1);
    let gpu = GpuConfig::fermi();
    let cfg = TbpointConfig::default();

    let trace_bytes = |pool_workers: usize| {
        let plan = ExecPlan::pool(pool_workers);
        let (result, traces) = run_tbpoint_traced(&bench.run, Some(&profile), &cfg, &gpu, plan)
            .expect("pipeline runs");
        let entries: Vec<TraceEntry> = traces
            .into_iter()
            .map(|t| TraceEntry {
                label: bench.name.to_string(),
                launch: t.launch,
                trace: t.trace,
            })
            .collect();
        let path = scratch(&format!("trace-w{pool_workers}")).join("trace.jsonl");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        output::write_trace_jsonl(&path, &entries).expect("write traces");
        let bytes = std::fs::read(&path).expect("read traces");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
        (result, bytes)
    };

    let (result1, bytes1) = trace_bytes(1);
    for workers in [2, 4] {
        let (result, bytes) = trace_bytes(workers);
        assert_eq!(result1, result, "workers={workers}: result drifted");
        assert_eq!(
            bytes1, bytes,
            "workers={workers}: recorder JSONL must be byte-identical to serial"
        );
    }
}
