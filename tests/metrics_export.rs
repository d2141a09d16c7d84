//! Export-layer integration tests plus the perf-regression gate.
//!
//! The regression test diffs a freshly profiled smoke sweep against
//! the checked-in golden (`tests/goldens/smoke_sweep.json`). Counters
//! must match exactly; simulated times within 1e-9 relative. To bless
//! an intentional behaviour change, regenerate the golden:
//!
//! ```text
//! cargo run --release -p ks-bench -- sweep --smoke --json tests/goldens/smoke_sweep.json
//! ```

use std::sync::OnceLock;

use ks_bench::metrics::SweepMetrics;
use ks_bench::{regress, Sweep, SweepData};

const GOLDEN_PATH: &str = "tests/goldens/smoke_sweep.json";

fn smoke() -> &'static SweepData {
    static DATA: OnceLock<SweepData> = OnceLock::new();
    DATA.get_or_init(|| SweepData::compute(Sweep::smoke()).expect("smoke sweep profiles cleanly"))
}

fn export() -> SweepMetrics {
    SweepMetrics::collect(smoke())
}

#[test]
fn pipeline_profile_round_trips_through_json() {
    let p = &smoke().points[0].fused;
    let json = serde_json::to_string(p).expect("serialise");
    let back: ks_gpu_sim::PipelineProfile = serde_json::from_str(&json).expect("parse");
    assert_eq!(&back, p);
}

#[test]
fn exported_counters_match_in_memory_profiles() {
    // The acceptance point: M=1024, N=1024, K=32.
    let d = smoke();
    let m = export();
    let p = d.at(32, 1024).expect("point in smoke sweep");
    let pt = m
        .points
        .iter()
        .find(|pt| pt.k == 32 && pt.m == 1024)
        .expect("point in export");

    let json = m.to_json();
    let v: serde_json::Value = serde_json::from_str(&json).expect("parse own export");
    let idx = m
        .points
        .iter()
        .position(|pt| pt.k == 32 && pt.m == 1024)
        .unwrap();
    for (label, profile, summed) in [
        ("fused", &p.fused, &pt.fused),
        ("cuda_unfused", &p.cuda_unfused, &pt.cuda_unfused),
        ("cublas_unfused", &p.cublas_unfused, &pt.cublas_unfused),
    ] {
        // In-memory totals == summary block == what the JSON parses to.
        assert_eq!(summed.counters, profile.total_counters(), "{label}");
        let from_json: ks_gpu_sim::Counters =
            serde_json::from_value(&v["points"][idx][label]["counters"])
                .expect("counters deserialise");
        assert_eq!(from_json, profile.total_counters(), "{label} via JSON");
    }
}

#[test]
fn export_is_schema_complete() {
    // What `ks-bench sweep --json` writes (same code path) must parse and
    // carry every top-level and per-point field of the schema.
    let m = export();
    let dir = std::env::temp_dir().join("ks_metrics_export_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("BENCH_sweep.json");
    m.write_json(path.to_str().unwrap()).expect("write export");

    let text = std::fs::read_to_string(&path).expect("read back");
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(v["schema_version"].as_u64(), Some(1));
    assert!(v["peak_sp_gflops"].as_f64().unwrap() > 0.0);
    assert_eq!(v["points"].as_array().unwrap().len(), Sweep::smoke().len());
    let pt = &v["points"][0];
    for key in [
        "k",
        "m",
        "n",
        "wall_time_ms",
        "speedup_vs_cublas",
        "speedup_vs_cuda",
        "fused",
        "cuda_unfused",
        "cublas_unfused",
    ] {
        assert!(!pt[key].is_null(), "point field {key} missing");
    }
    for key in [
        "name",
        "time_s",
        "counters",
        "mem",
        "l2_transactions",
        "dram_transactions",
        "flop_efficiency",
        "l2_mpki",
        "energy",
        "profile",
    ] {
        assert!(!pt["fused"][key].is_null(), "pipeline field {key} missing");
    }
    // And the whole document round-trips losslessly.
    assert_eq!(SweepMetrics::from_json(&text).expect("reparse"), m);
}

#[test]
fn csv_export_covers_every_kernel_launch() {
    let m = export();
    let csv = m.to_csv();
    let kernels: usize = m
        .points
        .iter()
        .map(|p| {
            p.fused.profile.kernels.len()
                + p.cuda_unfused.profile.kernels.len()
                + p.cublas_unfused.profile.kernels.len()
        })
        .sum();
    assert_eq!(csv.lines().count(), 1 + kernels);
    let header = csv.lines().next().unwrap();
    assert!(header.starts_with("k,m,n,pipeline,kernel,"));
    assert!(header.contains("dram_read_transactions"));
}

#[test]
fn smoke_sweep_matches_golden() {
    let golden_text = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH}: {e} — regenerate with `cargo run --release -p ks-bench -- sweep --smoke --json {GOLDEN_PATH}`"));
    let golden = SweepMetrics::from_json(&golden_text).expect("golden parses");
    let fresh = export();
    let drift = regress::diff(&golden, &fresh);
    assert!(
        drift.is_empty(),
        "metrics drifted from {GOLDEN_PATH} ({} mismatches):\n{}\n\nIf this change is intentional, regenerate the golden:\n  cargo run --release -p ks-bench -- sweep --smoke --json {GOLDEN_PATH}",
        drift.len(),
        drift.join("\n")
    );
}
