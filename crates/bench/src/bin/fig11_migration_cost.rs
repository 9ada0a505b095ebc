//! Figure 11: cost of an in-place update migration relative to a pure
//! table scan — plus the zero-decode compaction experiment.
//!
//! Paper result: migrating a full 4 GB update cache while scanning the
//! table costs ≈2.3× a pure scan — the migration *is* a scan plus the
//! sequential write-back, so the factor sits a little above 2×. The
//! benefits (§4.2): updates to one page apply together, writes are
//! sequential not random, and main data is updated in place.
//!
//! The compaction section exercises the layered merge planner on two
//! workloads: *overlapping* (uniform random updates — every run covers
//! the whole key space, so nearly all blocks must be decoded and
//! merged) and *disjoint* (key-banded update batches — no two runs
//! overlap, so every block is relinked verbatim and `bytes_decoded`
//! stays 0). Emits one JSON object (line prefixed `JSON:`) so CI can
//! watch `blocks_moved` / `bytes_decoded` for merge-path regressions.

use masm_bench::*;
use masm_storage::{MergeReport, MIB};

struct CompactionRow {
    workload: &'static str,
    runs_in: usize,
    report: MergeReport,
}

/// Uniform random updates: runs overlap across the whole key space.
fn compaction_overlapping(mb: u64) -> CompactionRow {
    let env = SyntheticEnv::new(mb);
    env.fill_cache(0.8, 7);
    let session = env.machine.session();
    env.shard().flush_buffer(&session).expect("flush");
    let runs_in = env.shard().run_count();
    let report = env.shard().compact_runs(&session).expect("compaction");
    CompactionRow {
        workload: "overlapping",
        runs_in,
        report,
    }
}

/// Key-banded update batches: each run covers its own key band, so the
/// planner moves every block without decoding a byte.
fn compaction_disjoint(mb: u64) -> CompactionRow {
    let env = SyntheticEnv::new(mb);
    let session = env.machine.session();
    let bands = 6u64;
    let band_span = env.table.max_key() / bands;
    let payload = env.table.schema.empty_payload();
    // Stay well below the SSD capacity so every band flushes cleanly.
    let budget = env.shard().config().ssd_capacity * 7 / 10 / bands;
    'fill: for band in 0..bands {
        let band_start = env.shard().cached_bytes();
        let mut i = 0u64;
        while env.shard().cached_bytes() - band_start < budget || i < 64 {
            let key = band * band_span + (i * 37) % band_span.max(1);
            match env
                .shard()
                .apply_update(&session, key, UpdateOp::Replace(payload.clone()))
            {
                Ok(_) => {}
                Err(masm_core::MasmError::CacheFull { .. }) => break 'fill,
                Err(e) => panic!("update failed: {e}"),
            }
            i += 1;
        }
        match env.shard().flush_buffer(&session) {
            Ok(()) | Err(masm_core::MasmError::CacheFull { .. }) => {}
            Err(e) => panic!("flush failed: {e}"),
        }
    }
    let runs_in = env.shard().run_count();
    let report = env.shard().compact_runs(&session).expect("compaction");
    CompactionRow {
        workload: "disjoint",
        runs_in,
        report,
    }
}

fn main() {
    let mb = scale_mb();

    // Pure full-table scan.
    let baseline = SyntheticEnv::new(mb);
    let scan_ns = baseline.time_pure_scan(0, u64::MAX);

    // Scan with migration of a full cache.
    let env = SyntheticEnv::with_config_mutator(mb, |cfg| {
        cfg.migration_threshold = 1.0;
    });
    env.fill_cache(0.95, 42);
    let session = env.machine.session();
    let start = session.now();
    let report = env.shard().migrate(&session).expect("migration");
    let mig_ns = session.now() - start;

    print_table(
        &format!("Figure 11 — migration vs pure scan (table {mb} MiB, cache ~95% full)"),
        &["configuration", "virtual time (s)", "normalized"],
        &[
            vec![
                "scan".into(),
                format!("{:.3}", secs(scan_ns)),
                "1.00x".into(),
            ],
            vec![
                "scan w/ migration".into(),
                format!("{:.3}", secs(mig_ns)),
                ratio(mig_ns, scan_ns),
            ],
        ],
    );
    println!(
        "\nmigrated {} runs, applied {} updates, wrote {} pages ({} MiB).",
        report.runs_migrated,
        report.updates_applied,
        report.pages_written,
        report.pages_written * 4096 / MIB,
    );
    println!("paper shape: scan w/ migration ≈ 2.3x a pure scan.");

    // --- Zero-decode compaction: overlapping vs disjoint runs --------
    let rows = [compaction_overlapping(mb), compaction_disjoint(mb)];
    print_table(
        "Compaction — layered merge planner (move vs merge)",
        &[
            "workload",
            "runs_in",
            "blocks_moved",
            "blocks_merged",
            "bytes_moved",
            "bytes_decoded",
            "move_ratio",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.to_string(),
                    r.runs_in.to_string(),
                    r.report.blocks_moved.to_string(),
                    r.report.blocks_merged.to_string(),
                    r.report.bytes_moved.to_string(),
                    r.report.bytes_decoded.to_string(),
                    format!("{:.2}", r.report.move_ratio()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let disjoint = &rows[1];
    assert_eq!(
        disjoint.report.bytes_decoded, 0,
        "disjoint-band compaction must decode nothing: {:?}",
        disjoint.report
    );
    println!(
        "\nexpected shape: disjoint bands move 100% of blocks (bytes_decoded == 0); \
         uniform updates decode nearly everything."
    );

    let compaction_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":\"{}\",\"runs_in\":{},\"fan_in\":{},\"blocks_moved\":{},\
                 \"blocks_merged\":{},\"bytes_moved\":{},\"bytes_decoded\":{},\
                 \"entries_out\":{},\"move_ratio\":{:.4}}}",
                r.workload,
                r.runs_in,
                r.report.fan_in,
                r.report.blocks_moved,
                r.report.blocks_merged,
                r.report.bytes_moved,
                r.report.bytes_decoded,
                r.report.entries_out,
                r.report.move_ratio(),
            )
        })
        .collect();
    println!(
        "\nJSON:{{\"figure\":\"fig11_migration_cost\",\"table_mb\":{mb},\
         \"scan_s\":{:.4},\"migration_s\":{:.4},\"migration_normalized\":{:.3},\
         \"runs_migrated\":{},\"updates_applied\":{},\"pages_written\":{},\
         \"compaction\":[{}]}}",
        secs(scan_ns),
        secs(mig_ns),
        mig_ns as f64 / scan_ns.max(1) as f64,
        report.runs_migrated,
        report.updates_applied,
        report.pages_written,
        compaction_json.join(",")
    );
}
