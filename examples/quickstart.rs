//! Quickstart: the MaSM engine in ~60 lines.
//!
//! Builds a simulated machine (HDD for main data, SSD for the update
//! cache), loads a small table, applies online updates, runs merged
//! range scans that see fresh data, and migrates the cached updates back
//! into the table in place.
//!
//! Run with: `cargo run --release -p masm-bench --example quickstart`

use std::sync::Arc;

use masm_core::update::{FieldPatch, UpdateOp};
use masm_core::{MasmConfig, ShardedEngine};
use masm_pagestore::{HeapConfig, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

fn main() {
    // One virtual clock; three devices (disk, update-cache SSD, WAL).
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());

    // A 100-byte-record table: u32 "measure" + filler, clustered by key.
    let schema = Schema::synthetic_100b();
    // A standalone table is a one-shard deployment: one SSD, one WAL.
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let engine = ShardedEngine::new(
        heap,
        vec![ssd],
        vec![wal],
        schema.clone(),
        MasmConfig::small_for_tests(),
    )
    .expect("valid config");

    // Load even keys 0..20_000 (odd keys are free for inserts).
    let session = SessionHandle::fresh(clock.clone());
    engine
        .load_table(
            &session,
            (0..10_000u64).map(|i| {
                let mut p = schema.empty_payload();
                schema.set_u32(&mut p, 0, i as u32);
                Record::new(i * 2, p)
            }),
            1.0,
        )
        .expect("bulk load");

    // Online well-formed updates: insert, delete, modify.
    let mut new_row = schema.empty_payload();
    schema.set_u32(&mut new_row, 0, 4242);
    engine
        .put(&session, 4241, UpdateOp::Insert(new_row))
        .unwrap();
    engine.put(&session, 4244, UpdateOp::Delete).unwrap();
    engine
        .put(
            &session,
            4246,
            UpdateOp::Modify(vec![FieldPatch {
                field: 0,
                value: 777u32.to_le_bytes().to_vec(),
            }]),
        )
        .unwrap();

    // A range scan sees all three updates merged in, immediately.
    println!("range scan of [4240, 4250] after online updates:");
    for record in engine.scan(4240, 4250).unwrap() {
        println!(
            "  key {:>5}  measure {}",
            record.key,
            schema.get_u32(&record.payload, 0)
        );
    }

    // Migrate the cached updates back into the main data, in place.
    let shard = &engine.shards()[0];
    let report = shard.migrate(&session).unwrap();
    println!(
        "\nmigration: {} updates applied, {} pages written, runs left: {}",
        report.updates_applied,
        report.pages_written,
        shard.run_count()
    );

    // Scans read identical data afterwards.
    let keys: Vec<u64> = engine.scan(4240, 4250).unwrap().map(|r| r.key).collect();
    println!("post-migration keys in [4240, 4250]: {keys:?}");
    println!("virtual time elapsed: {:.3} ms", clock.now() as f64 / 1e6);
}
