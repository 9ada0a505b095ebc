//! Cross-crate integration tests: every update scheme must agree on
//! query results, and MaSM must deliver them with SSD-friendly I/O.

use std::sync::Arc;

use masm_baselines::{InPlaceEngine, IuEngine};
use masm_core::update::{FieldPatch, UpdateOp};
use masm_core::{MasmConfig, MasmEngine, ShardedEngine};
use masm_pagestore::{HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};
use masm_workloads::synthetic::{SyntheticTable, UpdateMix, UpdateStreamGen};

fn schema() -> Schema {
    Schema::synthetic_100b()
}

struct Rig {
    clock: SimClock,
    disk: SimDevice,
    ssd: SimDevice,
    wal: SimDevice,
}

impl Rig {
    fn new() -> Rig {
        let clock = SimClock::new();
        Rig {
            disk: SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone()),
            ssd: SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()),
            wal: SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()),
            clock,
        }
    }

    fn session(&self) -> SessionHandle {
        SessionHandle::fresh(self.clock.clone())
    }

    fn heap(&self, records: u64, fill: f64) -> Arc<TableHeap> {
        let heap = Arc::new(TableHeap::new(self.disk.clone(), HeapConfig::default()));
        let s = self.session();
        let table = SyntheticTable::new(records);
        heap.bulk_load(&s, table.records(), fill).unwrap();
        heap
    }

    /// The shard of a one-shard deployment over `heap` and this rig's
    /// SSD and WAL.
    fn masm(&self, heap: Arc<TableHeap>, cfg: MasmConfig) -> Arc<MasmEngine> {
        let ssds = vec![self.ssd.clone()];
        let engine = ShardedEngine::new(heap, ssds, vec![self.wal.clone()], schema(), cfg);
        Arc::clone(&engine.unwrap().shards()[0])
    }
}

/// Render a scan's output for comparisons: (key, payload) pairs.
fn dump(it: impl Iterator<Item = Record>) -> Vec<(Key, Vec<u8>)> {
    it.map(|r| (r.key, r.payload)).collect()
}

#[test]
fn all_schemes_agree_on_query_results() {
    // The same update stream through MaSM, IU, and in-place must produce
    // byte-identical scans.
    let table = SyntheticTable::new(3_000);
    let updates: Vec<(Key, UpdateOp)> =
        UpdateStreamGen::uniform(table.clone(), UpdateMix::default(), 99)
            .take(2_000)
            .collect();

    // MaSM.
    let rig = Rig::new();
    let masm = rig.masm(rig.heap(3_000, 1.0), MasmConfig::small_for_tests());
    let s = rig.session();
    for (k, op) in &updates {
        masm.apply_update(&s, *k, op.clone()).unwrap();
    }
    let masm_out = dump(masm.begin_scan(s.clone(), 0, u64::MAX).unwrap());

    // IU.
    let rig2 = Rig::new();
    let iu = IuEngine::new(rig2.heap(3_000, 1.0), rig2.ssd.clone(), schema());
    let s2 = rig2.session();
    for (ts, (k, op)) in updates.iter().enumerate() {
        iu.apply_update(&s2, *k, op.clone(), ts as u64 + 1).unwrap();
    }
    let iu_out = dump(iu.begin_scan(s2, 0, u64::MAX, u64::MAX).unwrap());

    // In-place (fill 0.9 so inserts fit; content equality still holds).
    let rig3 = Rig::new();
    let heap3 = rig3.heap(3_000, 0.9);
    let inplace = InPlaceEngine::new(Arc::clone(&heap3), schema());
    let s3 = rig3.session();
    for (ts, (k, op)) in updates.iter().enumerate() {
        inplace
            .apply_update(&s3, *k, op.clone(), ts as u64 + 1)
            .unwrap();
    }
    let inplace_out = dump(heap3.scan_range(s3, 0, u64::MAX));

    assert_eq!(masm_out, iu_out, "MaSM vs IU");
    assert_eq!(masm_out, inplace_out, "MaSM vs in-place");
}

#[test]
fn masm_equals_inplace_after_migration_too() {
    let table = SyntheticTable::new(2_000);
    let updates: Vec<(Key, UpdateOp)> =
        UpdateStreamGen::uniform(table.clone(), UpdateMix::default(), 5)
            .take(1_500)
            .collect();

    let rig = Rig::new();
    let masm = rig.masm(rig.heap(2_000, 1.0), MasmConfig::small_for_tests());
    let s = rig.session();
    for (k, op) in &updates {
        masm.apply_update(&s, *k, op.clone()).unwrap();
    }
    let before = dump(masm.begin_scan(s.clone(), 0, u64::MAX).unwrap());
    masm.migrate(&s).unwrap();
    let after = dump(masm.begin_scan(s.clone(), 0, u64::MAX).unwrap());
    assert_eq!(before, after);

    // And the migrated heap alone (no merge) holds exactly that data.
    let raw = dump(masm.heap().scan_range(s, 0, u64::MAX));
    assert_eq!(before, raw, "post-migration heap is self-contained");
}

#[test]
fn range_scans_match_full_scans() {
    let rig = Rig::new();
    let masm = rig.masm(rig.heap(5_000, 1.0), MasmConfig::small_for_tests());
    let s = rig.session();
    let table = SyntheticTable::new(5_000);
    for (k, op) in UpdateStreamGen::uniform(table, UpdateMix::default(), 17).take(3_000) {
        masm.apply_update(&s, k, op).unwrap();
    }
    let full = dump(masm.begin_scan(s.clone(), 0, u64::MAX).unwrap());
    // Every sub-range must equal the slice of the full scan.
    for (begin, end) in [(0u64, 999u64), (1000, 4999), (5000, 9999), (9000, u64::MAX)] {
        let part = dump(masm.begin_scan(s.clone(), begin, end).unwrap());
        let expect: Vec<(Key, Vec<u8>)> = full
            .iter()
            .filter(|(k, _)| *k >= begin && *k <= end)
            .cloned()
            .collect();
        assert_eq!(part, expect, "range [{begin}, {end}]");
    }
}

#[test]
fn masm_never_issues_random_ssd_writes() {
    // Design goal 2, end to end: stream updates, scans, merges, and a
    // migration; the SSD must see at most a handful of non-continuation
    // writes (run starts after space rewinds), never scattered ones.
    let rig = Rig::new();
    let masm = rig.masm(rig.heap(2_000, 1.0), MasmConfig::small_for_tests());
    let s = rig.session();
    let table = SyntheticTable::new(2_000);
    rig.ssd.reset_stats();
    let mut gen = UpdateStreamGen::uniform(table, UpdateMix::default(), 3);
    for _ in 0..3 {
        for _ in 0..4_000 {
            let (k, op) = gen.next_update();
            masm.apply_update(&s, k, op).unwrap();
        }
        let _ = masm.begin_scan(s.clone(), 0, 500).unwrap().count();
        masm.migrate(&s).unwrap();
    }
    let stats = rig.ssd.stats();
    assert!(stats.write_ops > 50, "the test must actually write runs");
    // Every write either continues the previous one or starts a fresh
    // run region; with the rewinding allocator that is a small constant
    // per run, far below the write count.
    assert!(
        stats.random_writes < stats.write_ops / 4,
        "random {} of {} writes",
        stats.random_writes,
        stats.write_ops
    );
}

#[test]
fn modify_of_every_field_applies() {
    let rig = Rig::new();
    let masm = rig.masm(rig.heap(100, 1.0), MasmConfig::small_for_tests());
    let s = rig.session();
    let sch = schema();
    // Field 0 is the u32 measure; field 1 the filler bytes.
    masm.apply_update(
        &s,
        50,
        UpdateOp::Modify(vec![FieldPatch {
            field: 0,
            value: 123u32.to_le_bytes().to_vec(),
        }]),
    )
    .unwrap();
    masm.apply_update(
        &s,
        50,
        UpdateOp::Modify(vec![FieldPatch {
            field: 1,
            value: vec![7u8; 88],
        }]),
    )
    .unwrap();
    let rec = masm.begin_scan(s, 50, 50).unwrap().next().unwrap();
    assert_eq!(sch.get_u32(&rec.payload, 0), 123);
    assert_eq!(sch.get(&rec.payload, 1), vec![7u8; 88]);
}

#[test]
fn update_cache_capacity_is_enforced() {
    let rig = Rig::new();
    let mut cfg = MasmConfig::small_for_tests();
    cfg.ssd_capacity = 64 * 4096; // tiny: 256 KiB (M = 8, α = 1 still valid)
                                  // The buffer is S·P = 64 KiB — a quarter of the cache — so the
                                  // cache can fill up while still below a 0.9 threshold; use 0.7 so
                                  // "full" implies "needs migration".
    cfg.migration_threshold = 0.7;
    let masm = rig.masm(rig.heap(1_000, 1.0), cfg);
    let s = rig.session();
    let table = SyntheticTable::new(1_000);
    let mut gen = UpdateStreamGen::uniform(table, UpdateMix::default(), 1);
    let mut hit_full = false;
    for _ in 0..200_000 {
        let (k, op) = gen.next_update();
        match masm.apply_update(&s, k, op) {
            Ok(_) => {}
            Err(masm_core::MasmError::CacheFull { .. }) => {
                hit_full = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(hit_full, "engine must report a full cache");
    assert!(masm.needs_migration());
    // Migration drains the cache and ingestion resumes.
    masm.migrate(&s).unwrap();
    assert_eq!(masm.cached_bytes(), 0);
    let (k, op) =
        UpdateStreamGen::uniform(SyntheticTable::new(1_000), UpdateMix::default(), 2).next_update();
    masm.apply_update(&s, k, op).unwrap();
}
