//! Crash-recovery integration tests: the engine must come back from the
//! redo log and the non-volatile SSD with zero lost or duplicated
//! updates, across multiple crash points and crash-recover cycles.

use std::sync::Arc;

use masm_core::update::UpdateOp;
use masm_core::{MasmConfig, ShardedEngine};
use masm_pagestore::{HeapConfig, Key, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};
use masm_workloads::synthetic::{SyntheticTable, UpdateMix, UpdateStreamGen};

fn schema() -> Schema {
    Schema::synthetic_100b()
}

struct Durable {
    clock: SimClock,
    disk: SimDevice,
    ssd: SimDevice,
    wal: SimDevice,
}

impl Durable {
    fn new() -> Durable {
        let clock = SimClock::new();
        Durable {
            disk: SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone()),
            ssd: SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()),
            wal: SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone()),
            clock,
        }
    }

    fn session(&self) -> SessionHandle {
        SessionHandle::fresh(self.clock.clone())
    }

    /// A new one-shard deployment over the devices; its manifest is
    /// the first record of the log.
    fn deploy(&self) -> Arc<ShardedEngine> {
        let heap = Arc::new(TableHeap::new(self.disk.clone(), HeapConfig::default()));
        let (ssds, wals) = (vec![self.ssd.clone()], vec![self.wal.clone()]);
        ShardedEngine::new(heap, ssds, wals, schema(), MasmConfig::small_for_tests()).unwrap()
    }

    fn fresh_engine(&self, records: u64) -> Arc<ShardedEngine> {
        let engine = self.deploy();
        let s = self.session();
        engine
            .load_table(&s, SyntheticTable::new(records).records(), 1.0)
            .unwrap();
        engine
    }

    /// Simulate a crash: rebuild everything from the devices.
    fn try_recover(&self) -> masm_core::MasmResult<Arc<ShardedEngine>> {
        let heap = Arc::new(TableHeap::new(self.disk.clone(), HeapConfig::default()));
        let (ssds, wals) = (vec![self.ssd.clone()], vec![self.wal.clone()]);
        let cfg = MasmConfig::small_for_tests();
        ShardedEngine::recover(heap, ssds, wals, schema(), cfg).map(|(engine, _)| engine)
    }

    fn recover(&self) -> Arc<ShardedEngine> {
        self.try_recover().unwrap()
    }
}

fn scan_all(engine: &ShardedEngine) -> Vec<(Key, Vec<u8>)> {
    engine
        .scan(0, u64::MAX)
        .unwrap()
        .map(|r| (r.key, r.payload))
        .collect()
}

/// A deployment that crashed before any write: its log holds only the
/// manifest `ShardedEngine::new` wrote.
#[test]
fn recovery_with_empty_wal_is_clean() {
    let d = Durable::new();
    drop(d.deploy());
    let engine = d.recover();
    assert_eq!(scan_all(&engine).len(), 0);
}

#[test]
fn repeated_crash_recover_cycles_lose_nothing() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(1_000);
    let table = SyntheticTable::new(1_000);
    let mut gen = UpdateStreamGen::uniform(table, UpdateMix::default(), 77);

    let mut engine = engine;
    let mut expected = scan_all(&engine);
    for cycle in 0..4 {
        for _ in 0..700 {
            let (k, op) = gen.next_update();
            engine.put(&s, k, op).unwrap();
        }
        expected = scan_all(&engine);
        drop(engine);
        engine = d.recover();
        let got = scan_all(&engine);
        assert_eq!(expected, got, "cycle {cycle}");
    }
    // Migration after several recoveries still works and preserves data.
    engine.shards()[0].migrate(&s).unwrap();
    assert_eq!(expected, scan_all(&engine));
}

#[test]
fn recovery_after_migration_sees_migrated_data() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(800);
    for i in 0..900u64 {
        engine
            .put(&s, i * 2 + 1, UpdateOp::Insert(schema().empty_payload()))
            .unwrap();
    }
    engine.shards()[0].migrate(&s).unwrap();
    let expected = scan_all(&engine);
    drop(engine);
    let engine = d.recover();
    assert_eq!(expected, scan_all(&engine));
    assert_eq!(
        engine.shards()[0].run_count(),
        0,
        "migrated runs stay deleted"
    );
}

#[test]
fn recovery_resumes_timestamps_monotonically() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(100);
    let mut last_ts = 0;
    for i in 0..50u64 {
        last_ts = engine.put(&s, i * 2 + 1, UpdateOp::Delete).unwrap();
    }
    drop(engine);
    let engine = d.recover();
    let next = engine.put(&s, 1, UpdateOp::Delete).unwrap();
    assert!(
        next > last_ts,
        "post-recovery timestamps ({next}) must exceed pre-crash ones ({last_ts})"
    );
}

#[test]
fn torn_wal_tail_is_truncated_and_salvaged() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(100);
    engine.put(&s, 1, UpdateOp::Delete).unwrap();
    drop(engine);
    // Tear the log tail: append a half-written record whose length
    // prefix promises more bytes than exist — the shape a crash
    // mid-append leaves behind.
    let len = d.wal.len();
    d.wal.write_at(0, len, &[200, 0, 0, 0, 0]).unwrap();
    let heap = Arc::new(TableHeap::new(d.disk.clone(), HeapConfig::default()));
    let (engine, report) = ShardedEngine::recover(
        heap,
        vec![d.ssd.clone()],
        vec![d.wal.clone()],
        schema(),
        MasmConfig::small_for_tests(),
    )
    .expect("torn tail must be truncated, not fatal");
    assert_eq!(report.wal_torn_bytes(), 5, "{report:?}");
    assert_eq!(report.updates_recovered(), 1);
    // The acknowledged pre-crash delete survived the truncation.
    let keys: Vec<Key> = engine.scan(0, 5).unwrap().map(|r| r.key).collect();
    assert!(!keys.contains(&1), "recovered delete visible");
    // Appending past the truncated tail and crashing again replays
    // cleanly: the garbage was buried by the new append point.
    engine.put(&s, 3, UpdateOp::Delete).unwrap();
    drop(engine);
    let engine = d.recover();
    let keys: Vec<Key> = engine.scan(0, 5).unwrap().map(|r| r.key).collect();
    assert!(!keys.contains(&1) && !keys.contains(&3));
}

#[test]
fn midlog_wal_corruption_is_a_hard_error() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.deploy();
    let manifest_len = d.wal.len();
    engine
        .load_table(&s, SyntheticTable::new(100).records(), 1.0)
        .unwrap();
    engine.put(&s, 1, UpdateOp::Delete).unwrap();
    engine.put(&s, 3, UpdateOp::Delete).unwrap();
    drop(engine);
    // Flip a byte in the *middle* of the log (byte 12 of the first
    // record after the manifest). Valid records follow the damage, so
    // this cannot be a torn tail — recovery must refuse to silently
    // drop acknowledged history.
    let at = manifest_len + 12;
    let (mut bytes, _) = d.wal.read_at(d.wal.busy_until(), at, 1).unwrap();
    bytes[0] ^= 0xFF;
    d.wal.write_at(d.wal.busy_until(), at, &bytes).unwrap();
    let err = d
        .try_recover()
        .expect_err("mid-log corruption must be surfaced");
    assert!(err.to_string().contains("CRC"), "{err}");
}

#[test]
fn updates_arriving_after_recovery_coexist_with_recovered_state() {
    let d = Durable::new();
    let s = d.session();
    let engine = d.fresh_engine(500);
    for i in 0..800u64 {
        engine
            .put(&s, i * 2 + 1, UpdateOp::Insert(schema().empty_payload()))
            .unwrap();
    }
    drop(engine);
    let engine = d.recover();
    // New updates after recovery.
    engine.put(&s, 2, UpdateOp::Delete).unwrap();
    let keys: Vec<Key> = engine.scan(0, 20).unwrap().map(|r| r.key).collect();
    assert!(keys.contains(&1), "recovered insert visible");
    assert!(!keys.contains(&2), "fresh delete visible");

    // Crash again: both generations survive.
    drop(engine);
    let engine = d.recover();
    let keys: Vec<Key> = engine.scan(0, 20).unwrap().map(|r| r.key).collect();
    assert!(keys.contains(&1));
    assert!(!keys.contains(&2));
}
