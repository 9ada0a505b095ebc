//! Concurrency integration tests: scans, updates, and migrations racing
//! on real threads. Timestamps must give every query a consistent
//! snapshot regardless of interleaving (§3.2's "Multiple Concurrent
//! Range Scans" and "Online Updates and Range Scan").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use masm_core::update::UpdateOp;
use masm_core::{MasmConfig, MasmEngine, ShardedEngine};
use masm_pagestore::{HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

fn schema() -> Schema {
    Schema::synthetic_100b()
}

fn engine_with(records: u64) -> (Arc<MasmEngine>, SessionHandle, SimClock) {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let cfg = MasmConfig::small_for_tests();
    let engine = ShardedEngine::new(heap, vec![ssd], vec![wal], schema(), cfg).unwrap();
    let session = SessionHandle::fresh(clock.clone());
    engine
        .load_table(
            &session,
            (0..records).map(|i| Record::new(i * 2, schema().empty_payload())),
            1.0,
        )
        .unwrap();
    (Arc::clone(&engine.shards()[0]), session, clock)
}

/// Each query must see a prefix of the update sequence: with updates
/// inserting odd keys in ascending order, a snapshot is consistent iff
/// the set of odd keys it contains is exactly {1, 3, 5, ..., 2j+1} for
/// some j.
#[test]
fn concurrent_scans_see_consistent_prefixes() {
    let (engine, _, clock) = engine_with(2_000);
    let stop = Arc::new(AtomicBool::new(false));

    let updater = {
        let engine = Arc::clone(&engine);
        let clock = clock.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let session = SessionHandle::fresh(clock);
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) && i < 1_500 {
                engine
                    .apply_update(
                        &session,
                        i * 2 + 1,
                        UpdateOp::Insert(schema().empty_payload()),
                    )
                    .unwrap();
                i += 1;
            }
            i
        })
    };

    let mut readers = Vec::new();
    for t in 0..4 {
        let engine = Arc::clone(&engine);
        let clock = clock.clone();
        readers.push(std::thread::spawn(move || {
            let session = SessionHandle::fresh(clock);
            for _ in 0..10 {
                let odd: Vec<Key> = engine
                    .begin_scan(session.clone(), 0, u64::MAX)
                    .unwrap()
                    .map(|r| r.key)
                    .filter(|k| k % 2 == 1)
                    .collect();
                // Prefix property: contiguous odd keys from 1.
                for (i, k) in odd.iter().enumerate() {
                    assert_eq!(
                        *k,
                        (i as u64) * 2 + 1,
                        "reader {t}: snapshot is not a prefix: {odd:?}"
                    );
                }
            }
        }));
    }
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let issued = updater.join().unwrap();
    assert!(issued > 0);
}

#[test]
fn migration_concurrent_with_scans_preserves_results() {
    let (engine, session, clock) = engine_with(1_500);
    for i in 0..1_200u64 {
        engine
            .apply_update(
                &session,
                i * 2 + 1,
                UpdateOp::Insert(schema().empty_payload()),
            )
            .unwrap();
    }
    let expected: Vec<Key> = engine
        .begin_scan(session.clone(), 0, u64::MAX)
        .unwrap()
        .map(|r| r.key)
        .collect();

    // Readers race with the migration.
    let mut readers = Vec::new();
    for _ in 0..3 {
        let engine = Arc::clone(&engine);
        let clock = clock.clone();
        let expected = expected.clone();
        readers.push(std::thread::spawn(move || {
            let session = SessionHandle::fresh(clock);
            for _ in 0..6 {
                let got: Vec<Key> = engine
                    .begin_scan(session.clone(), 0, u64::MAX)
                    .unwrap()
                    .map(|r| r.key)
                    .collect();
                assert_eq!(expected, got);
            }
        }));
    }
    let migrator = {
        let engine = Arc::clone(&engine);
        let clock = clock.clone();
        std::thread::spawn(move || {
            let session = SessionHandle::fresh(clock);
            engine.migrate(&session).unwrap()
        })
    };
    for r in readers {
        r.join().unwrap();
    }
    let report = migrator.join().unwrap();
    assert!(report.runs_migrated > 0);
    let got: Vec<Key> = engine
        .begin_scan(session, 0, u64::MAX)
        .unwrap()
        .map(|r| r.key)
        .collect();
    assert_eq!(expected, got);
}

#[test]
fn concurrent_updaters_never_lose_updates() {
    let (engine, session, clock) = engine_with(4_000);
    let threads = 4;
    let per_thread = 500u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let engine = Arc::clone(&engine);
        let clock = clock.clone();
        handles.push(std::thread::spawn(move || {
            let session = SessionHandle::fresh(clock);
            for i in 0..per_thread {
                // Disjoint odd keys per thread.
                let key = (t as u64 * per_thread + i) * 2 + 1;
                engine
                    .apply_update(&session, key, UpdateOp::Insert(schema().empty_payload()))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let odd_count = engine
        .begin_scan(session, 0, u64::MAX)
        .unwrap()
        .filter(|r| r.key % 2 == 1)
        .count() as u64;
    assert_eq!(odd_count, threads as u64 * per_thread);
}

#[test]
fn scan_opened_before_update_is_isolated_even_across_flush() {
    let (engine, session, _clock) = engine_with(500);
    // Open a scan, then push enough updates to force buffer flushes.
    let scan = engine.begin_scan(session.clone(), 0, u64::MAX).unwrap();
    for i in 0..2_000u64 {
        engine
            .apply_update(
                &session,
                i * 2 + 1,
                UpdateOp::Insert(schema().empty_payload()),
            )
            .unwrap();
    }
    assert!(engine.run_count() > 0, "flushes must have happened");
    let keys: Vec<Key> = scan.map(|r| r.key).collect();
    assert!(
        keys.iter().all(|k| k % 2 == 0),
        "the old snapshot must see none of the later inserts"
    );
    assert_eq!(keys.len(), 500);
}
