//! Property tests for [`masm_core::MasmEngine::stats`]: under arbitrary
//! interleavings of ingest, point lookups, merged scans, flushes,
//! compactions, and migrations, the unified snapshot stays coherent —
//! histogram counts equal operation counts, cache byte gauges add up,
//! deltas are monotone, and `StatsDelta` round-trips through JSON.

use std::sync::Arc;

use proptest::prelude::*;

use masm_core::config::MasmConfig;
use masm_core::update::{FieldPatch, UpdateOp};
use masm_core::{EngineStats, MasmEngine, ShardedEngine, StatsDelta};
use masm_pagestore::{HeapConfig, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};
use masm_telemetry::json::parse;
use masm_telemetry::Metric;

fn fixture(n_records: u64) -> (Arc<MasmEngine>, SessionHandle) {
    let (engine, session) = fixture_with(n_records, MasmConfig::small_for_tests());
    (Arc::clone(&engine.shards()[0]), session)
}

/// A loaded one-shard deployment.
fn fixture_with(n_records: u64, cfg: MasmConfig) -> (Arc<ShardedEngine>, SessionHandle) {
    let schema = Schema::synthetic_100b();
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal_dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let engine = ShardedEngine::new(heap, vec![ssd], vec![wal_dev], schema.clone(), cfg).unwrap();
    let session = SessionHandle::fresh(clock);
    engine
        .load_table(
            &session,
            (0..n_records).map(|i| Record::new(i * 2, schema.empty_payload())),
            1.0,
        )
        .unwrap();
    (engine, session)
}

/// One step of the random workload.
#[derive(Debug, Clone)]
enum Step {
    Ingest(u64, u32),
    Delete(u64),
    Get(u64),
    Scan(u64, u64),
    Flush,
    Compact,
    Migrate,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0u64..600, any::<u32>()).prop_map(|(k, v)| Step::Ingest(k, v)),
        2 => (0u64..600).prop_map(Step::Delete),
        2 => (0u64..600).prop_map(Step::Get),
        2 => (0u64..600, 0u64..100).prop_map(|(a, w)| Step::Scan(a, a + w)),
        1 => Just(Step::Flush),
        1 => Just(Step::Compact),
        1 => Just(Step::Migrate),
    ]
}

fn assert_coherent(stats: &EngineStats) {
    let violations = stats.invariant_violations();
    assert!(violations.is_empty(), "incoherent snapshot: {violations:?}");
    // The paper's design goal 2: run bodies write sequentially. When
    // compaction/migration recycles SSD space, the head may seek once
    // per new run, so the bound is one random write per run created
    // (flushes + merge outputs), exactly as the engine's own tests
    // state it.
    let runs_created = stats.ops.flush.count + stats.merge.inputs as u64;
    assert!(
        stats.ssd.random_writes <= runs_created,
        "random writes {} exceed runs created {runs_created}",
        stats.ssd.random_writes
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Execute a random interleaving and check every stats invariant.
    #[test]
    fn stats_are_coherent_under_interleaving(
        steps in proptest::collection::vec(step_strategy(), 1..60),
        mid_point in 0usize..60,
    ) {
        let (engine, session) = fixture(300);
        let baseline = engine.stats();
        prop_assert_eq!(baseline.ops.ingest.count, 0);

        let mut ingests = 0u64;
        let mut gets = 0u64;
        let mut scanned = 0u64;
        let mut migrations = 0u64;
        let mut mid: Option<EngineStats> = None;

        for (i, step) in steps.iter().enumerate() {
            match *step {
                Step::Ingest(key, v) => {
                    engine
                        .apply_update(
                            &session,
                            key,
                            UpdateOp::Modify(vec![FieldPatch {
                                field: 0,
                                value: v.to_le_bytes().to_vec(),
                            }]),
                        )
                        .unwrap();
                    ingests += 1;
                }
                Step::Delete(key) => {
                    engine.apply_update(&session, key, UpdateOp::Delete).unwrap();
                    ingests += 1;
                }
                Step::Get(key) => {
                    engine.get(&session, key).unwrap();
                    gets += 1;
                }
                Step::Scan(a, b) => {
                    let scan = engine.begin_scan(session.clone(), a, b).unwrap();
                    scanned += scan.count() as u64;
                }
                Step::Flush => engine.flush_buffer(&session).unwrap(),
                Step::Compact => {
                    engine.compact_runs(&session).unwrap();
                }
                Step::Migrate => {
                    let report = engine.migrate(&session).unwrap();
                    if report.runs_migrated > 0 {
                        migrations += 1;
                    }
                }
            }
            if i == mid_point.min(steps.len() - 1) {
                mid = Some(engine.stats());
            }
        }

        let end = engine.stats();
        assert_coherent(&end);

        // Histogram counts equal operation counts.
        prop_assert_eq!(end.ops.ingest.count, ingests);
        prop_assert_eq!(end.ingested_updates, ingests);
        prop_assert_eq!(end.ops.get.count, gets);
        prop_assert_eq!(end.ops.scan_next.count, scanned);
        prop_assert_eq!(end.ops.migrate.count, migrations);
        // Every flush materialized a run; runs are only retired by
        // migration, never created any other way.
        prop_assert!(end.ops.flush.count >= end.runs.count);

        // Deltas against both baselines are monotone (u64 subtraction
        // would panic in debug on any regression) and JSON-stable.
        let mid = mid.unwrap_or(baseline);
        assert_coherent(&mid);
        for earlier in [&baseline, &mid] {
            let d = end.delta(earlier);
            prop_assert_eq!(
                d.ingested_updates,
                end.ingested_updates - earlier.ingested_updates
            );
            let back = StatsDelta::from_json(&parse(&d.to_json()).unwrap()).unwrap();
            prop_assert_eq!(d, back);
        }
        // The full snapshot serializes to parseable JSON with the
        // headline invariant field lifted to the top level.
        let json = parse(&end.to_json()).unwrap();
        prop_assert_eq!(json.get_u64("random_writes"), Some(end.ssd.random_writes));
    }
}

/// One store per statistic: after a fixed workload that flushes,
/// compacts, scans, gets and migrates, every counter and gauge the
/// engine exports through its registry equals the matching
/// `EngineStats` field — they are the same atomics, so the benches'
/// numbers and the exported metrics cannot drift apart. Run inline and
/// with a background worker so the worker family is covered too.
#[test]
fn registry_metrics_agree_with_engine_stats() {
    for workers in [0, 1] {
        let cfg = MasmConfig {
            background_workers: workers,
            ..MasmConfig::small_for_tests()
        };
        let (sharded, session) = fixture_with(300, cfg);
        let engine = &sharded.shards()[0];
        // Enough updates to fill the buffer twice: inline, two flushes;
        // with a worker, background flush jobs.
        for i in 0..9000u64 {
            let op = if i % 9 == 0 {
                UpdateOp::Delete
            } else {
                UpdateOp::Modify(vec![FieldPatch {
                    field: 0,
                    value: (i as u32).to_le_bytes().to_vec(),
                }])
            };
            engine.apply_update(&session, (i * 7) % 600, op).unwrap();
            if i % 397 == 0 {
                engine.get(&session, i % 600).unwrap();
                let n = engine.begin_scan(session.clone(), i % 600, i % 600 + 40);
                n.unwrap().count();
            }
        }
        engine.flush_buffer(&session).unwrap();
        engine.compact_runs(&session).unwrap();
        engine
            .begin_scan(session.clone(), 0, u64::MAX)
            .unwrap()
            .count();
        engine.migrate(&session).unwrap();
        sharded.shutdown();

        let stats = engine.stats();
        assert!(stats.merge.inputs > 0, "the workload compacted");
        assert!(stats.compression.runs > 0 && stats.cache.lookups() > 0);
        assert_eq!(stats.workers.jobs_completed > 0, workers > 0);
        let json = parse(&stats.to_json()).unwrap();
        let mut compared = 0;
        engine.metrics_registry().for_each(|key, metric, _, _| {
            let value = match metric {
                Metric::Counter(c) => c.get(),
                Metric::Gauge(g) => g.get(),
                Metric::Histogram(_) => return,
            };
            let (family, name) = key.split_once('.').unwrap();
            let family = match family {
                "worker" | "engine" => "workers",
                "recovery" => return,
                f => f,
            };
            let field = json.get(family).and_then(|f| f.get_u64(name));
            assert_eq!(field, Some(value), "{key} (workers = {workers})");
            compared += 1;
        });
        assert!(compared >= 34, "only {compared} metrics compared");
    }
}
