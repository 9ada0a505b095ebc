//! Criterion micro-benchmarks for the CPU-side hot paths of MaSM.
//!
//! The figures report *virtual* device time; these benches measure real
//! CPU cost of the in-memory machinery (encoding, page packing, k-way
//! merging, buffer operations, checksums, crash-recovery log replay) —
//! the part the paper argues is negligible next to I/O (Figure 13),
//! which these numbers substantiate.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use std::sync::Arc;

use masm_blockrun::crc32;
use masm_core::config::MasmConfig;
use masm_core::membuf::UpdateBuffer;
use masm_core::merge::{MergeDataUpdates, MergeUpdates, UpdateStream};
use masm_core::run::{build_run, write_run, RunScan};
use masm_core::update::{UpdateOp, UpdateRecord};
use masm_core::wal::WalRecord;
use masm_core::{ShardManifest, ShardedEngine};
use masm_pagestore::{HeapConfig, Page, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

fn sample_updates(n: u64) -> Vec<UpdateRecord> {
    (0..n)
        .map(|i| {
            let op = match i % 3 {
                0 => UpdateOp::Insert(vec![7u8; 92]),
                1 => UpdateOp::Delete,
                _ => UpdateOp::Replace(vec![9u8; 92]),
            };
            UpdateRecord::new(i + 1, i * 2 + 1, op)
        })
        .collect()
}

fn bench_update_codec(c: &mut Criterion) {
    let updates = sample_updates(1000);
    let mut group = c.benchmark_group("update_codec");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("encode_1000", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(64 * 1024);
            for u in &updates {
                u.encode_into(&mut buf);
            }
            black_box(buf.len())
        })
    });
    let mut encoded = Vec::new();
    for u in &updates {
        u.encode_into(&mut encoded);
    }
    group.bench_function("decode_1000", |b| {
        b.iter(|| {
            let mut pos = 0;
            let mut n = 0;
            while let Some((u, used)) = UpdateRecord::decode(&encoded[pos..]) {
                pos += used;
                n += 1;
                black_box(u.key);
            }
            assert_eq!(n, 1000);
        })
    });
    group.finish();
}

fn bench_page_packing(c: &mut Criterion) {
    let records: Vec<Record> = (0..39).map(|i| Record::synthetic(i * 2, 92)).collect();
    let mut group = c.benchmark_group("page");
    group.bench_function("pack_4k_page", |b| {
        b.iter(|| {
            let mut p = Page::new(4096);
            for r in &records {
                assert!(p.append(r));
            }
            black_box(p.record_count())
        })
    });
    let mut page = Page::new(4096);
    for r in &records {
        page.append(r);
    }
    group.bench_function("decode_4k_page", |b| {
        b.iter(|| {
            let n: usize = page.records().map(|r| r.payload.len()).sum();
            black_box(n)
        })
    });
    group.finish();
}

fn bench_membuf(c: &mut Criterion) {
    let mut group = c.benchmark_group("membuf");
    group.throughput(Throughput::Elements(5000));
    group.bench_function("push_drain_5000", |b| {
        b.iter(|| {
            let mut buf = UpdateBuffer::new(usize::MAX);
            for u in sample_updates(5000) {
                buf.push(u);
            }
            black_box(buf.drain_sorted().len())
        })
    });
    group.finish();
}

fn bench_kway_merge(c: &mut Criterion) {
    let schema = Schema::synthetic_100b();
    let mut group = c.benchmark_group("merge");
    group.throughput(Throughput::Elements(8000));
    group.bench_function("merge_updates_8_streams_x1000", |b| {
        b.iter(|| {
            let streams: Vec<UpdateStream> = (0..8)
                .map(|s| {
                    let us: Vec<UpdateRecord> = (0..1000u64)
                        .map(|i| UpdateRecord::new(s * 1000 + i + 1, i * 16 + s, UpdateOp::Delete))
                        .collect();
                    Box::new(us.into_iter()) as UpdateStream
                })
                .collect();
            let n = MergeUpdates::new(streams, schema.clone(), u64::MAX).count();
            black_box(n)
        })
    });
    group.bench_function("merge_data_updates_10k_records", |b| {
        let updates = sample_updates(2000);
        b.iter(|| {
            let data = (0..10_000u64).map(|i| (Record::synthetic(i * 2, 92), 0u64));
            let ups: Vec<UpdateStream> = vec![Box::new(updates.clone().into_iter())];
            let merged = MergeUpdates::new(ups, schema.clone(), u64::MAX);
            let n = MergeDataUpdates::new(data, merged, schema.clone()).count();
            black_box(n)
        })
    });
    group.finish();
}

fn bench_run_roundtrip(c: &mut Criterion) {
    let cfg = MasmConfig::small_for_tests();
    let updates = sample_updates(10_000);
    let mut group = c.benchmark_group("run");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("build_run_10k", |b| {
        b.iter(|| {
            let (run, bytes) = build_run(&cfg, 0, 0, 1, &updates);
            black_box((run.count, bytes.len()))
        })
    });
    group.bench_function("write_and_scan_run_10k", |b| {
        b.iter(|| {
            let clock = SimClock::new();
            let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
            let session = SessionHandle::fresh(clock);
            let run = write_run(&session, &ssd, &cfg, 0, 0, 1, &updates).unwrap();
            let n = RunScan::new(ssd, session, Arc::new(run), 0, u64::MAX).count();
            black_box(n)
        })
    });
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 31 + 7) as u8).collect();
    let mut group = c.benchmark_group("checksum");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("crc32_64k", |b| b.iter(|| crc32(black_box(&data))));
    group.finish();
}

/// Crash recovery of a one-shard deployment over a redo log of its
/// manifest and 200k updates, each 1000 of them absorbed by a logged
/// 1-pass run (created, later deleted) except the last 1000: the replay
/// walks the whole log to rebuild that buffer.
fn bench_wal_replay(c: &mut Criterion) {
    const UPDATES: u64 = 200_000;
    let cfg = MasmConfig::small_for_tests();
    let mut log = Vec::new();
    WalRecord::Manifest(ShardManifest {
        shards: 1,
        shard_id: 0,
        split_keys: Vec::new(),
        ssd_region_base: cfg.ssd_region_base,
        config_fingerprint: cfg.fingerprint(),
    })
    .encode_into(&mut log);
    for u in sample_updates(UPDATES) {
        let ts = u.ts;
        WalRecord::Update(u).encode_into(&mut log);
        if ts % 1000 == 0 && ts < UPDATES {
            let id = ts / 1000;
            WalRecord::RunCreated {
                id,
                base: 0,
                bytes: 0,
                count: 1000,
                passes: 1,
                max_ts: ts,
            }
            .encode_into(&mut log);
            WalRecord::RunsDeleted(vec![id]).encode_into(&mut log);
        }
    }
    let clock = SimClock::new();
    let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    wal.write_at(0, 0, &log).unwrap();
    let mut group = c.benchmark_group("recovery");
    group.throughput(Throughput::Elements(UPDATES));
    group.bench_function("wal_replay_200k_updates", |b| {
        b.iter(|| {
            let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
            let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
            let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
            let (_, report) = ShardedEngine::recover(
                heap,
                vec![ssd],
                vec![wal.clone()],
                Schema::synthetic_100b(),
                cfg.clone(),
            )
            .unwrap();
            assert_eq!(report.updates_recovered(), 1000);
            black_box(report.wal_records_replayed())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_crc32,
    bench_wal_replay,
    bench_update_codec,
    bench_page_packing,
    bench_membuf,
    bench_kway_merge,
    bench_run_roundtrip
);
criterion_main!(benches);
