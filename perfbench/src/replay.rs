//! The replay stage: each lower layer's public functions timed on data
//! captured from the traced run.
//!
//! Inputs come from that run's crash image (the WAL's update records,
//! and every run whose blocks still verify on the SSD image), the heap
//! pages the timing backend captured from disk reads, and the
//! workload's own get keys. Each function is repeated until at least
//! [`MIN_TIMED`] of wall time has been measured; rates are reported per
//! wall second of the function alone (input copies are made outside the
//! timed region).

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use masm_blockrun::{crc32, read_meta, BlockRunMeta};
use masm_codec::codec_for;
use masm_core::membuf::UpdateBuffer;
use masm_core::merge::{MergeDataUpdates, MergeUpdates, UpdateStream};
use masm_core::wal::{Wal, WalRecord};
use masm_core::{MasmConfig, UpdateRecord};
use masm_pagestore::{Key, Page, Record, Schema};
use masm_storage::{SessionHandle, SimClock};

use crate::backend::{Capture, Dev};
use crate::world::{device, Image};

const MIN_TIMED: Duration = Duration::from_millis(150);
/// Stored run bytes the replay keeps (newest runs first).
const RUN_BUDGET: u64 = 8 << 20;

/// One stored data block of a captured run.
struct Block {
    stored: Vec<u8>,
    raw: Vec<u8>,
    codec_id: u8,
}

/// One captured run: its metadata, blocks and decoded updates.
struct Run {
    meta: BlockRunMeta,
    blocks: Vec<Block>,
    updates: Vec<UpdateRecord>,
}

/// The replay stage's rates.
#[derive(Debug, Default)]
pub struct Replay {
    pub runs: usize,
    pub blocks: usize,
    pub pages: usize,
    pub crc_mb_s: f64,
    pub decode_mb_s: f64,
    pub encode_mb_s: f64,
    pub build_mb_s: f64,
    pub bloom_fp_ratio: f64,
    pub membuf_push_ns: f64,
    pub kway_mrows_s: f64,
    pub data_updates_mrows_s: f64,
    pub page_decode_mrows_s: f64,
}

/// Repeat `f` until `MIN_TIMED` is measured; `f` returns the work units
/// of one call and the wall time it measured itself.
fn rate(mut f: impl FnMut() -> (u64, Duration)) -> f64 {
    let (mut units, mut spent) = (0u64, Duration::ZERO);
    while spent < MIN_TIMED {
        let (u, d) = f();
        if u == 0 {
            return 0.0;
        }
        units += u;
        spent += d;
    }
    units as f64 / spent.as_secs_f64()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed())
}

fn captured_runs(image: &Image, wal_updates: &mut Vec<UpdateRecord>) -> Vec<Run> {
    let capture = Capture::new(0);
    let clock = SimClock::new();
    let wal = device(Dev::Wal, &capture, &clock, &image.wal);
    let ssd = device(Dev::Ssd, &capture, &clock, &image.ssd);
    let session = SessionHandle::fresh(clock);
    let records = Wal::replay(&session, &wal).map_or_else(|_| Vec::new(), |r| r.records);
    let mut created: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for rec in records {
        match rec {
            WalRecord::Update(u) => wal_updates.push(u),
            WalRecord::RunCreated {
                id, base, bytes, ..
            } => {
                created.insert(id, (base, bytes));
            }
            _ => {}
        }
    }
    let mut runs = Vec::new();
    let mut kept = 0u64;
    // Newest first: older runs' space may have been reused, so a run is
    // kept only if its metadata and every block still verify.
    for &(base, bytes) in created.values().rev() {
        if kept >= RUN_BUDGET {
            break;
        }
        let Ok(meta) = read_meta(&session, &ssd, base, bytes) else {
            continue;
        };
        let mut blocks = Vec::new();
        let mut updates = Vec::new();
        let intact = meta.zones.iter().all(|z| {
            let Ok((stored, _)) = ssd.read_at(0, meta.base + z.offset, z.len as u64) else {
                return false;
            };
            if crc32(&stored) != z.crc {
                return false;
            }
            let Some(raw) =
                codec_for(z.codec_id).and_then(|c| c.decode(&stored, z.raw_len as usize).ok())
            else {
                return false;
            };
            let Some(entries) = masm_blockrun::block::decode_block(&raw) else {
                return false;
            };
            updates.extend(
                entries
                    .iter()
                    .filter_map(|e| UpdateRecord::decode_value(e.key, e.ts, &e.value)),
            );
            blocks.push(Block {
                stored,
                raw,
                codec_id: z.codec_id,
            });
            true
        });
        if intact && !blocks.is_empty() {
            kept += bytes;
            runs.push(Run {
                meta,
                blocks,
                updates,
            });
        }
    }
    runs
}

fn streams(runs: &[Run]) -> Vec<UpdateStream> {
    runs.iter()
        .map(|r| Box::new(r.updates.clone().into_iter()) as UpdateStream)
        .collect()
}

/// Time every layer function on the captured data. `batch` is the
/// number of updates one buffer flush materializes.
pub fn run(
    image: &Image,
    heap_pages: &Capture,
    get_keys: &[Key],
    cfg: &MasmConfig,
    schema: &Schema,
    batch: usize,
) -> Replay {
    let mut wal_updates = Vec::new();
    let runs = captured_runs(image, &mut wal_updates);
    let blocks: Vec<&Block> = runs.iter().flat_map(|r| &r.blocks).collect();
    let mut out = Replay {
        runs: runs.len(),
        blocks: blocks.len(),
        ..Replay::default()
    };
    let stored: u64 = blocks.iter().map(|b| b.stored.len() as u64).sum();
    let raw: u64 = blocks.iter().map(|b| b.raw.len() as u64).sum();

    out.crc_mb_s = rate(|| {
        let (_, d) = timed(|| {
            blocks
                .iter()
                .map(|b| crc32(&b.stored))
                .fold(0, |a, c| a ^ c)
        });
        (stored, d)
    }) / 1e6;
    out.decode_mb_s = rate(|| {
        let (_, d) = timed(|| {
            for b in &blocks {
                let c = codec_for(b.codec_id).expect("verified codec");
                black_box(c.decode(&b.stored, b.raw.len()).expect("verified block"));
            }
        });
        (raw, d)
    }) / 1e6;
    out.encode_mb_s = rate(|| {
        let (_, d) = timed(|| {
            for b in &blocks {
                let c = codec_for(b.codec_id).expect("verified codec");
                black_box(c.encode(&b.raw).expect("re-encode"));
            }
        });
        (raw, d)
    }) / 1e6;

    // Flush-sized update batches, sorted the way a buffer drain sorts.
    let batch = batch.max(1);
    let batches: Vec<Vec<UpdateRecord>> = wal_updates
        .chunks(batch)
        .map(|c| {
            let mut v = c.to_vec();
            v.sort_by_key(|u| (u.key, u.ts));
            v
        })
        .collect();
    let update_bytes: u64 = wal_updates.iter().map(|u| u.encoded_len() as u64).sum();
    out.build_mb_s = rate(|| {
        let (_, d) = timed(|| {
            for (i, b) in batches.iter().enumerate() {
                black_box(masm_core::run::build_run(cfg, i as u64, 0, 1, b));
            }
        });
        (update_bytes, d)
    }) / 1e6;
    let pushes = wal_updates.len() as u64;
    let ns_per_push = rate(|| {
        let inputs: Vec<Vec<UpdateRecord>> = wal_updates.chunks(batch).map(<[_]>::to_vec).collect();
        let (_, d) = timed(|| {
            for chunk in inputs {
                let mut buf = UpdateBuffer::new(usize::MAX);
                for u in chunk {
                    buf.push(u);
                }
                black_box(buf.drain_sorted());
            }
        });
        (pushes, d)
    });
    out.membuf_push_ns = if ns_per_push > 0.0 {
        1e9 / ns_per_push
    } else {
        0.0
    };

    // Bloom false positives: the workload's get keys against every
    // captured run that lacks them.
    let (mut probes, mut false_hits) = (0u64, 0u64);
    for r in &runs {
        let Some(bloom) = &r.meta.bloom else { continue };
        let keys: HashSet<Key> = r.updates.iter().map(|u| u.key).collect();
        for &k in get_keys {
            if !keys.contains(&k) {
                probes += 1;
                false_hits += u64::from(bloom.contains(k));
            }
        }
    }
    out.bloom_fp_ratio = false_hits as f64 / probes.max(1) as f64;

    let entries: u64 = runs.iter().map(|r| r.updates.len() as u64).sum();
    out.kway_mrows_s = rate(|| {
        let s = streams(&runs);
        let (_, d) = timed(|| MergeUpdates::new(s, schema.clone(), u64::MAX).count());
        (entries, d)
    }) / 1e6;

    // Heap pages: dedupe by first key, keep them in key order.
    let mut pages: BTreeMap<Key, Page> = BTreeMap::new();
    for bytes in heap_pages.take() {
        let page = Page::from_bytes(bytes);
        if let Some(k) = page.min_key() {
            pages.entry(k).or_insert(page);
        }
    }
    out.pages = pages.len();
    let rows: u64 = pages.values().map(|p| p.record_count() as u64).sum();
    out.page_decode_mrows_s = rate(|| {
        let (_, d) = timed(|| pages.values().map(|p| p.records().count()).sum::<usize>());
        (rows, d)
    }) / 1e6;
    let data: Vec<(Record, u64)> = pages
        .values()
        .flat_map(|p| p.records().map(|r| (r, p.timestamp())))
        .collect();
    out.data_updates_mrows_s = rate(|| {
        let (d_in, s) = (data.clone(), streams(&runs));
        let (n, d) = timed(|| {
            let merged = MergeUpdates::new(s, schema.clone(), u64::MAX);
            MergeDataUpdates::new(d_in.into_iter(), merged, schema.clone()).count()
        });
        (n as u64, d)
    }) / 1e6;
    out
}
