//! The redo-log fold behind crash recovery (§3.6).
//!
//! MaSM only has to rebuild the in-memory update buffer, the run set
//! and the heap metadata, yet the log holds every update ever
//! acknowledged: almost all of them were absorbed by a later 1-pass
//! run. [`parse_wal`] therefore folds the log as it is framed — one CRC
//! pass plus a header walk — and keeps each update as a `(ts, body)`
//! reference into the log image. Only the updates no run absorbed are
//! decoded, once the whole log has been folded.

use std::collections::BTreeMap;

use masm_pagestore::{ChunkCommit, Key, TableHeap};
use masm_storage::{Ns, SessionHandle, SimDevice};

use crate::error::{MasmError, MasmResult};
use crate::manifest::ShardManifest;
use crate::ts::Timestamp;
use crate::update::UpdateRecord;
use crate::wal::{visit_records, Wal, WalRecord};

/// One heap-metadata event parsed from a redo log. Sharded recovery
/// merges the events of every shard's log into one globally ordered
/// sequence (by `seq`, with cross-log duplicates removed) before
/// touching the shared heap.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum HeapEvent {
    /// A bulk load ([`WalRecord::HeapLoaded`]).
    Load {
        /// Global heap-event sequence number.
        seq: u64,
        /// Physical base offset of the load.
        base: u64,
        /// Page size used.
        page_size: u32,
        /// Minimum key per page.
        min_keys: Vec<Key>,
        /// Total records loaded.
        record_count: u64,
    },
    /// A migration chunk splice ([`WalRecord::MapSplice`]).
    Splice {
        /// Global heap-event sequence number.
        seq: u64,
        /// The logged splice.
        commit: ChunkCommit,
    },
}

impl HeapEvent {
    pub(crate) fn seq(&self) -> u64 {
        match self {
            HeapEvent::Load { seq, .. } | HeapEvent::Splice { seq, .. } => *seq,
        }
    }
}

/// Replay the heap-metadata events of one or more redo logs against a
/// (fresh) table heap, in global `seq` order. Duplicates — the same
/// bulk load broadcast to several shard WALs — collapse by `seq`.
pub(crate) fn apply_heap_events(heap: &TableHeap, mut events: Vec<HeapEvent>) {
    events.sort_by_key(HeapEvent::seq);
    events.dedup_by_key(|e| e.seq());
    for ev in events {
        match ev {
            HeapEvent::Load {
                base,
                page_size,
                min_keys,
                record_count,
                ..
            } => {
                let page_map: Vec<u64> = (0..min_keys.len() as u64)
                    .map(|i| base + i * page_size as u64)
                    .collect();
                let alloc_next = base + min_keys.len() as u64 * page_size as u64;
                heap.restore(page_map, min_keys, record_count, alloc_next);
            }
            HeapEvent::Splice { commit, .. } => heap.apply_splice(&commit),
        }
    }
}

/// One materialized run named by the redo log as live at the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecoveredRun {
    pub(crate) base: u64,
    pub(crate) bytes: u64,
    pub(crate) passes: u8,
}

/// Everything crash recovery needs from one shard's redo log: the
/// record-level fold of the longest valid log prefix.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct ParsedWal {
    /// Virtual time at which replay began: the start of the
    /// `recovery` trace span, so the span covers the log read.
    pub(crate) started: Ns,
    /// The shard manifest every deployment writes first (absent only
    /// on a foreign or damaged log, which recovery rejects).
    pub(crate) manifest: Option<ShardManifest>,
    /// Runs created and not yet deleted, by run id.
    pub(crate) live_runs: BTreeMap<u64, RecoveredRun>,
    /// Logged updates not yet absorbed by any 1-pass run — the
    /// in-memory buffer contents at the crash — in log order.
    pub(crate) pending: Vec<UpdateRecord>,
    /// Highest durable timestamp (updates, migration marks, and
    /// heap-event seqs all draw from the one oracle).
    pub(crate) max_ts: Timestamp,
    /// A `MigrationBegin` without its `MigrationEnd`.
    pub(crate) unfinished_migration: bool,
    /// Heap loads and splices, in log order.
    pub(crate) heap_events: Vec<HeapEvent>,
    /// Records in the valid prefix.
    pub(crate) records_replayed: u64,
    /// Byte offset where the valid prefix ends (the recovered append
    /// point); every byte below it was CRC-verified.
    pub(crate) end_offset: u64,
    /// Bytes dropped beyond `end_offset` (torn tail; 0 = clean end).
    pub(crate) torn_bytes: u64,
}

/// Fold one redo log into its recovery-relevant state: the longest
/// valid prefix, with torn tails truncated and mid-log corruption
/// rejected exactly as [`Wal::replay`] does.
///
/// The fold runs while the log is framed. Each update body is checked
/// with the allocation-free [`UpdateRecord::validate`] — a malformed one
/// is a hard [`MasmError::Corrupt`] even if a later run absorbs it —
/// and remembered as a slice of the log image; a 1-pass `RunCreated`
/// drops the ones at or below its `max_ts`. Only the survivors are
/// decoded at the end. One device read, as before.
pub(crate) fn parse_wal(session: &SessionHandle, wal_dev: &SimDevice) -> MasmResult<ParsedWal> {
    let started = session.now();
    let log = Wal::read_log(session, wal_dev)?;
    let mut manifest: Option<ShardManifest> = None;
    let mut live_runs = BTreeMap::new();
    let mut pending: Vec<(Timestamp, &[u8])> = Vec::new();
    let mut max_ts = 0;
    let mut unfinished_migration = false;
    let mut heap_events = Vec::new();
    let extent = visit_records(&log, |tag, body| {
        if tag == WalRecord::UPDATE_TAG {
            let ts = match UpdateRecord::validate(body) {
                Some((ts, used)) if used == body.len() => ts,
                Some(_) => return Err(MasmError::Corrupt("WAL update length")),
                None => return Err(MasmError::Corrupt("WAL update")),
            };
            max_ts = max_ts.max(ts);
            pending.push((ts, body));
            return Ok(());
        }
        match WalRecord::decode_body(tag, body)? {
            WalRecord::Update(_) => unreachable!("update records are folded undecoded"),
            WalRecord::RunCreated {
                id,
                base,
                bytes,
                passes,
                max_ts: run_max_ts,
                ..
            } => {
                live_runs.insert(
                    id,
                    RecoveredRun {
                        base,
                        bytes,
                        passes,
                    },
                );
                if passes == 1 {
                    // Updates at or below the run's max timestamp are
                    // durable in the run; the rest were still
                    // buffer-resident at the crash. A timestamp filter
                    // (not log position) because concurrent appenders
                    // interleave Update and RunCreated records;
                    // re-applied duplicates are idempotent.
                    pending.retain(|&(ts, _)| ts > run_max_ts);
                }
            }
            WalRecord::RunsDeleted(ids) => {
                for id in ids {
                    live_runs.remove(&id);
                }
            }
            WalRecord::MigrationBegin { ts, .. } => {
                max_ts = max_ts.max(ts);
                unfinished_migration = true;
            }
            WalRecord::MigrationEnd { .. } => unfinished_migration = false,
            WalRecord::HeapLoaded {
                seq,
                base,
                page_size,
                min_keys,
                record_count,
            } => {
                max_ts = max_ts.max(seq);
                heap_events.push(HeapEvent::Load {
                    seq,
                    base,
                    page_size,
                    min_keys,
                    record_count,
                });
            }
            WalRecord::MapSplice { seq, commit } => {
                max_ts = max_ts.max(seq);
                heap_events.push(HeapEvent::Splice { seq, commit });
            }
            WalRecord::Manifest(m) => {
                if manifest.as_ref().is_some_and(|prev| *prev != m) {
                    return Err(MasmError::Corrupt("conflicting manifests in one WAL"));
                }
                manifest = Some(m);
            }
        }
        Ok(())
    })?;
    let pending = pending
        .into_iter()
        .map(|(_, body)| {
            UpdateRecord::decode(body)
                .map(|(u, _)| u)
                .ok_or(MasmError::Corrupt("WAL update"))
        })
        .collect::<MasmResult<_>>()?;
    Ok(ParsedWal {
        started,
        manifest,
        live_runs,
        pending,
        max_ts,
        unfinished_migration,
        heap_events,
        records_replayed: extent.records,
        end_offset: extent.end_offset,
        torn_bytes: extent.torn_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MasmConfig;
    use crate::shard::ShardedEngine;
    use crate::update::{FieldPatch, UpdateOp};
    use masm_blockrun::crc32;
    use masm_pagestore::{HeapConfig, Schema};
    use masm_storage::{DeviceProfile, SimClock};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The fold as it was before streaming: decode every record with
    /// [`Wal::replay`], then fold the decoded records.
    fn reference_parse(session: &SessionHandle, wal_dev: &SimDevice) -> MasmResult<ParsedWal> {
        let started = session.now();
        let replay = Wal::replay(session, wal_dev)?;
        let mut parsed = ParsedWal {
            started,
            manifest: None,
            live_runs: BTreeMap::new(),
            pending: Vec::new(),
            max_ts: 0,
            unfinished_migration: false,
            heap_events: Vec::new(),
            records_replayed: replay.records.len() as u64,
            end_offset: replay.end_offset,
            torn_bytes: replay.torn_bytes,
        };
        for rec in replay.records {
            match rec {
                WalRecord::Update(u) => {
                    parsed.max_ts = parsed.max_ts.max(u.ts);
                    parsed.pending.push(u);
                }
                WalRecord::RunCreated {
                    id,
                    base,
                    bytes,
                    passes,
                    max_ts: run_max_ts,
                    ..
                } => {
                    parsed.live_runs.insert(
                        id,
                        RecoveredRun {
                            base,
                            bytes,
                            passes,
                        },
                    );
                    if passes == 1 {
                        parsed.pending.retain(|u| u.ts > run_max_ts);
                    }
                }
                WalRecord::RunsDeleted(ids) => {
                    for id in ids {
                        parsed.live_runs.remove(&id);
                    }
                }
                WalRecord::MigrationBegin { ts, .. } => {
                    parsed.max_ts = parsed.max_ts.max(ts);
                    parsed.unfinished_migration = true;
                }
                WalRecord::MigrationEnd { .. } => parsed.unfinished_migration = false,
                WalRecord::HeapLoaded {
                    seq,
                    base,
                    page_size,
                    min_keys,
                    record_count,
                } => {
                    parsed.max_ts = parsed.max_ts.max(seq);
                    parsed.heap_events.push(HeapEvent::Load {
                        seq,
                        base,
                        page_size,
                        min_keys,
                        record_count,
                    });
                }
                WalRecord::MapSplice { seq, commit } => {
                    parsed.max_ts = parsed.max_ts.max(seq);
                    parsed.heap_events.push(HeapEvent::Splice { seq, commit });
                }
                WalRecord::Manifest(m) => {
                    if parsed.manifest.as_ref().is_some_and(|prev| *prev != m) {
                        return Err(MasmError::Corrupt("conflicting manifests in one WAL"));
                    }
                    parsed.manifest = Some(m);
                }
            }
        }
        Ok(parsed)
    }

    /// A CRC-valid frame around an arbitrary body.
    fn raw_frame(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        out.push(tag);
        out.extend_from_slice(body);
        let crc = crc32(&out[8..]);
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// A log device holding exactly `bytes`.
    fn log_device(bytes: &[u8]) -> SimDevice {
        let dev = SimDevice::in_memory(DeviceProfile::ssd_x25e(), SimClock::new());
        if !bytes.is_empty() {
            dev.write_at(0, 0, bytes).unwrap();
        }
        dev
    }

    /// Parse `dev` on a session of its own, starting at virtual time 0.
    fn parse_with(
        parse: fn(&SessionHandle, &SimDevice) -> MasmResult<ParsedWal>,
        dev: &SimDevice,
    ) -> MasmResult<ParsedWal> {
        parse(&SessionHandle::fresh(SimClock::new()), dev)
    }

    fn op_strategy() -> impl Strategy<Value = UpdateOp> {
        let patch = (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..6))
            .prop_map(|(field, value)| FieldPatch { field, value });
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..12).prop_map(UpdateOp::Insert),
            Just(UpdateOp::Delete),
            proptest::collection::vec(patch, 0..3).prop_map(UpdateOp::Modify),
            proptest::collection::vec(any::<u8>(), 0..12).prop_map(UpdateOp::Replace),
        ]
    }

    fn manifest(variant: u64) -> ShardManifest {
        ShardManifest {
            shards: 2,
            shard_id: 1,
            split_keys: vec![500 + variant],
            ssd_region_base: 0,
            config_fingerprint: 77,
        }
    }

    /// One log entry: a record, or a CRC-valid update frame around
    /// arbitrary (usually malformed) bytes.
    #[derive(Debug, Clone)]
    enum Entry {
        Rec(WalRecord),
        RawUpdate(Vec<u8>),
    }

    fn entry_strategy() -> impl Strategy<Value = Entry> {
        let ids = || proptest::collection::vec(0u64..6, 0..3);
        let keys = || proptest::collection::vec(any::<u64>(), 0..4);
        let rec = |r: WalRecord| Entry::Rec(r);
        prop_oneof![
            30 => (1u64..64, 0u64..32, op_strategy())
                .prop_map(move |(ts, key, op)| rec(WalRecord::Update(UpdateRecord::new(ts, key, op)))),
            6 => (0u64..6, any::<u64>(), 1u8..=2, 0u64..64).prop_map(move |(id, base, passes, max_ts)| {
                rec(WalRecord::RunCreated {
                    id,
                    base,
                    bytes: base / 3,
                    count: id * 7,
                    passes,
                    max_ts,
                })
            }),
            3 => ids().prop_map(move |ids| rec(WalRecord::RunsDeleted(ids))),
            2 => (0u64..64, ids())
                .prop_map(move |(ts, run_ids)| rec(WalRecord::MigrationBegin { ts, run_ids })),
            2 => (0u64..64).prop_map(move |ts| rec(WalRecord::MigrationEnd { ts })),
            2 => (0u64..64, any::<u64>(), keys(), any::<u64>()).prop_map(
                move |(seq, base, min_keys, record_count)| {
                    rec(WalRecord::HeapLoaded {
                        seq,
                        base,
                        page_size: 4096,
                        min_keys,
                        record_count,
                    })
                }
            ),
            2 => (0u64..64, 0usize..100, 0usize..8, any::<i64>(), keys()).prop_map(
                move |(seq, at, n_old, record_delta, min_keys)| {
                    rec(WalRecord::MapSplice {
                        seq,
                        commit: ChunkCommit {
                            at,
                            n_old,
                            base_phys: at as u64 * 4096,
                            n_new: min_keys.len(),
                            min_keys,
                            record_delta,
                        },
                    })
                }
            ),
            1 => (0u64..2).prop_map(move |v| rec(WalRecord::Manifest(manifest(v)))),
            1 => proptest::collection::vec(any::<u8>(), 0..40).prop_map(Entry::RawUpdate),
        ]
    }

    fn encode_log(entries: &[Entry]) -> Vec<u8> {
        let mut log = Vec::new();
        for e in entries {
            match e {
                Entry::Rec(r) => r.encode_into(&mut log),
                Entry::RawUpdate(body) => log.extend_from_slice(&raw_frame(0, body)),
            }
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The streaming fold agrees with decoding every record and
        /// folding afterwards, for random logs cut at arbitrary offsets
        /// and sometimes damaged by one flipped byte: same pending
        /// updates in order, live runs, `max_ts`, migration flag, heap
        /// events, record count, end offset and torn bytes — or a
        /// `Corrupt` error from both.
        #[test]
        fn streaming_parse_matches_decode_then_fold(
            entries in proptest::collection::vec(entry_strategy(), 0..40),
            cut in 0u64..1300,
            flip in (0u64..8, any::<u64>(), 1u8..=255),
        ) {
            let mut log = encode_log(&entries);
            if cut < 1000 {
                log.truncate(log.len() * cut as usize / 1000);
            }
            let (dice, at, mask) = flip;
            if dice == 0 && !log.is_empty() {
                let at = (at % log.len() as u64) as usize;
                log[at] ^= mask;
            }
            let dev = log_device(&log);
            let streamed = parse_with(parse_wal, &dev);
            let reference = parse_with(reference_parse, &dev);
            match (streamed, reference) {
                (Ok(s), Ok(r)) => prop_assert_eq!(s, r),
                (Err(s), Err(r)) => {
                    prop_assert!(matches!(s, MasmError::Corrupt(_)), "streamed: {s:?}");
                    prop_assert!(matches!(r, MasmError::Corrupt(_)), "reference: {r:?}");
                }
                (s, r) => prop_assert!(false, "streamed {s:?} vs reference {r:?}"),
            }
        }
    }

    /// A CRC-valid but malformed update is corruption even when a later
    /// 1-pass run absorbs its timestamp: the streaming fold must not
    /// skip validating records it will drop.
    #[test]
    fn malformed_update_absorbed_by_a_later_run_still_fails_recovery() {
        let good = UpdateRecord::new(5, 10, UpdateOp::Insert(vec![1, 2, 3]));
        let mut body = Vec::new();
        good.encode_into(&mut body);
        for malformed in [
            // Unknown op tag.
            {
                let mut b = body.clone();
                b[16] = 9;
                b
            },
            // Payload length past the end of the body.
            body[..body.len() - 1].to_vec(),
            // Trailing bytes after a well-formed update.
            {
                let mut b = body.clone();
                b.push(0);
                b
            },
        ] {
            // A valid one-shard manifest first, so only the malformed
            // update can be what recovery rejects.
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
            log.extend(raw_frame(WalRecord::UPDATE_TAG, &malformed));
            WalRecord::RunCreated {
                id: 1,
                base: 0,
                bytes: 4096,
                count: 1,
                passes: 1,
                max_ts: 5,
            }
            .encode_into(&mut log);
            let clock = SimClock::new();
            let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
            wal.write_at(0, 0, &log).unwrap();
            let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
            let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock);
            let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
            let Err(err) =
                ShardedEngine::recover(heap, vec![ssd], vec![wal], Schema::synthetic_100b(), cfg)
            else {
                panic!("malformed update must fail recovery");
            };
            assert!(matches!(err, MasmError::Corrupt(_)), "{err:?}");
        }
    }
}
