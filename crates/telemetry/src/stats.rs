//! [`EngineStats`] — the unified engine snapshot — and [`StatsDelta`],
//! the monotonic difference between two snapshots.
//!
//! One `MasmEngine::stats()` call returns everything the paper's
//! quantitative invariants need, composed from the per-subsystem
//! families: cache ([`CacheStatsSnapshot`]), merge ([`MergeReport`]),
//! compression ([`CompressionReport`]), device I/O + wear
//! ([`IoStatsSnapshot`], [`WearStats`]), buffer occupancy, and
//! per-operation latency histograms. `StatsDelta = now − prev` makes
//! rates first-class: benches poll snapshots and report updates/s or
//! bytes/s without re-plumbing counters by hand.
//!
//! Every family is declared once with [`stats_family!`](crate::stats_family),
//! which derives its `delta`, `merge` and JSON code from the per-field
//! aggregation rules. The only hand-written aggregation is the wear
//! summary's moment-based [`WearStats::merge`] and the histogram
//! bucket arithmetic.

use crate::family::StatMerge;
use crate::metrics::HistogramSnapshot;
use crate::stats_family;

stats_family! {
    /// Copyable summary of one device's I/O statistics (the live
    /// accumulator is `masm_storage::IoStats`).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct IoStatsSnapshot: delta, merge, to_json, from_json {
        /// Number of read operations.
        pub read_ops: u64 = sum,
        /// Number of write operations.
        pub write_ops: u64 = sum,
        /// Bytes read.
        pub bytes_read: u64 = sum,
        /// Bytes written.
        pub bytes_written: u64 = sum,
        /// Sequential operations.
        pub sequential_ops: u64 = sum,
        /// Random operations.
        pub random_ops: u64 = sum,
        /// Random write operations.
        pub random_writes: u64 = sum,
        /// Total busy time in virtual ns.
        pub busy_ns: u64 = sum,
        /// Deepest submission queue observed (requests in flight at one
        /// submission instant, including the new one).
        pub max_queue_depth: u64 = peak,
        /// Σ of the observed queue depth over all operations.
        pub queue_depth_sum: u64 = sum,
        /// Highest write count over any single erase block.
        pub max_block_wear: u64 = peak,
        /// Number of distinct erase blocks ever written. A level; it
        /// adds across shards because their devices share no blocks.
        pub touched_blocks: u64 = level,
    }
}

impl IoStatsSnapshot {
    /// Total operations of both kinds (unit: ops).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }

    /// Mean submission-queue depth over all operations (0 when idle;
    /// 1.0 = strictly serial callers, >1 = overlapped I/O).
    #[must_use]
    pub fn mean_queue_depth(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 {
            return 0.0;
        }
        self.queue_depth_sum as f64 / total as f64
    }

    /// Average write amplification relative to `logical_bytes` of intent.
    #[must_use]
    pub fn write_amplification(&self, logical_bytes: u64) -> f64 {
        if logical_bytes == 0 {
            return 0.0;
        }
        self.bytes_written as f64 / logical_bytes as f64
    }
}

stats_family! {
    /// O(1) summary of SSD erase-block wear, derived from running
    /// aggregates in the device's `IoStats` (never from cloning the raw
    /// per-block map). A low [`WearStats::cv`] means writes are spread
    /// evenly — MaSM's sequential materialize/migrate pattern should
    /// keep it near zero, while in-place update schemes hammer hot
    /// blocks.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct WearStats: to_json {
        /// Highest write count over any single erase block (unit: ops).
        pub max_writes_per_block: u64,
        /// Mean write count over the touched blocks (unit: ops).
        pub mean_writes_per_block: f64,
        /// Distinct erase blocks ever written (unit: ops).
        pub blocks_touched: u64,
        /// Coefficient of variation (σ/µ) of per-block write counts;
        /// dimensionless, 0 = perfectly even wear.
        pub cv: f64,
    }
}

impl WearStats {
    /// Combine the wear summaries of two *disjoint* block populations
    /// (per-shard SSDs). Exact, via the method of moments: each side's
    /// `(mean, cv)` reconstructs `E[w]` and `E[w²]`, which are weighted
    /// by block count and recombined — the same numbers a single
    /// device covering both populations would report.
    #[must_use]
    pub fn merge(&self, other: &WearStats) -> WearStats {
        let n = self.blocks_touched + other.blocks_touched;
        if n == 0 {
            return WearStats::default();
        }
        let (n1, n2) = (self.blocks_touched as f64, other.blocks_touched as f64);
        let mean = (n1 * self.mean_writes_per_block + n2 * other.mean_writes_per_block) / n as f64;
        let sq = |s: &WearStats| {
            let m = s.mean_writes_per_block;
            (s.cv * m).powi(2) + m * m
        };
        let e2 = (n1 * sq(self) + n2 * sq(other)) / n as f64;
        let var = (e2 - mean * mean).max(0.0);
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        WearStats {
            max_writes_per_block: self.max_writes_per_block.max(other.max_writes_per_block),
            mean_writes_per_block: mean,
            blocks_touched: n,
            cv,
        }
    }
}

impl StatMerge for WearStats {
    fn merged(self, other: Self) -> Self {
        self.merge(&other)
    }
}

stats_family! {
    /// Counters and byte gauges of a two-tier block cache (the
    /// `masm-blockrun` block cache). Counters subtract in a delta; the
    /// resident byte gauges are levels carried from the newer snapshot.
    /// Across shards every field adds: the caches count disjoint event
    /// streams and hold disjoint resident sets.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStatsSnapshot: delta, merge, to_json, from_json {
        /// Lookups served from tier 1 (decoded blocks).
        pub hits: u64 = sum,
        /// Lookups that went to the device.
        pub misses: u64 = sum,
        /// Entries inserted into tier 1.
        pub insertions: u64 = sum,
        /// Entries evicted from tier 1.
        pub evictions: u64 = sum,
        /// Probation → protected promotions (a block's second reference
        /// under the SLRU policy).
        pub promotions: u64 = sum,
        /// Protected → probation demotions (the protected segment ran over
        /// its fraction of capacity).
        pub demotions: u64 = sum,
        /// Oversized blocks refused admission (larger than a whole shard).
        pub rejected: u64 = sum,
        /// Lookups served from tier 2 — the compressed victim tier — at the
        /// cost of one codec decode and **zero** device reads. Each hit
        /// promotes the block back into tier 1, so this doubles as the
        /// decode-on-promote counter.
        pub tier2_hits: u64 = sum,
        /// Tier-1 victims whose stored (post-codec) bytes were demoted into
        /// tier 2 instead of being dropped.
        pub tier2_insertions: u64 = sum,
        /// Entries aged out of tier 2.
        pub tier2_evictions: u64 = sum,
        /// Resident bytes charged to tier 1 — decoded data blocks plus,
        /// when the victim tier is enabled, their retained stored copies
        /// (always `probation_bytes + protected_bytes`).
        pub data_bytes: u64 = level,
        /// Bytes charged to the probation segment (decoded blocks plus any
        /// retained stored copies, like `data_bytes`).
        pub probation_bytes: u64 = level,
        /// Bytes charged to the protected segment (decoded blocks plus any
        /// retained stored copies, like `data_bytes`).
        pub protected_bytes: u64 = level,
        /// Pinned metadata bytes (zone maps, bloom filters) accounted to
        /// the cache but never evicted; kept separate so a one-shot sweep's
        /// pressure on the data population is visible on its own.
        pub meta_bytes: u64 = level,
        /// On-disk (post-codec, compressed) bytes of the resident tier-1
        /// blocks. `data_bytes` is what the cache *spends* in memory;
        /// `disk_bytes` is what the same blocks cost on the SSD — the gap
        /// is the codec's memory amplification.
        pub disk_bytes: u64 = level,
        /// Stored (post-codec) bytes resident in tier 2 — the victim tier
        /// charges compressed size, which is how it multiplies effective
        /// capacity by the codec's compression ratio.
        pub tier2_bytes: u64 = level [self, hit_rate],
    }
}

impl CacheStatsSnapshot {
    /// Fraction of lookups served without a device read — from either
    /// tier (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            return 0.0;
        }
        self.no_device_hits() as f64 / total as f64
    }

    /// Total lookups against the cache, however they were served:
    /// tier-1 hits + tier-2 hits + misses (unit: ops).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.tier2_hits + self.misses
    }

    /// Blocks served without touching the device: tier-1 hits plus
    /// tier-2 (decode-only) hits (unit: ops).
    #[must_use]
    pub fn no_device_hits(&self) -> u64 {
        self.hits + self.tier2_hits
    }
}

stats_family! {
    /// Per-run (and cumulative) compression accounting for codec-bearing
    /// block runs: raw (decoded, flat) versus stored (on-disk, post-codec)
    /// data-block bytes, plus how many blocks each codec won. The
    /// codec-count fields name the stable codec ids of `masm-codec`
    /// (0 = identity, 1 = delta, 2 = lz); this crate stays below the codec
    /// crate in the dependency order, so the mapping is by convention.
    /// Cumulative totals fold runs together with
    /// [`CompressionReport::merge`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CompressionReport: delta, merge, to_json, from_json {
        /// Runs accounted.
        pub runs: u64 = sum,
        /// Data blocks accounted.
        pub blocks: u64 = sum,
        /// Raw (flat, pre-codec) bytes of those blocks.
        pub raw_bytes: u64 = sum,
        /// Stored (on-disk, post-codec) bytes of those blocks.
        pub stored_bytes: u64 = sum,
        /// Blocks stored uncompressed (codec id 0).
        pub blocks_identity: u64 = sum,
        /// Blocks stored delta+varint-coded (codec id 1).
        pub blocks_delta: u64 = sum,
        /// Blocks stored LZ-coded (codec id 2).
        pub blocks_lz: u64 = sum,
        /// Trial encodes the adaptive selector actually ran (writer-side
        /// CPU; zero for runs recovered from disk, whose writers are gone).
        pub codec_trials: u64 = sum,
        /// Trial encodes the sample-based selector *avoided* relative to
        /// the trial-everything-per-block baseline — the selector's CPU
        /// saving, reported by `fig13_cpu_cost`.
        pub codec_trials_saved: u64 = sum,
        /// LZ trials skipped because the byte-entropy probe classified the
        /// payload as incompressible (a subset of `codec_trials_saved`).
        pub lz_probes_skipped: u64 = sum [self, ratio],
    }
}

impl CompressionReport {
    /// Stored/raw byte ratio (1.0 = no compression, smaller is better;
    /// 1.0 when nothing was accounted).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 1.0;
        }
        self.stored_bytes as f64 / self.raw_bytes as f64
    }

    /// Fraction of raw bytes the codecs saved (`1 − ratio`, floored at
    /// zero for pathological growth).
    #[must_use]
    pub fn savings(&self) -> f64 {
        (1.0 - self.ratio()).max(0.0)
    }
}

stats_family! {
    /// Outcome of one planned run merge (compaction or 2-pass merge): how
    /// much of the work was *moved* (whole blocks relinked verbatim, CRC
    /// checked but never decoded) versus *merged* (decoded and folded
    /// through the k-way merge). Cumulative totals fold reports together
    /// with [`MergeReport::merge`].
    ///
    /// The headline property: on fully disjoint inputs `bytes_decoded == 0`
    /// — compaction cost is proportional to overlap, not input size.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MergeReport: delta, merge, to_json, from_json {
        /// Input runs consumed by the merge.
        pub inputs: usize = sum,
        /// Merge fan-in actually observed (inputs contributing blocks);
        /// also the prefetch depth the executor keeps in flight. A
        /// high-water mark.
        pub fan_in: usize = peak,
        /// Data blocks relinked verbatim, without decoding.
        pub blocks_moved: u64 = sum,
        /// Data blocks decoded and fed through the k-way merge.
        pub blocks_merged: u64 = sum,
        /// Encoded bytes of the moved blocks.
        pub bytes_moved: u64 = sum,
        /// Encoded bytes that had to be decoded (the overlap cost).
        pub bytes_decoded: u64 = sum,
        /// Entries written to the output run.
        pub entries_out: u64 = sum,
        /// Peak number of update records resident in the merge pipeline at
        /// once: the k-way heads, the pending fold record, and the output
        /// builder's open block. Streaming compaction (§3.3) bounds this by
        /// `fan_in + block_entries`, independent of `entries_out`; a
        /// materializing merge would make it `entries_out`.
        pub peak_merge_entries: u64 = peak,
    }
}

impl MergeReport {
    /// Fraction of processed bytes that avoided decoding (1.0 = pure
    /// move, 0.0 = full decode; 0.0 when nothing was processed).
    #[must_use]
    pub fn move_ratio(&self) -> f64 {
        let total = self.bytes_moved + self.bytes_decoded;
        if total == 0 {
            return 0.0;
        }
        self.bytes_moved as f64 / total as f64
    }
}

stats_family! {
    /// Occupancy of the in-memory update buffer at snapshot time. Every
    /// field adds across shards: each shard owns an independent buffer.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct BufferStats: merge, to_json {
        /// Buffered update records (unit: ops).
        pub updates: u64 = level,
        /// Encoded bytes of the buffered updates (unit: bytes).
        pub bytes: u64 = level,
        /// Current buffer capacity, including stolen query pages
        /// (unit: bytes).
        pub capacity_bytes: u64 = level,
    }
}

stats_family! {
    /// The materialized-run set at snapshot time. Every field adds
    /// across shards: they hold disjoint runs on disjoint flash slices.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RunSetStats: merge, to_json {
        /// Live materialized runs (unit: ops).
        pub count: u64 = level,
        /// SSD bytes occupied by live runs (unit: bytes).
        pub cached_bytes: u64 = level,
        /// Configured SSD update-cache capacity (unit: bytes).
        pub ssd_capacity_bytes: u64 = level,
    }
}

stats_family! {
    /// Background worker-pool occupancy and lifetime counters at snapshot
    /// time. All zero for an inline engine (`background_workers = 0`).
    /// The pool gauges take the max across shards: the shards of one
    /// engine *share* one pool, so each reports the same pool-wide level.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WorkerStats: delta, merge, to_json, from_json {
        /// Configured background worker threads (unit: ops).
        pub threads: u64 = peak,
        /// Jobs waiting in the backlog queue right now (gauge; unit: ops).
        pub queue_depth: u64 = peak,
        /// Bytes of sealed update batches awaiting a background flush
        /// (gauge; unit: bytes). This is what the ingest backpressure gate
        /// bounds.
        pub backlog_bytes: u64 = peak,
        /// Jobs completed since construction (unit: ops).
        pub jobs_completed: u64 = sum,
        /// Jobs retried after a transient failure (unit: ops).
        pub jobs_retried: u64 = sum,
        /// Jobs abandoned after exhausting retries (unit: ops).
        pub jobs_failed: u64 = sum,
        /// Background flushes materialized (unit: ops).
        pub flushes: u64 = sum,
        /// Background merges completed (unit: ops).
        pub merges: u64 = sum,
        /// Background migrations completed (unit: ops).
        pub migrations: u64 = sum,
        /// Timestamps issued since the oldest still-active query pinned its
        /// snapshot (gauge): how far the engine's epoch has advanced past
        /// its oldest reader. 0 when no query is active; the worst shard
        /// wins a merge.
        pub epoch_lag: u64 = peak,
    }
}

stats_family! {
    /// Latency histograms for every public engine operation, recorded at
    /// the hot paths by [`crate::Timer`] guards. All samples are
    /// **virtual-ns**. Shards merge bucket-wise
    /// ([`HistogramSnapshot::merge`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OpLatencies: delta, merge, to_json {
        /// One `apply_update` call (includes any flush it triggered).
        pub ingest: HistogramSnapshot = sum,
        /// One point lookup (`get`).
        pub get: HistogramSnapshot = sum,
        /// One record yielded by a merged range scan (`MergeScan::next`).
        pub scan_next: HistogramSnapshot = sum,
        /// One buffer flush that materialized a run.
        pub flush: HistogramSnapshot = sum,
        /// One full or partial migration.
        pub migrate: HistogramSnapshot = sum,
        /// One block obtained by a run scan (cache hit ≈ 0, miss = device
        /// wait), recorded inside `masm-blockrun`.
        pub block_fetch: HistogramSnapshot = sum,
    }
}

impl OpLatencies {
    /// Visit each histogram with its stable family name.
    pub fn for_each(&self, mut f: impl FnMut(&'static str, &HistogramSnapshot)) {
        f("ingest", &self.ingest);
        f("get", &self.get);
        f("scan_next", &self.scan_next);
        f("flush", &self.flush);
        f("migrate", &self.migrate);
        f("block_fetch", &self.block_fetch);
    }
}

stats_family! {
    /// The unified engine snapshot. All counter fields are cumulative since
    /// engine construction; gauges (buffer, runs, cache byte levels) are
    /// levels at `at_ns`.
    ///
    /// `to_json` nests every family under a stable key (`ingested`,
    /// `buffer`, `runs`, `cache`, `merge`, `compression`, `ssd`,
    /// `ssd_wear`, `wal`, `workers`, and `ops` — six latency
    /// histograms) and lifts `random_writes` to the top level so the
    /// paper's zero-random-write invariant is greppable in every NDJSON
    /// row.
    ///
    /// `merge` combines two shards' snapshots into the global engine
    /// view: the snapshot a single engine covering both shards' work
    /// would have produced. It is associative and commutative, and
    /// commutes with [`EngineStats::delta`] when all snapshots are taken
    /// on one shared clock (`at_ns` equal across shards at each sampling
    /// instant) — the property the aggregation proptest pins, so summing
    /// per-shard deltas equals the delta of summed snapshots.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct EngineStats: merge, to_json {
        /// Virtual time of the snapshot (unit: virtual-ns).
        pub at_ns: u64 = peak [self, random_writes, ingested],
        /// Updates ingested since construction (unit: ops).
        pub ingested_updates: u64 = sum [],
        /// Logical bytes of ingested updates (unit: bytes).
        pub ingested_bytes: u64 = sum [],
        /// In-memory update-buffer occupancy.
        pub buffer: BufferStats = sum,
        /// Materialized-run set occupancy.
        pub runs: RunSetStats = sum,
        /// Block-cache counters and byte gauges.
        pub cache: CacheStatsSnapshot = sum,
        /// Cumulative planned-merge totals.
        pub merge: MergeReport = sum,
        /// Cumulative codec accounting.
        pub compression: CompressionReport = sum,
        /// Update-cache SSD device I/O.
        pub ssd: IoStatsSnapshot = sum,
        /// SSD erase-block wear summary (no raw histogram cloning).
        pub ssd_wear: WearStats = sum,
        /// WAL device I/O.
        pub wal: IoStatsSnapshot = sum,
        /// Background worker-pool occupancy and counters.
        pub workers: WorkerStats = sum,
        /// Per-operation latency histograms (virtual-ns).
        pub ops: OpLatencies = sum,
    }
}

stats_family! {
    /// The `ingested` object of [`EngineStats::to_json`].
    struct Ingested: to_json {
        pub updates: u64,
        pub bytes: u64,
    }
}

impl EngineStats {
    /// SSD random writes so far — MaSM design goal 2 says zero.
    #[must_use]
    pub fn random_writes(&self) -> u64 {
        self.ssd.random_writes
    }

    fn ingested(&self) -> Ingested {
        Ingested {
            updates: self.ingested_updates,
            bytes: self.ingested_bytes,
        }
    }

    /// Monotonic difference `self − earlier`: the counter families'
    /// deltas. Byte gauges (buffer, runs, wear) are *not* carried into
    /// the delta — read them off the newer snapshot.
    ///
    /// Panics (in debug builds) if `earlier` is actually newer: every
    /// cumulative counter must be monotone non-decreasing between two
    /// snapshots of the same engine.
    #[must_use]
    pub fn delta(&self, earlier: &EngineStats) -> StatsDelta {
        let ops = self.ops.delta(&earlier.ops);
        let op = |h: HistogramSnapshot| OpCountDelta {
            count: h.count,
            sum_ns: h.sum,
        };
        StatsDelta {
            elapsed_ns: self.at_ns - earlier.at_ns,
            ingested_updates: self.ingested_updates - earlier.ingested_updates,
            ingested_bytes: self.ingested_bytes - earlier.ingested_bytes,
            cache: self.cache.delta(&earlier.cache),
            merge: self.merge.delta(&earlier.merge),
            compression: self.compression.delta(&earlier.compression),
            ssd: self.ssd.delta(&earlier.ssd),
            wal: self.wal.delta(&earlier.wal),
            workers: self.workers.delta(&earlier.workers),
            ops: OpCountDeltas {
                ingest: op(ops.ingest),
                get: op(ops.get),
                scan_next: op(ops.scan_next),
                flush: op(ops.flush),
                migrate: op(ops.migrate),
                block_fetch: op(ops.block_fetch),
            },
        }
    }

    /// Internal-consistency checks shared by tests and benches. Returns
    /// human-readable violations; empty means the snapshot is coherent.
    #[must_use]
    pub fn invariant_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.cache.data_bytes != self.cache.probation_bytes + self.cache.protected_bytes {
            v.push(format!(
                "cache.data_bytes {} != probation {} + protected {}",
                self.cache.data_bytes, self.cache.probation_bytes, self.cache.protected_bytes
            ));
        }
        self.ops.for_each(|name, h| {
            if h.buckets.iter().sum::<u64>() != h.count {
                v.push(format!("ops.{name}: bucket sum != count {}", h.count));
            }
            if h.count > 0 && h.p50() > h.max {
                v.push(format!("ops.{name}: p50 {} > max {}", h.p50(), h.max));
            }
        });
        if self.buffer.bytes > 0 && self.buffer.updates == 0 {
            v.push("buffer.bytes > 0 with zero buffered updates".into());
        }
        v
    }
}

stats_family! {
    /// Count/sum delta of one latency family between two snapshots.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OpCountDelta: merge, to_json, from_json {
        /// Operations in the interval (unit: ops).
        pub count: u64 = sum,
        /// Total latency in the interval (unit: virtual-ns).
        pub sum_ns: u64 = sum,
    }
}

stats_family! {
    /// Per-operation count/sum deltas (fields mirror [`OpLatencies`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OpCountDeltas: merge, to_json, from_json {
        /// `apply_update` calls.
        pub ingest: OpCountDelta = sum,
        /// Point lookups.
        pub get: OpCountDelta = sum,
        /// Scan records yielded.
        pub scan_next: OpCountDelta = sum,
        /// Buffer flushes.
        pub flush: OpCountDelta = sum,
        /// Migrations.
        pub migrate: OpCountDelta = sum,
        /// Run-scan block fetches.
        pub block_fetch: OpCountDelta = sum,
    }
}

stats_family! {
    /// The monotonic difference between two [`EngineStats`] snapshots of
    /// one engine: every field is "what happened in the interval", so rates
    /// (e.g. [`StatsDelta::updates_per_sec`]) are first-class. Serializes
    /// to one JSON object and parses back exactly
    /// ([`StatsDelta::from_json`]).
    ///
    /// `merge` combines per-shard interval deltas with the same rules as
    /// [`EngineStats::merge`]. `elapsed_ns` takes the max — per-shard
    /// snapshots of one engine are cut on one shared clock, so the
    /// intervals coincide and max (rather than sum) keeps rates honest.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StatsDelta: merge, to_json, from_json {
        /// Interval length (unit: virtual-ns).
        pub elapsed_ns: u64 = peak,
        /// Updates ingested in the interval (unit: ops).
        pub ingested_updates: u64 = sum,
        /// Logical update bytes ingested (unit: bytes).
        pub ingested_bytes: u64 = sum [self, updates_per_sec],
        /// Cache counter deltas (byte gauges carried from the newer
        /// snapshot).
        pub cache: CacheStatsSnapshot = sum,
        /// Merge-counter deltas (`fan_in` carried, it is a high-water mark).
        pub merge: MergeReport = sum,
        /// Compression-counter deltas.
        pub compression: CompressionReport = sum,
        /// SSD I/O deltas (wear fields carried, they are levels).
        pub ssd: IoStatsSnapshot = sum,
        /// WAL I/O deltas.
        pub wal: IoStatsSnapshot = sum,
        /// Worker-pool counter deltas (gauges carried).
        pub workers: WorkerStats = sum,
        /// Per-operation count/latency-sum deltas.
        pub ops: OpCountDeltas = sum,
    }
}

impl StatsDelta {
    /// Update ingest rate over the interval (unit: ops per *virtual*
    /// second; 0 when the interval is empty).
    #[must_use]
    pub fn updates_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.ingested_updates as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// SSD write bandwidth over the interval (unit: bytes per virtual
    /// second).
    #[must_use]
    pub fn ssd_write_bytes_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.ssd.bytes_written as f64 * 1e9 / self.elapsed_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::metrics::Histogram;

    fn sample_stats(scale: u64) -> EngineStats {
        let h = Histogram::new();
        for i in 0..scale {
            h.record(i * 100);
        }
        let hist = h.snapshot();
        EngineStats {
            at_ns: 1_000_000 * scale,
            ingested_updates: 10 * scale,
            ingested_bytes: 1000 * scale,
            buffer: BufferStats {
                updates: 3,
                bytes: 300,
                capacity_bytes: 4096,
            },
            runs: RunSetStats {
                count: 2,
                cached_bytes: 8192,
                ssd_capacity_bytes: 1 << 20,
            },
            cache: CacheStatsSnapshot {
                hits: 5 * scale,
                misses: scale,
                data_bytes: 128,
                probation_bytes: 100,
                protected_bytes: 28,
                ..CacheStatsSnapshot::default()
            },
            merge: MergeReport {
                inputs: 2,
                fan_in: 2,
                blocks_moved: scale,
                bytes_moved: 100 * scale,
                ..MergeReport::default()
            },
            compression: CompressionReport {
                runs: scale,
                blocks: 4 * scale,
                raw_bytes: 4000 * scale,
                stored_bytes: 1500 * scale,
                ..CompressionReport::default()
            },
            ssd: IoStatsSnapshot {
                write_ops: 7 * scale,
                bytes_written: 7000 * scale,
                sequential_ops: 7 * scale,
                busy_ns: 10_000 * scale,
                ..IoStatsSnapshot::default()
            },
            ssd_wear: WearStats {
                max_writes_per_block: 3,
                mean_writes_per_block: 1.5,
                blocks_touched: 4,
                cv: 0.3,
            },
            wal: IoStatsSnapshot {
                write_ops: 10 * scale,
                bytes_written: 400 * scale,
                ..IoStatsSnapshot::default()
            },
            workers: WorkerStats {
                threads: 2,
                jobs_completed: 3 * scale,
                flushes: 2 * scale,
                merges: scale,
                ..WorkerStats::default()
            },
            ops: OpLatencies {
                ingest: hist,
                get: hist,
                scan_next: hist,
                flush: hist,
                migrate: hist,
                block_fetch: hist,
            },
        }
    }

    #[test]
    fn engine_stats_json_has_all_families() {
        let s = sample_stats(2);
        let v = parse(&s.to_json()).expect("EngineStats JSON parses");
        for family in [
            "ingested",
            "buffer",
            "runs",
            "cache",
            "merge",
            "compression",
            "ssd",
            "ssd_wear",
            "wal",
            "workers",
            "ops",
        ] {
            assert!(v.get(family).is_some(), "missing family {family}");
        }
        assert_eq!(
            v.get_u64("random_writes"),
            Some(0),
            "top-level invariant field"
        );
        let ops = v.get("ops").unwrap();
        for op in [
            "ingest",
            "get",
            "scan_next",
            "flush",
            "migrate",
            "block_fetch",
        ] {
            let h = ops.get(op).unwrap_or_else(|| panic!("missing op {op}"));
            assert!(h.get_u64("p99").is_some());
        }
    }

    #[test]
    fn invariants_hold_on_coherent_snapshot() {
        assert!(sample_stats(3).invariant_violations().is_empty());
        let mut broken = sample_stats(3);
        broken.cache.data_bytes += 1;
        assert_eq!(broken.invariant_violations().len(), 1);
    }

    #[test]
    fn delta_is_monotone_and_rates_work() {
        let a = sample_stats(1);
        let b = sample_stats(3);
        let d = b.delta(&a);
        assert_eq!(d.ingested_updates, 20);
        assert_eq!(d.elapsed_ns, 2_000_000);
        assert!((d.updates_per_sec() - 10_000.0).abs() < 1e-6);
        assert_eq!(d.ops.ingest.count, 2);
        assert!(d.ssd_write_bytes_per_sec() > 0.0);
    }

    /// The NDJSON layout benches and CI greps depend on, byte for byte.
    const GOLDEN_ENGINE_JSON: &str = r#"{"at_ns":2000000,"random_writes":0,"ingested":{"updates":20,"bytes":2000},"buffer":{"updates":3,"bytes":300,"capacity_bytes":4096},"runs":{"count":2,"cached_bytes":8192,"ssd_capacity_bytes":1048576},"cache":{"hits":10,"misses":2,"insertions":0,"evictions":0,"promotions":0,"demotions":0,"rejected":0,"tier2_hits":0,"tier2_insertions":0,"tier2_evictions":0,"data_bytes":128,"probation_bytes":100,"protected_bytes":28,"meta_bytes":0,"disk_bytes":0,"tier2_bytes":0,"hit_rate":0.833333},"merge":{"inputs":2,"fan_in":2,"blocks_moved":2,"blocks_merged":0,"bytes_moved":200,"bytes_decoded":0,"entries_out":0,"peak_merge_entries":0},"compression":{"runs":2,"blocks":8,"raw_bytes":8000,"stored_bytes":3000,"blocks_identity":0,"blocks_delta":0,"blocks_lz":0,"codec_trials":0,"codec_trials_saved":0,"lz_probes_skipped":0,"ratio":0.375000},"ssd":{"read_ops":0,"write_ops":14,"bytes_read":0,"bytes_written":14000,"sequential_ops":14,"random_ops":0,"random_writes":0,"busy_ns":20000,"max_queue_depth":0,"queue_depth_sum":0,"max_block_wear":0,"touched_blocks":0},"ssd_wear":{"max_writes_per_block":3,"mean_writes_per_block":1.500000,"blocks_touched":4,"cv":0.300000},"wal":{"read_ops":0,"write_ops":20,"bytes_read":0,"bytes_written":800,"sequential_ops":0,"random_ops":0,"random_writes":0,"busy_ns":0,"max_queue_depth":0,"queue_depth_sum":0,"max_block_wear":0,"touched_blocks":0},"workers":{"threads":2,"queue_depth":0,"backlog_bytes":0,"jobs_completed":6,"jobs_retried":0,"jobs_failed":0,"flushes":4,"merges":2,"migrations":0,"epoch_lag":0},"ops":{"ingest":{"count":2,"sum":100,"max":100,"p50":0,"p95":100,"p99":100,"mean":50.000000},"get":{"count":2,"sum":100,"max":100,"p50":0,"p95":100,"p99":100,"mean":50.000000},"scan_next":{"count":2,"sum":100,"max":100,"p50":0,"p95":100,"p99":100,"mean":50.000000},"flush":{"count":2,"sum":100,"max":100,"p50":0,"p95":100,"p99":100,"mean":50.000000},"migrate":{"count":2,"sum":100,"max":100,"p50":0,"p95":100,"p99":100,"mean":50.000000},"block_fetch":{"count":2,"sum":100,"max":100,"p50":0,"p95":100,"p99":100,"mean":50.000000}}}"#;

    #[test]
    fn engine_stats_json_matches_golden_output() {
        assert_eq!(sample_stats(2).to_json(), GOLDEN_ENGINE_JSON);
    }

    #[test]
    fn stats_delta_json_matches_golden_output() {
        let expected = r#"{"elapsed_ns":3000000,"ingested_updates":30,"ingested_bytes":3000,"updates_per_sec":10000.000000,"cache":{"hits":15,"misses":3,"insertions":0,"evictions":0,"promotions":0,"demotions":0,"rejected":0,"tier2_hits":0,"tier2_insertions":0,"tier2_evictions":0,"data_bytes":128,"probation_bytes":100,"protected_bytes":28,"meta_bytes":0,"disk_bytes":0,"tier2_bytes":0,"hit_rate":0.833333},"merge":{"inputs":0,"fan_in":2,"blocks_moved":3,"blocks_merged":0,"bytes_moved":300,"bytes_decoded":0,"entries_out":0,"peak_merge_entries":0},"compression":{"runs":3,"blocks":12,"raw_bytes":12000,"stored_bytes":4500,"blocks_identity":0,"blocks_delta":0,"blocks_lz":0,"codec_trials":0,"codec_trials_saved":0,"lz_probes_skipped":0,"ratio":0.375000},"ssd":{"read_ops":0,"write_ops":21,"bytes_read":0,"bytes_written":21000,"sequential_ops":21,"random_ops":0,"random_writes":0,"busy_ns":30000,"max_queue_depth":0,"queue_depth_sum":0,"max_block_wear":0,"touched_blocks":0},"wal":{"read_ops":0,"write_ops":30,"bytes_read":0,"bytes_written":1200,"sequential_ops":0,"random_ops":0,"random_writes":0,"busy_ns":0,"max_queue_depth":0,"queue_depth_sum":0,"max_block_wear":0,"touched_blocks":0},"workers":{"threads":2,"queue_depth":0,"backlog_bytes":0,"jobs_completed":9,"jobs_retried":0,"jobs_failed":0,"flushes":6,"merges":3,"migrations":0,"epoch_lag":0},"ops":{"ingest":{"count":3,"sum_ns":600},"get":{"count":3,"sum_ns":600},"scan_next":{"count":3,"sum_ns":600},"flush":{"count":3,"sum_ns":600},"migrate":{"count":3,"sum_ns":600},"block_fetch":{"count":3,"sum_ns":600}}}"#;
        assert_eq!(sample_stats(4).delta(&sample_stats(1)).to_json(), expected);
    }

    #[test]
    fn stats_delta_roundtrips_through_json() {
        let d = sample_stats(4).delta(&sample_stats(1));
        let parsed = parse(&d.to_json()).expect("delta JSON parses");
        let back = StatsDelta::from_json(&parsed).expect("delta reconstructs");
        assert_eq!(d, back);
        // Default (all-zero) deltas round-trip too.
        let zero = StatsDelta::default();
        let back = StatsDelta::from_json(&parse(&zero.to_json()).unwrap()).unwrap();
        assert_eq!(zero, back);
    }

    #[test]
    fn cache_stats_roundtrip() {
        let snap = CacheStatsSnapshot {
            hits: 2,
            misses: 1,
            insertions: 1,
            evictions: 1,
            data_bytes: 64,
            ..CacheStatsSnapshot::default()
        };
        assert!((snap.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        let later = CacheStatsSnapshot {
            misses: 2,
            data_bytes: 32,
            ..snap
        };
        let d = later.delta(&snap);
        assert_eq!((d.hits, d.misses), (0, 1), "counters subtract");
        assert_eq!(d.data_bytes, 32, "byte gauges carry the newer level");
        assert_eq!(
            snap.merge(&later).data_bytes,
            96,
            "levels add across shards"
        );
        let back = CacheStatsSnapshot::from_json(&parse(&later.to_json()).unwrap());
        assert_eq!(back, Some(later));
        assert_eq!(CacheStatsSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn compression_report_absorb_ratio_and_savings() {
        let mut total = CompressionReport::default();
        assert_eq!(total.ratio(), 1.0, "idle report is neutral");
        assert_eq!(total.savings(), 0.0);
        total = total.merge(&CompressionReport {
            runs: 1,
            blocks: 4,
            raw_bytes: 1000,
            stored_bytes: 600,
            blocks_identity: 1,
            blocks_delta: 2,
            blocks_lz: 1,
            codec_trials: 4,
            codec_trials_saved: 4,
            lz_probes_skipped: 1,
        });
        total = total.merge(&CompressionReport {
            runs: 1,
            blocks: 2,
            raw_bytes: 1000,
            stored_bytes: 400,
            blocks_lz: 2,
            ..CompressionReport::default()
        });
        assert_eq!(total.runs, 2);
        assert_eq!(total.blocks, 6);
        assert_eq!(total.blocks_lz, 3);
        assert_eq!(total.codec_trials, 4);
        assert_eq!(total.codec_trials_saved, 4);
        assert_eq!(total.lz_probes_skipped, 1);
        assert!((total.ratio() - 0.5).abs() < 1e-9);
        assert!((total.savings() - 0.5).abs() < 1e-9);
        let grown = CompressionReport {
            raw_bytes: 100,
            stored_bytes: 120,
            ..CompressionReport::default()
        };
        assert_eq!(grown.savings(), 0.0, "growth floors at zero savings");
    }

    #[test]
    fn merge_report_absorb_and_ratio() {
        let mut total = MergeReport::default();
        assert_eq!(total.move_ratio(), 0.0);
        total = total.merge(&MergeReport {
            inputs: 2,
            fan_in: 2,
            blocks_moved: 3,
            blocks_merged: 1,
            bytes_moved: 300,
            bytes_decoded: 100,
            entries_out: 40,
            peak_merge_entries: 7,
        });
        total = total.merge(&MergeReport {
            inputs: 3,
            fan_in: 3,
            blocks_moved: 1,
            blocks_merged: 0,
            bytes_moved: 100,
            bytes_decoded: 0,
            entries_out: 10,
            peak_merge_entries: 3,
        });
        assert_eq!(total.inputs, 5);
        assert_eq!(total.fan_in, 3);
        assert_eq!(total.peak_merge_entries, 7);
        assert_eq!(total.blocks_moved, 4);
        assert_eq!(total.entries_out, 50);
        assert!((total.move_ratio() - 0.8).abs() < 1e-9);
    }
}
