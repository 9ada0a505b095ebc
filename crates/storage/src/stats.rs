//! Per-device I/O statistics and SSD wear accounting.
//!
//! [`IoStats`] is the live accumulator of a [`crate::sim::SimDevice`].
//! The snapshot families it produces — and the cache, merge and
//! compression reports reported next to device I/O — are declared in
//! `masm-telemetry` and re-exported here at their historical paths.

use std::collections::HashMap;

pub use masm_telemetry::{
    CacheStatsSnapshot, CompressionReport, IoStatsSnapshot, MergeReport, WearStats,
};

/// Mutable statistics accumulated by a [`crate::sim::SimDevice`].
#[derive(Debug, Default, Clone)]
pub struct IoStats {
    /// Number of read operations (unit: ops).
    pub read_ops: u64,
    /// Number of write operations (unit: ops).
    pub write_ops: u64,
    /// Bytes read (unit: bytes).
    pub bytes_read: u64,
    /// Bytes written (unit: bytes).
    pub bytes_written: u64,
    /// Read/write operations that continued the previous access
    /// (no seek / setup penalty; unit: ops).
    pub sequential_ops: u64,
    /// Operations that paid the random-access setup cost (unit: ops).
    pub random_ops: u64,
    /// Random *write* operations specifically (MaSM design goal 2 is that
    /// this stays zero for the update-cache SSD; unit: ops).
    pub random_writes: u64,
    /// Total virtual nanoseconds the device was busy (unit: virtual-ns).
    pub busy_ns: u64,
    /// Deepest submission queue observed: number of requests in flight
    /// (still occupying the device) at any single submission instant,
    /// including the new request (unit: ops). 1 = strictly serial
    /// callers; >1 means some actor overlapped its I/O.
    pub max_queue_depth: u64,
    /// Σ of the observed queue depth over all operations (unit: ops);
    /// divide by `total_ops` for the mean depth.
    pub queue_depth_sum: u64,
    /// Writes per erase block, for wear/endurance estimates. Private:
    /// readers use the O(1) [`IoStats::wear_stats`] summary, maintained
    /// incrementally below, instead of walking this map on every stats
    /// read.
    wear: HashMap<u64, u64>,
    /// Running Σ of per-block write counts (unit: ops).
    wear_sum: u64,
    /// Running Σ of squared per-block write counts (for the coefficient
    /// of variation, without touching the map at read time).
    wear_sq_sum: u64,
    /// Highest write count over any single erase block (unit: ops).
    wear_max: u64,
}

impl IoStats {
    /// Record one access.
    pub(crate) fn record(
        &mut self,
        kind: crate::device::AccessKind,
        len: u64,
        sequential: bool,
        duration: u64,
        offset: u64,
        erase_block: u64,
    ) {
        match kind {
            crate::device::AccessKind::Read => {
                self.read_ops += 1;
                self.bytes_read += len;
            }
            crate::device::AccessKind::Write => {
                self.write_ops += 1;
                self.bytes_written += len;
                if let Some(first) = offset.checked_div(erase_block) {
                    let last = (offset + len.max(1) - 1) / erase_block;
                    for blk in first..=last {
                        let w = self.wear.entry(blk).or_insert(0);
                        *w += 1;
                        // Keep the O(1) summary in lock step: one block
                        // going w-1 → w adds 1 to Σw and (2w-1) to Σw².
                        self.wear_sum += 1;
                        self.wear_sq_sum += 2 * *w - 1;
                        self.wear_max = self.wear_max.max(*w);
                    }
                }
                if !sequential {
                    self.random_writes += 1;
                }
            }
        }
        if sequential {
            self.sequential_ops += 1;
        } else {
            self.random_ops += 1;
        }
        self.busy_ns += duration;
    }

    /// Record the submission-queue depth observed by one access.
    pub(crate) fn record_queue_depth(&mut self, depth: u64) {
        self.max_queue_depth = self.max_queue_depth.max(depth);
        self.queue_depth_sum += depth;
    }

    /// Immutable snapshot for reporting. O(1): the wear fields come
    /// from the running summary, not a map walk.
    #[must_use]
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_ops: self.read_ops,
            write_ops: self.write_ops,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            sequential_ops: self.sequential_ops,
            random_ops: self.random_ops,
            random_writes: self.random_writes,
            busy_ns: self.busy_ns,
            max_queue_depth: self.max_queue_depth,
            queue_depth_sum: self.queue_depth_sum,
            max_block_wear: self.wear_max,
            touched_blocks: self.wear.len() as u64,
        }
    }

    /// O(1) wear/endurance summary, computed from the incrementally
    /// maintained aggregates — the raw per-block histogram is never
    /// cloned or iterated on the stats read path.
    #[must_use]
    pub fn wear_stats(&self) -> WearStats {
        let n = self.wear.len() as u64;
        if n == 0 {
            return WearStats::default();
        }
        let mean = self.wear_sum as f64 / n as f64;
        // Var = E[w²] − E[w]²; guard tiny negatives from f64 rounding.
        let var = (self.wear_sq_sum as f64 / n as f64 - mean * mean).max(0.0);
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        WearStats {
            max_writes_per_block: self.wear_max,
            mean_writes_per_block: mean,
            blocks_touched: n,
            cv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::AccessKind;

    #[test]
    fn record_read_and_write() {
        let mut s = IoStats::default();
        s.record(AccessKind::Read, 4096, true, 100, 0, 0);
        s.record(AccessKind::Write, 8192, false, 200, 4096, 0);
        let snap = s.snapshot();
        assert_eq!(snap.read_ops, 1);
        assert_eq!(snap.write_ops, 1);
        assert_eq!(snap.bytes_read, 4096);
        assert_eq!(snap.bytes_written, 8192);
        assert_eq!(snap.sequential_ops, 1);
        assert_eq!(snap.random_ops, 1);
        assert_eq!(snap.random_writes, 1);
        assert_eq!(snap.busy_ns, 300);
    }

    #[test]
    fn wear_tracks_erase_blocks() {
        let mut s = IoStats::default();
        let blk = 256 * 1024;
        // Two writes to the same block, one spanning two blocks.
        s.record(AccessKind::Write, 4096, true, 1, 0, blk);
        s.record(AccessKind::Write, 4096, true, 1, 4096, blk);
        s.record(AccessKind::Write, blk, true, 1, blk - 100, blk);
        let snap = s.snapshot();
        // Block 0 written by all three ops (the span starts inside it);
        // block 1 only by the spanning op.
        assert_eq!(snap.touched_blocks, 2);
        assert_eq!(snap.max_block_wear, 3);
    }

    #[test]
    fn wear_stats_match_raw_histogram() {
        let mut s = IoStats::default();
        assert_eq!(s.wear_stats(), WearStats::default(), "idle is all-zero");
        let blk = 4096;
        // Counts per block: {0: 3, 1: 1} → mean 2, σ 1, cv 0.5.
        for _ in 0..3 {
            s.record(AccessKind::Write, 100, true, 1, 0, blk);
        }
        s.record(AccessKind::Write, 100, true, 1, blk, blk);
        let w = s.wear_stats();
        assert_eq!(w.max_writes_per_block, 3);
        assert_eq!(w.blocks_touched, 2);
        assert!((w.mean_writes_per_block - 2.0).abs() < 1e-9);
        assert!((w.cv - 0.5).abs() < 1e-9);
        // The snapshot's wear fields come from the same aggregates.
        let snap = s.snapshot();
        assert_eq!(snap.max_block_wear, 3);
        assert_eq!(snap.touched_blocks, 2);
    }

    #[test]
    fn even_wear_has_zero_cv() {
        let mut s = IoStats::default();
        let blk = 4096;
        for i in 0..8u64 {
            s.record(AccessKind::Write, 100, true, 1, i * blk, blk);
        }
        let w = s.wear_stats();
        assert_eq!(w.max_writes_per_block, 1);
        assert_eq!(w.blocks_touched, 8);
        assert!(w.cv.abs() < 1e-9, "perfectly even wear");
    }

    #[test]
    fn delta_subtracts() {
        let mut s = IoStats::default();
        s.record(AccessKind::Read, 10, true, 5, 0, 0);
        let a = s.snapshot();
        s.record(AccessKind::Read, 30, true, 5, 0, 0);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.read_ops, 1);
        assert_eq!(d.bytes_read, 30);
    }

    #[test]
    fn write_amplification_ratio() {
        let mut s = IoStats::default();
        s.record(AccessKind::Write, 2000, true, 1, 0, 0);
        s.record(AccessKind::Write, 2000, true, 1, 2000, 0);
        assert!((s.snapshot().write_amplification(1000) - 4.0).abs() < 1e-9);
        assert_eq!(s.snapshot().write_amplification(0), 0.0);
    }
}
