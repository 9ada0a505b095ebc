//! Metric computation and output.

use masm_storage::IoStatsSnapshot;
use masm_telemetry::{HistogramSnapshot, StatsDelta};

use crate::calib::{self, Work};
use crate::replay::Replay;
use crate::world::{Phase, Slice, Snap};
use crate::Workload;

/// Metrics in print order: `(name, value, unit, samples)`.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str, u64)>);

/// A number for JSON and for people: finite, all digits kept.
pub fn p(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.0.push((name, value, unit, samples));
    }

    /// Print one line per metric, each name after `prefix`.
    pub fn print_lines(&self, prefix: &str) {
        for (name, v, unit, n) in &self.0 {
            println!("{prefix}{name} = {} {unit} (n={n})", p(*v));
        }
    }

    /// Print one line per metric, then the JSON result line.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        self.print_lines("");
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit, _)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", p(*v))
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

/// Nearest-rank percentile `q` (0..=1) of `samples`, in their unit.
pub fn pct(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Percentile `q` of `samples` as the median, over consecutive
/// stretches of slices, of each stretch's own percentile (`pick` gives a
/// slice's end in `samples`). A stretch is the fewest whole slices that
/// hold ten samples beyond the percentile; a short remainder joins the
/// last stretch. With fewer than three stretches the samples are pooled.
/// A burst of host interference then moves one stretch's tail, not the
/// reported one.
pub fn tail(samples: &[u64], slices: &[Slice], pick: fn(&Slice) -> usize, q: f64) -> f64 {
    let need = (10.0 / (1.0 - q)).ceil() as usize;
    let mut bounds = vec![0];
    for s in slices {
        let end = pick(s).min(samples.len());
        if end - bounds[bounds.len() - 1] >= need {
            bounds.push(end);
        }
    }
    if let Some(last) = bounds.last_mut() {
        *last = samples.len();
    }
    if bounds.len() < 4 {
        return pct(samples, q);
    }
    let per_stretch: Vec<f64> = bounds
        .windows(2)
        .map(|w| pct(&samples[w[0]..w[1]], q))
        .collect();
    median(&per_stretch)
}

/// `samples` of `work` scaled to the reference host speed, each by the
/// factor of the slice it fell in (`pick` gives a slice's end in
/// `samples`).
pub fn scaled(
    samples: &[u64],
    slices: &[Slice],
    pick: fn(&Slice) -> usize,
    work: Work,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(samples.len());
    let mut start = 0;
    for s in slices {
        let f = calib::factor(s.burst_ns, work);
        let end = pick(s).min(samples.len());
        out.extend(samples[start..end].iter().map(|&x| (x as f64 * f) as u64));
        start = end;
    }
    out
}

/// An update phase's wall time scaled to the reference host speed.
pub fn scaled_wall_ns(p: &Phase) -> f64 {
    p.slices
        .iter()
        .map(|s| s.wall_ns as f64 * calib::factor(s.burst_ns, Work::Update))
        .sum()
}

/// Median calibration burst time over a phase's slices.
pub fn burst_ns(p: &Phase) -> calib::Burst {
    let v: Vec<[u64; 2]> = p
        .slices
        .iter()
        .map(|s| [s.burst_ns[0] as u64, s.burst_ns[1] as u64])
        .collect();
    calib::medians(&v)
}

pub fn put_end(s: &Slice) -> usize {
    s.ends.0
}
pub fn get_end(s: &Slice) -> usize {
    s.ends.1
}
pub fn small_end(s: &Slice) -> usize {
    s.ends.2
}
pub fn large_end(s: &Slice) -> usize {
    s.ends.3
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Counter deltas over one interval of a phase.
#[derive(Clone, Copy)]
pub struct Interval {
    pub stats: StatsDelta,
    pub disk: IoStatsSnapshot,
    pub block_fetch: HistogramSnapshot,
    pub virt_ns: u64,
}

fn between(a: &Snap, b: &Snap) -> Interval {
    Interval {
        stats: b.engine.delta(&a.engine),
        disk: b.disk.delta(&a.disk),
        block_fetch: b.engine.ops.block_fetch.delta(&a.engine.ops.block_fetch),
        virt_ns: b.virt_ns - a.virt_ns,
    }
}

/// Counters over the phase's deterministic window (start → window end).
pub fn window(p: &Phase) -> Interval {
    between(
        p.start.as_ref().expect("phase start"),
        p.window.as_ref().expect("phase window"),
    )
}

/// Counters over the whole phase.
pub fn whole(p: &Phase) -> Interval {
    between(
        p.start.as_ref().expect("phase start"),
        p.end.as_ref().expect("phase end"),
    )
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// A wall time and the calibration burst time measured around it.
pub type Timed = (f64, calib::Burst);

/// Median of update wall times, each scaled to the reference host speed
/// by the back-to-back bursts around it.
fn scaled_median(v: &[Timed]) -> f64 {
    let v: Vec<f64> = v.iter().map(|&(t, b)| t * calib::factor_alone(b)).collect();
    median(&v)
}

/// Where a run's samples of each op kind come from.
#[derive(Clone, Copy)]
pub struct Sources<'a> {
    pub phase: &'a Phase,
    /// The scan workload's cache fills, one per set-up.
    pub fills: &'a [Phase],
    /// Reads sent to the recovered engine: the probe (for what the
    /// phase does not read) and the full-table check.
    pub probe: &'a Phase,
    pub check: &'a Phase,
}

impl<'a> Sources<'a> {
    /// Puts: the main phase, or the scan workload's cache fills.
    fn puts(&self) -> &'a [Phase] {
        if self.phase.puts > 0 {
            std::slice::from_ref(self.phase)
        } else {
            self.fills
        }
    }

    /// Reads: the main phase where it has them, otherwise the probe of
    /// the recovered engine (large scans: its full-table check).
    fn smalls(&self) -> &'a Phase {
        if self.phase.small_ns.is_empty() {
            self.probe
        } else {
            self.phase
        }
    }

    fn gets(&self) -> &'a Phase {
        if self.phase.get_ns.is_empty() {
            self.probe
        } else {
            self.phase
        }
    }

    fn larges(&self) -> &'a Phase {
        if self.phase.large.is_empty() {
            self.check
        } else {
            self.phase
        }
    }

    /// Every put's latency, scaled.
    fn put_ns(&self) -> Vec<u64> {
        self.puts()
            .iter()
            .flat_map(|f| scaled(&f.put_ns, &f.slices, put_end, Work::Update))
            .collect()
    }
}

/// The tail latencies, scaled: `put_p9999_us`, `scan_small_p99_us` and
/// `get_p99_us`. Host interference moves them more than the bounds of
/// the end-to-end metrics allow, so they are per-layer metrics.
pub fn tails(src: &Sources, m: &mut Metrics) {
    // Flushes are ~0.05% of puts, so their tail is at p99.99; p99.9
    // lies in the host's page-fault and allocator noise. The scan
    // workload's fills are one stretch each.
    let puts = src.puts();
    let per_phase: Vec<f64> = puts
        .iter()
        .map(|f| {
            let v = scaled(&f.put_ns, &f.slices, put_end, Work::Update);
            tail(&v, &f.slices, put_end, 0.9999)
        })
        .collect();
    let put_tail = if puts.len() == 1 {
        per_phase[0]
    } else {
        median(&per_phase)
    };
    let n_puts = puts.iter().map(|f| f.put_ns.len() as u64).sum();
    m.add("put_p9999_us", us(put_tail), "us", n_puts);
    let sm = src.smalls();
    let small = scaled(&sm.small_ns, &sm.slices, small_end, Work::Read);
    m.add(
        "scan_small_p99_us",
        us(tail(&small, &sm.slices, small_end, 0.99)),
        "us",
        small.len() as u64,
    );
    let gt = src.gets();
    let get = scaled(&gt.get_ns, &gt.slices, get_end, Work::Read);
    m.add(
        "get_p99_us",
        us(tail(&get, &gt.slices, get_end, 0.99)),
        "us",
        get.len() as u64,
    );
}

/// Inputs of the end-to-end metrics.
pub struct E2e<'a> {
    pub src: Sources<'a>,
    pub setup_secs: &'a [Timed],
    pub recovery_ms: &'a [Timed],
    pub mem_peak_mb: f64,
    pub virt_overhead: f64,
}

impl E2e<'_> {
    /// Every end-to-end metric. Wall times are scaled to the reference
    /// host speed (see `calib`); sample counts are printed with each.
    pub fn fill(&self, m: &mut Metrics) {
        let src = &self.src;
        m.add(
            "setup_s",
            scaled_median(self.setup_secs),
            "s",
            self.setup_secs.len() as u64,
        );

        let put_ns = src.put_ns();
        let rates: Vec<f64> = src
            .puts()
            .iter()
            .map(|f| f.puts as f64 / (scaled_wall_ns(f) / 1e9))
            .collect();
        let n = put_ns.len() as u64;
        m.add("put_ups", median(&rates), "ops/s", n);
        m.add("put_p50_us", us(pct(&put_ns, 0.5)), "us", n);

        let sm = src.smalls();
        let small = scaled(&sm.small_ns, &sm.slices, small_end, Work::Read);
        m.add(
            "scan_small_p50_us",
            us(pct(&small, 0.5)),
            "us",
            small.len() as u64,
        );
        let lg = src.larges();
        let large_ns: Vec<u64> = lg.large.iter().map(|l| l.0).collect();
        let large_ns = scaled(&large_ns, &lg.slices, large_end, Work::Read);
        let rows: u64 = lg.large.iter().map(|l| l.1).sum();
        m.add(
            "scan_large_mrows_s",
            rows as f64 / (large_ns.iter().sum::<u64>() as f64 / 1e9) / 1e6,
            "Mrows/s",
            large_ns.len() as u64,
        );
        let gt = src.gets();
        let get = scaled(&gt.get_ns, &gt.slices, get_end, Work::Read);
        m.add("get_p50_us", us(pct(&get, 0.5)), "us", get.len() as u64);
        m.add(
            "recovery_ms",
            scaled_median(self.recovery_ms),
            "ms",
            self.recovery_ms.len() as u64,
        );
        m.add("mem_peak_mb", self.mem_peak_mb, "MiB", 1);

        // Virtual time and write amplification: the phase's window, or
        // the scan workload's last fill.
        let (iv, puts) = if src.phase.puts > 0 {
            (window(src.phase), src.phase.window_puts)
        } else {
            let last = src.fills.last().expect("scan runs fill the cache");
            (whole(last), last.puts)
        };
        m.add(
            "virt_put_ups",
            puts as f64 / (iv.virt_ns as f64 / 1e9),
            "ops/virt_s",
            puts,
        );
        m.add("virt_scan_overhead", self.virt_overhead, "ratio", 1);
        m.add(
            "flash_write_amp",
            iv.stats.ssd.bytes_written as f64 / iv.stats.ingested_bytes.max(1) as f64,
            "ratio",
            puts,
        );
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    m: &mut Metrics,
    workload: Workload,
    src: &Sources,
    rp: &Replay,
    wal_replayed: u64,
    recovered: u64,
    reference: &Phase,
) {
    let phase = src.phase;
    // Counters: over the deterministic window where there is one.
    let (iv, scans) = if matches!(workload, Workload::Mixed | Workload::Background) {
        (
            whole(phase),
            (phase.small_ns.len() + phase.large.len()) as u64,
        )
    } else {
        (window(phase), phase.window_scans)
    };
    let d = &iv.stats;
    let (ssd, wal, disk) = (&d.ssd, &d.wal, &iv.disk);
    m.add("storage.ssd.read_ops", ssd.read_ops as f64, "count", 1);
    m.add("storage.ssd.read_bytes", ssd.bytes_read as f64, "bytes", 1);
    m.add(
        "storage.ssd.write_bytes",
        ssd.bytes_written as f64,
        "bytes",
        1,
    );
    m.add(
        "storage.ssd.random_writes",
        ssd.random_writes as f64,
        "count",
        1,
    );
    m.add(
        "storage.disk.read_bytes",
        disk.bytes_read as f64,
        "bytes",
        1,
    );
    m.add(
        "storage.disk.write_bytes",
        disk.bytes_written as f64,
        "bytes",
        1,
    );
    m.add("storage.wal.write_ops", wal.write_ops as f64, "count", 1);
    m.add(
        "storage.wal.write_bytes",
        wal.bytes_written as f64,
        "bytes",
        1,
    );
    m.add(
        "storage.ssd.busy_virt_ms",
        ssd.busy_ns as f64 / 1e6,
        "ms",
        1,
    );
    m.add(
        "storage.disk.busy_virt_ms",
        disk.busy_ns as f64 / 1e6,
        "ms",
        1,
    );
    m.add(
        "storage.backend.wall_share",
        ratio(crate::trace::backend_child_ns(), crate::trace::front_ns()),
        "ratio",
        1,
    );

    let c = &d.cache;
    let lookups = c.hits + c.tier2_hits + c.misses;
    m.add(
        "blockrun.cache.t1_hit_ratio",
        ratio(c.hits, lookups),
        "ratio",
        lookups,
    );
    m.add(
        "blockrun.cache.t2_hit_ratio",
        ratio(c.tier2_hits, lookups - c.hits),
        "ratio",
        lookups,
    );
    m.add("blockrun.cache.misses", c.misses as f64, "count", 1);
    m.add("blockrun.cache.evictions", c.evictions as f64, "count", 1);
    m.add(
        "blockrun.blocks_per_small_scan",
        if scans == 0 {
            0.0
        } else {
            ratio(lookups, scans)
        },
        "blocks",
        scans,
    );
    m.add(
        "blockrun.fetch_virt_p99_us",
        iv.block_fetch.p99() as f64 / 1e3,
        "us",
        iv.block_fetch.count,
    );
    m.add("blockrun.crc_mb_s", rp.crc_mb_s, "MB/s", rp.blocks as u64);
    m.add("blockrun.build_mb_s", rp.build_mb_s, "MB/s", 1);
    m.add(
        "blockrun.bloom_fp_ratio",
        rp.bloom_fp_ratio,
        "ratio",
        rp.runs as u64,
    );

    let comp = &d.compression;
    m.add(
        "codec.ratio",
        ratio(comp.stored_bytes, comp.raw_bytes),
        "ratio",
        comp.blocks,
    );
    m.add(
        "codec.encode_mb_s",
        rp.encode_mb_s,
        "MB/s",
        rp.blocks as u64,
    );
    m.add(
        "codec.decode_mb_s",
        rp.decode_mb_s,
        "MB/s",
        rp.blocks as u64,
    );

    // Puts of the traced run: its main phase, or the scan workload's fill.
    let puts = &src.puts()[0];
    let put_iv = if workload == Workload::Scan {
        whole(puts)
    } else {
        iv
    };
    m.add("core.membuf.push_ns", rp.membuf_push_ns, "ns", 1);
    m.add(
        "core.wal.bytes_per_put",
        ratio(
            put_iv.stats.wal.bytes_written,
            put_iv.stats.ingested_updates,
        ),
        "bytes",
        put_iv.stats.ingested_updates,
    );
    m.add(
        "core.wal.replay_per_recovered",
        ratio(wal_replayed, recovered),
        "ratio",
        recovered,
    );

    let mg = &d.merge;
    m.add("core.merge.entries_out", mg.entries_out as f64, "count", 1);
    m.add(
        "core.merge.bytes_decoded",
        mg.bytes_decoded as f64,
        "bytes",
        1,
    );
    m.add(
        "core.merge.moved_block_ratio",
        ratio(mg.blocks_moved, mg.blocks_moved + mg.blocks_merged),
        "ratio",
        mg.blocks_moved + mg.blocks_merged,
    );
    m.add(
        "core.merge.kway_mrows_s",
        rp.kway_mrows_s,
        "Mrows/s",
        rp.runs as u64,
    );
    m.add(
        "core.merge.data_updates_mrows_s",
        rp.data_updates_mrows_s,
        "Mrows/s",
        rp.pages as u64,
    );

    // Reads of the traced run: the main phase where it has them,
    // otherwise the probe of the recovered engine.
    let (gd, rd) = (src.gets(), src.smalls());
    m.add(
        "core.engine.put_self_ns_p50",
        pct(&puts.put_self_ns, 0.5),
        "ns",
        puts.put_self_ns.len() as u64,
    );
    m.add(
        "core.engine.get_self_ns_p50",
        pct(&gd.get_self_ns, 0.5),
        "ns",
        gd.get_self_ns.len() as u64,
    );
    m.add(
        "core.engine.flush_count",
        puts.flush_put_ns.len() as f64,
        "count",
        1,
    );
    m.add(
        "core.engine.flush_put_us_p50",
        us(pct(&puts.flush_put_ns, 0.5)),
        "us",
        puts.flush_put_ns.len() as u64,
    );
    let migrations = phase.migrate_ns.len() as u64 + d.workers.migrations;
    m.add("core.engine.migrate_count", migrations as f64, "count", 1);
    m.add(
        "core.engine.migrate_ms",
        pct(&phase.migrate_ns, 0.5) / 1e6,
        "ms",
        phase.migrate_ns.len() as u64,
    );
    m.add(
        "core.engine.scan_setup_us",
        us(pct(&rd.small_open_ns, 0.5)),
        "us",
        rd.small_open_ns.len() as u64,
    );
    m.add(
        "core.engine.scan_ns_per_row",
        ratio(rd.drain_ns, rd.drain_rows),
        "ns",
        rd.drain_rows,
    );

    m.add(
        "core.worker.jobs_completed",
        d.workers.jobs_completed as f64,
        "count",
        1,
    );
    m.add(
        "core.worker.jobs_retried",
        d.workers.jobs_retried as f64,
        "count",
        1,
    );
    m.add(
        "core.worker.refusals_per_kput",
        ratio(phase.refusals * 1000, phase.puts),
        "count",
        phase.puts,
    );
    m.add(
        "core.worker.refusal_wait_ms",
        phase.refusal_wait_ns as f64 / 1e6,
        "ms",
        phase.refusals,
    );

    m.add(
        "pagestore.page_decode_mrows_s",
        rp.page_decode_mrows_s,
        "Mrows/s",
        rp.pages as u64,
    );
    let pages = if scans == 0 {
        0.0
    } else {
        ratio(disk.read_ops, scans)
    };
    m.add("pagestore.pages_per_small_scan", pages, "pages", scans);

    m.add(
        "alloc.per_put",
        ratio(puts.alloc_put.0, puts.puts),
        "count",
        puts.puts,
    );
    m.add(
        "alloc.bytes_per_put",
        ratio(puts.alloc_put.1, puts.puts),
        "bytes",
        puts.puts,
    );
    let gets = gd.get_ns.len() as u64;
    m.add("alloc.per_get", ratio(gd.alloc_get, gets), "count", gets);
    m.add(
        "alloc.per_scan_row",
        ratio(rd.alloc_scan, rd.drain_rows),
        "count",
        rd.drain_rows,
    );

    // Tracing overhead: traced ÷ untraced p50 over the same window ops,
    // both scaled to the reference host speed.
    let (traced, untraced) = if workload == Workload::Scan {
        (
            scaled(&phase.small_ns, &phase.slices, small_end, Work::Read),
            scaled(
                &reference.small_ns,
                &reference.slices,
                small_end,
                Work::Read,
            ),
        )
    } else {
        (
            scaled(&phase.put_ns, &phase.slices, put_end, Work::Update),
            scaled(&reference.put_ns, &reference.slices, put_end, Work::Update),
        )
    };
    let k = traced.len().min(untraced.len());
    m.add(
        "trace.overhead_frac",
        pct(&traced[..k], 0.5) / pct(&untraced[..k], 0.5).max(1.0) - 1.0,
        "ratio",
        k as u64,
    );
    tails(src, m);
    let b = burst_ns(phase);
    m.add(
        "calib.burst_us",
        us(b[0] + b[1]),
        "us",
        phase.slices.len() as u64,
    );
}
