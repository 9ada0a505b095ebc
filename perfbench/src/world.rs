//! The engine under test and the client that drives it.
//!
//! One closed-loop client on one thread sends the pre-generated ops to
//! the front door, a [`ShardedEngine`] with one shard, waiting for each
//! call to return before sending the next.

use std::sync::Arc;
use std::time::{Duration, Instant};

use masm_bench::scaled_masm_config;
use masm_core::{MasmConfig, MasmError, ShardedEngine, ShardedRecoveryReport};
use masm_pagestore::{HeapConfig, TableHeap};
use masm_storage::{DeviceProfile, IoStatsSnapshot, SessionHandle, SimClock, SimDevice};
use masm_telemetry::EngineStats;
use masm_workloads::synthetic::SyntheticTable;

use crate::alloc::{self, excluded};
use crate::backend::{Capture, Dev, TimedBackend};
use crate::calib;
use crate::ops::{materialize, Op};
use crate::oracle::ResultHash;
use crate::trace;

const PAGE: usize = 4096;
/// A phase stops early after this many engine errors (the run fails).
const MAX_ERRORS: u64 = 100;
/// Phase time per slice: the unit of host-speed scaling.
pub const SLICE: Duration = Duration::from_millis(250);
/// Phase time between calibration bursts.
pub const CAL_EVERY: Duration = Duration::from_millis(5);

/// The simulated machine: main-data disk, update-cache SSD and WAL
/// device on one virtual clock, each over a timing backend.
pub struct Machine {
    pub clock: SimClock,
    pub disk: SimDevice,
    pub ssd: SimDevice,
    pub wal: SimDevice,
}

pub fn device(dev: Dev, capture: &Arc<Capture>, clock: &SimClock, bytes: &[u8]) -> SimDevice {
    use masm_storage::StorageBackend;
    let backend = TimedBackend::new(dev, Arc::clone(capture), PAGE);
    if !bytes.is_empty() {
        excluded(|| backend.write_at(0, bytes)).expect("in-memory write");
    }
    let profile = match dev {
        Dev::Disk => DeviceProfile::hdd_barracuda(),
        Dev::Ssd | Dev::Wal => DeviceProfile::ssd_x25e(),
    };
    SimDevice::new(Arc::new(backend), profile, clock.clone())
}

impl Machine {
    /// Fresh devices, empty or holding a crash image's bytes.
    pub fn new(capture: &Arc<Capture>, image: Option<&Image>) -> Machine {
        let clock = SimClock::new();
        let empty = Image::default();
        let img = image.unwrap_or(&empty);
        Machine {
            disk: device(Dev::Disk, capture, &clock, &img.disk),
            ssd: device(Dev::Ssd, capture, &clock, &img.ssd),
            wal: device(Dev::Wal, capture, &clock, &img.wal),
            clock,
        }
    }
}

/// The durable bytes of every device at one instant: a crash image.
#[derive(Default)]
pub struct Image {
    pub disk: Vec<u8>,
    pub ssd: Vec<u8>,
    pub wal: Vec<u8>,
}

fn device_bytes(dev: &SimDevice) -> Vec<u8> {
    let snap = dev.snapshot(SimClock::new()).expect("device snapshot");
    if snap.is_empty() {
        return Vec::new();
    }
    snap.read_at(0, 0, snap.len()).expect("snapshot read").0
}

impl Image {
    /// Pull the plug: WAL first, then SSD, then disk, so every WAL
    /// record names only bytes the later images hold.
    pub fn take(m: &Machine) -> Image {
        excluded(|| {
            let wal = device_bytes(&m.wal);
            let ssd = device_bytes(&m.ssd);
            let disk = device_bytes(&m.disk);
            Image { disk, ssd, wal }
        })
    }
}

/// Engine counters and clocks at one instant.
#[derive(Clone, Copy)]
pub struct Snap {
    pub engine: EngineStats,
    pub disk: IoStatsSnapshot,
    pub virt_ns: u64,
}

/// An engine over a loaded table.
pub struct World {
    pub m: Machine,
    pub engine: Arc<ShardedEngine>,
    pub table: SyntheticTable,
    pub cfg: MasmConfig,
    pub session: SessionHandle,
}

/// The engine configuration every workload shares: the scaled paper
/// configuration (4% flash) with one shard.
pub fn config(table_bytes: u64, workers: usize) -> MasmConfig {
    let mut cfg = scaled_masm_config(table_bytes);
    cfg.background_workers = workers;
    cfg
}

impl World {
    /// Build the devices and bulk-load the synthetic table.
    pub fn load(table: &SyntheticTable, cfg: &MasmConfig, capture: &Arc<Capture>) -> World {
        let m = Machine::new(capture, None);
        let heap = Arc::new(TableHeap::new(m.disk.clone(), HeapConfig::default()));
        let engine = ShardedEngine::new(
            heap,
            vec![m.ssd.clone()],
            vec![m.wal.clone()],
            table.schema.clone(),
            cfg.clone(),
        )
        .expect("valid engine configuration");
        let session = SessionHandle::fresh(m.clock.clone());
        engine
            .load_table(&session, table.records(), 1.0)
            .expect("bulk load");
        World {
            m,
            engine,
            table: table.clone(),
            cfg: cfg.clone(),
            session,
        }
    }

    /// Recover an engine from a crash image; returns the wall time of
    /// `ShardedEngine::recover` alone.
    pub fn recover(
        table: &SyntheticTable,
        cfg: &MasmConfig,
        capture: &Arc<Capture>,
        image: &Image,
    ) -> Result<(World, ShardedRecoveryReport, trace::Timing), MasmError> {
        let m = Machine::new(capture, Some(image));
        let heap = Arc::new(TableHeap::new(m.disk.clone(), HeapConfig::default()));
        let (res, timing) = trace::front("recover", || {
            ShardedEngine::recover(
                heap,
                vec![m.ssd.clone()],
                vec![m.wal.clone()],
                table.schema.clone(),
                cfg.clone(),
            )
        });
        let (engine, report) = res?;
        let session = SessionHandle::fresh(m.clock.clone());
        Ok((
            World {
                m,
                engine,
                table: table.clone(),
                cfg: cfg.clone(),
                session,
            },
            report,
            timing,
        ))
    }

    /// No background work is queued or awaiting a flush (always true
    /// without a worker).
    fn settled(&self) -> bool {
        let w = self.engine.stats().total.workers;
        w.queue_depth == 0 && w.backlog_bytes == 0
    }

    /// Counters and clocks now.
    pub fn snap(&self) -> Snap {
        Snap {
            engine: self.engine.stats().total,
            disk: self.m.disk.stats(),
            virt_ns: self.session.now(),
        }
    }
}

impl Drop for World {
    fn drop(&mut self) {
        self.engine.shutdown();
    }
}

/// Where a phase's deterministic window ends.
#[derive(Clone, Copy, Debug)]
pub enum Window {
    /// After this many ops.
    Ops(usize),
    /// After the op whose `migrate_all` completed this many migrations.
    Migrations(usize),
}

/// When a crash image is taken (at most once, after the window).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crash {
    Never,
    /// Right at the window end.
    AtWindow,
    /// At the first op boundary after the window at which the flash,
    /// seen below half full since the window, is at least half full
    /// and no background work is pending: the same point of the
    /// migration cycle for every seed.
    HalfFull,
}

/// When a phase stops.
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    /// The deterministic window: always run to its end.
    pub window: Window,
    /// Keep going after the window until this much wall time passed.
    pub seconds: f64,
    pub crash: Crash,
    /// Instead of `seconds`: stop after the window as soon as live runs
    /// hold this many bytes (cache fill).
    pub fill_to: Option<u64>,
}

impl Limit {
    /// Exactly `n` ops, nothing else.
    pub fn ops(n: usize) -> Limit {
        Limit {
            window: Window::Ops(n),
            seconds: 0.0,
            crash: Crash::Never,
            fill_to: None,
        }
    }
}

/// Per-op-kind samples and counts of one phase.
#[derive(Default)]
pub struct Phase {
    pub ops_done: u64,
    pub wall_ns: u64,
    pub errors: u64,
    pub puts: u64,
    pub put_ns: Vec<u64>,
    pub put_self_ns: Vec<u64>,
    pub flush_put_ns: Vec<u64>,
    pub get_ns: Vec<u64>,
    pub get_self_ns: Vec<u64>,
    pub small_ns: Vec<u64>,
    pub small_open_ns: Vec<u64>,
    /// `(wall ns, rows)` of each large scan.
    pub large: Vec<(u64, u64)>,
    pub drain_rows: u64,
    pub drain_ns: u64,
    pub migrate_ns: Vec<u64>,
    pub refusals: u64,
    pub refusal_wait_ns: u64,
    pub alloc_put: (u64, u64),
    pub alloc_get: u64,
    pub alloc_scan: u64,
    /// `(op index, result)` of every read, for the oracle check.
    pub reads: Vec<(u64, ResultHash)>,
    /// Counters at the phase start, the window end and the phase end.
    pub start: Option<Snap>,
    pub window: Option<Snap>,
    pub end: Option<Snap>,
    /// Migrations completed by the client's `migrate_all` calls.
    pub migrations: u64,
    /// Puts acknowledged and scans run inside the window.
    pub window_puts: u64,
    pub window_scans: u64,
    /// Crash image (see [`Crash`]) and the op index it was taken at.
    pub image: Option<Image>,
    pub crash_at: u64,
    /// One entry per [`SLICE`] of phase time.
    pub slices: Vec<Slice>,
}

/// One slice of a phase: where its samples end, its wall time and the
/// host speed while it ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    /// Sample counts `(puts, gets, small scans, large scans)` at its end.
    pub ends: (usize, usize, usize, usize),
    pub wall_ns: u64,
    /// Median calibration burst time inside it (see [`calib`]); zero,
    /// and so not scaled, without bursts.
    pub burst_ns: calib::Burst,
}

impl Phase {
    fn counts(&self) -> (usize, usize, usize, usize) {
        (
            self.put_ns.len(),
            self.get_ns.len(),
            self.small_ns.len(),
            self.large.len(),
        )
    }

    fn end_slice(&mut self, wall_ns: u64, bursts: &mut Vec<[u64; 2]>) {
        // A slice that held no burst (one long op) keeps the last one.
        let burst_ns = match self.slices.last() {
            Some(last) if bursts.is_empty() => last.burst_ns,
            _ => calib::medians(bursts),
        };
        let slice = Slice {
            ends: self.counts(),
            wall_ns,
            burst_ns,
        };
        bursts.clear();
        push(&mut self.slices, slice);
    }

    fn mark_window(&mut self, snap: Snap) {
        self.window = Some(snap);
        self.window_puts = self.puts;
        self.window_scans = (self.small_ns.len() + self.large.len()) as u64;
    }
}

/// Push outside the counting allocator: sample vectors are benchmark
/// bookkeeping.
fn push<T>(v: &mut Vec<T>, x: T) {
    if v.len() == v.capacity() {
        excluded(|| v.reserve(v.len().max(1024)));
    }
    v.push(x);
}

impl World {
    /// Run `ops` (cyclically) as one closed-loop client. Unless the
    /// engine runs a background worker, whose work would time the bursts
    /// as much as the host does, a calibration burst runs every
    /// [`CAL_EVERY`] of phase time. The bursts, reading
    /// the counters at the window end and taking the crash image do not
    /// count towards the phase's wall time.
    pub fn run(&self, ops: &[Op], limit: &Limit) -> Phase {
        let mut p = Phase::default();
        let inline = self.cfg.background_workers == 0;
        let tracing = trace::enabled();
        let shard = &self.engine.shards()[0];
        let half = self.cfg.ssd_capacity / 2;
        let mut bursts = Vec::with_capacity(1024);
        p.start = Some(self.snap());
        alloc::reset_peak();
        let t0 = Instant::now();
        let mut paused = Duration::ZERO;
        let mut slice_start = Duration::ZERO;
        let mut next_burst = Duration::ZERO;
        let mut below_half = false;
        let mut i = 0usize;
        loop {
            let elapsed = t0.elapsed() - paused;
            if inline && elapsed >= next_burst {
                let pause = Instant::now();
                bursts.push(calib::burst());
                paused += pause.elapsed();
                next_burst = elapsed + CAL_EVERY;
            }
            if elapsed >= slice_start + SLICE {
                p.end_slice((elapsed - slice_start).as_nanos() as u64, &mut bursts);
                slice_start = elapsed;
            }
            let window_done = match limit.window {
                Window::Ops(n) => i >= n,
                Window::Migrations(n) => p.migrations >= n as u64,
            };
            if window_done && p.window.is_none() {
                let pause = Instant::now();
                p.mark_window(self.snap());
                paused += pause.elapsed();
            }
            let cached = shard.cached_bytes();
            below_half |= window_done && cached < half;
            if window_done
                && p.image.is_none()
                && (limit.crash == Crash::AtWindow
                    || (limit.crash == Crash::HalfFull
                        && below_half
                        && cached >= half
                        && self.settled()))
            {
                let pause = Instant::now();
                p.image = Some(Image::take(&self.m));
                p.crash_at = i as u64;
                paused += pause.elapsed();
            }
            let stop = match limit.fill_to {
                Some(target) => window_done && cached >= target,
                None => {
                    window_done
                        && (limit.crash == Crash::Never || p.image.is_some())
                        && elapsed.as_secs_f64() >= limit.seconds
                }
            };
            if stop {
                break;
            }
            if p.errors > MAX_ERRORS {
                eprintln!("stopping the phase after {} engine errors", p.errors);
                break;
            }
            self.step(ops[i % ops.len()], i, inline, tracing, &mut p);
            i += 1;
        }
        let elapsed = t0.elapsed() - paused;
        p.end_slice((elapsed - slice_start).as_nanos() as u64, &mut bursts);
        p.wall_ns = elapsed.as_nanos() as u64;
        p.ops_done = i as u64;
        p.end = Some(self.snap());
        if p.window.is_none() {
            p.mark_window(p.end.expect("just set"));
        }
        p
    }

    fn step(&self, op: Op, i: usize, inline: bool, tracing: bool, p: &mut Phase) {
        let shard = &self.engine.shards()[0];
        let schema = &self.table.schema;
        match op {
            Op::Put { key, kind, val } => {
                let before = if tracing { shard.buffered_updates() } else { 0 };
                let mut wall = 0u64;
                let mut self_ns = 0u64;
                loop {
                    let op = materialize(schema, kind, val);
                    let (a0, b0) = (alloc::calls(), alloc::bytes());
                    let (r, t) = trace::front("put", || self.engine.put(&self.session, key, op));
                    p.alloc_put.0 += alloc::calls() - a0;
                    p.alloc_put.1 += alloc::bytes() - b0;
                    wall += t.wall_ns;
                    self_ns += t.self_ns;
                    match r {
                        Ok(_) => break,
                        // Backpressure: the flash is full until the
                        // worker's migration catches up. Retry after
                        // 1 ms; the wait is part of this put.
                        Err(MasmError::CacheFull { .. }) if !inline => {
                            p.refusals += 1;
                            let w = Instant::now();
                            std::thread::sleep(Duration::from_millis(1));
                            let waited = w.elapsed().as_nanos() as u64;
                            p.refusal_wait_ns += waited;
                            wall += waited;
                        }
                        Err(_) => {
                            p.errors += 1;
                            break;
                        }
                    }
                }
                p.puts += 1;
                push(&mut p.put_ns, wall);
                if tracing {
                    push(&mut p.put_self_ns, self_ns);
                    if shard.buffered_updates() <= before {
                        push(&mut p.flush_put_ns, wall);
                    }
                }
                if inline && self.engine.needs_migration() {
                    let (r, t) =
                        trace::front("migrate_all", || self.engine.migrate_all(&self.session));
                    match r {
                        Ok(reports) => p.migrations += reports.len() as u64,
                        Err(_) => p.errors += 1,
                    }
                    push(&mut p.migrate_ns, t.wall_ns);
                }
            }
            Op::Get(key) => {
                let a0 = alloc::calls();
                let (r, t) = trace::front("get", || self.engine.get(&self.session, key));
                p.alloc_get += alloc::calls() - a0;
                let mut h = ResultHash::default();
                match r {
                    Ok(Some(rec)) => h.add(rec.key, &rec.payload),
                    Ok(None) => {}
                    Err(_) => p.errors += 1,
                }
                push(&mut p.reads, (i as u64, h));
                push(&mut p.get_ns, t.wall_ns);
                if tracing {
                    push(&mut p.get_self_ns, t.self_ns);
                }
            }
            Op::Scan { begin, end, large } => {
                let a0 = alloc::calls();
                let (scan, open) = trace::front("scan.open", || self.engine.scan(begin, end));
                let (h, drain) = match scan {
                    Ok(scan) => trace::front("scan.drain", || {
                        let mut h = ResultHash::default();
                        for r in scan {
                            h.add(r.key, &r.payload);
                        }
                        h
                    }),
                    Err(_) => {
                        p.errors += 1;
                        (ResultHash::default(), trace::Timing::default())
                    }
                };
                p.alloc_scan += alloc::calls() - a0;
                push(&mut p.reads, (i as u64, h));
                let wall = open.wall_ns + drain.wall_ns;
                p.drain_rows += h.rows;
                p.drain_ns += drain.wall_ns;
                if large {
                    push(&mut p.large, (wall, h.rows));
                } else {
                    push(&mut p.small_ns, wall);
                    push(&mut p.small_open_ns, open.wall_ns);
                }
            }
        }
    }
}
