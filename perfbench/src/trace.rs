//! Wall-clock spans recorded from the benchmark's own code.
//!
//! Two kinds of span exist: a *front-door* span around each call into
//! the engine (`put`, `get`, `scan.open`, `scan.drain`, `migrate_all`,
//! `recover`) and a *backend* span around each read or write the
//! timing storage backend serves. A backend span is the child of the
//! front-door span open on its thread, so a front-door span's self time
//! is its duration minus its backend children: the engine's own CPU
//! cost, without the simulator's memcpy. Backend spans on threads with
//! no open front-door span (the background worker) have no parent.
//!
//! Spans are kept in memory (the first [`MAX_KEPT`]; later ones only
//! feed the totals) and written as a Chrome/Perfetto trace at the end.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::alloc::excluded;

/// Spans kept for the trace file; later spans only feed the totals.
pub const MAX_KEPT: usize = 200_000;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Wall ns of all front-door spans.
static FRONT_NS: AtomicU64 = AtomicU64::new(0);
/// Backend wall ns spent under a front-door span (client thread).
static BACKEND_CHILD_NS: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// `(id, backend child ns)` of the front-door span open here.
    static OPEN: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    tid: u64,
    id: u64,
    parent: u64,
    start_ns: u64,
    dur_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

fn keep(span: Span) {
    let mut spans = SPANS.lock().expect("span store poisoned");
    if spans.len() < MAX_KEPT {
        spans.push(span);
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
        excluded(|| SPANS.lock().expect("span store poisoned").reserve(MAX_KEPT));
    }
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Wall time and self time of one front-door call, in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    pub wall_ns: u64,
    pub self_ns: u64,
}

/// Time `f` as a front-door call. When tracing, record a span whose
/// backend children are subtracted for its self time; otherwise only
/// the wall time is taken (self time = wall time).
pub fn front<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Timing) {
    if !enabled() {
        let t0 = Instant::now();
        let out = f();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        return (
            out,
            Timing {
                wall_ns,
                self_ns: wall_ns,
            },
        );
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = OPEN.with(|o| o.replace((id, 0)));
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    let (_, child_ns) = OPEN.with(|o| o.replace(outer));
    let wall_ns = (t1 - t0).as_nanos() as u64;
    if outer.0 == 0 {
        FRONT_NS.fetch_add(wall_ns, Ordering::Relaxed);
    }
    excluded(|| {
        keep(Span {
            name,
            tid: tid(),
            id,
            parent: outer.0,
            start_ns: (t0 - epoch()).as_nanos() as u64,
            dur_ns: wall_ns,
        })
    });
    (
        out,
        Timing {
            wall_ns,
            self_ns: wall_ns.saturating_sub(child_ns),
        },
    )
}

/// Time `f` as a backend access (called by the timing backend only
/// while tracing is on).
pub fn backend<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    let dur_ns = (t1 - t0).as_nanos() as u64;
    let parent = OPEN.with(|o| {
        let (id, child) = o.get();
        if id != 0 {
            o.set((id, child + dur_ns));
        }
        id
    });
    if parent != 0 {
        BACKEND_CHILD_NS.fetch_add(dur_ns, Ordering::Relaxed);
    }
    keep(Span {
        name,
        tid: tid(),
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        start_ns: (t0 - epoch()).as_nanos() as u64,
        dur_ns,
    });
    out
}

/// Wall ns of outermost front-door spans so far.
pub fn front_ns() -> u64 {
    FRONT_NS.load(Ordering::Relaxed)
}

/// Backend wall ns spent inside front-door spans so far.
pub fn backend_child_ns() -> u64 {
    BACKEND_CHILD_NS.load(Ordering::Relaxed)
}

/// Write the kept spans as a Chrome trace-event file; returns
/// `(spans written, spans dropped)`.
pub fn write_file(path: &std::path::Path) -> std::io::Result<(usize, u64)> {
    excluded(|| {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = SPANS.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()?;
        Ok((spans.len(), DROPPED.load(Ordering::Relaxed)))
    })
}
