//! Host-speed calibration.
//!
//! The speed of the host drifts by 10–30% over seconds to minutes, and
//! it drifts for memory- and allocation-heavy code: over 200 ms windows
//! an arithmetic loop moved by 0.06 (interquartile range ÷ median) while
//! a B-tree loop beside it moved by 0.34. A reference kernel of the
//! engine's kind of work (a B-tree of 100-byte values, then 4 KiB page
//! copies out of a large buffer folded into a checksum) that shares no
//! code with the engine runs in short bursts through every timed
//! stretch. Its burst time tracks the host's current speed for that kind
//! of work, so a wall time `t` measured while bursts took `b` is
//! reported as `t × reference / b` (see [`Work`] for which parts count):
//! the time at the reference host speed. A change to the engine does not
//! move the bursts, so it moves the scaled figures as much as the raw
//! ones.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc::excluded;

/// Median burst time on the reference host (a 2-vCPU VM); scaled wall
/// metrics read as if every burst had taken this long.
pub const REF_BURST_NS: Burst = [80_000.0, 24_000.0];

/// Median whole-burst time on the reference host for bursts run back to
/// back (around set-up and recovery). The kernel's data then stays in
/// cache, so these run faster than bursts between engine ops.
pub const REF_ALONE_NS: f64 = 72_000.0;

/// Time of one burst's two parts: B-tree work, and page streaming.
pub type Burst = [f64; 2];

/// What kind of work a wall time measures, and so which burst parts
/// scale it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Work {
    /// Puts, recovery and set-up: B-trees, allocation, log and page
    /// writes. Scaled by the whole burst.
    Update,
    /// Scans and gets: page reads, decoding and merging. Scaled by the
    /// streaming part.
    Read,
}

/// Entries of the reference B-tree and bytes of its page buffer: larger
/// than the host's caches, as the engine's devices and tables are.
const MAP_ENTRIES: u64 = 1 << 16;
const BUFFER_BYTES: usize = 32 << 20;
const PAGE: usize = 4096;
/// Work of one burst.
const MAP_OPS: usize = 24;
const PAGE_COPIES: usize = 16;

struct Kernel {
    map: BTreeMap<u64, Vec<u8>>,
    buffer: Vec<u8>,
    page: Vec<u8>,
    rng: u64,
}

thread_local! {
    static KERNEL: RefCell<Option<Kernel>> = const { RefCell::new(None) };
    static SCALING: Cell<bool> = const { Cell::new(true) };
}

/// Turn scaling off (every factor 1) or back on, to print the
/// unscaled figures beside the scaled ones.
pub fn set_scaling(on: bool) {
    SCALING.with(|s| s.set(on));
}

impl Kernel {
    fn new() -> Kernel {
        let mut k = Kernel {
            map: BTreeMap::new(),
            buffer: (0..BUFFER_BYTES)
                .map(|i| (i * 7 + i / 4096) as u8)
                .collect(),
            page: vec![0; PAGE],
            rng: 0x2545_f491_4f6c_dd1d,
        };
        for i in 0..MAP_ENTRIES {
            k.map
                .insert(i * 2 * (u64::MAX / (4 * MAP_ENTRIES)), vec![i as u8; 100]);
        }
        k
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// One burst; the map keeps its size (each insert removes one).
    fn burst(&mut self) -> [u64; 2] {
        let t0 = Instant::now();
        let mut sum = 0u64;
        for _ in 0..MAP_OPS {
            let k = self.next() >> 2;
            self.map.insert(k, vec![k as u8; 100]);
            let d = self.next() >> 2;
            let victim = self
                .map
                .range(d..)
                .next()
                .or_else(|| self.map.iter().next())
                .map(|(&v, _)| v);
            if let Some(v) = victim {
                self.map.remove(&v);
            }
            let s = self.next() >> 2;
            sum += self
                .map
                .range(s..)
                .take(8)
                .map(|(_, v)| v[0] as u64)
                .sum::<u64>();
        }
        std::hint::black_box(sum);
        let t1 = Instant::now();
        let at = (self.next() as usize % (BUFFER_BYTES / PAGE - PAGE_COPIES)) * PAGE;
        for c in 0..PAGE_COPIES {
            let at = at + c * PAGE;
            self.page.copy_from_slice(&self.buffer[at..at + PAGE]);
            sum = self.page.chunks_exact(8).fold(sum, |h, w| {
                (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes")))
                    .wrapping_mul(0x100_0000_01b3)
            });
        }
        std::hint::black_box(sum);
        [(t1 - t0).as_nanos() as u64, t1.elapsed().as_nanos() as u64]
    }
}

/// Run one burst; returns the wall time of its parts in ns. The first
/// call on a thread builds the kernel, outside the timed parts.
pub fn burst() -> [u64; 2] {
    KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        let k = k.get_or_insert_with(|| excluded(Kernel::new));
        excluded(|| k.burst())
    })
}

/// The factor that scales an update's wall time measured between runs
/// of `n` back-to-back bursts whose medians were `b`.
pub fn factor_alone(b: Burst) -> f64 {
    let f = REF_ALONE_NS / (b[0] + b[1]);
    if SCALING.with(Cell::get) && f.is_finite() && f > 0.0 {
        f
    } else {
        1.0
    }
}

/// Median time of each part over `n` bursts run now.
pub fn measure(n: usize) -> Burst {
    let v: Vec<[u64; 2]> = excluded(|| (0..n).map(|_| burst()).collect());
    medians(&v)
}

/// Median of each part over bursts; 0 for none.
pub fn medians(v: &[[u64; 2]]) -> Burst {
    excluded(|| {
        let mut a: Vec<u64> = v.iter().map(|b| b[0]).collect();
        let mut b: Vec<u64> = v.iter().map(|b| b[1]).collect();
        [median(&mut a), median(&mut b)]
    })
}

/// Median of burst times; 0 for none.
pub fn median(v: &mut [u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0
    }
}

/// The factor that scales a wall time of `work` measured while bursts
/// took `b` to the reference host speed.
pub fn factor(b: Burst, work: Work) -> f64 {
    let r = REF_BURST_NS;
    let f = match work {
        Work::Update => (r[0] + r[1]) / (b[0] + b[1]),
        Work::Read => r[1] / b[1],
    };
    if SCALING.with(Cell::get) && f.is_finite() && f > 0.0 {
        f
    } else {
        1.0
    }
}
