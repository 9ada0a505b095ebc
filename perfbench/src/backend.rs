//! The timing storage backend handed to every simulated device.
//!
//! Its byte store behaves like `masm_storage::MemBackend` (a growable
//! zero-filled byte array whose length is the high-water mark of
//! writes), but grows in pre-faulted 1 MiB chunks instead of one
//! doubling `Vec`: a doubling `Vec` copies the whole device inside
//! whichever engine call crosses a power of two, and its fresh pages
//! fault on first touch inside ordinary puts, so the put tail would
//! measure the host's page-fault latency rather than the engine.
//!
//! Every access runs outside the counting allocator (the store is
//! device memory, not engine memory). While tracing, each access is a
//! backend span (`storage.<dev>.read|write`) and heap pages read from
//! the disk are captured, up to a byte budget, for the replay stage.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use masm_storage::{StorageBackend, StorageError, StorageResult};

use crate::alloc::excluded;
use crate::trace;

/// Which simulated device a backend serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dev {
    Disk,
    Ssd,
    Wal,
}

/// Heap pages captured from disk reads while tracing.
#[derive(Default)]
pub struct Capture {
    on: AtomicBool,
    budget: usize,
    pages: Mutex<Vec<Vec<u8>>>,
}

impl Capture {
    /// A capture that keeps at most `budget` bytes of pages.
    pub fn new(budget: usize) -> Arc<Capture> {
        Arc::new(Capture {
            on: AtomicBool::new(false),
            budget,
            pages: Mutex::new(Vec::new()),
        })
    }

    /// Start or stop capturing.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Take the captured pages.
    pub fn take(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.pages.lock().expect("capture poisoned"))
    }

    fn offer(&self, buf: &[u8], page: usize) {
        if !self.on.load(Ordering::Relaxed) || !buf.len().is_multiple_of(page) {
            return;
        }
        let mut pages = self.pages.lock().expect("capture poisoned");
        for p in buf.chunks(page) {
            if pages.len() * page >= self.budget {
                self.on.store(false, Ordering::Relaxed);
                return;
            }
            pages.push(p.to_vec());
        }
    }
}

const CHUNK: usize = 1 << 20;

/// The byte store: fixed-size chunks plus the written length.
#[derive(Default)]
struct Store {
    chunks: Vec<Box<[u8]>>,
    len: u64,
}

/// A zeroed chunk whose pages are already resident.
fn chunk() -> Box<[u8]> {
    let mut c = vec![1u8; CHUNK];
    black_box(&mut c);
    c.fill(0);
    c.into_boxed_slice()
}

impl Store {
    fn read(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        let end = offset + buf.len() as u64;
        if end > self.len {
            return Err(StorageError::OutOfBounds {
                offset,
                len: buf.len() as u64,
                capacity: self.len,
            });
        }
        let mut done = 0;
        while done < buf.len() {
            let at = offset as usize + done;
            let (c, o) = (at / CHUNK, at % CHUNK);
            let n = (CHUNK - o).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&self.chunks[c][o..o + n]);
            done += n;
        }
        Ok(())
    }

    fn write(&mut self, offset: u64, buf: &[u8]) {
        let end = offset as usize + buf.len();
        while self.chunks.len() * CHUNK < end {
            self.chunks.push(chunk());
        }
        let mut done = 0;
        while done < buf.len() {
            let at = offset as usize + done;
            let (c, o) = (at / CHUNK, at % CHUNK);
            let n = (CHUNK - o).min(buf.len() - done);
            self.chunks[c][o..o + n].copy_from_slice(&buf[done..done + n]);
            done += n;
        }
        self.len = self.len.max(end as u64);
    }
}

/// A chunked byte store that times its accesses and feeds the capture.
pub struct TimedBackend {
    store: RwLock<Store>,
    dev: Dev,
    capture: Arc<Capture>,
    page: usize,
}

impl TimedBackend {
    pub fn new(dev: Dev, capture: Arc<Capture>, page: usize) -> TimedBackend {
        TimedBackend {
            store: RwLock::new(Store::default()),
            dev,
            capture,
            page,
        }
    }
}

impl TimedBackend {
    fn read(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        self.store
            .read()
            .expect("device store poisoned")
            .read(offset, buf)
    }

    fn write(&self, offset: u64, buf: &[u8]) {
        self.store
            .write()
            .expect("device store poisoned")
            .write(offset, buf);
    }
}

impl StorageBackend for TimedBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        excluded(|| {
            if !trace::enabled() {
                return self.read(offset, buf);
            }
            let name = match self.dev {
                Dev::Disk => "storage.disk.read",
                Dev::Ssd => "storage.ssd.read",
                Dev::Wal => "storage.wal.read",
            };
            trace::backend(name, || self.read(offset, buf))?;
            if self.dev == Dev::Disk {
                self.capture.offer(buf, self.page);
            }
            Ok(())
        })
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> StorageResult<()> {
        excluded(|| {
            if !trace::enabled() {
                self.write(offset, buf);
                return Ok(());
            }
            let name = match self.dev {
                Dev::Disk => "storage.disk.write",
                Dev::Ssd => "storage.ssd.write",
                Dev::Wal => "storage.wal.write",
            };
            trace::backend(name, || self.write(offset, buf));
            Ok(())
        })
    }

    fn len(&self) -> u64 {
        self.store.read().expect("device store poisoned").len
    }
}
