//! Pre-generated client operations.
//!
//! Ops are generated from the seed before the timed phase, by the
//! `masm-workloads` generators, and stored compactly: an update keeps
//! its key, kind and field-0 value, and is materialized into an
//! [`UpdateOp`] only when the client sends it (that allocation is the
//! request the engine takes ownership of).

use masm_core::{FieldPatch, UpdateOp};
use masm_pagestore::{Key, Schema};
use masm_workloads::synthetic::{SyntheticTable, UpdateMix, UpdateStreamGen};
use masm_workloads::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes of a small (4 KB) and of a 1 MB range scan.
pub const SMALL_SCAN_BYTES: u64 = 4096;
pub const MIB_SCAN_BYTES: u64 = 1 << 20;

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Insert,
    Delete,
    Modify,
}

/// One client request.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Put { key: Key, kind: Kind, val: u32 },
    Get(Key),
    Scan { begin: Key, end: Key, large: bool },
}

impl Op {
    /// Compact form of a generated update.
    pub fn put(schema: &Schema, key: Key, op: &UpdateOp) -> Op {
        let (kind, val) = match op {
            UpdateOp::Insert(p) | UpdateOp::Replace(p) => (Kind::Insert, schema.get_u32(p, 0)),
            UpdateOp::Delete => (Kind::Delete, 0),
            UpdateOp::Modify(patches) => {
                let v = &patches[0].value;
                (Kind::Modify, u32::from_le_bytes([v[0], v[1], v[2], v[3]]))
            }
        };
        Op::Put { key, kind, val }
    }
}

/// The request an update op sends.
pub fn materialize(schema: &Schema, kind: Kind, val: u32) -> UpdateOp {
    match kind {
        Kind::Insert => {
            let mut payload = schema.empty_payload();
            schema.set_u32(&mut payload, 0, val);
            UpdateOp::Insert(payload)
        }
        Kind::Delete => UpdateOp::Delete,
        Kind::Modify => UpdateOp::Modify(vec![FieldPatch {
            field: 0,
            value: val.to_le_bytes().to_vec(),
        }]),
    }
}

/// Key range `[begin, end]` of a scan of `bytes` starting at a uniform
/// position (records are 100 B, keys step by 2).
fn range(rng: &mut StdRng, table: &SyntheticTable, bytes: u64) -> (Key, Key) {
    let span = (bytes / 100).max(1) * 2;
    let begin = rng.gen_range(0..table.max_key().saturating_sub(span).max(1));
    (begin, begin + span - 1)
}

fn small_scan(rng: &mut StdRng, table: &SyntheticTable) -> Op {
    let (begin, end) = range(rng, table, SMALL_SCAN_BYTES);
    Op::Scan {
        begin,
        end,
        large: false,
    }
}

fn uniform_get(rng: &mut StdRng, table: &SyntheticTable) -> Op {
    Op::Get(rng.gen_range(0..=table.max_key() + 1))
}

/// `n` uniform updates with the default insert/delete/modify mix.
pub fn uniform_puts(table: &SyntheticTable, seed: u64, n: usize) -> Vec<Op> {
    let mut gen = UpdateStreamGen::uniform(table.clone(), UpdateMix::default(), seed);
    (0..n)
        .map(|_| {
            let (key, op) = gen.next_update();
            Op::put(&table.schema, key, &op)
        })
        .collect()
}

/// The read-only query mix over a warm update cache: 4 KB scans and
/// uniform point gets in equal shares, and every 50th op a large scan
/// (1 MB, and every tenth one 10% of the table).
pub fn scan_mix(table: &SyntheticTable, seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tenth = table.records * 100 / 10;
    (0..n)
        .map(|i| {
            if i % 50 == 49 {
                let bytes = if (i / 50) % 10 == 9 {
                    tenth
                } else {
                    MIB_SCAN_BYTES
                };
                let (begin, end) = range(&mut rng, table, bytes);
                Op::Scan {
                    begin,
                    end,
                    large: true,
                }
            } else if rng.gen_bool(0.5) {
                small_scan(&mut rng, table)
            } else {
                uniform_get(&mut rng, table)
            }
        })
        .collect()
}

/// Online updates beside point reads, for the background worker:
/// uniform updates (as in [`uniform_puts`]) and uniform gets, per 100
/// ops 96 puts and 4 gets.
pub fn background(table: &SyntheticTable, seed: u64, n: usize) -> Vec<Op> {
    let mut gen = UpdateStreamGen::uniform(table.clone(), UpdateMix::default(), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|i| {
            if i % 25 == 10 {
                uniform_get(&mut rng, table)
            } else {
                let (key, op) = gen.next_update();
                Op::put(&table.schema, key, &op)
            }
        })
        .collect()
}

/// Queries during online updates: zipfian (θ = 0.99) puts and gets,
/// uniform 4 KB scans. Per 100 ops: 1 scan, 4 gets, 95 puts; every
/// 2000th op is a 1 MB scan.
pub fn mixed(table: &SyntheticTable, seed: u64, n: usize) -> Vec<Op> {
    let mut gen = UpdateStreamGen::zipf(table.clone(), UpdateMix::default(), 0.99, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let zipf = Zipf::new(table.records, 0.99);
    (0..n)
        .map(|i| {
            if i % 2000 == 1999 {
                let (begin, end) = range(&mut rng, table, MIB_SCAN_BYTES);
                Op::Scan {
                    begin,
                    end,
                    large: true,
                }
            } else if i % 100 == 50 {
                small_scan(&mut rng, table)
            } else if i % 25 == 10 {
                // Hot keys: the slot's even key or its odd insert slot.
                Op::Get((zipf.sample(&mut rng) - 1) * 2 + rng.gen_range(0..2u64))
            } else {
                let (key, op) = gen.next_update();
                Op::put(&table.schema, key, &op)
            }
        })
        .collect()
}

/// Reads against a recovered engine (the query probe of the workloads
/// whose phase sends no scans): 4 KB scans and uniform gets in equal
/// shares.
pub fn read_probe(table: &SyntheticTable, seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                small_scan(&mut rng, table)
            } else {
                uniform_get(&mut rng, table)
            }
        })
        .collect()
}

/// `n` uniform 4 KB ranges (the virtual scan-overhead probe).
pub fn small_ranges(table: &SyntheticTable, seed: u64, n: usize) -> Vec<(Key, Key)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| range(&mut rng, table, SMALL_SCAN_BYTES))
        .collect()
}
