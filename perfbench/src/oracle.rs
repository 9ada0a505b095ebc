//! The serial oracle of acknowledged updates and the result hashes the
//! benchmark compares against it.
//!
//! Every record of the synthetic table (and every update the workload
//! generator makes) has a payload that is all zeros except field 0, so
//! the oracle keeps one `u64` per key: [`ABSENT`] or field 0's value.
//! Updates are applied through [`UpdateRecord::apply_to`], the engine's
//! own per-record semantics, one acknowledged update at a time in the
//! client's order.

use masm_core::{UpdateOp, UpdateRecord};
use masm_pagestore::{Key, Record, Schema};
use masm_workloads::synthetic::SyntheticTable;

const ABSENT: u64 = u64::MAX;

/// Order-sensitive hash of a result: rows folded in key order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultHash {
    pub hash: u64,
    pub rows: u64,
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ResultHash {
    /// Fold one row into the hash.
    #[inline]
    pub fn add(&mut self, key: Key, payload: &[u8]) {
        let mut h = mix(key ^ payload.len() as u64);
        let mut words = payload.chunks_exact(8);
        for w in &mut words {
            h = mix(h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for (i, b) in words.remainder().iter().enumerate() {
            h ^= (*b as u64) << (8 * i);
        }
        self.hash = mix(self.hash ^ mix(h));
        self.rows += 1;
    }
}

/// The table state implied by the updates acknowledged so far.
#[derive(Clone)]
pub struct Oracle {
    state: Vec<u64>,
    schema: Schema,
    payload: Vec<u8>,
}

impl Oracle {
    /// The freshly loaded table.
    pub fn new(table: &SyntheticTable) -> Oracle {
        let keys = (table.max_key() + 2) as usize;
        let state = (0..keys)
            .map(|k| {
                if k % 2 == 0 {
                    let r = table.record(k as u64 / 2);
                    table.schema.get_u32(&r.payload, 0) as u64
                } else {
                    ABSENT
                }
            })
            .collect();
        Oracle {
            state,
            schema: table.schema.clone(),
            payload: table.schema.empty_payload(),
        }
    }

    fn record(&self, key: Key) -> Option<Record> {
        let v = *self.state.get(key as usize)?;
        (v != ABSENT).then(|| {
            let mut payload = self.schema.empty_payload();
            self.schema.set_u32(&mut payload, 0, v as u32);
            Record::new(key, payload)
        })
    }

    /// Apply one acknowledged update.
    pub fn apply(&mut self, key: Key, op: UpdateOp) {
        let after = UpdateRecord::new(0, key, op).apply_to(self.record(key), &self.schema);
        self.state[key as usize] =
            after.map_or(ABSENT, |r| self.schema.get_u32(&r.payload, 0) as u64);
    }

    fn fold(&mut self, h: &mut ResultHash, key: Key, v: u64) {
        self.schema.set_u32(&mut self.payload, 0, v as u32);
        h.add(key, &self.payload);
    }

    /// Expected hash of a point lookup.
    pub fn get(&mut self, key: Key) -> ResultHash {
        let mut h = ResultHash::default();
        if let Some(&v) = self.state.get(key as usize) {
            if v != ABSENT {
                self.fold(&mut h, key, v);
            }
        }
        h
    }

    /// Expected hash of a range scan of `[begin, end]`.
    pub fn scan(&mut self, begin: Key, end: Key) -> ResultHash {
        let mut h = ResultHash::default();
        let hi = end.min(self.state.len() as u64 - 1);
        for key in begin..=hi {
            let v = self.state[key as usize];
            if v != ABSENT {
                self.fold(&mut h, key, v);
            }
        }
        h
    }

    /// Highest key the oracle tracks.
    pub fn max_key(&self) -> Key {
        self.state.len() as u64 - 1
    }
}
