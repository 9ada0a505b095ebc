//! Property-based integration tests: MaSM against a model oracle.
//!
//! The oracle is a `BTreeMap<Key, Vec<u8>>` applying the same update
//! semantics in memory. For any random sequence of well-formed updates
//! interleaved with scans, migrations, and crash-recoveries, every MaSM
//! scan must equal the oracle's range dump.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use masm_core::update::{FieldPatch, UpdateOp};
use masm_core::{MasmConfig, ShardedEngine};
use masm_pagestore::{HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

fn schema() -> Schema {
    Schema::synthetic_100b()
}

#[derive(Debug, Clone)]
enum Action {
    Insert { slot: u64, measure: u32 },
    Delete { slot: u64 },
    Modify { slot: u64, measure: u32 },
    Scan { begin_slot: u64, end_slot: u64 },
    Migrate,
    CrashRecover,
}

fn action_strategy(slots: u64) -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0..slots, any::<u32>()).prop_map(|(slot, measure)| Action::Insert { slot, measure }),
        3 => (0..slots).prop_map(|slot| Action::Delete { slot }),
        3 => (0..slots, any::<u32>()).prop_map(|(slot, measure)| Action::Modify { slot, measure }),
        2 => (0..slots, 0..slots).prop_map(|(a, b)| Action::Scan {
            begin_slot: a.min(b),
            end_slot: a.max(b),
        }),
        1 => Just(Action::Migrate),
        1 => Just(Action::CrashRecover),
    ]
}

fn payload_with(measure: u32) -> Vec<u8> {
    let s = schema();
    let mut p = s.empty_payload();
    s.set_u32(&mut p, 0, measure);
    p
}

struct Oracle {
    map: BTreeMap<Key, Vec<u8>>,
}

impl Oracle {
    fn apply(&mut self, key: Key, op: &UpdateOp) {
        match op {
            UpdateOp::Insert(p) | UpdateOp::Replace(p) => {
                self.map.insert(key, p.clone());
            }
            UpdateOp::Delete => {
                self.map.remove(&key);
            }
            UpdateOp::Modify(patches) => {
                if let Some(p) = self.map.get_mut(&key) {
                    let s = schema();
                    for patch in patches {
                        s.set(p, patch.field as usize, &patch.value);
                    }
                }
            }
        }
    }

    fn dump(&self, begin: Key, end: Key) -> Vec<(Key, Vec<u8>)> {
        self.map
            .range(begin..=end)
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }
}

fn run_scenario(slots: u64, actions: Vec<Action>) {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let session = SessionHandle::fresh(clock.clone());

    let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
    let cfg = MasmConfig::small_for_tests();
    let mut engine =
        ShardedEngine::new(heap, vec![ssd.clone()], vec![wal.clone()], schema(), cfg).unwrap();
    let base: Vec<Record> = (0..slots)
        .map(|i| Record::new(i * 2, payload_with(i as u32)))
        .collect();
    engine.load_table(&session, base.clone(), 1.0).unwrap();

    let mut oracle = Oracle {
        map: base.into_iter().map(|r| (r.key, r.payload)).collect(),
    };

    for action in actions {
        match action {
            Action::Insert { slot, measure } => {
                let key = slot * 2 + 1;
                let op = UpdateOp::Insert(payload_with(measure));
                oracle.apply(key, &op);
                engine.put(&session, key, op).unwrap();
            }
            Action::Delete { slot } => {
                let key = slot * 2;
                oracle.apply(key, &UpdateOp::Delete);
                engine.put(&session, key, UpdateOp::Delete).unwrap();
            }
            Action::Modify { slot, measure } => {
                let key = slot * 2;
                let op = UpdateOp::Modify(vec![FieldPatch {
                    field: 0,
                    value: measure.to_le_bytes().to_vec(),
                }]);
                oracle.apply(key, &op);
                engine.put(&session, key, op).unwrap();
            }
            Action::Scan {
                begin_slot,
                end_slot,
            } => {
                let (b, e) = (begin_slot * 2, end_slot * 2 + 1);
                let got: Vec<(Key, Vec<u8>)> = engine
                    .scan(b, e)
                    .unwrap()
                    .map(|r| (r.key, r.payload))
                    .collect();
                assert_eq!(got, oracle.dump(b, e), "scan [{b}, {e}] diverged");
            }
            Action::Migrate => {
                engine.shards()[0].migrate(&session).unwrap();
            }
            Action::CrashRecover => {
                drop(engine);
                let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
                engine = ShardedEngine::recover(
                    heap,
                    vec![ssd.clone()],
                    vec![wal.clone()],
                    schema(),
                    MasmConfig::small_for_tests(),
                )
                .unwrap()
                .0;
            }
        }
    }
    // Final full check.
    let got: Vec<(Key, Vec<u8>)> = engine
        .scan(0, u64::MAX)
        .unwrap()
        .map(|r| (r.key, r.payload))
        .collect();
    assert_eq!(got, oracle.dump(0, u64::MAX), "final full scan diverged");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    #[test]
    fn masm_matches_oracle(actions in proptest::collection::vec(action_strategy(64), 1..120)) {
        run_scenario(64, actions);
    }

    #[test]
    fn masm_matches_oracle_dense_keyspace(
        actions in proptest::collection::vec(action_strategy(8), 1..200)
    ) {
        // Tiny key space: heavy duplicate traffic exercises the
        // fold/merge paths hard.
        run_scenario(8, actions);
    }
}

#[test]
fn regression_delete_insert_delete_same_key() {
    run_scenario(
        4,
        vec![
            Action::Delete { slot: 1 },
            Action::Insert {
                slot: 1,
                measure: 5,
            },
            Action::Scan {
                begin_slot: 0,
                end_slot: 3,
            },
            Action::Delete { slot: 1 },
            Action::Migrate,
            Action::Scan {
                begin_slot: 0,
                end_slot: 3,
            },
            Action::CrashRecover,
            Action::Scan {
                begin_slot: 0,
                end_slot: 3,
            },
        ],
    );
}

#[test]
fn regression_migrate_on_empty_then_insert() {
    run_scenario(
        4,
        vec![
            Action::Migrate,
            Action::Insert {
                slot: 0,
                measure: 1,
            },
            Action::Migrate,
            Action::CrashRecover,
            Action::Scan {
                begin_slot: 0,
                end_slot: 3,
            },
        ],
    );
}
