//! Transactions over MaSM (§3.6): snapshot isolation with
//! first-committer-wins, and two-phase locking with visibility at lock
//! release.
//!
//! Run with: `cargo run --release -p masm-bench --example transactions`

use std::sync::Arc;

use masm_core::txn::{LockManager, LockingTransaction, Transaction};
use masm_core::update::UpdateOp;
use masm_core::{MasmConfig, MasmError, ShardedEngine};
use masm_pagestore::{HeapConfig, Record, Schema, TableHeap};
use masm_storage::{DeviceProfile, SessionHandle, SimClock, SimDevice};

fn main() {
    let clock = SimClock::new();
    let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
    let ssd = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let wal = SimDevice::in_memory(DeviceProfile::ssd_x25e(), clock.clone());
    let schema = Schema::synthetic_100b();
    let session = SessionHandle::fresh(clock.clone());

    let heap = Arc::new(TableHeap::new(disk, HeapConfig::default()));
    let engine = ShardedEngine::new(
        heap,
        vec![ssd],
        vec![wal],
        schema.clone(),
        MasmConfig::small_for_tests(),
    )
    .unwrap();
    engine
        .load_table(
            &session,
            (0..1_000u64).map(|i| {
                let mut p = schema.empty_payload();
                schema.set_u32(&mut p, 0, i as u32);
                Record::new(i * 2, p)
            }),
            1.0,
        )
        .unwrap();

    // --- Snapshot isolation -------------------------------------------
    let mut alice = Transaction::begin(&engine);
    let mut bob = Transaction::begin(&engine);

    // Both read the same snapshot; Alice writes key 100, Bob writes 100
    // and 102.
    alice.write(100, UpdateOp::Replace(payload(&schema, 1111)));
    bob.write(100, UpdateOp::Replace(payload(&schema, 2222)));
    bob.write(102, UpdateOp::Replace(payload(&schema, 2222)));

    // Alice sees her own uncommitted write; the world does not.
    let mine = alice.scan(100, 100).unwrap().next().unwrap();
    println!(
        "alice reads her own staged write: measure = {}",
        schema.get_u32(&mine.payload, 0)
    );

    let ts = alice.commit(&session).unwrap();
    println!("alice committed at ts {ts}");
    match bob.commit(&session) {
        Err(MasmError::Conflict { key }) => {
            println!("bob aborted: first-committer-wins conflict on key {key}")
        }
        other => panic!("expected a conflict, got {other:?}"),
    }

    // --- Two-phase locking --------------------------------------------
    let locks = LockManager::new();
    let mut txn = LockingTransaction::begin(&engine, &locks);
    txn.write(200, UpdateOp::Replace(payload(&schema, 9999)));
    // The write is invisible until the lock is released at commit.
    let before = engine.scan(200, 200).unwrap().next().unwrap();
    println!(
        "\nunder 2PL, before commit the world sees measure = {}",
        schema.get_u32(&before.payload, 0)
    );
    txn.commit(&session).unwrap();
    let after = engine.scan(200, 200).unwrap().next().unwrap();
    println!(
        "after lock release it sees measure = {}",
        schema.get_u32(&after.payload, 0)
    );
}

fn payload(schema: &Schema, v: u32) -> Vec<u8> {
    let mut p = schema.empty_payload();
    schema.set_u32(&mut p, 0, v);
    p
}
