//! MaSM benchmark: end-to-end wall-clock and virtual-time metrics of
//! the engine front door on four workloads, and per-layer metrics from
//! a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|scan|background|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Any oracle
//! mismatch, lost acknowledged update, engine error or random SSD write
//! makes `correct` false and the exit code 1. See `perfbench/NOTES.md`
//! for what each workload and metric measures.

mod alloc;
mod backend;
mod calib;
mod ops;
mod oracle;
mod replay;
mod report;
mod trace;
mod world;

use std::sync::Arc;
use std::time::Instant;

use masm_pagestore::Key;
use masm_storage::MIB;
use masm_workloads::synthetic::SyntheticTable;

use crate::alloc::excluded;
use crate::backend::Capture;
use crate::ops::Op;
use crate::oracle::{Oracle, ResultHash};
use crate::report::{p, Metrics};
use crate::world::{config, Crash, Image, Limit, Phase, Window, World};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Table size: the paper's 100 GB scaled down, as in the figure binaries.
const TABLE_MB: u64 = 64;
/// Pre-generated ops per main phase (cycled if a run outlasts them).
const POOL: usize = 600_000;
/// Uniform updates available to the scan workload's cache fill, and
/// the migration cycles the fill runs before filling the flash to half.
const FILL_POOL: usize = 300_000;
const FILL_MIGRATIONS: usize = 2;
/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Recoveries per run (at least the first number, until the second has
/// passed in seconds, copying the crash image included), in two halves
/// before and after the recovered engine's reads; `recovery_ms` is
/// their median.
const RECOVERIES: (usize, f64) = (6, 2.0);
/// Calibration bursts before and after each set-up and each recovery.
const CAL_BURSTS: usize = 15;
/// Share of `--seconds` spent on reads against the recovered engine by
/// the workloads whose phase sends no scans (the rest is the phase).
const PROBE_SHARE: f64 = 0.25;
/// Full-table passes that check the recovered engine.
const CHECK_PASSES: usize = 5;
/// 4 KB ranges of the virtual scan-overhead probe.
const VIRT_RANGES: usize = 300;
/// Heap-page bytes the traced run captures for the replay stage.
const CAPTURE_BYTES: usize = 8 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Scan,
    Background,
    Mixed,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Scan => "scan",
            Workload::Background => "background",
            Workload::Mixed => "mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload ingest|scan|background|mixed --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn num<T: std::str::FromStr>(flag: &str, val: &str) -> T {
    val.parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {val}")))
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: Workload::Ingest,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match val.as_str() {
                    "ingest" => Workload::Ingest,
                    "scan" => Workload::Scan,
                    "background" => Workload::Background,
                    "mixed" => Workload::Mixed,
                    _ => usage(&format!("unknown workload {val}")),
                })
            }
            "--seed" => a.seed = num(&flag, &val),
            "--seconds" => a.seconds = num(&flag, &val),
            "--trace" => a.trace = num::<u8>(&flag, &val) != 0,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        usage("--seconds must be a positive number");
    }
    a
}

/// How each workload runs; see NOTES.md for why.
struct Plan {
    workers: usize,
    limit: Limit,
    /// Wall seconds of reads sent to the recovered engine.
    probe_secs: f64,
}

fn plan(w: Workload, seconds: f64) -> Plan {
    let (workers, window, crash) = match w {
        Workload::Ingest => (0, Window::Migrations(4), Crash::HalfFull),
        Workload::Scan => (0, Window::Ops(5_000), Crash::AtWindow),
        Workload::Background => (1, Window::Ops(50_000), Crash::HalfFull),
        Workload::Mixed => (1, Window::Ops(50_000), Crash::AtWindow),
    };
    let probe_secs = if matches!(w, Workload::Ingest | Workload::Background) {
        seconds * PROBE_SHARE
    } else {
        0.0
    };
    Plan {
        workers,
        limit: Limit {
            window,
            seconds: seconds - probe_secs,
            crash,
            fill_to: None,
        },
        probe_secs,
    }
}

/// A loaded engine with its pre-generated inputs.
struct Setup {
    world: World,
    ops: Vec<Op>,
    /// The scan workload's cache fill: its updates and its phase.
    fill: Option<(Vec<Op>, Phase)>,
    secs: report::Timed,
    /// Live engine bytes before the engine was built.
    live0: i64,
}

/// `f`'s wall seconds and the calibration burst time around it (the
/// mean of the medians of bursts run just before and just after).
fn calibrated<T>(f: impl FnOnce() -> T) -> (T, report::Timed) {
    let before = calib::measure(CAL_BURSTS);
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let after = calib::measure(CAL_BURSTS);
    let mean = [(before[0] + after[0]) / 2.0, (before[1] + after[1]) / 2.0];
    (out, (secs, mean))
}

fn setup(a: &Args, table: &SyntheticTable, plan: &Plan, capture: &Arc<Capture>) -> Setup {
    let (mut s, timed) = calibrated(|| setup_once(a, table, plan, capture));
    s.secs = timed;
    s
}

fn setup_once(a: &Args, table: &SyntheticTable, plan: &Plan, capture: &Arc<Capture>) -> Setup {
    let live0 = alloc::live();
    let cfg = config(table.records * 100, plan.workers);
    let world = World::load(table, &cfg, capture);
    let ops = excluded(|| match a.workload {
        Workload::Ingest => ops::uniform_puts(table, a.seed, POOL),
        Workload::Scan => ops::scan_mix(table, a.seed, POOL),
        Workload::Background => ops::background(table, a.seed, POOL),
        Workload::Mixed => ops::mixed(table, a.seed, POOL),
    });
    let fill = (a.workload == Workload::Scan).then(|| {
        let fill_ops = excluded(|| ops::uniform_puts(table, a.seed ^ 0xf111, FILL_POOL));
        trace::set_enabled(a.trace);
        let limit = Limit {
            window: Window::Migrations(FILL_MIGRATIONS),
            seconds: 0.0,
            crash: Crash::Never,
            fill_to: Some(world.cfg.ssd_capacity / 2),
        };
        let phase = world.run(&fill_ops, &limit);
        (fill_ops, phase)
    });
    Setup {
        world,
        ops,
        fill,
        secs: (0.0, [0.0; 2]),
        live0,
    }
}

/// Results of checking a phase's reads against the oracle.
#[derive(Default)]
struct Checked {
    reads: u64,
    mismatches: u64,
}

/// Walk the client's op sequence through the oracle, comparing every
/// read; returns the check and the oracle as of `snapshot_at` ops.
fn check_phase(
    oracle: &mut Oracle,
    schema: &masm_pagestore::Schema,
    ops: &[Op],
    phase: &Phase,
    snapshot_at: Option<u64>,
) -> (Checked, Option<Oracle>) {
    let mut c = Checked::default();
    let mut reads = phase.reads.iter().peekable();
    let mut snap = None;
    for i in 0..phase.ops_done {
        if Some(i) == snapshot_at {
            snap = Some(oracle.clone());
        }
        let expect = match ops[i as usize % ops.len()] {
            Op::Put { key, kind, val } => {
                oracle.apply(key, ops::materialize(schema, kind, val));
                continue;
            }
            Op::Get(key) => oracle.get(key),
            Op::Scan { begin, end, .. } => oracle.scan(begin, end),
        };
        c.reads += 1;
        match reads.next() {
            Some(&(j, got)) if j == i && got == expect => {}
            got => {
                c.mismatches += 1;
                if c.mismatches <= 10 {
                    eprintln!(
                        "oracle mismatch at op {i} ({:?}): expected {expect:?}, got {got:?}",
                        ops[i as usize % ops.len()]
                    );
                }
            }
        }
    }
    if snap.is_none() && snapshot_at.is_some() {
        snap = Some(oracle.clone());
    }
    (c, snap)
}

/// Keys whose recovered state differs from the oracle in `[begin, end]`.
fn lost_keys(w: &World, oracle: &mut Oracle, begin: Key, end: Key) -> u64 {
    let mut got = std::collections::BTreeMap::new();
    if let Ok(scan) = w.engine.scan(begin, end) {
        for r in scan {
            let mut h = ResultHash::default();
            h.add(r.key, &r.payload);
            got.insert(r.key, h);
        }
    }
    (begin..=end.min(oracle.max_key()))
        .filter(|&k| {
            let expect = oracle.get(k);
            let seen = got.get(&k).copied().unwrap_or_default();
            expect != seen
        })
        .count() as u64
}

/// Merged ÷ pure-heap virtual time over the same 4 KB ranges, on a
/// quiescent engine, each pass starting from an unknown head position.
fn virt_scan_overhead(w: &World, ranges: &[(Key, Key)]) -> f64 {
    let clock = &w.m.clock;
    let heap = Arc::clone(w.engine.shards()[0].heap());
    w.m.disk.invalidate_head_position();
    w.m.ssd.invalidate_head_position();
    let mut merged = 0u64;
    for &(b, e) in ranges {
        let t0 = clock.now();
        let n = w.engine.scan(b, e).map(Iterator::count).unwrap_or(0);
        std::hint::black_box(n);
        merged += clock.now() - t0;
    }
    w.m.disk.invalidate_head_position();
    let mut pure = 0u64;
    for &(b, e) in ranges {
        let session = masm_storage::SessionHandle::fresh(clock.clone());
        let t0 = clock.now();
        std::hint::black_box(heap.scan_range(session, b, e).count());
        pure += clock.now() - t0;
    }
    merged as f64 / pure.max(1) as f64
}

/// Ten scans covering the whole table, 10% each.
fn slices(table: &SyntheticTable) -> Vec<Op> {
    let top = table.max_key() + 1;
    (0..10u64)
        .map(|s| Op::Scan {
            begin: top * s / 10,
            end: (top * (s + 1) / 10).saturating_sub(1).max(top * s / 10),
            large: true,
        })
        .collect()
}

/// Everything measured after the main phase.
struct Epilogue {
    recovery_ms: Vec<report::Timed>,
    replayed: u64,
    recovered: u64,
    runs_recovered: usize,
    lost: u64,
    virt_overhead: f64,
    /// Reads of the probe and of the full-table check.
    probe: Phase,
    probe_ops: Vec<Op>,
    check: Phase,
    checked: Checked,
    random_writes: u64,
    errors: u64,
}

/// Recover from `image` at least half of `RECOVERIES`' minimum times and
/// for half its seconds, appending each `recover` wall time with the
/// calibration around it; returns the last recovered engine. The
/// recovered engine runs no background worker, so the reads sent to it
/// see a quiescent engine.
fn recover_for(
    s: &Setup,
    image: &Image,
    capture: &Arc<Capture>,
    recovery_ms: &mut Vec<report::Timed>,
    errors: &mut u64,
) -> Option<(World, masm_core::ShardedRecoveryReport)> {
    let w = &s.world;
    let cfg = config(w.table.records * 100, 0);
    let (min_recoveries, recovery_secs) = RECOVERIES;
    let (min, secs) = (min_recoveries.div_ceil(2), recovery_secs / 2.0);
    let t0 = Instant::now();
    let mut last = None;
    let mut n = 0;
    while n < min || (t0.elapsed().as_secs_f64() < secs && n < 15) {
        last = None;
        let (r, (_, burst)) = calibrated(|| World::recover(&w.table, &cfg, capture, image));
        match r {
            Ok((rw, report, t)) => {
                recovery_ms.push((t.wall_ns as f64 / 1e6, burst));
                last = Some((rw, report));
            }
            Err(e) => {
                eprintln!("recovery failed: {e}");
                *errors += 1;
                break;
            }
        }
        n += 1;
    }
    last
}

fn epilogue(
    a: &Args,
    s: &Setup,
    plan: &Plan,
    image: &Image,
    oracle_w: &mut Oracle,
    capture: &Arc<Capture>,
) -> Epilogue {
    let w = &s.world;
    let schema = &w.table.schema;
    let mut recovery_ms = Vec::new();
    let mut errors = 0;
    let probe_ops = excluded(|| ops::read_probe(&w.table, a.seed ^ 0x9b0be, POOL / 10));
    // Half the recoveries now, half after the reads, so one burst of
    // host interference cannot cover them all.
    let last = recover_for(s, image, capture, &mut recovery_ms, &mut errors);
    let Some((rw, report)) = last else {
        return Epilogue {
            recovery_ms: Vec::new(),
            replayed: 0,
            recovered: 0,
            runs_recovered: 0,
            lost: 0,
            virt_overhead: 0.0,
            probe: Phase::default(),
            probe_ops,
            check: Phase::default(),
            checked: Checked::default(),
            random_writes: 0,
            errors: errors.max(1),
        };
    };
    let ranges = excluded(|| ops::small_ranges(&w.table, a.seed ^ 0x5ca1, VIRT_RANGES));
    let virt_overhead = virt_scan_overhead(&rw, &ranges);
    // The reads the phase does not send, in one pass.
    let probe = rw.run(
        &probe_ops,
        &Limit {
            seconds: plan.probe_secs,
            ..Limit::ops(0)
        },
    );
    let (mut checked, _) = excluded(|| check_phase(oracle_w, schema, &probe_ops, &probe, None));
    // Every run checks the recovered table in full, ten slices a pass.
    let check_ops: Vec<Op> = (0..CHECK_PASSES).flat_map(|_| slices(&w.table)).collect();
    let check = rw.run(&check_ops, &Limit::ops(check_ops.len()));
    let (c, _) = excluded(|| check_phase(oracle_w, schema, &check_ops, &check, None));
    checked.reads += c.reads;
    checked.mismatches += c.mismatches;
    // A mismatching slice is broken down into the keys it lost.
    let mut lost = 0;
    for &(idx, got) in check.reads.iter().take(10) {
        if let Op::Scan { begin, end, .. } = check_ops[idx as usize] {
            if got != oracle_w.scan(begin, end) {
                lost += excluded(|| lost_keys(&rw, oracle_w, begin, end));
            }
        }
    }
    let random_writes = rw.engine.stats().total.ssd.random_writes;
    drop(rw);
    recover_for(s, image, capture, &mut recovery_ms, &mut errors);
    Epilogue {
        recovery_ms,
        replayed: report.wal_records_replayed(),
        recovered: report.updates_recovered(),
        runs_recovered: report.runs_recovered(),
        lost,
        virt_overhead,
        errors: errors + probe.errors + check.errors,
        probe,
        probe_ops,
        check,
        checked,
        random_writes,
    }
}

fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".into(),
            |s| s.trim().into(),
        )
}

fn main() {
    let a = parse_args();
    let table = SyntheticTable::with_bytes(TABLE_MB * MIB);
    let plan = plan(a.workload, a.seconds);
    let capture = Capture::new(CAPTURE_BYTES);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} table={} MiB ({} records) \
         flash={} KiB nproc={} rustc=\"{}\" git={}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        TABLE_MB,
        table.records,
        config(table.records * 100, 0).ssd_capacity / 1024,
        nproc,
        rustc_version(),
        git_revision()
    );

    // Set-up: several times, median reported; the last one is used.
    let mut setup_secs = Vec::new();
    let mut fills: Vec<Phase> = Vec::new();
    let reference = if a.trace {
        // Untraced reference window for `trace.overhead_frac`.
        let s = setup(&Args { trace: false, ..a }, &table, &plan, &capture);
        let window = Limit {
            crash: Crash::Never,
            seconds: 0.0,
            ..plan.limit
        };
        Some(s.world.run(&s.ops, &window))
    } else {
        None
    };
    let mut s = None;
    let setups = if a.trace { 1 } else { SETUPS };
    for _ in 0..setups {
        drop(s.take());
        let next = setup(&a, &table, &plan, &capture);
        setup_secs.push(next.secs);
        s = Some(next);
        if let Some((_, f)) = &s.as_ref().expect("just set").fill {
            fills.push(excluded(|| clone_samples(f)));
        }
    }
    let s = s.expect("at least one setup");

    // The timed phase.
    trace::set_enabled(a.trace);
    capture.set(a.trace);
    let phase = s.world.run(&s.ops, &plan.limit);
    capture.set(false);
    let mem_peak = (alloc::peak() - s.live0) as f64 / MIB as f64;

    // Oracle: replay the acknowledged updates, check every read.
    let mut oracle = excluded(|| Oracle::new(&table));
    if let Some((fill_ops, f)) = &s.fill {
        excluded(|| check_phase(&mut oracle, &table.schema, fill_ops, f, None));
    }
    let crash_at = phase.image.as_ref().map(|_| phase.crash_at);
    let (checked, oracle_w) =
        excluded(|| check_phase(&mut oracle, &table.schema, &s.ops, &phase, crash_at));
    drop(oracle);
    let (Some(image), Some(mut oracle_w)) = (phase.image.as_ref(), oracle_w) else {
        println!(
            "check: the phase stopped before its crash point ({} errors)",
            phase.errors
        );
        Metrics::default().print(false, phase.ops_done.max(1), phase.errors.max(1));
        std::process::exit(1);
    };
    let ep = epilogue(&a, &s, &plan, image, &mut oracle_w, &capture);
    let live_random_writes = s.world.engine.stats().total.ssd.random_writes;

    let attempted = phase.ops_done
        + fills.iter().map(|f| f.ops_done).sum::<u64>()
        + ep.probe.ops_done
        + ep.check.ops_done
        + ep.recovery_ms.len() as u64;
    let failed = phase.errors
        + checked.mismatches
        + ep.errors
        + ep.checked.mismatches
        + ep.lost
        + fills.iter().map(|f| f.errors).sum::<u64>();
    let random_writes = live_random_writes + ep.random_writes;
    let correct = failed == 0 && random_writes == 0;
    println!(
        "recovery: {} runs and {} buffered updates recovered, {} WAL records replayed",
        ep.runs_recovered, ep.recovered, ep.replayed
    );
    println!(
        "check: reads={} mismatches={} recovered-engine reads={} mismatches={} lost_acked_updates={} \
         errors={} random_writes={} -> {}",
        checked.reads,
        checked.mismatches,
        ep.checked.reads,
        ep.checked.mismatches,
        ep.lost,
        phase.errors + ep.errors,
        random_writes,
        if correct { "ok" } else { "FAILED" }
    );

    let b = report::burst_ns(&phase);
    println!(
        "calibration: median burst {} + {} us during the phase, reference {} + {} us; \
         wall metrics are scaled to the reference",
        p(b[0] / 1e3),
        p(b[1] / 1e3),
        p(calib::REF_BURST_NS[0] / 1e3),
        p(calib::REF_BURST_NS[1] / 1e3)
    );
    let mut m = Metrics::default();
    let ops_failed_frac = failed as f64 / attempted.max(1) as f64;
    if a.trace {
        trace::set_enabled(false);
        let rp = {
            let get_keys: Vec<Key> = s
                .ops
                .iter()
                .chain(&ep.probe_ops)
                .filter_map(|o| match o {
                    Op::Get(k) => Some(*k),
                    _ => None,
                })
                .take(50_000)
                .collect();
            // Updates per flush, from whichever phase wrote.
            let writes = match &s.fill {
                Some((_, f)) => report::whole(f),
                None => report::whole(&phase),
            };
            let batch = (writes.stats.ingested_updates / writes.stats.ops.flush.count.max(1)).max(1)
                as usize;
            replay::run(
                image,
                &capture,
                &get_keys,
                &s.world.cfg,
                &table.schema,
                batch,
            )
        };
        let path = format!(
            "perfbench/out/trace-{}-seed{}.json",
            a.workload.name(),
            a.seed
        );
        match trace::write_file(std::path::Path::new(&path)) {
            Ok((n, dropped)) => println!("trace: {n} spans written to {path} ({dropped} not kept)"),
            Err(e) => println!("trace: could not write {path}: {e}"),
        }
        let reference = reference.expect("traced runs measure a reference");
        let src = report::Sources {
            phase: &phase,
            fills: s.fill.as_ref().map_or(&[], |f| std::slice::from_ref(&f.1)),
            probe: &ep.probe,
            check: &ep.check,
        };
        report::per_layer(
            &mut m,
            a.workload,
            &src,
            &rp,
            ep.replayed,
            ep.recovered,
            &reference,
        );
        m.add("ops_failed_frac", ops_failed_frac, "ratio", attempted);
    } else {
        let e2e = report::E2e {
            src: report::Sources {
                phase: &phase,
                fills: &fills,
                probe: &ep.probe,
                check: &ep.check,
            },
            setup_secs: &setup_secs,
            recovery_ms: &ep.recovery_ms,
            mem_peak_mb: mem_peak,
            virt_overhead: ep.virt_overhead,
        };
        let mut unscaled = Metrics::default();
        calib::set_scaling(false);
        e2e.fill(&mut unscaled);
        calib::set_scaling(true);
        unscaled.print_lines("unscaled ");
        e2e.fill(&mut m);
        println!(
            "ops_failed_frac = {} ratio (failed {failed} of {attempted} attempted; not a bounded metric)",
            p(ops_failed_frac)
        );
    }
    m.print(correct, attempted, failed);
    if !correct {
        std::process::exit(1);
    }
}

fn clone_samples(f: &Phase) -> Phase {
    Phase {
        ops_done: f.ops_done,
        wall_ns: f.wall_ns,
        errors: f.errors,
        puts: f.puts,
        put_ns: f.put_ns.clone(),
        slices: f.slices.clone(),
        start: f.start,
        window: f.window,
        end: f.end,
        ..Phase::default()
    }
}
