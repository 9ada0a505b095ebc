//! §4.2 "HDD as Update Cache": replace the SSD update cache with a
//! second SATA disk.
//!
//! Paper result: 28.8× query slowdown at 1 MB ranges and 4.7× at 10 MB —
//! the disk's terrible random-read latency makes the per-run cache reads
//! dominate small scans. "This shows the significance of MaSM's use of
//! SSDs for the update cache."

use masm_bench::*;
use masm_storage::{DeviceProfile, SimDevice, MIB};

fn build(cache_profile: DeviceProfile, mb: u64) -> SyntheticEnv {
    // The cache device profile is ours.
    let machine = Machine::new();
    let cache = SimDevice::in_memory(cache_profile, machine.clock.clone());
    let mut cfg = scaled_masm_config(mb * MIB);
    cfg.migration_threshold = 1.0;
    SyntheticEnv::with_cache_device(machine, cache, mb * MIB, cfg)
}

fn avg(ns: Vec<u64>) -> u64 {
    ns.iter().sum::<u64>() / ns.len().max(1) as u64
}

fn main() {
    let mb = scale_mb();
    let baseline = SyntheticEnv::new(mb);

    let ssd_env = build(DeviceProfile::ssd_x25e(), mb);
    ssd_env.fill_cache(0.5, 42);
    let hdd_env = build(DeviceProfile::hdd_barracuda(), mb);
    hdd_env.fill_cache(0.5, 42);

    let mut rows = Vec::new();
    for &size in &[MIB, 10 * MIB] {
        let ranges = baseline.ranges(size, 5);
        let base = avg(ranges
            .iter()
            .map(|&(b, e)| baseline.time_pure_scan(b, e))
            .collect());
        let ssd = avg(ranges
            .iter()
            .map(|&(b, e)| ssd_env.time_masm_scan(b, e))
            .collect());
        let hdd = avg(ranges
            .iter()
            .map(|&(b, e)| hdd_env.time_masm_scan(b, e))
            .collect());
        rows.push(vec![size_label(size), ratio(ssd, base), ratio(hdd, base)]);
    }
    print_table(
        &format!("§4.2 — SSD vs HDD as the update cache (table {mb} MiB, cache 50% full)"),
        &["range", "MaSM w/ SSD cache", "MaSM w/ HDD cache"],
        &rows,
    );
    println!(
        "\npaper shape: HDD cache slows 1 MB scans ~28.8x and 10 MB scans ~4.7x;\n\
         the SSD cache stays within a few percent of the pure scan."
    );
}
