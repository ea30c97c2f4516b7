//! Ablation bench: hash-probe throughput versus hash-table working-set
//! size — the mechanism behind the paper's observation that HEF's speedup
//! ratio changes with the SSB scale factor ("the different size hash tables
//! are stored in different levels of cache").
//!
//! Tables are sized to land in L1, L2, LLC, and memory. Two memory
//! strategies compete at every size:
//!
//! * **flat** — the original single hash table, no prefetch;
//! * **prefetch** — the same table probed through the AMAC-style
//!   interleaved loop with `f` probes in flight (`KernelIo::Probe`'s
//!   `prefetch` field).
//!
//! The expected crossover: in-cache tables gain nothing (flat wins or
//! ties), DRAM-resident tables gain >1.3× from prefetching. The run is
//! persisted to `results/bench_probe.json` (see `hef_bench::BenchSnapshot`);
//! `--smoke` shrinks sizes and samples for CI; `--compare` prints a trend
//! table against the previously archived snapshot (advisory only — never
//! fails the run) before overwriting it.

use hef_bench::BenchSnapshot;
use hef_kernels::{run, Family, HybridConfig, KernelIo, ProbeTable};
use hef_testutil::bench::Group;
use hef_testutil::Rng;

fn table_with(entries: usize) -> ProbeTable {
    let mut t = ProbeTable::with_capacity(entries);
    for k in 0..entries as u64 {
        t.insert(k * 2 + 1, k % 1000);
    }
    t
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let compare = std::env::args().any(|a| a == "--compare");
    hef_obs::metrics::enable();

    let nkeys = if smoke { 1 << 14 } else { 1 << 18 };
    // entries → table bytes ≈ entries*2(load factor)*16: 1k≈32KiB (L1/L2),
    // 16k≈512KiB (L2), 256k≈8MiB (LLC), 2M≈64MiB (LLC boundary on big
    // server parts), 8M≈256MiB (firmly DRAM — several times any LLC, so the
    // crossover number is robust to run-to-run cache-share variance).
    let sizes: &[usize] = if smoke {
        &[1_000, 64_000]
    } else {
        &[1_000, 16_000, 256_000, 2_000_000, 8_000_000]
    };
    let samples = if smoke { 3 } else { 10 };
    let depths: &[usize] = if smoke { &[16] } else { &[8, 16, 32] };

    let mut snap = BenchSnapshot::new(if smoke { "probe_smoke" } else { "probe" });
    snap.config("nkeys", nkeys)
        .config("smoke", smoke)
        .config("samples", samples)
        .config("sizes", format!("{sizes:?}"))
        .config("depths", format!("{depths:?}"));

    let mut rng = Rng::seed_from_u64(11);
    // (working-set bytes, best flat, best memory-parallel) per size.
    let mut crossover: Vec<(usize, f64, f64)> = Vec::new();

    for &entries in sizes {
        let table = table_with(entries);
        let keys: Vec<u64> = (0..nkeys)
            .map(|_| rng.gen_range(0..entries as u64 * 2))
            .collect();
        let mut out = vec![0u64; nkeys];

        let group = format!("probe_ws_{}kib", table.working_set_bytes() / 1024);
        let mut g = Group::new(group.clone())
            .throughput_elems(nkeys as u64)
            .samples(samples);
        let mut best_flat = f64::INFINITY;
        let mut best_mem = f64::INFINITY;

        let configs = [
            ("scalar", HybridConfig::SCALAR),
            ("simd", HybridConfig::SIMD),
            ("hybrid_n113", HybridConfig::new(1, 1, 3)),
            ("hybrid_n404", HybridConfig::new(4, 0, 4)),
        ];

        // Flat baselines.
        for (label, cfg) in configs {
            let s = g.bench(label, || {
                let mut io =
                    KernelIo::Probe { keys: &keys, table: &table, out: &mut out, prefetch: 0 };
                assert!(run(Family::Probe, cfg, &mut io));
            });
            best_flat = best_flat.min(s.median);
            snap.row(&group, label, s, Some(nkeys as u64));
        }
        // Software-prefetched (AMAC ring) at each depth.
        for &f in depths {
            for (name, cfg) in [("scalar", HybridConfig::SCALAR), ("hybrid_n113", HybridConfig::new(1, 1, 3))] {
                let label = format!("{name}_f{f}");
                let s = g.bench(label.clone(), || {
                    let mut io =
                        KernelIo::Probe { keys: &keys, table: &table, out: &mut out, prefetch: f };
                    assert!(run(Family::Probe, cfg, &mut io));
                });
                best_mem = best_mem.min(s.median);
                snap.row(&group, &label, s, Some(nkeys as u64));
            }
        }
        g.finish();
        crossover.push((table.working_set_bytes(), best_flat, best_mem));
    }

    // The crossover summary: memory-parallel speedup over the best flat
    // config at each working-set size.
    println!("memory-parallel speedup by working set:");
    for &(ws, flat, mem) in &crossover {
        let speedup = flat / mem;
        println!("  {:>9} KiB: {:.2}x", ws / 1024, speedup);
        snap.derived(&format!("speedup_ws_{}kib", ws / 1024), speedup);
    }
    if let Some(&(ws, flat, mem)) = crossover.last() {
        snap.derived("dram_working_set_bytes", ws as f64);
        snap.derived("dram_speedup", flat / mem);
    }
    // Trend against the archived run, before write_default replaces it.
    if compare {
        match snap.compare_default() {
            Some(report) => print!("{}", report.render()),
            None => println!("compare: no archived baseline for `{}` yet", snap.name()),
        }
    }
    match snap.write_default() {
        Ok(path) => println!("snapshot: {}", path.display()),
        Err(e) => eprintln!("snapshot write failed: {e}"),
    }
}
