//! Thread-scaling bench for the morsel-driven parallel executor.
//!
//! For each query, runs the registry-tuned hybrid pipeline at 1/2/4/N
//! worker threads and reports the speedup over the single-threaded run.
//! SSB is embarrassingly parallel over the fact table, so on a machine with
//! free cores this should scale near-linearly on the join-heavy Q2.x/Q3.x
//! families; on a core-starved machine it documents exactly that (the
//! morsel scheduler adds one `fetch_add` per ~4 batches of overhead).
//!
//! ```text
//! cargo bench -p hef-bench --bench scaling [-- --smoke]
//! ```
//!
//! `--smoke` is the cheap configuration `scripts/verify.sh` runs: a tiny
//! scale factor, few samples, one query — it exercises the full measurement
//! path and asserts parallel/serial output equality without burning CI time.

use hef_bench::config::exec_config;
use hef_bench::report::{f2, TableWriter};
use hef_engine::{execute_star, resolve_threads, try_execute_star, ExecReport, Flavor};
use hef_ssb::{build_plan, generate, QueryId};
use hef_testutil::bench::Bench;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sf, samples, queries): (f64, usize, &[QueryId]) = if smoke {
        (0.005, 3, &[QueryId::Q2_1])
    } else {
        (
            0.05,
            9,
            &[QueryId::Q2_1, QueryId::Q2_2, QueryId::Q3_1, QueryId::Q3_3, QueryId::Q4_2],
        )
    };

    let navail = resolve_threads(0);
    let mut counts = vec![1usize, 2, 4, navail];
    counts.sort_unstable();
    counts.dedup();

    eprintln!(
        "[scaling] sf={sf}, {} sample(s)/cell, available parallelism {navail}{}",
        samples,
        if smoke { " (smoke)" } else { "" }
    );
    let data = generate(sf, 0x5CA1);

    let mut header: Vec<String> = vec!["query".into()];
    for &t in &counts {
        header.push(format!("{t}T ms"));
    }
    for &t in &counts[1..] {
        header.push(format!("x{t}T"));
    }
    header.push("recovery".into());
    let mut table = TableWriter::new(header);

    for &q in queries {
        let plan = build_plan(&data, q);
        let mut ms: Vec<f64> = Vec::with_capacity(counts.len());
        let mut outputs = Vec::with_capacity(counts.len());
        let mut recovery = ExecReport::default();
        for &t in &counts {
            let cfg = exec_config(Flavor::Hybrid).with_threads(t);
            let (out, report) = try_execute_star(&plan, &data.lineorder, &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", q.name()));
            if !report.is_clean() {
                eprintln!(
                    "[scaling] {} @{t}T: recovered run — {} morsels retried, {} workers lost{}",
                    q.name(),
                    report.morsels_retried,
                    report.workers_lost,
                    if report.degraded_to_serial { ", degraded to serial" } else { "" }
                );
            }
            recovery.morsels_retried += report.morsels_retried;
            recovery.workers_lost += report.workers_lost;
            recovery.degraded_to_serial |= report.degraded_to_serial;
            outputs.push(out);
            let stats = Bench::with_samples(samples).run(|| {
                std::hint::black_box(execute_star(&plan, &data.lineorder, &cfg));
            });
            ms.push(stats.median * 1e3);
        }
        // The scheduler must not change the answer at any thread count.
        for (i, out) in outputs.iter().enumerate().skip(1) {
            assert_eq!(
                out, &outputs[0],
                "{}: output at {} threads differs from 1 thread",
                q.name(),
                counts[i]
            );
        }
        let mut row: Vec<String> = vec![q.name().to_string()];
        row.extend(ms.iter().map(|&m| f2(m)));
        row.extend(ms[1..].iter().map(|&m| format!("{:.2}x", ms[0] / m)));
        row.push(if recovery.is_clean() {
            "clean".into()
        } else {
            format!(
                "{}r/{}l{}",
                recovery.morsels_retried,
                recovery.workers_lost,
                if recovery.degraded_to_serial { "/serial" } else { "" }
            )
        });
        table.row(row);
    }
    table.print();
}
