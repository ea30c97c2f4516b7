//! One workload run: set-up, then either the untraced timed sweeps (the
//! end-to-end metrics) or the traced run (the per-layer metrics).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hef_obs::metrics::{self, Metric};
use hef_ssb::QueryId;

use crate::probes::{kernel_probes, page_fetch_us, FLAVORS};
use crate::report::Metrics;
use crate::run::{check, reference, setup, sweeps, tuned_config, Dataset, Phase, Tracer};
use crate::stats::{geomean, median, min_samples_for, percentile};
use crate::workload::{
    digest, parse_digests, query_index, Workload, COMMITTED_DIGESTS, DEFAULT_SEED,
};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// How one workload is run.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    /// Seconds of timed sweeps (at least `min_samples_for(90)` executions
    /// are made regardless).
    pub seconds: f64,
    /// Scale factor; the workloads are defined at 1.
    pub sf: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Scratch directory for paged data (removed afterwards).
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub samples: usize,
    pub metrics: Metrics,
}

/// Reference answers for `ds`, checked against the committed digests when
/// the run uses the default seed at SF 1. A query whose reference
/// disagrees with its committed digest gets an empty reference, so every
/// execution of it counts as wrong.
fn checked_reference(ds: &Dataset, s: &Settings) -> Result<Vec<Vec<u64>>, String> {
    let mut refs = reference(&ds.data)?;
    if s.seed == DEFAULT_SEED && s.sf == 1.0 {
        let committed = parse_digests(COMMITTED_DIGESTS)?;
        for q in QueryId::ALL {
            let i = query_index(q);
            if digest(&refs[i]) != committed[i] {
                eprintln!(
                    "{}: reference digest differs from the committed digest",
                    q.name()
                );
                refs[i].clear();
            }
        }
    }
    Ok(refs)
}

/// The state set-up leaves behind.
struct SetUp {
    /// The last set-up's data.
    ds: Dataset,
    refs: Vec<Vec<u64>>,
    /// Seconds of each set-up.
    secs: Vec<f64>,
    /// Warm-up executions attempted and failed, over every set-up.
    warm: (usize, usize),
}

/// Set up `reps` times, each set-up replacing the previous one.
fn set_up(w: Workload, s: &Settings, reps: usize) -> Result<SetUp, String> {
    let mut current: Option<Dataset> = None;
    let mut refs: Option<Vec<Vec<u64>>> = None;
    let mut secs = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for rep in 0..reps.max(1) {
        drop(current.take());
        let dir = s.work_dir.join(format!("{}-rep{rep}", w.name()));
        let (ds, warm, t) = setup(w, s.sf, s.seed, &dir)?;
        let refs = match &refs {
            Some(r) => r,
            None => refs.insert(checked_reference(&ds, s)?),
        };
        attempted += warm.len();
        failed += warm.iter().filter(|(q, out)| !check(*q, out, refs)).count();
        secs.push(t);
        current = Some(ds);
    }
    Ok(SetUp {
        ds: current.expect("at least one set-up"),
        refs: refs.expect("reference built with the first set-up"),
        secs,
        warm: (attempted, failed),
    })
}

/// Resident set size of this process in KiB (Linux `/proc`).
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Run `f` while a sampler thread records the peak resident set size.
fn with_rss_peak<R>(f: impl FnOnce() -> R) -> (R, Option<u64>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_kib();
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
                peak = peak.max(rss_kib());
            }
            peak
        });
        let r = f();
        stop.store(true, Ordering::SeqCst);
        (r, sampler.join().expect("rss sampler panicked"))
    })
}

/// Per-query medians of `f(sample)`, indexed like [`QueryId::ALL`].
fn per_query_medians(phase: &Phase, f: impl Fn(&crate::run::Sample) -> f64) -> Vec<f64> {
    QueryId::ALL
        .iter()
        .map(|&q| {
            let xs: Vec<f64> = phase.samples.iter().filter(|s| s.q == q).map(&f).collect();
            median(&xs).unwrap_or(0.0)
        })
        .collect()
}

/// Run workload `w`.
pub fn run_workload(w: Workload, s: &Settings) -> Result<Outcome, String> {
    metrics::disable();
    let out = if s.trace {
        traced(w, s)
    } else {
        untraced(w, s)
    };
    let _ = std::fs::remove_dir_all(&s.work_dir);
    out
}

fn untraced(w: Workload, s: &Settings) -> Result<Outcome, String> {
    let SetUp {
        ds,
        refs,
        secs: setup_secs,
        warm: (warm_attempted, warm_failed),
    } = set_up(w, s, SETUP_REPS)?;
    let cfg = tuned_config();
    let budget = (s.seconds, min_samples_for(90.0));
    let (phase, rss) = with_rss_peak(|| sweeps(&ds, &cfg, &refs, s.seed, 1, budget, None));
    let rss = rss.ok_or("cannot read the resident set size from /proc/self/status")?;

    let lat: Vec<f64> = phase.samples.iter().map(|x| x.total_ms).collect();
    let attempted = warm_attempted + phase.samples.len();
    let failed = warm_failed + phase.failed();
    let mut m = Metrics::default();
    m.push("queries_per_s", phase.queries_per_s(), "1/s");
    m.push(
        "latency_p50_ms",
        percentile(&lat, 50.0).unwrap_or(0.0),
        "ms",
    );
    m.push(
        "latency_p90_ms",
        percentile(&lat, 90.0).unwrap_or(0.0),
        "ms",
    );
    let medians = per_query_medians(&phase, |x| x.total_ms);
    m.push("latency_geomean_ms", geomean(&medians).unwrap_or(0.0), "ms");
    m.push("setup_s", median(&setup_secs).unwrap_or(0.0), "s");
    m.push("rss_peak_mib", rss as f64 / 1024.0, "MiB");
    m.push(
        "correct_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.push(
        "stored_bytes_per_raw_byte",
        ds.stored_bytes_per_raw_byte(),
        "ratio",
    );
    let per_query: Vec<String> = QueryId::ALL
        .iter()
        .zip(&medians)
        .map(|(q, ms)| format!("{} {ms:.1}", q.name()))
        .collect();
    eprintln!(
        "{}: per-query median latency (ms): {}",
        w.name(),
        per_query.join(", ")
    );
    eprintln!(
        "{}: {} timed executions in {} sweeps over {:.2} s; set-ups {:?} s",
        w.name(),
        phase.samples.len(),
        phase.sweeps,
        phase.wall_s,
        setup_secs
            .iter()
            .map(|t| (t * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    Ok(Outcome {
        attempted,
        failed,
        samples: phase.samples.len(),
        metrics: m,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn traced(w: Workload, s: &Settings) -> Result<Outcome, String> {
    let origin = Instant::now();
    let SetUp {
        ds,
        refs,
        warm: (warm_attempted, warm_failed),
        ..
    } = set_up(w, s, 1)?;
    let cfg = tuned_config();
    let half = (s.seconds / 2.0, 2 * QueryId::ALL.len());

    // Untraced, then traced sweeps of the same length: their throughput
    // ratio is the tracing overhead.
    let plain = sweeps(&ds, &cfg, &refs, s.seed, 1, half, None);
    metrics::enable();
    let mut tr = Tracer::new(origin);
    let first = 1 + plain.sweeps as u64;
    let before = metrics::snapshot();
    let traced = sweeps(&ds, &cfg, &refs, s.seed, first, half, Some(&mut tr));
    let total = metrics::snapshot().delta(&before);
    metrics::disable();
    // Two sweeps at one thread for the execute-time speed-up.
    let first = first + traced.sweeps as u64;
    let t1 = sweeps(
        &ds,
        &cfg.with_threads(1),
        &refs,
        s.seed,
        first,
        (0.0, half.1),
        None,
    );

    let (miss_us, hit_us) = match &ds.paged {
        Some(p) => page_fetch_us(&p.table, p.cache.capacity())?,
        None => (0.0, 0.0),
    };
    let rows_per_page = hef_storage::page::rows_per_page_from_env() as usize;
    let kernels = kernel_probes(&ds.data, rows_per_page)?;

    let phases = [&plain, &traced, &t1];
    let attempted = warm_attempted + phases.iter().map(|p| p.samples.len()).sum::<usize>();
    let failed = warm_failed + phases.iter().map(|p| p.failed()).sum::<usize>();

    let mut m = Metrics::default();
    let rec = &tr.spans;
    m.push(
        "plan.optimize_ms",
        median(&rec.self_ms("plan.optimize")).unwrap_or(0.0),
        "ms",
    );
    m.push(
        "plan.lower_ms",
        median(&rec.self_ms("plan.lower")).unwrap_or(0.0),
        "ms",
    );
    let planning: u64 = ["plan.ir", "plan.optimize", "plan.lower"]
        .iter()
        .map(|n| rec.total_self_ns(n))
        .sum();
    let query_ns: u64 = rec
        .spans()
        .iter()
        .filter(|x| x.name == "query")
        .map(|x| x.dur_ns())
        .sum();
    m.push("plan.share", ratio(planning, query_ns), "ratio");

    m.push(
        "engine.execute_ms",
        median(&rec.self_ms("engine.execute")).unwrap_or(0.0),
        "ms",
    );
    let t2_exec: f64 = per_query_medians(&plain, |x| x.execute_ms).iter().sum();
    let t1_exec: f64 = per_query_medians(&t1, |x| x.execute_ms).iter().sum();
    m.push("engine.t2_speedup", t1_exec / t2_exec, "ratio");
    let stats: Vec<_> = tr.execs.iter().filter_map(|e| e.stats.as_ref()).collect();
    let sum = |f: &dyn Fn(&hef_engine::ExecStats) -> u64| stats.iter().map(|x| f(x)).sum::<u64>();
    m.push(
        "engine.filter_pass_ratio",
        ratio(sum(&|x| x.rows_after_filter), sum(&|x| x.rows_scanned)),
        "ratio",
    );
    m.push(
        "engine.probe_hit_ratio",
        ratio(
            sum(&|x| x.hits.iter().sum()),
            sum(&|x| x.probes.iter().sum()),
        ),
        "ratio",
    );
    let n_sweeps = traced.sweeps.max(1) as f64;
    let retried: usize = tr
        .execs
        .iter()
        .filter_map(|e| e.report.as_ref())
        .map(|r| r.morsels_retried)
        .sum();
    m.push(
        "engine.morsels_retried",
        retried as f64 / n_sweeps,
        "count/sweep",
    );
    let mismatch: u64 = tr.execs.iter().map(counter_mismatch).sum();
    m.push(
        "engine.counter_mismatch_rows",
        mismatch as f64 / n_sweeps,
        "rows/sweep",
    );

    let get = |metric: Metric| total.get(metric);
    let execs = tr.execs.len() as u64;
    m.push(
        "govern.admitted_ratio",
        ratio(get(Metric::GovAdmitted), execs),
        "ratio",
    );
    m.push(
        "govern.degradations",
        get(Metric::GovDegradations) as f64 / n_sweeps,
        "count/sweep",
    );
    m.push(
        "govern.bytes_charged",
        ratio(get(Metric::GovBytesCharged), execs),
        "bytes/query",
    );
    let (hits, misses) = (get(Metric::PageCacheHits), get(Metric::PageCacheMisses));
    m.push(
        "storage.page_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.push(
        "storage.page_cache_misses",
        misses as f64 / n_sweeps,
        "count/sweep",
    );
    let evictions = get(Metric::PageCacheEvictions) as f64 / n_sweeps;
    m.push("storage.page_cache_evictions", evictions, "count/sweep");
    m.push("storage.page_fetch_miss_us", miss_us, "us");
    m.push("storage.page_fetch_hit_us", hit_us, "us");
    m.push(
        "kernels.decode_rows",
        get(Metric::DecodeRows) as f64 / n_sweeps,
        "rows/sweep",
    );
    let code_filtered = get(Metric::DecodeCodeFiltered) as f64 / n_sweeps;
    m.push("kernels.decode_code_filtered", code_filtered, "rows/sweep");
    for k in &kernels {
        for (i, (flavor, _)) in FLAVORS.iter().enumerate() {
            m.push(
                format!("kernels.{}_ns_per_row.{flavor}", k.name),
                k.ns_per_row[i],
                "ns",
            );
        }
    }
    for k in &kernels {
        m.push(format!("model.{}_drift", k.name), k.drift, "ratio");
    }
    m.push(
        "obs.trace_overhead",
        plain.queries_per_s() / traced.queries_per_s(),
        "ratio",
    );

    std::fs::create_dir_all(&s.trace_dir)
        .map_err(|e| format!("creating {}: {e}", s.trace_dir.display()))?;
    let path = s
        .trace_dir
        .join(format!("trace-{}-s{}.jsonl", w.name(), s.seed));
    std::fs::write(&path, rec.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "{}: traced {} executions in {} sweeps; spans written to {}",
        w.name(),
        traced.samples.len(),
        traced.sweeps,
        path.display()
    );
    Ok(Outcome {
        attempted,
        failed,
        samples: traced.samples.len(),
        metrics: m,
    })
}

/// Rows by which the kernel counters of one execution disagree with its
/// `ExecStats`. The filter counters should count filter-kernel work only,
/// so a plan without a fact-table filter should charge none.
fn counter_mismatch(e: &crate::run::TracedExec) -> u64 {
    let Some(st) = &e.stats else { return 0 };
    let d = &e.delta;
    let (filter_in, filter_out) = if e.has_fact_filter {
        (st.rows_scanned, st.rows_after_filter)
    } else {
        (0, 0)
    };
    [
        (d.get(Metric::FilterRowsIn), filter_in),
        (d.get(Metric::FilterRowsOut), filter_out),
        (d.get(Metric::ProbeKeys), st.probes.iter().sum()),
        (d.get(Metric::ProbeHits), st.hits.iter().sum()),
        (d.get(Metric::AggRows), st.rows_aggregated),
    ]
    .iter()
    .map(|&(a, b)| a.abs_diff(b))
    .sum()
}
