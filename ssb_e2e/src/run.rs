//! Set-up, the answer reference, and the closed-loop query sweeps.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hef_engine::{
    lower, optimize, try_execute_star, try_execute_star_paged_ctx, ExecConfig, ExecReport,
    ExecStats, Flavor, PagedTable, QueryCtx, QueryOutput, StarPlan,
};
use hef_obs::metrics::{self, Snapshot};
use hef_ssb::{catalog, logical_plan, QueryId, SsbData};
use hef_storage::PageCache;

use crate::spans::Recorder;
use crate::workload::{query_index, sweep_order, Workload, THREADS};

/// The paged fact table of one set-up, with its page cache. Its directory
/// is removed when it is dropped.
pub struct Paged {
    pub table: PagedTable,
    pub cache: PageCache,
    pub disk_bytes: u64,
    dir: PathBuf,
}

impl Drop for Paged {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One set-up's data. Paged workloads keep the in-memory tables too: the
/// planner's `Catalog` only plans against an in-memory fact table.
pub struct Dataset {
    pub data: SsbData,
    pub paged: Option<Paged>,
}

impl Dataset {
    /// Generate the data of `seed` at `sf`; for a paged workload also
    /// write the paged lineorder under `dir` and open it.
    pub fn build(w: Workload, sf: f64, seed: u64, dir: &Path) -> Result<Dataset, String> {
        let data = hef_ssb::generate(sf, seed);
        let paged = match w.cache_bytes(sf) {
            None => None,
            Some(capacity) => {
                let _ = std::fs::remove_dir_all(dir);
                let rows_per_page = hef_storage::page::rows_per_page_from_env();
                hef_ssb::generate_paged(sf, seed, dir, rows_per_page)
                    .map_err(|e| format!("paged generation failed: {e}"))?;
                let table = PagedTable::open_dir(dir, "lineorder")
                    .map_err(|e| format!("paged open failed: {e}"))?;
                let disk_bytes = std::fs::read_dir(dir)
                    .map_err(|e| format!("reading {}: {e}", dir.display()))?
                    .map(|e| e.and_then(|e| e.metadata()).map(|m| m.len()))
                    .sum::<std::io::Result<u64>>()
                    .map_err(|e| format!("sizing {}: {e}", dir.display()))?;
                let cache = PageCache::new(capacity);
                Some(Paged {
                    table,
                    cache,
                    disk_bytes,
                    dir: dir.to_path_buf(),
                })
            }
        };
        Ok(Dataset { data, paged })
    }

    /// Decoded bytes of the fact table.
    fn raw_fact_bytes(&self) -> u64 {
        self.data.lineorder.bytes() as u64
    }

    /// Bytes the fact table is stored in (on-disk `.hefc` files when paged,
    /// the in-memory columns otherwise) per decoded byte.
    pub fn stored_bytes_per_raw_byte(&self) -> f64 {
        let stored = self
            .paged
            .as_ref()
            .map_or(self.raw_fact_bytes(), |p| p.disk_bytes);
        stored as f64 / self.raw_fact_bytes().max(1) as f64
    }
}

/// Execute a lowered plan against the in-memory fact table, or the paged
/// one when given. The paged path returns no `ExecReport`.
fn execute(
    data: &SsbData,
    paged: Option<&Paged>,
    plan: &StarPlan,
    cfg: &ExecConfig,
) -> Result<(QueryOutput, Option<ExecReport>), String> {
    match paged {
        None => try_execute_star(plan, &data.lineorder, cfg)
            .map(|(out, report)| (out, Some(report)))
            .map_err(|e| e.to_string()),
        Some(p) => {
            try_execute_star_paged_ctx(plan, &p.table, cfg, &p.cache, &QueryCtx::unbounded())
                .map(|out| (out, None))
                .map_err(|e| e.to_string())
        }
    }
}

/// The tuned hybrid configuration at the benchmark's thread count (loads
/// the registry named by `HEF_REGISTRY` on first use).
pub fn tuned_config() -> ExecConfig {
    hef_bench::config::exec_config(Flavor::Hybrid).with_threads(THREADS)
}

/// The instants bounding each layer call of one query.
#[derive(Debug, Clone, Copy)]
pub struct QueryTimes {
    pub start: Instant,
    /// After `catalog` + `logical_plan`.
    pub ir: Instant,
    pub optimized: Instant,
    pub lowered: Instant,
    pub end: Instant,
}

impl QueryTimes {
    pub fn total_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
    pub fn execute_ms(&self) -> f64 {
        (self.end - self.lowered).as_secs_f64() * 1e3
    }
}

/// The result of one query.
pub struct QueryRun {
    pub output: Result<QueryOutput, String>,
    pub report: Option<ExecReport>,
    pub times: QueryTimes,
    pub has_fact_filter: bool,
}

/// One query as a user runs it: `catalog` → `logical_plan` → `optimize` →
/// `lower` → execute. Planning is inside the measured latency.
pub fn run_query(data: &SsbData, paged: Option<&Paged>, q: QueryId, cfg: &ExecConfig) -> QueryRun {
    let start = Instant::now();
    let cat = catalog(data);
    let logical = logical_plan(q);
    let ir = Instant::now();
    let optimized_plan = optimize(&logical, &cat);
    let optimized = Instant::now();
    let lowered_plan = optimized_plan.and_then(|(p, _)| lower(&p, &cat));
    let lowered = Instant::now();
    let (output, report, has_fact_filter) = match lowered_plan {
        Err(e) => (
            Err(format!("{}: planner error: {e}", q.name())),
            None,
            false,
        ),
        Ok(plan) => {
            let has_filter = !plan.filters.is_empty();
            match execute(data, paged, &plan, cfg) {
                Ok((out, report)) => (Ok(out), report, has_filter),
                Err(e) => (Err(format!("{}: {e}", q.name())), None, has_filter),
            }
        }
    };
    let end = Instant::now();
    QueryRun {
        output,
        report,
        times: QueryTimes {
            start,
            ir,
            optimized,
            lowered,
            end,
        },
        has_fact_filter,
    }
}

/// Reference answers: the scalar flavor at one thread on the in-memory
/// tables, indexed like [`QueryId::ALL`].
pub fn reference(data: &SsbData) -> Result<Vec<Vec<u64>>, String> {
    let cfg = ExecConfig::for_flavor(Flavor::Scalar).with_threads(1);
    QueryId::ALL
        .into_iter()
        .map(|q| run_query(data, None, q, &cfg).output.map(|o| o.groups))
        .collect()
}

/// Whether one execution's answer equals the reference; a failed
/// execution is never correct.
pub fn check(q: QueryId, output: &Result<QueryOutput, String>, reference: &[Vec<u64>]) -> bool {
    match output {
        Ok(out) if out.groups == reference[query_index(q)] => true,
        Ok(_) => {
            eprintln!(
                "wrong answer: {} differs from the scalar reference",
                q.name()
            );
            false
        }
        Err(e) => {
            eprintln!("failed execution: {e}");
            false
        }
    }
}

/// One timed execution.
#[derive(Debug, Clone)]
pub struct Sample {
    pub q: QueryId,
    pub total_ms: f64,
    pub execute_ms: f64,
    pub correct: bool,
}

/// What the traced sweeps record beyond the samples.
pub struct Tracer {
    pub spans: Recorder,
    pub execs: Vec<TracedExec>,
    next_qid: u64,
}

/// Per-execution engine statistics and counter deltas (traced run).
pub struct TracedExec {
    pub stats: Option<ExecStats>,
    pub report: Option<ExecReport>,
    pub has_fact_filter: bool,
    pub delta: Snapshot,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            spans: Recorder::new(origin),
            execs: Vec::new(),
            next_qid: 0,
        }
    }

    fn record(&mut self, q: QueryId, run: &QueryRun, delta: Snapshot) {
        let id = (self.next_qid, q.name());
        self.next_qid += 1;
        let t = run.times;
        let root = self.spans.record("query", id, None, t.start, t.end);
        self.spans.record("plan.ir", id, Some(root), t.start, t.ir);
        self.spans
            .record("plan.optimize", id, Some(root), t.ir, t.optimized);
        self.spans
            .record("plan.lower", id, Some(root), t.optimized, t.lowered);
        self.spans
            .record("engine.execute", id, Some(root), t.lowered, t.end);
        self.execs.push(TracedExec {
            stats: run.output.as_ref().ok().map(|o| o.stats.clone()),
            report: run.report.clone(),
            has_fact_filter: run.has_fact_filter,
            delta,
        });
    }
}

/// Samples of one phase of whole sweeps.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub sweeps: usize,
}

impl Phase {
    pub fn queries_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.correct).count()
    }
}

/// Run whole sweeps of the 13 queries in a closed loop (one client, next
/// query sent when the previous returns) until at least `min_s` seconds
/// have passed and at least `min_execs` executions were made. Sweeps are
/// numbered from `first_sweep` for their seeded order. With a tracer,
/// metrics must be enabled by the caller.
pub fn sweeps(
    ds: &Dataset,
    cfg: &ExecConfig,
    reference: &[Vec<u64>],
    seed: u64,
    first_sweep: u64,
    (min_s, min_execs): (f64, usize),
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    let mut sweep = first_sweep;
    while t0.elapsed().as_secs_f64() < min_s || samples.len() < min_execs {
        for q in sweep_order(seed, sweep) {
            let before = tracer.is_some().then(metrics::snapshot);
            let run = run_query(&ds.data, ds.paged.as_ref(), q, cfg);
            if let (Some(tr), Some(before)) = (tracer.as_deref_mut(), before) {
                tr.record(q, &run, metrics::snapshot().delta(&before));
            }
            samples.push(Sample {
                q,
                total_ms: run.times.total_ms(),
                execute_ms: run.times.execute_ms(),
                correct: check(q, &run.output, reference),
            });
        }
        sweep += 1;
    }
    Phase {
        samples,
        wall_s: t0.elapsed().as_secs_f64(),
        sweeps: (sweep - first_sweep) as usize,
    }
}

/// The warm-up sweep's outputs, in the order the queries ran.
pub type WarmUp = Vec<(QueryId, Result<QueryOutput, String>)>;

/// One set-up: generate (and page) the data, warm-load the registry, and
/// run the untimed warm-up sweep. Returns the data set, the warm-up
/// outputs (checked by the caller once a reference exists) and the
/// set-up's duration in seconds.
pub fn setup(
    w: Workload,
    sf: f64,
    seed: u64,
    dir: &Path,
) -> Result<(Dataset, WarmUp, f64), String> {
    let t0 = Instant::now();
    let ds = Dataset::build(w, sf, seed, dir)?;
    let cfg = tuned_config();
    let warm = sweep_order(seed, 0)
        .into_iter()
        .map(|q| (q, run_query(&ds.data, ds.paged.as_ref(), q, &cfg).output))
        .collect();
    Ok((ds, warm, t0.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_wrong_and_failed_executions() {
        let out = |groups: Vec<u64>| -> Result<QueryOutput, String> {
            Ok(QueryOutput {
                groups,
                stats: ExecStats::default(),
            })
        };
        let mut refs = vec![vec![1, 2, 3]; 13];
        let q = QueryId::Q2_1;
        assert!(check(q, &out(vec![1, 2, 3]), &refs));
        assert!(!check(q, &out(vec![1, 2, 4]), &refs));
        assert!(!check(q, &Err("boom".to_string()), &refs));
        // A reference cleared after a committed-digest mismatch fails every
        // execution of its query.
        refs[query_index(q)].clear();
        assert!(!check(q, &out(vec![1, 2, 3]), &refs));
    }
}
