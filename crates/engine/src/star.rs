//! Star-query plans and the VIP-style pipeline worker.

use hef_core::Registry;
use hef_hid::Backend;
use hef_kernels::{run_on, Family, HybridConfig, KernelIo, ProbeTable};
use hef_storage::cache::PageCache;
use hef_storage::page::PagedColumn;
use hef_storage::Table;

use crate::ops::{compact_hits, grouped_accumulate};
use crate::paged::PageCols;
use crate::parallel::{ExecError, ExecReport, Halt, MorselSource};

/// Execution flavor (the four bars of the paper's Figs. 8–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    Scalar,
    Simd,
    Hybrid,
    Voila,
}

impl Flavor {
    pub fn name(self) -> &'static str {
        match self {
            Flavor::Scalar => "scalar",
            Flavor::Simd => "simd",
            Flavor::Hybrid => "hybrid",
            Flavor::Voila => "voila",
        }
    }

    /// All flavors in the paper's plotting order.
    pub const ALL: [Flavor; 4] = [Flavor::Scalar, Flavor::Simd, Flavor::Voila, Flavor::Hybrid];
}

/// Per-kernel-family configurations for one execution flavor.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    pub flavor: Flavor,
    pub filter: HybridConfig,
    pub probe: HybridConfig,
    pub agg: HybridConfig,
    /// Node for the selective-gather (take) kernel between operators.
    pub gather: HybridConfig,
    /// Node for the compressed-page decode kernel (paged scans only; the
    /// in-memory path never dispatches it).
    pub decode: HybridConfig,
    /// Pre-filter each probe with the dimension's Bloom filter (semi-join
    /// pre-filtering; pays off when probes mostly miss).
    pub use_bloom: bool,
    pub backend: Backend,
    /// Rows per pipeline batch (the paper/VIP use ~vector-register-friendly
    /// batches; Voila uses 1024).
    pub batch: usize,
    /// Worker threads for the morsel-driven parallel executor. `0` resolves
    /// at execution time: `HEF_THREADS` if set, else
    /// `std::thread::available_parallelism()` (see [`crate::resolve`]).
    pub threads: usize,
    /// Software-prefetch depth `f` for the probe kernel (the tuned fourth
    /// dimension; `0` = flat loop).
    pub probe_prefetch: usize,
    /// Per-query deadline in milliseconds (`0` = none). Checked at every
    /// morsel claim and batch boundary; an expired deadline surfaces as
    /// typed [`ExecError::DeadlineExceeded`]. Overridable
    /// per run via `HEF_DEADLINE_MS` (see [`crate::resolve`]).
    pub deadline_ms: u64,
}

impl ExecConfig {
    /// The defaults every flavor shares, with every kernel slot on `node`.
    fn base(flavor: Flavor, node: HybridConfig) -> ExecConfig {
        ExecConfig {
            flavor,
            filter: node,
            probe: node,
            agg: node,
            gather: node,
            decode: node,
            use_bloom: false,
            backend: Backend::native(),
            batch: 1024,
            threads: 0,
            probe_prefetch: 0,
            deadline_ms: 0,
        }
    }

    /// Purely scalar execution.
    pub fn scalar() -> ExecConfig {
        ExecConfig::base(Flavor::Scalar, HybridConfig::SCALAR)
    }

    /// Purely SIMD execution.
    pub fn simd() -> ExecConfig {
        ExecConfig::base(Flavor::Simd, HybridConfig::SIMD)
    }

    /// Hybrid execution at the paper's SSB optimum — one SIMD and one scalar
    /// statement, pack 3 — unless the caller supplies tuned nodes.
    pub fn hybrid_default() -> ExecConfig {
        ExecConfig::base(Flavor::Hybrid, HybridConfig::new(1, 1, 3))
    }

    /// Hybrid execution with explicitly tuned per-family nodes.
    pub fn hybrid(filter: HybridConfig, probe: HybridConfig, agg: HybridConfig) -> ExecConfig {
        ExecConfig {
            filter,
            probe,
            agg,
            gather: probe,
            decode: filter,
            ..ExecConfig::base(Flavor::Hybrid, probe)
        }
    }

    /// The Voila comparator (the flavor tag routes in-memory execution to
    /// the [`crate::voila`] worker; kernel configs are unused).
    pub fn voila() -> ExecConfig {
        ExecConfig::base(Flavor::Voila, HybridConfig::SCALAR)
    }

    /// Hybrid execution with every kernel slot from a tuned registry: the
    /// recorded node per family (the paper's SSB optimum `(1, 1, 3)` for
    /// untuned ones) and the recorded probe prefetch depth (`0` if none).
    pub fn tuned(reg: &Registry) -> ExecConfig {
        ExecConfig {
            gather: reg.get_or_default(Family::Gather),
            decode: reg.get_or_default(Family::Decode),
            probe_prefetch: reg.get_prefetch(Family::Probe).unwrap_or(0),
            ..ExecConfig::hybrid(
                reg.get_or_default(Family::Filter),
                reg.get_or_default(Family::Probe),
                reg.get_or_default(Family::AggSum),
            )
        }
    }

    /// The config for a flavor with defaults.
    pub fn for_flavor(flavor: Flavor) -> ExecConfig {
        match flavor {
            Flavor::Scalar => ExecConfig::scalar(),
            Flavor::Simd => ExecConfig::simd(),
            Flavor::Hybrid => ExecConfig::hybrid_default(),
            Flavor::Voila => ExecConfig::voila(),
        }
    }

    /// Builder-style thread-count override (`0` = auto, see
    /// [`ExecConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> ExecConfig {
        self.threads = threads;
        self
    }

    /// Builder-style probe-prefetch-depth override.
    pub fn with_probe_prefetch(mut self, f: usize) -> ExecConfig {
        self.probe_prefetch = f;
        self
    }

    /// Builder-style batch-size override.
    pub fn with_batch(mut self, batch: usize) -> ExecConfig {
        self.batch = batch.max(1);
        self
    }

    /// Builder-style deadline override (`0` = none, see
    /// [`ExecConfig::deadline_ms`]).
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> ExecConfig {
        self.deadline_ms = deadline_ms;
        self
    }
}

/// A range predicate on a fact-table column (signed semantics).
#[derive(Debug, Clone)]
pub struct RangeFilter {
    pub col: String,
    pub lo: u64,
    pub hi: u64,
}

/// One dimension join: a pre-built probe table whose payloads are dense
/// group codes in `0..groups`.
#[derive(Debug, Clone)]
pub struct DimJoin {
    /// Fact-table foreign-key column name.
    pub fk_col: String,
    /// Hash table over the (filtered) dimension keys.
    pub table: ProbeTable,
    /// Bloom filter over the same keys (for semi-join pre-filtering).
    pub bloom: hef_kernels::BloomFilter,
    /// Number of distinct group codes this dimension contributes
    /// (1 = pure filter, payload 0).
    pub groups: usize,
    /// Dimension name for reports.
    pub name: String,
}

/// The aggregate of the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Measure {
    /// `sum(col)`
    Sum(String),
    /// `sum(a * b)` (e.g. `lo_extendedprice * lo_discount`)
    SumProduct(String, String),
    /// `sum(a - b)` (e.g. `lo_revenue - lo_supplycost`)
    SumDiff(String, String),
}

/// A star query over one fact table.
#[derive(Debug, Clone)]
pub struct StarPlan {
    pub name: String,
    pub filters: Vec<RangeFilter>,
    /// Probe order — most selective dimension first, as the SSB plans do.
    pub dims: Vec<DimJoin>,
    pub measure: Measure,
    /// Group-id stride per dimension, aligned with `dims` (probe order).
    /// A row's group id is `Σ pay_i * strides[i]`. Empty = the legacy
    /// mixed-radix encoding over the probe order itself (`stride_i =
    /// Π groups_j for j > i`). The planner sets strides from the *declared*
    /// join order so optimizer join reordering never changes group ids.
    pub strides: Vec<u64>,
}

impl StarPlan {
    /// Total number of group cells (product of per-dimension group counts).
    pub fn group_cells(&self) -> usize {
        self.dims.iter().map(|d| d.groups.max(1)).product::<usize>().max(1)
    }

    /// Effective per-dimension group-id strides (see [`StarPlan::strides`]):
    /// the explicit strides when set, else the legacy probe-order
    /// mixed-radix strides.
    pub fn gid_strides(&self) -> Vec<u64> {
        if !self.strides.is_empty() {
            return self.strides.clone();
        }
        let mut strides = vec![1u64; self.dims.len()];
        let mut acc = 1u64;
        for (i, d) in self.dims.iter().enumerate().rev() {
            strides[i] = acc;
            acc = acc.wrapping_mul(d.groups.max(1) as u64);
        }
        strides
    }
}

/// Execution statistics, consumed by the `hef-uarch` counter assembly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub rows_scanned: u64,
    pub rows_after_filter: u64,
    /// Keys probed per dimension (in plan order).
    pub probes: Vec<u64>,
    /// Hits per dimension.
    pub hits: Vec<u64>,
    /// Probe-table working-set bytes per dimension.
    pub table_bytes: Vec<usize>,
    /// Rows reaching the aggregation.
    pub rows_aggregated: u64,
    /// Values copied into materialized intermediates (zero for the
    /// selection-vector pipeline; large for the Voila comparator — the
    /// instruction-count inflation the paper observes in Table V).
    pub materialized: u64,
}

/// Result of executing a star plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// Dense group accumulators (length = `plan.group_cells()`).
    pub groups: Vec<u64>,
    pub stats: ExecStats,
}

impl QueryOutput {
    /// Non-empty groups as `(group id, sum)`.
    pub fn results(&self) -> Vec<(u64, u64)> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(g, &v)| (g as u64, v))
            .collect()
    }

    /// Grand total over all groups.
    pub fn total(&self) -> u64 {
        self.groups.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }
}

/// Build a [`DimJoin`] from a dimension table: rows passing `predicate` are
/// inserted as `key → group code` where the code is produced by `payload`
/// (must return values `< groups`).
pub fn build_dimension(
    dim: &Table,
    key_col: &str,
    predicate: impl Fn(usize) -> bool,
    payload: impl Fn(usize) -> u64,
    groups: usize,
    fk_col: &str,
) -> DimJoin {
    let keys = dim.col(key_col);
    let selected: Vec<usize> = (0..dim.len()).filter(|&r| predicate(r)).collect();
    let mut table = ProbeTable::with_capacity(selected.len());
    let mut bloom = hef_kernels::BloomFilter::with_capacity(selected.len());
    for r in selected {
        let code = payload(r);
        debug_assert!(
            (code as usize) < groups.max(1),
            "group code {code} out of range {groups}"
        );
        table.insert(keys[r], code);
        bloom.insert(keys[r]);
    }
    DimJoin {
        fk_col: fk_col.to_string(),
        table,
        bloom,
        groups: groups.max(1),
        name: dim.name().to_string(),
    }
}

/// Check a physical plan against the fact table before execution: every
/// referenced column must exist and explicit group-id strides must be
/// consistent with the group-cell count. Returns a typed
/// [`ExecError::BadPlan`] instead of letting a
/// worker thread hit the inconsistency as a panic mid-query.
pub fn validate_star_plan(
    plan: &StarPlan,
    fact: &Table,
) -> Result<(), ExecError> {
    validate_star_plan_with(plan, fact.name(), |c| fact.column(c).is_some())
}

/// Table-representation-independent validation core: `has_col` answers
/// whether the fact table (in-memory or paged) carries a column.
pub(crate) fn validate_star_plan_with(
    plan: &StarPlan,
    fact_name: &str,
    has_col: impl Fn(&str) -> bool,
) -> Result<(), ExecError> {
    let bad = |message: String| ExecError::BadPlan {
        query: plan.name.clone(),
        message,
    };
    let need = |what: &str, col: &str| -> Result<(), ExecError> {
        if !has_col(col) {
            return Err(bad(format!(
                "{what} references column `{col}`, absent from fact table `{fact_name}`"
            )));
        }
        Ok(())
    };
    for f in &plan.filters {
        need("filter", &f.col)?;
    }
    for d in &plan.dims {
        need(&format!("join `{}`", d.name), &d.fk_col)?;
    }
    for col in match &plan.measure {
        Measure::Sum(a) => vec![a],
        Measure::SumProduct(a, b) | Measure::SumDiff(a, b) => vec![a, b],
    } {
        need("measure", col)?;
    }
    if !plan.strides.is_empty() {
        if plan.strides.len() != plan.dims.len() {
            return Err(bad(format!(
                "{} strides for {} dimensions",
                plan.strides.len(),
                plan.dims.len()
            )));
        }
        let cells = plan.group_cells() as u64;
        let mut max_gid = 0u64;
        for (d, &s) in plan.dims.iter().zip(&plan.strides) {
            max_gid = (d.groups.max(1) as u64 - 1)
                .checked_mul(s)
                .and_then(|v| max_gid.checked_add(v))
                .filter(|&v| v < cells)
                .ok_or_else(|| {
                    bad(format!(
                        "group-id strides {:?} address cells beyond the {} \
                         accumulator slots",
                        plan.strides, cells
                    ))
                })?;
        }
    }
    Ok(())
}

/// Execute `plan` against `fact` using `cfg`, panicking on a typed error.
///
/// Resolves the worker-thread count (see [`ExecConfig::threads`]) and routes
/// every flavor — including Voila — through the morsel scheduler when more
/// than one worker is requested; a single worker runs the serial rung
/// directly (identical code either way: see [`crate::run`]).
pub fn execute_star(plan: &StarPlan, fact: &Table, cfg: &ExecConfig) -> QueryOutput {
    try_execute_star(plan, fact, cfg)
        .map(|(out, _)| out)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`crate::run`] over an in-memory fact table with a fresh cancel token:
/// the output together with the [`ExecReport`] of every recovery action
/// (morsels retried, workers lost, serial degradation). The output is
/// bit-identical to a clean run's — recovery can change latency, never
/// results; a typed [`ExecError`] comes back only when even the serial
/// fallback fails, or governance rejects or interrupts the query.
pub fn try_execute_star(
    plan: &StarPlan,
    fact: &Table,
    cfg: &ExecConfig,
) -> Result<(QueryOutput, ExecReport), ExecError> {
    crate::parallel::run(plan, MorselSource::Mem(fact), cfg, &crate::govern::CancelToken::new())
}

/// The fact columns a plan reads, resolved against its source once per
/// query: each distinct column appears once in `cols`, and every plan
/// operand is an index into it.
pub(crate) struct FactCols<'a> {
    pub(crate) source: MorselSource<'a>,
    cols: SourceCols<'a>,
    filters: Vec<usize>,
    fks: Vec<usize>,
    /// Measure operands; both entries name the same column for a `Sum`.
    measure: [usize; 2],
}

enum SourceCols<'a> {
    Mem(Vec<&'a [u64]>),
    Paged { cache: &'a PageCache, cols: Vec<&'a PagedColumn> },
}

impl<'a> FactCols<'a> {
    /// Resolve `plan`'s columns against `source`. Validation has already
    /// proved every column exists; a miss stays a typed error anyway.
    pub(crate) fn resolve<'p>(
        plan: &'p StarPlan,
        source: MorselSource<'a>,
    ) -> Result<Self, ExecError> {
        let mut names: Vec<&'p str> = Vec::new();
        let mut slot = |name: &'p str| match names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        let filters = plan.filters.iter().map(|f| slot(&f.col)).collect();
        let fks = plan.dims.iter().map(|d| slot(&d.fk_col)).collect();
        let measure = match &plan.measure {
            Measure::Sum(a) => [slot(a); 2],
            Measure::SumProduct(a, b) | Measure::SumDiff(a, b) => [slot(a), slot(b)],
        };
        let missing = |name: &str| ExecError::BadPlan {
            query: plan.name.clone(),
            message: format!("column `{name}` absent from fact table `{}`", source.name()),
        };
        let cols = match source {
            MorselSource::Mem(t) => SourceCols::Mem(
                names
                    .iter()
                    .map(|&n| t.column(n).map(|c| c.values()).ok_or_else(|| missing(n)))
                    .collect::<Result<_, _>>()?,
            ),
            MorselSource::Paged { table, cache } => SourceCols::Paged {
                cache,
                cols: names
                    .iter()
                    .map(|&n| table.column(n).ok_or_else(|| missing(n)))
                    .collect::<Result<_, _>>()?,
            },
        };
        Ok(FactCols { source, cols, filters, fks, measure })
    }
}

/// One worker's view of the current batch's columns, as batch-local
/// slices: row `i` of every slice is the batch's `i`-th row.
enum BatchCols<'a> {
    /// Resident columns; the batch is rows `start..end`.
    Mem { cols: &'a [&'a [u64]], start: usize, end: usize },
    /// Paged columns; the batch is one page, decoded lazily per column.
    Paged(Box<PageCols<'a>>),
}

impl<'a> BatchCols<'a> {
    fn new(fact: &'a FactCols<'a>) -> Self {
        match &fact.cols {
            SourceCols::Mem(cols) => BatchCols::Mem { cols, start: 0, end: 0 },
            SourceCols::Paged { cache, cols } => {
                BatchCols::Paged(Box::new(PageCols::new(cache, cols)))
            }
        }
    }

    /// Point at rows `start..end` of morsel `idx`.
    fn select(&mut self, idx: usize, start: usize, end: usize) {
        match self {
            BatchCols::Mem { start: s, end: e, .. } => (*s, *e) = (start, end),
            BatchCols::Paged(p) => p.select(idx),
        }
    }

    /// Column `slot` over the current batch.
    fn col(&mut self, slot: usize, cfg: &ExecConfig) -> Result<&[u64], Halt> {
        match self {
            BatchCols::Mem { cols, start, end } => Ok(&cols[slot][*start..*end]),
            BatchCols::Paged(p) => p.col(slot, cfg),
        }
    }

    /// Append the batch-local ids of the rows passing `f` (over column
    /// `slot`) to `sel`. Pages evaluate it in code space where they can.
    fn first_filter(
        &mut self,
        slot: usize,
        f: &RangeFilter,
        cfg: &ExecConfig,
        sel: &mut Vec<u64>,
    ) -> Result<(), Halt> {
        if let BatchCols::Paged(p) = self {
            return p.first_filter(slot, f, cfg, sel);
        }
        filter(self.col(slot, cfg)?, f.lo, f.hi, sel, cfg);
        Ok(())
    }
}

/// Append the ids of the `input` rows within `lo..=hi` (signed) to `sel`
/// through the tuned filter kernel.
pub(crate) fn filter(input: &[u64], lo: u64, hi: u64, sel: &mut Vec<u64>, cfg: &ExecConfig) {
    let mut io = KernelIo::Filter { input, lo, hi, base: 0, sel };
    assert!(
        run_on(Family::Filter, cfg.filter, cfg.backend, &mut io),
        "filter node {} not compiled",
        cfg.filter
    );
}

/// One VIP-style pipeline worker — the only filter → probe → gid →
/// aggregate code, whatever the source. It owns the reusable batch buffers,
/// a private group-accumulator array, and private [`ExecStats`], and runs
/// morsels the scheduler hands it (see `crate::parallel`) over batch-local
/// row ids.
pub(crate) struct PipelineWorker<'a> {
    plan: &'a StarPlan,
    fact: &'a FactCols<'a>,
    cfg: &'a ExecConfig,
    cols: BatchCols<'a>,
    acc: Vec<u64>,
    stats: ExecStats,
    /// Per-dimension group-id strides (see [`StarPlan::gid_strides`]).
    strides: Vec<u64>,
    // Reusable batch buffers (workhorse allocations).
    sel: Vec<u64>,
    keys: Vec<u64>,
    probe_out: Vec<u64>,
    gids: Vec<u64>,
    vals: Vec<u64>,
}

impl<'a> PipelineWorker<'a> {
    pub(crate) fn new(plan: &'a StarPlan, fact: &'a FactCols<'a>, cfg: &'a ExecConfig) -> Self {
        let ndims = plan.dims.len();
        let stats = ExecStats {
            probes: vec![0; ndims],
            hits: vec![0; ndims],
            table_bytes: plan.dims.iter().map(|d| d.table.working_set_bytes()).collect(),
            ..Default::default()
        };
        let buf_cap = cfg.batch.min(fact.source.rows());
        PipelineWorker {
            plan,
            fact,
            cfg,
            cols: BatchCols::new(fact),
            acc: vec![0u64; plan.group_cells()],
            stats,
            strides: plan.gid_strides(),
            sel: Vec::with_capacity(buf_cap),
            keys: Vec::with_capacity(buf_cap),
            probe_out: Vec::with_capacity(buf_cap),
            gids: Vec::with_capacity(buf_cap),
            vals: Vec::with_capacity(buf_cap),
        }
    }

    /// Process morsel `idx` batch by batch under a governance context: the
    /// cancel/deadline check runs before every batch.
    pub(crate) fn try_run_morsel(
        &mut self,
        idx: usize,
        ctx: &crate::govern::QueryCtx,
    ) -> Result<(), Halt> {
        let (lo, hi, step) = self.fact.source.morsel(idx, self.cfg.batch);
        self.stats.rows_scanned += (hi - lo) as u64;
        let mut start = lo;
        while start < hi {
            ctx.check()?;
            let end = start.saturating_add(step).min(hi);
            self.cols.select(idx, start, end);
            self.run_batch(end - start)?;
            start = end;
        }
        Ok(())
    }

    fn run_batch(&mut self, rows: usize) -> Result<(), Halt> {
        let (plan, fact, cfg) = (self.plan, self.fact, self.cfg);
        let ndims = plan.dims.len();

        // 1. Fact-table filters. The first runs as a kernel over the
        // contiguous batch; later ones refine the selection through the
        // same tuned Filter grid (Q1.x is the filter-heavy family).
        self.sel.clear();
        if let Some((f0, rest)) = plan.filters.split_first() {
            self.cols.first_filter(fact.filters[0], f0, cfg, &mut self.sel)?;
            for (f, &slot) in rest.iter().zip(&fact.filters[1..]) {
                if self.sel.is_empty() {
                    break;
                }
                let mut io = KernelIo::FilterRefine {
                    input: self.cols.col(slot, cfg)?,
                    lo: f.lo,
                    hi: f.hi,
                    sel: &mut self.sel,
                };
                assert!(
                    run_on(Family::Filter, cfg.filter, cfg.backend, &mut io),
                    "filter node {} not compiled",
                    cfg.filter
                );
            }
            if hef_obs::metrics::enabled() {
                use hef_obs::metrics::{add, observe, Hist, Metric};
                add(Metric::FilterRowsIn, rows as u64);
                add(Metric::FilterRowsOut, self.sel.len() as u64);
                observe(Hist::FilterBatchRowsOut, self.sel.len() as u64);
            }
        } else {
            self.sel.extend(0..rows as u64);
        }
        self.stats.rows_after_filter += self.sel.len() as u64;

        // 2. Dimension probes, most selective first; selection vector
        // shrinks after each (VIP pipeline, no full materialization).
        let mut pays: Vec<Vec<u64>> = Vec::with_capacity(ndims);
        for (di, dim) in plan.dims.iter().enumerate() {
            if self.sel.is_empty() {
                pays.push(Vec::new());
                continue;
            }
            take(self.cols.col(fact.fks[di], cfg)?, &self.sel, &mut self.keys, cfg);
            if cfg.use_bloom {
                // Semi-join pre-filter: drop definite misses before the
                // (more expensive) table probe.
                self.probe_out.clear();
                self.probe_out.resize(self.keys.len(), 0);
                let mut io = KernelIo::Bloom {
                    keys: &self.keys,
                    filter: &dim.bloom,
                    out: &mut self.probe_out,
                    prefetch: cfg.probe_prefetch,
                };
                assert!(run_on(Family::BloomCheck, cfg.probe, cfg.backend, &mut io));
                let mut k = 0usize;
                for j in 0..self.sel.len() {
                    if self.probe_out[j] != 0 {
                        self.sel[k] = self.sel[j];
                        self.keys[k] = self.keys[j];
                        for ps in pays.iter_mut() {
                            ps[k] = ps[j];
                        }
                        k += 1;
                    }
                }
                self.sel.truncate(k);
                self.keys.truncate(k);
                for ps in pays.iter_mut() {
                    ps.truncate(k);
                }
                if hef_obs::metrics::enabled() {
                    use hef_obs::metrics::{add, Metric};
                    add(Metric::BloomKeys, self.probe_out.len() as u64);
                    add(Metric::BloomDrops, (self.probe_out.len() - k) as u64);
                }
                if self.sel.is_empty() {
                    pays.push(Vec::new());
                    continue;
                }
            }
            self.probe_out.clear();
            self.probe_out.resize(self.keys.len(), 0);
            self.stats.probes[di] += self.keys.len() as u64;
            let mut io = KernelIo::Probe {
                keys: &self.keys,
                table: &dim.table,
                out: &mut self.probe_out,
                prefetch: cfg.probe_prefetch,
            };
            assert!(
                run_on(Family::Probe, cfg.probe, cfg.backend, &mut io),
                "probe node {} not compiled",
                cfg.probe
            );
            let k = compact_hits(&mut self.sel, &mut pays, &mut self.probe_out);
            self.stats.hits[di] += k as u64;
            if hef_obs::metrics::enabled() {
                use hef_obs::metrics::{add, observe, Hist, Metric};
                add(Metric::ProbeKeys, self.keys.len() as u64);
                add(Metric::ProbeHits, k as u64);
                observe(Hist::ProbeBatchHits, k as u64);
                if cfg.probe_prefetch > 0 {
                    add(Metric::ProbePrefetchedKeys, self.keys.len() as u64);
                }
            }
        }

        // 3. Group ids and aggregation.
        if !self.sel.is_empty() {
            self.stats.rows_aggregated += self.sel.len() as u64;
            if hef_obs::metrics::enabled() {
                hef_obs::metrics::add(hef_obs::metrics::Metric::AggRows, self.sel.len() as u64);
            }
            self.gids.clear();
            self.gids.resize(self.sel.len(), 0);
            for (di, _) in plan.dims.iter().enumerate() {
                let stride = self.strides[di];
                for (j, gid) in self.gids.iter_mut().enumerate() {
                    *gid = gid.wrapping_add(pays[di][j].wrapping_mul(stride));
                }
            }
            // The measure columns, with `keys` as scratch for the second.
            let [a, b] = fact.measure;
            take(self.cols.col(a, cfg)?, &self.sel, &mut self.vals, cfg);
            match plan.measure {
                Measure::Sum(_) => {}
                Measure::SumProduct(..) => {
                    take(self.cols.col(b, cfg)?, &self.sel, &mut self.keys, cfg);
                    for (v, &s) in self.vals.iter_mut().zip(self.keys.iter()) {
                        *v = v.wrapping_mul(s);
                    }
                }
                Measure::SumDiff(..) => {
                    take(self.cols.col(b, cfg)?, &self.sel, &mut self.keys, cfg);
                    for (v, &s) in self.vals.iter_mut().zip(self.keys.iter()) {
                        *v = v.wrapping_sub(s);
                    }
                }
            }
            if self.acc.len() == 1 {
                // Ungrouped: the tuned aggregation kernel does the reduction.
                let mut total = 0u64;
                let mut io = KernelIo::AggSum { a: &self.vals, acc: &mut total };
                assert!(run_on(Family::AggSum, cfg.agg, cfg.backend, &mut io));
                self.acc[0] = self.acc[0].wrapping_add(total);
            } else {
                grouped_accumulate(&mut self.acc, &self.gids, &self.vals);
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> QueryOutput {
        QueryOutput { groups: self.acc, stats: self.stats }
    }
}

/// Selective projection through the tuned gather kernel.
fn take(col: &[u64], sel: &[u64], out: &mut Vec<u64>, cfg: &ExecConfig) {
    if hef_obs::metrics::enabled() {
        hef_obs::metrics::add(hef_obs::metrics::Metric::GatherRows, sel.len() as u64);
    }
    out.clear();
    out.resize(sel.len(), 0);
    // The index stream is a fresh in-cache selection vector and the gather
    // sources are streamed fact columns — hardware prefetch covers both, so
    // the software-prefetch depth stays probe-only here.
    let mut io = KernelIo::Gather { src: col, idx: sel, out, prefetch: 0 };
    assert!(
        run_on(Family::Gather, cfg.gather, cfg.backend, &mut io),
        "gather node {} not compiled",
        cfg.gather
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_storage::Column;

    /// A toy star schema: fact(fk1, fk2, rev, cost), dim1(key, grp),
    /// dim2(key).
    fn toy() -> (Table, StarPlan) {
        let mut fact = Table::new("fact");
        let n = 5000u64;
        fact.add_column(Column::new("fk1", (0..n).map(|i| i % 100).collect()));
        fact.add_column(Column::new("fk2", (0..n).map(|i| i % 50).collect()));
        fact.add_column(Column::new("rev", (0..n).map(|i| i % 7 + 1).collect()));
        fact.add_column(Column::new("cost", (0..n).map(|_| 1).collect()));

        let mut dim1 = Table::new("dim1");
        dim1.add_column(Column::new("key", (0..100).collect()));
        dim1.add_column(Column::new("grp", (0..100).map(|k| k % 4).collect()));
        // Select keys < 40, group by grp (4 groups).
        let d1 = build_dimension(
            &dim1,
            "key",
            |r| dim1.col("key")[r] < 40,
            |r| dim1.col("grp")[r],
            4,
            "fk1",
        );

        let mut dim2 = Table::new("dim2");
        dim2.add_column(Column::new("key", (0..50).collect()));
        // Pure filter: keys divisible by 5.
        let d2 = build_dimension(
            &dim2,
            "key",
            |r| dim2.col("key")[r].is_multiple_of(5),
            |_| 0,
            1,
            "fk2",
        );

        let plan = StarPlan {
            name: "toy".into(),
            filters: vec![],
            dims: vec![d1, d2],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        (fact, plan)
    }

    /// Straightforward row-at-a-time reference executor.
    fn reference(fact: &Table, plan: &StarPlan) -> Vec<u64> {
        let mut acc = vec![0u64; plan.group_cells()];
        'row: for r in 0..fact.len() {
            for f in &plan.filters {
                let x = fact.col(&f.col)[r] as i64;
                if !(f.lo as i64 <= x && x <= f.hi as i64) {
                    continue 'row;
                }
            }
            let mut gid = 0u64;
            for d in &plan.dims {
                let key = fact.col(&d.fk_col)[r];
                let pay = d.table.probe_scalar(key);
                if pay == hef_kernels::MISS {
                    continue 'row;
                }
                gid = gid * d.groups as u64 + pay;
            }
            let v = match &plan.measure {
                Measure::Sum(c) => fact.col(c)[r],
                Measure::SumProduct(a, b) => {
                    fact.col(a)[r].wrapping_mul(fact.col(b)[r])
                }
                Measure::SumDiff(a, b) => fact.col(a)[r].wrapping_sub(fact.col(b)[r]),
            };
            acc[gid as usize] = acc[gid as usize].wrapping_add(v);
        }
        acc
    }

    #[test]
    fn all_flavors_agree_with_reference() {
        let (fact, plan) = toy();
        let expect = reference(&fact, &plan);
        for flavor in Flavor::ALL {
            let out = execute_star(&plan, &fact, &ExecConfig::for_flavor(flavor));
            assert_eq!(out.groups, expect, "{}", flavor.name());
        }
    }

    #[test]
    fn filters_and_two_column_measures() {
        let (fact, mut plan) = toy();
        plan.filters.push(RangeFilter { col: "rev".into(), lo: 2, hi: 5 });
        plan.measure = Measure::SumDiff("rev".into(), "cost".into());
        let expect = reference(&fact, &plan);
        for flavor in Flavor::ALL {
            let out = execute_star(&plan, &fact, &ExecConfig::for_flavor(flavor));
            assert_eq!(out.groups, expect, "{}", flavor.name());
        }
    }

    #[test]
    fn stats_reflect_pipeline_shrinkage() {
        let (fact, plan) = toy();
        let out = execute_star(&plan, &fact, &ExecConfig::scalar());
        assert_eq!(out.stats.rows_scanned, 5000);
        // dim1 keeps keys < 40 → 40% survive; dim2 keeps multiples of 5.
        assert_eq!(out.stats.probes[0], 5000);
        assert!(out.stats.hits[0] < 5000 * 45 / 100);
        assert_eq!(out.stats.probes[1], out.stats.hits[0]);
        assert_eq!(out.stats.rows_aggregated, out.stats.hits[1]);
        assert!(out.stats.table_bytes[0] > 0);
    }

    #[test]
    fn ungrouped_query_uses_agg_kernel_and_matches() {
        let (fact, mut plan) = toy();
        // Make both dims pure filters → a single group cell.
        plan.dims[0].groups = 1;
        // Rebuild dim1 with payload 0 so codes stay < 1.
        let mut dim1 = Table::new("dim1");
        dim1.add_column(Column::new("key", (0..100).collect()));
        plan.dims[0] = build_dimension(
            &dim1,
            "key",
            |r| dim1.col("key")[r] < 40,
            |_| 0,
            1,
            "fk1",
        );
        let expect = reference(&fact, &plan);
        assert_eq!(plan.group_cells(), 1);
        for flavor in Flavor::ALL {
            let out = execute_star(&plan, &fact, &ExecConfig::for_flavor(flavor));
            assert_eq!(out.groups, expect, "{}", flavor.name());
            assert_eq!(out.total(), expect[0]);
        }
    }

    #[test]
    fn bloom_prefilter_preserves_results() {
        let (fact, plan) = toy();
        let expect = reference(&fact, &plan);
        for flavor in [Flavor::Scalar, Flavor::Simd, Flavor::Hybrid] {
            let mut cfg = ExecConfig::for_flavor(flavor);
            cfg.use_bloom = true;
            let out = execute_star(&plan, &fact, &cfg);
            assert_eq!(out.groups, expect, "bloom + {}", flavor.name());
            // Bloom passes only (near-)hits to the probe: probe count must
            // not exceed the no-bloom probe count and must cover all hits.
            let no_bloom = execute_star(&plan, &fact, &ExecConfig::for_flavor(flavor));
            assert!(out.stats.probes[0] <= no_bloom.stats.probes[0]);
            assert!(out.stats.probes[0] >= no_bloom.stats.hits[0]);
            assert_eq!(out.stats.hits, no_bloom.stats.hits);
        }
    }

    #[test]
    fn prefetched_execution_is_bit_identical() {
        let (fact, plan) = toy();
        let expect = reference(&fact, &plan);
        for flavor in [Flavor::Scalar, Flavor::Simd, Flavor::Hybrid] {
            for f in [1usize, 8, 33] {
                let cfg = ExecConfig::for_flavor(flavor).with_probe_prefetch(f);
                let out = execute_star(&plan, &fact, &cfg);
                assert_eq!(out.groups, expect, "{} f={f}", flavor.name());
            }
        }
    }

    #[test]
    fn declared_strides_make_probe_order_irrelevant() {
        // Same query, two probe orders. With strides pinned to the declared
        // order (d1 outer, d2 inner), group ids — and therefore results —
        // must be bit-identical regardless of probe order.
        let (fact, plan) = toy();
        let d1 = plan.dims[0].clone(); // 4 groups, declared first
        let d2 = plan.dims[1].clone(); // pure filter
        let declared = StarPlan {
            name: "declared".into(),
            filters: vec![],
            dims: vec![d1.clone(), d2.clone()],
            measure: plan.measure.clone(),
            strides: vec![1, 1], // d1 stride 1 (innermost of 4×1), d2 collapsed
        };
        let swapped = StarPlan {
            name: "swapped".into(),
            filters: vec![],
            dims: vec![d2, d1],
            measure: plan.measure.clone(),
            strides: vec![1, 1],
        };
        for flavor in Flavor::ALL {
            let cfg = ExecConfig::for_flavor(flavor);
            let a = execute_star(&declared, &fact, &cfg);
            let b = execute_star(&swapped, &fact, &cfg);
            assert_eq!(a.groups, b.groups, "{}", flavor.name());
            // And the legacy encoding (empty strides) agrees on this plan
            // because d2 contributes a single group.
            let legacy = execute_star(&plan, &fact, &cfg);
            assert_eq!(a.groups, legacy.groups, "legacy {}", flavor.name());
        }
    }

    #[test]
    fn bad_plans_are_typed_errors_not_panics() {
        let (fact, mut plan) = toy();
        plan.measure = Measure::Sum("ghost".into());
        let err = try_execute_star(&plan, &fact, &ExecConfig::scalar()).unwrap_err();
        assert!(
            matches!(&err, ExecError::BadPlan { query, message }
                if query == "toy" && message.contains("ghost")),
            "{err}"
        );

        let (fact, mut plan) = toy();
        plan.strides = vec![1]; // 1 stride, 2 dims
        assert!(matches!(
            try_execute_star(&plan, &fact, &ExecConfig::scalar()),
            Err(ExecError::BadPlan { .. })
        ));

        let (fact, mut plan) = toy();
        plan.strides = vec![4, 4]; // max gid 3*4 + 0*4 = 12 >= 4 cells
        assert!(matches!(
            try_execute_star(&plan, &fact, &ExecConfig::scalar()),
            Err(ExecError::BadPlan { .. })
        ));

        // The parallel path rejects up front too — no worker spawns.
        let (fact, mut plan) = toy();
        plan.filters.push(RangeFilter { col: "nope".into(), lo: 0, hi: 1 });
        assert!(matches!(
            try_execute_star(&plan, &fact, &ExecConfig::scalar().with_threads(4)),
            Err(ExecError::BadPlan { .. })
        ));
    }

    #[test]
    fn results_lists_only_nonzero_groups() {
        let (fact, plan) = toy();
        let out = execute_star(&plan, &fact, &ExecConfig::scalar());
        let res = out.results();
        assert!(!res.is_empty());
        assert!(res.iter().all(|&(_, v)| v != 0));
        assert_eq!(
            res.iter().map(|&(_, v)| v).fold(0u64, u64::wrapping_add),
            out.total()
        );
    }
}
