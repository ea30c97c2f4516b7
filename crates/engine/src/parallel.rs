//! The executor: one morsel scheduler and one entry point, whatever the
//! data source.
//!
//! SSB is embarrassingly parallel over the fact table: every operator of the
//! VIP-style pipeline (filter → probes → grouped aggregation) is a pure
//! function of the rows it scans plus read-only shared state (the dimension
//! probe tables and Bloom filters). [`run`] splits the fact table into
//! *morsels*, following the morsel-driven scheduling of HyPer, and lets
//! `std::thread::scope` workers claim them from a shared atomic cursor. A
//! [`MorselSource`] says where the rows come from and what a morsel is:
//!
//! * [`MorselSource::Mem`] — a resident [`Table`]; a morsel is
//!   [`MORSEL_BATCHES`] pipeline batches of rows;
//! * [`MorselSource::Paged`] — a [`PagedTable`] read through a bounded
//!   [`PageCache`]; a morsel is one page (see [`crate::paged`]).
//!
//! Each worker runs the **same** per-flavor pipeline
//! (`star::PipelineWorker`, or `voila::VoilaWorker` for in-memory Voila)
//! with private batch buffers, a private dense group-accumulator array, and
//! private [`ExecStats`]; the calling thread merges the per-worker outputs
//! at the end. One worker thread skips the scheduler and runs the guarded
//! serial rung directly.
//!
//! Determinism: group accumulators are wrapping `u64` sums and every stats
//! field is a sum over disjoint morsels, so the merged output is independent
//! of which worker claimed which morsel and of merge order — parallel output
//! is bit-identical to the serial path at any thread count, and paged output
//! is bit-identical to in-memory output. The differential and property tests
//! in `tests/` pin this down.
//!
//! Fault tolerance: each morsel is executed under `catch_unwind`. A panic —
//! or a page that cannot be read — discards the whole worker (its partial
//! accumulations are unmergeable), requeues everything that worker had
//! completed plus the poisoned morsel, and a fresh worker takes over. A
//! morsel that keeps failing degrades the query to the serial rung; if even
//! that fails the caller gets a typed [`ExecError`]. Every recovery action
//! is counted in the [`ExecReport`] returned beside the (bit-identical)
//! output — a worker crash can change a query's latency, never its result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

use hef_core::Registry;
use hef_storage::cache::PageCache;
use hef_storage::Table;
use hef_testutil::fault;

use crate::govern::{interrupt_error, CancelToken, DegradeAction, Interrupt, QueryCtx};
use crate::paged::PagedTable;
use crate::resolve::{resolve, Resolved};
use crate::star::{ExecConfig, ExecStats, FactCols, Flavor, PipelineWorker, QueryOutput, StarPlan};
use crate::voila::VoilaWorker;

/// Pipeline batches per in-memory morsel. Morsels are the scheduling
/// quantum: large enough that cursor contention is negligible (one
/// `fetch_add` per `MORSEL_BATCHES * batch` rows), small enough that workers
/// stay balanced on skewed selectivity and the per-batch working set stays
/// cache-resident.
pub const MORSEL_BATCHES: usize = 4;

/// Where a query's fact rows come from, and what one morsel of them is.
#[derive(Clone, Copy)]
pub enum MorselSource<'a> {
    /// A resident table; a morsel is [`MORSEL_BATCHES`] × `batch` rows.
    Mem(&'a Table),
    /// Paged compressed columns read through `cache`; a morsel is one page.
    Paged { table: &'a PagedTable, cache: &'a PageCache },
}

impl<'a> MorselSource<'a> {
    /// The fact table's name.
    pub fn name(&self) -> &'a str {
        match *self {
            MorselSource::Mem(t) => t.name(),
            MorselSource::Paged { table, .. } => table.name(),
        }
    }

    /// Fact rows.
    pub fn rows(&self) -> usize {
        match *self {
            MorselSource::Mem(t) => t.len(),
            MorselSource::Paged { table, .. } => table.rows() as usize,
        }
    }

    pub(crate) fn has_column(&self, col: &str) -> bool {
        match *self {
            MorselSource::Mem(t) => t.column(col).is_some(),
            MorselSource::Paged { table, .. } => table.column(col).is_some(),
        }
    }

    /// Number of morsels at `batch` rows per pipeline batch.
    pub(crate) fn morsels(&self, batch: usize) -> usize {
        match *self {
            MorselSource::Mem(t) => t.len().div_ceil(morsel_rows(batch)),
            MorselSource::Paged { table, .. } => table.page_count(),
        }
    }

    /// Rows of morsel `idx` as a `lo..hi` range, with the batch size the
    /// pipeline steps through it by: in-memory morsels run in `batch`-row
    /// batches; a page is one batch (its row ids are page-local).
    pub(crate) fn morsel(&self, idx: usize, batch: usize) -> (usize, usize, usize) {
        match *self {
            MorselSource::Mem(t) => {
                let m = morsel_rows(batch);
                let lo = idx.saturating_mul(m).min(t.len());
                (lo, lo.saturating_add(m).min(t.len()), batch.max(1))
            }
            MorselSource::Paged { table, .. } => {
                let rows = table.page_rows(idx);
                (0, rows, rows.max(1))
            }
        }
    }
}

fn morsel_rows(batch: usize) -> usize {
    (MORSEL_BATCHES * batch).max(1)
}

/// Why a worker stopped part-way through a morsel.
pub(crate) enum Halt {
    /// A governance interrupt: the whole query is ending.
    Interrupt(Interrupt),
    /// A page could not be read. The worker is discarded and the morsel
    /// retried like a lost worker's; on the serial rung it is a typed
    /// [`ExecError::Failed`].
    Read(String),
}

impl From<Interrupt> for Halt {
    fn from(i: Interrupt) -> Halt {
        Halt::Interrupt(i)
    }
}

/// One worker of either execution strategy (the scheduler is
/// flavor-agnostic; Voila rides along so the paper's comparison stays
/// apples-to-apples at every thread count). Voila reads resident columns
/// only, so a paged source runs the pipeline worker whatever the flavor.
enum AnyWorker<'a> {
    Pipeline(PipelineWorker<'a>),
    Voila(VoilaWorker<'a>),
}

impl<'a> AnyWorker<'a> {
    fn new(plan: &'a StarPlan, fact: &'a FactCols<'a>, cfg: &'a ExecConfig) -> Self {
        match fact.source {
            MorselSource::Mem(table) if cfg.flavor == Flavor::Voila => {
                AnyWorker::Voila(VoilaWorker::new(plan, table, cfg.batch))
            }
            _ => AnyWorker::Pipeline(PipelineWorker::new(plan, fact, cfg)),
        }
    }

    /// Run morsel `idx`, checking `ctx` at every batch boundary, so a
    /// cancel or deadline fires mid-morsel.
    fn try_run_morsel(&mut self, idx: usize, ctx: &QueryCtx) -> Result<(), Halt> {
        match self {
            AnyWorker::Pipeline(w) => w.try_run_morsel(idx, ctx),
            AnyWorker::Voila(w) => Ok(w.try_run_morsel(idx, ctx)?),
        }
    }

    fn finish(self) -> QueryOutput {
        match self {
            AnyWorker::Pipeline(w) => w.finish(),
            AnyWorker::Voila(w) => w.finish(),
        }
    }
}

/// Per-query fault-recovery and governance attribution, returned beside the
/// output by [`run`] — and *inside* the [`ExecError::Cancelled`] /
/// [`ExecError::DeadlineExceeded`] variants, where it reports the partial
/// progress made before the interrupt. A clean run is all zeros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Worker threads the query ran with (1 = serial path).
    pub threads: usize,
    /// Morsels re-executed because a worker was lost (the poisoned morsel
    /// plus every morsel the dead worker had already completed).
    pub morsels_retried: usize,
    /// Workers discarded after a panic or a failed page read (each is
    /// replaced in place).
    pub workers_lost: usize,
    /// The parallel attempt was abandoned and the query re-run serially.
    pub degraded_to_serial: bool,
    /// Morsels fully executed (parallel path). On an interrupted query this
    /// is the partial-progress attribution.
    pub morsels_completed: usize,
    /// Degradations the governor applied at admission, in order.
    pub degrade_actions: Vec<DegradeAction>,
    /// Fingerprint of the `HEF_PIPELINE` row the config took its nodes
    /// from (hybrid flavor only); `None` when no row applied.
    pub pipeline_row: Option<u64>,
}

impl ExecReport {
    /// `true` when no fault-recovery or governance action was needed.
    pub fn is_clean(&self) -> bool {
        self.morsels_retried == 0
            && self.workers_lost == 0
            && !self.degraded_to_serial
            && self.degrade_actions.is_empty()
    }
}

/// Typed executor failure: a degradation-ladder exhaustion, an invalid
/// plan, or a governance outcome (rejection, cancellation, deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The serial fallback itself panicked or could not read a page.
    Failed { query: String, message: String },
    /// The plan references columns the fact table does not have, or its
    /// group-id strides are inconsistent; rejected up front, before any
    /// worker could hit the inconsistency as a panic.
    BadPlan { query: String, message: String },
    /// Admission control refused the query: the concurrent-query cap is
    /// full, or the memory budget cannot fit it even after the full
    /// degradation ladder. `retry_after_ms` hints when to try again (see
    /// [`crate::govern::try_execute_star_with_retry`]).
    Rejected { query: String, retry_after_ms: u64 },
    /// The query's [`crate::govern::CancelToken`] fired mid-execution; the
    /// report carries the partial progress.
    Cancelled { query: String, report: ExecReport },
    /// The per-query deadline (`HEF_DEADLINE_MS` / `ExecConfig::
    /// deadline_ms`) passed mid-execution; the report carries the partial
    /// progress.
    DeadlineExceeded { query: String, deadline_ms: u64, report: ExecReport },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Failed { query, message } => {
                write!(f, "query `{query}` failed after exhausting degradation ladder: {message}")
            }
            ExecError::BadPlan { query, message } => {
                write!(f, "query `{query}` rejected: {message}")
            }
            ExecError::Rejected { query, retry_after_ms } => {
                write!(
                    f,
                    "query `{query}` refused admission (queue or memory budget full); \
                     retry in ~{retry_after_ms}ms"
                )
            }
            ExecError::Cancelled { query, report } => {
                write!(
                    f,
                    "query `{query}` cancelled after {} completed morsels",
                    report.morsels_completed
                )
            }
            ExecError::DeadlineExceeded { query, deadline_ms, report } => {
                write!(
                    f,
                    "query `{query}` exceeded its {deadline_ms}ms deadline \
                     after {} completed morsels",
                    report.morsels_completed
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Run a star query to completion: the one entry point every executor call
/// goes through. In order, it validates `plan` against `source`, resolves
/// and admits the config (see [`crate::resolve`]: node validation, the
/// hybrid `HEF_PIPELINE` row, the env knobs, then the current governor,
/// which may degrade the config or reject), builds the [`QueryCtx`] from
/// `cancel` and the config's deadline, and dispatches to the morsel
/// scheduler (more than one worker) or the guarded serial rung (one
/// worker). The admission-time degradations and the applied pipeline row
/// are stamped into whichever [`ExecReport`] the outcome carries.
///
/// Clone `cancel` into whatever owns the query's lifetime and cancel it to
/// stop the query at the next morsel or batch boundary with a typed
/// [`ExecError::Cancelled`].
pub fn run(
    plan: &StarPlan,
    source: MorselSource<'_>,
    cfg: &ExecConfig,
    cancel: &CancelToken,
) -> Result<(QueryOutput, ExecReport), ExecError> {
    let ctx = QueryCtx::new(cancel.clone(), 0);
    run_ctx(plan, source, cfg, &ctx, crate::resolve::pipeline_registry())
}

/// [`run`] under a caller-held context, taking pipeline rows from
/// `pipeline`; the config's deadline, when set, further bounds the
/// caller's.
pub(crate) fn run_ctx(
    plan: &StarPlan,
    source: MorselSource<'_>,
    cfg: &ExecConfig,
    caller: &QueryCtx,
    pipeline: &Registry,
) -> Result<(QueryOutput, ExecReport), ExecError> {
    // Drop-guard drain: a query ending in a typed error (Rejected /
    // Cancelled / DeadlineExceeded / Failed) — or unwinding — flushes the
    // partially-filled trace buffers to the session's file via
    // `trace::checkpoint`, so `HEF_TRACE` output survives non-success
    // paths. A successful query disarms and leaves the single write to the
    // session's `finish()`.
    struct TraceDrain {
        armed: bool,
    }
    impl Drop for TraceDrain {
        fn drop(&mut self) {
            if self.armed {
                hef_obs::trace::checkpoint();
            }
        }
    }
    let mut drain = TraceDrain { armed: hef_obs::trace::enabled() };
    crate::star::validate_star_plan_with(plan, source.name(), |c| source.has_column(c))?;
    let fact = FactCols::resolve(plan, source)?;
    // The admission guard's Drop releases the charge on every path out of
    // this function.
    let Resolved { cfg, threads, pipeline_row, mut admission } =
        resolve(plan, source, cfg, pipeline)?;
    let ctx = caller.bounded(cfg.deadline_ms);
    let cfg = &cfg;
    let _qspan = if hef_obs::trace::enabled() {
        hef_obs::trace::span_begin_labeled(
            "query",
            &format!("{} [{}]", plan.name, cfg.flavor.name()),
            &[("rows", source.rows() as i64), ("threads", threads as i64)],
        )
    } else {
        hef_obs::trace::SpanGuard::disabled()
    };
    hef_obs::metrics::add(hef_obs::metrics::Metric::QueriesExecuted, 1);
    let mut result = if threads > 1 {
        run_scheduled(plan, &fact, cfg, threads, &ctx)
    } else {
        let report = ExecReport { threads: 1, ..Default::default() };
        run_serial_guarded(plan, &fact, cfg, &ctx, &report).map(|out| (out, report))
    };
    // Stamp the resolution's provenance into whichever report the outcome
    // carries, so callers always see the full attribution.
    let actions = admission.take_actions();
    match &mut result {
        Ok((_, report))
        | Err(ExecError::Cancelled { report, .. })
        | Err(ExecError::DeadlineExceeded { report, .. }) => {
            report.degrade_actions = actions;
            report.pipeline_row = pipeline_row;
        }
        Err(_) => {}
    }
    if result.is_ok() {
        // How close did a deadlined query come to its budget? Slack feeds
        // capacity planning (a p1 near 0 means deadlines are about to fire).
        if let Some(slack) = ctx.remaining_ms() {
            hef_obs::metrics::observe(hef_obs::metrics::Hist::DeadlineSlackMs, slack);
        }
        drain.armed = false;
    }
    hef_obs::metrics::maybe_dump();
    result
}

/// Failures tolerated per morsel before the query abandons the parallel
/// path and degrades to serial.
const MAX_MORSEL_RETRIES: u32 = 2;

/// Shared scheduling state: the fresh-work cursor over morsel indices plus
/// the retry queue of `(morsel, attempts)` reclaimed from dead workers.
struct Scheduler {
    morsels: usize,
    cursor: AtomicUsize,
    retry: Mutex<Vec<(usize, u32)>>,
    /// Morsels claimed but not yet completed or requeued. Workers only exit
    /// when the cursor is exhausted, the retry queue is empty, and nothing
    /// is in flight — an in-flight morsel may still fail and be requeued.
    in_flight: AtomicUsize,
    /// A morsel exceeded [`MAX_MORSEL_RETRIES`]: stop everything, go serial.
    give_up: AtomicBool,
    /// Governance stop-cause: 0 = running, 1 = cancelled, 2 = deadline.
    /// Checked in [`Scheduler::claim`] — including its wait-spin, so no
    /// worker can wait forever on a peer that was interrupted.
    stop: AtomicU8,
    retried: AtomicUsize,
    workers_lost: AtomicUsize,
    /// Morsels fully executed (partial-progress attribution).
    completed: AtomicUsize,
}

impl Scheduler {
    fn new(morsels: usize) -> Scheduler {
        Scheduler {
            morsels,
            cursor: AtomicUsize::new(0),
            retry: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            give_up: AtomicBool::new(false),
            stop: AtomicU8::new(0),
            retried: AtomicUsize::new(0),
            workers_lost: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
        }
    }

    /// Record a governance interrupt (first cause wins) and stop handing
    /// out work.
    fn interrupt(&self, i: Interrupt) {
        let code = match i {
            Interrupt::Cancelled => 1,
            Interrupt::DeadlineExceeded => 2,
        };
        let _ = self.stop.compare_exchange(0, code, Ordering::AcqRel, Ordering::Acquire);
    }

    fn interrupted(&self) -> Option<Interrupt> {
        match self.stop.load(Ordering::Acquire) {
            1 => Some(Interrupt::Cancelled),
            2 => Some(Interrupt::DeadlineExceeded),
            _ => None,
        }
    }

    fn claim(&self) -> Option<(usize, u32)> {
        loop {
            if self.give_up.load(Ordering::Acquire) || self.stop.load(Ordering::Acquire) != 0 {
                return None;
            }
            {
                let mut q = self.retry.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(r) = q.pop() {
                    self.in_flight.fetch_add(1, Ordering::AcqRel);
                    return Some(r);
                }
            }
            let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
            if idx < self.morsels {
                self.in_flight.fetch_add(1, Ordering::AcqRel);
                return Some((idx, 0));
            }
            // Fresh work is exhausted. If anything is still in flight it may
            // yet be requeued, so wait; otherwise we are done.
            if self.in_flight.load(Ordering::Acquire) == 0 {
                let empty =
                    self.retry.lock().unwrap_or_else(|e| e.into_inner()).is_empty();
                if empty && self.in_flight.load(Ordering::Acquire) == 0 {
                    return None;
                }
            }
            std::thread::yield_now();
        }
    }

    fn complete(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Requeue morsels after a worker loss. The poisoned morsel's attempt
    /// count carries forward; replayed (previously completed) morsels start
    /// fresh. Pushes happen before the in-flight decrement so no worker can
    /// observe "queue empty and nothing in flight" mid-requeue.
    fn requeue(&self, poisoned: (usize, u32), done: &[usize]) {
        let (idx, attempts) = poisoned;
        self.workers_lost.fetch_add(1, Ordering::AcqRel);
        hef_obs::metrics::add(hef_obs::metrics::Metric::WorkersLost, 1);
        hef_obs::event!("worker_lost", morsel = idx, attempts = attempts);
        if attempts >= MAX_MORSEL_RETRIES {
            self.give_up.store(true, Ordering::Release);
            hef_obs::metrics::add(hef_obs::metrics::Metric::SerialDegradations, 1);
            hef_obs::event!("degrade_serial", morsel = idx);
            self.complete();
            return;
        }
        {
            let mut q = self.retry.lock().unwrap_or_else(|e| e.into_inner());
            q.push((idx, attempts + 1));
            q.extend(done.iter().map(|&d| (d, 0)));
        }
        self.retried.fetch_add(1 + done.len(), Ordering::AcqRel);
        hef_obs::metrics::add(
            hef_obs::metrics::Metric::MorselsRetried,
            1 + done.len() as u64,
        );
        self.complete();
    }
}

/// One fault-isolated worker loop: claim morsels, run each under
/// `catch_unwind`, and on a panic or failed page read discard the whole
/// worker (partial accumulations are unmergeable), requeue its completed
/// morsels plus the poisoned one, and start over with a fresh worker.
/// Returns `None` when the query gave up on the parallel path.
fn worker_loop<'a>(
    wid: usize,
    sched: &Scheduler,
    plan: &'a StarPlan,
    fact: &'a FactCols<'a>,
    cfg: &'a ExecConfig,
    ctx: &QueryCtx,
) -> Option<QueryOutput> {
    if hef_obs::trace::enabled() {
        hef_obs::trace::set_thread_name(&format!("worker-{wid}"));
    }
    let _wspan = hef_obs::span!("worker", wid = wid);
    let mut w = AnyWorker::new(plan, fact, cfg);
    let mut done: Vec<usize> = Vec::new();
    while let Some((idx, attempts)) = sched.claim() {
        let (lo, hi, _) = fact.source.morsel(idx, cfg.batch);
        hef_obs::metrics::add(hef_obs::metrics::Metric::MorselsClaimed, 1);
        hef_obs::metrics::observe(hef_obs::metrics::Hist::MorselRows, (hi - lo) as u64);
        // The `slow_morsel:` fault stalls here, in interruptible slices, so
        // a deadline/cancel fires *mid*-morsel and still comes back typed.
        if let Some(stall) = fault::next_slow_morsel(wid, idx) {
            if let Err(i) = crate::govern::sleep_checked(stall, ctx) {
                sched.interrupt(i);
                sched.complete();
                return None;
            }
        }
        // The span guard lives inside the catch_unwind closure so a panic
        // still closes the morsel span on unwind.
        let t0 = hef_obs::metrics::enabled().then(std::time::Instant::now);
        let run = catch_unwind(AssertUnwindSafe(|| {
            let _mspan = hef_obs::span_fine!("morsel", idx = idx, rows = hi - lo, attempt = attempts);
            fault::maybe_panic_worker(wid, idx, fault::Phase::Before);
            let r = w.try_run_morsel(idx, ctx);
            fault::maybe_panic_worker(wid, idx, fault::Phase::After);
            r
        }));
        match run {
            Ok(Ok(())) => {
                if let Some(t0) = t0 {
                    hef_obs::metrics::observe(
                        hef_obs::metrics::Hist::MorselLatencyUs,
                        t0.elapsed().as_micros() as u64,
                    );
                }
                done.push(idx);
                sched.completed.fetch_add(1, Ordering::AcqRel);
                sched.complete();
            }
            Ok(Err(Halt::Interrupt(i))) => {
                // Interrupted mid-morsel: this worker's partial output is
                // unusable, and the whole query is ending anyway.
                sched.interrupt(i);
                sched.complete();
                return None;
            }
            Ok(Err(Halt::Read(_))) | Err(_) => {
                sched.requeue((idx, attempts), &done);
                w = AnyWorker::new(plan, fact, cfg);
                done.clear();
            }
        }
    }
    if sched.give_up.load(Ordering::Acquire) || sched.stop.load(Ordering::Acquire) != 0 {
        return None;
    }
    Some(w.finish())
}

/// Execute with `threads` workers pulling morsels from a shared atomic
/// cursor, with the full degradation ladder. Every worker checks `ctx` at
/// morsel claims and batch boundaries, and an interrupt drains the
/// scheduler and comes back as a typed error with the partial
/// [`ExecReport`]. `std::thread::scope` guarantees all workers are joined
/// before this returns — interrupted queries never leak threads.
fn run_scheduled(
    plan: &StarPlan,
    fact: &FactCols<'_>,
    cfg: &ExecConfig,
    threads: usize,
    ctx: &QueryCtx,
) -> Result<(QueryOutput, ExecReport), ExecError> {
    let sched = Scheduler::new(fact.source.morsels(cfg.batch));
    let mut outputs: Vec<QueryOutput> = Vec::with_capacity(threads);
    let mut worker_escaped = false;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| {
                let sched = &sched;
                s.spawn(move || worker_loop(wid, sched, plan, fact, cfg, ctx))
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Some(out)) => outputs.push(out),
                Ok(None) => {}
                // A panic outside the catch_unwind window (worker
                // construction, finish): treat like any worker loss and
                // degrade.
                Err(_) => worker_escaped = true,
            }
        }
    });

    let mut report = ExecReport {
        threads,
        morsels_retried: sched.retried.load(Ordering::Acquire),
        workers_lost: sched.workers_lost.load(Ordering::Acquire),
        degraded_to_serial: false,
        morsels_completed: sched.completed.load(Ordering::Acquire),
        ..Default::default()
    };
    if let Some(i) = sched.interrupted() {
        return Err(interrupt_error(&plan.name, ctx, i, report));
    }
    if sched.give_up.load(Ordering::Acquire) || worker_escaped {
        if worker_escaped {
            report.workers_lost += 1;
        }
        report.degraded_to_serial = true;
        let out = run_serial_guarded(plan, fact, cfg, ctx, &report)?;
        return Ok((out, report));
    }
    Ok((merge_outputs(plan, outputs), report))
}

/// The serial rung: one worker over every morsel in order, panic-guarded.
/// A panic or failed page read is the ladder's last rung and becomes a
/// typed [`ExecError::Failed`]; a cancel or deadline observed at a batch
/// boundary comes back typed, carrying `base_report`'s attribution (the
/// serial rung may be the tail of an abandoned parallel attempt, whose
/// recovery counts should survive into the error). Consults the fault
/// harness once (worker id [`fault::SERIAL_WORKER`], morsel 0) so
/// unrestricted `HEF_FAULT=panic:morsel=0` plans exercise this rung too.
fn run_serial_guarded(
    plan: &StarPlan,
    fact: &FactCols<'_>,
    cfg: &ExecConfig,
    ctx: &QueryCtx,
    base_report: &ExecReport,
) -> Result<QueryOutput, ExecError> {
    let failed = |message: String| ExecError::Failed { query: plan.name.clone(), message };
    let run = catch_unwind(AssertUnwindSafe(|| -> Result<QueryOutput, Halt> {
        fault::maybe_panic_worker(fault::SERIAL_WORKER, 0, fault::Phase::Before);
        if let Some(stall) = fault::next_slow_morsel(fault::SERIAL_WORKER, 0) {
            crate::govern::sleep_checked(stall, ctx)?;
        }
        let mut w = AnyWorker::new(plan, fact, cfg);
        for idx in 0..fact.source.morsels(cfg.batch) {
            w.try_run_morsel(idx, ctx)?;
        }
        Ok(w.finish())
    }))
    .map_err(|payload| {
        failed(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic with non-string payload".to_string()),
        )
    })?;
    run.map_err(|halt| match halt {
        Halt::Interrupt(i) => interrupt_error(&plan.name, ctx, i, base_report.clone()),
        Halt::Read(message) => failed(message),
    })
}

/// Merge per-worker outputs into one [`QueryOutput`]. Group cells and every
/// per-row stats field are sums over disjoint morsels (wrapping adds →
/// commutative and associative, so worker scheduling cannot change the
/// result); the probe-table working set is shared, not per-worker, so
/// `table_bytes` is taken from the plan rather than summed.
fn merge_outputs(plan: &StarPlan, outputs: Vec<QueryOutput>) -> QueryOutput {
    let ndims = plan.dims.len();
    let mut merged = QueryOutput {
        groups: vec![0u64; plan.group_cells()],
        stats: ExecStats {
            probes: vec![0; ndims],
            hits: vec![0; ndims],
            table_bytes: plan.dims.iter().map(|d| d.table.working_set_bytes()).collect(),
            ..Default::default()
        },
    };
    for out in outputs {
        for (m, g) in merged.groups.iter_mut().zip(out.groups.iter()) {
            *m = m.wrapping_add(*g);
        }
        merged.stats.rows_scanned += out.stats.rows_scanned;
        merged.stats.rows_after_filter += out.stats.rows_after_filter;
        for (m, p) in merged.stats.probes.iter_mut().zip(out.stats.probes.iter()) {
            *m += p;
        }
        for (m, h) in merged.stats.hits.iter_mut().zip(out.stats.hits.iter()) {
            *m += h;
        }
        merged.stats.rows_aggregated += out.stats.rows_aggregated;
        merged.stats.materialized += out.stats.materialized;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::{build_dimension, Measure};
    use hef_storage::Column;

    fn toy(n: u64) -> (Table, StarPlan) {
        let mut fact = Table::new("fact");
        fact.add_column(Column::new("fk", (0..n).map(|i| i % 128).collect()));
        fact.add_column(Column::new("rev", (0..n).map(|i| i % 11 + 1).collect()));
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", (0..128).collect()));
        let d = build_dimension(
            &dim,
            "key",
            |r| dim.col("key")[r] < 96,
            |r| dim.col("key")[r] % 8,
            8,
            "fk",
        );
        let plan = StarPlan {
            name: "toy".into(),
            filters: vec![],
            dims: vec![d],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        (fact, plan)
    }

    fn run_mem(
        plan: &StarPlan,
        fact: &Table,
        cfg: &ExecConfig,
        threads: usize,
    ) -> Result<(QueryOutput, ExecReport), ExecError> {
        run(plan, MorselSource::Mem(fact), &cfg.with_threads(threads), &CancelToken::new())
    }

    #[test]
    fn parallel_matches_serial_at_various_thread_counts() {
        let (fact, plan) = toy(20_000);
        for flavor in Flavor::ALL {
            let cfg = ExecConfig::for_flavor(flavor);
            let (serial, _) = run_mem(&plan, &fact, &cfg, 1).unwrap();
            for threads in [2, 3, 7] {
                let (par, _) = run_mem(&plan, &fact, &cfg, threads).unwrap();
                assert_eq!(par, serial, "{} × {threads} threads", flavor.name());
            }
        }
    }

    #[test]
    fn empty_and_sub_morsel_inputs() {
        for n in [0u64, 1, 7, 100] {
            let (fact, plan) = toy(n);
            let cfg = ExecConfig::hybrid_default();
            let (serial, _) = run_mem(&plan, &fact, &cfg, 1).unwrap();
            let (par, _) = run_mem(&plan, &fact, &cfg, 4).unwrap();
            assert_eq!(par, serial, "n={n}");
        }
    }

    #[test]
    fn worker_panic_recovers_bit_identical() {
        use hef_testutil::fault::{with_plan, FaultPlan, WorkerPanic};
        let (fact, plan) = toy(20_000);
        let cfg = ExecConfig::hybrid_default();
        let faults = FaultPlan {
            worker_panics: vec![WorkerPanic {
                worker: None,
                morsel: 2,
                times: 1,
                after: false,
            }],
            ..Default::default()
        };
        let serial = with_plan(FaultPlan::default(), || run_mem(&plan, &fact, &cfg, 1).unwrap().0);
        with_plan(faults, || {
            let (out, report) = run_mem(&plan, &fact, &cfg, 4).expect("recovers");
            assert_eq!(out, serial, "recovery changed the result");
            assert_eq!(report.workers_lost, 1);
            assert!(report.morsels_retried >= 1);
            assert!(!report.degraded_to_serial);
            assert!(!report.is_clean());
        });
    }

    #[test]
    fn clean_run_reports_clean() {
        let (fact, plan) = toy(10_000);
        let (_, report) = run_mem(&plan, &fact, &ExecConfig::hybrid_default(), 3).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.threads, 3);
        assert_eq!(report.morsels_completed, 3, "10 000 rows / 4096-row morsels");
    }

    #[test]
    fn threads_config_routes_execute_star() {
        let (fact, plan) = toy(10_000);
        let serial = crate::execute_star(&plan, &fact, &ExecConfig::scalar().with_threads(1));
        let par = crate::execute_star(&plan, &fact, &ExecConfig::scalar().with_threads(4));
        assert_eq!(par, serial);
    }
}
