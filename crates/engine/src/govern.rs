//! Query lifecycle governance: admission control, memory budgets with
//! graceful degradation, deadlines, and cooperative cancellation.
//!
//! The ROADMAP's end state is a multi-query server; this module is the
//! robustness substrate it stands on. Before a query executes, the process
//! [`Governor`] *admits* it: a concurrent-query cap and a global memory
//! budget bound what the scheduler will take on, and an over-budget query is
//! first **degraded** — shrink morsel batch buffers, then shed worker
//! threads — and only **rejected** (typed
//! [`ExecError::Rejected`] with a retry hint, never an unbounded queue) when
//! even the minimal shape does not fit. Admitted queries run under a
//! [`QueryCtx`] — an `Arc`-shared [`CancelToken`] plus an optional deadline
//! — checked at every morsel claim and batch boundary, surfacing as typed
//! [`ExecError::Cancelled`] / [`ExecError::DeadlineExceeded`] with the
//! partial [`ExecReport`] attached: never a panic, never a hang.
//!
//! Accounting is RAII: admission charges the [`BudgetTracker`] once with the
//! worst-case estimate ([`estimate_query_bytes`]) and the [`Admission`]
//! guard releases exactly that on drop, so the budget returns to zero after
//! *every* outcome — completion, cancellation, deadline, worker panic, or
//! serial degradation. Every governance action (admit / degrade / reject /
//! cancel / deadline) emits an obs event and bumps a `govern.*` counter so
//! `repro report` can show why a query was slowed or refused.
//!
//! Configuration comes from `HEF_MAX_QUERIES` (concurrent-query cap, 0 =
//! unlimited) and `HEF_MEM_BUDGET` (bytes, `k`/`m`/`g` suffixes accepted,
//! 0 = unlimited), read once per process; tests install a scoped governor
//! for the calling thread via [`with_governor`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::parallel::{ExecError, ExecReport, MorselSource};
use crate::star::{ExecConfig, Flavor, Measure, QueryOutput, StarPlan};

/// Why a governed query stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The query's [`CancelToken`] fired.
    Cancelled,
    /// The per-query deadline passed.
    DeadlineExceeded,
}

/// One degradation the governor applied to fit a query under the memory
/// budget, recorded in [`ExecReport::degrade_actions`] in the order taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// Morsel batch buffers halved (floor [`MIN_BATCH`]).
    ShrinkBatch { from: usize, to: usize },
    /// Worker threads halved (floor 1).
    ReduceWorkers { from: usize, to: usize },
}

/// Smallest batch size the degradation ladder will shrink to: below a few
/// hundred rows per batch the per-batch dispatch overhead dominates and
/// shrinking further cannot save meaningful memory.
pub const MIN_BATCH: usize = 256;

/// Hard cap on a single backoff sleep in
/// [`try_execute_star_with_retry`].
const MAX_BACKOFF_MS: u64 = 100;

// ---------------------------------------------------------------------------
// Cancellation and deadlines.
// ---------------------------------------------------------------------------

/// An `Arc`-shared cooperative cancellation flag. Clone it into whatever
/// thread owns the query's lifetime and call [`CancelToken::cancel`]; every
/// worker observes the flag at its next morsel claim or batch boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The per-query execution context workers consult at every morsel claim
/// and batch boundary: a cancellation token plus an optional deadline.
/// [`QueryCtx::check`] on an unbounded context is one atomic load.
#[derive(Debug, Clone)]
pub struct QueryCtx {
    cancel: CancelToken,
    deadline: Option<Instant>,
    deadline_ms: u64,
}

impl QueryCtx {
    /// `deadline_ms == 0` means no deadline.
    pub fn new(cancel: CancelToken, deadline_ms: u64) -> QueryCtx {
        let deadline = (deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(deadline_ms));
        QueryCtx { cancel, deadline, deadline_ms }
    }

    /// A context that never interrupts (fresh token, no deadline).
    pub fn unbounded() -> QueryCtx {
        QueryCtx::new(CancelToken::new(), 0)
    }

    /// The configured deadline in milliseconds (0 = none), for error
    /// attribution.
    pub fn deadline_ms(&self) -> u64 {
        self.deadline_ms
    }

    /// Milliseconds left before the deadline, saturating at 0 once it has
    /// passed; `None` when the context has no deadline. Feeds the
    /// `govern.deadline_slack_ms` histogram on successful completion.
    pub fn remaining_ms(&self) -> Option<u64> {
        let d = self.deadline?;
        Some(d.saturating_duration_since(Instant::now()).as_millis() as u64)
    }

    /// This context further bounded by a `deadline_ms` budget starting now
    /// (`0` = no further bound); the earlier deadline wins.
    pub(crate) fn bounded(&self, deadline_ms: u64) -> QueryCtx {
        let own = QueryCtx::new(self.cancel.clone(), deadline_ms);
        match (self.deadline, own.deadline) {
            (Some(mine), Some(theirs)) if mine <= theirs => self.clone(),
            (_, Some(_)) => own,
            (_, None) => self.clone(),
        }
    }

    /// Poll for an interrupt. Cancellation wins over the deadline when both
    /// hold, so an explicit cancel is always reported as such.
    #[inline]
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.cancel.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Interrupt::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// Sleep `total`, checking `ctx` every millisecond so a deadline or cancel
/// fires *mid*-sleep — this is how the `slow_morsel:` fault stalls a worker
/// without ever making the query uninterruptible.
pub fn sleep_checked(total: Duration, ctx: &QueryCtx) -> Result<(), Interrupt> {
    let end = Instant::now() + total;
    loop {
        ctx.check()?;
        let now = Instant::now();
        if now >= end {
            return Ok(());
        }
        std::thread::sleep((end - now).min(Duration::from_millis(1)));
    }
}

/// Convert an [`Interrupt`] into its typed [`ExecError`], attaching the
/// partial report and bumping the governance counters — the single point
/// where cancellations and deadline misses are surfaced.
pub(crate) fn interrupt_error(
    query: &str,
    ctx: &QueryCtx,
    interrupt: Interrupt,
    report: ExecReport,
) -> ExecError {
    use hef_obs::metrics::{add, Metric};
    match interrupt {
        Interrupt::Cancelled => {
            add(Metric::GovCancelled, 1);
            hef_obs::event!("govern_cancelled", morsels_completed = report.morsels_completed);
            ExecError::Cancelled { query: query.to_string(), report }
        }
        Interrupt::DeadlineExceeded => {
            add(Metric::GovDeadlineExceeded, 1);
            hef_obs::event!(
                "govern_deadline",
                deadline_ms = ctx.deadline_ms,
                morsels_completed = report.morsels_completed
            );
            ExecError::DeadlineExceeded {
                query: query.to_string(),
                deadline_ms: ctx.deadline_ms,
                report,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Memory accounting.
// ---------------------------------------------------------------------------

/// A global byte budget with lock-free charge/release. `limit == 0` means
/// unlimited (every charge succeeds and costs nothing).
#[derive(Debug)]
pub struct BudgetTracker {
    limit: usize,
    used: AtomicUsize,
}

impl BudgetTracker {
    fn new(limit: usize) -> BudgetTracker {
        BudgetTracker { limit, used: AtomicUsize::new(0) }
    }

    /// The configured limit in bytes (0 = unlimited).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Acquire)
    }

    /// Charge `bytes` if they fit; `false` leaves the tracker unchanged.
    fn try_charge(&self, bytes: usize) -> bool {
        if self.limit == 0 {
            return true;
        }
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(bytes) {
                Some(n) if n <= self.limit => n,
                _ => return false,
            };
            match self.used.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => cur = observed,
            }
        }
    }

    fn release(&self, bytes: usize) {
        if bytes > 0 {
            self.used.fetch_sub(bytes, Ordering::AcqRel);
        }
    }
}

/// Worst-case bytes a query's execution scratch will allocate: per worker,
/// the reusable batch buffers (pipeline: sel/keys/probe_out/gids/vals +
/// measure scratch; Voila: one dense buffer per column + gid/slots/pay),
/// and the private group-accumulator array. A paged source batches whole
/// pages, adds one decoded page buffer per plan column plus the code-space
/// filter buffer per worker, and the page cache's full capacity (the
/// standing allocation a paged scan can pin). Deliberately a slight
/// over-estimate: admission must never under-charge.
pub fn estimate_query_bytes(
    plan: &StarPlan,
    source: MorselSource<'_>,
    cfg: &ExecConfig,
    threads: usize,
) -> usize {
    let measure_cols = match plan.measure {
        Measure::Sum(_) => 1,
        Measure::SumProduct(..) | Measure::SumDiff(..) => 2,
    };
    let (batch, streams, shared) = match source {
        MorselSource::Mem(fact) => {
            let streams =
                if cfg.flavor == Flavor::Voila { plan.dims.len() + measure_cols + 3 } else { 6 };
            (cfg.batch.clamp(1, fact.len().max(1)), streams, 0)
        }
        MorselSource::Paged { table, cache } => {
            let plan_cols = plan.filters.len() + plan.dims.len() + measure_cols;
            (table.rows_per_page().max(1), 6 + plan_cols + 1, cache.capacity())
        }
    };
    let per_worker = batch * 8 * streams + plan.group_cells() * 8;
    (threads.max(1) * per_worker).saturating_add(shared)
}

// ---------------------------------------------------------------------------
// The governor.
// ---------------------------------------------------------------------------

/// Governor configuration (see module docs for the environment knobs).
#[derive(Debug, Clone, Copy, Default)]
pub struct GovernorConfig {
    /// Concurrent-query cap (0 = unlimited).
    pub max_queries: usize,
    /// Global memory budget in bytes (0 = unlimited).
    pub mem_budget: usize,
}

impl GovernorConfig {
    /// Read `HEF_MAX_QUERIES` / `HEF_MEM_BUDGET` (once per process — the
    /// governor is global state, unlike the per-execution env knobs).
    pub fn from_env() -> GovernorConfig {
        GovernorConfig {
            max_queries: env_usize("HEF_MAX_QUERIES"),
            mem_budget: env_bytes("HEF_MEM_BUDGET"),
        }
    }
}

fn env_usize(key: &str) -> usize {
    let Ok(v) = std::env::var(key) else { return 0 };
    match v.trim().parse::<usize>() {
        Ok(n) => n,
        Err(_) => {
            hef_obs::diag::warn_once(
                "govern-bad-env",
                format!("{key}=`{v}` is not a non-negative integer; governor treats it as unset"),
            );
            0
        }
    }
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix (powers of 1024).
fn env_bytes(key: &str) -> usize {
    let Ok(v) = std::env::var(key) else { return 0 };
    let s = v.trim();
    let (digits, shift) = match s.char_indices().last() {
        Some((i, 'k')) | Some((i, 'K')) => (&s[..i], 10),
        Some((i, 'm')) | Some((i, 'M')) => (&s[..i], 20),
        Some((i, 'g')) | Some((i, 'G')) => (&s[..i], 30),
        _ => (s, 0),
    };
    match digits.trim().parse::<usize>() {
        Ok(n) => n.saturating_mul(1usize << shift),
        Err(_) => {
            hef_obs::diag::warn_once(
                "govern-bad-env",
                format!("{key}=`{v}` is not a byte count; governor treats it as unset"),
            );
            0
        }
    }
}

/// The process-wide query governor: admission control and the memory
/// budget.
#[derive(Debug)]
pub struct Governor {
    cfg: GovernorConfig,
    budget: BudgetTracker,
    active: AtomicUsize,
}

thread_local! {
    static OVERRIDE: RefCell<Option<Arc<Governor>>> = const { RefCell::new(None) };
}

/// Install a scoped governor for the calling thread, run `f` with it, then
/// restore the previous one. Queries entering the executor on this thread
/// are admitted by it; queries on every other thread are not, so concurrent
/// tests never observe each other's budgets.
pub fn with_governor<R>(cfg: GovernorConfig, f: impl FnOnce(&Arc<Governor>) -> R) -> R {
    let gov = Arc::new(Governor::new(cfg));
    struct Restore(Option<Arc<Governor>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| *o.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(gov.clone()))));
    f(&gov)
}

impl Governor {
    pub fn new(cfg: GovernorConfig) -> Governor {
        Governor {
            cfg,
            budget: BudgetTracker::new(cfg.mem_budget),
            active: AtomicUsize::new(0),
        }
    }

    /// The governor in effect: the calling thread's [`with_governor`]
    /// override when armed, else the process-global instance built from the
    /// environment.
    pub fn current() -> Arc<Governor> {
        if let Some(gov) = OVERRIDE.with(|o| o.borrow().clone()) {
            return gov;
        }
        static GLOBAL: OnceLock<Arc<Governor>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Governor::new(GovernorConfig::from_env()))).clone()
    }

    /// The memory budget tracker (for tests asserting it returns to zero).
    pub fn budget(&self) -> &BudgetTracker {
        &self.budget
    }

    /// Queries currently admitted and not yet finished.
    pub fn active_queries(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Admit a query, degrading `cfg`/`threads` under memory pressure (see
    /// module docs for the ladder) or rejecting with a retry hint. The
    /// returned [`Admission`] releases all accounting on drop.
    pub fn admit(
        self: &Arc<Self>,
        plan: &StarPlan,
        source: MorselSource<'_>,
        cfg: &mut ExecConfig,
        threads: &mut usize,
    ) -> Result<Admission, ExecError> {
        use hef_obs::metrics::{add, Metric};
        let prev_active = self.active.fetch_add(1, Ordering::AcqRel);
        if self.cfg.max_queries > 0 && prev_active >= self.cfg.max_queries {
            self.active.fetch_sub(1, Ordering::AcqRel);
            add(Metric::GovRejected, 1);
            let over = prev_active + 1 - self.cfg.max_queries;
            let retry_after_ms = (5 * over as u64).clamp(1, MAX_BACKOFF_MS);
            hef_obs::event!("govern_reject", active = prev_active, retry_ms = retry_after_ms);
            return Err(ExecError::Rejected { query: plan.name.clone(), retry_after_ms });
        }

        let mut actions: Vec<DegradeAction> = Vec::new();
        let mut charged = 0usize;
        // The fault hook only engages when a budget can actually reject —
        // with an unlimited budget the spike has nothing to push against.
        let spike = if self.budget.limit > 0 {
            hef_testutil::fault::next_mem_spike().unwrap_or(0) as usize
        } else {
            0
        };
        if self.budget.limit > 0 {
            loop {
                let est =
                    estimate_query_bytes(plan, source, cfg, *threads).saturating_add(spike);
                if self.budget.try_charge(est) {
                    charged = est;
                    break;
                }
                // Degradation ladder: cheapest-to-lose first.
                let action = if cfg.batch > MIN_BATCH {
                    let from = cfg.batch;
                    cfg.batch = (cfg.batch / 2).max(MIN_BATCH);
                    DegradeAction::ShrinkBatch { from, to: cfg.batch }
                } else if *threads > 1 {
                    let from = *threads;
                    *threads = from / 2;
                    DegradeAction::ReduceWorkers { from, to: *threads }
                } else {
                    // Even the minimal shape does not fit: reject, hinting
                    // at when currently-charged memory may have drained.
                    self.active.fetch_sub(1, Ordering::AcqRel);
                    add(Metric::GovRejected, 1);
                    let retry_after_ms =
                        (10 + 10 * prev_active as u64).clamp(1, MAX_BACKOFF_MS);
                    hef_obs::event!(
                        "govern_reject",
                        used = self.budget.used(),
                        limit = self.budget.limit,
                        retry_ms = retry_after_ms
                    );
                    return Err(ExecError::Rejected {
                        query: plan.name.clone(),
                        retry_after_ms,
                    });
                };
                add(Metric::GovDegradations, 1);
                hef_obs::event!(
                    "govern_degrade",
                    kind = match action {
                        DegradeAction::ShrinkBatch { .. } => 1,
                        DegradeAction::ReduceWorkers { .. } => 2,
                    },
                    batch = cfg.batch,
                    threads = *threads
                );
                actions.push(action);
            }
        }
        add(Metric::GovAdmitted, 1);
        if charged > 0 {
            add(Metric::GovBytesCharged, charged as u64);
        }
        hef_obs::event!("govern_admit", bytes = charged, threads = *threads);
        Ok(Admission { gov: self.clone(), charged, actions })
    }
}

/// RAII admission guard: holds the query's slot in the concurrent-query
/// count and its memory charge, releasing both on drop — on *every* path
/// out of the executor (success, typed error, panic unwind), which is what
/// makes "budget returns to zero after every outcome" a structural
/// guarantee rather than a per-path obligation.
#[derive(Debug)]
pub struct Admission {
    gov: Arc<Governor>,
    charged: usize,
    actions: Vec<DegradeAction>,
}

impl Admission {
    /// The degradations applied at admission, in order (drained into the
    /// [`ExecReport`]).
    pub(crate) fn take_actions(&mut self) -> Vec<DegradeAction> {
        std::mem::take(&mut self.actions)
    }
}

impl Drop for Admission {
    fn drop(&mut self) {
        self.gov.budget.release(self.charged);
        self.gov.active.fetch_sub(1, Ordering::AcqRel);
    }
}

// ---------------------------------------------------------------------------
// Admission retry.
// ---------------------------------------------------------------------------

/// [`crate::run`] with capped exponential backoff
/// on transient admission rejections: a rejected query sleeps the
/// governor's `retry_after_ms` hint, doubling per attempt (capped at
/// 100 ms), up to `max_retries` times. The backoff sleep itself honors the
/// cancellation token, so a caller can abandon a queued query immediately.
/// All other outcomes — success, faults, cancel, deadline — pass through
/// on the first occurrence.
pub fn try_execute_star_with_retry(
    plan: &StarPlan,
    source: MorselSource<'_>,
    cfg: &ExecConfig,
    cancel: &CancelToken,
    max_retries: u32,
) -> Result<(QueryOutput, ExecReport), ExecError> {
    let mut attempt = 0u32;
    // Total wall time this query spent waiting in admission backoff; fed to
    // the `govern.admission_wait_us` histogram on whatever outcome ends the
    // loop, so queue pressure shows up as a percentile, not just a counter.
    let mut waited_us = 0u64;
    let observe_wait = |waited_us: u64| {
        if waited_us > 0 {
            hef_obs::metrics::observe(hef_obs::metrics::Hist::AdmissionWaitUs, waited_us);
        }
    };
    loop {
        match crate::parallel::run(plan, source, cfg, cancel) {
            Err(ExecError::Rejected { retry_after_ms, .. }) if attempt < max_retries => {
                let backoff = retry_after_ms
                    .max(1)
                    .saturating_mul(1u64 << attempt.min(6))
                    .min(MAX_BACKOFF_MS);
                hef_obs::metrics::add(hef_obs::metrics::Metric::GovBackoffRetries, 1);
                hef_obs::event!("govern_retry", attempt = attempt, backoff_ms = backoff);
                let ctx = QueryCtx::new(cancel.clone(), 0);
                let t0 = Instant::now();
                let slept = sleep_checked(Duration::from_millis(backoff), &ctx);
                waited_us += t0.elapsed().as_micros() as u64;
                if let Err(i) = slept {
                    observe_wait(waited_us);
                    return Err(interrupt_error(&plan.name, &ctx, i, ExecReport::default()));
                }
                attempt += 1;
            }
            other => {
                observe_wait(waited_us);
                return other;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::build_dimension;
    use hef_storage::{Column, Table};

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

    #[test]
    fn budget_charges_and_releases() {
        let b = BudgetTracker::new(1000);
        assert!(b.try_charge(600));
        assert!(!b.try_charge(600));
        assert!(b.try_charge(400));
        b.release(600);
        b.release(400);
        assert_eq!(b.used(), 0);
        // Unlimited budget accepts everything and tracks nothing.
        let u = BudgetTracker::new(0);
        assert!(u.try_charge(usize::MAX));
        assert_eq!(u.used(), 0);
    }

    #[test]
    fn admission_cap_rejects_with_hint() {
        with_governor(GovernorConfig { max_queries: 1, mem_budget: 0 }, |gov| {
            let (fact, plan) = toy(4000);
            let mut cfg = ExecConfig::hybrid_default();
            let mut threads = 2;
            let first = gov.admit(&plan, MorselSource::Mem(&fact), &mut cfg, &mut threads).expect("admitted");
            let mut cfg2 = ExecConfig::hybrid_default();
            let mut threads2 = 2;
            match gov.admit(&plan, MorselSource::Mem(&fact), &mut cfg2, &mut threads2) {
                Err(ExecError::Rejected { retry_after_ms, .. }) => {
                    assert!(retry_after_ms >= 1)
                }
                other => panic!("expected Rejected, got {other:?}"),
            }
            drop(first);
            assert_eq!(gov.active_queries(), 0);
            // Slot freed: admission succeeds again.
            gov.admit(&plan, MorselSource::Mem(&fact), &mut cfg2, &mut threads2).expect("re-admitted");
        });
    }

    #[test]
    fn ladder_degrades_batch_then_threads_then_rejects() {
        let (fact, plan) = toy(20_000);
        // Budget fits exactly one minimal worker shape.
        let minimal =
            estimate_query_bytes(&plan, MorselSource::Mem(&fact), &ExecConfig::hybrid_default().with_batch(MIN_BATCH), 1);
        with_governor(
            GovernorConfig { max_queries: 0, mem_budget: minimal },
            |gov| {
                let mut cfg = ExecConfig::hybrid_default();
                let mut threads = 4;
                let mut adm = gov.admit(&plan, MorselSource::Mem(&fact), &mut cfg, &mut threads).expect("fits");
                let actions = adm.take_actions();
                assert!(!actions.is_empty(), "budget pressure must degrade");
                assert!(matches!(actions[0], DegradeAction::ShrinkBatch { .. }));
                assert_eq!(cfg.batch, MIN_BATCH);
                assert_eq!(threads, 1);
                assert!(gov.budget().used() > 0);
                drop(adm);
                assert_eq!(gov.budget().used(), 0, "budget must return to zero");
            },
        );
        // A budget below even the minimal shape rejects.
        with_governor(GovernorConfig { max_queries: 0, mem_budget: 64 }, |gov| {
            let mut cfg = ExecConfig::hybrid_default();
            let mut threads = 4;
            match gov.admit(&plan, MorselSource::Mem(&fact), &mut cfg, &mut threads) {
                Err(ExecError::Rejected { retry_after_ms, .. }) => {
                    assert!(retry_after_ms >= 1)
                }
                other => panic!("expected Rejected, got {other:?}"),
            }
            assert_eq!(gov.budget().used(), 0);
            assert_eq!(gov.active_queries(), 0);
        });
    }

    #[test]
    fn mem_spike_fault_drives_the_ladder() {
        use hef_testutil::fault::{with_plan, FaultPlan, MemSpike};
        let (fact, plan) = toy(20_000);
        let cfg0 = ExecConfig::hybrid_default();
        let comfortable = estimate_query_bytes(&plan, MorselSource::Mem(&fact), &cfg0, 4) * 2;
        with_governor(
            GovernorConfig { max_queries: 0, mem_budget: comfortable },
            |gov| {
                // Without a spike: admitted clean at full shape.
                let mut cfg = cfg0;
                let mut threads = 4;
                let mut adm = gov.admit(&plan, MorselSource::Mem(&fact), &mut cfg, &mut threads).expect("clean");
                assert!(adm.take_actions().is_empty());
                drop(adm);
                // A spike bigger than the headroom forces degradation.
                let faults = FaultPlan {
                    mem_spikes: vec![MemSpike { bytes: comfortable as u64, times: 1 }],
                    ..Default::default()
                };
                with_plan(faults, || {
                    let mut cfg = cfg0;
                    let mut threads = 4;
                    match gov.admit(&plan, MorselSource::Mem(&fact), &mut cfg, &mut threads) {
                        Ok(mut adm) => assert!(!adm.take_actions().is_empty()),
                        Err(ExecError::Rejected { .. }) => {}
                        other => panic!("unexpected: {other:?}"),
                    }
                });
                assert_eq!(gov.budget().used(), 0);
            },
        );
    }

    #[test]
    fn sleep_checked_interrupted_by_deadline_mid_sleep() {
        let ctx = QueryCtx::new(CancelToken::new(), 10);
        let start = Instant::now();
        let r = sleep_checked(Duration::from_millis(5000), &ctx);
        assert_eq!(r, Err(Interrupt::DeadlineExceeded));
        assert!(start.elapsed() < Duration::from_millis(2000), "must not sleep the full stall");
    }

    #[test]
    fn bounded_context_keeps_the_earlier_deadline() {
        let token = CancelToken::new();
        let caller = QueryCtx::new(token.clone(), 10_000);
        assert_eq!(caller.bounded(0).deadline_ms(), 10_000);
        assert_eq!(caller.bounded(5).deadline_ms(), 5);
        assert_eq!(caller.bounded(60_000).deadline_ms(), 10_000);
        assert_eq!(QueryCtx::unbounded().bounded(7).deadline_ms(), 7);
        assert_eq!(QueryCtx::unbounded().bounded(0).remaining_ms(), None);
        // The caller's token still cancels the bounded context.
        let bounded = caller.bounded(5);
        token.cancel();
        assert_eq!(bounded.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn cancel_wins_over_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = QueryCtx::new(token, 1);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(ctx.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn env_bytes_suffixes() {
        // Parsed via the public config only; poke the helper directly.
        assert_eq!(super::env_bytes("HEF_NO_SUCH_VAR"), 0);
        std::env::set_var("HEF_GOV_TEST_BYTES", "4k");
        assert_eq!(super::env_bytes("HEF_GOV_TEST_BYTES"), 4096);
        std::env::set_var("HEF_GOV_TEST_BYTES", "2M");
        assert_eq!(super::env_bytes("HEF_GOV_TEST_BYTES"), 2 << 20);
        std::env::set_var("HEF_GOV_TEST_BYTES", "1g");
        assert_eq!(super::env_bytes("HEF_GOV_TEST_BYTES"), 1 << 30);
        std::env::set_var("HEF_GOV_TEST_BYTES", "123");
        assert_eq!(super::env_bytes("HEF_GOV_TEST_BYTES"), 123);
        std::env::remove_var("HEF_GOV_TEST_BYTES");
    }
}
