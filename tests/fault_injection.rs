//! Fault-injection suite: drives the `hef-testutil::fault` harness against
//! the full stack and pins down the robustness contract of ISSUE 3:
//!
//! * a panicking parallel worker yields either a completed query
//!   bit-identical to the serial output (recorded in [`ExecReport`]) or a
//!   typed [`ExecError`] — never a process abort;
//! * a corrupted, off-grid, or stale `HEF_REGISTRY` file changes no query
//!   result — only which (all result-identical) grid nodes execute it;
//! * a single injected cost-measurement spike never moves the tuner's
//!   `best` by more than one grid step;
//! * (ISSUE 8) governance: deadlines and cancellation surface as typed
//!   errors with partial [`ExecReport`] attribution, the memory budget
//!   returns to zero after *every* outcome, and no schedule of
//!   `slow_morsel:` / `mem_spike:` / worker-panic faults can deadlock or
//!   abort the process (`governance_*` tests, filterable with
//!   `cargo test --test fault_injection governance`).
//!
//! Every faulted section runs inside `fault::with_plan`, which serializes
//! process-wide so concurrent tests in this binary cannot observe each
//! other's fault schedules; clean reference runs take the same guard with
//! an empty plan.

use hef::core::{initial_candidate, on_grid, optimize, templates, Registry, RegistryIssue};
use hef::core::optimizer::{SimulatedCost, SpikedCost};
use hef::engine::{
    build_dimension, estimate_query_bytes, execute_star, run, try_execute_star,
    try_execute_star_paged_ctx, try_execute_star_with_retry, with_governor, CancelToken,
    DegradeAction, ExecConfig, ExecError, GovernorConfig, Measure, MorselSource, PagedTable,
    QueryCtx, QueryOutput, RangeFilter, StarPlan, MIN_BATCH,
};
use hef::hid::Backend;
use hef::kernels::{Family, HybridConfig, P_AXIS, S_AXIS, V_AXIS};
use hef::storage::{save_paged_column, Column, PageCache, Table};
use hef::uarch::CpuModel;
use hef_testutil::fault::{with_plan, FaultPlan};
use hef_testutil::prop;

/// A toy star query large enough for several parallel morsels
/// (batch 1024 × `MORSEL_BATCHES` 4 = 4096 rows per morsel; 20 000 rows
/// span morsel indices 0..=4).
fn toy() -> (Table, StarPlan) {
    let n = 20_000u64;
    let mut fact = Table::new("fact");
    fact.add_column(Column::new("fk", (0..n).map(|i| i % 128).collect()));
    fact.add_column(Column::new("rev", (0..n).map(|i| i % 11 + 1).collect()));
    let mut dim = Table::new("dim");
    dim.add_column(Column::new("key", (0..128).collect()));
    let d = build_dimension(&dim, "key", |r| dim.col("key")[r] < 96, |r| dim.col("key")[r] % 8, 8, "fk");
    let plan = StarPlan {
        name: "toy".into(),
        filters: vec![],
        dims: vec![d],
        measure: Measure::Sum("rev".into()),
        strides: vec![],
    };
    (fact, plan)
}

/// `toy()`'s fact table as paged columns of 4096 rows per page — the same
/// five morsels (indices 0..=4) as the in-memory table — read through a
/// 1 MiB cache. The column files are removed on drop.
struct PagedToy {
    table: PagedTable,
    cache: PageCache,
}

impl PagedToy {
    fn new(tag: &str) -> PagedToy {
        let dir = std::env::temp_dir()
            .join(format!("hef-fault-paged-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (fact, _) = toy();
        for col in fact.columns() {
            save_paged_column(col, &dir.join(format!("{}.hefc", col.name())), 4096)
                .expect("write paged column");
        }
        let table = PagedTable::open_dir(&dir, "fact").expect("open paged table");
        assert_eq!(table.page_count(), 5);
        PagedToy { table, cache: PageCache::new(1 << 20) }
    }

    fn source(&self) -> MorselSource<'_> {
        MorselSource::Paged { table: &self.table, cache: &self.cache }
    }
}

impl Drop for PagedToy {
    fn drop(&mut self) {
        std::fs::remove_dir_all(self.table.dir()).ok();
    }
}

/// Parse a `HEF_FAULT` spec (exercising the env grammar) into a plan,
/// rejecting specs with typos so the tests can't silently test nothing.
fn spec(s: &str) -> FaultPlan {
    let (plan, warnings) = FaultPlan::parse(s);
    assert!(warnings.is_empty(), "bad spec `{s}`: {warnings:?}");
    assert!(!plan.is_empty(), "spec `{s}` parsed to an empty plan");
    plan
}

/// A clean serial reference, run under the fault guard (empty plan) so a
/// concurrently armed schedule can never leak into the reference run.
fn serial_reference(plan: &StarPlan, fact: &Table, cfg: &ExecConfig) -> QueryOutput {
    with_plan(FaultPlan::default(), || execute_star(plan, fact, &cfg.with_threads(1)))
}

// ---------------------------------------------------------------- worker panics

#[test]
fn one_worker_panic_is_retried_bit_identical() {
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default();
    let serial = serial_reference(&plan, &fact, &cfg);
    with_plan(spec("panic:morsel=2,times=1"), || {
        let (out, report) = try_execute_star(&plan, &fact, &cfg.with_threads(4))
            .expect("one lost worker must be recoverable");
        assert_eq!(out, serial, "recovery changed the result");
        assert_eq!(report.workers_lost, 1);
        assert!(report.morsels_retried >= 1);
        assert!(!report.degraded_to_serial);
    });
}

#[test]
fn after_phase_panic_discards_poisoned_worker_state() {
    // The hard case: the worker dies *after* folding the morsel into its
    // accumulators. Keeping the worker would double-count; the executor
    // must discard it and replay everything it had done.
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default();
    let serial = serial_reference(&plan, &fact, &cfg);
    with_plan(spec("panic:morsel=1,times=1,after"), || {
        let (out, report) = try_execute_star(&plan, &fact, &cfg.with_threads(4))
            .expect("poisoned state must be replayable");
        assert_eq!(out, serial, "poisoned accumulator leaked into the result");
        assert_eq!(report.workers_lost, 1);
        assert!(report.morsels_retried >= 1);
    });
}

#[test]
fn persistent_morsel_failure_degrades_to_serial() {
    // Morsel 1 fails on every retry; the parallel path gives up and the
    // serial fallback (whose fault hook fires on morsel 0 only) completes.
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default();
    let serial = serial_reference(&plan, &fact, &cfg);
    with_plan(spec("panic:morsel=1,times=99"), || {
        let (out, report) = try_execute_star(&plan, &fact, &cfg.with_threads(4))
            .expect("serial fallback must complete");
        assert_eq!(out, serial, "serial fallback changed the result");
        assert!(report.degraded_to_serial);
        assert!(report.workers_lost >= 1);
    });
}

#[test]
fn exhausted_ladder_is_a_typed_error_not_an_abort() {
    // Morsel 0 fails forever, in the parallel workers *and* in the serial
    // fallback (the serial executor consults the hook as morsel 0): every
    // rung of the ladder is exhausted and the caller gets a typed error.
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default();
    with_plan(spec("panic:morsel=0,times=99"), || {
        let err = try_execute_star(&plan, &fact, &cfg.with_threads(4))
            .expect_err("nothing can run morsel 0; this must be an error");
        let msg = err.to_string();
        assert!(msg.contains("toy"), "error names the query: {msg}");
        assert!(msg.contains("injected panic"), "error carries the panic payload: {msg}");
    });
}

#[test]
fn faulted_run_through_public_entry_point_reports_recovery() {
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default();
    let serial = serial_reference(&plan, &fact, &cfg);
    with_plan(spec("panic:morsel=3,times=1"), || {
        let (out, report) =
            try_execute_star(&plan, &fact, &cfg.with_threads(4)).expect("recovers");
        assert_eq!(out, serial);
        assert_eq!(report.threads, 4);
        assert!(!report.is_clean());
    });
}

#[test]
fn paged_worker_panic_is_requeued_bit_identical() {
    let (fact, plan) = toy();
    let paged = PagedToy::new("panic");
    let cfg = ExecConfig::hybrid_default();
    let serial = serial_reference(&plan, &fact, &cfg);
    with_plan(spec("panic:morsel=2,times=1"), || {
        let (out, report) =
            run(&plan, paged.source(), &cfg.with_threads(4), &CancelToken::new())
                .expect("a lost paged worker must be recoverable");
        assert_eq!(out.groups, serial.groups, "page recovery changed the result");
        assert_eq!(out.stats, serial.stats);
        assert!(report.workers_lost >= 1);
        assert!(report.morsels_retried >= 1);
        // Five pages, plus the completed pages the lost worker replayed.
        let replayed = report.morsels_retried - report.workers_lost;
        assert_eq!(report.morsels_completed, 5 + replayed);
    });
}

// ---------------------------------------------------------------- registry faults

/// Registry entries deliberately different from both the paper default
/// `(1, 1, 3)` and each other, so a silently-ignored file would be caught.
fn good_registry_text() -> String {
    let mut reg = Registry::with_host_provenance("fault-injection suite");
    reg.insert(Family::Filter, HybridConfig { v: 2, s: 1, p: 2 });
    reg.insert(Family::Probe, HybridConfig { v: 1, s: 2, p: 2 });
    reg.insert(Family::AggSum, HybridConfig { v: 2, s: 2, p: 1 });
    reg.insert(Family::Gather, HybridConfig { v: 8, s: 0, p: 1 });
    reg.to_text()
}

fn temp_registry(name: &str, text: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("hef_fault_{name}_{}.txt", std::process::id()));
    std::fs::write(&path, text).expect("write temp registry");
    path
}

#[test]
fn corrupted_registry_changes_no_query_result() {
    let (fact, plan) = toy();
    let path = temp_registry("corrupt", &good_registry_text());

    let (clean_reg, clean_report) =
        with_plan(FaultPlan::default(), || Registry::load_degraded(&path));
    assert!(clean_report.is_clean(), "{:?}", clean_report.issues);
    let baseline = serial_reference(&plan, &fact, &ExecConfig::tuned(&clean_reg));
    // The registry-tuned hybrid agrees with plain scalar execution.
    assert_eq!(
        baseline.groups,
        serial_reference(&plan, &fact, &ExecConfig::scalar()).groups
    );

    for seed in 1..=10u64 {
        let reg = with_plan(spec(&format!("registry:flips=8,seed={seed}")), || {
            Registry::load_degraded(&path).0
        });
        for family in Family::ALL {
            let node = reg.get_or_default(family);
            assert!(
                on_grid(node.v, node.s, node.p),
                "seed {seed}: {} served off-grid node {node}",
                family.name()
            );
        }
        let out = serial_reference(&plan, &fact, &ExecConfig::tuned(&reg));
        assert_eq!(out.groups, baseline.groups, "seed {seed} changed the query result");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn off_grid_registry_node_falls_back_and_result_is_unchanged() {
    let (fact, plan) = toy();
    let baseline = serial_reference(&plan, &fact, &ExecConfig::scalar());
    let text = "# hef tuned-operator registry v3\n\
                probe = 3 1 2\n\
                filter = 2 1 2\n";
    let path = temp_registry("offgrid", text);
    let (reg, report) = with_plan(FaultPlan::default(), || Registry::load_degraded(&path));
    assert!(
        report.issues.iter().any(|i| matches!(i, RegistryIssue::Fallback { family, .. } if *family == "probe")),
        "{:?}",
        report.issues
    );
    assert_eq!(report.fallbacks(), 1);
    assert_eq!(reg.get(Family::Filter), Some(HybridConfig { v: 2, s: 1, p: 2 }));
    let probe = reg.get(Family::Probe).expect("fallback node recorded");
    assert!(on_grid(probe.v, probe.s, probe.p));
    let out = serial_reference(&plan, &fact, &ExecConfig::tuned(&reg));
    assert_eq!(out.groups, baseline.groups);
    std::fs::remove_file(&path).ok();
}

#[test]
fn stale_isa_registry_rederives_and_result_is_unchanged() {
    let (fact, plan) = toy();
    let baseline = serial_reference(&plan, &fact, &ExecConfig::scalar());
    let text = "# hef tuned-operator registry v3\n\
                # isa: punchcards\n\
                filter = 2 1 2\n\
                probe = 1 2 2\n";
    let path = temp_registry("stale", text);
    let (reg, report) = with_plan(FaultPlan::default(), || Registry::load_degraded(&path));
    assert!(report.issues.iter().any(|i| matches!(i, RegistryIssue::StaleIsa { .. })));
    assert_eq!(report.fallbacks(), 2, "every recorded family re-derived");
    for family in [Family::Filter, Family::Probe] {
        let node = reg.get(family).expect("re-derived node recorded");
        assert!(on_grid(node.v, node.s, node.p));
    }
    let out = serial_reference(&plan, &fact, &ExecConfig::tuned(&reg));
    assert_eq!(out.groups, baseline.groups);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------- storage faults

#[test]
fn torn_registry_file_degrades_gracefully_and_warns() {
    let (fact, plan) = toy();
    let baseline = serial_reference(&plan, &fact, &ExecConfig::scalar());
    let path = temp_registry("torn", &good_registry_text());
    let file_key = path.file_name().unwrap().to_str().unwrap().to_string();

    let ((reg, report), warnings) = hef::obs::diag::capture(|| {
        with_plan(spec(&format!("torn:bytes=48,seed=7,file={file_key}")), || {
            Registry::load_degraded(&path)
        })
    });
    // Garbled tail bytes → dropped lines and/or fallbacks, never a panic,
    // and every served node still on the compiled grid.
    assert!(!report.is_clean(), "torn read produced a clean report");
    for family in Family::ALL {
        let node = reg.get_or_default(family);
        assert!(on_grid(node.v, node.s, node.p), "{} off grid", family.name());
    }
    let out = serial_reference(&plan, &fact, &ExecConfig::tuned(&reg));
    assert_eq!(out.groups, baseline.groups, "torn registry changed the query result");
    // The degradation is observable: the diag sink saw registry warnings.
    assert!(
        warnings.iter().any(|w| w.contains("registry")),
        "no registry warning captured: {warnings:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_and_short_column_files_salvage_and_emit_events() {
    use hef::obs::metrics::{self, Metric};
    use hef::storage::{load_column, save_column, ColumnFileIssue};

    let col = Column::new("lo_revenue", (0..512u64).map(|i| i * 3 + 1).collect());
    let dir = std::env::temp_dir();
    let torn_path = dir.join(format!("hef_torn_col_{}.hefc", std::process::id()));
    let short_path = dir.join(format!("hef_short_col_{}.hefc", std::process::id()));
    save_column(&col, &torn_path).unwrap();
    save_column(&col, &short_path).unwrap();

    metrics::enable();
    let before = metrics::snapshot();

    // Torn write: the file keeps its length but the tail (data + checksum)
    // is garbled → checksum mismatch reported, read still succeeds.
    let torn_key = torn_path.file_name().unwrap().to_str().unwrap().to_string();
    let ((torn_col, torn_issues), torn_warnings) = hef::obs::diag::capture(|| {
        with_plan(spec(&format!("torn:bytes=24,seed=5,file={torn_key}")), || {
            load_column(&torn_path).expect("torn column file must still load")
        })
    });
    assert!(
        torn_issues.iter().any(|i| matches!(
            i,
            ColumnFileIssue::ChecksumMismatch | ColumnFileIssue::Truncated { .. }
        )),
        "no issue for torn file: {torn_issues:?}"
    );
    assert_eq!(torn_col.name(), "lo_revenue");
    assert!(
        torn_warnings.iter().any(|w| w.contains("storage")),
        "no storage warning captured: {torn_warnings:?}"
    );

    // Short read: the tail is missing entirely → complete rows salvaged.
    let short_key = short_path.file_name().unwrap().to_str().unwrap().to_string();
    let ((short_col, short_issues), short_warnings) = hef::obs::diag::capture(|| {
        with_plan(spec(&format!("short:bytes=28,file={short_key}")), || {
            load_column(&short_path).expect("short column file must still load")
        })
    });
    let salvaged = short_issues
        .iter()
        .find_map(|i| match i {
            ColumnFileIssue::Truncated { expected_rows, salvaged_rows } => {
                Some((*expected_rows, *salvaged_rows))
            }
            _ => None,
        })
        .expect("short read must report truncation");
    assert_eq!(salvaged.0, 512);
    assert!(salvaged.1 < 512, "nothing was actually truncated");
    assert_eq!(short_col.len() as u64, salvaged.1, "salvage count disagrees with data");
    assert_eq!(short_col.values(), &col.values()[..short_col.len()], "salvaged rows differ");
    assert!(short_warnings.iter().any(|w| w.contains("storage")), "{short_warnings:?}");

    // Both degradations are visible in the metrics registry.
    let delta = metrics::snapshot().delta(&before);
    assert!(delta.get(Metric::StorageIssues) >= 2, "storage issues not counted");
    assert!(delta.get(Metric::ColumnFilesLoaded) >= 2);
    assert!(delta.get(Metric::FaultsInjected) >= 2);

    std::fs::remove_file(&torn_path).ok();
    std::fs::remove_file(&short_path).ok();
}

// ---------------------------------------------------------------- cost spikes

fn axis_index(x: usize, axis: &[usize]) -> usize {
    axis.iter().position(|&a| a == x).unwrap_or_else(|| panic!("{x} off axis {axis:?}"))
}

/// Manhattan distance in axis-index space — "grid steps".
fn grid_steps(a: HybridConfig, b: HybridConfig) -> usize {
    axis_index(a.v, V_AXIS).abs_diff(axis_index(b.v, V_AXIS))
        + axis_index(a.s, S_AXIS).abs_diff(axis_index(b.s, S_AXIS))
        + axis_index(a.p, P_AXIS).abs_diff(axis_index(b.p, P_AXIS))
}

// ---------------------------------------------------------------- governance

/// A star plan whose 200k-key dimension table spills the L2 cache.
fn big_dimension() -> (Table, StarPlan) {
    let n_dim = 200_000u64;
    let mut dim = Table::new("bigdim");
    dim.add_column(Column::new("key", (0..n_dim).collect()));
    dim.add_column(Column::new("grp", (0..n_dim).map(|k| k % 8).collect()));
    let d = build_dimension(&dim, "key", |_| true, |r| dim.col("grp")[r], 8, "fk");
    let n = 200_000u64;
    let mut fact = Table::new("fact");
    fact.add_column(Column::new("fk", (0..n).map(|i| (i * 7919) % (n_dim * 3 / 2)).collect()));
    fact.add_column(Column::new("rev", (0..n).map(|i| i % 13 + 1).collect()));
    let plan = StarPlan {
        name: "bigjoin".into(),
        filters: vec![],
        dims: vec![d],
        measure: Measure::Sum("rev".into()),
        strides: vec![],
    };
    (fact, plan)
}

#[test]
fn governance_deadline_mid_morsel_is_typed_and_workers_joined() {
    let (fact, plan) = toy();
    // Every morsel stalls 500ms (interruptibly); the 15ms deadline fires
    // *inside* a stall, not between morsels.
    let cfg = ExecConfig::hybrid_default().with_threads(4).with_deadline_ms(15);
    with_governor(GovernorConfig { max_queries: 0, mem_budget: 0 }, |gov| {
        with_plan(spec("slow_morsel:morsel=0,ms=500,times=8"), || {
            let start = std::time::Instant::now();
            let err = try_execute_star(&plan, &fact, &cfg)
                .expect_err("a 15ms deadline cannot survive 500ms stalls");
            match err {
                ExecError::DeadlineExceeded { query, deadline_ms, .. } => {
                    assert_eq!(query, "toy");
                    assert_eq!(deadline_ms, 15);
                }
                other => panic!("expected DeadlineExceeded, got {other}"),
            }
            // Returning at all proves every worker joined (`thread::scope`);
            // returning fast proves the stall was interrupted mid-sleep.
            assert!(
                start.elapsed() < std::time::Duration::from_millis(2000),
                "deadline took {:?} to surface",
                start.elapsed()
            );
        });
        assert_eq!(gov.budget().used(), 0, "budget must return to zero");
        assert_eq!(gov.active_queries(), 0);
        // The governor is not poisoned: the same plan completes clean.
        // (`with_plan` is not re-entrant — compute the clean run and the
        // reference inside ONE guard scope.)
        with_plan(FaultPlan::default(), || {
            let (out, _) = try_execute_star(&plan, &fact, &ExecConfig::hybrid_default())
                .expect("clean run after a deadline");
            let reference = execute_star(&plan, &fact, &ExecConfig::hybrid_default().with_threads(1));
            assert_eq!(out, reference);
        });
    });
}

#[test]
fn governance_cancel_during_big_dimension_probe_returns_budget_to_zero() {
    let (fact, plan) = big_dimension();
    let cfg = ExecConfig::hybrid_default().with_threads(4);
    // A finite budget so the admission actually charges bytes.
    let budget = estimate_query_bytes(&plan, MorselSource::Mem(&fact), &cfg, 4) * 4;
    with_governor(GovernorConfig { max_queries: 0, mem_budget: budget }, |gov| {
        with_plan(spec("slow_morsel:morsel=1,ms=500,times=8"), || {
            let cancel = CancelToken::new();
            let canceller = cancel.clone();
            std::thread::scope(|s| {
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    canceller.cancel();
                });
                let err = run(&plan, MorselSource::Mem(&fact), &cfg, &cancel)
                    .expect_err("cancel must surface");
                match err {
                    ExecError::Cancelled { query, .. } => assert_eq!(query, "bigjoin"),
                    other => panic!("expected Cancelled, got {other}"),
                }
            });
        });
        assert_eq!(gov.budget().used(), 0, "budget must return to zero after cancel");
        assert_eq!(gov.active_queries(), 0);
    });
}

#[test]
fn governance_degraded_run_completes_bit_identical() {
    // A budget that fits only the minimal shape: the full ladder engages
    // (shrink batch, shed workers) and the query still produces exactly
    // the reference answer.
    let (fact, plan) = big_dimension();
    let reference = serial_reference(&plan, &fact, &ExecConfig::scalar());
    let minimal = estimate_query_bytes(
        &plan,
        MorselSource::Mem(&fact),
        &ExecConfig::hybrid_default().with_batch(MIN_BATCH),
        1,
    );
    with_governor(GovernorConfig { max_queries: 0, mem_budget: minimal }, |gov| {
        with_plan(FaultPlan::default(), || {
            let (out, report) =
                try_execute_star(&plan, &fact, &ExecConfig::hybrid_default().with_threads(4))
                    .expect("degraded admission must still execute");
            assert_eq!(out.groups, reference.groups, "degradation changed the result");
            assert!(
                matches!(report.degrade_actions.first(), Some(DegradeAction::ShrinkBatch { .. })),
                "ladder must engage at its first rung: {:?}",
                report.degrade_actions
            );
            assert!(!report.is_clean(), "a degraded run must not report clean");
        });
        assert_eq!(gov.budget().used(), 0);
        assert_eq!(gov.active_queries(), 0);
    });
}

#[test]
fn governance_rejected_admission_retries_with_backoff_until_slot_frees() {
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default().with_threads(2);
    with_governor(GovernorConfig { max_queries: 1, mem_budget: 0 }, |gov| {
        with_plan(FaultPlan::default(), || {
            // Occupy the only slot, then free it from another thread while
            // the governed call sits in its backoff sleeps.
            let mut held_cfg = cfg;
            let mut held_threads = 2;
            let held =
                gov.admit(&plan, MorselSource::Mem(&fact), &mut held_cfg, &mut held_threads).expect("first admit");
            std::thread::scope(|s| {
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    drop(held);
                });
                let (out, _) =
                    try_execute_star_with_retry(&plan, MorselSource::Mem(&fact), &cfg, &CancelToken::new(), 8)
                        .expect("retry must succeed once the slot frees");
                // `with_plan` is not re-entrant: compute the reference here,
                // inside the same guard scope.
                assert_eq!(out, execute_star(&plan, &fact, &cfg.with_threads(1)));
            });
            // With no retries, a held slot is an immediate typed rejection.
            let mut held_cfg = cfg;
            let mut held_threads = 2;
            let held2 =
                gov.admit(&plan, MorselSource::Mem(&fact), &mut held_cfg, &mut held_threads).expect("re-admit");
            let err = try_execute_star_with_retry(&plan, MorselSource::Mem(&fact), &cfg, &CancelToken::new(), 0)
                .expect_err("no retries, full queue");
            match err {
                ExecError::Rejected { retry_after_ms, .. } => assert!(retry_after_ms >= 1),
                other => panic!("expected Rejected, got {other}"),
            }
            drop(held2);
        });
        assert_eq!(gov.active_queries(), 0);
    });
}

#[test]
fn governance_override_is_scoped_to_the_installing_thread() {
    // Another thread's query must neither be admitted by this thread's
    // governor nor touch its accounting: with the override's only slot held
    // here, a query on another thread still runs, and the override's count
    // and budget stay exactly as this thread left them.
    let (fact, plan) = toy();
    let cfg = ExecConfig::hybrid_default().with_threads(2);
    let budget = estimate_query_bytes(&plan, MorselSource::Mem(&fact), &cfg, 2) * 4;
    with_plan(FaultPlan::default(), || {
        with_governor(GovernorConfig { max_queries: 1, mem_budget: budget }, |gov| {
            let (mut held_cfg, mut held_threads) = (cfg, 2);
            let held = gov
                .admit(&plan, MorselSource::Mem(&fact), &mut held_cfg, &mut held_threads)
                .expect("first admit");
            let used = gov.budget().used();
            assert!(used > 0);
            let other = std::thread::scope(|s| {
                s.spawn(|| try_execute_star(&plan, &fact, &cfg)).join().expect("no panic")
            });
            assert!(other.is_ok(), "another thread's query met this override: {other:?}");
            assert_eq!(gov.active_queries(), 1);
            assert_eq!(gov.budget().used(), used);
            drop(held);
            assert_eq!((gov.active_queries(), gov.budget().used()), (0, 0));
        });
    });
}

#[test]
fn governance_paged_query_is_admitted_and_returns_budget_to_zero() {
    let (fact, plan) = toy();
    let paged = PagedToy::new("admit");
    let cfg = ExecConfig::hybrid_default().with_threads(2);
    let reference = serial_reference(&plan, &fact, &cfg);
    let estimate = estimate_query_bytes(&plan, paged.source(), &cfg, 2);
    assert!(
        estimate > paged.cache.capacity(),
        "the paged estimate must include the page cache"
    );
    with_plan(FaultPlan::default(), || {
        // Admitted and charged; the charge is released afterwards.
        with_governor(GovernorConfig { max_queries: 0, mem_budget: estimate * 2 }, |gov| {
            let out = try_execute_star_paged_ctx(
                &plan,
                &paged.table,
                &cfg,
                &paged.cache,
                &QueryCtx::unbounded(),
            )
            .expect("admitted paged query");
            assert_eq!(out.groups, reference.groups);
            assert_eq!((gov.active_queries(), gov.budget().used()), (0, 0));
        });
        // A budget the cache alone overflows: the ladder cannot shrink the
        // cache, so the paged query is a typed rejection.
        with_governor(
            GovernorConfig { max_queries: 0, mem_budget: paged.cache.capacity() },
            |gov| {
                let err = run(&plan, paged.source(), &cfg, &CancelToken::new())
                    .expect_err("cache capacity exceeds the budget");
                assert!(matches!(err, ExecError::Rejected { .. }), "{err}");
                assert_eq!((gov.active_queries(), gov.budget().used()), (0, 0));
            },
        );
        // A full admission queue rejects paged queries too.
        with_governor(GovernorConfig { max_queries: 1, mem_budget: 0 }, |gov| {
            let (mut held_cfg, mut held_threads) = (cfg, 2);
            let held = gov
                .admit(&plan, paged.source(), &mut held_cfg, &mut held_threads)
                .expect("first admit");
            let err = run(&plan, paged.source(), &cfg, &CancelToken::new())
                .expect_err("queue is full");
            assert!(matches!(err, ExecError::Rejected { .. }), "{err}");
            drop(held);
            assert_eq!(gov.active_queries(), 0);
        });
    });
}

/// A node with no compiled kernel, or a backend this CPU cannot run, is a
/// caller error: it is rejected as `BadPlan` before admission charges
/// anything, instead of panicking inside workers until the retry ladder
/// gives up. (On a CPU that runs every backend the backend half has no
/// case to check.)
#[test]
fn governance_bad_nodes_are_rejected_before_admission() {
    let (fact, mut plan) = toy();
    plan.filters.push(RangeFilter { col: "rev".into(), lo: 2, hi: 9 });
    let paged = PagedToy::new("badnode");
    let base = ExecConfig::hybrid_default().with_threads(2);
    let mut off_grid = base;
    off_grid.filter = HybridConfig::new(3, 1, 2);
    let mut cases = vec![("filter node n312", off_grid)];
    for backend in [Backend::Emu, Backend::Avx2, Backend::Avx512] {
        if !backend.is_available() {
            cases.push((backend.name(), ExecConfig { backend, ..base }));
        }
    }
    with_plan(FaultPlan::default(), || {
        with_governor(GovernorConfig { max_queries: 0, mem_budget: 64 << 20 }, |gov| {
            for (what, cfg) in &cases {
                for source in [MorselSource::Mem(&fact), paged.source()] {
                    match run(&plan, source, cfg, &CancelToken::new()) {
                        Err(ExecError::BadPlan { message, .. }) => {
                            assert!(message.contains(what), "{what}: {message}")
                        }
                        other => panic!("{what}: expected BadPlan, got {other:?}"),
                    }
                    assert_eq!((gov.active_queries(), gov.budget().used()), (0, 0));
                }
            }
        });
    });
}

#[test]
fn governance_paged_deadline_mid_page_is_typed() {
    let (_, plan) = toy();
    let paged = PagedToy::new("deadline");
    for threads in [1usize, 4] {
        with_governor(GovernorConfig { max_queries: 0, mem_budget: 64 << 20 }, |gov| {
            // Every page stalls 500ms (interruptibly); the 15ms deadline —
            // from the config at 4 threads, from the caller's context at 1 —
            // fires inside a stall.
            with_plan(spec("slow_morsel:morsel=0,ms=500,times=8"), || {
                let start = std::time::Instant::now();
                let err = if threads == 1 {
                    let ctx = QueryCtx::new(CancelToken::new(), 15);
                    let cfg = ExecConfig::hybrid_default().with_threads(1);
                    try_execute_star_paged_ctx(&plan, &paged.table, &cfg, &paged.cache, &ctx)
                        .expect_err("a 15ms deadline cannot survive a 500ms stall")
                } else {
                    let cfg = ExecConfig::hybrid_default().with_threads(4).with_deadline_ms(15);
                    run(&plan, paged.source(), &cfg, &CancelToken::new())
                        .expect_err("a 15ms deadline cannot survive 500ms stalls")
                };
                match err {
                    ExecError::DeadlineExceeded { query, deadline_ms, .. } => {
                        assert_eq!(query, "toy");
                        assert_eq!(deadline_ms, 15);
                    }
                    other => panic!("expected DeadlineExceeded at {threads} threads, got {other}"),
                }
                assert!(
                    start.elapsed() < std::time::Duration::from_millis(2000),
                    "deadline took {:?} to surface",
                    start.elapsed()
                );
            });
            assert_eq!((gov.active_queries(), gov.budget().used()), (0, 0));
        });
    }
}

#[test]
fn governance_any_fault_schedule_is_typed_never_hung() {
    // Property: under ANY combination of slow_morsel / mem_spike / panic
    // faults, with any deadline and cancellation timing, over either source,
    // a governed query either completes or fails with a typed error — never
    // a hang (watchdog) and never an abort (panic = channel disconnect) —
    // and the budget returns to zero afterwards.
    let paged = std::sync::Arc::new(PagedToy::new("any-schedule"));
    prop::check_with(
        &prop::Config::with_cases(24),
        "governed faults ⇒ typed outcome, zero budget, no hang",
        |rng| {
            let mut clauses: Vec<String> = Vec::new();
            if rng.gen_range(0..2u32) == 1 {
                clauses.push(format!(
                    "slow_morsel:morsel={},ms={},times={}",
                    rng.gen_range(0..5usize),
                    rng.gen_range(1..40u64),
                    rng.gen_range(1..4u32),
                ));
            }
            if rng.gen_range(0..2u32) == 1 {
                clauses.push(format!(
                    "mem_spike:bytes={},times={}",
                    rng.gen_range(1024..(64u64 << 20)),
                    rng.gen_range(1..3u32),
                ));
            }
            if rng.gen_range(0..2u32) == 1 {
                clauses.push(format!(
                    "panic:morsel={},times={}",
                    rng.gen_range(0..5usize),
                    rng.gen_range(1..3u32),
                ));
            }
            (
                clauses.join(";"),
                [0u64, 5, 10_000][rng.gen_range(0..3usize)], // deadline_ms
                rng.gen_range(0..2u32) == 1,                    // cancel mid-run?
                [1usize, 2, 4][rng.gen_range(0..3usize)],    // threads
                rng.gen_range(0..3u32),                      // admission retries
                rng.gen_range(0..2u32) == 1,                 // paged source?
            )
        },
        |case| {
            let (spec_str, deadline_ms, cancel_mid, threads, retries, use_paged) = case.clone();
            let (tx, rx) = std::sync::mpsc::channel();
            let paged = paged.clone();
            std::thread::spawn(move || {
                let (fact, plan) = toy();
                let source = if use_paged { paged.source() } else { MorselSource::Mem(&fact) };
                let cfg = ExecConfig::hybrid_default()
                    .with_threads(threads)
                    .with_deadline_ms(deadline_ms);
                let budget = estimate_query_bytes(&plan, source, &cfg, threads) * 2;
                let verdict =
                    with_governor(GovernorConfig { max_queries: 2, mem_budget: budget }, |gov| {
                        let faults = if spec_str.is_empty() {
                            FaultPlan::default()
                        } else {
                            spec(&spec_str)
                        };
                        let outcome = with_plan(faults, || {
                            let cancel = CancelToken::new();
                            let canceller = cancel.clone();
                            std::thread::scope(|s| {
                                if cancel_mid {
                                    s.spawn(move || {
                                        std::thread::sleep(
                                            std::time::Duration::from_millis(3),
                                        );
                                        canceller.cancel();
                                    });
                                }
                                try_execute_star_with_retry(
                                    &plan, source, &cfg, &cancel, retries,
                                )
                            })
                        });
                        let leak = (gov.budget().used(), gov.active_queries());
                        (outcome.map(|(out, _)| out), leak)
                    });
                tx.send(verdict).ok();
            });
            let (outcome, (budget_used, active)) = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|e| match e {
                    std::sync::mpsc::RecvTimeoutError::Timeout => {
                        panic!("governed query hung under {case:?}")
                    }
                    std::sync::mpsc::RecvTimeoutError::Disconnected => {
                        panic!("governed query panicked (not typed) under {case:?}")
                    }
                });
            hef_testutil::prop_assert!(
                budget_used == 0 && active == 0,
                "leaked accounting under {case:?}: used={budget_used} active={active}"
            );
            if let Err(e) = outcome {
                // Every failure is one of the typed governance/robustness
                // variants — reaching here at all means no panic escaped.
                hef_testutil::prop_assert!(
                    matches!(
                        e,
                        ExecError::Failed { .. }
                            | ExecError::Rejected { .. }
                            | ExecError::Cancelled { .. }
                            | ExecError::DeadlineExceeded { .. }
                    ),
                    "unexpected error kind under {case:?}: {e}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn single_cost_spike_moves_best_at_most_one_grid_step() {
    let silver = CpuModel::silver_4110();
    // Unspiked reference search per family (pure simulation, no fault hooks).
    let baselines: Vec<(Family, HybridConfig)> = Family::ALL
        .into_iter()
        .map(|family| {
            let template = templates::for_family(family);
            let initial = initial_candidate(&silver, &template);
            let mut eval = SimulatedCost::new(&silver, &template);
            (family, optimize(initial, &mut eval).best)
        })
        .collect();

    // Each case is a full (simulated) tuner search; cap the count so the
    // suite stays minutes-not-hours. HEF_PROP_SEED still replays any case.
    let factors = [0.0625, 0.125, 8.0, 16.0];
    prop::check_with(
        &prop::Config::with_cases(16),
        "one spike ⇒ best moves ≤ 1 grid step",
        |rng| {
            (
                rng.gen_range(0..Family::ALL.len()),
                rng.gen_range(0usize..30),
                factors[rng.gen_range(0..factors.len())],
            )
        },
        |&(fi, trial, factor)| {
            let (family, base_best) = baselines[fi];
            let template = templates::for_family(family);
            let initial = initial_candidate(&silver, &template);
            let spiked_best = with_plan(spec(&format!("spike:trial={trial},factor={factor}")), || {
                let mut eval = SpikedCost { inner: SimulatedCost::new(&silver, &template) };
                optimize(initial, &mut eval).best
            });
            let steps = grid_steps(base_best, spiked_best);
            hef_testutil::prop_assert!(
                steps <= 1,
                "{}: spike trial={trial} factor={factor} moved best {base_best} -> {spiked_best} ({steps} steps)",
                family.name()
            );
            Ok(())
        },
    );
}
