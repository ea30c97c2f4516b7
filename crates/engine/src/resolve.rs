//! Config resolution: the one place a query's [`ExecConfig`] is decided.
//!
//! [`crate::run`] calls [`resolve`] once per query. In order, it
//!
//! 1. checks every kernel slot of the caller's config against the compiled
//!    grid on the config's backend, and the backend against this CPU — a
//!    node no kernel exists for is a typed [`ExecError::BadPlan`] before
//!    anything is charged, never a panic inside a worker;
//! 2. for the hybrid flavor only, overlays the plan's joint pipeline row
//!    from `HEF_PIPELINE` (a registry file loaded once per process through
//!    [`Registry::load_degraded`], as `HEF_REGISTRY` is); the scalar, SIMD
//!    and Voila baselines keep their uniform nodes;
//! 3. applies `HEF_DEADLINE_MS` and `HEF_THREADS`, read per query;
//! 4. admits the query with the current [`Governor`], which may degrade the
//!    resolved shape — for this query only — or reject it.
//!
//! This module is the only reader of those three variables. The pipeline
//! row never sets `batch` or `threads`, and admission runs after it, so
//! nothing a degradation shrank can come back.

use std::path::Path;
use std::sync::OnceLock;

use hef_core::Registry;
use hef_kernels::{kernel_for, Family};

use crate::govern::{Admission, Governor};
use crate::parallel::{ExecError, MorselSource};
use crate::pipeline_plan::apply_pipeline_entry;
use crate::star::{ExecConfig, Flavor, StarPlan};

/// A query's resolved execution shape, with the admission that holds its
/// slot and memory charge.
pub(crate) struct Resolved {
    pub(crate) cfg: ExecConfig,
    pub(crate) threads: usize,
    /// Fingerprint of the pipeline row applied in step 2, if any.
    pub(crate) pipeline_row: Option<u64>,
    pub(crate) admission: Admission,
}

/// The `HEF_PIPELINE` registry, loaded once per process; empty when the
/// variable is unset. A damaged file degrades through the registry ladder,
/// so it costs pipeline rows, never the query.
pub(crate) fn pipeline_registry() -> &'static Registry {
    static PIPELINE: OnceLock<Registry> = OnceLock::new();
    PIPELINE.get_or_init(|| match std::env::var("HEF_PIPELINE") {
        Ok(path) if !path.trim().is_empty() => Registry::load_degraded(Path::new(path.trim())).0,
        _ => Registry::default(),
    })
}

/// Resolve `cfg` for one execution of `plan` over `source`, taking
/// pipeline rows from `pipeline` (see the module docs for the order).
pub(crate) fn resolve(
    plan: &StarPlan,
    source: MorselSource<'_>,
    cfg: &ExecConfig,
    pipeline: &Registry,
) -> Result<Resolved, ExecError> {
    validate_nodes(plan, cfg)?;
    let mut cfg = *cfg;
    let mut pipeline_row = None;
    if cfg.flavor == Flavor::Hybrid && pipeline.pipelines_len() > 0 {
        let fp = plan.fingerprint();
        if let Some(entry) = pipeline.get_pipeline(fp) {
            cfg = apply_pipeline_entry(cfg, entry);
            pipeline_row = Some(fp);
        }
    }
    if let Some(ms) = std::env::var("HEF_DEADLINE_MS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
    {
        cfg.deadline_ms = ms;
    }
    let requested = resolve_threads(cfg.threads);
    let mut threads = requested;
    let admission = Governor::current().admit(plan, source, &mut cfg, &mut threads)?;
    if threads < requested {
        hef_obs::diag::warn_once(
            "threads-governor-clamp",
            format!(
                "{requested} worker threads requested but the governor admitted \
                 {threads} (memory budget); clamping"
            ),
        );
    }
    Ok(Resolved {
        cfg,
        threads,
        pipeline_row,
        admission,
    })
}

/// Every kernel slot `cfg` dispatches must have a compiled kernel on its
/// backend, and the backend must run on this CPU.
fn validate_nodes(plan: &StarPlan, cfg: &ExecConfig) -> Result<(), ExecError> {
    let bad = |message: String| ExecError::BadPlan {
        query: plan.name.clone(),
        message,
    };
    if !cfg.backend.is_available() {
        return Err(bad(format!(
            "backend {} is not available on this CPU",
            cfg.backend.name()
        )));
    }
    let bloom = cfg.use_bloom.then_some((Family::BloomCheck, cfg.probe));
    for (family, node) in [
        (Family::Filter, cfg.filter),
        (Family::Probe, cfg.probe),
        (Family::Gather, cfg.gather),
        (Family::AggSum, cfg.agg),
        (Family::Decode, cfg.decode),
    ]
    .into_iter()
    .chain(bloom)
    {
        if kernel_for(family, node, cfg.backend).is_none() {
            return Err(bad(format!(
                "{} node {node} is not compiled for backend {}",
                family.name(),
                cfg.backend.name()
            )));
        }
    }
    Ok(())
}

/// Hard ceiling on worker threads: 4× the machine's available parallelism
/// (at least 4). More workers than that cannot help a CPU-bound pipeline
/// and an absurd request (a typo'd `HEF_THREADS=100000`) must not spawn
/// unbounded threads.
fn thread_cap() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_mul(4)
        .max(4)
}

/// Resolve a requested worker-thread count: an explicit nonzero request
/// wins; otherwise the `HEF_THREADS` environment variable; otherwise
/// [`std::thread::available_parallelism`]. Requests beyond 4× the available
/// parallelism are clamped, and a malformed `HEF_THREADS` is reported once
/// instead of being silently ignored.
pub fn resolve_threads(requested: usize) -> usize {
    let cap = thread_cap();
    let clamp = |n: usize| {
        if n > cap {
            hef_obs::diag::warn_once(
                "threads-clamp",
                format!(
                    "{n} worker threads requested; clamping to {cap} \
                     (4x available parallelism)"
                ),
            );
            cap
        } else {
            n
        }
    };
    if requested > 0 {
        return clamp(requested);
    }
    if let Ok(v) = std::env::var("HEF_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => return clamp(n),
            _ => hef_obs::diag::warn_once(
                "threads-bad-env",
                format!(
                    "HEF_THREADS=`{v}` is not a positive integer; \
                     using available parallelism"
                ),
            ),
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{
        estimate_query_bytes, with_governor, DegradeAction, GovernorConfig, QueryCtx,
    };
    use crate::parallel::run_ctx;
    use crate::star::{build_dimension, Measure, RangeFilter};
    use hef_core::PipelineEntry;
    use hef_kernels::HybridConfig;
    use hef_storage::{Column, Table};

    fn toy_plan() -> (Table, StarPlan) {
        let n = 4096u64;
        let mut fact = Table::new("fact");
        fact.add_column(Column::new("fk", (0..n).map(|i| i % 64).collect()));
        fact.add_column(Column::new("rev", (0..n).map(|i| i % 7 + 1).collect()));
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", (0..64).collect()));
        let d = build_dimension(
            &dim,
            "key",
            |r| dim.col("key")[r] < 48,
            |r| dim.col("key")[r] % 4,
            4,
            "fk",
        );
        let plan = StarPlan {
            name: "toy".into(),
            filters: vec![RangeFilter {
                col: "rev".into(),
                lo: 1,
                hi: 6,
            }],
            dims: vec![d],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        (fact, plan)
    }

    /// A registry with one pipeline row (filter `(2, 2, 2)`, probe
    /// `(1, 1, 3)`, `f = 8`) per plan.
    fn rows_for(plans: &[&StarPlan]) -> Registry {
        let mut reg = Registry::default();
        for plan in plans {
            reg.insert_pipeline(
                plan.fingerprint(),
                PipelineEntry {
                    stages: vec![
                        (Family::Filter, HybridConfig::new(2, 2, 2)),
                        (Family::Probe, HybridConfig::new(1, 1, 3)),
                    ],
                    f: 8,
                },
            );
        }
        reg
    }

    #[test]
    fn explicit_thread_request_wins_over_auto() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn absurd_thread_requests_are_clamped() {
        let cap = thread_cap();
        assert_eq!(resolve_threads(1_000_000), cap);
        assert!(resolve_threads(cap) == cap);
    }

    #[test]
    fn pipeline_rows_resolve_and_damaged_files_degrade() {
        let (fact, plan) = toy_plan();
        let source = MorselSource::Mem(&fact);
        let reg = rows_for(&[&plan]);
        let base = ExecConfig::hybrid_default().with_threads(1);

        let r = resolve(&plan, source, &base, &reg).unwrap();
        assert_eq!(r.cfg.filter, HybridConfig::new(2, 2, 2));
        assert_eq!(r.cfg.probe_prefetch, 8);
        assert_eq!(r.pipeline_row, Some(plan.fingerprint()));

        // A plan without a row keeps the caller's config.
        let mut other = plan.clone();
        other.name = "other".into();
        let r = resolve(&other, source, &base, &reg).unwrap();
        assert_eq!(r.cfg.filter, base.filter);
        assert_eq!(r.cfg.probe_prefetch, base.probe_prefetch);
        assert_eq!(r.pipeline_row, None);

        // End to end: the row-configured run is bit-identical to the
        // unconfigured one (grid nodes only change speed, never results).
        let ctx = QueryCtx::unbounded();
        let (with, _) = run_ctx(&plan, source, &base, &ctx, &reg).unwrap();
        let (without, _) = run_ctx(&plan, source, &base, &ctx, &Registry::default()).unwrap();
        assert_eq!(with, without);

        // Truncate the file mid-row: the ladder drops the torn row and the
        // caller's config survives untouched.
        let dir = std::env::temp_dir().join(format!("hef-resolve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = reg.to_text();
        let cut = text.rfind("probe").map(|i| i + 3).unwrap();
        let torn = dir.join("torn.txt");
        std::fs::write(&torn, &text[..cut]).unwrap();
        let (damaged, report) = Registry::load_degraded(&torn);
        std::fs::remove_dir_all(&dir).ok();
        assert!(!report.is_clean());
        let r = resolve(&plan, source, &base, &damaged).unwrap();
        assert_eq!(r.cfg.filter, base.filter);
        assert_eq!(r.cfg.probe_prefetch, base.probe_prefetch);
        assert_eq!(r.pipeline_row, None);
    }

    /// A pipeline row is a joint hybrid configuration: the scalar, SIMD and
    /// Voila baselines must run their own uniform nodes even when the plan
    /// has a row, or every flavor comparison becomes hybrid vs hybrid.
    #[test]
    fn pipeline_rows_apply_to_the_hybrid_flavor_only() {
        let (fact, plan) = toy_plan();
        let source = MorselSource::Mem(&fact);
        let reg = rows_for(&[&plan]);
        let ctx = QueryCtx::unbounded();
        for flavor in Flavor::ALL {
            let base = ExecConfig::for_flavor(flavor).with_threads(1);
            let (_, report) = run_ctx(&plan, source, &base, &ctx, &reg).unwrap();
            let r = resolve(&plan, source, &base, &reg).unwrap();
            if flavor == Flavor::Hybrid {
                assert_eq!(report.pipeline_row, Some(plan.fingerprint()));
                assert_eq!(r.cfg.filter, HybridConfig::new(2, 2, 2));
            } else {
                assert_eq!(report.pipeline_row, None, "{}", flavor.name());
                assert_eq!(r.cfg.filter, base.filter, "{}", flavor.name());
                assert_eq!(r.cfg.probe, base.probe, "{}", flavor.name());
                assert_eq!(
                    r.cfg.probe_prefetch,
                    base.probe_prefetch,
                    "{}",
                    flavor.name()
                );
            }
        }
    }

    /// A query the governor degrades shrinks its batch for itself only:
    /// the next query of the same plan is degraded afresh (its row never
    /// restores the batch), and other plans keep their rows and batches.
    #[test]
    fn degraded_plan_never_regains_its_batch_from_its_row() {
        let (fact, plan) = toy_plan();
        let source = MorselSource::Mem(&fact);
        // The same plan under another name, over a fact table no larger
        // than one shrunken batch.
        let mut other_plan = plan.clone();
        other_plan.name = "other".into();
        let mut other_fact = Table::new("fact");
        for name in ["fk", "rev"] {
            other_fact.add_column(Column::new(name, fact.col(name)[..256].to_vec()));
        }
        let reg = rows_for(&[&plan, &other_plan]);

        let base = ExecConfig::hybrid_default().with_threads(2);
        // A budget that fits half the batch but not the full one, so
        // admission's only ladder rung is exactly one ShrinkBatch.
        let half = base.batch / 2;
        let budget = estimate_query_bytes(&plan, source, &base.with_batch(half), 2);
        assert!(
            estimate_query_bytes(&plan, source, &base, 2) > budget,
            "full-batch estimate must exceed the half-batch budget"
        );

        with_governor(
            GovernorConfig {
                max_queries: 0,
                mem_budget: budget,
            },
            |_| {
                for query in 0..2 {
                    let mut r = resolve(&plan, source, &base, &reg).expect("admit degraded");
                    assert_eq!(r.cfg.batch, half, "query {query} regained its batch");
                    assert_eq!(
                        r.admission.take_actions(),
                        vec![DegradeAction::ShrinkBatch { from: base.batch, to: half }]
                    );
                    assert_eq!(r.pipeline_row, Some(plan.fingerprint()));
                    assert_eq!(r.cfg.filter, HybridConfig::new(2, 2, 2));
                }
                let mut r =
                    resolve(&other_plan, MorselSource::Mem(&other_fact), &base, &reg).unwrap();
                assert!(r.admission.take_actions().is_empty());
                assert_eq!(r.cfg.batch, base.batch);
                assert_eq!(r.pipeline_row, Some(other_plan.fingerprint()));
                assert_eq!(r.cfg.filter, HybridConfig::new(2, 2, 2));
            },
        );
    }
}
