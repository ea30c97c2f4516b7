//! Dynamic flavor selection — the paper's §VII future-work item, built out:
//! "we will enable HEF to support the function of dynamic selection, which
//! makes it dynamically select operators with different implementations
//! according to queries".
//!
//! The selector times every engine flavor on a sampled prefix of the fact
//! table and picks the fastest for the full run. Sampling preserves the
//! query's selectivity structure (SSB foreign keys are uniform), so the
//! prefix ranking almost always matches the full-run ranking; the paper's
//! observation that Voila wins very-high-selectivity queries while HEF wins
//! the rest is exactly the kind of crossover this selector navigates.

use std::time::Instant;

use hef_storage::Table;

use crate::govern::CancelToken;
use crate::parallel::{run, ExecError, MorselSource};
use crate::star::{ExecConfig, Flavor, QueryOutput, StarPlan};

/// The outcome of a sampled selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The winning flavor.
    pub flavor: Flavor,
    /// Sample timings per flavor, in [`Flavor::ALL`] order (seconds).
    pub sample_secs: Vec<(Flavor, f64)>,
    /// Rows sampled.
    pub sample_rows: usize,
}

/// NaN-safe ranking of sample timings. `f64::total_cmp` orders every NaN
/// above all finite times, so a flavor with a poisoned sample can never win;
/// `min_by` keeps the *first* of equal entries, so an all-NaN (or empty)
/// ranking deterministically falls back to the first flavor in
/// [`Flavor::ALL`] order.
fn fastest(timings: &[(Flavor, f64)]) -> Flavor {
    timings
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(Flavor::Scalar, |&(f, _)| f)
}

/// Time each flavor on the first `sample_rows` rows and return the ranking.
/// `cancel` is checked inside every sampled pre-run, so a cancelled
/// selection stops at the next morsel boundary with a typed
/// [`ExecError::Cancelled`] instead of timing the remaining flavors; a plan
/// the executor rejects comes back as a typed [`ExecError`] too.
pub fn try_choose_flavor(
    plan: &StarPlan,
    fact: &Table,
    sample_rows: usize,
    cancel: &CancelToken,
) -> Result<Selection, ExecError> {
    let sample = fact.head(sample_rows.max(1));
    let mut timings = Vec::with_capacity(Flavor::ALL.len());
    for flavor in Flavor::ALL {
        let cfg = ExecConfig::for_flavor(flavor);
        run(plan, MorselSource::Mem(&sample), &cfg, cancel)?; // warm-up
        let t = Instant::now();
        run(plan, MorselSource::Mem(&sample), &cfg, cancel)?;
        timings.push((flavor, t.elapsed().as_secs_f64()));
    }
    Ok(Selection { flavor: fastest(&timings), sample_secs: timings, sample_rows: sample.len() })
}

/// Execute `plan` with the flavor a sampled pre-run selects, with `cancel`
/// threaded through both the sampled selection runs and the final
/// full-table run. `sample_fraction` of the fact table (clamped to
/// `1024..=1_000_000` rows) is used for selection.
pub fn try_execute_star_dynamic(
    plan: &StarPlan,
    fact: &Table,
    sample_fraction: f64,
    cancel: &CancelToken,
) -> Result<(QueryOutput, Selection), ExecError> {
    let rows = ((fact.len() as f64 * sample_fraction) as usize).clamp(1024, 1_000_000);
    let sel = try_choose_flavor(plan, fact, rows, cancel)?;
    let cfg = ExecConfig::for_flavor(sel.flavor);
    let (out, _) = run(plan, MorselSource::Mem(fact), &cfg, cancel)?;
    Ok((out, sel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::{build_dimension, execute_star, Measure};
    use hef_storage::Column;

    fn toy() -> (Table, StarPlan) {
        let mut fact = Table::new("fact");
        let n = 20_000u64;
        fact.add_column(Column::new("fk", (0..n).map(|i| i % 100).collect()));
        fact.add_column(Column::new("rev", (0..n).map(|i| i % 5 + 1).collect()));
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", (0..100).collect()));
        let d = build_dimension(&dim, "key", |r| dim.col("key")[r] < 50, |_| 0, 1, "fk");
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
    fn selection_ranks_all_flavors() {
        let (fact, plan) = toy();
        let sel = try_choose_flavor(&plan, &fact, 4096, &CancelToken::new()).unwrap();
        assert_eq!(sel.sample_secs.len(), Flavor::ALL.len());
        assert!(sel.sample_secs.iter().all(|&(_, t)| t > 0.0));
        assert_eq!(sel.sample_rows, 4096);
    }

    #[test]
    fn dynamic_execution_matches_static_results() {
        let (fact, plan) = toy();
        let (out, sel) = try_execute_star_dynamic(&plan, &fact, 0.2, &CancelToken::new()).unwrap();
        let reference = execute_star(&plan, &fact, &ExecConfig::scalar());
        assert_eq!(out.groups, reference.groups);
        assert!(Flavor::ALL.contains(&sel.flavor));
    }

    #[test]
    fn nan_sample_time_never_wins() {
        // Regression for the NaN-unsafe `partial_cmp(..).unwrap()`: a NaN
        // cost must neither panic nor be selected.
        let timings = vec![
            (Flavor::Scalar, 2.0),
            (Flavor::Simd, f64::NAN),
            (Flavor::Voila, 1.0),
            (Flavor::Hybrid, f64::NAN),
        ];
        assert_eq!(fastest(&timings), Flavor::Voila);
    }

    #[test]
    fn all_nan_ranking_falls_back_to_first_flavor() {
        let timings: Vec<(Flavor, f64)> =
            Flavor::ALL.iter().map(|&f| (f, f64::NAN)).collect();
        assert_eq!(fastest(&timings), Flavor::ALL[0]);
        assert_eq!(fastest(&[]), Flavor::Scalar);
    }

    #[test]
    fn bad_plan_is_a_typed_error_from_selection() {
        let (fact, mut plan) = toy();
        plan.measure = Measure::Sum("ghost".into());
        assert!(matches!(
            try_choose_flavor(&plan, &fact, 1024, &CancelToken::new()),
            Err(ExecError::BadPlan { .. })
        ));
        assert!(matches!(
            try_execute_star_dynamic(&plan, &fact, 0.1, &CancelToken::new()),
            Err(ExecError::BadPlan { .. })
        ));
    }

    #[test]
    fn sample_clamps_to_table_size() {
        let (fact, plan) = toy();
        let sel = try_choose_flavor(&plan, &fact, 10_000_000, &CancelToken::new()).unwrap();
        assert_eq!(sel.sample_rows, fact.len());
    }
}
