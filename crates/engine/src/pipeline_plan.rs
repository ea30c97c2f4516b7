//! Per-query pipeline plans: stable plan fingerprints and the overlay of a
//! joint pipeline row onto an execution config.
//!
//! The whole-pipeline joint tuner (`hef_core::pipeline`) persists its
//! results as registry `pipeline` rows keyed by a **plan fingerprint** — a
//! hash of the query's *structure* (filters, join chain, measure, group
//! strides), deliberately excluding anything scale-dependent (table sizes,
//! row counts) so a plan tuned at one scale factor resolves at every other.
//! [`crate::resolve`] looks the executing plan up in the `HEF_PIPELINE`
//! registry and applies its row with [`apply_pipeline_entry`].

use hef_core::PipelineEntry;
use hef_kernels::Family;

use crate::star::{ExecConfig, Measure, StarPlan};

/// FNV-1a, hand-rolled so the fingerprint is stable across Rust releases
/// (`DefaultHasher` documents no such stability) — these hashes live in
/// registry files that outlive the binary that wrote them.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        // Delimit, so ("ab","c") and ("a","bc") hash apart.
        self.bytes(&[0xff]);
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl StarPlan {
    /// Stable structural fingerprint, the registry `pipeline` row key.
    ///
    /// Covers the query name and everything that shapes the lowered
    /// pipeline — filter columns and bounds, the join chain (fk column,
    /// dimension name, group count, probe order), the measure, and the
    /// group-id strides. Excludes probe-table contents and sizes: the same
    /// query at a different scale factor keeps its fingerprint, so one
    /// tuned registry serves every data size.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(&self.name);
        h.num(self.filters.len() as u64);
        for f in &self.filters {
            h.str(&f.col);
            h.num(f.lo);
            h.num(f.hi);
        }
        h.num(self.dims.len() as u64);
        for d in &self.dims {
            h.str(&d.fk_col);
            h.str(&d.name);
            h.num(d.groups as u64);
        }
        match &self.measure {
            Measure::Sum(a) => {
                h.num(1);
                h.str(a);
            }
            Measure::SumProduct(a, b) => {
                h.num(2);
                h.str(a);
                h.str(b);
            }
            Measure::SumDiff(a, b) => {
                h.num(3);
                h.str(a);
                h.str(b);
            }
        }
        for s in self.gid_strides() {
            h.num(s);
        }
        h.0
    }
}

/// Overlay a registry pipeline row onto an execution config: each stage's
/// node lands on the kernel-family slot the pipeline dispatches (bloom
/// checks ride the probe slot they guard), and the row's shared prefetch
/// depth replaces the per-op one. Stage families with no `ExecConfig` slot
/// (the hash micro-kernels) are ignored.
pub fn apply_pipeline_entry(mut cfg: ExecConfig, entry: &PipelineEntry) -> ExecConfig {
    for &(family, node) in &entry.stages {
        match family {
            Family::Filter => cfg.filter = node,
            Family::Probe | Family::BloomCheck => cfg.probe = node,
            Family::Gather => cfg.gather = node,
            Family::AggSum | Family::AggDot => cfg.agg = node,
            Family::Decode => cfg.decode = node,
            Family::Murmur | Family::Crc64 => {}
        }
    }
    cfg.probe_prefetch = entry.f;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::{build_dimension, RangeFilter};
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
            filters: vec![RangeFilter { col: "rev".into(), lo: 1, hi: 6 }],
            dims: vec![d],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        (fact, plan)
    }

    #[test]
    fn fingerprint_is_structural_and_scale_stable() {
        let (_, plan) = toy_plan();
        let fp = plan.fingerprint();
        assert_eq!(fp, plan.fingerprint(), "deterministic");

        // A rebuilt plan with a *bigger* dimension table but identical
        // structure keeps the fingerprint.
        let mut dim = Table::new("dim");
        dim.add_column(Column::new("key", (0..256).collect()));
        let d = build_dimension(
            &dim,
            "key",
            |r| dim.col("key")[r] < 48,
            |r| dim.col("key")[r] % 4,
            4,
            "fk",
        );
        let scaled = StarPlan { dims: vec![d], ..plan.clone() };
        assert_eq!(scaled.fingerprint(), fp, "table size must not matter");

        // Any structural change moves it.
        let mut renamed = plan.clone();
        renamed.name = "toy2".into();
        assert_ne!(renamed.fingerprint(), fp);
        let mut refiltered = plan.clone();
        refiltered.filters[0].hi = 5;
        assert_ne!(refiltered.fingerprint(), fp);
        let mut remeasured = plan.clone();
        remeasured.measure = Measure::SumProduct("rev".into(), "rev".into());
        assert_ne!(remeasured.fingerprint(), fp);
    }

    #[test]
    fn entry_overlays_family_slots_and_depth() {
        let base = ExecConfig::hybrid_default();
        let entry = PipelineEntry {
            stages: vec![
                (Family::Filter, HybridConfig::new(2, 2, 2)),
                (Family::Probe, HybridConfig::new(4, 0, 1)),
                (Family::Gather, HybridConfig::new(0, 2, 1)),
                (Family::AggSum, HybridConfig::new(1, 3, 1)),
            ],
            f: 32,
        };
        let cfg = apply_pipeline_entry(base, &entry);
        assert_eq!(cfg.filter, HybridConfig::new(2, 2, 2));
        assert_eq!(cfg.probe, HybridConfig::new(4, 0, 1));
        assert_eq!(cfg.gather, HybridConfig::new(0, 2, 1));
        assert_eq!(cfg.agg, HybridConfig::new(1, 3, 1));
        assert_eq!(cfg.probe_prefetch, 32);
        // Untouched knobs survive the overlay.
        assert_eq!(cfg.batch, base.batch);
        assert_eq!(cfg.use_bloom, base.use_bloom);
    }
}
