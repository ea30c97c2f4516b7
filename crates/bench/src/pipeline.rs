//! Lower a [`StarPlan`] into the joint tuner's [`PipelineSpec`].
//!
//! The whole-pipeline tuner (`hef_core::pipeline`) prices a chain of
//! co-resident operator stages; this module derives that chain from an
//! executed query: one cheap stats run ([`ExecStats`] rides every
//! [`hef_engine::QueryOutput`]) yields per-stage reach fractions
//! (selectivity of everything upstream) and per-dimension probe-table
//! working sets — exactly the quantities the co-residency cost model
//! weighs. The resulting spec is scale-invariant in the same sense as the
//! plan fingerprint: fractions, not row counts.

use hef_core::{PipelineEntry, PipelineSpec, PipelineStage, Registry};
use hef_engine::{apply_pipeline_entry, ExecConfig, ExecStats, Measure, StarPlan};
use hef_kernels::Family;

/// Derive the joint tuner's pipeline spec from a plan and the stats of one
/// (any-flavor) execution of it.
///
/// Stage chain mirrors the engine's lowered order: filter → one probe per
/// dimension (bloom checks are priced inside the probe stage they guard) →
/// gather → aggregate. Weights are reach fractions of the fact scan;
/// working sets are the probe tables' resident bytes. `streams` counts the
/// sequential column streams co-resident with the probes (filter columns,
/// one fk take per dimension, the measure columns) — each occupies
/// line-fill buffers the probe prefetches cannot use.
pub fn pipeline_spec(plan: &StarPlan, stats: &ExecStats) -> PipelineSpec {
    let rows = stats.rows_scanned.max(1) as f64;
    let mut stages = Vec::new();
    if !plan.filters.is_empty() {
        stages.push(PipelineStage::new(Family::Filter, 1.0, 0));
    }
    for (i, _) in plan.dims.iter().enumerate() {
        let probed = stats.probes.get(i).copied().unwrap_or(0) as f64;
        let ws = stats.table_bytes.get(i).copied().unwrap_or(0) as u64;
        stages.push(PipelineStage::new(Family::Probe, probed / rows, ws));
    }
    let tail = stats.rows_aggregated as f64 / rows;
    stages.push(PipelineStage::new(Family::Gather, tail, 0));
    let agg = match plan.measure {
        Measure::Sum(_) | Measure::SumDiff(_, _) => Family::AggSum,
        Measure::SumProduct(_, _) => Family::AggDot,
    };
    stages.push(PipelineStage::new(agg, tail, 0));
    let measure_cols = match plan.measure {
        Measure::Sum(_) => 1,
        Measure::SumProduct(_, _) | Measure::SumDiff(_, _) => 2,
    };
    PipelineSpec {
        stages,
        streams: plan.filters.len() + plan.dims.len() + measure_cols,
    }
}

/// [`pipeline_spec`] with the out-of-core decode stage prepended: every
/// fact row passes through page decode before the first filter, so the
/// stage has weight 1.0 and no probe working set, and the compressed page
/// stream adds one co-resident column stream per touched column (already
/// counted by `streams` — the paged scan replaces the plain column reads
/// one for one).
pub fn pipeline_spec_paged(plan: &StarPlan, stats: &ExecStats) -> PipelineSpec {
    let mut spec = pipeline_spec(plan, stats);
    spec.stages.insert(0, PipelineStage::new(Family::Decode, 1.0, 0));
    spec
}

/// The execution config a joint pipeline row implies: the per-op baseline
/// ([`ExecConfig::tuned`]) with the tuned stage nodes and shared prefetch
/// depth overlaid.
pub fn joint_exec_config(reg: &Registry, entry: &PipelineEntry) -> ExecConfig {
    apply_pipeline_entry(ExecConfig::tuned(reg), entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_engine::execute_star;
    use hef_ssb::{build_plan, generate, QueryId};

    #[test]
    fn spec_mirrors_the_lowered_chain() {
        let data = generate(0.002, 42);
        let plan = build_plan(&data, QueryId::Q2_1);
        let out = execute_star(&plan, &data.lineorder, &ExecConfig::scalar().with_threads(1));
        let spec = pipeline_spec(&plan, &out.stats);

        // filter? + probes + gather + agg
        let probes = plan.dims.len();
        let filters = usize::from(!plan.filters.is_empty());
        assert_eq!(spec.stages.len(), filters + probes + 2);
        let probe_stages: Vec<_> =
            spec.stages.iter().filter(|s| s.family == Family::Probe).collect();
        assert_eq!(probe_stages.len(), probes);
        // Weights are reach fractions: in (0, 1], monotone non-increasing
        // along the probe chain, and the tail stages match rows_aggregated.
        let mut last = 1.0f64;
        for s in &probe_stages {
            assert!(s.weight > 0.0 && s.weight <= last + 1e-12, "{:?}", s);
            last = s.weight;
        }
        let tail = out.stats.rows_aggregated as f64 / out.stats.rows_scanned as f64;
        let gather = spec.stages.iter().find(|s| s.family == Family::Gather).unwrap();
        assert!((gather.weight - tail).abs() < 1e-12);
        // Probe stages carry the table working sets; streaming stages do not.
        assert!(probe_stages.iter().any(|s| s.working_set > 0));
        assert!(spec.stages.iter().filter(|s| s.family != Family::Probe).all(|s| s.working_set == 0));
        assert_eq!(spec.streams, plan.filters.len() + probes + 1);
    }

    #[test]
    fn joint_config_overlays_per_op_baseline() {
        let reg = Registry::default();
        let base = ExecConfig::tuned(&reg);
        let entry = PipelineEntry {
            stages: vec![(Family::Probe, hef_kernels::HybridConfig::new(2, 1, 2))],
            f: 16,
        };
        let joint = joint_exec_config(&reg, &entry);
        assert_eq!(joint.probe, hef_kernels::HybridConfig::new(2, 1, 2));
        assert_eq!(joint.probe_prefetch, 16);
        assert_eq!(joint.filter, base.filter);
    }
}
