//! Tuned execution configs from the warmed operator registry.
//!
//! Benches and the `repro` binary build their [`ExecConfig`]s here instead
//! of hard-coding the paper's SSB optimum: [`hef_core::Registry::warm`]
//! loads the tuned registry once per process (from `HEF_REGISTRY` when set,
//! e.g. the file the `repro tune` experiment writes), and the hybrid flavor
//! picks up whatever node the offline tuner found per kernel family.

use hef_core::Registry;
use hef_engine::{ExecConfig, Flavor};

/// The config benches run for a flavor: [`ExecConfig::tuned`] from the
/// warmed registry for Hybrid, the fixed baselines for everything else.
pub fn exec_config(flavor: Flavor) -> ExecConfig {
    match flavor {
        Flavor::Hybrid => ExecConfig::tuned(Registry::warm()),
        _ => ExecConfig::for_flavor(flavor),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hef_kernels::Family;

    #[test]
    fn hybrid_flavor_comes_from_registry() {
        let cfg = exec_config(Flavor::Hybrid);
        assert_eq!(cfg.flavor, Flavor::Hybrid);
        let reg = Registry::warm();
        assert_eq!(cfg.filter, reg.get_or_default(Family::Filter));
        assert_eq!(cfg.probe, reg.get_or_default(Family::Probe));
        assert_eq!(cfg.agg, reg.get_or_default(Family::AggSum));
        assert_eq!(cfg.gather, reg.get_or_default(Family::Gather));
        assert_eq!(cfg.probe_prefetch, reg.get_prefetch(Family::Probe).unwrap_or(0));
    }

    #[test]
    fn baselines_unchanged() {
        assert_eq!(exec_config(Flavor::Scalar).filter, hef_kernels::HybridConfig::SCALAR);
        assert_eq!(exec_config(Flavor::Simd).probe, hef_kernels::HybridConfig::SIMD);
        assert_eq!(exec_config(Flavor::Voila).flavor, Flavor::Voila);
    }
}
