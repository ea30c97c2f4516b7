//! Differential suite for the memory-parallel probe pipeline: software
//! prefetch (any depth, on- or off-axis) must be a *pure optimization* —
//! bit-identical to the flat scalar reference probe for every flavor and
//! every key distribution.
//!
//! A paged star query over a dimension that spills the L2 cache checks the
//! flat probe at page-sized batches against the in-memory engine and an
//! independent row-at-a-time reference.
//!
//! Also covers the persistence story: `(v, s, p, f)` registry round-trips
//! through the registry text format.

use hef::core::{Family as CoreFamily, Registry};
use hef::engine::{
    build_dimension, execute_star, CancelToken, ExecConfig, Flavor, Measure, MorselSource,
    PagedTable, RangeFilter, StarPlan,
};
use hef::kernels::{all_configs, run, Family, HybridConfig, KernelIo, ProbeTable, F_AXIS};
use hef::ssb::{build_plan, generate, QueryId};
use hef::storage::{save_paged_column, Column, PageCache, Table};
use hef_testutil::{prop, strategy, Rng};

/// Reference: one scalar probe per key against the flat table.
fn reference(table: &ProbeTable, keys: &[u64]) -> Vec<u64> {
    keys.iter().map(|&k| table.probe_scalar(k)).collect()
}

fn build(entries: usize) -> ProbeTable {
    let mut t = ProbeTable::with_capacity(entries);
    for k in 0..entries as u64 {
        t.insert(k * 3 + 1, k + 7);
    }
    t
}

/// The three adversarial key distributions of the issue: collision-heavy
/// (many duplicates hammering few buckets), all-miss, and dense-hit.
fn distributions(entries: usize, nkeys: usize) -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = Rng::seed_from_u64(0xFEED);
    let collision: Vec<u64> =
        (0..nkeys).map(|_| rng.gen_range(0..8u64) * 3 + 1).collect();
    let all_miss: Vec<u64> =
        (0..nkeys).map(|_| rng.gen_range(0..entries as u64 * 3) * 3 + 2).collect();
    let dense_hit: Vec<u64> =
        (0..nkeys).map(|_| rng.gen_range(0..entries as u64) * 3 + 1).collect();
    vec![("collision", collision), ("all_miss", all_miss), ("dense_hit", dense_hit)]
}

#[test]
fn prefetched_probe_is_identical_for_every_flavor_and_depth() {
    let entries = 4096;
    let table = build(entries);
    // On-axis depths, off-axis depths, absurd depths: all legal at runtime.
    let depths: Vec<usize> = F_AXIS.iter().copied().chain([3, 7, 100, 5000]).collect();
    for (dist, keys) in distributions(entries, 2048) {
        let expect = reference(&table, &keys);
        for cfg in all_configs() {
            for &f in &depths {
                let mut out = vec![0u64; keys.len()];
                let mut io =
                    KernelIo::Probe { keys: &keys, table: &table, out: &mut out, prefetch: f };
                assert!(run(Family::Probe, cfg, &mut io));
                assert_eq!(out, expect, "{dist} {cfg} f={f}");
            }
        }
    }
}

#[test]
fn property_prefetched_probe_agrees_with_reference() {
    // Randomized shapes: table size, key count and depth all move.
    let gen = |rng: &mut Rng| {
        let entries = rng.gen_range(1..2000usize);
        let nkeys = rng.gen_range(0..1500usize);
        let f = rng.gen_range(0..70usize);
        let keys = strategy::vec_of(strategy::in_range(0..6000u64), nkeys..nkeys + 1)(rng);
        (entries, keys, f)
    };
    prop::check("prefetched probe agrees", gen, |(entries, keys, f)| {
        let table = build(*entries);
        let expect = reference(&table, keys);
        let mut out = vec![0u64; keys.len()];
        let mut io =
            KernelIo::Probe { keys, table: &table, out: &mut out, prefetch: *f };
        assert!(run(Family::Probe, HybridConfig::new(2, 1, 2), &mut io));
        assert_eq!(out, expect, "prefetched f={f}");
        Ok(())
    });
}

#[test]
fn engine_query_results_are_invariant_under_memory_knobs() {
    let data = generate(0.002, 0x9E37);
    for q in [QueryId::Q2_1, QueryId::Q4_2] {
        let plan = build_plan(&data, q);
        let baseline = execute_star(&plan, &data.lineorder, &ExecConfig::for_flavor(Flavor::Scalar));
        for flavor in [Flavor::Scalar, Flavor::Simd, Flavor::Hybrid] {
            for f in [0usize, 8, 32] {
                let cfg = ExecConfig::for_flavor(flavor).with_probe_prefetch(f);
                let out = execute_star(&plan, &data.lineorder, &cfg);
                assert_eq!(out.groups, baseline.groups, "{} {} f={f}", q.name(), flavor.name());
            }
        }
    }
}

#[test]
fn big_dimension_paged_probe_matches_in_memory_and_reference() {
    // 200k dimension keys (several MiB of probe table, more than half of
    // any L2) with 8 groups; a third of the fact keys miss.
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
        filters: vec![RangeFilter { col: "rev".into(), lo: 2, hi: 11 }],
        dims: vec![d],
        measure: Measure::Sum("rev".into()),
        strides: vec![],
    };

    // Independent reference: the dimension's hits and groups are known in
    // closed form, so no probe table is involved.
    let mut expect = vec![0u64; 8];
    for (&k, &rev) in fact.col("fk").iter().zip(fact.col("rev")) {
        if (2..=11).contains(&rev) && k < n_dim {
            expect[(k % 8) as usize] += rev;
        }
    }
    let scalar = execute_star(&plan, &fact, &ExecConfig::scalar().with_threads(1));
    assert_eq!(scalar.groups, expect, "scalar 1-thread reference");

    let dir = std::env::temp_dir().join(format!("hef-big-dim-paged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for col in fact.columns() {
        save_paged_column(col, &dir.join(format!("{}.hefc", col.name())), 16_384).unwrap();
    }
    let paged = PagedTable::open_dir(&dir, "fact").unwrap();
    assert!(paged.page_count() > 4, "every thread count must see several pages");
    let cache = PageCache::new(1 << 20);
    for flavor in Flavor::ALL {
        for threads in [1usize, 2, 4] {
            let cfg = ExecConfig::for_flavor(flavor).with_threads(threads).with_probe_prefetch(16);
            let tag = format!("{} t{threads}", flavor.name());
            let mem = execute_star(&plan, &fact, &cfg);
            assert_eq!(mem.groups, expect, "in-memory {tag}");
            let source = MorselSource::Paged { table: &paged, cache: &cache };
            let (out, _) = hef::engine::run(&plan, source, &cfg, &CancelToken::new())
                .expect("paged run");
            assert_eq!(out.groups, expect, "paged {tag}");
            assert_eq!(out.stats.probes, mem.stats.probes, "paged probes {tag}");
            assert_eq!(out.stats.hits, mem.stats.hits, "paged hits {tag}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_roundtrips_vspf_through_a_file() {
    let dir = std::env::temp_dir().join(format!("hef_vspf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tuned.txt");

    let mut reg = Registry::new("test-cpu");
    reg.insert(CoreFamily::Probe, HybridConfig::new(2, 1, 4));
    reg.insert(CoreFamily::Murmur, HybridConfig::new(1, 1, 3));
    reg.insert_prefetch(CoreFamily::Probe, 32);
    reg.save(&path).expect("save");

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("probe = 2 1 4 32\n"), "depth is the probe line's fourth column:\n{text}");

    let back = Registry::load(&path).expect("load");
    assert_eq!(back.get(CoreFamily::Probe), Some(HybridConfig::new(2, 1, 4)));
    assert_eq!(back.get_prefetch(CoreFamily::Probe), Some(32));
    assert_eq!(back.get(CoreFamily::Murmur), Some(HybridConfig::new(1, 1, 3)));
    assert_eq!(back.get_prefetch(CoreFamily::Murmur), None);
    std::fs::remove_dir_all(&dir).ok();
}
