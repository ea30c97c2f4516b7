//! Workload definitions, seeded query orders and answer digests.

use hef_ssb::QueryId;
use hef_testutil::Rng;

/// Seed used when `--seed` is not given; the committed answer digests
/// (`digests_sf1.txt`) are for this seed at SF 1.
pub const DEFAULT_SEED: u64 = 0x55B;

/// Worker threads per query (the benchmark host has 2 vCPUs).
pub const THREADS: usize = 2;

const MIB: f64 = (1u64 << 20) as f64;

/// One benchmark workload: the same 13 queries over one storage layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Lineorder in memory.
    Mem,
    /// Paged lineorder through a page cache smaller than one Q4.x query's
    /// compressed column set.
    PagedEvict,
    /// Paged lineorder through a page cache that holds every page.
    PagedResident,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Mem, Workload::PagedEvict, Workload::PagedResident];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mem => "ssb_mem_sf1",
            Workload::PagedEvict => "ssb_paged_evict_sf1",
            Workload::PagedResident => "ssb_paged_resident_sf1",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Page-cache capacity in bytes: 32 MiB (evicting) or 128 MiB
    /// (resident) at SF 1, scaled linearly with the scale factor so a
    /// smaller data set keeps the same cache-to-data ratio. `None` for the
    /// in-memory workload.
    pub fn cache_bytes(self, sf: f64) -> Option<usize> {
        let mib = match self {
            Workload::Mem => return None,
            Workload::PagedEvict => 32.0,
            Workload::PagedResident => 128.0,
        };
        Some(((mib * MIB * sf) as usize).max(1))
    }
}

/// The order of the 13 queries in sweep `sweep` (sweep 0 is the warm-up):
/// a fresh seeded shuffle per sweep, so carried-over cache state never
/// repeats one fixed sequence.
pub fn sweep_order(seed: u64, sweep: u64) -> [QueryId; 13] {
    let mut order = QueryId::ALL;
    let mut rng =
        Rng::seed_from_u64(seed ^ 0x0D3E_5EED ^ sweep.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.shuffle(&mut order);
    order
}

/// Position of `q` in [`QueryId::ALL`].
pub fn query_index(q: QueryId) -> usize {
    QueryId::ALL
        .iter()
        .position(|&x| x == q)
        .expect("every query is in ALL")
}

/// FNV-1a digest of a query's dense group accumulators (length included).
pub fn digest(groups: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in std::iter::once(groups.len() as u64).chain(groups.iter().copied()) {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digests committed with the benchmark for [`DEFAULT_SEED`] at SF 1, one
/// `<query> <hex digest>` line per query.
pub const COMMITTED_DIGESTS: &str = include_str!("../digests_sf1.txt");

/// Parse [`COMMITTED_DIGESTS`]-style text into per-query digests (indexed
/// like [`QueryId::ALL`]); `Err` names the first bad or missing line.
pub fn parse_digests(text: &str) -> Result<[u64; 13], String> {
    let mut out = [None; 13];
    for line in text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, hex) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad digest line `{line}`"))?;
        let q = QueryId::ALL
            .into_iter()
            .find(|q| q.name() == name)
            .ok_or_else(|| format!("unknown query `{name}` in digest file"))?;
        let d =
            u64::from_str_radix(hex.trim(), 16).map_err(|e| format!("bad digest `{hex}`: {e}"))?;
        out[query_index(q)] = Some(d);
    }
    let mut digests = [0u64; 13];
    for (i, d) in out.into_iter().enumerate() {
        digests[i] = d.ok_or_else(|| format!("no digest for {}", QueryId::ALL[i].name()))?;
    }
    Ok(digests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_are_seeded_permutations() {
        for seed in [0, 1, DEFAULT_SEED, u64::MAX] {
            for sweep in 0..4 {
                let a = sweep_order(seed, sweep);
                assert_eq!(a, sweep_order(seed, sweep), "same seed, same order");
                let mut idx: Vec<usize> = a.iter().map(|&q| query_index(q)).collect();
                idx.sort_unstable();
                assert_eq!(idx, (0..13).collect::<Vec<_>>(), "a permutation of all 13");
            }
        }
        // Drawn again for each sweep and for each seed.
        assert_ne!(sweep_order(7, 1), sweep_order(7, 2));
        assert_ne!(sweep_order(7, 1), sweep_order(8, 1));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("ssb_mem"), None);
        assert_eq!(Workload::Mem.cache_bytes(1.0), None);
        assert_eq!(Workload::PagedEvict.cache_bytes(1.0), Some(32 << 20));
        assert_eq!(Workload::PagedResident.cache_bytes(1.0), Some(128 << 20));
    }

    #[test]
    fn digest_sees_length_and_values() {
        assert_ne!(digest(&[]), digest(&[0]));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_eq!(digest(&[5, 6, 7]), digest(&[5, 6, 7]));
    }

    #[test]
    fn committed_digests_cover_every_query() {
        parse_digests(COMMITTED_DIGESTS).expect("committed digest file parses");
        assert!(parse_digests("Q1.1 zz").is_err());
        assert!(
            parse_digests("Q1.1 1f").is_err(),
            "missing queries are an error"
        );
    }
}
