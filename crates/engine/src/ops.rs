//! Engine-level helper operations shared by all flavors.
//!
//! These are the pipeline-glue steps whose cost is identical across
//! execution flavors (dense grouped accumulation, hit compaction);
//! the flavor-differentiated work — filtering, hash probing, aggregation —
//! runs through the tuned kernel grid in `hef-kernels`.

use hef_kernels::MISS;

/// Dense grouped accumulation: `acc[gid[i]] += val[i]` (wrapping).
///
/// SSB group domains are small dense codes, so the accumulator is a flat
/// array — the strategy the paper's large-linear-table setup implies.
pub fn grouped_accumulate(acc: &mut [u64], gids: &[u64], vals: &[u64]) {
    assert_eq!(gids.len(), vals.len());
    for (&g, &v) in gids.iter().zip(vals) {
        acc[g as usize] = acc[g as usize].wrapping_add(v);
    }
}

/// Compact `sel` (and the parallel payload vectors collected so far) down to
/// the rows whose probe output is a hit; pushes the surviving payloads of
/// the current probe onto `pays`. Returns the new length.
pub fn compact_hits(
    sel: &mut Vec<u64>,
    pays: &mut Vec<Vec<u64>>,
    probe_out: &mut Vec<u64>,
) -> usize {
    debug_assert_eq!(sel.len(), probe_out.len());
    let mut k = 0usize;
    for j in 0..sel.len() {
        if probe_out[j] != MISS {
            sel[k] = sel[j];
            for p in pays.iter_mut() {
                p[k] = p[j];
            }
            probe_out[k] = probe_out[j];
            k += 1;
        }
    }
    sel.truncate(k);
    for p in pays.iter_mut() {
        p.truncate(k);
    }
    probe_out.truncate(k);
    pays.push(core::mem::take(probe_out));
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_accumulate_sums_per_group() {
        let mut acc = vec![0u64; 3];
        grouped_accumulate(&mut acc, &[0, 2, 0, 1], &[5, 7, 1, 2]);
        assert_eq!(acc, vec![6, 2, 7]);
    }

    #[test]
    fn compact_hits_drops_misses_and_collects_payloads() {
        let mut sel = vec![10, 11, 12, 13];
        let mut pays: Vec<Vec<u64>> = vec![vec![100, 101, 102, 103]];
        let mut out = vec![7, MISS, 9, MISS];
        let k = compact_hits(&mut sel, &mut pays, &mut out);
        assert_eq!(k, 2);
        assert_eq!(sel, vec![10, 12]);
        assert_eq!(pays.len(), 2);
        assert_eq!(pays[0], vec![100, 102]); // earlier payloads compacted
        assert_eq!(pays[1], vec![7, 9]); // current probe's payloads appended
    }

    #[test]
    fn compact_all_misses_empties_everything() {
        let mut sel = vec![1, 2];
        let mut pays: Vec<Vec<u64>> = vec![];
        let mut out = vec![MISS, MISS];
        assert_eq!(compact_hits(&mut sel, &mut pays, &mut out), 0);
        assert!(sel.is_empty());
        assert_eq!(pays.len(), 1);
        assert!(pays[0].is_empty());
    }
}
