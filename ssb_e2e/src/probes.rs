//! Direct probes of single layers, timed from outside: the tuned kernels
//! (`hef_kernels::run_on`) against their scalar and SIMD baselines over
//! the workload's own columns, the port-model prediction for the tuned
//! node, and `PageCache::page` on a private cache.

use std::hint::black_box;
use std::time::Instant;

use hef_core::tuner::predicted_cycles_per_row;
use hef_engine::{lower, optimize, ExecConfig, Flavor, PagedTable};
use hef_kernels::{run_on, Family, HybridConfig, KernelIo};
use hef_ssb::{catalog, logical_plan, QueryId, SsbData};
use hef_storage::{Page, PageCache};
use hef_testutil::read_cycles;
use hef_uarch::CpuModel;

use crate::stats::median;

/// Kernel families the probes time, with their metric names.
pub const KERNELS: [(&str, Family); 5] = [
    ("filter", Family::Filter),
    ("probe", Family::Probe),
    ("gather", Family::Gather),
    ("agg", Family::AggSum),
    ("decode", Family::Decode),
];

/// Flavors each kernel is timed in, with their metric-name suffixes.
pub const FLAVORS: [(&str, Flavor); 3] = [
    ("tuned", Flavor::Hybrid),
    ("scalar", Flavor::Scalar),
    ("simd", Flavor::Simd),
];

/// Rows each kernel probe runs over (capped by the table size).
const PROBE_ROWS: usize = 1 << 20;
/// Timed repetitions per kernel and flavor; the median is reported.
const REPS: usize = 5;

/// One kernel family's probe result.
#[derive(Debug, Clone)]
pub struct KernelProbe {
    pub name: &'static str,
    /// Nanoseconds per row, in [`FLAVORS`] order.
    pub ns_per_row: [f64; 3],
    /// Measured reference cycles per row of the tuned node divided by the
    /// port model's prediction for it on `CpuModel::host()`.
    pub drift: f64,
}

fn node(cfg: &ExecConfig, family: Family) -> HybridConfig {
    match family {
        Family::Filter => cfg.filter,
        Family::Probe => cfg.probe,
        Family::Gather => cfg.gather,
        Family::AggSum => cfg.agg,
        Family::Decode => cfg.decode,
        other => unreachable!("no probe for {other:?}"),
    }
}

/// Median (ns per row, reference cycles per row) of `REPS` timed calls of
/// `body`, after one untimed warm-up call.
fn time_per_row(rows: usize, mut body: impl FnMut()) -> (f64, f64) {
    body();
    let mut ns = Vec::with_capacity(REPS);
    let mut cycles = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let c0 = read_cycles();
        let t0 = Instant::now();
        body();
        let elapsed = t0.elapsed().as_nanos() as f64;
        let c = read_cycles()
            .zip(c0)
            .map_or(0, |(c1, c0)| c1.wrapping_sub(c0));
        ns.push(elapsed / rows as f64);
        cycles.push(c as f64 / rows as f64);
    }
    (
        median(&ns).expect("REPS > 0"),
        median(&cycles).expect("REPS > 0"),
    )
}

fn must_run(family: Family, cfg: &ExecConfig, io: &mut KernelIo<'_>) {
    let n = node(cfg, family);
    assert!(
        run_on(family, n, cfg.backend, io),
        "{} node {n} not compiled",
        family.name()
    );
}

/// The inputs the kernel probes run over, cut from the workload's tables.
struct Inputs<'a> {
    quantity: &'a [u64],
    revenue: &'a [u64],
    partkey: &'a [u64],
    /// Rows of `quantity` in `1..=24` (the Q1.1 predicate).
    sel: Vec<u64>,
    part: hef_engine::DimJoin,
    pages: Vec<Page>,
}

impl<'a> Inputs<'a> {
    fn new(data: &'a SsbData, rows_per_page: usize) -> Result<Inputs<'a>, String> {
        let lo = &data.lineorder;
        let n = lo.len().min(PROBE_ROWS);
        let quantity = &lo.col("lo_quantity")[..n];
        let sel = (0..n as u64)
            .filter(|&r| (1..=24).contains(&quantity[r as usize]))
            .collect();
        // The part dimension of Q2.1, as the planner builds it.
        let cat = catalog(data);
        let plan = optimize(&logical_plan(QueryId::Q2_1), &cat)
            .and_then(|(p, _)| lower(&p, &cat))
            .map_err(|e| format!("planning Q2.1 for the probe table: {e}"))?;
        let part = plan
            .dims
            .into_iter()
            .find(|d| d.fk_col == "lo_partkey")
            .ok_or("Q2.1 has no lo_partkey join")?;
        // Pages as the paged writer cuts them: a dictionary-friendly and a
        // frame-of-reference-friendly column.
        let pages = ["lo_orderdate", "lo_partkey"]
            .iter()
            .flat_map(|c| lo.col(c)[..n].chunks(rows_per_page).map(Page::encode))
            .collect();
        Ok(Inputs {
            quantity,
            revenue: &lo.col("lo_revenue")[..n],
            partkey: &lo.col("lo_partkey")[..n],
            sel,
            part,
            pages,
        })
    }

    /// Run `family` once over the inputs with `cfg`; returns a checksum of
    /// its output so flavors can be compared.
    fn run(&self, family: Family, cfg: &ExecConfig, scratch: &mut Vec<u64>) -> u64 {
        let batch = cfg.batch.max(1);
        let mut sum = 0u64;
        match family {
            Family::Filter => {
                for (i, chunk) in self.quantity.chunks(batch).enumerate() {
                    scratch.clear();
                    let base = (i * batch) as u64;
                    must_run(
                        family,
                        cfg,
                        &mut KernelIo::Filter {
                            input: chunk,
                            lo: 1,
                            hi: 24,
                            base,
                            sel: scratch,
                        },
                    );
                    sum = sum.wrapping_add(scratch.iter().sum::<u64>());
                }
            }
            Family::Probe => {
                scratch.resize(self.partkey.len(), 0);
                for (keys, out) in self.partkey.chunks(batch).zip(scratch.chunks_mut(batch)) {
                    let table = &self.part.table;
                    let prefetch = cfg.probe_prefetch;
                    must_run(
                        family,
                        cfg,
                        &mut KernelIo::Probe {
                            keys,
                            table,
                            out,
                            prefetch,
                        },
                    );
                }
                sum = scratch.iter().fold(0, |a, &b| a.wrapping_add(b));
            }
            Family::Gather => {
                scratch.resize(self.sel.len(), 0);
                for (idx, out) in self.sel.chunks(batch).zip(scratch.chunks_mut(batch)) {
                    let src = self.revenue;
                    must_run(
                        family,
                        cfg,
                        &mut KernelIo::Gather {
                            src,
                            idx,
                            out,
                            prefetch: 0,
                        },
                    );
                }
                sum = scratch.iter().fold(0, |a, &b| a.wrapping_add(b));
            }
            Family::AggSum => {
                for a in self.revenue.chunks(batch) {
                    must_run(family, cfg, &mut KernelIo::AggSum { a, acc: &mut sum });
                }
            }
            Family::Decode => {
                for page in &self.pages {
                    scratch.clear();
                    scratch.resize(page.rows(), 0);
                    let mut io = KernelIo::Decode {
                        words: page.words(),
                        width: page.width(),
                        reference: page.reference(),
                        dict: page.dict_padded(),
                        start: 0,
                        out: scratch,
                    };
                    must_run(family, cfg, &mut io);
                    sum = scratch.iter().fold(sum, |a, &b| a.wrapping_add(b));
                }
            }
            other => unreachable!("no probe for {other:?}"),
        }
        black_box(sum)
    }

    fn rows(&self, family: Family) -> usize {
        match family {
            Family::Gather => self.sel.len(),
            Family::Decode => self.pages.iter().map(Page::rows).sum(),
            _ => self.quantity.len(),
        }
    }
}

/// Time every kernel family in every flavor. `Err` when a flavor's output
/// differs from the scalar flavor's.
pub fn kernel_probes(data: &SsbData, rows_per_page: usize) -> Result<Vec<KernelProbe>, String> {
    let inputs = Inputs::new(data, rows_per_page)?;
    let cfgs = FLAVORS.map(|(_, f)| hef_bench::config::exec_config(f));
    let host = CpuModel::host();
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    for (name, family) in KERNELS {
        let rows = inputs.rows(family).max(1);
        let expected = inputs.run(family, &cfgs[1], &mut scratch);
        let mut ns_per_row = [0.0; 3];
        let mut tuned_cycles = 0.0;
        for (i, cfg) in cfgs.iter().enumerate() {
            if inputs.run(family, cfg, &mut scratch) != expected {
                return Err(format!(
                    "{name} kernel: {} output differs from scalar",
                    FLAVORS[i].0
                ));
            }
            let (ns, cycles) = time_per_row(rows, || {
                inputs.run(family, cfg, &mut scratch);
            });
            ns_per_row[i] = ns;
            if i == 0 {
                tuned_cycles = cycles;
            }
        }
        let predicted = predicted_cycles_per_row(family, node(&cfgs[0], family), &host);
        let drift = if predicted > 0.0 {
            tuned_cycles / predicted
        } else {
            0.0
        };
        out.push(KernelProbe {
            name,
            ns_per_row,
            drift,
        });
    }
    Ok(out)
}

/// Median microseconds of `PageCache::page` on a private cache of
/// `capacity` bytes: first on a cold cache (every fetch misses), then on
/// the warm cache (every fetch hits). Fetches the `lo_orderdate` pages,
/// whose compressed size is well under the capacity of either workload.
pub fn page_fetch_us(table: &PagedTable, capacity: usize) -> Result<(f64, f64), String> {
    let col = table
        .column("lo_orderdate")
        .ok_or("paged table has no lo_orderdate")?;
    let cache = PageCache::new(capacity);
    let pass = || -> Result<Vec<f64>, String> {
        (0..col.page_count())
            .map(|i| {
                let t0 = Instant::now();
                black_box(cache.page(col, i).map_err(|e| format!("page {i}: {e}"))?);
                Ok(t0.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    };
    let miss = pass()?;
    let hit = pass()?;
    Ok((median(&miss).unwrap_or(0.0), median(&hit).unwrap_or(0.0)))
}
