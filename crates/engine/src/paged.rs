//! Out-of-core star execution over paged compressed columns.
//!
//! A paged fact table is a [`MorselSource::Paged`] for the one executor
//! ([`crate::run`]): the scheduler hands out page indices as morsels, and
//! the same pipeline worker as for resident tables runs each page as one
//! batch. This module supplies only what is paged-specific: the
//! [`PagedTable`] itself, and the worker's column supplier, which pulls each
//! needed column's page through the bounded shared [`PageCache`] and decodes
//! it with the tuned `Decode` kernel family — with one fusion step: the
//! *first* filter is evaluated in compressed space whenever the page's
//! encoding allows it.
//!
//! * **Dictionary pages** — the dictionary is sorted, so a value-range
//!   predicate maps to a code-range predicate by two binary searches; the
//!   filter kernel then runs over the unpacked *codes* and the dictionary
//!   gather is skipped entirely for the scan column (counted in
//!   `kernel.decode_code_filtered`).
//! * **Frame-of-reference pages** — the predicate shifts by the page
//!   reference and runs over the raw offsets, skipping the reference add.
//! * Pages whose value domain could straddle the signed/unsigned boundary
//!   fall back to decode-then-filter; the fused paths engage only when
//!   order is preserved, so results stay bit-identical to the in-memory
//!   source.
//!
//! Memory governance: admission charges the page cache's capacity and the
//! workers' page-sized decode buffers (see
//! [`estimate_query_bytes`](crate::govern::estimate_query_bytes)), so paged
//! scans are admitted against the same budget as in-memory scratch.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use hef_kernels::{run_on, Family, KernelIo};
use hef_storage::cache::PageCache;
use hef_storage::page::{Enc, Page, PagedColumn};
use hef_storage::ColumnFileError;

use crate::govern::QueryCtx;
use crate::parallel::{ExecError, Halt, MorselSource};
use crate::star::{filter, ExecConfig, QueryOutput, RangeFilter, StarPlan};

// ---------------------------------------------------------------------------
// Paged fact table.
// ---------------------------------------------------------------------------

/// Problems opening a paged table directory.
#[derive(Debug)]
pub enum PagedTableError {
    Io(std::io::Error),
    /// One column file failed to open.
    Column { file: String, err: ColumnFileError },
    /// The columns disagree on row count or page geometry.
    Inconsistent(String),
}

impl std::fmt::Display for PagedTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagedTableError::Io(e) => write!(f, "io error: {e}"),
            PagedTableError::Column { file, err } => write!(f, "column file `{file}`: {err}"),
            PagedTableError::Inconsistent(msg) => write!(f, "inconsistent paged table: {msg}"),
        }
    }
}

impl std::error::Error for PagedTableError {}

impl From<std::io::Error> for PagedTableError {
    fn from(e: std::io::Error) -> Self {
        PagedTableError::Io(e)
    }
}

/// A fact table whose columns live in paged `.hefc` v2 files on disk; only
/// directories and per-page payloads on demand are ever resident.
#[derive(Debug)]
pub struct PagedTable {
    name: String,
    dir: PathBuf,
    cols: Vec<PagedColumn>,
    by_name: HashMap<String, usize>,
    rows: u64,
    page_count: usize,
}

impl PagedTable {
    /// Open every `.hefc` file in `dir` as one table. All columns must
    /// agree on row count and page geometry (the paged writer guarantees
    /// this for generated datasets).
    pub fn open_dir(dir: &Path, name: &str) -> Result<PagedTable, PagedTableError> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "hefc"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(PagedTableError::Inconsistent(format!(
                "no .hefc files in {}",
                dir.display()
            )));
        }
        let mut cols = Vec::with_capacity(files.len());
        let mut by_name = HashMap::new();
        for f in &files {
            let col = PagedColumn::open(f).map_err(|err| PagedTableError::Column {
                file: f.display().to_string(),
                err,
            })?;
            by_name.insert(col.name().to_string(), cols.len());
            cols.push(col);
        }
        let rows = cols[0].rows();
        let page_count = cols[0].page_count();
        for c in &cols[1..] {
            if c.rows() != rows || c.page_count() != page_count {
                return Err(PagedTableError::Inconsistent(format!(
                    "column `{}` has {} rows / {} pages; `{}` has {} / {}",
                    c.name(),
                    c.rows(),
                    c.page_count(),
                    cols[0].name(),
                    rows,
                    page_count
                )));
            }
            for (a, b) in cols[0].pages().iter().zip(c.pages()) {
                if a.rows != b.rows {
                    return Err(PagedTableError::Inconsistent(format!(
                        "column `{}` page geometry diverges from `{}`",
                        c.name(),
                        cols[0].name()
                    )));
                }
            }
        }
        Ok(PagedTable { name: name.to_string(), dir: dir.to_path_buf(), cols, by_name, rows, page_count })
    }

    pub fn name(&self) -> &str {
        &self.name
    }
    pub fn dir(&self) -> &Path {
        &self.dir
    }
    pub fn rows(&self) -> u64 {
        self.rows
    }
    pub fn page_count(&self) -> usize {
        self.page_count
    }
    /// Rows in page `idx` (0 past the last page).
    pub fn page_rows(&self, idx: usize) -> usize {
        self.cols[0].pages().get(idx).map_or(0, |p| p.rows as usize)
    }
    /// The page geometry: rows in a full page.
    pub fn rows_per_page(&self) -> usize {
        self.cols[0].rows_per_page() as usize
    }
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.cols.iter().map(|c| c.name())
    }
    pub fn column(&self, name: &str) -> Option<&PagedColumn> {
        self.by_name.get(name).map(|&i| &self.cols[i])
    }
    /// Bytes the table would occupy fully decoded in memory (the number the
    /// `HEF_PAGE_CACHE` gate is compared against).
    pub fn raw_bytes(&self) -> u64 {
        self.rows * 8 * self.cols.len() as u64
    }
    /// Fully decode into an in-memory [`Table`](hef_storage::Table)
    /// (differential tests; defeats the purpose otherwise).
    pub fn to_table(&self) -> Result<hef_storage::Table, PagedTableError> {
        let mut t = hef_storage::Table::new(self.name.clone());
        for c in &self.cols {
            let col = c.to_column().map_err(|err| PagedTableError::Column {
                file: c.name().to_string(),
                err,
            })?;
            t.add_column(col);
        }
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// Fused first-filter planning.
// ---------------------------------------------------------------------------

/// How the first filter runs against one page.
enum FusedFilter {
    /// No row of this page can pass (decided from the page header alone —
    /// zero rows decoded).
    Empty,
    /// Run the filter over raw codes with mapped bounds; the value
    /// reconstruction (reference add / dictionary gather) is skipped.
    Codes { lo: u64, hi: u64 },
    /// Mixed-sign domain: decode values, filter normally.
    Values,
}

const SIGN_BIT: u64 = 1 << 63;

/// Map a signed value-range predicate into this page's code space, when the
/// page's value domain is sign-homogeneous (all values non-negative as
/// `i64`), so unsigned code order equals signed value order.
fn fuse_filter(page: &Page, lo: u64, hi: u64) -> FusedFilter {
    let (l, h) = (lo as i64 as i128, hi as i64 as i128);
    if l > h {
        return FusedFilter::Empty;
    }
    match page.enc() {
        Enc::For => {
            let reference = page.reference();
            let mask = if page.width() >= 64 { u64::MAX } else { (1u64 << page.width()) - 1 };
            // Conservative value ceiling: reference + largest representable
            // code. Fuse only when the whole code domain maps below the
            // sign bit, so unsigned code order equals signed value order.
            if reference >= SIGN_BIT || mask >= SIGN_BIT - reference {
                return FusedFilter::Values;
            }
            let (rmin, rmax) = (reference as i128, (reference + mask) as i128);
            let lo_v = l.max(rmin);
            let hi_v = h.min(rmax);
            if lo_v > hi_v {
                return FusedFilter::Empty;
            }
            FusedFilter::Codes { lo: (lo_v - rmin) as u64, hi: (hi_v - rmin) as u64 }
        }
        Enc::Dict => {
            let dict = page.dict_entries();
            match dict.last() {
                Some(&max) if max < SIGN_BIT => {}
                _ => return FusedFilter::Values,
            }
            let lo_code = dict.partition_point(|&v| (v as i128) < l);
            let hi_code = dict.partition_point(|&v| (v as i128) <= h);
            if lo_code >= hi_code {
                return FusedFilter::Empty;
            }
            FusedFilter::Codes { lo: lo_code as u64, hi: hi_code as u64 - 1 }
        }
    }
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

/// [`crate::run`] over a paged fact table with an explicit cache and
/// governance context (cancellation + deadline checked at every page
/// boundary; the config's deadline, when set, further bounds `ctx`'s).
pub fn try_execute_star_paged_ctx(
    plan: &StarPlan,
    fact: &PagedTable,
    cfg: &ExecConfig,
    cache: &PageCache,
    ctx: &QueryCtx,
) -> Result<QueryOutput, ExecError> {
    let source = MorselSource::Paged { table: fact, cache };
    crate::parallel::run_ctx(plan, source, cfg, ctx, crate::resolve::pipeline_registry())
        .map(|(out, _)| out)
}

/// The paged column supplier of one pipeline worker: the current page of
/// each plan column, fetched through the cache and decoded on first use, so
/// a page whose filter kills every row never decodes its joins or measures.
pub(crate) struct PageCols<'a> {
    cache: &'a PageCache,
    cols: &'a [&'a PagedColumn],
    page: usize,
    /// Per-column decoded page buffer + which page it currently holds.
    decoded: Vec<Vec<u64>>,
    decoded_page: Vec<usize>,
    /// Scratch for code-space filtering (raw codes, no reconstruction).
    codes: Vec<u64>,
}

impl<'a> PageCols<'a> {
    pub(crate) fn new(cache: &'a PageCache, cols: &'a [&'a PagedColumn]) -> Self {
        PageCols {
            cache,
            cols,
            page: 0,
            decoded: vec![Vec::new(); cols.len()],
            decoded_page: vec![usize::MAX; cols.len()],
            codes: Vec::new(),
        }
    }

    pub(crate) fn select(&mut self, page: usize) {
        self.page = page;
    }

    fn fetch(&self, slot: usize) -> Result<std::sync::Arc<Page>, Halt> {
        self.cache
            .page(self.cols[slot], self.page)
            .map_err(|e| Halt::Read(format!("paged read failed: {e}")))
    }

    /// Column `slot`'s values for the current page.
    pub(crate) fn col(&mut self, slot: usize, cfg: &ExecConfig) -> Result<&[u64], Halt> {
        if self.decoded_page[slot] != self.page {
            let page = self.fetch(slot)?;
            decode_page(&page, cfg, None, &mut self.decoded[slot]);
            self.decoded_page[slot] = self.page;
        }
        Ok(&self.decoded[slot])
    }

    /// The first filter, fused with decode where the page's encoding allows.
    pub(crate) fn first_filter(
        &mut self,
        slot: usize,
        f: &RangeFilter,
        cfg: &ExecConfig,
        sel: &mut Vec<u64>,
    ) -> Result<(), Halt> {
        let page = self.fetch(slot)?;
        match fuse_filter(&page, f.lo, f.hi) {
            FusedFilter::Values => {
                filter(self.col(slot, cfg)?, f.lo, f.hi, sel, cfg);
                return Ok(());
            }
            FusedFilter::Empty => {}
            FusedFilter::Codes { lo, hi } => {
                decode_page(&page, cfg, Some(DecodeRaw), &mut self.codes);
                filter(&self.codes, lo, hi, sel, cfg);
            }
        }
        if hef_obs::metrics::enabled() {
            hef_obs::metrics::add(hef_obs::metrics::Metric::DecodeCodeFiltered, page.rows() as u64);
        }
        Ok(())
    }
}

/// Marker for [`decode_page`]: emit raw codes (no reference add, no
/// dictionary gather).
struct DecodeRaw;

/// Decode one page through the tuned `Decode` kernel. With `raw` set, the
/// codes come out unreconstructed — the code-space filter path.
fn decode_page(page: &Page, cfg: &ExecConfig, raw: Option<DecodeRaw>, out: &mut Vec<u64>) {
    let rows = page.rows();
    out.clear();
    out.resize(rows, 0);
    let _dspan = hef_obs::span_fine!("decode", rows = rows as i64, width = page.width() as i64);
    let (reference, dict) = if raw.is_some() {
        (0u64, None)
    } else {
        (page.reference(), page.dict_padded())
    };
    let mut io = KernelIo::Decode {
        words: page.words(),
        width: page.width(),
        reference,
        dict,
        start: 0,
        out,
    };
    assert!(
        run_on(Family::Decode, cfg.decode, cfg.backend, &mut io),
        "decode node {} not compiled",
        cfg.decode
    );
    if hef_obs::metrics::enabled() {
        use hef_obs::metrics::{add, Metric};
        add(Metric::PagesDecoded, 1);
        add(Metric::DecodeRows, rows as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::{build_dimension, execute_star, Flavor, Measure};
    use hef_storage::page::PagedColumnWriter;
    use hef_storage::{Column, Table};

    fn write_paged(dir: &Path, name: &str, vals: &[u64], rows_per_page: u32) {
        let mut w = PagedColumnWriter::create(&dir.join(format!("{name}.hefc")), name, rows_per_page)
            .unwrap();
        w.push_all(vals).unwrap();
        w.finish().unwrap();
    }

    /// A star over a paged fact table plus the identical in-memory table.
    fn toy_paged(dir: &Path) -> (PagedTable, Table, StarPlan) {
        std::fs::create_dir_all(dir).unwrap();
        let n = 20_000u64;
        let fk1: Vec<u64> = (0..n).map(|i| i % 100).collect();
        let fk2: Vec<u64> = (0..n).map(|i| (i * 13) % 50).collect();
        let rev: Vec<u64> = (0..n).map(|i| i % 7 + 1).collect();
        let disc: Vec<u64> = (0..n).map(|i| i % 11).collect();
        write_paged(dir, "fk1", &fk1, 1024);
        write_paged(dir, "fk2", &fk2, 1024);
        write_paged(dir, "rev", &rev, 1024);
        write_paged(dir, "disc", &disc, 1024);

        let mut mem = Table::new("fact");
        mem.add_column(Column::new("fk1", fk1));
        mem.add_column(Column::new("fk2", fk2));
        mem.add_column(Column::new("rev", rev));
        mem.add_column(Column::new("disc", disc));

        let mut dim1 = Table::new("dim1");
        dim1.add_column(Column::new("key", (0..100).collect()));
        dim1.add_column(Column::new("grp", (0..100).map(|k| k % 4).collect()));
        let d1 = build_dimension(
            &dim1,
            "key",
            |r| dim1.col("key")[r] < 40,
            |r| dim1.col("grp")[r],
            4,
            "fk1",
        );
        let mut dim2 = Table::new("dim2");
        dim2.add_column(Column::new("key", (0..50).collect()));
        let d2 = build_dimension(
            &dim2,
            "key",
            |r| dim2.col("key")[r].is_multiple_of(5),
            |_| 0,
            1,
            "fk2",
        );
        let plan = StarPlan {
            name: "toy_paged".into(),
            filters: vec![RangeFilter { col: "disc".into(), lo: 2, hi: 8 }],
            dims: vec![d1, d2],
            measure: Measure::Sum("rev".into()),
            strides: vec![],
        };
        let paged = PagedTable::open_dir(dir, "fact").unwrap();
        (paged, mem, plan)
    }

    #[test]
    fn paged_matches_in_memory_every_flavor_and_thread_count() {
        let dir = std::env::temp_dir().join("hef-paged-exec-test");
        let (paged, mem, plan) = toy_paged(&dir);
        let cache = PageCache::new(1 << 20);
        for flavor in [Flavor::Scalar, Flavor::Simd, Flavor::Hybrid] {
            let base = ExecConfig::for_flavor(flavor).with_threads(1);
            let expect = execute_star(&plan, &mem, &base);
            for threads in [1usize, 2, 4, 8] {
                let cfg = ExecConfig::for_flavor(flavor).with_threads(threads);
                let got = try_execute_star_paged_ctx(
                    &plan,
                    &paged,
                    &cfg,
                    &cache,
                    &QueryCtx::unbounded(),
                )
                .unwrap();
                assert_eq!(
                    got.groups,
                    expect.groups,
                    "{} threads={threads}",
                    flavor.name()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_cache_still_bit_identical() {
        let dir = std::env::temp_dir().join("hef-paged-tinycache-test");
        let (paged, mem, plan) = toy_paged(&dir);
        let expect = execute_star(&plan, &mem, &ExecConfig::scalar().with_threads(1));
        // A cache holding ~2 pages forces constant eviction.
        let cache = PageCache::with_shards(40 * 1024, 1);
        let got = try_execute_star_paged_ctx(
            &plan,
            &paged,
            &ExecConfig::scalar().with_threads(4),
            &cache,
            &QueryCtx::unbounded(),
        )
        .unwrap();
        assert_eq!(got.groups, expect.groups);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fused_filter_bounds_are_exact() {
        // Dict page: low-cardinality values.
        let vals: Vec<u64> = (0..2000u64).map(|i| (i % 10) * 3).collect();
        let page = Page::encode(&vals);
        assert_eq!(page.enc(), Enc::Dict);
        for (lo, hi) in [(0u64, 5u64), (3, 3), (4, 5), (27, 100), (100, 200)] {
            let expect: Vec<u64> = (0..vals.len())
                .filter(|&r| (lo as i64) <= (vals[r] as i64) && (vals[r] as i64) <= (hi as i64))
                .map(|r| r as u64)
                .collect();
            let got = match fuse_filter(&page, lo, hi) {
                FusedFilter::Empty => Vec::new(),
                FusedFilter::Codes { lo: cl, hi: ch } => (0..vals.len())
                    .filter(|&r| {
                        let c = page.code_at(r);
                        cl <= c && c <= ch
                    })
                    .map(|r| r as u64)
                    .collect(),
                FusedFilter::Values => panic!("dict page must fuse"),
            };
            assert_eq!(got, expect, "lo={lo} hi={hi}");
        }

        // FOR page: wide-range values.
        let vals: Vec<u64> = (0..2000u64).map(|i| 1_000_000 + i * 17).collect();
        let page = Page::encode(&vals);
        assert_eq!(page.enc(), Enc::For);
        for (lo, hi) in [(1_000_000u64, 1_000_100u64), (0, 999_999), (1_016_990, u64::MAX >> 1)] {
            let expect: Vec<u64> = (0..vals.len())
                .filter(|&r| (lo as i64) <= (vals[r] as i64) && (vals[r] as i64) <= (hi as i64))
                .map(|r| r as u64)
                .collect();
            let got = match fuse_filter(&page, lo, hi) {
                FusedFilter::Empty => Vec::new(),
                FusedFilter::Codes { lo: cl, hi: ch } => (0..vals.len())
                    .filter(|&r| {
                        let c = page.code_at(r);
                        cl <= c && c <= ch
                    })
                    .map(|r| r as u64)
                    .collect(),
                FusedFilter::Values => panic!("FOR page must fuse"),
            };
            assert_eq!(got, expect, "lo={lo} hi={hi}");
        }

        // Mixed-sign page falls back to value decode.
        let vals: Vec<u64> = vec![5, u64::MAX - 3, 7, u64::MAX - 1];
        let page = Page::encode(&vals);
        assert!(matches!(fuse_filter(&page, 0, 10), FusedFilter::Values));
    }
}
