//! Deterministic, seed-driven fault injection.
//!
//! HEF's value proposition is tune-once/deploy-everywhere: the offline
//! registry and the parallel executor must survive stale files, noisy
//! measurements, and worker failures without changing query results. This
//! module is the harness that *proves* it: a [`FaultPlan`] describes a set
//! of injection points — registry byte corruption, cost-measurement spikes,
//! worker panics on chosen morsels — and the production code paths consult
//! the active plan at cheap, well-defined hooks. With no plan installed
//! every hook is a single relaxed atomic load.
//!
//! Plans come from two places:
//!
//! * programmatically, via [`with_plan`] (tests) — serialized process-wide
//!   so concurrent `cargo test` threads never see each other's faults;
//! * the `HEF_FAULT` environment variable (CI / the differential suite),
//!   parsed once at first use. The spec is a `;`-separated list of clauses:
//!
//! ```text
//! HEF_FAULT="panic:morsel=2,times=1;spike:trial=5,factor=8;registry:flips=4,seed=9"
//! ```
//!
//! | clause     | keys                                   | effect |
//! |------------|----------------------------------------|--------|
//! | `panic`    | `morsel=N` (req), `worker=N`, `times=N` (default 1), `after` | a parallel worker panics when claiming (or, with `after`, after finishing) morsel `N` |
//! | `spike`    | `trial=N` (req), `factor=F` (default 8)| the `N`-th cost measurement is multiplied by `F` |
//! | `registry` | `flips=N` (req), `seed=S` (default 1)  | `N` seeded byte flips applied to registry text at load |
//! | `torn`     | `bytes=N` (req), `seed=S` (default 1), `file=SUBSTR` | the last `N` bytes of matching file reads are overwritten with seeded garbage (a torn write) |
//! | `short`    | `bytes=N` (req), `file=SUBSTR`         | matching file reads are truncated by `N` bytes (a short read / truncated file) |
//! | `slow_morsel` | `morsel=N` (req), `ms=M` (default 50), `worker=N`, `times=N` (default 1) | a worker stalls `M` ms when claiming morsel `N` (the engine sleeps in slices, so deadlines fire mid-morsel) |
//! | `mem_spike` | `bytes=N` (req), `times=N` (default 1) | the governor's admission estimate is inflated by `N` bytes, driving the degradation ladder |
//!
//! The `torn`/`short` clauses act at the [`read_file`] hook, which storage
//! and registry loading route through; `file=SUBSTR` restricts a clause to
//! paths containing the substring.
//!
//! Malformed clauses are reported once through the [`hef_obs::diag`] sink
//! and ignored — the harness itself degrades gracefully rather than
//! panicking inside the code it is supposed to be testing. Every fired
//! injection bumps `hef_obs::metrics::Metric::FaultsInjected`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::rng::SplitMix64;

/// Panic a parallel worker at a chosen morsel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Restrict to one worker index (`None` = whichever worker claims it).
    pub worker: Option<usize>,
    /// Morsel index (fact-table offset / morsel size) that triggers.
    pub morsel: usize,
    /// Maximum number of firings (a retried morsel re-arms until exhausted).
    pub times: u32,
    /// Fire *after* the morsel was processed, so the worker's accumulated
    /// state is poisoned mid-flight (the hard recovery case).
    pub after: bool,
}

/// Multiply one cost measurement by a factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSpike {
    /// 0-based index of the `CostEvaluator::cost` call to spike.
    pub trial: usize,
    /// Multiplier (use `> 1` for outliers, `< 1` for too-good-to-be-true).
    pub factor: f64,
}

/// Corrupt registry bytes at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryCorruption {
    /// Number of byte positions to overwrite.
    pub flips: usize,
    /// PRNG seed choosing positions and replacement bytes.
    pub seed: u64,
}

/// Overwrite the tail of a file read with seeded garbage — models a torn
/// write: the length is right but the last page(s) never hit the platter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornFile {
    /// Number of trailing bytes to garble.
    pub bytes: usize,
    /// PRNG seed for the replacement bytes.
    pub seed: u64,
    /// Only tear paths containing this substring (`None` = all reads).
    pub file: Option<String>,
}

/// Truncate a file read — models a short read / a file cut off mid-write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortRead {
    /// Number of trailing bytes to drop.
    pub bytes: usize,
    /// Only truncate paths containing this substring (`None` = all reads).
    pub file: Option<String>,
}

/// Stall a parallel worker on a chosen morsel — models a slow disk, a
/// contended lock, or a straggler NUMA node. The engine performs the sleep
/// itself (in small slices, checking the query's cancellation/deadline
/// context between slices) so governance can interrupt a stalled morsel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowMorsel {
    /// Restrict to one worker index (`None` = whichever worker claims it).
    pub worker: Option<usize>,
    /// Morsel index (fact-table offset / morsel size) that triggers.
    pub morsel: usize,
    /// Stall duration in milliseconds.
    pub ms: u64,
    /// Maximum number of firings.
    pub times: u32,
}

/// Inflate the governor's admission-time memory estimate — models a query
/// whose scratch requirements blow past the prediction, forcing the
/// degradation ladder (shrink batches → shed workers → reject).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSpike {
    /// Extra bytes added to the admission estimate.
    pub bytes: u64,
    /// Maximum number of firings.
    pub times: u32,
}

/// A complete fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub worker_panics: Vec<WorkerPanic>,
    pub cost_spikes: Vec<CostSpike>,
    pub registry: Option<RegistryCorruption>,
    pub torn: Vec<TornFile>,
    pub short: Vec<ShortRead>,
    pub slow_morsels: Vec<SlowMorsel>,
    pub mem_spikes: Vec<MemSpike>,
}

impl FaultPlan {
    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.worker_panics.is_empty()
            && self.cost_spikes.is_empty()
            && self.registry.is_none()
            && self.torn.is_empty()
            && self.short.is_empty()
            && self.slow_morsels.is_empty()
            && self.mem_spikes.is_empty()
    }

    /// Parse a `HEF_FAULT` spec. Malformed clauses are returned as warnings
    /// alongside whatever parsed cleanly.
    pub fn parse(spec: &str) -> (FaultPlan, Vec<String>) {
        let mut plan = FaultPlan::default();
        let mut warnings = Vec::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            match parse_clause(clause, &mut plan) {
                Ok(()) => {}
                Err(msg) => warnings.push(format!("HEF_FAULT clause `{clause}`: {msg}")),
            }
        }
        (plan, warnings)
    }
}

fn parse_kv(body: &str) -> Result<Vec<(&str, Option<&str>)>, String> {
    body.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => Ok((k.trim(), Some(v.trim()))),
            None => Ok((pair, None)),
        })
        .collect()
}

fn num<T: std::str::FromStr>(key: &str, v: Option<&str>) -> Result<T, String> {
    v.ok_or_else(|| format!("`{key}` needs a value"))?
        .parse()
        .map_err(|_| format!("`{key}` is not a number"))
}

fn parse_clause(clause: &str, plan: &mut FaultPlan) -> Result<(), String> {
    let (kind, body) = clause.split_once(':').unwrap_or((clause, ""));
    match kind.trim() {
        "panic" => {
            let mut f = WorkerPanic { worker: None, morsel: 0, times: 1, after: false };
            let mut saw_morsel = false;
            for (k, v) in parse_kv(body)? {
                match k {
                    "worker" => f.worker = Some(num(k, v)?),
                    "morsel" => {
                        f.morsel = num(k, v)?;
                        saw_morsel = true;
                    }
                    "times" => f.times = num(k, v)?,
                    "after" => f.after = true,
                    other => return Err(format!("unknown key `{other}`")),
                }
            }
            if !saw_morsel {
                return Err("missing `morsel=N`".into());
            }
            plan.worker_panics.push(f);
        }
        "spike" => {
            let mut s = CostSpike { trial: 0, factor: 8.0 };
            let mut saw_trial = false;
            for (k, v) in parse_kv(body)? {
                match k {
                    "trial" => {
                        s.trial = num(k, v)?;
                        saw_trial = true;
                    }
                    "factor" => s.factor = num(k, v)?,
                    other => return Err(format!("unknown key `{other}`")),
                }
            }
            if !saw_trial {
                return Err("missing `trial=N`".into());
            }
            plan.cost_spikes.push(s);
        }
        "registry" => {
            let mut r = RegistryCorruption { flips: 0, seed: 1 };
            for (k, v) in parse_kv(body)? {
                match k {
                    "flips" => r.flips = num(k, v)?,
                    "seed" => r.seed = num(k, v)?,
                    other => return Err(format!("unknown key `{other}`")),
                }
            }
            if r.flips == 0 {
                return Err("missing `flips=N`".into());
            }
            plan.registry = Some(r);
        }
        "torn" => {
            let mut t = TornFile { bytes: 0, seed: 1, file: None };
            for (k, v) in parse_kv(body)? {
                match k {
                    "bytes" => t.bytes = num(k, v)?,
                    "seed" => t.seed = num(k, v)?,
                    "file" => {
                        t.file = Some(v.ok_or_else(|| "`file` needs a value".to_string())?.to_string());
                    }
                    other => return Err(format!("unknown key `{other}`")),
                }
            }
            if t.bytes == 0 {
                return Err("missing `bytes=N`".into());
            }
            plan.torn.push(t);
        }
        "short" => {
            let mut s = ShortRead { bytes: 0, file: None };
            for (k, v) in parse_kv(body)? {
                match k {
                    "bytes" => s.bytes = num(k, v)?,
                    "file" => {
                        s.file = Some(v.ok_or_else(|| "`file` needs a value".to_string())?.to_string());
                    }
                    other => return Err(format!("unknown key `{other}`")),
                }
            }
            if s.bytes == 0 {
                return Err("missing `bytes=N`".into());
            }
            plan.short.push(s);
        }
        "slow_morsel" => {
            let mut sm = SlowMorsel { worker: None, morsel: 0, ms: 50, times: 1 };
            let mut saw_morsel = false;
            for (k, v) in parse_kv(body)? {
                match k {
                    "worker" => sm.worker = Some(num(k, v)?),
                    "morsel" => {
                        sm.morsel = num(k, v)?;
                        saw_morsel = true;
                    }
                    "ms" => sm.ms = num(k, v)?,
                    "times" => sm.times = num(k, v)?,
                    other => return Err(format!("unknown key `{other}`")),
                }
            }
            if !saw_morsel {
                return Err("missing `morsel=N`".into());
            }
            plan.slow_morsels.push(sm);
        }
        "mem_spike" => {
            let mut ms = MemSpike { bytes: 0, times: 1 };
            for (k, v) in parse_kv(body)? {
                match k {
                    "bytes" => ms.bytes = num(k, v)?,
                    "times" => ms.times = num(k, v)?,
                    other => return Err(format!("unknown key `{other}`")),
                }
            }
            if ms.bytes == 0 {
                return Err("missing `bytes=N`".into());
            }
            plan.mem_spikes.push(ms);
        }
        other => return Err(format!("unknown clause kind `{other}`")),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Active-plan state.
// ---------------------------------------------------------------------------

struct ActivePlan {
    plan: FaultPlan,
    /// Remaining firings per `worker_panics` entry.
    panic_left: Vec<u32>,
    /// Global `CostEvaluator::cost` call counter.
    cost_calls: usize,
    /// Remaining firings per `slow_morsels` entry.
    slow_left: Vec<u32>,
    /// Remaining firings per `mem_spikes` entry.
    spike_left: Vec<u32>,
}

impl ActivePlan {
    fn new(plan: FaultPlan) -> ActivePlan {
        let panic_left = plan.worker_panics.iter().map(|p| p.times).collect();
        let slow_left = plan.slow_morsels.iter().map(|s| s.times).collect();
        let spike_left = plan.mem_spikes.iter().map(|s| s.times).collect();
        ActivePlan { plan, panic_left, cost_calls: 0, slow_left, spike_left }
    }
}

/// Fast-path flag: `false` ⇒ every hook returns immediately.
static ARMED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<Option<ActivePlan>> {
    static STATE: OnceLock<Mutex<Option<ActivePlan>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

fn lock_state() -> MutexGuard<'static, Option<ActivePlan>> {
    // A worker panic while the hook holds the lock poisons it; the poison
    // carries no invariant here, so recover the guard.
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// One-time arming from the environment: if no plan was installed
/// programmatically and `HEF_FAULT` is set, parse and install it.
fn arm_from_env() {
    static ENV_ONCE: OnceLock<()> = OnceLock::new();
    ENV_ONCE.get_or_init(|| {
        let Ok(spec) = std::env::var("HEF_FAULT") else { return };
        if spec.trim().is_empty() {
            return;
        }
        let (plan, warnings) = FaultPlan::parse(&spec);
        for w in &warnings {
            hef_obs::diag::warn(format!("{w} (ignored)"));
        }
        if !plan.is_empty() {
            let mut s = lock_state();
            if s.is_none() {
                *s = Some(ActivePlan::new(plan));
                ARMED.store(true, Ordering::Release);
            }
        }
    });
}

/// `true` when any fault plan is active (env or programmatic).
pub fn active() -> bool {
    arm_from_env();
    ARMED.load(Ordering::Acquire)
}

/// Install `plan`, run `f`, then restore the previous plan — holding a
/// process-wide guard so concurrently running tests cannot interleave their
/// fault schedules. Panics from `f` propagate after cleanup.
pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    static GUARD: Mutex<()> = Mutex::new(());
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    {
        let mut s = lock_state();
        *s = Some(ActivePlan::new(plan));
        ARMED.store(true, Ordering::Release);
    }
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            let mut s = lock_state();
            *s = None;
            ARMED.store(false, Ordering::Release);
        }
    }
    let _restore = Restore;
    f()
}

/// Worker-panic hook phase (see [`WorkerPanic::after`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The worker just claimed the morsel, before any row is processed.
    Before,
    /// The worker finished the morsel (its partial state now includes it).
    After,
}

/// Worker index used by the serial executor when consulting panic faults.
pub const SERIAL_WORKER: usize = usize::MAX;

/// Injection hook for parallel workers: panics if the active plan schedules
/// a panic for (`worker`, `morsel`) in this `phase`. No-op without a plan.
pub fn maybe_panic_worker(worker: usize, morsel: usize, phase: Phase) {
    if !active() {
        return;
    }
    let fire = {
        let mut s = lock_state();
        let Some(active) = s.as_mut() else { return };
        let mut fire = false;
        for (i, p) in active.plan.worker_panics.iter().enumerate() {
            let phase_ok = (phase == Phase::After) == p.after;
            let worker_ok = p.worker.is_none_or(|w| w == worker);
            if phase_ok && worker_ok && p.morsel == morsel && active.panic_left[i] > 0 {
                active.panic_left[i] -= 1;
                fire = true;
                break;
            }
        }
        fire
    };
    if fire {
        hef_obs::metrics::add(hef_obs::metrics::Metric::FaultsInjected, 1);
        panic!("hef-fault: injected panic (worker {worker}, morsel {morsel}, {phase:?})");
    }
}

/// Injection hook for the parallel scheduler: returns how long the worker
/// claiming (`worker`, `morsel`) should stall, or `None`. The *caller*
/// performs the sleep (in interruptible slices) — the hook only consumes
/// the schedule entry. No-op without a plan.
pub fn next_slow_morsel(worker: usize, morsel: usize) -> Option<std::time::Duration> {
    if !active() {
        return None;
    }
    let ms = {
        let mut s = lock_state();
        let active = s.as_mut()?;
        let mut hit = None;
        for (i, sm) in active.plan.slow_morsels.iter().enumerate() {
            let worker_ok = sm.worker.is_none_or(|w| w == worker);
            if worker_ok && sm.morsel == morsel && active.slow_left[i] > 0 {
                active.slow_left[i] -= 1;
                hit = Some(sm.ms);
                break;
            }
        }
        hit?
    };
    hef_obs::metrics::add(hef_obs::metrics::Metric::FaultsInjected, 1);
    Some(std::time::Duration::from_millis(ms))
}

/// Injection hook for the query governor: returns extra bytes to add to the
/// admission-time memory estimate, or `None`. Consumed once per admission.
pub fn next_mem_spike() -> Option<u64> {
    if !active() {
        return None;
    }
    let bytes = {
        let mut s = lock_state();
        let active = s.as_mut()?;
        let mut hit = None;
        for (i, sp) in active.plan.mem_spikes.iter().enumerate() {
            if active.spike_left[i] > 0 {
                active.spike_left[i] -= 1;
                hit = Some(sp.bytes);
                break;
            }
        }
        hit?
    };
    hef_obs::metrics::add(hef_obs::metrics::Metric::FaultsInjected, 1);
    Some(bytes)
}

/// Injection hook for cost evaluators: returns the multiplier for this
/// measurement (counted globally in call order), or `None`.
pub fn next_cost_spike() -> Option<f64> {
    if !active() {
        return None;
    }
    let mut s = lock_state();
    let active = s.as_mut()?;
    let trial = active.cost_calls;
    active.cost_calls += 1;
    active
        .plan
        .cost_spikes
        .iter()
        .find(|sp| sp.trial == trial)
        .map(|sp| sp.factor)
}

/// Injection hook for registry loading: returns the corrupted text if the
/// active plan schedules registry corruption, else `None`.
pub fn corrupt_registry(text: &str) -> Option<String> {
    if !active() {
        return None;
    }
    let s = lock_state();
    let c = s.as_ref()?.plan.registry?;
    hef_obs::metrics::add(hef_obs::metrics::Metric::FaultsInjected, 1);
    Some(corrupt_bytes(text, c.seed, c.flips))
}

/// Injection hook for file reads: apply any matching `short`/`torn` clauses
/// to `data` (read from `path`). Returns `true` when a fault fired; callers
/// surface that as an observability event.
///
/// Order matters and mirrors the physical failure: truncation first (the
/// file ends early), then tearing of whatever tail remains.
pub fn mangle_read(path: &str, data: &mut Vec<u8>) -> bool {
    if !active() {
        return false;
    }
    let s = lock_state();
    let Some(active) = s.as_ref() else { return false };
    let matches = |file: &Option<String>| file.as_ref().is_none_or(|f| path.contains(f.as_str()));
    let mut fired = false;
    for sh in active.plan.short.iter().filter(|sh| matches(&sh.file)) {
        let keep = data.len().saturating_sub(sh.bytes);
        data.truncate(keep);
        fired = true;
    }
    for t in active.plan.torn.iter().filter(|t| matches(&t.file)) {
        let start = data.len().saturating_sub(t.bytes);
        let mut rng = SplitMix64::new(t.seed);
        for b in &mut data[start..] {
            *b = (rng.next_u64() & 0xff) as u8;
        }
        if data.len() > start {
            fired = true;
        }
    }
    if fired {
        hef_obs::metrics::add(hef_obs::metrics::Metric::FaultsInjected, 1);
    }
    fired
}

/// Read a file through the fault layer: the bytes `std::fs::read` returns,
/// with any active `torn`/`short` clauses applied. The `bool` reports
/// whether a fault fired. Storage and registry loading use this instead of
/// raw `fs::read` so torn-file recovery is testable end-to-end.
pub fn read_file(path: &std::path::Path) -> std::io::Result<(Vec<u8>, bool)> {
    let mut data = std::fs::read(path)?;
    let fired = mangle_read(&path.to_string_lossy(), &mut data);
    Ok((data, fired))
}

/// `true` when the active plan carries a `torn`/`short` clause matching
/// `path` — i.e. [`read_file`] would mangle a read of it.
fn read_faults_match(path: &str) -> bool {
    if !active() {
        return false;
    }
    let s = lock_state();
    let Some(active) = s.as_ref() else { return false };
    let matches = |file: &Option<String>| file.as_ref().is_none_or(|f| path.contains(f.as_str()));
    active.plan.short.iter().any(|sh| matches(&sh.file))
        || active.plan.torn.iter().any(|t| matches(&t.file))
}

/// Positioned read of `len` bytes at `offset` through the fault layer (may
/// return fewer at end of file). The fast path seeks and reads just the
/// range; when a `torn:`/`short:` clause matches the path, the whole file
/// is read through [`read_file`] and sliced, so a ranged read observes a
/// torn tail or short file *exactly* as a whole-file read would — paged and
/// monolithic loaders salvage bit-identically under the same fault spec.
pub fn read_file_range(
    path: &std::path::Path,
    offset: u64,
    len: usize,
) -> std::io::Result<(Vec<u8>, bool)> {
    if read_faults_match(&path.to_string_lossy()) {
        let (data, fired) = read_file(path)?;
        let start = (offset as usize).min(data.len());
        let end = (start + len).min(data.len());
        return Ok((data[start..end].to_vec(), fired));
    }
    use std::io::{Read, Seek, SeekFrom};
    let mut f = std::fs::File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        let n = f.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    buf.truncate(filled);
    Ok((buf, false))
}

/// Deterministically overwrite `flips` byte positions of `text` with seeded
/// printable ASCII. Output is valid UTF-8 (replacements are ASCII and only
/// ASCII positions are touched), so it can be fed straight back to a parser.
pub fn corrupt_bytes(text: &str, seed: u64, flips: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..flips {
        // Find an ASCII position (multi-byte UTF-8 is left alone so the
        // result stays a str); registry files are ASCII in practice.
        for _attempt in 0..64 {
            let pos = (rng.next_u64() as usize) % bytes.len();
            if bytes[pos].is_ascii() {
                let repl = b'!' + (rng.next_u64() % 94) as u8; // 0x21..=0x7e
                bytes[pos] = repl;
                break;
            }
        }
    }
    String::from_utf8(bytes).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_all_clause_kinds() {
        let (plan, warn) =
            FaultPlan::parse("panic:morsel=2,worker=1,times=3,after;spike:trial=5,factor=0.5;registry:flips=4,seed=9");
        assert!(warn.is_empty(), "{warn:?}");
        assert_eq!(
            plan.worker_panics,
            vec![WorkerPanic { worker: Some(1), morsel: 2, times: 3, after: true }]
        );
        assert_eq!(plan.cost_spikes, vec![CostSpike { trial: 5, factor: 0.5 }]);
        assert_eq!(plan.registry, Some(RegistryCorruption { flips: 4, seed: 9 }));
    }

    #[test]
    fn malformed_clauses_warn_and_are_ignored() {
        let (plan, warn) = FaultPlan::parse("panic:worker=1;bogus:x=1;spike:trial=0");
        assert_eq!(warn.len(), 2, "{warn:?}");
        assert!(plan.worker_panics.is_empty());
        assert_eq!(plan.cost_spikes.len(), 1);
    }

    #[test]
    fn corruption_is_deterministic_and_utf8() {
        let text = "# hef tuned-operator registry v1\nmurmur = 1 3 2\n";
        let a = corrupt_bytes(text, 7, 5);
        let b = corrupt_bytes(text, 7, 5);
        assert_eq!(a, b);
        assert_ne!(a, text);
        assert_eq!(a.len(), text.len());
        assert_ne!(corrupt_bytes(text, 8, 5), a);
        assert_eq!(corrupt_bytes("", 1, 3), "");
    }

    #[test]
    fn with_plan_fires_and_restores() {
        let plan = FaultPlan {
            worker_panics: vec![WorkerPanic { worker: None, morsel: 3, times: 1, after: false }],
            ..Default::default()
        };
        with_plan(plan, || {
            assert!(active());
            // Wrong morsel / phase: no fire.
            maybe_panic_worker(0, 2, Phase::Before);
            maybe_panic_worker(0, 3, Phase::After);
            let caught = std::panic::catch_unwind(|| maybe_panic_worker(1, 3, Phase::Before));
            assert!(caught.is_err());
            // `times = 1` exhausted.
            maybe_panic_worker(1, 3, Phase::Before);
        });
    }

    #[test]
    fn cost_spikes_index_global_call_order() {
        let plan = FaultPlan {
            cost_spikes: vec![CostSpike { trial: 1, factor: 4.0 }],
            ..Default::default()
        };
        with_plan(plan, || {
            assert_eq!(next_cost_spike(), None); // trial 0
            assert_eq!(next_cost_spike(), Some(4.0)); // trial 1
            assert_eq!(next_cost_spike(), None); // trial 2
        });
    }

    #[test]
    fn torn_and_short_clauses_parse_and_fire() {
        let (plan, warn) =
            FaultPlan::parse("torn:bytes=8,seed=5,file=col;short:bytes=4");
        assert!(warn.is_empty(), "{warn:?}");
        assert_eq!(
            plan.torn,
            vec![TornFile { bytes: 8, seed: 5, file: Some("col".into()) }]
        );
        assert_eq!(plan.short, vec![ShortRead { bytes: 4, file: None }]);

        with_plan(plan, || {
            // Non-matching path: only the unfiltered `short` clause applies.
            let mut a = vec![1u8; 16];
            assert!(mangle_read("/tmp/registry.txt", &mut a));
            assert_eq!(a.len(), 12);
            // Matching path: truncated to 12, then last 8 torn.
            let mut b = vec![1u8; 16];
            assert!(mangle_read("/tmp/col_lo_qty.hefc", &mut b));
            assert_eq!(b.len(), 12);
            assert_eq!(&b[..4], &[1, 1, 1, 1]);
            assert_ne!(&b[4..], &[1u8; 8][..], "tail must be garbled");
            // Deterministic across calls.
            let mut c = vec![1u8; 16];
            mangle_read("/tmp/col_lo_qty.hefc", &mut c);
            assert_eq!(b, c);
        });
        // No plan: reads pass through untouched.
        let mut d = vec![9u8; 4];
        assert!(!mangle_read("/tmp/col_lo_qty.hefc", &mut d));
        assert_eq!(d, vec![9u8; 4]);
    }

    #[test]
    fn malformed_torn_short_clauses_warn() {
        let (plan, warn) = FaultPlan::parse("torn:seed=2;short:file=x");
        assert_eq!(warn.len(), 2, "{warn:?}");
        assert!(plan.is_empty());
    }

    #[test]
    fn slow_morsel_and_mem_spike_clauses_parse_and_fire() {
        let (plan, warn) =
            FaultPlan::parse("slow_morsel:morsel=2,ms=10,worker=1,times=2;mem_spike:bytes=4096");
        assert!(warn.is_empty(), "{warn:?}");
        assert_eq!(
            plan.slow_morsels,
            vec![SlowMorsel { worker: Some(1), morsel: 2, ms: 10, times: 2 }]
        );
        assert_eq!(plan.mem_spikes, vec![MemSpike { bytes: 4096, times: 1 }]);

        with_plan(plan, || {
            // Wrong worker / wrong morsel: no fire.
            assert_eq!(next_slow_morsel(0, 2), None);
            assert_eq!(next_slow_morsel(1, 3), None);
            // Fires twice (times=2), then exhausted.
            assert_eq!(next_slow_morsel(1, 2), Some(std::time::Duration::from_millis(10)));
            assert_eq!(next_slow_morsel(1, 2), Some(std::time::Duration::from_millis(10)));
            assert_eq!(next_slow_morsel(1, 2), None);
            // Mem spike fires once.
            assert_eq!(next_mem_spike(), Some(4096));
            assert_eq!(next_mem_spike(), None);
        });
        // No plan: hooks are inert.
        assert_eq!(next_slow_morsel(1, 2), None);
        assert_eq!(next_mem_spike(), None);
    }

    #[test]
    fn malformed_governance_clauses_warn() {
        let (plan, warn) = FaultPlan::parse("slow_morsel:ms=5;mem_spike:times=2");
        assert_eq!(warn.len(), 2, "{warn:?}");
        assert!(plan.is_empty());
    }

    #[test]
    fn registry_corruption_only_with_plan() {
        assert_eq!(corrupt_registry("abc"), None);
        let plan = FaultPlan {
            registry: Some(RegistryCorruption { flips: 2, seed: 3 }),
            ..Default::default()
        };
        with_plan(plan, || {
            let out = corrupt_registry("murmur = 1 3 2").expect("corruption scheduled");
            assert_eq!(out, corrupt_bytes("murmur = 1 3 2", 3, 2));
        });
    }
}
