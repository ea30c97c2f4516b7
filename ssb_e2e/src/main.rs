//! `hef-ssb-e2e --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints each metric as `name value unit`, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! 1 when any answer was wrong or any execution failed, 2 on a usage or
//! set-up error (without a result line).

use std::path::PathBuf;

use hef_ssb_e2e::measure::{run_workload, Settings};
use hef_ssb_e2e::report::{result_line, Metrics};
use hef_ssb_e2e::run::{reference, Dataset};
use hef_ssb_e2e::workload::{digest, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: hef-ssb-e2e --workload <ssb_mem_sf1|ssb_paged_evict_sf1|\
ssb_paged_resident_sf1|all> [--seed N] [--seconds N] [--trace 0|1] [--sf F] [--print-digests]";

struct Args {
    workloads: Vec<Workload>,
    settings: Settings,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut settings = Settings {
        seed: DEFAULT_SEED,
        seconds: 12.0,
        sf: 1.0,
        trace: false,
        work_dir: dir.join("work").join(std::process::id().to_string()),
        trace_dir: dir.join("out"),
    };
    let mut workloads = None;
    let mut print_digests = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => settings.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => settings.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--sf" => settings.sf = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(settings.sf > 0.0 && settings.seconds >= 0.0) {
        return Err("--sf must be positive and --seconds non-negative".into());
    }
    let workloads = match (workloads, print_digests) {
        (Some(w), _) => w,
        (None, true) => Vec::new(),
        (None, false) => return Err("--workload is required".into()),
    };
    Ok(Args {
        workloads,
        settings,
        print_digests,
    })
}

/// Point `HEF_REGISTRY` at the committed tuned registry and unset every
/// other `HEF_*` variable, so no environment override changes what runs.
/// Runs before any thread exists.
fn pin_environment() -> Result<(), String> {
    let registry = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../results/tuned.txt"));
    if !registry.is_file() {
        return Err(format!("tuned registry {} not found", registry.display()));
    }
    let unset: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HEF_") && k != "HEF_REGISTRY")
        .collect();
    for k in &unset {
        std::env::remove_var(k);
    }
    std::env::set_var("HEF_REGISTRY", &registry);
    eprintln!(
        "env: HEF_REGISTRY={}; every other HEF_* variable unset (were set: {unset:?})",
        registry.display()
    );
    Ok(())
}

fn print_digests(s: &Settings) -> Result<(), String> {
    let ds = Dataset::build(Workload::Mem, s.sf, s.seed, &s.work_dir)?;
    let refs = reference(&ds.data)?;
    println!("# Reference answer digests (FNV-1a of the dense group accumulators),");
    println!(
        "# seed {} at SF {}: `hef-ssb-e2e --print-digests`.",
        s.seed, s.sf
    );
    for (q, groups) in hef_ssb::QueryId::ALL.iter().zip(&refs) {
        println!("{} {:016x}", q.name(), digest(groups));
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = pin_environment() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    if args.print_digests {
        if let Err(e) = print_digests(&args.settings) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }
    let prefix = args.workloads.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut all = Metrics::default();
    for &w in &args.workloads {
        let outcome = match run_workload(w, &args.settings) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                std::process::exit(2);
            }
        };
        println!(
            "{} ({} run, seed {}, {} latency samples, {} of {} executions failed):",
            w.name(),
            if args.settings.trace {
                "traced"
            } else {
                "untraced"
            },
            args.settings.seed,
            outcome.samples,
            outcome.failed,
            outcome.attempted
        );
        for (name, value, unit) in outcome.metrics.0 {
            println!("  {name:<34} {value:>16.6} {unit}");
            let name = if prefix {
                format!("{}.{name}", w.name())
            } else {
                name
            };
            all.push(name, value, unit);
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
    }
    let (_, registry) = hef_core::Registry::warm_report();
    eprintln!(
        "registry: {} issue(s) while loading {:?}",
        registry.issues.len(),
        registry.source
    );
    println!("{}", result_line(failed == 0, attempted, failed, &all));
    if failed > 0 {
        std::process::exit(1);
    }
}
