//! Tiny-scale runs of the benchmark binary and seed determinism of the
//! answers it checks against.

use std::process::Command;

use hef_ssb_e2e::report::{per_layer, END_TO_END};
use hef_ssb_e2e::run::reference;
use hef_ssb_e2e::workload::{digest, Workload};

/// Run the benchmark over all three workloads at SF 0.01 and return its
/// stdout, asserting it exited 0.
fn run_all(trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hef-ssb-e2e"))
        .args([
            "--workload",
            "all",
            "--seed",
            "5",
            "--seconds",
            "0",
            "--sf",
            "0.01",
        ])
        .args(["--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The result line names every metric, prefixed by each workload.
fn assert_result_line(stdout: &str, metrics: &[(String, &str)]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{last}");
    for w in Workload::ALL {
        for (name, unit) in metrics {
            let entry = format!("\"{}.{name}\": {{\"value\": ", w.name());
            let at = last
                .find(&entry)
                .unwrap_or_else(|| panic!("no {entry} in {last}"));
            let rest = &last[at + entry.len()..];
            let value = &rest[..rest.find(',').expect("value then unit")];
            value
                .parse::<f64>()
                .unwrap_or_else(|e| panic!("{name} = `{value}`: {e}"));
            assert!(
                rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                "{name}"
            );
        }
    }
    assert_eq!(last.matches("\"value\": ").count(), 3 * metrics.len());
}

#[test]
fn untraced_smoke_reports_every_end_to_end_metric() {
    let stdout = run_all("0");
    let metrics: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    assert_result_line(&stdout, &metrics);
    // At least 100 executions so that 10 lie beyond p90.
    assert!(
        stdout.contains("(untraced run, seed 5, 104 latency samples"),
        "{stdout}"
    );
}

#[test]
fn traced_smoke_reports_every_per_layer_metric() {
    let stdout = run_all("1");
    assert_result_line(&stdout, &per_layer());
}

#[test]
fn same_seed_same_answers() {
    let digests = |seed| -> Vec<u64> {
        let data = hef_ssb::generate(0.01, seed);
        reference(&data)
            .expect("reference runs")
            .iter()
            .map(|g| digest(g))
            .collect()
    };
    assert_eq!(digests(5), digests(5));
    assert_ne!(digests(5), digests(6));
}
