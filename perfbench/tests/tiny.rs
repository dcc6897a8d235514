//! The benchmark's own tests, on tiny inputs: every workload completes
//! and reports every metric BENCHMARK.json names, the exact counters
//! repeat across runs and seeds, and a corrupted expected cost is
//! reported as a failure.

use std::path::{Path, PathBuf};
use std::process::Command;

fn perfbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "perfbench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn tiny(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> String {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ];
    args.extend_from_slice(extra);
    perfbench(&args)
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

fn exact_line(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("# exact "))
        .expect("an exact-counter line")
        .to_string()
}

/// Metric names listed under `section` in BENCHMARK.json.
fn benchmark_metrics(section: &str) -> Vec<String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).unwrap();
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

const WORKLOADS: [&str; 3] = ["cold_small", "sql_hot", "paper_sweep"];

#[test]
fn every_workload_completes_and_reports_every_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = benchmark_metrics(section);
        assert!(!names.is_empty());
        for w in WORKLOADS {
            let out = tiny(w, "3", trace, &[]);
            let result = result_line(&out);
            assert!(result.starts_with("{\"correct\": true,"), "{w}: {result}");
            assert!(result.contains("\"failed\": 0,"), "{w}: {result}");
            for name in &names {
                assert!(
                    result.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{w}: no {name}"
                );
            }
        }
    }
}

#[test]
fn exact_counters_repeat_across_runs_and_seeds() {
    for w in WORKLOADS {
        let first = exact_line(&tiny(w, "1", "1", &[]));
        let second = exact_line(&tiny(w, "2", "1", &[]));
        assert_eq!(first, second, "{w}: exact counters differ");
    }
}

#[test]
fn a_corrupted_expected_cost_is_a_failure() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let good = std::fs::read_to_string(manifest.join("expected.txt")).unwrap();
    // `sql 0` is the paper's query Ex, which every `sql_hot` warm-up sends.
    let corrupted: String = good
        .lines()
        .map(|l| match l.strip_prefix("sql 0 ") {
            Some(rest) => {
                let (hash, cost) = rest.split_once(' ').unwrap();
                let bits = u64::from_str_radix(cost, 16).unwrap() ^ 1;
                format!("sql 0 {hash} {bits:016x}\n")
            }
            None => format!("{l}\n"),
        })
        .collect();
    assert_ne!(good, corrupted, "the Ex entry is present");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("corrupted-expected.txt");
    std::fs::write(&path, corrupted).unwrap();
    let out = tiny("sql_hot", "3", "0", &["--expected", path.to_str().unwrap()]);
    let result = result_line(&out);
    assert!(result.starts_with("{\"correct\": false,"), "{result}");
    assert!(!result.contains("\"failed\": 0,"), "{result}");
    assert!(out.contains("# FAILED sql 0"), "{out}");
}
