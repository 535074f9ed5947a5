//! Golden-output test for `verdict check` and `verdict synth`.
//!
//! The files under `tests/golden/` are the raw stdout of the binary on
//! the sample models, in every output form the check contract
//! documents (text, `--json`, `--json --stats`, `--certify --json`) and
//! for a parameter sweep with and without `--first-safe`. Both sides are
//! compared after masking timings — `wall_ms`, every `*_us` counter and
//! the text form's `(<wall>, engine …)` field — so any other byte of
//! drift in verdicts, details, engines, certificates, counters or exit
//! codes fails here. Portfolio runs are compared on their verdicts only:
//! which contender wins the race is timing-dependent.
//!
//! To re-capture a golden file, run the command in its table row from
//! the workspace root and redirect stdout into the file.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(golden file, expected exit code, arguments)`; paths are relative to
/// the workspace root, which is also the working directory of each run
/// (the JSON documents echo the model path).
const CASES: &[(&str, i32, &[&str])] = &[
    (
        "check_step_counter.txt",
        2,
        &["check", "examples/models/step_counter.vd"],
    ),
    (
        "check_step_counter.json",
        2,
        &["check", "examples/models/step_counter.vd", "--json"],
    ),
    (
        "check_step_counter.stats.json",
        2,
        &[
            "check",
            "examples/models/step_counter.vd",
            "--json",
            "--stats",
        ],
    ),
    (
        "check_step_counter.certify.json",
        2,
        &[
            "check",
            "examples/models/step_counter.vd",
            "--certify",
            "--json",
        ],
    ),
    (
        "check_leaky_bucket.txt",
        2,
        &["check", "examples/models/leaky_bucket.vd"],
    ),
    (
        "check_leaky_bucket.json",
        2,
        &["check", "examples/models/leaky_bucket.vd", "--json"],
    ),
    (
        "check_leaky_bucket.stats.json",
        2,
        &[
            "check",
            "examples/models/leaky_bucket.vd",
            "--json",
            "--stats",
        ],
    ),
    (
        "check_leaky_bucket.certify.json",
        2,
        &[
            "check",
            "examples/models/leaky_bucket.vd",
            "--certify",
            "--json",
        ],
    ),
    (
        "check_taint_loop.txt",
        2,
        &["check", "examples/models/taint_loop.vd"],
    ),
    (
        "check_taint_loop.json",
        2,
        &["check", "examples/models/taint_loop.vd", "--json"],
    ),
    (
        "check_taint_loop.stats.json",
        2,
        &[
            "check",
            "examples/models/taint_loop.vd",
            "--json",
            "--stats",
        ],
    ),
    (
        "check_taint_loop.certify.json",
        2,
        &[
            "check",
            "examples/models/taint_loop.vd",
            "--certify",
            "--json",
        ],
    ),
    (
        "synth_sweep.json",
        0,
        &[
            "synth",
            "crates/cli/tests/golden/sweep.vd",
            "--params",
            "a,b",
            "--json",
        ],
    ),
    // One worker, so which assignments the early exit cancels is fixed.
    (
        "synth_sweep.first_safe.json",
        0,
        &[
            "synth",
            "crates/cli/tests/golden/sweep.vd",
            "--params",
            "a,b",
            "--first-safe",
            "--jobs",
            "1",
            "--json",
        ],
    ),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs the binary from the workspace root; returns stdout and the exit
/// code.
fn run(args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_verdict"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("binary runs");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.code().expect("not signal-killed"),
    )
}

fn golden(name: &str) -> String {
    let path = workspace_root().join("crates/cli/tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Replaces the digits after every `"wall_ms":` and `"…_us":` key with
/// `_`, and the wall time in a text line's `` `name` (<wall>, engine ``
/// prefix with `_`.
fn mask(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for line in s.split_inclusive('\n') {
        out.push_str(&mask_numbers(&mask_text_wall(line)));
    }
    out
}

fn mask_text_wall(line: &str) -> String {
    if let (Some(open), Some(close)) = (line.find("` ("), line.find(", engine ")) {
        if open < close {
            return format!("{}` (_{}", &line[..open], &line[close..]);
        }
    }
    line.to_string()
}

fn mask_numbers(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(colon) = rest.find("\":") {
        let key_end = colon + 2;
        let key = &rest[..colon];
        let timed = key.ends_with("_us") || key.ends_with("\"wall_ms");
        out.push_str(&rest[..key_end]);
        rest = &rest[key_end..];
        if timed {
            let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            if digits > 0 {
                out.push('_');
                rest = &rest[digits..];
            }
        }
    }
    out.push_str(rest);
    out
}

#[test]
fn outputs_match_the_golden_files() {
    let mut failures = Vec::new();
    for (file, want_code, args) in CASES {
        let (stdout, code) = run(args);
        if code != *want_code {
            failures.push(format!("{file}: exit {code}, want {want_code}"));
        }
        let (got, want) = (mask(&stdout), mask(&golden(file)));
        if got != want {
            failures.push(format!("{file}:\n--- want\n{want}\n--- got\n{got}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The `"verdict":"…"` values of a document, in order.
fn verdicts(doc: &str) -> Vec<&str> {
    doc.split("\"verdict\":\"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect()
}

#[test]
fn portfolio_verdicts_match_the_golden_file() {
    let (stdout, code) = run(&[
        "check",
        "examples/models/step_counter.vd",
        "--engine",
        "portfolio",
        "--json",
    ]);
    assert_eq!(code, 2, "{stdout}");
    let want = golden("check_step_counter.portfolio.json");
    assert_eq!(verdicts(&stdout), verdicts(&want), "{stdout}");
    assert!(!verdicts(&want).is_empty());
}

#[test]
fn mask_hides_only_timings() {
    assert_eq!(
        mask("{\"wall_ms\":12,\"encode_us\":7,\"decisions\":50}"),
        "{\"wall_ms\":_,\"encode_us\":_,\"decisions\":50}"
    );
    assert_eq!(
        mask("property `p` (3.29ms, engine bmc): HOLDS\nn | 0\n"),
        "property `p` (_, engine bmc): HOLDS\nn | 0\n"
    );
}
