//! Rules over the program's own source text.
//!
//! Program code is a file's lines before its first column-0
//! `#[cfg(test)]`. Two rules hold over it:
//!
//! * **No layout knobs or environment writes.** A replica's shard layout
//!   is the runner's choice alone, and no program code writes its own
//!   process environment: program code under `crates/` and `src/` (files
//!   under a `tests` directory excluded) names neither the removed
//!   `TA_SHARDS`/`TA_PIN` knobs nor `env::set_var`/`env::remove_var`.
//! * **No sleep-polling in `ta-live`.** Its helper threads wait on the one
//!   `StopSignal` until their next duty, so a `sleep(` in program code
//!   under `crates/live/src` must be one of [`ALLOWED_SLEEPS`].
//!
//! Each rule is a function from one file's text to the lines that break
//! it, so the tests below feed it violating lines as well as the tree.

use std::fs;
use std::path::{Path, PathBuf};

/// Substrings program code must not contain (the layout-knob rule).
const KNOBS: [&str; 4] = ["env::set_var", "env::remove_var", "TA_SHARDS", "TA_PIN"];

/// The sleeps `ta-live` program code may make, as `file:line` with the
/// line's leading whitespace removed: open-loop arrival pacing (loadgen,
/// harness), the injected faults (`WRITER_HANG`, `slow_ms`; the
/// `granter_stall` fault waits on the signal), the journal's retry
/// backoff, and `send_patiently`'s retry.
const ALLOWED_SLEEPS: [&str; 6] = [
    "crates/live/src/loadgen.rs:std::thread::sleep(wait - Duration::from_millis(1));",
    "crates/live/src/harness.rs:std::thread::sleep(at - now - Duration::from_millis(1));",
    "crates/live/src/persist/journal.rs:std::thread::sleep(WRITER_HANG);",
    "crates/live/src/persist/journal.rs:std::thread::sleep(Duration::from_millis(self.slow_ms));",
    "crates/live/src/persist/journal.rs:std::thread::sleep(backoff_delay(attempt, &mut self.jitter_seed));",
    "crates/live/src/obs.rs:std::thread::sleep(PATIENT_RETRY);",
];

/// The program-code lines of a file, numbered from 1.
fn program_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .enumerate()
        .map(|(i, line)| (i + 1, line))
}

/// The lines of `file` (a path from the repository root) that name a
/// layout knob or write the environment, as `file:number: line`.
fn knob_violations(file: &str, text: &str) -> Vec<String> {
    program_lines(text)
        .filter(|(_, line)| KNOBS.iter().any(|knob| line.contains(knob)))
        .map(|(number, line)| format!("{file}:{number}: {line}"))
        .collect()
}

/// Whether `line` calls something named `sleep`: `sleep`, optional
/// whitespace, `(`.
fn calls_sleep(line: &str) -> bool {
    line.match_indices("sleep")
        .any(|(at, word)| line[at + word.len()..].trim_start().starts_with('('))
}

/// The sleeps in `file` that [`ALLOWED_SLEEPS`] does not list, as
/// `file:line` with the line's leading whitespace removed.
fn sleep_violations(file: &str, text: &str) -> Vec<String> {
    program_lines(text)
        .filter(|(_, line)| calls_sleep(line))
        .map(|(_, line)| format!("{file}:{}", line.trim_start()))
        .filter(|entry| !ALLOWED_SLEEPS.contains(&entry.as_str()))
        .collect()
}

/// The `.rs` files under `dir` (relative to the repository root), sorted,
/// skipping everything under a directory named `tests` when asked to.
fn rust_files(dir: &str, skip_tests: bool) -> Vec<String> {
    fn walk(path: &Path, skip_tests: bool, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if !(skip_tests && path.file_name().is_some_and(|name| name == "tests")) {
                    walk(&path, skip_tests, out);
                }
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(&root.join(dir), skip_tests, &mut files);
    let mut files: Vec<String> = files
        .iter()
        .map(|path| {
            path.strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    files.sort();
    files
}

/// Applies `rule` to every file of `files`.
fn violations(files: &[String], rule: fn(&str, &str) -> Vec<String>) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    files
        .iter()
        .flat_map(|file| rule(file, &fs::read_to_string(root.join(file)).unwrap()))
        .collect()
}

#[test]
fn program_code_sets_no_layout_knob_and_writes_no_environment() {
    let mut files = rust_files("crates", true);
    files.extend(rust_files("src", true));
    assert!(files.iter().any(|f| f == "crates/experiments/src/cli.rs"));
    let found = violations(&files, knob_violations);
    assert!(
        found.is_empty(),
        "layout knob or environment write in program code:\n{}",
        found.join("\n")
    );
}

#[test]
fn ta_live_sleeps_only_where_allowed() {
    let files = rust_files("crates/live/src", false);
    assert!(files.iter().any(|f| f == "crates/live/src/loadgen.rs"));
    let found = violations(&files, sleep_violations);
    assert!(
        found.is_empty(),
        "sleep in non-test ta-live code outside the allow-list:\n{}",
        found.join("\n")
    );
}

#[test]
fn the_knob_rule_flags_a_violating_line() {
    // The line the figure binaries used to export `--shards` with.
    let text = "fn main() {\n    std::env::set_var(\"TA_SHARDS\", shards.to_string());\n}\n";
    assert_eq!(
        knob_violations("crates/experiments/src/cli.rs", text),
        ["crates/experiments/src/cli.rs:2:     std::env::set_var(\"TA_SHARDS\", shards.to_string());"]
    );
    for line in ["env::remove_var(\"X\");", "let pin = \"TA_PIN\";"] {
        assert_eq!(knob_violations("a.rs", line).len(), 1, "{line}");
    }
    // Test code, after a column-0 `#[cfg(test)]`, may set variables.
    let text =
        "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { std::env::set_var(\"A\", \"1\"); } }\n";
    assert!(knob_violations("a.rs", text).is_empty());
    // An indented `#[cfg(test)]` does not end the program code.
    let text = "mod m {\n    #[cfg(test)]\n    fn g() { std::env::set_var(\"A\", \"1\"); }\n}\n";
    assert_eq!(knob_violations("a.rs", text).len(), 1);
}

#[test]
fn the_sleep_rule_flags_a_violating_line() {
    let file = "crates/live/src/runtime.rs";
    let text = "fn poll() {\n    std::thread::sleep (Duration::from_millis(25));\n}\n";
    assert_eq!(
        sleep_violations(file, text),
        ["crates/live/src/runtime.rs:std::thread::sleep (Duration::from_millis(25));"]
    );
    // An allowed sleep is allowed only in its own file.
    let allowed = "    std::thread::sleep(PATIENT_RETRY);\n";
    assert!(sleep_violations("crates/live/src/obs.rs", allowed).is_empty());
    assert_eq!(sleep_violations(file, allowed).len(), 1);
    // Names that merely contain `sleep` are not calls.
    assert!(sleep_violations(file, "let sleep_ms = 3;\nlet asleep = true;\n").is_empty());
    let text = "fn f() {}\n#[cfg(test)]\nfn g() { std::thread::sleep(D); }\n";
    assert!(sleep_violations(file, text).is_empty());
}
