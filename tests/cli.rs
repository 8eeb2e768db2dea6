//! End-to-end CLI tests: drive the real `cmr` binary the way a user would
//! — generate a cohort, extract it in parallel — and check the contract
//! that matters for scripting: one valid JSON object per note, in input
//! order, byte-identical for any `--jobs` value.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn cmr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cmr"))
}

/// A fresh scratch directory under the target-owned temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmr-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn generate_notes(dir: &std::path::Path, records: usize) -> Vec<PathBuf> {
    let status = cmr()
        .args([
            "generate",
            "--records",
            &records.to_string(),
            "--seed",
            "42",
            "--out",
            dir.to_str().expect("utf-8 path"),
        ])
        .status()
        .expect("run cmr generate");
    assert!(status.success(), "generate failed");
    let mut notes: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    notes.sort();
    assert_eq!(notes.len(), records, "one .txt note per record");
    notes
}

fn extract_stdout(notes: &[PathBuf], jobs: &str) -> String {
    let out = cmr()
        .arg("extract")
        .args(["--jobs", jobs])
        .args(notes)
        .output()
        .expect("run cmr extract");
    assert!(
        out.status.success(),
        "extract --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn generate_then_extract_parallel_yields_json_per_note() {
    let dir = scratch("extract");
    let notes = generate_notes(&dir, 8);

    let stdout = extract_stdout(&notes, "4");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 8, "one output line per note");
    for (i, line) in lines.iter().enumerate() {
        let value = serde_json::parse_value_str(line)
            .unwrap_or_else(|e| panic!("line {i} is not valid JSON ({e:?}): {line}"));
        let serde::Value::Object(fields) = value else {
            panic!("line {i} is not a JSON object: {line}");
        };
        assert!(
            fields.iter().any(|(k, _)| k == "numeric"),
            "line {i} has no numeric field: {line}"
        );
    }

    // The scripting contract: worker count never changes the bytes.
    let serial = extract_stdout(&notes, "1");
    assert_eq!(serial, stdout, "--jobs 1 and --jobs 4 outputs differ");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins the NDJSON stdin contract of `cmr extract -`: blank lines,
/// whitespace-only lines, and the trailing newline are separators, not
/// records — exactly one output line per real note, in order, with no
/// in-band error objects. The serve batch endpoint shares this reader.
#[test]
fn extract_stdin_skips_blank_lines_and_trailing_newline() {
    let stdin_body = concat!(
        "{\"text\":\"Vitals:  Pulse of 84.\"}\n",
        "\n",
        "   \t  \n",
        "\"Vitals:  Temperature is 98.6.\"\n",
        "\n",
        "Vitals:  Blood pressure is 120/80.\n",
        "\n",
    );
    let mut child = cmr()
        .args(["extract", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cmr extract -");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin_body.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("run cmr extract -");
    assert!(
        out.status.success(),
        "extract - failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        3,
        "three real notes in, three records out:\n{stdout}"
    );
    for (i, line) in lines.iter().enumerate() {
        let value = serde_json::parse_value_str(line)
            .unwrap_or_else(|e| panic!("line {i} is not valid JSON ({e:?}): {line}"));
        let serde::Value::Object(fields) = value else {
            panic!("line {i} is not a JSON object: {line}");
        };
        assert!(
            fields.iter().any(|(k, _)| k == "numeric"),
            "line {i} has no numeric field: {line}"
        );
        assert!(
            !fields.iter().any(|(k, _)| k == "error"),
            "line {i} is an in-band error: {line}"
        );
    }

    let expect = [("pulse", 0), ("temperature", 1), ("blood_pressure", 2)];
    for (field, idx) in expect {
        assert!(
            lines[idx].contains(field),
            "record {idx} should carry {field}: {}",
            lines[idx]
        );
    }
}

#[test]
fn chaos_sweep_reports_degradation_curve() {
    let dir = scratch("chaos");
    let report_path = dir.join("chaos.json");
    let out = cmr()
        .args([
            "chaos",
            "--noise",
            "0,0.2",
            "--seed",
            "7",
            "--records",
            "6",
            "--jobs",
            "2",
            "--stats",
            "--out",
            report_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run cmr chaos");
    assert!(
        out.status.success(),
        "chaos failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(stdout.contains("num-F1"), "no curve table:\n{stdout}");
    assert!(stdout.contains("salvage"), "--stats tier table missing");

    let json = std::fs::read_to_string(&report_path).expect("report written");
    let value = serde_json::parse_value_str(&json).expect("report is valid JSON");
    let serde::Value::Object(fields) = value else {
        panic!("report is not a JSON object");
    };
    let levels = fields
        .iter()
        .find(|(k, _)| k == "levels")
        .map(|(_, v)| v)
        .expect("report has levels");
    let serde::Value::Array(levels) = levels else {
        panic!("levels is not an array");
    };
    assert_eq!(levels.len(), 2, "one report entry per noise level");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ndjson_streaming_pipes_generate_into_extract() {
    // cmr generate --out - | cmr extract - --jobs 2
    let generated = cmr()
        .args(["generate", "--records", "4", "--seed", "7", "--out", "-"])
        .output()
        .expect("run cmr generate --out -");
    assert!(generated.status.success());
    let ndjson = generated.stdout;
    assert_eq!(
        ndjson
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .count(),
        4
    );

    let mut child = cmr()
        .args(["extract", "-", "--jobs", "2", "--stats"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cmr extract -");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(&ndjson)
        .expect("feed NDJSON");
    let out = child.wait_with_output().expect("wait for extract");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(
        stdout.lines().count(),
        4,
        "one extraction per streamed record"
    );
    for line in stdout.lines() {
        serde_json::parse_value_str(line).expect("valid JSON per line");
    }

    // --stats emits a JSON metrics document on stderr.
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let metrics = serde_json::parse_value_str(stderr.trim()).expect("stats are valid JSON");
    let serde::Value::Object(fields) = metrics else {
        panic!("stats not an object")
    };
    assert!(
        fields.iter().any(|(k, _)| k == "records_per_sec"),
        "{stderr}"
    );
}

/// Runs `cmr extract --jobs N --metrics FILE` over `notes` and returns the
/// parsed metrics document.
fn extract_metrics(notes: &[PathBuf], jobs: &str, metrics: &std::path::Path) -> serde::Value {
    let out = cmr()
        .arg("extract")
        .args(["--jobs", jobs, "--metrics"])
        .arg(metrics)
        .args(notes)
        .output()
        .expect("run cmr extract --metrics");
    assert!(
        out.status.success(),
        "extract --jobs {jobs} --metrics failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(metrics).expect("metrics file written");
    serde_json::parse_value_str(&json).expect("metrics file is valid JSON")
}

/// The integer at a dotted path of a metrics document.
fn int_at(doc: &serde::Value, path: &str) -> i64 {
    let mut v = doc;
    for key in path.split('.') {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("metrics have no `{path}`"));
    }
    match v {
        serde::Value::Int(n) => *n,
        other => panic!("`{path}` is not an integer: {other:?}"),
    }
}

/// The `--metrics` keys the benchmark harness reads for its engine
/// counters must stay present and consistent.
#[test]
fn extract_metrics_file_carries_the_engine_counters() {
    let dir = scratch("metrics");
    let notes = generate_notes(&dir, 8);
    let doc = extract_metrics(&notes, "2", &dir.join("metrics.json"));

    assert_eq!(int_at(&doc, "jobs"), 2);
    assert!(int_at(&doc, "wall_nanos") > 0);
    assert!(int_at(&doc, "channel_wait_nanos") >= 0);
    assert!(int_at(&doc, "reorder_buffer_high_water") >= 0);
    let hits = int_at(&doc, "parse_cache.hits");
    let shared_hits = int_at(&doc, "parse_cache.shared_hits");
    assert!(int_at(&doc, "parse_cache.misses") > 0);
    assert!(
        shared_hits <= hits,
        "shared hits {shared_hits} must be a subset of total hits {hits}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every note is parsed the same way whatever the worker count, so the
/// total parse-cache traffic (hits + misses) cannot depend on `--jobs`;
/// only the split between hits and misses may.
#[test]
fn parse_cache_lookups_are_equal_for_any_jobs() {
    let dir = scratch("lookups");
    let notes = generate_notes(&dir, 12);
    let lookups: Vec<i64> = ["1", "2", "3"]
        .iter()
        .map(|jobs| {
            let doc = extract_metrics(&notes, jobs, &dir.join(format!("metrics-{jobs}.json")));
            int_at(&doc, "parse_cache.hits") + int_at(&doc, "parse_cache.misses")
        })
        .collect();
    assert!(lookups[0] > 0, "no parse-cache lookups at all");
    assert!(
        lookups.iter().all(|&n| n == lookups[0]),
        "lookups at jobs 1, 2, 3 differ: {lookups:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_passes_deny_warnings_and_formats_agree() {
    // The committed assets must be clean at the warning threshold.
    let human = cmr()
        .args(["lint", "--deny", "warnings", "--no-color"])
        .output()
        .expect("run cmr lint");
    assert!(
        human.status.success(),
        "committed assets fail `cmr lint --deny warnings`:\n{}",
        String::from_utf8_lossy(&human.stdout)
    );
    let text = String::from_utf8(human.stdout).expect("utf-8");
    assert!(text.contains("0 errors, 0 warnings"), "{text}");
    assert!(!text.contains('\u{1b}'), "--no-color must strip ANSI");

    // JSON output parses and its summary agrees with the human render.
    let json = cmr()
        .args(["lint", "--format", "json"])
        .output()
        .expect("run cmr lint --format json");
    assert!(json.status.success());
    let doc = serde_json::parse_value_str(String::from_utf8(json.stdout).expect("utf-8").trim())
        .expect("lint JSON parses");
    let summary = doc.get("summary").expect("summary object");
    assert_eq!(summary.get("errors"), Some(&serde::Value::Int(0)));
    assert_eq!(summary.get("warnings"), Some(&serde::Value::Int(0)));

    // SARIF output parses and declares the driver.
    let sarif = cmr()
        .args(["lint", "--format", "sarif"])
        .output()
        .expect("run cmr lint --format sarif");
    assert!(sarif.status.success());
    let doc = serde_json::parse_value_str(String::from_utf8(sarif.stdout).expect("utf-8").trim())
        .expect("SARIF parses");
    let runs = doc.get("runs").and_then(|r| r.as_array()).expect("runs");
    assert_eq!(runs.len(), 1);
}

#[test]
fn journaled_crash_then_resume_is_byte_identical() {
    let dir = scratch("journal-resume");
    let notes = generate_notes(&dir, 6);
    let journal = dir.join("run.journal");
    let uninterrupted = extract_stdout(&notes, "2");

    // Crash-inject: abort the process right after the 2nd record is
    // journaled (no unwinding, no atexit flushes — a hard kill).
    let crashed = cmr()
        .arg("extract")
        .args(["--jobs", "2", "--journal"])
        .arg(&journal)
        .args(["--kill-after", "2"])
        .args(&notes)
        .output()
        .expect("run crashing extract");
    assert!(!crashed.status.success(), "--kill-after must abort");
    let partial = String::from_utf8(crashed.stdout).expect("utf-8");
    assert_eq!(
        partial.lines().count(),
        2,
        "per-record flush: both journaled records reached stdout before the abort"
    );
    assert!(
        uninterrupted.starts_with(&partial),
        "partial output is a prefix of the uninterrupted run"
    );

    // Resume: replays the journaled prefix and finishes the rest.
    let resumed = cmr()
        .arg("extract")
        .args(["--jobs", "2", "--journal"])
        .arg(&journal)
        .arg("--resume")
        .args(&notes)
        .output()
        .expect("run resumed extract");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8(resumed.stdout).expect("utf-8"),
        uninterrupted,
        "resumed output must be byte-identical to the uninterrupted run"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("resuming") && stderr.contains("2/6"),
        "resume reports the replayed prefix: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_against_a_different_corpus_is_rejected() {
    let dir = scratch("journal-mismatch");
    let notes = generate_notes(&dir, 4);
    let journal = dir.join("run.journal");
    let ok = cmr()
        .arg("extract")
        .arg("--journal")
        .arg(&journal)
        .args(&notes)
        .output()
        .expect("run journaled extract");
    assert!(ok.status.success());

    // Same journal, fewer notes: the manifest must refuse the merge.
    let out = cmr()
        .arg("extract")
        .arg("--journal")
        .arg(&journal)
        .arg("--resume")
        .args(&notes[..2])
        .output()
        .expect("run mismatched resume");
    assert_eq!(out.status.code(), Some(2), "manifest mismatch is an error");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot resume"),
        "stderr names the refusal: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Same journal and corpus, but written by an older format version:
    // only the current version is readable.
    let current = std::fs::read_to_string(&journal).expect("read journal");
    let (manifest, entries) = current.split_once('\n').expect("manifest line");
    let old_manifest = manifest.replacen(
        &format!("\"version\":{}", cmr::engine::JOURNAL_VERSION),
        "\"version\":3",
        1,
    );
    assert_ne!(old_manifest, manifest, "manifest names its version");
    std::fs::write(&journal, format!("{old_manifest}\n{entries}")).expect("rewrite journal");
    let out = cmr()
        .arg("extract")
        .arg("--journal")
        .arg(&journal)
        .arg("--resume")
        .args(&notes)
        .output()
        .expect("run resume of an old-format journal");
    assert_eq!(out.status.code(), Some(2), "old journal format is an error");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("journal format v3"),
        "stderr names the format: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigint_drains_flushes_the_journal_and_exits_three() {
    let dir = scratch("journal-sigint");
    let journal = dir.join("run.journal");

    // A corpus big enough that the signal lands mid-run.
    let generated = cmr()
        .args(["generate", "--records", "800", "--seed", "5", "--out", "-"])
        .output()
        .expect("run cmr generate --out -");
    assert!(generated.status.success());

    let mut child = cmr()
        .arg("extract")
        .args(["-", "--jobs", "2", "--journal"])
        .arg(&journal)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cmr extract");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(&generated.stdout)
        .expect("feed NDJSON");
    std::thread::sleep(std::time::Duration::from_millis(300));
    // SIGINT, as ctrl-C would deliver it.
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success());
    let out = child.wait_with_output().expect("wait for extract");

    assert_eq!(
        out.status.code(),
        Some(3),
        "interrupted run exits 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let emitted = stdout.lines().count();
    assert!(
        emitted > 0 && emitted < 800,
        "drain stopped early but not empty: {emitted} records"
    );
    // Every record on stdout is in the flushed journal (manifest + one
    // line each), and every journal line is complete NDJSON.
    let journal_text = std::fs::read_to_string(&journal).expect("journal flushed");
    let journal_lines: Vec<&str> = journal_text.lines().collect();
    assert_eq!(
        journal_lines.len(),
        emitted + 1,
        "journal = manifest + one line per emitted record"
    );
    for line in &journal_lines {
        serde_json::parse_value_str(line).expect("complete JSON per journal line");
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("interrupted"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_files_the_poison_record_and_the_batch_survives() {
    let dir = scratch("quarantine");
    // Two sentences under a one-sentence budget: deterministic transient
    // failure on every attempt — a poison record.
    let poison = dir.join("poison.txt");
    std::fs::write(
        &poison,
        "Vitals:  Blood pressure is 144/90.  Pulse of 84 was noted.\n",
    )
    .expect("write poison note");
    let good = dir.join("good.txt");
    std::fs::write(&good, "Vitals:  Temperature 98.6, weight 150 pounds.\n")
        .expect("write good note");
    let qpath = dir.join("quarantine.ndjson");

    let out = cmr()
        .arg("extract")
        .args(["--max-sentences", "1", "--retries", "2", "--quarantine"])
        .arg(&qpath)
        .arg(&poison)
        .arg(&good)
        .output()
        .expect("run extract with quarantine");
    assert!(out.status.success(), "poison record must not abort the run");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "both records produce a line");
    assert!(lines[0].starts_with("{\"error\":"), "{}", lines[0]);
    assert!(!lines[1].starts_with("{\"error\":"), "{}", lines[1]);

    let quarantined = std::fs::read_to_string(&qpath).expect("quarantine written");
    let entries: Vec<&str> = quarantined.lines().collect();
    assert_eq!(entries.len(), 1, "poison record quarantined exactly once");
    let entry = serde_json::parse_value_str(entries[0]).expect("entry parses");
    assert_eq!(entry.get("index"), Some(&serde::Value::Int(0)));
    let attempts = entry
        .get("attempts")
        .and_then(|a| a.as_array())
        .expect("attempt history");
    assert_eq!(attempts.len(), 2, "one record per attempt");

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn chaos_sigint_flushes_a_partial_report_and_exits_three() {
    let dir = scratch("chaos-sigint");
    let report_path = dir.join("chaos.json");
    let child = cmr()
        .args([
            "chaos",
            "--noise",
            "0..0.5",
            "--records",
            "400",
            "--jobs",
            "2",
            "--out",
        ])
        .arg(&report_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cmr chaos");
    std::thread::sleep(std::time::Duration::from_millis(800));
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success());
    let out = child.wait_with_output().expect("wait for chaos");

    assert_eq!(
        out.status.code(),
        Some(3),
        "interrupted sweep exits 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&report_path).expect("partial report flushed");
    let doc = serde_json::parse_value_str(&json).expect("report parses");
    assert_eq!(
        doc.get("interrupted"),
        Some(&serde::Value::Bool(true)),
        "partial report is marked interrupted"
    );
    let levels = doc
        .get("levels")
        .and_then(|l| l.as_array())
        .expect("levels array");
    assert!(
        levels.len() < 6,
        "sweep stopped before all 6 levels ({} done)",
        levels.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_deny_notes_exits_one_without_usage_noise() {
    // The committed assets do carry advisory notes; denying notes must
    // exit 1 (a lint failure), not 2 (a usage error).
    let out = cmr()
        .args(["lint", "--deny", "notes", "--no-color"])
        .output()
        .expect("run cmr lint --deny notes");
    assert_eq!(out.status.code(), Some(1), "lint failure must exit 1");
    assert!(
        String::from_utf8_lossy(&out.stderr).is_empty(),
        "deny failure is not a usage error"
    );
}

/// Runs `cmr ARGS` and returns (exit code, stderr).
fn run_for_stderr(args: &[&str]) -> (Option<i32>, String) {
    let out = cmr().args(args).output().expect("run cmr");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_command_lines_exit_two_with_usage() {
    for (args, names) in [
        (&["extract", "--bogus", "x.txt"][..], "--bogus"),
        (&["extract", "x.txt", "--jobs"][..], "--jobs needs a value"),
        (
            &["extract", "--jobs", "banana", "x.txt"][..],
            "--jobs must be",
        ),
    ] {
        let (code, stderr) = run_for_stderr(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?} prints usage: {stderr}");
    }
}

#[test]
fn runtime_errors_exit_two_with_one_line_and_no_usage() {
    let missing = std::env::temp_dir().join("cmr-cli-no-such-note.txt");
    let (code, stderr) = run_for_stderr(&["extract", missing.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
    assert!(stderr.starts_with("cmr: reading "), "{stderr}");
    assert!(
        !stderr.contains("USAGE"),
        "no usage for a runtime error: {stderr}"
    );
}

#[test]
fn generate_to_a_closed_pipe_ends_quietly() {
    use std::io::BufRead as _;
    let mut child = cmr()
        .args(["generate", "--records", "2000", "--out", "-"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cmr generate");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut first)
        .expect("read one line");
    assert!(first.starts_with('{'), "one NDJSON record: {first}");
    // The reader is dropped here, like `| head -1` exiting.
    let out = child.wait_with_output().expect("wait for generate");
    assert_eq!(out.status.code(), Some(0), "a closed pipe is not an error");
    assert!(
        out.stderr.is_empty(),
        "stderr stays quiet: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_rejects_a_body_limit_that_overflows() {
    // 2^44 MB is 2^64 bytes: the limit must be refused, not wrapped to 0.
    let mut child = cmr()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--max-body-mb",
            "17592186044416",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cmr serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll serve") {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve accepted --max-body-mb 17592186044416 and kept serving");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("stderr"), &mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--max-body-mb"), "names the flag: {stderr}");
}
