//! `cmr-benchmark`: the repository's benchmark.
//!
//! ```text
//! cmr-benchmark [run] [--workload NAME|all] [--seed S] [--seconds T]
//!               [--trace 0|1] [--smoke] [--out DIR]
//! cmr-benchmark compare OLD_DIR NEW_DIR
//! cmr-benchmark summary [--commit SHA] DIR
//! ```
//!
//! `run` builds the release `cmr` binary from the checkout it is started
//! in (the repository root), drives it on one workload, checks its
//! outputs, and prints the metrics `BENCHMARK.json` lists as the last
//! line of standard output. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` adds an in-process traced run and prints the per-layer
//! ones. See `benchmark/README.md`.

mod batch;
mod compare;
mod gold;
mod harness;
mod inputs;
mod procs;
mod serve;
mod spec;
mod stats;
mod trace;

use harness::{Ctx, Outcome};
use inputs::{Kind, Source};
use serde::Value;
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Seed when none is given (the paper's year, as elsewhere in the repo).
const DEFAULT_SEED: u64 = 2005;

/// Measured seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 2.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(procs::CHILD_CMD) => return procs::child_main(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("summary") => summary_cmd(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        Some("--help" | "-h") => {
            eprintln!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        _ => run_cmd(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cmr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  cmr-benchmark [run] [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1] \
     [--smoke] [--out DIR]\n  cmr-benchmark compare OLD_DIR NEW_DIR\n  \
     cmr-benchmark summary [--commit SHA] DIR"
}

/// Parses `--name value` pairs and `--switch`es; returns positionals.
fn parse_flags(
    args: &[String],
    flags: &mut [(&str, &mut Option<String>)],
    switches: &mut [(&str, &mut bool)],
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            positional.push(a.clone());
            continue;
        };
        if let Some((_, slot)) = switches.iter_mut().find(|(n, _)| *n == name) {
            **slot = true;
        } else if let Some((_, slot)) = flags.iter_mut().find(|(n, _)| *n == name) {
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            **slot = Some(value.clone());
        } else {
            return Err(format!("unknown flag --{name}\n{}", usage()));
        }
    }
    Ok(positional)
}

fn parse<T: std::str::FromStr>(name: &str, value: Option<String>) -> Result<Option<T>, String> {
    value
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{name} {v}: not a valid value"))
        })
        .transpose()
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let dirs = parse_flags(args, &mut [], &mut [])?;
    let [old, new] = dirs.as_slice() else {
        return Err(format!("compare takes two result directories\n{}", usage()));
    };
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    let clean = compare::compare(&spec, Path::new(old), Path::new(new))?;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn summary_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut commit = None;
    let dirs = parse_flags(args, &mut [("commit", &mut commit)], &mut [])?;
    let [dir] = dirs.as_slice() else {
        return Err(format!("summary takes one result directory\n{}", usage()));
    };
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    compare::summary(
        &spec,
        Path::new(dir),
        commit.as_deref().unwrap_or("unknown"),
    )?;
    Ok(ExitCode::SUCCESS)
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut smoke = false;
    let extra = parse_flags(
        args,
        &mut [
            ("workload", &mut workload),
            ("seed", &mut seed),
            ("seconds", &mut seconds),
            ("trace", &mut trace),
            ("out", &mut out),
        ],
        &mut [("smoke", &mut smoke)],
    )?;
    if !extra.is_empty() {
        return Err(format!("unexpected arguments {extra:?}\n{}", usage()));
    }
    // Everything below needs the repository: fail before any work when
    // the checkout holds only the benchmark.
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/cmr.rs").is_file() {
        return Err("run from the repository root: the cmr sources are not here".to_string());
    }
    let workload = workload.unwrap_or_else(|| "all".to_string());
    let selected: Vec<&String> = if workload == "all" {
        spec.workloads.iter().collect()
    } else {
        let known = spec.workloads.iter().find(|w| **w == workload);
        vec![known
            .ok_or_else(|| format!("unknown workload {workload}; have {:?}", spec.workloads))?]
    };
    let seed: u64 = parse("seed", seed)?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = parse("seconds", seconds)?.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        spec.run_seconds as f64
    });
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };

    let cmr = build_cmr()?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let scratch = scratch_dir();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut all_correct = true;
    for name in selected {
        let work = scratch.join(format!("run-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        let _cleanup = RemoveOnDrop(work.clone());
        let budget = Duration::from_secs_f64(seconds);
        let mut ctx = Ctx {
            exe: exe.clone(),
            cmr: cmr.clone(),
            work,
            seed,
            budget: if trace { budget / 2 } else { budget },
            smoke,
        };
        eprintln!(
            "== {name} (seed {seed}, {seconds} s, trace {}, {cpus} CPUs)",
            u8::from(trace)
        );
        let mut outcome = Outcome::default();
        run_workload(&ctx, name, &mut outcome)?;
        outcome.set("setup.lint_s", ctx.lint_s()?);
        if trace {
            ctx.budget = budget / 2;
            traced(&ctx, name, &scratch, &mut outcome)?;
        }
        print_table(&spec, &outcome, trace);
        for f in &outcome.failures {
            eprintln!("FAILED CHECK {f}");
        }
        if let Some(dir) = &out {
            let path = Path::new(dir).join(format!("{name}-s{seed}-t{}.json", u8::from(trace)));
            write_detail(&path, name, seed, seconds, trace, smoke, cpus, &outcome)?;
        }
        println!("{}", result_line(&spec, &outcome, trace)?);
        all_correct &= outcome.failures.is_empty();
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run_workload(ctx: &Ctx, name: &str, out: &mut Outcome) -> Result<(), String> {
    match name {
        "clean-batch" => batch::batch(ctx, Kind::Clean, out),
        "noisy-batch" => batch::batch(ctx, Kind::Noisy, out),
        "durable-shards" => batch::durable(ctx, out),
        "serve-open" => serve::serve(ctx, out),
        other => Err(format!(
            "BENCHMARK.json names workload {other}, which this benchmark lacks"
        )),
    }
}

/// The traced run over the workload's own notes: per-layer metrics, the
/// layer table on stderr, and `trace-<workload>.json` in the scratch
/// directory.
fn traced(ctx: &Ctx, name: &str, scratch: &Path, out: &mut Outcome) -> Result<(), String> {
    let kind = if name == "noisy-batch" {
        Kind::Noisy
    } else {
        Kind::Clean
    };
    let chunk = batch::chunk_notes(ctx, kind);
    // The workload's first input: its first chunk, or the request bodies.
    let n = if name == "serve-open" {
        batch::scaled(ctx, serve::BODIES)
    } else {
        chunk
    };
    let notes = Source::new(kind, ctx.seed, chunk).notes(0..n);
    let t = trace::run(&notes.lines, ctx.budget);
    let c = &t.counts;
    let n = c.notes.max(1) as f64;
    let us = |ns: f64| ns / 1e3 / n;
    let total_us = |layer: &str| us(t.total(layer) as f64);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let rows = t.layer_rows();
    let self_us = |layer: &str| {
        rows.iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, ns)| us(*ns as f64))
    };
    let pipeline_ns = t.total(trace::PIPELINE);
    out.set(
        "text.record_parse.us_per_note",
        self_us(trace::RECORD_PARSE),
    );
    out.set("text.tokenize.us_per_note", self_us(trace::TOKENIZE));
    out.set("text.tokenize.tokens_per_note", c.tokens as f64 / n);
    out.set(
        "text.annotate_numbers.us_per_note",
        self_us(trace::ANNOTATE),
    );
    out.set("postag.tag.us_per_note", self_us(trace::TAG));
    out.set("linkgram.parse.us_per_note", self_us(trace::PARSE));
    out.set("linkgram.parse.calls_per_note", c.parse_calls as f64 / n);
    out.set(
        "linkgram.parse.cache_hit_ratio",
        ratio(c.parse_hits, c.parse_hits + c.parse_misses),
    );
    out.set(
        "linkgram.parse.cold_us_per_note",
        us(c.parse_cold_ns as f64),
    );
    out.set(
        "linkgram.parse.failure_ratio",
        ratio(c.parse_failures, c.parse_calls),
    );
    out.set("core.numeric.self_us_per_note", self_us(trace::NUMERIC));
    out.set("core.terms.self_us_per_note", self_us(trace::TERMS));
    out.set("core.terms.hits_per_note", c.term_hits as f64 / n);
    let unattributed = self_us(trace::UNATTRIBUTED);
    out.set("core.unattributed.us_per_note", unattributed);
    out.set(
        "core.unattributed.share",
        unattributed / total_us(trace::PIPELINE).max(f64::MIN_POSITIVE),
    );
    out.set("pipeline.us_per_note", total_us(trace::PIPELINE));
    out.set("serialize.us_per_note", total_us(trace::SERIALIZE));
    out.set("serialize.bytes_per_note", c.serialize_bytes as f64 / n);
    out.set("ndjson.decode.us_per_note", total_us(trace::DECODE));
    let traced_ns = t.total(trace::DECODE) + pipeline_ns + t.total(trace::SERIALIZE);
    out.set("trace.overhead_ratio", ratio(traced_ns, t.untraced_ns));
    if let Some(p50) = out.metrics.get("serve.p50_ms.r500").copied() {
        out.set("serve.http_overhead_us", p50 * 1e3 - t.p50_note_ns / 1e3);
    }
    out.attempted += c.notes;

    eprintln!("  layer self time over {} traced notes:", c.notes);
    for (layer, ns) in &rows {
        eprintln!(
            "    {layer:<24} {:>10.2} us/note {:>6.1}%",
            us(*ns as f64),
            100.0 * *ns as f64 / pipeline_ns.max(1) as f64
        );
    }
    let sum: i64 = rows.iter().map(|(_, ns)| ns).sum();
    eprintln!(
        "    {:<24} {:>10.2} us/note (sum of the rows above: {:.2})",
        "= pipeline",
        total_us(trace::PIPELINE),
        us(sum as f64)
    );
    let path = scratch.join(format!("trace-{name}.json"));
    trace::write_chrome(&path, &t.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("  trace written to {}", path.display());
    Ok(())
}

/// The contract line: `correct`, `attempted`, `failed` and every metric
/// `BENCHMARK.json` lists for this mode. An end-to-end metric that was not
/// measured is an error; a per-layer one the workload does not exercise
/// reads 0.
fn result_line(spec: &Spec, out: &Outcome, trace: bool) -> Result<String, String> {
    let list = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::with_capacity(list.len());
    for m in list {
        let value = match out.metrics.get(&m.name) {
            Some(v) if v.is_finite() => *v,
            _ if trace => 0.0,
            _ => return Err(format!("end-to-end metric {} was not measured", m.name)),
        };
        metrics.push((
            m.name.clone(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::String(m.unit.clone())),
            ]),
        ));
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(out.failures.is_empty())),
        ("attempted".into(), Value::Int(out.attempted.max(1) as i64)),
        ("failed".into(), Value::Int(out.failed as i64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

fn print_table(spec: &Spec, out: &Outcome, trace: bool) {
    let list = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for m in list {
        if let Some(v) = out.metrics.get(&m.name) {
            eprintln!("  {:<32} {v:>14.4} {}", m.name, m.unit);
        }
    }
    eprintln!("  attempted {} failed {}", out.attempted, out.failed);
}

/// Everything one run measured, for `compare` and `summary`.
#[allow(clippy::too_many_arguments)]
fn write_detail(
    path: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    cpus: usize,
    out: &Outcome,
) -> Result<(), String> {
    let rustc = Command::new(std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into()))
        .arg("--version")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let metrics = out
        .metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| (k.clone(), Value::Float(*v)))
        .collect();
    let doc = Value::Object(vec![
        ("workload".into(), Value::String(workload.into())),
        ("seed".into(), Value::Int(seed as i64)),
        ("seconds".into(), Value::Float(seconds)),
        ("trace".into(), Value::Bool(trace)),
        ("smoke".into(), Value::Bool(smoke)),
        ("cpus".into(), Value::Int(cpus as i64)),
        ("rustc".into(), Value::String(rustc)),
        (
            "digest".into(),
            Value::String(format!("{:016x}", out.digest)),
        ),
        ("correct".into(), Value::Bool(out.failures.is_empty())),
        (
            "failures".into(),
            Value::Array(out.failures.iter().cloned().map(Value::String).collect()),
        ),
        ("attempted".into(), Value::Int(out.attempted as i64)),
        ("failed".into(), Value::Int(out.failed as i64)),
        ("metrics".into(), Value::Object(metrics)),
        ("claim".into(), Value::Null),
    ]);
    let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, json + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Cargo's target directory for the repository build.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Where inputs, per-run scratch files and traces go: under the target
/// directory when one is set, else under `benchmark/target`.
fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from)
        .join("cmr-bench")
}

/// Builds the release `cmr` binary of the checkout (a no-op when it is
/// up to date) and returns its path.
fn build_cmr() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "cmr"])
        .stdin(Stdio::null())
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building cmr failed: {status}"));
    }
    let bin = target_dir().join("release").join("cmr");
    if !bin.is_file() {
        return Err(format!("cargo built no binary at {}", bin.display()));
    }
    Ok(bin)
}

/// Removes a run's scratch directory however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
