//! The file workloads: `clean-batch`, `noisy-batch` and `durable-shards`.
//! Each drives the `cmr` binary on generated NDJSON, times the whole
//! process (spawn to reap), and checks every output byte for byte
//! against a reference run of the same input.

use crate::gold::Score;
use crate::harness::{
    count_lines, engine_metrics, error_lines, keep_going, number_at, read, set_engine_layers, Ctx,
    Outcome, PARALLEL,
};
use crate::inputs::{fnv1a, Kind, Notes, Source, CHUNKS};
use crate::procs::{Exit, SIGKILL};
use crate::stats::median;
use std::fs;
use std::io::Read as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Clean notes per round: one `--jobs 1` run takes about a second on the
/// reference box, so process start is a small share of it.
const CLEAN_NOTES: usize = 4000;
/// Corrupted notes per round: fewer, since about one parse lookup in
/// fifteen misses the cache and runs the cubic parser.
const NOISY_NOTES: usize = 1500;
/// Notes in each small cold job of the latency metric.
const SMALL_JOB_NOTES: usize = 50;
/// Small jobs per batch round.
const SMALL_JOBS_PER_ROUND: usize = 2;
/// Empty-corpus spawns behind `setup_s` (odd, so the median is one).
const SETUP_SPAWNS: usize = 11;

/// Full size, or 1/50 of it under `--smoke`.
pub fn scaled(ctx: &Ctx, full: usize) -> usize {
    if ctx.smoke {
        (full / 50).max(4)
    } else {
        full
    }
}

/// Notes per chunk of each input kind.
pub fn chunk_notes(ctx: &Ctx, kind: Kind) -> usize {
    scaled(
        ctx,
        match kind {
            Kind::Clean => CLEAN_NOTES,
            Kind::Noisy => NOISY_NOTES,
        },
    )
}

/// Writes notes as an NDJSON file in the run's scratch directory.
fn write_input(ctx: &Ctx, name: &str, body: &str) -> Result<std::path::PathBuf, String> {
    let path = ctx.path(name);
    fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// `cmr extract --ndjson --jobs J --out FILE [--metrics FILE] INPUT`;
/// returns how it ended and the output bytes.
fn extract(
    ctx: &Ctx,
    jobs: usize,
    input: &Path,
    metrics: Option<&Path>,
) -> Result<(Exit, Vec<u8>), String> {
    let dest = ctx.path("extract.out");
    let mut cmd = ctx.cmr();
    cmd.args(["extract", "--ndjson", "--jobs", &jobs.to_string(), "--out"])
        .arg(&dest);
    if let Some(m) = metrics {
        cmd.arg("--metrics").arg(m);
    }
    let exit = ctx.run_ok(cmd.arg(input), "extract")?;
    Ok((exit, read(&dest)?))
}

/// Scores one output against its notes' gold labels. The gate fails when
/// the output does not hold one line per note.
fn score(out: &mut Outcome, s: &mut Score, notes: &Notes, output: &[u8]) {
    let text = String::from_utf8_lossy(output);
    let lines: Vec<&str> = text.lines().collect();
    out.check("gold scoring", lines.len() == notes.gold.len(), || {
        format!(
            "{} output lines for {} notes",
            lines.len(),
            notes.gold.len()
        )
    });
    for (line, gold) in lines.iter().zip(&notes.gold) {
        s.add_line(line, gold);
    }
}

/// `clean-batch` and `noisy-batch`. Each round takes the next chunk of
/// the seed's notes through `extract --ndjson` at `--jobs 1` and
/// `--jobs 2`, then runs two small cold jobs on slices of it; metrics
/// are medians over rounds.
pub fn batch(ctx: &Ctx, kind: Kind, out: &mut Outcome) -> Result<(), String> {
    let n = chunk_notes(ctx, kind);
    let k = scaled(ctx, SMALL_JOB_NOTES).min(n);
    let source = Source::new(kind, ctx.seed, n);
    out.set(
        "setup_s",
        ctx.extract_setup_s(scaled_count(ctx, SETUP_SPAWNS))?,
    );

    let metrics = ctx.path("extract.metrics.json");
    let mut walls = [Vec::new(), Vec::new()];
    let mut small_walls = Vec::new();
    let mut rss = Vec::new();
    let mut accuracy = Score::default();
    let start = Instant::now();
    let mut round = 0;
    while keep_going(start, ctx.budget, round) {
        let chunk = round % CHUNKS;
        let notes = source.notes(chunk * n..(chunk + 1) * n);
        let body = notes.body(0..n);
        if round == 0 {
            out.digest = fnv1a(body.as_bytes());
        }
        let input = write_input(ctx, "chunk.ndjson", &body)?;
        let mut reference: Option<Vec<u8>> = None;
        for (slot, jobs) in [1, PARALLEL].into_iter().enumerate() {
            let (exit, output) = extract(ctx, jobs, &input, Some(&metrics))?;
            walls[slot].push(exit.wall.as_secs_f64());
            out.attempted += n as u64;
            out.failed += error_lines(&output);
            if jobs == PARALLEL {
                rss.push(exit.maxrss_kib as f64 / 1024.0);
                if let Some(m) = engine_metrics(&metrics) {
                    set_engine_layers(out, &m);
                }
            }
            match &reference {
                None => reference = Some(output),
                Some(r) => out.check("jobs 1 vs jobs 2 byte-identical", *r == output, || {
                    format!("chunk {chunk}: --jobs {jobs} output differs from --jobs 1")
                }),
            }
        }
        let reference = reference.expect("both job counts ran");

        // Small cold jobs: a fresh process on a 50-note file pays set-up
        // and the first, uncached parse of each sentence shape. A note's
        // record must not depend on the notes around it.
        let lines: Vec<&[u8]> = reference.split_inclusive(|&b| b == b'\n').collect();
        for j in 0..SMALL_JOBS_PER_ROUND {
            let first = ((round * SMALL_JOBS_PER_ROUND + j) * k) % (n - k + 1);
            let small = write_input(ctx, "small.ndjson", &notes.body(first..first + k))?;
            let (exit, output) = extract(ctx, PARALLEL, &small, None)?;
            small_walls.push(exit.wall.as_secs_f64());
            out.attempted += k as u64;
            let expected = lines.get(first..first + k).map(<[&[u8]]>::concat);
            out.check(
                "small job equals full-run lines",
                expected.is_some_and(|e| e == output),
                || format!("chunk {chunk}: the {k}-note job from note {first} differs"),
            );
        }
        if round < CHUNKS {
            score(out, &mut accuracy, &notes, &reference);
        }
        round += 1;
    }
    let serial = n as f64 / median(&walls[0]);
    let parallel = n as f64 / median(&walls[1]);
    out.set("serial_notes_per_s", serial);
    out.set("notes_per_s", parallel);
    out.set("latency_ms", median(&small_walls) * 1e3);
    out.set("peak_rss_mb", median(&rss));
    out.set("numeric_f1", accuracy.numeric.f1());
    out.set("term_f1", accuracy.terms.f1());
    out.set(
        "engine.parallel_efficiency",
        parallel / (PARALLEL as f64 * serial),
    );
    Ok(())
}

/// The kill run is stopped once the output holds this share of the lines.
const KILL_AT: f64 = 0.75;

/// `durable-shards`: the clean corpus through `orchestrate` (2 shards,
/// journaled, compacted) and a re-run of `merge` on its artifacts, then
/// a journaled `extract` SIGKILLed at 75% of its output and `--resume`d.
/// Every output must equal a plain `extract` of the same corpus.
pub fn durable(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let n = chunk_notes(ctx, Kind::Clean);
    let compact_every = (n / 4).clamp(1, 1000).to_string();
    let notes = Source::new(Kind::Clean, ctx.seed, n).notes(0..n);
    let body = notes.body(0..n);
    out.digest = fnv1a(body.as_bytes());
    let corpus = write_input(ctx, "corpus.ndjson", &body)?;
    out.set(
        "setup_s",
        ctx.extract_setup_s(scaled_count(ctx, SETUP_SPAWNS))?,
    );
    let start = Instant::now();

    let ref_path = ctx.path("reference.out");
    let plain = ctx.run_ok(
        ctx.cmr()
            .args(["extract", "--ndjson", "--jobs", "1", "--out"])
            .arg(&ref_path)
            .arg(&corpus),
        "reference extract",
    )?;
    let reference = read(&ref_path)?;
    out.attempted += n as u64;
    let plain_rate = n as f64 / plain.wall.as_secs_f64();

    let mut orchestrate_walls = Vec::new();
    let mut rss = Vec::new();
    let mut merge_rates = Vec::new();
    let mut skews = Vec::new();
    let mut journaled_rates = Vec::new();
    let mut resume_walls = Vec::new();
    let mut resume_fixed = Vec::new();
    let mut rounds = 0;
    while keep_going(start, ctx.budget, rounds) {
        // (1) Orchestrated, sharded, journaled run, merged by the supervisor.
        let dir = ctx.path("shards");
        let _ = fs::remove_dir_all(&dir);
        let merged = ctx.path("orchestrate.out");
        let merged_metrics = ctx.path("orchestrate.metrics.json");
        let exit = ctx.run_ok(
            ctx.cmr()
                .args(["orchestrate", "--shards", &PARALLEL.to_string()])
                .args(["--workers", &PARALLEL.to_string(), "--jobs", "1"])
                .args(["--compact-every", &compact_every, "--dir"])
                .arg(&dir)
                .arg("--out")
                .arg(&merged)
                .arg("--metrics")
                .arg(&merged_metrics)
                .arg(&corpus),
            "orchestrate",
        )?;
        orchestrate_walls.push(exit.wall.as_secs_f64());
        rss.push(exit.maxrss_kib as f64 / 1024.0);
        out.attempted += n as u64;
        let output = read(&merged)?;
        out.failed += error_lines(&output);
        out.check(
            "orchestrate output equals reference",
            output == reference,
            || "orchestrate --out differs from the plain extract output".to_string(),
        );
        if let Some(m) = engine_metrics(&merged_metrics) {
            set_engine_layers(out, &m);
        }
        if let Some(skew) = shard_skew(&dir) {
            skews.push(skew);
        }

        // (2) `merge` re-run on the same shard artifacts.
        let remerged = ctx.path("merge.out");
        let exit = ctx.run_ok(
            ctx.cmr()
                .args(["merge", "--shards", &PARALLEL.to_string(), "--dir"])
                .arg(&dir)
                .arg("--out")
                .arg(&remerged),
            "merge",
        )?;
        let output = read(&remerged)?;
        out.check("merge output equals reference", output == reference, || {
            "cmr merge --out differs from the plain extract output".to_string()
        });
        merge_rates.push(output.len() as f64 / 1e6 / exit.wall.as_secs_f64());

        // (3) Journaled run, SIGKILLed part-way, then resumed.
        let journal = ctx.path("kill.journal");
        let killed_out = ctx.path("kill.out");
        // A stale output would be read as progress before the run
        // truncates it.
        let _ = fs::remove_file(&journal);
        let _ = fs::remove_file(&killed_out);
        let journaled = |resume: bool| {
            let mut cmd = ctx.cmr();
            cmd.args(["extract", "--ndjson", "--jobs", "1", "--journal"])
                .arg(&journal)
                .args(["--compact-every", &compact_every, "--out"])
                .arg(&killed_out);
            if resume {
                cmd.arg("--resume");
            }
            cmd.arg(&corpus);
            cmd
        };
        let target = (n as f64 * KILL_AT).ceil() as usize;
        let (lines_at_kill, until_kill) =
            kill_at_lines(ctx, &mut journaled(false), &killed_out, target)?;
        let rate = lines_at_kill as f64 / until_kill.as_secs_f64();
        journaled_rates.push(rate);
        let exit = ctx.run_ok(&mut journaled(true), "resume")?;
        let resume_s = exit.wall.as_secs_f64();
        resume_walls.push(resume_s);
        resume_fixed.push(resume_s - (n - lines_at_kill.min(n)) as f64 / rate);
        out.attempted += n as u64;
        let output = read(&killed_out)?;
        out.failed += error_lines(&output);
        out.check(
            "kill+resume output equals reference",
            output == reference,
            || format!("output after SIGKILL at {lines_at_kill} lines and --resume differs"),
        );
        rounds += 1;
    }

    out.set("notes_per_s", n as f64 / median(&orchestrate_walls));
    out.set("serial_notes_per_s", median(&journaled_rates));
    out.set("latency_ms", median(&resume_walls) * 1e3);
    out.set("peak_rss_mb", median(&rss));
    out.set(
        "journal.overhead_ratio",
        plain_rate / median(&journaled_rates),
    );
    out.set("merge.mb_per_s", median(&merge_rates));
    out.set("resume.fixed_s", median(&resume_fixed));
    if !skews.is_empty() {
        out.set("shard.skew", median(&skews));
    }
    let orchestrated = n as f64 / median(&orchestrate_walls);
    out.set(
        "engine.parallel_efficiency",
        orchestrated / (PARALLEL as f64 * plain_rate),
    );
    let mut accuracy = Score::default();
    score(out, &mut accuracy, &notes, &reference);
    out.set("numeric_f1", accuracy.numeric.f1());
    out.set("term_f1", accuracy.terms.f1());
    Ok(())
}

/// Runs `cmd` until `path` holds `target` complete lines, then SIGKILLs
/// it (a crash at an arbitrary record, with no hook inside the program).
/// Returns the lines seen and the child's lifetime, spawn to death. A run
/// that ends on its own first reports its full output and its wall time.
fn kill_at_lines(
    ctx: &Ctx,
    cmd: &mut std::process::Command,
    path: &Path,
    target: usize,
) -> Result<(usize, Duration), String> {
    let mut proc = ctx.spawn(cmd, "kill run")?;
    let mut file = None;
    let mut seen = 0usize;
    let mut chunk = Vec::new();
    loop {
        if file.is_none() {
            file = fs::File::open(path).ok();
        }
        if let Some(f) = file.as_mut() {
            chunk.clear();
            let _ = f.read_to_end(&mut chunk);
            seen += count_lines(&chunk);
        }
        if seen >= target {
            proc.signal(SIGKILL)
                .map_err(|e| format!("killing the kill run: {e}"))?;
            let exit = proc
                .wait()
                .map_err(|e| format!("reaping the kill run: {e}"))?;
            return Ok((seen, exit.wall));
        }
        if let Some(exit) = proc
            .try_wait()
            .map_err(|e| format!("polling the kill run: {e}"))?
        {
            if !exit.success() {
                return Err(format!("the kill run failed on its own: {exit}"));
            }
            let all = count_lines(&read(path)?);
            return Ok((all, exit.wall));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Slowest over fastest shard wall time of an orchestrated run, from the
/// optional `wall_nanos` of each shard's metrics file.
fn shard_skew(dir: &Path) -> Option<f64> {
    let walls: Vec<f64> = (0..PARALLEL)
        .map(|i| {
            let m = engine_metrics(&dir.join(format!("shard-{i}.metrics.json")))?;
            number_at(&m, "wall_nanos")
        })
        .collect::<Option<_>>()?;
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0, f64::max);
    (min > 0.0).then(|| max / min)
}

/// A repeat count, cut to three under `--smoke`.
pub fn scaled_count(ctx: &Ctx, full: usize) -> usize {
    if ctx.smoke {
        full.min(3)
    } else {
        full
    }
}
