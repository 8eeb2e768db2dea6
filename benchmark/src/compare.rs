//! `compare` and `summary`: reading result files written by `run --out`.

use crate::spec::{Better, Spec};
use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One result file.
#[derive(Debug, Clone)]
struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub cpus: u64,
    pub digest: String,
    pub rustc: String,
    pub metrics: BTreeMap<String, f64>,
}

/// Loads every `*.json` result file of `dir` (untraced runs only).
fn load_dir(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
    {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let v = serde_json::parse_value_str(&text)
            .map_err(|e| format!("parsing {}: {e}", path.display()))?;
        if v.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("{}: no {k}", path.display()))
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or_else(|| format!("{}: metrics is not an object", path.display()))?
            .iter()
            .filter_map(|(k, v)| number(v).map(|x| (k.clone(), x)))
            .collect();
        out.push(RunResult {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: number(field("seed")?).unwrap_or(0.0) as u64,
            cpus: number(field("cpus")?).unwrap_or(0.0) as u64,
            digest: field("digest")?.as_str().unwrap_or_default().to_string(),
            rustc: v
                .get("rustc")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            metrics,
        });
    }
    if out.is_empty() {
        return Err(format!("no untraced result files in {}", dir.display()));
    }
    Ok(out)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// How the change reads against the parent for one metric on one
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, and the runs
    /// overlap: neither "same" nor "worse" can be said.
    Unresolved,
    /// Wins at least 9 of 10 seed pairs (at least ten pairs) by more than
    /// the parent's inter-quartile distance.
    Gain,
    /// Within the bound.
    NotWorse,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Gain => "gain",
            Verdict::NotWorse => "not worse",
        }
    }
}

/// Applies the bound and the paired-run rule. `pairs` are (old, new)
/// values of runs with the same seed.
fn verdict(old: &[f64], new: &[f64], pairs: &[(f64, f64)], better: Better, bound: f64) -> Verdict {
    let [oq1, om, oq3] = quartiles(old);
    let [nq1, nm, nq3] = quartiles(new);
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let improves = |o: f64, n: f64| sign * (n - o) > 0.0;
    let worse_share = if om == 0.0 {
        0.0
    } else {
        -sign * (nm - om) / om.abs()
    };
    if worse_share > bound {
        return Verdict::Regressed;
    }
    let wins = pairs.iter().filter(|(o, n)| improves(*o, *n)).count();
    if pairs.len() >= 10
        && wins * 10 >= pairs.len() * 9
        && (nm - om).abs() > oq3 - oq1
        && improves(om, nm)
    {
        return Verdict::Gain;
    }
    let spread = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let all_better = old.iter().all(|o| new.iter().all(|n| improves(*o, *n)));
    if (spread(oq1, om, oq3) > bound || spread(nq1, nm, nq3) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::NotWorse
}

/// `compare OLD NEW`: one row per workload, every end-to-end metric with
/// its verdict. Refuses runs made on different CPU counts or inputs.
pub fn compare(spec: &Spec, old_dir: &Path, new_dir: &Path) -> Result<bool, String> {
    let old = load_dir(old_dir)?;
    let new = load_dir(new_dir)?;
    let cpus: Vec<u64> = old.iter().chain(&new).map(|r| r.cpus).collect();
    if cpus.iter().any(|&c| c != cpus[0]) {
        return Err(format!(
            "refusing to compare runs made on different CPU counts: {cpus:?}"
        ));
    }
    for o in &old {
        for n in new
            .iter()
            .filter(|n| n.workload == o.workload && n.seed == o.seed)
        {
            if n.digest != o.digest {
                return Err(format!(
                    "refusing to compare {} seed {}: input digests differ ({} vs {})",
                    o.workload, o.seed, o.digest, n.digest
                ));
            }
        }
    }
    let mut regressions = 0;
    let mut rows = Vec::new();
    for w in &spec.workloads {
        let o: Vec<&RunResult> = old.iter().filter(|r| &r.workload == w).collect();
        let n: Vec<&RunResult> = new.iter().filter(|r| &r.workload == w).collect();
        if o.is_empty() || n.is_empty() {
            continue;
        }
        let mut cells = Vec::new();
        let mut line = format!("{w:<15} runs {}/{}", o.len(), n.len());
        for m in &spec.end_to_end {
            let values = |rs: &[&RunResult]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (ov, nv) = (values(&o), values(&n));
            if ov.is_empty() || nv.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = o
                .iter()
                .filter_map(|a| {
                    let b = n.iter().find(|b| b.seed == a.seed)?;
                    Some((*a.metrics.get(&m.name)?, *b.metrics.get(&m.name)?))
                })
                .collect();
            let v = verdict(&ov, &nv, &pairs, m.better, m.bound);
            if v == Verdict::Regressed {
                regressions += 1;
            }
            let (om, nm) = (median(&ov), median(&nv));
            let delta = if om == 0.0 { 0.0 } else { (nm - om) / om.abs() };
            line.push_str(&format!(
                " | {} {} -> {} ({:+.1}%, bound {:.0}%) {}",
                m.name,
                fmt(om),
                fmt(nm),
                delta * 100.0,
                m.bound * 100.0,
                v.label()
            ));
            cells.push((
                m.name.clone(),
                Value::Object(vec![
                    ("old".into(), Value::Float(om)),
                    ("new".into(), Value::Float(nm)),
                    ("spread_old".into(), Value::Float(crate::stats::spread(&ov))),
                    ("pairs".into(), Value::Int(pairs.len() as i64)),
                    ("verdict".into(), Value::String(v.label().into())),
                ]),
            ));
        }
        println!("{line}");
        rows.push((w.clone(), Value::Object(cells)));
    }
    let summary = Value::Object(vec![
        ("cpus".into(), Value::Int(cpus[0] as i64)),
        ("workloads".into(), Value::Object(rows)),
        ("regressions".into(), Value::Int(regressions)),
        ("claim".into(), Value::Null),
    ]);
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| e.to_string())?
    );
    Ok(regressions == 0)
}

fn fmt(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

/// `summary DIR`: per workload, the median and quartiles of every
/// end-to-end metric over the result files, with the CPU count, toolchain
/// and commit — the committed baseline.
pub fn summary(spec: &Spec, dir: &Path, commit: &str) -> Result<(), String> {
    let results = load_dir(dir)?;
    let mut workloads: BTreeMap<&str, Vec<&RunResult>> = BTreeMap::new();
    for r in &results {
        workloads.entry(r.workload.as_str()).or_default().push(r);
    }
    let rows = workloads
        .iter()
        .map(|(w, rs)| {
            let metrics = spec
                .end_to_end
                .iter()
                .map(|m| &m.name)
                .map(|name| {
                    let values: Vec<f64> = rs
                        .iter()
                        .filter_map(|r| r.metrics.get(name).copied())
                        .collect();
                    let [q1, q2, q3] = quartiles(&values);
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("median".into(), Value::Float(q2)),
                            ("q1".into(), Value::Float(q1)),
                            ("q3".into(), Value::Float(q3)),
                        ]),
                    )
                })
                .collect();
            (
                w.to_string(),
                Value::Object(vec![
                    ("runs".into(), Value::Int(rs.len() as i64)),
                    (
                        "seeds".into(),
                        Value::Array(rs.iter().map(|r| Value::Int(r.seed as i64)).collect()),
                    ),
                    (
                        "digests".into(),
                        Value::Array(rs.iter().map(|r| Value::String(r.digest.clone())).collect()),
                    ),
                    ("metrics".into(), Value::Object(metrics)),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("cpus".into(), Value::Int(results[0].cpus as i64)),
        ("rustc".into(), Value::String(results[0].rustc.clone())),
        ("commit".into(), Value::String(commit.to_string())),
        ("workloads".into(), Value::Object(rows)),
        ("claim".into(), Value::Null),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_beyond_the_bound() {
        let old = [100.0, 101.0, 99.0, 100.0, 100.5];
        let new = [80.0, 81.0, 79.0, 80.0, 80.5];
        assert_eq!(
            verdict(&old, &new, &[], Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&new, &old, &[], Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&old, &old, &[], Better::Higher, 0.1),
            Verdict::NotWorse
        );
    }

    #[test]
    fn gain_needs_ten_pairs_won_nine_times_beyond_the_spread() {
        let old: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let new: Vec<f64> = old.iter().map(|x| x + 5.0).collect();
        let pairs: Vec<(f64, f64)> = old.iter().copied().zip(new.iter().copied()).collect();
        assert_eq!(
            verdict(&old, &new, &pairs, Better::Higher, 0.1),
            Verdict::Gain
        );
        // Nine pairs are not enough.
        assert_eq!(
            verdict(&old, &new, &pairs[..9], Better::Higher, 0.1),
            Verdict::NotWorse
        );
        // Eight wins of ten are not enough.
        let mut mixed = pairs.clone();
        mixed[0].1 = 90.0;
        mixed[1].1 = 90.0;
        assert_eq!(
            verdict(&old, &new, &mixed, Better::Higher, 0.1),
            Verdict::NotWorse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let old = [50.0, 100.0, 150.0, 100.0, 60.0];
        let new = [55.0, 95.0, 140.0, 100.0, 70.0];
        assert_eq!(
            verdict(&old, &new, &[], Better::Higher, 0.1),
            Verdict::Unresolved
        );
        let all_better = [200.0, 210.0, 220.0, 205.0, 215.0];
        assert_eq!(
            verdict(&old, &all_better, &[], Better::Higher, 0.1),
            Verdict::NotWorse
        );
    }
}
