//! `BENCHMARK.json`: the one place that names the workloads and the
//! metrics with their units, directions and bounds. `run` prints exactly
//! the metrics listed there; `compare` applies the bounds listed there.

use serde::Value;
use std::path::Path;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One listed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only; 0 for per-layer ones, which have no bound).
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the benchmark uses.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let v = serde_json::parse_value_str(&text)
            .map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let list = |key: &str| -> Result<&[Value], String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{}: `{key}` is not a list", path.display()))
        };
        let str_of = |item: &Value, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{}: an entry has no string `{key}`", path.display()))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = match str_of(m, "better")?.as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("unknown direction `{other}`")),
                    };
                    let bound = match m.get("bound") {
                        Some(Value::Float(b)) => *b,
                        Some(Value::Int(b)) => *b as f64,
                        _ => 0.0,
                    };
                    Ok(Metric {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        let run_seconds = match v.get("run_seconds") {
            Some(Value::Int(s)) if *s > 0 => *s as u64,
            _ => {
                return Err(format!(
                    "{}: `run_seconds` is not a positive integer",
                    path.display()
                ))
            }
        };
        Ok(Spec {
            run_seconds,
            workloads: list("workloads")?
                .iter()
                .map(|w| str_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
