//! Accuracy against the generator's gold labels.
//!
//! A frozen copy of the pooled rule of `crates/bench/src/chaos.rs`, applied
//! to the program's JSON output rather than to its Rust types, so the
//! yardstick does not move when the code it measures does:
//!
//! * numeric: per record and per attribute of the paper's eight, a value
//!   equal to gold is a true positive; a wrong value is a false positive
//!   and a false negative; a missing one a false negative;
//! * terms: medical and surgical history pooled per record as sets,
//!   precision and recall pooled over records;
//! * a failed record owes every gold value (false negatives).

use cmr_corpus::GoldRecord;
use serde::Value;

/// The paper's evaluated numeric attributes.
const NUMERIC_ATTRS: [&str; 8] = [
    "blood_pressure",
    "pulse",
    "temperature",
    "weight",
    "menarche_age",
    "gravida",
    "para",
    "first_birth_age",
];

/// The four term lists of an extracted record, pooled for scoring.
const TERM_FIELDS: [&str; 4] = [
    "predefined_medical",
    "other_medical",
    "predefined_surgical",
    "other_surgical",
];

/// True/false positive and false negative counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub tp: u64,
    pub fp: u64,
    pub fn_: u64,
}

impl Counts {
    /// F1 of pooled precision and recall; a vacuous side counts as 1.
    pub fn f1(&self) -> f64 {
        let p = ratio_or_one(self.tp, self.tp + self.fp);
        let r = ratio_or_one(self.tp, self.tp + self.fn_);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio_or_one(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Pooled numeric and term scores.
#[derive(Debug, Clone, Copy, Default)]
pub struct Score {
    pub numeric: Counts,
    pub terms: Counts,
}

/// A numeric value as serialized by the program (`{"Int": n}`,
/// `{"Float": x}` or `{"Ratio": [a, b]}`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Num {
    Int(i64),
    Float(f64),
    Ratio(i64, i64),
}

impl Num {
    fn from_json(v: &Value) -> Option<Num> {
        let (tag, inner) = v.as_object()?.first()?;
        match (tag.as_str(), inner) {
            ("Int", Value::Int(n)) => Some(Num::Int(*n)),
            ("Float", Value::Float(x)) => Some(Num::Float(*x)),
            ("Float", Value::Int(n)) => Some(Num::Float(*n as f64)),
            ("Ratio", Value::Array(a)) => match a.as_slice() {
                [Value::Int(x), Value::Int(y)] => Some(Num::Ratio(*x, *y)),
                _ => None,
            },
            _ => None,
        }
    }

    fn equals(self, other: Num) -> bool {
        match (self, other) {
            (Num::Float(x), Num::Float(y)) => (x - y).abs() < 1e-9,
            (Num::Int(x), Num::Float(y)) | (Num::Float(y), Num::Int(x)) => {
                (x as f64 - y).abs() < 1e-9
            }
            _ => self == other,
        }
    }
}

fn gold_numeric(rec: &GoldRecord, attr: &str) -> Num {
    match attr {
        "blood_pressure" => Num::Ratio(rec.blood_pressure.0, rec.blood_pressure.1),
        "pulse" => Num::Int(rec.pulse),
        "temperature" => Num::Float(rec.temperature),
        "weight" => Num::Int(rec.weight),
        "menarche_age" => Num::Int(rec.menarche_age),
        "gravida" => Num::Int(rec.gravida),
        "para" => Num::Int(rec.para),
        "first_birth_age" => Num::Int(rec.first_birth_age),
        other => unreachable!("{other} is not one of NUMERIC_ATTRS"),
    }
}

fn gold_terms(rec: &GoldRecord) -> Vec<&str> {
    rec.medical_history
        .iter()
        .chain(&rec.surgical_history)
        .map(String::as_str)
        .collect()
}

impl Score {
    /// Scores one output line against its gold record. A line that is not
    /// a record object (an in-band `{"error": ...}`, or anything else)
    /// scores as a failed record. Returns whether the line was a record.
    pub fn add_line(&mut self, line: &str, gold: &GoldRecord) -> bool {
        match serde_json::parse_value_str(line) {
            Ok(v) if v.get("numeric").is_some() => {
                self.add_record(&v, gold);
                true
            }
            _ => {
                self.add_failed(gold);
                false
            }
        }
    }

    /// Scores one parsed record object.
    pub fn add_record(&mut self, out: &Value, gold: &GoldRecord) {
        let numeric = out.get("numeric");
        for attr in NUMERIC_ATTRS {
            let got = numeric.and_then(|n| n.get(attr)).and_then(Num::from_json);
            match got {
                Some(g) if g.equals(gold_numeric(gold, attr)) => self.numeric.tp += 1,
                Some(_) => {
                    self.numeric.fp += 1;
                    self.numeric.fn_ += 1;
                }
                None => self.numeric.fn_ += 1,
            }
        }
        let got: Vec<&str> = TERM_FIELDS
            .iter()
            .filter_map(|f| out.get(f).and_then(Value::as_array))
            .flatten()
            .filter_map(Value::as_str)
            .collect();
        let want = gold_terms(gold);
        let tp = got.iter().filter(|t| want.contains(t)).count() as u64;
        self.terms.tp += tp;
        self.terms.fp += got.len() as u64 - tp;
        self.terms.fn_ += want.iter().filter(|w| !got.contains(w)).count() as u64;
    }

    /// A record that produced no output still owes its gold values.
    pub fn add_failed(&mut self, gold: &GoldRecord) {
        self.numeric.fn_ += NUMERIC_ATTRS.len() as u64;
        self.terms.fn_ += gold_terms(gold).len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gold() -> GoldRecord {
        GoldRecord {
            patient_id: 1,
            age: 50,
            blood_pressure: (142, 78),
            pulse: 96,
            temperature: 98.6,
            weight: 211,
            menarche_age: 10,
            gravida: 4,
            para: 3,
            first_birth_age: 18,
            medical_history: vec!["diabetes".into(), "hypertension".into()],
            surgical_history: vec!["laminectomy".into()],
            smoking: None,
            alcohol: None,
            shape: None,
            family_history_breast_cancer: false,
            drug_use: false,
            allergies_present: false,
            text: String::new(),
        }
    }

    #[test]
    fn f1_on_a_hand_built_record() {
        // Six numeric values right, pulse wrong, temperature missing (an
        // Int that equals a Float counts as equal); terms: two of three
        // gold found plus one spurious.
        let line = r#"{"patient_id":"1","numeric":{
            "blood_pressure":{"Ratio":[142,78]},"pulse":{"Int":69},
            "weight":{"Float":211.0},"menarche_age":{"Int":10},
            "gravida":{"Int":4},"para":{"Int":3},"first_birth_age":{"Int":18}},
            "predefined_medical":["diabetes"],"other_medical":["bronchitis"],
            "predefined_surgical":[],"other_surgical":["laminectomy"]}"#
            .replace('\n', "");
        let mut s = Score::default();
        assert!(s.add_line(&line, &gold()));
        assert_eq!(
            s.numeric,
            Counts {
                tp: 6,
                fp: 1,
                fn_: 2
            }
        );
        assert_eq!(
            s.terms,
            Counts {
                tp: 2,
                fp: 1,
                fn_: 1
            }
        );
        // P = 6/7, R = 6/8.
        let (p, r) = (6.0 / 7.0, 6.0 / 8.0);
        assert!((s.numeric.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
        assert!((s.terms.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn error_lines_count_every_gold_value_missed() {
        let mut s = Score::default();
        assert!(!s.add_line(r#"{"error":"worker panicked"}"#, &gold()));
        assert_eq!(
            s.numeric,
            Counts {
                tp: 0,
                fp: 0,
                fn_: 8
            }
        );
        assert_eq!(
            s.terms,
            Counts {
                tp: 0,
                fp: 0,
                fn_: 3
            }
        );
        assert_eq!(s.numeric.f1(), 0.0);
    }

    #[test]
    fn empty_scores_are_vacuously_perfect() {
        assert_eq!(Counts::default().f1(), 1.0);
    }
}
