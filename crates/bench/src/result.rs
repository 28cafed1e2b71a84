//! Experiment result records and rendering.

use vira_obs::json::{self, Json};

/// One measured data point of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Series label (typically a command name or configuration).
    pub series: String,
    /// X coordinate label (e.g. "workers=4" or "policy=fbr").
    pub x: String,
    pub value: f64,
    pub unit: String,
}

impl Row {
    pub fn new(series: impl Into<String>, x: impl Into<String>, value: f64, unit: &str) -> Row {
        Row {
            series: series.into(),
            x: x.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// A fully evaluated experiment (one table or figure of the paper).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Harness id, e.g. "fig06".
    pub id: String,
    pub title: String,
    /// What the paper reports ("Figure 6", "Table 1", …).
    pub paper_ref: String,
    pub rows: Vec<Row>,
    /// Free-form remarks (workload used, substitutions, observations).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    pub fn new(id: &str, title: &str, paper_ref: &str) -> ExperimentResult {
        ExperimentResult {
            id: id.into(),
            title: title.into(),
            paper_ref: paper_ref.into(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// The `results/<id>.json` document.
    pub fn to_json(&self) -> Json {
        let row = |r: &Row| {
            Json::obj([
                ("series", r.series.as_str().into()),
                ("x", r.x.as_str().into()),
                ("value", r.value.into()),
                ("unit", r.unit.as_str().into()),
            ])
        };
        Json::obj([
            ("id", self.id.as_str().into()),
            ("title", self.title.as_str().into()),
            ("paper_ref", self.paper_ref.as_str().into()),
            ("rows", Json::Arr(self.rows.iter().map(row).collect())),
            ("notes", Json::arr(self.notes.iter().map(String::as_str))),
        ])
    }

    pub fn from_json(j: &Json) -> Result<ExperimentResult, String> {
        let row = |r: &Json| {
            Ok(Row {
                series: r.req("series", json::string)?,
                x: r.req("x", json::string)?,
                value: r.req("value", json::f64)?,
                unit: r.req("unit", json::string)?,
            })
        };
        Ok(ExperimentResult {
            id: j.req("id", json::string)?,
            title: j.req("title", json::string)?,
            paper_ref: j.req("paper_ref", json::string)?,
            rows: j.req("rows", |rs| json::list(rs, row))?,
            notes: j.req("notes", |ns| json::list(ns, json::string))?,
        })
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Values of one series in row order.
    pub fn series(&self, name: &str) -> Vec<(String, f64)> {
        self.rows
            .iter()
            .filter(|r| r.series == name)
            .map(|r| (r.x.clone(), r.value))
            .collect()
    }

    /// Distinct series names in first-appearance order.
    pub fn series_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for r in &self.rows {
            if !names.contains(&r.series) {
                names.push(r.series.clone());
            }
        }
        names
    }

    /// Distinct x labels in first-appearance order.
    pub fn x_labels(&self) -> Vec<String> {
        let mut xs = Vec::new();
        for r in &self.rows {
            if !xs.contains(&r.x) {
                xs.push(r.x.clone());
            }
        }
        xs
    }

    /// Renders a markdown table: one row per x label, one column per
    /// series.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "### {} — {} ({})\n\n",
            self.id, self.title, self.paper_ref
        ));
        let series = self.series_names();
        let xs = self.x_labels();
        let unit = self
            .rows
            .first()
            .map(|r| r.unit.clone())
            .unwrap_or_default();
        out.push_str("| |");
        for s in &series {
            out.push_str(&format!(" {s} |"));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &series {
            out.push_str("---|");
        }
        out.push('\n');
        for x in &xs {
            out.push_str(&format!("| {x} |"));
            for s in &series {
                let v = self
                    .rows
                    .iter()
                    .find(|r| &r.series == s && &r.x == x)
                    .map(|r| format_value(r.value))
                    .unwrap_or_else(|| "–".into());
                out.push_str(&format!(" {v} |"));
            }
            out.push('\n');
        }
        if !unit.is_empty() {
            out.push_str(&format!("\n*values in {unit}*\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out.push('\n');
        out
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentResult {
        let mut e = ExperimentResult::new("fig00", "demo", "Figure 0");
        e.push(Row::new("A", "workers=1", 10.0, "s"));
        e.push(Row::new("A", "workers=2", 5.5, "s"));
        e.push(Row::new("B", "workers=1", 20.0, "s"));
        e.note("note text");
        e
    }

    #[test]
    fn series_extraction() {
        let e = sample();
        assert_eq!(e.series_names(), vec!["A", "B"]);
        assert_eq!(e.x_labels(), vec!["workers=1", "workers=2"]);
        assert_eq!(
            e.series("A"),
            vec![
                ("workers=1".to_string(), 10.0),
                ("workers=2".to_string(), 5.5)
            ]
        );
    }

    #[test]
    fn markdown_contains_all_cells() {
        let md = sample().to_markdown();
        assert!(md.contains("| workers=1 | 10.00 | 20.00 |"));
        assert!(md.contains("| workers=2 | 5.50 | – |"));
        assert!(md.contains("note text"));
        assert!(md.contains("*values in s*"));
    }

    #[test]
    fn checked_in_results_read_back_and_rewrite_byte_for_byte() {
        // The files under results/ were written by the derived encoder
        // of earlier versions; the file format has not moved if each one
        // decodes and encodes to exactly its own text.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "BENCH_micro.json" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let result = json::parse(&text)
                .and_then(|j| ExperimentResult::from_json(&j))
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                result.to_json().pretty(),
                text.trim_end(),
                "{}",
                path.display()
            );
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} result files found");
    }

    #[test]
    fn json_roundtrip() {
        let e = sample();
        let text = e.to_json().pretty();
        let back = ExperimentResult::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.rows, e.rows);
        assert_eq!(back.id, e.id);
        assert_eq!(back.notes, e.notes);
        assert_eq!(back.to_json().pretty(), text);
    }
}
