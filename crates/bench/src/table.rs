//! Minimal markdown table builder used by every experiment.

use sap_core::json::escape_str as escape_json;

/// An experiment result table: a title, a caption tying it to the paper,
/// a header row and data rows. Serialisable (see [`Table::to_json`]) so
/// runs can be archived.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (e.g. `"T1"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the paper claims / what shape we expect.
    pub expectation: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (pre-formatted strings).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, expectation: &str, header: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            expectation: expectation.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row arity must match header");
        self.rows.push(row);
    }

    /// Renders as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("*Expected:* {}\n\n", self.expectation));
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders as a JSON object (hand-rolled; the harness is hermetic and
    /// carries no serialisation dependency).
    pub fn to_json(&self) -> String {
        let strings = |items: &[String]| {
            let quoted: Vec<String> =
                items.iter().map(|s| format!("\"{}\"", escape_json(s))).collect();
            format!("[{}]", quoted.join(","))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| strings(r)).collect();
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"expectation\":\"{}\",\"header\":{},\"rows\":[{}]}}",
            escape_json(&self.id),
            escape_json(&self.title),
            escape_json(&self.expectation),
            strings(&self.header),
            rows.join(",")
        )
    }
}

/// Renders tables as the `report --json` document: a JSON array with one
/// table per line, so a moved number shows as a one-line diff.
pub fn tables_to_json(tables: &[Table]) -> String {
    let objs: Vec<String> = tables.iter().map(Table::to_json).collect();
    format!("[\n{}\n]\n", objs.join(",\n"))
}

/// Formats a ratio with 3 decimals.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a mean ± max pair.
pub fn fmt_mean_max(values: &[f64]) -> (String, String) {
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    let max = values.iter().cloned().fold(f64::NAN, f64::max);
    (fmt_ratio(mean), fmt_ratio(max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("T0", "demo", "nothing", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### T0 — demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("T0", "demo", "nothing", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn mean_max() {
        let (mean, max) = fmt_mean_max(&[1.0, 2.0, 3.0]);
        assert_eq!(mean, "2.000");
        assert_eq!(max, "3.000");
    }
}
