//! What an experiment returns — markdown tables plus notes — and the few
//! helpers every experiment shares.

use std::time::{Duration, Instant};

use tbmd::linalg::Matrix;

/// One markdown table under a bold title.
pub struct Table {
    title: String,
    headers: &'static [&'static str],
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &'static [&'static str]) -> Table {
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Append one row; it must have one cell per header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "{}", self.title);
        self.rows.push(cells);
        self
    }

    fn markdown(&self) -> String {
        let mut out = format!("**{}**\n\n", self.title);
        out += &markdown_row(self.headers.iter().copied());
        out += &format!("|{}\n", "---|".repeat(self.headers.len()));
        for row in &self.rows {
            out += &markdown_row(row.iter().map(String::as_str));
        }
        out
    }
}

/// One table line, `|` inside a cell escaped.
fn markdown_row<'a>(cells: impl Iterator<Item = &'a str>) -> String {
    let cells: Vec<String> = cells.map(|c| c.replace('|', "\\|")).collect();
    format!("| {} |\n", cells.join(" | "))
}

/// An experiment's result: its tables, then notes on what they show.
#[derive(Default)]
pub struct Report {
    tables: Vec<Table>,
    notes: Vec<String>,
}

impl Report {
    pub fn table(&mut self, table: Table) -> &mut Report {
        self.tables.push(table);
        self
    }

    /// A sentence printed as its own paragraph after the tables.
    pub fn note(&mut self, line: impl Into<String>) -> &mut Report {
        self.notes.push(line.into());
        self
    }

    /// The tables and notes as markdown, blocks separated by blank lines.
    pub fn markdown(&self) -> String {
        let tables = self.tables.iter().map(Table::markdown);
        let notes = self.notes.iter().map(|n| format!("{n}\n"));
        tables.chain(notes).collect::<Vec<_>>().join("\n")
    }
}

/// Milliseconds with three decimals.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Fixed-point with `k` decimals.
pub fn fmt_f(x: f64, k: usize) -> String {
    format!("{x:.k$}")
}

/// Scientific notation with two decimals.
pub fn fmt_e(x: f64) -> String {
    format!("{x:.2e}")
}

/// Best wall time of `reps` calls of `f`, in seconds, and the last result.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("at least one call"))
}

/// A `rows × cols` matrix of uniform entries in [−0.5, 0.5), the same for
/// the same seed on every host.
pub fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(Duration::from_millis(1500)), "1500.000");
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_e(0.000123), "1.23e-4");
    }

    #[test]
    fn report_renders_markdown_tables_then_notes() {
        let mut t = Table::new("T: demo", &["n", "max |Δλ|"]);
        t.row(vec!["1".into(), "x".into()])
            .row(vec!["22".into(), "y|z".into()]);
        let mut r = Report::default();
        r.table(t).note("A note.");
        assert_eq!(
            r.markdown(),
            "**T: demo**\n\n| n | max \\|Δλ\\| |\n|---|---|\n| 1 | x |\n| 22 | y\\|z |\n\
             \nA note.\n"
        );
    }
}
