//! # tbmd-bench
//!
//! Benchmark harness for the reproduction: shared CLI parsing, table
//! formatting (text or JSON) and check-gate helpers used by the report
//! binaries (one per experiment in DESIGN.md, `src/bin/report_*.rs`).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tbmd_linscale::chebyshev::spectral_window;
use tbmd_linscale::{BlockRecurrence, LocalRegion, SparseH};
use tbmd_model::{OrbitalIndex, TbModel};
use tbmd_structure::{NeighborList, Structure};

pub use tbmd_trace::JsonValue;

/// Atom 0's localization region of a structure with everything a block
/// recurrence on it starts from — what the kernel timers and the
/// block-vs-scalar check share.
pub struct RegionFixture {
    pub index: OrbitalIndex,
    pub h: SparseH,
    pub region: LocalRegion,
    /// First padded row of atom 0 in `region`.
    pub row0: usize,
    /// `(shift, scale)` of the Gershgorin window of `h`.
    pub window: (f64, f64),
}

impl RegionFixture {
    pub fn new(s: &Structure, model: &dyn TbModel, r_loc: f64) -> Self {
        let nl = NeighborList::build(s, model.cutoff());
        let index = OrbitalIndex::new(s);
        let h = SparseH::build(s, &nl, model, &index);
        let (e_min, e_max) = h.gershgorin_bounds();
        let region = LocalRegion::build(s, &index, &h, 0, r_loc);
        let row0 = region.local_index(index.offset(0)).expect("centre");
        RegionFixture {
            index,
            window: spectral_window(e_min, e_max),
            h,
            region,
            row0,
        }
    }

    /// The four-column recurrence seeded at atom 0, advanced `steps` times.
    pub fn recurrence(&self, steps: usize) -> BlockRecurrence<'_> {
        let (shift, scale) = self.window;
        let mut rec = BlockRecurrence::new(&self.region, self.row0, 4, shift, scale);
        for _ in 0..steps {
            rec.advance();
        }
        rec
    }

    /// Floating-point operations of one recurrence step (4 columns).
    pub fn step_flops(&self) -> f64 {
        2.0 * 4.0 * self.region.nnz() as f64
    }
}

/// Parsed command line of a report binary: positional arguments, a `check`
/// flag anywhere, and `--json <path>` for machine-readable output.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    positional: Vec<String>,
    /// CI gate mode (`check` appeared anywhere on the command line).
    pub check: bool,
    /// Mirror the report as JSON to this path.
    pub json: Option<PathBuf>,
    /// Gate threshold for a timing ratio (`--threshold <x>`), for the bins
    /// whose gate is one (`report_telemetry`: observed / unobserved wall).
    pub threshold: Option<f64>,
}

impl BenchArgs {
    /// Parse the process arguments (everything after the binary name).
    pub fn parse() -> BenchArgs {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse an explicit argument list (testable variant of [`parse`]).
    ///
    /// [`parse`]: BenchArgs::parse
    pub fn from_args(args: impl IntoIterator<Item = String>) -> BenchArgs {
        let mut out = BenchArgs::default();
        let mut iter = args.into_iter();
        while let Some(a) = iter.next() {
            if a == "check" {
                out.check = true;
            } else if a == "--json" {
                out.json = iter.next().map(PathBuf::from);
            } else if a == "--threshold" {
                out.threshold = iter.next().and_then(|s| s.parse().ok());
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// Positional argument `i` (0-based, flags excluded) as `usize`.
    pub fn pos_usize(&self, i: usize, default: usize) -> usize {
        self.positional
            .get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// The `--threshold` value, or `default` when absent.
    pub fn threshold_or(&self, default: f64) -> f64 {
        self.threshold.unwrap_or(default)
    }
}

/// One aligned table of a report, printable as era-style text or JSON.
#[derive(Debug, Clone)]
pub struct ReportTable {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl ReportTable {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> ReportTable {
        ReportTable {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (cells must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.headers.len(), "{}", self.title);
        self.rows.push(cells);
        self
    }

    /// Print as an aligned text table in the style of the era's papers.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("  {}", header_line.join("   "));
        println!("  {}", "-".repeat(header_line.join("   ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("  {}", line.join("   "));
        }
    }

    /// `{"title": ..., "headers": [...], "rows": [[...], ...]}`.
    pub fn to_json(&self) -> JsonValue {
        let headers: Vec<JsonValue> = self.headers.iter().map(|h| h.as_str().into()).collect();
        let rows: Vec<JsonValue> = self
            .rows
            .iter()
            .map(|r| {
                JsonValue::from(
                    r.iter()
                        .map(|c| c.as_str().into())
                        .collect::<Vec<JsonValue>>(),
                )
            })
            .collect();
        let mut v = JsonValue::object();
        v.set("title", self.title.as_str())
            .set("headers", JsonValue::from(headers))
            .set("rows", JsonValue::from(rows));
        v
    }
}

/// A whole report: named tables plus free-form notes, emitted as text and
/// optionally mirrored to `--json <path>`.
#[derive(Debug, Clone)]
pub struct Report {
    pub name: String,
    pub tables: Vec<ReportTable>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(name: impl Into<String>) -> Report {
        Report {
            name: name.into(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn table(&mut self, table: ReportTable) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// A shape-check / commentary line printed after the tables.
    pub fn note(&mut self, line: impl Into<String>) -> &mut Self {
        self.notes.push(line.into());
        self
    }

    /// `{"report": ..., "tables": [...], "notes": [...]}`.
    pub fn to_json(&self) -> JsonValue {
        let tables: Vec<JsonValue> = self.tables.iter().map(|t| t.to_json()).collect();
        let notes: Vec<JsonValue> = self.notes.iter().map(|n| n.as_str().into()).collect();
        let mut v = JsonValue::object();
        v.set("report", self.name.as_str())
            .set("tables", JsonValue::from(tables))
            .set("notes", JsonValue::from(notes));
        v
    }

    /// Print the text report; mirror it to `args.json` when requested.
    pub fn emit(&self, args: &BenchArgs) {
        for t in &self.tables {
            t.print();
        }
        if !self.notes.is_empty() {
            println!();
            for n in &self.notes {
                println!("{n}");
            }
        }
        if let Some(path) = &args.json {
            write_json(path, &self.to_json());
        }
    }
}

/// Write a JSON document to `path` (single trailing newline). Aborts the
/// report on failure — a CI artifact silently missing is worse than a
/// non-zero exit.
pub fn write_json(path: &Path, value: &JsonValue) {
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    writeln!(f, "{}", value.to_compact())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

/// CI gate verdict: prints `CHECK PASSED`/`CHECK FAILED` and exits non-zero
/// on failure.
pub fn check_gate(pass: bool, detail: &str) {
    if pass {
        println!("\nCHECK PASSED: {detail}");
    } else {
        println!("\nCHECK FAILED: {detail}");
        std::process::exit(1);
    }
}

/// Milliseconds with three decimals.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Seconds with three decimals.
pub fn fmt_s(x: f64) -> String {
    format!("{x:.3}")
}

/// Fixed-point with `k` decimals.
pub fn fmt_f(x: f64, k: usize) -> String {
    format!("{x:.k$}")
}

/// Scientific notation with two decimals.
pub fn fmt_e(x: f64) -> String {
    format!("{x:.2e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(Duration::from_millis(1500)), "1500.000");
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_e(0.000123), "1.23e-4");
        assert_eq!(fmt_s(1.23456), "1.235");
    }

    #[test]
    fn table_does_not_panic() {
        let mut t = ReportTable::new("test", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()])
            .row(vec!["333".into(), "4".into()]);
        t.print();
    }

    #[test]
    fn args_parse_flags_and_positionals() {
        let args = BenchArgs::from_args(
            ["4", "check", "--json", "out.json", "7"]
                .into_iter()
                .map(String::from),
        );
        assert!(args.check);
        assert_eq!(args.json.as_deref(), Some(Path::new("out.json")));
        assert_eq!(args.pos_usize(0, 0), 4);
        assert_eq!(args.pos_usize(1, 0), 7);
        assert_eq!(args.pos_usize(2, 9), 9);
        assert_eq!(args.threshold_or(1.6), 1.6);
    }

    #[test]
    fn args_parse_threshold() {
        let args = BenchArgs::from_args(
            ["check", "--threshold", "1.4"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(args.threshold_or(1.6), 1.4);
    }

    #[test]
    fn report_json_roundtrips() {
        let mut t = ReportTable::new("T", &["n", "v"]);
        t.row(vec!["1".into(), "x".into()]);
        let mut r = Report::new("demo");
        r.table(t).note("shape check line");
        let text = r.to_json().to_compact();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed.get("report").unwrap().as_str().unwrap(), "demo");
        let tables = parsed.get("tables").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(
            tables[0].get("rows").unwrap().as_array().unwrap()[0]
                .as_array()
                .unwrap()[1]
                .as_str()
                .unwrap(),
            "x"
        );
    }
}
