//! Per-cell result rows and the aggregated campaign report.
//!
//! A [`CellRow`] separates *deterministic* observables (energies, drift,
//! temperature statistics, the RDF peak, the phase-space endpoint
//! fingerprint — all derived from simulation state, byte-equal across equal
//! runs) from *wall-clock* observables (step-latency percentiles from the
//! cell's scoped histogram), which are reported but excluded from
//! determinism checks and resume fingerprints.

use std::collections::HashMap;
use tbmd_trace::JsonValue;

/// One cell's results.
#[derive(Debug, Clone)]
pub struct CellRow {
    /// Position in the expanded matrix (row ordering key).
    pub index: usize,
    pub name: String,
    pub structure: String,
    pub perturbation: String,
    pub protocol: String,
    pub engine: String,
    /// Whether this cell is a formation-energy reference.
    pub pristine: bool,
    pub n_atoms: usize,
    pub seed: u64,
    /// MD steps (or relaxation iterations) across all segments.
    pub steps: usize,
    pub converged: bool,
    /// Final potential energy (eV) — the free energy of the cell at the
    /// electronic temperature the campaign runs at.
    pub potential_ev: f64,
    pub total_ev: f64,
    /// Peak conserved-quantity drift (eV), maximized over segments.
    pub drift_ev: f64,
    pub mean_temp_k: f64,
    /// First maximum of g(r) on the final configuration.
    pub rdf_peak_r: Option<f64>,
    pub rdf_peak_g: Option<f64>,
    /// Fingerprint over the bit patterns of final positions, velocities and
    /// total energy — the bitwise-reproducibility witness.
    pub endpoint: u64,
    /// Formation energy vs the pristine reference cell (eV); filled by
    /// [`CampaignReport::build`], `None` for pristine rows or when no
    /// reference with the same structure/protocol/engine exists.
    pub formation_ev: Option<f64>,
    /// Whether this row was reused from a previous run's result file.
    pub skipped: bool,
    /// Step-latency percentiles (ns) from the cell's scoped histogram.
    /// Wall-clock: excluded from determinism comparisons.
    pub step_p50_ns: Option<f64>,
    pub step_p95_ns: Option<f64>,
    pub step_p99_ns: Option<f64>,
    pub step_samples: u64,
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex(v: &JsonValue, key: &str) -> Option<u64> {
    u64::from_str_radix(v.get(key)?.as_str()?, 16).ok()
}

impl CellRow {
    /// Serialize for the per-cell result file / JSONL artifact. u64
    /// identities go as hex strings (JSON numbers are f64-backed and would
    /// round them); everything else round-trips losslessly through
    /// `JsonValue`'s shortest-round-trip float formatting.
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::object();
        v.set("index", self.index)
            .set("name", self.name.as_str())
            .set("structure", self.structure.as_str())
            .set("perturbation", self.perturbation.as_str())
            .set("protocol", self.protocol.as_str())
            .set("engine", self.engine.as_str())
            .set("pristine", self.pristine)
            .set("n_atoms", self.n_atoms)
            .set("seed", hex(self.seed))
            .set("steps", self.steps)
            .set("converged", self.converged)
            .set("potential_ev", self.potential_ev)
            .set("total_ev", self.total_ev)
            .set("drift_ev", self.drift_ev)
            .set("mean_temp_k", self.mean_temp_k)
            .set("endpoint", hex(self.endpoint))
            .set("step_samples", self.step_samples);
        if let Some(r) = self.rdf_peak_r {
            v.set("rdf_peak_r", r);
        }
        if let Some(g) = self.rdf_peak_g {
            v.set("rdf_peak_g", g);
        }
        if let Some(e) = self.formation_ev {
            v.set("formation_ev", e);
        }
        if let Some(p) = self.step_p50_ns {
            v.set("step_p50_ns", p);
        }
        if let Some(p) = self.step_p95_ns {
            v.set("step_p95_ns", p);
        }
        if let Some(p) = self.step_p99_ns {
            v.set("step_p99_ns", p);
        }
        v
    }

    /// Parse a row back from [`CellRow::to_json`] output.
    pub fn from_json(v: &JsonValue) -> Option<CellRow> {
        let s = |key: &str| Some(v.get(key)?.as_str()?.to_string());
        let f = |key: &str| v.get(key).and_then(|x| x.as_f64());
        Some(CellRow {
            index: f("index")? as usize,
            name: s("name")?,
            structure: s("structure")?,
            perturbation: s("perturbation")?,
            protocol: s("protocol")?,
            engine: s("engine")?,
            pristine: v.get("pristine")?.as_bool()?,
            n_atoms: f("n_atoms")? as usize,
            seed: parse_hex(v, "seed")?,
            steps: f("steps")? as usize,
            converged: v.get("converged")?.as_bool()?,
            potential_ev: f("potential_ev")?,
            total_ev: f("total_ev")?,
            drift_ev: f("drift_ev")?,
            mean_temp_k: f("mean_temp_k")?,
            rdf_peak_r: f("rdf_peak_r"),
            rdf_peak_g: f("rdf_peak_g"),
            endpoint: parse_hex(v, "endpoint")?,
            formation_ev: f("formation_ev"),
            skipped: false,
            step_p50_ns: f("step_p50_ns"),
            step_p95_ns: f("step_p95_ns"),
            step_p99_ns: f("step_p99_ns"),
            step_samples: f("step_samples").unwrap_or(0.0) as u64,
        })
    }

    /// Canonical string over the deterministic observables only — two
    /// invocations of the same campaign must produce byte-equal keys even
    /// though their wall-clock latency fields differ.
    pub fn deterministic_key(&self) -> String {
        format!(
            "{}|{:016x}|{:016x}|{:016x}|{:016x}|{:016x}|{:?}|{:?}|{}|{}",
            self.name,
            self.endpoint,
            self.potential_ev.to_bits(),
            self.total_ev.to_bits(),
            self.drift_ev.to_bits(),
            self.mean_temp_k.to_bits(),
            self.rdf_peak_r.map(f64::to_bits),
            self.rdf_peak_g.map(f64::to_bits),
            self.steps,
            self.n_atoms
        )
    }
}

/// The aggregated campaign outcome.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub name: String,
    /// Rows in matrix order.
    pub rows: Vec<CellRow>,
    /// Cells executed by this invocation.
    pub executed: usize,
    /// Cells reused from result files of a previous invocation.
    pub reused: usize,
}

impl CampaignReport {
    /// Assemble the report: order rows, then fill formation energies —
    /// for each defect row, `E_f = E_defect − (N_defect / N_ref) · E_ref`
    /// against the pristine row running the same structure, protocol and
    /// engine.
    pub fn build(name: &str, mut rows: Vec<CellRow>) -> CampaignReport {
        rows.sort_by_key(|r| r.index);
        let executed = rows.iter().filter(|r| !r.skipped).count();
        let reused = rows.len() - executed;
        let references: HashMap<(String, String, String), (usize, f64)> = rows
            .iter()
            .filter(|r| r.pristine)
            .map(|r| {
                (
                    (r.structure.clone(), r.protocol.clone(), r.engine.clone()),
                    (r.n_atoms, r.potential_ev),
                )
            })
            .collect();
        for row in rows.iter_mut().filter(|r| !r.pristine) {
            let key = (
                row.structure.clone(),
                row.protocol.clone(),
                row.engine.clone(),
            );
            if let Some(&(ref_atoms, ref_pot)) = references.get(&key) {
                if ref_atoms > 0 {
                    let per_atom = ref_pot / ref_atoms as f64;
                    row.formation_ev = Some(row.potential_ev - row.n_atoms as f64 * per_atom);
                }
            }
        }
        CampaignReport {
            name: name.to_string(),
            rows,
            executed,
            reused,
        }
    }

    pub fn row(&self, name: &str) -> Option<&CellRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// The JSONL artifact: one campaign header line, then one line per cell.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut header = JsonValue::object();
        header
            .set("type", "campaign")
            .set("name", self.name.as_str())
            .set("cells", self.rows.len())
            .set("executed", self.executed)
            .set("reused", self.reused);
        out.push_str(&header.to_compact());
        out.push('\n');
        for row in &self.rows {
            let mut line = row.to_json();
            line.set("type", "cell").set("skipped", row.skipped);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        out
    }

    /// A fixed-width comparison table over the matrix.
    pub fn render_table(&self) -> String {
        let fmt_opt = |x: Option<f64>, digits: usize| match x {
            Some(x) => format!("{x:.digits$}"),
            None => "-".to_string(),
        };
        let mut out = format!(
            "campaign {} — {} cells ({} executed, {} reused)\n",
            self.name,
            self.rows.len(),
            self.executed,
            self.reused,
        );
        out.push_str(&format!(
            "{:<34} {:>5} {:>14} {:>10} {:>10} {:>8} {:>8} {:>9}\n",
            "cell", "atoms", "E_pot/eV", "E_form/eV", "drift/eV", "T/K", "g(r) pk", "p95/us"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<34} {:>5} {:>14.6} {:>10} {:>10.2e} {:>8.1} {:>8} {:>9}\n",
                r.name,
                r.n_atoms,
                r.potential_ev,
                fmt_opt(r.formation_ev, 4),
                r.drift_ev,
                r.mean_temp_k,
                fmt_opt(r.rdf_peak_r, 2),
                fmt_opt(r.step_p95_ns.map(|ns| ns / 1e3), 0),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(index: usize, name: &str, pristine: bool, n_atoms: usize, pot: f64) -> CellRow {
        CellRow {
            index,
            name: name.to_string(),
            structure: "si1".to_string(),
            perturbation: if pristine { "pristine" } else { "vac" }.to_string(),
            protocol: "relax".to_string(),
            engine: "serial".to_string(),
            pristine,
            n_atoms,
            seed: 0xDEAD_BEEF_DEAD_BEEF,
            steps: 10,
            converged: true,
            potential_ev: pot,
            total_ev: pot,
            drift_ev: 1e-6,
            mean_temp_k: 300.0,
            rdf_peak_r: Some(2.35),
            rdf_peak_g: Some(4.0),
            endpoint: 0xFFFF_FFFF_FFFF_FFFF,
            formation_ev: None,
            skipped: false,
            step_p50_ns: Some(1.0e6),
            step_p95_ns: Some(2.0e6),
            step_p99_ns: None,
            step_samples: 10,
        }
    }

    #[test]
    fn formation_energy_uses_pristine_reference() {
        let report = CampaignReport::build(
            "t",
            vec![row(0, "a", true, 8, -40.0), row(1, "b", false, 7, -34.0)],
        );
        // E_f = -34 - 7·(-40/8) = -34 + 35 = 1.
        let e = report.row("b").unwrap().formation_ev.unwrap();
        assert!((e - 1.0).abs() < 1e-12);
        assert!(report.row("a").unwrap().formation_ev.is_none());
    }

    #[test]
    fn row_round_trips_through_json_bitwise() {
        let r = row(3, "x", false, 7, -34.123456789012345);
        let text = r.to_json().to_compact();
        let back = CellRow::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.deterministic_key(), r.deterministic_key());
        assert_eq!(back.seed, r.seed);
        assert_eq!(back.endpoint, r.endpoint);
        assert_eq!(back.potential_ev.to_bits(), r.potential_ev.to_bits());
    }

    #[test]
    fn table_and_jsonl_cover_every_cell() {
        let report = CampaignReport::build(
            "t",
            vec![row(0, "a", true, 8, -40.0), row(1, "b", false, 7, -34.0)],
        );
        let table = report.render_table();
        assert!(table.contains("a") && table.contains("b"));
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl
            .lines()
            .next()
            .unwrap()
            .contains("\"type\":\"campaign\""));
    }
}
