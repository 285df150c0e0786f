//! Campaign execution: expand, skip completed cells, run the rest.
//!
//! Every cell runs its chain of protocol segments as [`tbmd::Session`]s
//! through the `tbmd-serve` [`Multiplexer`], the quanta of a sweep side by
//! side on the thread team. Each segment is a job at [`JobSpec`]'s defaults
//! (an 8-step quantum, no checkpoints) that may lease the whole team; the
//! multiplexer leases from a [`Budget`] of its own, one thread per hardware
//! thread ([`team::size`]), so a cell below the two-stage floor leases one
//! thread ([`tbmd::EngineKind::useful_threads`]) and that many run at once.
//! A cell's next segment is submitted as its predecessor retires.
//!
//! Determinism holds whatever the schedule because every velocity draw is
//! pinned by the cell seed and every segment boundary carries the exact
//! phase-space endpoint via [`InitialState`] — scheduling order never
//! touches the dynamics.
//!
//! A cell whose build or run fails retires alone: every other cell runs to
//! completion. With a campaign directory, each cell writes a fingerprinted
//! result file the moment it finishes; a re-run (after a kill, a failed
//! cell, or to extend the matrix) reuses every file whose fingerprint still
//! matches and executes only the rest.

use crate::report::{CampaignReport, CellRow};
use crate::spec::{CampaignSpec, CellPlan};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use tbmd::linalg::team;
use tbmd::{Budget, InitialState, SimulationConfig, SimulationSummary};
use tbmd_md::RdfAccumulator;
use tbmd_serve::{JobSpec, Multiplexer, ServeStats};
use tbmd_structure::{apply_strain, Structure};
use tbmd_trace::{Hist, HistSnapshot};

/// Fingerprint over the bit patterns of a summary's final positions,
/// velocities and total energy — equal iff the trajectory endpoints are
/// bitwise equal.
pub fn endpoint_fingerprint(summary: &SimulationSummary) -> u64 {
    let mut bytes = Vec::with_capacity(
        24 * (summary.final_structure.n_atoms() + summary.final_velocities.len()) + 8,
    );
    for p in summary.final_structure.positions() {
        for c in p.to_array() {
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    for v in &summary.final_velocities {
        for c in v.to_array() {
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    bytes.extend_from_slice(&summary.final_total_energy.to_bits().to_le_bytes());
    tbmd_ckpt::fingerprint(&bytes)
}

/// Run a campaign to completion, reusing result files from `dir` when their
/// fingerprints match (`None` runs every cell and writes nothing). If cells
/// fail, the others still run and publish, and the error is the failure of
/// the earliest failed cell in matrix order, naming it.
pub fn run_campaign(spec: &CampaignSpec, dir: Option<&Path>) -> Result<CampaignReport, String> {
    if let Some(dir) = dir {
        std::fs::create_dir_all(cells_dir(dir)).map_err(|e| format!("campaign dir: {e}"))?;
    }
    let mut rows = Vec::new();
    let mut pending = Vec::new();
    for cell in spec.expand() {
        match dir.and_then(|dir| load_cached(dir, &cell)) {
            Some(row) => rows.push(row),
            None => pending.push(cell),
        }
    }
    let publish = |cell: &CellPlan, row: &CellRow| match dir {
        Some(dir) => write_result(dir, cell, row).map_err(|e| format!("{}: {e}", cell.name)),
        None => Ok(()),
    };
    rows.extend(run_cells(&pending, &publish)?);
    Ok(CampaignReport::build(&spec.name, rows))
}

fn cells_dir(dir: &Path) -> PathBuf {
    dir.join("cells")
}

fn result_path(dir: &Path, cell: &CellPlan) -> PathBuf {
    let safe: String = cell
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    // Sanitization is lossy ("a/b" and "a_b" both map to "a_b"); a hash of
    // the unsanitized name keeps distinct cells on distinct files.
    let tag = tbmd_ckpt::fingerprint(cell.name.as_bytes()) as u32;
    cells_dir(dir).join(format!("{safe}-{tag:08x}.json"))
}

/// A stored row, if its fingerprint still matches the cell it would stand
/// in for (a changed spec or seed invalidates it silently — the cell just
/// re-runs).
fn load_cached(dir: &Path, cell: &CellPlan) -> Option<CellRow> {
    let text = std::fs::read_to_string(result_path(dir, cell)).ok()?;
    let v = tbmd_trace::JsonValue::parse(&text).ok()?;
    let stored = v.get("cell_fingerprint")?.as_str()?;
    if stored != format!("{:016x}", cell.fingerprint()) {
        return None;
    }
    let mut row = CellRow::from_json(&v)?;
    // The fingerprint proves the file was written by *some* cell with this
    // physics; the identity fields prove it was written by *this* cell. A
    // misfiled or hand-copied result must read as a miss, not a hit.
    if row.name != cell.name || row.index != cell.index {
        return None;
    }
    row.skipped = true;
    Some(row)
}

fn write_result(dir: &Path, cell: &CellPlan, row: &CellRow) -> std::io::Result<()> {
    let mut v = row.to_json();
    v.set("cell_fingerprint", format!("{:016x}", cell.fingerprint()));
    // Atomic publish: a kill mid-write must not leave a torn file that a
    // resume would half-parse.
    let path = result_path(dir, cell);
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, v.to_compact())?;
    std::fs::rename(&tmp, &path)
}

/// Aggregates carried across a cell's protocol segments.
struct SegmentChain {
    structure: Structure,
    velocities: Option<Vec<tbmd_linalg::Vec3>>,
    drift: f64,
    steps: usize,
    converged: bool,
    last: Option<SimulationSummary>,
}

impl SegmentChain {
    fn new(structure: Structure) -> SegmentChain {
        SegmentChain {
            structure,
            velocities: None,
            drift: 0.0,
            steps: 0,
            converged: true,
            last: None,
        }
    }

    fn initial_state(&mut self) -> InitialState {
        match self.velocities.take() {
            Some(v) if v.len() == self.structure.n_atoms() => {
                InitialState::with_velocities(self.structure.clone(), v)
            }
            // A relaxation segment leaves no velocities; the next segment
            // redraws Maxwell–Boltzmann from the cell seed.
            _ => InitialState::from_structure(self.structure.clone()),
        }
    }

    fn absorb(&mut self, summary: SimulationSummary) {
        self.drift = self.drift.max(summary.conserved_drift);
        self.steps += summary.steps;
        self.converged &= summary.converged;
        self.structure = summary.final_structure.clone();
        self.velocities = Some(summary.final_velocities.clone());
        self.last = Some(summary);
    }
}

fn segment_config(cell: &CellPlan, protocol: tbmd::Protocol) -> SimulationConfig {
    SimulationConfig {
        system: cell.system,
        engine: cell.engine,
        protocol,
        electronic_kt: cell.electronic_kt,
        perturb: 0.0,
        seed: cell.seed,
        record_stride: 0,
    }
}

fn build_row(cell: &CellPlan, chain: SegmentChain, step_hist: &HistSnapshot) -> CellRow {
    let summary = chain.last.expect("cell ran at least one segment");
    let s = &summary.final_structure;
    let peak = RdfAccumulator::of_structure(s).first_peak();
    CellRow {
        index: cell.index,
        name: cell.name.clone(),
        structure: cell.structure_label.clone(),
        perturbation: cell.perturbation_label.clone(),
        protocol: cell.protocol_label.clone(),
        engine: cell.engine_label.clone(),
        pristine: cell.is_pristine(),
        n_atoms: s.n_atoms(),
        seed: cell.seed,
        steps: chain.steps,
        converged: chain.converged,
        potential_ev: summary.final_potential_energy,
        total_ev: summary.final_total_energy,
        drift_ev: chain.drift,
        mean_temp_k: summary.mean_temperature_k,
        rdf_peak_r: peak.map(|(r, _)| r),
        rdf_peak_g: peak.map(|(_, g)| g),
        endpoint: endpoint_fingerprint(&summary),
        formation_ev: None,
        skipped: false,
        step_p50_ns: step_hist.percentile_ns(0.50),
        step_p95_ns: step_hist.percentile_ns(0.95),
        step_p99_ns: step_hist.percentile_ns(0.99),
        step_samples: step_hist.count(),
    }
}

/// Run a batch of cells through a [`Multiplexer`]: every cell's first
/// segment is submitted up front; each retiring segment triggers the
/// submission of its successor (with the endpoint carried and the
/// inter-segment strain applied) until all chains finish. Cells retire in
/// completion order, and each is handed to `publish` with its own plan as
/// it does. A cell that fails to build, run or publish drops out alone; the
/// error of the earliest one in matrix order comes back once the rest are
/// done.
fn run_cells(
    cells: &[CellPlan],
    publish: &dyn Fn(&CellPlan, &CellRow) -> Result<(), String>,
) -> Result<Vec<CellRow>, String> {
    struct Pending<'a> {
        cell: &'a CellPlan,
        seg: usize,
        chain: SegmentChain,
        step_hist: HistSnapshot,
    }

    let stats = ServeStats::new(Budget::new(team::size()));
    let mut mux = Multiplexer::with_stats(stats.clone());
    // Keyed by the job name of the segment each cell is running. Labels may
    // repeat across a matrix, so the name leads with the cell's index.
    let mut pending: HashMap<String, Pending> = HashMap::new();
    let mut failures = Vec::new();

    let submit = |mux: &mut Multiplexer, entry: &mut Pending<'_>| {
        let name = format!("{}#{}#s{}", entry.cell.index, entry.cell.name, entry.seg);
        let config = segment_config(entry.cell, entry.cell.segments[entry.seg]);
        let mut job = JobSpec::new(name.clone(), config).with_initial(entry.chain.initial_state());
        job.threads = team::size();
        mux.submit(job, std::io::sink());
        name
    };

    for cell in cells {
        match cell.build_initial() {
            Ok(structure) => {
                let mut entry = Pending {
                    cell,
                    seg: 0,
                    chain: SegmentChain::new(structure),
                    step_hist: HistSnapshot::default(),
                };
                pending.insert(submit(&mut mux, &mut entry), entry);
            }
            Err(e) => failures.push((cell.index, e)),
        }
    }

    let mut rows = Vec::new();
    while !pending.is_empty() {
        mux.tick();
        for report in mux.take_reports() {
            let mut entry = pending
                .remove(&report.name)
                .expect("every job is a pending cell's segment");
            let summary = match report.outcome {
                Ok(summary) => summary,
                Err(detail) => {
                    failures.push((entry.cell.index, format!("{}: {detail}", entry.cell.name)));
                    continue;
                }
            };
            // Fold this segment's step-latency histogram into the cell's.
            if let Some(seg_sink) = stats.tenant_sink(&report.name) {
                entry.step_hist = entry
                    .step_hist
                    .merge(seg_sink.histograms().hist(Hist::Step));
            }
            entry.chain.absorb(summary);
            entry.seg += 1;
            if entry.seg < entry.cell.segments.len() {
                let strain = entry.cell.strain_per_segment;
                if strain != [0.0; 3] {
                    apply_strain(&mut entry.chain.structure, strain);
                }
                pending.insert(submit(&mut mux, &mut entry), entry);
            } else {
                let row = build_row(entry.cell, entry.chain, &entry.step_hist);
                match publish(entry.cell, &row) {
                    Ok(()) => rows.push(row),
                    Err(e) => failures.push((entry.cell.index, e)),
                }
            }
        }
    }
    match failures.into_iter().min_by_key(|(index, _)| *index) {
        Some((_, error)) => Err(error),
        None => Ok(rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_collisions_get_distinct_result_paths() {
        // "a b" and "a_b" both sanitize to "a_b"; the name-hash suffix must
        // keep their result files apart.
        let spec = CampaignSpec::from_json(
            r#"{
                "structures": [
                    {"label": "a b", "system": "si"},
                    {"label": "a_b", "system": "si"}
                ],
                "protocols": [{"label": "nve", "kind": "nve", "steps": 1}]
            }"#,
        )
        .expect("parse");
        let cells = spec.expand();
        assert_eq!(cells.len(), 2);
        let dir = Path::new("campaign");
        assert_ne!(result_path(dir, &cells[0]), result_path(dir, &cells[1]));
    }
}
