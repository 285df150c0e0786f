//! Campaign execution: expand, skip completed cells, run the rest.
//!
//! Two execution paths produce bitwise-identical physics:
//!
//! * **inline** (default) — cells run sequentially, each as a chain of
//!   [`tbmd::Session`]s under a [`tbmd::ComputeLease`];
//! * **multiplexed** — cells fan out through the `tbmd-serve`
//!   [`Multiplexer`], sharing the process compute budget, the quanta of a
//!   sweep side by side on the thread team.
//!   Follow-up quench segments are submitted as their predecessors retire.
//!
//! Determinism holds across both because every velocity draw is pinned by
//! the cell seed and every segment boundary carries the exact phase-space
//! endpoint via [`InitialState`] — scheduling order never touches the
//! dynamics.
//!
//! With a campaign directory set, each cell writes a fingerprinted result
//! file the moment it finishes, on both paths; a re-run (after a kill, a
//! failed cell, or to extend the matrix) reuses every file whose fingerprint
//! still matches and executes only the rest.

use crate::report::{CampaignReport, CellRow};
use crate::spec::{CampaignSpec, CellPlan};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use tbmd::{
    try_lease, CheckpointStore, InitialState, SessionBuilder, SimulationConfig, SimulationSummary,
};
use tbmd_md::RdfAccumulator;
use tbmd_serve::{JobSpec, Multiplexer};
use tbmd_structure::{apply_strain, Structure};
use tbmd_trace::{Hist, HistSnapshot, ScopedSink};

/// Execution knobs for one campaign invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Campaign directory for resumable per-cell result files (`None`
    /// disables resume).
    pub dir: Option<PathBuf>,
    /// Stop after executing this many *new* cells — a simulated
    /// mid-campaign kill for resume tests; completed cells keep their
    /// result files.
    pub stop_after: Option<usize>,
    /// The most threads each cell leases from the process compute budget: a
    /// dense cell below the two-stage floor leases one
    /// ([`tbmd::EngineKind::useful_threads`]).
    pub threads_per_cell: usize,
    /// In-memory snapshot interval per session (0 disables checkpointing).
    pub checkpoint_interval: usize,
    /// Fan cells out through the serve [`Multiplexer`] instead of running
    /// them sequentially.
    pub multiplex: bool,
    /// Scheduler quantum (MD steps per visit) in multiplexed mode.
    pub quantum: usize,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            dir: None,
            stop_after: None,
            threads_per_cell: 1,
            checkpoint_interval: 0,
            multiplex: false,
            quantum: 8,
        }
    }
}

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

/// Run a campaign to completion (or to `stop_after`), reusing result files
/// from `opts.dir` when their fingerprints match.
pub fn run_campaign(spec: &CampaignSpec, opts: &RunOptions) -> Result<CampaignReport, String> {
    if let Some(dir) = &opts.dir {
        std::fs::create_dir_all(cells_dir(dir)).map_err(|e| format!("campaign dir: {e}"))?;
    }
    let mut rows = Vec::new();
    let mut pending = Vec::new();
    for cell in spec.expand() {
        match opts.dir.as_ref().and_then(|dir| load_cached(dir, &cell)) {
            Some(row) => rows.push(row),
            None => pending.push(cell),
        }
    }
    let budget = opts.stop_after.unwrap_or(pending.len()).min(pending.len());
    let complete = budget == pending.len();
    let to_run = &pending[..budget];
    let publish = |cell: &CellPlan, row: &CellRow| match &opts.dir {
        Some(dir) => write_result(dir, cell, row).map_err(|e| format!("{}: {e}", cell.name)),
        None => Ok(()),
    };
    if opts.multiplex {
        rows.extend(run_cells_multiplexed(to_run, opts, &publish)?);
    } else {
        for cell in to_run {
            let row = run_cell_inline(cell, opts)?;
            publish(cell, &row)?;
            rows.push(row);
        }
    }
    Ok(CampaignReport::build(&spec.name, rows, complete))
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
    // Same binning rule as the core observables: half the shortest
    // periodic edge (minimum-image validity), 5 Å for clusters.
    let r_max = s
        .cell()
        .min_periodic_edge()
        .map_or(5.0, |edge| 0.5 * edge)
        .max(1.0);
    let mut rdf = RdfAccumulator::new(r_max, 64);
    rdf.accumulate(s);
    let peak = rdf.first_peak();
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

/// Run one cell inline: its protocol segments back to back, under one
/// compute lease — as wide as the cell's starting structure can use — and
/// one scoped telemetry sink.
fn run_cell_inline(cell: &CellPlan, opts: &RunOptions) -> Result<CellRow, String> {
    let sink = ScopedSink::new(&cell.name);
    let strain = cell.protocol.inter_segment_strain();
    let mut chain = SegmentChain::new(cell.build_initial()?);
    let width = cell.engine.useful_threads(
        &cell.system,
        Some(&chain.structure),
        opts.threads_per_cell.max(1),
    );
    let mut lease = try_lease(width);
    for (i, protocol) in cell.protocol.segments().into_iter().enumerate() {
        if i > 0 && strain != [0.0; 3] {
            apply_strain(&mut chain.structure, strain);
        }
        let mut builder = SessionBuilder::new(segment_config(cell, protocol))
            .initial_state(chain.initial_state())
            .telemetry(sink.clone());
        if let Some(granted) = lease.take() {
            builder = builder.lease(granted);
        }
        if opts.checkpoint_interval > 0 {
            builder =
                builder.checkpoint_store(CheckpointStore::in_memory(3), opts.checkpoint_interval);
        }
        let mut session = builder.build().map_err(|e| format!("{}: {e}", cell.name))?;
        let summary = session.run().map_err(|e| format!("{}: {e}", cell.name))?;
        lease = session.take_lease();
        chain.absorb(summary);
    }
    drop(lease);
    let step_hist = sink.histograms().hist(Hist::Step).clone();
    Ok(build_row(cell, chain, &step_hist))
}

/// Run a batch of cells through the serve [`Multiplexer`]: every cell's
/// first segment is submitted up front; each retiring segment triggers the
/// submission of its successor (with the endpoint carried and the
/// inter-segment strain applied) until all chains finish. Cells retire in
/// completion order, and each is handed to `publish` with its own plan as
/// it does.
fn run_cells_multiplexed(
    cells: &[CellPlan],
    opts: &RunOptions,
    publish: &dyn Fn(&CellPlan, &CellRow) -> Result<(), String>,
) -> Result<Vec<CellRow>, String> {
    struct Pending {
        cell: CellPlan,
        segments: Vec<tbmd::Protocol>,
        seg: usize,
        chain: SegmentChain,
        step_hist: HistSnapshot,
    }

    let mut mux = Multiplexer::new();
    let stats = mux.stats();
    let mut pending: HashMap<String, Pending> = HashMap::new();
    let job_name = |cell: &CellPlan, seg: usize| format!("{}#s{seg}", cell.name);

    let submit = |mux: &mut Multiplexer,
                  cell: &CellPlan,
                  seg: usize,
                  protocol: tbmd::Protocol,
                  initial: InitialState| {
        let mut job =
            JobSpec::new(job_name(cell, seg), segment_config(cell, protocol)).with_initial(initial);
        job.quantum = opts.quantum.max(1);
        job.threads = opts.threads_per_cell.max(1);
        job.checkpoint_interval = opts.checkpoint_interval;
        mux.submit(job, std::io::sink());
    };

    for cell in cells {
        let segments = cell.protocol.segments();
        let mut chain = SegmentChain::new(cell.build_initial()?);
        submit(&mut mux, cell, 0, segments[0], chain.initial_state());
        pending.insert(
            cell.name.clone(),
            Pending {
                cell: cell.clone(),
                segments,
                seg: 0,
                chain,
                step_hist: HistSnapshot::default(),
            },
        );
    }

    let mut rows = Vec::new();
    while !pending.is_empty() {
        mux.tick();
        for report in mux.take_reports() {
            let base = report
                .name
                .rsplit_once("#s")
                .map(|(b, _)| b.to_string())
                .unwrap_or_else(|| report.name.clone());
            let summary = report
                .outcome
                .map_err(|detail| format!("{}: {detail}", report.name))?;
            let entry = pending
                .get_mut(&base)
                .ok_or_else(|| format!("report for unknown cell {base:?}"))?;
            // Fold this segment's step-latency histogram into the cell's.
            if let Some(seg_sink) = stats.tenant_sink(&report.name) {
                entry.step_hist = entry
                    .step_hist
                    .merge(seg_sink.histograms().hist(Hist::Step));
            }
            entry.chain.absorb(summary);
            entry.seg += 1;
            if entry.seg < entry.segments.len() {
                let strain = entry.cell.protocol.inter_segment_strain();
                if strain != [0.0; 3] {
                    apply_strain(&mut entry.chain.structure, strain);
                }
                let initial = entry.chain.initial_state();
                let (cell, seg, protocol) =
                    (entry.cell.clone(), entry.seg, entry.segments[entry.seg]);
                submit(&mut mux, &cell, seg, protocol, initial);
            } else {
                let done = pending.remove(&base).expect("entry just updated");
                let row = build_row(&done.cell, done.chain, &done.step_hist);
                publish(&done.cell, &row)?;
                rows.push(row);
            }
        }
    }
    Ok(rows)
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
