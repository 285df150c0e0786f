//! The message-passing engines priced on era machines: strong scaling (T2),
//! isogranular scaling (F1), the communication share (F2) and weak scaling
//! restored by O(N) (F8). Every column but `|ΔE|` and the byte and message
//! counts is the engine's measured flops and traffic priced by
//! `tbmd_parallel::cost_model`.

use tbmd::model::{bond_block_elements, NeighborWorkspace, OrbitalIndex, TbModel};
use tbmd::parallel::{estimate_cost, scaling, sliced_wire_bytes, CostEstimate, MachineProfile};
use tbmd::structure::bulk_diamond;
use tbmd::{
    silicon_gsp, DistributedLinearScalingTb, DistributedTb, ForceProvider, LinearScalingTb,
    Species, Structure, TbCalculator,
};

use crate::report::{fmt_e, fmt_f, Report, Table};

/// One evaluation of `s` on `p` ranks of the dense distributed engine,
/// priced on `machine`.
fn dense_cost(s: &Structure, p: usize, machine: &MachineProfile) -> CostEstimate {
    let model = silicon_gsp();
    let engine = DistributedTb::new(&model, p);
    engine.evaluate(s).expect("distributed evaluation");
    estimate_cost(machine, &engine.last_report().expect("report").stats)
}

fn percent(x: f64) -> String {
    format!("{}%", fmt_f(100.0 * x, 1))
}

/// The isogranular ladder: 8 atoms per rank, P = 1, 2, 4, 8 on cells of
/// 1, 2, 4 and 8 diamond unit cells.
fn isogranular() -> [(usize, Structure); 4] {
    [
        (1, (1, 1, 1)),
        (2, (2, 1, 1)),
        (4, (2, 2, 1)),
        (8, (2, 2, 2)),
    ]
    .map(|(p, (nx, ny, nz))| (p, bulk_diamond(Species::Silicon, nx, ny, nz)))
}

/// T2: one step of Si diamond `size`³ (default 2) on P = 1 … 16 ranks.
pub fn speedup(size: Option<usize>) -> Report {
    let reps = size.unwrap_or(2);
    let s = bulk_diamond(Species::Silicon, reps, reps, reps);
    let model = silicon_gsp();
    let reference = TbCalculator::new(&model)
        .evaluate(&s)
        .expect("serial evaluation")
        .energy;
    let machine = MachineProfile::intel_paragon();
    let mut table = Table::new(
        format!(
            "T2: strong scaling of one step, Si-{} ({} orbitals), distributed engine on the {} model",
            s.n_atoms(),
            s.n_orbitals(),
            machine.name
        ),
        &[
            "P",
            "|ΔE|/eV",
            "msgs",
            "MB",
            "comp/s",
            "comm/s",
            "total/s",
            "speedup",
            "efficiency",
        ],
    );
    let mut baseline = None;
    for p in [1usize, 2, 4, 8, 16] {
        let engine = DistributedTb::new(&model, p);
        let energy = engine.evaluate(&s).expect("distributed evaluation").energy;
        let stats = &engine.last_report().expect("report").stats;
        let est = estimate_cost(&machine, stats);
        let sc = scaling(baseline.get_or_insert_with(|| est.clone()), &est, p);
        table.row(vec![
            p.to_string(),
            fmt_e((energy - reference).abs()),
            stats.total_messages().to_string(),
            fmt_f(stats.total_bytes() as f64 / 1e6, 2),
            fmt_f(est.comp_s, 3),
            fmt_f(est.comm_s, 3),
            fmt_f(est.total_s(), 3),
            fmt_f(sc.speedup, 2),
            percent(sc.efficiency),
        ]);
    }
    let mut report = Report::default();
    report.table(table);
    report
}

/// F1: isogranular scaling of the dense distributed engine.
pub fn scaled_speedup(_: Option<usize>) -> Report {
    let machine = MachineProfile::intel_paragon();
    let mut table = Table::new(
        format!(
            "F1: isogranular step time, 8 atoms per rank, {} model",
            machine.name
        ),
        &["P", "N", "comp/s", "comm/s", "total/s", "comm frac"],
    );
    for (p, s) in isogranular() {
        let est = dense_cost(&s, p, &machine);
        table.row(vec![
            p.to_string(),
            s.n_atoms().to_string(),
            fmt_f(est.comp_s, 3),
            fmt_f(est.comm_s, 3),
            fmt_f(est.total_s(), 3),
            percent(est.comm_fraction()),
        ]);
    }
    let mut report = Report::default();
    report.table(table);
    report
}

/// F2: one step of Si diamond `size`³ (default 2) on P = 2, 4, 8 ranks,
/// priced on every bundled machine, and its wire bytes against the cost
/// model's formula.
pub fn comm_model(size: Option<usize>) -> Report {
    let reps = size.unwrap_or(2);
    let s = bulk_diamond(Species::Silicon, reps, reps, reps);
    let model = silicon_gsp();
    // The ρ payload: the bond blocks of the list every rank's replica holds.
    let index = OrbitalIndex::new(&s);
    let mut replica = NeighborWorkspace::default();
    replica.update(&s, model.cutoff());
    let rho_doubles = bond_block_elements(replica.list(), &index);

    let mut machines = Table::new(
        format!(
            "F2: communication share of one step across era machines, Si-{}",
            s.n_atoms()
        ),
        &["P", "machine", "comp/s", "comm/s", "comm fraction"],
    );
    let mut bytes = Table::new(
        "F2b: wire bytes of one evaluation, measured vs cost model",
        &["P", "measured/B", "predicted/B"],
    );
    for p in [2usize, 4, 8] {
        let engine = DistributedTb::new(&model, p);
        engine.evaluate(&s).expect("distributed evaluation");
        let stats = &engine.last_report().expect("report").stats;
        for machine in MachineProfile::all() {
            let est = estimate_cost(&machine, stats);
            machines.row(vec![
                p.to_string(),
                machine.name.clone(),
                fmt_f(est.comp_s, 3),
                fmt_f(est.comm_s, 3),
                percent(est.comm_fraction()),
            ]);
        }
        bytes.row(vec![
            p.to_string(),
            stats.total_bytes().to_string(),
            sliced_wire_bytes(s.n_atoms(), rho_doubles, p).to_string(),
        ]);
    }
    let mut report = Report::default();
    report.table(machines).table(bytes).note(format!(
        "The ρ allreduce carries the {rho_doubles} doubles of the bond blocks, not the {} of the full matrix.",
        index.total() * index.total()
    ));
    report
}

/// F8: the isogranular ladder for the dense engine and the distributed
/// O(N) engine (order 150, r_loc 5 Å, kT 0.3 eV).
pub fn on_scaling(_: Option<usize>) -> Report {
    let machine = MachineProfile::intel_paragon();
    let model = silicon_gsp();
    let mut table = Table::new(
        format!(
            "F8: weak scaling, dense vs distributed O(N) step, 8 atoms per rank, {} model (est. s)",
            machine.name
        ),
        &[
            "P",
            "N",
            "dense/s",
            "O(N)/s",
            "dense/O(N)",
            "O(N) comm frac",
        ],
    );
    for (p, s) in isogranular() {
        let dense = dense_cost(&s, p, &machine);
        let on = DistributedLinearScalingTb::new(
            LinearScalingTb::new(&model)
                .with_kt(0.3)
                .with_order(150)
                .with_r_loc(5.0),
            p,
        );
        on.evaluate(&s).expect("O(N) evaluation");
        let on = estimate_cost(&machine, &on.last_report().expect("report").stats);
        table.row(vec![
            p.to_string(),
            s.n_atoms().to_string(),
            fmt_f(dense.total_s(), 3),
            fmt_f(on.total_s(), 3),
            fmt_f(dense.total_s() / on.total_s(), 2),
            percent(on.comm_fraction()),
        ]);
    }
    let mut report = Report::default();
    report.table(table);
    report
}
