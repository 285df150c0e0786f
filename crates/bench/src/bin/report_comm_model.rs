//! **Experiment F2** — communication vs computation fraction across era
//! machines, and the distributed engine's wire bytes against the cost model.
//!
//! The same measured execution (per-rank flops, messages, bytes of the
//! distributed engine) priced on all three bundled machine models shows how
//! the network:CPU balance of the host machine moves the parallel-efficiency
//! sweet spot — the Delta's thin network suffers where the Paragon's fat
//! mesh shrugs. A second table sets the engine's measured traffic — one
//! allreduce of ρ's bond blocks (O(N·neighbours)) plus an O(N) spectrum
//! allgather and the position/force collectives — beside the byte total the
//! cost model predicts (`sliced_wire_bytes`); their equality is pinned in
//! tier-1 (`tests/solver_equivalence.rs`).
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_comm_model [-- reps] [--json path]`

use tbmd::model::{bond_block_elements, NeighborWorkspace, OrbitalIndex, TbModel};
use tbmd::parallel::{estimate_cost, sliced_wire_bytes, MachineProfile};
use tbmd::{silicon_gsp, DistributedTb, ForceProvider, Species};
use tbmd_bench::{fmt_f, fmt_s, BenchArgs, Report, ReportTable};

fn main() {
    let args = BenchArgs::parse();
    let reps = args.pos_usize(0, 2);
    let s = tbmd::structure::bulk_diamond(Species::Silicon, reps, reps, reps);
    let model = silicon_gsp();
    println!("workload: one TBMD step, Si N = {} atoms", s.n_atoms());

    let mut machines = ReportTable::new(
        "F2: communication share of one TBMD step across era machines (sliced solver)",
        &["P", "machine", "comp/s", "comm/s", "comm fraction"],
    );
    // The ρ payload: the bond blocks of the list every rank's replica holds.
    let index = OrbitalIndex::new(&s);
    let mut replica = NeighborWorkspace::default();
    replica.update(&s, model.cutoff());
    let rho_doubles = bond_block_elements(replica.list(), &index);
    println!(
        "rho allreduce payload: {rho_doubles} doubles in bond blocks (full matrix: {})",
        index.total() * index.total()
    );

    let mut bytes = ReportTable::new(
        "F2b: total wire bytes of one evaluation, measured vs cost model",
        &["P", "measured/B", "predicted/B"],
    );
    for p in [2usize, 4, 8] {
        let engine = DistributedTb::new(&model, p);
        engine.evaluate(&s).expect("evaluation");
        let report = engine.last_report().expect("report");
        for machine in MachineProfile::all() {
            let est = estimate_cost(&machine, &report.stats);
            machines.row(vec![
                p.to_string(),
                machine.name.clone(),
                fmt_s(est.comp_s),
                fmt_s(est.comm_s),
                format!("{}%", fmt_f(100.0 * est.comm_fraction(), 1)),
            ]);
        }
        let predicted = sliced_wire_bytes(s.n_atoms(), index.total(), rho_doubles, p);
        bytes.row(vec![
            p.to_string(),
            report.stats.total_bytes().to_string(),
            predicted.to_string(),
        ]);
    }
    let mut report = Report::new("comm_model");
    report
        .table(machines)
        .table(bytes)
        .note("Shape check: comm fraction grows with P on every machine and is")
        .note("largest on the lowest-bandwidth network (Delta/CM-5 > Paragon).");
    report.emit(&args);
}
