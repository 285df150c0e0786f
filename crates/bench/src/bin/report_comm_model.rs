//! **Experiment F2** — communication vs computation fraction across era
//! machines, and sliced vs ring-Jacobi wire-byte comparison.
//!
//! The same measured execution (per-rank flops, messages, bytes of the
//! distributed engine) priced on all three bundled machine models shows how
//! the network:CPU balance of the host machine moves the parallel-efficiency
//! sweet spot — the Delta's thin network suffers where the Paragon's fat
//! mesh shrugs. A second table compares the default two-stage sliced
//! eigensolver's measured traffic against the ring-Jacobi reference: the
//! sliced solver replaces O(sweeps·N²)-byte column rotations with one
//! allreduce of ρ's bond blocks (O(N·neighbours)) plus an O(N) spectrum
//! allgather, and its byte total is the one the cost model predicts
//! (`sliced_wire_bytes`).
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_comm_model [-- reps] [--json path]`
//!
//! Check mode (CI gate): `-- 2 check` asserts that the sliced solver moves
//! exactly the predicted bytes at every P, and strictly fewer than
//! ring-Jacobi at N = 64, P = 4; exits non-zero otherwise.

use tbmd::model::{bond_block_elements, NeighborWorkspace, OrbitalIndex, TbModel};
use tbmd::parallel::{estimate_cost, sliced_wire_bytes, MachineProfile};
use tbmd::{silicon_gsp, DistributedSolver, DistributedTb, ForceProvider, Species};
use tbmd_bench::{check_gate, fmt_f, fmt_s, BenchArgs, Report, ReportTable};

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

    let mut solvers = ReportTable::new(
        "F2b: total wire bytes, two-stage sliced (measured, predicted) vs ring-Jacobi reference",
        &[
            "P",
            "sliced/B",
            "predicted/B",
            "ring-Jacobi/B",
            "ratio",
            "ring sweeps",
        ],
    );
    let mut check_result: Option<(u64, u64)> = None;
    let mut mispredicted = Vec::new();
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
        let ring = DistributedTb::new(&model, p).with_solver(DistributedSolver::RingJacobi);
        ring.evaluate(&s).expect("evaluation");
        let ring_report = ring.last_report().expect("report");
        let sliced_bytes = report.stats.total_bytes();
        let predicted = sliced_wire_bytes(s.n_atoms(), index.total(), rho_doubles, p);
        if predicted != sliced_bytes {
            mispredicted.push(p);
        }
        let ring_bytes = ring_report.stats.total_bytes();
        solvers.row(vec![
            p.to_string(),
            sliced_bytes.to_string(),
            predicted.to_string(),
            ring_bytes.to_string(),
            format!(
                "{}x",
                fmt_f(ring_bytes as f64 / sliced_bytes.max(1) as f64, 1)
            ),
            ring_report.jacobi_sweeps.to_string(),
        ]);
        if p == 4 {
            check_result = Some((sliced_bytes, ring_bytes));
        }
    }
    let mut report = Report::new("comm_model");
    report
        .table(machines)
        .table(solvers)
        .note("Shape check: comm fraction grows with P on every machine and is")
        .note("largest on the lowest-bandwidth network (Delta/CM-5 > Paragon).")
        .note("The sliced solver's byte total sits far below ring-Jacobi at every P.");
    report.emit(&args);

    if args.check {
        check_gate(
            mispredicted.is_empty(),
            &format!(
                "sliced wire bytes equal the cost model's at every P (off at P = {mispredicted:?})"
            ),
        );
        let (sliced, ring) = check_result.expect("P=4 row measured");
        check_gate(
            sliced < ring,
            &format!(
                "sliced solver moved {sliced} bytes, ring-Jacobi {ring} bytes (N = {}, P = 4)",
                s.n_atoms()
            ),
        );
    }
}
