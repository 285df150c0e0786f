//! **Baseline** — the machine-readable headline record of the whole bench
//! suite: per-phase timings (including the distributed `communication`
//! phase), wire traffic, eigensolver quality and physics-watchdog verdicts,
//! aggregated into one `BENCH_phase.json`.
//!
//! Sections:
//! * `engines` — T1/T1b condensed: per-phase wall time of one warm force
//!   evaluation for the serial, shared-memory and distributed engines at
//!   two system sizes, with the distributed engine's measured wire bytes.
//! * `eigensolver` — T4b condensed: QL vs two-stage blocked vs partial
//!   solve on the Si-64 Hamiltonian, with residual/orthogonality defects.
//! * `comm_solvers` — F2b condensed: sliced vs ring-Jacobi wire bytes at
//!   N = 64, P = 4.
//! * `watchdogs` — short recorded NVE runs per engine; the JSONL recorder's
//!   drift-watchdog verdict and warn count.
//! * `serve` — two Si-8 tenants through the session multiplexer under a
//!   one-thread compute budget: admission must serialize them (max one
//!   active) while both endpoints stay bitwise the standalone runs.
//! * `campaign` — the Si vacancy-formation headline: a two-cell
//!   pristine/vacancy relax campaign through `tbmd-campaign`, run twice;
//!   the formation energy must be finite, eV-scale, and bitwise stable
//!   (`report_campaign` runs the full matrix/resume/multiplex gate).
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_baseline [-- [--json path]]`
//!
//! Check mode (CI gate): `-- check` regenerates the file, parses it back,
//! and exits non-zero unless every section is present and healthy: ≥ 6
//! engine rows each carrying a `communication` phase, sliced traffic below
//! ring-Jacobi, and every watchdog green.

use std::path::PathBuf;
use std::time::Instant;

use tbmd::linalg::{
    eig_residual, eigh, eigh_blocked_into, eigh_partial_into, orthogonality_defect, EighWorkspace,
};
use tbmd::model::PhaseTimings;
use tbmd::trace::{git_describe, Counter, JsonValue, Phase};
use tbmd::{
    live_vmp_workers, run_manifest, shared_memory_tb, silicon_gsp, CheckpointConfig,
    CheckpointStore, DistributedSolver, DistributedTb, EngineKind, FaultKind, FaultPlan,
    ForceProvider, Hist, RecorderConfig, ResilienceOptions, RunRecorder, SessionBuilder,
    SessionStatus, SimulationConfig, Species, Structure, SystemSpec, TbCalculator, TraceSink,
    Workspace,
};
use tbmd_bench::{check_gate, compare_baselines, fmt_ms, write_json, BenchArgs, ReportTable};
use tbmd_campaign::{run_campaign, CampaignSpec, RunOptions};
use tbmd_model::{build_hamiltonian, OrbitalIndex, TbModel};
use tbmd_serve::{JobSpec, Multiplexer};
use tbmd_structure::NeighborList;

/// One warm force evaluation through a persistent workspace — the steady
/// state an MD loop sees.
fn warm_timings(engine: &dyn ForceProvider, s: &Structure) -> PhaseTimings {
    let mut ws = Workspace::new();
    engine.evaluate_with(s, &mut ws).expect("warmup");
    // Per-phase minimum over a few warm samples: the noise-robust
    // estimator of steady-state cost on a time-shared host (a mean or a
    // single draw folds scheduler preemptions into the baseline).
    let mut best = engine
        .evaluate_with(s, &mut ws)
        .expect("evaluation")
        .timings;
    for _ in 0..2 {
        let t = engine
            .evaluate_with(s, &mut ws)
            .expect("evaluation")
            .timings;
        best.neighbors = best.neighbors.min(t.neighbors);
        best.hamiltonian = best.hamiltonian.min(t.hamiltonian);
        best.diagonalize = best.diagonalize.min(t.diagonalize);
        best.density = best.density.min(t.density);
        best.forces = best.forces.min(t.forces);
        best.communication = best.communication.min(t.communication);
    }
    best
}

fn phases_json(t: &PhaseTimings) -> JsonValue {
    let mut v = JsonValue::object();
    for p in Phase::ALL {
        v.set(p.name(), t.phase(p).as_secs_f64() * 1e3);
    }
    v
}

#[allow(clippy::too_many_arguments)]
fn engine_entry(
    engines: &mut Vec<JsonValue>,
    table: &mut ReportTable,
    label: &str,
    s: &Structure,
    ranks: usize,
    t: &PhaseTimings,
    wire_bytes: u64,
    wire_messages: u64,
) {
    let mut v = JsonValue::object();
    v.set("engine", label)
        .set("n_atoms", s.n_atoms())
        .set("n_ranks", ranks)
        .set("phase_ms", phases_json(t))
        .set("total_ms", t.total().as_secs_f64() * 1e3)
        .set("wire_bytes", wire_bytes)
        .set("wire_messages", wire_messages);
    engines.push(v);
    table.row(vec![
        label.to_string(),
        s.n_atoms().to_string(),
        ranks.to_string(),
        fmt_ms(t.neighbors),
        fmt_ms(t.hamiltonian),
        fmt_ms(t.diagonalize),
        fmt_ms(t.density),
        fmt_ms(t.forces),
        fmt_ms(t.communication),
        fmt_ms(t.total()),
        wire_bytes.to_string(),
    ]);
}

fn main() {
    let args = BenchArgs::parse();
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_phase.json"));
    let model = silicon_gsp();
    let mut root = JsonValue::object();
    root.set("report", "baseline")
        .set("git_describe", git_describe());

    // --- Engines: per-phase breakdown at two sizes (T1/T1b condensed).
    let mut engines: Vec<JsonValue> = Vec::new();
    let mut engine_table = ReportTable::new(
        "Baseline: warm per-phase time per force evaluation (this host)",
        &[
            "engine",
            "N",
            "P",
            "nbrs/ms",
            "H/ms",
            "diag/ms",
            "density/ms",
            "forces/ms",
            "comm/ms",
            "total/ms",
            "wire B",
        ],
    );
    for reps in [1usize, 2] {
        let s = tbmd::structure::bulk_diamond(Species::Silicon, reps, reps, reps);
        let serial = TbCalculator::new(&model);
        let t = warm_timings(&serial, &s);
        engine_entry(&mut engines, &mut engine_table, "serial", &s, 1, &t, 0, 0);

        let shared = shared_memory_tb(&model);
        let t = warm_timings(&shared, &s);
        engine_entry(&mut engines, &mut engine_table, "shared", &s, 1, &t, 0, 0);

        let dist = DistributedTb::new(&model, 4);
        let t = warm_timings(&dist, &s);
        let rep = dist.last_report().expect("distributed report");
        engine_entry(
            &mut engines,
            &mut engine_table,
            "distributed",
            &s,
            4,
            &t,
            rep.stats.total_bytes(),
            rep.stats.total_messages(),
        );
    }
    root.set("engines", engines);

    // --- Eigensolver headline (T4b condensed): Si-64 Hamiltonian.
    let h = {
        let s = tbmd::structure::bulk_diamond(Species::Silicon, 2, 2, 2);
        let nl = NeighborList::build(&s, model.cutoff());
        let index = OrbitalIndex::new(&s);
        build_hamiltonian(&s, &nl, &model, &index)
    };
    let n = h.rows();
    let t0 = Instant::now();
    let ql = eigh(h.clone()).expect("QL");
    let t_ql = t0.elapsed();
    let mut ws = EighWorkspace::default();
    let mut blk = h.clone();
    let mut blk_values = Vec::new();
    let t0 = Instant::now();
    eigh_blocked_into(&mut blk, &mut blk_values, &mut ws).expect("blocked");
    let t_blk = t0.elapsed();
    let blk_eig = tbmd::linalg::Eigh {
        values: blk_values,
        vectors: blk,
    };
    let k = n / 2;
    let mut part_a = h.clone();
    let mut part_values = Vec::new();
    let mut part_vectors = tbmd::Matrix::default();
    let t0 = Instant::now();
    eigh_partial_into(&mut part_a, k, &mut part_values, &mut part_vectors, &mut ws)
        .expect("partial");
    let t_part = t0.elapsed();
    let part_eig = tbmd::linalg::Eigh {
        values: part_values[..k].to_vec(),
        vectors: part_vectors,
    };
    let worst_resid = eig_residual(&h, &blk_eig).max(eig_residual(&h, &part_eig));
    let worst_orth =
        orthogonality_defect(&blk_eig.vectors).max(orthogonality_defect(&part_eig.vectors));
    let max_dev = ql
        .values
        .iter()
        .zip(&blk_eig.values)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    let mut eig = JsonValue::object();
    eig.set("matrix", format!("Si-64 H ({n})"))
        .set("ql_ms", t_ql.as_secs_f64() * 1e3)
        .set("blocked_ms", t_blk.as_secs_f64() * 1e3)
        .set("partial_ms", t_part.as_secs_f64() * 1e3)
        .set("partial_k", k)
        .set("worst_residual", worst_resid)
        .set("worst_orthogonality", worst_orth)
        .set("max_eigenvalue_dev", max_dev);
    root.set("eigensolver", eig);
    let mut eig_table = ReportTable::new(
        "Baseline: two-stage eigensolver headline (Si-64 H)",
        &[
            "QL/ms",
            "blocked/ms",
            "partial/ms",
            "worst resid",
            "worst orth",
        ],
    );
    eig_table.row(vec![
        fmt_ms(t_ql),
        fmt_ms(t_blk),
        fmt_ms(t_part),
        format!("{worst_resid:.2e}"),
        format!("{worst_orth:.2e}"),
    ]);

    // --- Kernel-layer headline (K1 condensed): tiled GEMM throughput vs
    // the naive i-k-j loop at n = 256, and the four-column block Chebyshev
    // recurrence step on the untruncated Si-64 region. `report_kernels`
    // runs the full sweep with the bitwise gates; this keeps the headline
    // numbers in BENCH_phase.json.
    let kernels = {
        let n = 256usize;
        let mut state = 0x9E3779B97F4A7C15u64 | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let a = tbmd::Matrix::from_fn(n, n, |_, _| next());
        let b = tbmd::Matrix::from_fn(n, n, |_, _| next());
        let flops = 2.0 * (n as f64).powi(3);
        let t0 = Instant::now();
        let mut naive = tbmd::Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..n {
                    acc += a[(i, p)] * b[(p, j)];
                }
                naive[(i, j)] = acc;
            }
        }
        let t_naive = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let tiled = a.matmul(&b);
        let t_tiled = t0.elapsed().as_secs_f64();
        assert!(
            (0..n).all(|i| (0..n).all(|j| tiled[(i, j)].to_bits() == naive[(i, j)].to_bits())),
            "tiled GEMM diverged from the naive summation order"
        );
        let sr = tbmd::structure::bulk_diamond(Species::Silicon, 2, 2, 2);
        let fixture = tbmd_bench::RegionFixture::new(&sr, &model, f64::INFINITY);
        let steps = 2000usize;
        let t0 = Instant::now();
        std::hint::black_box(fixture.recurrence(steps).current());
        let cheb_ns = t0.elapsed().as_secs_f64() / steps as f64 * 1e9;
        let cheb_gflops = fixture.step_flops() / cheb_ns;
        let mut k = JsonValue::object();
        k.set("gemm_n", n)
            .set("gemm_naive_gflops", flops / t_naive / 1e9)
            .set("gemm_tiled_gflops", flops / t_tiled / 1e9)
            .set("gemm_speedup", t_naive / t_tiled)
            .set("gemm_bitwise", true)
            .set("cheb_block_ns_per_step", cheb_ns)
            .set("cheb_block_gflops", cheb_gflops);
        k
    };
    let mut kernel_table = ReportTable::new(
        "Baseline: kernel-layer headline (GEMM n=256, Chebyshev step Si-64)",
        &[
            "naive GFLOP/s",
            "tiled GFLOP/s",
            "speedup",
            "cheb block ns",
            "cheb GFLOP/s",
        ],
    );
    kernel_table.row(vec![
        format!(
            "{:.2}",
            kernels.get("gemm_naive_gflops").unwrap().as_f64().unwrap()
        ),
        format!(
            "{:.2}",
            kernels.get("gemm_tiled_gflops").unwrap().as_f64().unwrap()
        ),
        format!(
            "{:.2}",
            kernels.get("gemm_speedup").unwrap().as_f64().unwrap()
        ),
        format!(
            "{:.1}",
            kernels
                .get("cheb_block_ns_per_step")
                .unwrap()
                .as_f64()
                .unwrap()
        ),
        format!(
            "{:.2}",
            kernels.get("cheb_block_gflops").unwrap().as_f64().unwrap()
        ),
    ]);
    root.set("kernels", kernels);

    // --- Communication headline (F2b condensed): sliced vs ring at P = 4.
    let s64 = tbmd::structure::bulk_diamond(Species::Silicon, 2, 2, 2);
    let sliced = DistributedTb::new(&model, 4);
    sliced.evaluate(&s64).expect("sliced");
    let sliced_bytes = sliced.last_report().expect("report").stats.total_bytes();
    let ring = DistributedTb::new(&model, 4).with_solver(DistributedSolver::RingJacobi);
    ring.evaluate(&s64).expect("ring");
    let ring_bytes = ring.last_report().expect("report").stats.total_bytes();
    let mut comm = JsonValue::object();
    comm.set("n_atoms", s64.n_atoms())
        .set("n_ranks", 4usize)
        .set("sliced_bytes", sliced_bytes)
        .set("ring_jacobi_bytes", ring_bytes)
        .set("ratio", ring_bytes as f64 / sliced_bytes.max(1) as f64);
    root.set("comm_solvers", comm);

    // --- Watchdogs: short recorded NVE runs per engine (Si-8, 15 steps).
    let mut watchdogs: Vec<JsonValue> = Vec::new();
    let mut wd_table = ReportTable::new(
        "Baseline: drift-watchdog verdicts, 15-step recorded NVE (Si-8, 300 K)",
        &["engine", "steps", "warns", "ok", "worst drift/eV"],
    );
    for (label, engine) in [
        ("serial", EngineKind::Serial),
        ("shared", EngineKind::Shared),
        ("distributed", EngineKind::Distributed { ranks: 2 }),
    ] {
        let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 15);
        config.engine = engine;
        let manifest = run_manifest(&config);
        let mut rec = RunRecorder::in_memory(&manifest);
        let options = RecorderConfig {
            health_stride: 5,
            ..RecorderConfig::standard()
        };
        SessionBuilder::new(config)
            .record(&mut rec, options)
            .build()
            .expect("recorded session")
            .run()
            .expect("recorded run");
        let summary = rec.finish().expect("summary");
        let mut v = summary.watchdog.to_json();
        v.set("engine", label)
            .set("steps", summary.steps)
            .set("warns", summary.warns);
        wd_table.row(vec![
            label.to_string(),
            summary.steps.to_string(),
            summary.warns.to_string(),
            summary.watchdog.ok.to_string(),
            format!("{:.2e}", summary.watchdog.worst_drift_ev),
        ]);
        watchdogs.push(v);
    }
    root.set("watchdogs", watchdogs);

    // --- Checkpoint subsystem headline: snapshot write/load cost for a
    // Si-64 NVE run, with the write cost amortized to an interval-100
    // cadence against the measured step time (`report_checkpoint` runs the
    // full size sweep; this keeps the headline in BENCH_phase.json).
    let ckpt_dir = std::env::temp_dir().join(format!("tbmd_bench_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let ckpt_cfg = CheckpointConfig {
        dir: ckpt_dir.clone(),
        interval: 3,
        retain: 0,
    };
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 2 }, 300.0, 6);
    config.perturb = 0.02;
    tbmd::trace::install(TraceSink::collecting());
    let before = tbmd::trace::snapshot();
    let t0 = Instant::now();
    SessionBuilder::new(config)
        .checkpoint(&ckpt_cfg)
        .build()
        .expect("checkpointed session")
        .run()
        .expect("checkpointed run");
    let wall = t0.elapsed();
    let delta = tbmd::trace::snapshot().since(&before);
    tbmd::trace::install(TraceSink::disabled());
    let writes = delta.counter(Counter::CkptWrites).max(1);
    let write_ms = delta.counter(Counter::CkptNanos) as f64 / writes as f64 / 1e6;
    let snapshot_bytes = delta.counter(Counter::CkptBytes) / writes;
    let store = CheckpointStore::open(&ckpt_dir, 0).expect("store");
    let t0 = Instant::now();
    let latest = store.latest().expect("load").expect("snapshot present");
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let step_ms = wall.as_secs_f64() * 1e3 / 6.0;
    // One write per 100 steps, as a fraction of 100 steps of MD.
    let overhead_pct = write_ms / (100.0 * step_ms) * 100.0;
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut ckpt = JsonValue::object();
    ckpt.set("n_atoms", 64usize)
        .set("snapshot_step", latest.step)
        .set("writes", writes)
        .set("snapshot_bytes", snapshot_bytes)
        .set("write_ms", write_ms)
        .set("load_ms", load_ms)
        .set("step_ms", step_ms)
        .set("overhead_pct_interval100", overhead_pct);
    root.set("checkpoint", ckpt);
    let mut ckpt_table = ReportTable::new(
        "Baseline: checkpoint write/load cost (Si-64 NVE)",
        &["N", "bytes", "write/ms", "load/ms", "step/ms", "ovh@100/%"],
    );
    ckpt_table.row(vec![
        "64".to_string(),
        snapshot_bytes.to_string(),
        fmt_ms(std::time::Duration::from_secs_f64(write_ms / 1e3)),
        fmt_ms(std::time::Duration::from_secs_f64(load_ms / 1e3)),
        fmt_ms(std::time::Duration::from_secs_f64(step_ms / 1e3)),
        format!("{overhead_pct:.3}"),
    ]);

    // --- Elastic-recovery headline: a P=3 distributed NVE run loses a
    // rank mid-trajectory; the resilient driver rewinds to the newest
    // snapshot, respawns, and must land on the bitwise clean endpoint with
    // zero leaked worker threads (`report_chaos` runs the full kill+stall
    // suite; this keeps the headline in BENCH_phase.json).
    let rec_dir = std::env::temp_dir().join(format!("tbmd_bench_recover_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&rec_dir);
    let rec_ckpt = CheckpointConfig {
        dir: rec_dir.clone(),
        interval: 4,
        retain: 3,
    };
    let mut rec_config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 12);
    rec_config.engine = EngineKind::Distributed { ranks: 3 };
    rec_config.perturb = 0.02;
    let rec_clean = SessionBuilder::new(rec_config)
        .build()
        .expect("clean session")
        .run()
        .expect("clean reference");
    let kill = FaultPlan {
        rank: 1,
        at_evaluation: 8, // MD step 7: past the step-4 snapshot
        kind: FaultKind::Kill,
    };
    let t0 = Instant::now();
    let mut resilient = SessionBuilder::new(rec_config)
        .checkpoint(&rec_ckpt)
        .faults(&[kill])
        .resilience(ResilienceOptions::default())
        .build()
        .expect("resilient session");
    let recovered = resilient.run().expect("resilient run");
    let rec_report = resilient.recovery_report().clone();
    let recover_wall = t0.elapsed();
    let _ = std::fs::remove_dir_all(&rec_dir);
    let rec_bitwise = {
        let bits = |v: &[tbmd::Vec3]| -> Vec<u64> {
            v.iter()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        };
        bits(rec_clean.final_structure.positions()) == bits(recovered.final_structure.positions())
            && bits(&rec_clean.final_velocities) == bits(&recovered.final_velocities)
    };
    let rec_leaked = live_vmp_workers();
    let mut recovery = JsonValue::object();
    recovery
        .set("engine", "distributed/3")
        .set("steps", 12usize)
        .set("recoveries", rec_report.recoveries)
        .set("failed_ranks", format!("{:?}", rec_report.failed_ranks))
        .set("final_ranks", rec_report.final_ranks)
        .set("bitwise_equal", rec_bitwise)
        .set("leaked_workers", rec_leaked as u64)
        .set("recover_wall_ms", recover_wall.as_secs_f64() * 1e3);
    root.set("recovery", recovery);
    let mut rec_table = ReportTable::new(
        "Baseline: elastic rank recovery (Si-8, P=3, kill at step 7, Respawn)",
        &["recoveries", "final P", "bitwise", "leaked", "recover/ms"],
    );
    rec_table.row(vec![
        rec_report.recoveries.to_string(),
        rec_report.final_ranks.to_string(),
        rec_bitwise.to_string(),
        rec_leaked.to_string(),
        format!("{:.1}", recover_wall.as_secs_f64() * 1e3),
    ]);

    // --- Serve headline: two Si-8 NVE tenants through the session
    // multiplexer under a one-thread compute budget — the second job must
    // wait in the admission queue, and both endpoints must stay bitwise the
    // standalone trajectories (`report_serve` runs the full K-tenant
    // latency sweep; this keeps the headline in BENCH_phase.json).
    let serve = {
        let mut configs = Vec::new();
        for (i, temp) in [300.0, 450.0].iter().enumerate() {
            let mut c = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, *temp, 10);
            c.seed = 900 + i as u64;
            configs.push(c);
        }
        let reference: Vec<_> = configs
            .iter()
            .map(|c| {
                let mut session = SessionBuilder::new(*c).build().expect("standalone tenant");
                session.run().expect("standalone tenant")
            })
            .collect();
        tbmd::configure_budget(1);
        tbmd::parallel::reset_high_water();
        let mut mux = Multiplexer::new();
        for (i, c) in configs.iter().enumerate() {
            let mut spec = JobSpec::new(format!("tenant-{i}"), *c);
            spec.quantum = 4;
            spec.threads = 1;
            mux.submit(spec, std::io::sink());
        }
        let t0 = Instant::now();
        let mut max_active = 0usize;
        loop {
            let busy = mux.tick();
            max_active = max_active.max(mux.active());
            if !busy {
                break;
            }
        }
        let serve_wall = t0.elapsed();
        let mut reports = mux.drain();
        let hw = tbmd::parallel::high_water();
        tbmd::configure_budget(0);
        reports.sort_by(|a, b| a.name.cmp(&b.name));
        let bits = |v: &[tbmd::Vec3]| -> Vec<u64> {
            v.iter()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        };
        let bitwise = reports.len() == 2
            && reports.iter().zip(&reference).all(|(r, c)| {
                r.outcome.as_ref().is_ok_and(|s| {
                    s.final_total_energy.to_bits() == c.final_total_energy.to_bits()
                        && bits(s.final_structure.positions())
                            == bits(c.final_structure.positions())
                })
            });
        let mut v = JsonValue::object();
        v.set("tenants", 2usize)
            .set("steps_per_tenant", 10usize)
            .set("budget_threads", 1usize)
            .set("max_active", max_active)
            .set("high_water", hw)
            .set("bitwise_equal", bitwise)
            .set("wall_ms", serve_wall.as_secs_f64() * 1e3);
        (v, max_active, hw, bitwise, serve_wall)
    };
    let (serve_json, serve_max_active, serve_hw, serve_bitwise, serve_wall) = serve;
    root.set("serve", serve_json);

    // --- Telemetry headline: Si-8 NVE with the collecting sink (latency
    // histograms live) vs the disabled sink — overhead ratio and the p99
    // per-step latency the histograms reconstruct (`report_telemetry`
    // applies the tight gate; this keeps the numbers in BENCH_phase.json).
    let telemetry = {
        let mut c = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 16);
        c.seed = 23;
        let run = |sink: TraceSink| -> std::time::Duration {
            tbmd::trace::install(sink);
            let mut session = SessionBuilder::new(c).build().expect("telemetry session");
            let t0 = Instant::now();
            while session.step().expect("telemetry step") != SessionStatus::Done {}
            t0.elapsed()
        };
        let mut off = f64::INFINITY;
        let mut on = f64::INFINITY;
        let mut step_hist = tbmd::trace::histograms().hist(Hist::Step).clone();
        for _ in 0..3 {
            off = off.min(run(TraceSink::disabled()).as_secs_f64() * 1e3);
            on = on.min(run(TraceSink::collecting()).as_secs_f64() * 1e3);
            step_hist = tbmd::trace::histograms().hist(Hist::Step).clone();
            tbmd::trace::install(TraceSink::disabled());
        }
        let ratio = on / off;
        let p99_ms = step_hist.percentile_ns(0.99).unwrap_or(f64::NAN) * 1e-6;
        let mut v = JsonValue::object();
        v.set("disabled_ms", off)
            .set("collecting_ms", on)
            .set("overhead_ratio", ratio)
            .set("step_count", step_hist.count())
            .set("p99_step_ms", p99_ms);
        (v, off, on, ratio, p99_ms, step_hist.count())
    };
    let (
        telemetry_json,
        telemetry_off,
        telemetry_on,
        telemetry_ratio,
        telemetry_p99,
        telemetry_steps,
    ) = telemetry;
    root.set("telemetry", telemetry_json);

    // --- Campaign headline: Si vacancy formation energy through the
    // declarative campaign runner, run twice for a bitwise-stability flag
    // (`report_campaign` applies the full matrix/resume/multiplex gate;
    // this keeps the headline number in BENCH_phase.json).
    let campaign = {
        const SPEC: &str = r#"{
            "name": "baseline-vacancy",
            "seed": 13,
            "structures": [{"label": "si1", "system": "si", "reps": 1}],
            "perturbations": [
                {"label": "pristine", "kind": "pristine"},
                {"label": "vac0", "kind": "vacancy", "site": 0}
            ],
            "protocols": [{"label": "relax", "kind": "relax",
                           "force_tolerance": 1e-3, "max_iterations": 200}],
            "engines": ["serial"]
        }"#;
        let spec = CampaignSpec::from_json(SPEC).expect("campaign spec");
        let t0 = Instant::now();
        let first = run_campaign(&spec, &RunOptions::default()).expect("campaign run");
        let campaign_wall = t0.elapsed();
        let second = run_campaign(&spec, &RunOptions::default()).expect("campaign rerun");
        let keys = |r: &tbmd_campaign::CampaignReport| -> Vec<String> {
            r.rows.iter().map(|c| c.deterministic_key()).collect()
        };
        let stable = first.complete && keys(&first) == keys(&second);
        let formation = first
            .rows
            .iter()
            .find(|r| !r.pristine)
            .and_then(|r| r.formation_ev)
            .unwrap_or(f64::NAN);
        let mut v = JsonValue::object();
        v.set("cells", first.rows.len())
            .set("vacancy_formation_ev", formation)
            .set("bitwise_repeat", stable)
            .set("wall_ms", campaign_wall.as_secs_f64() * 1e3);
        (v, first.rows.len(), formation, stable, campaign_wall)
    };
    let (campaign_json, campaign_cells, campaign_formation, campaign_stable, campaign_wall) =
        campaign;
    root.set("campaign", campaign_json);

    let mut telemetry_table = ReportTable::new(
        "Baseline: telemetry overhead (Si-8 NVE, 16 steps, min of 3)",
        &["off/ms", "on/ms", "ratio", "steps", "p99 step/ms"],
    );
    telemetry_table.row(vec![
        format!("{telemetry_off:.3}"),
        format!("{telemetry_on:.3}"),
        format!("{telemetry_ratio:.4}"),
        telemetry_steps.to_string(),
        format!("{telemetry_p99:.4}"),
    ]);
    let mut serve_table = ReportTable::new(
        "Baseline: multiplexed serve (2 Si-8 NVE tenants, budget 1 thread)",
        &["tenants", "budget", "max act.", "hw", "bitwise", "wall/ms"],
    );
    serve_table.row(vec![
        "2".to_string(),
        "1".to_string(),
        serve_max_active.to_string(),
        serve_hw.to_string(),
        serve_bitwise.to_string(),
        format!("{:.1}", serve_wall.as_secs_f64() * 1e3),
    ]);
    let mut campaign_table = ReportTable::new(
        "Baseline: vacancy-formation campaign (Si-8 pristine/vac0 relax, serial)",
        &["cells", "E_form/eV", "bitwise", "wall/ms"],
    );
    campaign_table.row(vec![
        campaign_cells.to_string(),
        format!("{campaign_formation:.6}"),
        campaign_stable.to_string(),
        format!("{:.1}", campaign_wall.as_secs_f64() * 1e3),
    ]);

    engine_table.print();
    eig_table.print();
    kernel_table.print();
    wd_table.print();
    ckpt_table.print();
    rec_table.print();
    serve_table.print();
    telemetry_table.print();
    campaign_table.print();
    println!(
        "\nsliced vs ring-Jacobi wire bytes at N = {}, P = 4: {} vs {} ({:.1}x)",
        s64.n_atoms(),
        sliced_bytes,
        ring_bytes,
        ring_bytes as f64 / sliced_bytes.max(1) as f64
    );
    write_json(&path, &root);

    if args.check {
        let text = std::fs::read_to_string(&path).expect("read baseline json");
        let v = JsonValue::parse(&text).expect("parse baseline json");
        let engines_ok = v
            .get("engines")
            .and_then(|e| e.as_array())
            .is_some_and(|rows| {
                rows.len() >= 6
                    && rows.iter().all(|r| {
                        r.get("phase_ms")
                            .and_then(|p| p.get("communication"))
                            .and_then(|c| c.as_f64())
                            .is_some()
                    })
            });
        let comm_ok = v
            .get("comm_solvers")
            .map(|c| {
                let sliced = c
                    .get("sliced_bytes")
                    .and_then(|x| x.as_f64())
                    .unwrap_or(f64::MAX);
                let ring = c
                    .get("ring_jacobi_bytes")
                    .and_then(|x| x.as_f64())
                    .unwrap_or(0.0);
                sliced < ring
            })
            .unwrap_or(false);
        let watchdogs_ok = v
            .get("watchdogs")
            .and_then(|w| w.as_array())
            .is_some_and(|rows| {
                rows.len() >= 3
                    && rows
                        .iter()
                        .all(|r| r.get("ok").and_then(|o| o.as_bool()) == Some(true))
            });
        let eig_ok = v
            .get("eigensolver")
            .and_then(|e| e.get("worst_residual"))
            .and_then(|r| r.as_f64())
            .is_some_and(|r| r.is_finite() && r < 1e-6 * n as f64);
        let ckpt_ok = v
            .get("checkpoint")
            .and_then(|c| c.get("overhead_pct_interval100"))
            .and_then(|o| o.as_f64())
            .is_some_and(|o| o.is_finite() && o < 5.0);
        let recovery_ok = v.get("recovery").is_some_and(|r| {
            r.get("recoveries").and_then(|x| x.as_f64()) == Some(1.0)
                && r.get("bitwise_equal").and_then(|x| x.as_bool()) == Some(true)
                && r.get("leaked_workers").and_then(|x| x.as_f64()) == Some(0.0)
        });
        let serve_ok = v.get("serve").is_some_and(|s| {
            s.get("bitwise_equal").and_then(|x| x.as_bool()) == Some(true)
                && s.get("max_active").and_then(|x| x.as_f64()) == Some(1.0)
                && s.get("high_water")
                    .and_then(|x| x.as_f64())
                    .is_some_and(|hw| hw <= 1.0)
        });
        // Loose sanity bound only — the tight <2% overhead gate lives in
        // `report_telemetry -- check`, run on its own quiet process.
        let telemetry_ok = v.get("telemetry").is_some_and(|t| {
            t.get("overhead_ratio")
                .and_then(|x| x.as_f64())
                .is_some_and(|r| r.is_finite() && r < 1.5)
                && t.get("step_count").and_then(|x| x.as_f64()) == Some(16.0)
                && t.get("p99_step_ms")
                    .and_then(|x| x.as_f64())
                    .is_some_and(|p| p.is_finite() && p > 0.0)
        });
        // Sanity only — the full matrix/resume/multiplex gate lives in
        // `report_campaign -- check`, run on its own quiet process.
        let campaign_ok = v.get("campaign").is_some_and(|c| {
            c.get("vacancy_formation_ev")
                .and_then(|x| x.as_f64())
                .is_some_and(|e| e.is_finite() && e > 0.0 && e < 20.0)
                && c.get("bitwise_repeat").and_then(|x| x.as_bool()) == Some(true)
                && c.get("cells").and_then(|x| x.as_f64()) == Some(2.0)
        });

        // Regression gate against the previous CI artifact: loose on wall
        // times (noisy hosts), near-exact on wire bytes. A missing artifact
        // (first run, expired retention) passes with a note.
        let mut prev_ok = true;
        let mut prev_note = "no --prev artifact given".to_string();
        if let Some(prev_path) = &args.prev {
            match std::fs::read_to_string(prev_path) {
                Ok(text) => {
                    let prev = JsonValue::parse(&text).expect("parse previous baseline");
                    let ratio = args.threshold_or(1.6);
                    let violations = compare_baselines(&v, &prev, ratio);
                    prev_ok = violations.is_empty();
                    prev_note = if prev_ok {
                        format!("within {ratio:.2}x of previous artifact")
                    } else {
                        violations.join("; ")
                    };
                }
                Err(_) => {
                    prev_note = format!(
                        "previous artifact {} missing — skipping diff",
                        prev_path.display()
                    );
                }
            }
        }
        check_gate(
            engines_ok
                && comm_ok
                && watchdogs_ok
                && eig_ok
                && ckpt_ok
                && recovery_ok
                && serve_ok
                && telemetry_ok
                && campaign_ok
                && prev_ok,
            &format!(
                "engines(comm phase)={engines_ok}, sliced<ring={comm_ok}, watchdogs green={watchdogs_ok}, eig residual={eig_ok}, ckpt overhead={ckpt_ok}, recovery={recovery_ok}, serve={serve_ok}, telemetry={telemetry_ok}, campaign={campaign_ok}, regression: {prev_note}"
            ),
        );
    }
}
