//! Standalone replays for the traced run: public pieces of a layer timed on
//! their own, on inputs taken from the workload's start frame or final state.

use crate::serve::CountingSink;
use crate::stats;
use crate::workloads::WIDTH;
use std::hint::black_box;
use std::time::Instant;
use tbmd::linscale::{LocalRegion, SparseH};
use tbmd::md::MdState;
use tbmd::model::{electronic_forces, repulsive_energy_forces, OrbitalIndex};
use tbmd::parallel::{par_forces, vmp_run};
use tbmd::structure::Structure;
use tbmd::trace::StepRecord;
use tbmd::{
    try_lease, CheckpointStore, Matrix, NeighborList, RunManifest, RunRecorder, Snapshot,
    StatsSnapshot, TbModel,
};

/// Median wall time (ms) of `reps` calls of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Rate (GF/s, computed flops `2n³`) of `Matrix::matmul` at `n × n` under a
/// width-1 lease — the ceiling the solver stages are read against, measured
/// in the same run.
pub fn gemm_gflops(n: usize) -> f64 {
    let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 97) as f64 * 1e-2 - 0.5);
    let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 29) % 89) as f64 * 1e-2 - 0.4);
    // About 0.3 GF of work per sample, 5 samples.
    let flops = 2.0 * (n as f64).powi(3);
    let inner = ((3e8 / flops) as usize).max(1);
    let lease = try_lease(1).expect("budget free between passes");
    let ms = lease.scoped(|| {
        median_ms(5, || {
            for _ in 0..inner {
                black_box(black_box(&a).matmul(black_box(&b)));
            }
        })
    });
    flops * inner as f64 / (ms * 1e6)
}

/// Cost (µs) of the shared engine's force fan-out on one frame: `par_forces`
/// under a width-2 lease minus the serial `electronic_forces` +
/// `repulsive_energy_forces` it replaces.
pub fn fanout_us(s: &Structure, model: &dyn TbModel, rho: &Matrix) -> f64 {
    let nl = NeighborList::build(s, model.cutoff());
    let index = OrbitalIndex::new(s);
    let reps = 30;
    let wide = try_lease(WIDTH).expect("budget free between passes");
    let par = wide.scoped(|| {
        median_ms(reps, || {
            black_box(par_forces(s, &nl, model, &index, rho));
        })
    });
    drop(wide);
    let serial = median_ms(reps, || {
        black_box(electronic_forces(s, &nl, model, &index, rho));
        black_box(repulsive_energy_forces(s, &nl, model, true));
    });
    (par - serial) * 1e3
}

/// Median time (ms) each of `WIDTH` virtual ranks spends in an allreduce of
/// `n²` doubles and in an allgather of `n` doubles (slowest rank per round).
pub fn collectives_ms(n: usize) -> (f64, f64) {
    let time = |allreduce: bool| {
        let samples: Vec<f64> = (0..15)
            .map(|round| {
                let (per_rank, _) = vmp_run(WIDTH, |mut rank| {
                    let mut data = vec![1.0 + rank.id() as f64; if allreduce { n * n } else { n }];
                    let t0 = Instant::now();
                    if allreduce {
                        rank.allreduce_sum(round, &mut data);
                    } else {
                        black_box(rank.allgather(round, &data));
                    }
                    black_box(&data);
                    t0.elapsed().as_secs_f64() * 1e3
                });
                per_rank.into_iter().fold(0.0, f64::max)
            })
            .collect();
        stats::median(&samples)
    };
    (time(true), time(false))
}

/// Time (ms) to build what one O(N) evaluation needs before its first
/// matvec: the neighbour list, the CSR Hamiltonian and one localisation
/// region per atom; and the mean orbitals per region.
pub fn region_build_ms(s: &Structure, model: &dyn TbModel, r_loc: f64) -> (f64, f64) {
    let mut orbitals = 0usize;
    let ms = median_ms(3, || {
        let nl = NeighborList::build(s, model.cutoff());
        let index = OrbitalIndex::new(s);
        let h = SparseH::build(s, &nl, model, &index);
        orbitals = (0..s.n_atoms())
            .map(|atom| black_box(LocalRegion::build(s, &index, &h, atom, r_loc)).len())
            .sum();
    });
    (ms, orbitals as f64 / s.n_atoms() as f64)
}

fn flatten(v: &[tbmd::Vec3]) -> Vec<f64> {
    v.iter().flat_map(|x| x.to_array()).collect()
}

/// Write and read-back time (µs) and size (bytes) of one snapshot of `state`
/// through an in-memory `CheckpointStore`, as a serve tenant checkpoints.
pub fn checkpoint_us(state: &MdState) -> Result<(f64, f64, f64), String> {
    let store = CheckpointStore::in_memory(3);
    let mut snap = Snapshot {
        step: 0,
        time_fs: state.time_fs,
        seed: 0,
        config_fingerprint: 0,
        rng_state: 0,
        potential_energy: state.potential_energy,
        conserved_ref: state.total_energy(),
        drift: 0.0,
        recorded_steps: 0,
        positions: flatten(state.structure.positions()),
        velocities: flatten(&state.velocities),
        forces: flatten(&state.forces),
        temp_stats: StatsSnapshot {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: 0.0,
            max: 0.0,
        },
        thermostat: None,
        ramp: None,
    };
    let reps = 200;
    let (mut write_us, mut read_us, mut bytes) = (Vec::new(), Vec::new(), 0);
    for step in 1..=reps {
        snap.step = step;
        let t0 = Instant::now();
        let receipt = store
            .write(&snap)
            .map_err(|e| format!("snapshot write: {e}"))?;
        write_us.push(t0.elapsed().as_secs_f64() * 1e6);
        bytes = receipt.bytes;
        let t0 = Instant::now();
        let back = store.latest().map_err(|e| format!("snapshot read: {e}"))?;
        read_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if back.as_ref() != Some(&snap) {
            return Err("snapshot did not read back equal".into());
        }
    }
    Ok((
        stats::median(&write_us),
        stats::median(&read_us),
        bytes as f64,
    ))
}

/// Time (µs) and bytes per `RunRecorder::record_step` into a counting sink.
pub fn record_step_us(state: &MdState) -> Result<(f64, f64), String> {
    let manifest = RunManifest {
        model: "replay".into(),
        engine: "replay".into(),
        n_atoms: state.structure.n_atoms(),
        n_ranks: 1,
        protocol: "replay".into(),
        seed: 0,
        git_describe: "replay".into(),
    };
    let sink = CountingSink::default();
    let mut recorder =
        RunRecorder::to_writer(sink.clone(), &manifest).map_err(|e| format!("recorder: {e}"))?;
    let before = sink.bytes.load(std::sync::atomic::Ordering::Relaxed);
    let steps = 2000usize;
    let t0 = Instant::now();
    for step in 1..=steps {
        let record = StepRecord {
            step,
            time_fs: step as f64,
            potential_ev: state.potential_energy,
            conserved_ev: state.total_energy(),
            temperature_k: state.temperature(),
            ..StepRecord::default()
        };
        recorder
            .record_step(&record)
            .map_err(|e| format!("record_step: {e}"))?;
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / steps as f64;
    let bytes = sink.bytes.load(std::sync::atomic::Ordering::Relaxed) - before;
    Ok((us, bytes as f64 / steps as f64))
}

/// Time (µs) of `tbmd_serve::parse_request` per job line.
pub fn parse_request_us(lines: &[String]) -> Result<f64, String> {
    let reps = 20;
    let t0 = Instant::now();
    for _ in 0..reps {
        for line in lines {
            black_box(tbmd_serve::parse_request(line).map_err(|e| format!("{line}: {e}"))?);
        }
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / (reps * lines.len()) as f64)
}
