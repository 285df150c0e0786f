//! Pass B of the traced run: the staged twin and the lockstep provider.
//!
//! The dense engines evaluate a frame inside one opaque call. The twin makes
//! the same evaluation out of the crates' public stage functions, in the
//! order `TbCalculator::compute_with` runs them, with one span per stage —
//! so the step decomposes without the program carrying any span of its own.
//! The lockstep provider feeds every frame of a short trajectory to the
//! workload's engine, to reference engines and to the twin, and keeps the
//! worst energy gap, which gates the twin's claim to be the same computation.

use crate::spans::Tracer;
use std::cell::{Cell, RefCell};
use tbmd::linalg::inverse_iteration::InverseIterScratch;
use tbmd::linalg::{
    apply_q_blocked, eigh_into, reduced_eigenvalues_into, tridiagonal_eigenvectors_into,
    tridiagonalize_blocked_into,
};
use tbmd::model::{
    build_hamiltonian_into, density_matrix_into, electronic_forces, occupations, occupied_count,
    repulsive_energy_forces, ForceEvaluation, OrbitalIndex, PhaseTimings, KB_EV, TWO_STAGE_MIN_DIM,
};
use tbmd::structure::Structure;
use tbmd::{try_lease, Engine, ForceProvider, OccupationScheme, TbError, TbModel, Workspace};

/// Run `f` under a lease of `width` threads, as `Session::step` runs a step
/// under its session's lease. Lanes and the twin run one after another, so
/// the width-2 budget always has the threads.
fn leased<T>(width: usize, f: impl FnOnce() -> T) -> T {
    try_lease(width)
        .expect("lockstep lanes run one at a time within the budget")
        .scoped(f)
}

/// Span names of the twin's stages, in evaluation order, with the layer
/// metric each feeds.
pub const STAGES: [&str; 10] = [
    "structure.neighbors",
    "model.hamiltonian",
    "linalg.tridiagonalize",
    "linalg.eigenvalues",
    "linalg.eigh_small",
    "model.occupations",
    "linalg.inverse_iteration",
    "linalg.back_transform",
    "model.density",
    "model.forces",
];

/// The serial dense evaluation, one public stage function at a time.
pub struct StagedTwin<'a> {
    model: &'a dyn TbModel,
    occupation: OccupationScheme,
    tracer: &'a Tracer,
    /// `EighWorkspace` keeps its own inverse-iteration scratch private; the
    /// twin brings one (scratch only — results do not depend on it).
    inviter: RefCell<InverseIterScratch>,
    step: &'a Cell<u64>,
    /// Orbitals and occupied states of the last frame (for the flop counts).
    pub dims: Cell<(usize, usize)>,
    pub two_stage_entered: Cell<bool>,
}

impl<'a> StagedTwin<'a> {
    pub fn new(
        model: &'a dyn TbModel,
        electronic_kt: f64,
        tracer: &'a Tracer,
        step: &'a Cell<u64>,
    ) -> Self {
        StagedTwin {
            model,
            // The same rule as `Engine::build`.
            occupation: if electronic_kt > 0.0 {
                OccupationScheme::Fermi { kt: electronic_kt }
            } else {
                OccupationScheme::ZeroTemperature
            },
            tracer,
            inviter: RefCell::new(InverseIterScratch::default()),
            step,
            dims: Cell::new((0, 0)),
            two_stage_entered: Cell::new(false),
        }
    }
}

impl ForceProvider for StagedTwin<'_> {
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError> {
        self.evaluate_with(s, &mut Workspace::new())
    }

    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        let (t, id) = (self.tracer, self.step.get());

        let cutoff = self.model.cutoff();
        t.span("structure.neighbors", id, || ws.neighbors.update(s, cutoff));

        let index = OrbitalIndex::new(s);
        t.span("model.hamiltonian", id, || {
            build_hamiltonian_into(s, ws.neighbors.list(), self.model, &index, &mut ws.h)
        });

        let two_stage = ws.h.rows() >= TWO_STAGE_MIN_DIM;
        if two_stage {
            self.two_stage_entered.set(true);
            t.span("linalg.tridiagonalize", id, || {
                tridiagonalize_blocked_into(&mut ws.h, &mut ws.eigh)
            });
            t.span("linalg.eigenvalues", id, || {
                reduced_eigenvalues_into(&mut ws.eigh, &mut ws.values)
            })?;
        } else {
            t.span("linalg.eigh_small", id, || {
                eigh_into(&mut ws.h, &mut ws.values, &mut ws.eigh)
            })?;
        }

        let occ = t.span("model.occupations", id, || {
            occupations(&ws.values, s.n_electrons(), self.occupation)
        });
        let band = occ.band_energy(&ws.values);

        let (vectors, f_window) = if two_stage {
            let k = occupied_count(&occ.f);
            t.span("linalg.inverse_iteration", id, || {
                let (d, e) = ws.eigh.tridiagonal_factor();
                tridiagonal_eigenvectors_into(
                    d,
                    e,
                    &ws.values[..k],
                    &mut ws.c,
                    &mut self.inviter.borrow_mut(),
                )
            });
            t.span("linalg.back_transform", id, || {
                apply_q_blocked(&ws.h, &mut ws.eigh, &mut ws.c)
            });
            (&ws.c, &occ.f[..k])
        } else {
            (&ws.h, &occ.f[..])
        };
        self.dims.set((vectors.rows(), occupied_count(&occ.f)));

        t.span("model.density", id, || {
            density_matrix_into(vectors, f_window, &mut ws.w, &mut ws.rho)
        });

        let (rep, forces) = t.span("model.forces", id, || {
            let nl = ws.neighbors.list();
            let mut forces = electronic_forces(s, nl, self.model, &index, &ws.rho);
            let (rep, rep_forces) = repulsive_energy_forces(s, nl, self.model, true);
            for (f, rf) in forces.iter_mut().zip(rep_forces.expect("forces requested")) {
                *f += rf;
            }
            (rep, forces)
        });

        let entropy_term = match self.occupation {
            OccupationScheme::Fermi { kt } if kt > 0.0 => -(kt / KB_EV) * occ.entropy,
            _ => 0.0,
        };
        Ok(ForceEvaluation {
            energy: band + rep + entropy_term,
            forces,
            timings: PhaseTimings::default(),
        })
    }

    fn provider_name(&self) -> &str {
        "staged-twin"
    }
}

/// An engine evaluated on every frame of the lockstep trajectory, under its
/// own span name, workspace and lease width.
pub struct Lane<'a> {
    pub span: &'static str,
    pub engine: Engine<'a>,
    pub width: usize,
    ws: RefCell<Workspace>,
}

impl<'a> Lane<'a> {
    pub fn new(span: &'static str, engine: Engine<'a>, width: usize) -> Self {
        Lane {
            span,
            engine,
            width,
            ws: RefCell::new(Workspace::new()),
        }
    }

    fn evaluate(
        &self,
        tracer: &Tracer,
        id: u64,
        s: &Structure,
    ) -> Result<ForceEvaluation, TbError> {
        let mut ws = self.ws.borrow_mut();
        tracer.span(self.span, id, || {
            leased(self.width, || self.engine.evaluate_with(s, &mut ws))
        })
    }
}

/// Feeds each frame to the workload's engine (whose forces drive the
/// trajectory), then to the reference lanes, then to the twin.
pub struct Lockstep<'a> {
    pub tracer: &'a Tracer,
    pub step: &'a Cell<u64>,
    pub driver: Lane<'a>,
    pub references: Vec<Lane<'a>>,
    /// Runs under a width-1 lease: the serial engine's conditions.
    pub twin: Option<StagedTwin<'a>>,
    /// Worst |E_lane − E_driver| over the trajectory, per reference lane.
    pub worst_reference_gap_ev: RefCell<Vec<f64>>,
    /// Worst |E_twin − E_serial| (eV), the serial energy being the driver's
    /// when it is the serial engine, else the first reference lane's.
    pub worst_twin_gap_ev: Cell<f64>,
    pub serial_is_driver: bool,
}

impl ForceProvider for Lockstep<'_> {
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError> {
        self.evaluate_with(s, &mut Workspace::new())
    }

    /// `ws` (the integrator's workspace) belongs to the twin; every lane
    /// keeps its own, as every engine would in its own session.
    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        let id = self.step.get();
        let driven = self.driver.evaluate(self.tracer, id, s)?;
        let mut serial_energy = self.serial_is_driver.then_some(driven.energy);
        for (i, lane) in self.references.iter().enumerate() {
            let eval = lane.evaluate(self.tracer, id, s)?;
            let mut gaps = self.worst_reference_gap_ev.borrow_mut();
            gaps[i] = gaps[i].max((eval.energy - driven.energy).abs());
            serial_energy.get_or_insert(eval.energy);
        }
        if let Some(twin) = &self.twin {
            let eval = self.tracer.span("twin.evaluate", id, || {
                leased(1, || twin.evaluate_with(s, ws))
            })?;
            let reference = serial_energy.expect("a twin runs beside a serial lane");
            self.worst_twin_gap_ev.set(
                self.worst_twin_gap_ev
                    .get()
                    .max((eval.energy - reference).abs()),
            );
        }
        Ok(driven)
    }
}
