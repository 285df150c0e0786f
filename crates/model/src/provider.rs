//! The engine abstraction: anything that can turn a structure into an energy
//! and forces.
//!
//! The MD integrators, relaxers and benchmark harness are generic over
//! [`ForceProvider`], so the dense calculator (on as many threads as the
//! compute lease allows), the message-passing engine in `tbmd-parallel` and
//! the O(N) engines in `tbmd-linscale` are all drop-in interchangeable.

use crate::calculator::{PhaseTimings, TbCalculator, TbError, TbResult};
use crate::workspace::Workspace;
use tbmd_linalg::Vec3;
use tbmd_structure::Structure;

/// Minimal output of a force evaluation.
#[derive(Debug, Clone)]
pub struct ForceEvaluation {
    /// Potential energy (eV); the free energy when smearing is active.
    pub energy: f64,
    /// Force on each atom (eV/Å).
    pub forces: Vec<Vec3>,
    /// Per-phase timings, when the engine tracks them.
    pub timings: PhaseTimings,
}

impl From<TbResult> for ForceEvaluation {
    fn from(r: TbResult) -> Self {
        ForceEvaluation {
            energy: r.energy,
            forces: r.forces,
            timings: r.timings,
        }
    }
}

/// An engine that evaluates energies and forces for a structure.
pub trait ForceProvider {
    /// Evaluate energy and forces (cold path: engines that support
    /// workspaces allocate a fresh one per call).
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError>;

    /// Evaluate through a persistent [`Workspace`], amortizing neighbour
    /// lists and matrix buffers across calls. The MD drivers hold one
    /// workspace for the whole run and call this every step.
    ///
    /// Engines without workspace support ignore `ws` and fall back to
    /// [`ForceProvider::evaluate`]; results must be identical either way.
    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        let _ = ws;
        self.evaluate(s)
    }

    /// Energy only; engines may override with a cheaper path.
    fn energy_only(&self, s: &Structure) -> Result<f64, TbError> {
        Ok(self.evaluate(s)?.energy)
    }

    /// Engine name for logs and benchmark tables.
    fn provider_name(&self) -> &str {
        "unnamed"
    }
}

impl ForceProvider for TbCalculator<'_> {
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError> {
        Ok(self.compute(s)?.into())
    }

    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        Ok(self.compute_with(s, ws)?.into())
    }

    fn energy_only(&self, s: &Structure) -> Result<f64, TbError> {
        self.energy(s)
    }

    fn provider_name(&self) -> &str {
        "dense-tb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silicon::silicon_gsp;
    use tbmd_structure::{dimer, Species};

    #[test]
    fn calculator_implements_provider() {
        let model = silicon_gsp();
        let calc = TbCalculator::new(&model);
        let s = dimer(Species::Silicon, 2.35);
        let eval = calc.evaluate(&s).unwrap();
        assert_eq!(eval.forces.len(), 2);
        let e = calc.energy_only(&s).unwrap();
        assert!((e - eval.energy).abs() < 1e-10);
        assert_eq!(calc.provider_name(), "dense-tb");
        // Dimer forces: equal and opposite along the bond.
        assert!((eval.forces[0] + eval.forces[1]).norm() < 1e-10);
    }
}
