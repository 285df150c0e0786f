//! Trajectory recording: in-memory frame capture.

use crate::state::MdState;
use tbmd_structure::Structure;

/// One recorded snapshot.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Simulation time (fs).
    pub time_fs: f64,
    /// Configuration at that time.
    pub structure: Structure,
    /// Potential energy (eV).
    pub potential_energy: f64,
    /// Kinetic energy (eV).
    pub kinetic_energy: f64,
    /// Instantaneous temperature (K).
    pub temperature: f64,
}

/// Records frames every `stride` steps.
#[derive(Debug, Clone)]
pub struct Trajectory {
    stride: usize,
    counter: usize,
    frames: Vec<Frame>,
}

impl Trajectory {
    /// Record every `stride`-th call to [`Trajectory::observe`].
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0);
        Trajectory {
            stride,
            counter: 0,
            frames: Vec::new(),
        }
    }

    /// Offer a state for recording (call once per MD step).
    pub fn observe(&mut self, state: &MdState) {
        if self.counter.is_multiple_of(self.stride) {
            self.frames.push(Frame {
                time_fs: state.time_fs,
                structure: state.structure.clone(),
                potential_energy: state.potential_energy,
                kinetic_energy: state.kinetic_energy(),
                temperature: state.temperature(),
            });
        }
        self.counter += 1;
    }

    /// Recorded frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Number of frames captured.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frames are stored.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbmd_linalg::Vec3;
    use tbmd_model::{silicon_gsp, TbCalculator};
    use tbmd_structure::{bulk_diamond, Species};

    #[test]
    fn stride_respected() {
        let model = silicon_gsp();
        let calc = TbCalculator::new(&model);
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let state = MdState::new(s, vec![Vec3::ZERO; 8], &calc).unwrap();
        let mut traj = Trajectory::new(3);
        for _ in 0..10 {
            traj.observe(&state);
        }
        assert_eq!(traj.len(), 4); // steps 0, 3, 6, 9
        assert!(!traj.is_empty());
    }
}
