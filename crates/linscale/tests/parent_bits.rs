//! Bits pinned to the parent of the block-layout `SparseH`: the O(N)
//! engines, whose Hamiltonian is now built straight into 4×4 blocks, must
//! reproduce bit for bit what they computed from the scalar CSR matrix.
//!
//! Each constant is an FNV-1a hash over the `to_bits()` of the energy and
//! then every force component, recorded by running this file against the
//! parent commit. They were re-recorded twice: when both engines moved from
//! the Gershgorin window to the Lanczos window (`chebyshev::window`; order
//! 64 is below the derived order, so only the window moved), and when the
//! moment pass and the density pass became one pass expanded about a μ grid
//! point (the moments are read off the diagonal, and ρ is corrected from the
//! grid point to μ). The three-rank constant was re-recorded once more when
//! both engines came to run one body: a rank sums its atoms' moments in
//! chunks of eight, as the serial engine always did, where it had summed
//! them atom by atom. The matvec count is that of a cold evaluation: a
//! moments-only pass and the pass at μ's grid point. The block
//! recurrence fuses its multiply-adds (`mul_add`, the same value with or
//! without an FMA instruction), but the model goes through `powf`/`exp`
//! from the host's libm, so like every other bitwise pin in the repository
//! these belong to the host's libm.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tbmd_linscale::{DistributedLinearScalingTb, LinearScalingTb};
use tbmd_model::{silicon_gsp, ForceEvaluation, ForceProvider, TbModel};
use tbmd_structure::{bulk_diamond, Species, Structure};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(mut self, x: f64) -> Fnv {
        for byte in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

/// Hash of the energy, then the forces atom by atom.
fn evaluation_hash(eval: &ForceEvaluation) -> u64 {
    let forces = eval.forces.iter().flat_map(|f| f.to_array());
    forces.fold(Fnv::new().add(eval.energy), Fnv::add).0
}

/// Perturbed Si-64.
fn si64() -> Structure {
    let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
    s.perturb(&mut StdRng::seed_from_u64(29), 0.05);
    s
}

const R_LOC: f64 = 6.0;
const ORDER: usize = 64;

#[test]
fn linear_scaling_engine_reproduces_the_parent_bits() {
    let model = silicon_gsp();
    let model: &dyn TbModel = black_box(&model);
    let engine = LinearScalingTb::new(model)
        .with_r_loc(R_LOC)
        .with_order(ORDER);
    let hash = evaluation_hash(&engine.evaluate(&si64()).unwrap());
    let report = engine.last_report().unwrap();
    assert_eq!(
        (report.total_matvec_ops, report.total_region_orbitals),
        (108_529_344, 11_208),
        "per-layer counts"
    );
    assert_eq!(hash, 0x05d2_e192_355d_bda4, "{hash:#018x}");
}

#[test]
fn distributed_engine_at_three_ranks_reproduces_the_parent_bits() {
    let model = silicon_gsp();
    let model: &dyn TbModel = black_box(&model);
    let engine = DistributedLinearScalingTb::new(
        LinearScalingTb::new(model)
            .with_r_loc(R_LOC)
            .with_order(ORDER),
        3,
    );
    let hash = evaluation_hash(&engine.evaluate(&si64()).unwrap());
    assert_eq!(hash, 0x4534_933b_e206_4173, "{hash:#018x}");
}
