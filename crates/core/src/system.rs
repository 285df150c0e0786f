//! Named benchmark systems: the workloads the evaluation section runs.

use tbmd_model::{carbon_xwch, silicon_gsp, GspTbModel};
use tbmd_structure::{
    bulk_diamond, displacement_disorder, fullerene_c60, graphene_sheet, nanotube,
    nanotube_geometry, Species, Structure,
};

/// The most atoms a front end builds from a request (a `tbmd-serve` job line,
/// a campaign spec): 4096, the size ROADMAP item 1 targets. Past it a
/// request is refused before anything is built — `"reps": 1000` asks for
/// 8·10⁹ atoms, and the failed allocation would abort the process with every
/// tenant in it.
pub const MAX_ATOMS: usize = 4096;

/// A system specification that can be materialized into a structure and its
/// matching tight-binding model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemSpec {
    /// Periodic silicon diamond supercell of `reps³` conventional cells
    /// (8·reps³ atoms) — the canonical TBMD benchmark series.
    SiliconDiamond { reps: usize },
    /// Periodic carbon diamond supercell.
    CarbonDiamond { reps: usize },
    /// Periodic graphene sheet of `nx × ny` rectangular 4-atom cells.
    Graphene { nx: usize, ny: usize },
    /// `(n,m)` single-wall carbon nanotube of `cells` translational cells.
    Nanotube { n: u32, m: u32, cells: usize },
    /// The C₆₀ fullerene cluster.
    C60,
}

impl SystemSpec {
    /// Parse a system name as the front ends spell it — `si` / `silicon`,
    /// `c` / `carbon`, `graphene`, `c60` — with the supercell repeat count
    /// (clamped to at least 1; graphene is `reps × reps`, C₆₀ ignores it).
    /// A system of more than [`MAX_ATOMS`] atoms is an error.
    pub fn parse(name: &str, reps: usize) -> Result<SystemSpec, String> {
        let reps = reps.max(1);
        let spec = match name {
            "si" | "silicon" => SystemSpec::SiliconDiamond { reps },
            "c" | "carbon" => SystemSpec::CarbonDiamond { reps },
            "graphene" => SystemSpec::Graphene { nx: reps, ny: reps },
            "c60" => SystemSpec::C60,
            other => return Err(format!("unknown system {other:?}")),
        };
        spec.check_size()?;
        Ok(spec)
    }

    /// Atoms [`SystemSpec::build`] makes, in closed form (saturating, so any
    /// repeat count answers).
    pub fn n_atoms(&self) -> usize {
        let times = |a: usize, b: usize| a.saturating_mul(b);
        match *self {
            SystemSpec::SiliconDiamond { reps } | SystemSpec::CarbonDiamond { reps } => {
                times(times(times(8, reps), reps), reps)
            }
            SystemSpec::Graphene { nx, ny } => times(times(4, nx), ny),
            SystemSpec::Nanotube { n, m, cells } => {
                times(nanotube_geometry(n, m, 1.42).atoms_per_cell, cells)
            }
            SystemSpec::C60 => 60,
        }
    }

    /// Orbitals of the structure [`SystemSpec::build`] makes — the order of
    /// its Hamiltonian — in closed form (saturating, like
    /// [`SystemSpec::n_atoms`]).
    pub fn n_orbitals(&self) -> usize {
        let species = match self {
            SystemSpec::SiliconDiamond { .. } => Species::Silicon,
            _ => Species::Carbon,
        };
        self.n_atoms().saturating_mul(species.n_orbitals())
    }

    /// The atom count, or an error naming the limit past [`MAX_ATOMS`].
    pub fn check_size(&self) -> Result<usize, String> {
        match self.n_atoms() {
            atoms if atoms <= MAX_ATOMS => Ok(atoms),
            _ => Err(format!(
                "{} exceeds the limit of {MAX_ATOMS} atoms",
                self.label()
            )),
        }
    }

    /// Build the structure, optionally displacing every atom by up to
    /// `perturb` Å with the given RNG seed ([`displacement_disorder`]; 0
    /// disables).
    pub fn build(&self, perturb: f64, seed: u64) -> Structure {
        let mut s = match *self {
            SystemSpec::SiliconDiamond { reps } => bulk_diamond(Species::Silicon, reps, reps, reps),
            SystemSpec::CarbonDiamond { reps } => bulk_diamond(Species::Carbon, reps, reps, reps),
            SystemSpec::Graphene { nx, ny } => graphene_sheet(1.42, nx, ny),
            SystemSpec::Nanotube { n, m, cells } => nanotube(n, m, cells, 1.42),
            SystemSpec::C60 => fullerene_c60(1.44),
        };
        displacement_disorder(&mut s, perturb, seed);
        s
    }

    /// The tight-binding model parametrizing this system.
    pub fn model(&self) -> GspTbModel {
        match self {
            SystemSpec::SiliconDiamond { .. } => silicon_gsp(),
            _ => carbon_xwch(),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match *self {
            SystemSpec::SiliconDiamond { reps } => format!("Si-diamond {0}x{0}x{0}", reps),
            SystemSpec::CarbonDiamond { reps } => format!("C-diamond {0}x{0}x{0}", reps),
            SystemSpec::Graphene { nx, ny } => format!("graphene {nx}x{ny}"),
            SystemSpec::Nanotube { n, m, cells } => format!("({n},{m}) tube x{cells}"),
            SystemSpec::C60 => "C60".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbmd_model::TbModel;

    #[test]
    fn atom_count_is_the_built_count() {
        let specs = [
            SystemSpec::SiliconDiamond { reps: 2 },
            SystemSpec::CarbonDiamond { reps: 1 },
            SystemSpec::Graphene { nx: 3, ny: 2 },
            SystemSpec::Nanotube {
                n: 8,
                m: 4,
                cells: 1,
            },
            SystemSpec::C60,
        ];
        for spec in specs {
            let built = spec.build(0.0, 0);
            assert_eq!(spec.n_atoms(), built.n_atoms(), "{spec:?}");
            assert_eq!(spec.n_orbitals(), built.n_orbitals(), "{spec:?}");
        }
        let huge = SystemSpec::SiliconDiamond { reps: usize::MAX };
        assert_eq!(huge.n_atoms(), usize::MAX);
        assert!(huge.check_size().is_err());
        assert_eq!(SystemSpec::parse("si", 8).unwrap().n_atoms(), MAX_ATOMS);
        assert!(SystemSpec::parse("graphene", 33).is_err());
    }

    #[test]
    fn builds_expected_sizes() {
        assert_eq!(
            SystemSpec::SiliconDiamond { reps: 2 }
                .build(0.0, 0)
                .n_atoms(),
            64
        );
        assert_eq!(SystemSpec::C60.build(0.0, 0).n_atoms(), 60);
        assert_eq!(
            SystemSpec::Nanotube {
                n: 10,
                m: 0,
                cells: 3
            }
            .build(0.0, 0)
            .n_atoms(),
            120
        );
        assert_eq!(
            SystemSpec::Graphene { nx: 2, ny: 2 }
                .build(0.0, 0)
                .n_atoms(),
            16
        );
    }

    #[test]
    fn model_matches_species() {
        let si = SystemSpec::SiliconDiamond { reps: 1 };
        assert!(si.model().supports(Species::Silicon));
        let c60 = SystemSpec::C60;
        assert!(c60.model().supports(Species::Carbon));
    }

    #[test]
    fn perturbation_deterministic() {
        let spec = SystemSpec::C60;
        let a = spec.build(0.05, 7);
        let b = spec.build(0.05, 7);
        let c = spec.build(0.05, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn labels() {
        assert_eq!(
            SystemSpec::SiliconDiamond { reps: 3 }.label(),
            "Si-diamond 3x3x3"
        );
        assert_eq!(
            SystemSpec::Nanotube {
                n: 10,
                m: 0,
                cells: 2
            }
            .label(),
            "(10,0) tube x2"
        );
    }
}
