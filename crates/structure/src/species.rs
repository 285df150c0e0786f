//! Chemical species known to the workspace.
//!
//! Tight-binding MD of the early 1990s revolved around silicon
//! (Goodwin–Skinner–Pettifor / Kwon parametrizations) and carbon
//! (Xu–Wang–Chan–Ho); hydrogen and boron appear as edge saturators and
//! dopants in the application literature, so they carry masses and valence
//! counts here even though the bundled TB models parametrize only Si and C.

/// A chemical element handled by the structure and model layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Species {
    Hydrogen,
    Boron,
    Carbon,
    Silicon,
}

impl Species {
    /// Atomic mass in unified atomic mass units (amu).
    pub fn mass_amu(self) -> f64 {
        match self {
            Species::Hydrogen => 1.008,
            Species::Boron => 10.811,
            Species::Carbon => 12.011,
            Species::Silicon => 28.0855,
        }
    }

    /// Number of valence electrons contributed to the tight-binding bands.
    pub fn valence_electrons(self) -> usize {
        match self {
            Species::Hydrogen => 1,
            Species::Boron => 3,
            Species::Carbon => 4,
            Species::Silicon => 4,
        }
    }

    /// Number of tight-binding basis orbitals on the atom (`s` for H,
    /// `s + p_x + p_y + p_z` for the sp³ elements).
    pub fn n_orbitals(self) -> usize {
        match self {
            Species::Hydrogen => 1,
            Species::Boron | Species::Carbon | Species::Silicon => 4,
        }
    }

    /// Conventional one- or two-letter chemical symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Species::Hydrogen => "H",
            Species::Boron => "B",
            Species::Carbon => "C",
            Species::Silicon => "Si",
        }
    }

    /// A typical nearest-neighbour bond length in Å for the element's
    /// reference phase (diamond for C/Si); used for sanity checks and
    /// structure-builder defaults.
    pub fn reference_bond_length(self) -> f64 {
        match self {
            Species::Hydrogen => 0.74,
            Species::Boron => 1.70,
            Species::Carbon => 1.544,
            Species::Silicon => 2.351,
        }
    }
}

impl std::fmt::Display for Species {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orbital_counts() {
        assert_eq!(Species::Hydrogen.n_orbitals(), 1);
        assert_eq!(Species::Carbon.n_orbitals(), 4);
        assert_eq!(Species::Silicon.n_orbitals(), 4);
    }

    #[test]
    fn masses_ordered() {
        assert!(Species::Hydrogen.mass_amu() < Species::Boron.mass_amu());
        assert!(Species::Boron.mass_amu() < Species::Carbon.mass_amu());
        assert!(Species::Carbon.mass_amu() < Species::Silicon.mass_amu());
    }

    #[test]
    fn valence() {
        assert_eq!(Species::Carbon.valence_electrons(), 4);
        assert_eq!(Species::Boron.valence_electrons(), 3);
    }
}
