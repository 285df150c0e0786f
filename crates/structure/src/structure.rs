//! The central atomistic container: species + positions + cell.

use crate::cell::Cell;
use crate::species::Species;
use rand::Rng;
use tbmd_linalg::Vec3;

/// An atomic configuration.
///
/// Positions are Cartesian (Å). All geometric queries route through the
/// embedded [`Cell`] so periodic images are handled uniformly.
#[derive(Debug, Clone, PartialEq)]
pub struct Structure {
    species: Vec<Species>,
    positions: Vec<Vec3>,
    cell: Cell,
}

impl Structure {
    /// Build from parallel species/position arrays.
    ///
    /// # Panics
    /// Panics if the arrays differ in length.
    pub fn new(species: Vec<Species>, positions: Vec<Vec3>, cell: Cell) -> Self {
        assert_eq!(
            species.len(),
            positions.len(),
            "species/position length mismatch"
        );
        Structure {
            species,
            positions,
            cell,
        }
    }

    /// A single-species structure.
    pub fn homogeneous(sp: Species, positions: Vec<Vec3>, cell: Cell) -> Self {
        let species = vec![sp; positions.len()];
        Structure {
            species,
            positions,
            cell,
        }
    }

    /// Number of atoms.
    #[inline]
    pub fn n_atoms(&self) -> usize {
        self.species.len()
    }

    /// Total tight-binding orbital count (Σ per-atom orbitals).
    pub fn n_orbitals(&self) -> usize {
        self.species.iter().map(|s| s.n_orbitals()).sum()
    }

    /// Total valence electron count.
    pub fn n_electrons(&self) -> usize {
        self.species.iter().map(|s| s.valence_electrons()).sum()
    }

    /// Species of atom `i`.
    #[inline]
    pub fn species(&self, i: usize) -> Species {
        self.species[i]
    }

    /// All species.
    #[inline]
    pub fn species_slice(&self) -> &[Species] {
        &self.species
    }

    /// Position of atom `i`.
    #[inline]
    pub fn position(&self, i: usize) -> Vec3 {
        self.positions[i]
    }

    /// All positions.
    #[inline]
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Mutable positions (callers must keep them inside sensible bounds;
    /// atoms may sit outside the primary cell).
    #[inline]
    pub fn positions_mut(&mut self) -> &mut [Vec3] {
        &mut self.positions
    }

    /// Replace all positions.
    pub fn set_positions(&mut self, pos: Vec<Vec3>) {
        assert_eq!(pos.len(), self.species.len());
        self.positions = pos;
    }

    /// The simulation cell.
    #[inline]
    pub fn cell(&self) -> &Cell {
        &self.cell
    }

    /// Minimum-image displacement from atom `i` to atom `j`.
    #[inline]
    pub fn displacement(&self, i: usize, j: usize) -> Vec3 {
        self.cell.displacement(self.positions[i], self.positions[j])
    }

    /// Minimum-image distance between atoms `i` and `j`.
    #[inline]
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.displacement(i, j).norm()
    }

    /// Masses of all atoms in amu.
    pub fn masses(&self) -> Vec<f64> {
        self.species.iter().map(|s| s.mass_amu()).collect()
    }

    /// Total mass in amu.
    pub fn total_mass(&self) -> f64 {
        self.species.iter().map(|s| s.mass_amu()).sum()
    }

    /// Mass-weighted centre of mass.
    pub fn center_of_mass(&self) -> Vec3 {
        let m = self.total_mass();
        self.species
            .iter()
            .zip(&self.positions)
            .map(|(s, &r)| r * s.mass_amu())
            .sum::<Vec3>()
            / m
    }

    /// Displace every atom by a uniform random vector of amplitude
    /// `max_disp` per component — the standard trick to break symmetry
    /// before MD or relaxation.
    pub fn perturb<R: Rng>(&mut self, rng: &mut R, max_disp: f64) {
        for r in &mut self.positions {
            *r += Vec3::new(
                rng.gen_range(-max_disp..=max_disp),
                rng.gen_range(-max_disp..=max_disp),
                rng.gen_range(-max_disp..=max_disp),
            );
        }
    }

    /// Substitute the species of atom `i` (e.g. boron doping of a carbon
    /// structure).
    pub fn substitute(&mut self, i: usize, sp: Species) {
        self.species[i] = sp;
    }

    /// Remove atom `i` (vacancy creation); the last atom takes its index.
    pub fn remove_atom(&mut self, i: usize) {
        assert!(i < self.n_atoms(), "atom index out of range");
        self.species.swap_remove(i);
        self.positions.swap_remove(i);
    }

    /// Append an atom (interstitial insertion) and return its index.
    pub fn add_atom(&mut self, sp: Species, position: Vec3) -> usize {
        self.species.push(sp);
        self.positions.push(position);
        self.n_atoms() - 1
    }

    /// Mutable access to the cell — for homogeneous deformations that scale
    /// box lengths and positions together (see `defects::apply_strain`).
    pub fn cell_mut(&mut self) -> &mut Cell {
        &mut self.cell
    }

    /// All unordered pairs closer than `cutoff` (brute force; the neighbor
    /// module provides the O(N) linked-cell version).
    pub fn pairs_within(&self, cutoff: f64) -> Vec<(usize, usize, f64)> {
        let n = self.n_atoms();
        let mut out = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.distance(i, j);
                if d <= cutoff {
                    out.push((i, j, d));
                }
            }
        }
        out
    }

    /// Coordination number of atom `i` at the given bond cutoff.
    pub fn coordination(&self, i: usize, cutoff: f64) -> usize {
        (0..self.n_atoms())
            .filter(|&j| j != i && self.distance(i, j) <= cutoff)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_atom() -> Structure {
        Structure::homogeneous(
            Species::Silicon,
            vec![Vec3::ZERO, Vec3::new(2.35, 0.0, 0.0)],
            Cell::cluster(),
        )
    }

    #[test]
    fn counts() {
        let s = two_atom();
        assert_eq!(s.n_atoms(), 2);
        assert_eq!(s.n_orbitals(), 8);
        assert_eq!(s.n_electrons(), 8);
    }

    #[test]
    fn distance_and_displacement() {
        let s = two_atom();
        assert!((s.distance(0, 1) - 2.35).abs() < 1e-12);
        assert!((s.displacement(0, 1).x - 2.35).abs() < 1e-12);
        assert!((s.displacement(1, 0).x + 2.35).abs() < 1e-12);
    }

    #[test]
    fn center_of_mass_homogeneous() {
        let s = two_atom();
        let com = s.center_of_mass();
        assert!((com.x - 1.175).abs() < 1e-12);
        assert!(com.y.abs() < 1e-12);
    }

    #[test]
    fn center_of_mass_weighted() {
        let s = Structure::new(
            vec![Species::Hydrogen, Species::Silicon],
            vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)],
            Cell::cluster(),
        );
        let com = s.center_of_mass();
        let expected = 28.0855 / (28.0855 + 1.008);
        assert!((com.x - expected).abs() < 1e-10);
    }

    #[test]
    fn perturb_bounded_and_reproducible() {
        let mut a = two_atom();
        let mut b = two_atom();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        a.perturb(&mut r1, 0.05);
        b.perturb(&mut r2, 0.05);
        assert_eq!(a, b, "same seed must give the same perturbation");
        for (orig, new) in two_atom().positions().iter().zip(a.positions()) {
            assert!((*new - *orig).max_abs() <= 0.05 + 1e-15);
        }
    }

    #[test]
    fn substitution() {
        let mut s = two_atom();
        s.substitute(1, Species::Carbon);
        assert_eq!(s.species(1), Species::Carbon);
        assert_eq!(s.n_electrons(), 8);
        s.substitute(0, Species::Boron);
        assert_eq!(s.n_electrons(), 7);
    }

    #[test]
    fn pairs_and_coordination() {
        let s = Structure::homogeneous(
            Species::Carbon,
            vec![
                Vec3::ZERO,
                Vec3::new(1.4, 0.0, 0.0),
                Vec3::new(0.0, 1.4, 0.0),
                Vec3::new(5.0, 5.0, 5.0),
            ],
            Cell::cluster(),
        );
        let pairs = s.pairs_within(1.5);
        assert_eq!(pairs.len(), 2);
        assert_eq!(s.coordination(0, 1.5), 2);
        assert_eq!(s.coordination(3, 1.5), 0);
        assert!(pairs.iter().all(|&(_, _, d)| (d - 1.4).abs() < 1e-12));
    }

    #[test]
    fn remove_atom_swaps_last_in() {
        let mut s = Structure::new(
            vec![Species::Carbon, Species::Silicon, Species::Hydrogen],
            vec![
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(2.0, 0.0, 0.0),
            ],
            Cell::cluster(),
        );
        s.remove_atom(0);
        assert_eq!(s.n_atoms(), 2);
        assert_eq!(s.species(0), Species::Hydrogen);
        assert!((s.position(0).x - 2.0).abs() < 1e-15);
        assert_eq!(s.species(1), Species::Silicon);
    }

    #[test]
    #[should_panic]
    fn remove_atom_out_of_range() {
        let mut s = two_atom();
        s.remove_atom(5);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = Structure::new(vec![Species::Carbon], vec![], Cell::cluster());
    }
}
