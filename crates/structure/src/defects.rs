//! Defect and deformation constructors: vacancies, interstitials, seeded
//! displacement disorder, and affine strain.
//!
//! These are the perturbations a campaign matrix applies to a generated
//! structure before dynamics. Each is deterministic given its arguments —
//! the stochastic one (disorder) takes an explicit u64 seed rather than a
//! caller-held RNG, so a declarative spec can pin it end to end.

use crate::species::Species;
use crate::structure::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd_linalg::Vec3;

/// Remove atom `site`, returning the removed position (the vacancy's
/// lattice location, useful for formation-volume analysis). Index semantics
/// follow [`Structure::remove_atom`]: the last atom takes the freed slot.
pub fn make_vacancy(s: &mut Structure, site: usize) -> Vec3 {
    let removed = s.position(site);
    s.remove_atom(site);
    removed
}

/// Insert one `sp` atom at fractional cell coordinates `frac` (each in
/// [0, 1), multiplied by the box lengths; on aperiodic axes the coordinate
/// is taken as absolute Å). Returns the new atom's index.
pub fn insert_interstitial(s: &mut Structure, sp: Species, frac: [f64; 3]) -> usize {
    let cell = *s.cell();
    let scale = |f: f64, length: f64, periodic: bool| if periodic { f * length } else { f };
    let pos = Vec3::new(
        scale(frac[0], cell.lengths.x, cell.periodic[0]),
        scale(frac[1], cell.lengths.y, cell.periodic[1]),
        scale(frac[2], cell.lengths.z, cell.periodic[2]),
    );
    s.add_atom(sp, pos)
}

/// Displace every atom by a uniform random vector of amplitude `max_disp`
/// per component, drawn from an explicit seed — [`Structure::perturb`] with
/// the RNG pinned, so equal `(structure, max_disp, seed)` always produce
/// the same disordered configuration. A NaN or non-positive amplitude
/// displaces nothing.
pub fn displacement_disorder(s: &mut Structure, max_disp: f64, seed: u64) {
    if max_disp.is_nan() || max_disp <= 0.0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    s.perturb(&mut rng, max_disp);
}

/// Apply a diagonal affine strain: scale positions and periodic box lengths
/// by `1 + strain[axis]` per Cartesian axis. This is the homogeneous
/// deformation of a strain ramp — atoms keep their fractional coordinates,
/// the box changes shape.
pub fn apply_strain(s: &mut Structure, strain: [f64; 3]) {
    let factor = Vec3::new(1.0 + strain[0], 1.0 + strain[1], 1.0 + strain[2]);
    assert!(
        factor.x > 0.0 && factor.y > 0.0 && factor.z > 0.0,
        "strain {strain:?} inverts the cell"
    );
    for r in s.positions_mut() {
        r.x *= factor.x;
        r.y *= factor.y;
        r.z *= factor.z;
    }
    let cell = s.cell_mut();
    cell.lengths.x *= factor.x;
    cell.lengths.y *= factor.y;
    cell.lengths.z *= factor.z;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::bulk_diamond;

    #[test]
    fn vacancy_removes_one_atom_and_reports_site() {
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let expect = s.position(3);
        let got = make_vacancy(&mut s, 3);
        assert_eq!(got, expect);
        assert_eq!(s.n_atoms(), 7);
    }

    #[test]
    fn interstitial_lands_at_fractional_coordinates() {
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let l = s.cell().lengths;
        let i = insert_interstitial(&mut s, Species::Silicon, [0.5, 0.5, 0.5]);
        assert_eq!(s.n_atoms(), 9);
        assert_eq!(i, 8);
        let p = s.position(i);
        assert!((p.x - 0.5 * l.x).abs() < 1e-12);
        assert!((p.y - 0.5 * l.y).abs() < 1e-12);
        assert!((p.z - 0.5 * l.z).abs() < 1e-12);
    }

    #[test]
    fn disorder_is_seed_deterministic() {
        let mut a = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut b = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut c = bulk_diamond(Species::Silicon, 1, 1, 1);
        displacement_disorder(&mut a, 0.05, 7);
        displacement_disorder(&mut b, 0.05, 7);
        displacement_disorder(&mut c, 0.05, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn strain_scales_positions_and_cell_together() {
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let l0 = s.cell().lengths;
        let p0 = s.position(5);
        apply_strain(&mut s, [0.02, 0.0, -0.01]);
        let l1 = s.cell().lengths;
        assert!((l1.x - l0.x * 1.02).abs() < 1e-12);
        assert!((l1.y - l0.y).abs() < 1e-12);
        assert!((l1.z - l0.z * 0.99).abs() < 1e-12);
        let p1 = s.position(5);
        assert!((p1.x - p0.x * 1.02).abs() < 1e-12);
        // Fractional coordinates are preserved.
        assert!((p1.x / l1.x - p0.x / l0.x).abs() < 1e-12);
    }
}
