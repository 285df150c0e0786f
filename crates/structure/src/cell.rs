//! Simulation cells and periodic boundary conditions.
//!
//! Three cell types cover all workloads in this project: free clusters (no
//! boundary), orthorhombic boxes (bulk Si/C supercells) and cells that are
//! periodic along a subset of axes (nanotubes: periodic along z only,
//! graphene sheets: periodic along x and y).
//!
//! [`Cell::displacement`] applies the minimum-image convention on the
//! periodic axes, exact for distances below half the shortest periodic
//! edge. Neighbour lists do not use it: they label every periodic image
//! explicitly ([`crate::NeighborList`]), so any cutoff works in any cell.

use crate::vec3ext::wrap_component;
use tbmd_linalg::Vec3;

/// A simulation cell: box lengths along x/y/z plus a periodicity mask.
///
/// A zero-length axis is only meaningful when that axis is aperiodic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Box edge lengths in Å. Ignored on aperiodic axes.
    pub lengths: Vec3,
    /// Which axes wrap periodically.
    pub periodic: [bool; 3],
}

impl Cell {
    /// A free cluster: nothing is periodic.
    pub fn cluster() -> Self {
        Cell {
            lengths: Vec3::ZERO,
            periodic: [false; 3],
        }
    }

    /// A fully periodic orthorhombic box.
    pub fn orthorhombic(lx: f64, ly: f64, lz: f64) -> Self {
        assert!(
            lx > 0.0 && ly > 0.0 && lz > 0.0,
            "box edges must be positive"
        );
        Cell {
            lengths: Vec3::new(lx, ly, lz),
            periodic: [true; 3],
        }
    }

    /// A cubic periodic box.
    pub fn cubic(l: f64) -> Self {
        Cell::orthorhombic(l, l, l)
    }

    /// Periodic along z only (wire/nanotube geometry).
    pub fn wire_z(lz: f64) -> Self {
        assert!(lz > 0.0);
        Cell {
            lengths: Vec3::new(0.0, 0.0, lz),
            periodic: [false, false, true],
        }
    }

    /// Periodic in the xy plane (slab/sheet geometry).
    pub fn slab_xy(lx: f64, ly: f64) -> Self {
        assert!(lx > 0.0 && ly > 0.0);
        Cell {
            lengths: Vec3::new(lx, ly, 0.0),
            periodic: [true, true, false],
        }
    }

    /// Minimum-image displacement `r_j - r_i`.
    #[inline]
    pub fn displacement(&self, ri: Vec3, rj: Vec3) -> Vec3 {
        let mut d = rj - ri;
        for axis in 0..3 {
            if self.periodic[axis] {
                let l = self.lengths[axis];
                d[axis] -= l * (d[axis] / l).round();
            }
        }
        d
    }

    /// Minimum-image distance between two positions.
    #[inline]
    pub fn distance(&self, ri: Vec3, rj: Vec3) -> f64 {
        self.displacement(ri, rj).norm()
    }

    /// Wrap a position into the primary cell `[0, L)` on periodic axes.
    #[inline]
    pub fn wrap(&self, mut r: Vec3) -> Vec3 {
        for axis in 0..3 {
            if self.periodic[axis] {
                r[axis] = wrap_component(r[axis], self.lengths[axis]);
            }
        }
        r
    }

    /// Volume of the periodic box. Returns `None` unless all three axes are
    /// periodic (a cluster or slab has no well-defined volume).
    pub fn volume(&self) -> Option<f64> {
        if self.periodic == [true; 3] {
            Some(self.lengths.x * self.lengths.y * self.lengths.z)
        } else {
            None
        }
    }

    /// The shortest periodic edge, or `None` for a cluster. Interaction
    /// cutoffs must stay below half this value for the minimum-image
    /// convention to be exact.
    pub fn min_periodic_edge(&self) -> Option<f64> {
        (0..3)
            .filter(|&a| self.periodic[a])
            .map(|a| self.lengths[a])
            .fold(None, |acc, l| Some(acc.map_or(l, |m: f64| m.min(l))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_displacement_is_plain_difference() {
        let c = Cell::cluster();
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(100.0, -50.0, 3.0);
        assert_eq!(c.displacement(a, b), b);
        assert_eq!(c.volume(), None);
        assert_eq!(c.min_periodic_edge(), None);
    }

    #[test]
    fn minimum_image_in_cube() {
        let c = Cell::cubic(10.0);
        let a = Vec3::new(0.5, 0.5, 0.5);
        let b = Vec3::new(9.5, 0.5, 0.5);
        let d = c.displacement(a, b);
        assert!(
            (d.x - -1.0).abs() < 1e-12,
            "wrapped displacement should be -1, got {}",
            d.x
        );
        assert!((c.distance(a, b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn displacement_antisymmetric() {
        let c = Cell::orthorhombic(8.0, 9.0, 10.0);
        let a = Vec3::new(1.0, 8.5, 3.0);
        let b = Vec3::new(7.5, 0.5, 9.9);
        let dab = c.displacement(a, b);
        let dba = c.displacement(b, a);
        assert!((dab + dba).norm() < 1e-12);
    }

    #[test]
    fn wrap_into_box() {
        let c = Cell::cubic(5.0);
        let r = c.wrap(Vec3::new(-0.1, 5.1, 12.6));
        assert!((r.x - 4.9).abs() < 1e-12);
        assert!((r.y - 0.1).abs() < 1e-12);
        assert!((r.z - 2.6).abs() < 1e-12);
    }

    #[test]
    fn wrap_is_idempotent() {
        let c = Cell::orthorhombic(3.0, 4.0, 5.0);
        let r = Vec3::new(-7.3, 11.2, 4.999);
        let w1 = c.wrap(r);
        let w2 = c.wrap(w1);
        assert!((w1 - w2).norm() < 1e-12);
        for a in 0..3 {
            assert!(w1[a] >= 0.0 && w1[a] < c.lengths[a]);
        }
    }

    #[test]
    fn wrap_preserves_distances() {
        let c = Cell::cubic(6.0);
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(5.5, 0.2, 4.4);
        let d1 = c.distance(a, b);
        let d2 = c.distance(c.wrap(a + Vec3::splat(12.0)), c.wrap(b - Vec3::splat(6.0)));
        assert!((d1 - d2).abs() < 1e-10);
    }

    #[test]
    fn wire_periodicity_only_z() {
        let c = Cell::wire_z(10.0);
        let a = Vec3::new(0.0, 0.0, 0.5);
        let b = Vec3::new(3.0, 0.0, 9.5);
        let d = c.displacement(a, b);
        assert!((d.z - -1.0).abs() < 1e-12);
        assert!((d.x - 3.0).abs() < 1e-12);
        assert_eq!(c.volume(), None);
        assert_eq!(c.min_periodic_edge(), Some(10.0));
    }

    #[test]
    fn slab_periodicity() {
        let c = Cell::slab_xy(4.0, 6.0);
        let d = c.displacement(Vec3::new(3.9, 5.9, 0.0), Vec3::new(0.1, 0.1, 7.0));
        assert!((d.x - 0.2).abs() < 1e-12);
        assert!((d.y - 0.2).abs() < 1e-12);
        assert!((d.z - 7.0).abs() < 1e-12);
    }

    #[test]
    fn volume() {
        assert_eq!(Cell::orthorhombic(2.0, 3.0, 4.0).volume(), Some(24.0));
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_edges() {
        let _ = Cell::orthorhombic(1.0, -2.0, 3.0);
    }
}
