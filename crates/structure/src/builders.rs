//! Structure builders for the workloads used throughout the project:
//! bulk diamond supercells (the Si benchmark system), periodic graphene
//! sheets, (n,m) single-wall nanotubes, the C₆₀ fullerene, and small
//! molecules/chains for unit tests.

use crate::cell::Cell;
use crate::species::Species;
use crate::structure::Structure;
use crate::vec3ext::gcd;
use std::f64::consts::PI;
use tbmd_linalg::Vec3;

/// Diamond-cubic conventional lattice constant for a given first-neighbour
/// bond length `d`: `a = 4 d / √3`.
pub fn diamond_lattice_constant(bond: f64) -> f64 {
    4.0 * bond / 3.0f64.sqrt()
}

/// Periodic diamond-structure supercell of `nx × ny × nz` conventional cubic
/// cells (8 atoms each) with the species' reference bond length.
///
/// This is the canonical TBMD benchmark workload: Si cells of 8, 64, 216,
/// 512 … atoms.
pub fn bulk_diamond(sp: Species, nx: usize, ny: usize, nz: usize) -> Structure {
    bulk_diamond_with_bond(sp, sp.reference_bond_length(), nx, ny, nz)
}

/// Diamond supercell with an explicit bond length (used for equation-of-state
/// scans around equilibrium).
pub fn bulk_diamond_with_bond(
    sp: Species,
    bond: f64,
    nx: usize,
    ny: usize,
    nz: usize,
) -> Structure {
    assert!(
        nx > 0 && ny > 0 && nz > 0,
        "supercell repeats must be positive"
    );
    let a = diamond_lattice_constant(bond);
    // 8-atom conventional cell: FCC + basis (0,0,0) and (1/4,1/4,1/4).
    let frac = [
        (0.0, 0.0, 0.0),
        (0.0, 0.5, 0.5),
        (0.5, 0.0, 0.5),
        (0.5, 0.5, 0.0),
        (0.25, 0.25, 0.25),
        (0.25, 0.75, 0.75),
        (0.75, 0.25, 0.75),
        (0.75, 0.75, 0.25),
    ];
    let mut positions = Vec::with_capacity(8 * nx * ny * nz);
    for ix in 0..nx {
        for iy in 0..ny {
            for iz in 0..nz {
                for &(fx, fy, fz) in &frac {
                    positions.push(Vec3::new(
                        (ix as f64 + fx) * a,
                        (iy as f64 + fy) * a,
                        (iz as f64 + fz) * a,
                    ));
                }
            }
        }
    }
    let cell = Cell::orthorhombic(nx as f64 * a, ny as f64 * a, nz as f64 * a);
    Structure::homogeneous(sp, positions, cell)
}

/// Periodic graphene sheet in the xy plane built from `nx × ny` rectangular
/// 4-atom cells (cell dimensions `3·a_cc × √3·a_cc`), with the given C–C
/// bond length.
pub fn graphene_sheet(bond: f64, nx: usize, ny: usize) -> Structure {
    assert!(nx > 0 && ny > 0);
    let lx = 3.0 * bond;
    let ly = 3.0f64.sqrt() * bond;
    // Rectangular 4-atom basis of the honeycomb lattice.
    let basis = [
        (0.0, 0.0),
        (bond, 0.0),
        (1.5 * bond, 0.5 * ly),
        (2.5 * bond, 0.5 * ly),
    ];
    let mut positions = Vec::with_capacity(4 * nx * ny);
    for ix in 0..nx {
        for iy in 0..ny {
            for &(bx, by) in &basis {
                positions.push(Vec3::new(ix as f64 * lx + bx, iy as f64 * ly + by, 0.0));
            }
        }
    }
    Structure::homogeneous(
        Species::Carbon,
        positions,
        Cell::slab_xy(nx as f64 * lx, ny as f64 * ly),
    )
}

/// Geometry data for an `(n,m)` single-wall nanotube.
#[derive(Debug, Clone, Copy)]
pub struct NanotubeGeometry {
    /// Tube radius in Å.
    pub radius: f64,
    /// Length of the translational unit cell along the axis, in Å.
    pub period: f64,
    /// Atoms per translational unit cell: `4(n² + nm + m²)/d_R`.
    pub atoms_per_cell: usize,
}

/// Analytic geometry of the `(n,m)` tube for a given graphene bond length.
pub fn nanotube_geometry(n: u32, m: u32, bond: f64) -> NanotubeGeometry {
    assert!(n > 0 || m > 0, "chiral indices cannot both be zero");
    let a = 3.0f64.sqrt() * bond; // graphene lattice constant
    let nn = n as f64;
    let mm = m as f64;
    let ch = a * (nn * nn + nn * mm + mm * mm).sqrt();
    let dr = gcd(2 * n as u64 + m as u64, 2 * m as u64 + n as u64) as f64;
    let period = 3.0f64.sqrt() * ch / dr;
    let atoms = (4.0 * (nn * nn + nn * mm + mm * mm) / dr).round() as usize;
    NanotubeGeometry {
        radius: ch / (2.0 * PI),
        period,
        atoms_per_cell: atoms,
    }
}

/// Build an `(n,m)` single-wall carbon nanotube of `cells` translational unit
/// cells, periodic along z (axis), free in x/y.
///
/// The tube is produced by the standard rolling construction: graphene
/// lattice points inside the rectangle spanned by the chiral vector `C_h =
/// n·a₁ + m·a₂` and the translation vector `T` are mapped onto a cylinder of
/// circumference `|C_h|`.
pub fn nanotube(n: u32, m: u32, cells: usize, bond: f64) -> Structure {
    assert!(cells > 0);
    let geom = nanotube_geometry(n, m, bond);
    let a = 3.0f64.sqrt() * bond;
    // Graphene lattice vectors (armchair-oriented conventional choice).
    let a1 = [a * 3.0f64.sqrt() / 2.0, a * 0.5];
    let a2 = [a * 3.0f64.sqrt() / 2.0, -a * 0.5];
    // B-sublattice offset: (a1 + a2)/3.
    let b_off = [(a1[0] + a2[0]) / 3.0, (a1[1] + a2[1]) / 3.0];
    let nn = n as i64;
    let mm = m as i64;
    let dr = gcd((2 * nn + mm) as u64, (2 * mm + nn) as u64) as i64;
    let t1 = (2 * mm + nn) / dr;
    let t2 = -(2 * nn + mm) / dr;
    let ch = [
        nn as f64 * a1[0] + mm as f64 * a2[0],
        nn as f64 * a1[1] + mm as f64 * a2[1],
    ];
    let tv = [
        t1 as f64 * a1[0] + t2 as f64 * a2[0],
        t1 as f64 * a1[1] + t2 as f64 * a2[1],
    ];
    let ch_len2 = ch[0] * ch[0] + ch[1] * ch[1];
    let tv_len2 = tv[0] * tv[0] + tv[1] * tv[1];
    let tv_len = tv_len2.sqrt();
    let radius = geom.radius;

    // Sweep a generous index window and keep points whose (ξ, η) projections
    // fall inside the unit cell of the (C_h, T) parallelogram.
    let range = nn.abs() + mm.abs() + t1.abs() + t2.abs() + 2;
    let mut positions: Vec<Vec3> = Vec::with_capacity(geom.atoms_per_cell * cells);
    let eps = 1e-9;
    for i in -range..=range {
        for j in -range..=range {
            for (which, off) in [(0usize, [0.0, 0.0]), (1usize, b_off)] {
                let _ = which;
                let x = i as f64 * a1[0] + j as f64 * a2[0] + off[0];
                let y = i as f64 * a1[1] + j as f64 * a2[1] + off[1];
                let xi = (x * ch[0] + y * ch[1]) / ch_len2;
                let eta = (x * tv[0] + y * tv[1]) / tv_len2;
                if xi >= -eps && xi < 1.0 - eps && eta >= -eps && eta < 1.0 - eps {
                    let theta = 2.0 * PI * xi;
                    let z = eta * tv_len;
                    positions.push(Vec3::new(radius * theta.cos(), radius * theta.sin(), z));
                }
            }
        }
    }
    assert_eq!(
        positions.len(),
        geom.atoms_per_cell,
        "nanotube ({n},{m}) construction produced {} atoms, expected {}",
        positions.len(),
        geom.atoms_per_cell
    );
    // Replicate along the axis.
    let mut all = Vec::with_capacity(positions.len() * cells);
    for c in 0..cells {
        let shift = c as f64 * tv_len;
        all.extend(positions.iter().map(|&p| Vec3::new(p.x, p.y, p.z + shift)));
    }
    Structure::homogeneous(Species::Carbon, all, Cell::wire_z(tv_len * cells as f64))
}

/// The C₆₀ buckminsterfullerene as a free cluster.
///
/// Vertices of a truncated icosahedron (all edges equal), scaled so the mean
/// bond length is `bond` (≈1.44 Å experimentally).
pub fn fullerene_c60(bond: f64) -> Structure {
    let phi = (1.0 + 5.0f64.sqrt()) / 2.0;
    // Canonical vertex set with edge length 2.
    let mut base: Vec<[f64; 3]> = Vec::with_capacity(60);
    let sets: [[f64; 3]; 3] = [
        [0.0, 1.0, 3.0 * phi],
        [1.0, 2.0 + phi, 2.0 * phi],
        [2.0, 1.0 + 2.0 * phi, phi],
    ];
    for s in sets {
        for sx in [-1.0f64, 1.0] {
            for sy in [-1.0f64, 1.0] {
                for sz in [-1.0f64, 1.0] {
                    let v = [s[0] * sx, s[1] * sy, s[2] * sz];
                    // Skip duplicate sign flips of zero components.
                    if s[0] == 0.0 && sx < 0.0 {
                        continue;
                    }
                    // Cyclic permutations of the coordinate triple.
                    for perm in 0..3 {
                        let p = match perm {
                            0 => [v[0], v[1], v[2]],
                            1 => [v[2], v[0], v[1]],
                            _ => [v[1], v[2], v[0]],
                        };
                        if !base.iter().any(|q| {
                            (q[0] - p[0]).abs() < 1e-9
                                && (q[1] - p[1]).abs() < 1e-9
                                && (q[2] - p[2]).abs() < 1e-9
                        }) {
                            base.push(p);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        base.len(),
        60,
        "truncated icosahedron must have 60 vertices"
    );
    let scale = bond / 2.0;
    let positions: Vec<Vec3> = base
        .into_iter()
        .map(|p| Vec3::new(p[0] * scale, p[1] * scale, p[2] * scale))
        .collect();
    Structure::homogeneous(Species::Carbon, positions, Cell::cluster())
}

/// A homonuclear dimer along x.
pub fn dimer(sp: Species, bond: f64) -> Structure {
    Structure::homogeneous(
        sp,
        vec![Vec3::ZERO, Vec3::new(bond, 0.0, 0.0)],
        Cell::cluster(),
    )
}

/// A linear chain of `n` atoms with spacing `d`, as a free cluster.
pub fn linear_chain(sp: Species, n: usize, d: f64) -> Structure {
    let positions = (0..n).map(|i| Vec3::new(i as f64 * d, 0.0, 0.0)).collect();
    Structure::homogeneous(sp, positions, Cell::cluster())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_cell_counts_and_bonds() {
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        assert_eq!(s.n_atoms(), 64);
        let d = Species::Silicon.reference_bond_length();
        // Every atom in diamond has exactly 4 neighbours at the bond length.
        for i in 0..s.n_atoms() {
            assert_eq!(s.coordination(i, d * 1.1), 4, "atom {i} coordination");
        }
        // Those bonds are the only pairs that close: none is shorter.
        let pairs = s.pairs_within(d * 1.1);
        assert_eq!(pairs.len(), 2 * s.n_atoms());
        assert!(pairs.iter().all(|&(_, _, r)| (r - d).abs() < 1e-9));
    }

    #[test]
    fn diamond_sizes() {
        assert_eq!(bulk_diamond(Species::Silicon, 1, 1, 1).n_atoms(), 8);
        assert_eq!(bulk_diamond(Species::Silicon, 3, 3, 3).n_atoms(), 216);
        assert_eq!(bulk_diamond(Species::Carbon, 2, 1, 1).n_atoms(), 16);
    }

    #[test]
    fn diamond_lattice_constant_silicon() {
        let a = diamond_lattice_constant(2.351);
        assert!((a - 5.4295).abs() < 1e-3, "a = {a}");
    }

    #[test]
    fn graphene_coordination_three() {
        let s = graphene_sheet(1.42, 3, 3);
        assert_eq!(s.n_atoms(), 36);
        for i in 0..s.n_atoms() {
            assert_eq!(s.coordination(i, 1.42 * 1.1), 3, "atom {i}");
        }
        let pairs = s.pairs_within(1.42 * 1.1);
        assert!(pairs.iter().all(|&(_, _, r)| (r - 1.42).abs() < 1e-9));
    }

    #[test]
    fn zigzag_nanotube_10_0() {
        let geom = nanotube_geometry(10, 0, 1.42);
        assert_eq!(geom.atoms_per_cell, 40);
        // R = √3·a_cc·n / 2π
        let expect_r = 3.0f64.sqrt() * 1.42 * 10.0 / (2.0 * PI);
        assert!((geom.radius - expect_r).abs() < 1e-9);
        // zig-zag period = 3 a_cc
        assert!(
            (geom.period - 3.0 * 1.42).abs() < 1e-9,
            "period {}",
            geom.period
        );
        let tube = nanotube(10, 0, 3, 1.42);
        assert_eq!(tube.n_atoms(), 120);
        // All atoms sit on the cylinder.
        for &p in tube.positions() {
            let r = (p.x * p.x + p.y * p.y).sqrt();
            assert!((r - geom.radius).abs() < 1e-9);
        }
        // Bond network: every atom 3-coordinated (periodic along z).
        for i in 0..tube.n_atoms() {
            assert_eq!(tube.coordination(i, 1.6), 3, "atom {i}");
        }
    }

    #[test]
    fn armchair_nanotube_5_5() {
        let geom = nanotube_geometry(5, 5, 1.42);
        assert_eq!(geom.atoms_per_cell, 20);
        // armchair period = √3 a_cc
        assert!((geom.period - 3.0f64.sqrt() * 1.42).abs() < 1e-9);
        let tube = nanotube(5, 5, 6, 1.42);
        assert_eq!(tube.n_atoms(), 120);
        for i in 0..tube.n_atoms() {
            assert_eq!(tube.coordination(i, 1.6), 3, "atom {i}");
        }
    }

    #[test]
    fn chiral_nanotube_6_3() {
        let geom = nanotube_geometry(6, 3, 1.42);
        // dR = gcd(15, 12) = 3; atoms = 4·63/3 = 84.
        assert_eq!(geom.atoms_per_cell, 84);
        let tube = nanotube(6, 3, 1, 1.42);
        assert_eq!(tube.n_atoms(), 84);
        for i in 0..tube.n_atoms() {
            assert_eq!(tube.coordination(i, 1.6), 3, "atom {i}");
        }
    }

    #[test]
    fn nanotube_bonds_near_graphene_bond() {
        // Rolling shortens bonds slightly (chords of the cylinder); all bonds
        // must stay within a few percent of the flat value.
        let tube = nanotube(8, 0, 2, 1.42);
        for (i, j, d) in tube.pairs_within(1.6) {
            assert!(
                d > 1.30 && d < 1.45,
                "bond {i}-{j} length {d} outside tolerance"
            );
        }
    }

    #[test]
    fn c60_topology() {
        let s = fullerene_c60(1.44);
        assert_eq!(s.n_atoms(), 60);
        for i in 0..60 {
            assert_eq!(s.coordination(i, 1.6), 3, "atom {i}");
        }
        // All atoms on a common sphere.
        let com = s.center_of_mass();
        let r0 = (s.position(0) - com).norm();
        for &p in s.positions() {
            assert!(((p - com).norm() - r0).abs() < 1e-9);
        }
        // C60 radius ≈ 3.55 Å for 1.44 Å mean bonds.
        assert!(r0 > 3.3 && r0 < 3.8, "radius {r0}");
    }

    #[test]
    fn dimer_and_chain() {
        let d = dimer(Species::Silicon, 2.2);
        assert_eq!(d.n_atoms(), 2);
        assert!((d.distance(0, 1) - 2.2).abs() < 1e-12);
        let c = linear_chain(Species::Carbon, 5, 1.3);
        assert_eq!(c.n_atoms(), 5);
        assert!((c.distance(0, 4) - 5.2).abs() < 1e-12);
    }
}
