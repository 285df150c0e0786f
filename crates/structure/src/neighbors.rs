//! Neighbor lists with full periodic-image support.
//!
//! Tight-binding Hamiltonians and repulsive potentials are short-ranged, so
//! each atom interacts with O(1) neighbours; [`NeighborList::build`] turns
//! the O(N²) all-pairs search into O(N) with linked cells in every cell and
//! at every cutoff. Its stencil reaches as many bins as the cutoff needs, so
//! small supercells where the cutoff exceeds half the box edge — e.g. the
//! 8-atom Si cell — get the *multiple* periodic images of one neighbour that
//! a minimum-image search would miss.
//!
//! A list is a pure function of the positions and the cutoff: the search
//! and its reference image sum ([`NeighborList::build_brute_force`]) label
//! each entry by its image `shift` in the caller's coordinates (atoms may
//! sit outside `[0, L)`), compute `disp = (r_j + L·shift) − r_i`, and leave
//! each atom's entries in ascending `(j, shift)`. So the two agree bit for
//! bit, and a list kept across steps ([`NeighborList::within_into`] of a
//! list built at a larger radius) is bit for bit a fresh build.

use crate::cell::Cell;
use crate::structure::Structure;
use tbmd_linalg::Vec3;

/// One neighbour of an atom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the neighbouring atom.
    pub j: usize,
    /// Displacement from the central atom to this (possibly periodic image
    /// of the) neighbour, in Å.
    pub disp: Vec3,
    /// `disp.norm()`, cached.
    pub dist: f64,
    /// Periodic image shift of atom `j`'s caller coordinates, in units of
    /// the cell edges (all zero for the primary image or cluster
    /// geometries).
    pub shift: [i32; 3],
}

impl Neighbor {
    /// The entry for image `shift` of atom `j` (at `rj`) seen from `ri`: the
    /// one expression every list computes its entries with.
    #[inline]
    fn new(cell: &Cell, ri: Vec3, rj: Vec3, j: usize, shift: [i32; 3]) -> Self {
        let disp = rj + shift_vector(cell, shift) - ri;
        Neighbor {
            j,
            disp,
            dist: disp.norm(),
            shift,
        }
    }

    /// Whether this entry is a neighbour within `cutoff`. An entry at zero
    /// distance is none: it is the atom itself (shift 0), or, in a blown-up
    /// trajectory, an image of it lost to rounding.
    #[inline]
    fn within(&self, cutoff: f64) -> bool {
        0.0 < self.dist && self.dist <= cutoff
    }
}

/// Per-atom neighbour lists within a cutoff radius.
#[derive(Debug, Clone, Default)]
pub struct NeighborList {
    cutoff: f64,
    lists: Vec<Vec<Neighbor>>,
}

impl NeighborList {
    /// Build the list within `cutoff` by linked cells: each atom scans the
    /// bins its stencil reaches, each with the image shift it wraps by, and
    /// its entries are sorted to ascending `(j, shift)`. O(N) at a fixed
    /// density and cutoff, and exact at any cutoff.
    pub fn build(s: &Structure, cutoff: f64) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        let cell = s.cell();
        // Bin on positions in the primary cell; the image offsets fold back
        // into each recorded shift, so entries refer to the caller's
        // coordinates.
        let (offsets, wrapped): (Vec<[i32; 3]>, Vec<Vec3>) =
            s.positions().iter().map(|&r| image_of(cell, r)).unzip();
        let axes: [Axis; 3] = std::array::from_fn(|a| Axis::new(cell, a, cutoff, &wrapped));
        let home: Vec<[usize; 3]> = wrapped
            .iter()
            .map(|r| std::array::from_fn(|a| axes[a].bin(r[a])))
            .collect();
        let [nx, ny, nz] = axes.each_ref().map(|x| x.stencils.len());
        let flat = |b: [usize; 3]| b[0] + nx * (b[1] + ny * b[2]);
        let mut bins = vec![Vec::new(); nx * ny * nz];
        for (i, &b) in home.iter().enumerate() {
            bins[flat(b)].push(i);
        }
        let mut lists = vec![Vec::new(); s.n_atoms()];
        for (i, list) in lists.iter_mut().enumerate() {
            let [xs, ys, zs] = std::array::from_fn(|a| &axes[a].stencils[home[i][a]]);
            for &(bx, sx) in xs {
                for &(by, sy) in ys {
                    for &(bz, sz) in zs {
                        for &j in &bins[flat([bx, by, bz])] {
                            let shift: [i32; 3] = std::array::from_fn(|a| {
                                [sx, sy, sz][a] + offsets[i][a] - offsets[j][a]
                            });
                            let nb = Neighbor::new(cell, s.position(i), s.position(j), j, shift);
                            if nb.within(cutoff) {
                                list.push(nb);
                            }
                        }
                    }
                }
            }
            list.sort_unstable_by_key(|nb| (nb.j, nb.shift));
        }
        NeighborList { cutoff, lists }
    }

    /// Exhaustive O(N²·images) image sum: the reference [`Self::build`] is
    /// checked against, bit for bit.
    pub fn build_brute_force(s: &Structure, cutoff: f64) -> Self {
        let (cell, positions) = (s.cell(), s.positions());
        let offsets: Vec<[i32; 3]> = positions.iter().map(|&r| image_of(cell, r).0).collect();
        // How many images per periodic axis to scan around the primary one.
        let ranges: [i32; 3] = std::array::from_fn(|a| {
            cell.periodic[a] as i32 * (cutoff / cell.lengths[a]).ceil() as i32
        });
        let mut lists = vec![Vec::new(); positions.len()];
        for (i, list) in lists.iter_mut().enumerate() {
            let ri = positions[i];
            for (j, &rj) in positions.iter().enumerate() {
                // Scan the images around the one that puts `j` in `i`'s
                // primary cell.
                let base: [i32; 3] = std::array::from_fn(|a| offsets[i][a] - offsets[j][a]);
                for sx in -ranges[0]..=ranges[0] {
                    for sy in -ranges[1]..=ranges[1] {
                        for sz in -ranges[2]..=ranges[2] {
                            let shift = [base[0] + sx, base[1] + sy, base[2] + sz];
                            let nb = Neighbor::new(cell, ri, rj, j, shift);
                            if nb.within(cutoff) {
                                list.push(nb);
                            }
                        }
                    }
                }
            }
        }
        NeighborList { cutoff, lists }
    }

    /// Refill `view` with the entries of this list that lie within `cutoff`
    /// at the positions of `s`, each recomputed as the builders compute it
    /// (`view`'s buffers are reused). While this list holds every pair
    /// within `cutoff` at `s` — a list built at `cutoff + skin` does until
    /// an atom moves `skin/2` — `view` is bit for bit
    /// `NeighborList::build(s, cutoff)`.
    pub fn within_into(&self, s: &Structure, cutoff: f64, view: &mut NeighborList) {
        let (cell, positions) = (s.cell(), s.positions());
        view.cutoff = cutoff;
        view.lists.resize_with(self.lists.len(), Vec::new);
        for ((candidates, list), &ri) in self.lists.iter().zip(&mut view.lists).zip(positions) {
            list.clear();
            list.extend(
                candidates
                    .iter()
                    .map(|c| Neighbor::new(cell, ri, positions[c.j], c.j, c.shift)),
            );
            list.retain(|nb| nb.within(cutoff));
        }
    }

    /// The cutoff this list was built with.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Neighbours of atom `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[Neighbor] {
        &self.lists[i]
    }

    /// Number of atoms covered.
    pub fn n_atoms(&self) -> usize {
        self.lists.len()
    }

    /// Total number of directed neighbour entries.
    pub fn n_entries(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }
}

/// Shift expressed in Cartesian coordinates.
#[inline]
fn shift_vector(cell: &Cell, shift: [i32; 3]) -> Vec3 {
    Vec3::new(
        shift[0] as f64 * cell.lengths.x,
        shift[1] as f64 * cell.lengths.y,
        shift[2] as f64 * cell.lengths.z,
    )
}

/// `r` as its image offset `w` (in cell edges) and the position
/// `r − L·w` in the primary cell, on the periodic axes. `w` is clamped to
/// ±2²⁹ so that shift arithmetic cannot overflow: atoms that far out (a
/// blown-up trajectory) have no neighbours to find.
fn image_of(cell: &Cell, r: Vec3) -> ([i32; 3], Vec3) {
    const LIMIT: f64 = (1 << 29) as f64;
    let mut w = [0i32; 3];
    let mut wrapped = r;
    for a in 0..3 {
        if cell.periodic[a] {
            let l = cell.lengths[a];
            w[a] = (r[a] / l).floor().clamp(-LIMIT, LIMIT) as i32;
            wrapped[a] = r[a] - w[a] as f64 * l;
        }
    }
    (w, wrapped)
}

/// One axis of [`NeighborList::build`]'s bins, with each bin's stencil: the
/// bins an atom in it scans, each with the image shift it wraps by.
struct Axis {
    origin: f64,
    bin_len: f64,
    stencils: Vec<Vec<(usize, i32)>>,
}

impl Axis {
    /// Axis `a` for the primary-cell positions `wrapped`. Periodic bins are
    /// no shorter than `cutoff`; the aperiodic axes bin the bounding box into
    /// at most N bins together, however far a cluster blows apart (coarser
    /// bins scan more atoms, never other entries). The stencil reaches
    /// `⌊cutoff / bin length⌋ + 1` bins each way and wraps a periodic bin to
    /// `(bin, shift)`, one-to-one for a home bin: each image is scanned once.
    fn new(cell: &Cell, a: usize, cutoff: f64, wrapped: &[Vec3]) -> Self {
        let (periodic, length) = (cell.periodic[a], cell.lengths[a]);
        let (origin, bin_len, nbins) = if periodic {
            let nbins = ((length / cutoff) as usize).max(1);
            (0.0, length / nbins as f64, nbins)
        } else {
            let aperiodic = cell.periodic.iter().filter(|&&p| !p).count();
            let max_bins = (wrapped.len() as f64).powf(1.0 / aperiodic as f64) as usize;
            let coords = || wrapped.iter().map(|r| r[a]);
            let lo = coords().fold(f64::INFINITY, f64::min);
            let extent = (coords().fold(f64::NEG_INFINITY, f64::max) - lo).max(1e-9);
            let nbins = ((extent / cutoff) as usize).min(max_bins).max(1);
            (lo, extent / nbins as f64 + 1e-12, nbins)
        };
        let reach = ((cutoff / bin_len) as usize).saturating_add(1);
        let stencil = |b: usize| -> Vec<(usize, i32)> {
            if periodic {
                let (b, reach, n) = (b as i64, reach as i64, nbins as i64);
                let wrap = |k: i64| (k.rem_euclid(n) as usize, k.div_euclid(n) as i32);
                (b - reach..=b + reach).map(wrap).collect()
            } else {
                let last = b.saturating_add(reach).min(nbins - 1);
                (b.saturating_sub(reach)..=last).map(|k| (k, 0)).collect()
            }
        };
        Axis {
            origin,
            bin_len,
            stencils: (0..nbins).map(stencil).collect(),
        }
    }

    /// The bin of primary-cell coordinate `x`.
    fn bin(&self, x: f64) -> usize {
        let k = ((x - self.origin) / self.bin_len).floor() as isize;
        k.clamp(0, self.stencils.len() as isize - 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{bulk_diamond, graphene_sheet, linear_chain, nanotube};
    use crate::species::Species;
    use rand::{rngs::StdRng, SeedableRng};

    /// Every entry's atoms, image, displacement and distance bits, in list
    /// order.
    fn entry_bits(nl: &NeighborList) -> Vec<(usize, usize, [i32; 3], [u64; 4])> {
        let bits = |nb: &Neighbor| [nb.disp.x, nb.disp.y, nb.disp.z, nb.dist].map(f64::to_bits);
        (0..nl.n_atoms())
            .flat_map(|i| {
                nl.neighbors(i)
                    .iter()
                    .map(move |nb| (i, nb.j, nb.shift, bits(nb)))
            })
            .collect()
    }

    #[test]
    fn diamond_first_shell() {
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let d = Species::Silicon.reference_bond_length();
        let nl = NeighborList::build(&s, d * 1.05);
        for i in 0..s.n_atoms() {
            assert_eq!(nl.neighbors(i).len(), 4, "atom {i}");
            for nb in nl.neighbors(i) {
                assert!((nb.dist - d).abs() < 1e-9);
                assert!((nb.disp.norm() - nb.dist).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn diamond_second_shell_count() {
        // Diamond: 4 first neighbours, 12 second neighbours at a/√2·... ≈1.633·d.
        let s = bulk_diamond(Species::Silicon, 3, 3, 3);
        let d = Species::Silicon.reference_bond_length();
        let nl = NeighborList::build(&s, d * 1.7);
        for i in 0..s.n_atoms() {
            assert_eq!(nl.neighbors(i).len(), 16, "atom {i}");
        }
    }

    #[test]
    fn build_is_the_image_sum_in_every_cell() {
        let perturbed = |mut s: Structure| {
            s.perturb(&mut StdRng::seed_from_u64(7), 0.2);
            s
        };
        let si8 = perturbed(bulk_diamond(Species::Silicon, 1, 1, 1));
        let si64 = perturbed(bulk_diamond(Species::Silicon, 2, 2, 2));
        // 20 atoms of Si-64 as a cluster: fewer than 32, no periodic axis.
        let cluster = Structure::homogeneous(
            Species::Silicon,
            si64.positions()[..20].to_vec(),
            Cell::cluster(),
        );
        let cases = [
            ("Si-8, cutoff + skin", &si8, 4.3),
            ("Si-8, r_loc + skin", &si8, 6.5),
            ("Si-8, two cell edges", &si8, 11.0),
            ("Si-64", &si64, 4.3),
            ("Si-64, r_loc + skin", &si64, 6.5),
            ("graphene slab", &perturbed(graphene_sheet(1.42, 4, 4)), 3.1),
            ("(6,0) tube wire", &perturbed(nanotube(6, 0, 2, 1.42)), 3.1),
            ("cluster", &cluster, 6.5),
        ];
        for (name, s, cutoff) in cases {
            let brute = NeighborList::build_brute_force(s, cutoff);
            assert!(brute.n_entries() > 0, "{name}");
            assert_eq!(
                entry_bits(&NeighborList::build(s, cutoff)),
                entry_bits(&brute),
                "{name} at {cutoff} Å"
            );
        }
    }

    #[test]
    fn a_blown_apart_cluster_gets_a_bounded_grid() {
        // One atom 1e20 Å away: the bounding box spans 1e20 Å, and without
        // the bound by the atom count the grid would ask for 1e20/cutoff
        // bins along x.
        let mut s = Structure::homogeneous(
            Species::Silicon,
            bulk_diamond(Species::Silicon, 1, 1, 1).positions().to_vec(),
            Cell::cluster(),
        );
        s.positions_mut()[3].x += 1e20;
        let nl = NeighborList::build(&s, 4.3);
        assert_eq!(
            entry_bits(&nl),
            entry_bits(&NeighborList::build_brute_force(&s, 4.3))
        );
        assert!(nl.neighbors(3).is_empty());
        assert!(!nl.neighbors(0).is_empty());
    }

    #[test]
    fn small_cell_multiple_images() {
        // 8-atom Si cell, cutoff beyond half the box edge: a neighbour can
        // appear through several images, and an atom sees its own images.
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let cutoff = 4.2;
        let nl = NeighborList::build(&s, cutoff);
        // First shell 4 + second shell 12 + third shell 12 within 4.2 Å of
        // the 5.43 Å cell: count must match the infinite-crystal shells.
        // d1 = 2.351, d2 = 3.840, d3 = 4.503 (>cutoff): expect 16.
        for i in 0..8 {
            assert_eq!(nl.neighbors(i).len(), 16, "atom {i}");
        }
        // Every entry's displacement length within cutoff.
        for i in 0..8 {
            for nb in nl.neighbors(i) {
                assert!(nb.dist <= cutoff);
                assert!(nb.dist > 0.0);
            }
        }
    }

    #[test]
    fn symmetric_entries() {
        // If j is a neighbour of i with shift s, then i is a neighbour of j
        // with shift -s.
        let s = bulk_diamond(Species::Carbon, 2, 2, 2);
        let nl = NeighborList::build(&s, 2.6);
        for i in 0..s.n_atoms() {
            for nb in nl.neighbors(i) {
                let rev = [-nb.shift[0], -nb.shift[1], -nb.shift[2]];
                assert!(
                    nl.neighbors(nb.j)
                        .iter()
                        .any(|m| m.j == i && m.shift == rev),
                    "missing reverse entry for {i}->{}",
                    nb.j
                );
            }
        }
    }

    #[test]
    fn cluster_chain_neighbors() {
        let s = linear_chain(Species::Carbon, 6, 1.3);
        let nl = NeighborList::build(&s, 1.4);
        assert_eq!(nl.neighbors(0).len(), 1);
        assert_eq!(nl.neighbors(1).len(), 2);
        assert_eq!(nl.neighbors(5).len(), 1);
        let nl2 = NeighborList::build(&s, 2.7);
        assert_eq!(nl2.neighbors(2).len(), 4);
    }

    #[test]
    fn no_neighbors_beyond_cutoff() {
        let s = linear_chain(Species::Silicon, 3, 5.0);
        let nl = NeighborList::build(&s, 2.0);
        for i in 0..3 {
            assert!(nl.neighbors(i).is_empty());
        }
    }

    #[test]
    fn wire_periodicity() {
        // 3 atoms along a periodic z wire of length 6: spacing 2.
        let s = Structure::homogeneous(
            Species::Carbon,
            vec![
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::new(0.0, 0.0, 4.0),
            ],
            Cell::wire_z(6.0),
        );
        let nl = NeighborList::build(&s, 2.1);
        // Each atom sees two neighbours (one across the boundary for 0 and 2).
        for i in 0..3 {
            assert_eq!(nl.neighbors(i).len(), 2, "atom {i}");
        }
        let crossing: Vec<_> = nl
            .neighbors(0)
            .iter()
            .filter(|n| n.shift != [0, 0, 0])
            .collect();
        assert_eq!(crossing.len(), 1);
        assert_eq!(crossing[0].j, 2);
        assert!((crossing[0].disp.z - -2.0).abs() < 1e-12);
    }
}
