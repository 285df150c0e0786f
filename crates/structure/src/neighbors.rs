//! Neighbor lists with full periodic-image support.
//!
//! Tight-binding Hamiltonians and repulsive potentials are short-ranged, so
//! each atom interacts with O(1) neighbours; the list builders here turn the
//! O(N²) all-pairs search into O(N) via linked cells when the box is large
//! enough, and fall back to an exhaustive image sum when it is not (small
//! supercells where the interaction cutoff exceeds half the box edge — e.g.
//! the 8-atom Si cell — require *multiple* periodic images of the same
//! neighbour, which a minimum-image search would miss).
//!
//! A list is a pure function of the positions and the cutoff: both searches
//! label each entry by its image `shift` in the caller's coordinates (atoms
//! may sit outside `[0, L)`), compute `disp = (r_j + L·shift) − r_i`, and
//! leave each atom's entries in ascending `(j, shift)`. So the two builders
//! agree bit for bit, and a list kept across steps
//! ([`NeighborList::within_into`] of a list built at a larger radius) is bit
//! for bit a fresh build.

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
    /// Build a neighbour list, choosing linked cells when the geometry
    /// permits (≥3 bins along every periodic axis) and the exhaustive image
    /// sum otherwise. Both give the same list, bit for bit.
    pub fn build(s: &Structure, cutoff: f64) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        if linked_cell_applicable(s.cell(), cutoff, s.n_atoms()) {
            Self::build_linked_cell(s, cutoff)
        } else {
            Self::build_brute_force(s, cutoff)
        }
    }

    /// Exhaustive O(N²·images) builder; reference implementation and small-
    /// cell search.
    pub fn build_brute_force(s: &Structure, cutoff: f64) -> Self {
        let n = s.n_atoms();
        let cell = s.cell();
        let positions = s.positions();
        let offsets: Vec<[i32; 3]> = positions.iter().map(|&r| image_of(cell, r).0).collect();
        let ranges = image_ranges(cell, cutoff);
        let mut lists = vec![Vec::new(); n];
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

    /// Linked-cell O(N) builder. Requires at least 3 bins along every
    /// periodic axis so that scanning the 27 adjacent bins visits each image
    /// at most once.
    pub fn build_linked_cell(s: &Structure, cutoff: f64) -> Self {
        let n = s.n_atoms();
        let cell = s.cell();
        assert!(
            linked_cell_applicable(cell, cutoff, n),
            "linked-cell builder not applicable; use build() or build_brute_force()"
        );
        // Bin on positions in the primary cell; the image offsets fold back
        // into each recorded shift, so entries refer to the caller's
        // coordinates.
        let (offsets, wrapped): (Vec<[i32; 3]>, Vec<Vec3>) =
            s.positions().iter().map(|&r| image_of(cell, r)).unzip();

        // Bin geometry. Aperiodic axes bin over the bounding box.
        let mut lo = Vec3::splat(f64::INFINITY);
        let mut hi = Vec3::splat(f64::NEG_INFINITY);
        for &r in &wrapped {
            for a in 0..3 {
                lo[a] = lo[a].min(r[a]);
                hi[a] = hi[a].max(r[a]);
            }
        }
        let mut nbins = [1usize; 3];
        let mut bin_len = [0.0f64; 3];
        let mut origin = Vec3::ZERO;
        for a in 0..3 {
            if cell.periodic[a] {
                nbins[a] = (cell.lengths[a] / cutoff).floor().max(3.0) as usize;
                bin_len[a] = cell.lengths[a] / nbins[a] as f64;
                origin[a] = 0.0;
            } else {
                let extent = (hi[a] - lo[a]).max(1e-9);
                nbins[a] = ((extent / cutoff).floor() as usize).max(1);
                bin_len[a] = extent / nbins[a] as f64 + 1e-12;
                origin[a] = lo[a];
            }
        }
        let bin_index = |r: Vec3| -> [usize; 3] {
            let mut idx = [0usize; 3];
            for a in 0..3 {
                let k = ((r[a] - origin[a]) / bin_len[a]).floor() as isize;
                idx[a] = k.clamp(0, nbins[a] as isize - 1) as usize;
            }
            idx
        };
        let flat = |b: [usize; 3]| b[0] + nbins[0] * (b[1] + nbins[1] * b[2]);

        let mut bins: Vec<Vec<usize>> = vec![Vec::new(); nbins[0] * nbins[1] * nbins[2]];
        for (i, &r) in wrapped.iter().enumerate() {
            bins[flat(bin_index(r))].push(i);
        }

        let mut lists = vec![Vec::new(); n];
        for (i, list) in lists.iter_mut().enumerate() {
            let ri = s.position(i);
            let bi = bin_index(wrapped[i]);
            for dx in -1i32..=1 {
                for dy in -1i32..=1 {
                    for dz in -1i32..=1 {
                        let mut bin_shift = [0i32; 3];
                        let mut bj = [0usize; 3];
                        let mut valid = true;
                        for (a, d) in [dx, dy, dz].into_iter().enumerate() {
                            let raw = bi[a] as i32 + d;
                            if cell.periodic[a] {
                                let nb = nbins[a] as i32;
                                let (wrapped_bin, s) = if raw < 0 {
                                    (raw + nb, -1)
                                } else if raw >= nb {
                                    (raw - nb, 1)
                                } else {
                                    (raw, 0)
                                };
                                bj[a] = wrapped_bin as usize;
                                bin_shift[a] = s;
                            } else {
                                if raw < 0 || raw >= nbins[a] as i32 {
                                    valid = false;
                                    break;
                                }
                                bj[a] = raw as usize;
                            }
                        }
                        if !valid {
                            continue;
                        }
                        for &j in &bins[flat(bj)] {
                            let shift: [i32; 3] = std::array::from_fn(|a| {
                                bin_shift[a] + offsets[i][a] - offsets[j][a]
                            });
                            let nb = Neighbor::new(cell, ri, s.position(j), j, shift);
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

    /// Iterate over each pair once (`i < j`, or `i == j` with a positive
    /// lexicographic image shift). Pair potentials sum over these.
    pub fn half_pairs(&self) -> impl Iterator<Item = (usize, &Neighbor)> + '_ {
        self.lists.iter().enumerate().flat_map(|(i, list)| {
            list.iter().filter_map(move |nb| {
                let take = match nb.j.cmp(&i) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => nb.shift > [0, 0, 0],
                };
                take.then_some((i, nb))
            })
        })
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

/// How many periodic images per axis the brute-force builder must scan
/// around the primary one.
fn image_ranges(cell: &Cell, cutoff: f64) -> [i32; 3] {
    let mut r = [0i32; 3];
    for (a, ra) in r.iter_mut().enumerate() {
        if cell.periodic[a] {
            *ra = (cutoff / cell.lengths[a]).ceil() as i32;
        }
    }
    r
}

/// Linked cells need ≥3 bins along every periodic axis; below ~30 atoms the
/// brute-force builder is faster anyway.
fn linked_cell_applicable(cell: &Cell, cutoff: f64, n_atoms: usize) -> bool {
    if n_atoms < 32 {
        return false;
    }
    (0..3).all(|a| !cell.periodic[a] || cell.lengths[a] / cutoff >= 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{bulk_diamond, graphene_sheet, linear_chain};
    use crate::species::Species;

    fn lists_equivalent(a: &NeighborList, b: &NeighborList) {
        assert_eq!(a.n_atoms(), b.n_atoms());
        for i in 0..a.n_atoms() {
            let mut la: Vec<_> = a.neighbors(i).iter().map(|n| (n.j, n.shift)).collect();
            let mut lb: Vec<_> = b.neighbors(i).iter().map(|n| (n.j, n.shift)).collect();
            la.sort_unstable();
            lb.sort_unstable();
            assert_eq!(la, lb, "neighbour sets differ for atom {i}");
        }
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
    fn linked_matches_brute_on_bulk() {
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let cutoff = 3.2;
        let brute = NeighborList::build_brute_force(&s, cutoff);
        let linked = NeighborList::build_linked_cell(&s, cutoff);
        lists_equivalent(&brute, &linked);
    }

    #[test]
    fn linked_matches_brute_on_slab() {
        let s = graphene_sheet(1.42, 4, 4);
        let cutoff = 1.8;
        let brute = NeighborList::build_brute_force(&s, cutoff);
        let linked = NeighborList::build_linked_cell(&s, cutoff);
        lists_equivalent(&brute, &linked);
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
    fn half_pairs_count() {
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let nl = NeighborList::build(&s, 2.6);
        assert_eq!(nl.half_pairs().count() * 2, nl.n_entries());
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
