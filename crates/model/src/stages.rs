//! The stages of one tight-binding evaluation, each written once.
//!
//! Every engine in the workspace runs the same step — neighbours → `H` →
//! solve → `ρ` → forces — and differs only in *where* the solve happens
//! (one thread, a rank shard, a localization region). The parts
//! that do not depend on that choice live here as plain functions:
//!
//! * [`validate`] — reject empty structures and unparametrized species;
//! * [`prologue`] / [`epilogue`] — the neighbour-list update (the only
//!   place the `Neighbors` span is opened) and the end-of-evaluation
//!   accounting (the only place off-thread phase clocks are fed to the
//!   trace registry);
//! * [`spectrum`] — `H` → eigenvalues, the dense solve's first half and all
//!   of an energy-only evaluation (the only place [`TWO_STAGE_MIN_DIM`] is
//!   consulted and [`DenseSolver`] matched);
//! * [`solve_occupied`] — the dense eigensolve for the occupied subspace:
//!   spectrum → occupations → occupied eigenvectors, on the two-stage path
//!   streamed strip by strip into `ρ` (the only place the [`DenseCache`]
//!   marker is set and the `Diagonalize` span opened);
//! * [`bond_density`] / [`RhoBlocks::add_strip`] — `ρ` on the blocks the
//!   force and stress contractions read, into the only store of `ρ` an
//!   engine keeps ([`RhoBlocks`]): one block per atom and one per
//!   neighbour-list pair ([`for_each_bond_block`]);
//! * [`BondTable::fill`] — every radial term of every neighbour-list entry
//!   (one [`TbModel::bond`] each) and, folded into the same pass, each
//!   atom's repulsive embedding; run once per evaluation in the
//!   `Hamiltonian` phase, read by the H build, the forces and the stress;
//! * [`entropy_term`] — the Mermin `−T_e S` correction;
//! * [`bond_contraction`] / [`bond_force`] — `ρ_ij : ∂B/∂d` for one bond and
//!   the gather-form force on one atom from the bond table, generic over how
//!   a 4×4 block of `ρ` is read (bond blocks, dense reference matrix, local
//!   O(N) blocks); [`dense_forces`] maps it over the atoms.
//!
//! [`crate::TbCalculator::compute_with`] strings them into the one dense
//! Γ-point pipeline; the distributed and O(N) engines call the same leaves
//! around their own solves.

use crate::calculator::{DenseSolver, PhaseTimings, TbError, TWO_STAGE_MIN_DIM};
use crate::hamiltonian::OrbitalIndex;
use crate::model::{BondTerms, TbModel};
use crate::occupations::{
    occupations, occupied_count, OccupationScheme, Occupations, OCCUPATION_DROP_TOL,
};
use crate::slater_koster::{sk_block_gradient, Hoppings};
use crate::units::KB_EV;
use crate::workspace::{DenseCache, Workspace};
use tbmd_linalg::{
    eigh_into, kernels, reduced_eigenvalues_beside_t_factors, reduced_eigenvalues_into,
    stream_reduced_eigenvectors, team, tridiagonalize_blocked_into, Matrix, RowStore, Strip, Vec3,
};
use tbmd_structure::{Neighbor, NeighborList, Structure};
use tbmd_trace::{Counter, Hist, Phase};

/// Reject empty structures, non-finite coordinates and species the model
/// does not parametrize: the one check every engine runs first.
pub fn validate(model: &dyn TbModel, s: &Structure) -> Result<(), TbError> {
    if s.n_atoms() == 0 {
        return Err(TbError::EmptyStructure);
    }
    if let Some(atom) = s.positions().iter().position(|r| !r.is_finite()) {
        return Err(TbError::NonFinitePosition { atom });
    }
    for i in 0..s.n_atoms() {
        let species = s.species(i);
        if !model.supports(species) {
            return Err(TbError::UnsupportedSpecies {
                species,
                model: model.name().to_string(),
            });
        }
    }
    Ok(())
}

/// Neighbour prologue of an evaluation on the calling thread: bring
/// `ws.neighbors` up to date with `s` under the `Neighbors` span and note
/// the outcome in `timings`.
pub fn prologue(
    model: &dyn TbModel,
    s: &Structure,
    ws: &mut Workspace,
    timings: &mut PhaseTimings,
) {
    let sp = tbmd_trace::span(Phase::Neighbors);
    let outcome = ws.neighbors.update(s, model.cutoff());
    timings.neighbors = sp.finish();
    timings.note_neighbors(outcome);
}

/// Evaluation epilogue: surface `grown` large-buffer growth events, and feed
/// the registry the `unspanned` phases of `timings` — the ones clocked per
/// rank, where a span would add up time-shared threads — as one histogram
/// sample each. Span-timed phases fed themselves on `finish` and must not
/// be listed.
pub fn epilogue(grown: usize, timings: &PhaseTimings, unspanned: &[Phase]) {
    tbmd_trace::add(Counter::AllocGrowth, grown as u64);
    if !tbmd_trace::active() {
        return;
    }
    for &p in unspanned {
        tbmd_trace::record_ns(Hist::for_phase(p), timings.phase(p).as_nanos() as u64);
    }
}

/// The spectrum stage of the dense solve: `ws.h_lower` → `ws.values`,
/// ascending. Returns whether the two-stage branch ran.
///
/// [`DenseSolver::TwoStage`] at `n ≥` [`TWO_STAGE_MIN_DIM`] reduces
/// `ws.h_lower` to tridiagonal form (the reflectors stay packed in it, the
/// factor in `ws.eigh`) and takes the complete spectrum from the factor,
/// with the back-transform's T factors formed beside it if `t_factors`
/// ([`reduced_eigenvalues_beside_t_factors`]). Below the crossover, and for
/// [`DenseSolver::FullQl`], the one-stage solve copies the triangle into
/// `ws.h` and overwrites it with all `n` eigenvectors. An energy-only
/// evaluation ([`crate::TbCalculator::energy`]) stops here;
/// [`solve_occupied`] goes on to the eigenvectors, so both read the same
/// bits in `ws.values`.
pub fn spectrum(ws: &mut Workspace, solver: DenseSolver, t_factors: bool) -> Result<bool, TbError> {
    let two_stage = match solver {
        DenseSolver::TwoStage => ws.h_lower.layout().dim >= TWO_STAGE_MIN_DIM,
        DenseSolver::FullQl => false,
    };
    if two_stage {
        tridiagonalize_blocked_into(&mut ws.h_lower, &mut ws.eigh);
        if t_factors {
            reduced_eigenvalues_beside_t_factors(&ws.h_lower, &mut ws.eigh, &mut ws.values)?;
        } else {
            reduced_eigenvalues_into(&mut ws.eigh, &mut ws.values)?;
        }
    } else {
        ws.grown += usize::from(ws.h_lower.copy_into(&mut ws.h));
        eigh_into(&mut ws.h, &mut ws.values, &mut ws.eigh)?;
    }
    Ok(two_stage)
}

/// Diagonalize `ws.h_lower` for the occupied subspace under one `Diagonalize`
/// span. `timings.density` gets the time the strip consumer spent adding
/// `ρ` ([`RhoBlocks::add_strip`], on whichever thread held the strip's
/// turn) and `timings.diagonalize` the span's time less that, so the two
/// add up to the span.
///
/// After [`spectrum`] (T factors formed beside the eigenvalues on a lease of
/// two threads or more), the two-stage branch streams only the `k` states the
/// occupations keep (`f > 10⁻¹²`, exactly the set the density filter keeps;
/// `k = n` is simply a full solve) strip by strip into `ρ` on the bond
/// blocks of `ws.neighbors` ([`RhoBlocks::add_strip`]), so no `n × k` block
/// is held, and copies the health probe's sampled pair out of its strips;
/// the one-stage branch already left all `n` eigenvectors in `ws.h`, for
/// [`bond_density`]. Either way the spectrum is in `ws.values` and
/// `ws.dense_cache` says which branch ran.
pub fn solve_occupied(
    ws: &mut Workspace,
    index: &OrbitalIndex,
    n_electrons: usize,
    occupation: OccupationScheme,
    solver: DenseSolver,
    timings: &mut PhaseTimings,
) -> Result<Occupations, TbError> {
    let sp = tbmd_trace::span(Phase::Diagonalize);
    let mut rho_time = std::time::Duration::ZERO;
    let two_stage = spectrum(ws, solver, true)?;
    let occ = occupations(&ws.values, n_electrons, occupation);
    let occupied = occupied_count(&occ.f);
    ws.dense_cache = if two_stage {
        let (nl, n, f) = (
            ws.neighbors.list(),
            ws.h_lower.layout().dim,
            &occ.f[..occupied],
        );
        let (rho, pair) = (&mut ws.rho_blocks, &mut ws.probe_pair);
        let probed = [occupied / 2, DenseCache::neighbour(occupied / 2, occupied)];
        pair.resize(2 * n, 0.0);
        rho.lay_out(nl, index);
        let lambda = &ws.values[..occupied];
        stream_reduced_eigenvectors(&ws.h_lower, lambda, 0, &mut ws.eigh, |strip| {
            let started = std::time::Instant::now();
            rho.add_strip(nl, index, &strip, f);
            rho_time += started.elapsed();
            for (v, j) in pair.chunks_exact_mut(n).zip(probed) {
                if strip.cols.contains(&j) {
                    let c = j - strip.cols.start;
                    v.iter_mut()
                        .enumerate()
                        .for_each(|(r, x)| *x = strip.row(r)[c]);
                }
            }
        });
        tbmd_trace::add(
            Counter::KernelFlops,
            2 * (rho.values.len() * occupied) as u64,
        );
        DenseCache::Sliced { occupied }
    } else {
        DenseCache::Full { occupied }
    };
    timings.diagonalize = sp.finish().saturating_sub(rho_time);
    timings.density = rho_time;
    Ok(occ)
}

/// The scaled eigenvector factor `W = C·diag(√(2 f))` restricted to the
/// columns the occupation filter keeps, so that `ρ = W Wᵀ`. Returns whether
/// `w` had to grow.
///
/// Each column's `√(2 f)` is taken once: the first row of `w` holds the
/// scales while the other rows are formed, then is scaled itself.
pub(crate) fn occupied_factor_into(vectors: &Matrix, f: &[f64], w: &mut Matrix) -> bool {
    let kept = || (0..f.len()).filter(|&k| f[k] > OCCUPATION_DROP_TOL);
    let cols = kept().count();
    let grew = w.resize_zeroed(vectors.rows(), cols);
    if cols > 0 && vectors.rows() > 0 {
        let (scale, rest) = w.as_mut_slice().split_at_mut(cols);
        for (sv, k) in scale.iter_mut().zip(kept()) {
            *sv = (2.0 * f[k]).sqrt();
        }
        for (wrow, crow) in rest.chunks_mut(cols).zip(vectors.rows_iter().skip(1)) {
            for ((wv, &sv), k) in wrow.iter_mut().zip(&*scale).zip(kept()) {
                *wv = sv * crow[k];
            }
        }
        let c0 = vectors.row(0);
        for (sv, k) in scale.iter_mut().zip(kept()) {
            *sv *= c0[k];
        }
    }
    grew
}

/// Visit every *bond block* `(i, j)`, `i ≤ j`, once: the diagonal block of
/// each atom, then — in list order — each atom pair with an entry in the
/// neighbour list, however many periodic images the list holds for it. The
/// list is symmetric, so the pairs `j > i` of `i`'s entries cover it. These
/// blocks and their transposes are every block of `ρ` the bond contractions
/// read ([`bond_force`], the virial); the visiting order depends on the list
/// alone, so ranks holding the same replica agree on it.
pub fn for_each_bond_block(nl: &NeighborList, mut visit: impl FnMut(usize, usize)) {
    let mut seen_from = vec![usize::MAX; nl.n_atoms()];
    for i in 0..nl.n_atoms() {
        visit(i, i);
        for nb in nl.neighbors(i) {
            if nb.j > i && seen_from[nb.j] != i {
                seen_from[nb.j] = i;
                visit(i, nb.j);
            }
        }
    }
}

/// Number of elements in the bond blocks of `nl` — the doubles a packed ρ
/// holds (one block per pair; transposes are not stored twice).
pub fn bond_block_elements(nl: &NeighborList, index: &OrbitalIndex) -> usize {
    let mut elements = 0;
    for_each_bond_block(nl, |i, j| {
        elements += index.n_orbitals(i) * index.n_orbitals(j)
    });
    elements
}

/// `ρ` on the bond blocks of a neighbour list and nowhere else: every block
/// [`for_each_bond_block`] visits, row-major, one after another (the payload
/// of the distributed ρ allreduce), indexed per atom so that `ρ_ij` and
/// `ρ_ji = ρ_ijᵀ` read the same doubles. Filled by [`bond_density`], read
/// through [`RhoBlocks::block`].
#[derive(Debug, Default)]
pub struct RhoBlocks {
    values: Vec<f64>,
    /// Every block from both atoms' sides, ascending by `(i, j)`; atom `i`'s
    /// are `partners[starts[i]..starts[i + 1]]`.
    partners: Vec<Partner>,
    starts: Vec<usize>,
    /// The kept columns' `√(2f)`, then two atoms' four rows of `w = √(2f)·c`.
    scratch: Vec<f64>,
}

/// Atom `i`'s side of the block stored at `at`, the block `(min, max)` of
/// the pair, row-major with rows `len` long.
#[derive(Debug, Clone, Copy)]
struct Partner {
    i: usize,
    j: usize,
    at: usize,
    len: usize,
}

impl Partner {
    /// Element `(μ, ν)` of `ρ_ij` sits at `at + μ·row + ν·col`.
    fn strides(self) -> (usize, usize) {
        if self.i <= self.j {
            (self.len, 1)
        } else {
            (1, self.len)
        }
    }
}

impl RhoBlocks {
    /// Bytes of the store, its block index and its scratch.
    pub fn heap_bytes(&self) -> usize {
        let doubles = self.values.capacity() + self.scratch.capacity();
        let index = self.partners.capacity() * std::mem::size_of::<Partner>();
        8 * (doubles + self.starts.capacity()) + index
    }

    /// Lay the store out for `nl`, one zeroed double per bond-block element,
    /// and size the scratch for any strip, so that one consumed on a worker
    /// allocates nothing.
    pub fn lay_out(&mut self, nl: &NeighborList, index: &OrbitalIndex) {
        self.scratch.resize(9 * index.total(), 0.0);
        let (partners, mut at) = (&mut self.partners, 0);
        partners.clear();
        for_each_bond_block(nl, |i, j| {
            let len = index.n_orbitals(j);
            let sides = [(i, j), (j, i)].into_iter().take(1 + usize::from(j != i));
            partners.extend(sides.map(|(i, j)| Partner { i, j, at, len }));
            at += index.n_orbitals(i) * len;
        });
        partners.sort_unstable_by_key(|p| (p.i, p.j));
        let starts = (0..=nl.n_atoms()).map(|a| partners.partition_point(|p| p.i < a));
        self.starts.clear();
        self.starts.extend(starts);
        self.values.clear();
        self.values.resize(at, 0.0);
    }

    /// Add one strip of a window's eigenvectors to the store laid out for
    /// `nl` ([`RhoBlocks::lay_out`]): `ρ_IJ += Σ_n 2 f_n c_In c_Jnᵀ` over the
    /// strip's columns, `f` the window's occupations. The window's first
    /// strip stores its blocks instead, so a window of one strip is
    /// [`bond_density`]'s bits; strips added in ascending order make the
    /// store depend on the strip cut alone.
    pub fn add_strip(&mut self, nl: &NeighborList, index: &OrbitalIndex, strip: &Strip, f: &[f64]) {
        let first = strip.cols.start == 0;
        self.add_columns(nl, index, |r| strip.row(r), &f[strip.cols.clone()], first);
    }

    /// The bond blocks of `Σ_k 2 f_k c_k c_kᵀ` over `f.len()` columns, row
    /// `r` of them `row(r)`, stored (`first`) or added. A bond block is one
    /// [`kernels::dot4x4`] of the two atoms' rows of `w_ik = √(2f_k)·c_ik`,
    /// formed per block in the scratch and rounded as `occupied_factor_into`
    /// rounds them, so each element depends on nothing but those rows.
    fn add_columns<'a>(
        &mut self,
        nl: &NeighborList,
        index: &OrbitalIndex,
        row: impl Fn(usize) -> &'a [f64],
        f: &[f64],
        first: bool,
    ) {
        let cols = f.len();
        self.scratch.resize(9 * cols, 0.0);
        let (scale, w) = self.scratch.split_at_mut(cols);
        for (sv, &fk) in scale.iter_mut().zip(f) {
            *sv = (2.0 * fk).sqrt();
        }
        let (wi, wj) = w.split_at_mut(4 * cols);
        fn rows(w: &[f64]) -> [&[f64]; 4] {
            let cols = w.len() / 4;
            std::array::from_fn(|m| &w[m * cols..(m + 1) * cols])
        }
        let mut values = self.values.iter_mut();
        for_each_bond_block(nl, |i, j| {
            // Atom j's four rows of `w`, into `wi` at its own diagonal block
            // (visited first); an atom with fewer orbitals repeats its last
            // row and the surplus entries are dropped.
            let out = if j == i { &mut *wi } else { &mut *wj };
            for m in 0..4 {
                let c = row(index.offset(j) + m.min(index.n_orbitals(j) - 1));
                let w = &mut out[m * cols..(m + 1) * cols];
                for ((wv, &sv), &cv) in w.iter_mut().zip(&*scale).zip(&c[..cols]) {
                    *wv = sv * cv;
                }
            }
            let block = kernels::dot4x4(rows(wi), rows(if j == i { wi } else { wj }));
            for dots in block.iter().take(index.n_orbitals(i)) {
                for &d in dots.iter().take(index.n_orbitals(j)) {
                    let v = values.next().expect("laid out for nl");
                    *v = if first { d } else { *v + d };
                }
            }
        });
    }

    /// Every element of every block from both sides: its place in the store
    /// and in the `n × n` matrix.
    fn elements<'a>(
        &'a self,
        index: &'a OrbitalIndex,
    ) -> impl Iterator<Item = (usize, (usize, usize))> + 'a {
        self.partners.iter().flat_map(move |p| {
            let (oi, oj, nj) = (index.offset(p.i), index.offset(p.j), index.n_orbitals(p.j));
            let (row, col) = p.strides();
            (0..index.n_orbitals(p.i) * nj).map(move |e| {
                let (mu, nu) = (e / nj, e % nj);
                (p.at + mu * row + nu * col, (oi + mu, oj + nu))
            })
        })
    }

    /// The store of a symmetric dense `rho`'s bond blocks.
    pub fn from_dense(nl: &NeighborList, index: &OrbitalIndex, rho: &Matrix) -> Self {
        let mut out = RhoBlocks::default();
        out.lay_out(nl, index);
        let mut values = std::mem::take(&mut out.values);
        for (at, element) in out.elements(index) {
            values[at] = rho[element];
        }
        out.values = values;
        out
    }

    /// The `n × n` matrix of these blocks and their transposes, zero
    /// elsewhere: a dense view for the full-matrix references.
    pub fn to_dense(&self, index: &OrbitalIndex) -> Matrix {
        let mut rho = Matrix::zeros(index.total(), index.total());
        for (at, element) in self.elements(index) {
            rho[element] = self.values[at];
        }
        rho
    }

    /// The `(μ, ν)` reader of `ρ_ij`, for `j = i` or a bond partner of `i`
    /// in the list the store was filled for.
    #[inline]
    pub fn block(&self, i: usize, j: usize) -> impl Fn(usize, usize) -> f64 + '_ {
        let atom = &self.partners[self.starts[i]..self.starts[i + 1]];
        let p = atom[atom
            .binary_search_by_key(&j, |p| p.j)
            .expect("no bond block between the atoms")];
        let (row, col) = p.strides();
        move |mu, nu| self.values[p.at + mu * row + nu * col]
    }

    /// The packed blocks, in [`for_each_bond_block`] order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// The packed blocks, for a collective that replaces them with as many.
    pub fn values_mut(&mut self) -> &mut Vec<f64> {
        &mut self.values
    }
}

/// The density stage of the one-stage pipeline: `ρ_IJ = Σ_n 2 f_n c_In
/// c_Jnᵀ` on the bond blocks of `nl` only, into `rho`, from the eigenvector
/// block `vectors` (`n × f.len()` at least) and its occupations —
/// `O(N·neighbours·k)` instead of the `O(N²·k)` full matrix
/// ([`crate::calculator::density_matrix_into`], the reference), which the
/// force and stress contractions never read elsewhere. The two-stage solve
/// adds the same blocks strip by strip ([`RhoBlocks::add_strip`]).
///
/// The kept columns are the leading ones with `f > 10⁻¹²` (occupations of
/// an ascending spectrum never increase). Returns the number of kept
/// columns.
pub fn bond_density(
    nl: &NeighborList,
    index: &OrbitalIndex,
    vectors: &Matrix,
    f: &[f64],
    rho: &mut RhoBlocks,
) -> usize {
    let cols = f.iter().take_while(|&&fk| fk > OCCUPATION_DROP_TOL).count();
    assert!(
        f[cols..].iter().all(|&fk| fk <= OCCUPATION_DROP_TOL),
        "occupations must not increase"
    );
    rho.lay_out(nl, index);
    rho.add_columns(nl, index, |r| vectors.row(r), &f[..cols], true);
    tbmd_trace::add(Counter::KernelFlops, 2 * (rho.values.len() * cols) as u64);
    cols
}

/// The Mermin correction `−T_e S` for an electronic entropy `S` (eV/K):
/// `T_e = kt / k_B`, so `−T_e·S = −(kt/k_B)·S`. Zero without smearing.
pub fn entropy_term(occupation: OccupationScheme, entropy: f64) -> f64 {
    match occupation {
        OccupationScheme::Fermi { kt } if kt > 0.0 => -(kt / KB_EV) * entropy,
        _ => 0.0,
    }
}

/// The radial terms of every entry of a neighbour list — one
/// [`TbModel::bond`] per entry, in list order — and every atom's embedding
/// `(f(x_i), f'(x_i))` of its summed pair repulsion `x_i = Σ_j φ(r_ij)`
/// (self-images included: their bonds are constant lattice vectors, but
/// they do count towards `x_i`). Every stage after the neighbour list reads
/// its radial functions here, so an evaluation calls the model once per
/// entry. The rows keep their allocations from one fill to the next.
#[derive(Debug, Default)]
pub struct BondTable {
    atoms: Vec<AtomBonds>,
}

/// One atom's row of a [`BondTable`].
#[derive(Debug, Default)]
struct AtomBonds {
    terms: Vec<BondTerms>,
    embedding: (f64, f64),
}

impl BondTable {
    /// Fill the table for `nl`, one task per atom over [`team::width`]
    /// threads. A row depends on nothing but its atom's entries, so the
    /// table is the same bits at every width.
    pub fn fill(&mut self, model: &dyn TbModel, nl: &NeighborList) {
        self.atoms.resize_with(nl.n_atoms(), AtomBonds::default);
        team::chunks_for_each(team::width(), &mut self.atoms, 1, |i, row| {
            let row = &mut row[0];
            row.terms.clear();
            row.terms
                .extend(nl.neighbors(i).iter().map(|nb| model.bond(nb.dist)));
            let x: f64 = row.terms.iter().map(|t| t.phi).sum();
            row.embedding = model.embedding(x);
        });
    }

    /// Atom `i`'s entries of `nl`, the list the table was filled for, each
    /// with its radial terms.
    pub fn entries<'a>(
        &'a self,
        nl: &'a NeighborList,
        i: usize,
    ) -> impl Iterator<Item = (&'a Neighbor, &'a BondTerms)> {
        let (entries, terms) = (nl.neighbors(i), &self.atoms[i].terms);
        assert_eq!(entries.len(), terms.len(), "table filled for another list");
        entries.iter().zip(terms)
    }

    /// `(f(x_i), f'(x_i))` of atom `i`.
    pub fn embedding(&self, i: usize) -> (f64, f64) {
        self.atoms[i].embedding
    }

    /// The repulsive energy `Σ_i f(x_i)`, summed in atom order.
    pub fn repulsive_energy(&self) -> f64 {
        self.atoms.iter().map(|a| a.embedding.0).sum()
    }

    /// Bytes of the table's allocations.
    pub fn heap_bytes(&self) -> usize {
        let rows = self.atoms.capacity() * std::mem::size_of::<AtomBonds>();
        let terms = self.atoms.iter().map(|a| a.terms.capacity());
        rows + terms.sum::<usize>() * std::mem::size_of::<BondTerms>()
    }
}

/// `ρ_ij : ∂B/∂d` for one directed bond with hoppings `v` and their
/// derivatives `dv` at its length: the Cartesian vector with components
/// `Σ_{μν} ρ(μ,ν) ∂B_{μν}/∂d_γ`, with `rho(μ, ν)` reading the 4×4 block of
/// the density matrix between the bond's atoms. `None` beyond the hopping
/// cutoff, where the block gradient vanishes identically.
#[inline]
pub fn bond_contraction(
    nb: &Neighbor,
    v: Hoppings,
    dv: Hoppings,
    rho: impl Fn(usize, usize) -> f64,
) -> Option<Vec3> {
    if v.iter().all(|&x| x == 0.0) && dv.iter().all(|&x| x == 0.0) {
        return None;
    }
    let grad = sk_block_gradient(nb.disp.to_array(), v, dv);
    Some(Vec3::from_array(std::array::from_fn(|gamma| {
        let mut acc = 0.0;
        for (mu, grow) in grad[gamma].iter().enumerate() {
            for (nu, &g) in grow.iter().enumerate() {
                acc += rho(mu, nu) * g;
            }
        }
        acc
    })))
}

/// Force on atom `i` in gather form: electronic `2 ρ_ij : ∂B/∂d` plus
/// repulsive `(f'(x_i) + f'(x_j)) φ'(r) d̂` over its neighbours, the radial
/// terms read from `bonds` (filled for `nl`), writing nothing but the
/// returned value — so atoms can be mapped in any order, on any thread or
/// rank. `rho_ij(j)` yields the `(μ, ν)` reader of the block between `i`
/// and neighbour atom `j`. Self-image entries carry no force: their bond
/// vector is a fixed lattice translation.
#[inline]
pub fn bond_force<R: Fn(usize, usize) -> f64>(
    nl: &NeighborList,
    bonds: &BondTable,
    i: usize,
    rho_ij: impl Fn(usize) -> R,
) -> Vec3 {
    let mut fi = Vec3::ZERO;
    for (nb, t) in bonds.entries(nl, i) {
        if nb.j == i {
            continue;
        }
        if let Some(acc) = bond_contraction(nb, t.v, t.dv, rho_ij(nb.j)) {
            fi += acc * 2.0;
        }
        if t.dphi != 0.0 {
            let unit = nb.disp / nb.dist;
            fi += unit * ((bonds.embedding(i).1 + bonds.embedding(nb.j).1) * t.dphi);
        }
    }
    fi
}

/// The force stage of the dense pipeline: every atom's [`bond_force`]
/// against the bond-block `rho`, one task per atom over [`team::width`]
/// threads, and the repulsive energy [`BondTable::repulsive_energy`]. A task
/// writes only its own atom's force in a fixed order, so the forces are the
/// same bits at every width.
pub fn dense_forces(nl: &NeighborList, bonds: &BondTable, rho: &RhoBlocks) -> (f64, Vec<Vec3>) {
    let mut forces = vec![Vec3::ZERO; nl.n_atoms()];
    team::chunks_for_each(team::width(), &mut forces, 1, |i, f| {
        f[0] = bond_force(nl, bonds, i, |j| rho.block(i, j));
    });
    (bonds.repulsive_energy(), forces)
}

/// Test helper for the engines clocked through [`prologue`]/[`epilogue`]:
/// one evaluation feeds whoever is listening one sample per phase (none for
/// communication), equal to the timings handed back.
#[cfg(test)]
pub(crate) fn assert_feeds_trace_registry(
    calc: &dyn crate::provider::ForceProvider,
    s: &Structure,
) {
    let scope = tbmd_trace::ScopedSink::new("stages");
    let eval = {
        let _guard = scope.enter();
        calc.evaluate(s).unwrap()
    };
    let (snap, hists) = (scope.snapshot(), scope.histograms());
    for p in Phase::ALL {
        let expected = u64::from(p != Phase::Communication);
        assert_eq!(hists.hist(Hist::for_phase(p)).count(), expected, "{p:?}");
        assert_eq!(
            snap.phase_ns(p),
            eval.timings.phase(p).as_nanos() as u64,
            "{p:?}"
        );
    }
    assert!(snap.phase_ns(Phase::Diagonalize) > 0);
}
