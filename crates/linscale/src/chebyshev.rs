//! Chebyshev expansion of the Fermi operator.
//!
//! The density matrix is a matrix function of the Hamiltonian,
//! `ρ = 2 f((H − μ)/kT)`. Mapping the spectrum onto `[−1, 1]` via
//! `H̃ = (H − shift)/scale`, the Fermi function expands in Chebyshev
//! polynomials,
//!
//! ```text
//! f(H̃) ≈ ½ c₀ I + Σ_{k=1}^{m-1} c_k T_k(H̃),
//! ```
//!
//! and a *column* of ρ follows from the three-term recurrence
//! `T_{k+1} = 2 H̃ T_k − T_{k−1}` applied to a unit vector — nothing but
//! sparse matvecs. Truncating each column to a localization region around
//! its atom makes the whole density matrix O(N): the Goedecker–Colombo
//! (1994) linear-scaling TBMD scheme this crate reproduces.

use crate::sparse::{LocalRegion, SparseH};
use tbmd_linalg::kernels::{bsr4_chebyshev_step, Row4, Rows64, StepTail};

/// The `2m` Chebyshev–Gauss nodes `θ_j = π(j + ½)/2m` of an order-`m`
/// expansion with every `cos(kθ_j)` they need: `kθ_j` is a multiple of
/// `2π/8m`, so one period table replaces the O(m²) cosine evaluations of
/// the discrete cosine sums.
struct GaussNodes {
    m: usize,
    /// `table[i] = cos(2π·i/8m)`.
    table: Vec<f64>,
}

impl GaussNodes {
    fn new(m: usize) -> Self {
        assert!(m >= 1);
        let period = 8 * m;
        let table = (0..period)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period as f64).cos())
            .collect();
        GaussNodes { m, table }
    }

    /// Node abscissae `x_j = cos θ_j`, `j = 0..2m`.
    fn abscissae(&self) -> impl Iterator<Item = f64> + '_ {
        (0..2 * self.m).map(|j| self.table[2 * j + 1])
    }

    /// `cos(kθ_j)` for `k = 0..m`: `table[k(2j+1) mod 8m]`.
    fn cosines(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        let step = 2 * j + 1;
        (0..self.m).scan(0, move |i, _| {
            let c = self.table[*i];
            *i += step;
            if *i >= self.table.len() {
                *i -= self.table.len();
            }
            Some(c)
        })
    }

    /// Coefficients `c_k = (2/2m) Σ_j fvals[j] cos(kθ_j)` from node values.
    fn coefficients(&self, fvals: impl Iterator<Item = f64>) -> Vec<f64> {
        let mut c = vec![0.0; self.m];
        for (j, fv) in fvals.enumerate() {
            for (ck, cos) in c.iter_mut().zip(self.cosines(j)) {
                *ck += fv * cos;
            }
        }
        let norm = 1.0 / self.m as f64;
        c.iter_mut().for_each(|ck| *ck *= norm);
        c
    }
}

/// Chebyshev coefficients of a function on `[−1, 1]` via Chebyshev–Gauss
/// quadrature with `2m` nodes (the standard discrete cosine construction).
///
/// The returned `c[0]` is the *full* zeroth coefficient; evaluation must use
/// `½ c₀ + Σ_{k≥1} c_k T_k`.
pub fn chebyshev_coefficients(f: impl Fn(f64) -> f64, m: usize) -> Vec<f64> {
    let nodes = GaussNodes::new(m);
    nodes.coefficients(nodes.abscissae().map(f))
}

/// Evaluate a Chebyshev series at a scalar `x ∈ [−1, 1]` (Clenshaw).
pub fn chebyshev_eval(coefficients: &[f64], x: f64) -> f64 {
    let mut b1 = 0.0;
    let mut b2 = 0.0;
    for &c in coefficients.iter().skip(1).rev() {
        let b0 = 2.0 * x * b1 - b2 + c;
        b2 = b1;
        b1 = b0;
    }
    // ½c₀ + x·b1 − b2 closes the recurrence.
    0.5 * coefficients[0] + x * b1 - b2
}

/// The Fermi function `1/(1 + e^{(ε−μ)/kT})` with overflow guards.
pub fn fermi_function(eps: f64, mu: f64, kt: f64) -> f64 {
    let x = (eps - mu) / kt;
    if x > 40.0 {
        0.0
    } else if x < -40.0 {
        1.0
    } else {
        1.0 / (1.0 + x.exp())
    }
}

/// Map a spectrum window `[e_min, e_max]` onto `[−1, 1]`: returns
/// `(shift, scale)` with `H̃ = (H − shift)/scale`. The window is padded by
/// 5% so Chebyshev's edge oscillations stay outside the actual spectrum.
/// The engines pass it Lanczos bounds widened by [`LANCZOS_MARGIN`]
/// ([`window`]), or Gershgorin bounds when the guard trips.
pub fn spectral_window(e_min: f64, e_max: f64) -> (f64, f64) {
    assert!(e_max > e_min);
    let pad = 0.05 * (e_max - e_min).max(1e-6);
    let lo = e_min - pad;
    let hi = e_max + pad;
    (0.5 * (hi + lo), 0.5 * (hi - lo))
}

/// Margin (eV) added to each Lanczos bound before [`spectral_window`]'s pad.
pub const LANCZOS_MARGIN: f64 = 0.5;

/// Chebyshev steps per `scale/(π·kT)`, the decay length of the Fermi
/// coefficients: 350 on Si-216's Gershgorin window at kT 0.2 eV, 174 on its spectrum.
pub const STEPS_PER_DECAY: f64 = 9.3;

/// The map `H̃ = (H − shift)/scale` an O(N) evaluation runs on, and its
/// Chebyshev order: `order` moments, `order − 1` density steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub shift: f64,
    pub scale: f64,
    pub order: usize,
}

impl Window {
    /// [`spectral_window`] of `[e_min, e_max]` at `order` steps.
    fn on(e_min: f64, e_max: f64, order: usize) -> Self {
        let (shift, scale) = spectral_window(e_min, e_max);
        Window {
            shift,
            scale,
            order,
        }
    }

    /// The Gershgorin window at the ceiling order: the guard's fallback.
    pub(crate) fn gershgorin(h: &SparseH, order_cap: usize) -> Self {
        let (e_min, e_max) = h.gershgorin_bounds();
        Window::on(e_min, e_max, order_cap)
    }

    /// `[shift − scale, shift + scale]` (eV).
    pub fn bounds(&self) -> (f64, f64) {
        (self.shift - self.scale, self.shift + self.scale)
    }

    /// The moments `pass` computes on this window, guarded: inside it
    /// `|T_{2k}| ≤ 1` on `h` and on every region (a principal submatrix), so
    /// an even moment above the orbital count `h.n()` means the window missed
    /// part of the spectrum; the pass then reruns on [`Window::gershgorin`].
    pub(crate) fn guarded(
        self,
        h: &SparseH,
        order_cap: usize,
        mut pass: impl FnMut(Window) -> Vec<f64>,
    ) -> (Window, Vec<f64>) {
        let moments = pass(self);
        let bound = h.n() as f64 * (1.0 + 1e-9);
        if moments.iter().step_by(2).all(|m| m.abs() <= bound) {
            return (self, moments);
        }
        let fallback = Window::gershgorin(h, order_cap);
        (fallback, pass(fallback))
    }
}

/// The window both O(N) engines run on: [`SparseH::lanczos_bounds`] plus
/// [`LANCZOS_MARGIN`], at `min(order_cap, ⌈c·scale/(π·kT)⌉)` steps (`c` =
/// [`STEPS_PER_DECAY`]); the Gershgorin window if Lanczos fails.
pub fn window(h: &SparseH, kt: f64, order_cap: usize) -> Window {
    let Some((lo, hi)) = h.lanczos_bounds() else {
        return Window::gershgorin(h, order_cap);
    };
    let mut w = Window::on(lo - LANCZOS_MARGIN, hi + LANCZOS_MARGIN, order_cap);
    let derived = (STEPS_PER_DECAY * w.scale / (std::f64::consts::PI * kt)).ceil();
    w.order = (derived as usize).clamp(2, order_cap.max(2));
    w
}

/// Coefficients of the Fermi operator on the [`spectral_window`] of
/// `[e_min, e_max]`: returns `(shift, scale, coefficients)` with the series
/// approximating `f(scale·x + shift)` for `x ∈ [−1, 1]`.
pub fn fermi_coefficients(
    e_min: f64,
    e_max: f64,
    mu: f64,
    kt: f64,
    order: usize,
) -> (f64, f64, Vec<f64>) {
    assert!(kt > 0.0 && order >= 2);
    let (shift, scale) = spectral_window(e_min, e_max);
    let coeffs = chebyshev_coefficients(|x| fermi_function(scale * x + shift, mu, kt), order);
    (shift, scale, coeffs)
}

/// The entropy density `g(ε) = f ln f + (1−f) ln(1−f)` of the Fermi
/// occupation at `(μ, kT)` — non-positive, vanishing away from μ. The
/// Mermin correction is `−T_e S = 2·kT·Tr g(H)` (spin factor 2).
pub fn entropy_density(eps: f64, mu: f64, kt: f64) -> f64 {
    let f = fermi_function(eps, mu, kt);
    if f <= 0.0 || f >= 1.0 {
        0.0
    } else {
        f * f.ln() + (1.0 - f) * (1.0 - f).ln()
    }
}

/// Coefficients of the entropy-density operator on the same padded window as
/// [`fermi_coefficients`]; returns `(shift, scale, coefficients)`. Combined
/// with the diagonal Chebyshev moments this yields the electronic-entropy
/// correction at O(order) extra cost — no additional matvecs.
pub fn entropy_coefficients(
    e_min: f64,
    e_max: f64,
    mu: f64,
    kt: f64,
    order: usize,
) -> (f64, f64, Vec<f64>) {
    assert!(kt > 0.0 && order >= 2);
    let (shift, scale) = spectral_window(e_min, e_max);
    let coeffs = chebyshev_coefficients(|x| entropy_density(scale * x + shift, mu, kt), order);
    (shift, scale, coeffs)
}

/// Chemical potential and everything priced at it, from the diagonal
/// Chebyshev moments (see [`solve_mu`]).
#[derive(Debug, Clone)]
pub struct FermiLevel {
    /// Chemical potential (eV).
    pub mu: f64,
    /// Electron count reproduced at `mu`.
    pub electron_count: f64,
    /// Mermin correction `−T_e S = 2·kT·Tr g(H)` (eV).
    pub entropy_term: f64,
    /// Fermi-operator coefficients at `mu` (`c[0]` full; see
    /// [`chebyshev_coefficients`]).
    pub coeffs: Vec<f64>,
}

/// Find μ by bisection on the electron count `2 Tr f(H)` expressed through
/// the moments `M_k = Tr T_k(H̃)` on the window `(shift, scale)`.
///
/// Swapping the sums of `2(½c₀M₀ + Σ_k c_k M_k)` with
/// `c_k = (2/n) Σ_j f(x_j) cos(kθ_j)` gives `(4/n) Σ_j f(x_j; μ) D_j` with the
/// μ-independent node sums `D_j = ½M₀ + Σ_k M_k cos(kθ_j)`, formed once; a
/// candidate μ then costs O(order) Fermi evaluations. The entropy trace
/// uses the same `D_j`; only the final coefficients need the k-sum.
pub fn solve_mu(moments: &[f64], shift: f64, scale: f64, kt: f64, n_electrons: f64) -> FermiLevel {
    assert!(kt > 0.0 && moments.len() >= 2);
    let nodes = GaussNodes::new(moments.len());
    let eps: Vec<f64> = nodes.abscissae().map(|x| scale * x + shift).collect();
    let node_sums: Vec<f64> = (0..eps.len())
        .map(|j| {
            let tail: f64 = moments
                .iter()
                .zip(nodes.cosines(j))
                .skip(1)
                .map(|(m, c)| m * c)
                .sum();
            0.5 * moments[0] + tail
        })
        .collect();
    // 2·Tr g(H) for a node function g(ε, μ, kT), spin factor included.
    let norm = 4.0 / eps.len() as f64;
    let trace = |g: fn(f64, f64, f64) -> f64, mu: f64| -> f64 {
        let sum: f64 = eps
            .iter()
            .zip(&node_sums)
            .map(|(&e, d)| g(e, mu, kt) * d)
            .sum();
        norm * sum
    };
    let (mut lo, mut hi) = (shift - scale - 10.0 * kt, shift + scale + 10.0 * kt);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if trace(fermi_function, mid) < n_electrons {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mu = 0.5 * (lo + hi);
    FermiLevel {
        mu,
        electron_count: trace(fermi_function, mu),
        entropy_term: kt * trace(entropy_density, mu),
        coeffs: nodes.coefficients(eps.iter().map(|&e| fermi_function(e, mu, kt))),
    }
}

/// The Chebyshev three-term recurrence `T_{k+1} = 2 H̃ T_k − T_{k−1}` on a
/// localization region, advancing the four orbital columns of one atom
/// together as a row-major multivector.
pub struct BlockRecurrence<'r> {
    region: &'r LocalRegion<'r>,
    /// The region's blocks, gathered from its `SparseH` when the recurrence
    /// starts ([`LocalRegion::gather`]).
    blocks: Rows64,
    /// The region's diagonal less the spectral shift: with the blocks,
    /// `scale · H̃`.
    on_site: Rows64,
    /// Seed columns: `T₀` holds one unit entry in each.
    n_cols: usize,
    scale: f64,
    /// `T_{k−1}`, `T_k` and the buffer the next step writes.
    prev: Rows64,
    cur: Rows64,
    next: Rows64,
    /// 1 for the first step (`T₁ = H̃ T₀` against a zero `T₋₁`), then 2.
    factor: f64,
}

impl<'r> BlockRecurrence<'r> {
    /// Seed `T₀` with the unit vectors of the `n_cols` orbitals of the atom
    /// whose first padded row is `row0` (column ν starts at row `row0 + ν`;
    /// columns beyond `n_cols` stay zero).
    pub fn new(
        region: &'r LocalRegion<'r>,
        row0: usize,
        n_cols: usize,
        shift: f64,
        scale: f64,
    ) -> Self {
        let n = region.padded_len();
        let mut cur = Rows64::zeroed(n);
        for nu in 0..n_cols {
            cur.rows_mut()[row0 + nu][nu] = 1.0;
        }
        let (blocks, on_site) = region.gather(shift);
        BlockRecurrence {
            region,
            blocks,
            on_site,
            n_cols,
            scale,
            prev: Rows64::zeroed(n),
            cur,
            next: Rows64::zeroed(n),
            factor: 1.0,
        }
    }

    /// `T_k` (after `k` calls of [`advance`](Self::advance)).
    pub fn current(&self) -> &[Row4] {
        self.cur.rows()
    }

    /// `T_{k−1}` (zero before the first step).
    pub fn previous(&self) -> &[Row4] {
        self.prev.rows()
    }

    /// Step `k → k + 1`.
    pub fn advance(&mut self) {
        self.step(StepTail::None);
    }

    /// Step `k → k + 1`, `tail` fed the rows of `T_{k+1}` (and of `T_k`) as
    /// the kernel finishes them.
    fn step(&mut self, tail: StepTail<'_>) {
        let shifted = self.region.operator(&self.blocks, self.on_site.rows());
        let gain = self.factor / self.scale;
        let (x, prev) = (self.cur.rows(), self.prev.rows());
        bsr4_chebyshev_step(shifted, gain, x, prev, self.next.rows_mut(), tail);
        self.factor = 2.0;
        std::mem::swap(&mut self.prev, &mut self.cur);
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Add the diagonal moments `Σ_ν T_k(H̃)_νν`, `k < moments.len()`, of the
    /// seed columns into `moments`, in `moments.len() / 2` steps instead of
    /// `moments.len() − 1`: for the symmetric restricted operator
    /// `T_m T_n = ½(T_{m+n} + T_{|m−n|})` gives
    /// `T_{2k,νν} = 2⟨T_k e_ν, T_k e_ν⟩ − T_{0,νν}` and
    /// `T_{2k−1,νν} = 2⟨T_k e_ν, T_{k−1} e_ν⟩ − T_{1,νν}`. Both products
    /// come out of the step itself ([`StepTail::Dots`]).
    pub fn diagonal_moments(mut self, moments: &mut [f64]) {
        let order = moments.len();
        let m0 = self.n_cols as f64;
        if order > 0 {
            moments[0] += m0;
        }
        let mut m1 = 0.0;
        for k in 1..=order / 2 {
            let mut dots = [0.0; 2];
            self.step(StepTail::Dots(&mut dots));
            let [even, odd] = dots;
            if k == 1 {
                m1 = odd;
            }
            moments[2 * k - 1] += 2.0 * odd - m1;
            if 2 * k < order {
                moments[2 * k] += 2.0 * even - m0;
            }
        }
    }

    /// The density-matrix columns `2(½c₀ T₀ + Σ_{k≥1} c_k T_k)` of the seed
    /// (spin factor included) on the block rows `i` with `rows[i]` set, in
    /// `coeffs.len() − 1` steps, each adding its term to ρ as it goes
    /// ([`StepTail::Axpy`]). The other rows keep `c₀ T₀`.
    pub fn density_columns(mut self, coeffs: &[f64], rows: &[bool]) -> Vec<Row4> {
        let mut rho: Vec<Row4> = self
            .current()
            .iter()
            .map(|t| t.map(|v| coeffs[0] * v))
            .collect();
        for &ck in &coeffs[1..] {
            self.step(StepTail::Axpy(2.0 * ck, &mut rho, rows));
        }
        rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expands_polynomial_exactly() {
        // f(x) = 3x² − 1 = 1.5·T₂ + 0.5·T₀ − ... : any series of order ≥ 3
        // reproduces it to round-off.
        let c = chebyshev_coefficients(|x| 3.0 * x * x - 1.0, 8);
        for &x in &[-0.9, -0.3, 0.0, 0.5, 0.99] {
            let approx = chebyshev_eval(&c, x);
            assert!((approx - (3.0 * x * x - 1.0)).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn expands_exponential() {
        let c = chebyshev_coefficients(|x| x.exp(), 20);
        for &x in &[-1.0, -0.4, 0.2, 0.8] {
            assert!((chebyshev_eval(&c, x) - x.exp()).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn fermi_series_accurate_on_window() {
        let (shift, scale, c) = fermi_coefficients(-15.0, 20.0, 1.3, 0.3, 400);
        for k in 0..100 {
            let eps = -15.0 + 35.0 * k as f64 / 99.0;
            let x = (eps - shift) / scale;
            let approx = chebyshev_eval(&c, x);
            let exact = fermi_function(eps, 1.3, 0.3);
            assert!(
                (approx - exact).abs() < 1e-6,
                "eps={eps}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn fermi_series_order_convergence() {
        // Error must shrink as the order grows.
        let err_at = |order: usize| -> f64 {
            let (shift, scale, c) = fermi_coefficients(-10.0, 10.0, 0.0, 0.5, order);
            (0..200)
                .map(|k| {
                    let eps = -10.0 + 20.0 * k as f64 / 199.0;
                    let x = (eps - shift) / scale;
                    (chebyshev_eval(&c, x) - fermi_function(eps, 0.0, 0.5)).abs()
                })
                .fold(0.0, f64::max)
        };
        let e50 = err_at(50);
        let e150 = err_at(150);
        assert!(e150 < e50 / 10.0, "orders 50/150: {e50} vs {e150}");
    }

    #[test]
    fn entropy_series_accurate_on_window() {
        let (shift, scale, c) = entropy_coefficients(-15.0, 20.0, 1.3, 0.3, 400);
        for k in 0..100 {
            let eps = -15.0 + 35.0 * k as f64 / 99.0;
            let x = (eps - shift) / scale;
            let approx = chebyshev_eval(&c, x);
            let exact = entropy_density(eps, 1.3, 0.3);
            assert!(
                (approx - exact).abs() < 1e-6,
                "eps={eps}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn entropy_density_properties() {
        // Non-positive everywhere, equal to ln ½ = −ln 2 at ε = μ (where
        // f = ½), and zero far from μ.
        assert_eq!(entropy_density(100.0, 0.0, 0.1), 0.0);
        assert_eq!(entropy_density(-100.0, 0.0, 0.1), 0.0);
        let at_mu = entropy_density(0.0, 0.0, 0.1);
        assert!((at_mu - (-std::f64::consts::LN_2)).abs() < 1e-12);
        for &eps in &[-0.5, -0.1, 0.0, 0.2, 0.7] {
            assert!(entropy_density(eps, 0.0, 0.2) <= 0.0);
        }
    }

    #[test]
    fn fermi_function_limits() {
        assert_eq!(fermi_function(100.0, 0.0, 0.1), 0.0);
        assert_eq!(fermi_function(-100.0, 0.0, 0.1), 1.0);
        assert!((fermi_function(0.0, 0.0, 0.1) - 0.5).abs() < 1e-14);
    }

    #[test]
    fn clenshaw_matches_direct_sum() {
        let c = chebyshev_coefficients(|x| (2.5 * x).sin(), 30);
        let x: f64 = 0.37;
        // Direct: T_k via recurrence.
        let mut t0 = 1.0;
        let mut t1 = x;
        let mut direct = 0.5 * c[0] + c[1] * x;
        for &ck in c.iter().skip(2) {
            let t2 = 2.0 * x * t1 - t0;
            direct += ck * t2;
            t0 = t1;
            t1 = t2;
        }
        assert!((chebyshev_eval(&c, x) - direct).abs() < 1e-12);
    }
}
