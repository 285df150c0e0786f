//! Electronic occupations: zero-temperature filling (with degenerate-level
//! splitting) and Fermi–Dirac smearing, the chemical potential from a
//! safeguarded Newton iteration on the electron count.
//!
//! Occupations are per *spatial* state (spin degeneracy is the explicit
//! factor 2 everywhere), so a closed-shell system fills `n_electrons / 2`
//! states with `f = 1`.

use crate::units::KB_EV;

/// How to occupy the eigenstates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OccupationScheme {
    /// Fill the lowest states at 0 K; degenerate frontier levels share the
    /// remaining electrons equally (keeps forces continuous through level
    /// crossings of symmetric structures).
    ZeroTemperature,
    /// Fermi–Dirac occupations at electronic temperature `kt` (eV).
    Fermi { kt: f64 },
}

/// Result of an occupation calculation.
#[derive(Debug, Clone)]
pub struct Occupations {
    /// Per-state occupation `f_n ∈ [0, 1]`.
    pub f: Vec<f64>,
    /// Fermi level / chemical potential (eV). For zero-temperature filling
    /// this is the midpoint of the HOMO–LUMO interval.
    pub fermi_level: f64,
    /// Electronic entropy `S` in eV/K (zero for 0 K filling); the Mermin
    /// free-energy correction is `−T_e S`.
    pub entropy: f64,
}

impl Occupations {
    /// Band-structure energy `2 Σ f_n ε_n` (eV).
    pub fn band_energy(&self, eigenvalues: &[f64]) -> f64 {
        2.0 * self
            .f
            .iter()
            .zip(eigenvalues)
            .map(|(f, e)| f * e)
            .sum::<f64>()
    }

    /// Total electron count `2 Σ f_n`.
    pub fn electron_count(&self) -> f64 {
        2.0 * self.f.iter().sum::<f64>()
    }
}

/// Degeneracy tolerance for the zero-temperature frontier multiplet (eV).
const DEGENERACY_TOL: f64 = 1e-8;

/// Occupations at or below this threshold are treated as exactly empty by
/// the density-matrix builder and by the partial-spectrum eigensolver's
/// subspace selection: a state with `f ≤ OCCUPATION_DROP_TOL` contributes
/// `< 2·10⁻¹²` electrons, below every force/energy tolerance in the suite.
pub const OCCUPATION_DROP_TOL: f64 = 1e-12;

/// Number of states with non-negligible occupation — the `k` of the
/// occupied-subspace eigensolver path: eigenvectors beyond this index carry
/// Fermi weights `≤` [`OCCUPATION_DROP_TOL`] and are provably dropped by
/// [`crate::calculator::density_matrix_into`]'s occupation filter, so
/// skipping them changes nothing downstream.
pub fn occupied_count(f: &[f64]) -> usize {
    f.iter().filter(|&&fk| fk > OCCUPATION_DROP_TOL).count()
}

/// Compute occupations for sorted-ascending `eigenvalues` and a total of
/// `n_electrons` electrons.
///
/// # Panics
/// Panics if more electrons are requested than `2 × n_states` can hold, or
/// if the eigenvalues are not sorted.
pub fn occupations(
    eigenvalues: &[f64],
    n_electrons: usize,
    scheme: OccupationScheme,
) -> Occupations {
    let n = eigenvalues.len();
    assert!(
        n_electrons <= 2 * n,
        "{n_electrons} electrons cannot fit in {n} spin-degenerate states"
    );
    debug_assert!(
        eigenvalues.windows(2).all(|w| w[0] <= w[1]),
        "eigenvalues must be sorted ascending"
    );
    match scheme {
        OccupationScheme::ZeroTemperature => zero_temperature(eigenvalues, n_electrons),
        OccupationScheme::Fermi { kt } => {
            if kt <= 0.0 {
                zero_temperature(eigenvalues, n_electrons)
            } else {
                fermi(eigenvalues, n_electrons, kt)
            }
        }
    }
}

fn zero_temperature(eigenvalues: &[f64], n_electrons: usize) -> Occupations {
    let n = eigenvalues.len();
    let mut f = vec![0.0; n];
    let mut remaining = n_electrons as f64 / 2.0;
    let mut i = 0;
    let mut homo_idx = 0usize;
    while remaining > 1e-12 && i < n {
        // Extent of the degenerate multiplet starting at i.
        let mut j = i + 1;
        while j < n && eigenvalues[j] - eigenvalues[i] < DEGENERACY_TOL {
            j += 1;
        }
        let capacity = (j - i) as f64;
        let take = remaining.min(capacity);
        let share = take / capacity;
        for fk in &mut f[i..j] {
            *fk = share;
        }
        homo_idx = j - 1;
        remaining -= take;
        i = j;
    }
    let fermi_level = if n_electrons == 0 {
        eigenvalues.first().copied().unwrap_or(0.0)
    } else if homo_idx + 1 < n {
        0.5 * (eigenvalues[homo_idx] + eigenvalues[homo_idx + 1])
    } else {
        eigenvalues[homo_idx]
    };
    Occupations {
        f,
        fermi_level,
        entropy: 0.0,
    }
}

/// Fermi–Dirac occupations at `kt > 0`. The chemical potential solves
/// `2 Σ f((ε − μ)/kT) = n_electrons` by Newton's method (the slope
/// `2 Σ f(1 − f)/kT` comes with each count) from the zero-temperature
/// Fermi level `(ε_h + ε_l)/2`, inside a bracket
/// `[ε_min − 30 kT, ε_max + 30 kT]`:
/// - every count narrows the bracket: below the target the point becomes
///   its lower end, else its upper end, and a step that would leave it (or
///   a zero slope) bisects it instead;
/// - a count that is exact stops the iteration there; so does a Newton step
///   below `10⁻¹⁴ (1 + |μ|)`, bisection's stopping width, after it is taken
///   and counted (its error is its square, so the count is exact to μ's
///   last bit even as kT → 0), and a bracket narrower than that, whose upper
///   end is counted.
///
/// On the sorted spectrum a count takes one `exp` per state inside
/// `|ε − μ| ≤ 40 kT` ([`fermi_occ`] is exactly 1 below, 0 above), and it sums
/// the Fermi tails — `f` above μ, `f − 1` below — beside a whole number of
/// states, so it rounds at the tails' scale, not at the count's: bisection
/// on the plain sum stalled in its rounding noise. Where a gap leaves no
/// state within 40 kT of the zero-temperature Fermi level the count is
/// exact there, and that is μ.
fn fermi(eigenvalues: &[f64], n_electrons: usize, kt: f64) -> Occupations {
    let n = eigenvalues.len();
    if n == 0 {
        return zero_temperature(eigenvalues, n_electrons);
    }
    let target = n_electrons as f64;
    let mut f = vec![0.0; n];
    // The electrons over the target at `mu` and their μ-derivative, the
    // occupations left in `f`.
    let mut excess = |mu: f64| {
        let x = |e: f64| (e - mu) / kt;
        let full = eigenvalues.partition_point(|&e| x(e) < -40.0);
        let live = full + eigenvalues[full..].partition_point(|&e| x(e) <= 40.0);
        f[..full].fill(1.0);
        f[live..].fill(0.0);
        let (mut below, mut tails, mut slope) = (full, 0.0, 0.0);
        for (fk, &e) in f[full..live].iter_mut().zip(&eigenvalues[full..live]) {
            let xk = x(e);
            // The smaller of f and 1 − f: the tail on μ's side of the state.
            let t = (-xk.abs()).exp();
            let tail = t / (1.0 + t);
            let under = xk < 0.0;
            *fk = if under { 1.0 - tail } else { tail };
            below += usize::from(under);
            tails += if under { -tail } else { tail };
            slope += tail * (1.0 - tail);
        }
        ((2 * below) as f64 - target + 2.0 * tails, 2.0 * slope / kt)
    };
    let (mut lo, mut hi) = (eigenvalues[0] - 30.0 * kt, eigenvalues[n - 1] + 30.0 * kt);
    let frontier = |k: usize| eigenvalues[k.min(n - 1)];
    let mut mu = 0.5 * (frontier(n_electrons.saturating_sub(1) / 2) + frontier(n_electrons / 2));
    for round in 1..=200 {
        let (over, slope) = excess(mu);
        if over < 0.0 {
            lo = mu;
        } else {
            hi = mu;
        }
        if over == 0.0 {
            break;
        }
        let tol = 1e-14 * (1.0 + mu.abs());
        let newton = mu - over / slope;
        let (next, last) = if hi - lo < tol {
            (hi, true)
        } else if (lo..=hi).contains(&newton) {
            (newton, (newton - mu).abs() < tol)
        } else {
            (0.5 * (lo + hi), false)
        };
        let done = last || round == 200;
        if done && next != mu {
            excess(next);
        }
        mu = next;
        if done {
            break;
        }
    }
    Occupations {
        entropy: fermi_entropy(&f),
        f,
        fermi_level: mu,
    }
}

/// Electronic entropy `S = −2 k_B Σ [f ln f + (1−f) ln(1−f)]` (eV/K) of a
/// set of Fermi occupations.
pub fn fermi_entropy(f: &[f64]) -> f64 {
    -2.0 * KB_EV
        * f.iter()
            .map(|&fk| {
                let a = if fk > 1e-300 { fk * fk.ln() } else { 0.0 };
                let g = 1.0 - fk;
                let b = if g > 1e-300 { g * g.ln() } else { 0.0 };
                a + b
            })
            .sum::<f64>()
}

/// Overflow-safe Fermi function of the reduced energy `x = (ε − μ)/kT`.
#[inline]
pub fn fermi_occ(x: f64) -> f64 {
    if x > 40.0 {
        0.0
    } else if x < -40.0 {
        1.0
    } else {
        1.0 / (1.0 + x.exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_shell_zero_t() {
        let eps = [-3.0, -1.0, 0.5, 2.0];
        let occ = occupations(&eps, 4, OccupationScheme::ZeroTemperature);
        assert_eq!(occ.f, vec![1.0, 1.0, 0.0, 0.0]);
        assert!((occ.electron_count() - 4.0).abs() < 1e-12);
        assert!((occ.band_energy(&eps) - 2.0 * (-4.0)).abs() < 1e-12);
        assert!((occ.fermi_level - -0.25).abs() < 1e-12);
        assert_eq!(occ.entropy, 0.0);
    }

    #[test]
    fn odd_electron_half_filling() {
        let eps = [-2.0, 0.0, 1.0];
        let occ = occupations(&eps, 3, OccupationScheme::ZeroTemperature);
        assert_eq!(occ.f, vec![1.0, 0.5, 0.0]);
        assert!((occ.electron_count() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_frontier_split_equally() {
        let eps = [-2.0, 0.0, 0.0, 1.0];
        // 3 electrons: 2 in the lowest, 1 shared between the two degenerate.
        let occ = occupations(&eps, 3, OccupationScheme::ZeroTemperature);
        assert!((occ.f[0] - 1.0).abs() < 1e-12);
        assert!((occ.f[1] - 0.25).abs() < 1e-12);
        assert!((occ.f[2] - 0.25).abs() < 1e-12);
        assert_eq!(occ.f[3], 0.0);
    }

    #[test]
    fn zero_and_full_filling() {
        let eps = [-1.0, 1.0];
        let empty = occupations(&eps, 0, OccupationScheme::ZeroTemperature);
        assert_eq!(empty.f, vec![0.0, 0.0]);
        let full = occupations(&eps, 4, OccupationScheme::ZeroTemperature);
        assert_eq!(full.f, vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic]
    fn too_many_electrons_panics() {
        let _ = occupations(&[0.0], 3, OccupationScheme::ZeroTemperature);
    }

    #[test]
    fn fermi_conserves_electron_count() {
        let eps: Vec<f64> = (0..20).map(|i| -5.0 + 0.45 * i as f64).collect();
        for ne in [2usize, 7, 10, 19, 30] {
            let occ = occupations(&eps, ne, OccupationScheme::Fermi { kt: 0.2 });
            assert!(
                (occ.electron_count() - ne as f64).abs() < 1e-9,
                "ne={ne}: got {}",
                occ.electron_count()
            );
        }
    }

    #[test]
    fn fermi_approaches_zero_t_limit() {
        let eps = [-3.0, -1.0, 0.5, 2.0];
        let cold = occupations(&eps, 4, OccupationScheme::Fermi { kt: 1e-4 });
        for (a, b) in cold.f.iter().zip(&[1.0, 1.0, 0.0, 0.0]) {
            assert!((a - b).abs() < 1e-6);
        }
        let zero = occupations(&eps, 4, OccupationScheme::Fermi { kt: 0.0 });
        assert_eq!(zero.f, vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn fermi_entropy_positive_and_grows_with_kt() {
        let eps = [-1.0, -0.5, 0.0, 0.5, 1.0];
        let s1 = occupations(&eps, 5, OccupationScheme::Fermi { kt: 0.1 }).entropy;
        let s2 = occupations(&eps, 5, OccupationScheme::Fermi { kt: 0.5 }).entropy;
        assert!(s1 > 0.0);
        assert!(s2 > s1);
    }

    #[test]
    fn fermi_level_between_homo_and_lumo() {
        let eps = [-2.0, -1.0, 1.0, 2.0];
        let occ = occupations(&eps, 4, OccupationScheme::Fermi { kt: 0.05 });
        assert!(occ.fermi_level > -1.0 && occ.fermi_level < 1.0);
    }

    /// The chemical potential as it was found before the Newton iteration:
    /// bisection of the same bracket until it is narrower than
    /// `10⁻¹⁴ (1 + |hi|)`, its midpoint.
    fn bisected_mu(eigenvalues: &[f64], n_electrons: usize, kt: f64) -> f64 {
        let count = |mu: f64| -> f64 {
            2.0 * eigenvalues
                .iter()
                .map(|&e| fermi_occ((e - mu) / kt))
                .sum::<f64>()
        };
        let mut lo = eigenvalues[0] - 30.0 * kt;
        let mut hi = eigenvalues[eigenvalues.len() - 1] + 30.0 * kt;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if count(mid) < n_electrons as f64 {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-14 * (1.0 + hi.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    /// μ within 1e-12 eV of bisection's, the electron count within 1e-10.
    fn assert_newton_matches_bisection(what: &str, eps: &[f64], ne: usize, kt: f64) {
        let occ = occupations(eps, ne, OccupationScheme::Fermi { kt });
        let mu = bisected_mu(eps, ne, kt);
        assert!(
            (occ.fermi_level - mu).abs() <= 1e-12,
            "{what}: μ {} vs bisection {mu}",
            occ.fermi_level
        );
        let count = occ.electron_count();
        assert!(
            (count - ne as f64).abs() <= 1e-10,
            "{what}: {count} electrons for {ne}"
        );
    }

    #[test]
    fn newton_fermi_level_matches_bisection() {
        // Random spectra of TB-like width, every filling from a quarter to
        // three quarters, kT from 0.01 to 1 eV.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Where the count's slope at μ is under 0.1/eV its plain sum, which
        // rounds at up to ~10⁻¹³ electrons, leaves bisection's μ
        // undetermined at 10⁻¹² eV; there only the count is compared.
        let mut compared = 0;
        for n in [8usize, 32, 256, 864] {
            let mut eps: Vec<f64> = (0..n).map(|_| -12.0 + 20.0 * next()).collect();
            eps.sort_by(f64::total_cmp);
            for ne in [n / 2, n, 3 * n / 2 + 1] {
                for kt in [0.01, 0.1, 1.0] {
                    let what = format!("n={n} ne={ne} kT={kt}");
                    let mu = bisected_mu(&eps, ne, kt);
                    let slope: f64 = eps
                        .iter()
                        .map(|&e| fermi_occ((e - mu) / kt))
                        .map(|f| 2.0 * f * (1.0 - f) / kt)
                        .sum();
                    if slope >= 0.1 {
                        assert_newton_matches_bisection(&what, &eps, ne, kt);
                        compared += 1;
                        continue;
                    }
                    let occ = occupations(&eps, ne, OccupationScheme::Fermi { kt });
                    assert!((occ.electron_count() - ne as f64).abs() <= 1e-10, "{what}");
                }
            }
        }
        assert!(compared >= 24, "only {compared} of 36 spectra resolve μ");
        // A gap of 150 kT: the count is exact all across it, bisection's μ
        // is where the HOMO's f first rounds to 1 (≈ 36.7 kT above it), and
        // the Newton iteration stays where it starts, mid-gap.
        let eps = [-3.0, -1.0, 0.5, 2.0];
        let occ = occupations(&eps, 4, OccupationScheme::Fermi { kt: 0.01 });
        assert_eq!((occ.fermi_level, occ.electron_count()), (-0.25, 4.0));
        assert!((bisected_mu(&eps, 4, 0.01) + 1.0 - 0.367).abs() < 0.01);
        // A degenerate frontier: three levels at 0 eV share four electrons.
        let eps = [-4.0, -3.5, -1.0, 0.0, 0.0, 0.0, 2.0, 2.5];
        for kt in [0.2, 0.02, 1e-3] {
            assert_newton_matches_bisection(&format!("frontier kT={kt}"), &eps, 10, kt);
        }
        // kT → 0 on a half-filled level, where μ is pinned to it.
        let eps = [-3.0, -1.0, 0.5, 2.0];
        for kt in [1e-3, 1e-4, 1e-5] {
            let occ = occupations(&eps, 3, OccupationScheme::Fermi { kt });
            assert!((occ.fermi_level + 1.0).abs() <= 1e-12, "kT={kt}");
            assert_newton_matches_bisection(&format!("kT={kt}"), &eps, 3, kt);
        }
    }

    #[test]
    fn occupations_monotone_decreasing_in_energy() {
        let eps: Vec<f64> = (0..15).map(|i| i as f64 * 0.3 - 2.0).collect();
        let occ = occupations(&eps, 11, OccupationScheme::Fermi { kt: 0.15 });
        for w in occ.f.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }
}
