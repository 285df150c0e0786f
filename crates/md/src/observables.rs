//! Observables: running statistics and radial distribution functions.

use tbmd_structure::Structure;

/// Numerically stable running mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Raw Welford internals `(n, mean, m2, min, max)` for checkpointing.
    pub fn to_raw(&self) -> (u64, f64, f64, f64, f64) {
        (self.n, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuild an accumulator from [`to_raw`] parts; pushing the same
    /// subsequent samples then reproduces the uninterrupted stream exactly.
    ///
    /// [`to_raw`]: RunningStats::to_raw
    pub fn from_raw(n: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        RunningStats {
            n,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Radial distribution function accumulated over snapshots.
///
/// For fully periodic cells the histogram is normalized against the ideal-gas
/// shell count so a disordered fluid tends to g(r) = 1; for clusters/slabs
/// (no well-defined density) the raw pair-count histogram is returned
/// normalized per atom pair — still perfectly good for locating peak
/// positions, which is what the melting experiment (F4) reads off.
#[derive(Debug, Clone)]
pub struct RdfAccumulator {
    r_max: f64,
    bins: Vec<f64>,
    snapshots: usize,
    n_atoms: usize,
    volume: Option<f64>,
}

impl RdfAccumulator {
    /// Histogram out to `r_max` with `n_bins` bins.
    pub fn new(r_max: f64, n_bins: usize) -> Self {
        assert!(r_max > 0.0 && n_bins > 0);
        RdfAccumulator {
            r_max,
            bins: vec![0.0; n_bins],
            snapshots: 0,
            n_atoms: 0,
            volume: None,
        }
    }

    /// g(r) of one configuration on the standard window: out to half the
    /// shortest periodic edge (the minimum-image bound), 5 Å for a cluster,
    /// never under 1 Å, in 64 bins. Session observables and campaign rows
    /// both read their RDF from this.
    pub fn of_structure(s: &Structure) -> Self {
        let r_max = s
            .cell()
            .min_periodic_edge()
            .map_or(5.0, |edge| 0.5 * edge)
            .max(1.0);
        let mut rdf = RdfAccumulator::new(r_max, 64);
        rdf.accumulate(s);
        rdf
    }

    /// Histogram range (Å).
    pub fn r_max(&self) -> f64 {
        self.r_max
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// Bin width.
    pub fn dr(&self) -> f64 {
        self.r_max / self.bins.len() as f64
    }

    /// Accumulate one configuration.
    pub fn accumulate(&mut self, s: &Structure) {
        let n = s.n_atoms();
        self.n_atoms = n;
        self.volume = s.cell().volume();
        let dr = self.dr();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = s.distance(i, j);
                if d < self.r_max {
                    let bin = (d / dr) as usize;
                    if bin < self.bins.len() {
                        self.bins[bin] += 2.0; // both directions
                    }
                }
            }
        }
        self.snapshots += 1;
    }

    /// `(r, g(r))` samples at bin centres.
    pub fn finish(&self) -> Vec<(f64, f64)> {
        let dr = self.dr();
        let n = self.n_atoms as f64;
        let snaps = self.snapshots.max(1) as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(k, &count)| {
                let r = (k as f64 + 0.5) * dr;
                let avg_count = count / (snaps * n); // pairs per atom in shell
                let g = match self.volume {
                    Some(v) => {
                        let rho = n / v;
                        let shell = 4.0 * std::f64::consts::PI * r * r * dr * rho;
                        avg_count / shell
                    }
                    None => avg_count,
                };
                (r, g)
            })
            .collect()
    }

    /// Position and height of the *first* g(r) peak: the first local maximum
    /// whose height reaches at least 25% of the global maximum (so histogram
    /// noise below the bonding shell cannot masquerade as a peak).
    pub fn first_peak(&self) -> Option<(f64, f64)> {
        let g = self.finish();
        let global = g.iter().map(|x| x.1).fold(0.0f64, f64::max);
        if global <= 0.0 {
            return None;
        }
        let threshold = 0.25 * global;
        for k in 0..g.len() {
            let left = if k == 0 { 0.0 } else { g[k - 1].1 };
            let right = if k + 1 == g.len() { 0.0 } else { g[k + 1].1 };
            if g[k].1 >= threshold && g[k].1 >= left && g[k].1 >= right {
                return Some(g[k]);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbmd_structure::{bulk_diamond, Species};

    #[test]
    fn running_stats_basics() {
        let mut st = RunningStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            st.push(x);
        }
        assert_eq!(st.count(), 4);
        assert!((st.mean() - 2.5).abs() < 1e-14);
        assert!((st.variance() - 1.25).abs() < 1e-14);
        assert_eq!(st.min(), 1.0);
        assert_eq!(st.max(), 4.0);
        assert_eq!(RunningStats::new().mean(), 0.0);
    }

    #[test]
    fn rdf_crystal_first_peak_at_bond_length() {
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut rdf = RdfAccumulator::new(4.5, 150);
        rdf.accumulate(&s);
        let (r_peak, _) = rdf.first_peak().unwrap();
        assert!(
            (r_peak - 2.351).abs() < 0.1,
            "first RDF peak at {r_peak}, expected ~2.35"
        );
    }

    #[test]
    fn standard_window_follows_the_cell() {
        let crystal = RdfAccumulator::of_structure(&bulk_diamond(Species::Silicon, 1, 1, 1));
        let edge = bulk_diamond(Species::Silicon, 1, 1, 1)
            .cell()
            .min_periodic_edge()
            .unwrap();
        assert_eq!((crystal.r_max(), crystal.n_bins()), (0.5 * edge, 64));
        let dimer = RdfAccumulator::of_structure(&tbmd_structure::dimer(Species::Silicon, 2.3));
        assert_eq!(dimer.r_max(), 5.0);
        assert!(dimer
            .first_peak()
            .is_some_and(|(r, _)| (r - 2.3).abs() < dimer.dr()));
    }

    #[test]
    fn rdf_periodic_normalization_reasonable() {
        // In a perfect crystal the normalized peak is far above 1; far from
        // peaks g ≈ 0.
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut rdf = RdfAccumulator::new(4.5, 150);
        rdf.accumulate(&s);
        let g = rdf.finish();
        let peak = g.iter().map(|x| x.1).fold(0.0f64, f64::max);
        assert!(peak > 5.0);
        // Valley between shells (around 3.0 Å) near zero.
        let valley: f64 = g
            .iter()
            .filter(|(r, _)| (2.9..3.2).contains(r))
            .map(|x| x.1)
            .fold(0.0, f64::max);
        assert!(valley < 0.2, "valley {valley}");
    }
}
