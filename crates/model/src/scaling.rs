//! Radial scaling functions used by the Goodwin–Skinner–Pettifor family of
//! tight-binding parametrizations (GSP silicon, Xu–Wang–Chan–Ho carbon).
//!
//! Both the hopping integrals and the repulsive pair potential follow the
//! GSP form
//!
//! ```text
//! s(r) = (r0/r)^n · exp{ n [ −(r/rc)^nc + (r0/rc)^nc ] }
//! ```
//!
//! — a power law softened by a super-exponential cutoff — multiplied here by
//! a C²-continuous tail [`CutoffTail`] that takes the interaction smoothly to
//! zero over a short window, so forces stay continuous when neighbours cross
//! the cutoff during MD.

/// The GSP radial scaling function and its analytic derivative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GspScaling {
    /// Reference distance `r0` (Å) where `s(r0) = 1`.
    r0: f64,
    /// Power-law exponent `n`.
    n: f64,
    /// Cutoff-softening length `rc` (Å).
    rc: f64,
    /// Cutoff-softening exponent `nc`.
    nc: f64,
    /// `(r0/rc)^nc`, the distance-independent term of the exponent.
    offset: f64,
}

impl GspScaling {
    /// The scaling with reference distance `r0` (Å), power-law exponent `n`,
    /// cutoff-softening length `rc` (Å) and exponent `nc`.
    pub fn new(r0: f64, n: f64, rc: f64, nc: f64) -> Self {
        GspScaling {
            r0,
            n,
            rc,
            nc,
            offset: (r0 / rc).powf(nc),
        }
    }

    /// `s(r)`.
    pub fn value(&self, r: f64) -> f64 {
        debug_assert!(r > 0.0);
        let pw = (self.r0 / r).powf(self.n);
        let ex = self.n * (-(r / self.rc).powf(self.nc) + self.offset);
        pw * ex.exp()
    }

    /// `ds/dr`, analytic: `s'(r) = s(r) · [ −n/r − n·nc/rc · (r/rc)^{nc−1} ]`.
    pub fn derivative(&self, r: f64) -> f64 {
        self.derivative_from(self.value(r), r)
    }

    /// `s'(r)` given `s = s(r)` already evaluated.
    fn derivative_from(&self, s: f64, r: f64) -> f64 {
        s * (-self.n / r - self.n * self.nc / self.rc * (r / self.rc).powf(self.nc - 1.0))
    }
}

/// A C²-continuous cutoff tail: 1 below `r_inner`, 0 above `r_outer`,
/// interpolated by the quintic smootherstep complement in between.
///
/// Value, first and second derivative all vanish at `r_outer` and match the
/// constant 1 at `r_inner`, so multiplying any smooth radial function by the
/// tail preserves continuous forces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutoffTail {
    pub r_inner: f64,
    pub r_outer: f64,
}

impl CutoffTail {
    /// Construct; requires `0 < r_inner < r_outer`.
    pub fn new(r_inner: f64, r_outer: f64) -> Self {
        assert!(r_inner > 0.0 && r_outer > r_inner, "invalid cutoff window");
        CutoffTail { r_inner, r_outer }
    }

    /// `t(r) ∈ [0, 1]`.
    pub fn value(&self, r: f64) -> f64 {
        if r <= self.r_inner {
            1.0
        } else if r >= self.r_outer {
            0.0
        } else {
            let x = (r - self.r_inner) / (self.r_outer - self.r_inner);
            1.0 - x * x * x * (10.0 - 15.0 * x + 6.0 * x * x)
        }
    }

    /// `dt/dr`.
    pub fn derivative(&self, r: f64) -> f64 {
        if r <= self.r_inner || r >= self.r_outer {
            0.0
        } else {
            let w = self.r_outer - self.r_inner;
            let x = (r - self.r_inner) / w;
            -30.0 * x * x * (1.0 - x) * (1.0 - x) / w
        }
    }
}

/// The amplitude-free radial shape `s(r) · t(r)`: GSP scaling times cutoff
/// tail. Radial functions that differ only in amplitude — the four
/// hoppings of a bundled model — share one, so `s` and `t` are evaluated
/// once per distance for all of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadialShape {
    pub scaling: GspScaling,
    pub tail: CutoffTail,
}

impl RadialShape {
    /// `[s(r), t(r)]`, or `None` at and beyond the outer cutoff, where every
    /// function of this shape is exactly zero.
    pub(crate) fn factors(&self, r: f64) -> Option<[f64; 2]> {
        if r >= self.tail.r_outer {
            return None;
        }
        Some([self.scaling.value(r), self.tail.value(r)])
    }

    /// `[s, s′, t, t′]` at `r`, `s′` taken from the same `s`; `None` at and
    /// beyond the outer cutoff.
    pub(crate) fn factors_with_derivatives(&self, r: f64) -> Option<[f64; 4]> {
        let [s, t] = self.factors(r)?;
        Some([
            s,
            self.scaling.derivative_from(s, r),
            t,
            self.tail.derivative(r),
        ])
    }

    /// The radius beyond which the shape is identically zero.
    pub(crate) fn cutoff(&self) -> f64 {
        self.tail.r_outer
    }
}

/// A radial function `g(r) = A · s(r) · t(r)` — a [`RadialShape`] with an
/// amplitude — plus its derivative. This is the form of every hopping
/// integral and pair repulsion in the bundled models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadialFunction {
    pub amplitude: f64,
    pub shape: RadialShape,
}

impl RadialFunction {
    /// `g(r)`; exactly zero at and beyond the outer cutoff.
    pub fn value(&self, r: f64) -> f64 {
        self.shape
            .factors(r)
            .map_or(0.0, |[s, t]| self.amplitude * s * t)
    }

    /// `dg/dr` (product rule over scaling and tail).
    pub fn derivative(&self, r: f64) -> f64 {
        self.value_and_derivative(r).1
    }

    /// `(g(r), g′(r))` from one evaluation of the shape.
    pub fn value_and_derivative(&self, r: f64) -> (f64, f64) {
        self.shape
            .factors_with_derivatives(r)
            .map_or((0.0, 0.0), |[s, ds, t, dt]| {
                let a = self.amplitude;
                (a * s * t, a * (ds * t + s * dt))
            })
    }

    /// The radius beyond which the function is identically zero.
    pub fn cutoff(&self) -> f64 {
        self.shape.cutoff()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn si_like() -> GspScaling {
        GspScaling::new(2.360352, 2.0, 3.67, 6.48)
    }

    #[test]
    fn unity_at_reference_distance() {
        let s = si_like();
        assert!((s.value(2.360352) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn monotonically_decreasing() {
        let s = si_like();
        let mut prev = s.value(1.8);
        for i in 1..60 {
            let r = 1.8 + i as f64 * 0.05;
            let v = s.value(r);
            assert!(v < prev, "s not decreasing at r={r}");
            prev = v;
        }
    }

    #[test]
    fn scaling_derivative_matches_finite_difference() {
        let s = si_like();
        let h = 1e-6;
        for &r in &[1.9, 2.36, 2.8, 3.3, 3.9] {
            let fd = (s.value(r + h) - s.value(r - h)) / (2.0 * h);
            let an = s.derivative(r);
            assert!(
                (fd - an).abs() < 1e-7 * (1.0 + an.abs()),
                "r={r}: fd={fd}, an={an}"
            );
        }
    }

    #[test]
    fn tail_endpoints_and_smoothness() {
        let t = CutoffTail::new(2.45, 2.60);
        assert_eq!(t.value(2.0), 1.0);
        assert_eq!(t.value(2.45), 1.0);
        assert_eq!(t.value(2.60), 0.0);
        assert_eq!(t.value(3.0), 0.0);
        assert_eq!(t.derivative(2.44), 0.0);
        assert_eq!(t.derivative(2.61), 0.0);
        // Midpoint value ½ by symmetry of smootherstep.
        assert!((t.value(2.525) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tail_derivative_matches_finite_difference() {
        let t = CutoffTail::new(2.45, 2.60);
        let h = 1e-7;
        for &r in &[2.47, 2.5, 2.55, 2.58] {
            let fd = (t.value(r + h) - t.value(r - h)) / (2.0 * h);
            assert!((fd - t.derivative(r)).abs() < 1e-5, "r={r}");
        }
    }

    #[test]
    fn tail_monotone_between_knots() {
        let t = CutoffTail::new(1.0, 2.0);
        let mut prev = 1.0;
        for i in 1..=100 {
            let v = t.value(1.0 + i as f64 * 0.01);
            assert!(v <= prev + 1e-15);
            prev = v;
        }
    }

    #[test]
    fn radial_function_zero_beyond_cutoff() {
        let g = RadialFunction {
            amplitude: -2.0,
            shape: RadialShape {
                scaling: si_like(),
                tail: CutoffTail::new(3.6, 4.2),
            },
        };
        assert_eq!(g.value(4.2), 0.0);
        assert_eq!(g.value(10.0), 0.0);
        assert_eq!(g.derivative(4.5), 0.0);
        assert!(g.value(2.360352) < 0.0);
        assert!((g.value(2.360352) - -2.0).abs() < 1e-12);
        assert_eq!(g.cutoff(), 4.2);
    }

    #[test]
    fn radial_derivative_matches_finite_difference() {
        let g = RadialFunction {
            amplitude: 1.7,
            shape: RadialShape {
                scaling: si_like(),
                tail: CutoffTail::new(3.6, 4.2),
            },
        };
        let h = 1e-6;
        for &r in &[2.0, 2.36, 3.0, 3.7, 3.9, 4.1] {
            let fd = (g.value(r + h) - g.value(r - h)) / (2.0 * h);
            let an = g.derivative(r);
            assert!(
                (fd - an).abs() < 1e-6 * (1.0 + an.abs()),
                "r={r}: fd={fd} an={an}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn invalid_tail_window_panics() {
        let _ = CutoffTail::new(2.0, 1.5);
    }
}
