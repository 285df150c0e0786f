//! Unit system and physical constants.
//!
//! The whole workspace uses the natural MD unit system for empirical
//! potentials: **eV** for energy, **Å** for length, **fs** for time and
//! **amu** for mass. The only non-trivial conversion is acceleration:
//! `1 eV/Å / amu = ACCEL_CONV Å/fs²`.

/// Boltzmann constant in eV/K.
pub const KB_EV: f64 = 8.617_333_262e-5;

/// Conversion factor: force (eV/Å) divided by mass (amu) to acceleration in
/// Å/fs². Derived from 1 eV = 1.602 176 634e-19 J and
/// 1 amu = 1.660 539 066e-27 kg.
pub const ACCEL_CONV: f64 = 9.648_533_212e-3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn room_temperature_thermal_energy() {
        // kT at 300 K ≈ 25.9 meV.
        let kt = KB_EV * 300.0;
        assert!((kt - 0.02585).abs() < 1e-4);
    }

    #[test]
    fn silicon_thermal_velocity_magnitude() {
        // A Si atom at 300 K has v_rms = sqrt(3kT/m) ≈ 0.005 Å/fs — checks
        // the unit conversion is in the right ballpark.
        let m = 28.0855;
        let v_rms = (3.0 * KB_EV * 300.0 * ACCEL_CONV / m).sqrt();
        assert!(v_rms > 0.003 && v_rms < 0.008, "v_rms = {v_rms}");
    }
}
