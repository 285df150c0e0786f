//! The declarative campaign specification and its expansion into cells.
//!
//! A [`CampaignSpec`] describes a full factorial matrix
//! **structure × perturbation × protocol × engine**; [`CampaignSpec::expand`]
//! lays it out as a deterministic list of [`CellPlan`]s. Every stochastic
//! choice inside a cell is pinned by a per-cell seed derived from the
//! campaign seed and the cell's matrix index with SplitMix64
//! ([`tbmd_md::derive_seed`]), so re-expanding the same spec always yields
//! the same cells, bit for bit, no matter which subset already ran.

use tbmd::{EngineKind, Protocol, SimulationConfig, SystemSpec};
use tbmd_md::derive_seed;
use tbmd_structure::{
    apply_strain, displacement_disorder, insert_interstitial, make_vacancy, Structure,
};
use tbmd_trace::JsonValue;

/// One labelled structure generator of the matrix.
#[derive(Debug, Clone)]
pub struct StructureCase {
    pub label: String,
    pub system: SystemSpec,
}

/// A perturbation applied to the generated structure before dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// The structure as generated (also the formation-energy reference).
    Pristine,
    /// Remove atom `site` ([`tbmd_structure::make_vacancy`]).
    Vacancy { site: usize },
    /// Insert one atom of the host species at fractional coordinates.
    Interstitial { frac: [f64; 3] },
    /// Seeded uniform displacement disorder of amplitude `max_disp` Å.
    /// The RNG seed is the cell seed — two cells differing only in their
    /// matrix position draw different disorder.
    Disorder { max_disp: f64 },
    /// Diagonal affine strain (cell + positions scaled together).
    Strain { strain: [f64; 3] },
}

impl Perturbation {
    /// Apply in place. `seed` pins the stochastic variant (disorder). A
    /// vacancy at a site the structure does not have is an error.
    pub fn apply(&self, s: &mut Structure, seed: u64) -> Result<(), String> {
        match *self {
            Perturbation::Pristine => {}
            Perturbation::Vacancy { site } => {
                if site >= s.n_atoms() {
                    return Err(format!(
                        "vacancy site {site} is not an atom of a {}-atom structure",
                        s.n_atoms()
                    ));
                }
                make_vacancy(s, site);
            }
            Perturbation::Interstitial { frac } => {
                let sp = s.species(0);
                insert_interstitial(s, sp, frac);
            }
            Perturbation::Disorder { max_disp } => displacement_disorder(s, max_disp, seed),
            Perturbation::Strain { strain } => apply_strain(s, strain),
        }
        Ok(())
    }

    pub fn is_pristine(&self) -> bool {
        matches!(self, Perturbation::Pristine)
    }
}

/// One labelled perturbation of the matrix.
#[derive(Debug, Clone)]
pub struct PerturbationCase {
    pub label: String,
    pub perturbation: Perturbation,
}

/// One labelled protocol of the matrix: the chain of core [`Protocol`]s a
/// cell runs back to back, each segment starting from the exact phase-space
/// endpoint of the one before ([`tbmd::InitialState`]). A `relax`, `nve` or
/// `nvt` case is one segment; a `quench` is a staircase of `NvtRamp`s.
#[derive(Debug, Clone)]
pub struct ProtocolCase {
    pub label: String,
    pub segments: Vec<Protocol>,
    /// Diagonal strain re-applied between consecutive segments.
    pub strain_per_segment: [f64; 3],
}

/// The declarative campaign: a name, a root seed, and the four matrix axes.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    pub name: String,
    /// Root seed; each cell derives its own with SplitMix64.
    pub seed: u64,
    /// Electronic smearing (eV) shared by every cell.
    pub electronic_kt: f64,
    pub structures: Vec<StructureCase>,
    pub perturbations: Vec<PerturbationCase>,
    pub protocols: Vec<ProtocolCase>,
    /// `(label, engine)` pairs.
    pub engines: Vec<(String, EngineKind)>,
}

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

fn label(v: &JsonValue, fallback: &str) -> String {
    v.get("label")
        .and_then(|s| s.as_str())
        .unwrap_or(fallback)
        .to_string()
}

fn vec3_field(v: &JsonValue, key: &str) -> Result<[f64; 3], String> {
    let arr = v
        .get(key)
        .and_then(|a| a.as_array())
        .ok_or_else(|| format!("{key} must be a 3-element array"))?;
    if arr.len() != 3 {
        return Err(format!("{key} must have exactly 3 elements"));
    }
    let mut out = [0.0; 3];
    for (slot, x) in out.iter_mut().zip(arr) {
        *slot = x.as_f64().ok_or_else(|| format!("{key} must be numeric"))?;
    }
    Ok(out)
}

fn parse_system(v: &JsonValue) -> Result<SystemSpec, String> {
    SystemSpec::parse(
        v.get("system").and_then(|s| s.as_str()).unwrap_or("si"),
        SimulationConfig::parse_count(v, "reps")?.unwrap_or(1),
    )
}

fn parse_perturbation(v: &JsonValue) -> Result<Perturbation, String> {
    match v.get("kind").and_then(|s| s.as_str()).unwrap_or("pristine") {
        "pristine" => Ok(Perturbation::Pristine),
        "vacancy" => Ok(Perturbation::Vacancy {
            site: SimulationConfig::parse_count(v, "site")?.unwrap_or(0),
        }),
        "interstitial" => Ok(Perturbation::Interstitial {
            frac: vec3_field(v, "frac")?,
        }),
        "disorder" => {
            let max_disp =
                num(v, "max_disp").ok_or_else(|| "disorder needs \"max_disp\" (Å)".to_string())?;
            Ok(Perturbation::Disorder { max_disp })
        }
        "strain" => Ok(Perturbation::Strain {
            strain: vec3_field(v, "strain")?,
        }),
        other => Err(format!("unknown perturbation kind {other:?}")),
    }
}

/// A protocol case's segment chain and its inter-segment strain. A quench
/// from `from_k` to `to_k` in `n` segments is `n` contiguous `NvtRamp`s of
/// equal span, each holding `hold_steps` at its target.
fn parse_protocol(v: &JsonValue) -> Result<(Vec<Protocol>, [f64; 3]), String> {
    let dt_fs = num(v, "dt_fs").unwrap_or(1.0);
    let tau_fs = num(v, "tau_fs").unwrap_or(50.0);
    let single = match v.get("kind").and_then(|s| s.as_str()).unwrap_or("nve") {
        "relax" => Protocol::Relax {
            force_tolerance: num(v, "force_tolerance").unwrap_or(1e-3),
            max_iterations: SimulationConfig::parse_count(v, "max_iterations")?.unwrap_or(200),
        },
        "nve" => Protocol::Nve {
            temperature_k: num(v, "temperature_k").unwrap_or(300.0),
            steps: SimulationConfig::parse_count(v, "steps")?.unwrap_or(10),
            dt_fs,
        },
        "nvt" => Protocol::Nvt {
            temperature_k: num(v, "temperature_k").unwrap_or(300.0),
            steps: SimulationConfig::parse_count(v, "steps")?.unwrap_or(10),
            dt_fs,
            tau_fs,
        },
        "quench" => {
            let from_k = num(v, "from_k").unwrap_or(800.0);
            let to_k = num(v, "to_k").unwrap_or(200.0);
            let n = SimulationConfig::parse_count(v, "segments")?
                .unwrap_or(2)
                .max(1);
            let rate_k_per_fs = num(v, "rate_k_per_fs").unwrap_or(10.0);
            let hold_steps = SimulationConfig::parse_count(v, "hold_steps")?.unwrap_or(5);
            let span = (to_k - from_k) / n as f64;
            let segments = (0..n)
                .map(|i| Protocol::NvtRamp {
                    from_k: from_k + span * i as f64,
                    to_k: from_k + span * (i + 1) as f64,
                    rate_k_per_fs,
                    hold_steps,
                    dt_fs,
                    tau_fs,
                })
                .collect();
            let strain_per_segment = match v.get("strain_per_segment") {
                Some(_) => vec3_field(v, "strain_per_segment")?,
                None => [0.0; 3],
            };
            return Ok((segments, strain_per_segment));
        }
        other => return Err(format!("unknown protocol kind {other:?}")),
    };
    Ok((vec![single], [0.0; 3]))
}

impl CampaignSpec {
    /// Parse a campaign from its JSON text. See DESIGN.md ("Campaign
    /// harness") for the schema; README has a runnable example.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let name = v
            .get("name")
            .and_then(|s| s.as_str())
            .unwrap_or("campaign")
            .to_string();
        let seed = SimulationConfig::parse_seed(v.get("seed"))?;
        let electronic_kt = num(&v, "electronic_kt").unwrap_or(0.1);
        SimulationConfig::check_non_negative("electronic_kt", electronic_kt)?;

        let mut structures = Vec::new();
        for (i, s) in v
            .get("structures")
            .and_then(|a| a.as_array())
            .ok_or_else(|| "spec needs a \"structures\" array".to_string())?
            .iter()
            .enumerate()
        {
            structures.push(StructureCase {
                label: label(s, &format!("s{i}")),
                system: parse_system(s)?,
            });
        }

        let mut perturbations = Vec::new();
        match v.get("perturbations").and_then(|a| a.as_array()) {
            Some(items) => {
                for (i, p) in items.iter().enumerate() {
                    perturbations.push(PerturbationCase {
                        label: label(p, &format!("p{i}")),
                        perturbation: parse_perturbation(p)?,
                    });
                }
            }
            None => perturbations.push(PerturbationCase {
                label: "pristine".to_string(),
                perturbation: Perturbation::Pristine,
            }),
        }

        let mut protocols = Vec::new();
        for (i, p) in v
            .get("protocols")
            .and_then(|a| a.as_array())
            .ok_or_else(|| "spec needs a \"protocols\" array".to_string())?
            .iter()
            .enumerate()
        {
            let (segments, strain_per_segment) = parse_protocol(p)?;
            for segment in &segments {
                segment.validate()?;
            }
            protocols.push(ProtocolCase {
                label: label(p, &format!("proto{i}")),
                segments,
                strain_per_segment,
            });
        }

        let mut engines = Vec::new();
        match v.get("engines").and_then(|a| a.as_array()) {
            Some(items) => {
                for e in items {
                    let s = e
                        .as_str()
                        .ok_or_else(|| "engines must be strings".to_string())?;
                    engines.push((s.to_string(), EngineKind::parse(s, None)?));
                }
            }
            None => engines.push(("serial".to_string(), EngineKind::Serial)),
        }

        if structures.is_empty() || protocols.is_empty() {
            return Err("campaign needs at least one structure and one protocol".to_string());
        }
        for case in &structures {
            for (_, engine) in &engines {
                engine.check_ranks(case.system.n_atoms())?;
            }
        }
        Ok(CampaignSpec {
            name,
            seed,
            electronic_kt,
            structures,
            perturbations,
            protocols,
            engines,
        })
    }

    /// Lay the matrix out as a deterministic cell list: structures outermost,
    /// engines innermost, each cell seeded by `derive_seed(seed, index)`.
    pub fn expand(&self) -> Vec<CellPlan> {
        let mut cells = Vec::new();
        for sc in &self.structures {
            for pc in &self.perturbations {
                for proto in &self.protocols {
                    for (engine_label, engine) in &self.engines {
                        let index = cells.len();
                        cells.push(CellPlan {
                            index,
                            name: format!(
                                "{}/{}/{}/{}",
                                sc.label, pc.label, proto.label, engine_label
                            ),
                            structure_label: sc.label.clone(),
                            perturbation_label: pc.label.clone(),
                            protocol_label: proto.label.clone(),
                            engine_label: engine_label.clone(),
                            system: sc.system,
                            perturbation: pc.perturbation,
                            segments: proto.segments.clone(),
                            strain_per_segment: proto.strain_per_segment,
                            engine: *engine,
                            electronic_kt: self.electronic_kt,
                            seed: derive_seed(self.seed, index as u64),
                        });
                    }
                }
            }
        }
        cells
    }
}

/// One fully-resolved cell of the expanded matrix.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// Position in the expanded matrix (also the seed-derivation stream).
    pub index: usize,
    /// `structure/perturbation/protocol/engine` labels joined with `/`.
    pub name: String,
    pub structure_label: String,
    pub perturbation_label: String,
    pub protocol_label: String,
    pub engine_label: String,
    pub system: SystemSpec,
    pub perturbation: Perturbation,
    /// The protocol case's segment chain and inter-segment strain.
    pub segments: Vec<Protocol>,
    pub strain_per_segment: [f64; 3],
    pub engine: EngineKind,
    pub electronic_kt: f64,
    /// Per-cell derived seed: velocities and stochastic perturbations.
    pub seed: u64,
}

impl CellPlan {
    /// Identity fingerprint of everything that determines this cell's
    /// physics — what a stored result file must match to be reused on
    /// resume. Wall-clock observables are deliberately outside it.
    pub fn fingerprint(&self) -> u64 {
        let canonical = format!(
            "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}",
            self.name,
            self.system,
            self.perturbation,
            self.segments,
            self.strain_per_segment,
            self.engine,
            self.electronic_kt,
            self.seed
        );
        tbmd_ckpt::fingerprint(canonical.as_bytes())
    }

    /// Whether this cell is a formation-energy reference.
    pub fn is_pristine(&self) -> bool {
        self.perturbation.is_pristine()
    }

    /// Build the starting structure: generate, then perturb. The error
    /// names the cell.
    pub fn build_initial(&self) -> Result<Structure, String> {
        let mut s = self.system.build(0.0, self.seed);
        self.perturbation
            .apply(&mut s, self.seed)
            .map_err(|e| format!("{}: {e}", self.name))?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "t",
        "seed": 7,
        "structures": [{"label": "si1", "system": "si", "reps": 1}],
        "perturbations": [
            {"label": "pristine", "kind": "pristine"},
            {"label": "vac0", "kind": "vacancy", "site": 0}
        ],
        "protocols": [
            {"label": "nve", "kind": "nve", "temperature_k": 300, "steps": 4},
            {"label": "q", "kind": "quench", "from_k": 600, "to_k": 200,
             "segments": 2, "rate_k_per_fs": 20, "hold_steps": 2}
        ],
        "engines": ["serial", "shared"]
    }"#;

    #[test]
    fn expands_full_matrix_deterministically() {
        let spec = CampaignSpec::from_json(SPEC).expect("parse");
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(
            a.len(),
            8,
            "1 structure × 2 perturbations × 2 protocols × 2 engines"
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.fingerprint(), y.fingerprint());
        }
        // Seeds differ between cells (SplitMix64 stream separation).
        assert_ne!(a[0].seed, a[1].seed);
    }

    #[test]
    fn quench_expands_to_ramp_segments() {
        let spec = CampaignSpec::from_json(SPEC).expect("parse");
        let cells = spec.expand();
        let quench = cells
            .iter()
            .find(|c| c.protocol_label == "q")
            .expect("quench cell");
        assert_eq!(quench.segments.len(), 2);
        assert!(matches!(
            quench.segments[0],
            Protocol::NvtRamp { from_k, .. } if (from_k - 600.0).abs() < 1e-9
        ));

        // An 800 → 300 K staircase in four segments: contiguous ramps of
        // equal span, each boundary `from_k + span·i` bit for bit.
        let staircase = CampaignSpec::from_json(
            r#"{"structures": [{"system": "si"}],
                "protocols": [{"kind": "quench", "from_k": 800, "to_k": 300,
                               "segments": 4, "rate_k_per_fs": 2.5,
                               "hold_steps": 10, "tau_fs": 40}]}"#,
        )
        .expect("parse");
        let case = &staircase.protocols[0];
        assert_eq!(case.segments.len(), 4);
        assert_eq!(case.strain_per_segment, [0.0; 3]);
        let span = (300.0 - 800.0) / 4.0;
        let mut previous_to = 800.0f64;
        for (i, segment) in case.segments.iter().enumerate() {
            let Protocol::NvtRamp {
                from_k,
                to_k,
                rate_k_per_fs,
                hold_steps,
                dt_fs,
                tau_fs,
            } = *segment
            else {
                panic!("segment {i} is {segment:?}");
            };
            assert_eq!(from_k.to_bits(), (800.0 + span * i as f64).to_bits());
            assert_eq!(to_k.to_bits(), (800.0 + span * (i + 1) as f64).to_bits());
            assert_eq!(from_k.to_bits(), previous_to.to_bits(), "segment {i}");
            assert_eq!(
                (rate_k_per_fs, hold_steps, dt_fs, tau_fs),
                (2.5, 10, 1.0, 40.0)
            );
            previous_to = to_k;
        }
        assert_eq!(previous_to, 300.0);
    }

    #[test]
    fn vacancy_cell_builds_one_fewer_atom() {
        let spec = CampaignSpec::from_json(SPEC).expect("parse");
        let cells = spec.expand();
        let pristine = cells.iter().find(|c| c.is_pristine()).unwrap();
        let vacancy = cells.iter().find(|c| !c.is_pristine()).unwrap();
        assert_eq!(
            vacancy.build_initial().unwrap().n_atoms() + 1,
            pristine.build_initial().unwrap().n_atoms()
        );
    }

    #[test]
    fn seed_parses_exactly_and_rejects_lossy_values() {
        let with_seed = |seed: &str| {
            format!(
                r#"{{"seed": {seed},
                    "structures": [{{"system": "si"}}],
                    "protocols": [{{"kind": "nve"}}]}}"#
            )
        };
        assert_eq!(CampaignSpec::from_json(&with_seed("7")).unwrap().seed, 7);
        assert_eq!(CampaignSpec::from_json(&with_seed("0")).unwrap().seed, 0);
        // Strings carry the full u64 range, decimal or hex.
        assert_eq!(
            CampaignSpec::from_json(&with_seed("\"0xDEADBEEFDEADBEEF\""))
                .unwrap()
                .seed,
            0xDEAD_BEEF_DEAD_BEEF
        );
        assert_eq!(
            CampaignSpec::from_json(&with_seed("\"18446744073709551615\""))
                .unwrap()
                .seed,
            u64::MAX
        );
        // Lossy numeric seeds are errors, never silent truncation: negative,
        // fractional, beyond the f64 exact-integer range, or junk strings.
        for bad in ["-1", "1.5", "18446744073709551616", "\"not-a-seed\""] {
            assert!(
                CampaignSpec::from_json(&with_seed(bad)).is_err(),
                "seed {bad} should be rejected"
            );
        }
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(CampaignSpec::from_json("{}").is_err());
        assert!(CampaignSpec::from_json("not json").is_err());
        assert!(CampaignSpec::from_json(
            r#"{"structures":[{"system":"unobtanium"}],"protocols":[{"kind":"nve"}]}"#
        )
        .is_err());
    }
}
