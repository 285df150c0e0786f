//! Engine selection: one enum over every force engine in the workspace,
//! and the one parser of engine names both front ends share.

use crate::system::SystemSpec;
use tbmd_linscale::{DistributedLinearScalingTb, LinearScalingTb};
use tbmd_model::{
    ForceEvaluation, ForceProvider, OccupationScheme, TbCalculator, TbError, TbModel, Workspace,
    TWO_STAGE_MIN_DIM,
};
use tbmd_parallel::{DistributedTb, RankControl};
use tbmd_structure::Structure;

/// Which engine evaluates energies and forces.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EngineKind {
    /// The dense Γ-point calculator (two-stage eigensolver, one-stage QL
    /// below 96 orbitals), its fan-outs as wide as the compute lease it
    /// runs under.
    #[default]
    Serial,
    /// An alias of [`EngineKind::Serial`]: it builds the same engine. Kept
    /// because the benchmark package constructs it and compares parsed
    /// configs with it.
    Shared,
    /// Message-passing engine on `ranks` virtual ranks.
    Distributed { ranks: usize },
    /// O(N) Chebyshev engine with the given localization radius (Å) and
    /// expansion order.
    LinearScaling { r_loc: f64, order: usize },
    /// Message-passing O(N) engine (see DESIGN.md experiment F8).
    DistributedLinearScaling {
        ranks: usize,
        r_loc: f64,
        order: usize,
    },
}

impl EngineKind {
    /// Parse an engine name as the front ends spell it: `serial`, `shared`,
    /// or `distributed` with its rank count either as a `:N` suffix
    /// (`distributed:4`, the campaign form) or passed in `ranks` (the serve
    /// form's `"ranks"` field). The count defaults to 2 and is clamped to
    /// at least 1.
    pub fn parse(name: &str, ranks: Option<usize>) -> Result<EngineKind, String> {
        match (name, name.strip_prefix("distributed:")) {
            ("serial", _) => Ok(EngineKind::Serial),
            ("shared", _) => Ok(EngineKind::Shared),
            ("distributed", _) => Ok(EngineKind::Distributed {
                ranks: ranks.unwrap_or(2).max(1),
            }),
            (_, Some(n)) => match n.parse::<usize>() {
                Ok(ranks) => Ok(EngineKind::Distributed {
                    ranks: ranks.max(1),
                }),
                Err(_) => Err(format!("bad rank count in {name:?}")),
            },
            _ => Err(format!("unknown engine {name:?}")),
        }
    }

    /// Refuse more ranks than the system has `atoms`: each rank is a thread
    /// of every evaluation, and a rank gets at least one atom.
    pub fn check_ranks(&self, atoms: usize) -> Result<(), String> {
        match *self {
            EngineKind::Distributed { ranks }
            | EngineKind::DistributedLinearScaling { ranks, .. }
                if ranks > atoms =>
            {
                Err(format!(
                    "{ranks} ranks exceed the limit of one rank per atom ({atoms} atoms)"
                ))
            }
            _ => Ok(()),
        }
    }

    /// The threads a session of this engine leases when a front end asks
    /// for `requested`: one for a dense engine ([`EngineKind::Serial`],
    /// [`EngineKind::Shared`]) on fewer than [`TWO_STAGE_MIN_DIM`] orbitals,
    /// `requested` otherwise. Below that order the step's dominant stage is
    /// the serial one-stage eigensolver and the per-atom fan-outs of the H
    /// build and the forces save nothing, so a second thread would idle for
    /// the whole run; the dense pipeline is bitwise the same at every width.
    /// The orbitals are counted on `initial` when the session starts from it,
    /// else on `system`.
    pub fn useful_threads(
        &self,
        system: &SystemSpec,
        initial: Option<&Structure>,
        requested: usize,
    ) -> usize {
        let orbitals = initial.map_or_else(|| system.n_orbitals(), Structure::n_orbitals);
        match self {
            EngineKind::Serial | EngineKind::Shared if orbitals < TWO_STAGE_MIN_DIM => {
                requested.min(1)
            }
            _ => requested,
        }
    }
}

/// A constructed engine borrowing its model.
pub enum Engine<'m> {
    /// The dense pipeline.
    Dense(TbCalculator<'m>),
    Distributed(DistributedTb<'m>),
    LinearScaling(LinearScalingTb<'m>),
    DistributedLinearScaling(DistributedLinearScalingTb<'m>),
}

impl<'m> Engine<'m> {
    /// Build an engine of the requested kind over any tight-binding model,
    /// with the given electronic smearing (eV; 0 selects zero-temperature
    /// filling where the engine supports it).
    ///
    /// Accepts `&dyn TbModel`, so concrete references like
    /// `&GspTbModel` (what [`crate::SystemSpec::model`] returns) coerce at
    /// the call site.
    pub fn build(kind: EngineKind, model: &'m dyn TbModel, kt: f64) -> Engine<'m> {
        let occ = if kt > 0.0 {
            OccupationScheme::Fermi { kt }
        } else {
            OccupationScheme::ZeroTemperature
        };
        let linear_scaling = |r_loc, order| {
            LinearScalingTb::new(model)
                .with_r_loc(r_loc)
                .with_order(order)
                .with_kt(kt.max(0.05))
        };
        match kind {
            EngineKind::Serial | EngineKind::Shared => {
                Engine::Dense(TbCalculator::with_occupation(model, occ))
            }
            EngineKind::Distributed { ranks } => {
                Engine::Distributed(DistributedTb::new(model, ranks).with_occupation(occ))
            }
            EngineKind::LinearScaling { r_loc, order } => {
                Engine::LinearScaling(linear_scaling(r_loc, order))
            }
            EngineKind::DistributedLinearScaling {
                ranks,
                r_loc,
                order,
            } => Engine::DistributedLinearScaling(DistributedLinearScalingTb::new(
                linear_scaling(r_loc, order),
                ranks,
            )),
        }
    }

    /// The engine as a force provider.
    pub fn provider(&self) -> &(dyn ForceProvider + 'm) {
        match self {
            Engine::Dense(e) => e,
            Engine::Distributed(e) => e,
            Engine::LinearScaling(e) => e,
            Engine::DistributedLinearScaling(e) => e,
        }
    }

    /// The rank-control block (fault plans, failure-detection window,
    /// shrink/respawn, evaluation count) of an engine on virtual ranks;
    /// `None` for the engines that have no rank to kill.
    pub fn rank_control(&self) -> Option<&RankControl> {
        match self {
            Engine::Distributed(e) => Some(&e.ranks),
            Engine::DistributedLinearScaling(e) => Some(&e.ranks),
            Engine::Dense(_) | Engine::LinearScaling(_) => None,
        }
    }
}

impl ForceProvider for Engine<'_> {
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError> {
        self.provider().evaluate(s)
    }

    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        self.provider().evaluate_with(s, ws)
    }

    fn energy_only(&self, s: &Structure) -> Result<f64, TbError> {
        self.provider().energy_only(s)
    }

    fn provider_name(&self) -> &str {
        self.provider().provider_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbmd_model::silicon_gsp;
    use tbmd_structure::{bulk_diamond, Species};

    #[test]
    fn all_engines_agree_on_perfect_crystal() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let kinds = [
            EngineKind::Serial,
            EngineKind::Shared,
            EngineKind::Distributed { ranks: 2 },
        ];
        let reference = Engine::build(EngineKind::Serial, &model, 0.1)
            .evaluate(&s)
            .unwrap()
            .energy;
        for kind in kinds {
            let engine = Engine::build(kind, &model, 0.1);
            let e = engine.evaluate(&s).unwrap().energy;
            assert!((e - reference).abs() < 1e-6, "{kind:?}: {e} vs {reference}");
        }
    }

    #[test]
    fn linear_scaling_engine_close_on_mermin_free_energy() {
        // The O(N) engine computes the full Mermin free energy (band +
        // repulsive + entropy) from Chebyshev moments; at infinite r_loc and
        // high order it must match the dense-diagonalization serial result.
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let serial = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.3 });
        let r = serial.compute(&s).unwrap();
        let engine = Engine::build(
            EngineKind::LinearScaling {
                r_loc: f64::INFINITY,
                order: 400,
            },
            &model,
            0.3,
        );
        let e = engine.evaluate(&s).unwrap().energy;
        assert!((e - r.energy).abs() < 1e-2, "{e} vs {}", r.energy);
    }

    #[test]
    fn distributed_linear_scaling_kind() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let shared = Engine::build(
            EngineKind::LinearScaling {
                r_loc: 5.0,
                order: 120,
            },
            &model,
            0.3,
        );
        let dist = Engine::build(
            EngineKind::DistributedLinearScaling {
                ranks: 2,
                r_loc: 5.0,
                order: 120,
            },
            &model,
            0.3,
        );
        let a = shared.evaluate(&s).unwrap().energy;
        let b = dist.evaluate(&s).unwrap().energy;
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        assert_eq!(dist.provider_name(), "distributed-linear-scaling-tb");
    }

    #[test]
    fn engine_names_parse_in_both_wire_forms() {
        let parse = EngineKind::parse;
        assert_eq!(parse("serial", None), Ok(EngineKind::Serial));
        assert_eq!(parse("shared", Some(7)), Ok(EngineKind::Shared));
        // Serve form: the count comes alongside; campaign form: as a suffix.
        let dist = |ranks| Ok(EngineKind::Distributed { ranks });
        assert_eq!(parse("distributed", None), dist(2));
        assert_eq!(parse("distributed", Some(3)), dist(3));
        assert_eq!(parse("distributed", Some(0)), dist(1));
        assert_eq!(parse("distributed:4", None), dist(4));
        assert_eq!(parse("distributed:0", Some(3)), dist(1));
        assert!(parse("distributed:x", None)
            .unwrap_err()
            .contains("bad rank count"));
        for gone in ["shared-jacobi", "serial:2", "Serial", ""] {
            let err = parse(gone, None).unwrap_err();
            assert!(err.contains("unknown engine"), "{gone:?}: {err}");
        }
    }

    #[test]
    fn dense_engines_below_the_two_stage_floor_use_one_thread() {
        let si8 = SystemSpec::SiliconDiamond { reps: 1 };
        let si64 = SystemSpec::SiliconDiamond { reps: 2 };
        for dense in [EngineKind::Serial, EngineKind::Shared] {
            assert_eq!(dense.useful_threads(&si8, None, 2), 1);
            assert_eq!(dense.useful_threads(&si8, None, 1), 1);
            assert_eq!(dense.useful_threads(&si64, None, 2), 2);
            assert_eq!(dense.useful_threads(&SystemSpec::C60, None, 2), 2);
            // The starting state decides: a 24-atom cell (96 orbitals) is
            // at the floor, a 23-atom one below it, whatever the config says.
            let cell = bulk_diamond(Species::Silicon, 3, 1, 1);
            assert_eq!(dense.useful_threads(&si8, Some(&cell), 2), 2);
            let mut vacancy = cell.clone();
            tbmd_structure::make_vacancy(&mut vacancy, 0);
            assert_eq!(dense.useful_threads(&si64, Some(&vacancy), 2), 1);
        }
        let others = [
            EngineKind::Distributed { ranks: 2 },
            EngineKind::LinearScaling {
                r_loc: 5.0,
                order: 64,
            },
        ];
        for kind in others {
            assert_eq!(kind.useful_threads(&si8, None, 2), 2, "{kind:?}");
        }
    }

    #[test]
    fn default_kind_is_serial() {
        assert_eq!(EngineKind::default(), EngineKind::Serial);
    }

    #[test]
    fn engine_names() {
        let model = silicon_gsp();
        assert_eq!(
            Engine::build(EngineKind::Serial, &model, 0.1).provider_name(),
            "dense-tb"
        );
        assert_eq!(
            Engine::build(EngineKind::Shared, &model, 0.1).provider_name(),
            "dense-tb"
        );
        assert_eq!(
            Engine::build(EngineKind::Distributed { ranks: 2 }, &model, 0.1).provider_name(),
            "distributed-tb"
        );
        assert_eq!(
            Engine::build(
                EngineKind::LinearScaling {
                    r_loc: 5.0,
                    order: 64
                },
                &model,
                0.2
            )
            .provider_name(),
            "linear-scaling-tb"
        );
    }
}
