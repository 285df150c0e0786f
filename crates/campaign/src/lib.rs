//! # tbmd-campaign
//!
//! Declarative experiment-campaign runner over the `tbmd` session stack.
//!
//! A campaign is a JSON document describing a full factorial matrix of
//! **structure × perturbation × protocol × engine** cells — the shape of
//! the defect-energetics, quench and strain studies the tight-binding MD
//! papers of the early '90s ran by hand:
//!
//! ```text
//! {"name": "si-vacancy",
//!  "seed": 42,
//!  "structures":    [{"label": "si1", "system": "si", "reps": 1}],
//!  "perturbations": [{"label": "pristine", "kind": "pristine"},
//!                    {"label": "vac0", "kind": "vacancy", "site": 0}],
//!  "protocols":     [{"label": "relax", "kind": "relax"},
//!                    {"label": "quench", "kind": "quench", "from_k": 600,
//!                     "to_k": 200, "segments": 2, "rate_k_per_fs": 20,
//!                     "hold_steps": 4}],
//!  "engines":       ["serial"]}
//! ```
//!
//! Each protocol parses to a chain of core [`tbmd::Protocol`]s: `relax`,
//! `nve` and `nvt` to one segment, a `quench` to a staircase of `NvtRamp`s.
//! [`CampaignSpec::expand`] lays the matrix out as deterministic
//! [`CellPlan`]s — each with a SplitMix64-derived seed pinning its velocity
//! draws and stochastic perturbations — and [`run_campaign`] runs them as
//! [`tbmd::Session`]s through a `tbmd-serve` multiplexer. Its one input
//! besides the spec is an optional campaign directory: with one, any cell
//! whose fingerprinted result file already exists is skipped. The [`CampaignReport`]
//! compares cells: formation energies against the pristine reference,
//! conserved-energy drift, RDF first peaks, and step-latency percentiles.
//!
//! Determinism contract: re-running a campaign — same spec, any
//! interleaving of kills and resumes, any schedule — reproduces every
//! deterministic observable bit for bit. Wall-clock latency fields
//! are reported alongside but never fingerprinted.

pub mod report;
pub mod run;
pub mod spec;

pub use report::{CampaignReport, CellRow};
pub use run::{endpoint_fingerprint, run_campaign};
pub use spec::{
    CampaignSpec, CellPlan, Perturbation, PerturbationCase, ProtocolCase, StructureCase,
};
