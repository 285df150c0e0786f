//! `tbmd-report` — the reconstructed SC'94 evaluation suite (DESIGN.md
//! § Experiment index) from one registry of experiments.
//!
//! ```text
//! tbmd-report <id|name> [size]       one experiment as markdown
//! tbmd-report all > EXPERIMENTS.md   the whole document
//! tbmd-report check                  the timing gates CI runs
//! ```
//!
//! `size` scales an experiment that takes one (its function's doc says
//! what it counts); `all` runs every experiment at its default. What a
//! table shows about values is asserted by `cargo test`; `check` holds only
//! what a test cannot, ratios of wall times.

mod check;
mod dynamics;
mod linscale;
mod parallel;
mod physics;
mod pipeline;
mod report;
mod service;

use std::io::{self, Write};
use std::time::Instant;

use report::Report;

/// One experiment of the suite.
struct Experiment {
    /// Id from DESIGN.md § Experiment index.
    id: &'static str,
    /// Command-line name.
    name: &'static str,
    /// The shape the measurement is expected to have, printed above it.
    expected: &'static str,
    /// The experiment at a size (`None`: its default).
    run: fn(Option<usize>) -> Report,
}

/// Every experiment, in document order.
const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "T1",
        name: "phase-breakdown",
        expected: "Diagonalization is O(N³) and its share of the step grows with N until it \
                   dominates — the observation behind both the parallel eigensolvers and the \
                   O(N) methods. The distributed engine has the same shape per rank.",
        run: pipeline::phase_breakdown,
    },
    Experiment {
        id: "T2",
        name: "speedup",
        expected: "Efficiency falls monotonically with P and |ΔE| stays at round-off. Every \
                   rank repeats the tridiagonalization, so the speedup saturates (Amdahl) \
                   instead of staying near-linear as a fully distributed solve would.",
        run: parallel::speedup,
    },
    Experiment {
        id: "F1",
        name: "scaled-speedup",
        expected: "No dense engine scales isogranularly: per-rank work grows as (N/P)·N², so \
                   the time per step rises with P while communication stays a small fraction \
                   — the wall the O(N) methods broke (F5, F8).",
        run: parallel::scaled_speedup,
    },
    Experiment {
        id: "F2",
        name: "comm-model",
        expected: "The communication fraction grows with P on every machine and is largest on \
                   the thinnest networks (Delta, CM-5); the measured wire bytes equal the cost \
                   model's formula.",
        run: parallel::comm_model,
    },
    Experiment {
        id: "F3",
        name: "energy-conservation",
        expected: "Velocity Verlet is symplectic: the peak |ΔE| grows as Δt² (×4 per doubling) \
                   and the secular drift stays below it — 1 fs is a safe step for Si.",
        run: dynamics::energy_conservation,
    },
    Experiment {
        id: "T3",
        name: "nvt",
        expected: "The mean temperature lands near the target within the fluctuation of a \
                   short run; the extended-system conserved quantity stays flat to about one \
                   part in 10⁴ for Si — the era's published criterion — and loosens for the \
                   hottest C₆₀.",
        run: dynamics::nvt,
    },
    Experiment {
        id: "T4b",
        name: "eigensolvers",
        expected: "Residuals, orthogonality and the gap to the QL spectrum are at round-off for \
                   both solvers; the one-stage solve is faster on small matrices and the partial \
                   solve on large ones: random matrices cross near 48, Si Hamiltonians (whose \
                   degenerate clusters the partial path iterates together) between 64 and \
                   `TWO_STAGE_MIN_DIM` = 96.",
        run: pipeline::eigensolvers,
    },
    Experiment {
        id: "T5",
        name: "model-validation",
        expected: "Bulk bond lengths within a few percent of the geometries the models were fit \
                   to; graphene and diamond nearly degenerate for carbon; a rattled C₆₀ relaxes \
                   back to a fully 3-coordinated cage.",
        run: physics::model_validation,
    },
    Experiment {
        id: "F4",
        name: "melting",
        expected: "Sharp diamond shells with empty valleys at 300 K; at 3000 K the second shell \
                   collapses and the valleys fill while the first peak survives — the \
                   short-range order of liquid Si.",
        run: dynamics::melting,
    },
    Experiment {
        id: "F5",
        name: "linear-scaling",
        expected: "The error falls spectrally with the order and steadily with the radius; \
                   multiply-adds per atom stay flat with N (the O(N) signature) while dense \
                   time grows as N³, so the O(N) engine overtakes it at a few hundred atoms.",
        run: linscale::linear_scaling,
    },
    Experiment {
        id: "F6",
        name: "applications",
        expected: "The dense engine gives the same energy at both lease widths and the \
                   distributed one agrees to round-off; the O(N) per-atom error is far larger \
                   than for gapped Si — near-metallic π systems are the domain boundary of \
                   Fermi-operator truncation.",
        run: linscale::applications,
    },
    Experiment {
        id: "F7",
        name: "bands",
        expected: "A Si valence band 12–14 eV wide with a gap of the right order; graphene's \
                   π gap closes at the Dirac point K and only there; the Si-64 DOS shows the \
                   valence lobes and the gap.",
        run: physics::bands,
    },
    Experiment {
        id: "F8",
        name: "on-scaling",
        expected: "At fixed atoms per rank the dense time rises steeply with P while the O(N) \
                   time grows far more slowly — linear-scaling methods restore weak scaling.",
        run: parallel::on_scaling,
    },
    Experiment {
        id: "A1",
        name: "ablation",
        expected: "(a) Fermi smearing conserves energy as well as zero-temperature filling and \
                   keeps forces continuous through level crossings, hence the MD default. \
                   (b) The one linked-cell search beats the O(N²) image sum from N = 64 on, \
                   by a factor that grows with N, at the list's and the O(N) regions' radii.",
        run: dynamics::ablation,
    },
    Experiment {
        id: "D1",
        name: "vacancy",
        expected: "A formation energy of a few eV (DFT and experiment: 3.5–4 eV), lowered by \
                   relaxation, with the vacancy's four neighbours left 3-coordinated.",
        run: physics::vacancy,
    },
    Experiment {
        id: "K1",
        name: "kernels",
        expected: "The tiled kernels beat the textbook loops at every size, GEMM by an order of \
                   magnitude; the back-transform runs at tiled-GEMM rates, the bond-block \
                   density below them; the block Chebyshev step reads a fraction of one \
                   thread's fused multiply-add peak.",
        run: pipeline::kernels,
    },
    Experiment {
        id: "S1",
        name: "checkpoint",
        expected: "A snapshot is a few KiB written in about a millisecond, so one per 100 steps \
                   costs under 1 % of the steps from Si-64 up; a rank kill costs one rewind to \
                   the last snapshot.",
        run: service::checkpoint,
    },
    Experiment {
        id: "S2",
        name: "serve",
        expected: "Interleaving changes when steps run, not how fast: round-robin keeps about \
                   the sequential rate. The service runs its admitted tenants side by side, so \
                   with two free cores it beats the sequential wall, and it never admits more \
                   tenants than its budget. Small jobs behind a large one take turns on the \
                   thread the large one leaves free, in time slices: they finish within 2× of \
                   their time alone, before the large one.",
        run: service::serve,
    },
    Experiment {
        id: "S3",
        name: "telemetry",
        expected: "An observed session runs within a few percent of an unobserved one, and each \
                   phase histogram holds one sample per force evaluation.",
        run: service::telemetry,
    },
    Experiment {
        id: "S4",
        name: "campaign",
        expected: "Every cell finishes; vacancy cells carry a formation energy against their \
                   pristine twin, and every cell reports its step-latency percentiles.",
        run: service::campaign,
    },
];

/// The experiment whose id (any case) or name is `key`.
fn lookup(key: &str) -> Result<&'static Experiment, String> {
    REGISTRY
        .iter()
        .find(|e| e.id.eq_ignore_ascii_case(key) || e.name == key)
        .ok_or_else(|| {
            let valid: Vec<String> = REGISTRY
                .iter()
                .map(|e| format!("{} ({})", e.id, e.name))
                .collect();
            format!("unknown experiment `{key}`; valid: {}", valid.join(", "))
        })
}

/// The commit and host a measurement was made on.
fn stamp() -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".into());
    format!(
        "commit `{}`, {threads} threads, {cpu}",
        tbmd::trace::git_describe()
    )
}

/// Run `e` and write its section.
fn write_section(e: &Experiment, size: Option<usize>, out: &mut dyn Write) -> io::Result<()> {
    let t0 = Instant::now();
    let report = (e.run)(size);
    writeln!(
        out,
        "## {} `{}`\n\nExpected: {}\n\n{}\n_{:.2} s; `cargo run --release -p tbmd-bench -- {}`._\n",
        e.id,
        e.name,
        e.expected,
        report.markdown(),
        t0.elapsed().as_secs_f64(),
        e.id,
    )
}

const PREAMBLE: &str = "\
Every table below is measured by the code at the commit named above. \
Wall-clock columns are this host's; the distributed columns of T2, F1, F2 and \
F8 are the message-passing engines' measured flops and traffic priced on an \
era machine model (DESIGN.md § Small host and the scaling methodology). A \
second run changes only timing columns. Each section ends with its wall time \
and the command that regenerates it; `size` scales the experiments that take \
one.
";

const HELD_BY_TESTS: &str = "\
## Held by tests

What is better asserted than tabulated is asserted by `cargo test \
--workspace`; the tests hold those numbers, not this document.

* Vibrational analysis: the finite-difference dynamical matrix of periodic Si \
  has exactly its translational zero modes, the Si dimer its translational and \
  rotational ones, and the stretch lands in the physical window \
  (`crates/md/src/phonons.rs`: `crystal_translations_are_zero_modes`, \
  `dimer_has_one_stretch_mode`, `vibrational_dos_counts_modes`).
* Hellmann–Feynman forces are −∇E (`crates/model/src/calculator.rs`: \
  `forces_match_energy_gradient_si_bulk`, \
  `forces_match_energy_gradient_carbon_cluster`, \
  `forces_match_gradient_zero_temperature_gapped`).
* The engines agree with each other on energies, forces and trajectories \
  (`tests/full_pipeline.rs`, `tests/solver_equivalence.rs`, \
  `tests/engine_contracts.rs`, \
  `tests/physics_invariants.rs::distributed_engine_matches_serial_on_random_cells`).
* Energies are invariant under translation and rotation, forces sum to zero \
  and clusters feel no torque (`tests/physics_invariants.rs`); eigensolver \
  residual, orthogonality, trace and Frobenius norm hold under proptest \
  (`crates/linalg/tests/proptests.rs`).
* The Nosé–Hoover conserved quantity, Maxwell–Boltzmann sampling, linked-cell \
  ≡ brute-force neighbour lists and nanotube topology have unit tests in \
  `crates/md` and `crates/structure`.
* Resume, recovery and multiplexing are bitwise: \
  `tests/checkpoint_restart.rs`, `tests/elastic_recovery.rs`, \
  `tests/session_multiplex.rs`, `tests/campaign.rs` and the `tbmd-serve` \
  unit tests.

## Era-number caveat

Absolute 1994 numbers (seconds on a 512-node Paragon) cannot be reproduced \
without the machine. The reproduction targets the shapes above; the cost \
model's seconds are order-of-magnitude era estimates computed from measured \
algorithm traffic.
";

/// The whole document: every experiment in `experiments`, in order,
/// between a stamped preamble and the sections no experiment generates.
fn write_document(experiments: &[Experiment], out: &mut dyn Write) -> io::Result<()> {
    let t0 = Instant::now();
    writeln!(
        out,
        "# EXPERIMENTS — the reconstructed SC'94 evaluation suite\n\n\
         Generated by `cargo run --release -p tbmd-bench -- all > EXPERIMENTS.md` at {}.\n\n\
         {PREAMBLE}",
        stamp()
    )?;
    for e in experiments {
        write_section(e, None, out)?;
    }
    writeln!(
        out,
        "{HELD_BY_TESTS}\n_All {} experiments: {:.0} s._",
        experiments.len(),
        t0.elapsed().as_secs_f64()
    )
}

const USAGE: &str = "usage: tbmd-report <id|name> [size] | all | check";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut stdout = io::stdout().lock();
    let written = match args[..] {
        ["all"] => write_document(REGISTRY, &mut stdout),
        ["check"] => {
            if !check::run() {
                std::process::exit(1);
            }
            Ok(())
        }
        [key] | [key, _] => {
            let size = match args.get(1).map(|s| s.parse()).transpose() {
                Ok(size) => size,
                Err(e) => fail(&format!("size: {e}")),
            };
            let e = lookup(key).unwrap_or_else(|e| fail(&e));
            writeln!(stdout, "_{}._\n", stamp()).and_then(|()| write_section(e, size, &mut stdout))
        }
        _ => fail("expected one command"),
    };
    written.expect("write to stdout");
}

fn fail(message: &str) -> ! {
    eprintln!("tbmd-report: {message}\n{USAGE}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_names_are_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert!(!a.id.eq_ignore_ascii_case(b.id), "id {}", a.id);
                assert_ne!(a.name, b.name);
                assert!(!a.id.eq_ignore_ascii_case(b.name) && !b.id.eq_ignore_ascii_case(a.name));
            }
        }
    }

    #[test]
    fn lookup_takes_an_id_or_a_name() {
        for e in REGISTRY {
            assert_eq!(lookup(e.id).unwrap().id, e.id);
            assert_eq!(lookup(&e.id.to_lowercase()).unwrap().id, e.id);
            assert_eq!(lookup(e.name).unwrap().id, e.id);
        }
    }

    #[test]
    fn an_unknown_id_is_an_error_listing_the_valid_ids() {
        let err = lookup("T9").err().expect("no experiment T9");
        assert!(err.contains("`T9`"), "{err}");
        for e in REGISTRY {
            assert!(err.contains(e.id), "{err} lacks {}", e.id);
        }
    }

    fn one_table(title: &str) -> Report {
        let mut table = report::Table::new(title, &["x"]);
        table.row(vec!["1".into()]);
        let mut r = Report::default();
        r.table(table);
        r
    }

    #[test]
    fn all_follows_registry_order() {
        let fake = [
            Experiment {
                id: "Z2",
                name: "second",
                expected: "",
                run: |_| one_table("B"),
            },
            Experiment {
                id: "Z1",
                name: "first",
                expected: "",
                run: |_| one_table("A"),
            },
        ];
        let mut out = Vec::new();
        write_document(&fake, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let headings: Vec<&str> = text.lines().filter(|l| l.starts_with("## ")).collect();
        assert_eq!(
            headings,
            [
                "## Z2 `second`",
                "## Z1 `first`",
                "## Held by tests",
                "## Era-number caveat"
            ]
        );
        assert!(text.find("**B**").unwrap() < text.find("**A**").unwrap());
        assert!(text.trim_end().ends_with("_All 2 experiments: 0 s._"));
    }
}
