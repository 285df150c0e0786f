//! # tbmd-structure
//!
//! Atomistic structure substrate for the `tbmd` workspace: chemical species,
//! periodic simulation cells, structure builders for the benchmark workloads
//! of 1990s tight-binding MD (diamond Si/C supercells, graphene sheets,
//! single-wall nanotubes, C₆₀), and O(N) neighbor lists with full
//! periodic-image support.

pub mod builders;
pub mod cell;
pub mod defects;
pub mod neighbors;
pub mod species;
pub mod structure;
pub mod vec3ext;
pub mod verlet_list;

pub use builders::{
    bulk_diamond, bulk_diamond_with_bond, diamond_lattice_constant, dimer, fullerene_c60,
    graphene_sheet, linear_chain, nanotube, nanotube_geometry, NanotubeGeometry,
};
pub use cell::Cell;
pub use defects::{apply_strain, displacement_disorder, insert_interstitial, make_vacancy};
pub use neighbors::{Neighbor, NeighborList};
pub use species::Species;
pub use structure::Structure;
pub use verlet_list::VerletNeighborList;
