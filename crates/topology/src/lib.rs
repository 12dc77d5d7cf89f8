//! Shared-bottleneck WAN graphs for the MFC reproduction.
//!
//! The paper's central inference hazard is mistaking congestion *somewhere
//! on the path* for a constraint *at the server* (§2.2.3 uses the 90th
//! percentile in the Large Object stage precisely to dodge shared wide-area
//! bottlenecks).  The pre-topology simulation could not even express that
//! hazard: the target's access link was the only shared network resource,
//! so every bandwidth bottleneck was by construction at the server.
//!
//! This crate adds the missing scenario space:
//!
//! * [`NetworkGraph`] — a flow-level graph of shared links with global
//!   max–min fair sharing, computed incrementally by per-link water-filling
//!   over routes that each keep their flows in one
//!   `mfc_simnet::FairShareSet` (the core `FluidLink` also runs on), so a
//!   10k-flow crowd over a multi-hop graph stays near O(E·log C);
//! * [`NaiveNetwork`] — the textbook progressive-filling algorithm kept as
//!   the one executable specification for every sharing model (graphs, and
//!   `FluidLink` through its one-link case) in the property tests;
//! * [`TopologySpec`] — serializable scenario descriptions (per-vantage-
//!   group transit links, optional backbone, cross traffic) that
//!   `mfc-webserver` instantiates in front of the target's access link and
//!   `mfc-core` uses to localize bottlenecks per vantage group.
//!
//! The crate only knows about links, routes and flows; the server model and
//! the MFC protocol live above it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod naive;
pub mod spec;

pub use graph::{LinkId, NetworkGraph, RouteId};
pub use naive::NaiveNetwork;
pub use spec::{BuiltTopology, TopologySpec, TransitSpec};
