//! # wishbone-core
//!
//! The Wishbone partitioner (NSDI 2009): given a profiled dataflow graph
//! and a platform model, compute the optimal split between the embedded
//! nodes and the server.
//!
//! There is one pipeline, specialised by topology: a
//! [`topology::Deployment`] tree of sites (motes, gateways, servers) goes
//! through [`topology::PreparedDeployment`] to a placement, either at one
//! rate ([`topology::PreparedDeployment::solve_at`]) or at the highest
//! sustainable one ([`rate_search::max_sustainable_rate_deployment`]).
//! The paper's node/server cut is the 2-site case
//! ([`topology::Deployment::binary`]), a tier hierarchy is a path
//! ([`topology::Deployment::chain`]), and §9's mixed network is a star.
//!
//! Inside (paper §3–§4):
//!
//! 1. [`cost_graph::pin_analysis`] — derive placement constraints from
//!    operator metadata (§2.1.1) with single-crossing propagation (§2.1.2);
//! 2. [`multitier::build_tiered_graph`] — attach profiled CPU fractions
//!    per site platform and on-air bandwidths per uplink as vertex/edge
//!    weights along each leaf's root path (§4);
//! 3. [`multitier::preprocess_tiered`] — merge data-expanding/neutral
//!    operators downstream, shrinking the ILP without losing optimality
//!    (§4.1);
//! 4. [`encodings::encode_deployment`] — one joint ILP with per-leaf
//!    monotone cuts and shared per-site CPU and per-uplink bandwidth rows
//!    (the restricted formulation of §4.2.1);
//! 5. [`topology::PreparedDeployment`] — solve with branch-and-bound
//!    (or the [`multilevel`] anytime heuristic) and decode;
//! 6. [`rate_search`] — §4.3's binary search when nothing fits;
//! 7. [`baselines`] — all-node / all-server / greedy / local-search /
//!    exhaustive comparators;
//! 8. [`audit`] — a static-analysis bridge: every encoder's output is
//!    checked against its implied [`wishbone_audit::ModelSpec`] under
//!    `debug_assertions`, so the whole test suite doubles as an audit
//!    corpus.
//!
//! The standalone encoders — [`encodings::encode`] (the binary
//! restricted and general formulations of §4.2.1) and
//! [`encodings::encode_multitier`] (chains) — are kept as oracles: the
//! parity tests pin the deployment encoding against them bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod baselines;
pub mod cost_graph;
pub mod drift;
pub mod encodings;
pub mod multilevel;
pub mod multitier;
pub mod partitioner;
pub mod preprocess;
pub mod rate_search;
pub mod shape;
pub mod topology;

pub use audit::{
    audit_binary, audit_deployment, audit_multitier, binary_spec, deployment_spec, multitier_spec,
};
pub use baselines::{
    all_node, all_server, evaluate, exhaustive, greedy, local_search, pipeline_cutpoints,
    CutMetrics,
};
pub use cost_graph::{
    build_partition_graph, pin_analysis, Mode, PEdge, PVertex, PartitionGraph, Pin, PinError,
};
pub use drift::drift_to_deltas;
pub use encodings::{
    encode, encode_deployment, encode_multitier, DeploymentObjective, EncodedDeployment,
    EncodedMultiTier, EncodedProblem, Encoding, LeafChain, ObjectiveConfig, TierObjective,
};
pub use multilevel::{approx_cut, partition_approx, ApproxCut};
pub use multitier::{
    build_tiered_graph, preprocess_tiered, LinkSpec, TEdge, TVertex, TieredGraph,
    TieredPreprocessResult,
};
pub use partitioner::PartitionError;
pub use preprocess::{preprocess, PreprocessResult};
pub use rate_search::{max_sustainable_rate_deployment, DeploymentRateResult, UnprovenRate};
pub use shape::{deltas_between, differing_sites, shape_key, ShapeKey};
pub use topology::{
    partition_deployment, Deployment, DeploymentConfig, DeploymentDelta, DeploymentPartition,
    LeafPartition, PlacementEngine, PreparedDeployment, RobustnessMode, Site, SiteId,
};
