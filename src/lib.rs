//! # camelot — verifiable distributed batch evaluation
//!
//! Umbrella crate for the reproduction of *“How Proofs are Prepared at
//! Camelot”* (Björklund–Kaski, PODC 2016). Re-exports every workspace
//! crate under one namespace; see `README.md` at the repository root for
//! the architecture map and the per-experiment index.
//!
//! ## Example
//!
//! Count triangles with a byzantine-robust, independently verifiable
//! distributed proof:
//!
//! ```
//! use camelot::core::Engine;
//! use camelot::graph::{count_triangles, gen};
//! use camelot::triangles::TriangleCount;
//!
//! let graph = gen::gnm(16, 40, 7);
//! let problem = TriangleCount::new(&graph);
//! let outcome = Engine::sequential(8, 4).run(&problem)?;
//! assert_eq!(outcome.output, count_triangles(&graph));
//! assert!(outcome.certificate.identified_faulty_nodes.is_empty());
//! // The certificate is a static artefact anyone can re-verify:
//! let wire = outcome.certificate.to_wire();
//! let parsed = camelot::core::Certificate::from_wire(&wire)?;
//! assert_eq!(parsed, outcome.certificate);
//! # Ok::<(), camelot::core::CamelotError>(())
//! ```

pub use camelot_algebraic as algebraic;
pub use camelot_cliques as cliques;
pub use camelot_cluster as cluster;
pub use camelot_core as core;
pub use camelot_csp as csp;
pub use camelot_ff as ff;
pub use camelot_graph as graph;
pub use camelot_linalg as linalg;
pub use camelot_partition as partition;
pub use camelot_poly as poly;
pub use camelot_rscode as rscode;
pub use camelot_server as server;
pub use camelot_store as store;
pub use camelot_triangles as triangles;
