//! # dapsp — distributed all-pairs shortest paths in the CONGEST model
//!
//! A facade crate re-exporting the full reproduction of Holzer & Wattenhofer,
//! *Optimal Distributed All Pairs Shortest Paths and Applications* (PODC
//! 2012):
//!
//! * [`congest`] — the synchronous CONGEST-model simulator substrate,
//! * [`graph`] — graph types, generators, lower-bound families, and
//!   centralized reference algorithms,
//! * [`core`] — the paper's algorithms: `O(n)` APSP (Algorithm 1),
//!   `O(|S|+D)` S-SP (Algorithm 2), diameter/radius/eccentricity/center/
//!   peripheral/girth exact and approximate solvers, and the 2-vs-4
//!   distinguisher (Algorithm 3),
//! * [`baselines`] — distance-vector, link-state, and unpipelined
//!   BFS-per-node comparison algorithms,
//! * [`serve`] — routing tables as a service: the computation's results
//!   compacted into immutable snapshots and served to concurrent readers
//!   through atomic swaps, with churn-driven republishes.
//!
//! # Quickstart
//!
//! ```
//! use dapsp::core::{apsp, Obs};
//! use dapsp::graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = generators::cycle(8);
//! let result = apsp::run_on_obs(&graph.to_topology(), Obs::none())?;
//! assert_eq!(result.distances.get(0, 4), Some(4));
//! println!("APSP finished in {} rounds", result.stats.rounds);
//! # Ok(())
//! # }
//! ```

pub use dapsp_baselines as baselines;
pub use dapsp_congest as congest;
pub use dapsp_core as core;
pub use dapsp_graph as graph;
pub use dapsp_serve as serve;
