//! Distributed all-pairs shortest paths and applications in the CONGEST
//! model — a reproduction of Holzer & Wattenhofer, *Optimal Distributed All
//! Pairs Shortest Paths and Applications* (PODC 2012).
//!
//! All algorithms run on the [`dapsp_congest`] simulator, which enforces the
//! `B = Θ(log n)`-bit per-edge bandwidth, and report the exact number of
//! synchronous rounds used — the paper's complexity measure. A pipeline's
//! `run_on_obs` takes an [`Obs`] ([`observe`]): a live observer for every
//! phase's events, the executor, and a fault adversary, under which every
//! phase runs on the reliable transport of [`kernel`] and returns the
//! fault-free result.
//!
//! # What's here
//!
//! | Module | Paper reference | Rounds |
//! | --- | --- | --- |
//! | [`bfs`] | §4 (tree `T_1`), Claim 1 | `O(D)` |
//! | [`apsp`] | Algorithm 1, Theorem 1 | `O(n)` |
//! | [`ssp`] | Algorithm 2, Theorem 3 | `O(|S| + D)` |
//! | [`metrics`] | Lemmas 2–7 (ecc, diameter, radius, center, peripheral, girth) | `O(n)` |
//! | [`dominating`] | Lemma 10 (k-dominating set) | `O(D + k)` |
//! | [`approx`] | Theorem 4, Corollary 4, Theorem 5 | `O(n/D + D)`; girth `O(n/g + D log(D/g))` |
//! | [`two_vs_four`] | Algorithm 3, Theorem 7 | `O(√(n log n))` |
//! | [`three_halves`] | Corollary 1 | `O(min{D√n, n/D + D})` |
//!
//! # Quickstart
//!
//! ```
//! use dapsp_core::{apsp, Obs};
//! use dapsp_graph::generators;
//!
//! # fn main() -> Result<(), dapsp_core::CoreError> {
//! let g = generators::cycle(10);
//! let result = apsp::run_on_obs(&g.to_topology(), Obs::none())?;
//! assert_eq!(result.distances.get(0, 5), Some(5));
//! // Theorem 1: linear in n.
//! assert!(result.stats.rounds <= 4 * 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod aggregate;
pub mod approx;
pub mod apsp;
pub mod bfs;
pub mod churned;
pub mod dominating;
pub mod girth;
pub mod girth_approx;
pub mod kernel;
pub mod leader;
pub mod metrics;
pub mod observe;
pub mod routing;
pub mod ssp;
pub mod ssp_paper;
pub mod three_halves;
pub mod tree;
pub mod two_vs_four;

pub use churned::{churned_graph, ChurnedResult};
pub use error::CoreError;
pub use observe::Obs;
