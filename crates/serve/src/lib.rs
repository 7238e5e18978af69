//! Routing tables as a service: run the distributed computation once,
//! compact it into an immutable [`RouteTable`], and serve point lookups,
//! path reconstruction, and graph-metric queries from any number of
//! concurrent threads.
//!
//! The crate splits the classic control-plane/data-plane pair over the
//! `dapsp` stack:
//!
//! * **Data plane** — [`RouteTable`], the workspace's one routing-table
//!   type. It lives in [`dapsp_core::routing`] and is re-exported here
//!   unwrapped: one flat array of packed `hops | next hop` cells (plus
//!   eccentricities, centers, girth, and the producing run's
//!   [`TerminationCertificate`](dapsp_congest::TerminationCertificate)),
//!   immutable from construction. [`ServeHandle`] publishes tables by
//!   atomic snapshot swap: one brief read-lock per `load()`, lock-free
//!   queries on the loaded snapshot; a reader mid-batch keeps its snapshot
//!   alive and consistent no matter how many republishes happen meanwhile.
//! * **Control plane** — [`RouteService`]: owns the served topology,
//!   applies [`TopologyPlan`](dapsp_congest::TopologyPlan)s between runs
//!   (the plan edits the topology, then a cold distance vector runs once on
//!   the result, see [`RouteService::apply`]), and publishes each table as
//!   a new epoch.
//!   [`RouteService::spawn`] moves it onto a background thread driven
//!   through a [`RouteServiceController`], so recomputes never run on a
//!   reader thread.
//!
//! ```
//! use dapsp_congest::TopologyPlan;
//! use dapsp_graph::generators;
//! use dapsp_serve::RouteService;
//!
//! let g = generators::grid(3, 3);
//! let mut service = RouteService::build(&g)?;
//! let handle = service.handle(); // clone per reader thread
//! assert_eq!(handle.dist(0, 8), Some(4));
//! assert_eq!(handle.path(0, 8).unwrap().len(), 5);
//!
//! // A topology change republishes atomically; readers never block.
//! service.apply(&TopologyPlan::new().with_insert(2, 0, 8))?;
//! assert_eq!(handle.dist(0, 8), Some(1));
//! assert_eq!(handle.load().epoch(), 1);
//! # Ok::<(), dapsp_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod handle;
mod service;

pub use dapsp_core::routing::{RebuildPolicy, RouteTable};
pub use error::ServeError;
pub use handle::ServeHandle;
pub use service::{EpochTicket, RouteService, RouteServiceController};
