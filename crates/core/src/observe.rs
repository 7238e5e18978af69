//! Threading one per-run spec through multi-phase pipelines.
//!
//! Every algorithm in this crate is a sequence of simulator runs (a BFS,
//! some aggregations, a main phase, …). To observe a *pipeline* rather
//! than a single run, the same handle must reach every [`Config`] the
//! pipeline builds, each labeled with a phase name so the recorded event
//! stream attributes rounds to phases (`"bfs"`, `"agg:max"`,
//! `"apsp:waves"`, …); so must the executor and the fault adversary.
//!
//! [`Obs`] is that plumbing: a `Copy` spec of an optional borrowed handle,
//! the executor and an optional borrowed [`FaultPlan`], taken by every
//! pipeline's `run_on_obs`. [`Obs::none`] keeps plain call sites
//! zero-cost; with [`Obs::with_faults`] each phase runs on the reliable
//! transport of [`kernel`](crate::kernel) and returns the fault-free result.
//!
//! # Examples
//!
//! ```
//! use dapsp_congest::{PhaseProfiler, SharedObserver};
//! use dapsp_core::{apsp, Obs};
//! use dapsp_graph::generators;
//!
//! # fn main() -> Result<(), dapsp_core::CoreError> {
//! let profiler = SharedObserver::new(PhaseProfiler::new());
//! let handle = profiler.observer();
//! let topology = generators::path(6).to_topology();
//! let result = apsp::run_on_obs(&topology, Obs::watching(&handle))?;
//! profiler.with(|p| {
//!     let phases: Vec<&str> = p.profiles().iter().map(|run| run.phase.as_str()).collect();
//!     assert_eq!(phases, ["bfs", "apsp:waves"]);
//!     assert_eq!(p.total().messages, result.stats.messages);
//! });
//! # Ok(())
//! # }
//! ```

use dapsp_congest::{Config, ExecutorKind, FaultPlan, ObserverHandle};

/// How every phase of a pipeline runs: an optional, borrowed observer to
/// attach, the round-engine executor, and an optional fault adversary.
///
/// `Copy`, so phase functions pass it along by value; the handle inside is
/// only cloned (an `Arc` bump) at the moment a phase actually attaches it
/// to a [`Config`], and the plan only when a phase installs it.
///
/// The executor selection rides along because composite pipelines build
/// their `Config`s internally: [`Obs::with_executor`] is how a caller runs
/// every phase of, say, the APSP pipeline on the worker-pool executor.
/// Results are bit-for-bit identical for any executor (the engine's core
/// guarantee), so this is purely a wall-clock knob.
#[derive(Clone, Copy, Debug, Default)]
pub struct Obs<'a> {
    handle: Option<&'a ObserverHandle>,
    executor: ExecutorKind,
    faults: Option<&'a FaultPlan>,
}

impl<'a> Obs<'a> {
    /// Nobody is watching: every phase runs on the config it would run on
    /// without an `Obs` (not even the phase label is set), serially and
    /// over reliable links.
    pub fn none() -> Self {
        Obs::default()
    }

    /// Attach `handle` to every phase config this `Obs` is applied to.
    pub fn watching(handle: &'a ObserverHandle) -> Self {
        Obs {
            handle: Some(handle),
            ..Obs::default()
        }
    }

    /// Run every phase this `Obs` is applied to on `executor` (default
    /// [`ExecutorKind::Serial`], which leaves configs untouched).
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Runs every phase over links `faults` drops messages from, each
    /// wrapped in the reliable transport: results stay those of the
    /// fault-free run, phases report as `"{phase}:reliable"`, and the
    /// transport's counters land in the result's `stats.transport`.
    /// Every pipeline's phases run through the kernel layer, so every
    /// `run_on_obs` takes such an `Obs`.
    pub fn with_faults(mut self, faults: &'a FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The fault adversary phases run against, if any.
    pub(crate) fn faults(&self) -> Option<&'a FaultPlan> {
        self.faults
    }

    /// The attached observer, if any.
    pub(crate) fn observer(&self) -> Option<&'a ObserverHandle> {
        self.handle
    }

    /// Labels `config` with `phase`, attaches the observer, and selects
    /// the executor. When nobody is watching and the executor is the
    /// default serial one, `config` comes back unchanged.
    pub(crate) fn apply(&self, config: Config, phase: &str) -> Config {
        let config = match self.executor {
            ExecutorKind::Serial => config,
            other => config.with_executor(other),
        };
        match self.handle {
            Some(h) => config.with_observer(h.clone()).with_phase(phase),
            None => config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_congest::{PhaseProfiler, SharedObserver};

    #[test]
    fn none_leaves_config_untouched() {
        let obs = Obs::none();
        let config = obs.apply(Config::for_n(8), "bfs");
        assert!(config.observer.is_none());
        assert_eq!(config.phase, "");
        assert_eq!(config, Config::for_n(8));
    }

    #[test]
    fn watching_attaches_observer_and_phase() {
        let shared = SharedObserver::new(PhaseProfiler::new());
        let handle = shared.observer();
        let obs = Obs::watching(&handle);
        let config = obs.apply(Config::for_n(8), "apsp:waves");
        assert!(config.observer.is_some());
        assert_eq!(config.phase, "apsp:waves");
    }

    #[test]
    fn executor_rides_along_with_and_without_observer() {
        let pool = ExecutorKind::Pool { workers: 2 };
        let unwatched = Obs::none().with_executor(pool);
        let config = unwatched.apply(Config::for_n(8), "bfs");
        assert_eq!(config.executor, pool);
        assert!(config.observer.is_none());

        let shared = SharedObserver::new(PhaseProfiler::new());
        let handle = shared.observer();
        let watched = Obs::watching(&handle).with_executor(pool);
        let config = watched.apply(Config::for_n(8), "bfs");
        assert_eq!(config.executor, pool);
        assert!(config.observer.is_some());
        // The default executor keeps unobserved configs byte-identical.
        assert_eq!(Obs::none().apply(Config::for_n(8), "x"), Config::for_n(8));
    }
}
