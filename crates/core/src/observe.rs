//! Threading one [`ObserverHandle`] through multi-phase pipelines.
//!
//! Every algorithm in this crate is a sequence of simulator runs (a BFS,
//! some aggregations, a main phase, …). To observe a *pipeline* rather
//! than a single run, the same handle must reach every [`Config`] the
//! pipeline builds, each labeled with a phase name so the recorded metric
//! stream attributes rounds to phases (`"bfs"`, `"agg:max"`,
//! `"apsp:waves"`, …).
//!
//! [`Obs`] is that plumbing: a `Copy` wrapper around an optional borrowed
//! handle. Internal phase functions take an `Obs<'_>` parameter;
//! [`Obs::none`] keeps the unobserved call sites zero-cost (a `None`
//! branch), and the public `run_observed` entry points construct
//! [`Obs::watching`] from a caller's handle.
//!
//! # Examples
//!
//! ```
//! use dapsp_congest::{MetricsRecorder, SharedObserver};
//! use dapsp_core::apsp;
//! use dapsp_graph::generators;
//!
//! # fn main() -> Result<(), dapsp_core::CoreError> {
//! let recorder = SharedObserver::new(MetricsRecorder::new());
//! let result = apsp::run_observed(&generators::path(6), &recorder.observer())?;
//! let phases: Vec<String> = recorder.with(|r| {
//!     r.stream().iter().map(|row| row.phase.to_string()).collect()
//! });
//! assert!(phases.contains(&"bfs".to_string()));
//! assert!(phases.contains(&"apsp:waves".to_string()));
//! assert_eq!(result.stats.messages, recorder.with(|r| {
//!     r.stream().iter().map(|row| row.messages).sum::<u64>()
//! }));
//! # Ok(())
//! # }
//! ```

use dapsp_congest::{Config, ExecutorKind, ObserverHandle, TraceEvent, TransportSummary};

/// An optional, borrowed observer to attach to each phase of a pipeline,
/// plus the round-engine executor every phase should run on.
///
/// `Copy`, so phase functions pass it along by value; the handle inside is
/// only cloned (an `Arc` bump) at the moment a phase actually attaches it
/// to a [`Config`].
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
}

impl<'a> Obs<'a> {
    /// Nobody is watching: [`apply`](Self::apply) returns configs
    /// untouched (not even the phase label is set, keeping unobserved
    /// runs identical to pre-observer behavior).
    pub fn none() -> Self {
        Obs {
            handle: None,
            executor: ExecutorKind::Serial,
        }
    }

    /// Attach `handle` to every phase config this `Obs` is applied to.
    pub fn watching(handle: &'a ObserverHandle) -> Self {
        Obs {
            handle: Some(handle),
            executor: ExecutorKind::Serial,
        }
    }

    /// Run every phase this `Obs` is applied to on `executor` (default
    /// [`ExecutorKind::Serial`], which leaves configs untouched).
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// The executor phases will run on.
    pub fn executor(&self) -> ExecutorKind {
        self.executor
    }

    /// Whether an observer is attached.
    pub fn is_watching(&self) -> bool {
        self.handle.is_some()
    }

    /// Reports a reliable phase's aggregated transport counters to the
    /// attached observer as one [`TraceEvent::Transport`] (a no-op when
    /// nobody is watching). Called by the `run_faulty` entry points after
    /// folding the per-node `RelStats`, i.e. outside the engine, after
    /// that phase's `RunEnd`.
    pub fn report_transport(&self, summary: &TransportSummary) {
        if let Some(h) = self.handle {
            h.lock().on_event(&TraceEvent::Transport(*summary));
        }
    }

    /// Labels `config` with `phase`, attaches the observer, and selects
    /// the executor. When nobody is watching and the executor is the
    /// default serial one, `config` comes back unchanged.
    pub fn apply(&self, config: Config, phase: &str) -> Config {
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
    use dapsp_congest::{MetricsRecorder, SharedObserver};

    #[test]
    fn none_leaves_config_untouched() {
        let obs = Obs::none();
        assert!(!obs.is_watching());
        let config = obs.apply(Config::for_n(8), "bfs");
        assert!(config.observer.is_none());
        assert_eq!(config.phase, "");
        assert_eq!(config, Config::for_n(8));
    }

    #[test]
    fn watching_attaches_observer_and_phase() {
        let shared = SharedObserver::new(MetricsRecorder::new());
        let handle = shared.observer();
        let obs = Obs::watching(&handle);
        assert!(obs.is_watching());
        let config = obs.apply(Config::for_n(8), "apsp:waves");
        assert!(config.observer.is_some());
        assert_eq!(config.phase, "apsp:waves");
    }

    #[test]
    fn executor_rides_along_with_and_without_observer() {
        let pool = ExecutorKind::Pool { workers: 2 };
        let unwatched = Obs::none().with_executor(pool);
        assert_eq!(unwatched.executor(), pool);
        let config = unwatched.apply(Config::for_n(8), "bfs");
        assert_eq!(config.executor, pool);
        assert!(config.observer.is_none());

        let shared = SharedObserver::new(MetricsRecorder::new());
        let handle = shared.observer();
        let watched = Obs::watching(&handle).with_executor(pool);
        let config = watched.apply(Config::for_n(8), "bfs");
        assert_eq!(config.executor, pool);
        assert!(config.observer.is_some());
        // The default executor keeps unobserved configs byte-identical.
        assert_eq!(Obs::none().apply(Config::for_n(8), "x"), Config::for_n(8));
    }
}
