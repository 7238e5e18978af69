//! The write side: building the initial snapshot, applying topology
//! changes between runs, and (optionally) a background control-plane
//! thread that does both off the readers' path.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use dapsp_congest::{churned_topology, Topology, TopologyPlan};
use dapsp_core::apsp;
use dapsp_core::churned::graph_of;
use dapsp_core::routing::RouteTable;
use dapsp_core::{CoreError, Obs};
use dapsp_graph::Graph;

use crate::error::ServeError;
use crate::handle::ServeHandle;

/// The control plane of the serving layer: owns the live topology, runs
/// the distributed computation, and publishes [`RouteTable`] snapshots to
/// its [`ServeHandle`].
///
/// Use it synchronously — [`build`](Self::build), then
/// [`apply`](Self::apply) per topology change — or hand it to a
/// background thread with [`spawn`](Self::spawn) so recomputes never run
/// on a reader thread. Either way readers only ever see fully built
/// tables: a failed or invalid recompute leaves the previous snapshot in
/// service.
#[derive(Debug)]
pub struct RouteService {
    /// The served network, with a presence bit per node: a node a plan
    /// removed stays absent until a later plan re-joins it.
    topology: Topology,
    /// `topology` as a graph, absent nodes isolated.
    graph: Graph,
    epoch: u64,
    handle: ServeHandle,
}

impl RouteService {
    /// Runs the full distributed APSP on `graph` (serial executor) and
    /// publishes the epoch-0 snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Core`] when the run fails (empty or disconnected
    /// graph, round limit) or the graph has more nodes than a table's
    /// 16-bit cells can name ([`CoreError::TableTooLarge`], raised by the
    /// run's entry point before its first round or any `n²` allocation).
    pub fn build(graph: &Graph) -> Result<RouteService, ServeError> {
        let topology = graph.to_topology();
        let result = apsp::run_on_obs(&topology, Obs::none())?;
        let handle = ServeHandle::new(Arc::new(RouteTable::from_apsp(result, 0)));
        Ok(RouteService {
            topology,
            graph: graph.clone(),
            epoch: 0,
            handle,
        })
    }

    /// A handle for readers; clone it freely across threads.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// The epoch of the latest published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The graph the latest snapshot serves (a removed node as an
    /// isolated vertex).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Applies a topology change between runs: `plan` edits the served
    /// topology on the host, [`apsp::run_churned_on`] runs once on the
    /// result, and the table it compacts to is atomically published as
    /// epoch `+1`. Readers keep the old snapshot until the new one is fully
    /// built. A node the plan removes stays absent in later epochs until a
    /// later plan re-joins it.
    ///
    /// The rerun starts from nothing: no prior table is passed in, so the
    /// run is a cold `n`-slot distance vector on the post-change topology.
    /// Its cost is that of that run, not of the change; recomputing only
    /// the affected rows is open (ROADMAP.md item 3).
    ///
    /// # Errors
    ///
    /// [`ServeError::Core`] when the plan does not apply cleanly, the run
    /// fails, or its result cannot back a full routing table. The published
    /// snapshot and the service's topology are unchanged on error.
    pub fn apply(&mut self, plan: &TopologyPlan) -> Result<Arc<RouteTable>, ServeError> {
        let final_topo = churned_topology(&self.topology, plan).map_err(CoreError::from)?;
        let result = apsp::run_churned_on(&self.topology, plan, Obs::none())?;
        let table = Arc::new(RouteTable::from_churned(
            &result,
            &final_topo,
            self.epoch + 1,
        )?);
        self.graph = graph_of(&final_topo);
        self.topology = final_topo;
        self.epoch += 1;
        self.handle.publish(Arc::clone(&table));
        Ok(table)
    }

    /// Moves the service onto a background control-plane thread. Readers
    /// keep querying their [`ServeHandle`]s throughout; topology changes
    /// are applied through the returned controller and published
    /// atomically when ready.
    pub fn spawn(self) -> RouteServiceController {
        let handle = self.handle();
        let (tx, rx) = channel::<Command>();
        let thread = std::thread::spawn(move || control_loop(self, rx));
        RouteServiceController {
            handle,
            tx,
            thread: Some(thread),
        }
    }
}

/// What the control-plane thread can be asked to do.
enum Command {
    /// Apply a plan; report the new epoch (or the error) back.
    Apply(TopologyPlan, Sender<Result<u64, ServeError>>),
    /// Exit the loop, handing the service back through the thread's
    /// return value.
    Stop,
}

fn control_loop(mut service: RouteService, rx: Receiver<Command>) -> RouteService {
    // A closed channel (controller dropped without shutdown) ends the
    // loop too — the thread never outlives its controller for long.
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Apply(plan, reply) => {
                let outcome = service.apply(&plan).map(|table| table.epoch());
                // A dropped ticket just means nobody is waiting.
                let _ = reply.send(outcome);
            }
            Command::Stop => break,
        }
    }
    service
}

/// A pending recompute on the control-plane thread; [`wait`](Self::wait)
/// blocks until the new snapshot is published (or the recompute fails).
#[derive(Debug)]
pub struct EpochTicket {
    rx: Receiver<Result<u64, ServeError>>,
}

impl EpochTicket {
    /// Blocks until the recompute finishes; returns the published epoch.
    ///
    /// # Errors
    ///
    /// The recompute's own error, or [`ServeError::ControlPlaneDown`] if
    /// the control-plane thread died before replying.
    pub fn wait(self) -> Result<u64, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ControlPlaneDown)?
    }
}

/// Owner handle for a spawned control-plane thread (see
/// [`RouteService::spawn`]).
///
/// Dropping the controller without calling
/// [`shutdown`](Self::shutdown) closes the command channel, which ends
/// the control loop; the last published snapshot keeps serving through
/// any outstanding [`ServeHandle`]s.
#[derive(Debug)]
pub struct RouteServiceController {
    handle: ServeHandle,
    tx: Sender<Command>,
    thread: Option<JoinHandle<RouteService>>,
}

impl RouteServiceController {
    /// A reader handle; clone it freely across threads.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Queues a topology change on the control-plane thread and returns
    /// immediately; readers see the new epoch once it is published.
    ///
    /// # Errors
    ///
    /// [`ServeError::ControlPlaneDown`] if the control-plane thread is
    /// gone.
    pub fn apply(&self, plan: TopologyPlan) -> Result<EpochTicket, ServeError> {
        let (reply, rx) = channel();
        self.tx
            .send(Command::Apply(plan, reply))
            .map_err(|_| ServeError::ControlPlaneDown)?;
        Ok(EpochTicket { rx })
    }

    /// [`apply`](Self::apply) + [`EpochTicket::wait`] in one call.
    ///
    /// # Errors
    ///
    /// Same as [`apply`](Self::apply) and [`EpochTicket::wait`].
    pub fn apply_wait(&self, plan: TopologyPlan) -> Result<u64, ServeError> {
        self.apply(plan)?.wait()
    }

    /// Stops the control-plane thread and hands the service back (e.g. to
    /// inspect the final graph, or to respawn later).
    ///
    /// # Errors
    ///
    /// [`ServeError::ControlPlaneDown`] if the control-plane thread
    /// panicked: the service it owned is lost, the last published snapshot
    /// keeps serving through outstanding [`ServeHandle`]s.
    pub fn shutdown(mut self) -> Result<RouteService, ServeError> {
        let _ = self.tx.send(Command::Stop);
        self.thread
            .take()
            .expect("shutdown runs at most once")
            .join()
            .map_err(|_| ServeError::ControlPlaneDown)
    }
}

impl Drop for RouteServiceController {
    fn drop(&mut self) {
        let _ = self.tx.send(Command::Stop);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_congest::Config;
    use dapsp_core::churned_graph;
    use dapsp_graph::{generators, reference, INFINITY};

    #[test]
    fn build_serves_the_oracle_distances() {
        let g = generators::grid(3, 3);
        let service = RouteService::build(&g).unwrap();
        let handle = service.handle();
        let oracle = reference::apsp(&g);
        for s in 0..9u32 {
            for d in 0..9u32 {
                assert_eq!(handle.dist(s, d), oracle.get(s, d));
            }
        }
        assert_eq!(handle.epoch(), 0);
    }

    #[test]
    fn build_refuses_a_graph_past_the_table_limit() {
        // 65 536 nodes: were the run or its n² result ever started, this
        // test would not finish.
        assert_eq!(
            RouteService::build(&generators::path(65_536)).unwrap_err(),
            ServeError::Core(CoreError::TableTooLarge { num_nodes: 65_536 })
        );
    }

    #[test]
    fn apply_republishes_the_mutated_graph() {
        let g = generators::cycle(8);
        let mut service = RouteService::build(&g).unwrap();
        let handle = service.handle();
        let before = handle.load();
        assert_eq!(before.dist(0, 4), Some(4));

        let plan = TopologyPlan::new().with_remove(2, 0, 1);
        let table = service.apply(&plan).unwrap();
        assert_eq!(table.epoch(), 1);
        // The cycle is now a path 1-2-...-7-0; going "the short way"
        // through the removed edge is gone.
        assert_eq!(handle.dist(0, 4), Some(4));
        assert_eq!(handle.dist(0, 1), Some(7));
        // The pre-swap snapshot is untouched.
        assert_eq!(before.dist(0, 1), Some(1));
        assert_eq!(before.epoch(), 0);

        let oracle = reference::apsp(&churned_graph(&g, &plan).unwrap());
        let now = handle.load();
        for s in 0..8u32 {
            for d in 0..8u32 {
                assert_eq!(now.dist(s, d), oracle.get(s, d), "d({s}, {d})");
            }
        }
        assert!(now.verify());
    }

    #[test]
    fn a_failed_apply_leaves_the_snapshot_in_service() {
        let g = generators::path(4);
        let mut service = RouteService::build(&g).unwrap();
        let handle = service.handle();
        // Removing a non-edge does not apply cleanly.
        let bad = TopologyPlan::new().with_remove(1, 0, 3);
        assert!(service.apply(&bad).is_err());
        assert_eq!(handle.epoch(), 0);
        assert_eq!(handle.dist(0, 3), Some(3));
        // And the service still works afterwards.
        let good = TopologyPlan::new().with_insert(1, 0, 3);
        service.apply(&good).unwrap();
        assert_eq!(handle.dist(0, 3), Some(1));
        assert_eq!(handle.epoch(), 1);
    }

    #[test]
    fn a_far_future_event_applies_like_a_round_one_event() {
        // A plan's rounds only order its events: none is too late.
        let g = generators::path(6);
        let limit = Config::for_n(6).max_rounds;
        let mut tables = Vec::new();
        for round in [1, limit + 1, u64::MAX] {
            let mut service = RouteService::build(&g).unwrap();
            let plan = TopologyPlan::new().with_remove(round, 0, 1);
            tables.push(service.apply(&plan).unwrap());
            assert_eq!(*service.graph(), churned_graph(&g, &plan).unwrap());
        }
        for t in &tables[1..] {
            assert_eq!(t.checksum(), tables[0].checksum());
            assert_eq!(t.stats(), tables[0].stats());
        }
        assert_eq!(tables[0].dist(0, 1), None);
    }

    #[test]
    fn a_late_invalid_event_is_rejected_like_an_early_one() {
        // The plan is validated as a whole before the run starts, so where
        // in time the bad event sits changes neither the error nor what
        // the service keeps: epoch, graph and snapshot are untouched.
        let g = generators::cycle(8);
        let mut service = RouteService::build(&g).unwrap();
        let handle = service.handle();
        let early = service
            .apply(&TopologyPlan::new().with_remove(1, 0, 4))
            .unwrap_err();
        let late = service
            .apply(
                &TopologyPlan::new()
                    .with_remove(2, 0, 1)
                    .with_remove(3_000_000, 0, 4),
            )
            .unwrap_err();
        assert_eq!(late, early);
        assert!(matches!(late, ServeError::Core(CoreError::Sim(_))));
        assert_eq!((service.epoch(), handle.epoch()), (0, 0));
        assert_eq!(*service.graph(), g);
        assert_eq!(handle.dist(0, 1), Some(1));
        let plan = TopologyPlan::new().with_remove(2, 0, 1);
        assert_eq!(service.apply(&plan).unwrap().epoch(), 1);
        assert_eq!(*service.graph(), churned_graph(&g, &plan).unwrap());
    }

    #[test]
    fn a_rejoined_node_is_served_again() {
        // Crash → edgeless re-join → edge back: the republished epoch must
        // be the original path again, node 3 present and routable, not a
        // table that lists 3 as present yet unreachable.
        let g = generators::path(4);
        let mut service = RouteService::build(&g).unwrap();
        let handle = service.handle();
        let plan = TopologyPlan::new()
            .with_crash(5, 3)
            .with_join(10, 3)
            .with_insert(12, 2, 3);
        let table = service.apply(&plan).unwrap();
        assert_eq!(*service.graph(), g);
        let oracle = reference::apsp(&g);
        for s in 0..4u32 {
            for d in 0..4u32 {
                assert_eq!(handle.dist(s, d), oracle.get(s, d), "d({s}, {d})");
            }
        }
        assert_eq!(handle.path(0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(handle.path(3, 0), Some(vec![3, 2, 1, 0]));
        assert_eq!(table.diameter(), Some(3));
        assert!(table.verify());
    }

    #[test]
    fn a_crashed_node_stays_absent_across_epochs() {
        // A node a plan removes is gone from every later epoch, not only
        // the next one: a later, unrelated plan must not bring it back as
        // a present, isolated node. Only a join does.
        let g = generators::cycle(5);
        let mut service = RouteService::build(&g).unwrap();
        let handle = service.handle();
        service
            .apply(&TopologyPlan::new().with_crash(1, 3))
            .unwrap();
        assert_eq!(handle.dist(3, 3), None);
        assert_eq!(handle.load().diameter(), Some(3));
        let table = service
            .apply(&TopologyPlan::new().with_insert(1, 0, 2))
            .unwrap();
        assert_eq!(handle.dist(3, 3), None);
        assert!(!table.is_present(3));
        assert_eq!(table.diameter(), Some(2));
        // Nothing can attach to the absent node until it joins.
        assert!(service
            .apply(&TopologyPlan::new().with_insert(1, 2, 3))
            .is_err());
        let table = service.apply(&TopologyPlan::new().with_join(1, 3)).unwrap();
        assert_eq!((handle.dist(3, 3), table.diameter()), (Some(0), None));
        let back = TopologyPlan::new()
            .with_insert(1, 2, 3)
            .with_insert(1, 3, 4);
        let table = service.apply(&back).unwrap();
        assert_eq!((handle.dist(3, 0), table.diameter()), (Some(2), Some(2)));
        assert_eq!(service.epoch(), 4);
    }

    #[test]
    fn severed_destinations_serve_none() {
        let g = generators::path(6);
        let mut service = RouteService::build(&g).unwrap();
        let handle = service.handle();
        service
            .apply(&TopologyPlan::new().with_remove(2, 2, 3))
            .unwrap();
        assert_eq!(handle.dist(0, 5), None);
        assert_eq!(handle.path(0, 5), None);
        assert_eq!(handle.dist(0, 2), Some(2));
        let t = handle.load();
        assert_eq!(t.diameter(), None, "severed graph has no diameter");
        assert!(t.centers().is_empty());
        assert_eq!(t.eccentricity(0), None);
        // Raw hops row still flags the unreachable half as INFINITY.
        assert_eq!(t.dist_batch(&[(0, 5), (0, 2)]), vec![None, Some(2)]);
        let _ = INFINITY; // imported for symmetry with sibling tests
    }

    #[test]
    fn spawned_control_plane_applies_and_hands_back() {
        let g = generators::grid(3, 3);
        let service = RouteService::build(&g).unwrap();
        let controller = service.spawn();
        let handle = controller.handle();

        let epoch = controller
            .apply_wait(TopologyPlan::new().with_remove(2, 0, 1))
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(handle.epoch(), 1);

        let ticket = controller
            .apply(TopologyPlan::new().with_insert(2, 0, 8))
            .unwrap();
        assert_eq!(ticket.wait().unwrap(), 2);
        assert_eq!(handle.dist(0, 8), Some(1));

        let service = controller.shutdown().unwrap();
        assert_eq!(service.epoch(), 2);
        // The handed-back service keeps serving the same table.
        assert_eq!(service.handle().epoch(), 2);
    }

    #[test]
    fn shutdown_reports_a_panicked_control_plane_as_a_typed_error() {
        let service = RouteService::build(&generators::cycle(5)).unwrap();
        let handle = service.handle();
        let (tx, _rx) = channel();
        let thread = std::thread::spawn(move || -> RouteService {
            let _owned = service;
            panic!("control plane poisoned on purpose");
        });
        let controller = RouteServiceController {
            handle: handle.clone(),
            tx,
            thread: Some(thread),
        };
        assert!(matches!(
            controller.shutdown(),
            Err(ServeError::ControlPlaneDown)
        ));
        assert_eq!(handle.dist(0, 2), Some(2), "the snapshot keeps serving");
    }

    #[test]
    fn controller_drop_stops_the_thread_but_not_the_snapshot() {
        let g = generators::cycle(5);
        let controller = RouteService::build(&g).unwrap().spawn();
        let handle = controller.handle();
        drop(controller);
        // The last snapshot keeps serving.
        assert_eq!(handle.dist(0, 2), Some(2));
    }
}
