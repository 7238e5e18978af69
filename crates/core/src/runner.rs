//! Glue between the algorithms and the simulator.

use dapsp_congest::{Config, NodeAlgorithm, NodeContext, Report, Simulator, Topology};

use crate::error::CoreError;

/// Runs `init`-constructed node algorithms over `topology` to quiescence
/// and returns the simulator's [`Report`] (per-node outputs plus
/// round/bit statistics).
///
/// This is the entry point every algorithm in this crate runs through;
/// it is public so downstream users can run custom CONGEST algorithms
/// over a [`Graph`](dapsp_graph::Graph)'s
/// [`to_topology`](dapsp_graph::Graph::to_topology). Multi-phase
/// algorithms (APSP = BFS + pebble walk, the approximations = dominating
/// set + S-SP, …) build the topology once and run every phase over it.
///
/// # Errors
///
/// Propagates simulator failures ([`CoreError::Sim`]) and rejects empty
/// topologies.
///
/// # Examples
///
/// ```
/// use dapsp_congest::{Config, Inbox, Message, NodeAlgorithm, NodeContext, Outbox};
/// use dapsp_core::run_algorithm_on;
/// use dapsp_graph::generators;
///
/// #[derive(Clone, Debug)]
/// struct Noop;
/// impl Message for Noop { fn bit_size(&self) -> u32 { 1 } }
///
/// struct Idle;
/// impl NodeAlgorithm for Idle {
///     type Message = Noop;
///     type Output = u32;
///     fn on_round(&mut self, _: &NodeContext<'_>, _: &Inbox<Noop>, _: &mut Outbox<Noop>) {}
///     fn into_output(self, ctx: &NodeContext<'_>) -> u32 { ctx.node_id() }
/// }
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let topology = generators::path(3).to_topology();
/// let report = run_algorithm_on(&topology, Config::for_n(3), |_| Idle)?;
/// assert_eq!(report.outputs, vec![0, 1, 2]);
/// # Ok(())
/// # }
/// ```
pub fn run_algorithm_on<A, F>(
    topology: &Topology,
    config: Config,
    init: F,
) -> Result<Report<A::Output>, CoreError>
where
    A: NodeAlgorithm + Send,
    A::Message: Send,
    F: FnMut(&NodeContext<'_>) -> A,
{
    if topology.num_nodes() == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let sim = Simulator::new(topology, config, init);
    sim.run().map_err(CoreError::from)
}

/// Folds a [`Report`]'s per-node outputs into one host-side accumulator:
/// `fold(&mut acc, node_id, output)` runs once per node, in node-id order.
///
/// Every algorithm module ends with this step — turning `n` per-node
/// outputs into a result struct (a distance matrix, a tree, a candidate
/// minimum). Naming the step keeps the per-module code to just the
/// folding closure.
pub fn fold_outputs<O, S, F>(outputs: Vec<O>, seed: S, mut fold: F) -> S
where
    F: FnMut(&mut S, u32, O),
{
    let mut acc = seed;
    for (v, out) in outputs.into_iter().enumerate() {
        fold(&mut acc, v as u32, out);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_congest::{Inbox, Message, Outbox};
    use dapsp_graph::Graph;

    #[derive(Clone, Debug)]
    struct Noop;
    impl Message for Noop {
        fn bit_size(&self) -> u32 {
            1
        }
    }
    struct Idle;
    impl NodeAlgorithm for Idle {
        type Message = Noop;
        type Output = ();
        fn on_round(&mut self, _: &NodeContext<'_>, _: &Inbox<Noop>, _: &mut Outbox<Noop>) {}
        fn into_output(self, _: &NodeContext<'_>) {}
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = Graph::builder(0).build();
        let err = run_algorithm_on(&g.to_topology(), Config::for_n(1), |_| Idle).unwrap_err();
        assert_eq!(err, CoreError::EmptyGraph);
    }

    #[test]
    fn fold_outputs_visits_every_node_in_order() {
        let visited = fold_outputs(vec![10u32, 20, 30], Vec::new(), |acc, v, out| {
            acc.push((v, out));
        });
        assert_eq!(visited, vec![(0, 10), (1, 20), (2, 30)]);
    }
}
