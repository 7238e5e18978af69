//! [`ConvergecastKernel`]: aggregate up a rooted tree, broadcast the total
//! back down (Definition 6 / Lemmas 3–7).

use dapsp_congest::{NodeContext, Port, Width};

use super::protocol::{Protocol, Tx};
use crate::aggregate::AggOp;
use crate::tree::TreeKnowledge;

/// Messages of the convergecast: partial aggregates flowing up, the final
/// total flowing down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CastMsg {
    /// A partial aggregate, sent to the parent.
    Up(u64),
    /// The final total, broadcast toward the leaves.
    Down(u64),
}

/// The paper's "aggregate over `T_1` in `O(D)`" primitive as a kernel:
/// leaves push their value up, inner nodes combine one partial per child,
/// the root broadcasts the total down, and every node ends up knowing it.
pub struct ConvergecastKernel {
    op: AggOp,
    acc: u64,
    parent_port: Option<Port>,
    children_ports: Vec<Port>,
    missing_children: usize,
    /// Set once the node must push `acc` up (or, at the root, start the
    /// downward broadcast) at the round end.
    ready: bool,
    result: Option<u64>,
}

impl ConvergecastKernel {
    /// Aggregates `value` (this node's contribution) over `tree` with `op`.
    pub fn new(ctx: &NodeContext<'_>, tree: &TreeKnowledge, value: u64, op: AggOp) -> Self {
        let v = ctx.node_id() as usize;
        ConvergecastKernel {
            op,
            acc: value,
            parent_port: tree.parent_port[v],
            children_ports: tree.children_ports[v].clone(),
            missing_children: tree.children_ports[v].len(),
            ready: false,
            result: None,
        }
    }
}

impl Protocol for ConvergecastKernel {
    type Payload = CastMsg;
    type Output = u64;

    fn init(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<CastMsg>) {
        if self.missing_children == 0 {
            if let Some(parent) = self.parent_port {
                tx.send(parent, CastMsg::Up(self.acc));
            } else {
                // Root of a single-node tree: done immediately.
                self.result = Some(self.acc);
            }
        }
    }

    fn on_message(
        &mut self,
        _ctx: &NodeContext<'_>,
        _port: Port,
        payload: CastMsg,
        tx: &mut Tx<CastMsg>,
    ) {
        match payload {
            CastMsg::Up(v) => {
                self.acc = self.op.combine(self.acc, v);
                self.missing_children -= 1;
                if self.missing_children == 0 {
                    self.ready = true;
                }
            }
            CastMsg::Down(v) => {
                self.result = Some(v);
                for &c in &self.children_ports {
                    tx.send(c, CastMsg::Down(v));
                }
            }
        }
    }

    fn on_round_end(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<CastMsg>) {
        if self.ready {
            self.ready = false;
            match self.parent_port {
                Some(p) => tx.send(p, CastMsg::Up(self.acc)),
                None => {
                    // Root: aggregation complete, broadcast downward.
                    self.result = Some(self.acc);
                    for &c in &self.children_ports {
                        tx.send(c, CastMsg::Down(self.acc));
                    }
                }
            }
        }
    }

    fn width(&self, payload: &CastMsg) -> Width {
        // Aggregate values are caller-provided `u64`s with no static
        // domain, so the width is the value's own magnitude; the engine's
        // per-message bandwidth/budget checks are what enforce the
        // "partials fit in `B` bits" contract dynamically.
        let v = match payload {
            CastMsg::Up(v) | CastMsg::Down(v) => *v,
        };
        Width::ZERO.tag().count(v as usize)
    }

    fn finish(self, _ctx: &NodeContext<'_>) -> u64 {
        self.result.unwrap_or(self.acc)
    }
}

#[cfg(test)]
mod width_tests {
    use super::*;
    use dapsp_congest::Config;

    /// This crate only aggregates counts and distances `≤ n` — so partial
    /// sums stay `≤ n²` and every cast message fits the budget
    /// `B = 2⌈log₂ n⌉ + 8` in both directions.
    #[test]
    fn crate_range_partials_fit_the_budget() {
        for n in [2usize, 10, 100, 1 << 16] {
            let budget = Config::for_n(n).bandwidth_bits;
            let k = ConvergecastKernel {
                op: AggOp::Sum,
                acc: 0,
                parent_port: Some(0),
                children_ports: vec![1],
                missing_children: 1,
                ready: false,
                result: None,
            };
            let worst = (n * n) as u64;
            assert!(k.width(&CastMsg::Up(worst)).bits() <= budget, "n={n}");
            assert!(k.width(&CastMsg::Down(worst)).bits() <= budget, "n={n}");
        }
    }
}
