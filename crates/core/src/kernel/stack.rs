//! [`Stack`]: run two kernels on one node, multiplexing their payloads
//! into one `B`-bit message per edge per round.

use dapsp_congest::{NodeContext, Port, RepairAction, TopologyDelta, TraceTags, Width};

use super::protocol::{Protocol, Tx};

/// The multiplexed payload of a [`Stack`]: each component is present iff
/// its kernel sent on that port this round. On the wire each component
/// costs one presence tag plus, when present, the payload's own declared
/// width.
#[derive(Clone, Debug)]
pub struct Both<PA, PB> {
    /// The lower kernel's payload, if it sent on this port.
    pub a: Option<PA>,
    /// The upper kernel's payload, if it sent on this port.
    pub b: Option<PB>,
}

/// A cross-kernel wiring: after the lower kernel's round end and before
/// the upper kernel's, `couple` may read events off one kernel and drive
/// the other.
///
/// Algorithm 1 is the motivating instance: the pebble's release event
/// schedules the wave start, so `BFS_v` begins exactly when the pebble
/// leaves `v`. The unit coupling `()` wires nothing.
pub trait Coupling<A, B> {
    /// Invoked every round between `A::on_round_end` and
    /// `B::on_round_end` (and once at init, between the two `init`s).
    fn couple(&mut self, ctx: &NodeContext<'_>, a: &mut A, b: &mut B);
}

impl<A, B> Coupling<A, B> for () {
    fn couple(&mut self, _ctx: &NodeContext<'_>, _a: &mut A, _b: &mut B) {}
}

/// Two kernels sharing one node and one message stream.
///
/// Per round, the stack runs `A`'s round end, the [`Coupling`], then `B`'s
/// round end, and merges both kernels' sends per port: the first payload
/// each kernel queued for a port rides in one [`Both`] envelope. A kernel
/// that queues *two* payloads for one port overflows into a second
/// envelope — deliberately tripping the engine's duplicate-send check,
/// exactly as the un-stacked kernel would have (the Lemma 1 ablation
/// depends on this being detectable).
///
/// Stacks nest: `Stack<A, Stack<B, C, _>, _>` multiplexes three kernels
/// (see [`compose!`](crate::compose)).
pub struct Stack<A: Protocol, B: Protocol, C> {
    a: A,
    b: B,
    coupling: C,
    tx_a: Tx<A::Payload>,
    tx_b: Tx<B::Payload>,
    /// [`flush`](Self::flush)'s merge scratch: sorted by port, empty
    /// between rounds, its capacity reused so a send allocates nothing.
    merged: Merged<A::Payload, B::Payload>,
}

/// Envelopes under construction, sorted by port.
type Merged<PA, PB> = Vec<(Port, Both<PA, PB>)>;

/// The envelope for `port` in `merged`, inserted empty if absent. Kernels
/// mostly emit in ascending port order, so the append is the common case.
fn envelope_for<PA, PB>(merged: &mut Merged<PA, PB>, port: Port) -> &mut Both<PA, PB> {
    let at = match merged.last() {
        Some(&(last, _)) if last >= port => merged.partition_point(|&(p, _)| p < port),
        _ => merged.len(),
    };
    if merged.get(at).is_none_or(|&(p, _)| p != port) {
        merged.insert(at, (port, Both { a: None, b: None }));
    }
    &mut merged[at].1
}

impl<A: Protocol, B: Protocol> Stack<A, B, ()> {
    /// Stacks `a` under `b` with no cross-kernel wiring.
    pub fn new(a: A, b: B) -> Self {
        Stack::coupled(a, b, ())
    }
}

impl<A: Protocol, B: Protocol, C: Coupling<A, B>> Stack<A, B, C> {
    /// Stacks `a` under `b`, wiring them with `coupling` (invoked between
    /// their round ends, in that order).
    pub fn coupled(a: A, b: B, coupling: C) -> Self {
        Stack {
            a,
            b,
            coupling,
            tx_a: Tx::new(),
            tx_b: Tx::new(),
            merged: Vec::new(),
        }
    }

    /// Merges both kernels' buffered sends into per-port [`Both`]
    /// envelopes; a kernel's second payload for one port overflows into
    /// its own envelope. Emission order is fixed — `A`'s overflows, then
    /// `B`'s, then the merged envelopes by increasing port — because the
    /// engine commits (and counts, and traces) in outbox order.
    fn flush(&mut self, tx: &mut Tx<Both<A::Payload, B::Payload>>) {
        if self.tx_a.is_empty() && self.tx_b.is_empty() {
            return;
        }
        for (port, payload) in self.tx_a.drain() {
            let slot = &mut envelope_for(&mut self.merged, port).a;
            if slot.is_some() {
                tx.send(
                    port,
                    Both {
                        a: Some(payload),
                        b: None,
                    },
                );
            } else {
                *slot = Some(payload);
            }
        }
        for (port, payload) in self.tx_b.drain() {
            let slot = &mut envelope_for(&mut self.merged, port).b;
            if slot.is_some() {
                tx.send(
                    port,
                    Both {
                        a: None,
                        b: Some(payload),
                    },
                );
            } else {
                *slot = Some(payload);
            }
        }
        for (port, both) in self.merged.drain(..) {
            tx.send(port, both);
        }
    }
}

impl<A: Protocol, B: Protocol, C: Coupling<A, B>> Protocol for Stack<A, B, C> {
    type Payload = Both<A::Payload, B::Payload>;
    type Output = (A::Output, B::Output);

    /// The stack occupies both components' kernel slots: `A`'s in the low
    /// bits, `B`'s shifted above them.
    const KERNELS: u32 = A::KERNELS + B::KERNELS;

    fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<Self::Payload>) {
        self.a.init(ctx, &mut self.tx_a);
        self.coupling.couple(ctx, &mut self.a, &mut self.b);
        self.b.init(ctx, &mut self.tx_b);
        self.flush(tx);
    }

    fn on_message(
        &mut self,
        ctx: &NodeContext<'_>,
        port: Port,
        payload: Self::Payload,
        _tx: &mut Tx<Self::Payload>,
    ) {
        if let Some(pa) = payload.a {
            self.a.on_message(ctx, port, pa, &mut self.tx_a);
        }
        if let Some(pb) = payload.b {
            self.b.on_message(ctx, port, pb, &mut self.tx_b);
        }
    }

    fn on_round_end(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<Self::Payload>) {
        self.a.on_round_end(ctx, &mut self.tx_a);
        self.coupling.couple(ctx, &mut self.a, &mut self.b);
        self.b.on_round_end(ctx, &mut self.tx_b);
        self.flush(tx);
    }

    fn on_topology(&mut self, ctx: &NodeContext<'_>, delta: &TopologyDelta<'_>) -> RepairAction {
        // Both components see the change; the stack reports the heavier
        // reaction (`Ignored < Repaired < Recompute`).
        let a = self.a.on_topology(ctx, delta);
        let b = self.b.on_topology(ctx, delta);
        a.max(b)
    }

    fn is_active(&self) -> bool {
        self.a.is_active() || self.b.is_active()
    }

    fn quiescence(&self) -> dapsp_congest::Quiescence {
        // The least-far-along component rules: `Active < Passive <
        // Shutdown`, so the stack is active if either kernel is and only
        // consents to shutdown when both do.
        self.a.quiescence().min(self.b.quiescence())
    }

    fn width(&self, payload: &Self::Payload) -> Width {
        let mut w = Width::ZERO.tag().tag(); // one presence tag per kernel
        if let Some(pa) = &payload.a {
            w = w.raw(self.a.width(pa).bits());
        }
        if let Some(pb) = &payload.b {
            w = w.raw(self.b.width(pb).bits());
        }
        w
    }

    fn stream(&self, payload: &Self::Payload) -> Option<u32> {
        payload
            .a
            .as_ref()
            .and_then(|pa| self.a.stream(pa))
            .or_else(|| payload.b.as_ref().and_then(|pb| self.b.stream(pb)))
    }

    fn tags(&self, payload: &Self::Payload) -> TraceTags {
        // Present components contribute their masks — `A`'s verbatim,
        // `B`'s shifted past `A`'s slots — and their transport flags OR.
        // An empty frame (both absent) reports no kernels at all.
        let mut tags = TraceTags {
            kernels: 0,
            retransmit: false,
            ack: false,
        };
        if let Some(pa) = &payload.a {
            let t = self.a.tags(pa);
            tags.kernels |= t.kernels;
            tags.retransmit |= t.retransmit;
            tags.ack |= t.ack;
        }
        if let Some(pb) = &payload.b {
            let t = self.b.tags(pb);
            // Widen before shifting; slots past bit 7 truncate out of the
            // 8-bit mask instead of panicking on shift overflow.
            if A::KERNELS < 8 {
                tags.kernels |= ((u32::from(t.kernels)) << A::KERNELS) as u8;
            }
            tags.retransmit |= t.retransmit;
            tags.ack |= t.ack;
        }
        tags
    }

    fn finish(self, ctx: &NodeContext<'_>) -> Self::Output {
        (self.a.finish(ctx), self.b.finish(ctx))
    }
}

/// Stacks two or more kernels right-associatively with unit couplings:
/// `compose!(a, b, c)` is `Stack::new(a, Stack::new(b, c))`. For a
/// coupled pair, use [`Stack::coupled`] directly.
#[macro_export]
macro_rules! compose {
    ($a:expr, $b:expr $(,)?) => {
        $crate::kernel::Stack::new($a, $b)
    };
    ($a:expr $(, $rest:expr)+ $(,)?) => {
        $crate::kernel::Stack::new($a, $crate::compose!($($rest),+))
    };
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use dapsp_congest::NodeContext;
    use proptest::prelude::*;

    /// A test kernel whose payloads are bytes of a declared fixed width.
    struct Fixed(u32);

    impl Protocol for Fixed {
        type Payload = u8;
        type Output = ();

        fn on_message(&mut self, _: &NodeContext<'_>, _: Port, _: u8, _: &mut Tx<u8>) {}

        fn width(&self, _: &u8) -> Width {
            Width::ZERO.raw(self.0)
        }

        fn stream(&self, payload: &u8) -> Option<u32> {
            (*payload >= 100).then_some(*payload as u32)
        }

        fn finish(self, _: &NodeContext<'_>) {}
    }

    /// Wire width = one presence tag per kernel plus each present
    /// component's own width — absent components cost only their tag.
    #[test]
    fn width_charges_tags_plus_present_components() {
        let stack = Stack::new(Fixed(5), Fixed(9));
        let both = Both {
            a: Some(1u8),
            b: Some(2u8),
        };
        assert_eq!(stack.width(&both).bits(), 2 + 5 + 9);
        let a_only = Both {
            a: Some(1u8),
            b: None,
        };
        assert_eq!(stack.width(&a_only).bits(), 2 + 5);
        let empty: Both<u8, u8> = Both { a: None, b: None };
        assert_eq!(stack.width(&empty).bits(), 2);
    }

    /// The lower kernel's stream tag wins; the upper kernel's is the
    /// fallback.
    #[test]
    fn stream_prefers_lower_kernel() {
        let stack = Stack::new(Fixed(1), Fixed(1));
        let both = Both {
            a: Some(100u8),
            b: Some(101u8),
        };
        assert_eq!(stack.stream(&both), Some(100));
        let b_only = Both {
            a: Some(1u8), // below the stream threshold
            b: Some(101u8),
        };
        assert_eq!(stack.stream(&b_only), Some(101));
    }

    /// Both kernels' sends for one port ride in one merged envelope;
    /// ports come out in increasing order.
    #[test]
    fn flush_merges_per_port() {
        let mut stack = Stack::new(Fixed(1), Fixed(1));
        stack.tx_a.send(1, 10);
        stack.tx_b.send(1, 20);
        stack.tx_b.send(0, 30);
        let mut out = Tx::new();
        stack.flush(&mut out);
        let sends: Vec<_> = out.drain().collect();
        assert_eq!(sends.len(), 2);
        let (port0, both0) = &sends[0];
        assert_eq!((*port0, both0.a, both0.b), (0, None, Some(30)));
        let (port1, both1) = &sends[1];
        assert_eq!((*port1, both1.a, both1.b), (1, Some(10), Some(20)));
    }

    /// A kernel that queues two payloads for one port overflows into a
    /// second envelope — the duplicate-send the engine must keep seeing
    /// for the Lemma 1 ablation to stay detectable.
    #[test]
    fn duplicate_same_kernel_send_overflows() {
        let mut stack = Stack::new(Fixed(1), Fixed(1));
        stack.tx_a.send(0, 10);
        stack.tx_a.send(0, 11);
        let mut out = Tx::new();
        stack.flush(&mut out);
        let sends: Vec<_> = out.drain().collect();
        assert_eq!(sends.len(), 2, "second send must not be silently merged");
        assert!(sends.iter().all(|(p, _)| *p == 0));
    }

    type Sent = Vec<(Port, Option<u8>, Option<u8>)>;

    /// The `BTreeMap` merge [`Stack::flush`] used to be, kept as the model
    /// the flat scratch must reproduce envelope for envelope.
    fn model_flush(a: &[(Port, u8)], b: &[(Port, u8)]) -> Sent {
        let mut out = Sent::new();
        let mut per_port: BTreeMap<Port, (Option<u8>, Option<u8>)> = BTreeMap::new();
        for &(port, payload) in a {
            let slot = &mut per_port.entry(port).or_default().0;
            if slot.is_some() {
                out.push((port, Some(payload), None));
            } else {
                *slot = Some(payload);
            }
        }
        for &(port, payload) in b {
            let slot = &mut per_port.entry(port).or_default().1;
            if slot.is_some() {
                out.push((port, None, Some(payload)));
            } else {
                *slot = Some(payload);
            }
        }
        out.extend(per_port.into_iter().map(|(port, (a, b))| (port, a, b)));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any send sequence — descending ports, a port repeated within
        /// one kernel (overflow), one or both sides empty — flushes to the
        /// model's envelope sequence, round after round on one stack (the
        /// scratch must come back empty).
        #[test]
        fn flush_matches_the_btreemap_model(
            ports_a in proptest::collection::vec(0u32..12, 0..10),
            ports_b in proptest::collection::vec(0u32..12, 0..10),
            ports_a2 in proptest::collection::vec(0u32..12, 0..4),
        ) {
            let number = |ports: &[Port]| -> Vec<(Port, u8)> {
                ports.iter().zip(0u8..).map(|(&p, i)| (p, i)).collect()
            };
            let mut stack = Stack::new(Fixed(1), Fixed(1));
            for (a, b) in [(number(&ports_a), number(&ports_b)), (number(&ports_a2), vec![])] {
                for &(port, payload) in &a {
                    stack.tx_a.send(port, payload);
                }
                for &(port, payload) in &b {
                    stack.tx_b.send(port, payload);
                }
                let mut out = Tx::new();
                stack.flush(&mut out);
                let sent: Sent = out.drain().map(|(port, both)| (port, both.a, both.b)).collect();
                prop_assert_eq!(sent, model_flush(&a, &b));
                prop_assert!(stack.merged.is_empty());
            }
        }
    }

    /// `compose!` nests right-associatively: three kernels, two nested
    /// stacks, width = all four presence tags plus the components.
    #[test]
    fn compose_macro_nests_stacks() {
        let stack = crate::compose!(Fixed(3), Fixed(5), Fixed(7));
        let msg = Both {
            a: Some(1u8),
            b: Some(Both {
                a: Some(2u8),
                b: Some(3u8),
            }),
        };
        assert_eq!(stack.width(&msg).bits(), 2 + 3 + (2 + 5 + 7));
    }
}
