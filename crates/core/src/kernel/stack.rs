//! [`Stack`]: run two kernels on one node, multiplexing their payloads
//! into one `B`-bit message per edge per round.
//!
//! Each kernel sends into a [`Tx`] of its own; when the round ends, `flush`
//! moves the payloads into the enclosing `Tx` — the engine's outbox buffer
//! itself when the stack is hosted directly — as [`Both`] envelopes. A
//! round in which one kernel sent, on strictly ascending ports, is a
//! straight append (each payload written once more, in order); only rounds
//! in which both kernels sent, or ports repeat or descend, go through the
//! port-sorted merge scratch. Either way the envelope sequence is the same
//! function of the two send lists, pinned by a proptest against a
//! `BTreeMap` model.

use dapsp_congest::{NodeContext, Port, TraceTags, Width};

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
    /// [`merge`](Self::merge)'s scratch: sorted by port, empty between
    /// rounds, its capacity reused so a send allocates nothing.
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

    /// Hands both kernels' buffered sends to `tx` as per-port [`Both`]
    /// envelopes; a kernel's second payload for one port overflows into
    /// its own envelope. Emission order is fixed — `A`'s overflows, then
    /// `B`'s, then the merged envelopes by increasing port — because the
    /// engine commits (and counts, and traces) in outbox order.
    ///
    /// When only one kernel sent, on strictly ascending ports (a wave
    /// forwarding to the ports it did not arrive on), that order *is* the
    /// kernel's send order and nothing can overflow: each payload moves
    /// straight into its envelope in `tx`. Only the remaining cases go
    /// through the port-sorted merge scratch.
    fn flush(&mut self, tx: &mut Tx<Both<A::Payload, B::Payload>>) {
        match (self.tx_a.is_empty(), self.tx_b.is_empty()) {
            (true, true) => {}
            (false, true) if self.tx_a.ports_ascend() => {
                tx.extend(self.tx_a.drain().map(|(port, payload)| {
                    let a = Some(payload);
                    (port, Both { a, b: None })
                }));
            }
            (true, false) if self.tx_b.ports_ascend() => {
                tx.extend(self.tx_b.drain().map(|(port, payload)| {
                    let b = Some(payload);
                    (port, Both { a: None, b })
                }));
            }
            _ => self.merge(tx),
        }
    }

    /// The general case of [`flush`](Self::flush): both kernels sent, or
    /// one did with a port repeated or out of order.
    fn merge(&mut self, tx: &mut Tx<Both<A::Payload, B::Payload>>) {
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
    use crate::error::CoreError;
    use crate::kernel::run_protocol_on;
    use dapsp_congest::{
        Config, NodeContext, Observer, SharedObserver, SimError, Topology, TraceEvent,
    };
    use proptest::prelude::*;

    /// A test kernel whose payloads are bytes of a declared fixed width. It
    /// sends only what its script says: `rounds[0]` at `init`, `rounds[r]`
    /// at the end of round `r`.
    struct Fixed {
        width: u32,
        rounds: Vec<Vec<(Port, u8)>>,
        played: usize,
    }

    impl Fixed {
        /// A silent kernel of declared width `width`.
        fn of(width: u32) -> Self {
            Fixed {
                width,
                rounds: Vec::new(),
                played: 0,
            }
        }

        fn play(&mut self, tx: &mut Tx<u8>) {
            for &(port, payload) in self.rounds.get(self.played).into_iter().flatten() {
                tx.send(port, payload);
            }
            self.played += 1;
        }
    }

    impl Protocol for Fixed {
        type Payload = u8;
        type Output = ();

        fn init(&mut self, _: &NodeContext<'_>, tx: &mut Tx<u8>) {
            self.play(tx);
        }

        fn on_message(&mut self, _: &NodeContext<'_>, _: Port, _: u8, _: &mut Tx<u8>) {}

        fn on_round_end(&mut self, _: &NodeContext<'_>, tx: &mut Tx<u8>) {
            self.play(tx);
        }

        fn is_active(&self) -> bool {
            self.played < self.rounds.len()
        }

        fn width(&self, _: &u8) -> Width {
            Width::ZERO.raw(self.width)
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
        let stack = Stack::new(Fixed::of(5), Fixed::of(9));
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
        let stack = Stack::new(Fixed::of(1), Fixed::of(1));
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
        let mut stack = Stack::new(Fixed::of(1), Fixed::of(1));
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
        let mut stack = Stack::new(Fixed::of(1), Fixed::of(1));
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
    /// the fast paths and the flat scratch must reproduce envelope for
    /// envelope.
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

    /// What the engine booked for one message of the hub: `(send round,
    /// port, bits, stream, tags)`.
    type Booked = (u64, Port, u32, Option<u32>, TraceTags);

    /// Records every message node 0 gets accepted, as stamped.
    #[derive(Default)]
    struct HubWire(Vec<Booked>);

    impl Observer for HubWire {
        fn on_event(&mut self, ev: &TraceEvent) {
            if let TraceEvent::Message {
                round,
                from: 0,
                edge,
                bits,
                stream,
                tags,
                ..
            } = *ev
            {
                // Node 0's directed edges are its ports.
                self.0.push((round, edge, bits, stream, tags));
            }
        }
    }

    const PORTS: u32 = 12;
    const WIDTH_A: u32 = 1;
    const WIDTH_B: u32 = 3;

    /// The stamps a hosted `Stack<Fixed, Fixed>` owes the model's
    /// envelope `(port, a, b)` sent in `round`.
    fn stamped(round: u64, (port, a, b): (Port, Option<u8>, Option<u8>)) -> Booked {
        let bits = 2 + a.map_or(0, |_| WIDTH_A) + b.map_or(0, |_| WIDTH_B);
        let stream = a.or(b).map(u32::from); // payloads are numbered from 100
        let tags = TraceTags {
            kernels: u8::from(a.is_some()) | u8::from(b.is_some()) << 1,
            retransmit: false,
            ack: false,
        };
        (round, port, bits, stream, tags)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any send sequence — descending ports, a port repeated within
        /// one kernel (overflow), one or both sides empty — flushes to the
        /// model's envelope sequence, round after round on one stack (the
        /// scratch must come back empty). `shape` steers an eighth of the
        /// cases each into the two fast paths (`A` silent and `B` strictly
        /// ascending; `B` silent), the both-sent merge and a strictly
        /// descending `B`; the other half stays as drawn.
        ///
        /// The same sends are then played by a hosted stack at the hub of
        /// a star, and what the engine books for the hub must be the
        /// model's sequence with the stack's width / stream / tags stamped
        /// on — up to the first repeated port, where the engine must stop
        /// the run with `DuplicateSend`.
        #[test]
        fn flush_matches_the_btreemap_model(
            shape in 0u32..8,
            ports_a in proptest::collection::vec(0u32..PORTS, 0..10),
            ports_b in proptest::collection::vec(0u32..PORTS, 0..10),
            ports_a2 in proptest::collection::vec(0u32..PORTS, 0..4),
        ) {
            let (mut ports_a, mut ports_b) = (ports_a.clone(), ports_b.clone());
            match shape {
                0 | 3 => {
                    ports_a.clear();
                    ports_b.push(5);
                    ports_b.sort_unstable();
                    ports_b.dedup();
                    if shape == 3 {
                        ports_b.push(PORTS - 1);
                        ports_b.dedup();
                        ports_b.reverse();
                    }
                }
                1 => {
                    ports_a.push(5);
                    ports_b.clear();
                }
                2 => {
                    ports_a.push(5);
                    ports_b.push(6);
                }
                _ => {}
            }
            let number = |ports: &[Port], base: u8| -> Vec<(Port, u8)> {
                ports.iter().zip(base..).map(|(&p, i)| (p, i)).collect()
            };
            let rounds = [
                (number(&ports_a, 100), number(&ports_b, 200)),
                (number(&ports_a2, 100), vec![]),
            ];

            let mut stack = Stack::new(Fixed::of(WIDTH_A), Fixed::of(WIDTH_B));
            let mut expected: Vec<Booked> = Vec::new();
            for (round, (a, b)) in rounds.iter().enumerate() {
                for &(port, payload) in a {
                    stack.tx_a.send(port, payload);
                }
                for &(port, payload) in b {
                    stack.tx_b.send(port, payload);
                }
                let mut out = Tx::new();
                stack.flush(&mut out);
                let sent: Sent = out.drain().map(|(port, both)| (port, both.a, both.b)).collect();
                let model = model_flush(a, b);
                prop_assert_eq!(&sent, &model);
                prop_assert!(stack.merged.is_empty());
                expected.extend(model.into_iter().map(|env| stamped(round as u64, env)));
            }

            // The engine books a round's outbox in order and aborts at its
            // first repeated port.
            let mut used = std::collections::BTreeSet::new();
            let clean = expected
                .iter()
                .take_while(|&&(round, port, ..)| used.insert((round, port)))
                .count();
            let star = Topology::from_adjacency(
                std::iter::once((1..=PORTS).collect())
                    .chain((0..PORTS).map(|_| vec![0]))
                    .collect(),
            )
            .unwrap();
            let wire = SharedObserver::new(HubWire::default());
            let config = Config::for_n(star.num_nodes()).with_observer(wire.observer());
            let (script_a, script_b): (Vec<_>, Vec<_>) = rounds.iter().cloned().unzip();
            let run = run_protocol_on(&star, config, |ctx| {
                // Only the hub plays; the leaves just receive.
                let hub = ctx.node_id() == 0;
                let cast = |width, script: &Vec<_>| Fixed {
                    rounds: if hub { script.clone() } else { Vec::new() },
                    ..Fixed::of(width)
                };
                Stack::new(cast(WIDTH_A, &script_a), cast(WIDTH_B, &script_b))
            });
            prop_assert_eq!(wire.with(|w| std::mem::take(&mut w.0)), &expected[..clean]);
            if clean == expected.len() {
                prop_assert!(run.is_ok());
            } else {
                let (round, port, ..) = expected[clean];
                let duplicate = SimError::DuplicateSend { node: 0, port, round };
                prop_assert_eq!(run.err(), Some(CoreError::Sim(duplicate)));
            }
        }
    }

    /// `compose!` nests right-associatively: three kernels, two nested
    /// stacks, width = all four presence tags plus the components.
    #[test]
    fn compose_macro_nests_stacks() {
        let stack = crate::compose!(Fixed::of(3), Fixed::of(5), Fixed::of(7));
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
