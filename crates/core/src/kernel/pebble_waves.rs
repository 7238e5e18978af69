//! [`PebbleWaves`]: Algorithm 1's node — the DFS pebble over `T_1` and the
//! BFS waves it releases, sharing one `B`-bit message per edge per round.
//!
//! Each kernel sends into a [`Tx`] of its own; when the round ends, `flush`
//! moves the payloads into the node's `Tx` — the engine's outbox buffer
//! itself when the protocol is hosted directly — as [`PebbleWave`]
//! envelopes. A round in which only the waves sent, on strictly ascending
//! ports, is a straight append (each payload written once more, in order);
//! only rounds in which the pebble moved too, or a wave port repeats or
//! descends, go through the port-sorted merge scratch. Either way the
//! envelope sequence is the same function of the two send lists, pinned by
//! a proptest against a `BTreeMap` model.

use dapsp_congest::{NodeContext, Port, Quiescence, TraceTags, Width};

use super::pebble::{PebbleKernel, Token};
use super::protocol::{Protocol, Tx};
use super::wave::{WaveKernel, WaveMsg, WaveState};

/// One wire message of Algorithm 1: the pebble and a wave announcement,
/// each present iff its kernel sent on that port this round. On the wire
/// each costs one presence tag plus, when present, its own declared width
/// (the pebble's is zero).
#[derive(Clone, Debug)]
pub(crate) struct PebbleWave {
    /// The pebble moves across this edge.
    pebble: bool,
    /// The wave announcement on this edge, if any.
    wave: Option<WaveMsg>,
}

/// Algorithm 1 on one node: a [`PebbleKernel`] walking `T_1` and an
/// all-roots [`WaveKernel`] whose own wave starts the round end the pebble
/// leaves the node after its first visit — the staggering Lemma 1 turns
/// into a congestion-free wave schedule.
///
/// Per round, the pebble's round end runs first, then its release (if
/// any) schedules the wave start, then the waves' round end; both
/// kernels' sends are merged per port. A wave kernel that queues *two*
/// payloads for one port overflows into a second envelope — deliberately
/// tripping the engine's duplicate-send check, as the Lemma 1 ablation
/// needs. Traffic is attributed by kernel mask: the pebble is bit 0, the
/// waves bit 1.
pub(crate) struct PebbleWaves<'a> {
    pebble: PebbleKernel,
    wave: WaveKernel<'a>,
    out: Outgoing,
}

impl<'a> PebbleWaves<'a> {
    /// Runs `pebble` and `wave` on one node.
    pub(crate) fn new(pebble: PebbleKernel, wave: WaveKernel<'a>) -> Self {
        PebbleWaves {
            pebble,
            wave,
            out: Outgoing::new(),
        }
    }
}

/// Both kernels' send buffers for the current step, and the merge scratch.
struct Outgoing {
    pebble: Tx<Token>,
    wave: Tx<WaveMsg>,
    /// [`merge`](Self::merge)'s scratch: sorted by port, empty between
    /// rounds, its capacity reused so a send allocates nothing.
    merged: Vec<(Port, PebbleWave)>,
}

impl Outgoing {
    fn new() -> Self {
        Outgoing {
            pebble: Tx::new(),
            wave: Tx::new(),
            merged: Vec::new(),
        }
    }

    /// Hands both kernels' buffered sends to `tx` as per-port
    /// [`PebbleWave`] envelopes. Emission order is fixed — the waves'
    /// overflow envelopes, then the merged envelopes by increasing port —
    /// because the engine commits (and counts, and traces) in outbox order.
    ///
    /// The pebble is in one place, so it leaves a node at most once per
    /// round. When it stays put and the waves sent on strictly ascending
    /// ports (a wave forwarding to the ports it did not arrive on), that
    /// order *is* the waves' send order and nothing can overflow: each
    /// payload moves straight into its envelope in `tx`.
    fn flush(&mut self, tx: &mut Tx<PebbleWave>) {
        let mut pebble = self.pebble.drain().map(|(port, Token)| port);
        let moved = pebble.next();
        debug_assert!(pebble.next().is_none(), "the pebble left twice");
        drop(pebble);
        match moved {
            None if self.wave.ports_ascend() => {
                tx.extend(self.wave.drain().map(|(port, wave)| {
                    let wave = Some(wave);
                    (
                        port,
                        PebbleWave {
                            pebble: false,
                            wave,
                        },
                    )
                }));
            }
            Some(port) if self.wave.is_empty() => {
                let wave = None;
                tx.send(port, PebbleWave { pebble: true, wave });
            }
            _ => self.merge(moved, tx),
        }
    }

    /// The general case of [`flush`](Self::flush): the pebble moved while
    /// the waves sent, or a wave port repeats or descends.
    fn merge(&mut self, pebble: Option<Port>, tx: &mut Tx<PebbleWave>) {
        for (port, payload) in self.wave.drain() {
            let slot = &mut envelope_for(&mut self.merged, port).wave;
            if slot.is_some() {
                let wave = Some(payload);
                tx.send(
                    port,
                    PebbleWave {
                        pebble: false,
                        wave,
                    },
                );
            } else {
                *slot = Some(payload);
            }
        }
        if let Some(port) = pebble {
            envelope_for(&mut self.merged, port).pebble = true;
        }
        for (port, envelope) in self.merged.drain(..) {
            tx.send(port, envelope);
        }
    }
}

/// The envelope for `port` in `merged`, inserted empty if absent. Kernels
/// mostly emit in ascending port order, so the append is the common case.
fn envelope_for(merged: &mut Vec<(Port, PebbleWave)>, port: Port) -> &mut PebbleWave {
    let at = match merged.last() {
        Some(&(last, _)) if last >= port => merged.partition_point(|&(p, _)| p < port),
        _ => merged.len(),
    };
    if merged.get(at).is_none_or(|&(p, _)| p != port) {
        let empty = PebbleWave {
            pebble: false,
            wave: None,
        };
        merged.insert(at, (port, empty));
    }
    &mut merged[at].1
}

impl Protocol for PebbleWaves<'_> {
    type Payload = PebbleWave;
    type Output = WaveState;

    // Neither kernel sends at init: the root's pebble releases, and its
    // wave starts, at the first round end.

    fn on_message(
        &mut self,
        ctx: &NodeContext<'_>,
        port: Port,
        payload: PebbleWave,
        _tx: &mut Tx<PebbleWave>,
    ) {
        if payload.pebble {
            self.pebble
                .on_message(ctx, port, Token, &mut self.out.pebble);
        }
        if let Some(wave) = payload.wave {
            self.wave.on_message(ctx, port, wave, &mut self.out.wave);
        }
    }

    fn on_round_end(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<PebbleWave>) {
        self.pebble.on_round_end(ctx, &mut self.out.pebble);
        if self.pebble.take_released() {
            self.wave.schedule_start();
        }
        self.wave.on_round_end(ctx, &mut self.out.wave);
        self.out.flush(tx);
    }

    fn is_active(&self) -> bool {
        self.pebble.is_active() || self.wave.is_active()
    }

    fn quiescence(&self) -> Quiescence {
        // The least-far-along kernel rules: `Active < Passive < Shutdown`.
        self.pebble.quiescence().min(self.wave.quiescence())
    }

    fn width(&self, payload: &PebbleWave) -> Width {
        let w = Width::ZERO.tag().tag(); // one presence tag per kernel
        match &payload.wave {
            Some(wave) => w.raw(self.wave.width(wave).bits()),
            None => w,
        }
    }

    fn stream(&self, payload: &PebbleWave) -> Option<u32> {
        payload
            .wave
            .as_ref()
            .and_then(|wave| self.wave.stream(wave))
    }

    fn tags(&self, payload: &PebbleWave) -> TraceTags {
        TraceTags {
            kernels: u8::from(payload.pebble) | u8::from(payload.wave.is_some()) << 1,
            retransmit: false,
            ack: false,
        }
    }

    fn finish(self, ctx: &NodeContext<'_>) -> WaveState {
        self.wave.finish(ctx)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::{apsp, Obs};
    use dapsp_congest::{SharedObserver, TraceEvent, TraceRecorder};
    use dapsp_graph::generators;
    use proptest::prelude::*;

    /// What one envelope carries: `(port, pebble, wave root)`.
    type Sent = Vec<(Port, bool, Option<u32>)>;

    /// Queues `pebble` and the waves `(port, root)`, flushes, and reads
    /// the envelopes back.
    fn flush(out: &mut Outgoing, pebble: Option<Port>, waves: &[(Port, u32)]) -> Sent {
        if let Some(port) = pebble {
            out.pebble.send(port, Token);
        }
        for &(port, root) in waves {
            out.wave.send(port, WaveMsg::Wave { root, dist: 1 });
        }
        let mut tx = Tx::new();
        out.flush(&mut tx);
        let root = |wave: Option<WaveMsg>| match wave {
            Some(WaveMsg::Wave { root, .. }) => Some(root),
            _ => None,
        };
        tx.drain()
            .map(|(port, env)| (port, env.pebble, root(env.wave)))
            .collect()
    }

    /// The `BTreeMap` merge the generic two-kernel stack's flush used to
    /// be, kept as the model the fast paths and the flat scratch must reproduce
    /// envelope for envelope.
    fn model_flush(pebble: Option<Port>, waves: &[(Port, u32)]) -> Sent {
        let mut out = Sent::new();
        let mut per_port: BTreeMap<Port, (bool, Option<u32>)> = BTreeMap::new();
        if let Some(port) = pebble {
            per_port.entry(port).or_default().0 = true;
        }
        for &(port, root) in waves {
            let slot = &mut per_port.entry(port).or_default().1;
            if slot.is_some() {
                out.push((port, false, Some(root)));
            } else {
                *slot = Some(root);
            }
        }
        out.extend(per_port.into_iter().map(|(port, (p, w))| (port, p, w)));
        out
    }

    /// The pebble and a wave on one port ride in one envelope; ports come
    /// out in increasing order.
    #[test]
    fn flush_merges_per_port() {
        let sent = flush(&mut Outgoing::new(), Some(1), &[(1, 20), (0, 30)]);
        assert_eq!(sent, vec![(0, false, Some(30)), (1, true, Some(20))]);
    }

    /// Two waves queued for one port overflow into a second envelope — the
    /// duplicate send the engine must keep seeing for the Lemma 1 ablation
    /// to stay detectable.
    #[test]
    fn duplicate_wave_send_overflows() {
        let sent = flush(&mut Outgoing::new(), None, &[(0, 10), (0, 11)]);
        assert_eq!(sent, vec![(0, false, Some(11)), (0, false, Some(10))]);
    }

    const PORTS: u32 = 12;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any send sequence — descending wave ports, a wave port repeated
        /// (overflow), the pebble alone, the waves alone, both or neither —
        /// flushes to the model's envelope sequence, round after round on
        /// one node (the scratch must come back empty). `shape` steers an
        /// eighth of the cases each into the two fast paths (pebble still
        /// and waves strictly ascending; waves silent), the both-sent merge
        /// and strictly descending waves; the other half stays as drawn.
        #[test]
        fn flush_matches_the_btreemap_model(
            shape in 0u32..8,
            pebble in 0u32..PORTS + 1,
            ports in proptest::collection::vec(0u32..PORTS, 0..10),
            ports2 in proptest::collection::vec(0u32..PORTS, 0..4),
        ) {
            // `PORTS` draws a pebble that stays put.
            let (mut pebble, mut ports) = ((pebble < PORTS).then_some(pebble), ports.clone());
            match shape {
                0 | 3 => {
                    pebble = None;
                    ports.push(5);
                    ports.sort_unstable();
                    ports.dedup();
                    if shape == 3 {
                        ports.push(PORTS - 1);
                        ports.dedup();
                        ports.reverse();
                    }
                }
                1 => {
                    pebble = Some(5);
                    ports.clear();
                }
                2 => {
                    pebble = Some(5);
                    ports.push(6);
                }
                _ => {}
            }
            let number = |ports: &[Port], base: u32| -> Vec<(Port, u32)> {
                ports.iter().zip(base..).map(|(&p, i)| (p, i)).collect()
            };
            let mut out = Outgoing::new();
            for (pebble, waves) in [(pebble, number(&ports, 100)), (None, number(&ports2, 200))] {
                prop_assert_eq!(flush(&mut out, pebble, &waves), model_flush(pebble, &waves));
                prop_assert!(out.merged.is_empty());
            }
        }
    }

    /// Hosted, every frame is stamped from what it carries: two presence
    /// tags plus the wave's id and depth when a wave rides along, the
    /// wave's root as its stream, and the pebble in kernel bit 0, the
    /// waves in bit 1. The pebble crosses each edge of `T_1` twice.
    #[test]
    fn frames_are_stamped_by_what_they_carry() {
        let n = 16;
        let trace = SharedObserver::new(TraceRecorder::with_capacity(1 << 20, 0));
        let handle = trace.observer();
        apsp::run_on_obs(
            &generators::grid(4, 4).to_topology(),
            Obs::watching(&handle),
        )
        .unwrap();
        let wave_bits = Width::ZERO.id(n).count(n).bits();
        let mut phase = String::new();
        let mut pebble_moves = 0;
        trace.with(|t| {
            for ev in t.events() {
                match ev {
                    TraceEvent::RunStart { phase: p, .. } => phase = p.clone(),
                    TraceEvent::Message {
                        bits, stream, tags, ..
                    } if phase == "apsp:waves" => {
                        let (pebble, wave) = (tags.kernels & 1 != 0, tags.kernels & 2 != 0);
                        assert!(pebble || wave, "{ev:?}");
                        assert_eq!(tags.kernels & !3, 0, "{ev:?}");
                        assert_eq!(*bits, 2 + if wave { wave_bits } else { 0 }, "{ev:?}");
                        assert_eq!(stream.is_some(), wave, "{ev:?}");
                        pebble_moves += usize::from(pebble);
                    }
                    _ => {}
                }
            }
        });
        assert_eq!(pebble_moves, 2 * (n - 1));
    }
}
