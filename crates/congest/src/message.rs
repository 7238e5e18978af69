//! Message sizing discipline.

/// A message that knows its own encoded size in bits.
///
/// The CONGEST model restricts every edge to `B` bits per direction per
/// round. Rather than trusting algorithms to respect that, the simulator
/// asks every message for its size and rejects oversized sends with
/// [`SimError::BandwidthExceeded`](crate::SimError::BandwidthExceeded).
///
/// Implementations should report the size of a reasonable binary encoding of
/// the message: a node id costs [`bits_for_id`]`(n)` bits, a hop distance at
/// most [`bits_for_count`]`(n)` bits (distances in an `n`-node graph are
/// `< n`), and an enum discriminant `ceil(log2(#variants))` bits.
///
/// # Examples
///
/// ```
/// use dapsp_congest::{bits_for_id, Message};
///
/// /// A BFS token: the root's id and the sender's distance from it.
/// #[derive(Clone, Debug)]
/// struct Wave { root: u32, dist: u32, n: u32 }
///
/// impl Message for Wave {
///     fn bit_size(&self) -> u32 {
///         2 * bits_for_id(self.n as usize)
///     }
/// }
/// ```
pub trait Message: Clone + std::fmt::Debug {
    /// The size of this message in bits under its binary encoding.
    fn bit_size(&self) -> u32;

    /// The logical stream this message belongs to, if any — e.g. the root
    /// id of the BFS wave it serves. Observers use this to attribute
    /// traffic to concurrent logical executions (the paper's Lemma 1
    /// argues about per-wave congestion, not raw message counts); message
    /// types that don't distinguish streams keep the default `None`.
    fn stream_id(&self) -> Option<u32> {
        None
    }

    /// Per-kernel attribution tags for this message (see [`TraceTags`]).
    /// Plain message types keep the default — one anonymous kernel, no
    /// transport flags. Kernel-layer envelopes override this so observers
    /// can attribute traffic to the kernels sharing a node (Algorithm 1's
    /// pebble and waves) and spot retransmitted/ack frames.
    fn trace_tags(&self) -> TraceTags {
        TraceTags::default()
    }
}

/// Observer-facing attribution tags carried by a message: which kernels
/// sharing a node contributed components to this frame (a bitmask: for
/// Algorithm 1, bit 0 = the pebble, bit 1 = the waves), and whether the
/// transport layer marked it as a retransmission or as carrying an
/// acknowledgement.
///
/// Tags cost **zero wire bits** — they are diagnostic metadata read at the
/// engine's commit choke point, never counted against the bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceTags {
    /// Bitmask of kernel slots present in this frame. A plain (non-kernel)
    /// message reports `1`: one anonymous kernel.
    pub kernels: u8,
    /// The transport layer resent this frame (alternating-bit retry).
    pub retransmit: bool,
    /// This frame carries an acknowledgement.
    pub ack: bool,
}

impl Default for TraceTags {
    fn default() -> Self {
        TraceTags {
            kernels: 1,
            retransmit: false,
            ack: false,
        }
    }
}

/// An accumulator for the declared encoded width of a message, built from
/// the same primitives the paper's `B = O(log n)` accounting uses: node
/// ids ([`bits_for_id`]), hop counts ([`bits_for_count`]), and single tag
/// bits for enum discriminants / presence flags.
///
/// Protocol kernels build a `Width` instead of hand-summing bit counts so
/// every field of a multi-field message is visibly accounted for — the
/// under-counting audit this type exists to make impossible.
///
/// # Examples
///
/// ```
/// use dapsp_congest::Width;
///
/// // A wave announcement: 1 presence bit, one id, one hop count.
/// let w = Width::ZERO.tag().id(1024).count(37);
/// assert_eq!(w.bits(), 1 + 10 + 6);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Width(u32);

impl Width {
    /// The empty message.
    pub const ZERO: Width = Width(0);

    /// Total bits accumulated so far.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Adds one tag bit (an enum discriminant or presence flag).
    pub fn tag(self) -> Width {
        Width(self.0 + 1)
    }

    /// Adds one node id drawn from `{0, …, n-1}`.
    pub fn id(self, n: usize) -> Width {
        Width(self.0 + bits_for_id(n))
    }

    /// Adds one count in `{0, …, max}` (inclusive).
    pub fn count(self, max: usize) -> Width {
        Width(self.0 + bits_for_count(max))
    }

    /// Adds `bits` raw bits (for payloads measured elsewhere).
    pub fn raw(self, bits: u32) -> Width {
        Width(self.0 + bits)
    }
}

/// A typed payload wrapped with its declared encoded width and logical
/// stream — the message type of the protocol-kernel layer.
///
/// Kernels produce payloads; the host wraps each one in an `Envelope`
/// whose `width` was computed through [`Width`], so the engine's bandwidth
/// check sees an honest per-message bit count without the
/// payload type itself having to implement [`Message`].
#[derive(Clone, Debug)]
pub struct Envelope<P> {
    /// The protocol-level payload.
    pub payload: P,
    /// Declared encoded width in bits (see [`Width`]).
    pub width: u32,
    /// The logical stream this message serves (e.g. a BFS wave's root id).
    pub stream: Option<u32>,
    /// Per-kernel attribution tags (zero wire bits; see [`TraceTags`]).
    pub tags: TraceTags,
}

impl<P: Clone + std::fmt::Debug> Message for Envelope<P> {
    fn bit_size(&self) -> u32 {
        self.width
    }

    fn stream_id(&self) -> Option<u32> {
        self.stream
    }

    fn trace_tags(&self) -> TraceTags {
        self.tags
    }
}

/// Number of bits needed to encode one identifier from `{0, …, n-1}`.
///
/// Returns 1 for `n <= 2` so that even degenerate graphs exchange nonzero
/// payloads.
///
/// # Examples
///
/// ```
/// use dapsp_congest::bits_for_id;
/// assert_eq!(bits_for_id(2), 1);
/// assert_eq!(bits_for_id(1024), 10);
/// assert_eq!(bits_for_id(1025), 11);
/// ```
pub fn bits_for_id(n: usize) -> u32 {
    if n <= 2 {
        1
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Number of bits needed to encode a count in `{0, …, n}` (inclusive).
///
/// Useful for hop distances, which range over `0..=n-1` plus an "infinity"
/// sentinel.
///
/// # Examples
///
/// ```
/// use dapsp_congest::bits_for_count;
/// assert_eq!(bits_for_count(1), 1);
/// assert_eq!(bits_for_count(255), 8);
/// assert_eq!(bits_for_count(256), 9);
/// ```
pub fn bits_for_count(n: usize) -> u32 {
    if n == 0 {
        1
    } else {
        usize::BITS - n.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bits_matches_ceil_log2() {
        for n in 2..2000usize {
            let expected = (n as f64).log2().ceil() as u32;
            assert_eq!(bits_for_id(n), expected.max(1), "n={n}");
        }
    }

    #[test]
    fn count_bits_covers_inclusive_range() {
        for n in 1..2000usize {
            let b = bits_for_count(n);
            assert!((1u64 << b) > n as u64, "n={n} b={b}");
            assert!(b == 1 || (1u64 << (b - 1)) <= n as u64, "n={n} b={b}");
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(bits_for_id(0), 1);
        assert_eq!(bits_for_id(1), 1);
        assert_eq!(bits_for_count(0), 1);
    }

    #[test]
    fn width_accumulates_the_primitives() {
        assert_eq!(Width::ZERO.bits(), 0);
        assert_eq!(Width::ZERO.tag().bits(), 1);
        assert_eq!(Width::ZERO.id(1024).bits(), bits_for_id(1024));
        assert_eq!(Width::ZERO.count(255).bits(), bits_for_count(255));
        assert_eq!(Width::ZERO.raw(7).bits(), 7);
        assert_eq!(
            Width::ZERO.tag().id(100).count(50).raw(3).bits(),
            1 + bits_for_id(100) + bits_for_count(50) + 3
        );
    }

    #[test]
    fn envelope_reports_declared_width_and_stream() {
        let env = Envelope {
            payload: 42u32,
            width: Width::ZERO.tag().id(16).bits(),
            stream: Some(3),
            tags: TraceTags::default(),
        };
        assert_eq!(env.bit_size(), 1 + bits_for_id(16));
        assert_eq!(env.stream_id(), Some(3));
        assert_eq!(env.trace_tags(), TraceTags::default());
        let silent = Envelope {
            payload: (),
            width: 1,
            stream: None,
            tags: TraceTags {
                kernels: 0b10,
                retransmit: true,
                ack: false,
            },
        };
        assert_eq!(silent.stream_id(), None);
        assert_eq!(silent.trace_tags().kernels, 0b10);
        assert!(silent.trace_tags().retransmit);
    }

    #[test]
    fn default_tags_name_one_anonymous_kernel() {
        let t = TraceTags::default();
        assert_eq!(t.kernels, 1);
        assert!(!t.retransmit && !t.ack);
        // Plain messages inherit the default through the trait.
        #[derive(Clone, Debug)]
        struct Plain;
        impl Message for Plain {
            fn bit_size(&self) -> u32 {
                1
            }
        }
        assert_eq!(Plain.trace_tags(), TraceTags::default());
    }
}
