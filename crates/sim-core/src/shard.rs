//! Tile-keyed event queue: the engine's one event store.
//!
//! [`TileQueue`] wraps a single wheel-backed [`EventQueue`] and stamps
//! every push with the tile that sent it.
//!
//! # Determinism: canonical keys
//!
//! Every push is stamped with a **canonical key**
//! `(src_tile << 48) | per-src-tile push counter`. The key is a pure
//! function of simulated causality: tile `s`'s pushes happen during
//! `s`'s own events, in `s`'s deterministic event order, in fixed code
//! order within each event — so the k-th push by tile `s` is *the same
//! push* whatever order other tiles' handlers pushed in. Popping by
//! `(time, key)` in [`TileQueue::pop_global`] is the same-cycle
//! tie-break the integration goldens and the `corpus/` traces were
//! captured under.
//!
//! # Tile locality
//!
//! An event scheduled for another tile models a NoC message, so its
//! delivery time is at least `min_cross_latency` — the minimum
//! cross-tile message latency ([`Mesh::min_cross_latency`] in
//! `lr-sim-noc`) — after the send instant. Debug builds assert this on
//! every push whose source tile differs from its destination tile; a
//! failure is a handler reaching another tile's state faster than a
//! message could.

use crate::event::EventQueue;
use crate::Cycle;

/// Bits of the canonical key holding the per-src-tile push counter.
const KEY_CTR_BITS: u32 = 48;

/// One [`EventQueue`] ordered by canonical `(time, key)` (module docs).
#[derive(Debug)]
pub struct TileQueue<E> {
    queue: EventQueue<E>,
    /// Minimum delay of a push whose destination is another tile.
    min_cross_latency: Cycle,
    /// Per-src-tile push counters — the low 48 key bits.
    tile_ctr: Vec<u64>,
}

impl<E> TileQueue<E> {
    /// An empty queue over `tiles` tiles whose cross-tile pushes must
    /// land at least `min_cross_latency` after their send.
    pub fn new(tiles: usize, min_cross_latency: Cycle) -> Self {
        assert!(tiles >= 1, "tile queue over zero tiles");
        TileQueue {
            queue: EventQueue::new(),
            min_cross_latency,
            tile_ctr: vec![0; tiles],
        }
    }

    /// Global simulated time: the last `pop_global` timestamp.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.queue.now()
    }

    /// Total events popped.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedule `payload` at `time` for `dest_tile`, pushed by the
    /// handler of an event at tile `src_tile` whose timestamp is
    /// `send_now` (pre-run setup passes `src_tile == dest_tile`,
    /// `send_now == 0`).
    ///
    /// The push is stamped with the canonical key derived from
    /// `src_tile` (module docs). Cross-tile sends must honour
    /// `min_cross_latency` (debug-asserted — in the machine every such
    /// push rides a NoC message at least that slow).
    pub fn push(
        &mut self,
        src_tile: usize,
        send_now: Cycle,
        dest_tile: usize,
        time: Cycle,
        payload: E,
    ) {
        assert!(
            time >= send_now,
            "event scheduled in the past: t={time} < send time {send_now}"
        );
        debug_assert!(
            src_tile == dest_tile || time >= send_now.saturating_add(self.min_cross_latency),
            "cross-tile event violates min_cross_latency: t={time} < send={send_now} + {} \
             (tile {src_tile} -> {dest_tile})",
            self.min_cross_latency,
        );
        let ctr = self.tile_ctr[src_tile];
        self.tile_ctr[src_tile] = ctr + 1;
        assert!(
            ctr < 1u64 << KEY_CTR_BITS,
            "canonical key counter overflow at tile {src_tile}"
        );
        let key = ((src_tile as u64) << KEY_CTR_BITS) | ctr;
        self.queue.push_at_seq(time, key, payload);
    }

    /// Pop the globally earliest event by `(time, key)`. Returns
    /// `(time, payload)`.
    #[inline]
    pub fn pop_global(&mut self) -> Option<(Cycle, E)> {
        self.queue.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_global_merges_partitions_in_time_key_order() {
        // Pops merge tiles' pushes by time, then by canonical key.
        let mut q: TileQueue<&str> = TileQueue::new(4, 0);
        // Setup pushes: src == dest.
        q.push(0, 0, 0, 5, "a@t0");
        q.push(3, 0, 3, 5, "b@t3");
        q.push(0, 0, 0, 2, "c@t0");
        assert_eq!(q.pop_global(), Some((2, "c@t0")));
        // Same time across tiles: canonical key (src tile, then
        // per-tile counter) decides — tile 0 before tile 3.
        assert_eq!(q.pop_global(), Some((5, "a@t0")));
        assert_eq!(q.pop_global(), Some((5, "b@t3")));
        assert_eq!(q.pop_global(), None);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn canonical_key_orders_same_time_pushes_by_src_tile_not_push_order() {
        // Tile 2 pushes first, tile 1 second, both for tile 0 at t=5:
        // the pop order must be tile 1's event first, regardless of
        // push order.
        let mut q: TileQueue<&str> = TileQueue::new(4, 1);
        q.push(2, 0, 0, 5, "from-tile-2");
        q.push(1, 0, 0, 5, "from-tile-1");
        assert_eq!(q.pop_global(), Some((5, "from-tile-1")));
        assert_eq!(q.pop_global(), Some((5, "from-tile-2")));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "violates min_cross_latency")]
    fn lookahead_violation_is_caught_in_debug() {
        // A tile 0 -> tile 3 push below the cross-tile bound panics.
        let mut q: TileQueue<u32> = TileQueue::new(4, 10);
        q.push(0, 0, 0, 0, 0);
        q.pop_global();
        q.push(0, 0, 3, 5, 1); // 5 < send(0) + min_cross_latency(10)
    }
}
