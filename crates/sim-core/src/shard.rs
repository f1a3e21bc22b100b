//! Conservatively-synchronized partitioned event queue (PDES core).
//!
//! [`ShardedQueue`] splits the simulation's event space into N
//! partitions sharded by tile (core + L1 + lease table + L2 home
//! slice). Each partition owns a full [`EventQueue`] instance — its own
//! timing wheel, its own local clock — and cross-partition scheduling
//! travels through per-source *outboxes* of envelopes, exactly like NoC
//! messages crossing a partition boundary.
//!
//! # Determinism: canonical keys
//!
//! Every push is stamped with a **canonical key**
//! `(src_tile << 48) | per-src-tile push counter`. The key is a pure
//! function of simulated causality: tile `s`'s pushes happen during
//! `s`'s own events, in `s`'s deterministic event order, in fixed code
//! order within each event — so the k-th push by tile `s` is *the same
//! push* no matter how many partitions the queue uses. Merging heads by
//! `(time, key)` in [`ShardedQueue::pop_global`] therefore yields one
//! total order that every partition count reproduces byte-for-byte.
//!
//! # Lookahead
//!
//! Cross-partition events model NoC messages, so their delivery time is
//! at least `lookahead` — the minimum cross-tile message latency
//! ([`Mesh::min_cross_latency`] in `lr-sim-noc`) — after the send
//! instant (debug-asserted on every cross-partition push). The queue
//! counts the events that pass the conservative safe-time test against
//! the other partitions' heads ([`ShardedQueue::concurrent_events`]) and
//! the lookahead windows the global clock crosses
//! ([`ShardedQueue::epochs`]): the concurrency headroom a partitioned
//! executor would have, measured on the sequential commit order.

use crate::event::{EventQueue, EventQueueKind};
use crate::Cycle;

/// Static tile → partition assignment: contiguous, balanced blocks of
/// tiles (`partition_of(t) = t·P/T`), so L2 home slices of neighbouring
/// tiles stay co-resident and the mesh distance between partitions is
/// the distance between tile blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMap {
    tiles: usize,
    parts: usize,
}

impl PartitionMap {
    /// A map of `tiles` tiles onto `parts` partitions. `parts` is
    /// clamped to `1..=tiles`: more partitions than tiles would leave
    /// some empty, fewer than one is meaningless.
    pub fn new(tiles: usize, parts: usize) -> Self {
        assert!(tiles >= 1, "partition map over zero tiles");
        PartitionMap {
            tiles,
            parts: parts.clamp(1, tiles),
        }
    }

    /// The partition owning `tile`.
    #[inline]
    pub fn partition_of(&self, tile: usize) -> usize {
        debug_assert!(tile < self.tiles, "tile {tile} out of range");
        tile * self.parts / self.tiles
    }

    /// Number of partitions (≥ 1, ≤ tiles).
    #[inline]
    pub fn partitions(&self) -> usize {
        self.parts
    }

    /// Number of tiles.
    #[inline]
    pub fn tiles(&self) -> usize {
        self.tiles
    }
}

/// Bits of the canonical key holding the per-src-tile push counter.
const KEY_CTR_BITS: u32 = 48;

/// One cross-partition message: payload plus its canonical merge key.
#[derive(Debug)]
struct Envelope<E> {
    time: Cycle,
    key: u64,
    payload: E,
}

/// N per-partition [`EventQueue`]s + deterministic `(time, key)` merge
/// (module docs).
#[derive(Debug)]
pub struct ShardedQueue<E> {
    parts: Vec<EventQueue<E>>,
    /// Cross-partition sends staged per *source* partition
    /// (`outboxes[src][dest]`), delivered at the next `pop_global`.
    outboxes: Vec<Vec<Vec<Envelope<E>>>>,
    map: PartitionMap,
    /// Minimum cross-partition delivery delay (NoC lookahead).
    lookahead: Cycle,
    /// Per-src-tile push counters — the low 48 key bits.
    tile_ctr: Vec<u64>,
    now: Cycle,
    /// Cross-partition pushes (outbox traffic).
    cross: u64,
    /// Events that satisfied the conservative safe-time test at
    /// `pop_global`: `t < min(other partitions' heads) + lookahead`.
    concurrent_events: u64,
    /// Lookahead windows crossed (safe-time epoch counter).
    epochs: u64,
    epoch_horizon: Cycle,
}

impl<E> ShardedQueue<E> {
    /// A sharded queue over `tiles` tiles in `parts` partitions (see
    /// [`PartitionMap::new`] for clamping), every partition backed by
    /// `kind`, with the given cross-partition `lookahead`.
    pub fn with_kind(kind: EventQueueKind, tiles: usize, parts: usize, lookahead: Cycle) -> Self {
        let map = PartitionMap::new(tiles, parts);
        let n = map.partitions();
        ShardedQueue {
            parts: (0..n).map(|_| EventQueue::with_kind(kind)).collect(),
            outboxes: (0..n)
                .map(|_| (0..n).map(|_| Vec::new()).collect())
                .collect(),
            map,
            lookahead,
            tile_ctr: vec![0; tiles],
            now: 0,
            cross: 0,
            concurrent_events: 0,
            epochs: 0,
            epoch_horizon: 0,
        }
    }

    /// The backing store every partition uses.
    pub fn kind(&self) -> EventQueueKind {
        self.parts[0].kind()
    }

    /// The tile → partition map.
    pub fn map(&self) -> PartitionMap {
        self.map
    }

    /// Global simulated time: the last `pop_global` timestamp.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Total events popped across all partitions.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.parts.iter().map(EventQueue::processed).sum()
    }

    /// Pending events across partitions and outboxes.
    pub fn len(&self) -> usize {
        self.parts.iter().map(EventQueue::len).sum::<usize>()
            + self
                .outboxes
                .iter()
                .flat_map(|row| row.iter().map(Vec::len))
                .sum::<usize>()
    }

    /// True if no events are pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cross-partition pushes so far (outbox traffic).
    #[inline]
    pub fn cross_events(&self) -> u64 {
        self.cross
    }

    /// Events that passed the conservative safe-time test (see field).
    #[inline]
    pub fn concurrent_events(&self) -> u64 {
        self.concurrent_events
    }

    /// Safe-time epochs (lookahead windows) crossed so far.
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The cross-partition lookahead this queue enforces.
    #[inline]
    pub fn lookahead(&self) -> Cycle {
        self.lookahead
    }

    /// Schedule `payload` at `time` for the partition owning
    /// `dest_tile`, pushed by the handler of an event at tile
    /// `src_tile` whose timestamp is `send_now` (pre-run setup passes
    /// `src_tile == dest_tile`, `send_now == 0`).
    ///
    /// The push is stamped with the canonical key derived from
    /// `src_tile` (module docs). Same-partition pushes go straight into
    /// the owner's queue; cross-partition pushes are staged in the
    /// source partition's outbox and delivered at the next
    /// [`ShardedQueue::pop_global`]. Cross-partition sends must honour
    /// the lookahead (debug-asserted — in the machine every such push
    /// rides a NoC message whose latency is at least the lookahead).
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
        let src = self.map.partition_of(src_tile);
        let dest = self.map.partition_of(dest_tile);
        let ctr = self.tile_ctr[src_tile];
        self.tile_ctr[src_tile] = ctr + 1;
        assert!(
            ctr < 1u64 << KEY_CTR_BITS,
            "canonical key counter overflow at tile {src_tile}"
        );
        let key = ((src_tile as u64) << KEY_CTR_BITS) | ctr;
        if src == dest {
            self.parts[dest].push_at_seq(time, key, payload);
        } else {
            debug_assert!(
                time >= send_now + self.lookahead,
                "cross-partition event violates lookahead: t={} < send={} + lookahead={} \
                 (partition {src} -> {dest})",
                time,
                send_now,
                self.lookahead,
            );
            self.cross += 1;
            self.outboxes[src][dest].push(Envelope { time, key, payload });
        }
    }

    /// Drain every outbox into its destination partition queue. The
    /// per-queue ordered insertion restores `(time, key)` order no
    /// matter the interleaving the envelopes were staged in.
    fn deliver_all(&mut self) {
        for src in 0..self.outboxes.len() {
            for dest in 0..self.outboxes[src].len() {
                if self.outboxes[src][dest].is_empty() {
                    continue;
                }
                let mut staged = std::mem::take(&mut self.outboxes[src][dest]);
                for env in staged.drain(..) {
                    self.parts[dest].push_at_seq(env.time, env.key, env.payload);
                }
                // Hand the (empty, capacity-retaining) buffer back.
                self.outboxes[src][dest] = staged;
            }
        }
    }

    /// Minimum partition head by `(time, key)` (outboxes must already
    /// be drained).
    fn min_head(&self) -> Option<(Cycle, u64, usize)> {
        let mut best: Option<(Cycle, u64, usize)> = None;
        for (p, q) in self.parts.iter().enumerate() {
            if let Some((t, s)) = q.peek_key() {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, p));
                }
            }
        }
        best
    }

    /// Pop the globally earliest event: deliver outbox traffic, merge
    /// partition heads by `(time, key)`, pop from the winning
    /// partition. Returns `(time, partition, payload)`.
    pub fn pop_global(&mut self) -> Option<(Cycle, usize, E)> {
        self.deliver_all();
        let (_, _, p) = self.min_head()?;
        // Safe-time test against the other partitions *before* popping.
        let mut other_min: Option<Cycle> = None;
        for (q, queue) in self.parts.iter().enumerate() {
            if q != p {
                if let Some(t) = queue.peek_time() {
                    other_min = Some(other_min.map_or(t, |m| m.min(t)));
                }
            }
        }
        let (time, _key, payload) = self.parts[p].pop_keyed().expect("head vanished");
        self.now = time;
        // Epoch/horizon sums must not wrap the 64-bit clock: a wrap
        // would silently misclassify every later event, so fail loudly
        // (same discipline as `EventQueue::push_after`).
        if let Some(m) = other_min {
            let horizon = m.checked_add(self.lookahead).unwrap_or_else(|| {
                panic!(
                    "protocol invariant violated at cycle {time}: safe-time horizon \
                     {m} + lookahead {} overflows the simulated clock",
                    self.lookahead
                )
            });
            if time < horizon {
                self.concurrent_events += 1;
            }
        }
        if time >= self.epoch_horizon {
            self.epochs += 1;
            self.epoch_horizon = time.checked_add(self.lookahead.max(1)).unwrap_or_else(|| {
                panic!(
                    "protocol invariant violated at cycle {time}: epoch horizon \
                     {time} + lookahead {} overflows the simulated clock",
                    self.lookahead.max(1)
                )
            });
        }
        Some((time, p, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_map_is_contiguous_balanced_and_surjective() {
        for tiles in 1..=16usize {
            for parts in 1..=tiles {
                let m = PartitionMap::new(tiles, parts);
                assert_eq!(m.partitions(), parts);
                let assignment: Vec<usize> = (0..tiles).map(|t| m.partition_of(t)).collect();
                // Monotone (contiguous blocks) and surjective.
                assert!(assignment.windows(2).all(|w| w[0] <= w[1]));
                assert_eq!(assignment[0], 0);
                assert_eq!(assignment[tiles - 1], parts - 1);
                // Balanced: block sizes differ by at most one.
                let mut sizes = vec![0usize; parts];
                for &p in &assignment {
                    sizes[p] += 1;
                }
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1, "tiles={tiles} parts={parts} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn oversized_partition_count_clamps_to_tiles() {
        let m = PartitionMap::new(4, 64);
        assert_eq!(m.partitions(), 4);
        assert_eq!(PartitionMap::new(4, 0).partitions(), 1);
    }

    #[test]
    fn pop_global_merges_partitions_in_time_key_order() {
        let mut q: ShardedQueue<&str> = ShardedQueue::with_kind(EventQueueKind::Wheel, 4, 2, 0);
        // Setup pushes: src == dest.
        q.push(0, 0, 0, 5, "a@p0");
        q.push(3, 0, 3, 5, "b@p1");
        q.push(0, 0, 0, 2, "c@p0");
        assert_eq!(q.pop_global(), Some((2, 0, "c@p0")));
        // Same time across partitions: canonical key (src tile, then
        // per-tile counter) decides — tile 0 before tile 3.
        assert_eq!(q.pop_global(), Some((5, 0, "a@p0")));
        assert_eq!(q.pop_global(), Some((5, 1, "b@p1")));
        assert_eq!(q.pop_global(), None);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn canonical_key_orders_same_time_pushes_by_src_tile_not_push_order() {
        // Tile 2 pushes first, tile 1 second, both for tile 0 at t=5:
        // the merged order must be tile 1's event first, regardless of
        // push order — this is what makes the order invariant under
        // every partition count.
        for kind in [EventQueueKind::Heap, EventQueueKind::Wheel] {
            let mut q: ShardedQueue<&str> = ShardedQueue::with_kind(kind, 4, 1, 1);
            q.push(2, 0, 0, 5, "from-tile-2");
            q.push(1, 0, 0, 5, "from-tile-1");
            assert_eq!(q.pop_global(), Some((5, 0, "from-tile-1")));
            assert_eq!(q.pop_global(), Some((5, 0, "from-tile-2")));
        }
    }

    #[test]
    fn cross_partition_pushes_travel_through_the_outbox() {
        let mut q: ShardedQueue<u32> = ShardedQueue::with_kind(EventQueueKind::Wheel, 4, 4, 2);
        q.push(0, 0, 0, 0, 0);
        assert_eq!(q.pop_global(), Some((0, 0, 0)));
        // Handler of tile 0's event at t=0 schedules for tile 3
        // (partition 3): staged in the outbox, honouring lookahead 2.
        q.push(0, 0, 3, 2, 1);
        q.push(0, 0, 0, 1, 2); // same-partition: direct, no envelope
        assert_eq!(q.cross_events(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_global(), Some((1, 0, 2)));
        assert_eq!(q.pop_global(), Some((2, 3, 1)));
        assert_eq!(q.cross_events(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "violates lookahead")]
    fn lookahead_violation_is_caught_in_debug() {
        let mut q: ShardedQueue<u32> = ShardedQueue::with_kind(EventQueueKind::Wheel, 4, 4, 10);
        q.push(0, 0, 0, 0, 0);
        q.pop_global();
        q.push(0, 0, 3, 5, 1); // 5 < send(0) + lookahead(10)
    }

    #[test]
    fn single_partition_never_envelopes() {
        let mut q: ShardedQueue<u32> = ShardedQueue::with_kind(EventQueueKind::Heap, 8, 1, 3);
        q.push(0, 0, 0, 0, 0);
        q.pop_global();
        for tile in 0..8 {
            q.push(0, 0, tile, 1, tile as u32);
        }
        assert_eq!(q.cross_events(), 0);
        for tile in 0..8 {
            assert_eq!(q.pop_global(), Some((1, 0, tile as u32)));
        }
    }

    #[test]
    fn safe_time_accounting_counts_concurrent_events() {
        let mut q: ShardedQueue<u32> = ShardedQueue::with_kind(EventQueueKind::Wheel, 2, 2, 100);
        // Heads 10 (p0) and 50 (p1): both within one lookahead window.
        q.push(0, 0, 0, 10, 0);
        q.push(1, 0, 1, 50, 1);
        q.pop_global(); // t=10: other head 50, 10 < 50+100 → concurrent
        q.pop_global(); // t=50: no other head → not counted
        assert_eq!(q.concurrent_events(), 1);
        assert!(q.epochs() >= 1);
    }
}
