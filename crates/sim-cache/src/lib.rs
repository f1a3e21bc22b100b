//! # lr-sim-cache
//!
//! Set-associative cache *timing/state* model used for both the private L1
//! caches and the shared L2 slices of the simulated machine.
//!
//! The cache stores no data — the simulator is timing-first and data lives
//! in the authoritative `lr_sim_mem::SimMemory` store — only tags, a
//! per-cache true-LRU ordering, a per-line *pin* flag, and a caller-chosen
//! payload per line (coherence state, directory entry, ...).
//!
//! Pinning implements the paper's §5 requirement that leased lines stay
//! resident: "the lease table mirrors the load buffer", i.e. a leased line
//! cannot be chosen as an eviction victim.
//!
//! The ways are stored column-wise: one contiguous tag array, scanned by
//! every lookup, and separate LRU-stamp, pin and payload arrays that
//! only a hit or a fill touches. An 8-way set's tags are 64 B, one host
//! cache line, whatever the payload size.

use lr_sim_core::LineAddr;

/// Tag of an empty way. Never a real line: line addresses are byte
/// addresses divided by the 64 B line size.
const EMPTY: LineAddr = LineAddr(u64::MAX);

/// Result of [`SetAssocCache::insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum Inserted<T> {
    /// The line fit without evicting anyone.
    NoVictim,
    /// The line displaced `(victim line, victim payload)`.
    Evicted(LineAddr, T),
    /// Every way of the target set is pinned; the line was *not* inserted.
    ///
    /// With `MAX_NUM_LEASES` far below L1 associativity × sets this can
    /// only happen under adversarial aliasing; callers fall back to
    /// releasing a lease (see `lr-lease`).
    AllPinned,
}

/// A set-associative cache with true LRU and pinnable lines.
///
/// Way `i` of the flat arrays is resident iff `tags[i] != EMPTY`, and
/// then `payload[i]` is `Some`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SetAssocCache<T> {
    sets: usize,
    ways: usize,
    /// Line held by each way, [`EMPTY`] when invalid.
    tags: Vec<LineAddr>,
    /// Monotone use stamp per way; smallest = least recently used.
    lru: Vec<u64>,
    pinned: Vec<bool>,
    payload: Vec<Option<T>>,
    clock: u64,
}

impl<T> SetAssocCache<T> {
    /// A cache with `sets` sets of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        let n = sets * ways;
        let mut payload = Vec::new();
        payload.resize_with(n, || None);
        SetAssocCache {
            sets,
            ways,
            tags: vec![EMPTY; n],
            lru: vec![0; n],
            pinned: vec![false; n],
            payload,
            clock: 0,
        }
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let s = (line.0 as usize) % self.sets * self.ways;
        s..s + self.ways
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let r = self.set_range(line);
        let start = r.start;
        self.tags[r]
            .iter()
            .position(|&t| t == line)
            .map(|i| start + i)
    }

    /// Place `line` in the (invalid or evicted) way `i` as the MRU line.
    fn fill(&mut self, i: usize, line: LineAddr, payload: T) -> Option<T> {
        self.tags[i] = line;
        self.lru[i] = self.clock;
        self.pinned[i] = false;
        self.payload[i].replace(payload)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is `line` resident?
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Payload of `line`, if resident. Does not touch LRU state.
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        self.find(line).and_then(|i| self.payload[i].as_ref())
    }

    /// Mutable payload of `line`, if resident. Does not touch LRU state.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.find(line).and_then(|i| self.payload[i].as_mut())
    }

    /// Payload of `line`, marking it most-recently-used.
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut T> {
        let i = self.find(line)?;
        self.clock += 1;
        self.lru[i] = self.clock;
        self.payload[i].as_mut()
    }

    /// Insert `line` (must not be resident), evicting the LRU non-pinned
    /// way of its set if the set is full.
    pub fn insert(&mut self, line: LineAddr, payload: T) -> Inserted<T> {
        debug_assert!(!self.contains(line), "insert of resident line {line}");
        debug_assert_ne!(line, EMPTY, "the empty-way tag is not a line");
        self.clock += 1;
        let range = self.set_range(line);

        // Prefer the first invalid way.
        if let Some(i) = range.clone().find(|&i| self.tags[i] == EMPTY) {
            self.fill(i, line, payload);
            return Inserted::NoVictim;
        }

        // Otherwise evict the least-recently-used non-pinned way.
        let victim = range
            .filter(|&i| !self.pinned[i])
            .min_by_key(|&i| self.lru[i]);
        match victim {
            None => Inserted::AllPinned,
            Some(i) => {
                let vline = self.tags[i];
                let old = self.fill(i, line, payload);
                Inserted::Evicted(vline, old.expect("resident way has a payload"))
            }
        }
    }

    /// Remove `line`, returning its payload.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let i = self.find(line)?;
        // Reset the whole way, so equal contents compare equal.
        self.tags[i] = EMPTY;
        self.lru[i] = 0;
        self.pinned[i] = false;
        self.payload[i].take()
    }

    /// Pin or unpin `line`. Returns false if the line is not resident.
    pub fn set_pinned(&mut self, line: LineAddr, pinned: bool) -> bool {
        match self.find(line) {
            Some(i) => {
                self.pinned[i] = pinned;
                true
            }
            None => false,
        }
    }

    /// Is `line` pinned?
    pub fn is_pinned(&self, line: LineAddr) -> bool {
        self.find(line).is_some_and(|i| self.pinned[i])
    }

    /// Iterate over `(line, payload)` of all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.tags
            .iter()
            .zip(&self.payload)
            .filter_map(|(&t, p)| Some((t, p.as_ref()?)))
    }

    /// All pinned lines in the set that `line` maps to (used to pick a
    /// lease to force-release when a fill finds its whole set pinned).
    pub fn pinned_in_set(&self, line: LineAddr) -> Vec<LineAddr> {
        self.set_range(line)
            .filter(|&i| self.tags[i] != EMPTY && self.pinned[i])
            .map(|i| self.tags[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn hit_and_miss() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.contains(line(1)));
        assert_eq!(c.insert(line(1), 'a'), Inserted::NoVictim);
        assert!(c.contains(line(1)));
        assert_eq!(c.peek(line(1)), Some(&'a'));
        assert_eq!(c.peek(line(5)), None); // same set (5 % 4 == 1), not resident
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set, 2 ways: lines 0 and 1 fill it; touching 0 makes 1 the victim.
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        c.touch(line(0));
        match c.insert(line(2), 2) {
            Inserted::Evicted(l, p) => {
                assert_eq!(l, line(1));
                assert_eq!(p, 1);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(line(0)));
        assert!(c.contains(line(2)));
    }

    #[test]
    fn pinned_lines_survive_eviction() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        assert!(c.set_pinned(line(0), true));
        // line 0 is LRU but pinned: line 1 must be evicted instead.
        match c.insert(line(2), 2) {
            Inserted::Evicted(l, _) => assert_eq!(l, line(1)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(line(0)));
    }

    #[test]
    fn all_pinned_refuses_insert() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        c.set_pinned(line(0), true);
        c.set_pinned(line(1), true);
        assert_eq!(c.insert(line(2), 2), Inserted::AllPinned);
        assert!(!c.contains(line(2)));
        // Unpinning restores normal replacement.
        c.set_pinned(line(0), false);
        assert!(matches!(c.insert(line(2), 2), Inserted::Evicted(l, _) if l == line(0)));
    }

    #[test]
    fn remove_and_reinsert() {
        let mut c = SetAssocCache::new(2, 2);
        c.insert(line(0), 'x');
        assert_eq!(c.remove(line(0)), Some('x'));
        assert_eq!(c.remove(line(0)), None);
        assert_eq!(c.insert(line(0), 'y'), Inserted::NoVictim);
    }

    #[test]
    fn set_indexing_separates_sets() {
        let mut c = SetAssocCache::new(4, 1);
        // Lines 0..4 map to distinct sets: no evictions.
        for i in 0..4 {
            assert_eq!(c.insert(line(i), i), Inserted::NoVictim);
        }
        assert_eq!(c.len(), 4);
        // Line 4 aliases with line 0.
        assert!(matches!(c.insert(line(4), 4), Inserted::Evicted(l, _) if l == line(0)));
    }

    #[test]
    fn iter_sees_all_resident() {
        let mut c = SetAssocCache::new(8, 2);
        for i in 0..10 {
            c.insert(line(i), i);
        }
        let mut lines: Vec<u64> = c.iter().map(|(l, _)| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pin_missing_line_returns_false() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(2, 1);
        assert!(!c.set_pinned(line(9), true));
        assert!(!c.is_pinned(line(9)));
    }

    #[test]
    fn touch_updates_payload_access() {
        let mut c = SetAssocCache::new(1, 1);
        c.insert(line(3), 10);
        if let Some(p) = c.touch(line(3)) {
            *p += 1;
        }
        assert_eq!(c.peek(line(3)), Some(&11));
        assert!(c.touch(line(4)).is_none());
    }
}
