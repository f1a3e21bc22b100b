//! Exact directory sharer sets in 16 bytes.
//!
//! A [`SharerSet`] names the cores holding a line in Shared state. Most
//! sets fit one 64-core *window* (cores `64w .. 64w + 63`) and live
//! inline as a bitmap plus the window index, so every set of a machine
//! with at most 64 cores is inline. A set whose members span windows
//! *spills*: its members move to a slot of the home tile's
//! [`SharerSlab`], a `ceil(num_cores / 64)`-word bitmap recycled
//! through a free list, and the set keeps only the slot index. Nothing
//! is ever approximated, and members always come out in ascending core
//! order.
//!
//! A spilled set stays spilled until its owner releases it with
//! [`SharerSlab::release`], which the directory does on every
//! transition out of `Shared`.

use lr_sim_core::CoreId;

/// Cores per inline window (the width of the inline bitmap).
const WINDOW: usize = 64;

/// An exact set of cores: inline when its members share one 64-core
/// window, otherwise a handle to a slot of its home tile's sharer slab.
/// Every query or update of a set goes through the slab that owns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharerSet(Repr);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Repr {
    /// Members are `64 * window + i` for every set bit `i` of `bits`.
    Inline { window: u16, bits: u64 },
    /// Members are the set bits of slab slot `.0`.
    Spilled(u32),
}

impl SharerSet {
    /// The singleton set `{c}`.
    #[inline]
    pub fn only(c: CoreId) -> SharerSet {
        SharerSet(Repr::Inline {
            window: (c.idx() / WINDOW) as u16,
            bits: 1 << (c.idx() % WINDOW),
        })
    }

    /// The set of cores `i < 64` whose bit `i` is set in `mask`: the
    /// exact form of every set on a machine of at most 64 cores.
    pub fn from_mask(mask: u64) -> SharerSet {
        SharerSet(Repr::Inline {
            window: 0,
            bits: mask,
        })
    }

    /// Does this set occupy a slab slot?
    #[inline]
    pub fn is_spilled(self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }
}

/// The spill store of one home tile's directory: fixed-width bitmaps,
/// one per spilled [`SharerSet`], recycled through a free list. Released
/// slots are zeroed, so a reused slot starts empty.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SharerSlab {
    /// Words per slot: `ceil(num_cores / 64)`.
    words: usize,
    /// Slot `s` is `bits[s * words .. (s + 1) * words]`.
    bits: Vec<u64>,
    /// Released slots, reused last-in first-out.
    free: Vec<u32>,
}

impl SharerSlab {
    /// An empty slab for a machine of `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        SharerSlab {
            words: num_cores.div_ceil(WINDOW),
            bits: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of slots held by spilled sets.
    pub fn live(&self) -> usize {
        self.bits.len() / self.words - self.free.len()
    }

    #[inline]
    fn slot(&self, s: u32) -> &[u64] {
        let at = s as usize * self.words;
        &self.bits[at..at + self.words]
    }

    #[inline]
    fn slot_mut(&mut self, s: u32) -> &mut [u64] {
        let at = s as usize * self.words;
        &mut self.bits[at..at + self.words]
    }

    /// A zeroed slot: a released one if any, else a new one.
    fn alloc(&mut self) -> u32 {
        if let Some(s) = self.free.pop() {
            return s;
        }
        let s = (self.bits.len() / self.words) as u32;
        self.bits.resize(self.bits.len() + self.words, 0);
        s
    }

    /// `set` with `c` added. An inline set that `c` does not fit spills
    /// to a new slot; a spilled set is updated in its slot.
    #[must_use]
    pub fn with(&mut self, set: SharerSet, c: CoreId) -> SharerSet {
        let (w, b) = (c.idx() / WINDOW, 1u64 << (c.idx() % WINDOW));
        match set.0 {
            Repr::Inline { bits: 0, .. } => SharerSet::only(c),
            Repr::Inline { window, bits } if window as usize == w => SharerSet(Repr::Inline {
                window,
                bits: bits | b,
            }),
            Repr::Inline { window, bits } => {
                let s = self.alloc();
                let slot = self.slot_mut(s);
                slot[window as usize] = bits;
                slot[w] |= b;
                SharerSet(Repr::Spilled(s))
            }
            Repr::Spilled(s) => {
                self.slot_mut(s)[w] |= b;
                set
            }
        }
    }

    /// `set` with `c` removed. A spilled set stays in its slot, even
    /// when it empties: release it with [`SharerSlab::release`].
    #[must_use]
    pub fn without(&mut self, set: SharerSet, c: CoreId) -> SharerSet {
        let (w, b) = (c.idx() / WINDOW, 1u64 << (c.idx() % WINDOW));
        match set.0 {
            Repr::Inline { window, bits } if window as usize == w => SharerSet(Repr::Inline {
                window,
                bits: bits & !b,
            }),
            Repr::Inline { .. } => set,
            Repr::Spilled(s) => {
                self.slot_mut(s)[w] &= !b;
                set
            }
        }
    }

    /// Give a spilled set's slot back to the free list (a no-op for an
    /// inline set). The set must not be used afterwards.
    pub fn release(&mut self, set: SharerSet) {
        if let Repr::Spilled(s) = set.0 {
            debug_assert!(!self.free.contains(&s), "sharer slot {s} released twice");
            self.slot_mut(s).fill(0);
            self.free.push(s);
        }
    }

    /// Is `c` a member of `set`?
    #[inline]
    pub fn contains(&self, set: SharerSet, c: CoreId) -> bool {
        let (w, b) = (c.idx() / WINDOW, 1u64 << (c.idx() % WINDOW));
        match set.0 {
            Repr::Inline { window, bits } => window as usize == w && bits & b != 0,
            Repr::Spilled(s) => self.slot(s)[w] & b != 0,
        }
    }

    /// Is `set` empty?
    pub fn is_empty(&self, set: SharerSet) -> bool {
        match set.0 {
            Repr::Inline { bits, .. } => bits == 0,
            Repr::Spilled(s) => self.slot(s).iter().all(|&w| w == 0),
        }
    }

    /// Number of members of `set`.
    #[cfg(test)]
    fn count(&self, set: SharerSet) -> usize {
        match set.0 {
            Repr::Inline { bits, .. } => bits.count_ones() as usize,
            Repr::Spilled(s) => self.slot(s).iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Members of `set` in ascending core order. Word-skipping, so the
    /// cost scales with membership, not with the machine's width.
    pub fn iter(&self, set: SharerSet) -> impl Iterator<Item = CoreId> + '_ {
        let (inline, spilled) = match set.0 {
            Repr::Inline { window, bits } => (Some((window as usize, bits)), &[][..]),
            Repr::Spilled(s) => (None, self.slot(s)),
        };
        let words = inline
            .into_iter()
            .chain(spilled.iter().copied().enumerate());
        words.flat_map(|(w, word)| {
            let base = w * WINDOW;
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(CoreId((base + b) as u16))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_sim_core::SplitMix64;
    use std::collections::BTreeSet;

    /// Random `with`/`without`/`release` against a `BTreeSet` oracle over
    /// several live sets, checking every query after each step.
    fn oracle_run(cores: usize, seed: u64) -> usize {
        let mut rng = SplitMix64::new(seed);
        let mut slab = SharerSlab::new(cores);
        let mut sets: Vec<(SharerSet, BTreeSet<CoreId>)> =
            vec![(SharerSet::from_mask(0), BTreeSet::new()); 4];
        let mut spills = 0;
        for _ in 0..2000 {
            let k = rng.gen_range(0usize..sets.len());
            let c = CoreId(rng.gen_range(0usize..cores) as u16);
            let (set, model) = &mut sets[k];
            let was_spilled = set.is_spilled();
            match rng.gen_range(0u8..10) {
                0..=5 => {
                    *set = slab.with(*set, c);
                    model.insert(c);
                }
                6..=8 => {
                    *set = slab.without(*set, c);
                    model.remove(&c);
                }
                _ => {
                    slab.release(*set);
                    *set = SharerSet::from_mask(0);
                    model.clear();
                }
            }
            if set.is_spilled() && !was_spilled {
                spills += 1;
            }
            if cores <= WINDOW {
                assert!(!set.is_spilled(), "{cores}-core set spilled");
            }
            for (set, model) in &sets {
                assert_eq!(
                    slab.iter(*set).collect::<Vec<_>>(),
                    model.iter().copied().collect::<Vec<_>>()
                );
                assert_eq!(slab.count(*set), model.len());
                assert_eq!(slab.is_empty(*set), model.is_empty());
                for probe in [c, CoreId(0), CoreId((cores - 1) as u16)] {
                    assert_eq!(slab.contains(*set, probe), model.contains(&probe));
                }
            }
            let spilled = sets.iter().filter(|(s, _)| s.is_spilled()).count();
            assert_eq!(slab.live(), spilled, "slab slots leaked or double-counted");
        }
        spills
    }

    #[test]
    fn sharer_sets_match_btreeset_oracle() {
        for cores in [8, 64, 65, 1024] {
            for seed in 0..8 {
                let spills = oracle_run(cores, 0x5_4a7e + seed);
                if cores > WINDOW {
                    assert!(spills > 0, "{cores} cores, seed {seed}: no spill exercised");
                }
            }
        }
    }

    #[test]
    fn released_slots_are_reused_zeroed() {
        let mut slab = SharerSlab::new(130);
        let a = slab.with(SharerSet::only(CoreId(1)), CoreId(129));
        assert!(a.is_spilled());
        let b = slab.with(SharerSet::only(CoreId(64)), CoreId(0));
        assert_eq!(slab.live(), 2);
        slab.release(a);
        assert_eq!(slab.live(), 1);
        let c = slab.with(SharerSet::only(CoreId(2)), CoreId(70));
        assert_eq!(c, a, "a released slot is reused first");
        assert_eq!(slab.iter(c).map(|c| c.idx()).collect::<Vec<_>>(), [2, 70]);
        assert_eq!(slab.iter(b).map(|c| c.idx()).collect::<Vec<_>>(), [0, 64]);
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn inline_sets_keep_ascending_order_in_high_windows() {
        let mut slab = SharerSlab::new(1024);
        let mut s = SharerSet::only(CoreId(1023));
        for c in [960, 1000, 961] {
            s = slab.with(s, CoreId(c));
        }
        assert!(!s.is_spilled());
        assert_eq!(
            slab.iter(s).map(|c| c.idx()).collect::<Vec<_>>(),
            [960, 961, 1000, 1023]
        );
    }
}
