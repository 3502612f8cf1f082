//! One record per outstanding segment at index `seq − base`: BBR's send
//! records and TCP-PR's `to-be-ack` list. Segment numbers are dense between
//! the cumulative ACK and `snd_nxt`, so a ring finds a record by
//! subtraction where a tree or a hash table searched for it, and the
//! cumulative ACK pops what it acknowledges off the front.

use std::collections::VecDeque;

/// Records keyed by sequence number from `base` up; `None` marks a segment
/// with no record at the moment.
#[derive(Debug, Clone)]
pub struct SeqRing<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for SeqRing<T> {
    fn default() -> Self {
        SeqRing { base: 0, slots: VecDeque::new() }
    }
}

impl<T> SeqRing<T> {
    fn index(&self, seq: u64) -> Option<usize> {
        seq.checked_sub(self.base).map(|i| i as usize)
    }

    /// The record of `seq`, if it has one.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.slots.get(self.index(seq)?)?.as_ref()
    }

    /// The slot of `seq`, if the ring reaches it: read, replace or `take`.
    pub fn slot_mut(&mut self, seq: u64) -> Option<&mut Option<T>> {
        let i = self.index(seq)?;
        self.slots.get_mut(i)
    }

    /// Stores `record` for `seq`, growing the ring up to it.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is below `base`.
    pub fn set(&mut self, seq: u64, record: T) {
        let i = self.index(seq).expect("record below the ring's base");
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(record);
    }

    /// Pops the lowest slot if it lies below `cum`. Once this returns
    /// `None` the ring starts at `cum` or above — also when `cum` lay beyond
    /// every slot.
    pub fn pop_below(&mut self, cum: u64) -> Option<(u64, Option<T>)> {
        if self.base >= cum {
            return None;
        }
        let Some(slot) = self.slots.pop_front() else {
            self.base = cum;
            return None;
        };
        self.base += 1;
        Some((self.base - 1, slot))
    }

    /// The records held, lowest sequence number first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.base..).zip(&self.slots).filter_map(|(seq, slot)| Some((seq, slot.as_ref()?)))
    }

    /// Mutable access to every record held.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_sit_at_their_sequence_number() {
        let mut ring = SeqRing::default();
        ring.set(2, 'c');
        ring.set(0, 'a');
        assert_eq!(
            (ring.get(0), ring.get(1), ring.get(2), ring.get(3)),
            (Some(&'a'), None, Some(&'c'), None)
        );
        assert_eq!(ring.slot_mut(2).and_then(Option::take), Some('c'));
        assert_eq!(ring.iter().collect::<Vec<_>>(), vec![(0, &'a')]);
        ring.values_mut().for_each(|v| *v = 'z');
        assert_eq!(ring.pop_below(2), Some((0, Some('z'))));
        assert_eq!(ring.pop_below(2), Some((1, None)));
        assert_eq!(ring.pop_below(2), None);
        assert_eq!(ring.get(1), None, "below the base");
        ring.set(2, 'd');
        assert_eq!(ring.iter().collect::<Vec<_>>(), vec![(2, &'d')]);
    }

    #[test]
    fn base_follows_an_ack_beyond_the_window() {
        let mut ring = SeqRing::default();
        ring.set(0, 0u8);
        ring.set(1, 1u8);
        let popped: Vec<u64> = std::iter::from_fn(|| ring.pop_below(10)).map(|(s, _)| s).collect();
        assert_eq!(popped, vec![0, 1]);
        // A record for the next segment sent lands in slot 0, not slot 8.
        ring.set(10, 10u8);
        assert_eq!(ring.iter().collect::<Vec<_>>(), vec![(10, &10)]);
        assert_eq!(ring.slots.len(), 1);
    }
}
