//! A slab: values that sit still while 4-byte keys to them move.
//!
//! [`Slab::insert`] writes a value once and hands back the `u32` index of its
//! slot; [`Slab::remove`] reads it out once. Vacant slots hold the free list
//! themselves — each one names the next — so the slab never outgrows its
//! high-water mark ([`Slab::peak`]) and a busy slab allocates only while that
//! mark rises. The event queue keeps its payloads here (the heap sifts keys)
//! and the simulator its in-flight packets (events and link queues carry
//! `PacketId`s).
//!
//! Keys are plain indices, not generations: using one after its value was
//! removed panics at the slot's `Full`/`Free` tag if the slot is vacant, and
//! aliases the new tenant if it was reused — which the oracle's
//! `LeakedPacket` law is there to catch for the packet arena.

use std::mem;

/// One entry: a value, or a link of the free list.
#[derive(Debug)]
enum Slot<T> {
    Full(T),
    /// Vacant; holds the next vacant slot, if any.
    Free(Option<u32>),
}

/// See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free list threaded through the vacant slots.
    free: Option<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new(), free: None, len: 0 }
    }
}

impl<T> Slab<T> {
    /// Stores `value` in a vacant slot (the one vacated last, if any) and
    /// returns the slot's index.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        match self.free {
            Some(key) => {
                let Slot::Free(next) =
                    mem::replace(&mut self.slots[key as usize], Slot::Full(value))
                else {
                    unreachable!("free list points at a full slot")
                };
                self.free = next;
                key
            }
            None => {
                let key = u32::try_from(self.slots.len()).expect("over u32::MAX live entries");
                self.slots.push(Slot::Full(value));
                key
            }
        }
    }

    /// Takes the value out of slot `key`, which joins the free list.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant (`key` is stale).
    pub(crate) fn remove(&mut self, key: u32) -> T {
        let Slot::Full(value) = mem::replace(&mut self.slots[key as usize], Slot::Free(self.free))
        else {
            stale(key)
        };
        self.free = Some(key);
        self.len -= 1;
        value
    }

    /// The value in slot `key`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant (`key` is stale).
    pub(crate) fn get(&self, key: u32) -> &T {
        match &self.slots[key as usize] {
            Slot::Full(value) => value,
            Slot::Free(_) => stale(key),
        }
    }

    /// The value in slot `key`, mutably; panics like [`Slab::get`].
    pub(crate) fn get_mut(&mut self, key: u32) -> &mut T {
        match &mut self.slots[key as usize] {
            Slot::Full(value) => value,
            Slot::Free(_) => stale(key),
        }
    }

    /// Number of values held now.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Largest number of values ever held at once — which is also the number
    /// of slots, since none is added while one is vacant.
    pub(crate) fn peak(&self) -> usize {
        self.slots.len()
    }

    /// Every value held now, in slot order; O([`Slab::peak`]).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Full(value) => Some(value),
            Slot::Free(_) => None,
        })
    }

    /// In-memory size of one slot, bytes.
    pub(crate) const fn slot_bytes() -> usize {
        mem::size_of::<Slot<T>>()
    }
}

#[cold]
#[inline(never)]
fn stale(key: u32) -> ! {
    panic!("stale slab key {key}: the slot is vacant")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks the free list, panicking on a full slot or a cycle.
    fn free_slots<T>(slab: &Slab<T>) -> usize {
        let (mut count, mut next) = (0, slab.free);
        while let Some(key) = next {
            let Slot::Free(n) = slab.slots[key as usize] else {
                panic!("full slot on the free list")
            };
            next = n;
            count += 1;
            assert!(count <= slab.peak(), "free list loops");
        }
        count
    }

    #[test]
    fn default_is_a_valid_empty_slab() {
        let mut slab = Slab::<String>::default();
        assert_eq!((slab.len(), slab.peak(), slab.iter().count()), (0, 0, 0));
        let key = slab.insert("a".to_owned());
        assert_eq!((key, slab.get(key).as_str(), slab.len(), slab.peak()), (0, "a", 1, 1));
        slab.get_mut(key).push('b');
        assert_eq!(slab.remove(key), "ab");
        assert_eq!((slab.len(), slab.peak(), free_slots(&slab)), (0, 1, 1));
    }

    #[test]
    fn slots_are_recycled_never_leaked() {
        // Saw-tooth occupancy, removals in arbitrary order: however the run
        // goes, the slab holds exactly the high-water mark.
        let mut slab = Slab::default();
        let mut held: Vec<(u32, u64)> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut peak = 0;
        for step in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Grow for 250 steps, drain for 250: every slot is reused often.
            let remove_from = if (step / 250) % 2 == 0 { 6 } else { 2 };
            if x % 8 >= remove_from {
                if !held.is_empty() {
                    let (key, value) = held.swap_remove((x >> 8) as usize % held.len());
                    assert_eq!(slab.remove(key), value, "a slot keeps its value until removed");
                }
            } else {
                held.push((slab.insert(step), step));
            }
            peak = peak.max(held.len());
            assert_eq!((slab.len(), slab.peak()), (held.len(), peak));
            assert_eq!(slab.iter().count(), held.len());
            assert_eq!(free_slots(&slab), peak - held.len());
        }
        assert!((20..500).contains(&peak), "churn, not growth: {peak}");
        for (key, value) in held.drain(..) {
            assert_eq!(*slab.get(key), value);
            slab.remove(key);
        }
        assert_eq!((slab.len(), slab.peak()), (0, peak));
        assert_eq!(free_slots(&slab), peak, "every slot is back on the free list");
    }

    #[test]
    fn the_slot_vacated_last_is_filled_first() {
        let mut slab = Slab::default();
        let keys: Vec<u32> = (0..4).map(|v| slab.insert(v)).collect();
        assert_eq!(keys, [0, 1, 2, 3]);
        slab.remove(1);
        slab.remove(3);
        assert_eq!((slab.insert(10), slab.insert(11), slab.insert(12)), (3, 1, 4));
        assert_eq!(slab.iter().copied().collect::<Vec<_>>(), [0, 11, 2, 10, 12]);
    }

    #[test]
    #[should_panic(expected = "stale slab key 0")]
    fn a_stale_key_panics_at_the_vacant_slot() {
        let mut slab = Slab::default();
        let key = slab.insert(1u8);
        slab.remove(key);
        slab.get(key);
    }

    #[test]
    #[should_panic(expected = "stale slab key 0")]
    fn removing_twice_panics() {
        let mut slab = Slab::default();
        let key = slab.insert(1u8);
        slab.remove(key);
        slab.remove(key);
    }

    #[test]
    fn the_free_list_link_rides_in_the_values_spare_tags() {
        // A slot is no bigger than its value for both tenants — which is
        // what lets `experiments::scale` price an arena slot from outside
        // the crate as `size_of::<Packet>()`.
        assert_eq!(
            Slab::<crate::event::EventKind>::slot_bytes(),
            mem::size_of::<crate::event::EventKind>()
        );
        assert_eq!(
            Slab::<crate::packet::Packet>::slot_bytes(),
            mem::size_of::<crate::packet::Packet>()
        );
        // A source route rides as a 4-byte handle, not a 16-byte `Arc<[_]>`,
        // and the resolved agent in 8 bytes; `repro scale`'s B/flow prices
        // a packet slot at this size.
        assert_eq!(mem::size_of::<crate::packet::Packet>(), 120);
    }
}
