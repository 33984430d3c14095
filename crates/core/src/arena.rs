//! A reusable keyed event buffer for micro-batch grouping.
//!
//! Both drivers classify events serially and then apply them to per-link
//! lanes grouped by link. The obvious grouping structure — a fresh
//! `BTreeMap<LinkIx, Vec<LaneEvent>>` per micro-batch — allocates one
//! node and one `Vec` spine per touched link *per batch*, thousands of
//! times over a streaming replay. [`EventArena`] replaces it with a
//! struct-of-arrays buffer that is reused across batches: payloads land
//! in one flat `Vec` and never move again; grouping sorts only the
//! parallel `(key, index)` array (8–12 bytes per event), so the cost of
//! grouping is independent of how large the payload type is. The backing
//! storage survives [`EventArena::clear`], so steady-state ingestion
//! stops allocating entirely.
//!
//! Grouping is *stable*: the index half of each sort key is the push
//! order, the sort key is `(key, index)`, and `sort_unstable` is safe
//! because the index makes keys unique — so per-key event order is
//! exactly push order, and groups iterate in ascending key order. Those
//! are the two determinism properties the kernel's lane pass relies
//! on.

/// A struct-of-arrays, reusable buffer of keyed events with stable
/// grouped iteration. See the [module docs](self) for why this replaces
/// a per-batch `BTreeMap`.
///
/// The arena holds at most `u32::MAX` events between
/// [`clear`](EventArena::clear)s; [`push`](EventArena::push) panics
/// beyond that (the paper-scale workload is ~171k events *total*).
///
/// # Examples
///
/// ```
/// use faultline_core::arena::EventArena;
///
/// let mut arena: EventArena<u32, &str> = EventArena::new();
/// arena.push(2, "b1");
/// arena.push(1, "a1");
/// arena.push(2, "b2");
///
/// // Groups come out in ascending key order; within a group, events
/// // keep push order. The second half of each run entry indexes into
/// // the values slice.
/// let (groups, values) = arena.group();
/// let got: Vec<(u32, Vec<&str>)> = groups
///     .map(|(k, run)| (k, run.iter().map(|&(_, i)| values[i as usize]).collect()))
///     .collect();
/// assert_eq!(got, vec![(1, vec!["a1"]), (2, vec!["b1", "b2"])]);
///
/// // `clear` keeps the backing capacity for the next micro-batch.
/// arena.clear();
/// assert!(arena.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventArena<K, V> {
    /// `(routing key, index into values)` — the only array the sort
    /// touches.
    keys: Vec<(K, u32)>,
    /// Payloads in push order; never reordered.
    values: Vec<V>,
}

impl<K, V> Default for EventArena<K, V> {
    fn default() -> Self {
        EventArena {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<K: Copy + Ord, V> EventArena<K, V> {
    /// An empty arena.
    pub fn new() -> Self {
        EventArena::default()
    }

    /// Append one event under a routing key.
    pub fn push(&mut self, key: K, value: V) {
        let ix = u32::try_from(self.values.len()).expect("event arena overflow");
        self.keys.push((key, ix));
        self.values.push(value);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Drop all events but keep the allocated capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
    }

    /// Sort the key array in place and return (an iterator of contiguous
    /// per-key runs in ascending key order, the payload slice the run
    /// indices point into). Within a run, events are in push order.
    ///
    /// The sort is `sort_unstable` over `(key, index)` pairs — no
    /// allocation (a stable slice sort would allocate a merge buffer
    /// every batch), yet deterministic because the push index
    /// disambiguates equal keys. Payloads are never moved, so grouping
    /// cost does not scale with `size_of::<V>()`.
    pub fn group(&mut self) -> (Groups<'_, K>, &[V]) {
        self.keys.sort_unstable();
        (Groups { keys: &self.keys }, &self.values)
    }
}

/// Iterator over the per-key runs of a sorted [`EventArena`], yielded as
/// `(key, run)` in ascending key order, where each run entry is a
/// `(key, index)` pair whose index points into the values slice returned
/// alongside this iterator by [`EventArena::group`].
#[derive(Debug)]
pub struct Groups<'a, K> {
    keys: &'a [(K, u32)],
}

impl<'a, K: Copy + PartialEq> Iterator for Groups<'a, K> {
    type Item = (K, &'a [(K, u32)]);

    fn next(&mut self) -> Option<Self::Item> {
        let &(key, _) = self.keys.first()?;
        let end = self
            .keys
            .iter()
            .position(|&(k, _)| k != key)
            .unwrap_or(self.keys.len());
        let (run, rest) = self.keys.split_at(end);
        self.keys = rest;
        Some((key, run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_key_ordered_and_push_stable() {
        let mut arena: EventArena<u8, u32> = EventArena::new();
        for (k, v) in [(3, 30), (1, 10), (3, 31), (2, 20), (1, 11), (3, 32)] {
            arena.push(k, v);
        }
        let (groups, values) = arena.group();
        let got: Vec<(u8, Vec<u32>)> = groups
            .map(|(k, run)| (k, run.iter().map(|&(_, i)| values[i as usize]).collect()))
            .collect();
        assert_eq!(
            got,
            vec![(1, vec![10, 11]), (2, vec![20]), (3, vec![30, 31, 32])]
        );
    }

    #[test]
    fn clear_retains_capacity() {
        let mut arena: EventArena<u32, u64> = EventArena::new();
        for i in 0..1000 {
            arena.push(i % 7, u64::from(i));
        }
        let cap = arena.values.capacity();
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.values.capacity(), cap);
        // Reuse after clear regroups correctly.
        arena.push(5, 1);
        arena.push(4, 2);
        let (groups, _) = arena.group();
        let keys: Vec<u32> = groups.map(|(k, _)| k).collect();
        assert_eq!(keys, vec![4, 5]);
    }

    #[test]
    fn empty_arena_yields_no_groups() {
        let mut arena: EventArena<u8, u8> = EventArena::new();
        let (groups, values) = arena.group();
        assert_eq!(groups.count(), 0);
        assert!(values.is_empty());
    }
}
