//! A bounded LRU cache for recommendation lists.
//!
//! Intrusive doubly-linked list over a slab of nodes plus a `HashMap`
//! from key to slab index: `get`, `insert`, and eviction are all O(1)
//! (amortised). The serving engine wraps one of these in a `Mutex` and
//! keys it by `(user, k, model_epoch)` so stale entries can never be
//! served across an artifact reload even before the explicit
//! [`LruCache::clear`] the reload performs.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Bounded least-recently-used map. A capacity of zero disables caching:
/// every `insert` is a no-op and every `get` misses.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used (the eviction candidate).
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Unlinks node `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Links node `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, promoting it to most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Some(&self.nodes[i].value)
    }

    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry if the cache is full. No-op at capacity zero.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return;
        }
        if self.map.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.nodes[victim].key);
            self.free.push(victim);
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, i);
        self.link_front(i);
    }

    /// Estimated bytes held by the cached values: `weigh` applied to
    /// every live entry, summed. O(len); the engine calls this from its
    /// metrics snapshot, not per request.
    pub fn bytes_estimate(&self, mut weigh: impl FnMut(&V) -> usize) -> usize {
        self.map
            .values()
            .map(|&i| weigh(&self.nodes[i].value))
            .sum()
    }

    /// Drops every entry (explicit invalidation on artifact reload).
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3); // evicts "a"
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn get_promotes_entry() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // "b" becomes LRU
        c.insert("c", 3); // evicts "b"
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
    }

    #[test]
    fn reinsert_replaces_and_promotes() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // "b" becomes LRU
        c.insert("c", 3); // evicts "b"
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
    }

    #[test]
    fn zero_capacity_survives_repeated_insert_and_get() {
        // The disabled cache is the `cache_capacity: 0` engine config;
        // it must stay inert (and allocation-free) under churn.
        let mut c = LruCache::new(0);
        for i in 0..100 {
            c.insert(i, i);
            assert_eq!(c.get(&i), None);
            assert_eq!(c.len(), 0);
        }
        assert!(c.nodes.is_empty(), "disabled cache allocated nodes");
        c.clear();
        assert_eq!(c.get(&0), None);
    }

    #[test]
    fn reinsert_updates_value_and_recency_without_growing() {
        let mut c = LruCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        // Re-inserting an existing key must not consume a slot …
        c.insert("a", 100);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&"a"), Some(&100));
        // … and must have promoted "a": the next two evictions take
        // "b" then "c", never "a".
        c.insert("d", 4);
        c.insert("e", 5);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"c"), None);
        assert_eq!(c.get(&"a"), Some(&100));
    }

    #[test]
    fn eviction_order_after_mixed_get_and_insert() {
        let mut c = LruCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        // Recency now (MRU→LRU): c, b, a. Touch "a", re-insert "b":
        assert_eq!(c.get(&"a"), Some(&1)); // a, c, b
        c.insert("b", 20); // b, a, c
        c.insert("d", 4); // evicts "c"
        assert_eq!(c.get(&"c"), None);
        // d, b, a → next eviction takes "a".
        c.insert("e", 5);
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.get(&"b"), Some(&20));
        assert_eq!(c.get(&"d"), Some(&4));
        assert_eq!(c.get(&"e"), Some(&5));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn clear_empties_and_cache_still_works() {
        let mut c = LruCache::new(3);
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            c.insert(k, v);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
        c.insert("d", 4);
        assert_eq!(c.get(&"d"), Some(&4));
    }

    #[test]
    fn capacity_one_churn() {
        let mut c = LruCache::new(1);
        for i in 0..100 {
            c.insert(i, i * 2);
            assert_eq!(c.len(), 1);
            assert_eq!(c.get(&i), Some(&(i * 2)));
            if i > 0 {
                assert_eq!(c.get(&(i - 1)), None);
            }
        }
    }

    #[test]
    fn bytes_estimate_tracks_live_entries() {
        let mut c: LruCache<u32, Vec<u32>> = LruCache::new(2);
        let weigh = |v: &Vec<u32>| v.len() * 4;
        assert_eq!(c.bytes_estimate(weigh), 0);
        c.insert(1, vec![10, 11, 12]);
        c.insert(2, vec![20]);
        assert_eq!(c.bytes_estimate(weigh), 16);
        // Eviction and replacement both drop the old value's weight.
        c.insert(3, vec![30, 31]); // evicts key 1
        assert_eq!(c.bytes_estimate(weigh), 12);
        c.insert(2, vec![21, 22, 23, 24]);
        assert_eq!(c.bytes_estimate(weigh), 24);
        c.clear();
        assert_eq!(c.bytes_estimate(weigh), 0);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut c = LruCache::new(4);
        for i in 0..1000u32 {
            c.insert(i, i);
        }
        // Only the slab grows to capacity, never beyond.
        assert!(c.nodes.len() <= 4, "slab leaked: {}", c.nodes.len());
        assert_eq!(c.len(), 4);
        for i in 996..1000 {
            assert_eq!(c.get(&i), Some(&i));
        }
    }
}
