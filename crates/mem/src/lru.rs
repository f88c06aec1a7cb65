//! Fully-associative true-LRU replacement state in O(1) per access.
//!
//! The TLB and the accelerator's ADT cache are fully associative, with 32
//! and 128 entries, and the simulator consults them tens of times per
//! simulated command. Scanning a recency-ordered list and shifting it on
//! every hit costs time linear in the capacity; here a hash index finds a
//! key's slot and an intrusive doubly-linked list over the slots keeps the
//! exact recency order, so a hit, a miss and an eviction each take a
//! bounded number of steps.

use crate::hash::U64Map;

/// Link value for "no node".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    /// Next more recently used node.
    prev: u32,
    /// Next less recently used node.
    next: u32,
}

/// A set of at most `capacity` `u64` keys with true-LRU replacement.
///
/// [`Lru::access`] reports whether a key was resident and makes it the most
/// recently used; a miss on a full set evicts the least recently used key.
/// The hit/miss sequence is exactly that of a recency-ordered list scanned
/// and reordered on every access.
///
/// ```rust
/// use protoacc_mem::Lru;
/// let mut lru = Lru::new(2);
/// assert!(!lru.access(1));
/// assert!(!lru.access(2));
/// assert!(lru.access(1)); // 2 is now least recently used
/// assert!(!lru.access(3)); // evicts 2
/// assert!(lru.access(1));
/// assert!(!lru.access(2));
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    capacity: usize,
    /// Key → its slot in `nodes`.
    index: U64Map<u32>,
    /// Resident keys; once full, the evicted key's slot takes the new key.
    nodes: Vec<Node>,
    /// Most recently used slot, `NIL` when empty.
    head: u32,
    /// Least recently used slot, `NIL` when empty.
    tail: u32,
}

impl Lru {
    /// Creates an empty set holding at most `capacity` keys. A capacity of
    /// zero holds nothing: every access misses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` does not fit the 32-bit slot links.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < NIL as usize,
            "LRU capacity {capacity} exceeds 32-bit slot links"
        );
        Lru {
            capacity,
            index: U64Map::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Touches `key`: returns `true` if it was resident, `false` if it was
    /// inserted (evicting the least recently used key when full). Either
    /// way `key` is the most recently used afterwards.
    pub fn access(&mut self, key: u64) -> bool {
        // Fast path: repeated touches of one page or ADT entry.
        if self.head != NIL && self.nodes[self.head as usize].key == key {
            return true;
        }
        if let Some(&slot) = self.index.get(&key) {
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        if self.capacity == 0 {
            return false;
        }
        let slot = if self.nodes.len() < self.capacity {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        } else {
            let slot = self.tail;
            self.index.remove(&self.nodes[slot as usize].key);
            self.unlink(slot);
            self.nodes[slot as usize].key = key;
            slot
        };
        self.index.insert(key, slot);
        self.push_front(slot);
        false
    }

    /// Forgets every key.
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.nodes[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_always_misses() {
        let mut lru = Lru::new(0);
        assert!(!lru.access(7));
        assert!(!lru.access(7));
    }

    #[test]
    fn clear_forgets_and_refills() {
        let mut lru = Lru::new(2);
        lru.access(1);
        lru.access(2);
        lru.clear();
        assert!(!lru.access(2));
        assert!(!lru.access(1));
        assert!(lru.access(2));
        assert!(!lru.access(3)); // evicts 1, the least recently used
        assert!(!lru.access(1));
    }
}
