//! An LRU buffer pool over relation pages.
//!
//! Models both the server's shared cache (which produces the cooperative
//! caching effects the paper observed in §6 — "this is likely due to
//! cooperative caching effects on the server since all clients are
//! accessing the same relations") and each data-shipping client's private
//! cache, whose size is the memory Harmony grants (Figure 3's
//! `client.memory`).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::relation::{PageNo, PAGE_BYTES};

/// A global page identifier: relation name + page number.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageId {
    /// Relation the page belongs to.
    pub relation: String,
    /// Page number within the relation.
    pub page: PageNo,
}

impl PageId {
    /// Creates a page id.
    pub fn new(relation: impl Into<String>, page: PageNo) -> Self {
        PageId { relation: relation.into(), page }
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that found the page resident.
    pub hits: u64,
    /// Accesses that had to fault the page in.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when never accessed).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU buffer pool with a fixed page capacity.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BufferPool {
    capacity_pages: usize,
    /// Page → LRU stamp; larger is more recent.
    resident: HashMap<PageId, u64>,
    clock: u64,
    stats: CacheStats,
}

impl BufferPool {
    /// Creates a pool holding `capacity_pages` pages.
    pub fn new(capacity_pages: usize) -> Self {
        BufferPool {
            capacity_pages,
            resident: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Creates a pool sized in megabytes (8 KB pages).
    pub fn with_megabytes(mb: f64) -> Self {
        let pages = ((mb * 1e6) / PAGE_BYTES as f64).floor().max(0.0) as usize;
        Self::new(pages)
    }

    /// Page capacity.
    pub fn capacity(&self) -> usize {
        self.capacity_pages
    }

    /// Pages currently resident.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// True when the page is resident (no access recorded).
    pub fn contains(&self, page: &PageId) -> bool {
        self.resident.contains_key(page)
    }

    /// Accesses a page: returns `true` on a hit. On a miss the page is
    /// faulted in, evicting the least-recently-used page if full. A pool
    /// with zero capacity misses every access.
    pub fn access(&mut self, page: PageId) -> bool {
        self.clock += 1;
        if self.capacity_pages == 0 {
            self.stats.misses += 1;
            return false;
        }
        if let Some(stamp) = self.resident.get_mut(&page) {
            *stamp = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.resident.len() >= self.capacity_pages {
            if let Some(victim) =
                self.resident.iter().min_by_key(|(_, &stamp)| stamp).map(|(k, _)| k.clone())
            {
                self.resident.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.resident.insert(page, self.clock);
        false
    }

    /// Resizes the pool (Harmony granting more or less memory). Shrinking
    /// evicts LRU pages immediately.
    pub fn resize(&mut self, capacity_pages: usize) {
        self.capacity_pages = capacity_pages;
        while self.resident.len() > self.capacity_pages {
            if let Some(victim) =
                self.resident.iter().min_by_key(|(_, &stamp)| stamp).map(|(k, _)| k.clone())
            {
                self.resident.remove(&victim);
                self.stats.evictions += 1;
            } else {
                break;
            }
        }
    }

    /// Drops all residency and statistics.
    pub fn clear(&mut self) {
        self.resident.clear();
        self.stats = CacheStats::default();
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut p = BufferPool::new(2);
        assert!(!p.access(PageId::new("r", 0))); // miss
        assert!(p.access(PageId::new("r", 0))); // hit
        assert!(!p.access(PageId::new("r", 1))); // miss
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
        assert_eq!(s.hit_ratio(), 1.0 / 3.0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut p = BufferPool::new(2);
        p.access(PageId::new("r", 0));
        p.access(PageId::new("r", 1));
        p.access(PageId::new("r", 0)); // 0 now most recent
        p.access(PageId::new("r", 2)); // evicts 1
        assert!(p.contains(&PageId::new("r", 0)));
        assert!(!p.contains(&PageId::new("r", 1)));
        assert!(p.contains(&PageId::new("r", 2)));
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut p = BufferPool::new(0);
        assert!(!p.access(PageId::new("r", 0)));
        assert!(!p.access(PageId::new("r", 0)));
        assert_eq!(p.stats().misses, 2);
        assert!(p.is_empty());
    }

    #[test]
    fn megabyte_sizing() {
        let p = BufferPool::with_megabytes(1.0);
        assert_eq!(p.capacity(), 122); // 1e6 / 8192
        assert_eq!(BufferPool::with_megabytes(0.0).capacity(), 0);
    }

    #[test]
    fn resize_shrinks_with_evictions() {
        let mut p = BufferPool::new(4);
        for i in 0..4 {
            p.access(PageId::new("r", i));
        }
        p.resize(2);
        assert_eq!(p.len(), 2);
        assert!(p.contains(&PageId::new("r", 3)));
        assert!(p.contains(&PageId::new("r", 2)));
        // Growing keeps contents.
        p.resize(10);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn distinct_relations_do_not_collide() {
        let mut p = BufferPool::new(4);
        p.access(PageId::new("r1", 0));
        assert!(!p.access(PageId::new("r2", 0)));
        assert!(p.access(PageId::new("r1", 0)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut p = BufferPool::new(2);
        p.access(PageId::new("r", 0));
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.stats(), CacheStats::default());
    }
}
