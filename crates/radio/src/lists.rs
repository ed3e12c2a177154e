//! Many short lists in one shared slab.
//!
//! The medium keeps a small set per node: the second and later frames
//! arriving there at once. Most are empty most of the time, so a heap
//! `Vec` per node would cost a 24-byte header per node plus an allocation
//! for every node ever touched. [`BucketLists`] holds a `u32` head per
//! bucket instead, with every entry in one slab; removed entries go onto a
//! free list and are reused, so the slab stays as large as the most
//! entries ever live at once. Order within a bucket is not part of the
//! contract: each list is a set.

/// End of a list: no head or `next` link points here.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Link<T> {
    value: T,
    /// The next entry of the same bucket's list, or of the free list.
    next: u32,
}

/// One singly linked list per bucket, all stored in one slab.
pub(crate) struct BucketLists<T> {
    /// Per bucket: the first entry of its list in `slab`, or [`NIL`].
    heads: Vec<u32>,
    slab: Vec<Link<T>>,
    /// The first reusable entry of `slab`, or [`NIL`].
    free: u32,
}

impl<T: Copy> BucketLists<T> {
    /// `buckets` empty lists.
    pub(crate) fn new(buckets: usize) -> BucketLists<T> {
        BucketLists {
            heads: vec![NIL; buckets],
            slab: Vec::new(),
            free: NIL,
        }
    }

    /// Adds `value` to `bucket`'s list.
    pub(crate) fn push(&mut self, bucket: usize, value: T) {
        let link = Link {
            value,
            next: self.heads[bucket],
        };
        self.heads[bucket] = if self.free == NIL {
            let at = u32::try_from(self.slab.len())
                .ok()
                .filter(|&at| at != NIL)
                // peas-lint: allow(r1-unchecked-panic) -- live entries are bounded by in-flight transmissions times their receivers, far below u32::MAX
                .expect("bucket-list slab exceeds the u32 index space");
            self.slab.push(link);
            at
        } else {
            let at = self.free;
            self.free = self.slab[at as usize].next;
            self.slab[at as usize] = link;
            at
        };
    }

    /// Removes and returns the entry of `bucket` pushed last.
    pub(crate) fn pop(&mut self, bucket: usize) -> Option<T> {
        let at = self.heads[bucket];
        if at == NIL {
            return None;
        }
        let link = self.slab[at as usize];
        self.heads[bucket] = link.next;
        self.slab[at as usize].next = self.free;
        self.free = at;
        Some(link.value)
    }

    /// Removes every entry of `bucket` for which `keep` is false; returns
    /// how many were removed.
    pub(crate) fn retain(&mut self, bucket: usize, mut keep: impl FnMut(&T) -> bool) -> usize {
        let mut removed = 0;
        let mut prev = NIL;
        let mut at = self.heads[bucket];
        while at != NIL {
            let next = self.slab[at as usize].next;
            if keep(&self.slab[at as usize].value) {
                prev = at;
            } else {
                if prev == NIL {
                    self.heads[bucket] = next;
                } else {
                    self.slab[prev as usize].next = next;
                }
                self.slab[at as usize].next = self.free;
                self.free = at;
                removed += 1;
            }
            at = next;
        }
        removed
    }

    /// The entries of `bucket`.
    pub(crate) fn iter(&self, bucket: usize) -> impl Iterator<Item = &T> + '_ {
        let mut at = self.heads[bucket];
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let link = &self.slab[at as usize];
            at = link.next;
            Some(&link.value)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(lists: &BucketLists<u32>, bucket: usize) -> Vec<u32> {
        let mut v: Vec<u32> = lists.iter(bucket).copied().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn buckets_are_independent_sets() {
        let mut lists = BucketLists::new(3);
        for v in 0..6 {
            lists.push(v as usize % 3, v);
        }
        assert_eq!(sorted(&lists, 0), [0, 3]);
        assert_eq!(sorted(&lists, 1), [1, 4]);
        assert_eq!(lists.retain(1, |&v| v != 4), 1);
        assert_eq!(sorted(&lists, 1), [1]);
        assert_eq!(lists.pop(2), Some(5));
        assert_eq!(lists.pop(2), Some(2));
        assert_eq!(lists.pop(2), None);
        assert_eq!(sorted(&lists, 0), [0, 3]);
    }

    #[test]
    fn removed_entries_are_reused() {
        let mut lists = BucketLists::new(2);
        for round in 0..100 {
            lists.push(round % 2, 1);
            lists.push(round % 2, 2);
            assert_eq!(lists.retain(round % 2, |_| false), 2);
        }
        assert_eq!(lists.slab.len(), 2);
        assert_eq!(lists.iter(0).count() + lists.iter(1).count(), 0);
    }
}
