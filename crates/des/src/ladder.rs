//! The ladder queue: amortized-O(1) pending-event storage.
//!
//! A binary heap spends O(log n) cache-missing sifts on every operation
//! once the pending set holds hundreds of thousands of timers (the 1M-node
//! worlds of `scenarios/scale-1m.peas`). The classic DES answer (Tang & Goh's
//! ladder queue, the calendar-queue lineage behind ns-3-class simulators)
//! is to bucket events by time and only ever *sort* a small tail:
//!
//! * **top** — an unsorted append-only list for events beyond every
//!   bucketed span (`time >= top_start`). Scheduling into the far future
//!   is one `Vec::push`.
//! * **rungs** — a stack of bucket arrays. Each rung divides a time span
//!   into fixed-width buckets; events land in their bucket with one shift
//!   and push. When a bucket comes up for consumption and is still too
//!   big to sort cheaply, it is *re-bucketed* into a new, finer rung
//!   (pushed deeper on the stack) instead — that recursion is what keeps
//!   per-event work amortized O(1).
//! * **bottom** — a small vector sorted descending by `(time, seq)`;
//!   popping the earliest pending event is `Vec::pop` off its end.
//!
//! ## Determinism
//!
//! The queue's contract is a *total* order: events pop in strictly
//! ascending `(time, seq)`. Every key is unique (the facade issues `seq`
//! densely), so any correct implementation — heap or ladder — emits the
//! byte-identical `Fired` stream; the golden fingerprints cannot tell
//! them apart. The differential proptest (`tests/proptests.rs`) and the
//! `--features heap-queue` escape hatch in `peas-des` exist to prove
//! that, not to allow divergence. Internally the invariant is interval
//! ownership: `bottom` keys precede every rung entry, each rung's
//! unconsumed span precedes the next-shallower rung's, and `top` holds
//! the far future; a transfer into `bottom` sorts, so ties broken by
//! `seq` come out exactly as the heap's tie-break did.
//!
//! ## Memory
//!
//! Emptied vectors go to a pool (`spare_buckets`) instead of back to
//! the allocator, and each vector that starts collecting entries — a new
//! rung's buckets, the `bottom` behind a re-bucketed one, the next `top`
//! — comes out of it. A vector is therefore new only when more are in
//! use at once than ever before, and the queue's footprint follows its
//! pending depth, not the number of events it has carried.

use crate::event::QueueCore;

/// Entries transferred to `bottom` in one go are sorted directly when no
/// larger than this; bigger buckets re-bucket into a finer rung instead.
/// 64 keeps the sort inside one or two cache lines of keys while bounding
/// the amortized sort cost per event at `log2(64)` comparisons.
const SORT_THRESHOLD: usize = 64;
/// Bucket-count bounds for a spawned rung. The count scales with the
/// number of entries being spread (aiming at ~`SORT_THRESHOLD / 2` per
/// bucket) so a million-entry top flush fans out wide enough to sort
/// every bucket directly, while a 100-entry spill stays compact.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 15;
/// Ceiling on the sorted bottom's size for *inserts*. A simulation with
/// heavy near-now traffic (send/tx chains scheduled microseconds ahead)
/// lands a large share of pushes below the deepest rung's current
/// bucket; without a bound each becomes an O(len) sorted insert and the
/// bottom degenerates into the very structure the ladder replaces. At
/// the limit the bottom is re-bucketed into a fresh fine-width rung.
const BOTTOM_LIMIT: usize = 2 * SORT_THRESHOLD;
/// Recycled bucket vectors above this capacity are dropped instead of
/// pooled: a bucket that absorbed a burst would otherwise pin its peak
/// allocation forever (32k pooled buckets × a few-MiB burst each was a
/// gigabyte of dead capacity at the 1M-node tier).
const RECYCLE_SLOT_CAP: usize = 4 * SORT_THRESHOLD;

/// One stored event: the `(time, seq)` key plus its payload. `time` is
/// raw [`crate::time::SimTime`] nanoseconds — keys stay plain integers
/// inside the ladder so bucket arithmetic is shifts and divides.
struct Slot<E> {
    time: u64,
    seq: u64,
    payload: E,
}

impl<E> Slot<E> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// One rung: `buckets.len()` equal-width time buckets starting at
/// `start`. Buckets below `cur` are consumed; `count` entries remain in
/// `buckets[cur..]`.
struct Rung<E> {
    start: u64,
    width: u64,
    cur: usize,
    count: usize,
    buckets: Vec<Vec<Slot<E>>>,
}

impl<E> Rung<E> {
    /// Left edge of the first unconsumed bucket (saturating: a fully
    /// consumed rung reports an edge past its own span).
    fn cur_start(&self) -> u64 {
        self.start
            .saturating_add(self.width.saturating_mul(self.cur as u64))
    }

    /// The bucket owning `time`, clamped into range. Times past the
    /// nominal span (routed here because every shallower rung starts
    /// later) collect in the last bucket; the sort on transfer — or a
    /// re-bucketing spawn using the *actual* min/max — restores exact
    /// order within it.
    fn index_of(&self, time: u64) -> usize {
        (((time - self.start) / self.width) as usize).min(self.buckets.len() - 1)
    }
}

/// Ladder-queue storage backend for the [`crate::event::EventQueue`]
/// facade. See the module docs for the structure and invariants.
pub struct LadderCore<E> {
    /// Sorted descending by `(time, seq)`: the earliest key is the last
    /// element, so popping it never moves memory.
    bottom: Vec<Slot<E>>,
    /// Rung stack: index 0 is the shallowest (latest span); the last is
    /// the deepest (earliest span), consumed first.
    rungs: Vec<Rung<E>>,
    /// Unsorted far-future events (`time >= top_start`).
    top: Vec<Slot<E>>,
    /// Times at or past this boundary go to `top`. Starts at zero (all
    /// inserts collect in `top` until the first pop flushes it) and
    /// advances to `max(top) + 1` on every flush.
    top_start: u64,
    /// Min/max times currently in `top` (valid when `top` is non-empty).
    top_min: u64,
    top_max: u64,
    /// Total stored entries.
    len: usize,
    /// Recycled bucket vectors: rungs are spawned and drained constantly
    /// (one per oversized bucket), so their `Vec`s are pooled instead of
    /// round-tripping through the allocator.
    spare_buckets: Vec<Vec<Slot<E>>>,
}

impl<E> Default for LadderCore<E> {
    fn default() -> Self {
        LadderCore {
            bottom: Vec::new(),
            rungs: Vec::new(),
            top: Vec::new(),
            top_start: 0,
            top_min: u64::MAX,
            top_max: 0,
            len: 0,
            spare_buckets: Vec::new(),
        }
    }
}

impl<E> LadderCore<E> {
    /// Routes one entry to `top`, a rung bucket, or the sorted `bottom`.
    fn insert(&mut self, slot: Slot<E>) {
        self.len += 1;
        if slot.time >= self.top_start {
            self.top_min = self.top_min.min(slot.time);
            self.top_max = self.top_max.max(slot.time);
            self.top.push(slot);
            return;
        }
        // Shallowest rung first: rung k owns [cur_start(k), cur_start(k-1)),
        // so the first rung whose unconsumed span has started is the owner.
        // Fully consumed rungs (cur == buckets.len()) are transparent: their
        // span is spoken for by deeper rungs or the bottom.
        for rung in &mut self.rungs {
            if slot.time >= rung.cur_start() && rung.cur < rung.buckets.len() {
                let idx = rung.index_of(slot.time);
                debug_assert!(idx >= rung.cur, "insert into a consumed bucket");
                rung.buckets[idx].push(slot);
                rung.count += 1;
                return;
            }
        }
        // Earlier than every unconsumed bucket: the sorted bottom. Under
        // near-now churn this path is *hot*, so the bottom is kept small:
        // past BOTTOM_LIMIT it is re-bucketed into a fine-width rung
        // (unless every key shares one timestamp — no width can split
        // those, and the sorted insert below handles them).
        if self.bottom.len() >= BOTTOM_LIMIT {
            let mn = self
                .bottom
                .last()
                .map_or(u64::MAX, |s| s.time)
                .min(slot.time);
            let mx = self.bottom.first().map_or(0, |s| s.time).max(slot.time);
            if mn != mx {
                let spare = self.spare_buckets.pop().unwrap_or_default();
                let mut entries = std::mem::replace(&mut self.bottom, spare);
                entries.push(slot);
                // Spawns a new deepest rung (span > 0 and len > threshold
                // guaranteed here); the next pop refills from it.
                self.transfer(entries);
                return;
            }
        }
        let pos = self.bottom.partition_point(|s| s.key() > slot.key());
        self.bottom.insert(pos, slot);
    }

    /// Removes and returns the globally earliest entry.
    fn pop_slot(&mut self) -> Option<Slot<E>> {
        loop {
            if let Some(slot) = self.bottom.pop() {
                self.len -= 1;
                if self.len == 0 {
                    // Empty queue: rewind the top boundary so a fresh
                    // burst of inserts appends to `top` instead of
                    // merge-sorting one by one into `bottom`.
                    self.top_start = 0;
                }
                return Some(slot);
            }
            if !self.refill() {
                return None;
            }
        }
    }

    /// Earliest key without removing it.
    fn peek_key(&mut self) -> Option<(u64, u64)> {
        loop {
            if let Some(slot) = self.bottom.last() {
                return Some(slot.key());
            }
            if !self.refill() {
                return None;
            }
        }
    }

    /// Moves the next chunk of entries into the (empty) `bottom`.
    /// Returns `false` when the whole queue is empty.
    fn refill(&mut self) -> bool {
        debug_assert!(self.bottom.is_empty());
        loop {
            // Consume the deepest rung: its span is the earliest.
            if let Some(rung) = self.rungs.last_mut() {
                if rung.count == 0 {
                    let spent = self.rungs.pop().map(|r| r.buckets);
                    self.recycle(spent);
                    continue;
                }
                let mut i = rung.cur;
                while rung.buckets[i].is_empty() {
                    i += 1;
                }
                let bucket = std::mem::take(&mut rung.buckets[i]);
                rung.count -= bucket.len();
                rung.cur = i + 1;
                self.transfer(bucket);
                if !self.bottom.is_empty() {
                    return true;
                }
                // The bucket re-bucketed into a deeper rung; consume it.
                continue;
            }
            // No rungs left: flush the far-future staging list.
            if self.top.is_empty() {
                return false;
            }
            // The next `top` grows in a pooled vector: a fresh one per
            // flush would add one vector to the pool every flush.
            let spare = self.spare_buckets.pop().unwrap_or_default();
            let flushed = std::mem::replace(&mut self.top, spare);
            // Everything at or past the new boundary stays in `top`;
            // everything below it now lives in rungs or bottom.
            self.top_start = self.top_max.saturating_add(1);
            self.top_min = u64::MAX;
            self.top_max = 0;
            self.transfer(flushed);
            if !self.bottom.is_empty() {
                return true;
            }
        }
    }

    /// Sorts a small batch straight into `bottom`, or re-buckets a large
    /// one into a new deepest rung. Same-time bursts (all keys share one
    /// timestamp) sort directly regardless of size — no bucket width can
    /// split them, and the sort degenerates to ordering by `seq`.
    fn transfer(&mut self, mut entries: Vec<Slot<E>>) {
        if entries.is_empty() {
            self.recycle_one(entries);
            return;
        }
        let mut min = u64::MAX;
        let mut max = 0u64;
        for s in &entries {
            min = min.min(s.time);
            max = max.max(s.time);
        }
        if entries.len() <= SORT_THRESHOLD || min == max {
            entries.sort_unstable_by_key(|s| std::cmp::Reverse(s.key()));
            debug_assert!(self.bottom.is_empty());
            // Hand the allocation over wholesale; the displaced (empty)
            // bottom vector joins the bucket pool.
            let displaced = std::mem::replace(&mut self.bottom, entries);
            self.recycle_one(displaced);
            return;
        }
        // Re-bucket: span the *actual* occupied range with enough buckets
        // that the expected occupancy sorts directly next level down.
        let span = (max - min).saturating_add(1);
        let buckets = (entries.len() / (SORT_THRESHOLD / 2))
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let width = span.div_ceil(buckets as u64).max(1);
        let mut rung = Rung {
            start: min,
            width,
            cur: 0,
            count: entries.len(),
            buckets: Vec::with_capacity(buckets),
        };
        for _ in 0..buckets {
            rung.buckets
                .push(self.spare_buckets.pop().unwrap_or_default());
        }
        for slot in entries.drain(..) {
            let idx = rung.index_of(slot.time);
            rung.buckets[idx].push(slot);
        }
        self.recycle_one(entries);
        // Invariant: the child rung's whole span precedes whatever the
        // parent has left to consume. (A fully consumed parent has no
        // claim — its clamped last bucket may have held arbitrary
        // overflow times.)
        debug_assert!(
            self.rungs
                .last()
                .is_none_or(|parent| parent.cur >= parent.buckets.len()
                    || max < parent.cur_start()),
            "spawned rung overlaps its parent's unconsumed span"
        );
        self.rungs.push(rung);
    }

    fn recycle(&mut self, buckets: Option<Vec<Vec<Slot<E>>>>) {
        if let Some(buckets) = buckets {
            for b in buckets {
                self.recycle_one(b);
            }
        }
    }

    /// Pools an emptied vector for reuse as a future bucket. Oversized
    /// vectors are dropped — pooling them would pin every burst's peak
    /// allocation — and the pool itself is bounded at one full rung.
    fn recycle_one(&mut self, mut v: Vec<Slot<E>>) {
        v.clear();
        if v.capacity() > 0
            && v.capacity() <= RECYCLE_SLOT_CAP
            && self.spare_buckets.len() < MAX_BUCKETS
        {
            self.spare_buckets.push(v);
        }
    }
}

impl<E> QueueCore<E> for LadderCore<E> {
    fn push(&mut self, time: u64, seq: u64, payload: E) {
        self.insert(Slot { time, seq, payload });
    }

    fn pop(&mut self) -> Option<(u64, u64, E)> {
        self.pop_slot().map(|s| (s.time, s.seq, s.payload))
    }

    fn peek_key(&mut self) -> Option<(u64, u64)> {
        self.peek_key()
    }

    fn clear(&mut self) {
        self.bottom.clear();
        self.rungs.clear();
        self.top.clear();
        self.top_start = 0;
        self.top_min = u64::MAX;
        self.top_max = 0;
        self.len = 0;
        self.spare_buckets.clear();
    }

    fn memory_bytes(&self) -> usize {
        let slot = std::mem::size_of::<Slot<E>>();
        let mut bytes = self.bottom.capacity() * slot
            + self.top.capacity() * slot
            + self.rungs.capacity() * std::mem::size_of::<Rung<E>>()
            + self.spare_buckets.capacity() * std::mem::size_of::<Vec<Slot<E>>>();
        for b in &self.spare_buckets {
            bytes += b.capacity() * slot;
        }
        for rung in &self.rungs {
            bytes += rung.buckets.capacity() * std::mem::size_of::<Vec<Slot<E>>>();
            for b in &rung.buckets {
                bytes += b.capacity() * slot;
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(core: &mut LadderCore<usize>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| core.pop().map(|(t, s, _)| (t, s))).collect()
    }

    #[test]
    fn pops_in_key_order_across_structures() {
        let mut core = LadderCore::default();
        // Interleave near, far and same-time keys.
        let times = [
            5u64,
            1,
            1,
            1_000_000_000,
            3,
            u64::MAX,
            0,
            999,
            1_000_000_001,
            2,
        ];
        for (seq, &t) in times.iter().enumerate() {
            core.push(t, seq as u64, seq);
        }
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        expect.sort_unstable();
        assert_eq!(drain(&mut core), expect);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut core = LadderCore::default();
        let mut seq = 0u64;
        let mut push = |core: &mut LadderCore<usize>, t: u64| {
            core.push(t, seq, 0);
            seq += 1;
        };
        for i in 0..1000 {
            push(&mut core, (i * 37) % 501);
        }
        let mut last = (0, 0);
        for i in 0..500 {
            let (t, s, _) = core.pop().unwrap();
            assert!((t, s) > last || i == 0, "order violated at {i}");
            last = (t, s);
            // Push behind, at and ahead of the current key.
            push(&mut core, t); // same time, later seq
            push(&mut core, t + 100);
        }
        // Drain what remains; order must stay ascending throughout.
        let rest = drain(&mut core);
        for w in rest.windows(2) {
            assert!(w[0] < w[1], "order violated in drain: {w:?}");
        }
        assert!(rest[0] >= last);
    }

    #[test]
    fn same_time_flood_sorts_by_seq() {
        let mut core = LadderCore::default();
        for seq in 0..10_000u64 {
            core.push(42, seq, 0);
        }
        let order = drain(&mut core);
        assert_eq!(order.len(), 10_000);
        for (i, &(t, s)) in order.iter().enumerate() {
            assert_eq!((t, s), (42, i as u64));
        }
    }

    #[test]
    fn past_epoch_push_after_progress_pops_first() {
        let mut core = LadderCore::default();
        for seq in 0..200u64 {
            core.push(1_000 + seq * 10, seq, 0);
        }
        // Make progress so rungs/bottom exist.
        for _ in 0..50 {
            core.pop().unwrap();
        }
        // A push far before every pending entry must pop next.
        core.push(0, 200, 7);
        let (t, s, p) = core.pop().unwrap();
        assert_eq!((t, s, p), (0, 200, 7));
    }

    #[test]
    fn empty_reset_reclaims_top_path() {
        let mut core: LadderCore<()> = LadderCore::default();
        core.push(10, 0, ());
        assert_eq!(core.pop().map(|(t, s, _)| (t, s)), Some((10, 0)));
        assert!(core.pop().is_none());
        // After full drain the boundary rewinds: this lands in `top`.
        core.push(3, 1, ());
        assert_eq!(core.top.len(), 1);
        assert_eq!(core.peek_key(), Some((3, 1)));
    }

    #[test]
    fn memory_bytes_reports_growth() {
        let mut core = LadderCore::default();
        let empty = core.memory_bytes();
        for seq in 0..10_000u64 {
            core.push(seq * 1_000, seq, 0usize);
        }
        core.pop().unwrap(); // force the flush into rungs
        assert!(core.memory_bytes() > empty);
    }
}
