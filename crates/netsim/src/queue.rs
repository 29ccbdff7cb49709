//! The slab-backed indexed event queue.
//!
//! A discrete-event simulator spends much of its life pushing and popping
//! events, so the queue's memory behaviour is a first-order performance
//! concern.  This queue separates *ordering* from *storage*:
//!
//! * ordering moves only 32-byte `Copy` entries — an [`EventKey`]'s four
//!   fields plus the slab slot, two to a cache line — never a payload;
//! * event payloads live in a slab (`Vec<Option<T>>`) addressed by the
//!   key's slot index, with a free list recycling slots, so steady-state
//!   scheduling touches no allocator at all once the simulation's
//!   high-water mark is reached.
//!
//! Ordering is the lexicographic minimum of an [`EventKey`] — `(time,
//! push_time, origin, oseq)` — kept in two tiers around `last`, the time
//! the queue last advanced to.  Entries due by `last` (the few sharing the
//! current instant, or pushed below it after a horizon stop) sit in `near`,
//! a binary min-heap on the full key.  Later entries sit in radix
//! buckets by the highest 4-bit digit in which their time differs from
//! `last`: bucket `(l, d)` holds those that first differ at digit `l` and
//! carry digit value `d` there, so a push is O(1).  When `near` runs dry,
//! the lowest non-empty bucket — lowest level, then lowest digit — is
//! emptied: `last` moves up to its minimum time (kept on push), its entries
//! due then go to `near` and the rest to lower levels, while every other
//! bucket stays valid because the new `last` agrees with the old above
//! level `l` and still differs from it at `l`.  An entry only ever moves
//! down a level, so it is re-filed at most once per digit level.  Buckets
//! are chains of 32-entry chunks from one pool with a free list.  Keys are
//! unique, so any correct min-queue pops the same sequence: the schedule
//! depends on the keys, not on this layout.
//!
//! The legacy [`EventQueue::push`] entry point assigns keys from a
//! monotone per-queue counter, which reproduces the old global-FIFO
//! tie-break exactly: events at the same timestamp pop in insertion
//! order.  A property test in `tests/proptests.rs` pins that equivalence
//! against a `BinaryHeap` model over random push/pop interleavings.
//!
//! The richer keyed entry points ([`EventQueue::push_keyed`],
//! [`EventQueue::pop_keyed`]) exist for the sharded engine: a key that is
//! a pure function of *which node pushed the event and when* (rather than
//! a global push counter) totally orders events the same way no matter
//! which shard queue they pass through, so per-shard runs merge
//! bit-identically into the serial schedule (see `shard.rs`).

use crate::time::SimTime;

/// Total event order for deterministic scheduling, shard-invariant.
///
/// Lexicographic: `(time, push_time, origin, oseq)`.
///
/// * `time` — when the event fires;
/// * `push_time` — the simulation instant it was scheduled;
/// * `origin` — 0 for events scheduled outside any node's event
///   processing (agent attachment, fault plans), `node + 1` for events a
///   node scheduled while being processed (timers, forwarded arrivals);
/// * `oseq` — a per-origin monotone sequence number.
///
/// Because an origin's pushes are sequential, `(origin, oseq)` is unique,
/// and because the tuple depends only on simulation-visible history (not
/// on which queue or thread carried the event), the order is identical
/// at any shard count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventKey {
    /// When the event fires.
    pub time: SimTime,
    /// When the event was scheduled.
    pub push_time: SimTime,
    /// Scheduling origin: 0 = external/build, `n + 1` = node `n`.
    pub origin: u32,
    /// Per-origin monotone sequence number.
    pub oseq: u64,
}

/// Heap entry: an [`EventKey`]'s fields and the slab slot holding the
/// payload, packed into 32 bytes (the derived layout of `(EventKey, u32)`
/// pads to 40).
///
/// **Order proof obligation:** [`Entry::before`] must agree with
/// `EventKey::cmp` — lexicographic `(time, push_time, origin, oseq)` — on
/// every pair of keys; a property test below pins it, ties on every prefix
/// included.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    time: u64,
    push_time: u64,
    oseq: u64,
    origin: u32,
    slot: u32,
}

impl Entry {
    fn new(key: EventKey, slot: u32) -> Entry {
        Entry {
            time: key.time.0,
            push_time: key.push_time.0,
            oseq: key.oseq,
            origin: key.origin,
            slot,
        }
    }

    fn key(&self) -> EventKey {
        EventKey {
            time: SimTime(self.time),
            push_time: SimTime(self.push_time),
            origin: self.origin,
            oseq: self.oseq,
        }
    }

    /// Whether `self` pops strictly before `other`.
    ///
    /// The four-field lexicographic compare as two `u128` halves —
    /// `(time, push_time)` then `(origin, oseq)` — joined with `|`/`&`
    /// rather than `||`/`&&`: which of two events is earlier is a coin
    /// flip no branch predictor learns, so the compare must compile to
    /// flag arithmetic, not to a jump per field.
    #[inline]
    fn before(&self, other: &Entry) -> bool {
        let when = |e: &Entry| (u128::from(e.time) << 64) | u128::from(e.push_time);
        let who = |e: &Entry| (u128::from(e.origin) << 64) | u128::from(e.oseq);
        (when(self) < when(other)) | ((when(self) == when(other)) & (who(self) < who(other)))
    }
}

/// Entries per pool chunk.
const CHUNK: usize = 32;

/// Bits per radix digit.  Wider digits mean fewer re-files but more,
/// sparser buckets: 8 measured no faster than 4 and allocated 2.4% more.
const DIGIT: u32 = 4;
/// Digit values per level, and digit levels per `u64` time.
const RADIX: usize = 1 << DIGIT;
const LEVELS: usize = 64 / DIGIT as usize;

/// "No chunk": the end of a bucket chain or of the free list.
const NIL: u32 = u32::MAX;

/// A run of bucket entries; `next` links the bucket's chain (or the free
/// list) toward older chunks.
#[derive(Debug)]
struct Chunk {
    entries: [Entry; CHUNK],
    next: u32,
}

/// One radix bucket: a chain of pool chunks, the newest first.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// The newest chunk; every older chunk in the chain is full.
    head: u32,
    /// Entries in `head`.  An empty bucket reads as full, so its first
    /// push takes a chunk the same way a full one does.
    fill: u32,
    /// The earliest time among the bucket's entries.
    min: u64,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    fill: CHUNK as u32,
    min: u64::MAX,
};

/// A min-ordered event queue: `pop` yields events in ascending `(time,
/// insertion sequence)` order.
///
/// `T` is the event payload; it is stored once in the slab and moved out
/// exactly once on pop — ordering only ever copies small entries.
///
/// **Layout invariant** (see the module docs): every entry in `near` has
/// `time <= last`, and every entry in bucket `(l, d)` has `time > last`,
/// `l` the highest digit of `time ^ last` and `d` the digit of `time`
/// there.  So `near`'s minimum, when `near` is non-empty, is the queue's
/// minimum.
#[derive(Debug)]
pub struct EventQueue<T> {
    near: Vec<Entry>,
    last: u64,
    buckets: [[Bucket; RADIX]; LEVELS],
    /// Bit `d` of `digits[l]` is set iff bucket `(l, d)` holds an entry.
    digits: [u16; LEVELS],
    /// Bit `l` is set iff `digits[l]` is non-zero.
    levels: u16,
    pool: Vec<Chunk>,
    /// Head of the free-chunk list threaded through `Chunk::next`.
    spare: u32,
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    seq: u64,
    /// Times each slab slot's entries were re-filed by `refill`, into a
    /// lower bucket or into `near`.
    #[cfg(test)]
    refiled: Vec<u32>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            near: Vec::new(),
            last: 0,
            buckets: [[EMPTY; RADIX]; LEVELS],
            digits: [0; LEVELS],
            levels: 0,
            pool: Vec::new(),
            spare: NIL,
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            #[cfg(test)]
            refiled: Vec::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `item` at `time` and returns its insertion sequence
    /// number.  Events pushed at the same `time` pop in push order (the
    /// key is derived from a per-queue monotone counter).
    pub fn push(&mut self, time: SimTime, item: T) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.push_keyed(
            EventKey {
                time,
                push_time: SimTime::ZERO,
                origin: 0,
                oseq: seq,
            },
            item,
        );
        seq
    }

    /// Schedules `item` under an explicit ordering key.  Keys must be
    /// unique per queue lifetime (the engine guarantees this via per-origin
    /// sequence numbers).
    pub fn push_keyed(&mut self, key: EventKey, item: T) {
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none());
                self.slots[s as usize] = Some(item);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event slab exceeds u32 slots");
                self.slots.push(Some(item));
                s
            }
        };
        self.place(Entry::new(key, slot));
    }

    /// Full ordering key of the earliest event, if any.  Takes `&mut
    /// self` because finding it may empty a bucket into `near`.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.refill().then(|| self.near[0].key())
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(k, item)| (k.time, item))
    }

    /// Removes and returns the earliest event with its full key.
    pub fn pop_keyed(&mut self) -> Option<(EventKey, T)> {
        if !self.refill() {
            return None;
        }
        let top = self.near[0];
        let tail = self.near.pop().expect("refilled");
        if !self.near.is_empty() {
            self.near[0] = tail;
            self.sift_down(0);
        }
        let item = self.slots[top.slot as usize]
            .take()
            .expect("queue entry points at a filled slot");
        self.free.push(top.slot);
        Some((top.key(), item))
    }

    /// Files an entry by the layout invariant: into `near` when it is due
    /// by `last`, else at the tail of its bucket's newest chunk.
    #[inline]
    fn place(&mut self, e: Entry) {
        if e.time <= self.last {
            self.near.push(e);
            self.sift_up(self.near.len() - 1);
            return;
        }
        // `% LEVELS` (a no-op: `l` < 16) lets the compiler drop the bounds check.
        let l = ((63 - (e.time ^ self.last).leading_zeros()) / DIGIT) as usize % LEVELS;
        let d = (e.time >> (l as u32 * DIGIT)) as usize % RADIX;
        let mut bucket = self.buckets[l][d];
        if bucket.fill == CHUNK as u32 {
            bucket.head = self.take_chunk(bucket.head);
            bucket.fill = 0;
        }
        self.pool[bucket.head as usize].entries[bucket.fill as usize] = e;
        bucket.fill += 1;
        bucket.min = bucket.min.min(e.time);
        self.buckets[l][d] = bucket;
        self.digits[l] |= 1 << d;
        self.levels |= 1 << l;
    }

    /// A chunk from the free list (or a new one) linked in front of `next`.
    fn take_chunk(&mut self, next: u32) -> u32 {
        if self.spare == NIL {
            let c = u32::try_from(self.pool.len()).expect("chunk pool exceeds u32 chunks");
            self.pool.push(Chunk {
                entries: [Entry::default(); CHUNK],
                next,
            });
            return c;
        }
        let c = self.spare;
        self.spare = std::mem::replace(&mut self.pool[c as usize].next, next);
        c
    }

    /// Makes `near` non-empty unless the queue is: empties the lowest
    /// non-empty bucket, moving `last` up to its earliest time and
    /// re-filing its entries (those due then into `near`, the rest into
    /// lower levels).  Returns whether an entry is queued.
    fn refill(&mut self) -> bool {
        if !self.near.is_empty() {
            return true;
        }
        if self.levels == 0 {
            return false;
        }
        let l = self.levels.trailing_zeros() as usize;
        let d = self.digits[l].trailing_zeros() as usize;
        let bucket = std::mem::replace(&mut self.buckets[l][d], EMPTY);
        self.digits[l] &= !(1 << d);
        if self.digits[l] == 0 {
            self.levels &= !(1 << l);
        }
        self.last = bucket.min;
        let (mut head, mut count) = (bucket.head, bucket.fill as usize);
        #[cfg(test)]
        self.refiled.resize(self.slots.len(), 0);
        while head != NIL {
            // Re-filing writes to `near` and levels below `l`, never to
            // this chain, and the chunk is freed only once read whole.
            for i in 0..count {
                let e = self.pool[head as usize].entries[i];
                #[cfg(test)]
                {
                    self.refiled[e.slot as usize] += 1;
                }
                self.place(e);
            }
            let next = std::mem::replace(&mut self.pool[head as usize].next, self.spare);
            self.spare = head;
            head = next;
            count = CHUNK;
        }
        true
    }

    /// Moves the entry at `i` toward the root until its parent pops first.
    /// The entry travels in a register and is written once where the hole
    /// it leaves comes to rest — one store per level, not a swap's three.
    fn sift_up(&mut self, mut i: usize) {
        let moving = self.near[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !moving.before(&self.near[parent]) {
                break;
            }
            self.near[i] = self.near[parent];
            i = parent;
        }
        self.near[i] = moving;
    }

    /// Moves the entry at `i` toward the leaves until both children pop
    /// after it, again as a hole.  The smaller child is picked by adding
    /// the compare's outcome to the left child's index, so the only
    /// data-dependent branch per level is the loop exit.
    fn sift_down(&mut self, mut i: usize) {
        let heap = &mut self.near[..];
        let n = heap.len();
        let moving = heap[i];
        loop {
            let left = 2 * i + 1;
            let right = left + 1;
            let child = if right < n {
                left + usize::from(heap[right].before(&heap[left]))
            } else if left < n {
                left
            } else {
                break;
            };
            if !heap[child].before(&moving) {
                break;
            }
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = moving;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn heap_entry_fits_two_to_a_cache_line() {
        assert!(std::mem::size_of::<Entry>() <= 32);
    }

    /// One key field: mostly a handful of small values, so that ties are
    /// the common case, plus the extremes of the field's range.
    fn field(extremes: [u64; 3]) -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..3,
            0u64..3,
            any::<u64>(),
            (0usize..3).prop_map(move |i| extremes[i]),
        ]
    }

    fn key() -> impl Strategy<Value = EventKey> {
        (
            field([0, u64::MAX - 1, u64::MAX]),
            field([0, u64::MAX - 1, u64::MAX]),
            // `origin = u32::MAX` and `oseq` above 2^32: the packed halves
            // must not let one field's high bits spill into the next.
            field([0, u64::from(u32::MAX) - 1, u64::from(u32::MAX)]),
            field([(1 << 32) - 1, 1 << 32, u64::MAX]),
        )
            .prop_map(|(time, push_time, origin, oseq)| EventKey {
                time: SimTime(time),
                push_time: SimTime(push_time),
                origin: origin as u32,
                oseq,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The packed entry orders exactly as `EventKey::cmp`, whatever
        /// prefix of the key ties and whatever the slots are.
        #[test]
        fn packed_entry_order_is_event_key_order(a in key(), b in key(), share in 0usize..5) {
            // Force a tie on the first `share` fields (4 = equal keys).
            let mut b = b;
            if share >= 1 { b.time = a.time; }
            if share >= 2 { b.push_time = a.push_time; }
            if share >= 3 { b.origin = a.origin; }
            if share >= 4 { b.oseq = a.oseq; }
            let (ea, eb) = (Entry::new(a, 7), Entry::new(b, 3));
            prop_assert_eq!(ea.before(&eb), a < b);
            prop_assert_eq!(eb.before(&ea), b < a);
            prop_assert_eq!(ea.key(), a);
            prop_assert_eq!(eb.key(), b);
        }

        /// The two-tier queue pops, peeks and counts as a
        /// `BinaryHeap<Reverse<EventKey>>` does under any interleaving:
        /// times at every bit position and first differing from the last
        /// popped time in every digit, ties forced on each key prefix,
        /// pushes at and before the last popped time, and bursts of more
        /// than a chunk into one (level, digit) bucket.
        #[test]
        fn radix_queue_matches_a_binary_heap_of_keys(
            ops in proptest::collection::vec(
                (0u8..6, (0u8..4, 0u32..LEVELS as u32), time(), key(), 0usize..4), 1..200),
        ) {
            use std::cmp::Reverse;
            let mut model = std::collections::BinaryHeap::new();
            let mut q = EventQueue::new();
            let (mut last, mut prev, mut pushed) = (0u64, EventKey::default(), 0u64);
            for (op, (rel, level), t, mut key, share) in ops {
                // An absolute time, one relative to the last popped, or one
                // that first differs from it in digit `level`, raised there
                // (unless already 0xF) with the digits below taken from `t`.
                let at = match rel {
                    0 => t,
                    1 => last.saturating_add(t),
                    2 => last.saturating_sub(t),
                    _ => {
                        let s = level * DIGIT;
                        let d = (last >> s) % RADIX as u64;
                        let raised = (d + 1 + (t >> 60) % (RADIX as u64 - d)).min(0xF);
                        ((last >> s) - d + raised) << s | (t & ((1 << s) - 1))
                    }
                };
                if op == 5 {
                    prop_assert_eq!(q.peek_key(), model.peek().map(|r: &Reverse<EventKey>| r.0));
                } else if op >= 3 {
                    let got = q.pop_keyed();
                    prop_assert_eq!(got.map(|(k, _)| k), model.pop().map(|r| r.0));
                    if let Some((k, item)) = got {
                        prop_assert_eq!(item, k.oseq, "payload travels with its key");
                        last = k.time.0;
                    }
                } else {
                    // Op 2 is a burst of 33–63 at one time or a nanosecond apart.
                    let n = if op == 2 { 33 + 10 * share as u64 } else { 1 };
                    for i in 0..n {
                        key.time = SimTime(at.saturating_add(i * (share as u64 & 1)));
                        if op < 2 && share >= 1 { key.time = prev.time; }
                        if op < 2 && share >= 2 { key.push_time = prev.push_time; }
                        if op < 2 && share >= 3 { key.origin = prev.origin; }
                        // Unique, and a bijection of the push count, so not in push order.
                        key.oseq = pushed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        pushed += 1;
                        q.push_keyed(key, key.oseq);
                        model.push(Reverse(key));
                        prev = key;
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
            while let Some(Reverse(k)) = model.pop() {
                prop_assert_eq!(q.pop_keyed().map(|(k, _)| k), Some(k));
            }
            prop_assert!(q.is_empty());
        }
    }

    /// Fire times at every bit position of the `u64` range, both ends
    /// included.
    fn time() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..4,
            (0u32..64).prop_map(|b| 1 << b),
            (0u32..64).prop_map(|b| u64::MAX >> b),
            (0u32..64, any::<u64>()).prop_map(|(b, r)| r >> b),
        ]
    }

    #[test]
    fn re_files_are_bounded_per_level_and_few_per_event() {
        // 10^4 keys over 2^40 ns, all queued first, so a slot's count is its
        // one entry's: filed at level 9 or lower, each re-file moves it one
        // level down or, from level 0, into `near`.
        let mut rng = crate::rng::SimRng::new(1);
        let mut q = EventQueue::new();
        for i in 0..10_000 {
            q.push(SimTime(rng.below(1 << 40)), i);
        }
        while q.pop().is_some() {}
        assert!(q.refiled.iter().all(|&n| n <= 40 / DIGIT));
        // The DES shape, held at about `session_1k`'s pending peak: pop the
        // earliest, push one at now + U(0, 10 ms).
        let mut q = EventQueue::new();
        for i in 0..4_096 {
            q.push(SimTime(rng.below(10_000_000)), i);
        }
        for i in 0..100_000 {
            let (now, _) = q.pop().expect("held");
            q.push(SimTime(now.0 + rng.below(10_000_000)), i);
        }
        while q.pop().is_some() {}
        let mean = f64::from(q.refiled.iter().sum::<u32>()) / 104_096.0;
        assert!(mean < 4.0, "{mean} re-files per event");
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.peek_key().map(|k| k.time), Some(t(10)));
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn same_time_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(t(5), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo_within_time() {
        let mut q = EventQueue::new();
        q.push(t(1), 0u32);
        q.push(t(2), 1);
        assert_eq!(q.pop(), Some((t(1), 0)));
        // Pushed after a pop, still at the already-seen time 2: must come
        // after the earlier time-2 event.
        q.push(t(2), 2);
        q.push(t(2), 3);
        assert_eq!(q.pop(), Some((t(2), 1)));
        assert_eq!(q.pop(), Some((t(2), 2)));
        assert_eq!(q.pop(), Some((t(2), 3)));
    }

    #[test]
    fn slab_recycles_slots() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.push(t(round * 10 + i), i);
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        // 400 events flowed through, but never more than 8 at once.
        assert_eq!(q.slots.len(), 8);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn keyed_pushes_order_by_full_key_not_insertion() {
        let key = |time_ms: u64, push_ms: u64, origin: u32, oseq: u64| EventKey {
            time: t(time_ms),
            push_time: t(push_ms),
            origin,
            oseq,
        };
        let mut q = EventQueue::new();
        // Same fire time, inserted out of key order: pops sort by
        // (push_time, origin, oseq), not insertion order.
        q.push_keyed(key(5, 2, 3, 0), "late-push");
        q.push_keyed(key(5, 1, 7, 9), "early-push");
        q.push_keyed(key(5, 2, 1, 4), "low-origin");
        q.push_keyed(key(4, 3, 9, 9), "earlier-time");
        assert_eq!(q.peek_key(), Some(key(4, 3, 9, 9)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop_keyed().map(|(_, v)| v)).collect();
        assert_eq!(
            order,
            vec!["earlier-time", "early-push", "low-origin", "late-push"]
        );
    }

    #[test]
    fn legacy_and_keyed_pushes_share_one_heap() {
        let mut q = EventQueue::new();
        q.push(t(10), 1u32);
        q.push_keyed(
            EventKey {
                time: t(10),
                push_time: t(2),
                origin: 4,
                oseq: 0,
            },
            2,
        );
        // Legacy keys carry push_time ZERO, so they sort ahead of any
        // runtime-keyed event at the same fire time.
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(10), 2)));
    }

    #[test]
    fn payloads_are_moved_not_cloned() {
        // A non-Clone payload type compiles and round-trips: the slab
        // moves values, never duplicates them.
        struct NoClone(#[allow(dead_code)] u64);
        let mut q = EventQueue::new();
        q.push(t(1), NoClone(7));
        let (_, v) = q.pop().unwrap();
        assert_eq!(v.0, 7);
    }
}
