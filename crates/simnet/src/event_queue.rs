//! The future event set: a calendar queue with *sorted* buckets and a
//! binary-heap overflow for far-future timers.
//!
//! # Layer boundary
//!
//! This module knows nothing about the simulation: it stores small
//! `Copy` payloads of type `T` inline, keyed by `(Time, seq)`, and pops
//! them in exact key order. The engine owns exactly one `EventQueue`.
//!
//! # Why a calendar
//!
//! Every simulated packet passes through the queue twice (host
//! arrival, delivery). A binary heap pays an O(log n) sift on every push
//! and pop; a calendar queue [Brown 1988] files each event in the bucket
//! covering its timestamp — `buckets[(time >> BUCKET_SHIFT) & BUCKET_MASK]`
//! — making both operations O(1) amortized at simulation event densities.
//!
//! # Intra-bucket order: O(1) pop
//!
//! Buckets are ring buffers kept sorted ascending by `(time, seq)` *on
//! push*: push binary-searches the bucket (an append when keys arrive in
//! order, which is the common case — same-instant bursts carry
//! increasing `seq`), and pop takes the front without scanning. A burst
//! of k co-located events costs k appends and k O(1) pops, and the
//! rewind path (a driver injecting work behind a parked scan) is just a
//! scan-position reset — sorted buckets need no flush protocol.
//!
//! # Skipping empty slots
//!
//! The queue is usually shallow: a 5-process U-Ring broadcast holds ~23
//! pending events on average, and a slot-by-slot scan probed ~3 empty
//! buckets per pop, each a likely cache miss. An occupancy bitmap (one
//! bit per bucket) lets the scan jump straight to the next occupied
//! slot with a word-wise trailing-zeros search.
//!
//! # Bucket-width heuristic
//!
//! The width must sit between two failure modes: too wide and every event
//! lands in one bucket, too narrow and pops spin over empty buckets. The
//! engine's event horizon is dominated by the datagram pipeline — CPU
//! costs (1–30 µs), link serialization (~12 µs/KB at 1 Gbps), and the
//! 50 µs one-way latency — so pending packet events live 10–200 µs ahead
//! of `now`. A 4.096 µs bucket spreads that horizon over ~10–50 buckets,
//! keeping per-bucket occupancy at a few events even with tens of
//! thousands of packets in flight.
//!
//! The bucket *count* trades coverage against footprint. Every push and
//! pop touches a bucket, so the calendar must stay cache-resident: 1024
//! buckets (a ~4.2 ms "year", still covering the packet pipeline and the
//! pacing timers) ran the U-Ring broadcast benchmark in ~0.75× the wall
//! time of 8192 buckets (33.6 ms) on a 2-vCPU Xeon, and the session
//! workloads faster too.
//! Longer timers (retries, suspicion, GC, heartbeats) overflow to the
//! heap, whose O(log n) cost is paid per *timer*, not per packet.
//!
//! # Determinism
//!
//! Keys are unique (`seq` increments per push),
//! and [`EventQueue::find_min`] always returns the minimum `(time, seq)`
//! key in this queue: events with the current scan slot's timestamp can
//! only live at that slot's bucket head, earlier slots have been
//! drained, and the overflow heap is migrated into the calendar before
//! it can hold anything within the active year. Bucket layout is
//! therefore unobservable, and any run is bit-for-bit reproducible from
//! its seed.

use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// Recycling slab with a free list: the storage behind the engine's
/// queued `Envelope` bodies (see `sim` module docs, "Envelope slab").
/// Slot indices are dense `u32`s and freed slots are reused immediately.
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

// Manual impl: `derive` would needlessly require `T: Default`.
impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slab<T> {
    #[inline]
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(value);
                id
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Borrows a filed value (peeks).
    #[inline]
    pub(crate) fn get(&self, id: u32) -> &T {
        self.slots[id as usize].as_ref().expect("filed slab entry present")
    }

    /// Removes a filed value, recycling its slot.
    #[inline]
    pub(crate) fn take(&mut self, id: u32) -> T {
        let value = self.slots[id as usize].take().expect("filed slab entry present");
        self.free.push(id);
        value
    }
}

/// One queued event: its ordering key and its (small, `Copy`) payload,
/// stored inline so push and pop touch only the bucket.
#[derive(Clone, Copy)]
struct Entry<T> {
    time: Time,
    seq: u64,
    kind: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Entry<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Entry<T>) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Position of the minimum queued event, as located by
/// [`EventQueue::find_min`] or [`EventQueue::find_same_time`]. Valid
/// until the next `push` or `take_at`; the event sits at the head of the
/// current scan slot's bucket.
#[derive(Clone, Copy)]
pub(crate) struct MinPos {
    pub(crate) time: Time,
    seq: u64,
}

/// Virtual-time width of one calendar bucket, as a power of two:
/// `1 << BUCKET_SHIFT` nanoseconds (4.096 µs).
const BUCKET_SHIFT: u32 = 12;
/// Number of calendar buckets (a power of two). One "year" —
/// `BUCKET_COUNT << BUCKET_SHIFT` — spans ~4.2 ms of virtual time.
const BUCKET_COUNT: usize = 1 << 10;
const BUCKET_MASK: u64 = BUCKET_COUNT as u64 - 1;
/// Entries an empty bucket may keep allocated. Packet-pipeline buckets
/// hold a handful of events at a time and keep their buffers; a bucket
/// that absorbed a burst releases it once drained.
const BUCKET_RETAIN: usize = 8;

/// One calendar bucket: a ring buffer of entries sorted ascending by
/// `(time, seq)`. Its capacity tracks the most entries it ever held at
/// once, not how many passed through it.
struct Bucket<T> {
    items: VecDeque<Entry<T>>,
}

// Manual impl: `derive` would needlessly require `T: Default`.
impl<T> Default for Bucket<T> {
    fn default() -> Bucket<T> {
        Bucket { items: VecDeque::new() }
    }
}

impl<T: Copy> Bucket<T> {
    #[inline]
    fn peek(&self) -> Option<&Entry<T>> {
        self.items.front()
    }

    /// Files `e` keeping the bucket sorted. Appends when `e` is the new
    /// maximum (the common case: co-located bursts push increasing
    /// `seq`, and a bucket's events are mostly created in time order);
    /// otherwise binary-searches for its place.
    #[inline]
    fn insert(&mut self, e: Entry<T>) {
        if self.items.back().is_none_or(|last| last.key() < e.key()) {
            self.items.push_back(e);
            return;
        }
        let pos = self.items.partition_point(|x| x.key() < e.key());
        self.items.insert(pos, e);
    }

    /// Removes and returns the bucket minimum (the front). O(1). A
    /// bucket that empties gives back an allocation larger than
    /// [`BUCKET_RETAIN`] entries, so the calendar's footprint follows the
    /// live event count rather than every bucket's all-time peak.
    #[inline]
    fn pop_head(&mut self) -> Entry<T> {
        let e = self.items.pop_front().expect("pop from an occupied bucket");
        if self.items.is_empty() && self.items.capacity() > BUCKET_RETAIN {
            self.items = VecDeque::new();
        }
        e
    }
}

/// A calendar queue of `(Time, seq)`-keyed events carrying small `Copy`
/// payloads inline, with a binary-heap overflow for far-future entries.
/// See the module docs for the design rationale.
pub(crate) struct EventQueue<T> {
    /// Calendar buckets; `buckets[vslot & BUCKET_MASK]` holds events
    /// whose `time >> BUCKET_SHIFT == vslot` for vslots within roughly
    /// one year of the scan position (older years sort first, so the
    /// bucket head is always the bucket minimum).
    buckets: Vec<Bucket<T>>,
    /// Occupancy bitmap over `buckets`: bit `i` is set iff bucket `i`
    /// holds an entry, so the scan jumps straight to the next occupied
    /// slot instead of probing empty buckets one by one.
    occupied: Vec<u64>,
    /// Current scan slot: no bucketed event's vslot is below it.
    cur_vslot: u64,
    /// Events currently filed in the calendar.
    in_buckets: usize,
    /// Far-future events (≥ one year ahead at push time), ordered by
    /// `(time, seq)`; migrated into the calendar as the scan approaches.
    overflow: BinaryHeap<std::cmp::Reverse<Entry<T>>>,
    /// Memoized result of the last [`EventQueue::find_min`], so the run
    /// run loop's peek-then-maybe-pop pattern (a deadline check that
    /// leaves the event queued) never re-walks the scan.
    /// Invalidated by any push or take.
    memo: Option<MinPos>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue {
            buckets: (0..BUCKET_COUNT).map(|_| Bucket::default()).collect(),
            occupied: vec![0; BUCKET_COUNT / 64],
            cur_vslot: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            memo: None,
        }
    }
}

impl<T: Copy> EventQueue<T> {
    #[inline]
    fn vslot(time: Time) -> u64 {
        time.as_nanos() >> BUCKET_SHIFT
    }

    /// Whether no events are queued (calendar and overflow both empty).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.in_buckets == 0 && self.overflow.is_empty()
    }

    #[inline]
    pub(crate) fn push(&mut self, time: Time, seq: u64, kind: T) {
        self.memo = None;
        let entry = Entry { time, seq, kind };
        let vslot = Self::vslot(time);
        if vslot >= self.cur_vslot + BUCKET_COUNT as u64 {
            self.overflow.push(std::cmp::Reverse(entry));
            return;
        }
        // An event behind the scan position (possible when a driver
        // injects work after `run_until` parked the scan on a far-future
        // timer): rewind so the scan cannot miss it.
        // Buckets stay sorted, so unlike the earlier extract-and-sort
        // design there is no side state to flush — the reset alone
        // restores the scan invariant. Buckets may then transiently hold
        // more than one year's vslots, which the scan-time vslot check
        // in `find_min` handles.
        if vslot < self.cur_vslot {
            self.cur_vslot = vslot;
        }
        self.file(vslot, entry);
    }

    /// Files `e` (whose slot is `vslot`) into its calendar bucket.
    #[inline]
    fn file(&mut self, vslot: u64, e: Entry<T>) {
        let idx = (vslot & BUCKET_MASK) as usize;
        self.buckets[idx].insert(e);
        self.occupied[idx >> 6] |= 1 << (idx & 63);
        self.in_buckets += 1;
    }

    /// The first slot after `cur` whose bucket is occupied (at most one
    /// year ahead: `cur`'s own bucket, if occupied, is found again at
    /// `cur + BUCKET_COUNT`). Requires a non-empty calendar.
    #[inline]
    fn next_occupied_after(&self, cur: u64) -> u64 {
        let start = ((cur + 1) & BUCKET_MASK) as usize;
        let words = self.occupied.len();
        let mut w = start >> 6;
        let mut bits = self.occupied[w] & (!0u64 << (start & 63));
        // One extra word revisits the start word's low bits after the wrap.
        for _ in 0..=words {
            if bits != 0 {
                let idx = (w << 6) | bits.trailing_zeros() as usize;
                let dist = idx.wrapping_sub(start) & (BUCKET_COUNT - 1);
                return cur + 1 + dist as u64;
            }
            w = (w + 1) % words;
            bits = self.occupied[w];
        }
        unreachable!("next_occupied_after on an empty calendar")
    }

    /// Migrates overflow events that now fall within one year of the scan
    /// position into the calendar.
    fn drain_overflow(&mut self) {
        let horizon = self.cur_vslot + BUCKET_COUNT as u64;
        while let Some(std::cmp::Reverse(top)) = self.overflow.peek() {
            if Self::vslot(top.time) >= horizon {
                return;
            }
            let std::cmp::Reverse(e) = self.overflow.pop().expect("peeked");
            self.file(Self::vslot(e.time), e);
        }
    }

    /// Pops the earliest event if its time is at or before `deadline`;
    /// returns `None` (leaving the event queued) otherwise.
    #[cfg(test)]
    pub(crate) fn pop_due(&mut self, deadline: Time) -> Option<(Time, T)> {
        let pos = self.find_min()?;
        if pos.time > deadline {
            return None; // stays queued
        }
        Some(self.take_at(pos))
    }

    /// Locates the minimum `(time, seq)` queued event without removing
    /// it, advancing the scan position (and migrating newly-near
    /// overflow events) as a side effect. The returned position is valid
    /// until the next `push` or `take_at`. O(1) when the minimum's slot
    /// is already under the scan: sorted buckets put it at the head.
    pub(crate) fn find_min(&mut self) -> Option<MinPos> {
        if let Some(pos) = self.memo {
            return Some(pos);
        }
        if self.in_buckets == 0 {
            // Calendar empty: jump the scan straight to the earliest
            // far-future event instead of sweeping empty years.
            let std::cmp::Reverse(top) = self.overflow.peek()?;
            self.cur_vslot = Self::vslot(top.time);
        }
        self.drain_overflow();
        debug_assert!(self.in_buckets > 0);
        let mut scanned = 0u64;
        loop {
            let cur = self.cur_vslot;
            // The bucket head is the bucket minimum; it belongs to the
            // scan slot unless every entry here is from a later year
            // (later years have strictly larger keys, so they can never
            // shadow a current-year entry).
            if let Some(&e) = self.buckets[(cur & BUCKET_MASK) as usize].peek() {
                if Self::vslot(e.time) == cur {
                    let pos = MinPos { time: e.time, seq: e.seq };
                    self.memo = Some(pos);
                    return Some(pos);
                }
            }
            self.advance_slot(&mut scanned);
        }
    }

    /// The payload of the event `find_min`/`find_same_time` located
    /// (peek; no removal).
    #[inline]
    pub(crate) fn kind_at(&self, pos: MinPos) -> &T {
        let e = self.buckets[(self.cur_vslot & BUCKET_MASK) as usize].peek().expect("located");
        debug_assert_eq!(e.key(), (pos.time, pos.seq));
        &e.kind
    }

    /// Locates the minimum-seq event queued at exactly `time`, given
    /// that the minimum at `time` was just popped. Equal times share one
    /// calendar slot, so only the current bucket's head can hold a match
    /// — this is the delivery-run coalescing probe, and unlike
    /// `find_min` it never advances the scan or migrates overflow when
    /// there is nothing to coalesce. Sound because every remaining
    /// event's time is ≥ `time`: an exact match (minimal seq) *is* this
    /// queue's minimum.
    pub(crate) fn find_same_time(&mut self, time: Time) -> Option<MinPos> {
        if Self::vslot(time) != self.cur_vslot {
            return None; // a push rewound the scan below `time`
        }
        let e = self.buckets[(self.cur_vslot & BUCKET_MASK) as usize].peek()?;
        (e.time == time).then_some(MinPos { time: e.time, seq: e.seq })
    }

    /// Removes the event `find_min`/`find_same_time` located. O(1): the
    /// located event is the current bucket head.
    #[inline]
    pub(crate) fn take_at(&mut self, pos: MinPos) -> (Time, T) {
        self.memo = None;
        let idx = (self.cur_vslot & BUCKET_MASK) as usize;
        let e = self.buckets[idx].pop_head();
        debug_assert_eq!(e.key(), (pos.time, pos.seq));
        if self.buckets[idx].peek().is_none() {
            self.occupied[idx >> 6] &= !(1 << (idx & 63));
        }
        self.in_buckets -= 1;
        (e.time, e.kind)
    }

    /// Advances the scan to the next occupied slot, migrating newly-near
    /// overflow events, and takes the sparse-queue jump once a whole
    /// year has been scanned without a hit. Skipping the empty slots in
    /// between is safe: every overflow event lies at least one year past
    /// the scan position, so none can belong to a skipped slot.
    fn advance_slot(&mut self, scanned: &mut u64) {
        let next = self.next_occupied_after(self.cur_vslot);
        *scanned += next - self.cur_vslot;
        self.cur_vslot = next;
        self.drain_overflow();
        if *scanned > BUCKET_COUNT as u64 {
            // Sparse queue: a whole year of empty slots. Jump to the
            // earliest event — bucketed *or* still parked in the
            // overflow heap (jumping past the overflow minimum would
            // pop a later bucketed event first and run time backwards).
            // Bucket heads are bucket minima, so heads suffice.
            let min_bucketed = self
                .buckets
                .iter()
                .filter_map(Bucket::peek)
                .map(|e| Self::vslot(e.time))
                .min()
                .expect("in_buckets > 0");
            let min_overflow = self.overflow.peek().map(|std::cmp::Reverse(e)| Self::vslot(e.time));
            self.cur_vslot = min_overflow.map_or(min_bucketed, |o| min_bucketed.min(o));
            self.drain_overflow();
            *scanned = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;
    use proptest::prelude::*;

    /// Same-timestamp bursts and the plain scan must both pop in exact
    /// `(time, seq)` order, including pushes interleaved with pops into
    /// the slot being drained.
    #[test]
    fn pops_co_located_bursts_in_seq_order() {
        let mut q: EventQueue<u64> = EventQueue::default();
        let t = Time::ZERO + Dur::micros(1); // all in one bucket
        let mut seq = 0u64;
        for _ in 0..1000 {
            seq += 1;
            q.push(t, seq, seq);
        }
        let mut popped = Vec::new();
        for round in 0..500 {
            let (time, token) = q.pop_due(Time::MAX).expect("queued");
            assert_eq!(time, t);
            popped.push(token);
            // Interleave same-slot pushes while the burst drains.
            if round % 7 == 0 {
                seq += 1;
                q.push(t, seq, seq);
            }
        }
        while let Some((_, token)) = q.pop_due(Time::MAX) {
            popped.push(token);
        }
        let mut want = popped.clone();
        want.sort_unstable();
        assert_eq!(popped, want, "pops must follow seq order");
        assert_eq!(popped.len(), 1000 + 500usize.div_ceil(7));
    }

    /// A push behind the scan position must rewind the scan; with sorted
    /// buckets there is no side state to repair, but the rewound region
    /// must still pop before anything the scan was parked on.
    #[test]
    fn rewind_pops_near_events_first() {
        let mut q: EventQueue<u64> = EventQueue::default();
        let far = Time::ZERO + Dur::millis(30);
        for seq in 1..=40u64 {
            q.push(far, seq, seq);
        }
        // Park the scan on the far slot without popping.
        assert!(q.pop_due(Time::ZERO).is_none());
        // Rewind with a near burst plus one timer between the two.
        let near = Time::ZERO + Dur::micros(1);
        for seq in 100..140u64 {
            q.push(near, seq, seq);
        }
        q.push(Time::ZERO + Dur::millis(1), 200, 200);
        let mut popped = Vec::new();
        while let Some((time, _)) = q.pop_due(Time::MAX) {
            popped.push(time);
        }
        assert_eq!(popped.len(), 81, "no event lost or duplicated");
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "popped out of order: {popped:?}");
    }

    /// A scan that wraps a full year back onto its own bucket must
    /// migrate overflow events before reading that bucket's head: an
    /// overflow event filed for the very slot the scan lands on may
    /// precede the head already there (left a year ahead by a rewind).
    #[test]
    fn scan_landing_a_year_ahead_drains_overflow_first() {
        let at = |vslot: u64| Time::ZERO + Dur::nanos(vslot << BUCKET_SHIFT);
        let year = BUCKET_COUNT as u64;
        let mut q: EventQueue<u64> = EventQueue::default();
        q.push(at(year / 2), 1, 1);
        assert_eq!(q.pop_due(Time::MAX).map(|(_, k)| k), Some(1)); // scan parks mid-year
        q.push(at(10 + year) + Dur::nanos(100), 2, 2); // within a year of the scan: bucketed
        q.push(at(10), 3, 3); // rewind to slot 10, whose bucket also holds event 2
        q.push(at(10 + year), 4, 4); // a year past the rewound scan: overflow
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_due(Time::MAX).map(|(_, k)| k)).collect();
        assert_eq!(order, vec![3, 4, 2]);
    }

    /// Virtual-time width of one calendar "year".
    const YEAR: Dur = Dur::nanos((BUCKET_COUNT as u64) << BUCKET_SHIFT);

    /// Co-located events over the old hot-bucket threshold, to keep the
    /// proptest exercising dense same-timestamp bursts.
    const BURST: usize = 36;

    proptest::proptest! {
        /// Model-based check of the calendar queue against a
        /// `BinaryHeap` reference under arbitrary interleavings of
        /// near-future pushes, same-timestamp bursts, far-overflow
        /// timers (multiple calendar years out), deadline-limited pops,
        /// and scan parks followed by behind-the-scan pushes (rewind).
        /// Both structures must agree on the exact `(time, seq)` pop
        /// order.
        #[test]
        fn event_queue_matches_reference_heap(
            ops in proptest::collection::vec((0u8..6u8, proptest::any::<u32>()), 0..120)
        ) {
            let mut q: EventQueue<u64> = EventQueue::default();
            let mut model: BinaryHeap<std::cmp::Reverse<(Time, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            // Lower bound for new pushes: the engine never schedules
            // below `now`, but a parked scan may sit far above it.
            let mut cursor = Time::ZERO;
            let push = |q: &mut EventQueue<u64>,
                            model: &mut BinaryHeap<std::cmp::Reverse<(Time, u64)>>,
                            seq: &mut u64,
                            at: Time| {
                *seq += 1;
                q.push(at, *seq, *seq);
                model.push(std::cmp::Reverse((at, *seq)));
            };
            let pop_and_check = |q: &mut EventQueue<u64>,
                                     model: &mut BinaryHeap<std::cmp::Reverse<(Time, u64)>>,
                                     deadline: Time|
             -> Result<Option<Time>, proptest::test_runner::TestCaseError> {
                let got = q.pop_due(deadline);
                let want = match model.peek() {
                    Some(&std::cmp::Reverse((t, _))) if t <= deadline => {
                        let std::cmp::Reverse((t, s)) = model.pop().expect("peeked");
                        Some((t, s))
                    }
                    _ => None,
                };
                match (got, want) {
                    (None, None) => Ok(None),
                    (Some((t, token)), Some((wt, ws))) => {
                        prop_assert_eq!((t, token), (wt, ws), "pop order diverged");
                        Ok(Some(t))
                    }
                    (got, want) => {
                        let got = got.map(|(t, _)| t);
                        let want = want.map(|(t, _)| t);
                        prop_assert_eq!(got, want, "one side popped, the other did not");
                        Ok(None)
                    }
                }
            };
            for &(op, arg) in &ops {
                let jitter = Dur::nanos((arg % 500_000) as u64);
                match op {
                    // Near-future push (within the scan's first years).
                    0 => push(&mut q, &mut model, &mut seq, cursor + jitter),
                    // Same-timestamp burst.
                    1 => {
                        let t = cursor + Dur::nanos((arg % 100_000) as u64);
                        for _ in 0..BURST {
                            push(&mut q, &mut model, &mut seq, t);
                        }
                    }
                    // Far-overflow push, one to three calendar years out.
                    2 => {
                        let years = 1 + (arg % 3) as u64;
                        push(&mut q, &mut model, &mut seq, cursor + YEAR * years + jitter);
                    }
                    // Park the scan on the earliest event's slot without
                    // popping it (deadline below every queued event),
                    // then push behind the parked position: the rewind
                    // path.
                    3 => {
                        let _ = pop_and_check(&mut q, &mut model, cursor)?;
                        push(&mut q, &mut model, &mut seq, cursor + Dur::nanos((arg % 4_000) as u64));
                    }
                    // Bounded-deadline pops.
                    4 => {
                        let deadline = cursor + jitter;
                        for _ in 0..8 {
                            if let Some(t) = pop_and_check(&mut q, &mut model, deadline)? {
                                cursor = cursor.max(t);
                            } else {
                                break;
                            }
                        }
                    }
                    // Unbounded pops (a few).
                    _ => {
                        for _ in 0..4 {
                            if let Some(t) = pop_and_check(&mut q, &mut model, Time::MAX)? {
                                cursor = cursor.max(t);
                            } else {
                                break;
                            }
                        }
                    }
                }
            }
            // Drain both completely; the full residual order must match.
            loop {
                let t = pop_and_check(&mut q, &mut model, Time::MAX)?;
                match t {
                    Some(t) => cursor = cursor.max(t),
                    None => break,
                }
            }
            prop_assert!(model.is_empty());
            prop_assert_eq!(q.in_buckets, 0);
            prop_assert!(q.is_empty());
        }
    }
}
