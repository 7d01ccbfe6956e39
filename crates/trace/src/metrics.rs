//! Hermetic metrics: named counters, kept in a thread-local registry that
//! is always on, and the log-scale [`Histogram`] value type.
//!
//! Unlike the scoped [`crate::sink`], counters accumulate continuously —
//! the intended pattern is *snapshot-diff*: take a [`snapshot`] before an
//! operation, another after, and [`Snapshot::delta`] isolates exactly the
//! work that operation performed. `tab_fork_breakdown` reconstructs its
//! entire cost decomposition this way, with no bespoke counters in the
//! experiment code. Code that runs several threads takes the
//! snapshot-diff on each of them and adds the deltas up with
//! [`Snapshot::merge`].
//!
//! Counter names are namespaced `&'static str` keys —
//! `"mem.fork.pte_copy"`, `"kernel.fd_clone"`, `"exec.image_cache.hit"` — and
//! there is no registration step: the first update under a name makes the
//! counter. An update never reads the name. The thread's counters sit in
//! a small open-addressed table keyed by the name's *address and length*,
//! so bumping one is a hash of two words and a pointer comparison; the
//! table is allocated at the thread's first update and doubles (one
//! rehash) when it is half full, and no other update allocates. Names
//! are read by [`snapshot`] alone, which walks the table and builds the
//! name-ordered [`Snapshot`]: the same text at two addresses (two crates'
//! copies of a literal, a leaked `String`) is one counter there, summed.
//!
//! A [`Histogram`] is a value its owner records into, not a registry
//! entry: the workload kit's open loop keeps one per creation path
//! and one of sojourn times, and E15 reads its tails from them. It
//! buckets by `floor(log2(value))`, which spans the full `u64` range in
//! 65 buckets: right for latency-like quantities that vary over orders of
//! magnitude.
//!
//! Updating a metric charges **zero** simulated cycles: the cycle model
//! is never touched from this module.
//!
//! ```
//! use fpr_trace::metrics;
//!
//! let before = metrics::snapshot();
//! metrics::add("mem.fork.pte_copy", 259);
//! let delta = metrics::snapshot().delta(&before);
//! assert_eq!(delta.counter("mem.fork.pte_copy"), 259);
//! assert_eq!(delta.counter("mem.page_copy"), 0, "absent reads zero");
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Number of log2 buckets: one for zero, one per bit position of `u64`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A log-scale histogram: counts, sum, extrema, and per-bucket tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Tallies: bucket `0` holds zeros, bucket `i` holds values with
    /// `floor(log2(v)) == i - 1`, i.e. `v` in `[2^(i-1), 2^i)`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// The bucket index a value falls into.
    ///
    /// ```
    /// use fpr_trace::metrics::Histogram;
    /// assert_eq!(Histogram::bucket_index(0), 0);
    /// assert_eq!(Histogram::bucket_index(1), 1);
    /// assert_eq!(Histogram::bucket_index(1023), 10);
    /// assert_eq!(Histogram::bucket_index(1024), 11);
    /// ```
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Inclusive value range `[lo, hi]` covered by bucket `i`.
    ///
    /// ```
    /// use fpr_trace::metrics::Histogram;
    /// assert_eq!(Histogram::bucket_bounds(0), (0, 0));
    /// assert_eq!(Histogram::bucket_bounds(1), (1, 1));
    /// assert_eq!(Histogram::bucket_bounds(11), (1024, 2047));
    /// assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
    /// ```
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index {i} out of range");
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1u64 << (i - 1), (1u64 << i) - 1),
        }
    }

    /// Estimates the `p`-th percentile (`0 < p <= 100`) from the log2
    /// buckets. Returns 0 when the histogram is empty.
    ///
    /// The estimate walks the cumulative bucket counts to the bucket
    /// holding rank `ceil(p/100 * count)` and reports that bucket's
    /// midpoint, clamped to the intersection of the bucket range and the
    /// recorded `[min, max]`. Because the exact rank value lies in the
    /// same bucket (and inside `[min, max]`), the estimate is always
    /// within one power-of-two bucket of the true percentile, and exact
    /// for single-valued or extremal distributions.
    ///
    /// ```
    /// use fpr_trace::metrics::Histogram;
    /// let mut h = Histogram::default();
    /// for v in 1..=1000u64 {
    ///     h.record(v);
    /// }
    /// // The true p50 is 500; the estimate lands in the same [256, 512)
    /// // bucket.
    /// let est = h.percentile(50.0);
    /// assert_eq!(Histogram::bucket_index(est), Histogram::bucket_index(500));
    /// ```
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(lo.max(self.min), hi.min(self.max));
            }
        }
        self.max
    }

    /// Median estimate: `percentile(50.0)`.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th-percentile estimate: `percentile(95.0)`.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th-percentile estimate: `percentile(99.0)`.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }
}

/// A point-in-time copy of the registry; also the type of a delta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: BTreeMap<&'static str, u64>,
}

impl Snapshot {
    /// Reads a counter; absent counters read zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// The change from `earlier` to `self` (counter-wise saturating
    /// subtraction, so a [`reset`] between snapshots yields zeros rather
    /// than wrapping).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (*k, v.saturating_sub(earlier.counter(k))))
            .collect();
        Snapshot { counters }
    }

    /// Folds `other` into `self`: counters add.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
    }
}

/// Slots a thread's counter table starts with; a power of two. The
/// simulator has two dozen counter names, so this one is rarely outgrown.
const INITIAL_SLOTS: usize = 256;

/// A thread's counters: open addressing with linear probing over a
/// power-of-two number of slots, keyed by the *identity* of the name —
/// where the `&'static str` points and how long it is — never its text.
/// At most half the slots are held, so a probe ends at a vacant one.
#[derive(Debug)]
struct CounterTable {
    /// Empty until the first update.
    slots: Vec<Option<(&'static str, u64)>>,
    held: usize,
}

impl CounterTable {
    const fn new() -> CounterTable {
        CounterTable {
            slots: Vec::new(),
            held: 0,
        }
    }

    /// Where the probe for `name` starts in a table of `mask + 1` slots.
    fn home(name: &'static str, mask: usize) -> usize {
        let key = (name.as_ptr() as usize as u64) ^ (name.len() as u64).rotate_left(48);
        // Fibonacci hashing: the high bits of the product mix all of `key`.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// Adds `n` to the counter `name` identifies, making it if need be.
    #[inline]
    fn bump(&mut self, name: &'static str, n: u64) {
        if self.slots.is_empty() {
            self.slots = vec![None; INITIAL_SLOTS];
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::home(name, mask);
        loop {
            match &mut self.slots[i] {
                Some((held, value)) if std::ptr::eq(*held, name) => {
                    *value += n;
                    return;
                }
                Some(_) => i = (i + 1) & mask,
                vacant => {
                    *vacant = Some((name, n));
                    break;
                }
            }
        }
        self.held += 1;
        if self.held * 2 > self.slots.len() {
            self.grow();
        }
    }

    /// Doubles the table, probing every held slot into its new place.
    #[cold]
    fn grow(&mut self) {
        let doubled = vec![None; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().flatten() {
            let mut i = Self::home(slot.0, mask);
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(slot);
        }
    }

    /// The counters by name, equal names summed; a counter is there if it
    /// reads nonzero, as one is made only by adding to it.
    fn by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut counters = BTreeMap::new();
        for &(name, value) in self.slots.iter().flatten() {
            if value != 0 {
                *counters.entry(name).or_insert(0) += value;
            }
        }
        counters
    }
}

thread_local! {
    /// What this thread has counted since its last [`reset`].
    static REGISTRY: RefCell<CounterTable> = const { RefCell::new(CounterTable::new()) };
}

/// Adds `n` to counter `name`. The first nonzero `n` makes the counter;
/// `add(name, 0)` does nothing, so a counter that exists reads nonzero.
pub fn add(name: &'static str, n: u64) {
    if n == 0 {
        return;
    }
    REGISTRY.with(|r| r.borrow_mut().bump(name, n));
}

/// Adds one to counter `name`.
pub fn incr(name: &'static str) {
    REGISTRY.with(|r| r.borrow_mut().bump(name, 1));
}

/// Copies this thread's counters: a walk of the counter table (every
/// slot, held or not) plus an ordered-map insert per counter — for
/// once-per-operation use, not per page.
pub fn snapshot() -> Snapshot {
    REGISTRY.with(|r| Snapshot {
        counters: r.borrow().by_name(),
    })
}

/// Clears every counter on this thread.
pub fn reset() {
    REGISTRY.with(|r| *r.borrow_mut() = CounterTable::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        reset();
        incr("t.a");
        add("t.a", 4);
        let mid = snapshot();
        add("t.a", 10);
        add("t.b", 2);
        let d = snapshot().delta(&mid);
        assert_eq!(d.counter("t.a"), 10);
        assert_eq!(d.counter("t.b"), 2);
        assert_eq!(d.counter("t.c"), 0);
        assert_eq!(mid.counter("t.a"), 5);
    }

    /// A name the test owns: leaked, so `&'static`, at an address of its
    /// own whatever the text.
    fn leaked(text: &str) -> &'static str {
        Box::leak(text.to_string().into_boxed_str())
    }

    #[test]
    fn equal_names_at_different_addresses_are_one_counter() {
        reset();
        let (a, b) = (leaked("t.same"), leaked("t.same"));
        assert!(!std::ptr::eq(a, b), "two allocations");
        add(a, 3);
        incr(b);
        add(a, 1);
        let s = snapshot();
        assert_eq!(s.counter("t.same"), 5);
        assert_eq!(s.counters().count(), 1, "merged, not listed twice");
        // A prefix of a held name shares its address but not its length.
        add(&a[..3], 7);
        let s = snapshot();
        assert_eq!((s.counter("t.s"), s.counter("t.same")), (7, 5));
    }

    #[test]
    fn a_counter_exists_once_something_was_added_to_it() {
        reset();
        add("t.zero", 0);
        incr("t.one");
        let s = snapshot();
        assert_eq!(s.counters().collect::<Vec<_>>(), [("t.one", 1)]);
        assert_eq!(s.counter("t.zero"), 0);
        assert_eq!(s.counter("t.never"), 0);
        add("t.zero", 0);
        assert_eq!(snapshot(), s, "adding zero to nothing makes nothing");
    }

    #[test]
    fn counters_iterate_in_name_order() {
        reset();
        for name in ["t.m", "t.z", "t.a", "t.mm", "s.z"] {
            incr(name);
        }
        let names: Vec<_> = snapshot().counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["s.z", "t.a", "t.m", "t.mm", "t.z"]);
    }

    #[test]
    fn more_names_than_slots_survive_growth() {
        reset();
        let names: Vec<&'static str> = (0..1_000)
            .map(|i| leaked(&format!("t.grow.{i:04}")))
            .collect();
        assert!(names.len() > INITIAL_SLOTS);
        for (i, name) in names.iter().enumerate() {
            add(name, i as u64 + 1);
        }
        // Second round: every name is found again where growth put it.
        for name in &names {
            incr(name);
        }
        let s = snapshot();
        assert_eq!(s.counters().count(), names.len());
        for (i, name) in names.iter().enumerate() {
            assert_eq!(s.counter(name), i as u64 + 2, "{name}");
        }
        let listed: Vec<_> = s.counters().map(|(k, _)| k).collect();
        assert_eq!(listed, names, "zero-padded, so made in name order");
        REGISTRY.with(|r| {
            let table = r.borrow();
            assert_eq!(table.held, names.len());
            assert!(table.slots.len() >= 2 * table.held, "at most half full");
        });
    }

    #[test]
    fn reset_leaves_the_registry_empty() {
        incr("t.empty.reset");
        add("t.empty.add", 4);
        reset();
        assert_eq!(REGISTRY.with(|r| r.borrow().held), 0);
        assert_eq!(snapshot(), Snapshot::default());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1034);
        assert_eq!((h.min, h.max), (0, 1024));
        assert_eq!(h.buckets[0], 1, "zero bucket");
        assert_eq!(h.buckets[1], 1, "[1,2)");
        assert_eq!(h.buckets[2], 2, "[2,4)");
        assert_eq!(h.buckets[3], 1, "[4,8)");
        assert_eq!(h.buckets[11], 1, "[1024,2048)");
    }

    #[test]
    fn bucket_index_full_range() {
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index((1 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_round_trip() {
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(Histogram::bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn percentile_empty_and_single() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0);
        let mut h = Histogram::default();
        h.record(777);
        // Clamping to [min, max] makes single-value histograms exact.
        assert_eq!(h.p50(), 777);
        assert_eq!(h.p99(), 777);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::default();
        for v in [3u64, 17, 90, 1_000, 5_000, 5_001, 120_000] {
            h.record(v);
        }
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max);
        assert!(h.min <= h.p50());
    }
}
