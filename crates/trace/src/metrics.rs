//! Hermetic metrics: counters, kept per thread and always on, and the
//! log-scale [`Histogram`] value type.
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
//! Every counter the simulator keeps is a [`Counter`]: a variant and a
//! dotted name — `"mem.fork.pte_copy"`, `"kernel.fd_clone"`,
//! `"exec.image_cache.hit"`. A thread's counters are a const-initialised
//! thread-local array of `Cell<u64>` indexed by the variant, so
//! `Counter::PageCopy.incr()` is one add: no hash, no probe, no borrow
//! flag, no allocation. Names are read by [`snapshot`] alone, which lists
//! the counters that read nonzero in name order — the order of
//! [`Counter::ALL`].
//!
//! The by-name [`add`] and [`incr`] serve code outside the workspace. A
//! name that is a [`Counter`]'s adds to that counter, so equal text is
//! one counter; any other name goes to a per-thread map keyed by its
//! text.
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
//! use fpr_trace::metrics::{self, Counter};
//!
//! let before = metrics::snapshot();
//! Counter::ForkPteCopy.add(259);
//! let delta = metrics::snapshot().delta(&before);
//! assert_eq!(delta.counter("mem.fork.pte_copy"), 259);
//! assert_eq!(delta.counter("mem.page_copy"), 0, "absent reads zero");
//! ```

use std::cell::{Cell, RefCell};
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

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// Every counter the simulator keeps, by its index in this thread's
        /// array: bumping one is an indexed add. The variants are in the
        /// order of their names, the order [`snapshot`] lists them in.
        ///
        /// ```
        /// use fpr_trace::metrics::Counter;
        ///
        /// assert_eq!(Counter::CowCopy.name(), "mem.fault.cow_copy");
        /// assert_eq!(Counter::ALL[Counter::CowCopy as usize], Counter::CowCopy);
        /// assert_eq!(Counter::ALL.len(), Counter::COUNT);
        /// ```
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in index order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant,)*];
            /// How many counters there are.
            pub const COUNT: usize = [$($name,)*].len();

            /// The counter's dotted name, the one a [`Snapshot`] reads it by.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }

            /// Adds `n` to this counter on this thread.
            #[inline]
            pub fn add(self, n: u64) {
                COUNTS.with(|counts| counts[self as usize].update(|v| v + n));
            }

            /// Adds one to this counter on this thread.
            #[inline]
            pub fn incr(self) {
                self.add(1);
            }
        }
    };
}

counters! {
    /// An autoscale step skipped under memory pressure.
    PoolAutoscaleSkipped => "api.pool.autoscale_skipped",
    /// A spawn served from the pre-built pool.
    PoolCheckout => "api.pool.checkout",
    /// A fast spawn the pool could not serve.
    PoolMiss => "api.pool.miss",
    /// A parked process reclaimed.
    PoolReclaim => "api.pool.reclaim",
    /// A process parked by a refill.
    PoolRefill => "api.pool.refill",
    /// A refill held back while swap thrashes.
    PoolThrottled => "api.pool.throttled",
    /// An image evicted from the exec image cache.
    ImageCacheEvict => "exec.image_cache.evict",
    /// An exec whose image was cached.
    ImageCacheHit => "exec.image_cache.hit",
    /// An exec whose image had to be loaded.
    ImageCacheMiss => "exec.image_cache.miss",
    /// A file-descriptor table entry cloned.
    FdClone => "kernel.fd_clone",
    /// A COW break that copied its frame.
    CowCopy => "mem.fault.cow_copy",
    /// A page a demand fill made resident.
    DemandFill => "mem.fault.demand_fill",
    /// A page-table node a fork built for its child.
    ForkPtNode => "mem.fork.pt_node",
    /// A leaf subtree an on-demand fork shared with its child.
    ForkPtSubtreeShare => "mem.fork.pt_subtree_share",
    /// A PTE a fork copied into its child.
    ForkPteCopy => "mem.fork.pte_copy",
    /// A VMA record a fork cloned.
    ForkVmaClone => "mem.fork.vma_clone",
    /// A frame handed out.
    FrameAlloc => "mem.frame_alloc",
    /// A frame freed.
    FrameFree => "mem.frame_free",
    /// A page copied (COW break or eager fork).
    PageCopy => "mem.page_copy",
    /// A TLB entry a ranged flush invalidated.
    TlbEntriesFlushed => "mem.tlb.entries_flushed",
    /// A TLB shootdown.
    TlbShootdown => "mem.tlb.shootdown",
    /// A shared leaf node privatized on first touch.
    UnsharePtNode => "mem.unshare.pt_node",
    /// A PTE copied by such a privatization.
    UnsharePteCopy => "mem.unshare.pte_copy",
}

thread_local! {
    /// What this thread has counted since its last [`reset`], by
    /// [`Counter`] index.
    static COUNTS: [Cell<u64>; Counter::COUNT] = const { [const { Cell::new(0) }; Counter::COUNT] };
    /// What this thread has counted under a name no [`Counter`] has, by
    /// the name's text.
    static BY_NAME: RefCell<BTreeMap<&'static str, u64>> = const { RefCell::new(BTreeMap::new()) };
}

/// Adds `n` to the counter named `name`: the [`Counter`] of that name if
/// there is one, else this thread's by-name entry for that text. The first
/// nonzero `n` makes the counter; `add(name, 0)` does nothing, so a
/// counter that exists reads nonzero.
pub fn add(name: &'static str, n: u64) {
    add_named(name, n);
}

/// Adds one to the counter named `name`.
pub fn incr(name: &'static str) {
    add_named(name, 1);
}

/// [`add`] and [`incr`]: a name already held by-name is found there;
/// else the names of [`Counter::ALL`] ascend, so a binary search finds a
/// counter's.
fn add_named(name: &'static str, n: u64) {
    BY_NAME.with_borrow_mut(|named| match named.get_mut(name) {
        Some(value) => *value += n,
        None => match Counter::ALL.binary_search_by(|counter| counter.name().cmp(name)) {
            Ok(i) => Counter::ALL[i].add(n),
            Err(_) if n == 0 => {}
            Err(_) => _ = named.insert(name, n),
        },
    });
}

/// Copies this thread's counters: every [`Counter`] that reads nonzero
/// and every by-name entry, inserted into an ordered map — for
/// once-per-operation use, not per page.
pub fn snapshot() -> Snapshot {
    let mut counters = BY_NAME.with(|named| named.borrow().clone());
    COUNTS.with(|counts| {
        for (counter, cell) in Counter::ALL.into_iter().zip(counts).filter(|(_, cell)| cell.get() != 0) {
            counters.insert(counter.name(), cell.get());
        }
    });
    Snapshot { counters }
}

/// Clears every counter on this thread.
pub fn reset() {
    COUNTS.with(|counts| counts.iter().for_each(|cell| cell.set(0)));
    BY_NAME.with(|named| named.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        reset();
        Counter::PageCopy.incr();
        Counter::PageCopy.add(4);
        let mid = snapshot();
        Counter::PageCopy.add(10);
        Counter::FrameFree.add(2);
        let d = snapshot().delta(&mid);
        assert_eq!(d.counter("mem.page_copy"), 10);
        assert_eq!(d.counter("mem.frame_free"), 2);
        assert_eq!(d.counter("mem.frame_alloc"), 0);
        assert_eq!(mid.counter("mem.page_copy"), 5);
    }

    /// A name the test owns: leaked, so `&'static`, at an address of its
    /// own whatever the text.
    fn leaked(text: &str) -> &'static str {
        Box::leak(text.to_string().into_boxed_str())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn a_counter_and_its_name_are_one_counter() {
        reset();
        Counter::PageCopy.add(2);
        add("mem.page_copy", 3);
        incr(leaked("mem.page_copy"));
        let s = snapshot();
        assert_eq!(s.counters().collect::<Vec<_>>(), [("mem.page_copy", 6)]);
        assert_eq!(BY_NAME.with(|named| named.borrow().len()), 0, "no by-name entry");
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn adding_zero_makes_nothing() {
        reset();
        add("t.zero", 0);
        add("mem.page_copy", 0);
        Counter::FrameAlloc.add(0);
        assert_eq!(snapshot(), Snapshot::default());
        incr("t.one");
        add("t.one", 0);
        assert_eq!(snapshot().counters().collect::<Vec<_>>(), [("t.one", 1)]);
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn an_unknown_name_is_listed_and_summed() {
        reset();
        let (a, b) = (leaked("t.same"), leaked("t.same"));
        assert!(!std::ptr::eq(a, b), "two allocations");
        add(a, 3);
        incr(b);
        // A prefix of a held name shares its address, not its text.
        add(&a[..3], 7);
        Counter::TlbShootdown.incr();
        incr("a.first");
        let s = snapshot();
        let listed: Vec<_> = s.counters().collect();
        assert_eq!(listed, [("a.first", 1), ("mem.tlb.shootdown", 1), ("t.s", 7), ("t.same", 4)]);
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn reset_zeroes_every_cell_and_every_by_name_entry() {
        for counter in Counter::ALL {
            counter.incr();
        }
        add("t.reset", 4);
        reset();
        assert!(COUNTS.with(|counts| counts.iter().all(|cell| cell.get() == 0)));
        assert_eq!(BY_NAME.with(|named| named.borrow().len()), 0);
        assert_eq!(snapshot(), Snapshot::default());
    }

    #[test]
    fn counts_are_per_thread_and_merge_sums_them() {
        reset();
        Counter::CowCopy.add(2);
        let there = std::thread::spawn(|| {
            Counter::CowCopy.add(5);
            Counter::DemandFill.incr();
            snapshot()
        })
        .join()
        .unwrap();
        let mut here = snapshot();
        assert_eq!(here.counters().collect::<Vec<_>>(), [("mem.fault.cow_copy", 2)]);
        here.merge(&there);
        assert_eq!(here.counter("mem.fault.cow_copy"), 7);
        assert_eq!(here.counter("mem.fault.demand_fill"), 1);
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn every_name_is_distinct_and_listed_in_index_order() {
        reset();
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, counter) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(counter as usize, i);
            add(counter.name(), i as u64 + 1);
        }
        assert_eq!(BY_NAME.with(|named| named.borrow().len()), 0, "every name found its counter");
        let listed: Vec<_> = snapshot().counters().collect();
        let expected: Vec<_> = Counter::ALL.iter().map(|c| (c.name(), *c as u64 + 1)).collect();
        assert_eq!(listed, expected, "snapshot lists in index order");
        assert!(Counter::ALL.windows(2).all(|w| w[0].name() < w[1].name()), "names ascend, so none repeats");
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
