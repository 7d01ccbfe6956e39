//! Bounded retry with exponential backoff for transient creation failures.
//!
//! Under strict overcommit (`fpr-mem::overcommit`) a fork can fail with
//! `ENOMEM` *transiently*: the commit limit is a global shared resource,
//! and another process exiting frees headroom. Likewise `EAGAIN` from
//! `RLIMIT_NPROC` clears when a sibling is reaped. Because the five
//! creation APIs are transactional (a failed call leaves the kernel
//! byte-identical to before), retrying is always safe — there is no
//! half-made child to collide with.
//!
//! The simulator has no wall clock, so backoff is charged in cycles: each
//! failed attempt charges `base_backoff_cycles << attempt` before the
//! next try (capped — see [`RetryPolicy::backoff_for`]), mirroring the
//! cost a real process would pay sleeping.
//!
//! When the failure is memory pressure and shrinkers are registered,
//! backoff is more than waiting: each retry first runs
//! [`fpr_kernel::Kernel::balance_pressure`], so the wait is spent
//! reclaiming the cache frames that caused the `ENOMEM` in the first
//! place.

use fpr_kernel::{Errno, KResult, Kernel};

/// Errors worth retrying: the resource may be freed by unrelated activity.
///
/// Everything else (`EINVAL`, `ENOEXEC`, `EBADF`, …) is deterministic —
/// retrying cannot help.
pub fn is_transient(e: Errno) -> bool {
    matches!(e, Errno::Enomem | Errno::Eagain | Errno::Emfile)
}

/// How many times to retry and how long to back off between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 means no retry.
    pub max_attempts: u32,
    /// Cycles charged before the first retry; doubles per attempt.
    pub base_backoff_cycles: u64,
    /// Deterministic backoff jitter. `None` (the default) reproduces the
    /// exact exponential schedule, byte-identically. `Some(seed)` adds a
    /// SplitMix64-derived offset in `[0, base_backoff_cycles)` to every
    /// wait, keyed on `(seed, attempt)` — two cells retrying the same
    /// contended resource desynchronise instead of colliding again on
    /// the next doubling, and a fixed seed replays the same waits.
    pub jitter_seed: Option<u64>,
    /// Hard ceiling on *cumulative* backoff cycles. Once the next wait
    /// would push past it, the retry loop returns the last transient
    /// error instead of charging more — a deterministic timeout, so a
    /// permanently contended resource yields a clean `Err` rather than
    /// an unbounded spin. `u64::MAX` (the default) disables it.
    pub total_backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_cycles: 1_000,
            jitter_seed: None,
            total_backoff_cap: u64::MAX,
        }
    }
}

/// Widest doubling applied to the base backoff: beyond this the wait is
/// flat. Keeps `base << attempt` from wrapping u64 for large
/// `max_attempts` (a 32-bit shift of a large base already overflowed).
const MAX_BACKOFF_DOUBLINGS: u32 = 20;

/// Extra backoff multiplier while the swap device reports thrashing: a
/// refault storm means the machine is re-reading what it just evicted,
/// and an eager retry only deepens it.
pub const THRASH_BACKOFF_FACTOR: u64 = 4;

impl RetryPolicy {
    /// Backoff charged after failed attempt number `attempt` (1-based):
    /// exponential in the attempt, saturating at
    /// `base << MAX_BACKOFF_DOUBLINGS` and never overflowing.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let doublings = (attempt - 1).min(MAX_BACKOFF_DOUBLINGS);
        self.base_backoff_cycles.saturating_mul(1u64 << doublings)
    }

    /// Deterministic jitter added to the wait after failed attempt
    /// number `attempt`: zero when [`RetryPolicy::jitter_seed`] is
    /// `None`, otherwise a SplitMix64 hash of `(seed, attempt)` reduced
    /// into `[0, base_backoff_cycles)`. Same seed, same attempt → same
    /// jitter, always.
    pub fn jitter_for(&self, attempt: u32) -> u64 {
        let Some(seed) = self.jitter_seed else { return 0 };
        if self.base_backoff_cycles == 0 {
            return 0;
        }
        let mut z = seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % self.base_backoff_cycles
    }
}

/// What a retried operation did, beyond its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts actually made (1 = first try succeeded).
    pub attempts: u32,
    /// Total backoff cycles charged.
    pub backoff_cycles: u64,
}

/// Runs `op` up to `policy.max_attempts` times, backing off between
/// attempts. Non-transient errors (and exhaustion) return immediately
/// with the last error; the kernel is clean either way because the
/// creation APIs roll back on failure.
pub fn retry_with_backoff<T>(
    kernel: &mut Kernel,
    policy: RetryPolicy,
    mut op: impl FnMut(&mut Kernel) -> KResult<T>,
) -> (KResult<T>, RetryStats) {
    let mut stats = RetryStats {
        attempts: 0,
        backoff_cycles: 0,
    };
    loop {
        stats.attempts += 1;
        match op(kernel) {
            Ok(v) => return (Ok(v), stats),
            Err(e) if is_transient(e) && stats.attempts < policy.max_attempts => {
                // If the failure is memory pressure that reclaim could
                // relieve, spend the wait shrinking caches instead of
                // just sleeping. Free (zero cycles, zero effect) when no
                // shrinker is registered or there is no pressure.
                if e == Errno::Enomem {
                    kernel.balance_pressure();
                }
                // Exponential backoff with optional deterministic
                // jitter, charged as burnt CPU time; a thrashing swap
                // tier stretches the wait so the refault storm can
                // drain before the next attempt.
                let mut wait = policy
                    .backoff_for(stats.attempts)
                    .saturating_add(policy.jitter_for(stats.attempts));
                if kernel.swap_thrashing() {
                    wait = wait.saturating_mul(THRASH_BACKOFF_FACTOR);
                }
                // Budget exhausted: a deterministic timeout. The op is
                // transactional, so the kernel is clean — the caller
                // gets the transient error instead of an endless spin.
                if stats.backoff_cycles.saturating_add(wait) > policy.total_backoff_cap {
                    return (Err(e), stats);
                }
                kernel.cycles.charge(wait);
                stats.backoff_cycles += wait;
            }
            Err(e) => return (Err(e), stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_kernel::Pid;
    use fpr_mem::{Prot, Share};

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn nontransient_error_is_not_retried() {
        let (mut k, _) = boot();
        let mut calls = 0;
        let (r, stats) = retry_with_backoff(&mut k, RetryPolicy::default(), |_| {
            calls += 1;
            Err::<(), Errno>(Errno::Einval)
        });
        assert_eq!(r, Err(Errno::Einval));
        assert_eq!(calls, 1);
        assert_eq!(stats.attempts, 1);
    }

    #[test]
    fn transient_error_retried_until_exhaustion_with_growing_backoff() {
        let (mut k, _) = boot();
        let before = k.cycles.total();
        let (r, stats) = retry_with_backoff(
            &mut k,
            RetryPolicy {
                max_attempts: 4,
                base_backoff_cycles: 100,
                ..RetryPolicy::default()
            },
            |_| Err::<(), Errno>(Errno::Enomem),
        );
        assert_eq!(r, Err(Errno::Enomem));
        assert_eq!(stats.attempts, 4);
        // 100 + 200 + 400 (no backoff after the final attempt).
        assert_eq!(stats.backoff_cycles, 700);
        assert_eq!(k.cycles.total() - before, 700);
    }

    #[test]
    fn huge_max_attempts_saturates_backoff_without_overflow() {
        // Regression: `base << attempt` wrapped u64 once attempts out-ran
        // the word size, making late backoffs tiny (or zero).
        let (mut k, _) = boot();
        let policy = RetryPolicy {
            max_attempts: 200,
            base_backoff_cycles: 1 << 30,
            ..RetryPolicy::default()
        };
        let mut waits = Vec::new();
        let mut last_total = k.cycles.total();
        let (r, stats) = retry_with_backoff(&mut k, policy, |k| {
            waits.push(k.cycles.total() - last_total);
            last_total = k.cycles.total();
            Err::<(), Errno>(Errno::Eagain)
        });
        assert_eq!(r, Err(Errno::Eagain));
        assert_eq!(stats.attempts, 200);
        // Monotone non-decreasing, and every late wait sits at the
        // saturation plateau instead of wrapping back down.
        assert!(waits.windows(2).all(|w| w[0] <= w[1]), "never shrinks");
        assert_eq!(*waits.last().unwrap(), (1u64 << 30) << 20, "flat at the cap");
        assert_eq!(policy.backoff_for(200), policy.backoff_for(100));
        assert!(policy.backoff_for(200) >= policy.backoff_for(1));
        // A base big enough to overflow at the cap saturates cleanly.
        let big = RetryPolicy {
            max_attempts: 3,
            base_backoff_cycles: u64::MAX / 2,
            ..RetryPolicy::default()
        };
        assert_eq!(big.backoff_for(40), u64::MAX);
    }

    #[test]
    fn enomem_retry_reclaims_pool_frames_and_succeeds() {
        use crate::fastpath::WarmPool;
        use fpr_exec::{Image, ImageCache, ImageRegistry};
        use fpr_kernel::{MachineConfig, ShrinkerHandle};
        use std::sync::{Arc, Mutex};

        let mut k = Kernel::new(MachineConfig {
            frames: 64,
            ..MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        let mut cache = ImageCache::new();
        let pool = Arc::new(Mutex::new(WarmPool::new(init)));
        pool.lock().unwrap()
            .prefill(&mut k, &reg, &mut cache, "/bin/tool", 2)
            .unwrap();
        k.register_shrinker(&(pool.clone() as ShrinkerHandle));

        // Hog free frames to just below the low watermark (each parked
        // child has only a frame or two of private memory to give back).
        let low = k.phys.watermarks().low;
        let mut hog = Vec::new();
        while k.phys.free_frames() >= low {
            hog.push(k.phys.alloc_zeroed(&mut k.cycles).unwrap());
        }
        let high = k.phys.watermarks().high;
        assert!(k.phys.free_frames() < high);

        // An op that needs headroom up to the high watermark: attempt 1
        // fails, the backoff runs balance_pressure (draining the pool),
        // attempt 2 finds the frames.
        let (r, stats) = retry_with_backoff(&mut k, RetryPolicy::default(), |k| {
            if k.phys.free_frames() < k.phys.watermarks().high {
                Err(Errno::Enomem)
            } else {
                Ok(())
            }
        });
        assert!(r.is_ok(), "reclaimed pool frames let the retry succeed: {r:?}");
        assert_eq!(stats.attempts, 2);
        assert!(pool.lock().unwrap().reclaims() > 0, "the wait was spent reclaiming");
        assert!(k.reclaim_stats().frames_reclaimed > 0);
        for f in hog {
            k.phys.dec_ref(f, &mut k.cycles).unwrap();
        }
        k.check_invariants().unwrap();
    }

    #[test]
    fn enomem_inside_populate_direct_reclaims_and_succeeds() {
        use crate::fastpath::WarmPool;
        use fpr_exec::{Image, ImageCache, ImageRegistry};
        use fpr_kernel::{MachineConfig, ShrinkerHandle};
        use std::sync::{Arc, Mutex};

        let mut k = Kernel::new(MachineConfig {
            frames: 64,
            ..MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        let mut cache = ImageCache::new();
        let pool = Arc::new(Mutex::new(WarmPool::new(init)));
        pool.lock().unwrap()
            .prefill(&mut k, &reg, &mut cache, "/bin/tool", 2)
            .unwrap();
        k.register_shrinker(&(pool.clone() as ShrinkerHandle));

        // Map while commit headroom exists, then hog the free frames so
        // the populate's frame allocations fail without reclaim.
        let base = k
            .mmap_anon(init, 4, fpr_mem::Prot::RW, fpr_mem::Share::Private)
            .unwrap();
        let mut hog = Vec::new();
        while k.phys.free_frames() > 2 {
            hog.push(k.phys.alloc_zeroed(&mut k.cycles).unwrap());
        }
        assert_eq!(k.populate(init, base, 4), Ok(()), "direct reclaim saved it");
        assert!(pool.lock().unwrap().reclaims() > 0);
        assert!(k.reclaim_stats().frames_reclaimed > 0);
        for f in hog {
            k.phys.dec_ref(f, &mut k.cycles).unwrap();
        }
        k.check_invariants().unwrap();
    }

    #[test]
    fn thrashing_swap_stretches_backoff() {
        use fpr_kernel::MachineConfig;
        // A 16-slot device whose whole population is evicted and
        // immediately faulted back: every swap-in is a refault, so the
        // thrash signal asserts and backoff quadruples.
        let mut k = Kernel::new(MachineConfig {
            frames: 256,
            swap_slots: 16,
            ..MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        let base = k.mmap_anon(init, 8, Prot::RW, Share::Private).unwrap();
        for i in 0..8 {
            k.write_mem(init, fpr_mem::Vpn(base.0 + i), i).unwrap();
        }
        assert_eq!(k.swap_out_pass(8), Ok(8));
        for i in 0..8 {
            assert_eq!(k.read_mem(init, fpr_mem::Vpn(base.0 + i)), Ok(i));
        }
        assert!(k.swap_thrashing(), "all-refault window asserts thrash");
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff_cycles: 100,
            ..RetryPolicy::default()
        };
        let (r, stats) = retry_with_backoff(&mut k, policy, |_| Err::<(), Errno>(Errno::Eagain));
        assert_eq!(r, Err(Errno::Eagain));
        assert_eq!(
            stats.backoff_cycles,
            100 * THRASH_BACKOFF_FACTOR,
            "thrash multiplies the base wait"
        );
    }

    #[test]
    fn jittered_backoff_is_reproducible_and_bounded() {
        let run = |seed: Option<u64>| {
            let (mut k, _) = boot();
            let policy = RetryPolicy {
                max_attempts: 6,
                base_backoff_cycles: 100,
                jitter_seed: seed,
                ..RetryPolicy::default()
            };
            let (r, stats) = retry_with_backoff(&mut k, policy, |_| Err::<(), Errno>(Errno::Eagain));
            assert_eq!(r, Err(Errno::Eagain));
            (stats.backoff_cycles, k.cycles.total())
        };
        let (plain, _) = run(None);
        assert_eq!(plain, 100 + 200 + 400 + 800 + 1600, "unjittered schedule is exact");
        let (a, cyc_a) = run(Some(0xE17));
        let (b, cyc_b) = run(Some(0xE17));
        assert_eq!(a, b, "a fixed seed replays the same waits");
        assert_eq!(cyc_a, cyc_b, "…and charges the same cycles");
        // Jitter only ever adds, and each addition is below the base.
        assert!(a >= plain && a < plain + 5 * 100, "jitter bounded by [0, base) per wait");
        let (c, _) = run(Some(0xF00D));
        assert_ne!(a, c, "different seeds desynchronise the schedule");
        // Per-attempt determinism is a policy property, not a loop
        // accident.
        let p = RetryPolicy {
            jitter_seed: Some(7),
            ..RetryPolicy::default()
        };
        for attempt in 1..40 {
            assert_eq!(p.jitter_for(attempt), p.jitter_for(attempt));
            assert!(p.jitter_for(attempt) < p.base_backoff_cycles);
        }
        assert_eq!(
            RetryPolicy::default().jitter_for(3),
            0,
            "no seed, no jitter: the legacy schedule is untouched"
        );
    }

    #[test]
    fn jitter_rides_on_top_of_the_saturation_plateau() {
        // The 2^20 doubling cap must hold with jitter enabled: late waits
        // sit at `base << 20` plus a sub-base offset, never wrapping.
        let policy = RetryPolicy {
            max_attempts: 60,
            base_backoff_cycles: 1 << 30,
            jitter_seed: Some(42),
            ..RetryPolicy::default()
        };
        let plateau = (1u64 << 30) << 20;
        assert_eq!(policy.backoff_for(200), plateau, "cap unchanged by jitter");
        let (mut k, _) = boot();
        let mut last_total = k.cycles.total();
        let mut waits = Vec::new();
        let (_, stats) = retry_with_backoff(&mut k, policy, |k| {
            waits.push(k.cycles.total() - last_total);
            last_total = k.cycles.total();
            Err::<(), Errno>(Errno::Eagain)
        });
        assert_eq!(stats.attempts, 60);
        for (i, w) in waits.iter().enumerate().skip(25) {
            assert!(
                *w >= plateau && *w < plateau + (1u64 << 30),
                "attempt {i}: wait {w} off the plateau"
            );
        }
    }

    #[test]
    fn permanent_contention_times_out_cleanly_at_the_backoff_cap() {
        // A permanently contended resource (every attempt EAGAIN) with an
        // effectively unbounded attempt budget: the cycle cap, not the
        // attempt count, must end the loop — finitely, deterministically,
        // and with the transient error surfaced to the caller.
        let (mut k, _) = boot();
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff_cycles: 100,
            total_backoff_cap: 10_000,
            ..RetryPolicy::default()
        };
        let before = k.cycles.total();
        let mut calls = 0u64;
        let (r, stats) = retry_with_backoff(&mut k, policy, |_| {
            calls += 1;
            assert!(calls < 1_000, "the cap failed to bound the spin");
            Err::<(), Errno>(Errno::Eagain)
        });
        assert_eq!(r, Err(Errno::Eagain), "timeout surfaces the transient error");
        // 100+200+400+800+1600+3200 = 6300; the next doubling (6400)
        // would cross 10_000, so the loop stops after the 7th attempt.
        assert_eq!(stats.attempts, 7);
        assert_eq!(stats.backoff_cycles, 6_300);
        assert!(stats.backoff_cycles <= policy.total_backoff_cap);
        assert_eq!(
            k.cycles.total() - before,
            stats.backoff_cycles,
            "no cycles charged beyond the cap"
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn succeeds_once_pressure_clears() {
        let (mut k, p) = boot();
        // Eat almost all commit so fork's COW charge fails, then release
        // it on the way to the third attempt — modelling another process
        // exiting.
        k.commit
            .set_policy(fpr_mem::OvercommitPolicy::Never { ratio: 0.5 });
        let base = k.mmap_anon(p, 8, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 8).unwrap();
        let headroom = k.commit.limit().unwrap() - k.commit.committed();
        let hog = k.mmap_anon(p, headroom, Prot::RW, Share::Private).unwrap();
        let mut attempt = 0;
        let (r, stats) = retry_with_backoff(&mut k, RetryPolicy::default(), |k| {
            attempt += 1;
            if attempt == 3 {
                k.munmap(p, hog, headroom).unwrap();
            }
            crate::fork::fork(k, p)
        });
        assert!(r.is_ok(), "fork succeeded after pressure cleared: {r:?}");
        assert_eq!(stats.attempts, 3);
        assert!(stats.backoff_cycles > 0);
    }
}
