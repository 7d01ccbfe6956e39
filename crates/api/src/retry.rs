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
//! The simulator has no wall clock, so backoff is charged in cycles: an
//! operation gets four attempts, and failed attempt *n* charges
//! `1_000 << (n - 1)` cycles before the next try — 1 000, 2 000, 4 000 —
//! mirroring the cost a real process would pay sleeping.
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
pub(crate) fn is_transient(e: Errno) -> bool {
    matches!(e, Errno::Enomem | Errno::Eagain | Errno::Emfile)
}

/// Total attempts an operation gets, first try included.
const MAX_ATTEMPTS: u32 = 4;

/// Cycles charged before the first retry; doubles per attempt.
const BASE_BACKOFF_CYCLES: u64 = 1_000;

/// Extra backoff multiplier while the swap device reports thrashing: a
/// refault storm means the machine is re-reading what it just evicted,
/// and an eager retry only deepens it.
const THRASH_BACKOFF_FACTOR: u64 = 4;

/// What a retried operation did, beyond its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts actually made (1 = first try succeeded).
    pub attempts: u32,
    /// Total backoff cycles charged.
    pub backoff_cycles: u64,
}

/// Runs `op` up to four times, backing off between attempts.
/// Non-transient errors (and exhaustion) return immediately with the last
/// error; the kernel is clean either way because the creation APIs roll
/// back on failure.
pub fn retry_with_backoff<T>(
    kernel: &mut Kernel,
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
            Err(e) if is_transient(e) && stats.attempts < MAX_ATTEMPTS => {
                // If the failure is memory pressure that reclaim could
                // relieve, spend the wait shrinking caches instead of
                // just sleeping. Free (zero cycles, zero effect) when no
                // shrinker is registered or there is no pressure.
                if e == Errno::Enomem {
                    kernel.balance_pressure();
                }
                // Exponential backoff, charged as burnt CPU time; a
                // thrashing swap tier stretches the wait so the refault
                // storm can drain before the next attempt.
                let mut wait = BASE_BACKOFF_CYCLES << (stats.attempts - 1);
                if kernel.swap_thrashing() {
                    wait *= THRASH_BACKOFF_FACTOR;
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
        let (r, stats) = retry_with_backoff(&mut k, |_| {
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
        let (r, stats) = retry_with_backoff(&mut k, |_| Err::<(), Errno>(Errno::Enomem));
        assert_eq!(r, Err(Errno::Enomem));
        assert_eq!(stats.attempts, 4);
        // 1 000 + 2 000 + 4 000 (no backoff after the final attempt).
        assert_eq!(stats.backoff_cycles, 7_000);
        assert_eq!(k.cycles.total() - before, 7_000);
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
        let (r, stats) = retry_with_backoff(&mut k, |k| {
            if k.phys.free_frames() < k.phys.watermarks().high {
                Err(Errno::Enomem)
            } else {
                Ok(())
            }
        });
        assert!(r.is_ok(), "reclaimed pool frames let the retry succeed: {r:?}");
        assert_eq!(stats.attempts, 2);
        assert!(
            fpr_trace::metrics::snapshot().counter("api.pool.reclaim") > 0,
            "the wait was spent reclaiming"
        );
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
        assert!(fpr_trace::metrics::snapshot().counter("api.pool.reclaim") > 0);
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
        let (r, stats) = retry_with_backoff(&mut k, |_| Err::<(), Errno>(Errno::Eagain));
        assert_eq!(r, Err(Errno::Eagain));
        assert_eq!(
            stats.backoff_cycles,
            7_000 * THRASH_BACKOFF_FACTOR,
            "thrash multiplies every wait"
        );
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
        let (r, stats) = retry_with_backoff(&mut k, |k| {
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
