//! A `VLock` counts its own waits. Whatever interleaving the host
//! scheduler produces, the lock's `stats()` must equal what the threads
//! that took it saw: one contended acquisition for every `lock()` across
//! which the thread's virtual clock jumped, and the sum of those jumps as
//! the wait.
//!
//! Each thread's work is seeded (one SplitMix64 stream per thread per
//! round), so a failing run's virtual work replays exactly; which thread
//! gets the lock when varies, which is the point — the tally must follow.

use fpr_trace::smp::{LockStats, VLock};
use fpr_trace::vclock;

/// SplitMix64: the same mixer the fault planner uses.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

const THREADS: usize = 8;
const ACQUIRES: u64 = 400;
const ROUNDS: u64 = 3;

/// One thread: [`ACQUIRES`] times, virtual work outside the lock, then
/// the lock and virtual work inside it. Returns the jumps its clock made
/// across `lock()`, tallied without asking the lock.
fn worker(lock: &VLock<u64>, seed: u64) -> LockStats {
    let mut rng = SplitMix(seed);
    let mut seen = LockStats::default();
    vclock::reset();
    for _ in 0..ACQUIRES {
        vclock::advance(rng.next() % 2_000);
        let before = vclock::now();
        let mut held = lock.lock();
        let jump = vclock::now() - before;
        if jump > 0 {
            seen.contended_acquires += 1;
            seen.wait_cycles += jump;
        }
        *held += 1;
        vclock::advance(1 + rng.next() % 1_000);
        if rng.next().is_multiple_of(4) {
            // Give the host scheduler a chance to hand the lock over
            // while it is held.
            std::thread::yield_now();
        }
    }
    seen
}

#[test]
fn stats_are_the_jumps_the_threads_saw_across_lock() {
    for round in 0..ROUNDS {
        // A ranked name takes the order-checked path, any other the plain one.
        for name in ["buddy", "t.tally"] {
            let lock = VLock::new(name, 0u64);
            let root = 0x7A11_E000 + round;
            let seen: LockStats = std::thread::scope(|s| {
                let lock = &lock;
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| s.spawn(move || worker(lock, root.wrapping_add(t as u64))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .sum()
            });
            assert!(
                seen.contended_acquires > 0,
                "round {round}, {name}: {THREADS} threads never waited on each other"
            );
            assert_eq!(lock.stats(), seen, "round {round}, {name}");
            // Last: this thread's clock may trail the workers', so taking
            // the lock here can count a wait of its own.
            assert_eq!(
                *lock.lock(),
                THREADS as u64 * ACQUIRES,
                "round {round}, {name}"
            );
        }
    }
}

/// Two locks of one name keep two tallies: a wait on one is not a wait on
/// the other.
#[test]
fn tallies_belong_to_the_lock_not_its_name() {
    let (a, b) = (VLock::new("mm", ()), VLock::new("mm", ()));
    std::thread::scope(|s| {
        s.spawn(|| {
            vclock::reset();
            let _held = a.lock();
            vclock::advance(1_000);
        });
    });
    std::thread::scope(|s| {
        s.spawn(|| {
            vclock::reset();
            vclock::advance(100);
            drop(a.lock());
            drop(b.lock());
        });
    });
    assert_eq!(
        a.stats(),
        LockStats {
            contended_acquires: 1,
            wait_cycles: 900
        }
    );
    assert_eq!(b.stats(), LockStats::default());
}
