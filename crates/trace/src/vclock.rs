//! Per-OS-thread virtual clock for the SMP driver.
//!
//! The simulator's notion of time is cycles charged to a kernel's
//! `Cycles` accumulator, which is single-threaded by construction. When real OS threads drive several kernel cells
//! concurrently, each thread needs its own monotone clock so that lock
//! hand-offs can be priced in *virtual* time — one host core can then
//! faithfully model an 8-core contention experiment (the CI container
//! has a single CPU, so wall-clock scaling is unmeasurable there).
//!
//! The clock is a plain thread-local counter:
//!
//! * `fpr_mem::Cycles::charge` advances it alongside every simulated
//!   cycle charge, so any work a thread performs moves its clock;
//! * [`crate::smp::VLock`] advances it across contended acquisitions
//!   (to the lock's release time), charging the wait the thread would
//!   have spent spinning on a real machine.
//!
//! Single-threaded callers never read it, so it is free to accumulate:
//! determinism of the existing experiments is untouched.
//!
//! ```
//! use fpr_trace::vclock;
//!
//! vclock::reset();
//! vclock::advance(100);
//! vclock::advance_to(50); // never moves backwards
//! assert_eq!(vclock::now(), 100);
//! vclock::advance_to(250);
//! assert_eq!(vclock::now(), 250);
//! ```

use std::cell::Cell;

thread_local! {
    static VCLOCK: Cell<u64> = const { Cell::new(0) };
}

/// This thread's current virtual time, in simulated cycles.
pub fn now() -> u64 {
    VCLOCK.with(|c| c.get())
}

/// Advances this thread's clock by `cycles` (saturating).
#[inline]
pub fn advance(cycles: u64) {
    if cycles == 0 {
        return;
    }
    VCLOCK.with(|c| c.set(c.get().saturating_add(cycles)));
}

/// Advances this thread's clock to at least `t`; never moves backwards.
pub fn advance_to(t: u64) {
    VCLOCK.with(|c| {
        if t > c.get() {
            c.set(t);
        }
    });
}

/// Resets this thread's clock to zero (storm drivers call this at the
/// start of each measured window).
pub fn reset() {
    VCLOCK.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_reset() {
        reset();
        assert_eq!(now(), 0);
        advance(10);
        advance(0);
        assert_eq!(now(), 10);
        reset();
        assert_eq!(now(), 0);
    }

    #[test]
    fn advance_to_is_monotone() {
        reset();
        advance_to(100);
        advance_to(40);
        assert_eq!(now(), 100);
    }

    #[test]
    fn clocks_are_per_thread() {
        reset();
        advance(7);
        let other = std::thread::spawn(|| {
            advance(1000);
            now()
        })
        .join()
        .unwrap();
        assert_eq!(other, 1000);
        assert_eq!(now(), 7, "sibling thread cannot move this clock");
    }
}
