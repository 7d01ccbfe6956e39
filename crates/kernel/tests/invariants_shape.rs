//! The shape of the invariant checker's cost, on the host clock.
//!
//! `check_invariants` and `fork(Cow)` both do one thing per PTE of the
//! parent: the fork copies it, the checker counts its frame. Their host
//! times must stay within a constant of each other, and the checker's must
//! grow with the entries it checks, not faster (the second bound holds per
//! entry at 16 384 pages against 1 024).

use fpr_kernel::{Kernel, Pid};
use fpr_mem::{ForkMode, Prot, Share};
use std::time::{Duration, Instant};

/// A booted kernel whose one process besides init has a populated private
/// mapping of `pages` pages.
fn world(pages: u64) -> (Kernel, Pid) {
    let mut k = Kernel::boot();
    let init = k.create_init("init").unwrap();
    let parent = k.allocate_process(init, "parent").unwrap();
    let base = k.mmap_anon(parent, pages, Prot::RW, Share::Private).unwrap();
    k.populate(parent, base, pages).unwrap();
    k.assert_consistent();
    (k, parent)
}

/// Least host time of 25 runs of `f`, after one untimed run.
fn least_of_25(mut f: impl FnMut() -> Duration) -> Duration {
    f();
    (0..25).map(|_| f()).min().unwrap()
}

fn least_check(k: &Kernel) -> Duration {
    least_of_25(|| {
        let t0 = Instant::now();
        let verdict = k.check_invariants();
        let took = t0.elapsed();
        assert_eq!(verdict, Ok(()));
        took
    })
}

/// Least host time of 25 `fork(Cow)`s of `parent`'s space; the child's
/// teardown is not timed.
fn least_cow_fork(k: &mut Kernel, parent: Pid) -> Duration {
    least_of_25(|| {
        let child = k.allocate_process(parent, "child").unwrap();
        let t0 = Instant::now();
        k.copy_space(parent, child, ForkMode::Cow).unwrap();
        let took = t0.elapsed();
        k.abort_process_creation(child).unwrap();
        took
    })
}

/// How many `fork(Cow)`s of the parent a check may cost. A checker that
/// paid a tree entry, a set probe and a VMA search per page cost 82–86 in
/// release and 27–28 in debug (where the fork's copy loop slows down more
/// than tree code does); going a node at a time, 4 and 2.4. Each bound
/// fails the first by five times or more and leaves the second room.
const K: f64 = if cfg!(debug_assertions) { 5.0 } else { 16.0 };

#[test]
fn invariant_check_costs_a_few_cow_forks_and_grows_by_entries() {
    let (small, _) = world(1024);
    let per_small = least_check(&small).as_secs_f64() / 1024.0;
    let (mut k, parent) = world(16_384);
    let check = least_check(&k);
    let fork = least_cow_fork(&mut k, parent);
    let ratio = check.as_secs_f64() / fork.as_secs_f64();
    let growth = check.as_secs_f64() / 16_384.0 / per_small;
    assert!(
        ratio <= K,
        "check_invariants took {check:?} on a 16 384-page parent against {fork:?} for fork(Cow) \
         of it, {ratio:.1}x: counting a PTE must cost within {K}x of copying it"
    );
    assert!(
        growth <= 2.0,
        "check_invariants cost {growth:.2}x per entry at 16 384 pages what it cost at 1 024: \
         it must grow with the entries, not faster"
    );
}
