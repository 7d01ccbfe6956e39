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

/// The least of 25 host times of each of `N` arms, after one untimed
/// round. Each round runs every arm in turn, so that a burst of host noise
/// lands on all of them, not on one.
fn least_of_25<const N: usize>(mut arm: impl FnMut(usize) -> Duration) -> [Duration; N] {
    let mut least = [Duration::MAX; N];
    for round in 0..26 {
        for (i, least) in least.iter_mut().enumerate() {
            let took = arm(i);
            if round > 0 {
                *least = (*least).min(took);
            }
        }
    }
    least
}

fn time_check(k: &Kernel) -> Duration {
    let t0 = Instant::now();
    let verdict = k.check_invariants();
    let took = t0.elapsed();
    assert_eq!(verdict, Ok(()));
    took
}

/// Host time of one `fork(Cow)` of `parent`'s space; the child's teardown
/// is not timed.
fn time_cow_fork(k: &mut Kernel, parent: Pid) -> Duration {
    let calling = k.process(parent).unwrap().main_tid();
    let child = k.allocate_process(parent, "child").unwrap();
    let t0 = Instant::now();
    k.copy_space(parent, child, calling, ForkMode::Cow).unwrap();
    let took = t0.elapsed();
    k.abort_process_creation(child).unwrap();
    took
}

/// How many `fork(Cow)`s of the parent a check may cost. Going a node at a
/// time, a check reads 5.4–7.2 in the dev profile and 8.0–11.8 in release;
/// one that paid a tree entry, a set probe and a VMA search per page, 73–97
/// and 97–157 (100 runs or more each, on two cores). The bound leaves the
/// largest reading 2x of room and sits 3x under the least slow one.
const K: f64 = 24.0;

#[test]
fn invariant_check_costs_a_few_cow_forks_and_grows_by_entries() {
    let (small, _) = world(1024);
    let (mut k, parent) = world(16_384);
    let [small, check, fork] = least_of_25(|arm| match arm {
        0 => time_check(&small),
        1 => time_check(&k),
        _ => time_cow_fork(&mut k, parent),
    });
    let per_small = small.as_secs_f64() / 1024.0;
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
