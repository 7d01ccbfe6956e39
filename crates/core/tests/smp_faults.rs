//! E17 stress gate (wired into `make stress`): the SMP machine survives
//! concurrent fault injection on every worker thread, holds the
//! documented lock order everywhere, and recovers from a cell fail-stop
//! to a clean N−1 quiesce — all under real OS threads.
//!
//! The fine-grained shape assertions live in
//! `forkroad_core::experiments::smp_faults`; this binary reruns both
//! arms end-to-end as the release-mode stress configuration.

use forkroad_core::experiments::smp_faults::{self, THREADS};

#[test]
fn concurrent_faultsweep_and_fail_stop_gate() {
    let out = smp_faults::run();

    // Arm 1: injections happened on every thread's stream and were all
    // contained (run() already panicked otherwise via check_quiesced).
    assert!(out.sweep.injected_ops > 0, "the sweep must inject");
    assert!(
        out.sweep.sites_injected() >= 5,
        "injection must cover the creation surface, got {} sites",
        out.sweep.sites_injected()
    );

    // Arm 2: fail-stop recovered — survivors quiesced clean at N−1 with
    // the dead cell empty and the OOM lease broken.
    assert_eq!(out.failstop.live_cells, THREADS - 1);
    assert!(out.failstop.failure.lease_was_stuck);
    assert!(out.failstop.ops_after_failure > 0);
}
