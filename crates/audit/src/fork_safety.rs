//! Static fork-safety audit of a live process.
//!
//! Answers "is it safe for this process to call fork right now?" by
//! inspecting exactly the state the paper identifies: other threads and
//! the locks they hold (deadlock), unflushed user buffers (duplicated
//! output), pending signals, mapping policy, and the sheer size of what
//! would be copied. The E5 experiment validates that the auditor has no
//! false negatives against actual post-fork deadlocks.

use crate::report::{Finding, Report, Severity};
use fpr_kernel::{KResult, Kernel, Pid, Tid};

/// Audits whether `pid` (forking from `calling_tid`) can fork safely.
pub fn audit_fork_safety(kernel: &Kernel, pid: Pid, calling_tid: Tid) -> KResult<Report> {
    let p = kernel.process(pid)?;
    let mut report = Report::new();

    // 1. Locks held by threads that will not exist in the child. A lock
    //    covered by a pthread_atfork registration is acquired by the
    //    forking thread before the snapshot, so it is downgraded to a
    //    blocking-cost warning; an *uncovered* lock is a guaranteed
    //    child deadlock.
    let covered = p.atfork.covered_locks();
    for lock in p.locks.orphaned_after_fork(calling_tid) {
        if covered.contains(&lock.id) {
            report.push(Finding::new(
                Severity::Warning,
                "ATFORK_COVERED_LOCK",
                format!(
                    "lock {} (name-id {}) is held by another thread but covered by an atfork \
                     handler: fork will block until the owner releases it",
                    lock.id.0, lock.name_id
                ),
            ));
        } else {
            report.push(Finding::new(
                Severity::Critical,
                "ORPHANED_LOCK",
                format!(
                    "lock {} (name-id {}) is held by thread {:?}, which will not exist in the \
                     child; any child acquire deadlocks permanently",
                    lock.id.0, lock.name_id, lock.owner
                ),
            ));
        }
    }

    // 2. Other runnable threads at all: even without held locks, they may
    //    be mid-critical-section in state the snapshot captures.
    let others = p.threads.iter().filter(|t| t.tid != calling_tid).count();
    if others > 0 {
        report.push(Finding::new(
            Severity::Warning,
            "MULTITHREADED_PARENT",
            format!(
                "{others} other thread(s) exist; the child snapshots their memory mid-flight \
                 and only async-signal-safe operations are sound before exec"
            ),
        ));
    }

    // 3. Unflushed buffered output: will be emitted twice.
    let pending = p.unflushed_bytes();
    if pending > 0 {
        report.push(Finding::new(
            Severity::Warning,
            "UNFLUSHED_STREAMS",
            format!(
                "{pending} buffered byte(s) will be duplicated into the child and flushed twice"
            ),
        ));
    }

    // 4. Blocked-pending signals: the child clears pending, so a signal
    //    accepted before fork may be acted on only in the parent — or the
    //    fork races delivery.
    let pending_sigs = fpr_kernel::signal::ALL_SIGS
        .iter()
        .filter(|s| p.signals.is_pending(**s))
        .count();
    if pending_sigs > 0 {
        report.push(Finding::new(
            Severity::Info,
            "PENDING_SIGNALS",
            format!("{pending_sigs} signal(s) pending at fork time are not inherited"),
        ));
    }

    // 5. Copy cost: the O(parent) price.
    let resident = p.aspace.resident_pages();
    let vmas = p.aspace.vma_count();
    if resident > 0 {
        let cost = kernel.phys.cost();
        let est = resident * cost.pte_copy + vmas as u64 * cost.vma_clone;
        report.push(Finding::new(
            Severity::Info,
            "COPY_COST",
            format!(
                "fork will copy {resident} PTE(s) across {vmas} VMA(s): ≥{est} cycles before \
                 any COW fault"
            ),
        ));
    }

    // 6. Commit pressure: will the charge even fit?
    let charge = p.aspace.commit_pages();
    if charge > kernel.phys.free_frames() {
        report.push(Finding::new(
            Severity::Warning,
            "OVERCOMMIT_RISK",
            format!(
                "child commit charge {charge} pages exceeds {} free frames; fork relies on \
                 overcommit and risks an OOM kill at COW time",
                kernel.phys.free_frames()
            ),
        ));
    }
    Ok(report)
}

/// Convenience: audit from the main thread.
pub fn audit_main_thread(kernel: &Kernel, pid: Pid) -> KResult<Report> {
    let tid = kernel.process(pid)?.main_tid();
    audit_fork_safety(kernel, pid, tid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_kernel::{BufMode, Sig, STDOUT};
    use fpr_mem::{Prot, Share};

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn clean_single_thread_process_is_safe() {
        let (k, p) = boot();
        let r = audit_main_thread(&k, p).unwrap();
        assert!(r.is_safe());
    }

    #[test]
    fn orphaned_lock_is_critical() {
        let (mut k, p) = boot();
        let lock = k
            .register_lock(p, fpr_kernel::sync::names::MALLOC_ARENA)
            .unwrap();
        let other = k.spawn_thread(p).unwrap();
        k.lock_acquire(p, other, lock).unwrap();
        let r = audit_main_thread(&k, p).unwrap();
        assert!(!r.is_safe());
        assert!(r.findings.iter().any(|f| f.code == "ORPHANED_LOCK"));
        assert!(r.findings.iter().any(|f| f.code == "MULTITHREADED_PARENT"));
    }

    #[test]
    fn lock_held_by_caller_is_fine() {
        let (mut k, p) = boot();
        let lock = k.register_lock(p, fpr_kernel::sync::names::APP).unwrap();
        let main = k.process(p).unwrap().main_tid();
        k.lock_acquire(p, main, lock).unwrap();
        let r = audit_main_thread(&k, p).unwrap();
        assert!(r.is_safe());
    }

    #[test]
    fn unflushed_stream_warns() {
        let (mut k, p) = boot();
        let s = k.stream_open(p, STDOUT, BufMode::FullyBuffered).unwrap();
        k.stream_write(p, s, b"pending!").unwrap();
        let r = audit_main_thread(&k, p).unwrap();
        let f = r
            .findings
            .iter()
            .find(|f| f.code == "UNFLUSHED_STREAMS")
            .unwrap();
        assert_eq!(f.severity, Severity::Warning);
        assert!(f.message.contains("8 buffered"));
    }

    #[test]
    fn pending_signal_is_info() {
        let (mut k, p) = boot();
        k.sigprocmask(p, Sig::Usr1, true).unwrap();
        k.process_mut(p).unwrap().signals.raise(Sig::Usr1);
        let r = audit_main_thread(&k, p).unwrap();
        assert!(r.findings.iter().any(|f| f.code == "PENDING_SIGNALS"));
        assert!(r.is_safe());
    }

    #[test]
    fn copy_cost_reported_for_big_process() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 128, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 128).unwrap();
        let r = audit_main_thread(&k, p).unwrap();
        let f = r.findings.iter().find(|f| f.code == "COPY_COST").unwrap();
        assert!(f.message.contains("128 PTE(s)"));
    }

    #[test]
    fn overcommit_risk_when_ram_tight() {
        let mut k = Kernel::new(fpr_kernel::MachineConfig {
            frames: 64,
            overcommit: fpr_mem::OvercommitPolicy::Always,
            ..Default::default()
        });
        let p = k.create_init("init").unwrap();
        let base = k.mmap_anon(p, 48, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 48).unwrap();
        let r = audit_main_thread(&k, p).unwrap();
        assert!(r.findings.iter().any(|f| f.code == "OVERCOMMIT_RISK"));
    }
}
