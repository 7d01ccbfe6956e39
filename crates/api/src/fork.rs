//! `fork(2)` over the simulated kernel.
//!
//! Fork is the API that takes *every* kernel creation step: it copies the
//! memory ([`Kernel::copy_space`]: the address space and the userspace
//! state living in it — streams, locks, atfork), the descriptor table, the
//! task state (name, environment, signals, umask) and the image
//! description, in that order. Each step is a cost fork pays that a spawn
//! API does not; the paper's Table of "what fork copies" is, in effect,
//! that sequence.
//! What else lives here is fork's own protocol around the copy: the
//! `pthread_atfork` handlers and the work statistics.

use fpr_kernel::{Errno, KResult, Kernel, LockId, Pid, Tid};
use fpr_mem::ForkMode;
use fpr_trace::sink;

/// Stable label for a fork mode, used in trace-event arguments.
pub(crate) fn mode_name(mode: ForkMode) -> &'static str {
    match mode {
        ForkMode::Cow => "cow",
        ForkMode::Eager => "eager",
        ForkMode::OnDemand => "ondemand",
    }
}

/// Statistics describing the work one fork performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkStats {
    /// Cycles charged while the fork ran.
    pub cycles: u64,
    /// Resident pages the child inherited (PTE copies).
    pub pages_inherited: u64,
    /// VMA records cloned.
    pub vmas_cloned: usize,
    /// Descriptors inherited.
    pub fds_inherited: usize,
    /// Locks copied in a state owned by threads that do not exist in the
    /// child (permanent deadlock hazards).
    pub orphaned_locks: usize,
    /// Bytes of unflushed user-stream buffers duplicated into the child.
    pub duplicated_stream_bytes: usize,
}

/// Forks `parent`, returning the child's PID.
///
/// Implements the POSIX contract: the child receives a copy-on-write
/// duplicate of the address space (including the ASLR layout — the zygote
/// hazard), a reference-taking copy of the descriptor table, the signal
/// dispositions and mask (pending cleared), duplicated user-space stream
/// buffers, and the lock table *as it was* — with locks held by other
/// threads permanently stuck. Only the calling thread exists in the child.
pub fn fork(kernel: &mut Kernel, parent: Pid) -> KResult<Pid> {
    let tid = kernel.process(parent)?.main_tid();
    fork_from_thread(kernel, parent, tid, ForkMode::Cow).map(|(pid, _)| pid)
}

/// Forks with on-demand page-table copying: the child shares the parent's
/// leaf page-table subtrees (refcounted, write-protected) instead of
/// copying every PTE, so fork costs O(VMAs + subtrees) rather than
/// O(resident pages). The first write, unmap or reprotect touching a
/// shared subtree privatises that one 512-entry node — the page-copy
/// *and* the PTE-copy work both move into the fault storm.
pub fn fork_on_demand(kernel: &mut Kernel, parent: Pid) -> KResult<Pid> {
    let tid = kernel.process(parent)?.main_tid();
    fork_from_thread(kernel, parent, tid, ForkMode::OnDemand).map(|(pid, _)| pid)
}

/// Forks with explicit calling thread and copy mode, returning the child
/// and the work statistics (the instrumented entry point used by the
/// benchmarks).
pub fn fork_from_thread(
    kernel: &mut Kernel,
    parent: Pid,
    calling_tid: Tid,
    mode: ForkMode,
) -> KResult<(Pid, ForkStats)> {
    kernel.span_with(
        "fork",
        "api",
        |ev| {
            ev.arg("parent", parent.0 as u64)
                .arg("mode", mode_name(mode))
        },
        |kernel| {
            kernel.charge_syscall();
            let cycles_before = kernel.cycles.total();
            let forked = atfork_prepare(kernel, parent, calling_tid).and_then(|held| {
                // 1-8. Identity, then everything POSIX enumerates, as one
                //    transaction: a failure at any step (ENOMEM under
                //    strict overcommit, EMFILE, an injected fault) leaves
                //    the kernel byte-identical to before the call.
                let (child, ()) = kernel.create_process(parent, |k, child, _| {
                    k.copy_space(parent, child, calling_tid, mode)
                        .and_then(|()| k.copy_fd_table(parent, child))
                        .and_then(|()| k.copy_task(parent, child))
                        .and_then(|()| k.copy_image(parent, child))
                        .inspect_err(|_| {
                            for l in &held {
                                let _ = k.lock_release(parent, calling_tid, *l);
                            }
                        })
                })?;
                atfork_complete(kernel, parent, child, calling_tid, &held)?;
                let (p, c) = (kernel.memory(parent)?, kernel.process(child)?);
                let stats = ForkStats {
                    cycles: kernel.cycles.total() - cycles_before,
                    pages_inherited: c.resident_pages(),
                    vmas_cloned: kernel.memory(child)?.aspace.vma_count(),
                    fds_inherited: c.fds.open_count(),
                    orphaned_locks: p.locks.orphaned_after_fork(calling_tid).len(),
                    duplicated_stream_bytes: c.unflushed_bytes(),
                };
                Ok((child, stats))
            });
            if sink::is_active() {
                sink::counter(
                    "frames_used",
                    kernel.cycles.total(),
                    kernel.phys.used_frames(),
                );
            }
            forked
        },
    )
}

/// 0. `pthread_atfork` prepare handlers, in reverse registration order.
///    Each covered lock is acquired by the forking thread so the snapshot
///    cannot capture it mid-critical-section. If another thread holds
///    one, a real fork would block here; the simulator reports EBUSY
///    ("run the owner first"). Returns the locks now held.
fn atfork_prepare(kernel: &mut Kernel, parent: Pid, calling_tid: Tid) -> KResult<Vec<LockId>> {
    if kernel.process(parent)?.thread(calling_tid).is_none() {
        return Err(Errno::Esrch);
    }
    let mut held = Vec::new();
    for reg in kernel.memory(parent)?.atfork.prepare_order() {
        if let Some(lock) = reg.lock {
            match kernel.lock_acquire(parent, calling_tid, lock) {
                Ok(()) => held.push(lock),
                // Already ours (e.g. caller registered twice): fine.
                Err(Errno::Edeadlk)
                    if kernel.memory(parent)?.locks.owner_of(lock) == Some(calling_tid) => {}
                Err(e) => {
                    // Undo partial prepare before reporting.
                    for l in held {
                        let _ = kernel.lock_release(parent, calling_tid, l);
                    }
                    return Err(e);
                }
            }
        }
        kernel
            .atfork_log
            .push((parent, reg.token, fpr_kernel::AtforkPhase::Prepare));
    }
    Ok(held)
}

/// 9. Atfork completion: parent handlers release the prepare locks in
///    the parent; child handlers release the child's copies (owned by its
///    main thread after fork's remap).
fn atfork_complete(
    kernel: &mut Kernel,
    parent: Pid,
    child: Pid,
    calling_tid: Tid,
    held: &[LockId],
) -> KResult<()> {
    let child_main_tid = kernel.process(child)?.main_tid();
    for reg in kernel.memory(child)?.atfork.completion_order() {
        if let Some(lock) = reg.lock {
            if held.contains(&lock) {
                let _ = kernel.lock_release(parent, calling_tid, lock);
            }
            if kernel.memory(child)?.locks.owner_of(lock) == Some(child_main_tid) {
                let _ = kernel.lock_release(child, child_main_tid, lock);
            }
        }
        kernel
            .atfork_log
            .push((parent, reg.token, fpr_kernel::AtforkPhase::Parent));
        kernel
            .atfork_log
            .push((child, reg.token, fpr_kernel::AtforkPhase::Child));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_kernel::{BufMode, Disposition, HandlerId, OpenFlags, Sig, STDOUT};
    use fpr_mem::{Prot, Share};

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn child_sees_parent_memory_snapshot() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 8, Prot::RW, Share::Private).unwrap();
        k.write_mem(p, base, 41).unwrap();
        let c = fork(&mut k, p).unwrap();
        assert_eq!(k.read_mem(c, base), Ok(41));
        k.write_mem(p, base, 42).unwrap();
        assert_eq!(
            k.read_mem(c, base),
            Ok(41),
            "post-fork parent writes invisible"
        );
        k.write_mem(c, base.add(1), 9).unwrap();
        assert_eq!(
            k.read_mem(p, base.add(1)),
            Ok(0),
            "child writes invisible to parent"
        );
    }

    #[test]
    fn fd_table_shared_descriptions() {
        let (mut k, p) = boot();
        let fd = k.open(p, "/f", OpenFlags::RDWR, true).unwrap();
        k.write_fd(p, fd, b"abcd").unwrap();
        let c = fork(&mut k, p).unwrap();
        // Shared offset: the child continues where the parent stopped.
        k.write_fd(c, fd, b"efgh").unwrap();
        let ino = k.vfs.resolve("/f", k.vfs.root()).unwrap();
        assert_eq!(k.vfs.read_at(ino, 0, 16).unwrap(), b"abcdefgh");
    }

    #[test]
    fn signals_copied_pending_cleared() {
        let (mut k, p) = boot();
        k.sigaction(p, Sig::Usr1, Disposition::Handler(HandlerId(3)))
            .unwrap();
        k.sigprocmask(p, Sig::Usr2, true).unwrap();
        k.process_mut(p).unwrap().signals.raise(Sig::Usr2); // pending (blocked)
        let c = fork(&mut k, p).unwrap();
        let cs = &k.process(c).unwrap().signals;
        assert_eq!(
            cs.disposition(Sig::Usr1),
            Disposition::Handler(HandlerId(3))
        );
        assert!(cs.is_blocked(Sig::Usr2));
        assert!(!cs.is_pending(Sig::Usr2));
    }

    #[test]
    fn only_calling_thread_survives() {
        let (mut k, p) = boot();
        k.spawn_thread(p).unwrap();
        k.spawn_thread(p).unwrap();
        assert_eq!(k.process(p).unwrap().threads.len(), 3);
        let c = fork(&mut k, p).unwrap();
        assert_eq!(k.process(c).unwrap().threads.len(), 1);
    }

    #[test]
    fn orphaned_lock_deadlocks_child_but_not_parent() {
        let (mut k, p) = boot();
        let lock = k
            .register_lock(p, fpr_kernel::sync::names::MALLOC_ARENA)
            .unwrap();
        let other = k.spawn_thread(p).unwrap();
        k.lock_acquire(p, other, lock).unwrap();
        let main = k.process(p).unwrap().main_tid();
        let (c, stats) = fork_from_thread(&mut k, p, main, ForkMode::Cow).unwrap();
        assert_eq!(stats.orphaned_locks, 1);
        let c_main = k.process(c).unwrap().main_tid();
        // The child's only thread hits the orphaned lock: EDEADLK forever.
        assert_eq!(k.lock_acquire(c, c_main, lock), Err(Errno::Edeadlk));
        // The parent is fine: the owner is alive there.
        assert_eq!(k.lock_acquire(p, main, lock), Err(Errno::Ebusy));
        k.lock_release(p, other, lock).unwrap();
        assert_eq!(k.lock_acquire(p, main, lock), Ok(()));
    }

    #[test]
    fn calling_threads_locks_transfer() {
        let (mut k, p) = boot();
        let lock = k.register_lock(p, fpr_kernel::sync::names::APP).unwrap();
        let main = k.process(p).unwrap().main_tid();
        k.lock_acquire(p, main, lock).unwrap();
        let (c, stats) = fork_from_thread(&mut k, p, main, ForkMode::Cow).unwrap();
        assert_eq!(stats.orphaned_locks, 0);
        let c_main = k.process(c).unwrap().main_tid();
        // The child's thread owns its copy and can release it.
        assert_eq!(k.lock_release(c, c_main, lock), Ok(()));
    }

    #[test]
    fn stream_buffers_duplicated() {
        let (mut k, p) = boot();
        let s = k.stream_open(p, STDOUT, BufMode::FullyBuffered).unwrap();
        k.stream_write(p, s, b"once ").unwrap();
        let main = k.process(p).unwrap().main_tid();
        let (c, stats) = fork_from_thread(&mut k, p, main, ForkMode::Cow).unwrap();
        assert_eq!(stats.duplicated_stream_bytes, 5);
        // Both exit → both flush → console shows the text twice.
        k.exit(c, 0).unwrap();
        k.exit(p, 0).unwrap();
        assert_eq!(k.console, b"once once ");
    }

    #[test]
    fn fork_cost_scales_with_parent_memory() {
        let (mut k, p) = boot();
        let main = k.process(p).unwrap().main_tid();
        let (c1, small) = fork_from_thread(&mut k, p, main, ForkMode::Cow).unwrap();
        k.exit(c1, 0).unwrap();
        k.waitpid(p, Some(c1)).unwrap();
        let base = k.mmap_anon(p, 4096, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 4096).unwrap();
        let (_, big) = fork_from_thread(&mut k, p, main, ForkMode::Cow).unwrap();
        assert!(
            big.cycles > small.cycles * 10,
            "fork cost must grow with the parent: {} vs {}",
            big.cycles,
            small.cycles
        );
        assert_eq!(big.pages_inherited, small.pages_inherited + 4096);
    }

    #[test]
    fn atfork_handlers_run_in_posix_order() {
        use fpr_kernel::{AtforkPhase, AtforkRegistration, AtforkTable};
        let (mut k, p) = boot();
        let mut table = AtforkTable::new();
        table.register(AtforkRegistration {
            token: 1,
            lock: None,
        });
        table.register(AtforkRegistration {
            token: 2,
            lock: None,
        });
        k.memory_mut(p).unwrap().atfork = table;
        let c = fork(&mut k, p).unwrap();
        let phases: Vec<(Pid, u64, AtforkPhase)> = k.atfork_log.clone();
        // Prepare in reverse order, then parent/child pairs forward.
        assert_eq!(
            phases,
            vec![
                (p, 2, AtforkPhase::Prepare),
                (p, 1, AtforkPhase::Prepare),
                (p, 1, AtforkPhase::Parent),
                (c, 1, AtforkPhase::Child),
                (p, 2, AtforkPhase::Parent),
                (c, 2, AtforkPhase::Child),
            ]
        );
        // Child inherits the registrations (they live in memory).
        assert_eq!(k.memory(c).unwrap().atfork.len(), 2);
    }

    #[test]
    fn atfork_covered_lock_survives_fork() {
        use fpr_kernel::{AtforkRegistration, AtforkTable};
        let (mut k, p) = boot();
        let lock = k
            .register_lock(p, fpr_kernel::sync::names::MALLOC_ARENA)
            .unwrap();
        let mut table = AtforkTable::new();
        table.register(AtforkRegistration {
            token: 9,
            lock: Some(lock),
        });
        k.memory_mut(p).unwrap().atfork = table;
        // The lock is free at fork time: prepare acquires it, both sides
        // release it, and the child can use it.
        let c = fork(&mut k, p).unwrap();
        let c_main = k.process(c).unwrap().main_tid();
        assert_eq!(
            k.lock_acquire(c, c_main, lock),
            Ok(()),
            "no deadlock with atfork"
        );
        let p_main = k.process(p).unwrap().main_tid();
        assert_eq!(
            k.lock_acquire(p, p_main, lock),
            Ok(()),
            "parent side released too"
        );
    }

    #[test]
    fn atfork_blocks_when_covered_lock_held_elsewhere() {
        use fpr_kernel::{AtforkRegistration, AtforkTable};
        let (mut k, p) = boot();
        let lock = k
            .register_lock(p, fpr_kernel::sync::names::MALLOC_ARENA)
            .unwrap();
        let other = k.spawn_thread(p).unwrap();
        k.lock_acquire(p, other, lock).unwrap();
        let mut table = AtforkTable::new();
        table.register(AtforkRegistration {
            token: 9,
            lock: Some(lock),
        });
        k.memory_mut(p).unwrap().atfork = table;
        // fork would block in prepare until `other` releases: EBUSY here.
        assert_eq!(fork(&mut k, p), Err(Errno::Ebusy));
        // Once released, the fork goes through.
        k.lock_release(p, other, lock).unwrap();
        assert!(fork(&mut k, p).is_ok());
    }

    #[test]
    fn uncovered_lock_still_deadlocks_despite_other_registrations() {
        use fpr_kernel::{AtforkRegistration, AtforkTable};
        let (mut k, p) = boot();
        let covered = k
            .register_lock(p, fpr_kernel::sync::names::MALLOC_ARENA)
            .unwrap();
        let uncovered = k.register_lock(p, fpr_kernel::sync::names::APP).unwrap();
        let other = k.spawn_thread(p).unwrap();
        k.lock_acquire(p, other, uncovered).unwrap();
        let mut table = AtforkTable::new();
        table.register(AtforkRegistration {
            token: 1,
            lock: Some(covered),
        });
        k.memory_mut(p).unwrap().atfork = table;
        let c = fork(&mut k, p).unwrap();
        let c_main = k.process(c).unwrap().main_tid();
        assert_eq!(k.lock_acquire(c, c_main, covered), Ok(()));
        assert_eq!(
            k.lock_acquire(c, c_main, uncovered),
            Err(Errno::Edeadlk),
            "one missing registration re-creates the hazard"
        );
    }

    #[test]
    fn aslr_layout_inherited() {
        let (mut k, p) = boot();
        k.process_mut(p).unwrap().layout.aslr_seed = 777;
        k.process_mut(p).unwrap().layout.stack_base = 123_456;
        let c = fork(&mut k, p).unwrap();
        assert_eq!(k.process(c).unwrap().layout.aslr_seed, 777);
        assert_eq!(k.process(c).unwrap().layout.stack_base, 123_456);
    }

    #[test]
    fn eager_fork_copies_frames_up_front() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 16, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 16).unwrap();
        let used = k.phys.used_frames();
        let main = k.process(p).unwrap().main_tid();
        fork_from_thread(&mut k, p, main, ForkMode::Eager).unwrap();
        assert_eq!(k.phys.used_frames(), used + 16, "eager fork doubles frames");
    }

    #[test]
    fn on_demand_fork_shares_frames_until_write() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 16, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 16).unwrap();
        let used = k.phys.used_frames();
        let c = fork_on_demand(&mut k, p).unwrap();
        assert_eq!(k.phys.used_frames(), used, "shared subtrees allocate nothing");
        assert_eq!(k.read_mem(c, base), Ok(0), "child sees the snapshot");
        k.write_mem(c, base, 1).unwrap();
        assert_eq!(
            k.phys.used_frames(),
            used + 1,
            "first write unshares the subtree and copies one page"
        );
        // Divergence holds both ways after the unshare.
        assert_eq!(k.read_mem(c, base), Ok(1));
        assert_eq!(k.read_mem(p, base), Ok(0));
        k.write_mem(p, base.add(1), 7).unwrap();
        assert_eq!(k.read_mem(c, base.add(1)), Ok(0));
    }

    #[test]
    fn on_demand_fork_cost_flat_in_pages() {
        let (mut k, p) = boot();
        let main = k.process(p).unwrap().main_tid();
        // One populated subtree's worth of pages...
        let base = k.mmap_anon(p, 512, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 512).unwrap();
        let (c1, small) = fork_from_thread(&mut k, p, main, ForkMode::OnDemand).unwrap();
        k.exit(c1, 0).unwrap();
        k.waitpid(p, Some(c1)).unwrap();
        // ...then 16x the pages in the same VMA count.
        let base2 = k.mmap_anon(p, 8192, Prot::RW, Share::Private).unwrap();
        k.populate(p, base2, 8192).unwrap();
        let (_, big) = fork_from_thread(&mut k, p, main, ForkMode::OnDemand).unwrap();
        assert!(
            big.cycles < small.cycles * 3,
            "on-demand fork must not scale with resident pages: {} vs {}",
            big.cycles,
            small.cycles
        );
    }

    #[test]
    fn cow_fork_shares_frames_until_write() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 16, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 16).unwrap();
        let used = k.phys.used_frames();
        let c = fork(&mut k, p).unwrap();
        assert_eq!(k.phys.used_frames(), used, "COW fork allocates nothing");
        k.write_mem(c, base, 1).unwrap();
        assert_eq!(
            k.phys.used_frames(),
            used + 1,
            "first write copies one page"
        );
    }
}
