//! A vfork borrower runs in the lender's memory, and hands it back intact.
//!
//! Its memory syscalls act on the lender's address space:
//! `write_mem`/`mprotect`/`madvise` always resolved the space owner;
//! `mmap_anon`/`mmap_at`/`munmap` once did not, so a borrower's mapping
//! went into the placeholder space its PCB carried, could not be written,
//! and its commit charge outlived the child. A borrower now holds no space
//! of its own, so there is nowhere else for a mapping to go. Its locks,
//! streams and atfork registrations are the lender's too, and its exec or
//! exit leaves the lender's tables — locks, atfork registrations, threads,
//! stream buffers — as they were before the vfork.

use fpr_kernel::{
    sync, AtforkRegistration, BufMode, Errno, Fd, FdEntry, FileObject, Kernel, LockId, OpenFlags, Pid, Space, ThreadState,
    Tid,
};
use fpr_mem::{Prot, Share};

#[test]
fn vfork_borrower_mmap_lands_in_lender() {
    let mut k = Kernel::boot();
    let parent = k.create_init("init").unwrap();
    let heap = k.mmap_anon(parent, 8, Prot::RW, Share::Private).unwrap();
    k.populate(parent, heap, 8).unwrap();
    let base = k.baseline();

    // A child borrowing the parent's space, built from the kernel
    // plumbing vfork itself uses.
    let child = k.allocate_process(parent, "").unwrap();
    k.borrow_space(parent, child, true).unwrap();

    let region = k.mmap_anon(child, 4, Prot::RW, Share::Private).unwrap();
    k.write_mem(child, region, 0xfeed)
        .expect("the borrower can write what it mapped");
    assert_eq!(
        k.read_mem(parent, region),
        Ok(0xfeed),
        "the mapping is the lender's: visible in the parent"
    );
    assert!(k.memory(parent).unwrap().aspace.vma_at(region).is_some());
    assert!(
        matches!(k.process(child).unwrap().space, Space::BorrowedFrom(p) if p == parent),
        "the borrower holds no space of its own for a mapping to land in"
    );
    // A second region is mapped and unmapped again by the borrower.
    let scratch = k.mmap_anon(child, 4, Prot::RW, Share::Private).unwrap();
    assert_ne!(
        scratch, region,
        "the free-range search sees the lender's VMAs"
    );
    k.munmap(child, scratch, 4).unwrap();
    assert!(k.memory(parent).unwrap().aspace.vma_at(scratch).is_none());

    k.exit(child, 0).unwrap();
    assert_eq!(k.waitpid(parent, Some(child)), Ok(Some((child, 0))));
    // What the child mapped in the parent stays the parent's; give it
    // back and the world must be exactly the pre-vfork one.
    k.munmap(parent, region, 4).unwrap();
    k.leak_check(&base)
        .unwrap_or_else(|v| panic!("borrower mmap leaked:\n  {}", v.join("\n  ")));
    k.check_invariants().unwrap();
}

/// A lender whose userspace is all in use: a worker thread holding a
/// lock, a fully buffered stream holding bytes, an atfork registration.
/// Returns the world, the lender, the worker and the lock.
fn lender_world() -> (forkroad_core::Os, Pid, Tid, LockId) {
    let mut os = forkroad_core::Os::boot(forkroad_core::OsConfig::default());
    let k = &mut os.kernel;
    let lender = k.allocate_process(os.init, "lender").unwrap();
    let ofd = k.ofds.insert(FileObject::Tty, OpenFlags::WRONLY);
    let stdout = FdEntry { ofd, cloexec: false };
    k.process_mut(lender).unwrap().fds.install_at(Fd(1), stdout, 64).unwrap();
    let stream = k.stream_open(lender, Fd(1), BufMode::FullyBuffered).unwrap();
    k.stream_write(lender, stream, PENDING).unwrap();
    let worker = k.spawn_thread(lender).unwrap();
    let lock = k.register_lock(lender, sync::names::MALLOC_ARENA).unwrap();
    k.lock_acquire(lender, worker, lock).unwrap();
    let reg = AtforkRegistration { token: 3, lock: Some(lock) };
    k.memory_mut(lender).unwrap().atfork.register(reg);
    (os, lender, worker, lock)
}

/// What the lender's stream holds before any borrower runs.
const PENDING: &[u8] = b"pending";

/// `pid`'s observed entries under the path families `families`.
fn seen(os: &forkroad_core::Os, pid: Pid, families: &[&str]) -> Vec<(String, String)> {
    let o = os.kernel.observe().process(pid);
    let keep = |path: &str| families.iter().any(|f| path.starts_with(f));
    o.iter().filter(|(path, _)| keep(path)).map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

/// A borrower's exec or exit hands the lender back its locks, atfork
/// registrations and threads as they were before the vfork — and, for
/// exec, its stream buffers too: the borrower's exit flushes them. The
/// world then leaks nothing against the pre-vfork baseline.
#[test]
fn a_borrowers_exec_or_exit_leaves_the_lenders_tables_as_they_were() {
    for exec in [true, false] {
        let (mut os, lender, ..) = lender_world();
        let families: &[&str] = match exec {
            true => &["stream ", "lock ", "atfork ", "thread "],
            false => &["lock ", "atfork ", "thread "],
        };
        let base = os.kernel.baseline();
        let before = seen(&os, lender, families);
        assert_eq!(before.len(), families.len() + 1, "two threads and one entry of each table");
        let child = os.vfork(lender).unwrap();
        match exec {
            true => os.exec(child, "/bin/tool").unwrap(),
            false => os.kernel.exit(child, 0).unwrap(),
        }
        assert_eq!(seen(&os, lender, families), before, "exec {exec}: the lender's tables moved");
        if exec {
            os.kernel.exit(child, 0).unwrap();
        }
        assert_eq!(os.kernel.waitpid(lender, Some(child)), Ok(Some((child, 0))));
        os.kernel
            .leak_check(&base)
            .unwrap_or_else(|v| panic!("exec {exec}: leaked:\n  {}", v.join("\n  ")));
        os.kernel.check_invariants().unwrap();
    }
}

/// `clone(CLONE_VM)` from `lender`, which goes on running:
/// the kernel's creation steps as `fpr-api`'s clone takes them.
fn clone_vm(k: &mut Kernel, lender: Pid) -> Pid {
    let (child, ()) = k
        .create_process(lender, |k, child, _| {
            k.copy_fd_table(lender, child)?;
            k.copy_task(lender, child)?;
            k.copy_image(lender, child)?;
            k.borrow_space(lender, child, false)
        })
        .unwrap();
    child
}

/// A borrower acts on its lender's tables: a lock it registers is the
/// lender's, a lock a lender worker holds refuses it — for good while the
/// borrow parks that worker, for now while it runs —, its stream writes
/// land in the lender's buffer, and its exit flushes that buffer, once.
#[test]
fn a_borrower_acts_on_the_lenders_tables() {
    for park in [true, false] {
        let (mut os, lender, _, lock) = lender_world();
        let child = match park {
            true => os.vfork(lender).unwrap(),
            false => clone_vm(&mut os.kernel, lender),
        };
        let k = &mut os.kernel;
        let main = k.process(child).unwrap().main_tid();
        let refused = if park { Errno::Edeadlk } else { Errno::Ebusy };
        assert_eq!(k.lock_acquire(child, main, lock), Err(refused), "park {park}");

        let mine = k.register_lock(child, sync::names::APP).unwrap();
        let entry = (format!("lock {}", mine.0), format!("name {} held by nobody", sync::names::APP));
        assert!(seen(&os, lender, &["lock "]).contains(&entry), "park {park}: {entry:?} not the lender's");

        let k = &mut os.kernel;
        k.stream_write(child, 0, b" more").unwrap();
        assert_eq!(k.process(lender).unwrap().unflushed_bytes(), PENDING.len() + 5, "park {park}");
        assert_eq!(k.process(child).unwrap().unflushed_bytes(), 0, "park {park}: the borrower has no buffer");
        k.exit(child, 0).unwrap();
        assert_eq!(k.console, b"pending more", "park {park}: the borrower's exit flushes the lender's buffer");
        k.exit(lender, 0).unwrap();
        assert_eq!(k.console, b"pending more", "park {park}: the lender has nothing left to flush");
        k.check_invariants().unwrap();
    }
}

/// Under a `clone(CLONE_VM)` that parks nobody, a lock is contended across
/// the two processes running in one memory: each side's thread blocks on
/// a lock the other's holds (`Ebusy`, not `Edeadlk`, since that owner
/// runs), and wakes when the other releases it.
#[test]
fn a_lock_shared_with_a_running_borrower_blocks_and_wakes_across_them() {
    let (mut os, lender, worker, lock) = lender_world();
    let child = clone_vm(&mut os.kernel, lender);
    let k = &mut os.kernel;
    let state = |k: &Kernel, pid: Pid| k.process(pid).unwrap().threads[0].state;
    let (main, lender_main) = (k.process(child).unwrap().main_tid(), k.process(lender).unwrap().main_tid());

    assert_eq!(k.lock_acquire(child, main, lock), Err(Errno::Ebusy));
    assert_eq!(state(k, child), ThreadState::BlockedOnLock(lock));
    k.lock_release(lender, worker, lock).unwrap();
    assert_eq!(state(k, child), ThreadState::Runnable, "the lender's release wakes the borrower");
    k.lock_acquire(child, main, lock).unwrap();

    assert_eq!(k.lock_acquire(lender, lender_main, lock), Err(Errno::Ebusy), "the child holding it runs");
    assert_eq!(state(k, lender), ThreadState::BlockedOnLock(lock));
    k.lock_release(child, main, lock).unwrap();
    assert_eq!(state(k, lender), ThreadState::Runnable, "the borrower's release wakes the lender");
    k.lock_acquire(lender, lender_main, lock).unwrap();
    k.lock_release(lender, lender_main, lock).unwrap();

    k.exit(child, 0).unwrap();
    k.check_invariants().unwrap();
}
