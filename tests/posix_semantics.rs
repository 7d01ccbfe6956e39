//! Cross-crate integration tests: the POSIX inheritance contract of each
//! creation API, end to end through the facade.

use forkroad::api::{FileAction, ProcessBuilder, SpawnAttrs};
use forkroad::kernel::{
    BufMode, Disposition, Errno, HandlerId, OpenFlags, ReadResult, Sig, STDOUT,
};
use forkroad::mem::{Prot, Share};
use forkroad::{Os, OsConfig};

fn boot() -> Os {
    Os::boot(OsConfig::default())
}

#[test]
fn fork_inherits_everything_the_paper_lists() {
    let mut os = boot();
    let init = os.init;
    let parent = os
        .spawn(init, "/bin/tool", &[], &SpawnAttrs::default())
        .unwrap();

    // Memory content.
    let base = os
        .kernel
        .mmap_anon(parent, 4, Prot::RW, Share::Private)
        .unwrap();
    os.kernel.write_mem(parent, base, 0xfeed).unwrap();
    // Descriptor with a file offset.
    let fd = os
        .kernel
        .open(parent, "/data", OpenFlags::RDWR, true)
        .unwrap();
    os.kernel.write_fd(parent, fd, b"12345").unwrap();
    // Signal disposition and mask.
    os.kernel
        .sigaction(parent, Sig::Usr1, Disposition::Handler(HandlerId(11)))
        .unwrap();
    os.kernel.sigprocmask(parent, Sig::Hup, true).unwrap();
    // Umask.
    os.kernel.process_mut(parent).unwrap().umask = 0o077;

    let child = os.fork(parent).unwrap();
    let (p_layout, c) = {
        let p = os.kernel.process(parent).unwrap();
        (p.layout, os.kernel.process(child).unwrap())
    };
    assert_eq!(
        c.signals.disposition(Sig::Usr1),
        Disposition::Handler(HandlerId(11))
    );
    assert!(c.signals.is_blocked(Sig::Hup));
    assert_eq!(c.umask, 0o077);
    assert_eq!(c.layout, p_layout, "ASLR layout shared — the zygote hazard");
    assert_eq!(c.cwd, os.kernel.process(parent).unwrap().cwd);
    assert_eq!(os.kernel.read_mem(child, base), Ok(0xfeed));
    // Shared file offset: child's write lands after the parent's.
    os.kernel.write_fd(child, fd, b"678").unwrap();
    let ino = os
        .kernel
        .vfs
        .resolve("/data", os.kernel.vfs.root())
        .unwrap();
    assert_eq!(os.kernel.vfs.read_at(ino, 0, 16).unwrap(), b"12345678");
}

#[test]
fn exec_undoes_forks_copies() {
    let mut os = boot();
    let init = os.init;
    let parent = os
        .spawn(init, "/bin/tool", &[], &SpawnAttrs::default())
        .unwrap();
    let base = os
        .kernel
        .mmap_anon(parent, 64, Prot::RW, Share::Private)
        .unwrap();
    os.kernel.populate(parent, base, 64).unwrap();
    os.kernel
        .sigaction(parent, Sig::Int, Disposition::Handler(HandlerId(5)))
        .unwrap();
    let secret = os
        .kernel
        .open(parent, "/secret", OpenFlags::RDWR, true)
        .unwrap();
    os.kernel.set_cloexec(parent, secret, true).unwrap();

    let child = os.fork(parent).unwrap();
    let copied = os.kernel.process(child).unwrap().resident_pages();
    assert!(copied >= 64, "fork copied the working set");

    os.exec(child, "/bin/cat").unwrap();
    let c = os.kernel.process(child).unwrap();
    assert!(c.resident_pages() < copied, "exec discarded the copy");
    assert_eq!(c.signals.disposition(Sig::Int), Disposition::Default);
    assert!(c.fds.get(secret).is_err(), "close-on-exec swept");
    assert!(c.fds.get(STDOUT).is_ok(), "stdio survived");
    assert_ne!(
        c.layout,
        os.kernel.process(parent).unwrap().layout,
        "fresh layout"
    );
}

#[test]
fn spawn_equals_fork_exec_observably() {
    // For the create-a-different-program case the two paths must land in
    // the same observable state (modulo layout randomness).
    let mut os = boot();
    let init = os.init;
    let via_fork = {
        let c = os.fork(init).unwrap();
        os.exec(c, "/bin/grep").unwrap();
        c
    };
    let via_spawn = os
        .spawn(init, "/bin/grep", &[], &SpawnAttrs::default())
        .unwrap();
    let a = os.kernel.process(via_fork).unwrap();
    let b = os.kernel.process(via_spawn).unwrap();
    assert_eq!(a.name, b.name);
    assert_eq!(a.fds.open_count(), b.fds.open_count());
    assert_eq!(a.resident_pages(), b.resident_pages());
    let vmas = |pid| os.kernel.memory(pid).unwrap().aspace.vma_count();
    assert_eq!(vmas(via_fork), vmas(via_spawn));
    assert_eq!(a.signals.handler_count(), b.signals.handler_count());
}

#[test]
fn vfork_then_exec_full_lifecycle() {
    let mut os = boot();
    let init = os.init;
    let sh = os
        .spawn(init, "/bin/sh", &[], &SpawnAttrs::default())
        .unwrap();
    let child = os.vfork(sh).unwrap();
    assert_eq!(os.kernel.process(sh).unwrap().schedulable_threads(), 0);
    os.exec(child, "/bin/wc").unwrap();
    assert_eq!(os.kernel.process(sh).unwrap().schedulable_threads(), 1);
    os.kernel.exit(child, 42).unwrap();
    let (pid, status) = os.kernel.waitpid(sh, None).unwrap().unwrap();
    assert_eq!((pid, status), (child, 42));
}

#[test]
fn builder_grants_are_exact() {
    let mut os = boot();
    let init = os.init;
    let (r, w) = os.kernel.pipe(init).unwrap();
    let spawned = os
        .spawn_builder(
            init,
            ProcessBuilder::new("/bin/server")
                .fd(STDOUT, forkroad::api::FdSource::Inherit(w))
                .uid(1000),
        )
        .unwrap();
    let c = os.kernel.process(spawned.pid).unwrap();
    assert_eq!(c.fds.open_count(), 1, "exactly the one grant");
    assert_eq!(c.cred.uid, 1000);
    os.kernel.write_fd(spawned.pid, STDOUT, b"hi").unwrap();
    assert_eq!(
        os.kernel.read_fd(init, r, 8).unwrap(),
        ReadResult::Data(b"hi".to_vec())
    );
}

#[test]
fn spawn_actions_fail_clean_fork_exec_fails_dirty() {
    let mut os = boot();
    let init = os.init;
    let before = os.kernel.process_count();
    // posix_spawn: the parent gets the error, no process exists.
    let err = os.spawn(
        init,
        "/bin/tool",
        &[FileAction::Open {
            fd: STDOUT,
            path: "/no/such/dir/file".into(),
            flags: OpenFlags::WRONLY,
            create: true,
        }],
        &SpawnAttrs::default(),
    );
    assert_eq!(err.err(), Some(Errno::Enoent));
    assert_eq!(os.kernel.process_count(), before);

    // fork+exec: the same failure happens *in the child*, which exists
    // and must discover, report and exit on its own.
    let child = os.fork(init).unwrap();
    let open_err = os
        .kernel
        .open(child, "/no/such/dir/file", OpenFlags::WRONLY, true);
    assert_eq!(open_err.err(), Some(Errno::Enoent));
    assert_eq!(
        os.kernel.process_count(),
        before + 1,
        "half-built child exists"
    );
    os.kernel.exit(child, 127).unwrap();
    let (_, status) = os.kernel.waitpid(init, Some(child)).unwrap().unwrap();
    assert_eq!(status, 127, "error smuggled out via exit status");
}

#[test]
fn stream_duplication_end_to_end() {
    let mut os = boot();
    let init = os.init;
    let s = os
        .kernel
        .stream_open(init, STDOUT, BufMode::FullyBuffered)
        .unwrap();
    os.kernel.stream_write(init, s, b"tick ").unwrap();
    let child = os.fork(init).unwrap();
    os.kernel.stream_write(child, s, b"tock").unwrap();
    os.kernel.exit(child, 0).unwrap();
    os.kernel.waitpid(init, Some(child)).unwrap();
    os.kernel.stream_flush(init, s).unwrap();
    // Child flushed "tick tock", parent flushed "tick ": prefix doubled.
    assert_eq!(os.kernel.console, b"tick tocktick ");
}

#[test]
fn clone_thread_vs_clone_process() {
    let mut os = boot();
    let init = os.init;
    let base = os
        .kernel
        .mmap_anon(init, 2, Prot::RW, Share::Private)
        .unwrap();
    use forkroad::api::{clone, CloneFlags, CloneResult};
    // Thread: same process, shared memory implicitly.
    let t = clone(
        &mut os.kernel,
        init,
        CloneFlags {
            vm: true,
            sighand: true,
            thread: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(matches!(t, CloneResult::Thread(_)));
    // Process without VM: private copy.
    let p = clone(&mut os.kernel, init, CloneFlags::default()).unwrap();
    let c = match p {
        CloneResult::Process(c) => c,
        _ => unreachable!(),
    };
    os.kernel.write_mem(init, base, 1).unwrap();
    assert_eq!(
        os.kernel.read_mem(c, base),
        Ok(0),
        "no sharing without CLONE_VM"
    );
}
