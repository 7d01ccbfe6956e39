//! What each creation API hands its child, field by field.
//!
//! One parent carries a distinctive value in every piece of PCB state
//! the paper lists under "what fork copies"; every API then creates a
//! child from an identical copy of that world and one table says, per
//! API and per field, what the child must and must not have received.
//! The table is the executable form of `Kernel::inherit`'s contract
//! (see the "what each API inherits" table in `docs/ARCHITECTURE.md`).

use fpr_api::{
    clone, fork, fork_on_demand, posix_spawn, spawn_fast, vfork, CloneFlags, CloneResult,
    ProcessBuilder, SpawnAttrs, WarmPool,
};
use fpr_exec::{execve, Image, ImageCache, ImageRegistry};
use fpr_kernel::{
    AtforkRegistration, BufMode, Caps, Credentials, Disposition, Fd, FdEntry, HandlerId, Kernel,
    LayoutInfo, OpenFlags, Pid, Resource, Rlimit, Sig, SpaceRef,
};
use std::collections::BTreeMap;

const TOOL: &str = "/bin/tool";
const CHILD_SEED: u64 = 0xC0FFEE;

struct World {
    k: Kernel,
    init: Pid,
    parent: Pid,
    reg: ImageRegistry,
}

/// Boots a world whose `parent` differs from a fresh process in every
/// inheritable field.
fn world() -> World {
    let mut k = Kernel::boot();
    let init = k.create_init("init").unwrap();
    let mut reg = ImageRegistry::new();
    reg.register(TOOL, Image::small("tool"));
    reg.register("/bin/parent", Image::small("parentprog"));
    k.vfs.mkdir("/work", k.vfs.root()).unwrap();

    let parent = k.allocate_process(init, "").unwrap();
    // name and layout from a real exec; argv/envp set on top of it.
    execve(
        &mut k,
        parent,
        &reg,
        "/bin/parent",
        41,
    )
    .unwrap();
    k.setsid(parent).unwrap();
    {
        let work = k.vfs.resolve("/work", k.vfs.root()).unwrap();
        let p = k.process_mut(parent).unwrap();
        p.argv = vec!["parentprog".into(), "--flag".into()];
        p.envp = BTreeMap::from([("HOME".to_string(), "/root".to_string())]);
        p.umask = 0o077;
        p.cwd = work;
        p.cred = Credentials {
            gid: 7,
            egid: 8,
            ..Credentials::root()
        };
        p.rlimits.set(Resource::Nofile, Rlimit::both(77));
        p.atfork.register(AtforkRegistration {
            token: 9,
            lock: None,
        });
    }
    // Signals: a handler, an ignore, a blocked signal that stays pending.
    k.sigaction(parent, Sig::Hup, Disposition::Handler(HandlerId(5)))
        .unwrap();
    k.sigaction(parent, Sig::Pipe, Disposition::Ignore).unwrap();
    k.sigprocmask(parent, Sig::Term, true).unwrap();
    k.kill(parent, Sig::Term).unwrap();
    // Descriptors: fd 0 plain, fd 1 close-on-exec.
    let plain = k.open(parent, "/data", OpenFlags::RDWR, true).unwrap();
    let secret = k.open(parent, "/secret", OpenFlags::RDWR, true).unwrap();
    k.set_cloexec(parent, secret, true).unwrap();
    assert_eq!((plain, secret), (Fd(0), Fd(1)));
    // An unflushed stream.
    let s = k
        .stream_open(parent, plain, BufMode::FullyBuffered)
        .unwrap();
    k.stream_write(parent, s, b"pending").unwrap();
    // A lock held by the forking thread, and one held by a second thread
    // (orphaned by fork).
    let main = k.process(parent).unwrap().main_tid();
    let other = k.spawn_thread(parent).unwrap();
    let mine = k.register_lock(parent, 1).unwrap();
    let theirs = k.register_lock(parent, 2).unwrap();
    k.lock_acquire(parent, main, mine).unwrap();
    k.lock_acquire(parent, other, theirs).unwrap();
    World {
        k,
        init,
        parent,
        reg,
    }
}

/// Every inheritable field of a PCB, rendered comparable. Non-`Eq`
/// members go through `Debug`; the address space is summarised by its
/// VMA list.
#[derive(Debug, PartialEq, Eq)]
struct Pcb {
    name: String,
    argv: Vec<String>,
    envp: BTreeMap<String, String>,
    umask: u16,
    identity: String,
    layout: LayoutInfo,
    handler_hup: Disposition,
    ignore_pipe: Disposition,
    term_blocked: bool,
    term_pending: bool,
    fds: Vec<(Fd, FdEntry)>,
    unflushed: usize,
    locks: String,
    atfork: usize,
    space_ref: SpaceRef,
    vmas: Vec<(u64, u64)>,
}

fn pcb(k: &Kernel, pid: Pid) -> Pcb {
    let p = k.process(pid).unwrap();
    Pcb {
        name: p.name.clone(),
        argv: p.argv.clone(),
        envp: p.envp.clone(),
        umask: p.umask,
        identity: format!("{:?}", (p.cwd, p.cred, p.rlimits, p.pgid, p.sid)),
        layout: p.layout,
        handler_hup: p.signals.disposition(Sig::Hup),
        ignore_pipe: p.signals.disposition(Sig::Pipe),
        term_blocked: p.signals.is_blocked(Sig::Term),
        term_pending: p.signals.is_pending(Sig::Term),
        fds: p.fds.iter().collect(),
        unflushed: p.unflushed_bytes(),
        locks: format!("{:?}", p.locks),
        atfork: p.atfork.len(),
        space_ref: p.space_ref.clone(),
        vmas: p.aspace.vmas().map(|v| (v.start.0, v.pages)).collect(),
    }
}

/// How a field of the child relates to the parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mem {
    /// An owned duplicate: same VMAs, same layout.
    Copied,
    /// The parent's own space, on loan.
    Borrowed,
    /// A fresh image under a fresh layout.
    Fresh,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fds {
    All,
    MinusCloexec,
    None,
}

/// One row of the table: what the API semantically hands over.
struct Row {
    api: &'static str,
    /// name/argv describe the parent's image (else the spawned tool's).
    parent_image: bool,
    envp: bool,
    umask: bool,
    /// Dispositions and mask cross; `handlers` says whether a caught
    /// handler survives (fork family) or is reset (exec ran).
    signals: bool,
    handlers: bool,
    fds: Fds,
    /// Streams, lock table, atfork registrations.
    userspace: bool,
    mem: Mem,
    parks_parent: bool,
    /// The call grants its child an argument, a variable, a capability
    /// drop, a limit and a blocked signal (the builder's explicit half).
    grants: bool,
    create: fn(&mut World) -> Pid,
}

fn clone_process(w: &mut World, flags: CloneFlags) -> Pid {
    match clone(&mut w.k, w.parent, flags).unwrap() {
        CloneResult::Process(p) => p,
        CloneResult::Thread(_) => panic!("asked for a process"),
    }
}

const VM_VFORK_FILES: CloneFlags = CloneFlags {
    vm: true,
    files: true,
    sighand: false,
    thread: false,
    vfork: true,
    pt_share: false,
};

fn classic_spawn(w: &mut World) -> Pid {
    posix_spawn(
        &mut w.k,
        w.parent,
        &w.reg,
        TOOL,
        &[],
        &SpawnAttrs::default(),
        CHILD_SEED,
        None,
    )
    .unwrap()
}

/// `spawn_fast` with `prefill` parked children ready: 1 = pool hit,
/// 0 = pool miss.
fn fast_spawn(w: &mut World, prefill: usize) -> Pid {
    let mut cache = ImageCache::new();
    let mut pool = WarmPool::new(w.init);
    pool.prefill(&mut w.k, &w.reg, &mut cache, TOOL, prefill)
        .unwrap();
    let pid = spawn_fast(
        &mut w.k,
        w.parent,
        &w.reg,
        TOOL,
        &[],
        &SpawnAttrs::default(),
        CHILD_SEED,
        &mut cache,
        &mut pool,
    )
    .unwrap();
    assert_eq!(pool.checkouts(), prefill as u64, "hit/miss as arranged");
    pid
}

const FORK_FAMILY: Row = Row {
    api: "",
    parent_image: true,
    envp: true,
    umask: true,
    signals: true,
    handlers: true,
    fds: Fds::All,
    userspace: true,
    mem: Mem::Copied,
    parks_parent: false,
    grants: false,
    create: |_| unreachable!(),
};

const BORROWER: Row = Row {
    userspace: false,
    mem: Mem::Borrowed,
    parks_parent: true,
    ..FORK_FAMILY
};

const SPAWN: Row = Row {
    parent_image: false,
    handlers: false,
    fds: Fds::MinusCloexec,
    userspace: false,
    mem: Mem::Fresh,
    ..FORK_FAMILY
};

fn table() -> Vec<Row> {
    vec![
        Row {
            api: "fork(Cow)",
            create: |w| fork(&mut w.k, w.parent).unwrap(),
            ..FORK_FAMILY
        },
        Row {
            api: "fork(OnDemand)",
            create: |w| fork_on_demand(&mut w.k, w.parent).unwrap(),
            ..FORK_FAMILY
        },
        Row {
            api: "vfork",
            create: |w| vfork(&mut w.k, w.parent).unwrap(),
            ..BORROWER
        },
        Row {
            api: "clone(vm|vfork|files)",
            create: |w| clone_process(w, VM_VFORK_FILES),
            ..BORROWER
        },
        Row {
            api: "clone(files)",
            create: |w| {
                clone_process(
                    w,
                    CloneFlags {
                        files: true,
                        ..CloneFlags::default()
                    },
                )
            },
            ..FORK_FAMILY
        },
        Row {
            api: "posix_spawn",
            create: classic_spawn,
            ..SPAWN
        },
        Row {
            api: "spawn_fast(pool hit)",
            create: |w| fast_spawn(w, 1),
            ..SPAWN
        },
        Row {
            api: "spawn_fast(pool miss)",
            create: |w| fast_spawn(w, 0),
            ..SPAWN
        },
        Row {
            api: "xproc",
            envp: false,
            umask: false,
            signals: false,
            fds: Fds::None,
            grants: true,
            create: |w| {
                ProcessBuilder::new(TOOL)
                    .arg(TOOL)
                    .arg("--child")
                    .env("LANG", "C")
                    .drop_caps(Caps::KILL)
                    .rlimit(Resource::Nproc, Rlimit::both(5))
                    .sigmask(Sig::Usr1, true)
                    .aslr_seed(CHILD_SEED)
                    .spawn(&mut w.k, w.parent, &w.reg)
                    .unwrap()
                    .pid
            },
            ..SPAWN
        },
    ]
}

/// Compares one field, recording a mismatch instead of panicking so a
/// single run names every (API, field) pair that is off.
fn check<T: PartialEq + std::fmt::Debug>(
    failures: &mut Vec<String>,
    api: &str,
    field: &str,
    got: T,
    want: T,
) {
    if got != want {
        failures.push(format!("{api}: {field}: got {got:?}, want {want:?}"));
    }
}

#[test]
fn every_api_hands_over_exactly_its_row() {
    let mut failures = Vec::new();
    for row in table() {
        let mut w = world();
        let before = pcb(&w.k, w.parent);
        let child = (row.create)(&mut w);
        let c = pcb(&w.k, child);
        let f = &mut failures;
        let api = row.api;

        // Identity is inherited by every API, xproc included: it is what
        // makes the child *this* parent's child. Only a grant changes it.
        check(f, api, "ppid", w.k.process(child).unwrap().ppid, w.parent);
        let identity = if row.grants {
            let p = w.k.process(w.parent).unwrap();
            let (mut cred, mut rlimits) = (p.cred, p.rlimits);
            cred.caps = cred.caps.drop(Caps::KILL);
            rlimits.set(Resource::Nproc, Rlimit::both(5));
            format!("{:?}", (p.cwd, cred, rlimits, p.pgid, p.sid))
        } else {
            before.identity.clone()
        };
        check(f, api, "cwd/cred/rlimits/pgid/sid", &c.identity, &identity);

        let (name, mut argv) = if row.parent_image {
            (before.name.clone(), before.argv.clone())
        } else {
            ("tool".to_string(), vec![TOOL.to_string()])
        };
        let mut envp = if row.envp {
            before.envp.clone()
        } else {
            BTreeMap::new()
        };
        if row.grants {
            argv.push("--child".to_string());
            envp.insert("LANG".to_string(), "C".to_string());
        }
        check(f, api, "name", &c.name, &name);
        check(f, api, "argv", &c.argv, &argv);
        check(f, api, "envp", &c.envp, &envp);
        check(
            f,
            api,
            "umask",
            c.umask,
            if row.umask { 0o077 } else { 0o022 },
        );

        let handler = if row.signals && row.handlers {
            Disposition::Handler(HandlerId(5))
        } else {
            Disposition::Default
        };
        check(f, api, "caught handler", c.handler_hup, handler);
        let ignore = if row.signals {
            Disposition::Ignore
        } else {
            Disposition::Default
        };
        check(f, api, "ignored signal", c.ignore_pipe, ignore);
        check(f, api, "signal mask", c.term_blocked, row.signals);
        let usr1_blocked = w.k.process(child).unwrap().signals.is_blocked(Sig::Usr1);
        check(f, api, "granted mask entry", usr1_blocked, row.grants);
        check(f, api, "pending signal", c.term_pending, false);

        let fds: Vec<(Fd, FdEntry)> = match row.fds {
            Fds::All => before.fds.clone(),
            Fds::MinusCloexec => before
                .fds
                .iter()
                .copied()
                .filter(|(_, e)| !e.cloexec)
                .collect(),
            Fds::None => Vec::new(),
        };
        check(f, api, "descriptors", &c.fds, &fds);

        check(
            f,
            api,
            "unflushed stream bytes",
            c.unflushed,
            if row.userspace { 7 } else { 0 },
        );
        check(
            f,
            api,
            "atfork registrations",
            c.atfork,
            usize::from(row.userspace),
        );
        let cp = w.k.process(child).unwrap();
        if row.userspace {
            // The forking thread's lock follows it into the child's only
            // thread; the other thread's lock is orphaned in place.
            let owners: Vec<_> = cp.locks.iter().map(|l| l.owner).collect();
            let other = w.k.process(w.parent).unwrap().threads[1].tid;
            check(
                f,
                api,
                "lock owners",
                owners,
                vec![Some(cp.main_tid()), Some(other)],
            );
        } else {
            check(f, api, "lock table", cp.locks.len(), 0);
        }
        check(f, api, "threads", cp.threads.len(), 1);

        match row.mem {
            Mem::Copied => {
                check(f, api, "space_ref", &c.space_ref, &SpaceRef::Owned);
                check(f, api, "vmas", &c.vmas, &before.vmas);
                check(f, api, "layout", c.layout, before.layout);
            }
            Mem::Borrowed => {
                check(
                    f,
                    api,
                    "space_ref",
                    &c.space_ref,
                    &SpaceRef::BorrowedFrom(w.parent),
                );
                check(f, api, "vmas", c.vmas.len(), 0);
                check(f, api, "layout", c.layout, before.layout);
            }
            Mem::Fresh => {
                check(f, api, "space_ref", &c.space_ref, &SpaceRef::Owned);
                check(f, api, "layout is fresh", c.layout != before.layout, true);
                check(f, api, "layout seed", c.layout.aslr_seed, CHILD_SEED);
            }
        }
        let parked = w.k.process(w.parent).unwrap().schedulable_threads() == 0;
        check(f, api, "parent parked", parked, row.parks_parent);

        // Creation must not have disturbed the parent's own PCB.
        check(f, api, "parent PCB untouched", pcb(&w.k, w.parent), before);
        w.k.check_invariants()
            .unwrap_or_else(|v| panic!("{api}: invariants: {v:?}"));
    }
    assert!(
        failures.is_empty(),
        "{} inheritance mismatches:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

/// `vfork()` is `clone(vm|vfork|files)` under another span: from
/// identical worlds the two children are the same PCB, down to PIDs,
/// TIDs and the parent they leave behind.
#[test]
fn vfork_is_clone_vm_vfork_files() {
    let mut a = world();
    let mut b = world();
    let va = vfork(&mut a.k, a.parent).unwrap();
    let vb = clone_process(&mut b, VM_VFORK_FILES);
    assert_eq!(va, vb);
    same_debug(
        "child PCB",
        a.k.process(va).unwrap(),
        b.k.process(vb).unwrap(),
    );
    same_debug(
        "parent PCB",
        a.k.process(a.parent).unwrap(),
        b.k.process(b.parent).unwrap(),
    );
}

/// Asserts two values render identically under `{:#?}`, naming only the
/// lines that differ (a PCB dump runs to thousands of lines).
fn same_debug<T: std::fmt::Debug>(what: &str, a: &T, b: &T) {
    let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
    let diff: Vec<String> = a
        .lines()
        .zip(b.lines())
        .filter(|(x, y)| x != y)
        .map(|(x, y)| format!("{} vs {}", x.trim(), y.trim()))
        .collect();
    assert!(
        diff.is_empty() && a.lines().count() == b.lines().count(),
        "{what} differs ({} vs {} lines): {diff:?}",
        a.lines().count(),
        b.lines().count()
    );
}

/// A pool hit, a pool miss and a classic spawn differ in cycles only.
#[test]
fn pool_hit_is_pool_miss_is_classic_spawn() {
    let (mut classic, mut hit, mut miss) = (world(), world(), world());
    let pc = classic_spawn(&mut classic);
    let ph = fast_spawn(&mut hit, 1);
    let pm = fast_spawn(&mut miss, 0);
    let want = pcb(&classic.k, pc);
    assert_eq!(pcb(&hit.k, ph), want, "pool hit vs classic");
    assert_eq!(pcb(&miss.k, pm), want, "pool miss vs classic");
}
