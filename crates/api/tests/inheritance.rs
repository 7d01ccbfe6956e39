//! What each creation API hands its child, field by field.
//!
//! One parent carries a distinctive value in every piece of PCB state
//! the paper lists under "what fork copies" — a non-default disposition
//! on every catchable signal, a blocked subset with one signal pending, a
//! pending alarm, descriptors with and without `FD_CLOEXEC`, a stream
//! buffer, locks, an atfork registration; every API then creates a child
//! from an identical copy of that world. Parent and child are both read
//! through `Kernel::observe`, and one table says, per API, how the
//! child's observation follows from the parent's: what the child must and
//! must not have received, and that the parent and the rest of the world
//! are as they were. The table is the executable form of what each
//! API's sequence of kernel creation steps hands over (see the "what each
//! API inherits" table in `docs/ARCHITECTURE.md`).

use fpr_api::{
    clone, fork, fork_on_demand, posix_spawn, spawn_fast, vfork, CloneFlags, CloneResult,
    ProcessBuilder, SpawnAttrs, WarmPool,
};
use fpr_exec::{execve, randomize, Image, ImageCache, ImageRegistry};
use fpr_kernel::signal::ALL_SIGS;
use fpr_kernel::{
    AtforkRegistration, BufMode, Caps, Credentials, Disposition, HandlerId, Kernel, Observed,
    OpenFlags, Pid, Resource, Rlimit, RlimitSet, Sig, SpaceRef, Tid,
};
use std::collections::BTreeMap;

const TOOL: &str = "/bin/tool";
const CHILD_SEED: u64 = 0xC0FFEE;

struct World {
    k: Kernel,
    init: Pid,
    parent: Pid,
    reg: ImageRegistry,
    /// The parent's second thread, which holds a lock of its own.
    other: Tid,
}

/// The parent's credentials: root's, with distinctive group ids.
fn parent_cred() -> Credentials {
    Credentials {
        gid: 7,
        egid: 8,
        ..Credentials::root()
    }
}

/// The parent's limits: the defaults but for `RLIMIT_NOFILE`.
fn parent_rlimits() -> RlimitSet {
    let mut r = RlimitSet::default();
    r.set(Resource::Nofile, Rlimit::both(77));
    r
}

/// What the parent does on `sig`: every catchable signal caught or
/// ignored, none left at its default.
fn parent_disposition(sig: Sig) -> Disposition {
    match sig {
        Sig::Pipe | Sig::Chld | Sig::Usr2 => Disposition::Ignore,
        _ => Disposition::Handler(HandlerId(sig as u64 + 1)),
    }
}

/// The signals the parent blocks (`Sig::Term` is also pending).
const BLOCKED: [Sig; 4] = [Sig::Hup, Sig::Alrm, Sig::Term, Sig::Usr2];

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
    execve(&mut k, parent, &reg, "/bin/parent", 41).unwrap();
    k.setsid(parent).unwrap();
    {
        let work = k.vfs.resolve("/work", k.vfs.root()).unwrap();
        let p = k.process_mut(parent).unwrap();
        p.argv = vec!["parentprog".into(), "--flag".into()];
        p.envp = BTreeMap::from([("HOME".to_string(), "/home/op".to_string())]);
        p.umask = 0o077;
        p.cwd = work;
        p.cred = parent_cred();
        p.rlimits = parent_rlimits();
        p.atfork.register(AtforkRegistration {
            token: 9,
            lock: None,
        });
    }
    // Signals: every catchable one caught or ignored, a blocked subset,
    // one blocked signal pending; and an alarm on the way.
    for sig in ALL_SIGS.into_iter().filter(|s| !matches!(s, Sig::Kill | Sig::Stop)) {
        k.sigaction(parent, sig, parent_disposition(sig)).unwrap();
    }
    for sig in BLOCKED {
        k.sigprocmask(parent, sig, true).unwrap();
    }
    k.kill(parent, Sig::Term).unwrap();
    k.alarm(parent, Some(1_000)).unwrap();
    // Descriptors: fd 0 plain, fd 1 close-on-exec.
    let plain = k.open(parent, "/data", OpenFlags::RDWR, true).unwrap();
    let secret = k.open(parent, "/secret", OpenFlags::RDWR, true).unwrap();
    k.set_cloexec(parent, secret, true).unwrap();
    assert_eq!((plain.0, secret.0), (0, 1));
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
        other,
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

/// The child's observation as `row` says it follows from the parent's
/// (`p`, observed before the call), entry by entry. A fresh image's
/// mappings are its loader's, not the parent's: those entries are left
/// out here, and of the child's observation by the caller.
fn expected(row: &Row, w: &World, p: &Observed) -> Observed {
    let debug = |v: &dyn std::fmt::Debug| format!("{v:?}");
    let mut want: BTreeMap<String, String> = p
        .iter()
        .filter_map(|(path, value)| {
            let (field, sig) = path.split_once(' ').unwrap_or((path, ""));
            let value = match field {
                "alarm" | "thread" | "vma" => return None,
                "stream" | "lock" | "atfork" if !row.userspace => return None,
                "fd" if row.fds == Fds::None => return None,
                "fd" if row.fds == Fds::MinusCloexec && value.ends_with("cloexec true") => return None,
                // "disposition, blocked, pending": pending signals never cross.
                "sig" => {
                    let (action, rest) = value.split_once(", ").unwrap();
                    let reset = !row.signals || (!row.handlers && action.starts_with("Handler"));
                    let action = if reset { "Default" } else { action };
                    let granted = row.grants && sig == "Usr1";
                    let blocked = match row.signals {
                        true => rest.split_once(", ").unwrap().0,
                        false if granted => "blocked",
                        false => "unblocked",
                    };
                    format!("{action}, {blocked}, not pending")
                }
                // The other thread's lock is orphaned in place.
                "lock" => {
                    let orphaned = format!("held by {:?}, not a thread of this process", w.other);
                    value.replace("held by thread 1", &orphaned)
                }
                _ => value.to_string(),
            };
            Some((path.to_string(), value))
        })
        .collect();
    let mut set = |path: &str, value: String| want.insert(path.to_string(), value);
    set("ppid", debug(&w.parent));
    set("children", "[]".to_string());
    // Only the calling thread exists in the child, its holdings with it.
    let main = p.get("thread 0").unwrap();
    set("thread 0", if row.userspace { main.to_string() } else { "Runnable holding []".to_string() });
    let (name, mut argv) = match row.parent_image {
        true => ("parentprog", vec!["parentprog", "--flag"]),
        false => ("tool", vec![TOOL]),
    };
    let mut envp = BTreeMap::new();
    if row.envp {
        envp.insert("HOME", "/home/op");
    }
    let umask: u16 = if row.umask { 0o077 } else { 0o022 };
    let (mut cred, mut rlimits) = (parent_cred(), parent_rlimits());
    if row.grants {
        argv.push("--child");
        envp.insert("LANG", "C");
        cred.caps = cred.caps.drop(Caps::KILL);
        rlimits.set(Resource::Nproc, Rlimit::both(5));
    }
    set("name", debug(&name));
    set("argv", debug(&argv));
    set("envp", debug(&envp));
    set("umask", debug(&umask));
    set("cred", debug(&cred));
    set("rlimits", debug(&rlimits));
    match row.mem {
        Mem::Copied => {
            let vmas = p.iter().filter(|(path, _)| path.starts_with("vma "));
            want.extend(vmas.map(|(k, v)| (k.to_string(), v.to_string())));
        }
        Mem::Borrowed => {
            want.insert("space".to_string(), debug(&SpaceRef::BorrowedFrom(w.parent)));
        }
        // The parent's layout was drawn from another seed.
        Mem::Fresh => {
            want.insert("layout".to_string(), debug(&randomize(CHILD_SEED)));
        }
    }
    want.into_iter().collect()
}

/// The entries of `o` whose path `keep` accepts.
fn only(o: &Observed, keep: impl Fn(&str) -> bool) -> Observed {
    o.iter().filter(|(path, _)| keep(path)).map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

#[test]
fn every_api_hands_over_exactly_its_row() {
    let mut failures = Vec::new();
    for row in table() {
        let mut w = world();
        let before = w.k.observe();
        let p = before.process(w.parent);
        let child = (row.create)(&mut w);
        let after = w.k.observe();
        let api = row.api;
        let got = only(&after.process(child), |path| row.mem != Mem::Fresh || !path.starts_with("vma "));
        let child_diff = expected(&row, &w, &p).diff(&got);
        failures.extend(child_diff.into_iter().map(|d| format!("{api}: child: {d}")));

        // Creation must not have disturbed the parent's own state — but
        // for the child in its list, and its threads parked by a borrower
        // — nor anything else in the world.
        let parent: Observed = p
            .iter()
            .map(|(path, value)| match path {
                "children" => (path.to_string(), format!("{:?}", [child])),
                _ if row.parks_parent && path.starts_with("thread ") => {
                    (path.to_string(), value.replace("Runnable", "VforkParked"))
                }
                _ => (path.to_string(), value.to_string()),
            })
            .collect();
        let parent_diff = parent.diff(&after.process(w.parent));
        failures.extend(parent_diff.into_iter().map(|d| format!("{api}: parent: {d}")));
        let theirs = |path: &str| [w.parent, child].iter().any(|pid| path.starts_with(&format!("pid {}/", pid.0)));
        let rest = only(&before, |path| !theirs(path)).diff(&only(&after, |path| !theirs(path)));
        failures.extend(rest.into_iter().map(|d| format!("{api}: world: {d}")));
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
/// identical worlds the two observe equal, down to PIDs and the parent
/// they leave behind.
#[test]
fn vfork_is_clone_vm_vfork_files() {
    let mut a = world();
    let mut b = world();
    let va = vfork(&mut a.k, a.parent).unwrap();
    let vb = clone_process(&mut b, VM_VFORK_FILES);
    assert_eq!(va, vb);
    assert_eq!(a.k.observe().diff(&b.k.observe()), Vec::<String>::new());
}

/// A pool hit, a pool miss and a classic spawn differ in cycles only:
/// the three worlds observe equal.
#[test]
fn pool_hit_is_pool_miss_is_classic_spawn() {
    let (mut classic, mut hit, mut miss) = (world(), world(), world());
    let pc = classic_spawn(&mut classic);
    let ph = fast_spawn(&mut hit, 1);
    let pm = fast_spawn(&mut miss, 0);
    assert_eq!((ph, pm), (pc, pc));
    let want = classic.k.observe();
    assert_eq!(want.diff(&hit.k.observe()), Vec::<String>::new(), "pool hit vs classic");
    assert_eq!(want.diff(&miss.k.observe()), Vec::<String>::new(), "pool miss vs classic");
}
