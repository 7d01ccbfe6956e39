//! E7: what each creation API can give its child, measured.
//!
//! For each of 14 capabilities and each of the five APIs, a witness tries
//! to give a child the capability two ways:
//!
//! * **implicitly** — the API's default request, then, where the API
//!   leaves a window between creating the child and its exec (fork,
//!   vfork, clone), the calls a program makes on its child there;
//! * **explicitly** — a request in the API's own vocabulary
//!   (`CloneFlags`; `FileAction` and `SpawnAttrs`; `ProcessBuilder`).
//!   fork and vfork take no arguments, so they have none.
//!
//! A cell reads `implicit` if the first try gives the child the
//! capability, else `explicit` if the second does, else `-`. Most
//! witnesses read parent and child through `Kernel::observe` on a `kit`
//! world. Four reuse another experiment's measurement: "thread safe" is
//! E5's trial (a worker holds a lock; creation must not be refused and the
//! child must take every lock of the memory it runs in — a borrower runs
//! in its parent's, where the worker is parked holding it), "stdio
//! composes" is E6's console count (every buffered byte written exactly
//! once — a borrower's exit flushes the parent's buffers through its own
//! descriptors, a copy of the parent's table),
//! "fresh ASLR" is E8's shared
//! layout bits, and "flat cost" holds creation from a 4 096-page parent to
//! under twice its cycles from a 64-page one. "clean errors" asks for a
//! program that is gone: the parent must get the error and the world must
//! observe as it did before the call.

use crate::experiments::{stdio, threads};
use crate::kit::{machine_for, world};
use crate::os::Os;
use fpr_api::{clone, CloneFlags, CloneResult, FdSource, FileAction, MemOp, ProcessBuilder, SpawnAttrs};
use fpr_exec::ImageRegistry;
use fpr_kernel::{Disposition, Errno, Fd, FileObject, KResult, OpenFlags, Pid, Resource, Rlimit, Sig};
use fpr_mem::{Prot, Share};
use fpr_trace::{ProcessShape, TableData};

/// The program every default request runs (the parent's own).
const BIN: &str = "/bin/tool";
/// The program "new image" asks for.
const OTHER: &str = "/bin/cat";
/// The value "memory setup" puts in the child's memory.
const MAGIC: u64 = 0x5E70B;
/// The file "stdio redirect" sends the child's fd 1 to.
const REDIRECT: &str = "/redirect";

/// The five APIs, in table order.
const APIS: [&str; 5] = ["fork", "vfork", "clone", "posix_spawn", "xproc"];

/// A request in an API's vocabulary; the default asks for nothing.
#[derive(Default)]
struct Ask {
    bin: Option<&'static str>,
    flags: CloneFlags,
    actions: Vec<FileAction>,
    attrs: SpawnAttrs,
    build: Option<Build>,
}

/// The builder calls an xproc request makes.
type Build = fn(ProcessBuilder) -> ProcessBuilder;

/// Creates a child of `parent` with `api`, as `ask` says.
fn create(api: &str, os: &mut Os, parent: Pid, ask: &Ask) -> KResult<Pid> {
    let bin = ask.bin.unwrap_or(BIN);
    match api {
        "fork" => os.fork(parent),
        "vfork" => os.vfork(parent),
        "clone" => match clone(&mut os.kernel, parent, ask.flags)? {
            CloneResult::Process(child) => Ok(child),
            CloneResult::Thread(_) => Err(Errno::Einval),
        },
        "posix_spawn" => os.spawn(parent, bin, &ask.actions, &ask.attrs),
        "xproc" => os.spawn_builder(parent, ask.build.unwrap_or(|b| b)(ProcessBuilder::new(bin))).map(|s| s.pid),
        other => unreachable!("{other} is not in APIS"),
    }
}

/// Makes a child of the parent it is given, by one try of one API.
type Make<'a> = dyn Fn(&mut Os, Pid) -> KResult<Pid> + 'a;

/// One capability: its row, the calls a program makes on its child in the
/// window, the request asking for it per API (`None`: no word for it), and
/// whether a try gives the child the capability.
struct Cap(&'static str, fn(&mut Os, Pid) -> KResult<()>, fn(&str) -> Option<Ask>, fn(&Make) -> bool);

/// A spawn request with `actions` and `attrs`, or an xproc one by `build`.
fn spawned(api: &str, actions: Vec<FileAction>, attrs: SpawnAttrs, build: Option<Build>) -> Option<Ask> {
    match api {
        "posix_spawn" if (actions.len(), &attrs) != (0, &SpawnAttrs::default()) => {
            Some(Ask { actions, attrs, ..Ask::default() })
        }
        "xproc" => build.map(|build| Ask { build: Some(build), ..Ask::default() }),
        _ => None,
    }
}

/// The clone that is vfork: it borrows its parent's space, copies its
/// descriptors and parks it (`CLONE_VM | CLONE_VFORK`).
fn borrowing_clone(api: &str) -> Option<Ask> {
    let flags = CloneFlags { vm: true, vfork: true, ..CloneFlags::default() };
    (api == "clone").then(|| Ask { flags, ..Ask::default() })
}

/// A [`parent_world`] parent and a child `make` gives it: `has(os, parent, child)`.
fn child(make: &Make, has: fn(&Os, Pid, Pid) -> bool) -> bool {
    let (mut os, parent) = parent_world();
    make(&mut os, parent).is_ok_and(|c| has(&os, parent, c))
}

/// `pid`'s observed entries whose path starts with `field`.
fn seen(os: &Os, pid: Pid, field: &str) -> Vec<(String, String)> {
    let o = os.kernel.observe().process(pid);
    o.iter().filter(|(k, _)| k.starts_with(field)).map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

fn reads(os: &Os, pid: Pid, path: &str, want: &str) -> bool {
    os.kernel.observe().process(pid).get(path) == Some(want)
}

fn caps() -> [Cap; 14] {
    [
        Cap("new image", |os, c| os.exec(c, OTHER), |api| {
            (api == "posix_spawn" || api == "xproc").then(|| Ask { bin: Some(OTHER), ..Ask::default() })
        }, |m| child(m, |os, _, c| reads(os, c, "name", "\"cat\""))),
        Cap("memory snapshot", |_, _| Ok(()), |_| None,
            |m| child(m, |os, p, c| reads(os, c, "space", "Owned") && seen(os, c, "vma ") == seen(os, p, "vma "))),
        Cap("fd selection", |os, c| {
            let fds: Vec<Fd> = os.kernel.process(c)?.fds.iter().map(|(fd, _)| fd).collect();
            fds.into_iter().filter(|fd| fd.0 != 1).try_for_each(|fd| os.kernel.close(c, fd))
        }, |api| {
            let closes = vec![FileAction::Close { fd: Fd(0) }, FileAction::Close { fd: Fd(2) }];
            spawned(api, closes, SpawnAttrs::default(), Some(|b| b.fd(Fd(1), FdSource::Inherit(Fd(1)))))
        }, |m| child(m, |os, p, c| seen(os, c, "fd ") == seen(os, p, "fd 1"))),
        Cap("stdio redirect", |os, c| {
            let fd = os.kernel.open(c, REDIRECT, OpenFlags::WRONLY, true)?;
            os.kernel.dup2(c, fd, Fd(1))?;
            os.kernel.close(c, fd)
        }, |api| {
            let open = FileAction::Open { fd: Fd(1), path: REDIRECT.into(), flags: OpenFlags::WRONLY, create: true };
            spawned(api, vec![open], SpawnAttrs::default(), Some(|b| {
                b.fd(Fd(1), FdSource::Open { path: REDIRECT.into(), flags: OpenFlags::WRONLY, create: true })
            }))
        }, |m| child(m, |os, _, c| {
            let file = os.kernel.vfs.resolve(REDIRECT, os.kernel.vfs.root()).map(FileObject::Vnode);
            file.is_ok_and(|f| seen(os, c, "fd 1").iter().any(|(_, v)| v.contains(&format!("{f:?}"))))
        })),
        Cap("signal mask", |os, c| os.kernel.sigprocmask(c, Sig::Usr2, true), |api| {
            let attrs = SpawnAttrs { sigmask: vec![(Sig::Usr2, true)], ..SpawnAttrs::default() };
            spawned(api, vec![], attrs, Some(|b| b.sigmask(Sig::Usr2, true)))
        }, |m| child(m, |os, _, c| reads(os, c, "sig Usr2", "Default, blocked, not pending"))),
        Cap("signal defaults", |os, c| os.kernel.sigaction(c, Sig::Pipe, Disposition::Default), |api| {
            spawned(api, vec![], SpawnAttrs { sigdefault: vec![Sig::Pipe], ..SpawnAttrs::default() }, None)
        }, |m| child(m, |os, _, c| reads(os, c, "sig Pipe", "Default, unblocked, not pending"))),
        Cap("reduced privilege", |os, c| os.kernel.set_process_uid(c, 1000), |api| {
            spawned(api, vec![], SpawnAttrs { resetids: true, ..SpawnAttrs::default() }, Some(|b| b.uid(1000)))
        }, |m| child(m, |os, p, c| seen(os, c, "cred") != seen(os, p, "cred"))),
        // The kernel models `setrlimit` as the write to the PCB it is.
        Cap("rlimit control", |os, c| os.kernel.process_mut(c).map(|p| p.rlimits.set(Resource::Nofile, Rlimit::both(64))),
            |api| spawned(api, vec![], SpawnAttrs::default(), Some(|b| b.rlimit(Resource::Nofile, Rlimit::both(64)))),
            |m| child(m, |os, p, c| seen(os, c, "rlimits") != seen(os, p, "rlimits"))),
        Cap("memory setup", |os, c| {
            let base = os.kernel.mmap_anon(c, 1, Prot::RW, Share::Private)?;
            os.kernel.write_mem(c, base, MAGIC).map(|_| ())
        }, |api| spawned(api, vec![], SpawnAttrs::default(), Some(|b| {
            b.mem(MemOp::MapAnon { tag: 1, pages: 1, prot: Prot::RW }).mem(MemOp::Write { tag: 1, offset: 0, value: MAGIC })
        })), |m| child(m, |os, _, c| {
            // A borrower's memory is its lender's.
            let (k, space) = (&os.kernel, &os.kernel.memory(c).expect("alive").aspace);
            space.vmas().any(|v| space.observe(v.start, &k.phys) == Ok(MAGIC))
        })),
        Cap("fresh ASLR", |_, _| Ok(()), |_| None,
            |m| child(m, |os, p, c| fpr_audit::zygote_entropy(&os.kernel, &[p, c]).is_ok_and(|r| r.identical_pairs == 0))),
        Cap("thread safe", |_, _| Ok(()), borrowing_clone, |m| threads::trial(&[true], false, m) == Ok(false)),
        Cap("stdio composes", |_, _| Ok(()), borrowing_clone, |m| stdio::console_bytes(64, m) == 64),
        Cap("flat cost", |_, _| Ok(()), borrowing_clone, |m| {
            let cost = |pages| {
                let (mut os, parent) = world(machine_for(pages), ProcessShape::with_heap(pages));
                let (made, cycles) = os.measure(|os| m(os, parent));
                made.map(|_| cycles)
            };
            matches!((cost(64), cost(4_096)), (Ok(small), Ok(big)) if big < 2 * small)
        }),
        // The program is gone by the time the request runs.
        Cap("clean errors", |os, c| os.exec(c, BIN), |_| None, |m| {
            let (mut os, parent) = parent_world();
            os.images = ImageRegistry::new();
            let before = os.kernel.observe();
            m(&mut os, parent).is_err() && before.diff(&os.kernel.observe()).is_empty()
        }),
    ]
}

/// A `kit` world whose parent has what the witnesses look for: three
/// descriptors, an ignored signal and a written page.
fn parent_world() -> (Os, Pid) {
    let (mut os, parent) = world(machine_for(64), ProcessShape { extra_fds: 3, ..ProcessShape::with_heap(64) });
    let heap = os.first_mmap_base(parent).expect("a heap");
    os.kernel.sigaction(parent, Sig::Pipe, Disposition::Ignore).expect("sigaction");
    os.kernel.write_mem(parent, heap, 7).expect("write");
    (os, parent)
}

/// Whether `cap` holds for a child `api` makes: explicitly with `ask`,
/// or implicitly (`ask` = `None`) by the default request and the window.
fn holds(Cap(_, window, _, has): &Cap, api: &str, ask: Option<Ask>) -> bool {
    let in_window = ask.is_none() && matches!(api, "fork" | "vfork" | "clone");
    let ask = ask.unwrap_or_default();
    has(&|os: &mut Os, parent| {
        let child = create(api, os, parent, &ask)?;
        // A call that fails in the child fails there, not in the parent.
        let _ = in_window.then(|| window(os, child));
        Ok(child)
    })
}

/// Runs every witness and formats the table: one row per (capability,
/// API) cell, with both tries (`-` where the vocabulary has no word) and
/// the support they measure.
pub fn run() -> TableData {
    let mut t = TableData::new(
        "tab_api_matrix",
        "what each creation API gives its child: implicitly (default request + window) or explicitly",
        &["capability", "api", "implicit", "explicit", "support"],
    );
    let yes = |b: bool| if b { "yes" } else { "no" }.to_string();
    for cap in caps() {
        for api in APIS {
            let implicit = holds(&cap, api, None);
            let explicit = (cap.2)(api).map(|ask| holds(&cap, api, Some(ask)));
            let support = match (implicit, explicit) {
                (true, _) => "implicit",
                (false, Some(true)) => "explicit",
                _ => "-",
            };
            let row = [cap.0, api, &yes(implicit), &explicit.map_or("-".to_string(), yes), support];
            t.push_row(row.map(str::to_string).to_vec());
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A witness every try passed would measure nothing: each capability
    /// fails some try of some API.
    #[test]
    fn every_witness_can_fail() {
        let t = run();
        assert_eq!(t.rows.len(), 70);
        for Cap(name, ..) in caps() {
            let fails = |r: &&Vec<String>| r[0] == name && (r[2] == "no" || r[3] == "no");
            assert!(t.rows.iter().any(|r| fails(&r)), "{name} held for every try");
        }
    }
}
