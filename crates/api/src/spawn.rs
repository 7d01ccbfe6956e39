//! `posix_spawn(3)`: create-and-exec without the copy.
//!
//! The child is built directly: a fresh process, the parent's descriptors
//! (minus close-on-exec), a fixed-vocabulary list of *file actions*
//! (open/dup2/close) and *attributes* (signal defaults, mask, and — as
//! glibc extensions grew — a handful more), then the image load. Total
//! cost is O(image + actions), independent of the parent — the flat line
//! in Figure 1.
//!
//! The price is the **closed world**: anything not in the action/attr
//! vocabulary simply cannot be expressed (the paper's complaint about
//! spawn-style APIs, quantified by experiment E7).

use fpr_exec::{ImageCache, ImageRegistry};
use fpr_kernel::{Errno, Fd, Inherit, KResult, Kernel, OpenFlags, Pid, Sig};

/// A `posix_spawn_file_actions_t` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileAction {
    /// Open `path` in the child at descriptor `fd`.
    Open {
        /// Target descriptor.
        fd: Fd,
        /// Path to open.
        path: String,
        /// Open flags.
        flags: OpenFlags,
        /// Create if missing.
        create: bool,
    },
    /// `dup2(from, to)` in the child.
    Dup2 {
        /// Source descriptor.
        from: Fd,
        /// Target descriptor.
        to: Fd,
    },
    /// Close `fd` in the child.
    Close {
        /// Descriptor to close.
        fd: Fd,
    },
    /// Change the child's working directory
    /// (`posix_spawn_file_actions_addchdir`, POSIX.1-2024 — added to the
    /// closed world 20 years after the original API shipped, which is
    /// the paper's point about spawn vocabularies).
    Chdir {
        /// Directory path.
        path: String,
    },
}

/// `posix_spawnattr_t` plus the argv/envp parameters of the call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpawnAttrs {
    /// `POSIX_SPAWN_SETSIGDEF`: signals reset to default in the child.
    pub sigdefault: Vec<Sig>,
    /// `POSIX_SPAWN_SETSIGMASK`: explicit blocked set (signal, blocked).
    pub sigmask: Vec<(Sig, bool)>,
    /// Reset effective IDs to real IDs (`POSIX_SPAWN_RESETIDS`).
    pub resetids: bool,
    /// Program arguments (defaults to `[path]` when empty).
    pub argv: Vec<String>,
    /// Replacement environment (`None` = inherit the parent's).
    pub env: Option<std::collections::BTreeMap<String, String>>,
    /// Start the child in a new session (`POSIX_SPAWN_SETSID`).
    pub setsid: bool,
}

/// Spawns `path` as a child of `parent`.
///
/// Runs the canonical sequence: create process → inherit descriptors →
/// apply file actions → apply attributes → exec the image. Any failure
/// tears the half-built child down and reports the error in the parent —
/// the error-reporting cleanliness fork+exec lacks.
///
/// `aslr_seed` draws the child's layout. With `Some(cache)`, the exec
/// [`ImageCache`] is threaded through to the loader, so repeat execs of the
/// same binary skip their startup faults and file reads; `None` is the
/// plain spawn.
// Mirrors the C `posix_spawn` signature (pid, path, actions, attrs, argv,
// envp) plus the simulator's kernel, layout seed and cache.
#[allow(clippy::too_many_arguments)]
pub fn posix_spawn(
    kernel: &mut Kernel,
    parent: Pid,
    registry: &ImageRegistry,
    path: &str,
    actions: &[FileAction],
    attrs: &SpawnAttrs,
    aslr_seed: u64,
    cache: Option<&mut ImageCache>,
) -> KResult<Pid> {
    kernel.span_with(
        "spawn",
        "api",
        |ev| ev.arg("parent", parent.0 as u64).arg("path", path.to_string()),
        |kernel| {
            kernel.charge_syscall();
            // A failure anywhere below rolls the partial child back — PID,
            // descriptors, any loaded image pages, files the actions
            // created — so the parent sees a clean error and the kernel
            // is exactly as it was.
            let (child, ()) = kernel.create_process(parent, |k, child, created| {
                // Descriptors: inherited as fork would leave them...
                k.inherit(parent, child, Inherit::Spawn)?;
                // ...then the file actions run *in the child's context*.
                apply_file_actions(k, child, actions, created)?;
                apply_attrs(k, child, attrs)?;

                // The image load (includes the close-on-exec sweep and
                // handler reset).
                if registry.resolve(path).is_none() {
                    return Err(Errno::Enoexec);
                }
                let argv = if attrs.argv.is_empty() {
                    vec![path.to_string()]
                } else {
                    attrs.argv.clone()
                };
                let env = match &attrs.env {
                    Some(map) => fpr_exec::Env::Replace(map.clone()),
                    None => fpr_exec::Env::Keep,
                };
                fpr_exec::execve_args(k, child, registry, path, argv, env, aslr_seed, cache)
            })?;
            Ok(child)
        },
    )
}

/// Opens `path` in `child` at exactly descriptor `fd` — what a spawn
/// `Open` file action and a cross-process `Open` grant both mean —
/// recording the file in `created` when this call brought it into
/// existence, so a failing creation can unlink it.
pub(crate) fn open_at(
    kernel: &mut Kernel,
    child: Pid,
    fd: Fd,
    path: &str,
    flags: OpenFlags,
    create: bool,
    created: &mut Vec<(String, fpr_kernel::vfs::Ino)>,
) -> KResult<()> {
    let cwd = kernel.process(child)?.cwd;
    let preexists = kernel.vfs.resolve(path, cwd).is_ok();
    let opened = kernel.open(child, path, flags, create)?;
    if create && !preexists {
        created.push((path.to_string(), cwd));
    }
    if opened != fd {
        kernel.dup2(child, opened, fd)?;
        kernel.close(child, opened)?;
    }
    Ok(())
}

/// Runs the spawn file actions in `child`'s context, recording any files
/// they create in `created` so a failing spawn can unlink them. Each
/// action crosses [`fpr_faults::FaultSite::SpawnFileAction`]. Shared
/// between the classic build path and the warm-pool checkout.
pub(crate) fn apply_file_actions(
    kernel: &mut Kernel,
    child: Pid,
    actions: &[FileAction],
    created: &mut Vec<(String, fpr_kernel::vfs::Ino)>,
) -> KResult<()> {
    for a in actions {
        fpr_faults::cross(fpr_faults::FaultSite::SpawnFileAction).map_err(|_| Errno::Enomem)?;
        match a {
            FileAction::Open {
                fd,
                path,
                flags,
                create,
            } => open_at(kernel, child, *fd, path, *flags, *create, created)?,
            FileAction::Dup2 { from, to } => {
                kernel.dup2(child, *from, *to)?;
            }
            FileAction::Close { fd } => {
                kernel.close(child, *fd)?;
            }
            FileAction::Chdir { path } => {
                let cwd = kernel.process(child)?.cwd;
                let ino = kernel.vfs.resolve(path, cwd)?;
                kernel.process_mut(child)?.cwd = ino;
            }
        }
    }
    Ok(())
}

/// Applies the spawn attributes to `child`. Shared between the classic
/// build path and the warm-pool checkout.
pub(crate) fn apply_attrs(kernel: &mut Kernel, child: Pid, attrs: &SpawnAttrs) -> KResult<()> {
    for sig in &attrs.sigdefault {
        kernel.sigaction(child, *sig, fpr_kernel::Disposition::Default)?;
    }
    for (sig, blocked) in &attrs.sigmask {
        kernel.sigprocmask(child, *sig, *blocked)?;
    }
    if attrs.resetids {
        let c = kernel.process_mut(child)?;
        c.cred.euid = c.cred.uid;
        c.cred.egid = c.cred.gid;
    }
    if attrs.setsid {
        kernel.setsid(child)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_exec::Image;
    use fpr_kernel::{Disposition, HandlerId, ReadResult, STDOUT};
    use fpr_mem::{Prot, Share};

    fn world() -> (Kernel, Pid, ImageRegistry) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        (k, init, reg)
    }

    #[test]
    fn spawn_creates_running_child_with_image() {
        let (mut k, p, reg) = world();
        let c = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            3,
            None,
        )
        .unwrap();
        let cp = k.process(c).unwrap();
        assert_eq!(cp.name, "tool");
        assert_eq!(cp.ppid, p);
        assert!(cp.resident_pages() > 0);
        assert_eq!(cp.fds.open_count(), 3, "stdio inherited");
    }

    #[test]
    fn spawn_cost_independent_of_parent_size() {
        let (mut k, p, reg) = world();
        let c0 = k.cycles.total();
        let c = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            1,
            None,
        )
        .unwrap();
        let small = k.cycles.total() - c0;
        k.exit(c, 0).unwrap();
        k.waitpid(p, Some(c)).unwrap();

        let base = k.mmap_anon(p, 8192, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 8192).unwrap();
        let c1 = k.cycles.total();
        posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            1,
            None,
        )
        .unwrap();
        let big = k.cycles.total() - c1;
        assert_eq!(small, big, "posix_spawn is flat in parent size");
    }

    #[test]
    fn file_actions_redirect_stdout() {
        let (mut k, p, reg) = world();
        let actions = vec![FileAction::Open {
            fd: STDOUT,
            path: "/out.txt".into(),
            flags: OpenFlags::WRONLY,
            create: true,
        }];
        let c = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            1,
            None,
        )
        .unwrap();
        k.write_fd(c, STDOUT, b"to file").unwrap();
        let ino = k.vfs.resolve("/out.txt", k.vfs.root()).unwrap();
        assert_eq!(k.vfs.read_at(ino, 0, 16).unwrap(), b"to file");
        assert!(k.console.is_empty(), "parent's console untouched");
    }

    #[test]
    fn pipe_plumbing_via_dup2_and_close() {
        let (mut k, p, reg) = world();
        let (r, w) = k.pipe(p).unwrap();
        let actions = vec![
            FileAction::Dup2 {
                from: w,
                to: STDOUT,
            },
            FileAction::Close { fd: w },
            FileAction::Close { fd: r },
        ];
        let c = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            1,
            None,
        )
        .unwrap();
        k.write_fd(c, STDOUT, b"piped").unwrap();
        assert_eq!(
            k.read_fd(p, r, 16).unwrap(),
            ReadResult::Data(b"piped".to_vec())
        );
    }

    #[test]
    fn attrs_apply_sigmask_and_defaults() {
        let (mut k, p, reg) = world();
        k.sigaction(p, Sig::Hup, Disposition::Ignore).unwrap();
        k.sigprocmask(p, Sig::Usr1, true).unwrap();
        let attrs = SpawnAttrs {
            sigdefault: vec![Sig::Hup],
            sigmask: vec![(Sig::Usr1, false), (Sig::Usr2, true)],
            ..SpawnAttrs::default()
        };
        let c = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &[],
            &attrs,
            1,
            None,
        )
        .unwrap();
        let s = &k.process(c).unwrap().signals;
        assert_eq!(
            s.disposition(Sig::Hup),
            Disposition::Default,
            "SETSIGDEF overrode Ignore"
        );
        assert!(!s.is_blocked(Sig::Usr1));
        assert!(s.is_blocked(Sig::Usr2));
    }

    #[test]
    fn handlers_never_leak_into_spawned_child() {
        let (mut k, p, reg) = world();
        k.sigaction(p, Sig::Int, Disposition::Handler(HandlerId(9)))
            .unwrap();
        let c = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            1,
            None,
        )
        .unwrap();
        assert_eq!(
            k.process(c).unwrap().signals.disposition(Sig::Int),
            Disposition::Default
        );
    }

    #[test]
    fn failed_spawn_reports_in_parent_and_leaves_no_child() {
        let (mut k, p, reg) = world();
        let before = k.process_count();
        let err = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/ghost",
            &[],
            &SpawnAttrs::default(),
            1,
            None,
        );
        assert_eq!(err, Err(Errno::Enoexec));
        assert_eq!(k.process_count(), before, "no zombie left behind");
        // A bad file action likewise fails cleanly.
        let actions = vec![FileAction::Close { fd: Fd(42) }];
        let err2 = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            1,
            None,
        );
        assert_eq!(err2, Err(Errno::Ebadf));
        assert_eq!(k.process_count(), before);
    }

    #[test]
    fn spawned_children_get_fresh_aslr() {
        let (mut k, p, reg) = world();
        let a = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            101,
            None,
        )
        .unwrap();
        let b = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            102,
            None,
        )
        .unwrap();
        assert_ne!(k.process(a).unwrap().layout, k.process(b).unwrap().layout);
    }
}

#[cfg(test)]
mod ext_tests {
    use super::*;
    use fpr_exec::Image;

    fn world() -> (Kernel, Pid, ImageRegistry) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        (k, init, reg)
    }

    #[test]
    fn chdir_action_changes_child_cwd() {
        let (mut k, p, reg) = world();
        k.vfs.mkdir("/work", k.vfs.root()).unwrap();
        let actions = vec![FileAction::Chdir {
            path: "/work".into(),
        }];
        let c = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            1,
            None,
        )
        .unwrap();
        let work = k.vfs.resolve("/work", k.vfs.root()).unwrap();
        assert_eq!(k.process(c).unwrap().cwd, work);
        assert_eq!(
            k.process(p).unwrap().cwd,
            k.vfs.root(),
            "parent cwd untouched"
        );
        // Relative opens in the child resolve under /work.
        let fd = k.open(c, "notes", OpenFlags::RDWR, true).unwrap();
        assert!(k.vfs.resolve("/work/notes", k.vfs.root()).is_ok());
        let _ = fd;
    }

    #[test]
    fn chdir_to_missing_dir_fails_clean() {
        let (mut k, p, reg) = world();
        let before = k.process_count();
        let actions = vec![FileAction::Chdir {
            path: "/nope".into(),
        }];
        let r = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            1,
            None,
        );
        assert_eq!(r, Err(Errno::Enoent));
        assert_eq!(k.process_count(), before);
    }

    #[test]
    fn setsid_attr_detaches_session() {
        let (mut k, p, reg) = world();
        let attrs = SpawnAttrs {
            setsid: true,
            ..SpawnAttrs::default()
        };
        let c = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &[],
            &attrs,
            1,
            None,
        )
        .unwrap();
        let cp = k.process(c).unwrap();
        assert_eq!(cp.sid, fpr_kernel::Sid(c.0), "child leads its own session");
        assert_eq!(cp.pgid, fpr_kernel::Pgid(c.0));
        let pp = k.process(p).unwrap();
        assert_ne!(pp.sid, cp.sid);
    }

    #[test]
    fn without_setsid_child_shares_parents_group() {
        let (mut k, p, reg) = world();
        let c = posix_spawn(
            &mut k,
            p,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            1,
            None,
        )
        .unwrap();
        assert_eq!(k.getpgid(c).unwrap(), k.getpgid(p).unwrap());
    }
}
