//! The cross-process API the paper advocates.
//!
//! Instead of cloning the parent (fork) or passing a closed list of
//! actions (posix_spawn), the parent constructs the child *explicitly*:
//! create an empty process, install exactly the descriptors it should
//! have (a grant of one of the parent's is [`Kernel::dup_to`], `dup2`'s
//! work across two processes), map and even write its memory from
//! outside, adjust credentials and limits, then start it. Nothing is
//! inherited by default — the secure-by-default inversion — and the
//! vocabulary is open because every kernel operation can target the
//! child. This mirrors the designs the paper points to (Exokernel-style
//! cross-process calls, Drawbridge picoprocesses, Windows `CreateProcess`
//! attribute lists, Zircon).

use crate::spawn::open_at;
use fpr_exec::ImageRegistry;
use fpr_kernel::{Caps, Errno, Fd, KResult, Kernel, OpenFlags, Pid, Resource, Rlimit, Sig};
use fpr_mem::{Prot, Share, Vpn};
use fpr_trace::sink;

/// Where a child descriptor comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdSource {
    /// Duplicate the parent's descriptor (explicit grant).
    Inherit(Fd),
    /// Open a path fresh in the child.
    Open {
        /// Path to open.
        path: String,
        /// Open flags.
        flags: OpenFlags,
        /// Create if missing.
        create: bool,
    },
}

/// A cross-process memory setup operation, applied before the child runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemOp {
    /// Map anonymous pages at the mmap arena and remember the base under
    /// `tag` for later `Write`s.
    MapAnon {
        /// Caller-chosen tag naming the region.
        tag: u32,
        /// Pages to map.
        pages: u64,
        /// Protection.
        prot: Prot,
    },
    /// Write a value into a previously mapped region (page `offset`).
    Write {
        /// Region tag from [`MemOp::MapAnon`].
        tag: u32,
        /// Page offset within the region.
        offset: u64,
        /// Value to store.
        value: u64,
    },
}

/// Builder for a child process (the paper's recommended replacement).
#[derive(Debug, Clone)]
pub struct ProcessBuilder {
    image_path: String,
    fds: Vec<(Fd, FdSource)>,
    mem_ops: Vec<MemOp>,
    drop_caps: Caps,
    set_uid: Option<u32>,
    rlimits: Vec<(Resource, Rlimit)>,
    sigmask: Vec<(Sig, bool)>,
    argv: Vec<String>,
    env: std::collections::BTreeMap<String, String>,
    aslr_seed: u64,
}

/// A started child plus the tag → base-page map of its pre-built regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spawned {
    /// The child's PID.
    pub pid: Pid,
    /// Base page of each tagged region created by [`MemOp::MapAnon`].
    pub regions: Vec<(u32, Vpn)>,
}

impl ProcessBuilder {
    /// Starts a builder for the image at `path`.
    pub fn new(path: &str) -> ProcessBuilder {
        ProcessBuilder {
            image_path: path.to_string(),
            fds: Vec::new(),
            mem_ops: Vec::new(),
            drop_caps: Caps::none(),
            set_uid: None,
            rlimits: Vec::new(),
            sigmask: Vec::new(),
            argv: Vec::new(),
            env: std::collections::BTreeMap::new(),
            aslr_seed: 0,
        }
    }

    /// Appends a program argument.
    pub fn arg(mut self, a: &str) -> Self {
        self.argv.push(a.to_string());
        self
    }

    /// Sets an environment variable in the child (the child's environment
    /// starts empty — inherit-nothing applies to env too).
    pub fn env(mut self, key: &str, value: &str) -> Self {
        self.env.insert(key.to_string(), value.to_string());
        self
    }

    /// Installs a descriptor in the child. **Nothing is inherited unless
    /// granted here.**
    pub fn fd(mut self, child_fd: Fd, source: FdSource) -> Self {
        self.fds.push((child_fd, source));
        self
    }

    /// Queues a cross-process memory operation.
    pub fn mem(mut self, op: MemOp) -> Self {
        self.mem_ops.push(op);
        self
    }

    /// Drops capabilities in the child relative to the parent.
    pub fn drop_caps(mut self, caps: Caps) -> Self {
        self.drop_caps = caps;
        self
    }

    /// Runs the child as a different uid (privilege separation).
    pub fn uid(mut self, uid: u32) -> Self {
        self.set_uid = Some(uid);
        self
    }

    /// Overrides a resource limit in the child.
    pub fn rlimit(mut self, r: Resource, lim: Rlimit) -> Self {
        self.rlimits.push((r, lim));
        self
    }

    /// Sets the child's signal mask entries.
    pub fn sigmask(mut self, sig: Sig, blocked: bool) -> Self {
        self.sigmask.push((sig, blocked));
        self
    }

    /// Sets the seed the child's randomised layout is drawn from.
    pub fn aslr_seed(mut self, seed: u64) -> Self {
        self.aslr_seed = seed;
        self
    }

    /// Builds and starts the child. Cost is O(image + explicit grants).
    pub fn spawn(
        self,
        kernel: &mut Kernel,
        parent: Pid,
        registry: &ImageRegistry,
    ) -> KResult<Spawned> {
        kernel.span_with(
            "xproc_spawn",
            "api",
            |ev| {
                ev.arg("parent", parent.0 as u64)
                    .arg("path", self.image_path.clone())
                    .arg("fd_grants", self.fds.len() as u64)
                    .arg("mem_ops", self.mem_ops.len() as u64)
            },
            |kernel| {
                kernel.charge_syscall();
                if registry.resolve(&self.image_path).is_none() {
                    return Err(Errno::Enoexec);
                }
                // A failing step rolls the half-built child back — image
                // pages, granted descriptors, uid accounting, files the
                // grants created — restoring the pre-call kernel.
                let (pid, regions) = kernel.create_process(parent, |k, child, created| {
                    self.build(k, parent, child, registry, created)
                })?;
                Ok(Spawned { pid, regions })
            },
        )
    }

    fn build(
        &self,
        kernel: &mut Kernel,
        parent: Pid,
        child: Pid,
        registry: &ImageRegistry,
        created: &mut Vec<(String, fpr_kernel::vfs::Ino)>,
    ) -> KResult<Vec<(u32, Vpn)>> {
        // 1. The image first: the child's layout is fresh, never the
        //    parent's. argv defaults to [path]; env is exactly the grants.
        let argv = if self.argv.is_empty() {
            vec![self.image_path.clone()]
        } else {
            self.argv.clone()
        };
        fpr_exec::execve_args(
            kernel,
            child,
            registry,
            &self.image_path,
            argv,
            fpr_exec::Env::Replace(self.env.clone()),
            self.aslr_seed,
            None,
        )?;

        // 2. Descriptors: exactly the grants, nothing else. (The child
        //    was allocated with an empty table and exec carried it over.)
        for (child_fd, source) in &self.fds {
            fpr_faults::cross(fpr_faults::FaultSite::XprocStep).map_err(|_| Errno::Enomem)?;
            match source {
                FdSource::Inherit(pfd) => kernel.dup_to(parent, *pfd, child, *child_fd)?,
                FdSource::Open {
                    path,
                    flags,
                    create,
                } => open_at(kernel, child, *child_fd, path, *flags, *create, created)?,
            }
            sink::instant("xproc_fd_install", "api", kernel.cycles.total());
        }

        // 3. Cross-process memory: map and pre-write regions in the child.
        let mut regions: Vec<(u32, Vpn)> = Vec::new();
        for op in &self.mem_ops {
            fpr_faults::cross(fpr_faults::FaultSite::XprocStep).map_err(|_| Errno::Enomem)?;
            match op {
                MemOp::MapAnon { tag, pages, prot } => {
                    let base = kernel.mmap_anon(child, *pages, *prot, Share::Private)?;
                    sink::instant("xproc_map", "api", kernel.cycles.total());
                    regions.push((*tag, base));
                }
                MemOp::Write { tag, offset, value } => {
                    let base = regions
                        .iter()
                        .find(|(t, _)| t == tag)
                        .map(|(_, b)| *b)
                        .ok_or(Errno::Einval)?;
                    kernel.write_mem(child, base.add(*offset), *value)?;
                }
            }
        }

        // 4. Credentials and limits.
        {
            let c = kernel.process_mut(child)?;
            c.cred.caps = c.cred.caps.drop(self.drop_caps);
            for (r, lim) in &self.rlimits {
                c.rlimits.set(*r, *lim);
            }
        }
        if let Some(uid) = self.set_uid {
            kernel.set_process_uid(child, uid)?;
        }

        // 5. Signal mask.
        for (sig, blocked) in &self.sigmask {
            kernel.sigprocmask(child, *sig, *blocked)?;
        }
        Ok(regions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_exec::Image;
    use fpr_kernel::{ReadResult, STDOUT};

    fn world() -> (Kernel, Pid, ImageRegistry) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        (k, init, reg)
    }

    #[test]
    fn nothing_inherited_by_default() {
        let (mut k, p, reg) = world();
        let s = ProcessBuilder::new("/bin/tool")
            .spawn(&mut k, p, &reg)
            .unwrap();
        let c = k.process(s.pid).unwrap();
        assert_eq!(c.fds.open_count(), 0, "secure default: no descriptors");
        assert_eq!(c.name, "tool");
    }

    #[test]
    fn explicit_fd_grant() {
        let (mut k, p, reg) = world();
        let (r, w) = k.pipe(p).unwrap();
        let s = ProcessBuilder::new("/bin/tool")
            .fd(STDOUT, FdSource::Inherit(w))
            .spawn(&mut k, p, &reg)
            .unwrap();
        k.write_fd(s.pid, STDOUT, b"granted").unwrap();
        assert_eq!(
            k.read_fd(p, r, 16).unwrap(),
            ReadResult::Data(b"granted".to_vec())
        );
        assert_eq!(k.process(s.pid).unwrap().fds.open_count(), 1);
    }

    #[test]
    fn a_second_grant_onto_a_child_fd_releases_the_first() {
        let (mut k, init, reg) = world();
        let log = k.open(init, "/log", OpenFlags::WRONLY, true).unwrap();
        k.close(init, log).unwrap();
        let base = k.baseline();
        let p = crate::fork::fork(&mut k, init).unwrap();
        let (r, w) = k.pipe(p).unwrap();
        let s = ProcessBuilder::new("/bin/tool")
            .fd(
                STDOUT,
                FdSource::Open {
                    path: "/log".into(),
                    flags: OpenFlags::WRONLY,
                    create: false,
                },
            )
            .fd(STDOUT, FdSource::Inherit(w))
            .spawn(&mut k, p, &reg)
            .unwrap();
        // The file's description went with the displacement.
        assert_eq!(k.process(s.pid).unwrap().fds.open_count(), 1);
        k.check_invariants().unwrap();
        // The child's end is the pipe's last writer once the parent's goes.
        k.close(p, w).unwrap();
        k.write_fd(s.pid, STDOUT, b"late").unwrap();
        k.exit(s.pid, 0).unwrap();
        k.waitpid(p, Some(s.pid)).unwrap();
        assert_eq!(k.read_fd(p, r, 16), Ok(ReadResult::Data(b"late".to_vec())));
        assert_eq!(k.read_fd(p, r, 16), Ok(ReadResult::Eof));
        k.exit(p, 0).unwrap();
        k.waitpid(init, Some(p)).unwrap();
        k.leak_check(&base).unwrap();
        k.check_invariants().unwrap();
    }

    #[test]
    fn a_grant_past_the_childs_descriptor_limit_gives_its_reference_back() {
        let (mut k, p, reg) = world();
        let base = k.baseline();
        let (r, w) = k.pipe(p).unwrap();
        k.process_mut(p).unwrap().rlimits.set(Resource::Nofile, Rlimit::both(4));
        let err = ProcessBuilder::new("/bin/tool")
            .fd(Fd(4), FdSource::Inherit(w))
            .spawn(&mut k, p, &reg);
        // dup2's answer for a target past the limit.
        assert_eq!(err.err(), Some(Errno::Ebadf));
        k.check_invariants().unwrap();
        // A reference left on the write end would keep the pipe alive.
        k.close(p, w).unwrap();
        k.close(p, r).unwrap();
        k.leak_check(&base).unwrap();
    }

    #[test]
    fn cross_process_memory_setup() {
        let (mut k, p, reg) = world();
        let s = ProcessBuilder::new("/bin/tool")
            .mem(MemOp::MapAnon {
                tag: 1,
                pages: 8,
                prot: Prot::RW,
            })
            .mem(MemOp::Write {
                tag: 1,
                offset: 3,
                value: 424_242,
            })
            .spawn(&mut k, p, &reg)
            .unwrap();
        let (_, base) = s.regions[0];
        assert_eq!(k.read_mem(s.pid, base.add(3)), Ok(424_242));
        assert_eq!(k.read_mem(s.pid, base), Ok(0));
    }

    #[test]
    fn privilege_separation() {
        let (mut k, p, reg) = world();
        let s = ProcessBuilder::new("/bin/tool")
            .uid(1000)
            .drop_caps(Caps::all())
            .rlimit(Resource::Nproc, Rlimit::both(5))
            .spawn(&mut k, p, &reg)
            .unwrap();
        let c = k.process(s.pid).unwrap();
        assert_eq!(c.cred.uid, 1000);
        assert!(!c.cred.can(Caps::KILL));
        assert_eq!(c.rlimits.get(Resource::Nproc).soft, 5);
        assert_eq!(k.nproc_of(1000), 1, "uid accounting moved");
    }

    #[test]
    fn spawn_cost_independent_of_parent() {
        let (mut k, p, reg) = world();
        let c0 = k.cycles.total();
        let s = ProcessBuilder::new("/bin/tool")
            .spawn(&mut k, p, &reg)
            .unwrap();
        let small = k.cycles.total() - c0;
        k.exit(s.pid, 0).unwrap();
        k.waitpid(p, Some(s.pid)).unwrap();
        let base = k.mmap_anon(p, 8192, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 8192).unwrap();
        let c1 = k.cycles.total();
        ProcessBuilder::new("/bin/tool")
            .spawn(&mut k, p, &reg)
            .unwrap();
        let big = k.cycles.total() - c1;
        assert_eq!(small, big);
    }

    #[test]
    fn failure_tears_down_cleanly() {
        let (mut k, p, reg) = world();
        let before = k.process_count();
        let err = ProcessBuilder::new("/bin/ghost").spawn(&mut k, p, &reg);
        assert_eq!(err.err(), Some(Errno::Enoexec));
        let err2 = ProcessBuilder::new("/bin/tool")
            .fd(Fd(0), FdSource::Inherit(Fd(99)))
            .spawn(&mut k, p, &reg);
        assert_eq!(err2.err(), Some(Errno::Ebadf));
        assert_eq!(k.process_count(), before);
    }

    #[test]
    fn fresh_aslr_per_child() {
        let (mut k, p, reg) = world();
        let a = ProcessBuilder::new("/bin/tool")
            .aslr_seed(11)
            .spawn(&mut k, p, &reg)
            .unwrap();
        let b = ProcessBuilder::new("/bin/tool")
            .aslr_seed(12)
            .spawn(&mut k, p, &reg)
            .unwrap();
        assert_ne!(
            k.process(a.pid).unwrap().layout,
            k.process(b.pid).unwrap().layout
        );
    }
}
