//! The `Os` facade: one object bundling the kernel, the image registry
//! and the source of layout seeds, with convenience wrappers over the five
//! creation APIs.
//!
//! Everything the examples and experiments need goes through here, so a
//! downstream user writes `os.fork(pid)` / `os.spawn(pid, "/bin/tool")`
//! instead of threading four subsystems by hand.

use fpr_api::{FileAction, ProcessBuilder, SpawnAttrs, WarmPool};
use fpr_exec::{Image, ImageCache, ImageRegistry};
use fpr_kernel::{Errno, KResult, Kernel, MachineConfig, Pid, ShrinkerHandle};
use fpr_mem::{ForkMode, Prot, Share, Vpn};
use fpr_trace::ProcessShape;
use fpr_rng::Rng;
use std::sync::{Arc, Mutex, MutexGuard};

/// Configuration for [`Os::boot`].
#[derive(Debug, Clone)]
pub struct OsConfig {
    /// Machine parameters (frames, CPUs, overcommit, cost model).
    pub machine: MachineConfig,
    /// Seed for all randomness (layouts, workloads) — same seed, same run.
    pub seed: u64,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            machine: MachineConfig::default(),
            seed: 42,
        }
    }
}

/// The spawn fast path's moving parts, owned by [`Os`] while enabled.
///
/// Cache and pool are shared (`Arc<Mutex<…>>`, matching the kernel's
/// `Send` registry) because the kernel holds weak handles to both as
/// memory-pressure shrinkers: under pressure a reclaim pass drains warm
/// children and evicts cold image entries instead of OOM-killing.
/// Dropping this struct (fast-path disable) unregisters both
/// automatically.
#[derive(Debug)]
pub(crate) struct SpawnFastpath {
    /// Exec image cache consulted by every spawn while enabled.
    pub cache: Arc<Mutex<ImageCache>>,
    /// Warm pool of pre-built children.
    pub pool: Arc<Mutex<WarmPool>>,
}

impl SpawnFastpath {
    /// Read access to the image cache (counters, occupancy).
    pub(crate) fn cache(&self) -> MutexGuard<'_, ImageCache> {
        self.cache.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Read access to the warm pool (counters, occupancy).
    pub(crate) fn pool(&self) -> MutexGuard<'_, WarmPool> {
        self.pool.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A booted simulated OS.
#[derive(Debug)]
pub struct Os {
    /// The kernel.
    pub kernel: Kernel,
    /// Registered executable images.
    pub images: ImageRegistry,
    /// PID of init.
    pub init: Pid,
    rng: Rng,
    /// `Some` while the spawn fast path is enabled; `None` keeps every
    /// spawn byte-identical to the classic `posix_spawn`.
    fastpath: Option<SpawnFastpath>,
}

impl Os {
    /// Boots a machine, creates init, and registers the standard images
    /// (`/bin/sh`, `/bin/cat`, `/bin/grep`, `/bin/wc`, `/bin/tool`,
    /// `/bin/server`).
    pub fn boot(cfg: OsConfig) -> Os {
        let mut kernel = Kernel::new(cfg.machine.clone());
        let init = kernel.create_init("init").expect("fresh machine boots");
        Os::assemble(kernel, init, &cfg)
    }

    /// Boots one SMP *cell*: the same facade as [`Os::boot`], but the
    /// kernel draws frames, PIDs, TLB rounds and the OOM trigger from the
    /// machine-wide [`fpr_kernel::SmpShared`] instead of owning them.
    /// Cells booted from one `SmpShared` can run on different OS threads
    /// (see `crate::smp::SmpOs`) while every machine-wide resource stays
    /// conserved.
    pub fn boot_smp(cfg: OsConfig, shared: &fpr_kernel::SmpShared, cell: usize) -> Os {
        let mut kernel = fpr_kernel::Kernel::new_smp(cfg.machine.clone(), shared, cell);
        let init = kernel.create_init("init").expect("fresh cell boots");
        Os::assemble(kernel, init, &cfg)
    }

    fn assemble(kernel: Kernel, init: Pid, cfg: &OsConfig) -> Os {
        let mut images = ImageRegistry::new();
        for name in ["sh", "cat", "grep", "wc", "tool"] {
            images.register(&format!("/bin/{name}"), Image::small(name));
        }
        images.register("/bin/server", Image::large("server"));
        Os {
            kernel,
            images,
            init,
            rng: Rng::seed_from_u64(cfg.seed),
            fastpath: None,
        }
    }

    /// Draws a fresh ASLR seed.
    pub(crate) fn fresh_seed(&mut self) -> u64 {
        self.rng.gen_u64()
    }

    /// `fork(2)`.
    pub fn fork(&mut self, parent: Pid) -> KResult<Pid> {
        fpr_api::fork(&mut self.kernel, parent)
    }

    /// Instrumented fork returning work statistics.
    pub fn fork_stats(
        &mut self,
        parent: Pid,
        mode: ForkMode,
    ) -> KResult<(Pid, fpr_api::ForkStats)> {
        let tid = self.kernel.process(parent)?.main_tid();
        fpr_api::fork_from_thread(&mut self.kernel, parent, tid, mode)
    }

    /// `vfork(2)`.
    pub fn vfork(&mut self, parent: Pid) -> KResult<Pid> {
        fpr_api::vfork(&mut self.kernel, parent)
    }

    /// Fork-with-`mode` and exec `path` as one transactional call
    /// ([`fpr_api::fork_exec`]): an exec failure reaps the half-made
    /// child before the error returns. The request-serving entry point
    /// the E15 service loop uses for its fork-family paths.
    pub fn fork_exec(&mut self, parent: Pid, path: &str, mode: ForkMode) -> KResult<Pid> {
        let seed = self.fresh_seed();
        fpr_api::fork_exec(&mut self.kernel, parent, &self.images, path, mode, seed)
    }

    /// vfork and exec `path` as one call ([`fpr_api::vfork_exec`]); the
    /// parent is suspended only inside the call.
    pub fn vfork_exec(&mut self, parent: Pid, path: &str) -> KResult<Pid> {
        let seed = self.fresh_seed();
        fpr_api::vfork_exec(&mut self.kernel, parent, &self.images, path, seed)
    }

    /// `execve(2)` with a fresh random layout.
    pub fn exec(&mut self, pid: Pid, path: &str) -> KResult<()> {
        let seed = self.fresh_seed();
        fpr_exec::execve(&mut self.kernel, pid, &self.images, path, seed)
    }

    /// `posix_spawn(3)` with a fresh random layout. While the spawn fast
    /// path is enabled this routes through the warm pool + image cache
    /// (same semantics, fewer cycles); otherwise it is the classic call.
    pub fn spawn(
        &mut self,
        parent: Pid,
        path: &str,
        actions: &[FileAction],
        attrs: &SpawnAttrs,
    ) -> KResult<Pid> {
        let seed = self.fresh_seed();
        match &mut self.fastpath {
            Some(f) => fpr_api::spawn_fast(
                &mut self.kernel,
                parent,
                &self.images,
                path,
                actions,
                attrs,
                seed,
                &mut f.cache.lock().unwrap_or_else(|p| p.into_inner()),
                &mut f.pool.lock().unwrap_or_else(|p| p.into_inner()),
            ),
            None => fpr_api::posix_spawn(
                &mut self.kernel,
                parent,
                &self.images,
                path,
                actions,
                attrs,
                seed,
                None,
            ),
        }
    }

    /// Turns the spawn fast path on: binds every registered binary to a
    /// backing VFS file (so rewrites invalidate the cache), installs an
    /// empty image cache + warm pool, and registers both with the kernel
    /// as memory-pressure shrinkers (pool first: draining warm children
    /// frees more per step than evicting cache entries whose frames they
    /// share). Idempotent.
    pub fn enable_spawn_fastpath(&mut self) -> KResult<()> {
        self.ensure_vfs_backing()?;
        if self.fastpath.is_none() {
            let cache = Arc::new(Mutex::new(ImageCache::new()));
            let pool = Arc::new(Mutex::new(WarmPool::new(self.init)));
            self.kernel
                .register_shrinker(&(pool.clone() as ShrinkerHandle));
            self.kernel
                .register_shrinker(&(cache.clone() as ShrinkerHandle));
            self.fastpath = Some(SpawnFastpath { cache, pool });
        }
        Ok(())
    }

    /// Turns the fast path off again, draining the pool and unpinning
    /// every cached frame. Spawns go back to the classic path, and
    /// dropping the strong handles unregisters both shrinkers.
    pub fn disable_spawn_fastpath(&mut self) -> KResult<()> {
        if let Some(f) = self.fastpath.take() {
            f.pool
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .drain(&mut self.kernel)?;
            f.cache
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clear(&mut self.kernel);
        }
        Ok(())
    }

    /// True while spawns route through the fast path.
    pub fn fastpath_enabled(&self) -> bool {
        self.fastpath.is_some()
    }

    /// Read access to the fast-path state (counters, pool occupancy).
    pub(crate) fn fastpath(&self) -> Option<&SpawnFastpath> {
        self.fastpath.as_ref()
    }

    /// Pre-builds `n` warm children of `path` (fails with
    /// [`Errno::Einval`] unless the fast path is enabled).
    pub fn pool_prefill(&mut self, path: &str, n: usize) -> KResult<()> {
        let f = self.fastpath.as_mut().ok_or(Errno::Einval)?;
        f.pool.lock().unwrap_or_else(|p| p.into_inner()).prefill(
            &mut self.kernel,
            &self.images,
            &mut f.cache.lock().unwrap_or_else(|p| p.into_inner()),
            path,
            n,
        )
    }

    /// Pressure-gated pool sizing ([`WarmPool::autoscale`]): tops the
    /// warm pool up to `target` children of `path` unless memory
    /// pressure is [`fpr_mem::PressureLevel::High`] or worse. Returns
    /// the number of children built (fails with [`Errno::Einval`] unless
    /// the fast path is enabled). Service loops call this on their
    /// maintenance tick; after a pressure storm drains the pool this is
    /// what restores the fast path.
    pub fn pool_autoscale(&mut self, path: &str, target: usize) -> KResult<usize> {
        let f = self.fastpath.as_mut().ok_or(Errno::Einval)?;
        f.pool.lock().unwrap_or_else(|p| p.into_inner()).autoscale(
            &mut self.kernel,
            &self.images,
            &mut f.cache.lock().unwrap_or_else(|p| p.into_inner()),
            path,
            target,
        )
    }

    /// Creates a VFS file behind every registered binary that lacks one
    /// and binds it in the registry. Run identity note: this is only
    /// called when the fast path is switched on, so default runs never
    /// touch the VFS and stay byte-identical to the classic behaviour.
    fn ensure_vfs_backing(&mut self) -> KResult<()> {
        let root = self.kernel.vfs.root();
        if self.kernel.vfs.resolve("/bin", root).is_err() {
            self.kernel.vfs.mkdir("/bin", root)?;
        }
        let paths: Vec<String> = self.images.paths().iter().map(|p| p.to_string()).collect();
        for path in paths {
            let Some(img) = self.images.lookup(&path) else {
                continue; // scripts resolve through their interpreter
            };
            if self.images.backing_ino(img.file_id).is_some() {
                continue;
            }
            let ino = match self.kernel.vfs.resolve(&path, root) {
                Ok(ino) => ino,
                Err(_) => self
                    .kernel
                    .vfs
                    .create(&path, root, format!("ELF:{path}").into_bytes())?,
            };
            self.images.bind_backing(&path, ino);
        }
        Ok(())
    }

    /// Starts a cross-process builder spawn with a fresh random layout.
    pub fn spawn_builder(
        &mut self,
        parent: Pid,
        builder: ProcessBuilder,
    ) -> KResult<fpr_api::Spawned> {
        let seed = self.fresh_seed();
        builder
            .aslr_seed(seed)
            .spawn(&mut self.kernel, parent, &self.images)
    }

    /// Measures the simulated cycles a closure spends.
    pub fn measure<T>(&mut self, f: impl FnOnce(&mut Os) -> T) -> (T, u64) {
        let before = self.kernel.cycles.total();
        let out = f(self);
        (out, self.kernel.cycles.total() - before)
    }

    /// Builds a synthetic parent process matching `shape`: execs
    /// `/bin/tool`, maps and populates the heap across the requested VMA
    /// count (the first `heap_pages % vma_count` mappings take the odd
    /// pages; a heap smaller than the count gets one page a mapping),
    /// opens descriptors, and starts threads.
    pub fn make_parent(&mut self, shape: ProcessShape) -> KResult<Pid> {
        let pid = self.kernel.allocate_process(self.init, "parent")?;
        let seed = self.fresh_seed();
        fpr_exec::execve(&mut self.kernel, pid, &self.images, "/bin/tool", seed)?;
        let vmas = shape.vma_count.max(1).min(shape.heap_pages);
        for i in 0..vmas {
            let pages = shape.heap_pages / vmas + u64::from(i < shape.heap_pages % vmas);
            let base = self
                .kernel
                .mmap_anon(pid, pages, Prot::RW, Share::Private)?;
            self.kernel.populate(pid, base, pages)?;
        }
        for i in 0..shape.extra_fds {
            self.kernel.open(
                pid,
                &format!("/tmp_fd_{}_{}", pid.0, i),
                fpr_kernel::OpenFlags::RDWR,
                true,
            )?;
        }
        for _ in 0..shape.extra_threads {
            self.kernel.spawn_thread(pid)?;
        }
        Ok(pid)
    }

    /// The base page of the first heap-class VMA mapped after exec (the
    /// synthetic parent's data region).
    pub fn first_mmap_base(&self, pid: Pid) -> KResult<Vpn> {
        self.kernel
            .memory(pid)?
            .aspace
            .vmas()
            .find(|v| v.kind == fpr_mem::VmaKind::Mmap)
            .map(|v| v.start)
            .ok_or(fpr_kernel::Errno::Enoent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_registers_standard_images() {
        let os = Os::boot(OsConfig::default());
        assert!(os.images.lookup("/bin/sh").is_some());
        assert!(os.images.lookup("/bin/server").is_some());
        assert_eq!(os.kernel.process(os.init).unwrap().name, "init");
    }

    #[test]
    fn same_seed_same_layouts() {
        let mut a = Os::boot(OsConfig {
            seed: 7,
            ..Default::default()
        });
        let mut b = Os::boot(OsConfig {
            seed: 7,
            ..Default::default()
        });
        let pa = a
            .spawn(a.init, "/bin/sh", &[], &SpawnAttrs::default())
            .unwrap();
        let pb = b
            .spawn(b.init, "/bin/sh", &[], &SpawnAttrs::default())
            .unwrap();
        assert_eq!(
            a.kernel.process(pa).unwrap().layout,
            b.kernel.process(pb).unwrap().layout
        );
    }

    #[test]
    fn make_parent_matches_shape() {
        // A heap that divides over its VMAs, and one that does not.
        for (heap_pages, vma_count) in [(64, 4), (100, 8)] {
            let mut os = Os::boot(OsConfig::default());
            let shape = ProcessShape {
                heap_pages,
                vma_count,
                extra_fds: 5,
                extra_threads: 2,
            };
            let pid = os.make_parent(shape).unwrap();
            let p = os.kernel.process(pid).unwrap();
            assert!(p.resident_pages() >= heap_pages);
            assert_eq!(p.threads.len(), 3);
            assert_eq!(
                p.fds.open_count(),
                5,
                "exec'd process has no stdio; 5 opened"
            );
            let mmaps: Vec<u64> = os
                .kernel
                .memory(pid)
                .unwrap()
                .aspace
                .vmas()
                .filter(|v| v.kind == fpr_mem::VmaKind::Mmap)
                .map(|v| v.pages)
                .collect();
            assert_eq!(
                mmaps.len() as u64,
                vma_count,
                "{heap_pages} pages: {mmaps:?}"
            );
            assert_eq!(mmaps.iter().sum::<u64>(), heap_pages);
        }
    }

    #[test]
    fn measure_counts_cycles() {
        let mut os = Os::boot(OsConfig::default());
        let init = os.init;
        let (_, zero) = os.measure(|_| ());
        assert_eq!(zero, 0);
        let (child, cost) = os.measure(|os| os.fork(init).unwrap());
        assert!(cost > 0);
        assert!(os.kernel.process(child).is_ok());
    }

    #[test]
    fn facade_apis_compose() {
        let mut os = Os::boot(OsConfig::default());
        let init = os.init;
        let c = os
            .spawn(init, "/bin/cat", &[], &SpawnAttrs::default())
            .unwrap();
        assert_eq!(os.kernel.process(c).unwrap().name, "cat");
        os.exec(c, "/bin/grep").unwrap();
        assert_eq!(os.kernel.process(c).unwrap().name, "grep");
        let v = os.vfork(c).unwrap();
        os.reap(c, v).unwrap();
    }
}
