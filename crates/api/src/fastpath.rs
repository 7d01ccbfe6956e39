//! The spawn fast path: a warm pool of pre-built children.
//!
//! `posix_spawn` loses to `fork(OnDemand)` in the baseline benchmark
//! because every spawn rebuilds the child image from scratch — six VMA
//! insertions plus the startup faults. Zygote-style systems win that back
//! by keeping pre-forked children around, but at the security cost the
//! paper highlights: every pool child shares the parent's layout, so one
//! info-leak deanonymises all of them (experiment E8).
//!
//! [`WarmPool`] takes the performance trick without the entropy loss.
//! Children are pre-built ([`WarmPool::prefill`]) into a *staging* layout
//! far above the ASLR arenas, parked under a pool host process, and
//! checked out on demand: the checkout adopts the child to the caller,
//! clones descriptors, runs the spawn file actions/attributes, draws a
//! **fresh** ASLR layout, and slides every segment from the staging bases
//! to the new random ones. Checked-out siblings therefore share ~0 bits
//! of layout entropy — the audit in `tab_aslr` verifies this — while the
//! hot path costs one syscall plus a handful of PTE moves instead of a
//! full image build.

use crate::spawn::{apply_attrs, apply_file_actions, posix_spawn, FileAction, SpawnAttrs};
use fpr_exec::{effective_file_id, load, randomize, reset_pcb, Env, Image, ImageCache, ImageRegistry};
use fpr_kernel::{Errno, Inherit, KResult, Kernel, LayoutInfo, Pid, OOM_SCORE_ADJ_MIN};
use fpr_mem::{PressureLevel, Vpn};
use fpr_trace::metrics::Counter;
use fpr_trace::sink;
use std::collections::BTreeMap;

/// Staging bases (VPNs) for parked children, far above every ASLR arena
/// (the largest randomised base tops out below `0x7800_0000`), so sliding
/// a segment from staging to any freshly drawn base can never overlap.
mod staging {
    /// Text/data/bss park here.
    pub(crate) const TEXT: u64 = 0x1_0000_0000;
    /// Heap parks here.
    pub(crate) const HEAP: u64 = 0x1_1000_0000;
    /// Stack (top) parks here.
    pub(crate) const STACK: u64 = 0x1_2000_0000;
    /// The mmap arena base recorded while parked.
    pub(crate) const MMAP: u64 = 0x1_3000_0000;
}

/// The fixed layout every parked child is built into. Deliberately *not*
/// a layout any spawn could draw: observing a parked child reveals
/// nothing about any checked-out sibling.
fn staging_layout() -> LayoutInfo {
    LayoutInfo {
        text_base: staging::TEXT,
        heap_base: staging::HEAP,
        stack_base: staging::STACK,
        mmap_base: staging::MMAP,
        aslr_seed: 0,
    }
}

/// A pre-built child waiting in the pool.
#[derive(Debug, Clone)]
struct ParkedChild {
    pid: Pid,
    /// Effective file id the image was loaded under; a mismatch at
    /// checkout means the binary was rewritten and the child is stale.
    eff_file_id: u64,
    /// The staging layout it was built into.
    layout: LayoutInfo,
    /// Logical timestamp of when the child was (re-)parked; memory
    /// pressure drains oldest-parked first.
    parked_at: u64,
}

/// A pool of pre-built children, keyed by executable path.
#[derive(Debug)]
pub struct WarmPool {
    /// Process the parked children hang off (usually init); checkout
    /// re-parents them to the caller, re-park hands them back.
    host: Pid,
    parked: BTreeMap<String, Vec<ParkedChild>>,
    /// Monotonic logical clock stamping `ParkedChild::parked_at`.
    tick: u64,
    checkouts: u64,
    refills: u64,
    discards: u64,
}

impl WarmPool {
    /// Creates an empty pool whose parked children belong to `host`.
    pub fn new(host: Pid) -> WarmPool {
        WarmPool {
            host,
            parked: BTreeMap::new(),
            tick: 0,
            checkouts: 0,
            refills: 0,
            discards: 0,
        }
    }

    /// Pre-builds `n` children of `path` into the staging layout and
    /// parks them under the host. This is the warm-up cost a zygote pays
    /// off the spawn path; it also warms the exec image `cache`, so the
    /// first prefill doubles as the cache's donor.
    pub fn prefill(
        &mut self,
        kernel: &mut Kernel,
        registry: &ImageRegistry,
        cache: &mut ImageCache,
        path: &str,
        n: usize,
    ) -> KResult<()> {
        // While the swap tier is thrashing, growing the pool would evict
        // working-set pages to park cache: refills wait out the storm
        // (spawns of the path degrade to the classic cost, nothing worse).
        if kernel.swap_thrashing() {
            Counter::PoolThrottled.incr();
            return Ok(());
        }
        for _ in 0..n {
            let mut image = registry.resolve(path).ok_or(Errno::Enoexec)?.0.clone();
            image.file_id = effective_file_id(kernel, registry, image.file_id);
            let layout = staging_layout();
            let (child, ()) = kernel.create_process(self.host, |k, child, _| {
                load(k, child, &image, layout, Some(&mut *cache))?;
                // A parked child is pure cache: the OOM killer must never
                // pick it (shrinker reclaim drains it instead).
                k.process_mut(child)?.oom_score_adj = OOM_SCORE_ADJ_MIN;
                Ok(())
            })?;
            self.refills += 1;
            Counter::PoolRefill.incr();
            self.park(
                path,
                ParkedChild {
                    pid: child,
                    eff_file_id: image.file_id,
                    layout,
                    parked_at: 0,
                },
            );
        }
        Ok(())
    }

    /// Pressure-driven pool sizing: tops the pool up to `target` parked
    /// children of `path`, but only while memory is genuinely easy.
    /// Under [`PressureLevel::High`] or worse (or a thrashing swap tier)
    /// the refill is skipped entirely — growing the pool there would
    /// fight the very reclaim pass that is draining it, and the classic
    /// spawn fallback is the designed degradation. Returns the number of
    /// children actually built.
    ///
    /// This is the hook a service loop calls on its maintenance tick
    /// (E15 does, between requests): checkout consumes a parked child per
    /// served request, so the pool trends to zero without it, and after a
    /// pressure storm drains the pool this is what restores the fast
    /// path.
    pub fn autoscale(
        &mut self,
        kernel: &mut Kernel,
        registry: &ImageRegistry,
        cache: &mut ImageCache,
        path: &str,
        target: usize,
    ) -> KResult<usize> {
        let have = self.available(path);
        if have >= target {
            return Ok(0);
        }
        if kernel.memory_pressure() >= PressureLevel::High {
            Counter::PoolAutoscaleSkipped.incr();
            return Ok(0);
        }
        let want = target - have;
        let before = self.refills;
        self.prefill(kernel, registry, cache, path, want)?;
        Ok((self.refills - before) as usize)
    }

    /// Checks a parked child of `path` out to `parent`, or returns
    /// `Ok(None)` when the pool has none (the caller falls back to the
    /// slow path without having paid a syscall — the pool table lives in
    /// userspace). Crosses [`fpr_faults::FaultSite::PoolCheckout`]
    /// *before* popping, so an injected failure leaves the pool intact;
    /// a failure later in the checkout re-parks the child and restores
    /// the pre-checkout state exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn checkout(
        &mut self,
        kernel: &mut Kernel,
        registry: &ImageRegistry,
        parent: Pid,
        path: &str,
        actions: &[FileAction],
        attrs: &SpawnAttrs,
        aslr_seed: u64,
    ) -> KResult<Option<Pid>> {
        let Some((image, interp_prefix)) = registry.resolve(path) else {
            return Ok(None);
        };
        let eff = effective_file_id(kernel, registry, image.file_id);
        // A rewritten binary strands its parked children on the old
        // bytes: discard them so nothing stale can ever be checked out.
        while let Some(stale) = self.pop_stale(path, eff) {
            kernel.abort_process_creation(stale.pid)?;
            self.discards += 1;
        }
        if self.parked.get(path).is_none_or(|v| v.is_empty()) {
            return Ok(None);
        }

        // The checkout proper: one syscall covering adopt + re-randomise.
        kernel.charge_syscall();
        fpr_faults::cross(fpr_faults::FaultSite::PoolCheckout).map_err(|_| Errno::Enomem)?;
        let parked = self
            .parked
            .get_mut(path)
            .and_then(Vec::pop)
            .expect("checked non-empty above");
        if let Err(e) = kernel.adopt_process(parked.pid, parent) {
            // Adoption fails atomically (e.g. the caller's RLIMIT_NPROC),
            // so the child is still pristine: just put it back.
            self.park(path, parked);
            return Err(e);
        }
        // Checked out: a real process again, visible to the OOM killer.
        kernel.process_mut(parked.pid)?.oom_score_adj = 0;

        // Snapshot the state the re-park path must restore; everything
        // else (cwd, creds, rlimits, pgid, sid) is restored by adopting
        // the child back to the host.
        let saved = {
            let c = kernel.process(parked.pid)?;
            (c.name.clone(), c.signals.clone(), c.umask)
        };
        let fresh = randomize(aslr_seed);
        let (pairs, segments) = slide_pairs(image, &parked.layout, &fresh);
        let pairs = &pairs[..segments];
        let mut slid = 0usize;
        let mut created = Vec::new();
        let built = build_checked_out_child(
            kernel,
            parked.pid,
            parent,
            path,
            &image.name,
            &interp_prefix,
            actions,
            attrs,
            fresh,
            pairs,
            &mut slid,
            &mut created,
        );
        match built {
            Ok(()) => {
                self.checkouts += 1;
                Counter::PoolCheckout.incr();
                Ok(Some(parked.pid))
            }
            Err(e) => {
                // Undo in reverse and hand the child back to the pool. If
                // even that fails (pathological double fault) the child is
                // torn down entirely rather than leaked.
                let pid = parked.pid;
                let undone = (|| -> KResult<()> {
                    for (old, new) in pairs.iter().take(slid).rev() {
                        kernel.slide_vma(pid, *new, *old)?;
                    }
                    let entries = kernel.process_mut(pid)?.fds.drain();
                    for entry in entries {
                        kernel.release_fd_entry(entry)?;
                    }
                    for (p, cwd) in created {
                        let _ = kernel.vfs.unlink(&p, cwd);
                    }
                    {
                        let c = kernel.process_mut(pid)?;
                        (c.name, c.signals, c.umask) = saved;
                        c.argv.clear();
                        c.envp.clear();
                        c.oom_score_adj = OOM_SCORE_ADJ_MIN;
                    }
                    kernel.adopt_process(pid, self.host)
                })();
                match undone {
                    Ok(()) => self.park(path, parked),
                    Err(_) => {
                        kernel.abort_process_creation(pid)?;
                    }
                }
                Err(e)
            }
        }
    }

    /// Tears down oldest-parked children until `target` frames have been
    /// returned to the allocator or the pool is empty, reporting frames
    /// actually freed. This is the pool's [`fpr_kernel::Shrinker`] work
    /// under memory pressure: spawns of the drained paths degrade to the
    /// classic-path cost until a refill, but nobody gets OOM-killed. The
    /// reclaim pass crosses [`fpr_faults::FaultSite::PoolDrain`] before
    /// calling this.
    pub(crate) fn shrink(&mut self, kernel: &mut Kernel, target: u64) -> KResult<u64> {
        // This cell's own drop: the machine's free count moves with what
        // other cells draw from the shared pool meanwhile.
        let used_before = kernel.phys.used_frames();
        let freed = |kernel: &Kernel| used_before.saturating_sub(kernel.phys.used_frames());
        while freed(kernel) < target {
            let lru = self
                .parked
                .iter()
                .flat_map(|(path, list)| {
                    list.iter().map(move |p| (p.parked_at, path.clone()))
                })
                .min();
            let Some((parked_at, path)) = lru else { break };
            let list = self.parked.get_mut(&path).expect("came from iteration");
            let idx = list
                .iter()
                .position(|p| p.parked_at == parked_at)
                .expect("came from iteration");
            let child = list.remove(idx);
            kernel.abort_process_creation(child.pid)?;
            Counter::PoolReclaim.incr();
        }
        self.parked.retain(|_, list| !list.is_empty());
        Ok(freed(kernel))
    }

    /// Tears down every parked child (pool disable / shutdown).
    pub fn drain(&mut self, kernel: &mut Kernel) -> KResult<()> {
        for (_, list) in std::mem::take(&mut self.parked) {
            for p in list {
                kernel.abort_process_creation(p.pid)?;
            }
        }
        Ok(())
    }

    /// Parked children currently available for `path`.
    pub fn available(&self, path: &str) -> usize {
        self.parked.get(path).map_or(0, Vec::len)
    }

    /// Parked children across all paths.
    pub fn total_parked(&self) -> usize {
        self.parked.values().map(Vec::len).sum()
    }

    /// Successful checkouts so far.
    pub fn checkouts(&self) -> u64 {
        self.checkouts
    }

    /// Stale parked children discarded after a binary rewrite.
    pub fn discards(&self) -> u64 {
        self.discards
    }

    fn park(&mut self, path: &str, mut child: ParkedChild) {
        self.tick += 1;
        child.parked_at = self.tick;
        // The path is copied when its first child parks, not on every park.
        match self.parked.get_mut(path) {
            Some(list) => list.push(child),
            None => {
                self.parked.insert(path.to_string(), vec![child]);
            }
        }
    }

    fn pop_stale(&mut self, path: &str, eff: u64) -> Option<ParkedChild> {
        let list = self.parked.get_mut(path)?;
        let idx = list.iter().position(|p| p.eff_file_id != eff)?;
        Some(list.remove(idx))
    }
}

/// Under memory pressure the pool gives its parked children back, oldest
/// first: the fast path degrades toward classic-spawn latency instead of
/// the OOM killer picking a victim.
impl fpr_kernel::Shrinker for WarmPool {
    fn fault_site(&self) -> fpr_faults::FaultSite {
        fpr_faults::FaultSite::PoolDrain
    }

    fn reclaimable(&self, kernel: &Kernel) -> u64 {
        // Upper bound: a parked child's resident pages. Pages CoW-shared
        // with the image cache survive its death through the cache pins,
        // so the pass may free less than this.
        self.parked
            .values()
            .flatten()
            .map(|p| {
                kernel
                    .process(p.pid)
                    .map(|proc| proc.resident_pages())
                    .unwrap_or(0)
            })
            .sum()
    }

    fn shrink(&mut self, kernel: &mut Kernel, target: u64) -> KResult<u64> {
        WarmPool::shrink(self, kernel, target)
    }
}

/// Everything between a successful adopt and a ready child: what a spawned
/// child inherits, file actions, attributes, exec's resets, and the ASLR
/// re-randomising slides. Mirrors what `posix_spawn`'s populate step +
/// execve do, minus the image construction the prefill already paid for.
/// `slid` counts completed slides so the caller can undo a partial
/// failure.
#[allow(clippy::too_many_arguments)]
fn build_checked_out_child(
    kernel: &mut Kernel,
    child: Pid,
    parent: Pid,
    path: &str,
    image_name: &str,
    interp_prefix: &[String],
    actions: &[FileAction],
    attrs: &SpawnAttrs,
    fresh: LayoutInfo,
    pairs: &[(Vpn, Vpn)],
    slid: &mut usize,
    created: &mut Vec<(String, fpr_kernel::vfs::Ino)>,
) -> KResult<()> {
    kernel.inherit(parent, child, Inherit::Spawn)?;
    apply_file_actions(kernel, child, actions, created)?;
    apply_attrs(kernel, child, attrs)?;
    // Descriptors, handlers, argv and env exactly as execve would leave
    // them (in posix_spawn it runs after the file actions, too).
    let mut argv = interp_prefix.to_vec();
    if attrs.argv.is_empty() {
        argv.push(path.to_string());
    } else {
        argv.extend(attrs.argv.iter().cloned());
    }
    reset_pcb(kernel, child, argv, attrs.env.clone().map_or(Env::Keep, Env::Replace))?;
    kernel.process_mut(child)?.name = image_name.to_string();
    // Re-randomise: slide every segment from staging to the fresh draw.
    sink::instant("aslr_randomize", "api", kernel.cycles.total());
    for (old, new) in pairs {
        kernel.slide_vma(child, *old, *new)?;
        *slid += 1;
    }
    kernel.process_mut(child)?.layout = fresh;
    Ok(())
}

/// `(from, to)` VMA start pairs for sliding an image between two layouts,
/// in the order the loader created them: text, data, bss, heap, the stack's
/// guard page and the stack, of which the first `usize` are in use (an
/// image may have no data, bss or heap).
fn slide_pairs(img: &Image, from: &LayoutInfo, to: &LayoutInfo) -> ([(Vpn, Vpn); 6], usize) {
    let (mut pairs, mut n) = ([(Vpn(0), Vpn(0)); 6], 0);
    let mut push = |old: u64, new: u64| {
        pairs[n] = (Vpn(old), Vpn(new));
        n += 1;
    };
    push(from.text_base, to.text_base);
    if img.data_pages > 0 {
        let off = img.text_pages;
        push(from.text_base + off, to.text_base + off);
    }
    if img.bss_pages > 0 {
        let off = img.text_pages + img.data_pages;
        push(from.text_base + off, to.text_base + off);
    }
    if img.heap_pages > 0 {
        push(from.heap_base, to.heap_base);
    }
    let low = |l: &LayoutInfo| l.stack_base - img.stack_pages;
    push(low(from) - 1, low(to) - 1);
    push(low(from), low(to));
    (pairs, n)
}

/// `posix_spawn` through the fast path: try a warm-pool checkout, fall
/// back to the (image-cache-assisted) slow path on a miss. Semantically
/// identical to [`crate::spawn::posix_spawn`]; only the cycle count
/// differs.
#[allow(clippy::too_many_arguments)]
pub fn spawn_fast(
    kernel: &mut Kernel,
    parent: Pid,
    registry: &ImageRegistry,
    path: &str,
    actions: &[FileAction],
    attrs: &SpawnAttrs,
    aslr_seed: u64,
    cache: &mut ImageCache,
    pool: &mut WarmPool,
) -> KResult<Pid> {
    kernel.span_with(
        "spawn_fast",
        "api",
        |ev| ev.arg("parent", parent.0 as u64).arg("path", path.to_string()),
        |kernel| {
            let hit = pool.checkout(kernel, registry, parent, path, actions, attrs, aslr_seed)?;
            if let Some(pid) = hit {
                return Ok(pid);
            }
            Counter::PoolMiss.incr();
            posix_spawn(kernel, parent, registry, path, actions, attrs, aslr_seed, Some(cache))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_trace::metrics;
    use fpr_exec::{shared_bits, Image};
    use fpr_kernel::{Fd, Resource, Rlimit, STDOUT};
    use fpr_mem::vma::file_stamp;

    fn world() -> (Kernel, Pid, ImageRegistry) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        (k, init, reg)
    }

    /// How far this thread's counter `name` has moved since `before`.
    fn moved(before: &metrics::Snapshot, name: &str) -> u64 {
        metrics::snapshot().delta(before).counter(name)
    }

    #[test]
    fn prefill_parks_children_under_host() {
        let before = metrics::snapshot();
        let (mut k, init, reg) = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 3)
            .unwrap();
        assert_eq!(pool.available("/bin/tool"), 3);
        assert_eq!(moved(&before, "api.pool.refill"), 3);
        assert_eq!(cache.misses(), 1, "first prefill donates to the cache");
        assert_eq!(cache.hits(), 2, "later prefills ride it");
        k.check_invariants().unwrap();
    }

    #[test]
    fn checkout_beats_the_slow_path_and_builds_a_real_child() {
        let (mut k, init, reg) = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 2)
            .unwrap();

        let c0 = k.cycles.total();
        let slow = posix_spawn(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            5,
            None,
        )
        .unwrap();
        let slow_cost = k.cycles.total() - c0;

        let c1 = k.cycles.total();
        let fast = spawn_fast(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            6,
            &mut cache,
            &mut pool,
        )
        .unwrap();
        let fast_cost = k.cycles.total() - c1;
        assert!(
            fast_cost < slow_cost,
            "pool hit ({fast_cost}) must beat posix_spawn ({slow_cost})"
        );
        assert_eq!(pool.checkouts(), 1);
        assert_eq!(pool.available("/bin/tool"), 1);

        let cp = k.process(fast).unwrap();
        assert_eq!(cp.ppid, init);
        assert_eq!(cp.name, "tool");
        assert_eq!(cp.fds.open_count(), 3, "stdio inherited");
        assert_eq!(cp.argv, vec!["/bin/tool".to_string()]);
        let layout = cp.layout;
        assert_ne!(layout.text_base, staging::TEXT, "not left in staging");
        // The image content is really there at the new bases.
        let img = Image::small("tool");
        assert_eq!(
            k.read_mem(fast, Vpn(layout.text_base + img.entry_page)),
            Ok(file_stamp(
                reg.resolve("/bin/tool").unwrap().0.file_id,
                img.entry_page
            ))
        );
        let _ = slow;
        k.check_invariants().unwrap();
    }

    #[test]
    fn checked_out_siblings_share_no_layout_entropy() {
        let (mut k, init, reg) = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 2)
            .unwrap();
        let a = spawn_fast(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            1001,
            &mut cache,
            &mut pool,
        )
        .unwrap();
        let b = spawn_fast(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            1002,
            &mut cache,
            &mut pool,
        )
        .unwrap();
        assert_eq!(pool.checkouts(), 2);
        let (la, lb) = (k.process(a).unwrap().layout, k.process(b).unwrap().layout);
        assert_ne!(la, lb);
        // Siblings from the same pool look like independent spawns: the
        // incidental shared low bits stay far below full disclosure.
        assert!(
            shared_bits(&la, &lb) < 34,
            "pool children must not share their layout ({} bits)",
            shared_bits(&la, &lb)
        );
        // Each checkout drew its own layout: no base is left where the
        // child was parked.
        let staged = staging_layout();
        for l in [la, lb] {
            assert_ne!(l.text_base, staged.text_base);
            assert_ne!(l.heap_base, staged.heap_base);
            assert_ne!(l.mmap_base, staged.mmap_base);
            assert_ne!(l.stack_base, staged.stack_base);
        }
    }

    #[test]
    fn empty_pool_falls_back_to_slow_path() {
        let before = metrics::snapshot();
        let (mut k, init, reg) = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        let c = spawn_fast(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            3,
            &mut cache,
            &mut pool,
        )
        .unwrap();
        assert_eq!(moved(&before, "api.pool.miss"), 1);
        assert_eq!(pool.checkouts(), 0);
        assert_eq!(k.process(c).unwrap().name, "tool");
        assert_eq!(cache.misses(), 1, "slow path still warms the cache");
    }

    #[test]
    fn failed_checkout_reparks_the_child() {
        let (mut k, init, reg) = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 1)
            .unwrap();
        let procs_before = k.process_count();

        // A bad file action fails the checkout after adoption.
        let actions = vec![FileAction::Close { fd: Fd(42) }];
        let r = spawn_fast(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            4,
            &mut cache,
            &mut pool,
        );
        assert_eq!(r, Err(Errno::Ebadf));
        assert_eq!(pool.available("/bin/tool"), 1, "child re-parked");
        assert_eq!(k.process_count(), procs_before);
        k.check_invariants().unwrap();

        // The re-parked child is still perfectly good.
        let c = spawn_fast(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            5,
            &mut cache,
            &mut pool,
        )
        .unwrap();
        assert_eq!(pool.checkouts(), 1);
        let cp = k.process(c).unwrap();
        assert_eq!(cp.fds.open_count(), 3);
        let layout = cp.layout;
        assert_eq!(
            k.read_mem(c, Vpn(layout.stack_base - 1)),
            Ok(0xdead),
            "startup stack write survived park → fail → re-park → checkout"
        );
    }

    #[test]
    fn checkout_respects_the_callers_nproc_limit() {
        let (mut k, init, reg) = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 1)
            .unwrap();
        let parent = posix_spawn(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            7,
            None,
        )
        .unwrap();
        k.process_mut(parent)
            .unwrap()
            .rlimits
            .set(Resource::Nproc, Rlimit::both(1));
        let r = spawn_fast(
            &mut k,
            parent,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            8,
            &mut cache,
            &mut pool,
        );
        assert_eq!(r, Err(Errno::Eagain), "a pool hit cannot evade RLIMIT_NPROC");
        assert_eq!(pool.available("/bin/tool"), 1, "child stays parked");
        k.check_invariants().unwrap();
    }

    #[test]
    fn file_actions_work_through_the_fast_path() {
        let (mut k, init, reg) = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 1)
            .unwrap();
        let actions = vec![FileAction::Open {
            fd: STDOUT,
            path: "/fast.txt".into(),
            flags: fpr_kernel::OpenFlags::WRONLY,
            create: true,
        }];
        let c = spawn_fast(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            9,
            &mut cache,
            &mut pool,
        )
        .unwrap();
        assert_eq!(pool.checkouts(), 1);
        k.write_fd(c, STDOUT, b"via pool").unwrap();
        let ino = k.vfs.resolve("/fast.txt", k.vfs.root()).unwrap();
        assert_eq!(k.vfs.read_at(ino, 0, 16).unwrap(), b"via pool");
    }

    #[test]
    fn pool_shrink_drains_oldest_first_and_parked_children_are_oom_exempt() {
        let (mut k, init, reg) = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 3)
            .unwrap();
        // Parked children are pure cache: the OOM killer skips them.
        for pid in k.pids() {
            if pid != init {
                assert_eq!(k.oom_badness(pid), None, "parked child is exempt");
            }
        }
        let procs_before = k.process_count();
        let before = metrics::snapshot();
        let freed = pool.shrink(&mut k, 1).unwrap();
        assert!(freed >= 1, "a parked child has private frames to give");
        assert_eq!(pool.total_parked(), 2);
        assert_eq!(moved(&before, "api.pool.reclaim"), 1);
        assert_eq!(k.process_count(), procs_before - 1);

        // A checked-out child becomes a normal process again: killable.
        let c = spawn_fast(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            21,
            &mut cache,
            &mut pool,
        )
        .unwrap();
        assert!(k.oom_badness(c).is_some(), "checked-out child is visible");

        pool.shrink(&mut k, u64::MAX).unwrap();
        assert_eq!(pool.total_parked(), 0);
        cache.clear(&mut k);
        k.check_invariants().unwrap();
    }

    #[test]
    fn thrashing_swap_throttles_prefill() {
        let mut k = Kernel::new(fpr_kernel::MachineConfig {
            frames: 256,
            swap_slots: 16,
            ..fpr_kernel::MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        // Provoke a refault storm: evict eight pages, fault them all
        // straight back.
        let base = k
            .mmap_anon(init, 8, fpr_mem::Prot::RW, fpr_mem::Share::Private)
            .unwrap();
        for i in 0..8 {
            k.write_mem(init, Vpn(base.0 + i), i).unwrap();
        }
        assert_eq!(k.swap_out_pass(8), Ok(8));
        for i in 0..8 {
            assert_eq!(k.read_mem(init, Vpn(base.0 + i)), Ok(i));
        }
        assert!(k.swap_thrashing());

        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        let before = metrics::snapshot();
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 3)
            .unwrap();
        assert_eq!(pool.available("/bin/tool"), 0, "refill waits out the storm");
        assert_eq!(moved(&before, "api.pool.throttled"), 1);
        assert_eq!(moved(&before, "api.pool.refill"), 0);
        k.check_invariants().unwrap();
    }

    #[test]
    fn autoscale_tops_up_to_target_under_easy_memory() {
        let (mut k, init, reg) = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        let built = pool
            .autoscale(&mut k, &reg, &mut cache, "/bin/tool", 4)
            .unwrap();
        assert_eq!(built, 4);
        assert_eq!(pool.available("/bin/tool"), 4);
        // At target: a second tick is a no-op.
        let again = pool
            .autoscale(&mut k, &reg, &mut cache, "/bin/tool", 4)
            .unwrap();
        assert_eq!(again, 0);
        // One checkout later, the next tick replaces exactly the one.
        let _ = spawn_fast(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            31,
            &mut cache,
            &mut pool,
        )
        .unwrap();
        let topped = pool
            .autoscale(&mut k, &reg, &mut cache, "/bin/tool", 4)
            .unwrap();
        assert_eq!(topped, 1);
        k.check_invariants().unwrap();
    }

    #[test]
    fn autoscale_refuses_to_grow_under_high_pressure() {
        let mut k = Kernel::new(fpr_kernel::MachineConfig {
            frames: 512,
            overcommit: fpr_mem::OvercommitPolicy::Always,
            ..fpr_kernel::MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        // Eat frames until free memory drops below the low watermark.
        let wm = k.phys.watermarks();
        let eat = k.phys.free_frames() - wm.low + 8;
        let base = k
            .mmap_anon(init, eat, fpr_mem::Prot::RW, fpr_mem::Share::Private)
            .unwrap();
        for i in 0..eat {
            k.write_mem(init, Vpn(base.0 + i), 1).unwrap();
        }
        assert!(k.memory_pressure() >= PressureLevel::High);

        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        let before = metrics::snapshot();
        let built = pool
            .autoscale(&mut k, &reg, &mut cache, "/bin/tool", 4)
            .unwrap();
        assert_eq!(built, 0, "autoscale must not fight reclaim");
        assert_eq!(pool.available("/bin/tool"), 0);
        assert_eq!(moved(&before, "api.pool.autoscale_skipped"), 1);
        k.check_invariants().unwrap();
    }

    /// A shrinker reports the frames its own cell gave back, whatever a
    /// neighbour cell draws from the shared pool meanwhile: cell 0 shrinks
    /// its warm pool a child at a time and then its image cache while
    /// cell 1 demand-fills pages on another thread. Counting off the
    /// machine's free frames instead, a block cell 1 reserved between two
    /// reads made the count underflow — which only an interleaving of the
    /// two threads shows.
    #[test]
    fn shrinkers_count_their_own_cells_frames_while_a_neighbour_allocates() {
        use fpr_kernel::{MachineConfig, Shrinker, SmpShared};
        let cfg = MachineConfig { frames: 1 << 15, ..MachineConfig::default() };
        let shared = SmpShared::new(&cfg, 2);
        let (mut k0, mut k1) = (Kernel::new_smp(cfg.clone(), &shared, 0), Kernel::new_smp(cfg, &shared, 1));
        let (init0, init1) = (k0.create_init("init").unwrap(), k1.create_init("init").unwrap());
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        let (mut cache, mut pool) = (ImageCache::new(), WarmPool::new(init0));
        pool.prefill(&mut k0, &reg, &mut cache, "/bin/tool", 48).unwrap();
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                let base = k1.mmap_anon(init1, 8192, fpr_mem::Prot::RW, fpr_mem::Share::Private).unwrap();
                for i in (0..8192).take_while(|_| !done.load(Relaxed)) {
                    k1.write_mem(init1, Vpn(base.0 + i), i).unwrap();
                    started.store(true, Relaxed);
                }
            });
            while !started.load(Relaxed) {
                std::hint::spin_loop();
            }
            let shrink = |shrinker: &mut dyn Shrinker, k0: &mut Kernel| {
                let used = k0.phys.used_frames();
                let freed = shrinker.shrink(k0, 1).unwrap();
                assert_eq!(freed, used - k0.phys.used_frames(), "{}", shrinker.fault_site());
                freed > 0
            };
            while shrink(&mut pool, &mut k0) {}
            while shrink(&mut cache, &mut k0) {}
            done.store(true, Relaxed);
        });
        assert_eq!((pool.total_parked(), cache.cached_frames()), (0, 0));
        k0.check_invariants().unwrap();
    }

    #[test]
    fn drain_tears_the_pool_down_cleanly() {
        let (mut k, init, reg) = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        let procs_before = k.process_count();
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 3)
            .unwrap();
        pool.drain(&mut k).unwrap();
        assert_eq!(pool.total_parked(), 0);
        assert_eq!(k.process_count(), procs_before);
        cache.clear(&mut k);
        k.check_invariants().unwrap();
    }
}
