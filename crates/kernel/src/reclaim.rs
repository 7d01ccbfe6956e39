//! Memory-pressure reclaim: the shrinker registry and the kernel-driven
//! reclaim pass.
//!
//! The paper's overcommit section observes that fork-style memory
//! accounting makes exhaustion arrive as an OOM kill "at the worst
//! possible time". This module gives the kernel a gentler first response:
//! subsystems that hold *reclaimable* memory — the exec image cache and
//! the warm-child pool from the spawn fast path — register a [`Shrinker`]
//! and the kernel asks them to give frames back before anyone is killed.
//! The cost of reclaim is degraded spawn latency (back toward the classic
//! path), not a dead process.
//!
//! ## Transactionality
//!
//! A reclaim pass must be safe to inject faults into: the faultsweep
//! acceptance for this subsystem is *kernel at baseline after every
//! injection*. Partial reclaim (shrinker A freed frames, then shrinker
//! B's fault site failed) would leave the machine changed-but-Err, which
//! the sweeps would flag as a leak of intent if not of frames. So
//! [`Kernel::reclaim`] is two-phase: it first crosses **every**
//! participating shrinker's fault site, and only when all crossings
//! survive does any shrinker mutate. An injected failure therefore always
//! aborts the pass before the first freed frame.
//!
//! ## Re-entrancy
//!
//! Shrinkers live above the kernel (`fpr-exec`, `fpr-api`) and are shared
//! via `Arc<Mutex<…>>` (the registry is part of the kernel's `Send`
//! surface); the kernel holds only [`Weak`] references, so dropping the
//! owning subsystem (e.g. `Os::disable_spawn_fastpath`) unregisters
//! automatically. Direct reclaim can fire while the fast path itself
//! holds the cache lock (spawn under pressure); `try_lock` skips busy
//! shrinkers instead of deadlocking. One attempt, no pause: a handle is
//! registered with exactly one kernel and lives inside that cell's `Os`
//! behind its `mm` lock, so whoever holds it is the caller's own fast
//! path further up the stack, and waiting for it would wait forever.

use crate::error::KResult;
use crate::kernel::Kernel;
use fpr_faults::FaultSite;
use fpr_mem::PressureLevel;
use std::sync::{Arc, Mutex, Weak};

/// A subsystem that can give frames back to the kernel under memory
/// pressure.
pub trait Shrinker {
    /// The fault site a reclaim pass crosses on this shrinker's behalf
    /// *before* any shrinker mutates (see the module docs).
    fn fault_site(&self) -> FaultSite;

    /// Upper bound on frames this shrinker could free right now. A zero
    /// answer excludes it from the pass (and from fault crossings).
    fn reclaimable(&self, kernel: &Kernel) -> u64;

    /// Frees up to `target` frames, returning how many were freed. Must
    /// not cross fault sites (the pass already did) and must leave its
    /// subsystem consistent at every return.
    fn shrink(&mut self, kernel: &mut Kernel, target: u64) -> KResult<u64>;
}

/// Strong handle to a registered shrinker; the owning subsystem keeps
/// this alive, the kernel only holds a [`Weak`].
pub type ShrinkerHandle = Arc<Mutex<dyn Shrinker + Send>>;

/// Cumulative reclaim statistics, for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Reclaim passes that ran at least one shrinker.
    pub passes: u64,
    /// Frames freed by shrinkers, cumulative.
    pub frames_reclaimed: u64,
    /// Passes aborted by an injected fault before any mutation.
    pub aborted_passes: u64,
    /// Swap-out passes that evicted at least one page.
    pub swap_out_passes: u64,
    /// Pages evicted to the swap device, cumulative.
    pub pages_swapped_out: u64,
    /// Swap-out passes aborted by an injected fault, byte-identically.
    pub aborted_swap_passes: u64,
}

impl Kernel {
    /// Registers a shrinker. The kernel keeps a weak reference: dropping
    /// every strong handle unregisters it on the next pass.
    pub fn register_shrinker(&mut self, shrinker: &ShrinkerHandle) {
        self.shrinkers.push(Arc::downgrade(shrinker));
    }

    /// Drops every registered shrinker (the E12 baseline arm: reclaimable
    /// frames sit pinned while the OOM killer picks victims).
    pub fn clear_shrinkers(&mut self) {
        self.shrinkers.clear();
    }

    /// Number of currently live (upgradable) shrinkers.
    pub(crate) fn live_shrinker_count(&mut self) -> usize {
        self.shrinkers.retain(|w| w.strong_count() > 0);
        self.shrinkers.len()
    }

    /// The machine's current memory-pressure level.
    pub fn memory_pressure(&self) -> PressureLevel {
        self.phys.pressure()
    }

    /// Runs a reclaim pass asking registered shrinkers for `target`
    /// frames, LRU-first within each shrinker. Returns the number of
    /// frames actually freed (possibly less than `target`, possibly 0).
    ///
    /// Two-phase (see module docs): every participating shrinker's fault
    /// site is crossed before any shrinker mutates, so an `Err` from this
    /// function always leaves the kernel byte-identical to before the
    /// call.
    pub fn reclaim(&mut self, target: u64) -> KResult<u64> {
        if target == 0 {
            return Ok(0);
        }
        self.shrinkers.retain(|w| w.strong_count() > 0);
        if self.shrinkers.is_empty() {
            return Ok(0);
        }
        // Phase 0: who can participate? Busy shrinkers (the fast path is
        // mid-spawn holding the lock) and empty ones sit the pass out.
        let ready: Vec<ShrinkerHandle> = self
            .shrinkers
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|h| h.try_lock().is_ok_and(|guard| guard.reclaimable(self) > 0))
            .collect();
        if ready.is_empty() {
            return Ok(0);
        }
        // Phase 1: cross every fault site before any mutation.
        for h in &ready {
            let site = h.lock().unwrap_or_else(|p| p.into_inner()).fault_site();
            if let Err(e) = fpr_faults::cross(site).map_err(|_| crate::error::Errno::Enomem) {
                self.reclaim_stats.aborted_passes += 1;
                return Err(e);
            }
        }
        // Phase 2: shrink until the target is met or everyone is empty.
        self.span("reclaim", "kernel", |k| {
            let stall_start = k.cycles.total();
            let mut freed = 0u64;
            for h in &ready {
                if freed >= target {
                    break;
                }
                let mut guard = h.lock().unwrap_or_else(|p| p.into_inner());
                freed += guard.shrink(k, target - freed)?;
            }
            k.reclaim_stats.passes += 1;
            k.reclaim_stats.frames_reclaimed += freed;
            let stalled = k.cycles.total() - stall_start;
            k.phys.note_stall(stalled);
            Ok(freed)
        })
    }

    /// Background-style pressure balancing (kswapd): if free frames have
    /// dropped below the low watermark and shrinkers are registered,
    /// reclaims up to the high watermark. Zero cost and zero effect when
    /// there is no pressure or nothing registered — callers may invoke it
    /// freely on hot paths.
    ///
    /// Injected faults during the pass are swallowed here (background
    /// reclaim failing must not fail the foreground operation); use
    /// [`Kernel::reclaim`] directly to observe them.
    pub fn balance_pressure(&mut self) -> u64 {
        if self.shrinkers.is_empty() && !self.phys.swap().enabled() {
            return 0;
        }
        if self.phys.free_frames() >= self.phys.watermarks().low {
            return 0;
        }
        let target = self.phys.reclaim_target();
        let mut freed = self.reclaim(target).unwrap_or(0);
        if freed < target && self.swap_could_help() {
            freed += self.swap_out_pass(target - freed).unwrap_or(0);
        }
        freed
    }

    /// The reclaim tier *below* the shrinkers: evicts sole-owner private
    /// anonymous pages to the swap device, clean pages first. Runs only
    /// after cache/pool shrinking has come up short, and before anyone
    /// considers the OOM killer.
    ///
    /// Two-phase like [`Kernel::reclaim`]: the pass-level
    /// [`FaultSite::SwapOut`] site is crossed before any mutation, and
    /// each page's [`FaultSite::SwapSlotAlloc`] crossing happens while
    /// slots are being reserved — an injected failure there returns every
    /// already-reserved slot, so an `Err` always leaves the kernel
    /// byte-identical. Only after every slot is held does the infallible
    /// commit rewrite PTEs, release frames, and issue one batched TLB
    /// shootdown.
    pub fn swap_out_pass(&mut self, target: u64) -> KResult<u64> {
        let budget = target.min(self.phys.swap().free_slots());
        if budget == 0 {
            return Ok(0);
        }
        // Phase 0: gather eviction candidates across live processes.
        let mut work: Vec<(crate::pid::Pid, fpr_mem::Vpn)> = Vec::new();
        for p in self.procs.iter() {
            let room = budget as usize - work.len();
            if room == 0 {
                break;
            }
            if p.is_zombie() || p.space_ref != crate::task::SpaceRef::Owned {
                continue;
            }
            for vpn in p.aspace.swap_out_candidates(&self.phys, room) {
                work.push((p.pid, vpn));
            }
        }
        if work.is_empty() {
            return Ok(0);
        }
        // Phase 1: the pass-level fault site, before any mutation.
        if fpr_faults::cross(FaultSite::SwapOut).is_err() {
            self.reclaim_stats.aborted_swap_passes += 1;
            return Err(crate::error::Errno::Enomem);
        }
        // Phase 2: reserve one slot per page (each crossing
        // SwapSlotAlloc); an injected failure unwinds every reservation.
        self.span("swap_out", "kernel", |k| {
            let stall_start = k.cycles.total();
            let mut reserved: Vec<(crate::pid::Pid, fpr_mem::Vpn, u64)> = Vec::new();
            for (pid, vpn) in work {
                let pte = k
                    .process(pid)
                    .expect("candidate process live")
                    .aspace
                    .translate(vpn)
                    .expect("candidate just enumerated");
                let stamp = k.phys.content(pte.pfn).expect("candidate frame live");
                match k.phys.swap_out_page(stamp, &mut k.cycles) {
                    Ok(slot) => reserved.push((pid, vpn, slot)),
                    Err(_) => {
                        for (_, _, slot) in reserved {
                            k.phys.swap_mut().unalloc_slot(slot);
                        }
                        k.reclaim_stats.aborted_swap_passes += 1;
                        return Err(crate::error::Errno::Enomem);
                    }
                }
            }
            // Phase 3: infallible commit — PTE rewrites, frame releases,
            // and one batched shootdown for every stale translation at
            // once.
            let evicted = reserved.len() as u64;
            let mut max_cpus = 0u32;
            let mut affected: Vec<crate::pid::Pid> = Vec::new();
            for (pid, vpn, slot) in reserved {
                let m = k.mem_ctx(pid).expect("candidate process live");
                m.space.swap_out_commit(vpn, slot, m.phys, m.cycles);
                if affected.last() != Some(&pid) {
                    affected.push(pid);
                }
            }
            for pid in affected {
                max_cpus = max_cpus.max(k.cpus_running(pid));
            }
            k.tlb.shootdown(max_cpus, &mut k.cycles, k.phys.cost());
            k.reclaim_stats.swap_out_passes += 1;
            k.reclaim_stats.pages_swapped_out += evicted;
            let stalled = k.cycles.total() - stall_start;
            k.phys.note_stall(stalled);
            Ok(evicted)
        })
    }

    /// True when the swap tier could make progress: the device has free
    /// slots, there is real pressure, and some live process owns an
    /// evictable page.
    pub(crate) fn swap_could_help(&mut self) -> bool {
        if self.phys.swap().free_slots() == 0 {
            return false;
        }
        if self.phys.pressure() == PressureLevel::None {
            return false;
        }
        self.procs.iter().any(|p| {
            !p.is_zombie()
                && p.space_ref == crate::task::SpaceRef::Owned
                && !p.aspace.swap_out_candidates(&self.phys, 1).is_empty()
        })
    }

    /// True when a failed allocation is worth retrying after reclaim:
    /// there is real pressure and at least one live shrinker with frames
    /// to give. Used by direct-reclaim call sites and by
    /// `fpr-api::retry_with_backoff` as backpressure.
    pub(crate) fn reclaim_could_help(&mut self) -> bool {
        if self.live_shrinker_count() == 0 {
            return false;
        }
        if self.phys.pressure() == PressureLevel::None {
            return false;
        }
        let handles: Vec<ShrinkerHandle> =
            self.shrinkers.iter().filter_map(Weak::upgrade).collect();
        handles.iter().any(|h| match h.try_lock() {
            Ok(guard) => guard.reclaimable(self) > 0,
            Err(_) => false,
        })
    }

    /// Cumulative reclaim statistics.
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.reclaim_stats
    }

    /// Direct reclaim on an allocation failure: shrinks caches first,
    /// then falls through to the swap tier if the shrinkers came up
    /// short, returning true when any frames were actually freed — the
    /// caller's cue to retry the failed operation exactly once. The OOM
    /// killer is never invoked from here; it remains the policy of the
    /// layer above, and with a working swap tier it fires only when swap
    /// is full *and* this path returns false.
    ///
    /// The pressure gates matter for fault injection: an *injected*
    /// `ENOMEM` in an unpressured world must surface to its sweep, not be
    /// papered over by a retry.
    pub(crate) fn direct_reclaim(&mut self) -> bool {
        let target = self.phys.reclaim_target().max(1);
        let mut freed = 0;
        if self.reclaim_could_help() {
            freed = self.reclaim(target).unwrap_or(0);
        }
        if freed < target && self.swap_could_help() {
            freed += self.swap_out_pass(target - freed).unwrap_or(0);
        }
        freed > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::MachineConfig;
    use fpr_faults::FaultPlan;

    /// A test shrinker over a bag of frames the kernel allocated for it.
    struct FrameBag {
        frames: Vec<fpr_mem::Pfn>,
    }

    impl Shrinker for FrameBag {
        fn fault_site(&self) -> FaultSite {
            FaultSite::ReclaimShrink
        }
        fn reclaimable(&self, _k: &Kernel) -> u64 {
            self.frames.len() as u64
        }
        fn shrink(&mut self, k: &mut Kernel, target: u64) -> KResult<u64> {
            let mut freed = 0;
            while freed < target {
                let Some(f) = self.frames.pop() else { break };
                k.phys.dec_ref(f, &mut k.cycles).map_err(|_| crate::error::Errno::Enomem)?;
                freed += 1;
            }
            Ok(freed)
        }
    }

    fn small_kernel(frames: u64) -> Kernel {
        Kernel::new(MachineConfig {
            frames,
            ..MachineConfig::default()
        })
    }

    fn bag_with(k: &mut Kernel, n: usize) -> Arc<Mutex<FrameBag>> {
        let mut frames = Vec::new();
        for _ in 0..n {
            frames.push(k.phys.alloc_zeroed(&mut k.cycles).unwrap());
        }
        Arc::new(Mutex::new(FrameBag { frames }))
    }

    #[test]
    fn reclaim_frees_up_to_target_and_counts() {
        let mut k = small_kernel(64);
        let bag = bag_with(&mut k, 16);
        k.register_shrinker(&(bag.clone() as ShrinkerHandle));
        assert_eq!(k.reclaim(10), Ok(10));
        assert_eq!(bag.lock().unwrap().frames.len(), 6);
        assert_eq!(k.reclaim_stats().frames_reclaimed, 10);
        assert_eq!(k.reclaim_stats().passes, 1);
    }

    #[test]
    fn reclaim_with_no_shrinkers_is_free_and_zero() {
        let mut k = small_kernel(64);
        let before = k.cycles.total();
        assert_eq!(k.reclaim(100), Ok(0));
        assert_eq!(k.cycles.total(), before);
        assert_eq!(k.reclaim_stats(), ReclaimStats::default());
    }

    #[test]
    fn dropping_the_handle_unregisters() {
        let mut k = small_kernel(64);
        let bag = bag_with(&mut k, 4);
        k.register_shrinker(&(bag.clone() as ShrinkerHandle));
        assert_eq!(k.live_shrinker_count(), 1);
        // Give the frames back so dropping the bag doesn't leak them.
        assert_eq!(k.reclaim(4), Ok(4));
        drop(bag);
        assert_eq!(k.live_shrinker_count(), 0);
        assert_eq!(k.reclaim(10), Ok(0));
    }

    #[test]
    fn busy_shrinker_is_skipped_not_deadlocked() {
        let mut k = small_kernel(64);
        let bag = bag_with(&mut k, 4);
        k.register_shrinker(&(bag.clone() as ShrinkerHandle));
        let guard = bag.lock().unwrap(); // the subsystem is mid-operation
        assert_eq!(k.reclaim(4), Ok(0));
        drop(guard);
        assert_eq!(k.reclaim(4), Ok(4));
    }

    #[test]
    fn single_cell_busy_shrinker_costs_no_retry_cycles() {
        let mut k = small_kernel(64);
        let bag = bag_with(&mut k, 4);
        k.register_shrinker(&(bag.clone() as ShrinkerHandle));
        let guard = bag.lock().unwrap();
        let before = k.cycles.total();
        assert_eq!(k.reclaim(4), Ok(0));
        assert_eq!(
            k.cycles.total(),
            before,
            "one attempt, no pause, on every machine"
        );
        drop(guard);
    }

    #[test]
    fn injected_fault_aborts_before_any_mutation() {
        let mut k = small_kernel(64);
        let bag = bag_with(&mut k, 8);
        k.register_shrinker(&(bag.clone() as ShrinkerHandle));
        let free_before = k.phys.free_frames();
        let (res, trace) = fpr_faults::with_plan(
            FaultPlan::passive().fail_nth_crossing(0),
            || k.reclaim(8),
        );
        assert_eq!(trace.injected().len(), 1);
        assert!(res.is_err());
        assert_eq!(bag.lock().unwrap().frames.len(), 8, "no shrinker mutated");
        assert_eq!(k.phys.free_frames(), free_before);
        assert_eq!(k.reclaim_stats().aborted_passes, 1);
        assert_eq!(k.reclaim_stats().passes, 0);
        // And the pass succeeds on retry.
        assert_eq!(k.reclaim(8), Ok(8));
    }

    fn swap_kernel(frames: u64, slots: u64) -> (Kernel, crate::pid::Pid) {
        let mut k = Kernel::new(MachineConfig {
            frames,
            swap_slots: slots,
            ..MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    fn write_pages(k: &mut Kernel, pid: crate::pid::Pid, base: fpr_mem::Vpn, n: u64) {
        for i in 0..n {
            k.write_mem(pid, fpr_mem::Vpn(base.0 + i), 0xAB00 + i).unwrap();
        }
    }

    #[test]
    fn swap_out_evicts_and_faults_bring_pages_back() {
        let (mut k, init) = swap_kernel(256, 128);
        let base = k
            .mmap_anon(init, 32, fpr_mem::Prot::RW, fpr_mem::Share::Private)
            .unwrap();
        write_pages(&mut k, init, base, 32);
        assert_eq!(k.swap_out_pass(16), Ok(16));
        assert_eq!(k.process(init).unwrap().aspace.swapped_pages(), 16);
        assert_eq!(k.phys.swap().used_slots(), 16);
        assert_eq!(k.reclaim_stats().pages_swapped_out, 16);
        k.assert_consistent();
        // Faulting every page back restores the exact contents and frees
        // the slots.
        for i in 0..32 {
            assert_eq!(
                k.read_mem(init, fpr_mem::Vpn(base.0 + i)),
                Ok(0xAB00 + i)
            );
        }
        assert_eq!(k.process(init).unwrap().aspace.swapped_pages(), 0);
        assert_eq!(k.phys.swap().used_slots(), 0);
        assert_eq!(k.phys.swap().stats().swap_ins, 16);
        k.assert_consistent();
    }

    #[test]
    fn injected_swap_out_fault_aborts_byte_identical() {
        let (mut k, init) = swap_kernel(256, 64);
        let vbase = k
            .mmap_anon(init, 16, fpr_mem::Prot::RW, fpr_mem::Share::Private)
            .unwrap();
        write_pages(&mut k, init, vbase, 16);
        let base = k.baseline();
        let (res, trace) = fpr_faults::with_plan(
            FaultPlan::passive().fail_at(FaultSite::SwapOut, 0),
            || k.swap_out_pass(8),
        );
        assert_eq!(trace.injected().len(), 1);
        assert!(res.is_err());
        k.leak_check(&base).unwrap();
        k.assert_consistent();
        assert_eq!(k.reclaim_stats().aborted_swap_passes, 1);
        assert_eq!(k.reclaim_stats().swap_out_passes, 0);
        // And the identical pass succeeds on retry.
        assert_eq!(k.swap_out_pass(8), Ok(8));
    }

    #[test]
    fn injected_slot_alloc_fault_unwinds_every_reservation() {
        let (mut k, init) = swap_kernel(256, 64);
        let vbase = k
            .mmap_anon(init, 16, fpr_mem::Prot::RW, fpr_mem::Share::Private)
            .unwrap();
        write_pages(&mut k, init, vbase, 16);
        let base = k.baseline();
        // Fail the *fourth* slot reservation: three slots are already held
        // and must all be returned.
        let (res, trace) = fpr_faults::with_plan(
            FaultPlan::passive().fail_at(FaultSite::SwapSlotAlloc, 3),
            || k.swap_out_pass(8),
        );
        assert_eq!(trace.injected().len(), 1);
        assert!(res.is_err());
        assert_eq!(k.phys.swap().used_slots(), 0);
        k.leak_check(&base).unwrap();
        k.assert_consistent();
        assert_eq!(k.reclaim_stats().aborted_swap_passes, 1);
    }

    #[test]
    fn swap_in_io_error_is_contained_to_the_faulting_process() {
        let (mut k, init) = swap_kernel(256, 64);
        let child = k.allocate_process(init, "victim").unwrap();
        let vbase = k
            .mmap_anon(child, 8, fpr_mem::Prot::RW, fpr_mem::Share::Private)
            .unwrap();
        write_pages(&mut k, child, vbase, 8);
        assert_eq!(k.swap_out_pass(8), Ok(8));
        let (res, trace) = fpr_faults::with_plan(
            FaultPlan::passive().fail_at(FaultSite::SwapIn, 0),
            || k.read_mem(child, vbase),
        );
        assert_eq!(trace.injected().len(), 1);
        assert_eq!(res, Err(crate::error::Errno::Efault));
        assert_eq!(k.phys.swap().stats().io_errors, 1);
        // Only the faulting process died — SIGBUS-style — and its exit
        // released every frame and swap slot it held.
        assert!(k.process(child).unwrap().is_zombie());
        let (pid, status) = k.waitpid(init, Some(child)).unwrap().unwrap();
        assert_eq!(pid, child);
        assert_eq!(status, crate::lifecycle::SIGBUS_EXIT_STATUS);
        assert_eq!(k.phys.swap().used_slots(), 0);
        k.assert_consistent();
    }

    #[test]
    fn swap_tier_stays_idle_without_pressure() {
        let (mut k, init) = swap_kernel(262_144, 64);
        let vbase = k
            .mmap_anon(init, 8, fpr_mem::Prot::RW, fpr_mem::Share::Private)
            .unwrap();
        write_pages(&mut k, init, vbase, 8);
        assert!(!k.swap_could_help(), "no pressure, no eviction");
        assert!(!k.direct_reclaim());
        assert_eq!(k.phys.swap().used_slots(), 0);
    }

    #[test]
    fn write_storm_swaps_instead_of_oom_killing() {
        // 160 pages of dirty anonymous memory on a 128-frame machine
        // (two mappings: heuristic overcommit refuses a single oversize
        // charge): without swap this storm must kill someone; with it,
        // direct reclaim evicts cold pages and every write lands.
        let (mut k, init) = swap_kernel(128, 256);
        let a = k
            .mmap_anon(init, 80, fpr_mem::Prot::RW, fpr_mem::Share::Private)
            .unwrap();
        let b = k
            .mmap_anon(init, 80, fpr_mem::Prot::RW, fpr_mem::Share::Private)
            .unwrap();
        write_pages(&mut k, init, a, 80);
        write_pages(&mut k, init, b, 80);
        let p = k.process(init).unwrap();
        assert!(!p.is_zombie(), "init survived the storm");
        assert_eq!(
            p.resident_pages() + p.aspace.swapped_pages(),
            160,
            "every page is resident or swapped"
        );
        assert!(k.reclaim_stats().pages_swapped_out > 0);
        k.assert_consistent();
        // Spot-check contents across the resident/swapped split.
        for i in [0u64, 42, 79] {
            assert_eq!(k.read_mem(init, fpr_mem::Vpn(a.0 + i)), Ok(0xAB00 + i));
            assert_eq!(k.read_mem(init, fpr_mem::Vpn(b.0 + i)), Ok(0xAB00 + i));
        }
    }

    #[test]
    fn balance_pressure_is_inert_without_pressure() {
        let mut k = small_kernel(262_144);
        let bag = bag_with(&mut k, 8);
        k.register_shrinker(&(bag.clone() as ShrinkerHandle));
        let before = k.cycles.total();
        assert_eq!(k.balance_pressure(), 0);
        assert_eq!(k.cycles.total(), before);
        assert_eq!(bag.lock().unwrap().frames.len(), 8);
        assert_eq!(k.reclaim(8), Ok(8)); // cleanup
    }

    #[test]
    fn balance_pressure_reclaims_toward_high_watermark() {
        let mut k = small_kernel(256);
        let w = k.phys.watermarks();
        // Pin the machine below the low watermark with bag frames.
        let mut frames = Vec::new();
        while k.phys.free_frames() >= w.low {
            frames.push(k.phys.alloc_zeroed(&mut k.cycles).unwrap());
        }
        let bag = Arc::new(Mutex::new(FrameBag { frames }));
        k.register_shrinker(&(bag.clone() as ShrinkerHandle));
        assert!(k.memory_pressure() >= PressureLevel::High);
        let freed = k.balance_pressure();
        assert!(freed > 0);
        assert!(k.phys.free_frames() >= w.high);
        assert_eq!(k.memory_pressure(), PressureLevel::None);
        // Drain the rest for a clean world.
        let rest = bag.lock().unwrap().frames.len() as u64;
        assert_eq!(k.reclaim(rest), Ok(rest));
    }
}
