//! The SMP driver: several [`Os`] cells over one shared machine, driven
//! by real OS threads.
//!
//! The tentpole claim of the multicore experiment (E16) is that the
//! simulated kernel is genuinely `Send` — process creation can run on
//! concurrent host threads — while *measured* time stays virtual: each
//! worker thread carries its own [`fpr_trace::vclock`], every shared
//! structure is guarded by a named [`VLock`] that prices hand-offs in
//! virtual cycles, and throughput is computed from the slowest worker's
//! virtual elapsed time, not from wall-clock (which on a 1-core CI host
//! would measure the host scheduler, not the simulated machine).
//!
//! A cell is one `Os` facade whose kernel draws frames, PIDs, TLB rounds
//! and the OOM trigger from a machine-wide [`SmpShared`]. The cell itself
//! sits behind a `VLock` named `"mm"` — the per-address-space lock every
//! fork-family call holds — so arms that funnel all workers into one cell
//! reproduce fork's mm-serialization, and arms with a cell per worker
//! show what independent address spaces buy.
//!
//! Lock order (documented in ARCHITECTURE.md): `mm` → `pid` → `buddy` →
//! `tlb`. Workers only ever hold one `mm` lock at a time, and the shared
//! subsystems never call back up into a cell, so the order is acyclic.
//! [`VLock`] *refuses* any acquisition that breaks it: the acquiring
//! thread panics before it can block, so no run that completes took a
//! lock out of order, and no wait-for cycle among these locks can form.
//!
//! ## Fail-stop (E17)
//!
//! `SmpOs::fail_cell` models a cell dying mid-operation at a chosen
//! fault site: the cell takes one last doomed operation with the site
//! armed, is marked dead, and is then *recovered* — its processes
//! reaped (returning their PIDs to the shared table), its reserved block
//! settled and its parked frames drained back to the [`SharedFramePool`],
//! and its stuck
//! machine-wide OOM lease broken — so the machine degrades from N cells
//! to N−1 with zero leaked frames and zero stuck locks. Dead cells are
//! thereafter held to a stricter quiesce standard than survivors: not
//! "back at boot baseline" but *empty*.
//!
//! [`SharedFramePool`]: fpr_mem::SharedFramePool

use crate::os::{Os, OsConfig};
use fpr_faults::{FaultPlan, FaultSite};
use fpr_kernel::{Kernel, KernelBaseline, MachineConfig, SmpShared};
use fpr_trace::smp::{LockStats, VLock};
use fpr_trace::vclock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// The whole point: a cell must be shippable to another OS thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Os>();
    assert_send::<Kernel>();
};

/// A booted SMP machine: shared subsystems plus one lockable cell per
/// logical core.
#[derive(Debug)]
pub struct SmpOs {
    /// Machine-wide shared subsystems (frame pool, PID table, TLB bus,
    /// OOM single-flight guard).
    pub shared: SmpShared,
    cells: Vec<Arc<VLock<Os>>>,
    baselines: Vec<KernelBaseline>,
    /// `dead[c]` is set by [`SmpOs::fail_cell`]; workers poll
    /// [`SmpOs::is_dead`] and route around a failed cell.
    dead: Vec<AtomicBool>,
}

/// What `SmpOs::fail_cell` did, for assertions and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFailure {
    /// Which cell died.
    pub cell: usize,
    /// The fault site armed for the dying operation.
    pub site: FaultSite,
    /// Whether the dying operation actually reached (and was killed at)
    /// the armed site — `false` means the op's path doesn't cross it,
    /// and the cell was fail-stopped right after a clean op instead.
    pub died_at_site: bool,
    /// Processes reaped during evacuation.
    pub evacuated: u64,
    /// Whether the dead cell held the machine-wide OOM lease at death
    /// (recovery broke it; survivors' OOM kills were never blocked).
    pub lease_was_stuck: bool,
}

impl SmpOs {
    /// Boots `ncells` cells over one shared `machine`. Cell `c` seeds its
    /// ASLR stream with the default seed `+ c`, so runs are deterministic
    /// but cells don't mirror each other's layouts. The booting thread's
    /// virtual clock is reset afterwards: virtual time zero is "machine
    /// booted".
    pub fn boot(machine: MachineConfig, ncells: usize) -> SmpOs {
        let shared = SmpShared::new(&machine, ncells);
        let cells: Vec<Arc<VLock<Os>>> = (0..ncells)
            .map(|c| {
                let cell_cfg = OsConfig {
                    machine: machine.clone(),
                    seed: OsConfig::default().seed + c as u64,
                    ..Default::default()
                };
                Arc::new(VLock::new("mm", Os::boot_smp(cell_cfg, &shared, c)))
            })
            .collect();
        vclock::reset();
        let baselines = cells.iter().map(|c| c.lock().kernel.baseline()).collect();
        let dead = (0..ncells).map(|_| AtomicBool::new(false)).collect();
        SmpOs {
            shared,
            cells,
            baselines,
            dead,
        }
    }

    /// Number of cells.
    pub fn ncells(&self) -> usize {
        self.cells.len()
    }

    /// The lock guarding cell `c` (panics if out of range). Workers hold
    /// it for the duration of each kernel operation — it is the mm lock.
    pub fn cell(&self, c: usize) -> &VLock<Os> {
        &self.cells[c]
    }

    /// True once [`SmpOs::fail_cell`] has killed cell `c`. Storm workers
    /// poll this and redirect work to a surviving cell.
    pub(crate) fn is_dead(&self, c: usize) -> bool {
        self.dead[c].load(Ordering::Acquire)
    }

    /// Number of cells still alive.
    pub(crate) fn live_cells(&self) -> usize {
        self.dead
            .iter()
            .filter(|d| !d.load(Ordering::Acquire))
            .count()
    }

    /// Fail-stops cell `c` at fault site `site` and recovers the shared
    /// machine (E17's crash arm). Safe to call while other threads storm
    /// the surviving cells; must not be called inside
    /// [`fpr_faults::with_plan`] (the dying gasp installs its own plan).
    ///
    /// The sequence, all under cell `c`'s mm lock:
    ///
    /// 1. **Die**: one last `fork` runs with `site` armed to inject on
    ///    first crossing — the cell's final operation fails mid-flight
    ///    exactly where the sweep points. (Creation ops are
    ///    transactional, so even the dying gasp leaves no half-made
    ///    state for recovery to trip over.)
    /// 2. **Stick the lease**: if the machine-wide OOM lease is free,
    ///    the dying cell grabs it — modelling the worst case, death
    ///    while holding a cross-cell resource.
    /// 3. **Mark dead** so storm workers stop routing work here.
    /// 4. **Recover**: drain the spawn fast path (warm children are
    ///    real processes), then [`Kernel::evacuate`] — every process
    ///    reaped (PIDs back to the shared table), the reserved block
    ///    settled and the parked frames drained back to the shared pool —
    ///    then break the stuck lease.
    ///
    /// Afterwards [`SmpOs::check_quiesced`] holds the dead cell to the
    /// *empty* standard: zero processes, zero drawn frames.
    pub(crate) fn fail_cell(&self, c: usize, site: FaultSite) -> CellFailure {
        let mut os = self.cells[c].lock();
        let init = os.init;
        let (dying_gasp, trace) =
            fpr_faults::with_plan(FaultPlan::passive().fail_at(site, 0), || {
                os.fork(init)
            });
        // If the armed site wasn't on fork's path, the op survived its own
        // death: its child dies with the cell — evacuation reaps it below.
        let died_at_site = !trace.injected().is_empty();
        debug_assert!(
            !died_at_site || dying_gasp.is_err(),
            "an injected fault must fail the dying operation"
        );
        let lease_was_stuck = self.shared.oom.try_lease(c);
        self.dead[c].store(true, Ordering::Release);
        // Recovery. Evacuation crosses its own fault site; no plan is
        // armed on this thread anymore, so it cannot be injected here.
        let _ = os.disable_spawn_fastpath();
        let evacuated = os
            .kernel
            .evacuate()
            .expect("evacuation runs outside any armed fault plan");
        if lease_was_stuck {
            assert!(
                self.shared.oom.release_lease(c),
                "recovery breaks the dead cell's OOM lease"
            );
        }
        CellFailure {
            cell: c,
            site,
            died_at_site,
            evacuated,
            lease_was_stuck,
        }
    }

    /// Runs `f(worker_index, self)` on `threads` real OS threads and
    /// returns each worker's *virtual* elapsed cycles.
    ///
    /// Every worker's clock starts at the caller's current virtual time,
    /// so release stamps written during setup never read as future
    /// contention.
    pub fn run<F>(&self, threads: usize, f: F) -> Vec<u64>
    where
        F: Fn(usize, &SmpOs) + Send + Sync,
    {
        let epoch = vclock::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let f = &f;
                    s.spawn(move || {
                        vclock::reset();
                        vclock::advance_to(epoch);
                        f(t, self);
                        vclock::now() - epoch
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("smp worker panicked"))
                .collect()
        })
    }

    /// Contention on this machine's locks since it booted, summed by lock
    /// name: `mm` over the cells, `pid` over the PID shards, `buddy` and
    /// `tlb`.
    pub fn lock_stats(&self) -> BTreeMap<&'static str, LockStats> {
        let shared = &self.shared;
        BTreeMap::from([
            ("mm", self.cells.iter().map(|c| c.stats()).sum()),
            ("pid", shared.pids.lock_stats()),
            ("buddy", shared.pool.lock_stats()),
            ("tlb", shared.tlb.lock_stats()),
        ])
    }

    /// Structural violations right now: every cell's
    /// [`Kernel::check_invariants`] plus machine-wide conservation of
    /// frames (every frame is free in the pool or drawn by exactly one
    /// cell) and of PIDs (every PID live in the shared table names a
    /// process-table entry of exactly one cell).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let mut drawn = 0u64;
        let mut procs_total = 0usize;
        for (i, cell) in self.cells.iter().enumerate() {
            let os = cell.lock();
            if let Err(errs) = os.kernel.check_invariants() {
                v.extend(errs.into_iter().map(|e| format!("cell {i}: {e}")));
            }
            if self.is_dead(i) {
                // A recovered dead cell must be *empty*, not merely
                // consistent: anything it still holds is leaked for the
                // rest of the machine's lifetime.
                let procs = os.kernel.process_count();
                if procs != 0 {
                    v.push(format!("dead cell {i}: {procs} processes not reaped"));
                }
                let held = os.kernel.phys.drawn_frames();
                if held != 0 {
                    v.push(format!("dead cell {i}: {held} frames not returned"));
                }
                if self.shared.oom.lease_holder() == Some(i) {
                    v.push(format!("dead cell {i}: OOM lease still stuck"));
                }
            }
            drawn += os.kernel.phys.drawn_frames();
            procs_total += os.kernel.process_count();
        }
        // Read after every cell was visited under its mm lock, like the
        // pool's free count below: exact at quiesce.
        let live_pids = self.shared.pids.live();
        if live_pids != procs_total {
            v.push(format!(
                "pid conservation: {live_pids} live in the shared table != {procs_total} process-table entries"
            ));
        }
        let pool = &self.shared.pool;
        if drawn + pool.free_frames() != pool.total_frames() {
            v.push(format!(
                "frame conservation: {} drawn + {} pool-free != {} total",
                drawn,
                pool.free_frames(),
                pool.total_frames()
            ));
        }
        v
    }

    /// Quiesce check for workloads that destroyed everything they made:
    /// no structural violations, and every *surviving* cell back at its
    /// boot baseline (no leaked frames, PIDs, descriptions, pipes or
    /// commit). Dead cells are instead held to the empty standard
    /// enforced by [`SmpOs::violations`] — a fail-stopped cell can never
    /// return to baseline, but it must hold nothing at all.
    ///
    /// # Panics
    ///
    /// Panics with the full violation list otherwise.
    pub fn check_quiesced(&self) {
        let v = self.violations();
        assert!(
            v.is_empty(),
            "smp invariants violated at quiesce:\n  {}",
            v.join("\n  ")
        );
        for (i, cell) in self.cells.iter().enumerate() {
            if self.is_dead(i) {
                continue;
            }
            let os = cell.lock();
            if let Err(errs) = os.kernel.leak_check(&self.baselines[i]) {
                panic!("cell {i} leaked:\n  {}", errs.join("\n  "));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kit::{CreationPath, Work};
    use fpr_mem::ForkMode;

    #[test]
    fn cells_boot_and_quiesce_clean() {
        let smp = SmpOs::boot(MachineConfig::default(), 2);
        assert_eq!(smp.ncells(), 2);
        assert!(smp.violations().is_empty());
        smp.check_quiesced();
    }

    #[test]
    fn workers_create_and_destroy_concurrently() {
        let smp = SmpOs::boot(MachineConfig::default(), 4);
        let elapsed = smp.run(4, |t, smp| {
            let mut os = smp.cell(t).lock();
            let init = os.init;
            for _ in 0..8 {
                os.serve(init, CreationPath::Fork(ForkMode::Cow), Work::Nothing)
                    .expect("fork, exit, reap");
            }
        });
        assert_eq!(elapsed.len(), 4);
        assert!(elapsed.iter().all(|&e| e > 0), "workers did virtual work");
        smp.check_quiesced();
    }

    #[test]
    fn failed_cell_recovers_to_empty_and_survivors_to_baseline() {
        let smp = SmpOs::boot(MachineConfig::default(), 3);
        // Give the doomed cell something to lose: live children, a warm
        // pool, resident memory.
        {
            let mut os = smp.cell(0).lock();
            let init = os.init;
            os.warm_pool("/bin/sh", 2).unwrap();
            for _ in 0..3 {
                os.fork(init).unwrap();
            }
            assert!(os.kernel.phys.drawn_frames() > 0);
        }
        let shared_live_before = smp.shared.pids.live();

        let f = smp.fail_cell(0, fpr_faults::FaultSite::PidAlloc);
        assert_eq!(f.cell, 0);
        assert!(f.died_at_site, "every fork crosses pid_alloc");
        assert!(f.evacuated >= 4, "init + 3 children at least: {f:?}");
        assert!(f.lease_was_stuck, "the lease was free, so the dying cell stuck it");
        assert!(smp.is_dead(0));
        assert!(!smp.is_dead(1) && !smp.is_dead(2));
        assert_eq!(smp.live_cells(), 2);
        assert!(
            smp.shared.pids.live() < shared_live_before,
            "the dead cell's PIDs went back to the shared table"
        );
        assert_eq!(smp.shared.oom.lease_holder(), None, "no stuck lease");

        // Survivors keep working after the failure…
        let mut os = smp.cell(1).lock();
        let init = os.init;
        os.serve(init, CreationPath::Fork(ForkMode::Cow), Work::Nothing)
            .unwrap();
        drop(os);
        // …and the machine quiesces clean at N−1.
        smp.check_quiesced();
    }

    #[test]
    fn fail_cell_at_an_uncrossed_site_still_fail_stops_clean() {
        let smp = SmpOs::boot(MachineConfig::default(), 2);
        // fork never touches the evacuation site, so the dying gasp
        // succeeds — the cell must die (and clean up the gasp's child)
        // all the same.
        let f = smp.fail_cell(1, fpr_faults::FaultSite::CellEvacuate);
        assert!(!f.died_at_site);
        assert!(f.evacuated >= 2, "init plus the dying gasp's child");
        assert!(smp.is_dead(1));
        smp.check_quiesced();
    }

    #[test]
    fn holding_one_cells_mm_refuses_another() {
        let smp = SmpOs::boot(MachineConfig::default(), 2);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _zero = smp.cell(0).lock();
            let _one = smp.cell(1).lock();
        }));
        let msg = refused.expect_err("a second mm lock is refused");
        let msg = msg.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock order refused: \"mm\""), "{msg}");
        smp.check_quiesced();
    }

    #[test]
    fn workers_sharing_one_cell_serialize() {
        let smp = SmpOs::boot(MachineConfig::default(), 1);
        let solo = smp.run(1, |_, smp| {
            let mut os = smp.cell(0).lock();
            let init = os.init;
            for _ in 0..8 {
                os.serve(init, CreationPath::Spawn("/bin/sh"), Work::Nothing)
                    .expect("spawn, exit, reap");
            }
        });
        assert_eq!(smp.cell(0).stats(), LockStats::default(), "one worker never waits");
        // Four workers hammering the same cell: the slowest worker's
        // virtual time covers (almost) all the work, because every op
        // holds the one mm lock.
        let four = smp.run(4, |_, smp| {
            for _ in 0..8 {
                let mut os = smp.cell(0).lock();
                let init = os.init;
                os.serve(init, CreationPath::Spawn("/bin/sh"), Work::Nothing)
                    .expect("spawn, exit, reap");
            }
        });
        let wall_solo = solo.iter().max().copied().unwrap();
        let wall_four = four.iter().max().copied().unwrap();
        assert!(
            wall_four > wall_solo * 3,
            "4 workers on one mm lock must serialize: {wall_four} vs {wall_solo}"
        );
        // The waits are counted by the cell's lock, and the machine's sum
        // by name is that lock's.
        let mm = smp.cell(0).stats();
        assert!(mm.contended_acquires > 0 && mm.wait_cycles > 0, "{mm:?}");
        assert_eq!(smp.lock_stats()["mm"], mm);
        smp.check_quiesced();
    }
}
