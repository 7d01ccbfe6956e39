//! Process lifecycle: signals, exit, wait, reaping, and the OOM killer.

use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::pid::Pid;
use crate::signal::{DefaultAction, Disposition, Sig};
use crate::task::{ProcState, SpaceRef};
use fpr_trace::metrics;
use std::sync::atomic::{AtomicU64, Ordering};

/// Exit status the OOM killer assigns (128 + SIGKILL).
pub(crate) const OOM_EXIT_STATUS: i32 = 137;

/// Exit status of a process killed by a fatal `SIGBUS` (128 + SIGBUS) —
/// the fate of a process whose swapped-out page the device fails to read
/// back.
pub const SIGBUS_EXIT_STATUS: i32 = 135;

/// The machine's OOM-kill lease.
///
/// Memory pressure on a shared frame pool is machine-wide, so a kill is
/// a machine-wide act: the cell executing one holds the lease for its
/// duration ([`OomGuard::try_lease`] / [`OomGuard::release_lease`]). The
/// lease exists for the failure model: a cell that fail-stops mid-kill
/// leaves it held, and recovery must explicitly release it (the SMP
/// driver's `fail_cell` does) or the machine's OOM killer is wedged
/// forever — exactly the "stuck lock" class of bug E17 tests for.
#[derive(Debug, Default)]
pub struct OomGuard {
    /// 0 = free; `cell + 1` = the cell currently executing a kill.
    owner: AtomicU64,
}

impl OomGuard {
    /// A fresh guard at epoch zero.
    pub(crate) fn new() -> OomGuard {
        OomGuard::default()
    }

    /// Attempts to take the kill lease for `cell`. Fails if any cell
    /// (including a dead one) holds it.
    pub fn try_lease(&self, cell: usize) -> bool {
        self.owner
            .compare_exchange(0, cell as u64 + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Releases the lease if — and only if — `cell` holds it. Recovery
    /// calls this on behalf of a fail-stopped cell; the normal kill path
    /// calls it for itself. Returns whether anything was released.
    pub fn release_lease(&self, cell: usize) -> bool {
        self.owner
            .compare_exchange(cell as u64 + 1, 0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The cell currently holding the kill lease, if any.
    pub fn lease_holder(&self) -> Option<usize> {
        match self.owner.load(Ordering::Acquire) {
            0 => None,
            c => Some(c as usize - 1),
        }
    }
}

impl Kernel {
    /// Installs a signal disposition (`sigaction`).
    pub fn sigaction(&mut self, pid: Pid, sig: Sig, d: Disposition) -> KResult<()> {
        if sig.unblockable() && d != Disposition::Default {
            return Err(Errno::Einval);
        }
        self.process_mut(pid)?.signals.set_disposition(sig, d);
        Ok(())
    }

    /// Blocks or unblocks a signal (`sigprocmask`).
    pub fn sigprocmask(&mut self, pid: Pid, sig: Sig, blocked: bool) -> KResult<()> {
        self.process_mut(pid)?.signals.set_blocked(sig, blocked);
        Ok(())
    }

    /// Sends `sig` to `target` and immediately runs delivery.
    pub fn kill(&mut self, target: Pid, sig: Sig) -> KResult<()> {
        self.charge_syscall();
        {
            let p = self.process_mut(target)?;
            if p.is_zombie() {
                return Ok(());
            }
            p.signals.raise(sig);
        }
        self.deliver_pending(target)
    }

    /// Delivers every deliverable pending signal of `target`:
    /// handlers are logged, defaults are applied (terminate/ignore).
    pub(crate) fn deliver_pending(&mut self, target: Pid) -> KResult<()> {
        loop {
            let (sig, disp) = {
                let p = self.process_mut(target)?;
                match p.signals.take_deliverable() {
                    None => return Ok(()),
                    Some(s) => (s, p.signals.disposition(s)),
                }
            };
            match disp {
                Disposition::Ignore => {}
                Disposition::Handler(h) => self.handler_log.push((target, h.0)),
                Disposition::Default => match sig.default_action() {
                    DefaultAction::Ignore => {}
                    DefaultAction::Stop => { /* job control not modelled further */ }
                    DefaultAction::Terminate => {
                        self.exit(target, 128 + sig.number())?;
                        return Ok(());
                    }
                },
            }
        }
    }

    /// Terminates `pid` with `status`: flushes user streams, releases
    /// descriptors and memory, reparents children to init, zombifies, and
    /// signals the parent with `SIGCHLD`.
    pub fn exit(&mut self, pid: Pid, status: i32) -> KResult<()> {
        self.span("exit", "kernel", |k| {
            metrics::incr("kernel.exit");
            // 1. Userspace atexit: flush buffered streams (this is where
            //    fork-duplicated buffer contents become duplicated output).
            let nstreams = k.process(pid)?.streams.len();
            for s in 0..nstreams {
                let _ = k.stream_flush(pid, s);
            }

            // 2. Give back descriptors, memory (or the vfork loan), the
            //    run-queue slot, timers and the uid's process count.
            k.teardown(pid)?;

            // 3. Any vfork children of the dying process lose their borrow
            //    target; they are killed too (matching Linux, where the
            //    group dies together in this pathological case).
            let (ppid, children, vfork_children) = {
                let p = k.process_mut(pid)?;
                (
                    p.ppid,
                    std::mem::take(&mut p.children),
                    std::mem::take(&mut p.vfork_children),
                )
            };
            for c in vfork_children {
                if k.procs.get(c).is_some() {
                    k.exit(c, OOM_EXIT_STATUS)?;
                }
            }

            // 4. Reparent children to init (PID 1).
            let init = Pid(1);
            for c in children {
                if let Some(cp) = k.procs.get_mut(c) {
                    cp.ppid = init;
                    if let Some(ip) = k.procs.get_mut(init) {
                        ip.children.push(c);
                    }
                }
            }

            // 5. Zombify.
            let p = k.process_mut(pid)?;
            p.state = ProcState::Zombie(status);
            for t in &mut p.threads {
                t.state = crate::thread::ThreadState::Exited;
            }

            // 6. Tell the parent (or auto-reap if the parent is gone/self).
            if ppid != pid && k.procs.get(ppid).is_some() {
                let _ = k.kill(ppid, Sig::Chld);
            } else {
                k.reap(pid)?;
            }
            Ok(())
        })
    }

    /// The one way a process gives back what it holds, behind
    /// [`Kernel::exit`] and [`Kernel::abort_process_creation`]:
    /// descriptors, then memory, then its run-queue slot, pending alarms
    /// and its place in the per-uid process count. The PCB itself stays —
    /// exit zombifies it, abort removes it.
    pub(crate) fn teardown(&mut self, pid: Pid) -> KResult<()> {
        let entries = self.process_mut(pid)?.fds.drain();
        for e in entries {
            crate::io::release_entry(&mut self.ofds, &mut self.pipes, e)?;
        }
        self.release_space(pid)?;
        self.sched.remove_process(pid);
        self.clear_alarms(pid);
        let uid = self.process(pid)?.cred.uid;
        if let Some(c) = self.user_counts.get_mut(&uid) {
            *c = c.saturating_sub(1);
        }
        Ok(())
    }

    /// Leaves `pid` owning an empty address space: an owned space is
    /// destroyed and its commit charge released; a vfork borrower (which
    /// owns nothing) returns the loan and the lender resumes.
    pub(crate) fn release_space(&mut self, pid: Pid) -> KResult<()> {
        match self.process(pid)?.space_ref.clone() {
            SpaceRef::Owned => {
                let m = self.mem_ctx(pid)?;
                let commit = m.space.commit_pages();
                m.space.destroy(m.phys, m.cycles);
                m.commit.release(commit);
            }
            SpaceRef::BorrowedFrom(lender) => {
                self.process_mut(pid)?.space_ref = SpaceRef::Owned;
                self.vfork_return(lender, pid)?;
            }
        }
        Ok(())
    }

    /// Removes a zombie from the table and frees its PID. A running
    /// process is refused with [`Errno::Ebusy`] and left as it was.
    fn reap(&mut self, pid: Pid) -> KResult<i32> {
        let ProcState::Zombie(status) = self.process(pid)?.state else {
            return Err(Errno::Ebusy);
        };
        self.procs.remove(pid);
        self.free_pid(pid);
        Ok(status)
    }

    /// Waits for a child: reaps and returns `(pid, status)` of a zombie
    /// child (a specific one if `target` is given). `Ok(None)` means
    /// children exist but none has exited (the caller would block);
    /// [`Errno::Echild`] means there is nothing to wait for.
    pub fn waitpid(&mut self, parent: Pid, target: Option<Pid>) -> KResult<Option<(Pid, i32)>> {
        self.charge_syscall();
        let children = &self.process(parent)?.children;
        let is_zombie = |c: &Pid| self.procs.get(*c).is_some_and(|p| p.is_zombie());
        let zombie = match target {
            _ if children.is_empty() => return Err(Errno::Echild),
            Some(t) if !children.contains(&t) => return Err(Errno::Echild),
            Some(t) => Some(t).filter(is_zombie),
            None => children.iter().copied().find(is_zombie),
        };
        let Some(c) = zombie else { return Ok(None) };
        let status = self.reap(c)?;
        self.process_mut(parent)?.children.retain(|x| *x != c);
        Ok(Some((c, status)))
    }

    /// OOM badness of one process: how much memory killing it would
    /// actually give back, in pages. `None` means the process is exempt
    /// (init, zombies, borrowed address spaces, or an `oom_score_adj` of
    /// [`crate::task::OOM_SCORE_ADJ_MIN`] — warm-pool children are parked
    /// with that so pressure reclaims them through shrinkers, never the
    /// killer).
    ///
    /// The score is *freeable* resident pages (resident minus pages whose
    /// backing frame is pinned — killing the process leaves those frames
    /// in the pinning cache) plus committed charge (an `Always`-mode hog
    /// that committed gigabytes but touched nothing is a prime victim,
    /// where resident-only scoring saw zero) plus `oom_score_adj`.
    pub fn oom_badness(&self, pid: Pid) -> Option<i64> {
        let p = self.procs.get(pid)?;
        if p.is_zombie() || p.pid == Pid(1) || p.space_ref != SpaceRef::Owned {
            return None;
        }
        if p.oom_score_adj <= crate::task::OOM_SCORE_ADJ_MIN {
            return None;
        }
        let mut resident = 0i64;
        let mut pinned = 0i64;
        p.aspace.for_each_resident(|_vpn, pte| {
            resident += 1;
            if self.phys.pin_count(pte.pfn) > 0 {
                pinned += 1;
            }
        });
        // Swapped pages count too: killing the process frees their slots,
        // which is exactly the headroom the swap tier needs back.
        let swapped = p.aspace.swapped_pages() as i64;
        let score = (resident - pinned) + swapped + p.aspace.commit_pages() as i64 + p.oom_score_adj;
        Some(score.max(0))
    }

    /// Evacuates a fail-stopped cell: kills every process (including
    /// init), reaps every zombie, and drains the frames the cell holds
    /// back — its reserved block and its parked frames — to the shared
    /// pool, so the machine continues degraded with nothing leaked — no
    /// frames, no PIDs, no swap slots.
    ///
    /// Crosses [`fpr_faults::FaultSite::CellEvacuate`] *before* touching
    /// anything, so an injected failure leaves the cell exactly as it
    /// was and the recovery is cleanly retryable ([`Errno::Eagain`]).
    ///
    /// Processes die youngest-PID-first, which exits every vfork
    /// borrower before its lender and leaves init (the oldest) for last;
    /// init self-reaps on exit (`ppid == pid`), and a final sweep reaps
    /// any zombie stranded by its parent's earlier death. Returns the
    /// number of processes evacuated.
    pub fn evacuate(&mut self) -> KResult<u64> {
        fpr_faults::cross(fpr_faults::FaultSite::CellEvacuate).map_err(|_| Errno::Eagain)?;
        let mut evacuated = 0u64;
        let mut victims: Vec<Pid> = self
            .procs
            .iter()
            .filter(|p| !p.is_zombie())
            .map(|p| p.pid)
            .collect();
        victims.sort_unstable_by(|a, b| b.cmp(a));
        for pid in victims {
            // A vfork cascade may have taken this process down along
            // with an earlier victim; skip what is already dead.
            let alive = self.procs.get(pid).is_some_and(|p| !p.is_zombie());
            if alive && self.exit(pid, OOM_EXIT_STATUS).is_ok() {
                evacuated += 1;
            }
        }
        // Zombies whose parent died unreaping (the parent's exit removed
        // it from the table before it could wait) are swept here.
        for pid in self.pids() {
            let _ = self.reap(pid);
        }
        // Settle the cell's block and give its parked frames back to the
        // shared pool; after the kills above this leaves the cell drawing
        // zero frames.
        self.phys.drain();
        Ok(evacuated)
    }

    /// The OOM killer: kills the process with the highest badness (see
    /// [`Kernel::oom_badness`]). Ties break toward the largest PID — the
    /// youngest process, deterministically. Returns the victim's PID, or
    /// `None` if every process is exempt.
    pub fn oom_kill(&mut self) -> Option<Pid> {
        let victim = self
            .procs
            .iter()
            .filter_map(|p| self.oom_badness(p.pid).map(|score| (score, p.pid)))
            .max_by_key(|&(score, pid)| (score, pid))?
            .1;
        if let Some(p) = self.procs.get_mut(victim) {
            p.oom_killed = true;
        }
        self.oom_kills.push(victim);
        fpr_trace::sink::instant("oom_kill", "kernel", self.cycles.total());
        self.exit(victim, OOM_EXIT_STATUS).ok()?;
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fdtable::STDOUT;
    use crate::signal::HandlerId;
    use crate::stdio::BufMode;
    use fpr_mem::{Prot, Share};

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    fn child_of(k: &mut Kernel, parent: Pid) -> Pid {
        k.allocate_process(parent, "child").unwrap()
    }

    #[test]
    fn exit_then_wait_reaps() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        k.exit(c, 3).unwrap();
        assert!(k.process(c).unwrap().is_zombie());
        let (pid, status) = k.waitpid(init, None).unwrap().unwrap();
        assert_eq!((pid, status), (c, 3));
        assert_eq!(k.process(c).err(), Some(Errno::Esrch));
        assert_eq!(k.waitpid(init, None), Err(Errno::Echild));
    }

    /// `evacuate`'s stranded sweep reaps every PID and ignores the error:
    /// a refusal must leave the process, its memory and its PID in place.
    #[test]
    fn reaping_a_running_child_is_refused_and_takes_nothing() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        let base = k.mmap_anon(c, 8, Prot::RW, Share::Private).unwrap();
        k.populate(c, base, 8).unwrap();
        let before = k.baseline();
        assert_eq!(k.reap(c), Err(Errno::Ebusy));
        assert!(k.process(c).is_ok(), "the child is still in the table");
        k.check_invariants().unwrap();
        k.leak_check(&before).unwrap();
    }

    #[test]
    fn wait_on_running_child_would_block() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        assert_eq!(k.waitpid(init, None), Ok(None));
        assert_eq!(k.waitpid(init, Some(c)), Ok(None));
        assert_eq!(k.waitpid(init, Some(Pid(999))), Err(Errno::Echild));
    }

    #[test]
    fn exit_flushes_streams_to_console() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        let ofd = k
            .ofds
            .insert(crate::file::FileObject::Tty, crate::file::OpenFlags::WRONLY);
        k.process_mut(c)
            .unwrap()
            .fds
            .install(
                crate::fdtable::FdEntry {
                    ofd,
                    cloexec: false,
                },
                64,
            )
            .unwrap();
        let s = k
            .stream_open(c, crate::fdtable::Fd(0), BufMode::FullyBuffered)
            .unwrap();
        k.stream_write(c, s, b"at-exit").unwrap();
        assert!(k.console.is_empty());
        k.exit(c, 0).unwrap();
        assert_eq!(k.console, b"at-exit");
    }

    #[test]
    fn exit_releases_memory_and_commit() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        let base = k.mmap_anon(c, 32, Prot::RW, Share::Private).unwrap();
        k.populate(c, base, 32).unwrap();
        assert_eq!(k.phys.used_frames(), 32);
        k.exit(c, 0).unwrap();
        assert_eq!(k.phys.used_frames(), 0);
        assert_eq!(k.commit.committed(), 0);
    }

    #[test]
    fn children_reparent_to_init() {
        let (mut k, init) = boot();
        let a = child_of(&mut k, init);
        let b = k.allocate_process(a, "grandchild").unwrap();
        k.exit(a, 0).unwrap();
        assert_eq!(k.process(b).unwrap().ppid, init);
        assert!(k.process(init).unwrap().children.contains(&b));
    }

    #[test]
    fn default_term_signal_kills() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        k.kill(c, Sig::Term).unwrap();
        assert!(k.process(c).unwrap().is_zombie());
    }

    /// A signal's death reports `128 +` the signal's number, as the OOM
    /// killer's SIGKILL and a failed swap-in's SIGBUS do: SIGTERM must not
    /// read as SIGBUS, nor `kill -9` as anything but the OOM killer's 137.
    #[test]
    fn a_signal_death_reports_128_plus_the_signal_number() {
        let (mut k, init) = boot();
        let (term, kill) = (child_of(&mut k, init), child_of(&mut k, init));
        k.kill(term, Sig::Term).unwrap();
        k.kill(kill, Sig::Kill).unwrap();
        assert_eq!(k.process(term).unwrap().state, ProcState::Zombie(128 + 15));
        assert_ne!(128 + 15, SIGBUS_EXIT_STATUS);
        assert_eq!(k.process(kill).unwrap().state, ProcState::Zombie(OOM_EXIT_STATUS));
    }

    #[test]
    fn handler_signal_logs_instead_of_killing() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        k.sigaction(c, Sig::Term, Disposition::Handler(HandlerId(42)))
            .unwrap();
        k.kill(c, Sig::Term).unwrap();
        assert!(!k.process(c).unwrap().is_zombie());
        assert_eq!(k.handler_log, vec![(c, 42)]);
    }

    #[test]
    fn blocked_signal_defers_death() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        k.sigprocmask(c, Sig::Term, true).unwrap();
        k.kill(c, Sig::Term).unwrap();
        assert!(!k.process(c).unwrap().is_zombie());
        k.sigprocmask(c, Sig::Term, false).unwrap();
        k.deliver_pending(c).unwrap();
        assert!(k.process(c).unwrap().is_zombie());
    }

    #[test]
    fn sigkill_cannot_be_handled() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        assert_eq!(
            k.sigaction(c, Sig::Kill, Disposition::Handler(HandlerId(1))),
            Err(Errno::Einval)
        );
        k.kill(c, Sig::Kill).unwrap();
        assert!(k.process(c).unwrap().is_zombie());
    }

    #[test]
    fn oom_killer_picks_largest_resident() {
        let (mut k, init) = boot();
        let small = child_of(&mut k, init);
        let big = child_of(&mut k, init);
        let b1 = k.mmap_anon(small, 4, Prot::RW, Share::Private).unwrap();
        k.populate(small, b1, 4).unwrap();
        let b2 = k.mmap_anon(big, 64, Prot::RW, Share::Private).unwrap();
        k.populate(big, b2, 64).unwrap();
        let victim = k.oom_kill().unwrap();
        assert_eq!(victim, big);
        assert!(k.process(big).unwrap().oom_killed);
        assert_eq!(
            k.process(big).unwrap().state,
            ProcState::Zombie(OOM_EXIT_STATUS)
        );
        assert!(!k.process(small).unwrap().is_zombie());
    }

    #[test]
    fn oom_killer_sees_commit_hog_with_no_resident_pages() {
        // An Always-mode hog that committed a huge mapping but touched
        // nothing was invisible to resident-only scoring; badness folds
        // committed charge in.
        let mut k = Kernel::new(crate::kernel::MachineConfig {
            overcommit: fpr_mem::OvercommitPolicy::Always,
            ..Default::default()
        });
        let init = k.create_init("init").unwrap();
        let worker = k.allocate_process(init, "worker").unwrap();
        let hog = k.allocate_process(init, "hog").unwrap();
        let b = k.mmap_anon(worker, 8, Prot::RW, Share::Private).unwrap();
        k.populate(worker, b, 8).unwrap();
        k.mmap_anon(hog, 4096, Prot::RW, Share::Private).unwrap(); // never touched
        assert!(k.oom_badness(hog).unwrap() > k.oom_badness(worker).unwrap());
        assert_eq!(k.oom_kill(), Some(hog));
        assert!(!k.process(worker).unwrap().is_zombie());
    }

    #[test]
    fn oom_badness_discounts_pinned_pages_and_adj_min_exempts() {
        let (mut k, init) = boot();
        let a = child_of(&mut k, init);
        let b = child_of(&mut k, init);
        let va = k.mmap_anon(a, 16, Prot::RW, Share::Private).unwrap();
        k.populate(a, va, 16).unwrap();
        let vb = k.mmap_anon(b, 16, Prot::RW, Share::Private).unwrap();
        k.populate(b, vb, 16).unwrap();
        assert_eq!(k.oom_badness(a), k.oom_badness(b));
        // Pin every frame of `a`: killing it would free nothing resident.
        let mut pfns = Vec::new();
        k.process(a).unwrap().aspace.for_each_resident(|_, pte| pfns.push(pte.pfn));
        for pfn in &pfns {
            k.phys.pin(*pfn).unwrap();
        }
        assert!(k.oom_badness(a).unwrap() < k.oom_badness(b).unwrap());
        assert_eq!(k.oom_kill(), Some(b));
        for pfn in &pfns {
            let mut c = fpr_mem::Cycles::new();
            k.phys.unpin(*pfn, &mut c).unwrap();
        }
        // OOM_SCORE_ADJ_MIN exempts entirely.
        k.process_mut(a).unwrap().oom_score_adj = crate::task::OOM_SCORE_ADJ_MIN;
        assert_eq!(k.oom_badness(a), None);
        assert_eq!(k.oom_kill(), None, "init and the exempt child survive");
    }

    #[test]
    fn oom_lease_is_exclusive_and_releasable_by_owner_only() {
        let g = OomGuard::new();
        assert_eq!(g.lease_holder(), None);
        assert!(g.try_lease(2));
        assert_eq!(g.lease_holder(), Some(2));
        assert!(!g.try_lease(0), "lease is exclusive");
        assert!(!g.release_lease(0), "only the holder's cell releases");
        assert!(g.release_lease(2));
        assert_eq!(g.lease_holder(), None);
        assert!(g.try_lease(0), "released lease is takeable again");
    }

    #[test]
    fn evacuate_returns_the_cell_to_zero_without_touching_neighbours() {
        let cfg = crate::kernel::MachineConfig {
            frames: 4096,
            ..Default::default()
        };
        let shared = crate::kernel::SmpShared::new(&cfg, 2);
        let mut k1 = Kernel::new_smp(cfg.clone(), &shared, 0);
        let mut k2 = Kernel::new_smp(cfg, &shared, 1);
        let i1 = k1.create_init("init").unwrap();
        let i2 = k2.create_init("init").unwrap();

        // Cell 0: live children with resident memory, plus an unreaped
        // zombie and a grandchild whose parent will die before it.
        let a = k1.allocate_process(i1, "a").unwrap();
        let b = k1.allocate_process(i1, "b").unwrap();
        let grand = k1.allocate_process(a, "grand").unwrap();
        for pid in [a, b, grand] {
            let base = k1.mmap_anon(pid, 16, Prot::RW, Share::Private).unwrap();
            k1.populate(pid, base, 16).unwrap();
        }
        k1.exit(b, 0).unwrap(); // zombie until someone waits — nobody will
        // Cell 1: a bystander with memory of its own.
        let n = k2.allocate_process(i2, "bystander").unwrap();
        let base = k2.mmap_anon(n, 8, Prot::RW, Share::Private).unwrap();
        k2.populate(n, base, 8).unwrap();
        let neighbour_live_before = 2; // i2 + n

        let evacuated = k1.evacuate().unwrap();
        assert!(evacuated >= 3, "init, a, grand all exited here");
        assert_eq!(k1.process_count(), 0, "no process survives evacuation");
        assert_eq!(k1.phys.drawn_frames(), 0, "nothing held back, nothing resident");
        assert_eq!(k1.held_pids, 0, "cell-local pid accounting emptied");
        assert_eq!(
            shared.pids.live(),
            neighbour_live_before,
            "only the dead cell's pids were returned to the shared table"
        );
        k1.check_invariants().unwrap();
        // Machine-wide conservation: the survivor still holds its frames.
        assert_eq!(
            k1.phys.drawn_frames() + k2.phys.drawn_frames() + shared.pool.free_frames(),
            shared.pool.total_frames()
        );
        assert!(k2.process(n).is_ok(), "the neighbour cell is untouched");
    }

    #[test]
    fn evacuate_settles_the_block_a_one_cell_machine_holds_back() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        let base = k.mmap_anon(c, 40, Prot::RW, Share::Private).unwrap();
        k.populate(c, base, 40).unwrap();
        assert!(k.phys.drawn_frames() > k.phys.used_frames(), "the rest of a block is held back");
        k.evacuate().unwrap();
        assert_eq!(k.phys.drawn_frames(), 0);
        assert_eq!(k.phys.free_frames(), k.phys.total_frames());
    }

    #[test]
    fn injected_evacuation_fault_is_clean_and_retryable() {
        let cfg = crate::kernel::MachineConfig::default();
        let shared = crate::kernel::SmpShared::new(&cfg, 1);
        let mut k = Kernel::new_smp(cfg, &shared, 0);
        let init = k.create_init("init").unwrap();
        let c = k.allocate_process(init, "c").unwrap();
        let base = k.mmap_anon(c, 8, Prot::RW, Share::Private).unwrap();
        k.populate(c, base, 8).unwrap();
        let procs_before = k.process_count();
        let drawn_before = k.phys.drawn_frames();

        let (res, trace) = fpr_faults::with_plan(
            fpr_faults::FaultPlan::passive().fail_at(fpr_faults::FaultSite::CellEvacuate, 0),
            || k.evacuate(),
        );
        assert_eq!(res, Err(Errno::Eagain), "injected failure surfaces cleanly");
        assert_eq!(trace.injected().len(), 1);
        assert_eq!(k.process_count(), procs_before, "nothing was killed");
        assert_eq!(k.phys.drawn_frames(), drawn_before, "nothing was freed");
        k.check_invariants().unwrap();

        // The retry completes the evacuation.
        assert!(k.evacuate().unwrap() >= 2);
        assert_eq!(k.process_count(), 0);
        assert_eq!(k.phys.drawn_frames(), 0);
    }

    #[test]
    fn oom_kill_ties_break_toward_youngest_pid() {
        let (mut k, init) = boot();
        let older = child_of(&mut k, init);
        let younger = child_of(&mut k, init);
        for pid in [older, younger] {
            let v = k.mmap_anon(pid, 8, Prot::RW, Share::Private).unwrap();
            k.populate(pid, v, 8).unwrap();
        }
        assert_eq!(k.oom_badness(older), k.oom_badness(younger));
        assert_eq!(k.oom_kill(), Some(younger));
    }

    #[test]
    fn exit_closes_pipe_ends_signalling_eof() {
        let (mut k, init) = boot();
        let c = child_of(&mut k, init);
        let (r, w) = k.pipe(c).unwrap();
        // Parent holds the read end too (as after a fork).
        let entry = k.process(c).unwrap().fds.get(r).unwrap();
        k.ref_object(entry.ofd).unwrap();
        k.process_mut(init).unwrap().fds.install(entry, 64).unwrap();
        let _ = w;
        k.exit(c, 0).unwrap();
        // Child's write end died with it: parent sees EOF.
        let (pr, _) = k.process(init).unwrap().fds.iter().last().unwrap();
        assert_eq!(k.read_fd(init, pr, 8).unwrap(), crate::io::ReadResult::Eof);
    }

    #[test]
    fn console_capture_write_after_exit_of_writer() {
        let (mut k, init) = boot();
        k.write_fd(init, STDOUT, b"one").unwrap();
        let c = child_of(&mut k, init);
        k.exit(c, 0).unwrap();
        k.write_fd(init, STDOUT, b"two").unwrap();
        assert_eq!(k.console, b"onetwo");
    }
}
