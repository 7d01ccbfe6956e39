//! The simulated kernel: machine state, process table, and memory
//! syscalls.
//!
//! [`Kernel`] owns physical memory, the global file/pipe tables, the
//! scheduler and the process table. The process-creation APIs in
//! `fpr-api` are implemented *against* this struct — fork and friends are
//! deliberately not methods here, because the whole point of the paper is
//! that they can be libraries over lower-level kernel operations.

use crate::error::{Errno, KResult};
use crate::fdtable::{Fd, FdEntry, FdTable};
use crate::file::{FileObject, OfdTable, OpenFlags};
use crate::pid::{Pid, ShardedPidTable, Tid, TidAllocator};
use crate::pipe::PipeTable;
use crate::rlimit::Resource;
use crate::sched::{Scheduler, Task};
use crate::task::{Process, SpaceRef};
use crate::time::Clock;
use crate::vfs::Vfs;
use fpr_mem::{
    AddressSpace, CommitAccount, CostModel, Cycles, FaultOutcome, OvercommitPolicy, Pfn,
    PhysMemory, Prot, Pte, Share, SharedFramePool, TlbBus, TlbModel, VmArea, VmaKind, Vpn,
};
use fpr_trace::metrics::Counter;
use fpr_trace::{sink, Phase, TraceEvent};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default base VPN for the mmap arena when a process has no recorded
/// layout (0x4000_0000 bytes ≫ 12).
pub(crate) const DEFAULT_MMAP_BASE: u64 = 0x4000_0000 >> 12;

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Physical frames (4 KiB each).
    pub frames: u64,
    /// Number of CPUs (bounds TLB-shootdown fan-out).
    pub cpus: u32,
    /// Overcommit policy.
    pub overcommit: OvercommitPolicy,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Maximum simultaneously live PIDs.
    pub max_pids: u32,
    /// Swap-device capacity in one-page slots. Zero (the default) means
    /// no swap is configured and the kernel behaves exactly as before the
    /// swap tier existed.
    pub swap_slots: u64,
    /// Transparent huge pages. When enabled, every process address space
    /// promotes eligible 2 MiB-aligned private anonymous blocks to huge
    /// leaves; off (the default) reproduces the small-page-only machine
    /// exactly.
    pub thp: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            frames: 262_144, // 1 GiB
            cpus: 4,
            overcommit: OvercommitPolicy::Heuristic,
            cost: CostModel::default(),
            max_pids: 4096,
            swap_slots: 0,
            thp: false,
        }
    }
}

/// The process table: a slot for every PID the machine can hand out,
/// allocated once at boot and indexed by the PID itself, each PCB boxed
/// in its slot. A PID another cell holds leaves its slot here empty.
/// Iteration is in PID order.
#[derive(Debug)]
pub(crate) struct ProcTable {
    slots: Vec<Option<Box<Process>>>,
    len: usize,
}

impl ProcTable {
    /// An empty table for PIDs `1..=max_pid`.
    fn new(max_pid: u32) -> ProcTable {
        ProcTable {
            slots: (0..=max_pid).map(|_| None).collect(),
            len: 0,
        }
    }

    pub(crate) fn get(&self, pid: Pid) -> Option<&Process> {
        self.slots.get(pid.0 as usize)?.as_deref()
    }

    pub(crate) fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.slots.get_mut(pid.0 as usize)?.as_deref_mut()
    }

    /// Puts `proc` in the slot of its PID, which the PID table has just
    /// handed out: the slot is empty.
    fn insert(&mut self, proc: Process) {
        let slot = &mut self.slots[proc.pid.0 as usize];
        debug_assert!(slot.is_none(), "pid {} is in the table twice", proc.pid);
        *slot = Some(Box::new(proc));
        self.len += 1;
    }

    pub(crate) fn remove(&mut self, pid: Pid) -> Option<Box<Process>> {
        let proc = self.slots.get_mut(pid.0 as usize)?.take()?;
        self.len -= 1;
        Some(proc)
    }

    /// Every process, in PID order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Process> {
        self.slots.iter().filter_map(|s| s.as_deref())
    }

    /// Processes in the table, zombies included.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// The simulated machine and kernel.
#[derive(Debug)]
pub struct Kernel {
    /// Physical memory.
    pub phys: PhysMemory,
    /// TLB accounting.
    pub tlb: TlbModel,
    /// Global cycle counter (simulated time).
    pub cycles: Cycles,
    /// Virtual wall clock.
    pub clock: Clock,
    /// Commit accounting under the overcommit policy.
    pub commit: CommitAccount,
    /// The filesystem.
    pub vfs: Vfs,
    /// Open file descriptions.
    pub ofds: OfdTable,
    /// Pipes.
    pub pipes: PipeTable,
    /// Run queue.
    pub sched: Scheduler,
    /// Console output captured from Tty writes.
    pub console: Vec<u8>,
    /// PIDs of processes the OOM killer chose, in order.
    pub oom_kills: Vec<Pid>,
    /// Signal deliveries to user handlers, for tests: (pid, handler token).
    pub handler_log: Vec<(Pid, u64)>,
    /// Atfork handler executions: (process the handler ran in, token, phase).
    pub atfork_log: Vec<(Pid, u64, crate::atfork::AtforkPhase)>,
    /// Pending alarms (see `timer`).
    pub(crate) alarms: Vec<crate::timer::Alarm>,
    pub(crate) tids: TidAllocator,
    pub(crate) procs: ProcTable,
    /// Live process count per real uid (RLIMIT_NPROC accounting).
    pub(crate) user_counts: BTreeMap<u32, u64>,
    /// Registered shrinkers, held weakly: subsystems own the strong
    /// handles and dropping them unregisters (see `reclaim`).
    pub(crate) shrinkers: Vec<std::sync::Weak<std::sync::Mutex<dyn crate::reclaim::Shrinker + Send>>>,
    /// Cumulative reclaim-pass statistics.
    pub(crate) reclaim_stats: crate::reclaim::ReclaimStats,
    /// Whether new address spaces get transparent huge pages.
    pub(crate) thp: bool,
    /// The machine-wide PID table.
    pub(crate) pid_table: Arc<ShardedPidTable>,
    /// This kernel's cell index, which is also its home PID shard.
    pub(crate) cell: usize,
    /// PIDs this cell currently holds out of the table — the per-cell
    /// leak check and the "PIDs held == process-table entries" invariant
    /// read this, since the table's own count is machine-wide.
    pub(crate) held_pids: usize,
}

/// The services one machine shares across its cells: every cell is a
/// [`Kernel`], drawing frames from one pool, PIDs from one striped
/// table and shootdowns over one interconnect. A
/// multi-cell (SMP) machine runs each cell on its own OS thread;
/// [`Kernel::new`] is the one-cell machine.
///
/// Build one `SmpShared`, then boot each cell with [`Kernel::new_smp`].
#[derive(Debug, Clone)]
pub struct SmpShared {
    /// The machine-wide frame pool every cell draws its frames from.
    pub pool: Arc<SharedFramePool>,
    /// The striped PID space (one home shard per cell).
    pub pids: Arc<ShardedPidTable>,
    /// The TLB-shootdown interconnect.
    pub tlb: Arc<TlbBus>,
}

impl SmpShared {
    /// Builds the shared services for a machine of `cells` cells using
    /// `cfg`'s frame and PID capacities.
    pub fn new(cfg: &MachineConfig, cells: usize) -> SmpShared {
        SmpShared {
            pool: Arc::new(SharedFramePool::new(cfg.frames)),
            pids: Arc::new(ShardedPidTable::new(cells.max(1), cfg.max_pids)),
            tlb: Arc::new(TlbBus::new()),
        }
    }
}

/// One address space plus the machine state a memory operation on it
/// needs, borrowed disjointly out of a [`Kernel`] (see
/// [`Kernel::mem_ctx`]).
pub(crate) struct MemCtx<'k> {
    pub(crate) space: &'k mut AddressSpace,
    pub(crate) phys: &'k mut PhysMemory,
    pub(crate) cycles: &'k mut Cycles,
    pub(crate) tlb: &'k mut TlbModel,
    pub(crate) commit: &'k mut CommitAccount,
    /// CPUs running the space's owner (TLB-shootdown fan-out).
    pub(crate) cpus: u32,
}

/// What [`Kernel::allocate_process`] and [`Kernel::adopt_process`] copy
/// from the (new) parent: the part of a PCB every child has, whatever API
/// made it.
struct Identity {
    cwd: crate::vfs::Ino,
    cred: crate::cred::Credentials,
    rlimits: crate::rlimit::RlimitSet,
    pgid: crate::pgroup::Pgid,
    sid: crate::pgroup::Sid,
}

impl Identity {
    fn give(self, child: &mut Process, ppid: Pid) {
        child.ppid = ppid;
        child.cwd = self.cwd;
        child.cred = self.cred;
        child.rlimits = self.rlimits;
        child.pgid = self.pgid;
        child.sid = self.sid;
    }
}

impl Kernel {
    /// Boots a single-kernel machine: cell 0 of a one-cell machine, with
    /// a PID table and a shootdown interconnect of its own. Its frames
    /// come from [`PhysMemory::new`]'s pool of its own, which parks no
    /// freed frame — the one difference from an SMP cell, and one no
    /// charge, PID or baseline shows.
    pub fn new(cfg: MachineConfig) -> Kernel {
        let phys = PhysMemory::new(cfg.frames, cfg.cost.clone());
        let pids = Arc::new(ShardedPidTable::new(1, cfg.max_pids));
        Kernel::cell(cfg, phys, pids, Arc::new(TlbBus::new()), 0)
    }

    /// Boots with the default configuration.
    pub fn boot() -> Kernel {
        Kernel::new(MachineConfig::default())
    }

    /// Boots cell `cell` of a machine: a full kernel whose physical
    /// memory is a [`PhysMemory::new_cell`] over `shared.pool`, whose PIDs
    /// come from `shared.pids` (home shard `cell`), and whose remote
    /// shootdowns serialize on `shared.tlb`. Everything else (process table, VFS,
    /// scheduler) is private to the cell, so cells only meet at the
    /// explicitly shared services — exactly where real SMP kernels
    /// contend.
    pub fn new_smp(cfg: MachineConfig, shared: &SmpShared, cell: usize) -> Kernel {
        let phys = PhysMemory::new_cell(Arc::clone(&shared.pool), cfg.cost.clone());
        Kernel::cell(cfg, phys, Arc::clone(&shared.pids), Arc::clone(&shared.tlb), cell)
    }

    /// Boots cell `cell` over `phys`, taking PIDs from `pids` and sending
    /// remote shootdowns over `tlb`.
    fn cell(cfg: MachineConfig, mut phys: PhysMemory, pids: Arc<ShardedPidTable>, tlb: Arc<TlbBus>, cell: usize) -> Kernel {
        phys.set_swap_capacity(cfg.swap_slots);
        let mut commit = CommitAccount::new(cfg.overcommit, cfg.frames);
        // CommitLimit = ratio * RAM + SwapTotal (Linux `Never` mode).
        commit.set_swap_pages(cfg.swap_slots);
        Kernel {
            phys,
            tlb: TlbModel {
                bus: tlb,
                ..TlbModel::new()
            },
            cycles: Cycles::new(),
            clock: Clock::new(),
            commit,
            vfs: Vfs::new(),
            ofds: OfdTable::new(),
            pipes: PipeTable::new(),
            sched: Scheduler::new(cfg.cpus),
            console: Vec::new(),
            oom_kills: Vec::new(),
            handler_log: Vec::new(),
            atfork_log: Vec::new(),
            alarms: Vec::new(),
            tids: TidAllocator::new(),
            procs: ProcTable::new(pids.max_pid),
            user_counts: BTreeMap::new(),
            shrinkers: Vec::new(),
            reclaim_stats: crate::reclaim::ReclaimStats::default(),
            thp: cfg.thp,
            pid_table: pids,
            cell,
            held_pids: 0,
        }
    }

    /// Allocates a PID from the machine-wide table, home shard first.
    pub(crate) fn alloc_pid(&mut self) -> KResult<Pid> {
        let pid = self.pid_table.alloc(self.cell)?;
        self.held_pids += 1;
        Ok(pid)
    }

    /// Frees a PID allocated by [`Kernel::alloc_pid`].
    pub(crate) fn free_pid(&mut self, pid: Pid) {
        self.pid_table.free(pid);
        self.held_pids -= 1;
    }

    /// Charges one syscall entry/exit.
    pub fn charge_syscall(&mut self) {
        let c = self.phys.cost().syscall;
        self.cycles.charge(c);
    }

    /// Runs `f` with a trace sink installed, returning its result along
    /// with every [`fpr_trace::TraceEvent`] the instrumented kernel paths
    /// emitted during the scope. Tracing charges zero simulated cycles,
    /// so a traced operation costs exactly what an untraced one does.
    ///
    /// This is the assertion hook for tests and the capture point for
    /// exporters: feed the returned events to `fpr_trace::chrome` or
    /// `fpr_trace::report`.
    pub fn trace_scope<R>(
        &mut self,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Vec<fpr_trace::TraceEvent>) {
        sink::with_sink(|| f(self))
    }

    /// Runs `f` as one span: a `Begin` event at the current cycle count,
    /// the body, then the matching `End` — on every path out of `f`, `?`
    /// included, so spans balance on error paths by construction. This
    /// (with [`Kernel::span_with`]) is the one way instrumented
    /// operations in `fpr-kernel`, `fpr-exec` and `fpr-api` open a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        f: impl FnOnce(&mut Kernel) -> R,
    ) -> R {
        sink::span_begin(name, cat, self.cycles.total());
        let r = f(self);
        sink::span_end(name, self.cycles.total());
        r
    }

    /// [`Kernel::span`] for an API-level operation: `args` decorates the
    /// `Begin` event (it runs only while a sink listens, so building the
    /// arguments costs nothing otherwise).
    pub fn span_with<R>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        args: impl FnOnce(TraceEvent) -> TraceEvent,
        f: impl FnOnce(&mut Kernel) -> R,
    ) -> R {
        if sink::is_active() {
            sink::emit(args(TraceEvent::new(name, cat, Phase::Begin, self.cycles.total())));
        }
        let r = f(self);
        sink::span_end(name, self.cycles.total());
        r
    }

    /// Creates the init process (PID 1) with stdio descriptors on the
    /// console.
    pub fn create_init(&mut self, name: &str) -> KResult<Pid> {
        let pid = self.alloc_pid()?;
        let tid = self.tids.alloc();
        let mut proc = Process::new(pid, pid, name, tid, self.vfs.root());
        proc.aspace.set_thp(self.thp);
        proc.pgid = crate::pgroup::Pgid(pid.0);
        proc.sid = crate::pgroup::Sid(pid.0);
        for flags in [OpenFlags::RDONLY, OpenFlags::WRONLY, OpenFlags::WRONLY] {
            let ofd = self.ofds.insert(FileObject::Tty, flags);
            proc.fds
                .install(
                    FdEntry {
                        ofd,
                        cloexec: false,
                    },
                    u64::MAX,
                )
                .expect("empty table");
        }
        *self.user_counts.entry(proc.cred.uid).or_insert(0) += 1;
        self.sched.enqueue(Task { pid, tid });
        self.procs.insert(proc);
        Ok(pid)
    }

    /// Borrows a process.
    pub fn process(&self, pid: Pid) -> KResult<&Process> {
        self.procs.get(pid).ok_or(Errno::Esrch)
    }

    /// Mutably borrows a process.
    pub fn process_mut(&mut self, pid: Pid) -> KResult<&mut Process> {
        self.procs.get_mut(pid).ok_or(Errno::Esrch)
    }

    /// Fails with [`Errno::Esrch`] unless `pid` exists and is not a
    /// zombie — a zombie has no threads left to issue syscalls.
    pub(crate) fn ensure_alive(&self, pid: Pid) -> KResult<()> {
        if self.process(pid)?.is_zombie() {
            Err(Errno::Esrch)
        } else {
            Ok(())
        }
    }

    /// Every PID in the process table, zombies included, in order.
    pub fn pids(&self) -> Vec<Pid> {
        self.procs.iter().map(|p| p.pid).collect()
    }

    /// Number of processes in the table (including zombies).
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Live (running) processes of one uid.
    pub fn nproc_of(&self, uid: u32) -> u64 {
        self.user_counts.get(&uid).copied().unwrap_or(0)
    }

    /// The identity a child takes from the process it is created or
    /// adopted under — working directory, credentials, resource limits,
    /// process group and session. Enforces `parent`'s `RLIMIT_NPROC`
    /// against the live processes of its uid, not counting `joining`
    /// itself when that process already sits in the same uid's books (a
    /// pool child being adopted).
    fn identity_from(&self, parent: Pid, joining: Option<Pid>) -> KResult<Identity> {
        self.ensure_alive(parent)?;
        let p = self.process(parent)?;
        let uid = p.cred.uid;
        let counted = match joining {
            Some(c) if self.process(c)?.cred.uid == uid => self.nproc_of(uid).saturating_sub(1),
            _ => self.nproc_of(uid),
        };
        if counted >= p.rlimits.get(Resource::Nproc).soft {
            return Err(Errno::Eagain);
        }
        Ok(Identity {
            cwd: p.cwd,
            cred: p.cred,
            rlimits: p.rlimits,
            pgid: p.pgid,
            sid: p.sid,
        })
    }

    /// Allocates a new process shell as a child of `ppid`, enforcing
    /// `RLIMIT_NPROC`. The caller (fork/spawn implementation) populates
    /// its state. The child starts with an empty address space and FD
    /// table and is enqueued for scheduling.
    pub fn allocate_process(&mut self, ppid: Pid, name: &str) -> KResult<Pid> {
        self.span("allocate_process", "kernel", |k| {
            let identity = k.identity_from(ppid, None)?;
            let pid = k.alloc_pid()?;
            let tid = k.tids.alloc();
            let mut proc = Process::new(pid, ppid, name, tid, identity.cwd);
            proc.aspace.set_thp(k.thp);
            identity.give(&mut proc, ppid);
            *k.user_counts.entry(proc.cred.uid).or_insert(0) += 1;
            k.sched.enqueue(Task { pid, tid });
            k.procs.insert(proc);
            if let Some(parent) = k.procs.get_mut(ppid) {
                parent.children.push(pid);
            }
            Ok(pid)
        })
    }

    /// Number of CPUs currently executing threads of `pid`, at least 1
    /// (the caller itself runs somewhere).
    pub fn cpus_running(&self, pid: Pid) -> u32 {
        self.sched.cpus_running(pid).max(1)
    }

    /// Resolves the process whose address space `pid` actually operates
    /// on: itself normally, or the lender for a vfork borrower.
    pub(crate) fn space_owner(&self, pid: Pid) -> KResult<Pid> {
        let mut cur = pid;
        for _ in 0..16 {
            match self.process(cur)?.space_ref {
                crate::task::SpaceRef::Owned => return Ok(cur),
                crate::task::SpaceRef::BorrowedFrom(p) => cur = p,
            }
        }
        Err(Errno::Esrch)
    }

    /// The address space `pid` operates on — its own, or the lender's for
    /// a vfork borrower — together with the disjoint machine borrows
    /// every `fpr_mem` operation threads through. The one place the
    /// kernel splits `&mut self` for a memory operation.
    pub(crate) fn mem_ctx(&mut self, pid: Pid) -> KResult<MemCtx<'_>> {
        let owner = self.space_owner(pid)?;
        let cpus = self.cpus_running(owner);
        let Kernel {
            phys,
            cycles,
            tlb,
            commit,
            procs,
            ..
        } = self;
        let space = &mut procs.get_mut(owner).ok_or(Errno::Esrch)?.aspace;
        Ok(MemCtx {
            space,
            phys,
            cycles,
            tlb,
            commit,
            cpus,
        })
    }

    /// Runs `op`; an `ENOMEM` under real memory pressure triggers one
    /// direct-reclaim pass (see `reclaim`) and a single retry before
    /// surfacing. Every `op` rolls back on failure, so the retry starts
    /// clean (an interrupted populate resumes where it stopped).
    fn reclaim_retry<T>(&mut self, mut op: impl FnMut(&mut Kernel) -> KResult<T>) -> KResult<T> {
        match op(self) {
            Err(Errno::Enomem) if self.direct_reclaim() => op(self),
            r => r,
        }
    }

    /// One page-touching access by `pid` to the space it runs in, with
    /// reclaim-retry, and with SIGBUS containment when the access needed
    /// a swapped-out page the device fails to read back.
    fn access<T>(
        &mut self,
        pid: Pid,
        mut op: impl FnMut(MemCtx<'_>) -> Result<T, fpr_mem::MemError>,
    ) -> KResult<T> {
        let r = self.reclaim_retry(|k| {
            // A process nearly always touches a space it owns: then the
            // liveness check and the space come out of one lookup. Only a
            // vfork borrower takes the walk to its lender.
            let cpus = k.cpus_running(pid);
            let Kernel {
                phys,
                cycles,
                tlb,
                commit,
                procs,
                ..
            } = &mut *k;
            let proc = procs
                .get_mut(pid)
                .filter(|p| !p.is_zombie())
                .ok_or(Errno::Esrch)?;
            if proc.space_ref == crate::task::SpaceRef::Owned {
                return Ok(op(MemCtx {
                    space: &mut proc.aspace,
                    phys,
                    cycles,
                    tlb,
                    commit,
                    cpus,
                })?);
            }
            Ok(op(k.mem_ctx(pid)?)?)
        });
        match r {
            Err(Errno::Eio) => self.swap_io_sigbus(pid),
            r => r,
        }
    }

    // ------------------------------------------------------------------
    // Memory syscalls
    // ------------------------------------------------------------------

    /// Maps `pages` of anonymous memory with the given protection and
    /// sharing, returning the chosen base page.
    pub fn mmap_anon(&mut self, pid: Pid, pages: u64, prot: Prot, share: Share) -> KResult<Vpn> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let start = {
            let p = self.process(pid)?;
            let hint = if p.layout.mmap_base != 0 {
                Vpn(p.layout.mmap_base)
            } else {
                Vpn(DEFAULT_MMAP_BASE)
            };
            let limit = p.rlimits.get(Resource::AsPages).soft;
            let space = &self.process(self.space_owner(pid)?)?.aspace;
            if space.virtual_pages() + pages > limit {
                return Err(Errno::Enomem);
            }
            if self.thp && share == Share::Private && pages >= fpr_mem::HUGE_PAGES {
                // Linux's `thp_get_unmapped_area`: over-ask by one block
                // and round up, so a block-sized private mapping starts
                // 2 MiB-aligned and promotion has something to bite on.
                // ASLR hints are page-granular, so without this a THP
                // machine would almost never see an aligned VMA.
                let s = space.find_free_range(pages + fpr_mem::HUGE_PAGES - 1, hint)?;
                Vpn((s.0 + fpr_mem::HUGE_PAGES - 1) & !(fpr_mem::HUGE_PAGES - 1))
            } else {
                space.find_free_range(pages, hint)?
            }
        };
        let mut vma = VmArea::anon(start, pages, prot, VmaKind::Mmap);
        vma.share = share;
        self.mmap_at(pid, vma)?;
        Ok(start)
    }

    /// Maps an explicit VMA (loader path), charging commit.
    pub fn mmap_at(&mut self, pid: Pid, vma: VmArea) -> KResult<()> {
        self.reclaim_retry(|k| {
            k.ensure_alive(pid)?;
            let m = k.mem_ctx(pid)?;
            let charge = vma.commit_charge();
            m.commit.charge(charge, m.phys.free_frames())?;
            m.space.mmap(vma.clone(), m.phys, m.cycles).map_err(|e| {
                m.commit.release(charge);
                e.into()
            })
        })
    }

    /// Unmaps a range.
    pub fn munmap(&mut self, pid: Pid, start: Vpn, pages: u64) -> KResult<u64> {
        self.ensure_alive(pid)?;
        self.charge_syscall();
        let m = self.mem_ctx(pid)?;
        // Release the commit charge of the VMAs actually covered.
        let mut release = 0u64;
        for v in m.space.vmas().filter(|v| v.overlaps(start, pages)) {
            let lo = v.start.0.max(start.0);
            let hi = v.end().0.min(start.0 + pages);
            if v.commit_charge() > 0 {
                release += hi - lo;
            }
        }
        let freed = m
            .space
            .munmap(start, pages, m.phys, m.cycles, m.tlb, m.cpus)?;
        m.commit.release(release);
        Ok(freed)
    }

    /// Writes `val` to the page at `vpn` of `pid`, faulting as needed.
    pub fn write_mem(&mut self, pid: Pid, vpn: Vpn, val: u64) -> KResult<FaultOutcome> {
        self.access(pid, |m| {
            m.space.write(vpn, val, m.phys, m.cycles, m.tlb, m.cpus)
        })
    }

    /// Reads the page at `vpn` of `pid`, faulting as needed. A read of a
    /// swapped-out page allocates a frame, hence the reclaim-retry.
    pub fn read_mem(&mut self, pid: Pid, vpn: Vpn) -> KResult<u64> {
        self.access(pid, |m| Ok(m.space.read(vpn, m.phys, m.cycles)?.0))
    }

    /// Pre-faults a range (`MAP_POPULATE`).
    pub fn populate(&mut self, pid: Pid, start: Vpn, pages: u64) -> KResult<()> {
        self.access(pid, |m| m.space.populate(start, pages, m.phys, m.cycles))
    }

    /// SIGBUS-style containment for a swap-device I/O error: the process
    /// whose access needed the unreadable page is killed with the exit
    /// status of a fatal `SIGBUS` and the access fails with `EFAULT`.
    /// Only the faulting process dies — the swap entry, its slot, and all
    /// kernel-wide state stay consistent (real kernels deliver `SIGBUS`
    /// on exactly this path: a swap-in that the device fails).
    fn swap_io_sigbus<T>(&mut self, pid: Pid) -> KResult<T> {
        sink::instant("swap_sigbus", "kernel", self.cycles.total());
        self.exit(pid, crate::lifecycle::SIGBUS_EXIT_STATUS)?;
        Err(Errno::Efault)
    }

    /// True while the swap device's refault window shows thrashing — the
    /// machine is paging against its own working set. Spawn fast-path
    /// refill and retry backoff use this as a backpressure signal.
    pub fn swap_thrashing(&self) -> bool {
        self.phys.swap().thrashing()
    }

    // ------------------------------------------------------------------
    // Creation steps. Each copies one part of `parent`'s state into
    // `child`, for any pair, and knows nothing of the API calling it:
    // fpr-api builds every creation path as a sequence of these, and a
    // fallible step attaches what it built to the child at once, so a
    // failure unwinds through the child's one teardown.
    // ------------------------------------------------------------------

    /// Gives `child` a copy of `parent`'s descriptor table: every entry
    /// takes a reference on its open file description (so offsets are
    /// shared), and pipe end counts, which count descriptions, stay.
    ///
    /// All-or-nothing: a mid-copy failure releases every reference already
    /// taken, so on `Err` the OFD table is exactly as before the call.
    pub fn copy_fd_table(&mut self, parent: Pid, child: Pid) -> KResult<()> {
        let fds = self.span("clone_fd_table", "kernel", |k| {
            let entries: Vec<(Fd, FdEntry)> = k.process(parent)?.fds.iter().collect();
            let fd_cost = k.phys.cost().fd_clone;
            let mut table = FdTable::new();
            for (fd, entry) in entries {
                // Each open descriptor costs a fixed amount to duplicate; the
                // table's sparse storage means closed slots cost nothing, so
                // fork's FD work scales with open descriptors, not max fd.
                k.cycles.charge(fd_cost);
                Counter::FdClone.incr();
                // Shares the description (and therefore the offset); pipe end
                // counts follow descriptions, not descriptors, so they are
                // untouched here.
                let step = k.ofds.incref(entry.ofd).and_then(|()| {
                    match table.install_at(fd, entry, u64::MAX) {
                        Ok(_) => Ok(()),
                        Err(e) => {
                            let survived = k.ofds.decref(entry.ofd).expect("ref just taken");
                            debug_assert!(survived.is_none(), "parent still holds a reference");
                            Err(e)
                        }
                    }
                });
                if let Err(e) = step {
                    // Unwind references taken for earlier entries. The parent
                    // still references each description, so none can reach zero.
                    for e2 in table.drain() {
                        let survived = k.ofds.decref(e2.ofd).expect("ref taken above");
                        debug_assert!(survived.is_none());
                    }
                    return Err(e);
                }
            }
            Ok(table)
        })?;
        self.process_mut(child)?.fds = fds;
        Ok(())
    }

    /// Rolls back a process created by [`Kernel::allocate_process`] whose
    /// population failed partway. Unlike `exit`, this is not a lifecycle
    /// event: no streams flush, no `SIGCHLD` fires, no zombie is left —
    /// the child simply ceases to exist and every resource it held
    /// (descriptors, address space, commit charge, PID, scheduler slot,
    /// per-uid process accounting) returns to its pre-creation state.
    pub fn abort_process_creation(&mut self, child: Pid) -> KResult<()> {
        if sink::is_active() {
            sink::emit(
                TraceEvent::new(
                    "abort_process_creation",
                    "kernel",
                    Phase::Instant,
                    self.cycles.total(),
                )
                .arg("pid", child.0 as u64),
            );
        }
        self.teardown(child)?;
        // Unlink from the parent and the PID space.
        let ppid = self.process(child)?.ppid;
        if let Some(pp) = self.procs.get_mut(ppid) {
            pp.children.retain(|c| *c != child);
        }
        self.procs.remove(child);
        self.free_pid(child);
        Ok(())
    }

    /// The creation transaction every API (and the warm pool's prefill)
    /// builds a child through: allocates a child of `parent`, runs
    /// `populate` on it, and on `Err` rolls the half-made child back with
    /// [`Kernel::abort_process_creation`] — then unlinks any file
    /// `populate` recorded (path, cwd) as created on the child's behalf —
    /// before the error returns. No SIGCHLD, no zombie: a child whose
    /// population failed never existed, and no caller can forget that.
    pub fn create_process<T>(
        &mut self,
        parent: Pid,
        populate: impl FnOnce(&mut Kernel, Pid, &mut Vec<(String, crate::vfs::Ino)>) -> KResult<T>,
    ) -> KResult<(Pid, T)> {
        let child = self.allocate_process(parent, "")?;
        let mut created = Vec::new();
        match populate(self, child, &mut created) {
            Ok(out) => Ok((child, out)),
            Err(e) => {
                self.abort_process_creation(child)?;
                for (path, cwd) in created {
                    let _ = self.vfs.unlink(&path, cwd);
                }
                Err(e)
            }
        }
    }

    /// Gives `child` a duplicate of `parent`'s address space under `mode`,
    /// charging the child's commit against the overcommit policy first.
    /// The duplicate rolls back on failure, so the reclaim-retry is safe.
    pub fn copy_space(&mut self, parent: Pid, child: Pid, mode: fpr_mem::ForkMode) -> KResult<()> {
        let space = self.span("clone_address_space", "kernel", |k| {
            k.reclaim_retry(|k| {
                let m = k.mem_ctx(parent)?;
                let charge = m.space.commit_pages();
                m.commit.charge(charge, m.phys.free_frames())?;
                AddressSpace::fork_from(m.space, mode, m.phys, m.cycles, m.tlb, m.cpus).map_err(
                    |e| {
                        m.commit.release(charge);
                        e.into()
                    },
                )
            })
        })?;
        self.process_mut(child)?.aspace = space;
        Ok(())
    }

    /// Gives `child` `parent`'s task state: the command name, the
    /// environment, the signal dispositions and mask (pending cleared)
    /// and the umask.
    pub fn copy_task(&mut self, parent: Pid, child: Pid) -> KResult<()> {
        let p = self.process(parent)?;
        let task = (p.name.clone(), p.envp.clone(), p.signals.fork_clone(), p.umask);
        let c = self.process_mut(child)?;
        (c.name, c.envp, c.signals, c.umask) = task;
        Ok(())
    }

    /// Gives `child` the description of the image `parent` runs: argv and
    /// the ASLR layout (the zygote hazard). It follows whoever keeps
    /// running that image; a child about to exec gets its own.
    pub fn copy_image(&mut self, parent: Pid, child: Pid) -> KResult<()> {
        let p = self.process(parent)?;
        let image = (p.argv.clone(), p.layout);
        let c = self.process_mut(child)?;
        (c.argv, c.layout) = image;
        Ok(())
    }

    /// Gives `child` the userspace state living in `parent`'s memory:
    /// stream buffers, `pthread_atfork` registrations, and the lock table
    /// *as it was*. Only `calling_tid` exists in the child: its holdings
    /// move to the child's main thread, every other thread's are orphaned
    /// in place.
    pub fn copy_userspace(&mut self, parent: Pid, child: Pid, calling_tid: Tid) -> KResult<()> {
        let p = self.process(parent)?;
        let (streams, mut locks, atfork) = (p.streams.clone(), p.locks.clone(), p.atfork.clone());
        let c = self.process_mut(child)?;
        let main = c.main_tid();
        for l in locks.iter_ids() {
            if locks.owner_of(l) == Some(calling_tid) {
                locks.set_owner(l, Some(main));
                c.threads[0].note_acquired(l);
            }
        }
        (c.streams, c.locks, c.atfork) = (streams, locks, atfork);
        Ok(())
    }

    /// Runs `child` in `parent`'s address space on loan
    /// ([`SpaceRef::BorrowedFrom`]), parking `parent` until the child
    /// execs or exits if `park`. Nothing in that memory is copied, and
    /// the model gives the borrower no lock table and no stream buffers
    /// of the parent's: it starts with empty ones, though a real vfork
    /// child sees the parent's in the memory it borrows.
    pub fn borrow_space(&mut self, parent: Pid, child: Pid, park: bool) -> KResult<()> {
        self.process_mut(child)?.space_ref = SpaceRef::BorrowedFrom(parent);
        if park {
            self.vfork_park(parent, child)?;
        }
        Ok(())
    }

    /// Spawns an additional thread in `pid`.
    pub fn spawn_thread(&mut self, pid: Pid) -> KResult<Tid> {
        let tid = self.tids.alloc();
        let p = self.process_mut(pid)?;
        p.threads.push(crate::thread::Thread::new(tid));
        self.sched.enqueue(Task { pid, tid });
        Ok(tid)
    }

    /// Registers a userspace lock in `pid`.
    pub fn register_lock(&mut self, pid: Pid, name_id: u32) -> KResult<crate::sync::LockId> {
        Ok(self.process_mut(pid)?.locks.register(name_id))
    }

    /// Acquires a lock for `tid` in `pid`.
    ///
    /// Returns [`Errno::Ebusy`] and blocks the thread when contended, and
    /// [`Errno::Edeadlk`] when the owner no longer exists in the process —
    /// the post-fork orphaned-lock deadlock.
    pub fn lock_acquire(&mut self, pid: Pid, tid: Tid, lock: crate::sync::LockId) -> KResult<()> {
        let p = self.process_mut(pid)?;
        match p.locks.acquire(lock, tid) {
            Ok(()) => {
                if let Some(t) = p.thread_mut(tid) {
                    t.note_acquired(lock);
                }
                Ok(())
            }
            Err(Errno::Ebusy) => {
                let owner = p
                    .locks
                    .get(lock)
                    .and_then(|l| l.owner)
                    .expect("busy lock has owner");
                if p.thread(owner).is_none() {
                    // The owner died with the fork: permanent deadlock.
                    return Err(Errno::Edeadlk);
                }
                if let Some(t) = p.thread_mut(tid) {
                    t.state = crate::thread::ThreadState::BlockedOnLock(lock);
                }
                Err(Errno::Ebusy)
            }
            Err(e) => Err(e),
        }
    }

    /// Releases a lock and wakes one blocked waiter.
    pub fn lock_release(&mut self, pid: Pid, tid: Tid, lock: crate::sync::LockId) -> KResult<()> {
        let p = self.process_mut(pid)?;
        p.locks.release(lock, tid)?;
        if let Some(t) = p.thread_mut(tid) {
            t.note_released(lock);
        }
        if let Some(w) = p
            .threads
            .iter_mut()
            .find(|t| t.state == crate::thread::ThreadState::BlockedOnLock(lock))
        {
            w.state = crate::thread::ThreadState::Runnable;
        }
        Ok(())
    }

    /// Parks every thread of `pid` for the duration of a vfork child's
    /// borrow.
    pub fn vfork_park(&mut self, pid: Pid, child: Pid) -> KResult<()> {
        let p = self.process_mut(pid)?;
        p.park_all_threads();
        p.vfork_children.push(child);
        Ok(())
    }

    /// Returns a vfork borrow: unparks the parent.
    pub(crate) fn vfork_return(&mut self, parent: Pid, child: Pid) -> KResult<()> {
        let p = self.process_mut(parent)?;
        p.vfork_children.retain(|c| *c != child);
        if p.vfork_children.is_empty() {
            p.unpark_all_threads();
        }
        Ok(())
    }

    /// Exec's step 1: `pid` gives up the address space it runs in and
    /// is left owning an empty one. An owned space is destroyed (frames
    /// and commit charge released); a vfork borrower hands the loan back
    /// and the parent resumes.
    pub fn destroy_address_space(&mut self, pid: Pid) -> KResult<()> {
        if self.process(pid)?.space_ref == SpaceRef::Owned {
            self.span("destroy_address_space", "kernel", |k| k.release_space(pid))
        } else {
            self.release_space(pid)
        }
    }

    // ------------------------------------------------------------------
    // Spawn fast-path plumbing (exec image cache + warm-child pool)
    // ------------------------------------------------------------------

    /// Relocates the VMA of `pid` starting exactly at `old` to `new`,
    /// carrying resident pages along (see
    /// [`AddressSpace::slide_vma`]). No TLB work: the only caller slides
    /// warm-pool children that have never been scheduled, so no CPU holds
    /// stale translations.
    pub fn slide_vma(&mut self, pid: Pid, old: Vpn, new: Vpn) -> KResult<u64> {
        let m = self.mem_ctx(pid)?;
        Ok(m.space.slide_vma(old, new, m.phys, m.cycles)?)
    }

    /// Maps an image-cache frame at `vpn` of `pid` copy-on-write (see
    /// [`AddressSpace::map_shared_frame`]). `exec` governs the NX bit.
    pub fn map_shared_frame(&mut self, pid: Pid, vpn: Vpn, pfn: Pfn, exec: bool) -> KResult<()> {
        let m = self.mem_ctx(pid)?;
        Ok(m.space.map_shared_frame(vpn, pfn, exec, m.phys, m.cycles)?)
    }

    /// Write-protects and COW-marks the resident page at `vpn` of `pid`
    /// so its frame can enter the exec image cache (see
    /// [`AddressSpace::cow_protect_page`]). Returns the installed PTE.
    pub fn cow_protect_page(&mut self, pid: Pid, vpn: Vpn) -> KResult<Pte> {
        let m = self.mem_ctx(pid)?;
        Ok(m.space.cow_protect_page(vpn, m.phys, m.cycles)?)
    }

    /// Re-parents a warm-pool child onto `new_parent` at checkout: the
    /// child adopts the new parent's credentials, resource limits, working
    /// directory, and process group/session — exactly what it would have
    /// inherited had `new_parent` spawned it directly — and per-uid
    /// process accounting moves with it. Enforces the adopter's
    /// `RLIMIT_NPROC` the same way [`Kernel::allocate_process`] does, so a
    /// pool hit cannot evade the limit a plain spawn would hit.
    pub fn adopt_process(&mut self, child: Pid, new_parent: Pid) -> KResult<()> {
        self.ensure_alive(child)?;
        let identity = self.identity_from(new_parent, Some(child))?;
        let (old_ppid, old_uid) = {
            let p = self.process(child)?;
            (p.ppid, p.cred.uid)
        };
        if let Some(pp) = self.procs.get_mut(old_ppid) {
            pp.children.retain(|c| *c != child);
        }
        if let Some(np) = self.procs.get_mut(new_parent) {
            np.children.push(child);
        }
        self.rebook_uid(old_uid, identity.cred.uid);
        identity.give(self.process_mut(child)?, new_parent);
        Ok(())
    }

    /// Releases one descriptor-table entry (public wrapper over the io
    /// internals, for the exec path in `fpr-exec`).
    pub fn release_fd_entry(&mut self, entry: FdEntry) -> KResult<()> {
        crate::io::release_entry(&mut self.ofds, &mut self.pipes, entry)
    }

    /// Gives `pid` the uid `uid`, real and effective, and moves it from its
    /// old uid's per-uid process books to `uid`'s.
    pub fn set_process_uid(&mut self, pid: Pid, uid: u32) -> KResult<()> {
        let cred = &mut self.process_mut(pid)?.cred;
        let old = std::mem::replace(&mut cred.uid, uid);
        cred.euid = uid;
        self.rebook_uid(old, uid);
        Ok(())
    }

    /// Moves one process in the per-uid books from `old` to `new`.
    fn rebook_uid(&mut self, old: u32, new: u32) {
        if old == new {
            return;
        }
        if let Some(c) = self.user_counts.get_mut(&old) {
            *c = c.saturating_sub(1);
        }
        *self.user_counts.entry(new).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot_with_init() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn init_has_stdio_on_console() {
        let (k, init) = boot_with_init();
        let p = k.process(init).unwrap();
        assert_eq!(p.fds.open_count(), 3);
        assert_eq!(p.pid, Pid(1));
        assert_eq!(k.ofds.live(), 3);
    }

    /// Inserts and removes out of PID order leave iteration in PID order.
    #[test]
    fn the_process_table_iterates_in_pid_order() {
        let mut t = ProcTable::new(16);
        let root = Vfs::new().root();
        let put = |t: &mut ProcTable, pid: u32| t.insert(Process::new(Pid(pid), Pid(1), "p", Tid(pid.into()), root));
        for pid in [9, 3, 12, 1, 7] {
            put(&mut t, pid);
        }
        assert!(t.remove(Pid(3)).is_some());
        assert!(t.remove(Pid(12)).is_some());
        assert!(t.remove(Pid(12)).is_none(), "an empty slot removes nothing");
        for pid in [16, 5, 12] {
            put(&mut t, pid);
        }
        let order: Vec<u32> = t.iter().map(|p| p.pid.0).collect();
        assert_eq!(order, [1, 5, 7, 9, 12, 16]);
        assert_eq!(t.len(), 6);
        assert!(t.get(Pid(17)).is_none(), "past the last slot is nobody");
    }

    /// A PID freed at the top of a wrapped space comes back in the slot it
    /// had, and the table never grows past its boot size.
    #[test]
    fn a_pid_slot_is_reused_after_the_pids_wrap() {
        let mut k = Kernel::new(MachineConfig {
            max_pids: 4,
            ..MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        let kids: Vec<Pid> = ["a", "b", "c"].iter().map(|n| k.allocate_process(init, n).unwrap()).collect();
        assert_eq!(kids, [Pid(2), Pid(3), Pid(4)]);
        k.exit(Pid(3), 0).unwrap();
        k.waitpid(init, Some(Pid(3))).unwrap();
        assert_eq!(k.allocate_process(init, "d"), Ok(Pid(3)), "wrapped past 4 to the one free pid");
        assert_eq!(k.process(Pid(3)).unwrap().name, "d");
        assert_eq!(k.allocate_process(init, "e"), Err(Errno::Eagain));
        assert_eq!(k.pids(), [Pid(1), Pid(2), Pid(3), Pid(4)]);
        assert_eq!(k.procs.slots.len(), 5);
        k.check_invariants().unwrap();
    }

    /// Each cell's table holds the PIDs of its own stripe and no other.
    #[test]
    fn a_cell_table_holds_only_its_stripe() {
        let cfg = MachineConfig::default();
        let shared = SmpShared::new(&cfg, 2);
        let mut cells: Vec<Kernel> = (0..2).map(|c| Kernel::new_smp(cfg.clone(), &shared, c)).collect();
        for k in &mut cells {
            let init = k.create_init("init").unwrap();
            for _ in 0..3 {
                k.allocate_process(init, "worker").unwrap();
            }
        }
        assert_eq!(cells[0].pids(), [Pid(1), Pid(3), Pid(5), Pid(7)]);
        assert_eq!(cells[1].pids(), [Pid(2), Pid(4), Pid(6), Pid(8)]);
        assert!(cells[1].process(Pid(3)).is_err(), "cell 0's pid is not in cell 1's table");
        for k in &cells {
            k.check_invariants().unwrap();
        }
    }

    #[test]
    fn allocate_process_links_parent_and_counts_uid() {
        let (mut k, init) = boot_with_init();
        let child = k.allocate_process(init, "child").unwrap();
        assert_eq!(k.process(child).unwrap().ppid, init);
        assert!(k.process(init).unwrap().children.contains(&child));
        assert_eq!(k.nproc_of(0), 2);
    }

    #[test]
    fn nproc_limit_blocks_allocation() {
        let (mut k, init) = boot_with_init();
        k.process_mut(init)
            .unwrap()
            .rlimits
            .set(Resource::Nproc, crate::rlimit::Rlimit::both(2));
        k.allocate_process(init, "a").unwrap();
        assert_eq!(k.allocate_process(init, "b"), Err(Errno::Eagain));
    }

    #[test]
    fn mmap_write_read_roundtrip() {
        let (mut k, init) = boot_with_init();
        let base = k.mmap_anon(init, 4, Prot::RW, Share::Private).unwrap();
        k.write_mem(init, base, 77).unwrap();
        assert_eq!(k.read_mem(init, base), Ok(77));
        assert_eq!(k.read_mem(init, base.add(1)), Ok(0));
        assert_eq!(k.process(init).unwrap().resident_pages(), 2);
    }

    #[test]
    fn mmap_respects_as_rlimit() {
        let (mut k, init) = boot_with_init();
        k.process_mut(init)
            .unwrap()
            .rlimits
            .set(Resource::AsPages, crate::rlimit::Rlimit::both(10));
        assert!(k.mmap_anon(init, 8, Prot::RW, Share::Private).is_ok());
        assert_eq!(
            k.mmap_anon(init, 8, Prot::RW, Share::Private),
            Err(Errno::Enomem)
        );
    }

    #[test]
    fn munmap_releases_commit() {
        let (mut k, init) = boot_with_init();
        let before = k.commit.committed();
        let base = k.mmap_anon(init, 16, Prot::RW, Share::Private).unwrap();
        assert_eq!(k.commit.committed(), before + 16);
        k.munmap(init, base, 16).unwrap();
        assert_eq!(k.commit.committed(), before);
    }

    #[test]
    fn commit_limit_never_policy_fails_up_front() {
        let mut k = Kernel::new(MachineConfig {
            frames: 100,
            overcommit: OvercommitPolicy::Never { ratio: 0.5 },
            ..MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        assert!(k.mmap_anon(init, 40, Prot::RW, Share::Private).is_ok());
        assert_eq!(
            k.mmap_anon(init, 40, Prot::RW, Share::Private),
            Err(Errno::Enomem)
        );
    }

    #[test]
    fn clone_fd_table_shares_descriptions() {
        let (mut k, init) = boot_with_init();
        let child = k.allocate_process(init, "child").unwrap();
        k.copy_fd_table(init, child).unwrap();
        let table = &k.process(child).unwrap().fds;
        assert_eq!(table.open_count(), 3);
        // Each of the three stdio OFDs now has two references: it
        // survives the first drop and dies with the second.
        let entry = table.get(crate::fdtable::STDOUT).unwrap();
        assert_eq!(k.ofds.decref(entry.ofd), Ok(None));
        assert!(matches!(k.ofds.decref(entry.ofd), Ok(Some(_))));
    }

    #[test]
    fn clone_address_space_charges_commit() {
        let (mut k, init) = boot_with_init();
        k.mmap_anon(init, 8, Prot::RW, Share::Private).unwrap();
        let child = k.allocate_process(init, "child").unwrap();
        let before = k.commit.committed();
        k.copy_space(init, child, fpr_mem::ForkMode::Cow).unwrap();
        assert_eq!(k.commit.committed(), before + 8);
        assert_eq!(k.process(child).unwrap().aspace.virtual_pages(), 8);
    }

    #[test]
    fn adopt_process_reparents_and_enforces_adopter_nproc() {
        let (mut k, init) = boot_with_init();
        let parked = k.allocate_process(init, "parked").unwrap();
        let adopter = k.allocate_process(init, "adopter").unwrap();
        // Three live processes of uid 0; an adopter capped at 2 would not
        // have been allowed to spawn the child itself, so adoption fails.
        k.process_mut(adopter)
            .unwrap()
            .rlimits
            .set(Resource::Nproc, crate::rlimit::Rlimit::both(2));
        assert_eq!(k.adopt_process(parked, adopter), Err(Errno::Eagain));
        assert_eq!(k.process(parked).unwrap().ppid, init, "unchanged on Err");
        k.process_mut(adopter)
            .unwrap()
            .rlimits
            .set(Resource::Nproc, crate::rlimit::Rlimit::both(8));
        k.adopt_process(parked, adopter).unwrap();
        assert_eq!(k.process(parked).unwrap().ppid, adopter);
        assert!(k.process(adopter).unwrap().children.contains(&parked));
        assert!(!k.process(init).unwrap().children.contains(&parked));
        assert_eq!(k.nproc_of(0), 3, "same-uid adoption moves no accounting");
        // Adopting back restores the original linkage (the re-park path).
        k.adopt_process(parked, init).unwrap();
        assert_eq!(k.process(parked).unwrap().ppid, init);
        assert!(!k.process(adopter).unwrap().children.contains(&parked));
    }

    /// The books move from the uid the process had, not from its parent's:
    /// a second change of a child whose uid already differs from its
    /// parent's leaves the parent's uid booked as it was.
    #[test]
    fn set_process_uid_moves_the_books_from_the_process_own_uid() {
        let (mut k, init) = boot_with_init();
        let child = k.allocate_process(init, "child").unwrap();
        k.set_process_uid(child, 5).unwrap();
        k.set_process_uid(child, 9).unwrap();
        let cred = k.process(child).unwrap().cred;
        assert_eq!((cred.uid, cred.euid), (9, 9));
        assert_eq!((k.nproc_of(0), k.nproc_of(5), k.nproc_of(9)), (1, 0, 1));
        assert_eq!(k.check_invariants(), Ok(()));
    }

    #[test]
    fn slide_vma_via_kernel_keeps_commit_and_resident() {
        let (mut k, init) = boot_with_init();
        let base = k.mmap_anon(init, 8, Prot::RW, Share::Private).unwrap();
        k.write_mem(init, base, 3).unwrap();
        let committed = k.commit.committed();
        let resident = k.process(init).unwrap().resident_pages();
        let dest = Vpn(base.0 + 0x10_0000);
        let moved = k.slide_vma(init, base, dest).unwrap();
        assert_eq!(moved, 1, "one resident page carried");
        assert_eq!(k.commit.committed(), committed);
        assert_eq!(k.process(init).unwrap().resident_pages(), resident);
        assert_eq!(k.read_mem(init, dest), Ok(3));
    }

    #[test]
    fn orphaned_lock_is_edeadlk() {
        let (mut k, init) = boot_with_init();
        let lock = k
            .register_lock(init, crate::sync::names::MALLOC_ARENA)
            .unwrap();
        // A "ghost" thread that will not survive fork: simulate by
        // acquiring with a tid that is not in the thread list.
        let ghost = Tid(9999);
        k.process_mut(init)
            .unwrap()
            .locks
            .acquire(lock, ghost)
            .unwrap();
        let main = k.process(init).unwrap().main_tid();
        assert_eq!(k.lock_acquire(init, main, lock), Err(Errno::Edeadlk));
    }

    #[test]
    fn contended_lock_blocks_then_wakes() {
        let (mut k, init) = boot_with_init();
        let lock = k.register_lock(init, crate::sync::names::APP).unwrap();
        let t2 = k.spawn_thread(init).unwrap();
        let main = k.process(init).unwrap().main_tid();
        k.lock_acquire(init, main, lock).unwrap();
        assert_eq!(k.lock_acquire(init, t2, lock), Err(Errno::Ebusy));
        assert!(!k
            .process(init)
            .unwrap()
            .thread(t2)
            .unwrap()
            .is_schedulable());
        k.lock_release(init, main, lock).unwrap();
        assert!(k
            .process(init)
            .unwrap()
            .thread(t2)
            .unwrap()
            .is_schedulable());
        k.lock_acquire(init, t2, lock).unwrap();
    }

    #[test]
    fn smp_cells_share_one_pool_and_conserve_frames() {
        let cfg = MachineConfig {
            frames: 1024,
            ..Default::default()
        };
        let shared = SmpShared::new(&cfg, 2);
        let mut cells: Vec<Kernel> = (0..2)
            .map(|c| Kernel::new_smp(cfg.clone(), &shared, c))
            .collect();
        let mut pids = Vec::new();
        for k in &mut cells {
            let init = k.create_init("init").unwrap();
            let child = k.allocate_process(init, "worker").unwrap();
            let b = k
                .mmap_anon(child, 32, fpr_mem::Prot::RW, fpr_mem::Share::Private)
                .unwrap();
            k.populate(child, b, 32).unwrap();
            pids.extend([init, child]);
        }
        let unique: std::collections::BTreeSet<Pid> = pids.iter().copied().collect();
        assert_eq!(unique.len(), pids.len(), "shared pid table never collides");
        assert_eq!(shared.pids.live(), pids.len());

        // Machine-wide conservation: every frame is either free in the
        // pool or drawn by exactly one cell (resident or held back).
        let drawn: u64 = cells.iter().map(|k| k.phys.drawn_frames()).sum();
        assert_eq!(drawn + shared.pool.free_frames(), shared.pool.total_frames());

        for k in &cells {
            k.check_invariants().unwrap();
        }

        // Tearing a cell down returns its frames to the pool.
        for k in &mut cells {
            let victims: Vec<Pid> = k
                .procs
                .iter()
                .filter(|p| p.ppid != p.pid) // init is its own parent
                .map(|p| p.pid)
                .collect();
            for pid in victims {
                let _ = k.kill(pid, crate::signal::Sig::Kill);
            }
            k.phys.drain();
        }
        let drawn_after: u64 = cells.iter().map(|k| k.phys.drawn_frames()).sum();
        assert!(
            drawn_after < drawn,
            "killing workers must return frames to the shared pool"
        );
        assert_eq!(
            drawn_after + shared.pool.free_frames(),
            shared.pool.total_frames()
        );
    }
}
