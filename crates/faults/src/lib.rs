//! # fpr-faults — deterministic, seedable fault injection
//!
//! The paper's complaint about fork is not just that it is slow — it is
//! that it *fails late and messily*: every subsystem must know how to
//! duplicate and un-duplicate itself, and the un-duplicate paths almost
//! never execute in testing. This crate makes those paths executable on
//! demand.
//!
//! ## Model
//!
//! Instrumented allocation paths (frame allocation, page-table node
//! allocation, VMA clone, PID/FD allocation, VFS ops, spawn file actions,
//! xproc population steps) call [`cross`] with a named [`FaultSite`].
//! A [`FaultPlan`] addresses sites by `(site, nth-occurrence)` — or by
//! global crossing index — and is installed for the dynamic extent of one
//! operation with [`with_plan`]. The run returns a [`FaultTrace`] listing
//! every crossing in order, so a harness can:
//!
//! 1. run an operation once under an empty plan to learn the K injection
//!    points it crosses, then
//! 2. replay it K times, failing at each point in turn, asserting a clean
//!    `Err` and an intact kernel every time.
//!
//! [`sweep`] is that harness, written once: it runs both steps on fresh
//! worlds and hands every run to the caller's judge.
//!
//! Everything is deterministic: no clocks, no global RNG. Random plans
//! ([`FaultPlan::random`]) derive from an explicit `u64` seed via an
//! embedded SplitMix64 step, so any failing schedule replays exactly.
//!
//! ## Coverage
//!
//! Independent of any active plan, `cross` keeps cumulative per-thread
//! counters of crossings and injections per site ([`coverage`]). E17's
//! arms (`forkroad-core`'s `smp_faults`) add them up across their worker
//! threads for the fault-site table, `fpr-mem`'s `fork_shape` test counts
//! a fork's crossings with them, and the repo benchmark reports them as
//! `faults.crossings.count`.
//!
//! Counting is also *all* a crossing does when nobody is listening: with
//! no [`with_plan`] scope and no [`Observer`] on the thread, `cross` bumps
//! the site's slot of a `[u64; FaultSite::COUNT]` array and returns, so
//! instrumentation can sit on per-page paths (one crossing per PTE a fork
//! copies). Scoped and observed crossings count in the same slots.
//!
//! A loop that would cross one site `n` times in a row calls
//! [`cross_n`] once instead: nobody listening, that is one add of `n`; a
//! plan is still asked occurrence by occurrence — same trace, same
//! occurrence and global indices as `n` calls of `cross` — and the caller
//! learns how many crossings succeeded before the one that failed.
//!
//! The state is thread-local; the simulator is single-threaded per
//! kernel, and this keeps parallel test binaries from interfering. An
//! SMP storm that wants the machine's coverage has each worker hand its
//! [`coverage`] back to the thread that spawned it, which adds them up. Per-cell plans
//! derive from one root seed via [`derive_cell_seed`], keeping every
//! thread's schedule deterministic and replayable.
//!
//! ## Observers
//!
//! A thread-local [`Observer`] can be installed with [`set_observer`] to
//! mirror every crossing into another subsystem — the tracing sink in
//! `fpr-trace` uses this to turn fault-site hits into trace events, so no
//! fault path is silent. It is told of crossings a run at a time: once per
//! [`cross_n`] call that passes, and once more for a crossing that injects.
//!
//! ## Example
//!
//! ```
//! use fpr_faults::{cross, with_plan, FaultPlan, FaultSite};
//!
//! // Fail the second frame allocation the operation attempts.
//! let plan = FaultPlan::passive().fail_at(FaultSite::FrameAlloc, 1);
//! let (results, trace) = with_plan(plan, || {
//!     (0..3).map(|_| cross(FaultSite::FrameAlloc)).collect::<Vec<_>>()
//! });
//! assert!(results[0].is_ok() && results[2].is_ok());
//! assert!(results[1].is_err());
//! assert_eq!(trace.len(), 3);
//! assert_eq!(trace.injected().len(), 1);
//! ```

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};

/// Declares [`FaultSite`] once; the enum, [`FaultSite::ALL`],
/// [`FaultSite::COUNT`], [`FaultSite::index`] and [`FaultSite::name`] are
/// all derived from the single variant list, so a new site *cannot* be
/// added without automatically joining every sweep and coverage report —
/// there is no hand-maintained array left to forget to update.
macro_rules! fault_sites {
    ($( $(#[$doc:meta])* $variant:ident => $name:literal, )+) => {
        /// A named fault-injection site: one class of allocation that can fail.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum FaultSite {
            $( $(#[$doc])* $variant, )+
        }

        impl FaultSite {
            /// Number of [`FaultSite`] variants, derived from the
            /// declaration list itself.
            pub const COUNT: usize = [$(FaultSite::$variant,)+].len();

            /// Every site, in declaration order (used by sweeps and
            /// coverage reports). Derived, not hand-maintained: it is the
            /// same list the enum is generated from.
            pub const ALL: [FaultSite; FaultSite::COUNT] = [$(FaultSite::$variant,)+];

            /// Position of this site in [`FaultSite::ALL`] (the enum
            /// discriminant — declaration order by construction).
            pub const fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case name (report/JSON key).
            pub fn name(self) -> &'static str {
                match self {
                    $( FaultSite::$variant => $name, )+
                }
            }

            /// `fault.<name>`: what the trace event mirroring a crossing
            /// of this site is called.
            pub fn event_name(self) -> &'static str {
                match self {
                    $( FaultSite::$variant => concat!("fault.", $name), )+
                }
            }
        }
    };
}

fault_sites! {
    /// Physical frame allocation (`fpr-mem::phys`), crossed for every
    /// frame before a cell takes it — off its parked frames, out of its
    /// reserved block or from the pool — and before anything changes.
    FrameAlloc => "frame_alloc",
    /// Page-table intermediate node allocation (`fpr-mem::page_table`).
    PtNodeAlloc => "pt_node_alloc",
    /// Per-VMA clone step during address-space fork (`fpr-mem::address_space`).
    VmaClone => "vma_clone",
    /// Commit-accounting charge (`fpr-mem::overcommit`).
    CommitCharge => "commit_charge",
    /// PID allocation (`fpr-kernel::pid`).
    PidAlloc => "pid_alloc",
    /// Descriptor-table slot installation (`fpr-kernel::fdtable`).
    FdAlloc => "fd_alloc",
    /// VFS operation needing kernel memory (`fpr-kernel::vfs`).
    VfsOp => "vfs_op",
    /// One `posix_spawn` file action (`fpr-api::spawn`).
    SpawnFileAction => "spawn_file_action",
    /// One xproc `ProcessBuilder` population step (`fpr-api::xproc`).
    XprocStep => "xproc_step",
    /// Deferred page-table subtree copy during on-demand fork
    /// (`fpr-mem::page_table`): the private leaf node allocated when a
    /// shared subtree is first written, unmapped, or reprotected.
    PtUnshare => "pt_unshare",
    /// Pinning a freshly loaded executable's segment frames into the
    /// exec image cache (`fpr-exec::cache`).
    ImageCacheInsert => "image_cache_insert",
    /// Checking a pre-warmed child out of the spawn warm pool
    /// (`fpr-api::fastpath`).
    PoolCheckout => "pool_checkout",
    /// One shrinker invocation of the memory-pressure reclaim pass
    /// (`fpr-kernel::reclaim`). Crossed for every shrinker *before* any
    /// shrinker mutates, so an injected failure aborts the whole pass
    /// with the kernel byte-identical to before it.
    ReclaimShrink => "reclaim_shrink",
    /// Draining warm-pool children under memory pressure
    /// (`fpr-api::fastpath`): the pool shrinker's work-list setup,
    /// crossed before any parked child is torn down.
    PoolDrain => "pool_drain",
    /// Allocating a swap slot from the device bitmap during a swap-out
    /// pass (`fpr-mem::swap`). An injected failure aborts the pass with
    /// every already-reserved slot returned — the kernel stays
    /// byte-identical.
    SwapSlotAlloc => "swap_slot_alloc",
    /// The swap-out pass itself (`fpr-kernel::reclaim`), crossed once
    /// per pass before any page table or frame is touched, so an
    /// injected failure aborts the pass byte-identically.
    SwapOut => "swap_out",
    /// Reading a page back from the swap device on a major fault
    /// (`fpr-mem::swap`). An injected failure models a device I/O error
    /// and surfaces as SIGBUS-style death of the faulting process only.
    SwapIn => "swap_in",
    /// Collapsing 512 small PTEs into one 2 MiB huge leaf
    /// (`fpr-mem::page_table`). Promotion is strictly optional, so an
    /// injected failure is *absorbed*: the operation succeeds with small
    /// pages and the kernel is byte-identical to the un-promoted world.
    PtPromote => "pt_promote",
    /// Splitting one 2 MiB huge leaf back into 512 small PTEs
    /// (`fpr-mem::page_table`), crossed before any PTE or frame mutates,
    /// so an injected failure fails the enclosing operation cleanly with
    /// the huge mapping intact.
    PtDemote => "pt_demote",
    /// Evacuating a fail-stopped kernel cell (`fpr-kernel::lifecycle`),
    /// crossed before any process is killed, so an injected failure
    /// leaves the dying cell untouched and cleanly retryable.
    CellEvacuate => "cell_evacuate",
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An injected failure: which site fired and which occurrence it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: FaultSite,
    /// 0-based occurrence index of that site within the active scope.
    pub occurrence: u64,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}#{}", self.site, self.occurrence)
    }
}

/// Which crossings of which sites should fail.
///
/// Occurrence indices are 0-based and scoped to one [`with_plan`] run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    per_site: BTreeMap<FaultSite, BTreeSet<u64>>,
    global: BTreeSet<u64>,
    random: Option<RandomMode>,
}

#[derive(Debug, Clone, Copy)]
struct RandomMode {
    seed: u64,
    /// Probability of failing each crossing, in parts per 1024.
    per_1024: u16,
}

impl FaultPlan {
    /// A plan that injects nothing (counting/tracing runs).
    pub fn passive() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fails the `nth` (0-based) crossing of `site`.
    pub fn fail_at(mut self, site: FaultSite, nth: u64) -> FaultPlan {
        self.per_site.entry(site).or_default().insert(nth);
        self
    }

    /// Fails the `nth` (0-based) crossing of *any* site — the sweep
    /// primitive: count K crossings once, then replay failing 0..K.
    pub fn fail_nth_crossing(mut self, nth: u64) -> FaultPlan {
        self.global.insert(nth);
        self
    }

    /// Fails each crossing independently with probability
    /// `per_1024 / 1024`, deterministically derived from `seed`.
    pub fn random(seed: u64, per_1024: u16) -> FaultPlan {
        FaultPlan {
            random: Some(RandomMode {
                seed,
                per_1024: per_1024.min(1024),
            }),
            ..FaultPlan::default()
        }
    }

    fn wants(&self, site: FaultSite, occurrence: u64, global_index: u64) -> bool {
        if self.global.contains(&global_index) {
            return true;
        }
        if let Some(set) = self.per_site.get(&site) {
            if set.contains(&occurrence) {
                return true;
            }
        }
        if let Some(r) = self.random {
            // One SplitMix64 step keyed by (seed, global index): stateless,
            // so the decision for crossing N never depends on history.
            let mut z = r
                .seed
                .wrapping_add((global_index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            return (z & 1023) < r.per_1024 as u64;
        }
        false
    }
}

/// One site crossing observed during a [`with_plan`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossing {
    /// The site crossed.
    pub site: FaultSite,
    /// 0-based occurrence index of this site within the run.
    pub occurrence: u64,
    /// 0-based index among all crossings of the run.
    pub global_index: u64,
    /// Whether the plan made this crossing fail.
    pub injected: bool,
}

impl std::fmt::Display for Crossing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.site, self.occurrence)
    }
}

/// Ordered record of every crossing of one [`with_plan`] run.
#[derive(Debug, Clone, Default)]
pub struct FaultTrace {
    /// Crossings in execution order.
    pub crossings: Vec<Crossing>,
}

impl FaultTrace {
    /// Total crossings (the K of a fail-each-point sweep).
    pub fn len(&self) -> usize {
        self.crossings.len()
    }

    /// True if the operation crossed no instrumented site.
    pub fn is_empty(&self) -> bool {
        self.crossings.is_empty()
    }

    /// Crossings that actually injected.
    pub fn injected(&self) -> Vec<Crossing> {
        self.crossings.iter().copied().filter(|c| c.injected).collect()
    }

    /// Distinct sites crossed, in stable order.
    pub fn sites(&self) -> Vec<FaultSite> {
        let set: BTreeSet<FaultSite> = self.crossings.iter().map(|c| c.site).collect();
        set.into_iter().collect()
    }
}

/// Cumulative per-site counters (per thread, across all scopes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteCoverage {
    /// Times the site was crossed.
    pub crossings: u64,
    /// Times a fault was injected at the site.
    pub injections: u64,
}

struct ActiveScope {
    plan: FaultPlan,
    /// Crossings of each site so far: the occurrence index its next
    /// crossing gets.
    counts: [u64; FaultSite::COUNT],
    total: u64,
    trace: FaultTrace,
}

thread_local! {
    /// Cumulative crossings per site: the whole of [`coverage`]'s first
    /// column, and everything a crossing nobody listens to touches.
    static CROSSINGS: [Cell<u64>; FaultSite::COUNT] =
        const { [const { Cell::new(0) }; FaultSite::COUNT] };
    /// Cumulative injections per site. Only a scope injects.
    static INJECTIONS: [Cell<u64>; FaultSite::COUNT] =
        const { [const { Cell::new(0) }; FaultSite::COUNT] };
    /// True while a scope or an observer exists on this thread: `cross`
    /// must then do more than count.
    static LISTENING: Cell<bool> = const { Cell::new(false) };
    static SCOPE: RefCell<Option<ActiveScope>> = const { RefCell::new(None) };
    static OBSERVER: RefCell<Option<Observer>> = const { RefCell::new(None) };
}

/// Recomputes [`LISTENING`] after the scope or the observer changed.
fn update_listening() {
    let scope = SCOPE.with(|s| s.borrow().is_some());
    let observer = OBSERVER.with(|o| o.borrow().is_some());
    LISTENING.with(|l| l.set(scope || observer));
}

/// A thread-local crossing callback: `(site, first_occurrence, count,
/// injected)` — `count` consecutive crossings of `site`, the first of them
/// occurrence `first_occurrence`, all passed or (`count` = 1) one injected.
///
/// Inside a [`with_plan`] scope `first_occurrence` is the 0-based per-site
/// index within that scope; outside any scope it is the cumulative
/// per-thread coverage count before the run. The callback must not call
/// [`cross`] itself — a reentrant crossing runs unobserved.
pub type Observer = Box<dyn FnMut(FaultSite, u64, u64, bool)>;

/// Installs (or, with `None`, removes) this thread's crossing observer,
/// returning the previous one so scoped users can restore it.
///
/// ```
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use fpr_faults::{cross, set_observer, FaultSite};
///
/// let seen = Rc::new(Cell::new(0u64));
/// let s = Rc::clone(&seen);
/// let prev = set_observer(Some(Box::new(move |_, _, count, _| s.set(s.get() + count))));
/// cross(FaultSite::VfsOp).unwrap();
/// set_observer(prev);
/// assert_eq!(seen.get(), 1);
/// ```
pub fn set_observer(observer: Option<Observer>) -> Option<Observer> {
    let previous = OBSERVER.with(|o| std::mem::replace(&mut *o.borrow_mut(), observer));
    update_listening();
    previous
}

/// Declares that execution reached `site`. Instrumented code calls this
/// and propagates `Err` as its own "allocation failed" error.
///
/// Outside any [`with_plan`] scope this only updates coverage counters
/// and always succeeds.
#[inline]
pub fn cross(site: FaultSite) -> Result<(), InjectedFault> {
    cross_n(site, 1).map_err(|(_, fault)| fault)
}

/// [`cross`], `n` times in a row: what a loop that crosses `site` once per
/// item calls once per batch of `n` items. `Err((k, fault))` says the first
/// `k` crossings passed and the next one injected — the `k + 1` crossings,
/// and no more, that the loop would have made — so the caller can keep the
/// work of the first `k` items and fail at item `k` as the loop would have.
///
/// ```
/// use fpr_faults::{cross_n, with_plan, FaultPlan, FaultSite};
///
/// let plan = FaultPlan::passive().fail_at(FaultSite::PtNodeAlloc, 5);
/// let (result, trace) = with_plan(plan, || {
///     cross_n(FaultSite::PtNodeAlloc, 2).unwrap();
///     cross_n(FaultSite::PtNodeAlloc, 512)
/// });
/// let (passed, fault) = result.unwrap_err();
/// assert_eq!((passed, fault.occurrence), (3, 5));
/// assert_eq!(trace.len(), 6, "crossings after the injected one were never made");
/// ```
#[inline]
pub fn cross_n(site: FaultSite, n: u64) -> Result<(), (u64, InjectedFault)> {
    if LISTENING.with(Cell::get) {
        return cross_listening(site, n);
    }
    CROSSINGS.with(|c| {
        let slot = &c[site.index()];
        slot.set(slot.get() + n);
    });
    Ok(())
}

/// A run of crossings when a scope or an observer is on the thread: the
/// plan decides each, the trace records each, the observer is told of the
/// run.
#[cold]
fn cross_listening(site: FaultSite, n: u64) -> Result<(), (u64, InjectedFault)> {
    let cumulative = CROSSINGS.with(|c| c[site.index()].get());
    // `made` counts the crossing that injected, if one did: the last.
    let (first, made, fault) = SCOPE.with(|s| {
        let mut scope = s.borrow_mut();
        let Some(scope) = scope.as_mut() else {
            return (cumulative, n, None);
        };
        let first = scope.counts[site.index()];
        let (mut occurrence, mut fault) = (first, None);
        while occurrence < first + n && fault.is_none() {
            let global_index = scope.total;
            scope.total += 1;
            let injected = scope.plan.wants(site, occurrence, global_index);
            scope.trace.crossings.push(Crossing {
                site,
                occurrence,
                global_index,
                injected,
            });
            if injected {
                fault = Some(InjectedFault { site, occurrence });
            }
            occurrence += 1;
        }
        scope.counts[site.index()] = occurrence;
        (first, occurrence - first, fault)
    });
    let passed = made - u64::from(fault.is_some());
    CROSSINGS.with(|c| c[site.index()].set(cumulative + made));
    if fault.is_some() {
        INJECTIONS.with(|i| i[site.index()].set(i[site.index()].get() + 1));
    }
    // Notify outside the SCOPE borrow so the observer may inspect
    // coverage; it is taken out for the call so a reentrant crossing
    // cannot double-borrow.
    let mut observer = OBSERVER.with(|o| o.borrow_mut().take());
    if let Some(f) = observer.as_mut() {
        if passed > 0 {
            f(site, first, passed, false);
        }
        if fault.is_some() {
            f(site, first + passed, 1, true);
        }
    }
    if observer.is_some() {
        OBSERVER.with(|o| {
            let mut slot = o.borrow_mut();
            if slot.is_none() {
                *slot = observer;
            }
        });
    }
    fault.map_or(Ok(()), |fault| Err((passed, fault)))
}

/// Runs `f` with `plan` active, returning its result and the full
/// crossing trace. Scopes do not nest: a nested call panics, because a
/// nested plan would silently steal the outer plan's occurrence counting.
pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> (R, FaultTrace) {
    SCOPE.with(|s| {
        let mut scope = s.borrow_mut();
        assert!(scope.is_none(), "fpr-faults: with_plan scopes do not nest");
        *scope = Some(ActiveScope {
            plan,
            counts: [0; FaultSite::COUNT],
            total: 0,
            trace: FaultTrace::default(),
        });
    });
    update_listening();
    // Even if `f` panics we must clear the scope, or every later test in
    // this thread inherits a stale plan.
    struct ClearOnDrop;
    impl Drop for ClearOnDrop {
        fn drop(&mut self) {
            SCOPE.with(|s| *s.borrow_mut() = None);
            update_listening();
        }
    }
    let guard = ClearOnDrop;
    let out = f();
    let trace = SCOPE.with(|s| s.borrow_mut().take().map(|sc| sc.trace).unwrap_or_default());
    drop(guard);
    (out, trace)
}

/// Convenience: runs `f` under a passive plan and returns only the trace.
pub fn count_crossings(f: impl FnOnce()) -> FaultTrace {
    with_plan(FaultPlan::passive(), f).1
}

/// One run of a [`sweep`]: the world `op` ran on, what it returned and
/// every crossing it made.
#[derive(Debug)]
pub struct Point<W, R> {
    /// The crossing the run failed: `None` for the counting run.
    pub fault: Option<Crossing>,
    /// The world, handed over so the judge can inspect it and retry `op`.
    pub world: W,
    /// What `op` returned.
    pub result: R,
    /// The run's crossings, in order.
    pub trace: FaultTrace,
}

/// The exhaustive fail-point sweep: every un-duplicate path an operation
/// has, run once.
///
/// Runs `op` on a world from `fresh` under a passive plan — the counting
/// run — and then once per crossing it made (or, with `only`, per crossing
/// of that site), each time on a new world from `fresh` with exactly that
/// crossing failed: `fail_nth_crossing` by its global index, or `fail_at`
/// by its occurrence. Every run goes to `judge`, the counting run first.
/// Returns the counting run's trace.
///
/// # Panics
///
/// Panics if a replay injects anything but exactly one fault: `op` crossed
/// fewer times than when it was counted.
///
/// ```
/// use fpr_faults::{cross, sweep, FaultSite, InjectedFault};
///
/// // Three allocations, all undone if one fails.
/// let op = |held: &mut Vec<u32>| -> Result<(), InjectedFault> {
///     for frame in 0..3 {
///         if let Err(fault) = cross(FaultSite::FrameAlloc) {
///             held.clear();
///             return Err(fault);
///         }
///         held.push(frame);
///     }
///     Ok(())
/// };
/// let mut clean = 0;
/// let trace = sweep(None, Vec::new, op, |point| match point.fault {
///     None => assert_eq!(point.result, Ok(())),
///     Some(_) => {
///         assert!(point.result.is_err() && point.world.is_empty());
///         clean += 1;
///     }
/// });
/// assert_eq!((clean, trace.len()), (3, 3));
/// ```
pub fn sweep<W, R>(
    only: Option<FaultSite>,
    mut fresh: impl FnMut() -> W,
    op: impl Fn(&mut W) -> R,
    mut judge: impl FnMut(Point<W, R>),
) -> FaultTrace {
    let mut world = fresh();
    let (result, counted) = with_plan(FaultPlan::passive(), || op(&mut world));
    let trace = counted.clone();
    judge(Point { fault: None, world, result, trace });
    let points = counted.crossings.iter();
    for point in points.filter(|c| only.is_none_or(|site| c.site == site)) {
        let plan = match only {
            Some(site) => FaultPlan::passive().fail_at(site, point.occurrence),
            None => FaultPlan::passive().fail_nth_crossing(point.global_index),
        };
        let mut world = fresh();
        let (result, trace) = with_plan(plan, || op(&mut world));
        let injected = trace.injected();
        let [fault] = injected[..] else {
            panic!(
                "fpr-faults: sweep point {point} (crossing {}) injected {} faults on replay, not one",
                point.global_index,
                injected.len()
            );
        };
        judge(Point { fault: Some(fault), world, result, trace });
    }
    counted
}

/// Cumulative coverage for this thread, keyed by site (stable order).
pub fn coverage() -> Vec<(FaultSite, SiteCoverage)> {
    let read = |site: FaultSite| SiteCoverage {
        crossings: CROSSINGS.with(|c| c[site.index()].get()),
        injections: INJECTIONS.with(|i| i[site.index()].get()),
    };
    FaultSite::ALL.iter().map(|&site| (site, read(site))).collect()
}

/// Clears this thread's cumulative coverage counters.
pub fn reset_coverage() {
    for counters in [&CROSSINGS, &INJECTIONS] {
        counters.with(|c| c.iter().for_each(|slot| slot.set(0)));
    }
}

/// Derives a per-cell fault seed from one machine-wide root seed: a
/// single SplitMix64 step keyed by `(root_seed, cell + 1)`, the same
/// mixer [`FaultPlan::random`] uses per crossing. Cells get decorrelated
/// schedules while the whole storm remains replayable from `root_seed`.
pub fn derive_cell_seed(root_seed: u64, cell: usize) -> u64 {
    let mut z = root_seed.wrapping_add((cell as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_exhaustive_and_ordered() {
        // `index()` is an exhaustive match, so a new variant cannot
        // compile without an index; this assertion then forces `ALL` (and
        // `COUNT`) to carry every variant exactly once, in index order.
        assert_eq!(FaultSite::ALL.len(), FaultSite::COUNT);
        for (i, site) in FaultSite::ALL.iter().enumerate() {
            assert_eq!(
                site.index(),
                i,
                "FaultSite::ALL[{i}] is {site}, whose index() is {}",
                site.index()
            );
        }
        // The SMP site (E17) is registered like any other: reachable by
        // index, named, and therefore swept by every harness that
        // iterates `ALL`.
        assert!(FaultSite::ALL.contains(&FaultSite::CellEvacuate));
        assert_eq!(FaultSite::CellEvacuate.name(), "cell_evacuate");
    }

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut seen = BTreeSet::new();
        for site in FaultSite::ALL {
            assert!(seen.insert(site.name()), "duplicate name {}", site.name());
            assert!(site
                .name()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn passive_plan_injects_nothing_but_traces() {
        let ((), trace) = with_plan(FaultPlan::passive(), || {
            for _ in 0..3 {
                cross(FaultSite::FrameAlloc).unwrap();
            }
            cross(FaultSite::PidAlloc).unwrap();
        });
        assert_eq!(trace.len(), 4);
        assert!(trace.injected().is_empty());
        assert_eq!(
            trace.sites(),
            vec![FaultSite::FrameAlloc, FaultSite::PidAlloc]
        );
    }

    #[test]
    fn fail_at_hits_exactly_the_nth_occurrence() {
        let plan = FaultPlan::passive().fail_at(FaultSite::FrameAlloc, 2);
        let (results, trace) = with_plan(plan, || {
            (0..4).map(|_| cross(FaultSite::FrameAlloc)).collect::<Vec<_>>()
        });
        assert!(results[0].is_ok() && results[1].is_ok() && results[3].is_ok());
        assert_eq!(
            results[2],
            Err(InjectedFault {
                site: FaultSite::FrameAlloc,
                occurrence: 2
            })
        );
        assert_eq!(trace.injected().len(), 1);
        assert_eq!(trace.injected()[0].global_index, 2);
    }

    #[test]
    fn occurrence_counting_is_per_site() {
        let plan = FaultPlan::passive().fail_at(FaultSite::PidAlloc, 0);
        let (results, _) = with_plan(plan, || {
            vec![
                cross(FaultSite::FrameAlloc),
                cross(FaultSite::PidAlloc),
                cross(FaultSite::PidAlloc),
            ]
        });
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "first PidAlloc occurrence fails");
        assert!(results[2].is_ok());
    }

    #[test]
    fn fail_nth_crossing_is_site_agnostic() {
        let plan = FaultPlan::passive().fail_nth_crossing(1);
        let (results, _) = with_plan(plan, || {
            vec![
                cross(FaultSite::FrameAlloc),
                cross(FaultSite::PidAlloc),
                cross(FaultSite::FrameAlloc),
            ]
        });
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }

    #[test]
    fn random_plan_is_reproducible() {
        let run = |seed| {
            with_plan(FaultPlan::random(seed, 512), || {
                (0..64)
                    .map(|_| cross(FaultSite::VmaClone).is_err())
                    .collect::<Vec<_>>()
            })
            .0
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
        let hits = run(99).iter().filter(|&&b| b).count();
        assert!(hits > 10 && hits < 54, "p=0.5 over 64 gave {hits}");
    }

    #[test]
    fn outside_scope_cross_succeeds_and_counts_coverage() {
        reset_coverage();
        assert!(cross(FaultSite::VfsOp).is_ok());
        assert!(cross(FaultSite::VfsOp).is_ok());
        let cov = coverage();
        let vfs = cov
            .iter()
            .find(|(s, _)| *s == FaultSite::VfsOp)
            .unwrap()
            .1;
        assert_eq!(vfs.crossings, 2);
        assert_eq!(vfs.injections, 0);
    }

    #[test]
    fn coverage_accumulates_across_scopes() {
        reset_coverage();
        let plan = FaultPlan::passive().fail_at(FaultSite::FdAlloc, 0);
        let _ = with_plan(plan, || {
            let _ = cross(FaultSite::FdAlloc);
        });
        let _ = count_crossings(|| {
            let _ = cross(FaultSite::FdAlloc);
        });
        let fd = coverage()
            .into_iter()
            .find(|(s, _)| *s == FaultSite::FdAlloc)
            .unwrap()
            .1;
        assert_eq!(fd.crossings, 2);
        assert_eq!(fd.injections, 1);
    }

    #[test]
    fn observer_sees_every_crossing_with_injection_flag() {
        use std::cell::RefCell as StdRefCell;
        use std::rc::Rc;
        let seen: Rc<StdRefCell<Vec<(FaultSite, u64, bool)>>> = Rc::default();
        let sink = Rc::clone(&seen);
        let prev = set_observer(Some(Box::new(move |site, occ, count, injected| {
            assert_eq!(count, 1, "`cross` is a run of one");
            sink.borrow_mut().push((site, occ, injected));
        })));
        let plan = FaultPlan::passive().fail_at(FaultSite::FrameAlloc, 1);
        let _ = with_plan(plan, || {
            let _ = cross(FaultSite::FrameAlloc);
            let _ = cross(FaultSite::FrameAlloc);
            let _ = cross(FaultSite::PidAlloc);
        });
        set_observer(prev);
        assert_eq!(
            *seen.borrow(),
            vec![
                (FaultSite::FrameAlloc, 0, false),
                (FaultSite::FrameAlloc, 1, true),
                (FaultSite::PidAlloc, 0, false),
            ]
        );
    }

    #[test]
    fn observer_outside_scope_reports_cumulative_occurrence() {
        reset_coverage();
        use std::cell::Cell;
        use std::rc::Rc;
        let last: Rc<Cell<u64>> = Rc::default();
        let sink = Rc::clone(&last);
        let prev = set_observer(Some(Box::new(move |_, occ, _, _| sink.set(occ))));
        cross(FaultSite::VfsOp).unwrap();
        cross(FaultSite::VfsOp).unwrap();
        set_observer(prev);
        assert_eq!(last.get(), 1, "second cumulative crossing is occurrence 1");
    }

    #[test]
    fn cell_seeds_are_deterministic_and_decorrelated() {
        assert_eq!(derive_cell_seed(42, 3), derive_cell_seed(42, 3));
        let seeds: BTreeSet<u64> = (0..16).map(|c| derive_cell_seed(42, c)).collect();
        assert_eq!(seeds.len(), 16, "16 cells must get 16 distinct seeds");
        assert_ne!(derive_cell_seed(42, 0), derive_cell_seed(43, 0));
    }

    #[test]
    fn derived_cell_seeds_give_siblings_distinct_schedules() {
        let run = |plan: FaultPlan| {
            with_plan(plan, || {
                (0..64)
                    .map(|_| cross(FaultSite::FrameAlloc).is_err())
                    .collect::<Vec<_>>()
            })
            .0
        };
        assert_ne!(
            run(FaultPlan::random(derive_cell_seed(7, 0), 256)),
            run(FaultPlan::random(derive_cell_seed(7, 1), 256)),
            "sibling cells must not mirror each other's schedules"
        );
    }

    /// Crosses `FrameAlloc`, then `PtNodeAlloc` three times in one run,
    /// then `FrameAlloc` again.
    fn toy_op(_: &mut u64) -> Result<(), InjectedFault> {
        cross(FaultSite::FrameAlloc)?;
        cross_n(FaultSite::PtNodeAlloc, 3).map_err(|(_, fault)| fault)?;
        cross(FaultSite::FrameAlloc)
    }

    /// The `(site, occurrence)` of every point `only` makes a sweep of
    /// [`toy_op`] visit, counting run left out.
    fn toy_points(only: Option<FaultSite>) -> Vec<(FaultSite, u64)> {
        let mut visited = Vec::new();
        let counted = sweep(only, || 0, toy_op, |point| match point.fault {
            None => assert_eq!(point.result, Ok(())),
            Some(fault) => {
                assert_eq!(point.result, Err(InjectedFault { site: fault.site, occurrence: fault.occurrence }));
                assert_eq!(point.trace.crossings.last(), Some(&fault), "the op stops at its fault");
                visited.push((fault.site, fault.occurrence));
            }
        });
        assert_eq!(counted.len(), 5);
        visited
    }

    #[test]
    fn sweep_visits_every_crossing_in_order() {
        use FaultSite::{FrameAlloc, PtNodeAlloc};
        let every = [(FrameAlloc, 0), (PtNodeAlloc, 0), (PtNodeAlloc, 1), (PtNodeAlloc, 2), (FrameAlloc, 1)];
        assert_eq!(toy_points(None), every);
    }

    #[test]
    fn sweep_of_one_site_visits_only_its_crossings() {
        let site = FaultSite::PtNodeAlloc;
        assert_eq!(toy_points(Some(site)), [(site, 0), (site, 1), (site, 2)]);
    }

    #[test]
    fn every_sweep_point_gets_a_fresh_world() {
        let mut built = 0;
        let mut worlds = Vec::new();
        let fresh = || {
            built += 1;
            built
        };
        let op = |world: &mut u64| {
            *world *= 100;
            toy_op(world)
        };
        sweep(None, fresh, op, |point| worlds.push(point.world));
        assert_eq!(worlds, [100, 200, 300, 400, 500, 600], "counting run first, then one world a point");
    }

    #[test]
    #[should_panic(expected = "sweep point frame_alloc#1 (crossing 1) injected 0 faults on replay")]
    fn sweep_panics_naming_a_point_the_replay_never_reached() {
        // The counted world crosses twice, every later one once.
        let mut built = 0;
        let fresh = || {
            built += 1;
            built
        };
        let op = |world: &mut u64| {
            let crossings = if *world == 1 { 2 } else { 1 };
            (0..crossings).try_for_each(|_| cross(FaultSite::FrameAlloc))
        };
        sweep(None, fresh, op, drop);
    }

    #[test]
    fn scope_cleared_even_on_panic() {
        let caught = std::panic::catch_unwind(|| {
            let _ = with_plan(FaultPlan::passive(), || panic!("boom"));
        });
        assert!(caught.is_err());
        // A fresh scope must be installable afterwards.
        let ((), t) = with_plan(FaultPlan::passive(), || {
            cross(FaultSite::FrameAlloc).unwrap();
        });
        assert_eq!(t.len(), 1);
    }
}
