//! Exhaustive fail-point sweep over the five creation APIs.
//!
//! For each API, `fpr_faults::sweep` runs the operation once under a
//! passive plan to learn the K instrumented crossings it makes, then
//! replays it K times from a fresh world, failing at crossing 0, 1, …,
//! K-1. Every injected failure must surface as a clean `Err`, leave the
//! kernel byte-identical to the pre-call baseline (`leak_check`) and
//! structurally sound (`check_invariants`), and the same operation must
//! succeed once the fault clears ([`judge`]).
//!
//! This is the transactional guarantee the paper says fork-based systems
//! never test: the un-duplicate paths, all of them, executed on demand.

use fpr_api::{clone, fork, posix_spawn, vfork, CloneFlags, ProcessBuilder};
use fpr_api::{FdSource, FileAction, MemOp, SpawnAttrs, WarmPool};
use fpr_exec::{Image, ImageCache, ImageRegistry};
use fpr_faults::{sweep, FaultSite, FaultTrace, Point};
use fpr_kernel::{Errno, Kernel, KernelBaseline, OpenFlags, Pid, STDOUT};
use fpr_mem::{Prot, Share, Vpn};

/// What a sweep runs on: a kernel, its baseline as the world was built,
/// and whatever else the operation needs.
struct World<T> {
    k: Kernel,
    base: KernelBaseline,
    at: T,
}

impl<T> World<T> {
    fn new(k: Kernel, at: T) -> World<T> {
        World { base: k.baseline(), k, at }
    }
}

/// A parent rich enough to make every API cross several sites: private
/// populated memory, a second VMA, an open file, and a pipe.
fn world() -> World<(Pid, ImageRegistry)> {
    let mut k = Kernel::boot();
    let init = k.create_init("init").unwrap();
    let a = k.mmap_anon(init, 6, Prot::RW, Share::Private).unwrap();
    k.populate(init, a, 6).unwrap();
    let b = k.mmap_anon(init, 3, Prot::RW, Share::Shared).unwrap();
    k.populate(init, b, 3).unwrap();
    let f = k.open(init, "/data", OpenFlags::RDWR, true).unwrap();
    k.write_fd(init, f, b"seed").unwrap();
    k.pipe(init).unwrap();
    let mut reg = ImageRegistry::new();
    reg.register("/bin/tool", Image::small("tool"));
    World::new(k, (init, reg))
}

/// Errors a rolled-back creation is allowed to report.
fn clean_creation_error(e: Errno) -> bool {
    matches!(e, Errno::Enomem | Errno::Eagain | Errno::Emfile)
}

/// Judges one run of a sweep of `op`: the counting run must succeed; a
/// replay must fail with a clean error, leave the kernel at its baseline
/// and structurally sound, pass `extra`, and succeed on retry.
fn judge<T>(
    label: &str,
    mut point: Point<World<T>, Result<(), Errno>>,
    op: &impl Fn(&mut World<T>) -> Result<(), Errno>,
    extra: &impl Fn(&mut World<T>, &str),
) {
    let Some(fault) = point.fault else {
        return point.result.unwrap_or_else(|e| panic!("{label}: fault-free run failed: {e:?}"));
    };
    let at = format!("{label}: fault at {fault}");
    let err = point.result.expect_err(&format!("{at} was swallowed"));
    assert!(clean_creation_error(err), "{at} surfaced as {err:?}");
    let w = &mut point.world;
    if let Err(v) = w.k.leak_check(&w.base) {
        panic!("{at} leaked:\n  {}", v.join("\n  "));
    }
    if let Err(v) = w.k.check_invariants() {
        panic!("{at} broke invariants:\n  {}", v.join("\n  "));
    }
    extra(w, &at);
    // The fault was transient; with it cleared the same call succeeds.
    op(w).unwrap_or_else(|e| panic!("{at}: retry failed: {e:?}"));
    w.k.check_invariants()
        .unwrap_or_else(|v| panic!("{at}: retry broke invariants: {v:?}"));
}

/// Sweeps `op` over the crossings of `only` (every site if `None`) on
/// worlds `fresh` builds, judging each run by [`judge`]; returns the
/// counting run's trace.
fn sweep_clean<T>(
    label: &str,
    only: Option<FaultSite>,
    fresh: impl FnMut() -> World<T>,
    op: impl Fn(&mut World<T>) -> Result<(), Errno>,
    extra: impl Fn(&mut World<T>, &str),
) -> FaultTrace {
    sweep(only, fresh, &op, |point| judge(label, point, &op, &extra))
}

/// Sweeps one creation on [`world`]'s parent.
fn sweep_creation(label: &str, op: impl Fn(&mut Kernel, Pid, &ImageRegistry) -> Result<(), Errno>) {
    let op = |w: &mut World<(Pid, ImageRegistry)>| op(&mut w.k, w.at.0, &w.at.1);
    let trace = sweep_clean(label, None, world, op, |_, _| {});
    assert!(!trace.is_empty(), "{label}: operation crossed no instrumented site");
}

/// Asserts a counting run crossed every one of `sites`.
fn assert_crossed(label: &str, trace: &FaultTrace, sites: &[FaultSite]) {
    for site in sites {
        assert!(trace.sites().contains(site), "{label}: never crossed {site}");
    }
}

#[test]
fn fork_survives_every_fail_point() {
    sweep_creation("fork", |k, p, _| fork(k, p).map(|_| ()));
}

#[test]
fn on_demand_fork_survives_every_fail_point() {
    sweep_creation("fork(on_demand)", |k, p, _| {
        fpr_api::fork_on_demand(k, p).map(|_| ())
    });
}

/// A world mid-storm: an on-demand fork already succeeded, so the child
/// shares leaf page-table subtrees with the parent — half populated,
/// half still demand-zero. Every post-fork operation that touches a
/// shared subtree (write, mprotect, munmap) crosses the `pt_unshare`
/// site and must be as transactional as creation itself.
fn storm_world() -> World<(Pid, Vpn, Vpn)> {
    let mut k = Kernel::boot();
    let init = k.create_init("init").unwrap();
    let a = k.mmap_anon(init, 600, Prot::RW, Share::Private).unwrap();
    k.populate(init, a, 300).unwrap();
    // A shared mapping keeps *writable* PTEs inside the shared subtree
    // (no COW downgrade at fork), so mprotect has real PTE bits to flip.
    let b = k.mmap_anon(init, 64, Prot::RW, Share::Shared).unwrap();
    k.populate(init, b, 64).unwrap();
    let child = fpr_api::fork_on_demand(&mut k, init).unwrap();
    World::new(k, (child, a, b))
}

/// Sweeps one post-fork storm operation the way creation is swept.
fn sweep_storm(label: &str, op: impl Fn(&mut Kernel, Pid, Vpn, Vpn) -> Result<(), Errno>) {
    let op = |w: &mut World<(Pid, Vpn, Vpn)>| op(&mut w.k, w.at.0, w.at.1, w.at.2);
    let trace = sweep_clean(label, None, storm_world, op, |_, _| {});
    assert_crossed(label, &trace, &[FaultSite::PtUnshare]);
}

#[test]
fn storm_write_to_populated_shared_page_survives_every_fail_point() {
    // Page 0 was populated pre-fork: the write takes a structure fault
    // (unshare) and then a COW break.
    sweep_storm("storm(write populated)", |k, child, a, _| {
        k.write_mem(child, a, 0xD1).map(|_| ())
    });
}

#[test]
fn storm_write_to_unpopulated_shared_page_survives_every_fail_point() {
    // Page 400 is inside the shared span but was never populated: the
    // demand fill itself must unshare before it can map the new frame.
    sweep_storm("storm(write unpopulated)", |k, child, a, _| {
        k.write_mem(child, a.add(400), 0xD2).map(|_| ())
    });
}

#[test]
fn storm_mprotect_survives_every_fail_point() {
    sweep_storm("storm(mprotect)", |k, child, _, b| {
        k.mprotect(child, b.add(8), 16, Prot::R)
    });
}

#[test]
fn storm_partial_munmap_survives_every_fail_point() {
    // An unmap that straddles into a shared subtree without covering it
    // must unshare first (the other space keeps the full node).
    sweep_storm("storm(partial munmap)", |k, child, a, _| {
        k.munmap(child, a.add(4), 8).map(|_| ())
    });
}

#[test]
fn eager_fork_survives_every_fail_point() {
    sweep_creation("fork(eager)", |k, p, _| {
        let tid = k.process(p)?.main_tid();
        fpr_api::fork_from_thread(k, p, tid, fpr_mem::ForkMode::Eager).map(|_| ())
    });
}

#[test]
fn vfork_survives_every_fail_point() {
    // vfork parks the parent on success; each iteration uses a fresh
    // world, and the retry's success is the last thing checked.
    sweep_creation("vfork", |k, p, _| {
        vfork(k, p).map(|c| {
            // Unpark for the next call in this iteration.
            k.exit(c, 0).unwrap();
            let _ = k.waitpid(p, Some(c));
        })
    });
}

#[test]
fn clone_survives_every_fail_point() {
    sweep_creation("clone(files)", |k, p, _| {
        clone(
            k,
            p,
            CloneFlags {
                files: true,
                ..CloneFlags::default()
            },
        )
        .map(|_| ())
    });
}

#[test]
fn posix_spawn_survives_every_fail_point() {
    let actions = vec![
        FileAction::Open {
            fd: STDOUT,
            path: "/out.txt".into(),
            flags: OpenFlags::WRONLY,
            create: true,
        },
        FileAction::Close { fd: fpr_kernel::STDIN },
    ];
    sweep_creation("posix_spawn", move |k, p, reg| {
        posix_spawn(
            k,
            p,
            reg,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            7,
            None,
        )
        .map(|_| ())
    });
}

#[test]
fn cached_spawn_survives_every_fail_point() {
    // The donor spawn: a cold cache makes every run a miss, so each call
    // crosses `image_cache_insert` on top of the classic spawn sites. The
    // cache is op-local and cleared before returning, so the pins it
    // takes on success never skew the next iteration's leak baseline.
    let actions = vec![FileAction::Open {
        fd: STDOUT,
        path: "/out.txt".into(),
        flags: OpenFlags::WRONLY,
        create: true,
    }];
    sweep_creation("posix_spawn(image cache)", move |k, p, reg| {
        let mut cache = ImageCache::new();
        let r = posix_spawn(
            k,
            p,
            reg,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            7,
            Some(&mut cache),
        )
        .map(|_| ());
        cache.clear(k);
        r
    });
}

/// Sweeps a warm-pool checkout the way creation is swept. The world
/// includes a prefilled pool (and the image cache the prefill warmed),
/// and the baseline is taken *after* the prefill: an injected failure
/// anywhere in the checkout — including at the `pool_checkout` site
/// itself and in every file action applied to the parked child — must
/// re-park the child and leave the kernel byte-identical to that
/// post-prefill baseline.
#[test]
fn pool_checkout_survives_every_fail_point() {
    let label = "warm-pool checkout";
    let pool_world = || {
        let World { mut k, at: (init, reg), .. } = world();
        let mut cache = ImageCache::new();
        let mut pool = WarmPool::new(init);
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 1)
            .unwrap();
        World::new(k, (init, reg, cache, pool))
    };
    let actions = vec![
        FileAction::Open {
            fd: STDOUT,
            path: "/pool-out.txt".into(),
            flags: OpenFlags::WRONLY,
            create: true,
        },
        FileAction::Close { fd: fpr_kernel::STDIN },
    ];
    let op = |w: &mut World<(Pid, ImageRegistry, ImageCache, WarmPool)>| {
        let (p, reg, _, pool) = &mut w.at;
        pool.checkout(
            &mut w.k,
            reg,
            *p,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            7,
        )
        .map(|c| assert!(c.is_some(), "{label}: parked child available, must hit"))
    };
    // The re-parked child serves the retry once the fault clears.
    let parked = |w: &mut World<(Pid, ImageRegistry, ImageCache, WarmPool)>, at: &str| {
        assert_eq!(w.at.3.available("/bin/tool"), 1, "{at} lost the parked child");
    };
    let trace = sweep_clean(label, None, pool_world, op, parked);
    assert_crossed(label, &trace, &[FaultSite::PoolCheckout]);
}

/// Sweeps a kernel reclaim pass over both fast-path shrinkers. The pass
/// is two-phase: it crosses `pool_drain` (for the warm pool) and
/// `reclaim_shrink` (for the image cache) *before* either shrinker
/// mutates, so an injected failure at either site must leave the kernel
/// byte-identical to the post-prefill baseline — parked children intact,
/// cache still pinned — and the retried pass must free real frames.
#[test]
fn reclaim_pass_survives_every_fail_point() {
    use fpr_kernel::ShrinkerHandle;
    use std::sync::{Arc, Mutex};
    type Shrinkers = (Arc<Mutex<ImageCache>>, Arc<Mutex<WarmPool>>);
    let label = "reclaim pass";
    let reclaim_world = || {
        let World { mut k, at: (init, reg), .. } = world();
        let cache = Arc::new(Mutex::new(ImageCache::new()));
        let pool = Arc::new(Mutex::new(WarmPool::new(init)));
        pool.lock().unwrap()
            .prefill(&mut k, &reg, &mut cache.lock().unwrap(), "/bin/tool", 2)
            .unwrap();
        k.register_shrinker(&(pool.clone() as ShrinkerHandle));
        k.register_shrinker(&(cache.clone() as ShrinkerHandle));
        World::new(k, (cache, pool))
    };
    // A pass that goes through drains everything.
    let op = |w: &mut World<Shrinkers>| {
        w.k.reclaim(u64::MAX).map(|freed| {
            assert!(freed > 0, "{label}: nothing reclaimed from a warm world");
            assert_eq!(w.at.1.lock().unwrap().available("/bin/tool"), 0);
            assert_eq!(w.at.0.lock().unwrap().cached_frames(), 0);
        })
    };
    let untouched = |w: &mut World<Shrinkers>, at: &str| {
        assert_eq!(w.at.1.lock().unwrap().available("/bin/tool"), 2, "{at} lost parked children");
        assert!(w.at.0.lock().unwrap().cached_frames() > 0, "{at} dropped the cache early");
        assert_eq!(w.k.reclaim_stats().aborted_passes, 1, "{at}: abort not accounted");
    };
    let trace = sweep_clean(label, None, reclaim_world, op, untouched);
    assert_crossed(label, &trace, &[FaultSite::PoolDrain, FaultSite::ReclaimShrink]);
}

/// A machine with a swap device and sixteen dirty private pages to
/// evict: the swap sweeps' common fixture.
fn swap_world() -> World<(Pid, Vpn)> {
    let mut k = Kernel::new(fpr_kernel::MachineConfig {
        frames: 256,
        swap_slots: 64,
        ..fpr_kernel::MachineConfig::default()
    });
    let init = k.create_init("init").unwrap();
    let base = k.mmap_anon(init, 16, Prot::RW, Share::Private).unwrap();
    for i in 0..16 {
        k.write_mem(init, base.add(i), 0xAB00 + i).unwrap();
    }
    World::new(k, (init, base))
}

/// Sweeps the swap-out pass: it crosses `swap_out` once and
/// `swap_slot_alloc` once per page *before* any PTE is rewritten, so an
/// injected failure at any crossing must leave the kernel byte-identical
/// — every page still resident, every reserved slot returned — and the
/// identical pass must succeed on retry.
#[test]
fn swap_out_pass_survives_every_fail_point() {
    let label = "swap-out pass";
    let op = |w: &mut World<(Pid, Vpn)>| w.k.swap_out_pass(8).map(|n| assert_eq!(n, 8, "{label}"));
    let resident = |w: &mut World<(Pid, Vpn)>, at: &str| {
        let (init, vbase) = w.at;
        assert_eq!(w.k.process(init).unwrap().aspace.swapped_pages(), 0, "{at} left pages evicted");
        assert_eq!(w.k.phys.swap().used_slots(), 0, "{at} leaked reserved slots");
        // Byte-identical includes the bytes: every page still reads back.
        for i in 0..16 {
            assert_eq!(w.k.read_mem(init, vbase.add(i)), Ok(0xAB00 + i));
        }
    };
    let trace = sweep_clean(label, None, swap_world, op, resident);
    assert_crossed(label, &trace, &[FaultSite::SwapOut, FaultSite::SwapSlotAlloc]);
}

/// Sweeps a fault-in of a swapped page. Two regimes: an injected
/// `swap_in` I/O error is *not* transparent — the backing store lost the
/// page, so the faulting process (and only it) dies SIGBUS-style, with
/// every frame and slot it held released. Every other injected failure
/// (the replacement frame allocation) rolls back byte-identically and
/// the retry succeeds.
#[test]
fn swap_in_sweep_contains_io_failure_to_the_faulting_process() {
    let label = "swap-in";
    let victim_world = || {
        let mut k = Kernel::new(fpr_kernel::MachineConfig {
            frames: 256,
            swap_slots: 64,
            ..fpr_kernel::MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        let victim = k.allocate_process(init, "victim").unwrap();
        let base = k.mmap_anon(victim, 4, Prot::RW, Share::Private).unwrap();
        for i in 0..4 {
            k.write_mem(victim, base.add(i), 0xAB00 + i).unwrap();
        }
        assert_eq!(k.swap_out_pass(4), Ok(4));
        World::new(k, (init, victim, base))
    };
    let op = |w: &mut World<(Pid, Pid, Vpn)>| {
        let (_, victim, vbase) = w.at;
        w.k.read_mem(victim, vbase).map(|v| assert_eq!(v, 0xAB00, "{label}"))
    };
    let trace = sweep(None, victim_world, op, |mut point| {
        if point.fault.is_none_or(|f| f.site != FaultSite::SwapIn) {
            return judge(label, point, &op, &|_, _| {});
        }
        // The device lost the page: SIGBUS containment, not rollback.
        let (init, victim, _) = point.world.at;
        let k = &mut point.world.k;
        assert_eq!(point.result, Err(Errno::Efault), "{label}: EIO surfaced wrong");
        assert!(k.process(victim).unwrap().is_zombie(), "{label}: faulting process survived a lost page");
        assert!(
            !k.process(init).unwrap().is_zombie(),
            "{label}: I/O error must not spread beyond the faulter"
        );
        let (pid, status) = k.waitpid(init, Some(victim)).unwrap().unwrap();
        assert_eq!((pid, status), (victim, fpr_kernel::SIGBUS_EXIT_STATUS));
        assert_eq!(k.phys.swap().used_slots(), 0, "{label}: dead process leaked swap slots");
        k.check_invariants()
            .unwrap_or_else(|v| panic!("{label}: SIGBUS broke invariants: {v:?}"));
    });
    assert_crossed(label, &trace, &[FaultSite::SwapIn]);
}

/// A THP machine with a huge-aligned private anonymous span big enough
/// for two 2 MiB blocks.
fn thp_world() -> World<(Pid, Vpn)> {
    let mut k = Kernel::new(fpr_kernel::MachineConfig {
        thp: true,
        ..fpr_kernel::MachineConfig::default()
    });
    let init = k.create_init("init").unwrap();
    let base = k.mmap_anon(init, 1024, Prot::RW, Share::Private).unwrap();
    World::new(k, (init, base))
}

/// Sweeps the promotion site. Promotion is an *optimisation*: an
/// injected `pt_promote` failure must be absorbed — the enclosing
/// operation still succeeds and the user-visible world is identical to
/// one where the block simply never promoted. Teardown then proves
/// nothing leaked.
#[test]
fn thp_promotion_failure_is_absorbed() {
    let label = "thp promote";
    // Baseline from a world identical up to (but excluding) the mmap:
    // populate + munmap below must return to it exactly.
    let pre_mmap = {
        let mut k = Kernel::new(fpr_kernel::MachineConfig {
            thp: true,
            ..fpr_kernel::MachineConfig::default()
        });
        k.create_init("init").unwrap();
        k.baseline()
    };
    let populate = |w: &mut World<(Pid, Vpn)>| w.k.populate(w.at.0, w.at.1, 1024);
    let trace = sweep(Some(FaultSite::PtPromote), thp_world, populate, |mut point| {
        let Some(fault) = point.fault else {
            return point.result.unwrap_or_else(|e| panic!("{label}: fault-free run failed: {e:?}"));
        };
        let at = format!("{label}: fault at {fault}");
        point.result.unwrap_or_else(|e| panic!("{at} must be absorbed, got {e:?}"));
        let (p, base) = point.world.at;
        let k = &mut point.world.k;
        assert!(k.phys.thp_stats().failed >= 1, "{at}: absorbed failure not accounted");
        if let Err(v) = k.check_invariants() {
            panic!("{at} broke invariants:\n  {}", v.join("\n  "));
        }
        // The block that stayed small behaves byte-identically.
        for i in [0u64, 511, 512, 1023] {
            k.write_mem(p, base.add(i), 0xC0DE + i).unwrap();
            assert_eq!(k.read_mem(p, base.add(i)), Ok(0xC0DE + i));
        }
        k.munmap(p, base, 1024).unwrap();
        if let Err(v) = k.leak_check(&pre_mmap) {
            panic!("{at} leaked:\n  {}", v.join("\n  "));
        }
    });
    let promotes = trace.crossings.iter().filter(|c| c.site == FaultSite::PtPromote).count();
    assert_eq!(promotes, 2, "{label}: one promotion attempt per block");
}

/// Sweeps the demotion site through the operations that must split a
/// huge block: a partial mprotect, a partial munmap, and a post-fork COW
/// write to a shared block. Demotion failure is *not* absorbable — the
/// enclosing operation needs the split — so each op must fail cleanly,
/// leave the kernel byte-identical, and succeed on retry.
#[test]
fn thp_demotion_failure_rolls_back_cleanly() {
    type DemoteWorld = fn() -> World<(Pid, Vpn)>;
    type DemoteOp = Box<dyn Fn(&mut Kernel, Pid, Vpn) -> Result<(), Errno>>;
    /// A promoted 2 MiB block owned by init.
    fn promoted_world() -> World<(Pid, Vpn)> {
        let World { mut k, at: (p, base), .. } = thp_world();
        k.populate(p, base, 512).unwrap();
        assert_eq!(
            k.process(p).unwrap().aspace.huge_pages(),
            1,
            "fixture block promoted"
        );
        World::new(k, (p, base))
    }
    /// The same block after a fork: huge in both spaces, COW-shared, so
    /// the first write must demote before it can break a single page.
    fn forked_world() -> World<(Pid, Vpn)> {
        let World { mut k, at: (p, base), .. } = promoted_world();
        let child = fork(&mut k, p).unwrap();
        World::new(k, (child, base))
    }
    let ops: Vec<(&str, DemoteWorld, DemoteOp)> = vec![
        (
            "thp demote(mprotect)",
            promoted_world,
            Box::new(|k, p, base| k.mprotect(p, base.add(8), 16, Prot::R)),
        ),
        (
            "thp demote(partial munmap)",
            promoted_world,
            Box::new(|k, p, base| k.munmap(p, base.add(4), 8).map(|_| ())),
        ),
        (
            "thp demote(cow write)",
            forked_world,
            Box::new(|k, p, base| k.write_mem(p, base.add(3), 0xBAD).map(|_| ())),
        ),
    ];

    for (label, world, op) in ops {
        let op = |w: &mut World<(Pid, Vpn)>| op(&mut w.k, w.at.0, w.at.1);
        let trace = sweep_clean(label, Some(FaultSite::PtDemote), world, op, |_, _| {});
        assert_crossed(label, &trace, &[FaultSite::PtDemote]);
    }
}

#[test]
fn xproc_builder_survives_every_fail_point() {
    sweep_creation("xproc", |k, p, reg| {
        ProcessBuilder::new("/bin/tool")
            .fd(STDOUT, FdSource::Inherit(STDOUT))
            .fd(
                fpr_kernel::Fd(5),
                FdSource::Open {
                    path: "/scratch".into(),
                    flags: OpenFlags::RDWR,
                    create: true,
                },
            )
            .mem(MemOp::MapAnon {
                tag: 1,
                pages: 4,
                prot: Prot::RW,
            })
            .mem(MemOp::Write {
                tag: 1,
                offset: 0,
                value: 9,
            })
            .spawn(k, p, reg)
            .map(|_| ())
    });
}
