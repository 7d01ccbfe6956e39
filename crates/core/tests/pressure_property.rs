//! Seeded property test for the memory-pressure subsystem.
//!
//! Random interleavings of alloc / free / spawn / fork / reclaim must:
//!
//! 1. keep [`Kernel::check_invariants`] green after *every* step;
//! 2. leak nothing on failed steps — a failed operation leaves the
//!    kernel at its pre-op baseline, unless a reclaim pass ran inside
//!    it (reclaim legitimately frees cached state, so there the check
//!    weakens to "resource counts only went *down*");
//! 3. tear down to the post-boot baseline exactly (full-run leak check);
//! 4. with the fast path toggled off, replay byte-identically to a
//!    world that never had it (same results, same cycle totals).
//!
//! The workspace builds without proptest, so this is a hand-rolled
//! generator over `fpr_rng` with fixed seeds: failures reproduce.

use forkroad_core::kit::CreationPath;
use forkroad_core::os::{Os, OsConfig};
use fpr_kernel::{Errno, MachineConfig, Pid};
use fpr_mem::{ForkMode, OvercommitPolicy, Prot, Share};
use fpr_rng::Rng;
use fpr_trace::ProcessShape;

const STEPS: usize = 60;
/// What a sequence's fork op creates with.
const FORK: CreationPath = CreationPath::Fork(ForkMode::Cow);

/// The machine with nothing on it yet — not a `kit::world`: the tests
/// take their leak baseline here, before [`root`] goes on it.
fn boot(swap_slots: u64) -> Os {
    Os::boot(OsConfig {
        machine: MachineConfig {
            frames: 2048,
            swap_slots,
            overcommit: OvercommitPolicy::Always,
            ..MachineConfig::default()
        },
        ..Default::default()
    })
}

/// The root process every sequence runs under.
fn root(os: &mut Os) -> Pid {
    os.make_parent(ProcessShape::with_heap(16))
        .expect("root fits")
}

/// One process a sequence owns, with a record per region it mapped:
/// `(base, pages)` in [`drive`]; base, pages, how many of them were written
/// and the value written in [`drive_swap`].
struct Actor<R> {
    pid: Pid,
    regions: Vec<R>,
}

/// Creates a child of `root` via `path` and, if that worked, makes it an
/// actor.
fn create_actor<R>(
    os: &mut Os,
    root: Pid,
    path: CreationPath,
    actors: &mut Vec<Actor<R>>,
) -> String {
    match os.create(root, path) {
        Ok(pid) => {
            actors.push(Actor {
                pid,
                regions: vec![],
            });
            format!("{} ok ({} actors)", path.label(), actors.len())
        }
        Err(e) => format!("{} failed {e}", path.label()),
    }
}

/// Retires every actor (root last), so the caller can leak-check against
/// its post-boot baseline.
fn teardown(os: &mut Os, root: Pid, children: impl Iterator<Item = Pid>) {
    for child in children {
        os.reap(root, child).expect("exit and reap child");
    }
    let init = os.init;
    os.reap(init, root).expect("exit and reap root");
}

/// Drives one random sequence. `fastpath` gates the pool-prefill arm of
/// the reclaim op (the parity worlds have no fast path to prefill).
/// Returns a step-by-step trace of (what ran, what it returned, cycle
/// total afterwards) for byte-identity comparison.
fn drive(os: &mut Os, seed: u64, fastpath: bool, checked: bool) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let root = root(os);
    let mut actors = vec![Actor {
        pid: root,
        regions: vec![],
    }];
    let mut trace = Vec::with_capacity(STEPS);

    for step in 0..STEPS {
        let pre = os.kernel.baseline();
        let pre_passes = os.kernel.reclaim_stats().passes;
        let op = rng.gen_below(6);
        let desc: String = match op {
            // alloc: map a fresh region on a random actor and fault in
            // a prefix of it.
            0 => {
                let a = rng.gen_index(actors.len());
                let pages = 1 + rng.gen_below(16);
                match os.kernel.mmap_anon(actors[a].pid, pages, Prot::RW, Share::Private) {
                    Ok(base) => {
                        let touch = rng.gen_below(pages + 1).min(8);
                        let mut touched = 0;
                        for i in 0..touch {
                            match os.kernel.write_mem(actors[a].pid, base.add(i), step as u64) {
                                Ok(_) => touched += 1,
                                Err(Errno::Enomem) => break,
                                Err(e) => panic!("touch failed: {e}"),
                            }
                        }
                        actors[a].regions.push((base, pages));
                        format!("alloc[{a}] {pages}p touched {touched}")
                    }
                    Err(e) => format!("alloc[{a}] failed {e}"),
                }
            }
            // free: unmap a random previously mapped region.
            1 => {
                let candidates: Vec<usize> = (0..actors.len())
                    .filter(|&i| !actors[i].regions.is_empty())
                    .collect();
                if candidates.is_empty() {
                    "free: nothing mapped".into()
                } else {
                    let a = candidates[rng.gen_index(candidates.len())];
                    let r = rng.gen_index(actors[a].regions.len());
                    let (base, pages) = actors[a].regions.remove(r);
                    let freed = os
                        .kernel
                        .munmap(actors[a].pid, base, pages)
                        .expect("munmap of a live region");
                    format!("free[{a}] {pages}p -> {freed} frames")
                }
            }
            // spawn a fresh child of root.
            2 => create_actor(os, root, CreationPath::Spawn("/bin/tool"), &mut actors),
            // fork root (children of children would complicate reaping
            // without adding coverage: the clone path is the same).
            3 => create_actor(os, root, FORK, &mut actors),
            // reclaim: run a balance pass; with the fast path on, also
            // occasionally restock the pool so there is something to
            // reclaim next time.
            4 => {
                let freed = os.kernel.balance_pressure();
                if fastpath && rng.gen_bool(0.5) {
                    let r = os.pool_prefill("/bin/tool", 1);
                    format!("reclaim {freed} + prefill {r:?}")
                } else {
                    format!("reclaim {freed}")
                }
            }
            // exit: retire a random non-root actor.
            _ => {
                if actors.len() == 1 {
                    "exit: only root left".into()
                } else {
                    let a = 1 + rng.gen_index(actors.len() - 1);
                    let victim = actors.remove(a);
                    os.reap(root, victim.pid).expect("exit and reap");
                    format!("exit actor {}", victim.pid.0)
                }
            }
        };

        if checked {
            os.kernel
                .check_invariants()
                .unwrap_or_else(|v| panic!("step {step} ({desc}): invariants broken: {v:?}"));
            if desc.contains("failed") {
                if os.kernel.reclaim_stats().passes == pre_passes {
                    os.kernel.leak_check(&pre).unwrap_or_else(|v| {
                        panic!("step {step} ({desc}): failed op leaked: {v:?}")
                    });
                } else {
                    // A reclaim pass ran inside the failing op: cached
                    // state was legitimately torn down, so counts may
                    // shrink — but never grow.
                    let now = os.kernel.baseline();
                    assert!(
                        now.used_frames <= pre.used_frames
                            && now.committed <= pre.committed,
                        "step {step} ({desc}): failed op grew resources"
                    );
                }
            }
        }
        trace.push(format!("{step}:{desc}@{}", os.kernel.cycles.total()));
    }

    teardown(os, root, actors.iter().skip(1).map(|a| a.pid));
    trace
}

const SWAP_STEPS: usize = 80;

/// Like [`drive`], with the swap tier in the mix: direct swap-out
/// passes, re-reads of previously written pages (swap-ins when the page
/// was evicted), forks that copy swap entries, and unmaps/exits that
/// must release slots. `call_swap` false skips the `swap_out_pass` call
/// itself while drawing the same random numbers — the byte-identity
/// test uses it to prove the call is observably absent on a swapless
/// machine.
fn drive_swap(os: &mut Os, seed: u64, call_swap: bool, checked: bool) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let root = root(os);
    let mut actors = vec![Actor {
        pid: root,
        regions: vec![],
    }];
    let mut trace = Vec::with_capacity(SWAP_STEPS);

    for step in 0..SWAP_STEPS {
        let pre = os.kernel.baseline();
        let op = rng.gen_below(6);
        let desc: String = match op {
            // alloc: map a fresh region on a random actor and write a
            // prefix of it (dirty private pages are eviction candidates).
            0 => {
                let a = rng.gen_index(actors.len());
                let pages = 1 + rng.gen_below(16);
                let val = 0x5A00 + step as u64;
                match os
                    .kernel
                    .mmap_anon(actors[a].pid, pages, Prot::RW, Share::Private)
                {
                    Ok(base) => {
                        let touch = rng.gen_below(pages + 1).min(8);
                        let mut touched = 0;
                        for i in 0..touch {
                            match os.kernel.write_mem(actors[a].pid, base.add(i), val) {
                                Ok(_) => touched += 1,
                                Err(Errno::Enomem) => break,
                                Err(e) => panic!("touch failed: {e}"),
                            }
                        }
                        actors[a].regions.push((base, pages, touched, val));
                        format!("alloc[{a}] {pages}p touched {touched}")
                    }
                    Err(e) => format!("alloc[{a}] failed {e}"),
                }
            }
            // free: unmap a random region — swapped pages in it must
            // release their slots.
            1 => {
                let candidates: Vec<usize> = (0..actors.len())
                    .filter(|&i| !actors[i].regions.is_empty())
                    .collect();
                if candidates.is_empty() {
                    "free: nothing mapped".into()
                } else {
                    let a = candidates[rng.gen_index(candidates.len())];
                    let r = rng.gen_index(actors[a].regions.len());
                    let (base, pages, _, _) = actors[a].regions.remove(r);
                    let freed = os
                        .kernel
                        .munmap(actors[a].pid, base, pages)
                        .expect("munmap of a live region");
                    format!("free[{a}] {pages}p -> {freed} frames")
                }
            }
            // read-back: fault a random page of a random region — a
            // swap-in when the pass evicted it, and the value written
            // before eviction must come back exactly.
            2 => {
                let candidates: Vec<usize> = (0..actors.len())
                    .filter(|&i| !actors[i].regions.is_empty())
                    .collect();
                if candidates.is_empty() {
                    "read: nothing mapped".into()
                } else {
                    let a = candidates[rng.gen_index(candidates.len())];
                    let r = rng.gen_index(actors[a].regions.len());
                    let (base, pages, touched, val) = actors[a].regions[r];
                    let i = rng.gen_below(pages);
                    let expect = if i < touched { val } else { 0 };
                    let got = os
                        .kernel
                        .read_mem(actors[a].pid, base.add(i))
                        .expect("read of a live page");
                    assert_eq!(got, expect, "step {step}: page content changed");
                    format!("read[{a}] page {i} -> {got:#x}")
                }
            }
            // fork root: swap entries are copied by reference count.
            3 => create_actor(os, root, FORK, &mut actors),
            // swap-out: evict up to a small random target.
            4 => {
                let t = 1 + rng.gen_below(8);
                let n = if call_swap {
                    os.kernel.swap_out_pass(t).expect("uninjected pass")
                } else {
                    0
                };
                format!("swapout target {t} -> {n}")
            }
            // exit: retire a random non-root actor (its swap slots and
            // frames must all come back).
            _ => {
                if actors.len() == 1 {
                    "exit: only root left".into()
                } else {
                    let a = 1 + rng.gen_index(actors.len() - 1);
                    let victim = actors.remove(a);
                    os.reap(root, victim.pid).expect("exit and reap");
                    format!("exit actor {}", victim.pid.0)
                }
            }
        };

        if checked {
            os.kernel
                .check_invariants()
                .unwrap_or_else(|v| panic!("step {step} ({desc}): invariants broken: {v:?}"));
            if desc.contains("failed") {
                os.kernel
                    .leak_check(&pre)
                    .unwrap_or_else(|v| panic!("step {step} ({desc}): failed op leaked: {v:?}"));
            }
        }
        trace.push(format!("{step}:{desc}@{}", os.kernel.cycles.total()));
    }

    teardown(os, root, actors.iter().skip(1).map(|a| a.pid));
    trace
}

#[test]
fn random_swap_sequences_hold_invariants_and_leak_nothing() {
    let mut total_out = 0;
    let mut total_in = 0;
    for case in 0..10u64 {
        let mut os = boot(512);
        let boot_base = os.kernel.baseline();
        drive_swap(&mut os, 0xE13_000 + case, true, true);
        os.kernel
            .check_invariants()
            .unwrap_or_else(|v| panic!("case {case}: final invariants: {v:?}"));
        os.kernel
            .leak_check(&boot_base)
            .unwrap_or_else(|v| panic!("case {case}: full-run leak: {v:?}"));
        let stats = os.kernel.phys.swap().stats();
        total_out += stats.swap_outs;
        total_in += stats.swap_ins;
    }
    // The sequences genuinely exercised the tier in both directions.
    assert!(total_out > 0, "no sequence ever swapped out");
    assert!(total_in > 0, "no sequence ever swapped back in");
}

#[test]
fn disabled_swap_replays_byte_identical_to_a_swapless_world() {
    // With no slots configured, every swap entry point must be
    // observably absent: same step results, same cycle totals as a run
    // that never calls into the tier at all.
    for case in 0..6u64 {
        let seed = 0xE13_100 + case;
        let mut called = boot(0);
        let called_trace = drive_swap(&mut called, seed, true, true);
        let mut skipped = boot(0);
        let skipped_trace = drive_swap(&mut skipped, seed, false, true);
        assert_eq!(
            called_trace, skipped_trace,
            "case {case}: disabled swap tier was observable"
        );
        assert_eq!(
            called.kernel.cycles.total(),
            skipped.kernel.cycles.total(),
            "case {case}: cycle totals diverged"
        );
        assert_eq!(
            called.kernel.baseline(),
            skipped.kernel.baseline(),
            "case {case}: resource counts diverged"
        );
    }
}

#[test]
fn random_sequences_hold_invariants_and_leak_nothing() {
    for case in 0..10u64 {
        let mut os = boot(0);
        // Baseline after enable: binding binaries to VFS backing files
        // creates inodes that persist by design (they back the images).
        os.enable_spawn_fastpath().expect("enable");
        let boot_base = os.kernel.baseline();
        os.pool_prefill("/bin/tool", 4).expect("prefill");
        drive(&mut os, 0xE12_000 + case, true, true);
        os.disable_spawn_fastpath().expect("disable");
        os.kernel
            .check_invariants()
            .unwrap_or_else(|v| panic!("case {case}: final invariants: {v:?}"));
        os.kernel
            .leak_check(&boot_base)
            .unwrap_or_else(|v| panic!("case {case}: full-run leak: {v:?}"));
    }
}

#[test]
fn toggled_off_fastpath_replays_byte_identical_to_classic() {
    for case in 0..6u64 {
        let seed = 0xE12_100 + case;
        let mut classic = boot(0);
        let classic_trace = drive(&mut classic, seed, false, true);

        let mut toggled = boot(0);
        toggled.enable_spawn_fastpath().expect("enable");
        toggled.disable_spawn_fastpath().expect("disable");
        assert!(!toggled.fastpath_enabled());
        let toggled_trace = drive(&mut toggled, seed, false, true);

        assert_eq!(
            classic_trace, toggled_trace,
            "case {case}: toggled world diverged from classic"
        );
        assert_eq!(
            classic.kernel.cycles.total(),
            toggled.kernel.cycles.total(),
            "case {case}: cycle totals diverged"
        );
        // Baselines match except inodes: the toggled world keeps the VFS
        // backing files the enable created (they back the binaries).
        let (mut c, mut t) = (classic.kernel.baseline(), toggled.kernel.baseline());
        c.inodes = 0;
        t.inodes = 0;
        assert_eq!(c, t, "case {case}: resource counts diverged");
    }
}
