//! The always-on counters that duplicate a field, held to that field.
//!
//! Seven of the `fpr_trace::metrics` counters `fpr-mem` bumps count what a
//! field of the crate counts too:
//!
//! | counter | field |
//! |---|---|
//! | `mem.page_copy` | `PhysMemory::pages_copied_total` |
//! | `mem.frame_alloc` | `PhysMemory::frames_allocated_total` |
//! | `mem.tlb.shootdown` | `TlbModel::shootdowns` |
//! | `mem.tlb.entries_flushed` | `TlbModel::entries_flushed` |
//! | `mem.fault.cow_copy` | `AsStats::cow_copies` |
//! | `mem.fault.demand_fill` | `AsStats::demand_faults` |
//! | `mem.fork.pte_copy` | `AsStats::ptes_copied` |
//!
//! The field is bumped beside the state it describes, the counter through
//! the metrics registry, so a counter that lands on the wrong name, is
//! bumped twice or not at all, or is lost by the registry shows here as a
//! counter and its field moving apart. Seeded scripts of `mmap` +
//! `populate`, reads, writes (demand fills, COW breaks that copy and that
//! reuse, the unshare of a node an on-demand fork shares), `fork` in each
//! mode — one in four under `FaultPlan::fail_nth_crossing(n)`, so that
//! some are refused partway — `munmap` and teardown run through
//! `AddressSpace`, `PhysMemory` and `TlbModel`, THP off and on; after
//! every step each counter must have moved by exactly its field's delta,
//! the `AsStats` fields summed over every space, the torn-down ones
//! included. Over the runs each pair must move at least once, and some
//! fork must be refused, or the test fails as vacuous.

use fpr_mem::address_space::heap_vma;
use fpr_faults::{with_plan, FaultPlan};
use fpr_mem::{AddressSpace, CostModel, Cycles, ForkMode, PhysMemory, TlbModel, Vpn};
use fpr_rng::Rng;
use fpr_trace::metrics;

/// Each counter with its field, in the order [`World::fields`] reads them.
const PAIRS: [&str; 7] = [
    "mem.page_copy",
    "mem.frame_alloc",
    "mem.tlb.shootdown",
    "mem.tlb.entries_flushed",
    "mem.fault.cow_copy",
    "mem.fault.demand_fill",
    "mem.fork.pte_copy",
];

/// Pages a window spans: two 2 MiB blocks.
const SPAN: u64 = 1024;
/// First page of each window: block-aligned; the second lies across a
/// 1 GiB boundary.
const WINDOWS: [u64; 3] = [1 << 18, (2 << 18) - 512, 5 << 18];
const MAX_PROCS: usize = 6;
const STEPS: usize = 200;
const SEEDS: u64 = 16;

struct World {
    phys: PhysMemory,
    cycles: Cycles,
    tlb: TlbModel,
    procs: Vec<AddressSpace>,
    /// `cow_copies`, `demand_faults` and `ptes_copied` of the spaces torn
    /// down, summed.
    gone: [u64; 3],
    /// Forks an injected fault refused.
    refused: u64,
}

impl World {
    fn new(thp: bool) -> World {
        let frames = 2 * (MAX_PROCS * WINDOWS.len()) as u64 * SPAN;
        let mut first = AddressSpace::new();
        first.set_thp(thp);
        World {
            phys: PhysMemory::new(frames, CostModel::default()),
            cycles: Cycles::new(),
            tlb: TlbModel::new(),
            procs: vec![first],
            gone: [0; 3],
            refused: 0,
        }
    }

    /// Every field a counter duplicates, in [`PAIRS`] order.
    fn fields(&self) -> [u64; 7] {
        let mut s = self.gone;
        for p in &self.procs {
            s[0] += p.stats.cow_copies;
            s[1] += p.stats.demand_faults;
            s[2] += p.stats.ptes_copied;
        }
        [
            self.phys.pages_copied_total,
            self.phys.frames_allocated_total,
            self.tlb.shootdowns,
            self.tlb.entries_flushed,
            s[0],
            s[1],
            s[2],
        ]
    }

    /// Tears process `i` down, folding what it counted into [`Self::gone`].
    fn destroy(&mut self, i: usize) {
        let mut p = self.procs.swap_remove(i);
        p.destroy(&mut self.phys, &mut self.cycles);
        for (g, v) in self.gone.iter_mut().zip([p.stats.cow_copies, p.stats.demand_faults, p.stats.ptes_copied]) {
            *g += v;
        }
    }

    /// One drawn step; returns what it was, for a failure's message. A
    /// step the simulator refuses (`NotMapped`, `Overlap`) is a step too:
    /// the rule holds whatever the verdict.
    fn step(&mut self, rng: &mut Rng) -> String {
        let i = rng.gen_index(self.procs.len());
        let window = WINDOWS[rng.gen_index(WINDOWS.len())];
        let vpn = Vpn(window + rng.gen_below(SPAN));
        let cpus = rng.gen_range(1, 5) as u32;
        let World { phys, cycles, tlb, procs, refused, .. } = self;
        match rng.gen_below(20) {
            0..=2 => {
                // Half of them start on a block, so THP can promote.
                let start = window + if rng.gen_bool(0.5) { 0 } else { rng.gen_below(SPAN / 2) };
                let pages = rng.gen_range(1, window + SPAN - start + 1);
                let _ = procs[i].mmap(heap_vma(Vpn(start), pages), phys, cycles);
                let (from, n) = if rng.gen_bool(0.75) { (start, pages) } else { (vpn.0, rng.gen_range(1, 64)) };
                let r = procs[i].populate(Vpn(from), n, phys, cycles);
                format!("mmap {start:#x}+{pages} of {i}, populate {from:#x}+{n}: {r:?}")
            }
            3..=10 => {
                let r = procs[i].write(vpn, rng.gen_u64(), phys, cycles, tlb, cpus);
                format!("write {vpn:?} of {i} on {cpus} cpus: {r:?}")
            }
            11..=12 => {
                let r = procs[i].read(vpn, phys, cycles).map(|(_, outcome)| outcome);
                format!("read {vpn:?} of {i}: {r:?}")
            }
            13..=16 if procs.len() < MAX_PROCS => {
                let mode = [ForkMode::Cow, ForkMode::Eager, ForkMode::OnDemand][rng.gen_index(3)];
                // A crossing about as far in as the fork has entries to copy.
                let fail = rng.gen_bool(0.25).then(|| rng.gen_below(procs[i].resident_pages() + 8));
                let plan = fail.map_or(FaultPlan::passive(), |n| FaultPlan::passive().fail_nth_crossing(n));
                let (r, trace) = with_plan(plan, || AddressSpace::fork_from(&mut procs[i], mode, phys, cycles, tlb, cpus));
                *refused += (r.is_err() && !trace.injected().is_empty()) as u64;
                let verdict = r.map(|child| procs.push(child));
                format!("fork({mode:?}) of {i} on {cpus} cpus, failing crossing {fail:?}: {verdict:?}")
            }
            17..=18 => {
                let pages = rng.gen_range(1, SPAN / 2);
                let r = procs[i].munmap(vpn, pages, phys, cycles, tlb, cpus);
                format!("munmap {vpn:?}+{pages} of {i} on {cpus} cpus: {r:?}")
            }
            _ if procs.len() > 1 => {
                self.destroy(i);
                format!("destroy {i}")
            }
            _ => "nothing".to_string(),
        }
    }
}

/// This thread's value of each counter, in [`PAIRS`] order.
fn counters() -> [u64; 7] {
    let s = metrics::snapshot();
    PAIRS.map(|name| s.counter(name))
}

/// Runs one script, asserting the rule after every step; sets `moved[k]`
/// where pair `k` moved, and returns how many forks were refused.
fn run(seed: u64, thp: bool, moved: &mut [bool; 7]) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    let mut world = World::new(thp);
    let mut check = |world: &World, before: ([u64; 7], [u64; 7]), step: &str| {
        let (fields, counts) = (world.fields(), counters());
        for (k, name) in PAIRS.iter().enumerate() {
            let (field, counter) = (fields[k] - before.0[k], counts[k] - before.1[k]);
            assert_eq!(counter, field, "seed {seed}, THP {thp}, {step}: {name} moved by {counter}, its field by {field}");
            moved[k] |= field > 0;
        }
    };
    for n in 0..STEPS {
        let before = (world.fields(), counters());
        let step = world.step(&mut rng);
        check(&world, before, &format!("step {n} ({step})"));
    }
    while !world.procs.is_empty() {
        let before = (world.fields(), counters());
        world.destroy(0);
        check(&world, before, "teardown");
    }
    assert_eq!(world.phys.used_frames(), 0, "seed {seed}, THP {thp}: frames leaked");
    world.refused
}

#[test]
fn every_counter_that_duplicates_a_field_moves_with_it() {
    let (mut moved, mut refused) = ([false; 7], 0);
    for thp in [false, true] {
        for seed in 0..SEEDS {
            refused += run(seed, thp, &mut moved);
        }
    }
    assert!(refused > 0, "no fork was refused; the fault arm is vacuous");
    // `mem.tlb.entries_flushed` moves only with THP on: without it a
    // range is flushed by a plain shootdown.
    for (name, moved) in PAIRS.iter().zip(moved) {
        assert!(moved, "no run moved {name}; the check is vacuous");
    }
}
