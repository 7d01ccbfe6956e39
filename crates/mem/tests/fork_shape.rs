//! The shape of fork's cost, and of populate's, on both clocks.
//!
//! The model prices `fork(OnDemand)` per leaf page-table node, not per
//! page; the host must agree — in the walk's own unit: against `fork(Cow)`
//! of the same parent, and against itself on a sixteenth of the nodes. One
//! test times it, one counts: the counted
//! twin cannot flake, and pins what a `fork(Cow)` does per page — the fault
//! sites it crosses, the PTEs it copies, the nodes it charges — to the
//! numbers it had before the fork walk built the child's nodes in place,
//! and before it copied them a run at a time.
//!
//! `populate`, which builds every parent, goes a leaf node's run at a time
//! too, with a frame per page: timed against `fork(Cow)` of what it built
//! and against itself on a sixteenth of the pages, and counted — a
//! `FrameAlloc` then a `PtNodeAlloc` crossing per page, a frame's and a
//! zero-fill's charge per page and a node's per node, as when every page
//! was a demand fault of its own.
//!
//! A COW child's teardown is priced by the frames it frees and the nodes it
//! drops, wherever the pages it wrote lie; on the host, 256 written pages
//! one in 16 must cost within 2× of the same 256 side by side, at the same
//! charge.

use fpr_faults::FaultSite;
use fpr_mem::address_space::{heap_vma, ForkMode};
use fpr_mem::{AddressSpace, CostModel, Cycles, PhysMemory, Prot, Share, TlbModel, VmArea, VmaKind, Vpn};
use fpr_trace::sink;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const BASE: Vpn = Vpn(0x10_000);

/// Held by every test of this file while it runs: the harness runs them on
/// threads side by side, and a timed one must not time another's work. It
/// guards no data, so a test that failed holding it leaves nothing behind.
static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct World {
    phys: PhysMemory,
    cycles: Cycles,
    tlb: TlbModel,
    parent: AddressSpace,
}

/// A parent with one populated heap mapping of `pages` pages.
fn world(pages: u64, cost: CostModel) -> World {
    let mut w = unpopulated(pages, cost);
    w.populate(pages);
    w
}

/// A parent with one heap mapping of `pages` pages, nothing resident.
fn unpopulated(pages: u64, cost: CostModel) -> World {
    let mut w = World {
        phys: PhysMemory::new(pages + 1024, cost),
        cycles: Cycles::new(),
        tlb: TlbModel::new(),
        parent: AddressSpace::new(),
    };
    w.parent.mmap(heap_vma(BASE, pages), &mut w.phys, &mut w.cycles).unwrap();
    w
}

impl World {
    fn populate(&mut self, pages: u64) {
        self.parent.populate(BASE, pages, &mut self.phys, &mut self.cycles).unwrap();
    }

    /// Host time of one `populate` of the parent's `pages` pages into a
    /// space that holds none of them.
    fn time_populate(&mut self, pages: u64) -> Duration {
        self.parent.destroy(&mut self.phys, &mut self.cycles);
        self.parent.mmap(heap_vma(BASE, pages), &mut self.phys, &mut self.cycles).unwrap();
        let t0 = Instant::now();
        self.populate(pages);
        t0.elapsed()
    }

    fn fork(&mut self, mode: ForkMode) -> AddressSpace {
        let World { phys, cycles, tlb, parent } = self;
        AddressSpace::fork_from(parent, mode, phys, cycles, tlb, 1).unwrap()
    }

    /// Host time of one `fork_from` call; the child's teardown is not
    /// timed.
    fn time_fork(&mut self, mode: ForkMode) -> Duration {
        let t0 = Instant::now();
        let mut child = self.fork(mode);
        let took = t0.elapsed();
        child.destroy(&mut self.phys, &mut self.cycles);
        took
    }
}

/// The least of 25 host times of each of `N` arms, after one untimed
/// round. Each round runs every arm in turn, so that a burst of host noise
/// lands on all of them, not on one.
fn least_of_25<const N: usize>(mut arm: impl FnMut(usize) -> Duration) -> [Duration; N] {
    let mut least = [Duration::MAX; N];
    for round in 0..26 {
        for (i, least) in least.iter_mut().enumerate() {
            let took = arm(i);
            if round > 0 {
                *least = (*least).min(took);
            }
        }
    }
    least
}

#[test]
fn on_demand_fork_host_time_goes_by_nodes_not_by_pages() {
    let _alone = alone();
    let (mut small, mut big) = (world(4096, CostModel::default()), world(65_536, CostModel::default()));
    // The first round's forks, which write-protect each parent, are not
    // timed.
    let [small, large, per_page] = least_of_25(|arm| match arm {
        0 => small.time_fork(ForkMode::OnDemand),
        1 => big.time_fork(ForkMode::OnDemand),
        _ => big.time_fork(ForkMode::Cow),
    });
    // 8 leaf nodes against 128: the call is O(attached nodes), which is what
    // the model's per-node `pt_subtree_share` says, with nothing per call
    // large enough to hide it ...
    assert!(
        large <= 16 * small,
        "fork(OnDemand) took {large:?} at 65 536 pages against {small:?} at 4 096: \
         16x the nodes must cost at most 16x the host time"
    );
    // ... and a node costs far less than the 512 entries under it: 1/8.9
    // to 1/13.7 in release, 1/18 to 1/26 in the dev profile. The copy makes
    // one pass per run of a node, not one call per entry, so the two are
    // tens apart, not hundreds. An on-demand fork that walked every entry
    // as fork(Cow) does read 1/0.94 to 1/1.11 in both builds; the bound
    // sits 4.5x above that and 1.8x under the least reading.
    assert!(
        5 * large < per_page,
        "fork(OnDemand) took {large:?} at 65 536 pages against {per_page:?} for fork(Cow), \
         1/{:.1} of it: attaching a node must cost under 1/5 of copying its 512 entries",
        per_page.as_secs_f64() / large.as_secs_f64()
    );
}

/// Forks `w.parent` copy-on-write with nothing listening on the thread and
/// then inside a fault-plan scope, and holds both to the same count: one
/// `pt_node_alloc` crossing and one `ptes_copied` per entry the child
/// inherits, one `vma_clone` crossing per mapping, no frame, and — the world
/// is priced so that the cycle total counts page-table node allocations —
/// `nodes` charges.
fn assert_cow_fork_counts(w: &mut World, entries: u64, vmas: u64, nodes: u64) {
    let crossed = |site: FaultSite| fpr_faults::coverage()[site.index()].1.crossings;
    let (copied, charged) = (w.parent.stats.ptes_copied, w.cycles.total());
    let (allocs, frames) = (crossed(FaultSite::PtNodeAlloc), crossed(FaultSite::FrameAlloc));
    let mut child = w.fork(ForkMode::Cow);
    assert_eq!(crossed(FaultSite::PtNodeAlloc) - allocs, entries);
    assert_eq!(crossed(FaultSite::FrameAlloc) - frames, 0);
    assert_eq!(w.parent.stats.ptes_copied - copied, entries);
    assert_eq!(w.cycles.total() - charged, nodes);
    assert_eq!(child.resident_pages(), entries);
    assert_eq!(child.pt_nodes() as u64, nodes + 1, "the root is not charged");
    assert_eq!(child.check_page_table(), Ok(()));
    child.destroy(&mut w.phys, &mut w.cycles);

    // The same crossings, in one run.
    let (copied, charged) = (w.parent.stats.ptes_copied, w.cycles.total());
    let mut child = None;
    let trace = fpr_faults::count_crossings(|| child = Some(w.fork(ForkMode::Cow)));
    assert_eq!(trace.sites(), vec![FaultSite::PtNodeAlloc, FaultSite::VmaClone]);
    assert_eq!(trace.len() as u64, entries + vmas);
    assert_eq!(w.parent.stats.ptes_copied - copied, entries);
    assert_eq!(w.cycles.total() - charged, nodes);
    child.unwrap().destroy(&mut w.phys, &mut w.cycles);
}

#[test]
fn cow_fork_does_the_same_per_page_work_as_before() {
    let _alone = alone();
    const PAGES: u64 = 16_384;
    // 32 leaf nodes under one level-1 and one level-2 node (and the root,
    // which every table is born with).
    const NODES: u64 = 32 + 2;
    let crossed = |site: FaultSite| fpr_faults::coverage()[site.index()].1.crossings;

    // Priced so that the cycle total counts page-table node allocations.
    let only_nodes = CostModel { pt_node_alloc: 1, ..CostModel::free() };
    let mut w = world(PAGES, only_nodes.clone());
    let mut first = w.fork(ForkMode::Cow);
    first.destroy(&mut w.phys, &mut w.cycles);
    assert_cow_fork_counts(&mut w, PAGES, 1, NODES);

    // An on-demand fork of the same parent charges the same upper levels
    // and touches no entry: one crossing per node it attaches.
    let (copied, charged) = (w.parent.stats.ptes_copied, w.cycles.total());
    let nodes = crossed(FaultSite::PtNodeAlloc);
    let mut child = w.fork(ForkMode::OnDemand);
    assert_eq!(crossed(FaultSite::PtNodeAlloc) - nodes, 32);
    assert_eq!(w.parent.stats.ptes_copied - copied, 0);
    assert_eq!(w.cycles.total() - charged, 2);
    child.destroy(&mut w.phys, &mut w.cycles);
    w.parent.destroy(&mut w.phys, &mut w.cycles);
    assert_eq!(w.phys.used_frames(), 0);

    // A parent whose nodes hold several runs each: in the first, a mapping
    // with a hole in what it has touched, a second one starting where it
    // ends, a `MAP_SHARED` neighbour, and a fourth that runs on into the
    // next node. On its first fork — the one that write-protects it — and
    // on its second.
    let mut w = World {
        phys: PhysMemory::new(1024, only_nodes),
        cycles: Cycles::new(),
        tlb: TlbModel::new(),
        parent: AddressSpace::new(),
    };
    let mut shared = VmArea::anon(BASE.add(300), 20, Prot::RW, VmaKind::Mmap);
    shared.share = Share::Shared;
    for area in [heap_vma(BASE, 200), heap_vma(BASE.add(200), 100), shared, heap_vma(BASE.add(500), 30)] {
        w.parent.mmap(area, &mut w.phys, &mut w.cycles).unwrap();
    }
    for (start, pages) in [(0, 50), (60, 140), (200, 100), (500, 30)] {
        w.parent.populate(BASE.add(start), pages, &mut w.phys, &mut w.cycles).unwrap();
    }
    for _ in 0..2 {
        assert_cow_fork_counts(&mut w, 190 + 100 + 20 + 30, 4, 2 + 2);
    }
    w.parent.destroy(&mut w.phys, &mut w.cycles);
    assert_eq!(w.phys.used_frames(), 0);
}

/// How many `fork(Cow)`s of the parent populating it may cost. Going a
/// leaf node's run at a time, a populate reads 7.8–13.3 in the dev profile
/// and 11.8–18.0 in release; filling one page per lookup, as a demand fault
/// of its own would, 51–84 and 87–153 (100 runs or more each, on two
/// cores). No one bound leaves the release reading 1.5x of room and sits
/// 2x under the slow dev one, so each build has its own: 1.8x over the
/// fast reading, and 2.1x (dev) and 2.7x (release) under the slow one.
const K: f64 = if cfg!(debug_assertions) { 24.0 } else { 32.0 };

#[test]
fn populate_costs_a_few_cow_forks_and_grows_by_pages() {
    let _alone = alone();
    let mut small = unpopulated(1024, CostModel::default());
    let mut large = unpopulated(16_384, CostModel::default());
    // The fork is of what the round's populate built, and the parent's
    // second: its first, which write-protects it, is not timed.
    let [small, populate, fork] = least_of_25(|arm| match arm {
        0 => small.time_populate(1024),
        1 => large.time_populate(16_384),
        _ => {
            let mut first = large.fork(ForkMode::Cow);
            first.destroy(&mut large.phys, &mut large.cycles);
            large.time_fork(ForkMode::Cow)
        }
    });
    let ratio = populate.as_secs_f64() / fork.as_secs_f64();
    let growth = populate.as_secs_f64() / 16.0 / small.as_secs_f64();
    assert!(
        ratio <= K,
        "populate took {populate:?} for 16 384 pages against {fork:?} for fork(Cow) of them, \
         {ratio:.1}x: filling an entry must cost within {K}x of copying it"
    );
    assert!(
        growth <= 2.0,
        "populate cost {growth:.2}x per page at 16 384 pages what it cost at 1 024: \
         it must grow with the pages, not faster"
    );
}

#[test]
fn populate_does_the_same_per_page_work_as_a_demand_fault() {
    let _alone = alone();
    const PAGES: u64 = 16_384;
    // 32 leaf nodes under one level-1 and one level-2 node.
    const NODES: u64 = 32 + 2;
    let cost = CostModel::default();
    let mut w = unpopulated(PAGES, cost.clone());
    let charged = w.cycles.total();
    let (trace, events) = sink::with_sink(|| fpr_faults::count_crossings(|| w.populate(PAGES)));
    // A frame, then the entry's node crossing, page by page.
    let sites: Vec<FaultSite> = trace.crossings.iter().map(|c| c.site).collect();
    let per_page = [FaultSite::FrameAlloc, FaultSite::PtNodeAlloc];
    assert_eq!(sites.len() as u64, 2 * PAGES);
    assert!(sites.chunks(2).all(|pair| pair == per_page), "crossings out of order");
    let each = cost.frame_alloc + cost.page_zero;
    assert_eq!(w.cycles.total() - charged, PAGES * each + NODES * cost.pt_node_alloc);
    assert_eq!((w.phys.used_frames(), w.parent.resident_pages()), (PAGES, PAGES));
    assert_eq!(w.parent.pt_nodes() as u64, NODES + 1, "the root is not charged");
    assert_eq!(w.parent.stats.demand_faults, PAGES);
    // An instant per page, stamped when its entry is written: a frame's
    // and a zero-fill's charge after the last, and a node's on the way
    // into each new node.
    let stamps: Vec<u64> = events.iter().filter(|e| e.name == "demand_fill").map(|e| e.ts).collect();
    assert_eq!(stamps.len() as u64, PAGES);
    let node_first = stamps.windows(2).filter(|s| s[1] - s[0] != each).count();
    assert_eq!(node_first, 31, "a node's charge lands on its first page's instant");
    assert_eq!(w.parent.check_page_table(), Ok(()));
    w.parent.destroy(&mut w.phys, &mut w.cycles);
    assert_eq!(w.phys.used_frames(), 0);
}

/// Children of a `fork(Cow)` of a 4 096-page parent, each having written
/// 256 of its pages, ascending — `cow_touch`'s request — one in 16 or side
/// by side: the least host time of 100 teardowns of each, taken in turn so
/// that both see the same host, and what one of each charged.
fn least_cow_child_teardowns() -> [(Duration, u64); 2] {
    let mut w = world(4096, CostModel::default());
    let mut first = w.fork(ForkMode::Cow);
    first.destroy(&mut w.phys, &mut w.cycles);
    let mut least = [(Duration::MAX, 0); 2];
    for rep in 0..101 {
        for (stride, least) in [16, 1].into_iter().zip(&mut least) {
            let mut child = w.fork(ForkMode::Cow);
            for k in 0..256 {
                child.write(BASE.add(k * stride), k, &mut w.phys, &mut w.cycles, &mut w.tlb, 1).unwrap();
            }
            let (t0, before) = (Instant::now(), w.cycles.total());
            child.destroy(&mut w.phys, &mut w.cycles);
            let took = t0.elapsed();
            least.1 = w.cycles.total() - before;
            if rep > 0 {
                least.0 = least.0.min(took);
            }
        }
    }
    least
}

#[test]
fn a_cow_childs_teardown_costs_about_the_same_wherever_it_wrote() {
    let _alone = alone();
    // The same 256 copies and the same eight leaf nodes either way; one in
    // 16 breaks the parent's frame run in every node, 32 times.
    let [(scattered, scattered_charge), (contiguous, contiguous_charge)] = least_cow_child_teardowns();
    assert_eq!(scattered_charge, contiguous_charge, "the model prices the teardown by what it frees, not where");
    // Where each written page cut its node's run into runs of one, the
    // scattered teardown took about 3x the contiguous one.
    assert!(
        scattered <= 2 * contiguous,
        "a COW child's teardown took {scattered:?} with its 256 written pages one in 16 against \
         {contiguous:?} with them side by side: the host must stay within 2x of it"
    );
}
