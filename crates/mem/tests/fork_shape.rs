//! The shape of fork's cost, on both clocks.
//!
//! The model prices `fork(OnDemand)` per leaf page-table node, not per
//! page; the host must agree — in the walk's own unit: against `fork(Cow)`
//! of the same parent, and against itself on a sixteenth of the nodes. One
//! test times it, one counts: the counted
//! twin cannot flake, and pins what a `fork(Cow)` does per page — the fault
//! sites it crosses, the PTEs it copies, the nodes it charges — to the
//! numbers it had before the fork walk built the child's nodes in place,
//! and before it copied them a run at a time.

use fpr_faults::FaultSite;
use fpr_mem::address_space::{heap_vma, ForkMode};
use fpr_mem::{AddressSpace, CostModel, Cycles, PhysMemory, Prot, Share, TlbModel, VmArea, VmaKind, Vpn};
use std::time::{Duration, Instant};

const BASE: Vpn = Vpn(0x10_000);

struct World {
    phys: PhysMemory,
    cycles: Cycles,
    tlb: TlbModel,
    parent: AddressSpace,
}

/// A parent with one populated heap mapping of `pages` pages.
fn world(pages: u64, cost: CostModel) -> World {
    let mut w = World {
        phys: PhysMemory::new(pages + 1024, cost),
        cycles: Cycles::new(),
        tlb: TlbModel::new(),
        parent: AddressSpace::new(),
    };
    w.parent.mmap(heap_vma(BASE, pages), &mut w.phys, &mut w.cycles).unwrap();
    w.parent.populate(BASE, pages, &mut w.phys, &mut w.cycles).unwrap();
    w
}

impl World {
    fn fork(&mut self, mode: ForkMode) -> AddressSpace {
        let World { phys, cycles, tlb, parent } = self;
        AddressSpace::fork_from(parent, mode, phys, cycles, tlb, 1).unwrap()
    }

    /// Least host time of 25 `fork_from` calls (the child's teardown is
    /// not timed). The first fork, which write-protects the parent, is
    /// made beforehand.
    fn least_fork_time(&mut self, mode: ForkMode) -> Duration {
        let mut least = Duration::MAX;
        for rep in 0..26 {
            let t0 = Instant::now();
            let mut child = self.fork(mode);
            let took = t0.elapsed();
            child.destroy(&mut self.phys, &mut self.cycles);
            if rep > 0 {
                least = least.min(took);
            }
        }
        least
    }
}

#[test]
fn on_demand_fork_host_time_goes_by_nodes_not_by_pages() {
    let small = world(4096, CostModel::default()).least_fork_time(ForkMode::OnDemand);
    let mut big = world(65_536, CostModel::default());
    let large = big.least_fork_time(ForkMode::OnDemand);
    let per_page = big.least_fork_time(ForkMode::Cow);
    // 8 leaf nodes against 128: the call is O(attached nodes), which is what
    // the model's per-node `pt_subtree_share` says, with nothing per call
    // large enough to hide it ...
    assert!(
        large <= 16 * small,
        "fork(OnDemand) took {large:?} at 65 536 pages against {small:?} at 4 096: \
         16x the nodes must cost at most 16x the host time"
    );
    // ... and a node costs far less than the 512 entries under it: 1/27 in
    // release, 1/40 to 1/50 in debug (which is what tier-1 runs). The copy
    // makes one pass per run of a node, not one call per entry, so the two
    // are tens apart, not hundreds, and the bound leaves room under that.
    assert!(
        8 * large < per_page,
        "fork(OnDemand) took {large:?} at 65 536 pages against {per_page:?} for fork(Cow), \
         1/{:.1} of it: attaching a node must cost under 1/8 of copying its 512 entries",
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
