//! The shape of fork's cost, on both clocks.
//!
//! The model prices `fork(OnDemand)` per leaf page-table node, not per
//! page; the host must agree — in the walk's own unit: against `fork(Cow)`
//! of the same parent, and against itself on a sixteenth of the nodes. One
//! test times it, one counts: the counted
//! twin cannot flake, and pins what a `fork(Cow)` does per page — the fault
//! sites it crosses, the PTEs it copies, the nodes it charges — to the
//! numbers it had before the fork walk built the child's nodes in place.

use fpr_faults::FaultSite;
use fpr_mem::address_space::{heap_vma, ForkMode};
use fpr_mem::{AddressSpace, CostModel, Cycles, PhysMemory, TlbModel, Vpn};
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
    // ... and a node costs far less than the 512 entries under it.
    assert!(
        20 * large < per_page,
        "fork(OnDemand) took {large:?} at 65 536 pages against {per_page:?} for fork(Cow): \
         attaching a node must cost under 1/20 of copying its entries"
    );
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
    let mut w = world(PAGES, only_nodes);
    let mut first = w.fork(ForkMode::Cow);
    first.destroy(&mut w.phys, &mut w.cycles);

    // With nothing listening on the thread ...
    let (copied, charged) = (w.parent.stats.ptes_copied, w.cycles.total());
    let (nodes, frames) = (crossed(FaultSite::PtNodeAlloc), crossed(FaultSite::FrameAlloc));
    let mut child = w.fork(ForkMode::Cow);
    assert_eq!(crossed(FaultSite::PtNodeAlloc) - nodes, PAGES);
    assert_eq!(crossed(FaultSite::FrameAlloc) - frames, 0);
    assert_eq!(w.parent.stats.ptes_copied - copied, PAGES);
    assert_eq!(w.cycles.total() - charged, NODES);
    assert_eq!(child.resident_pages(), PAGES);
    assert_eq!(child.pt_nodes() as u64, NODES + 1, "the root is not charged");
    child.destroy(&mut w.phys, &mut w.cycles);

    // ... and inside a fault-plan scope: the same crossings, in one run.
    let charged = w.cycles.total();
    let mut child = None;
    let trace = fpr_faults::count_crossings(|| child = Some(w.fork(ForkMode::Cow)));
    assert_eq!(trace.sites(), vec![FaultSite::PtNodeAlloc, FaultSite::VmaClone]);
    assert_eq!(trace.len() as u64, PAGES + 1);
    assert_eq!(w.cycles.total() - charged, NODES);
    child.unwrap().destroy(&mut w.phys, &mut w.cycles);

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
}
