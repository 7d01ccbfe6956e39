//! What `fork_from` leaves behind at every one of its fail points, pinned.
//!
//! A ≈ 40-page parent built to reach every arm of the fork walk is forked
//! in each mode passively, under `count_crossings`, and then once per fail
//! point *k* under `FaultPlan::fail_nth_crossing(k)`. Every run records what
//! a caller — and the rollback — can observe: the result, the cycles the
//! call charged, the `ptes_copied` / `vmas_cloned` deltas, the `FaultTrace`,
//! and afterwards every PTE of the parent, every frame's and swap slot's
//! reference count and `used_frames()`. The records fold into one digest
//! per mode, pinned below: however the walk batches its per-entry work, a
//! failure at crossing *k* must leave exactly this.

use fpr_faults::{count_crossings, with_plan, FaultPlan, FaultTrace};
use fpr_mem::address_space::{heap_vma, ForkMode};
use fpr_mem::{AddressSpace, CostModel, Cycles, MemError, Pfn, PhysMemory, Prot, Pte, Share};
use fpr_mem::{TlbModel, VmArea, VmaKind, Vpn};

const FRAMES: u64 = 128;
const SWAP_SLOTS: u64 = 4;
/// Every page the parent maps lies below this (four leaf nodes).
const WINDOW: u64 = 4 * 512;

struct World {
    phys: PhysMemory,
    cycles: Cycles,
    tlb: TlbModel,
    parent: AddressSpace,
}

/// The parent. By leaf node (512 pages each):
///
/// * node 0 and 1 — a private RW mapping over 506..520, straddling the two,
///   with 510..513 never touched (a hole inside one VMA's run), one page
///   already COW-marked;
/// * node 1 — a `MAP_SHARED` neighbour at 530..534, and a private mapping
///   at 540..546 whose page 542 `mprotect` made read-only (three VMAs, so
///   three more runs in the node);
/// * node 2 — inherited pages at 1024..1028 and 1050..1054 around a
///   `WIPEONFORK` range at 1030..1033 and a `DONTFORK` one at 1040..1043,
///   so `OnDemand` cannot attach the node and copies it;
/// * node 3 — three pages at 1541..1544, the middle one swapped out.
fn world() -> World {
    let mut phys = PhysMemory::new(FRAMES, CostModel::default());
    phys.set_swap_capacity(SWAP_SLOTS);
    let mut w = World { phys, cycles: Cycles::new(), tlb: TlbModel::new(), parent: AddressSpace::new() };
    let World { phys, cycles, tlb, parent } = &mut w;
    let mut map = |parent: &mut AddressSpace, area: VmArea| parent.mmap(area, phys, cycles).unwrap();
    map(parent, heap_vma(Vpn(506), 14));
    let mut shared = VmArea::anon(Vpn(530), 4, Prot::RW, VmaKind::Mmap);
    shared.share = Share::Shared;
    map(parent, shared);
    map(parent, heap_vma(Vpn(540), 6));
    map(parent, heap_vma(Vpn(1024), 30));
    map(parent, heap_vma(Vpn(1541), 3));
    let touched = [506..510, 513..520, 540..546, 1024..1028, 1030..1033, 1040..1043, 1050..1054, 1541..1544];
    for vpn in touched.into_iter().flatten() {
        parent.write(Vpn(vpn), 7000 + vpn, phys, cycles, tlb, 1).unwrap();
    }
    parent.cow_protect_page(Vpn(515), phys, cycles).unwrap();
    parent.mprotect(Vpn(542), 1, Prot::R, cycles, phys, tlb, 1).unwrap();
    parent.set_fork_policy(Vpn(1030), 3, |p| p.wipe_on_fork = true).unwrap();
    parent.set_fork_policy(Vpn(1040), 3, |p| p.dont_fork = true).unwrap();
    let slot = phys.swap_out_page(7000 + 1542, cycles).unwrap();
    parent.swap_out_commit(Vpn(1542), slot, phys, cycles);
    assert_eq!((parent.resident_pages(), parent.swapped_pages()), (37, 1));
    assert_eq!(parent.check_page_table(), Ok(()));
    w
}

/// FNV-1a over the 64-bit words of a record.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn pte(&mut self, vpn: u64, pte: Pte) {
        self.word(vpn);
        self.word(pte.pfn.0);
        self.word(pte.flags.0 as u64);
    }
}

/// Every entry `space` maps in the window, swap entries included.
fn mapped(space: &AddressSpace) -> Vec<(u64, Pte)> {
    (0..WINDOW).filter_map(|vpn| space.translate(Vpn(vpn)).map(|pte| (vpn, pte))).collect()
}

/// Reference count of every frame and every swap slot, zero where unheld.
fn refs(phys: &PhysMemory) -> Vec<u32> {
    let frames = (0..FRAMES).map(|pfn| phys.refs(Pfn(pfn)).unwrap_or(0));
    let slots = (0..SWAP_SLOTS).map(|slot| phys.swap().refs(slot).unwrap_or(0));
    frames.chain(slots).collect()
}

/// What one `fork_from` call did, as far as anyone can tell afterwards.
struct Run {
    result: Result<AddressSpace, MemError>,
    trace: Option<FaultTrace>,
    world: World,
    charged: u64,
    ptes_copied: u64,
    vmas_cloned: u64,
}

/// Who is on the thread while the fork runs.
enum Listening {
    Nobody,
    Counting,
    FailingCrossing(u64),
}

fn run(mode: ForkMode, listening: Listening) -> Run {
    let mut w = world();
    let (at, copied, cloned) = (w.cycles.total(), w.parent.stats.ptes_copied, w.parent.stats.vmas_cloned);
    let mut fork = || AddressSpace::fork_from(&mut w.parent, mode, &mut w.phys, &mut w.cycles, &mut w.tlb, 2);
    let (result, trace) = match listening {
        Listening::Nobody => (fork(), None),
        Listening::Counting => {
            let mut result = None;
            let trace = count_crossings(|| result = Some(fork()));
            (result.expect("the scope ran"), Some(trace))
        }
        Listening::FailingCrossing(k) => {
            let (result, trace) = with_plan(FaultPlan::passive().fail_nth_crossing(k), fork);
            (result, Some(trace))
        }
    };
    Run {
        result,
        trace,
        charged: w.cycles.total() - at,
        ptes_copied: w.parent.stats.ptes_copied - copied,
        vmas_cloned: w.parent.stats.vmas_cloned - cloned,
        world: w,
    }
}

impl Run {
    fn fold_into(&self, d: &mut Digest) {
        d.word(match &self.result {
            Ok(_) => 0,
            Err(MemError::OutOfMemory) => 1,
            Err(e) => panic!("a fork fails with OutOfMemory or not at all, not {e:?}"),
        });
        d.word(self.charged);
        d.word(self.ptes_copied);
        d.word(self.vmas_cloned);
        for c in self.trace.iter().flat_map(|t| &t.crossings) {
            d.word(c.site.index() as u64);
            d.word(c.occurrence);
            d.word(c.global_index);
            d.word(c.injected as u64);
        }
        let spaces = [Some(&self.world.parent), self.result.as_ref().ok()];
        for space in spaces.into_iter().flatten() {
            mapped(space).into_iter().for_each(|(vpn, pte)| d.pte(vpn, pte));
            d.word(space.resident_pages());
            d.word(space.swapped_pages());
            d.word(space.pt_nodes() as u64);
        }
        refs(&self.world.phys).into_iter().for_each(|r| d.word(r as u64));
        d.word(self.world.phys.used_frames());
    }

    /// Tears both spaces down; nothing may be left.
    fn finish(mut self) {
        let World { phys, cycles, parent, .. } = &mut self.world;
        if let Ok(child) = &mut self.result {
            assert_eq!(child.check_page_table(), Ok(()));
            child.destroy(phys, cycles);
        }
        assert_eq!(parent.check_page_table(), Ok(()));
        parent.destroy(phys, cycles);
        assert_eq!((phys.used_frames(), phys.swap().used_slots()), (0, 0));
    }
}

/// Forks the parent in `mode` every way a fork can end and returns the
/// number of fail points with the digest of everything observed.
fn sweep(mode: ForkMode) -> (u64, u64) {
    let mut digest = Digest::new();
    let untouched = world();
    let (parent_before, refs_before) = (mapped(&untouched.parent), refs(&untouched.phys));
    let used_before = untouched.phys.used_frames();

    // Nobody listening, and a scope that only counts: the same fork.
    let passive = run(mode, Listening::Nobody);
    let counted = run(mode, Listening::Counting);
    let (a, b) = (passive.result.as_ref().unwrap(), counted.result.as_ref().unwrap());
    assert_eq!(mapped(a), mapped(b), "{mode:?}: the child's entries depend on who listens");
    assert_eq!(mapped(&passive.world.parent), mapped(&counted.world.parent), "{mode:?}");
    assert_eq!(refs(&passive.world.phys), refs(&counted.world.phys), "{mode:?}");
    assert_eq!(
        (passive.charged, passive.ptes_copied, passive.vmas_cloned),
        (counted.charged, counted.ptes_copied, counted.vmas_cloned),
        "{mode:?}"
    );
    assert_eq!((a.resident_pages(), a.swapped_pages()), (b.resident_pages(), b.swapped_pages()));
    let fail_points = counted.trace.as_ref().unwrap().len() as u64;
    for r in [passive, counted] {
        r.fold_into(&mut digest);
        r.finish();
    }

    for k in 0..fail_points {
        let failed = run(mode, Listening::FailingCrossing(k));
        let trace = failed.trace.as_ref().unwrap();
        assert_eq!(failed.result.as_ref().err(), Some(&MemError::OutOfMemory), "{mode:?} point {k}");
        assert_eq!(trace.len() as u64, k + 1, "{mode:?} point {k}: the walk went on after the fault");
        assert_eq!(trace.injected().len(), 1);
        // The rollback is complete — which the digest pins too, but says
        // less clearly when it breaks.
        assert_eq!(mapped(&failed.world.parent), parent_before, "{mode:?} point {k}: parent PTEs");
        assert_eq!(refs(&failed.world.phys), refs_before, "{mode:?} point {k}: reference counts");
        assert_eq!(failed.world.phys.used_frames(), used_before, "{mode:?} point {k}");
        failed.fold_into(&mut digest);
        failed.finish();
    }
    (fail_points, digest.0)
}

#[test]
fn every_fail_point_leaves_what_it_left_before() {
    // (mode, fail points, digest), obtained from the per-entry fork walk.
    let pinned = [
        (ForkMode::Cow, 42, 0x0004_b31c_f39f_e74d_u64),
        (ForkMode::OnDemand, 21, 0x85a2_20f1_c4a1_38bd),
        (ForkMode::Eager, 69, 0x63b3_809f_6d39_0e43),
    ];
    let got = pinned.map(|(mode, ..)| {
        let (fail_points, digest) = sweep(mode);
        (mode, fail_points, digest)
    });
    assert_eq!(got, pinned, "got {got:#x?}");
}
