//! Every branch of `AddressSpace::write`'s decision, pinned.
//!
//! A store to a page takes one of a dozen paths: a demand fill, a hit, a
//! COW break that copies or reuses the frame — in a `fork(Cow)` child and in
//! its parent, in a node an on-demand fork shares (a structure fault first)
//! and in one it has stopped sharing —, a swap-in, a huge block's flip or
//! split, the lazy `mprotect` upgrade and the break of a page `mprotect`
//! left unmarked, or a refusal (`Protection`, `NotMapped`). [`CASES`] names
//! one store for each, on a world built for it ([`world`]).
//!
//! Each store runs with nobody listening, and then through
//! `fpr_faults::sweep` under a trace sink: once counting, and once per fail
//! point with that crossing refused. Every run records what anyone can
//! observe: the verdict, the cycles charged, every counter moved, the
//! spaces' `AsStats`, the crossings, the trace events, and afterwards every
//! entry of every space, each leaf node's runs, spans and sharing (the
//! words and maps behind them recounted by `check_page_table`), every
//! frame's and swap slot's reference count and what every page reads. The
//! records fold into one digest per case, pinned below: however the write
//! path is arranged, each store must leave exactly this.

use fpr_faults::{sweep, FaultSite, FaultTrace};
use fpr_mem::address_space::{heap_vma, ForkMode};
use fpr_mem::{AddressSpace, CostModel, Cycles, FaultOutcome, MemError, Pfn, PhysMemory, Prot, Pte, Share};
use fpr_mem::{TlbModel, VmArea, VmaKind, Vpn};
use fpr_trace::{metrics, sink, TraceEvent};

const FRAMES: u64 = 4096;
const SWAP_SLOTS: u64 = 4;

/// The heap: pages 0..8 written, 8..16 never touched, page 5 swapped out.
const HEAP: (u64, u64) = (0, 16);
/// A `MAP_SHARED` mapping, written.
const SHARED: (u64, u64) = (100, 4);
/// A read-only mapping.
const READ_ONLY: (u64, u64) = (120, 4);
/// A mapping made read-only and then writable again before any fork, written
/// before both: its entries stay read-only until a store upgrades them.
const UPGRADED: (u64, u64) = (140, 4);
/// A mapping made read-only before a fork and writable after it: the fork
/// leaves its entries unmarked.
const UNMARKED: (u64, u64) = (160, 4);
/// A 2 MiB block (THP worlds only).
const BLOCK: u64 = 1024;
/// A page no mapping covers.
const NOWHERE: u64 = 5000;
/// `PteFlags` bits: writable, and copy-on-write.
const WRITABLE: u16 = 1 << 1;
const COW: u16 = 1 << 6;

/// What the world holds beside its parent, space 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// The parent alone.
    Alone,
    /// A `fork(Cow)` child, space 1; the parent has since written page 2 and
    /// the child page 3.
    Cow,
    /// A `fork(OnDemand)` child, space 1, every node still shared.
    OnDemand,
    /// The same, after the child wrote page 4: the child holds a copy of
    /// the heap's node, and the parent is the one table left holding the
    /// node they shared.
    OnDemandUnshared,
    /// THP on, the block populated, and a `fork(Cow)` child, space 1.
    Thp,
    /// The same after the child exited: the parent holds the block's
    /// frames alone, still COW-marked.
    ThpChildGone,
}

struct World {
    phys: PhysMemory,
    cycles: Cycles,
    tlb: TlbModel,
    spaces: Vec<AddressSpace>,
}

fn store(w: &mut World, space: usize, vpn: u64, value: u64) -> Verdict {
    let World { phys, cycles, tlb, spaces } = w;
    spaces[space].write(Vpn(vpn), value, phys, cycles, tlb, 2)
}

fn world(shape: Shape) -> World {
    let mut phys = PhysMemory::new(FRAMES, CostModel::default());
    phys.set_swap_capacity(SWAP_SLOTS);
    let mut w = World { phys, cycles: Cycles::new(), tlb: TlbModel::new(), spaces: vec![AddressSpace::new()] };
    let World { phys, cycles, tlb, spaces } = &mut w;
    let parent = &mut spaces[0];
    let thp = matches!(shape, Shape::Thp | Shape::ThpChildGone);
    parent.set_thp(thp);
    parent.mmap(heap_vma(Vpn(HEAP.0), HEAP.1), phys, cycles).unwrap();
    let mut shared = VmArea::anon(Vpn(SHARED.0), SHARED.1, Prot::RW, VmaKind::Mmap);
    shared.share = Share::Shared;
    parent.mmap(shared, phys, cycles).unwrap();
    parent.mmap(VmArea::anon(Vpn(READ_ONLY.0), READ_ONLY.1, Prot::R, VmaKind::Mmap), phys, cycles).unwrap();
    parent.mmap(heap_vma(Vpn(UPGRADED.0), UPGRADED.1), phys, cycles).unwrap();
    parent.mmap(heap_vma(Vpn(UNMARKED.0), UNMARKED.1), phys, cycles).unwrap();
    let written = [0..8, SHARED.0..SHARED.0 + SHARED.1, UPGRADED.0..UPGRADED.0 + 4, UNMARKED.0..UNMARKED.0 + 4];
    for vpn in written.into_iter().flatten() {
        parent.write(Vpn(vpn), 7000 + vpn, phys, cycles, tlb, 1).unwrap();
    }
    parent.read(Vpn(READ_ONLY.0), phys, cycles).unwrap();
    for prot in [Prot::R, Prot::RW] {
        parent.mprotect(Vpn(UPGRADED.0), UPGRADED.1, prot, cycles, phys, tlb, 1).unwrap();
    }
    parent.mprotect(Vpn(UNMARKED.0), UNMARKED.1, Prot::R, cycles, phys, tlb, 1).unwrap();
    let slot = phys.swap_out_page(7005, cycles).unwrap();
    parent.swap_out_commit(Vpn(5), slot, phys, cycles);
    if thp {
        parent.mmap(heap_vma(Vpn(BLOCK), 512), phys, cycles).unwrap();
        parent.populate(Vpn(BLOCK), 512, phys, cycles).unwrap();
        parent.write(Vpn(BLOCK + 1), 9001, phys, cycles, tlb, 1).unwrap();
        assert_eq!(parent.huge_pages(), 1);
    }
    let mode = match shape {
        Shape::Alone => None,
        Shape::OnDemand | Shape::OnDemandUnshared => Some(ForkMode::OnDemand),
        Shape::Cow | Shape::Thp | Shape::ThpChildGone => Some(ForkMode::Cow),
    };
    if let Some(mode) = mode {
        let child = AddressSpace::fork_from(parent, mode, phys, cycles, tlb, 1).unwrap();
        parent.mprotect(Vpn(UNMARKED.0), UNMARKED.1, Prot::RW, cycles, phys, tlb, 1).unwrap();
        spaces.push(child);
        spaces[1].mprotect(Vpn(UNMARKED.0), UNMARKED.1, Prot::RW, cycles, phys, tlb, 1).unwrap();
    }
    match shape {
        Shape::Cow => {
            spaces[0].write(Vpn(2), 8002, phys, cycles, tlb, 1).unwrap();
            spaces[1].write(Vpn(3), 8103, phys, cycles, tlb, 1).unwrap();
        }
        Shape::OnDemandUnshared => {
            spaces[1].write(Vpn(4), 8104, phys, cycles, tlb, 1).unwrap();
            assert_eq!(spaces[1].stats.pt_unshares, 1);
        }
        Shape::ThpChildGone => {
            let mut child = spaces.pop().unwrap();
            child.destroy(phys, cycles);
            assert_eq!(phys.refs(spaces[0].translate(Vpn(BLOCK)).unwrap().pfn), Ok(1));
        }
        _ => {}
    }
    for space in spaces.iter() {
        assert_eq!(space.check_page_table(), Ok(()));
        let flags = |vpn: u64| space.translate(Vpn(vpn)).unwrap().flags.0;
        assert_eq!(flags(UPGRADED.0 + 1) & (WRITABLE | COW), 0, "the upgrade is left to a store");
        if mode.is_some() {
            assert_eq!(flags(UNMARKED.0 + 1) & (WRITABLE | COW), 0, "the fork marks no read-only entry");
        }
    }
    w
}

/// What a store returns.
type Verdict = Result<FaultOutcome, MemError>;

/// `(case, world, space, page, verdict)`: one store for each way a write
/// can go.
const CASES: [(&str, Shape, usize, u64, Verdict); 23] = [
    ("demand fill", Shape::Alone, 0, 9, Ok(FaultOutcome::DemandFill)),
    ("hit", Shape::Alone, 0, 1, Ok(FaultOutcome::Hit)),
    ("hit, shared mapping", Shape::Cow, 1, SHARED.0 + 1, Ok(FaultOutcome::Hit)),
    ("swap-in", Shape::Alone, 0, 5, Ok(FaultOutcome::SwapIn)),
    ("lazy mprotect upgrade", Shape::Alone, 0, UPGRADED.0 + 1, Ok(FaultOutcome::Hit)),
    ("protection", Shape::Alone, 0, READ_ONLY.0, Err(MemError::Protection)),
    ("not mapped", Shape::Alone, 0, NOWHERE, Err(MemError::NotMapped)),
    ("cow copy, child", Shape::Cow, 1, 1, Ok(FaultOutcome::CowCopy)),
    ("cow copy, parent", Shape::Cow, 0, 1, Ok(FaultOutcome::CowCopy)),
    ("cow reuse, child", Shape::Cow, 1, 2, Ok(FaultOutcome::CowReuse)),
    ("cow reuse, parent", Shape::Cow, 0, 3, Ok(FaultOutcome::CowReuse)),
    ("cow demand fill, child", Shape::Cow, 1, 10, Ok(FaultOutcome::DemandFill)),
    ("swap-in, cow child", Shape::Cow, 1, 5, Ok(FaultOutcome::SwapIn)),
    ("unmarked break, parent", Shape::Cow, 0, UNMARKED.0 + 1, Ok(FaultOutcome::CowCopy)),
    ("unmarked break, child", Shape::Cow, 1, UNMARKED.0 + 2, Ok(FaultOutcome::CowCopy)),
    ("structure fault then copy, child", Shape::OnDemand, 1, 1, Ok(FaultOutcome::CowCopy)),
    ("structure fault then copy, parent", Shape::OnDemand, 0, 1, Ok(FaultOutcome::CowCopy)),
    ("structure fault then swap-in", Shape::OnDemand, 1, 5, Ok(FaultOutcome::SwapIn)),
    ("copy, node no longer shared", Shape::OnDemandUnshared, 0, 2, Ok(FaultOutcome::CowCopy)),
    ("copy, the unshared copy", Shape::OnDemandUnshared, 1, 2, Ok(FaultOutcome::CowCopy)),
    ("huge split then copy", Shape::Thp, 0, BLOCK + 3, Ok(FaultOutcome::CowCopy)),
    ("huge split then copy, child", Shape::Thp, 1, BLOCK + 3, Ok(FaultOutcome::CowCopy)),
    ("huge sole-owner flip", Shape::ThpChildGone, 0, BLOCK + 3, Ok(FaultOutcome::CowReuse)),
];

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

    fn text(&mut self, s: &str) {
        s.bytes().for_each(|b| self.word(b as u64));
    }

    fn pte(&mut self, vpn: u64, pte: Pte) {
        self.word(vpn);
        self.word(pte.pfn.0);
        self.word(pte.flags.0 as u64);
    }
}

/// Every entry `space` maps, swap entries included, by mapping.
fn mapped(space: &AddressSpace) -> Vec<(u64, Pte)> {
    let pages = space.vmas().flat_map(|v| v.start.0..v.start.0 + v.pages);
    pages.filter_map(|vpn| space.translate(Vpn(vpn)).map(|pte| (vpn, pte))).collect()
}

/// What every page of every space reads.
fn contents(w: &World) -> Vec<u64> {
    let pages = |s: &'_ AddressSpace| s.vmas().flat_map(|v| v.start.0..v.start.0 + v.pages).collect::<Vec<_>>();
    w.spaces.iter().flat_map(|s| pages(s).into_iter().map(|vpn| s.observe(Vpn(vpn), &w.phys).unwrap())).collect()
}

/// What one store did, besides the world it left.
struct Stored {
    result: Verdict,
    charged: u64,
    counted: metrics::Snapshot,
    events: Vec<TraceEvent>,
}

fn stored(w: &mut World, (space, vpn): (usize, u64), listening: bool) -> Stored {
    let (at, before) = (w.cycles.total(), metrics::snapshot());
    let (result, events) = match listening {
        true => sink::with_sink(|| store(w, space, vpn, 0xbeef)),
        false => (store(w, space, vpn, 0xbeef), Vec::new()),
    };
    Stored { result, charged: w.cycles.total() - at, counted: metrics::snapshot().delta(&before), events }
}

/// Folds what the store charged, counted, crossed and emitted, and what it
/// left: entries, leaf nodes, reference counts and contents of every space.
fn fold(w: &World, s: &Stored, trace: &FaultTrace, d: &mut Digest) {
    d.text(&format!("{:?}", s.result));
    d.word(s.charged);
    for (name, n) in s.counted.counters().filter(|&(_, n)| n != 0) {
        d.text(name);
        d.word(n);
    }
    for c in &trace.crossings {
        d.word(c.site.index() as u64);
        d.word(c.occurrence);
        d.word(c.injected as u64);
    }
    s.events.iter().for_each(|ev| d.text(&format!("{ev:?}")));
    for space in &w.spaces {
        assert_eq!(space.check_page_table(), Ok(()));
        d.text(&format!("{:?}", space.stats));
        mapped(space).into_iter().for_each(|(vpn, pte)| d.pte(vpn, pte));
        for leaf in space.leaf_slots() {
            d.word(leaf.shared().is_some() as u64);
            leaf.frame_runs().for_each(|r| [r.start, r.end].into_iter().for_each(|w| d.word(w)));
            leaf.swap_slots().for_each(|slot| d.word(slot));
            leaf.spans().for_each(|r| [r.start.0, r.end.0].into_iter().for_each(|w| d.word(w)));
        }
        d.word(space.resident_pages());
        d.word(space.swapped_pages());
        d.word(space.pt_nodes() as u64);
    }
    for pfn in 0..w.phys.total_frames() {
        d.word(w.phys.refs(Pfn(pfn)).unwrap_or(0) as u64);
    }
    for slot in 0..w.phys.swap().capacity() {
        d.word(w.phys.swap().refs(slot).unwrap_or(0) as u64);
    }
    d.word(w.phys.used_frames());
    contents(w).into_iter().for_each(|c| d.word(c));
}

/// Tears every space down; nothing may be left.
fn finish(mut w: World) {
    for space in &mut w.spaces {
        assert_eq!(space.check_page_table(), Ok(()));
        space.destroy(&mut w.phys, &mut w.cycles);
    }
    assert_eq!((w.phys.used_frames(), w.phys.swap().used_slots()), (0, 0));
}

/// Runs one case every way it can end: returns its fail points and digest.
fn case_points(shape: Shape, at: (usize, u64), verdict: Verdict) -> (u64, u64) {
    let mut digest = Digest::new();
    let untouched = world(shape);
    let read_before = contents(&untouched);
    finish(untouched);

    let mut passive = world(shape);
    let quiet = stored(&mut passive, at, false);
    assert_eq!(quiet.result, verdict);
    fold(&passive, &quiet, &FaultTrace::default(), &mut digest);
    let counted = sweep(None, || world(shape), |w| stored(w, at, true), |run| {
        let s = &run.result;
        match run.fault {
            None => {
                // Who listens changes nothing but the events.
                assert_eq!((s.result, s.charged, &s.counted), (quiet.result, quiet.charged, &quiet.counted));
                assert_eq!(contents(&run.world), contents(&passive));
                for (a, b) in run.world.spaces.iter().zip(&passive.spaces) {
                    assert_eq!((mapped(a), &a.stats), (mapped(b), &b.stats));
                }
            }
            Some(fault) => {
                let refusal = if fault.site == FaultSite::SwapIn { MemError::SwapIo } else { MemError::OutOfMemory };
                assert_eq!(s.result, Err(refusal), "point {}", fault.global_index);
                assert_eq!(contents(&run.world), read_before, "a refused store wrote a page");
            }
        }
        fold(&run.world, s, &run.trace, &mut digest);
        finish(run.world);
    });
    finish(passive);
    (counted.len() as u64, digest.0)
}

#[test]
fn every_write_branch_leaves_what_it_left_before() {
    // (case, fail points, digest), obtained from the write path that
    // decides its branch in the order structure fault, swap, writable,
    // COW break, lazy upgrade.
    let pinned: [(&str, u64, u64); 23] = [
        ("demand fill", 2, 0x73a6_bbaa_c858_5abc),
        ("hit", 0, 0x70ec_acaa_1717_c0f5),
        ("hit, shared mapping", 0, 0xe74a_c901_90f1_94bd),
        ("swap-in", 2, 0xa776_ab11_970c_5302),
        ("lazy mprotect upgrade", 0, 0xa9a0_d1d2_1ecf_882d),
        ("protection", 0, 0x16f1_3aef_abd6_96f5),
        ("not mapped", 0, 0xfb20_fa64_a68d_20c5),
        ("cow copy, child", 1, 0x4fdb_824f_75b7_6528),
        ("cow copy, parent", 1, 0x6c99_2fdf_a3b1_4390),
        ("cow reuse, child", 0, 0xd259_c237_07c7_83b6),
        ("cow reuse, parent", 0, 0x8ffd_7051_89a9_fa2a),
        ("cow demand fill, child", 2, 0x2bfb_b7e7_8747_6f8a),
        ("swap-in, cow child", 2, 0xd3e8_83b1_14ac_de1b),
        ("unmarked break, parent", 1, 0x8fee_a3f8_2fb9_db88),
        ("unmarked break, child", 1, 0xfa85_9d9d_be18_8f98),
        ("structure fault then copy, child", 2, 0x55b8_3217_21e5_8f77),
        ("structure fault then copy, parent", 2, 0x4cd4_5745_6ad2_87fb),
        ("structure fault then swap-in", 3, 0x6731_db0a_899c_b8fb),
        ("copy, node no longer shared", 1, 0x3e39_caaa_b717_7d87),
        ("copy, the unshared copy", 1, 0x670e_34b0_17c4_4d67),
        ("huge split then copy", 2, 0xf4f3_270c_5cb5_2c96),
        ("huge split then copy, child", 2, 0x5233_72c0_4976_147e),
        ("huge sole-owner flip", 0, 0x7e37_4611_4daf_e295),
    ];
    let got = CASES.map(|(name, shape, space, vpn, verdict)| {
        let (points, digest) = case_points(shape, (space, vpn), verdict);
        (name, points, digest)
    });
    assert_eq!(got, pinned, "got {got:#x?}");
}
