//! `AddressSpace` against a reference model simple enough to be obviously
//! right.
//!
//! The reference is a flat address space: one `BTreeMap<vpn, Page>` per
//! process, a page being what a process can observe of it — content,
//! protection, sharing mode, fork policy — and nothing else. There are no
//! page tables, frames, reference counts or huge pages in it. `fork`
//! copies the map by value: a `MAP_PRIVATE` page gets a content cell of its
//! own, a `MAP_SHARED` page keeps pointing at the parent's, `MADV_DONTFORK`
//! pages are left out and `MADV_WIPEONFORK` pages arrive zeroed. μFork
//! (PAPERS.md) is why this is a fair oracle: fork's observable contract does
//! not depend on the mechanism behind it.
//!
//! Seeded scripts of `mmap / munmap / mprotect / madvise / populate / write /
//! read / slide / swap-out / fork(mode) / exit` run through both. Every verdict (`Ok`, or which
//! error) and every value read must agree, after each fork the whole mapped
//! set of parent and child must agree, every page table's summaries must
//! recount after every step, and tearing the world down must return
//! `PhysMemory` to zero used frames. Each script runs with THP off
//! and on, with every fork in one [`ForkMode`] and with the modes mixed —
//! three modes that each agree with the reference agree with each other,
//! which is what the Cow/OnDemand/Eager twin-world test this file replaced
//! compared directly. The `madvise` ranges land inside leaf nodes, so some
//! on-demand fork must meet a node it cannot share whole and copy it entry
//! by entry; a run in which none did fails as vacuous. Forks and teardowns
//! take and drop frame references a run of consecutive frames at a time,
//! cut where the frame table's chunk ends: counted off the PTEs, they must
//! between them go over a leaf node whose frames run on across a chunk
//! boundary and one whose frames do not run at all, under THP and without.
//!
//! Every fork that goes through is also held to the count rule: what its
//! walk must count is a pure function of the parent's VMA list, its
//! entries — present, swapped or 2 MiB blocks, and which are writable — and
//! the GiB regions it holds as huge directories ([`ForkRule`], stated once
//! as data, as SarOS's `clone_address_space` states it in code). The
//! `AsStats` deltas `vmas_cloned`, `ptes_copied`, `pt_subtrees_shared` and
//! `pages_eager_copied`, the child's page-table nodes and the parent
//! entries the fork write-protected (the TLB term) must equal what the rule
//! says, in every mode, with THP off and on.
//!
//! `slide` moves a whole *mapping* — what one `mmap` made, cut wherever a
//! later `munmap`, `mprotect` or `madvise` range began or ended inside it —
//! to a new start, pages and all. The reference keeps the cuts as a set of
//! page numbers beside the pages and re-keys the pages of the mapping; it
//! says `NotMapped` where no mapping starts, `BadAddress` past the end of
//! user space and `Overlap` where anything is in the way. The runs must
//! between them slide a mapping that lies across two leaf nodes by a
//! distance that is no multiple of a node, a mapping in a node an on-demand
//! fork still shares, and — under THP — a huge block by a distance that
//! keeps its alignment and by one that does not; a run in which one of
//! these never happened fails as vacuous too.
//!
//! `swap-out` evicts a drawn subset of what `swap_out_candidates` offers
//! to the swap device; the page comes back in on its next touch. Swap is
//! invisible to content, so the reference does nothing for it. Counted off
//! the PTEs, the runs must between them fork a copy of a leaf node holding
//! swap entries, unshare one for a touch of a swap entry in it, tear one
//! down whose entries nobody else holds and `munmap` a range holding a swap
//! entry, under THP and without.
//!
//! A step may run with a fault injected: one in four, under
//! `FaultPlan::fail_nth_crossing(k)` for a drawn `k`. A step the injected
//! failure refuses is judged by the model's rule for refusals, written down
//! once ([`Keeps`]): the simulator answers `OutOfMemory` (`SwapIo` for the
//! swap device's failure), and whatever a process can see — every page the
//! step reached, its content, protection, sharing and fork policy, and where
//! every mapping begins and ends — is as it was; a refused fork leaves no
//! child and a parent equal to the model. Of what nobody can see, a refused
//! step keeps only what the rule says it may: the pages a `populate`
//! faulted in, the blocks an operation split on the way. Counted off the
//! fork's `ptes_copied` — the entries it began, in the order its walk begins
//! them — the runs must between them see a refusal inside an eager fork's
//! copy of a private small-page run, at a frame and at an entry; inside a
//! COW fork's run; in a slide; and under THP inside an eager fork's copy of
//! a block.
//!
//! A script's mappings are scattered over [`WINDOWS`]: windows of [`SPAN`]
//! pages that differ in their 2 MiB, 1 GiB and 512 GiB slot, one of them
//! lying across a 1 GiB boundary. The root then holds several entries, one
//! level-2 node holds two, and tearing a mapping down reclaims some
//! intermediate nodes of its path while their siblings stay — which a single
//! window, a chain of one-entry nodes, never asks of the table. The last
//! window starts out empty: room for slides to land in, and for mappings
//! that lie across a node boundary.

// The pages a step reached are a list of ranges, most often of one.
#![allow(clippy::single_range_in_vec_init)]

use fpr_faults::{with_plan, FaultPlan, FaultSite};
use fpr_mem::address_space::ForkMode;
use fpr_mem::cost::{CostModel, Cycles};
use fpr_mem::phys::PhysMemory;
use fpr_mem::tlb::TlbModel;
use fpr_mem::vma::{Prot, Share, VmArea, VmaKind};
use fpr_mem::{AddressSpace, AsStats, ForkPolicy, MemError, Vpn};
use fpr_rng::Rng;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::rc::Rc;

const CASES: u64 = 24;
/// A step runs with a fault injected with odds of one in this.
const FAULT_ODDS: u64 = 4;
/// Four leaf page-table nodes: room for 2 MiB blocks, for nodes lying
/// inside one mapping and for nodes a mapping boundary crosses.
const SPAN: u64 = 2048;
const BLOCK: u64 = 512;
/// First page of each window, as `(512 GiB slot, 1 GiB slot, 2 MiB slot)`:
/// the low corner of the address space; somewhere in the middle of every
/// node of its path; and two blocks either side of a 1 GiB boundary, so
/// that one window hangs from two level-1 nodes.
const WINDOWS: [u64; 4] = [window(0, 0, 0), window(1, 3, 5), window(2, 7, 510), LANDING];
/// The window the first process maps nothing of.
const LANDING: u64 = window(3, 5, 100);
/// The flag of a PTE that maps a 2 MiB block (`PteFlags::HUGE`, which the
/// crate keeps to itself).
const HUGE_BIT: u16 = 1 << 9;
/// The flag of a swap entry (`PteFlags::SWAP`).
const SWAP_BIT: u16 = 1 << 8;
/// The flag of a writable entry (`PteFlags::WRITABLE`).
const WRITABLE_BIT: u16 = 1 << 1;
/// Pages a level-1 node spans (1 GiB), and a level-2 node (512 GiB).
const GIB: u64 = BLOCK * 512;
const L2_SPAN: u64 = GIB * 512;
/// Slots of the swap device: more than a script can fill before it swaps
/// pages back in, unmaps them or exits.
const SWAP_SLOTS: u64 = 4096;
/// The most pages one swap-out is offered.
const SWAP_BATCH: usize = 64;
/// Pages of user space: the lower half of a 48-bit address space.
const USER_END: u64 = 1 << 35;
/// Frames per chunk of `PhysMemory`'s frame table (`TABLE_CHUNK`, which
/// the crate keeps to itself).
const FRAME_CHUNK: u64 = 1024;

const fn window(l3: u64, l2: u64, l1: u64) -> u64 {
    (l3 << 27) | (l2 << 18) | (l1 << 9)
}
const MAX_PROCS: usize = 6;

// ---------------------------------------------------------------- reference

#[derive(Clone)]
struct Page {
    content: Rc<Cell<u64>>,
    prot: Prot,
    share: Share,
    policy: ForkPolicy,
}

#[derive(Clone, Default)]
struct RefSpace {
    pages: BTreeMap<u64, Page>,
    /// Where mappings begin and end: both ends of every range `mmap`,
    /// `munmap`, `mprotect`, `madvise` or `slide` was given and acted on.
    /// A mapping runs from a cut on a mapped page to the next cut.
    cuts: BTreeSet<u64>,
}

type Verdict = Result<Option<u64>, MemError>;

impl RefSpace {
    /// The pages of `[start, start + pages)`, or `NotMapped` at a hole.
    fn all_mapped(&mut self, start: u64, pages: u64) -> Result<Vec<&mut Page>, MemError> {
        let found: Vec<&mut Page> = self.pages.range_mut(start..start + pages).map(|(_, p)| p).collect();
        if found.len() as u64 == pages {
            Ok(found)
        } else {
            Err(MemError::NotMapped)
        }
    }

    /// Cuts at both ends of `[start, start + pages)`.
    fn cut(&mut self, start: u64, pages: u64) {
        self.cuts.extend([start, start + pages]);
    }

    /// Cuts at both ends of `[start, start + pages)` and nowhere inside it:
    /// the range is one mapping, or none.
    fn cut_out(&mut self, start: u64, pages: u64) {
        self.cuts.retain(|&c| c <= start || c >= start + pages);
        self.cut(start, pages);
    }

    /// Length of the mapping that starts at `start`, if one does.
    fn mapping_at(&self, start: u64) -> Option<u64> {
        if !(self.pages.contains_key(&start) && self.cuts.contains(&start)) {
            return None;
        }
        let end = self.cuts.range(start + 1..).next().expect("a mapping ends at a cut");
        Some(end - start)
    }

    /// Where mappings start, ascending.
    fn starts(&self) -> impl Iterator<Item = u64> + '_ {
        self.cuts.iter().copied().filter(|c| self.pages.contains_key(c))
    }

    fn mmap(&mut self, start: u64, pages: u64, prot: Prot, share: Share) -> Verdict {
        if self.pages.range(start..start + pages).next().is_some() {
            return Err(MemError::Overlap);
        }
        self.cut_out(start, pages);
        for vpn in start..start + pages {
            let page = Page {
                content: Rc::new(Cell::new(0)),
                prot,
                share,
                policy: ForkPolicy::default(),
            };
            self.pages.insert(vpn, page);
        }
        Ok(None)
    }

    fn munmap(&mut self, start: u64, pages: u64) -> Verdict {
        self.pages.retain(|vpn, _| !(start..start + pages).contains(vpn));
        self.cut_out(start, pages);
        Ok(None)
    }

    fn mprotect(&mut self, start: u64, pages: u64, prot: Prot) -> Verdict {
        self.all_mapped(start, pages)?.into_iter().for_each(|p| p.prot = prot);
        self.cut(start, pages);
        Ok(None)
    }

    /// Moves the mapping that starts at `from` to `to`.
    fn slide(&mut self, from: u64, to: u64) -> Verdict {
        if from == to {
            return Ok(None);
        }
        let pages = self.mapping_at(from).ok_or(MemError::NotMapped)?;
        if to + pages > USER_END {
            return Err(MemError::BadAddress);
        }
        if self.pages.range(to..to + pages).next().is_some() {
            return Err(MemError::Overlap);
        }
        for i in 0..pages {
            let page = self.pages.remove(&(from + i)).expect("a mapping has no holes");
            self.pages.insert(to + i, page);
        }
        self.cut_out(to, pages);
        Ok(None)
    }

    fn madvise(&mut self, start: u64, pages: u64, wipe: bool) -> Verdict {
        for p in self.all_mapped(start, pages)? {
            if wipe {
                p.policy.wipe_on_fork = true;
            } else {
                p.policy.dont_fork = true;
            }
        }
        self.cut(start, pages);
        Ok(None)
    }

    /// Pre-faulting changes nothing a process can see.
    fn populate(&mut self, start: u64, pages: u64) -> Verdict {
        self.all_mapped(start, pages).map(|_| None)
    }

    fn write(&mut self, vpn: u64, val: u64) -> Verdict {
        let page = self.pages.get(&vpn).ok_or(MemError::NotMapped)?;
        if !page.prot.write {
            return Err(MemError::Protection);
        }
        page.content.set(val);
        Ok(None)
    }

    fn read(&self, vpn: u64) -> Verdict {
        let page = self.pages.get(&vpn).ok_or(MemError::NotMapped)?;
        if !page.prot.read {
            return Err(MemError::Protection);
        }
        Ok(Some(page.content.get()))
    }

    /// `fork(2)`, by value.
    fn fork(&self) -> RefSpace {
        let inherit = |page: &Page| {
            let content = match page.share {
                _ if page.policy.wipe_on_fork => Rc::new(Cell::new(0)),
                Share::Private => Rc::new(Cell::new(page.content.get())),
                Share::Shared => Rc::clone(&page.content),
            };
            Page { content, ..page.clone() }
        };
        let pages = self.pages.iter().filter(|(_, p)| !p.policy.dont_fork);
        RefSpace { pages: pages.map(|(&vpn, p)| (vpn, inherit(p))).collect(), cuts: self.cuts.clone() }
    }
}

/// The error a step refused by a failure injected at `site` answers with.
fn refused_with(site: FaultSite) -> MemError {
    match site {
        FaultSite::SwapIn => MemError::SwapIo,
        _ => MemError::OutOfMemory,
    }
}

/// Of what no process can see, what a refused step may leave changed: the
/// one way the simulator is meant to be partial. Everything a process can
/// see is as it was after any refusal.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Keeps {
    /// Nothing: the pages resident, swapped out and in 2 MiB blocks are as
    /// they were.
    Nothing,
    /// The blocks it split on the way stay split.
    Splits,
    /// The pages it faulted in before the failure — swapped back in, or
    /// mapped as whole blocks — stay resident.
    FaultedIn,
}

/// The model's rule for a refused step, as data.
fn keeps(op: &Op) -> Keeps {
    match op {
        Op::Populate { .. } => Keeps::FaultedIn,
        // A block the range cuts, one a fork-policy range cuts (fork), one
        // whose alignment the slide would break, one a write breaks
        // copy-on-write in: split before anything can fail.
        Op::Munmap { .. } | Op::Mprotect { .. } | Op::Slide { .. } | Op::Fork { .. } | Op::Write { .. } => Keeps::Splits,
        Op::Mmap { .. } | Op::Madvise { .. } | Op::Read { .. } | Op::SwapOut { .. } | Op::Exit => Keeps::Nothing,
    }
}

/// What a refusal may change of a space without a process seeing it.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    resident: u64,
    swapped: u64,
    huge: u64,
}

impl Footprint {
    fn of(sim: &AddressSpace) -> Footprint {
        Footprint { resident: sim.resident_pages(), swapped: sim.swapped_pages(), huge: sim.huge_pages() }
    }
}

impl Keeps {
    /// Asserts that a refused step changed no more of `before` than this.
    fn judge(self, before: Footprint, after: Footprint, ctx: &str) {
        let (b, a) = (before, after);
        let kept = match self {
            Keeps::Nothing => (a.resident, a.swapped, a.huge) == (b.resident, b.swapped, b.huge),
            Keeps::Splits => (a.resident, a.swapped) == (b.resident, b.swapped) && a.huge <= b.huge,
            Keeps::FaultedIn => a.resident >= b.resident && a.swapped <= b.swapped && a.huge >= b.huge,
        };
        assert!(kept, "{ctx}: refused, it may keep {self:?}, but went from {before:?} to {after:?}");
    }
}

// ------------------------------------------------------------------- script

#[derive(Debug, Clone)]
enum Op {
    Mmap { start: u64, pages: u64, share: Share },
    Munmap { start: u64, pages: u64 },
    Mprotect { start: u64, pages: u64, prot: Prot },
    Madvise { start: u64, pages: u64, wipe: bool },
    Populate { start: u64, pages: u64 },
    Write { vpn: u64, val: u64 },
    Read { vpn: u64 },
    /// Slide the mapping `from` picks out to `to`, or — `keep_alignment` —
    /// to the page of `to`'s 2 MiB block that the mapping starts at in its
    /// own.
    Slide { from: Pick, to: u64, keep_alignment: bool },
    /// Swap out each page `swap_out_candidates` offers with even odds,
    /// drawn from `seed`.
    SwapOut { seed: u64 },
    Fork { mode: ForkMode },
    Exit,
}

/// Which mapping to slide. The script is written before it runs, so it
/// names a mapping by its rank among the reference's, not by an address.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// The start of the `n`-th mapping, counting round.
    Mapping(u64),
    /// This page, whatever is there: most often not the start of anything.
    Page(u64),
}

const MODES: [ForkMode; 3] = [ForkMode::Cow, ForkMode::OnDemand, ForkMode::Eager];

/// A page of a window, as its offset: usually within a few pages of a 2 MiB
/// boundary. A script is only a test if its writes, reads, protection
/// changes and fork policies keep landing on the same pages, and the
/// boundaries are where leaf nodes, mappings and huge blocks begin and end.
fn gen_offset(rng: &mut Rng) -> u64 {
    if rng.gen_bool(0.75) {
        let near = rng.gen_below(SPAN / BLOCK) * BLOCK + rng.gen_below(24);
        near.saturating_sub(8)
    } else {
        rng.gen_below(SPAN)
    }
}

fn gen_window(rng: &mut Rng) -> u64 {
    WINDOWS[rng.gen_index(WINDOWS.len())]
}

fn gen_vpn(rng: &mut Rng) -> u64 {
    gen_window(rng) + gen_offset(rng)
}

/// A range inside one window: whole 2 MiB blocks (so that mappings cover
/// leaf nodes completely and THP has something to promote), or a few pages.
fn gen_range(rng: &mut Rng) -> (u64, u64) {
    let base = gen_window(rng);
    if rng.gen_bool(0.3) {
        let start = rng.gen_below(SPAN / BLOCK) * BLOCK;
        (base + start, rng.gen_range(1, (SPAN - start) / BLOCK + 1) * BLOCK)
    } else {
        let start = gen_offset(rng);
        (base + start, rng.gen_range(1, 25.min(SPAN - start + 1)))
    }
}

fn gen_share(rng: &mut Rng) -> Share {
    if rng.gen_bool(0.25) {
        Share::Shared
    } else {
        Share::Private
    }
}

/// The first process maps most of every window, block by block, and
/// pre-faults some of it, so that what follows lands on mapped — and, with
/// THP, huge — memory more often than on holes. A window in four it maps
/// and pre-faults whole, so that with THP every block of it is huge and an
/// on-demand fork gathers its level-1 table into a huge directory.
fn gen_prologue(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    for &w in WINDOWS.iter().filter(|&&w| w != LANDING) {
        let whole = rng.gen_bool(0.25);
        for start in (0..SPAN / BLOCK).map(|b| w + b * BLOCK) {
            let pages = if whole { BLOCK } else { BLOCK - rng.gen_below(2) * rng.gen_below(64) };
            if whole || rng.gen_bool(0.85) {
                ops.push(Op::Mmap { start, pages, share: gen_share(rng) });
            }
            if whole || rng.gen_bool(0.6) {
                ops.push(Op::Populate { start, pages });
            }
        }
    }
    ops
}

fn gen_op(rng: &mut Rng) -> Op {
    let (start, pages) = gen_range(rng);
    let few = pages.min(24);
    let prot = [Prot::RW, Prot::RW, Prot::R, Prot::NONE][rng.gen_index(4)];
    match rng.gen_below(29) {
        27..=28 => Op::SwapOut { seed: rng.gen_u64() },
        24..=26 => {
            let from = if rng.gen_bool(0.9) { Pick::Mapping(rng.gen_u64()) } else { Pick::Page(gen_vpn(rng)) };
            // Half of them into the window that began empty, a few off the
            // end of user space.
            let to = match rng.gen_below(16) {
                0 => USER_END - rng.gen_below(32),
                1..=8 => LANDING + gen_offset(rng),
                _ => gen_vpn(rng),
            };
            Op::Slide { from, to, keep_alignment: rng.gen_bool(0.5) }
        }
        0 => Op::Mmap { start, pages, share: gen_share(rng) },
        // Whole blocks now and then: the unmap that empties leaf nodes, and
        // with them the intermediate nodes that held nothing else.
        1..=2 => Op::Munmap { start, pages: if rng.gen_bool(0.3) { pages } else { few } },
        3..=5 => Op::Mprotect { start, pages: few, prot },
        6..=7 => Op::Madvise { start, pages: few, wipe: rng.gen_bool(0.5) },
        8 => Op::Populate { start, pages },
        9..=14 => Op::Write { vpn: gen_vpn(rng), val: rng.gen_u64() | 1 },
        15..=20 => Op::Read { vpn: gen_vpn(rng) },
        21..=22 => Op::Fork { mode: MODES[rng.gen_index(3)] },
        _ => Op::Exit,
    }
}

struct World {
    phys: PhysMemory,
    cycles: Cycles,
    tlb: TlbModel,
    procs: Vec<(AddressSpace, RefSpace)>,
    seen: Seen,
}

/// What a script has to have done for its agreement to mean something.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    /// PTEs on-demand forks copied one by one, for nodes they could not
    /// share whole.
    fallback_copies: u64,
    /// Slides that moved pages of a mapping lying across two leaf nodes by
    /// a distance that is no multiple of a node.
    slid_across_nodes: u64,
    /// Slides out of a node a fork still shared.
    slid_shared_node: u64,
    /// Slides of a huge block by a multiple of its size, and by any other
    /// distance.
    slid_block_aligned: u64,
    slid_block_unaligned: u64,
    /// Small-page leaf nodes a fork or a teardown went over, read off the
    /// PTEs: one with neighbouring pages on consecutive frames across a
    /// multiple of [`FRAME_CHUNK`], and one with neighbouring pages on
    /// frames that are not consecutive.
    leaves_across_chunk: u64,
    leaves_scattered: u64,
    /// Leaf nodes holding swap entries that a fork copied into the child,
    /// that a touch of a swap entry in them unshared, that a teardown went
    /// over as their last holder; and `munmap`s of a range holding a swap
    /// entry.
    forks_copying_swap: u64,
    unshares_over_swap: u64,
    teardowns_over_swap: u64,
    munmaps_over_swap: u64,
    /// Steps an injected failure refused; and of them, eager forks refused
    /// copying a private small-page run, at a frame and at an entry; COW
    /// forks refused inside a run; slides; and eager forks refused copying
    /// a block.
    refused: u64,
    eager_run_frames_refused: u64,
    eager_run_entries_refused: u64,
    cow_runs_refused: u64,
    slides_refused: u64,
    eager_blocks_refused: u64,
    /// Forks held to the count rule; and of them, forks whose walk met a
    /// huge directory, and forks of a parent holding a block that more than
    /// one mapping covers.
    forks_counted: u64,
    forks_over_directories: u64,
    forks_demoting_blocks: u64,
}

impl std::ops::AddAssign for Seen {
    fn add_assign(&mut self, o: Seen) {
        self.fallback_copies += o.fallback_copies;
        self.slid_across_nodes += o.slid_across_nodes;
        self.slid_shared_node += o.slid_shared_node;
        self.slid_block_aligned += o.slid_block_aligned;
        self.slid_block_unaligned += o.slid_block_unaligned;
        self.leaves_across_chunk += o.leaves_across_chunk;
        self.leaves_scattered += o.leaves_scattered;
        self.forks_copying_swap += o.forks_copying_swap;
        self.unshares_over_swap += o.unshares_over_swap;
        self.teardowns_over_swap += o.teardowns_over_swap;
        self.munmaps_over_swap += o.munmaps_over_swap;
        self.refused += o.refused;
        self.eager_run_frames_refused += o.eager_run_frames_refused;
        self.eager_run_entries_refused += o.eager_run_entries_refused;
        self.cow_runs_refused += o.cow_runs_refused;
        self.slides_refused += o.slides_refused;
        self.eager_blocks_refused += o.eager_blocks_refused;
        self.forks_counted += o.forks_counted;
        self.forks_over_directories += o.forks_over_directories;
        self.forks_demoting_blocks += o.forks_demoting_blocks;
    }
}

/// The `n`-th entry (from 1) a fork of `sim` begins, as `(is a block, the
/// sharing of its mapping)`; `None` for none. The walk goes up the entries
/// of the mappings a child inherits — neither `DONTFORK` nor `WIPEONFORK` —
/// and begins each, a 2 MiB block as one, before it crosses a fault site
/// for it: `ptes_copied` counts them, so after a refused fork it names the
/// entry the walk was at.
fn nth_begun(sim: &AddressSpace, n: u64) -> Option<(bool, Share)> {
    let inherited = sim.vmas().filter(|v| !v.fork_policy.dont_fork && !v.fork_policy.wipe_on_fork);
    let mut entries = inherited.flat_map(|v| {
        (v.start.0..v.end().0).filter_map(move |vpn| {
            let block = sim.translate(Vpn(vpn))?.flags.0 & HUGE_BIT != 0;
            (!block || vpn % BLOCK == 0).then_some((block, v.share))
        })
    });
    entries.nth(n.checked_sub(1)? as usize)
}

/// The leaf nodes of `sim` that hold a swap entry, by identity.
fn swap_nodes(sim: &AddressSpace) -> BTreeSet<usize> {
    let mut nodes = BTreeSet::new();
    sim.for_each_swap_entry_keyed(|id, _, _| {
        nodes.insert(id);
    });
    nodes
}

/// Whether `vpn` of `sim` is a swap entry.
fn swapped(sim: &AddressSpace, vpn: u64) -> bool {
    sim.translate(Vpn(vpn)).is_some_and(|pte| pte.flags.0 & SWAP_BIT != 0)
}

// --------------------------------------------------------------- count rule

/// What a fork's walk counts: the `AsStats` deltas it makes on the parent,
/// the child's page-table nodes, and the parent entries it write-protects.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ForkCounts {
    vmas_cloned: u64,
    ptes_copied: u64,
    pt_subtrees_shared: u64,
    pages_eager_copied: u64,
    child_nodes: u64,
    write_protected: u64,
}

/// One entry of a parent before its fork, as `translate` shows it — a
/// 2 MiB block as one, at its first page — with what the mapping holding
/// that page says of it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    vpn: u64,
    present: bool,
    writable: bool,
    huge: bool,
    private: bool,
    /// The child inherits it: its mapping is neither `DONTFORK` nor
    /// `WIPEONFORK`.
    inherited: bool,
}

/// What the count rule reads of a parent before it forks: its mappings,
/// its entries, ascending, and the GiB regions it holds as huge
/// directories.
struct ForkRule {
    /// Per mapping: where it starts and ends, its sharing and fork policy.
    vmas: Vec<(u64, u64, Share, ForkPolicy)>,
    entries: Vec<Entry>,
    dirs: BTreeSet<u64>,
}

impl ForkRule {
    fn of(sim: &mut AddressSpace) -> ForkRule {
        let vmas: Vec<_> = sim.vmas().map(|v| (v.start.0, v.end().0, v.share, v.fork_policy)).collect();
        let mut rule = ForkRule { vmas, entries: Vec::new(), dirs: BTreeSet::new() };
        let mut entries = Vec::new();
        sim.for_each_resident(|vpn, pte| {
            let (writable, huge) = (pte.flags.0 & WRITABLE_BIT != 0, pte.flags.0 & HUGE_BIT != 0);
            if !huge || vpn.0 % BLOCK == 0 {
                entries.push(rule.entry(vpn.0, true, writable, huge));
            }
        });
        sim.for_each_swap_entry_keyed(|_, vpn, _| entries.push(rule.entry(vpn.0, false, false, false)));
        entries.sort_by_key(|e| e.vpn);
        rule.entries = entries;
        if sim.huge_pages() > 0 {
            // A lone block is never shared, and every leaf node of a table
            // is shared with an alias of it: in the alias, a block in a
            // shared slot is a directory's.
            let copy = sim.alias();
            let blocks = copy.leaf_slots().filter(|slot| slot.shared().is_some()).filter_map(|slot| slot.spans().next());
            let huge = |vpn: u64| sim.translate(Vpn(vpn)).is_some_and(|pte| pte.flags.0 & HUGE_BIT != 0);
            rule.dirs = blocks.filter(|span| huge(span.start.0)).map(|span| span.start.0 / GIB).collect();
        }
        rule
    }

    /// The entry at `vpn`, with what its mapping says of it.
    fn entry(&self, vpn: u64, present: bool, writable: bool, huge: bool) -> Entry {
        let at = self.vmas.partition_point(|v| v.1 <= vpn);
        let &(_, _, share, policy) = self.vmas.get(at).filter(|v| v.0 <= vpn).expect("an entry lies in a mapping");
        let (private, inherited) = (share == Share::Private, !policy.dont_fork && !policy.wipe_on_fork);
        Entry { vpn, present, writable, huge, private, inherited }
    }

    /// The first pages of the blocks that more than one mapping covers.
    fn mixed_blocks(&self) -> Vec<u64> {
        let whole = |b: u64| self.vmas.iter().any(|v| v.0 <= b && b + BLOCK <= v.1);
        self.entries.iter().filter(|e| e.huge && !whole(e.vpn)).map(|e| e.vpn).collect()
    }

    /// The counts a fork in `mode` must make, and the huge directories its
    /// walk meets. `split(block)` says whether an eager fork copied the
    /// block at page `block` into small pages, which it does only when the
    /// buddy has no free 2 MiB run: the one thing the rule takes from the
    /// outcome.
    fn counts(&self, mode: ForkMode, split: impl Fn(u64) -> bool) -> (ForkCounts, usize) {
        let (eager, on_demand) = (mode == ForkMode::Eager, mode == ForkMode::OnDemand);
        let cloned = self.vmas.iter().filter(|v| !v.3.dont_fork).count();
        let mut c = ForkCounts { vmas_cloned: cloned as u64, ..ForkCounts::default() };
        // A block that more than one mapping covers is demoted before the
        // walk, which takes apart the directory it is in.
        let (mixed, mut dirs) = (self.mixed_blocks(), self.dirs.clone());
        let mut entries = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            match e.huge && mixed.contains(&e.vpn) {
                true => entries.extend((e.vpn..e.vpn + BLOCK).map(|v| self.entry(v, true, e.writable, false))),
                false => entries.push(*e),
            }
        }
        mixed.iter().for_each(|b| _ = dirs.remove(&(b / GIB)));
        // The slots the walk goes over: a 2 MiB region's entries, small
        // ones or a block; a GiB region's slots, or one directory of blocks.
        let regions: Vec<&[Entry]> = entries.chunk_by(|a, b| a.vpn / BLOCK == b.vpn / BLOCK).collect();
        let gibs: Vec<&[&[Entry]]> = regions.chunk_by(|a, b| a[0].vpn / GIB == b[0].vpn / GIB).collect();
        if on_demand {
            // An on-demand fork first gathers every level-1 table of two or
            // more entries, all blocks, into a directory.
            dirs.extend(gibs.iter().filter(|g| g.len() >= 2 && g.iter().all(|r| r[0].huge)).map(|g| g[0][0].vpn / GIB));
        }
        // What the child's table holds: small-page nodes and lone blocks by
        // 2 MiB region, directories by GiB region.
        let (mut leaves, mut lone, mut child_dirs) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        for g in gibs {
            let dir = dirs.contains(&(g[0][0].vpn / GIB));
            let slots: Vec<Vec<Entry>> = match dir {
                true => vec![g.concat()],
                false => g.iter().map(|r| r.to_vec()).collect(),
            };
            for slot in slots {
                let attach = on_demand && (dir || !slot[0].huge) && slot.iter().all(|e| e.inherited);
                for e in slot.iter().filter(|e| e.inherited) {
                    c.write_protected += u64::from(e.private && !eager && e.writable);
                    if attach {
                        continue;
                    }
                    c.ptes_copied += 1;
                    let pages = if e.huge { BLOCK } else { 1 };
                    c.pages_eager_copied += if eager && e.private && e.present { pages } else { 0 };
                    let small = !e.huge || (eager && e.private && split(e.vpn));
                    _ = if small { leaves.insert(e.vpn / BLOCK) } else { lone.insert(e.vpn / BLOCK) };
                }
                if attach {
                    c.pt_subtrees_shared += 1;
                    _ = if dir { child_dirs.insert(slot[0].vpn / GIB) } else { leaves.insert(slot[0].vpn / BLOCK) };
                }
            }
        }
        // A root; a level-2 node per 512 GiB, a level-1 node or a directory
        // per GiB, and a node per small-page region the child holds.
        let pages = leaves.iter().chain(&lone).map(|r| r * BLOCK).chain(child_dirs.iter().map(|g| g * GIB));
        let (l2, gib): (BTreeSet<u64>, BTreeSet<u64>) = (pages.clone().map(|v| v / L2_SPAN).collect(), pages.map(|v| v / GIB).collect());
        c.child_nodes = 1 + (l2.len() + gib.len() + leaves.len()) as u64;
        (c, dirs.len())
    }

    /// The parent entries a fork write-protected: writable before it and
    /// not after, a block's counted once.
    fn write_protected(&self, sim: &AddressSpace) -> u64 {
        let mut lost = 0;
        sim.for_each_resident(|vpn, pte| {
            let (now_writable, huge) = (pte.flags.0 & WRITABLE_BIT != 0, pte.flags.0 & HUGE_BIT != 0);
            if now_writable || (huge && vpn.0 % BLOCK != 0) {
                return;
            }
            // A page of a block the fork demoted was its block's entry.
            let at = |v: u64| self.entries.binary_search_by_key(&v, |e| e.vpn).ok().map(|i| self.entries[i]);
            let was = at(vpn.0).or_else(|| at(vpn.0 - vpn.0 % BLOCK).filter(|e| e.huge));
            lost += u64::from(was.is_some_and(|e| e.writable));
        });
        lost
    }
}

/// What a fork of `parent` into `child` counted, `before` being the
/// parent's stats before it.
fn fork_counts(rule: &ForkRule, before: &AsStats, parent: &AddressSpace, child: &AddressSpace) -> ForkCounts {
    let after = &parent.stats;
    ForkCounts {
        vmas_cloned: after.vmas_cloned - before.vmas_cloned,
        ptes_copied: after.ptes_copied - before.ptes_copied,
        pt_subtrees_shared: after.pt_subtrees_shared - before.pt_subtrees_shared,
        pages_eager_copied: after.pages_eager_copied - before.pages_eager_copied,
        child_nodes: child.pt_nodes() as u64,
        write_protected: rule.write_protected(parent),
    }
}

impl Seen {
    /// Counts the kinds of small-page leaf node `sim` holds, which a fork or
    /// a teardown is about to take or drop the references of.
    fn leaves_of(&mut self, sim: &AddressSpace) {
        // Per leaf node: (neighbours across a chunk, scattered neighbours).
        let mut leaves: BTreeMap<u64, (bool, bool)> = BTreeMap::new();
        let mut before: Option<(u64, u64)> = None;
        sim.for_each_resident(|vpn, pte| {
            if pte.flags.0 & HUGE_BIT != 0 {
                return;
            }
            let (vpn, pfn) = (vpn.0, pte.pfn.0);
            if let Some((v, p)) = before.filter(|&(v, _)| v + 1 == vpn && v / BLOCK == vpn / BLOCK) {
                let kind = leaves.entry(v / BLOCK).or_default();
                kind.0 |= pfn == p + 1 && pfn % FRAME_CHUNK == 0;
                kind.1 |= pfn != p + 1;
            }
            before = Some((vpn, pfn));
        });
        self.leaves_across_chunk += leaves.values().filter(|k| k.0).count() as u64;
        self.leaves_scattered += leaves.values().filter(|k| k.1).count() as u64;
    }

    /// Counts the leaf nodes holding swap entries that tearing `sim` down
    /// releases: the ones no process of `others` holds too.
    fn teardown_of(&mut self, sim: &AddressSpace, others: &[(AddressSpace, RefSpace)]) {
        let held: BTreeSet<usize> = others.iter().flat_map(|(o, _)| swap_nodes(o)).collect();
        self.teardowns_over_swap += swap_nodes(sim).difference(&held).count() as u64;
    }

    /// Counts where a fork of `sim` in `mode` was refused: at a crossing of
    /// `site`, after beginning `begun` entries. Only an eager copy crosses
    /// for frames, a block's after the block is begun and before any later
    /// entry is — so a frame refused when the last entry begun is no block
    /// was a run's. An entry is crossed for once it is begun.
    fn refused_fork(&mut self, sim: &AddressSpace, mode: ForkMode, site: FaultSite, begun: u64) {
        let last = nth_begun(sim, begun);
        let counter = match (mode, site, last) {
            (ForkMode::Eager, FaultSite::FrameAlloc, None | Some((false, _))) => &mut self.eager_run_frames_refused,
            (ForkMode::Eager, FaultSite::PtNodeAlloc, Some((false, Share::Private))) => &mut self.eager_run_entries_refused,
            (ForkMode::Eager, FaultSite::PtNodeAlloc, Some((true, Share::Private))) => &mut self.eager_blocks_refused,
            (ForkMode::Cow, FaultSite::PtNodeAlloc, Some((false, _))) => &mut self.cow_runs_refused,
            _ => return,
        };
        *counter += 1;
    }
}

impl World {
    fn new(thp: bool) -> World {
        let mut root = AddressSpace::new();
        root.set_thp(thp);
        // Room for MAX_PROCS eager copies of every window.
        let mut phys = PhysMemory::new(2 * (MAX_PROCS * WINDOWS.len()) as u64 * SPAN, CostModel::default());
        phys.set_swap_capacity(SWAP_SLOTS);
        World {
            phys,
            cycles: Cycles::new(),
            tlb: TlbModel::new(),
            procs: vec![(root, RefSpace::default())],
            seen: Seen::default(),
        }
    }

    /// Runs `op` in process `who` of both models — the simulator's half
    /// with `fault` injected, if the step has one — and says what each did.
    fn apply(&mut self, who: usize, op: &Op, fault: Option<u64>, ctx: &str) -> Step {
        let World { phys, cycles, tlb, procs, seen } = self;
        let live = procs.len();
        let (sim, model) = &mut procs[who];
        match *op {
            Op::Mmap { start, pages, share } => {
                let mut area = VmArea::anon(Vpn(start), pages, Prot::RW, VmaKind::Mmap);
                area.share = share;
                let (r, refused) = under(fault, op, sim, ctx, |sim| sim.mmap(area, phys, cycles));
                Step::judged(r.map(|()| None), refused, vec![start..start + pages], || model.mmap(start, pages, Prot::RW, share))
            }
            Op::Munmap { start, pages } => {
                seen.munmaps_over_swap += (start..start + pages).any(|vpn| swapped(sim, vpn)) as u64;
                let (r, refused) = under(fault, op, sim, ctx, |sim| sim.munmap(Vpn(start), pages, phys, cycles, tlb, 1));
                Step::judged(r.map(|_| None), refused, vec![start..start + pages], || model.munmap(start, pages))
            }
            Op::Mprotect { start, pages, prot } => {
                let (r, refused) = under(fault, op, sim, ctx, |sim| sim.mprotect(Vpn(start), pages, prot, cycles, phys, tlb, 1));
                Step::judged(r.map(|()| None), refused, vec![start..start + pages], || model.mprotect(start, pages, prot))
            }
            Op::Madvise { start, pages, wipe } => {
                let policy = |p: &mut ForkPolicy| {
                    if wipe {
                        p.wipe_on_fork = true;
                    } else {
                        p.dont_fork = true;
                    }
                };
                let (r, refused) = under(fault, op, sim, ctx, |sim| sim.set_fork_policy(Vpn(start), pages, policy));
                Step::judged(r.map(|()| None), refused, vec![start..start + pages], || model.madvise(start, pages, wipe))
            }
            Op::Populate { start, pages } => {
                let (r, refused) = under(fault, op, sim, ctx, |sim| sim.populate(Vpn(start), pages, phys, cycles));
                Step::judged(r.map(|()| None), refused, vec![start..start + pages], || model.populate(start, pages))
            }
            Op::Write { vpn, val } => {
                let (swap, unshares) = (swapped(sim, vpn), sim.stats.pt_unshares);
                let (r, refused) = under(fault, op, sim, ctx, |sim| sim.write(Vpn(vpn), val, phys, cycles, tlb, 1));
                // The node the touch unshared is the one holding the entry.
                seen.unshares_over_swap += (swap && sim.stats.pt_unshares > unshares) as u64;
                Step::judged(r.map(|_| None), refused, vec![vpn..vpn + 1], || model.write(vpn, val))
            }
            Op::Read { vpn } => {
                let (swap, unshares) = (swapped(sim, vpn), sim.stats.pt_unshares);
                let (r, refused) = under(fault, op, sim, ctx, |sim| sim.read(Vpn(vpn), phys, cycles));
                seen.unshares_over_swap += (swap && sim.stats.pt_unshares > unshares) as u64;
                Step::judged(r.map(|(v, _)| Some(v)), refused, vec![vpn..vpn + 1], || model.read(vpn))
            }
            Op::SwapOut { seed } => {
                let mut pick = Rng::seed_from_u64(seed);
                for vpn in sim.swap_out_candidates(phys, SWAP_BATCH) {
                    if !pick.gen_bool(0.5) {
                        continue;
                    }
                    let stamp = sim.observe(vpn, phys).expect("a candidate is resident");
                    // A full device takes no more.
                    let Ok(slot) = phys.swap_out_page(stamp, cycles) else { break };
                    sim.swap_out_commit(vpn, slot, phys, cycles);
                }
                Step::judged(Ok(None), None, Vec::new(), || Ok(None))
            }
            Op::Slide { from, to, keep_alignment } => {
                let from = match from {
                    Pick::Page(vpn) => vpn,
                    Pick::Mapping(n) => {
                        let starts: Vec<u64> = model.starts().collect();
                        // Nothing mapped: any page will do for a `NotMapped`.
                        starts.get((n % starts.len().max(1) as u64) as usize).copied().unwrap_or(to + 1)
                    }
                };
                let to = if keep_alignment { to - to % BLOCK + from % BLOCK } else { to };
                let pages = model.mapping_at(from).unwrap_or(0);
                let last = from + pages.saturating_sub(1);
                // Pages nobody wrote read the same wherever they are: the
                // mapping's last page is written first.
                let written = (sim.write(Vpn(last), to | 1, phys, cycles, tlb, 1).map(|_| None), model.write(last, to | 1));
                assert_eq!(written.0, written.1, "{ctx}: the write before the slide");
                let holds_block = (from..from + pages).any(|v| sim.translate(Vpn(v)).is_some_and(|p| p.flags.0 & HUGE_BIT != 0));
                let (resident, unshares) = (sim.resident_pages(), sim.stats.pt_unshares);
                let (r, refused) = under(fault, op, sim, ctx, |sim| sim.slide_vma(Vpn(from), Vpn(to), phys, cycles));
                assert_eq!(sim.resident_pages(), resident, "{ctx}: a slide changed what is resident");
                if let Ok(moved) = r {
                    assert!(moved <= pages, "{ctx}: moved {moved} entries of a {pages}-page mapping");
                    let aligned = to.abs_diff(from) % BLOCK == 0;
                    seen.slid_across_nodes += (moved > 0 && from / BLOCK != last / BLOCK && !aligned) as u64;
                    seen.slid_shared_node += (sim.stats.pt_unshares > unshares) as u64;
                    seen.slid_block_aligned += (holds_block && aligned) as u64;
                    seen.slid_block_unaligned += (holds_block && !aligned) as u64;
                }
                seen.slides_refused += refused.is_some() as u64;
                let reach = vec![from..from + pages, to..to.saturating_add(pages).min(USER_END)];
                Step::judged(r.map(|_| None), refused, reach, || model.slide(from, to))
            }
            Op::Fork { mode } if live < MAX_PROCS => {
                seen.leaves_of(sim);
                let (copied_before, stats_before, rule) = (sim.stats.ptes_copied, sim.stats.clone(), ForkRule::of(sim));
                let (forked, refused) = under(fault, op, sim, ctx, |sim| AddressSpace::fork_from(sim, mode, phys, cycles, tlb, 1));
                if let Some(site) = refused {
                    seen.refused_fork(sim, mode, site, sim.stats.ptes_copied - copied_before);
                    let everything = WINDOWS.iter().map(|&w| w..w + SPAN).collect();
                    return Step::judged(forked.map(|_| unreachable!("refused")), refused, everything, || unreachable!());
                }
                let child = forked.unwrap_or_else(|e| panic!("{ctx}: fork failed on a roomy machine: {e}"));
                let split = |b: u64| child.translate(Vpn(b)).is_some_and(|pte| pte.flags.0 & HUGE_BIT == 0);
                let (rule_says, dirs) = rule.counts(mode, split);
                let counted = fork_counts(&rule, &stats_before, sim, &child);
                assert_eq!(counted, rule_says, "{ctx}: the fork counted (left) what the rule (right) does not");
                seen.forks_counted += 1;
                seen.forks_over_directories += u64::from(dirs > 0);
                seen.forks_demoting_blocks += u64::from(!rule.mixed_blocks().is_empty());
                if mode == ForkMode::OnDemand {
                    seen.fallback_copies += sim.stats.ptes_copied - copied_before;
                }
                seen.forks_copying_swap += swap_nodes(&child).difference(&swap_nodes(sim)).count() as u64;
                let child = (child, model.fork());
                // The mapped set of both sides, page by page.
                check(&procs[who], phys, ctx);
                check(&child, phys, ctx);
                procs.push(child);
                Step::judged(Ok(None), None, Vec::new(), || Ok(None))
            }
            Op::Exit if live > 1 => {
                let (mut sim, _) = procs.swap_remove(who);
                seen.leaves_of(&sim);
                seen.teardown_of(&sim, procs);
                sim.destroy(phys, cycles);
                Step::judged(Ok(None), None, Vec::new(), || Ok(None))
            }
            Op::Fork { .. } | Op::Exit => Step::judged(Ok(None), None, Vec::new(), || Ok(None)),
        }
    }
}

/// Runs the simulator's half of `op` on `sim` — `act` — under a plan that
/// fails crossing `fault`, if the step has one: its result, and the site of
/// the injected failure if it refused the step, having judged by [`keeps`]
/// what the refusal left of what no process sees. A failure the step
/// absorbed — a promotion, which falls back to small pages — refuses
/// nothing.
fn under<T>(
    fault: Option<u64>,
    op: &Op,
    sim: &mut AddressSpace,
    ctx: &str,
    act: impl FnOnce(&mut AddressSpace) -> Result<T, MemError>,
) -> (Result<T, MemError>, Option<FaultSite>) {
    let Some(k) = fault else { return (act(sim), None) };
    let before = Footprint::of(sim);
    let (r, trace) = with_plan(FaultPlan::passive().fail_nth_crossing(k), || act(sim));
    let refused = trace.injected().first().map(|c| c.site).filter(|_| r.is_err());
    if refused.is_some() {
        keeps(op).judge(before, Footprint::of(sim), ctx);
    }
    (r, refused)
}

/// What a step did in both models.
struct Step {
    sim: Verdict,
    model: Verdict,
    /// For a step the simulator refused, the pages it reached: what the
    /// refusal must have left as it was.
    refused: Option<Vec<Range<u64>>>,
}

impl Step {
    /// The model acts on a step the simulator did not refuse; one it did, the
    /// model answers as the rule says and leaves as it was.
    fn judged(sim: Verdict, refused: Option<FaultSite>, reach: Vec<Range<u64>>, model: impl FnOnce() -> Verdict) -> Step {
        match refused {
            Some(site) => Step { sim, model: Err(refused_with(site)), refused: Some(reach) },
            None => Step { sim, model: model(), refused: None },
        }
    }
}

/// The pages of `pages` are mapped in both models or in neither, with the
/// same content.
fn agree_on((sim, model): &(AddressSpace, RefSpace), phys: &PhysMemory, pages: impl Iterator<Item = u64>, ctx: &str) {
    for vpn in pages {
        let seen = sim.observe(Vpn(vpn), phys).ok();
        let expected = model.pages.get(&vpn).map(|p| p.content.get());
        assert_eq!(seen, expected, "{ctx}: page {vpn} diverged (simulator left, reference right)");
    }
}

/// Every mapping — where it starts, its length, protection, sharing and
/// fork policy — is the same in both models.
fn layout_agrees((sim, model): &(AddressSpace, RefSpace), ctx: &str) {
    let sim_maps: Vec<_> = sim.vmas().map(|v| (v.start.0, v.pages, v.prot, v.share, v.fork_policy)).collect();
    let model_maps: Vec<_> = model
        .starts()
        .map(|start| {
            let p = &model.pages[&start];
            (start, model.mapping_at(start).expect("a start"), p.prot, p.share, p.policy)
        })
        .collect();
    assert_eq!(sim_maps, model_maps, "{ctx}: the mappings diverged (simulator left, reference right)");
}

/// Every page of every window agrees, every mapping does, and the page
/// table's summaries recount.
fn check(pair: &(AddressSpace, RefSpace), phys: &PhysMemory, ctx: &str) {
    agree_on(pair, phys, WINDOWS.iter().flat_map(|&w| w..w + SPAN), ctx);
    layout_agrees(pair, ctx);
    assert_eq!(pair.0.check_page_table(), Ok(()), "{ctx}");
}

/// Runs one script; returns what it got to see.
fn run_script(seed: u64, thp: bool, pinned: Option<ForkMode>) -> Seen {
    let mut rng = Rng::seed_from_u64(seed);
    let mut w = World::new(thp);
    let mut script: Vec<(usize, Op)> = gen_prologue(&mut rng).into_iter().map(|op| (0, op)).collect();
    let prologue = script.len();
    // As many operations to a window as the single window used to get.
    let ops = WINDOWS.len() as u64 * rng.gen_range(80, 200);
    script.extend((0..ops).map(|_| (rng.gen_index(MAX_PROCS), gen_op(&mut rng))));
    // Drawn apart from the script, which stays what it was without them.
    // Log-uniform, so that the crossings of a large fork get their share.
    let mut faults = Rng::seed_from_u64(seed ^ 0xFA17);
    for (i, (who, mut op)) in script.into_iter().enumerate() {
        if let (Op::Fork { mode }, Some(m)) = (&mut op, pinned) {
            *mode = m;
        }
        let who = who % w.procs.len();
        let fault = (i >= prologue && faults.gen_below(FAULT_ODDS) == 0).then(|| {
            let bits = faults.gen_below(15);
            let k = faults.gen_below(1 << bits);
            // A fork crosses once for each mapping it clones before its walk
            // begins an entry: half its draws count from the walk's start.
            let walk = matches!(op, Op::Fork { .. }) && faults.gen_bool(0.5);
            k + if walk { w.procs[who].0.vmas().count() as u64 } else { 0 }
        });
        let ctx = format!("seed {seed:#x} thp {thp} pinned {pinned:?} step {i} (process {who}: {op:?}, fault {fault:?})");
        let step = w.apply(who, &op, fault, &ctx);
        assert_eq!(step.sim, step.model, "{ctx}: simulator (left) and reference (right) disagree");
        if let Some(reach) = step.refused {
            w.seen.refused += 1;
            let pair = &w.procs[who];
            agree_on(pair, &w.phys, reach.into_iter().flatten(), &ctx);
            layout_agrees(pair, &ctx);
        }
        // The counts the table keeps of its entries survive every mutator.
        if let Some((sim, _)) = w.procs.get(who) {
            assert_eq!(sim.check_page_table(), Ok(()), "{ctx}");
        }
    }
    let ctx = format!("seed {seed:#x} thp {thp} pinned {pinned:?} at the end");
    w.procs.iter().for_each(|p| check(p, &w.phys, &ctx));
    while let Some((mut sim, _)) = w.procs.pop() {
        w.seen.leaves_of(&sim);
        w.seen.teardown_of(&sim, &w.procs);
        sim.destroy(&mut w.phys, &mut w.cycles);
    }
    assert_eq!(w.phys.used_frames(), 0, "seed {seed:#x} thp {thp}: frames survived teardown");
    assert_eq!(w.phys.swap().used_slots(), 0, "seed {seed:#x} thp {thp}: swap slots survived teardown");
    assert_eq!(w.phys.free_frames(), w.phys.total_frames());
    w.seen
}

fn run_cases(thp: bool) {
    let mut seen = Seen::default();
    for case in 0..CASES {
        for pinned in [None, Some(ForkMode::Cow), Some(ForkMode::OnDemand), Some(ForkMode::Eager)] {
            seen += run_script(0x4EF_0000 + case, thp, pinned);
        }
    }
    assert!(
        seen.fallback_copies > 0,
        "no on-demand fork ever met a mixed node — the madvise step is vacuous"
    );
    assert!(
        seen.slid_across_nodes > 0 && seen.slid_shared_node > 0,
        "no slide of a mapping across two nodes, or out of a shared one — the slide step is vacuous: {seen:?}"
    );
    assert!(
        !thp || (seen.slid_block_aligned > 0 && seen.slid_block_unaligned > 0),
        "no slide moved a huge block whole, or none split one — the slide step is vacuous under THP: {seen:?}"
    );
    assert!(
        seen.leaves_across_chunk > 0 && seen.leaves_scattered > 0,
        "no fork or teardown met a leaf whose frames run across a frame-table chunk, or none met one whose \
         frames do not run — the refcount runs are vacuous: {seen:?}"
    );
    assert!(
        seen.forks_copying_swap > 0
            && seen.unshares_over_swap > 0
            && seen.teardowns_over_swap > 0
            && seen.munmaps_over_swap > 0,
        "no fork copied, no unshare or teardown went over, or no munmap met a leaf holding swap entries — \
         the swap step is vacuous: {seen:?}"
    );
    assert!(
        seen.forks_counted > 0 && (!thp || (seen.forks_over_directories > 0 && seen.forks_demoting_blocks > 0)),
        "no fork was held to the count rule, or — under THP — none met a huge directory or a block two \
         mappings cover: the rule is vacuous: {seen:?}"
    );
    assert!(
        seen.eager_run_frames_refused > 0
            && seen.eager_run_entries_refused > 0
            && seen.cow_runs_refused > 0
            && seen.slides_refused > 0
            && (!thp || seen.eager_blocks_refused > 0),
        "no refusal inside an eager fork's copy of a run (at a frame, at an entry), a COW fork's run, a slide or \
         — under THP — an eager fork's copy of a block: the injection is vacuous: {seen:?}"
    );
    println!("thp {thp}: {seen:?}");
}

// Two tests, so that the two halves run side by side.
#[test]
fn address_space_agrees_with_the_flat_reference() {
    run_cases(false);
}

#[test]
fn address_space_agrees_with_the_flat_reference_under_thp() {
    run_cases(true);
}

/// The reference's own fork rule, stated once by hand.
#[test]
fn reference_fork_copies_private_aliases_shared_and_honours_policy() {
    let mut parent = RefSpace::default();
    parent.mmap(0, 4, Prot::RW, Share::Private).unwrap();
    parent.mmap(10, 1, Prot::RW, Share::Shared).unwrap();
    for vpn in [0, 1, 2, 3, 10] {
        parent.write(vpn, 7).unwrap();
    }
    parent.madvise(1, 1, false).unwrap();
    parent.madvise(2, 1, true).unwrap();
    let mut child = parent.fork();
    let seen: Vec<(u64, u64)> = child.pages.iter().map(|(&vpn, p)| (vpn, p.content.get())).collect();
    assert_eq!(seen, vec![(0, 7), (2, 0), (3, 7), (10, 7)]);
    child.write(0, 8).unwrap();
    child.write(10, 9).unwrap();
    assert_eq!(parent.read(0), Ok(Some(7)), "private pages are copied");
    assert_eq!(parent.read(10), Ok(Some(9)), "shared pages alias");
    assert_eq!(child.read(1), Err(MemError::NotMapped), "DONTFORK leaves a hole");
}
