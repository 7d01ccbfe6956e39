//! Observational equivalence: `ForkMode::OnDemand` vs `ForkMode::Cow` vs
//! `ForkMode::Eager`.
//!
//! Seed-driven property test (failures name the seed and replay
//! exactly). Three worlds run the same script: build a parent with random
//! mappings and writes, mark random sub-ranges `MADV_DONTFORK` /
//! `MADV_WIPEONFORK` (so leaf nodes mix inherited and non-inherited
//! entries and the on-demand walk takes its per-entry fallback), fork it —
//! world A with COW page-table copying, world B with on-demand shared
//! subtrees, world C copying every page eagerly — then apply an identical
//! random schedule of writes, reads, mprotects and unmaps to all. At
//! every read the worlds must observe identical bytes, at the end every
//! mapped page must agree, and tearing everything down must return every
//! frame allocator to zero — so neither the deferred page-table copy nor
//! the eager page copy can change what a process sees or leak or
//! double-free a frame reference.

use fpr_mem::address_space::ForkMode;
use fpr_mem::cost::{CostModel, Cycles};
use fpr_mem::phys::PhysMemory;
use fpr_mem::tlb::TlbModel;
use fpr_mem::vma::{Prot, VmArea, VmaKind};
use fpr_mem::{AddressSpace, Vpn};
use fpr_rng::Rng;

const CASES: u64 = 48;
const SPAN: u64 = 1200; // covers >2 leaf subtrees, so unshares happen

#[derive(Debug, Clone)]
enum Op {
    /// Write `val` to `vpn` in the parent (0) or child (1).
    Write { who: usize, vpn: u64, val: u64 },
    /// Read `vpn` in the parent or child; both worlds must agree.
    Read { who: usize, vpn: u64 },
    /// Drop write permission on a range (forces unshares on shared
    /// subtrees in world B).
    ProtectRo { who: usize, start: u64, pages: u64 },
    /// Unmap a range.
    Unmap { who: usize, start: u64, pages: u64 },
}

fn gen_op(rng: &mut Rng) -> Op {
    let who = rng.gen_below(2) as usize;
    match rng.gen_below(8) {
        0..=2 => Op::Write {
            who,
            vpn: rng.gen_below(SPAN),
            val: rng.gen_u64(),
        },
        3..=5 => Op::Read {
            who,
            vpn: rng.gen_below(SPAN),
        },
        6 => Op::ProtectRo {
            who,
            start: rng.gen_below(SPAN),
            pages: rng.gen_range(1, 64),
        },
        _ => Op::Unmap {
            who,
            start: rng.gen_below(SPAN),
            pages: rng.gen_range(1, 64),
        },
    }
}

struct World {
    phys: PhysMemory,
    cycles: Cycles,
    tlb: TlbModel,
    spaces: Vec<AddressSpace>, // [parent, child]
}

impl World {
    fn build(seed: u64, mode: ForkMode) -> World {
        let mut rng = Rng::seed_from_u64(seed);
        let mut w = World {
            phys: PhysMemory::new(8192, CostModel::default()),
            cycles: Cycles::new(),
            tlb: TlbModel::new(),
            spaces: vec![AddressSpace::new()],
        };
        // Parent: a few VMAs across the span, then scattered writes so
        // fork inherits a mix of resident and absent pages.
        for _ in 0..rng.gen_range(2, 6) {
            let start = rng.gen_below(SPAN - 64);
            let pages = rng.gen_range(8, 64);
            let _ = w.spaces[0].mmap(
                VmArea::anon(Vpn(start), pages, Prot::RW, VmaKind::Mmap),
                &mut w.phys,
                &mut w.cycles,
            );
        }
        for _ in 0..rng.gen_range(10, 80) {
            let vpn = Vpn(rng.gen_below(SPAN));
            let val = rng.gen_u64();
            let _ = w.spaces[0].write(vpn, val, &mut w.phys, &mut w.cycles, &mut w.tlb, 1);
        }
        // Fork policy on random sub-ranges of the mapped areas: the split
        // lands inside leaf nodes, so some entries of a node are inherited
        // and others are not.
        let areas: Vec<(u64, u64)> = w.spaces[0].vmas().map(|v| (v.start.0, v.pages)).collect();
        for _ in 0..rng.gen_below(4) {
            let (start, pages) = areas[rng.gen_index(areas.len())];
            let off = rng.gen_below(pages);
            let len = rng.gen_range(1, pages - off + 1);
            let wipe = rng.gen_bool(0.5);
            w.spaces[0]
                .set_fork_policy(Vpn(start + off), len, |p| {
                    if wipe {
                        p.wipe_on_fork = true;
                    } else {
                        p.dont_fork = true;
                    }
                })
                .expect("range lies inside one mapped area");
        }
        let child = AddressSpace::fork_from(
            &mut w.spaces[0],
            mode,
            &mut w.phys,
            &mut w.cycles,
            &mut w.tlb,
            1,
        )
        .expect("fork fits");
        w.spaces.push(child);
        w
    }

    fn apply(&mut self, op: &Op) -> Result<Option<u64>, fpr_mem::MemError> {
        match op {
            Op::Write { who, vpn, val } => {
                let s = &mut self.spaces[*who];
                s.write(Vpn(*vpn), *val, &mut self.phys, &mut self.cycles, &mut self.tlb, 1)
                    .map(|_| None)
            }
            Op::Read { who, vpn } => self.spaces[*who]
                .read(Vpn(*vpn), &mut self.phys, &mut self.cycles)
                .map(|(v, _)| Some(v)),
            Op::ProtectRo { who, start, pages } => self.spaces[*who]
                .mprotect(
                    Vpn(*start),
                    *pages,
                    Prot::R,
                    &mut self.cycles,
                    &mut self.phys,
                    &mut self.tlb,
                    1,
                )
                .map(|()| None),
            Op::Unmap { who, start, pages } => self.spaces[*who]
                .munmap(
                    Vpn(*start),
                    *pages,
                    &mut self.phys,
                    &mut self.cycles,
                    &mut self.tlb,
                    1,
                )
                .map(|_| None),
        }
    }

    fn observed(&self, who: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for vpn in 0..SPAN {
            if let Ok(v) = self.spaces[who].observe(Vpn(vpn), &self.phys) {
                out.push((vpn, v));
            }
        }
        out
    }
}

/// Same script, all three fork modes: identical observations, clean
/// teardown.
#[test]
fn on_demand_fork_observationally_equal_to_cow() {
    let mut fallback_copies = 0;
    for case in 0..CASES {
        let seed = 0xE0_0000 + case;
        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
        let ops: Vec<Op> = (0..rng.gen_range(20, 120)).map(|_| gen_op(&mut rng)).collect();

        let mut cow = World::build(seed, ForkMode::Cow);
        let mut odf = World::build(seed, ForkMode::OnDemand);
        let mut eager = World::build(seed, ForkMode::Eager);
        // An on-demand fork copies PTEs only for nodes it could not share.
        fallback_copies += odf.spaces[0].stats.ptes_copied;

        for (i, op) in ops.iter().enumerate() {
            let a = cow.apply(op);
            for (name, w) in [("on-demand", &mut odf), ("eager", &mut eager)] {
                let b = w.apply(op);
                match (&a, &b) {
                    (Ok(x), Ok(y)) => assert_eq!(
                        x, y,
                        "case {case} op {i} ({op:?}): cow and {name} observed different values"
                    ),
                    (Err(_), Err(_)) => {} // both refused (e.g. unmapped read)
                    _ => panic!("case {case} op {i} ({op:?}): cow {a:?} vs {name} {b:?} diverged"),
                }
            }
        }

        // Every page any world can observe must match, in both spaces.
        for who in 0..2 {
            for (name, w) in [("on-demand", &odf), ("eager", &eager)] {
                assert_eq!(
                    cow.observed(who),
                    w.observed(who),
                    "case {case}: space {who} of cow and {name} diverged after the schedule"
                );
            }
        }

        // Teardown balances refcounts in every world: no frame survives,
        // so sharing subtrees neither leaked nor double-freed.
        for w in [&mut cow, &mut odf, &mut eager] {
            for mut s in std::mem::take(&mut w.spaces) {
                s.destroy(&mut w.phys, &mut w.cycles);
            }
            assert_eq!(
                w.phys.used_frames(),
                0,
                "case {case}: frames survived teardown"
            );
        }
    }
    assert!(
        fallback_copies > 0,
        "no on-demand fork ever met a mixed node — the fork-policy step is vacuous"
    );
}
