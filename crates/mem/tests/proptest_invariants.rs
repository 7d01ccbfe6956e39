//! Randomized invariants of the memory substrate.
//!
//! Seed-driven property tests (the workspace builds without proptest, so
//! cases derive from an explicit `fpr_rng` seed — any failure names the
//! seed and replays exactly). They generate random operation sequences
//! and assert the structural laws the rest of the system depends on: no
//! frame leaks, page-table ↔ VMA consistency, and buddy allocator
//! geometry. What a fork isolates, in every mode, is judged against the
//! flat page map in `proptest_reference.rs`.

use fpr_mem::buddy::BuddyAllocator;
use fpr_mem::cost::{CostModel, Cycles};
use fpr_mem::phys::PhysMemory;
use fpr_mem::tlb::TlbModel;
use fpr_mem::vma::{Prot, VmArea, VmaKind};
use fpr_mem::{AddressSpace, Pfn, Vpn};
use fpr_rng::Rng;

const CASES: u64 = 64;

/// A random single-space operation.
#[derive(Debug, Clone)]
enum Op {
    Mmap { start: u64, pages: u64 },
    Munmap { start: u64, pages: u64 },
    Write { vpn: u64, val: u64 },
    Read { vpn: u64 },
}

fn gen_op(rng: &mut Rng) -> Op {
    match rng.gen_below(4) {
        0 => Op::Mmap {
            start: rng.gen_below(200),
            pages: rng.gen_range(1, 16),
        },
        1 => Op::Munmap {
            start: rng.gen_below(200),
            pages: rng.gen_range(1, 16),
        },
        2 => Op::Write {
            vpn: rng.gen_below(200),
            val: rng.gen_u64(),
        },
        _ => Op::Read {
            vpn: rng.gen_below(200),
        },
    }
}

fn gen_ops(rng: &mut Rng, max: u64) -> Vec<Op> {
    (0..rng.gen_range(1, max)).map(|_| gen_op(rng)).collect()
}

/// After any operation sequence, destroying the space frees every frame.
#[test]
fn no_frame_leaks() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x11_0000 + case);
        let ops = gen_ops(&mut rng, 80);
        let mut phys = PhysMemory::new(4096, CostModel::default());
        let mut cy = Cycles::new();
        let mut tlb = TlbModel::new();
        let mut a = AddressSpace::new();
        for op in ops {
            match op {
                Op::Mmap { start, pages } => {
                    let _ = a.mmap(
                        VmArea::anon(Vpn(start), pages, Prot::RW, VmaKind::Mmap),
                        &mut phys,
                        &mut cy,
                    );
                }
                Op::Munmap { start, pages } => {
                    let _ = a.munmap(Vpn(start), pages, &mut phys, &mut cy, &mut tlb, 1);
                }
                Op::Write { vpn, val } => {
                    let _ = a.write(Vpn(vpn), val, &mut phys, &mut cy, &mut tlb, 1);
                }
                Op::Read { vpn } => {
                    let _ = a.read(Vpn(vpn), &mut phys, &mut cy);
                }
            }
            // Invariant: resident pages equals used frames (single space,
            // no sharing in this test).
            assert_eq!(a.resident_pages(), phys.used_frames(), "case {case}");
        }
        a.destroy(&mut phys, &mut cy);
        assert_eq!(phys.used_frames(), 0, "case {case}");
    }
}

/// Every resident page lies inside some VMA, and every VMA page reads
/// back what was last written to it.
#[test]
fn page_table_vma_consistency() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x22_0000 + case);
        let ops = gen_ops(&mut rng, 60);
        let mut phys = PhysMemory::new(4096, CostModel::default());
        let mut cy = Cycles::new();
        let mut tlb = TlbModel::new();
        let mut a = AddressSpace::new();
        let mut shadow: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Mmap { start, pages } => {
                    if a.mmap(
                        VmArea::anon(Vpn(start), pages, Prot::RW, VmaKind::Mmap),
                        &mut phys,
                        &mut cy,
                    )
                    .is_ok()
                    {
                        for p in start..start + pages {
                            shadow.insert(p, 0);
                        }
                    }
                }
                Op::Munmap { start, pages } => {
                    if a.munmap(Vpn(start), pages, &mut phys, &mut cy, &mut tlb, 1)
                        .is_ok()
                    {
                        for p in start..start + pages {
                            shadow.remove(&p);
                        }
                    }
                }
                Op::Write { vpn, val } => {
                    if a.write(Vpn(vpn), val, &mut phys, &mut cy, &mut tlb, 1).is_ok() {
                        shadow.insert(vpn, val);
                    }
                }
                Op::Read { vpn } => {
                    if let Ok((got, _)) = a.read(Vpn(vpn), &mut phys, &mut cy) {
                        assert_eq!(got, *shadow.get(&vpn).unwrap_or(&0), "case {case}");
                    }
                }
            }
            // The table's counts of its own entries survive every mutator.
            assert_eq!(a.check_page_table(), Ok(()), "case {case}");
        }
        // Every mapped page must be covered by a VMA and observable.
        for (vpn, expect) in &shadow {
            assert_eq!(a.observe(Vpn(*vpn), &phys).unwrap(), *expect, "case {case}");
        }
        a.destroy(&mut phys, &mut cy);
    }
}

/// Buddy allocator: allocations never overlap, and full free restores
/// the complete frame count.
#[test]
fn buddy_no_overlap_and_restores() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x66_0000 + case);
        let orders: Vec<usize> = (0..rng.gen_range(1, 24))
            .map(|_| rng.gen_below(5) as usize)
            .collect();
        let mut b = BuddyAllocator::new(Pfn(0), 512);
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut handles: Vec<Pfn> = Vec::new();
        for o in orders {
            if let Ok(p) = b.alloc(o) {
                let len = 1u64 << o;
                assert_eq!(p.0 % len, 0, "case {case}: natural alignment");
                for (s, l) in &live {
                    assert!(p.0 + len <= *s || s + l <= p.0, "case {case}: overlap");
                }
                live.push((p.0, len));
                handles.push(p);
            }
        }
        for h in handles {
            b.free(h);
        }
        assert_eq!(b.free_frames(), 512, "case {case}");
        assert_eq!(b.largest_free_order(), Some(9), "case {case}");
    }
}
