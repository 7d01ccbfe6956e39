//! Observational equivalence: transparent huge pages on vs off.
//!
//! Seed-driven property test (failures name the seed and replay
//! exactly). Two kernels — one with THP enabled, one without — replay an
//! identical random schedule of mmap, populate, write, read, mprotect,
//! munmap, madvise, fork, swap-out and exit. Promotion and demotion must be
//! invisible: every operation returns the same result in both worlds,
//! every page observes the same bytes at the end, and tearing everything
//! down leaves both kernels byte-identical to their pre-schedule
//! baseline. This is the THP contract — a block being huge or small may
//! change what the machine *charges*, never what a process *sees*.

use fpr_api::fork;
use fpr_kernel::{Errno, Kernel, MachineConfig, Madvice, Pid};
use fpr_mem::{Prot, Share, VmaKind, Vpn};
use fpr_rng::Rng;

const CASES: u64 = 24;
const MAX_REGIONS: usize = 6;
const MAX_PIDS: usize = 5;

/// Ops carry raw randoms; targets are resolved against the world's live
/// pid/region lists at apply time. Both worlds evolve those lists in
/// lockstep, so resolution is identical.
#[derive(Debug, Clone)]
enum Op {
    /// Map a fresh private anonymous region in the root process.
    Mmap { pages: u64 },
    /// Prefault a range (the THP world's promotion fast path).
    Populate { reg: u64, off: u64, pages: u64 },
    Write { who: u64, reg: u64, off: u64, val: u64 },
    Read { who: u64, reg: u64, off: u64 },
    /// Drop write permission on a subrange (splits huge blocks).
    ProtectRo { who: u64, reg: u64, off: u64, pages: u64 },
    /// Unmap a subrange (demotes straddled blocks).
    Unmap { who: u64, reg: u64, off: u64, pages: u64 },
    /// Advise a subrange of the root: a fork-policy split landing inside a
    /// huge block makes the next fork demote it; `DontNeed` discards.
    Madvise { reg: u64, off: u64, pages: u64, advice: Madvice },
    /// Fork the root: huge blocks are shared/COWed as single units.
    Fork,
    /// Evict up to `max` pages (huge blocks must refuse to swap).
    Swap { max: u64 },
    /// Exit a non-root process.
    Exit { who: u64 },
}

fn gen_op(rng: &mut Rng) -> Op {
    match rng.gen_below(17) {
        0 => Op::Mmap {
            // Half the regions are exactly one huge block so promotion
            // has real targets; the rest are odd sizes that never align.
            pages: if rng.gen_below(2) == 0 {
                512
            } else {
                rng.gen_range(16, 200)
            },
        },
        1..=2 => Op::Populate {
            reg: rng.gen_u64(),
            // Bias half the populates to full-block shape (offset 0, 512
            // pages) so the THP world's promotion path really fires.
            off: if rng.gen_below(2) == 0 {
                0
            } else {
                rng.gen_below(512)
            },
            pages: if rng.gen_below(2) == 0 {
                512
            } else {
                rng.gen_range(1, 512)
            },
        },
        3..=6 => Op::Write {
            who: rng.gen_u64(),
            reg: rng.gen_u64(),
            off: rng.gen_below(600),
            val: rng.gen_u64(),
        },
        7..=9 => Op::Read {
            who: rng.gen_u64(),
            reg: rng.gen_u64(),
            off: rng.gen_below(600),
        },
        10 => Op::ProtectRo {
            who: rng.gen_u64(),
            reg: rng.gen_u64(),
            off: rng.gen_below(500),
            pages: rng.gen_range(1, 64),
        },
        11 => Op::Unmap {
            who: rng.gen_u64(),
            reg: rng.gen_u64(),
            off: rng.gen_below(500),
            pages: rng.gen_range(1, 64),
        },
        12 => Op::Fork,
        13..=14 => Op::Swap {
            max: rng.gen_range(1, 64),
        },
        15 => Op::Exit { who: rng.gen_u64() },
        _ => Op::Madvise {
            reg: rng.gen_u64(),
            off: rng.gen_below(500),
            pages: rng.gen_range(1, 64),
            advice: [
                Madvice::DontFork,
                Madvice::DoFork,
                Madvice::WipeOnFork,
                Madvice::KeepOnFork,
                Madvice::DontNeed,
            ][rng.gen_index(5)],
        },
    }
}

struct World {
    k: Kernel,
    init: Pid,
    root: Pid,
    /// root + every forked child, zombies included (ops against zombies
    /// must fail identically in both worlds).
    pids: Vec<Pid>,
    /// Parallel to `pids`: false once an Exit op killed the process.
    alive: Vec<bool>,
    /// Snapshot from before the root fork: teardown must return to it.
    base: fpr_kernel::KernelBaseline,
    /// (base, pages) of every region ever mapped in root.
    regions: Vec<(Vpn, u64)>,
    /// Huge blocks a fork had to demote because a fork-policy split had
    /// landed inside them.
    fork_demoted: u64,
}

impl World {
    fn new(thp: bool) -> World {
        let mut k = Kernel::new(MachineConfig {
            thp,
            frames: 65_536,
            swap_slots: 1024,
            ..MachineConfig::default()
        });
        let init = k.create_init("init").unwrap();
        let base = k.baseline();
        let root = fork(&mut k, init).unwrap();
        World {
            k,
            init,
            root,
            pids: vec![root],
            alive: vec![true],
            regions: Vec::new(),
            base,
            fork_demoted: 0,
        }
    }

    fn pid(&self, raw: u64) -> Pid {
        self.pids[(raw % self.pids.len() as u64) as usize]
    }

    fn region(&self, raw: u64) -> Option<(Vpn, u64)> {
        if self.regions.is_empty() {
            None
        } else {
            Some(self.regions[(raw % self.regions.len() as u64) as usize])
        }
    }

    /// Applies one op. `Ok(Some(v))` carries an observed value the two
    /// worlds must agree on; swap-out counts are intentionally *not*
    /// compared — huge blocks refuse eviction, so the THP world may swap
    /// fewer pages, which is a cost difference, not a semantic one.
    fn apply(&mut self, op: &Op) -> Result<Option<u64>, Errno> {
        match op {
            Op::Mmap { pages } => {
                if self.regions.len() >= MAX_REGIONS {
                    return Ok(None);
                }
                // Each region gets its own fixed, huge-aligned slot.
                // Kernel-chosen placement (`mmap_anon`) is deliberately
                // avoided here: a THP machine huge-aligns block-sized
                // mappings (thp_get_unmapped_area), so the two worlds
                // would place regions — and later refill munmap holes —
                // at different addresses, which is an address-layout
                // difference, not a semantic one. Fixed slots keep both
                // worlds byte-comparable; mm.rs unit-tests the alignment.
                let base = Vpn(0x40000 + self.regions.len() as u64 * 1024);
                let mut vma = fpr_mem::VmArea::anon(base, *pages, Prot::RW, VmaKind::Mmap);
                vma.share = Share::Private;
                self.k.mmap_at(self.root, vma)?;
                self.regions.push((base, *pages));
                Ok(Some(base.0))
            }
            Op::Populate { reg, off, pages } => {
                let Some((base, len)) = self.region(*reg) else {
                    return Ok(None);
                };
                let off = off % len;
                let pages = (*pages).min(len - off);
                self.k
                    .populate(self.root, base.add(off), pages)
                    .map(|_| None)
            }
            Op::Write { who, reg, off, val } => {
                let Some((base, len)) = self.region(*reg) else {
                    return Ok(None);
                };
                self.k
                    .write_mem(self.pid(*who), base.add(off % len), *val)
                    .map(|_| None)
            }
            Op::Read { who, reg, off } => {
                let Some((base, len)) = self.region(*reg) else {
                    return Ok(None);
                };
                self.k
                    .read_mem(self.pid(*who), base.add(off % len))
                    .map(Some)
            }
            Op::ProtectRo {
                who,
                reg,
                off,
                pages,
            } => {
                let Some((base, len)) = self.region(*reg) else {
                    return Ok(None);
                };
                let off = off % len;
                let pages = (*pages).min(len - off);
                self.k
                    .mprotect(self.pid(*who), base.add(off), pages, Prot::R)
                    .map(|_| None)
            }
            Op::Unmap {
                who,
                reg,
                off,
                pages,
            } => {
                let Some((base, len)) = self.region(*reg) else {
                    return Ok(None);
                };
                let off = off % len;
                let pages = (*pages).min(len - off);
                self.k
                    .munmap(self.pid(*who), base.add(off), pages)
                    .map(|_| None)
            }
            Op::Madvise {
                reg,
                off,
                pages,
                advice,
            } => {
                let Some((base, len)) = self.region(*reg) else {
                    return Ok(None);
                };
                let off = off % len;
                let pages = (*pages).min(len - off);
                self.k
                    .madvise(self.root, base.add(off), pages, *advice)
                    .map(|_| None)
            }
            Op::Fork => {
                if self.pids.len() >= MAX_PIDS {
                    return Ok(None);
                }
                let demoted = self.k.phys.thp_stats().demoted;
                let child = fork(&mut self.k, self.root)?;
                self.fork_demoted += self.k.phys.thp_stats().demoted - demoted;
                self.pids.push(child);
                self.alive.push(true);
                Ok(Some(child.0 as u64))
            }
            Op::Swap { max } => {
                let _ = self.k.swap_out_pass(*max);
                Ok(None)
            }
            Op::Exit { who } => {
                let live: Vec<usize> = (1..self.pids.len()).filter(|i| self.alive[*i]).collect();
                if live.is_empty() {
                    return Ok(None);
                }
                let idx = live[(who % live.len() as u64) as usize];
                self.alive[idx] = false;
                self.k.exit(self.pids[idx], 0).map(|_| None)
            }
        }
    }

    /// Every page every live process can observe, without faulting.
    /// Keyed by (pid, region index, page offset) — never by raw address,
    /// which differs between worlds once THP huge-aligns a mapping.
    fn observed(&self) -> Vec<(u32, usize, u64, u64)> {
        let mut out = Vec::new();
        for pid in &self.pids {
            let Ok(p) = self.k.process(*pid) else { continue };
            if p.is_zombie() {
                continue;
            }
            for (r, (base, len)) in self.regions.iter().enumerate() {
                for i in 0..*len {
                    if let Ok(v) = p.aspace.observe(base.add(i), &self.k.phys) {
                        out.push((pid.0, r, i, v));
                    }
                }
            }
        }
        out
    }

    /// Exits and reaps everything; every frame and swap slot must come
    /// back. Returns the commit-account comparison against the pre-fork
    /// baseline: the kernel's commit accounting has a known quirk (a
    /// private RW→R mprotect strands its charge, THP or not), so the
    /// caller asserts the two worlds strand *identically* rather than
    /// demanding zero.
    fn teardown(mut self, label: &str) -> Vec<String> {
        for idx in 1..self.pids.len() {
            if self.alive[idx] {
                self.k.exit(self.pids[idx], 0).unwrap();
            }
            let _ = self.k.waitpid(self.root, Some(self.pids[idx]));
        }
        self.k.exit(self.root, 0).unwrap();
        self.k.waitpid(self.init, Some(self.root)).unwrap();
        assert_eq!(
            self.k.phys.used_frames(),
            0,
            "{label}: frames survived teardown"
        );
        assert_eq!(
            self.k.phys.swap().used_slots(),
            0,
            "{label}: swap slots survived teardown"
        );
        self.k
            .check_invariants()
            .unwrap_or_else(|v| panic!("{label}: invariants after teardown: {v:?}"));
        self.k.leak_check(&self.base).err().unwrap_or_default()
    }
}

/// Same schedule, THP on and off: identical results, identical bytes,
/// clean teardown — and the THP world really did promote somewhere.
#[test]
fn thp_is_observationally_invisible() {
    let mut total_promoted = 0;
    let mut total_fork_demoted = 0;
    for case in 0..CASES {
        let seed = 0x7B9_0000 + case;
        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
        let ops: Vec<Op> = (0..rng.gen_range(30, 140))
            .map(|_| gen_op(&mut rng))
            .collect();

        let mut on = World::new(true);
        let mut off = World::new(false);

        for (i, op) in ops.iter().enumerate() {
            let a = on.apply(op);
            let b = off.apply(op);
            match (&a, &b) {
                (Ok(x), Ok(y)) => assert_eq!(
                    x, y,
                    "case {case} op {i} ({op:?}): THP on/off observed different values"
                ),
                (Err(_), Err(_)) => {}
                _ => panic!("case {case} op {i} ({op:?}): {a:?} vs {b:?} diverged"),
            }
            assert_eq!(
                on.pids, off.pids,
                "case {case} op {i}: pid tables diverged"
            );
        }

        assert_eq!(
            on.observed(),
            off.observed(),
            "case {case}: observable memory diverged after the schedule"
        );
        for w in [&mut on, &mut off] {
            w.k.check_invariants()
                .unwrap_or_else(|v| panic!("case {case}: invariants mid-run: {v:?}"));
        }
        total_promoted += on.k.phys.thp_stats().promoted;
        total_fork_demoted += on.fork_demoted;
        assert_eq!(
            off.k.phys.thp_stats().promoted,
            0,
            "case {case}: the THP-off world promoted"
        );

        let leak_on = on.teardown(&format!("case {case} (thp on)"));
        let leak_off = off.teardown(&format!("case {case} (thp off)"));
        assert_eq!(
            leak_on, leak_off,
            "case {case}: teardown residue diverged between THP on and off"
        );
    }
    assert!(
        total_promoted > 0,
        "schedules never promoted a single block — the property is vacuous"
    );
    assert!(
        total_fork_demoted > 0,
        "no fork ever met a huge block split by madvise — the Madvise op is vacuous"
    );
}
