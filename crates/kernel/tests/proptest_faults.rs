//! Fault-plan property tests at the kernel layer.
//!
//! A random schedule of process-creation and descriptor syscalls runs
//! under a random [`FaultPlan`] (seed-driven cases, as in the other
//! proptests). Before every call the test snapshots
//! [`Kernel::baseline`]; any call that returns `Err` must leave the PID
//! table, descriptor tables, pipes, inodes, frame and commit accounting
//! exactly at that baseline ([`Kernel::leak_check`]) with the structural
//! invariants ([`Kernel::check_invariants`]) intact — an injected fault
//! anywhere inside a syscall must behave like the syscall never started.

use fpr_faults::{with_plan, FaultPlan};
use fpr_kernel::{Errno, Fd, Kernel, OpenFlags, Pid};
use fpr_mem::{ForkMode, Prot, Share, Vpn};
use fpr_rng::Rng;

const CASES: u64 = 48;
const MAX_PROCS: usize = 6;

#[derive(Debug, Clone)]
enum Op {
    MiniFork { proc: u64, eager: bool },
    Open { proc: u64, create: bool },
    Close { proc: u64, fd: u8 },
    Dup2 { proc: u64, old: u8, new: u8 },
    Pipe { proc: u64 },
    Mmap { proc: u64, pages: u64 },
    WriteMem { proc: u64, vpn: u64 },
}

fn gen_op(rng: &mut Rng) -> Op {
    let proc = rng.gen_u64();
    match rng.gen_below(8) {
        0 | 1 => Op::MiniFork {
            proc,
            eager: rng.gen_bool(0.3),
        },
        2 => Op::Open {
            proc,
            create: rng.gen_bool(0.7),
        },
        3 => Op::Close {
            proc,
            fd: rng.gen_below(12) as u8,
        },
        4 => Op::Dup2 {
            proc,
            old: rng.gen_below(12) as u8,
            new: rng.gen_below(12) as u8,
        },
        5 => Op::Pipe { proc },
        6 => Op::Mmap {
            proc,
            pages: rng.gen_range(1, 12),
        },
        _ => Op::WriteMem {
            proc,
            vpn: rng.gen_below(64),
        },
    }
}

/// The transactional fork skeleton every creation API shares: identity,
/// address space, descriptors — abort on any failure.
fn mini_fork(k: &mut Kernel, parent: Pid, mode: ForkMode) -> Result<Pid, Errno> {
    let child = k.allocate_process(parent, "child")?;
    match k.copy_space(parent, child, mode).and_then(|()| k.copy_fd_table(parent, child)) {
        Ok(()) => Ok(child),
        Err(e) => {
            k.abort_process_creation(child).expect("abort is infallible here");
            Err(e)
        }
    }
}

/// Under a random fault plan, every `Err` restores the pre-call
/// baseline and every state — success or failure — keeps the
/// structural invariants.
#[test]
fn faulty_schedules_restore_the_baseline_on_err() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xFB_0000 + case);
        let ops: Vec<Op> = (0..rng.gen_range(10, 50)).map(|_| gen_op(&mut rng)).collect();
        let plan = FaultPlan::random(rng.gen_u64(), 170);
        // Setup runs outside the plan scope — only the schedule is faulty.
        let mut k = Kernel::boot();
        let init = k.create_init("init").expect("init");
        let mut procs: Vec<Pid> = vec![init];
        with_plan(plan, || {
            for (i, op) in ops.iter().enumerate() {
                let pid = procs[pick(op) as usize % procs.len()];
                let base = k.baseline();
                let failed = match op {
                    Op::MiniFork { eager, .. } => {
                        let mode = if *eager { ForkMode::Eager } else { ForkMode::Cow };
                        match mini_fork(&mut k, pid, mode) {
                            Ok(child) => {
                                if procs.len() < MAX_PROCS {
                                    procs.push(child);
                                    false
                                } else {
                                    // Roll the extra child straight back —
                                    // itself a baseline-restoring path.
                                    k.abort_process_creation(child).expect("abort");
                                    true
                                }
                            }
                            Err(_) => true,
                        }
                    }
                    Op::Open { create, .. } => {
                        k.open(pid, "/shared.txt", OpenFlags::RDWR, *create).is_err()
                    }
                    Op::Close { fd, .. } => k.close(pid, Fd(*fd as u32)).is_err(),
                    Op::Dup2 { old, new, .. } => {
                        k.dup2(pid, Fd(*old as u32), Fd(*new as u32)).is_err()
                    }
                    Op::Pipe { .. } => k.pipe(pid).is_err(),
                    Op::Mmap { pages, .. } => {
                        k.mmap_anon(pid, *pages, Prot::RW, Share::Private).is_err()
                    }
                    Op::WriteMem { vpn, .. } => k.write_mem(pid, Vpn(*vpn), 7).is_err(),
                };
                if failed {
                    if let Err(v) = k.leak_check(&base) {
                        panic!(
                            "case {case} op {i} ({op:?}): Err did not restore baseline:\n  {}",
                            v.join("\n  ")
                        );
                    }
                }
                if let Err(v) = k.check_invariants() {
                    panic!(
                        "case {case} op {i} ({op:?}): invariants broken:\n  {}",
                        v.join("\n  ")
                    );
                }
            }
        });
    }
}

fn pick(op: &Op) -> u64 {
    match op {
        Op::MiniFork { proc, .. }
        | Op::Open { proc, .. }
        | Op::Close { proc, .. }
        | Op::Dup2 { proc, .. }
        | Op::Pipe { proc }
        | Op::Mmap { proc, .. }
        | Op::WriteMem { proc, .. } => *proc,
    }
}
