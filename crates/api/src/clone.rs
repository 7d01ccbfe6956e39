//! `clone(2)`: fork's flag zoo.
//!
//! Linux's answer to fork's inflexibility was not to replace it but to
//! parameterise it — each `CLONE_*` flag toggles whether one piece of
//! state is shared or copied. The paper's complaint: the flag space is
//! enormous, the default is still "copy everything", and several
//! combinations are unsupported or subtly broken. The simulator
//! implements the meaningful subset and *returns `EINVAL` for the
//! combinations real kernels reject*, which the tests pin down.
//!
//! Without `CLONE_VM`, clone is fork. With it, the child is a sequence of
//! the kernel's creation steps: the descriptor table, the task state, the
//! image description, and then
//! [`Kernel::borrow_space`] in place of a copy of the memory. The child
//! then runs in the parent's memory, userspace tables included: its locks
//! are the parent's locks (one a parent thread holds refuses it with
//! `EBUSY`, or `EDEADLK` if `CLONE_VFORK` parked that thread), and its
//! stream writes land in the parent's buffers.

use crate::fork::fork_from_thread;
use fpr_kernel::{Errno, KResult, Kernel, Pid, Tid};
use fpr_mem::ForkMode;

/// The clone flag subset the simulator models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloneFlags {
    /// Share the address space (`CLONE_VM`).
    pub vm: bool,
    /// Share signal dispositions (`CLONE_SIGHAND`; requires `vm`).
    pub sighand: bool,
    /// Create a thread in the same process (`CLONE_THREAD`; requires
    /// `sighand` and `vm`).
    pub thread: bool,
    /// Suspend the parent until exec/exit (`CLONE_VFORK`).
    pub vfork: bool,
    /// Duplicate the address space by sharing page-table subtrees
    /// on-demand instead of copying every PTE (the `CLONE_PT_SHARE`
    /// experiment from on-demand-fork). Meaningless with `vm` — there is
    /// no duplication to defer when the space is shared outright — so the
    /// combination is rejected.
    pub pt_share: bool,
}

/// What `clone` produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloneResult {
    /// A new process.
    Process(Pid),
    /// A new thread in the calling process.
    Thread(Tid),
}

/// Renders the set flags as a compact `|`-joined label for trace events.
fn flags_label(flags: CloneFlags) -> String {
    let names = [
        (flags.vm, "vm"),
        (flags.sighand, "sighand"),
        (flags.thread, "thread"),
        (flags.vfork, "vfork"),
        (flags.pt_share, "pt_share"),
    ];
    let set: Vec<&str> = names.iter().filter(|(on, _)| *on).map(|(_, n)| *n).collect();
    if set.is_empty() {
        "none".to_string()
    } else {
        set.join("|")
    }
}

/// Clones the calling process/thread according to `flags`.
pub fn clone(kernel: &mut Kernel, parent: Pid, flags: CloneFlags) -> KResult<CloneResult> {
    kernel.span_with(
        "clone",
        "api",
        |ev| {
            ev.arg("parent", parent.0 as u64)
                .arg("flags", flags_label(flags))
        },
        |kernel| {
            // Flag validation mirrors the kernel's rules.
            if flags.thread && (!flags.vm || !flags.sighand) {
                return Err(Errno::Einval);
            }
            if flags.sighand && !flags.vm {
                return Err(Errno::Einval);
            }
            if flags.pt_share && flags.vm {
                return Err(Errno::Einval);
            }
            if flags.thread {
                // CLONE_THREAD: a new schedulable entity in the same PCB.
                return kernel.spawn_thread(parent).map(CloneResult::Thread);
            }
            clone_process(kernel, parent, flags).map(CloneResult::Process)
        },
    )
}

/// The process-creating half of clone, for flag sets already validated
/// (and shared with [`crate::vfork::vfork`], which is one of them).
pub(crate) fn clone_process(kernel: &mut Kernel, parent: Pid, flags: CloneFlags) -> KResult<Pid> {
    if flags.vm {
        // CLONE_VM without CLONE_THREAD: a separate process sharing the
        // address space (vfork-like, optionally with the parent parked).
        // The image description crosses; nothing in the memory is copied.
        // The descriptor table is copied, as on the fork path below:
        // `CLONE_FILES`, which would share it, is not modelled.
        kernel.charge_syscall();
        let (child, ()) = kernel.create_process(parent, |k, child, _| {
            k.copy_fd_table(parent, child)?;
            k.copy_task(parent, child)?;
            k.copy_image(parent, child)?;
            k.borrow_space(parent, child, flags.vfork)
        })?;
        return Ok(child);
    }
    // No VM sharing: plain fork, with CLONE_PT_SHARE deciding the
    // page-table copy strategy.
    let calling = kernel.process(parent)?.main_tid();
    let mode = if flags.pt_share {
        ForkMode::OnDemand
    } else {
        ForkMode::Cow
    };
    fork_from_thread(kernel, parent, calling, mode).map(|(child, _)| child)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_mem::{Prot, Share};

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn thread_flag_makes_thread() {
        let (mut k, p) = boot();
        let r = clone(
            &mut k,
            p,
            CloneFlags {
                vm: true,
                sighand: true,
                thread: true,
                ..Default::default()
            },
        )
        .unwrap();
        match r {
            CloneResult::Thread(_) => {}
            CloneResult::Process(_) => panic!("expected a thread"),
        }
        assert_eq!(k.process(p).unwrap().threads.len(), 2);
        assert_eq!(k.process_count(), 1);
    }

    #[test]
    fn invalid_flag_combos_rejected() {
        let (mut k, p) = boot();
        assert_eq!(
            clone(
                &mut k,
                p,
                CloneFlags {
                    thread: true,
                    ..Default::default()
                }
            ),
            Err(Errno::Einval)
        );
        assert_eq!(
            clone(
                &mut k,
                p,
                CloneFlags {
                    sighand: true,
                    ..Default::default()
                }
            ),
            Err(Errno::Einval)
        );
        assert_eq!(
            clone(
                &mut k,
                p,
                CloneFlags {
                    thread: true,
                    vm: true,
                    ..Default::default()
                }
            ),
            Err(Errno::Einval),
            "CLONE_THREAD needs CLONE_SIGHAND too"
        );
    }

    #[test]
    fn vm_without_thread_shares_memory_across_processes() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 2, Prot::RW, Share::Private).unwrap();
        let r = clone(
            &mut k,
            p,
            CloneFlags {
                vm: true,
                ..Default::default()
            },
        )
        .unwrap();
        let c = match r {
            CloneResult::Process(c) => c,
            _ => unreachable!(),
        };
        k.write_mem(c, base, 11).unwrap();
        assert_eq!(k.read_mem(p, base), Ok(11), "CLONE_VM shares writes");
        assert_eq!(
            k.process(p).unwrap().schedulable_threads(),
            1,
            "no vfork park"
        );
    }

    #[test]
    fn vm_plus_vfork_parks_parent() {
        let (mut k, p) = boot();
        let r = clone(
            &mut k,
            p,
            CloneFlags {
                vm: true,
                vfork: true,
                ..Default::default()
            },
        )
        .unwrap();
        let c = match r {
            CloneResult::Process(c) => c,
            _ => unreachable!(),
        };
        assert_eq!(k.process(p).unwrap().schedulable_threads(), 0);
        k.exit(c, 0).unwrap();
        assert_eq!(k.process(p).unwrap().schedulable_threads(), 1);
    }

    #[test]
    fn pt_share_with_vm_rejected() {
        let (mut k, p) = boot();
        assert_eq!(
            clone(
                &mut k,
                p,
                CloneFlags {
                    vm: true,
                    pt_share: true,
                    ..Default::default()
                }
            ),
            Err(Errno::Einval),
            "nothing to defer when the space is shared outright"
        );
    }

    #[test]
    fn pt_share_clone_is_on_demand_fork() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 8, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 8).unwrap();
        k.write_mem(p, base, 5).unwrap();
        let used = k.phys.used_frames();
        let r = clone(
            &mut k,
            p,
            CloneFlags {
                pt_share: true,
                ..Default::default()
            },
        )
        .unwrap();
        let c = match r {
            CloneResult::Process(c) => c,
            _ => unreachable!(),
        };
        assert_eq!(k.phys.used_frames(), used, "no frames copied at clone");
        k.write_mem(c, base, 6).unwrap();
        assert_eq!(k.read_mem(p, base), Ok(5), "private copy, not shared");
        assert_eq!(k.read_mem(c, base), Ok(6));
    }

    #[test]
    fn plain_clone_is_fork() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 2, Prot::RW, Share::Private).unwrap();
        k.write_mem(p, base, 5).unwrap();
        let r = clone(&mut k, p, CloneFlags::default()).unwrap();
        let c = match r {
            CloneResult::Process(c) => c,
            _ => unreachable!(),
        };
        k.write_mem(c, base, 6).unwrap();
        assert_eq!(k.read_mem(p, base), Ok(5), "private copy, not shared");
    }

    #[test]
    fn clone_vm_copies_the_fd_table_with_or_without_files() {
        let (mut k, p) = boot();
        let r = clone(
            &mut k,
            p,
            CloneFlags {
                vm: true,
                ..Default::default()
            },
        )
        .unwrap();
        let c = match r {
            CloneResult::Process(c) => c,
            _ => unreachable!(),
        };
        assert_eq!(k.process(c).unwrap().fds.open_count(), 3);
        let r2 = clone(
            &mut k,
            p,
            CloneFlags {
                vm: true,
                ..Default::default()
            },
        )
        .unwrap();
        let c2 = match r2 {
            CloneResult::Process(c) => c,
            _ => unreachable!(),
        };
        assert_eq!(k.process(c2).unwrap().fds.open_count(), 3);
    }
}
