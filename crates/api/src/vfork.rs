//! `vfork(2)`: fast, dangerous, and deprecated for a reason.
//!
//! The child borrows the parent's memory — no copy at all, so creation
//! cost is O(1) in parent size — but until the child execs or exits, the
//! parent is suspended and every child write scribbles on the parent's
//! memory: its pages, and the userspace state living there. A lock a
//! parked parent thread holds deadlocks the child (`EDEADLK`), and the
//! child's stream writes fill the parent's buffers, which its exit flushes.
//! The paper groups vfork with the "performance hack" escape hatches that
//! exist only because fork proper is slow.

use crate::clone::{clone_process, CloneFlags};
use fpr_kernel::{KResult, Kernel, Pid};

/// vforks `parent`: the child shares the parent's address space and the
/// parent's threads are parked until the child execs or exits.
///
/// Inherits descriptors (copied table, shared descriptions), signal state
/// and identity exactly like fork — the only difference is the memory.
/// Literally `clone(CLONE_VM | CLONE_VFORK)` under its own span.
pub fn vfork(kernel: &mut Kernel, parent: Pid) -> KResult<Pid> {
    let flags = CloneFlags {
        vm: true,
        vfork: true,
        ..CloneFlags::default()
    };
    kernel.span_with(
        "vfork",
        "api",
        |ev| ev.arg("parent", parent.0 as u64),
        |kernel| clone_process(kernel, parent, flags),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_exec::{Image, ImageRegistry};
    use fpr_mem::{Prot, Share};

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn vfork_cost_independent_of_parent_size() {
        let (mut k, p) = boot();
        let c0 = k.cycles.total();
        let c1 = vfork(&mut k, p).unwrap();
        let small_cost = k.cycles.total() - c0;
        k.exit(c1, 0).unwrap();
        k.waitpid(p, Some(c1)).unwrap();

        let base = k.mmap_anon(p, 4096, Prot::RW, Share::Private).unwrap();
        k.populate(p, base, 4096).unwrap();
        let c2 = k.cycles.total();
        let _child = vfork(&mut k, p).unwrap();
        let big_cost = k.cycles.total() - c2;
        assert_eq!(small_cost, big_cost, "vfork is O(1) in parent size");
    }

    #[test]
    fn child_writes_scribble_on_parent() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 4, Prot::RW, Share::Private).unwrap();
        k.write_mem(p, base, 1).unwrap();
        let c = vfork(&mut k, p).unwrap();
        // The classic vfork bug: the child's write is the parent's write.
        k.write_mem(c, base, 99).unwrap();
        assert_eq!(k.read_mem(p, base), Ok(99));
    }

    #[test]
    fn parent_parked_until_child_exits() {
        let (mut k, p) = boot();
        let c = vfork(&mut k, p).unwrap();
        assert_eq!(
            k.process(p).unwrap().schedulable_threads(),
            0,
            "parent parked"
        );
        k.exit(c, 0).unwrap();
        assert_eq!(
            k.process(p).unwrap().schedulable_threads(),
            1,
            "parent resumed"
        );
    }

    #[test]
    fn parent_resumes_on_child_exec() {
        let (mut k, p) = boot();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        let base = k.mmap_anon(p, 4, Prot::RW, Share::Private).unwrap();
        k.write_mem(p, base, 7).unwrap();
        let c = vfork(&mut k, p).unwrap();
        fpr_exec::execve(&mut k, c, &reg, "/bin/tool", 5).unwrap();
        assert_eq!(k.process(p).unwrap().schedulable_threads(), 1);
        // After exec the spaces are disjoint again.
        k.write_mem(c, fpr_mem::Vpn(k.process(c).unwrap().layout.heap_base), 3)
            .unwrap();
        assert_eq!(k.read_mem(p, base), Ok(7));
        assert!(matches!(k.process(c).unwrap().space, fpr_kernel::Space::Own(_)));
    }

    #[test]
    fn nested_vfork_chain_routes_to_root_owner() {
        let (mut k, p) = boot();
        let base = k.mmap_anon(p, 2, Prot::RW, Share::Private).unwrap();
        let c1 = vfork(&mut k, p).unwrap();
        let c2 = vfork(&mut k, c1).unwrap();
        k.write_mem(c2, base, 5).unwrap();
        assert_eq!(k.read_mem(p, base), Ok(5));
        k.exit(c2, 0).unwrap();
        k.exit(c1, 0).unwrap();
        assert_eq!(k.process(p).unwrap().schedulable_threads(), 1);
    }
}
