//! Kernel-wide consistency checks and leak detection.
//!
//! Two complementary tools back the transactional process-creation
//! guarantee:
//!
//! * [`Kernel::check_invariants`] verifies *structural* consistency at any
//!   instant — frame reference counts match the page tables that use them,
//!   every PTE lies inside a VMA, descriptor references balance, the
//!   process tree is well-linked, and per-uid accounting matches the live
//!   set.
//! * [`Kernel::baseline`] + [`Kernel::leak_check`] verify *temporal*
//!   cleanliness: snapshot before an operation, and after a failed (or
//!   fully undone) operation assert that nothing — frames, commit charge,
//!   PIDs, descriptions, pipes, inodes — was left behind.
//!
//! Both return every violation found rather than the first, so a failing
//! test names the full damage.

use crate::file::FileObject;
use crate::kernel::Kernel;
use crate::task::SpaceRef;
use std::collections::BTreeMap;

/// A snapshot of every leak-prone global resource count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelBaseline {
    /// Physical frames in use.
    pub used_frames: u64,
    /// Commit charge.
    pub committed: u64,
    /// PIDs this kernel holds out of the machine-wide table.
    pub live_pids: usize,
    /// Process-table entries (including zombies).
    pub processes: usize,
    /// Live open file descriptions.
    pub live_ofds: usize,
    /// Live pipes.
    pub live_pipes: usize,
    /// Filesystem inodes.
    pub inodes: usize,
    /// Swap slots in use.
    pub swap_used: u64,
    /// Per-uid live process counts.
    pub nproc: BTreeMap<u32, u64>,
}

impl Kernel {
    /// Snapshots the resource counts [`Kernel::leak_check`] compares.
    pub fn baseline(&self) -> KernelBaseline {
        KernelBaseline {
            used_frames: self.phys.used_frames(),
            committed: self.commit.committed(),
            live_pids: self.held_pids,
            processes: self.procs.len(),
            live_ofds: self.ofds.live(),
            live_pipes: self.pipes.live(),
            inodes: self.vfs.inode_count(),
            swap_used: self.phys.swap().used_slots(),
            nproc: self.user_counts.clone(),
        }
    }

    /// Compares current resource counts against `base`, returning one
    /// message per divergence. An operation that failed (and claimed to
    /// roll back) must leave the kernel passing this check.
    pub fn leak_check(&self, base: &KernelBaseline) -> Result<(), Vec<String>> {
        let now = self.baseline();
        let mut v = Vec::new();
        let mut cmp = |what: &str, before: u64, after: u64| {
            if before != after {
                v.push(format!("{what}: {before} before vs {after} after"));
            }
        };
        cmp("used frames", base.used_frames, now.used_frames);
        cmp("commit charge", base.committed, now.committed);
        cmp("live pids", base.live_pids as u64, now.live_pids as u64);
        cmp("process-table entries", base.processes as u64, now.processes as u64);
        cmp("open file descriptions", base.live_ofds as u64, now.live_ofds as u64);
        cmp("pipes", base.live_pipes as u64, now.live_pipes as u64);
        cmp("inodes", base.inodes as u64, now.inodes as u64);
        cmp("swap slots", base.swap_used, now.swap_used);
        for uid in base.nproc.keys().chain(now.nproc.keys()) {
            let b = base.nproc.get(uid).copied().unwrap_or(0);
            let a = now.nproc.get(uid).copied().unwrap_or(0);
            if b != a {
                v.push(format!("nproc of uid {uid}: {b} before vs {a} after"));
            }
        }
        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }

    /// Verifies the kernel's cross-structure invariants, returning one
    /// message per violation:
    ///
    /// 1. every frame's reference count equals the number of PTEs mapping
    ///    it across all owned address spaces plus its kernel pins (no
    ///    over- or under-counted COW sharing, no orphaned image-cache
    ///    entries);
    /// 2. every resident page lies inside a VMA of its space;
    /// 3. every descriptor references a live open file description, and
    ///    each description's reference count equals the number of
    ///    descriptors naming it;
    /// 4. pipe end counts equal the live descriptions holding each end;
    /// 5. the process tree is well-linked (parents exist or are init,
    ///    parent/child edges are symmetric, no orphan PIDs in the
    ///    allocator) and per-uid accounting matches the live process set.
    pub fn check_invariants(&self) -> Result<(), Vec<String>> {
        fpr_trace::metrics::incr("kernel.invariant_check");
        let mut v = Vec::new();

        // --- Memory: frame refcounts vs page tables, PTEs vs VMAs. ---
        // A leaf page-table node shared by an on-demand fork appears in
        // several spaces but holds each frame reference *once* (the frame
        // refcount counts table slots, not spaces). Deduplicate by node
        // identity: only the first space presenting a node contributes its
        // PTEs to the expected refcounts. The VMA-coverage check still
        // runs per space — a shared subtree must be covered in every
        // space referencing it.
        let mut pte_refs: BTreeMap<u64, u32> = BTreeMap::new();
        let mut seen_nodes: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for p in self.procs.iter() {
            if p.space_ref != SpaceRef::Owned {
                continue;
            }
            let pid = p.pid;
            // Stage this space's nodes separately: a node yields many PTEs
            // and all of them must count, not just those before the node
            // is marked seen.
            let mut new_nodes: Vec<usize> = Vec::new();
            p.aspace.for_each_resident_keyed(|nid, vpn, pte| {
                if !seen_nodes.contains(&nid) {
                    *pte_refs.entry(pte.pfn.0).or_insert(0) += 1;
                    new_nodes.push(nid);
                }
                if p.aspace.vma_at(vpn).is_none() {
                    v.push(format!("pid {pid}: resident page {} outside any VMA", vpn.0));
                }
            });
            seen_nodes.extend(new_nodes);
            // The counts the table keeps beside its entries (fork shares a
            // node, and teardown drops one, on their word alone).
            if let Err(e) = p.aspace.check_page_table() {
                v.push(format!("pid {pid}: page table: {e}"));
            }
        }
        // Kernel pins (exec image cache) hold references too; a frame held
        // only by pins must still balance and count as used.
        for (pfn, pins) in self.phys.pinned() {
            *pte_refs.entry(pfn.0).or_insert(0) += pins;
        }
        for (pfn, expect) in &pte_refs {
            match self.phys.refs(fpr_mem::Pfn(*pfn)) {
                Ok(actual) if actual == *expect => {}
                Ok(actual) => v.push(format!(
                    "frame {pfn}: refcount {actual} but {expect} PTEs map it"
                )),
                Err(_) => v.push(format!("frame {pfn}: mapped by a PTE but not allocated")),
            }
        }
        if pte_refs.len() as u64 != self.phys.used_frames() {
            v.push(format!(
                "{} frames in use but {} distinct frames mapped",
                self.phys.used_frames(),
                pte_refs.len()
            ));
        }

        // --- Swap: slot refcounts vs swap-entry PTEs. ---
        // Same node-identity dedup as frames: a leaf subtree shared by an
        // on-demand fork holds each slot reference once, and each space's
        // `swapped` counter must match its own swap-entry population.
        let mut slot_refs: BTreeMap<u64, u32> = BTreeMap::new();
        let mut seen_swap_nodes: std::collections::BTreeSet<usize> =
            std::collections::BTreeSet::new();
        for p in self.procs.iter() {
            if p.space_ref != SpaceRef::Owned {
                continue;
            }
            let pid = p.pid;
            let mut new_nodes: Vec<usize> = Vec::new();
            let mut entries: u64 = 0;
            p.aspace.for_each_swap_entry_keyed(|nid, vpn, slot| {
                entries += 1;
                if !seen_swap_nodes.contains(&nid) {
                    *slot_refs.entry(slot).or_insert(0) += 1;
                    new_nodes.push(nid);
                }
                if p.aspace.vma_at(vpn).is_none() {
                    v.push(format!("pid {pid}: swap entry {} outside any VMA", vpn.0));
                }
            });
            seen_swap_nodes.extend(new_nodes);
            if entries != p.aspace.swapped_pages() {
                v.push(format!(
                    "pid {pid}: swapped counter {} but {entries} swap entries present",
                    p.aspace.swapped_pages()
                ));
            }
        }
        let device: BTreeMap<u64, u32> = self.phys.swap().used_slot_refs().into_iter().collect();
        for (slot, expect) in &slot_refs {
            match device.get(slot) {
                Some(actual) if actual == expect => {}
                Some(actual) => v.push(format!(
                    "swap slot {slot}: refcount {actual} but {expect} swap entries name it"
                )),
                None => v.push(format!("swap slot {slot}: named by a PTE but not allocated")),
            }
        }
        if slot_refs.len() as u64 != self.phys.swap().used_slots() {
            v.push(format!(
                "{} swap slots in use but {} distinct slots referenced",
                self.phys.swap().used_slots(),
                slot_refs.len()
            ));
        }

        // --- Descriptors: fd -> ofd edges and reference counts. ---
        let mut fd_refs: BTreeMap<u32, u32> = BTreeMap::new();
        for p in self.procs.iter() {
            for (fd, entry) in p.fds.iter() {
                *fd_refs.entry(entry.ofd.0).or_insert(0) += 1;
                if self.ofds.get(entry.ofd).is_err() {
                    v.push(format!(
                        "pid {}: fd {} references dead ofd {}",
                        p.pid, fd.0, entry.ofd.0
                    ));
                }
            }
        }
        let mut pipe_ends: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
        for (id, ofd) in self.ofds.iter() {
            let expect = fd_refs.get(&id.0).copied().unwrap_or(0);
            if ofd.ref_count() != expect {
                v.push(format!(
                    "ofd {}: refcount {} but {} descriptors reference it",
                    id.0,
                    ofd.ref_count(),
                    expect
                ));
            }
            match ofd.object {
                FileObject::PipeRead(p) => pipe_ends.entry(p.0).or_default().0 += 1,
                FileObject::PipeWrite(p) => pipe_ends.entry(p.0).or_default().1 += 1,
                _ => {}
            }
        }

        // --- Pipes: end counts vs descriptions. ---
        for (id, pipe) in self.pipes.iter() {
            let (r, w) = pipe_ends.get(&id.0).copied().unwrap_or((0, 0));
            if pipe.readers != r || pipe.writers != w {
                v.push(format!(
                    "pipe {}: end counts ({}, {}) but descriptions hold ({r}, {w})",
                    id.0, pipe.readers, pipe.writers
                ));
            }
        }

        // --- Process tree and accounting. ---
        let mut live_by_uid: BTreeMap<u32, u64> = BTreeMap::new();
        for p in self.procs.iter() {
            if !p.is_zombie() {
                *live_by_uid.entry(p.cred.uid).or_insert(0) += 1;
            }
            if p.ppid != p.pid && self.procs.get(p.ppid).is_none() {
                v.push(format!("pid {}: parent {} does not exist", p.pid, p.ppid));
            }
            if p.ppid != p.pid {
                let listed = self
                    .procs
                    .get(p.ppid)
                    .is_some_and(|pp| pp.children.contains(&p.pid));
                if !listed {
                    v.push(format!(
                        "pid {}: not in parent {}'s child list",
                        p.pid, p.ppid
                    ));
                }
            }
            for c in &p.children {
                if self.procs.get(*c).is_none() {
                    v.push(format!("pid {}: lists dead child {}", p.pid, c));
                }
            }
        }
        if self.held_pids != self.procs.len() {
            v.push(format!(
                "{} PIDs allocated but {} process-table entries",
                self.held_pids,
                self.procs.len()
            ));
        }
        for (uid, count) in &live_by_uid {
            let booked = self.user_counts.get(uid).copied().unwrap_or(0);
            if booked != *count {
                v.push(format!(
                    "uid {uid}: accounting says {booked} live processes, table has {count}"
                ));
            }
        }
        for (uid, booked) in &self.user_counts {
            if *booked > 0 && !live_by_uid.contains_key(uid) {
                v.push(format!(
                    "uid {uid}: accounting says {booked} live processes, table has 0"
                ));
            }
        }

        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }

    /// Convenience for tests: panic with every violation listed.
    pub fn assert_consistent(&self) {
        if let Err(violations) = self.check_invariants() {
            panic!("kernel invariants violated:\n  {}", violations.join("\n  "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pid::Pid;
    use fpr_mem::{ForkMode, Prot, Share};

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn fresh_kernel_is_consistent() {
        let (k, _) = boot();
        k.assert_consistent();
    }

    #[test]
    fn consistent_through_mmap_fork_pipe() {
        let (mut k, init) = boot();
        let base = k.mmap_anon(init, 8, Prot::RW, Share::Private).unwrap();
        k.populate(init, base, 8).unwrap();
        k.pipe(init).unwrap();
        let child = k.allocate_process(init, "c").unwrap();
        let space = k.clone_address_space(init, ForkMode::Cow).unwrap();
        let fds = k.clone_fd_table(init).unwrap();
        {
            let p = k.process_mut(child).unwrap();
            p.aspace = space;
            p.fds = fds;
        }
        k.assert_consistent();
        k.exit(child, 0).unwrap();
        k.waitpid(init, Some(child)).unwrap();
        k.assert_consistent();
    }

    #[test]
    fn leak_check_catches_unbalanced_state() {
        let (mut k, init) = boot();
        let base = k.baseline();
        // A successful mmap is a real (wanted) state change, so the
        // baseline comparison reports it.
        k.mmap_anon(init, 4, Prot::RW, Share::Private).unwrap();
        let err = k.leak_check(&base).unwrap_err();
        assert!(err.iter().any(|m| m.contains("commit charge")));
    }

    #[test]
    fn abort_process_creation_restores_baseline() {
        let (mut k, init) = boot();
        let base = k.baseline();
        let child = k.allocate_process(init, "doomed").unwrap();
        let space = k.clone_address_space(init, ForkMode::Cow).unwrap();
        let fds = k.clone_fd_table(init).unwrap();
        {
            let p = k.process_mut(child).unwrap();
            p.aspace = space;
            p.fds = fds;
        }
        k.abort_process_creation(child).unwrap();
        k.leak_check(&base).unwrap();
        k.assert_consistent();
    }
}
