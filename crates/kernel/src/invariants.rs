//! Kernel-wide consistency checks, leak detection and observation.
//!
//! Three complementary tools back the transactional process-creation
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
//! * [`Kernel::observe`] records what the processes themselves could see —
//!   every PCB field, every signal, descriptor and mapping, page contents,
//!   the process tree and the files — and [`Observed::diff`] names each
//!   path where two observations differ. It judges by *equality with the
//!   world before*: a refused creation must leave an empty diff, and a
//!   child's observation says what its creation API handed it, whatever
//!   the mechanism.
//!
//! The checks return every violation found rather than the first, so a
//! failing test names the full damage.

use crate::file::FileObject;
use crate::kernel::Kernel;
use crate::pid::Pid;
use crate::signal::ALL_SIGS;
use crate::task::{Process, SpaceRef};
use crate::vfs::InodeKind;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ops::Range;

/// Numbers an [`Expected`] block counts.
const BLOCK: usize = 1024;

/// Expected references by frame or swap-slot number, in blocks of [`BLOCK`]
/// numbers, each allocated when a number in it is first counted: dense
/// within a block, so that a run of numbers is one slice add, and nothing
/// for the ranges nobody maps. Read back in ascending order.
#[derive(Debug, Default)]
struct Expected(Vec<Option<Box<[u32; BLOCK]>>>);

impl Expected {
    /// Expects `n` more references to each number of `run`.
    fn add(&mut self, run: Range<u64>, n: u32) {
        let (mut at, end) = (run.start as usize, run.end as usize);
        while at < end {
            let (b, first) = (at / BLOCK, at / BLOCK * BLOCK);
            if self.0.len() <= b {
                self.0.resize_with(b + 1, || None);
            }
            let block = self.0[b].get_or_insert_with(|| Box::new([0; BLOCK]));
            let stop = end.min(first + BLOCK);
            block[at - first..stop - first].iter_mut().for_each(|refs| *refs += n);
            at = stop;
        }
    }

    /// The blocks counted into, ascending, each with its first number.
    fn blocks(&self) -> impl Iterator<Item = (u64, &[u32; BLOCK])> + '_ {
        let blocks = self.0.iter().enumerate();
        blocks.filter_map(|(b, block)| Some(((b * BLOCK) as u64, &**block.as_ref()?)))
    }

    /// Every number expected to be referenced, ascending, with its count.
    fn held(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let numbered = self.blocks().flat_map(|(first, block)| (first..).zip(block.iter().copied()));
        numbered.filter(|&(_, refs)| refs > 0)
    }
}

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
        // Every uid of either snapshot, once.
        let new_uids = now.nproc.keys().filter(|uid| !base.nproc.contains_key(uid));
        for uid in base.nproc.keys().chain(new_uids) {
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
    ///
    /// Swap slots are held to the swap entries naming them as frames are
    /// to PTEs, and every page table to the counts it keeps beside its
    /// entries.
    ///
    /// The memory half costs one visit per leaf node of every owned space
    /// and one slice add per run: a node's frames go, a run of consecutive
    /// frames at a time, into a table of expected references indexed by
    /// frame number — dense blocks of 1 024, allocated where a frame is
    /// counted — its swap slots into a second, and each stretch of its
    /// entries is held to the VMAs once. The tables are then read against
    /// the frame table and the swap device in ascending order. On a
    /// populated parent that is a few `fork(Cow)`s of it
    /// (`tests/invariants_shape.rs`).
    pub fn check_invariants(&self) -> Result<(), Vec<String>> {
        let mut v = Vec::new();

        // --- Memory and swap: references vs page tables, PTEs vs VMAs. ---
        // One visit per leaf node of every owned space. A node an on-demand
        // fork shares appears in several spaces but holds each frame and
        // slot reference *once* (the refcounts count table slots, not
        // spaces): only the first space presenting it adds its runs to the
        // expected counts. The VMA coverage check still runs per space — a
        // shared subtree must be covered in every space referencing it.
        let (mut frames, mut slots) = (Expected::default(), Expected::default());
        let mut seen_shared: HashSet<usize> = HashSet::new();
        let mut swap_v = Vec::new();
        for p in self.procs.iter().filter(|p| p.space_ref == SpaceRef::Owned) {
            let (pid, space) = (p.pid, &p.aspace);
            let (mut entries, mut uncovered) = (0, false);
            for leaf in space.leaf_slots() {
                let first = leaf.shared().is_none_or(|id| seen_shared.insert(id));
                if first {
                    leaf.frame_runs().for_each(|run| frames.add(run, 1));
                }
                for slot in leaf.swap_slots() {
                    entries += 1;
                    if first {
                        slots.add(slot..slot + 1, 1);
                    }
                }
                uncovered |= !leaf.spans().all(|span| space.covers(span));
            }
            // Only a space with a span some VMA leaves uncovered is gone
            // through a page at a time, for the messages.
            if uncovered {
                space.for_each_resident(|vpn, _| {
                    if space.vma_at(vpn).is_none() {
                        v.push(format!("pid {pid}: resident page {} outside any VMA", vpn.0));
                    }
                });
                space.for_each_swap_entry_keyed(|_, vpn, _| {
                    if space.vma_at(vpn).is_none() {
                        swap_v.push(format!("pid {pid}: swap entry {} outside any VMA", vpn.0));
                    }
                });
            }
            // The counts the table keeps beside its entries (fork shares a
            // node, and teardown drops one, on their word alone).
            if let Err(e) = space.check_page_table() {
                v.push(format!("pid {pid}: page table: {e}"));
            }
            if entries != space.swapped_pages() {
                swap_v.push(format!(
                    "pid {pid}: swapped counter {} but {entries} swap entries present",
                    space.swapped_pages()
                ));
            }
        }
        // Kernel pins (exec image cache) hold references too; a frame held
        // only by pins must still balance and count as used.
        for (pfn, pins) in self.phys.pinned() {
            frames.add(pfn.0..pfn.0 + 1, pins);
        }
        let mut mapped = 0;
        for (first, block) in frames.blocks() {
            let actual = self.phys.refs_in(first..first + BLOCK as u64);
            for ((pfn, &expect), actual) in (first..).zip(block).zip(actual) {
                match (expect, actual) {
                    (0, _) => continue,
                    _ if actual == expect => {}
                    (_, 0) => v.push(format!("frame {pfn}: mapped by a PTE but not allocated")),
                    _ => v.push(format!(
                        "frame {pfn}: refcount {actual} but {expect} PTEs map it"
                    )),
                }
                mapped += 1;
            }
        }
        if mapped != self.phys.used_frames() {
            v.push(format!(
                "{} frames in use but {mapped} distinct frames mapped",
                self.phys.used_frames()
            ));
        }
        v.append(&mut swap_v);
        let mut named = 0;
        for (slot, expect) in slots.held() {
            named += 1;
            match self.phys.swap().refs(slot) {
                Ok(actual) if actual == expect => {}
                Ok(actual) => v.push(format!(
                    "swap slot {slot}: refcount {actual} but {expect} swap entries name it"
                )),
                Err(_) => v.push(format!("swap slot {slot}: named by a PTE but not allocated")),
            }
        }
        if named != self.phys.swap().used_slots() {
            v.push(format!(
                "{} swap slots in use but {named} distinct slots referenced",
                self.phys.swap().used_slots()
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

/// What the processes of a kernel could see of it, by path: every entry
/// is one piece of state — `pid 3/sig Usr1`, `pid 3/fd 1`,
/// `pid 3/vma 0x4000/content`, `vfs 7` — with its value rendered as text
/// (the `Debug` form of the kernel's own type where there is one). Built
/// by [`Kernel::observe`]; two observations compare path by path
/// ([`Observed::diff`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed(BTreeMap<String, String>);

impl Observed {
    /// One line per path whose value differs between `self` and `other`,
    /// ascending by path: the path, then its value in each (`-` where it
    /// is absent). Empty iff the two are equal.
    pub fn diff(&self, other: &Observed) -> Vec<String> {
        if self == other {
            return Vec::new();
        }
        let paths: BTreeSet<&String> = self.0.keys().chain(other.0.keys()).collect();
        let shown = |v: Option<&String>| v.map_or("-", |v| v.as_str()).to_string();
        paths
            .into_iter()
            .filter(|p| self.0.get(*p) != other.0.get(*p))
            .map(|p| format!("{p}: {} -> {}", shown(self.0.get(p)), shown(other.0.get(p))))
            .collect()
    }

    /// The value at `path`, if it was observed.
    pub fn get(&self, path: &str) -> Option<&str> {
        self.0.get(path).map(String::as_str)
    }

    /// The entries of process `pid`, with its `pid N/` prefix taken off,
    /// so that two processes' observations compare as two worlds do.
    pub fn process(&self, pid: Pid) -> Observed {
        let prefix = format!("pid {}/", pid.0);
        let under = self.0.range(prefix.clone()..).take_while(|(k, _)| k.starts_with(&prefix));
        under.map(|(k, v)| (k[prefix.len()..].to_string(), v.clone())).collect()
    }

    /// Every (path, value), ascending by path.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

impl FromIterator<(String, String)> for Observed {
    fn from_iter<I: IntoIterator<Item = (String, String)>>(entries: I) -> Observed {
        Observed(entries.into_iter().collect())
    }
}

/// The splitmix64 finaliser: spreads one word over all 64 bits.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One number standing for `bytes` (a file's data, the console).
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(bytes.len() as u64, |h, &b| mix(h ^ u64::from(b)))
}

impl Kernel {
    /// Observes every process in the table — zombies too — and the
    /// machine around them ([`Observed`]). Per PID:
    ///
    /// * identity: name, argv, envp, umask, cwd, credentials, rlimits,
    ///   pgid, sid, OOM adjustment, parent, children and state (a
    ///   zombie's exit status with it), and a pending alarm;
    /// * every signal's disposition, mask bit and pending bit;
    /// * each descriptor: its description's identity, object, offset and
    ///   flags, and `FD_CLOEXEC`;
    /// * userspace state: threads by their place in the process, stream
    ///   buffers, locks and who holds them, atfork registrations;
    /// * memory: how the space is held, the layout, every VMA with its
    ///   protection, sharing, fork policy, backing and kind, and one
    ///   content digest per VMA.
    ///
    /// Machine-wide: the pipes with what they buffer, the console and the
    /// VFS. Cycles, statistics, metrics and frame numbers are left out,
    /// so two worlds that differ only in how they got there observe
    /// equal. A VMA's digest folds only the resident and swapped pages
    /// whose content differs from what a fault would install, each read
    /// without faulting — a resident page from its frame, a swapped one
    /// through [`fpr_mem::AddressSpace::observe`]: an observation costs
    /// O(VMAs + resident pages), and a populate that wrote nothing new is
    /// invisible. Reads only — it charges no cycle, crosses no fault site
    /// and emits no trace event.
    pub fn observe(&self) -> Observed {
        let mut o = Vec::new();
        for p in self.procs.iter() {
            let prefix = format!("pid {}/", p.pid.0);
            self.observe_process(p, &mut |path, value| o.push((prefix.clone() + path, value)));
        }
        for (id, pipe) in self.pipes.iter() {
            o.push((format!("pipe {}", id.0), format!("{pipe:?}")));
        }
        for (ino, kind) in self.vfs.inodes() {
            let value = match kind {
                InodeKind::File { data, generation } => {
                    format!("file of {} bytes, generation {generation}, digest {:#x}", data.len(), digest(data))
                }
                InodeKind::Dir { entries } => format!("dir {entries:?}"),
            };
            o.push((format!("vfs {}", ino.0), value));
        }
        let console = format!("{} bytes, digest {:#x}", self.console.len(), digest(&self.console));
        o.push(("console".to_string(), console));
        o.into_iter().collect()
    }

    /// [`Kernel::observe`]'s entries for one process, each handed to `put`
    /// as (path under the process, value).
    fn observe_process(&self, p: &Process, put: &mut dyn FnMut(&str, String)) {
        let identity: [(&str, &dyn std::fmt::Debug); 13] = [
            ("name", &p.name),
            ("argv", &p.argv),
            ("envp", &p.envp),
            ("umask", &p.umask),
            ("cwd", &p.cwd),
            ("cred", &p.cred),
            ("rlimits", &p.rlimits),
            ("pgid", &p.pgid),
            ("sid", &p.sid),
            ("oom_score_adj", &p.oom_score_adj),
            ("ppid", &p.ppid),
            ("children", &p.children),
            ("state", &p.state),
        ];
        for (path, value) in identity {
            put(path, format!("{value:?}"));
        }
        for alarm in self.alarms.iter().filter(|a| a.pid == p.pid) {
            put("alarm", format!("at {} ns", alarm.deadline_ns));
        }
        for sig in ALL_SIGS {
            let s = &p.signals;
            let blocked = if s.is_blocked(sig) { "blocked" } else { "unblocked" };
            let pending = if s.is_pending(sig) { "pending" } else { "not pending" };
            put(&format!("sig {sig:?}"), format!("{:?}, {blocked}, {pending}", s.disposition(sig)));
        }
        for (fd, e) in p.fds.iter() {
            let what = match self.ofds.get(e.ofd) {
                Ok(d) => format!("{:?} at {} {:?}", d.object, d.offset, d.flags),
                Err(_) => "dead".to_string(),
            };
            put(&format!("fd {}", fd.0), format!("ofd {} {what}, cloexec {}", e.ofd.0, e.cloexec));
        }
        // A thread is named by its place in the process, so a child's copy
        // of its parent's forking thread reads as that thread did.
        for (i, t) in p.threads.iter().enumerate() {
            put(&format!("thread {i}"), format!("{:?} holding {:?}", t.state, t.holding));
        }
        for (i, s) in p.streams.iter().enumerate() {
            put(&format!("stream {i}"), format!("{s:?}"));
        }
        for l in p.locks.iter() {
            let owner = match l.owner {
                None => "nobody".to_string(),
                Some(tid) => match p.threads.iter().position(|t| t.tid == tid) {
                    Some(i) => format!("thread {i}"),
                    None => format!("{tid:?}, not a thread of this process"),
                },
            };
            put(&format!("lock {}", l.id.0), format!("name {} held by {owner}", l.name_id));
        }
        for (i, reg) in p.atfork.completion_order().iter().enumerate() {
            put(&format!("atfork {i}"), format!("{reg:?}"));
        }
        put("space", format!("{:?}", p.space_ref));
        put("layout", format!("{:?}", p.layout));
        // Resident pages come in ascending order, so a cursor finds each
        // one's VMA; a swapped page is read through `observe`.
        let (space, vmas) = (&p.aspace, p.aspace.vmas().collect::<Vec<_>>());
        let mut content = vec![0u64; vmas.len()];
        let mut fold = |at: &mut usize, vpn: fpr_mem::Vpn, now: Option<u64>| {
            while vmas.get(*at).is_some_and(|v| v.end() <= vpn) {
                *at += 1;
            }
            let Some(vma) = vmas.get(*at).filter(|v| v.start <= vpn) else { return };
            let now = now.or_else(|| space.observe(vpn, &self.phys).ok());
            if let Some(now) = now.filter(|&now| now != vma.initial_content(vpn)) {
                content[*at] = content[*at].wrapping_add(mix(mix(vpn.0) ^ now));
            }
        };
        let mut at = 0;
        space.for_each_resident(|vpn, pte| fold(&mut at, vpn, self.phys.content(pte.pfn).ok()));
        let mut at = 0;
        space.for_each_swap_entry_keyed(|_, vpn, _| fold(&mut at, vpn, None));
        for (v, content) in vmas.iter().zip(content) {
            let (prot, share, policy) = (v.prot, v.share, v.fork_policy);
            let record = format!("{} pages {prot:?} {share:?} {policy:?} {:?} {:?}", v.pages, v.backing, v.kind);
            let path = format!("vma {:#x}", v.start.0);
            put(&format!("{path}/content"), format!("{content:#018x}"));
            put(&path, record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Sig;
    use fpr_mem::{ForkMode, Prot, Share, Vpn};

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
        k.copy_space(init, child, ForkMode::Cow).unwrap();
        k.copy_fd_table(init, child).unwrap();
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
    fn leak_check_reports_a_changed_nproc_once() {
        let (mut k, init) = boot();
        let base = k.baseline();
        k.allocate_process(init, "extra").unwrap();
        let err = k.leak_check(&base).unwrap_err();
        let nproc: Vec<_> = err.iter().filter(|m| m.starts_with("nproc of uid")).collect();
        assert_eq!(nproc, ["nproc of uid 0: 1 before vs 2 after"]);
    }

    #[test]
    fn abort_process_creation_restores_baseline() {
        let (mut k, init) = boot();
        let base = k.baseline();
        let child = k.allocate_process(init, "doomed").unwrap();
        k.copy_space(init, child, ForkMode::Cow).unwrap();
        k.copy_fd_table(init, child).unwrap();
        k.abort_process_creation(child).unwrap();
        k.leak_check(&base).unwrap();
        k.assert_consistent();
    }

    /// A world with something of every class [`Kernel::observe`] records:
    /// init with a populated private mapping holding a written page and an
    /// open file, and a zombie child.
    fn observed_world() -> (Kernel, Pid, Pid, Vpn) {
        let (mut k, init) = boot();
        let base = k.mmap_anon(init, 4, Prot::RW, Share::Private).unwrap();
        k.populate(init, base, 4).unwrap();
        k.write_mem(init, base, 7).unwrap();
        k.open(init, "/f", crate::file::OpenFlags::RDWR, true).unwrap();
        let child = k.allocate_process(init, "c").unwrap();
        k.exit(child, 3).unwrap();
        (k, init, child, base)
    }

    #[test]
    fn a_world_observes_equal_to_itself() {
        let (k, ..) = observed_world();
        assert_eq!(k.observe().diff(&k.observe()), Vec::<String>::new());
        assert!(k.observe().get("pid 2/state").is_some_and(|s| s == "Zombie(3)"));
    }

    #[test]
    fn one_edit_of_each_class_is_one_entry_naming_its_path() {
        type Edit = fn(&mut Kernel, Pid, Pid, Vpn);
        let (_, init, child, base) = observed_world();
        let vma = format!("pid {}/vma {:#x}", init.0, base.0);
        let edits: [(String, Edit); 5] = [
            (format!("pid {}/sig Usr1", init.0), |k, init, _, _| {
                k.sigprocmask(init, Sig::Usr1, true).unwrap()
            }),
            (format!("pid {}/fd 0", init.0), |k, init, _, _| {
                k.set_cloexec(init, crate::fdtable::Fd(0), true).unwrap()
            }),
            (vma.clone(), |k, init, _, base| k.mprotect(init, base, 4, Prot::R).unwrap()),
            (format!("{vma}/content"), |k, init, _, base| {
                k.write_mem(init, base.add(1), 9).unwrap();
            }),
            (format!("pid {}/state", child.0), |k, _, child, _| {
                k.process_mut(child).unwrap().state = crate::task::ProcState::Zombie(4)
            }),
        ];
        for (path, edit) in edits {
            let (mut k, init, child, base) = observed_world();
            let before = k.observe();
            edit(&mut k, init, child, base);
            let diff = before.diff(&k.observe());
            assert_eq!(diff.len(), 1, "{path}: {diff:?}");
            assert!(diff[0].starts_with(&format!("{path}: ")), "{path}: {diff:?}");
        }
    }

    #[test]
    fn a_populate_that_writes_nothing_new_is_invisible() {
        let (mut k, init, ..) = observed_world();
        let base = k.mmap_anon(init, 8, Prot::RW, Share::Private).unwrap();
        let before = k.observe();
        k.populate(init, base, 8).unwrap();
        assert_eq!(before.diff(&k.observe()), Vec::<String>::new());
    }

    #[test]
    fn observing_charges_crosses_and_emits_nothing() {
        let (k, ..) = observed_world();
        let cycles = k.cycles.total();
        let ((o, events), trace) = fpr_faults::with_plan(fpr_faults::FaultPlan::passive(), || {
            fpr_trace::sink::with_sink(|| k.observe())
        });
        assert!(o.iter().count() > 0);
        assert_eq!((trace.len(), events.len()), (0, 0), "crossings {trace:?}, events {events:?}");
        assert_eq!(k.cycles.total(), cycles);
    }
}
