//! `Kernel::check_invariants` against the per-PTE pass it replaced.
//!
//! [`reference`] is the checker's memory and swap sections as they were
//! first written, kept here unchanged: every resident page and every swap
//! entry of every owned space, one at a time, counted into a `BTreeMap` per
//! frame and per slot unless the leaf node holding it was met in an earlier
//! space (a `BTreeSet` of node identities), and each looked up in its
//! space's VMAs; then the maps against the frame table and the swap device.
//!
//! Seeded `kit` worlds run it: fork trees in all three modes, a THP parent
//! on odd seeds, parent pages swapped out before an on-demand fork shares
//! the nodes holding them, the spawn fast path's image-cache pins on every
//! third seed, zombies and, last, a vfork borrower. Each world is checked
//! after every step of its script, and again after one corruption the
//! public API can make — a frame's reference dropped once or down to zero,
//! a frame or a swap slot taken and never mapped, a slot freed under the
//! entry naming it, a space left out of the count, a space cloned into a
//! second process. `check_invariants` must return the reference's messages
//! exactly, in order; guards count that every class of message the
//! corruptions aim at was reported. (A page outside every VMA and a
//! space's swap counter cannot be put wrong from outside `fpr-mem`; its
//! own tests hold those.)

use forkroad_core::kit::{world_seeded, CreationPath};
use forkroad_core::os::Os;
use fpr_kernel::{Kernel, MachineConfig, Pid, SpaceRef};
use fpr_mem::{ForkMode, OvercommitPolicy, Pfn};
use fpr_rng::Rng;
use fpr_trace::ProcessShape;
use std::collections::BTreeMap;

const SEEDS: u64 = 12;
const STEPS: usize = 14;

/// The memory and swap sections of the checker as they were first written:
/// one message per violation, in the order the checker reports them.
fn reference(k: &Kernel) -> Vec<String> {
    let mut v = Vec::new();
    let owned = || {
        k.pids()
            .into_iter()
            .map(|pid| k.process(pid).unwrap())
            .filter(|p| p.space_ref == SpaceRef::Owned)
    };

    // --- Memory: frame refcounts vs page tables, PTEs vs VMAs. ---
    let mut pte_refs: BTreeMap<u64, u32> = BTreeMap::new();
    let mut seen_nodes: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for p in owned() {
        let pid = p.pid;
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
        if let Err(e) = p.aspace.check_page_table() {
            v.push(format!("pid {pid}: page table: {e}"));
        }
    }
    for (pfn, pins) in k.phys.pinned() {
        *pte_refs.entry(pfn.0).or_insert(0) += pins;
    }
    for (pfn, expect) in &pte_refs {
        match k.phys.refs(Pfn(*pfn)) {
            Ok(actual) if actual == *expect => {}
            Ok(actual) => v.push(format!(
                "frame {pfn}: refcount {actual} but {expect} PTEs map it"
            )),
            Err(_) => v.push(format!("frame {pfn}: mapped by a PTE but not allocated")),
        }
    }
    if pte_refs.len() as u64 != k.phys.used_frames() {
        v.push(format!(
            "{} frames in use but {} distinct frames mapped",
            k.phys.used_frames(),
            pte_refs.len()
        ));
    }

    // --- Swap: slot refcounts vs swap-entry PTEs. ---
    let mut slot_refs: BTreeMap<u64, u32> = BTreeMap::new();
    let mut seen_swap_nodes: std::collections::BTreeSet<usize> =
        std::collections::BTreeSet::new();
    for p in owned() {
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
    let device: BTreeMap<u64, u32> = k.phys.swap().used_slot_refs().into_iter().collect();
    for (slot, expect) in &slot_refs {
        match device.get(slot) {
            Some(actual) if actual == expect => {}
            Some(actual) => v.push(format!(
                "swap slot {slot}: refcount {actual} but {expect} swap entries name it"
            )),
            None => v.push(format!("swap slot {slot}: named by a PTE but not allocated")),
        }
    }
    if slot_refs.len() as u64 != k.phys.swap().used_slots() {
        v.push(format!(
            "{} swap slots in use but {} distinct slots referenced",
            k.phys.swap().used_slots(),
            slot_refs.len()
        ));
    }
    v
}

/// Holds the checker to the reference and returns what both reported.
fn judged(k: &Kernel, what: &str) -> Vec<String> {
    let expect = reference(k);
    let got = k.check_invariants().err().unwrap_or_default();
    assert_eq!(got, expect, "{what}: the checker and the reference disagree");
    got
}

/// What a world's script went through, for the guards.
#[derive(Debug, Default)]
struct Seen {
    /// Swap entries held in leaf nodes two spaces share.
    shared_swap_entries: u64,
    huge_pages: u64,
    pinned_frames: u64,
    zombies: u64,
    borrowers: u64,
    forks: BTreeMap<ForkMode, u64>,
}

/// Builds the world of `seed` through its script, checking it clean after
/// every step when `each_step` is set.
fn world(seed: u64, each_step: bool, seen: &mut Seen) -> Os {
    let mut rng = Rng::seed_from_u64(seed);
    let thp = seed % 2 == 1;
    let machine = MachineConfig {
        frames: 65_536,
        swap_slots: 512,
        thp,
        overcommit: OvercommitPolicy::Always,
        ..MachineConfig::default()
    };
    let shape = ProcessShape {
        heap_pages: if thp { 1024 } else { 256 + rng.gen_below(768) },
        vma_count: if thp { 1 } else { 1 + rng.gen_below(4) },
        extra_fds: 0,
        extra_threads: 0,
    };
    let (mut os, parent) = world_seeded(machine, seed, shape);
    if seed.is_multiple_of(3) {
        os.enable_spawn_fastpath().unwrap();
        os.pool_prefill("/bin/sh", 2).unwrap();
    }
    // Swapped out before any fork, so that an on-demand child shares the
    // nodes holding the swap entries.
    os.kernel.swap_out_pass(16 + rng.gen_below(48)).unwrap();
    let heap = os.first_mmap_base(parent).unwrap();
    let mut forked = vec![parent];
    for step in 0..STEPS {
        let who = forked[rng.gen_index(forked.len())];
        match rng.gen_below(8) {
            0..=2 => {
                let mode = [ForkMode::Cow, ForkMode::OnDemand, ForkMode::Eager][rng.gen_index(3)];
                let child = os.create(who, CreationPath::Fork(mode)).unwrap();
                *seen.forks.entry(mode).or_default() += 1;
                forked.push(child);
            }
            3 | 4 => {
                // First writes: COW breaks, unshares, swap-ins.
                for _ in 0..1 + rng.gen_below(6) {
                    let page = heap.add(rng.gen_below(shape.heap_pages));
                    os.kernel.write_mem(who, page, step as u64).unwrap();
                }
            }
            5 if who != parent => {
                os.kernel.exit(who, 0).unwrap();
                forked.retain(|&p| p != who);
                seen.zombies += 1;
            }
            5 | 6 => {
                os.kernel.swap_out_pass(1 + rng.gen_below(32)).unwrap();
            }
            _ => {
                os.create(who, CreationPath::Spawn("/bin/sh")).unwrap();
            }
        }
        if each_step {
            judged(&os.kernel, &format!("seed {seed}, step {step}"));
        }
    }
    os.create(forked[rng.gen_index(forked.len())], CreationPath::Vfork).unwrap();
    let k = &os.kernel;
    for pid in k.pids() {
        let p = k.process(pid).unwrap();
        seen.borrowers += u64::from(p.space_ref != SpaceRef::Owned);
        seen.huge_pages += p.aspace.huge_pages();
    }
    seen.pinned_frames += k.phys.pinned().len() as u64;
    seen.shared_swap_entries += shared_swap_entries(k);
    os
}

/// Swap entries that more than one owned space presents from the same
/// leaf node.
fn shared_swap_entries(k: &Kernel) -> u64 {
    let mut by_node: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for (_, p) in owned(k) {
        p.aspace.for_each_swap_entry_keyed(|node, vpn, _| *by_node.entry((node, vpn.0)).or_default() += 1);
    }
    by_node.values().filter(|&&n| n > 1).count() as u64
}

fn owned(k: &Kernel) -> impl Iterator<Item = (Pid, &fpr_kernel::Process)> {
    k.pids()
        .into_iter()
        .map(move |pid| (pid, k.process(pid).unwrap()))
        .filter(|(_, p)| p.space_ref == SpaceRef::Owned)
}

/// A corruption the public API can make.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// One reference of a mapped frame dropped, a shared one if any.
    DecRefOnce,
    /// A mapped frame's references dropped until it is free.
    DecRefToZero,
    /// A frame allocated and never mapped.
    StrayFrame,
    /// A swap slot taken and never named.
    StraySlot,
    /// A slot one entry names freed under it.
    FreedSlot,
    /// An owned space marked borrowed, so that nothing of it is counted.
    Uncounted,
    /// An owned space cloned into a new process: its leaf nodes shared
    /// with private writable entries, its lone huge blocks counted twice.
    Cloned,
}

const CORRUPTIONS: [Corruption; 7] = [
    Corruption::DecRefOnce,
    Corruption::DecRefToZero,
    Corruption::StrayFrame,
    Corruption::StraySlot,
    Corruption::FreedSlot,
    Corruption::Uncounted,
    Corruption::Cloned,
];

/// Applies `c` to a space or frame drawn by `rng`; `false` if the world
/// has nothing it applies to.
fn corrupt(os: &mut Os, c: Corruption, rng: &mut Rng) -> bool {
    let k = &mut os.kernel;
    let mut frames: Vec<Pfn> = Vec::new();
    let mut slots: Vec<u64> = Vec::new();
    let mut spaces: Vec<Pid> = Vec::new();
    for (pid, p) in owned(k) {
        p.aspace.for_each_resident(|_, pte| frames.push(pte.pfn));
        p.aspace.for_each_swap_entry_keyed(|_, _, slot| slots.push(slot));
        if pid != os.init && p.aspace.resident_pages() + p.aspace.swapped_pages() > 0 {
            spaces.push(pid);
        }
    }
    let pick = |rng: &mut Rng, xs: &[u64]| xs.get(rng.gen_index(xs.len().max(1))).copied();
    match c {
        Corruption::DecRefOnce | Corruption::DecRefToZero => {
            let shared: Vec<u64> = frames.iter().map(|f| f.0).filter(|&f| k.phys.refs(Pfn(f)) != Ok(1)).collect();
            let all: Vec<u64> = frames.iter().map(|f| f.0).collect();
            let Some(pfn) = pick(rng, if shared.is_empty() { &all } else { &shared }) else { return false };
            loop {
                k.phys.dec_ref(Pfn(pfn), &mut k.cycles).unwrap();
                if matches!(c, Corruption::DecRefOnce) || k.phys.refs(Pfn(pfn)).is_err() {
                    return true;
                }
            }
        }
        Corruption::StrayFrame => k.phys.alloc_zeroed(&mut k.cycles).is_ok(),
        Corruption::StraySlot => k.phys.swap_out_page(0x5eed, &mut k.cycles).is_ok(),
        Corruption::FreedSlot => {
            let sole: Vec<u64> = slots.iter().copied().filter(|&s| k.phys.swap().refs(s) == Ok(1)).collect();
            let Some(slot) = pick(rng, &sole) else { return false };
            k.phys.swap_mut().unalloc_slot(slot);
            true
        }
        Corruption::Uncounted | Corruption::Cloned => {
            let pids: Vec<u64> = spaces.iter().map(|p| p.0 as u64).collect();
            let Some(pid) = pick(rng, &pids).map(|p| Pid(p as u32)) else { return false };
            if matches!(c, Corruption::Uncounted) {
                let ppid = k.process(pid).unwrap().ppid;
                k.process_mut(pid).unwrap().space_ref = SpaceRef::BorrowedFrom(ppid);
            } else {
                let copy = k.process(pid).unwrap().aspace.clone();
                let twin = k.allocate_process(os.init, "twin").unwrap();
                k.process_mut(twin).unwrap().aspace = copy;
            }
            true
        }
    }
}

/// The class of a message: its text with every number taken out.
fn class(msg: &str) -> String {
    let mut out = String::new();
    let mut words = msg.split_whitespace().peekable();
    while let Some(w) = words.next() {
        if w.trim_end_matches(':').parse::<u64>().is_err() {
            out.push_str(w);
            if words.peek().is_some() {
                out.push(' ');
            }
        }
    }
    // A page-table message ends in the summary that was off.
    match out.find("page table:") {
        Some(at) => out[..at + "page table:".len()].to_string(),
        None => out,
    }
}

#[test]
fn checker_reports_what_the_per_pte_reference_reports() {
    let mut seen = Seen::default();
    let mut classes: BTreeMap<String, u64> = BTreeMap::new();
    let mut skipped = Vec::new();
    for seed in 1..=SEEDS {
        for (i, &c) in CORRUPTIONS.iter().enumerate() {
            let mut os = world(seed, i == 0, &mut seen);
            assert_eq!(judged(&os.kernel, &format!("seed {seed}, built")), Vec::<String>::new());
            let mut rng = Rng::seed_from_u64(seed << 8 | i as u64);
            if !corrupt(&mut os, c, &mut rng) {
                skipped.push((seed, c));
                continue;
            }
            let got = judged(&os.kernel, &format!("seed {seed}, {c:?}"));
            // A space whose every node another space shares is counted
            // through that one, so leaving it out breaks nothing; and a
            // clone of nodes that hold nothing writable is one more share.
            let invisible = matches!(c, Corruption::Uncounted | Corruption::Cloned);
            assert!(!got.is_empty() || invisible, "seed {seed}: {c:?} went unreported");
            for msg in &got {
                *classes.entry(class(msg)).or_default() += 1;
            }
        }
    }

    // The worlds held what the checker has to get right ...
    for mode in [ForkMode::Cow, ForkMode::OnDemand, ForkMode::Eager] {
        assert!(seen.forks.get(&mode).copied().unwrap_or(0) >= 8, "{mode:?} forks: {:?}", seen.forks);
    }
    assert!(seen.shared_swap_entries >= 20, "swap entries in shared nodes: {seen:?}");
    assert!(seen.huge_pages >= 20, "huge mappings: {seen:?}");
    assert!(seen.pinned_frames >= 20, "image-cache pins: {seen:?}");
    assert!(seen.zombies >= 8, "zombies: {seen:?}");
    assert!(seen.borrowers >= SEEDS, "vfork borrowers: {seen:?}");

    // ... nearly every corruption found something to corrupt, and each
    // class of message they aim at was reported several times.
    assert!(skipped.len() <= 3, "corruptions that found nothing to corrupt: {skipped:?}");
    for want in [
        "frame refcount but PTEs map it",
        "frame mapped by a PTE but not allocated",
        "frames in use but distinct frames mapped",
        "swap slot refcount but swap entries name it",
        "swap slot named by a PTE but not allocated",
        "swap slots in use but distinct slots referenced",
        "pid page table:",
    ] {
        let n = classes.get(want).copied().unwrap_or(0);
        assert!(n >= 5, "{want:?} reported {n} times; classes seen: {classes:#?}");
    }
}
