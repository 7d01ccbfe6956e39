//! Exec image cache: pinned frame runs shared copy-on-write into children.
//!
//! The paper's `posix_spawn` pays a demand fault plus a file read for
//! every startup page of every child, even when a thousand children run
//! the same binary. Real systems amortise this through the page cache;
//! the simulator models that with an [`ImageCache`]: the first exec of a
//! binary donates its file-backed startup frames to the cache (taking a
//! kernel *pin* on each so they outlive the donor), and later execs of
//! the same binary map those frames copy-on-write for the price of a PTE
//! copy — no fault, no file read.
//!
//! Entries are keyed by the registry-assigned *base* file id and stamped
//! with the *effective* file id (base plus the backing inode's write
//! generation in the high bits, see [`crate::exec::effective_file_id`]).
//! Rewriting a binary bumps its generation, so the next lookup sees a
//! stale stamp, evicts the entry, and re-reads from the "disk" — the
//! cache can never serve segments of a binary that no longer exists.

use fpr_kernel::{Errno, KResult, Kernel};
use fpr_mem::Pfn;
use fpr_trace::metrics;
use std::collections::BTreeMap;

/// Mask extracting the registry-assigned base file id from an effective
/// file id (the write generation lives above bit 32).
pub(crate) const BASE_ID_MASK: u64 = 0xFFFF_FFFF;

#[derive(Debug, Clone)]
struct Entry {
    /// Effective file id the frames were read under.
    eff_file_id: u64,
    /// `(page offset into the file, pinned frame)`, ascending by offset.
    frames: Vec<(u64, Pfn)>,
    /// Logical timestamp of the last hit (or the insert), for LRU
    /// eviction under memory pressure.
    last_used: u64,
}

/// Cache of pinned exec-image frames, keyed by base file id.
#[derive(Debug, Default)]
pub struct ImageCache {
    entries: BTreeMap<u64, Entry>,
    /// Monotonic logical clock stamping `Entry::last_used`.
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ImageCache {
    /// Creates an empty cache.
    pub fn new() -> ImageCache {
        ImageCache::default()
    }

    /// Looks up the cached frame run for `eff_file_id`, returning the
    /// `(file page offset, frame)` pairs on a hit. An entry for the same
    /// binary under an older generation is stale: it is evicted on sight
    /// (unpinning its frames) and the lookup counts as a miss, so a
    /// rewritten binary is always re-read from the filesystem.
    pub(crate) fn lookup(&mut self, kernel: &mut Kernel, eff_file_id: u64) -> Option<Vec<(u64, Pfn)>> {
        let base = eff_file_id & BASE_ID_MASK;
        let stale = matches!(
            self.entries.get(&base),
            Some(e) if e.eff_file_id != eff_file_id
        );
        if stale {
            self.evict(kernel, base);
        }
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&base) {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                metrics::incr("exec.image_cache.hit");
                Some(e.frames.clone())
            }
            None => {
                self.misses += 1;
                metrics::incr("exec.image_cache.miss");
                None
            }
        }
    }

    /// Inserts the frame run a fresh exec just faulted in, pinning every
    /// frame so it survives the donor's exit. Replaces any existing entry
    /// for the same binary. Crosses [`fpr_faults::FaultSite::ImageCacheInsert`]
    /// *before* mutating anything, so an injected failure leaves both the
    /// cache and frame pins untouched. Charges no cycles: pinning is
    /// bookkeeping, and the insert must leave the donor's spawn cost
    /// exactly equal to the uncached path's.
    pub(crate) fn insert(
        &mut self,
        kernel: &mut Kernel,
        eff_file_id: u64,
        frames: Vec<(u64, Pfn)>,
    ) -> KResult<()> {
        fpr_faults::cross(fpr_faults::FaultSite::ImageCacheInsert).map_err(|_| Errno::Enomem)?;
        let base = eff_file_id & BASE_ID_MASK;
        self.evict(kernel, base);
        for (_, pfn) in &frames {
            kernel.phys.pin(*pfn).map_err(|_| Errno::Enomem)?;
        }
        self.tick += 1;
        self.entries.insert(
            base,
            Entry {
                eff_file_id,
                frames,
                last_used: self.tick,
            },
        );
        Ok(())
    }

    /// Evicts least-recently-used entries until `target` frames have been
    /// returned to the allocator or the cache is empty, reporting frames
    /// actually freed (an evicted frame still mapped by a live child
    /// survives through its mapping references and counts for nothing).
    /// This is the cache's [`fpr_kernel::Shrinker`] work; the reclaim
    /// pass crosses the fault site before calling it.
    pub(crate) fn shrink(&mut self, kernel: &mut Kernel, target: u64) -> KResult<u64> {
        // This cell's own drop: the machine's free count moves with what
        // other cells draw from the shared pool meanwhile.
        let used_before = kernel.phys.used_frames();
        let freed = |kernel: &Kernel| used_before.saturating_sub(kernel.phys.used_frames());
        while freed(kernel) < target {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(base, _)| *base);
            let Some(base) = lru else { break };
            self.evict(kernel, base);
        }
        Ok(freed(kernel))
    }

    fn evict(&mut self, kernel: &mut Kernel, base: u64) {
        if let Some(e) = self.entries.remove(&base) {
            for (_, pfn) in e.frames {
                kernel
                    .phys
                    .unpin(pfn, &mut kernel.cycles)
                    .expect("cached frame holds a pin");
            }
            metrics::incr("exec.image_cache.evict");
        }
    }

    /// Drops every entry, unpinning all frames (frames still mapped by
    /// live children survive through their mapping references).
    pub fn clear(&mut self, kernel: &mut Kernel) {
        let bases: Vec<u64> = self.entries.keys().copied().collect();
        for b in bases {
            self.evict(kernel, b);
        }
    }

    /// Total pinned frames across all entries.
    pub fn cached_frames(&self) -> u64 {
        self.entries.values().map(|e| e.frames.len() as u64).sum()
    }

    /// Lookup hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses (including stale evictions) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Under memory pressure the cache gives pinned image frames back, LRU
/// first: spawn latency for the evicted binaries degrades to the classic
/// uncached path instead of some process being OOM-killed.
impl fpr_kernel::Shrinker for ImageCache {
    fn fault_site(&self) -> fpr_faults::FaultSite {
        fpr_faults::FaultSite::ReclaimShrink
    }

    fn reclaimable(&self, _kernel: &Kernel) -> u64 {
        self.cached_frames()
    }

    fn shrink(&mut self, kernel: &mut Kernel, target: u64) -> KResult<u64> {
        ImageCache::shrink(self, kernel, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aslr::randomize;
    use crate::image::Image;
    use crate::loader::load;
    use fpr_kernel::Pid;
    use fpr_mem::vma::file_stamp;
    use fpr_mem::Vpn;

    fn world() -> (Kernel, Pid) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    fn tool() -> Image {
        let mut img = Image::small("tool");
        img.file_id = 1001;
        img
    }

    #[test]
    fn second_load_hits_and_is_cheaper_with_same_content() {
        let (mut k, init) = world();
        let mut cache = ImageCache::new();
        let img = tool();

        let a = k.allocate_process(init, "a").unwrap();
        let c0 = k.cycles.total();
        load(&mut k, a, &img, randomize(1), Some(&mut cache)).unwrap();
        let first = k.cycles.total() - c0;
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.cached_frames(), 2, "entry text page + first data page");

        let b = k.allocate_process(init, "b").unwrap();
        let c1 = k.cycles.total();
        let layout = randomize(2);
        load(&mut k, b, &img, layout, Some(&mut cache)).unwrap();
        let second = k.cycles.total() - c1;
        assert_eq!(cache.hits(), 1);
        assert!(
            second < first,
            "hit ({second}) must beat miss ({first}): no faults, no file reads"
        );
        // The mapped content is the image's bytes, not garbage.
        assert_eq!(
            k.read_mem(b, Vpn(layout.text_base + img.entry_page)),
            Ok(file_stamp(img.file_id, img.entry_page))
        );
        assert_eq!(
            k.read_mem(b, Vpn(layout.text_base + img.text_pages)),
            Ok(file_stamp(img.file_id, img.text_pages))
        );
    }

    #[test]
    fn miss_path_costs_exactly_the_uncached_load() {
        let img = tool();
        let (mut k1, i1) = world();
        let p1 = k1.allocate_process(i1, "x").unwrap();
        let c = k1.cycles.total();
        load(&mut k1, p1, &img, randomize(9), None).unwrap();
        let plain = k1.cycles.total() - c;

        let (mut k2, i2) = world();
        let p2 = k2.allocate_process(i2, "x").unwrap();
        let mut cache = ImageCache::new();
        let c = k2.cycles.total();
        load(&mut k2, p2, &img, randomize(9), Some(&mut cache)).unwrap();
        let missed = k2.cycles.total() - c;
        assert_eq!(plain, missed, "cold cache adds zero cycles");
    }

    #[test]
    fn cached_frames_survive_donor_teardown() {
        let (mut k, init) = world();
        let mut cache = ImageCache::new();
        let img = tool();
        let donor = k.allocate_process(init, "donor").unwrap();
        load(&mut k, donor, &img, randomize(3), Some(&mut cache)).unwrap();
        k.abort_process_creation(donor).unwrap();
        assert_eq!(cache.cached_frames(), 2);

        let b = k.allocate_process(init, "b").unwrap();
        let layout = randomize(4);
        load(&mut k, b, &img, layout, Some(&mut cache)).unwrap();
        assert_eq!(cache.hits(), 1, "donor death does not evict");
        assert_eq!(
            k.read_mem(b, Vpn(layout.text_base + img.entry_page)),
            Ok(file_stamp(img.file_id, img.entry_page))
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn newer_generation_evicts_stale_entry_and_releases_pins() {
        let (mut k, init) = world();
        let mut cache = ImageCache::new();
        let mut img = tool();
        let a = k.allocate_process(init, "a").unwrap();
        load(&mut k, a, &img, randomize(5), Some(&mut cache)).unwrap();
        let used_before = k.phys.used_frames();

        // The binary is rewritten: generation 1 → new effective id.
        img.file_id = tool().file_id + (1 << 32);
        let b = k.allocate_process(init, "b").unwrap();
        let layout = randomize(6);
        load(&mut k, b, &img, layout, Some(&mut cache)).unwrap();
        assert_eq!(
            metrics::snapshot().counter("exec.image_cache.evict"),
            1,
            "stale entry evicted on sight"
        );
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert_eq!(
            k.read_mem(b, Vpn(layout.text_base + img.entry_page)),
            Ok(file_stamp(img.file_id, img.entry_page)),
            "new child reads the rewritten bytes, never the stale ones"
        );
        // Old frames stay alive only through the old child's mappings.
        assert_eq!(cache.cached_frames(), 2);
        let _ = used_before;
        k.check_invariants().unwrap();
    }

    #[test]
    fn shrink_evicts_lru_first_and_reports_frames_freed() {
        let (mut k, init) = world();
        let mut cache = ImageCache::new();
        let mut cold = Image::small("cold");
        cold.file_id = 2001;
        let mut warm = Image::small("warm");
        warm.file_id = 2002;
        for (i, img) in [&cold, &warm].iter().enumerate() {
            let donor = k.allocate_process(init, "donor").unwrap();
            load(
                &mut k,
                donor,
                img,
                randomize(10 + i as u64),
                Some(&mut cache),
            )
            .unwrap();
            k.abort_process_creation(donor).unwrap();
        }
        // Touch `warm` so `cold` is the LRU entry.
        let p = k.allocate_process(init, "p").unwrap();
        load(&mut k, p, &warm, randomize(12), Some(&mut cache)).unwrap();
        k.abort_process_creation(p).unwrap();
        assert_eq!(cache.cached_frames(), 4, "two entries of two frames");

        // Asking for one frame evicts exactly the cold entry (2 frames,
        // both pinned-only, so both come back).
        let freed = cache.shrink(&mut k, 1).unwrap();
        assert_eq!(freed, 2);
        assert_eq!(cache.cached_frames(), 2);
        assert!(cache.lookup(&mut k, warm.file_id).is_some(), "warm survived");
        assert!(cache.lookup(&mut k, cold.file_id).is_none(), "cold evicted");
        // Shrinking an empty-enough cache reports what it could do.
        let freed = cache.shrink(&mut k, 1000).unwrap();
        assert_eq!(freed, 2);
        assert_eq!(cache.cached_frames(), 0);
        k.check_invariants().unwrap();
    }

    #[test]
    fn clear_unpins_everything() {
        let (mut k, init) = world();
        let mut cache = ImageCache::new();
        let img = tool();
        let donor = k.allocate_process(init, "donor").unwrap();
        load(&mut k, donor, &img, randomize(7), Some(&mut cache)).unwrap();
        k.abort_process_creation(donor).unwrap();
        let used = k.phys.used_frames();
        assert_eq!(cache.cached_frames(), 2);
        cache.clear(&mut k);
        assert_eq!(cache.cached_frames(), 0);
        assert_eq!(
            k.phys.used_frames(),
            used - 2,
            "pinned-only frames freed on clear"
        );
        k.check_invariants().unwrap();
    }
}
