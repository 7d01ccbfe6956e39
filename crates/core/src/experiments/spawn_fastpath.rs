//! E11: the spawn fast path closes the gap to on-demand fork.
//!
//! The baseline benchmark (E1/E2) leaves `posix_spawn` at ~9.5k cycles —
//! behind `fork(OnDemand)` at ~7.6k — because every spawn rebuilds the
//! child image from scratch: six VMA inserts, three startup faults, two
//! file reads. This experiment measures the two fast-path layers that
//! win the gap back without giving up spawn's fresh-ASLR property:
//!
//! * **spawn(cache)** — the exec image cache serves the file-backed
//!   startup pages copy-on-write from pinned frames: no faults, no file
//!   reads on a hit.
//! * **spawn(cache+pool)** — a warm-pool checkout: the child was
//!   pre-built off the hot path; the spawn pays one syscall plus the
//!   ASLR re-randomising segment slides.
//!
//! Both must stay flat in the parent's footprint (they do no O(parent)
//! work), and the pooled path must beat `fork(OnDemand)` everywhere —
//! including the small-parent end where fork used to win.

use crate::kit::{machine_for, world_seeded, CreationPath, Work};
use crate::os::{Os, OsConfig};
use fpr_mem::{ForkMode, CYCLES_PER_US};
use fpr_trace::{FigureData, ProcessShape, Series};

/// The binary every spawn runs.
const BIN: &str = "/bin/tool";

/// Which spawn configuration a cell measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Classic `posix_spawn`, fast path disabled.
    Plain,
    /// Fast path enabled, image cache warmed, pool empty.
    Cache,
    /// Fast path enabled, cache warmed and one child parked.
    CachePool,
}

/// Builds a world with a `footprint`-page parent, prepares the fast-path
/// state for `mode`, and returns the cycles one spawn of `/bin/tool`
/// costs from that parent.
pub(crate) fn measure_spawn(mode: Mode, footprint: u64) -> u64 {
    measure_spawn_seeded(mode, footprint, OsConfig::default().seed)
}

/// `measure_spawn` with an explicit ASLR seed (the bench snapshot
/// takes medians over a seed set).
pub fn measure_spawn_seeded(mode: Mode, footprint: u64, seed: u64) -> u64 {
    let shape = ProcessShape::with_heap(footprint);
    let (mut os, parent) = world_seeded(machine_for(footprint), seed, shape);
    match mode {
        Mode::Plain => {}
        Mode::Cache => {
            os.enable_spawn_fastpath().expect("enable");
            // Warm the cache with a throwaway request (the donor), so
            // only the measured child exists.
            os.serve(parent, CreationPath::Spawn(BIN), Work::Nothing)
                .expect("warm-up spawn");
        }
        Mode::CachePool => os.warm_pool(BIN, 1).expect("prefill"),
    }
    let spawn = |os: &mut Os| os.create(parent, CreationPath::Spawn(BIN));
    os.measure(|os| spawn(os).expect("spawn")).1
}

/// Cycles an on-demand fork of the same parent costs (the competitor).
pub(crate) fn measure_odf(footprint: u64) -> u64 {
    measure_odf_seeded(footprint, OsConfig::default().seed)
}

/// `measure_odf` with an explicit ASLR seed.
pub fn measure_odf_seeded(footprint: u64, seed: u64) -> u64 {
    let shape = ProcessShape::with_heap(footprint);
    let (mut os, parent) = world_seeded(machine_for(footprint), seed, shape);
    os.measure(|os| os.fork_stats(parent, ForkMode::OnDemand).expect("fork"))
        .1
}

/// Runs the E11 sweep over parent footprints (pages of populated heap).
pub fn run(footprints: &[u64]) -> FigureData {
    let mut fig = FigureData::new(
        "fig_spawn_fastpath",
        "spawn fast path vs fork(OnDemand) across parent footprints",
        "parent MiB",
        "latency us",
    );
    let mut plain_s = Series::new("posix_spawn");
    let mut cache_s = Series::new("spawn(cache)");
    let mut pool_s = Series::new("spawn(cache+pool)");
    let mut odf_s = Series::new("fork(OnDemand)");
    for &fp in footprints {
        let mib = fp as f64 * 4096.0 / (1024.0 * 1024.0);
        let us = |c: u64| c as f64 / CYCLES_PER_US as f64;
        plain_s.push(mib, us(measure_spawn(Mode::Plain, fp)));
        cache_s.push(mib, us(measure_spawn(Mode::Cache, fp)));
        pool_s.push(mib, us(measure_spawn(Mode::CachePool, fp)));
        odf_s.push(mib, us(measure_odf(fp)));
    }
    fig.series = vec![plain_s, cache_s, pool_s, odf_s];
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kit::world;
    use fpr_api::{posix_spawn, FileAction, SpawnAttrs};
    use fpr_kernel::Fd;

    /// 1 MiB → 4 GiB in pages.
    const SWEEP: [u64; 4] = [256, 4096, 65_536, 1_048_576];

    /// Rewrites the file behind `path` on the simulated disk, so cached
    /// frames and parked children built from the old bytes are stale.
    /// Returns the new generation.
    fn rewrite_binary(os: &mut Os, path: &str) -> u64 {
        let file_id = os.images.lookup(path).unwrap().file_id;
        let ino = os.images.backing_ino(file_id).unwrap();
        os.kernel.vfs.write_at(ino, 0, b"patched").unwrap();
        os.kernel.vfs.generation(ino)
    }

    #[test]
    fn pooled_spawn_flat_and_at_or_below_on_demand_fork_everywhere() {
        let fig = run(&SWEEP);
        let pool = fig.series("spawn(cache+pool)").unwrap();
        let cache = fig.series("spawn(cache)").unwrap();
        let plain = fig.series("posix_spawn").unwrap();
        let odf = fig.series("fork(OnDemand)").unwrap();

        // Both fast-path variants do no O(parent) work: flat within 5%.
        for s in [pool, cache] {
            let g = s.growth_factor().unwrap();
            assert!((0.95..1.05).contains(&g), "{} not flat: {g}", s.label);
        }
        // The pooled spawn wins against on-demand fork at *every*
        // footprint — including the small end where fork used to win —
        // and each layer improves on the one below it.
        for (i, &pages) in SWEEP.iter().enumerate() {
            let (p, c, pl, o) = (
                pool.points[i].y,
                cache.points[i].y,
                plain.points[i].y,
                odf.points[i].y,
            );
            assert!(p <= o, "pool {p} > odf {o} at {pages} pages");
            assert!(p < c, "pool {p} must beat cache-only {c}");
            assert!(c < pl, "cache {c} must beat plain spawn {pl}");
        }
    }

    #[test]
    fn fastpath_miss_costs_exactly_the_classic_spawn() {
        // Fast path enabled but cold (no parked child, no cached image):
        // the spawn must cost precisely what the classic path does — the
        // pool table is consulted in userspace and a cache miss donates
        // for free.
        let plain = measure_spawn(Mode::Plain, 4096);
        let cold = {
            let (mut os, parent) = world(machine_for(4096), ProcessShape::with_heap(4096));
            os.enable_spawn_fastpath().unwrap();
            let spawn = |os: &mut Os| os.create(parent, CreationPath::Spawn(BIN));
            os.measure(|os| spawn(os).expect("spawn")).1
        };
        assert_eq!(plain, cold, "the pool-miss path is unchanged");
    }

    #[test]
    fn disabled_fastpath_is_byte_identical_to_the_classic_os() {
        // Enabling and then disabling the fast path must leave no trace:
        // an identical spawn/fork workload produces identical cycle
        // totals and identical layouts as a never-enabled run.
        let drive = |os: &mut Os| {
            let init = os.init;
            let a = os
                .spawn(init, "/bin/tool", &[], &SpawnAttrs::default())
                .unwrap();
            let b = os.fork(a).unwrap();
            let c = os
                .spawn(b, "/bin/sh", &[], &SpawnAttrs::default())
                .unwrap();
            (os.kernel.cycles.total(), os.kernel.process(c).unwrap().layout)
        };
        let mut classic = Os::boot(OsConfig {
            seed: 99,
            ..Default::default()
        });
        let mut toggled = Os::boot(OsConfig {
            seed: 99,
            ..Default::default()
        });
        toggled.enable_spawn_fastpath().unwrap();
        toggled.disable_spawn_fastpath().unwrap();
        assert!(!toggled.fastpath_enabled());
        assert_eq!(drive(&mut classic), drive(&mut toggled));
    }

    #[test]
    fn failed_fast_spawn_reports_cleanly_like_the_classic_one() {
        // Same contract posix_spawn has: a bad file action fails in the
        // parent with no child left behind — pool hit or miss alike.
        let mut os = Os::boot(OsConfig::default());
        let init = os.init;
        os.enable_spawn_fastpath().unwrap();
        os.pool_prefill("/bin/tool", 1).unwrap();
        let procs = os.kernel.process_count();
        let actions = vec![FileAction::Close { fd: Fd(77) }];
        let r = os.spawn(init, "/bin/tool", &actions, &SpawnAttrs::default());
        assert_eq!(r, Err(fpr_kernel::Errno::Ebadf));
        assert_eq!(os.kernel.process_count(), procs, "child re-parked, not leaked");
        assert_eq!(os.fastpath().unwrap().pool().available("/bin/tool"), 1);
        os.kernel.check_invariants().unwrap();
        let _ = posix_spawn; // keep the classic symbol linked for parity
    }

    #[test]
    fn rewrite_between_spawns_never_serves_stale_segments() {
        use fpr_mem::{vma::file_stamp, Vpn};
        let mut os = Os::boot(OsConfig::default());
        let init = os.init;
        os.enable_spawn_fastpath().unwrap();
        os.pool_prefill("/bin/tool", 2).unwrap();
        let before = os
            .spawn(init, "/bin/tool", &[], &SpawnAttrs::default())
            .unwrap();
        let gen = rewrite_binary(&mut os, "/bin/tool");
        assert!(gen > 0);
        let after = os
            .spawn(init, "/bin/tool", &[], &SpawnAttrs::default())
            .unwrap();
        let f = os.fastpath().unwrap();
        assert!(f.pool().discards() > 0, "stale parked child discarded");
        let base_id = os.images.lookup("/bin/tool").unwrap().file_id;
        let img = os.images.lookup("/bin/tool").unwrap().clone();
        let l_old = os.kernel.process(before).unwrap().layout;
        let l_new = os.kernel.process(after).unwrap().layout;
        assert_eq!(
            os.kernel
                .read_mem(before, Vpn(l_old.text_base + img.entry_page)),
            Ok(file_stamp(base_id, img.entry_page)),
            "pre-rewrite child keeps the old bytes"
        );
        assert_eq!(
            os.kernel
                .read_mem(after, Vpn(l_new.text_base + img.entry_page)),
            Ok(file_stamp(base_id + (gen << 32), img.entry_page)),
            "post-rewrite child reads the new bytes"
        );
    }

    /// Seed-driven property test (the workspace builds without proptest):
    /// random interleavings of binary rewrites and spawns must never
    /// serve a child whose text content predates the latest rewrite.
    #[test]
    fn random_rewrite_spawn_interleavings_stay_fresh() {
        use fpr_mem::{vma::file_stamp, Vpn};
        use fpr_rng::Rng;
        for case in 0..24u64 {
            let mut rng = Rng::seed_from_u64(0xE11 + case);
            let mut os = Os::boot(OsConfig::default());
            let init = os.init;
            os.enable_spawn_fastpath().unwrap();
            let mut generation = 0u64;
            for step in 0..20 {
                match rng.gen_below(4) {
                    0 => {
                        generation = rewrite_binary(&mut os, "/bin/tool");
                    }
                    1 => {
                        let n = rng.gen_range(1, 3) as usize;
                        os.pool_prefill("/bin/tool", n).unwrap();
                    }
                    _ => {
                        let c = os
                            .spawn(init, "/bin/tool", &[], &SpawnAttrs::default())
                            .unwrap();
                        let p = os.kernel.process(c).unwrap();
                        let (layout, entry) = (p.layout, {
                            let img = os.images.lookup("/bin/tool").unwrap();
                            (img.file_id, img.entry_page)
                        });
                        assert_eq!(
                            os.kernel.read_mem(c, Vpn(layout.text_base + entry.1)),
                            Ok(file_stamp(entry.0 + (generation << 32), entry.1)),
                            "case {case} step {step}: spawned child must read \
                             generation-{generation} bytes"
                        );
                    }
                }
            }
            os.kernel.check_invariants().unwrap();
        }
    }
}
