//! E12: pressure storm — the spawn fast path degrades gracefully.
//!
//! The fast path (E11) wins its latency by *holding* memory: pinned
//! image-cache frames and pre-built warm-pool children. That is exactly
//! the memory a loaded machine wants back. This experiment drives the
//! machine into memory pressure with a wave of faulting workers and
//! compares two worlds:
//!
//! * **shrinkers registered** (the default): the kernel's reclaim pass
//!   drains warm children (LRU) and evicts cold image entries. Demand
//!   that would have OOM-killed is absorbed; the only casualty is spawn
//!   latency, which degrades to the classic-path cost while the caches
//!   are empty and recovers after relief.
//! * **shrinkers cleared** (the baseline failure mode): the kernel
//!   cannot see the caches. The OOM killer fires and — because parked
//!   children are OOM-exempt — it kills *innocent workers* while
//!   hundreds of reclaimable frames sit pinned.

pub use crate::kit::STORM_FRAMES;
use crate::kit::{storm_machine, world, CreationPath, Storm, Work};
use crate::os::{Os, OsConfig};
use fpr_kernel::{MachineConfig, Pid};
use fpr_mem::{PressureLevel, CYCLES_PER_US};
use fpr_trace::{FigureData, ProcessShape, Series};

/// Warm-pool children parked before the storm (also the recovery target).
pub(crate) const POOL_PREFILL: usize = 8;
/// Faulting workers the storm demand is spread across.
pub(crate) const WORKERS: usize = 4;
/// The binary every spawn runs.
const BIN: &str = "/bin/tool";

/// Everything one storm arm observed.
#[derive(Debug, Clone, PartialEq)]
pub struct PressureOutcome {
    /// Whether the fast-path caches were registered as shrinkers.
    pub shrinkers: bool,
    /// Total pages the workers successfully touched.
    pub touched_pages: u64,
    /// OOM victims, in kill order.
    pub oom_victims: Vec<Pid>,
    /// Whether the first OOM victim was a bystander (not the worker
    /// whose write triggered the kill) — the paper's "innocent victim".
    pub first_victim_was_bystander: bool,
    /// Pinned (reclaimable-but-unseen) cache frames at first kill.
    pub pinned_frames_at_first_kill: u64,
    /// Spawn cost before the storm (warm pool hit), cycles.
    pub spawn_before: u64,
    /// Spawn cost at peak pressure (caches drained), cycles.
    pub spawn_during: u64,
    /// Spawn cost after relief and re-prefill, cycles.
    pub spawn_after: u64,
    /// Parked children before / at peak / after relief.
    pub pool_occupancy: [usize; 3],
    /// Pinned image-cache frames before / at peak / after relief.
    pub cache_frames: [u64; 3],
    /// Worst pressure level seen during the storm.
    pub peak_pressure: PressureLevel,
    /// Kernel reclaim passes run by the storm.
    pub reclaim_passes: u64,
    /// Frames those passes recovered.
    pub frames_reclaimed: u64,
    /// PSI-style stall cycles charged to reclaim.
    pub stall_cycles: u64,
}

/// The storm world of E12 and E15's degradation arm: a 32-page parent on
/// the storm machine, fast path off.
pub(crate) fn storm_world() -> (Os, Pid) {
    world(storm_machine(), ProcessShape::with_heap(32))
}

/// Serves one spawn request from `parent`; its creation cycles are the
/// spawn latency E12 reports.
fn spawn_once(os: &mut Os, parent: Pid) -> u64 {
    os.serve(parent, CreationPath::Spawn(BIN), Work::Nothing)
        .expect("spawn survives the storm")
        .create
}

/// The classic-path reference cost: same machine, same parent shape,
/// fast path never enabled.
pub(crate) fn classic_spawn_cost() -> u64 {
    let (mut os, parent) = storm_world();
    spawn_once(&mut os, parent)
}

/// Parked warm children.
pub(crate) fn pool_parked(os: &Os) -> usize {
    os.fastpath().expect("enabled").pool().total_parked()
}

/// Frames the image cache pins.
pub(crate) fn cache_frames(os: &Os) -> u64 {
    os.fastpath().expect("enabled").cache().cached_frames()
}

/// True once shrinker reclaim has drained both fast-path caches dry.
pub(crate) fn drained(os: &Os) -> bool {
    pool_parked(os) == 0 && cache_frames(os) == 0
}

/// Runs one storm arm. `demand` caps total pages touched; `None` means
/// "until the reclaimable caches are exhausted" (shrinker arm only).
pub(crate) fn run_storm(shrinkers: bool, demand: Option<u64>) -> PressureOutcome {
    let (mut os, parent) = storm_world();
    os.warm_pool(BIN, POOL_PREFILL).expect("prefill");
    if !shrinkers {
        os.kernel.clear_shrinkers();
    }

    let pool_before = pool_parked(&os);
    let cache_before = cache_frames(&os);
    let spawn_before = spawn_once(&mut os, parent);
    // The warm-up spawn consumed a parked child; top the pool back up so
    // both arms enter the storm with the full prefill.
    os.pool_prefill(BIN, 1).expect("top up");

    let mut storm = Storm::admit(&mut os, WORKERS, STORM_FRAMES / WORKERS as u64);
    let mut first_victim_was_bystander = false;
    let mut pinned_at_first_kill = 0u64;
    storm.run(
        &mut os,
        |os, touched| demand.map_or_else(|| drained(os), |d| touched >= d),
        |os, faulting| {
            // With shrinkers the kernel already direct-reclaimed before
            // surfacing ENOMEM: memory is genuinely full.
            if shrinkers {
                return None;
            }
            let victim = os.kernel.oom_kill()?;
            if os.kernel.oom_kills.len() == 1 {
                first_victim_was_bystander = victim != faulting;
                pinned_at_first_kill = cache_frames(os);
            }
            Some(victim)
        },
    );

    let pool_during = pool_parked(&os);
    let cache_during = cache_frames(&os);
    // At peak pressure the pool is empty and the cache cold (shrinker
    // arm): this spawn rides the classic path.
    let spawn_during = spawn_once(&mut os, parent);

    let (touched_pages, peak_pressure) = (storm.touched, storm.peak);
    storm.relieve(&mut os);
    // Recovery: re-prefill restores the warm pool (and re-warms the
    // image cache as a side effect of loading the children).
    let refill = POOL_PREFILL.saturating_sub(pool_parked(&os));
    os.pool_prefill(BIN, refill).expect("re-prefill");
    let spawn_after = spawn_once(&mut os, parent);
    os.pool_prefill(BIN, 1).expect("top up");

    os.kernel.check_invariants().expect("invariants hold");
    let stats = os.kernel.reclaim_stats();
    PressureOutcome {
        shrinkers,
        touched_pages,
        oom_victims: os.kernel.oom_kills.clone(),
        first_victim_was_bystander,
        pinned_frames_at_first_kill: pinned_at_first_kill,
        spawn_before,
        spawn_during,
        spawn_after,
        pool_occupancy: [pool_before, pool_during, pool_parked(&os)],
        cache_frames: [cache_before, cache_during, cache_frames(&os)],
        peak_pressure,
        reclaim_passes: stats.passes,
        frames_reclaimed: stats.frames_reclaimed,
        stall_cycles: os.kernel.phys.stall_cycles_total(),
    }
}

/// Runs both arms with identical demand: the shrinker arm sizes the
/// storm adaptively (touch until the caches are dry), the baseline then
/// replays the same number of pages without reclaim.
pub fn run_pair() -> (PressureOutcome, PressureOutcome) {
    let with = run_storm(true, None);
    let without = run_storm(false, Some(with.touched_pages));
    (with, without)
}

// ---------------------------------------------------------------------
// E13: the swap tier under a storm that exceeds physical memory.
// ---------------------------------------------------------------------

/// Swap slots of the E13 machine: another machine's worth of backing
/// store below the [`STORM_FRAMES`] of RAM.
pub(crate) const SWAP_SLOTS: u64 = 1024;

/// Everything one E13 arm observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapOutcome {
    /// Whether the machine had a swap device.
    pub swap: bool,
    /// Total pages the workers successfully dirtied.
    pub touched_pages: u64,
    /// OOM victims, in kill order.
    pub oom_victims: Vec<Pid>,
    /// Workers still alive at the end of the storm.
    pub survivors: usize,
    /// Pages evicted to the device, cumulative.
    pub swap_outs: u64,
    /// Pages faulted back from the device, cumulative.
    pub swap_ins: u64,
    /// Swap-ins of recently evicted pages (working-set misses).
    pub refaults: u64,
    /// Most slots in use at any sampled instant.
    pub peak_slots_used: u64,
    /// Whether the refault-rate thrash signal ever asserted.
    pub thrash_seen: bool,
    /// Worst pressure level seen.
    pub peak_pressure: PressureLevel,
    /// PSI-style stall cycles charged to reclaim + swap passes.
    pub stall_cycles: u64,
}

/// Runs one E13 arm: four workers dirty 1.5× physical memory of private
/// anonymous pages. With a swap device the reclaim tier below the
/// shrinkers evicts cold pages and every write lands; without one the
/// demand ends in OOM kills. `demand` caps total pages touched; `None`
/// lets the arm run until RAM *and* swap are genuinely full.
///
/// The swap arm finishes with a deliberate refault loop — re-reading
/// just-evicted pages until the thrash signal asserts — so the figure
/// carries the pathological regime too, not only the win.
pub(crate) fn run_swap_storm(swap: bool, demand: Option<u64>) -> SwapOutcome {
    let mut os = Os::boot(OsConfig {
        machine: MachineConfig {
            swap_slots: if swap { SWAP_SLOTS } else { 0 },
            ..storm_machine()
        },
        ..Default::default()
    });

    // 1.5x physical memory of demand, spread across the workers.
    let chunk = (STORM_FRAMES + SWAP_SLOTS / 2) / WORKERS as u64;
    let mut storm = Storm::admit(&mut os, WORKERS, chunk);
    let mut peak_slots = 0u64;
    storm.run(
        &mut os,
        |os, touched| {
            peak_slots = peak_slots.max(os.kernel.phys.swap().used_slots());
            demand.is_some_and(|d| touched >= d)
        },
        // With swap, the kernel already ran the whole reclaim ladder
        // before surfacing ENOMEM: RAM and device are genuinely full.
        |os, _| if swap { None } else { os.kernel.oom_kill() },
    );
    peak_slots = peak_slots.max(os.kernel.phys.swap().used_slots());

    // The thrash regime: walk the cold front of each surviving worker's
    // region. Every read swaps the page back in *clean*, which makes it
    // the next eviction's first candidate — rereading the same window
    // turns the device into a revolving door until the refault-majority
    // signal asserts.
    let mut thrash_seen = false;
    if swap {
        'thrash: for _round in 0..8 {
            for (w, base, touched) in storm.resident() {
                for j in 0..touched.min(16) {
                    os.kernel.read_mem(w, base.add(j)).expect("reread");
                    if os.kernel.swap_thrashing() {
                        thrash_seen = true;
                        break 'thrash;
                    }
                }
            }
        }
    }

    os.kernel.check_invariants().expect("invariants hold");
    let stats = os.kernel.phys.swap().stats();
    SwapOutcome {
        swap,
        touched_pages: storm.touched,
        oom_victims: os.kernel.oom_kills.clone(),
        survivors: storm.resident().count(),
        swap_outs: stats.swap_outs,
        swap_ins: stats.swap_ins,
        refaults: stats.refaults,
        peak_slots_used: peak_slots.max(os.kernel.phys.swap().used_slots()),
        thrash_seen,
        peak_pressure: storm.peak,
        stall_cycles: os.kernel.phys.stall_cycles_total(),
    }
}

/// Runs both E13 arms with identical demand: the swap arm sizes the
/// storm adaptively (dirty pages until RAM and device are full), the
/// swapless baseline replays the same page count and shows the kills.
pub fn run_swap_pair() -> (SwapOutcome, SwapOutcome) {
    let with = run_swap_storm(true, None);
    let without = run_swap_storm(false, Some(with.touched_pages));
    (with, without)
}

/// Builds the E13 figure from the two arms of [`run_swap_pair`]: pages
/// absorbed and the OOM body count with and without the swap tier, plus
/// the device traffic that paid for it.
pub fn swap_figure(with: &SwapOutcome, without: &SwapOutcome) -> FigureData {
    let mut fig = FigureData::new(
        "fig_swap",
        "a swap tier absorbs a storm of 1.5x physical memory that otherwise ends in OOM kills",
        "metric (0=pages dirtied, 1=oom kills, 2=surviving workers)",
        "pages / count",
    );
    let mut s_with = Series::new("with swap");
    s_with.push(0.0, with.touched_pages as f64);
    s_with.push(1.0, with.oom_victims.len() as f64);
    s_with.push(2.0, with.survivors as f64);
    let mut s_without = Series::new("no swap");
    s_without.push(0.0, without.touched_pages as f64);
    s_without.push(1.0, without.oom_victims.len() as f64);
    s_without.push(2.0, without.survivors as f64);
    let mut traffic = Series::new("device traffic (with swap)");
    traffic.push(0.0, with.swap_outs as f64);
    traffic.push(1.0, with.swap_ins as f64);
    traffic.push(2.0, with.refaults as f64);
    fig.series = vec![s_with, s_without, traffic];
    fig
}

/// Builds the E12 figure from the two arms of [`run_pair`]: spawn
/// latency across the three storm phases, against the classic-path
/// reference, plus the OOM body count.
pub fn figure(with: &PressureOutcome, without: &PressureOutcome) -> FigureData {
    let classic = classic_spawn_cost();
    let us = |c: u64| c as f64 / CYCLES_PER_US as f64;

    let mut fig = FigureData::new(
        "fig_pressure",
        "spawn latency and OOM kills through a memory-pressure storm",
        "phase (0=calm, 1=storm peak, 2=after relief)",
        "spawn latency us / kill count",
    );
    let mut fast = Series::new("spawn (shrinkers)");
    fast.push(0.0, us(with.spawn_before));
    fast.push(1.0, us(with.spawn_during));
    fast.push(2.0, us(with.spawn_after));
    let mut reference = Series::new("classic spawn (reference)");
    for x in 0..3 {
        reference.push(x as f64, us(classic));
    }
    let mut pool = Series::new("parked children (shrinkers)");
    for (x, &n) in with.pool_occupancy.iter().enumerate() {
        pool.push(x as f64, n as f64);
    }
    let mut kills_with = Series::new("oom kills (shrinkers)");
    let mut kills_without = Series::new("oom kills (no shrinkers)");
    kills_with.push(1.0, with.oom_victims.len() as f64);
    kills_without.push(1.0, without.oom_victims.len() as f64);
    fig.series = vec![fast, reference, pool, kills_with, kills_without];
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinker_storm_absorbs_demand_without_killing() {
        let o = run_storm(true, None);
        assert!(o.oom_victims.is_empty(), "no kills: {:?}", o.oom_victims);
        assert!(o.reclaim_passes >= 1, "the storm forced reclaim");
        assert!(o.frames_reclaimed > 0);
        assert!(o.stall_cycles > 0, "reclaim stalls are accounted");
        assert!(
            o.peak_pressure >= PressureLevel::High,
            "storm reached {:?}",
            o.peak_pressure
        );
        // The caches were fully drained at peak…
        assert_eq!(o.pool_occupancy[1], 0, "pool drained at peak");
        assert_eq!(o.cache_frames[1], 0, "cache evicted at peak");
        // …and recover to prefill levels after relief.
        assert_eq!(o.pool_occupancy[2], POOL_PREFILL, "pool refilled");
        assert!(o.cache_frames[2] >= o.cache_frames[0], "cache re-warmed");
    }

    #[test]
    fn latency_degrades_to_classic_and_recovers() {
        let o = run_storm(true, None);
        let classic = classic_spawn_cost();
        assert!(
            o.spawn_before < o.spawn_during,
            "calm pool hit {} must beat the degraded spawn {}",
            o.spawn_before,
            o.spawn_during
        );
        assert!(
            o.spawn_after < o.spawn_during,
            "post-relief spawn {} must beat the degraded spawn {}",
            o.spawn_after,
            o.spawn_during
        );
        // The degraded spawn rides the classic path: same cost class.
        let ratio = o.spawn_during as f64 / classic as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "degraded spawn {} vs classic {} (ratio {ratio:.3})",
            o.spawn_during,
            classic
        );
    }

    #[test]
    fn baseline_kills_innocents_while_reclaimable_frames_sit_pinned() {
        let (with, without) = run_pair();
        assert!(with.oom_victims.is_empty());
        assert!(
            !without.oom_victims.is_empty(),
            "same demand without shrinkers must OOM-kill"
        );
        assert!(
            without.pinned_frames_at_first_kill > 0,
            "reclaimable cache frames sat pinned while the killer fired"
        );
        assert!(
            without.first_victim_was_bystander,
            "the OOM killer shot a worker that was not even faulting"
        );
        // The exempt pool children survived the massacre.
        assert_eq!(without.pool_occupancy[1], POOL_PREFILL);
    }

    #[test]
    fn figure_renders_with_all_series() {
        let (with, without) = run_pair();
        let fig = figure(&with, &without);
        assert_eq!(fig.series.len(), 5);
        assert!(fig.series("spawn (shrinkers)").is_some());
        let kills = fig.series("oom kills (no shrinkers)").unwrap();
        assert!(kills.points[0].y >= 1.0);
        let none = fig.series("oom kills (shrinkers)").unwrap();
        assert_eq!(none.points[0].y, 0.0);
        assert!(fig.render().contains("fig_pressure"));
    }

    #[test]
    fn swap_storm_absorbs_oversized_demand_without_killing() {
        let o = run_swap_storm(true, None);
        assert!(o.oom_victims.is_empty(), "no kills: {:?}", o.oom_victims);
        assert_eq!(o.survivors, WORKERS, "every worker lived");
        assert!(
            o.touched_pages > STORM_FRAMES,
            "the storm dirtied {} pages, more than the {} frames of RAM",
            o.touched_pages,
            STORM_FRAMES
        );
        assert!(o.swap_outs > 0, "the tier evicted to the device");
        assert!(o.peak_slots_used > 0);
        assert!(o.stall_cycles > 0, "swap stalls are accounted");
        assert!(
            o.peak_pressure >= PressureLevel::High,
            "storm reached {:?}",
            o.peak_pressure
        );
        assert!(o.thrash_seen, "the refault loop asserted the thrash signal");
        assert!(o.refaults > 0);
        assert!(o.swap_ins > 0);
    }

    #[test]
    fn swapless_baseline_kills_under_the_same_demand() {
        let (with, without) = run_swap_pair();
        assert!(with.oom_victims.is_empty(), "swap arm must absorb the storm");
        assert!(
            !without.oom_victims.is_empty(),
            "same demand without swap must OOM-kill"
        );
        assert!(without.survivors < WORKERS);
        assert_eq!(without.swap_outs, 0, "no device, no traffic");
    }

    #[test]
    fn swap_figure_renders_with_all_series() {
        let (with, without) = run_swap_pair();
        let fig = swap_figure(&with, &without);
        assert_eq!(fig.series.len(), 3);
        let with = fig.series("with swap").unwrap();
        assert_eq!(with.points[1].y, 0.0, "zero kills with swap");
        let without = fig.series("no swap").unwrap();
        assert!(without.points[1].y >= 1.0, "kills without swap");
        assert!(fig.render().contains("fig_swap"));
    }
}
