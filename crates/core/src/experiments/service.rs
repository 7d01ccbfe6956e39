//! E15: service workload with tail latency — an open-loop FaaS/zygote
//! front end over every creation path.
//!
//! Every other bench measures one creation in isolation. This experiment
//! puts creation on the critical path of request serving, the paper's
//! zygote/server story: a front-end process receives an open-loop
//! Poisson stream of requests and serves each with a short-lived child,
//! drawing the creation path per request from a configurable mix —
//! spawn fast path (cache + warm pool), `fork(OnDemand)`+exec,
//! `fork(Cow)`+exec, `vfork`+exec, and the xproc builder. A simulated
//! clock advances in cycle time: arrivals come from deterministic
//! exponential gaps (`fpr-rng`), service work is metered by the kernel's
//! own cycle accounting, and a maintenance tick between requests runs
//! pressure-gated warm-pool autoscaling ([`crate::os::Os::pool_autoscale`]) —
//! checkout consumes a parked child per request, so without the tick the
//! fast path starves.
//!
//! Reported per path: requests served and p50/p95/p99 creation-to-exit
//! latency extracted from `fpr-trace` log2 histograms
//! ([`fpr_trace::metrics::Histogram::percentile`]). Reported overall:
//! sustained throughput against the offered rate and the arrival-to-exit
//! (sojourn) tail, which folds in queueing delay. A separate degradation
//! run ([`run_degradation`]) squeezes the same loop on a small machine:
//! a resident-worker storm drains the pool through the PR 5 shrinker
//! reclaim, spawn degrades to the classic path, the storm lifts, and the
//! autoscale tick restores the fast path — with zero OOM kills
//! throughout.

use crate::experiments::pressure::{
    drained, pool_parked, storm_world, POOL_PREFILL, STORM_FRAMES, WORKERS,
};
use crate::kit::{
    arrivals, machine_for, open_loop, world_seeded, CreationPath, PathStats, Storm, Work,
    CYCLES_PER_SEC,
};
use crate::os::Os;
use fpr_kernel::Pid;
use fpr_mem::{PressureLevel, CYCLES_PER_US};
use fpr_trace::metrics::Histogram;
use fpr_trace::{FigureData, ProcessShape, Series};

/// The service binary every request execs.
pub const SERVICE_BIN: &str = "/bin/tool";
/// Offered arrival rate, requests per simulated second.
pub const OFFERED_RATE: f64 = 60_000.0;
/// `(path, weight)` mix the per-request draw uses.
pub(crate) const MIX: [(CreationPath, u32); 5] = [
    (CreationPath::Spawn(SERVICE_BIN), 6),
    (CreationPath::ForkOnDemand(SERVICE_BIN), 4),
    (CreationPath::VforkExec(SERVICE_BIN), 3),
    (CreationPath::Xproc(SERVICE_BIN), 2),
    (CreationPath::ForkCow(SERVICE_BIN), 2),
];
/// Warm-pool size the autoscale tick maintains.
const POOL_TARGET: usize = 4;
/// The autoscale tick runs every this many requests.
const AUTOSCALE_EVERY: usize = 4;
/// Pages each request's child touches as its "work".
const WORK_PAGES: u64 = 4;

/// Tunables for one open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Requests in the run.
    pub requests: usize,
    /// Front-end heap pages (what the fork paths must duplicate).
    pub parent_heap_pages: u64,
    /// Seed for arrivals, mix draws, and every ASLR layout.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            requests: 320,
            parent_heap_pages: 4_096,
            seed: 42,
        }
    }
}

/// Everything one open-loop run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// Requests completed (every request is served; overload shows up as
    /// sojourn, not drops).
    pub completed: u64,
    /// Virtual cycles from time zero to the last completion.
    pub makespan_cycles: u64,
    /// Completions per simulated second over the makespan.
    pub sustained_rate: f64,
    /// Of the makespan, cycles the server was actually serving.
    pub busy_cycles: u64,
    /// Per-path service-latency records, in [`CreationPath`] order.
    pub per_path: Vec<PathStats>,
    /// Arrival-to-exit latency (cycles): service plus queueing delay.
    pub sojourn: Histogram,
    /// Children the autoscale ticks rebuilt during the run.
    pub autoscaled: u64,
    /// OOM kills (must be zero at the default rate).
    pub oom_kills: usize,
}

impl ServiceOutcome {
    /// The stats for `path`, one of `MIX`.
    pub fn stats(&self, path: CreationPath) -> &PathStats {
        self.per_path
            .iter()
            .find(|s| s.path == path)
            .expect("a path of the mix")
    }
}

/// Series label of `path`: E15's spawns ride the fast path, and say so.
pub fn label(path: CreationPath) -> &'static str {
    match path {
        CreationPath::Spawn(_) => "spawn(fastpath)",
        other => other.label(),
    }
}

/// Runs the open-loop service: Poisson arrivals at [`OFFERED_RATE`], a
/// single front end, one child per request drawn from `MIX`; each child
/// populates `WORK_PAGES` fresh pages, exits and is reaped, and the
/// cycles that takes *is* its creation-to-exit latency.
pub fn run_service(cfg: &ServiceConfig) -> ServiceOutcome {
    let shape = ProcessShape::with_heap(cfg.parent_heap_pages);
    let (mut os, parent) = world_seeded(machine_for(cfg.parent_heap_pages), cfg.seed, shape);
    os.warm_pool(SERVICE_BIN, POOL_TARGET).expect("prefill");

    let mean_gap = CYCLES_PER_SEC / OFFERED_RATE;
    let mut autoscaled = 0u64;
    let served = open_loop(
        &MIX,
        &arrivals(cfg.seed, cfg.requests, mean_gap, &MIX),
        |i, path| {
            let mut tick_cycles = 0;
            if i % AUTOSCALE_EVERY == 0 {
                // Maintenance tick: pressure-gated pool top-up, charged to
                // the loop (it delays later requests, not this one's latency).
                let (built, cycles) = os.measure(|os| {
                    os.pool_autoscale(SERVICE_BIN, POOL_TARGET)
                        .expect("autoscale tick")
                });
                autoscaled += built as u64;
                tick_cycles = cycles;
            }
            let request = os
                .serve(parent, path, Work::Populate(WORK_PAGES))
                .expect("the request is served");
            (tick_cycles, request.total())
        },
    );

    os.kernel.check_invariants().expect("invariants hold");
    ServiceOutcome {
        completed: served.sojourn.count,
        sustained_rate: served.sustained_rate(),
        makespan_cycles: served.makespan_cycles,
        busy_cycles: served.busy_cycles,
        per_path: served.per_path,
        sojourn: served.sojourn,
        autoscaled,
        oom_kills: os.kernel.oom_kills.len(),
    }
}

// ---------------------------------------------------------------------
// The degradation arm: the same serving loop under memory pressure, on
// the E12 storm world (machine, parent, pool and worker count).
// ---------------------------------------------------------------------

/// Spawn-serve requests measured per phase.
const PHASE_REQUESTS: usize = 12;

/// What the pool-drain → classic-fallback → recovery sequence observed.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationOutcome {
    /// Spawn-serve latency (cycles) per phase: calm median, first
    /// post-drain request (the full classic fallback), recovered median.
    pub spawn_latency: [u64; 3],
    /// Parked warm children at each phase boundary.
    pub pool_parked: [usize; 3],
    /// Children the autoscale tick built during the storm (must be 0:
    /// the gate refuses under pressure).
    pub storm_autoscale_built: usize,
    /// Children the tick rebuilt after relief.
    pub recovery_autoscale_built: usize,
    /// Classic-path reference cost on the same machine (cycles).
    pub classic_reference: u64,
    /// Worst pressure level the storm reached.
    pub peak_pressure: PressureLevel,
    /// Kernel reclaim passes the storm forced.
    pub reclaim_passes: u64,
    /// OOM kills across all three phases (must be zero).
    pub oom_kills: usize,
}

/// Spawn-serve latencies over [`PHASE_REQUESTS`] requests.
fn phase_samples(os: &mut Os, parent: Pid) -> Vec<u64> {
    (0..PHASE_REQUESTS)
        .map(|_| {
            os.serve(parent, CreationPath::Spawn(SERVICE_BIN), Work::Nothing)
                .expect("spawn serves the request")
                .total()
        })
        .collect()
}

/// Median of spawn-serve latencies over [`PHASE_REQUESTS`] requests.
fn phase_latency(os: &mut Os, parent: Pid) -> u64 {
    let mut samples = phase_samples(os, parent);
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Drives the serving loop through pool-drain and back: a calm phase
/// (pool hits), a resident-worker storm that forces shrinker reclaim to
/// drain the pool and image cache (spawn degrades to the classic path;
/// the autoscale tick refuses to refill against the pressure), then
/// relief and an autoscale-driven recovery. Nobody is OOM-killed at any
/// point — that is the whole point.
pub fn run_degradation() -> DegradationOutcome {
    let (mut os, parent) = storm_world();
    os.warm_pool(SERVICE_BIN, POOL_PREFILL).expect("prefill");
    let tick = |os: &mut Os| {
        os.pool_autoscale(SERVICE_BIN, POOL_PREFILL)
            .expect("autoscale tick")
    };

    // Phase 0 — calm: requests ride the pool; the tick keeps it topped.
    let calm = phase_latency(&mut os, parent);
    tick(&mut os);
    let pool_calm = pool_parked(&os);

    // Phase 1 — storm: resident workers fault in pages until shrinker
    // reclaim has drained both fast-path caches dry.
    let mut storm = Storm::admit(&mut os, WORKERS, STORM_FRAMES / WORKERS as u64);
    storm.run(&mut os, |os, _| drained(os), |_, _| None);
    let pool_storm = pool_parked(&os);
    // The tick must refuse to grow the pool into the storm.
    let storm_autoscale_built = tick(&mut os);
    // The first post-drain request pays the full classic fallback (pool
    // and cache both empty). Later requests in the phase ride the cache
    // the fallback itself re-warms — real behaviour, but the headline
    // degradation number is that first hit.
    let degraded = phase_samples(&mut os, parent)[0];

    // Phase 2 — relief: the storm passes, the tick restores the pool.
    let peak_pressure = storm.peak;
    storm.relieve(&mut os);
    let recovery_autoscale_built = tick(&mut os);
    let recovered = phase_latency(&mut os, parent);
    // The measurements consumed parked children; one more tick restores
    // the target before the occupancy snapshot.
    tick(&mut os);

    os.kernel.check_invariants().expect("invariants hold");
    // The classic-path reference: same world and request, fast path
    // never enabled.
    let (mut classic, classic_parent) = storm_world();
    DegradationOutcome {
        spawn_latency: [calm, degraded, recovered],
        pool_parked: [pool_calm, pool_storm, pool_parked(&os)],
        storm_autoscale_built,
        recovery_autoscale_built,
        classic_reference: phase_latency(&mut classic, classic_parent),
        peak_pressure,
        reclaim_passes: os.kernel.reclaim_stats().passes,
        oom_kills: os.kernel.oom_kills.len(),
    }
}

/// Builds the E15 figure from one [`run_service`] and one
/// [`run_degradation`] outcome: per-path p50/p95/p99 service latency, the
/// sojourn tail, throughput against the offered rate, and the
/// degradation arm's three-phase series.
pub fn figure(outcome: &ServiceOutcome, degraded: &DegradationOutcome) -> FigureData {
    let us = |c: u64| c as f64 / CYCLES_PER_US as f64;

    let mut fig = FigureData::new(
        "fig_service",
        "open-loop service: creation-path tail latency, throughput, and pressure degradation",
        "percentile (latency series) / metric or phase index (others)",
        "latency us / kreq per s / count",
    );
    for st in &outcome.per_path {
        let mut s = Series::new(format!("{} us", label(st.path)));
        for p in [50.0, 95.0, 99.0] {
            s.push(p, us(st.hist.percentile(p)));
        }
        fig.series.push(s);
    }
    let mut soj = Series::new("sojourn (arrival-to-exit) us");
    for p in [50.0, 95.0, 99.0] {
        soj.push(p, us(outcome.sojourn.percentile(p)));
    }
    fig.series.push(soj);
    let mut thr = Series::new("throughput (0=offered kreq/s, 1=sustained kreq/s, 2=oom kills)");
    thr.push(0.0, OFFERED_RATE / 1_000.0);
    thr.push(1.0, outcome.sustained_rate / 1_000.0);
    thr.push(2.0, outcome.oom_kills as f64);
    fig.series.push(thr);
    let mut dspawn = Series::new("degradation spawn us (0=calm, 1=storm, 2=recovered)");
    for (x, &c) in degraded.spawn_latency.iter().enumerate() {
        dspawn.push(x as f64, us(c));
    }
    fig.series.push(dspawn);
    let mut dpool = Series::new("degradation parked children");
    for (x, &n) in degraded.pool_parked.iter().enumerate() {
        dpool.push(x as f64, n as f64);
    }
    fig.series.push(dpool);
    let mut dkills = Series::new("degradation oom kills");
    for x in 0..3 {
        dkills.push(x as f64, if x == 1 { degraded.oom_kills as f64 } else { 0.0 });
    }
    fig.series.push(dkills);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            requests: 96,
            parent_heap_pages: 1_024,
            ..ServiceConfig::default()
        }
    }

    fn default_figure() -> FigureData {
        figure(&run_service(&ServiceConfig::default()), &run_degradation())
    }

    #[test]
    fn open_loop_orders_the_paths_and_kills_nobody() {
        let o = run_service(&ServiceConfig::default());
        assert_eq!(o.completed, ServiceConfig::default().requests as u64);
        assert_eq!(o.oom_kills, 0, "default rate must not OOM");
        for st in &o.per_path {
            assert!(st.served > 0, "{} never drawn", label(st.path));
            assert_eq!(st.served, st.hist.count);
        }
        let p99 = |p| o.stats(p).hist.p99();
        let spawn = p99(CreationPath::Spawn(SERVICE_BIN));
        let odf = p99(CreationPath::ForkOnDemand(SERVICE_BIN));
        let cow = p99(CreationPath::ForkCow(SERVICE_BIN));
        assert!(
            spawn < odf,
            "spawn fast path p99 {spawn} must beat fork(OnDemand) p99 {odf}"
        );
        assert!(
            odf < cow,
            "fork(OnDemand) p99 {odf} must beat fork(Cow) p99 {cow}"
        );
        assert!(o.autoscaled > 0, "the tick kept the pool alive");
        // Open loop below saturation: the server keeps up with the
        // offered rate (sojourn includes waits, but completions track
        // arrivals).
        assert!(
            o.sustained_rate > OFFERED_RATE * 0.8,
            "sustained {} vs offered {OFFERED_RATE}",
            o.sustained_rate
        );
        assert!(o.busy_cycles <= o.makespan_cycles);
    }

    #[test]
    fn sojourn_dominates_service_latency() {
        let o = run_service(&quick_config());
        // Sojourn = service + queueing: its p99 can never undercut the
        // fastest path's p50.
        let spawn = o.stats(CreationPath::Spawn(SERVICE_BIN));
        assert!(o.sojourn.p99() >= spawn.hist.p50());
        assert_eq!(o.sojourn.count, o.completed);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        // The determinism contract the bench JSON relies on: two
        // identically seeded E15 figures serialize to the same bytes.
        let a = default_figure().to_value().pretty();
        let b = default_figure().to_value().pretty();
        assert_eq!(a, b, "same-seed fig_service JSON must be byte-identical");
    }

    #[test]
    fn different_seed_changes_arrivals_not_health() {
        let mut cfg = quick_config();
        cfg.seed = 7;
        let o = run_service(&cfg);
        assert_eq!(o.oom_kills, 0);
        assert_eq!(o.completed, cfg.requests as u64);
    }

    #[test]
    fn degradation_drains_falls_back_and_recovers() {
        let d = run_degradation();
        assert_eq!(d.oom_kills, 0, "graceful degradation never kills");
        assert_eq!(d.pool_parked[0], POOL_PREFILL, "calm pool full");
        assert_eq!(d.pool_parked[1], 0, "storm drained the pool");
        assert_eq!(d.pool_parked[2], POOL_PREFILL, "recovery refilled");
        assert_eq!(
            d.storm_autoscale_built, 0,
            "autoscale must refuse to fight reclaim"
        );
        assert!(d.recovery_autoscale_built > 0, "relief tick rebuilt");
        assert!(d.peak_pressure >= PressureLevel::High);
        assert!(d.reclaim_passes >= 1);
        let [calm, storm, recovered] = d.spawn_latency;
        assert!(calm < storm, "calm {calm} must beat degraded {storm}");
        assert!(recovered < storm, "recovered {recovered} must beat {storm}");
        // Degraded spawns ride the classic path: same cost class.
        let ratio = storm as f64 / d.classic_reference as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "degraded spawn {} vs classic {} (ratio {ratio:.3})",
            storm,
            d.classic_reference
        );
    }

    #[test]
    fn figure_has_all_series() {
        let fig = default_figure();
        assert_eq!(fig.series.len(), 10);
        for (path, _) in MIX {
            assert!(
                fig.series(&format!("{} us", label(path))).is_some(),
                "missing series for {}",
                label(path)
            );
        }
        assert!(fig.series("degradation parked children").is_some());
        assert!(fig.render().contains("fig_service"));
    }
}
