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

use crate::experiments::fig1::machine_for;
use crate::os::{Os, OsConfig};
use fpr_api::{ProcessBuilder, SpawnAttrs};
use fpr_kernel::{MachineConfig, Pid};
use fpr_mem::{ForkMode, OvercommitPolicy, PressureLevel, Prot, Share, CYCLES_PER_US};
use fpr_rng::Rng;
use fpr_trace::metrics::Histogram;
use fpr_trace::{FigureData, ProcessShape, Series};

/// The service binary every request execs.
pub const SERVICE_BIN: &str = "/bin/tool";

/// Simulated cycles per second (the cost model's 3 GHz clock).
pub const CYCLES_PER_SEC: f64 = CYCLES_PER_US as f64 * 1_000_000.0;

/// How a request's child is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CreationPath {
    /// `posix_spawn` through the warm pool + image cache.
    SpawnFast,
    /// `fork(OnDemand)` + exec.
    ForkOnDemand,
    /// Classic COW `fork` + exec — the paper's accused.
    ForkCow,
    /// `vfork` + exec.
    VforkExec,
    /// The cross-process builder.
    Xproc,
}

impl CreationPath {
    /// All paths, in reporting order.
    pub const ALL: [CreationPath; 5] = [
        CreationPath::SpawnFast,
        CreationPath::ForkOnDemand,
        CreationPath::ForkCow,
        CreationPath::VforkExec,
        CreationPath::Xproc,
    ];

    /// Series label for figures and reports.
    pub fn label(self) -> &'static str {
        match self {
            CreationPath::SpawnFast => "spawn(fastpath)",
            CreationPath::ForkOnDemand => "fork(OnDemand)+exec",
            CreationPath::ForkCow => "fork(Cow)+exec",
            CreationPath::VforkExec => "vfork+exec",
            CreationPath::Xproc => "xproc",
        }
    }
}

/// Tunables for one open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Requests in the run.
    pub requests: usize,
    /// Offered arrival rate, requests per simulated second.
    pub offered_rate: f64,
    /// Front-end heap pages (what the fork paths must duplicate).
    pub parent_heap_pages: u64,
    /// `(path, weight)` mix the per-request draw uses.
    pub mix: Vec<(CreationPath, u32)>,
    /// Warm-pool size the autoscale tick maintains.
    pub pool_target: usize,
    /// Run the autoscale tick every this many requests.
    pub autoscale_every: usize,
    /// Pages each request's child touches as its "work".
    pub work_pages: u64,
    /// Seed for arrivals, mix draws, and every ASLR layout.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            requests: 320,
            offered_rate: 60_000.0,
            parent_heap_pages: 4_096,
            mix: vec![
                (CreationPath::SpawnFast, 6),
                (CreationPath::ForkOnDemand, 4),
                (CreationPath::VforkExec, 3),
                (CreationPath::Xproc, 2),
                (CreationPath::ForkCow, 2),
            ],
            pool_target: 4,
            autoscale_every: 4,
            work_pages: 4,
            seed: 42,
        }
    }
}

/// Per-path latency record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStats {
    /// Which creation path.
    pub path: CreationPath,
    /// Requests served through it.
    pub served: u64,
    /// Creation-to-exit latency (cycles) in log2 buckets.
    pub hist: Histogram,
}

/// Everything one open-loop run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// The configuration that produced it.
    pub config: ServiceConfig,
    /// Requests completed (always `config.requests` — every request is
    /// served; overload shows up as sojourn, not drops).
    pub completed: u64,
    /// Virtual cycles from time zero to the last completion.
    pub makespan_cycles: u64,
    /// Completions per simulated second over the makespan.
    pub sustained_rate: f64,
    /// Of the makespan, cycles the server was actually serving.
    pub busy_cycles: u64,
    /// Per-path service-latency records, in [`CreationPath::ALL`] order.
    pub per_path: Vec<PathStats>,
    /// Arrival-to-exit latency (cycles): service plus queueing delay.
    pub sojourn: Histogram,
    /// Children the autoscale ticks rebuilt during the run.
    pub autoscaled: u64,
    /// OOM kills (must be zero at the default rate).
    pub oom_kills: usize,
}

impl ServiceOutcome {
    /// The stats for `path`.
    pub fn stats(&self, path: CreationPath) -> &PathStats {
        self.per_path
            .iter()
            .find(|s| s.path == path)
            .expect("all paths present")
    }
}

/// Draws an exponential inter-arrival gap with the given mean (cycles).
fn exp_gap(rng: &mut Rng, mean_cycles: f64) -> u64 {
    // gen_f64 is in [0, 1); 1-u is in (0, 1], so ln never sees zero.
    let u = rng.gen_f64();
    (-(1.0 - u).ln() * mean_cycles) as u64 + 1
}

/// Draws a path from the weighted mix.
fn draw_path(rng: &mut Rng, mix: &[(CreationPath, u32)]) -> CreationPath {
    let total: u64 = mix.iter().map(|(_, w)| *w as u64).sum();
    let mut roll = rng.gen_below(total);
    for &(path, w) in mix {
        if roll < w as u64 {
            return path;
        }
        roll -= w as u64;
    }
    unreachable!("weights sum to total")
}

/// Creates the request's child via `path`, runs the request body (touch
/// `work_pages`), exits and reaps it. The cycles this spends *is* the
/// creation-to-exit latency.
fn serve(os: &mut Os, parent: Pid, path: CreationPath, work_pages: u64) {
    let child = match path {
        CreationPath::SpawnFast => os
            .spawn(parent, SERVICE_BIN, &[], &SpawnAttrs::default())
            .expect("spawn serves the request"),
        CreationPath::ForkOnDemand => os
            .fork_exec(parent, SERVICE_BIN, ForkMode::OnDemand)
            .expect("fork(OnDemand)+exec serves the request"),
        CreationPath::ForkCow => os
            .fork_exec(parent, SERVICE_BIN, ForkMode::Cow)
            .expect("fork(Cow)+exec serves the request"),
        CreationPath::VforkExec => os
            .vfork_exec(parent, SERVICE_BIN)
            .expect("vfork+exec serves the request"),
        CreationPath::Xproc => os
            .spawn_builder(parent, ProcessBuilder::new(SERVICE_BIN))
            .expect("xproc serves the request")
            .pid,
    };
    if work_pages > 0 {
        let base = os
            .kernel
            .mmap_anon(child, work_pages, Prot::RW, Share::Private)
            .expect("request working set");
        os.kernel
            .populate(child, base, work_pages)
            .expect("touch working set");
    }
    os.kernel.exit(child, 0).expect("request done");
    os.kernel.waitpid(parent, Some(child)).expect("reap");
}

/// Runs the open-loop service: Poisson arrivals, single front end, one
/// child per request. The virtual clock advances to each arrival (the
/// server idles when the queue is empty) and then by the measured cycles
/// of the service; a request arriving while an earlier one is being
/// served waits, which is exactly the queueing delay the sojourn
/// histogram captures.
pub fn run_service(cfg: &ServiceConfig) -> ServiceOutcome {
    let mut os = Os::boot(OsConfig {
        machine: machine_for(cfg.parent_heap_pages),
        seed: cfg.seed,
        ..Default::default()
    });
    let parent = os
        .make_parent(ProcessShape::with_heap(cfg.parent_heap_pages))
        .expect("front end fits");
    os.enable_spawn_fastpath().expect("fast path on");
    os.pool_prefill(SERVICE_BIN, cfg.pool_target)
        .expect("prefill");

    // Independent deterministic streams: arrival gaps and mix draws must
    // not perturb the ASLR draws `Os` makes per creation.
    let mut seed_rng = Rng::seed_from_u64(cfg.seed);
    let mut arrival_rng = seed_rng.fork_stream();
    let mut mix_rng = seed_rng.fork_stream();

    let mean_gap = CYCLES_PER_SEC / cfg.offered_rate;
    let mut arrivals = Vec::with_capacity(cfg.requests);
    let mut t = 0u64;
    for _ in 0..cfg.requests {
        t += exp_gap(&mut arrival_rng, mean_gap);
        arrivals.push((t, draw_path(&mut mix_rng, &cfg.mix)));
    }

    let mut per_path: Vec<PathStats> = CreationPath::ALL
        .iter()
        .map(|&path| PathStats {
            path,
            served: 0,
            hist: Histogram::default(),
        })
        .collect();
    let mut sojourn = Histogram::default();
    let mut clock = 0u64;
    let mut busy = 0u64;
    let mut autoscaled = 0u64;

    for (i, &(arrival, path)) in arrivals.iter().enumerate() {
        if clock < arrival {
            clock = arrival; // idle until the request lands
        }
        if i % cfg.autoscale_every.max(1) == 0 {
            // Maintenance tick: pressure-gated pool top-up, charged to
            // the loop (it delays later requests, not this one's latency).
            let (built, tick_cycles) = os.measure(|os| {
                os.pool_autoscale(SERVICE_BIN, cfg.pool_target)
                    .expect("autoscale tick")
            });
            autoscaled += built as u64;
            clock += tick_cycles;
        }
        let ((), service_cycles) =
            os.measure(|os| serve(os, parent, path, cfg.work_pages));
        clock += service_cycles;
        busy += service_cycles;
        let st = per_path
            .iter_mut()
            .find(|s| s.path == path)
            .expect("path present");
        st.served += 1;
        st.hist.record(service_cycles);
        sojourn.record(clock - arrival);
    }

    os.kernel.check_invariants().expect("invariants hold");
    let completed = cfg.requests as u64;
    let sustained_rate = completed as f64 / (clock as f64 / CYCLES_PER_SEC);
    ServiceOutcome {
        config: cfg.clone(),
        completed,
        makespan_cycles: clock,
        sustained_rate,
        busy_cycles: busy,
        per_path,
        sojourn,
        autoscaled,
        oom_kills: os.kernel.oom_kills.len(),
    }
}

// ---------------------------------------------------------------------
// The degradation arm: the same serving loop under memory pressure.
// ---------------------------------------------------------------------

/// Frames of the degradation machine (matches the E12 storm scale).
pub const DEGRADATION_FRAMES: u64 = 1024;
/// Warm-pool target for the degradation arm.
pub const DEGRADATION_POOL: usize = 8;
/// Spawn-serve requests measured per phase.
const PHASE_REQUESTS: usize = 12;
/// Resident storm workers squeezing the machine.
const STORM_WORKERS: usize = 4;

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

fn degradation_config() -> OsConfig {
    OsConfig {
        machine: MachineConfig {
            frames: DEGRADATION_FRAMES,
            overcommit: OvercommitPolicy::Always,
            ..MachineConfig::default()
        },
        ..Default::default()
    }
}

/// Spawn-serve latencies over [`PHASE_REQUESTS`] requests.
fn phase_samples(os: &mut Os, parent: Pid) -> Vec<u64> {
    (0..PHASE_REQUESTS)
        .map(|_| {
            let ((), cycles) =
                os.measure(|os| serve(os, parent, CreationPath::SpawnFast, 0));
            cycles
        })
        .collect()
}

/// Median of spawn-serve latencies over [`PHASE_REQUESTS`] requests.
fn phase_latency(os: &mut Os, parent: Pid) -> u64 {
    let mut samples = phase_samples(os, parent);
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The classic-path reference on the degradation machine: same parent
/// shape and request body, fast path never enabled.
pub fn degraded_reference_cost() -> u64 {
    let mut os = Os::boot(degradation_config());
    let parent = os
        .make_parent(ProcessShape::with_heap(32))
        .expect("parent fits");
    phase_latency(&mut os, parent)
}

/// Drives the serving loop through pool-drain and back: a calm phase
/// (pool hits), a resident-worker storm that forces shrinker reclaim to
/// drain the pool and image cache (spawn degrades to the classic path;
/// the autoscale tick refuses to refill against the pressure), then
/// relief and an autoscale-driven recovery. Nobody is OOM-killed at any
/// point — that is the whole point.
pub fn run_degradation() -> DegradationOutcome {
    let mut os = Os::boot(degradation_config());
    let parent = os
        .make_parent(ProcessShape::with_heap(32))
        .expect("parent fits");
    os.enable_spawn_fastpath().expect("fast path on");
    os.pool_prefill(SERVICE_BIN, DEGRADATION_POOL)
        .expect("prefill");

    // Phase 0 — calm: requests ride the pool; the tick keeps it topped.
    let calm = phase_latency(&mut os, parent);
    os.pool_autoscale(SERVICE_BIN, DEGRADATION_POOL)
        .expect("calm top-up");
    let pool_calm = pool_parked(&os);

    // Phase 1 — storm: resident workers fault in pages until shrinker
    // reclaim has drained both fast-path caches dry.
    let chunk = DEGRADATION_FRAMES / STORM_WORKERS as u64;
    let workers: Vec<(Pid, fpr_mem::Vpn)> = (0..STORM_WORKERS)
        .map(|i| {
            let w = os
                .kernel
                .allocate_process(os.init, &format!("svc_worker{i}"))
                .expect("worker");
            let base = os
                .kernel
                .mmap_anon(w, chunk, Prot::RW, Share::Private)
                .expect("admitted on credit");
            (w, base)
        })
        .collect();
    let mut touched = [0u64; STORM_WORKERS];
    let mut peak = PressureLevel::None;
    'storm: loop {
        let drained = pool_parked(&os) == 0 && cached_frames(&os) == 0;
        if drained {
            break 'storm;
        }
        let mut progressed = false;
        for (i, &(w, base)) in workers.iter().enumerate() {
            if touched[i] >= chunk {
                continue;
            }
            match os.kernel.write_mem(w, base.add(touched[i]), 1) {
                Ok(_) => {
                    touched[i] += 1;
                    progressed = true;
                }
                Err(fpr_kernel::Errno::Enomem) => break 'storm,
                Err(e) => panic!("unexpected storm error: {e}"),
            }
            peak = peak.max(os.kernel.memory_pressure());
        }
        if !progressed {
            break;
        }
    }
    let pool_storm = pool_parked(&os);
    // The tick must refuse to grow the pool into the storm.
    let storm_autoscale_built = os
        .pool_autoscale(SERVICE_BIN, DEGRADATION_POOL)
        .expect("storm tick");
    // The first post-drain request pays the full classic fallback (pool
    // and cache both empty). Later requests in the phase ride the cache
    // the fallback itself re-warms — real behaviour, but the headline
    // degradation number is that first hit.
    let storm = phase_samples(&mut os, parent)[0];

    // Phase 2 — relief: the storm passes, the tick restores the pool.
    for &(w, _) in &workers {
        os.kernel.exit(w, 0).expect("worker exit");
        os.kernel.waitpid(os.init, Some(w)).expect("reap worker");
    }
    let recovery_autoscale_built = os
        .pool_autoscale(SERVICE_BIN, DEGRADATION_POOL)
        .expect("recovery tick");
    let recovered = phase_latency(&mut os, parent);
    // The measurements consumed parked children; one more tick restores
    // the target before the occupancy snapshot.
    os.pool_autoscale(SERVICE_BIN, DEGRADATION_POOL)
        .expect("final top-up");

    os.kernel.check_invariants().expect("invariants hold");
    DegradationOutcome {
        spawn_latency: [calm, storm, recovered],
        pool_parked: [pool_calm, pool_storm, pool_parked(&os)],
        storm_autoscale_built,
        recovery_autoscale_built,
        classic_reference: degraded_reference_cost(),
        peak_pressure: peak,
        reclaim_passes: os.kernel.reclaim_stats().passes,
        oom_kills: os.kernel.oom_kills.len(),
    }
}

fn pool_parked(os: &Os) -> usize {
    os.fastpath().expect("enabled").pool().total_parked()
}

fn cached_frames(os: &Os) -> u64 {
    os.fastpath().expect("enabled").cache().cached_frames()
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
        let mut s = Series::new(format!("{} us", st.path.label()));
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
    thr.push(0.0, outcome.config.offered_rate / 1_000.0);
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
        assert_eq!(o.completed, o.config.requests as u64);
        assert_eq!(o.oom_kills, 0, "default rate must not OOM");
        for st in &o.per_path {
            assert!(st.served > 0, "{} never drawn", st.path.label());
            assert_eq!(st.served, st.hist.count);
        }
        let p99 = |p| o.stats(p).hist.p99();
        assert!(
            p99(CreationPath::SpawnFast) < p99(CreationPath::ForkOnDemand),
            "spawn fast path p99 {} must beat fork(OnDemand) p99 {}",
            p99(CreationPath::SpawnFast),
            p99(CreationPath::ForkOnDemand)
        );
        assert!(
            p99(CreationPath::ForkOnDemand) < p99(CreationPath::ForkCow),
            "fork(OnDemand) p99 {} must beat fork(Cow) p99 {}",
            p99(CreationPath::ForkOnDemand),
            p99(CreationPath::ForkCow)
        );
        assert!(o.autoscaled > 0, "the tick kept the pool alive");
        // Open loop below saturation: the server keeps up with the
        // offered rate (sojourn includes waits, but completions track
        // arrivals).
        assert!(
            o.sustained_rate > o.config.offered_rate * 0.8,
            "sustained {} vs offered {}",
            o.sustained_rate,
            o.config.offered_rate
        );
        assert!(o.busy_cycles <= o.makespan_cycles);
    }

    #[test]
    fn sojourn_dominates_service_latency() {
        let o = run_service(&quick_config());
        // Sojourn = service + queueing: its p99 can never undercut the
        // fastest path's p50.
        assert!(o.sojourn.p99() >= o.stats(CreationPath::SpawnFast).hist.p50());
        assert_eq!(o.sojourn.count, o.completed);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        // The determinism contract the bench JSON relies on: two
        // identically seeded E15 figures serialize to the same bytes.
        let a = default_figure().to_json();
        let b = default_figure().to_json();
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
        assert_eq!(d.pool_parked[0], DEGRADATION_POOL, "calm pool full");
        assert_eq!(d.pool_parked[1], 0, "storm drained the pool");
        assert_eq!(d.pool_parked[2], DEGRADATION_POOL, "recovery refilled");
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
        for path in CreationPath::ALL {
            assert!(
                fig.series(&format!("{} us", path.label())).is_some(),
                "missing series for {}",
                path.label()
            );
        }
        assert!(fig.series("degradation parked children").is_some());
        assert!(fig.render().contains("fig_service"));
    }
}
