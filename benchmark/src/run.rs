//! The untraced run: set-up, timed same-work batches, and the end-to-end
//! metrics on both clocks.

use crate::engine::{
    boot, check_batch, run_batch, BatchLog, BootTiming, NoTrace, Tally, Tracer, World,
};
use crate::report::Measured;
use crate::stats::{
    digest, quantile_index, quantile_u64, relative_range, samples_beyond, FifoServer,
};
use crate::workload::{arrival_gaps, generate, replay_rng, Kind, Sequence, Spec, CYCLES_PER_SEC};
use std::time::Instant;

/// The parts of a run whose estimates are compared to give its spread.
const QUARTERS: usize = 4;

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Requests per batch.
    pub requests: usize,
    /// Timed batches a run makes at the least; also the batches whose
    /// cycles the virtual metrics are taken from, so those do not depend
    /// on how fast the host is.
    pub min_batches: usize,
    /// Run exactly `min_batches` batches instead of filling `--seconds`.
    pub fixed: bool,
    /// Batches whose request times feed the host-time estimate: this
    /// many however many the run serves, evenly spaced over the window,
    /// so that faster code does not get more draws at a quiet moment.
    pub sampled_batches: usize,
    /// Set-ups made during a run, evenly spaced over the window; all of
    /// them feed `setup_s`.
    pub boots: usize,
    /// Batches per arm of the traced run at the least.
    pub traced_batches: usize,
    /// Repetitions of each stand-alone probe.
    pub probe_reps: usize,
    /// Requests the virtual queue serves at the least. The recorded
    /// requests are replayed as often as that takes, each time in a fresh
    /// seeded order against fresh arrivals: the p99 sojourn of a few
    /// thousand arrivals is at the mercy of where the bursts fall
    /// (README.md, "End-to-end metrics").
    pub queue_requests: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` is measured at.
    pub fn full(spec: &Spec) -> Sizes {
        Sizes {
            requests: spec.batch_requests,
            min_batches: 40,
            fixed: false,
            sampled_batches: 96,
            boots: 96,
            traced_batches: 10,
            probe_reps: 32,
            queue_requests: 8_000_000,
        }
    }

    /// `--smoke`: 4 batches of 1/20 the requests, whatever `--seconds` says.
    pub fn smoke(spec: &Spec) -> Sizes {
        Sizes {
            requests: spec.batch_requests.div_ceil(20),
            min_batches: 4,
            fixed: true,
            sampled_batches: 4,
            boots: 4,
            traced_batches: 4,
            probe_reps: 4,
            queue_requests: 20_000,
        }
    }

    /// The request sequence of a run at these sizes.
    pub fn sequence(&self, spec: &Spec, seed: u64) -> Sequence {
        generate(spec, seed, self.requests)
    }
}

/// Host timings of one complete set-up.
#[derive(Debug, Clone)]
pub struct SetupSample {
    /// Seconds from before `Os::boot` to after the warm-up's output checks.
    pub setup_s: f64,
    /// Split of the boot.
    pub boot: BootTiming,
    /// Host nanoseconds of its steps, which add up to `setup_s`: boot,
    /// `make_parent`, each warm-up request, and all the rest (fast path,
    /// pool prefill, output checks). Every set-up of a run makes the same
    /// steps.
    pub steps: Vec<u32>,
}

/// Which batches of a run feed the host-time estimate: the first to
/// start after each `1/count` of the window.
pub struct Schedule {
    start: Instant,
    window_s: f64,
    count: usize,
    taken: usize,
}

impl Schedule {
    /// `count` samples over the `window_s` seconds that start now.
    pub fn new(window_s: f64, count: usize) -> Schedule {
        Schedule {
            start: Instant::now(),
            window_s,
            count,
            taken: 0,
        }
    }

    /// Seconds since the window opened.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether the batch about to start is a sample, and if so which
    /// quarter of the run it stands for.
    pub fn due(&mut self) -> Option<usize> {
        if self.elapsed_s() < self.window_s * self.taken as f64 / self.count as f64 {
            return None;
        }
        let quarter = (self.taken * QUARTERS / self.count).min(QUARTERS - 1);
        self.taken += 1;
        Some(quarter)
    }
}

/// The floor of a piece of work the run repeats: the work is cut into
/// slots that add up to its wall time, every slot keeps the least time it
/// took in any sampled repeat, and the estimate is the sum over the slots.
/// Every repeat does the same thing in the same order, so all of its work
/// is in the sum. The same estimate is kept for each quarter of the run
/// alone. See README.md, "The host-time estimator", for the measurement
/// behind the choice.
#[derive(Debug, Clone, Default)]
pub struct Quiet {
    /// Per quarter, the least of each slot; empty until it has a sample.
    by_quarter: [Vec<u32>; QUARTERS],
}

impl Quiet {
    /// Takes in one repeat's slot times as a sample of `quarter`.
    pub fn sample(&mut self, quarter: usize, slots: &[u32]) {
        let least = &mut self.by_quarter[quarter];
        if least.is_empty() {
            least.extend_from_slice(slots);
        }
        for (least, &ns) in least.iter_mut().zip(slots) {
            *least = ns.min(*least);
        }
    }

    /// Host nanoseconds of one repeat on a quiet machine.
    pub fn ns(&self) -> f64 {
        let mut sampled = self.by_quarter.iter().filter(|q| !q.is_empty());
        let Some(first) = sampled.next() else {
            return 0.0;
        };
        let mut least = first.clone();
        for quarter in sampled {
            for (least, &ns) in least.iter_mut().zip(quarter) {
                *least = ns.min(*least);
            }
        }
        least.into_iter().map(f64::from).sum()
    }

    /// The same estimate from each quarter's samples alone.
    pub fn ns_by_quarter(&self) -> Vec<f64> {
        let sampled = self.by_quarter.iter().filter(|q| !q.is_empty());
        sampled
            .map(|q| q.iter().map(|&ns| f64::from(ns)).sum())
            .collect()
    }
}

/// What a series of timed batches produced.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Host wall time per batch.
    pub batch_ns: Vec<u64>,
    /// Modelled cycles per batch, for the batches whose cycles are kept.
    pub batch_cycles: Vec<u64>,
    /// Per-request service cycles of those batches, in serving order.
    pub service: Vec<u64>,
    /// Per-request tick cycles of those batches.
    pub ticks: Vec<u64>,
    /// The floor of a batch over the sampled batches; a slot is a request
    /// and the tick before it.
    pub quiet: Quiet,
}

/// Sets up from scratch: boot, parent, fast path, pool prefill and the
/// untimed warm-up, whose output checks also fix the baseline the later
/// ones compare against.
pub fn set_up(spec: &Spec, seq: &Sequence, seed: u64, tally: &mut Tally) -> (World, SetupSample) {
    let start = Instant::now();
    let (mut world, boot) = boot(spec, seed);
    let mut log = BatchLog::default();
    let warm_up = seq.warm_up(spec);
    run_batch(
        &mut world,
        spec,
        seq,
        warm_up,
        tally,
        &mut NoTrace,
        &mut log,
    );
    check_batch(&mut world, tally);
    let total = start.elapsed();
    let ns = |ns: u64| u32::try_from(ns).unwrap_or(u32::MAX);
    let mut steps = vec![ns(boot.boot_ns), ns(boot.make_parent_ns)];
    steps.extend_from_slice(&log.host_ns);
    let rest = (total.as_nanos() as u64).saturating_sub(steps.iter().map(|&s| u64::from(s)).sum());
    steps.push(ns(rest));
    let sample = SetupSample {
        setup_s: total.as_secs_f64(),
        boot,
        steps,
    };
    (world, sample)
}

/// One long-lived world serving batches of one sequence.
pub struct Arm<'a> {
    /// The machine and its parent.
    pub world: World,
    spec: &'a Spec,
    seq: &'a Sequence,
    /// Keep per-request cycles of batches below this index.
    keep_cycles_of: usize,
    /// What the batches served so far cost.
    pub timed: Timed,
    log: BatchLog,
}

impl<'a> Arm<'a> {
    /// An arm serving `seq` on a world that has been set up for it.
    pub fn new(world: World, spec: &'a Spec, seq: &'a Sequence, keep_cycles_of: usize) -> Arm<'a> {
        Arm {
            world,
            spec,
            seq,
            keep_cycles_of,
            timed: Timed::default(),
            log: BatchLog::default(),
        }
    }

    /// Serves the next batch and files its costs; its request times feed
    /// the host-time estimate of `sample`'s quarter if that is given.
    pub fn serve<T: Tracer>(&mut self, tally: &mut Tally, tracer: &mut T, sample: Option<usize>) {
        let batch = self.timed.batch_ns.len();
        let cost = run_batch(
            &mut self.world,
            self.spec,
            self.seq,
            self.seq.batch(),
            tally,
            tracer,
            &mut self.log,
        );
        if let Some(quarter) = sample {
            self.timed.quiet.sample(quarter, &self.log.host_ns);
        }
        self.timed.batch_ns.push(cost.host_ns);
        if batch < self.keep_cycles_of {
            self.timed.batch_cycles.push(cost.cycles);
            self.timed.service.extend_from_slice(&self.log.service);
            self.timed.ticks.extend_from_slice(&self.log.ticks);
        }
    }

    /// The output checks after a batch, outside anything that is measured.
    pub fn check(&mut self, tally: &mut Tally) {
        check_batch(&mut self.world, tally);
    }
}

/// The virtual-clock figures of a run: exact for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Virt {
    /// Requests the figures are over.
    pub samples: usize,
    /// Samples beyond the p99 index.
    pub beyond_p99: usize,
    /// Median service cycles.
    pub p50: u64,
    /// p99 service cycles.
    pub p99: u64,
    /// Requests per modelled second at saturation.
    pub capacity: f64,
    /// p99 arrival-to-exit cycles at the offered rate.
    pub sojourn_p99: u64,
    /// p99 of sojourn minus own service.
    pub queue_wait_p99: u64,
    /// Offered load over capacity.
    pub utilisation: f64,
    /// Digest of the per-request service cycle sequence.
    pub digest: u64,
    /// Median service cycles and request count per kind in the mix.
    pub per_kind: Vec<(Kind, u64, usize)>,
}

/// Derives the virtual metrics from the cycles recorded in the first
/// `batches` batches. The open loop is replayed in virtual time only:
/// Poisson arrivals at the offered rate into one FIFO server whose
/// service times are the recorded ones, and which runs its maintenance
/// tick before every `tick_every`-th request it serves, as the serving
/// loop does, at the recorded tick costs in turn.
pub fn virt(
    spec: &Spec,
    seq: &Sequence,
    seed: u64,
    timed: &Timed,
    batches: usize,
    queue_requests: usize,
) -> Virt {
    let n = batches * seq.requests.len();
    let (service, ticks) = (&timed.service[..n], &timed.ticks[..n]);
    let mut gaps = arrival_gaps(spec, seed);
    let mut order_rng = replay_rng(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let tick_costs: Vec<u64> = ticks
        .chunks(seq.requests.len())
        .flat_map(|batch| batch.iter().step_by(spec.tick_every.max(1)))
        .copied()
        .collect();
    let mut server = FifoServer::default();
    let (mut sojourn, mut wait) = (Vec::new(), Vec::new());
    for _ in 0..queue_requests.div_ceil(n) {
        order_rng.shuffle(&mut order);
        for &i in &order {
            let gap = gaps.next().expect("arrivals never end");
            let arrival = sojourn.len();
            let tick = if spec.tick_every > 0 && arrival % spec.tick_every == 0 {
                tick_costs[arrival / spec.tick_every % tick_costs.len()]
            } else {
                0
            };
            let served = server.serve(gap, tick, service[i]);
            sojourn.push(served.sojourn);
            wait.push(served.wait);
        }
    }
    let mut sorted = service.to_vec();
    sorted.sort_unstable();
    let busy: u64 = timed.batch_cycles[..batches].iter().sum();
    let capacity = n as f64 / busy as f64 * CYCLES_PER_SEC;

    let kinds: Vec<Kind> = (0..batches)
        .flat_map(|_| seq.batch().map(|r| r.kind))
        .collect();
    let per_kind = spec
        .mix
        .iter()
        .map(|&(kind, _)| {
            let mut cycles: Vec<u64> = kinds
                .iter()
                .zip(service)
                .filter(|(k, _)| **k == kind)
                .map(|(_, c)| *c)
                .collect();
            let count = cycles.len();
            (kind, quantile_u64(&mut cycles, 0.5), count)
        })
        .collect();

    Virt {
        samples: n,
        beyond_p99: samples_beyond(n, 0.99),
        p50: sorted[quantile_index(n, 0.5)],
        p99: sorted[quantile_index(n, 0.99)],
        capacity,
        sojourn_p99: quantile_u64(&mut sojourn, 0.99),
        queue_wait_p99: quantile_u64(&mut wait, 0.99),
        utilisation: spec.offered_rate / capacity,
        digest: digest(service),
        per_kind,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// Everything the untraced run of one workload measured.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Calls attempted / failed and failed output checks.
    pub tally: Tally,
    /// One sample per set-up made during the run.
    pub setups: Vec<SetupSample>,
    /// Timed batches.
    pub timed: Timed,
    /// Requests per batch.
    pub requests: usize,
    /// Virtual-clock figures.
    pub virt: Virt,
    /// `VmHWM` after the last batch.
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    /// The end-to-end metrics, in `BENCHMARK.json` order. Each host
    /// figure carries its spread inside this run: the distance between
    /// the largest and the least of the same estimate made from each
    /// quarter of the run alone, as a share of their median. The others
    /// have none.
    pub fn metrics(&self) -> Vec<Measured> {
        let mut setup = Quiet::default();
        for (i, s) in self.setups.iter().enumerate() {
            setup.sample(i * QUARTERS / self.setups.len(), &s.steps);
        }
        let setup_quarters: Vec<f64> = setup.ns_by_quarter().iter().map(|ns| ns / 1e9).collect();
        let rate = |batch_ns: f64| self.requests as f64 / batch_ns * 1e9;
        let quiet = &self.timed.quiet;
        let rate_quarters: Vec<f64> = quiet.ns_by_quarter().into_iter().map(rate).collect();
        let ok = self.tally.attempted - self.tally.failed.min(self.tally.attempted);
        let v = &self.virt;
        vec![
            Measured::new("setup_s", setup.ns() / 1e9, relative_range(&setup_quarters)),
            Measured::new(
                "host_req_per_s",
                rate(quiet.ns()),
                relative_range(&rate_quarters),
            ),
            Measured::new("host_peak_rss_mib", self.peak_rss_mib, 0.0),
            Measured::new("virt_cycles_p50", v.p50 as f64, 0.0),
            Measured::new("virt_cycles_p99", v.p99 as f64, 0.0),
            Measured::new("virt_capacity_req_per_s", v.capacity, 0.0),
            Measured::new("virt_sojourn_p99_cycles", v.sojourn_p99 as f64, 0.0),
            Measured::new(
                "ok_ops_ratio",
                ok as f64 / self.tally.attempted.max(1) as f64,
                0.0,
            ),
        ]
    }
}

/// Runs one workload untraced: no sink, no spans. Batches are served
/// until `seconds` have been measured, and `sizes.min_batches` at least.
/// `sizes.boots` set-ups are made over the same stretch, evenly spaced:
/// the first one's world serves the batches, the others are dropped.
/// Interference on the host comes in phases of seconds to minutes, so
/// whatever is compared between runs is sampled over the whole window.
pub fn run_untraced(spec: &Spec, seed: u64, seconds: f64, sizes: Sizes) -> EndToEnd {
    let seq = sizes.sequence(spec, seed);
    let mut tally = Tally::default();
    let (world, first) = set_up(spec, &seq, seed, &mut tally);
    let mut setups = vec![first];
    let mut arm = Arm::new(world, spec, &seq, sizes.min_batches);
    let budget = if sizes.fixed { 0.0 } else { seconds };
    let mut schedule = Schedule::new(budget, sizes.sampled_batches);
    loop {
        let elapsed = schedule.elapsed_s();
        let batches = arm.timed.batch_ns.len();
        if batches >= sizes.min_batches && elapsed >= budget {
            break;
        }
        if setups.len() < sizes.boots
            && elapsed >= budget * setups.len() as f64 / sizes.boots as f64
        {
            setups.push(set_up(spec, &seq, seed, &mut tally).1);
        }
        arm.serve(&mut tally, &mut NoTrace, schedule.due());
        arm.check(&mut tally);
    }
    let peak_rss_mib = peak_rss_mib();
    let virt = virt(
        spec,
        &seq,
        seed,
        &arm.timed,
        sizes.min_batches,
        sizes.queue_requests,
    );
    EndToEnd {
        tally,
        setups,
        timed: arm.timed,
        requests: sizes.requests,
        virt,
        peak_rss_mib,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;
    use std::time::Duration;

    #[test]
    fn quiet_batch_time_is_each_slots_own_least() {
        // Three sampled batches of two slots, in two quarters. No batch
        // was quiet throughout (the fastest took 830 ns), but each slot
        // once was.
        let mut quiet = Quiet::default();
        assert_eq!(quiet.ns(), 0.0);
        for (quarter, batch) in [(0, [100, 1_000]), (0, [90, 1_400]), (2, [130, 700])] {
            quiet.sample(quarter, &batch);
        }
        assert_eq!(quiet.ns(), 790.0);
        assert_eq!(quiet.ns_by_quarter(), [1_090.0, 830.0]);
    }

    #[test]
    fn the_schedule_spreads_a_fixed_count_over_the_window() {
        // No window: every batch is a sample, a quarter of them each.
        let mut all = Schedule::new(0.0, 8);
        let quarters: Vec<Option<usize>> = (0..9).map(|_| all.due()).collect();
        let want = [0, 0, 1, 1, 2, 2, 3, 3, 3].map(Some);
        assert_eq!(quarters, want);
        // A window far longer than the test: the first batch is a sample,
        // the next is not due for a quarter of an hour.
        let mut spread = Schedule::new(3_600.0, 4);
        assert_eq!((spread.due(), spread.due()), (Some(0), None));
    }

    /// Makes every maintenance tick cost `SLOW_TICK` more host time.
    struct SlowTick;
    const SLOW_TICK: Duration = Duration::from_micros(100);

    impl Tracer for SlowTick {
        const SPLIT_FORK: bool = false;
        fn enter(&mut self, name: &'static str, _: u64) -> usize {
            if name == "api.pool_autoscale" {
                let start = Instant::now();
                while start.elapsed() < SLOW_TICK {
                    std::hint::spin_loop();
                }
            }
            0
        }
        fn exit(&mut self, _: usize, _: u64) {}
        fn begin_request(&mut self, _: usize) {}
    }

    #[test]
    fn a_slower_tick_shows_in_the_quiet_batch_time() {
        let spec = crate::workload::spec("spawn_small").expect("workload exists");
        let sizes = Sizes::smoke(spec);
        let seq = sizes.sequence(spec, 42);
        let mut tally = Tally::default();
        let world = set_up(spec, &seq, 42, &mut tally).0;
        let mut arm = Arm::new(world, spec, &seq, 0);
        for batch in 0..4 {
            arm.serve(&mut tally, &mut SlowTick, Some(batch));
        }
        assert_eq!(tally.failed, 0);
        // Nothing a batch does is outside its slots...
        let first_batch = arm.timed.quiet.ns_by_quarter()[0];
        assert_eq!(first_batch, arm.timed.batch_ns[0] as f64);
        // ...and a tick is in the same slot of every batch, so however
        // many batches the least is taken over, what every tick costs at
        // the least is in the sum.
        let ticks = sizes.requests.div_ceil(spec.tick_every) as f64;
        let all_ticks = ticks * SLOW_TICK.as_nanos() as f64;
        assert!(
            arm.timed.quiet.ns() >= all_ticks,
            "{ticks} ticks of {SLOW_TICK:?} at the least, but the quiet batch takes {} ns",
            arm.timed.quiet.ns()
        );
    }

    #[test]
    fn a_smoke_run_is_clean_and_its_cycles_follow_the_seed() {
        for spec in &SPECS {
            let sizes = Sizes::smoke(spec);
            let a = run_untraced(spec, 42, 0.0, sizes);
            let b = run_untraced(spec, 42, 0.0, sizes);
            let c = run_untraced(spec, 7, 0.0, sizes);
            for run in [&a, &b, &c] {
                assert_eq!(run.tally.failed, 0, "{}", spec.name);
                assert_eq!(run.tally.violations, Vec::<String>::new(), "{}", spec.name);
                assert_eq!(run.timed.batch_ns.len(), sizes.min_batches);
                assert_eq!(run.setups.len(), sizes.boots);
                for s in &run.setups {
                    let steps: u64 = s.steps.iter().map(|&ns| u64::from(ns)).sum();
                    assert_eq!(steps, (s.setup_s * 1e9).round() as u64);
                }
            }
            assert_eq!(
                a.virt, b.virt,
                "{}: virtual figures repeat for a seed",
                spec.name
            );
            assert_ne!(
                a.virt.digest, c.virt.digest,
                "{}: another seed, another digest",
                spec.name
            );
        }
    }
}
