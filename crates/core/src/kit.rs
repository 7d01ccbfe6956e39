//! The workload kit: the four moves every experiment is made of, each
//! defined once (`docs/ARCHITECTURE.md` says which experiment uses which).
//!
//! * A **world** — a machine sized for the job, booted, with a synthetic
//!   parent on it: [`world`] over [`machine_for`], `storm_machine` or
//!   [`smp_machine`], plus `Os::warm_pool` where spawns ride the fast
//!   path.
//! * A **request** — a child created one of N ways ([`CreationPath`],
//!   [`Os::create`]) that works ([`Work`], or `Os::touch` where the
//!   caller wants every write timed), exits and is reaped ([`Os::reap`]);
//!   [`Os::serve`] is the three in order, with the cycles of each phase.
//! * A **storm** — resident workers admitted on credit that fault pages
//!   in round-robin until the caller says stop (`Storm`).
//! * An **open loop** — a seeded arrival stream ([`arrivals`]) fed
//!   through a single-server queue ([`open_loop`]).

use crate::os::{Os, OsConfig};
use fpr_api::{ProcessBuilder, SpawnAttrs};
use fpr_kernel::{Errno, KResult, MachineConfig, Pid};
use fpr_mem::{ForkMode, OvercommitPolicy, PressureLevel, Prot, Share, Vpn, CYCLES_PER_US};
use fpr_rng::Rng;
use fpr_trace::metrics::Histogram;
use fpr_trace::ProcessShape;
use std::collections::BTreeMap;

/// Simulated cycles per second (the cost model's 3 GHz clock).
pub(crate) const CYCLES_PER_SEC: f64 = CYCLES_PER_US as f64 * 1_000_000.0;

/// Physical frames of `storm_machine`.
pub const STORM_FRAMES: u64 = 1024;

/// A machine big enough for a `footprint`-page parent plus slack.
pub fn machine_for(footprint: u64) -> MachineConfig {
    MachineConfig {
        frames: footprint * 2 + 16_384,
        overcommit: OvercommitPolicy::Always,
        ..MachineConfig::default()
    }
}

/// The pressure-storm machine (E12, E13, E15's degradation arm): small
/// enough that the fast-path caches are a meaningful fraction of memory,
/// and admitting every reservation on credit.
pub(crate) fn storm_machine() -> MachineConfig {
    MachineConfig {
        frames: STORM_FRAMES,
        overcommit: OvercommitPolicy::Always,
        ..MachineConfig::default()
    }
}

/// The machine every SMP arm shares its cells over (E16, E17, `make stress`).
pub fn smp_machine() -> MachineConfig {
    MachineConfig {
        frames: 65_536,
        overcommit: OvercommitPolicy::Always,
        ..MachineConfig::default()
    }
}

/// Boots `machine` at the default seed and builds a parent of `shape` on it.
pub fn world(machine: MachineConfig, shape: ProcessShape) -> (Os, Pid) {
    world_seeded(machine, OsConfig::default().seed, shape)
}

/// [`world`] with an explicit seed for every ASLR draw.
pub fn world_seeded(machine: MachineConfig, seed: u64, shape: ProcessShape) -> (Os, Pid) {
    let mut os = Os::boot(OsConfig { machine, seed });
    let parent = os.make_parent(shape).expect("the machine fits the parent");
    (os, parent)
}

/// How a request's child is created. The paths that exec carry the
/// binary they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CreationPath {
    /// `posix_spawn` — through the warm pool + image cache while the
    /// fast path is on, the classic call otherwise.
    Spawn(&'static str),
    /// `fork(OnDemand)` + exec.
    ForkOnDemand(&'static str),
    /// Classic COW `fork` + exec — the paper's accused.
    ForkCow(&'static str),
    /// `vfork` + exec.
    VforkExec(&'static str),
    /// The cross-process builder.
    Xproc(&'static str),
    /// `fork` in the given mode, no exec: the child keeps the parent's image.
    Fork(ForkMode),
    /// `vfork`, no exec: the child borrows the parent's space until it exits.
    Vfork,
}

impl CreationPath {
    /// The call made, for reports.
    pub fn label(self) -> &'static str {
        match self {
            CreationPath::Spawn(_) => "posix_spawn",
            CreationPath::ForkOnDemand(_) => "fork(OnDemand)+exec",
            CreationPath::ForkCow(_) => "fork(Cow)+exec",
            CreationPath::VforkExec(_) => "vfork+exec",
            CreationPath::Xproc(_) => "xproc",
            CreationPath::Fork(ForkMode::Cow) => "fork(Cow)",
            CreationPath::Fork(ForkMode::Eager) => "fork(Eager)",
            CreationPath::Fork(ForkMode::OnDemand) => "fork(OnDemand)",
            CreationPath::Vfork => "vfork",
        }
    }
}

/// What a request's child does between creation and exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Nothing: the request is the creation.
    Nothing,
    /// Maps and populates this many fresh pages.
    Populate(u64),
}

/// Cycles one [`Os::serve`] spent in each phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Creating the child.
    pub create: u64,
    /// The child's [`Work`].
    pub work: u64,
    /// Exit and reap.
    pub reap: u64,
}

impl Served {
    /// Creation-to-exit latency: all three phases.
    pub fn total(&self) -> u64 {
        self.create + self.work + self.reap
    }
}

impl Os {
    /// Turns the spawn fast path on and parks `n` warm children of `bin`.
    pub(crate) fn warm_pool(&mut self, bin: &str, n: usize) -> KResult<()> {
        self.enable_spawn_fastpath()?;
        self.pool_prefill(bin, n)
    }

    /// Creates a child of `parent` via `path`.
    pub fn create(&mut self, parent: Pid, path: CreationPath) -> KResult<Pid> {
        match path {
            CreationPath::Spawn(bin) => self.spawn(parent, bin, &[], &SpawnAttrs::default()),
            CreationPath::ForkOnDemand(bin) => self.fork_exec(parent, bin, ForkMode::OnDemand),
            CreationPath::ForkCow(bin) => self.fork_exec(parent, bin, ForkMode::Cow),
            CreationPath::VforkExec(bin) => self.vfork_exec(parent, bin),
            CreationPath::Xproc(bin) => self
                .spawn_builder(parent, ProcessBuilder::new(bin))
                .map(|spawned| spawned.pid),
            CreationPath::Fork(mode) => self.fork_stats(parent, mode).map(|(child, _)| child),
            CreationPath::Vfork => self.vfork(parent),
        }
    }

    /// Writes these page offsets of `child`'s mapping at `base` — the
    /// pages a forked child inherited, so each write is a first touch.
    /// Returns the cycles of the most expensive single write.
    pub(crate) fn touch(&mut self, child: Pid, base: Vpn, offsets: &[u64]) -> KResult<u64> {
        let mut worst = 0;
        for &page in offsets {
            let before = self.kernel.cycles.total();
            self.kernel.write_mem(child, base.add(page), page)?;
            worst = worst.max(self.kernel.cycles.total() - before);
        }
        Ok(worst)
    }

    /// Ends `child` with status 0 and has `parent` collect it.
    pub fn reap(&mut self, parent: Pid, child: Pid) -> KResult<()> {
        self.kernel.exit(child, 0)?;
        self.kernel.waitpid(parent, Some(child)).map(|_| ())
    }

    /// Serves one request: creates the child via `path`, runs `work` in
    /// it, then exits and reaps it. A child whose work fails is reaped
    /// before the error returns.
    pub fn serve(&mut self, parent: Pid, path: CreationPath, work: Work) -> KResult<Served> {
        let start = self.kernel.cycles.total();
        let child = self.create(parent, path)?;
        let created = self.kernel.cycles.total();
        let worked = match work {
            Work::Nothing => Ok(()),
            Work::Populate(pages) => self
                .kernel
                .mmap_anon(child, pages, Prot::RW, Share::Private)
                .and_then(|base| self.kernel.populate(child, base, pages)),
        };
        let done = self.kernel.cycles.total();
        self.reap(parent, child)?;
        worked?;
        Ok(Served {
            create: created - start,
            work: done - created,
            reap: self.kernel.cycles.total() - done,
        })
    }
}

/// One resident worker of a [`Storm`].
#[derive(Debug, Clone, Copy)]
struct Worker {
    pid: Pid,
    base: Vpn,
    touched: u64,
    alive: bool,
}

/// A memory-pressure storm: workers reserve generous anonymous regions up
/// front (`Always`-mode overcommit admits them on credit) and then fault
/// pages in round-robin, so the bill arrives one page at a time.
#[derive(Debug)]
pub(crate) struct Storm {
    workers: Vec<Worker>,
    chunk: u64,
    /// Pages the workers have faulted in so far.
    pub touched: u64,
    /// Worst pressure level seen after any write.
    pub peak: PressureLevel,
}

impl Storm {
    /// Admits `workers` children of init, each reserving `chunk` pages.
    pub(crate) fn admit(os: &mut Os, workers: usize, chunk: u64) -> Storm {
        let workers = (0..workers)
            .map(|i| {
                let pid = os
                    .kernel
                    .allocate_process(os.init, &format!("worker{i}"))
                    .expect("worker");
                let base = os
                    .kernel
                    .mmap_anon(pid, chunk, Prot::RW, Share::Private)
                    .expect("admitted on credit");
                Worker {
                    pid,
                    base,
                    touched: 0,
                    alive: true,
                }
            })
            .collect();
        Storm {
            workers,
            chunk,
            touched: 0,
            peak: PressureLevel::None,
        }
    }

    /// Faults pages in, one per live worker per round, until
    /// `stop(os, pages touched)` holds before a write or a whole round
    /// touches nothing (everyone dead or at the end of their chunk). A
    /// write that fails with `ENOMEM` asks `on_enomem(os, faulting worker)`:
    /// `None` ends the storm (the kernel already ran its reclaim ladder,
    /// memory is genuinely full), `Some(victim)` reports an `oom_kill` —
    /// the write is retried unless the victim was the faulting worker.
    pub(crate) fn run(
        &mut self,
        os: &mut Os,
        mut stop: impl FnMut(&Os, u64) -> bool,
        mut on_enomem: impl FnMut(&mut Os, Pid) -> Option<Pid>,
    ) {
        loop {
            let before = self.touched;
            for i in 0..self.workers.len() {
                let Worker {
                    pid,
                    base,
                    touched,
                    alive,
                } = self.workers[i];
                if !alive || touched >= self.chunk {
                    continue;
                }
                if stop(os, self.touched) {
                    return;
                }
                loop {
                    match os.kernel.write_mem(pid, base.add(touched), self.touched) {
                        Ok(_) => {
                            self.workers[i].touched += 1;
                            self.touched += 1;
                            break;
                        }
                        Err(Errno::Enomem) => {
                            let Some(victim) = on_enomem(os, pid) else {
                                return;
                            };
                            for w in self.workers.iter_mut().filter(|w| w.pid == victim) {
                                w.alive = false;
                            }
                            if victim == pid {
                                break;
                            }
                        }
                        Err(e) => panic!("unexpected storm error: {e}"),
                    }
                }
                self.peak = self.peak.max(os.kernel.memory_pressure());
            }
            if self.touched == before {
                return;
            }
        }
    }

    /// The workers still alive: PID, region base, pages touched.
    pub(crate) fn resident(&self) -> impl Iterator<Item = (Pid, Vpn, u64)> + '_ {
        self.workers
            .iter()
            .filter(|w| w.alive)
            .map(|w| (w.pid, w.base, w.touched))
    }

    /// Relief: the storm passes — survivors exit, init collects everyone
    /// (an OOM victim is already a zombie) and the frames return.
    pub(crate) fn relieve(self, os: &mut Os) {
        let init = os.init;
        for w in self.workers {
            if w.alive {
                os.reap(init, w.pid).expect("worker exits");
            } else {
                os.kernel
                    .waitpid(init, Some(w.pid))
                    .expect("victim collected");
            }
        }
    }
}

/// Per-path latency record of an [`open_loop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStats {
    /// Which creation path.
    pub path: CreationPath,
    /// Requests served through it.
    pub served: u64,
    /// Creation-to-exit latency (cycles) in log2 buckets.
    pub hist: Histogram,
}

/// Everything one [`open_loop`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopOutcome {
    /// Virtual cycles from time zero to the last completion.
    pub makespan_cycles: u64,
    /// Of the makespan, cycles the server was actually serving.
    pub busy_cycles: u64,
    /// Service latency of every path of the mix, drawn or not, in
    /// [`CreationPath`] order.
    pub per_path: Vec<PathStats>,
    /// Arrival-to-exit latency (cycles): service plus queueing delay.
    pub sojourn: Histogram,
}

impl LoopOutcome {
    /// Completions per simulated second over the makespan.
    pub fn sustained_rate(&self) -> f64 {
        self.sojourn.count as f64 / (self.makespan_cycles as f64 / CYCLES_PER_SEC)
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
    let total: u64 = mix.iter().map(|&(_, w)| u64::from(w)).sum();
    let mut roll = rng.gen_below(total);
    for &(path, w) in mix {
        if roll < u64::from(w) {
            return path;
        }
        roll -= u64::from(w);
    }
    unreachable!("weights sum to total")
}

/// Draws `requests` open-loop arrivals: exponential gaps of mean
/// `mean_gap_cycles` and a path per request from the weighted `mix`.
/// Gaps and mix draw from two streams forked off `seed`, so neither
/// perturbs the other — or the ASLR draws an `Os` makes per creation.
pub fn arrivals(
    seed: u64,
    requests: usize,
    mean_gap_cycles: f64,
    mix: &[(CreationPath, u32)],
) -> Vec<(u64, CreationPath)> {
    let mut seed_rng = Rng::seed_from_u64(seed);
    let mut gap_rng = seed_rng.fork_stream();
    let mut mix_rng = seed_rng.fork_stream();
    let mut t = 0u64;
    (0..requests)
        .map(|_| {
            t += exp_gap(&mut gap_rng, mean_gap_cycles);
            (t, draw_path(&mut mix_rng, mix))
        })
        .collect()
}

/// Feeds `arrivals` drawn from `mix` through a single server, one request
/// at a time in arrival order. `serve(index, path)` returns the cycles of maintenance
/// run just before the request (they delay it and everything behind it but
/// are not its latency) and the cycles of the service itself. The virtual
/// clock idles until an arrival when the queue is empty —
/// `clock = max(clock, arrival) + maintenance + service` — so a request
/// arriving while an earlier one is being served waits, which is exactly
/// the queueing delay the sojourn histogram captures.
pub fn open_loop(
    mix: &[(CreationPath, u32)],
    arrivals: &[(u64, CreationPath)],
    mut serve: impl FnMut(usize, CreationPath) -> (u64, u64),
) -> LoopOutcome {
    let mut per_path: BTreeMap<CreationPath, Histogram> = mix
        .iter()
        .map(|&(path, _)| (path, Histogram::default()))
        .collect();
    let mut sojourn = Histogram::default();
    let (mut clock, mut busy) = (0u64, 0u64);
    for (i, &(arrival, path)) in arrivals.iter().enumerate() {
        let (maintenance, service) = serve(i, path);
        clock = clock.max(arrival) + maintenance + service;
        busy += service;
        per_path.entry(path).or_default().record(service);
        sojourn.record(clock - arrival);
    }
    LoopOutcome {
        makespan_cycles: clock,
        busy_cycles: busy,
        per_path: per_path
            .into_iter()
            .map(|(path, hist)| PathStats {
                path,
                served: hist.count,
                hist,
            })
            .collect(),
        sojourn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIN: &str = "/bin/tool";

    /// The primitive sequence [`Os::create`] replaced, as the experiments
    /// used to write it out.
    fn create_by_hand(os: &mut Os, parent: Pid, path: CreationPath) -> Pid {
        let fork_then_exec = |os: &mut Os, mode| {
            let (child, _) = os.fork_stats(parent, mode).unwrap();
            os.exec(child, BIN).unwrap();
            child
        };
        match path {
            CreationPath::Spawn(_) => os.spawn(parent, BIN, &[], &SpawnAttrs::default()).unwrap(),
            CreationPath::ForkOnDemand(_) => fork_then_exec(os, ForkMode::OnDemand),
            CreationPath::ForkCow(_) => fork_then_exec(os, ForkMode::Cow),
            CreationPath::VforkExec(_) => {
                let child = os.vfork(parent).unwrap();
                os.exec(child, BIN).unwrap();
                child
            }
            CreationPath::Xproc(_) => {
                os.spawn_builder(parent, ProcessBuilder::new(BIN))
                    .unwrap()
                    .pid
            }
            CreationPath::Fork(mode) => os.fork_stats(parent, mode).unwrap().0,
            CreationPath::Vfork => os.vfork(parent).unwrap(),
        }
    }

    #[test]
    fn serve_charges_the_primitive_sequence_and_returns_to_baseline() {
        for path in [
            CreationPath::Spawn(BIN),
            CreationPath::ForkOnDemand(BIN),
            CreationPath::ForkCow(BIN),
            CreationPath::VforkExec(BIN),
            CreationPath::Xproc(BIN),
            CreationPath::Fork(ForkMode::Cow),
            CreationPath::Fork(ForkMode::Eager),
            CreationPath::Fork(ForkMode::OnDemand),
            CreationPath::Vfork,
        ] {
            let boot = || world(machine_for(64), ProcessShape::with_heap(64));
            // A vfork child borrows its parent's space: it maps nothing.
            let pages = if path == CreationPath::Vfork { 0 } else { 4 };

            let (mut hand, parent) = boot();
            let (child, create) = hand.measure(|os| create_by_hand(os, parent, path));
            let ((), worked) = hand.measure(|os| {
                if pages > 0 {
                    let base = os
                        .kernel
                        .mmap_anon(child, pages, Prot::RW, Share::Private)
                        .unwrap();
                    os.kernel.populate(child, base, pages).unwrap();
                }
            });
            let ((), reap) = hand.measure(|os| {
                os.kernel.exit(child, 0).unwrap();
                os.kernel.waitpid(parent, Some(child)).unwrap();
            });

            let (mut os, parent) = boot();
            let base = os.kernel.baseline();
            let work = if pages > 0 {
                Work::Populate(pages)
            } else {
                Work::Nothing
            };
            let served = os.serve(parent, path, work).unwrap();
            let label = path.label();
            assert_eq!(
                served,
                Served {
                    create,
                    work: worked,
                    reap
                },
                "{label}: cycles per phase"
            );
            os.kernel
                .leak_check(&base)
                .unwrap_or_else(|v| panic!("{label}: the request left state behind: {v:?}"));
            os.kernel
                .check_invariants()
                .unwrap_or_else(|v| panic!("{label}: invariants: {v:?}"));
        }
    }

    #[test]
    fn a_storm_stopped_by_its_predicate_and_relieved_returns_to_baseline() {
        // Whether ENOMEM would stop the storm or kill: neither happens
        // before the predicate does.
        for kill in [false, true] {
            let (mut os, _) = world(storm_machine(), ProcessShape::with_heap(32));
            let base = os.kernel.baseline();
            let mut storm = Storm::admit(&mut os, 4, STORM_FRAMES / 4);
            storm.run(
                &mut os,
                |_, touched| touched >= 100,
                |os, _| if kill { os.kernel.oom_kill() } else { None },
            );
            assert_eq!(storm.touched, 100);
            assert_eq!(storm.resident().count(), 4, "nobody died");
            assert!(storm.resident().all(|(_, _, touched)| touched == 25));
            assert_eq!(os.kernel.baseline().used_frames, base.used_frames + 100);
            storm.relieve(&mut os);
            os.kernel
                .leak_check(&base)
                .expect("relief returns every frame");
            os.kernel.check_invariants().expect("invariants hold");
        }
    }

    #[test]
    fn open_loop_reproduces_the_lindley_recursion() {
        const SERVICE: u64 = 5;
        let (a, b) = (CreationPath::Spawn(BIN), CreationPath::Xproc(BIN));
        // A third path the scripts never draw still reports, empty.
        let mix = [(a, 1), (b, 1), (CreationPath::Vfork, 1)];
        for (script, by_hand) in [
            // Three back to back, an idle gap, then one that queues.
            (
                [(10, a), (12, b), (13, a), (40, a), (41, b)],
                [5, 8, 12, 5, 9],
            ),
            // Never busy on arrival: nobody waits.
            (
                [(10, a), (20, b), (30, a), (40, a), (50, b)],
                [5, 5, 5, 5, 5],
            ),
        ] {
            // Lindley: W(n+1) = max(0, W(n) + S - (A(n+1) - A(n))).
            let mut wait = 0u64;
            let mut sojourns = vec![SERVICE];
            for pair in script.windows(2) {
                wait = (wait + SERVICE).saturating_sub(pair[1].0 - pair[0].0);
                sojourns.push(wait + SERVICE);
            }
            assert_eq!(sojourns, by_hand);

            let out = open_loop(&mix, &script, |_, _| (0, SERVICE));
            assert_eq!(out.sojourn.count, 5);
            assert_eq!(out.sojourn.sum, sojourns.iter().sum::<u64>());
            assert_eq!(out.sojourn.max, *sojourns.iter().max().unwrap());
            assert_eq!(out.sojourn.min, *sojourns.iter().min().unwrap());
            assert_eq!(out.makespan_cycles, script[4].0 + sojourns[4]);
            assert_eq!(out.busy_cycles, 5 * SERVICE);
            let served: Vec<_> = out.per_path.iter().map(|s| (s.path, s.served)).collect();
            assert_eq!(served, [(a, 3), (b, 2), (CreationPath::Vfork, 0)]);
        }
    }
}
