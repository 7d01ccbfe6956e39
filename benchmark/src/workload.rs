//! The four workloads and the seeded request sequence each one replays.

use fpr_mem::CYCLES_PER_US;
use fpr_rng::Rng;

/// Modelled cycles per second (the cost model's 3 GHz clock).
pub const CYCLES_PER_SEC: f64 = CYCLES_PER_US as f64 * 1_000_000.0;

/// The binary every exec'ing request runs.
pub const SERVICE_BIN: &str = "/bin/tool";

/// Warm-pool size set-up prefills and the maintenance tick restores.
pub const POOL_TARGET: usize = 4;

/// Inherited heap pages the child of a touching request writes. Every
/// workload's parent has at least this many.
pub const TOUCH_PAGES: usize = 256;

/// What one request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `posix_spawn` through the warm pool + image cache.
    SpawnFast,
    /// `fork(OnDemand)` + exec.
    ForkOnDemandExec,
    /// `fork(Cow)` + exec.
    ForkCowExec,
    /// `vfork` + exec.
    VforkExec,
    /// The cross-process builder.
    Xproc,
    /// `fork(Cow)`, no exec: the child writes inherited heap pages.
    TouchCow,
    /// `fork(OnDemand)`, no exec: the child writes inherited heap pages.
    TouchOnDemand,
}

impl Kind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Kind::SpawnFast => "spawn(fastpath)",
            Kind::ForkOnDemandExec => "fork(OnDemand)+exec",
            Kind::ForkCowExec => "fork(Cow)+exec",
            Kind::VforkExec => "vfork+exec",
            Kind::Xproc => "xproc",
            Kind::TouchCow => "fork(Cow)+touch",
            Kind::TouchOnDemand => "fork(OnDemand)+touch",
        }
    }

    /// True for the two kinds whose child writes the inherited heap
    /// instead of exec'ing.
    pub fn touches(self) -> bool {
        matches!(self, Kind::TouchCow | Kind::TouchOnDemand)
    }
}

/// One workload: a parent footprint, a creation mix and its sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (which layers it loads).
    pub why: &'static str,
    /// Populated heap pages of the serving parent.
    pub parent_pages: u64,
    /// `(kind, weight)`; a batch holds every kind in exactly this ratio.
    pub mix: &'static [(Kind, u32)],
    /// Fresh pages an exec'ing request's child maps and populates.
    pub work_pages: u64,
    /// Inherited heap pages a touching request's child writes.
    pub touch_pages: usize,
    /// Run the pool-autoscale tick before every this many requests
    /// (0: never; the mix does not draw on the pool).
    pub tick_every: usize,
    /// Requests per batch at full size.
    pub batch_requests: usize,
    /// Offered rate of the virtual open loop, requests per modelled second.
    pub offered_rate: f64,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "svc_mix",
        why: "E15's default five-path mix on a 16 MiB parent: every layer works in proportion",
        parent_pages: 4_096,
        mix: &[
            (Kind::SpawnFast, 6),
            (Kind::ForkOnDemandExec, 4),
            (Kind::VforkExec, 3),
            (Kind::Xproc, 2),
            (Kind::ForkCowExec, 2),
        ],
        work_pages: 4,
        touch_pages: 0,
        tick_every: 4,
        batch_requests: 2_040,
        offered_rate: 100_000.0,
    },
    Spec {
        name: "fork_big",
        why: "fork(OnDemand)/fork(Cow)+exec of a 64 MiB parent: the fpr-mem fork walk is nearly all of it",
        parent_pages: 16_384,
        mix: &[(Kind::ForkOnDemandExec, 2), (Kind::ForkCowExec, 1)],
        work_pages: 4,
        touch_pages: 0,
        tick_every: 0,
        batch_requests: 150,
        offered_rate: 22_000.0,
    },
    Spec {
        name: "spawn_small",
        why: "spawn/vfork/xproc from a 1 MiB parent: no fork walk, so exec, kernel, pool and tracing tax are the cost",
        parent_pages: 256,
        mix: &[(Kind::SpawnFast, 2), (Kind::VforkExec, 1), (Kind::Xproc, 1)],
        work_pages: 4,
        touch_pages: 0,
        tick_every: 4,
        batch_requests: 3_000,
        offered_rate: 190_000.0,
    },
    Spec {
        name: "cow_touch",
        why: "fork without exec, child writes 256 inherited pages: write faults, page copies and unshare, fork's deferred cost",
        parent_pages: 4_096,
        mix: &[(Kind::TouchCow, 1), (Kind::TouchOnDemand, 1)],
        work_pages: 0,
        touch_pages: TOUCH_PAGES,
        tick_every: 0,
        batch_requests: 400,
        offered_rate: 2_400.0,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// What it does.
    pub kind: Kind,
    /// Start of its page offsets in [`Sequence::touches`].
    pub touch_at: usize,
}

/// The requests every batch of a run serves: all of them, in one seeded
/// order that is the same in every batch. A request therefore always
/// follows the same predecessors and does the same work whenever it
/// comes round again, which is what lets the run compare batch with batch
/// and a request's time with its own earlier times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    /// The requests of one batch, whole decks of the mix in deck order.
    pub requests: Vec<Request>,
    /// Heap page offsets written by touching requests, `touch_pages` per
    /// such request, distinct within a request.
    pub touches: Vec<u32>,
    /// The order a batch serves `requests` in: a seeded permutation.
    pub order: Vec<u32>,
}

impl Sequence {
    /// The requests of a batch, in serving order.
    pub fn batch(&self) -> impl Iterator<Item = &Request> {
        self.order.iter().map(|&i| &self.requests[i as usize])
    }

    /// What set-up serves to warm the machine: the first tenth of the
    /// requests in deck order, at least one whole deck, so that every
    /// kind of the mix has run and the share of each does not vary with
    /// the seed.
    pub fn warm_up(&self, spec: &Spec) -> impl Iterator<Item = &Request> {
        let deck: u32 = spec.mix.iter().map(|&(_, weight)| weight).sum();
        let count = (self.requests.len() / 10).max(deck as usize);
        self.requests.iter().take(count)
    }

    /// The page offsets `req` writes (empty unless it is a touching kind).
    pub fn touches_of(&self, req: &Request, spec: &Spec) -> &[u32] {
        if req.kind.touches() {
            &self.touches[req.touch_at..req.touch_at + spec.touch_pages]
        } else {
            &[]
        }
    }
}

/// Exponential inter-arrival gap with the given mean, at least one cycle.
fn exp_gap(rng: &mut Rng, mean_cycles: f64) -> u64 {
    // gen_f64 is in [0, 1), so 1-u is in (0, 1] and ln never sees zero.
    (-(1.0 - rng.gen_f64()).ln() * mean_cycles) as u64 + 1
}

/// Poisson arrivals at the workload's offered rate: exponential
/// inter-arrival gaps in cycles, without end, from `seed` alone.
pub fn arrival_gaps(spec: &Spec, seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = streams(seed).arrival;
    let mean_gap = CYCLES_PER_SEC / spec.offered_rate;
    std::iter::repeat_with(move || exp_gap(&mut rng, mean_gap))
}

/// Independent streams, so that changing how many draws one takes never
/// perturbs another.
struct Streams {
    arrival: Rng,
    mix: Rng,
    touch: Rng,
    replay: Rng,
}

fn streams(seed: u64) -> Streams {
    let mut seed_rng = Rng::seed_from_u64(seed);
    Streams {
        arrival: seed_rng.fork_stream(),
        mix: seed_rng.fork_stream(),
        touch: seed_rng.fork_stream(),
        replay: seed_rng.fork_stream(),
    }
}

/// The stream that orders the requests of each replay of the virtual queue.
pub fn replay_rng(seed: u64) -> Rng {
    streams(seed).replay
}

/// Generates `requests` requests for `spec` from `seed` alone: the mix in
/// its exact ratio (whole decks, so path counts do not vary with the seed
/// and only order and touch offsets do), distinct touch offsets per
/// touching request, and the shuffle every batch serves them in.
pub fn generate(spec: &Spec, seed: u64, requests: usize) -> Sequence {
    let Streams {
        mix: mut mix_rng,
        touch: mut touch_rng,
        ..
    } = streams(seed);

    let deck = spec
        .mix
        .iter()
        .flat_map(|&(kind, weight)| std::iter::repeat_n(kind, weight as usize));
    let kinds = deck.cycle().take(requests);

    let mut touches = Vec::new();
    let mut drawn = vec![false; spec.parent_pages as usize];
    let requests: Vec<Request> = kinds
        .map(|kind| {
            let touch_at = touches.len();
            if kind.touches() {
                while touches.len() < touch_at + spec.touch_pages {
                    let page = touch_rng.gen_below(spec.parent_pages) as usize;
                    if !std::mem::replace(&mut drawn[page], true) {
                        touches.push(page as u32);
                    }
                }
                for &page in &touches[touch_at..] {
                    drawn[page as usize] = false;
                }
            }
            Request { kind, touch_at }
        })
        .collect();
    let mut order: Vec<u32> = (0..requests.len() as u32).collect();
    mix_rng.shuffle(&mut order);
    Sequence {
        requests,
        touches,
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_differs() {
        for spec in &SPECS {
            let a = generate(spec, 42, spec.batch_requests);
            let b = generate(spec, 42, spec.batch_requests);
            let c = generate(spec, 7, spec.batch_requests);
            assert_eq!(a, b, "{}: same seed must replay", spec.name);
            assert_ne!(a, c, "{}: another seed must differ", spec.name);
            assert_eq!(a.requests.len(), spec.batch_requests);
        }
    }

    #[test]
    fn the_mix_is_exact_for_every_seed() {
        for spec in &SPECS {
            let total: u32 = spec.mix.iter().map(|(_, w)| w).sum();
            assert_eq!(
                spec.batch_requests % total as usize,
                0,
                "{}: a batch must hold whole decks",
                spec.name
            );
            for seed in [1, 42, 99] {
                let seq = generate(spec, seed, spec.batch_requests);
                for &(kind, weight) in spec.mix {
                    let n = seq.requests.iter().filter(|r| r.kind == kind).count();
                    assert_eq!(n, spec.batch_requests / total as usize * weight as usize);
                }
            }
        }
    }

    #[test]
    fn touch_offsets_are_distinct_and_inside_the_heap() {
        let spec = spec("cow_touch").expect("workload exists");
        let seq = generate(spec, 42, 40);
        for req in &seq.requests {
            let pages = seq.touches_of(req, spec);
            assert_eq!(pages.len(), spec.touch_pages);
            let mut sorted = pages.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), pages.len(), "offsets repeat within a request");
            assert!(pages.iter().all(|&p| (p as u64) < spec.parent_pages));
        }
        let svc = super::spec("svc_mix").expect("workload exists");
        let seq = generate(svc, 42, 34);
        assert!(seq.touches.is_empty());
    }

    #[test]
    fn mean_gap_tracks_the_offered_rate() {
        let spec = spec("svc_mix").expect("workload exists");
        let gaps = |seed| -> Vec<u64> { arrival_gaps(spec, seed).take(20_400).collect() };
        assert_eq!(gaps(42), gaps(42));
        assert_ne!(gaps(42), gaps(7));
        let total: u64 = gaps(42).iter().sum();
        let rate = 20_400.0 / (total as f64 / CYCLES_PER_SEC);
        assert!(
            (rate / spec.offered_rate - 1.0).abs() < 0.03,
            "generated rate {rate} vs offered {}",
            spec.offered_rate
        );
    }
}
