//! A crossing is the same crossing whoever is listening, and however many
//! are made in one call.
//!
//! With no `with_plan` scope and no observer on the thread, `cross` only
//! bumps a per-site counter; with either it takes the full path. And a
//! loop that crosses one site `n` times may call `cross_n` once instead.
//! One sequence of steps is run both ways — every step a `cross` or a
//! `cross_n`, and every step a loop of `cross` — passively, under
//! `count_crossings`, under an observer and under a plan failing each
//! crossing in turn: it must leave the same coverage, write the same
//! `FaultTrace`, stop at the same crossing and show the observer the same
//! stream, and be counted on the thread that made it, whichever thread
//! that is.

use fpr_faults::{
    count_crossings, coverage, cross, cross_n, reset_coverage, set_observer, with_plan, FaultPlan,
    FaultSite, InjectedFault, SiteCoverage,
};
use std::cell::RefCell;
use std::rc::Rc;

/// `(site, n, batched)`: cross `site` `n` times — with one `cross_n` when
/// the sequence runs batched and the step says so, else `cross` by `cross`.
const SEQ: [(FaultSite, u64, bool); 11] = [
    (FaultSite::VmaClone, 1, false),
    (FaultSite::PtNodeAlloc, 512, true),
    (FaultSite::PtNodeAlloc, 1, false),
    (FaultSite::FrameAlloc, 1, false),
    (FaultSite::PtNodeAlloc, 0, true),
    (FaultSite::PtNodeAlloc, 1, true),
    (FaultSite::CellEvacuate, 1, false),
    (FaultSite::FrameAlloc, 3, true),
    (FaultSite::PtNodeAlloc, 512, true),
    (FaultSite::PtNodeAlloc, 2, false),
    (FaultSite::VmaClone, 1, true),
];

/// Crossings the whole sequence makes, and how many of them at one site.
const TOTAL: u64 = 1 + 512 + 1 + 1 + 1 + 1 + 3 + 512 + 2 + 1;
const PT_NODE_ALLOCS: u64 = 512 + 1 + 1 + 512 + 2;

/// Where a run of the sequence stopped: `(step, crossings of the step that
/// passed, the fault)`.
type Stopped = Option<(usize, u64, InjectedFault)>;

/// Runs the sequence the way instrumented code would — a failed crossing
/// ends it — with (`batched`) or without its `cross_n` calls.
fn run_seq(batched: bool) -> Stopped {
    for (step, &(site, n, as_batch)) in SEQ.iter().enumerate() {
        if batched && as_batch {
            if let Err((passed, fault)) = cross_n(site, n) {
                return Some((step, passed, fault));
            }
            continue;
        }
        for passed in 0..n {
            if let Err(fault) = cross(site) {
                return Some((step, passed, fault));
            }
        }
    }
    None
}

/// [`run_seq`] where nothing injects.
fn run_clean(batched: bool) {
    assert_eq!(run_seq(batched), None);
}

/// What `f` adds to this thread's coverage, site by site.
fn coverage_delta(f: impl FnOnce()) -> Vec<(FaultSite, SiteCoverage)> {
    let before = coverage();
    f();
    let delta = |(now, was): (&(FaultSite, SiteCoverage), &(FaultSite, SiteCoverage))| {
        let cov = SiteCoverage {
            crossings: now.1.crossings - was.1.crossings,
            injections: now.1.injections - was.1.injections,
        };
        (now.0, cov)
    };
    coverage().iter().zip(&before).map(delta).collect()
}

/// One crossing as an observer is shown it: `(site, occurrence, injected)`.
type Stream = Vec<(FaultSite, u64, bool)>;

/// Runs `f` with an observer installed and returns what it was shown,
/// crossing by crossing, with the number of times it was told.
fn observed(f: impl FnOnce()) -> (Stream, usize) {
    let seen: Rc<RefCell<(Stream, usize)>> = Rc::default();
    let sink = Rc::clone(&seen);
    let prev = set_observer(Some(Box::new(move |site, first, count, injected| {
        assert!(count > 0, "an empty run is nothing to tell");
        assert!(!injected || count == 1, "an injected crossing is told on its own");
        let (stream, told) = &mut *sink.borrow_mut();
        stream.extend((first..first + count).map(|occurrence| (site, occurrence, injected)));
        *told += 1;
    })));
    f();
    set_observer(prev);
    Rc::try_unwrap(seen).expect("observer dropped").into_inner()
}

/// The stream an observer must see for the whole of `SEQ` when each site
/// has already been crossed `already(site)` times: occurrences count on
/// from there.
fn expected_stream(already: impl Fn(FaultSite) -> u64) -> Stream {
    let mut counts = [0u64; FaultSite::COUNT];
    let next = |site: FaultSite| {
        counts[site.index()] += 1;
        (site, already(site) + counts[site.index()] - 1, false)
    };
    let sites = SEQ.iter().flat_map(|&(site, n, _)| (0..n).map(move |_| site));
    sites.map(next).collect()
}

/// Everything one run under a plan can be compared by: where it stopped,
/// its trace, its coverage delta and what the observer was shown.
type UnderPlan = (Stopped, Vec<fpr_faults::Crossing>, Vec<(FaultSite, SiteCoverage)>, Stream);

fn under_plan(plan: FaultPlan, batched: bool) -> UnderPlan {
    let (mut stopped, mut trace) = (None, Vec::new());
    let mut stream = Vec::new();
    let delta = coverage_delta(|| {
        (stream, _) = observed(|| {
            let (s, t) = with_plan(plan, || run_seq(batched));
            (stopped, trace) = (s, t.crossings);
        })
    });
    (stopped, trace, delta, stream)
}

#[test]
fn passive_scoped_observed_and_batched_crossings_agree() {
    // The three ways of listening leave the same per-site coverage, batched
    // or not.
    let passive = coverage_delta(|| run_clean(true));
    assert_eq!(passive, coverage_delta(|| run_clean(false)));
    let mut trace = None;
    let scoped = coverage_delta(|| trace = Some(count_crossings(|| run_clean(true))));
    let (mut stream, mut told) = (Vec::new(), 0);
    let watched = coverage_delta(|| (stream, told) = observed(|| run_clean(true)));
    assert_eq!(passive, scoped);
    assert_eq!(passive, watched);
    let of = |site: FaultSite| passive[site.index()].1;
    assert_eq!(of(FaultSite::PtNodeAlloc), SiteCoverage { crossings: PT_NODE_ALLOCS, injections: 0 });
    assert_eq!(of(FaultSite::PidAlloc), SiteCoverage::default());
    assert_eq!(passive.iter().map(|(_, c)| c.crossings).sum::<u64>(), TOTAL);

    // The scope's trace is the sequence crossing by crossing, occurrences
    // counted from 0 — what the unbatched run writes.
    let trace = trace.expect("the scope ran");
    let in_scope: Stream = trace.crossings.iter().map(|c| (c.site, c.occurrence, c.injected)).collect();
    assert_eq!(in_scope, expected_stream(|_| 0));
    assert!(trace.crossings.iter().enumerate().all(|(i, c)| c.global_index == i as u64));
    assert_eq!(trace.crossings, count_crossings(|| run_clean(false)).crossings);

    // Outside a scope the observer is shown the cumulative count before
    // each crossing, which includes the three runs nobody observed: the
    // fourth run's first `vma_clone` is the thread's seventh. It is told
    // once per call that crossed anything — the `cross_n` of nothing does
    // not count — and once per crossing when nothing is batched.
    assert_eq!(stream, expected_stream(|site| 3 * of(site).crossings));
    let calls = |batched: bool| SEQ.iter().map(|&(_, n, b)| if batched && b { n.min(1) } else { n }).sum::<u64>();
    assert_eq!(told as u64, calls(true));
    let (unbatched, told) = observed(|| run_clean(false));
    assert_eq!(unbatched, expected_stream(|site| 5 * of(site).crossings), "the thread's sixth run");
    assert_eq!(told as u64, calls(false));
    // Inside a scope the observer sees the scope's own numbering.
    let (both, _) = observed(|| drop(count_crossings(|| run_clean(true))));
    assert_eq!(both, expected_stream(|_| 0));

    // A plan is asked about each crossing of a batch as about any other:
    // failing the k-th crossing of the sequence, or the k-th of a site,
    // stops the batched run where it stops the loop, with the same trace,
    // coverage, injection count and observer stream.
    let by_crossing = (0..TOTAL).map(|k| FaultPlan::passive().fail_nth_crossing(k));
    let by_site = (0..PT_NODE_ALLOCS).map(|k| FaultPlan::passive().fail_at(FaultSite::PtNodeAlloc, k));
    for (i, plan) in by_crossing.chain(by_site).enumerate() {
        let batched = under_plan(plan.clone(), true);
        assert_eq!(batched, under_plan(plan, false), "plan {i}");
        let (stopped, trace, delta, stream) = batched;
        let (_, _, fault) = stopped.unwrap_or_else(|| panic!("plan {i} injected nothing"));
        let last = trace.last().expect("the fault is a crossing");
        assert!(last.injected && (last.site, last.occurrence) == (fault.site, fault.occurrence));
        assert_eq!(trace.iter().filter(|c| c.injected).count(), 1, "plan {i}");
        assert_eq!(delta.iter().map(|(_, c)| c.crossings).sum::<u64>(), trace.len() as u64, "plan {i}");
        assert_eq!(delta[fault.site.index()].1.injections, 1, "plan {i}");
        assert_eq!(stream.len(), trace.len(), "plan {i}");
    }
    // A run that stops inside a batch reports the part of it that passed.
    let plan = FaultPlan::passive().fail_at(FaultSite::PtNodeAlloc, 512 + 2 + 100);
    let (stopped, ..) = under_plan(plan, true);
    assert_eq!(stopped.map(|(step, passed, _)| (step, passed)), Some((8, 100)));
    // Random plans decide by global index: batching moves none.
    for seed in 0..8 {
        let plan = FaultPlan::random(seed, 2);
        assert_eq!(under_plan(plan.clone(), true), under_plan(plan, false), "seed {seed}");
    }

    // Every crossing so far is in `coverage()` ...
    let total = |cov: Vec<(FaultSite, SiteCoverage)>| cov.iter().map(|(_, c)| c.crossings).sum::<u64>();
    let so_far = total(coverage());
    assert!(so_far > 7 * TOTAL);
    // ... and a worker's are in its own, which it hands back through
    // `join`: one that only ever crossed passively, in batches, counted
    // every crossing ...
    let worker = |f: fn()| {
        std::thread::spawn(move || {
            f();
            coverage()
        })
        .join()
        .expect("worker finished")
    };
    assert_eq!(total(worker(|| run_clean(true))), TOTAL);
    // ... and one whose batch was cut short counted the crossings made.
    let cut = worker(|| {
        let plan = FaultPlan::passive().fail_at(FaultSite::PtNodeAlloc, 7);
        assert!(with_plan(plan, || run_seq(true)).0.is_some());
    })[FaultSite::PtNodeAlloc.index()]
    .1;
    assert_eq!(
        (cut.crossings, cut.injections),
        (8, 1),
        "a batch cut short counts the crossings made, not the crossings asked for"
    );
    assert_eq!(total(coverage()), so_far, "the workers' crossings are not this thread's");

    // `reset_coverage` forgets passive crossings like any others, and the
    // observer's numbering starts over with them.
    run_clean(true);
    reset_coverage();
    assert_eq!(total(coverage()), 0);
    assert_eq!(observed(|| run_clean(true)).0, expected_stream(|_| 0));
}
