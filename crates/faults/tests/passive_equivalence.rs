//! A crossing is the same crossing whoever is listening.
//!
//! With no `with_plan` scope and no observer on the thread, `cross` only
//! bumps a per-site counter; with either it takes the full path. The same
//! sequence run all three ways must leave the same coverage, show the
//! observer the same stream, and be visible to the machine-wide registry.
//! One test function: the registry is process-wide.

use fpr_faults::{
    count_crossings, coverage, cross, flush_coverage, global_coverage, reset_coverage,
    reset_global_coverage, set_observer, FaultSite, SiteCoverage,
};
use std::cell::RefCell;
use std::rc::Rc;

const SEQ: [FaultSite; 9] = [
    FaultSite::VmaClone,
    FaultSite::PtNodeAlloc,
    FaultSite::PtNodeAlloc,
    FaultSite::FrameAlloc,
    FaultSite::PtNodeAlloc,
    FaultSite::CellEvacuate,
    FaultSite::FrameAlloc,
    FaultSite::PtNodeAlloc,
    FaultSite::VmaClone,
];

fn run_seq() {
    for site in SEQ {
        cross(site).expect("nothing injects");
    }
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

type Stream = Vec<(FaultSite, u64, bool)>;

/// Runs `f` with an observer installed and returns what it was shown.
fn observed(f: impl FnOnce()) -> Stream {
    let seen: Rc<RefCell<Stream>> = Rc::default();
    let sink = Rc::clone(&seen);
    let prev = set_observer(Some(Box::new(move |site, occurrence, injected| {
        sink.borrow_mut().push((site, occurrence, injected));
    })));
    f();
    set_observer(prev);
    Rc::try_unwrap(seen).expect("observer dropped").into_inner()
}

/// The stream an observer must see for `SEQ` when each site has already
/// been crossed `already(site)` times: occurrences count on from there.
fn expected_stream(already: impl Fn(FaultSite) -> u64) -> Stream {
    let mut counts = [0u64; FaultSite::COUNT];
    let mut next = |site: FaultSite| {
        counts[site.index()] += 1;
        (site, already(site) + counts[site.index()] - 1, false)
    };
    SEQ.iter().map(|&site| next(site)).collect()
}

#[test]
fn passive_scoped_and_observed_crossings_agree() {
    reset_global_coverage();

    // The three ways leave the same per-site coverage.
    let passive = coverage_delta(run_seq);
    let mut trace = None;
    let scoped = coverage_delta(|| trace = Some(count_crossings(run_seq)));
    let mut stream = Vec::new();
    let watched = coverage_delta(|| stream = observed(run_seq));
    assert_eq!(passive, scoped);
    assert_eq!(passive, watched);
    let of = |site: FaultSite| passive[site.index()].1;
    assert_eq!(of(FaultSite::PtNodeAlloc), SiteCoverage { crossings: 4, injections: 0 });
    assert_eq!(of(FaultSite::PidAlloc), SiteCoverage::default());
    assert_eq!(passive.iter().map(|(_, c)| c.crossings).sum::<u64>(), SEQ.len() as u64);

    // The scope's trace is the sequence, occurrences counted from 0.
    let trace = trace.expect("the scope ran");
    let in_scope: Stream = trace.crossings.iter().map(|c| (c.site, c.occurrence, c.injected)).collect();
    assert_eq!(in_scope, expected_stream(|_| 0));

    // Outside a scope the observer is shown cumulative − 1, and the
    // cumulative count includes the two runs nobody observed: the third
    // run's first `pt_node_alloc` is the thread's ninth.
    assert_eq!(stream, expected_stream(|site| 2 * of(site).crossings));
    // Inside a scope the observer sees the scope's own numbering.
    let both = observed(|| drop(count_crossings(run_seq)));
    assert_eq!(both, expected_stream(|_| 0));

    // Four runs so far, all of them in `coverage()` ...
    let total = |cov: Vec<(FaultSite, SiteCoverage)>| cov.iter().map(|(_, c)| c.crossings).sum::<u64>();
    assert_eq!(total(coverage()), 4 * SEQ.len() as u64);
    // ... and in the machine-wide view, before and after a flush; a worker
    // that only ever crossed passively is seen too.
    assert_eq!(total(global_coverage()), 4 * SEQ.len() as u64);
    flush_coverage();
    assert_eq!(total(coverage()), 0, "flushing clears the thread's counters");
    assert_eq!(total(global_coverage()), 4 * SEQ.len() as u64);
    std::thread::spawn(|| {
        run_seq();
        flush_coverage();
    })
    .join()
    .expect("worker finished");
    assert_eq!(total(global_coverage()), 5 * SEQ.len() as u64);
    let evacuations = global_coverage()[FaultSite::CellEvacuate.index()].1;
    assert_eq!(evacuations, SiteCoverage { crossings: 5, injections: 0 });

    // `reset_coverage` forgets passive crossings like any others, and the
    // observer's numbering starts over with them.
    run_seq();
    reset_coverage();
    assert_eq!(total(coverage()), 0);
    assert_eq!(observed(run_seq), expected_stream(|_| 0));
    reset_global_coverage();
    assert_eq!(total(global_coverage()), 0);
}
