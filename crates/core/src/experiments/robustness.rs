//! E9: partial-failure cleanliness and retry under memory pressure.
//!
//! The paper's complaint is not only that fork is slow — it is that fork
//! *fails messily*: every subsystem must know how to un-duplicate itself,
//! and those paths never run in testing. This experiment runs them, all
//! of them, for fork, `posix_spawn`, and the cross-process builder:
//!
//! 1. **Cleanliness sweep** — `fpr_faults::sweep` counts the K
//!    instrumented fault-injection points each API crosses creating a
//!    child from a standard parent, then replays K times failing at each
//!    point. Record how many produced a clean error that left the world
//!    as it was: observed equal to before the call
//!    ([`fpr_kernel::Kernel::observe`]), no resource leaked
//!    ([`fpr_kernel::Kernel::leak_check`]) and
//!    [`fpr_kernel::Kernel::check_invariants`] green.
//! 2. **Retry under pressure** — under strict overcommit, a large parent
//!    cannot fork (the up-front O(parent) commit charge exceeds the
//!    headroom) but can spawn (O(image) charge). Bounded retry with
//!    backoff rescues fork only after another process releases memory;
//!    spawn and xproc succeed on the first attempt throughout.
//!
//! Because the creation APIs are transactional, every row of the sweep
//! must read `K/K clean`; the table is the evidence.

use crate::kit::world_seeded;
use crate::os::Os;
use fpr_api::{retry_with_backoff, ProcessBuilder, SpawnAttrs};
use fpr_faults::{sweep, FaultSite};
use fpr_kernel::MachineConfig;
use fpr_mem::{OvercommitPolicy, Prot, Share};
use fpr_trace::{ProcessShape, TableData};
use std::collections::BTreeMap;

type ApiOp<'a> = &'a dyn Fn(&mut Os, fpr_kernel::Pid) -> Result<(), fpr_kernel::Errno>;

/// The three creation APIs E9 compares, as uniform closures. Spawn and
/// the builder carry representative file actions and memory ops so the
/// sweep reaches their per-step fault sites, not just the shared ones.
fn apis() -> [(&'static str, ApiOp<'static>); 3] {
    use fpr_api::{FdSource, FileAction, MemOp};
    use fpr_kernel::{OpenFlags, Fd, STDOUT};
    [
        ("fork", &|os, p| os.fork(p).map(|_| ())),
        ("posix_spawn", &|os, p| {
            let actions = vec![
                FileAction::Open {
                    fd: STDOUT,
                    path: "/e9-out.txt".into(),
                    flags: OpenFlags::WRONLY,
                    create: true,
                },
                FileAction::Close {
                    fd: fpr_kernel::STDIN,
                },
            ];
            os.spawn(p, "/bin/tool", &actions, &SpawnAttrs::default())
                .map(|_| ())
        }),
        ("xproc", &|os, p| {
            let builder = ProcessBuilder::new("/bin/tool")
                .fd(STDOUT, FdSource::Inherit(STDOUT))
                .fd(
                    Fd(5),
                    FdSource::Open {
                        path: "/e9-scratch".into(),
                        flags: OpenFlags::RDWR,
                        create: true,
                    },
                )
                .mem(MemOp::MapAnon {
                    tag: 1,
                    pages: 4,
                    prot: fpr_mem::Prot::RW,
                })
                .mem(MemOp::Write {
                    tag: 1,
                    offset: 0,
                    value: 9,
                });
            os.spawn_builder(p, builder).map(|_| ())
        }),
    ]
}

fn standard_os() -> (Os, fpr_kernel::Pid) {
    world_seeded(MachineConfig::default(), 9, ProcessShape::shell())
}

/// One fail point's verdict: which site it hit, whether the API failed
/// (it must — the fault is injected), whether the kernel stayed intact.
struct PointResult {
    site: FaultSite,
    failed: bool,
    intact: bool,
}

/// Replays one API once per fail point it crosses, from a fresh world
/// each time, recording per-point cleanliness.
fn sweep_points(op: ApiOp<'_>) -> Vec<PointResult> {
    // `fresh` is deterministic: every world it builds observes as this one.
    let seen = standard_os().0.kernel.observe();
    let fresh = || {
        let (os, parent) = standard_os();
        let base = os.kernel.baseline();
        (os, parent, base, &seen)
    };
    let mut points = Vec::new();
    sweep(None, fresh, |(os, parent, ..)| op(os, *parent), |point| {
        let Some(fault) = point.fault else {
            return point.result.expect("fault-free run");
        };
        let (os, _, base, seen) = &point.world;
        let k = &os.kernel;
        let as_before = seen.diff(&k.observe()).is_empty();
        points.push(PointResult {
            site: fault.site,
            failed: point.result.is_err(),
            intact: as_before && k.leak_check(base).is_ok() && k.check_invariants().is_ok(),
        });
    });
    points
}

/// Outcome of one API's creation attempt under memory pressure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PressureOutcome {
    /// API label.
    pub api: &'static str,
    /// Whether creation ultimately succeeded.
    pub succeeded: bool,
    /// Attempts the bounded retry made.
    pub attempts: u32,
    /// Backoff cycles burnt waiting.
    pub backoff_cycles: u64,
}

/// Creates a child with each API from a large parent under strict
/// overcommit, with a hog releasing its memory before attempt
/// `relief_at`. Fork needs the relief; spawn and xproc do not.
pub(crate) fn under_pressure(relief_at: u32) -> Vec<PressureOutcome> {
    let mut out = Vec::new();
    for api in ["fork", "posix_spawn", "xproc"] {
        let machine = MachineConfig {
            frames: 4096,
            overcommit: OvercommitPolicy::Never { ratio: 0.9 },
            ..MachineConfig::default()
        };
        // A parent holding ~45% of commit: its fork needs another ~45%.
        let shape = ProcessShape {
            heap_pages: 1_650,
            vma_count: 4,
            extra_fds: 2,
            extra_threads: 0,
        };
        let (mut os, parent) = world_seeded(machine, 9, shape);
        // A hog eats the rest of the headroom, minus a sliver that covers
        // spawn-sized (O(image)) charges but not fork-sized ones.
        let limit = os.kernel.commit.limit().expect("strict mode");
        let headroom = limit - os.kernel.commit.committed();
        let hog_pages = headroom.saturating_sub(96);
        let hog = os
            .kernel
            .mmap_anon(os.init, hog_pages, Prot::RW, Share::Private)
            .expect("hog fits");
        let mut attempt = 0;
        let init = os.init;
        let (result, stats) = retry_with_backoff(&mut os.kernel, |k| {
            attempt += 1;
            if attempt == relief_at {
                k.munmap(init, hog, hog_pages).expect("hog unmaps");
            }
            match api {
                "fork" => fpr_api::fork(k, parent).map(|_| ()),
                "posix_spawn" => fpr_api::posix_spawn(
                    k,
                    parent,
                    &os.images,
                    "/bin/tool",
                    &[],
                    &SpawnAttrs::default(),
                    11,
                    None,
                )
                .map(|_| ()),
                _ => ProcessBuilder::new("/bin/tool")
                    .aslr_seed(11)
                    .spawn(k, parent, &os.images)
                    .map(|_| ()),
            }
        });
        out.push(PressureOutcome {
            api,
            succeeded: result.is_ok(),
            attempts: stats.attempts,
            backoff_cycles: stats.backoff_cycles,
        });
    }
    out
}

/// Runs E9 from one sweep of each API: the API × fail-site matrix
/// (`tab_faultmatrix`) — per (API, site), how many of that API's
/// crossings hit the site and how many injections failed clean, so a
/// `DIRTY` row is an error path whose cleanup is broken — and the per-API
/// table with the retries under pressure (`tab_e9_robustness`).
pub fn run() -> (TableData, TableData) {
    let mut matrix = TableData::new(
        "tab_faultmatrix",
        "API × fail-site sweep (clean = injected faults with Err + intact kernel)",
        &["api", "site", "crossings", "clean", "status"],
    );
    let mut t = TableData::new(
        "tab_e9_robustness",
        "E9: partial-failure cleanliness and retry under memory pressure",
        &[
            "api",
            "injection_points",
            "clean_err",
            "clean_state",
            "dirty",
            "pressure_attempts",
            "pressure_backoff_cycles",
            "pressure_outcome",
        ],
    );
    let sweeps: Vec<_> = apis().into_iter().map(|(api, op)| (api, sweep_points(op))).collect();
    let pressure = under_pressure(3);
    for ((api, points), p) in sweeps.iter().zip(pressure.iter()) {
        assert_eq!(*api, p.api, "row pairing");
        let mut per: BTreeMap<FaultSite, (u64, u64)> = BTreeMap::new();
        for point in points {
            let e = per.entry(point.site).or_insert((0, 0));
            e.0 += 1;
            e.1 += u64::from(point.failed && point.intact);
        }
        for (site, (crossings, clean)) in per {
            matrix.push_row(vec![
                api.to_string(),
                site.name().to_string(),
                crossings.to_string(),
                format!("{clean}/{crossings}"),
                if clean == crossings { "clean" } else { "DIRTY" }.to_string(),
            ]);
        }
        let n = points.len();
        let clean_errors = points.iter().filter(|p| p.failed).count();
        let clean_state = points.iter().filter(|p| p.failed && p.intact).count();
        t.push_row(vec![
            api.to_string(),
            n.to_string(),
            format!("{clean_errors}/{n}"),
            format!("{clean_state}/{n}"),
            (n - clean_state).to_string(),
            p.attempts.to_string(),
            p.backoff_cycles.to_string(),
            if p.succeeded { "ok" } else { "failed" }.to_string(),
        ]);
    }
    (matrix, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_needs_the_retry_spawn_does_not() {
        let rows = under_pressure(3);
        let fork = rows.iter().find(|r| r.api == "fork").unwrap();
        let spawn = rows.iter().find(|r| r.api == "posix_spawn").unwrap();
        let xproc = rows.iter().find(|r| r.api == "xproc").unwrap();
        assert!(fork.succeeded, "fork succeeds once relief arrives");
        assert_eq!(fork.attempts, 3, "fork retried until the hog released");
        assert!(fork.backoff_cycles > 0);
        for r in [spawn, xproc] {
            assert!(r.succeeded);
            assert_eq!(
                r.attempts, 1,
                "{}: O(image) charge fits without relief",
                r.api
            );
            assert_eq!(r.backoff_cycles, 0);
        }
    }

    #[test]
    fn every_fail_point_is_clean_for_all_apis() {
        let (matrix, t) = run();
        assert!(matrix.rows.len() >= 3, "at least one site row per API");
        for row in &matrix.rows {
            assert_eq!(row[4], "clean", "dirty matrix cell: {row:?}");
        }
        // fork must exercise the memory sites; spawn the file-action site.
        let cell = |api: &str, site: &str| matrix.rows.iter().any(|r| r[0] == api && r[1] == site);
        assert!(cell("fork", "pt_node_alloc"));
        assert!(cell("posix_spawn", "spawn_file_action"));
        assert!(cell("xproc", "xproc_step"));

        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let points = &row[1];
            assert_ne!(points, "0", "{}: no instrumented crossings", row[0]);
            assert_eq!(row[2], format!("{points}/{points}"), "clean errors: {row:?}");
            assert_eq!(row[3], format!("{points}/{points}"), "clean state: {row:?}");
            assert_eq!(row[4], "0", "dirty column must be zero: {row:?}");
            assert_eq!(row[7], "ok");
        }
    }
}
