//! Tracing regression tests over the five creation APIs.
//!
//! Two guarantees the runtime tracing subsystem makes:
//!
//! 1. **No fault path is silent** — every instrumented fault-site
//!    crossing an operation makes is accounted for in the recorded event
//!    stream by a `fault.<site>` instant in category `"fault"`: an event
//!    stands for `count` consecutive crossings of its site from
//!    `occurrence` on, the events follow execution order and their counts
//!    sum to the site's crossings, and a crossing that injects is an event
//!    of its own.
//! 2. **Spans always balance** — every `Begin` is closed by a matching
//!    `End`, including on error paths where a creation is aborted
//!    mid-flight by an injected fault.

use fpr_api::{clone, fork, posix_spawn, vfork, CloneFlags, ProcessBuilder};
use fpr_api::{FdSource, FileAction, MemOp, SpawnAttrs};
use fpr_exec::{Image, ImageRegistry};
use fpr_faults::{sweep, with_plan, FaultPlan, FaultTrace};
use fpr_kernel::{Errno, Kernel, OpenFlags, Pid, STDOUT};
use fpr_mem::{Prot, Share};
use fpr_rng::Rng;
use fpr_trace::{sink, ArgValue};

/// A parent rich enough to make every API cross several sites: private
/// populated memory, a second VMA, an open file, and a pipe (mirrors the
/// faultsweep harness).
fn world() -> (Kernel, Pid, ImageRegistry) {
    let mut k = Kernel::boot();
    let init = k.create_init("init").unwrap();
    let a = k.mmap_anon(init, 6, Prot::RW, Share::Private).unwrap();
    k.populate(init, a, 6).unwrap();
    let b = k.mmap_anon(init, 3, Prot::RW, Share::Shared).unwrap();
    k.populate(init, b, 3).unwrap();
    let f = k.open(init, "/data", OpenFlags::RDWR, true).unwrap();
    k.write_fd(init, f, b"seed").unwrap();
    k.pipe(init).unwrap();
    let mut reg = ImageRegistry::new();
    reg.register("/bin/tool", Image::small("tool"));
    (k, init, reg)
}

/// Reads the boolean `injected` argument off a trace event.
fn injected_arg(ev: &fpr_trace::TraceEvent) -> Option<bool> {
    ev.args.iter().find(|(k, _)| *k == "injected").and_then(|(_, v)| match v {
        ArgValue::Bool(b) => Some(*b),
        _ => None,
    })
}

/// Asserts the fault events among `events` account for `trace` crossing by
/// crossing: each event is a run of `count` crossings of one site with
/// consecutive occurrences from `occurrence` on, all of them injected or
/// none, and an injected crossing is a run of one.
fn assert_events_cover_trace(label: &str, events: &[fpr_trace::TraceEvent], trace: &FaultTrace) {
    let mut crossings = trace.crossings.iter();
    for ev in sink::in_category(events, "fault") {
        let first = ev.arg_u64("occurrence").expect("a fault event says which occurrence");
        let count = ev.arg_u64("count").expect("a fault event says how many crossings");
        let injected = injected_arg(ev).expect("a fault event says whether it injected");
        assert!(count > 0, "{label}: {} stands for no crossing", ev.name);
        assert!(!injected || count == 1, "{label}: an injected crossing is an event of its own");
        for occurrence in first..first + count {
            let c = crossings
                .next()
                .unwrap_or_else(|| panic!("{label}: {} #{occurrence} was never crossed", ev.name));
            assert_eq!(
                (ev.name, occurrence, injected),
                (c.site.event_name(), c.occurrence, c.injected),
                "{label}: fault events must follow execution order"
            );
        }
    }
    assert_eq!(crossings.count(), 0, "{label}: crossings no fault event accounts for");
}

/// Runs `op` once, fault-free, under both a fault plan and a trace sink,
/// and asserts the recorded fault events account for the crossing trace.
fn assert_crossings_mirrored(
    label: &str,
    op: impl Fn(&mut Kernel, Pid, &ImageRegistry) -> Result<(), Errno>,
) {
    let (mut k, p, reg) = world();
    let ((result, trace), events) =
        sink::with_sink(|| with_plan(FaultPlan::passive(), || op(&mut k, p, &reg)));
    result.unwrap_or_else(|e| panic!("{label}: fault-free run failed: {e:?}"));
    assert!(sink::spans_balanced(&events), "{label}: unbalanced spans");
    assert!(!trace.is_empty(), "{label}: operation crossed no instrumented site");
    assert_events_cover_trace(label, &events, &trace);
}

#[test]
fn fork_crossings_all_traced() {
    assert_crossings_mirrored("fork", |k, p, _| fork(k, p).map(|_| ()));
}

#[test]
fn vfork_crossings_all_traced() {
    assert_crossings_mirrored("vfork", |k, p, _| {
        vfork(k, p).map(|c| {
            k.exit(c, 0).unwrap();
            let _ = k.waitpid(p, Some(c));
        })
    });
}

#[test]
fn clone_crossings_all_traced() {
    assert_crossings_mirrored("clone(files)", |k, p, _| {
        clone(
            k,
            p,
            CloneFlags {
                files: true,
                ..CloneFlags::default()
            },
        )
        .map(|_| ())
    });
}

#[test]
fn posix_spawn_crossings_all_traced() {
    let actions = vec![
        FileAction::Open {
            fd: STDOUT,
            path: "/out.txt".into(),
            flags: OpenFlags::WRONLY,
            create: true,
        },
        FileAction::Close {
            fd: fpr_kernel::STDIN,
        },
    ];
    assert_crossings_mirrored("posix_spawn", move |k, p, reg| {
        posix_spawn(
            k,
            p,
            reg,
            "/bin/tool",
            &actions,
            &SpawnAttrs::default(),
            7,
            None,
        )
        .map(|_| ())
    });
}

#[test]
fn xproc_crossings_all_traced() {
    assert_crossings_mirrored("xproc", |k, p, reg| {
        ProcessBuilder::new("/bin/tool")
            .fd(STDOUT, FdSource::Inherit(STDOUT))
            .mem(MemOp::MapAnon {
                tag: 1,
                pages: 4,
                prot: Prot::RW,
            })
            .spawn(k, p, reg)
            .map(|_| ())
    });
}

/// An injected failure must itself be visible (`injected: true`) and the
/// aborted creation must still close every span it opened.
#[test]
fn aborted_fork_closes_spans_and_records_injection() {
    let traced_fork = |(k, p, _): &mut (Kernel, Pid, ImageRegistry)| sink::with_sink(|| fork(k, *p));
    sweep(None, world, traced_fork, |point| {
        let (result, events) = point.result;
        let Some(fault) = point.fault else {
            result.expect("fault-free fork");
            return;
        };
        assert!(result.is_err(), "{fault}: fault was swallowed");
        // Once the PID exists the fault lands inside the creation
        // transaction, which rolls the child back exactly once.
        let in_transaction = fault.site != fpr_faults::FaultSite::PidAlloc;
        let aborts = events
            .iter()
            .filter(|e| e.name == "abort_process_creation")
            .count();
        assert_eq!(
            aborts,
            usize::from(in_transaction),
            "{fault}: one abort_process_creation instant per rolled-back child"
        );
        assert!(
            sink::spans_balanced(&events),
            "{fault}: aborted creation left an open span"
        );
        let injected = events
            .iter()
            .filter(|e| e.cat == "fault" && injected_arg(e) == Some(true))
            .count();
        assert_eq!(injected, 1, "{fault}: injection not traced");
        assert_events_cover_trace(&fault.to_string(), &events, &point.trace);
    });
}

/// Property test: across seeded random workloads — mixed creation APIs,
/// memory traffic, exits, and randomly injected faults — the recorded
/// stream is always a balanced span sequence.
#[test]
fn spans_balanced_under_random_workloads() {
    for seed in 0..48u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let (mut k, p, reg) = world();
        let heap = k.mmap_anon(p, 64, Prot::RW, Share::Private).unwrap();
        k.populate(p, heap, 32).unwrap();
        // Half the runs inject a fault at a random crossing, so aborted
        // creations are exercised as often as successful ones.
        let plan = if seed.is_multiple_of(2) {
            FaultPlan::passive()
        } else {
            FaultPlan::passive().fail_nth_crossing(rng.gen_u64() % 16)
        };
        let steps = 2 + (rng.gen_u64() % 6);
        let ((), events) = sink::with_sink(|| {
            let ((), _trace) = with_plan(plan, || {
                for _ in 0..steps {
                    match rng.gen_u64() % 6 {
                        0 => {
                            if let Ok(c) = fork(&mut k, p) {
                                let _ = k.exit(c, 0);
                                let _ = k.waitpid(p, Some(c));
                            }
                        }
                        1 => {
                            if let Ok(c) = vfork(&mut k, p) {
                                let _ = k.exit(c, 0);
                                let _ = k.waitpid(p, Some(c));
                            }
                        }
                        2 => {
                            let _ = posix_spawn(
                                &mut k,
                                p,
                                &reg,
                                "/bin/tool",
                                &[],
                                &SpawnAttrs::default(),
                                rng.gen_u64(),
                                None,
                            );
                        }
                        3 => {
                            let _ = clone(
                                &mut k,
                                p,
                                CloneFlags {
                                    files: true,
                                    pt_share: rng.gen_u64().is_multiple_of(2),
                                    ..CloneFlags::default()
                                },
                            );
                        }
                        4 => {
                            let _ = ProcessBuilder::new("/bin/tool")
                                .fd(STDOUT, FdSource::Inherit(STDOUT))
                                .spawn(&mut k, p, &reg);
                        }
                        _ => {
                            let page = rng.gen_u64() % 64;
                            let _ = k.write_mem(p, heap.add(page), rng.gen_u64());
                        }
                    }
                }
            });
        });
        assert!(
            sink::spans_balanced(&events),
            "seed {seed}: unbalanced span stream ({} events)",
            events.len()
        );
    }
}
