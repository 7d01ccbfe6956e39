//! The serving loop: set-up, one request, one batch, and the output
//! checks made after every batch.
//!
//! One loop serves both runs. The untraced run instantiates it with
//! [`NoTrace`] (every hook is empty and fork-family requests go through
//! `Os::fork_exec`); the traced run instantiates it with the span
//! recorder, which also splits fork + exec into two visible calls.

use crate::workload::{Kind, Request, Sequence, Spec, POOL_TARGET, SERVICE_BIN};
use forkroad_core::experiments::fig1::machine_for;
use forkroad_core::{Os, OsConfig};
use fpr_api::{ProcessBuilder, SpawnAttrs};
use fpr_kernel::{KResult, Pid};
use fpr_mem::{ForkMode, Prot, Share, Vpn};
use fpr_trace::ProcessShape;
use std::time::Instant;

/// Hooks around every call the loop makes into the simulator.
pub trait Tracer {
    /// Serve fork-family requests as `fork_stats` then `exec` (two
    /// spans) instead of the one `fork_exec` call.
    const SPLIT_FORK: bool;
    /// A call named `name` starts; `cycles` is the kernel's running total.
    fn enter(&mut self, name: &'static str, cycles: u64) -> usize;
    /// The call `enter` returned `id` for has ended.
    fn exit(&mut self, id: usize, cycles: u64);
    /// Spans recorded from here on belong to request `index` of the batch.
    fn begin_request(&mut self, index: usize);
}

/// The untraced run's tracer: nothing is recorded.
pub struct NoTrace;

impl Tracer for NoTrace {
    const SPLIT_FORK: bool = false;
    #[inline(always)]
    fn enter(&mut self, _: &'static str, _: u64) -> usize {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _: usize, _: u64) {}
    #[inline(always)]
    fn begin_request(&mut self, _: usize) {}
}

fn span<T: Tracer, R>(
    t: &mut T,
    os: &mut Os,
    name: &'static str,
    f: impl FnOnce(&mut Os) -> R,
) -> R {
    let id = t.enter(name, os.kernel.cycles.total());
    let out = f(os);
    t.exit(id, os.kernel.cycles.total());
    out
}

/// Calls attempted and failed, and every output check that did not hold.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Simulator calls made on behalf of requests.
    pub attempted: u64,
    /// Calls that returned `Err`, OOM kills, and children left unreaped.
    pub failed: u64,
    /// Human-readable record of each failed output check.
    pub violations: Vec<String>,
}

impl Tally {
    fn call<R>(&mut self, what: &'static str, r: KResult<R>) -> Option<R> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.violate(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// Records a failed output check (the first few verbatim).
    pub fn violate(&mut self, msg: String) {
        if self.violations.len() < 16 {
            self.violations.push(msg);
        }
    }
}

/// A booted machine with its serving parent, ready to take batches.
pub struct World {
    /// The simulated OS.
    pub os: Os,
    /// The long-lived serving process every request is created from.
    pub parent: Pid,
    /// First page of the parent's populated heap.
    pub heap: Vpn,
    baseline: Option<Baseline>,
}

/// What must be unchanged after every batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Baseline {
    processes: usize,
    free_frames: u64,
}

/// Host nanoseconds of the two set-up phases worth telling apart.
#[derive(Debug, Clone, Copy)]
pub struct BootTiming {
    /// `Os::boot`.
    pub boot_ns: u64,
    /// `Os::make_parent` (maps and populates the heap).
    pub make_parent_ns: u64,
}

/// Boots the machine for `spec`, builds the parent, turns the spawn fast
/// path on and prefills the pool. The seed feeds `OsConfig::seed`.
pub fn boot(spec: &Spec, seed: u64) -> (World, BootTiming) {
    let t0 = Instant::now();
    let mut os = Os::boot(OsConfig {
        machine: machine_for(spec.parent_pages),
        seed,
        ..Default::default()
    });
    let t1 = Instant::now();
    let parent = os
        .make_parent(ProcessShape::with_heap(spec.parent_pages))
        .expect("the machine is sized for the parent");
    let t2 = Instant::now();
    os.enable_spawn_fastpath().expect("fast path turns on");
    os.pool_prefill(SERVICE_BIN, POOL_TARGET)
        .expect("the pool prefills on an idle machine");
    let heap = os.first_mmap_base(parent).expect("the parent has a heap");
    let world = World {
        os,
        parent,
        heap,
        baseline: None,
    };
    let timing = BootTiming {
        boot_ns: (t1 - t0).as_nanos() as u64,
        make_parent_ns: (t2 - t1).as_nanos() as u64,
    };
    (world, timing)
}

/// The maintenance tick: tops the warm pool up to its target.
pub fn tick<T: Tracer>(w: &mut World, tally: &mut Tally, t: &mut T) {
    let r = span(t, &mut w.os, "api.pool_autoscale", |os| {
        os.pool_autoscale(SERVICE_BIN, POOL_TARGET)
    });
    tally.call("pool_autoscale", r);
}

/// Creates the child for `kind`. Fork-family kinds exec unless they touch.
fn create<T: Tracer>(w: &mut World, kind: Kind, tally: &mut Tally, t: &mut T) -> Option<Pid> {
    let parent = w.parent;
    let os = &mut w.os;
    let (fork_span, mode) = match kind {
        Kind::SpawnFast => {
            let r = span(t, os, "api.spawn_fast", |os| {
                os.spawn(parent, SERVICE_BIN, &[], &SpawnAttrs::default())
            });
            return tally.call("spawn", r);
        }
        Kind::VforkExec => {
            let r = span(t, os, "api.vfork_exec", |os| {
                os.vfork_exec(parent, SERVICE_BIN)
            });
            return tally.call("vfork_exec", r);
        }
        Kind::Xproc => {
            let r = span(t, os, "api.xproc", |os| {
                os.spawn_builder(parent, ProcessBuilder::new(SERVICE_BIN))
            });
            return tally.call("xproc", r).map(|s| s.pid);
        }
        Kind::ForkCowExec | Kind::TouchCow => ("api.fork_cow", ForkMode::Cow),
        Kind::ForkOnDemandExec | Kind::TouchOnDemand => ("api.fork_ondemand", ForkMode::OnDemand),
    };
    if !kind.touches() && !T::SPLIT_FORK {
        return tally.call("fork_exec", os.fork_exec(parent, SERVICE_BIN, mode));
    }
    let r = span(t, os, fork_span, |os| os.fork_stats(parent, mode));
    let (child, _) = tally.call("fork", r)?;
    if kind.touches() {
        return Some(child);
    }
    let r = span(t, os, "exec.execve", |os| os.exec(child, SERVICE_BIN));
    if tally.call("exec", r).is_none() {
        // What `fork_exec` does on an exec failure: reap the half-made child.
        let _ = os.kernel.exit(child, 127);
        let _ = os.kernel.waitpid(parent, Some(child));
        return None;
    }
    Some(child)
}

/// Serves one request: create the child, run its body (populate
/// `work_pages` fresh pages, or write the `touches` offsets of the
/// inherited heap), exit and reap it.
pub fn serve<T: Tracer>(
    w: &mut World,
    kind: Kind,
    work_pages: u64,
    touches: &[u32],
    tally: &mut Tally,
    t: &mut T,
) {
    let Some(child) = create(w, kind, tally, t) else {
        return;
    };
    let (parent, heap) = (w.parent, w.heap);
    let os = &mut w.os;
    if kind.touches() {
        let id = t.enter("kernel.write_mem", os.kernel.cycles.total());
        for &page in touches {
            let r = os
                .kernel
                .write_mem(child, heap.add(page as u64), page as u64);
            tally.call("write_mem", r);
        }
        t.exit(id, os.kernel.cycles.total());
    } else if work_pages > 0 {
        let r = span(t, os, "kernel.mmap_anon", |os| {
            os.kernel
                .mmap_anon(child, work_pages, Prot::RW, Share::Private)
        });
        if let Some(base) = tally.call("mmap_anon", r) {
            let r = span(t, os, "kernel.populate", |os| {
                os.kernel.populate(child, base, work_pages)
            });
            tally.call("populate", r);
        }
    }
    let r = span(t, os, "kernel.exit", |os| os.kernel.exit(child, 0));
    tally.call("exit", r);
    let r = span(t, os, "kernel.waitpid", |os| {
        os.kernel.waitpid(parent, Some(child))
    });
    tally.call("waitpid", r);
}

/// What one batch cost on both clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCost {
    /// Host wall time of the batch.
    pub host_ns: u64,
    /// Modelled cycles charged during the batch, ticks included.
    pub cycles: u64,
}

/// What each request of one batch cost.
#[derive(Debug, Default, Clone)]
pub struct BatchLog {
    /// Modelled cycles of create → work → exit → waitpid, in serving order.
    pub service: Vec<u64>,
    /// Modelled cycles of the maintenance tick run just before the
    /// request (0 if none), in serving order.
    pub ticks: Vec<u64>,
    /// Host nanoseconds of tick + request, in serving order. They add up
    /// to the batch's wall time: nothing a batch does is outside a slot.
    pub host_ns: Vec<u32>,
}

/// Serves `requests` of `seq` in the order given: closed loop, the next
/// request starts when the previous child is reaped. The host clock is
/// read once between requests, whether tracing or not; the maintenance
/// tick is timed with the request it delays.
pub fn run_batch<'a, T: Tracer>(
    w: &mut World,
    spec: &Spec,
    seq: &'a Sequence,
    requests: impl Iterator<Item = &'a Request>,
    tally: &mut Tally,
    t: &mut T,
    out: &mut BatchLog,
) -> BatchCost {
    out.service.clear();
    out.ticks.clear();
    out.host_ns.clear();
    let cycles_at_start = w.os.kernel.cycles.total();
    let start = Instant::now();
    let mut last = start;
    for (served, req) in requests.enumerate() {
        // The tick belongs to the request it delays.
        t.begin_request(served);
        let before_tick = w.os.kernel.cycles.total();
        if spec.tick_every > 0 && served % spec.tick_every == 0 {
            tick(w, tally, t);
        }
        let before = w.os.kernel.cycles.total();
        let id = t.enter("core.request", before);
        serve(
            w,
            req.kind,
            spec.work_pages,
            seq.touches_of(req, spec),
            tally,
            t,
        );
        let after = w.os.kernel.cycles.total();
        t.exit(id, after);
        out.ticks.push(before - before_tick);
        out.service.push(after - before);
        let now = Instant::now();
        out.host_ns
            .push(u32::try_from((now - last).as_nanos()).unwrap_or(u32::MAX));
        last = now;
    }
    BatchCost {
        host_ns: (last - start).as_nanos() as u64,
        cycles: w.os.kernel.cycles.total() - cycles_at_start,
    }
}

/// The output checks after a batch, outside its timing: once the pool is
/// topped up again, kernel invariants hold, nobody was OOM-killed, and
/// process count and free frames are back at the baseline the first
/// (warm-up) batch left. Violations go to `tally`.
pub fn check_batch(w: &mut World, tally: &mut Tally) {
    tick(w, tally, &mut NoTrace);
    if let Err(broken) = w.os.kernel.check_invariants() {
        tally.violate(format!("kernel invariants: {}", broken.join("; ")));
    }
    let kills = w.os.kernel.oom_kills.len() as u64;
    if kills > 0 {
        tally.failed += kills;
        tally.violate(format!("{kills} OOM kills"));
        w.os.kernel.oom_kills.clear();
    }
    let now = Baseline {
        processes: w.os.kernel.process_count(),
        free_frames: w.os.kernel.phys.free_frames(),
    };
    match w.baseline {
        None => w.baseline = Some(now),
        Some(base) => {
            if now.processes > base.processes {
                tally.failed += (now.processes - base.processes) as u64;
            }
            if now != base {
                tally.violate(format!("state drifted from {base:?} to {now:?}"));
                // Count a leak once, not again after every later batch.
                w.baseline = Some(now);
            }
        }
    }
}
