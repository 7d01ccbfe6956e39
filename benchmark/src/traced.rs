//! The traced run: benchmark-side spans around every call into the
//! simulator, stand-alone probes of `fpr-mem`, and the per-layer metrics
//! derived from both.
//!
//! Three arms serve the same batches on three identically seeded worlds,
//! interleaved so that all see the same interference: `plain` (what the
//! untraced run does), `sink` (the same loop under `fpr_trace::sink`),
//! and `traced` (fork and exec split, every call in a span). All three
//! must charge exactly the same cycles.
//!
//! The spans are recorded with the sink off. Measured: under the sink
//! the simulator emits thousands of events per request (one per fault-site
//! crossing) and `svc_mix` runs 2.3x slower, nearly all of it inside the
//! fork walk, so spans taken under it would attribute the sink's cost to
//! `api` and `mem`. The sink's tax is the `sink` arm's own figure.

use crate::engine::{NoTrace, Tally, Tracer};
use crate::report::{nums, Measured};
use crate::run::{set_up, virt, Arm, Schedule, Sizes};
use crate::stats::{quantile_f64, quantile_u64};
use crate::workload::{Kind, Spec, TOUCH_PAGES};
use fpr_faults::FaultSite;
use fpr_mem::address_space::heap_vma;
use fpr_mem::{AddressSpace, CostModel, Cycles, ForkMode, PhysMemory, TlbModel, Vpn};
use fpr_trace::json::Value;
use fpr_trace::{metrics, sink};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the enclosing span, or `NO_PARENT`.
    pub parent: u32,
    /// Batch it was recorded in.
    pub batch: u32,
    /// Request of the batch it belongs to.
    pub request: u32,
    /// Host nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Modelled cycles charged inside the span.
    pub cycles: u64,
}

impl Span {
    fn host_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields one item")
    }
}

/// Keeps every span in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    /// All spans, in start order.
    pub spans: Vec<Span>,
    open: Vec<u32>,
    batch: u32,
    request: u32,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            batch: 0,
            request: 0,
        }
    }
}

impl Tracer for Recorder {
    const SPLIT_FORK: bool = true;

    fn enter(&mut self, name: &'static str, cycles: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            batch: self.batch,
            request: self.request,
            start_ns: 0,
            end_ns: 0,
            cycles,
        });
        self.open.push(id as u32);
        // Read the clock last, so that the bookkeeping is outside the span.
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    fn exit(&mut self, id: usize, cycles: u64) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.cycles = cycles - span.cycles;
        let open = self.open.pop();
        debug_assert_eq!(open, Some(id as u32), "spans close innermost first");
    }

    fn begin_request(&mut self, index: usize) {
        self.request = index as u32;
    }
}

/// Host time and cycles of every span of one name.
#[derive(Default)]
struct NameStats {
    host_ns: Vec<f64>,
    cycles: Vec<u64>,
}

fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut map: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = map.entry(s.name).or_default();
        e.host_ns.push(s.host_ns());
        e.cycles.push(s.cycles);
    }
    map
}

/// Share of the traced batches' wall time that is each layer's self
/// time. With the benchmark's spans that is the sum of a layer's calls,
/// and for `core` what a request span does not cover with a call.
fn time_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for s in spans {
        // Self time: a span adds its time to its own layer and takes it
        // from the layer of the span around it.
        *per_layer.entry(s.layer()).or_default() += s.host_ns();
        if s.parent == NO_PARENT {
            total += s.host_ns();
        } else {
            *per_layer
                .entry(spans[s.parent as usize].layer())
                .or_default() -= s.host_ns();
        }
    }
    per_layer
        .into_iter()
        .map(|(layer, ns)| (layer, ns / total))
        .collect()
}

/// Times of the `fpr-mem` calls that sit below `api` and `kernel`, where
/// the benchmark's spans cannot reach: the same calls made directly on a
/// stand-alone address space of the workload's footprint, in the state
/// the serving parent is in (forked from before, never written since).
struct MemProbes {
    fork_cow: f64,
    fork_ondemand: f64,
    destroy_cow: f64,
    destroy_ondemand: f64,
    cow_fault: f64,
    frame_alloc: f64,
}

fn p25(values: &mut [f64]) -> f64 {
    quantile_f64(values, 0.25)
}

fn probe_mem(spec: &Spec, reps: usize) -> MemProbes {
    const CPUS: u32 = 1;
    let pages = spec.parent_pages;
    let mut phys = PhysMemory::new(pages * 2 + 16_384, CostModel::default());
    let mut cycles = Cycles::new();
    let mut tlb = TlbModel::new();
    let base = Vpn(0x10_000);
    let mut parent = AddressSpace::new();
    parent
        .mmap(heap_vma(base, pages), &mut phys, &mut cycles)
        .expect("an empty space takes the heap");
    parent
        .populate(base, pages, &mut phys, &mut cycles)
        .expect("the probe machine holds the heap");

    let mut fork_destroy = |mode: ForkMode, parent: &mut AddressSpace, phys: &mut PhysMemory| {
        let (mut fork, mut destroy) = (Vec::new(), Vec::new());
        // Rep 0 downgrades the parent's PTEs to COW and is dropped.
        for rep in 0..=reps {
            let t0 = Instant::now();
            let mut child =
                AddressSpace::fork_from(parent, mode, phys, &mut cycles, &mut tlb, CPUS)
                    .expect("the probe machine has room for a child");
            let t1 = Instant::now();
            child.destroy(phys, &mut cycles);
            let t2 = Instant::now();
            if rep > 0 {
                fork.push((t1 - t0).as_nanos() as f64);
                destroy.push((t2 - t1).as_nanos() as f64);
            }
        }
        (p25(&mut fork), p25(&mut destroy))
    };
    let (fork_cow, destroy_cow) = fork_destroy(ForkMode::Cow, &mut parent, &mut phys);
    let (fork_ondemand, destroy_ondemand) =
        fork_destroy(ForkMode::OnDemand, &mut parent, &mut phys);

    // Write faults of a COW child on pages spread over the whole heap.
    let writes = TOUCH_PAGES as u64;
    let stride = pages / writes;
    let mut cow_fault = Vec::new();
    for _ in 0..reps {
        let mut child = AddressSpace::fork_from(
            &mut parent,
            ForkMode::Cow,
            &mut phys,
            &mut cycles,
            &mut tlb,
            CPUS,
        )
        .expect("the probe machine has room for a child");
        let t0 = Instant::now();
        for i in 0..writes {
            child
                .write(
                    base.add(i * stride),
                    i,
                    &mut phys,
                    &mut cycles,
                    &mut tlb,
                    CPUS,
                )
                .expect("the heap is writable");
        }
        cow_fault.push(t0.elapsed().as_nanos() as f64 / writes as f64);
        child.destroy(&mut phys, &mut cycles);
    }

    const PAIRS: usize = 1024;
    let mut frame_alloc = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..PAIRS {
            let pfn = phys
                .alloc_zeroed(&mut cycles)
                .expect("the probe machine has free frames");
            phys.dec_ref(black_box(pfn), &mut cycles)
                .expect("the frame was just allocated");
        }
        frame_alloc.push(t0.elapsed().as_nanos() as f64 / PAIRS as f64);
    }
    parent.destroy(&mut phys, &mut cycles);

    MemProbes {
        fork_cow,
        fork_ondemand,
        destroy_cow,
        destroy_ondemand,
        cow_fault: p25(&mut cow_fault),
        frame_alloc: p25(&mut frame_alloc),
    }
}

/// Nanoseconds per call of `f`, lower quartile over `reps` loops.
fn probe_call(reps: usize, mut f: impl FnMut()) -> f64 {
    const CALLS: usize = 4096;
    let mut ns = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..CALLS {
            f();
        }
        ns.push(t0.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    p25(&mut ns)
}

/// What the traced run of one workload produced.
pub struct PerLayer {
    /// Calls attempted / failed and failed output checks, all arms.
    pub tally: Tally,
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Measured>,
    /// Raw figures for the report's detail section.
    pub detail: Vec<(String, Value)>,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

/// Runs one workload traced. `seconds` is shared between the three arms.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, sizes: Sizes) -> PerLayer {
    let seq = sizes.sequence(spec, seed);
    let mut tally = Tally::default();
    // The set-up split is taken over `sizes.boots` set-ups; the last
    // three worlds serve the arms.
    let mut setups = Vec::new();
    let mut arm = || {
        let (world, sample) = set_up(spec, &seq, seed, &mut tally);
        setups.push(sample);
        Arm::new(world, spec, &seq, usize::MAX)
    };
    for _ in 3..sizes.boots {
        drop(arm());
    }
    let (mut plain, mut sunk, mut traced) = (arm(), arm(), arm());

    let mut rec = Recorder::new();
    let mut counters = metrics::Snapshot::default();
    let (mut crossings, mut events) = (0u64, 0u64);
    let crossed = || -> u64 {
        fpr_faults::coverage()
            .iter()
            .map(|(_, c)| c.crossings)
            .sum()
    };
    let budget = if sizes.fixed { 0.0 } else { seconds };
    let mut schedule = Schedule::new(budget, sizes.sampled_batches);
    let mut batch = 0;
    while batch < sizes.traced_batches || schedule.elapsed_s() < budget {
        // The three arms are sampled together, one right after the other.
        let sample = schedule.due();
        // Counters and crossings are counted on the plain arm, around the
        // batch alone: the output checks cross fault sites too.
        let (before, crossed_before) = (metrics::snapshot(), crossed());
        plain.serve(&mut tally, &mut NoTrace, sample);
        counters.merge(&metrics::snapshot().delta(&before));
        crossings += crossed() - crossed_before;
        let ((), sunk_events) = sink::with_sink(|| sunk.serve(&mut tally, &mut NoTrace, sample));
        events += sunk_events.len() as u64;
        rec.batch = batch as u32;
        traced.serve(&mut tally, &mut rec, sample);
        for arm in [&mut plain, &mut sunk, &mut traced] {
            arm.check(&mut tally);
        }
        batch += 1;
    }
    let batches = batch;
    let requests = (batches * sizes.requests) as f64;

    // Neither the sink nor the split of fork and exec may move the model.
    for (name, arm) in [("sink", &sunk), ("traced", &traced)] {
        if arm.timed.batch_cycles != plain.timed.batch_cycles {
            tally.violate(format!(
                "the {name} arm charged {:?} cycles per batch, the plain arm {:?}",
                arm.timed.batch_cycles, plain.timed.batch_cycles
            ));
        }
    }

    let mem = probe_mem(spec, sizes.probe_reps);
    let metrics_add = probe_call(sizes.probe_reps, || metrics::add("benchmark.probe", 1));
    let cross = probe_call(sizes.probe_reps, || {
        let _ = black_box(fpr_faults::cross(FaultSite::FrameAlloc));
    });

    // A call the workload's mix never makes has no span and reads 0 on
    // both clocks: no time is spent there.
    let stats = by_name(&rec.spans);
    let host_ns =
        |name: &str| -> f64 { stats.get(name).map_or(0.0, |s| p25(&mut s.host_ns.clone())) };
    let cycles = |name: &str| -> f64 {
        stats
            .get(name)
            .map_or(0.0, |s| quantile_u64(&mut s.cycles.clone(), 0.5) as f64)
    };
    let per_request = |counter: &str| counters.counter(counter) as f64 / requests;
    let ratio = |hit: &str, miss: &str| {
        let (h, m) = (counters.counter(hit) as f64, counters.counter(miss) as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    };
    let shares = time_shares(&rec.spans);
    let share = |layer: &str| shares.get(layer).copied().unwrap_or(0.0);

    // What the fpr-mem calls below the spans would take, by the probes:
    // one fork and one destroy per fork-family request, one fault per
    // COW copy. A floor, not a sum of parts: OnDemand's unshare on write
    // and every frame allocation inside other calls are left out.
    let per_batch = |kinds: &[Kind]| {
        seq.requests
            .iter()
            .filter(|r| kinds.contains(&r.kind))
            .count() as f64
    };
    let cow_forks = per_batch(&[Kind::ForkCowExec, Kind::TouchCow]);
    let ondemand_forks = per_batch(&[Kind::ForkOnDemandExec, Kind::TouchOnDemand]);
    let mem_ns = batches as f64
        * (cow_forks * (mem.fork_cow + mem.destroy_cow)
            + ondemand_forks * (mem.fork_ondemand + mem.destroy_ondemand))
        + counters.counter("mem.fault.cow_copy") as f64 * mem.cow_fault;
    let traced_ns: f64 = rec
        .spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(Span::host_ns)
        .sum();

    let mut boot_ns: Vec<f64> = setups.iter().map(|s| s.boot.boot_ns as f64).collect();
    let mut make_parent_ns: Vec<f64> = setups
        .iter()
        .map(|s| s.boot.make_parent_ns as f64 / spec.parent_pages as f64)
        .collect();
    // Over the batches every traced run makes, so that the figure does
    // not depend on how many more the host managed.
    let virt = virt(
        spec,
        &seq,
        seed,
        &plain.timed,
        sizes.traced_batches,
        sizes.queue_requests,
    );
    let counter_updates: u64 = counters.counters().map(|(_, v)| v).sum();

    let mut out = Vec::new();
    let mut push = |name: &'static str, value: f64| out.push(Measured::new(name, value, 0.0));
    for (path, host, virt_name, ratio_name) in [
        (
            "api.spawn_fast",
            "api.spawn_fast.host_ns",
            "api.spawn_fast.virt_cycles",
            "api.spawn_fast.host_ns_per_kcycle",
        ),
        (
            "api.fork_cow",
            "api.fork_cow.host_ns",
            "api.fork_cow.virt_cycles",
            "api.fork_cow.host_ns_per_kcycle",
        ),
        (
            "api.fork_ondemand",
            "api.fork_ondemand.host_ns",
            "api.fork_ondemand.virt_cycles",
            "api.fork_ondemand.host_ns_per_kcycle",
        ),
        (
            "api.vfork_exec",
            "api.vfork_exec.host_ns",
            "api.vfork_exec.virt_cycles",
            "api.vfork_exec.host_ns_per_kcycle",
        ),
        (
            "api.xproc",
            "api.xproc.host_ns",
            "api.xproc.virt_cycles",
            "api.xproc.host_ns_per_kcycle",
        ),
    ] {
        push(host, host_ns(path));
        push(virt_name, cycles(path));
        let kcycles = cycles(path) / 1000.0;
        push(
            ratio_name,
            if kcycles == 0.0 {
                0.0
            } else {
                host_ns(path) / kcycles
            },
        );
    }
    push("api.pool_autoscale.host_ns", host_ns("api.pool_autoscale"));
    push(
        "api.pool.hit_ratio",
        ratio("api.pool.checkout", "api.pool.miss"),
    );
    push("api.calls.time_share", share("api"));
    push("exec.execve.host_ns", host_ns("exec.execve"));
    push("exec.execve.virt_cycles", cycles("exec.execve"));
    push(
        "exec.image_cache.hit_ratio",
        ratio("exec.image_cache.hit", "exec.image_cache.miss"),
    );
    push("exec.calls.time_share", share("exec"));
    push("kernel.populate.host_ns", host_ns("kernel.populate"));
    push(
        "kernel.write_mem.host_ns",
        host_ns("kernel.write_mem") / TOUCH_PAGES as f64,
    );
    push("kernel.exit.host_ns", host_ns("kernel.exit"));
    push("kernel.waitpid.host_ns", host_ns("kernel.waitpid"));
    push("kernel.fd_clone.count", per_request("kernel.fd_clone"));
    push("kernel.calls.time_share", share("kernel"));
    push("mem.fork_cow.host_ns", mem.fork_cow);
    push("mem.fork_ondemand.host_ns", mem.fork_ondemand);
    push("mem.destroy.host_ns", mem.destroy_cow);
    push("mem.cow_fault.host_ns", mem.cow_fault);
    push("mem.frame_alloc.host_ns", mem.frame_alloc);
    push("mem.fork.pte_copy.count", per_request("mem.fork.pte_copy"));
    push(
        "mem.fork.vma_clone.count",
        per_request("mem.fork.vma_clone"),
    );
    push("mem.tlb.shootdown.count", per_request("mem.tlb.shootdown"));
    push(
        "mem.tlb.entries_flushed.count",
        per_request("mem.tlb.entries_flushed"),
    );
    push(
        "mem.fault.cow_copy.count",
        per_request("mem.fault.cow_copy"),
    );
    push("mem.page_copy.count", per_request("mem.page_copy"));
    push(
        "mem.unshare.pte_copy.count",
        per_request("mem.unshare.pte_copy"),
    );
    push(
        "mem.unshare.pt_node.count",
        per_request("mem.unshare.pt_node"),
    );
    push("mem.frame_alloc.count", per_request("mem.frame_alloc"));
    push("mem.frame_free.count", per_request("mem.frame_free"));
    push("mem.probes.time_share", mem_ns / traced_ns);
    push(
        "trace.traced_run.overhead_ratio",
        traced.timed.quiet.ns() / plain.timed.quiet.ns(),
    );
    push(
        "trace.sink_on.overhead_ratio",
        sunk.timed.quiet.ns() / plain.timed.quiet.ns(),
    );
    push("trace.events.count", events as f64 / requests);
    push("trace.metrics_add.host_ns", metrics_add);
    push(
        "trace.counter_updates.count",
        counter_updates as f64 / requests,
    );
    push("faults.cross.host_ns", cross);
    push("faults.crossings.count", crossings as f64 / requests);
    push("core.boot.host_ns", p25(&mut boot_ns));
    push(
        "core.make_parent.host_ns_per_page",
        p25(&mut make_parent_ns),
    );
    push(
        "core.queue_wait.virt_cycles_p99",
        virt.queue_wait_p99 as f64,
    );
    push("core.loop.time_share", share("core"));

    let us_per_req = |arm: &Arm| {
        nums(
            arm.timed
                .batch_ns
                .iter()
                .map(|&ns| ns as f64 / 1e3 / sizes.requests as f64),
        )
    };
    let detail = vec![
        (
            "traced_batches_per_arm".to_string(),
            Value::Num(batches as f64),
        ),
        ("spans".to_string(), Value::Num(rec.spans.len() as f64)),
        ("plain_us_per_req".to_string(), us_per_req(&plain)),
        ("sink_us_per_req".to_string(), us_per_req(&sunk)),
        ("traced_us_per_req".to_string(), us_per_req(&traced)),
        (
            "mem_destroy_ondemand_ns".to_string(),
            Value::Num(mem.destroy_ondemand),
        ),
    ];
    PerLayer {
        tally,
        metrics: out,
        detail,
        spans: rec.spans,
    }
}

/// Writes the spans of the first traced batch as a Chrome trace (`chrome://tracing`, Perfetto): complete events, one
/// track, host microseconds, with the request, the parent span and the
/// modelled cycles as arguments.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for (id, s) in spans.iter().enumerate() {
        if s.batch != 0 {
            continue;
        }
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {id}, \"parent\": {parent}, \"request\": {}, \"virt_cycles\": {}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.request,
            s.cycles,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            batch: 0,
            request: 0,
            start_ns,
            end_ns,
            cycles: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        // A tick of 10, then a request of 100 holding an api call of 60
        // and a kernel call of 30: 10 left for the loop itself.
        let spans = [
            span("api.pool_autoscale", NO_PARENT, 0, 10),
            span("core.request", NO_PARENT, 10, 110),
            span("api.fork_cow", 1, 12, 72),
            span("kernel.exit", 1, 75, 105),
        ];
        let shares = time_shares(&spans);
        assert!((shares["api"] - 70.0 / 110.0).abs() < 1e-12);
        assert!((shares["kernel"] - 30.0 / 110.0).abs() < 1e-12);
        assert!((shares["core"] - 10.0 / 110.0).abs() < 1e-12);
        let total: f64 = shares.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_and_charges_cycle_deltas() {
        let mut rec = Recorder::new();
        rec.begin_request(7);
        let outer = rec.enter("core.request", 1_000);
        let inner = rec.enter("api.xproc", 1_100);
        rec.exit(inner, 1_400);
        rec.exit(outer, 1_500);
        assert_eq!(rec.spans[inner].parent, outer as u32);
        assert_eq!(rec.spans[outer].parent, NO_PARENT);
        assert_eq!(rec.spans[inner].cycles, 300);
        assert_eq!(rec.spans[outer].cycles, 500);
        assert_eq!(rec.spans[inner].request, 7);
        assert!(rec.spans[outer].start_ns <= rec.spans[inner].start_ns);
        assert!(rec.spans[inner].end_ns <= rec.spans[outer].end_ns);
        let trace = chrome_trace(&rec.spans);
        fpr_trace::json::parse(&trace).expect("the trace file is valid JSON");
    }
}
