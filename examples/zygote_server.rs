//! An Android-style zygote server — and, in miniature, the E15
//! open-loop service workload (`forkroad_core::experiments::service`,
//! [EXPERIMENTS.md](../EXPERIMENTS.md) §E15).
//!
//! The zygote pattern execs one big runtime image and then forks a
//! child per request: fast warm starts, but every child shares one
//! ASLR layout and inherits every descriptor. This example runs the
//! pattern three ways:
//!
//! 1. **Fork a worker per request** — the zygote proper. The security
//!    auditor quantifies the damage: all worker pairs share the
//!    complete layout (zero residual entropy — leak one child, own
//!    them all) and the private-key descriptor leaks into every one.
//! 2. **Spawn a worker per request** — the fix. Fresh ASLR draw per
//!    worker, inherit-nothing descriptors, at the cost of rebuilding
//!    each child from scratch.
//! 3. **An open-loop service burst** — E15's event loop, small enough
//!    to trace by hand. This is exactly how the full experiment works,
//!    scaled from 320 requests and five creation paths down to 24 and
//!    three:
//!
//!    * **Arrivals are open-loop Poisson.** A seeded `fpr_rng::Rng`
//!      draws exponential gaps (`-ln(1-u) × mean`), so requests arrive
//!      on a schedule that does not care how long service takes —
//!      unlike a closed loop, a slow creation path here builds queue.
//!      Everything is deterministic: same seed, same burst.
//!    * **Each request is served by a short-lived child.** The
//!      creation path is drawn from a weighted mix (fork-from-zygote,
//!      posix_spawn, vfork+exec below; the full E15 adds the spawn
//!      fast path and the xproc builder). The child is created, does
//!      its work, exits, and is reaped.
//!    * **The clock is virtual.** `os.measure` charges each service to
//!      the simulated cycle clock; the loop advances
//!      `clock = max(clock, arrival) + service` — idle gaps cost
//!      nothing, queueing shows up as `clock - arrival`.
//!    * **Latency lands in log2 histograms.** Per-path
//!      creation-to-exit cycles go into `fpr_trace`'s `Histogram`, read
//!      back as p50/p99 — the same percentile extraction
//!      (`Histogram::p99`, within one bucket of exact) that prices the
//!      `BENCH_service.json` gate.
//!
//!    What the full E15 adds on top: warm-pool autoscaling ticked
//!    between requests (pressure-gated, so it never fights reclaim),
//!    a queue-inclusive sojourn histogram, sustained-vs-offered
//!    throughput, and a degradation arm where a memory storm drains
//!    the pool and spawn falls back to the classic path. Run it with
//!    `cargo run -p fpr-bench --bin run_all -- fig_service`.
//!
//! Run with: `cargo run --example zygote_server`

use forkroad::api::SpawnAttrs;
use forkroad::audit::{audit_inheritance, zygote_entropy, MAX_LAYOUT_BITS};
use forkroad::kernel::OpenFlags;
use forkroad::mem::CYCLES_PER_US;
use forkroad::trace::metrics::Histogram;
use forkroad::{Os, OsConfig};
use fpr_rng::Rng;

const WORKERS: usize = 8;
/// Requests in the mini service burst.
const REQUESTS: usize = 24;
/// Mean arrival gap: one request every ~4 us (≈250 k req/s offered).
const MEAN_GAP_CYCLES: f64 = 4.0 * CYCLES_PER_US as f64;

fn main() {
    let mut os = Os::boot(OsConfig::default());
    let init = os.init;

    // Boot the zygote: one heavyweight runtime image, warmed up.
    let zygote = os
        .spawn(init, "/bin/server", &[], &SpawnAttrs::default())
        .unwrap();
    // The zygote holds a private key file — a descriptor workers must not see.
    os.kernel
        .open(zygote, "/private_key", OpenFlags::RDWR, true)
        .unwrap();
    let warm = os.kernel.process(zygote).unwrap().resident_pages();
    println!("zygote warmed: {warm} resident pages, 1 secret fd\n");

    // ---- Fork a worker per request ------------------------------------
    let mut fork_children = Vec::new();
    let (_, fork_cost) = os.measure(|os| {
        for _ in 0..WORKERS {
            fork_children.push(os.fork(zygote).unwrap());
        }
    });
    println!(
        "forked {WORKERS} workers in {:.1} us total",
        fork_cost as f64 / CYCLES_PER_US as f64
    );
    let z = zygote_entropy(&os.kernel, &fork_children).unwrap();
    println!(
        "  layout sharing: {}/{} identical pairs, residual entropy {:.1} bits",
        z.identical_pairs,
        WORKERS * (WORKERS - 1) / 2,
        z.effective_entropy_bits
    );
    let r = audit_inheritance(&os.kernel, zygote, fork_children[0]).unwrap();
    println!("  audit of worker 0:\n{}", indent(&r.render()));

    // ---- Spawn a worker per request ------------------------------------
    let mut spawn_children = Vec::new();
    let (_, spawn_cost) = os.measure(|os| {
        for _ in 0..WORKERS {
            spawn_children.push(
                os.spawn(zygote, "/bin/server", &[], &SpawnAttrs::default())
                    .unwrap(),
            );
        }
    });
    println!(
        "spawned {WORKERS} workers in {:.1} us total",
        spawn_cost as f64 / CYCLES_PER_US as f64
    );
    let z2 = zygote_entropy(&os.kernel, &spawn_children).unwrap();
    println!(
        "  layout sharing: {} identical pairs, residual entropy {:.1}/{} bits",
        z2.identical_pairs, z2.effective_entropy_bits, MAX_LAYOUT_BITS
    );
    let r2 = audit_inheritance(&os.kernel, zygote, spawn_children[0]).unwrap();
    println!("  audit of worker 0:\n{}", indent(&r2.render()));

    println!(
        "the zygote trades {:.0}x faster worker creation for zero ASLR diversity —\n\
         exactly the trade the paper calls out.\n",
        spawn_cost as f64 / fork_cost.max(1) as f64
    );

    // ---- E15 in miniature: an open-loop service burst ------------------
    // Independent streams for arrivals and path choice, exactly like the
    // full experiment: forking the RNG keeps the arrival schedule fixed
    // even if the mix (or the serving code) changes.
    let mut seed_rng = Rng::seed_from_u64(42);
    let mut arrival_rng = seed_rng.fork_stream();
    let mut mix_rng = seed_rng.fork_stream();

    // Precompute the Poisson arrival times (exponential gaps).
    let mut arrivals = Vec::with_capacity(REQUESTS);
    let mut t = 0u64;
    for _ in 0..REQUESTS {
        let gap = -(1.0 - arrival_rng.gen_f64()).ln() * MEAN_GAP_CYCLES + 1.0;
        t += gap as u64;
        arrivals.push(t);
    }

    // Weighted path mix 3:2:1 — fork-from-zygote, posix_spawn, vfork+exec.
    let paths: [(&str, u32); 3] = [("fork(zygote)", 3), ("posix_spawn", 2), ("vfork+exec", 1)];
    let total_weight: u64 = paths.iter().map(|&(_, w)| w as u64).sum();
    let mut hists: Vec<(&str, Histogram)> =
        paths.iter().map(|&(l, _)| (l, Histogram::default())).collect();

    let mut clock = 0u64;
    let mut max_queue_wait = 0u64;
    for &arrival in &arrivals {
        // Open loop: the server sits idle until the next arrival, but a
        // request that arrives while we are still serving must queue.
        if clock < arrival {
            clock = arrival;
        }
        max_queue_wait = max_queue_wait.max(clock - arrival);

        // Draw the creation path from the weighted mix.
        let mut pick = mix_rng.gen_below(total_weight) as u32;
        let mut which = 0;
        for (i, &(_, w)) in paths.iter().enumerate() {
            if pick < w {
                which = i;
                break;
            }
            pick -= w;
        }

        // Serve: create the child, let it exit, reap it. The measured
        // cycles are the request's creation-to-exit service latency.
        let ((), service) = os.measure(|os| {
            let child = match which {
                0 => os.fork(zygote).unwrap(),
                1 => os
                    .spawn(zygote, "/bin/server", &[], &SpawnAttrs::default())
                    .unwrap(),
                _ => os.vfork_exec(zygote, "/bin/server").unwrap(),
            };
            os.kernel.exit(child, 0).unwrap();
            os.kernel.waitpid(zygote, Some(child)).unwrap();
        });
        clock += service;
        hists[which].1.record(service);
    }

    let sustained = REQUESTS as f64 / (clock as f64 / CYCLES_PER_US as f64);
    println!(
        "service burst: {REQUESTS} open-loop requests over {:.1} us ({:.2} req/us sustained)",
        clock as f64 / CYCLES_PER_US as f64,
        sustained
    );
    for (label, hist) in &hists {
        if hist.count == 0 {
            continue;
        }
        println!(
            "  {label:>12}: {:>2} served, p50 {:.2} us, p99 {:.2} us",
            hist.count,
            hist.p50() as f64 / CYCLES_PER_US as f64,
            hist.p99() as f64 / CYCLES_PER_US as f64,
        );
    }
    println!(
        "  worst queue wait {:.2} us — the open loop's cost of slow creation paths;\n\
         the full E15 ({} requests, 5 paths, autoscaling, degradation arm) is\n\
         `cargo run -p fpr-bench --bin run_all -- fig_service`.",
        max_queue_wait as f64 / CYCLES_PER_US as f64,
        320
    );
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect()
}
