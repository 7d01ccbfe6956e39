//! An Android-style zygote server — and, in miniature, the E15
//! open-loop service workload (`forkroad_core::experiments::service`,
//! [EXPERIMENTS.md](../EXPERIMENTS.md) §E15).
//!
//! The zygote pattern execs one big runtime image and then forks a
//! child per request: fast warm starts, but every child shares one
//! ASLR layout and inherits every descriptor. This example runs the
//! pattern three ways:
//!
//! 1. **Fork a worker per request** — the zygote proper. Reading the
//!    workers shows the damage: all worker pairs share the complete
//!    layout (zero residual entropy — leak one child, own them all) and
//!    the private-key descriptor, close-on-exec or not, is open in every
//!    one.
//! 2. **Spawn a worker per request** — the fix. A fresh ASLR draw per
//!    worker, and exec closes the key, at the cost of rebuilding each
//!    child from scratch.
//! 3. **An open-loop service burst** — E15 in miniature: 24 Poisson
//!    arrivals, each served by a short-lived child created one of three
//!    ways, through the same workload kit the full experiment is built
//!    from (`forkroad::kit`: a request, an arrival stream, an open loop —
//!    [docs/ARCHITECTURE.md](../docs/ARCHITECTURE.md#the-workload-kit)
//!    says what each is). The full E15 adds two creation paths,
//!    warm-pool autoscaling and a degradation arm:
//!    `cargo run -p fpr-bench --bin run_all -- fig_service`.
//!
//! Run with: `cargo run --example zygote_server`

use forkroad::api::SpawnAttrs;
use forkroad::audit::{zygote_entropy, MAX_LAYOUT_BITS};
use forkroad::exec::shared_bits;
use forkroad::kernel::{Fd, OpenFlags, Pid};
use forkroad::kit::{arrivals, open_loop, CreationPath, Work};
use forkroad::mem::{ForkMode, CYCLES_PER_US};
use forkroad::{Os, OsConfig};

const WORKERS: usize = 8;
/// Requests in the mini service burst.
const REQUESTS: usize = 24;
/// Mean arrival gap: one request every ~4 us (≈250 k req/s offered).
const MEAN_GAP_CYCLES: f64 = 4.0 * CYCLES_PER_US as f64;
/// Weighted path mix 3:2:1 — fork-from-zygote, posix_spawn, vfork+exec.
const MIX: [(CreationPath, u32); 3] = [
    (CreationPath::Fork(ForkMode::Cow), 3),
    (CreationPath::Spawn("/bin/server"), 2),
    (CreationPath::VforkExec("/bin/server"), 1),
];

fn main() {
    let mut os = Os::boot(OsConfig::default());
    let init = os.init;

    // Boot the zygote: one heavyweight runtime image, warmed up.
    let zygote = os
        .spawn(init, "/bin/server", &[], &SpawnAttrs::default())
        .unwrap();
    // The zygote holds a private key file — a descriptor workers must not
    // see. It is opened close-on-exec, as careful code does.
    let key = os
        .kernel
        .open(zygote, "/private_key", OpenFlags::RDWR, true)
        .unwrap();
    os.kernel.set_cloexec(zygote, key, true).unwrap();
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
    println!("  {}\n", inherited(&os, zygote, key, fork_children[0]));

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
    println!("  {}\n", inherited(&os, zygote, key, spawn_children[0]));

    println!(
        "the zygote trades {:.0}x faster worker creation for zero ASLR diversity —\n\
         exactly the trade the paper calls out.\n",
        spawn_cost as f64 / fork_cost.max(1) as f64
    );

    // ---- E15 in miniature: an open-loop service burst ------------------
    // Open loop: arrivals do not care how long service takes, so a slow
    // creation path builds queue. Each request's service latency is the
    // cycles of create → exit → reap.
    let script = arrivals(42, REQUESTS, MEAN_GAP_CYCLES, &MIX);
    let burst = open_loop(&MIX, &script, |_, path| {
        let request = os.serve(zygote, path, Work::Nothing);
        (0, request.unwrap().total())
    });

    let us = |cycles: u64| cycles as f64 / CYCLES_PER_US as f64;
    println!(
        "service burst: {REQUESTS} open-loop requests over {:.1} us ({:.2} req/us sustained)",
        us(burst.makespan_cycles),
        burst.sustained_rate() / 1e6
    );
    for st in &burst.per_path {
        println!(
            "  {:>15}: {:>2} served, p50 {:.2} us, p99 {:.2} us",
            st.path.label(),
            st.served,
            us(st.hist.p50()),
            us(st.hist.p99()),
        );
    }
    println!(
        "  worst sojourn {:.2} us, of which queueing is the open loop's cost of slow\n\
         creation paths; the full E15 (320 requests, 5 paths, autoscaling, degradation\n\
         arm) is `cargo run -p fpr-bench --bin run_all -- fig_service`.",
        us(burst.sojourn.max)
    );
}

/// What `worker` holds of the zygote: the layout bits the two share, and
/// whether the zygote's private-key description is open in the worker.
fn inherited(os: &Os, zygote: Pid, key: Fd, worker: Pid) -> String {
    let (z, w) = (os.kernel.process(zygote).unwrap(), os.kernel.process(worker).unwrap());
    let key = z.fds.get(key).unwrap().ofd;
    let leaked = w.fds.iter().any(|(_, entry)| entry.ofd == key);
    format!(
        "worker 0 shares {}/{MAX_LAYOUT_BITS} layout bits with the zygote; private key open in it: {leaked}",
        shared_bits(&z.layout, &w.layout)
    )
}
