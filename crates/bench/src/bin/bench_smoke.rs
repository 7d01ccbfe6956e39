//! Non-timing bench smoke for `make verify`: the eight `BENCH_*.json`
//! snapshots at the repo root. Each block re-runs one experiment's
//! scenario, asserts the hard guarantees that experiment stands for, and
//! snapshots its deterministic cycle counts — so the perf trajectory of
//! the hot paths is tracked in-repo and `make bench-identity` can gate
//! it byte for byte. The figures and tables themselves are `run_all`'s
//! business (and `make results-identity`'s).

use forkroad_core::experiments::service::{self, CreationPath};
use forkroad_core::experiments::spawn_fastpath::{self, Mode};
use forkroad_core::experiments::{fig1, pressure, smp, smp_faults};
use forkroad_core::{Os, OsConfig};
use fpr_api::SpawnAttrs;
use fpr_mem::ForkMode;
use fpr_trace::ProcessShape;

const FOOTPRINT: u64 = 4_096;
const SEEDS: [u64; 5] = [11, 23, 42, 77, 91];

/// Median of a seed-parameterised measurement across the ASLR seed set.
fn median_over_seeds(f: impl Fn(u64) -> u64) -> u64 {
    let mut samples: Vec<u64> = SEEDS.iter().map(|&seed| f(seed)).collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median simulated cycles of `op` across the ASLR seed set.
fn median_cycles(op: impl Fn(&mut Os, fpr_kernel::Pid)) -> u64 {
    let mut samples: Vec<u64> = SEEDS
        .iter()
        .map(|&seed| {
            let mut os = Os::boot(OsConfig {
                machine: fig1::machine_for(FOOTPRINT),
                seed,
                ..Default::default()
            });
            let parent = os.make_parent(ProcessShape::with_heap(FOOTPRINT)).expect("fits");
            let ((), cycles) = os.measure(|os| op(os, parent));
            cycles
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    println!("=== bench smoke: BENCH_*.json snapshots ===\n");

    // E12 snapshot: the pressure storm tracked in-repo. The shrinker arm
    // absorbing the whole storm with zero OOM kills is a hard guarantee
    // of the memory-pressure subsystem, so the smoke asserts it — a
    // regression here fails `make verify`, not a reader of the figure.
    let (with, without) = pressure::run_pair();
    assert_eq!(
        with.oom_victims.len(),
        0,
        "pressure storm with shrinkers must not OOM-kill (victims: {:?})",
        with.oom_victims
    );
    assert!(
        !without.oom_victims.is_empty(),
        "shrinker-less baseline must show the OOM failure mode"
    );
    let mut json = String::from("{\n");
    json.push_str("  \"id\": \"BENCH_pressure\",\n");
    json.push_str(&format!("  \"storm_pages\": {},\n", with.touched_pages));
    json.push_str(&format!(
        "  \"shrinkers\": {{\"oom_kills\": {}, \"reclaim_passes\": {}, \"frames_reclaimed\": {}, \
         \"stall_cycles\": {}, \"spawn_cycles\": [{}, {}, {}]}},\n",
        with.oom_victims.len(),
        with.reclaim_passes,
        with.frames_reclaimed,
        with.stall_cycles,
        with.spawn_before,
        with.spawn_during,
        with.spawn_after
    ));
    json.push_str(&format!(
        "  \"baseline\": {{\"oom_kills\": {}, \"pinned_frames_at_first_kill\": {}}}\n",
        without.oom_victims.len(),
        without.pinned_frames_at_first_kill
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_pressure.json", &json).expect("write BENCH_pressure.json");
    println!(
        "\n# BENCH_pressure — storm of {} pages: {} kills with shrinkers \
         ({} frames reclaimed), {} kills without",
        with.touched_pages,
        with.oom_victims.len(),
        with.frames_reclaimed,
        without.oom_victims.len()
    );
    println!("[saved BENCH_pressure.json]");

    // E13 snapshot: the swap tier below the shrinkers. The swap arm
    // absorbing 1.5x physical memory with zero OOM kills is the PR's
    // hard guarantee — the killer is a last resort, not the first
    // response — so the smoke asserts it, along with the thrash signal
    // the refault loop provokes on purpose.
    let (with, without) = pressure::run_swap_pair();
    assert_eq!(
        with.oom_victims.len(),
        0,
        "swap storm must absorb without OOM kills (victims: {:?})",
        with.oom_victims
    );
    assert!(
        with.touched_pages > pressure::STORM_FRAMES,
        "swap arm must dirty more pages than physical memory"
    );
    assert!(with.thrash_seen, "refault loop must assert the thrash signal");
    assert!(
        !without.oom_victims.is_empty(),
        "swapless baseline must show the OOM failure mode"
    );
    let mut json = String::from("{\n");
    json.push_str("  \"id\": \"BENCH_swap\",\n");
    json.push_str(&format!("  \"storm_pages\": {},\n", with.touched_pages));
    json.push_str(&format!(
        "  \"swap\": {{\"oom_kills\": {}, \"swap_outs\": {}, \"swap_ins\": {}, \
         \"refaults\": {}, \"peak_slots_used\": {}, \"stall_cycles\": {}, \"thrashed\": {}}},\n",
        with.oom_victims.len(),
        with.swap_outs,
        with.swap_ins,
        with.refaults,
        with.peak_slots_used,
        with.stall_cycles,
        with.thrash_seen
    ));
    json.push_str(&format!(
        "  \"baseline\": {{\"oom_kills\": {}, \"survivors\": {}}}\n",
        without.oom_victims.len(),
        without.survivors
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_swap.json", &json).expect("write BENCH_swap.json");
    println!(
        "# BENCH_swap — storm of {} pages on {} frames: {} kills with swap \
         ({} swap-outs, {} refaults), {} kills without",
        with.touched_pages,
        pressure::STORM_FRAMES,
        with.oom_victims.len(),
        with.swap_outs,
        with.refaults,
        without.oom_victims.len()
    );
    println!("[saved BENCH_swap.json]");

    // API × mode cycle medians: the machine-tracked perf snapshot.
    let entries: Vec<(&str, &str, u64)> = vec![
        (
            "fork",
            "cow",
            median_cycles(|os, p| {
                os.fork_stats(p, ForkMode::Cow).expect("fork");
            }),
        ),
        (
            "fork",
            "eager",
            median_cycles(|os, p| {
                os.fork_stats(p, ForkMode::Eager).expect("fork");
            }),
        ),
        (
            "fork",
            "ondemand",
            median_cycles(|os, p| {
                os.fork_stats(p, ForkMode::OnDemand).expect("fork");
            }),
        ),
        (
            "vfork",
            "share",
            median_cycles(|os, p| {
                os.vfork(p).expect("vfork");
            }),
        ),
        (
            "posix_spawn",
            "fresh",
            median_cycles(|os, p| {
                os.spawn(p, "/bin/tool", &[], &SpawnAttrs::default()).expect("spawn");
            }),
        ),
    ];

    let mut json = String::from("{\n");
    json.push_str("  \"id\": \"BENCH_fork_modes\",\n");
    json.push_str(&format!("  \"footprint_pages\": {FOOTPRINT},\n"));
    json.push_str(&format!("  \"aslr_seeds\": {},\n", SEEDS.len()));
    json.push_str("  \"median_cycles\": [\n");
    for (i, (api, mode, cycles)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"api\": \"{api}\", \"mode\": \"{mode}\", \"cycles\": {cycles}}}{comma}\n"
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_fork_modes.json", &json).expect("write BENCH_fork_modes.json");

    println!("\n# BENCH_fork_modes — median cycles per API x mode (fp={FOOTPRINT} pages)");
    for (api, mode, cycles) in &entries {
        println!("{:<24} {cycles:>10}", format!("{api}/{mode}"));
    }
    println!("[saved BENCH_fork_modes.json]");

    // The snapshot must show the PR's point: on-demand fork is in the
    // flat class (vfork/spawn), not the page-proportional one.
    let get = |a: &str, m: &str| {
        entries
            .iter()
            .find(|(x, y, _)| *x == a && *y == m)
            .map(|(_, _, c)| *c)
            .unwrap()
    };
    assert!(
        get("fork", "ondemand") * 5 < get("fork", "cow"),
        "on-demand fork must be far below COW fork at {FOOTPRINT} pages"
    );

    // E11 snapshot: the spawn fast path tracked alongside the fork
    // modes, per footprint (the 4 GiB point lives in the core tests —
    // the smoke keeps the sweep short).
    let fp_sweep: [u64; 3] = [256, 4_096, 65_536];
    let fast_entries: Vec<(u64, &str, u64)> = fp_sweep
        .iter()
        .flat_map(|&fp| {
            [
                (
                    fp,
                    "posix_spawn",
                    median_over_seeds(|s| spawn_fastpath::measure_spawn_seeded(Mode::Plain, fp, s)),
                ),
                (
                    fp,
                    "spawn(cache)",
                    median_over_seeds(|s| spawn_fastpath::measure_spawn_seeded(Mode::Cache, fp, s)),
                ),
                (
                    fp,
                    "spawn(cache+pool)",
                    median_over_seeds(|s| {
                        spawn_fastpath::measure_spawn_seeded(Mode::CachePool, fp, s)
                    }),
                ),
                (
                    fp,
                    "fork(ondemand)",
                    median_over_seeds(|s| spawn_fastpath::measure_odf_seeded(fp, s)),
                ),
            ]
        })
        .collect();

    let mut json = String::from("{\n");
    json.push_str("  \"id\": \"BENCH_spawn_fastpath\",\n");
    json.push_str(&format!("  \"aslr_seeds\": {},\n", SEEDS.len()));
    json.push_str("  \"median_cycles\": [\n");
    for (i, (fp, api, cycles)) in fast_entries.iter().enumerate() {
        let comma = if i + 1 == fast_entries.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"footprint_pages\": {fp}, \"api\": \"{api}\", \"cycles\": {cycles}}}{comma}\n"
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_spawn_fastpath.json", &json).expect("write BENCH_spawn_fastpath.json");

    println!("\n# BENCH_spawn_fastpath — median cycles per api x footprint");
    for (fp, api, cycles) in &fast_entries {
        println!("{:<28} {cycles:>10}", format!("{api}@{fp}p"));
    }
    println!("[saved BENCH_spawn_fastpath.json]");

    // The E11 ordering at the reference footprint: the cached+pooled
    // spawn beats every fork flavour, and the fork flavours keep their
    // established order.
    let fast = |api: &str| {
        fast_entries
            .iter()
            .find(|(fp, a, _)| *fp == FOOTPRINT && *a == api)
            .map(|(_, _, c)| *c)
            .unwrap()
    };
    let order = [
        ("spawn(cache+pool)", fast("spawn(cache+pool)")),
        ("fork(ondemand)", get("fork", "ondemand")),
        ("fork(cow)", get("fork", "cow")),
        ("fork(eager)", get("fork", "eager")),
    ];
    for pair in order.windows(2) {
        assert!(
            pair[0].1 <= pair[1].1,
            "E11 ordering violated at {FOOTPRINT} pages: {} ({}) > {} ({})",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }
    println!(
        "E11 ordering holds at {FOOTPRINT} pages: \
         spawn(cache+pool) <= fork(ondemand) <= fork(cow) <= fork(eager)"
    );

    // E14 snapshot: transparent huge pages at a fully promotable 4 GiB
    // heap. Three hard guarantees tracked in-repo: fork(OnDemand+THP)
    // never exceeds fork(OnDemand); the fork's page-table term (PTE
    // copies + subtree shares) collapses by >=100x, because whole huge
    // directories share with one pointer copy; and tearing the heap down
    // flushes >=100x fewer TLB entries, because a huge block invalidates
    // as one ranged entry instead of 512. The small-page world's legacy
    // shootdown is a broadcast with no per-entry accounting, so its
    // entry count is the released page count — every per-page
    // translation the region held.
    let fp_thp: u64 = 1_048_576;
    let cost = fpr_mem::CostModel::default();
    let probe = |thp: bool| -> (u64, u64, u64, u64) {
        let boot = || {
            Os::boot(OsConfig {
                machine: fpr_kernel::MachineConfig {
                    thp,
                    ..fig1::machine_for(fp_thp)
                },
                ..Default::default()
            })
        };
        let mut os = boot();
        let parent = os.make_parent(ProcessShape::with_heap(fp_thp)).expect("fits");
        let huge_blocks = os.kernel.process(parent).unwrap().aspace.huge_pages();
        let before = fpr_trace::metrics::snapshot();
        let (_, fork_cycles) = os.measure(|os| {
            os.fork_stats(parent, ForkMode::OnDemand).expect("fork");
        });
        let d = fpr_trace::metrics::snapshot().delta(&before);
        let pt_term = d.counter("mem.fork.pte_copy") * cost.pte_copy
            + d.counter("mem.fork.pt_subtree_share") * cost.pt_subtree_share;

        let mut os = boot();
        let parent = os.make_parent(ProcessShape::with_heap(fp_thp)).expect("fits");
        let heap: Vec<(fpr_mem::Vpn, u64)> = os
            .kernel
            .process(parent)
            .unwrap()
            .aspace
            .vmas()
            .filter(|v| v.kind == fpr_mem::VmaKind::Mmap)
            .map(|v| (v.start, v.pages))
            .collect();
        let before = fpr_trace::metrics::snapshot();
        let mut released = 0;
        for (start, pages) in heap {
            os.kernel.munmap(parent, start, pages).expect("munmap");
            released += pages;
        }
        let d = fpr_trace::metrics::snapshot().delta(&before);
        let entries = if thp {
            d.counter("mem.tlb.entries_flushed")
        } else {
            released
        };
        (fork_cycles, pt_term, entries, huge_blocks)
    };
    let (small_fork, small_pt, small_entries, small_blocks) = probe(false);
    let (thp_fork, thp_pt, thp_entries, thp_blocks) = probe(true);
    assert_eq!(small_blocks, 0, "THP-off world must stay small-paged");
    assert_eq!(
        thp_blocks,
        fp_thp / 512,
        "4 GiB heap must be fully promoted under THP"
    );
    assert!(
        thp_fork <= small_fork,
        "fork(OnDemand+THP) {thp_fork} must not exceed fork(OnDemand) {small_fork}"
    );
    assert!(
        small_pt >= 100 * thp_pt.max(1),
        "THP must shrink the fork page-table term >=100x: {small_pt} vs {thp_pt}"
    );
    assert!(
        small_entries >= 100 * thp_entries.max(1),
        "THP must shrink unmap shootdown entries >=100x: {small_entries} vs {thp_entries}"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"id\": \"BENCH_thp\",\n");
    json.push_str(&format!("  \"footprint_pages\": {fp_thp},\n"));
    json.push_str(&format!(
        "  \"fork_ondemand\": {{\"cycles\": {small_fork}, \"pt_term_cycles\": {small_pt}}},\n"
    ));
    json.push_str(&format!(
        "  \"fork_ondemand_thp\": {{\"cycles\": {thp_fork}, \"pt_term_cycles\": {thp_pt}, \
         \"huge_blocks\": {thp_blocks}}},\n"
    ));
    json.push_str(&format!(
        "  \"unmap_shootdown_entries\": {{\"small\": {small_entries}, \"thp\": {thp_entries}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_thp.json", &json).expect("write BENCH_thp.json");

    println!(
        "\n# BENCH_thp — 4 GiB fully promotable heap ({thp_blocks} blocks): \
         fork {thp_fork} vs {small_fork} cycles, page-table term {thp_pt} vs {small_pt} \
         ({:.0}x), unmap shootdown entries {thp_entries} vs {small_entries} ({:.0}x)",
        small_pt as f64 / thp_pt.max(1) as f64,
        small_entries as f64 / thp_entries.max(1) as f64
    );
    println!("[saved BENCH_thp.json]");

    // E15 snapshot: the open-loop service workload. Two hard guarantees
    // tracked in-repo: at the default offered rate the per-path tail
    // latencies keep the paper's order — spawn(fastpath) < fork(OnDemand)
    // < fork(Cow) at p99 — with zero OOM kills; and the degradation arm
    // shows the pool draining to empty under pressure, the next spawn
    // falling back to the cycle-identical classic path, and the pool
    // recovering once the storm lifts, still with zero kills.
    let outcome = service::run_service(&service::ServiceConfig::default());
    assert_eq!(
        outcome.oom_kills, 0,
        "service workload at the default rate must not OOM-kill"
    );
    let p99 = |p: CreationPath| outcome.stats(p).hist.p99();
    assert!(
        p99(CreationPath::SpawnFast) < p99(CreationPath::ForkOnDemand),
        "p99(spawn fastpath) {} must beat p99(fork OnDemand) {}",
        p99(CreationPath::SpawnFast),
        p99(CreationPath::ForkOnDemand)
    );
    assert!(
        p99(CreationPath::ForkOnDemand) < p99(CreationPath::ForkCow),
        "p99(fork OnDemand) {} must beat p99(fork Cow) {}",
        p99(CreationPath::ForkOnDemand),
        p99(CreationPath::ForkCow)
    );

    let d = service::run_degradation();
    assert_eq!(d.oom_kills, 0, "degradation arm must not OOM-kill");
    assert!(
        d.pool_parked[0] > 0 && d.pool_parked[1] == 0 && d.pool_parked[2] > 0,
        "pool must drain under pressure and recover: parked {:?}",
        d.pool_parked
    );
    let fallback_ratio = d.spawn_latency[1] as f64 / d.classic_reference as f64;
    assert!(
        (0.9..=1.1).contains(&fallback_ratio),
        "drained-pool spawn must cost the classic path: {} vs reference {} (ratio {:.3})",
        d.spawn_latency[1],
        d.classic_reference,
        fallback_ratio
    );
    assert!(
        d.spawn_latency[2] < d.spawn_latency[1],
        "recovered spawn {} must beat the degraded spawn {}",
        d.spawn_latency[2],
        d.spawn_latency[1]
    );

    let mut json = String::from("{\n");
    json.push_str("  \"id\": \"BENCH_service\",\n");
    json.push_str(&format!("  \"requests\": {},\n", outcome.completed));
    json.push_str(&format!(
        "  \"offered_rate_per_s\": {:.0},\n  \"sustained_rate_per_s\": {:.0},\n",
        outcome.config.offered_rate, outcome.sustained_rate
    ));
    json.push_str(&format!("  \"oom_kills\": {},\n", outcome.oom_kills));
    json.push_str("  \"per_path_cycles\": [\n");
    for (i, st) in outcome.per_path.iter().enumerate() {
        let comma = if i + 1 == outcome.per_path.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"path\": \"{}\", \"served\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}{comma}\n",
            st.path.label(),
            st.served,
            st.hist.p50(),
            st.hist.p95(),
            st.hist.p99()
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"degradation\": {{\"spawn_cycles\": [{}, {}, {}], \"pool_parked\": [{}, {}, {}], \
         \"classic_reference_cycles\": {}, \"oom_kills\": {}}}\n",
        d.spawn_latency[0],
        d.spawn_latency[1],
        d.spawn_latency[2],
        d.pool_parked[0],
        d.pool_parked[1],
        d.pool_parked[2],
        d.classic_reference,
        d.oom_kills
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");

    println!(
        "\n# BENCH_service — {} requests at {:.0}/s: p99 spawn {} < ondemand {} < cow {} cycles, \
         {} kills; degradation pool {} -> {} -> {} with spawn {} -> {} -> {} cycles",
        outcome.completed,
        outcome.config.offered_rate,
        p99(CreationPath::SpawnFast),
        p99(CreationPath::ForkOnDemand),
        p99(CreationPath::ForkCow),
        outcome.oom_kills,
        d.pool_parked[0],
        d.pool_parked[1],
        d.pool_parked[2],
        d.spawn_latency[0],
        d.spawn_latency[1],
        d.spawn_latency[2]
    );
    println!("[saved BENCH_service.json]");

    // E16 snapshot: fork's multicore scaling collapse, on real OS
    // threads over the virtual clock. Hard guarantees tracked in-repo:
    // fork against private mm state scales (>= 2x at 4 threads), the
    // spawn fast path scales strictly better than fork sharing one mm,
    // contention counters fire only under multicore arms, and no run
    // leaves a structural violation behind.
    let smp_out = smp::run_with(&[1, 2, 4]);
    let smp_shared = smp_out.speedup("fork_cow_shared", 4);
    let smp_private = smp_out.speedup("fork_cow_private", 4);
    let smp_spawn = smp_out.speedup("spawn_fast", 4);
    assert!(
        smp_private >= 2.0,
        "private-mm fork must reach 2x at 4 threads: {smp_private:.2}"
    );
    assert!(
        smp_spawn > smp_shared,
        "spawn fastpath must outscale shared-mm fork: {smp_spawn:.2} vs {smp_shared:.2}"
    );
    for arm in ["fork_cow_shared", "fork_cow_private", "spawn_fast"] {
        assert_eq!(
            smp_out.contended(arm, 1),
            0,
            "{arm}: one thread must never contend"
        );
    }
    let smp_hot = smp_out.point("fork_cow_shared", 4).expect("shared point");
    let mm_stats = smp_hot.contention.get("mm").expect("mm lock stats");
    assert!(
        mm_stats.contended_acquires > 0,
        "shared-mm arm at 4 threads must contend on mm"
    );
    assert!(
        smp_out.points.iter().all(|p| p.violations == 0),
        "no SMP arm may leave structural violations"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"id\": \"BENCH_smp\",\n");
    json.push_str(&format!(
        "  \"ops_per_worker\": {},\n",
        smp::OPS_PER_WORKER
    ));
    json.push_str("  \"arms\": [\n");
    for (i, p) in smp_out.points.iter().enumerate() {
        let comma = if i + 1 == smp_out.points.len() { "" } else { "," };
        let contended: u64 = p.contention.values().map(|s| s.contended_acquires).sum();
        let waited: u64 = p.contention.values().map(|s| s.wait_cycles).sum();
        json.push_str(&format!(
            "    {{\"arm\": \"{}\", \"threads\": {}, \"ops\": {}, \"wall_cycles\": {}, \
             \"throughput_ops_per_ms\": {:.2}, \"contended_acquires\": {contended}, \
             \"wait_cycles\": {waited}, \"violations\": {}}}{comma}\n",
            p.arm, p.threads, p.ops, p.wall_cycles, p.throughput, p.violations
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_at_4_threads\": {{\"fork_cow_shared\": {smp_shared:.2}, \
         \"fork_cow_private\": {smp_private:.2}, \"spawn_fast\": {smp_spawn:.2}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_smp.json", &json).expect("write BENCH_smp.json");

    println!(
        "\n# BENCH_smp — 4-thread speedup: shared fork {smp_shared:.2}x (mm contended {}), \
         private fork {smp_private:.2}x, spawn fastpath {smp_spawn:.2}x",
        mm_stats.contended_acquires
    );
    println!("[saved BENCH_smp.json]");

    // E17 snapshot: concurrent fault injection and cell fail-stop. Hard
    // guarantees tracked in-repo: every fault injected during the
    // 4-thread storm is contained (the arm panics at quiesce otherwise),
    // the documented mm -> pid -> buddy -> tlb lock order sees zero
    // violations across both arms, and fail_cell recovers the machine to
    // a clean N-1 quiesce with zero leaked frames or PIDs and the OOM
    // lease broken.
    let e17 = smp_faults::run();
    assert!(
        e17.sweep.injected_ops > 0,
        "the concurrent sweep must inject"
    );
    assert!(
        e17.sweep.sites_injected() >= 5,
        "injection must spread across the creation surface: {} sites",
        e17.sweep.sites_injected()
    );
    assert_eq!(
        e17.sweep.order_violations, 0,
        "lock-order violations under concurrent injection"
    );
    assert_eq!(
        e17.failstop.live_cells,
        smp_faults::THREADS - 1,
        "fail-stop must degrade to exactly N-1 live cells"
    );
    assert!(
        e17.failstop.failure.lease_was_stuck,
        "the fail-stop arm must exercise the stuck-lease worst case"
    );
    assert!(
        e17.failstop.ops_after_failure > 0,
        "survivors must keep working after the failure"
    );
    assert_eq!(
        e17.failstop.order_violations, 0,
        "lock-order violations through fail-stop recovery"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"id\": \"BENCH_faults_smp\",\n");
    json.push_str(&format!(
        "  \"threads\": {},\n  \"ops_per_worker\": {},\n  \"inject_per_1024\": {},\n",
        smp_faults::THREADS,
        smp_faults::OPS_PER_WORKER,
        smp_faults::INJECT_PER_1024
    ));
    json.push_str(&format!(
        "  \"sweep\": {{\"ops\": {}, \"injected_ops\": {}, \"sites_crossed\": {}, \
         \"sites_injected\": {}, \"order_violations\": {}, \"contained\": true}},\n",
        e17.sweep.ops,
        e17.sweep.injected_ops,
        e17.sweep.sites_crossed(),
        e17.sweep.sites_injected(),
        e17.sweep.order_violations
    ));
    json.push_str(&format!(
        "  \"fail_stop\": {{\"site\": \"{}\", \"evacuated\": {}, \"lease_was_stuck\": {}, \
         \"ops_after_failure\": {}, \"live_cells\": {}, \"order_violations\": {}, \
         \"clean_quiesce\": true}}\n",
        e17.failstop.failure.site.name(),
        e17.failstop.failure.evacuated,
        e17.failstop.failure.lease_was_stuck,
        e17.failstop.ops_after_failure,
        e17.failstop.live_cells,
        e17.failstop.order_violations
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_faults_smp.json", &json).expect("write BENCH_faults_smp.json");

    println!(
        "\n# BENCH_faults_smp — sweep: {}/{} ops injected over {} sites (0 order violations); \
         fail-stop: cell 0 died at {}, {} evacuated, {} live cells, clean quiesce",
        e17.sweep.injected_ops,
        e17.sweep.ops,
        e17.sweep.sites_injected(),
        e17.failstop.failure.site.name(),
        e17.failstop.failure.evacuated,
        e17.failstop.live_cells
    );
    println!("[saved BENCH_faults_smp.json]");
    println!("\n=== bench smoke OK ===");
}
