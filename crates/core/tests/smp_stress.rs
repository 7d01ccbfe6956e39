//! Seeded multithread stress: N real OS threads hammer the SMP machine
//! with a random mix of fork/vfork/spawn/exec ops, then the whole
//! machine must quiesce clean — every cell's invariants hold, nothing
//! leaked, and every frame is back in the shared pool or accounted to a
//! cell. Plus the determinism regressions the one-machine design rests
//! on: the single-threaded E15 service figure replays byte-identical to
//! the checked-in seed results, and a one-cell SMP machine with its
//! magazine switched off is indistinguishable from an `Os::boot` world.

use forkroad_core::experiments::service;
use forkroad_core::os::{Os, OsConfig};
use forkroad_core::smp::SmpOs;
use fpr_api::SpawnAttrs;
use fpr_kernel::{MachineConfig, Pid};
use fpr_mem::{ForkMode, OvercommitPolicy};
use fpr_rng::Rng;
use fpr_trace::ProcessShape;

const THREADS: usize = 4;
const OPS: usize = 120;
const SEED: u64 = 0xF02C_AD5E;

fn stress_machine() -> MachineConfig {
    MachineConfig {
        frames: 65_536,
        overcommit: OvercommitPolicy::Always,
        ..MachineConfig::default()
    }
}

/// One worker's random walk: mostly on its home cell, sometimes raiding
/// a neighbour's, keeping a small set of live children and reaping them
/// in random order. Everything it creates it destroys.
fn storm(worker: usize, smp: &SmpOs) {
    let mut rng = Rng::seed_from_u64(SEED.wrapping_add(worker as u64));
    // Live children per cell (a child must be reaped through the cell
    // that owns it).
    let mut live: Vec<Vec<Pid>> = vec![Vec::new(); smp.ncells()];
    for _ in 0..OPS {
        let cell = if rng.gen_bool(0.25) {
            rng.gen_index(smp.ncells())
        } else {
            worker % smp.ncells()
        };
        let mut os = smp.cell(cell).lock();
        let init = os.init;
        match rng.gen_index(5) {
            0 => {
                let c = os.fork(init).expect("fork");
                live[cell].push(c);
            }
            1 => {
                // vfork borrows the parent's space; give it back at once.
                let c = os.vfork(init).expect("vfork");
                os.kernel.exit(c, 0).expect("exit");
                os.kernel.waitpid(init, Some(c)).expect("reap");
            }
            2 => {
                let c = os
                    .spawn(init, "/bin/cat", &[], &SpawnAttrs::default())
                    .expect("spawn");
                live[cell].push(c);
            }
            3 => {
                let c = os
                    .fork_exec(init, "/bin/grep", fpr_mem::ForkMode::Cow)
                    .expect("fork_exec");
                live[cell].push(c);
            }
            _ => {
                if !live[cell].is_empty() {
                    let i = rng.gen_index(live[cell].len());
                    let c = live[cell].swap_remove(i);
                    os.kernel.exit(c, 0).expect("exit");
                    os.kernel.waitpid(init, Some(c)).expect("reap");
                }
            }
        }
        // Cap the live set so the storm churns instead of hoarding.
        while live[cell].len() > 8 {
            let i = rng.gen_index(live[cell].len());
            let c = live[cell].swap_remove(i);
            os.kernel.exit(c, 0).expect("exit");
            os.kernel.waitpid(init, Some(c)).expect("reap");
        }
    }
    // Quiesce: destroy everything this worker still owns.
    for (cell, pids) in live.into_iter().enumerate() {
        if pids.is_empty() {
            continue;
        }
        let mut os = smp.cell(cell).lock();
        let init = os.init;
        for c in pids {
            os.kernel.exit(c, 0).expect("exit");
            os.kernel.waitpid(init, Some(c)).expect("reap");
        }
    }
}

#[test]
fn seeded_multithread_storm_quiesces_clean() {
    let smp = SmpOs::boot(
        OsConfig {
            machine: stress_machine(),
            ..Default::default()
        },
        THREADS,
    );
    let elapsed = smp.run(THREADS, storm);
    assert_eq!(elapsed.len(), THREADS);
    assert!(elapsed.iter().all(|&e| e > 0), "every worker did work");
    // check_invariants + leak_check per cell, plus machine-wide frame
    // conservation — the whole point of the exercise.
    smp.check_quiesced();
}

#[test]
fn single_thread_service_replays_byte_identical_to_seed() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fig_service.json"
    );
    let want = std::fs::read_to_string(path).expect("checked-in fig_service.json");
    let outcome = service::run_service(&service::ServiceConfig::default());
    let got = service::figure(&outcome, &service::run_degradation()).to_json();
    assert_eq!(
        got, want,
        "E15 must replay byte-identical to the checked-in seed figure; \
         the SMP machinery must stay inert on the single-threaded path"
    );
}

/// One creation or exit op of the differential sequence; returns the
/// PID it created, if any.
fn differential_op(os: &mut Os, parent: Pid, op: usize, victim: Option<Pid>) -> Option<Pid> {
    match op {
        0 => Some(os.fork(parent).expect("fork")),
        1 => {
            let c = os.vfork(parent).expect("vfork");
            os.kernel.exit(c, 0).expect("exit");
            os.kernel.waitpid(parent, Some(c)).expect("reap");
            Some(c)
        }
        2 => Some(
            os.spawn(parent, "/bin/cat", &[], &SpawnAttrs::default())
                .expect("spawn"),
        ),
        3 => Some(
            os.fork_exec(parent, "/bin/grep", ForkMode::OnDemand)
                .expect("fork_exec"),
        ),
        _ => {
            if let Some(c) = victim {
                os.kernel.exit(c, 0).expect("exit");
                os.kernel.waitpid(parent, Some(c)).expect("reap");
            }
            None
        }
    }
}

/// The statement that the magazine is the *only* difference left between
/// an `Os::boot` world and an SMP cell: switch it off on the single cell
/// of a one-cell machine and the same seeded op sequence yields the same
/// PIDs, the same cycle count after every op, and the same baseline.
#[test]
fn one_cell_smp_without_magazine_is_an_os_boot_world() {
    let cfg = OsConfig {
        machine: stress_machine(),
        ..Default::default()
    };
    let mut solo = Os::boot(cfg.clone());
    let smp = SmpOs::boot(cfg, 1);
    let mut cell = smp.cell(0).lock();
    cell.kernel.phys.disable_frame_cache();

    let shape = ProcessShape::with_heap(64);
    let parent = solo.make_parent(shape).expect("parent fits");
    assert_eq!(cell.make_parent(shape).expect("parent fits"), parent);

    let mut rng = Rng::seed_from_u64(SEED);
    let mut live: Vec<Pid> = Vec::new();
    for step in 0..OPS {
        let op = rng.gen_index(5);
        let victim = if op == 4 && !live.is_empty() {
            Some(live.swap_remove(rng.gen_index(live.len())))
        } else {
            None
        };
        let made = differential_op(&mut solo, parent, op, victim);
        assert_eq!(
            differential_op(&mut cell, parent, op, victim),
            made,
            "step {step}: op {op} created different pids"
        );
        assert_eq!(
            cell.kernel.cycles.total(),
            solo.kernel.cycles.total(),
            "step {step}: op {op} charged different cycles"
        );
        // A vfork child was reaped inside the op; everything else lives on.
        if op != 1 {
            live.extend(made);
        }
    }
    assert_eq!(cell.kernel.baseline(), solo.kernel.baseline());
    assert!(solo.kernel.check_invariants().is_ok());
    drop(cell);
    assert!(smp.violations().is_empty(), "{:?}", smp.violations());
}
