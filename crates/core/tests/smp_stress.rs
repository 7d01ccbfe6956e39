//! Seeded multithread stress: N real OS threads hammer the SMP machine
//! with a random mix of fork/vfork/spawn/exec ops, then the whole
//! machine must quiesce clean — every cell's invariants hold, nothing
//! leaked, and every frame is back in the shared pool or accounted to a
//! cell. Plus the determinism regressions the one-machine design rests
//! on: the single-threaded E15 service figure replays byte-identical to
//! the checked-in seed results, and a one-cell SMP machine — whose cell
//! parks the frames it frees, as every SMP cell does — is
//! indistinguishable from an `Os::boot` world, whose cell parks none.

use forkroad_core::experiments::service;
use forkroad_core::experiments::smp_faults::CREATION_MIX;
use forkroad_core::kit::{smp_machine, world, CreationPath};
use forkroad_core::os::Os;
use forkroad_core::smp::SmpOs;
use fpr_kernel::Pid;
use fpr_mem::ForkMode;
use fpr_rng::Rng;
use fpr_trace::ProcessShape;

const THREADS: usize = 4;
const OPS: usize = 120;
const SEED: u64 = 0xF02C_AD5E;

/// Takes a random child out of `live`, if there is one.
fn pick(rng: &mut Rng, live: &mut Vec<Pid>) -> Option<Pid> {
    (!live.is_empty()).then(|| live.swap_remove(rng.gen_index(live.len())))
}

/// What [`one_cell_smp_is_an_os_boot_world`] walks
/// over: [`CREATION_MIX`] with the fork before the exec taken on demand —
/// nothing else compares an on-demand fork on an SMP cell with an
/// `Os::boot` world.
const DIFFERENTIAL_MIX: [CreationPath; 4] = [
    CreationPath::Fork(ForkMode::Cow),
    CreationPath::Vfork,
    CreationPath::Spawn("/bin/cat"),
    CreationPath::ForkOnDemand("/bin/grep"),
];

/// One op of a random walk over `parent`'s children: creation number `op`
/// of `mix` or, past its end, the reaping of `victim`. Returns the PID it
/// created, if any. A vfork child borrows the parent's space, so it has
/// given it back already: [`survivor`] says who is still alive.
fn walk_op(
    os: &mut Os,
    parent: Pid,
    mix: &[CreationPath],
    op: usize,
    victim: Option<Pid>,
) -> Option<Pid> {
    let Some(&path) = mix.get(op) else {
        if let Some(victim) = victim {
            os.reap(parent, victim).expect("exit and reap");
        }
        return None;
    };
    let child = os.create(parent, path).expect("creation");
    if path == CreationPath::Vfork {
        os.reap(parent, child).expect("exit and reap");
    }
    Some(child)
}

/// `made` by op `op` of `mix`, unless [`walk_op`] reaped it on the spot.
fn survivor(mix: &[CreationPath], op: usize, made: Option<Pid>) -> Option<Pid> {
    made.filter(|_| mix.get(op) != Some(&CreationPath::Vfork))
}

/// Draws the next op of a walk over a mix of `paths` and, if it is the
/// reaping op, its victim.
fn draw_op(rng: &mut Rng, paths: usize, live: &mut Vec<Pid>) -> (usize, Option<Pid>) {
    let op = rng.gen_index(paths + 1);
    let victim = if op == paths { pick(rng, live) } else { None };
    (op, victim)
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
        let (op, victim) = draw_op(&mut rng, CREATION_MIX.len(), &mut live[cell]);
        let made = walk_op(&mut os, init, &CREATION_MIX, op, victim);
        live[cell].extend(survivor(&CREATION_MIX, op, made));
        // Cap the live set so the storm churns instead of hoarding.
        while live[cell].len() > 8 {
            let victim = pick(&mut rng, &mut live[cell]).expect("non-empty");
            os.reap(init, victim).expect("exit and reap");
        }
    }
    // Quiesce: destroy everything this worker still owns.
    for (cell, pids) in live.into_iter().enumerate() {
        let mut os = smp.cell(cell).lock();
        let init = os.init;
        for c in pids {
            os.reap(init, c).expect("exit and reap");
        }
    }
}

#[test]
fn seeded_multithread_storm_quiesces_clean() {
    let smp = SmpOs::boot(smp_machine(), THREADS);
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
    let got = service::figure(&outcome, &service::run_degradation()).to_value().pretty();
    assert_eq!(
        got, want,
        "E15 must replay byte-identical to the checked-in seed figure; \
         the SMP machinery must stay inert on the single-threaded path"
    );
}

/// The statement that an SMP cell is an `Os::boot` world: every frame
/// costs `frame_alloc` on either, so the frames an SMP cell parks and takes
/// again move nothing the kernel shows — the single cell of a one-cell
/// machine and an `Os::boot` world walk the same seeded op sequence to the
/// same PIDs, the same cycle count after every op, and the same baseline.
#[test]
fn one_cell_smp_is_an_os_boot_world() {
    let shape = ProcessShape::with_heap(64);
    let (mut solo, parent) = world(smp_machine(), shape);
    let smp = SmpOs::boot(smp_machine(), 1);
    let mut cell = smp.cell(0).lock();
    assert_eq!(cell.make_parent(shape).expect("parent fits"), parent);

    let mut rng = Rng::seed_from_u64(SEED);
    let mut live: Vec<Pid> = Vec::new();
    for step in 0..OPS {
        let (op, victim) = draw_op(&mut rng, DIFFERENTIAL_MIX.len(), &mut live);
        let made = walk_op(&mut solo, parent, &DIFFERENTIAL_MIX, op, victim);
        assert_eq!(
            walk_op(&mut cell, parent, &DIFFERENTIAL_MIX, op, victim),
            made,
            "step {step}: op {op} created different pids"
        );
        assert_eq!(
            cell.kernel.cycles.total(),
            solo.kernel.cycles.total(),
            "step {step}: op {op} charged different cycles"
        );
        live.extend(survivor(&DIFFERENTIAL_MIX, op, made));
    }
    assert_eq!(cell.kernel.baseline(), solo.kernel.baseline());
    assert!(solo.kernel.check_invariants().is_ok());
    drop(cell);
    assert!(smp.violations().is_empty(), "{:?}", smp.violations());
}
