//! The process table against a flat model.
//!
//! Random scripts run on a `kit::world` of 64 PIDs with the spawn fast
//! path off: create (through every [`CreationPath`] but a bare vfork, whose
//! child would keep its parent parked), `Kernel::exit`, `kill(pid,
//! SIGKILL)` and `waitpid(parent, Some(child) | None)`, each parent drawn
//! from the live processes. Beside the kernel runs a model a few lines
//! long: a map from PID to parent, children in order and exit status, and
//! the one-shard PID rule written out — the next PID after the last one
//! handed out, skipping PIDs still held (zombies hold theirs), wrapping at
//! `max_pids`. Exit hands the dying process's children to init, appended
//! in their order; a signal's death is `128 +` its POSIX number.
//!
//! After every step the PID each create returned, `Kernel::pids()`,
//! `process_count()`, every process's parent, children (in order) and
//! zombie status, and the verdict of every `kill` and `waitpid` must
//! agree, and so must the live processes the kernel books to uid 0. The
//! model is never read from the kernel; only what a step returns and what
//! the table then shows are compared. Guards make sure
//! the runs between them wrap past `max_pids`, reuse a freed PID, refuse a
//! create at a full table, reparent a child to init and reap with
//! `waitpid(None)` while several zombies wait. At the end of each script
//! every process exits, and then nothing may stay held: no frame, page of
//! commit charge, pipe or open file description.

use forkroad_core::kit::{machine_for, world_seeded, CreationPath};
use forkroad_core::os::Os;
use fpr_kernel::{Errno, MachineConfig, Pid, ProcState, Sig};
use fpr_mem::ForkMode;
use fpr_rng::Rng;
use fpr_trace::ProcessShape;
use std::collections::{BTreeMap, BTreeSet};

const MAX_PIDS: u32 = 64;
const INIT: Pid = Pid(1);
const RUNS: u64 = 96;
const STEPS: usize = 160;
const BIN: &str = "/bin/sh";

/// Every way the kit creates a child whose parent runs on afterwards.
const PATHS: [CreationPath; 8] = [
    CreationPath::Spawn(BIN),
    CreationPath::ForkOnDemand(BIN),
    CreationPath::ForkCow(BIN),
    CreationPath::VforkExec(BIN),
    CreationPath::Xproc(BIN),
    CreationPath::Fork(ForkMode::Cow),
    CreationPath::Fork(ForkMode::Eager),
    CreationPath::Fork(ForkMode::OnDemand),
];

/// Exit status of a process SIGKILL ends: 128 + 9.
const KILLED: i32 = 137;

/// One process of the model.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    ppid: Pid,
    children: Vec<Pid>,
    /// `Some` once the process has exited and until it is reaped.
    status: Option<i32>,
}

/// The process table as a map, and the PID rule as a cursor.
struct Model {
    procs: BTreeMap<Pid, Entry>,
    /// The PID handed out last.
    last: u32,
}

/// How often the runs reached what they must reach between them.
#[derive(Debug, Default)]
struct Seen {
    wrapped: u32,
    reused: u32,
    refused_full: u32,
    reparented: u32,
    reaped_among_zombies: u32,
}

impl Model {
    /// A world: init (its own parent) and the kit's parent, PID 2.
    fn world() -> Model {
        let entry = |ppid, children| Entry { ppid, children, status: None };
        let procs = BTreeMap::from([(INIT, entry(INIT, vec![Pid(2)])), (Pid(2), entry(INIT, vec![]))]);
        Model { procs, last: 2 }
    }

    fn entry(&mut self, pid: Pid) -> &mut Entry {
        self.procs.get_mut(&pid).expect("modelled process")
    }

    /// The next PID after the last one handed out that nobody holds.
    fn create(&mut self, parent: Pid) -> Result<Pid, Errno> {
        let pid = (0..MAX_PIDS)
            .map(|i| Pid((self.last + i) % MAX_PIDS + 1))
            .find(|p| !self.procs.contains_key(p))
            .ok_or(Errno::Eagain)?;
        self.last = pid.0;
        self.procs.insert(pid, Entry { ppid: parent, children: vec![], status: None });
        self.entry(parent).children.push(pid);
        Ok(pid)
    }

    fn exit(&mut self, pid: Pid, status: i32) {
        let orphans = std::mem::take(&mut self.entry(pid).children);
        for &c in &orphans {
            self.entry(c).ppid = INIT;
        }
        self.entry(INIT).children.extend(orphans);
        self.entry(pid).status = Some(status);
    }

    fn kill(&mut self, pid: Pid) -> Result<(), Errno> {
        match self.procs.get(&pid) {
            None => Err(Errno::Esrch),
            Some(e) if e.status.is_some() => Ok(()),
            Some(_) => {
                self.exit(pid, KILLED);
                Ok(())
            }
        }
    }

    fn waitpid(&mut self, parent: Pid, target: Option<Pid>) -> Result<Option<(Pid, i32)>, Errno> {
        let children = &self.procs[&parent].children;
        let status = |c: &Pid| self.procs[c].status;
        let reaped = match target {
            Some(t) if !children.contains(&t) => return Err(Errno::Echild),
            None if children.is_empty() => return Err(Errno::Echild),
            Some(t) => status(&t).map(|s| (t, s)),
            None => children.iter().find_map(|c| status(c).map(|s| (*c, s))),
        };
        if let Some((c, _)) = reaped {
            self.procs.remove(&c);
            self.entry(parent).children.retain(|x| *x != c);
        }
        Ok(reaped)
    }

    fn live(&self) -> Vec<Pid> {
        self.procs.iter().filter(|(_, e)| e.status.is_none()).map(|(p, _)| *p).collect()
    }

    fn zombie_children(&self, parent: Pid) -> usize {
        self.procs[&parent].children.iter().filter(|c| self.procs[c].status.is_some()).count()
    }
}

/// The table the kernel shows, in the model's terms.
fn observed(os: &Os) -> BTreeMap<Pid, Entry> {
    let k = &os.kernel;
    k.pids()
        .into_iter()
        .map(|pid| {
            let p = k.process(pid).expect("a listed pid has a process");
            let status = match p.state {
                ProcState::Running => None,
                ProcState::Zombie(s) => Some(s),
            };
            (pid, Entry { ppid: p.ppid, children: p.children.clone(), status })
        })
        .collect()
}

fn pick(rng: &mut Rng, from: &[Pid]) -> Pid {
    from[rng.gen_index(from.len())]
}

/// One script of [`STEPS`] steps on seed `seed`. Of every 12 +
/// `reap_weight` steps, 8 create, 4 end a process (exit or kill) and
/// `reap_weight` wait: a low one fills the table.
fn run(seed: u64, reap_weight: u64, seen: &mut Seen) {
    let machine = MachineConfig { max_pids: MAX_PIDS, ..machine_for(16) };
    let (mut os, parent) = world_seeded(machine, seed, ProcessShape::with_heap(16));
    assert_eq!(parent, Pid(2));
    let mut model = Model::world();
    let mut rng = Rng::seed_from_u64(seed);
    let mut freed: BTreeSet<Pid> = BTreeSet::new();
    for step in 0..STEPS {
        let live = model.live();
        let roll = rng.gen_below(12 + reap_weight);
        let what = if roll < 8 {
            let (parent, path) = (pick(&mut rng, &live), PATHS[rng.gen_index(PATHS.len())]);
            let last = model.last;
            let expect = model.create(parent);
            let got = os.create(parent, path);
            assert_eq!(got, expect, "seed {seed} step {step}: {} from {parent}", path.label());
            if let Ok(pid) = got {
                seen.wrapped += u32::from(pid.0 < last);
                seen.reused += u32::from(freed.contains(&pid));
            }
            seen.refused_full += u32::from(got == Err(Errno::Eagain));
            format!("{} from {parent}", path.label())
        } else if roll < 12 {
            let victims: Vec<Pid> = live.iter().copied().filter(|p| *p != INIT).collect();
            if victims.is_empty() {
                continue;
            }
            let pid = pick(&mut rng, &victims);
            if rng.gen_bool(0.5) {
                seen.reparented += u32::from(!model.procs[&pid].children.is_empty());
                let status = rng.gen_below(256) as i32;
                model.exit(pid, status);
                os.kernel.exit(pid, status).expect("a live process exits");
                format!("exit {pid} with {status}")
            } else {
                // Now and then a PID that is a zombie's or nobody's.
                let pid = if rng.gen_bool(0.25) { Pid(rng.gen_range(2, u64::from(MAX_PIDS) + 1) as u32) } else { pid };
                let expect = model.kill(pid);
                assert_eq!(os.kernel.kill(pid, Sig::Kill), expect, "seed {seed} step {step}: kill {pid}");
                format!("kill {pid}")
            }
        } else {
            let parent = pick(&mut rng, &live);
            let children = model.procs[&parent].children.clone();
            let target = match rng.gen_below(4) {
                0 | 1 if !children.is_empty() => Some(pick(&mut rng, &children)),
                0 => Some(Pid(rng.gen_range(1, u64::from(MAX_PIDS) + 1) as u32)),
                _ => None,
            };
            let zombies = model.zombie_children(parent);
            let expect = model.waitpid(parent, target);
            let got = os.kernel.waitpid(parent, target);
            assert_eq!(got, expect, "seed {seed} step {step}: waitpid({parent}, {target:?})");
            if let Ok(Some((pid, _))) = got {
                freed.insert(pid);
                seen.reaped_among_zombies += u32::from(target.is_none() && zombies >= 2);
            }
            format!("waitpid({parent}, {target:?})")
        };
        let ctx = format!("seed {seed} step {step} ({what})");
        assert_eq!(os.kernel.pids(), model.procs.keys().copied().collect::<Vec<_>>(), "{ctx}: pids");
        assert_eq!(os.kernel.process_count(), model.procs.len(), "{ctx}: process count");
        assert_eq!(observed(&os), model.procs, "{ctx}: the table");
        assert_eq!(os.kernel.nproc_of(0), model.live().len() as u64, "{ctx}: uid 0's live processes");
    }
    os.kernel.check_invariants().unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
    // Everything exits and init reaps it, then exits last: every frame,
    // page of commit charge, pipe and open file description comes back.
    for pid in model.live().into_iter().filter(|p| *p != INIT) {
        os.kernel.exit(pid, 0).expect("a live process exits");
    }
    while let Ok(Some(_)) = os.kernel.waitpid(INIT, None) {}
    os.kernel.exit(INIT, 0).expect("init exits last");
    let k = &os.kernel;
    let held = (k.phys.used_frames(), k.commit.committed(), k.pipes.live(), k.ofds.live());
    assert_eq!(held, (0, 0, 0, 0), "seed {seed}: frames, commit, pipes, descriptions held after every exit");
}

#[test]
fn the_process_table_agrees_with_a_flat_model() {
    let mut seen = Seen::default();
    for seed in 0..RUNS {
        // Most runs reap briskly; every third rarely waits, and fills up.
        let reap_weight = if seed % 3 == 2 { 1 } else { 10 };
        run(0x9_1D00 + seed, reap_weight, &mut seen);
    }
    assert!(seen.wrapped > 0, "no run wrapped past max_pids: {seen:?}");
    assert!(seen.reused > 0, "no run reused a freed pid: {seen:?}");
    assert!(seen.refused_full > 0, "no run filled the table: {seen:?}");
    assert!(seen.reparented > 0, "no exit reparented a child to init: {seen:?}");
    assert!(seen.reaped_among_zombies > 0, "no waitpid(None) chose among zombies: {seen:?}");
}
