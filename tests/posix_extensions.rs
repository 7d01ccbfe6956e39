//! Integration tests for the extended POSIX surface: atfork across the
//! facade, madvise-driven fork policy, argv/env propagation, sessions,
//! and timers.

use forkroad::api::SpawnAttrs;
use forkroad::kernel::mm::Madvice;
use forkroad::kernel::{AtforkRegistration, AtforkTable, Errno, Pgid, Sid, Sig};
use forkroad::mem::{Prot, Share};
use forkroad::{Os, OsConfig};

fn boot() -> Os {
    Os::boot(OsConfig::default())
}

#[test]
fn madvise_policies_flow_through_real_fork() {
    let mut os = boot();
    let init = os.init;
    let base = os
        .kernel
        .mmap_anon(init, 12, Prot::RW, Share::Private)
        .unwrap();
    for i in 0..12 {
        os.kernel.write_mem(init, base.add(i), 100 + i).unwrap();
    }
    os.kernel
        .madvise(init, base.add(4), 4, Madvice::DontFork)
        .unwrap();
    os.kernel
        .madvise(init, base.add(8), 4, Madvice::WipeOnFork)
        .unwrap();
    let c = os.fork(init).unwrap();
    assert_eq!(
        os.kernel.read_mem(c, base.add(0)),
        Ok(100),
        "plain range copied"
    );
    assert_eq!(
        os.kernel.read_mem(c, base.add(4)),
        Err(Errno::Efault),
        "DONTFORK absent"
    );
    assert_eq!(
        os.kernel.read_mem(c, base.add(8)),
        Ok(0),
        "WIPEONFORK zeroed"
    );
    // The parent still sees everything.
    assert_eq!(os.kernel.read_mem(init, base.add(4)), Ok(104));
    assert_eq!(os.kernel.read_mem(init, base.add(8)), Ok(108));
}

#[test]
fn argv_env_inherited_by_fork_replaced_by_spawn() {
    let mut os = boot();
    let init = os.init;
    let parent = os
        .spawn(init, "/bin/sh", &[], &SpawnAttrs::default())
        .unwrap();
    os.kernel
        .process_mut(parent)
        .unwrap()
        .envp
        .insert("PATH".into(), "/bin".into());
    let forked = os.fork(parent).unwrap();
    assert_eq!(os.kernel.process(forked).unwrap().argv, vec!["/bin/sh"]);
    assert_eq!(
        os.kernel
            .process(forked)
            .unwrap()
            .envp
            .get("PATH")
            .map(String::as_str),
        Some("/bin")
    );

    let mut env = std::collections::BTreeMap::new();
    env.insert("MODE".to_string(), "worker".to_string());
    let attrs = SpawnAttrs {
        argv: vec!["grep".into(), "-o".into()],
        env: Some(env),
        ..SpawnAttrs::default()
    };
    let spawned = os.spawn(parent, "/bin/grep", &[], &attrs).unwrap();
    let sp = os.kernel.process(spawned).unwrap();
    assert_eq!(sp.argv, vec!["grep", "-o"]);
    assert!(!sp.envp.contains_key("PATH"), "replaced env drops PATH");
    assert_eq!(sp.envp.get("MODE").map(String::as_str), Some("worker"));
}

#[test]
fn atfork_through_the_facade() {
    let mut os = boot();
    let init = os.init;
    let lock = os
        .kernel
        .register_lock(init, forkroad::kernel::sync::names::MALLOC_ARENA)
        .unwrap();
    let mut t = AtforkTable::new();
    t.register(AtforkRegistration {
        token: 5,
        lock: Some(lock),
    });
    os.kernel.memory_mut(init).unwrap().atfork = t;
    let c = os.fork(init).unwrap();
    // Both sides can take the malloc lock afterwards.
    let im = os.kernel.process(init).unwrap().main_tid();
    let cm = os.kernel.process(c).unwrap().main_tid();
    assert_eq!(os.kernel.lock_acquire(init, im, lock), Ok(()));
    assert_eq!(os.kernel.lock_acquire(c, cm, lock), Ok(()));
    assert_eq!(os.kernel.atfork_log.len(), 3, "prepare + parent + child");
}

#[test]
fn sessions_and_group_kill_of_a_forked_pipeline() {
    let mut os = boot();
    let init = os.init;
    // A "shell" leads its own session; its pipeline children join one group.
    let shell = os.kernel.allocate_process(init, "shell").unwrap();
    os.kernel.setsid(shell).unwrap();
    let a = os.fork(shell).unwrap();
    let b = os.fork(shell).unwrap();
    os.kernel.setpgid(a, a, None).unwrap();
    os.kernel.setpgid(shell, b, Some(Pgid(a.0))).unwrap();
    assert_eq!(
        os.kernel.process(a).unwrap().sid,
        Sid(shell.0),
        "same session"
    );
    // ^C the pipeline: both die, the shell survives.
    os.kernel.kill_pgroup(Pgid(a.0), Sig::Int).unwrap();
    assert!(os.kernel.process(a).unwrap().is_zombie());
    assert!(os.kernel.process(b).unwrap().is_zombie());
    assert!(!os.kernel.process(shell).unwrap().is_zombie());
}

#[test]
fn alarms_not_inherited_by_fork() {
    let mut os = boot();
    let init = os.init;
    let parent = os.kernel.allocate_process(init, "timed").unwrap();
    os.kernel.alarm(parent, Some(50)).unwrap();
    let child = os.fork(parent).unwrap();
    // POSIX: pending alarms are not inherited.
    assert_eq!(
        os.kernel.alarm(child, None).unwrap(),
        0,
        "child has no alarm"
    );
    os.kernel.tick_us(60);
    assert!(
        os.kernel.process(parent).unwrap().is_zombie(),
        "parent's alarm fired"
    );
    assert!(
        !os.kernel.process(child).unwrap().is_zombie(),
        "child unaffected"
    );
}

#[test]
fn script_exec_via_spawn() {
    let mut os = boot();
    let init = os.init;
    os.images.register_script("/usr/bin/tool.sh", "/bin/sh");
    let c = os
        .spawn(init, "/usr/bin/tool.sh", &[], &SpawnAttrs::default())
        .unwrap();
    let p = os.kernel.process(c).unwrap();
    assert_eq!(p.name, "sh", "interpreter image loaded");
    assert_eq!(p.argv, vec!["/bin/sh", "/usr/bin/tool.sh"]);
}
