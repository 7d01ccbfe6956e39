//! The thread-safety trap: fork a process while another thread holds the
//! allocator lock, and the child deadlocks on its first allocation. The
//! POSIX workaround, a `pthread_atfork` handler covering the lock, does not
//! rescue that fork: its prepare handler cannot take a lock another thread
//! holds, so the fork is refused until the owner lets go.
//!
//! Run with: `cargo run --example fork_deadlock`

use forkroad::kernel::{sync, AtforkRegistration, Errno};
use forkroad::{Os, OsConfig};

fn main() {
    let mut os = Os::boot(OsConfig::default());
    let init = os.init;

    // A process with a worker thread that is mid-malloc at fork time.
    let app = os.kernel.allocate_process(init, "app").unwrap();
    let malloc_lock = os
        .kernel
        .register_lock(app, sync::names::MALLOC_ARENA)
        .unwrap();
    let worker = os.kernel.spawn_thread(app).unwrap();
    os.kernel.lock_acquire(app, worker, malloc_lock).unwrap();
    println!("worker thread {worker:?} holds the malloc arena lock\n");

    // Fork anyway — exactly what a library deep in some dependency does.
    let child = os.fork(app).unwrap();
    let child_main = os.kernel.process(child).unwrap().main_tid();

    // The child calls malloc (acquires the arena lock)...
    match os.kernel.lock_acquire(child, child_main, malloc_lock) {
        Err(Errno::Edeadlk) => {
            println!(
                "child {child}: first malloc → EDEADLK. The lock's owner was never\n\
                 copied into the child; it can never be released. Hung forever."
            )
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }

    // The workaround: an atfork handler that takes the lock before the
    // snapshot. With the worker still inside malloc, the prepare handler
    // cannot have it, and the fork does not happen.
    let reg = AtforkRegistration {
        token: 1,
        lock: Some(malloc_lock),
    };
    os.kernel.memory_mut(app).unwrap().atfork.register(reg);
    match os.fork(app) {
        Err(Errno::Ebusy) => println!(
            "\nwith an atfork handler covering the lock: fork → EBUSY. The prepare\n\
             handler waits on the worker; a real fork would block right here."
        ),
        other => panic!("expected the atfork prepare to be refused, got {other:?}"),
    }

    // Once the worker releases, the covered fork goes through and the new
    // child can allocate.
    os.kernel.lock_release(app, worker, malloc_lock).unwrap();
    let child = os.fork(app).unwrap();
    let child_main = os.kernel.process(child).unwrap().main_tid();
    os.kernel
        .lock_acquire(child, child_main, malloc_lock)
        .unwrap();
    println!(
        "\nafter the worker releases: the covered fork succeeds, and child {child}'s\n\
         first malloc takes the lock. `run_all -- tab_thread_safety` measures both\n\
         outcomes over many parents, next to vfork+exec, posix_spawn and xproc."
    );
}
