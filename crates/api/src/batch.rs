//! Batch-friendly creation entry points for server-style callers.
//!
//! A request-serving front end (the E15 service experiment, a zygote, a
//! FaaS dispatcher) creates children in a loop, one per request. The
//! primitive APIs force two calls per request (`fork` then `execve`, with
//! an orphaned half-child to clean up if the second fails). This module
//! packages the loop body: [`fork_exec`] / [`vfork_exec`] — fork-family
//! creation and exec as one transactional call: an exec failure reaps the
//! half-made child before returning, so the caller never sees a zombie it
//! did not ask for.
//!
//! Cycle cost is exactly the sum of the wrapped primitives — these are
//! packaging, not a new fast path.

use crate::fork::fork_from_thread;
use crate::vfork::vfork;
use fpr_exec::{execve, ImageRegistry};
use fpr_kernel::{KResult, Kernel, Pid};
use fpr_mem::ForkMode;

/// Reaps a child that failed mid-creation: forced exit + wait, so the
/// caller's process table is exactly as it was before the attempt.
fn reap_failed(kernel: &mut Kernel, parent: Pid, child: Pid) {
    let _ = kernel.exit(child, 127);
    let _ = kernel.waitpid(parent, Some(child));
}

/// The tail of both fork-family idioms, given the outcome of the child's
/// `execve`. On failure the half-made child is reaped before the error
/// returns: the kernel looks as if the creation never happened (modulo
/// cycles), which is what a batch loop needs to keep iterating.
fn child_or_reap(kernel: &mut Kernel, parent: Pid, child: Pid, exec: KResult<()>) -> KResult<Pid> {
    exec.map(|()| child)
        .inspect_err(|_| reap_failed(kernel, parent, child))
}

/// Forks `parent` with `mode` and execs `path` in the child — the
/// fork-family request-serving path as a single call, with
/// the half-made child reaped on exec failure.
pub fn fork_exec(
    kernel: &mut Kernel,
    parent: Pid,
    registry: &ImageRegistry,
    path: &str,
    mode: ForkMode,
    aslr_seed: u64,
) -> KResult<Pid> {
    let tid = kernel.process(parent)?.main_tid();
    let (child, _) = fork_from_thread(kernel, parent, tid, mode)?;
    let exec = execve(kernel, child, registry, path, aslr_seed);
    child_or_reap(kernel, parent, child, exec)
}

/// vforks `parent` and execs `path` in the child — the classic cheap
/// create-and-exec idiom as one call.
///
/// The parent is suspended only for the duration of this function: exec
/// (or the cleanup exit on failure) releases it before we return.
pub fn vfork_exec(
    kernel: &mut Kernel,
    parent: Pid,
    registry: &ImageRegistry,
    path: &str,
    aslr_seed: u64,
) -> KResult<Pid> {
    let child = vfork(kernel, parent)?;
    let exec = execve(kernel, child, registry, path, aslr_seed);
    child_or_reap(kernel, parent, child, exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_exec::Image;
    use fpr_kernel::Errno;

    fn world() -> (Kernel, Pid, ImageRegistry) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        (k, init, reg)
    }

    #[test]
    fn fork_exec_makes_an_execed_child_in_one_call() {
        let (mut k, init, reg) = world();
        for mode in [ForkMode::Cow, ForkMode::OnDemand] {
            let c = fork_exec(
                &mut k,
                init,
                &reg,
                "/bin/tool",
                mode,
                7,
            )
            .unwrap();
            assert_eq!(k.process(c).unwrap().name, "tool");
            k.exit(c, 0).unwrap();
            k.waitpid(init, Some(c)).unwrap();
        }
        k.check_invariants().unwrap();
    }

    #[test]
    fn fork_exec_missing_binary_leaves_no_child_behind() {
        let (mut k, init, reg) = world();
        let before = k.process_count();
        let r = fork_exec(
            &mut k,
            init,
            &reg,
            "/bin/missing",
            ForkMode::OnDemand,
            7,
        );
        assert_eq!(r, Err(Errno::Enoexec));
        assert_eq!(k.process_count(), before, "half-made child reaped");
        k.check_invariants().unwrap();
    }

    #[test]
    fn vfork_exec_resumes_the_parent() {
        let (mut k, init, reg) = world();
        let c = vfork_exec(&mut k, init, &reg, "/bin/tool", 9).unwrap();
        assert_eq!(k.process(c).unwrap().name, "tool");
        // The parent is runnable again: a second creation works.
        let d = vfork_exec(&mut k, init, &reg, "/bin/tool", 10).unwrap();
        for pid in [c, d] {
            k.exit(pid, 0).unwrap();
            k.waitpid(init, Some(pid)).unwrap();
        }
        k.check_invariants().unwrap();
    }

    #[test]
    fn vfork_exec_failure_reaps_and_resumes() {
        let (mut k, init, reg) = world();
        let before = k.process_count();
        let r = vfork_exec(&mut k, init, &reg, "/bin/nope", 9);
        assert_eq!(r, Err(Errno::Enoexec));
        assert_eq!(k.process_count(), before);
        // Parent not left suspended by the dead vfork child.
        let c = vfork_exec(&mut k, init, &reg, "/bin/tool", 11).unwrap();
        k.exit(c, 0).unwrap();
        k.waitpid(init, Some(c)).unwrap();
        k.check_invariants().unwrap();
    }
}
