//! Batch-friendly creation entry points for server-style callers.
//!
//! A request-serving front end (the E15 service experiment, a zygote, a
//! FaaS dispatcher) creates children in a loop, one per request or one
//! batch per maintenance tick. The primitive APIs force two calls per
//! request (`fork` then `execve`, with an orphaned half-child to clean up
//! if the second fails) or one call per pool child. This module packages
//! the loop bodies:
//!
//! * [`fork_exec`] / [`vfork_exec`] — fork-family creation and exec as
//!   one transactional call: an exec failure reaps the half-made child
//!   before returning, so the caller never sees a zombie it did not ask
//!   for.
//! * [`spawn_fast_batch`] — N pool-backed spawns as one all-or-nothing
//!   batch with per-child ASLR seeds; a mid-batch failure tears down the
//!   children already created.
//!
//! Cycle cost is exactly the sum of the wrapped primitives — these are
//! packaging, not a new fast path.

use crate::fastpath::{spawn_fast, WarmPool};
use crate::fork::fork_from_thread;
use crate::spawn::{FileAction, SpawnAttrs};
use crate::vfork::vfork;
use fpr_exec::{execve, AslrConfig, ImageCache, ImageRegistry};
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
    aslr: AslrConfig,
    aslr_seed: u64,
) -> KResult<Pid> {
    let tid = kernel.process(parent)?.main_tid();
    let (child, _) = fork_from_thread(kernel, parent, tid, mode)?;
    let exec = execve(kernel, child, registry, path, aslr, aslr_seed);
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
    aslr: AslrConfig,
    aslr_seed: u64,
) -> KResult<Pid> {
    let child = vfork(kernel, parent)?;
    let exec = execve(kernel, child, registry, path, aslr, aslr_seed);
    child_or_reap(kernel, parent, child, exec)
}

/// Spawns one child of `path` per seed in `aslr_seeds` through the fast
/// path ([`spawn_fast`]), as an all-or-nothing batch: if the k-th spawn
/// fails, the k−1 children already created are reaped and the error is
/// returned. Distinct per-child seeds keep the ASLR story intact —
/// batched siblings share no more layout bits than independent spawns.
#[allow(clippy::too_many_arguments)]
pub fn spawn_fast_batch(
    kernel: &mut Kernel,
    parent: Pid,
    registry: &ImageRegistry,
    path: &str,
    actions: &[FileAction],
    attrs: &SpawnAttrs,
    aslr: AslrConfig,
    aslr_seeds: &[u64],
    cache: &mut ImageCache,
    pool: &mut WarmPool,
) -> KResult<Vec<Pid>> {
    let mut children = Vec::with_capacity(aslr_seeds.len());
    for &seed in aslr_seeds {
        match spawn_fast(
            kernel, parent, registry, path, actions, attrs, aslr, seed, cache, pool,
        ) {
            Ok(pid) => children.push(pid),
            Err(e) => {
                for pid in children.into_iter().rev() {
                    reap_failed(kernel, parent, pid);
                }
                return Err(e);
            }
        }
    }
    Ok(children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_exec::Image;
    use fpr_kernel::{Errno, Resource, Rlimit};

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
                AslrConfig::default(),
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
            AslrConfig::default(),
            7,
        );
        assert_eq!(r, Err(Errno::Enoexec));
        assert_eq!(k.process_count(), before, "half-made child reaped");
        k.check_invariants().unwrap();
    }

    #[test]
    fn vfork_exec_resumes_the_parent() {
        let (mut k, init, reg) = world();
        let c = vfork_exec(&mut k, init, &reg, "/bin/tool", AslrConfig::default(), 9).unwrap();
        assert_eq!(k.process(c).unwrap().name, "tool");
        // The parent is runnable again: a second creation works.
        let d = vfork_exec(&mut k, init, &reg, "/bin/tool", AslrConfig::default(), 10).unwrap();
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
        let r = vfork_exec(&mut k, init, &reg, "/bin/nope", AslrConfig::default(), 9);
        assert_eq!(r, Err(Errno::Enoexec));
        assert_eq!(k.process_count(), before);
        // Parent not left suspended by the dead vfork child.
        let c = vfork_exec(&mut k, init, &reg, "/bin/tool", AslrConfig::default(), 11).unwrap();
        k.exit(c, 0).unwrap();
        k.waitpid(init, Some(c)).unwrap();
        k.check_invariants().unwrap();
    }

    #[test]
    fn spawn_fast_batch_creates_one_child_per_seed() {
        let (mut k, init, reg) = world();
        let mut cache = fpr_exec::ImageCache::new();
        let mut pool = WarmPool::new(init);
        pool.prefill(&mut k, &reg, &mut cache, "/bin/tool", 2)
            .unwrap();
        let kids = spawn_fast_batch(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            AslrConfig::default(),
            &[101, 102, 103],
            &mut cache,
            &mut pool,
        )
        .unwrap();
        assert_eq!(kids.len(), 3);
        assert_eq!(pool.checkouts(), 2, "two pool hits");
        assert_eq!(pool.misses(), 1, "third falls back to classic");
        // Distinct layouts per batch member.
        let l0 = k.process(kids[0]).unwrap().layout;
        let l1 = k.process(kids[1]).unwrap().layout;
        assert_ne!(l0, l1);
        for pid in kids {
            k.exit(pid, 0).unwrap();
            k.waitpid(init, Some(pid)).unwrap();
        }
        k.check_invariants().unwrap();
    }

    #[test]
    fn spawn_fast_batch_is_all_or_nothing() {
        let (mut k, init, reg) = world();
        let mut cache = fpr_exec::ImageCache::new();
        let mut pool = WarmPool::new(init);
        // Cap the parent at 3 children: a 4-seed batch must fail and undo.
        k.process_mut(init)
            .unwrap()
            .rlimits
            .set(Resource::Nproc, Rlimit::both(4)); // init + 3 children
        let before = k.process_count();
        let r = spawn_fast_batch(
            &mut k,
            init,
            &reg,
            "/bin/tool",
            &[],
            &SpawnAttrs::default(),
            AslrConfig::default(),
            &[1, 2, 3, 4],
            &mut cache,
            &mut pool,
        );
        assert_eq!(r, Err(Errno::Eagain));
        assert_eq!(k.process_count(), before, "partial batch torn down");
        k.check_invariants().unwrap();
    }
}
