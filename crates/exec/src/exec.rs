//! `execve` semantics: replace the calling process's image.
//!
//! Exec is fork's other half — and the half that *undoes* most of fork's
//! copying: the duplicated address space is thrown away, close-on-exec
//! descriptors are closed, caught signal handlers are reset, extra
//! threads vanish, and userspace state (streams, locks) is wiped. The
//! paper's point: for the dominant fork+exec pattern, all of fork's
//! duplication work between these two calls is pure waste.

use crate::aslr::randomize;
use crate::cache::ImageCache;
use crate::image::ImageRegistry;
use crate::loader::load;
use fpr_kernel::{Errno, KResult, Kernel, Pid};
use fpr_trace::sink;
use std::collections::BTreeMap;

/// What happens to the environment across exec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Env {
    /// Keep the caller's environment (`execv`).
    Keep,
    /// Replace it wholesale (`execve`'s envp).
    Replace(BTreeMap<String, String>),
}

/// Replaces the image of `pid` with the executable at `path`, with
/// `argv[0] = path` and the environment kept (`execv` semantics).
///
/// `aslr_seed` determines the new layout; callers pass a fresh random
/// seed (exec randomises) — only the zygote experiment deliberately
/// reuses seeds.
pub fn execve(
    kernel: &mut Kernel,
    pid: Pid,
    registry: &ImageRegistry,
    path: &str,
    aslr_seed: u64,
) -> KResult<()> {
    let argv = vec![path.to_string()];
    execve_args(kernel, pid, registry, path, argv, Env::Keep, aslr_seed, None)
}

/// Full `execve`: explicit argv and environment policy. `#!` scripts are
/// resolved through their interpreter chain, which is prepended to argv
/// exactly as a real kernel does.
///
/// With `Some(cache)`, the loader serves file-backed startup pages from
/// pinned cached frames of the exec [`ImageCache`] (or donates them on a
/// miss); with `None` the path — and its cycle cost — is exactly the
/// classic one.
#[allow(clippy::too_many_arguments)]
pub fn execve_args(
    kernel: &mut Kernel,
    pid: Pid,
    registry: &ImageRegistry,
    path: &str,
    argv: Vec<String>,
    env: Env,
    aslr_seed: u64,
    cache: Option<&mut ImageCache>,
) -> KResult<()> {
    kernel.span(
        "exec",
        "exec",
        |kernel| {
            kernel.charge_syscall();
            let (mut image, interp_prefix) = {
                let (img, prefix) = registry.resolve(path).ok_or(Errno::Enoexec)?;
                (img.clone(), prefix)
            };
            image.file_id = effective_file_id(kernel, registry, image.file_id);
            let mut full_argv = interp_prefix;
            full_argv.extend(argv);

            // 1. Release the old address space (a vfork child gives the
            //    parent its space back) and start with a fresh one.
            kernel.destroy_address_space(pid)?;

            // 2–5. Descriptors, signals, threads, argv and environment.
            reset_pcb(kernel, pid, full_argv, env)?;

            // 6. Load the new image under a fresh layout.
            let layout = randomize(aslr_seed);
            sink::instant("aslr_randomize", "exec", kernel.cycles.total());
            load(kernel, pid, &image, layout, cache)
        },
    )
}

/// What exec does to the process control block of `pid`, the memory and
/// the image aside: closes its close-on-exec descriptors, resets caught
/// signals (ignored and default dispositions and the mask stay), keeps only
/// the calling thread and wipes userspace state — locks, streams, atfork
/// handlers — then installs `argv` (the interpreter prefix of a `#!` chain
/// included) and the environment per `env`. The spawn fast path's checkout
/// leaves a warm child as this leaves an exec'd one.
pub fn reset_pcb(kernel: &mut Kernel, pid: Pid, argv: Vec<String>, env: Env) -> KResult<()> {
    let swept = kernel.process_mut(pid)?.fds.take_cloexec();
    for (_, entry) in swept {
        kernel.release_fd_entry(entry)?;
    }
    kernel.process_mut(pid)?.signals.exec_reset();
    let doomed_tids: Vec<fpr_kernel::Tid> = {
        let p = kernel.process_mut(pid)?;
        let main = p.threads.remove(0);
        let doomed = p.threads.drain(..).map(|t| t.tid).collect();
        p.threads.push(main);
        p.locks = fpr_kernel::LockTable::new();
        p.streams.clear();
        p.atfork = fpr_kernel::AtforkTable::new();
        doomed
    };
    for tid in doomed_tids {
        kernel.sched.remove(fpr_kernel::sched::Task { pid, tid });
    }
    let p = kernel.process_mut(pid)?;
    p.argv = argv;
    if let Env::Replace(map) = env {
        p.envp = map;
    }
    Ok(())
}

/// The *effective* file id of a registered binary: its registry-assigned
/// base id plus the backing inode's write generation in the high bits.
/// Mapped-page content stamps and exec-image-cache entries key off this,
/// so rewriting a binary's bytes changes what subsequent execs map even
/// though the registry entry (and base id) is unchanged. A binary with no
/// bound backing file, or one never written since boot, keeps
/// `effective == base` — runs that never rewrite binaries are unaffected.
pub fn effective_file_id(kernel: &Kernel, registry: &ImageRegistry, file_id: u64) -> u64 {
    match registry.backing_ino(file_id) {
        Some(ino) => file_id + (kernel.vfs.generation(ino) << 32),
        None => file_id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use fpr_kernel::{BufMode, Disposition, HandlerId, OpenFlags, Sig, STDOUT};
    use fpr_mem::{Prot, Share};

    fn world() -> (Kernel, Pid, ImageRegistry) {
        let mut k = Kernel::boot();
        let init = k.create_init("init").unwrap();
        let mut reg = ImageRegistry::new();
        reg.register("/bin/tool", Image::small("tool"));
        (k, init, reg)
    }

    #[test]
    fn exec_replaces_memory_and_name() {
        let (mut k, pid, reg) = world();
        let base = k.mmap_anon(pid, 64, Prot::RW, Share::Private).unwrap();
        k.populate(pid, base, 64).unwrap();
        let resident_before = k.process(pid).unwrap().resident_pages();
        assert!(resident_before >= 64);
        execve(&mut k, pid, &reg, "/bin/tool", 7).unwrap();
        let p = k.process(pid).unwrap();
        assert_eq!(p.name, "tool");
        assert!(p.resident_pages() < resident_before, "old pages gone");
        assert_eq!(
            k.commit.committed(),
            p.aspace.commit_pages(),
            "commit rebased"
        );
    }

    #[test]
    fn exec_missing_image_is_enoexec_and_keeps_process() {
        let (mut k, pid, reg) = world();
        let before = k.process(pid).unwrap().name.clone();
        assert_eq!(
            execve(&mut k, pid, &reg, "/bin/ghost", 1),
            Err(Errno::Enoexec)
        );
        assert_eq!(k.process(pid).unwrap().name, before);
    }

    #[test]
    fn cloexec_fds_closed_others_survive() {
        let (mut k, pid, reg) = world();
        let keep = k.open(pid, "/keep", OpenFlags::RDWR, true).unwrap();
        let gone = k.open(pid, "/gone", OpenFlags::RDWR, true).unwrap();
        k.set_cloexec(pid, gone, true).unwrap();
        execve(&mut k, pid, &reg, "/bin/tool", 1).unwrap();
        let p = k.process(pid).unwrap();
        assert!(p.fds.get(keep).is_ok());
        assert!(p.fds.get(gone).is_err());
        assert!(p.fds.get(STDOUT).is_ok(), "stdio survives exec");
    }

    #[test]
    fn caught_handlers_reset_ignored_kept() {
        let (mut k, pid, reg) = world();
        k.sigaction(pid, Sig::Int, Disposition::Handler(HandlerId(5)))
            .unwrap();
        k.sigaction(pid, Sig::Hup, Disposition::Ignore).unwrap();
        execve(&mut k, pid, &reg, "/bin/tool", 1).unwrap();
        let p = k.process(pid).unwrap();
        assert_eq!(p.signals.disposition(Sig::Int), Disposition::Default);
        assert_eq!(p.signals.disposition(Sig::Hup), Disposition::Ignore);
    }

    #[test]
    fn extra_threads_and_streams_vanish() {
        let (mut k, pid, reg) = world();
        k.spawn_thread(pid).unwrap();
        k.spawn_thread(pid).unwrap();
        let s = k.stream_open(pid, STDOUT, BufMode::FullyBuffered).unwrap();
        k.stream_write(pid, s, b"lost on exec").unwrap();
        execve(&mut k, pid, &reg, "/bin/tool", 1).unwrap();
        let p = k.process(pid).unwrap();
        assert_eq!(p.threads.len(), 1);
        assert!(p.streams.is_empty());
        // Buffered bytes were *not* flushed — they are simply gone, which
        // is precisely why mixing stdio with exec needs care.
        assert!(k.console.is_empty());
    }

    #[test]
    fn exec_layouts_differ_per_seed() {
        let (mut k, pid, reg) = world();
        execve(&mut k, pid, &reg, "/bin/tool", 1).unwrap();
        let l1 = k.process(pid).unwrap().layout;
        execve(&mut k, pid, &reg, "/bin/tool", 2).unwrap();
        let l2 = k.process(pid).unwrap().layout;
        assert_ne!(l1, l2);
    }

    #[test]
    fn argv_defaults_to_path_and_env_is_kept() {
        let (mut k, pid, reg) = world();
        k.process_mut(pid)
            .unwrap()
            .envp
            .insert("HOME".into(), "/root".into());
        execve(&mut k, pid, &reg, "/bin/tool", 1).unwrap();
        let p = k.process(pid).unwrap();
        assert_eq!(p.argv, vec!["/bin/tool"]);
        assert_eq!(p.envp.get("HOME").map(String::as_str), Some("/root"));
    }

    #[test]
    fn execve_args_replaces_argv_and_env() {
        let (mut k, pid, reg) = world();
        k.process_mut(pid)
            .unwrap()
            .envp
            .insert("OLD".into(), "1".into());
        let mut env = std::collections::BTreeMap::new();
        env.insert("NEW".to_string(), "2".to_string());
        execve_args(
            &mut k,
            pid,
            &reg,
            "/bin/tool",
            vec!["tool".into(), "-v".into(), "input".into()],
            Env::Replace(env),
            1,
            None,
        )
        .unwrap();
        let p = k.process(pid).unwrap();
        assert_eq!(p.argv, vec!["tool", "-v", "input"]);
        assert!(!p.envp.contains_key("OLD"));
        assert_eq!(p.envp.get("NEW").map(String::as_str), Some("2"));
    }

    #[test]
    fn shebang_script_resolves_through_interpreter() {
        let (mut k, pid, mut reg) = world();
        reg.register("/bin/python", Image::large("python"));
        reg.register_script("/app/main.py", "/bin/python");
        execve_args(
            &mut k,
            pid,
            &reg,
            "/app/main.py",
            vec!["/app/main.py".into(), "--flag".into()],
            Env::Keep,
            1,
            None,
        )
        .unwrap();
        let p = k.process(pid).unwrap();
        assert_eq!(p.name, "python", "the interpreter's image runs");
        assert_eq!(p.argv, vec!["/bin/python", "/app/main.py", "--flag"]);
    }

    #[test]
    fn interpreter_recursion_limit() {
        let (mut k, pid, mut reg) = world();
        // A script whose interpreter is itself: unresolvable.
        reg.register_script("/loop", "/loop");
        assert_eq!(
            execve(&mut k, pid, &reg, "/loop", 1),
            Err(Errno::Enoexec)
        );
        // Two-level chains resolve fine.
        reg.register("/bin/interp", Image::small("interp"));
        reg.register_script("/stage2", "/bin/interp");
        reg.register_script("/stage1", "/stage2");
        execve(&mut k, pid, &reg, "/stage1", 1).unwrap();
        assert_eq!(
            k.process(pid).unwrap().argv,
            vec!["/bin/interp", "/stage2", "/stage1"]
        );
        assert_eq!(k.process(pid).unwrap().name, "interp");
    }
}
