//! Linux timing primitives for the native Figure 1 sweep.
//!
//! `std` already links the platform libc, so the six calls the harness
//! makes are declared here by hand instead of pulling in the `libc` crate.

use crate::{NativeApi, NativeError};
use std::ffi::{c_char, c_int, c_void, CString};
use std::time::Instant;

/// `pid_t` on every Linux target.
#[allow(non_camel_case_types)]
type pid_t = c_int;

extern "C" {
    fn fork() -> pid_t;
    fn vfork() -> pid_t;
    fn execv(path: *const c_char, argv: *const *const c_char) -> c_int;
    fn posix_spawn(
        pid: *mut pid_t,
        path: *const c_char,
        file_actions: *const c_void,
        attrp: *const c_void,
        argv: *const *mut c_char,
        envp: *const *mut c_char,
    ) -> c_int;
    fn waitpid(pid: pid_t, status: *mut c_int, options: c_int) -> pid_t;
    fn _exit(status: c_int) -> !;
}

fn last_errno() -> NativeError {
    NativeError::Sys(std::io::Error::last_os_error().raw_os_error().unwrap_or(-1))
}

fn wait_child(pid: pid_t) -> Result<(), NativeError> {
    let mut status = 0;
    // SAFETY: waiting on a child we just created; status is a valid out-pointer.
    let r = unsafe { waitpid(pid, &mut status, 0) };
    if r < 0 {
        return Err(last_errno());
    }
    Ok(())
}

fn child_argv() -> (CString, [*mut c_char; 2]) {
    let path = CString::new("/bin/true").expect("static path");
    let argv = [path.as_ptr() as *mut c_char, std::ptr::null_mut()];
    (path, argv)
}

fn one_fork_exec() -> Result<(), NativeError> {
    let (path, argv) = child_argv();
    // SAFETY: standard fork/exec/wait sequence. The child only calls
    // async-signal-safe functions (execv, _exit) before exec.
    unsafe {
        let pid = fork();
        if pid < 0 {
            return Err(last_errno());
        }
        if pid == 0 {
            execv(path.as_ptr(), argv.as_ptr() as *const *const c_char);
            _exit(127);
        }
        wait_child(pid)
    }
}

// General use of `vfork` corrupts memory; the exec-immediately-or-_exit
// pattern below is the single sound use, and measuring exactly that
// pattern is the point of this harness.
fn one_vfork_exec() -> Result<(), NativeError> {
    let (path, argv) = child_argv();
    // SAFETY: the vfork child immediately execs or _exits, touching only
    // pre-computed locals, which is the only sound use of vfork.
    unsafe {
        let pid = vfork();
        if pid < 0 {
            return Err(last_errno());
        }
        if pid == 0 {
            execv(path.as_ptr(), argv.as_ptr() as *const *const c_char);
            _exit(127);
        }
        wait_child(pid)
    }
}

fn one_posix_spawn() -> Result<(), NativeError> {
    let (path, argv) = child_argv();
    let mut pid: pid_t = 0;
    // SAFETY: posix_spawn with null attrs/file-actions and a valid argv.
    let rc = unsafe {
        posix_spawn(
            &mut pid,
            path.as_ptr(),
            std::ptr::null(),
            std::ptr::null(),
            argv.as_ptr(),
            std::ptr::null(),
        )
    };
    if rc != 0 {
        return Err(NativeError::Sys(rc));
    }
    wait_child(pid)
}

/// Times `iters` iterations of `api` and returns the median latency in
/// microseconds.
pub(crate) fn time_api(api: NativeApi, iters: u32) -> Result<f64, NativeError> {
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = Instant::now();
        match api {
            NativeApi::ForkExec => one_fork_exec()?,
            NativeApi::VforkExec => one_vfork_exec()?,
            NativeApi::PosixSpawn => one_posix_spawn()?,
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Ok(samples[samples.len() / 2])
}

/// Times fork followed by the child dirtying `touch_bytes` of the
/// inherited `ballast` buffer (the native COW-storm probe). The child
/// signals completion by exiting; the measurement includes the wait.
/// Returns microseconds.
pub(crate) fn time_fork_touch(ballast: &mut [u8], touch_bytes: usize) -> Result<f64, NativeError> {
    let t0 = Instant::now();
    // SAFETY: standard fork; the child only dirties its (COW) heap and
    // calls _exit.
    unsafe {
        let pid = fork();
        if pid < 0 {
            return Err(last_errno());
        }
        if pid == 0 {
            let n = touch_bytes.min(ballast.len());
            let mut i = 0;
            while i < n {
                // Volatile store defeats optimisation of the dirtying loop.
                std::ptr::write_volatile(ballast.as_mut_ptr().add(i), 2);
                i += 4096;
            }
            _exit(0);
        }
        wait_child(pid)?;
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_api_runs_once() {
        one_fork_exec().unwrap();
        one_vfork_exec().unwrap();
        one_posix_spawn().unwrap();
    }

    #[test]
    fn median_is_positive() {
        let us = time_api(NativeApi::PosixSpawn, 3).unwrap();
        assert!(us > 0.0);
    }

    #[test]
    fn fork_touch_probe_runs() {
        let mut ballast = crate::touch_buffer(1024 * 1024);
        let us = time_fork_touch(&mut ballast, 512 * 1024).unwrap();
        assert!(us > 0.0);
        // The parent's buffer is untouched (the child wrote its COW copy).
        assert_eq!(ballast[0], 1);
    }
}
