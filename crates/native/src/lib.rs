//! # fpr-native — Figure 1 on the host kernel
//!
//! The simulator reproduces the paper's *shape*; this crate checks the
//! shape against a real Linux kernel. It times `fork`+`exec`,
//! `vfork`+`exec` and `posix_spawn` of `/bin/true` from a parent whose
//! anonymous footprint is swept, exactly like the paper's microbenchmark.
//!
//! Linux-only; on any other target the API returns
//! [`NativeError::Unsupported`].

#![warn(missing_docs)]

#[cfg(target_os = "linux")]
mod measure;

/// Not Linux: no host kernel here answers the calls, and both probes say so.
#[cfg(not(target_os = "linux"))]
mod measure {
    use crate::{NativeApi, NativeError};

    pub(crate) fn time_api(_api: NativeApi, _iters: u32) -> Result<f64, NativeError> {
        Err(NativeError::Unsupported)
    }

    pub(crate) fn time_fork_touch(_ballast: &mut [u8], _touch: usize) -> Result<f64, NativeError> {
        Err(NativeError::Unsupported)
    }
}

use measure::{time_api, time_fork_touch};

/// Errors from the native harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeError {
    /// Not a Linux target.
    Unsupported,
    /// A syscall failed (errno value).
    Sys(i32),
}

impl std::fmt::Display for NativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeError::Unsupported => write!(f, "native measurement requires Linux"),
            NativeError::Sys(e) => write!(f, "syscall failed: errno {e}"),
        }
    }
}

impl std::error::Error for NativeError {}

/// The native APIs under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NativeApi {
    /// `fork()` then `execv("/bin/true")` in the child.
    ForkExec,
    /// `vfork()` then `execv("/bin/true")` in the child.
    VforkExec,
    /// `posix_spawn("/bin/true")`.
    PosixSpawn,
}

/// Allocates `bytes` of anonymous memory and writes one byte per page so
/// it is resident (and private-dirty: exactly what fork must account).
fn touch_buffer(bytes: usize) -> Vec<u8> {
    let mut v = vec![0u8; bytes];
    let mut i = 0;
    while i < bytes {
        v[i] = 1;
        i += 4096;
    }
    v
}

/// One row of native Figure 1 output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NativeRow {
    /// Parent anonymous footprint in MiB.
    pub footprint_mib: f64,
    /// fork+exec latency, µs (median of iterations).
    pub fork_exec_us: f64,
    /// vfork+exec latency, µs.
    pub vfork_exec_us: f64,
    /// posix_spawn latency, µs.
    pub posix_spawn_us: f64,
}

/// Runs the native sweep. `footprints_mib` is the parent sizes to test;
/// `iters` is timed iterations per point.
pub fn run_native_fig1(footprints_mib: &[u64], iters: u32) -> Result<Vec<NativeRow>, NativeError> {
    let mut rows = Vec::new();
    for &mib in footprints_mib {
        // The buffer must stay alive across the three measurements.
        let _ballast = touch_buffer((mib * 1024 * 1024) as usize);
        let fork_us = time_api(NativeApi::ForkExec, iters)?;
        let vfork_us = time_api(NativeApi::VforkExec, iters)?;
        let spawn_us = time_api(NativeApi::PosixSpawn, iters)?;
        rows.push(NativeRow {
            footprint_mib: mib as f64,
            fork_exec_us: fork_us,
            vfork_exec_us: vfork_us,
            posix_spawn_us: spawn_us,
        });
    }
    Ok(rows)
}

/// One row of the native COW-storm output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CowRow {
    /// Fraction of the parent buffer the child dirtied.
    pub touch_fraction: f64,
    /// fork + child-dirty + wait latency, µs (median).
    pub total_us: f64,
}

/// Native COW storm: fork a parent holding `mib` MiB and have the child
/// dirty a swept fraction of it.
pub fn run_native_cow(mib: u64, fractions: &[f64], iters: u32) -> Result<Vec<CowRow>, NativeError> {
    let bytes = (mib * 1024 * 1024) as usize;
    let mut ballast = touch_buffer(bytes);
    let mut rows = Vec::new();
    for &f in fractions {
        let touch = (bytes as f64 * f) as usize;
        let mut samples = Vec::new();
        for _ in 0..iters {
            samples.push(time_fork_touch(&mut ballast, touch)?);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        rows.push(CowRow {
            touch_fraction: f,
            total_us: samples[samples.len() / 2],
        });
    }
    Ok(rows)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn smoke_all_apis_complete() {
        let rows = run_native_fig1(&[1], 3).expect("native harness runs");
        assert_eq!(rows.len(), 1);
        let r = rows[0];
        for v in [r.fork_exec_us, r.vfork_exec_us, r.posix_spawn_us] {
            assert!(v > 0.0 && v < 1_000_000.0, "implausible latency {v}");
        }
    }

    /// Least of five a side, not medians: a sandboxed kernel is noisy
    /// upwards only.
    #[test]
    fn native_cow_storm_grows_with_fraction() {
        let bytes = 8 * 1024 * 1024;
        let mut ballast = touch_buffer(bytes);
        let mut least = |touch| {
            (0..5)
                .map(|_| time_fork_touch(&mut ballast, touch).expect("cow probe runs"))
                .fold(f64::INFINITY, f64::min)
        };
        let (clean, dirty) = (least(0), least(bytes));
        assert!(
            dirty > clean,
            "dirtying 8 MiB must cost more: {clean} vs {dirty} us"
        );
    }

    #[test]
    fn touch_buffer_is_resident() {
        let b = touch_buffer(2 * 1024 * 1024);
        assert_eq!(b.len(), 2 * 1024 * 1024);
        assert_eq!(b[4096], 1);
    }
}
