//! E6: fork doesn't compose with buffered I/O.
//!
//! A parent buffers some output, creates a child with each API, and both
//! exit (flushing at exit, as libc does). With fork the buffered prefix
//! appears twice on the console; with posix_spawn and the cross-process
//! builder it appears once. The duplicated byte count equals the
//! unflushed buffer size — deterministically. (A vfork child copies no
//! streams either: it writes into the parent's buffers and its exit
//! flushes them, once, through its own descriptors. E7 measures that.)

use crate::kit::CreationPath;
use crate::os::{Os, OsConfig};
use fpr_kernel::{BufMode, Fd, FdEntry, KResult, OpenFlags, Pid};
use fpr_mem::ForkMode;
use fpr_trace::TableData;

/// The APIs compared in this experiment, by display name.
pub(crate) const APIS: [(&str, CreationPath); 3] = [
    ("fork", CreationPath::Fork(ForkMode::Cow)),
    ("posix_spawn", CreationPath::Spawn("/bin/tool")),
    ("xproc", CreationPath::Xproc("/bin/tool")),
];

/// Bytes that reach the console when a parent with `fill` bytes in a
/// fully buffered stdout stream creates a child with `create` and both
/// exit, the child first (collected by the parent).
pub(crate) fn console_bytes(fill: usize, create: impl FnOnce(&mut Os, Pid) -> KResult<Pid>) -> usize {
    let mut os = Os::boot(OsConfig::default());
    let k = &mut os.kernel;
    let parent = k.allocate_process(os.init, "writer").expect("alloc");
    // Give the parent a console stdout (allocate_process starts empty).
    let ofd = k.ofds.insert(fpr_kernel::FileObject::Tty, OpenFlags::WRONLY);
    let stdout = FdEntry { ofd, cloexec: false };
    k.process_mut(parent).expect("proc").fds.install_at(Fd(1), stdout, 64).expect("stdout");
    let stream = k.stream_open(parent, Fd(1), BufMode::FullyBuffered).expect("stream");
    k.stream_write(parent, stream, &vec![b'x'; fill]).expect("write");
    let child = create(&mut os, parent).expect("child created");
    os.reap(parent, child).expect("child exited and reaped");
    os.kernel.exit(parent, 0).expect("parent exit");
    os.kernel.console.len()
}

/// Runs the grid: per API and fill, the bytes buffered, those that
/// reached the console and those emitted twice.
pub fn run(fills: &[usize]) -> TableData {
    let mut t = TableData::new(
        "tab_stdio_dup",
        "buffered output duplicated by process creation",
        &["api", "buffered", "console", "duplicated"],
    );
    for (api, path) in APIS {
        for &fill in fills {
            let console = console_bytes(fill, |os, parent| os.create(parent, path));
            let cells = [fill, console, console.saturating_sub(fill)].map(|n| n.to_string());
            t.push_row([vec![api.to_string()], cells.to_vec()].concat());
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes of the console via `APIS[api]` with `fill` bytes buffered.
    fn console(api: usize, fill: usize) -> usize {
        console_bytes(fill, |os, parent| os.create(parent, APIS[api].1))
    }

    #[test]
    fn fork_duplicates_exactly_the_buffer() {
        for fill in [1usize, 64, 1000] {
            assert_eq!(console(0, fill), 2 * fill, "fork duplicates all {fill} bytes");
        }
    }

    #[test]
    fn spawn_and_xproc_do_not_duplicate() {
        for api in [1, 2] {
            assert_eq!(console(api, 512), 512, "{} duplicated output", APIS[api].0);
        }
    }

    #[test]
    fn empty_buffer_is_harmless_everywhere() {
        for api in 0..APIS.len() {
            assert_eq!(console(api, 0), 0);
        }
    }

    #[test]
    fn grid_has_all_cells() {
        let t = run(&[0, 64]);
        assert_eq!(t.rows.len(), 6);
    }
}
