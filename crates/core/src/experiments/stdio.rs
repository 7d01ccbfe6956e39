//! E6: fork doesn't compose with buffered I/O.
//!
//! A parent buffers some output, creates a child with each API, and both
//! exit (flushing at exit, as libc does). With fork and vfork the
//! buffered prefix appears twice on the console; with posix_spawn and the
//! cross-process builder it appears once. The duplicated byte count
//! equals the unflushed buffer size — deterministically.

use crate::kit::{CreationPath, Work};
use crate::os::{Os, OsConfig};
use fpr_kernel::{BufMode, Fd, FdEntry, OpenFlags, Pid};
use fpr_mem::ForkMode;
use fpr_trace::TableData;

/// The APIs compared in this experiment, by display name.
pub(crate) const APIS: [(&str, CreationPath); 3] = [
    ("fork", CreationPath::Fork(ForkMode::Cow)),
    ("posix_spawn", CreationPath::Spawn("/bin/tool")),
    ("xproc", CreationPath::Xproc("/bin/tool")),
];

/// One duplication measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StdioCell {
    /// API used.
    pub api: &'static str,
    /// Bytes sitting in the parent's buffer at creation time.
    pub buffered_bytes: usize,
    /// Bytes that reached the console in total.
    pub console_bytes: usize,
    /// Bytes emitted more than once.
    pub duplicated_bytes: usize,
}

fn parent_with_buffer(os: &mut Os, fill: usize) -> (Pid, usize) {
    let parent = os
        .kernel
        .allocate_process(os.init, "writer")
        .expect("alloc");
    // Give the parent a console stdout (allocate_process starts empty).
    let ofd = os
        .kernel
        .ofds
        .insert(fpr_kernel::FileObject::Tty, OpenFlags::WRONLY);
    os.kernel
        .process_mut(parent)
        .expect("proc")
        .fds
        .install_at(
            Fd(1),
            FdEntry {
                ofd,
                cloexec: false,
            },
            64,
        )
        .expect("stdout");
    let stream = os
        .kernel
        .stream_open(parent, Fd(1), BufMode::FullyBuffered)
        .expect("stream");
    let data = vec![b'x'; fill];
    os.kernel
        .stream_write(parent, stream, &data)
        .expect("write");
    (parent, stream)
}

/// Runs one cell: parent buffers `fill` bytes, creates a child via `api`,
/// both exit.
pub(crate) fn run_cell((api, path): (&'static str, CreationPath), fill: usize) -> StdioCell {
    let mut os = Os::boot(OsConfig::default());
    let (parent, _stream) = parent_with_buffer(&mut os, fill);
    os.serve(parent, path, Work::Nothing)
        .expect("child created, exited and reaped");
    os.kernel.exit(parent, 0).expect("parent exit");
    let console = os.kernel.console.len();
    StdioCell {
        api,
        buffered_bytes: fill,
        console_bytes: console,
        duplicated_bytes: console.saturating_sub(fill),
    }
}

/// Runs the grid.
pub fn run(fills: &[usize]) -> TableData {
    let mut t = TableData::new(
        "tab_stdio_dup",
        "buffered output duplicated by process creation",
        &["api", "buffered", "console", "duplicated"],
    );
    for api in APIS {
        for &fill in fills {
            let c = run_cell(api, fill);
            t.push_row(vec![
                c.api.to_string(),
                c.buffered_bytes.to_string(),
                c.console_bytes.to_string(),
                c.duplicated_bytes.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_duplicates_exactly_the_buffer() {
        for fill in [1usize, 64, 1000] {
            let c = run_cell(APIS[0], fill);
            assert_eq!(c.duplicated_bytes, fill, "fork duplicates all {fill} bytes");
            assert_eq!(c.console_bytes, 2 * fill);
        }
    }

    #[test]
    fn spawn_and_xproc_do_not_duplicate() {
        for api in [APIS[1], APIS[2]] {
            let c = run_cell(api, 512);
            assert_eq!(c.duplicated_bytes, 0, "{} duplicated output", c.api);
            assert_eq!(c.console_bytes, 512);
        }
    }

    #[test]
    fn empty_buffer_is_harmless_everywhere() {
        for api in APIS {
            let c = run_cell(api, 0);
            assert_eq!(c.duplicated_bytes, 0);
            assert_eq!(c.console_bytes, 0);
        }
    }

    #[test]
    fn grid_has_all_cells() {
        let t = run(&[0, 64]);
        assert_eq!(t.rows.len(), 6);
    }
}
