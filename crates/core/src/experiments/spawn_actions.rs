//! E7, cost side: `posix_spawn` latency as the file-action list grows.
//!
//! The capability matrix says what each API can express; this says what
//! expressing it costs. Every file action is one more descriptor
//! operation in the child, so spawn latency is linear in the *request* —
//! and, unlike fork, never in the parent.

use crate::os::{Os, OsConfig};
use fpr_api::{FileAction, SpawnAttrs};
use fpr_kernel::{Fd, OpenFlags};
use fpr_mem::CYCLES_PER_US;
use fpr_trace::TableData;

/// Cycles of one `posix_spawn` carrying `actions` open-file actions.
pub(crate) fn measure(actions: usize) -> u64 {
    let mut os = Os::boot(OsConfig::default());
    let init = os.init;
    let actions: Vec<FileAction> = (0..actions)
        .map(|i| FileAction::Open {
            fd: Fd(10 + i as u32),
            path: format!("/af_{i}"),
            flags: OpenFlags::RDWR,
            create: true,
        })
        .collect();
    let (_, cycles) = os.measure(|os| {
        os.spawn(init, "/bin/tool", &actions, &SpawnAttrs::default())
            .expect("spawn")
    });
    cycles
}

/// Sweeps the action count; the per-action column is the slope from the
/// first row (normally the action-free spawn).
pub fn run(action_counts: &[usize]) -> TableData {
    let mut t = TableData::new(
        "tab_spawn_actions",
        "posix_spawn cost vs file-action count (simulated us)",
        &["actions", "spawn_us", "us_per_action"],
    );
    let mut base_us = 0.0;
    for &n in action_counts {
        let us = measure(n) as f64 / CYCLES_PER_US as f64;
        if n == 0 {
            base_us = us;
        }
        let per = if n > 0 {
            (us - base_us) / n as f64
        } else {
            0.0
        };
        t.push_row(vec![n.to_string(), format!("{us:.2}"), format!("{per:.3}")]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_linear_in_the_action_count() {
        let (none, few, many) = (measure(0), measure(8), measure(128));
        assert!(few > none);
        assert_eq!(
            (many - none) / 128,
            (few - none) / 8,
            "every file action must cost the same"
        );
    }
}
