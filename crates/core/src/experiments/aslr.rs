//! E8a: zygote-style forking defeats ASLR.
//!
//! An app-server "zygote" execs once and forks a child per request, so
//! every child shares one layout draw; independently spawned workers each
//! draw fresh. The table reports pairwise shared layout bits and the
//! residual entropy an attacker must still guess after leaking one
//! sibling's layout.

use crate::os::{Os, OsConfig};
use fpr_api::SpawnAttrs;
use fpr_audit::{zygote_entropy, ZygoteReport};
use fpr_kernel::Pid;
use fpr_trace::TableData;

/// Spawning strategy under audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strategy {
    /// One exec, then fork per child (Android zygote).
    Zygote,
    /// posix_spawn per child.
    SpawnPer,
    /// Warm-pool checkout per child (the E11 fast path): pre-built like a
    /// zygote's children, but each checkout slides the image to a fresh
    /// layout draw — the zygote's speed without its shared layout.
    WarmPool,
}

/// Creates `n` children with the strategy and measures layout sharing.
pub(crate) fn run_cell(strategy: Strategy, n: usize) -> ZygoteReport {
    let mut os = Os::boot(OsConfig::default());
    let init = os.init;
    let children: Vec<Pid> = match strategy {
        Strategy::Zygote => {
            let zygote = os
                .spawn(init, "/bin/server", &[], &SpawnAttrs::default())
                .expect("zygote");
            (0..n).map(|_| os.fork(zygote).expect("fork")).collect()
        }
        Strategy::SpawnPer => (0..n)
            .map(|_| {
                os.spawn(init, "/bin/server", &[], &SpawnAttrs::default())
                    .expect("spawn")
            })
            .collect(),
        Strategy::WarmPool => {
            os.enable_spawn_fastpath().expect("enable");
            os.pool_prefill("/bin/server", n).expect("prefill");
            let kids = (0..n)
                .map(|_| {
                    os.spawn(init, "/bin/server", &[], &SpawnAttrs::default())
                        .expect("checkout")
                })
                .collect();
            let f = os.fastpath().expect("enabled");
            assert_eq!(f.pool().checkouts(), n as u64, "all served from the pool");
            kids
        }
    };
    zygote_entropy(&os.kernel, &children).expect("audit")
}

/// Runs both strategies and formats the table.
pub fn run(n: usize) -> TableData {
    let mut t = TableData::new(
        "tab_aslr",
        "ASLR layout sharing among sibling workers",
        &[
            "strategy",
            "children",
            "identical_pairs",
            "mean_shared_bits",
            "residual_entropy_bits",
        ],
    );
    for (s, name) in [
        (Strategy::Zygote, "zygote(fork)"),
        (Strategy::SpawnPer, "spawn-per-child"),
        (Strategy::WarmPool, "spawn(warm-pool)"),
    ] {
        let r = run_cell(s, n);
        t.push_row(vec![
            name.to_string(),
            r.children.to_string(),
            r.identical_pairs.to_string(),
            format!("{:.1}", r.mean_shared_bits),
            format!("{:.1}", r.effective_entropy_bits),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_audit::MAX_LAYOUT_BITS;

    #[test]
    fn zygote_children_fully_correlated() {
        let r = run_cell(Strategy::Zygote, 8);
        assert_eq!(r.identical_pairs, 8 * 7 / 2);
        assert_eq!(r.effective_entropy_bits, 0.0);
        assert_eq!(r.mean_shared_bits, MAX_LAYOUT_BITS as f64);
    }

    #[test]
    fn spawned_children_nearly_independent() {
        let r = run_cell(Strategy::SpawnPer, 8);
        assert_eq!(r.identical_pairs, 0);
        assert!(
            r.effective_entropy_bits > 50.0,
            "residual entropy {}",
            r.effective_entropy_bits
        );
    }

    #[test]
    fn warm_pool_children_share_no_entropy() {
        // The E11 regression: pool checkouts re-randomise, so pooled
        // siblings look like independent spawns — no identical pair,
        // near-zero shared bits, near-full residual entropy. This is the
        // property the zygote row fails.
        let r = run_cell(Strategy::WarmPool, 8);
        assert_eq!(r.identical_pairs, 0);
        assert!(
            r.effective_entropy_bits > 50.0,
            "residual entropy {}",
            r.effective_entropy_bits
        );
        assert!(
            r.mean_shared_bits < MAX_LAYOUT_BITS as f64 * 0.1,
            "pooled siblings share ~0 layout bits, got {}",
            r.mean_shared_bits
        );
    }

    #[test]
    fn table_contrasts_the_strategies() {
        let t = run(6);
        assert_eq!(t.rows.len(), 3);
        let zygote_pairs: u32 = t.rows[0][2].parse().unwrap();
        let spawn_pairs: u32 = t.rows[1][2].parse().unwrap();
        let pool_pairs: u32 = t.rows[2][2].parse().unwrap();
        assert!(zygote_pairs > 0);
        assert_eq!(spawn_pairs, 0);
        assert_eq!(pool_pairs, 0);
    }
}
