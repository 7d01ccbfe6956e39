//! E1 / Figure 1: child-creation latency vs parent memory size.
//!
//! The paper's single measured figure: `fork`+`exec` latency grows with
//! the parent's footprint while `posix_spawn` stays flat. This driver
//! reproduces it on the simulator for four APIs; the `fpr-native` crate
//! mirrors it on the host kernel.

pub use crate::kit::machine_for;
use crate::kit::{world, CreationPath};
use fpr_kernel::MachineConfig;
use fpr_mem::CYCLES_PER_US;
use fpr_trace::{FigureData, ProcessShape, Series};

/// The binary every exec'ing path runs.
const BIN: &str = "/bin/tool";

/// Simulated microseconds one creation via `path` costs from a fresh
/// `fp`-page parent (on a THP machine if `thp`: the populated heap sits in
/// 2 MiB huge leaves, so the on-demand walk shares whole huge directories
/// and the write-protect pass touches block entries, not pages).
fn creation_us(fp: u64, thp: bool, path: CreationPath) -> f64 {
    let machine = MachineConfig {
        thp,
        ..machine_for(fp)
    };
    let (mut os, parent) = world(machine, ProcessShape::with_heap(fp));
    let (_, cycles) = os.measure(|os| os.create(parent, path).expect("creation fits"));
    cycles as f64 / CYCLES_PER_US as f64
}

/// Runs the Figure 1 sweep over `footprints` (pages of populated parent
/// heap). Returns latency in simulated microseconds per API.
pub fn run(footprints: &[u64]) -> FigureData {
    let mut fig = FigureData::new(
        "fig1",
        "process creation latency vs parent footprint",
        "parent MiB",
        "latency us",
    );
    use CreationPath::{ForkCow, ForkOnDemand, Spawn, VforkExec, Xproc};
    fig.series = [
        ("fork+exec", false, ForkCow(BIN)),
        ("fork(OnDemand)+exec", false, ForkOnDemand(BIN)),
        ("fork(OnDemand+THP)+exec", true, ForkOnDemand(BIN)),
        ("vfork+exec", false, VforkExec(BIN)),
        ("posix_spawn", false, Spawn(BIN)),
        ("xproc", false, Xproc(BIN)),
    ]
    .map(|(label, thp, path)| {
        let mut s = Series::new(label);
        for &fp in footprints {
            let mib = fp as f64 * 4096.0 / (1024.0 * 1024.0);
            s.push(mib, creation_us(fp, thp, path));
        }
        s
    })
    .into();
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpr_mem::ForkMode;

    #[test]
    fn fork_grows_spawn_flat() {
        // Small sweep keeps the test fast; the shape must already show.
        let fig = run(&[256, 1024, 4096, 16_384]);
        let fork = fig.series("fork+exec").unwrap();
        let odf = fig.series("fork(OnDemand)+exec").unwrap();
        let thp = fig.series("fork(OnDemand+THP)+exec").unwrap();
        let spawn = fig.series("posix_spawn").unwrap();
        let vfork = fig.series("vfork+exec").unwrap();
        let xproc = fig.series("xproc").unwrap();

        // fork grows super-linearly across a 64x footprint sweep.
        assert!(
            fork.growth_factor().unwrap() > 10.0,
            "fork should grow ~linearly: {:?}",
            fork.points
        );
        // spawn, vfork, xproc are flat (within 5%).
        for s in [spawn, vfork, xproc] {
            let g = s.growth_factor().unwrap();
            assert!((0.95..1.05).contains(&g), "{} not flat: {g}", s.label);
        }
        // On-demand fork grows only with *subtrees* (pages/512), so across
        // a 64x page sweep it stays near-flat — nothing like fork's slope.
        let g = odf.growth_factor().unwrap();
        assert!(g < 1.5, "fork(OnDemand) should be near-flat: {g}");
        assert!(
            fork.last_y().unwrap() > odf.last_y().unwrap() * 10.0,
            "on-demand fork must beat page-copying fork by an order of \
             magnitude at the large end"
        );
        // THP never makes the on-demand fork worse, and at the large end
        // (per-VMA heap ≥ one 2 MiB block, so promotion really fired) it
        // is at least as cheap: whole huge blocks share as single units.
        assert!(
            thp.last_y().unwrap() <= odf.last_y().unwrap() * 1.01,
            "fork(OnDemand+THP) {:?} must not exceed fork(OnDemand) {:?}",
            thp.points,
            odf.points
        );
        // At the largest size fork is much slower than spawn.
        assert!(fork.last_y().unwrap() > spawn.last_y().unwrap() * 20.0);
        // At the smallest size they are within an order of magnitude.
        assert!(fork.first_y().unwrap() < spawn.first_y().unwrap() * 10.0);
    }

    #[test]
    fn on_demand_fork_within_2x_of_spawn_at_4gib() {
        // The acceptance bound: at a 4 GiB simulated footprint
        // (1 Mi pages, ~2048 leaf subtrees) the fork-time latency of an
        // on-demand fork stays within 2x of a full posix_spawn. Only the
        // two flat APIs run — a COW fork at this size would copy a
        // million PTEs.
        let fp: u64 = 1_048_576;
        let spawn_us = creation_us(fp, false, CreationPath::Spawn(BIN));
        let odf_us = creation_us(fp, false, CreationPath::Fork(ForkMode::OnDemand));
        assert!(
            odf_us <= spawn_us * 2.0,
            "fork(OnDemand) {odf_us:.2}us must stay within 2x of \
             posix_spawn {spawn_us:.2}us at 4 GiB"
        );
        // With THP the same heap sits in huge directories, so the fork
        // walk shares a handful of directories instead of ~2048 leaf
        // subtrees — it must undercut the small-page on-demand fork.
        let thp_us = creation_us(fp, true, CreationPath::Fork(ForkMode::OnDemand));
        assert!(
            thp_us <= odf_us,
            "fork(OnDemand+THP) {thp_us:.2}us must not exceed \
             fork(OnDemand) {odf_us:.2}us at a fully promotable 4 GiB"
        );
    }
}
