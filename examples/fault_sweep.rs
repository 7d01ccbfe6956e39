//! Make fork fail every way it can, and prove every failure clean.
//!
//! ```sh
//! cargo run --example fault_sweep
//! ```

use forkroad::faults::{count_crossings, with_plan, FaultPlan};
use forkroad::kernel::MachineConfig;
use forkroad::kit::world;
use forkroad::trace::ProcessShape;

fn main() {
    // A shell-sized parent on the default machine.
    let boot = || world(MachineConfig::default(), ProcessShape::shell());

    // 1. How many ways can this fork die?
    let (mut os, parent) = boot();
    let trace = count_crossings(|| {
        os.fork(parent).expect("fault-free fork");
    });
    println!("fork crosses {} injection points:", trace.len());
    for site in trace.sites() {
        let n = trace.crossings.iter().filter(|c| c.site == site).count();
        println!("  {:>18}  ×{n}", site.name());
    }

    // 2. Die each way; the kernel must come back byte-identical.
    let mut clean = 0;
    for nth in 0..trace.len() {
        let (mut os, parent) = boot();
        let base = os.kernel.baseline();
        let (result, t) =
            with_plan(FaultPlan::passive().fail_nth_crossing(nth as u64), || {
                os.fork(parent)
            });
        assert!(result.is_err(), "injected fault must surface");
        assert_eq!(t.injected().len(), 1);
        os.kernel.leak_check(&base).expect("no leaks");
        os.kernel.check_invariants().expect("intact");
        // The fault cleared: the very same fork now succeeds.
        os.fork(parent).expect("retry succeeds");
        clean += 1;
    }
    println!("\n{clean}/{} fail points: clean error, zero leaks, retry ok", trace.len());
}
