//! Make fork fail every way it can, and prove every failure clean.
//!
//! ```sh
//! cargo run --example fault_sweep
//! ```

use forkroad::faults::sweep;
use forkroad::kernel::MachineConfig;
use forkroad::kit::world;
use forkroad::trace::ProcessShape;

fn main() {
    // A shell-sized parent on the default machine, and the kernel as it
    // was before the fork.
    let boot = || {
        let (os, parent) = world(MachineConfig::default(), ProcessShape::shell());
        let base = os.kernel.baseline();
        (os, parent, base)
    };

    // Count the ways this fork can die, then die each way: the kernel must
    // come back byte-identical.
    let mut clean = 0;
    let trace = sweep(None, boot, |(os, parent, _)| os.fork(*parent), |mut point| {
        if point.fault.is_none() {
            point.result.expect("fault-free fork");
            return;
        }
        assert!(point.result.is_err(), "injected fault must surface");
        let (os, parent, base) = &mut point.world;
        os.kernel.leak_check(base).expect("no leaks");
        os.kernel.check_invariants().expect("intact");
        // The fault cleared: the very same fork now succeeds.
        os.fork(*parent).expect("retry succeeds");
        clean += 1;
    });

    println!("fork crosses {} injection points:", trace.len());
    for site in trace.sites() {
        let n = trace.crossings.iter().filter(|c| c.site == site).count();
        println!("  {:>18}  ×{n}", site.name());
    }
    println!("\n{clean}/{} fail points: clean error, zero leaks, retry ok", trace.len());
}
