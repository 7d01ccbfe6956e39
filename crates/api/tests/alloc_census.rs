//! What a request asks of the host's allocator, counted.
//!
//! The cost model prices a page-table node, a VMA record and a PCB in
//! cycles; on the host each is also a `malloc`, which the model does not
//! see and a clock sees only through noise. This test counts them: a
//! counting `#[global_allocator]` over `System`, the `spawn_small` world of
//! the repo benchmark (a 1 MiB parent, the warm pool prefilled), 200
//! requests to warm every table and spare list, then for each creation path
//! of [`CreationPath`] the allocations of create → populate four pages →
//! exit → reap — with the pool's refill tick counted into `posix_spawn`,
//! whose checkout is what empties the pool.
//!
//! Counts repeat exactly, so two runs must agree to the last allocation. No
//! steady-state request may ask for a page or more at once: a page-table
//! node is a page, and those are recycled (`docs/ARCHITECTURE.md`, "Spare
//! lists"). And a warm-pool checkout with the refill behind it
//! stays within 24 allocations — the two processes took 56, six of them of
//! a page or more, before page-table memory got a life cycle of its own.

use forkroad_core::kit::{machine_for, world, CreationPath, Work};
use fpr_trace::ProcessShape;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What this thread has asked of the allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Asked {
    /// Allocations (`alloc`, `alloc_zeroed`, and every `realloc`).
    count: u64,
    /// Bytes asked for.
    bytes: u64,
    /// Allocations of a page or more.
    pages: u64,
}

impl std::ops::Sub for Asked {
    type Output = Asked;
    fn sub(self, o: Asked) -> Asked {
        Asked { count: self.count - o.count, bytes: self.bytes - o.bytes, pages: self.pages - o.pages }
    }
}

thread_local! {
    // Const-initialised and without a destructor: reading it allocates
    // nothing, so the allocator may.
    static ASKED: Cell<Asked> = const { Cell::new(Asked { count: 0, bytes: 0, pages: 0 }) };
}

fn note(size: usize) {
    // A thread that is being torn down has no counters left; nobody reads
    // what it would have counted.
    let _ = ASKED.try_with(|a| {
        let mut asked = a.get();
        asked.count += 1;
        asked.bytes += size as u64;
        asked.pages += (size >= 4096) as u64;
        a.set(asked);
    });
}

struct Counting;

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returned; the counting beside it touches a thread-local
// `Cell` of plain integers and neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BIN: &str = "/bin/tool";
const POOL_TARGET: usize = 4;
const WARM_UP: usize = 200;
/// Requests measured per path; the table reports their mean.
const MEASURED: u64 = 8;

const PATHS: [CreationPath; 5] = [
    CreationPath::Spawn(BIN),
    CreationPath::ForkOnDemand(BIN),
    CreationPath::ForkCow(BIN),
    CreationPath::VforkExec(BIN),
    CreationPath::Xproc(BIN),
];

/// One census: what [`MEASURED`] requests of each path asked for, warm.
fn census() -> Vec<(&'static str, Asked)> {
    let (mut os, parent) = world(machine_for(256), ProcessShape::with_heap(256));
    os.enable_spawn_fastpath().unwrap();
    os.pool_prefill(BIN, POOL_TARGET).unwrap();
    let mut request = |path: CreationPath| {
        if matches!(path, CreationPath::Spawn(_)) {
            os.pool_autoscale(BIN, POOL_TARGET).unwrap();
        }
        os.serve(parent, path, Work::Populate(4)).unwrap();
    };
    for i in 0..WARM_UP {
        request(PATHS[i % PATHS.len()]);
    }
    let measure = |path: CreationPath| {
        let before = ASKED.with(Cell::get);
        (0..MEASURED).for_each(|_| request(path));
        (label(path), ASKED.with(Cell::get) - before)
    };
    PATHS.map(measure).to_vec()
}

/// The benchmark's name for the path: its `posix_spawn` is the fast one.
fn label(path: CreationPath) -> &'static str {
    if matches!(path, CreationPath::Spawn(_)) {
        "spawn(fastpath)"
    } else {
        path.label()
    }
}

#[test]
fn a_steady_state_request_asks_the_host_for_no_page() {
    let first = census();
    let second = census();
    println!("host allocations per request, mean of {MEASURED} (count, bytes, of a page or more)");
    for (path, asked) in &first {
        let per = |n: u64| n as f64 / MEASURED as f64;
        println!("{path:<22} {:>6.1} {:>8.0} {:>4.1}", per(asked.count), per(asked.bytes), per(asked.pages));
    }
    assert_eq!(first, second, "the counts do not repeat");
    for (path, asked) in &first {
        assert_eq!(asked.pages, 0, "{path}: a steady-state request asked the host for a page or more");
    }
    let (_, spawn) = first[0];
    assert!(
        spawn.count <= 24 * MEASURED,
        "spawn(fastpath): {} allocations over {MEASURED} requests, more than 24 each",
        spawn.count
    );
}
