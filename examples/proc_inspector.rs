//! Inspect what fork actually duplicated, through the simulator's
//! /proc-style views: maps, status, meminfo, memory pressure and a ps
//! listing.
//!
//! Run with: `cargo run --example proc_inspector`

use forkroad::api::SpawnAttrs;
use forkroad::kernel::mm::Madvice;
use forkroad::mem::{Prot, Share};
use forkroad::{Os, OsConfig};

fn main() {
    let mut os = Os::boot(OsConfig::default());
    let init = os.init;

    // A worker with a real image, some heap, and a DMA-style region the
    // child must not inherit.
    let worker = os
        .spawn(init, "/bin/server", &[], &SpawnAttrs::default())
        .unwrap();
    let heap = os
        .kernel
        .mmap_anon(worker, 64, Prot::RW, Share::Private)
        .unwrap();
    os.kernel.populate(worker, heap, 64).unwrap();
    let dma = os
        .kernel
        .mmap_anon(worker, 16, Prot::RW, Share::Private)
        .unwrap();
    os.kernel
        .madvise(worker, dma, 16, Madvice::DontFork)
        .unwrap();
    let secrets = os
        .kernel
        .mmap_anon(worker, 4, Prot::RW, Share::Private)
        .unwrap();
    os.kernel
        .madvise(worker, secrets, 4, Madvice::WipeOnFork)
        .unwrap();

    println!("=== /proc/{worker}/maps (parent) ===");
    println!("{}", os.kernel.proc_maps(worker).unwrap());

    let child = os.fork(worker).unwrap();
    println!("=== /proc/{child}/maps (forked child) ===");
    println!("{}", os.kernel.proc_maps(child).unwrap());
    println!("note: the dontfork region is absent; the wipeonfork region is empty.\n");

    println!("=== /proc/{child}/status ===");
    println!("{}", os.kernel.proc_status(child).unwrap());

    println!("=== /proc/meminfo ===");
    println!("{}", os.kernel.proc_meminfo());

    println!("=== /proc/pressure/memory ===");
    println!("{}", os.kernel.proc_pressure_memory());

    println!("=== ps ===");
    println!("{}", os.kernel.ps());
}
