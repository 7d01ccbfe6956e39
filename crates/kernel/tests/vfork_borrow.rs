//! A vfork borrower's memory syscalls act on the lender's address space.
//!
//! `write_mem`/`mprotect`/`madvise` always resolved the space owner;
//! `mmap_anon`/`mmap_at`/`munmap` did not, so a borrower's mapping went
//! into the placeholder space its PCB carries, could not be written, and
//! its commit charge outlived the child.

use fpr_kernel::{Kernel, SpaceRef};
use fpr_mem::{Prot, Share};

#[test]
fn vfork_borrower_mmap_lands_in_lender() {
    let mut k = Kernel::boot();
    let parent = k.create_init("init").unwrap();
    let heap = k.mmap_anon(parent, 8, Prot::RW, Share::Private).unwrap();
    k.populate(parent, heap, 8).unwrap();
    let base = k.baseline();

    // A child borrowing the parent's space, built from the kernel
    // plumbing vfork itself uses.
    let child = k.allocate_process(parent, "").unwrap();
    k.process_mut(child).unwrap().space_ref = SpaceRef::BorrowedFrom(parent);
    k.vfork_park(parent, child).unwrap();

    let region = k.mmap_anon(child, 4, Prot::RW, Share::Private).unwrap();
    k.write_mem(child, region, 0xfeed)
        .expect("the borrower can write what it mapped");
    assert_eq!(
        k.read_mem(parent, region),
        Ok(0xfeed),
        "the mapping is the lender's: visible in the parent"
    );
    assert!(k.process(parent).unwrap().aspace.vma_at(region).is_some());
    assert_eq!(
        k.process(child).unwrap().aspace.vma_count(),
        0,
        "nothing may land in the borrower's placeholder space"
    );
    // A second region is mapped and unmapped again by the borrower.
    let scratch = k.mmap_anon(child, 4, Prot::RW, Share::Private).unwrap();
    assert_ne!(
        scratch, region,
        "the free-range search sees the lender's VMAs"
    );
    k.munmap(child, scratch, 4).unwrap();
    assert!(k.process(parent).unwrap().aspace.vma_at(scratch).is_none());

    k.exit(child, 0).unwrap();
    assert_eq!(k.waitpid(parent, Some(child)), Ok(Some((child, 0))));
    // What the child mapped in the parent stays the parent's; give it
    // back and the world must be exactly the pre-vfork one.
    k.munmap(parent, region, 4).unwrap();
    k.leak_check(&base)
        .unwrap_or_else(|v| panic!("borrower mmap leaked:\n  {}", v.join("\n  ")));
    k.check_invariants().unwrap();
}
