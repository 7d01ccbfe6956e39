//! The program loader: builds a process image in an empty address space.
//!
//! This is the work `posix_spawn` (and exec) pays *instead of* fork's
//! duplication: a handful of VMA insertions plus demand-paging of the few
//! pages touched at startup. Crucially it is O(image), not O(parent) —
//! the flat line in Figure 1.

use crate::cache::ImageCache;
use crate::image::Image;
use fpr_kernel::{Errno, KResult, Kernel, LayoutInfo, Pid};
use fpr_mem::{Backing, Pfn, Prot, Share, VmArea, VmaKind, Vpn};

/// Maps `image` into the (empty) address space of `pid` at the bases given
/// by `layout`, then touches the startup pages.
///
/// With an exec [`ImageCache`]: on a hit the file-backed startup pages
/// are mapped copy-on-write from pinned cached frames (a PTE copy each —
/// no fault, no file read); on a miss the image loads normally and then
/// donates those frames to the cache for the next exec of the same
/// binary. The miss path costs exactly what the cacheless load does,
/// plus nothing: donation is pin bookkeeping and charges no cycles.
///
/// Fails with [`Errno::Enomem`] if commit cannot be charged, leaving any
/// partially created mappings in place for the caller to tear down via
/// process exit.
pub fn load(
    kernel: &mut Kernel,
    pid: Pid,
    image: &Image,
    layout: LayoutInfo,
    cache: Option<&mut ImageCache>,
) -> KResult<()> {
    kernel.span("image_load", "exec", |kernel| {
        map_segments(kernel, pid, image, layout)?;
        let Some(cache) = cache else {
            return touch_startup(kernel, pid, image, layout);
        };
        match cache.lookup(kernel, image.file_id) {
            Some(frames) => {
                // Hit: install each cached frame copy-on-write at its place
                // in the image. The startup reads then find resident pages;
                // only the stack write still demand-faults.
                for (off, pfn) in frames {
                    let exec = off < image.text_pages;
                    kernel.map_shared_frame(pid, Vpn(layout.text_base + off), pfn, exec)?;
                }
                touch_startup(kernel, pid, image, layout)
            }
            None => {
                touch_startup(kernel, pid, image, layout)?;
                // Donate the file-backed pages just faulted in:
                // write-protect them in the donor (their frames are about to
                // outlive it) and pin them into the cache.
                let mut donated: Vec<(u64, Pfn)> = Vec::new();
                for off in startup_file_offsets(image) {
                    let pte = kernel.cow_protect_page(pid, Vpn(layout.text_base + off))?;
                    donated.push((off, pte.pfn));
                }
                cache.insert(kernel, image.file_id, donated)
            }
        }
    })
}

/// File page offsets of the startup-touched pages that are file-backed
/// (cacheable): the entry page of text, and the first data page if the
/// image has initialised data. The other startup touches (BSS read when
/// there is no data, the stack write) hit anonymous zero-fill pages that
/// no cache can share.
fn startup_file_offsets(image: &Image) -> Vec<u64> {
    let mut offs = vec![image.entry_page];
    if image.data_pages > 0 && !offs.contains(&image.text_pages) {
        offs.push(image.text_pages);
    }
    offs
}

/// The startup faults every exec takes before `main()`: entry page of
/// text, first data-or-bss page, top stack page.
fn touch_startup(kernel: &mut Kernel, pid: Pid, image: &Image, layout: LayoutInfo) -> KResult<()> {
    kernel.read_mem(pid, Vpn(layout.text_base + image.entry_page))?;
    if image.data_pages + image.bss_pages > 0 {
        kernel.read_mem(pid, Vpn(layout.text_base + image.text_pages))?;
    }
    kernel.write_mem(pid, Vpn(layout.stack_base - 1), 0xdead)?;
    Ok(())
}

/// Creates the six image VMAs (text, data, bss, heap, guard, stack) and
/// records the layout, without touching any memory.
fn map_segments(kernel: &mut Kernel, pid: Pid, image: &Image, layout: LayoutInfo) -> KResult<()> {
    // Text: read-execute, file-backed, shared among instances.
    let text = VmArea {
        start: Vpn(layout.text_base),
        pages: image.text_pages,
        prot: Prot::RX,
        share: Share::Private,
        fork_policy: Default::default(),
        backing: Backing::File {
            file_id: image.file_id,
            page_offset: 0,
        },
        kind: VmaKind::Text,
    };
    kernel.mmap_at(pid, text)?;

    // Initialised data: read-write, file-backed, private (COW from file).
    if image.data_pages > 0 {
        let data = VmArea {
            start: Vpn(layout.text_base + image.text_pages),
            pages: image.data_pages,
            prot: Prot::RW,
            share: Share::Private,
            fork_policy: Default::default(),
            backing: Backing::File {
                file_id: image.file_id,
                page_offset: image.text_pages,
            },
            kind: VmaKind::Data,
        };
        kernel.mmap_at(pid, data)?;
    }

    // BSS: anonymous demand-zero right after data.
    if image.bss_pages > 0 {
        let bss = VmArea::anon(
            Vpn(layout.text_base + image.text_pages + image.data_pages),
            image.bss_pages,
            Prot::RW,
            VmaKind::Data,
        );
        kernel.mmap_at(pid, bss)?;
    }

    // Heap.
    if image.heap_pages > 0 {
        let heap = VmArea::anon(
            Vpn(layout.heap_base),
            image.heap_pages,
            Prot::RW,
            VmaKind::Heap,
        );
        kernel.mmap_at(pid, heap)?;
    }

    // Guard page below the stack, then the stack itself.
    let stack_low = layout
        .stack_base
        .checked_sub(image.stack_pages)
        .ok_or(Errno::Einval)?;
    let guard = VmArea {
        start: Vpn(stack_low - 1),
        pages: 1,
        prot: Prot::NONE,
        share: Share::Private,
        fork_policy: Default::default(),
        backing: Backing::Anon,
        kind: VmaKind::Guard,
    };
    kernel.mmap_at(pid, guard)?;
    let stack = VmArea::anon(Vpn(stack_low), image.stack_pages, Prot::RW, VmaKind::Stack);
    kernel.mmap_at(pid, stack)?;

    // Record the layout before touching memory (mmap hint uses it).
    {
        let p = kernel.process_mut(pid)?;
        p.layout = layout;
        p.name = image.name.clone();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aslr::randomize;
    use fpr_kernel::MachineConfig;
    use fpr_mem::vma::file_stamp;

    fn boot() -> (Kernel, Pid) {
        let mut k = Kernel::new(MachineConfig::default());
        let init = k.create_init("init").unwrap();
        (k, init)
    }

    #[test]
    fn load_creates_all_segments() {
        let (mut k, pid) = boot();
        let mut img = Image::small("sh");
        img.file_id = 77;
        let layout = randomize(1);
        load(&mut k, pid, &img, layout, None).unwrap();
        let p = k.process(pid).unwrap();
        // text, data, bss, heap, guard, stack = 6 VMAs.
        assert_eq!(k.memory(pid).unwrap().aspace.vma_count(), 6);
        assert_eq!(p.name, "sh");
        assert_eq!(p.layout, layout);
        // The entry page of text, the first data page, the first stack
        // page: the faults a real exec takes before main().
        assert_eq!(p.resident_pages(), 3);
    }

    #[test]
    fn text_reads_image_content() {
        let (mut k, pid) = boot();
        let mut img = Image::small("sh");
        img.file_id = 77;
        let layout = randomize(1);
        load(&mut k, pid, &img, layout, None).unwrap();
        let got = k.read_mem(pid, Vpn(layout.text_base + 3)).unwrap();
        assert_eq!(
            got,
            file_stamp(77, 3),
            "text page content comes from the image file"
        );
    }

    #[test]
    fn stack_guard_faults() {
        let (mut k, pid) = boot();
        let img = Image::small("sh");
        let layout = randomize(2);
        load(&mut k, pid, &img, layout, None).unwrap();
        let guard = Vpn(layout.stack_base - img.stack_pages - 1);
        assert_eq!(k.read_mem(pid, guard), Err(Errno::Efault));
        assert_eq!(k.write_mem(pid, guard, 1), Err(Errno::Efault));
    }

    #[test]
    fn text_is_not_writable() {
        let (mut k, pid) = boot();
        let img = Image::small("sh");
        let layout = randomize(3);
        load(&mut k, pid, &img, layout, None).unwrap();
        assert_eq!(
            k.write_mem(pid, Vpn(layout.text_base), 1),
            Err(Errno::Efault)
        );
    }

    #[test]
    fn loader_cost_is_o_image_not_o_memory() {
        // Loading into a machine with a huge busy process costs the same
        // as into an empty one.
        let (mut k, pid) = boot();
        let img = Image::small("sh");
        let c0 = k.cycles.total();
        load(&mut k, pid, &img, randomize(4), None).unwrap();
        let small_cost = k.cycles.total() - c0;

        let (mut k2, busy) = boot();
        let base = k2.mmap_anon(busy, 8192, Prot::RW, Share::Private).unwrap();
        k2.populate(busy, base, 8192).unwrap();
        let pid2 = k2.allocate_process(busy, "x").unwrap();
        let c1 = k2.cycles.total();
        load(
            &mut k2,
            pid2,
            &img,
            randomize(4),
            None,
        )
        .unwrap();
        let busy_cost = k2.cycles.total() - c1;
        assert_eq!(small_cost, busy_cost);
    }
}
