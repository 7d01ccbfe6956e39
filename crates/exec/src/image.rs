//! Simulated executable images ("SELF" — Simulated ELF).
//!
//! An image describes the segments the loader must map: text, initialised
//! data, BSS, plus the initial heap and stack sizes. Images are registered
//! in an [`ImageRegistry`] under filesystem paths; their `file_id` feeds
//! the file-backed content stamps of mapped pages, so a loaded process
//! really does "read" its text from the image.

use fpr_kernel::vfs::Ino;
use std::collections::BTreeMap;

/// One loadable program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Command name (`comm`).
    pub name: String,
    /// Backing file identifier (doubles as the content-stamp key).
    pub file_id: u64,
    /// Text segment size in pages (mapped read-execute).
    pub text_pages: u64,
    /// Initialised-data segment size in pages (mapped read-write, private).
    pub data_pages: u64,
    /// BSS size in pages (anonymous, demand-zero).
    pub bss_pages: u64,
    /// Initial heap reservation in pages.
    pub heap_pages: u64,
    /// Stack reservation in pages.
    pub stack_pages: u64,
    /// Entry point offset (pages into text).
    pub entry_page: u64,
}

impl Image {
    /// A small "utility binary" shape: 16 pages text, 4 data, 4 bss,
    /// 32 heap, 32 stack.
    pub fn small(name: &str) -> Image {
        Image {
            name: name.to_string(),
            file_id: 0,
            text_pages: 16,
            data_pages: 4,
            bss_pages: 4,
            heap_pages: 32,
            stack_pages: 32,
            entry_page: 0,
        }
    }

    /// A larger "application" shape (e.g. a server binary).
    pub fn large(name: &str) -> Image {
        Image {
            name: name.to_string(),
            file_id: 0,
            text_pages: 512,
            data_pages: 128,
            bss_pages: 256,
            heap_pages: 1024,
            stack_pages: 256,
            entry_page: 1,
        }
    }
}

/// A registry entry: a native binary or an interpreted script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Executable {
    /// A loadable binary image.
    Binary(Image),
    /// A `#!` script: resolved through its interpreter at exec time.
    Script {
        /// Path of the interpreter executable.
        interpreter: String,
    },
}

/// Registry of executable images, keyed by path.
#[derive(Debug, Default)]
pub struct ImageRegistry {
    images: BTreeMap<String, Executable>,
    /// file id → VFS inode holding the binary's bytes. Exec consults the
    /// inode's write generation to build an *effective* file id, so
    /// rewriting a binary on disk changes the stamps of freshly mapped
    /// pages and invalidates exec-image-cache entries.
    backing: BTreeMap<u64, Ino>,
    next_file_id: u64,
}

impl ImageRegistry {
    /// Creates an empty registry.
    pub fn new() -> ImageRegistry {
        ImageRegistry {
            images: BTreeMap::new(),
            backing: BTreeMap::new(),
            next_file_id: 1000,
        }
    }

    /// Binds the binary registered at `path` to the VFS inode holding its
    /// bytes. Returns false if no binary is registered there.
    pub fn bind_backing(&mut self, path: &str, ino: Ino) -> bool {
        match self.lookup(path) {
            Some(img) => {
                self.backing.insert(img.file_id, ino);
                true
            }
            None => false,
        }
    }

    /// The VFS inode backing `file_id`, if one was bound.
    pub fn backing_ino(&self, file_id: u64) -> Option<Ino> {
        self.backing.get(&file_id).copied()
    }

    /// Registers `image` at `path`, assigning it a fresh file id.
    /// Re-registering a path replaces the image (like reinstalling a
    /// binary).
    pub fn register(&mut self, path: &str, mut image: Image) -> u64 {
        self.next_file_id += 1;
        image.file_id = self.next_file_id;
        let id = image.file_id;
        self.images
            .insert(path.to_string(), Executable::Binary(image));
        id
    }

    /// Registers a `#!` script at `path`, to be run by `interpreter`.
    pub fn register_script(&mut self, path: &str, interpreter: &str) {
        self.images.insert(
            path.to_string(),
            Executable::Script {
                interpreter: interpreter.to_string(),
            },
        );
    }

    /// Looks up the binary image at `path`, resolving `#!` chains (up to
    /// 4 levels, matching kernels' interpreter-recursion limits). Returns
    /// the image plus the interpreter path prefix that must be prepended
    /// to argv (empty for plain binaries).
    pub fn resolve(&self, path: &str) -> Option<(&Image, Vec<String>)> {
        let mut prefix = Vec::new();
        let mut cur = path;
        for _ in 0..4 {
            match self.images.get(cur)? {
                Executable::Binary(img) => return Some((img, prefix)),
                Executable::Script { interpreter } => {
                    prefix.insert(0, interpreter.clone());
                    cur = interpreter;
                }
            }
        }
        None
    }

    /// Looks up the image at `path` (binaries only; scripts resolve via
    /// [`ImageRegistry::resolve`]).
    pub fn lookup(&self, path: &str) -> Option<&Image> {
        match self.images.get(path)? {
            Executable::Binary(img) => Some(img),
            Executable::Script { .. } => None,
        }
    }

    /// All registered paths.
    pub fn paths(&self) -> Vec<&str> {
        self.images.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_unique_file_ids() {
        let mut r = ImageRegistry::new();
        let a = r.register("/bin/a", Image::small("a"));
        let b = r.register("/bin/b", Image::small("b"));
        assert_ne!(a, b);
        assert_eq!(r.lookup("/bin/a").unwrap().file_id, a);
        assert_eq!(r.lookup("/bin/b").unwrap().file_id, b);
    }

    #[test]
    fn reregister_replaces() {
        let mut r = ImageRegistry::new();
        r.register("/bin/a", Image::small("a"));
        let id2 = r.register("/bin/a", Image::large("a2"));
        assert_eq!(r.lookup("/bin/a").unwrap().name, "a2");
        assert_eq!(r.lookup("/bin/a").unwrap().file_id, id2);
        let _ = id2;
    }

    #[test]
    fn lookup_missing_is_none() {
        let r = ImageRegistry::new();
        assert!(r.lookup("/bin/ghost").is_none());
    }

    #[test]
    fn shapes_are_sane() {
        let s = Image::small("s");
        let l = Image::large("l");
        assert!(l.text_pages > s.text_pages && l.heap_pages > s.heap_pages);
        assert!(s.entry_page < s.text_pages);
        assert!(l.entry_page < l.text_pages);
    }
}
