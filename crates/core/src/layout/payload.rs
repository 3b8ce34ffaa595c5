//! Payload memory: the one arena a deployment's PDX blocks live in.
//!
//! Every PDXearch phase strides across a block: one 64-vector group of
//! 128 `f32` dimensions spans eight 4 KiB pages, and a router reads every
//! page of its centroid block for every query. On 4 KiB pages that is a
//! TLB miss per page touched; on a 2 MiB page it is one per 2 MiB.
//!
//! So a deployment's blocks are written once into **one arena**, and
//! each [`PdxBlock`] is an immutable range of it ([`Payload`]); a clone
//! shares the arena, and the last one dropped frees it. An arena of at
//! least [`HUGE_PAGE`] bytes is allocated 2 MiB-aligned and, on Linux,
//! its whole 2 MiB pages are advised `MADV_HUGEPAGE` before anything is
//! written to them, so the kernel may back them with huge pages at the
//! first fault (`transparent_hugepage` in `madvise` or `always` mode).
//! The partial tail page and smaller arenas stay on 4 KiB pages: every
//! advised page is wholly written, so no resident size grows.
//!
//! On Linux such an arena is its own anonymous mapping, unmapped when
//! it is dropped, so its pages and their advice go back to the kernel
//! rather than into the allocator's free lists.
//!
//! A [`PayloadWriter`] builds an arena: it hands out the next block's
//! buffer, zeroed, for the caller to tile or read into, and
//! [`PayloadWriter::finish`] turns the buffers into blocks.

use super::PdxBlock;
use crate::codec::{invalid, Source};
use crate::kernels::lanes::Stored;
use std::alloc::{self, Layout};
use std::fmt;
use std::io;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::Arc;

/// A transparent huge page on x86-64 and on 4 KiB-granule aarch64.
pub const HUGE_PAGE: usize = 2 << 20;

/// Alignment of an arena smaller than a huge page: the allocator's
/// own (a `Vec`'s), so a small arena is a plain `malloc` — a stricter
/// one cost `store_churn` ≈ 1 MiB of peak resident size in allocator
/// padding.
const SMALL_ALIGN: usize = 16;

/// An allocation of `len` elements, written through a [`PayloadWriter`]
/// and read-only once shared.
struct Arena<E> {
    ptr: NonNull<E>,
    len: usize,
    advised: usize,
    /// Mapped by [`huge::map`] rather than allocated.
    mapped: bool,
}

// SAFETY: an arena is plain `f32` / `u8` memory (`Stored` is sealed to
// those); it is written only through its writer's `&mut` and only read
// once it is shared.
unsafe impl<E: Stored> Send for Arena<E> {}
// SAFETY: as above — a shared arena is never written.
unsafe impl<E: Stored> Sync for Arena<E> {}

/// `len` elements' layout: 2 MiB-aligned from [`HUGE_PAGE`] bytes up,
/// [`SMALL_ALIGN`]ed below; `None` for no bytes at all.
fn layout<E>(len: usize) -> Option<Layout> {
    let bytes = len
        .checked_mul(std::mem::size_of::<E>())
        .expect("payload arena size overflows");
    let align = if bytes >= HUGE_PAGE {
        HUGE_PAGE
    } else {
        SMALL_ALIGN
    };
    (bytes > 0).then(|| Layout::from_size_align(bytes, align).expect("payload arena layout"))
}

impl<E: Stored> Arena<E> {
    fn new(len: usize) -> Self {
        let Some(layout) = layout::<E>(len) else {
            return Self {
                ptr: NonNull::dangling(),
                len: 0,
                advised: 0,
                mapped: false,
            };
        };
        let mapped = huge::map(layout.size());
        let (raw, advised) = mapped.unwrap_or_else(|| {
            // SAFETY: the layout has a non-zero size.
            (unsafe { alloc::alloc(layout) }, 0)
        });
        let Some(ptr) = NonNull::new(raw.cast::<E>()) else {
            alloc::handle_alloc_error(layout)
        };
        let metrics = crate::obs::payload_metrics();
        metrics.bytes.add(layout.size() as u64);
        metrics.advised.add(advised as u64);
        Self {
            ptr,
            len,
            advised,
            mapped: mapped.is_some(),
        }
    }
}

impl<E> Drop for Arena<E> {
    fn drop(&mut self) {
        if let Some(layout) = layout::<E>(self.len) {
            crate::obs::payload_metrics()
                .bytes
                .sub(layout.size() as u64);
            let raw = self.ptr.as_ptr().cast::<u8>();
            if self.mapped {
                huge::unmap(raw, layout.size());
            } else {
                // SAFETY: an arena `huge::map` did not make came from
                // `alloc` with this very layout.
                unsafe { alloc::dealloc(raw, layout) }
            }
        }
    }
}

/// Arenas of [`HUGE_PAGE`] bytes or more, on Linux: mapped by the arena
/// itself, so a dropped arena's pages — and its advice — go back to the
/// kernel at once instead of into the allocator's free lists, where a
/// later small allocation would fault a whole advised 2 MiB page in.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod huge {
    use super::HUGE_PAGE;
    use std::os::raw::{c_int, c_long, c_void};

    const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;
    const MADV_HUGEPAGE: c_int = 14;
    const PAGE: usize = 4096;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            off: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// The mapped length of an arena of `bytes`: whole 4 KiB pages.
    fn span(bytes: usize) -> usize {
        bytes.div_ceil(PAGE) * PAGE
    }

    /// Maps `bytes` (zero-filled, nothing faulted in) at a 2 MiB-aligned
    /// address and advises its whole 2 MiB pages `MADV_HUGEPAGE` before
    /// anything is written; returns the base and the bytes the kernel
    /// accepted the advice for. `None` below [`HUGE_PAGE`] bytes or when
    /// the kernel refuses the mapping (the caller allocates instead).
    pub(super) fn map(bytes: usize) -> Option<(*mut u8, usize)> {
        if bytes < HUGE_PAGE {
            return None;
        }
        let (len, over) = (span(bytes), span(bytes) + HUGE_PAGE);
        // SAFETY: an anonymous private mapping of fresh memory; every
        // argument is a constant or a length, and the result is checked.
        let raw = unsafe {
            mmap(
                std::ptr::null_mut(),
                over,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        if raw as isize == -1 {
            return None;
        }
        let raw = raw.cast::<u8>();
        let head = raw.align_offset(HUGE_PAGE);
        let whole = bytes / HUGE_PAGE * HUGE_PAGE;
        // SAFETY: `head < HUGE_PAGE` and `head + len <= over`, so the
        // trimmed head and tail and the advised pages all lie inside the
        // mapping just made, page-aligned; nothing else refers to it.
        unsafe {
            let base = raw.add(head);
            if head > 0 {
                munmap(raw.cast(), head);
            }
            munmap(base.add(len).cast(), over - head - len);
            let accepted = madvise(base.cast(), whole, MADV_HUGEPAGE) == 0;
            Some((base, if accepted { whole } else { 0 }))
        }
    }

    /// Unmaps the arena of `bytes` that [`map`] made at `base`.
    pub(super) fn unmap(base: *mut u8, bytes: usize) {
        // SAFETY: `map` mapped this very span at `base`; the arena is
        // being dropped, so nothing reads it any more.
        unsafe { munmap(base.cast(), span(bytes)) };
    }
}

/// Elsewhere every arena comes from the global allocator, unadvised.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod huge {
    pub(super) fn map(_bytes: usize) -> Option<(*mut u8, usize)> {
        None
    }

    pub(super) fn unmap(_base: *mut u8, _bytes: usize) {
        unreachable!("no arena is mapped here")
    }
}

/// A block's values: one range of a shared, immutable arena.
#[derive(Clone)]
pub struct Payload<E: Stored> {
    arena: Arc<Arena<E>>,
    start: usize,
    len: usize,
}

impl<E: Stored> Payload<E> {
    /// Whether `self` and `other` are ranges of the same arena.
    pub fn same_arena(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.arena, &other.arena)
    }

    /// Bytes of the whole arena this range lies in.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len * std::mem::size_of::<E>()
    }

    /// Bytes of the arena advised `MADV_HUGEPAGE`: its whole 2 MiB
    /// pages, or 0 (a smaller arena, another OS, advice refused).
    pub fn advised_bytes(&self) -> usize {
        self.arena.advised
    }
}

impl<E: Stored> Deref for Payload<E> {
    type Target = [E];

    #[inline]
    fn deref(&self) -> &[E] {
        // SAFETY: `start..start + len` is a range the writer handed out
        // once and saw filled; the arena is alive while `self` holds it
        // and is never written once shared.
        unsafe { std::slice::from_raw_parts(self.arena.ptr.as_ptr().add(self.start), self.len) }
    }
}

impl<E: Stored + PartialEq> PartialEq for Payload<E> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<E: Stored> fmt::Debug for Payload<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload")
            .field("len", &self.len)
            .field("arena_bytes", &self.arena_bytes())
            .finish()
    }
}

/// The shape of one block a [`PayloadWriter`] holds.
struct Shape {
    start: usize,
    n_vectors: usize,
    n_dims: usize,
    group_size: usize,
}

/// Writes the blocks of one arena in order; [`PayloadWriter::finish`]
/// hands them out, every one a range of that arena.
///
/// ```
/// use pdx_core::layout::PayloadWriter;
///
/// let rows = [1.0, 2.0, 3.0, 4.0f32, 5.0, 6.0];
/// let mut writer = PayloadWriter::new(rows.len());
/// writer.tile_rows(&rows[..4], 2, 2, 64);
/// writer.tile_rows(&rows[4..], 1, 2, 64);
/// let blocks = writer.finish();
/// assert_eq!(blocks[0].as_slice(), &[1.0, 3.0, 2.0, 4.0]);
/// assert!(blocks[0].payload().same_arena(blocks[1].payload()));
/// ```
pub struct PayloadWriter<E: Stored> {
    arena: Arena<E>,
    filled: usize,
    blocks: Vec<Shape>,
}

impl<E: Stored> PayloadWriter<E> {
    /// A writer of an arena of `capacity` values.
    pub fn new(capacity: usize) -> Self {
        Self {
            arena: Arena::new(capacity),
            filled: 0,
            blocks: Vec::new(),
        }
    }

    /// Values not yet handed out.
    pub fn remaining(&self) -> usize {
        self.arena.len - self.filled
    }

    /// The next block's buffer, `n_vectors × n_dims` zeroed values for
    /// the caller to fill in group-tiled order.
    ///
    /// # Panics
    /// Panics if the block does not fit what remains or `group_size == 0`.
    pub fn push(&mut self, n_vectors: usize, n_dims: usize, group_size: usize) -> &mut [E] {
        let (p, n) = self.carve(n_vectors, n_dims, group_size);
        // SAFETY: `carve` handed out `p..p + n` inside the arena, never
        // before; a mapped arena is zero-filled by the kernel and an
        // allocated one is zeroed here, so every value is a valid `f32`
        // / `u8` before the slice is formed.
        unsafe {
            if !self.arena.mapped {
                p.write_bytes(0, n);
            }
            std::slice::from_raw_parts_mut(p, n)
        }
    }

    /// Reads the next block, `n_vectors × n_dims` values stored as their
    /// little-endian bytes, straight from `src` into the arena — one
    /// `fill`, and for a [`Source::DIRECT`] source no zeroing first.
    /// `what` names the count's field for the error, as in
    /// [`read_vec`](crate::codec::read_vec). On an error the block is not
    /// added.
    ///
    /// # Errors
    /// `InvalidData` naming `what` when the source has fewer bytes left
    /// or ends first; other IO errors are propagated.
    ///
    /// # Panics
    /// As [`PayloadWriter::push`].
    pub fn read_block<S: Source>(
        &mut self,
        src: &mut S,
        n_vectors: usize,
        n_dims: usize,
        group_size: usize,
        what: &str,
    ) -> io::Result<()> {
        let size = std::mem::size_of::<E>();
        let bytes = n_vectors.saturating_mul(n_dims).saturating_mul(size);
        if let Some(left) = src.remaining().filter(|&left| bytes as u64 > left) {
            return Err(invalid(format!(
                "{what}: {n_vectors} vectors need {bytes} bytes, {left} present"
            )));
        }
        let (p, n) = self.carve(n_vectors, n_dims, group_size);
        // SAFETY: `carve` handed out `p..p + n` inside the arena, never
        // before. A mapped arena is zero-filled by the kernel; an
        // allocated one is zeroed here unless the source is `DIRECT`,
        // whose `fill` only ever writes its buffer (the promise
        // `read_vec` relies on too). `Stored` is `f32` or `u8`: no
        // padding, every bit pattern valid, so the bytes `fill` writes
        // leave valid values. On an error the range is taken back below
        // and no `Payload` ever covers it.
        let buf = unsafe {
            if !self.arena.mapped && !S::DIRECT {
                p.write_bytes(0, n);
            }
            std::slice::from_raw_parts_mut(p.cast::<u8>(), n * size)
        };
        let filled = src.fill(buf, what).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => invalid(format!(
                "{what}: count {n_vectors} exceeds the bytes present"
            )),
            _ => e,
        });
        if filled.is_err() {
            self.blocks.pop();
            self.filled -= n;
            return filled;
        }
        if cfg!(target_endian = "big") {
            buf.chunks_exact_mut(size).for_each(<[u8]>::reverse);
        }
        Ok(())
    }

    /// Takes the next `n_vectors × n_dims` values of the arena for a
    /// block; returns where they start and how many there are.
    fn carve(&mut self, n_vectors: usize, n_dims: usize, group_size: usize) -> (*mut E, usize) {
        assert!(group_size > 0, "group size must be positive");
        let n = n_vectors
            .checked_mul(n_dims)
            .filter(|&n| n <= self.remaining())
            .expect("block does not fit the payload arena");
        let start = self.filled;
        self.filled += n;
        self.blocks.push(Shape {
            start,
            n_vectors,
            n_dims,
            group_size,
        });
        (self.arena.ptr.as_ptr().wrapping_add(start), n)
    }

    /// Tiles `n_vectors` rows into the next block: vector `v` of the
    /// block is `row(v)`. The one row → tile loop of the layout.
    pub fn tile<'r>(
        &mut self,
        n_vectors: usize,
        n_dims: usize,
        group_size: usize,
        row: impl Fn(usize) -> &'r [E],
    ) where
        E: 'r,
    {
        let out = self.push(n_vectors, n_dims, group_size);
        let mut group = Vec::with_capacity(group_size.min(n_vectors));
        let mut at = 0;
        for v0 in (0..n_vectors).step_by(group_size) {
            group.clear();
            group.extend((v0..n_vectors.min(v0 + group_size)).map(&row));
            for d in 0..n_dims {
                for (slot, r) in out[at..at + group.len()].iter_mut().zip(&group) {
                    *slot = r[d];
                }
                at += group.len();
            }
        }
    }

    /// Tiles row-major `rows` (`n_vectors × n_dims`) into the next block.
    ///
    /// # Panics
    /// Panics if the buffer size disagrees with the dimensions.
    pub fn tile_rows(&mut self, rows: &[E], n_vectors: usize, n_dims: usize, group_size: usize) {
        assert_eq!(
            rows.len(),
            n_vectors * n_dims,
            "row buffer does not match dimensions"
        );
        self.tile(n_vectors, n_dims, group_size, |v| {
            &rows[v * n_dims..][..n_dims]
        });
    }

    /// Tiles the `ids` rows of the row-major `all_rows` into the next
    /// block — the IVF bucket construction path.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn tile_row_ids(&mut self, all_rows: &[E], n_dims: usize, ids: &[u32], group_size: usize) {
        self.tile(ids.len(), n_dims, group_size, |v| {
            &all_rows[ids[v] as usize * n_dims..][..n_dims]
        });
    }

    /// The blocks written, in order, all sharing the arena.
    pub fn finish(self) -> Vec<PdxBlock<E>> {
        let arena = Arc::new(self.arena);
        self.blocks
            .into_iter()
            .map(|s| {
                let data = Payload {
                    arena: Arc::clone(&arena),
                    start: s.start,
                    len: s.n_vectors * s.n_dims,
                };
                PdxBlock::from_payload(data, s.n_vectors, s.n_dims, s.group_size)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_of(values: usize) -> PdxBlock<u8> {
        let mut w = PayloadWriter::<u8>::new(values);
        w.push(values, 1, 64).fill(7);
        w.finish().pop().unwrap()
    }

    /// Whether this kernel takes `MADV_HUGEPAGE` at all.
    fn thp_present() -> bool {
        cfg!(target_os = "linux")
            && std::path::Path::new("/sys/kernel/mm/transparent_hugepage/enabled").exists()
    }

    #[test]
    fn an_arena_of_a_huge_page_or_more_is_aligned_and_advises_its_whole_pages() {
        for bytes in [HUGE_PAGE, HUGE_PAGE + 1, 3 * HUGE_PAGE - 1, 4 * HUGE_PAGE] {
            let block = arena_of(bytes);
            let p = block.payload();
            assert_eq!(
                p.arena.ptr.as_ptr() as usize % HUGE_PAGE,
                0,
                "{bytes} bytes"
            );
            assert_eq!(p.arena_bytes(), bytes);
            if thp_present() {
                assert_eq!(p.advised_bytes(), bytes / HUGE_PAGE * HUGE_PAGE, "{bytes}");
            }
            assert!(block.as_slice().iter().all(|&c| c == 7));
        }
    }

    #[test]
    fn a_smaller_arena_advises_nothing() {
        for bytes in [0, 1, 4096, HUGE_PAGE - 1] {
            let block = arena_of(bytes);
            assert_eq!(block.payload().advised_bytes(), 0, "{bytes} bytes");
            if bytes > 0 {
                assert_eq!(block.payload().arena.ptr.as_ptr() as usize % SMALL_ALIGN, 0);
            }
        }
    }

    #[test]
    fn a_clone_shares_the_arena_and_the_last_drop_frees_it() {
        let rows: Vec<f32> = (0..60).map(|i| i as f32).collect();
        let mut w = PayloadWriter::new(rows.len());
        w.tile_rows(&rows[..40], 10, 4, 4);
        w.tile_rows(&rows[40..], 5, 4, 4);
        let mut blocks = w.finish();
        let second = blocks.pop().unwrap();
        let copy = blocks[0].clone();
        assert!(copy.payload().same_arena(second.payload()));
        assert_eq!(copy.as_slice().as_ptr(), blocks[0].as_slice().as_ptr());
        let weak = Arc::downgrade(&copy.payload().arena);
        drop(blocks);
        drop(second);
        // The clone alone keeps the arena, and reads it (under ASan a
        // freed arena would fail here).
        assert_eq!(copy.to_rows(), &rows[..40]);
        assert!(weak.upgrade().is_some());
        drop(copy);
        assert!(weak.upgrade().is_none(), "the last drop frees the arena");
    }

    #[test]
    fn the_gauge_follows_arenas_in_and_out() {
        let bytes = || crate::obs::payload_metrics().bytes.get();
        // Other tests allocate concurrently; this arena's own bytes are
        // counted in the gauge while it lives.
        let block = arena_of(3 * HUGE_PAGE);
        assert!(bytes() >= 3 * HUGE_PAGE as u64);
        drop(block);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_block_past_the_capacity_panics() {
        let mut w = PayloadWriter::<f32>::new(10);
        w.push(3, 4, 64);
    }
}
