//! Dynamically-typed message payloads, allocated from a bump arena.
//!
//! Protocol crates each define their own message enums; the simulator moves
//! them around as cheaply-clonable, dynamically-typed [`Payload`] handles.
//! Receivers recover the concrete type with [`Payload::downcast_ref`].
//!
//! # Arena allocation
//!
//! Every simulated packet wraps its message in a `Payload`, so payload
//! allocation sits squarely on the engine's hot path. The previous
//! `Rc<dyn Any>` representation paid one global-allocator round trip per
//! packet; at millions of events per second that malloc/free pair is a
//! measurable slice of the ~100 ns/event budget. Payload blocks instead
//! come from a thread-local arena:
//!
//! * backing memory is carved from 64 KiB **chunks** obtained from the
//!   global allocator with a bump pointer — one malloc per 64 KiB of
//!   payload traffic, not one per packet;
//! * blocks are rounded up to a small set of **size classes** and, when a
//!   payload's last reference drops, pushed onto the class's free list;
//! * the next allocation of that class is a free-list pop: after warm-up
//!   the arena hits a steady state where packet churn touches the global
//!   allocator not at all.
//!
//! # Reset lifecycle
//!
//! The arena never returns memory to the operating system. Recycling is
//! per-block and immediate (last reference drop → free list), so the
//! arena's footprint is the *high-water mark* of concurrently-live
//! payload bytes — bounded in practice by socket buffers, TCP windows,
//! and protocol flow control, not by the length of the run. Chunks stay
//! allocated for the thread's lifetime: a simulation that ends leaves its
//! free lists warm for the next `Sim` on the same thread (the common
//! pattern in tests and benchmarks), and payloads that outlive the pool
//! during thread teardown never touch freed chunk memory. Oversized
//! payloads (beyond the largest class) bypass the arena and use the
//! global allocator directly.
//!
//! # Single-threaded by construction
//!
//! The simulator runs each [`crate::sim::Sim`] on one thread, so a
//! payload's reference count is a plain [`Cell`] — no atomic
//! read-modify-write on clone or drop — and `Payload` is neither `Send`
//! nor `Sync`. The compiler enforces the pairing: a handle can never
//! reach another thread, where a racing non-atomic count (or a block
//! freed into the wrong thread's pool) would be unsound. Wrapped values
//! may be `!Send` themselves (`Rc`-shared batches, for instance).

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::mem::{align_of, size_of};
use std::ptr::NonNull;

/// Block size classes (bytes), header included. Chosen to cover the
/// protocol message enums in use: most fit the first two classes.
const CLASS_SIZES: [usize; 4] = [64, 128, 256, 512];
/// `class` value marking a block allocated directly from the global
/// allocator (oversized or over-aligned payloads).
const CLASS_GLOBAL: u8 = u8::MAX;
/// Alignment of every pooled block (classes are multiples of this, so
/// carving a chunk preserves it).
const BLOCK_ALIGN: usize = 16;
/// Bytes per arena chunk.
const CHUNK_SIZE: usize = 64 * 1024;

/// Header at the start of every payload block; the value lives at
/// `offset` bytes from the block start.
struct Header {
    strong: Cell<u32>,
    /// Size-class index, or [`CLASS_GLOBAL`].
    class: u8,
    /// Byte offset of the value within the block.
    offset: u32,
    /// Total block layout, for the [`CLASS_GLOBAL`] dealloc path.
    size: u32,
    align: u32,
    type_id: TypeId,
    /// Drops the value in place (monomorphized per payload type).
    drop_value: unsafe fn(*mut Header),
}

fn round_up(n: usize, align: usize) -> usize {
    (n + align - 1) & !(align - 1)
}

fn class_for(total: usize) -> Option<u8> {
    CLASS_SIZES.iter().position(|&s| total <= s).map(|c| c as u8)
}

/// Per-thread block pool: free lists per size class plus the current
/// bump chunk.
#[derive(Default)]
struct Pool {
    free: [Vec<NonNull<u8>>; CLASS_SIZES.len()],
    /// Bump cursor into the current chunk.
    chunk: Option<NonNull<u8>>,
    chunk_used: usize,
    /// Cumulative chunk bytes obtained from the global allocator.
    chunk_bytes: usize,
}

impl Pool {
    fn alloc_block(&mut self, class: u8) -> NonNull<u8> {
        if let Some(p) = self.free[class as usize].pop() {
            return p;
        }
        let size = CLASS_SIZES[class as usize];
        if self.chunk.is_none() || self.chunk_used + size > CHUNK_SIZE {
            // SAFETY: CHUNK_SIZE/BLOCK_ALIGN form a valid non-zero layout.
            let layout = Layout::from_size_align(CHUNK_SIZE, BLOCK_ALIGN).expect("chunk layout");
            let p = unsafe { alloc(layout) };
            let Some(p) = NonNull::new(p) else { handle_alloc_error(layout) };
            // Chunks are intentionally never freed (see module docs):
            // recycled blocks keep referencing them for the thread's
            // lifetime, including during thread-local teardown.
            self.chunk = Some(p);
            self.chunk_used = 0;
            self.chunk_bytes += CHUNK_SIZE;
        }
        let base = self.chunk.expect("chunk present");
        // SAFETY: chunk_used + size <= CHUNK_SIZE, so the block is in
        // bounds; class sizes are multiples of BLOCK_ALIGN, so every
        // carved block stays BLOCK_ALIGN-aligned.
        let block = unsafe { NonNull::new_unchecked(base.as_ptr().add(self.chunk_used)) };
        self.chunk_used += size;
        block
    }

    fn free_block(&mut self, class: u8, block: NonNull<u8>) {
        self.free[class as usize].push(block);
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Snapshot of the thread's payload arena (tests and diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaStats {
    /// Blocks currently on free lists, summed over size classes.
    pub free_blocks: usize,
    /// Total bytes of chunk memory obtained from the global allocator.
    pub chunk_bytes: usize,
}

/// Reads the calling thread's arena state.
pub fn arena_stats() -> ArenaStats {
    POOL.with(|p| {
        let p = p.borrow();
        ArenaStats { free_blocks: p.free.iter().map(Vec::len).sum(), chunk_bytes: p.chunk_bytes }
    })
}

unsafe fn drop_value_of<T>(h: *mut Header) {
    // SAFETY: caller guarantees `h` heads a live block whose value is a
    // `T` at `offset` (both written by `Payload::new::<T>`).
    unsafe {
        let value = (h as *mut u8).add((*h).offset as usize) as *mut T;
        std::ptr::drop_in_place(value);
    }
}

/// A reference-counted, dynamically-typed message body backed by the
/// thread-local payload arena.
///
/// The count is non-atomic, so a `Payload` must never cross threads
/// (module docs, "Single-threaded by construction"); the type is not
/// `Send`, and this must not compile:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<simnet::payload::Payload>();
/// ```
pub struct Payload(NonNull<Header>);

impl Payload {
    /// Wraps a concrete message value.
    pub fn new<T: Any>(value: T) -> Payload {
        let align = align_of::<T>().max(align_of::<Header>());
        let offset = round_up(size_of::<Header>(), align);
        let total = offset + size_of::<T>();
        let (block, class) = if align <= BLOCK_ALIGN {
            match class_for(total) {
                Some(class) => (POOL.with(|p| p.borrow_mut().alloc_block(class)), class),
                None => (Self::global_block(total, align), CLASS_GLOBAL),
            }
        } else {
            (Self::global_block(total, align), CLASS_GLOBAL)
        };
        let header = block.as_ptr() as *mut Header;
        // SAFETY: the block is at least `total` bytes with alignment
        // `align >= align_of::<Header>()`; header and value regions are
        // disjoint by construction of `offset`.
        unsafe {
            header.write(Header {
                strong: Cell::new(1),
                class,
                offset: offset as u32,
                size: total as u32,
                align: align as u32,
                type_id: TypeId::of::<T>(),
                drop_value: drop_value_of::<T>,
            });
            (block.as_ptr().add(offset) as *mut T).write(value);
            Payload(NonNull::new_unchecked(header))
        }
    }

    fn global_block(total: usize, align: usize) -> NonNull<u8> {
        let layout = Layout::from_size_align(total, align).expect("payload layout");
        // SAFETY: `total >= size_of::<Header>() > 0`.
        let p = unsafe { alloc(layout) };
        match NonNull::new(p) {
            Some(p) => p,
            None => handle_alloc_error(layout),
        }
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: self.0 points at a live block for as long as any
        // Payload handle (strong > 0) exists.
        unsafe { self.0.as_ref() }
    }

    /// Returns a reference to the payload if it is a `T`.
    #[inline]
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        let h = self.header();
        if h.type_id == TypeId::of::<T>() {
            // SAFETY: type checked; the value is a live `T` at `offset`.
            Some(unsafe { &*((self.0.as_ptr() as *const u8).add(h.offset as usize) as *const T) })
        } else {
            None
        }
    }

    /// Whether the payload is a `T`.
    #[inline]
    pub fn is<T: Any>(&self) -> bool {
        self.header().type_id == TypeId::of::<T>()
    }
}

impl Clone for Payload {
    #[inline]
    fn clone(&self) -> Payload {
        // Abort rather than wrap: a wrapped count would free the block
        // under live handles.
        let strong = &self.header().strong;
        strong.set(strong.get().checked_add(1).unwrap_or_else(|| std::process::abort()));
        Payload(self.0)
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        let strong = &self.header().strong;
        let n = strong.get() - 1;
        strong.set(n);
        if n != 0 {
            return;
        }
        let header = self.0.as_ptr();
        // SAFETY: last reference; the block was produced by `new`, so the
        // stored drop fn matches the stored value.
        unsafe {
            let (class, size, align) = ((*header).class, (*header).size, (*header).align);
            ((*header).drop_value)(header);
            let block = NonNull::new_unchecked(header as *mut u8);
            if class == CLASS_GLOBAL {
                let layout =
                    Layout::from_size_align(size as usize, align as usize).expect("stored layout");
                dealloc(block.as_ptr(), layout);
            } else {
                // During thread teardown the pool may already be gone;
                // the block's chunk is never freed, so skipping the free
                // list (leaking one block) is safe.
                let _ = POOL.try_with(|p| p.borrow_mut().free_block(class, block));
            }
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Payload(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);

    #[test]
    fn downcast_recovers_value() {
        let p = Payload::new(Ping(7));
        assert!(p.is::<Ping>());
        assert_eq!(p.downcast_ref::<Ping>(), Some(&Ping(7)));
        assert!(p.downcast_ref::<String>().is_none());
    }

    #[test]
    fn clone_is_shallow() {
        let p = Payload::new(Ping(9));
        let q = p.clone();
        assert_eq!(q.downcast_ref::<Ping>().unwrap().0, 9);
    }

    #[test]
    fn value_drops_exactly_once_on_last_handle() {
        use std::rc::Rc;
        let alive = Rc::new(Cell::new(true));
        struct Guard(Rc<Cell<bool>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                assert!(self.0.replace(false), "double drop");
            }
        }
        let p = Payload::new(Guard(alive.clone()));
        let q = p.clone();
        drop(p);
        assert!(alive.get(), "dropped while a clone was live");
        drop(q);
        assert!(!alive.get(), "value not dropped with last handle");
    }

    #[test]
    fn blocks_recycle_through_the_free_list() {
        // Warm up: the drop below must feed the free list the next
        // allocation pops from.
        drop(Payload::new(Ping(0)));
        let before = arena_stats();
        let p = Payload::new(Ping(1));
        let during = arena_stats();
        assert_eq!(during.free_blocks, before.free_blocks - 1, "allocation should pop a block");
        drop(p);
        let after = arena_stats();
        assert_eq!(after.free_blocks, before.free_blocks, "drop should push the block back");
        assert_eq!(after.chunk_bytes, before.chunk_bytes, "steady state mallocs no chunks");
    }

    #[test]
    fn oversized_payloads_use_the_global_allocator() {
        let before = arena_stats();
        let big = Payload::new([0u8; 4096]);
        assert!(big.is::<[u8; 4096]>());
        assert_eq!(big.downcast_ref::<[u8; 4096]>().unwrap()[4095], 0);
        drop(big);
        let after = arena_stats();
        assert_eq!(after.free_blocks, before.free_blocks, "oversized must bypass the arena");
    }

    #[test]
    fn zero_sized_payloads_work() {
        #[derive(Debug, PartialEq)]
        struct Marker;
        let p = Payload::new(Marker);
        assert_eq!(p.downcast_ref::<Marker>(), Some(&Marker));
    }

    #[test]
    fn distinct_sizes_use_distinct_classes() {
        let small = Payload::new(1u8);
        let mid = Payload::new([0u64; 12]); // 96 B value -> larger class
        assert!(small.is::<u8>());
        assert!(mid.is::<[u64; 12]>());
        assert!(small.header().class < mid.header().class);
    }
}
