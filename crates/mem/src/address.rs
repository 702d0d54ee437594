//! Virtual GPU address space.

/// A bump allocator over a virtual GPU address space.
///
/// The simulator stores resource *payloads* in typed Rust structures, but
/// caches need realistic *addresses* to index and tag by. Every buffer,
/// texture mip level and framebuffer surface allocates a range here; the
/// addresses are stable for the lifetime of the simulation.
///
/// ```
/// use gwc_mem::AddressSpace;
///
/// let mut vram = AddressSpace::new();
/// let vb = vram.alloc(64 * 1024, 256);
/// let zb = vram.alloc(1024 * 768 * 4, 256);
/// assert!(zb >= vb + 64 * 1024);
/// assert_eq!(zb % 256, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressSpace {
    next: u64,
    allocated: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Base address of the first allocation. Non-zero so that address 0 can
    /// serve as a null sentinel.
    pub const BASE: u64 = 0x1000;

    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace { next: Self::BASE, allocated: 0 }
    }

    /// Allocates `size` bytes aligned to `align` and returns the base
    /// address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two, got {align}");
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + size;
        self.allocated += size;
        base
    }

    /// Total bytes allocated (excluding alignment padding).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    /// The high-water mark of the space (next free address).
    pub fn high_water(&self) -> u64 {
        self.next
    }
}

/// Computes the address of pixel `(x, y)` in a surface stored as linear
/// rows of 8×8-pixel blocks (`bpp` bytes per pixel).
///
/// GPUs tile their depth and color surfaces so that a cache line holds a
/// rectangular screen region; an 8×8 block of 4-byte pixels is exactly one
/// 256-byte line (the Z and color cache line size of Table XIV).
#[inline]
pub fn tiled_offset(x: u32, y: u32, width: u32, bpp: u32) -> u64 {
    const TILE: u32 = 8;
    let tiles_per_row = width.div_ceil(TILE);
    let (tx, ty) = (x / TILE, y / TILE);
    let (ix, iy) = (x % TILE, y % TILE);
    let block = ty as u64 * tiles_per_row as u64 + tx as u64;
    let within = (iy * TILE + ix) as u64;
    (block * (TILE * TILE) as u64 + within) * bpp as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_monotonic_and_aligned() {
        let mut a = AddressSpace::new();
        let p1 = a.alloc(100, 16);
        let p2 = a.alloc(50, 64);
        assert!(p2 >= p1 + 100);
        assert_eq!(p1 % 16, 0);
        assert_eq!(p2 % 64, 0);
        assert_eq!(a.allocated_bytes(), 150);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        AddressSpace::new().alloc(10, 3);
    }

    #[test]
    fn tiled_offset_block_locality() {
        // All pixels of one 8x8 block fall in the same 256-byte region.
        let base = tiled_offset(0, 0, 1024, 4);
        for y in 0..8 {
            for x in 0..8 {
                let off = tiled_offset(x, y, 1024, 4);
                assert!(off >= base && off < base + 256, "({x},{y}) -> {off}");
            }
        }
        // The next block starts at +256.
        assert_eq!(tiled_offset(8, 0, 1024, 4), 256);
    }

    #[test]
    fn tiled_offset_distinct_pixels_distinct_addresses() {
        let mut seen = std::collections::HashSet::new();
        for y in 0..32 {
            for x in 0..32 {
                assert!(seen.insert(tiled_offset(x, y, 32, 4)));
            }
        }
    }

    #[test]
    fn tiled_offset_handles_non_multiple_width() {
        // width 20 -> 3 tiles per row.
        let a = tiled_offset(19, 0, 20, 4);
        let b = tiled_offset(0, 8, 20, 4);
        assert!(b > a);
        assert_eq!(b % 256, 0);
    }
}
