//! Sparse, paged guest memory.

use crate::hash::U64Map;

/// Size of one backing page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Byte-addressable simulated memory, allocated lazily in 4 KiB pages.
///
/// Unwritten memory reads back as zero, like freshly-mapped anonymous pages.
/// This is pure storage — timing lives in [`crate::MemSystem`].
///
/// The address space ends at `u64::MAX` and does not wrap: the part of a
/// range that would run past the top is clamped off, so writes there are
/// dropped and reads there fill zero.
///
/// ```rust
/// use protoacc_mem::GuestMemory;
/// let mut mem = GuestMemory::new();
/// mem.write_bytes(0xfff0, b"hello across a page boundary");
/// let mut buf = [0u8; 5];
/// mem.read_bytes(0xfff0, &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug, Default, Clone)]
pub struct GuestMemory {
    pages: U64Map<Box<[u8; PAGE_SIZE]>>,
}

impl GuestMemory {
    /// Creates empty memory.
    pub fn new() -> Self {
        GuestMemory::default()
    }

    /// Number of pages that have been touched by writes.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, page_number: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(page_number)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads `buf.len()` bytes starting at `addr`; bytes past the top of
    /// the address space read zero.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let Some(cur) = addr.checked_add(done as u64) else {
                buf[done..].fill(0);
                return;
            };
            let page_number = cur / PAGE_SIZE as u64;
            let offset = (cur % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - offset).min(buf.len() - done);
            match self.pages.get(&page_number) {
                Some(page) => {
                    buf[done..done + chunk].copy_from_slice(&page[offset..offset + chunk]);
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
        }
    }

    /// Writes `bytes` starting at `addr`; bytes past the top of the
    /// address space are dropped.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        self.write_chunks(addr, bytes.len(), |done, dst| {
            dst.copy_from_slice(&bytes[done..done + dst.len()]);
        });
    }

    /// Writes `len` zero bytes starting at `addr`, like `write_bytes` of a
    /// zeroed buffer (the pages it covers become resident) without
    /// building one.
    pub fn write_zeros(&mut self, addr: u64, len: usize) {
        self.write_chunks(addr, len, |_, dst| dst.fill(0));
    }

    /// Walks the `len`-byte range at `addr` one page at a time, handing
    /// `fill` each chunk's offset into the range and its bytes; the part
    /// past the top of the address space is dropped.
    fn write_chunks(&mut self, addr: u64, len: usize, mut fill: impl FnMut(usize, &mut [u8])) {
        let mut done = 0;
        while done < len {
            let Some(cur) = addr.checked_add(done as u64) else {
                return;
            };
            let page_number = cur / PAGE_SIZE as u64;
            let offset = (cur % PAGE_SIZE as u64) as usize;
            let chunk = (PAGE_SIZE - offset).min(len - done);
            fill(
                done,
                &mut self.page_mut(page_number)[offset..offset + chunk],
            );
            done += chunk;
        }
    }

    /// Reads `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read_bytes(addr, &mut buf);
        buf
    }

    /// Reads `N` bytes at `addr`: one page lookup and a fixed-width copy
    /// when they sit in one page, `read_bytes` when they straddle two or
    /// run past the top of the address space.
    #[inline]
    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let offset = (addr % PAGE_SIZE as u64) as usize;
        let mut out = [0u8; N];
        if offset + N <= PAGE_SIZE {
            if let Some(page) = self.pages.get(&(addr / PAGE_SIZE as u64)) {
                out.copy_from_slice(&page[offset..offset + N]);
            }
        } else {
            self.read_bytes(addr, &mut out);
        }
        out
    }

    /// Writes `N` bytes at `addr`, the write-side twin of `read_array`.
    #[inline]
    fn write_array<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let offset = (addr % PAGE_SIZE as u64) as usize;
        if offset + N <= PAGE_SIZE {
            self.page_mut(addr / PAGE_SIZE as u64)[offset..offset + N].copy_from_slice(&bytes);
        } else {
            self.write_bytes(addr, &bytes);
        }
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_array::<1>(addr)[0]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.write_array(addr, [value]);
    }

    /// Reads a little-endian u16.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian u16.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_array(addr, value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = GuestMemory::new();
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.read_u8(u64::MAX - 8), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn scalar_round_trips() {
        let mut mem = GuestMemory::new();
        mem.write_u8(10, 0xab);
        mem.write_u16(12, 0xbeef);
        mem.write_u32(16, 0xdead_beef);
        mem.write_u64(24, u64::MAX - 1);
        assert_eq!(mem.read_u8(10), 0xab);
        assert_eq!(mem.read_u16(12), 0xbeef);
        assert_eq!(mem.read_u32(16), 0xdead_beef);
        assert_eq!(mem.read_u64(24), u64::MAX - 1);
    }

    #[test]
    fn values_are_little_endian() {
        let mut mem = GuestMemory::new();
        mem.write_u32(0, 0x0403_0201);
        assert_eq!(mem.read_vec(0, 4), vec![1, 2, 3, 4]);
    }

    #[test]
    fn cross_page_reads_and_writes() {
        let mut mem = GuestMemory::new();
        let addr = PAGE_SIZE as u64 - 3;
        mem.write_u64(addr, 0x0807_0605_0403_0201);
        assert_eq!(mem.read_u64(addr), 0x0807_0605_0403_0201);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn ranges_clamp_at_the_top_of_the_address_space() {
        let mut mem = GuestMemory::new();
        mem.write_bytes(u64::MAX - 1, &[1, 2, 3, 4]);
        assert_eq!(mem.read_vec(u64::MAX - 1, 4), vec![1, 2, 0, 0]);
        assert_eq!(mem.read_u8(u64::MAX), 2);
        // Nothing wrapped around to address 0.
        assert_eq!(mem.read_u16(0), 0);
        assert_eq!(mem.resident_pages(), 1);
        mem.write_u64(u64::MAX, u64::MAX);
        assert_eq!(mem.read_u64(u64::MAX), 0xff);
    }

    #[test]
    fn large_block_round_trip() {
        let mut mem = GuestMemory::new();
        let data: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        mem.write_bytes(123, &data);
        assert_eq!(mem.read_vec(123, data.len()), data);
    }

    #[test]
    fn partial_page_reads_fill_zero() {
        let mut mem = GuestMemory::new();
        mem.write_u8(PAGE_SIZE as u64, 7);
        // Read straddles an unmapped page (0) and a mapped one.
        let buf = mem.read_vec(PAGE_SIZE as u64 - 2, 4);
        assert_eq!(buf, vec![0, 0, 7, 0]);
    }
}
