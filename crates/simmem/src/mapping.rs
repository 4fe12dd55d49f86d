//! Foreign mappings — the introspection path.
//!
//! Xen's `xc_map_foreign_range` lets a privileged domain (dom0) map another
//! domain's physical pages into its own address space and read them while the
//! guest — and the HCA — keep writing. [`ForeignMapping`] is the simulated
//! analogue: a window `[base, base+len)` over another domain's
//! [`GuestMemory`], offering read access through the same shared storage,
//! so the monitor observes DMA'd bytes with zero-copy semantics.

use crate::error::MemError;
use crate::memory::{Gpa, GuestMemory, MemoryHandle};
use parking_lot::RwLock;
use std::sync::Arc;

/// A mapped window into a (foreign) domain's guest memory.
#[derive(Clone)]
pub struct ForeignMapping {
    mem: Arc<RwLock<GuestMemory>>,
    base: Gpa,
    len: usize,
}

impl ForeignMapping {
    /// Maps `[base, base+len)` of `target` read-only.
    ///
    /// Fails if the window exceeds the target address space — like the real
    /// hypercall, you cannot map frames the domain does not own.
    pub fn map(target: &MemoryHandle, base: Gpa, len: usize) -> Result<Self, MemError> {
        let size = target.size();
        if base.raw().checked_add(len as u64).is_none_or(|e| e > size) {
            return Err(MemError::OutOfBounds {
                gpa: base,
                len,
                size,
            });
        }
        Ok(ForeignMapping {
            mem: target.share(),
            base,
            len,
        })
    }

    /// Base guest-physical address of the window.
    pub fn base(&self) -> Gpa {
        self.base
    }

    /// Window length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), MemError> {
        if offset.checked_add(len).is_none_or(|e| e > self.len) {
            return Err(MemError::OutOfBounds {
                gpa: self.base.add(offset as u64),
                len,
                size: self.base.raw() + self.len as u64,
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset` within the window.
    pub fn read_at(&self, offset: usize, buf: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, buf.len())?;
        self.mem.read().read(self.base.add(offset as u64), buf)
    }

    /// Snapshots the whole window into a fresh buffer.
    pub fn snapshot(&self) -> Result<Vec<u8>, MemError> {
        let mut buf = vec![0u8; self.len];
        self.read_at(0, &mut buf)?;
        Ok(buf)
    }
}

impl std::fmt::Debug for ForeignMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ForeignMapping {{ base: {:?}, len: {} }}",
            self.base, self.len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_sees_guest_writes() {
        let guest = MemoryHandle::new(64 * 1024);
        let map = ForeignMapping::map(&guest, Gpa::new(4096), 8192).unwrap();
        guest.write(Gpa::new(4096 + 100), &[7, 8, 9]).unwrap();
        let mut b = [0u8; 3];
        map.read_at(100, &mut b).unwrap();
        assert_eq!(b, [7, 8, 9]);
    }

    #[test]
    fn mapping_sees_dma_writes() {
        let guest = MemoryHandle::new(64 * 1024);
        guest
            .with_write(|m| m.pin_range(Gpa::new(0), 4096))
            .unwrap();
        let map = ForeignMapping::map(&guest, Gpa::new(0), 4096).unwrap();
        guest
            .dma_write(Gpa::new(16), &0xDEAD_BEEFu32.to_le_bytes())
            .unwrap();
        let mut b = [0u8; 4];
        map.read_at(16, &mut b).unwrap();
        assert_eq!(u32::from_le_bytes(b), 0xDEAD_BEEF);
    }

    #[test]
    fn window_bounds_are_enforced() {
        let guest = MemoryHandle::new(16 * 1024);
        assert!(ForeignMapping::map(&guest, Gpa::new(8192), 16 * 1024).is_err());
        let map = ForeignMapping::map(&guest, Gpa::new(0), 4096).unwrap();
        let mut b = [0u8; 8];
        assert!(map.read_at(4090, &mut b).is_err());
        assert!(map.read_at(4088, &mut b).is_ok());
    }

    #[test]
    fn snapshot_copies_window() {
        let guest = MemoryHandle::new(8 * 1024);
        guest.write(Gpa::new(0), &[1, 2, 3, 4]).unwrap();
        let map = ForeignMapping::map(&guest, Gpa::new(0), 16).unwrap();
        let snap = map.snapshot().unwrap();
        assert_eq!(&snap[..4], &[1, 2, 3, 4]);
        assert_eq!(snap.len(), 16);
        // A snapshot is a copy: later guest writes don't alter it.
        guest.write(Gpa::new(0), &[9]).unwrap();
        assert_eq!(snap[0], 1);
    }
}
