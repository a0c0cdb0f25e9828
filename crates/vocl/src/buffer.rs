//! Memory objects (buffers).

use crate::context::Context;
use crate::error::{ClError, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

/// Memory flags (`CL_MEM_*`), simplified to the combinations dOpenCL needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemFlags {
    /// Kernels may read the buffer.
    pub readable: bool,
    /// Kernels may write the buffer.
    pub writable: bool,
}

impl MemFlags {
    /// `CL_MEM_READ_WRITE`
    pub const READ_WRITE: MemFlags = MemFlags { readable: true, writable: true };
    /// `CL_MEM_READ_ONLY`
    pub const READ_ONLY: MemFlags = MemFlags { readable: true, writable: false };
    /// `CL_MEM_WRITE_ONLY`
    pub const WRITE_ONLY: MemFlags = MemFlags { readable: false, writable: true };
}

/// A buffer memory object (`cl_mem`).
#[derive(Debug)]
pub struct Buffer {
    id: u64,
    size: usize,
    flags: MemFlags,
    context: Arc<Context>,
    data: Mutex<Vec<u8>>,
}

impl Buffer {
    /// `clCreateBuffer`: allocate a buffer of `size` bytes, optionally
    /// initialised from `host_data` (`CL_MEM_COPY_HOST_PTR`).
    pub fn new(
        context: Arc<Context>,
        size: usize,
        flags: MemFlags,
        host_data: Option<&[u8]>,
    ) -> Result<Arc<Buffer>> {
        if size == 0 {
            return Err(ClError::InvalidValue("buffer size must be non-zero".into()));
        }
        let max_alloc =
            context.devices().iter().map(|d| d.profile().max_alloc_bytes).max().unwrap_or(u64::MAX);
        if size as u64 > max_alloc {
            return Err(ClError::MemObjectAllocationFailure(format!(
                "requested {size} bytes exceeds CL_DEVICE_MAX_MEM_ALLOC_SIZE ({max_alloc})"
            )));
        }
        let mut data = vec![0u8; size];
        if let Some(host) = host_data {
            if host.len() != size {
                return Err(ClError::InvalidValue(format!(
                    "host data is {} bytes but the buffer is {size} bytes",
                    host.len()
                )));
            }
            data.copy_from_slice(host);
        }
        Ok(Arc::new(Buffer {
            id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
            size,
            flags,
            context,
            data: Mutex::new(data),
        }))
    }

    /// Unique buffer id within the process.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Buffer size in bytes (`CL_MEM_SIZE`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The buffer's memory flags.
    pub fn flags(&self) -> MemFlags {
        self.flags
    }

    /// The owning context.
    pub fn context(&self) -> &Arc<Context> {
        &self.context
    }

    /// Copy `len` bytes starting at `offset` out of the buffer.
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        self.read_with(offset, len, <[u8]>::to_vec)
    }

    /// Run `f` on the `len` bytes starting at `offset`, in place: the
    /// buffer's data lock is held while `f` runs.
    pub fn read_with<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let data = self.data.lock();
        let end = offset
            .checked_add(len)
            .ok_or_else(|| ClError::InvalidValue("read range overflows".into()))?;
        if end > data.len() {
            return Err(ClError::InvalidValue(format!(
                "read of {len} bytes at offset {offset} exceeds buffer size {}",
                data.len()
            )));
        }
        Ok(f(&data[offset..end]))
    }

    /// Copy `bytes` into the buffer starting at `offset`.
    pub fn write(&self, offset: usize, bytes: &[u8]) -> Result<()> {
        self.write_with(offset, bytes.len(), |dest| {
            dest.copy_from_slice(bytes);
            Ok(())
        })
    }

    /// Have `fill` write the `len` bytes starting at `offset`, in place:
    /// the buffer's data lock is held while it runs.  An error it returns
    /// is the write's.
    pub fn write_with(
        &self,
        offset: usize,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<()>,
    ) -> Result<()> {
        let mut data = self.data.lock();
        let end = offset
            .checked_add(len)
            .ok_or_else(|| ClError::InvalidValue("write range overflows".into()))?;
        if end > data.len() {
            return Err(ClError::InvalidValue(format!(
                "write of {len} bytes at offset {offset} exceeds buffer size {}",
                data.len()
            )));
        }
        fill(&mut data[offset..end])
    }

    /// Run `f` with mutable access to the whole buffer contents.
    ///
    /// Used by the kernel execution path to hand buffer memory to the
    /// interpreter or to built-in kernels without copying.
    pub fn with_data_mut<R>(&self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let mut data = self.data.lock();
        f(&mut data)
    }

    /// Run `f` with shared access to the whole buffer contents.
    pub fn with_data<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let data = self.data.lock();
        f(&data)
    }

    /// Lock the underlying storage and return the guard.
    ///
    /// Used by the kernel execution path, which needs to hold several buffer
    /// locks at once to build the interpreter's buffer bindings.  Prefer
    /// [`Buffer::with_data`] / [`Buffer::with_data_mut`] elsewhere.
    pub fn lock_data(&self) -> parking_lot::MutexGuard<'_, Vec<u8>> {
        self.data.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceType};
    use crate::profile::DeviceProfile;

    fn test_context() -> Arc<Context> {
        let d = Device::new(DeviceType::Cpu, DeviceProfile::test_device("d"));
        Context::new(vec![d]).unwrap()
    }

    #[test]
    fn create_read_write() {
        let ctx = test_context();
        let buf = Buffer::new(Arc::clone(&ctx), 16, MemFlags::READ_WRITE, None).unwrap();
        assert_eq!(buf.size(), 16);
        assert_eq!(buf.read(0, 16).unwrap(), vec![0u8; 16]);
        buf.write(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(buf.read(4, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(buf.read(0, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn create_with_host_data() {
        let ctx = test_context();
        let buf = Buffer::new(ctx, 4, MemFlags::READ_ONLY, Some(&[9, 8, 7, 6])).unwrap();
        assert_eq!(buf.read(0, 4).unwrap(), vec![9, 8, 7, 6]);
    }

    #[test]
    fn rejects_zero_size_and_mismatched_host_data() {
        let ctx = test_context();
        assert!(Buffer::new(Arc::clone(&ctx), 0, MemFlags::READ_WRITE, None).is_err());
        assert!(Buffer::new(ctx, 8, MemFlags::READ_WRITE, Some(&[1, 2])).is_err());
    }

    #[test]
    fn rejects_allocations_beyond_device_limit() {
        let ctx = test_context();
        let max = ctx.devices()[0].profile().max_alloc_bytes as usize;
        assert!(Buffer::new(ctx, max + 1, MemFlags::READ_WRITE, None).is_err());
    }

    #[test]
    fn out_of_range_access_rejected() {
        let ctx = test_context();
        let buf = Buffer::new(ctx, 8, MemFlags::READ_WRITE, None).unwrap();
        assert!(buf.read(4, 8).is_err());
        assert!(buf.write(7, &[0, 0]).is_err());
    }

    #[test]
    fn with_data_mut_mutates_in_place() {
        let ctx = test_context();
        let buf = Buffer::new(ctx, 4, MemFlags::READ_WRITE, None).unwrap();
        buf.with_data_mut(|d| d[0] = 42);
        assert_eq!(buf.read(0, 1).unwrap(), vec![42]);
        assert_eq!(buf.with_data(|d| d.len()), 4);
    }
}
