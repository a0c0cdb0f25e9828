//! The coherence driver: it carries out the [`crate::coherence`]
//! directory's delta plans, moving stale byte ranges of a buffer between
//! servers through the client, and keeps every live directory within reach
//! so a server's copies can be invalidated when it restarts or leaves.

use super::{Buffer, ClientInner};
use crate::coherence::{BufferDirectory, ByteRange};
use crate::error::Result;
use crate::protocol::{Request, Response};
use gcf::simtime::Phase;
use parking_lot::Mutex;
use std::sync::{Arc, Weak};
use std::time::Duration;

impl ClientInner {
    /// A new coherence directory for a buffer of `size` bytes on `servers`,
    /// under the current coherence mode, tracked so a reconnect to a
    /// restarted daemon can invalidate that server's copies.
    pub(super) fn new_directory(
        &self,
        servers: &[usize],
        size: usize,
    ) -> Arc<Mutex<BufferDirectory>> {
        let mode = *self.coherence_mode.lock();
        let directory = Arc::new(Mutex::new(BufferDirectory::new_with_mode(
            servers.iter().copied(),
            size,
            mode,
        )));
        self.buffer_dirs.lock().push(Arc::downgrade(&directory));
        directory
    }

    /// Run the coherence delta plan so that `server` holds a valid copy of
    /// `range` of `buffer` (`None` = the whole buffer): download the ranges
    /// the client copy lacks from their owners, then upload exactly the
    /// server's stale ranges.
    ///
    /// Coherence traffic bypasses the command queues, so any pending batch
    /// on a server whose copy participates (the fetch sources, the upload
    /// target) is flushed first — the queued commands logically precede this
    /// validation and must reach the daemon before it.
    pub(super) fn ensure_valid_range_on(
        &self,
        server: usize,
        buffer: &Buffer,
        range: Option<ByteRange>,
    ) -> Result<()> {
        let plan = {
            let dir = buffer.directory.lock();
            match range {
                Some(r) => dir.plan_delta_range(server, r),
                None => dir.plan_delta(server),
            }
        };
        if plan.is_noop() {
            return Ok(());
        }
        self.flush_server(server)?;
        for fetch in &plan.fetches {
            if fetch.source != server {
                self.flush_server(fetch.source)?;
            }
        }
        for fetch in &plan.fetches {
            let fetched = self.download_buffer_range(fetch.source, buffer, fetch.span);
            let data = self.recover_after_bulk(fetch.source, fetched)?;
            buffer.directory.lock().record_client_fetch_ranges(
                fetch.source,
                fetch.span,
                &fetch.apply,
                &data,
            );
        }
        let data = {
            let dir = buffer.directory.lock();
            match plan.uploads.as_slice() {
                [one] => dir.client_data_range(*one),
                many => many.iter().map(|r| dir.client_data_range(*r)).collect::<Vec<_>>().concat(),
            }
        };
        let uploaded = self.upload_buffer_ranges(server, buffer, &plan.uploads, &data);
        self.recover_after_bulk(server, uploaded)?;
        let mut dir = buffer.directory.lock();
        for upload in &plan.uploads {
            dir.record_upload_range(server, *upload);
        }
        Ok(())
    }

    /// Upload `ranges` of `buffer` to `server` in one `UploadBufferRange`
    /// request, `data` holding them back to back.  A whole-buffer upload is
    /// the one range `[0, size)`.
    fn upload_buffer_ranges(
        &self,
        server: usize,
        buffer: &Buffer,
        ranges: &[ByteRange],
        data: &[u8],
    ) -> Result<()> {
        let conn = self.server(server)?;
        let stream_id = conn.endpoint.allocate_id();
        self.clock.charge(Phase::DataTransfer, self.link.transfer_time(data.len() as u64));
        conn.endpoint.send_bulk(stream_id, data)?;
        let request = Request::UploadBufferRange {
            buffer_id: buffer.id,
            ranges: ranges.iter().map(|r| (r.start as u64, r.len() as u64)).collect(),
            stream_id,
        };
        if let Response::OkTimed { modeled_nanos } =
            self.call_server_on(&conn, &request, Phase::DataTransfer)?
        {
            self.clock.charge(Phase::DataTransfer, Duration::from_nanos(modeled_nanos));
        }
        Ok(())
    }

    /// Download `range` of `buffer` from `server` in one
    /// `DownloadBufferRange` request.
    fn download_buffer_range(
        &self,
        server: usize,
        buffer: &Buffer,
        range: ByteRange,
    ) -> Result<Vec<u8>> {
        let conn = self.server(server)?;
        let stream_id = conn.endpoint.allocate_id();
        let request = Request::DownloadBufferRange {
            buffer_id: buffer.id,
            offset: range.start as u64,
            size: range.len() as u64,
            stream_id,
        };
        if let Response::OkTimed { modeled_nanos } =
            self.call_server_on(&conn, &request, Phase::DataTransfer)?
        {
            self.clock.charge(Phase::DataTransfer, Duration::from_nanos(modeled_nanos));
        }
        let data = conn.endpoint.wait_bulk(stream_id, Duration::from_secs(300))?;
        self.clock.charge(Phase::DataTransfer, self.link.transfer_time(data.len() as u64));
        Ok(data)
    }

    /// Mark `server`'s copy of every live buffer invalid.
    pub(super) fn invalidate_copies(&self, server: usize) {
        let mut dirs = self.buffer_dirs.lock();
        dirs.retain(|d| d.strong_count() > 0);
        for dir in dirs.iter().filter_map(Weak::upgrade) {
            dir.lock().invalidate_server(server);
        }
    }
}
