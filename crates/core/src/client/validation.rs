//! The coherence driver: it carries out the [`crate::coherence`]
//! directory's delta plans, moving stale byte ranges of a buffer between
//! servers through the client, and keeps every live directory within reach
//! so a server's copies can be invalidated when it restarts or leaves.

use super::conn::ServerConn;
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
    /// `range` of `buffer`: download the ranges the client copy lacks from
    /// their owners, one request per owner, then upload exactly the
    /// server's stale ranges in one request.
    ///
    /// Coherence moves bypass the command queues, yet must come after every
    /// command already submitted to the servers whose copies they touch (a
    /// kernel still writing a fetched range, a read still reading an
    /// uploaded one).  So before moving a byte the driver takes the events
    /// those servers owe it that are not terminal yet, ships the servers'
    /// pending batches, and waits for every one of those events (failing
    /// with `ServerUnavailable` if one of the servers is lost meanwhile).
    pub(super) fn ensure_valid_range_on(
        &self,
        server: usize,
        buffer: &Buffer,
        range: ByteRange,
    ) -> Result<()> {
        let plan = buffer.directory.lock().plan_delta(server, range);
        if plan.is_noop() {
            return Ok(());
        }
        // Command failures surface through their own events, so they are
        // not errors of the move.
        let servers: Vec<usize> =
            std::iter::once(server).chain(plan.fetches.iter().map(|f| f.source)).collect();
        let outstanding = self.outstanding_events(&servers);
        servers.iter().try_for_each(|&s| self.flush_server(s))?;
        self.wait_settled(&outstanding)?;
        for fetch in &plan.fetches {
            let fetched = self.download_buffer_ranges(fetch.source, buffer, &fetch.ranges);
            let data = self.recover_after_bulk(fetch.source, fetched)?;
            buffer.directory.lock().record_received(fetch.source, &fetch.ranges, &data);
        }
        let data = {
            let dir = buffer.directory.lock();
            match plan.uploads.as_slice() {
                [one] => dir.client_data(*one),
                many => many.iter().map(|r| dir.client_data(*r)).collect::<Vec<_>>().concat(),
            }
        };
        let uploaded = self.upload_buffer_ranges(server, buffer, &plan.uploads, &data);
        self.recover_after_bulk(server, uploaded)?;
        let mut dir = buffer.directory.lock();
        for upload in &plan.uploads {
            dir.record_upload(server, *upload);
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
        let stream_id = self.allocate_id();
        self.clock.charge(Phase::DataTransfer, self.link.transfer_time(data.len() as u64));
        conn.endpoint.send_bulk(stream_id, data)?;
        let request = Request::UploadBufferRange {
            buffer_id: buffer.id,
            ranges: wire_ranges(ranges),
            stream_id,
        };
        self.call_bulk_request(&conn, &request)
    }

    /// Download `ranges` of `buffer` from `server` in one
    /// `DownloadBufferRange` request; the data lands back to back in the
    /// `Vec` returned.
    fn download_buffer_ranges(
        &self,
        server: usize,
        buffer: &Buffer,
        ranges: &[ByteRange],
    ) -> Result<Vec<u8>> {
        let conn = self.server(server)?;
        let stream_id = conn.endpoint.allocate_id();
        conn.endpoint.expect_bulk(stream_id, ranges.iter().map(ByteRange::len).sum());
        let request = Request::DownloadBufferRange {
            buffer_id: buffer.id,
            ranges: wire_ranges(ranges),
            stream_id,
        };
        self.call_bulk_request(&conn, &request)
            .inspect_err(|_| conn.endpoint.discard_bulk(stream_id, true))?;
        let data = conn.endpoint.wait_bulk(stream_id, Duration::from_secs(300))?;
        self.clock.charge(Phase::DataTransfer, self.link.transfer_time(data.len() as u64));
        Ok(data)
    }

    /// Call a coherence request and charge the bus time its answer models.
    fn call_bulk_request(&self, conn: &ServerConn, request: &Request) -> Result<()> {
        if let Response::OkTimed { modeled_nanos } =
            self.call_server_on(conn, request, Phase::DataTransfer)?
        {
            self.clock.charge(Phase::DataTransfer, Duration::from_nanos(modeled_nanos));
        }
        Ok(())
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

/// `ranges` as the wire's `(offset, size)` pairs.
fn wire_ranges(ranges: &[ByteRange]) -> Vec<(u64, u64)> {
    ranges.iter().map(|r| (r.start as u64, r.len() as u64)).collect()
}
