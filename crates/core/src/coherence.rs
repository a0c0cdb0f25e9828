//! Directory-based MSI coherence for distributed memory objects.
//!
//! Section III-D of the paper: remote memory objects on the servers are
//! viewed as cached copies of the client's memory object stub.  The client
//! maintains, per buffer, a state for each server copy plus its own state
//! and a *directory* (the list of servers owning a valid copy).  States
//! follow the MSI protocol:
//!
//! * a copy is **Modified** after the owning server's device wrote it (any
//!   kernel launch that takes the buffer as an argument is conservatively
//!   treated as a write),
//! * a copy is **Shared** after a clean upload/download,
//! * every other copy is **Invalid**.
//!
//! The [`BufferDirectory`] only records state and answers "what do I have to
//! transfer?"; the actual uploads and downloads are performed by the client
//! driver, which charges their modelled cost to the data-transfer phase.
//!
//! # Range coherence semantics
//!
//! The directory tracks state at **byte-range granularity**: a sorted
//! segment list covering `[0, size)`, each segment holding the client's
//! validity and two bitmasks over the buffer's server slots (valid copies,
//! Modified copies), so a segment state is copied and compared in O(1).
//! Every recording operation (host write, device write, bytes received,
//! upload) splits segments at the range boundaries, updates the covered
//! ones, then re-coalesces equal neighbours, so the segment list stays
//! minimal.
//!
//! **Cost**, for `n` segments of which an operation covers `k`: finding a
//! boundary is a binary search; an update changes the `k` covered segments
//! and re-coalesces only them plus one neighbour each side, shifting the
//! segment tail once (a memmove) if that splits or merges segments.
//! `plan_delta` and the range queries binary-search their bound's start and
//! walk its `k` segments once.  Whole-buffer summaries (`server_state`,
//! `client_valid`, `valid_servers`), `invalidate_server` and a collapsed
//! plan walk all `n`; `add_server` touches none.
//!
//! **Device writes** are scoped: a kernel launch that declares the slice it
//! accesses (see `LaunchOp::writes_slice` in the client) dirties only that
//! range; an undeclared launch conservatively dirties the whole buffer.
//! This is what lets a buffer be *partitioned* across daemons: when each
//! device's launches only ever touch its own slice, each daemon remains the
//! Modified owner of its slice and no full-frame round trips occur.
//!
//! **Delta planning**: [`BufferDirectory::plan_delta`] computes the minimal
//! transfer set that makes a server's copy valid over a range, as a
//! [`DeltaPlan`] of *fetches* (pull the ranges the client lacks from their
//! current owners) followed by range *uploads* (push exactly the server's
//! stale ranges).  Only stale bytes move; adjacent stale ranges are
//! coalesced.  A plan fetches from each source once: one
//! `DownloadBufferRange { buffer_id, ranges: [(offset, size), ..], stream_id }`
//! whose bulk stream returns the ranges back to back.  All uploads go in
//! **one** `UploadBufferRange` of the same shape.  The daemon checks that
//! a list is sorted, disjoint and inside the buffer (and, for an upload,
//! the stream length) before it copies any byte.  A whole-buffer move is
//! the one-range case `[(0, size)]` of the same two messages.
//!
//! **Fragmentation cap**: a pathological write pattern (e.g. alternating
//! dirty bytes) can degenerate the interval map into thousands of tiny
//! ranges, and executing a plan updates the directory once per range it
//! moves.  When a plan would need more than
//! [`BufferDirectory::set_fragmentation_cap`] ranges (fetched plus
//! uploaded, default [`DEFAULT_FRAGMENTATION_CAP`]) it *collapses*: the
//! client completes its copy over the whole buffer (still one fetch per
//! source) and ships one whole-buffer upload, which is one directory
//! update.
//!
//! **Whole-buffer policy**: the paper's protocol, which moves whole buffers
//! on every ownership change, is this same directory under
//! [`CoherenceMode::Whole`] (`DCL_COHERENCE=whole`, or
//! `Client::set_coherence_mode`).  The policy changes two things: a device
//! write that dirties any byte dirties the whole buffer, and a plan for a
//! non-empty range is made for the whole buffer and, unless it is a no-op,
//! is the collapsed plan above.  A server therefore only ever runs a kernel
//! on a fully valid copy, which is what makes widening its write sound.
//! Host writes and reads are tracked exactly under both policies.  fig7's
//! sparse-update experiment runs it as the paper baseline, and the
//! differential suite in `tests/tests/coherence.rs` checks both policies
//! against a perfectly coherent reference buffer.

use std::collections::BTreeMap;

/// Coherence state of one cached copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceState {
    /// The copy was written by its owner and is the only valid one.
    Modified,
    /// The copy is valid and identical to every other shared copy.
    Shared,
    /// The copy is stale.
    Invalid,
}

/// The transfer policy of a [`BufferDirectory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceMode {
    /// Delta transfers of exactly the stale ranges (the default).
    Range,
    /// The paper's whole-buffer protocol: device writes dirty the whole
    /// buffer and every transfer validates all of it (`DCL_COHERENCE=whole`).
    Whole,
}

impl CoherenceMode {
    /// Parse a `DCL_COHERENCE` value: `"whole"` (case-insensitive) selects
    /// the whole-buffer policy, anything else range transfers.
    pub fn parse(value: Option<&str>) -> CoherenceMode {
        match value {
            Some(v) if v.eq_ignore_ascii_case("whole") => CoherenceMode::Whole,
            _ => CoherenceMode::Range,
        }
    }

    /// Read the mode from the `DCL_COHERENCE` environment variable.
    pub fn from_env() -> CoherenceMode {
        CoherenceMode::parse(std::env::var("DCL_COHERENCE").ok().as_deref())
    }
}

/// Maximum number of ranges (fetches + uploads) a [`DeltaPlan`] may schedule
/// before it collapses to whole-buffer transfer.
pub const DEFAULT_FRAGMENTATION_CAP: usize = 32;

/// A half-open `[start, end)` byte range within a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteRange {
    /// First byte of the range.
    pub start: usize,
    /// One past the last byte of the range.
    pub end: usize,
}

impl ByteRange {
    /// `[start, end)`; an inverted pair collapses to the empty range at
    /// `start`.
    pub fn new(start: usize, end: usize) -> ByteRange {
        ByteRange { start, end: end.max(start) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// The overlap of two ranges, if any bytes overlap.
    pub fn intersect(&self, other: ByteRange) -> Option<ByteRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(ByteRange { start, end })
    }

    /// The range clamped to `[0, max)`.
    pub fn clamp_to(&self, max: usize) -> ByteRange {
        ByteRange::new(self.start.min(max), self.end.min(max))
    }
}

/// One fetch of a [`DeltaPlan`]: download `ranges` from `source`, which
/// holds a valid copy of each, in one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeFetch {
    /// Server to download from.
    pub source: usize,
    /// The ranges to download, sorted and disjoint.
    pub ranges: Vec<ByteRange>,
}

/// The transfers the client must perform so that a server holds a valid
/// copy: `fetches` complete the client's own copy, then `uploads` push the
/// server's stale ranges.  Computed by [`BufferDirectory::plan_delta`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaPlan {
    /// Ranges the client must download first (it holds no valid copy of
    /// them), at most one fetch per source, in source order.
    pub fetches: Vec<RangeFetch>,
    /// Ranges to upload to the target server afterwards.
    pub uploads: Vec<ByteRange>,
    /// Whether this plan was collapsed to a whole-buffer transfer (by the
    /// fragmentation cap or the whole-buffer policy).
    pub collapsed: bool,
}

impl DeltaPlan {
    /// Whether the plan schedules no transfers at all.
    pub fn is_noop(&self) -> bool {
        self.fetches.is_empty() && self.uploads.is_empty()
    }
}

/// Bitmask over a directory's server slots: bit `i` stands for `slots[i]`.
type Mask = u64;

/// Per-segment coherence state.  Plain bitmasks, so a split copies it and a
/// coalesce compares it in O(1); `modified` is always a subset of `valid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegState {
    /// Whether the client's copy is valid (Shared).
    client: bool,
    /// Servers holding a valid (Shared or Modified) copy.
    valid: Mask,
    /// Servers holding a Modified copy.
    modified: Mask,
}

impl SegState {
    fn server(&self, bit: Mask) -> CoherenceState {
        if self.modified & bit != 0 {
            CoherenceState::Modified
        } else if self.valid & bit != 0 {
            CoherenceState::Shared
        } else {
            CoherenceState::Invalid
        }
    }
}

/// One segment of the interval map: `state` holds for bytes from `start` up
/// to the next segment's start (the buffer size for the last one).
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: usize,
    state: SegState,
}

/// Append `r` to `out`, extending the last range if they touch.
fn push_coalesced(out: &mut Vec<ByteRange>, r: ByteRange) {
    match out.last_mut() {
        Some(last) if last.end == r.start => last.end = r.end,
        _ => out.push(r),
    }
}

/// One fetch per source, in source order.
fn fetches_of(by_source: BTreeMap<usize, Vec<ByteRange>>) -> Vec<RangeFetch> {
    by_source.into_iter().map(|(source, ranges)| RangeFetch { source, ranges }).collect()
}

/// Per-buffer directory tracking the state of every copy, byte range by
/// byte range: segments sorted by start, the first at 0, each different in
/// state from its neighbours.  See the [module docs](self) for the
/// semantics; every recording method takes the range it covers (pass
/// [`BufferDirectory::full_range`] for the whole buffer).
#[derive(Debug, Clone)]
pub struct BufferDirectory {
    segments: Vec<Segment>,
    /// Server id of each mask bit.  Registration order, so at most
    /// [`Mask::BITS`] servers per buffer.
    slots: Vec<usize>,
    /// The client's cached bytes; validity is tracked per segment, so the
    /// vector may hold stale bytes in client-Invalid ranges.  `None` means
    /// "all zeroes" (fresh buffer).
    client_copy: Option<Vec<u8>>,
    size: usize,
    frag_cap: usize,
    /// The whole-buffer policy ([`CoherenceMode::Whole`]) is in force.
    whole: bool,
}

impl BufferDirectory {
    /// A fresh directory under `mode`: every remote copy is invalid, the
    /// client's (conceptual, all-zero) copy is shared — exactly the initial
    /// state the paper describes.
    pub fn new_with_mode(
        servers: impl IntoIterator<Item = usize>,
        size: usize,
        mode: CoherenceMode,
    ) -> Self {
        let state = SegState { client: true, valid: 0, modified: 0 };
        let segments = if size == 0 { Vec::new() } else { vec![Segment { start: 0, state }] };
        let mut dir = BufferDirectory {
            segments,
            slots: Vec::new(),
            client_copy: None,
            size,
            frag_cap: DEFAULT_FRAGMENTATION_CAP,
            whole: mode == CoherenceMode::Whole,
        };
        servers.into_iter().for_each(|s| dir.add_server(s));
        dir
    }

    /// Buffer size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The whole buffer as a [`ByteRange`].
    pub fn full_range(&self) -> ByteRange {
        ByteRange::new(0, self.size)
    }

    /// Cap on the number of ranges a [`DeltaPlan`] may schedule before
    /// collapsing to whole-buffer transfer.
    pub fn set_fragmentation_cap(&mut self, cap: usize) {
        self.frag_cap = cap.max(1);
    }

    /// The mask bit of `server`; 0 (no copy anywhere) if it is unregistered.
    fn bit(&self, server: usize) -> Mask {
        self.slots.iter().position(|&s| s == server).map_or(0, |i| 1 << i)
    }

    /// The server ids in `mask`, in slot order.
    fn servers_in(&self, mask: Mask) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().enumerate().filter(move |(i, _)| mask >> i & 1 != 0).map(|(_, &s)| s)
    }

    /// Lowest server id in `mask`, the source a plan fetches from.
    fn first_server(&self, mask: Mask) -> Option<usize> {
        self.servers_in(mask).min()
    }

    /// End of segment `i`.
    fn end_of(&self, i: usize) -> usize {
        self.segments.get(i + 1).map_or(self.size, |s| s.start)
    }

    /// Ensure a segment starts at `pos` (splitting the one that straddles
    /// it) and return its index; `pos >= size` returns the segment count.
    fn split_at(&mut self, pos: usize) -> usize {
        let i = self.segments.partition_point(|s| s.start < pos);
        if pos < self.size && self.segments.get(i).is_none_or(|s| s.start != pos) {
            let state = self.segments[i - 1].state;
            self.segments.insert(i, Segment { start: pos, state });
        }
        i
    }

    /// Replace the state of every byte in `range` by `f` of it, then merge
    /// equal neighbours inside the touched window plus one segment each side
    /// (everything outside it was coalesced already).
    fn update_range(&mut self, range: ByteRange, f: impl Fn(SegState) -> SegState) {
        let range = range.clamp_to(self.size);
        if range.is_empty() {
            return;
        }
        let lo = self.split_at(range.start);
        let hi = self.split_at(range.end);
        for seg in &mut self.segments[lo..hi] {
            seg.state = f(seg.state);
        }
        self.coalesce(lo.saturating_sub(1), (hi + 1).min(self.segments.len()));
    }

    /// Merge adjacent equal segments among `segments[from..to]`.
    fn coalesce(&mut self, from: usize, to: usize) {
        if from >= to {
            return;
        }
        let mut kept = from;
        for i in from + 1..to {
            if self.segments[i].state != self.segments[kept].state {
                kept += 1;
                self.segments[kept] = self.segments[i];
            }
        }
        self.segments.drain(kept + 1..to);
    }

    /// The segments overlapping `bound`, clipped to it, starting at the
    /// binary-searched segment that holds `bound.start`.
    fn segments_in(&self, bound: ByteRange) -> impl Iterator<Item = (ByteRange, SegState)> + '_ {
        let bound = bound.clamp_to(self.size);
        let first = self.segments.partition_point(|s| s.start <= bound.start).saturating_sub(1);
        (first..self.segments.len())
            .map(move |i| (ByteRange::new(self.segments[i].start, self.end_of(i)), i))
            .take_while(move |(r, _)| r.start < bound.end)
            .filter_map(move |(r, i)| Some((r.intersect(bound)?, self.segments[i].state)))
    }

    /// Coalesced ranges within `bound` whose state satisfies `pred`.
    fn ranges_where(&self, bound: ByteRange, pred: impl Fn(SegState) -> bool) -> Vec<ByteRange> {
        let mut out = Vec::new();
        for (r, st) in self.segments_in(bound) {
            if pred(st) {
                push_coalesced(&mut out, r);
            }
        }
        out
    }

    fn client_data_mut(&mut self) -> &mut Vec<u8> {
        let size = self.size;
        self.client_copy.get_or_insert_with(|| vec![0u8; size])
    }

    // ----- whole-buffer summaries and range queries ------------------------

    /// Whole-buffer summary of a copy's state: the uniform state when every
    /// segment agrees, `Invalid` otherwise (a partially valid copy cannot be
    /// used as-is).
    fn summarise(&self, get: impl Fn(SegState) -> CoherenceState) -> CoherenceState {
        let mut iter = self.segments.iter().map(|s| get(s.state));
        let Some(first) = iter.next() else { return CoherenceState::Shared };
        if iter.all(|s| s == first) {
            first
        } else {
            CoherenceState::Invalid
        }
    }

    /// State of the copy on `server`, summarised over the whole buffer: the
    /// uniform state if every range agrees, `Invalid` otherwise.
    pub fn server_state(&self, server: usize) -> CoherenceState {
        let bit = self.bit(server);
        self.summarise(|st| st.server(bit))
    }

    /// State of the client's copy, summarised over the whole buffer.
    pub fn client_state(&self) -> CoherenceState {
        self.summarise(
            |st| if st.client { CoherenceState::Shared } else { CoherenceState::Invalid },
        )
    }

    /// Whether the client currently holds a valid copy of the whole buffer.
    pub fn client_valid(&self) -> bool {
        self.segments.iter().all(|s| s.state.client)
    }

    /// Servers that currently hold a valid (shared or modified) copy of the
    /// *entire* buffer.
    pub fn valid_servers(&self) -> Vec<usize> {
        let everywhere = self.segments.iter().fold(Mask::MAX, |m, s| m & s.state.valid);
        let mut ids: Vec<usize> = self.servers_in(everywhere).collect();
        ids.sort_unstable();
        ids
    }

    /// Coalesced ranges of the buffer that are valid on `server`.
    pub fn valid_ranges(&self, server: usize) -> Vec<ByteRange> {
        let bit = self.bit(server);
        self.ranges_where(self.full_range(), |st| st.valid & bit != 0)
    }

    /// Coalesced ranges of the buffer that are stale on `server`.
    pub fn stale_ranges(&self, server: usize) -> Vec<ByteRange> {
        let bit = self.bit(server);
        self.ranges_where(self.full_range(), |st| st.valid & bit == 0)
    }

    /// The client's cached bytes over `range` (clamped to the buffer),
    /// materialising the all-zero default.
    pub fn client_data(&self, range: ByteRange) -> Vec<u8> {
        let range = range.clamp_to(self.size);
        match &self.client_copy {
            Some(copy) => copy[range.start..range.end].to_vec(),
            None => vec![0u8; range.len()],
        }
    }

    /// Number of interval-map segments — a fragmentation diagnostic for
    /// tests and benches.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    // ----- recording operations --------------------------------------------

    /// Record a host-initiated write (`clEnqueueWriteBuffer` to `server`):
    /// the written range updates the client copy and becomes shared between
    /// client and target; every other copy of *that range* is invalidated.
    /// Zero-length writes are no-ops.
    pub fn record_host_write(&mut self, server: usize, offset: usize, data: &[u8]) {
        if data.is_empty() || offset >= self.size {
            return;
        }
        let range = ByteRange::new(offset, offset + data.len()).clamp_to(self.size);
        self.client_data_mut()[range.start..range.end].copy_from_slice(&data[..range.len()]);
        let bit = self.bit(server);
        self.update_range(range, |_| SegState { client: true, valid: bit, modified: 0 });
    }

    /// Record that a device on `server` (potentially) wrote `range`: that
    /// copy of it becomes Modified, every other copy — including the
    /// client's — Invalid.  The whole-buffer policy widens a non-empty
    /// range to the full buffer.  An empty range dirties nothing — widening
    /// it would mark a copy Modified that was never validated.
    pub fn record_device_write(&mut self, server: usize, range: ByteRange) {
        let range = if self.whole && !range.clamp_to(self.size).is_empty() {
            self.full_range()
        } else {
            range
        };
        let bit = self.bit(server);
        self.update_range(range, |_| SegState { client: false, valid: bit, modified: bit });
    }

    /// Record that the client received `ranges` of the buffer from `server`,
    /// their bytes back to back in `data`: a host read
    /// (`clEnqueueReadBuffer`) or a plan's fetch.  The bytes refresh the
    /// client's copy where the server holds a valid copy, and a Modified
    /// owner is demoted to Shared there.  Elsewhere they are dropped: the
    /// server's bytes there may be stale.
    pub fn record_received(&mut self, server: usize, ranges: &[ByteRange], data: &[u8]) {
        let bit = self.bit(server);
        let mut at = 0;
        for range in ranges {
            for r in self.ranges_where(*range, |st| st.valid & bit != 0) {
                let src = &data[at + r.start - range.start..at + r.end - range.start];
                self.client_data_mut()[r.start..r.end].copy_from_slice(src);
                self.update_range(r, |st| SegState {
                    client: true,
                    modified: st.modified & !bit,
                    ..st
                });
            }
            at += range.len();
        }
    }

    /// Record that the client uploaded `range` of its copy to `server`.
    pub fn record_upload(&mut self, server: usize, range: ByteRange) {
        self.add_server(server);
        let bit = self.bit(server);
        // With no valid copy anywhere the uploaded (zero/stale) client bytes
        // leave client and server in agreement.
        self.update_range(range, |st| SegState {
            client: true,
            valid: st.valid | bit,
            modified: st.modified & !bit,
        });
    }

    /// Register a server that joined the directory after creation (e.g. a
    /// dynamically connected server, Section III-C).  Its copy starts
    /// Invalid everywhere, which an unset bit already says, so no segment
    /// changes.
    pub fn add_server(&mut self, server: usize) {
        if !self.slots.contains(&server) {
            assert!(self.slots.len() < Mask::BITS as usize, "a buffer spans at most 64 servers");
            self.slots.push(server);
        }
    }

    /// Mark `server`'s copy invalid — the daemon crashed or its remote
    /// memory object was re-created empty after a reconnect.  Returns
    /// `true` if data was lost: the server held the *only* valid copy of
    /// some range, which degrades to the client's last cached bytes (or
    /// zeroes).
    ///
    /// Used by the client's connection supervisor: after re-creating a
    /// buffer on a fresh daemon, the next command that reads it there plans
    /// a normal re-validation from the surviving copies.
    pub fn invalidate_server(&mut self, server: usize) -> bool {
        let bit = self.bit(server);
        let mut lost = false;
        for st in self.segments.iter_mut().map(|s| &mut s.state).filter(|st| st.valid & bit != 0) {
            st.valid &= !bit;
            st.modified &= !bit;
            if !st.client && st.valid == 0 {
                // Data loss on this range: degrade to the stale client copy
                // so the buffer stays usable.
                st.client = true;
                lost = true;
            }
        }
        self.coalesce(0, self.segments.len());
        lost
    }

    // ----- delta planning --------------------------------------------------

    /// The minimal delta set that makes `server` valid over `bound`, in one
    /// pass over its segments: every range stale on `server` is uploaded,
    /// and the part of it the client lacks is first fetched from the lowest
    /// server holding it.  The whole-buffer policy plans a non-empty bound
    /// over the whole buffer and collapses any plan that moves bytes.
    pub fn plan_delta(&self, server: usize, bound: ByteRange) -> DeltaPlan {
        let bound = if self.whole && !bound.clamp_to(self.size).is_empty() {
            self.full_range()
        } else {
            bound
        };
        let bit = self.bit(server);
        let mut uploads = Vec::new();
        let mut by_source: BTreeMap<usize, Vec<ByteRange>> = BTreeMap::new();
        for (r, st) in self.segments_in(bound) {
            if st.valid & bit != 0 {
                continue;
            }
            push_coalesced(&mut uploads, r);
            // With no server copy either, the (zero/stale) client bytes are
            // uploaded as they are.
            let Some(src) = self.first_server(st.valid).filter(|_| !st.client) else { continue };
            push_coalesced(by_source.entry(src).or_default(), r);
        }
        let fetched: usize = by_source.values().map(Vec::len).sum();
        if fetched + uploads.len() > self.frag_cap || self.whole && !uploads.is_empty() {
            return self.collapsed_plan();
        }
        DeltaPlan { fetches: fetches_of(by_source), uploads, collapsed: false }
    }

    /// The collapsed plan: complete the client's copy over the *whole*
    /// buffer (from each source, the ranges the client lacks that it
    /// holds), then one whole-buffer upload.
    fn collapsed_plan(&self) -> DeltaPlan {
        let mut by_source: BTreeMap<usize, Vec<ByteRange>> = BTreeMap::new();
        for (r, st) in self.segments_in(self.full_range()) {
            if let Some(src) = self.first_server(st.valid).filter(|_| !st.client) {
                push_coalesced(by_source.entry(src).or_default(), r);
            }
        }
        DeltaPlan {
            fetches: fetches_of(by_source),
            uploads: vec![self.full_range()],
            collapsed: true,
        }
    }

    /// Check the directory's structural invariants (used by the property
    /// suites): segments sorted, contiguous, covering the buffer and
    /// coalesced; no byte Modified on more than one server; every byte has
    /// at least one valid copy.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        if self.segments.first().is_some_and(|s| s.start != 0)
            || self.segments.is_empty() != (self.size == 0)
        {
            return Err(format!("segments do not start at 0 of a {}-byte buffer", self.size));
        }
        for (i, seg) in self.segments.iter().enumerate() {
            let (start, end, st) = (seg.start, self.end_of(i), seg.state);
            if end <= start {
                return Err(format!("segment {i} is empty ({start}..{end})"));
            }
            if i > 0 && self.segments[i - 1].state == st {
                return Err(format!("segments {} and {i} are not coalesced", i - 1));
            }
            if st.modified & !st.valid != 0 || st.modified.count_ones() > 1 {
                return Err(format!("bytes {start}..{end} have a bad Modified set {st:?}"));
            }
            if !st.client && st.valid == 0 {
                return Err(format!("bytes {start}..{end} have no valid copy"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ----- whole-buffer semantics (both policies must satisfy these) -------

    fn both_modes(f: impl Fn(CoherenceMode)) {
        f(CoherenceMode::Range);
        f(CoherenceMode::Whole);
    }

    #[test]
    fn fresh_directory_uploads_zeroes_from_client() {
        both_modes(|mode| {
            let dir = BufferDirectory::new_with_mode([0, 1], 16, mode);
            assert_eq!(dir.server_state(0), CoherenceState::Invalid);
            assert_eq!(dir.client_state(), CoherenceState::Shared);
            let plan = dir.plan_delta(0, dir.full_range());
            assert!(plan.fetches.is_empty());
            assert_eq!(plan.uploads, vec![dir.full_range()]);
            assert_eq!(dir.client_data(dir.full_range()), vec![0u8; 16]);
            assert!(dir.valid_servers().is_empty());
            dir.check_invariants().unwrap();
        });
    }

    #[test]
    fn host_write_invalidates_other_servers() {
        both_modes(|mode| {
            let mut dir = BufferDirectory::new_with_mode([0, 1], 4, mode);
            dir.record_host_write(0, 0, &[1, 2, 3, 4]);
            assert_eq!(dir.server_state(0), CoherenceState::Shared);
            assert_eq!(dir.server_state(1), CoherenceState::Invalid);
            assert_eq!(dir.client_data(dir.full_range()), vec![1, 2, 3, 4]);
            assert!(dir.plan_delta(0, dir.full_range()).is_noop());
            let plan = dir.plan_delta(1, dir.full_range());
            assert!(plan.fetches.is_empty());
            assert_eq!(plan.uploads, vec![dir.full_range()]);
            dir.check_invariants().unwrap();
        });
    }

    #[test]
    fn partial_host_write_merges_into_client_copy() {
        both_modes(|mode| {
            let mut dir = BufferDirectory::new_with_mode([0], 8, mode);
            dir.record_host_write(0, 0, &[1, 1, 1, 1, 1, 1, 1, 1]);
            dir.record_host_write(0, 4, &[2, 2, 2, 2]);
            assert_eq!(dir.client_data(dir.full_range()), vec![1, 1, 1, 1, 2, 2, 2, 2]);
        });
    }

    #[test]
    fn device_write_requires_fetch_for_other_servers() {
        both_modes(|mode| {
            let mut dir = BufferDirectory::new_with_mode([0, 1], 8, mode);
            dir.record_host_write(0, 0, &[7; 8]);
            dir.record_device_write(0, dir.full_range());
            assert_eq!(dir.server_state(0), CoherenceState::Modified);
            assert_eq!(dir.client_state(), CoherenceState::Invalid);
            assert_eq!(dir.plan_delta(1, dir.full_range()).fetches[0].source, 0);
            // After the fetch + upload, both servers and the client share.
            dir.record_received(0, &[dir.full_range()], &[9; 8]);
            dir.record_upload(1, dir.full_range());
            assert_eq!(dir.server_state(0), CoherenceState::Shared);
            assert_eq!(dir.server_state(1), CoherenceState::Shared);
            assert_eq!(dir.client_state(), CoherenceState::Shared);
            assert_eq!(dir.client_data(dir.full_range()), vec![9; 8]);
            assert_eq!(dir.valid_servers(), vec![0, 1]);
            dir.check_invariants().unwrap();
        });
    }

    #[test]
    fn host_read_demotes_modified_to_shared() {
        both_modes(|mode| {
            let mut dir = BufferDirectory::new_with_mode([0, 1], 4, mode);
            dir.record_device_write(1, dir.full_range());
            dir.record_received(1, &[ByteRange::new(0, 4)], &[5, 6, 7, 8]);
            assert_eq!(dir.server_state(1), CoherenceState::Shared);
            assert_eq!(dir.client_state(), CoherenceState::Shared);
            assert_eq!(dir.client_data(dir.full_range()), vec![5, 6, 7, 8]);
        });
    }

    #[test]
    fn partial_read_does_not_mark_whole_client_valid() {
        both_modes(|mode| {
            let mut dir = BufferDirectory::new_with_mode([0], 8, mode);
            dir.record_device_write(0, dir.full_range());
            dir.record_received(0, &[ByteRange::new(0, 2)], &[1, 2]);
            assert_eq!(dir.client_state(), CoherenceState::Invalid);
        });
    }

    #[test]
    fn add_server_starts_invalid() {
        both_modes(|mode| {
            let mut dir = BufferDirectory::new_with_mode([0], 4, mode);
            dir.add_server(3);
            assert_eq!(dir.server_state(3), CoherenceState::Invalid);
        });
    }

    #[test]
    fn whole_policy_validates_the_whole_buffer_before_a_widened_write() {
        // A partial host write leaves server 1 valid only where it landed.
        // A launch there that touches only that slice must still validate
        // the whole copy, because the whole-buffer policy widens its write.
        let mut dir = BufferDirectory::new_with_mode([0, 1], 32, CoherenceMode::Whole);
        dir.record_host_write(0, 0, &[1; 32]);
        dir.record_device_write(0, dir.full_range());
        dir.record_host_write(1, 0, &[2; 8]);
        assert_eq!(dir.valid_ranges(1), vec![ByteRange::new(0, 8)]);
        let plan = dir.plan_delta(1, ByteRange::new(0, 8));
        assert!(plan.collapsed);
        assert_eq!(plan.uploads, vec![dir.full_range()]);
        assert_eq!(plan.fetches.len(), 1);
        assert_eq!(plan.fetches[0].source, 0);
        assert_eq!(plan.fetches[0].ranges, vec![ByteRange::new(8, 32)]);
        assert!(dir.plan_delta(1, ByteRange::new(4, 4)).is_noop());
        dir.record_received(0, &[ByteRange::new(8, 32)], &[3; 24]);
        dir.record_upload(1, dir.full_range());
        dir.record_device_write(1, ByteRange::new(0, 8));
        assert_eq!(dir.valid_ranges(1), vec![dir.full_range()]);
        assert_eq!(dir.server_state(1), CoherenceState::Modified);
        assert!(dir.valid_ranges(0).is_empty());
        dir.check_invariants().unwrap();
    }

    // ----- interval-map edge cases -----------------------------------------

    #[test]
    fn zero_length_writes_are_noops() {
        both_modes(|mode| {
            let mut dir = BufferDirectory::new_with_mode([0, 1], 8, mode);
            dir.record_host_write(0, 0, &[5; 8]);
            let before = dir.clone();
            dir.record_host_write(1, 4, &[]);
            assert_eq!(dir.server_state(0), before.server_state(0));
            assert_eq!(dir.server_state(1), before.server_state(1));
            assert_eq!(dir.client_data(dir.full_range()), before.client_data(before.full_range()));
            assert_eq!(dir.segment_count(), before.segment_count());
            dir.record_device_write(0, ByteRange::new(4, 4));
            assert_eq!(dir.client_state(), CoherenceState::Shared);
            dir.check_invariants().unwrap();
        });
    }

    #[test]
    fn adjacent_dirty_ranges_coalesce() {
        let mut dir = BufferDirectory::new_with_mode([0, 1], 64, CoherenceMode::Range);
        dir.record_host_write(0, 0, &[1; 16]);
        dir.record_host_write(0, 16, &[2; 16]);
        dir.record_host_write(0, 32, &[3; 32]);
        // Three adjacent writes with identical state outcomes: one segment.
        assert_eq!(dir.segment_count(), 1);
        assert_eq!(dir.stale_ranges(1), vec![ByteRange::new(0, 64)]);
        let plan = dir.plan_delta(1, dir.full_range());
        assert_eq!(plan.uploads, vec![ByteRange::new(0, 64)]);
        assert!(plan.fetches.is_empty());
        dir.check_invariants().unwrap();
    }

    #[test]
    fn overlapping_writes_merge_and_coalesce() {
        let mut dir = BufferDirectory::new_with_mode([0, 1], 32, CoherenceMode::Range);
        dir.record_host_write(0, 4, &[1; 12]); // [4, 16)
        dir.record_host_write(0, 8, &[2; 16]); // [8, 24) overlaps
        assert_eq!(dir.stale_ranges(1), vec![ByteRange::new(0, 32)]);
        // Server 0 is valid exactly where writes landed, stale outside.
        assert_eq!(dir.valid_ranges(0), vec![ByteRange::new(4, 24)]);
        let mut expect = vec![0u8; 32];
        expect[4..16].fill(1);
        expect[8..24].fill(2);
        assert_eq!(dir.client_data(dir.full_range()), expect);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn device_write_spanning_partition_boundary() {
        // Two servers each own half; a declared device write then spans the
        // boundary.
        let mut dir = BufferDirectory::new_with_mode([0, 1], 32, CoherenceMode::Range);
        dir.record_host_write(0, 0, &[1; 32]);
        dir.record_upload(1, dir.full_range());
        dir.record_device_write(0, ByteRange::new(0, 16));
        dir.record_device_write(1, ByteRange::new(16, 32));
        assert_eq!(dir.valid_ranges(0), vec![ByteRange::new(0, 16)]);
        assert_eq!(dir.valid_ranges(1), vec![ByteRange::new(16, 32)]);
        dir.check_invariants().unwrap();
        // Now server 1 writes across the boundary: [12, 20).
        dir.record_device_write(1, ByteRange::new(12, 20));
        assert_eq!(dir.valid_ranges(0), vec![ByteRange::new(0, 12)]);
        assert_eq!(dir.valid_ranges(1), vec![ByteRange::new(12, 32)]);
        dir.check_invariants().unwrap();
        // Validating server 0 moves only the 20 stale bytes, fetched from
        // their Modified owner.
        let plan = dir.plan_delta(0, dir.full_range());
        assert_eq!(plan.uploads, vec![ByteRange::new(12, 32)]);
        assert_eq!(plan.fetches.len(), 1);
        assert_eq!(plan.fetches[0].source, 1);
        assert_eq!(plan.fetches[0].ranges, vec![ByteRange::new(12, 32)]);
        assert_eq!(plan.uploads.iter().map(ByteRange::len).sum::<usize>(), 20);
    }

    #[test]
    fn delta_plan_moves_only_stale_ranges() {
        let mut dir = BufferDirectory::new_with_mode([0, 1], 100, CoherenceMode::Range);
        dir.record_host_write(0, 0, &[1; 100]);
        dir.record_upload(1, dir.full_range()); // both servers fully valid
        dir.record_host_write(0, 40, &[9; 10]); // dirty 10% towards server 0
        let plan = dir.plan_delta(1, dir.full_range());
        assert!(plan.fetches.is_empty(), "client is valid, no fetch needed");
        assert_eq!(plan.uploads, vec![ByteRange::new(40, 50)]);
        assert_eq!(plan.uploads.iter().map(ByteRange::len).sum::<usize>(), 10);
        assert!(!plan.collapsed);
    }

    #[test]
    fn fragmentation_cap_collapses_to_whole_buffer() {
        let mut dir = BufferDirectory::new_with_mode([0, 1], 256, CoherenceMode::Range);
        dir.record_host_write(0, 0, &[1; 256]);
        dir.record_upload(1, dir.full_range());
        dir.set_fragmentation_cap(4);
        // Dirty every other 2-byte chunk: 64 fragments towards server 1.
        for i in 0..64 {
            dir.record_host_write(0, i * 4, &[9, 9]);
        }
        assert!(dir.segment_count() > 4);
        let plan = dir.plan_delta(1, dir.full_range());
        assert!(plan.collapsed);
        assert_eq!(plan.uploads, vec![ByteRange::new(0, 256)]);
        assert!(plan.fetches.is_empty(), "client holds the whole buffer");
        // Executing the collapsed plan validates the server in one go.
        dir.record_upload(1, ByteRange::new(0, 256));
        assert!(dir.plan_delta(1, dir.full_range()).is_noop());
        assert_eq!(dir.segment_count(), 1);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn collapsed_plan_fetches_only_the_owned_subranges_in_one_request() {
        // Device writes fragment server 0's ownership; the collapsed plan
        // fetches exactly the sub-ranges server 0 validly owns, in one
        // fetch, and still uploads the whole buffer.
        let mut dir = BufferDirectory::new_with_mode([0, 1], 64, CoherenceMode::Range);
        dir.record_host_write(0, 0, &[1; 64]);
        dir.record_upload(1, dir.full_range());
        dir.set_fragmentation_cap(2);
        for i in 0..8 {
            dir.record_device_write(0, ByteRange::new(i * 8, i * 8 + 4));
        }
        let plan = dir.plan_delta(1, dir.full_range());
        assert!(plan.collapsed);
        assert_eq!(plan.uploads, vec![ByteRange::new(0, 64)]);
        assert_eq!(plan.fetches.len(), 1);
        let fetch = &plan.fetches[0];
        assert_eq!(fetch.source, 0);
        assert_eq!(fetch.ranges.len(), 8);
        for (i, r) in fetch.ranges.iter().enumerate() {
            assert_eq!(*r, ByteRange::new(i * 8, i * 8 + 4));
        }
    }

    #[test]
    fn partitioned_buffer_keeps_owners_valid_without_transfers() {
        // Each server repeatedly writes its own slice: no plan ever moves
        // bytes for the owner's own launches.
        let mut dir = BufferDirectory::new_with_mode([0, 1], 128, CoherenceMode::Range);
        dir.record_host_write(0, 0, &[0; 128]);
        dir.record_upload(1, dir.full_range());
        for _ in 0..10 {
            assert!(dir.plan_delta(0, ByteRange::new(0, 64)).is_noop());
            dir.record_device_write(0, ByteRange::new(0, 64));
            assert!(dir.plan_delta(1, ByteRange::new(64, 128)).is_noop());
            dir.record_device_write(1, ByteRange::new(64, 128));
            dir.check_invariants().unwrap();
        }
        assert_eq!(dir.valid_ranges(0), vec![ByteRange::new(0, 64)]);
        assert_eq!(dir.valid_ranges(1), vec![ByteRange::new(64, 128)]);
    }

    #[test]
    fn invalidate_server_degrades_only_lost_ranges() {
        let mut dir = BufferDirectory::new_with_mode([0, 1], 32, CoherenceMode::Range);
        dir.record_host_write(0, 0, &[3; 32]);
        dir.record_upload(1, dir.full_range());
        // Server 0 exclusively owns [0, 16) after a device write.
        dir.record_device_write(0, ByteRange::new(0, 16));
        assert!(dir.invalidate_server(0), "its half is lost");
        // The surviving half is still valid on server 1; the lost half
        // degraded to the stale client copy.
        assert_eq!(dir.valid_ranges(1), vec![ByteRange::new(16, 32)]);
        dir.check_invariants().unwrap();
        let plan = dir.plan_delta(1, dir.full_range());
        assert_eq!(plan.uploads, vec![ByteRange::new(0, 16)]);
        assert!(plan.fetches.is_empty());
    }

    #[test]
    fn coherence_mode_parses_like_the_interp_env() {
        assert_eq!(CoherenceMode::parse(None), CoherenceMode::Range);
        assert_eq!(CoherenceMode::parse(Some("whole")), CoherenceMode::Whole);
        assert_eq!(CoherenceMode::parse(Some("WHOLE")), CoherenceMode::Whole);
        assert_eq!(CoherenceMode::parse(Some("range")), CoherenceMode::Range);
        assert_eq!(CoherenceMode::parse(Some("garbage")), CoherenceMode::Range);
    }

    #[test]
    fn range_math_handles_degenerate_inputs() {
        assert!(ByteRange::new(5, 3).is_empty());
        assert_eq!(ByteRange::new(5, 3).len(), 0);
        assert_eq!(ByteRange::new(0, 10).intersect(ByteRange::new(10, 20)), None);
        assert_eq!(
            ByteRange::new(0, 10).intersect(ByteRange::new(5, 20)),
            Some(ByteRange::new(5, 10))
        );
        assert_eq!(ByteRange::new(4, 99).clamp_to(8), ByteRange::new(4, 8));
    }

    // ----- property test against a per-byte reference model ---------------

    mod model {
        use super::*;
        use proptest::prelude::*;
        use CoherenceState::{Invalid, Modified, Shared};

        const SIZE: usize = 4096;

        /// The directory's meaning spelled out byte by byte: the client's
        /// validity and cached value, each registered server's state, and
        /// whether the whole-buffer policy is in force.
        struct ByteModel {
            client: Vec<bool>,
            data: Vec<u8>,
            servers: BTreeMap<usize, Vec<CoherenceState>>,
            whole: bool,
        }

        impl ByteModel {
            fn new(servers: &[usize]) -> Self {
                ByteModel {
                    client: vec![true; SIZE],
                    data: vec![0; SIZE],
                    servers: servers.iter().map(|&s| (s, vec![Invalid; SIZE])).collect(),
                    whole: false,
                }
            }

            fn valid(&self, server: usize, b: usize) -> bool {
                self.servers.get(&server).is_some_and(|v| v[b] != Invalid)
            }

            /// Lowest server holding byte `b`.
            fn source(&self, b: usize) -> Option<usize> {
                self.servers.iter().find(|(_, v)| v[b] != Invalid).map(|(s, _)| *s)
            }

            /// Maximal runs of bytes in `bound` with the same `Some` key.
            fn runs(
                &self,
                bound: ByteRange,
                key: impl Fn(usize) -> Option<usize>,
            ) -> Vec<(usize, ByteRange)> {
                let mut out: Vec<(usize, ByteRange)> = Vec::new();
                for b in bound.start..bound.end {
                    let Some(k) = key(b) else { continue };
                    match out.last_mut() {
                        Some((last_k, r)) if *last_k == k && r.end == b => r.end = b + 1,
                        _ => out.push((k, ByteRange::new(b, b + 1))),
                    }
                }
                out
            }

            fn ranges(&self, pred: impl Fn(usize) -> bool) -> Vec<ByteRange> {
                let full = ByteRange::new(0, SIZE);
                self.runs(full, |b| pred(b).then_some(0)).into_iter().map(|(_, r)| r).collect()
            }

            /// Set every byte of `r` to `client` validity and `state(server)`.
            fn set(&mut self, r: ByteRange, client: bool, state: impl Fn(usize) -> CoherenceState) {
                for b in r.start..r.end {
                    self.client[b] = client;
                    for (s, v) in self.servers.iter_mut() {
                        v[b] = state(*s);
                    }
                }
            }

            /// The client copy of byte `b` became `value`, valid, from
            /// `source`, which is demoted to Shared.
            fn refresh(&mut self, b: usize, value: u8, source: usize) {
                self.data[b] = value;
                self.client[b] = true;
                if let Some(st) = self.servers.get_mut(&source).map(|v| &mut v[b]) {
                    if *st == Modified {
                        *st = Shared;
                    }
                }
            }

            fn register(&mut self, server: usize) {
                self.servers.entry(server).or_insert_with(|| vec![Invalid; SIZE]);
            }

            fn upload(&mut self, server: usize, r: ByteRange) {
                self.register(server);
                for b in r.start..r.end {
                    self.servers.get_mut(&server).unwrap()[b] = Shared;
                    self.client[b] = true;
                }
            }

            fn invalidate(&mut self, server: usize) -> bool {
                let mut lost = false;
                for b in 0..SIZE {
                    if !self.valid(server, b) {
                        continue;
                    }
                    self.servers.get_mut(&server).unwrap()[b] = Invalid;
                    if !self.client[b] && self.source(b).is_none() {
                        self.client[b] = true;
                        lost = true;
                    }
                }
                lost
            }

            /// The plan the directory must produce for `server` over `bound`:
            /// under the whole-buffer policy a non-empty bound is the whole
            /// buffer and any transfer collapses.
            fn plan(&self, server: usize, bound: ByteRange, cap: usize) -> DeltaPlan {
                let bound =
                    if self.whole && !bound.is_empty() { ByteRange::new(0, SIZE) } else { bound };
                let stale = |b: usize| !self.valid(server, b);
                let uploads: Vec<ByteRange> = self
                    .runs(bound, |b| stale(b).then_some(0))
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect();
                let need = |b: usize| self.source(b).filter(|_| !self.client[b]);
                // One fetch per source, in source order, of its runs.
                let fetches = |runs: Vec<(usize, ByteRange)>| -> Vec<RangeFetch> {
                    let mut by_source: BTreeMap<usize, Vec<ByteRange>> = BTreeMap::new();
                    for (source, r) in runs {
                        by_source.entry(source).or_default().push(r);
                    }
                    by_source
                        .into_iter()
                        .map(|(source, ranges)| RangeFetch { source, ranges })
                        .collect()
                };
                let needed = self.runs(bound, |b| need(b).filter(|_| stale(b)));
                if uploads.is_empty() {
                    return DeltaPlan::default();
                }
                if !self.whole && needed.len() + uploads.len() <= cap {
                    return DeltaPlan { fetches: fetches(needed), uploads, collapsed: false };
                }
                let fetches = fetches(self.runs(ByteRange::new(0, SIZE), need));
                DeltaPlan { fetches, uploads: vec![ByteRange::new(0, SIZE)], collapsed: true }
            }

            /// The client received `ranges` from `server`, back to back in
            /// `data`: each byte the server holds refreshes the client.
            fn receive(&mut self, server: usize, ranges: &[ByteRange], data: &[u8]) {
                let mut at = 0;
                for r in ranges {
                    for x in r.start..r.end.min(SIZE) {
                        if self.valid(server, x) {
                            self.refresh(x, data[at + x - r.start], server);
                        }
                    }
                    at += r.len();
                }
            }
        }

        fn bytes(seed: u64, len: usize) -> Vec<u8> {
            let mut x = seed | 1;
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect()
        }

        /// A range from two random words: a short one (≤ 64 bytes) or a
        /// long one, sometimes reaching past the buffer end.
        fn range(a: u64, b: u64) -> ByteRange {
            let start = (a % (SIZE as u64 + 16)) as usize;
            let len = if b.is_multiple_of(3) { b as usize % SIZE } else { b as usize % 65 };
            ByteRange::new(start, start + len)
        }

        fn assert_agree(dir: &BufferDirectory, model: &ByteModel, step: &str) {
            dir.check_invariants().unwrap_or_else(|e| panic!("{step}: {e}"));
            for server in 0..5 {
                let valid = model.ranges(|b| model.valid(server, b));
                let stale = model.ranges(|b| !model.valid(server, b));
                assert_eq!(dir.valid_ranges(server), valid, "{step}: valid ranges of {server}");
                assert_eq!(dir.stale_ranges(server), stale, "{step}: stale ranges of {server}");
            }
            assert_eq!(dir.client_data(dir.full_range()), model.data, "{step}: client data");
            assert_eq!(dir.client_valid(), model.client.iter().all(|&c| c), "{step}: client valid");
        }

        /// Servers 0..3 hold interleaved host-written and device-written
        /// patches: 2 segments per 8 bytes.  The fragments are recorded
        /// under range coherence, then `whole` switches the policy, so the
        /// whole-buffer policy starts from the same fragmented state.
        fn fragmented(whole: bool) -> (BufferDirectory, ByteModel) {
            let mut dir = BufferDirectory::new_with_mode([0, 1, 2], SIZE, CoherenceMode::Range);
            let mut model = ByteModel::new(&[0, 1, 2]);
            for k in 0..SIZE / 8 {
                let (server, r) = (k % 3, ByteRange::new(k * 8 + k % 3, k * 8 + 4 + k % 4));
                if k % 4 == 3 {
                    dir.record_device_write(server, r);
                    model.set(r, false, |s| if s == server { Modified } else { Invalid });
                } else {
                    let data = bytes(k as u64, r.len());
                    dir.record_host_write(server, r.start, &data);
                    model.data[r.start..r.end].copy_from_slice(&data);
                    model.set(r, true, |s| if s == server { Shared } else { Invalid });
                }
            }
            assert!(dir.segment_count() >= 512, "{} segments", dir.segment_count());
            assert_agree(&dir, &model, "pre-fragmentation");
            dir.whole = whole;
            model.whole = whole;
            (dir, model)
        }

        proptest! {
            /// Every directory operation agrees with the per-byte model on a
            /// heavily fragmented directory, including the plans it makes,
            /// under both policies.  An executed plan ships only bytes the
            /// client holds (or that no server holds), and under the
            /// whole-buffer policy leaves its target valid everywhere.
            #[test]
            fn directory_matches_per_byte_model(
                whole in any::<bool>(),
                cap in prop_oneof![2usize..6, 32usize..33, 100_000usize..100_001],
                ops in proptest::collection::vec((0u8..9, 0usize..5, any::<u64>(), any::<u64>()), 1..40),
            ) {
                let (mut dir, mut model) = fragmented(whole);
                dir.set_fragmentation_cap(cap);
                for (i, &(op, server, a, b)) in ops.iter().enumerate() {
                    let r = range(a, b);
                    let clamped = r.clamp_to(SIZE);
                    // Devices exist only on registered servers.
                    let registered = model.servers.contains_key(&server);
                    match op {
                        0 => {
                            let data = bytes(a ^ b, r.len());
                            dir.record_host_write(server, r.start, &data);
                            if r.start < SIZE {
                                model.data[clamped.start..clamped.end].copy_from_slice(&data[..clamped.len()]);
                                model.set(clamped, true, |s| if s == server { Shared } else { Invalid });
                            }
                        }
                        1 | 2 if registered => {
                            let widen = op == 1 || whole && !clamped.is_empty();
                            let r = if widen { ByteRange::new(0, SIZE) } else { clamped };
                            dir.record_device_write(server, if op == 1 { r } else { clamped });
                            model.set(r, false, |s| if s == server { Modified } else { Invalid });
                        }
                        3 => {
                            let data = bytes(a.rotate_left(7), r.len());
                            dir.record_received(server, &[r], &data);
                            model.receive(server, &[r], &data);
                        }
                        4 => {
                            let ranges = [r, range(b, a), range(a ^ b, b)];
                            let data = bytes(b, ranges.iter().map(ByteRange::len).sum());
                            dir.record_received(server, &ranges, &data);
                            model.receive(server, &ranges, &data);
                        }
                        5 => {
                            let bound = if a % 2 == 0 { ByteRange::new(0, SIZE) } else { r };
                            let plan = dir.plan_delta(server, bound);
                            assert_eq!(plan, model.plan(server, bound.clamp_to(SIZE), cap), "op {i}: plan");
                            for f in &plan.fetches {
                                let len = f.ranges.iter().map(ByteRange::len).sum();
                                let data = bytes(f.ranges[0].start as u64 ^ a, len);
                                for x in &f.ranges {
                                    for y in x.start..x.end {
                                        assert!(model.valid(f.source, y), "op {i}: fetch of byte {y} from a stale copy");
                                    }
                                }
                                dir.record_received(f.source, &f.ranges, &data);
                                model.receive(f.source, &f.ranges, &data);
                            }
                            for u in &plan.uploads {
                                for b in u.start..u.end {
                                    let held = model.client[b] || model.source(b).is_none();
                                    assert!(held, "op {i}: upload ships byte {b} the client lacks");
                                }
                                dir.record_upload(server, *u);
                                model.upload(server, *u);
                            }
                            assert!(dir.plan_delta(server, bound).is_noop(), "op {i}: executed plan");
                            if whole && !bound.clamp_to(SIZE).is_empty() {
                                assert!(dir.stale_ranges(server).is_empty(), "op {i}: whole-policy target");
                            }
                        }
                        6 => {
                            dir.record_upload(server, r);
                            model.upload(server, clamped);
                        }
                        7 => assert_eq!(dir.invalidate_server(server), model.invalidate(server), "op {i}: lost"),
                        8 => {
                            dir.add_server(server);
                            model.register(server);
                        }
                        _ => {}
                    }
                    assert_agree(&dir, &model, &format!("op {i} ({op}, server {server}, {r:?})"));
                }
            }
        }
    }
}
