//! Buffer coherence: differential + property suite.
//!
//! The first half drives a *simulated* driver — a [`Sim`] holds a
//! `BufferDirectory` plus per-server byte storage and executes delta plans
//! exactly the way the client driver does — through random interleavings of
//! host writes, device writes (with and without declared access slices),
//! host reads and validations.  Every sequence runs on the one directory
//! under both of its policies — range transfers and the paper's
//! whole-buffer policy (`DCL_COHERENCE=whole`) — and on a perfectly
//! coherent reference buffer.  Observable reads must match the reference
//! under both policies, and the directory invariants must hold after every
//! step.
//!
//! The second half proves the same machinery through the real client /
//! daemon wire path: sparse updates move only the stale ranges (and at
//! least 5x less traffic than the whole-buffer policy), a buffer
//! partitioned across two daemons with `writes_slice` hints assembles
//! bit-correct, and an unpinned mixed workload stays bit-correct under
//! whichever policy `DCL_COHERENCE` selected for the run (CI runs this
//! binary under both).

use dopencl::coherence::{BufferDirectory, ByteRange, CoherenceMode};
use dopencl::{Context, LinkModel, LocalCluster, NdRange, SimClock, Value};
use proptest::prelude::*;
use vocl::Platform;

// ---------------------------------------------------------------------------
// Simulated driver
// ---------------------------------------------------------------------------

/// A directory plus the byte storage it is supposed to keep coherent: one
/// `Vec<u8>` per server (the remote memory objects).  Transfers follow the
/// client driver's `ensure_valid_range_on` to the letter — fetch the ranges
/// the plan names from their source's storage, back to back, record them as
/// received, then upload exactly the planned ranges.
struct Sim {
    dir: BufferDirectory,
    storage: Vec<Vec<u8>>,
    size: usize,
    /// Total bytes moved by coherence transfers (fetches + uploads).
    moved: u64,
}

impl Sim {
    fn new(mode: CoherenceMode, servers: usize, size: usize) -> Sim {
        Sim {
            dir: BufferDirectory::new_with_mode(0..servers, size, mode),
            storage: vec![vec![0u8; size]; servers],
            size,
            moved: 0,
        }
    }

    /// Execute the delta plan for `server`, mirroring the client driver.
    fn ensure_valid(&mut self, server: usize, range: Option<ByteRange>) {
        let plan = self.dir.plan_delta(server, range.unwrap_or(self.dir.full_range()));
        for fetch in &plan.fetches {
            let storage = &self.storage[fetch.source];
            let data: Vec<u8> =
                fetch.ranges.iter().flat_map(|r| &storage[r.start..r.end]).copied().collect();
            self.moved += data.len() as u64;
            self.dir.record_received(fetch.source, &fetch.ranges, &data);
        }
        for upload in &plan.uploads {
            let data = self.dir.client_data(*upload);
            self.moved += data.len() as u64;
            self.storage[server][upload.start..upload.end].copy_from_slice(&data);
            self.dir.record_upload(server, *upload);
        }
    }

    /// `clEnqueueWriteBuffer` to `server`.
    fn host_write(&mut self, server: usize, offset: usize, data: &[u8]) {
        self.storage[server][offset..offset + data.len()].copy_from_slice(data);
        self.dir.record_host_write(server, offset, data);
    }

    /// A kernel launch on `server`: `slice` is the declared access hint
    /// (`None` = conservative whole-buffer).  The "kernel" mutates each
    /// byte of the written range from its own value and absolute position,
    /// so its output depends only on bytes the plan validated.
    fn device_write(&mut self, server: usize, slice: Option<ByteRange>) {
        match slice {
            Some(r) => {
                self.ensure_valid(server, Some(r));
                mutate(&mut self.storage[server][r.start..r.end], r.start);
                self.dir.record_device_write(server, r);
            }
            None => {
                self.ensure_valid(server, None);
                mutate(&mut self.storage[server], 0);
                self.dir.record_device_write(server, self.dir.full_range());
            }
        }
    }

    /// A launch whose hint declares the buffer read-only: validated, never
    /// dirtied.
    fn device_read_only(&mut self, server: usize) {
        self.ensure_valid(server, None);
    }

    /// `clEnqueueReadBuffer` from `server`, after validating `validate`
    /// there (`None` = the whole buffer; the client driver validates the
    /// read's own range).
    fn host_read(
        &mut self,
        server: usize,
        offset: usize,
        len: usize,
        validate: Option<ByteRange>,
    ) -> Vec<u8> {
        self.ensure_valid(server, validate);
        let data = self.storage[server][offset..offset + len].to_vec();
        self.dir.record_received(server, &[ByteRange::new(offset, offset + len)], &data);
        data
    }

    /// The daemon died; its re-created memory object starts out empty.
    /// Returns whether any range lost its last valid copy.
    fn crash(&mut self, server: usize) -> bool {
        let lost = self.dir.invalidate_server(server);
        self.storage[server].fill(0);
        lost
    }

    fn check(&self, context: &dyn std::fmt::Debug) {
        if let Err(e) = self.dir.check_invariants() {
            panic!("directory invariant violated after {context:?}: {e}");
        }
        // valid_ranges / stale_ranges partition the buffer for every server.
        for server in 0..self.storage.len() {
            let valid: usize = self.dir.valid_ranges(server).iter().map(|r| r.len()).sum();
            let stale: usize = self.dir.stale_ranges(server).iter().map(|r| r.len()).sum();
            assert_eq!(
                valid + stale,
                self.size,
                "server {server}: valid ({valid}) + stale ({stale}) must cover the buffer \
                 after {context:?}"
            );
        }
    }
}

/// The deterministic "kernel": each byte becomes a function of its previous
/// value and its absolute buffer position.
fn mutate(bytes: &mut [u8], base: usize) {
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = b.wrapping_mul(31).wrapping_add(((base + i) as u8) ^ 0xA5);
    }
}

/// Deterministic payload for host writes.
fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add((i as u8).wrapping_mul(13)).wrapping_add(1)).collect()
}

// ---------------------------------------------------------------------------
// Random interleavings
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    HostWrite { server: usize, offset: usize, seed: u8, len: usize },
    DeviceWrite { server: usize, slice: Option<(usize, usize)> },
    DeviceReadOnly { server: usize },
    HostRead { server: usize, offset: usize, len: usize },
    RangeRead { server: usize, offset: usize, len: usize },
    Validate { server: usize, slice: Option<(usize, usize)> },
}

/// Clamp an (offset, len) pair into the buffer.
fn clamp(offset: usize, len: usize, size: usize) -> (usize, usize) {
    let offset = offset.min(size);
    (offset, len.min(size - offset))
}

fn op_strategy(servers: usize, size: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..servers, 0..size, any::<u8>(), 0..size / 2).prop_map(move |(s, o, seed, l)| {
            let (offset, len) = clamp(o, l, size);
            Op::HostWrite { server: s, offset, seed, len }
        }),
        (0..servers, 0..size, 0..size / 4, any::<bool>()).prop_map(move |(s, o, l, whole)| {
            let slice = if whole { None } else { Some(clamp(o, l, size)) };
            Op::DeviceWrite { server: s, slice }
        }),
        (0..servers, 0..2usize).prop_map(|(s, _)| Op::DeviceReadOnly { server: s }),
        (0..servers, 0..size, 0..size).prop_map(move |(s, o, l)| {
            let (offset, len) = clamp(o, l, size);
            Op::HostRead { server: s, offset, len }
        }),
        (0..servers, 0..size, 0..size).prop_map(move |(s, o, l)| {
            let (offset, len) = clamp(o, l, size);
            Op::RangeRead { server: s, offset, len }
        }),
        (0..servers, 0..size, 0..size, any::<bool>()).prop_map(move |(s, o, l, whole)| {
            let slice = if whole { None } else { Some(clamp(o, l, size)) };
            Op::Validate { server: s, slice }
        }),
    ]
}

/// Apply one op to a sim; returns the observable bytes for read ops.
fn apply(sim: &mut Sim, op: &Op) -> Option<Vec<u8>> {
    let result = match *op {
        Op::HostWrite { server, offset, seed, len } => {
            sim.host_write(server, offset, &pattern(seed, len));
            None
        }
        Op::DeviceWrite { server, slice } => {
            sim.device_write(server, slice.map(|(o, l)| ByteRange::new(o, o + l)));
            None
        }
        Op::DeviceReadOnly { server } => {
            sim.device_read_only(server);
            None
        }
        Op::HostRead { server, offset, len } => Some(sim.host_read(server, offset, len, None)),
        Op::RangeRead { server, offset, len } => {
            Some(sim.host_read(server, offset, len, Some(ByteRange::new(offset, offset + len))))
        }
        Op::Validate { server, slice } => {
            sim.ensure_valid(server, slice.map(|(o, l)| ByteRange::new(o, o + l)));
            None
        }
    };
    sim.check(op);
    result
}

/// Apply one op to the perfectly coherent reference buffer.
fn apply_reference(reference: &mut [u8], op: &Op) -> Option<Vec<u8>> {
    match *op {
        Op::HostWrite { offset, seed, len, .. } => {
            reference[offset..offset + len].copy_from_slice(&pattern(seed, len));
            None
        }
        Op::DeviceWrite { slice, .. } => {
            let (o, l) = slice.unwrap_or((0, reference.len()));
            mutate(&mut reference[o..o + l], o);
            None
        }
        Op::HostRead { offset, len, .. } | Op::RangeRead { offset, len, .. } => {
            Some(reference[offset..offset + len].to_vec())
        }
        Op::DeviceReadOnly { .. } | Op::Validate { .. } => None,
    }
}

const SERVERS: usize = 3;
const SIZE: usize = 48;

proptest! {
    /// The differential property: for any interleaving of host writes,
    /// device writes (hinted or not), reads and validations, the directory
    /// observes the reads of a perfectly coherent reference under both
    /// policies, keeps its invariants after every step — and range
    /// transfers never move more coherence bytes than the whole-buffer
    /// policy.
    #[test]
    fn range_and_whole_modes_agree_on_observable_reads(
        ops in proptest::collection::vec(op_strategy(SERVERS, SIZE), 1..=24),
    ) {
        let mut range_sim = Sim::new(CoherenceMode::Range, SERVERS, SIZE);
        let mut whole_sim = Sim::new(CoherenceMode::Whole, SERVERS, SIZE);
        let mut reference = vec![0u8; SIZE];
        for op in &ops {
            let from_range = apply(&mut range_sim, op);
            let from_whole = apply(&mut whole_sim, op);
            let expected = apply_reference(&mut reference, op);
            prop_assert_eq!(&from_range, &expected, "range mode diverged on {:?}", op);
            prop_assert_eq!(&from_whole, &expected, "whole policy diverged on {:?}", op);
            if let Op::HostRead { server, .. } = *op {
                // A completed read is covered by valid ranges on its server.
                for sim in [&range_sim, &whole_sim] {
                    let covered: usize =
                        sim.dir.valid_ranges(server).iter().map(|r| r.len()).sum();
                    prop_assert_eq!(covered, SIZE, "read left stale ranges on {}", server);
                }
            }
        }
        prop_assert!(
            range_sim.moved <= whole_sim.moved,
            "range coherence moved {} bytes, the whole-buffer policy only {}",
            range_sim.moved,
            whole_sim.moved
        );
    }

    /// Crash resilience at directory level: random interleavings with
    /// server crashes keep the structural invariants, and as long as no
    /// crash loses the last valid copy of a range the observable reads
    /// still match the coherent reference exactly (the failover path
    /// re-validates only the genuinely stale ranges).
    #[test]
    fn crashes_degrade_only_ranges_that_lost_their_last_copy(
        ops in proptest::collection::vec(op_strategy(SERVERS, SIZE), 1..=16),
        crash_points in proptest::collection::vec((0..16usize, 0..SERVERS), 1..=3),
    ) {
        let mut sim = Sim::new(CoherenceMode::Range, SERVERS, SIZE);
        let mut reference = vec![0u8; SIZE];
        let mut lossless = true;
        for (i, op) in ops.iter().enumerate() {
            for &(at, server) in &crash_points {
                if at == i {
                    lossless &= !sim.crash(server);
                    prop_assert!(sim.dir.valid_ranges(server).is_empty());
                    sim.check(&format!("crash of {server}"));
                }
            }
            let observed = apply(&mut sim, op);
            let expected = apply_reference(&mut reference, op);
            if lossless {
                prop_assert_eq!(&observed, &expected, "lossless crash changed {:?}", op);
            } else if let (Some(o), Some(e)) = (&observed, &expected) {
                // Data was legitimately lost; reads still return the right
                // amount of bytes from a structurally sound directory.
                prop_assert_eq!(o.len(), e.len());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Full stack: sparse updates
// ---------------------------------------------------------------------------

fn two_node_cluster(name: &str) -> (LocalCluster, dopencl::Client) {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("node0", &Platform::test_platform(1)).unwrap();
    cluster.add_node("node1", &Platform::test_platform(1)).unwrap();
    let client = cluster.client_with_clock(name, SimClock::new()).unwrap();
    (cluster, client)
}

const SPARSE_SIZE: usize = 16384;
const SPARSE_PATCHES: usize = 10;
const PATCH_LEN: usize = 64;
const PATCH_STRIDE: usize = 1600;

/// Write a base image through node0, read it through node1, then dirty ten
/// scattered 64-byte patches through node0 and read the buffer back through
/// node1.  Returns the final read and the stream bytes the client sent
/// during the sparse phase (patch payloads + coherence uploads).
fn sparse_scenario(mode: CoherenceMode, name: &str) -> (Vec<u8>, u64) {
    let (_cluster, client) = two_node_cluster(name);
    client.set_coherence_mode(mode);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(SPARSE_SIZE).unwrap();

    let base: Vec<u8> = (0..SPARSE_SIZE).map(|i| (i % 251) as u8).collect();
    q0.write_buffer(&buffer, &base).blocking().submit().unwrap();
    let (primed, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(primed, base, "both nodes start from the same image");

    let before = client.traffic_stats();
    let mut expected = base;
    for k in 0..SPARSE_PATCHES {
        let offset = k * PATCH_STRIDE;
        let patch: Vec<u8> = (0..PATCH_LEN).map(|i| (k * 7 + i * 3 + 1) as u8).collect();
        expected[offset..offset + PATCH_LEN].copy_from_slice(&patch);
        q0.write_buffer(&buffer, &patch).at_offset(offset).blocking().submit().unwrap();
    }

    // Diagnostics: both policies track host writes exactly, so node1 is
    // stale over exactly the ten patches.
    let stale = buffer.stale_ranges(devices[1].server());
    assert_eq!(stale.len(), SPARSE_PATCHES);
    let stale_bytes: usize = stale.iter().map(|r| r.len()).sum();
    assert_eq!(stale_bytes, SPARSE_PATCHES * PATCH_LEN);
    // Ten patch segments and ten gap segments (the first patch starts at
    // offset 0, so there is no leading gap).
    assert_eq!(buffer.segment_count(), 2 * SPARSE_PATCHES);

    let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(data, expected, "sparse updates must be visible on node1");
    (data, client.traffic_stats().delta(&before).stream_bytes_sent)
}

/// The headline traffic property of the PR: with ~4 % of the buffer
/// dirtied, range coherence uploads only the stale patches while the
/// whole-buffer oracle re-ships the entire buffer — at least 5x (here >10x)
/// more bytes for a byte-identical result.
#[test]
fn sparse_updates_move_only_stale_ranges_between_daemons() {
    let (range_data, range_sent) = sparse_scenario(CoherenceMode::Range, "sparse-range");
    let (whole_data, whole_sent) = sparse_scenario(CoherenceMode::Whole, "sparse-whole");
    assert_eq!(range_data, whole_data, "both modes observe the same bytes");

    let dirty = (SPARSE_PATCHES * PATCH_LEN) as u64;
    assert_eq!(range_sent, 2 * dirty, "patch payloads + delta uploads only");
    assert_eq!(whole_sent, dirty + SPARSE_SIZE as u64, "oracle re-ships the whole buffer");
    assert!(
        whole_sent >= 5 * range_sent,
        "expected a >=5x traffic reduction, got {whole_sent} vs {range_sent}"
    );
}

// ---------------------------------------------------------------------------
// Full stack: a buffer partitioned across daemons
// ---------------------------------------------------------------------------

/// Integer kernel that stamps `out[(gy + row_offset) * width + gx]` with a
/// deterministic value, so disjoint row slices of one buffer can be
/// computed on different daemons.
const FILL_ROWS_SOURCE: &str = r#"
__kernel void fill_rows(__global uint* out, uint width, uint row_offset) {
    size_t gx = get_global_id(0);
    size_t gy = get_global_id(1);
    uint row = (uint)gy + row_offset;
    out[row * width + gx] = row * 131u + (uint)gx * 7u + 3u;
}
"#;

const PART_WIDTH: usize = 32;
const PART_HEIGHT: usize = 16;

fn expected_rows() -> Vec<u8> {
    let mut out = Vec::with_capacity(PART_WIDTH * PART_HEIGHT * 4);
    for row in 0..PART_HEIGHT as u32 {
        for gx in 0..PART_WIDTH as u32 {
            out.extend_from_slice(&(row * 131 + gx * 7 + 3).to_le_bytes());
        }
    }
    out
}

/// One shared output buffer, each daemon computing half the rows under a
/// `writes_slice` hint: the directory keeps both halves valid on their
/// owners without any intermediate transfer, and a single read assembles
/// the full image bit-correct from both partitions.
#[test]
fn buffer_partitioned_across_daemons_assembles_bit_correct() {
    let (_cluster, client) = two_node_cluster("partition");
    client.set_coherence_mode(CoherenceMode::Range);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let program = context.create_program_with_source(FILL_ROWS_SOURCE).unwrap();
    program.build().unwrap();

    let bytes = PART_WIDTH * PART_HEIGHT * 4;
    let half_rows = PART_HEIGHT / 2;
    let half_bytes = bytes / 2;
    let buffer = context.create_buffer(bytes).unwrap();

    let mut events = Vec::new();
    for (i, device) in devices.iter().enumerate() {
        let queue = context.create_command_queue(device).unwrap();
        let kernel = program.create_kernel("fill_rows").unwrap();
        kernel.set_arg(0, &buffer).unwrap();
        kernel.set_arg(1, Value::uint(PART_WIDTH as u64)).unwrap();
        kernel.set_arg(2, Value::uint((i * half_rows) as u64)).unwrap();
        let event = queue
            .launch(&kernel, NdRange::two_d(PART_WIDTH, half_rows))
            .writes_slice(&buffer, i * half_bytes, half_bytes)
            .submit()
            .unwrap();
        events.push((queue, event));
    }
    for (_, event) in &events {
        event.wait().unwrap();
    }

    // Each daemon owns exactly its half; nothing was shipped between them.
    let valid0 = buffer.valid_ranges(devices[0].server());
    let valid1 = buffer.valid_ranges(devices[1].server());
    assert_eq!(valid0, vec![ByteRange::new(0, half_bytes)]);
    assert_eq!(valid1, vec![ByteRange::new(half_bytes, bytes)]);

    // One read assembles the partitions; both queues must agree.
    let expected = expected_rows();
    let (from_q0, _) = events[0].0.read_buffer(&buffer).submit().unwrap();
    assert_eq!(from_q0, expected, "assembled image must be bit-correct");
    let (from_q1, _) = events[1].0.read_buffer(&buffer).submit().unwrap();
    assert_eq!(from_q1, expected);
}

// ---------------------------------------------------------------------------
// Full stack: honour the session's DCL_COHERENCE mode
// ---------------------------------------------------------------------------

/// A mixed write / hinted-launch / read workload that pins no mode: CI runs
/// this binary once with the range default and once under
/// `DCL_COHERENCE=whole`, and the observable bytes must be correct either
/// way.
#[test]
fn mixed_workload_is_bit_correct_in_the_session_mode() {
    let (_cluster, client) = two_node_cluster("mixed");
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let program = context.create_program_with_source(FILL_ROWS_SOURCE).unwrap();
    program.build().unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();

    let bytes = PART_WIDTH * PART_HEIGHT * 4;
    let buffer = context.create_buffer(bytes).unwrap();
    q0.write_buffer(&buffer, &vec![0xEE; bytes]).blocking().submit().unwrap();

    // Device on node1 stamps the top half of the image...
    let half_rows = PART_HEIGHT / 2;
    let kernel = program.create_kernel("fill_rows").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    kernel.set_arg(1, Value::uint(PART_WIDTH as u64)).unwrap();
    kernel.set_arg(2, Value::uint(0)).unwrap();
    q1.launch(&kernel, NdRange::two_d(PART_WIDTH, half_rows))
        .writes_slice(&buffer, 0, bytes / 2)
        .submit()
        .unwrap()
        .wait()
        .unwrap();

    // ... the host patches a few bytes through node0 ...
    q0.write_buffer(&buffer, &[1, 2, 3, 4]).at_offset(bytes / 2).blocking().submit().unwrap();

    // ... and a read through either node sees the same assembled result.
    let mut expected = expected_rows()[..bytes / 2].to_vec();
    expected.extend(std::iter::repeat_n(0xEE, bytes / 2));
    expected[bytes / 2..bytes / 2 + 4].copy_from_slice(&[1, 2, 3, 4]);
    let (from_q0, _) = q0.read_buffer(&buffer).submit().unwrap();
    assert_eq!(from_q0, expected);
    let (from_q1, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(from_q1, expected);
}
