//! Figure 7: time to transfer 1024 MB to (write) and from (read) a device of
//! the GPU server, over Gigabit Ethernet through dOpenCL vs directly over
//! PCI Express — plus the sparse-update companion experiment measuring how
//! many bytes range-granular coherence moves compared to the whole-buffer
//! protocol when only a small fraction of a shared buffer is dirtied.

use dopencl::coherence::CoherenceMode;
use dopencl::{Context, LocalCluster};
use gcf::simtime::SimClock;
use gcf::LinkModel;
use std::time::Duration;
use vocl::{DeviceProfile, Platform};
use workloads::bandwidth::{dopencl_transfer_with, native_transfer, TransferTimes};

/// The four bars of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig7Result {
    /// Transfer size in MB.
    pub megabytes: u64,
    /// Through dOpenCL over Gigabit Ethernet.
    pub gigabit_ethernet: TransferTimes,
    /// Directly over the server's PCI Express bus.
    pub pci_express: TransferTimes,
}

impl Fig7Result {
    /// Ratio of the Gigabit Ethernet write time to the PCI Express write
    /// time (the paper reports "up to 50 times slower").
    pub fn write_slowdown(&self) -> f64 {
        self.gigabit_ethernet.write.as_secs_f64() / self.pci_express.write.as_secs_f64()
    }

    /// Ratio of the read times (the paper reports "about 4.5 times slower").
    pub fn read_slowdown(&self) -> f64 {
        self.gigabit_ethernet.read.as_secs_f64() / self.pci_express.read.as_secs_f64()
    }
}

/// A Figure 7 measurement together with the wire-traffic counters of the
/// dOpenCL run (for the recorded `BENCH_fig7.json` trajectory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig7Run {
    /// The four bars.
    pub result: Fig7Result,
    /// Requests the client sent during the transfer.
    pub requests_sent: u64,
    /// Completion notifications the daemon pushed back.
    pub notifications_received: u64,
}

/// Run the Figure 7 experiment with command batching switched on (`true`,
/// the production path) or off (the per-command round-trip baseline).
pub fn run_mode(megabytes: u64, batching: bool) -> dopencl::Result<Fig7Run> {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("gpuserver", &Platform::gpu_server())?;
    let clock = SimClock::new();
    let client = cluster.client_with_clock("fig7", clock.clone())?;
    client.set_batching(batching);
    let before = client.traffic_stats();
    let gigabit_ethernet = dopencl_transfer_with(&client, &clock, megabytes)?;
    let traffic = client.traffic_stats().delta(&before);
    let pci_express = native_transfer(&DeviceProfile::gpu_tesla_s1070_unit(), megabytes);
    Ok(Fig7Run {
        result: Fig7Result { megabytes, gigabit_ethernet, pci_express },
        requests_sent: traffic.requests_sent,
        notifications_received: traffic.notifications_received,
    })
}

/// Run the Figure 7 experiment for a transfer of `megabytes` MB.
pub fn run(megabytes: u64) -> dopencl::Result<Fig7Result> {
    Ok(run_mode(megabytes, true)?.result)
}

/// A Figure 7 run under injected faults: recovery counters recorded
/// alongside the transfer times (`BENCH_fig7_faulty.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig7FaultyRun {
    /// The four bars, measured across all slices.
    pub result: Fig7Result,
    /// Number of partitions injected (connection drops on the daemon).
    pub partitions: u64,
    /// Successful re-handshakes performed by the client's supervisor.
    pub reconnects: u64,
    /// Requests recovered by retrying them after a reconnect.
    pub recovered_requests: u64,
    /// Requests that observed a dead connection at the endpoint level
    /// before the supervisor recovered it.  Every one of them was retried
    /// to completion — `run_faulty` errors if a request is lost for good.
    pub failed_requests: u64,
    /// Total request frames sent.
    pub requests_sent: u64,
}

/// Run the Figure 7 transfer in `partitions + 1` slices, dropping every
/// client connection on the daemon between slices.  The client's
/// supervisor must reconnect, resume its session and retry the
/// interrupted requests; the run fails if any slice does not complete.
pub fn run_faulty(megabytes: u64, partitions: u64) -> dopencl::Result<Fig7FaultyRun> {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("gpuserver", &Platform::gpu_server())?;
    let clock = SimClock::new();
    let client = cluster.client_with_clock("fig7-faulty", clock.clone())?;
    let before = client.traffic_stats();

    let slices = partitions + 1;
    let per_slice = (megabytes / slices).max(1);
    let mut write = Duration::ZERO;
    let mut read = Duration::ZERO;
    for slice in 0..slices {
        if slice > 0 {
            cluster.daemons()[0].drop_connections();
        }
        let times = dopencl_transfer_with(&client, &clock, per_slice)?;
        write += times.write;
        read += times.read;
    }

    let traffic = client.traffic_stats().delta(&before);
    let transferred = per_slice * slices;
    let pci_express = native_transfer(&DeviceProfile::gpu_tesla_s1070_unit(), transferred);
    Ok(Fig7FaultyRun {
        result: Fig7Result {
            megabytes: transferred,
            gigabit_ethernet: TransferTimes { write, read },
            pci_express,
        },
        partitions,
        reconnects: traffic.reconnects,
        recovered_requests: traffic.retries,
        failed_requests: traffic.failed_requests,
        requests_sent: traffic.requests_sent,
    })
}

/// Client-side wire traffic of one coherence mode during the sparse-update
/// phase (the patch writes plus everything coherence moved between nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseTraffic {
    /// Stream payload bytes the client sent: patch payloads + coherence
    /// uploads to the reading node.
    pub stream_bytes_sent: u64,
    /// Stream payload bytes the client received (the reads through node1).
    pub stream_bytes_received: u64,
    /// Wire requests sent.
    pub requests_sent: u64,
}

/// A/B measurement of the sparse-update workload: the same scattered
/// patches and cross-node reads, once under range-granular coherence and
/// once under the whole-buffer policy (`BENCH_fig7.json`'s
/// `sparse_update` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseCoherenceRun {
    /// Shared buffer size in bytes.
    pub buffer_bytes: u64,
    /// Bytes dirtied per round (patch count x patch length).
    pub dirty_bytes_per_round: u64,
    /// Write-patches-then-read-remotely rounds.
    pub rounds: u64,
    /// Traffic under `CoherenceMode::Range`.
    pub range: SparseTraffic,
    /// Traffic under `CoherenceMode::Whole`.
    pub whole: SparseTraffic,
}

impl SparseCoherenceRun {
    /// How many times more bytes the whole-buffer protocol uploads for the
    /// identical (byte-for-byte) observable result.
    pub fn upload_reduction(&self) -> f64 {
        self.whole.stream_bytes_sent as f64 / self.range.stream_bytes_sent as f64
    }
}

/// One coherence mode of the sparse-update experiment: two daemons share a
/// buffer, node0's queue dirties `patches` scattered `patch_len`-byte
/// patches per round, then the buffer is read through node1 (which forces
/// the directory to re-validate node1's copy).  Returns the traffic of the
/// patch phase and the final read for the differential check.
fn sparse_mode(
    mode: CoherenceMode,
    buffer_bytes: usize,
    patches: usize,
    patch_len: usize,
    rounds: u64,
) -> dopencl::Result<(SparseTraffic, Vec<u8>)> {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("node0", &Platform::test_platform(1))?;
    cluster.add_node("node1", &Platform::test_platform(1))?;
    let client = cluster.client_with_clock("fig7-sparse", SimClock::new())?;
    client.set_coherence_mode(mode);
    let devices = client.devices();
    let context = Context::new(&client, &devices)?;
    let q0 = context.create_command_queue(&devices[0])?;
    let q1 = context.create_command_queue(&devices[1])?;
    let buffer = context.create_buffer(buffer_bytes)?;

    let base: Vec<u8> = (0..buffer_bytes).map(|i| (i % 251) as u8).collect();
    q0.write_buffer(&buffer, &base).blocking().submit()?;
    // Prime node1 so every round starts from a fully valid remote copy.
    let (primed, _) = q1.read_buffer(&buffer).submit()?;
    assert_eq!(primed, base, "both nodes must start from the same image");

    let stride = buffer_bytes / patches;
    let before = client.traffic_stats();
    let mut data = Vec::new();
    for round in 0..rounds {
        for k in 0..patches {
            let offset = k * stride;
            let patch: Vec<u8> =
                (0..patch_len).map(|i| (round as usize * 13 + k * 7 + i) as u8).collect();
            q0.write_buffer(&buffer, &patch).at_offset(offset).blocking().submit()?;
        }
        (data, _) = q1.read_buffer(&buffer).submit()?;
    }
    let traffic = client.traffic_stats().delta(&before);
    Ok((
        SparseTraffic {
            stream_bytes_sent: traffic.stream_bytes_sent,
            stream_bytes_received: traffic.stream_bytes_received,
            requests_sent: traffic.requests_sent,
        },
        data,
    ))
}

/// Run the sparse-update workload in both coherence modes and check the
/// final reads are byte-identical.  Under range coherence the client ships
/// each round's patches twice (once to node0, once as delta uploads to
/// node1); the whole-buffer policy re-ships the entire buffer per round.
pub fn run_sparse_update(
    buffer_bytes: usize,
    patches: usize,
    patch_len: usize,
    rounds: u64,
) -> dopencl::Result<SparseCoherenceRun> {
    let (range, range_data) =
        sparse_mode(CoherenceMode::Range, buffer_bytes, patches, patch_len, rounds)?;
    let (whole, whole_data) =
        sparse_mode(CoherenceMode::Whole, buffer_bytes, patches, patch_len, rounds)?;
    assert_eq!(range_data, whole_data, "both coherence modes must observe the same bytes");
    Ok(SparseCoherenceRun {
        buffer_bytes: buffer_bytes as u64,
        dirty_bytes_per_round: (patches * patch_len) as u64,
        rounds,
        range,
        whole,
    })
}

/// The transfer size used by the paper's Figure 7.
pub const PAPER_TRANSFER_MB: u64 = 1024;

/// Sanity range used by tests: the paper's read bars are both in the
/// 2.5–14 s range for 1024 MB.
pub fn within_paper_axis(result: &Fig7Result) -> bool {
    result.gigabit_ethernet.read < Duration::from_secs(20)
        && result.gigabit_ethernet.write < Duration::from_secs(20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulty_run_recovers_every_slice() {
        let run = run_faulty(8, 3).unwrap();
        assert_eq!(run.partitions, 3);
        assert_eq!(run.result.megabytes, 8);
        assert!(run.reconnects >= 1, "each partition forces a reconnect");
        assert!(run.recovered_requests >= run.partitions, "every interrupted request is retried");
        assert!(run.result.gigabit_ethernet.write > Duration::ZERO);
        assert!(run.result.gigabit_ethernet.read > Duration::ZERO);
    }

    #[test]
    fn sparse_updates_ship_only_the_dirty_ranges() {
        let run = run_sparse_update(64 * 1024, 8, 256, 2).unwrap();
        let dirty = run.dirty_bytes_per_round;
        assert_eq!(run.dirty_bytes_per_round, 2048);
        // Per round: the patches go to node0 once, and the delta uploads
        // re-ship exactly the dirty bytes to node1.
        assert_eq!(run.range.stream_bytes_sent, run.rounds * 2 * dirty);
        // The oracle ships the patches plus the whole buffer per round.
        assert_eq!(run.whole.stream_bytes_sent, run.rounds * (dirty + run.buffer_bytes));
        assert!(
            run.upload_reduction() >= 5.0,
            "expected >=5x fewer upload bytes, got {:.1}x",
            run.upload_reduction()
        );
    }

    #[test]
    fn slowdowns_match_the_papers_ratios() {
        let result = run(PAPER_TRANSFER_MB).unwrap();
        let write_slowdown = result.write_slowdown();
        let read_slowdown = result.read_slowdown();
        assert!(
            (30.0..70.0).contains(&write_slowdown),
            "write slowdown {write_slowdown}, paper says up to ~50x"
        );
        assert!(
            (3.0..6.5).contains(&read_slowdown),
            "read slowdown {read_slowdown}, paper says ~4.5x"
        );
        assert!(within_paper_axis(&result));
        // 1024 MB over ~106 MB/s is roughly 10 s of network time.
        let write_secs = result.gigabit_ethernet.write.as_secs_f64();
        assert!((8.0..14.0).contains(&write_secs), "write took {write_secs}");
    }
}
