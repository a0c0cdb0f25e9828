//! Figure 8: efficiency of dOpenCL's data transfer over Gigabit Ethernet as
//! a function of the transfer size, compared with the effective bandwidth
//! iperf measures (~86 % of the theoretical 125 MB/s).
//!
//! The module also hosts the command-pipeline profile: the same link, but
//! measuring *round trips* rather than bytes — how many wire messages a
//! run of N commands costs with and without client-side batching.

use dopencl::{Context, LocalCluster};
use gcf::simtime::SimClock;
use gcf::LinkModel;
use std::time::Duration;
use vocl::Platform;
use workloads::bandwidth::{efficiency_sweep, iperf_reference_efficiency, EfficiencyPoint};

/// The full Figure 8 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// Efficiency per transfer size.
    pub points: Vec<EfficiencyPoint>,
    /// The iperf reference line.
    pub iperf_efficiency: f64,
}

/// The transfer sizes of the paper's sweep: 1 MB to 1024 MB in powers of
/// two.
pub fn paper_sizes() -> Vec<u64> {
    (0..=10).map(|p| 1u64 << p).collect()
}

/// Run the Figure 8 sweep over the given sizes.
pub fn run(sizes_mb: &[u64]) -> dopencl::Result<Fig8Result> {
    Ok(Fig8Result {
        points: efficiency_sweep(sizes_mb)?,
        iperf_efficiency: iperf_reference_efficiency(),
    })
}

/// Wire traffic and modelled runtime of one command-pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineRun {
    /// Requests the client sent (the round trips).
    pub requests_sent: u64,
    /// Completion frames pushed back by the daemon (one-way); statuses that
    /// ride a batch's response are not counted.
    pub notifications_received: u64,
    /// Total wire messages in both directions, excluding the responses that
    /// pair 1:1 with requests and the bulk data stream.
    pub wire_messages: u64,
    /// Requests per queue flush: the headline batching metric.
    pub messages_per_flush: f64,
    /// Modelled runtime of the command loop on the simulation clock.
    pub simulated: Duration,
}

/// Before/after comparison of the batched command pipeline over the
/// Figure 8 link: `flushes` rounds of `commands_per_flush` small writes
/// followed by a `finish()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandPipelineProfile {
    /// Commands enqueued between consecutive flushes.
    pub commands_per_flush: usize,
    /// Number of enqueue-then-finish rounds.
    pub flushes: usize,
    /// Per-command round trips (batching disabled) — the "before" run.
    pub unbatched: PipelineRun,
    /// Accumulated batches (the production path) — the "after" run.
    pub batched: PipelineRun,
}

impl CommandPipelineProfile {
    /// How many times fewer requests per flush the batched pipeline needs.
    pub fn message_reduction(&self) -> f64 {
        self.unbatched.messages_per_flush / self.batched.messages_per_flush
    }
}

/// Measure the command pipeline with batching on and off.
pub fn command_pipeline_profile(
    commands_per_flush: usize,
    flushes: usize,
) -> dopencl::Result<CommandPipelineProfile> {
    Ok(CommandPipelineProfile {
        commands_per_flush,
        flushes,
        unbatched: pipeline_run(commands_per_flush, flushes, false)?,
        batched: pipeline_run(commands_per_flush, flushes, true)?,
    })
}

fn pipeline_run(
    commands_per_flush: usize,
    flushes: usize,
    batching: bool,
) -> dopencl::Result<PipelineRun> {
    let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
    cluster.add_node("gpuserver", &Platform::gpu_server())?;
    let clock = SimClock::new();
    let client = cluster.client_with_clock("pipeline", clock.clone())?;
    client.set_batching(batching);

    let devices = client.devices();
    let device = devices
        .first()
        .ok_or_else(|| dopencl::DclError::InvalidArgument("no devices available".into()))?;
    let context = Context::new(&client, std::slice::from_ref(device))?;
    let queue = context.create_command_queue(device)?;
    let buffer = context.create_buffer(1024)?;
    let payload = vec![0x5Au8; 1024];

    // Measure only the command loop, not context/queue/buffer setup.
    let before_traffic = client.traffic_stats();
    let before_time = clock.breakdown().total();
    for _ in 0..flushes {
        for _ in 0..commands_per_flush {
            queue.write_buffer(&buffer, &payload).submit()?;
        }
        queue.finish()?;
    }
    let traffic = client.traffic_stats().delta(&before_traffic);
    let simulated = clock.breakdown().total().saturating_sub(before_time);
    Ok(PipelineRun {
        requests_sent: traffic.requests_sent,
        notifications_received: traffic.notifications_received,
        wire_messages: traffic.requests_sent + traffic.notifications_received,
        messages_per_flush: traffic.requests_sent as f64 / flushes.max(1) as f64,
        simulated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_approaches_but_stays_below_the_iperf_line() {
        let result = run(&[1, 8, 64, 512, 1024]).unwrap();
        assert!((0.82..0.88).contains(&result.iperf_efficiency));
        let first = result.points.first().unwrap();
        let last = result.points.last().unwrap();
        assert!(last.write_efficiency > first.write_efficiency);
        assert!(last.write_efficiency > 0.75, "large transfers use the link well");
        for p in &result.points {
            assert!(p.write_efficiency <= result.iperf_efficiency + 0.02);
            assert!(p.read_efficiency <= 1.0);
        }
    }

    #[test]
    fn paper_sizes_cover_1_to_1024() {
        let sizes = paper_sizes();
        assert_eq!(sizes.first(), Some(&1));
        assert_eq!(sizes.last(), Some(&1024));
        assert_eq!(sizes.len(), 11);
    }

    #[test]
    fn batching_collapses_round_trips_and_runtime() {
        let profile = command_pipeline_profile(8, 3).unwrap();
        // Unbatched: one request per write plus one for the finish marker.
        assert_eq!(profile.unbatched.requests_sent, 27);
        // Batched: the whole round (writes + marker) ships as one request.
        assert_eq!(profile.batched.requests_sent, 3);
        assert!(profile.message_reduction() >= 2.0, "reduction {}", profile.message_reduction());
        // Every write, and each round's finish marker, finds its queue idle,
        // so it completes while the daemon handles its batch and its status
        // rides the batch's response: no completion frame either way.
        assert_eq!(profile.unbatched.notifications_received, 0);
        assert_eq!(profile.batched.notifications_received, 0);
        // Fewer round trips must translate into less modelled time on a
        // gigabit-Ethernet link (~400 us per round trip).
        assert!(profile.batched.simulated < profile.unbatched.simulated);
    }

    /// Modelled time is a function of the workload alone: two runs charge
    /// the same round trips for the same encoded requests.
    #[test]
    fn pipeline_simulated_time_is_deterministic() {
        let first = command_pipeline_profile(8, 3).unwrap();
        let second = command_pipeline_profile(8, 3).unwrap();
        assert_eq!(first.unbatched.simulated, second.unbatched.simulated, "unbatched");
        assert_eq!(first.batched.simulated, second.batched.simulated, "batched");
    }
}
