//! The closed loop every workload runs, and the metrics computed from it.
//!
//! An untraced run sets the workload up, warms it up, then runs rounds back
//! to back for the given time, setting a second copy of the workload up and
//! down at the start of each one-second slice, and reports the end-to-end
//! metrics over the quietest fifth of the slices.  A traced run sets up once,
//! counts wire/daemon work over a fixed window of rounds, runs the loop
//! untraced and then traced (the difference is the tracing overhead), runs
//! the same rounds directly on `vocl`, and finishes with the layer probes.

use crate::api::Res;
use crate::probes;
use crate::session::{daemon_delta, Session};
use crate::stats::{tail_percentile, Samples, Tally};
use crate::trace;
use dopencl::DaemonStats;
use gcf::rpc::TrafficStats;
use std::time::{Duration, Instant};

/// Seeded inputs and scale of one run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Alter every checked output before the check (the benchmark's tests
    /// use it to prove a wrong output is reported as a failure).
    pub corrupt: bool,
    /// Shrink buffers and frames (for the benchmark's own tests).
    pub small: bool,
}

/// Length of the time slices a loop is cut into.  The host's speed can
/// swing by 2x from one second to the next when other tenants share its
/// cores, so timings are reported over the quietest slices (see
/// [`Measure::quiet`]).
const SLICE_S: f64 = 1.0;

/// What the rounds of one loop recorded.
#[derive(Debug, Default)]
pub struct Measure {
    /// The time slice the current round started in.
    slice: u32,
    /// Seconds per primary operation.
    pub primary: Samples,
    /// Seconds per secondary operation.
    pub secondary: Samples,
    /// Seconds per probe operation (the latency-bound one).
    pub probe: Samples,
    /// Seconds per whole round.
    pub rounds: Samples,
    /// Commands enqueued (writes, reads, launches).
    pub commands: u64,
    /// Bytes the application wrote and read.
    pub payload_bytes: u64,
    /// Bytes the application dirtied in buffers shared between servers.
    pub dirty_bytes: u64,
}

impl Measure {
    pub fn primary(&mut self, seconds: f64) {
        self.primary.push(self.slice, seconds);
    }

    pub fn secondary(&mut self, seconds: f64) {
        self.secondary.push(self.slice, seconds);
    }

    pub fn probe(&mut self, seconds: f64) {
        self.probe.push(self.slice, seconds);
    }

    /// Each operation's samples over the quietest fifth of the run's time
    /// slices for that operation (ranked by the slice's median): the
    /// program at the host's least contended, which repeats from run to run
    /// where whole-run figures do not.
    pub fn quiet(&self) -> Measure {
        Measure {
            slice: 0,
            primary: self.primary.quiet(),
            secondary: self.secondary.quiet(),
            probe: self.probe.quiet(),
            rounds: self.rounds.quiet(),
            commands: self.commands,
            payload_bytes: self.payload_bytes,
            dirty_bytes: self.dirty_bytes,
        }
    }
}

/// A workload: its dOpenCL set-up and round, and the same round on `vocl`.
pub trait Workload: Sized {
    /// Rounds of warm-up, and rounds in the exact-count window.
    const WINDOW: usize;
    type Reference;

    /// Start daemons and set the workload up; returns the workload and the
    /// seconds its set-up took (input generation excluded).
    fn setup(cfg: &Config) -> Res<(Self, f64)>;
    fn session(&self) -> &Session;
    fn round(&mut self, m: &mut Measure, tally: &mut Tally) -> Res<()>;
    /// Release the lease (if any) and stop the daemons.
    fn close(self) -> Res<()>;

    fn reference(cfg: &Config) -> Res<Self::Reference>;
    fn reference_round(r: &mut Self::Reference, m: &mut Measure, tally: &mut Tally) -> Res<()>;

    /// Bytes of the workload's largest single transfer (sizes the bulk and
    /// memcpy probes).
    fn transfer_bytes(cfg: &Config) -> usize;
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's outcome: tally, metrics and human-readable notes.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// False when an operation returned an error (the loop stopped there).
    pub completed: bool,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }
}

/// Run `round` back to back for `budget` (at least one round, and no more
/// than the span recorder holds), calling `each_slice` when a new time
/// slice begins; stops at the first error, which is counted as a failed
/// operation.
fn run_loop(
    budget: Duration,
    tally: &mut Tally,
    mut round: impl FnMut(&mut Measure, &mut Tally) -> Res<()>,
    mut each_slice: impl FnMut(u32) -> Res<()>,
) -> (Measure, Option<String>) {
    let mut m = Measure::default();
    let start = Instant::now();
    let mut next_slice = 0;
    loop {
        m.slice = (start.elapsed().as_secs_f64() / SLICE_S) as u32;
        let step = if m.slice >= next_slice {
            next_slice = m.slice + 1;
            each_slice(m.slice)
        } else {
            Ok(())
        };
        let t = Instant::now();
        if let Err(e) = step.and_then(|()| trace::span("bench.round", || round(&mut m, tally))) {
            tally.attempted += 1;
            tally.failed += 1;
            return (m, Some(e));
        }
        m.rounds.push(m.slice, t.elapsed().as_secs_f64());
        if start.elapsed() >= budget || trace::full() {
            return (m, None);
        }
    }
}

/// A `/proc/self/status` memory figure (`VmHWM:`, `VmRSS:`), in KiB.
fn rss_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .unwrap_or(f64::NAN)
}

/// Rate of an operation from its median duration.
fn rate(s: &Samples) -> f64 {
    1.0 / s.median()
}

/// No-op slice hook.
fn no_hook(_: u32) -> Res<()> {
    Ok(())
}

/// The end-to-end metrics: an untraced run.
pub fn run_untraced<W: Workload>(cfg: &Config, seconds: f64) -> Res<Report> {
    let mut report = Report { completed: true, ..Report::default() };
    let (mut w, _) = W::setup(cfg)?;
    let tally = &mut report.tally;
    let (_, warm_err) = run_loop(
        Duration::ZERO,
        tally,
        |m, t| (0..W::WINDOW).try_for_each(|_| w.round(m, t)),
        no_hook,
    );
    // Peak memory after a fixed amount of work: the timed loop's length
    // depends on speed, and memory retained per operation is a per-layer
    // figure (`mem.retained_bytes_per_cmd`), not a peak.
    let peak_rss = rss_kib("VmHWM:") / 1024.0;
    // Each slice starts with one more set-up and tear-down of the whole
    // workload, so set-up time, too, is taken over the quiet slices.
    let mut setup = Samples::default();
    let (m, err) = match warm_err {
        Some(e) => (Measure::default(), Some(e)),
        None => run_loop(
            Duration::from_secs_f64(seconds),
            tally,
            |m, t| w.round(m, t),
            |slice| {
                let (extra, secs) = W::setup(cfg)?;
                setup.push(slice, secs);
                extra.close()
            },
        ),
    };
    w.close()?;
    if let Some(e) = err {
        report.completed = false;
        report.notes.push(format!("operation failed: {e}"));
    }
    let all = m;
    let m = all.quiet();
    report.metric("setup_s", setup.quiet().median(), "s");
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report.metric("primary_per_s", rate(&m.primary), "1/s");
    report.metric("secondary_per_s", rate(&m.secondary), "1/s");
    report.metric("probe_ms.p50", m.probe.median() * 1e3, "ms");
    let tail = tail_percentile(m.probe.len());
    report.notes.push(format!(
        "timings over the quietest fifth of {} one-second slices: primary n={} secondary n={} \
         probe n={}; probe p90 = {} ms, p{tail} = {} ms (the highest percentile with 10 samples \
         beyond it); setup n={}",
        all.rounds.slice_count(),
        m.primary.len(),
        m.secondary.len(),
        m.probe.len(),
        m.probe.percentile(90.0) * 1e3,
        m.probe.percentile(tail) * 1e3,
        setup.len(),
    ));
    Ok(report)
}

/// Wire, daemon and application counts over a fixed window of rounds.
#[derive(Debug)]
pub struct Counts {
    pub traffic: TrafficStats,
    pub daemon: DaemonStats,
    pub window: Measure,
}

/// The session's wire and daemon counters once they have stopped moving:
/// the client propagates event completions to the other servers of a
/// context asynchronously, so a blocking call can return while that last
/// `SetUserEventComplete` is still in flight.
fn settled_counters(session: &Session) -> (TrafficStats, DaemonStats) {
    let mut last = (session.traffic(), session.daemon_stats());
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(10));
        let now = (session.traffic(), session.daemon_stats());
        if now == last {
            break;
        }
        last = now;
    }
    last
}

/// Warm up for one window of rounds, then count the work of the next one.
/// For a given seed the counts repeat exactly.
pub fn count_window<W: Workload>(w: &mut W, tally: &mut Tally) -> Res<Counts> {
    for _ in 0..W::WINDOW {
        w.round(&mut Measure::default(), tally)?;
    }
    let (traffic, daemon) = settled_counters(w.session());
    let mut window = Measure::default();
    for _ in 0..W::WINDOW {
        w.round(&mut window, tally)?;
    }
    let (traffic_after, daemon_after) = settled_counters(w.session());
    Ok(Counts {
        traffic: traffic_after.delta(&traffic),
        daemon: daemon_delta(daemon_after, daemon),
        window,
    })
}

/// The per-layer metrics: a traced run.
pub fn run_traced<W: Workload>(cfg: &Config, seconds: f64) -> Res<Report> {
    let mut report = Report { completed: true, ..Report::default() };
    let (mut w, _) = W::setup(cfg)?;
    let tally = &mut report.tally;
    let mut failure = None;

    let Counts { traffic, daemon, window } =
        count_window(&mut w, tally).map_err(|e| format!("count window failed: {e}"))?;

    let phase = Duration::from_secs_f64(seconds * 0.35);
    let rss_before = rss_kib("VmRSS:");
    let (plain, err) = run_loop(phase, tally, |m, t| w.round(m, t), no_hook);
    let retained = (rss_kib("VmRSS:") - rss_before) * 1024.0 / plain.commands.max(1) as f64;
    failure = failure.or(err);
    trace::start();
    let (traced, err) = run_loop(phase, tally, |m, t| w.round(m, t), no_hook);
    let spans = trace::stop();
    failure = failure.or(err);
    w.close()?;

    let mut r = W::reference(cfg)?;
    let (_, err) = run_loop(
        Duration::ZERO,
        tally,
        |m, t| (0..W::WINDOW).try_for_each(|_| W::reference_round(&mut r, m, t)),
        no_hook,
    );
    failure = failure.or(err);
    let (reference, err) = run_loop(
        Duration::from_secs_f64(seconds * 0.3),
        tally,
        |m, t| W::reference_round(&mut r, m, t),
        no_hook,
    );
    failure = failure.or(err);
    drop(r);
    let (plain, traced, reference) = (plain.quiet(), traced.quiet(), reference.quiet());

    if let Some(e) = failure {
        report.completed = false;
        report.notes.push(format!("operation failed: {e}"));
    }

    // Client layer, from the spans of the traced loop.
    let ops = trace::operations(&spans).max(1) as f64;
    let by_layer = trace::self_time_by_layer(&spans);
    report.metric(
        "client.submit_us.p50",
        trace::durations(&spans, "client.submit").median() * 1e6,
        "us",
    );
    report.metric(
        "client.finish_ms.p50",
        trace::durations(&spans, "client.finish").median() * 1e3,
        "ms",
    );
    report.metric(
        "self_us_per_round.bench",
        by_layer.get("bench").copied().unwrap_or(0.0) / ops * 1e6,
        "us",
    );
    report.metric(
        "self_us_per_round.client",
        by_layer.get("client").copied().unwrap_or(0.0) / ops * 1e6,
        "us",
    );
    report.metric(
        "trace.overhead_pct",
        (traced.rounds.median() / plain.rounds.median() - 1.0) * 100.0,
        "%",
    );
    report.notes.push(format!("trace: {} spans over {} rounds", spans.len(), ops));
    report.metric("mem.retained_bytes_per_cmd", retained, "B/cmd");

    // Wire and daemon counts over the window (exact for a given seed).
    let commands = window.commands.max(1) as f64;
    let stream = (traffic.stream_bytes_sent + traffic.stream_bytes_received) as f64;
    report.metric("wire.requests_per_cmd", traffic.requests_sent as f64 / commands, "count/cmd");
    report.metric(
        "wire.notifications_per_cmd",
        traffic.notifications_received as f64 / commands,
        "count/cmd",
    );
    report.metric(
        "wire.stream_bytes_per_payload_byte",
        stream / window.payload_bytes.max(1) as f64,
        "B/B",
    );
    report.metric("daemon.requests", daemon.requests as f64, "count");
    report.metric("daemon.kernel_launches", daemon.kernel_launches as f64, "count");
    report.metric("daemon.bytes_uploaded", daemon.bytes_uploaded as f64, "B");
    report.metric("daemon.bytes_downloaded", daemon.bytes_downloaded as f64, "B");
    let coherence = if window.dirty_bytes == 0 {
        0.0
    } else {
        (stream - window.payload_bytes as f64) / window.dirty_bytes as f64
    };
    report.metric("coherence.bytes_per_dirty_byte", coherence, "B/B");

    // The same rounds directly on vocl.
    report.metric("vocl.primary_per_s", rate(&reference.primary), "1/s");
    report.metric("vocl.secondary_per_s", rate(&reference.secondary), "1/s");
    report.metric("vocl.probe_ms.p50", reference.probe.median() * 1e3, "ms");
    report.metric("overhead.primary", rate(&reference.primary) / rate(&plain.primary), "ratio");
    report.metric(
        "overhead.secondary",
        rate(&reference.secondary) / rate(&plain.secondary),
        "ratio",
    );
    report.metric("overhead.probe", plain.probe.median() / reference.probe.median(), "ratio");

    for (name, value, unit) in probes::run(W::transfer_bytes(cfg), cfg.small)? {
        report.metric(name, value, unit);
    }
    report.notes.push(format!(
        "window: {} rounds, {} commands, {} payload bytes, {} dirty bytes",
        W::WINDOW,
        window.commands,
        window.payload_bytes,
        window.dirty_bytes
    ));
    report.spans = spans;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk_transfer::BulkTransfer;
    use crate::command_stream::CommandStream;
    use crate::mandelbrot_frame::MandelbrotFrame;

    fn cfg(seed: u64, corrupt: bool) -> Config {
        Config { seed, corrupt, small: true }
    }

    /// A run whose outputs are altered before the check reports failed
    /// operations, not timings; the same run unaltered fails nothing.
    fn corruption_is_a_failure<W: Workload>() {
        let clean = run_untraced::<W>(&cfg(3, false), 0.05).expect("clean run");
        assert!(clean.completed);
        assert_eq!(clean.tally.failed, 0, "{:?}", clean.notes);
        let corrupted = run_untraced::<W>(&cfg(3, true), 0.05).expect("corrupted run");
        assert!(corrupted.tally.failed > 0, "a corrupted output passed its check");
    }

    #[test]
    fn corrupted_counter_is_a_failure() {
        corruption_is_a_failure::<CommandStream>();
    }

    #[test]
    fn corrupted_transfer_is_a_failure() {
        corruption_is_a_failure::<BulkTransfer>();
    }

    #[test]
    fn corrupted_frame_is_a_failure() {
        corruption_is_a_failure::<MandelbrotFrame>();
    }

    /// The exact-count guard: two runs of one seed count the same wire,
    /// daemon and coherence work (whatever today's values are).
    fn counts_repeat<W: Workload>() {
        let count = || {
            let (mut w, _) = W::setup(&cfg(5, false)).expect("set-up");
            let mut tally = Tally::default();
            let c = count_window(&mut w, &mut tally).expect("count window");
            w.close().expect("close");
            assert_eq!(tally.failed, 0);
            (
                c.traffic.requests_sent,
                c.traffic.notifications_received,
                c.traffic.stream_bytes_sent,
                c.traffic.stream_bytes_received,
                c.daemon,
                (c.window.commands, c.window.payload_bytes, c.window.dirty_bytes),
            )
        };
        assert_eq!(count(), count());
    }

    #[test]
    fn command_stream_counts_repeat() {
        counts_repeat::<CommandStream>();
    }

    #[test]
    fn bulk_transfer_counts_repeat() {
        counts_repeat::<BulkTransfer>();
    }

    #[test]
    fn mandelbrot_frame_counts_repeat() {
        counts_repeat::<MandelbrotFrame>();
    }
}
