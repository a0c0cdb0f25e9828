//! `command_stream`: pure middleware cost.  One daemon; rounds of 64
//! asynchronous one-work-item `inc` launches on a 4-byte counter, each
//! round ending in `finish()`, then one blocking launch-then-wait round
//! trip, then reads the counter back, which must equal its seeded start
//! plus the seeded step times the launches so far (each launch executed
//! exactly once).
//!
//! primary = batched launches; secondary = counter read-backs;
//! probe = blocking launch round trip.

use crate::api::{dcl_kernels, vocl_buffer, vocl_context, vocl_kernels, Api, Dcl, Res, Vocl};
use crate::probes::INC_SOURCE;
use crate::runner::{Config, Measure, Workload};
use crate::session::Session;
use crate::stats::{Rng, Tally};
use dopencl::{Context, Value};
use std::time::Instant;
use vocl::{KernelArg, NdRange};

const BATCH: u64 = 64;

pub struct State<A: Api> {
    queue: A::Queue,
    counter: A::Buffer,
    kernel: A::Kernel,
    expected: u32,
    step: u32,
    corrupt: bool,
}

/// Seeded start value and step of the counter.
fn inputs(cfg: &Config) -> (u32, u32) {
    let mut rng = Rng::new(cfg.seed);
    (rng.next_u64() as u32, rng.range(1, 1000) as u32)
}

fn round<A: Api>(s: &mut State<A>, m: &mut Measure, tally: &mut Tally) -> Res<()> {
    let t = Instant::now();
    for _ in 0..BATCH {
        A::launch(&s.queue, &s.kernel, NdRange::linear(1), None)?;
    }
    A::finish(&s.queue)?;
    m.primary(t.elapsed().as_secs_f64() / BATCH as f64);

    let t = Instant::now();
    let event = A::launch(&s.queue, &s.kernel, NdRange::linear(1), None)?;
    A::wait(&[event])?;
    m.probe(t.elapsed().as_secs_f64());

    tally.ok(BATCH + 1);
    m.commands += BATCH + 1;
    s.expected = s.expected.wrapping_add(s.step.wrapping_mul(BATCH as u32 + 1));

    let t = Instant::now();
    let data = A::read(&s.queue, &s.counter)?;
    m.secondary(t.elapsed().as_secs_f64());
    tally.ok(1);
    tally.check(&data, &s.expected.to_le_bytes(), s.corrupt);
    m.commands += 1;
    m.payload_bytes += 4;
    Ok(())
}

pub struct CommandStream {
    session: Session,
    state: State<Dcl>,
}

impl Workload for CommandStream {
    const WINDOW: usize = 8;
    type Reference = State<Vocl>;

    fn setup(cfg: &Config) -> Res<(Self, f64)> {
        let (start, step) = inputs(cfg);
        let t = Instant::now();
        let session = Session::open(1)?;
        let devices = session.client.devices();
        let context = Context::new(&session.client, &devices).map_err(|e| e.to_string())?;
        let queue = context.create_command_queue(&devices[0]).map_err(|e| e.to_string())?;
        let counter = context.create_buffer(4).map_err(|e| e.to_string())?;
        let kernel = dcl_kernels(
            &context,
            INC_SOURCE,
            "inc",
            vec![vec![(&counter).into(), Value::uint(step as u64).into()]],
        )?
        .remove(0);
        Dcl::write(&queue, &counter, 0, &start.to_le_bytes())?;
        let secs = t.elapsed().as_secs_f64();
        let state = State { queue, counter, kernel, expected: start, step, corrupt: cfg.corrupt };
        Ok((CommandStream { session, state }, secs))
    }

    fn session(&self) -> &Session {
        &self.session
    }

    fn round(&mut self, m: &mut Measure, tally: &mut Tally) -> Res<()> {
        round(&mut self.state, m, tally)
    }

    fn close(self) -> Res<()> {
        drop(self.state);
        self.session.close()
    }

    fn reference(cfg: &Config) -> Res<State<Vocl>> {
        let (start, step) = inputs(cfg);
        let (context, mut queues) = vocl_context(1)?;
        let counter = vocl_buffer(&context, 4)?;
        let kernel = vocl_kernels(
            &context,
            INC_SOURCE,
            "inc",
            vec![vec![
                KernelArg::Buffer(counter.clone()),
                KernelArg::Scalar(Value::uint(step as u64)),
            ]],
        )?
        .remove(0);
        let queue = queues.remove(0);
        Vocl::write(&queue, &counter, 0, &start.to_le_bytes())?;
        Ok(State { queue, counter, kernel, expected: start, step, corrupt: cfg.corrupt })
    }

    fn reference_round(r: &mut State<Vocl>, m: &mut Measure, tally: &mut Tally) -> Res<()> {
        round(r, m, tally)
    }

    fn transfer_bytes(_cfg: &Config) -> usize {
        4
    }
}
