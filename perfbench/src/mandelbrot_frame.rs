//! `mandelbrot_frame`: the paper's Figure 4 application, where the kernel
//! VM does nearly all the work.  Two managed daemons; the devices are
//! leased from the device manager (Section IV flow), the kernel is built
//! from `workloads::mandelbrot::KERNEL_SOURCE`, and a 256×128 frame
//! (256 iterations, seeded window) is split into 2n row chunks assigned to
//! the n devices as in `fig4.rs` (device i renders chunks i and 2n-1-i),
//! then read back.  The frame must equal, byte for byte, the same frame
//! rendered by one launch directly on `vocl`.
//!
//! primary = frames computed (launch + wait, no read-back);
//! secondary = frame read-backs (every chunk read back; each computed frame
//! is read back `READ_BACKS` times, every copy checked); probe = whole
//! frame (compute + first read-back).

use crate::api::{dcl_kernels, vocl_buffer, vocl_context, vocl_kernels, Api, Dcl, Res, Vocl};
use crate::probes::{frame_args, frame_params, frame_scalars};
use crate::runner::{Config, Measure, Workload};
use crate::session::Session;
use crate::stats::{Rng, Tally};
use dopencl::{Arg, Context};
use std::time::Instant;
use vocl::NdRange;
use workloads::mandelbrot::{MandelbrotParams, KERNEL_SOURCE};

const DEVICES: usize = 2;
const KERNEL: &str = "mandelbrot_rows";
/// Read-backs of each computed frame.  One read-back is a few hundred
/// microseconds against a frame's tens of milliseconds; repeating it gives
/// `secondary` enough samples per time slice to be steady from run to run.
const READ_BACKS: usize = 16;

/// The seeded frame: the default window shifted by up to ±5e-5 — enough
/// to change pixels along the set's boundary, too little to change the
/// frame's cost.
fn params(cfg: &Config) -> MandelbrotParams {
    let mut rng = Rng::new(cfg.seed);
    let mut shift = || (rng.range(0, 1000) as f64 - 500.0) * 1e-7;
    let p = frame_params(cfg.small);
    let (dx, dy) = (shift(), shift());
    MandelbrotParams {
        x_min: p.x_min + dx,
        x_max: p.x_max + dx,
        y_min: p.y_min + dy,
        y_max: p.y_max + dy,
        ..p
    }
}

/// The chunks as (device, first row, rows), in fig4's assignment.
fn chunks(p: &MandelbrotParams) -> Vec<(usize, usize, usize)> {
    let rows = p.height.div_ceil(2 * DEVICES);
    (0..DEVICES)
        .flat_map(|d| [(d, d), (d, 2 * DEVICES - 1 - d)])
        .map(|(d, c)| (d, c * rows, rows.min(p.height.saturating_sub(c * rows))))
        .filter(|(_, _, rows)| *rows > 0)
        .collect()
}

/// The frame rendered by one launch directly on `vocl`.
fn expected_frame(p: &MandelbrotParams) -> Res<Vec<u8>> {
    let (context, queues) = vocl_context(1)?;
    let out = vocl_buffer(&context, p.pixels() * 4)?;
    let kernel = vocl_kernels(
        &context,
        KERNEL_SOURCE,
        KERNEL,
        vec![frame_args(p, out.clone(), 0, p.height)],
    )?
    .remove(0);
    let event = Vocl::launch(&queues[0], &kernel, NdRange::two_d(p.width, p.height), None)?;
    Vocl::wait(&[event])?;
    Vocl::read(&queues[0], &out)
}

/// One row chunk: the queue (device) rendering it, its kernel and buffer.
pub struct Tile<A: Api> {
    queue: usize,
    kernel: A::Kernel,
    buffer: A::Buffer,
    first_row: usize,
    rows: usize,
}

impl<A: Api> Tile<A> {
    fn new(
        (queue, first_row, rows): (usize, usize, usize),
        kernel: A::Kernel,
        buffer: A::Buffer,
    ) -> Self {
        Tile { queue, kernel, buffer, first_row, rows }
    }
}

pub struct State<A: Api> {
    queues: Vec<A::Queue>,
    tiles: Vec<Tile<A>>,
    width: usize,
    expected: Vec<u8>,
    corrupt: bool,
}

/// Every chunk read back into one frame.
fn read_back<A: Api>(s: &State<A>) -> Res<Vec<u8>> {
    let mut frame = vec![0u8; s.expected.len()];
    for tile in &s.tiles {
        let data = A::read(&s.queues[tile.queue], &tile.buffer)?;
        let at = tile.first_row * s.width * 4;
        frame
            .get_mut(at..at + data.len())
            .ok_or("chunk read back larger than its rows")?
            .copy_from_slice(&data);
    }
    Ok(frame)
}

fn round<A: Api>(s: &mut State<A>, m: &mut Measure, tally: &mut Tally) -> Res<()> {
    let t = Instant::now();
    let events = s
        .tiles
        .iter()
        .map(|t| A::launch(&s.queues[t.queue], &t.kernel, NdRange::two_d(s.width, t.rows), None))
        .collect::<Res<Vec<_>>>()?;
    A::wait(&events)?;
    m.primary(t.elapsed().as_secs_f64());

    for i in 0..READ_BACKS {
        let t_read = Instant::now();
        let frame = read_back(s)?;
        m.secondary(t_read.elapsed().as_secs_f64());
        if i == 0 {
            m.probe(t.elapsed().as_secs_f64());
        }
        tally.ok(s.tiles.len() as u64);
        tally.check(&frame, &s.expected, s.corrupt);
        m.commands += s.tiles.len() as u64;
        m.payload_bytes += frame.len() as u64;
    }
    tally.ok(s.tiles.len() as u64);
    m.commands += s.tiles.len() as u64;
    Ok(())
}

pub struct MandelbrotFrame {
    session: Session,
    state: State<Dcl>,
}

impl Workload for MandelbrotFrame {
    const WINDOW: usize = 2;
    type Reference = State<Vocl>;

    fn setup(cfg: &Config) -> Res<(Self, f64)> {
        let p = params(cfg);
        let expected = expected_frame(&p)?;
        let t = Instant::now();
        let session = Session::open_managed(DEVICES)?;
        let devices = session.client.devices();
        if devices.len() != DEVICES {
            return Err(format!("leased {} devices, wanted {DEVICES}", devices.len()));
        }
        let context = Context::new(&session.client, &devices).map_err(|e| e.to_string())?;
        let queues = devices
            .iter()
            .map(|d| context.create_command_queue(d).map_err(|e| e.to_string()))
            .collect::<Res<Vec<_>>>()?;
        let chunks = chunks(&p);
        let buffers = chunks
            .iter()
            .map(|(_, _, rows)| {
                context.create_buffer(p.width * rows * 4).map_err(|e| e.to_string())
            })
            .collect::<Res<Vec<_>>>()?;
        let args = chunks
            .iter()
            .zip(&buffers)
            .map(|((_, first, rows), b)| {
                let mut args: Vec<Arg> = vec![b.into()];
                args.extend(frame_scalars(&p, *first, *rows).into_iter().map(Arg::from));
                args
            })
            .collect();
        let kernels = dcl_kernels(&context, KERNEL_SOURCE, KERNEL, args)?;
        let secs = t.elapsed().as_secs_f64();
        let tiles = chunks
            .into_iter()
            .zip(kernels.into_iter().zip(buffers))
            .map(|(chunk, (kernel, buffer))| Tile::new(chunk, kernel, buffer))
            .collect();
        let state = State { queues, tiles, width: p.width, expected, corrupt: cfg.corrupt };
        Ok((MandelbrotFrame { session, state }, secs))
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
        let p = params(cfg);
        let expected = expected_frame(&p)?;
        let (context, queues) = vocl_context(DEVICES)?;
        let chunks = chunks(&p);
        let buffers = chunks
            .iter()
            .map(|(_, _, rows)| vocl_buffer(&context, p.width * rows * 4))
            .collect::<Res<Vec<_>>>()?;
        let args = chunks
            .iter()
            .zip(&buffers)
            .map(|((_, first, rows), b)| frame_args(&p, b.clone(), *first, *rows))
            .collect();
        let kernels = vocl_kernels(&context, KERNEL_SOURCE, KERNEL, args)?;
        let tiles = chunks
            .into_iter()
            .zip(kernels.into_iter().zip(buffers))
            .map(|(chunk, (kernel, buffer))| Tile::new(chunk, kernel, buffer))
            .collect();
        Ok(State { queues, tiles, width: p.width, expected, corrupt: cfg.corrupt })
    }

    fn reference_round(r: &mut State<Vocl>, m: &mut Measure, tally: &mut Tally) -> Res<()> {
        round(r, m, tally)
    }

    fn transfer_bytes(cfg: &Config) -> usize {
        let p = frame_params(cfg.small);
        p.width * p.height.div_ceil(2 * DEVICES) * 4
    }
}
