//! `bulk_transfer`: the bulk path and range coherence.  Two daemons.  Each
//! round writes a 128 MiB buffer through daemon A (blocking), runs sparse
//! rounds on a 32 MiB buffer shared by both daemons — 16 seeded patches
//! written through A, then a one-work-item launch on B that only reads the
//! shared buffer, so range coherence ships just the dirty ranges to B — and
//! reads the 128 MiB buffer back.  Both buffers are checked byte for byte
//! against host-side shadows (the shared one as B sees it).
//!
//! The full transfers and the sparse rounds use separate buffers so a full
//! write never leaves B wholly stale: the sparse rounds measure delta
//! coherence, the full ones the bulk path alone.
//!
//! primary = full-buffer writes; secondary = full-buffer reads;
//! probe = sparse round.

use crate::api::{dcl_kernels, vocl_buffer, vocl_context, vocl_kernels, Api, Dcl, Res, Vocl};
use crate::runner::{Config, Measure, Workload};
use crate::session::Session;
use crate::stats::{Rng, Tally};
use dopencl::{Context, Value};
use std::time::Instant;
use vocl::{KernelArg, NdRange};

const TOUCH_SOURCE: &str =
    "__kernel void touch(__global const uchar* s, __global uint* out, uint at) { out[0] = s[at]; }";
const SPARSE_ROUNDS: usize = 8;

/// Patches written per sparse round.
const PATCHES: usize = 16;

/// Regions of the shared buffer the patches go to, each with a seeded
/// offset and size (64 B–4 KiB) fixed for the run.  The sparse rounds
/// cycle through them in a seeded order, writing fresh bytes each time.
/// Daemon A's copy is valid exactly where it was written, so every slot
/// is a pair of segment boundaries in the shared buffer's range directory;
/// after the first round has written each slot once, the directory keeps
/// that fragmentation for the rest of the run, and every timed sparse
/// round meets the same directory size.
const SLOTS: usize = 2048;

/// Bytes of the full buffer and of the shared buffer.  Both stay at or
/// above 32 MiB, glibc's largest dynamic mmap threshold, so the daemons
/// always get fresh zero pages for them: with a 16 MiB shared buffer,
/// set-up time was bimodal (0.6 or 4+ ms) depending on whether the
/// allocator served the buffer from mmap or from the heap plus a memset.
fn sizes(cfg: &Config) -> (usize, usize) {
    if cfg.small {
        (1 << 20, 256 << 10)
    } else {
        (128 << 20, 32 << 20)
    }
}

pub struct State<A: Api> {
    qa: A::Queue,
    qb: A::Queue,
    full: A::Buffer,
    shared: A::Buffer,
    kernel: A::Kernel,
    full_shadow: Vec<u8>,
    shared_shadow: Vec<u8>,
    /// (offset, size) of each slot, in the order the rounds write them.
    slots: Vec<(usize, usize)>,
    /// Slots written so far.
    written: usize,
    rng: Rng,
    corrupt: bool,
}

impl<A: Api> State<A> {
    fn new(
        cfg: &Config,
        qa: A::Queue,
        qb: A::Queue,
        full: A::Buffer,
        shared: A::Buffer,
        kernel: A::Kernel,
    ) -> Self {
        let (full_len, shared_len) = sizes(cfg);
        State {
            qa,
            qb,
            full,
            shared,
            kernel,
            full_shadow: vec![0; full_len],
            shared_shadow: vec![0; shared_len],
            slots: slots(&mut Rng::new(cfg.seed ^ 2), shared_len),
            written: 0,
            rng: Rng::new(cfg.seed),
            corrupt: cfg.corrupt,
        }
    }
}

/// Seeded, position-dependent new contents for the full buffer.
fn scramble(shadow: &mut [u8], key: u64) {
    for (i, chunk) in shadow.chunks_exact_mut(8).enumerate() {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let mixed = word ^ key.wrapping_mul(i as u64 | 1).rotate_left(i as u32 & 63);
        chunk.copy_from_slice(&mixed.to_le_bytes());
    }
}

/// Seeded, non-overlapping slots (offset, size) over `len` bytes, in a
/// seeded order.
fn slots(rng: &mut Rng, len: usize) -> Vec<(usize, usize)> {
    let stride = len / SLOTS;
    let mut slots: Vec<(usize, usize)> = (0..SLOTS)
        .map(|k| {
            let size = (rng.range(64, 4096) as usize).min(stride);
            (k * stride + rng.range(0, (stride - size) as u64) as usize, size)
        })
        .collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.range(0, i as u64) as usize);
    }
    slots
}

/// Fresh seeded contents for the next `n` slots: (offset, bytes).
fn next_patches<A: Api>(s: &mut State<A>, n: usize) -> Vec<(usize, Vec<u8>)> {
    (0..n)
        .map(|_| {
            let (offset, size) = s.slots[s.written % s.slots.len()];
            s.written += 1;
            let mut data = vec![0; size];
            s.rng.fill(&mut data);
            (offset, data)
        })
        .collect()
}

fn write_patches<A: Api>(s: &State<A>, patches: &[(usize, Vec<u8>)]) -> Res<()> {
    patches.iter().try_for_each(|(offset, data)| A::write(&s.qa, &s.shared, *offset, data))
}

fn shadow_patches<A: Api>(s: &mut State<A>, patches: &[(usize, Vec<u8>)]) {
    for (offset, data) in patches {
        s.shared_shadow[*offset..offset + data.len()].copy_from_slice(data);
    }
}

fn round<A: Api>(s: &mut State<A>, m: &mut Measure, tally: &mut Tally) -> Res<()> {
    if s.written == 0 {
        // Before the first round (always a warm-up one): every slot written
        // once, untimed, so no timed sparse round sees a directory still
        // filling up.
        let patches = next_patches(s, SLOTS);
        write_patches(s, &patches)?;
        shadow_patches(s, &patches);
        tally.ok(patches.len() as u64);
    }
    scramble(&mut s.full_shadow, s.rng.next_u64());
    let t = Instant::now();
    A::write(&s.qa, &s.full, 0, &s.full_shadow)?;
    m.primary(t.elapsed().as_secs_f64());
    tally.ok(1);
    m.commands += 1;
    m.payload_bytes += s.full_shadow.len() as u64;

    for _ in 0..SPARSE_ROUNDS {
        let patches = next_patches(s, PATCHES);
        let t = Instant::now();
        write_patches(s, &patches)?;
        let event = A::launch(&s.qb, &s.kernel, NdRange::linear(1), Some(&s.shared))?;
        A::wait(&[event])?;
        m.probe(t.elapsed().as_secs_f64());
        let dirty: usize = patches.iter().map(|(_, d)| d.len()).sum();
        shadow_patches(s, &patches);
        tally.ok(patches.len() as u64 + 1);
        m.commands += patches.len() as u64 + 1;
        m.payload_bytes += dirty as u64;
        m.dirty_bytes += dirty as u64;
    }

    let t = Instant::now();
    let data = A::read(&s.qa, &s.full)?;
    m.secondary(t.elapsed().as_secs_f64());
    tally.ok(1);
    tally.check(&data, &s.full_shadow, s.corrupt);
    drop(data);

    // The shared buffer as daemon B holds it after the deltas.
    let data = A::read(&s.qb, &s.shared)?;
    tally.ok(1);
    tally.check(&data, &s.shared_shadow, s.corrupt);
    m.commands += 2;
    m.payload_bytes += (s.full_shadow.len() + data.len()) as u64;
    Ok(())
}

pub struct BulkTransfer {
    session: Session,
    state: State<Dcl>,
}

impl Workload for BulkTransfer {
    const WINDOW: usize = 1;
    type Reference = State<Vocl>;

    fn setup(cfg: &Config) -> Res<(Self, f64)> {
        let (full_len, shared_len) = sizes(cfg);
        let t = Instant::now();
        let session = Session::open(2)?;
        let devices = session.client.devices();
        let context = Context::new(&session.client, &devices).map_err(|e| e.to_string())?;
        let qa = context.create_command_queue(&devices[0]).map_err(|e| e.to_string())?;
        let qb = context.create_command_queue(&devices[1]).map_err(|e| e.to_string())?;
        let full = context.create_buffer(full_len).map_err(|e| e.to_string())?;
        let shared = context.create_buffer(shared_len).map_err(|e| e.to_string())?;
        let out = context.create_buffer(4).map_err(|e| e.to_string())?;
        let at = Rng::new(cfg.seed ^ 1).range(0, shared_len as u64 - 1);
        let kernel = dcl_kernels(
            &context,
            TOUCH_SOURCE,
            "touch",
            vec![vec![(&shared).into(), (&out).into(), Value::uint(at).into()]],
        )?
        .remove(0);
        let secs = t.elapsed().as_secs_f64();
        let state = State::new(cfg, qa, qb, full, shared, kernel);
        Ok((BulkTransfer { session, state }, secs))
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
        let (full_len, shared_len) = sizes(cfg);
        let (context, mut queues) = vocl_context(2)?;
        let full = vocl_buffer(&context, full_len)?;
        let shared = vocl_buffer(&context, shared_len)?;
        let out = vocl_buffer(&context, 4)?;
        let at = Rng::new(cfg.seed ^ 1).range(0, shared_len as u64 - 1);
        let kernel = vocl_kernels(
            &context,
            TOUCH_SOURCE,
            "touch",
            vec![vec![
                KernelArg::Buffer(shared.clone()),
                KernelArg::Buffer(out),
                KernelArg::Scalar(Value::uint(at)),
            ]],
        )?
        .remove(0);
        let qb = queues.remove(1);
        let qa = queues.remove(0);
        Ok(State::new(cfg, qa, qb, full, shared, kernel))
    }

    fn reference_round(r: &mut State<Vocl>, m: &mut Measure, tally: &mut Tally) -> Res<()> {
        round(r, m, tally)
    }

    fn transfer_bytes(cfg: &Config) -> usize {
        sizes(cfg).0
    }
}
