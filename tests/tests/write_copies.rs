//! The bytes a large write allocates.  A blocking write of `N` bytes
//! through a daemon over TCP should allocate next to nothing, client and
//! daemon together, once the buffer exists on both sides: the daemon
//! receives the bytes from the socket straight into the buffer, and the
//! client's copy of the buffer is already allocated.  A staging copy
//! anywhere on the way (a `Vec` per chunk, a reassembly buffer, a copy
//! before the buffer's) allocates at least `N` more.
//!
//! One test per binary: the allocator counts every thread of the process.

use dopencl::{Client, Context, Daemon, LinkModel, OpenAccess, SimClock};
use gcf::transport::tcp::TcpTransport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use vocl::Platform;

/// The system allocator, counting the bytes asked for while `COUNTING` is
/// set; a reallocation counts its new size.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LEN: usize = 8 << 20;

/// The second of two writes is measured: the first allocates the client's
/// copy of the buffer.
#[test]
fn a_large_write_lands_in_the_buffer() {
    let transport: Arc<dyn gcf::Transport> = Arc::new(TcpTransport::new());
    let platform = Platform::test_platform(1);
    let daemon = Daemon::start(
        "node0",
        &platform,
        Arc::clone(&transport),
        "127.0.0.1:0",
        Arc::new(OpenAccess),
    )
    .unwrap();
    let client = Client::new("write-copies", transport, LinkModel::ideal(), SimClock::new());
    client.connect_server(daemon.address()).unwrap();
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(LEN).unwrap();
    let first = vec![7u8; LEN];
    queue.write_buffer(&buffer, &first).blocking().submit().unwrap();
    let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();

    COUNTING.store(true, Ordering::SeqCst);
    queue.write_buffer(&buffer, &data).blocking().submit().unwrap();
    COUNTING.store(false, Ordering::SeqCst);
    let allocated = ALLOCATED.load(Ordering::SeqCst);

    let (read, _) = queue.read_buffer(&buffer).submit().unwrap();
    assert!(read == data, "the buffer holds other bytes");
    let summary = format!(
        "writing {LEN} bytes allocated {allocated} ({:.2}x)",
        allocated as f64 / LEN as f64
    );
    eprintln!("{summary}");
    assert!(allocated <= LEN / 4, "{summary}");
}
