//! The bytes a large read allocates.  A blocking read of `N` bytes through
//! a daemon over TCP should allocate about `N` bytes, client and daemon
//! together: the `Vec` the read returns, into which the daemon's bytes land
//! straight from the socket.  A staging copy anywhere on the way (a copy of
//! the buffer on the daemon, a `Vec` per chunk, a reassembly buffer, a copy
//! into the client's cache) allocates at least `N` more.
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

/// The read follows the client's own write, as `bulk_transfer`'s does, so
/// the client's cached copy is already current and nothing is copied into
/// it.
#[test]
fn a_large_read_allocates_its_bytes_once() {
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
    let client = Client::new("read-copies", transport, LinkModel::ideal(), SimClock::new());
    client.connect_server(daemon.address()).unwrap();
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(LEN).unwrap();
    let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    queue.write_buffer(&buffer, &data).blocking().submit().unwrap();

    COUNTING.store(true, Ordering::SeqCst);
    let (read, event) = queue.read_buffer(&buffer).submit().unwrap();
    COUNTING.store(false, Ordering::SeqCst);
    let allocated = ALLOCATED.load(Ordering::SeqCst);

    event.wait().unwrap();
    assert!(read == data, "the read returned other bytes");
    let summary = format!(
        "reading {LEN} bytes allocated {allocated} ({:.2}x)",
        allocated as f64 / LEN as f64
    );
    eprintln!("{summary}");
    assert!(allocated <= LEN + LEN / 4, "{summary}");
}
