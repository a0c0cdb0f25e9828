//! Tests of the handle-based object API surface itself: stub lifetimes
//! across `Client` drop, enqueue-builder defaults, and wait-list
//! propagation through `after(...)`.

use dopencl::{Arg, Context, DclError, DeviceType, Event, NdRange, Value};
use integration_tests::{as_i32s, test_cluster};

const INC_KERNEL: &str =
    "__kernel void inc(__global int* a) { size_t i = get_global_id(0); a[i] = a[i] + 1; }";

/// Stubs hold a weak reference to the client internals: once the last
/// `Client` clone is gone, every operation fails with `ClientDropped`
/// instead of panicking or hanging.
#[test]
fn stubs_fail_cleanly_after_client_drop() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(64).unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();

    // A clone keeps the internals alive; dropping only the original is fine.
    let clone = client.clone();
    drop(client);
    queue.write_buffer(&buffer, &[0u8; 64]).blocking().submit().unwrap();
    drop(clone);

    // Now every handle operation must fail with ClientDropped.  The
    // completion-notification thread of the write above may still hold a
    // transient strong reference for an instant; give it a moment to drain
    // (once an upgrade fails it can never succeed again).
    let mut first = context.create_buffer(16);
    for _ in 0..200 {
        if first.is_err() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        first = context.create_buffer(16);
    }
    assert_eq!(first.unwrap_err(), DclError::ClientDropped);
    assert_eq!(context.create_command_queue(&devices[0]).unwrap_err(), DclError::ClientDropped);
    assert_eq!(
        context.create_program_with_source(INC_KERNEL).unwrap_err(),
        DclError::ClientDropped
    );
    assert_eq!(program.build().unwrap_err(), DclError::ClientDropped);
    assert_eq!(program.build_log().unwrap_err(), DclError::ClientDropped);
    assert_eq!(program.create_kernel("inc").unwrap_err(), DclError::ClientDropped);
    assert_eq!(kernel.set_arg(1, Value::int(1)).unwrap_err(), DclError::ClientDropped);
    assert_eq!(
        queue.write_buffer(&buffer, &[0u8; 8]).submit().unwrap_err(),
        DclError::ClientDropped
    );
    assert_eq!(queue.read_buffer(&buffer).submit().unwrap_err(), DclError::ClientDropped);
    assert_eq!(
        queue.launch(&kernel, NdRange::linear(4)).submit().unwrap_err(),
        DclError::ClientDropped
    );
    assert_eq!(queue.marker().submit().unwrap_err(), DclError::ClientDropped);
    assert_eq!(queue.finish().unwrap_err(), DclError::ClientDropped);
}

/// Builder defaults: offset 0, whole-buffer reads, empty wait lists,
/// non-blocking writes.
#[test]
fn builder_defaults_cover_the_common_case() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();

    // Default write: offset 0.  Write the full buffer and read it back with
    // the default (whole-buffer) read.
    let payload: Vec<u8> = (0u8..16).collect();
    let event = queue.write_buffer(&buffer, &payload).submit().unwrap();
    event.wait().unwrap();
    let (all, read_event) = queue.read_buffer(&buffer).submit().unwrap();
    assert_eq!(all, payload);
    // The data arrived, so the event resolves without further commands.
    read_event.wait().unwrap();

    // Explicit offset and length window into the same buffer.
    queue.write_buffer(&buffer, &[0xFF; 4]).at_offset(8).blocking().submit().unwrap();
    let (window, _) = queue.read_buffer(&buffer).at_offset(8).len(4).submit().unwrap();
    assert_eq!(window, vec![0xFF; 4]);
    // A default read after an offset write still returns the whole buffer.
    let (all, _) = queue.read_buffer(&buffer).submit().unwrap();
    assert_eq!(all.len(), 16);
    assert_eq!(&all[..8], &payload[..8]);

    // Out-of-bounds accesses are rejected before anything crosses the wire.
    assert!(matches!(
        queue.write_buffer(&buffer, &payload).at_offset(8).submit().unwrap_err(),
        DclError::InvalidArgument(_)
    ));
    assert!(matches!(
        queue.read_buffer(&buffer).at_offset(12).len(8).submit().unwrap_err(),
        DclError::InvalidArgument(_)
    ));
}

/// `after(...)` must thread the wait list through to the daemons, including
/// across servers (user-event protocol), and accumulate across calls.
#[test]
fn after_propagates_wait_lists_across_servers() {
    let (_cluster, client, _clock) = test_cluster(2, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();

    let first = q0.launch(&kernel, NdRange::linear(4)).submit().unwrap();
    // The second launch waits on the first across servers; chaining two
    // after() calls must accumulate, not replace.
    let marker = q0.marker().submit().unwrap();
    let second = q1
        .launch(&kernel, NdRange::linear(4))
        .after(std::slice::from_ref(&first))
        .after(std::slice::from_ref(&marker))
        .submit()
        .unwrap();
    second.wait().unwrap();
    assert!(first.is_terminal(), "wait-list dependency must have completed");
    assert!(marker.is_terminal(), "second after() call must also be honoured");

    let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(as_i32s(&data), vec![2, 2, 2, 2]);

    // `clWaitForEvents` over events of different queues.
    Event::wait_all(&[first, second, marker]).unwrap();
}

/// The `Arg` conversions accepted by `Kernel::set_arg`.
#[test]
fn kernel_set_arg_accepts_scalars_buffers_and_local() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(64).unwrap();
    let program = context
        .create_program_with_source(
            "__kernel void fill(__global int* out, int v) { out[get_global_id(0)] = v; }",
        )
        .unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("fill").unwrap();

    kernel.set_arg(0, &buffer).unwrap();
    kernel.set_arg(1, Value::int(7)).unwrap();
    // Arg::local round-trips through the protocol even if this kernel never
    // reads it; ignore a daemon-side arity rejection.
    let _ = kernel.set_arg(2, Arg::local(256));

    queue.launch(&kernel, NdRange::linear(16)).submit().unwrap().wait().unwrap();
    let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
    assert!(as_i32s(&data).iter().all(|v| *v == 7));
}

/// `DeviceType` replaces the stringly-typed device filter.
#[test]
fn device_type_enum_filters_and_parses() {
    let (_cluster, client, _clock) = test_cluster(1, 2);
    assert_eq!(client.devices_of(DeviceType::Cpu).len(), 2);
    assert!(client.devices_of(DeviceType::Gpu).is_empty());
    assert_eq!(client.devices()[0].kind(), DeviceType::Cpu);

    assert_eq!(DeviceType::parse("gpu"), DeviceType::Gpu);
    assert_eq!(DeviceType::parse("CPU"), DeviceType::Cpu);
    assert_eq!(DeviceType::parse("fpga-thing"), DeviceType::Custom);
    assert_eq!(DeviceType::Gpu.to_string(), "GPU");
}
