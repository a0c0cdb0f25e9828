//! Flush semantics of the batched command pipeline.
//!
//! Commands accumulate client-side per server and ship as one
//! `EnqueueBatch` request.  These tests pin down *when* the batch crosses
//! the wire (blocking ops, event waits, markers, explicit flush, queue
//! drop), that execution within a batch stays in order, and how an error
//! in the middle of a batch fails the remaining entries.

use dopencl::{Context, Event, NdRange};
use integration_tests::{as_i32s, test_cluster};
use std::time::Duration;

const INC_KERNEL: &str =
    "__kernel void inc(__global int* a) { size_t i = get_global_id(0); a[i] = a[i] + 1; }";

/// Poll until `event` reaches a terminal state without calling `wait()`
/// (which would itself flush the pipeline).
fn poll_terminal(event: &Event) -> bool {
    for _ in 0..500 {
        if event.is_terminal() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

#[test]
fn commands_accumulate_until_event_wait() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();

    let before = client.traffic_stats();
    let mut last = None;
    for v in 1u8..=3 {
        last = Some(queue.write_buffer(&buffer, &[v; 16]).submit().unwrap());
    }
    assert_eq!(queue.pending_commands(), 3);
    // Nothing shipped yet: enqueuing is free of round trips.
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 0);

    last.unwrap().wait().unwrap();
    assert_eq!(queue.pending_commands(), 0);
    // The wait flushed all three commands as a single request.
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 1);
}

#[test]
fn blocking_read_flushes_the_batch_in_order() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();

    let before = client.traffic_stats();
    for v in 1u8..=3 {
        queue.write_buffer(&buffer, &[v; 16]).submit().unwrap();
    }
    // The blocking read joins the batch, ships it, and must observe the
    // *last* write: in-order execution within the batch.
    let (data, event) = queue.read_buffer(&buffer).submit().unwrap();
    assert!(event.is_terminal());
    assert_eq!(data, vec![3u8; 16]);
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 1);
}

#[test]
fn explicit_flush_ships_without_waiting() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();

    let before = client.traffic_stats();
    let event = queue.write_buffer(&buffer, &[7u8; 16]).submit().unwrap();
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 0);
    queue.flush().unwrap();
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 1);
    assert_eq!(queue.pending_commands(), 0);
    // Flush does not wait, but the daemon executes and notifies on its own.
    assert!(poll_terminal(&event), "flushed command never completed");
}

#[test]
fn marker_flushes_the_queue() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();

    let before = client.traffic_stats();
    queue.write_buffer(&buffer, &[1u8; 16]).submit().unwrap();
    queue.write_buffer(&buffer, &[2u8; 16]).submit().unwrap();
    let marker = queue.marker().submit().unwrap();
    // Both writes and the marker went out as one request.
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 1);
    marker.wait().unwrap();
    assert_eq!(queue.pending_commands(), 0);
}

#[test]
fn queue_drop_flushes_pending_commands() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();

    let before = client.traffic_stats();
    let event = queue.write_buffer(&buffer, &[9u8; 16]).submit().unwrap();
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 0);
    drop(queue);
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 1);
    assert!(poll_terminal(&event), "command dropped with the queue");
}

#[test]
fn async_read_returns_event_before_data() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();

    queue.write_buffer(&buffer, &[5u8; 16]).submit().unwrap();
    let before = client.traffic_stats();
    let pending = queue.read_buffer(&buffer).submit_async().unwrap();
    // Still batched: submit_async does not flush.
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 0);
    assert!(!pending.event().is_terminal());
    let (data, event) = pending.wait().unwrap();
    assert_eq!(data, vec![5u8; 16]);
    assert!(event.is_terminal());
}

#[test]
fn kernel_batch_executes_in_order() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();

    queue.write_buffer(&buffer, &[0u8; 16]).submit().unwrap();
    for _ in 0..4 {
        queue.launch(&kernel, NdRange::linear(4)).submit().unwrap();
    }
    let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
    assert_eq!(as_i32s(&data), vec![4, 4, 4, 4]);
}

#[test]
fn error_in_batch_entry_fails_the_rest() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();
    program.build().unwrap();
    // A kernel whose buffer argument is never set: enqueuing may succeed but
    // execution must fail.
    let kernel = program.create_kernel("inc").unwrap();

    let ok = queue.write_buffer(&buffer, &[1u8; 16]).submit().unwrap();
    let bad = queue.launch(&kernel, NdRange::linear(4)).submit().unwrap();
    let after = queue.marker().submit().unwrap();

    // Entry 1 (the write) completed; entry 2 failed; entry 3 is chained on
    // entry 2 within the batch, so its failure cascades.
    ok.wait().unwrap();
    assert!(bad.wait().is_err(), "kernel without arguments must fail");
    assert!(after.wait().is_err(), "marker behind the failed entry must fail too");
}

#[test]
fn cross_queue_wait_flushes_the_dependency_first() {
    let (_cluster, client, _clock) = test_cluster(1, 2);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let q0 = context.create_command_queue(&devices[0]).unwrap();
    let q1 = context.create_command_queue(&devices[1]).unwrap();
    let buffer = context.create_buffer(16).unwrap();

    let before = client.traffic_stats();
    let first = queue_write(&q0, &buffer, 1);
    // q1's write waits on q0's still-pending write.  Both queues live on
    // one server, so the dependency waits in the same batch, ahead of its
    // dependant, and the daemon resolves the wait list in batch order.
    let second = q1.write_buffer(&buffer, &[2u8; 16]).after(&[first]).submit().unwrap();
    assert_eq!(q0.pending_commands(), 1);
    assert_eq!(q1.pending_commands(), 1);
    second.wait().unwrap();
    // The dependency and its dependant left in one request.
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 1);
    let (data, _) = q1.read_buffer(&buffer).submit().unwrap();
    assert_eq!(data, vec![2u8; 16]);
}

fn queue_write(queue: &dopencl::CommandQueue, buffer: &dopencl::Buffer, value: u8) -> Event {
    queue.write_buffer(buffer, &[value; 16]).submit().unwrap()
}

#[test]
fn disabling_batching_restores_per_command_round_trips() {
    let (_cluster, client, _clock) = test_cluster(1, 1);
    client.set_batching(false);
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();

    let before = client.traffic_stats();
    for v in 1u8..=3 {
        queue.write_buffer(&buffer, &[v; 16]).submit().unwrap();
    }
    // Every command shipped immediately as a batch of one.
    assert_eq!(client.traffic_stats().delta(&before).requests_sent, 3);
    assert_eq!(queue.pending_commands(), 0);
}
