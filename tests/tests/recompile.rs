//! Regression tests for per-launch recompilation: the daemon must compile a
//! program exactly once per `clBuildProgram` and execute cached bytecode on
//! every launch.  Each test reads the build count of the device its own
//! cluster serves, so the tests are independent of each other.

use dopencl::{Context, NdRange, Value};
use integration_tests::{as_i32s, test_cluster};

const INC_KERNEL: &str =
    "__kernel void inc(__global int* a) { size_t i = get_global_id(0); a[i] = a[i] + 1; }";

#[test]
fn launches_execute_cached_bytecode_without_rebuilding() {
    let (cluster, client, _clock) = test_cluster(1, 1);
    let device = &cluster.daemons()[0].devices()[0];
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(64).unwrap();
    let program = context.create_program_with_source(INC_KERNEL).unwrap();

    assert_eq!(device.programs_built(), 0);
    program.build().unwrap();
    assert_eq!(device.programs_built(), 1, "clBuildProgram compiles exactly once");

    let kernel = program.create_kernel("inc").unwrap();
    kernel.set_arg(0, &buffer).unwrap();
    for _ in 0..10 {
        queue.launch(&kernel, NdRange::linear(16)).submit().unwrap();
    }
    queue.finish().unwrap();

    assert_eq!(
        device.programs_built(),
        1,
        "kernel launches must not re-parse/re-sema/re-lower the program"
    );
    let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
    assert!(as_i32s(&data).iter().all(|v| *v == 10));
}

#[test]
fn repeated_build_calls_and_kernels_reuse_the_cached_artifact() {
    let (cluster, client, _clock) = test_cluster(1, 1);
    let device = &cluster.daemons()[0].devices()[0];
    let devices = client.devices();
    let context = Context::new(&client, &devices).unwrap();
    let queue = context.create_command_queue(&devices[0]).unwrap();
    let buffer = context.create_buffer(16).unwrap();
    let source = r#"
        __kernel void set(__global int* a, int v) { a[get_global_id(0)] = v; }
        __kernel void add(__global int* a, int v) { a[get_global_id(0)] += v; }
    "#;
    let program = context.create_program_with_source(source).unwrap();

    program.build().unwrap();
    program.build().unwrap();
    assert_eq!(device.programs_built(), 1, "re-building is a cached no-op");

    // Two kernels from the same program share the one compiled artifact.
    let set = program.create_kernel("set").unwrap();
    let add = program.create_kernel("add").unwrap();
    set.set_arg(0, &buffer).unwrap();
    set.set_arg(1, Value::int(5)).unwrap();
    add.set_arg(0, &buffer).unwrap();
    add.set_arg(1, Value::int(2)).unwrap();
    queue.launch(&set, NdRange::linear(4)).submit().unwrap();
    queue.launch(&add, NdRange::linear(4)).submit().unwrap();
    queue.finish().unwrap();

    assert_eq!(device.programs_built(), 1);
    let (data, _) = queue.read_buffer(&buffer).submit().unwrap();
    assert_eq!(as_i32s(&data), vec![7, 7, 7, 7]);
}
