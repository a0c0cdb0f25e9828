//! Differential tests for the kernel compile-and-execute pipeline: every
//! kernel runs through the bytecode VM (serial and work-group-parallel) and
//! the legacy tree-walking interpreter, and the resulting buffers must be
//! bit-identical.  The tree walker is the oracle; the VM is the product.
//!
//! Kernels that combine `barrier()` with `__local` writes cannot run on the
//! oracle (it rejects them) — those are checked against host-computed
//! expectations instead, which is exactly the bit-correctness guarantee the
//! phase-based barrier scheduler has to provide.

use oclc::{BufferBinding, KernelArgValue, NdRange, Program, Value, WorkItemCounters};

fn run_buffers(
    program: &Program,
    kernel: &str,
    range: &NdRange,
    args: &[KernelArgValue],
    mut buffers: Vec<Vec<u8>>,
    mode: &str,
) -> (Vec<Vec<u8>>, WorkItemCounters) {
    let k = program.kernel(kernel).expect("kernel");
    let counters = {
        let mut bindings: Vec<BufferBinding<'_>> =
            buffers.iter_mut().map(|b| BufferBinding::new(b)).collect();
        match mode {
            "tree" => k.execute_tree(range, args, &mut bindings),
            "vm1" => k.execute_vm_with_threads(range, args, &mut bindings, 1),
            "vm4" => k.execute_vm_with_threads(range, args, &mut bindings, 4),
            _ => unreachable!(),
        }
        .unwrap_or_else(|e| panic!("{mode} execution failed: {e:?}"))
    };
    (buffers, counters)
}

/// Run `kernel` through the tree walker, the serial VM and the 4-thread VM,
/// asserting all three produce bit-identical buffers and that the VM agrees
/// with the oracle on the launch-shaped counters (`work_items`, `loads`,
/// `stores` — `ops`/`steps` legitimately differ between executors).
fn differential(
    src: &str,
    kernel: &str,
    range: NdRange,
    args: Vec<KernelArgValue>,
    buffers: Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let program = Program::build(src).expect("build");
    let (tree, tc) = run_buffers(&program, kernel, &range, &args, buffers.clone(), "tree");
    let (vm1, vc) = run_buffers(&program, kernel, &range, &args, buffers.clone(), "vm1");
    let (vm4, pc) = run_buffers(&program, kernel, &range, &args, buffers, "vm4");
    assert_eq!(tree, vm1, "serial VM diverged from the tree-walker oracle");
    assert_eq!(vm1, vm4, "parallel VM diverged from the serial VM");
    assert_eq!(tc.work_items, vc.work_items, "work_items disagree (tree vs vm)");
    assert_eq!(tc.loads, vc.loads, "loads disagree (tree vs vm)");
    assert_eq!(tc.stores, vc.stores, "stores disagree (tree vs vm)");
    assert_eq!(vc.work_items, pc.work_items, "work_items disagree (serial vs parallel vm)");
    vm1
}

fn u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect()
}

fn i32s(bytes: &[u8]) -> Vec<i32> {
    bytes.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect()
}

fn f32s(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect()
}

#[test]
fn scale_kernel_matches_oracle() {
    let src = r#"
        __kernel void scale(__global float* data, float factor, uint n) {
            size_t i = get_global_id(0);
            if (i >= n) return;
            data[i] = data[i] * factor;
        }
    "#;
    let n = 16usize;
    let data: Vec<u8> = (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect();
    let out = differential(
        src,
        "scale",
        NdRange::linear(n),
        vec![
            KernelArgValue::Buffer(0),
            KernelArgValue::Scalar(Value::float(2.0)),
            KernelArgValue::Scalar(Value::uint(n as u64)),
        ],
        vec![data],
    );
    for (i, v) in f32s(&out[0]).iter().enumerate() {
        assert_eq!(*v, (i as f32) * 2.0);
    }
}

#[test]
fn two_dimensional_ids_match_oracle() {
    let src = r#"
        __kernel void index2d(__global uint* out, uint width) {
            size_t x = get_global_id(0);
            size_t y = get_global_id(1);
            out[y * width + x] = (uint)(y * 100 + x);
        }
    "#;
    let (w, h) = (8usize, 4usize);
    let out = differential(
        src,
        "index2d",
        NdRange::two_d(w, h),
        vec![KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::uint(w as u64))],
        vec![vec![0u8; w * h * 4]],
    );
    let out = u32s(&out[0]);
    assert_eq!(out[3 * w + 7], 307);
}

#[test]
fn helper_functions_and_loops_match_oracle() {
    let src = r#"
        float accumulate(float base, uint count) {
            float total = base;
            for (uint i = 0; i < count; i++) {
                total += 1.0f;
            }
            return total;
        }
        __kernel void k(__global float* out, uint count) {
            size_t gid = get_global_id(0);
            out[gid] = accumulate((float)gid, count);
        }
    "#;
    let out = differential(
        src,
        "k",
        NdRange::linear(4),
        vec![KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::uint(10))],
        vec![vec![0u8; 16]],
    );
    assert_eq!(f32s(&out[0]), vec![10.0, 11.0, 12.0, 13.0]);
}

#[test]
fn while_loops_and_float_math_match_oracle() {
    let src = r#"
        __kernel void iterate(__global uint* out, float cr, float ci, uint max_iter) {
            size_t gid = get_global_id(0);
            float zr = 0.0f;
            float zi = 0.0f;
            uint iter = 0;
            while (zr * zr + zi * zi <= 4.0f && iter < max_iter) {
                float t = zr * zr - zi * zi + cr;
                zi = 2.0f * zr * zi + ci;
                zr = t;
                iter++;
            }
            out[gid] = iter;
        }
    "#;
    differential(
        src,
        "iterate",
        NdRange::linear(8),
        vec![
            KernelArgValue::Buffer(0),
            KernelArgValue::Scalar(Value::float(-0.75)),
            KernelArgValue::Scalar(Value::float(0.1)),
            KernelArgValue::Scalar(Value::uint(200)),
        ],
        vec![vec![0u8; 32]],
    );
}

#[test]
fn vectors_and_swizzles_match_oracle() {
    let src = r#"
        __kernel void v(__global float* out) {
            float4 a = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
            float4 b = a * 2.0f;
            float2 hi = b.zw;
            out[0] = dot(a, b);
            out[1] = hi.x + hi.y;
            out[2] = length((float2)(3.0f, 4.0f));
            b.x = 10.0f;
            out[3] = b.x;
        }
    "#;
    let out = differential(
        src,
        "v",
        NdRange::linear(1),
        vec![KernelArgValue::Buffer(0)],
        vec![vec![0u8; 16]],
    );
    assert_eq!(f32s(&out[0]), vec![60.0, 14.0, 5.0, 10.0]);
}

#[test]
fn control_flow_and_ternaries_match_oracle() {
    let src = r#"
        __kernel void f(__global int* out, int n) {
            int total = 0;
            for (int i = 0; i < 1000; i++) {
                if (i >= n) break;
                if (i % 2 == 1) continue;
                total += i;
            }
            out[0] = total > 10 ? total : -total;
            int j = 0;
            do { j++; } while (j < n);
            out[1] = j;
        }
    "#;
    let out = differential(
        src,
        "f",
        NdRange::linear(1),
        vec![KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::int(10))],
        vec![vec![0u8; 8]],
    );
    assert_eq!(i32s(&out[0]), vec![20, 10]);
}

#[test]
fn mixed_signedness_comparisons_match_oracle() {
    let src = r#"
        __kernel void f(__global int* out, uint n) {
            int i = -1;
            out[0] = i < n ? 1 : 0;
            out[1] = (int)(i++);
            out[2] = ++i;
        }
    "#;
    let out = differential(
        src,
        "f",
        NdRange::linear(1),
        vec![KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::uint(4))],
        vec![vec![0u8; 12]],
    );
    assert_eq!(i32s(&out[0]), vec![1, -1, 1]);
}

/// OpenCL C's `abs` of an integer returns the unsigned type, so comparing
/// it with a negative `int` converts that to `uint`: `5u > (uint)-1` is 0.
#[test]
fn integer_abs_is_unsigned_on_both_executors() {
    let src = r#"
        __kernel void f(__global int* out) {
            int x = -5;
            out[0] = abs(x) > -1;
            out[1] = abs(x);
            out[2] = abs(x) - 6 > 0;
            long y = -7;
            out[3] = abs(y) > -1;
        }
    "#;
    let out = differential(
        src,
        "f",
        NdRange::linear(1),
        vec![KernelArgValue::Buffer(0)],
        vec![vec![0u8; 16]],
    );
    assert_eq!(i32s(&out[0]), vec![0, 5, 1, 0]);
}

#[test]
fn global_atomics_match_oracle() {
    let src = r#"
        __kernel void count(__global int* counters) {
            atomic_add(counters, 1);
            atomic_max(counters + 1, (int)get_global_id(0));
            atomic_inc(counters + 2);
        }
    "#;
    let out = differential(
        src,
        "count",
        NdRange::linear(100),
        vec![KernelArgValue::Buffer(0)],
        vec![vec![0u8; 12]],
    );
    assert_eq!(i32s(&out[0]), vec![100, 99, 100]);
}

#[test]
fn barrier_free_local_scratch_matches_oracle() {
    let src = r#"
        __kernel void scratchpad(__global int* out, __local int* scratch) {
            size_t gid = get_global_id(0);
            scratch[gid] = (int)(gid * 2);
            out[gid] = scratch[gid] + 1;
        }
    "#;
    let out = differential(
        src,
        "scratchpad",
        NdRange::linear(4),
        vec![KernelArgValue::Buffer(0), KernelArgValue::Local(64)],
        vec![vec![0u8; 16]],
    );
    assert_eq!(i32s(&out[0]), vec![1, 3, 5, 7]);
}

#[test]
fn mandelbrot_workload_kernel_matches_oracle() {
    let params = workloads::mandelbrot::MandelbrotParams {
        width: 32,
        height: 24,
        max_iter: 64,
        ..workloads::mandelbrot::MandelbrotParams::small()
    };
    let args = vec![
        KernelArgValue::Buffer(0),
        KernelArgValue::Scalar(Value::uint(params.width as u64)),
        KernelArgValue::Scalar(Value::uint(params.height as u64)),
        KernelArgValue::Scalar(Value::float(params.x_min as f32)),
        KernelArgValue::Scalar(Value::float(params.y_min as f32)),
        KernelArgValue::Scalar(Value::float(params.dx() as f32)),
        KernelArgValue::Scalar(Value::float(params.dy() as f32)),
        KernelArgValue::Scalar(Value::uint(0)),
        KernelArgValue::Scalar(Value::uint(params.max_iter as u64)),
    ];
    let out = differential(
        workloads::mandelbrot::KERNEL_SOURCE,
        "mandelbrot_rows",
        NdRange::two_d(params.width, params.height),
        args,
        vec![vec![0u8; params.pixels() * 4]],
    );
    // Sanity: the interior of the set must hit max_iter somewhere.
    assert!(u32s(&out[0]).contains(&params.max_iter));
}

#[test]
fn osem_workload_kernel_matches_oracle() {
    let params =
        workloads::osem::OsemParams { ray_steps: 8, ..workloads::osem::OsemParams::small() };
    let events = workloads::osem::generate_events(&params, 7);
    let subset = params.events_per_subset().min(64);
    let image = vec![1.0f32; params.num_voxels];
    let event_bytes: Vec<u8> = events[..subset * workloads::osem::FLOATS_PER_EVENT]
        .iter()
        .flat_map(|f| f.to_le_bytes())
        .collect();
    let image_bytes: Vec<u8> = image.iter().flat_map(|f| f.to_le_bytes()).collect();
    let args = vec![
        KernelArgValue::Buffer(0),
        KernelArgValue::Buffer(1),
        KernelArgValue::Buffer(2),
        KernelArgValue::Scalar(Value::uint(subset as u64)),
        KernelArgValue::Scalar(Value::uint(params.ray_steps as u64)),
        KernelArgValue::Scalar(Value::uint(params.num_voxels as u64)),
    ];
    // The OSEM kernel scatters unsynchronised adds into `correction`, so the
    // parallel comparison only holds at one thread; the oracle comparison is
    // the point here.
    let program = Program::build(workloads::osem::KERNEL_SOURCE).expect("build");
    let range = NdRange::linear(subset);
    let buffers = vec![event_bytes, image_bytes, vec![0u8; params.num_voxels * 4]];
    let (tree, _) = run_buffers(&program, "osem_subset", &range, &args, buffers.clone(), "tree");
    let (vm, _) = run_buffers(&program, "osem_subset", &range, &args, buffers, "vm1");
    assert_eq!(tree, vm, "OSEM correction image diverged between VM and oracle");
    assert!(f32s(&vm[2]).iter().any(|&v| v > 0.0));
}

/// The acceptance test for the barrier scheduler: a classic two-stage
/// `__local` tree reduction over many work-groups, executed by the parallel
/// VM, must reproduce the host-computed partial sums bit-for-bit (integer
/// arithmetic, so there is no tolerance to hide behind).
#[test]
fn multi_group_local_reduction_is_bit_correct_under_parallel_vm() {
    let src = r#"
        __kernel void reduce(__global const int* in,
                             __global int* partial,
                             __local int* scratch) {
            size_t lid = get_local_id(0);
            size_t n = get_local_size(0);
            scratch[lid] = in[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            for (size_t stride = n / 2; stride > 0; stride /= 2) {
                if (lid < stride) {
                    scratch[lid] += scratch[lid + stride];
                }
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            if (lid == 0) {
                partial[get_group_id(0)] = scratch[0];
            }
        }
    "#;
    let groups = 16usize;
    let group_size = 64usize;
    let n = groups * group_size;
    let input: Vec<i32> = (0..n as i32).map(|i| i * 3 - 1000).collect();
    let input_bytes: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
    let expected: Vec<i32> = input.chunks_exact(group_size).map(|c| c.iter().sum()).collect();

    let program = Program::build(src).expect("build");
    let k = program.kernel("reduce").expect("kernel");
    let range = NdRange::linear(n).with_local([group_size, 1, 1]);
    let args = [
        KernelArgValue::Buffer(0),
        KernelArgValue::Buffer(1),
        KernelArgValue::Local(group_size * 4),
    ];

    for threads in [1usize, 4] {
        let mut bufs = [input_bytes.clone(), vec![0u8; groups * 4]];
        let counters = {
            let mut bindings: Vec<BufferBinding<'_>> =
                bufs.iter_mut().map(|b| BufferBinding::new(b)).collect();
            k.execute_vm_with_threads(&range, &args, &mut bindings, threads).expect("reduce")
        };
        assert_eq!(counters.work_items, n as u64);
        assert_eq!(i32s(&bufs[1]), expected, "wrong partial sums at {threads} thread(s)");
    }

    // The oracle refuses this kernel rather than miscomputing it.
    let mut bufs = [input_bytes, vec![0u8; groups * 4]];
    let mut bindings: Vec<BufferBinding<'_>> =
        bufs.iter_mut().map(|b| BufferBinding::new(b)).collect();
    let err = k.execute_tree(&range, &args, &mut bindings).unwrap_err();
    assert!(err.message.contains("barrier"));
}

#[test]
fn divergent_barriers_are_reported_not_deadlocked() {
    let src = r#"
        __kernel void diverge(__global int* out, __local int* scratch) {
            size_t lid = get_local_id(0);
            scratch[lid] = (int)lid;
            if (lid == 0) {
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            out[lid] = scratch[lid];
        }
    "#;
    let program = Program::build(src).expect("build");
    let k = program.kernel("diverge").expect("kernel");
    let mut buf = vec![0u8; 16];
    let mut bindings = vec![BufferBinding::new(&mut buf)];
    let err = k
        .execute_vm_with_threads(
            &NdRange::linear(4),
            &[KernelArgValue::Buffer(0), KernelArgValue::Local(64)],
            &mut bindings,
            1,
        )
        .unwrap_err();
    assert!(err.message.contains("barrier divergence"), "got: {}", err.message);
}

#[test]
fn runtime_error_messages_agree_between_executors() {
    let src = r#"
        __kernel void oob(__global int* out) {
            out[1000] = 1;
        }
    "#;
    let program = Program::build(src).expect("build");
    let k = program.kernel("oob").expect("kernel");
    let args = [KernelArgValue::Buffer(0)];
    let mut b1 = vec![0u8; 8];
    let mut bind1 = vec![BufferBinding::new(&mut b1)];
    let tree_err = k.execute_tree(&NdRange::linear(1), &args, &mut bind1).unwrap_err();
    let mut b2 = vec![0u8; 8];
    let mut bind2 = vec![BufferBinding::new(&mut b2)];
    let vm_err = k.execute_vm_with_threads(&NdRange::linear(1), &args, &mut bind2, 1).unwrap_err();
    assert_eq!(tree_err.message, vm_err.message);
    assert!(vm_err.message.contains("out-of-bounds"));
}

/// `Program::build` picks the lane executor from the kernel alone: kernels
/// without barriers, helper calls, atomics or vectors whose loaded and
/// stored buffers are distinct run in lanes, every other kernel item by item.
#[test]
fn lane_executor_takes_only_eligible_kernels() {
    let runs_in_lanes = |src: &str, name: &str| {
        Program::build(src).expect("build").kernel(name).expect("kernel").runs_in_lanes()
    };
    // The Fig. 4 kernel, and perfbench's `touch` shape (loads `s`, stores `out`).
    assert!(runs_in_lanes(workloads::mandelbrot::KERNEL_SOURCE, "mandelbrot_rows"));
    assert!(runs_in_lanes(
        "__kernel void touch(__global const uchar* s, __global uint* out, uint at) \
         { out[0] = s[at]; }",
        "touch"
    ));
    // perfbench's `inc` shape and OSEM load and store one buffer, so
    // lockstep would change their racy read-modify-writes.
    assert!(!runs_in_lanes(
        "__kernel void inc(__global uint* c, uint k) { c[0] = c[0] + k; }",
        "inc"
    ));
    assert!(!runs_in_lanes(workloads::osem::KERNEL_SOURCE, "osem_subset"));
    // The barrier reduction, helper-call, vector and atomic kernels above.
    let reduction = r#"
        __kernel void reduce(__global const int* in,
                             __global int* partial,
                             __local int* scratch) {
            size_t lid = get_local_id(0);
            size_t n = get_local_size(0);
            scratch[lid] = in[get_global_id(0)];
            barrier(CLK_LOCAL_MEM_FENCE);
            for (size_t stride = n / 2; stride > 0; stride /= 2) {
                if (lid < stride) {
                    scratch[lid] += scratch[lid + stride];
                }
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            if (lid == 0) {
                partial[get_group_id(0)] = scratch[0];
            }
        }
    "#;
    assert!(!runs_in_lanes(reduction, "reduce"));
    let helper = r#"
        float accumulate(float base, uint count) {
            float total = base;
            for (uint i = 0; i < count; i++) {
                total += 1.0f;
            }
            return total;
        }
        __kernel void k(__global float* out, uint count) {
            size_t gid = get_global_id(0);
            out[gid] = accumulate((float)gid, count);
        }
    "#;
    assert!(!runs_in_lanes(helper, "k"));
    let vector = r#"
        __kernel void v(__global float* out) {
            float4 a = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
            float4 b = a * 2.0f;
            float2 hi = b.zw;
            out[0] = dot(a, b);
            out[1] = hi.x + hi.y;
            out[2] = length((float2)(3.0f, 4.0f));
            b.x = 10.0f;
            out[3] = b.x;
        }
    "#;
    assert!(!runs_in_lanes(vector, "v"));
    let atomic = r#"
        __kernel void count(__global int* counters) {
            atomic_add(counters, 1);
            atomic_max(counters + 1, (int)get_global_id(0));
            atomic_inc(counters + 2);
        }
    "#;
    assert!(!runs_in_lanes(atomic, "count"));
}
