//! Executor selection via environment variables.  These tests mutate
//! process-global state (`DCL_INTERP`, `DCL_VM_THREADS`, `DCL_COHERENCE`),
//! so they live in their own integration-test binary and serialise on a
//! local mutex instead of sharing a process with the differential suite.

use oclc::{BufferBinding, KernelArgValue, NdRange, Program, Value};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

const BARRIER_REDUCE: &str = r#"
    __kernel void reduce(__global const int* in,
                         __global int* out,
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
            out[get_group_id(0)] = scratch[0];
        }
    }
"#;

fn run_reduce() -> Result<Vec<i32>, oclc::CompileError> {
    let program = Program::build(BARRIER_REDUCE).expect("build");
    let k = program.kernel("reduce").expect("kernel");
    let input: Vec<u8> = (1..=8i32).flat_map(|v| v.to_le_bytes()).collect();
    let mut bufs = [input, vec![0u8; 4]];
    {
        let mut bindings: Vec<BufferBinding<'_>> =
            bufs.iter_mut().map(|b| BufferBinding::new(b)).collect();
        k.execute(
            &NdRange::linear(8).with_local([8, 1, 1]),
            &[KernelArgValue::Buffer(0), KernelArgValue::Buffer(1), KernelArgValue::Local(32)],
            &mut bindings,
        )?;
    }
    Ok(bufs[1].chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect())
}

#[test]
fn default_mode_is_the_vm_and_runs_barrier_kernels() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::remove_var("DCL_INTERP");
    assert_eq!(run_reduce().expect("vm executes barrier reduction"), vec![36]);
}

#[test]
fn dcl_interp_tree_selects_the_tree_walker() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("DCL_INTERP", "tree");
    let err = run_reduce().expect_err("tree walker must reject barrier + __local writes");
    std::env::remove_var("DCL_INTERP");
    assert!(err.message.contains("tree-walking"), "got: {}", err.message);
}

#[test]
fn dcl_vm_threads_controls_the_worker_count_without_changing_results() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::remove_var("DCL_INTERP");
    std::env::set_var("DCL_VM_THREADS", "4");
    let result = run_reduce();
    std::env::remove_var("DCL_VM_THREADS");
    assert_eq!(result.expect("vm executes with explicit thread count"), vec![36]);
}

#[test]
fn scalar_kernels_produce_identical_bytes_in_both_modes() {
    let _guard = ENV_LOCK.lock().unwrap();
    let src = r#"
        __kernel void fill(__global int* out, int v) {
            out[get_global_id(0)] = v * (int)get_global_id(0);
        }
    "#;
    let program = Program::build(src).expect("build");
    let run = |mode: Option<&str>| -> Vec<u8> {
        match mode {
            Some(m) => std::env::set_var("DCL_INTERP", m),
            None => std::env::remove_var("DCL_INTERP"),
        }
        // The handle reads DCL_INTERP when it is created.
        let k = program.kernel("fill").expect("kernel");
        let mut buf = vec![0u8; 32];
        {
            let mut bindings = vec![BufferBinding::new(&mut buf)];
            k.execute(
                &NdRange::linear(8),
                &[KernelArgValue::Buffer(0), KernelArgValue::Scalar(Value::int(3))],
                &mut bindings,
            )
            .expect("execute");
        }
        buf
    };
    let vm = run(None);
    let tree = run(Some("tree"));
    std::env::remove_var("DCL_INTERP");
    assert_eq!(vm, tree);
}

#[test]
fn dcl_coherence_env_selects_the_directory_mode() {
    use dopencl::coherence::CoherenceMode;
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::remove_var("DCL_COHERENCE");
    assert_eq!(CoherenceMode::from_env(), CoherenceMode::Range, "range is the default");
    std::env::set_var("DCL_COHERENCE", "whole");
    assert_eq!(CoherenceMode::from_env(), CoherenceMode::Whole);
    std::env::set_var("DCL_COHERENCE", "WHOLE");
    assert_eq!(CoherenceMode::from_env(), CoherenceMode::Whole, "case-insensitive");
    std::env::set_var("DCL_COHERENCE", "range");
    assert_eq!(CoherenceMode::from_env(), CoherenceMode::Range);
    std::env::set_var("DCL_COHERENCE", "gibberish");
    assert_eq!(CoherenceMode::from_env(), CoherenceMode::Range, "unknown values fall back");
    std::env::remove_var("DCL_COHERENCE");
}
