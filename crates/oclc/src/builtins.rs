//! Built-in functions of the OpenCL C subset.
//!
//! Three families are distinguished:
//!
//! * **work-item functions** (`get_global_id`, ...) — evaluated by the
//!   executors against the current work-item context,
//! * **atomic functions** (`atomic_add`, ...) — evaluated by the executors
//!   because they need access to buffer memory,
//! * **math / common functions** (`sqrt`, `clamp`, `dot`, ...) — pure, and
//!   evaluated here.
//!
//! Synchronisation built-ins split by executor: the bytecode VM
//! (`crate::vm`) lowers `barrier()` to a real suspension point and resumes
//! the work-group in phases, so barrier-separated `__local` traffic is
//! coherent; `mem_fence()` and friends are no-ops there (each phase runs to
//! completion, so ordering is already program order).  The legacy
//! tree-walking interpreter runs work-items sequentially and treats
//! `barrier()` as a no-op, which is why it rejects kernels combining
//! barriers with `__local`-memory writes.

use crate::error::CompileError;
use crate::types::ScalarType;
use crate::value::{Scalar, Value};

/// Classification of a built-in function name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinKind {
    /// Needs the work-item context (ids and sizes).
    WorkItem,
    /// Needs buffer memory access (atomics).
    Atomic,
    /// Pure math / common function.
    Math,
    /// Synchronisation no-op (`barrier`, `mem_fence`, ...).
    Sync,
    /// Vector constructor lowered by the parser (`__vec_float4`, ...).
    VectorCtor,
}

/// Classify `name`; returns `None` for names that are not built-ins.
pub fn classify(name: &str) -> Option<BuiltinKind> {
    if name.starts_with("__vec_") {
        return Some(BuiltinKind::VectorCtor);
    }
    let kind = match name {
        "get_global_id" | "get_local_id" | "get_group_id" | "get_global_size"
        | "get_local_size" | "get_num_groups" | "get_work_dim" | "get_global_offset" => {
            BuiltinKind::WorkItem
        }
        "atomic_add" | "atomic_sub" | "atomic_inc" | "atomic_dec" | "atomic_xchg"
        | "atomic_min" | "atomic_max" | "atom_add" | "atom_inc" => BuiltinKind::Atomic,
        "barrier" | "mem_fence" | "read_mem_fence" | "write_mem_fence" => BuiltinKind::Sync,
        _ if MATH_BUILTINS.contains(&name) => BuiltinKind::Math,
        _ => return None,
    };
    Some(kind)
}

/// Names of the pure math / common built-ins supported by [`eval_math`].
pub const MATH_BUILTINS: &[&str] = &[
    "sqrt",
    "rsqrt",
    "native_sqrt",
    "native_rsqrt",
    "fabs",
    "abs",
    "exp",
    "native_exp",
    "exp2",
    "log",
    "native_log",
    "log2",
    "log10",
    "pow",
    "powr",
    "native_powr",
    "sin",
    "native_sin",
    "cos",
    "native_cos",
    "tan",
    "native_tan",
    "asin",
    "acos",
    "atan",
    "atan2",
    "hypot",
    "floor",
    "ceil",
    "round",
    "trunc",
    "fmin",
    "fmax",
    "min",
    "max",
    "clamp",
    "mix",
    "fma",
    "mad",
    "fmod",
    "dot",
    "length",
    "distance",
    "normalize",
    "isnan",
    "isinf",
    "sign",
    "convert_int",
    "convert_uint",
    "convert_float",
    "convert_double",
    "convert_long",
    "convert_ulong",
];

/// Identifier-level built-in constants (flag arguments to `barrier`).
pub fn builtin_constant(name: &str) -> Option<Value> {
    match name {
        "CLK_LOCAL_MEM_FENCE" => Some(Value::uint(1)),
        "CLK_GLOBAL_MEM_FENCE" => Some(Value::uint(2)),
        "M_PI" | "M_PI_F" => Some(Value::double(std::f64::consts::PI)),
        "M_E" | "M_E_F" => Some(Value::double(std::f64::consts::E)),
        "FLT_MAX" => Some(Value::float(f32::MAX)),
        "FLT_MIN" => Some(Value::float(f32::MIN_POSITIVE)),
        "FLT_EPSILON" => Some(Value::float(f32::EPSILON)),
        "INT_MAX" => Some(Value::int(i32::MAX as i64)),
        "UINT_MAX" => Some(Value::uint(u32::MAX as u64)),
        _ => None,
    }
}

fn f_arg(args: &[Value], i: usize, name: &str) -> Result<f64, CompileError> {
    args.get(i).ok_or_else(|| CompileError::new(format!("{name}: missing argument {i}")))?.as_f64()
}

fn float_result(args: &[Value], v: f64) -> Value {
    // Follow the widest floating type among the arguments; default float.
    let is_double = args.iter().any(|a| matches!(a, Value::Scalar(ScalarType::Double, _)));
    if is_double {
        Value::double(v)
    } else {
        Value::float(v as f32)
    }
}

fn lanes_of(v: &Value) -> Option<(&ScalarType, &Vec<Scalar>)> {
    match v {
        Value::Vector(t, lanes) => Some((t, lanes)),
        _ => None,
    }
}

fn expect_args(name: &str, args: &[Value], n: usize) -> Result<(), CompileError> {
    if args.len() != n {
        return Err(CompileError::new(format!(
            "{name}: expected {n} argument(s), got {}",
            args.len()
        )));
    }
    Ok(())
}

/// Evaluate a pure math built-in.
pub fn eval_math(name: &str, args: &[Value]) -> Result<Value, CompileError> {
    // Component-wise application over vectors for single-argument functions.
    if args.len() == 1 {
        if let Some((t, lanes)) = lanes_of(&args[0]) {
            // The lanes' result type: the argument's, but `abs` of an
            // integer is unsigned.
            let mut result_type = *t;
            let mapped: Result<Vec<Scalar>, CompileError> = lanes
                .iter()
                .map(|l| match eval_math(name, &[Value::Scalar(*t, *l)])? {
                    Value::Scalar(rt, s) => {
                        result_type = rt;
                        Ok(s)
                    }
                    v => v.scalar(),
                })
                .collect();
            // dot/length/normalize handled separately below, so reaching here
            // is fine for elementwise ops.
            if !matches!(name, "length" | "normalize" | "dot" | "distance") {
                return Ok(Value::Vector(result_type, mapped?));
            }
        }
    }
    match name {
        "sqrt" | "native_sqrt" => Ok(float_result(args, f_arg(args, 0, name)?.sqrt())),
        "rsqrt" | "native_rsqrt" => Ok(float_result(args, 1.0 / f_arg(args, 0, name)?.sqrt())),
        "fabs" => Ok(float_result(args, f_arg(args, 0, name)?.abs())),
        "abs" => {
            expect_args(name, args, 1)?;
            match &args[0] {
                // OpenCL C: `abs` of an integer type is its unsigned type.
                Value::Scalar(t, s) if t.is_integer() => {
                    Ok(Value::Scalar(t.unsigned(), Scalar::U(s.as_i64().unsigned_abs())))
                }
                other => Ok(float_result(args, other.as_f64()?.abs())),
            }
        }
        "exp" | "native_exp" => Ok(float_result(args, f_arg(args, 0, name)?.exp())),
        "exp2" => Ok(float_result(args, f_arg(args, 0, name)?.exp2())),
        "log" | "native_log" => Ok(float_result(args, f_arg(args, 0, name)?.ln())),
        "log2" => Ok(float_result(args, f_arg(args, 0, name)?.log2())),
        "log10" => Ok(float_result(args, f_arg(args, 0, name)?.log10())),
        "pow" | "powr" | "native_powr" => {
            expect_args(name, args, 2)?;
            Ok(float_result(args, f_arg(args, 0, name)?.powf(f_arg(args, 1, name)?)))
        }
        "sin" | "native_sin" => Ok(float_result(args, f_arg(args, 0, name)?.sin())),
        "cos" | "native_cos" => Ok(float_result(args, f_arg(args, 0, name)?.cos())),
        "tan" | "native_tan" => Ok(float_result(args, f_arg(args, 0, name)?.tan())),
        "asin" => Ok(float_result(args, f_arg(args, 0, name)?.asin())),
        "acos" => Ok(float_result(args, f_arg(args, 0, name)?.acos())),
        "atan" => Ok(float_result(args, f_arg(args, 0, name)?.atan())),
        "atan2" => {
            expect_args(name, args, 2)?;
            Ok(float_result(args, f_arg(args, 0, name)?.atan2(f_arg(args, 1, name)?)))
        }
        "hypot" => {
            expect_args(name, args, 2)?;
            Ok(float_result(args, f_arg(args, 0, name)?.hypot(f_arg(args, 1, name)?)))
        }
        "floor" => Ok(float_result(args, f_arg(args, 0, name)?.floor())),
        "ceil" => Ok(float_result(args, f_arg(args, 0, name)?.ceil())),
        "round" => Ok(float_result(args, f_arg(args, 0, name)?.round())),
        "trunc" => Ok(float_result(args, f_arg(args, 0, name)?.trunc())),
        "fmod" => {
            expect_args(name, args, 2)?;
            Ok(float_result(args, f_arg(args, 0, name)? % f_arg(args, 1, name)?))
        }
        "fmin" | "min" => {
            expect_args(name, args, 2)?;
            binary_min_max(args, true)
        }
        "fmax" | "max" => {
            expect_args(name, args, 2)?;
            binary_min_max(args, false)
        }
        "clamp" => {
            expect_args(name, args, 3)?;
            let lo = binary_min_max(&[args[0].clone(), args[2].clone()], true)?;
            binary_min_max(&[lo, args[1].clone()], false)
        }
        "mix" => {
            expect_args(name, args, 3)?;
            let a = f_arg(args, 0, name)?;
            let b = f_arg(args, 1, name)?;
            let t = f_arg(args, 2, name)?;
            Ok(float_result(args, a + (b - a) * t))
        }
        "fma" | "mad" => {
            expect_args(name, args, 3)?;
            Ok(float_result(
                args,
                f_arg(args, 0, name)? * f_arg(args, 1, name)? + f_arg(args, 2, name)?,
            ))
        }
        "dot" => {
            expect_args(name, args, 2)?;
            let (_, a) = lanes_of(&args[0])
                .ok_or_else(|| CompileError::new("dot: expected vector arguments"))?;
            let (_, b) = lanes_of(&args[1])
                .ok_or_else(|| CompileError::new("dot: expected vector arguments"))?;
            if a.len() != b.len() {
                return Err(CompileError::new("dot: vector length mismatch"));
            }
            let v: f64 = a.iter().zip(b).map(|(x, y)| x.as_f64() * y.as_f64()).sum();
            Ok(Value::float(v as f32))
        }
        "length" => {
            expect_args(name, args, 1)?;
            let (_, a) = lanes_of(&args[0])
                .ok_or_else(|| CompileError::new("length: expected a vector argument"))?;
            let v: f64 = a.iter().map(|x| x.as_f64() * x.as_f64()).sum();
            Ok(Value::float(v.sqrt() as f32))
        }
        "distance" => {
            expect_args(name, args, 2)?;
            let (_, a) = lanes_of(&args[0])
                .ok_or_else(|| CompileError::new("distance: expected vector arguments"))?;
            let (_, b) = lanes_of(&args[1])
                .ok_or_else(|| CompileError::new("distance: expected vector arguments"))?;
            let v: f64 = a.iter().zip(b).map(|(x, y)| (x.as_f64() - y.as_f64()).powi(2)).sum();
            Ok(Value::float(v.sqrt() as f32))
        }
        "normalize" => {
            expect_args(name, args, 1)?;
            let (t, a) = lanes_of(&args[0])
                .ok_or_else(|| CompileError::new("normalize: expected a vector argument"))?;
            let len: f64 = a.iter().map(|x| x.as_f64() * x.as_f64()).sum::<f64>().sqrt();
            let lanes = a.iter().map(|x| Scalar::F(x.as_f64() / len)).collect();
            Ok(Value::Vector(*t, lanes))
        }
        "isnan" => Ok(Value::int(i64::from(f_arg(args, 0, name)?.is_nan()))),
        "isinf" => Ok(Value::int(i64::from(f_arg(args, 0, name)?.is_infinite()))),
        "sign" => {
            let v = f_arg(args, 0, name)?;
            Ok(float_result(
                args,
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                },
            ))
        }
        "convert_int" => Ok(Value::int(args[0].as_i64()? as i32 as i64)),
        "convert_uint" => Ok(Value::uint(args[0].as_u64()? as u32 as u64)),
        "convert_long" => Ok(Value::long(args[0].as_i64()?)),
        "convert_ulong" => Ok(Value::Scalar(ScalarType::ULong, Scalar::U(args[0].as_u64()?))),
        "convert_float" => Ok(Value::float(args[0].as_f64()? as f32)),
        "convert_double" => Ok(Value::double(args[0].as_f64()?)),
        other => Err(CompileError::new(format!("unknown math builtin '{other}'"))),
    }
}

fn binary_min_max(args: &[Value], is_min: bool) -> Result<Value, CompileError> {
    // Integer-preserving when both operands are integer scalars.
    match (&args[0], &args[1]) {
        (Value::Scalar(ta, a), Value::Scalar(tb, b)) if ta.is_integer() && tb.is_integer() => {
            if ta.is_signed() || tb.is_signed() {
                let (x, y) = (a.as_i64(), b.as_i64());
                let v = if is_min { x.min(y) } else { x.max(y) };
                Ok(Value::Scalar(*ta, Scalar::I(v)))
            } else {
                let (x, y) = (a.as_u64(), b.as_u64());
                let v = if is_min { x.min(y) } else { x.max(y) };
                Ok(Value::Scalar(*ta, Scalar::U(v)))
            }
        }
        _ => {
            let x = args[0].as_f64()?;
            let y = args[1].as_f64()?;
            let v = if is_min { x.min(y) } else { x.max(y) };
            Ok(float_result(args, v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_known_builtins() {
        assert_eq!(classify("get_global_id"), Some(BuiltinKind::WorkItem));
        assert_eq!(classify("atomic_add"), Some(BuiltinKind::Atomic));
        assert_eq!(classify("sqrt"), Some(BuiltinKind::Math));
        assert_eq!(classify("barrier"), Some(BuiltinKind::Sync));
        assert_eq!(classify("__vec_float4"), Some(BuiltinKind::VectorCtor));
        assert_eq!(classify("not_a_builtin"), None);
    }

    #[test]
    fn math_scalar_functions() {
        assert_eq!(eval_math("sqrt", &[Value::float(9.0)]).unwrap().as_f64().unwrap(), 3.0);
        assert_eq!(eval_math("max", &[Value::int(3), Value::int(7)]).unwrap().as_i64().unwrap(), 7);
        assert_eq!(
            eval_math("min", &[Value::uint(3), Value::uint(7)]).unwrap().as_u64().unwrap(),
            3
        );
        let clamped =
            eval_math("clamp", &[Value::float(5.0), Value::float(0.0), Value::float(1.0)]).unwrap();
        assert_eq!(clamped.as_f64().unwrap(), 1.0);
        assert_eq!(
            eval_math("fma", &[Value::float(2.0), Value::float(3.0), Value::float(4.0)])
                .unwrap()
                .as_f64()
                .unwrap(),
            10.0
        );
    }

    #[test]
    fn double_arguments_produce_double_results() {
        let v = eval_math("sqrt", &[Value::double(2.0)]).unwrap();
        assert!(matches!(v, Value::Scalar(ScalarType::Double, _)));
    }

    #[test]
    fn vector_functions() {
        let a = Value::Vector(ScalarType::Float, vec![Scalar::F(1.0), Scalar::F(2.0)]);
        let b = Value::Vector(ScalarType::Float, vec![Scalar::F(3.0), Scalar::F(4.0)]);
        assert_eq!(eval_math("dot", &[a.clone(), b]).unwrap().as_f64().unwrap(), 11.0);
        let len = eval_math("length", std::slice::from_ref(&a)).unwrap().as_f64().unwrap();
        assert!((len - 5f64.sqrt()).abs() < 1e-6);
        // Elementwise application over vectors.
        let sq = eval_math(
            "sqrt",
            &[Value::Vector(ScalarType::Float, vec![Scalar::F(4.0), Scalar::F(9.0)])],
        )
        .unwrap();
        match sq {
            Value::Vector(_, lanes) => {
                assert_eq!(lanes[0].as_f64(), 2.0);
                assert_eq!(lanes[1].as_f64(), 3.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn integer_abs() {
        let abs = eval_math("abs", &[Value::int(-5)]).unwrap();
        assert_eq!(abs.as_u64().unwrap(), 5);
        assert!(matches!(abs, Value::Scalar(ScalarType::UInt, _)), "{abs:?}");
    }

    #[test]
    fn errors_on_wrong_arity() {
        assert!(eval_math("pow", &[Value::float(2.0)]).is_err());
        assert!(eval_math("dot", &[Value::float(2.0), Value::float(1.0)]).is_err());
    }

    #[test]
    fn constants_resolve() {
        assert!(builtin_constant("CLK_LOCAL_MEM_FENCE").is_some());
        assert!(builtin_constant("M_PI").is_some());
        assert!(builtin_constant("NOT_A_CONSTANT").is_none());
    }
}
