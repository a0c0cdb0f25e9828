//! Programs: OpenCL C source programs built at runtime, plus *built-in*
//! kernels (native Rust implementations registered by name, mirroring
//! `clCreateProgramWithBuiltInKernels` from OpenCL 1.2).

use crate::context::Context;
use crate::error::{ClError, Result};
use crate::kernel::Kernel;
use oclc::{BufferBinding, KernelArgValue, NdRange, WorkItemCounters};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

static NEXT_PROGRAM_ID: AtomicU64 = AtomicU64::new(1);

/// Signature of a built-in (native) kernel implementation.
///
/// Built-in kernels receive the same argument representation as interpreted
/// kernels; the returned counters drive the device's modelled execution time
/// (`ops` is interpreted as the number of floating-point operations).
pub type BuiltInKernelFn = dyn Fn(
        &NdRange,
        &[KernelArgValue],
        &mut [BufferBinding<'_>],
    ) -> std::result::Result<WorkItemCounters, String>
    + Send
    + Sync;

fn registry() -> &'static Mutex<HashMap<String, Arc<BuiltInKernelFn>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<BuiltInKernelFn>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Register a built-in kernel under `name` (process-wide).
///
/// Re-registering a name replaces the previous implementation; this keeps
/// tests independent.
pub fn register_built_in_kernel(name: &str, f: Arc<BuiltInKernelFn>) {
    registry().lock().insert(name.to_string(), f);
}

/// Look up a registered built-in kernel.
pub fn built_in_kernel(name: &str) -> Option<Arc<BuiltInKernelFn>> {
    registry().lock().get(name).cloned()
}

/// Names of all registered built-in kernels.
pub fn built_in_kernel_names() -> Vec<String> {
    let mut names: Vec<String> = registry().lock().keys().cloned().collect();
    names.sort();
    names
}

enum ProgramKind {
    Source { source: String, built: Mutex<Option<std::result::Result<Arc<oclc::Program>, String>>> },
    BuiltIn { names: Vec<String> },
}

/// A program object (`cl_program`).
pub struct Program {
    id: u64,
    context: Arc<Context>,
    kind: ProgramKind,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program").field("id", &self.id).field("built", &self.is_built()).finish()
    }
}

impl Program {
    /// `clCreateProgramWithSource`.
    pub fn with_source(context: Arc<Context>, source: impl Into<String>) -> Arc<Program> {
        Arc::new(Program {
            id: NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed),
            context,
            kind: ProgramKind::Source { source: source.into(), built: Mutex::new(None) },
        })
    }

    /// `clCreateProgramWithBuiltInKernels`: `names` is a semicolon-separated
    /// list of registered built-in kernel names.
    pub fn with_built_in_kernels(context: Arc<Context>, names: &str) -> Result<Arc<Program>> {
        let names: Vec<String> =
            names.split(';').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
        if names.is_empty() {
            return Err(ClError::InvalidValue("no built-in kernel names given".into()));
        }
        for n in &names {
            if built_in_kernel(n).is_none() {
                return Err(ClError::InvalidKernelName(format!(
                    "built-in kernel '{n}' is not registered"
                )));
            }
        }
        Ok(Arc::new(Program {
            id: NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed),
            context,
            kind: ProgramKind::BuiltIn { names },
        }))
    }

    /// Unique program id within the process.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The owning context.
    pub fn context(&self) -> &Arc<Context> {
        &self.context
    }

    /// The program source, if this is a source program.
    pub fn source(&self) -> Option<&str> {
        match &self.kind {
            ProgramKind::Source { source, .. } => Some(source),
            ProgramKind::BuiltIn { .. } => None,
        }
    }

    /// `clBuildProgram`: compile the source.  Built-in programs build
    /// trivially.
    pub fn build(&self) -> Result<()> {
        match &self.kind {
            ProgramKind::BuiltIn { .. } => Ok(()),
            ProgramKind::Source { source, built } => {
                let mut slot = built.lock();
                if let Some(result) = slot.as_ref() {
                    return match result {
                        Ok(_) => Ok(()),
                        Err(log) => Err(ClError::BuildProgramFailure(log.clone())),
                    };
                }
                match oclc::Program::build(source) {
                    Ok(p) => {
                        *slot = Some(Ok(Arc::new(p)));
                        for device in self.context.devices() {
                            device.record_program_built();
                        }
                        Ok(())
                    }
                    Err(log) => {
                        let text = log.to_string();
                        *slot = Some(Err(text.clone()));
                        Err(ClError::BuildProgramFailure(text))
                    }
                }
            }
        }
    }

    /// `CL_PROGRAM_BUILD_LOG`.
    pub fn build_log(&self) -> String {
        match &self.kind {
            ProgramKind::BuiltIn { .. } => String::new(),
            ProgramKind::Source { built, .. } => match built.lock().as_ref() {
                Some(Ok(_)) | None => String::new(),
                Some(Err(log)) => log.clone(),
            },
        }
    }

    /// True after a successful [`Program::build`].
    pub fn is_built(&self) -> bool {
        match &self.kind {
            ProgramKind::BuiltIn { .. } => true,
            ProgramKind::Source { built, .. } => matches!(built.lock().as_ref(), Some(Ok(_))),
        }
    }

    /// Kernel names available in the (built) program.
    pub fn kernel_names(&self) -> Vec<String> {
        match &self.kind {
            ProgramKind::BuiltIn { names } => names.clone(),
            ProgramKind::Source { built, .. } => match built.lock().as_ref() {
                Some(Ok(p)) => p.kernel_names(),
                _ => Vec::new(),
            },
        }
    }

    /// True if this program exposes built-in (native) kernels.
    pub fn is_built_in(&self) -> bool {
        matches!(self.kind, ProgramKind::BuiltIn { .. })
    }

    /// `clCreateKernel`.
    pub fn create_kernel(self: &Arc<Self>, name: &str) -> Result<Arc<Kernel>> {
        match &self.kind {
            ProgramKind::BuiltIn { names } => {
                if !names.iter().any(|n| n == name) {
                    return Err(ClError::InvalidKernelName(format!(
                        "'{name}' is not part of this built-in program"
                    )));
                }
                Ok(Kernel::new(Arc::clone(self), name, None))
            }
            ProgramKind::Source { built, .. } => {
                let guard = built.lock();
                let Some(Ok(program)) = guard.as_ref() else {
                    return Err(ClError::InvalidOperation(
                        "program must be built before creating kernels".into(),
                    ));
                };
                let Some(handle) = program.kernel(name) else {
                    return Err(ClError::InvalidKernelName(format!(
                        "no kernel named '{name}' in program"
                    )));
                };
                drop(guard);
                // Cache the compiled handle on the kernel object so that
                // every enqueue executes the already-lowered bytecode instead
                // of re-resolving (or worse, re-building) the program.
                Ok(Kernel::new(Arc::clone(self), name, Some(handle)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceType};
    use crate::profile::DeviceProfile;

    fn ctx() -> Arc<Context> {
        Context::new(vec![Device::new(DeviceType::Cpu, DeviceProfile::test_device("d"))]).unwrap()
    }

    const SRC: &str = r#"
        __kernel void fill(__global int* out, int v) {
            out[get_global_id(0)] = v;
        }
    "#;

    #[test]
    fn source_program_builds_and_creates_kernels() {
        let p = Program::with_source(ctx(), SRC);
        assert!(!p.is_built());
        assert!(p.create_kernel("fill").is_err(), "must build first");
        p.build().unwrap();
        assert!(p.is_built());
        assert_eq!(p.kernel_names(), vec!["fill".to_string()]);
        let k = p.create_kernel("fill").unwrap();
        assert_eq!(k.name(), "fill");
        assert!(p.create_kernel("missing").is_err());
        assert!(p.build_log().is_empty());
        assert_eq!(p.source(), Some(SRC));
    }

    #[test]
    fn broken_source_reports_build_log() {
        let p = Program::with_source(ctx(), "__kernel void broken( {");
        let err = p.build().unwrap_err();
        assert!(matches!(err, ClError::BuildProgramFailure(_)));
        assert!(!p.build_log().is_empty());
        assert!(!p.is_built());
        // Building again returns the cached failure.
        assert!(p.build().is_err());
    }

    #[test]
    fn built_in_kernels_require_registration() {
        assert!(Program::with_built_in_kernels(ctx(), "definitely_not_registered").is_err());
        register_built_in_kernel(
            "unit_test_noop",
            Arc::new(|range, _args, _bufs| {
                Ok(WorkItemCounters {
                    work_items: range.total_items() as u64,
                    ..Default::default()
                })
            }),
        );
        let p = Program::with_built_in_kernels(ctx(), "unit_test_noop").unwrap();
        assert!(p.is_built());
        assert!(p.is_built_in());
        assert!(p.source().is_none());
        let k = p.create_kernel("unit_test_noop").unwrap();
        assert_eq!(k.name(), "unit_test_noop");
        assert!(p.create_kernel("other").is_err());
        assert!(built_in_kernel_names().contains(&"unit_test_noop".to_string()));
    }

    #[test]
    fn empty_built_in_name_list_rejected() {
        assert!(Program::with_built_in_kernels(ctx(), " ; ;").is_err());
    }
}
