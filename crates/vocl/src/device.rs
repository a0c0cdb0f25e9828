//! OpenCL devices.

use crate::profile::DeviceProfile;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(1);

/// `CL_DEVICE_TYPE_*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// `CL_DEVICE_TYPE_CPU`
    Cpu,
    /// `CL_DEVICE_TYPE_GPU`
    Gpu,
    /// `CL_DEVICE_TYPE_ACCELERATOR`
    Accelerator,
}

impl DeviceType {
    /// Parse the attribute spelling used in device-manager configuration
    /// files (`CPU`, `GPU`, `ACCELERATOR`).
    pub fn from_attribute(s: &str) -> Option<DeviceType> {
        match s.to_ascii_uppercase().as_str() {
            "CPU" => Some(DeviceType::Cpu),
            "GPU" => Some(DeviceType::Gpu),
            "ACCELERATOR" => Some(DeviceType::Accelerator),
            _ => None,
        }
    }
}

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceType::Cpu => f.write_str("CPU"),
            DeviceType::Gpu => f.write_str("GPU"),
            DeviceType::Accelerator => f.write_str("ACCELERATOR"),
        }
    }
}

/// Device information parameters (`clGetDeviceInfo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceInfoParam {
    /// `CL_DEVICE_NAME`
    Name,
    /// `CL_DEVICE_VENDOR`
    Vendor,
    /// `CL_DEVICE_TYPE`
    Type,
    /// `CL_DEVICE_MAX_COMPUTE_UNITS`
    MaxComputeUnits,
    /// `CL_DEVICE_MAX_CLOCK_FREQUENCY`
    MaxClockFrequency,
    /// `CL_DEVICE_GLOBAL_MEM_SIZE`
    GlobalMemSize,
    /// `CL_DEVICE_MAX_MEM_ALLOC_SIZE`
    MaxMemAllocSize,
}

impl DeviceInfoParam {
    /// Parse the attribute spelling used in device-manager configuration
    /// files (e.g. `MAX_COMPUTE_UNITS`).
    pub fn from_attribute(s: &str) -> Option<DeviceInfoParam> {
        match s.to_ascii_uppercase().as_str() {
            "NAME" => Some(DeviceInfoParam::Name),
            "VENDOR" => Some(DeviceInfoParam::Vendor),
            "TYPE" => Some(DeviceInfoParam::Type),
            "MAX_COMPUTE_UNITS" => Some(DeviceInfoParam::MaxComputeUnits),
            "MAX_CLOCK_FREQUENCY" => Some(DeviceInfoParam::MaxClockFrequency),
            "GLOBAL_MEM_SIZE" => Some(DeviceInfoParam::GlobalMemSize),
            "MAX_MEM_ALLOC_SIZE" => Some(DeviceInfoParam::MaxMemAllocSize),
            _ => None,
        }
    }
}

/// A device information value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceInfoValue {
    /// A string value.
    Str(String),
    /// An unsigned integer value.
    UInt(u64),
    /// A device type value.
    Type(DeviceType),
}

/// An OpenCL device of the virtual runtime.
#[derive(Debug)]
pub struct Device {
    id: u64,
    device_type: DeviceType,
    profile: DeviceProfile,
    /// Source programs compiled for this device (see [`Device::programs_built`]).
    programs_built: AtomicU64,
}

impl Device {
    /// Create a device of `device_type` with the given performance profile.
    pub fn new(device_type: DeviceType, profile: DeviceProfile) -> Arc<Device> {
        Arc::new(Device {
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
            device_type,
            profile,
            programs_built: AtomicU64::new(0),
        })
    }

    /// Unique device id within the process.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// `CL_DEVICE_TYPE`.
    pub fn device_type(&self) -> DeviceType {
        self.device_type
    }

    /// `CL_DEVICE_NAME`.
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// `CL_DEVICE_VENDOR`.
    pub fn vendor(&self) -> &str {
        &self.profile.vendor
    }

    /// The full performance profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Number of source programs compiled for this device so far.  A
    /// program compiles once, at its first successful `clBuildProgram`;
    /// rebuilds and kernel launches reuse the cached bytecode.
    pub fn programs_built(&self) -> u64 {
        self.programs_built.load(Ordering::Relaxed)
    }

    pub(crate) fn record_program_built(&self) {
        self.programs_built.fetch_add(1, Ordering::Relaxed);
    }

    /// `clGetDeviceInfo`.
    pub fn info(&self, param: DeviceInfoParam) -> DeviceInfoValue {
        match param {
            DeviceInfoParam::Name => DeviceInfoValue::Str(self.profile.name.clone()),
            DeviceInfoParam::Vendor => DeviceInfoValue::Str(self.profile.vendor.clone()),
            DeviceInfoParam::Type => DeviceInfoValue::Type(self.device_type),
            DeviceInfoParam::MaxComputeUnits => {
                DeviceInfoValue::UInt(self.profile.compute_units as u64)
            }
            DeviceInfoParam::MaxClockFrequency => {
                DeviceInfoValue::UInt(self.profile.clock_mhz as u64)
            }
            DeviceInfoParam::GlobalMemSize => DeviceInfoValue::UInt(self.profile.global_mem_bytes),
            DeviceInfoParam::MaxMemAllocSize => DeviceInfoValue::UInt(self.profile.max_alloc_bytes),
        }
    }

    /// Check whether the device satisfies a device-manager attribute
    /// constraint, e.g. `("TYPE", "GPU")` or `("MAX_COMPUTE_UNITS", "2")`.
    ///
    /// Numeric attributes are treated as *minimum* requirements, mirroring
    /// the paper's example of requesting "Intel dual-core CPUs" by
    /// `MAX_COMPUTE_UNITS >= 2`.
    pub fn satisfies_attribute(&self, name: &str, value: &str) -> bool {
        let Some(param) = DeviceInfoParam::from_attribute(name) else {
            return false;
        };
        match self.info(param) {
            DeviceInfoValue::Str(s) => s.to_ascii_lowercase().contains(&value.to_ascii_lowercase()),
            DeviceInfoValue::Type(t) => {
                DeviceType::from_attribute(value).map(|want| want == t).unwrap_or(false)
            }
            DeviceInfoValue::UInt(v) => {
                value.trim().parse::<u64>().map(|want| v >= want).unwrap_or(false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_ids_are_unique() {
        let a = Device::new(DeviceType::Cpu, DeviceProfile::test_device("a"));
        let b = Device::new(DeviceType::Gpu, DeviceProfile::test_device("b"));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn info_queries() {
        let d = Device::new(DeviceType::Gpu, DeviceProfile::gpu_tesla_s1070_unit());
        assert_eq!(d.info(DeviceInfoParam::Type), DeviceInfoValue::Type(DeviceType::Gpu));
        assert_eq!(d.info(DeviceInfoParam::MaxComputeUnits), DeviceInfoValue::UInt(30));
        match d.info(DeviceInfoParam::Name) {
            DeviceInfoValue::Str(s) => assert!(s.contains("Tesla")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attribute_matching() {
        let d = Device::new(DeviceType::Cpu, DeviceProfile::cpu_dual_westmere());
        assert!(d.satisfies_attribute("TYPE", "CPU"));
        assert!(!d.satisfies_attribute("TYPE", "GPU"));
        assert!(d.satisfies_attribute("VENDOR", "intel"));
        assert!(d.satisfies_attribute("MAX_COMPUTE_UNITS", "2"));
        assert!(!d.satisfies_attribute("MAX_COMPUTE_UNITS", "100"));
        assert!(!d.satisfies_attribute("NOT_AN_ATTRIBUTE", "x"));
        assert!(!d.satisfies_attribute("TYPE", "not-a-type"));
        assert!(!d.satisfies_attribute("MAX_COMPUTE_UNITS", "not-a-number"));
    }

    #[test]
    fn device_type_parsing() {
        assert_eq!(DeviceType::from_attribute("gpu"), Some(DeviceType::Gpu));
        assert_eq!(DeviceType::from_attribute("CPU"), Some(DeviceType::Cpu));
        assert_eq!(DeviceType::from_attribute("fpga"), None);
        assert_eq!(DeviceType::Gpu.to_string(), "GPU");
    }
}
