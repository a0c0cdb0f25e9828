//! The OpenCL C type system subset.

use std::fmt;

/// Scalar element types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// `bool`
    Bool,
    /// `char` (8-bit signed)
    Char,
    /// `uchar` (8-bit unsigned)
    UChar,
    /// `short` (16-bit signed)
    Short,
    /// `ushort` (16-bit unsigned)
    UShort,
    /// `int` (32-bit signed)
    Int,
    /// `uint` (32-bit unsigned)
    UInt,
    /// `long` (64-bit signed)
    Long,
    /// `ulong` (64-bit unsigned)
    ULong,
    /// `size_t` (64-bit unsigned in this implementation)
    SizeT,
    /// `float` (32-bit IEEE)
    Float,
    /// `double` (64-bit IEEE)
    Double,
}

impl ScalarType {
    /// Size of the scalar in bytes.
    pub fn size(self) -> usize {
        match self {
            ScalarType::Bool | ScalarType::Char | ScalarType::UChar => 1,
            ScalarType::Short | ScalarType::UShort => 2,
            ScalarType::Int | ScalarType::UInt | ScalarType::Float => 4,
            ScalarType::Long | ScalarType::ULong | ScalarType::SizeT | ScalarType::Double => 8,
        }
    }

    /// True for integer types (including `bool` and `size_t`).
    pub fn is_integer(self) -> bool {
        !matches!(self, ScalarType::Float | ScalarType::Double)
    }

    /// True for `float` / `double`.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::Float | ScalarType::Double)
    }

    /// True for signed integer types.
    pub fn is_signed(self) -> bool {
        matches!(self, ScalarType::Char | ScalarType::Short | ScalarType::Int | ScalarType::Long)
    }

    /// The unsigned type of the same size (`int` → `uint`); other types
    /// are their own.
    pub fn unsigned(self) -> ScalarType {
        match self {
            ScalarType::Char => ScalarType::UChar,
            ScalarType::Short => ScalarType::UShort,
            ScalarType::Int => ScalarType::UInt,
            ScalarType::Long => ScalarType::ULong,
            other => other,
        }
    }

    /// Resolve a scalar type name.
    pub fn from_name(name: &str) -> Option<ScalarType> {
        Some(match name {
            "bool" => ScalarType::Bool,
            "char" => ScalarType::Char,
            "uchar" | "unsigned_char" => ScalarType::UChar,
            "short" => ScalarType::Short,
            "ushort" => ScalarType::UShort,
            "int" => ScalarType::Int,
            "uint" | "unsigned" => ScalarType::UInt,
            "long" => ScalarType::Long,
            "ulong" => ScalarType::ULong,
            "size_t" => ScalarType::SizeT,
            "float" => ScalarType::Float,
            "double" => ScalarType::Double,
            _ => return None,
        })
    }

    /// The OpenCL C name of the type.
    pub fn name(self) -> &'static str {
        match self {
            ScalarType::Bool => "bool",
            ScalarType::Char => "char",
            ScalarType::UChar => "uchar",
            ScalarType::Short => "short",
            ScalarType::UShort => "ushort",
            ScalarType::Int => "int",
            ScalarType::UInt => "uint",
            ScalarType::Long => "long",
            ScalarType::ULong => "ulong",
            ScalarType::SizeT => "size_t",
            ScalarType::Float => "float",
            ScalarType::Double => "double",
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// OpenCL address spaces for pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressSpace {
    /// `__global`
    Global,
    /// `__local`
    Local,
    /// `__constant`
    Constant,
    /// `__private` (the default for automatic variables)
    #[default]
    Private,
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddressSpace::Global => "__global",
            AddressSpace::Local => "__local",
            AddressSpace::Constant => "__constant",
            AddressSpace::Private => "__private",
        };
        f.write_str(s)
    }
}

/// A type in the OpenCL C subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` (only valid as a return type).
    Void,
    /// A scalar.
    Scalar(ScalarType),
    /// A vector of 2, 3, 4, 8 or 16 scalar elements (e.g. `float4`).
    Vector(ScalarType, u8),
    /// A pointer to an element type in an address space.
    Pointer {
        /// What the pointer points at.
        pointee: Box<Type>,
        /// Where the memory lives.
        space: AddressSpace,
        /// Whether the pointee is `const`-qualified.
        is_const: bool,
    },
}

impl Type {
    /// Scalar shorthand.
    pub fn scalar(s: ScalarType) -> Type {
        Type::Scalar(s)
    }

    /// Global-pointer shorthand.
    pub fn global_ptr(pointee: Type) -> Type {
        Type::Pointer { pointee: Box::new(pointee), space: AddressSpace::Global, is_const: false }
    }

    /// Size of a value of this type in bytes (pointers report 8).
    pub fn size(&self) -> usize {
        match self {
            Type::Void => 0,
            Type::Scalar(s) => s.size(),
            Type::Vector(s, n) => {
                // OpenCL aligns 3-component vectors like 4-component ones.
                let n = if *n == 3 { 4 } else { *n };
                s.size() * n as usize
            }
            Type::Pointer { .. } => 8,
        }
    }

    /// Resolve a type name such as `float`, `uint4`, `size_t`.
    pub fn from_name(name: &str) -> Option<Type> {
        if let Some(s) = ScalarType::from_name(name) {
            return Some(Type::Scalar(s));
        }
        // Vector names: scalar name followed by 2/3/4/8/16.
        for width in [16u8, 8, 4, 3, 2] {
            let suffix = width.to_string();
            if let Some(base) = name.strip_suffix(&suffix) {
                if let Some(s) = ScalarType::from_name(base) {
                    if s != ScalarType::Bool {
                        return Some(Type::Vector(s, width));
                    }
                }
            }
        }
        None
    }

    /// True if `name` names a type in this subset.
    pub fn is_type_name(name: &str) -> bool {
        name == "void" || Type::from_name(name).is_some()
    }

    /// The scalar element type of a scalar or vector type.
    pub fn element_scalar(&self) -> Option<ScalarType> {
        match self {
            Type::Scalar(s) => Some(*s),
            Type::Vector(s, _) => Some(*s),
            _ => None,
        }
    }

    /// True for pointer types.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Pointer { .. })
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => f.write_str("void"),
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Vector(s, n) => write!(f, "{s}{n}"),
            Type::Pointer { pointee, space, is_const } => {
                if *is_const {
                    write!(f, "{space} const {pointee}*")
                } else {
                    write!(f, "{space} {pointee}*")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(ScalarType::Char.size(), 1);
        assert_eq!(ScalarType::UShort.size(), 2);
        assert_eq!(ScalarType::Int.size(), 4);
        assert_eq!(ScalarType::Float.size(), 4);
        assert_eq!(ScalarType::SizeT.size(), 8);
        assert_eq!(ScalarType::Double.size(), 8);
    }

    #[test]
    fn type_names_resolve() {
        assert_eq!(Type::from_name("float"), Some(Type::Scalar(ScalarType::Float)));
        assert_eq!(Type::from_name("uint"), Some(Type::Scalar(ScalarType::UInt)));
        assert_eq!(Type::from_name("float4"), Some(Type::Vector(ScalarType::Float, 4)));
        assert_eq!(Type::from_name("int2"), Some(Type::Vector(ScalarType::Int, 2)));
        assert_eq!(Type::from_name("double16"), Some(Type::Vector(ScalarType::Double, 16)));
        assert_eq!(Type::from_name("float5"), None);
        assert_eq!(Type::from_name("mystruct"), None);
        assert!(Type::is_type_name("void"));
        assert!(Type::is_type_name("size_t"));
        assert!(!Type::is_type_name("banana"));
    }

    #[test]
    fn vector_sizes_follow_opencl_alignment() {
        assert_eq!(Type::Vector(ScalarType::Float, 4).size(), 16);
        assert_eq!(Type::Vector(ScalarType::Float, 3).size(), 16);
        assert_eq!(Type::Vector(ScalarType::Int, 2).size(), 8);
    }

    #[test]
    fn classification_helpers() {
        assert!(ScalarType::Int.is_signed());
        assert!(!ScalarType::UInt.is_signed());
        assert!(ScalarType::Float.is_float());
        assert!(ScalarType::SizeT.is_integer());
        assert!(Type::global_ptr(Type::scalar(ScalarType::Float)).is_pointer());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Type::Scalar(ScalarType::Float).to_string(), "float");
        assert_eq!(Type::Vector(ScalarType::UInt, 4).to_string(), "uint4");
        let p = Type::Pointer {
            pointee: Box::new(Type::Scalar(ScalarType::Float)),
            space: AddressSpace::Global,
            is_const: true,
        };
        assert_eq!(p.to_string(), "__global const float*");
    }
}
