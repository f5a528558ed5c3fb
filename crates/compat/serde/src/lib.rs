//! Offline stand-in for `serde`.
//!
//! Provides `Serialize`/`Deserialize` traits over a small self-describing
//! [`Value`] data model, plus impls for the primitives and std collections
//! the `epa` workspace uses. The `derive` feature re-exports the
//! `serde_derive` stand-in macros. See `crates/compat/README.md`.

#![warn(rust_2018_idioms)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialized value (a superset-free JSON-like AST).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null / unit.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (used when the value exceeds `i64::MAX`).
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Map with string keys, insertion-ordered.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the map entries if this value is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the sequence elements if this value is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the string if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deserialization error: what was expected, and in which type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl DeError {
    /// Builds an "expected X while deserializing Y" error.
    pub fn expected(what: &str, context: &str) -> Self {
        DeError {
            message: format!("expected {what} while deserializing {context}"),
        }
    }

    /// Builds an error from a custom message.
    pub fn custom(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

/// A type that can be converted into a [`Value`].
pub trait Serialize {
    /// Converts `self` into the data model.
    fn ser(&self) -> Value;
}

/// A type that can be reconstructed from a [`Value`].
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from the data model.
    fn de(v: &Value) -> Result<Self, DeError>;
}

/// Looks up a required field in a map value (derive-macro helper).
pub fn field<'v>(map: &'v [(String, Value)], name: &str, ty: &str) -> Result<&'v Value, DeError> {
    map.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError::custom(format!("missing field `{name}` while deserializing {ty}")))
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn ser(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool", "bool")),
        }
    }
}

macro_rules! int_impls {
    (@ser_signed $t:ty) => {
        impl Serialize for $t {
            fn ser(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    };
    (@ser_unsigned $t:ty) => {
        impl Serialize for $t {
            fn ser(&self) -> Value {
                if *self as u64 <= i64::MAX as u64 {
                    Value::Int(*self as i64)
                } else {
                    Value::UInt(*self as u64)
                }
            }
        }
    };
    ($($kind:tt $t:ty),*) => {$(
        int_impls!(@$kind $t);
        impl Deserialize for $t {
            fn de(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| DeError::custom(format!("{i} out of range for {}", stringify!($t)))),
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| DeError::custom(format!("{u} out of range for {}", stringify!($t)))),
                    _ => Err(DeError::expected("integer", stringify!($t))),
                }
            }
        }
    )*};
}

int_impls!(
    ser_unsigned u8, ser_unsigned u16, ser_unsigned u32, ser_unsigned u64, ser_unsigned usize,
    ser_signed i8, ser_signed i16, ser_signed i32, ser_signed i64, ser_signed isize
);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn de(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    // Non-finite floats serialize as null (JSON has no NaN).
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(DeError::expected("number", stringify!($t))),
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for char {
    fn ser(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("len checked")),
            _ => Err(DeError::expected("single-char string", "char")),
        }
    }
}

impl Serialize for String {
    fn ser(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn ser(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for () {
    fn ser(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(()),
            _ => Err(DeError::expected("null", "()")),
        }
    }
}

// ---------------------------------------------------------------------------
// Composite types
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn ser(&self) -> Value {
        (**self).ser()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn ser(&self) -> Value {
        (**self).ser()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        T::de(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn ser(&self) -> Value {
        (**self).ser()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        T::de(v).map(Arc::new)
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn de(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::de(v).map(Arc::from)
    }
}

impl Deserialize for Arc<str> {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(Arc::from(s.as_str())),
            _ => Err(DeError::expected("string", "Arc<str>")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn ser(&self) -> Value {
        (**self).ser()
    }
}

impl<T: Deserialize> Deserialize for Rc<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        T::de(v).map(Rc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn ser(&self) -> Value {
        match self {
            Some(t) => t.ser(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::de(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::ser).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(s) => s.iter().map(T::de).collect(),
            _ => Err(DeError::expected("sequence", "Vec")),
        }
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::ser).collect())
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(s) => s.iter().map(T::de).collect(),
            _ => Err(DeError::expected("sequence", "VecDeque")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::ser).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::ser).collect())
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn ser(&self) -> Value {
                Value::Seq(vec![$(self.$n.ser()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn de(v: &Value) -> Result<Self, DeError> {
                let s = v.as_seq().ok_or_else(|| DeError::expected("sequence", "tuple"))?;
                const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                if s.len() != LEN {
                    return Err(DeError::custom(format!("expected tuple of {LEN}, got {}", s.len())));
                }
                Ok(($($t::de(&s[$n])?,)+))
            }
        }
    )+};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(|(k, v)| Value::Seq(vec![k.ser(), v.ser()])).collect())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn de(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_seq()
            .ok_or_else(|| DeError::expected("sequence of pairs", "BTreeMap"))?;
        s.iter()
            .map(|pair| {
                let p = pair
                    .as_seq()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| DeError::expected("pair", "BTreeMap"))?;
                Ok((K::de(&p[0])?, V::de(&p[1])?))
            })
            .collect()
    }
}

impl<K: Serialize + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(|(k, v)| Value::Seq(vec![k.ser(), v.ser()])).collect())
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn de(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_seq()
            .ok_or_else(|| DeError::expected("sequence of pairs", "HashMap"))?;
        s.iter()
            .map(|pair| {
                let p = pair
                    .as_seq()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| DeError::expected("pair", "HashMap"))?;
                Ok((K::de(&p[0])?, V::de(&p[1])?))
            })
            .collect()
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::ser).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(s) => s.iter().map(T::de).collect(),
            _ => Err(DeError::expected("sequence", "BTreeSet")),
        }
    }
}

impl<T: Serialize + Eq + Hash> Serialize for HashSet<T> {
    fn ser(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::ser).collect())
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn de(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(s) => s.iter().map(T::de).collect(),
            _ => Err(DeError::expected("sequence", "HashSet")),
        }
    }
}
