//! Runtime values and identifier interning.
//!
//! # Value layout
//!
//! Scripts have value semantics: `let b = a; b[0] = 9` leaves `a`
//! unchanged, as does mutating a parameter or a sweep body's copy. A
//! [`Value`] keeps those semantics without deep copies. Strings, lists
//! and maps sit behind an [`Arc`], so copying a register, loading a
//! constant, indexing a list, passing an argument or starting a `for`
//! loop only bumps a reference count. Handle tags are `&'static str`,
//! so handles copy without touching the heap.
//!
//! A write copies only when it must. `x[i] = v` goes through
//! [`Arc::make_mut`], which mutates in place when `x` holds the only
//! reference and clones the list or map first when anything else (a
//! variable, an open `for` loop, a caller's argument, a sweep snapshot)
//! still shares it. Only the outer container is cloned: its elements
//! are themselves shared values. Values cross threads in sweeps, so the
//! counts are atomic ([`Arc`], not `Rc`).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// An interned identifier: a dense index into an [`Interner`].
///
/// The compiler interns every variable and function name once, so the
/// VM compares and hashes 4-byte symbols instead of strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The symbol's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a symbol from its dense index (used when replaying a
    /// compiled script's name tables into another interpreter).
    pub(crate) fn from_index(index: usize) -> Symbol {
        Symbol(index as u32)
    }
}

/// A string interner mapping identifiers to dense [`Symbol`]s.
///
/// Interning is append-only: a name keeps its symbol for the lifetime
/// of the interner, which is what lets compiled programs (which bake in
/// symbol-derived slot ids) stay valid across runs of one interpreter.
/// Each name is stored once, shared by the lookup map and the symbol
/// table, and handed out shared to sweep snapshots.
#[derive(Debug, Default)]
pub struct Interner {
    map: HashMap<Arc<str>, Symbol>,
    names: Vec<Arc<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `name`, returning its (possibly pre-existing) symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.map.get(name) {
            return sym;
        }
        let sym = Symbol(self.names.len() as u32);
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.map.insert(name, sym);
        sym
    }

    /// Looks a name up without interning it.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.map.get(name).copied()
    }

    /// The name behind a symbol.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// The name behind a symbol, shared.
    pub(crate) fn resolve_shared(&self, sym: Symbol) -> Arc<str> {
        Arc::clone(&self.names[sym.index()])
    }

    /// How many names are interned (symbols are `0..len()`).
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

/// A script runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value (`null`, and the result of value-less calls).
    Null,
    /// Boolean.
    Bool(bool),
    /// Number (f64, like the profile data it manipulates).
    Num(f64),
    /// String, shared and immutable.
    Str(Arc<str>),
    /// List, shared; index assignment copies it first if shared.
    List(Arc<Vec<Value>>),
    /// String-keyed map, shared; index assignment copies it first if
    /// shared.
    Map(Arc<BTreeMap<String, Value>>),
    /// Opaque host object: a tag describing its kind plus a host-side id.
    /// The script can pass handles around and back into host functions
    /// but cannot inspect them.
    Handle {
        /// Host-defined kind tag, e.g. `"trial"`.
        tag: &'static str,
        /// Host-side identifier.
        id: u64,
    },
}

impl Value {
    /// Truthiness: `null`, `false`, `0`, `""`, `[]` and `{}` are false.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(v) => !v.is_empty(),
            Value::Map(m) => !m.is_empty(),
            Value::Handle { .. } => true,
        }
    }

    /// Numeric view.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// List view.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Map view.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Handle view: `(tag, id)`.
    pub fn as_handle(&self) -> Option<(&str, u64)> {
        match self {
            Value::Handle { tag, id } => Some((*tag, *id)),
            _ => None,
        }
    }

    /// Structural equality that compares numbers by bit pattern, so
    /// `NaN == NaN` here (and `0.0 != -0.0`).
    ///
    /// Language-level `==` uses [`PartialEq`], where `NaN != NaN` per
    /// IEEE 754. Differential tests use this method instead: two
    /// engines that both produce `NaN` from the same script agree, and
    /// `assert!(a.bitwise_eq(&b))` cannot spuriously fail the way
    /// `assert_eq!(a, b)` does.
    pub fn bitwise_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.bitwise_eq(y))
            }
            (Value::Map(a), Value::Map(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.bitwise_eq(vb))
            }
            _ => self == other,
        }
    }

    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "num",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Map(_) => "map",
            Value::Handle { .. } => "handle",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Handle { tag, id } => write!(f, "<{tag}#{id}>"),
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(Arc::new(v.into_iter().map(Into::into).collect()))
    }
}

impl From<BTreeMap<String, Value>> for Value {
    fn from(m: BTreeMap<String, Value>) -> Self {
        Value::Map(Arc::new(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Num(0.0).truthy());
        assert!(!Value::Str("".into()).truthy());
        assert!(!Value::List(vec![].into()).truthy());
        assert!(Value::Num(1.0).truthy());
        assert!(Value::from("x").truthy());
        assert!(Value::Handle { tag: "t", id: 0 }.truthy());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Num(3.0).to_string(), "3");
        assert_eq!(Value::Num(3.5).to_string(), "3.5");
        assert_eq!(Value::from(vec![1.0, 2.0]).to_string(), "[1, 2]");
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), Value::Num(1.0));
        assert_eq!(Value::from(m).to_string(), "{a: 1}");
        assert_eq!(
            Value::Handle {
                tag: "trial",
                id: 3
            }
            .to_string(),
            "<trial#3>"
        );
    }

    #[test]
    fn typed_views() {
        assert_eq!(Value::Num(2.0).as_num(), Some(2.0));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert!(Value::from(vec![1.0]).as_list().is_some());
        assert_eq!(
            Value::Handle { tag: "t", id: 9 }.as_handle(),
            Some(("t", 9))
        );
        assert_eq!(Value::Null.as_num(), None);
        assert_eq!(Value::Num(1.0).type_name(), "num");
    }

    #[test]
    fn interner_round_trips_and_deduplicates() {
        let mut interner = Interner::new();
        let a = interner.intern("alpha");
        let b = interner.intern("beta");
        assert_ne!(a, b);
        assert_eq!(interner.intern("alpha"), a);
        assert_eq!(interner.resolve(a), "alpha");
        assert_eq!(interner.resolve(b), "beta");
        assert_eq!(interner.lookup("beta"), Some(b));
        assert_eq!(interner.lookup("gamma"), None);
    }
}
