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
use std::ops::{Deref, DerefMut};
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
}

/// A string interner mapping identifiers to dense [`Symbol`]s.
///
/// Interning appends: a name keeps its symbol until the interpreter is
/// reset to a mark below it, which is what lets compiled programs
/// (which bake in symbol-derived slot ids) stay valid across runs of
/// one interpreter. Each name is stored once, shared by the lookup map,
/// the symbol table, sweep snapshots and compiled programs.
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

    /// Every interned name, in symbol order.
    pub(crate) fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// Makes `names` the interner's first entries, in order: a name
    /// already at its index is only compared, a missing one is appended
    /// sharing the given string. False if a name sits elsewhere.
    pub(crate) fn replay(&mut self, names: &[Arc<str>]) -> bool {
        for (i, name) in names.iter().enumerate() {
            match self.names.get(i) {
                Some(have) => {
                    if have != name {
                        return false;
                    }
                }
                None => {
                    if self.map.contains_key(&**name) {
                        return false;
                    }
                    self.names.push(Arc::clone(name));
                    self.map.insert(Arc::clone(name), Symbol(i as u32));
                }
            }
        }
        true
    }

    /// Forgets every name from symbol `len` on; the lookup map keeps
    /// its capacity.
    pub(crate) fn truncate(&mut self, len: usize) {
        for name in self.names.drain(len.min(self.names.len())..) {
            self.map.remove(&name);
        }
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
    List(Arc<Items>),
    /// String-keyed map, shared; index assignment copies it first if
    /// shared.
    Map(Arc<Entries>),
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

/// A list's items: a `Vec<Value>` (it derefs to one) whose drop frees
/// nested lists and maps without recursing once per level.
#[derive(Clone, Default, PartialEq)]
pub struct Items(Vec<Value>);

/// A map's entries: a `BTreeMap<String, Value>` (it derefs to one)
/// whose drop frees nested lists and maps without recursing once per
/// level.
#[derive(Clone, Default, PartialEq)]
pub struct Entries(BTreeMap<String, Value>);

macro_rules! container {
    ($name:ident, $inner:ty, $item:ty) => {
        impl Deref for $name {
            type Target = $inner;
            #[inline]
            fn deref(&self) -> &$inner {
                &self.0
            }
        }

        impl DerefMut for $name {
            #[inline]
            fn deref_mut(&mut self) -> &mut $inner {
                &mut self.0
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(inner: $inner) -> Self {
                $name(inner)
            }
        }

        impl FromIterator<$item> for $name {
            fn from_iter<I: IntoIterator<Item = $item>>(iter: I) -> Self {
                $name(iter.into_iter().collect())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt(f)
            }
        }
    };
}

container!(Items, Vec<Value>, Value);
container!(Entries, BTreeMap<String, Value>, (String, Value));

/// How many levels of nested lists and maps a drop empties on the call
/// stack; deeper ones wait on a heap stack.
const DROP_DEPTH: usize = 32;

/// The drop of the last reference to a list or map. Without it the
/// drop glue would recurse once per level of nesting, and `x = [x]` in
/// a loop builds a value nested as deep as the loop runs: dropping it
/// would overflow the thread's stack, an abort no `catch_unwind` can
/// contain. So the children that are the last owners of a non-empty
/// list or map are emptied first, depth first down to [`DROP_DEPTH`]
/// levels, anything deeper moved onto a stack and emptied from the top
/// in turn: only a value nested that deep allocates. Numbers, strings
/// and shared containers cost nothing here; they drop as before.
impl Drop for Items {
    fn drop(&mut self) {
        free_nested(self.0.iter_mut());
    }
}

impl Drop for Entries {
    fn drop(&mut self) {
        free_nested(self.0.values_mut());
    }
}

impl Value {
    /// Whether this is a non-empty list or map no other value shares.
    #[inline]
    fn owns_items(&self) -> bool {
        match self {
            Value::List(items) => !items.is_empty() && Arc::strong_count(items) == 1,
            Value::Map(entries) => !entries.is_empty() && Arc::strong_count(entries) == 1,
            _ => false,
        }
    }
}

fn free_nested<'a>(children: impl Iterator<Item = &'a mut Value>) {
    let mut deeper = Vec::new();
    empty_children(children, 0, &mut deeper);
    while let Some(mut value) = deeper.pop() {
        empty(&mut value, 0, &mut deeper);
    }
}

/// Empties each child that owns items (at `depth` [`DROP_DEPTH`],
/// moves it onto `deeper` instead), so that dropping it frees no more.
fn empty_children<'a>(
    children: impl Iterator<Item = &'a mut Value>,
    depth: usize,
    deeper: &mut Vec<Value>,
) {
    for child in children.filter(|child| child.owns_items()) {
        if depth < DROP_DEPTH {
            empty(child, depth + 1, deeper);
        } else {
            deeper.push(std::mem::replace(child, Value::Null));
        }
    }
}

/// Drops the items of the list or map `value` is the last owner of,
/// emptying its children first.
fn empty(value: &mut Value, depth: usize, deeper: &mut Vec<Value>) {
    match value {
        Value::List(items) => {
            if let Some(items) = Arc::get_mut(items) {
                empty_children(items.iter_mut(), depth, deeper);
                items.clear();
            }
        }
        Value::Map(entries) => {
            if let Some(entries) = Arc::get_mut(entries) {
                empty_children(entries.values_mut(), depth, deeper);
                entries.clear();
            }
        }
        _ => {}
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
        Value::Map(Arc::new(m.into()))
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
        assert!(!Value::from(Vec::<Value>::new()).truthy());
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
