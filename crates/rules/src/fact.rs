//! Facts: typed records in working memory.
//!
//! A fact type declares its ordered field names once, as a
//! [`FactType`] — the paper's `MeanEventFact` bean declares its fields
//! once, too. A [`Fact`] is a handle to its type's declaration plus one
//! value per field, in declaration order, so building one allocates the
//! value slice and nothing per field name. The rule engine resolves a
//! pattern's field references to slot indices once per compiled
//! rulebase and declared type, never by name per match.
//!
//! Facts whose fields are only known at run time — trial metadata,
//! facts asserted from a script or a rule action — use the open builder
//! [`Fact::new`]`(name).`[`with`](Fact::with)`(field, value)`, which
//! produces the same representation over a schema of its own.

use crate::value::Value;
use serde::{Deserialize, Reader, Serialize, Writer};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Handle identifying a fact instance inside an engine's working memory.
///
/// Handles are never reused: retracting a fact and asserting an equal one
/// yields a new handle, which is what makes refraction (fire-once per
/// activation) behave like Drools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FactHandle(pub u64);

/// A declared fact type: a name plus ordered field names, held in a
/// `static` by the code that produces facts of the type.
///
/// ```
/// use rules::{FactType, Value};
///
/// static REGION: FactType = FactType::new("Region", &["name", "share"]);
/// let fact = REGION.fact([Value::from("loop"), Value::from(0.3)]);
/// assert_eq!(fact.get_num("share"), Some(0.3));
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct FactType {
    name: &'static str,
    fields: &'static [&'static str],
}

impl FactType {
    /// Declares a fact type with the given ordered field names.
    pub const fn new(name: &'static str, fields: &'static [&'static str]) -> Self {
        FactType { name, fields }
    }

    /// Builds a fact of this type from one value per declared field, in
    /// declaration order.
    ///
    /// # Panics
    ///
    /// If the number of values differs from the number of fields.
    pub fn fact(&'static self, values: impl Into<Box<[Value]>>) -> Fact {
        let values = values.into();
        assert_eq!(
            values.len(),
            self.fields.len(),
            "{} declares {} fields",
            self.name,
            self.fields.len()
        );
        Fact {
            schema: Schema::Declared(self),
            values,
        }
    }
}

/// The field layout of one fact: a declared type, or the open schema
/// the builder grows one field at a time.
#[derive(Clone)]
pub(crate) enum Schema {
    Declared(&'static FactType),
    Open(Arc<OpenSchema>),
}

#[derive(Clone)]
pub(crate) struct OpenSchema {
    name: String,
    fields: Vec<String>,
}

impl Schema {
    pub(crate) fn name(&self) -> &str {
        match self {
            Schema::Declared(t) => t.name,
            Schema::Open(s) => &s.name,
        }
    }

    pub(crate) fn field(&self, slot: usize) -> &str {
        match self {
            Schema::Declared(t) => t.fields[slot],
            Schema::Open(s) => &s.fields[slot],
        }
    }

    /// The slot of `field`, if the schema has it.
    pub(crate) fn slot(&self, field: &str) -> Option<usize> {
        match self {
            Schema::Declared(t) => t.fields.iter().position(|f| *f == field),
            Schema::Open(s) => s.fields.iter().position(|f| f == field),
        }
    }

    /// A process-wide identity for a declared type, usable as a cache
    /// key: declared types live in statics, so the address is never
    /// reused. Open schemas have none.
    pub(crate) fn declared_key(&self) -> Option<usize> {
        match self {
            Schema::Declared(t) => Some(*t as *const FactType as usize),
            Schema::Open(_) => None,
        }
    }
}

/// A typed fact, e.g. the paper's `MeanEventFact` with fields `metric`,
/// `higherLower`, `severity`, `eventName`, `mainValue`, `eventValue`,
/// `factType`.
///
/// Two facts are equal when they have the same type name and the same
/// field → value pairs, whatever order the fields were declared in.
#[derive(Clone)]
pub struct Fact {
    schema: Schema,
    values: Box<[Value]>,
}

impl Fact {
    /// Creates an empty fact of the given type with an open schema;
    /// fields are added with [`with`](Fact::with) or [`set`](Fact::set).
    pub fn new(fact_type: impl Into<String>) -> Self {
        Fact {
            schema: Schema::Open(Arc::new(OpenSchema {
                name: fact_type.into(),
                fields: Vec::new(),
            })),
            values: Box::new([]),
        }
    }

    /// Builder-style field setter.
    pub fn with(mut self, field: &str, value: impl Into<Value>) -> Self {
        self.set(field, value);
        self
    }

    /// Sets a field in place: replaces the value of an existing field,
    /// or appends a new one (turning a declared fact into an open one).
    pub fn set(&mut self, field: &str, value: impl Into<Value>) {
        let value = value.into();
        if let Some(slot) = self.schema.slot(field) {
            self.values[slot] = value;
            return;
        }
        if let Schema::Declared(t) = self.schema {
            self.schema = Schema::Open(Arc::new(OpenSchema {
                name: t.name.to_string(),
                fields: t.fields.iter().map(|f| f.to_string()).collect(),
            }));
        }
        if let Schema::Open(s) = &mut self.schema {
            Arc::make_mut(s).fields.push(field.to_string());
        }
        let mut values = std::mem::take(&mut self.values).into_vec();
        values.push(value);
        self.values = values.into_boxed_slice();
    }

    /// The fact type name used by pattern matching.
    pub fn fact_type(&self) -> &str {
        self.schema.name()
    }

    /// The fields and their values, in slot order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.values
            .iter()
            .enumerate()
            .map(|(slot, v)| (self.schema.field(slot), v))
    }

    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// Field lookup by name.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.schema.slot(field).map(|slot| &self.values[slot])
    }

    /// String field lookup.
    pub fn get_str(&self, field: &str) -> Option<&str> {
        self.get(field).and_then(Value::as_str)
    }

    /// Numeric field lookup.
    pub fn get_num(&self, field: &str) -> Option<f64> {
        self.get(field).and_then(Value::as_num)
    }

    /// Boolean field lookup.
    pub fn get_bool(&self, field: &str) -> Option<bool> {
        self.get(field).and_then(Value::as_bool)
    }

    /// The fields keyed and ordered by name.
    pub(crate) fn to_map(&self) -> BTreeMap<String, Value> {
        self.fields()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// An open fact holding `fields`, in their iteration order.
    pub(crate) fn from_map(fact_type: impl Into<String>, fields: BTreeMap<String, Value>) -> Fact {
        let (names, values): (Vec<String>, Vec<Value>) = fields.into_iter().unzip();
        Fact {
            schema: Schema::Open(Arc::new(OpenSchema {
                name: fact_type.into(),
                fields: names,
            })),
            values: values.into_boxed_slice(),
        }
    }
}

impl PartialEq for Fact {
    fn eq(&self, other: &Fact) -> bool {
        self.fact_type() == other.fact_type()
            && self.values.len() == other.values.len()
            && self.fields().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fact")
            .field("fact_type", &self.fact_type())
            .field("fields", &self.to_map())
            .finish()
    }
}

impl fmt::Display for Fact {
    /// `Type(field: value, ...)`, fields in name order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut fields: Vec<(&str, &Value)> = self.fields().collect();
        fields.sort_by(|a, b| a.0.cmp(b.0));
        write!(f, "{}(", self.fact_type())?;
        for (i, (k, v)) in fields.into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, ")")
    }
}

/// The JSON shape of a fact: the type name plus its fields as an object
/// in name order.
#[derive(Serialize, Deserialize)]
struct FactRepr {
    fact_type: String,
    fields: BTreeMap<String, Value>,
}

impl FactRepr {
    fn of(fact: &Fact) -> FactRepr {
        FactRepr {
            fact_type: fact.fact_type().to_string(),
            fields: fact.to_map(),
        }
    }

    fn into_fact(self) -> Fact {
        Fact::from_map(self.fact_type, self.fields)
    }
}

impl Serialize for Fact {
    fn serialize(&self, w: &mut Writer) {
        FactRepr::of(self).serialize(w)
    }

    fn to_value(&self) -> serde::Value {
        FactRepr::of(self).to_value()
    }
}

impl Deserialize for Fact {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        FactRepr::deserialize(r).map(FactRepr::into_fact)
    }

    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        FactRepr::from_value(v).map(FactRepr::into_fact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static POINT: FactType = FactType::new("Point", &["x", "label"]);

    #[test]
    fn builder_and_lookups() {
        let f = Fact::new("MeanEventFact")
            .with("metric", "stall_per_cycle")
            .with("severity", 0.31)
            .with("higher", true);
        assert_eq!(f.fact_type(), "MeanEventFact");
        assert_eq!(f.get_str("metric"), Some("stall_per_cycle"));
        assert_eq!(f.get_num("severity"), Some(0.31));
        assert_eq!(f.get_bool("higher"), Some(true));
        assert_eq!(f.get("missing"), None);
        assert_eq!(f.get_num("metric"), None);
    }

    #[test]
    fn set_replaces() {
        let mut f = Fact::new("T").with("a", 1.0);
        f.set("a", 2.0);
        assert_eq!(f.get_num("a"), Some(2.0));
        assert_eq!(f.fields().count(), 1);
    }

    #[test]
    fn display_is_compact() {
        let f = Fact::new("T").with("x", 1.0).with("name", "loop");
        assert_eq!(f.to_string(), "T(name: loop, x: 1)");
    }

    #[test]
    fn serde_roundtrip() {
        let f = Fact::new("T").with("x", 1.5).with("s", "v");
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(
            json,
            r#"{"fact_type":"T","fields":{"s":{"Str":"v"},"x":{"Num":1.5}}}"#
        );
        let back: Fact = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn declared_and_open_facts_compare_by_fields() {
        let declared = POINT.fact([Value::from(2.0), Value::from("p")]);
        let open = Fact::new("Point").with("label", "p").with("x", 2.0);
        assert_eq!(declared, open);
        assert_eq!(declared.to_string(), open.to_string());
        assert_ne!(declared, open.clone().with("extra", true));
        assert_ne!(declared, Fact::new("Point").with("x", 2.0));
    }

    #[test]
    fn setting_an_undeclared_field_opens_the_schema() {
        let mut f = POINT.fact([Value::from(1.0), Value::from("a")]);
        f.set("x", 3.0);
        assert_eq!(f.get_num("x"), Some(3.0));
        assert!(f.schema().declared_key().is_some());
        f.set("z", true);
        assert!(f.schema().declared_key().is_none());
        let names: Vec<&str> = f.fields().map(|(k, _)| k).collect();
        assert_eq!(names, ["x", "label", "z"]);
    }

    #[test]
    #[should_panic(expected = "declares 2 fields")]
    fn declared_fact_needs_every_field() {
        POINT.fact([Value::from(1.0)]);
    }
}
