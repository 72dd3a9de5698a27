//! Built-in functions, shared by the bytecode VM and the reference
//! tree-walker.
//!
//! Builtins are resolved *by name* ahead of user and host functions in
//! both engines, so the name set here is effectively reserved. The
//! compiler maps each name to a dense [`Builtin`] id at compile time;
//! the reference interpreter looks the id up per call. Both then funnel
//! into the single [`call`] implementation, so builtin semantics cannot
//! drift between the two engines.

use crate::value::Value;
use crate::{Result, ScriptError};
use std::sync::Arc;

/// The longest list `range` builds. A script names the length, so the
/// bound is checked before anything is allocated.
pub const MAX_RANGE_LEN: usize = 1 << 20;

/// Dense identifier of a built-in function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // names mirror the script-visible functions 1:1
pub enum Builtin {
    Print,
    Len,
    Str,
    Num,
    Push,
    Range,
    Keys,
    Has,
    Get,
    Abs,
    Sqrt,
    Floor,
    Ceil,
    Pow,
    Min,
    Max,
    Sum,
    Sort,
    Join,
    Split,
    Contains,
    Type,
}

impl Builtin {
    /// Resolves a script-level name to a builtin id. Returns `None` for
    /// non-builtin names so resolution can continue with user and host
    /// functions.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "print" => Builtin::Print,
            "len" => Builtin::Len,
            "str" => Builtin::Str,
            "num" => Builtin::Num,
            "push" => Builtin::Push,
            "range" => Builtin::Range,
            "keys" => Builtin::Keys,
            "has" => Builtin::Has,
            "get" => Builtin::Get,
            "abs" => Builtin::Abs,
            "sqrt" => Builtin::Sqrt,
            "floor" => Builtin::Floor,
            "ceil" => Builtin::Ceil,
            "pow" => Builtin::Pow,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "sum" => Builtin::Sum,
            "sort" => Builtin::Sort,
            "join" => Builtin::Join,
            "split" => Builtin::Split,
            "contains" => Builtin::Contains,
            "type" => Builtin::Type,
            _ => return None,
        })
    }

    /// The script-level name (used in error messages).
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Print => "print",
            Builtin::Len => "len",
            Builtin::Str => "str",
            Builtin::Num => "num",
            Builtin::Push => "push",
            Builtin::Range => "range",
            Builtin::Keys => "keys",
            Builtin::Has => "has",
            Builtin::Get => "get",
            Builtin::Abs => "abs",
            Builtin::Sqrt => "sqrt",
            Builtin::Floor => "floor",
            Builtin::Ceil => "ceil",
            Builtin::Pow => "pow",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Sum => "sum",
            Builtin::Sort => "sort",
            Builtin::Join => "join",
            Builtin::Split => "split",
            Builtin::Contains => "contains",
            Builtin::Type => "type",
        }
    }
}

/// Executes a builtin over positional arguments. `print` appends to
/// `output`; everything else is pure. Error messages carry the call
/// site's `line`.
pub fn call(b: Builtin, args: &[Value], output: &mut Vec<String>, line: usize) -> Result<Value> {
    let name = b.name();
    let argc_err = |expected: &str| {
        ScriptError::runtime(line, format!("{name}() expects {expected} arguments"))
    };
    let num_arg = |i: usize| -> Result<f64> {
        args.get(i).and_then(Value::as_num).ok_or_else(|| {
            ScriptError::runtime(line, format!("{name}(): argument {i} must be a number"))
        })
    };
    let v =
        match b {
            Builtin::Print => {
                let text = args
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                output.push(text);
                Value::Null
            }
            Builtin::Len => match args {
                [Value::Str(s)] => Value::Num(s.chars().count() as f64),
                [Value::List(v)] => Value::Num(v.len() as f64),
                [Value::Map(m)] => Value::Num(m.len() as f64),
                _ => return Err(argc_err("one str/list/map")),
            },
            Builtin::Str => match args {
                [v] => Value::Str(v.to_string().into()),
                _ => return Err(argc_err("one")),
            },
            Builtin::Num => match args {
                [Value::Num(n)] => Value::Num(*n),
                [Value::Str(s)] => s.trim().parse::<f64>().map(Value::Num).map_err(|_| {
                    ScriptError::runtime(line, format!("num(): cannot parse {s:?}"))
                })?,
                _ => return Err(argc_err("one num/str")),
            },
            Builtin::Push => match args {
                [Value::List(items), v] => {
                    let mut out = items.to_vec();
                    out.push(v.clone());
                    Value::List(Arc::new(out.into()))
                }
                _ => return Err(argc_err("a list and a value")),
            },
            Builtin::Range => {
                let (a, b) = match args.len() {
                    1 => (0.0, num_arg(0)?),
                    2 => (num_arg(0)?, num_arg(1)?),
                    _ => return Err(argc_err("one or two")),
                };
                if !a.is_finite() || !b.is_finite() {
                    return Err(ScriptError::runtime(
                        line,
                        format!("{name}(): arguments must be finite"),
                    ));
                }
                let (a, b) = (a as i64, b as i64);
                let len = b.saturating_sub(a).max(0) as u64;
                if len > MAX_RANGE_LEN as u64 {
                    return Err(ScriptError::runtime(
                        line,
                        format!("{name}(): {len} values exceed the limit of {MAX_RANGE_LEN}"),
                    ));
                }
                Value::List(Arc::new((a..b).map(|i| Value::Num(i as f64)).collect()))
            }
            Builtin::Keys => match args {
                [Value::Map(m)] => Value::List(Arc::new(
                    m.keys().map(|k| Value::from(k.as_str())).collect(),
                )),
                _ => return Err(argc_err("one map")),
            },
            Builtin::Has => match args {
                [Value::Map(m), Value::Str(k)] => Value::Bool(m.contains_key(&**k)),
                [Value::List(v), item] => Value::Bool(v.contains(item)),
                _ => return Err(argc_err("a map/list and a key")),
            },
            Builtin::Get => match args {
                [Value::Map(m), Value::Str(k), default] => {
                    m.get(&**k).cloned().unwrap_or_else(|| default.clone())
                }
                _ => return Err(argc_err("a map, key, and default")),
            },
            Builtin::Abs => Value::Num(num_arg(0)?.abs()),
            Builtin::Sqrt => {
                let n = num_arg(0)?;
                if n < 0.0 {
                    return Err(ScriptError::runtime(line, "sqrt of negative number"));
                }
                Value::Num(n.sqrt())
            }
            Builtin::Floor => Value::Num(num_arg(0)?.floor()),
            Builtin::Ceil => Value::Num(num_arg(0)?.ceil()),
            Builtin::Pow => Value::Num(num_arg(0)?.powf(num_arg(1)?)),
            Builtin::Min => match args {
                [Value::List(items)] if !items.is_empty() => {
                    let mut best = f64::INFINITY;
                    for v in items.iter() {
                        best = best.min(v.as_num().ok_or_else(|| argc_err("numeric list"))?);
                    }
                    Value::Num(best)
                }
                [Value::Num(a), Value::Num(b)] => Value::Num(a.min(*b)),
                _ => return Err(argc_err("two numbers or a non-empty numeric list")),
            },
            Builtin::Max => match args {
                [Value::List(items)] if !items.is_empty() => {
                    let mut best = f64::NEG_INFINITY;
                    for v in items.iter() {
                        best = best.max(v.as_num().ok_or_else(|| argc_err("numeric list"))?);
                    }
                    Value::Num(best)
                }
                [Value::Num(a), Value::Num(b)] => Value::Num(a.max(*b)),
                _ => return Err(argc_err("two numbers or a non-empty numeric list")),
            },
            Builtin::Sum => match args {
                [Value::List(items)] => {
                    let mut total = 0.0;
                    for v in items.iter() {
                        total += v.as_num().ok_or_else(|| argc_err("numeric list"))?;
                    }
                    Value::Num(total)
                }
                _ => return Err(argc_err("one numeric list")),
            },
            Builtin::Sort => match args {
                [Value::List(items)] => {
                    let mut out = items.to_vec();
                    out.sort_by(|a, b| match (a, b) {
                        (Value::Num(x), Value::Num(y)) => {
                            x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal)
                        }
                        (Value::Str(x), Value::Str(y)) => x.cmp(y),
                        _ => std::cmp::Ordering::Equal,
                    });
                    Value::List(Arc::new(out.into()))
                }
                _ => return Err(argc_err("one list")),
            },
            Builtin::Join => match args {
                [Value::List(items), Value::Str(sep)] => Value::Str(
                    items
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(sep)
                        .into(),
                ),
                _ => return Err(argc_err("a list and a separator")),
            },
            Builtin::Split => match args {
                [Value::Str(s), Value::Str(sep)] => {
                    Value::List(Arc::new(s.split(&**sep).map(Value::from).collect()))
                }
                _ => return Err(argc_err("a string and a separator")),
            },
            Builtin::Contains => match args {
                [Value::Str(s), Value::Str(sub)] => Value::Bool(s.contains(&**sub)),
                _ => return Err(argc_err("two strings")),
            },
            Builtin::Type => match args {
                [v] => Value::from(v.type_name()),
                _ => return Err(argc_err("one")),
            },
        };
    Ok(v)
}
