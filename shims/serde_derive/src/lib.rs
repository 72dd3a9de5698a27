//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! shapes this workspace uses — named structs, tuple structs, unit
//! structs, and enums with unit/newtype/tuple/struct variants — without
//! depending on `syn`/`quote` (unavailable offline). The input item is
//! parsed directly from the `proc_macro` token stream and the impl is
//! emitted as formatted source text.
//!
//! Each impl has both of the serde shim's paths: the one-pass
//! `serialize`/`deserialize` over its `Writer`/`Reader`, and the
//! `to_value`/`from_value` reference path over `Value`. A derived
//! `deserialize` first compares the input with each field's `"name":`
//! in declaration order (the order `serialize` writes), consuming keys
//! while they match; from the first key that does not, it matches each
//! key against the field names as a borrowed slice. Either way the
//! first occurrence of a field wins and every other member is validated
//! and skipped.
//!
//! Supported attribute: `#[serde(default)]` on named struct fields.
//! Generics are not supported (the workspace derives only on concrete
//! types).

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field of a named struct or struct variant.
struct Field {
    name: String,
    /// `#[serde(default)]` present.
    default: bool,
}

/// Field layout of a struct or enum variant.
enum Fields {
    Unit,
    /// Tuple layout with the given arity.
    Tuple(usize),
    Named(Vec<Field>),
}

/// The parsed derive input.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (name, write, build) = match &item {
        Item::Struct { name, fields } => (
            name,
            gen_struct_serialize(fields),
            gen_struct_to_value(fields),
        ),
        Item::Enum { name, variants } => (
            name,
            gen_enum_serialize(name, variants),
            gen_enum_to_value(name, variants),
        ),
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, __w: &mut ::serde::Writer) {{ {write} }}\n\
             fn to_value(&self) -> ::serde::Value {{ {build} }}\n\
         }}\n"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (name, read, walk) = match &item {
        Item::Struct { name, fields } => (
            name,
            gen_struct_deserialize(name, fields),
            gen_struct_from_value(name, fields),
        ),
        Item::Enum { name, variants } => (
            name,
            gen_enum_deserialize(name, variants),
            gen_enum_from_value(name, variants),
        ),
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__r: &mut ::serde::Reader<'_>) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n{read}\n}}\n\
             fn from_value(v: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::Error> {{\n{walk}\n}}\n\
         }}\n"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes (`#[...]`, including doc comments) and the
    // visibility qualifier, then find `struct` or `enum`.
    let kind = loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 2; // `#` + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // `pub(crate)` etc.
                    }
                }
            }
            Some(TokenTree::Ident(id)) => {
                let word = id.to_string();
                if word == "struct" || word == "enum" {
                    i += 1;
                    break word;
                }
                panic!("serde derive: unsupported item keyword `{word}`");
            }
            other => panic!("serde derive: unexpected token {other:?}"),
        }
    };

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde derive: expected type name, found {other:?}"),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde derive shim: generic types are not supported (type `{name}`)");
        }
    }

    // Skip a `where` clause if one ever appears before the body.
    if kind == "struct" {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Struct {
                name,
                fields: Fields::Named(parse_named_fields(g.stream())),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Item::Struct {
                name,
                fields: Fields::Tuple(count_tuple_fields(g.stream())),
            },
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Item::Struct {
                name,
                fields: Fields::Unit,
            },
            other => panic!("serde derive: unexpected struct body {other:?}"),
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("serde derive: unexpected enum body {other:?}"),
        }
    }
}

/// Whether a `#[...]` attribute body is `serde(... default ...)`.
fn attr_has_serde_default(attr_body: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = attr_body.into_iter().collect();
    match (tokens.first(), tokens.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g))) if id.to_string() == "serde" => g
            .stream()
            .into_iter()
            .any(|t| matches!(&t, TokenTree::Ident(id) if id.to_string() == "default")),
        _ => false,
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        let mut default = false;
        // Field attributes.
        while let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() != '#' {
                break;
            }
            if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                if attr_has_serde_default(g.stream()) {
                    default = true;
                }
            }
            i += 2;
        }
        // Visibility.
        if let Some(TokenTree::Ident(id)) = tokens.get(i) {
            if id.to_string() == "pub" {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde derive: expected field name, found {other:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde derive: expected ':' after field `{name}`, found {other:?}"),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, default });
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    let mut trailing_comma = false;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                trailing_comma = true;
                continue;
            }
            _ => {}
        }
        trailing_comma = false;
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        // Variant attributes.
        while let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() != '#' {
                break;
            }
            i += 2;
        }
        if i >= tokens.len() {
            break;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde derive: expected variant name, found {other:?}"),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant (`= expr`).
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == '=' {
                i += 1;
                while i < tokens.len() {
                    if let TokenTree::Punct(p) = &tokens[i] {
                        if p.as_char() == ',' {
                            break;
                        }
                    }
                    i += 1;
                }
            }
        }
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == ',' {
                i += 1;
            }
        }
        variants.push((name, fields));
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation: the one-pass path
// ---------------------------------------------------------------------------

/// Statements writing the `&`-expressions `items` as a JSON array.
fn write_array(items: &[String]) -> String {
    let body: String = items
        .iter()
        .enumerate()
        .map(|(i, e)| {
            format!(
                "__w.element({first}); ::serde::Serialize::serialize({e}, __w);",
                first = i == 0
            )
        })
        .collect();
    format!(
        "__w.begin('['); {body} __w.end(']', {empty});",
        empty = items.is_empty()
    )
}

/// Statements writing `(key, &-expression)` members as a JSON object.
fn write_object(members: &[(String, String)]) -> String {
    let body: String = members
        .iter()
        .enumerate()
        .map(|(i, (k, e))| {
            format!(
                "__w.key({first}, \"{k}\"); ::serde::Serialize::serialize({e}, __w);",
                first = i == 0
            )
        })
        .collect();
    format!(
        "__w.begin('{{'); {body} __w.end('}}', {empty});",
        empty = members.is_empty()
    )
}

fn gen_struct_serialize(fields: &Fields) -> String {
    match fields {
        Fields::Unit => "__w.null();".to_string(),
        Fields::Tuple(1) => "::serde::Serialize::serialize(&self.0, __w);".to_string(),
        Fields::Tuple(n) => write_array(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>()),
        Fields::Named(fs) => write_object(
            &fs.iter()
                .map(|f| (f.name.clone(), format!("&self.{}", f.name)))
                .collect::<Vec<_>>(),
        ),
    }
}

fn gen_enum_serialize(name: &str, variants: &[(String, Fields)]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|(v, fields)| {
            let (pattern, payload) = match fields {
                Fields::Unit => return format!("{name}::{v} => __w.str(\"{v}\"),"),
                Fields::Tuple(n) => {
                    let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                    let payload = if *n == 1 {
                        "::serde::Serialize::serialize(__f0, __w);".to_string()
                    } else {
                        write_array(&binds)
                    };
                    (format!("{name}::{v}({})", binds.join(", ")), payload)
                }
                Fields::Named(fs) => {
                    let binds: Vec<String> = fs.iter().map(|f| f.name.clone()).collect();
                    let members: Vec<(String, String)> =
                        binds.iter().map(|b| (b.clone(), b.clone())).collect();
                    (
                        format!("{name}::{v} {{ {} }}", binds.join(", ")),
                        write_object(&members),
                    )
                }
            };
            format!(
                "{pattern} => {{ __w.begin('{{'); __w.key(true, \"{v}\"); {payload} \
                 __w.end('}}', false); }}"
            )
        })
        .collect();
    format!("match self {{\n{}\n}}", arms.join("\n"))
}

/// An expression decoding a JSON array of `n` items into `ctor(..)`,
/// returning early on error.
fn read_tuple(ctor: &str, owner: &str, n: usize) -> String {
    let arity = format!(
        "return ::std::result::Result::Err(::serde::Error::custom(\
         \"wrong tuple arity for {owner}\"))"
    );
    let items: Vec<String> = (0..n)
        .map(|_| {
            format!(
                "if __r.next_element()? {{ ::serde::Deserialize::deserialize(__r)? }} \
                 else {{ {arity} }}"
            )
        })
        .collect();
    format!(
        "{{\n\
             if !__r.begin_array()? {{\n\
                 return ::std::result::Result::Err(::serde::Error::custom(\
                     \"expected array for {owner}\"));\n\
             }}\n\
             let __v = {ctor}({items});\n\
             if __r.next_element()? {{ {arity}; }}\n\
             __v\n\
         }}",
        items = items.join(", ")
    )
}

/// An expression decoding a JSON object into `ctor { .. }`, returning
/// early on error.
fn read_object(ctor: &str, owner: &str, fs: &[Field]) -> String {
    let slots: String = (0..fs.len())
        .map(|i| format!("let mut __f{i} = ::std::option::Option::None;\n"))
        .collect();
    let arms: String = fs
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "\"{n}\" if __f{i}.is_none() => __f{i} = \
                 ::std::option::Option::Some(::serde::Deserialize::deserialize(__r)?),\n",
                n = f.name
            )
        })
        .collect();
    // Keys in declaration order (what `serialize` writes) take the
    // in-order path, one byte comparison each; from the first key that
    // differs, the general loop matches names.
    let in_order: String = fs
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "if !__r.next_key_is({member:?}) {{ break '__in_order; }}\n\
                 __f{i} = ::std::option::Option::Some(::serde::Deserialize::deserialize(__r)?);\n",
                member = format!("\"{}\":", f.name)
            )
        })
        .collect();
    let in_order = if fs.is_empty() {
        in_order
    } else {
        format!("'__in_order: {{\n{in_order}}}\n")
    };
    let inits: Vec<String> = fs
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let missing = if f.default {
                "::std::default::Default::default()".to_string()
            } else {
                format!("::serde::missing_field(\"{}\", \"{owner}\")?", f.name)
            };
            format!(
                "{n}: match __f{i} {{\n\
                     ::std::option::Option::Some(__x) => __x,\n\
                     ::std::option::Option::None => {missing},\n\
                 }}",
                n = f.name
            )
        })
        .collect();
    format!(
        "{{\n\
             if !__r.begin_object()? {{\n\
                 return ::std::result::Result::Err(::serde::Error::custom(\
                     \"expected object for {owner}\"));\n\
             }}\n\
             {slots}{in_order}\
             while let ::std::option::Option::Some(__k) = __r.next_key()? {{\n\
                 match &*__k {{\n\
                     {arms}\
                     _ => __r.skip_value()?,\n\
                 }}\n\
             }}\n\
             {ctor} {{ {inits} }}\n\
         }}",
        inits = inits.join(",\n")
    )
}

fn gen_struct_deserialize(name: &str, fields: &Fields) -> String {
    let value = match fields {
        // A unit struct accepts (and validates) any value.
        Fields::Unit => format!("{{ __r.skip_value()?; {name} }}"),
        Fields::Tuple(1) => format!("{name}(::serde::Deserialize::deserialize(__r)?)"),
        Fields::Tuple(n) => read_tuple(name, name, *n),
        Fields::Named(fs) => read_object(name, name, fs),
    };
    format!("::std::result::Result::Ok({value})")
}

fn gen_enum_deserialize(name: &str, variants: &[(String, Fields)]) -> String {
    let unknown = format!(
        "__other => return ::std::result::Result::Err(::serde::Error::custom(\
         format!(\"unknown {name} variant `{{__other}}`\"))),"
    );
    let not_enum = format!(
        "::std::result::Result::Err(::serde::Error::custom(\
         \"expected string or single-key object for enum {name}\"))"
    );
    let unit_arms: String = variants
        .iter()
        .filter(|(_, f)| matches!(f, Fields::Unit))
        .map(|(v, _)| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),\n"))
        .collect();
    let payload_arms: Vec<String> = variants
        .iter()
        .filter_map(|(v, fields)| {
            let ctor = format!("{name}::{v}");
            let value = match fields {
                Fields::Unit => return None,
                Fields::Tuple(1) => format!("{ctor}(::serde::Deserialize::deserialize(__r)?)"),
                Fields::Tuple(n) => read_tuple(&ctor, &ctor, *n),
                Fields::Named(fs) => read_object(&ctor, &ctor, fs),
            };
            Some(format!("\"{v}\" => {value},\n"))
        })
        .collect();
    // Without payload variants every tag is unknown; the arm stays
    // free of unreachable code.
    let payload = if payload_arms.is_empty() {
        format!("match &*__tag {{ {unknown} }}")
    } else {
        format!(
            "let __v = match &*__tag {{\n{arms}{unknown}\n}};\n\
             if __r.next_key()?.is_some() {{ return {not_enum}; }}\n\
             ::std::result::Result::Ok(__v)",
            arms = payload_arms.concat()
        )
    };
    format!(
        "match __r.variant()? {{\n\
             ::std::option::Option::Some((__tag, false)) => match &*__tag {{\n\
                 {unit_arms}{unknown}\n\
             }},\n\
             ::std::option::Option::Some((__tag, true)) => {{ {payload} }}\n\
             ::std::option::Option::None => {not_enum},\n\
         }}"
    )
}

// ---------------------------------------------------------------------------
// Code generation: the reference path over `Value`
// ---------------------------------------------------------------------------

fn gen_struct_to_value(fields: &Fields) -> String {
    match fields {
        Fields::Unit => "::serde::Value::Null".to_string(),
        Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
        Fields::Named(fs) => {
            let pairs: Vec<String> = fs
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{n}\"), \
                         ::serde::Serialize::to_value(&self.{n}))",
                        n = f.name
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
    }
}

/// The expression rebuilding one named field from object pairs `__obj`.
fn named_field_expr(owner: &str, f: &Field) -> String {
    let missing = if f.default {
        "::std::default::Default::default()".to_string()
    } else {
        format!("::serde::missing_field_value(\"{}\", \"{owner}\")?", f.name)
    };
    format!(
        "{n}: match ::serde::object_get(__obj, \"{n}\") {{\n\
             ::std::option::Option::Some(__x) => ::serde::Deserialize::from_value(__x)?,\n\
             ::std::option::Option::None => {missing},\n\
         }}",
        n = f.name
    )
}

fn gen_struct_from_value(name: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => format!("::std::result::Result::Ok({name})"),
        Fields::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                .collect();
            format!(
                "let __items = v.as_array().ok_or_else(|| \
                 ::serde::Error::custom(\"expected array for {name}\"))?;\n\
                 if __items.len() != {n} {{\n\
                     return ::std::result::Result::Err(::serde::Error::custom(\
                         \"wrong tuple arity for {name}\"));\n\
                 }}\n\
                 ::std::result::Result::Ok({name}({items}))",
                items = items.join(", ")
            )
        }
        Fields::Named(fs) => {
            let fields_src: Vec<String> = fs.iter().map(|f| named_field_expr(name, f)).collect();
            format!(
                "let __obj = v.as_object().ok_or_else(|| \
                 ::serde::Error::custom(\"expected object for {name}\"))?;\n\
                 ::std::result::Result::Ok({name} {{ {} }})",
                fields_src.join(",\n")
            )
        }
    }
}

fn gen_enum_to_value(name: &str, variants: &[(String, Fields)]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|(v, fields)| match fields {
            Fields::Unit => {
                format!("{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),")
            }
            Fields::Tuple(n) => {
                let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                let payload = if *n == 1 {
                    "::serde::Serialize::to_value(__f0)".to_string()
                } else {
                    let items: Vec<String> = binds
                        .iter()
                        .map(|b| format!("::serde::Serialize::to_value({b})"))
                        .collect();
                    format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
                };
                format!(
                    "{name}::{v}({binds}) => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from(\"{v}\"), {payload})]),",
                    binds = binds.join(", ")
                )
            }
            Fields::Named(fs) => {
                let binds: Vec<String> = fs.iter().map(|f| f.name.clone()).collect();
                let pairs: Vec<String> = fs
                    .iter()
                    .map(|f| {
                        format!(
                            "(::std::string::String::from(\"{n}\"), \
                             ::serde::Serialize::to_value({n}))",
                            n = f.name
                        )
                    })
                    .collect();
                format!(
                    "{name}::{v} {{ {binds} }} => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from(\"{v}\"), \
                     ::serde::Value::Object(::std::vec![{pairs}]))]),",
                    binds = binds.join(", "),
                    pairs = pairs.join(", ")
                )
            }
        })
        .collect();
    format!("match self {{\n{}\n}}", arms.join("\n"))
}

fn gen_enum_from_value(name: &str, variants: &[(String, Fields)]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|(_, f)| matches!(f, Fields::Unit))
        .map(|(v, _)| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),"))
        .collect();
    let payload_arms: Vec<String> = variants
        .iter()
        .filter_map(|(v, fields)| match fields {
            Fields::Unit => None,
            Fields::Tuple(1) => Some(format!(
                "\"{v}\" => ::std::result::Result::Ok({name}::{v}(\
                 ::serde::Deserialize::from_value(__val)?)),"
            )),
            Fields::Tuple(n) => {
                let items: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                    .collect();
                Some(format!(
                    "\"{v}\" => {{\n\
                         let __items = __val.as_array().ok_or_else(|| \
                         ::serde::Error::custom(\"expected array for {name}::{v}\"))?;\n\
                         if __items.len() != {n} {{\n\
                             return ::std::result::Result::Err(::serde::Error::custom(\
                                 \"wrong tuple arity for {name}::{v}\"));\n\
                         }}\n\
                         ::std::result::Result::Ok({name}::{v}({items}))\n\
                     }}",
                    items = items.join(", ")
                ))
            }
            Fields::Named(fs) => {
                let owner = format!("{name}::{v}");
                let fields_src: Vec<String> =
                    fs.iter().map(|f| named_field_expr(&owner, f)).collect();
                Some(format!(
                    "\"{v}\" => {{\n\
                         let __obj = __val.as_object().ok_or_else(|| \
                         ::serde::Error::custom(\"expected object for {name}::{v}\"))?;\n\
                         ::std::result::Result::Ok({name}::{v} {{ {} }})\n\
                     }}",
                    fields_src.join(",\n")
                ))
            }
        })
        .collect();
    format!(
        "match v {{\n\
                    ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                        {unit_arms}\n\
                        __other => ::std::result::Result::Err(::serde::Error::custom(\
                            format!(\"unknown {name} variant `{{__other}}`\"))),\n\
                    }},\n\
                    ::serde::Value::Object(__pairs) if __pairs.len() == 1 => {{\n\
                        let (__k, __val) = &__pairs[0];\n\
                        match __k.as_str() {{\n\
                            {payload_arms}\n\
                            __other => ::std::result::Result::Err(::serde::Error::custom(\
                                format!(\"unknown {name} variant `{{__other}}`\"))),\n\
                        }}\n\
                    }}\n\
                    _ => ::std::result::Result::Err(::serde::Error::custom(\
                        \"expected string or single-key object for enum {name}\")),\n\
         }}",
        unit_arms = unit_arms.join("\n"),
        payload_arms = payload_arms.join("\n")
    )
}
