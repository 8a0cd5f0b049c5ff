//! Offline stand-in for `serde_derive`.
//!
//! Generates `Serialize`/`Deserialize` impls for the shimmed `serde` by
//! hand-walking the `proc_macro::TokenStream` (no syn/quote available
//! offline) and emitting code as strings: a `Serialize` impl is a run of
//! calls on `serde::Writer`, a `Deserialize` impl a run of calls on
//! `serde::Reader`. Field *types* are never parsed: the generic reader
//! calls (`Reader::field`, `Reader::element`, `serde::required`) get
//! their `T` from the struct literal or variant constructor they feed.
//!
//! Supported shapes: named/tuple/unit structs, enums with unit /
//! newtype / tuple / struct variants, plain (unbounded) type and
//! lifetime parameters, and the `#[serde(default)]` field attribute.
//! Anything fancier panics with a clear message at expansion time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    default: bool,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum Body {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    /// `<T, 'a>` rendered for the `impl` and the type, plus the bound
    /// list of plain type-parameter idents.
    type_params: Vec<String>,
    lifetimes: Vec<String>,
    body: Body,
}

/// True when an attribute token pair (`#`, `[...]`) is `#[serde(default)]`.
fn attr_is_serde_default(group: &proc_macro::Group) -> bool {
    let mut it = group.stream().into_iter();
    match it.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return false,
    }
    match it.next() {
        Some(TokenTree::Group(inner)) => inner
            .stream()
            .into_iter()
            .any(|t| matches!(&t, TokenTree::Ident(id) if id.to_string() == "default")),
        _ => false,
    }
}

/// Consumes leading attributes from `toks[*i]`, reporting whether any
/// was `#[serde(default)]`.
fn skip_attrs(toks: &[TokenTree], i: &mut usize) -> bool {
    let mut has_default = false;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = toks.get(*i + 1) {
                    if attr_is_serde_default(g) {
                        has_default = true;
                    }
                    *i += 2;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    has_default
}

/// Consumes an optional visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(toks: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = toks.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Parses `<...>` generics at `toks[*i]` (if present) into lifetime and
/// type-parameter name lists. Bounds and defaults are rejected — the
/// workspace only derives on plain parameters.
fn parse_generics(toks: &[TokenTree], i: &mut usize) -> (Vec<String>, Vec<String>) {
    let mut lifetimes = Vec::new();
    let mut params = Vec::new();
    let open = matches!(&toks.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '<');
    if !open {
        return (lifetimes, params);
    }
    *i += 1;
    let mut depth = 1usize;
    let mut current: Vec<TokenTree> = Vec::new();
    let mut flush = |current: &mut Vec<TokenTree>| {
        if current.is_empty() {
            return;
        }
        match &current[0] {
            TokenTree::Punct(p) if p.as_char() == '\'' => {
                let life = current
                    .get(1)
                    .map(|t| format!("'{t}"))
                    .expect("serde_derive shim: dangling lifetime quote");
                assert!(current.len() == 2, "serde_derive shim: lifetime bounds unsupported");
                lifetimes.push(life);
            }
            TokenTree::Ident(id) => {
                assert!(
                    current.len() == 1,
                    "serde_derive shim: bounded/defaulted type parameters unsupported \
                     (move bounds to impl blocks)"
                );
                params.push(id.to_string());
            }
            other => panic!("serde_derive shim: unsupported generic parameter start: {other}"),
        }
        current.clear();
    };
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                current.push(toks[*i].clone());
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    break;
                }
                current.push(toks[*i].clone());
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => flush(&mut current),
            t => current.push(t.clone()),
        }
        *i += 1;
    }
    flush(&mut current);
    (lifetimes, params)
}

/// Parses the fields of a named-field brace group.
fn parse_named_fields(group: &proc_macro::Group) -> Vec<Field> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut i = 0usize;
    let mut fields = Vec::new();
    while i < toks.len() {
        let default = skip_attrs(&toks, &mut i);
        skip_vis(&toks, &mut i);
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => panic!("serde_derive shim: expected field name, found {other}"),
        };
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive shim: expected ':' after field `{name}`, got {other:?}"),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0usize;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' && depth > 0 => depth -= 1,
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

/// Counts the fields of a tuple group `( ... )`.
fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut depth = 0usize;
    let mut count = 1usize;
    let mut last_was_comma = false;
    for t in &toks {
        last_was_comma = false;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' && depth > 0 => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                last_was_comma = true;
            }
            _ => {}
        }
    }
    if last_was_comma {
        count -= 1; // trailing comma
    }
    count
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut i = 0usize;
    let mut variants = Vec::new();
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => panic!("serde_derive shim: expected variant name, found {other}"),
        };
        i += 1;
        let shape = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_tuple_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Struct(parse_named_fields(g))
            }
            _ => VariantShape::Unit,
        };
        // Skip an optional discriminant and the trailing comma.
        while i < toks.len() {
            if let TokenTree::Punct(p) = &toks[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn parse_input(input: TokenStream) -> Input {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;
    skip_attrs(&toks, &mut i);
    skip_vis(&toks, &mut i);
    let kind = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected struct/enum, found {other:?}"),
    };
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, found {other:?}"),
    };
    i += 1;
    let (lifetimes, type_params) = parse_generics(&toks, &mut i);
    if let Some(TokenTree::Ident(id)) = toks.get(i) {
        assert!(id.to_string() != "where", "serde_derive shim: where clauses unsupported");
    }
    let body = match kind.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::NamedStruct(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::TupleStruct(count_tuple_fields(g))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
            other => panic!("serde_derive shim: unsupported struct body: {other:?}"),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g))
            }
            other => panic!("serde_derive shim: expected enum body, found {other:?}"),
        },
        other => panic!("serde_derive shim: cannot derive for `{other}`"),
    };
    Input { name, type_params, lifetimes, body }
}

impl Input {
    /// `impl<'a, T: bound>` generics and the `Name<'a, T>` type suffix.
    fn generics(&self, bound: &str) -> (String, String) {
        if self.lifetimes.is_empty() && self.type_params.is_empty() {
            return (String::new(), String::new());
        }
        let mut impl_parts: Vec<String> = self.lifetimes.clone();
        let mut ty_parts: Vec<String> = self.lifetimes.clone();
        for p in &self.type_params {
            impl_parts.push(format!("{p}: {bound}"));
            ty_parts.push(p.clone());
        }
        (format!("<{}>", impl_parts.join(", ")), format!("<{}>", ty_parts.join(", ")))
    }
}

/// Statements writing `fields` as an object; `access` turns a field name
/// into an expression borrowing its value.
fn write_object(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let entries: String = fields
        .iter()
        .map(|f| format!("__w.field(\"{n}\", {a});", n = f.name, a = access(&f.name)))
        .collect();
    format!("__w.begin('{{'); {entries} __w.end('}}');")
}

/// Statements writing the borrowed `items` as an array.
fn write_array(items: &[String]) -> String {
    let items: String = items.iter().map(|item| format!("__w.item({item});")).collect();
    format!("__w.begin('['); {items} __w.end(']');")
}

/// Wraps a variant's payload statements in `{"variant": ...}`.
fn write_tagged(variant: &str, payload: &str) -> String {
    format!("__w.begin('{{'); __w.key(\"{variant}\"); {payload} __w.end('}}');")
}

fn gen_serialize(input: &Input) -> String {
    let (impl_g, ty_g) = input.generics("::serde::Serialize");
    let name = &input.name;
    let body = match &input.body {
        Body::NamedStruct(fields) => write_object(fields, |n| format!("&self.{n}")),
        Body::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __w);".to_string(),
        Body::TupleStruct(n) => {
            let items: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            write_array(&items)
        }
        Body::UnitStruct => "__w.null();".to_string(),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => format!("Self::{vn} => __w.str(\"{vn}\"),"),
                        VariantShape::Tuple(1) => {
                            let payload = "::serde::Serialize::serialize(__f0, __w);";
                            format!("Self::{vn}(__f0) => {{ {} }}", write_tagged(vn, payload))
                        }
                        VariantShape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            let payload = write_array(&binds);
                            let binds = binds.join(", ");
                            format!("Self::{vn}({binds}) => {{ {} }}", write_tagged(vn, &payload))
                        }
                        VariantShape::Struct(fields) => {
                            let payload = write_object(fields, str::to_string);
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            let binds = binds.join(", ");
                            format!("Self::{vn} {{ {binds} }} => {{ {} }}", write_tagged(vn, &payload))
                        }
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl{impl_g} ::serde::Serialize for {name}{ty_g} {{\n\
             fn serialize(&self, __w: &mut ::serde::Writer) {{ {body} }}\n\
         }}"
    )
}

/// A block reading an object into `fields` and evaluating to
/// `ctor { ... }`: fields in any order, the first of a repeated key kept,
/// unknown keys skipped, `#[serde(default)]` fields optional. `ty` names
/// the type in a missing-field error.
fn read_object(fields: &[Field], ctor: &str, ty: &str) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = Vec::new();
    for (i, f) in fields.iter().enumerate() {
        let n = &f.name;
        slots.push_str(&format!("let mut __f{i} = ::core::option::Option::None;"));
        arms.push_str(&format!("\"{n}\" => __r.field(&mut __f{i})?,"));
        inits.push(if f.default {
            format!("{n}: __f{i}.unwrap_or_default()")
        } else {
            format!("{n}: ::serde::required(__f{i}, \"{ty}\", \"{n}\")?")
        });
    }
    format!(
        "{{ {slots} let mut __more = __r.begin(b'{{')?; \
         while __more {{ match &*__r.key()? {{ {arms} _ => __r.skip()?, }} \
         __more = __r.more(b'}}')?; }} \
         {ctor} {{ {} }} }}",
        inits.join(", ")
    )
}

/// A block reading an array of `n` elements into `ctor(...)`; elements
/// past `n` are skipped.
fn read_tuple(n: usize, ctor: &str) -> String {
    let items = vec!["__r.element(&mut __more)?"; n].join(", ");
    format!(
        "{{ let mut __more = __r.begin(b'[')?; let __v = {ctor}({items}); \
         __r.end_tuple(__more)?; __v }}"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let (impl_g, ty_g) = input.generics("::serde::Deserialize");
    let name = &input.name;
    let body = match &input.body {
        Body::NamedStruct(fields) => read_object(fields, "Self", name),
        Body::TupleStruct(1) => "Self(::serde::Deserialize::deserialize(__r)?)".to_string(),
        Body::TupleStruct(n) => read_tuple(*n, "Self"),
        // A unit struct reads from any value, as it always has.
        Body::UnitStruct => "{ __r.skip()?; Self }".to_string(),
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let ctor = format!("Self::{vn}");
                    match &v.shape {
                        // A unit variant's tag may carry any payload, unread.
                        VariantShape::Unit => format!(
                            "(\"{vn}\", _) => {{ if __payload {{ __r.skip()?; }} {ctor} }}"
                        ),
                        VariantShape::Tuple(1) => format!(
                            "(\"{vn}\", true) => {ctor}(::serde::Deserialize::deserialize(__r)?),"
                        ),
                        VariantShape::Tuple(n) => {
                            format!("(\"{vn}\", true) => {},", read_tuple(*n, &ctor))
                        }
                        VariantShape::Struct(fields) => {
                            let read = read_object(fields, &ctor, &format!("{name}::{vn}"));
                            format!("(\"{vn}\", true) => {read},")
                        }
                    }
                })
                .collect();
            format!(
                "let (__tag, __payload) = __r.variant()?;\n\
                 let __value = match (&*__tag, __payload) {{\n\
                     {arms}\n\
                     _ => return ::core::result::Result::Err(__r.err(::core::format_args!(\
                        \"unknown or malformed variant `{{}}` for {name}\", __tag))),\n\
                 }};\n\
                 if __payload {{ __r.end_variant()?; }}\n\
                 __value"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl{impl_g} ::serde::Deserialize for {name}{ty_g} {{\n\
             fn deserialize(__r: &mut ::serde::Reader<'_>) \
             -> ::core::result::Result<Self, ::serde::Error> \
             {{ ::core::result::Result::Ok({{ {body} }}) }}\n\
         }}"
    )
}

/// Derives the shimmed `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed).parse().expect("serde_derive shim: generated invalid Serialize impl")
}

/// Derives the shimmed `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("serde_derive shim: generated invalid Deserialize impl")
}
