//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against the
//! workspace's `serde` stub (whose data model is an explicit `Value` tree).
//! Because crates.io is unreachable, the input is parsed directly from the
//! `proc_macro` token stream — no `syn`, no `quote`. Supported shapes are the
//! ones this workspace derives on:
//!
//! * structs with named fields (any visibility),
//! * enums with unit variants and struct variants.
//!
//! Two field attributes are honoured: `#[serde(skip)]` (not written,
//! `Default::default()` on read) and `#[serde(skip_serializing_if = "path")]`
//! (not written when `path(&field)` is true — in practice
//! `"Option::is_none"`). As in upstream serde, a field whose type is written
//! `Option<...>` may be absent on read and then decodes as `None`; without
//! the attribute a `None` is still written as `null`.
//!
//! Generics, tuple structs and tuple variants are rejected with a clear
//! compile-time panic rather than silently mis-serialized.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field.
struct Field {
    name: String,
    attrs: FieldAttrs,
    /// The type is spelled `Option<...>`: the key may be absent on read.
    optional: bool,
}

/// One parsed enum variant: unit (`fields == None`) or struct-like.
struct Variant {
    name: String,
    fields: Option<Vec<Field>>,
}

/// The item a derive was placed on.
enum Item {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// What the `#[serde(...)]` attributes in front of a field asked for.
#[derive(Default)]
struct FieldAttrs {
    /// `skip` was present.
    skip: bool,
    /// The predicate path of `skip_serializing_if = "path"`.
    skip_serializing_if: Option<String>,
}

impl FieldAttrs {
    /// Fold in one attribute body (the tokens inside `#[...]`); anything
    /// but `serde(...)` is someone else's.
    fn absorb(&mut self, body: &[TokenTree]) {
        let [TokenTree::Ident(tag), TokenTree::Group(args)] = body else {
            return;
        };
        if tag.to_string() != "serde" {
            return;
        }
        let args: Vec<String> = args.stream().into_iter().map(|t| t.to_string()).collect();
        self.skip |= args.iter().any(|arg| arg == "skip");
        if let Some(key) = args.iter().position(|arg| arg == "skip_serializing_if") {
            match &args[key + 1..] {
                [eq, path, ..] if eq == "=" && path.starts_with('"') => {
                    self.skip_serializing_if = Some(path.trim_matches('"').to_string());
                }
                _ => panic!("serde_derive stub: expected `skip_serializing_if = \"path\"`"),
            }
        }
    }
}

/// Skip leading attributes, collecting what the `#[serde(...)]` ones say.
fn skip_attributes(tokens: &[TokenTree], mut pos: usize) -> (usize, FieldAttrs) {
    let mut attrs = FieldAttrs::default();
    while pos + 1 < tokens.len() {
        match (&tokens[pos], &tokens[pos + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                attrs.absorb(&body);
                pos += 2;
            }
            _ => break,
        }
    }
    (pos, attrs)
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_visibility(tokens: &[TokenTree], mut pos: usize) -> usize {
    if matches!(&tokens[pos..], [TokenTree::Ident(i), ..] if i.to_string() == "pub") {
        pos += 1;
        if matches!(&tokens[pos..], [TokenTree::Group(g), ..] if g.delimiter() == Delimiter::Parenthesis)
        {
            pos += 1;
        }
    }
    pos
}

/// Split the tokens of a brace-group body at top-level commas. Parenthesised
/// and bracketed sub-trees arrive pre-grouped, so only `<...>` nesting needs
/// explicit depth tracking.
fn split_top_level(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0usize;
    for token in tokens {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => {
                    out.push(std::mem::take(&mut current));
                    continue;
                }
                _ => {}
            }
        }
        current.push(token);
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Parse the named fields of a struct or struct variant body.
fn parse_named_fields(body: TokenStream, context: &str) -> Vec<Field> {
    let mut fields = Vec::new();
    for chunk in split_top_level(body.into_iter().collect()) {
        let (pos, attrs) = skip_attributes(&chunk, 0);
        let pos = skip_visibility(&chunk, pos);
        match &chunk[pos..] {
            [TokenTree::Ident(name), TokenTree::Punct(colon), ty @ ..]
                if colon.as_char() == ':' =>
            {
                fields.push(Field {
                    name: name.to_string(),
                    attrs,
                    optional: matches!(ty, [TokenTree::Ident(head), ..] if head.to_string() == "Option"),
                });
            }
            _ => panic!("serde_derive stub: {context} must use named `ident: Type` fields"),
        }
    }
    fields
}

/// Parse the variants of an enum body.
fn parse_variants(body: TokenStream, enum_name: &str) -> Vec<Variant> {
    let mut variants = Vec::new();
    for chunk in split_top_level(body.into_iter().collect()) {
        let (pos, _) = skip_attributes(&chunk, 0);
        match &chunk[pos..] {
            [TokenTree::Ident(name)] => {
                variants.push(Variant {
                    name: name.to_string(),
                    fields: None,
                });
            }
            [TokenTree::Ident(name), TokenTree::Group(g)] if g.delimiter() == Delimiter::Brace => {
                let context = format!("{enum_name}::{name}");
                variants.push(Variant {
                    name: name.to_string(),
                    fields: Some(parse_named_fields(g.stream(), &context)),
                });
            }
            _ => panic!(
                "serde_derive stub: enum {enum_name} may only contain unit or struct variants"
            ),
        }
    }
    variants
}

/// Parse the whole derive input into an [`Item`].
fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (pos, _) = skip_attributes(&tokens, 0);
    let pos = skip_visibility(&tokens, pos);
    match &tokens[pos..] {
        [TokenTree::Ident(kw), TokenTree::Ident(name), TokenTree::Group(body), ..]
            if body.delimiter() == Delimiter::Brace =>
        {
            let name = name.to_string();
            match kw.to_string().as_str() {
                "struct" => {
                    Item::Struct { fields: parse_named_fields(body.stream(), &name), name }
                }
                "enum" => Item::Enum { variants: parse_variants(body.stream(), &name), name },
                other => panic!("serde_derive stub: cannot derive on `{other}` items"),
            }
        }
        _ => panic!(
            "serde_derive stub: expected a non-generic `struct Name {{ ... }}` or `enum Name {{ ... }}`"
        ),
    }
}

/// The statement that appends field `f` (reachable by reference as
/// `{access}`) to the `Vec` named `{target}`, guarded by its
/// `skip_serializing_if` predicate when it has one.
fn field_push(f: &Field, target: &str, access: &str) -> String {
    let fname = &f.name;
    let push = format!(
        "{target}.push((\"{fname}\".to_string(), ::serde::Serialize::to_value({access})));\n"
    );
    match &f.attrs.skip_serializing_if {
        Some(predicate) => format!("if !{predicate}({access}) {{ {push} }}\n"),
        None => push,
    }
}

fn serialize_impl(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let mut pushes = String::new();
            for f in fields.iter().filter(|f| !f.attrs.skip) {
                let fname = &f.name;
                pushes.push_str(&field_push(f, "fields", &format!("&self.{fname}")));
            }
            format!(
                "#[automatically_derived]\n\
                 #[allow(warnings, clippy::all)]\n\
                 impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         let mut fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                         {pushes}\
                         ::serde::Value::Object(fields)\n\
                     }}\n\
                 }}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    None => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Value::String(\"{vname}\".to_string()),\n"
                    )),
                    Some(fields) => {
                        let bindings: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let pattern = bindings.join(", ");
                        let mut pushes = String::new();
                        for f in fields.iter().filter(|f| !f.attrs.skip) {
                            pushes.push_str(&field_push(f, "inner", &f.name));
                        }
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {pattern} }} => {{\n\
                                 let mut inner: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                                 {pushes}\
                                 ::serde::Value::Object(::std::vec![(\"{vname}\".to_string(), ::serde::Value::Object(inner))])\n\
                             }}\n"
                        ));
                    }
                }
            }
            format!(
                "#[automatically_derived]\n\
                 #[allow(warnings, clippy::all)]\n\
                 impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{arms}}}\n\
                     }}\n\
                 }}\n"
            )
        }
    }
}

/// The `field: ...` initializers for building a struct (or struct variant)
/// back out of a `Value` named `{source}`.
fn field_initializers(fields: &[Field], context: &str, source: &str) -> String {
    let mut out = String::new();
    for f in fields {
        let fname = &f.name;
        if f.attrs.skip {
            out.push_str(&format!("{fname}: Default::default(),\n"));
        } else if f.optional {
            out.push_str(&format!(
                "{fname}: match {source}.get(\"{fname}\") {{ Some(v) => ::serde::Deserialize::from_value(v)?, None => None }},\n"
            ));
        } else {
            out.push_str(&format!(
                "{fname}: ::serde::Deserialize::from_value({source}.get(\"{fname}\").ok_or_else(|| ::serde::Error::custom(\"missing field `{fname}` in {context}\"))?)?,\n"
            ));
        }
    }
    out
}

fn deserialize_impl(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let inits = field_initializers(fields, name, "value");
            format!(
                "#[automatically_derived]\n\
                 #[allow(warnings, clippy::all)]\n\
                 impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         if value.as_object().is_none() {{\n\
                             return Err(::serde::Error::mismatch(\"object\", value));\n\
                         }}\n\
                         Ok({name} {{\n{inits}}})\n\
                     }}\n\
                 }}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut struct_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    None => unit_arms.push_str(&format!("\"{vname}\" => Ok({name}::{vname}),\n")),
                    Some(fields) => {
                        let context = format!("{name}::{vname}");
                        let inits = field_initializers(fields, &context, "inner");
                        struct_arms.push_str(&format!(
                            "\"{vname}\" => Ok({name}::{vname} {{\n{inits}}}),\n"
                        ));
                    }
                }
            }
            format!(
                "#[automatically_derived]\n\
                 #[allow(warnings, clippy::all)]\n\
                 impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         match value {{\n\
                             ::serde::Value::String(tag) => match tag.as_str() {{\n\
                                 {unit_arms}\
                                 other => Err(::serde::Error::custom(format!(\"unknown variant `{{other}}` of {name}\"))),\n\
                             }},\n\
                             ::serde::Value::Object(entries) if entries.len() == 1 => {{\n\
                                 let (tag, _inner) = &entries[0];\n\
                                 let inner = _inner;\n\
                                 let _ = inner;\n\
                                 match tag.as_str() {{\n\
                                     {struct_arms}\
                                     other => Err(::serde::Error::custom(format!(\"unknown variant `{{other}}` of {name}\"))),\n\
                                 }}\n\
                             }}\n\
                             other => Err(::serde::Error::mismatch(\"enum tag\", other)),\n\
                         }}\n\
                     }}\n\
                 }}\n"
            )
        }
    }
}

/// `#[derive(Serialize)]` against the workspace's `serde` stub.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    serialize_impl(&item)
        .parse()
        .expect("serde_derive stub: generated Serialize impl parses")
}

/// `#[derive(Deserialize)]` against the workspace's `serde` stub.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    deserialize_impl(&item)
        .parse()
        .expect("serde_derive stub: generated Deserialize impl parses")
}
