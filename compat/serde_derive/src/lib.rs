//! In-tree stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` against the
//! JSON-only serde shim in `compat/serde`, with no dependency on `syn` or
//! `quote` (neither is available offline): the item is parsed directly from
//! the `proc_macro::TokenStream` and the impl is emitted as a source string.
//! A derived `Serialize` appends the item's JSON text field by field; a
//! derived `Deserialize` reads an object's entries off the cursor into one
//! slot per field (the first occurrence of a key wins, unknown keys are
//! parsed and dropped, a missing field is an error naming it).
//!
//! Supported shapes — the ones this workspace uses:
//! - structs with named fields;
//! - enums with unit, newtype, and struct variants (externally tagged,
//!   like upstream serde's default).
//!
//! The one field attribute is `#[serde(default)]`: a missing field takes
//! its type's `Default` instead of being an error. Not supported: tuple and
//! unit structs, tuple variants of more than one field, generic types,
//! lifetimes, unions, and any other `#[serde(...)]` attribute.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of the deriving item.
struct Item {
    name: String,
    body: Body,
}

enum Body {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    /// `#[serde(default)]`: absent means `Default::default()`.
    default: bool,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated Serialize impl failed to parse")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated Deserialize impl failed to parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);

    let keyword = expect_ident(&toks, &mut i);
    let name = expect_ident(&toks, &mut i);
    if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }

    let body = match (keyword.as_str(), toks.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(parse_named_fields(g.stream()))
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Enum(parse_variants(g.stream()))
        }
        _ => panic!("serde_derive shim: `{name}` is not a struct with named fields or an enum"),
    };
    Item { name, body }
}

/// Advances past any `#[...]` attributes and a `pub` / `pub(...)`
/// visibility; returns whether one of the attributes was
/// `#[serde(default)]`.
fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) -> bool {
    let mut default = false;
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if let Some(TokenTree::Group(g)) = toks.get(*i) {
                    default |= is_serde_default(g.stream());
                    *i += 1; // the [...] group
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(
                    toks.get(*i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *i += 1; // pub(crate) etc.
                }
            }
            _ => return default,
        }
    }
}

/// Whether an attribute's `[...]` contents are `serde(default)`; any
/// other `serde(...)` attribute is refused rather than ignored.
fn is_serde_default(attr: TokenStream) -> bool {
    let toks: Vec<TokenTree> = attr.into_iter().collect();
    match toks.as_slice() {
        [TokenTree::Ident(id), TokenTree::Group(args)] if id.to_string() == "serde" => {
            let args = args.stream().to_string();
            assert!(
                args == "default",
                "serde_derive shim: unsupported attribute `serde({args})`"
            );
            true
        }
        _ => false,
    }
}

fn expect_ident(toks: &[TokenTree], i: &mut usize) -> String {
    match toks.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde_derive shim: expected identifier, found {other:?}"),
    }
}

/// Parses `a: TypeA, b: TypeB, ...` returning the fields. Commas inside
/// angle brackets (`BTreeMap<String, Tensor>`) do not split fields; commas
/// inside `(...)`/`[...]` arrive as opaque groups and need no tracking.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < toks.len() {
        let default = skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = expect_ident(&toks, &mut i);
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                panic!("serde_derive shim: expected `:` after field `{name}`, found {other:?}")
            }
        }
        let mut angle_depth = 0i32;
        while let Some(t) = toks.get(i) {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        i += 1; // consume the comma (or run off the end)
        fields.push(Field { name, default });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = expect_ident(&toks, &mut i);
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Newtype
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant (`= expr`) and the separating comma.
        while let Some(t) = toks.get(i) {
            i += 1;
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant { name, kind });
    }
    variants
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

/// `text` as a Rust string literal.
fn lit(text: &str) -> String {
    format!("{text:?}")
}

/// Statements writing `{"a":<a>,"b":<b>}` to `__out`, each field's value
/// being the expression `value(name)`.
fn ser_fields(fields: &[Field], value: impl Fn(&str) -> String) -> String {
    if fields.is_empty() {
        return "__out.push_str(\"{}\");".to_string();
    }
    let mut code = String::new();
    for (k, f) in fields.iter().enumerate() {
        let open = if k == 0 { '{' } else { ',' };
        code += &format!(
            "__out.push_str({}); ::serde::Serialize::serialize({}, __out);\n",
            lit(&format!("{open}\"{}\":", f.name)),
            value(&f.name)
        );
    }
    code + "__out.push('}');"
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => ser_fields(fields, |f| format!("&self.{f}")),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "{name}::{vname} => __out.push_str({}),",
                            lit(&format!("\"{vname}\""))
                        ),
                        VariantKind::Newtype => format!(
                            "{name}::{vname}(inner) => {{ __out.push_str({}); \
                             ::serde::Serialize::serialize(inner, __out); __out.push('}}'); }}",
                            lit(&format!("{{\"{vname}\":"))
                        ),
                        VariantKind::Struct(fields) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vname} {{ {} }} => {{ __out.push_str({}); {} __out.push('}}'); }}",
                                binds.join(", "),
                                lit(&format!("{{\"{vname}\":")),
                                ser_fields(fields, str::to_string)
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join("\n"))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, __out: &mut ::std::string::String) {{ {body} }}\n\
         }}"
    )
}

/// An expression of type `ctor`'s struct that reads an object of `fields`
/// off `de` (errors leave by `?` / `return`); `what` names it in errors.
fn de_fields(ctor: &str, what: &str, fields: &[Field]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = Vec::new();
    for (k, f) in fields.iter().enumerate() {
        let key = lit(&f.name);
        slots += &format!("let mut __f{k} = ::std::option::Option::None;\n");
        arms += &format!(
            "{key} if __f{k}.is_none() => __f{k} = \
             ::std::option::Option::Some(::serde::Deserialize::deserialize(de)?),\n"
        );
        let absent = if f.default {
            "::std::default::Default::default()".to_string()
        } else {
            format!("return ::std::result::Result::Err(::serde::__private::missing_field({key}))")
        };
        inits.push(format!(
            "{}: match __f{k} {{ ::std::option::Option::Some(v) => v, \
             ::std::option::Option::None => {absent} }}",
            f.name
        ));
    }
    format!(
        "{{\n{slots}\
         de.object({}, |de, key| {{\n\
             match key {{\n{arms} _ => de.skip_value()?,\n}}\n\
             ::std::result::Result::Ok(())\n\
         }})?;\n\
         {ctor} {{ {} }}\n\
         }}",
        lit(what),
        inits.join(",\n")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => format!(
            "::std::result::Result::Ok({})",
            de_fields(name, &format!("struct {name}"), fields)
        ),
        Body::Enum(variants) => {
            let unknown = format!(
                "::std::result::Result::Err(::serde::__private::unknown_variant(other, {}))",
                lit(name)
            );
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                let tag = lit(vname);
                match &v.kind {
                    VariantKind::Unit => {
                        unit_arms +=
                            &format!("{tag} => ::std::result::Result::Ok({name}::{vname}),\n")
                    }
                    VariantKind::Newtype => {
                        tagged_arms += &format!(
                            "{tag} => {name}::{vname}(::serde::Deserialize::deserialize(de)?),\n"
                        )
                    }
                    VariantKind::Struct(fields) => {
                        tagged_arms += &format!(
                            "{tag} => {},\n",
                            de_fields(
                                &format!("{name}::{vname}"),
                                &format!("variant {name}::{vname}"),
                                fields
                            )
                        )
                    }
                }
            }
            let what = lit(&format!("enum {name}"));
            format!(
                "match de.variant({what})? {{\n\
                     ::serde::Variant::Unit(tag) => match &*tag {{\n\
                         {unit_arms} other => {unknown},\n\
                     }},\n\
                     ::serde::Variant::Tagged(tag) => {{\n\
                         let value = match &*tag {{\n\
                             {tagged_arms} other => return {unknown},\n\
                         }};\n\
                         de.end_variant({what})?;\n\
                         ::std::result::Result::Ok(value)\n\
                     }}\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             #[allow(unreachable_code)]\n\
             fn deserialize(de: &mut ::serde::Deserializer<'_>) \
                 -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}
