//! Minimal `#[derive(Serialize)]` for the vendored serde shim.
//!
//! Hand-rolled token parsing (no `syn`/`quote` available offline). Supports
//! the two shapes the workspace uses: structs with named fields and enums
//! with unit variants. Generics are not supported. Struct fields accept two
//! of serde's field attributes:
//!
//! * `#[serde(skip_serializing_if = "path")]` omits the field when
//!   `path(&field)` is true;
//! * `#[serde(flatten)]` splices the field's object entries into the
//!   enclosing object (a `None` option contributes nothing).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (kind, name, body) = parse_item(input);
    let code = match kind.as_str() {
        "struct" => derive_struct(&name, body),
        "enum" => derive_enum(&name, body),
        _ => panic!("derive(Serialize): unsupported item kind {kind}"),
    };
    code.parse()
        .expect("derive(Serialize): generated code parses")
}

/// Find `struct`/`enum`, the type name, and the `{ ... }` body, skipping
/// attributes and visibility.
fn parse_item(input: TokenStream) -> (String, String, TokenStream) {
    let mut iter = input.into_iter();
    while let Some(tt) = iter.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                let _ = iter.next(); // the attribute group
            }
            TokenTree::Ident(id) => {
                let kw = id.to_string();
                if kw == "struct" || kw == "enum" {
                    let name = match iter.next() {
                        Some(TokenTree::Ident(n)) => n.to_string(),
                        other => panic!("derive(Serialize): expected type name, got {other:?}"),
                    };
                    for tt2 in iter.by_ref() {
                        match tt2 {
                            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                                return (kw, name, g.stream());
                            }
                            TokenTree::Punct(p) if p.as_char() == ';' => {
                                panic!("derive(Serialize): tuple/unit structs unsupported");
                            }
                            TokenTree::Punct(p) if p.as_char() == '<' => {
                                panic!("derive(Serialize): generics unsupported");
                            }
                            _ => {}
                        }
                    }
                    panic!("derive(Serialize): missing body for {name}");
                }
                // `pub`, `pub(crate)` etc. fall through.
            }
            _ => {}
        }
    }
    panic!("derive(Serialize): no struct or enum found");
}

/// A named struct field and its `#[serde(...)]` options.
struct Field {
    name: String,
    skip_if: Option<String>,
    flatten: bool,
}

/// Extract named fields from a struct body, reading `#[serde(...)]`
/// attributes and skipping other attributes, visibility, and type tokens
/// (tracking `<`/`>` depth so commas inside generic arguments don't split
/// fields).
fn struct_fields(body: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let (mut skip_if, mut flatten) = (None, false);
    let mut iter = body.into_iter().peekable();
    'outer: while let Some(tt) = iter.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = iter.next() {
                    serde_attr(g.stream(), &mut skip_if, &mut flatten);
                }
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                // Skip a following `(crate)`-style restriction, if any.
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        let _ = iter.next();
                    }
                }
            }
            TokenTree::Ident(id) => {
                fields.push(Field {
                    name: id.to_string(),
                    skip_if: skip_if.take(),
                    flatten: std::mem::take(&mut flatten),
                });
                // Consume `: Type` up to the next top-level comma.
                let mut angle = 0i32;
                for tt2 in iter.by_ref() {
                    if let TokenTree::Punct(p) = tt2 {
                        match p.as_char() {
                            '<' => angle += 1,
                            '>' => angle -= 1,
                            ',' if angle == 0 => continue 'outer,
                            _ => {}
                        }
                    }
                }
                break;
            }
            _ => {}
        }
    }
    fields
}

/// Read the options of one field attribute (the tokens inside `#[...]`);
/// anything but `serde(...)` (doc comments, lints) is ignored.
fn serde_attr(attr: TokenStream, skip_if: &mut Option<String>, flatten: &mut bool) {
    let mut iter = attr.into_iter();
    let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) = (iter.next(), iter.next())
    else {
        return;
    };
    if id.to_string() != "serde" {
        return;
    }
    let mut args = args.stream().into_iter();
    while let Some(tt) = args.next() {
        match tt.to_string().as_str() {
            "flatten" => *flatten = true,
            "skip_serializing_if" => {
                // `= "path"`: skip the `=`, unquote the literal.
                let lit = args.nth(1).map(|lit| lit.to_string()).unwrap_or_default();
                let path = lit.strip_prefix('"').and_then(|p| p.strip_suffix('"'));
                *skip_if = Some(path.expect("skip_serializing_if = \"path\"").to_string());
            }
            "," => {}
            other => panic!("derive(Serialize): unsupported serde attribute {other}"),
        }
    }
}

fn derive_struct(name: &str, body: TokenStream) -> String {
    let fields = struct_fields(body);
    let pushes: Vec<String> = fields
        .iter()
        .map(|field| {
            let f = &field.name;
            let value = format!("serde::Serialize::to_value(&self.{f})");
            let push = if field.flatten {
                format!("if let serde::Value::Object(inner) = {value} {{ fields.extend(inner); }}")
            } else {
                format!("fields.push((::std::string::String::from(\"{f}\"), {value}));")
            };
            match &field.skip_if {
                Some(path) => format!("if !{path}(&self.{f}) {{ {push} }}"),
                None => push,
            }
        })
        .collect();
    format!(
        "impl serde::Serialize for {name} {{\n\
         \tfn to_value(&self) -> serde::Value {{\n\
         \t\tlet mut fields = ::std::vec::Vec::with_capacity({});\n\
         \t\t{}\n\
         \t\tserde::Value::Object(fields)\n\
         \t}}\n\
         }}",
        fields.len(),
        pushes.join("\n\t\t")
    )
}

/// Extract unit-variant names from an enum body.
fn enum_variants(body: TokenStream) -> Vec<String> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter();
    let mut expect_name = true;
    while let Some(tt) = iter.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                let _ = iter.next();
            }
            TokenTree::Ident(id) if expect_name => {
                variants.push(id.to_string());
                expect_name = false;
            }
            TokenTree::Group(_) => {
                panic!("derive(Serialize): enum variants with payloads unsupported");
            }
            TokenTree::Punct(p) if p.as_char() == ',' => expect_name = true,
            _ => {}
        }
    }
    variants
}

fn derive_enum(name: &str, body: TokenStream) -> String {
    let variants = enum_variants(body);
    let arms: Vec<String> = variants
        .iter()
        .map(|v| format!("{name}::{v} => serde::Value::Str(::std::string::String::from(\"{v}\"))"))
        .collect();
    format!(
        "impl serde::Serialize for {name} {{\n\
         \tfn to_value(&self) -> serde::Value {{\n\
         \t\tmatch self {{ {} }}\n\
         \t}}\n\
         }}",
        arms.join(", ")
    )
}
