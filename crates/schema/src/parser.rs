//! A small `.proto` (proto2) text parser.
//!
//! Supports the subset of the proto2 language the paper's workloads exercise:
//! `syntax`/`package`/`option` headers, nested `message` definitions,
//! `enum` definitions (fields of enum types map to [`FieldType::Enum`]),
//! `optional`/`required`/`repeated` fields of every scalar type, `[packed =
//! true]` options, and sub-message fields referenced by (possibly nested)
//! type name with C++-style innermost-scope-outward resolution.

use std::collections::HashMap;

use crate::{FieldDescriptor, FieldType, Label, MessageDescriptor, Schema, SchemaError};

/// Parses proto2 source text into a [`Schema`].
///
/// Nested message types are registered under their fully-qualified
/// `Outer.Inner` names.
///
/// # Errors
///
/// [`SchemaError::Parse`] with a line number for syntax errors, plus any
/// semantic validation errors (duplicate numbers, unknown types, invalid
/// packing).
///
/// ```rust
/// use protoacc_schema::{parse_proto, FieldType};
/// let schema = parse_proto(r#"
///     message Outer {
///         message Inner { optional bool flag = 1; }
///         optional Inner inner = 1;
///         repeated int32 values = 2 [packed = true];
///     }
/// "#)?;
/// assert!(schema.message_by_name("Outer.Inner").is_some());
/// # Ok::<(), protoacc_schema::SchemaError>(())
/// ```
pub fn parse_proto(source: &str) -> Result<Schema, SchemaError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens: &tokens,
        pos: 0,
    };
    let ast = parser.parse_file()?;

    // Pass 1: assign ids to all (nested) messages and collect enum names.
    let mut builder = Resolver::default();
    for item in &ast {
        builder.collect(item, "")?;
    }
    // Pass 2: resolve field types and build descriptors.
    let mut schema = Schema::new();
    let mut descriptors: Vec<Option<MessageDescriptor>> = vec![None; builder.order.len()];
    for item in &ast {
        builder.lower(item, "", &mut descriptors)?;
    }
    for descriptor in descriptors.into_iter().flatten() {
        schema.add_message(descriptor)?;
    }
    schema.validate()?;
    Ok(schema)
}

#[derive(Debug, Clone, PartialEq)]
struct Token {
    text: String,
    line: usize,
}

fn tokenize(source: &str) -> Result<Vec<Token>, SchemaError> {
    let mut tokens = Vec::new();
    let mut chars = source.char_indices().peekable();
    let mut line = 1;
    while let Some((_, c)) = chars.next() {
        match c {
            '\n' => line += 1,
            c if c.is_whitespace() => {}
            '/' => match chars.peek() {
                Some((_, '/')) => {
                    for (_, c2) in chars.by_ref() {
                        if c2 == '\n' {
                            line += 1;
                            break;
                        }
                    }
                }
                Some((_, '*')) => {
                    chars.next();
                    let mut prev = ' ';
                    let mut closed = false;
                    for (_, c2) in chars.by_ref() {
                        if c2 == '\n' {
                            line += 1;
                        }
                        if prev == '*' && c2 == '/' {
                            closed = true;
                            break;
                        }
                        prev = c2;
                    }
                    if !closed {
                        return Err(SchemaError::Parse {
                            line,
                            message: "unterminated block comment".into(),
                        });
                    }
                }
                _ => {
                    return Err(SchemaError::Parse {
                        line,
                        message: "unexpected `/`".into(),
                    })
                }
            },
            '"' => {
                let mut text = String::from("\"");
                let mut closed = false;
                for (_, c2) in chars.by_ref() {
                    if c2 == '"' {
                        closed = true;
                        break;
                    }
                    if c2 == '\n' {
                        line += 1;
                    }
                    text.push(c2);
                }
                if !closed {
                    return Err(SchemaError::Parse {
                        line,
                        message: "unterminated string literal".into(),
                    });
                }
                text.push('"');
                tokens.push(Token { text, line });
            }
            '{' | '}' | '=' | ';' | '[' | ']' | ',' => tokens.push(Token {
                text: c.to_string(),
                line,
            }),
            c if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-' => {
                let mut text = String::new();
                text.push(c);
                while let Some(&(_, c2)) = chars.peek() {
                    if c2.is_ascii_alphanumeric() || c2 == '_' || c2 == '.' {
                        text.push(c2);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token { text, line });
            }
            other => {
                return Err(SchemaError::Parse {
                    line,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(tokens)
}

#[derive(Debug)]
enum Item {
    Message {
        name: String,
        fields: Vec<RawField>,
        nested: Vec<Item>,
    },
    Enum {
        name: String,
    },
}

#[derive(Debug)]
struct RawField {
    label: Label,
    type_name: String,
    name: String,
    number: u32,
    packed: bool,
    line: usize,
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn error(&self, message: impl Into<String>) -> SchemaError {
        SchemaError::Parse {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect(&mut self, text: &str) -> Result<(), SchemaError> {
        match self.next() {
            Some(t) if t.text == text => Ok(()),
            Some(t) => Err(SchemaError::Parse {
                line: t.line,
                message: format!("expected `{text}`, found `{}`", t.text),
            }),
            None => Err(SchemaError::Parse {
                line: 0,
                message: format!("expected `{text}`, found end of input"),
            }),
        }
    }

    fn parse_file(&mut self) -> Result<Vec<Item>, SchemaError> {
        let mut items = Vec::new();
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "syntax" => {
                    self.next();
                    self.expect("=")?;
                    let value = self.next().ok_or_else(|| self.error("missing syntax"))?;
                    let value_text = value.text.clone();
                    let value_line = value.line;
                    self.expect(";")?;
                    if value_text != "\"proto2\"" {
                        return Err(SchemaError::Parse {
                            line: value_line,
                            message: format!(
                                "only proto2 is supported (the accelerator targets proto2, \
                                 Section 3.3), found {value_text}"
                            ),
                        });
                    }
                }
                "package" | "option" | "import" => {
                    // Consume through the terminating semicolon.
                    while let Some(t) = self.next() {
                        if t.text == ";" {
                            break;
                        }
                    }
                }
                "message" => items.push(self.parse_message()?),
                "enum" => items.push(self.parse_enum()?),
                other => {
                    let msg = format!("unexpected top-level token `{other}`");
                    return Err(self.error(msg));
                }
            }
        }
        Ok(items)
    }

    fn parse_message(&mut self) -> Result<Item, SchemaError> {
        self.expect("message")?;
        let name = self
            .next()
            .ok_or_else(|| self.error("missing message name"))?
            .text
            .clone();
        self.expect("{")?;
        let mut fields = Vec::new();
        let mut nested = Vec::new();
        loop {
            let t = self.peek().ok_or_else(|| self.error("unclosed message"))?;
            match t.text.as_str() {
                "}" => {
                    self.next();
                    break;
                }
                "message" => nested.push(self.parse_message()?),
                "enum" => nested.push(self.parse_enum()?),
                "reserved" | "extensions" | "option" => {
                    while let Some(t) = self.next() {
                        if t.text == ";" {
                            break;
                        }
                    }
                }
                _ => fields.push(self.parse_field()?),
            }
        }
        Ok(Item::Message {
            name,
            fields,
            nested,
        })
    }

    fn parse_enum(&mut self) -> Result<Item, SchemaError> {
        self.expect("enum")?;
        let name = self
            .next()
            .ok_or_else(|| self.error("missing enum name"))?
            .text
            .clone();
        self.expect("{")?;
        let mut depth = 1;
        while depth > 0 {
            match self.next() {
                Some(t) if t.text == "{" => depth += 1,
                Some(t) if t.text == "}" => depth -= 1,
                Some(_) => {}
                None => return Err(self.error("unclosed enum")),
            }
        }
        Ok(Item::Enum { name })
    }

    fn parse_field(&mut self) -> Result<RawField, SchemaError> {
        let label_tok = self.next().ok_or_else(|| self.error("missing field"))?;
        let line = label_tok.line;
        let label = match label_tok.text.as_str() {
            "optional" => Label::Optional,
            "required" => Label::Required,
            "repeated" => Label::Repeated,
            other => {
                return Err(SchemaError::Parse {
                    line,
                    message: format!("proto2 fields need an explicit label; found `{other}`"),
                })
            }
        };
        let type_name = self
            .next()
            .ok_or_else(|| self.error("missing field type"))?
            .text
            .clone();
        let name = self
            .next()
            .ok_or_else(|| self.error("missing field name"))?
            .text
            .clone();
        self.expect("=")?;
        let number_tok = self
            .next()
            .ok_or_else(|| self.error("missing field number"))?;
        let number: u32 = number_tok.text.parse().map_err(|_| SchemaError::Parse {
            line: number_tok.line,
            message: format!("invalid field number `{}`", number_tok.text),
        })?;
        // Optional bracketed options: only `packed` and `default` are
        // recognized; `default` values are consumed and ignored.
        let mut packed = false;
        if self.peek().is_some_and(|t| t.text == "[") {
            self.next();
            loop {
                let key = self.next().ok_or_else(|| self.error("unclosed options"))?;
                let key_text = key.text.clone();
                self.expect("=")?;
                let value = self
                    .next()
                    .ok_or_else(|| self.error("missing option value"))?;
                if key_text == "packed" {
                    packed = value.text == "true";
                }
                match self.next().map(|t| t.text) {
                    Some(t) if t == "," => continue,
                    Some(t) if t == "]" => break,
                    _ => return Err(self.error("malformed field options")),
                }
            }
        }
        self.expect(";")?;
        Ok(RawField {
            label,
            type_name,
            name,
            number,
            packed,
            line,
        })
    }
}

/// Resolves type names across nested scopes and lowers AST items to
/// descriptors.
#[derive(Debug, Default)]
struct Resolver {
    /// Fully-qualified message name → schema slot, in declaration order.
    message_ids: HashMap<String, usize>,
    order: Vec<String>,
    enums: Vec<String>,
}

impl Resolver {
    fn collect(&mut self, item: &Item, scope: &str) -> Result<(), SchemaError> {
        match item {
            Item::Message { name, nested, .. } => {
                let full = qualify(scope, name);
                let slot = self.order.len();
                if self.message_ids.insert(full.clone(), slot).is_some() {
                    return Err(SchemaError::DuplicateMessageName { name: full });
                }
                self.order.push(full.clone());
                for n in nested {
                    self.collect(n, &full)?;
                }
            }
            Item::Enum { name } => {
                self.enums.push(qualify(scope, name));
            }
        }
        Ok(())
    }

    fn lower(
        &self,
        item: &Item,
        scope: &str,
        out: &mut Vec<Option<MessageDescriptor>>,
    ) -> Result<(), SchemaError> {
        if let Item::Message {
            name,
            fields,
            nested,
        } = item
        {
            let full = qualify(scope, name);
            let slot = self.message_ids[&full];
            let mut descriptors = Vec::with_capacity(fields.len());
            for rf in fields {
                let field_type =
                    self.resolve_type(&rf.type_name, &full)
                        .ok_or_else(|| SchemaError::Parse {
                            line: rf.line,
                            message: format!("unknown type `{}`", rf.type_name),
                        })?;
                descriptors.push(FieldDescriptor::new(
                    rf.name.clone(),
                    rf.number,
                    field_type,
                    rf.label,
                    rf.packed,
                )?);
            }
            out[slot] = Some(MessageDescriptor::new(full.clone(), descriptors)?);
            for n in nested {
                self.lower(n, &full, out)?;
            }
        }
        Ok(())
    }

    /// Resolves a type name from innermost scope outward (C++ scoping rules).
    fn resolve_type(&self, type_name: &str, scope: &str) -> Option<FieldType> {
        if let Some(ft) = builtin_type(type_name) {
            return Some(ft);
        }
        let mut scope = scope.to_owned();
        loop {
            let candidate = qualify(&scope, type_name);
            if let Some(&slot) = self.message_ids.get(&candidate) {
                return Some(FieldType::Message(crate::MessageId::new(slot)));
            }
            if self.enums.contains(&candidate) {
                return Some(FieldType::Enum);
            }
            match scope.rfind('.') {
                Some(dot) => scope.truncate(dot),
                None if !scope.is_empty() => scope.clear(),
                None => return None,
            }
        }
    }
}

fn qualify(scope: &str, name: &str) -> String {
    if scope.is_empty() {
        name.to_owned()
    } else {
        format!("{scope}.{name}")
    }
}

fn builtin_type(name: &str) -> Option<FieldType> {
    Some(match name {
        "double" => FieldType::Double,
        "float" => FieldType::Float,
        "int32" => FieldType::Int32,
        "int64" => FieldType::Int64,
        "uint32" => FieldType::UInt32,
        "uint64" => FieldType::UInt64,
        "sint32" => FieldType::SInt32,
        "sint64" => FieldType::SInt64,
        "fixed32" => FieldType::Fixed32,
        "fixed64" => FieldType::Fixed64,
        "sfixed32" => FieldType::SFixed32,
        "sfixed64" => FieldType::SFixed64,
        "bool" => FieldType::Bool,
        "string" => FieldType::String,
        "bytes" => FieldType::Bytes,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerfClass;

    #[test]
    fn parses_every_scalar_type() {
        let mut source = String::from("message AllTypes {\n");
        for (i, kw) in [
            "double", "float", "int32", "int64", "uint32", "uint64", "sint32", "sint64", "fixed32",
            "fixed64", "sfixed32", "sfixed64", "bool", "string", "bytes",
        ]
        .iter()
        .enumerate()
        {
            source.push_str(&format!("  optional {kw} f{i} = {};\n", i + 1));
        }
        source.push('}');
        let schema = parse_proto(&source).unwrap();
        let m = schema.message_by_name("AllTypes").unwrap();
        assert_eq!(m.fields().len(), 15);
        assert_eq!(
            m.field_by_name("f0").unwrap().field_type(),
            FieldType::Double
        );
        assert_eq!(
            m.field_by_name("f14").unwrap().field_type(),
            FieldType::Bytes
        );
    }

    #[test]
    fn parses_figure1_style_recursive_message() {
        // Paper Figure 1 shows repeated + recursive types.
        let schema = parse_proto(
            r#"
            syntax = "proto2";
            message Node {
                optional int64 value = 1;
                repeated Node children = 2;
            }
            "#,
        )
        .unwrap();
        let node = schema.message_by_name("Node").unwrap();
        let children = node.field_by_name("children").unwrap();
        assert!(children.is_repeated());
        assert_eq!(
            children.field_type(),
            FieldType::Message(schema.id_by_name("Node").unwrap())
        );
    }

    #[test]
    fn nested_messages_get_qualified_names_and_scoped_resolution() {
        let schema = parse_proto(
            r#"
            message A {
                message B {
                    message C { optional bool x = 1; }
                    optional C c = 1;
                }
                optional B b = 1;
                optional B.C deep = 2;
            }
            "#,
        )
        .unwrap();
        assert!(schema.message_by_name("A.B.C").is_some());
        let a = schema.message_by_name("A").unwrap();
        assert_eq!(
            a.field_by_name("deep").unwrap().field_type(),
            FieldType::Message(schema.id_by_name("A.B.C").unwrap())
        );
    }

    #[test]
    fn enum_fields_map_to_enum_type() {
        let schema = parse_proto(
            r#"
            message M {
                enum Color { RED = 0; GREEN = 1; }
                optional Color color = 1;
            }
            "#,
        )
        .unwrap();
        let f = schema
            .message_by_name("M")
            .unwrap()
            .field_by_name("color")
            .unwrap();
        assert_eq!(f.field_type(), FieldType::Enum);
        assert_eq!(f.field_type().perf_class(), Some(PerfClass::VarintLike));
    }

    #[test]
    fn packed_option_is_honored() {
        let schema = parse_proto(
            "message M { repeated int32 xs = 1 [packed = true]; repeated int32 ys = 2; }",
        )
        .unwrap();
        let m = schema.message_by_name("M").unwrap();
        assert!(m.field_by_name("xs").unwrap().is_packed());
        assert!(!m.field_by_name("ys").unwrap().is_packed());
    }

    #[test]
    fn default_option_is_ignored() {
        let schema = parse_proto("message M { optional int32 x = 1 [default = -5]; }").unwrap();
        assert!(schema.message_by_name("M").is_some());
    }

    #[test]
    fn comments_and_headers_are_skipped() {
        let schema = parse_proto(
            r#"
            // line comment
            syntax = "proto2";
            package foo.bar;
            option java_package = "com.example";
            /* block
               comment */
            message M { optional bool x = 1; } // trailing
            "#,
        )
        .unwrap();
        assert_eq!(schema.len(), 1);
    }

    #[test]
    fn proto3_is_rejected() {
        let err =
            parse_proto(r#"syntax = "proto3"; message M { optional bool x = 1; }"#).unwrap_err();
        assert!(matches!(err, SchemaError::Parse { .. }));
    }

    #[test]
    fn missing_label_is_rejected() {
        let err = parse_proto("message M { int32 x = 1; }").unwrap_err();
        assert!(matches!(err, SchemaError::Parse { .. }));
    }

    #[test]
    fn unknown_type_is_reported_with_line() {
        let err = parse_proto("message M {\n  optional Missing x = 1;\n}").unwrap_err();
        match err {
            SchemaError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("Missing"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(parse_proto("message {").is_err());
        assert!(parse_proto("message M { optional int32 x 1; }").is_err());
        assert!(parse_proto("message M { optional int32 x = abc; }").is_err());
        assert!(parse_proto("garbage").is_err());
        assert!(parse_proto("/* unterminated").is_err());
        assert!(parse_proto(r#"message M { optional string s = 1 [default = "x]; }"#).is_err());
    }

    #[test]
    fn packed_string_is_rejected_semantically() {
        let err = parse_proto("message M { repeated string s = 1 [packed = true]; }").unwrap_err();
        assert!(matches!(err, SchemaError::InvalidPacked { .. }));
    }
}
