//! The workspace's one JSON writer.
//!
//! Every machine-readable report — `krb-lint --json`, the soak documents,
//! `krb-top --json`, `krb-trace --json`, `krb-stat`'s snapshot and
//! `krb-kdbench`'s — is built as a [`Json`] value and printed by
//! [`Json::render`]. Layout and string escaping are decided here and
//! nowhere else: output is compact (no whitespace between tokens),
//! objects keep the order their keys were added in, and every string goes
//! through the one escape, which covers all of U+0000–U+001F. Strings in
//! these reports can come from outside the program (a client names itself
//! in the clear in its AS request, §4.2), so a partial escape would let a
//! client break the operator's JSON.

use std::fmt::Write as _;

/// A JSON value. Build objects with [`Json::obj`] and [`Json::with`],
/// arrays by collecting an iterator of anything convertible to `Json`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, printed exactly.
    Int(u64),
    /// A float (`krb-kdbench`'s rates); a non-finite one prints as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append `key: value` to an object and return it, so calls chain. On
    /// any other value this is a no-op.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.into(), value.into()));
        }
        self
    }

    /// The compact text of this value, with no trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// `s` as a JSON string literal: `"` and `\` backslashed, `\n` `\r` `\t`
/// by name, every other control character as `\u00XX`.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as u64)
            }
        }
    )*};
}

from_unsigned!(u8, u32, u64, usize);

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Str(s.clone())
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_in_insertion_order() {
        let doc = Json::obj()
            .with("tool", "krb-x")
            .with("seed", 42u64)
            .with("clean", true)
            .with("empty", Json::obj())
            .with("none", Json::Arr(Vec::new()))
            .with("runs", [1u64, 2].into_iter().collect::<Json>())
            .with("nested", Json::obj().with("b", 0u8).with("a", "z"));
        assert_eq!(
            doc.render(),
            r#"{"tool":"krb-x","seed":42,"clean":true,"empty":{},"none":[],"runs":[1,2],"nested":{"b":0,"a":"z"}}"#
        );
    }

    #[test]
    fn escapes_every_control_character() {
        let s: String = (0u32..0x20).filter_map(char::from_u32).collect();
        let out = Json::from(s).render();
        assert_eq!(
            out,
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\
             \\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\
             \\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\""
        );
        assert!(!out.chars().any(|c| u32::from(c) < 0x20));
        assert_eq!(Json::from("a\"b\\c").render(), r#""a\"b\\c""#);
        // Above U+001F nothing is escaped, DEL and non-ASCII included.
        assert_eq!(Json::from("ü\u{7f}/").render(), "\"ü\u{7f}/\"");
    }

    #[test]
    fn keys_are_escaped_like_values() {
        let doc = Json::obj().with("ev\u{1}il", "ok");
        assert_eq!(doc.render(), r#"{"ev\u0001il":"ok"}"#);
    }

    #[test]
    fn numbers_print_exactly_and_non_finite_floats_as_null() {
        assert_eq!(Json::from(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::from(305372.5_f64).render(), "305372.5");
        assert_eq!(Json::from(0.0_f64).render(), "0");
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(f64::INFINITY).render(), "null");
    }

    #[test]
    fn with_on_a_non_object_is_a_no_op() {
        assert_eq!(Json::from(7u64).with("k", 1u64), Json::Int(7));
    }
}
