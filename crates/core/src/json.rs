//! The workspace's one JSON writer. Every stats document and report is
//! built here, so key quoting, string escaping (RFC 8259), integers,
//! fixed-decimal floats and nesting are decided once. Write-only: the
//! workspace parses no JSON and carries no serde.

use std::fmt::{self, Write};

/// A JSON object under construction; members render in call order.
#[must_use]
pub struct Object(String);

/// Starts an empty object.
pub fn object() -> Object {
    Object(String::from("{"))
}

impl Object {
    /// An integer member (`-1` sentinels included).
    pub fn int(self, key: &str, v: impl Into<i128>) -> Self {
        self.member(key, |out| write!(out, "{}", v.into()))
    }

    /// A float member at exactly `decimals` places.
    pub fn fixed(self, key: &str, v: f64, decimals: usize) -> Self {
        self.member(key, |out| write!(out, "{v:.decimals$}"))
    }

    /// A string member, escaped.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.member(key, |out| write_string(out, v))
    }

    /// A `true`/`false` member.
    pub fn bool(self, key: &str, v: bool) -> Self {
        self.raw(key, if v { "true" } else { "false" })
    }

    /// A member whose value is already encoded: a nested document, an
    /// [`array`] or `null`.
    pub fn raw(self, key: &str, v: &str) -> Self {
        self.member(key, |out| out.write_str(v))
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }

    fn member(mut self, key: &str, value: impl FnOnce(&mut String) -> fmt::Result) -> Self {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        // Writing into a `String` cannot fail.
        let _ = write_string(&mut self.0, key);
        self.0.push(':');
        let _ = value(&mut self.0);
        self
    }
}

/// An array of integers or of already-encoded values.
pub fn array(items: &[impl fmt::Display]) -> String {
    let items: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Writes `s` quoted, escaping `"`, `\` and U+0000–U+001F.
fn write_string(out: &mut String, s: &str) -> fmt::Result {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(out, "\\{c}")?,
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c))?,
            c => out.push(c),
        }
    }
    out.push('"');
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_value_kind_in_call_order() {
        let inner = object().int("n", 7u32).finish();
        let doc = object()
            .int("u", u64::MAX)
            .int("neg", -1i64)
            .bool("open", false)
            .fixed("mean", 2.26, 1)
            .fixed("ratio", 1.0 / 3.0, 4)
            .str("s", "a\"b\\c\n\u{1}é")
            .raw("inner", &inner)
            .raw("none", "null")
            .raw("xs", &array(&[1, 2]))
            .raw("empty", &array(&Vec::<u64>::new()))
            .finish();
        assert_eq!(
            doc,
            "{\"u\":18446744073709551615,\"neg\":-1,\"open\":false,\"mean\":2.3,\
             \"ratio\":0.3333,\"s\":\"a\\\"b\\\\c\\u000a\\u0001é\",\"inner\":{\"n\":7},\
             \"none\":null,\"xs\":[1,2],\"empty\":[]}"
        );
        assert_eq!(object().finish(), "{}");
    }
}
