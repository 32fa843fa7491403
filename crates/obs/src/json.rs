//! A minimal hand-rolled JSON writer.
//!
//! The workspace is hermetic (no registry dependencies, hence no serde);
//! PR 2's bench harness already hand-rolled its JSON document. This
//! module centralises the two pieces every emitter needs — string
//! escaping and an object/array builder that tracks commas — so the
//! trace, metrics and bench writers produce consistent output.

use std::fmt::Write as _;

/// Escapes `s` as the *contents* of a JSON string (no surrounding
/// quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `"s"` with JSON escaping.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// An appender that writes one JSON object or array into a `String`,
/// inserting commas between items. Values passed to the `raw` variants
/// must already be valid JSON.
#[derive(Debug)]
pub struct JsonWriter {
    buf: String,
    /// Whether the current container already holds an item, per nesting
    /// level.
    has_item: Vec<bool>,
}

impl JsonWriter {
    /// A writer with an empty buffer.
    pub fn new() -> Self {
        JsonWriter {
            buf: String::new(),
            has_item: Vec::new(),
        }
    }

    fn comma(&mut self) {
        if let Some(top) = self.has_item.last_mut() {
            if *top {
                self.buf.push(',');
            }
            *top = true;
        }
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('{');
        self.has_item.push(false);
        self
    }

    /// Closes `}`.
    pub fn end_object(&mut self) -> &mut Self {
        self.has_item.pop();
        self.buf.push('}');
        self
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) -> &mut Self {
        self.comma();
        self.buf.push('[');
        self.has_item.push(false);
        self
    }

    /// Closes `]`.
    pub fn end_array(&mut self) -> &mut Self {
        self.has_item.pop();
        self.buf.push(']');
        self
    }

    /// Writes `"key":` (inside an object), without a value; follow with
    /// one of the value calls or a `begin_*`.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.comma();
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
        // The upcoming value must not re-insert a comma.
        if let Some(top) = self.has_item.last_mut() {
            *top = false;
        }
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.comma();
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.comma();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.comma();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a pre-serialised JSON fragment verbatim.
    pub fn raw(&mut self, v: &str) -> &mut Self {
        self.comma();
        self.buf.push_str(v);
        self
    }

    /// Consumes the writer, returning the document.
    pub fn finish(self) -> String {
        self.buf
    }
}

impl Default for JsonWriter {
    fn default() -> Self {
        JsonWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn writer_builds_nested_documents() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("name")
            .string("x")
            .key("n")
            .u64(3)
            .key("ok")
            .bool(true)
            .key("items")
            .begin_array()
            .u64(1)
            .u64(2)
            .begin_object()
            .key("k")
            .string("v")
            .end_object()
            .end_array()
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"x","n":3,"ok":true,"items":[1,2,{"k":"v"}]}"#
        );
    }

    #[test]
    fn raw_embeds_fragments() {
        let mut w = JsonWriter::new();
        w.begin_array().raw("{\"a\":1}").u64(2).end_array();
        assert_eq!(w.finish(), r#"[{"a":1},2]"#);
    }
}
