//! The workspace's one JSON writer, with no serde dependency on the
//! panic path: [`record_line`] serializes trace [`Record`]s as JSON
//! lines, and the [`object`] builder writes every other document — the
//! experiment reports and `lrm-server`'s JSON exposition. Strings are
//! escaped by [`push_str`] and floats go through [`push_f64`] (NaN/±∞
//! become `null`), so no document can come out invalid.

use crate::{Record, Value};

/// Appends `s` as a JSON string (with surrounding quotes) to `out`.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` (shortest round-trip form) or `null` for
/// NaN/±∞ — JSON has no representation for the latter.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

/// Appends one payload [`Value`].
pub fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => push_f64(out, *f),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => push_str(out, s),
    }
}

/// Writes one compact JSON object; `f` adds its members, e.g.
/// `object(|o| { o.str("label", name).field("ratio", r); })`.
pub fn object(f: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::with_capacity(256);
    Object::write(&mut out, f);
    out
}

/// The members of a JSON object under construction (see [`object`]).
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

/// The elements of a JSON array under construction.
pub struct Array<'a> {
    out: &'a mut String,
    first: bool,
}

/// Pushes the `,` that precedes every member or element but the first.
fn separate<'s>(out: &'s mut String, first: &mut bool) -> &'s mut String {
    if !std::mem::take(first) {
        out.push(',');
    }
    out
}

impl Object<'_> {
    fn write(out: &mut String, f: impl FnOnce(&mut Object<'_>)) {
        out.push('{');
        f(&mut Object { out, first: true });
        out.push('}');
    }

    fn key(&mut self, key: &str) -> &mut String {
        let out = separate(self.out, &mut self.first);
        push_str(out, key);
        out.push(':');
        out
    }

    /// Adds a number, bool or static string member.
    pub fn field(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        push_value(self.key(key), &value.into());
        self
    }

    /// Adds a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        push_str(self.key(key), value);
        self
    }

    /// Adds a member that is `null` when `value` is `None`.
    pub fn opt(&mut self, key: &str, value: Option<impl Into<Value>>) -> &mut Self {
        match value {
            Some(v) => self.field(key, v),
            None => {
                self.key(key).push_str("null");
                self
            }
        }
    }

    /// Adds a nested object member.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        Object::write(self.key(key), f);
        self
    }

    /// Adds an array member.
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        Array::write(self.key(key), f);
        self
    }
}

impl Array<'_> {
    fn write(out: &mut String, f: impl FnOnce(&mut Array<'_>)) {
        out.push('[');
        f(&mut Array { out, first: true });
        out.push(']');
    }

    /// Appends a number, bool or static string.
    pub fn value(&mut self, value: impl Into<Value>) -> &mut Self {
        push_value(separate(self.out, &mut self.first), &value.into());
        self
    }

    /// Appends an object.
    pub fn object(&mut self, f: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        Object::write(separate(self.out, &mut self.first), f);
        self
    }

    /// Appends a nested array.
    pub fn array(&mut self, f: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        Array::write(separate(self.out, &mut self.first), f);
        self
    }
}

fn push_fields(out: &mut String, fields: &[(&'static str, Value)]) {
    out.push_str(",\"f\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(out, k);
        out.push(':');
        push_value(out, v);
    }
    out.push('}');
}

/// Serializes one record as a single JSON object (no trailing newline).
///
/// Spans: `{"t":"span","name":…,"trace":…,"span":…,"parent":…,
/// "ts_ns":…,"dur_ns":…,"f":{…}}`; events drop `parent`/`dur_ns`.
pub fn record_line(record: &Record) -> String {
    let mut out = String::with_capacity(128);
    match record {
        Record::Span(s) => {
            out.push_str("{\"t\":\"span\",\"name\":");
            push_str(&mut out, s.name);
            out.push_str(&format!(
                ",\"trace\":{},\"span\":{},\"parent\":{},\"ts_ns\":{},\"dur_ns\":{}",
                s.trace, s.span, s.parent, s.ts_ns, s.dur_ns
            ));
            push_fields(&mut out, &s.fields);
        }
        Record::Event(e) => {
            out.push_str("{\"t\":\"event\",\"name\":");
            push_str(&mut out, e.name);
            out.push_str(&format!(
                ",\"trace\":{},\"span\":{},\"ts_ns\":{}",
                e.trace, e.span, e.ts_ns
            ));
            push_fields(&mut out, &e.fields);
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, SpanRecord};
    use std::borrow::Cow;

    #[test]
    fn escapes_and_formats() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
        let mut out = String::new();
        push_f64(&mut out, 0.5);
        assert_eq!(out, "0.5");
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn object_builder_nests_escapes_and_nulls_non_finite() {
        let doc = object(|o| {
            o.str("label", "a \"quoted\" \\ name\n")
                .field("n", 3u64)
                .field("ok", true)
                .field("nan", f64::NAN)
                .field("inf", f64::NEG_INFINITY)
                .opt("missing", None::<f64>)
                .opt("present", Some(0.25))
                .object("empty", |_| {})
                .array("rows", |a| {
                    a.object(|r| {
                        r.field("mode", "x");
                    })
                    .array(|pair| {
                        pair.value(1u64).value(f64::INFINITY);
                    })
                    .value(-2i64);
                });
        });
        assert_eq!(
            doc,
            r#"{"label":"a \"quoted\" \\ name\n","n":3,"ok":true,"nan":null,"inf":null,"missing":null,"present":0.25,"empty":{},"rows":[{"mode":"x"},[1,null],-2]}"#
        );
    }

    #[test]
    fn record_lines_are_json_objects() {
        let span = Record::Span(SpanRecord {
            ts_ns: 5,
            dur_ns: 10,
            trace: 1,
            span: 2,
            parent: 0,
            name: "batch.serve",
            fields: vec![
                ("shard", Value::U64(3)),
                ("label", Value::Str(Cow::Borrowed("x"))),
            ],
        });
        assert_eq!(
            record_line(&span),
            r#"{"t":"span","name":"batch.serve","trace":1,"span":2,"parent":0,"ts_ns":5,"dur_ns":10,"f":{"shard":3,"label":"x"}}"#
        );
        let event = Record::Event(Event {
            ts_ns: 7,
            trace: 1,
            span: 2,
            name: "request.submit",
            fields: vec![("eps", Value::F64(0.25))],
        });
        assert_eq!(
            record_line(&event),
            r#"{"t":"event","name":"request.submit","trace":1,"span":2,"ts_ns":7,"f":{"eps":0.25}}"#
        );
    }
}
