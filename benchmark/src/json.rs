//! A JSON value and its serialisation: all the benchmark needs to write its documents with no
//! dependency beyond the standard library.

use std::fmt::{self, Display, Write};

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept as given.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Compact, single-line serialisation.
impl Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // JSON has no NaN or infinity; a measurement that produced one is reported as 0.
            Json::Num(x) if !x.is_finite() => f.write_char('0'),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// A checker of JSON well-formedness, for the tests of everything the benchmark writes.
#[cfg(test)]
pub mod check {
    /// `Ok(())` if `text` is exactly one well-formed JSON value.
    pub fn well_formed(text: &str) -> Result<(), String> {
        let bytes = text.as_bytes();
        let end = value(bytes, skip_ws(bytes, 0))?;
        match skip_ws(bytes, end) {
            e if e == bytes.len() => Ok(()),
            e => Err(format!("trailing input at byte {e}")),
        }
    }

    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    }

    fn value(b: &[u8], i: usize) -> Result<usize, String> {
        match b.get(i) {
            Some(b'{') => sequence(b, i + 1, b'}', |b, i| {
                let i = skip_ws(b, string(b, i)?);
                if b.get(i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                value(b, skip_ws(b, i + 1))
            }),
            Some(b'[') => sequence(b, i + 1, b']', value),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, "true"),
            Some(b'f') => literal(b, i, "false"),
            Some(b'n') => literal(b, i, "null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => number(b, i),
            _ => Err(format!("expected a value at byte {i}")),
        }
    }

    fn sequence(
        b: &[u8],
        mut i: usize,
        close: u8,
        item: impl Fn(&[u8], usize) -> Result<usize, String>,
    ) -> Result<usize, String> {
        i = skip_ws(b, i);
        if b.get(i) == Some(&close) {
            return Ok(i + 1);
        }
        loop {
            i = skip_ws(b, item(b, skip_ws(b, i))?);
            match b.get(i) {
                Some(b',') => i += 1,
                Some(c) if *c == close => return Ok(i + 1),
                _ => return Err(format!("expected ',' or a closing bracket at byte {i}")),
            }
        }
    }

    fn string(b: &[u8], i: usize) -> Result<usize, String> {
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected a string at byte {i}"));
        }
        let mut i = i + 1;
        loop {
            match b.get(i) {
                Some(b'"') => return Ok(i + 1),
                Some(b'\\') => i += 2,
                Some(c) if *c >= 0x20 => i += 1,
                _ => return Err(format!("unterminated string at byte {i}")),
            }
        }
    }

    fn literal(b: &[u8], i: usize, word: &str) -> Result<usize, String> {
        if b[i..].starts_with(word.as_bytes()) {
            Ok(i + word.len())
        } else {
            Err(format!("expected `{word}` at byte {i}"))
        }
    }

    fn number(b: &[u8], i: usize) -> Result<usize, String> {
        let mut end = i;
        while end < b.len() && matches!(b[end], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
            end += 1;
        }
        let text = std::str::from_utf8(&b[i..end]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(|_| end)
            .map_err(|_| format!("bad number `{text}` at byte {i}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialises_compactly_and_escapes_strings() {
        let doc = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(3)),
            ("x", Json::Num(1.5)),
            ("nan", Json::Num(f64::NAN)),
            ("s", Json::str("a\"b\\c\n\u{1}")),
            ("list", Json::Arr(vec![Json::Int(1), Json::obj::<&str>([])])),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            r#"{"ok":true,"n":3,"x":1.5,"nan":0,"s":"a\"b\\c\n\u0001","list":[1,{}]}"#
        );
        check::well_formed(&text).unwrap();
    }

    #[test]
    fn the_checker_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1}x",
            "\"open",
            "{a:1}",
            "1.2.3",
        ] {
            assert!(check::well_formed(bad).is_err(), "accepted {bad:?}");
        }
        for good in [
            "0",
            " [ ] ",
            "{\"a\":[1,2,{\"b\":null}],\"c\":-1.5e-3}",
            "\"\\\"\"",
        ] {
            check::well_formed(good).unwrap();
        }
    }
}
