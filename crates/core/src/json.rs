//! The workspace's one JSON writer.
//!
//! Every machine-readable artefact renders through this module: the
//! `--json` reports, the Chrome trace, the `--profile` line and the
//! committed `BENCH_*.json` baselines. The writer appends to one
//! `String`, escapes every string value and places every comma. Keys
//! are `&'static str` literals written as-is; values are formatted
//! straight into the buffer, floats at a fixed precision ([`Fixed`]).
//!
//! A [`document`] is a pretty top level with one key per line, and
//! [`Document::rows`] is an array with one row per line; everything
//! else is inline. The only layout choice is the inline separator
//! ([`Sep`]): it is fixed where a container is opened at the top level,
//! and everything that container holds inherits it.
//!
//! ```
//! use amdrel_core::json::{document, Sep};
//!
//! let json = document(|doc| {
//!     doc.object("space", Sep::Spaced, |o| o.list("areas", [1500u64, 5000]));
//!     doc.rows("cells", Sep::Tight, |rows| {
//!         rows.elem_object(|row| row.field("datapath", "two 2x2 CGCs"));
//!     });
//! });
//! let cell = r#"{"datapath":"two 2x2 CGCs"}"#;
//! let space = r#""space": {"areas": [1500, 5000]}"#;
//! assert_eq!(json, format!("{{\n  {space},\n  \"cells\": [\n    {cell}\n  ]\n}}\n"));
//! ```

use crate::cache::CacheStats;
use crate::experiment::ExperimentGrid;
use std::fmt::Write as _;

/// The separator between the members of an inline object or array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sep {
    /// `,` between members and `:` after keys: `{"a":1,"b":[2,3]}`.
    Tight,
    /// `, ` between members and `: ` after keys: `{"a": 1, "b": [2, 3]}`.
    Spaced,
}

/// A value the writer can format straight into its buffer.
pub trait Value {
    /// Append the JSON form of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut start = 0;
        for (i, b) in self.bytes().enumerate() {
            let escaped = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every byte matched above is ASCII, so `i` is a char boundary.
            out.push_str(&self[start..i]);
            if escaped.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escaped);
            }
            start = i + 1;
        }
        out.push_str(&self[start..]);
        out.push('"');
    }
}

impl Value for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_values!(bool, u128);

// The Chrome trace writes about a dozen integers per event; formatting
// them without the `fmt` machinery keeps its export as fast as the
// `format!` templates this writer replaced.
macro_rules! integer_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let (mut n, mut digits, mut at) = (*self as u64, [0u8; 20], 20);
                loop {
                    at -= 1;
                    digits[at] = b'0' + (n % 10) as u8;
                    n /= 10;
                    if n == 0 {
                        break;
                    }
                }
                out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
            }
        }
    )*};
}

integer_values!(u16, u32, u64, usize);

/// A float rendered with a fixed number of decimals: `Fixed(2.0, 3)` is
/// `2.000`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

/// An open object or array whose members share one separator.
#[derive(Debug)]
pub struct Json<'a> {
    out: &'a mut String,
    sep: Sep,
    /// The indent of every member when the container puts one member
    /// per line (the document and its row arrays).
    indent: Option<&'static str>,
    first: bool,
}

impl<'a> Json<'a> {
    fn new(out: &'a mut String, sep: Sep, indent: Option<&'static str>) -> Json<'a> {
        Json {
            out,
            sep,
            indent,
            first: true,
        }
    }

    /// Write the separator `,` (between members) or `:` (after a key),
    /// plus a space when spaced. This runs for every member, so it
    /// pushes `char`s, each an inline byte store, rather than a `&str`
    /// picked at run time, which costs a copy call.
    fn punct(&mut self, mark: char) {
        self.out.push(mark);
        if self.sep == Sep::Spaced {
            self.out.push(' ');
        }
    }

    /// Start a member: the separator from the previous one, then the key.
    fn member(&mut self, key: Option<&'static str>) {
        match self.indent {
            Some(indent) => {
                self.out.push_str(if self.first { "\n" } else { ",\n" });
                self.out.push_str(indent);
            }
            None if !self.first => self.punct(','),
            None => {}
        }
        self.first = false;
        if let Some(key) = key {
            self.out.push('"');
            self.out.push_str(key);
            self.out.push('"');
            self.punct(':');
        }
    }

    fn open(
        &mut self,
        key: Option<&'static str>,
        brackets: [char; 2],
        sep: Sep,
        indent: Option<&'static str>,
        f: impl FnOnce(&mut Json),
    ) {
        self.member(key);
        self.out.push(brackets[0]);
        f(&mut Json::new(self.out, sep, indent));
        if indent.is_some() {
            self.out.push('\n');
            self.out.push_str(self.indent.unwrap_or(""));
        }
        self.out.push(brackets[1]);
    }

    /// Write the member `"key": value`.
    pub fn field(&mut self, key: &'static str, value: impl Value) {
        self.member(Some(key));
        value.write_json(self.out);
    }

    /// Write one array element.
    pub fn elem(&mut self, value: impl Value) {
        self.member(None);
        value.write_json(self.out);
    }

    /// Write the member `"key": {…}`, filled by `f`.
    pub fn object(&mut self, key: &'static str, f: impl FnOnce(&mut Json)) {
        self.open(Some(key), ['{', '}'], self.sep, None, f);
    }

    /// Write the member `"key": […]`, filled by `f`.
    pub fn array(&mut self, key: &'static str, f: impl FnOnce(&mut Json)) {
        self.open(Some(key), ['[', ']'], self.sep, None, f);
    }

    /// Write the member `"key": [items…]`.
    pub fn list<V: Value>(&mut self, key: &'static str, items: impl IntoIterator<Item = V>) {
        self.array(key, |a| items.into_iter().for_each(|v| a.elem(v)));
    }

    /// Write one array element that is an object, filled by `f`.
    pub fn elem_object(&mut self, f: impl FnOnce(&mut Json)) {
        self.open(None, ['{', '}'], self.sep, None, f);
    }
}

/// The pretty top level of a [`document`]: one member per line. Each
/// container opened here picks the separator its contents use.
#[derive(Debug)]
pub struct Document<'a>(Json<'a>);

impl Document<'_> {
    /// Write the line `"key": value`.
    pub fn field(&mut self, key: &'static str, value: impl Value) {
        self.0.field(key, value);
    }

    /// Write the line `"key": {…}`, its members separated by `sep`.
    pub fn object(&mut self, key: &'static str, sep: Sep, f: impl FnOnce(&mut Json)) {
        self.0.open(Some(key), ['{', '}'], sep, None, f);
    }

    /// Write the line `"key": [items…]`, its elements separated by `sep`.
    pub fn list<V: Value>(
        &mut self,
        key: &'static str,
        sep: Sep,
        items: impl IntoIterator<Item = V>,
    ) {
        let fill = |a: &mut Json| items.into_iter().for_each(|v| a.elem(v));
        self.0.open(Some(key), ['[', ']'], sep, None, fill);
    }

    /// Write `"key": [` followed by one row per line, then `]` on a line
    /// of its own. Each row is inline, its members separated by `sep`.
    pub fn rows(&mut self, key: &'static str, sep: Sep, f: impl FnOnce(&mut Json)) {
        self.0.open(Some(key), ['[', ']'], sep, Some("    "), f);
    }
}

/// Render a pretty top-level object, filled by `f`, ending in a newline.
pub fn document(f: impl FnOnce(&mut Document)) -> String {
    let mut out = String::from("{");
    f(&mut Document(Json::new(&mut out, Sep::Spaced, Some("  "))));
    out + "\n}\n"
}

/// Render a one-line object, filled by `f`, its members separated by
/// `sep`. There is no trailing newline.
pub fn line(sep: Sep, f: impl FnOnce(&mut Json)) -> String {
    let mut out = String::from("{");
    f(&mut Json::new(&mut out, sep, None));
    out + "}"
}

/// Write the mapping-cache counters as the line `"cache": {…}`.
pub fn cache_object(doc: &mut Document, stats: &CacheStats) {
    doc.object("cache", Sep::Tight, |o| {
        o.field("fine_misses", stats.fine_misses);
        o.field("fine_hits", stats.fine_hits);
        o.field("coarse_misses", stats.coarse_misses);
        o.field("coarse_hits", stats.coarse_hits);
        o.field("entries", stats.entries);
    });
}

/// Render an [`ExperimentGrid`] (the `sweep` subcommand's result) plus
/// its cache counters as JSON (schema `amdrel-sweep/v3`; the schema
/// history is in `docs/BENCHMARKS.md`).
pub fn grid_to_json(grid: &ExperimentGrid, cache: &CacheStats) -> String {
    document(|doc| {
        doc.field("schema", "amdrel-sweep/v3");
        doc.field("app", &grid.app);
        doc.field("constraint", grid.constraint);
        doc.rows("cells", Sep::Tight, |rows| {
            for cell in &grid.cells {
                let result = &cell.result;
                rows.elem_object(|row| {
                    row.field("area", cell.area);
                    row.field("datapath", &cell.datapath);
                    row.field("initial_cycles", result.initial_cycles);
                    row.field("final_cycles", result.final_cycles());
                    row.field("cycles_in_cgc", result.breakdown.t_coarse_cgc);
                    row.list(
                        "moved_blocks",
                        result.moves.iter().map(|m| m.kernel.index()),
                    );
                    row.field("reduction_percent", Fixed(result.reduction_percent(), 2));
                    row.field("met", result.met);
                });
            }
        });
        cache_object(doc, cache);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        let json = line(Sep::Tight, |o| o.field("s", "a\"b\\c\nd\r\te\u{1} µs → ok"));
        assert_eq!(json, r#"{"s":"a\"b\\c\nd\r\te\u0001 µs → ok"}"#);
    }

    #[test]
    fn empty_rows_close_on_their_own_line() {
        let json = document(|doc| doc.rows("rows", Sep::Tight, |_| {}));
        assert_eq!(json, "{\n  \"rows\": [\n  ]\n}\n");
        assert_eq!(document(|_| {}), "{\n}\n");
    }

    #[test]
    fn nested_containers_inherit_the_separator() {
        let fill = |o: &mut Json| {
            o.field("k", Fixed(0.5, 3));
            o.array("v", |a| {
                a.elem(1u64);
                a.elem_object(|e| e.list("t", [true, false]));
            });
            o.object("empty", |_| {});
        };
        let tight = r#"{"k":0.500,"v":[1,{"t":[true,false]}],"empty":{}}"#;
        assert_eq!(line(Sep::Tight, fill), tight);
        let spaced = r#"{"k": 0.500, "v": [1, {"t": [true, false]}], "empty": {}}"#;
        assert_eq!(line(Sep::Spaced, fill), spaced);
    }

    #[test]
    fn cache_json_shape() {
        let json = document(|doc| cache_object(doc, &CacheStats::default()));
        let expected =
            r#"{"fine_misses":0,"fine_hits":0,"coarse_misses":0,"coarse_hits":0,"entries":0}"#;
        assert_eq!(json, format!("{{\n  \"cache\": {expected}\n}}\n"));
    }
}
