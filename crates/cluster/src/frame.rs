//! The one text frame grammar of every Camelot wire format: task,
//! reply, certificate, request, response, and the record-less control
//! frames. Each format is a schema over this module (which records it
//! has, which repeat, what their tokens mean) and nothing else.
//!
//! ```text
//! <header>                    the format's magic line, exactly
//! <key> <token> <token> ...   one record per line
//! end
//! ```
//!
//! - Tokens are separated by ASCII whitespace (the writer uses one
//!   space); any other whitespace (`\x0b`, a no-break space, …) is an
//!   error, so no reader splits a line differently.
//! - Blank lines are ignored.
//! - A scalar record appears at most once; a repeatable one (`proof`,
//!   `program <p>`, `frame <r>`, `cert`) any number of times. A record
//!   the schema does not ask for is an error.
//! - The `end` line is required, and only blank lines may follow it.
//! - Numbers are decimal; `-` in a symbol list is an erasure.
//! - A frame embeds another verbatim, one `<key> <line>` record per
//!   line, so the embedded `end` is `cert end` and ends nothing.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

use std::fmt::{self, Display, Write as _};
use std::io::{self, BufRead};
use std::str::{FromStr, SplitAsciiWhitespace};

/// The line that closes every frame.
const END: &str = "end";

fn is_end(line: &str) -> bool {
    line.trim_ascii() == END
}

/// Why a frame did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first line is not the format's header.
    Header,
    /// The text stops before the `end` line.
    Unterminated,
    /// Non-blank text follows the `end` line.
    AfterEnd,
    /// Whitespace other than ASCII whitespace.
    StrayWhitespace,
    /// A scalar record appears more than once.
    Repeated(&'static str),
    /// A record the format does not define.
    Unknown(String),
    /// A required record is absent.
    Missing(&'static str),
    /// A record whose tokens do not fit the format.
    Bad(&'static str),
}

impl Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Header => write!(f, "missing frame header"),
            FrameError::Unterminated => write!(f, "missing end marker"),
            FrameError::AfterEnd => write!(f, "content after the end marker"),
            FrameError::StrayWhitespace => write!(f, "non-ASCII whitespace"),
            FrameError::Repeated(key) => write!(f, "repeated {key} record"),
            FrameError::Unknown(key) => write!(f, "unknown record {key:?}"),
            FrameError::Missing(key) => write!(f, "missing {key} record"),
            FrameError::Bad(key) => write!(f, "bad {key} record"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: [`FrameWriter::new`] with the header, records,
/// then [`FrameWriter::end`].
#[derive(Debug)]
pub struct FrameWriter {
    out: String,
}

impl FrameWriter {
    /// A frame opening with `header`.
    #[must_use]
    pub fn new(header: &str) -> Self {
        FrameWriter { out: format!("{header}\n") }
    }

    fn put(&mut self, args: fmt::Arguments<'_>) -> &mut Self {
        // Writing numbers and strings into a `String` cannot fail.
        self.out.write_fmt(args).unwrap_or(());
        self
    }

    /// `key value`.
    pub fn record(&mut self, key: impl Display, value: impl Display) -> &mut Self {
        self.put(format_args!("{key} {value}\n"))
    }

    /// `key v0 v1 ...`; a bare `key` for an empty list.
    pub fn numbers<T: Display>(&mut self, key: impl Display, values: &[T]) -> &mut Self {
        self.put(format_args!("{key}"));
        for value in values {
            self.put(format_args!(" {value}"));
        }
        self.put(format_args!("\n"))
    }

    /// `key s0 s1 ...` with `-` for an erased symbol.
    pub fn symbols(&mut self, key: impl Display, symbols: &[Option<u64>]) -> &mut Self {
        self.put(format_args!("{key}"));
        for symbol in symbols {
            match symbol {
                Some(value) => self.put(format_args!(" {value}")),
                None => self.put(format_args!(" -")),
            };
        }
        self.put(format_args!("\n"))
    }

    /// Embeds `text` verbatim, one `key <line>` record per line.
    pub fn embed(&mut self, key: &str, text: &str) -> &mut Self {
        for line in text.lines() {
            self.put(format_args!("{key} {line}\n"));
        }
        self
    }

    /// Closes the frame and returns its text.
    #[must_use]
    pub fn end(mut self) -> String {
        self.put(format_args!("{END}\n"));
        self.out
    }
}

/// A parsed frame. The format's schema claims its records one accessor
/// at a time, and [`Frame::finish`] rejects any record left unclaimed.
#[derive(Debug)]
pub struct Frame<'a> {
    /// Each record's key, its raw text after the key, and whether an
    /// accessor has claimed it.
    records: Vec<(&'a str, &'a str, bool)>,
}

impl<'a> Frame<'a> {
    /// Parses `text` as a frame opening with `header` (every rule of the
    /// grammar except those on records, which the accessors check).
    pub fn parse(text: &'a str, header: &str) -> Result<Self, FrameError> {
        let mut lines = text.lines();
        if lines.next() != Some(header) {
            return Err(FrameError::Header);
        }
        let mut records = Vec::new();
        for line in lines.by_ref() {
            if line.contains(|c: char| c.is_whitespace() && !c.is_ascii_whitespace()) {
                return Err(FrameError::StrayWhitespace);
            }
            if is_end(line) {
                if lines.any(|line| !line.trim_ascii().is_empty()) {
                    return Err(FrameError::AfterEnd);
                }
                return Ok(Frame { records });
            }
            let line = line.trim_ascii_start();
            if !line.is_empty() {
                let (key, rest) =
                    line.split_once(|c: char| c.is_ascii_whitespace()).unwrap_or((line, ""));
                records.push((key, rest, false));
            }
        }
        Err(FrameError::Unterminated)
    }

    /// The scalar record `key`, if present; an error if it repeats.
    pub fn scalar(&mut self, key: &'static str) -> Result<Option<Record<'a>>, FrameError> {
        let mut found = None;
        for (_, rest, taken) in self.records.iter_mut().filter(|(k, ..)| *k == key) {
            if found.is_some() {
                return Err(FrameError::Repeated(key));
            }
            *taken = true;
            found = Some(Record::new(key, rest));
        }
        Ok(found)
    }

    /// The scalar record `key`, which must be present.
    pub fn required(&mut self, key: &'static str) -> Result<Record<'a>, FrameError> {
        self.scalar(key)?.ok_or(FrameError::Missing(key))
    }

    /// The scalar record `key` holding exactly one number, if present.
    pub fn number<T: FromStr>(&mut self, key: &'static str) -> Result<Option<T>, FrameError> {
        self.scalar(key)?
            .map(|record| record.only()?.parse().map_err(|_| FrameError::Bad(key)))
            .transpose()
    }

    /// The scalar record `key` holding exactly one number, which must be
    /// present.
    pub fn require<T: FromStr>(&mut self, key: &'static str) -> Result<T, FrameError> {
        self.number(key)?.ok_or(FrameError::Missing(key))
    }

    /// Every record `key` of a repeatable kind, in frame order.
    pub fn repeated(&mut self, key: &'static str) -> impl Iterator<Item = Record<'a>> + '_ {
        self.records.iter_mut().filter(move |(k, ..)| *k == key).map(move |(_, rest, taken)| {
            *taken = true;
            Record::new(key, rest)
        })
    }

    /// The text embedded under `key` records; empty when there is none.
    pub fn embedded(&mut self, key: &'static str) -> String {
        self.repeated(key).flat_map(|record| [record.text(), "\n"]).collect()
    }

    /// An error naming the first record no accessor claimed.
    pub fn finish(self) -> Result<(), FrameError> {
        match self.records.iter().find(|(.., taken)| !taken) {
            Some((key, ..)) => Err(FrameError::Unknown((*key).to_string())),
            None => Ok(()),
        }
    }
}

/// One record's tokens, read front to back; every error is
/// [`FrameError::Bad`] naming the record.
#[derive(Debug)]
pub struct Record<'a> {
    key: &'static str,
    rest: &'a str,
    tokens: SplitAsciiWhitespace<'a>,
}

impl<'a> Record<'a> {
    fn new(key: &'static str, rest: &'a str) -> Self {
        Record { key, rest, tokens: rest.split_ascii_whitespace() }
    }

    /// [`FrameError::Bad`] naming this record.
    #[must_use]
    pub fn bad(&self) -> FrameError {
        FrameError::Bad(self.key)
    }

    /// The next token.
    pub fn word(&mut self) -> Result<&'a str, FrameError> {
        self.tokens.next().ok_or(FrameError::Bad(self.key))
    }

    /// The next token, as a number.
    pub fn number<T: FromStr>(&mut self) -> Result<T, FrameError> {
        self.word()?.parse().map_err(|_| self.bad())
    }

    /// Checks that no token is left.
    pub fn end(mut self) -> Result<(), FrameError> {
        self.tokens.next().map_or(Ok(()), |_| Err(self.bad()))
    }

    /// The one token left.
    pub fn only(mut self) -> Result<&'a str, FrameError> {
        let word = self.word()?;
        self.end().map(|()| word)
    }

    /// Every token left, as numbers.
    pub fn numbers<T: FromStr>(self) -> Result<Vec<T>, FrameError> {
        let key = self.key;
        self.tokens.map(|token| token.parse().map_err(|_| FrameError::Bad(key))).collect()
    }

    /// Every token left, as symbols: numbers, or `-` for an erasure.
    pub fn symbols(self) -> Result<Vec<Option<u64>>, FrameError> {
        let key = self.key;
        let symbol = |token: &str| match token {
            "-" => Ok(None),
            _ => token.parse().map(Some).map_err(|_| FrameError::Bad(key)),
        };
        self.tokens.map(symbol).collect()
    }

    /// The raw text after the key: free text, or a line of an embedded
    /// frame.
    #[must_use]
    pub fn text(self) -> &'a str {
        self.rest
    }
}

/// Reads one frame off a stream, through its `end` line; `Ok(None)` on
/// a clean end of stream before any byte. The stream's own errors pass
/// through (a read timeout is `WouldBlock` or `TimedOut`); a stream that
/// ends inside a frame is [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut text = String::new();
    loop {
        let start = text.len();
        if reader.read_line(&mut text)? == 0 {
            if text.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "stream closed mid-frame"));
        }
        if text.get(start..).is_some_and(is_end) {
            return Ok(Some(text));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_the_grammar() {
        let mut w = FrameWriter::new("camelot-test v1");
        w.record("kind", "x")
            .numbers("empty", &[] as &[u64])
            .numbers(format_args!("list {}", 7), &[1u64, 2])
            .symbols("word", &[Some(3), None])
            .embed("inner", "a v1\nb 1\nend\n");
        assert_eq!(
            w.end(),
            "camelot-test v1\nkind x\nempty\nlist 7 1 2\nword 3 -\ninner a v1\ninner b 1\ninner end\nend\n"
        );
    }

    #[test]
    fn reader_claims_records_and_rejects_the_rest() {
        let text = "h v1\n\n  n 5\nlist 1 2 3\nword 3 - 4\np 0\np 1\ninner a\ninner  b \nend\n\n";
        let mut frame = Frame::parse(text, "h v1").unwrap();
        assert_eq!(frame.require::<u64>("n"), Ok(5));
        assert_eq!(frame.required("list").unwrap().numbers::<usize>(), Ok(vec![1, 2, 3]));
        assert_eq!(frame.required("word").unwrap().symbols(), Ok(vec![Some(3), None, Some(4)]));
        assert_eq!(frame.repeated("p").count(), 2);
        assert_eq!(frame.embedded("inner"), "a\n b \n");
        assert_eq!(frame.number::<u64>("absent"), Ok(None));
        frame.finish().unwrap();

        let mut frame = Frame::parse(text, "h v1").unwrap();
        assert_eq!(frame.required("p").err(), Some(FrameError::Repeated("p")));
        assert_eq!(frame.required("absent").err(), Some(FrameError::Missing("absent")));
        assert_eq!(frame.finish(), Err(FrameError::Unknown("n".to_string())));
    }

    #[test]
    fn reader_is_total_on_structure() {
        for (text, error) in [
            ("", FrameError::Header),
            ("x v1\nend\n", FrameError::Header),
            ("h v1\nn 1\n", FrameError::Unterminated),
            ("h v1\nend\nn 1\n", FrameError::AfterEnd),
            ("h v1\nn\u{a0}1\nend\n", FrameError::StrayWhitespace),
            ("h v1\nn\u{0b}1\nend\n", FrameError::StrayWhitespace),
        ] {
            assert_eq!(Frame::parse(text, "h v1").err(), Some(error), "{text:?}");
        }
        let mut frame = Frame::parse("h v1\nn 1 2\nm x\nend\n", "h v1").unwrap();
        assert_eq!(frame.number::<u64>("n"), Err(FrameError::Bad("n")));
        assert_eq!(frame.number::<u64>("m"), Err(FrameError::Bad("m")));
    }

    #[test]
    fn read_frame_stops_at_end_and_reports_a_cut() {
        let mut stream: &[u8] = b"a v1\ncert end\nend\nb v1\nend\nc v1\n";
        assert_eq!(read_frame(&mut stream).unwrap().as_deref(), Some("a v1\ncert end\nend\n"));
        assert_eq!(read_frame(&mut stream).unwrap().as_deref(), Some("b v1\nend\n"));
        let cut = read_frame(&mut stream).unwrap_err();
        assert_eq!(cut.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(read_frame(&mut stream).unwrap(), None);
    }
}
