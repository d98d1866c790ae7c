//! Byte-offset source spans and human-readable source positions.

use std::fmt;

/// A half-open byte range `[start, end)` into the source text.
///
/// Spans are attached to every token, expression, and declaration so that
/// errors from any phase (lexing through safety analysis) can point back at
/// the offending source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: u32, end: u32) -> Self {
        Span { start, end }
    }

    /// A zero-width placeholder span (used for synthesized nodes).
    pub fn dummy() -> Self {
        Span { start: 0, end: 0 }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Extracts the spanned slice of `src`.
    ///
    /// Returns an empty string if the span is out of bounds (e.g. a dummy
    /// span against unrelated source).
    pub fn slice<'s>(&self, src: &'s str) -> &'s str {
        src.get(self.start as usize..self.end as usize)
            .unwrap_or("")
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A 1-based line/column position, computed on demand from a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column (in bytes).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Computes the [`LineCol`] of byte `offset` within `src`.
pub fn line_col(src: &str, offset: u32) -> LineCol {
    LineCols::new(src).at(offset)
}

/// [`line_col`] for many offsets into one source: ascending offsets
/// scan it once in all, rather than once each.
pub struct LineCols<'s> {
    src: &'s [u8],
    offset: usize,
    at: LineCol,
}

impl<'s> LineCols<'s> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'s str) -> Self {
        LineCols {
            src: src.as_bytes(),
            offset: 0,
            at: LineCol { line: 1, col: 1 },
        }
    }

    /// The [`LineCol`] of byte `offset`. An offset below the previous
    /// one rescans from the start.
    pub fn at(&mut self, offset: u32) -> LineCol {
        let offset = (offset as usize).min(self.src.len());
        if offset < self.offset {
            *self = LineCols {
                src: self.src,
                offset: 0,
                at: LineCol { line: 1, col: 1 },
            };
        }
        for &b in &self.src[self.offset..offset] {
            if b == b'\n' {
                self.at.line += 1;
                self.at.col = 1;
            } else {
                self.at.col += 1;
            }
        }
        self.offset = offset;
        self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
        assert_eq!(b.merge(a), Span::new(3, 12));
    }

    #[test]
    fn slice_extracts_text() {
        let src = "val x : int = 42";
        assert_eq!(Span::new(4, 5).slice(src), "x");
    }

    #[test]
    fn slice_out_of_bounds_is_empty() {
        assert_eq!(Span::new(10, 20).slice("short"), "");
    }

    #[test]
    fn line_col_first_line() {
        assert_eq!(line_col("abc", 1), LineCol { line: 1, col: 2 });
    }

    #[test]
    fn line_col_after_newlines() {
        let src = "ab\ncd\nef";
        assert_eq!(line_col(src, 3), LineCol { line: 2, col: 1 });
        assert_eq!(line_col(src, 7), LineCol { line: 3, col: 2 });
    }

    #[test]
    fn line_cols_cursor_matches_line_col() {
        let src = "ab\ncd\n\nef";
        let mut cur = LineCols::new(src);
        for offset in [0, 1, 3, 3, 7, 8, 2, 100] {
            assert_eq!(
                cur.at(offset),
                line_col_scan(src, offset),
                "offset {offset}"
            );
        }
    }

    /// The direct definition: count lines and columns up to `offset`.
    fn line_col_scan(src: &str, offset: u32) -> LineCol {
        let before = &src[..(offset as usize).min(src.len())];
        let line = 1 + before.matches('\n').count() as u32;
        let col = 1 + before.len() - before.rfind('\n').map_or(0, |i| i + 1);
        LineCol {
            line,
            col: col as u32,
        }
    }

    #[test]
    fn line_col_clamps_past_end() {
        let src = "ab";
        assert_eq!(line_col(src, 100), LineCol { line: 1, col: 3 });
    }
}
