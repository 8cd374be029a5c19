//! Plain-text edge-list serialization.
//!
//! Format: first non-comment line is `n <node-count>`, each following
//! non-empty line is `u v` (0-based, whitespace-separated). Lines starting
//! with `#` are comments. The format is symmetric: writing then reading
//! reproduces the graph exactly.

use crate::{AdjacencyMatrix, GraphError};
use std::fmt::Write as _;

/// Serializes a graph to the edge-list format.
pub fn to_edge_list(g: &AdjacencyMatrix) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# undirected graph: {} nodes, {} edges", g.n(), g.edge_count());
    let _ = writeln!(out, "n {}", g.n());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

/// Parses the edge-list format produced by [`to_edge_list`].
///
/// One pass over the bytes. Once the header is in, a line of the form
/// `u v` — two runs of at most [`FAST_DIGITS`] ASCII digits between the
/// ASCII bytes that `str::trim` treats as whitespace — is converted in
/// place. Every other line — the header, comments, anything with a sign,
/// a letter, an overlong number or a non-ASCII byte — takes the `str`
/// path (`trim`, `split_whitespace`, `str::parse`), so every input is
/// accepted or rejected exactly as a plain `str` parser would, with the
/// same [`GraphError::Parse`] line and message.
pub fn from_edge_list(text: &str) -> Result<AdjacencyMatrix, GraphError> {
    let bytes = text.as_bytes();
    let mut g: Option<AdjacencyMatrix> = None;
    let mut pos = 0;
    let mut line_no = 0;
    // Lines end at `\n`, as in `str::lines`; its dropping of a `\r` before
    // the `\n` is subsumed by trimming.
    while pos < bytes.len() {
        line_no += 1;
        if let Some(graph) = g.as_mut() {
            if let Some((u, v, next)) = edge_line(bytes, pos) {
                graph.add_edge(u, v)?;
                pos = next;
                continue;
            }
        }
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |i| pos + i);
        // `pos` and `end` sit next to `\n` bytes or at the ends of the
        // text, so both are char boundaries.
        entry(&mut g, line_no, text[pos..end].trim())?;
        pos = end + 1;
    }
    g.ok_or(GraphError::Parse {
        line: 0,
        message: "missing 'n <count>' header".into(),
    })
}

/// The longest run of decimal digits that always fits a `usize`.
pub const FAST_DIGITS: usize = usize::MAX.ilog10() as usize;

/// The ASCII bytes besides `\n` that `char::is_whitespace` accepts.
#[inline]
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | 0x0B | 0x0C | b'\r')
}

/// Reads the line starting at `pos` as `u v` if it is exactly two short
/// digit runs between blanks: the node ids and where the next line
/// starts. `None` sends the line to the `str` path.
#[inline]
fn edge_line(bytes: &[u8], mut pos: usize) -> Option<(usize, usize, usize)> {
    let blanks = |pos: &mut usize| {
        let start = *pos;
        while *pos < bytes.len() && is_blank(bytes[*pos]) {
            *pos += 1;
        }
        *pos > start
    };
    let digits = |pos: &mut usize| {
        let start = *pos;
        let mut n = 0usize;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            if *pos - start == FAST_DIGITS {
                return None;
            }
            n = n * 10 + usize::from(bytes[*pos] - b'0');
            *pos += 1;
        }
        (*pos > start).then_some(n)
    };
    blanks(&mut pos);
    let u = digits(&mut pos)?;
    if !blanks(&mut pos) {
        return None;
    }
    let v = digits(&mut pos)?;
    blanks(&mut pos);
    match bytes.get(pos) {
        None | Some(b'\n') => Some((u, v, pos + 1)),
        Some(_) => None,
    }
}

/// One trimmed line on the `str` path: a comment or blank, the header, or
/// an edge.
fn entry(g: &mut Option<AdjacencyMatrix>, line_no: usize, line: &str) -> Result<(), GraphError> {
    if line.is_empty() || line.starts_with('#') {
        return Ok(());
    }
    let err = |message: String| GraphError::Parse {
        line: line_no,
        message,
    };
    let mut parts = line.split_whitespace();
    match g {
        None => {
            // Expect the header `n <count>`.
            if parts.next() != Some("n") {
                return Err(err(format!("expected header 'n <count>', got '{line}'")));
            }
            let count = parts
                .next()
                .ok_or_else(|| err("missing node count".into()))?
                .parse::<usize>()
                .map_err(|e| err(format!("bad node count: {e}")))?;
            if parts.next().is_some() {
                return Err(err("trailing tokens after header".into()));
            }
            *g = Some(AdjacencyMatrix::try_new(count).map_err(|e| err(e.to_string()))?);
        }
        Some(graph) => {
            let mut node = || {
                parts
                    .next()
                    .ok_or_else(|| err("expected 'u v'".into()))?
                    .parse::<usize>()
                    .map_err(|e| err(format!("bad node id: {e}")))
            };
            let u = node()?;
            let v = node()?;
            if parts.next().is_some() {
                return Err(err("trailing tokens after edge".into()));
            }
            graph.add_edge(u, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    /// The plain `str` parser [`from_edge_list`] must agree with on every
    /// input.
    fn reference(text: &str) -> Result<AdjacencyMatrix, GraphError> {
        let mut g: Option<AdjacencyMatrix> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match g {
                None => {
                    // Expect the header `n <count>`.
                    let tag = parts.next();
                    if tag != Some("n") {
                        return Err(GraphError::Parse {
                            line: line_no,
                            message: format!("expected header 'n <count>', got '{line}'"),
                        });
                    }
                    let count = parts
                        .next()
                        .ok_or_else(|| GraphError::Parse {
                            line: line_no,
                            message: "missing node count".into(),
                        })?
                        .parse::<usize>()
                        .map_err(|e| GraphError::Parse {
                            line: line_no,
                            message: format!("bad node count: {e}"),
                        })?;
                    if parts.next().is_some() {
                        return Err(GraphError::Parse {
                            line: line_no,
                            message: "trailing tokens after header".into(),
                        });
                    }
                    g = Some(AdjacencyMatrix::try_new(count).map_err(|e| GraphError::Parse {
                        line: line_no,
                        message: e.to_string(),
                    })?);
                }
                Some(ref mut graph) => {
                    let parse = |tok: Option<&str>| -> Result<usize, GraphError> {
                        tok.ok_or_else(|| GraphError::Parse {
                            line: line_no,
                            message: "expected 'u v'".into(),
                        })?
                        .parse::<usize>()
                        .map_err(|e| GraphError::Parse {
                            line: line_no,
                            message: format!("bad node id: {e}"),
                        })
                    };
                    let u = parse(parts.next())?;
                    let v = parse(parts.next())?;
                    if parts.next().is_some() {
                        return Err(GraphError::Parse {
                            line: line_no,
                            message: "trailing tokens after edge".into(),
                        });
                    }
                    graph.add_edge(u, v)?;
                }
            }
        }
        g.ok_or(GraphError::Parse {
            line: 0,
            message: "missing 'n <count>' header".into(),
        })
    }

    /// Byte-string fragments the edge-list grammar cares about: digits,
    /// every ASCII whitespace byte, comments, signs, overlong and
    /// `usize`-overflowing numbers, letters and non-ASCII (NBSP is Unicode
    /// whitespace; `é` is not). The header tag comes last, so that inputs
    /// without a header prefix can leave it out.
    const PIECES: [&str; 26] = [
        "0", "1", "2", "3", "7", "9", "12", " ", "  ", "\t", "\r", "\n", "\n", "\r\n", "#",
        "+", "-", "x", "\u{b}", "\u{c}", "\u{a0}", "é", "18446744073709551615",
        "184467440737095516160", "n", "n ",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The byte parser and the `str` reference agree on every input:
        /// the same graph, or the same error with the same line and text.
        /// Without a header prefix no piece may spell one (`n` is left
        /// out), so that no input asks for an unbounded node count.
        #[test]
        fn byte_parser_agrees_with_the_str_parser(
            header in 0usize..3,
            pieces in collection::vec(0usize..PIECES.len(), 0..40),
        ) {
            let mut text = ["", "n 13\n", "# c\n  n\t9 \r\n"][header].to_string();
            for i in pieces {
                if header > 0 || !PIECES[i].starts_with('n') {
                    text.push_str(PIECES[i]);
                }
            }
            prop_assert_eq!(from_edge_list(&text), reference(&text), "{:?}", text);
        }
    }

    #[test]
    fn byte_parser_agrees_on_curated_inputs() {
        for text in [
            "n 3\n0 1\n",
            "n 3\r\n0 1\r\n1 2",
            "n +3\n+0 2\n",
            "n 3\n0\u{a0}1\n",
            "\u{a0}n 3\n",
            "n 3\n0 1é\n",
            "n 18446744073709551615 1\n",
            "n 99999999999999999999\n",
            "n 3\n0 99999999999999999999\n",
            "n\u{b}3\n1\u{c}2\n",
            "n 3\n0 -1\n",
            "# only\n\n",
            "n 4\n# c\n\n2 3 4\n",
            // Edge lines the byte path takes, and near misses it hands on.
            "n 20\n \t1\u{b}2 \r\n3  4",
            "n 20\n1 2\u{a0}\n5 6",
            "n 3\n01 2\n",
            "n 3\n0000000000000000000001 2\n",
            "n 3\n1 1\n",
            "n 3\n0 3\n",
            "n 3\n1 2#\n",
            "n 3\n1\n",
            "n 3\n1 \n",
        ] {
            assert_eq!(from_edge_list(text), reference(text), "{text:?}");
        }
        let g = generators::gnp(50, 0.3, 9);
        let text = to_edge_list(&g);
        assert_eq!(from_edge_list(&text), reference(&text));
        assert_eq!(from_edge_list(&text).unwrap(), g);
    }

    #[test]
    fn round_trip() {
        let g = generators::gnp(20, 0.3, 5);
        let text = to_edge_list(&g);
        let back = from_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn round_trip_empty_graph() {
        let g = generators::empty(4);
        let back = from_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# hello\n\nn 3\n# edge next\n0 2\n";
        let g = from_edge_list(text).unwrap();
        assert_eq!(g.n(), 3);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn oversized_headers_are_parse_errors() {
        // The first count overflows the matrix's word count, the second
        // asks for 2·10¹⁸ bytes: both are typed errors naming the size.
        for n in ["18446744073709551615", "4000000000"] {
            let text = format!("# big\nn {n}\n0 1\n");
            let err = from_edge_list(&text).unwrap_err();
            match &err {
                GraphError::Parse { line: 2, message } => assert!(message.contains(n), "{message}"),
                other => panic!("expected a parse error on line 2, got {other:?}"),
            }
            assert_eq!(Err(err), reference(&text));
        }
    }

    #[test]
    fn rejects_missing_header() {
        let err = from_edge_list("0 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(from_edge_list("").is_err());
        assert!(from_edge_list("# only comments\n").is_err());
    }

    #[test]
    fn rejects_bad_counts() {
        assert!(from_edge_list("n x\n").is_err());
        assert!(from_edge_list("n\n").is_err());
        assert!(from_edge_list("n 3 4\n").is_err());
    }

    #[test]
    fn rejects_bad_edges() {
        assert!(from_edge_list("n 3\n0\n").is_err());
        assert!(from_edge_list("n 3\n0 a\n").is_err());
        assert!(from_edge_list("n 3\n0 1 2\n").is_err());
        assert!(from_edge_list("n 3\n0 5\n").is_err()); // out of range
        assert!(from_edge_list("n 3\n1 1\n").is_err()); // self loop
    }

    #[test]
    fn error_reports_line_numbers() {
        let err = from_edge_list("n 3\n0 1\nbad line\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
