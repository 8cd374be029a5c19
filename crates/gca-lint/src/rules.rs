//! The lint rule catalog and the token-pattern checkers implementing it.
//!
//! All rules operate on the [`lexer`](crate::lexer) token stream:
//!
//! * [`RuleId::NoUnwrap`] — no `.unwrap()` / `.expect(…)` in non-test
//!   library code (the workspace's error-vs-panic policy, DESIGN.md §11:
//!   user-reachable failures carry typed errors; panics are reserved for
//!   internal invariants). Matching whole identifier tokens keeps
//!   `unwrap_or(…)` / `unwrap_or_else(…)` legal.
//! * [`RuleId::TruncatingCast`] — no narrowing `as` casts in the hot-path
//!   files (`sweep.rs`, `engine.rs`): a congestion or index counter
//!   silently wrapping in the fused sweep is exactly the class of bug the
//!   sanitizer exists to catch, so the lint bans the construct at the
//!   source level.
//! * [`RuleId::RuleFieldAccess`] — inside `impl … GcaRule for …` blocks,
//!   cell state may only be read through the rule API (`own`, `Reads`,
//!   `Access`); naming `CellField` or its raw buffer accessors
//!   (`.states()`, `.states_mut()`, `.get_unchecked()`) would bypass the
//!   CROW/read-snapshot contract the engine's fast paths are verified
//!   against.
//! * [`RuleId::WordWidth`] — outside `word.rs` (the one module allowed to
//!   know the packed-adjacency word is a `u64`), no hard-coded 64/63
//!   word-width arithmetic: `x & 63`, `i / 64`, `i % 64`, shifts by the
//!   literal width, `div_ceil(64)` and `u64`-suffixed literals built for
//!   shifting must all be phrased through `WORD_BITS` / `AdjWord` so a
//!   future word-width change stays a one-file edit. Using `u64` as a
//!   *type* (`Vec<u64>`, `[u64; N]`, `as u64`) is legal — the rule targets
//!   width arithmetic, not storage declarations.
//! * [`RuleId::RowRangePurity`] — in the kernel file (`sweep.rs`), a
//!   row-range function (free `fn` ending in `_rows`) must
//!   never index one of its `&mut` plane parameters with an expression
//!   naming `base_row`: the mutable planes arrive pre-sliced to the
//!   chunk's row range (row-relative), so absolute-row addressing on them
//!   is exactly the off-by-one that breaks the partition-disjointness
//!   proof (`gca-analyze --partition`). `base_row` remains legal for
//!   computing *values* and for reading the shared read-only planes.
//!
//! Test code (`#[cfg(test)]` items, `#[test]` functions) is exempt from
//! every rule; single sites are suppressed with an inline
//! `// gca-lint: allow(rule-name)` on the same or preceding line; whole
//! files are allow-listed per rule in the checked-in `lint.toml`.

use crate::lexer::{LexedFile, Token};
use std::fmt;

/// Identifies one lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `.unwrap()` / `.expect(…)` in non-test library code.
    NoUnwrap,
    /// Narrowing `as` casts in hot-path files.
    TruncatingCast,
    /// Raw cell-state access inside `GcaRule` implementations.
    RuleFieldAccess,
    /// Hard-coded 64/63 word-width arithmetic outside `word.rs`.
    WordWidth,
    /// Absolute-row (`base_row`) indexing of a `&mut` plane parameter
    /// inside a `*_rows` kernel function.
    RowRangePurity,
}

impl RuleId {
    /// Every shipped rule.
    pub const ALL: [RuleId; 5] = [
        RuleId::NoUnwrap,
        RuleId::TruncatingCast,
        RuleId::RuleFieldAccess,
        RuleId::WordWidth,
        RuleId::RowRangePurity,
    ];

    /// The rule's kebab-case name (as used in `lint.toml` and inline
    /// allow comments).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoUnwrap => "no-unwrap",
            RuleId::TruncatingCast => "truncating-cast",
            RuleId::RuleFieldAccess => "rule-field-access",
            RuleId::WordWidth => "word-width",
            RuleId::RowRangePurity => "row-range-purity",
        }
    }

    /// Parses a kebab-case rule name.
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// How a file participates in linting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileClass {
    /// Library code (a crate's `src/` reachable from `lib.rs`, not under
    /// `src/bin/`). [`RuleId::NoUnwrap`] only applies here — binaries may
    /// legitimately `expect` on CLI arguments.
    pub library: bool,
    /// A hot-path file ([`RuleId::TruncatingCast`] applies): `sweep.rs`
    /// or `engine.rs`.
    pub hot_path: bool,
    /// The word-definition module (`word.rs`) — the one file allowed to
    /// spell out the packed-adjacency word width, so
    /// [`RuleId::WordWidth`] does not apply.
    pub word_home: bool,
    /// A kernel file (`sweep.rs`) whose `*_rows` functions
    /// carry the row-range contract [`RuleId::RowRangePurity`] checks.
    pub kernel: bool,
}

/// One rule violation at one source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-indexed source line.
    pub line: u32,
    /// Human-readable description of the site.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Marks every token belonging to a `#[cfg(test)]` / `#[test]` item —
/// attribute included, through the item's closing `}` (or `;`).
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_start = i;
            // Collect the attribute's tokens up to its matching `]`.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut attr: Vec<&Token> = Vec::new();
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('[') || t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(']') || t.is_punct(')') {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                attr.push(t);
                j += 1;
            }
            let attr_end = j; // index of closing `]`
            // `#[test]` or `#[cfg(test)]` — exact shapes only, so
            // `#[cfg(not(test))]` keeps its item linted.
            let gating = match attr.len() {
                2 => attr[1].is_ident("test"),
                5 => {
                    attr[1].is_ident("cfg")
                        && attr[2].is_punct('(')
                        && attr[3].is_ident("test")
                        && attr[4].is_punct(')')
                }
                _ => false,
            };
            if gating {
                // Skip any further attributes, then consume the item: to a
                // `;` before any brace, or through the matching `}`.
                let mut k = attr_end + 1;
                while k < tokens.len()
                    && tokens[k].is_punct('#')
                    && tokens.get(k + 1).is_some_and(|t| t.is_punct('['))
                {
                    let mut d = 0usize;
                    k += 1;
                    while k < tokens.len() {
                        if tokens[k].is_punct('[') || tokens[k].is_punct('(') {
                            d += 1;
                        } else if tokens[k].is_punct(']') || tokens[k].is_punct(')') {
                            d = d.saturating_sub(1);
                            if d == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    k += 1;
                }
                let mut brace_depth = 0usize;
                while k < tokens.len() {
                    let t = &tokens[k];
                    if t.is_punct('{') {
                        brace_depth += 1;
                    } else if t.is_punct('}') {
                        if brace_depth <= 1 {
                            break;
                        }
                        brace_depth -= 1;
                    } else if t.is_punct(';') && brace_depth == 0 {
                        break;
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take((k + 1).min(tokens.len())).skip(attr_start) {
                    *m = true;
                }
                i = k + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Marks every token inside the body of an `impl … GcaRule for …` block.
fn gca_rule_impl_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("impl") {
            // Scan the header up to the opening `{`; it qualifies if it
            // names `GcaRule` and has a `for` (a trait impl, not inherent).
            let mut j = i + 1;
            let (mut has_rule, mut has_for) = (false, false);
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                has_rule |= tokens[j].is_ident("GcaRule");
                has_for |= tokens[j].is_ident("for");
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') && has_rule && has_for {
                let mut depth = 0usize;
                let mut k = j;
                while k < tokens.len() {
                    if tokens[k].is_punct('{') {
                        depth += 1;
                    } else if tokens[k].is_punct('}') {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    mask[k] = true;
                    k += 1;
                }
                i = k + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

/// The integer types an `as` cast may truncate into on every supported
/// target.
const NARROW_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// The `CellField` raw accessors a rule impl must not call.
const RAW_STATE_ACCESSORS: [&str; 3] = ["states", "states_mut", "get_unchecked"];

/// Does this numeric literal spell the packed word width (64) or its
/// lane mask (63)? Suffixes (`64usize`) and digit separators are ignored;
/// `640` is not a width.
fn is_width_literal(num: &str) -> bool {
    let digits: String = num
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    digits == "64" || digits == "63"
}

/// Runs every applicable rule over one lexed file. `file` is the
/// workspace-relative path used in reports; inline
/// `gca-lint: allow(rule)` comments (same line or the line above the
/// site) are already honoured here. Returns `(violations, suppressed)`.
pub fn check_file(file: &str, lexed: &LexedFile, class: FileClass) -> (Vec<Violation>, usize) {
    let tokens = &lexed.tokens;
    let in_test = test_mask(tokens);
    let in_rule_impl = gca_rule_impl_mask(tokens);
    let mut raw: Vec<Violation> = Vec::new();

    if class.library {
        for i in 0..tokens.len() {
            if in_test[i] {
                continue;
            }
            let dot_call = tokens[i].is_punct('.')
                && tokens
                    .get(i + 1)
                    .and_then(|t| t.ident())
                    .is_some_and(|id| id == "unwrap" || id == "expect")
                && tokens.get(i + 2).is_some_and(|t| t.is_punct('('));
            if dot_call {
                let t = &tokens[i + 1];
                raw.push(Violation {
                    rule: RuleId::NoUnwrap,
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        ".{}() in library code — return a typed error instead \
                         (DESIGN.md error-vs-panic policy)",
                        t.ident().unwrap_or_default()
                    ),
                });
            }
        }
    }

    if class.hot_path {
        for i in 0..tokens.len() {
            if in_test[i] || !tokens[i].is_ident("as") {
                continue;
            }
            if let Some(ty) = tokens.get(i + 1).and_then(|t| t.ident()) {
                if NARROW_TYPES.contains(&ty) {
                    raw.push(Violation {
                        rule: RuleId::TruncatingCast,
                        file: file.to_string(),
                        line: tokens[i].line,
                        message: format!(
                            "`as {ty}` in a hot path can truncate silently — \
                             use a checked/widening conversion"
                        ),
                    });
                }
            }
        }
    }

    if !class.word_home {
        for i in 0..tokens.len() {
            if in_test[i] {
                continue;
            }
            // `1u64 << lane` — a literal whose suffix bakes in the
            // adjacency word type, built for shifting.
            if tokens[i].number().is_some_and(|n| n.ends_with("u64"))
                && tokens.get(i + 1).is_some_and(|t| t.is_punct('<'))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct('<'))
            {
                raw.push(Violation {
                    rule: RuleId::WordWidth,
                    file: file.to_string(),
                    line: tokens[i].line,
                    message: "u64-suffixed literal built for shifting assumes the adjacency \
                              word type — spell it as `AdjWord` / phrase the shift via WORD_BITS"
                        .to_string(),
                });
            }
            let Some(num) = tokens[i].number() else {
                continue;
            };
            if !is_width_literal(num) {
                continue;
            }
            // `n.div_ceil(64)` — words-per-row arithmetic.
            let div_ceil_arg = i >= 2
                && tokens[i - 1].is_punct('(')
                && tokens[i - 2].is_ident("div_ceil");
            // `i / 64`, `i % 64`, `lane & 63`, `x ^ 64`, `x | 64` with a
            // real left operand (so closure heads like `|_| 64` and
            // references stay legal), and shifts by the width
            // (`<<`/`>>` lex as two puncts).
            let shift = i >= 2
                && ((tokens[i - 1].is_punct('<') && tokens[i - 2].is_punct('<'))
                    || (tokens[i - 1].is_punct('>') && tokens[i - 2].is_punct('>')));
            let operand_before = i >= 2
                && (tokens[i - 2].is_punct(')')
                    || tokens[i - 2].is_punct(']')
                    || tokens[i - 2].number().is_some()
                    || tokens[i - 2].ident().is_some_and(|id| id != "_"));
            let arith_op = i >= 1
                && (tokens[i - 1].is_punct('/')
                    || tokens[i - 1].is_punct('%')
                    || (operand_before
                        && ['&', '|', '^'].iter().any(|&c| tokens[i - 1].is_punct(c))));
            if div_ceil_arg || shift || arith_op {
                raw.push(Violation {
                    rule: RuleId::WordWidth,
                    file: file.to_string(),
                    line: tokens[i].line,
                    message: format!(
                        "hard-coded word width `{num}` — phrase it via WORD_BITS \
                         (word.rs is the only module that knows the packed width)"
                    ),
                });
            }
        }
    }

    for i in 0..tokens.len() {
        if in_test[i] || !in_rule_impl[i] {
            continue;
        }
        if tokens[i].is_ident("CellField") {
            raw.push(Violation {
                rule: RuleId::RuleFieldAccess,
                file: file.to_string(),
                line: tokens[i].line,
                message: "rule impls must not touch CellField directly — read through \
                          `own` / `Reads` only"
                    .to_string(),
            });
        }
        let raw_accessor = tokens[i].is_punct('.')
            && tokens
                .get(i + 1)
                .and_then(|t| t.ident())
                .is_some_and(|id| RAW_STATE_ACCESSORS.contains(&id))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('));
        if raw_accessor {
            let t = &tokens[i + 1];
            raw.push(Violation {
                rule: RuleId::RuleFieldAccess,
                file: file.to_string(),
                line: t.line,
                message: format!(
                    ".{}() inside a GcaRule impl bypasses the read-snapshot \
                     contract",
                    t.ident().unwrap_or_default()
                ),
            });
        }
    }

    if class.kernel {
        let mut i = 0usize;
        while i < tokens.len() {
            if in_test[i] || !tokens[i].is_ident("fn") {
                i += 1;
                continue;
            }
            let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) else {
                i += 1;
                continue;
            };
            if !name.ends_with("_rows") {
                i += 1;
                continue;
            }
            // Collect the `&mut` plane parameters (`ident: &mut …`) from
            // the signature — the chunk-relative slices the rule guards.
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('(') {
                j += 1;
            }
            let mut depth = 0usize;
            let mut mut_planes: Vec<&str> = Vec::new();
            let mut k = j;
            while k < tokens.len() {
                if tokens[k].is_punct('(') {
                    depth += 1;
                } else if tokens[k].is_punct(')') {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                if depth == 1 {
                    if let Some(p) = tokens[k].ident() {
                        if tokens.get(k + 1).is_some_and(|t| t.is_punct(':'))
                            && tokens.get(k + 2).is_some_and(|t| t.is_punct('&'))
                            && tokens.get(k + 3).is_some_and(|t| t.is_ident("mut"))
                        {
                            mut_planes.push(p);
                        }
                    }
                }
                k += 1;
            }
            // Body span (matching braces from the first `{`).
            let mut body_start = k;
            while body_start < tokens.len() && !tokens[body_start].is_punct('{') {
                body_start += 1;
            }
            let mut brace = 0usize;
            let mut body_end = body_start;
            while body_end < tokens.len() {
                if tokens[body_end].is_punct('{') {
                    brace += 1;
                } else if tokens[body_end].is_punct('}') {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                body_end += 1;
            }
            // `plane[ … base_row … ]` anywhere in the body.
            let mut t = body_start;
            while t < body_end {
                let plane = tokens[t].ident().filter(|id| mut_planes.contains(id));
                if let (Some(plane), true) = (
                    plane,
                    tokens.get(t + 1).is_some_and(|tk| tk.is_punct('[')),
                ) {
                    let mut bracket = 0usize;
                    let mut u = t + 1;
                    let mut names_base_row = false;
                    while u < tokens.len() && u <= body_end {
                        if tokens[u].is_punct('[') {
                            bracket += 1;
                        } else if tokens[u].is_punct(']') {
                            bracket -= 1;
                            if bracket == 0 {
                                break;
                            }
                        } else if tokens[u].is_ident("base_row") {
                            names_base_row = true;
                        }
                        u += 1;
                    }
                    if names_base_row {
                        raw.push(Violation {
                            rule: RuleId::RowRangePurity,
                            file: file.to_string(),
                            line: tokens[t].line,
                            message: format!(
                                "`{plane}[… base_row …]` in `{name}` — &mut planes arrive \
                                 pre-sliced to the chunk's row range; absolute-row indexing \
                                 is the off-by-one the partition prover exists to rule out"
                            ),
                        });
                    }
                    t = u + 1;
                    continue;
                }
                t += 1;
            }
            i = body_end + 1;
        }
    }

    // Inline suppression: an allow comment on the violation's line or the
    // line directly above it.
    let mut suppressed = 0usize;
    let violations = raw
        .into_iter()
        .filter(|v| {
            let allowed = lexed.allows.iter().any(|a| {
                (a.line == v.line || a.line + 1 == v.line)
                    && a.rules.iter().any(|r| r == v.rule.name())
            });
            if allowed {
                suppressed += 1;
            }
            !allowed
        })
        .collect();
    (violations, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const LIB: FileClass = FileClass {
        library: true,
        hot_path: false,
        word_home: false,
        kernel: false,
    };
    const HOT: FileClass = FileClass {
        library: true,
        hot_path: true,
        word_home: false,
        kernel: false,
    };
    const KERNEL: FileClass = FileClass {
        library: true,
        hot_path: false,
        word_home: false,
        kernel: true,
    };

    fn violations(src: &str, class: FileClass) -> Vec<Violation> {
        check_file("test.rs", &lex(src), class).0
    }

    #[test]
    fn unwrap_and_expect_calls_are_flagged() {
        let v = violations("fn f() { x.unwrap(); y.expect(\"msg\"); }", LIB);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == RuleId::NoUnwrap));
    }

    #[test]
    fn unwrap_or_variants_are_legal() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 0); x.unwrap_or_default(); }";
        assert!(violations(src, LIB).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}\n\
                   #[test]\nfn t() { y.unwrap(); }";
        assert!(violations(src, LIB).is_empty());
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }";
        assert_eq!(violations(src, LIB).len(), 1);
    }

    #[test]
    fn code_after_a_test_item_is_linted_again() {
        let src = "#[test]\nfn t() { y.unwrap(); }\nfn f() { x.unwrap(); }";
        let v = violations(src, LIB);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn unwrap_in_strings_and_comments_is_ignored() {
        let src = "fn f() { let s = \".unwrap()\"; } // .unwrap()";
        assert!(violations(src, LIB).is_empty());
    }

    #[test]
    fn binaries_may_unwrap() {
        let bin = FileClass {
            library: false,
            hot_path: false,
            word_home: false,
        kernel: false,
        };
        assert!(violations("fn main() { x.unwrap(); }", bin).is_empty());
    }

    #[test]
    fn word_width_arithmetic_is_flagged() {
        for src in [
            "fn f(i: usize) -> usize { i / 64 }",
            "fn f(i: usize) -> usize { i % 64 }",
            "fn f(i: usize) -> usize { i & 63 }",
            "fn f(i: u64) -> u64 { i >> 64 }",
            "fn f(n: usize) -> usize { n.div_ceil(64) }",
            "fn f(lane: u32) -> u64 { 1u64 << lane }",
            "fn f(xs: &[u32]) -> usize { xs[0] & 63 }",
        ] {
            let v = violations(src, LIB);
            assert_eq!(v.len(), 1, "{src}: {v:?}");
            assert_eq!(v[0].rule, RuleId::WordWidth, "{src}");
        }
    }

    #[test]
    fn word_width_type_and_value_uses_are_legal() {
        for src in [
            "fn f() -> Vec<u64> { Vec::new() }",
            "fn f(x: [u64; 64]) -> u64 { x[0] as u64 }",
            "const SIZES: [usize; 2] = [64, 256];",
            "fn f() { g(64); let n = 64; }",
            "fn f(xs: &[u32]) -> u32 { xs.iter().map(|_| 64).sum() }",
            "fn f(x: u64) -> u64 { x / 640 }",
            "fn f(x: u64) -> u64 { x << 6 }",
        ] {
            assert!(violations(src, LIB).is_empty(), "{src}");
        }
    }

    #[test]
    fn word_home_is_exempt_from_word_width() {
        let word_home = FileClass {
            library: true,
            hot_path: false,
            word_home: true,
        kernel: false,
        };
        let src = "pub fn word_of(i: usize) -> usize { i / 64 }";
        assert!(violations(src, word_home).is_empty());
        assert_eq!(violations(src, LIB).len(), 1);
    }

    #[test]
    fn narrowing_casts_are_flagged_in_hot_paths_only() {
        let src = "fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(violations(src, HOT).len(), 1);
        assert!(violations(src, LIB).is_empty());
    }

    #[test]
    fn widening_casts_are_legal() {
        let src = "fn f(x: u32) -> u64 { x as u64 + y as usize as u64 }";
        assert!(violations(src, HOT).is_empty());
    }

    #[test]
    fn rule_impls_must_not_touch_raw_state() {
        let src = "impl GcaRule for R {\n fn evolve(&self) { f.states_mut(); }\n}\n\
                   fn free() { f.states_mut(); }";
        let v = violations(src, LIB);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::RuleFieldAccess);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn naming_cellfield_in_a_rule_impl_is_flagged() {
        let src = "impl<S> GcaRule for R<S> { fn f(&self, field: &CellField<u32>) {} }";
        let v = violations(src, LIB);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::RuleFieldAccess);
    }

    #[test]
    fn inherent_impls_are_not_rule_impls() {
        let src = "impl R { fn f(&self, field: &CellField<u32>) { field.states(); } }";
        assert!(violations(src, LIB).is_empty());
    }

    #[test]
    fn base_row_indexing_of_mut_planes_is_flagged() {
        for src in [
            // Direct absolute-row write into the chunk-relative plane.
            "fn bad_rows(seg: &mut [u32], base_row: usize, n: usize) -> usize {\n\
                 seg[base_row * n] = 0; 0\n\
             }",
            // Slicing is indexing too.
            "fn bad_rows(seg: &mut [u32], base_row: usize, n: usize) -> usize {\n\
                 seg[base_row * n..].fill(0); 0\n\
             }",
            // Second &mut plane parameter is guarded as well.
            "fn bad_rows(seg: &mut [u32], occ: &mut [u64], base_row: usize) -> usize {\n\
                 occ[base_row] = 0; 0\n\
             }",
        ] {
            let v = violations(src, KERNEL);
            assert_eq!(v.len(), 1, "{src}: {v:?}");
            assert_eq!(v[0].rule, RuleId::RowRangePurity, "{src}");
            assert_eq!(v[0].line, 2, "{src}");
        }
    }

    #[test]
    fn row_range_purity_legal_patterns() {
        for src in [
            // base_row as a value, never an index.
            "fn init_rows(seg: &mut [u32], base_row: usize, n: usize) -> usize {\n\
                 for (r, row) in seg.chunks_mut(n).enumerate() {\n\
                     let v = (base_row + r) as u32;\n\
                     row[0] = v;\n\
                 }\n 0\n\
             }",
            // Read-only companion planes may use absolute rows.
            "fn filter_rows(seg: &mut [u32], dn: &[u32], base_row: usize) -> usize {\n\
                 let keep = dn[base_row];\n seg[0] = keep; 0\n\
             }",
            // Non-`_rows` functions are out of scope.
            "fn helper(seg: &mut [u32], base_row: usize) { seg[base_row] = 0; }",
        ] {
            assert!(violations(src, KERNEL).is_empty(), "{src}");
        }
        // The rule only applies to kernel-class files.
        let src = "fn bad_rows(seg: &mut [u32], base_row: usize) { seg[base_row] = 0; }";
        assert!(violations(src, LIB).is_empty());
        assert_eq!(violations(src, KERNEL).len(), 1);
    }

    #[test]
    fn row_range_purity_inline_allow_escape() {
        let src = "fn odd_rows(seg: &mut [u32], base_row: usize) -> usize {\n\
                   // gca-lint: allow(row-range-purity)\n\
                   seg[base_row] = 0; 0\n\
               }";
        let (v, suppressed) = check_file("t.rs", &lex(src), KERNEL);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn inline_allow_suppresses_same_and_next_line() {
        let same = "fn f() { x.unwrap(); } // gca-lint: allow(no-unwrap)";
        let (v, suppressed) = check_file("t.rs", &lex(same), LIB);
        assert!(v.is_empty());
        assert_eq!(suppressed, 1);
        let above = "// gca-lint: allow(no-unwrap)\nfn f() { x.unwrap(); }";
        assert!(violations(above, LIB).is_empty());
        let wrong_rule = "// gca-lint: allow(truncating-cast)\nfn f() { x.unwrap(); }";
        assert_eq!(violations(wrong_rule, LIB).len(), 1);
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::from_name(rule.name()), Some(rule));
        }
        assert_eq!(RuleId::from_name("nonsense"), None);
    }
}
