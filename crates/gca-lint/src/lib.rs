//! A workspace linter for the GCA contracts.
//!
//! Clippy checks general Rust; this crate checks promises specific to this
//! workspace, at the source level, over every `crates/*/src` file:
//!
//! 1. **rule-field-access** — `GcaRule` implementations read cell state
//!    only through the rule API (`own`, `Reads`), never through
//!    `CellField`'s raw accessors; the CROW/read-snapshot verification of
//!    the fast paths assumes exactly this.
//! 2. **no-unwrap** — non-test library code returns typed errors instead
//!    of calling `.unwrap()` / `.expect(…)` (the error-vs-panic policy of
//!    DESIGN.md).
//! 3. **truncating-cast** — the hot-path files (`sweep.rs`,
//!    `engine.rs`) contain no narrowing `as` casts.
//! 4. **word-width** — outside `word.rs`, no hard-coded 64/63 word-width
//!    arithmetic over the bit-packed adjacency plane: the packed word
//!    width is `word.rs`'s secret, and everything else phrases lane math
//!    through `WORD_BITS` / `AdjWord`.
//! 5. **row-range-purity** — in the kernel file (`sweep.rs`), `*_rows`
//!    functions never index their `&mut` plane
//!    parameters with `base_row`: the planes arrive pre-sliced to the
//!    chunk's row range, and absolute-row addressing is the off-by-one
//!    the partition prover (`gca-analyze --partition`) exists to rule
//!    out.
//!
//! There is no `syn` in the vendored dependency set, so the linter lexes
//! Rust by hand ([`lexer`]) — token-level matching is sufficient for the
//! catalog and immune to comments/strings, unlike `grep`. Suppression is
//! two-tier: inline `// gca-lint: allow(rule-name)` for single sites, and
//! the checked-in `lint.toml` ([`config::LintConfig`]) for whole files,
//! each entry carrying its reason as a comment.
//!
//! Run it as `gca-lint [--root <dir>]`, or through
//! `gca-analyze --lint` alongside the other static-verification layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;

pub use config::{ConfigError, LintConfig};
pub use rules::{FileClass, RuleId, Violation};

use std::fmt;
use std::path::{Path, PathBuf};

/// The outcome of linting a file set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Violations that survived inline and config suppression, in
    /// deterministic (path, line) order.
    pub violations: Vec<Violation>,
    /// Files lexed and checked.
    pub files_checked: usize,
    /// Sites suppressed by inline allow comments.
    pub inline_suppressed: usize,
    /// Violations waived by the `lint.toml` allow-list.
    pub config_suppressed: usize,
}

impl LintReport {
    /// Did the lint pass?
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A failure of the lint *run* itself (I/O, bad config) — distinct from
/// lint violations, which live in the [`LintReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LintError {
    /// A file or directory could not be read.
    Io {
        /// The path that failed.
        path: PathBuf,
        /// The OS error rendered as text.
        error: String,
    },
    /// `lint.toml` was present but invalid.
    Config(ConfigError),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, error } => write!(f, "reading {}: {error}", path.display()),
            LintError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

impl From<ConfigError> for LintError {
    fn from(e: ConfigError) -> Self {
        LintError::Config(e)
    }
}

/// Lints a single source text under a workspace-relative display path.
/// This is both the per-file worker of [`lint_workspace`] and the seam the
/// failure-injection suite uses to prove each rule catches a seeded
/// violation. Returns `(violations, inline_suppressed)`.
pub fn lint_source(rel_path: &str, source: &str, class: FileClass) -> (Vec<Violation>, usize) {
    rules::check_file(rel_path, &lexer::lex(source), class)
}

/// Classifies `rel_path` (workspace-relative, forward slashes) for
/// linting. `has_lib` says whether the containing crate ships a
/// `src/lib.rs`.
pub fn classify(rel_path: &str, has_lib: bool) -> FileClass {
    let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path);
    let library = has_lib && !rel_path.contains("/src/bin/") && file_name != "main.rs";
    FileClass {
        library,
        hot_path: matches!(file_name, "sweep.rs" | "engine.rs"),
        word_home: file_name == "word.rs",
        kernel: file_name == "sweep.rs",
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir).map_err(|e| LintError::Io {
        path: dir.to_path_buf(),
        error: e.to_string(),
    })?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io {
            path: dir.to_path_buf(),
            error: e.to_string(),
        })?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**/*.rs` under `root` (the workspace
/// checkout), applying `config`'s per-rule allow-list. Vendored
/// dependencies (`vendor/`) are external code and are not linted.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> Result<LintReport, LintError> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    let entries = std::fs::read_dir(&crates_dir).map_err(|e| LintError::Io {
        path: crates_dir.clone(),
        error: e.to_string(),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io {
            path: crates_dir.clone(),
            error: e.to_string(),
        })?;
        if entry.path().is_dir() {
            crate_dirs.push(entry.path());
        }
    }
    crate_dirs.sort();

    let mut report = LintReport::default();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let has_lib = src.join("lib.rs").is_file();
        let mut files = Vec::new();
        rust_sources(&src, &mut files)?;
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let source = std::fs::read_to_string(&file).map_err(|e| LintError::Io {
                path: file.clone(),
                error: e.to_string(),
            })?;
            let (violations, inline) = lint_source(&rel, &source, classify(&rel, has_lib));
            report.inline_suppressed += inline;
            for v in violations {
                if config.is_allowed(v.rule, &rel) {
                    report.config_suppressed += 1;
                } else {
                    report.violations.push(v);
                }
            }
            report.files_checked += 1;
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_separates_lib_bin_and_hot_paths() {
        assert_eq!(
            classify("crates/x/src/lib.rs", true),
            FileClass { library: true, hot_path: false, word_home: false, kernel: false }
        );
        assert_eq!(
            classify("crates/x/src/bin/tool.rs", true),
            FileClass { library: false, hot_path: false, word_home: false, kernel: false }
        );
        assert_eq!(
            classify("crates/x/src/main.rs", false),
            FileClass { library: false, hot_path: false, word_home: false, kernel: false }
        );
        assert_eq!(
            classify("crates/x/src/sweep.rs", true),
            FileClass { library: true, hot_path: true, word_home: false, kernel: true }
        );
        assert_eq!(
            classify("crates/gca-engine/src/engine.rs", true),
            FileClass { library: true, hot_path: true, word_home: false, kernel: false }
        );
        assert_eq!(
            classify("crates/gca-hirschberg/src/kernels.rs", true),
            FileClass { library: true, hot_path: false, word_home: false, kernel: false }
        );
        assert_eq!(
            classify("crates/gca-engine/src/word.rs", true),
            FileClass { library: true, hot_path: false, word_home: true, kernel: false }
        );
    }

    #[test]
    fn lint_source_reports_seeded_violations() {
        let class = FileClass { library: true, hot_path: true, word_home: false, kernel: true };
        let src = "fn f(x: u64) { x.unwrap(); let y = x as u32; let w = x & 63; }\n\
                   impl GcaRule for R { fn g(&self, f: &CellField<u32>) {} }\n\
                   fn bad_rows(seg: &mut [u32], base_row: usize, n: usize) {\n\
                       seg[base_row * n] = 0;\n\
                   }";
        let (v, _) = lint_source("seeded.rs", src, class);
        let rules: Vec<RuleId> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&RuleId::NoUnwrap), "{v:?}");
        assert!(rules.contains(&RuleId::TruncatingCast), "{v:?}");
        assert!(rules.contains(&RuleId::RuleFieldAccess), "{v:?}");
        assert!(rules.contains(&RuleId::WordWidth), "{v:?}");
        assert!(rules.contains(&RuleId::RowRangePurity), "{v:?}");
    }

    #[test]
    fn violations_render_with_location() {
        let class = FileClass { library: true, hot_path: false, word_home: false, kernel: false };
        let (v, _) = lint_source("crates/x/src/lib.rs", "fn f() { x.unwrap(); }", class);
        assert_eq!(v.len(), 1);
        let line = v[0].to_string();
        assert!(
            line.starts_with("crates/x/src/lib.rs:1: [no-unwrap]"),
            "{line}"
        );
    }
}
