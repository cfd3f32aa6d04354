//! The conformance rules and the token-stream engine that enforces them.
//!
//! Every rule machine-checks one clause of the workspace's two written
//! contracts — *bit-identical results under any thread count* and *never
//! panic on untrusted bytes*:
//!
//! | Rule | Contract | What it forbids | Where |
//! |------|----------|-----------------|-------|
//! | D1 | determinism | `mul_add` / `powi` / `fma` calls (FMA-contractible or expansion-order-dependent intrinsics) | numeric crates |
//! | D2 | determinism | `thread::spawn`, `Instant::now`, `SystemTime::now` (ad-hoc parallelism / wall-clock) | everywhere except `parallel`, `bench`, `server` |
//! | D3 | determinism | `HashMap` / `HashSet` (iteration order must never feed a float reduction) | numeric crates |
//! | D4 | hardening | `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert!`-family | untrusted-byte zones |
//! | D5 | hardening | a crate root missing `#![forbid(unsafe_code)]`; for [`D5_SHIM_EXEMPT`] crates the root carries `#![deny(unsafe_code)]` and the `unsafe` token is banned in every file but the sanctioned shim | every crate root + shim-exempt crate files |
//! | D6 | determinism | `f32` (all numerics are f64 by contract) | numeric crates |
//!
//! *Numeric crates*: `linalg`, `mixture`, `nn`, `privacy`, `preprocess`,
//! `core`. *Untrusted-byte zones*: all of `crates/store/src/`, plus
//! `crates/core/src/snapshot.rs` (the registry peeks every file dropped
//! into its model directory) and `crates/server/src/{http,json,ledger}.rs`.
//!
//! `#[cfg(test)]` items are exempt from the token rules (tests *should*
//! `unwrap()`), and `debug_assert*` is deliberately not matched by D4:
//! it compiles out of release builds, so it cannot be a remote panic.
//!
//! ## The escape hatch
//!
//! A violation is suppressible only by an annotation on the offending
//! line (trailing) or on a comment line directly above it:
//!
//! ```text
//! let x = t.powi(2); // conform: allow(d1) — scalar of a loop counter, no data-order dependence
//! ```
//!
//! The justification after the dash is **required**, and an annotation
//! that suppresses nothing is itself a violation (`A0`), so stale or
//! malformed exceptions cannot accumulate silently.

use crate::lexer::{lex, Token, TokenKind};
use std::fmt;

/// The crates whose kernels feed float reductions: D1/D3/D6 territory.
pub const NUMERIC_CRATES: &[&str] = &["linalg", "mixture", "nn", "privacy", "preprocess", "core"];

/// Crates allowed to spawn threads and read clocks (D2 exemptions).
pub const D2_EXEMPT_CRATES: &[&str] = &["parallel", "bench", "server"];

/// Files whose inputs are untrusted bytes: the D4 no-panic zones.
pub const D4_ZONES: &[&str] = &[
    "crates/store/src/",
    "crates/core/src/snapshot.rs",
    "crates/server/src/http.rs",
    "crates/server/src/json.rs",
    "crates/server/src/ledger.rs",
];

/// D5 file-level shim exemptions: `(crate root, sanctioned shim file)`
/// pairs. The named crate confines all `unsafe` to exactly one file (the
/// server's `poll(2)` FFI shim). Its root then carries
/// `#![deny(unsafe_code)]` instead of `forbid` — `forbid` would reject
/// the shim's file-level `#![allow(unsafe_code)]` override — and in
/// exchange D5 tightens from an attribute check to a token rule: the
/// `unsafe` keyword is banned outright in **every** file of that crate
/// except the sanctioned shim, so the confinement the compiler no longer
/// proves is machine-checked here instead.
pub const D5_SHIM_EXEMPT: &[(&str, &str)] =
    &[("crates/server/src/lib.rs", "crates/server/src/sys.rs")];

/// Identifies one conformance rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// No FMA-contractible / expansion-order-dependent float intrinsics.
    D1,
    /// No ad-hoc threads or wall-clock reads outside the sanctioned crates.
    D2,
    /// No hash-ordered collections in numeric crates.
    D3,
    /// No panic paths in the untrusted-byte zones.
    D4,
    /// Crate roots must `#![forbid(unsafe_code)]`.
    D5,
    /// No `f32` in numeric crates.
    D6,
    /// Meta-rule: `conform: allow` annotations must be well-formed,
    /// justified, and actually suppress something.
    A0,
}

impl RuleId {
    /// All checkable source rules, in order (excludes the meta-rule).
    pub const ALL: [RuleId; 6] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::D6,
    ];

    /// Parses `"d1"` / `"D1"` / ... Returns `None` for unknown ids.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim().to_ascii_lowercase().as_str() {
            "d1" => Some(RuleId::D1),
            "d2" => Some(RuleId::D2),
            "d3" => Some(RuleId::D3),
            "d4" => Some(RuleId::D4),
            "d5" => Some(RuleId::D5),
            "d6" => Some(RuleId::D6),
            "a0" => Some(RuleId::A0),
            _ => None,
        }
    }

    /// One-line description, used by `--list-rules` and the README table.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "no mul_add/powi/fma in numeric crates (FMA contraction breaks bit-identity)"
            }
            RuleId::D2 => {
                "no thread::spawn/Instant::now/SystemTime::now outside parallel, bench, server"
            }
            RuleId::D3 => "no HashMap/HashSet in numeric crates (iteration order feeds reductions)",
            RuleId::D4 => {
                "no unwrap/expect/panic!/unreachable!/todo!/assert! in untrusted-byte zones"
            }
            RuleId::D5 => {
                "every crate root must carry #![forbid(unsafe_code)] (shim-exempt crates: \
                 #![deny(unsafe_code)] at the root, `unsafe` only in the sanctioned shim file)"
            }
            RuleId::D6 => "no f32 in numeric crates (all numerics are f64 by contract)",
            RuleId::A0 => "conform: allow annotations must parse, justify, and suppress something",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
            RuleId::A0 => "A0",
        };
        f.write_str(s)
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Which token rules apply to a workspace-relative path, and whether the
/// file is a crate root (D5). Paths must be `/`-separated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope {
    pub d1: bool,
    pub d2: bool,
    pub d3: bool,
    pub d4: bool,
    pub d5: bool,
    pub d6: bool,
    /// D5's token form for [`D5_SHIM_EXEMPT`] crates: the `unsafe`
    /// keyword is banned in this file (it is not the sanctioned shim).
    pub d5_unsafe_token: bool,
}

impl Scope {
    /// Whether no rule at all applies (the file need not be read).
    pub fn is_empty(&self) -> bool {
        !(self.d1 || self.d2 || self.d3 || self.d4 || self.d5 || self.d6 || self.d5_unsafe_token)
    }
}

/// Splits `crates/<name>/src/<rest>` (or the facade's `src/<rest>`) into
/// the owning crate name and the path inside `src/`.
fn crate_src(path: &str) -> Option<(&str, &str)> {
    if let Some(rest) = path.strip_prefix("crates/") {
        let (name, tail) = rest.split_once('/')?;
        let inside = tail.strip_prefix("src/")?;
        Some((name, inside))
    } else {
        path.strip_prefix("src/").map(|inside| ("p3gm", inside))
    }
}

/// Computes the rules in scope for a workspace-relative `/`-separated
/// path. Files outside every scope (tests, benches, examples, non-Rust
/// trees) come back [`Scope::is_empty`].
pub fn scope_for(path: &str) -> Scope {
    let mut scope = Scope::default();
    let Some((crate_name, inside)) = crate_src(path) else {
        return scope;
    };
    let numeric = NUMERIC_CRATES.contains(&crate_name);
    scope.d1 = numeric;
    scope.d3 = numeric;
    scope.d6 = numeric;
    scope.d2 = crate_name != "p3gm" && !D2_EXEMPT_CRATES.contains(&crate_name);
    scope.d4 = D4_ZONES
        .iter()
        .any(|zone| path == *zone || (zone.ends_with('/') && path.starts_with(zone)));
    scope.d5 = inside == "lib.rs" || inside == "main.rs";
    // Shim-exempt crates trade the compiler-proved `forbid` for a
    // conform-proved token ban: `unsafe` may appear only in the one
    // sanctioned shim file.
    scope.d5_unsafe_token = D5_SHIM_EXEMPT.iter().any(|(root, shim)| {
        let Some((dir, _)) = root.rsplit_once('/') else {
            return false;
        };
        path != *shim
            && path
                .strip_prefix(dir)
                .is_some_and(|rest| rest.starts_with('/'))
    });
    scope
}

/// A parsed `conform: allow(...)` annotation.
#[derive(Debug)]
struct AllowSite {
    /// Line the annotation's comment starts on (for reporting).
    comment_line: u32,
    /// Line whose violations it suppresses (same line for a trailing
    /// comment, the next code line for a standalone comment line).
    effective_line: Option<u32>,
    rules: Vec<RuleId>,
    /// The annotation could not be parsed or lacks a justification.
    malformed: bool,
    used: bool,
}

/// Checks one file's source against the rules in scope for `path`.
///
/// `path` must be workspace-relative and `/`-separated (as produced by
/// [`crate::scan_workspace`]). Returns all unsuppressed violations plus
/// any `A0` annotation problems; the empty vector means the file
/// conforms. Never panics, whatever `src` contains.
pub fn check_source(path: &str, src: &[u8]) -> Vec<Violation> {
    let scope = scope_for(path);
    if scope.is_empty() {
        return Vec::new();
    }
    let tokens = lex(src);
    let code: Vec<Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .copied()
        .collect();
    let comments: Vec<Token> = tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .copied()
        .collect();
    let in_test = test_item_mask(&code, src);

    // Annotations whose target line is `#[cfg(test)]` code are ignored
    // outright (the rules don't fire there, so they can be neither used
    // nor meaningfully stale).
    let test_lines: std::collections::BTreeSet<u32> = code
        .iter()
        .zip(in_test.iter())
        .filter(|(_, &t)| t)
        .map(|(tok, _)| tok.line)
        .collect();
    let mut allows: Vec<AllowSite> = collect_allows(&comments, &code, src)
        .into_iter()
        .filter(|site| {
            site.malformed
                || site
                    .effective_line
                    .is_none_or(|line| !test_lines.contains(&line))
        })
        .collect();
    let mut violations = Vec::new();

    let mut push = |line: u32, rule: RuleId, message: String, allows: &mut Vec<AllowSite>| {
        for site in allows.iter_mut() {
            if !site.malformed && site.effective_line == Some(line) && site.rules.contains(&rule) {
                site.used = true;
                return;
            }
        }
        violations.push(Violation {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };

    // --- Token rules over non-test code -------------------------------
    for i in 0..code.len() {
        if in_test[i] {
            continue;
        }
        let tok = code[i];
        let text = tok.text(src);
        let next = code.get(i + 1).copied();
        let next_is = |p: u8| next.map(|t| t.kind) == Some(TokenKind::Punct(p));

        if scope.d1
            && tok.kind == TokenKind::Ident
            && matches!(text, b"mul_add" | b"powi" | b"fma")
            && next_is(b'(')
        {
            let name = String::from_utf8_lossy(text);
            push(
                tok.line,
                RuleId::D1,
                format!("`{name}` is FMA-contractible / expansion-order-dependent; spell the arithmetic out so codegen cannot reassociate it"),
                &mut allows,
            );
        }

        if scope.d2 && tok.kind == TokenKind::Ident {
            let tail = path_tail(&code, src, i);
            let banned = match text {
                b"thread" if tail == Some(b"spawn" as &[u8]) => Some("thread::spawn"),
                b"Instant" if tail == Some(b"now" as &[u8]) => Some("Instant::now"),
                b"SystemTime" if tail == Some(b"now" as &[u8]) => Some("SystemTime::now"),
                _ => None,
            };
            if let Some(call) = banned {
                push(
                    tok.line,
                    RuleId::D2,
                    format!("`{call}` outside crates/parallel, crates/bench, crates/server — all parallelism and timing go through p3gm-parallel or the server"),
                    &mut allows,
                );
            }
        }

        if scope.d3 && tok.kind == TokenKind::Ident && matches!(text, b"HashMap" | b"HashSet") {
            let name = String::from_utf8_lossy(text);
            push(
                tok.line,
                RuleId::D3,
                format!("`{name}` has randomized iteration order; use BTreeMap/BTreeSet or a Vec so reductions stay bit-identical"),
                &mut allows,
            );
        }

        if scope.d4 && tok.kind == TokenKind::Ident {
            let prev_is_dot = i > 0 && code[i - 1].kind == TokenKind::Punct(b'.');
            let method = match text {
                b"unwrap" if prev_is_dot && next_is(b'(') => Some(".unwrap()"),
                b"expect" if prev_is_dot && next_is(b'(') => Some(".expect(...)"),
                _ => None,
            };
            let mac = match text {
                b"panic" | b"unreachable" | b"todo" | b"unimplemented" | b"assert"
                | b"assert_eq" | b"assert_ne"
                    if next_is(b'!') =>
                {
                    Some(String::from_utf8_lossy(text))
                }
                _ => None,
            };
            if let Some(m) = method {
                push(
                    tok.line,
                    RuleId::D4,
                    format!("{m} in an untrusted-byte zone; return a typed error instead"),
                    &mut allows,
                );
            } else if let Some(m) = mac {
                push(
                    tok.line,
                    RuleId::D4,
                    format!("`{m}!` in an untrusted-byte zone; hostile input must map to a typed error, never a panic"),
                    &mut allows,
                );
            }
        }

        if scope.d5_unsafe_token && tok.kind == TokenKind::Ident && text == b"unsafe" {
            push(
                tok.line,
                RuleId::D5,
                "`unsafe` outside the sanctioned shim file of a D5 shim-exempt crate (see D5_SHIM_EXEMPT); all unsafe code must stay confined to that one file".to_string(),
                &mut allows,
            );
        }

        if scope.d6 && tok.kind == TokenKind::Ident && text == b"f32" {
            push(
                tok.line,
                RuleId::D6,
                "f32 in a numeric crate; the determinism and accuracy contracts are stated for f64 only".to_string(),
                &mut allows,
            );
        }
    }

    // --- D5: crate roots must forbid unsafe code ----------------------
    if scope.d5 {
        let shim_root = D5_SHIM_EXEMPT.iter().any(|(root, _)| path == *root);
        if shim_root {
            // A shim-exempt root must still deny unsafe crate-wide
            // (forbid would reject the shim's file-level allow; the
            // token rule above covers what deny leaves overridable).
            if !has_unsafe_lint(&code, src, b"deny") && !has_unsafe_lint(&code, src, b"forbid") {
                push(
                    1,
                    RuleId::D5,
                    "crate root of a D5 shim-exempt crate is missing `#![deny(unsafe_code)]`"
                        .to_string(),
                    &mut allows,
                );
            }
        } else if !has_unsafe_lint(&code, src, b"forbid") {
            push(
                1,
                RuleId::D5,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
                &mut allows,
            );
        }
    }

    // --- A0: malformed / stale annotations ----------------------------
    for site in &allows {
        if site.malformed {
            violations.push(Violation {
                path: path.to_string(),
                line: site.comment_line,
                rule: RuleId::A0,
                message: "malformed annotation — expected `conform: allow(d1[, d4...]) — <justification>` with a non-empty justification".to_string(),
            });
        } else if !site.used {
            let rules: Vec<String> = site.rules.iter().map(|r| r.to_string()).collect();
            violations.push(Violation {
                path: path.to_string(),
                line: site.comment_line,
                rule: RuleId::A0,
                message: format!(
                    "stale `conform: allow({})` — it suppresses no violation; delete it",
                    rules.join(", ")
                ),
            });
        }
    }

    violations.sort_by_key(|a| (a.line, a.rule));
    violations
}

/// For D2: if `code[i]` is followed by `::ident`, the trailing ident.
fn path_tail<'a>(code: &[Token], src: &'a [u8], i: usize) -> Option<&'a [u8]> {
    if code.get(i + 1)?.kind != TokenKind::Punct(b':') {
        return None;
    }
    if code.get(i + 2)?.kind != TokenKind::Punct(b':') {
        return None;
    }
    let tail = code.get(i + 3)?;
    if tail.kind != TokenKind::Ident {
        return None;
    }
    Some(tail.text(src))
}

/// Whether the token stream contains `#![<level>(unsafe_code)]` for the
/// given lint level (token subsequence, so formatting and attribute
/// grouping don't matter).
fn has_unsafe_lint(code: &[Token], src: &[u8], level: &[u8]) -> bool {
    let mut i = 0;
    while i + 2 < code.len() {
        if code[i].kind == TokenKind::Punct(b'#')
            && code[i + 1].kind == TokenKind::Punct(b'!')
            && code[i + 2].kind == TokenKind::Punct(b'[')
        {
            let end = matching_bracket(code, i + 2);
            let mut saw_level = false;
            let mut saw_unsafe_code = false;
            for tok in code.iter().take(end).skip(i + 3) {
                if tok.kind == TokenKind::Ident {
                    let text = tok.text(src);
                    if text == level {
                        saw_level = true;
                    } else if text == b"unsafe_code" {
                        saw_unsafe_code = true;
                    }
                }
            }
            if saw_level && saw_unsafe_code {
                return true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    false
}

/// Index of the `]` matching the `[` at `open` (brackets nest inside
/// attributes via expressions). Returns `code.len() - 1`-ish bounds-safe
/// fallback when unmatched.
fn matching_bracket(code: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < code.len() {
        match code[i].kind {
            TokenKind::Punct(b'[') => depth += 1,
            TokenKind::Punct(b']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

/// Marks tokens belonging to `#[cfg(test)]` items (the attribute, any
/// stacked attributes after it, and the item body through its matching
/// closing brace or terminating semicolon).
fn test_item_mask(code: &[Token], src: &[u8]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        // Inner attribute `#![...]`: skip, never a test item marker.
        if code[i].kind == TokenKind::Punct(b'#')
            && code.get(i + 1).map(|t| t.kind) == Some(TokenKind::Punct(b'!'))
            && code.get(i + 2).map(|t| t.kind) == Some(TokenKind::Punct(b'['))
        {
            i = matching_bracket(code, i + 2) + 1;
            continue;
        }
        // Outer attribute `#[...]`.
        if code[i].kind == TokenKind::Punct(b'#')
            && code.get(i + 1).map(|t| t.kind) == Some(TokenKind::Punct(b'['))
        {
            let close = matching_bracket(code, i + 1);
            if attr_is_cfg_test(code, src, i + 2, close) {
                let start = i;
                // Skip any further stacked attributes.
                let mut j = close + 1;
                while j < code.len()
                    && code[j].kind == TokenKind::Punct(b'#')
                    && code.get(j + 1).map(|t| t.kind) == Some(TokenKind::Punct(b'['))
                {
                    j = matching_bracket(code, j + 1) + 1;
                }
                // Consume the item: through a balanced `{...}` block or
                // to a top-level `;`, whichever comes first.
                let mut depth = 0usize;
                while j < code.len() {
                    match code[j].kind {
                        TokenKind::Punct(b'{') => depth += 1,
                        TokenKind::Punct(b'}') => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        TokenKind::Punct(b';') if depth == 0 => {
                            j += 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                for flag in mask.iter_mut().take(j.min(code.len())).skip(start) {
                    *flag = true;
                }
                i = j;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Whether the attribute tokens in `code[start..close]` spell a
/// `cfg(...)` whose arguments mention `test`.
fn attr_is_cfg_test(code: &[Token], src: &[u8], start: usize, close: usize) -> bool {
    let mut saw_cfg = false;
    let mut saw_test = false;
    for tok in code.iter().take(close).skip(start) {
        if tok.kind == TokenKind::Ident {
            match tok.text(src) {
                b"cfg" => saw_cfg = true,
                b"test" => saw_test = true,
                _ => {}
            }
        }
    }
    saw_cfg && saw_test
}

/// Extracts every `conform: allow(...)` annotation from the comments.
fn collect_allows(comments: &[Token], code: &[Token], src: &[u8]) -> Vec<AllowSite> {
    let mut sites = Vec::new();
    for comment in comments {
        let Some((rules, well_formed)) = parse_allow(comment.text(src)) else {
            continue;
        };
        let trailing = code
            .iter()
            .any(|t| t.line == comment.line && t.start < comment.start);
        let effective_line = if trailing {
            Some(comment.line)
        } else {
            // Standalone comment line: applies to the next code line.
            code.iter().map(|t| t.line).find(|&l| l > comment.line)
        };
        sites.push(AllowSite {
            comment_line: comment.line,
            effective_line,
            rules,
            malformed: !well_formed,
            used: false,
        });
    }
    sites
}

/// Parses one comment's bytes. Returns `Some((rules, well_formed))` when
/// the comment *is* an annotation — i.e. `conform:` is the first thing
/// after the comment opener (so prose that merely mentions the marker,
/// `p3gm_conform::` paths, and doc examples showing annotations after
/// code are not annotations). `well_formed` is false when the
/// annotation is unparseable or lacks a justification.
fn parse_allow(comment: &[u8]) -> Option<(Vec<RuleId>, bool)> {
    let text = String::from_utf8_lossy(comment);
    let stripped = text.trim_start_matches(['/', '!', '*']).trim_start();
    let rest = stripped.strip_prefix("conform:")?.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return Some((Vec::new(), false));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Some((Vec::new(), false));
    };
    let Some(close) = rest.find(')') else {
        return Some((Vec::new(), false));
    };
    let mut rules = Vec::new();
    for part in rest[..close].split(',') {
        match RuleId::parse(part) {
            Some(rule) => rules.push(rule),
            None => return Some((Vec::new(), false)),
        }
    }
    if rules.is_empty() {
        return Some((Vec::new(), false));
    }
    // Justification: a dash separator followed by non-empty prose.
    let after = rest[close + 1..].trim_start();
    let justification = after
        .strip_prefix("—")
        .or_else(|| after.strip_prefix("--"))
        .or_else(|| after.strip_prefix('-'))
        .or_else(|| after.strip_prefix(':'))
        .map(str::trim);
    match justification {
        Some(j) if j.chars().filter(|c| c.is_alphanumeric()).count() >= 3 => Some((rules, true)),
        _ => Some((rules, false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NUMERIC_PATH: &str = "crates/linalg/src/matrix.rs";
    const ZONE_PATH: &str = "crates/store/src/lib.rs";

    fn rules_hit(path: &str, src: &str) -> Vec<RuleId> {
        check_source(path, src.as_bytes())
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn scope_assignment() {
        let s = scope_for("crates/linalg/src/matrix.rs");
        assert!(s.d1 && s.d3 && s.d6 && s.d2 && !s.d4 && !s.d5);
        let s = scope_for("crates/linalg/src/lib.rs");
        assert!(s.d5);
        let s = scope_for("crates/server/src/http.rs");
        assert!(!s.d1 && !s.d2 && s.d4 && !s.d5 && s.d5_unsafe_token);
        // Server files carry no token rule but the D5 unsafe ban (the
        // crate root denies rather than forbids, for the sys.rs shim).
        let s = scope_for("crates/server/src/registry.rs");
        assert!(!s.is_empty() && s.d5_unsafe_token && !s.d4 && !s.d2);
        // The sanctioned shim itself is the one file allowed `unsafe`.
        let s = scope_for("crates/server/src/sys.rs");
        assert!(s.is_empty() && !s.d5_unsafe_token);
        let s = scope_for("crates/server/src/lib.rs");
        assert!(s.d5 && s.d5_unsafe_token);
        // Other crates are untouched by the shim exemption.
        let s = scope_for("crates/obs/src/metrics.rs");
        assert!(!s.d5_unsafe_token);
        let s = scope_for("crates/parallel/src/lib.rs");
        assert!(!s.d2 && s.d5);
        let s = scope_for("crates/store/src/lib.rs");
        assert!(s.d4 && s.d5 && s.d2);
        let s = scope_for("src/lib.rs");
        assert!(s.d5 && !s.d2);
        // Every file of the obs crate is under D2: it reads no clock.
        let s = scope_for("crates/obs/src/lib.rs");
        assert!(s.d2 && s.d5 && !s.d1);
        let s = scope_for("crates/obs/src/time.rs");
        assert!(s.d2 && !s.d5);
        assert!(scope_for("tests/conformance.rs").is_empty());
        assert!(scope_for("crates/linalg/benches/kernels.rs").is_empty());
        assert!(scope_for("vendor/rand/src/lib.rs").is_empty());
    }

    #[test]
    fn d1_fires_on_fma_style_calls() {
        let src = "fn f(a: f64) -> f64 { a.mul_add(2.0, 1.0) }";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![RuleId::D1]);
        let src = "fn f(a: f64) -> f64 { a.powi(3) }";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![RuleId::D1]);
        // Mentions in comments and strings do not count.
        let src = "// no mul_add here\nfn f() -> &'static str { \"powi(2)\" }";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![]);
        // An identifier that merely contains the name does not count.
        let src = "fn f(powi_table: &[f64]) -> f64 { powi_table[0] }";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![]);
    }

    #[test]
    fn d2_fires_on_threads_and_clocks() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![RuleId::D2]);
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![RuleId::D2]);
        let src = "fn f() { let t = SystemTime::now(); }";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![RuleId::D2]);
        // The sanctioned crates are exempt.
        assert_eq!(
            rules_hit(
                "crates/parallel/src/pool.rs",
                "fn f() { std::thread::spawn(|| {}); }"
            ),
            vec![]
        );
        // `Instant::elapsed`, `thread::sleep` etc. are fine.
        let src = "fn f(t: Instant) { let _ = t.elapsed(); thread::sleep(d); }";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![]);
    }

    #[test]
    fn d3_fires_on_hash_collections() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, f64> = HashMap::new(); }";
        let hits = rules_hit(NUMERIC_PATH, src);
        assert!(!hits.is_empty() && hits.iter().all(|r| *r == RuleId::D3));
        let src = "use std::collections::BTreeMap;";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![]);
    }

    #[test]
    fn d4_fires_on_panic_paths_in_zones() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }";
        assert_eq!(rules_hit(ZONE_PATH, src), vec![RuleId::D4, RuleId::D5]);
        let src = "#![forbid(unsafe_code)]\nfn f(v: Option<u32>) -> u32 { v.expect(\"set\") }";
        assert_eq!(rules_hit(ZONE_PATH, src), vec![RuleId::D4]);
        let src = "#![forbid(unsafe_code)]\nfn f() { panic!(\"boom\"); }";
        assert_eq!(rules_hit(ZONE_PATH, src), vec![RuleId::D4]);
        let src = "#![forbid(unsafe_code)]\nfn f(n: usize) { assert!(n < 4); }";
        assert_eq!(rules_hit(ZONE_PATH, src), vec![RuleId::D4]);
        // unwrap_or_else / unwrap_or are fine; debug_assert compiles out.
        let src = "#![forbid(unsafe_code)]\nfn f(v: Option<u32>) -> u32 { debug_assert!(true); v.unwrap_or_else(|| 0).min(v.unwrap_or(1)) }";
        assert_eq!(rules_hit(ZONE_PATH, src), vec![]);
        // Outside a zone, unwrap is not D4's business.
        assert_eq!(
            rules_hit(NUMERIC_PATH, "fn f(v: Option<u32>) -> u32 { v.unwrap() }"),
            vec![]
        );
    }

    #[test]
    fn d4_skips_cfg_test_items() {
        let src = r#"#![forbid(unsafe_code)]
fn decode(v: Option<u32>) -> Option<u32> { v }

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip() {
        super::decode(Some(1)).unwrap();
        panic!("tests may panic");
    }
}
"#;
        assert_eq!(rules_hit(ZONE_PATH, src), vec![]);
        // ... but code after the test module is still checked.
        let tail = format!("{src}\nfn late(v: Option<u32>) -> u32 {{ v.unwrap() }}");
        assert_eq!(rules_hit(ZONE_PATH, &tail), vec![RuleId::D4]);
    }

    #[test]
    fn d5_requires_forbid_unsafe() {
        assert_eq!(
            rules_hit("crates/linalg/src/lib.rs", "pub mod matrix;"),
            vec![RuleId::D5]
        );
        assert_eq!(
            rules_hit(
                "crates/linalg/src/lib.rs",
                "//! Docs first.\n#![forbid(unsafe_code)]\npub mod matrix;"
            ),
            vec![]
        );
        // deny is not forbid.
        assert_eq!(
            rules_hit(
                "crates/linalg/src/lib.rs",
                "#![deny(unsafe_code)]\npub mod m;"
            ),
            vec![RuleId::D5]
        );
        // Non-root server files carry no attribute requirement (the
        // shim exemption's token rule watches them instead).
        assert_eq!(
            rules_hit("crates/server/src/registry.rs", "pub fn f() {}"),
            vec![]
        );
    }

    #[test]
    fn d5_shim_exemption_accepts_deny_at_the_root() {
        // The shim-exempt root may deny instead of forbid...
        assert_eq!(
            rules_hit(
                "crates/server/src/lib.rs",
                "#![deny(unsafe_code)]\npub mod http;"
            ),
            vec![]
        );
        // ...forbid is also fine (stricter than required)...
        assert_eq!(
            rules_hit(
                "crates/server/src/lib.rs",
                "#![forbid(unsafe_code)]\npub mod http;"
            ),
            vec![]
        );
        // ...but no unsafe lint at all still fails D5.
        assert_eq!(
            rules_hit("crates/server/src/lib.rs", "pub mod http;"),
            vec![RuleId::D5]
        );
        // allow(unsafe_code) at the root does not satisfy the deny check.
        assert_eq!(
            rules_hit(
                "crates/server/src/lib.rs",
                "#![allow(unsafe_code)]\npub mod http;"
            ),
            vec![RuleId::D5]
        );
    }

    #[test]
    fn d5_bans_the_unsafe_token_outside_the_shim() {
        let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }";
        // Any server file other than the shim: D5 fires on the token.
        assert_eq!(
            rules_hit("crates/server/src/registry.rs", src),
            vec![RuleId::D5]
        );
        // The crate root itself is also covered by the token rule.
        let root = format!("#![deny(unsafe_code)]\n{src}");
        assert_eq!(
            rules_hit("crates/server/src/lib.rs", &root),
            vec![RuleId::D5]
        );
        // The sanctioned shim is out of scope entirely.
        assert_eq!(rules_hit("crates/server/src/sys.rs", src), vec![]);
        // Mentions in comments and strings do not count.
        assert_eq!(
            rules_hit(
                "crates/server/src/registry.rs",
                "// unsafe in prose\nfn f() -> &'static str { \"unsafe\" }"
            ),
            vec![]
        );
        // Other crates' non-root files never pick up the token rule.
        assert_eq!(rules_hit("crates/obs/src/metrics.rs", src), vec![]);
    }

    #[test]
    fn d6_fires_on_f32() {
        assert_eq!(
            rules_hit(NUMERIC_PATH, "fn f(x: f32) -> f32 { x }"),
            vec![RuleId::D6, RuleId::D6]
        );
        assert_eq!(rules_hit(NUMERIC_PATH, "fn f(x: f64) -> f64 { x }"), vec![]);
    }

    #[test]
    fn allow_suppresses_with_justification() {
        let src = "fn f(a: f64, t: i32) -> f64 { a.powi(t) } // conform: allow(d1) — scalar of a loop counter, no reduction order at stake";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![]);
        // Standalone annotation on the line above.
        let src = "// conform: allow(d1) — scalar bias correction\nfn f(a: f64, t: i32) -> f64 { a.powi(t) }";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![]);
        // Multiple rules in one annotation.
        let src = "fn f(m: &HashMap<u32, f32>) {} // conform: allow(d3, d6) — adapter signature mandated by an external trait";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![]);
    }

    #[test]
    fn allow_without_justification_is_malformed() {
        let src = "fn f(a: f64) -> f64 { a.powi(2) } // conform: allow(d1)";
        let hits = rules_hit(NUMERIC_PATH, src);
        // The annotation does not suppress, and is itself flagged.
        assert!(hits.contains(&RuleId::D1), "{hits:?}");
        assert!(hits.contains(&RuleId::A0), "{hits:?}");
        let src = "fn f(a: f64) -> f64 { a.powi(2) } // conform: allow(d1) — ";
        let hits = rules_hit(NUMERIC_PATH, src);
        assert!(hits.contains(&RuleId::A0), "{hits:?}");
        // Unknown rule name.
        let src = "fn f() {} // conform: allow(d9) — whatever";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![RuleId::A0]);
    }

    #[test]
    fn stale_allow_is_flagged() {
        let src =
            "fn f(a: f64) -> f64 { a + 1.0 } // conform: allow(d1) — left over from a deleted powi";
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![RuleId::A0]);
        // An allow for the wrong rule is stale even when another fires.
        let src = "fn f(a: f32) -> f32 { a } // conform: allow(d1) — wrong rule id";
        let hits = rules_hit(NUMERIC_PATH, src);
        assert!(
            hits.contains(&RuleId::D6) && hits.contains(&RuleId::A0),
            "{hits:?}"
        );
    }

    #[test]
    fn allow_in_test_code_is_ignored() {
        let src = r#"#[cfg(test)]
mod tests {
    // conform: allow(d1) — annotations in test code are inert
    fn helper(a: f64) -> f64 { a.powi(2) }
}
"#;
        assert_eq!(rules_hit(NUMERIC_PATH, src), vec![]);
    }

    #[test]
    fn out_of_scope_files_produce_nothing() {
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() } // mul_add powi HashMap f32";
        assert_eq!(rules_hit("tests/integration.rs", src), vec![]);
        assert_eq!(rules_hit("vendor/rand/src/lib.rs", src), vec![]);
    }

    #[test]
    fn violations_carry_location_and_text() {
        let src = "#![forbid(unsafe_code)]\n\nfn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        let violations = check_source(ZONE_PATH, src.as_bytes());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].line, 4);
        assert_eq!(violations[0].rule, RuleId::D4);
        assert!(violations[0]
            .to_string()
            .contains("crates/store/src/lib.rs:4"));
    }
}
