//! Source-level concurrency-soundness checks (the `CMR-S0xx` series).
//!
//! The same compiler-front-end philosophy as the asset checks, pointed at
//! the workspace's own `.rs` files: a small hand-rolled scanner (no
//! syntax tree, no new dependencies) cleans comments and string literals
//! out of each file, tracks brace depth and a few interesting regions
//! (`#[cfg(test)]` items, `impl Drop for` bodies, `extern "C" fn` signal
//! handlers, `#[allow(clippy::unwrap_used)]` spans), then runs
//! line-oriented pattern checks:
//!
//! * **CMR-S001** — a `Mutex`/`RwLock` guard held across `.send()`,
//!   `.recv()`, or file/socket I/O in the same block;
//! * **CMR-S002** — `.unwrap()` (warning) or `.expect(` (note) outside
//!   `#[cfg(test)]` in a crate that denies `clippy::unwrap_used`;
//! * **CMR-S003** — allocation or panic-capable calls inside an
//!   `extern "C" fn` body (the signal-handler region);
//! * **CMR-S004** — panic-capable calls inside `impl Drop for` bodies
//!   (a panic in drop during unwind is an abort);
//! * **CMR-S006** — `.lock().unwrap()`-style poison propagation where
//!   the workspace convention is poison *recovery*;
//! * **CMR-S007** — `let _ = ….lock()`, which drops the guard
//!   immediately (almost always a lost critical section);
//! * **CMR-S008** — `thread::sleep` while a guard is live.
//!
//! Deliberate exceptions are annotated in the source with
//! `// cmr:allow(S001) -- reason`, which downgrades the finding on the
//! same or the following line to `Note` — still visible in every report,
//! never failing `--deny warnings`. This mirrors how the asset checks
//! treat deliberate-but-suspicious patterns.

use crate::{Diagnostic, Severity};
use std::path::{Path, PathBuf};

/// One source file presented to the checks. Tests feed synthetic files;
/// [`workspace_sources`] loads the real tree.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// Channel and I/O calls that must not run under a lock guard (S001).
const GUARD_HAZARDS: &[&str] = &[
    ".send(",
    ".recv(",
    ".recv_timeout(",
    ".write_all(",
    ".write_fmt(",
    ".flush(",
    ".read_line(",
    ".read_to_string(",
    ".read_to_end(",
    ".read_exact(",
    ".accept(",
    ".connect(",
    "write!(",
    "writeln!(",
];

/// Panic-capable tokens (S003 in signal handlers, S004 in Drop bodies).
const PANIC_TOKENS: &[&str] = &[
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
    ".unwrap()",
    ".expect(",
];

/// Allocation-capable tokens (S003 only: the signal context cannot
/// safely enter the allocator).
const ALLOC_TOKENS: &[&str] = &[
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    "Box::new(",
    "String::new(",
    "String::from(",
    "String::with_capacity(",
    ".to_string()",
    ".to_owned()",
    ".to_vec()",
    "format!(",
    "println!(",
    "eprintln!(",
];

/// One cleaned line plus everything the checks need to know about it.
struct LineInfo {
    /// 1-based line number.
    no: usize,
    /// Brace depth at the start of the line.
    start_depth: usize,
    /// Brace depth after the line's braces are processed.
    end_depth: usize,
    /// Line text with comments and literal contents removed.
    text: String,
    /// Inside a `#[cfg(…test…)]`/`#[test]` item.
    in_test: bool,
    /// Inside an `#[allow(clippy::unwrap_used)]` (or `expect_used`) item.
    in_allow_unwrap: bool,
    /// Inside an `impl Drop for` item.
    in_drop: bool,
    /// Inside an `extern "C" fn` body.
    in_signal: bool,
    /// Codes this line's (or the previous line's) `cmr:allow` pragma
    /// covers, as full `CMR-Sxxx` strings.
    allow: Vec<String>,
}

/// Loads every first-party `.rs` file in the workspace, sorted by path.
/// Vendored shims, build output, integration tests and benches are out of
/// scope: the S series is about the shipped library/binary code.
pub fn workspace_sources() -> Vec<SourceFile> {
    let root = workspace_root();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            roots.push(entry.path().join("src"));
        }
    }
    let mut files = Vec::new();
    for dir in roots {
        collect_rs(&dir, &mut files);
    }
    let mut out: Vec<SourceFile> = files
        .into_iter()
        .filter_map(|p| {
            let text = std::fs::read_to_string(&p).ok()?;
            let rel = p.strip_prefix(&root).unwrap_or(&p);
            Some(SourceFile {
                path: rel.to_string_lossy().replace('\\', "/"),
                text,
            })
        })
        .collect();
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

fn workspace_root() -> PathBuf {
    // crates/analyze/ -> crates/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Runs every source check over `files`, appending findings to `out`.
pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let deny_unwrap = deny_unwrap_map(files);
    for file in files {
        let lines = scan(&file.text);
        let asset: &'static str = Box::leak(file.path.clone().into_boxed_str());
        let ctx = Ctx {
            asset,
            denies_unwrap: crate_denies_unwrap(&file.path, &deny_unwrap, &file.text),
            lines: &lines,
        };
        check_guard_windows(&ctx, out); // S001, S007, S008
        check_unwrap_expect(&ctx, out); // S002, S006
        check_regions(&ctx, out); // S003, S004
    }
}

struct Ctx<'a> {
    asset: &'static str,
    denies_unwrap: bool,
    lines: &'a [LineInfo],
}

impl Ctx<'_> {
    /// Is `code` (e.g. `"CMR-S001"`) pragma-allowed at `line_idx`? The
    /// pragma covers its own line and the next, so a comment directly
    /// above a statement or inline at the end of it both work.
    fn allowed(&self, code: &str, line_idx: usize) -> bool {
        self.lines[line_idx].allow.iter().any(|c| c == code)
    }

    fn emit(
        &self,
        out: &mut Vec<Diagnostic>,
        code: &'static str,
        severity: Severity,
        line_idx: usize,
        message: String,
    ) {
        let line = &self.lines[line_idx];
        let (severity, message) = if severity > Severity::Note && self.allowed(code, line_idx) {
            (Severity::Note, format!("{message} [cmr:allow]"))
        } else {
            (severity, message)
        };
        out.push(Diagnostic::new(
            code,
            severity,
            self.asset,
            format!("line {}", line.no),
            message,
        ));
    }
}

/// Which crate roots carry `#![deny(clippy::unwrap_used)]`.
fn deny_unwrap_map(files: &[SourceFile]) -> Vec<(String, bool)> {
    files
        .iter()
        .filter(|f| f.path.ends_with("/src/lib.rs") || f.path == "src/lib.rs")
        .map(|f| {
            let dir = f.path.trim_end_matches("lib.rs").to_string();
            (dir, f.text.contains("deny(clippy::unwrap_used"))
        })
        .collect()
}

fn crate_denies_unwrap(path: &str, map: &[(String, bool)], text: &str) -> bool {
    // Binary roots (src/bin/*.rs, src/main.rs) are their own crate: the
    // deny attribute must be in the file itself.
    if path.contains("/bin/") || path.ends_with("/main.rs") {
        return text.contains("deny(clippy::unwrap_used");
    }
    map.iter()
        .filter(|(dir, _)| path.starts_with(dir.as_str()))
        .max_by_key(|(dir, _)| dir.len())
        .is_some_and(|(_, denies)| *denies)
}

// ---------------------------------------------------------------------
// The scanner
// ---------------------------------------------------------------------

/// Cleans the source (comments and literal contents removed, line
/// structure preserved), computes brace depths, region membership, and
/// `cmr:allow` pragmas.
fn scan(text: &str) -> Vec<LineInfo> {
    let cleaned = clean(text);
    let mut lines: Vec<LineInfo> = Vec::new();
    // Regions open as (kind, depth_after_opening_brace).
    #[derive(Clone, Copy, PartialEq)]
    enum Kind {
        Test,
        AllowUnwrap,
        DropImpl,
        Signal,
    }
    let mut regions: Vec<(Kind, usize)> = Vec::new();
    let mut pending: Vec<Kind> = Vec::new();
    let mut depth = 0usize;
    let mut prev_allow: Vec<String> = Vec::new();

    for (idx, raw) in cleaned.lines.iter().enumerate() {
        let start_depth = depth;
        let text = raw.clone();
        let at_start = |k: Kind, regions: &[(Kind, usize)]| regions.iter().any(|(rk, _)| *rk == k);
        let started = (
            at_start(Kind::Test, &regions),
            at_start(Kind::AllowUnwrap, &regions),
            at_start(Kind::DropImpl, &regions),
            at_start(Kind::Signal, &regions),
        );

        // Attribute / item-head markers that open a region at the next
        // brace. `#[cfg(…test…)]` covers `#[cfg(test)]` and
        // `#[cfg(all(test, loom))]` alike.
        if (text.contains("#[cfg(") && text.contains("test")) || text.contains("#[test]") {
            pending.push(Kind::Test);
        }
        if text.contains("#[allow(clippy::unwrap_used")
            || text.contains("#[allow(clippy::expect_used")
        {
            pending.push(Kind::AllowUnwrap);
        }
        if text.contains("impl") && text.contains(" Drop for ") {
            pending.push(Kind::DropImpl);
        }
        // String contents are stripped by `clean`, so `extern "C" fn`
        // appears here as `extern "" fn`.
        if text.contains("extern \"\" fn") {
            pending.push(Kind::Signal);
        }

        for ch in text.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    for kind in pending.drain(..) {
                        regions.push((kind, depth));
                    }
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    regions.retain(|(_, open)| *open <= depth);
                }
                // An attribute that ended up on a braceless item (e.g.
                // `#[cfg(test)] use …;`) applies to that item only.
                ';' if !pending.is_empty() && depth == start_depth => pending.clear(),
                _ => {}
            }
        }

        let ended = (
            at_start(Kind::Test, &regions),
            at_start(Kind::AllowUnwrap, &regions),
            at_start(Kind::DropImpl, &regions),
            at_start(Kind::Signal, &regions),
        );
        let mut allow: Vec<String> = cleaned.pragmas.get(idx).cloned().unwrap_or_default();
        allow.extend(prev_allow.iter().cloned());
        prev_allow = cleaned.pragmas.get(idx).cloned().unwrap_or_default();

        lines.push(LineInfo {
            no: idx + 1,
            start_depth,
            end_depth: depth,
            text,
            in_test: started.0 || ended.0,
            in_allow_unwrap: started.1 || ended.1,
            in_drop: started.2 || ended.2,
            in_signal: started.3 || ended.3,
            allow,
        });
    }
    lines
}

struct Cleaned {
    lines: Vec<String>,
    /// Pragma codes per line index, as full `CMR-Sxxx` strings.
    pragmas: Vec<Vec<String>>,
}

/// Removes comments and the contents of string/char literals while
/// preserving line boundaries, and harvests `cmr:allow(...)` pragmas
/// from the removed comments.
fn clean(text: &str) -> Cleaned {
    let bytes: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut pragmas_at: Vec<(usize, Vec<String>)> = Vec::new();
    let mut line = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                out.push('\n');
                line += 1;
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&'/') => {
                // Line comment: harvest pragma, drop the rest.
                let start = i;
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                let comment: String = bytes[start..i].iter().collect();
                if let Some(codes) = parse_pragma(&comment) {
                    pragmas_at.push((line, codes));
                }
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                // Block comment (nesting ignored: none in this tree).
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                    if bytes[i] == '\n' {
                        out.push('\n');
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            '"' => {
                // String literal: keep the quotes, drop the contents.
                out.push('"');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        '\\' => {
                            // A `\<newline>` continuation still ends a
                            // source line — keep the count aligned.
                            if bytes.get(i + 1) == Some(&'\n') {
                                out.push('\n');
                                line += 1;
                            }
                            i += 2;
                        }
                        '"' => break,
                        '\n' => {
                            out.push('\n');
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                out.push('"');
                i += 1;
            }
            'r' if bytes.get(i + 1) == Some(&'"')
                || (bytes.get(i + 1) == Some(&'#') && bytes.get(i + 2) == Some(&'"')) =>
            {
                // Raw string r"…" / r#"…"# (one hash covers this tree).
                let hashes = usize::from(bytes.get(i + 1) == Some(&'#'));
                i += 2 + hashes;
                out.push('"');
                while i < bytes.len() {
                    if bytes[i] == '"' && (hashes == 0 || bytes.get(i + 1) == Some(&'#')) {
                        i += 1 + hashes;
                        break;
                    }
                    if bytes[i] == '\n' {
                        out.push('\n');
                        line += 1;
                    }
                    i += 1;
                }
                out.push('"');
            }
            '\'' => {
                // Char literal vs lifetime: a literal closes within a
                // couple of chars (`'x'`, `'\n'`, `'\u{..}'`).
                let closing = (1..=10).find(|d| bytes.get(i + d) == Some(&'\''));
                let is_escape = bytes.get(i + 1) == Some(&'\\');
                if is_escape || matches!(closing, Some(2)) {
                    let end = closing.unwrap_or(1);
                    out.push('\'');
                    out.push('\'');
                    i += end + 1;
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    let lines: Vec<String> = out.lines().map(str::to_string).collect();
    let mut pragmas = vec![Vec::new(); lines.len().max(1)];
    for (at, codes) in pragmas_at {
        if at < pragmas.len() {
            pragmas[at].extend(codes);
        }
    }
    Cleaned { lines, pragmas }
}

/// Parses `cmr:allow(S001)` / `cmr:allow(S001, S008)` out of a comment.
fn parse_pragma(comment: &str) -> Option<Vec<String>> {
    let at = comment.find("cmr:allow(")?;
    let rest = &comment[at + "cmr:allow(".len()..];
    let close = rest.find(')')?;
    let codes: Vec<String> = rest[..close]
        .split(',')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(|c| {
            if c.starts_with("CMR-") {
                c.to_string()
            } else {
                format!("CMR-{c}")
            }
        })
        .collect();
    (!codes.is_empty()).then_some(codes)
}

// ---------------------------------------------------------------------
// S001 / S007 / S008 — guard-window checks
// ---------------------------------------------------------------------

/// Does `text` acquire a guard? Returns the matched acquisition token.
fn acquisition(text: &str) -> Option<&'static str> {
    // `.read()`/`.write()` are the zero-argument RwLock forms;
    // `.read(buf)`-style I/O never matches these exact strings.
    [".lock(", ".try_lock(", ".read()", ".write()"]
        .into_iter()
        .find(|pat| {
            text.match_indices(pat).any(|(pos, _)| {
                // Std stream handles (`stdout.lock()`, `stdin.lock()`)
                // exist to be held across their own I/O — the guard IS
                // the I/O serialization, not shared state. Exclude them.
                let recv = text[..pos].trim_end_matches(|c: char| c.is_alphanumeric() || c == '_');
                let ident = &text[recv.len()..pos];
                !matches!(ident, "stdout" | "stderr" | "stdin")
                    && !recv.ends_with("stdout()")
                    && !recv.ends_with("stderr()")
                    && !recv.ends_with("stdin()")
            })
        })
}

/// The `let` binding name on this line, if the line binds one
/// (handles `let x`, `let mut x`, `let Ok(x)`, `if let Ok(mut x)`).
fn let_binding(text: &str) -> Option<&str> {
    let at = text.find("let ")?;
    let mut rest = text[at + 4..].trim_start();
    for strip in ["Ok(", "Some(", "mut "] {
        // Peel pattern wrappers in any order (`Ok(mut x)`).
        loop {
            let trimmed = rest.trim_start();
            if let Some(s) = trimmed.strip_prefix(strip) {
                rest = s;
            } else {
                rest = trimmed;
                break;
            }
        }
    }
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

fn check_guard_windows(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let lines = ctx.lines;
    for i in 0..lines.len() {
        let line = &lines[i];
        if line.in_test {
            continue;
        }
        let Some(acq) = acquisition(&line.text) else {
            continue;
        };
        // A `.lock()` on a chain continuation line still binds the guard
        // if the statement started with a `let` a few lines up.
        let mut binding = let_binding(&line.text);
        let mut binding_line = i;
        if binding.is_none() {
            for j in (i.saturating_sub(4)..i).rev() {
                if lines[j].text.contains(';') {
                    break;
                }
                if let Some(name) = let_binding(&lines[j].text) {
                    binding = Some(name);
                    binding_line = j;
                    break;
                }
            }
        }

        // `let _ = x.lock()` drops the guard before the next statement.
        if binding == Some("_") {
            ctx.emit(
                out,
                "CMR-S007",
                Severity::Warning,
                i,
                format!(
                    "`let _ = …{acq})` drops the guard immediately — the critical \
                     section is empty; bind it to a name or drop it explicitly"
                ),
            );
            continue;
        }

        // The guard's live window: a named binding lives to the end of
        // its block; an unbound chain lives to the end of the statement.
        // Using the line's *end* depth bounds `if let …lock() {` windows
        // to the if-block and plain `let` windows to the enclosing block.
        let window_end = match binding {
            Some(name) => {
                let min_depth = lines[binding_line].end_depth;
                let mut end = i;
                while end + 1 < lines.len() && lines[end + 1].start_depth >= min_depth {
                    end += 1;
                    if lines[end].text.contains("drop(") && lines[end].text.contains(name) {
                        break;
                    }
                }
                end
            }
            None => {
                let mut end = i;
                while !lines[end].text.trim_end().ends_with(';') && end + 1 < lines.len() {
                    end += 1;
                    if end - i > 8 {
                        break;
                    }
                }
                end
            }
        };

        let mut flagged_io = false;
        let mut flagged_sleep = false;
        let window_last = window_end.min(lines.len() - 1);
        for held in &lines[i..=window_last] {
            let t = &held.text;
            if !flagged_io {
                if let Some(hazard) = GUARD_HAZARDS.iter().find(|h| t.contains(*h)) {
                    flagged_io = true;
                    ctx.emit(
                        out,
                        "CMR-S001",
                        Severity::Warning,
                        i,
                        format!(
                            "guard acquired via `{acq})` is held across `{}…)` (line {}); \
                             channel or I/O calls under a lock serialize every other \
                             acquirer behind this one",
                            hazard.trim_end_matches('('),
                            held.no
                        ),
                    );
                }
            }
            if !flagged_sleep && (t.contains("thread::sleep") || t.contains("::sleep(")) {
                flagged_sleep = true;
                ctx.emit(
                    out,
                    "CMR-S008",
                    Severity::Warning,
                    i,
                    format!(
                        "guard acquired via `{acq})` is held across a sleep (line {}); \
                         sleeping under a lock stalls every waiter for the full duration",
                        held.no
                    ),
                );
            }
            if flagged_io && flagged_sleep {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// S002 / S006 — unwrap discipline
// ---------------------------------------------------------------------

fn check_unwrap_expect(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let lines = ctx.lines;
    for i in 0..lines.len() {
        let line = &lines[i];
        if line.in_test || line.in_allow_unwrap {
            continue;
        }
        // Join with the next line so rustfmt-split chains
        // (`.lock()\n.unwrap()`) still match — but a match living wholly
        // in the next line is that line's own finding, not this one's.
        let next_text = lines
            .get(i + 1)
            .filter(|n| !n.in_test)
            .map(|n| n.text.trim_start().to_string())
            .unwrap_or_default();
        let joined = format!("{}{next_text}", line.text);
        let lock_unwrap = [".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"]
            .iter()
            .find(|p| line.text.contains(*p) || (joined.contains(*p) && !next_text.contains(*p)));
        if let Some(pat) = lock_unwrap {
            ctx.emit(
                out,
                "CMR-S006",
                Severity::Warning,
                i,
                format!(
                    "`{pat}` propagates lock poisoning as a panic; the workspace \
                     convention is recovery — use \
                     `.unwrap_or_else(std::sync::PoisonError::into_inner)` or handle \
                     the Err"
                ),
            );
            continue;
        }
        if !ctx.denies_unwrap {
            continue;
        }
        if line.text.contains(".unwrap()") {
            ctx.emit(
                out,
                "CMR-S002",
                Severity::Warning,
                i,
                "`.unwrap()` outside `#[cfg(test)]` in a crate that denies \
                 `clippy::unwrap_used`; return the error or document the invariant \
                 with `.expect(…)`"
                    .to_string(),
            );
        } else if line.text.contains(".expect(") {
            ctx.emit(
                out,
                "CMR-S002",
                Severity::Note,
                i,
                "`.expect(…)` outside `#[cfg(test)]`; fine when the message states \
                 an invariant, but prefer returning the error on fallible paths"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// S003 / S004 — restricted regions
// ---------------------------------------------------------------------

fn check_regions(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, line) in ctx.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if line.in_signal {
            for tok in PANIC_TOKENS.iter().chain(ALLOC_TOKENS) {
                if line.text.contains(tok) {
                    ctx.emit(
                        out,
                        "CMR-S003",
                        Severity::Warning,
                        i,
                        format!(
                            "`{tok}…` inside an `extern \"C\"` signal-handler region; \
                             only async-signal-safe operations (atomics, raw syscalls) \
                             are sound here"
                        ),
                    );
                    break;
                }
            }
        }
        if line.in_drop {
            for tok in PANIC_TOKENS {
                if line.text.contains(tok) {
                    ctx.emit(
                        out,
                        "CMR-S004",
                        Severity::Warning,
                        i,
                        format!(
                            "`{tok}…` inside an `impl Drop` body; a panic in drop \
                             during unwind aborts the process — make drop infallible"
                        ),
                    );
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Report;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile {
            path: path.to_string(),
            text: src.to_string(),
        }];
        let mut out = Vec::new();
        check(&files, &mut out);
        Report::from_diagnostics(out).diagnostics
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn s001_guard_across_channel_io() {
        let src = r#"
fn f(m: &std::sync::Mutex<u32>, tx: &std::sync::mpsc::Sender<u32>) {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    tx.send(*g).ok();
}
"#;
        let diags = run("crates/x/src/a.rs", src);
        assert!(codes(&diags).contains(&"CMR-S001"), "{diags:?}");
    }

    #[test]
    fn s001_same_statement_chain() {
        let src = "
fn f(rx: &std::sync::Mutex<std::sync::mpsc::Receiver<u32>>) {
    let v = rx
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .recv();
    let _ = v;
}
";
        let diags = run("crates/x/src/a.rs", src);
        assert!(codes(&diags).contains(&"CMR-S001"), "{diags:?}");
    }

    #[test]
    fn s001_clean_after_guard_dropped() {
        let src = "
fn f(m: &std::sync::Mutex<u32>, tx: &std::sync::mpsc::Sender<u32>) {
    let v = {
        let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *g
    };
    tx.send(v).ok();
}
";
        let diags = run("crates/x/src/a.rs", src);
        assert!(!codes(&diags).contains(&"CMR-S001"), "{diags:?}");
    }

    #[test]
    fn s001_pragma_downgrades_to_note() {
        let src = "
fn f(rx: &std::sync::Mutex<std::sync::mpsc::Receiver<u32>>) {
    let v = rx
        .lock() // cmr:allow(S001) -- lock scope is exactly the recv
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .recv();
    let _ = v;
}
";
        let diags = run("crates/x/src/a.rs", src);
        let s001: Vec<_> = diags.iter().filter(|d| d.code == "CMR-S001").collect();
        assert_eq!(s001.len(), 1, "{diags:?}");
        assert_eq!(s001[0].severity, Severity::Note);
        assert!(s001[0].message.ends_with("[cmr:allow]"));
    }

    #[test]
    fn s002_unwrap_warning_expect_note_in_deny_crate() {
        let lib = "#![deny(clippy::unwrap_used)]\npub mod a;\n";
        let src = "
pub fn f(v: Option<u32>) -> u32 {
    v.unwrap()
}
pub fn g(v: Option<u32>) -> u32 {
    v.expect(\"caller guarantees Some\")
}
";
        let files = vec![
            SourceFile {
                path: "crates/x/src/lib.rs".into(),
                text: lib.into(),
            },
            SourceFile {
                path: "crates/x/src/a.rs".into(),
                text: src.into(),
            },
        ];
        let mut out = Vec::new();
        check(&files, &mut out);
        let s002: Vec<_> = out.iter().filter(|d| d.code == "CMR-S002").collect();
        assert_eq!(s002.len(), 2, "{out:?}");
        assert!(s002.iter().any(|d| d.severity == Severity::Warning));
        assert!(s002.iter().any(|d| d.severity == Severity::Note));
    }

    #[test]
    fn s002_silent_without_deny_and_in_tests() {
        let lib = "pub mod a;\n";
        let src = "
pub fn f(v: Option<u32>) -> u32 { v.unwrap() }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
";
        let files = vec![
            SourceFile {
                path: "crates/x/src/lib.rs".into(),
                text: lib.into(),
            },
            SourceFile {
                path: "crates/x/src/a.rs".into(),
                text: src.into(),
            },
        ];
        let mut out = Vec::new();
        check(&files, &mut out);
        assert!(
            !out.iter().any(|d| d.code == "CMR-S002"),
            "no deny, no finding: {out:?}"
        );
    }

    #[test]
    fn s003_alloc_in_signal_handler() {
        let src = "
extern \"C\" fn on_signal(sig: i32) {
    let msg = format!(\"got {sig}\");
    let _ = msg;
}
";
        let diags = run("crates/x/src/a.rs", src);
        assert!(codes(&diags).contains(&"CMR-S003"), "{diags:?}");
    }

    #[test]
    fn s003_atomics_are_fine() {
        let src = "
static FLAG: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
extern \"C\" fn on_signal(_sig: i32) {
    FLAG.store(true, std::sync::atomic::Ordering::SeqCst);
}
";
        let diags = run("crates/x/src/a.rs", src);
        assert!(!codes(&diags).contains(&"CMR-S003"), "{diags:?}");
    }

    #[test]
    fn s004_panic_in_drop() {
        let src = "
struct G(Option<u32>);
impl Drop for G {
    fn drop(&mut self) {
        self.0.take().unwrap();
    }
}
";
        let diags = run("crates/x/src/a.rs", src);
        assert!(codes(&diags).contains(&"CMR-S004"), "{diags:?}");
    }

    #[test]
    fn s006_lock_unwrap_even_across_lines() {
        let src = "
fn f(m: &std::sync::Mutex<u32>) -> u32 {
    let a = *m.lock().unwrap();
    let b = *m
        .lock()
        .unwrap();
    a + b
}
";
        let diags = run("crates/x/src/a.rs", src);
        let s006: Vec<_> = diags.iter().filter(|d| d.code == "CMR-S006").collect();
        assert_eq!(s006.len(), 2, "{diags:?}");
    }

    #[test]
    fn s007_discarded_guard() {
        let src = "
fn f(m: &std::sync::Mutex<u32>) {
    let _ = m.lock();
}
";
        let diags = run("crates/x/src/a.rs", src);
        assert!(codes(&diags).contains(&"CMR-S007"), "{diags:?}");
    }

    #[test]
    fn s008_sleep_under_guard() {
        let src = "
fn f(m: &std::sync::Mutex<u32>) {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    std::thread::sleep(std::time::Duration::from_millis(5));
    drop(g);
}
";
        let diags = run("crates/x/src/a.rs", src);
        assert!(codes(&diags).contains(&"CMR-S008"), "{diags:?}");
    }

    #[test]
    fn strings_and_comments_do_not_trip_checks() {
        let src = "
fn f() -> &'static str {
    // this comment mentions .unwrap() and .send( and Mutex::new(
    \"a string with .unwrap() and .recv( inside\"
}
";
        let diags = run("crates/engine/src/pool.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn loom_cfg_test_regions_are_excluded() {
        let src = "
#[cfg(all(test, loom))]
mod loom_model {
    pub fn f(m: &std::sync::Mutex<u32>) {
        let _ = m.lock();
        std::sync::Mutex::new(7);
    }
}
";
        let diags = run("crates/engine/src/pool.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
