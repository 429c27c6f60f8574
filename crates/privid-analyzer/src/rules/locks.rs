//! Rule `lock-order`: nested guard acquisitions must follow the partial
//! order declared in `analyzer.toml`.
//!
//! The analysis is per-function and lexical. A guard enters the stack when a
//! `.lock()` / `.read()` / `.write()` call (empty argument list — I/O traits
//! take arguments, sync primitives do not) or a declared scoped-call method
//! (e.g. `exclusive`, which holds the admission gate around its closure) is
//! seen, and leaves it when its lexical extent ends:
//!
//! - `let`-bound guards live until the enclosing block closes;
//! - temporary guards (no `let` in the statement) die at the statement's `;`;
//! - scoped-call guards die at the call's closing parenthesis.
//!
//! ## Parking
//!
//! `Condvar::{wait, wait_timeout, wait_while, wait_timeout_while}` releases
//! the guard it is handed and parks the thread; every *other* guard stays
//! held for as long as the thread sleeps, and whoever would wake it may need
//! one of them. Parking while any guard other than the one passed to the
//! wait is live is therefore a finding, whatever the declared order says.
//!
//! Cross-function nesting (a function that acquires a lock calling another
//! that acquires a second) is invisible here by design — the same
//! module-granularity trade-off the crate docs describe. The declared order
//! plus the per-site audit comments are the contract that keeps those
//! compositions safe.
//!
//! ## Indexed lock families
//!
//! A lock named in `[lock-order] indexed` is a *family*: N instances of the
//! same lock ranked by index (the sharded service's per-shard admission
//! gates). Holding one member while acquiring another is legal **only** when
//! both acquisitions carry a literal subscript in their receiver chain
//! (`shards[0]… then shards[1]…`) and the indexes strictly ascend — the
//! canonical fleet order that makes overlapping multi-shard admissions
//! deadlock-free. Equal or descending indexes, or a second acquisition whose
//! index the lexer cannot see, are flagged exactly like a re-acquisition.
//! (Dynamic all-at-once acquisition, as in `admit_fleet`'s gate sweep, is a
//! single lexical site and is covered by that function's runtime assert.)

use super::{ident_at, is_punct, FileCx};
use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{Tok, TokKind};

#[derive(Debug)]
enum Extent {
    /// Dies when brace depth drops below the recorded depth.
    Block(i32),
    /// Dies at the first `;` at the recorded brace depth (or block close).
    Statement(i32),
    /// Dies when paren depth returns to the recorded depth.
    Call(i32),
}

#[derive(Debug)]
struct Guard {
    /// Declared lock name, or None when the receiver is not aliased.
    lock: Option<String>,
    /// The receiver identifier as written (for diagnostics).
    raw: String,
    /// The `let` binding holding the guard, if any — how a condvar wait
    /// names the one guard it releases.
    binding: Option<String>,
    /// Literal subscript in the receiver chain (`shards[3].…` → 3), for
    /// indexed lock families.
    index: Option<u64>,
    extent: Extent,
    line: u32,
}

/// Validate every nested guard acquisition against the declared order.
pub fn check(cx: &FileCx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if cx.is_test_path() {
        return out;
    }
    let toks = cx.toks;
    let mut stack: Vec<Guard> = Vec::new();
    let mut brace: i32 = 0;
    let mut paren: i32 = 0;
    let mut saw_let = false;
    let mut binding: Option<String> = None;
    for i in 0..toks.len() {
        let t = &toks[i];
        if cx.is_test[i] {
            continue;
        }
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "{" => {
                    brace += 1;
                    saw_let = false;
                }
                "}" => {
                    brace -= 1;
                    stack.retain(|g| match g.extent {
                        Extent::Block(d) | Extent::Statement(d) => d <= brace,
                        Extent::Call(_) => true,
                    });
                    saw_let = false;
                }
                "(" => paren += 1,
                ")" => {
                    paren -= 1;
                    // A scoped-call guard recorded the paren depth *outside*
                    // its own `(`; it dies once depth returns there.
                    stack.retain(|g| match g.extent {
                        Extent::Call(d) => paren > d,
                        _ => true,
                    });
                }
                ";" => {
                    stack.retain(|g| !matches!(g.extent, Extent::Statement(d) if d >= brace));
                    saw_let = false;
                }
                _ => {}
            },
            TokKind::Ident => {
                if t.text == "let" {
                    saw_let = true;
                    let name = if ident_at(toks, i + 1) == Some("mut") { i + 2 } else { i + 1 };
                    binding = ident_at(toks, name).map(str::to_string);
                    continue;
                }
                // A condvar wait: `.wait*(guard, …)` — never an empty
                // argument list, which is `Child::wait()` and friends.
                let is_wait = matches!(t.text.as_str(), "wait" | "wait_timeout" | "wait_while" | "wait_timeout_while")
                    && i >= 1
                    && is_punct(toks, i - 1, '.')
                    && is_punct(toks, i + 1, '(')
                    && !is_punct(toks, i + 2, ')');
                if is_wait {
                    let released = ident_at(toks, i + 2);
                    for held in stack.iter().filter(|g| released.is_none() || g.binding.as_deref() != released) {
                        out.push(cx.diag(
                            RuleId::LockOrder,
                            t.line,
                            format!(
                                "parks in `{}` while holding `{}` (line {}); a waiting thread may hold only the \
                                 guard it waits with",
                                t.text,
                                held.lock.as_deref().unwrap_or(&held.raw),
                                held.line
                            ),
                        ));
                    }
                    continue;
                }
                // `.lock()` / `.read()` / `.write()` with an empty arg list.
                let is_sync_method = matches!(t.text.as_str(), "lock" | "read" | "write")
                    && i >= 1
                    && is_punct(toks, i - 1, '.')
                    && is_punct(toks, i + 1, '(')
                    && is_punct(toks, i + 2, ')');
                let scoped = cx.cfg.lock_scoped_calls.get(&t.text).filter(|_| {
                    i >= 1 && is_punct(toks, i - 1, '.') && is_punct(toks, i + 1, '(')
                });
                if let Some(lock) = scoped {
                    let guard = Guard {
                        lock: Some(lock.clone()),
                        raw: t.text.clone(),
                        binding: None,
                        index: literal_index(toks, i),
                        extent: Extent::Call(paren),
                        line: t.line,
                    };
                    validate(cx, &stack, &guard, &mut out);
                    stack.push(guard);
                } else if is_sync_method {
                    let receiver = i.checked_sub(2).and_then(|j| ident_at(toks, j)).unwrap_or("<expr>").to_string();
                    let lock = cx.cfg.lock_aliases.get(&receiver).cloned();
                    let extent = if saw_let { Extent::Block(brace) } else { Extent::Statement(brace) };
                    let binding = binding.take().filter(|_| saw_let);
                    let guard =
                        Guard { lock, raw: receiver, binding, index: literal_index(toks, i), extent, line: t.line };
                    validate(cx, &stack, &guard, &mut out);
                    stack.push(guard);
                }
            }
            _ => {}
        }
    }
    out
}

/// Nearest literal integer subscript in the receiver chain of the method
/// call at `method` (`self.shards[3].admission.exclusive(…)` → `Some(3)`).
///
/// Walks the chain backwards over `.`-separated members and `[<int>]`
/// subscripts; anything else (a call, a computed index, the chain's start)
/// ends the walk. Computed indexes deliberately return `None` — an index the
/// lexer cannot read cannot prove ascending order.
fn literal_index(toks: &[Tok], method: usize) -> Option<u64> {
    // `j` tracks the `.` whose left-hand side we are about to inspect.
    let mut j = method.checked_sub(1)?;
    if !is_punct(toks, j, '.') {
        return None;
    }
    loop {
        let prev = j.checked_sub(1)?;
        let t = toks.get(prev)?;
        if t.kind == TokKind::Ident {
            // Plain member: keep walking through the preceding `.`, if any.
            match prev.checked_sub(1) {
                Some(p) if is_punct(toks, p, '.') => j = p,
                _ => return None,
            }
        } else if t.kind == TokKind::Punct && t.text == "]" {
            // Expect `[ <int> ]` — a computed index is not provable.
            let lit = prev.checked_sub(1)?;
            let open = prev.checked_sub(2)?;
            if is_punct(toks, open, '[') {
                if let Some(n) = toks.get(lit) {
                    if n.kind == TokKind::Num {
                        return n.text.parse::<u64>().ok();
                    }
                }
            }
            return None;
        } else {
            return None;
        }
    }
}

fn validate(cx: &FileCx<'_>, stack: &[Guard], incoming: &Guard, out: &mut Vec<Diagnostic>) {
    for held in stack {
        match (&held.lock, &incoming.lock) {
            (Some(a), Some(b)) => {
                if a == b {
                    if cx.cfg.lock_indexed.iter().any(|l| l == a) {
                        // Indexed family: members may nest, but only in
                        // strictly ascending index order — and only when the
                        // lexer can actually see both indexes.
                        match (held.index, incoming.index) {
                            (Some(h), Some(n)) if n > h => {}
                            (Some(h), Some(n)) => out.push(cx.diag(
                                RuleId::LockOrder,
                                incoming.line,
                                format!(
                                    "acquires indexed lock `{a}[{n}]` while holding `{a}[{h}]` (line {}); \
                                     family members must be acquired in strictly ascending index order",
                                    held.line
                                ),
                            )),
                            _ => out.push(cx.diag(
                                RuleId::LockOrder,
                                incoming.line,
                                format!(
                                    "re-acquires indexed lock `{a}` while already held (acquired line {}) \
                                     without a provable ascending literal index",
                                    held.line
                                ),
                            )),
                        }
                        continue;
                    }
                    out.push(cx.diag(
                        RuleId::LockOrder,
                        incoming.line,
                        format!("re-acquires `{a}` while already held (acquired line {})", held.line),
                    ));
                    continue;
                }
                match (cx.cfg.lock_rank(a), cx.cfg.lock_rank(b)) {
                    (Some(ra), Some(rb)) if ra < rb => {}
                    (Some(_), Some(_)) => out.push(cx.diag(
                        RuleId::LockOrder,
                        incoming.line,
                        format!(
                            "acquires `{b}` while holding `{a}` (line {}); the declared order in analyzer.toml \
                             requires `{b}` before `{a}`",
                            held.line
                        ),
                    )),
                    _ => out.push(cx.diag(
                        RuleId::LockOrder,
                        incoming.line,
                        format!("nested acquisition of `{a}`/`{b}` not covered by the declared order in analyzer.toml"),
                    )),
                }
            }
            (None, _) | (_, None) => {
                let unknown = if held.lock.is_none() { &held.raw } else { &incoming.raw };
                out.push(cx.diag(
                    RuleId::LockOrder,
                    incoming.line,
                    format!(
                        "nested acquisition involves undeclared lock receiver `{unknown}` (outer guard from line {}); \
                         add an alias and order entry in analyzer.toml",
                        held.line
                    ),
                ));
            }
        }
    }
}
