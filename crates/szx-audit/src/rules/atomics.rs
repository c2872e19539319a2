//! The `atomics-protocol` rule: publish fields in the lock-free modules
//! follow the release/acquire protocol.

use super::{leading_ident, trailing_ident};
use crate::report::{Counts, Finding};
use crate::source::SourceFile;

#[derive(Debug, PartialEq, Clone, Copy)]
enum OpKind {
    Load,
    Store,
    Rmw,
}

/// One atomic operation found in the trace module.
#[derive(Debug)]
struct AtomicOp {
    field: String,
    kind: OpKind,
    ordering: String,
    line: usize,
}

/// The lock-free publish protocol: `fields` guard other state (trace slot
/// contents) and must release-store and acquire-load; a relaxed store
/// would let readers observe torn data, and a relaxed cross-thread load
/// would read state before its writes are visible. One justified
/// exception, with an `// ORDERING:` note: owner-thread relaxed *loads*
/// (a thread always sees its own stores).
pub(super) fn atomics_protocol(
    file: &SourceFile,
    fields: &[&str],
    findings: &mut Vec<Finding>,
    counts: &mut Counts,
) {
    let mut ops: Vec<AtomicOp> = Vec::new();
    const METHODS: &[(&str, OpKind)] = &[
        (".load(", OpKind::Load),
        (".store(", OpKind::Store),
        (".swap(", OpKind::Rmw),
        (".fetch_add(", OpKind::Rmw),
        (".fetch_sub(", OpKind::Rmw),
        (".compare_exchange(", OpKind::Rmw),
    ];
    for (i, line) in file.lines.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for &(pat, kind) in METHODS {
            let mut from = 0usize;
            while let Some(at) = line.code[from..].find(pat) {
                let abs = from + at;
                // When rustfmt wraps the receiver onto its own line
                // (`self.len\n    .store(...)`), the field identifier sits
                // on the nearest preceding non-blank code line.
                let mut field = trailing_ident(line.code[..abs].trim_end());
                if field.is_empty() {
                    for j in (i.saturating_sub(3)..i).rev() {
                        let t = file.lines[j].code.trim_end();
                        if !t.is_empty() {
                            field = trailing_ident(t);
                            break;
                        }
                    }
                }
                // The Ordering argument may sit on a continuation line when
                // rustfmt wraps the call.
                let ordering = (i..file.lines.len().min(i + 4))
                    .find_map(|j| {
                        let code = &file.lines[j].code;
                        let start = if j == i { abs } else { 0 };
                        code[start..]
                            .find("Ordering::")
                            .map(|o| leading_ident(&code[start + o + "Ordering::".len()..]))
                    })
                    .unwrap_or_default();
                ops.push(AtomicOp {
                    field,
                    kind,
                    ordering,
                    line: i + 1,
                });
                from = abs + pat.len();
            }
        }
    }

    let mut flag = |line: usize, msg: String| {
        let snippet = file.lines[line - 1].code.trim();
        let (path, rule) = (&file.rel_path, "atomics-protocol");
        findings.push(Finding::in_symbol(rule, path, line, path, snippet, &msg));
    };
    for field in fields {
        let field_ops: Vec<&AtomicOp> = ops.iter().filter(|o| &o.field == field).collect();
        if field_ops.is_empty() {
            continue;
        }
        for op in &field_ops {
            match op.kind {
                OpKind::Store | OpKind::Rmw if op.ordering == "Relaxed" => flag(
                    op.line,
                    format!(
                        "relaxed store to publish field `{field}` — contents \
                         published without release ordering"
                    ),
                ),
                OpKind::Load if op.ordering == "Relaxed" => {
                    if file.annotated(op.line - 1, "ORDERING:") {
                        counts.ordering_notes += 1;
                    } else {
                        flag(
                            op.line,
                            format!(
                                "relaxed load of publish field `{field}` without an \
                                 `// ORDERING:` note (owner-thread reads must be justified)"
                            ),
                        );
                    }
                }
                _ if op.ordering.is_empty() => flag(
                    op.line,
                    format!("atomic op on `{field}` without an explicit Ordering"),
                ),
                _ => {}
            }
        }
        let has_release_store = field_ops
            .iter()
            .any(|o| o.kind != OpKind::Load && (o.ordering == "Release" || o.ordering == "SeqCst"));
        let has_acquire_load = field_ops
            .iter()
            .any(|o| o.kind == OpKind::Load && (o.ordering == "Acquire" || o.ordering == "SeqCst"));
        if !(has_release_store && has_acquire_load) {
            flag(
                field_ops[0].line,
                format!(
                    "publish field `{field}` lacks a release-store/acquire-load pair \
                     (stores: {}, loads: {})",
                    field_ops.iter().filter(|o| o.kind != OpKind::Load).count(),
                    field_ops.iter().filter(|o| o.kind == OpKind::Load).count(),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::run_on;

    #[test]
    fn relaxed_publish_store_is_flagged() {
        let src = "fn push(&self) {\n\
                   let n = self.len.load(Ordering::Acquire);\n\
                   self.len.store(n + 1, Ordering::Relaxed);\n\
                   }\n";
        let (f, _) = run_on("crates/szx-telemetry/src/trace.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "atomics-protocol" && x.line == 3),
            "{f:?}"
        );
    }

    #[test]
    fn release_acquire_pair_passes() {
        let src = "fn push(&self) {\n\
                   // ORDERING: owner-thread read; only this thread stores len.\n\
                   let n = self.len.load(Ordering::Relaxed);\n\
                   self.len.store(n + 1, Ordering::Release);\n\
                   }\n\
                   fn drain(&self) {\n\
                   let n = self.len.load(Ordering::Acquire);\n\
                   self.len.store(0, Ordering::Release);\n\
                   }\n";
        let (f, c) = run_on("crates/szx-telemetry/src/trace.rs", src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(c.ordering_notes, 1);
    }

    #[test]
    fn a_relaxed_publish_store_is_flagged_even_with_a_note_and_a_fence() {
        let src = "fn push(&self) {\n\
                   let n = self.len.load(Ordering::Acquire);\n\
                   // ORDERING: claims the fence below publishes it.\n\
                   self.len.store(n + 1, Ordering::Relaxed);\n\
                   fence(Ordering::Release);\n\
                   self.len.store(n + 2, Ordering::Release);\n\
                   }\n";
        let (f, c) = run_on("crates/szx-telemetry/src/trace.rs", src);
        assert!(
            f.iter()
                .any(|x| x.rule == "atomics-protocol" && x.line == 4),
            "{f:?}"
        );
        assert_eq!(c.ordering_notes, 0);
    }

    #[test]
    fn missing_acquire_load_breaks_the_pair() {
        let src = "fn f(&self) {\n\
                   self.len.store(1, Ordering::Release);\n\
                   let _ = self.len.load(Ordering::Acquire);\n\
                   }\n";
        let (f, _) = run_on("crates/szx-telemetry/src/trace.rs", src);
        assert!(f.is_empty(), "{f:?}");
        let src = "fn f(&self) { self.len.store(1, Ordering::Release); }\n";
        let (f, _) = run_on("crates/szx-telemetry/src/trace.rs", src);
        assert!(
            f.iter()
                .any(|x| x.message.contains("release-store/acquire-load")),
            "{f:?}"
        );
    }

    #[test]
    fn wrapped_ordering_argument_is_found_on_continuation_line() {
        let src = "fn f(&self) {\n\
                   self.len\n\
                   .store(\n\
                   n + 1,\n\
                   Ordering::Release,\n\
                   );\n\
                   let _ = self.len.load(Ordering::Acquire);\n\
                   }\n";
        let (f, _) = run_on("crates/szx-telemetry/src/trace.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }
}
