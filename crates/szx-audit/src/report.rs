//! Audit report model and the deterministic emitters.
//!
//! The JSON report is fully deterministic — findings are sorted, counters
//! are integers, and there is no timestamp — so the committed
//! `results/AUDIT.json` stays byte-stable across machines and CI can verify
//! freshness with a plain `git diff --exit-code`.
//!
//! Schema `szx-audit/3`: findings carry a **stable fingerprint** — FNV-1a
//! over `rule + symbol path + whitespace-normalized snippet` — so a finding
//! keeps its identity across unrelated edits (line drift, file reshuffles),
//! which code scanning uses to track an alert across commits. Call-graph
//! findings additionally carry the full offending call chain.

use std::fmt::Write as _;

/// Every rule the audit can emit, in report order. Keep in sync with the
/// rule table in `rules/mod.rs` and the SARIF driver metadata.
pub const RULE_IDS: &[&str] = &[
    "target-feature-guard",
    "panic-reach",
    "hot-loop-alloc",
    "checked-arith",
    "atomics-protocol",
];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (see `rules` module docs).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Fully qualified symbol the finding sits in (the file path when the
    /// finding has no enclosing function).
    pub symbol: String,
    /// Stable identity: `fnv1a64(rule \0 symbol \0 normalized snippet)`,
    /// 16 hex digits.
    pub fingerprint: String,
    /// For call-graph rules: the chain from the entry point to the
    /// offending function, `sym (path:line)` per step. Empty otherwise.
    pub chain: Vec<String>,
}

impl Finding {
    /// A finding anchored to `symbol` with `snippet` as the normalized
    /// fingerprint payload (pass the offending line's code text).
    pub fn in_symbol(
        rule: &'static str,
        path: &str,
        line: usize,
        symbol: &str,
        snippet: &str,
        message: &str,
    ) -> Self {
        Finding {
            path: path.to_string(),
            line,
            rule,
            message: message.to_string(),
            symbol: symbol.to_string(),
            fingerprint: fingerprint(rule, symbol, snippet),
            chain: Vec::new(),
        }
    }

    pub fn with_chain(mut self, chain: Vec<String>) -> Self {
        self.chain = chain;
        self
    }
}

/// Stable finding identity: FNV-1a 64 over rule, symbol path, and the
/// whitespace-normalized snippet. Line numbers deliberately excluded.
pub fn fingerprint(rule: &str, symbol: &str, snippet: &str) -> String {
    let normalized: String = snippet.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in [rule, "\0", symbol, "\0", &normalized] {
        for b in chunk.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Aggregate counters: what the audit *saw*, not just what it flagged.
/// Annotation counts make silent suppression visible in the report.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub files_scanned: usize,
    pub lines_scanned: usize,
    pub panic_ok: usize,
    pub ordering_notes: usize,
    /// `#[target_feature]` call sites verified to carry a SAFETY note
    /// naming the runtime detection guard.
    pub feature_guards: usize,
    /// Functions indexed by the item parser.
    pub fns_indexed: usize,
    /// Resolved call-graph edges.
    pub call_edges: usize,
    /// Decode-side panic-reachability entry points.
    pub decode_entries: usize,
    /// Hot-loop (kernel/SIMD) entry points.
    pub hot_entries: usize,
    /// `// ALLOC-OK:` suppressions honored in hot loops.
    pub alloc_ok: usize,
    /// `// ARITH-OK:` suppressions honored on parse paths.
    pub arith_ok: usize,
}

/// A full audit run: findings (sorted) plus the counters.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub counts: Counts,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings per rule id, in [`RULE_IDS`] order.
    pub fn rule_counts(&self) -> Vec<(&'static str, usize)> {
        RULE_IDS
            .iter()
            .map(|&r| (r, self.findings.iter().filter(|f| f.rule == r).count()))
            .collect()
    }

    /// `path:line: [rule] message` diagnostics plus per-rule counts and a
    /// summary block. Call-graph findings print their full chain.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
            if !f.chain.is_empty() {
                let _ = writeln!(out, "    call chain:");
                for (i, step) in f.chain.iter().enumerate() {
                    let _ = writeln!(out, "      {}{}", "  ".repeat(i), step);
                }
            }
        }
        let c = &self.counts;
        let _ = writeln!(
            out,
            "szx-audit: {} finding(s) in {} files / {} lines ({} fns, {} call edges)",
            self.findings.len(),
            c.files_scanned,
            c.lines_scanned,
            c.fns_indexed,
            c.call_edges
        );
        let per_rule: Vec<String> = self
            .rule_counts()
            .iter()
            .map(|(r, n)| format!("{r}: {n}"))
            .collect();
        let _ = writeln!(out, "  per rule: {}", per_rule.join(", "));
        let _ = writeln!(
            out,
            "  entry points: {} decode, {} hot-loop",
            c.decode_entries, c.hot_entries
        );
        let _ = writeln!(
            out,
            "  PANIC-OK: {}, ALLOC-OK: {}, ARITH-OK: {}, ORDERING: {}, feature guards: {}",
            c.panic_ok, c.alloc_ok, c.arith_ok, c.ordering_notes, c.feature_guards
        );
        out
    }

    /// Deterministic, human-diffable JSON (schema `szx-audit/3`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"szx-audit/3\",\n");
        let c = &self.counts;
        let _ = write!(
            out,
            "  \"counts\": {{\n    \"files_scanned\": {},\n    \"lines_scanned\": {},\n    \
             \"panic_ok\": {},\n    \"ordering_notes\": {},\n    \"feature_guards\": {},\n    \
             \"fns_indexed\": {},\n    \"call_edges\": {},\n    \"decode_entries\": {},\n    \
             \"hot_entries\": {},\n    \"alloc_ok\": {},\n    \"arith_ok\": {}\n  }},\n",
            c.files_scanned,
            c.lines_scanned,
            c.panic_ok,
            c.ordering_notes,
            c.feature_guards,
            c.fns_indexed,
            c.call_edges,
            c.decode_entries,
            c.hot_entries,
            c.alloc_ok,
            c.arith_ok
        );
        out.push_str("  \"rules\": {");
        for (i, (rule, n)) in self.rule_counts().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {}", json_string(rule), n);
        }
        out.push_str("\n  },\n");
        let _ = writeln!(out, "  \"finding_count\": {},", self.findings.len());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"symbol\": {}, \
                 \"fingerprint\": {}, \"message\": {}",
                json_string(&f.path),
                f.line,
                json_string(f.rule),
                json_string(&f.symbol),
                json_string(&f.fingerprint),
                json_string(&f.message)
            );
            if !f.chain.is_empty() {
                out.push_str(", \"chain\": [");
                for (j, step) in f.chain.iter().enumerate() {
                    let sep = if j == 0 { "" } else { ", " };
                    let _ = write!(out, "{sep}{}", json_string(step));
                }
                out.push(']');
            }
            out.push('}');
        }
        if self.findings.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut r = Report::default();
        r.counts.files_scanned = 2;
        r.findings.push(Finding::in_symbol(
            "panic-reach",
            "crates/x/src/a.rs",
            7,
            "x::a::f",
            "b.unwrap()",
            "`.unwrap()` with \"quotes\"\tand tabs",
        ));
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"szx-audit/3\""));
        assert!(a.contains("\\\"quotes\\\"\\tand tabs"));
        assert!(a.contains("\"finding_count\": 1"));
        assert!(a.contains("\"fingerprint\": \""));
        assert!(a.contains("\"panic-reach\": 1"));
    }

    #[test]
    fn empty_report_renders_clean() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(r.to_json().contains("\"findings\": []"));
        assert!(r.render_text().contains("0 finding(s)"));
    }

    #[test]
    fn fingerprints_ignore_whitespace_and_line_numbers() {
        let a = fingerprint("panic-reach", "szx_core::decode::f", "let x = b [ 0 ] ;");
        let b = fingerprint("panic-reach", "szx_core::decode::f", "let x = b [ 0 ]   ;");
        assert_eq!(a, b);
        let c = fingerprint("panic-reach", "szx_core::decode::g", "let x = b [ 0 ] ;");
        assert_ne!(a, c, "symbol is part of the identity");
        let d = fingerprint("hot-loop-alloc", "szx_core::decode::f", "let x = b [ 0 ] ;");
        assert_ne!(a, d, "rule is part of the identity");
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn chains_render_in_text_and_json() {
        let mut r = Report::default();
        r.findings.push(
            Finding::in_symbol(
                "panic-reach",
                "crates/x/src/a.rs",
                3,
                "x::a::helper",
                "b.unwrap()",
                "`.unwrap()` reachable from decode entry",
            )
            .with_chain(vec![
                "x::a::decompress (crates/x/src/a.rs:1)".into(),
                "x::a::helper (crates/x/src/a.rs:3)".into(),
            ]),
        );
        let text = r.render_text();
        assert!(text.contains("call chain:"), "{text}");
        assert!(text.contains("x::a::decompress"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"chain\": ["), "{json}");
    }
}
