//! Workspace-wide call graph over the items of [`crate::parse`].
//!
//! Resolution is name-based — there is no type inference — so it is tuned
//! to be *honest* rather than complete:
//!
//! * **Qualified path calls** (`dekernels::decode_nonconstant_block(…)`,
//!   `Header::parse(…)`, `crate::x::f(…)`) resolve by suffix match against
//!   fully qualified symbols, preferring same-file, then same-crate
//!   candidates. These are the precise edges the rules lean on.
//! * **Bare calls** (`helper(…)`) resolve same-file first — the dominant
//!   Rust idiom — then same-crate, then workspace-wide free functions.
//! * **Method calls** (`x.parse(…)`) are the ambiguous case: a name-only
//!   match against every `impl` method would fabricate edges through std
//!   shadows (`.len()`, `.get()`, …) and force untruthful annotations on
//!   whatever they happen to reach. Receiver-`self` calls resolve against
//!   the caller's own impl type; other receivers resolve only when the
//!   name is not on the std-shadow blocklist, tiered same-file → same
//!   crate → workspace.
//!
//! * **Crate boundaries**: a call resolves into another crate only to an
//!   item it exports (a `pub` fn or a trait method) and only if the
//!   caller's `[dependencies]` list it, so a std method never wires an edge
//!   to a namesake the caller cannot reach (`Vec::drain` to a private
//!   `ThreadBuf::drain`, `reader.index(i)` to proptest's `Index::index`).
//!
//! Unresolved calls (std, rayon, unknown methods) simply have no edge; the
//! fixture suite proves the edges the rules *require* do exist.

use std::collections::{HashMap, VecDeque};

use crate::parse::{CallSite, FnItem, ParsedFile};

/// Method names whose workspace definitions shadow ubiquitous std methods;
/// resolving them by name alone would wire false edges through the graph.
/// Calls to these resolve only via an explicit qualified path
/// (`Type::name(…)`) or a receiver-`self` match inside the defining impl.
const METHOD_SHADOWS: &[&str] = &[
    "len", "is_empty", "get", "fill", "parse", "clone", "push", "pop", "insert", "remove",
    "extend", "iter", "store", "load", "swap", "send", "recv", "join", "lock", "contains", "add",
    "sub", "set", "set_max", "observe", "next", "write", "read", "flush", "take", "clear", "new",
    "default", "fmt", "drop", "min", "max", "finish", "reset", "state",
];

/// One function node plus the file it came from.
#[derive(Debug)]
pub struct Node {
    pub item: FnItem,
    /// Index into the audit's file list.
    pub file: usize,
    /// Workspace-relative path (duplicated for rendering convenience).
    pub rel_path: String,
    /// Crate ident (first segment of the symbol path).
    pub krate: String,
}

/// A resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    pub callee: usize,
    /// 0-based line of the call site in the caller's file.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<Node>,
    pub edges: Vec<Vec<Edge>>,
    /// Total resolved edge count (for the report's counters).
    pub edge_count: usize,
}

/// A step in a reported call chain.
#[derive(Debug, Clone)]
pub struct ChainStep {
    pub sym: String,
    pub rel_path: String,
    /// 1-based line: the call site that took the traversal here (the entry
    /// step carries its signature line).
    pub line: usize,
}

/// The crates `manifest` (a `Cargo.toml`) lists under `[dependencies]`, as
/// crate idents (`szx-core` → `szx_core`).
fn dependencies(manifest: &str) -> Vec<String> {
    let mut inside = false;
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == "[dependencies]";
        } else if let Some((key, _)) = line.split_once('=').filter(|_| inside) {
            deps.push(key.trim().trim_matches('"').replace('-', "_"));
        }
    }
    deps
}

impl CallGraph {
    /// Build the graph from every parsed file. `files` pairs each parsed
    /// item set with its workspace-relative path, `manifests` each
    /// `Cargo.toml`'s text with its directory (named after its crate).
    pub fn build(files: &[(String, ParsedFile)], manifests: &[(String, String)]) -> CallGraph {
        let deps: HashMap<String, Vec<String>> = manifests
            .iter()
            .map(|(dir, text)| {
                let krate = dir.rsplit('/').next().unwrap_or_default();
                (krate.replace('-', "_"), dependencies(text))
            })
            .collect();
        let mut nodes = Vec::new();
        for (fi, (rel, parsed)) in files.iter().enumerate() {
            for item in &parsed.fns {
                let krate = item.sym.split("::").next().unwrap_or_default().to_string();
                nodes.push(Node {
                    item: item.clone(),
                    file: fi,
                    rel_path: rel.clone(),
                    krate,
                });
            }
        }

        // Name index: bare name → node indices.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name.entry(n.item.name.as_str()).or_default().push(i);
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        let mut edge_count = 0usize;
        for i in 0..nodes.len() {
            let calls = nodes[i].item.calls.clone();
            let my_deps = deps.get(&nodes[i].krate).map_or(&[][..], Vec::as_slice);
            for call in &calls {
                let targets = resolve(&nodes, &by_name, i, call, my_deps);
                for tgt in targets {
                    if tgt != i {
                        edges[i].push(Edge {
                            callee: tgt,
                            line: call.line,
                        });
                        edge_count += 1;
                    }
                }
            }
        }
        CallGraph {
            nodes,
            edges,
            edge_count,
        }
    }

    /// Every node reachable from `entries` (indices), with, for each, the
    /// chain of steps from its entry point. Entries themselves are
    /// included. Test fns never traverse.
    pub fn reach(&self, entries: &[usize]) -> HashMap<usize, Vec<ChainStep>> {
        let mut chains: HashMap<usize, Vec<ChainStep>> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &e in entries {
            if self.nodes[e].item.is_test || chains.contains_key(&e) {
                continue;
            }
            chains.insert(
                e,
                vec![ChainStep {
                    sym: self.nodes[e].item.sym.clone(),
                    rel_path: self.nodes[e].rel_path.clone(),
                    line: self.nodes[e].item.sig_line + 1,
                }],
            );
            queue.push_back(e);
        }
        while let Some(i) = queue.pop_front() {
            let base = chains.get(&i).cloned().unwrap_or_default();
            for edge in &self.edges[i] {
                let c = edge.callee;
                if self.nodes[c].item.is_test || chains.contains_key(&c) {
                    continue;
                }
                let mut chain = base.clone();
                chain.push(ChainStep {
                    sym: self.nodes[c].item.sym.clone(),
                    rel_path: self.nodes[c].rel_path.clone(),
                    line: edge.line + 1,
                });
                chains.insert(c, chain);
                queue.push_back(c);
            }
        }
        chains
    }
}

/// Resolve one call site from node `caller`, whose crate depends on the
/// crates `deps`, to target node indices.
fn resolve(
    nodes: &[Node],
    by_name: &HashMap<&str, Vec<usize>>,
    caller: usize,
    call: &CallSite,
    deps: &[String],
) -> Vec<usize> {
    let me = &nodes[caller];
    if call.method {
        let name = call.path.as_str();
        let Some(cands) = by_name.get(name) else {
            return Vec::new();
        };
        let methods: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| nodes[c].item.impl_type.is_some())
            .collect();
        if methods.is_empty() {
            return Vec::new();
        }
        // `self.name(…)`: the receiver type is the caller's own impl type.
        if call.on_self {
            if let Some(ty) = &me.item.impl_type {
                let own: Vec<usize> = methods
                    .iter()
                    .copied()
                    .filter(|&c| {
                        nodes[c].item.impl_type.as_deref() == Some(ty) && nodes[c].krate == me.krate
                    })
                    .collect();
                if !own.is_empty() {
                    return own;
                }
            }
        }
        if METHOD_SHADOWS.contains(&name) {
            return Vec::new();
        }
        return tiered(nodes, me, deps, &methods);
    }

    // Path call. Normalize leading `crate`/`self`/`super` (suffix matching
    // below subsumes their module meaning) and `Self` (caller impl type).
    let mut segs: Vec<String> = call.path.split("::").map(str::to_string).collect();
    while segs
        .first()
        .is_some_and(|s| s == "crate" || s == "self" || s == "super")
    {
        segs.remove(0);
    }
    if segs.first().is_some_and(|s| s == "Self") {
        match &me.item.impl_type {
            Some(ty) => segs[0] = ty.clone(),
            None => return Vec::new(),
        }
    }
    if segs.is_empty() {
        return Vec::new();
    }
    let name = segs.last().cloned().unwrap_or_default();
    let Some(cands) = by_name.get(name.as_str()) else {
        return Vec::new();
    };

    if segs.len() == 1 {
        // Bare call: same-file fns (free or same-impl associated) first.
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| nodes[c].file == me.file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let free: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| nodes[c].item.impl_type.is_none())
            .collect();
        return tiered(nodes, me, deps, &free);
    }

    // Qualified: match `…::a::b::name` as a segment-suffix of the symbol.
    let suffix = segs.join("::");
    let matches: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| {
            let sym = &nodes[c].item.sym;
            sym == &suffix || sym.ends_with(&format!("::{suffix}"))
        })
        .collect();
    tiered(nodes, me, deps, &matches)
}

/// Narrow `cands` to the best locality tier: same file, then same crate,
/// then what the crates `deps` export.
fn tiered(nodes: &[Node], me: &Node, deps: &[String], cands: &[usize]) -> Vec<usize> {
    if cands.is_empty() {
        return Vec::new();
    }
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| nodes[c].file == me.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| nodes[c].krate == me.krate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands
        .iter()
        .copied()
        .filter(|&c| nodes[c].item.is_pub && deps.contains(&nodes[c].krate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_items;
    use crate::source::parse_source;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        graph_with(files, &[])
    }

    /// The graph of `files` under the `(directory, Cargo.toml)` pairs
    /// `manifests`.
    fn graph_with(files: &[(&str, &str)], manifests: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(String, ParsedFile)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), parse_items(&parse_source(rel, src))))
            .collect();
        let manifests: Vec<(String, String)> = manifests
            .iter()
            .map(|(dir, text)| (dir.to_string(), text.to_string()))
            .collect();
        CallGraph::build(&parsed, &manifests)
    }

    fn idx(g: &CallGraph, sym: &str) -> usize {
        g.nodes.iter().position(|n| n.item.sym == sym).unwrap()
    }

    fn has_edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let f = idx(g, from);
        let t = idx(g, to);
        g.edges[f].iter().any(|e| e.callee == t)
    }

    #[test]
    fn qualified_cross_file_calls_resolve() {
        let g = graph(&[
            (
                "crates/szx-core/src/decode.rs",
                "pub fn decompress(b: &[u8]) { dekernels::decode_block(b); }\n",
            ),
            (
                "crates/szx-core/src/dekernels.rs",
                "pub(crate) fn decode_block(b: &[u8]) {}\n",
            ),
        ]);
        assert!(has_edge(
            &g,
            "szx_core::decode::decompress",
            "szx_core::dekernels::decode_block"
        ));
        assert_eq!(g.edge_count, 1);
    }

    #[test]
    fn bare_calls_prefer_same_file_then_crate() {
        let g = graph(&[
            (
                "crates/a/src/x.rs",
                "fn top() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/a/src/y.rs", "pub fn helper() {}\n"),
            (
                "crates/b/src/z.rs",
                "pub fn helper() {}\nfn user() { helper(); }\n",
            ),
        ]);
        assert!(has_edge(&g, "a::x::top", "a::x::helper"));
        assert!(!has_edge(&g, "a::x::top", "a::y::helper"));
        assert!(has_edge(&g, "b::z::user", "b::z::helper"));
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl_type() {
        let g = graph(&[(
            "crates/a/src/x.rs",
            "impl Reader {\n\
             pub fn parse(&self) { self.load(); }\n\
             fn load(&self) {}\n\
             }\n\
             impl Other {\n\
             fn load(&self) {}\n\
             }\n",
        )]);
        assert!(has_edge(&g, "a::x::Reader::parse", "a::x::Reader::load"));
        assert!(!has_edge(&g, "a::x::Reader::parse", "a::x::Other::load"));
    }

    #[test]
    fn std_shadow_method_names_do_not_wire_false_edges() {
        let g = graph(&[
            (
                "crates/a/src/x.rs",
                "pub fn walk(v: &[u8]) { let n = v.len(); }\n",
            ),
            (
                "crates/a/src/y.rs",
                "impl Archive { pub fn len(&self) -> usize { 0 } }\n",
            ),
        ]);
        assert!(!has_edge(&g, "a::x::walk", "a::y::Archive::len"));
        // But the qualified form still resolves.
        let g = graph(&[
            (
                "crates/a/src/x.rs",
                "pub fn walk(a: &Archive) { Archive::len(a); }\n",
            ),
            (
                "crates/a/src/y.rs",
                "impl Archive { pub fn len(&self) -> usize { 0 } }\n",
            ),
        ]);
        assert!(has_edge(&g, "a::x::walk", "a::y::Archive::len"));
    }

    #[test]
    fn distinctive_method_names_resolve_tiered() {
        let g = graph(&[
            (
                "crates/a/src/x.rs",
                "pub fn drive(r: &Reader) { r.decode_range(0, 4); }\n",
            ),
            (
                "crates/a/src/y.rs",
                "impl Reader { pub fn decode_range(&self, a: usize, b: usize) {} }\n",
            ),
        ]);
        assert!(has_edge(&g, "a::x::drive", "a::y::Reader::decode_range"));
    }

    #[test]
    fn self_path_calls_use_the_impl_type() {
        let g = graph(&[(
            "crates/a/src/x.rs",
            "impl Header {\n\
             pub fn parse(b: &[u8]) {}\n\
             pub fn read(b: &[u8]) { Self::parse(b); }\n\
             }\n",
        )]);
        assert!(has_edge(&g, "a::x::Header::read", "a::x::Header::parse"));
    }

    #[test]
    fn reach_reports_full_chains_and_skips_tests() {
        let g = graph(&[
            (
                "crates/szx-core/src/decode.rs",
                "pub fn decompress(b: &[u8]) { mid(b); }\n\
                 fn mid(b: &[u8]) { float::load(b); }\n\
                 #[cfg(test)]\n\
                 mod tests {\n\
                 fn t() { super::secret(); }\n\
                 }\n\
                 fn secret() {}\n",
            ),
            (
                "crates/szx-core/src/float.rs",
                "pub fn load(b: &[u8]) -> f32 { 0.0 }\n",
            ),
        ]);
        let entry = idx(&g, "szx_core::decode::decompress");
        let reach = g.reach(&[entry]);
        let tgt = idx(&g, "szx_core::float::load");
        let chain = reach.get(&tgt).expect("load reachable");
        let syms: Vec<&str> = chain.iter().map(|s| s.sym.as_str()).collect();
        assert_eq!(
            syms,
            vec![
                "szx_core::decode::decompress",
                "szx_core::decode::mid",
                "szx_core::float::load"
            ]
        );
        // `secret` is only called from a test module: unreachable.
        assert!(!reach.contains_key(&idx(&g, "szx_core::decode::secret")));
    }

    #[test]
    fn const_generic_block_turbofish_links_caller_to_callee() {
        let decode = "pub fn decompress(b: &[u8]) -> u8 {\n\
                      dekernels::decode::<u8, { 2 > 1 }>(b)\n\
                      + b.first().map_or(0, |_| dekernels::peek::<{ N }>(b))\n\
                      }\n";
        let dekernels = "pub fn decode<T, const C: bool>(b: &[u8]) -> u8 {\n\
                         b[7]\n\
                         }\n\
                         pub fn peek<const N: usize>(b: &[u8]) -> u8 {\n\
                         b.get(N).copied().unwrap_or(0)\n\
                         }\n";
        let files = [
            ("crates/szx-core/src/decode.rs", decode),
            ("crates/szx-core/src/dekernels.rs", dekernels),
        ];
        let g = graph(&files);
        let entry = "szx_core::decode::decompress";
        assert!(has_edge(&g, entry, "szx_core::dekernels::decode"));
        assert!(has_edge(&g, entry, "szx_core::dekernels::peek"));
        // The panic behind the call is reported through the chain.
        let (f, _) = crate::rules::testutil::run_graph(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "panic-reach");
        assert_eq!(f[0].symbol, "szx_core::dekernels::decode");
        assert_eq!(f[0].chain.len(), 2, "{:?}", f[0].chain);
        assert!(f[0].chain[0].contains(entry));
    }

    /// szx-core's manifest, listing szx-telemetry.
    const CORE_USES_TELEMETRY: (&str, &str) = (
        "crates/szx-core",
        "[package]\nname = \"szx-core\"\n\n[dependencies]\nszx-telemetry = { workspace = true }\n",
    );

    #[test]
    fn private_fns_of_other_crates_are_not_callees() {
        // A std `Vec::drain` in the decoder, and a private `drain` method
        // that panics in another crate: no edge, no finding.
        let decode = "impl Decoder {\n\
                      pub fn decode_range(&mut self, v: &mut Vec<u8>, n: usize) {\n\
                      v.drain(..n);\n\
                      }\n\
                      }\n";
        let telemetry = |vis: &str| {
            format!(
                "impl ThreadBuf {{\n\
                 {vis}fn drain(&self, v: &[u8]) -> u8 {{\n\
                 v[0]\n\
                 }}\n\
                 }}\n"
            )
        };
        let entry = "szx_core::decode::Decoder::decode_range";
        let callee = "szx_telemetry::trace::ThreadBuf::drain";
        for (vis, linked) in [("", false), ("pub(crate) ", false), ("pub ", true)] {
            let buf = telemetry(vis);
            let files = [
                ("crates/szx-core/src/decode.rs", decode),
                ("crates/szx-telemetry/src/trace.rs", buf.as_str()),
            ];
            let g = graph_with(&files, &[CORE_USES_TELEMETRY]);
            assert_eq!(has_edge(&g, entry, callee), linked, "{vis:?}");
            let (f, _) = crate::rules::testutil::run_graph_with(&files, &[CORE_USES_TELEMETRY]);
            assert_eq!(f.len(), usize::from(linked), "{vis:?}: {f:?}");
        }
        // A trait method is as visible as its trait.
        let g = graph_with(
            &[
                ("crates/szx-core/src/decode.rs", decode),
                (
                    "crates/szx-telemetry/src/trace.rs",
                    "impl Drain for ThreadBuf {\n\
                     fn drain(&self) {}\n\
                     }\n",
                ),
            ],
            &[CORE_USES_TELEMETRY],
        );
        assert!(has_edge(&g, entry, callee));
    }

    #[test]
    fn a_call_crosses_only_into_a_dependency() {
        // szx-cli's `reader.index(i)` and a public `Index::index` in
        // another crate: linked only when szx-cli's manifest lists it.
        let files = [
            (
                "crates/szx-cli/src/main.rs",
                "fn read(reader: &Frames, i: usize) { reader.index(i); }\n",
            ),
            (
                "shims/proptest/src/sample.rs",
                "impl Index {\n\
                 pub fn index(&self, n: usize) -> usize { n }\n\
                 }\n",
            ),
        ];
        let (caller, callee) = ("szx_cli::read", "proptest::sample::Index::index");
        let cli = |deps: &str| format!("[package]\nname = \"szx-cli\"\n\n[dependencies]\n{deps}");
        let without = cli("szx-core = { workspace = true }\n");
        let with = cli("proptest = { workspace = true }\n");
        let root = (
            "",
            "[workspace.dependencies]\nproptest = { path = \"shims/proptest\" }\n",
        );
        for (manifest, linked) in [(&without, false), (&with, true)] {
            let g = graph_with(&files, &[root, ("crates/szx-cli", manifest)]);
            assert_eq!(has_edge(&g, caller, callee), linked, "{manifest}");
        }
        // Dev-dependencies and other sections do not count.
        let dev = cli("\n[dev-dependencies]\nproptest = { workspace = true }\n");
        assert!(!has_edge(
            &graph_with(&files, &[("crates/szx-cli", &dev)]),
            caller,
            callee
        ));
    }

    #[test]
    fn recursion_terminates() {
        let g = graph(&[(
            "crates/a/src/x.rs",
            "pub fn a() { b(); }\nfn b() { a(); }\n",
        )]);
        let reach = g.reach(&[idx(&g, "a::x::a")]);
        assert_eq!(reach.len(), 2);
    }
}
