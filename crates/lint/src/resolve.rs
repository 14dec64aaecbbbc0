//! Deterministic name resolution: turn [`crate::ir`] call sites into
//! intra-workspace call-graph edges.
//!
//! The resolver is conservative in the direction that keeps the analysis
//! *fail-closed* for the reachability rules:
//!
//! * **Method calls** resolve to the union of every non-test workspace
//!   method with that name *and a `self` receiver* (correct
//!   over-approximation for trait-object dispatch — `emit_batch`,
//!   `score`, `recommend_batch` all dispatch through `dyn` on the serve
//!   path — without letting `.load(…)` on an atomic union into an
//!   associated `ServingEngine::load`). A `self.…` receiver narrows to
//!   the surrounding `impl` owner's methods first.
//! * **Path calls** expand `use` aliases, `crate` / `self` / `super` /
//!   `Self` prefixes and one level of re-export chasing, then look up
//!   free functions by (crate, module) and associated functions by
//!   (crate, owner). `std` / `core` / `alloc` and the vendored stand-ins
//!   are external; their behaviour is covered by the fact lists in
//!   [`crate::ir`], not by edges.
//! * **Anything left over** lands in the unresolved bucket with its call
//!   site — counted in the report, and a hard failure when the caller is
//!   inside a serve root's closure (DESIGN.md §19).
//!
//! Deliberate skips (not unresolved): uppercase bare / terminal names
//! (tuple-struct and enum-variant constructors), `#[derive]`-generated
//! methods (`default`, `fmt`, `from`, …) and associated functions on
//! types with no same-crate `impl` body.

use crate::ir::{CallKind, Fact, FileIr};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose internals we never see: edges stop here, facts took over.
const EXTERNAL_CRATES: &[&str] = &["std", "core", "alloc", "rand", "proptest"];

/// See [`crate::ir`]: derive-generated method names that legitimately
/// have no workspace body.
const DERIVED_METHODS: &[&str] = &[
    "default",
    "clone",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "fmt",
    "from",
    "into",
    "from_str",
    "try_from",
    "try_into",
];

/// Bare names that resolve into the std prelude.
const PRELUDE_FNS: &[&str] = &["drop"];

/// Primitive type names: lowercase, so the uppercase-owner heuristics
/// miss them, but `f32::from_le_bytes(…)` is as external as `std`.
const PRIMITIVES: &[&str] = &[
    "bool", "char", "str", "f32", "f64", "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16",
    "u32", "u64", "u128", "usize",
];

/// One function node in the resolved graph.
#[derive(Debug, Clone)]
pub struct GFn {
    /// Fully qualified name (`rm_core::bpr::Bpr::score`).
    pub qual: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Test-only (cfg(test) / #[test] / tests dir): excluded from rules.
    pub is_test: bool,
    /// Behaviour facts from the body scan.
    pub facts: Vec<Fact>,
    /// Indexing sites (counted, not findings).
    pub index_sites: u32,
    /// `assert!`-family sites (counted, not findings).
    pub assert_sites: u32,
    /// Sorted, deduplicated callee function ids.
    pub callees: Vec<usize>,
}

/// One call the resolver could not attribute to any workspace function.
#[derive(Debug, Clone)]
pub struct Unresolved {
    /// Caller function id.
    pub caller: usize,
    /// Called name as written.
    pub name: String,
    /// 1-based call-site line.
    pub line: u32,
    /// 1-based call-site column.
    pub col: u32,
}

/// The resolved intra-workspace call graph.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Function nodes, in deterministic (file, declaration) order.
    pub fns: Vec<GFn>,
    /// Unresolved call sites, in caller order.
    pub unresolved: Vec<Unresolved>,
    /// Total directed edges (sum of callee-list lengths).
    pub edge_count: usize,
}

impl Graph {
    /// Index of a function by fully qualified name, if unique-enough: the
    /// first match in deterministic order.
    #[must_use]
    pub fn find(&self, qual: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.qual == qual)
    }
}

/// Resolution outcome for one call site.
enum Res {
    Edges(Vec<usize>),
    External,
    Skip,
    Unresolved,
}

struct Indexes<'a> {
    files: &'a [FileIr],
    /// (crate, owner, method) → fn ids.
    by_owner: BTreeMap<(String, String, String), Vec<usize>>,
    /// method name → fn ids (all owners, non-test).
    by_name: BTreeMap<String, Vec<usize>>,
    /// (crate, "::"-joined module, free fn name) → fn ids.
    free_fns: BTreeMap<(String, String, String), Vec<usize>>,
    /// Known (crate, "::"-joined module) pairs, with all prefixes.
    modules: BTreeSet<(String, String)>,
    /// Workspace crate names (including synthetic bin/test crates).
    crates: BTreeSet<String>,
    /// (crate, "::"-joined module) → file index (for re-export chasing).
    module_files: BTreeMap<(String, String), usize>,
}

fn join(segs: &[String]) -> String {
    segs.join("::")
}

impl<'a> Indexes<'a> {
    fn build(files: &'a [FileIr]) -> (Self, Vec<GFn>, Vec<(usize, usize)>) {
        let mut by_owner: BTreeMap<(String, String, String), Vec<usize>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free_fns: BTreeMap<(String, String, String), Vec<usize>> = BTreeMap::new();
        let mut modules = BTreeSet::new();
        let mut crates = BTreeSet::new();
        let mut module_files = BTreeMap::new();
        let mut gfns = Vec::new();
        // (graph fn id) → (file idx, fn idx) for the resolution pass.
        let mut origins = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            crates.insert(file.crate_name.clone());
            for p in 0..=file.module.len() {
                modules.insert((file.crate_name.clone(), join(&file.module[..p])));
            }
            module_files
                .entry((file.crate_name.clone(), join(&file.module)))
                .or_insert(fi);
            for (gi, f) in file.fns.iter().enumerate() {
                let id = gfns.len();
                gfns.push(GFn {
                    qual: f.qual.clone(),
                    file: file.path.clone(),
                    line: f.line,
                    col: f.col,
                    is_test: f.is_test,
                    facts: f.facts.clone(),
                    index_sites: f.index_sites,
                    assert_sites: f.assert_sites,
                    callees: Vec::new(),
                });
                origins.push((fi, gi));
                if f.is_test {
                    continue;
                }
                for p in 0..=f.module.len() {
                    modules.insert((file.crate_name.clone(), join(&f.module[..p])));
                }
                match &f.owner {
                    Some(owner) => {
                        by_owner
                            .entry((file.crate_name.clone(), owner.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                        // Only `self`-taking methods can be `.name(…)`
                        // dispatch targets; associated fns with a popular
                        // std method name (`ServingEngine::load` vs the
                        // atomics' `.load(…)`) must not join the union.
                        if f.has_self {
                            by_name.entry(f.name.clone()).or_default().push(id);
                        }
                    }
                    None => {
                        free_fns
                            .entry((file.crate_name.clone(), join(&f.module), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
            }
        }
        (
            Self {
                files,
                by_owner,
                by_name,
                free_fns,
                modules,
                crates,
                module_files,
            },
            gfns,
            origins,
        )
    }

    fn owner_known(&self, krate: &str, owner: &str) -> bool {
        let lo = (krate.to_string(), owner.to_string(), String::new());
        self.by_owner
            .range(lo..)
            .next()
            .is_some_and(|((c, o, _), _)| c == krate && o == owner)
    }

    /// Expand a path's leading segment against a file's alias map and the
    /// `crate` / `self` / `super` keywords. Returns the owning crate and
    /// crate-relative segments, `None` for external, or an error-ish
    /// `Unknown` for the unresolved bucket.
    fn expand(&self, file: &FileIr, segs: &[String], depth: u32) -> Expanded {
        if depth > 8 || segs.is_empty() {
            return Expanded::Unknown;
        }
        let s0 = segs[0].as_str();
        if s0 == "crate" {
            return Expanded::In(file.crate_name.clone(), segs[1..].to_vec());
        }
        if s0 == "self" {
            let mut m = file.module.clone();
            m.extend_from_slice(&segs[1..]);
            return Expanded::In(file.crate_name.clone(), m);
        }
        if s0 == "super" {
            let mut m = file.module.clone();
            let mut k = 0;
            while segs.get(k).is_some_and(|s| s == "super") {
                m.pop();
                k += 1;
            }
            m.extend_from_slice(&segs[k..]);
            return Expanded::In(file.crate_name.clone(), m);
        }
        if let Some(alias) = file.uses.get(s0) {
            let mut full = alias.clone();
            full.extend_from_slice(&segs[1..]);
            // Re-expand: the alias target may itself start with
            // `crate` / `super` or another alias (rare, depth-capped).
            if full.first().map(String::as_str) == Some(s0) && full.len() == segs.len() {
                return Expanded::Unknown; // self-alias, avoid looping
            }
            return self.expand(file, &full, depth + 1);
        }
        if EXTERNAL_CRATES.contains(&s0) || PRIMITIVES.contains(&s0) {
            return Expanded::External;
        }
        if self.crates.contains(s0) {
            return Expanded::In(s0.to_string(), segs[1..].to_vec());
        }
        // Relative child module of the file's own module…
        let mut child = file.module.clone();
        child.push(s0.to_string());
        if self
            .modules
            .contains(&(file.crate_name.clone(), join(&child)))
        {
            let mut m = file.module.clone();
            m.extend_from_slice(segs);
            return Expanded::In(file.crate_name.clone(), m);
        }
        // …or a crate-root module / type owner in the same crate.
        if self
            .modules
            .contains(&(file.crate_name.clone(), s0.to_string()))
            || self.owner_known(&file.crate_name, s0)
        {
            return Expanded::In(file.crate_name.clone(), segs.to_vec());
        }
        Expanded::Unknown
    }

    /// Resolve crate-relative segments to function ids.
    fn resolve_target(&self, krate: &str, segs: &[String], depth: u32) -> Res {
        if depth > 8 {
            return Res::Unresolved;
        }
        let Some(name) = segs.last() else {
            return Res::Unresolved;
        };
        let prefix = &segs[..segs.len() - 1];
        if let Some(ids) = self
            .free_fns
            .get(&(krate.to_string(), join(prefix), name.clone()))
        {
            return Res::Edges(ids.clone());
        }
        if let Some(owner) = prefix.last() {
            if let Some(ids) = self
                .by_owner
                .get(&(krate.to_string(), owner.clone(), name.clone()))
            {
                return Res::Edges(ids.clone());
            }
        }
        // One level of re-export chasing through the module's own file
        // (`pub use inner::helper;` at a crate or module root).
        if let Some(&fi) = self.module_files.get(&(krate.to_string(), join(prefix))) {
            let mod_file = &self.files[fi];
            if let Some(alias) = mod_file.uses.get(name) {
                match self.expand(mod_file, alias, depth + 1) {
                    Expanded::In(c2, s2) => return self.resolve_target(&c2, &s2, depth + 1),
                    Expanded::External => return Res::External,
                    Expanded::Unknown => {}
                }
            }
            for g in &mod_file.globs {
                if let Expanded::In(c2, p2) = self.expand(mod_file, g, depth + 1) {
                    if let Some(ids) = self.free_fns.get(&(c2.clone(), join(&p2), name.clone())) {
                        return Res::Edges(ids.clone());
                    }
                }
            }
        }
        // Facade re-exports: `pub use rm_dataset as dataset;` in a crate
        // root makes `reading_machine::dataset::io::load_corpus` a valid
        // path whose middle segments are no real module. Expand the first
        // segment past the deepest *existing* module prefix through that
        // module file's aliases, then retry.
        for plen in (0..prefix.len()).rev() {
            let Some(&fi) = self
                .module_files
                .get(&(krate.to_string(), join(&prefix[..plen])))
            else {
                continue;
            };
            let mod_file = &self.files[fi];
            if let Some(alias) = mod_file.uses.get(&segs[plen]) {
                let mut full = alias.clone();
                full.extend_from_slice(&segs[plen + 1..]);
                match self.expand(mod_file, &full, depth + 1) {
                    Expanded::In(c2, s2) => return self.resolve_target(&c2, &s2, depth + 1),
                    Expanded::External => return Res::External,
                    Expanded::Unknown => {}
                }
            }
            break;
        }
        let first = name.chars().next().unwrap_or('_');
        if first.is_ascii_uppercase() {
            // Tuple-struct / enum-variant constructor.
            return Res::Skip;
        }
        if DERIVED_METHODS.contains(&name.as_str()) {
            return Res::Skip;
        }
        if prefix
            .last()
            .and_then(|o| o.chars().next())
            .is_some_and(|c| c.is_ascii_uppercase())
        {
            // Associated fn on a type with no same-crate impl body:
            // std / derive territory (e.g. `Duration::from_nanos`).
            return Res::External;
        }
        Res::Unresolved
    }
}

enum Expanded {
    /// Workspace crate + crate-relative segments.
    In(String, Vec<String>),
    External,
    Unknown,
}

/// Build the resolved call graph for a parsed workspace.
#[must_use]
pub fn build(files: &[FileIr]) -> Graph {
    let (idx, mut gfns, origins) = Indexes::build(files);
    let mut unresolved = Vec::new();
    for id in 0..gfns.len() {
        let (fi, gi) = origins[id];
        let file = &files[fi];
        let f = &file.fns[gi];
        let mut callees: BTreeSet<usize> = BTreeSet::new();
        for call in &f.calls {
            if call.name.ends_with('!') {
                continue; // macro invocation: facts cover it
            }
            let res = match &call.kind {
                CallKind::Method { on_self } => {
                    let owner_hit = if *on_self && !f.owner_is_trait {
                        f.owner.as_ref().and_then(|o| {
                            idx.by_owner
                                .get(&(file.crate_name.clone(), o.clone(), call.name.clone()))
                                .cloned()
                        })
                    } else {
                        None
                    };
                    match owner_hit {
                        Some(ids) => Res::Edges(ids),
                        None => match idx.by_name.get(&call.name) {
                            Some(ids) => Res::Edges(ids.clone()),
                            None => Res::External,
                        },
                    }
                }
                CallKind::Path => {
                    if call.segs[0] == "Self" {
                        match &f.owner {
                            Some(owner) => {
                                let mut segs = vec![owner.clone()];
                                segs.extend_from_slice(&call.segs[1..]);
                                idx.resolve_target(&file.crate_name, &segs, 0)
                            }
                            None => Res::Skip,
                        }
                    } else {
                        match idx.expand(file, &call.segs, 0) {
                            Expanded::In(c, s) => idx.resolve_target(&c, &s, 0),
                            Expanded::External => Res::External,
                            Expanded::Unknown => {
                                let first = call.name.chars().next().unwrap_or('_');
                                let seg0_upper = call.segs[0]
                                    .chars()
                                    .next()
                                    .is_some_and(|c| c.is_ascii_uppercase());
                                if first.is_ascii_uppercase()
                                    || DERIVED_METHODS.contains(&call.name.as_str())
                                {
                                    Res::Skip
                                } else if seg0_upper {
                                    // Assoc fn on a type the workspace
                                    // never impls: std / derive territory.
                                    Res::External
                                } else {
                                    Res::Unresolved
                                }
                            }
                        }
                    }
                }
                CallKind::Bare => {
                    let mut res = Res::Unresolved;
                    let key = (file.crate_name.clone(), join(&f.module), call.name.clone());
                    if let Some(ids) = idx.free_fns.get(&key) {
                        res = Res::Edges(ids.clone());
                    } else if let Some(alias) = file.uses.get(&call.name) {
                        res = match idx.expand(file, alias, 0) {
                            Expanded::In(c, s) => idx.resolve_target(&c, &s, 0),
                            Expanded::External => Res::External,
                            Expanded::Unknown => Res::Unresolved,
                        };
                    } else {
                        for g in &file.globs {
                            if let Expanded::In(c, p) = idx.expand(file, g, 0) {
                                if let Some(ids) =
                                    idx.free_fns.get(&(c, join(&p), call.name.clone()))
                                {
                                    res = Res::Edges(ids.clone());
                                    break;
                                }
                            }
                        }
                        if matches!(res, Res::Unresolved)
                            && PRELUDE_FNS.contains(&call.name.as_str())
                        {
                            res = Res::External;
                        }
                    }
                    // A bare call to a name bound in this body (parameter,
                    // closure, nested fn) invokes a local callable value:
                    // its body — when defined here — was already scanned
                    // as part of this item, so there is no edge to add.
                    if matches!(res, Res::Unresolved) && f.locals.contains(&call.name) {
                        res = Res::Skip;
                    }
                    res
                }
            };
            match res {
                Res::Edges(ids) => callees.extend(ids),
                Res::External | Res::Skip => {}
                Res::Unresolved => unresolved.push(Unresolved {
                    caller: id,
                    name: call.name.clone(),
                    line: call.line,
                    col: call.col,
                }),
            }
        }
        callees.remove(&id); // self-recursion adds nothing to reachability
        gfns[id].callees = callees.into_iter().collect();
    }
    let edge_count = gfns.iter().map(|f| f.callees.len()).sum();
    Graph {
        fns: gfns,
        unresolved,
        edge_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::parse_file;

    fn graph(sources: &[(&str, &str)]) -> Graph {
        let files: Vec<FileIr> = sources.iter().map(|(p, s)| parse_file(p, s)).collect();
        build(&files)
    }

    #[test]
    fn bare_calls_resolve_within_module_and_via_use() {
        let g = graph(&[
            (
                "crates/core/src/lib.rs",
                "pub fn entry() { helper(); }\npub fn helper() {}",
            ),
            (
                "crates/serve/src/lib.rs",
                "use rm_core::entry;\npub fn serve() { entry(); }",
            ),
        ]);
        let entry = g.find("rm_core::entry").unwrap();
        let helper = g.find("rm_core::helper").unwrap();
        let serve = g.find("rm_serve::serve").unwrap();
        assert_eq!(g.fns[entry].callees, [helper]);
        assert_eq!(g.fns[serve].callees, [entry]);
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn method_calls_union_all_workspace_methods() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            r"
            pub struct A;
            pub struct B;
            impl A { pub fn score(&self) -> f32 { 0.0 } }
            impl B { pub fn score(&self) -> f32 { 1.0 } }
            pub fn rank(x: &A) -> f32 { x.score() }
            ",
        )]);
        let rank = g.find("rm_core::rank").unwrap();
        let a = g.find("rm_core::A::score").unwrap();
        let b = g.find("rm_core::B::score").unwrap();
        assert_eq!(g.fns[rank].callees, [a, b], "dyn-safe over-approximation");
    }

    #[test]
    fn on_self_narrows_to_the_impl_owner() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            r"
            pub struct A;
            pub struct B;
            impl A {
                pub fn outer(&self) { self.score(); }
                pub fn score(&self) {}
            }
            impl B { pub fn score(&self) {} }
            ",
        )]);
        let outer = g.find("rm_core::A::outer").unwrap();
        let a = g.find("rm_core::A::score").unwrap();
        assert_eq!(g.fns[outer].callees, [a]);
    }

    #[test]
    fn unknown_bare_call_lands_in_unresolved_but_locals_do_not() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "pub fn serve(f: impl Fn(u32)) { mystery(3); f(4); let g = |x: u32| x; g(5); }",
        )]);
        let names: Vec<&str> = g.unresolved.iter().map(|u| u.name.as_str()).collect();
        assert_eq!(
            names,
            ["mystery"],
            "fail closed on unknown names; calls through bound locals are skips"
        );
    }

    #[test]
    fn nested_fn_and_const_generic_items_resolve() {
        let g = graph(&[(
            "crates/sparse/src/vecops.rs",
            r"
            pub fn dot_block<const N: usize>(a: &[f32], bs: [&[f32]; N]) -> [f32; N] {
                [0.0; N]
            }
            pub fn dot(a: &[f32], b: &[f32]) -> f32 {
                fn tail(x: &[f32]) -> f32 { x.iter().sum() }
                let [s] = dot_block(a, [b]);
                s + tail(a)
            }
            ",
        )]);
        let dot = g.find("rm_sparse::vecops::dot").unwrap();
        let block = g.find("rm_sparse::vecops::dot_block").unwrap();
        assert_eq!(
            g.fns[dot].callees,
            [block],
            "array-type `;` must not end the item"
        );
        assert!(g.unresolved.is_empty(), "nested `tail` is a scanned local");
    }

    #[test]
    fn primitive_assoc_fns_and_facade_reexports_resolve() {
        let g = graph(&[
            (
                "crates/reading-machine/src/lib.rs",
                "pub use rm_dataset as dataset;",
            ),
            ("crates/dataset/src/io.rs", "pub fn load_corpus() {}"),
            (
                "crates/reading-machine/src/bin/reading-machine.rs",
                r"
                use reading_machine::dataset::io::load_corpus;
                fn main() {
                    load_corpus();
                    let _x = f32::from_le_bytes([0, 0, 0, 0]);
                }
                ",
            ),
        ]);
        let main = g.find("reading_machine_bin_reading_machine::main").unwrap();
        let lc = g.find("rm_dataset::io::load_corpus").unwrap();
        assert_eq!(g.fns[main].callees, [lc]);
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn std_paths_and_derives_are_external_not_unresolved() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            r"
            use std::collections::HashMap;
            #[derive(Default)]
            pub struct Cfg;
            pub fn f() {
                let _m: HashMap<u32, u32> = HashMap::new();
                let _c = Cfg::default();
                let _d = std::time::Duration::from_nanos(1);
            }
            ",
        )]);
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn reexport_chasing_one_level() {
        let g = graph(&[
            (
                "crates/util/src/lib.rs",
                "pub mod topk;\npub use topk::top_k_of;",
            ),
            ("crates/util/src/topk.rs", "pub fn top_k_of() {}"),
            (
                "crates/serve/src/lib.rs",
                "pub fn serve() { rm_util::top_k_of(); }",
            ),
        ]);
        let serve = g.find("rm_serve::serve").unwrap();
        let tk = g.find("rm_util::topk::top_k_of").unwrap();
        assert_eq!(g.fns[serve].callees, [tk]);
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn test_functions_are_never_resolution_targets() {
        let g = graph(&[(
            "crates/core/src/lib.rs",
            r"
            pub fn live() { helper(); }
            pub fn helper() {}
            #[cfg(test)]
            mod tests {
                pub fn helper() {}
                #[test]
                fn t() { super::live(); }
            }
            ",
        )]);
        let live = g.find("rm_core::live").unwrap();
        let helper = g.find("rm_core::helper").unwrap();
        assert_eq!(g.fns[live].callees, [helper], "not the test helper");
    }
}
