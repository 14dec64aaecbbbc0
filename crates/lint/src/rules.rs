//! The rule engine: nine token-pattern rules, each tied to an invariant
//! the paper's Table-1 reproducibility or the serving SLO depends on.
//!
//! Every rule is a pure function from a token stream to anchor-token
//! indices; the engine maps anchors to `file:line:col`, applies the
//! `cfg(test)` / `tests/`-directory exemption policy recorded on the rule,
//! and threads survivors through the allowlist.

use crate::lexer::{TokKind, Token};
use std::collections::BTreeSet;

/// One lint rule: metadata plus its matcher and scope.
pub struct Rule {
    /// Stable identifier, used in diagnostics and allowlist entries.
    pub id: &'static str,
    /// One-line description for `--list-rules` and reports.
    pub summary: &'static str,
    /// Diagnostic message attached to each finding.
    pub message: &'static str,
    /// Concrete remediation advice.
    pub fix_hint: &'static str,
    /// Human-readable scope description for `--list-rules`.
    pub scope: &'static str,
    /// True when findings inside `#[cfg(test)]` items or `tests/`
    /// directories are exempt.
    pub test_exempt: bool,
    /// Path filter (workspace-relative, `/`-separated).
    pub applies: fn(&str) -> bool,
    /// Matcher: returns anchor token indices, unsorted, may contain dups.
    pub check: fn(&[Token]) -> Vec<usize>,
}

/// All rules, in diagnostic-table order.
pub static RULES: &[Rule] = &[
    Rule {
        id: "dot-outside-vecops",
        summary: "hand-rolled .zip().map().sum() dot reduction outside rm_sparse::vecops",
        message: "hand-rolled dot-product reduction outside the blessed vecops kernels",
        fix_hint: "route through rm_sparse::vecops::dot (or dot_ref in reference tests); \
                   the lane-unrolled kernels pin the reduction order Table 1 depends on",
        scope: "crates/** except crates/sparse/src/vecops.rs (tests included)",
        test_exempt: false,
        applies: |p| p.starts_with("crates/") && p != "crates/sparse/src/vecops.rs",
        check: check_dot_chain,
    },
    Rule {
        id: "instant-now-in-serve",
        summary: "Instant::now() in rm-serve bypassing the Clock abstraction",
        message: "direct Instant::now() call bypasses the Clock abstraction",
        fix_hint: "take time from a Clock (MonotonicClock in production, FakeClock in \
                   tests) so deadlines and metrics stay testable and fault-injectable",
        scope: "crates/serve/** (src and tests, cfg(test) included)",
        test_exempt: false,
        applies: |p| p.starts_with("crates/serve/"),
        check: check_instant_now,
    },
    Rule {
        id: "lock-join-unwrap-in-serve",
        summary: "unwrap()/expect() on lock()/join() results in the serving path",
        message: "unwrap/expect on a lock()/join() result can abort the serving path",
        fix_hint: "locks: unwrap_or_else(|e| e.into_inner()) to tolerate poisoning; \
                   joins: degrade the affected chunk instead of propagating the panic",
        scope: "crates/serve/src/** (cfg(test) and tests/ exempt)",
        test_exempt: true,
        applies: |p| p.starts_with("crates/serve/") && !p.contains("/tests/"),
        check: check_lock_join_unwrap,
    },
    Rule {
        id: "nondeterministic-iteration",
        summary: "HashMap/HashSet iteration in model-affecting crates",
        message: "iteration over a HashMap/HashSet visits entries in a nondeterministic order",
        fix_hint: "use a BTreeMap, or drain into a Vec and sort by a total key before \
                   the order can reach model output or on-disk artifacts",
        scope: "src/ of rm-core, rm-dataset, rm-embed, rm-datagen, rm-eval (cfg(test) exempt)",
        test_exempt: true,
        applies: |p| {
            [
                "crates/core/src/",
                "crates/dataset/src/",
                "crates/embed/src/",
                "crates/datagen/src/",
                "crates/eval/src/",
            ]
            .iter()
            .any(|pre| p.starts_with(pre))
        },
        check: check_nondet_iteration,
    },
    Rule {
        id: "panic-in-library",
        summary: "panic!/unreachable!/todo!/unimplemented! in rm-serve library code",
        message: "explicit panic in serving library code violates the degrade-don't-abort policy",
        fix_hint: "return an error or a fallback result; the serving path must degrade, \
                   never abort (DESIGN.md \u{00a7}10)",
        scope: "crates/serve/src/** (cfg(test) exempt)",
        test_exempt: true,
        applies: |p| p.starts_with("crates/serve/src/"),
        check: check_panic_in_library,
    },
    Rule {
        id: "float-accum-outside-vecops",
        summary: "manual f32 accumulation outside the blessed kernels",
        message: "manual f32 accumulation does not follow the documented vecops reduction order",
        fix_hint: "route through rm_sparse::vecops (dot/cosine/norm) or allowlist with a \
                   proof that the accumulation order is fixed and does not feed Table 1",
        scope: "src/ of rm-core, rm-embed, rm-eval, rm-sparse except vecops.rs (cfg(test) exempt)",
        test_exempt: true,
        applies: |p| {
            p != "crates/sparse/src/vecops.rs"
                && [
                    "crates/core/src/",
                    "crates/embed/src/",
                    "crates/eval/src/",
                    "crates/sparse/src/",
                ]
                .iter()
                .any(|pre| p.starts_with(pre))
        },
        check: check_float_accum,
    },
    Rule {
        id: "recommender-call-outside-pipeline",
        summary: "direct Recommender calls in serve code outside the candidate pipeline",
        message: "direct recommender call bypasses the candidate pipeline's provenance, \
                  merge, and filter stages",
        fix_hint: "route the request through the pipeline stages (sources \u{2192} merge \u{2192} \
                   filters \u{2192} rank) so every answer carries provenance; the fallback \
                   chain is the pipeline's terminal stage, not a direct call",
        scope: "crates/serve/src/** except src/pipeline/** (cfg(test) exempt)",
        test_exempt: true,
        applies: |p| {
            p.starts_with("crates/serve/src/") && !p.starts_with("crates/serve/src/pipeline/")
        },
        check: check_recommender_call,
    },
    Rule {
        id: "unbounded-channel-or-vec-queue-in-serve",
        summary: "unbounded mpsc::channel() or VecDeque::new() queue in rm-serve library code",
        message: "unbounded queue in serving code absorbs overload instead of shedding it",
        fix_hint: "bound the queue: mpsc::sync_channel(n) / VecDeque::with_capacity(n) behind \
                   admission control, so excess load is shed at the edge (DESIGN.md \u{00a7}16)",
        scope: "crates/serve/src/** (cfg(test) exempt)",
        test_exempt: true,
        applies: |p| p.starts_with("crates/serve/src/"),
        check: check_unbounded_queue,
    },
    Rule {
        id: "f32-widening-in-quant",
        summary: "hand-rolled i8 casts or f32 widening of quantized data outside rm_core::quant",
        message: "hand-rolled quantization arithmetic bypasses the blessed quant module and \
                  its fused kernels",
        fix_hint: "quantize through rm_core::quant (QuantArtifact/QuantQuery) and score with \
                   the vecops i8/f16 kernels; widening codes to f32 per element forfeits the \
                   memory win and breaks the exact-integer-accumulation contract",
        scope: "crates/** except rm_core::quant and rm_sparse::vecops (cfg(test) exempt)",
        test_exempt: true,
        applies: |p| {
            p.starts_with("crates/")
                && p != "crates/core/src/quant.rs"
                && p != "crates/sparse/src/vecops.rs"
        },
        check: check_quant_widening,
    },
];

/// Looks up a rule by id.
#[must_use]
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Rationale + example diagnostic per rule, for `--explain <rule>`.
/// Covers both the token rules above and the call-graph rules in
/// [`crate::callgraph`].
static EXPLAIN: &[(&str, &str, &str)] = &[
    (
        "dot-outside-vecops",
        "Float addition is not associative: a hand-rolled .zip().map().sum() reduction \
         accumulates in whatever order the iterator chain produces, which changes the \
         low-order bits of every score — and Table 1 is reproduced bit-for-bit. The \
         lane-unrolled vecops kernels pin one documented reduction order.",
        "error[dot-outside-vecops]: hand-rolled dot-product reduction outside the blessed \
         vecops kernels\n  --> crates/eval/src/metrics.rs:3:10\n   |\n 3 |         .zip(b)",
    ),
    (
        "instant-now-in-serve",
        "Serving deadlines, breaker timeouts, and latency metrics must be testable on \
         simulated time. A direct Instant::now() hard-wires the wall clock, so chaos tests \
         cannot fast-forward through timeouts and the loadgen cannot replay deterministically.",
        "error[instant-now-in-serve]: direct Instant::now() call bypasses the Clock \
         abstraction\n  --> crates/serve/src/engine.rs:120:17",
    ),
    (
        "lock-join-unwrap-in-serve",
        "A panicking worker poisons its mutex; unwrap() on lock() then aborts every later \
         request that touches the same lock — one fault becomes a full outage. Poison-tolerant \
         recovery (into_inner) plus per-chunk degradation keeps the blast radius at one chunk.",
        "error[lock-join-unwrap-in-serve]: unwrap/expect on a lock()/join() result can abort \
         the serving path\n  --> crates/serve/src/engine.rs:88:30",
    ),
    (
        "nondeterministic-iteration",
        "HashMap/HashSet iteration order varies per process (SipHash keys are randomized). \
         If that order reaches model output or an on-disk artifact, two identical runs \
         produce different bytes and the repro gate fails chasing ghosts.",
        "error[nondeterministic-iteration]: iteration over a HashMap/HashSet visits entries \
         in a nondeterministic order\n  --> crates/dataset/src/genre.rs:41:52",
    ),
    (
        "panic-in-library",
        "The serving path degrades, never aborts (DESIGN.md §10): a panic!() in library code \
         turns one bad user or one poisoned model slot into a crashed process. Errors must \
         flow as values so the engine can shed, fall back, or skip.",
        "error[panic-in-library]: explicit panic in serving library code violates the \
         degrade-don't-abort policy\n  --> crates/serve/src/filters.rs:57:9",
    ),
    (
        "float-accum-outside-vecops",
        "Same associativity argument as dot-outside-vecops, for any f32 reduction: \
         sum::<f32>(), fold(0.0f32, …) and friends commit to an accumulation order. Outside \
         the blessed kernels that order is an accident of iterator internals; an allowlist \
         entry must prove the order is fixed and the result never feeds Table 1.",
        "error[float-accum-outside-vecops]: manual f32 accumulation does not follow the \
         documented vecops reduction order\n  --> crates/embed/src/exact.rs:30:46",
    ),
    (
        "recommender-call-outside-pipeline",
        "Every served answer must carry provenance (which source, which stage, why). A direct \
         model.recommend() in serve code skips the sources → merge → filters → rank pipeline, \
         producing unexplainable answers; even the fallback chain serves through the \
         pipeline's terminal sources, so the rule has no exception.",
        "error[recommender-call-outside-pipeline]: direct recommender call bypasses the \
         candidate pipeline's provenance, merge, and filter stages\n  --> \
         crates/serve/src/engine.rs:1736:32",
    ),
    (
        "unbounded-channel-or-vec-queue-in-serve",
        "An unbounded queue converts overload into latency and memory growth: requests queue \
         instead of shedding, p99 explodes, and the process eventually OOMs. Bounded queues \
         behind admission control shed at the edge while the SLO holds (DESIGN.md §16).",
        "error[unbounded-channel-or-vec-queue-in-serve]: unbounded queue in serving code \
         absorbs overload instead of shedding it\n  --> crates/serve/src/queue.rs:77:31",
    ),
    (
        "f32-widening-in-quant",
        "The quantized artifacts win memory and throughput only while scoring stays in \
         integer domain: widening i8 codes to f32 per element re-pays the f32 cost and \
         silently changes rounding. All quant arithmetic lives in rm_core::quant and the \
         fused vecops kernels, where the exact-integer-accumulation contract is tested.",
        "error[f32-widening-in-quant]: hand-rolled quantization arithmetic bypasses the \
         blessed quant module and its fused kernels\n  --> crates/serve/src/rank.rs:203:22",
    ),
    (
        crate::callgraph::RULE_PANIC,
        "Scope-based panic rules only see files under crates/serve/src — a .unwrap() in an \
         rm-core helper called from serve_chunk_with is invisible to them. This rule walks \
         the call graph from the declared request roots, so the policy follows the code: \
         anything reachable from a root must degrade, not abort. Diagnostics carry the \
         root→sink chain as evidence.",
        "error[panic-reachable-from-serve-path]: may-panic operation reachable from a request \
         root: .expect(…)\n  --> crates/core/src/bpr.rs:188:36 (rm_core::bpr::Bpr::model_ref)\n  \
         via: rm_serve::engine::ServingEngine::serve_chunk_with → rm_core::bpr::Bpr::score → \
         rm_core::bpr::Bpr::model_ref",
    ),
    (
        crate::callgraph::RULE_ALLOC,
        "At million-user scale the request path cannot allocate per call: allocator churn \
         dominates tail latency and fragments the heap under load. Buffers are preallocated \
         at install time and reused per chunk; each surviving allocation must be approved as \
         bounded scratch with a written reason.",
        "error[alloc-reachable-from-serve-path]: allocation reachable from a request root: \
         format!(…)\n  --> crates/core/src/quant.rs:700:19 (rm_core::quant::QuantRecommender::new)\n  \
         via: rm_serve::engine::ServingEngine::serve_chunk_with → \
         rm_serve::pipeline::sources::QuantCfNeighboursSource::new → \
         rm_core::quant::QuantRecommender::new",
    ),
    (
        crate::callgraph::RULE_TAINT,
        "The deadly combination for reproducibility: HashMap/HashSet iteration (random order \
         per process) feeding an f32 accumulation (order-dependent result). Each alone can be \
         benign — together they guarantee run-to-run bit drift. The rule runs workspace-wide \
         because taint corrupts Table 1 wherever it happens, not just on the serve path.",
        "error[tainted-float-accum]: hash-order iteration feeds a float accumulation in the \
         same body\n  --> crates/eval/src/metrics.rs:44:22 (rm_eval::metrics::mean_score)",
    ),
    (
        crate::callgraph::RULE_UNRESOLVED,
        "The reachability rules are only sound if the closure is complete. A call the \
         resolver cannot attribute (closure parameter, function-pointer field) is a hole in \
         the proof — so inside a serve root's closure it fails the lint rather than silently \
         shrinking the audit surface. Fail closed, like the allowlist itself.",
        "error[unresolved-call-in-serve-closure]: call inside the serve closure that name \
         resolution cannot attribute: cannot resolve `callback(…)`\n  --> \
         crates/serve/src/engine.rs:410:9 (rm_serve::engine::ServingEngine::serve_chunk_with)",
    ),
];

/// Renders the `--explain <rule>` text: summary, scope, rationale, and an
/// example diagnostic. Returns `None` for unknown rule ids.
#[must_use]
pub fn explain(id: &str) -> Option<String> {
    let (_, rationale, example) = EXPLAIN.iter().find(|(eid, _, _)| *eid == id)?;
    let mut out = String::new();
    if let Some(rule) = rule_by_id(id) {
        out.push_str(&format!("{}: {}\n", rule.id, rule.summary));
        out.push_str(&format!("scope: {}\n", rule.scope));
        out.push_str(&format!(
            "test exemption: {}\n",
            if rule.test_exempt {
                "cfg(test) / tests-dir findings exempt"
            } else {
                "none (tests included)"
            }
        ));
        out.push_str(&format!("fix: {}\n", rule.fix_hint));
    } else if let Some(rule) = crate::callgraph::cg_rule_by_id(id) {
        out.push_str(&format!("{}: {}\n", rule.id, rule.summary));
        out.push_str(
            "scope: call-graph closure of the [[root]] entries in scripts/lint_allowlist.toml\n",
        );
        out.push_str(&format!("fix: {}\n", rule.fix_hint));
    } else {
        return None;
    }
    out.push_str(&format!("\nwhy:\n{rationale}\n"));
    out.push_str(&format!("\nexample:\n{example}\n"));
    Some(out)
}

/// Returns the index just past the `)` matching the `(` at `open`, tracking
/// nested parens/brackets/braces. `None` when unbalanced.
fn skip_parens(t: &[Token], open: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut j = open;
    while j < t.len() {
        let tok = &t[j];
        if tok.is_punct('(') {
            paren += 1;
        } else if tok.is_punct(')') {
            paren -= 1;
            if paren == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Rule 1: `.zip( … ).map( … ).sum(` / `.sum::<…>(` chains.
fn check_dot_chain(t: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if !(t[i].is_punct('.')
            && t.get(i + 1).is_some_and(|x| x.is_ident("zip"))
            && t.get(i + 2).is_some_and(|x| x.is_punct('(')))
        {
            continue;
        }
        let Some(j) = skip_parens(t, i + 2) else {
            continue;
        };
        if !(t.get(j).is_some_and(|x| x.is_punct('.'))
            && t.get(j + 1).is_some_and(|x| x.is_ident("map"))
            && t.get(j + 2).is_some_and(|x| x.is_punct('(')))
        {
            continue;
        }
        let Some(k) = skip_parens(t, j + 2) else {
            continue;
        };
        if t.get(k).is_some_and(|x| x.is_punct('.'))
            && t.get(k + 1).is_some_and(|x| x.is_ident("sum"))
            && t.get(k + 2)
                .is_some_and(|x| x.is_punct('(') || x.is_punct(':'))
        {
            out.push(i + 1);
        }
    }
    out
}

/// Rule 2: `Instant :: now ( )`.
fn check_instant_now(t: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if t[i].is_ident("Instant")
            && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 3).is_some_and(|x| x.is_ident("now"))
            && t.get(i + 4).is_some_and(|x| x.is_punct('('))
            && t.get(i + 5).is_some_and(|x| x.is_punct(')'))
        {
            out.push(i);
        }
    }
    out
}

/// Rule 3: `. lock|join ( ) . unwrap|expect (`.
fn check_lock_join_unwrap(t: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if t[i].is_punct('.')
            && t.get(i + 1)
                .is_some_and(|x| x.is_ident("lock") || x.is_ident("join"))
            && t.get(i + 2).is_some_and(|x| x.is_punct('('))
            && t.get(i + 3).is_some_and(|x| x.is_punct(')'))
            && t.get(i + 4).is_some_and(|x| x.is_punct('.'))
            && t.get(i + 5)
                .is_some_and(|x| x.is_ident("unwrap") || x.is_ident("expect"))
            && t.get(i + 6).is_some_and(|x| x.is_punct('('))
        {
            out.push(i + 5);
        }
    }
    out
}

/// Order-sensitive `HashMap`/`HashSet` methods for rule 4.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Index of the first `;` after `from` at balanced paren/bracket/brace
/// depth (statement end), or `t.len()`.
pub(crate) fn stmt_end(t: &[Token], from: usize) -> usize {
    let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
    let mut j = from;
    while j < t.len() {
        let tok = &t[j];
        if tok.kind == TokKind::Punct {
            match tok.text.as_bytes().first() {
                Some(b'(') => paren += 1,
                Some(b')') => paren -= 1,
                Some(b'[') => bracket += 1,
                Some(b']') => bracket -= 1,
                Some(b'{') => brace += 1,
                Some(b'}') => brace -= 1,
                Some(b';') if paren <= 0 && bracket <= 0 && brace <= 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    t.len()
}

/// Rule 4: heuristic local dataflow. A forward pass tracks identifiers
/// bound to `HashMap`/`HashSet` (via `let` statements whose span mentions
/// the type, or `name: … HashMap …` field/parameter annotations) with
/// shadowing applied at statement end — so `let v: Vec<_> = m.into_iter()…`
/// still flags the drain on the right-hand side before `m` is shadowed.
/// Flags `name.iter()`-family calls and `for … in [&][mut] name {` loops.
pub(crate) fn check_nondet_iteration(t: &[Token]) -> Vec<usize> {
    let mut bound: BTreeSet<String> = BTreeSet::new();
    // (apply-at index, name, bind?) — shadowing takes effect at `;`.
    let mut pending: Vec<(usize, String, bool)> = Vec::new();
    let mut out = Vec::new();
    for i in 0..t.len() {
        pending.retain(|(at, name, bind)| {
            if *at <= i {
                if *bind {
                    bound.insert(name.clone());
                } else {
                    bound.remove(name);
                }
                false
            } else {
                true
            }
        });
        let tok = &t[i];
        // Binding via `let [mut] NAME … ;` (skip `if let` / `while let`,
        // whose operand is a pattern, not a fresh map binding).
        if tok.is_ident("let")
            && !(i > 0 && (t[i - 1].is_ident("if") || t[i - 1].is_ident("while")))
        {
            let mut j = i + 1;
            if t.get(j).is_some_and(|x| x.is_ident("mut")) {
                j += 1;
            }
            if let Some(name_tok) = t.get(j).filter(|x| x.kind == TokKind::Ident) {
                let end = stmt_end(t, j);
                let has_hash = t[i..end]
                    .iter()
                    .any(|x| x.is_ident("HashMap") || x.is_ident("HashSet"));
                pending.push((end, name_tok.text.clone(), has_hash));
            }
        }
        // Binding via `NAME : … HashMap …` (parameters, struct fields). A
        // complete non-Hash annotation *unbinds* the name — a later fn's
        // `readings: Vec<Reading>` parameter must not inherit a HashMap
        // binding of the same name from an earlier fn. The unbind is
        // deferred to the next `{` / `;` so a shadowing statement's
        // right-hand side (`let tf: Vec<_> = tf.into_iter()…`) is still
        // checked against the old binding.
        if tok.kind == TokKind::Ident
            && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && !t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && !(i > 0 && t[i - 1].is_punct(':'))
        {
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut verdict = None;
            while j < t.len() && j < i + 24 {
                let x = &t[j];
                if x.is_ident("HashMap") || x.is_ident("HashSet") {
                    verdict = Some(true);
                    break;
                }
                if x.is_punct('<') {
                    angle += 1;
                } else if x.is_punct('>') {
                    angle -= 1;
                } else if angle <= 0
                    && (x.is_punct(',')
                        || x.is_punct(';')
                        || x.is_punct(')')
                        || x.is_punct('{')
                        || x.is_punct('='))
                {
                    verdict = Some(false);
                    break;
                }
                j += 1;
            }
            match verdict {
                Some(true) => {
                    bound.insert(tok.text.clone());
                }
                Some(false) if bound.contains(&tok.text) => {
                    let until = (j..t.len())
                        .find(|&k| t[k].is_punct('{') || t[k].is_punct(';'))
                        .unwrap_or(t.len());
                    pending.push((until, tok.text.clone(), false));
                }
                _ => {}
            }
        }
        // Usage: `NAME . iter-family (` (covers `self.NAME.…` — the NAME
        // token itself anchors).
        if tok.kind == TokKind::Ident
            && bound.contains(&tok.text)
            && t.get(i + 1).is_some_and(|x| x.is_punct('.'))
            && t.get(i + 2).is_some_and(|x| {
                x.kind == TokKind::Ident && ITER_METHODS.contains(&x.text.as_str())
            })
            && t.get(i + 3).is_some_and(|x| x.is_punct('('))
        {
            out.push(i + 2);
        }
        // Usage: `for PAT in [&][mut] [self .] NAME {`.
        if tok.is_ident("for") {
            let mut j = i + 1;
            while j < t.len() && j < i + 40 && !t[j].is_ident("in") {
                j += 1;
            }
            if t.get(j).is_some_and(|x| x.is_ident("in")) {
                let mut k = j + 1;
                while t
                    .get(k)
                    .is_some_and(|x| x.is_punct('&') || x.is_ident("mut"))
                {
                    k += 1;
                }
                if t.get(k).is_some_and(|x| x.is_ident("self"))
                    && t.get(k + 1).is_some_and(|x| x.is_punct('.'))
                {
                    k += 2;
                }
                if t.get(k)
                    .is_some_and(|x| x.kind == TokKind::Ident && bound.contains(&x.text))
                    && t.get(k + 1).is_some_and(|x| x.is_punct('{'))
                {
                    out.push(k);
                }
            }
        }
    }
    out
}

/// Rule 5: `panic! / unreachable! / todo! / unimplemented!` invocations.
fn check_panic_in_library(t: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if t[i].kind == TokKind::Ident
            && matches!(
                t[i].text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && t.get(i + 1).is_some_and(|x| x.is_punct('!'))
        {
            out.push(i);
        }
    }
    out
}

/// Rule 6: manual f32 accumulation — `sum::<f32>()` turbofish,
/// `let [mut] NAME : f32 = … .sum() … ;`, and `fold(<f32-literal>`.
pub(crate) fn check_float_accum(t: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        // `sum :: < f32 > (`
        if t[i].is_ident("sum")
            && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 3).is_some_and(|x| x.is_punct('<'))
            && t.get(i + 4).is_some_and(|x| x.is_ident("f32"))
            && t.get(i + 5).is_some_and(|x| x.is_punct('>'))
            && t.get(i + 6).is_some_and(|x| x.is_punct('('))
        {
            out.push(i);
        }
        // `let [mut] NAME : f32 = … sum ( ) … ;`
        if t[i].is_ident("let") {
            let mut j = i + 1;
            if t.get(j).is_some_and(|x| x.is_ident("mut")) {
                j += 1;
            }
            if t.get(j).is_some_and(|x| x.kind == TokKind::Ident)
                && t.get(j + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(j + 2).is_some_and(|x| x.is_ident("f32"))
                && t.get(j + 3).is_some_and(|x| x.is_punct('='))
            {
                let end = stmt_end(t, j + 3);
                for s in j + 4..end.saturating_sub(1) {
                    if t[s].is_ident("sum")
                        && t.get(s + 1).is_some_and(|x| x.is_punct('('))
                        && t.get(s + 2).is_some_and(|x| x.is_punct(')'))
                    {
                        out.push(s);
                    }
                }
            }
        }
        // `fold ( 0.0f32` — explicit f32 seed.
        if t[i].is_ident("fold")
            && t.get(i + 1).is_some_and(|x| x.is_punct('('))
            && t.get(i + 2)
                .is_some_and(|x| x.kind == TokKind::Num && x.text.ends_with("f32"))
        {
            out.push(i);
        }
    }
    out
}

/// Rule 7: `. recommend|recommend_batch|recommend_batch_into|rank_all (`
/// — direct model invocations on the serving path must live inside the
/// pipeline modules.
fn check_recommender_call(t: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if t[i].is_punct('.')
            && t.get(i + 1).is_some_and(|x| {
                matches!(
                    x.text.as_str(),
                    "recommend" | "recommend_batch" | "recommend_batch_into" | "rank_all"
                ) && x.kind == TokKind::Ident
            })
            && t.get(i + 2).is_some_and(|x| x.is_punct('('))
        {
            out.push(i + 1);
        }
    }
    out
}

/// Rule 8: `mpsc :: channel (` and `VecDeque :: new (` — the two ways an
/// unbounded in-memory queue sneaks into the serving path. Bounded
/// constructors (`sync_channel`, `with_capacity`) pass.
fn check_unbounded_queue(t: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        let unbounded = (t[i].is_ident("mpsc"), t[i].is_ident("VecDeque"));
        if !(unbounded.0 || unbounded.1) {
            continue;
        }
        let ctor = if unbounded.0 { "channel" } else { "new" };
        if t.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 3).is_some_and(|x| x.is_ident(ctor))
            && t.get(i + 4).is_some_and(|x| x.is_punct('('))
        {
            out.push(i);
        }
    }
    out
}

/// True for identifiers that mark a statement as touching quantized data:
/// the `i8` primitive itself, or a quant-flavoured name (`quantize`,
/// `QuantRow`, `dequantize_into`, …). `quantile`-family names are
/// statistics, not storage, and do not count.
fn is_quantish(text: &str) -> bool {
    if text == "i8" {
        return true;
    }
    let lower = text.to_ascii_lowercase();
    lower.contains("quant") && !lower.contains("quantile")
}

/// Rule 9: hand-rolled quantization arithmetic. Flags every `as i8` cast
/// (quantization must go through `rm_core::quant`'s clamp-and-scale
/// encoder), and `as f32` casts inside statements that touch quantized
/// data — an `i8` token or a quant-flavoured identifier in the same
/// statement — which indicate per-element widening instead of the fused
/// integer kernels.
fn check_quant_widening(t: &[Token]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..t.len() {
        if !t[i].is_ident("as") {
            continue;
        }
        let Some(next) = t.get(i + 1) else { continue };
        if next.is_ident("i8") {
            out.push(i + 1);
            continue;
        }
        if !next.is_ident("f32") {
            continue;
        }
        // Statement window: previous `;`/`{`/`}` to the closing `;`.
        let start = (0..i)
            .rev()
            .find(|&j| {
                t[j].kind == TokKind::Punct
                    && matches!(t[j].text.as_bytes().first(), Some(b';' | b'{' | b'}'))
            })
            .map_or(0, |j| j + 1);
        let end = stmt_end(t, i);
        let touches_quant = t[start..end]
            .iter()
            .any(|x| x.kind == TokKind::Ident && is_quantish(&x.text));
        if touches_quant {
            out.push(i + 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, mark_test_regions};

    fn anchors(check: fn(&[Token]) -> Vec<usize>, src: &str) -> Vec<String> {
        let mut toks = lex(src);
        mark_test_regions(&mut toks);
        check(&toks)
            .into_iter()
            .map(|i| toks[i].text.clone())
            .collect()
    }

    #[test]
    fn dot_chain_fires_on_code_not_strings() {
        let hits = anchors(
            check_dot_chain,
            "let d: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();",
        );
        assert_eq!(hits, vec!["zip"]);
        assert!(anchors(check_dot_chain, r#"let s = "a.zip(b).map(f).sum()";"#).is_empty());
        assert!(anchors(check_dot_chain, "// a.zip(b).map(f).sum()\nlet x = 1;").is_empty());
    }

    #[test]
    fn dot_chain_spans_lines_and_turbofish() {
        let src = "a.iter()\n  .zip(b.iter())\n  .map(|(x, y)| x * y)\n  .sum::<f32>()";
        assert_eq!(anchors(check_dot_chain, src), vec!["zip"]);
    }

    #[test]
    fn dot_chain_ignores_broken_chains() {
        assert!(anchors(check_dot_chain, "a.zip(b).map(f).collect::<Vec<_>>()").is_empty());
        assert!(anchors(check_dot_chain, "a.zip(b).filter(f).sum::<f32>()").is_empty());
    }

    #[test]
    fn instant_now_matches_call_only() {
        assert_eq!(
            anchors(check_instant_now, "let t0 = Instant::now();"),
            vec!["Instant"]
        );
        assert!(anchors(check_instant_now, "use std::time::Instant;").is_empty());
    }

    #[test]
    fn lock_join_unwrap_variants() {
        assert_eq!(
            anchors(check_lock_join_unwrap, "let g = mu.lock().unwrap();"),
            vec!["unwrap"]
        );
        assert_eq!(
            anchors(check_lock_join_unwrap, "h.join().expect(\"worker\");"),
            vec!["expect"]
        );
        assert!(anchors(
            check_lock_join_unwrap,
            "mu.lock().unwrap_or_else(|e| e.into_inner());"
        )
        .is_empty());
        assert!(anchors(check_lock_join_unwrap, "path.join(\"x\").unwrap();").is_empty());
    }

    #[test]
    fn nondet_iteration_flags_bound_maps() {
        let src = "let mut m: HashMap<u32, f32> = HashMap::new();\n\
                   for (k, v) in &m { use_it(k, v); }\n\
                   let total: u32 = m.values().sum();";
        let hits = anchors(check_nondet_iteration, src);
        assert_eq!(hits, vec!["m", "values"]);
    }

    #[test]
    fn nondet_iteration_respects_shadowing() {
        // RHS drain of the shadowing statement is still flagged; uses of
        // the new (Vec) binding afterwards are not.
        let src = "let mut tf: HashMap<u32, u32> = HashMap::new();\n\
                   let mut tf: Vec<(u32, u32)> = tf.into_iter().collect();\n\
                   tf.iter().for_each(drop);";
        let hits = anchors(check_nondet_iteration, src);
        assert_eq!(hits, vec!["into_iter"]);
    }

    #[test]
    fn nondet_iteration_sees_params_and_fields() {
        let src = "fn f(df: &HashMap<String, u32>) { for k in df.keys() { go(k); } }";
        assert_eq!(anchors(check_nondet_iteration, src), vec!["keys"]);
        let src = "struct S { seen: HashSet<u32> }\n\
                   impl S { fn go(&self) { self.seen.iter().count(); } }";
        assert_eq!(anchors(check_nondet_iteration, src), vec!["iter"]);
    }

    #[test]
    fn nondet_iteration_does_not_leak_bindings_across_fns() {
        // `readings` is a HashMap in the first fn; the second fn's
        // Vec-typed parameter of the same name must not stay bound.
        let src = "fn a() { let mut readings: HashMap<u32, u32> = HashMap::new();\n\
                   for k in readings.keys() { go(k); } }\n\
                   fn b(readings: Vec<u32>) { for r in &readings { go(r); }\n\
                   readings.into_iter().count(); }";
        let hits = anchors(check_nondet_iteration, src);
        assert_eq!(hits, vec!["keys"]);
    }

    #[test]
    fn nondet_iteration_ignores_point_lookups_and_vecs() {
        let src = "let mut m: HashMap<u32, u32> = HashMap::new();\n\
                   m.insert(1, 2); let x = m.get(&1); let n = m.len();\n\
                   let v: Vec<u32> = vec![];\n\
                   for y in v.iter() { go(y); }";
        assert!(anchors(check_nondet_iteration, src).is_empty());
    }

    #[test]
    fn panic_macros_fire_but_paths_do_not() {
        assert_eq!(
            anchors(check_panic_in_library, "panic!(\"boom\");"),
            vec!["panic"]
        );
        assert_eq!(
            anchors(check_panic_in_library, "unreachable!()"),
            vec!["unreachable"]
        );
        assert!(anchors(check_panic_in_library, "std::panic::catch_unwind(f);").is_empty());
    }

    #[test]
    fn float_accum_patterns() {
        assert_eq!(
            anchors(check_float_accum, "let n = xs.iter().map(sq).sum::<f32>();"),
            vec!["sum"]
        );
        assert_eq!(
            anchors(
                check_float_accum,
                "let norm: f32 = xs.iter().map(sq).sum();"
            ),
            vec!["sum"]
        );
        assert_eq!(
            anchors(check_float_accum, "xs.iter().fold(0.0f32, |a, b| a + b)"),
            vec!["fold"]
        );
        // f64 accumulation is deliberately out of scope.
        assert!(anchors(check_float_accum, "let n: f64 = xs.iter().sum();").is_empty());
        assert!(anchors(check_float_accum, "xs.iter().fold(0.0, |a, b| a + b)").is_empty());
    }

    #[test]
    fn rule_table_is_consistent() {
        let mut seen = std::collections::BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            assert!(rule_by_id(r.id).is_some());
        }
        assert_eq!(RULES.len(), 9);
        assert!(rule_by_id("no-such-rule").is_none());
    }

    #[test]
    fn scopes_match_spec() {
        let r1 = rule_by_id("dot-outside-vecops").unwrap();
        assert!((r1.applies)("crates/embed/src/exact.rs"));
        assert!(!(r1.applies)("crates/sparse/src/vecops.rs"));
        let r3 = rule_by_id("lock-join-unwrap-in-serve").unwrap();
        assert!((r3.applies)("crates/serve/src/engine.rs"));
        assert!(!(r3.applies)("crates/serve/tests/chaos.rs"));
        let r5 = rule_by_id("panic-in-library").unwrap();
        assert!(!(r5.applies)("crates/serve/tests/chaos.rs"));
        let r6 = rule_by_id("float-accum-outside-vecops").unwrap();
        assert!((r6.applies)("crates/sparse/src/dense.rs"));
        assert!(!(r6.applies)("crates/sparse/src/vecops.rs"));
        let r7 = rule_by_id("recommender-call-outside-pipeline").unwrap();
        assert!((r7.applies)("crates/serve/src/engine.rs"));
        assert!(!(r7.applies)("crates/serve/src/pipeline/sources.rs"));
        assert!(!(r7.applies)("crates/serve/tests/pipeline_tests.rs"));
        assert!(!(r7.applies)("crates/core/src/bpr.rs"));
        let r8 = rule_by_id("unbounded-channel-or-vec-queue-in-serve").unwrap();
        assert!((r8.applies)("crates/serve/src/overload.rs"));
        assert!(!(r8.applies)("crates/serve/tests/overload_tests.rs"));
        assert!(!(r8.applies)("crates/eval/src/harness.rs"));
        let r9 = rule_by_id("f32-widening-in-quant").unwrap();
        assert!((r9.applies)("crates/serve/src/engine.rs"));
        assert!((r9.applies)("crates/bench/src/bin/quant-bench.rs"));
        assert!(!(r9.applies)("crates/core/src/quant.rs"));
        assert!(!(r9.applies)("crates/sparse/src/vecops.rs"));
    }

    #[test]
    fn quant_widening_flags_casts_in_quant_context_only() {
        // Any `as i8` cast is hand-rolled quantization.
        assert_eq!(
            anchors(check_quant_widening, "let code = (v * 127.0) as i8;"),
            vec!["i8"]
        );
        // `as f32` fires only when the statement touches quantized data.
        assert_eq!(
            anchors(
                check_quant_widening,
                "let x = f32::from(byte as i8) * scale; let y = quant_row[0] as f32;"
            ),
            vec!["i8", "f32"]
        );
        assert_eq!(
            anchors(
                check_quant_widening,
                "let s = dequantized.iter().map(|&c| c as f32 * scale);"
            ),
            vec!["f32"]
        );
        // Plain numeric widening with no quant context passes.
        assert!(anchors(check_quant_widening, "let r = count as f32 / n as f32;").is_empty());
        // Quantile statistics are not quantization.
        assert!(anchors(check_quant_widening, "let p99 = quantile_rank as f32 / n;").is_empty());
    }

    #[test]
    fn unbounded_queue_flags_ctors_not_bounded_ones() {
        assert_eq!(
            anchors(check_unbounded_queue, "let (tx, rx) = mpsc::channel();"),
            vec!["mpsc"]
        );
        assert_eq!(
            anchors(
                check_unbounded_queue,
                "let q: VecDeque<Req> = VecDeque::new();"
            ),
            vec!["VecDeque"]
        );
        assert!(anchors(
            check_unbounded_queue,
            "let (tx, rx) = mpsc::sync_channel(64);"
        )
        .is_empty());
        assert!(anchors(
            check_unbounded_queue,
            "let q = VecDeque::with_capacity(cap);"
        )
        .is_empty());
        // Type annotations alone do not anchor — only constructions.
        assert!(anchors(check_unbounded_queue, "entries: VecDeque<QueuedRequest>,").is_empty());
    }

    #[test]
    fn recommender_call_variants() {
        assert_eq!(
            anchors(
                check_recommender_call,
                "let recs = model.recommend(user, k);"
            ),
            vec!["recommend"]
        );
        assert_eq!(
            anchors(
                check_recommender_call,
                "model.recommend_batch_into(&users, k, &mut out);"
            ),
            vec!["recommend_batch_into"]
        );
        assert_eq!(
            anchors(check_recommender_call, "let all = m.rank_all(user);"),
            vec!["rank_all"]
        );
        // Method definitions and unrelated idents do not anchor.
        assert!(anchors(
            check_recommender_call,
            "fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> { body() }"
        )
        .is_empty());
        assert!(anchors(check_recommender_call, "self.recommend_explained(user, k)").is_empty());
    }
}
