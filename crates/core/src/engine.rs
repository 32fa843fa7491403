//! The unified engine facade: build once from a scheme, query cheaply.
//!
//! [`Engine`] front-loads everything that depends only on the *scheme* —
//! key dependencies, Algorithm 6 recognition, the full classification,
//! and (lazily, cached) the Theorem 4.1 chase-free projection
//! expressions. A [`Hub`] then binds the engine to one database *state*
//! (keeping a clone of the engine, which shares its caches): it chases
//! the state once at construction and afterwards answers
//! [`is_consistent`](Hub::is_consistent) in O(blocks) and serves writes
//! through the [`IncrementalChase`] worklist path, so a stream of updates
//! never re-chases from scratch.
//!
//! For independence-reducible schemes the hub exploits Theorems 4.1 and
//! 4.2: each block of the IR partition is chased *separately* (the
//! blocks are independent, so per-block consistency is global
//! consistency), and when the engine is built with
//! [`parallel`](Engine::with_parallel) enabled the per-block chases run
//! on scoped threads, as do the per-block shares of a write unit that
//! spans several blocks. Budgets stay global: every worker charges the same
//! shared [`Guard`], whose counters are atomic. Results are written into
//! per-block slots, so parallel evaluation is *deterministic* — the same
//! inputs produce the same verdicts, stats and (block-ordered) first
//! error as a serial run.
//!
//! A non-IR scheme is served the same way, as a single block that holds
//! every relation under the full key dependencies. Total projections on
//! IR schemes are answered chase-free through the cached Theorem 4.1
//! expressions evaluated over the base state; non-IR schemes chase the
//! snapshot with the same incremental engine.
//!
//! Mutations can be made durable by handing the hub a write-ahead sink
//! ([`Engine::hub_with`]): every write unit earns its verdicts, then
//! commits to the log in one call before it is acknowledged.
//!
//! # Examples
//!
//! Build an engine once, bind it to a state, and serve consistency
//! checks, incremental updates and chase-free projections:
//!
//! ```
//! use idr_core::Engine;
//! use idr_relation::exec::Guard;
//! use idr_relation::{parse, SymbolTable};
//!
//! // Two independent blocks — independence-reducible by Algorithm 6.
//! let db = parse::parse_scheme(
//!     "universe: A B C D\n\
//!      scheme R1: A B keys A\n\
//!      scheme R2: C D keys C\n",
//! )
//! .unwrap();
//! let mut sym = SymbolTable::new();
//! let state = parse::parse_state("R1: A=a B=b\n", &db, &mut sym).unwrap();
//!
//! let engine = Engine::new(db);
//! assert!(engine.is_independence_reducible());
//!
//! let guard = Guard::unlimited();
//! let hub = engine.hub(&state, &guard).unwrap();
//! let writer = hub.write_handle();
//! assert!(hub.read_view().is_consistent());
//!
//! // Incremental insert: only the touched block re-chases.
//! let (rel, t) = parse::parse_tuple_line("R2: C=c D=d", engine.scheme(), &mut sym).unwrap();
//! assert!(writer.insert(rel, t, &guard).unwrap());
//!
//! // A key violation is rejected as a verdict, not an error.
//! let (rel, bad) = parse::parse_tuple_line("R1: A=a B=b2", engine.scheme(), &mut sym).unwrap();
//! assert!(!writer.insert(rel, bad, &guard).unwrap());
//!
//! // Chase-free X-total projection via the Theorem 4.1 expression,
//! // answered against an epoch-stamped snapshot.
//! let view = hub.read_view();
//! assert!(view.is_consistent());
//! let x = engine.scheme().universe().set_of("AB");
//! let answer = view.total_projection(x, &guard).unwrap().unwrap();
//! assert_eq!(answer.len(), 1);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use idr_chase::IncrementalChase;
use idr_fd::{FdSet, KeyDeps};
use idr_obs::{MetricsRegistry, TraceEvent, TraceHandle};
use idr_relation::algebra::Expr;
use idr_relation::exec::{ExecError, Guard};
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, Relation, Tuple};

use crate::classify::{classify, Classification};
use crate::durability::DurabilitySink;
use crate::kep;
use crate::query::ir_total_projection_expr;
use crate::recognition::{recognize, IrScheme, Recognition};
use crate::serving::Hub;

/// Events each per-block shard can hold during one hub build. The
/// ring discards oldest-first beyond this, counting drops — tracing
/// never aborts an evaluation.
pub(crate) const SHARD_CAPACITY: usize = 65_536;

/// Observability configuration for an [`Engine`]: a trace sink, a
/// metrics registry, and the provenance switch. All three default to
/// off, in which case every instrumentation site costs one branch.
#[derive(Clone, Debug, Default)]
pub struct Observability {
    /// Sink for structured [`TraceEvent`]s. Under block-parallel
    /// evaluation each block writes to a private shard; shards merge in
    /// block order at the join barrier, so serial and parallel runs
    /// deliver *identical* event sequences here.
    pub tracer: TraceHandle,
    /// Registry fed with engine counters (chase work, session
    /// operations, guard spend) and latency histograms.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// When set, block engines record the fd-firing merge forest, and
    /// [`Hub::explain`] / [`Hub::explain_rejection`] return full
    /// derivation chains.
    pub provenance: bool,
}

impl Observability {
    /// The all-off configuration (same as `Default`).
    pub fn none() -> Self {
        Observability::default()
    }
}

/// Scheme-level front end: everything derivable from the scheme alone.
/// Construction runs Algorithm 6 once; classification and the Theorem
/// 4.1 projection expressions are computed lazily and cached.
///
/// The engine is a cheap shared handle: the scheme-level facts and both
/// caches sit behind one `Arc`, so a clone costs one refcount (plus the
/// observability handles) and every clone shares the caches. Each
/// [`Hub`] owns a clone, so a hub outlives the scope that built its
/// engine. The engine is `Sync`: one engine can serve many hubs (and
/// many threads) concurrently.
#[derive(Clone, Debug)]
pub struct Engine {
    facts: Arc<SchemeFacts>,
    parallel: bool,
    obs: Observability,
}

/// What an [`Engine`] derives from its scheme, shared by every clone.
/// None of it changes once built; the two caches only fill.
#[derive(Debug)]
struct SchemeFacts {
    scheme: DatabaseScheme,
    kd: KeyDeps,
    recognition: Recognition,
    blocks: Blocks,
    classification: OnceLock<Classification>,
    expr_cache: Mutex<HashMap<AttrSet, Option<Expr>>>,
}

/// How a [`Hub`] splits a state into write lanes. On an IR scheme these
/// are the partition's blocks under their embedded key dependencies
/// (Theorem 4.2), traced as `T1`, `T2`, …; otherwise one block holds
/// every relation under the full key dependencies, traced as `whole`.
#[derive(Debug)]
pub(crate) struct Blocks {
    /// Each block's relation indices, ascending.
    pub(crate) members: Vec<Vec<usize>>,
    /// Each block's tableau columns: the union of its member schemes on
    /// an IR scheme (its key dependencies lie inside it), the universe
    /// for `whole`.
    attrs: Vec<AttrSet>,
    fds: Vec<FdSet>,
    /// Relation index → block index.
    pub(crate) block_of: Vec<usize>,
    labels: Vec<String>,
}

impl Blocks {
    fn of(scheme: &DatabaseScheme, kd: &KeyDeps, recognition: &Recognition) -> Blocks {
        match recognition {
            Recognition::Accepted(ir) if !ir.is_empty() => Blocks {
                members: ir.partition.clone(),
                attrs: ir.block_attrs.clone(),
                fds: ir.block_fds.clone(),
                block_of: ir.block_of.clone(),
                labels: (1..=ir.len()).map(|b| format!("T{b}")).collect(),
            },
            _ => Blocks {
                members: vec![(0..scheme.len()).collect()],
                attrs: vec![scheme.universe().all()],
                fds: vec![kd.full().clone()],
                block_of: vec![0; scheme.len()],
                labels: vec!["whole".to_string()],
            },
        }
    }

    /// How many blocks there are.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }
}

impl Engine {
    /// Builds the engine: derives the key dependencies and runs
    /// Algorithm 6. Block-parallel evaluation is enabled by default;
    /// see [`with_parallel`](Engine::with_parallel).
    pub fn new(scheme: DatabaseScheme) -> Self {
        let kd = KeyDeps::of(&scheme);
        let recognition = recognize(&scheme, &kd);
        let blocks = Blocks::of(&scheme, &kd, &recognition);
        Engine {
            facts: Arc::new(SchemeFacts {
                scheme,
                kd,
                recognition,
                blocks,
                classification: OnceLock::new(),
                expr_cache: Mutex::new(HashMap::new()),
            }),
            parallel: true,
            obs: Observability::default(),
        }
    }

    /// Enables or disables block-parallel evaluation: a hub build's
    /// block chases and a multi-block write unit's shares. Serial and
    /// parallel runs produce identical results and traces; parallel only
    /// changes wall-clock.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches an [`Observability`] configuration. When the tracer is
    /// enabled, the scheme-level verdicts already computed by
    /// [`Engine::new`] are emitted immediately (`recognition_done`, and
    /// `kep_computed` when Algorithm 6 accepted), so a trace always
    /// opens with the scheme's shape.
    pub fn with_observability(self, obs: Observability) -> Self {
        obs.tracer.emit_with(|| self.facts.recognition.trace_event());
        if let Some(ir) = self.ir() {
            obs.tracer.emit_with(|| kep::trace_event(&ir.partition));
        }
        Engine { obs, ..self }
    }

    /// The engine's observability configuration.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Sets every `guard.*` gauge from one [`Guard::snapshot`], when a
    /// metrics registry is attached.
    pub fn record_guard_metrics(&self, guard: &Guard) {
        if let Some(m) = &self.obs.metrics {
            let s = guard.snapshot();
            m.gauge("guard.chase_steps").set(s.chase_steps);
            m.gauge("guard.lookups").set(s.lookups);
            m.gauge("guard.enumeration").set(s.enumeration);
        }
    }

    /// The scheme the engine was built from.
    pub fn scheme(&self) -> &DatabaseScheme {
        &self.facts.scheme
    }

    /// The embedded key dependencies.
    pub fn key_deps(&self) -> &KeyDeps {
        &self.facts.kd
    }

    /// Algorithm 6's verdict.
    pub fn recognition(&self) -> &Recognition {
        &self.facts.recognition
    }

    /// The IR partition, when Algorithm 6 accepted.
    pub fn ir(&self) -> Option<&IrScheme> {
        match &self.facts.recognition {
            Recognition::Accepted(ir) => Some(ir),
            Recognition::Rejected(_) => None,
        }
    }

    /// Whether the scheme is independence-reducible.
    pub fn is_independence_reducible(&self) -> bool {
        self.facts.recognition.is_accepted()
    }

    /// The full classification (BCNF, γ-acyclicity, ctm, …), computed on
    /// first use and cached.
    pub fn classification(&self) -> &Classification {
        let f = &self.facts;
        f.classification.get_or_init(|| classify(&f.scheme))
    }

    /// The Theorem 4.1 chase-free expression for the X-total projection
    /// `[x]`, cached per `x`. `Ok(None)` when the scheme is not
    /// independence-reducible (no such expression exists in general) or
    /// when no bounded expression covers `x`.
    pub fn total_projection_expr(&self, x: AttrSet, guard: &Guard) -> Result<Option<Expr>, ExecError> {
        let Some(ir) = self.ir() else {
            return Ok(None);
        };
        if let Some(e) = self.expr_cache_guard()?.get(&x) {
            return Ok(e.clone());
        }
        let expr = ir_total_projection_expr(&self.facts.scheme, &self.facts.kd, ir, x, guard)?;
        self.expr_cache_guard()?.insert(x, expr.clone());
        Ok(expr)
    }

    /// Locks the expression cache, recovering from poison. A thread that
    /// panicked while holding the lock may have left a half-written map
    /// behind; the cache is only an optimisation, so recovery discards it,
    /// clears the poison (later queries recompute and succeed), and
    /// surfaces the panic *once* as a typed [`ExecError::Faulted`] instead
    /// of cascading panics on every subsequent query.
    fn expr_cache_guard(
        &self,
    ) -> Result<std::sync::MutexGuard<'_, HashMap<AttrSet, Option<Expr>>>, ExecError> {
        match self.facts.expr_cache.lock() {
            Ok(g) => Ok(g),
            Err(poisoned) => {
                poisoned.into_inner().clear();
                self.facts.expr_cache.clear_poison();
                Err(ExecError::Faulted {
                    kind: idr_relation::exec::FaultKind::Permanent,
                    operation: "expression cache poisoned by a panicked evaluation thread \
                                (cache cleared; the next query recomputes)"
                        .to_string(),
                    attempts: 1,
                })
            }
        }
    }

    /// Test hook: poisons the expression cache the way a panicking
    /// evaluation thread would (a thread panics while holding the lock).
    /// Used by the poison-recovery regression tests and the fuzzing
    /// oracle's fault schedule.
    #[doc(hidden)]
    pub fn inject_expr_cache_panic(&self) {
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = self.facts.expr_cache.lock().unwrap_or_else(|p| p.into_inner());
                // resume_unwind poisons exactly like panic! but skips the
                // panic hook, so injection runs don't spam backtraces.
                std::panic::resume_unwind(Box::new("injected expr-cache panic"));
            })
            .join()
        });
        assert!(result.is_err(), "injected panic must propagate to join");
    }

    /// One-shot consistency check: builds a throwaway [`Hub`] (block
    /// chases, parallel when enabled) and reports its verdict. For a
    /// stream of checks against an evolving state, keep the hub.
    pub fn is_consistent(&self, state: &DatabaseState, guard: &Guard) -> Result<bool, ExecError> {
        Ok(self.hub(state, guard)?.is_consistent())
    }

    /// One-shot X-total projection `[x]`: builds a throwaway [`Hub`] and
    /// queries its epoch-0 read view. `Ok(None)` when the state is
    /// inconsistent.
    pub fn total_projection(
        &self,
        state: &DatabaseState,
        x: AttrSet,
        guard: &Guard,
    ) -> Result<Option<Vec<Tuple>>, ExecError> {
        self.hub(state, guard)?.read_view().total_projection(x, guard)
    }

    /// Binds the engine to a state for concurrent service: chases every
    /// block (in parallel when enabled) and returns the [`Hub`] that
    /// hands out [`WriteHandle`](crate::WriteHandle)s and epoch-stamped
    /// [`ReadView`](crate::ReadView)s. An inconsistent state is *not* an
    /// error — the hub reports it through [`Hub::is_consistent`]. `Err`
    /// means the guard stopped a chase before a verdict.
    pub fn hub(&self, state: &DatabaseState, guard: &Guard) -> Result<Hub, ExecError> {
        Hub::build(self.clone(), state, guard)
    }

    /// Like [`hub`](Engine::hub), with an owned write-ahead durability
    /// sink (e.g. `idr_store::SharedStore`) shared by every
    /// [`WriteHandle`](crate::WriteHandle): every write unit commits to
    /// the log once its verdicts are earned and before it is
    /// acknowledged; concurrent writers' appends may group-commit into
    /// one fsync. Equivalent to [`hub`](Engine::hub) followed by
    /// [`Hub::attach_sink`].
    pub fn hub_with(
        &self,
        state: &DatabaseState,
        guard: &Guard,
        sink: Arc<dyn DurabilitySink>,
    ) -> Result<Hub, ExecError> {
        let hub = Hub::build(self.clone(), state, guard)?;
        hub.attach_sink(sink)
            .expect("a freshly built hub has no sink");
        Ok(hub)
    }

    /// Whether block-parallel evaluation is enabled.
    pub(crate) fn parallel_enabled(&self) -> bool {
        self.parallel
    }

    /// The hub's write lanes.
    pub(crate) fn blocks(&self) -> &Blocks {
        &self.facts.blocks
    }

    /// Chases block `b`'s substate under the block's fds, emitting its
    /// events (and a closing `block_evaluated`) into `trace` — under
    /// parallel evaluation that is the block's private shard. The
    /// tableau carries only the block's columns: a block is chased on
    /// its own (Lemma 4.2), and no rule of its fds reaches outside them.
    /// Inconsistency poisons the returned engine rather than erroring —
    /// the hub reports it as a verdict.
    pub(crate) fn chase_block(
        &self,
        b: usize,
        state: &DatabaseState,
        guard: &Guard,
        trace: TraceHandle,
    ) -> Result<IncrementalChase, ExecError> {
        let blocks = self.blocks();
        let universe = self.scheme().universe();
        let mut e = IncrementalChase::over(universe.len(), blocks.attrs[b], &blocks.fds[b])
            .with_observability(trace.clone(), Some(universe), &blocks.labels[b])
            .with_provenance(self.obs.provenance);
        for &i in &blocks.members[b] {
            for t in state.relation(i).iter() {
                e.push_tuple(t, Some(i))?;
            }
        }
        let e = finish_run(e, guard)?;
        trace.emit_with(|| TraceEvent::BlockEvaluated {
            block: b,
            consistent: e.failure().is_none(),
            passes: e.stats().passes,
            rule_applications: e.stats().rule_applications,
        });
        Ok(e)
    }
}

/// Runs the engine to fixpoint; an inconsistency is a verdict (the engine
/// stays poisoned), any other error propagates.
fn finish_run(mut e: IncrementalChase, guard: &Guard) -> Result<IncrementalChase, ExecError> {
    match e.run(guard) {
        Ok(_) | Err(ExecError::Inconsistent { .. }) => Ok(e),
        Err(err) => Err(err),
    }
}

/// The host's core count, read once per process:
/// `available_parallelism` reads cgroup files on every call, too slow
/// for a decision taken per write unit.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The workers [`evaluate_blocks`] runs `count` items on: one unless
/// `parallel` and there are two items or more — so a single item never
/// reads the core count — then one per core, at most one per item.
pub(crate) fn fan_out_workers(count: usize, parallel: bool) -> usize {
    if parallel && count > 1 {
        cores().min(count)
    } else {
        1
    }
}

/// Maps `f` over `items` into an index-ordered result — the one fan-out
/// of the hub's per-block work (a build's block chases, a write unit's
/// shares). With `parallel` and two items or more, the items are
/// split into one even chunk per core (at most one per item); the first
/// runs on the calling thread and each other on a scoped thread, so at
/// most cores − 1 threads are spawned. The output order — and therefore
/// which error a caller scanning in block order sees first — is
/// identical either way. The rows a worker copies out of shared relation
/// chunks are added to the caller's [`Relation::copied_on_write`] at the
/// join, so the per-thread count covers the whole fan-out.
pub fn evaluate_blocks<I, T, F>(items: Vec<I>, parallel: bool, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let workers = fan_out_workers(items.len(), parallel);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut items = items.into_iter();
    let first: Vec<I> = items.by_ref().take(chunk).collect();
    let mut rest: Vec<Vec<I>> = Vec::with_capacity(workers - 1);
    while items.len() > 0 {
        rest.push(items.by_ref().take(chunk).collect());
    }
    let f = &f;
    std::thread::scope(|s| {
        let spawned: Vec<_> = rest
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    let before = Relation::copied_on_write();
                    let out: Vec<T> = part.into_iter().map(f).collect();
                    (out, Relation::copied_on_write() - before)
                })
            })
            .collect();
        let mut out: Vec<T> = first.into_iter().map(f).collect();
        for h in spawned {
            let (part, copied) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            out.extend(part);
            Relation::add_copied_on_write(copied);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::ReadView;
    use idr_relation::exec::Budget;
    use idr_relation::{state_of, SchemeBuilder, SymbolTable};
    use idr_workload::generators::block_chain_scheme;
    use idr_workload::states::{generate, WorkloadConfig};

    fn two_block_scheme() -> DatabaseScheme {
        SchemeBuilder::new("ABCD")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "CD", ["C"])
            .build()
            .unwrap()
    }

    #[test]
    fn engine_precomputes_recognition_and_classification() {
        let e = Engine::new(two_block_scheme());
        let ir = e.ir().expect("two disjoint schemes are IR");
        assert_eq!(ir.len(), 2);
        assert!(e.classification().independence_reducible.is_some());
        assert_eq!(e.classification().bounded, Some(true));
    }

    #[test]
    fn hubs_and_their_handles_share_the_engines_scheme_facts() {
        // A hub build (as `Replica::refresh` does per op) clones the
        // engine's `Arc`, not the scheme, partition or caches.
        let engine = Engine::new(two_block_scheme());
        let g = Guard::unlimited();
        let hub = engine
            .hub(&DatabaseState::empty(engine.scheme()), &g)
            .unwrap();
        assert!(Arc::ptr_eq(&engine.facts, &hub.engine().facts));
        assert!(Arc::ptr_eq(&engine.facts, &hub.write_handle().engine().facts));
        assert!(Arc::ptr_eq(&engine.facts, &hub.read_view().engine().facts));
        // So the expression a hub's query caches is the engine's too.
        let x = engine.scheme().universe().set_of("AB");
        hub.read_view().total_projection(x, &g).unwrap();
        assert!(engine.facts.expr_cache.lock().unwrap().contains_key(&x));
    }

    #[test]
    fn expr_cache_serves_repeat_queries() {
        let e = Engine::new(two_block_scheme());
        let u = e.scheme().universe().clone();
        let g = Guard::unlimited();
        let first = e.total_projection_expr(u.set_of("AB"), &g).unwrap();
        assert!(first.is_some());
        // Second call must not consult the guard's enumeration budget.
        let tight = Guard::new(Budget::unlimited().with_max_enumeration(0));
        let second = e.total_projection_expr(u.set_of("AB"), &tight).unwrap();
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }

    #[test]
    fn parallel_and_serial_hubs_agree() {
        let db = block_chain_scheme(4, 3);
        for seed in 0..4u64 {
            let mut sym = SymbolTable::new();
            let w = generate(
                &db,
                &mut sym,
                WorkloadConfig {
                    entities: 10,
                    fragment_pct: 40,
                    inserts: 8,
                    corrupt_pct: 50,
                    seed,
                },
            );
            let par = Engine::new(db.clone()).with_parallel(true);
            let ser = Engine::new(db.clone()).with_parallel(false);
            let g = Guard::unlimited();
            let hp = par.hub(&w.state, &g).unwrap();
            let hs = ser.hub(&w.state, &g).unwrap();
            assert_eq!(hp.is_consistent(), hs.is_consistent(), "seed {seed}");
            assert_eq!(
                hp.inconsistent_blocks(),
                hs.inconsistent_blocks(),
                "seed {seed}"
            );
            let x = AttrSet::from_iter(
                (0..2).map(idr_relation::Attribute::from_index),
            );
            assert_eq!(
                hp.read_view().total_projection(x, &g).unwrap(),
                hs.read_view().total_projection(x, &g).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn one_shot_engine_calls_match_whole_state_chase() {
        let db = two_block_scheme();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("C", "c"), ("D", "d")]),
            ],
        )
        .unwrap();
        let e = Engine::new(db.clone());
        let g = Guard::unlimited();
        let kd = KeyDeps::of(&db);
        assert_eq!(
            e.is_consistent(&state, &g).unwrap(),
            idr_chase::is_consistent(&db, &state, kd.full(), &g).unwrap()
        );
        for x in [db.universe().set_of("AB"), db.universe().set_of("CD")] {
            assert_eq!(
                e.total_projection(&state, x, &g).unwrap(),
                idr_chase::total_projection(&db, &state, kd.full(), x, &g).unwrap()
            );
        }
    }

    #[test]
    fn insert_accepts_and_rejects_incrementally() {
        let db = two_block_scheme();
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
        let e = Engine::new(db.clone());
        let g = Guard::unlimited();
        let hub = e.hub(&state, &g).unwrap();
        let w = hub.write_handle();
        let u = db.universe();

        // Consistent insert into the other block.
        let t_ok = Tuple::from_pairs([
            (u.attr_of("C"), sym.intern("c")),
            (u.attr_of("D"), sym.intern("d")),
        ]);
        assert!(w.insert(1, t_ok.clone(), &g).unwrap());
        assert!(hub.read_view().state().relation(1).contains(&t_ok));

        // Key violation in block 0: rejected, state unchanged, hub still
        // consistent.
        let t_bad = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("B"), sym.intern("b2")),
        ]);
        assert!(!w.insert(0, t_bad.clone(), &g).unwrap());
        assert!(!hub.read_view().state().relation(0).contains(&t_bad));
        assert!(hub.is_consistent());

        // The rejected tuple is accepted after deleting its rival.
        let t_old = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("B"), sym.intern("b")),
        ]);
        assert!(w.delete(0, &t_old, &g).unwrap());
        assert!(w.insert(0, t_bad, &g).unwrap());
        assert!(hub.is_consistent());
    }

    #[test]
    fn inconsistent_base_is_a_verdict_not_an_error() {
        let db = two_block_scheme();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b1")]),
                ("R1", &[("A", "a"), ("B", "b2")]),
                ("R2", &[("C", "c"), ("D", "d")]),
            ],
        )
        .unwrap();
        let e = Engine::new(db.clone());
        let g = Guard::unlimited();
        let hub = e.hub(&state, &g).unwrap();
        let w = hub.write_handle();
        assert!(!hub.is_consistent());
        assert_eq!(hub.inconsistent_blocks(), vec![0]);
        let x = db.universe().set_of("AB");
        assert!(hub.read_view().total_projection(x, &g).unwrap().is_none());
        // Inserting into the poisoned block is an error; deleting the
        // offender restores consistency.
        let u = db.universe();
        let t = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a2")),
            (u.attr_of("B"), sym.intern("b")),
        ]);
        assert!(matches!(
            w.insert(0, t, &g),
            Err(ExecError::Inconsistent { .. })
        ));
        let rival = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("B"), sym.intern("b2")),
        ]);
        assert!(w.delete(0, &rival, &g).unwrap());
        assert!(hub.is_consistent());
    }

    #[test]
    fn non_ir_scheme_uses_the_whole_state_backend() {
        // Example 2: rejected by Algorithm 6.
        let db = SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "BC", ["B"])
            .scheme("R3", "AC", ["A"])
            .build()
            .unwrap();
        let e = Engine::new(db.clone());
        assert!(e.ir().is_none());
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("B", "b"), ("C", "c")]),
            ],
        )
        .unwrap();
        let g = Guard::unlimited();
        let hub = e.hub(&state, &g).unwrap();
        assert!(hub.is_consistent());
        // [AC] is derivable through the chase even with no AC relation.
        let ac = db.universe().set_of("AC");
        let proj = hub.read_view().total_projection(ac, &g).unwrap().unwrap();
        assert_eq!(proj.len(), 1);
        let kd = KeyDeps::of(&db);
        assert_eq!(
            Some(proj),
            idr_chase::total_projection(&db, &state, kd.full(), ac, &g).unwrap()
        );
    }

    #[test]
    fn shared_guard_budget_trips_in_both_modes() {
        let db = block_chain_scheme(3, 3);
        let mut sym = SymbolTable::new();
        let w = generate(
            &db,
            &mut sym,
            WorkloadConfig {
                entities: 20,
                fragment_pct: 60,
                inserts: 0,
                corrupt_pct: 0,
                seed: 1,
            },
        );
        for parallel in [false, true] {
            let e = Engine::new(db.clone()).with_parallel(parallel);
            let tight = Guard::new(Budget::unlimited().with_max_chase_steps(1));
            let err = e.hub(&w.state, &tight).unwrap_err();
            assert!(
                matches!(err, ExecError::BudgetExceeded { .. }),
                "parallel={parallel}: {err:?}"
            );
        }
    }

    #[test]
    fn evaluate_blocks_is_index_ordered() {
        for parallel in [false, true] {
            let got = evaluate_blocks((0..17).collect(), parallel, |i: usize| i * i);
            let want: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, want, "parallel={parallel}");
        }
    }

    #[test]
    fn delete_is_atomic_under_a_guard_trip() {
        // star(3) — R0(K A0), R1(K A1), R2(K A2), all keyed on K — with
        // three rows sharing the hub value, so any tableau rebuild must
        // fire at least one fd rule and a `max_chase_steps = 0` guard
        // trips mid-rebuild.
        let db = idr_workload::generators::star_scheme(3);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R0", &[("K", "k"), ("A0", "x0")]),
                ("R1", &[("K", "k"), ("A1", "x1")]),
                ("R2", &[("K", "k"), ("A2", "x2")]),
            ],
        )
        .unwrap();
        let engine = Engine::new(db.clone());
        let g = Guard::unlimited();
        let hub = engine.hub(&state, &g).unwrap();
        let w = hub.write_handle();
        let u = db.universe();
        let t = Tuple::from_pairs([
            (u.attr_of("K"), sym.intern("k")),
            (u.attr_of("A2"), sym.intern("x2")),
        ]);
        let x = AttrSet::from_iter([u.attr_of("K"), u.attr_of("A2")]);
        let present = |v: &ReadView| v.state().relation(2).contains(&t);

        let tight = Guard::new(Budget::unlimited().with_max_chase_steps(0));
        let err = w.delete(2, &t, &tight).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { .. }), "{err:?}");

        // The failed delete must not have happened: the tuple is still in
        // the base state, and both query paths still see it.
        let v = hub.read_view();
        assert!(present(&v));
        let proj = v.total_projection(x, &g).unwrap().unwrap();
        assert!(proj.contains(&t), "expression path lost the tuple");
        assert!(hub.explain(x, &t).is_some(), "chase path lost the tuple");

        // A retry with budget completes the delete on both paths.
        assert!(w.delete(2, &t, &g).unwrap());
        let v = hub.read_view();
        assert!(!present(&v));
        let proj = v.total_projection(x, &g).unwrap().unwrap();
        assert!(!proj.contains(&t));
        assert!(hub.explain(x, &t).is_none());
    }

    #[test]
    fn poisoned_expr_cache_recovers_with_a_typed_error() {
        let db = two_block_scheme();
        let engine = Engine::new(db.clone());
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
        let g = Guard::unlimited();
        let hub = engine.hub(&state, &g).unwrap();
        let x = db.universe().set_of("AB");
        assert!(hub.read_view().total_projection(x, &g).unwrap().is_some());

        engine.inject_expr_cache_panic();

        // The first query after the panic surfaces a typed error instead
        // of cascading the panic...
        let err = hub.read_view().total_projection(x, &g).unwrap_err();
        assert!(
            matches!(
                &err,
                ExecError::Faulted { kind: idr_relation::exec::FaultKind::Permanent, operation, .. }
                if operation.contains("poisoned")
            ),
            "{err:?}"
        );
        // ...and the cache has recovered: the next query recomputes.
        let proj = hub.read_view().total_projection(x, &g).unwrap().unwrap();
        assert_eq!(proj.len(), 1);
    }
}
