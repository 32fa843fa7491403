//! The incremental chase engine: union-find over symbols, per-fd LHS
//! hash indexes, and a dirty-row worklist.
//!
//! [`crate::chase`] re-scans the whole tableau after every fd-rule
//! application and renames symbols by scanning columns. This module
//! replaces both the scan and symbol rewriting: every tableau cell holds a
//! *node* of a union-find structure, and an fd-rule application is a
//! single `union` of two equivalence classes. The canonical symbol of a
//! class is maintained under the chase's renaming precedence (a constant
//! beats any variable, the distinguished variable beats a
//! nondistinguished one, and the lower-indexed ndv wins), so the
//! materialised tableau is *identical* — not merely equivalent — to the
//! reference chase's output (the chase is Church–Rosser, and both engines
//! pick the same class representative).
//!
//! Three structures drive the evaluation:
//!
//! * **Union-find nodes** (`IncrementalChase::union`): merging two
//!   classes costs near-constant time plus one worklist push per row
//!   whose visible symbol actually changed — exactly the semantic cost of
//!   a rename, without scanning anything.
//! * **Per-fd LHS indexes**: a hash map from the *canonical node vector*
//!   of an fd's left-hand side to a representative row, so rule partners
//!   are found by lookup. Entries go stale as classes merge and are
//!   validated lazily; the rows whose keys changed
//!   were enqueued by the very union that changed them.
//! * **Dirty-row worklist** (semi-naive evaluation): only rows whose
//!   symbols changed since they were last examined are re-probed, so a
//!   [`push_tuple`](IncrementalChase::push_tuple) after a completed run
//!   re-examines just the new row and whatever it transitively touches —
//!   the incremental maintenance path of the `Engine` facade.
//!
//! A row carries one cell per attribute the engine chases, not one per
//! universe attribute: [`over`](IncrementalChase::over) takes the
//! attributes (a block's union, whose key dependencies lie inside it),
//! and a column map translates between columns and universe attributes
//! at the API boundary. Every input and output speaks universe
//! attributes; each fd's sides are resolved to columns once, so the
//! chase itself never consults the map.
//!
//! The engine is *resumable*: a budget or deadline trip leaves the
//! worklist intact, and a later [`run`](IncrementalChase::run) with a
//! fresh guard picks up where it stopped. An inconsistency poisons the
//! engine (the chase result is the empty tableau) until the rows that
//! caused it are [retracted](IncrementalChase::retract).
//!
//! ## Component-local repair
//!
//! The union-find cannot unmerge, but it does not have to rebuild the
//! whole tableau either. An fd rule fires only between rows whose
//! left-hand-side cells already share classes, so rows that share no
//! class never influence each other: a connected component of rows
//! (linked through shared classes, interned constants included) chases
//! to the same fixpoint whatever the rest of the tableau holds.
//! [`retract`](IncrementalChase::retract) exploits this: it tombstones
//! the given rows, resets the nodes of their component to singletons and
//! re-chases only the component's survivors — O(component), not
//! O(tableau). Tombstoned rows keep their indices, so row ids named by
//! provenance stay stable; every walk over the rows skips them.
//!
//! ## Observability and provenance
//!
//! The engine optionally carries an [`idr_obs::TraceHandle`]
//! ([`with_observability`](IncrementalChase::with_observability)): it
//! then emits one `FdRuleFired` event per class merge, a `ChaseStarted`
//! / `RowsDirtied` pair per [`run`](IncrementalChase::run), and
//! `StateRejected` / `BudgetTrip` on the failure paths. Event labels
//! (fd and column renderings) are pre-computed when the tracer is
//! attached, so an emission clones two `Arc<str>`s; with the default
//! no-op handle every site is a single branch.
//!
//! With [`with_provenance`](IncrementalChase::with_provenance) the
//! engine additionally records, per class merge, *which* fd fired on
//! *which* two rows — an uncompressed merge forest beside the
//! path-compressed union-find. [`explain_cell`](IncrementalChase::explain_cell)
//! walks a cell's chain of merges (the exact fd-firing sequence that
//! gave the cell its canonical symbol, i.e. a Lemma 3.8-style witness),
//! [`explain_tuple`](IncrementalChase::explain_tuple) assembles the
//! per-column chains justifying a derived total tuple, and
//! [`explain_rejection`](IncrementalChase::explain_rejection)
//! reconstructs, for an inconsistency, the violated fd, the two witness
//! rows, and the firing chains under which their left-hand sides came
//! to agree.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use idr_fd::{Fd, FdSet};
use idr_obs::{TraceEvent, TraceHandle};
use idr_relation::exec::{ExecError, Guard};
use idr_relation::{AttrSet, Attribute, DatabaseScheme, DatabaseState, Tuple, Universe, Value};

use crate::chase_engine::{ChaseStats, Inconsistent};
use crate::tableau::{ChaseSym, Row, Tableau};

/// Null link of the intrusive membership lists.
const NIL: u32 = u32::MAX;

/// One recorded fd-rule firing: fd index, merge column (a universe
/// attribute), and the two rows (representative, probed) the rule was
/// applied to.
#[derive(Clone, Copy, Debug)]
struct Firing {
    fd: u32,
    column: Attribute,
    rows: (u32, u32),
}

/// A link of the uncompressed merge forest: this (erstwhile root) class
/// was merged into `winner` by firing `firing`.
#[derive(Clone, Copy, Debug)]
struct MergeLink {
    winner: u32,
    firing: u32,
}

/// One fd-rule firing in a provenance chain, resolved for callers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FiringInfo {
    /// The dependency that fired.
    pub fd: Fd,
    /// The column whose classes merged.
    pub column: Attribute,
    /// The two rows the rule was applied to (representative, probed).
    pub rows: (usize, usize),
    /// Origin tags of those rows (relation index, when from a state).
    pub tags: (Option<usize>, Option<usize>),
}

/// The merge chain that gave one cell its canonical symbol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellTrace {
    /// The cell's column.
    pub column: Attribute,
    /// Firings from the cell's original class to its current class,
    /// oldest first. Empty when the cell was born with its symbol.
    pub chain: Vec<FiringInfo>,
}

/// Provenance for a derived total tuple: the witnessing row and the
/// per-column firing chains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleExplanation {
    /// The witnessing tableau row.
    pub row: usize,
    /// Its origin tag.
    pub tag: Option<usize>,
    /// One trace per requested column.
    pub cells: Vec<CellTrace>,
}

/// Provenance for an inconsistency: the violated dependency, the two
/// witness rows, and the chains under which their left-hand sides came
/// to agree (plus the chains of the two clashing cells themselves).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectionExplanation {
    /// The violated dependency.
    pub fd: Fd,
    /// The column on which two distinct constants clashed.
    pub column: Attribute,
    /// The two witness rows (representative, probed).
    pub rows: (usize, usize),
    /// Origin tags of the witness rows.
    pub tags: (Option<usize>, Option<usize>),
    /// Per LHS column: the two rows' merge chains (they end in the same
    /// class — that is *why* the fd applied).
    pub lhs: Vec<(Attribute, Vec<FiringInfo>, Vec<FiringInfo>)>,
    /// Merge chains of the two clashing cells (usually empty: base
    /// constants).
    pub clash: (Vec<FiringInfo>, Vec<FiringInfo>),
}

/// How many union-find nodes an [`IncrementalChase`] holds
/// ([`arena_lens`](IncrementalChase::arena_lens)). Its cell and
/// membership arenas need no count: they hold
/// [`width`](IncrementalChase::width) entries per row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaLens {
    /// Union-find nodes: interned constants and dvs, plus every ndv.
    pub nodes: usize,
    /// Ndvs allocated for undefined cells.
    pub ndvs: usize,
}

/// The incremental chase engine. See the module docs for the design.
#[derive(Clone, Debug)]
pub struct IncrementalChase {
    /// Number of columns: one per attribute the engine chases.
    width: usize,
    /// The column map, column → universe attribute, ascending. Every
    /// public input and output speaks universe attributes; only the
    /// arenas below are indexed by column.
    attrs: Box<[Attribute]>,
    /// The inverse map, universe attribute index → column, [`NIL`] for
    /// an attribute the engine does not chase. Its length is the
    /// universe width [`to_tableau`](IncrementalChase::to_tableau)
    /// renders.
    col_of: Box<[u32]>,
    fds: FdSet,
    /// Per fd, its left- and right-hand sides as columns (ascending
    /// attribute order), resolved once so the chase never consults the
    /// column map per cell.
    lhs_cols: Vec<Box<[u32]>>,
    rhs_cols: Vec<Box<[u32]>>,
    /// Union-find parent links; `parent[n] == n` marks a root.
    parent: Vec<u32>,
    /// Canonical symbol per class (valid at roots).
    sym: Vec<ChaseSym>,
    /// Intrusive membership lists, replacing the old per-class
    /// `Vec<Vec<u32>>`: per class root, head/tail of a singly-linked
    /// list of *cell entries* (entry id = `row * width + col`, [`NIL`]
    /// when empty). Classes never span columns and a row has one cell
    /// per column, so a row appears at most once per class — and a
    /// union splices the loser's list onto the winner's in O(1) with
    /// zero allocation, where the nested-vec shape reallocated the
    /// winner on almost every merge.
    member_head: Vec<u32>,
    /// Tail of each class's membership list (valid at roots).
    member_tail: Vec<u32>,
    /// Next links of the membership lists, parallel to `cells`.
    member_next: Vec<u32>,
    /// The node held by each cell, as one flat arena: row `r`'s cells
    /// occupy `r*width .. (r+1)*width`. One allocation for the whole
    /// tableau instead of one `Vec<u32>` per row.
    cells: Vec<u32>,
    /// Origin tags, one per row.
    tags: Vec<Option<usize>>,
    /// Tombstones, one per row: a [retracted](IncrementalChase::retract)
    /// row keeps its index but belongs to no class membership list, no
    /// index slot and no worklist.
    dead: Vec<bool>,
    /// Number of tombstoned rows.
    dead_count: usize,
    /// Per-column interner for constant nodes: a constant's node is
    /// allocated once, so a later insert of a matching constant lands in
    /// the same class automatically.
    const_nodes: Vec<HashMap<Value, u32>>,
    /// Per-column node for the distinguished variable, allocated lazily.
    dv_nodes: Vec<Option<u32>>,
    next_ndv: u32,
    /// Hard ceiling on the `u32` id spaces (nodes, rows, cell entries);
    /// `u32::MAX` by default, shrinkable via
    /// [`with_node_capacity`](IncrementalChase::with_node_capacity) so
    /// unit tests can exercise the guard. Hitting the ceiling is a
    /// typed [`ExecError::CapacityExceeded`], never a silent `as u32`
    /// wrap (which would alias node 2^32 with node 0 and corrupt the
    /// union-find).
    node_cap: u32,
    /// Per-fd index: canonical LHS node vector → representative row.
    keyidx: Vec<HashMap<Box<[u32]>, u32>>,
    /// Reusable probe buffers: [`step_row`](IncrementalChase::step_row)
    /// canonicalises LHS keys into these and probes the index with the
    /// borrowed slice (`Box<[u32]>: Borrow<[u32]>`), so a lookup
    /// allocates nothing — only a first-time slot claim boxes its key.
    key_scratch: Vec<u32>,
    rep_scratch: Vec<u32>,
    work: Vec<u32>,
    queued: Vec<bool>,
    stats: ChaseStats,
    failure: Option<Inconsistent>,
    /// Trace sink; disabled by default (one branch per site).
    trace: TraceHandle,
    /// Scope label for `ChaseStarted`/`RowsDirtied` events.
    scope: Arc<str>,
    /// Pre-rendered fd labels, parallel to `fds` (built when tracing).
    fd_labels: Vec<Arc<str>>,
    /// Pre-rendered column labels, one per column (built when tracing).
    col_labels: Vec<Arc<str>>,
    /// Whether the merge forest and firing log are maintained.
    provenance: bool,
    /// Firing log (provenance mode).
    firings: Vec<Firing>,
    /// Uncompressed merge forest, parallel to `parent` (provenance
    /// mode). Unlike `parent`, never rewritten by path compression.
    link: Vec<Option<MergeLink>>,
    /// The firing that found the inconsistency, if any.
    rejection: Option<Firing>,
    /// Rows enqueued by class merges since the current run started.
    dirtied_in_run: usize,
}

impl IncrementalChase {
    /// An empty engine over a universe of `width` attributes, chasing with
    /// `fds`: one column per attribute. The fd set is fixed for the
    /// engine's lifetime — the per-fd indexes are built against it.
    pub fn new(width: usize, fds: &FdSet) -> Self {
        let all = AttrSet::from_iter((0..width).map(Attribute::from_index));
        IncrementalChase::over(width, all, fds)
    }

    /// An empty engine over a universe of `universe_width` attributes
    /// whose rows carry a column only for `attrs` and the attributes of
    /// `fds`. A row's other cells would hold fresh ndvs that no rule of
    /// `fds` ever equates, so leaving them out changes no verdict, class
    /// or derivation; inputs and outputs stay in universe attributes,
    /// and [`to_tableau`](IncrementalChase::to_tableau) renders the
    /// left-out cells as distinct ndvs. [`new`](IncrementalChase::new)
    /// is this over every attribute.
    ///
    /// # Panics
    ///
    /// If a column's attribute lies outside the universe.
    pub fn over(universe_width: usize, attrs: AttrSet, fds: &FdSet) -> Self {
        let cols = fds.fds().iter().fold(attrs, |acc, fd| acc | fd.attrs());
        let attrs: Box<[Attribute]> = cols.iter().collect();
        let mut col_of = vec![NIL; universe_width].into_boxed_slice();
        for (c, a) in attrs.iter().enumerate() {
            assert!(
                a.index() < universe_width,
                "column {a:?} outside the universe"
            );
            col_of[a.index()] = c as u32;
        }
        let to_cols = |x: AttrSet| -> Box<[u32]> { x.iter().map(|a| col_of[a.index()]).collect() };
        let lhs_cols = fds.fds().iter().map(|fd| to_cols(fd.lhs)).collect();
        let rhs_cols = fds.fds().iter().map(|fd| to_cols(fd.rhs)).collect();
        let width = attrs.len();
        IncrementalChase {
            width,
            attrs,
            col_of,
            lhs_cols,
            rhs_cols,
            keyidx: vec![HashMap::new(); fds.fds().len()],
            fds: fds.clone(),
            parent: Vec::new(),
            sym: Vec::new(),
            member_head: Vec::new(),
            member_tail: Vec::new(),
            member_next: Vec::new(),
            cells: Vec::new(),
            tags: Vec::new(),
            dead: Vec::new(),
            dead_count: 0,
            const_nodes: vec![HashMap::new(); width],
            dv_nodes: vec![None; width],
            next_ndv: 0,
            node_cap: u32::MAX,
            key_scratch: Vec::new(),
            rep_scratch: Vec::new(),
            work: Vec::new(),
            queued: Vec::new(),
            stats: ChaseStats::default(),
            failure: None,
            trace: TraceHandle::none(),
            scope: Arc::from("chase"),
            fd_labels: Vec::new(),
            col_labels: Vec::new(),
            provenance: false,
            firings: Vec::new(),
            link: Vec::new(),
            rejection: None,
            dirtied_in_run: 0,
        }
    }

    /// Attaches a trace sink. `scope` labels this engine's
    /// `ChaseStarted`/`RowsDirtied` events (e.g. `whole` or `T2`);
    /// `universe`, when given, renders fd and column labels by attribute
    /// name (`HR→C`), otherwise by debug form. All labels are rendered
    /// here, once — emitting an event afterwards clones `Arc`s.
    pub fn with_observability(
        mut self,
        trace: TraceHandle,
        universe: Option<&Universe>,
        scope: &str,
    ) -> Self {
        if trace.enabled() {
            self.scope = Arc::from(scope);
            self.fd_labels = self
                .fds
                .fds()
                .iter()
                .map(|fd| match universe {
                    Some(u) => Arc::from(fd.render(u).as_str()),
                    None => Arc::from(format!("{fd:?}").as_str()),
                })
                .collect();
            self.col_labels = self
                .attrs
                .iter()
                .map(|&a| match universe {
                    Some(u) => Arc::from(u.name(a)),
                    None => Arc::from(format!("col{}", a.index()).as_str()),
                })
                .collect();
        }
        self.trace = trace;
        self
    }

    /// Enables provenance recording: every class merge logs the firing
    /// responsible (fd, column, witness rows) and the merge forest is
    /// retained beside the union-find, so
    /// [`explain_cell`](IncrementalChase::explain_cell),
    /// [`explain_tuple`](IncrementalChase::explain_tuple) and
    /// [`explain_rejection`](IncrementalChase::explain_rejection) can
    /// reconstruct full derivations. Off by default; the chase result is
    /// unaffected either way.
    pub fn with_provenance(mut self, on: bool) -> Self {
        self.provenance = on;
        self
    }

    /// Whether provenance recording is on.
    pub fn provenance_enabled(&self) -> bool {
        self.provenance
    }

    /// Caps the engine's `u32` id spaces (default `u32::MAX`). Exceeding
    /// the cap trips a typed [`ExecError::CapacityExceeded`] from
    /// [`push_tuple`](IncrementalChase::push_tuple); unit tests use a
    /// tiny cap to exercise the guard without allocating 2^32 nodes.
    pub fn with_node_capacity(mut self, cap: u32) -> Self {
        self.node_cap = cap;
        self
    }

    /// Rejects a row append that could exhaust a `u32` id space — node
    /// ids (a row allocates at most `width` fresh nodes), the row id
    /// itself, or the cell-entry ids of the membership lists. Checked
    /// *before* any mutation so a refused push leaves no half-linked
    /// row behind.
    fn ensure_row_headroom(&self) -> Result<(), ExecError> {
        let cap = self.node_cap as usize;
        if self.parent.len() + self.width > cap
            || self.tags.len() >= cap
            || self.cells.len() + self.width > cap
        {
            return Err(ExecError::CapacityExceeded {
                what: "chase node ids",
                limit: self.node_cap as u64,
            });
        }
        Ok(())
    }

    /// Swaps the trace sink, keeping the labels rendered when
    /// observability was attached. The block-parallel engine uses this at
    /// its join barrier: blocks chase into private per-block shards, then
    /// retarget to the session's sink so later incremental work (inserts,
    /// rebuilds) emits directly into it.
    pub fn retarget_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The engine over the state tableau `T_r` (§2.2), one column per
    /// universe attribute: one row per tuple, constants on the origin
    /// scheme, fresh ndvs elsewhere. Call
    /// [`run`](IncrementalChase::run) to chase. Fails with a typed
    /// [`ExecError::CapacityExceeded`] if the state overflows the `u32`
    /// id spaces.
    pub fn of_state(
        scheme: &DatabaseScheme,
        state: &DatabaseState,
        fds: &FdSet,
    ) -> Result<Self, ExecError> {
        let mut e = IncrementalChase::new(scheme.universe().len(), fds);
        for (i, t) in state.iter_all() {
            e.push_tuple(t, Some(i))?;
        }
        Ok(e)
    }

    /// The engine over an existing tableau (any mix of constants, dvs and
    /// ndvs); symbols equal within a column start in the same class.
    pub fn of_tableau(t: &Tableau, fds: &FdSet) -> Result<Self, ExecError> {
        let mut e = IncrementalChase::new(t.width(), fds);
        // Per-column interner for the initial build: rows of a tableau may
        // legitimately share ndvs within a column.
        let mut interned: Vec<HashMap<ChaseSym, u32>> = vec![HashMap::new(); t.width()];
        for row in t.rows() {
            e.ensure_row_headroom()?;
            let r = e.tags.len() as u32;
            for (col, intern) in interned.iter_mut().enumerate() {
                let s = row.sym(Attribute::from_index(col));
                if let ChaseSym::Ndv(i) = s {
                    e.next_ndv = e.next_ndv.max(i + 1);
                }
                let node = match intern.get(&s) {
                    Some(&n) => n,
                    None => {
                        let id = e.fresh_node(s);
                        intern.insert(s, id);
                        id
                    }
                };
                let entry = e.cells.len() as u32;
                e.cells.push(node);
                e.member_next.push(NIL);
                e.push_member(node, entry);
            }
            e.tags.push(row.tag);
            e.dead.push(false);
            e.queued.push(true);
            e.work.push(r);
        }
        // Keep the persistent interners consistent for later inserts.
        for (col, m) in interned.into_iter().enumerate() {
            for (s, node) in m {
                match s {
                    ChaseSym::Const(v) => {
                        e.const_nodes[col].insert(v, node);
                    }
                    ChaseSym::Dv => e.dv_nodes[col] = Some(node),
                    ChaseSym::Ndv(_) => {}
                }
            }
        }
        Ok(e)
    }

    /// Appends a row for a (possibly partial) tuple — constants where the
    /// tuple is defined, fresh ndvs elsewhere — and marks it dirty. Only
    /// the tuple's values on the engine's columns are read. Returns the
    /// row index, or a typed
    /// [`ExecError::CapacityExceeded`] (before any mutation) when the
    /// row would exhaust a `u32` id space.
    ///
    /// After a completed [`run`](IncrementalChase::run), pushing a tuple
    /// and running again is the *incremental insert* path: only the new
    /// row and the rows it transitively merges with are re-examined.
    pub fn push_tuple(&mut self, tuple: &Tuple, tag: Option<usize>) -> Result<usize, ExecError> {
        self.ensure_row_headroom()?;
        let r = self.tags.len() as u32;
        for col in 0..self.width {
            let node = match tuple.get(self.attrs[col]) {
                Some(v) => self.const_node(col, v),
                None => {
                    let s = ChaseSym::Ndv(self.next_ndv);
                    self.next_ndv += 1;
                    self.fresh_node(s)
                }
            };
            let root = self.find(node);
            let entry = self.cells.len() as u32;
            self.cells.push(node);
            self.member_next.push(NIL);
            self.push_member(root, entry);
        }
        self.tags.push(tag);
        self.dead.push(false);
        self.queued.push(true);
        self.work.push(r);
        Ok(r as usize)
    }

    /// Applies a batch of inserts as one unit: rows are appended and
    /// swept to fixpoint in cache-sized chunks under one guard charge
    /// stream and one `ChaseStarted`/`RowsDirtied` event pair for the
    /// whole batch instead of one per tuple. Returns the accumulated
    /// stats on success.
    ///
    /// The chase is Church–Rosser, so a batch that chases to a fixpoint
    /// yields a tableau *identical* to pushing and running each tuple
    /// serially. The rows are appended at indices `len()` before the
    /// call onwards. On an inconsistency (which does not attribute a
    /// culprit tuple) the caller [retracts](IncrementalChase::retract)
    /// every row the batch pushed, which restores the pre-batch fixpoint
    /// at the cost of the rows' component. A resource trip leaves the
    /// batch rows speculative and the chase mid-run; the caller either
    /// resumes with [`run`](IncrementalChase::run) or rebuilds from the
    /// pre-batch state (DESIGN.md §16).
    pub fn insert_batch<'a, I>(&mut self, tuples: I, guard: &Guard) -> Result<ChaseStats, ExecError>
    where
        I: IntoIterator<Item = (&'a Tuple, Option<usize>)>,
    {
        if let Some(f) = &self.failure {
            return Err(f.clone().into());
        }
        self.trace.emit_with(|| TraceEvent::ChaseStarted {
            scope: self.scope.clone(),
            rows: self.live_len(),
            fds: self.fds.fds().len(),
        });
        self.dirtied_in_run = 0;
        // Seed-and-sweep in bounded chunks rather than all at once: a
        // freshly pushed row is still in cache when its chunk is swept,
        // whereas seeding 10^6 rows first forces the sweep to re-fault
        // every one of them (measured ~2x slower at that scale). Within
        // a chunk, the worklist stack would pop rows in reverse
        // insertion order — entity fragments probing the indexes before
        // their earlier siblings have registered, every late merge
        // re-dirtying rows already swept — so each seeded suffix is
        // reversed to sweep in insertion order; cascade re-enqueues
        // still go on top of the stack and are processed eagerly.
        // Confluence makes the fixpoint independent of this schedule.
        const SEED_CHUNK: usize = 4096;
        let mut it = tuples.into_iter();
        loop {
            let first = self.work.len();
            let mut pushed = 0usize;
            for (t, tag) in it.by_ref().take(SEED_CHUNK) {
                self.push_tuple(t, tag)?;
                pushed += 1;
            }
            if pushed == 0 {
                break;
            }
            self.work[first..].reverse();
            self.drain(guard)?;
        }
        let count = self.dirtied_in_run;
        self.trace.emit_with(|| TraceEvent::RowsDirtied {
            scope: self.scope.clone(),
            count,
        });
        Ok(self.stats)
    }

    /// Chases to fixpoint (or resumes a budget-interrupted chase),
    /// charging one chase step per class merge against `guard` and
    /// honouring its deadline/cancellation on every worklist pop.
    ///
    /// On an inconsistency the engine is poisoned: every later call
    /// returns the same [`ExecError::Inconsistent`]. On a resource trip
    /// the worklist is preserved, so a later call with a fresh guard
    /// resumes the chase.
    pub fn run(&mut self, guard: &Guard) -> Result<ChaseStats, ExecError> {
        if let Some(f) = &self.failure {
            return Err(f.clone().into());
        }
        self.trace.emit_with(|| TraceEvent::ChaseStarted {
            scope: self.scope.clone(),
            rows: self.live_len(),
            fds: self.fds.fds().len(),
        });
        self.dirtied_in_run = 0;
        self.drain(guard)?;
        let count = self.dirtied_in_run;
        self.trace.emit_with(|| TraceEvent::RowsDirtied {
            scope: self.scope.clone(),
            count,
        });
        Ok(self.stats)
    }

    /// Pops dirty rows until the worklist is empty, without bracketing
    /// trace events — the shared sweep loop behind
    /// [`run`](IncrementalChase::run) and the chunked
    /// [`insert_batch`](IncrementalChase::insert_batch).
    fn drain(&mut self, guard: &Guard) -> Result<(), ExecError> {
        while let Some(r) = self.work.pop() {
            self.queued[r as usize] = false;
            self.stats.passes += 1;
            if let Err(e) = self.step_row(r, guard) {
                // Keep the row pending so a fresh guard can resume.
                self.enqueue(r);
                if e.is_resource_exhaustion() {
                    self.trace.emit_with(|| TraceEvent::BudgetTrip {
                        detail: Arc::from(e.to_string().as_str()),
                    });
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// The live rows pushed for `tuple` with origin `tag`, ascending —
    /// several when the same tuple was pushed more than once. Every such
    /// row holds the interned constant node of each of the tuple's
    /// values, so one value's class membership list holds them all; the
    /// scan costs that class's size, which never exceeds the size of the
    /// rows' component.
    pub fn rows_of(&self, tuple: &Tuple, tag: Option<usize>) -> Vec<usize> {
        let mut nodes = Vec::new();
        for (a, v) in tuple.iter() {
            let Some(c) = self.column(a) else {
                return Vec::new();
            };
            match self.const_nodes[c].get(&v) {
                Some(&n) => nodes.push((c, n)),
                None => return Vec::new(),
            }
        }
        let Some(&(_, first)) = nodes.first() else {
            return Vec::new();
        };
        let width = self.width as u32;
        let mut out = Vec::new();
        let mut e = self.member_head[self.find_ro(first) as usize];
        while e != NIL {
            let r = (e / width) as usize;
            if self.tags[r] == tag && nodes.iter().all(|&(c, n)| self.cell(r as u32, c) == n) {
                out.push(r);
            }
            e = self.member_next[e as usize];
        }
        out.sort_unstable();
        out
    }

    /// Retracts `rows` and repairs the chase around them: the rows are
    /// tombstoned, every class their component touches is reset to
    /// singletons (the nodes keep their birth symbols, so a reset is
    /// exact), the component's index slots are dropped, and the
    /// component's surviving rows are re-chased — together with any work
    /// a failed or interrupted run left pending — to a fixpoint. The
    /// failure and rejection a failed run recorded are cleared first; an
    /// inconsistency among the survivors is found again.
    ///
    /// The component is the closure of `rows` under sharing a class, so
    /// rows outside it hold no node of it: their classes, index slots and
    /// fixpoint are untouched, and the result equals a fresh chase of
    /// the live rows up to ndv renaming. This holds for any fd set: a
    /// rule fires only between rows whose left-hand sides already share
    /// classes, and an fd with an empty left-hand side has, once chased,
    /// put every row into one class of its right-hand side (rows a
    /// failed run left unchased are still queued and are chased after
    /// the repair).
    ///
    /// Returns the number of survivors re-chased. The guard is checked
    /// before anything changes and charged for the re-chase like any run;
    /// on a resource trip the survivors stay queued, resumable by
    /// [`run`](IncrementalChase::run).
    pub fn retract(&mut self, rows: &[usize], guard: &Guard) -> Result<usize, ExecError> {
        guard.checkpoint()?;
        let (component, retracted) = self.component_of(rows);
        // Drop the component's index slots while its keys still resolve
        // through the old classes; stale slots left elsewhere are caught
        // by the lazy validation in `step_row_with`.
        let mut key = std::mem::take(&mut self.key_scratch);
        for &r in &component {
            for fi in 0..self.fds.fds().len() {
                self.fill_key(fi, r, &mut key);
                if self.keyidx[fi].get(key.as_slice()) == Some(&r) {
                    self.keyidx[fi].remove(key.as_slice());
                }
            }
        }
        self.key_scratch = key;
        for &r in &component[..retracted] {
            self.dead[r as usize] = true;
        }
        self.dead_count += retracted;
        let width = self.width;
        for &r in &component {
            for entry in r as usize * width..(r as usize + 1) * width {
                let n = self.cells[entry] as usize;
                self.parent[n] = n as u32;
                self.member_head[n] = NIL;
                self.member_tail[n] = NIL;
                self.link[n] = None;
                self.member_next[entry] = NIL;
            }
        }
        for &r in &component {
            if self.dead[r as usize] {
                continue;
            }
            for entry in r as usize * width..(r as usize + 1) * width {
                self.push_member(self.cells[entry], entry as u32);
            }
        }
        let dead = &self.dead;
        let queued = &mut self.queued;
        self.work.retain(|&r| {
            let keep = !dead[r as usize];
            queued[r as usize] &= keep;
            keep
        });
        // Pushed in reverse so the stack pops survivors in row order.
        for &r in component.iter().rev() {
            if !self.dead[r as usize] {
                self.enqueue(r);
            }
        }
        self.failure = None;
        self.rejection = None;
        self.run(guard)?;
        Ok(component.len() - retracted)
    }

    /// The live rows sharing a class with `rows`, transitively, and how
    /// many of them are `rows` themselves (distinct and live) — those
    /// come first, the rest in discovery order.
    fn component_of(&self, rows: &[usize]) -> (Vec<u32>, usize) {
        let width = self.width as u32;
        let mut seen_rows: HashSet<u32> = HashSet::new();
        let mut seen_classes: HashSet<u32> = HashSet::new();
        let mut out: Vec<u32> = Vec::new();
        for &r in rows {
            if !self.dead[r] && seen_rows.insert(r as u32) {
                out.push(r as u32);
            }
        }
        let given = out.len();
        let mut i = 0;
        while i < out.len() {
            let r = out[i];
            i += 1;
            for c in 0..self.width {
                let root = self.find_ro(self.cell(r, c));
                if !seen_classes.insert(root) {
                    continue;
                }
                let mut e = self.member_head[root as usize];
                while e != NIL {
                    if seen_rows.insert(e / width) {
                        out.push(e / width);
                    }
                    e = self.member_next[e as usize];
                }
            }
        }
        (out, given)
    }

    /// Probes one dirty row against every fd. Key canonicalisation goes
    /// through the reusable scratch buffers (swapped out of `self` for
    /// the duration so the borrows stay disjoint): probing the index
    /// never allocates, only a first-time slot claim boxes its key.
    fn step_row(&mut self, r: u32, guard: &Guard) -> Result<(), ExecError> {
        guard.checkpoint()?;
        let mut key = std::mem::take(&mut self.key_scratch);
        let mut rep_key = std::mem::take(&mut self.rep_scratch);
        let result = self.step_row_with(r, guard, &mut key, &mut rep_key);
        self.key_scratch = key;
        self.rep_scratch = rep_key;
        result
    }

    fn step_row_with(
        &mut self,
        r: u32,
        guard: &Guard,
        key: &mut Vec<u32>,
        rep_key: &mut Vec<u32>,
    ) -> Result<(), ExecError> {
        for fi in 0..self.fds.fds().len() {
            self.fill_key(fi, r, key);
            match self.keyidx[fi].get(key.as_slice()).copied() {
                None => {
                    self.keyidx[fi].insert(key.as_slice().into(), r);
                }
                Some(rep) if rep == r => {}
                Some(rep) => {
                    // Validate lazily: the stored representative may have
                    // been retracted, or its key may have changed since it
                    // was indexed. A retracted one is checked first: the
                    // reset made old roots roots again, so its key can
                    // match. Either way this slot now belongs to `r`; a
                    // live old representative was enqueued by the union
                    // that changed its key.
                    let stale = self.dead[rep as usize] || {
                        self.fill_key(fi, rep, rep_key);
                        rep_key != key
                    };
                    if stale {
                        self.keyidx[fi].insert(key.as_slice().into(), r);
                        continue;
                    }
                    let mut any = false;
                    for k in 0..self.rhs_cols[fi].len() {
                        let c = self.rhs_cols[fi][k] as usize;
                        let (na, nb) = (self.cell(rep, c), self.cell(r, c));
                        if self.union(na, nb, fi, c, (rep, r), guard)? {
                            any = true;
                        }
                    }
                    if any {
                        // `r`'s keys may have changed; restart its sweep.
                        self.enqueue(r);
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Merges the classes of nodes `a` and `b` of column `col` under the
    /// renaming precedence of §2.3, applying fd `fi` to the row pair
    /// `rows` (representative, probed). Returns whether the classes were
    /// distinct. Every row of the losing class is enqueued — those are
    /// exactly the rows whose visible symbol changed.
    fn union(
        &mut self,
        a: u32,
        b: u32,
        fi: usize,
        col: usize,
        rows: (u32, u32),
        guard: &Guard,
    ) -> Result<bool, ExecError> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(false);
        }
        let column = self.attrs[col];
        let (win, lose) = match (self.sym[ra as usize], self.sym[rb as usize]) {
            (ChaseSym::Const(_), ChaseSym::Const(_)) => {
                let e = Inconsistent {
                    fd: self.fds.fds()[fi],
                    column,
                };
                self.failure = Some(e.clone());
                // Always record the violating firing: explain_rejection
                // names the fd and witnesses even without provenance
                // (the justification *chains* need provenance).
                self.rejection = Some(Firing {
                    fd: fi as u32,
                    column,
                    rows,
                });
                self.trace.emit_with(|| TraceEvent::StateRejected {
                    violating_fd: self.fd_labels[fi].clone(),
                    column: self.col_labels[col].clone(),
                    witness_rows: rows,
                });
                return Err(e.into());
            }
            (ChaseSym::Const(_), _) => (ra, rb),
            (_, ChaseSym::Const(_)) => (rb, ra),
            (ChaseSym::Dv, _) => (ra, rb),
            (_, ChaseSym::Dv) => (rb, ra),
            (ChaseSym::Ndv(x), ChaseSym::Ndv(y)) => {
                if x < y {
                    (ra, rb)
                } else {
                    (rb, ra)
                }
            }
        };
        guard.chase_step()?;
        self.stats.rule_applications += 1;
        self.parent[lose as usize] = win;
        if self.provenance {
            let firing = self.firings.len() as u32;
            self.firings.push(Firing {
                fd: fi as u32,
                column,
                rows,
            });
            self.link[lose as usize] = Some(MergeLink { winner: win, firing });
        }
        // Walk the losing class once to enqueue its rows — exactly the
        // rows whose visible symbol changed — then splice the whole list
        // onto the winner in O(1). No allocation on either step.
        let width = self.width as u32;
        let mut entry = self.member_head[lose as usize];
        let mut dirtied = 0;
        while entry != NIL {
            self.enqueue(entry / width);
            dirtied += 1;
            entry = self.member_next[entry as usize];
        }
        self.dirtied_in_run += dirtied;
        let lose_head = self.member_head[lose as usize];
        if lose_head != NIL {
            let win_tail = self.member_tail[win as usize];
            if win_tail == NIL {
                self.member_head[win as usize] = lose_head;
            } else {
                self.member_next[win_tail as usize] = lose_head;
            }
            self.member_tail[win as usize] = self.member_tail[lose as usize];
            self.member_head[lose as usize] = NIL;
            self.member_tail[lose as usize] = NIL;
        }
        self.trace.emit_with(|| TraceEvent::FdRuleFired {
            fd: self.fd_labels[fi].clone(),
            column: self.col_labels[col].clone(),
            rows,
            dirtied,
        });
        Ok(true)
    }

    fn enqueue(&mut self, r: u32) {
        if !self.queued[r as usize] {
            self.queued[r as usize] = true;
            self.work.push(r);
        }
    }

    /// Canonicalises the LHS node vector of row `r` for fd `fi` into
    /// `out` (cleared first) — no allocation once `out` has warmed up to
    /// the widest LHS.
    fn fill_key(&mut self, fi: usize, r: u32, out: &mut Vec<u32>) {
        out.clear();
        for k in 0..self.lhs_cols[fi].len() {
            let n = self.cell(r, self.lhs_cols[fi][k] as usize);
            out.push(self.find(n));
        }
    }

    /// Root of `x` with path compression.
    fn find(&mut self, mut x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        while self.parent[x as usize] != root {
            let next = self.parent[x as usize];
            self.parent[x as usize] = root;
            x = next;
        }
        root
    }

    /// Root of `x` without compression, for read-only accessors.
    fn find_ro(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    fn const_node(&mut self, col: usize, v: Value) -> u32 {
        if let Some(&n) = self.const_nodes[col].get(&v) {
            return n;
        }
        let n = self.fresh_node(ChaseSym::Const(v));
        self.const_nodes[col].insert(v, n);
        n
    }

    /// Allocates a fresh union-find node. Infallible by construction:
    /// every row-append path checks
    /// [`ensure_row_headroom`](IncrementalChase::ensure_row_headroom)
    /// before allocating, so `parent.len()` here never reaches the cap
    /// and the `as u32` cannot wrap.
    fn fresh_node(&mut self, s: ChaseSym) -> u32 {
        debug_assert!(self.parent.len() < self.node_cap as usize);
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.sym.push(s);
        self.member_head.push(NIL);
        self.member_tail.push(NIL);
        self.link.push(None);
        id
    }

    /// Appends cell `entry` to class `root`'s membership list.
    fn push_member(&mut self, root: u32, entry: u32) {
        self.member_next[entry as usize] = NIL;
        let tail = self.member_tail[root as usize];
        if tail == NIL {
            self.member_head[root as usize] = entry;
        } else {
            self.member_next[tail as usize] = entry;
        }
        self.member_tail[root as usize] = entry;
    }

    /// The column of universe attribute `a`, if the engine chases it.
    #[inline]
    fn column(&self, a: Attribute) -> Option<usize> {
        match self.col_of.get(a.index()) {
            Some(&c) if c != NIL => Some(c as usize),
            _ => None,
        }
    }

    /// Whether every attribute of `x` has a column. A row's cell outside
    /// the columns would be a fresh ndv no rule equates, so no row is
    /// total on an `x` that fails this.
    fn covers(&self, x: AttrSet) -> bool {
        x.iter().all(|a| self.column(a).is_some())
    }

    /// The node held by cell `(r, col)` in the flat arena.
    #[inline]
    fn cell(&self, r: u32, col: usize) -> u32 {
        self.cells[r as usize * self.width + col]
    }

    /// Row `r`'s cell slice in the flat arena.
    #[inline]
    fn row_cells(&self, r: usize) -> &[u32] {
        &self.cells[r * self.width..(r + 1) * self.width]
    }

    /// The inconsistency that poisoned the engine, if any.
    pub fn failure(&self) -> Option<&Inconsistent> {
        self.failure.as_ref()
    }

    fn firing_info(&self, i: u32) -> FiringInfo {
        let f = self.firings[i as usize];
        FiringInfo {
            fd: self.fds.fds()[f.fd as usize],
            column: f.column,
            rows: (f.rows.0 as usize, f.rows.1 as usize),
            tags: (self.tags[f.rows.0 as usize], self.tags[f.rows.1 as usize]),
        }
    }

    /// Walks `node`'s merge-forest chain, oldest firing first. Path
    /// compression only rewrites `parent`, so the chain survives intact.
    fn chain_of(&self, mut node: u32) -> Vec<FiringInfo> {
        let mut out = Vec::new();
        while let Some(l) = self.link[node as usize] {
            out.push(self.firing_info(l.firing));
            node = l.winner;
        }
        out
    }

    /// The fd-firing chain that gave cell `(row, column)` its canonical
    /// symbol, oldest first — a Lemma 3.8-style derivation witness.
    /// Empty when the cell was born with its symbol, or when provenance
    /// recording ([`with_provenance`](IncrementalChase::with_provenance))
    /// is off.
    pub fn explain_cell(&self, row: usize, column: Attribute) -> Vec<FiringInfo> {
        match self.column(column) {
            Some(c) => self.chain_of(self.cell(row as u32, c)),
            None => Vec::new(),
        }
    }

    /// Provenance for the derived total tuple `t` on `x`: the first row
    /// whose canonical symbols are total on `x` and equal `t`, with its
    /// per-column firing chains. `None` when no chased row witnesses
    /// `t`.
    pub fn explain_tuple(&self, x: AttrSet, t: &Tuple) -> Option<TupleExplanation> {
        if !self.covers(x) {
            return None;
        }
        'rows: for r in self.live_rows() {
            let cells = self.row_cells(r);
            for a in x.iter() {
                match self.sym[self.find_ro(cells[self.col_of[a.index()] as usize]) as usize] {
                    ChaseSym::Const(v) if t.get(a) == Some(v) => {}
                    _ => continue 'rows,
                }
            }
            return Some(TupleExplanation {
                row: r,
                tag: self.tags[r],
                cells: x
                    .iter()
                    .map(|a| CellTrace {
                        column: a,
                        chain: self.explain_cell(r, a),
                    })
                    .collect(),
            });
        }
        None
    }

    /// Provenance for the inconsistency that poisoned the engine: the
    /// violated fd, the column of the constant clash, the two witness
    /// rows with their origin tags, and (in provenance mode) the firing
    /// chains under which the rows' left-hand sides came to agree.
    /// `None` while the engine is healthy.
    pub fn explain_rejection(&self) -> Option<RejectionExplanation> {
        let f = self.rejection?;
        let fd = self.fds.fds()[f.fd as usize];
        let (r0, r1) = (f.rows.0 as usize, f.rows.1 as usize);
        Some(RejectionExplanation {
            fd,
            column: f.column,
            rows: (r0, r1),
            tags: (self.tags[r0], self.tags[r1]),
            lhs: fd
                .lhs
                .iter()
                .map(|a| (a, self.explain_cell(r0, a), self.explain_cell(r1, a)))
                .collect(),
            clash: (
                self.explain_cell(r0, f.column),
                self.explain_cell(r1, f.column),
            ),
        })
    }

    /// Accumulated work counters across all runs.
    pub fn stats(&self) -> ChaseStats {
        self.stats
    }

    /// Number of row indices, retracted rows included (indices are
    /// stable: a retracted row keeps its slot).
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the engine holds no rows, live or retracted.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Number of live (not retracted) rows.
    pub fn live_len(&self) -> usize {
        self.tags.len() - self.dead_count
    }

    /// Number of retracted rows still holding an index.
    pub fn dead_len(&self) -> usize {
        self.dead_count
    }

    /// Whether row `r` was retracted.
    pub fn is_dead(&self, r: usize) -> bool {
        self.dead[r]
    }

    /// Indices of the live rows, ascending.
    fn live_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&r| !self.dead[r])
    }

    /// Number of columns a row carries: one per attribute the engine
    /// chases (see [`over`](IncrementalChase::over)), which is the
    /// universe size only for an engine built by
    /// [`new`](IncrementalChase::new).
    pub fn width(&self) -> usize {
        self.width
    }

    /// How many union-find nodes the engine holds.
    pub fn arena_lens(&self) -> ArenaLens {
        ArenaLens {
            nodes: self.parent.len(),
            ndvs: self.next_ndv as usize,
        }
    }

    /// The restricted projection `πt_X` over the current (chased) rows:
    /// rows all-constant on `x`, projected and deduplicated.
    pub fn total_projection(&self, x: AttrSet) -> Vec<Tuple> {
        let mut out = Vec::new();
        if !self.covers(x) {
            return out;
        }
        'rows: for r in self.live_rows() {
            let cells = self.row_cells(r);
            let mut pairs = Vec::with_capacity(x.len());
            for a in x.iter() {
                match self.sym[self.find_ro(cells[self.col_of[a.index()] as usize]) as usize] {
                    ChaseSym::Const(v) => pairs.push((a, v)),
                    _ => continue 'rows,
                }
            }
            out.push(Tuple::from_pairs(pairs));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Materialises the current rows with their canonical symbols, at
    /// universe width: a cell outside the engine's columns is a fresh
    /// ndv of its own.
    pub fn to_tableau(&self) -> Tableau {
        let (rows, next_ndv) = self.materialize_rows();
        Tableau::from_raw(self.col_of.len(), rows, next_ndv)
    }

    /// The live rows at universe width, and the ndv counter past every
    /// ndv they hold.
    fn materialize_rows(&self) -> (Vec<Row>, u32) {
        let mut spare = self.next_ndv;
        let rows = self
            .live_rows()
            .map(|r| {
                let cells = self.row_cells(r);
                let syms = self
                    .col_of
                    .iter()
                    .map(|&c| match c {
                        NIL => {
                            spare += 1;
                            ChaseSym::Ndv(spare - 1)
                        }
                        c => self.sym[self.find_ro(cells[c as usize]) as usize],
                    })
                    .collect();
                Row {
                    syms,
                    tag: self.tags[r],
                }
            })
            .collect();
        (rows, spare)
    }
}

/// `CHASE_F(T)` through the incremental engine — a drop-in replacement
/// for the reference [`chase`](crate::chase) with the same contract: the
/// tableau is chased in place, one chase step is charged per rule
/// application, and on success the result is identical to the reference
/// engine's.
pub fn chase_incremental(
    t: &mut Tableau,
    fds: &FdSet,
    guard: &Guard,
) -> Result<ChaseStats, ExecError> {
    let mut engine = IncrementalChase::of_tableau(t, fds)?;
    let stats = engine.run(guard)?;
    *t.rows_mut() = engine.materialize_rows().0;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase_engine::chase;
    use idr_fd::KeyDeps;
    use idr_relation::exec::Budget;
    use idr_relation::{state_of, SchemeBuilder, SymbolTable};

    fn merging_fixture() -> (idr_relation::DatabaseScheme, DatabaseState) {
        let scheme = SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "AC", ["A"])
            .build()
            .unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &scheme,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("A", "a"), ("C", "c")]),
            ],
        )
        .unwrap();
        (scheme, state)
    }

    #[test]
    fn identical_to_reference_on_merging_state() {
        let (scheme, state) = merging_fixture();
        let kd = KeyDeps::of(&scheme);
        let mut t1 = Tableau::of_state(&scheme, &state);
        let mut t2 = t1.clone();
        chase(&mut t1, kd.full(), &Guard::unlimited()).unwrap();
        chase_incremental(&mut t2, kd.full(), &Guard::unlimited()).unwrap();
        // Not just equivalent: identical rows, symbols and tags.
        assert_eq!(t1, t2);
    }

    #[test]
    fn detects_inconsistency_and_poisons() {
        let scheme = SchemeBuilder::new("AB")
            .scheme("R1", "AB", ["A"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&scheme);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &scheme,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b1")]),
                ("R1", &[("A", "a"), ("B", "b2")]),
            ],
        )
        .unwrap();
        let mut e = IncrementalChase::of_state(&scheme, &state, kd.full()).unwrap();
        let err = e.run(&Guard::unlimited()).unwrap_err();
        assert!(matches!(err, ExecError::Inconsistent { .. }));
        assert!(e.failure().is_some());
        // Poisoned: later runs keep failing.
        assert!(e.run(&Guard::unlimited()).is_err());
    }

    #[test]
    fn transitive_merges_propagate() {
        let scheme = SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["AB"])
            .scheme("R2", "BC", ["B"])
            .scheme("R3", "AC", ["A"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&scheme);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &scheme,
            &mut sym,
            &[
                ("R3", &[("A", "a0"), ("C", "c0")]),
                ("R1", &[("A", "a0"), ("B", "b0")]),
                ("R1", &[("A", "a1"), ("B", "b0")]),
                ("R1", &[("A", "a1"), ("B", "b1")]),
                ("R1", &[("A", "a2"), ("B", "b1")]),
            ],
        )
        .unwrap();
        let mut t1 = Tableau::of_state(&scheme, &state);
        let mut t2 = t1.clone();
        chase(&mut t1, kd.full(), &Guard::unlimited()).unwrap();
        chase_incremental(&mut t2, kd.full(), &Guard::unlimited()).unwrap();
        let ac = scheme.universe().set_of("AC");
        assert_eq!(t1.total_projection(ac).len(), 3);
        assert_eq!(t1, t2);
    }

    #[test]
    fn empty_inputs() {
        let mut t = Tableau::new(3);
        assert!(chase_incremental(&mut t, &FdSet::new(), &Guard::unlimited()).is_ok());
        let mut e = IncrementalChase::new(3, &FdSet::new());
        assert!(e.is_empty());
        assert!(e.run(&Guard::unlimited()).is_ok());
    }

    #[test]
    fn incremental_insert_matches_batch_chase() {
        let (scheme, state) = merging_fixture();
        let kd = KeyDeps::of(&scheme);
        let u = scheme.universe();
        let mut sym = SymbolTable::new();

        // Batch: chase the state plus the extra tuple from scratch.
        let extra = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a2")),
            (u.attr_of("B"), sym.intern("b2")),
        ]);
        let mut batched = state.clone();
        batched.insert(0, extra.clone()).unwrap();
        let mut t_batch = Tableau::of_state(&scheme, &batched);
        chase(&mut t_batch, kd.full(), &Guard::unlimited()).unwrap();

        // Incremental: run, then push the tuple, then run again.
        let mut e = IncrementalChase::of_state(&scheme, &state, kd.full()).unwrap();
        e.run(&Guard::unlimited()).unwrap();
        e.push_tuple(&extra, Some(0)).unwrap();
        e.run(&Guard::unlimited()).unwrap();

        let all = u.all();
        assert_eq!(e.total_projection(all), t_batch.total_projection(all));
        let ab = u.set_of("AB");
        assert_eq!(e.total_projection(ab), t_batch.total_projection(ab));
    }

    #[test]
    fn incremental_insert_reuses_constant_classes() {
        // Inserting a tuple that shares constants with merged rows must
        // pick up the merged class, not a fresh node.
        let (scheme, state) = merging_fixture();
        let kd = KeyDeps::of(&scheme);
        let u = scheme.universe();
        let mut e = IncrementalChase::of_state(&scheme, &state, kd.full()).unwrap();
        e.run(&Guard::unlimited()).unwrap();
        // Insert R2(a, c2): conflicts with the existing R2(a, c) under
        // key A → inconsistency must be detected incrementally.
        // Replicate the fixture's interning order so "a" maps to the same
        // value and "c2" to a fresh one.
        let mut sym = SymbolTable::new();
        let (av, _, _) = (sym.intern("a"), sym.intern("b"), sym.intern("c"));
        let c2 = sym.intern("c2");
        let bad = Tuple::from_pairs([(u.attr_of("A"), av), (u.attr_of("C"), c2)]);
        e.push_tuple(&bad, Some(1)).unwrap();
        let err = e.run(&Guard::unlimited()).unwrap_err();
        assert!(matches!(err, ExecError::Inconsistent { .. }));
    }

    #[test]
    fn budget_trip_is_resumable() {
        let scheme = SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["AB"])
            .scheme("R2", "BC", ["B"])
            .scheme("R3", "AC", ["A"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&scheme);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &scheme,
            &mut sym,
            &[
                ("R3", &[("A", "a0"), ("C", "c0")]),
                ("R1", &[("A", "a0"), ("B", "b0")]),
                ("R1", &[("A", "a1"), ("B", "b0")]),
                ("R1", &[("A", "a1"), ("B", "b1")]),
                ("R1", &[("A", "a2"), ("B", "b1")]),
            ],
        )
        .unwrap();
        let mut e = IncrementalChase::of_state(&scheme, &state, kd.full()).unwrap();
        let tight = Guard::new(Budget::unlimited().with_max_chase_steps(1));
        assert!(matches!(
            e.run(&tight),
            Err(ExecError::BudgetExceeded { .. })
        ));
        // Resume with a fresh guard: reaches the same fixpoint.
        e.run(&Guard::unlimited()).unwrap();
        let mut oracle = Tableau::of_state(&scheme, &state);
        chase(&mut oracle, kd.full(), &Guard::unlimited()).unwrap();
        let all = scheme.universe().all();
        assert_eq!(e.total_projection(all), oracle.total_projection(all));
    }

    #[test]
    fn tracing_emits_run_and_firing_events() {
        use idr_obs::EventLog;
        let (scheme, state) = merging_fixture();
        let kd = KeyDeps::of(&scheme);
        let log = Arc::new(EventLog::new(256));
        let mut e = IncrementalChase::of_state(&scheme, &state, kd.full())
            .unwrap()
            .with_observability(
            TraceHandle::to_log(Arc::clone(&log)),
            Some(scheme.universe()),
            "whole",
        );
        e.run(&Guard::unlimited()).unwrap();
        let events = log.drain();
        assert!(matches!(
            events.first(),
            Some(TraceEvent::ChaseStarted { rows: 2, fds: _, .. })
        ));
        assert!(matches!(
            events.last(),
            Some(TraceEvent::RowsDirtied { .. })
        ));
        let fired: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FdRuleFired { .. }))
            .collect();
        assert!(!fired.is_empty());
        // Labels are rendered with universe names, e.g. "A→B".
        if let TraceEvent::FdRuleFired { fd, .. } = fired[0] {
            assert!(fd.contains('→'), "fd label: {fd}");
        }
    }

    #[test]
    fn tracing_emits_rejection_with_witnesses() {
        use idr_obs::EventLog;
        let scheme = SchemeBuilder::new("AB")
            .scheme("R1", "AB", ["A"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&scheme);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &scheme,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b1")]),
                ("R1", &[("A", "a"), ("B", "b2")]),
            ],
        )
        .unwrap();
        let log = Arc::new(EventLog::new(64));
        let mut e = IncrementalChase::of_state(&scheme, &state, kd.full())
            .unwrap()
            .with_observability(
            TraceHandle::to_log(Arc::clone(&log)),
            Some(scheme.universe()),
            "whole",
        );
        e.run(&Guard::unlimited()).unwrap_err();
        let rejected: Vec<_> = log
            .drain()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::StateRejected { .. }))
            .collect();
        assert_eq!(rejected.len(), 1);
        if let TraceEvent::StateRejected {
            violating_fd,
            column,
            witness_rows,
        } = &rejected[0]
        {
            assert_eq!(&**violating_fd, "A→B");
            assert_eq!(&**column, "B");
            assert_ne!(witness_rows.0, witness_rows.1);
        }
        // explain_rejection names the same violation without provenance.
        let why = e.explain_rejection().unwrap();
        assert_eq!(why.column.index(), 1);
        assert_eq!(why.tags, (Some(0), Some(0)));
    }

    #[test]
    fn provenance_explains_derived_tuple() {
        // R1(a,b) + R2(a,c) under A→B, A→C derive the AC-total row and
        // the BC agreement transitively; the chain must name the fds.
        let (scheme, state) = merging_fixture();
        let kd = KeyDeps::of(&scheme);
        let u = scheme.universe();
        let mut e =
            IncrementalChase::of_state(&scheme, &state, kd.full())
            .unwrap()
            .with_provenance(true);
        e.run(&Guard::unlimited()).unwrap();
        assert!(e.provenance_enabled());
        // Row 0 (R1: a,b) became total on C via A→C between rows 0 and 1.
        let mut sym = SymbolTable::new();
        let (av, bv, cv) = (sym.intern("a"), sym.intern("b"), sym.intern("c"));
        let abc = Tuple::from_pairs([
            (u.attr_of("A"), av),
            (u.attr_of("B"), bv),
            (u.attr_of("C"), cv),
        ]);
        let why = e.explain_tuple(u.all(), &abc).expect("tuple is derived");
        let c_trace = why
            .cells
            .iter()
            .find(|c| c.column == u.attr_of("C"))
            .unwrap();
        assert!(
            !c_trace.chain.is_empty(),
            "derived C cell must have a firing chain"
        );
        assert!(c_trace.chain.iter().all(|f| f.rows.0 != f.rows.1));
        // The A cell was born constant: empty chain.
        let a_trace = why
            .cells
            .iter()
            .find(|c| c.column == u.attr_of("A"))
            .unwrap();
        assert!(a_trace.chain.is_empty());
    }

    #[test]
    fn provenance_off_by_default_and_chains_empty() {
        let (scheme, state) = merging_fixture();
        let kd = KeyDeps::of(&scheme);
        let mut e = IncrementalChase::of_state(&scheme, &state, kd.full()).unwrap();
        e.run(&Guard::unlimited()).unwrap();
        assert!(!e.provenance_enabled());
        for r in 0..e.len() {
            for c in 0..e.width() {
                assert!(e.explain_cell(r, Attribute::from_index(c)).is_empty());
            }
        }
    }

    #[test]
    fn provenance_rejection_chains_justify_lhs_agreement() {
        // A transitive inconsistency: the violating rows' LHS cells agree
        // only through earlier firings, and the chains must show them.
        let scheme = SchemeBuilder::new("ABC")
            .scheme("R1", "AB", ["A"])
            .scheme("R2", "BC", ["B"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&scheme);
        let mut sym = SymbolTable::new();
        let state = state_of(
            &scheme,
            &mut sym,
            &[
                ("R2", &[("B", "b"), ("C", "c1")]),
                ("R1", &[("A", "a"), ("B", "b")]),
                ("R2", &[("B", "b"), ("C", "c2")]),
            ],
        )
        .unwrap();
        let mut e =
            IncrementalChase::of_state(&scheme, &state, kd.full())
            .unwrap()
            .with_provenance(true);
        e.run(&Guard::unlimited()).unwrap_err();
        let why = e.explain_rejection().expect("engine is poisoned");
        assert_eq!(why.fd.render(scheme.universe()), "B→C");
        assert_eq!(scheme.universe().name(why.column), "C");
        assert_ne!(why.rows.0, why.rows.1);
        // Both witness rows are R2 rows (tag 1).
        assert_eq!(why.tags, (Some(1), Some(1)));
    }

    #[test]
    fn tracing_does_not_change_chase_result() {
        use idr_obs::EventLog;
        let (scheme, state) = merging_fixture();
        let kd = KeyDeps::of(&scheme);
        let mut plain = IncrementalChase::of_state(&scheme, &state, kd.full()).unwrap();
        plain.run(&Guard::unlimited()).unwrap();
        let log = Arc::new(EventLog::new(256));
        let mut traced = IncrementalChase::of_state(&scheme, &state, kd.full())
            .unwrap()
            .with_observability(
                TraceHandle::to_log(Arc::clone(&log)),
                Some(scheme.universe()),
                "whole",
            )
            .with_provenance(true);
        traced.run(&Guard::unlimited()).unwrap();
        assert_eq!(plain.to_tableau(), traced.to_tableau());
        assert_eq!(plain.stats(), traced.stats());
    }

    #[test]
    fn a_retracted_row_fires_no_rule_through_a_stale_index_slot() {
        // Rows s and r share the ndv b0 in column A. r is probed first,
        // so A->B indexes it under key (b0); then C->A merges b0 into
        // the constant a and the slot goes stale. Retracting r resets b0
        // to a root of its own, so s's re-chase probes (b0) again and
        // finds the dead r there: s must not take r's B = b1.
        let u = idr_relation::Universe::of_chars("ABC");
        let f = FdSet::parse(&u, "A->B, C->A");
        let mut sym = SymbolTable::new();
        let (a, b1, c) = (sym.intern("a"), sym.intern("b1"), sym.intern("c"));
        let row = |syms: [ChaseSym; 3]| Row {
            syms: syms.to_vec(),
            tag: None,
        };
        let t = Tableau::from_raw(
            3,
            vec![
                row([ChaseSym::Ndv(0), ChaseSym::Ndv(1), ChaseSym::Const(c)]),
                row([ChaseSym::Const(a), ChaseSym::Ndv(2), ChaseSym::Const(c)]),
                row([ChaseSym::Ndv(0), ChaseSym::Const(b1), ChaseSym::Ndv(3)]),
            ],
            4,
        );
        let mut e = IncrementalChase::of_tableau(&t, &f).unwrap();
        e.run(&Guard::unlimited()).unwrap();
        assert_eq!(e.total_projection(u.set_of("B")).len(), 1);
        e.retract(&[2], &Guard::unlimited()).unwrap();
        assert!(e.total_projection(u.set_of("B")).is_empty());
        assert_eq!(e.total_projection(u.set_of("AC")).len(), 1);
    }

    #[test]
    fn scheme_tableau_with_dvs_chases_identically() {
        let u = idr_relation::Universe::of_chars("ABCD");
        let f = FdSet::parse(&u, "A->B, B->C");
        let schemes = [u.set_of("AB"), u.set_of("BC"), u.set_of("CD")];
        let mut t1 = Tableau::of_scheme(&schemes, 4);
        let mut t2 = t1.clone();
        chase(&mut t1, &f, &Guard::unlimited()).unwrap();
        chase_incremental(&mut t2, &f, &Guard::unlimited()).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn capacity_guard_trips_typed_and_leaves_engine_usable() {
        let (scheme, _) = merging_fixture();
        let kd = KeyDeps::of(&scheme);
        let mut sym = SymbolTable::new();
        // Width 3; a tuple defining one column allocates 3 nodes (one
        // const + two fresh ndvs), so a cap of 8 admits two rows and
        // refuses the third before touching anything.
        let mut e = IncrementalChase::new(3, kd.full()).with_node_capacity(8);
        let a = scheme.universe().attr_of("A");
        for i in 0..2 {
            let t = Tuple::from_pairs([(a, sym.intern(&format!("a{i}")))]);
            e.push_tuple(&t, None).unwrap();
        }
        let t = Tuple::from_pairs([(a, sym.intern("a2"))]);
        let err = e.push_tuple(&t, None).unwrap_err();
        assert_eq!(
            err,
            ExecError::CapacityExceeded {
                what: "chase node ids",
                limit: 8
            }
        );
        assert!(!err.is_resource_exhaustion(), "capacity is not resumable");
        // The refused push mutated nothing: the engine still holds two
        // rows and chases them fine.
        assert_eq!(e.len(), 2);
        e.run(&Guard::unlimited()).unwrap();
        assert_eq!(e.to_tableau().rows().len(), 2);
    }

    #[test]
    fn of_state_propagates_capacity_trip() {
        let (scheme, state) = merging_fixture();
        let kd = KeyDeps::of(&scheme);
        // The same guard protects the bulk constructors: of_state builds
        // through push_tuple, so an overflowing state fails typed.
        let err = IncrementalChase::of_state(&scheme, &state, kd.full())
            .map(|e| e.with_node_capacity(0))
            .and_then(|mut e| {
                let mut s = SymbolTable::new();
                let a = scheme.universe().attr_of("A");
                e.push_tuple(&Tuple::from_pairs([(a, s.intern("x"))]), None)
                    .map(|_| ())
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::CapacityExceeded { .. }));
    }

    #[test]
    fn insert_batch_equals_per_op_serial() {
        let (scheme, state) = merging_fixture();
        let kd = KeyDeps::of(&scheme);
        let mut sym = SymbolTable::new();
        let u = scheme.universe();
        let (a, b, c) = (u.attr_of("A"), u.attr_of("B"), u.attr_of("C"));
        // A mix of fresh keys and key-sharing rows so the batch both
        // claims new index slots and fires fd rules across its own rows.
        let extra: Vec<(usize, Tuple)> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    (0, Tuple::from_pairs([(a, sym.intern(&format!("k{}", i / 3)))]))
                } else if i % 3 == 1 {
                    (
                        0,
                        Tuple::from_pairs([
                            (a, sym.intern(&format!("k{}", i / 3))),
                            (b, sym.intern(&format!("b{}", i / 3))),
                        ]),
                    )
                } else {
                    (
                        1,
                        Tuple::from_pairs([
                            (a, sym.intern(&format!("k{}", i / 3))),
                            (c, sym.intern(&format!("c{}", i / 3))),
                        ]),
                    )
                }
            })
            .collect();
        let mut serial = IncrementalChase::of_state(&scheme, &state, kd.full()).unwrap();
        serial.run(&Guard::unlimited()).unwrap();
        for (rel, t) in &extra {
            serial.push_tuple(t, Some(*rel)).unwrap();
            serial.run(&Guard::unlimited()).unwrap();
        }
        let mut batch = IncrementalChase::of_state(&scheme, &state, kd.full()).unwrap();
        batch.run(&Guard::unlimited()).unwrap();
        batch
            .insert_batch(extra.iter().map(|(rel, t)| (t, Some(*rel))), &Guard::unlimited())
            .unwrap();
        // Church–Rosser: not just equivalent — identical tableaux.
        assert_eq!(batch.to_tableau(), serial.to_tableau());
    }

    #[test]
    fn insert_batch_detects_cross_batch_inconsistency() {
        let scheme = SchemeBuilder::new("AB")
            .scheme("R1", "AB", ["A"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&scheme);
        let mut sym = SymbolTable::new();
        let t1 = Tuple::from_pairs([(
            scheme.universe().attr_of("A"),
            sym.intern("a"),
        ), (scheme.universe().attr_of("B"), sym.intern("b1"))]);
        let t2 = Tuple::from_pairs([(
            scheme.universe().attr_of("A"),
            sym.intern("a"),
        ), (scheme.universe().attr_of("B"), sym.intern("b2"))]);
        let mut e = IncrementalChase::new(2, kd.full());
        let err = e
            .insert_batch([(&t1, Some(0)), (&t2, Some(0))], &Guard::unlimited())
            .unwrap_err();
        assert!(matches!(err, ExecError::Inconsistent { .. }));
        // The combined run names no culprit: the whole batch is
        // poisoned, and retracting every row it pushed restores the
        // pre-batch (here: empty) fixpoint, row indices kept.
        assert!(e.failure().is_some());
        assert_eq!(e.retract(&[0, 1], &Guard::unlimited()), Ok(0));
        assert!(e.failure().is_none() && e.explain_rejection().is_none());
        assert_eq!((e.len(), e.live_len(), e.dead_len()), (2, 0, 2));
        assert!(e.to_tableau().rows().is_empty());
        e.insert_batch([(&t1, Some(0))], &Guard::unlimited())
            .unwrap();
        assert_eq!(e.rows_of(&t1, Some(0)), vec![2]);
    }
}
