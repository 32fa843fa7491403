//! The maintenance algorithms: Algorithm 2 (§3.2, algebraic
//! maintainability), Algorithm 4 (§3.3.1, tuple extension) and Algorithm 5
//! (§3.3.1, constant-time maintenance), plus the block-routing maintainers
//! for independence-reducible schemes (§4.2).
//!
//! The cost model the paper cares about is the number of single-tuple
//! selections issued against the state; every entry point therefore
//! returns [`MaintenanceStats`] counting lookups and keys processed, which
//! the EXPERIMENTS.md scaling benchmarks plot against state size.
//!
//! Every entry point takes a [`Guard`]: selections are charged against its
//! budget (the unit of the paper's constant-time-maintainability cost
//! model) and transient faults of the access path are run through a
//! [`RetryPolicy`]. Pass [`Guard::unlimited`] and [`RetryPolicy::none`]
//! for the plain in-memory semantics.

use std::collections::HashMap;
use std::sync::Arc;

use idr_obs::{TraceEvent, TraceHandle};
use idr_relation::exec::{ExecError, Guard, RetryPolicy};
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, Tuple, Value};

use crate::exec::{RepAccess, SelectionRecorder, StateAccess};
use crate::recognition::IrScheme;
use crate::rep::KeRep;

/// Outcome of a maintenance check for an insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaintenanceOutcome {
    /// The updated state is consistent; the witness is the total tuple the
    /// algorithm assembled (Algorithm 2's `q`, Algorithm 5's join).
    Consistent(Tuple),
    /// The updated state is inconsistent.
    Inconsistent,
}

impl MaintenanceOutcome {
    /// Whether the insertion was accepted.
    pub fn is_consistent(&self) -> bool {
        matches!(self, MaintenanceOutcome::Consistent(_))
    }
}

/// Work counters for the scaling experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Single-tuple selections issued (index lookups).
    pub lookups: usize,
    /// Keys processed.
    pub keys_processed: usize,
}

/// Algorithm 2: decides whether inserting `t` into relation `si` of a
/// *key-equivalent* block keeps the state consistent, given the block's
/// representative instance (built by Algorithm 1), generic over the
/// representative-instance access path.
///
/// The algorithm grows a total tuple `q` from `t`, joining in — for each
/// key `K` embedded in the growing closure — the unique representative-
/// instance tuple agreeing with `q` on `K`. An empty join is a rejection
/// (Theorem 3.1).
///
/// Every single-tuple selection is charged against `guard` and run through
/// `retry`: transient [`Fault`](crate::exec::Fault)s are retried with
/// backoff, permanent or persistent ones surface as
/// [`ExecError::Faulted`].
pub fn algorithm2(
    scheme: &DatabaseScheme,
    rep: &impl RepAccess,
    si: usize,
    t: &Tuple,
    guard: &Guard,
    retry: &RetryPolicy,
) -> Result<(MaintenanceOutcome, MaintenanceStats), ExecError> {
    let mut stats = MaintenanceStats::default();
    let si_attrs = scheme.scheme(si).attrs();
    debug_assert_eq!(t.attrs(), si_attrs, "inserted tuple must be total on Sᵢ");

    let mut closure = si_attrs;
    let mut q = t.clone();
    let mut processed: Vec<AttrSet> = Vec::new();
    let mut unprocessed: Vec<AttrSet> = scheme.scheme(si).keys().to_vec();

    while let Some(k) = unprocessed.pop() {
        stats.keys_processed += 1;
        stats.lookups += 1;
        guard.lookup()?;
        let v: Tuple = match retry.run(guard, || rep.select(k, &q))? {
            Some(p) => p,
            None => q.project(k),
        };
        let c = v.attrs();
        match q.join(&v) {
            Some(joined) => q = joined,
            None => return Ok((MaintenanceOutcome::Inconsistent, stats)),
        }
        closure |= c;
        processed.push(k);
        // new_keys: all block keys embedded in the closure, minus the
        // processed ones.
        for &nk in rep.keys() {
            if nk.is_subset(closure) && !processed.contains(&nk) && !unprocessed.contains(&nk) {
                unprocessed.push(nk);
            }
        }
    }
    Ok((MaintenanceOutcome::Consistent(q), stats))
}

/// A hash index over the raw tuples of a block substate: for each member
/// scheme and each of its keys, key values → tuple. This is what makes
/// Algorithm 4's selections `σ_Φ(π_X(Sᵢ))` constant-time.
///
/// The input substate must be *locally consistent* (each relation satisfies
/// its own key dependencies), so each (scheme, key, values) slot holds at
/// most one tuple; a collision is reported as a local inconsistency.
#[derive(Clone, Debug)]
pub struct StateIndex {
    /// (scheme index, attrs, keys) per member.
    members: Vec<(usize, AttrSet, Vec<AttrSet>)>,
    tuples: Vec<Tuple>,
    index: HashMap<(u32, u32, Box<[Value]>), u32>,
}

impl StateIndex {
    /// Builds the index for the given member schemes (by database-scheme
    /// index) over a state.
    ///
    /// # Errors
    ///
    /// Returns the offending scheme index if some relation violates one of
    /// its own key dependencies (the state is not even locally consistent).
    pub fn build(
        scheme: &DatabaseScheme,
        members: &[usize],
        state: &DatabaseState,
    ) -> Result<Self, usize> {
        let mut idx = StateIndex {
            members: members
                .iter()
                .map(|&i| {
                    (
                        i,
                        scheme.scheme(i).attrs(),
                        scheme.scheme(i).keys().to_vec(),
                    )
                })
                .collect(),
            tuples: Vec::new(),
            index: HashMap::new(),
        };
        for (pos, &i) in members.iter().enumerate() {
            for t in state.relation(i).iter() {
                if idx.insert(pos, t.clone()).is_err() {
                    return Err(i);
                }
            }
        }
        Ok(idx)
    }

    /// Inserts a tuple into member `pos`'s relation. Re-inserting an
    /// existing tuple is a no-op.
    ///
    /// # Errors
    ///
    /// Fails when the tuple collides with a *different* existing tuple
    /// under one of the member's keys (local key violation).
    #[allow(clippy::result_unit_err)]
    pub fn insert(&mut self, pos: usize, t: Tuple) -> Result<(), ()> {
        let id = self.tuples.len() as u32;
        let keys = self.members[pos].2.clone();
        for (kpos, k) in keys.iter().enumerate() {
            let vals = key_values(*k, &t).expect("tuple total on its scheme");
            if let Some(&existing) = self.index.get(&(pos as u32, kpos as u32, vals)) {
                if self.tuples[existing as usize] != t {
                    return Err(());
                }
            }
        }
        for (kpos, k) in keys.iter().enumerate() {
            let vals = key_values(*k, &t).expect("tuple total on its scheme");
            self.index.insert((pos as u32, kpos as u32, vals), id);
        }
        self.tuples.push(t);
        Ok(())
    }

    /// Member position of a database-scheme index.
    pub fn member_pos(&self, scheme_idx: usize) -> Option<usize> {
        self.members.iter().position(|&(i, _, _)| i == scheme_idx)
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the index holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    fn lookup(&self, pos: usize, kpos: usize, probe: &Tuple) -> Option<&Tuple> {
        let k = self.members[pos].2[kpos];
        let vals = key_values(k, probe)?;
        self.index
            .get(&(pos as u32, kpos as u32, vals))
            .map(|&id| &self.tuples[id as usize])
    }
}

impl StateAccess for StateIndex {
    fn members(&self) -> &[(usize, AttrSet, Vec<AttrSet>)] {
        &self.members
    }

    fn select(
        &self,
        pos: usize,
        kpos: usize,
        probe: &Tuple,
    ) -> Result<Option<Tuple>, crate::exec::Fault> {
        Ok(self.lookup(pos, kpos, probe).cloned())
    }
}

fn key_values(k: AttrSet, t: &Tuple) -> Option<Box<[Value]>> {
    let mut vals = Vec::with_capacity(k.len());
    for a in k.iter() {
        vals.push(t.get(a)?);
    }
    Some(vals.into_boxed_slice())
}

/// One single-tuple conjunctive selection issued by Algorithm 4 — the
/// `σ_Φ(π_X(Rᵢ))` objects of the ctm definition (§2.7). Wrap the index in
/// a [`SelectionRecorder`] to log them from a run of [`algorithm5`]. The
/// log lets tests verify the *definedness* condition: every constant in a
/// selection formula was either in the inserted tuple or returned by an
/// earlier selection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectionStep {
    /// The member scheme selected from (database-scheme index).
    pub scheme: usize,
    /// The key whose equality formula `Φ` constrains.
    pub key: AttrSet,
    /// The constants of `Φ`, in key-attribute order.
    pub values: Vec<Value>,
    /// The retrieved tuple, if the selection was nonempty.
    pub result: Option<Tuple>,
}

/// Algorithm 4: extends a tuple on a key `K` as far as the state allows —
/// while some member scheme `Sᵢ` has a key `Kᵢ ⊆ C` with `Sᵢ − C ≠ ∅` and
/// a matching tuple `p` (`p[Kᵢ] = t'[Kᵢ]`), absorb `p`. Generic over the
/// state access path.
///
/// Returns the extended tuple (Lemma 3.3: on a consistent state of a
/// split-free key-equivalent scheme this is the unique total tuple of the
/// representative instance containing the key value). `Ok(None)` is the
/// conflict verdict (the supposedly consistent state produced an empty
/// join); `Err` means the guard or a fault stopped the extension before a
/// verdict.
pub fn algorithm4(
    idx: &impl StateAccess,
    t_on_k: &Tuple,
    stats: &mut MaintenanceStats,
    guard: &Guard,
    retry: &RetryPolicy,
) -> Result<Option<Tuple>, ExecError> {
    let mut t = t_on_k.clone();
    let mut c = t.attrs();
    loop {
        let mut extended = false;
        let members = idx.members();
        for (pos, &(_, attrs, ref keys)) in members.iter().enumerate() {
            if attrs.is_subset(c) {
                continue;
            }
            for (kpos, k) in keys.iter().enumerate() {
                if !k.is_subset(c) {
                    continue;
                }
                stats.lookups += 1;
                guard.lookup()?;
                if let Some(p) = retry.run(guard, || idx.select(pos, kpos, &t))? {
                    match t.join(&p) {
                        Some(joined) => t = joined,
                        None => return Ok(None),
                    }
                    c = t.attrs();
                    extended = true;
                    break;
                }
            }
            if extended {
                break;
            }
        }
        if !extended {
            return Ok(Some(t));
        }
    }
}

/// Algorithm 5: constant-time maintenance for a *split-free*
/// key-equivalent block, generic over the state access path. For each key
/// of the updated scheme, extend the inserted tuple's key value through
/// the state (Algorithm 4) and join the results with the inserted tuple;
/// an empty join rejects (Lemma 3.4).
///
/// See [`algorithm2`] for the budget/retry contract.
pub fn algorithm5(
    scheme: &DatabaseScheme,
    idx: &impl StateAccess,
    si: usize,
    t: &Tuple,
    guard: &Guard,
    retry: &RetryPolicy,
) -> Result<(MaintenanceOutcome, MaintenanceStats), ExecError> {
    let mut stats = MaintenanceStats::default();
    let mut q = t.clone();
    for &k in scheme.scheme(si).keys() {
        stats.keys_processed += 1;
        let probe = t.project(k);
        let Some(extended) = algorithm4(idx, &probe, &mut stats, guard, retry)? else {
            return Ok((MaintenanceOutcome::Inconsistent, stats));
        };
        match q.join(&extended) {
            Some(joined) => q = joined,
            None => return Ok((MaintenanceOutcome::Inconsistent, stats)),
        }
    }
    Ok((MaintenanceOutcome::Consistent(q), stats))
}

/// Incremental maintainer for an independence-reducible scheme (§4.2):
/// one representative instance per block, maintained by Algorithm 2.
///
/// Satisfaction within each block guarantees global consistency (the
/// independence of the induced scheme `D`), so inserts touch exactly one
/// block.
#[derive(Clone, Debug)]
pub struct IrMaintainer {
    scheme: DatabaseScheme,
    ir: IrScheme,
    reps: Vec<KeRep>,
    trace: TraceHandle,
}

impl IrMaintainer {
    /// Builds the maintainer from an initial state, verifying its
    /// consistency block by block (the construction of §4.1). Block
    /// construction charges the guard (one lookup per key-index probe of
    /// Algorithm 1's merge loop).
    ///
    /// # Errors
    ///
    /// An inconsistent block surfaces as [`ExecError::Inconsistent`]
    /// naming the block; guard trips surface as their own variants.
    pub fn new(
        scheme: &DatabaseScheme,
        ir: &IrScheme,
        state: &DatabaseState,
        guard: &Guard,
    ) -> Result<Self, ExecError> {
        let mut reps = Vec::with_capacity(ir.len());
        for (b, block) in ir.partition.iter().enumerate() {
            let keys = &ir.block_keys[b];
            let tuples = block
                .iter()
                .flat_map(|&i| state.relation(i).iter().cloned());
            match KeRep::build(keys, tuples, guard) {
                Ok(rep) => reps.push(rep),
                Err(ExecError::Inconsistent { detail }) => {
                    return Err(ExecError::Inconsistent {
                        detail: format!("block {b}: {detail}"),
                    })
                }
                Err(e) => return Err(e),
            }
        }
        Ok(IrMaintainer {
            scheme: scheme.clone(),
            ir: ir.clone(),
            reps,
            trace: TraceHandle::none(),
        })
    }

    /// Installs a tracer: every subsequent [`insert`](IrMaintainer::insert)
    /// emits an [`TraceEvent::InsertApplied`] with its verdict.
    #[must_use]
    pub fn with_tracer(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// The per-block representative instances.
    pub fn reps(&self) -> &[KeRep] {
        &self.reps
    }

    /// The block structure the maintainer routes on.
    pub fn ir(&self) -> &IrScheme {
        &self.ir
    }

    /// Checks an insertion into relation `scheme_idx` and, when consistent,
    /// applies it (updating the block's representative instance).
    ///
    /// Algorithm 2's selections are metered against `guard` and its faults
    /// run through `retry`. When the guard trips or a fault persists, the
    /// maintainer state is left unchanged — the decision phase failed,
    /// nothing was applied. The apply phase (merging the accepted tuple
    /// into the block rep) runs unmetered on purpose: interrupting it
    /// mid-merge would leave the rep half-updated, and its cost is bounded
    /// by the work Algorithm 2 already paid for.
    pub fn insert(
        &mut self,
        scheme_idx: usize,
        t: Tuple,
        guard: &Guard,
        retry: &RetryPolicy,
    ) -> Result<(MaintenanceOutcome, MaintenanceStats), ExecError> {
        let b = self.ir.block_of[scheme_idx];
        let (outcome, stats) =
            algorithm2(&self.scheme, &self.reps[b], scheme_idx, &t, guard, retry)?;
        if let MaintenanceOutcome::Consistent(ref q) = outcome {
            self.reps[b]
                .insert_merge(q.clone(), &Guard::unlimited())
                .expect("Algorithm 2 accepted; merge cannot conflict");
        }
        self.trace.emit_with(|| TraceEvent::InsertApplied {
            relation: Arc::from(self.scheme.scheme(scheme_idx).name()),
            accepted: outcome.is_consistent(),
        });
        Ok((outcome, stats))
    }

    /// Answers an X-total projection directly from the maintained
    /// representative instances — the query path of a *live* system, where
    /// Theorem 4.1's `[Yⱼ]` relations are already materialised as the
    /// per-block rep tuples (no base-table joins at all).
    ///
    /// For each minimal lossless cover `V` of blocks (as in
    /// [`crate::query::ir_total_projection_expr`]) the `Yⱼ`-total tuples
    /// are read straight out of block `j`'s rep and joined. Returns the
    /// deduplicated result tuples on `x`.
    ///
    /// The lossless-cover enumeration is charged against the guard's
    /// enumeration budget and the join loops honour its deadline and
    /// cancellation, so a query over an adversarial block structure fails
    /// typed instead of running away.
    pub fn total_projection(
        &self,
        kd: &idr_fd::KeyDeps,
        x: idr_relation::AttrSet,
        guard: &Guard,
    ) -> Result<Vec<Tuple>, ExecError> {
        let _ = kd; // block structure suffices; kept for API symmetry
        let block_fds = (0..self.ir.len())
            .map(|b| crate::recognition::block_key_fds(&self.ir, b))
            .fold(idr_fd::FdSet::new(), |acc, f| acc.union(&f));
        let covers =
            crate::query::minimal_lossless_covers(&self.ir.block_attrs, &block_fds, x, guard)?;
        let mut out: Vec<Tuple> = Vec::new();
        for v in &covers {
            guard.checkpoint()?;
            out.extend(self.join_cover(v, x));
        }
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Joins the `[Yⱼ]`-total rep tuples of one lossless block cover `v`
    /// (Theorem 4.1) and projects onto `x`.
    fn join_cover(&self, v: &[usize], x: idr_relation::AttrSet) -> Vec<Tuple> {
        // Yⱼ per Theorem 4.1.
        let ys: Vec<idr_relation::AttrSet> = v
            .iter()
            .enumerate()
            .map(|(pos, &b)| {
                let mut others = x;
                for (pos2, &b2) in v.iter().enumerate() {
                    if pos2 != pos {
                        others |= self.ir.block_attrs[b2];
                    }
                }
                self.ir.block_attrs[b] & others
            })
            .collect();
        if ys.iter().any(|y| y.is_empty()) {
            return Vec::new();
        }
        // [Yⱼ]-total tuples straight from the reps.
        let mut partials: Vec<Vec<Tuple>> = Vec::with_capacity(v.len());
        for (pos, &b) in v.iter().enumerate() {
            let y = ys[pos];
            let mut tuples: Vec<Tuple> = self.reps[b]
                .iter()
                .filter(|t| y.is_subset(t.attrs()))
                .map(|t| t.project(y))
                .collect();
            tuples.sort();
            tuples.dedup();
            partials.push(tuples);
        }
        // Hash-join the per-block partials on their common attributes
        // (all tuples within one side share an attribute set).
        let mut acc: Vec<Tuple> = vec![Tuple::unit()];
        let mut acc_attrs = idr_relation::AttrSet::empty();
        for (pos, side) in partials.iter().enumerate() {
            let side_attrs = ys[pos];
            let common = acc_attrs & side_attrs;
            let mut index: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
            for bt in side {
                index.entry(bt.project(common)).or_default().push(bt);
            }
            let mut next = Vec::new();
            for a in &acc {
                if let Some(matches) = index.get(&a.project(common)) {
                    for bt in matches {
                        if let Some(j) = a.join(bt) {
                            next.push(j);
                        }
                    }
                }
            }
            acc = next;
            acc_attrs |= side_attrs;
            if acc.is_empty() {
                break;
            }
        }
        acc.into_iter().map(|t| t.project(x)).collect()
    }

    /// Deletes a tuple from relation `scheme_idx`, rebuilding the touched
    /// block's representative instance from the given (already-updated)
    /// state.
    ///
    /// Deletion never breaks consistency (consistency is monotone under
    /// tuple removal), but it can *unmerge* representative-instance
    /// tuples, so the block representation cannot be patched in place; the
    /// affected block is rebuilt, with the rebuild's key-index probes
    /// charged against `guard`. The paper only treats insertions; this is
    /// the natural completion for a usable maintainer.
    pub fn delete(
        &mut self,
        scheme_idx: usize,
        updated_state: &DatabaseState,
        guard: &Guard,
    ) -> Result<(), ExecError> {
        let b = self.ir.block_of[scheme_idx];
        let keys = &self.ir.block_keys[b];
        let tuples = self.ir.partition[b]
            .iter()
            .flat_map(|&i| updated_state.relation(i).iter().cloned());
        self.reps[b] = KeRep::build(keys, tuples, guard)?;
        Ok(())
    }

    /// Whether a whole state is consistent for an independence-reducible
    /// scheme: every block substate consistent wrt its embedded key
    /// dependencies (§4.2). An inconsistent block yields `Ok(false)`;
    /// guard trips surface as errors.
    pub fn state_consistent(
        scheme: &DatabaseScheme,
        ir: &IrScheme,
        state: &DatabaseState,
        guard: &Guard,
    ) -> Result<bool, ExecError> {
        match Self::new(scheme, ir, state, guard) {
            Ok(_) => Ok(true),
            Err(ExecError::Inconsistent { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// Constant-time maintainer for a *split-free* independence-reducible
/// scheme: one [`StateIndex`] per block, driven by Algorithm 5. Unlike
/// [`IrMaintainer`] it never materialises a representative instance —
/// exactly the point of constant-time maintainability.
#[derive(Clone, Debug)]
pub struct CtmMaintainer {
    scheme: DatabaseScheme,
    ir: IrScheme,
    indexes: Vec<StateIndex>,
    trace: TraceHandle,
}

impl CtmMaintainer {
    /// Builds the per-block indexes over an initial state assumed
    /// consistent (the maintenance problem's precondition).
    ///
    /// # Errors
    ///
    /// A locally inconsistent relation surfaces as
    /// [`ExecError::Inconsistent`] naming it; the guard's deadline and
    /// cancellation are honoured between blocks.
    pub fn new(
        scheme: &DatabaseScheme,
        ir: &IrScheme,
        state: &DatabaseState,
        guard: &Guard,
    ) -> Result<Self, ExecError> {
        let mut indexes = Vec::with_capacity(ir.len());
        for block in ir.partition.iter() {
            guard.checkpoint()?;
            match StateIndex::build(scheme, block, state) {
                Ok(idx) => indexes.push(idx),
                Err(i) => {
                    return Err(ExecError::Inconsistent {
                        detail: format!(
                            "relation {i} violates one of its own key dependencies"
                        ),
                    })
                }
            }
        }
        Ok(CtmMaintainer {
            scheme: scheme.clone(),
            ir: ir.clone(),
            indexes,
            trace: TraceHandle::none(),
        })
    }

    /// Installs a tracer: every subsequent [`insert`](CtmMaintainer::insert)
    /// emits one [`TraceEvent::SelectionPerformed`] per single-tuple
    /// selection Algorithm 5 completed (logged by a
    /// [`SelectionRecorder`] around the block index) and a closing
    /// [`TraceEvent::InsertApplied`].
    #[must_use]
    pub fn with_tracer(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Checks an insertion and, when consistent, applies it. Algorithm 5's
    /// selections are metered against `guard` and its faults run through
    /// `retry`; same decide-metered/apply-atomic contract as
    /// [`IrMaintainer::insert`].
    pub fn insert(
        &mut self,
        scheme_idx: usize,
        t: Tuple,
        guard: &Guard,
        retry: &RetryPolicy,
    ) -> Result<(MaintenanceOutcome, MaintenanceStats), ExecError> {
        let b = self.ir.block_of[scheme_idx];
        let idx = &self.indexes[b];
        let (outcome, stats) = if self.trace.enabled() {
            let recorder = SelectionRecorder::new(idx);
            let verdict = algorithm5(&self.scheme, &recorder, scheme_idx, &t, guard, retry)?;
            for step in recorder.into_steps() {
                self.trace.emit_with(|| TraceEvent::SelectionPerformed {
                    relation: Arc::from(self.scheme.scheme(step.scheme).name()),
                    found: step.result.is_some(),
                });
            }
            self.trace.emit_with(|| TraceEvent::InsertApplied {
                relation: Arc::from(self.scheme.scheme(scheme_idx).name()),
                accepted: verdict.0.is_consistent(),
            });
            verdict
        } else {
            algorithm5(&self.scheme, idx, scheme_idx, &t, guard, retry)?
        };
        if outcome.is_consistent() {
            let pos = self.indexes[b]
                .member_pos(scheme_idx)
                .expect("scheme belongs to its block");
            self.indexes[b]
                .insert(pos, t)
                .expect("Algorithm 5 accepted; local keys cannot collide");
        }
        Ok((outcome, stats))
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recognition::recognize;
    use idr_fd::KeyDeps;
    use idr_relation::{state_of, SchemeBuilder, SymbolTable};

    fn ok() -> (Guard, RetryPolicy) {
        (Guard::unlimited(), RetryPolicy::none())
    }

    /// Example 6: R = {R1(ABE), R2(AC), R3(AD), R4(BC), R5(BD), R6(CDE)},
    /// keys {A, B, E} for R1, singletons elsewhere, CD↔E.
    fn example6() -> DatabaseScheme {
        SchemeBuilder::new("ABCDE")
            .scheme("R1", "ABE", ["A", "B", "E"])
            .scheme("R2", "AC", ["A"])
            .scheme("R3", "AD", ["A"])
            .scheme("R4", "BC", ["B"])
            .scheme("R5", "BD", ["B"])
            .scheme("R6", "CDE", ["CD", "E"])
            .build()
            .unwrap()
    }

    #[test]
    fn example6_algorithm2_rejects() {
        // State: r2 = {<a,c>}, r5 = {<b,d>}, r6 = {<c,d,e>}; inserting
        // <a,b,e'> into r1 is inconsistent (the paper's trace rejects at
        // key CD).
        let db = example6();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        assert_eq!(ir.len(), 1, "Example 6 is key-equivalent");
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R2", &[("A", "a"), ("C", "c")]),
                ("R5", &[("B", "b"), ("D", "d")]),
                ("R6", &[("C", "c"), ("D", "d"), ("E", "e")]),
            ],
        )
        .unwrap();
        let (g, rp) = ok();
        let mut m = IrMaintainer::new(&db, &ir, &state, &g).unwrap();
        let u = db.universe();
        let bad = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("B"), sym.intern("b")),
            (u.attr_of("E"), sym.intern("e'")),
        ]);
        let (outcome, _) = m.insert(0, bad.clone(), &g, &rp).unwrap();
        assert_eq!(outcome, MaintenanceOutcome::Inconsistent);

        // The chase agrees.
        let mut updated = state.clone();
        updated.insert(0, bad).unwrap();
        assert!(!idr_chase::is_consistent(&db, &updated, kd.full(), &g).unwrap());
    }

    #[test]
    fn example6_algorithm2_accepts_consistent_insert() {
        let db = example6();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R2", &[("A", "a"), ("C", "c")]),
                ("R5", &[("B", "b"), ("D", "d")]),
                ("R6", &[("C", "c"), ("D", "d"), ("E", "e")]),
            ],
        )
        .unwrap();
        let (g, rp) = ok();
        let mut m = IrMaintainer::new(&db, &ir, &state, &g).unwrap();
        let u = db.universe();
        let good = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("B"), sym.intern("b")),
            (u.attr_of("E"), sym.intern("e")),
        ]);
        let (outcome, _) = m.insert(0, good.clone(), &g, &rp).unwrap();
        match outcome {
            MaintenanceOutcome::Consistent(q) => {
                // q joins all four tuples: total on ABCDE.
                assert_eq!(q.attrs(), u.set_of("ABCDE"));
            }
            MaintenanceOutcome::Inconsistent => panic!("must accept"),
        }
        // Chase agrees.
        let mut updated = state.clone();
        updated.insert(0, good).unwrap();
        assert!(idr_chase::is_consistent(&db, &updated, kd.full(), &g).unwrap());
    }

    /// Example 10: S = {S1(AB), S2(BC), S3(AC)}, all singleton keys;
    /// split-free, so Algorithm 5 applies.
    #[test]
    fn example10_algorithm5_rejects() {
        let db = SchemeBuilder::new("ABC")
            .scheme("S1", "AB", ["A", "B"])
            .scheme("S2", "BC", ["B", "C"])
            .scheme("S3", "AC", ["A", "C"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("S1", &[("A", "a"), ("B", "b")]),
                ("S2", &[("B", "b"), ("C", "c")]),
            ],
        )
        .unwrap();
        let (g, rp) = ok();
        let mut m = CtmMaintainer::new(&db, &ir, &state, &g).unwrap();
        let u = db.universe();
        // Insert <a, c'> into s3: Algorithm 4 extends a ↦ <a,b,c>, and
        // <a,c'> ⋈ <a,b,c> = ∅ → no.
        let bad = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("C"), sym.intern("c'")),
        ]);
        let (outcome, stats) = m.insert(2, bad.clone(), &g, &rp).unwrap();
        assert_eq!(outcome, MaintenanceOutcome::Inconsistent);
        assert!(stats.lookups > 0);
        // Chase agrees.
        let mut updated = state.clone();
        updated.insert(2, bad).unwrap();
        assert!(!idr_chase::is_consistent(&db, &updated, kd.full(), &g).unwrap());
    }

    #[test]
    fn algorithm5_accepts_and_later_lookups_see_insert() {
        let db = SchemeBuilder::new("ABC")
            .scheme("S1", "AB", ["A", "B"])
            .scheme("S2", "BC", ["B", "C"])
            .scheme("S3", "AC", ["A", "C"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("S1", &[("A", "a"), ("B", "b")])]).unwrap();
        let (g, rp) = ok();
        let mut m = CtmMaintainer::new(&db, &ir, &state, &g).unwrap();
        let u = db.universe();
        let t1 = Tuple::from_pairs([
            (u.attr_of("B"), sym.intern("b")),
            (u.attr_of("C"), sym.intern("c")),
        ]);
        assert!(m.insert(1, t1, &g, &rp).unwrap().0.is_consistent());
        // Now <a, c'> must be rejected (through the fresh S2 tuple).
        let bad = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("C"), sym.intern("c'")),
        ]);
        assert_eq!(
            m.insert(2, bad, &g, &rp).unwrap().0,
            MaintenanceOutcome::Inconsistent
        );
        // And the matching <a, c> accepted.
        let good = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("C"), sym.intern("c")),
        ]);
        assert!(m.insert(2, good, &g, &rp).unwrap().0.is_consistent());
    }

    #[test]
    fn recorder_logs_each_completed_selection_once() {
        use crate::exec::{FaultInjector, FaultKind, FaultPlan};
        let db = SchemeBuilder::new("ABC")
            .scheme("S1", "AB", ["A", "B"])
            .scheme("S2", "BC", ["B", "C"])
            .scheme("S3", "AC", ["A", "C"])
            .build()
            .unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("S1", &[("A", "a"), ("B", "b")]),
                ("S2", &[("B", "b"), ("C", "c")]),
            ],
        )
        .unwrap();
        let idx = StateIndex::build(&db, &[0, 1, 2], &state).unwrap();
        let u = db.universe();
        let t = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("C"), sym.intern("c")),
        ]);
        let (g, rp) = ok();
        let clean = SelectionRecorder::new(&idx);
        let (outcome, stats) = algorithm5(&db, &clean, 2, &t, &g, &rp).unwrap();
        assert!(outcome.is_consistent());
        let steps = clean.into_steps();
        assert_eq!(steps.len(), stats.lookups);
        assert_eq!(steps[0].scheme, 0);
        assert_eq!(steps[0].values, vec![sym.intern("a")]);
        assert!(steps[0].result.is_some());

        // A transient fault on the first selection, retried: the faulted
        // call records nothing, so the log equals the fault-free one.
        let inj = FaultInjector::new(&idx, FaultPlan::nth(1, FaultKind::Transient));
        let flaky = SelectionRecorder::new(&inj);
        let (retried, _) = algorithm5(&db, &flaky, 2, &t, &g, &RetryPolicy::retries(1)).unwrap();
        assert_eq!(retried, outcome);
        assert_eq!(inj.calls() as usize, steps.len() + 1);
        assert_eq!(flaky.into_steps(), steps);
    }

    #[test]
    fn delete_rebuilds_block_rep() {
        let db = SchemeBuilder::new("ABC")
            .scheme("S1", "AB", ["A", "B"])
            .scheme("S2", "BC", ["B", "C"])
            .scheme("S3", "AC", ["A", "C"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("S1", &[("A", "a"), ("B", "b")]),
                ("S2", &[("B", "b"), ("C", "c")]),
            ],
        )
        .unwrap();
        let (g, rp) = ok();
        let mut m = IrMaintainer::new(&db, &ir, &state, &g).unwrap();
        // The two tuples merged to <a, b, c>.
        assert_eq!(m.reps()[0].len(), 1);
        // Delete the S2 tuple: rebuild from a state holding only S1's.
        let reduced = state_of(&db, &mut sym, &[("S1", &[("A", "a"), ("B", "b")])]).unwrap();
        m.delete(1, &reduced, &g).unwrap();
        assert_eq!(m.reps()[0].len(), 1);
        let t = m.reps()[0].iter().next().unwrap();
        assert_eq!(t.attrs(), db.universe().set_of("AB"));
        // A previously inconsistent insert is now acceptable: <a, c'> no
        // longer conflicts once B↛C.
        let u = db.universe();
        let t2 = Tuple::from_pairs([
            (u.attr_of("A"), sym.intern("a")),
            (u.attr_of("C"), sym.intern("c'")),
        ]);
        assert!(m.insert(2, t2, &g, &rp).unwrap().0.is_consistent());
    }

    #[test]
    fn state_index_detects_local_violation() {
        let db = SchemeBuilder::new("AB")
            .scheme("R1", "AB", ["A"])
            .build()
            .unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b1")]),
                ("R1", &[("A", "a"), ("B", "b2")]),
            ],
        )
        .unwrap();
        assert!(matches!(StateIndex::build(&db, &[0], &state), Err(0)));
    }

    #[test]
    fn inconsistent_base_state_names_the_block() {
        let db = SchemeBuilder::new("AB")
            .scheme("R1", "AB", ["A"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(
            &db,
            &mut sym,
            &[
                ("R1", &[("A", "a"), ("B", "b1")]),
                ("R1", &[("A", "a"), ("B", "b2")]),
            ],
        )
        .unwrap();
        let (g, _) = ok();
        match IrMaintainer::new(&db, &ir, &state, &g) {
            Err(ExecError::Inconsistent { detail }) => {
                assert!(detail.contains("block 0"), "detail: {detail}");
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        assert!(!IrMaintainer::state_consistent(&db, &ir, &state, &g).unwrap());
    }

    #[test]
    fn ir_maintainer_routes_to_blocks() {
        // Example 11: inserts into block 2 never touch block 1's rep.
        let db = SchemeBuilder::new("ABCDEFG")
            .scheme("R1", "AB", ["A", "B"])
            .scheme("R2", "BC", ["B", "C"])
            .scheme("R3", "AC", ["A", "C"])
            .scheme("R4", "AD", ["A"])
            .scheme("R5", "DEF", ["D"])
            .scheme("R6", "DEG", ["D"])
            .build()
            .unwrap();
        let kd = KeyDeps::of(&db);
        let ir = recognize(&db, &kd).accepted().unwrap();
        let mut sym = SymbolTable::new();
        let state = state_of(&db, &mut sym, &[("R1", &[("A", "a"), ("B", "b")])]).unwrap();
        let (g, rp) = ok();
        let mut m = IrMaintainer::new(&db, &ir, &state, &g).unwrap();
        let u = db.universe();
        let t = Tuple::from_pairs([
            (u.attr_of("D"), sym.intern("d")),
            (u.attr_of("E"), sym.intern("e")),
            (u.attr_of("F"), sym.intern("f")),
        ]);
        assert!(m.insert(4, t, &g, &rp).unwrap().0.is_consistent());
        assert_eq!(m.reps()[0].len(), 1);
        assert_eq!(m.reps()[1].len(), 1);
    }

}
