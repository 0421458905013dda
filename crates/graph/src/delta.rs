//! Delta-aware connected components for streaming graphs.
//!
//! [`ComponentIndex`] is a one-shot build: union-find over every factor
//! scope, then counting sorts into CSR arenas. Under streaming snapshots
//! that build is repeated per frame over the whole prefix — O(scene)
//! work for an O(Δ) change. [`DeltaComponentIndex`] keeps the union-find
//! *persistent*: variables and factor scopes are appended as frames
//! arrive, each union reports whether two existing components merged (so
//! caches keyed by component roots can migrate), and a **dirty set**
//! accumulates the roots whose membership or factor scopes changed since
//! the last [`take_dirty`](DeltaComponentIndex::take_dirty) drain.
//!
//! Roots play the role [`ComponentId`](crate::ComponentId) plays in the
//! batch index: a stable key for "this connected component" — stable
//! until the component merges into another, which the caller observes
//! via [`UnionOutcome::Merged`] and the dirty set.

use crate::graph::VarId;

/// What a [`union`](DeltaComponentIndex::union) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnionOutcome {
    /// Both variables were already in the same component (rooted here).
    Unchanged(VarId),
    /// Two existing components merged: `absorbed` (with `absorbed_size`
    /// members at merge time) was folded into the component now rooted at
    /// `root`. An `absorbed_size` of 1 is a *growth* (a fresh singleton
    /// joined an existing component); larger is a genuine merge.
    Merged { root: VarId, absorbed: VarId, absorbed_size: usize },
}

impl UnionOutcome {
    /// The root of the resulting component.
    pub fn root(self) -> VarId {
        match self {
            UnionOutcome::Unchanged(r) | UnionOutcome::Merged { root: r, .. } => r,
        }
    }
}

/// Persistent union-find over appended variables and factor scopes, with
/// member lists (small-to-large) and a dirty set of changed roots.
#[derive(Debug, Clone, Default)]
pub struct DeltaComponentIndex {
    parent: Vec<u32>,
    /// Member lists, populated only at roots; absorbed roots are drained.
    members: Vec<Vec<VarId>>,
    /// Dirty flag per variable, meaningful only at roots.
    dirty_flag: Vec<bool>,
    /// Roots pushed when marked dirty. Entries may have been absorbed
    /// since; `take_dirty` canonicalizes and dedups through the flags.
    dirty: Vec<VarId>,
}

impl DeltaComponentIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every variable and component, keeping allocations for reuse
    /// across scenes.
    pub fn clear(&mut self) {
        self.parent.clear();
        self.members.clear();
        self.dirty_flag.clear();
        self.dirty.clear();
    }

    /// Number of variables added so far.
    pub fn var_count(&self) -> usize {
        self.parent.len()
    }

    /// Append one variable as a fresh singleton component and return it.
    /// New singletons are not marked dirty: a component unseen by any
    /// score pass has nothing cached to invalidate.
    pub fn add_var(&mut self) -> VarId {
        let v = VarId(self.parent.len());
        self.parent.push(v.0 as u32);
        self.members.push(vec![v]);
        self.dirty_flag.push(false);
        v
    }

    /// The current root of `v`'s component, with path halving.
    pub fn find(&mut self, v: VarId) -> VarId {
        let mut x = v.0;
        while self.parent[x] as usize != x {
            self.parent[x] = self.parent[self.parent[x] as usize];
            x = self.parent[x] as usize;
        }
        VarId(x)
    }

    /// The members of the component rooted at `root` (unordered). Empty
    /// for non-root variables — pass a [`find`](Self::find) result.
    pub fn members_of_root(&self, root: VarId) -> &[VarId] {
        &self.members[root.0]
    }

    /// Union two components (by member count, smaller list moved into the
    /// larger; ties keep the smaller root id for determinism). Does *not*
    /// touch the dirty set — [`union_scope`](Self::union_scope) layers
    /// that on.
    pub fn union(&mut self, a: VarId, b: VarId) -> UnionOutcome {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return UnionOutcome::Unchanged(ra);
        }
        let (win, lose) = if self.members[ra.0].len() > self.members[rb.0].len()
            || (self.members[ra.0].len() == self.members[rb.0].len() && ra.0 < rb.0)
        {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let absorbed_size = self.members[lose.0].len();
        self.parent[lose.0] = win.0 as u32;
        let moved = std::mem::take(&mut self.members[lose.0]);
        self.members[win.0].extend(moved);
        UnionOutcome::Merged { root: win, absorbed: lose, absorbed_size }
    }

    /// Union every variable of a factor scope and mark the resulting root
    /// dirty — the component's factor set changed even when no membership
    /// did. Returns the outcome of the *last structural change* (or
    /// `Unchanged` if the scope was already one component).
    pub fn union_scope(&mut self, scope: &[VarId]) -> UnionOutcome {
        debug_assert!(!scope.is_empty(), "factor scopes are non-empty");
        let mut outcome = UnionOutcome::Unchanged(self.find(scope[0]));
        for &v in &scope[1..] {
            match self.union(scope[0], v) {
                UnionOutcome::Unchanged(_) => {}
                merged => outcome = merged,
            }
        }
        self.mark_dirty(outcome.root());
        outcome
    }

    /// Mark `v`'s component dirty (cached score must be recomputed).
    pub fn mark_dirty(&mut self, v: VarId) {
        let r = self.find(v);
        if !self.dirty_flag[r.0] {
            self.dirty_flag[r.0] = true;
            self.dirty.push(r);
        }
    }

    /// Drain the dirty set: the current roots of every component whose
    /// membership or factor scopes changed since the last drain, deduped
    /// (a root absorbed after being marked resolves to its absorber).
    pub fn take_dirty(&mut self) -> Vec<VarId> {
        let mut out = Vec::with_capacity(self.dirty.len());
        let pending = std::mem::take(&mut self.dirty);
        for v in pending {
            let r = self.find(v);
            if self.dirty_flag[r.0] {
                self.dirty_flag[r.0] = false;
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::ComponentIndex;
    use crate::graph::FactorGraph;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Same pseudo-random shape the batch index tests use.
    fn scopes(n: usize, extra_edges: usize) -> Vec<Vec<VarId>> {
        (0..extra_edges)
            .filter_map(|e| {
                let a = (e * 7 + 1) % n;
                let b = (e * 13 + 3) % n;
                (a != b).then(|| vec![VarId(a), VarId(b)])
            })
            .collect()
    }

    /// Feed vars + scopes incrementally; compare the resulting partition
    /// against `ComponentIndex::new` over the equivalent batch graph.
    #[test]
    fn partition_matches_batch_index() {
        let (n, extra) = (17, 9);
        let mut delta = DeltaComponentIndex::new();
        for _ in 0..n {
            delta.add_var();
        }
        let mut g: FactorGraph<usize, usize> = FactorGraph::new();
        let vars: Vec<VarId> = (0..n).map(|i| g.add_var(i)).collect();
        for (e, scope) in scopes(n, extra).into_iter().enumerate() {
            delta.union_scope(&scope);
            g.add_factor(e, scope.iter().map(|v| vars[v.0]).collect()).unwrap();
        }
        let batch = ComponentIndex::new(&g);
        for c in batch.ids() {
            let members = batch.vars(c);
            let root = delta.find(members[0]);
            let mut delta_members: Vec<VarId> = delta.members_of_root(root).to_vec();
            delta_members.sort_unstable();
            assert_eq!(delta_members.as_slice(), members);
            for &v in members {
                assert_eq!(delta.find(v), root);
            }
        }
    }

    #[test]
    fn merge_and_growth_reporting() {
        let mut d = DeltaComponentIndex::new();
        let vars: Vec<VarId> = (0..5).map(|_| d.add_var()).collect();
        // Fresh singleton joins a fresh singleton: absorbed_size 1.
        match d.union(vars[0], vars[1]) {
            UnionOutcome::Merged { absorbed_size: 1, .. } => {}
            other => panic!("expected growth, got {other:?}"),
        }
        assert!(matches!(d.union(vars[0], vars[1]), UnionOutcome::Unchanged(_)));
        // Build a second pair, then merge the two pairs: absorbed_size 2.
        d.union(vars[2], vars[3]);
        match d.union(vars[1], vars[3]) {
            UnionOutcome::Merged { absorbed_size: 2, root, .. } => {
                assert_eq!(d.members_of_root(root).len(), 4);
            }
            other => panic!("expected merge of two pairs, got {other:?}"),
        }
        // vars[4] untouched.
        assert_eq!(d.members_of_root(vars[4]).len(), 1);
    }

    #[test]
    fn dirty_set_drains_canonical_roots() {
        let mut d = DeltaComponentIndex::new();
        let vars: Vec<VarId> = (0..6).map(|_| d.add_var()).collect();
        // New singletons are clean.
        assert!(d.take_dirty().is_empty());

        d.union_scope(&[vars[0], vars[1]]);
        d.union_scope(&[vars[2], vars[3]]);
        let dirty: BTreeSet<VarId> = d.take_dirty().into_iter().collect();
        assert_eq!(dirty.len(), 2);
        assert!(dirty.contains(&d.find(vars[0])));
        assert!(dirty.contains(&d.find(vars[2])));
        // Drained: clean until the next change.
        assert!(d.take_dirty().is_empty());

        // Mark both pairs dirty, then merge them before draining: the
        // drain must report the single surviving root, once.
        d.mark_dirty(vars[0]);
        d.mark_dirty(vars[2]);
        d.union_scope(&[vars[1], vars[3]]);
        let dirty = d.take_dirty();
        assert_eq!(dirty, vec![d.find(vars[0])]);
        assert_eq!(d.find(vars[0]), d.find(vars[3]));

        // A factor over an already-joined scope still dirties (the
        // component's factor set changed even though membership did not).
        d.union_scope(&[vars[0], vars[3]]);
        assert_eq!(d.take_dirty().len(), 1);
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut d = DeltaComponentIndex::new();
        let a = d.add_var();
        let b = d.add_var();
        d.union_scope(&[a, b]);
        d.clear();
        assert_eq!(d.var_count(), 0);
        assert!(d.take_dirty().is_empty());
        let a2 = d.add_var();
        assert_eq!(d.members_of_root(a2).len(), 1);
    }

    /// Incremental feeding matches the batch partition, and dirty roots
    /// exactly cover the touched scopes. Body kept out of the `proptest!`
    /// macro (expansion depth).
    fn check_incremental_matches_batch(n: usize, extra_edges: usize) {
        let mut delta = DeltaComponentIndex::new();
        for _ in 0..n {
            delta.add_var();
        }
        let mut g: FactorGraph<usize, usize> = FactorGraph::new();
        let vars: Vec<VarId> = (0..n).map(|i| g.add_var(i)).collect();
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for (e, scope) in scopes(n, extra_edges).into_iter().enumerate() {
            delta.union_scope(&scope);
            touched.extend(scope.iter().map(|v| v.0));
            g.add_factor(e, scope.iter().map(|v| vars[v.0]).collect()).unwrap();
        }
        let batch = ComponentIndex::new(&g);
        let mut total = 0usize;
        for c in batch.ids() {
            let members = batch.vars(c);
            let root = delta.find(members[0]);
            assert_eq!(delta.members_of_root(root).len(), members.len());
            total += members.len();
        }
        assert_eq!(total, n);
        // Every dirty root is the root of a touched variable.
        let dirty = delta.take_dirty();
        let touched_roots: BTreeSet<VarId> =
            touched.iter().map(|&v| delta.find(VarId(v))).collect();
        for r in dirty {
            assert!(touched_roots.contains(&r));
        }
    }

    proptest! {
        #[test]
        fn prop_incremental_matches_batch(
            n in 1usize..24, extra_edges in 0usize..14,
        ) {
            check_incremental_matches_batch(n, extra_edges);
        }
    }
}
