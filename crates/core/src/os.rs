//! The Object Summary tree, stored as a flat CSR arena.
//!
//! One contiguous node slab in BFS order (parents always precede children)
//! plus compressed child ranges: node `i`'s children occupy
//! `child_ids[child_start[i] .. child_end[i]]`, so [`Os::children`] is a
//! slice borrow and building a node costs **zero per-node allocations** —
//! the previous layout kept a `children: Vec<OsNodeId>` inside every node,
//! which dominated `generate_os` wall-clock on the 1000+-tuple OSs of
//! Figure 10e (ROADMAP hot path). Node weights are local importances
//! `Im(OS, t_i)`; the tree shape is what the size-l algorithms operate on.
//!
//! Two construction paths maintain the CSR:
//!
//! * **Grouped append** ([`Os::add_child`]) — all children of a node are
//!   appended consecutively, which BFS generation does naturally (Algorithm
//!   4/5 expand one OS node completely before moving on). Each append is
//!   `O(1)` amortized and the per-node ranges stay contiguous.
//! * **Batch rebuild** (`from_nodes`, used by [`Os::synthetic`] and
//!   [`Os::project`]) — a counting sort over parent links builds the CSR in
//!   `O(n)` for arbitrary parent-before-child insertion orders, with
//!   children listed in ascending id order (exactly the order the legacy
//!   per-node `Vec` layout produced).
//!
//! [`OsArenaPool`] recycles arenas plus the BFS scratch between
//! generations, so the steady state of a serving loop runs allocation-free
//! (asserted by the counting-allocator guard in `tests/alloc_guard.rs`).

use std::collections::{HashSet, VecDeque};

use sizel_graph::GdsNodeId;
use sizel_storage::{RowId, TableId, TupleRef};

/// Identifies a node within one OS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OsNodeId(pub u32);

impl OsNodeId {
    /// The node index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One tuple occurrence in an OS. The same database tuple can appear in
/// several nodes (a co-author under each shared paper) — the OS is a tree,
/// per the paper's treealization. Child links live in the arena's CSR
/// ([`Os::children`]), not in the node.
#[derive(Clone, Copy, Debug)]
pub struct OsNode {
    /// The database tuple.
    pub tuple: TupleRef,
    /// The GDS node this occurrence instantiates.
    pub gds_node: GdsNodeId,
    /// Parent node (`None` for the root `t_DS`).
    pub parent: Option<OsNodeId>,
    /// Depth (root = 0).
    pub depth: u32,
    /// Local importance `Im(OS, t_i)`.
    pub weight: f64,
}

/// An Object Summary: a rooted tree of weighted tuple nodes in a flat CSR
/// arena (see module docs).
#[derive(Clone, Debug, Default)]
pub struct Os {
    nodes: Vec<OsNode>,
    /// Flat child-id storage; node `i` owns `child_ids[child_start[i] ..
    /// child_end[i]]`, ids ascending within each range.
    child_ids: Vec<OsNodeId>,
    child_start: Vec<u32>,
    child_end: Vec<u32>,
}

impl Os {
    /// An empty OS (no root yet).
    pub fn new() -> Self {
        Os::default()
    }

    /// An OS with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Os {
            nodes: Vec::with_capacity(cap),
            child_ids: Vec::with_capacity(cap.saturating_sub(1)),
            child_start: Vec::with_capacity(cap),
            child_end: Vec::with_capacity(cap),
        }
    }

    /// Empties the arena, keeping every buffer's capacity (pool reuse).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.child_ids.clear();
        self.child_start.clear();
        self.child_end.clear();
    }

    fn push_node(&mut self, node: OsNode) {
        self.nodes.push(node);
        // A fresh node has an empty child range; its position is fixed
        // lazily when (if) the first child arrives.
        self.child_start.push(0);
        self.child_end.push(0);
    }

    /// Adds the root node; must be the first insertion.
    pub fn add_root(&mut self, tuple: TupleRef, gds_node: GdsNodeId, weight: f64) -> OsNodeId {
        assert!(self.nodes.is_empty(), "root must be the first node");
        self.push_node(OsNode { tuple, gds_node, parent: None, depth: 0, weight });
        OsNodeId(0)
    }

    /// Adds a child of `parent`; returns the new node's id.
    ///
    /// Children of a node must be appended *consecutively* (no other
    /// node's child in between) so the CSR range stays contiguous — the
    /// natural order of a BFS that fully expands one node before the next.
    /// Panics otherwise; build via [`Os::synthetic`] (which batch-rebuilds
    /// the CSR) when the insertion order is arbitrary.
    pub fn add_child(
        &mut self,
        parent: OsNodeId,
        tuple: TupleRef,
        gds_node: GdsNodeId,
        weight: f64,
    ) -> OsNodeId {
        let id = OsNodeId(self.nodes.len() as u32);
        let depth = self.nodes[parent.index()].depth + 1;
        let p = parent.index();
        let tail = self.child_ids.len() as u32;
        if self.child_start[p] == self.child_end[p] {
            // Opening the parent's range: it starts at the current tail.
            self.child_start[p] = tail;
            self.child_end[p] = tail;
        }
        assert!(
            self.child_end[p] == tail,
            "children of a node must be appended consecutively (CSR grouping); \
             another node's child was added since — build with Os::synthetic instead"
        );
        self.child_ids.push(id);
        self.child_end[p] = tail + 1;
        self.push_node(OsNode { tuple, gds_node, parent: Some(parent), depth, weight });
        id
    }

    /// Builds the arena from nodes in any parent-before-child order,
    /// reconstructing the CSR with a counting sort: children of each node
    /// in ascending id order, `O(n)`.
    fn from_nodes(nodes: Vec<OsNode>) -> Os {
        let n = nodes.len();
        let mut child_start = vec![0u32; n];
        let mut child_end = vec![0u32; n];
        // Count children per node, prefix-sum into ranges.
        for node in &nodes {
            if let Some(p) = node.parent {
                child_end[p.index()] += 1;
            }
        }
        let mut running = 0u32;
        for i in 0..n {
            child_start[i] = running;
            running += child_end[i];
            child_end[i] = child_start[i];
        }
        let mut child_ids = vec![OsNodeId(0); n.saturating_sub(1)];
        for (i, node) in nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                assert!(p.index() < i, "parents must precede children");
                let slot = child_end[p.index()];
                child_ids[slot as usize] = OsNodeId(i as u32);
                child_end[p.index()] = slot + 1;
            }
        }
        Os { nodes, child_ids, child_start, child_end }
    }

    /// The root id (panics on an empty OS).
    pub fn root(&self) -> OsNodeId {
        assert!(!self.nodes.is_empty(), "empty OS has no root");
        OsNodeId(0)
    }

    /// Number of nodes (the paper's |OS|).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the OS has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    pub fn node(&self, id: OsNodeId) -> &OsNode {
        &self.nodes[id.index()]
    }

    /// Mutable node access (used by the evaluator panel to perturb weights).
    pub fn node_mut(&mut self, id: OsNodeId) -> &mut OsNode {
        &mut self.nodes[id.index()]
    }

    /// The children of a node, as a borrowed slice of the CSR arena
    /// (ascending id order — the insertion order of every builder).
    pub fn children(&self, id: OsNodeId) -> &[OsNodeId] {
        let i = id.index();
        &self.child_ids[self.child_start[i] as usize..self.child_end[i] as usize]
    }

    /// Number of children of a node.
    pub fn child_count(&self, id: OsNodeId) -> usize {
        let i = id.index();
        (self.child_end[i] - self.child_start[i]) as usize
    }

    /// Iterates `(OsNodeId, &OsNode)` in BFS order.
    pub fn iter(&self) -> impl Iterator<Item = (OsNodeId, &OsNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (OsNodeId(i as u32), n))
    }

    /// Sum of all node weights (`Im` of the complete OS).
    pub fn total_weight(&self) -> f64 {
        self.nodes.iter().map(|n| n.weight).sum()
    }

    /// Sum of weights over a node set.
    pub fn weight_of(&self, selected: &[OsNodeId]) -> f64 {
        selected.iter().map(|&id| self.nodes[id.index()].weight).sum()
    }

    /// Maximum node depth.
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Ids of current leaves.
    pub fn leaves(&self) -> Vec<OsNodeId> {
        self.iter().filter(|(id, _)| self.child_count(*id) == 0).map(|(id, _)| id).collect()
    }

    /// Projects a node subset into a standalone OS (used to materialize a
    /// size-l OS for rendering). The subset must be connected and contain
    /// the root — exactly Definition 1; panics otherwise.
    pub fn project(&self, selected: &[OsNodeId]) -> Os {
        let sel: HashSet<OsNodeId> = selected.iter().copied().collect();
        assert!(sel.contains(&self.root()), "a size-l OS must contain t_DS (Definition 1)");
        let mut map = vec![u32::MAX; self.nodes.len()];
        let mut out: Vec<OsNode> = Vec::with_capacity(sel.len());
        // BFS order of the original arena preserves parent-before-child.
        for (id, n) in self.iter() {
            if !sel.contains(&id) {
                continue;
            }
            let new = out.len() as u32;
            match n.parent {
                None => {
                    out.push(OsNode { parent: None, depth: 0, ..*n });
                }
                Some(p) => {
                    assert!(
                        map[p.index()] != u32::MAX,
                        "selected set must be connected through the root (Definition 1)"
                    );
                    let parent = OsNodeId(map[p.index()]);
                    let depth = out[parent.index()].depth + 1;
                    out.push(OsNode { parent: Some(parent), depth, ..*n });
                }
            }
            map[id.index()] = new;
        }
        Os::from_nodes(out)
    }

    /// Checks Definition 1 for a candidate selection: contains the root and
    /// is connected (every selected node's parent is selected).
    pub fn is_valid_selection(&self, selected: &[OsNodeId]) -> bool {
        let sel: HashSet<OsNodeId> = selected.iter().copied().collect();
        if sel.len() != selected.len() {
            return false; // duplicates
        }
        if !selected.is_empty() && !sel.contains(&self.root()) {
            return false;
        }
        selected.iter().all(|&id| match self.nodes[id.index()].parent {
            None => true,
            Some(p) => sel.contains(&p),
        })
    }

    /// Builds a synthetic OS from parent links and weights (test fixtures:
    /// the worked examples of Figures 4, 5 and 6 are transcribed with this;
    /// property tests feed it random trees). `parents[0]` must be `None`
    /// and `parents[i] < i` for all others — the insertion order may be
    /// arbitrary beyond that; the CSR is batch-rebuilt.
    pub fn synthetic(parents: &[Option<usize>], weights: &[f64]) -> Os {
        assert_eq!(parents.len(), weights.len());
        assert!(!parents.is_empty() && parents[0].is_none());
        let mut nodes: Vec<OsNode> = Vec::with_capacity(parents.len());
        nodes.push(OsNode {
            tuple: dummy_tuple(0),
            gds_node: GdsNodeId(0),
            parent: None,
            depth: 0,
            weight: weights[0],
        });
        for i in 1..parents.len() {
            let p = parents[i].expect("non-root needs a parent");
            assert!(p < i, "parents must precede children");
            nodes.push(OsNode {
                tuple: dummy_tuple(i),
                gds_node: GdsNodeId(0),
                parent: Some(OsNodeId(p as u32)),
                depth: nodes[p].depth + 1,
                weight: weights[i],
            });
        }
        Os::from_nodes(nodes)
    }

    /// Internal consistency check used by property tests: parent/child
    /// links mirror each other, depths are consistent, and the CSR is a
    /// partition — every non-root appears in exactly one child range, in
    /// ascending order within its range.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len();
        if self.child_start.len() != n || self.child_end.len() != n {
            return Err("CSR range arrays out of sync with the node slab".into());
        }
        if self.child_ids.len() != n.saturating_sub(1) {
            return Err(format!(
                "child_ids holds {} entries for {} nodes (want n - 1)",
                self.child_ids.len(),
                n
            ));
        }
        let mut seen_as_child = vec![false; n];
        for (id, node) in self.iter() {
            let i = id.index();
            if (self.child_end[i] as usize) > self.child_ids.len()
                || self.child_start[i] > self.child_end[i]
            {
                return Err(format!("bad child range at {id:?}"));
            }
            if let Some(p) = node.parent {
                if p >= id {
                    return Err(format!("parent {p:?} does not precede child {id:?}"));
                }
                if !self.children(p).contains(&id) {
                    return Err(format!("child link missing for {id:?}"));
                }
                if node.depth != self.nodes[p.index()].depth + 1 {
                    return Err(format!("bad depth at {id:?}"));
                }
            } else if id.0 != 0 {
                return Err(format!("non-root {id:?} without parent"));
            }
            let children = self.children(id);
            for w in children.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("children of {id:?} not in ascending order"));
                }
            }
            for &c in children {
                if c.index() >= n {
                    return Err(format!("child {c:?} out of bounds under {id:?}"));
                }
                if seen_as_child[c.index()] {
                    return Err(format!("{c:?} appears in two child ranges"));
                }
                seen_as_child[c.index()] = true;
                if self.nodes[c.index()].parent != Some(id) {
                    return Err(format!("parent link missing for {c:?}"));
                }
            }
        }
        if let Some(orphan) = (1..n).find(|&i| !seen_as_child[i]) {
            return Err(format!("node {orphan} is in no child range"));
        }
        Ok(())
    }
}

/// A recycling pool for OS arenas and the BFS scratch of OS generation.
///
/// `generate_os`'s steady state — the serving loop re-materializing
/// summaries over a warm engine — must not touch the allocator: arenas are
/// [`Os::clear`]ed (capacity kept) on release, and the BFS queue / tuple
/// fetch buffer are reused across generations. One pool per thread (the
/// engine keeps one in thread-local storage); the pool is cheap enough to
/// create ad hoc for one-shot callers.
#[derive(Debug, Default)]
pub struct OsArenaPool {
    arenas: Vec<Os>,
    /// BFS frontier scratch for `generate_os` / `generate_prelim`.
    pub(crate) queue: VecDeque<OsNodeId>,
    /// Tuple-fetch scratch for `OsContext::children_of`.
    pub(crate) buf: Vec<TupleRef>,
    /// TOP-l probe scratch for `OsContext::children_of_top_l`.
    pub(crate) fetch: FetchScratch,
}

/// Working memory for the Avoidance-Condition-2 TOP-l fetch paths
/// (`OsContext::children_of_top_l`): the bounded selection heap, the
/// boundary-tie staging run, and the unfiltered fetch buffer, all
/// recycled across probes so a warm prelim generation never touches the
/// allocator (pinned by `tests/alloc_guard.rs`). Pooled inside
/// [`OsArenaPool`]; one-shot callers can default-construct it.
#[derive(Debug, Default)]
pub struct FetchScratch {
    /// The selected rows of one probe: every probe form selects rows of
    /// the child GDS node's one relation.
    pub(crate) rows: Vec<RowId>,
    /// The one selection scratch (FK, junction and graph-mode probes).
    pub(crate) topl: sizel_storage::TopLScratch<RowId>,
    /// Unfiltered children fetched before the TOP-l cut (graph mode).
    pub(crate) all: Vec<TupleRef>,
}

impl OsArenaPool {
    /// An empty pool.
    pub fn new() -> Self {
        OsArenaPool::default()
    }

    /// Takes an empty arena out of the pool (warm capacity when one was
    /// released before; freshly allocated otherwise).
    pub fn acquire(&mut self) -> Os {
        // A fresh arena pre-sizes for a typical small OS so one-shot
        // callers don't pay the doubling ladder; released arenas keep
        // whatever high-water capacity they grew to.
        self.acquire_with_capacity(64)
    }

    /// [`OsArenaPool::acquire`] with a capacity hint for the *cold* case:
    /// a freshly allocated arena pre-sizes to `cap` nodes (floor 64), so
    /// one-shot callers with a known workload — `generate_prelim`'s `4·l`
    /// sizing — skip the doubling ladder. Parked arenas are returned
    /// as-is (they already carry their high-water capacity), so the warm
    /// steady state is untouched.
    pub fn acquire_with_capacity(&mut self, cap: usize) -> Os {
        self.arenas.pop().unwrap_or_else(|| Os::with_capacity(cap.max(64)))
    }

    /// Returns an arena to the pool for reuse, keeping its capacity.
    pub fn release(&mut self, mut os: Os) {
        os.clear();
        self.arenas.push(os);
    }

    /// Number of arenas currently parked in the pool.
    pub fn parked(&self) -> usize {
        self.arenas.len()
    }
}

fn dummy_tuple(i: usize) -> TupleRef {
    TupleRef::new(TableId(0), RowId(i as u32))
}

/// The paper's Figure 4 example tree (the DP walk-through; 14 nodes).
/// Node ids here are zero-based: paper node k = id k-1. Structure derived
/// from the printed DP table: 3's children are {7,8,9}, 4's are {10,11},
/// 6's is {12}, 13 hangs under 11 and 14 under 12.
pub fn figure4_tree() -> Os {
    // paper:    1   2   3   4   5   6   7   8   9  10  11  12  13  14
    // weight:  30  20  11  31  80  35  10  15   5  13  30  12  60  40
    // parent:   -   1   1   1   1   1   3   3   3   4   4   6  11  12
    Os::synthetic(
        &[
            None,
            Some(0),
            Some(0),
            Some(0),
            Some(0),
            Some(0),
            Some(2),
            Some(2),
            Some(2),
            Some(3),
            Some(3),
            Some(5),
            Some(10),
            Some(11),
        ],
        &[30.0, 20.0, 11.0, 31.0, 80.0, 35.0, 10.0, 15.0, 5.0, 13.0, 30.0, 12.0, 60.0, 40.0],
    )
}

/// The paper's Figures 5/6 example tree (the greedy walk-throughs; same 14
/// node ids but a different shape: 2's children are {7,8}, 3's is {9}, 4's
/// is {10}, 11 hangs under 5). Node 12's weight differs between the two
/// figures (55 in Figure 5, 12 in Figure 6), so it is a parameter.
pub fn figure56_tree(w12: f64) -> Os {
    // paper:    1   2   3   4   5   6   7   8   9  10  11  12   13  14
    // weight:  30  20  11  31  80  35  10  15   5  13  30  w12  60  40
    // parent:   -   1   1   1   1   1   2   2   3   4   5   6   11  12
    Os::synthetic(
        &[
            None,
            Some(0),
            Some(0),
            Some(0),
            Some(0),
            Some(0),
            Some(1),
            Some(1),
            Some(2),
            Some(3),
            Some(4),
            Some(5),
            Some(10),
            Some(11),
        ],
        &[30.0, 20.0, 11.0, 31.0, 80.0, 35.0, 10.0, 15.0, 5.0, 13.0, 30.0, w12, 60.0, 40.0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate() {
        let os = figure4_tree();
        assert_eq!(os.len(), 14);
        os.validate().unwrap();
        assert_eq!(os.node(OsNodeId(0)).depth, 0);
        assert_eq!(os.node(OsNodeId(12)).depth, 3); // paper node 13
        assert_eq!(os.max_depth(), 3);
    }

    #[test]
    fn children_are_borrowed_slices() {
        let os = figure4_tree();
        // Paper node 1's children are nodes 2..6 (ids 1..=5).
        let expect: Vec<OsNodeId> = (1u32..=5).map(OsNodeId).collect();
        assert_eq!(os.children(OsNodeId(0)), expect.as_slice());
        assert_eq!(os.child_count(OsNodeId(0)), 5);
        // Paper node 6 (id 5) has one child: node 12 (id 11).
        assert_eq!(os.children(OsNodeId(5)), &[OsNodeId(11)]);
        // Leaves have empty slices.
        assert!(os.children(OsNodeId(13)).is_empty());
    }

    #[test]
    fn incremental_and_batch_builders_agree() {
        // The same tree built by grouped add_child and by synthetic must
        // have identical CSR contents.
        let mut inc = Os::with_capacity(6);
        let r = inc.add_root(dummy_tuple(0), GdsNodeId(0), 1.0);
        let a = inc.add_child(r, dummy_tuple(1), GdsNodeId(0), 2.0);
        let b = inc.add_child(r, dummy_tuple(2), GdsNodeId(0), 3.0);
        inc.add_child(a, dummy_tuple(3), GdsNodeId(0), 4.0);
        inc.add_child(a, dummy_tuple(4), GdsNodeId(0), 5.0);
        inc.add_child(b, dummy_tuple(5), GdsNodeId(0), 6.0);
        inc.validate().unwrap();
        let batch = Os::synthetic(
            &[None, Some(0), Some(0), Some(1), Some(1), Some(2)],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        batch.validate().unwrap();
        for i in 0..inc.len() {
            let id = OsNodeId(i as u32);
            assert_eq!(inc.children(id), batch.children(id));
            assert_eq!(inc.node(id).parent, batch.node(id).parent);
            assert_eq!(inc.node(id).depth, batch.node(id).depth);
        }
    }

    #[test]
    #[should_panic(expected = "appended consecutively")]
    fn interleaved_children_are_rejected() {
        let mut os = Os::new();
        let r = os.add_root(dummy_tuple(0), GdsNodeId(0), 1.0);
        let a = os.add_child(r, dummy_tuple(1), GdsNodeId(0), 2.0);
        let _b = os.add_child(r, dummy_tuple(2), GdsNodeId(0), 3.0);
        let _ = os.add_child(a, dummy_tuple(3), GdsNodeId(0), 4.0);
        // Reopening the root's range after a's children started: invalid.
        let _ = os.add_child(r, dummy_tuple(4), GdsNodeId(0), 5.0);
    }

    #[test]
    fn pool_recycles_capacity() {
        let mut pool = OsArenaPool::new();
        let mut os = pool.acquire();
        let r = os.add_root(dummy_tuple(0), GdsNodeId(0), 1.0);
        for i in 1..100 {
            os.add_child(r, dummy_tuple(i), GdsNodeId(0), i as f64);
        }
        let cap = os.nodes.capacity();
        assert!(cap >= 100);
        pool.release(os);
        assert_eq!(pool.parked(), 1);
        let os = pool.acquire();
        assert!(os.is_empty());
        assert_eq!(os.nodes.capacity(), cap, "released capacity is reused");
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn total_weight_and_subset_weight() {
        let os = figure4_tree();
        assert!((os.total_weight() - 392.0).abs() < 1e-12);
        // Optimal size-4 set from the paper: nodes 1,4,5,6 = ids 0,3,4,5.
        let sel = [OsNodeId(0), OsNodeId(3), OsNodeId(4), OsNodeId(5)];
        assert!((os.weight_of(&sel) - 176.0).abs() < 1e-12);
    }

    #[test]
    fn selection_validity() {
        let os = figure4_tree();
        assert!(os.is_valid_selection(&[OsNodeId(0), OsNodeId(3), OsNodeId(4)]));
        // Disconnected: node 13 (paper 14) without its ancestors.
        assert!(!os.is_valid_selection(&[OsNodeId(0), OsNodeId(13)]));
        // Missing root.
        assert!(!os.is_valid_selection(&[OsNodeId(3), OsNodeId(4)]));
        // Duplicates.
        assert!(!os.is_valid_selection(&[OsNodeId(0), OsNodeId(0)]));
    }

    #[test]
    fn project_preserves_structure_and_weights() {
        let os = figure4_tree();
        let sel = [OsNodeId(0), OsNodeId(4), OsNodeId(5), OsNodeId(11)];
        let sub = os.project(&sel);
        sub.validate().unwrap();
        assert_eq!(sub.len(), 4);
        assert!((sub.total_weight() - os.weight_of(&sel)).abs() < 1e-12);
        // Node 11 (paper 12) hangs under node 5 (paper 6) in the projection.
        let n = sub
            .iter()
            .find(|(_, n)| n.tuple == os.node(OsNodeId(11)).tuple)
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(sub.node(n).depth, 2);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn project_rejects_disconnected() {
        let os = figure4_tree();
        os.project(&[OsNodeId(0), OsNodeId(13)]);
    }

    #[test]
    fn leaves_of_figure4() {
        let os = figure4_tree();
        let leaves = os.leaves();
        // Paper leaves: 2, 5, 7, 8, 9, 10, 13, 14 -> ids 1,4,6,7,8,9,12,13.
        let expect: Vec<OsNodeId> =
            [1u32, 4, 6, 7, 8, 9, 12, 13].iter().map(|&i| OsNodeId(i)).collect();
        assert_eq!(leaves, expect);
    }

    #[test]
    fn synthetic_accepts_non_grouped_parent_order() {
        // Children of node 0 are ids {1, 3} — not contiguous; the batch
        // builder must still produce a coherent CSR.
        let os = Os::synthetic(&[None, Some(0), Some(1), Some(0)], &[1.0, 2.0, 3.0, 4.0]);
        os.validate().unwrap();
        assert_eq!(os.children(OsNodeId(0)), &[OsNodeId(1), OsNodeId(3)]);
        assert_eq!(os.children(OsNodeId(1)), &[OsNodeId(2)]);
        assert!(os.children(OsNodeId(2)).is_empty());
    }
}
