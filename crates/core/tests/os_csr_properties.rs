//! Property suite for the flat CSR Object-Summary arena: the CSR layout
//! must be observationally identical to the legacy per-node `children:
//! Vec<OsNodeId>` layout it replaced, and the BFS (grouped-append) builder
//! must additionally keep every child range contiguous.

use std::collections::VecDeque;

use proptest::prelude::*;

use sizel_core::os::{Os, OsNode, OsNodeId, PackedNode};
use sizel_graph::GdsNodeId;
use sizel_storage::{RowId, TableId, TupleRef};

/// The legacy layout, reconstructed: per-node child lists in insertion
/// order (children were pushed as they were created, i.e. ascending id).
fn legacy_child_lists(parents: &[Option<usize>]) -> Vec<Vec<OsNodeId>> {
    let mut lists: Vec<Vec<OsNodeId>> = vec![Vec::new(); parents.len()];
    for (i, p) in parents.iter().enumerate() {
        if let Some(p) = p {
            lists[*p].push(OsNodeId(i as u32));
        }
    }
    lists
}

// A cached summary costs 24 bytes a node.
const _: () = assert!(std::mem::size_of::<PackedNode>() == 24);

/// Turns a raw byte soup into a valid parent array (`parents[i] < i`).
fn parents_from_raw(raw: &[u32]) -> Vec<Option<usize>> {
    let mut parents = vec![None];
    for (i, &r) in raw.iter().enumerate() {
        parents.push(Some((r as usize) % (i + 1)));
    }
    parents
}

/// Builds the same tree through the *grouped append* path a BFS generator
/// uses: nodes are created level by level, all children of a node
/// consecutively. `counts[k]` is the child count of the k-th dequeued
/// node. Returns the arena and the parent array in creation order.
fn bfs_grouped(counts: &[usize]) -> (Os, Vec<Option<usize>>, Vec<f64>) {
    let mut os = Os::new();
    let mut parents: Vec<Option<usize>> = vec![None];
    let mut weights = vec![0.5];
    os.add_root(TupleRef::new(TableId(0), RowId(0)), GdsNodeId(0), 0.5);
    let mut queue = VecDeque::from([OsNodeId(0)]);
    let mut next_count = 0usize;
    while let Some(u) = queue.pop_front() {
        let k = counts.get(next_count).copied().unwrap_or(0);
        next_count += 1;
        for _ in 0..k {
            let i = parents.len();
            let w = (i % 17) as f64 + 0.25;
            let id = os.add_child(u, TupleRef::new(TableId(0), RowId(i as u32)), GdsNodeId(0), w);
            assert_eq!(id.index(), i);
            parents.push(Some(u.index()));
            weights.push(w);
            queue.push_back(id);
        }
    }
    (os, parents, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch builder (`Os::synthetic`) vs the legacy child-list layout:
    /// same children per node, same order, for arbitrary
    /// parent-before-child insertion orders; BFS-order and linkage
    /// invariants hold (`validate`).
    #[test]
    fn csr_children_equal_legacy_child_lists(
        raw in proptest::collection::vec(0u32..1_000_000, 0..80),
    ) {
        let parents = parents_from_raw(&raw);
        let weights: Vec<f64> = (0..parents.len()).map(|i| i as f64).collect();
        let os = Os::synthetic(&parents, &weights);
        prop_assert!(os.validate().is_ok(), "{:?}", os.validate());
        let legacy = legacy_child_lists(&parents);
        for (i, legacy_children) in legacy.iter().enumerate() {
            let id = OsNodeId(i as u32);
            prop_assert_eq!(os.children(id), legacy_children.as_slice(), "children of {}", i);
            prop_assert_eq!(os.child_count(id), legacy_children.len());
            // Parents always precede children (BFS-order invariant).
            for &c in os.children(id) {
                prop_assert!(c > id);
                prop_assert_eq!(os.node(c).parent, Some(id));
                prop_assert_eq!(os.node(c).depth, os.node(id).depth + 1);
            }
        }
        // Leaves are exactly the nodes with no legacy children.
        let leaves: Vec<OsNodeId> = (0..parents.len())
            .filter(|&i| legacy[i].is_empty())
            .map(|i| OsNodeId(i as u32))
            .collect();
        prop_assert_eq!(os.leaves(), leaves);
    }

    /// Grouped-append builder vs batch builder on the same tree: identical
    /// CSR contents, and — the layout win — every child range is a run of
    /// *consecutive* ids (children are appended together during BFS).
    #[test]
    fn bfs_grouped_ranges_are_contiguous_and_match_batch(
        counts in proptest::collection::vec(0usize..5, 1..60),
    ) {
        let (inc, parents, weights) = bfs_grouped(&counts);
        prop_assert!(inc.validate().is_ok(), "{:?}", inc.validate());
        let batch = Os::synthetic(&parents, &weights);
        prop_assert_eq!(inc.len(), batch.len());
        for i in 0..inc.len() {
            let id = OsNodeId(i as u32);
            prop_assert_eq!(inc.children(id), batch.children(id), "children of {}", i);
            prop_assert_eq!(inc.node(id).parent, batch.node(id).parent);
            prop_assert_eq!(inc.node(id).depth, batch.node(id).depth);
            prop_assert_eq!(inc.node(id).weight, batch.node(id).weight);
            // Contiguity: children of a BFS-built node are consecutive ids.
            for w in inc.children(id).windows(2) {
                prop_assert_eq!(w[1].0, w[0].0 + 1, "range of {} not contiguous", i);
            }
        }
    }

    /// Projection preserves the legacy semantics in the packed form: the
    /// projected tree's nodes are the selected originals in original BFS
    /// order, relabeled densely, each with its tuple, GDS node, weight
    /// bits, remapped parent and depth, and with the `Os::synthetic`
    /// rebuild's kept children.
    #[test]
    fn project_matches_legacy_filtering(
        raw in proptest::collection::vec(0u32..1_000_000, 0..50),
        keep_bits in proptest::collection::vec(proptest::prelude::any::<bool>(), 0..50),
    ) {
        let parents = parents_from_raw(&raw);
        let n = parents.len();
        let weights: Vec<f64> = (0..n).map(|i| (i * 3 % 13) as f64 + 0.1 * i as f64).collect();
        let os = Os::synthetic(&parents, &weights);
        // Build a connected, root-containing selection: keep the root and
        // any node whose parent is kept and whose keep bit is set.
        let mut kept = vec![false; n];
        kept[0] = true;
        for i in 1..n {
            let bit = keep_bits.get(i - 1).copied().unwrap_or(false);
            kept[i] = bit && kept[parents[i].unwrap()];
        }
        let selected: Vec<OsNodeId> =
            (0..n).filter(|&i| kept[i]).map(|i| OsNodeId(i as u32)).collect();
        let sub = os.project(&selected);
        prop_assert!(sub.validate().is_ok(), "{:?}", sub.validate());
        prop_assert_eq!(sub.len(), selected.len());
        prop_assert_eq!(sub.root(), OsNodeId(0));
        // Old-id -> new-id map follows the original BFS order.
        let mut new_of = vec![usize::MAX; n];
        for (new, old) in selected.iter().enumerate() {
            new_of[old.index()] = new;
        }
        for (new, old) in selected.iter().enumerate() {
            let id = OsNodeId(new as u32);
            let (got, want) = (sub.node(id), os.node(*old));
            prop_assert_eq!(got.tuple, want.tuple);
            prop_assert_eq!(got.gds_node, want.gds_node);
            prop_assert_eq!(got.weight.to_bits(), want.weight.to_bits());
            let parent = want.parent.map(|p| OsNodeId(new_of[p.index()] as u32));
            prop_assert_eq!(got.parent, parent);
            match got.parent {
                None => prop_assert_eq!(got.depth, 0),
                Some(p) => prop_assert_eq!(got.depth, sub.node(p).depth + 1),
            }
            prop_assert_eq!(got.depth, want.depth);
            // Children of the projection = kept children of the original,
            // relabeled, same relative order.
            let expect: Vec<OsNodeId> = os
                .children(*old)
                .iter()
                .filter(|c| kept[c.index()])
                .map(|c| OsNodeId(new_of[c.index()] as u32))
                .collect();
            prop_assert_eq!(sub.children(id).collect::<Vec<_>>(), expect);
        }
        // The packed form rebuilds the arena the selection describes.
        let rebuilt = sub.to_os();
        prop_assert!(rebuilt.validate().is_ok(), "{:?}", rebuilt.validate());
        for (id, node) in sub.iter() {
            prop_assert_eq!(rebuilt.node(id).parent, node.parent);
            prop_assert_eq!(rebuilt.children(id).to_vec(), sub.children(id).collect::<Vec<_>>());
        }
    }

    /// `weight_of` / `total_weight` / `is_valid_selection` behave like the
    /// straightforward list implementations.
    #[test]
    fn aggregate_queries_match_naive(
        raw in proptest::collection::vec(0u32..1_000_000, 0..40),
        pick in proptest::collection::vec(proptest::prelude::any::<bool>(), 0..41),
    ) {
        let parents = parents_from_raw(&raw);
        let n = parents.len();
        let weights: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        let os = Os::synthetic(&parents, &weights);
        let total: f64 = weights.iter().sum();
        prop_assert!((os.total_weight() - total).abs() < 1e-9);
        let sel: Vec<OsNodeId> = (0..n)
            .filter(|&i| pick.get(i).copied().unwrap_or(false))
            .map(|i| OsNodeId(i as u32))
            .collect();
        let sum: f64 = sel.iter().map(|id| weights[id.index()]).sum();
        prop_assert!((os.weight_of(&sel) - sum).abs() < 1e-9);
        // Validity matches the definition checked over the parent array.
        let in_sel = |id: OsNodeId| sel.contains(&id);
        let valid_naive = (sel.is_empty() || in_sel(OsNodeId(0)))
            && sel.iter().all(|id| match parents[id.index()] {
                None => true,
                Some(p) => in_sel(OsNodeId(p as u32)),
            });
        prop_assert_eq!(os.is_valid_selection(&sel), valid_naive);
    }

    /// The packed slab against a reference projection (the selected
    /// nodes filtered in id order, parents renumbered, each node's depth,
    /// tuple, GDS node and weight copied from the input): on random trees
    /// with tuples and GDS ids over their whole ranges, and selections
    /// listed in any order, every node, its depth counted up the parent
    /// links, the selection ids and the `to_os()` rebuild equal it.
    #[test]
    fn packed_slab_matches_a_reference_projection(
        nodes in proptest::collection::vec(
            (0u32..1_000_000, any::<u16>(), any::<u32>(), any::<u16>(), any::<bool>()),
            0..60,
        ),
        rotate in 0usize..64,
    ) {
        // Node i + 1 hangs under a node below it, added through the arena's
        // own builder (a BFS that appends each node's children together).
        let parents = parents_from_raw(&nodes.iter().map(|n| n.0).collect::<Vec<_>>());
        let n = parents.len();
        let attrs = |i: usize| match i {
            0 => (TupleRef::new(TableId(7), RowId(0)), GdsNodeId(0), 0.5),
            _ => {
                let (_, table, row, gds, _) = nodes[i - 1];
                (TupleRef::new(TableId(table), RowId(row)), GdsNodeId(gds), f64::from(row) * 0.5)
            }
        };
        let mut os = Os::new();
        let mut arena_of = vec![OsNodeId(0); n];
        let (tuple, gds, w) = attrs(0);
        os.add_root(tuple, gds, w);
        let mut queue = VecDeque::from([0usize]);
        while let Some(u) = queue.pop_front() {
            for c in (0..n).filter(|&c| parents[c] == Some(u)) {
                let (tuple, gds, w) = attrs(c);
                arena_of[c] = os.add_child(arena_of[u], tuple, gds, w);
                queue.push_back(c);
            }
        }
        prop_assert!(os.validate().is_ok(), "{:?}", os.validate());
        // A connected selection with the root, listed rotated.
        let mut kept = vec![false; n];
        kept[0] = true;
        for c in 1..n {
            kept[c] = nodes[c - 1].4 && kept[parents[c].unwrap()];
        }
        let mut ids: Vec<OsNodeId> =
            (0..n).filter(|&c| kept[c]).map(|c| arena_of[c]).collect();
        ids.sort_unstable();
        let mut listed = ids.clone();
        let shift = rotate % listed.len();
        listed.rotate_left(shift);
        let sub = os.project(&listed);

        // The reference: selected nodes in id order, parents renumbered.
        let new_of = |id: OsNodeId| ids.binary_search(&id).ok().map(|j| OsNodeId(j as u32));
        let reference: Vec<OsNode> = ids
            .iter()
            .map(|&id| {
                let node = *os.node(id);
                OsNode { parent: node.parent.map(|p| new_of(p).unwrap()), ..node }
            })
            .collect();
        let same = |a: &OsNode, b: &OsNode| {
            a.tuple == b.tuple
                && a.gds_node == b.gds_node
                && a.parent == b.parent
                && a.depth == b.depth
                && a.weight.to_bits() == b.weight.to_bits()
        };
        prop_assert!(sub.validate().is_ok(), "{:?}", sub.validate());
        prop_assert_eq!(sub.selected().collect::<Vec<_>>(), ids.clone());
        prop_assert_eq!(sub.len(), reference.len());
        for (j, want) in reference.iter().enumerate() {
            let id = OsNodeId(j as u32);
            prop_assert!(same(&sub.node(id), want), "node {}: {:?} vs {:?}", j, sub.node(id), want);
        }
        let rebuilt = sub.to_os();
        prop_assert!(rebuilt.validate().is_ok(), "{:?}", rebuilt.validate());
        for ((id, got), want) in rebuilt.iter().zip(&reference) {
            prop_assert!(same(got, want), "rebuilt node {:?}", id);
            let kept_children: Vec<OsNodeId> =
                os.children(ids[id.index()]).iter().filter_map(|&c| new_of(c)).collect();
            prop_assert_eq!(rebuilt.children(id).to_vec(), kept_children);
        }
    }
}
