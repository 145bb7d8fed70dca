//! Property tests for the graph substrate: the FK parents a solve
//! resolves and the data graph's node ids must agree with brute-force joins over randomly
//! generated two-table databases, and GDS
//! construction must be structurally sound for random affinity settings.

use proptest::prelude::*;

use sizel_graph::{DataGraph, Gds, GdsConfig, JoinSpec, SchemaGraph};
use sizel_storage::{Database, RowId, TableSchema, TupleRef, Value};

/// Builds Parent(1..=n_parents) and Child rows with the given FK targets.
fn build_db(n_parents: i64, fk_targets: &[i64]) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::builder("Parent").pk("id").build().unwrap()).unwrap();
    db.create_table(
        TableSchema::builder("Child").pk("id").fk("parent_id", "Parent").build().unwrap(),
    )
    .unwrap();
    for k in 1..=n_parents {
        db.insert("Parent", vec![Value::Int(k)]).unwrap();
    }
    for (i, &t) in fk_targets.iter().enumerate() {
        db.insert("Child", vec![Value::Int(i as i64), Value::Int(t)]).unwrap();
    }
    db.validate_foreign_keys().unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The forward adjacency a solve reads equals brute-force join
    /// evaluation, read in both directions.
    #[test]
    fn data_graph_matches_joins(
        n_parents in 1i64..15,
        seeds in proptest::collection::vec(any::<u32>(), 0..60),
    ) {
        let fk_targets: Vec<i64> =
            seeds.iter().map(|&s| 1 + (s as i64 % n_parents)).collect();
        let db = build_db(n_parents, &fk_targets);
        let sg = SchemaGraph::from_database(&db);
        let dg = DataGraph::build(&db, &sg);
        let edge = sg.edges()[0].id;
        let parent = db.table_id("Parent").unwrap();
        let child = db.table_id("Child").unwrap();

        let e = sg.edge(edge);
        prop_assert_eq!((e.from, e.to), (child, parent));
        let (parents, children) = (db.table(parent), db.table(child));
        let parent_of = |i: usize| children.parent_of(e.fk_col, RowId(i as u32), parents);
        // Forward: child row -> its parent.
        for (i, &t) in fk_targets.iter().enumerate() {
            let p = parent_of(i).expect("FK is NOT NULL");
            prop_assert_eq!(parents.pk_of(p), t);
        }
        // Backward, read through the resolver: parent row -> exactly its
        // children.
        for k in 1..=n_parents {
            let prow = parents.by_pk(k).unwrap();
            let got: Vec<usize> =
                (0..fk_targets.len()).filter(|&i| parent_of(i) == Some(prow)).collect();
            let expect: Vec<usize> = (0..fk_targets.len()).filter(|&i| fk_targets[i] == k).collect();
            prop_assert_eq!(got, expect, "children of parent {}", k);
        }
        // Node id mapping is a bijection.
        for (tid, t) in db.tables() {
            for (rid, _) in t.iter() {
                let tr = TupleRef::new(tid, rid);
                prop_assert_eq!(dg.tuple_of(dg.node_id(tr)), tr);
            }
        }
    }

    /// GDS construction is structurally sound for arbitrary thresholds:
    /// BFS order, monotone computed affinity, and executable join specs.
    #[test]
    fn gds_structurally_sound(
        n_parents in 1i64..10,
        seeds in proptest::collection::vec(any::<u32>(), 1..40),
        theta in 0.0..1.0f64,
        max_depth in 1u32..6,
    ) {
        let fk_targets: Vec<i64> =
            seeds.iter().map(|&s| 1 + (s as i64 % n_parents)).collect();
        let db = build_db(n_parents, &fk_targets);
        let sg = SchemaGraph::from_database(&db);
        let cfg = GdsConfig { max_depth, ..GdsConfig::default() };
        let parent = db.table_id("Parent").unwrap();
        let full = Gds::build(&db, &sg, &cfg, parent);
        let gds = full.restrict(theta);
        // Not `!gds.is_empty()`: `Gds::is_empty` means "only the root
        // exists", while this asserts the root itself always survives.
        #[allow(clippy::len_zero)]
        {
            prop_assert!(gds.len() >= 1);
        }
        for (id, node) in gds.iter() {
            prop_assert!(node.depth <= max_depth);
            prop_assert!(node.affinity <= 1.0 + 1e-12);
            if let Some(p) = node.parent {
                prop_assert!(p < id, "BFS order");
                prop_assert!(node.affinity <= gds.node(p).affinity + 1e-12);
                prop_assert!(node.affinity >= theta, "restrict(θ) keeps only qualifying nodes");
            }
            // Join specs reference edges whose endpoint matches the node.
            match &node.join {
                JoinSpec::Root => prop_assert_eq!(id.0, 0),
                JoinSpec::Step { edge, dir } => {
                    prop_assert_eq!(sg.edge(*edge).target(*dir), node.relation);
                }
                JoinSpec::ViaJunction { .. } => {
                    prop_assert!(false, "no junctions in this schema");
                }
            }
        }
    }
}
