//! The tuple-level data graph: dense node ids and the collapsed M:N
//! links, for one rank solve.
//!
//! Section 6.3 of the paper: "our data-graph nodes correspond to the
//! database tuples and edges to tuples relationships (through their primary
//! and foreign keys). Note that the data-graph is only an index and does not
//! contain actual data as nodes capture only keys and global importance."
//!
//! The index lives in the tables: each FK column's runs hold every
//! parent's children (`Table::rows_where_eq`), its forward array each
//! row's parent (`Table::forward`), and each table's installed score
//! snapshot the rows' global importance. What a rank solve needs on top
//! is a dense numbering of the tuples, to index its iteration vectors,
//! and the links its authority graph rates; that is this type. A solve
//! builds one, reads the tables through it, and drops it
//! (`sizel_rank::power`):
//! * every tuple gets a dense [`NodeId`] (`starts[table] + row`),
//! * every junction table is described by two directed [`MnLink`]s
//!   (Author -> Papers, Paper -> CoAuthors, citing -> cited, cited ->
//!   citing), the units the authority graph rates.

use sizel_storage::{Database, RowId, TableId, TupleRef};

use crate::schema_graph::{SchemaEdgeId, SchemaGraph};

/// Dense id of a tuple in the data graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a collapsed M:N link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MnLinkId(pub u16);

impl MnLinkId {
    /// The link index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A collapsed M:N link through a junction table: rows of `from_table`
/// (the table referenced by `e_from`) map to tuples of `to_table` (the
/// table referenced by `e_to`) whenever a junction row connects them. The
/// pairs are the junction's rows: its FK runs on `e_from` grouped by
/// source, each resolved through the junction's forward array on `e_to`.
#[derive(Debug)]
pub struct MnLink {
    /// The junction table realizing the link.
    pub junction: TableId,
    /// Junction FK edge on the *source* side.
    pub e_from: SchemaEdgeId,
    /// Junction FK edge on the *target* side.
    pub e_to: SchemaEdgeId,
    /// Source table (`e_from`'s referenced table).
    pub from_table: TableId,
    /// Target table (`e_to`'s referenced table).
    pub to_table: TableId,
}

/// The data graph (see module docs).
#[derive(Debug)]
pub struct DataGraph {
    starts: Vec<u32>,
    links: Vec<MnLink>,
}

impl DataGraph {
    /// Numbers the tuples of `db` and lists the links of its schema graph
    /// — one pass over the tables, none over their rows. Records one
    /// maintenance graph-build (`db.access().maint()`), the counter the
    /// engine's write path is pinned to leave at zero.
    pub fn build(db: &Database, sg: &SchemaGraph) -> Self {
        db.access().record_graph_build();
        let mut starts = Vec::with_capacity(db.table_count() + 1);
        let mut acc = 0u32;
        for (_, t) in db.tables() {
            starts.push(acc);
            acc += t.len() as u32;
        }
        starts.push(acc);

        let mut links = Vec::new();
        for (jid, jt) in db.tables() {
            if !jt.schema.is_junction {
                continue;
            }
            let je = sg.junction_edges(jid);
            debug_assert_eq!(je.len(), 2);
            for (e_from, e_to) in [(je[0], je[1]), (je[1], je[0])] {
                let (from_table, to_table) = (sg.edge(e_from).to, sg.edge(e_to).to);
                links.push(MnLink { junction: jid, e_from, e_to, from_table, to_table });
            }
        }

        DataGraph { starts, links }
    }

    /// Total number of nodes (tuples).
    pub fn n_nodes(&self) -> usize {
        *self.starts.last().expect("starts always non-empty") as usize
    }

    /// The dense node id of a tuple.
    pub fn node_id(&self, t: TupleRef) -> NodeId {
        NodeId(self.starts[t.table.index()] + t.row.0)
    }

    /// The tuple a node id refers to.
    pub fn tuple_of(&self, n: NodeId) -> TupleRef {
        // partition_point returns the first table whose start exceeds n.
        let idx = self.starts.partition_point(|&s| s <= n.0) - 1;
        TupleRef { table: TableId(idx as u16), row: RowId(n.0 - self.starts[idx]) }
    }

    /// Base node id of a table.
    pub fn table_start(&self, t: TableId) -> u32 {
        self.starts[t.index()]
    }

    /// All collapsed M:N links.
    pub fn links(&self) -> &[MnLink] {
        &self.links
    }

    /// Finds the collapsed link that enters its junction via `e_from` and
    /// leaves via `e_to`.
    pub fn find_link(&self, e_from: SchemaEdgeId, e_to: SchemaEdgeId) -> Option<MnLinkId> {
        self.links
            .iter()
            .position(|l| l.e_from == e_from && l.e_to == e_to)
            .map(|i| MnLinkId(i as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sizel_datagen::dblp::{generate, DblpConfig};

    fn setup() -> (sizel_datagen::dblp::Dblp, SchemaGraph, DataGraph) {
        let d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        let dg = DataGraph::build(&d.db, &sg);
        (d, sg, dg)
    }

    #[test]
    fn node_id_roundtrip() {
        let (d, _, dg) = setup();
        assert_eq!(dg.n_nodes(), d.db.total_tuples());
        for (tid, t) in d.db.tables() {
            for (rid, _) in t.iter() {
                let tr = TupleRef::new(tid, rid);
                assert_eq!(dg.tuple_of(dg.node_id(tr)), tr);
            }
        }
    }

    #[test]
    fn fwd_inverts_the_fk_runs() {
        let (d, sg, _) = setup();
        // Paper -> Year edge: each paper in a year's run points at that
        // year through the forward array the solve reads, and the runs
        // cover every paper exactly once.
        let e = sg.edges().iter().find(|e| e.from == d.paper && e.to == d.year).unwrap();
        let (papers, years) = (d.db.table(d.paper), d.db.table(d.year));
        let mut covered = 0;
        for y in years.live_rows() {
            for &p in papers.rows_where_eq(e.fk_col, years.pk_of(y)) {
                assert_eq!(papers.forward(e.fk_col).get(p), Some(y));
                covered += 1;
            }
        }
        assert_eq!(covered, papers.live_len());
    }

    #[test]
    fn collapsed_links_exist_for_both_junctions_and_orientations() {
        let (d, _, dg) = setup();
        // AuthorPaper gives 2 links, Citation gives 2 links.
        assert_eq!(dg.links().len(), 4);
        let ap_links: Vec<&MnLink> =
            dg.links().iter().filter(|l| l.junction == d.author_paper).collect();
        assert_eq!(ap_links.len(), 2);
        assert!(ap_links.iter().any(|l| l.from_table == d.author && l.to_table == d.paper));
        assert!(ap_links.iter().any(|l| l.from_table == d.paper && l.to_table == d.author));
    }

    #[test]
    fn links_step_through_their_junction_edges() {
        let (_, sg, dg) = setup();
        for l in dg.links() {
            for e in [l.e_from, l.e_to] {
                assert_eq!(sg.edge(e).from, l.junction, "both edges leave the junction");
            }
            assert_ne!(l.e_from, l.e_to);
            assert_eq!(sg.edge(l.e_from).to, l.from_table);
            assert_eq!(sg.edge(l.e_to).to, l.to_table);
        }
    }

    #[test]
    fn citation_links_are_directional() {
        let (d, _, dg) = setup();
        let cites = dg.links().iter().filter(|l| l.junction == d.citation).collect::<Vec<_>>();
        assert_eq!(cites.len(), 2);
        // Paper -> Paper both ways: each link is the other reversed.
        assert_eq!((cites[0].e_from, cites[0].e_to), (cites[1].e_to, cites[1].e_from));
        assert!(cites.iter().all(|l| l.from_table == d.paper && l.to_table == d.paper));
    }

    #[test]
    fn find_link_roundtrip() {
        let (_, _, dg) = setup();
        for (i, l) in dg.links().iter().enumerate() {
            let found = dg.find_link(l.e_from, l.e_to).unwrap();
            assert_eq!(found.index(), i);
        }
    }

    #[test]
    fn size_stats_are_positive() {
        let (d, _, dg) = setup();
        assert!(dg.n_nodes() > 0);
        assert_eq!(dg.table_start(TableId(0)), 0);
        let last = TableId(d.db.table_count() as u16 - 1);
        assert_eq!(dg.table_start(last) as usize + d.db.table(last).len(), dg.n_nodes());
    }
}
