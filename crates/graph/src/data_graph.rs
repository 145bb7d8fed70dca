//! The tuple-level data graph: dense node ids and the forward side of
//! every FK relationship.
//!
//! Section 6.3 of the paper: "our data-graph nodes correspond to the
//! database tuples and edges to tuples relationships (through their primary
//! and foreign keys). Note that the data-graph is only an index and does not
//! contain actual data as nodes capture only keys and global importance."
//!
//! Representation:
//! * every tuple gets a dense [`NodeId`] (`starts[table] + row`),
//! * every FK edge gets forward adjacency (`Vec<u32>`, the parent node of
//!   each referencing row) — the one direction storage cannot answer
//!   without a PK probe,
//! * every junction table is described by two directed [`MnLink`]s
//!   (Author -> Papers, Paper -> CoAuthors, citing -> cited, cited ->
//!   citing), the units the authority graph rates.
//!
//! Backward and M:N adjacency are not copied here: the referencing table's
//! FK runs hold each parent's children already (`Table::rows_where_eq`).
//! OS generation reads them there; the rank solver transposes `fwd` into
//! transfer lists that live for one solve (`sizel_rank::power`).

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

/// Sentinel for "no forward target" (NULL FK, or a dead row).
const NO_TARGET: u32 = u32::MAX;

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
/// source, each resolved through `fwd` on `e_to`.
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
    /// Per FK edge, `fwd[row of the referencing table]` = global node id
    /// of the referenced tuple, or `NO_TARGET`.
    fwd: Vec<Vec<u32>>,
    links: Vec<MnLink>,
}

impl DataGraph {
    /// Builds the graph from a database and its schema graph. Panics on
    /// dangling FKs — run [`Database::validate_foreign_keys`] first when
    /// the input is untrusted. Records one maintenance graph-build
    /// (`db.access().maint()`), the counter the batched-apply subsystem
    /// asserts its one-rebuild-per-batch amortization against.
    pub fn build(db: &Database, sg: &SchemaGraph) -> Self {
        db.access().record_graph_build();
        let mut starts = Vec::with_capacity(db.table_count() + 1);
        let mut acc = 0u32;
        for (_, t) in db.tables() {
            starts.push(acc);
            acc += t.len() as u32;
        }
        starts.push(acc);

        let mut fwd = Vec::with_capacity(sg.edges().len());
        for e in sg.edges() {
            let (from, to) = (db.table(e.from), db.table(e.to));
            let mut f = vec![NO_TARGET; from.len()];
            // Each live parent finds its children through the FK runs:
            // one directory probe per parent instead of a PK slot probe
            // per child (slot probes branch unpredictably; storage's
            // `hash::PkSlots`).
            for p in to.live_rows() {
                for &c in from.rows_where_eq(e.fk_col, to.pk_of(p)) {
                    f[c.index()] = starts[e.to.index()] + p.0;
                }
            }
            for rid in from.live_rows() {
                if f[rid.index()] == NO_TARGET && from.value(rid, e.fk_col).as_int().is_some() {
                    panic!("dangling FK while building data graph");
                }
            }
            fwd.push(f);
        }

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

        DataGraph { starts, fwd, links }
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

    /// Forward neighbor over `edge` from a row of the referencing table.
    pub fn fwd_neighbor(&self, edge: SchemaEdgeId, row: RowId) -> Option<NodeId> {
        let t = self.fwd[edge.index()][row.index()];
        (t != NO_TARGET).then_some(NodeId(t))
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

    /// Number of stored adjacency entries (for the §6.3 size report): one
    /// forward slot per row of every referencing table.
    pub fn n_adjacency_entries(&self) -> usize {
        self.fwd.iter().map(Vec::len).sum()
    }

    /// Bytes held, by structure: the node starts and the forward slots.
    pub fn index_bytes(&self) -> [(&'static str, usize); 2] {
        [("node starts", self.starts.len() * 4), ("fwd", self.n_adjacency_entries() * 4)]
    }

    /// Approximate resident size in bytes (index vectors only, as in the
    /// paper's "150MB / 500MB" data-graph footprint report).
    pub fn approx_bytes(&self) -> usize {
        self.index_bytes().iter().map(|&(_, b)| b).sum()
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
        let (d, sg, dg) = setup();
        // Paper -> Year edge: each paper in a year's run points at that
        // year, and the runs cover every paper exactly once.
        let e = sg.edges().iter().find(|e| e.from == d.paper && e.to == d.year).unwrap();
        let (papers, years) = (d.db.table(d.paper), d.db.table(d.year));
        let mut covered = 0;
        for y in years.live_rows() {
            let year = dg.node_id(TupleRef::new(d.year, y));
            for &p in papers.rows_where_eq(e.fk_col, years.pk_of(y)) {
                assert_eq!(dg.fwd_neighbor(e.id, p), Some(year));
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
        let (_, _, dg) = setup();
        assert!(dg.n_adjacency_entries() > 0);
        assert!(dg.approx_bytes() > 0);
    }
}
