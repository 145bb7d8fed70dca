//! The tuple-level data graph: an in-memory index over all FK relationships.
//!
//! Section 6.3 of the paper: "our data-graph nodes correspond to the
//! database tuples and edges to tuples relationships (through their primary
//! and foreign keys). Note that the data-graph is only an index and does not
//! contain actual data as nodes capture only keys and global importance."
//!
//! Representation:
//! * every tuple gets a dense [`NodeId`] (`starts[table] + row`),
//! * every FK edge gets forward (`Vec<u32>`, one slot per referencing row)
//!   and backward (CSR) adjacency,
//! * every junction table is additionally *collapsed* into two directed
//!   [`MnLink`]s with precomputed CSR (Author -> Papers, Paper -> CoAuthors,
//!   citing -> cited, cited -> citing), so OS generation and ObjectRank can
//!   step across M:N relationships without touching junction tuples.

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

/// Sentinel for "no forward target" (NULL FK).
const NO_TARGET: u32 = u32::MAX;

/// Adjacency for one FK edge.
#[derive(Debug)]
struct DirectAdj {
    /// `fwd[row_of_from_table]` = global node id of the referenced tuple,
    /// or `NO_TARGET` for NULL FKs.
    fwd: Vec<u32>,
    /// CSR over rows of the referenced table; targets are global node ids
    /// of referencing tuples.
    bwd_index: Vec<u32>,
    bwd_targets: Vec<u32>,
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
/// table referenced by `e_to`) whenever a junction row connects them.
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
    index: Vec<u32>,
    targets: Vec<u32>,
}

impl MnLink {
    /// Target node ids reachable from `row` of the source table.
    pub fn targets(&self, row: RowId) -> &[u32] {
        let lo = self.index[row.index()] as usize;
        let hi = self.index[row.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Total number of link pairs.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when the link has no pairs.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// The data graph (see module docs).
#[derive(Debug)]
pub struct DataGraph {
    starts: Vec<u32>,
    direct: Vec<DirectAdj>,
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
        let n_tables = db.table_count();
        let mut starts = Vec::with_capacity(n_tables + 1);
        let mut acc = 0u32;
        for (_, t) in db.tables() {
            starts.push(acc);
            acc += t.len() as u32;
        }
        starts.push(acc);

        // Direct adjacency per FK edge.
        let mut direct = Vec::with_capacity(sg.edges().len());
        for e in sg.edges() {
            let from = db.table(e.from);
            let to = db.table(e.to);
            let mut fwd = vec![NO_TARGET; from.len()];
            let mut counts = vec![0u32; to.len()];
            // Each live parent finds its children through the FK runs:
            // one directory probe per parent instead of a PK slot probe
            // per child (slot probes branch unpredictably; storage's
            // `hash::PkSlots`).
            for p in to.live_rows() {
                let children = from.rows_where_eq(e.fk_col, to.pk_of(p));
                counts[p.index()] = children.len() as u32;
                for &c in children {
                    fwd[c.index()] = starts[e.to.index()] + p.0;
                }
            }
            let mut bwd_index = Vec::with_capacity(to.len() + 1);
            let mut running = 0u32;
            for &c in &counts {
                bwd_index.push(running);
                running += c;
            }
            bwd_index.push(running);
            let mut cursor: Vec<u32> = bwd_index[..to.len()].to_vec();
            let mut bwd_targets = vec![0u32; running as usize];
            for rid in from.live_rows() {
                let t = fwd[rid.index()];
                if t != NO_TARGET {
                    let local = (t - starts[e.to.index()]) as usize;
                    bwd_targets[cursor[local] as usize] = starts[e.from.index()] + rid.0;
                    cursor[local] += 1;
                } else if from.value(rid, e.fk_col).as_int().is_some() {
                    panic!("dangling FK while building data graph");
                }
            }
            direct.push(DirectAdj { fwd, bwd_index, bwd_targets });
        }

        // Collapsed M:N links for every junction table.
        let mut links = Vec::new();
        for (jid, jt) in db.tables() {
            if !jt.schema.is_junction {
                continue;
            }
            let je = sg.junction_edges(jid);
            debug_assert_eq!(je.len(), 2);
            for (ef, et) in [(je[0], je[1]), (je[1], je[0])] {
                let from_table = sg.edge(ef).to;
                let to_table = sg.edge(et).to;
                let n_from = db.table(from_table).len();
                let adj_f = &direct[ef.index()];
                let adj_t = &direct[et.index()];
                let mut counts = vec![0u32; n_from];
                for j in 0..jt.len() {
                    let a = adj_f.fwd[j];
                    let b = adj_t.fwd[j];
                    if a != NO_TARGET && b != NO_TARGET {
                        counts[(a - starts[from_table.index()]) as usize] += 1;
                    }
                }
                let mut index = Vec::with_capacity(n_from + 1);
                let mut running = 0u32;
                for &c in &counts {
                    index.push(running);
                    running += c;
                }
                index.push(running);
                let mut cursor: Vec<u32> = index[..n_from].to_vec();
                let mut targets = vec![0u32; running as usize];
                for j in 0..jt.len() {
                    let a = adj_f.fwd[j];
                    let b = adj_t.fwd[j];
                    if a != NO_TARGET && b != NO_TARGET {
                        let local = (a - starts[from_table.index()]) as usize;
                        targets[cursor[local] as usize] = b;
                        cursor[local] += 1;
                    }
                }
                links.push(MnLink {
                    junction: jid,
                    e_from: ef,
                    e_to: et,
                    from_table,
                    to_table,
                    index,
                    targets,
                });
            }
        }

        DataGraph { starts, direct, links }
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
        let t = self.direct[edge.index()].fwd[row.index()];
        (t != NO_TARGET).then_some(NodeId(t))
    }

    /// Backward neighbors over `edge` from a row of the referenced table
    /// (global node ids of the referencing tuples).
    pub fn bwd_neighbors(&self, edge: SchemaEdgeId, row: RowId) -> &[u32] {
        let adj = &self.direct[edge.index()];
        let lo = adj.bwd_index[row.index()] as usize;
        let hi = adj.bwd_index[row.index() + 1] as usize;
        &adj.bwd_targets[lo..hi]
    }

    /// All collapsed M:N links.
    pub fn links(&self) -> &[MnLink] {
        &self.links
    }

    /// The link with the given id.
    pub fn link(&self, id: MnLinkId) -> &MnLink {
        &self.links[id.index()]
    }

    /// Finds the collapsed link that enters its junction via `e_from` and
    /// leaves via `e_to`.
    pub fn find_link(&self, e_from: SchemaEdgeId, e_to: SchemaEdgeId) -> Option<MnLinkId> {
        self.links
            .iter()
            .position(|l| l.e_from == e_from && l.e_to == e_to)
            .map(|i| MnLinkId(i as u16))
    }

    /// Total number of stored adjacency entries (for the §6.3 size report).
    pub fn n_adjacency_entries(&self) -> usize {
        let d: usize = self.direct.iter().map(|a| a.fwd.len() + a.bwd_targets.len()).sum();
        let l: usize = self.links.iter().map(|l| l.targets.len()).sum();
        d + l
    }

    /// Approximate resident size in bytes (index vectors only, as in the
    /// paper's "150MB / 500MB" data-graph footprint report).
    pub fn approx_bytes(&self) -> usize {
        let mut total = self.starts.len() * 4;
        for a in &self.direct {
            total += (a.fwd.len() + a.bwd_index.len() + a.bwd_targets.len()) * 4;
        }
        for l in &self.links {
            total += (l.index.len() + l.targets.len()) * 4;
        }
        total
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
    fn fwd_and_bwd_are_inverse() {
        let (d, sg, dg) = setup();
        // Paper -> Year edge.
        let e = sg
            .edges()
            .iter()
            .find(|e| e.from == d.paper && e.to == d.year)
            .expect("paper->year edge")
            .id;
        let papers = d.db.table(d.paper);
        for (rid, _) in papers.iter() {
            let y = dg.fwd_neighbor(e, rid).expect("year FK is NOT NULL");
            let ytuple = dg.tuple_of(y);
            assert_eq!(ytuple.table, d.year);
            let back = dg.bwd_neighbors(e, ytuple.row);
            let me = dg.node_id(TupleRef::new(d.paper, rid));
            assert!(back.contains(&me.0));
        }
    }

    #[test]
    fn bwd_counts_match_fk_index() {
        let (d, sg, dg) = setup();
        let e = sg.edges().iter().find(|e| e.from == d.paper && e.to == d.year).unwrap().id;
        let papers = d.db.table(d.paper);
        let years = d.db.table(d.year);
        let fk_col = papers.schema.column_index("year_id").unwrap();
        for (rid, _) in years.iter() {
            let pk = years.pk_of(rid);
            assert_eq!(dg.bwd_neighbors(e, rid).len(), papers.rows_where_eq(fk_col, pk).len());
        }
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
    fn author_paper_link_matches_junction_contents() {
        let (d, _, dg) = setup();
        let link = dg
            .links()
            .iter()
            .find(|l| l.junction == d.author_paper && l.from_table == d.author)
            .unwrap();
        let ap = d.db.table(d.author_paper);
        let author_col = ap.schema.column_index("author_id").unwrap();
        let authors = d.db.table(d.author);
        for (rid, _) in authors.iter() {
            let pk = authors.pk_of(rid);
            let expect = ap.rows_where_eq(author_col, pk).len();
            assert_eq!(link.targets(rid).len(), expect, "author {pk}");
        }
    }

    #[test]
    fn citation_links_are_directional() {
        let (d, _, dg) = setup();
        let cites = dg.links().iter().filter(|l| l.junction == d.citation).collect::<Vec<_>>();
        assert_eq!(cites.len(), 2);
        // Total pairs in each orientation equal the junction size.
        for l in &cites {
            assert_eq!(l.len(), d.db.table(d.citation).len());
        }
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
