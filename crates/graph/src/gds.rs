//! Data Subject Schema Graphs: treealization of the schema around a DS
//! relation (Section 2.1, Figures 2 and 12).

use std::collections::VecDeque;

use sizel_storage::{Database, TableId};

use crate::affinity::AffinityModel;
use crate::schema_graph::{Direction, SchemaEdgeId, SchemaGraph};

/// Identifies a node of a GDS: 16 bits, so a cached summary node holds
/// one in two bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GdsNodeId(pub u16);

impl GdsNodeId {
    /// The most nodes one GDS holds; [`Gds::build`] panics past it.
    pub const LIMIT: usize = 1 << 16;

    /// The node index as `usize`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The id of the node at `index`, below [`GdsNodeId::LIMIT`].
    fn at(index: usize) -> GdsNodeId {
        GdsNodeId(u16::try_from(index).expect("a GDS holds at most GdsNodeId::LIMIT nodes"))
    }
}

/// How tuples of a GDS node are reached from a tuple of its parent node.
#[derive(Clone, Debug, PartialEq)]
pub enum JoinSpec {
    /// The root (the DS tuple itself).
    Root,
    /// A direct FK step.
    Step {
        /// The FK edge.
        edge: SchemaEdgeId,
        /// Traversal direction (`Forward` = N:1, `Backward` = 1:N).
        dir: Direction,
    },
    /// A collapsed M:N step through a junction table: enter the junction
    /// *backward* over `e_in` (junction rows referencing the parent tuple),
    /// leave *forward* over `e_out`.
    ViaJunction {
        /// The junction table.
        junction: TableId,
        /// Junction FK edge referencing the parent relation.
        e_in: SchemaEdgeId,
        /// Junction FK edge referencing this node's relation.
        e_out: SchemaEdgeId,
        /// Exclude the parent's own tuple from the result — the paper's
        /// CoAuthor semantics (a paper's co-authors exclude the author the
        /// OS descended from).
        exclude_parent: bool,
    },
}

/// One node of a GDS: a (possibly replicated) relation with its affinity
/// and the `max(Ri)` / `mmax(Ri)` statistics of Section 5.3.
#[derive(Clone, Debug)]
pub struct GdsNode {
    /// Display label (`Paper`, `CoAuthor`, `PaperCites`, ...).
    pub label: String,
    /// Path of labels from the root, `/`-joined (affinity-preset key).
    pub path: String,
    /// The underlying relation.
    pub relation: TableId,
    /// Parent node (`None` for the root).
    pub parent: Option<GdsNodeId>,
    /// Child nodes, in construction order.
    pub children: Vec<GdsNodeId>,
    /// How to join from a parent tuple to this node's tuples.
    pub join: JoinSpec,
    /// Affinity to the DS relation (Equation 1).
    pub affinity: f64,
    /// Depth (root = 0).
    pub depth: u32,
    /// `max(Ri)`: maximum local importance over tuples of this node
    /// (filled by [`Gds::set_stats`]; 0 before).
    pub max_ri: f64,
    /// `mmax(Ri)`: maximum `max(Rj)` over descendants (0 for leaves).
    pub mmax_ri: f64,
}

/// Configuration for GDS construction.
#[derive(Clone, Debug)]
pub struct GdsConfig {
    /// Affinity threshold θ for [`Gds::restrict`] (paper default 0.7).
    pub theta: f64,
    /// Hard depth cap for treealization.
    pub max_depth: u32,
    /// Expansion stops below this affinity during construction, bounding
    /// the replicated tree. Must be ≤ `theta`.
    pub prune_floor: f64,
    /// The affinity model.
    pub affinity: AffinityModel,
    /// Rename map from default-generated labels to display labels
    /// (e.g. `Paper[citing_id->cited_id]` → `PaperCites`).
    pub labels: Vec<(String, String)>,
}

impl Default for GdsConfig {
    fn default() -> Self {
        GdsConfig {
            theta: 0.7,
            max_depth: 6,
            prune_floor: 0.25,
            affinity: AffinityModel::Computed(crate::affinity::MetricWeights::default()),
            labels: Vec::new(),
        }
    }
}

/// A Data Subject Schema Graph: a tree of [`GdsNode`]s rooted at the DS
/// relation, in BFS order (parents always precede children).
#[derive(Clone, Debug)]
pub struct Gds {
    nodes: Vec<GdsNode>,
    /// The θ this instance was restricted to, if any.
    pub theta: Option<f64>,
}

impl Gds {
    /// Builds the full GDS for `root` (down to the config's `max_depth` /
    /// `prune_floor`). Use [`Gds::restrict`] to obtain GDS(θ).
    pub fn build(db: &Database, sg: &SchemaGraph, cfg: &GdsConfig, root: TableId) -> Gds {
        assert!(!db.table(root).schema.is_junction, "a junction table cannot be a DS relation");
        let root_label = db.table(root).schema.name.clone();
        let mut nodes = vec![GdsNode {
            label: root_label.clone(),
            path: root_label,
            relation: root,
            parent: None,
            children: Vec::new(),
            join: JoinSpec::Root,
            affinity: 1.0,
            depth: 0,
            max_ri: 0.0,
            mmax_ri: 0.0,
        }];
        let mut queue = VecDeque::from([GdsNodeId(0)]);

        while let Some(nid) = queue.pop_front() {
            let (relation, depth, affinity, path, arrival) = {
                let n = &nodes[nid.index()];
                (n.relation, n.depth, n.affinity, n.path.clone(), n.join.clone())
            };
            if depth >= cfg.max_depth {
                continue;
            }
            let mut candidates: Vec<(JoinSpec, TableId)> = Vec::new();
            for &(eid, dir) in sg.steps_from(relation) {
                let edge = sg.edge(eid);
                let other = edge.target(dir);
                if db.table(other).schema.is_junction {
                    // Entering a junction is only meaningful backward (a
                    // junction holds FKs; nothing references it).
                    if dir != Direction::Backward {
                        continue;
                    }
                    for e_out in sg.junction_edges(other) {
                        if e_out == eid {
                            continue; // identity step back to the same tuple
                        }
                        let to_table = sg.edge(e_out).to;
                        // The exact reverse of an M:N arrival is *replicated*
                        // with the parent tuple excluded (CoAuthor), per the
                        // paper's treealization.
                        let exclude_parent = matches!(
                            &arrival,
                            JoinSpec::ViaJunction { junction, e_in, e_out: a_out, .. }
                                if *junction == other && *e_in == e_out && *a_out == eid
                        );
                        candidates.push((
                            JoinSpec::ViaJunction {
                                junction: other,
                                e_in: eid,
                                e_out,
                                exclude_parent,
                            },
                            to_table,
                        ));
                    }
                } else {
                    // Skip the exact reverse of a direct arrival (no point
                    // rejoining the parent's relation through the same FK).
                    let is_reverse = matches!(
                        &arrival,
                        JoinSpec::Step { edge: a_e, dir: a_d }
                            if *a_e == eid && *a_d == dir.flip()
                    );
                    if is_reverse {
                        continue;
                    }
                    candidates.push((JoinSpec::Step { edge: eid, dir }, other));
                }
            }

            for (join, to_table) in candidates {
                let default_label = default_label(db, sg, &join, to_table);
                let label = cfg
                    .labels
                    .iter()
                    .find(|(from, _)| *from == default_label)
                    .map(|(_, to)| to.clone())
                    .unwrap_or(default_label);
                let child_path = format!("{path}/{label}");
                let fanout = join_fanout(db, sg, &join);
                let af = cfg.affinity.affinity(&child_path, affinity, sg.degree(to_table), fanout);
                if af < cfg.prune_floor {
                    continue;
                }
                let cid = GdsNodeId::at(nodes.len());
                nodes.push(GdsNode {
                    label,
                    path: child_path,
                    relation: to_table,
                    parent: Some(nid),
                    children: Vec::new(),
                    join,
                    affinity: af,
                    depth: depth + 1,
                    max_ri: 0.0,
                    mmax_ri: 0.0,
                });
                nodes[nid.index()].children.push(cid);
                queue.push_back(cid);
            }
        }
        Gds { nodes, theta: None }
    }

    /// The root node id (always 0).
    pub fn root(&self) -> GdsNodeId {
        GdsNodeId(0)
    }

    /// The DS relation.
    pub fn root_relation(&self) -> TableId {
        self.nodes[0].relation
    }

    /// The node with the given id.
    pub fn node(&self, id: GdsNodeId) -> &GdsNode {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Iterates `(GdsNodeId, &GdsNode)` in BFS order.
    pub fn iter(&self) -> impl Iterator<Item = (GdsNodeId, &GdsNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (GdsNodeId::at(i), n))
    }

    /// Finds a node by label (first match in BFS order).
    pub fn find_label(&self, label: &str) -> Option<GdsNodeId> {
        self.nodes.iter().position(|n| n.label == label).map(GdsNodeId::at)
    }

    /// Finds a node by full path.
    pub fn find_path(&self, path: &str) -> Option<GdsNodeId> {
        self.nodes.iter().position(|n| n.path == path).map(GdsNodeId::at)
    }

    /// GDS(θ): the subtree of nodes with affinity ≥ θ (a node survives only
    /// if all its ancestors do).
    pub fn restrict(&self, theta: f64) -> Gds {
        let mut map: Vec<Option<GdsNodeId>> = vec![None; self.nodes.len()];
        let mut nodes: Vec<GdsNode> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let keep = if i == 0 {
                true
            } else {
                n.affinity >= theta && map[n.parent.expect("non-root has parent").index()].is_some()
            };
            if keep {
                map[i] = Some(GdsNodeId::at(nodes.len()));
                let mut nn = n.clone();
                nn.parent = n.parent.and_then(|p| map[p.index()]);
                nn.children = Vec::new();
                nodes.push(nn);
            }
        }
        // Rebuild child lists.
        for i in 0..nodes.len() {
            if let Some(p) = nodes[i].parent {
                let id = GdsNodeId::at(i);
                nodes[p.index()].children.push(id);
            }
        }
        Gds { nodes, theta: Some(theta) }
    }

    /// Fills `max_ri` / `mmax_ri` from per-relation maximum *global*
    /// importance (`max_ri = max_global(relation) · affinity`, Section 5.3).
    pub fn set_stats(&mut self, per_relation_max_global: &[f64]) {
        for n in &mut self.nodes {
            n.max_ri = per_relation_max_global[n.relation.index()] * n.affinity;
        }
        // Children always follow parents in index order, so one reverse
        // sweep computes mmax bottom-up.
        for i in (0..self.nodes.len()).rev() {
            let mmax = self.nodes[i]
                .children
                .clone()
                .into_iter()
                .map(|c| {
                    let ch = &self.nodes[c.index()];
                    ch.max_ri.max(ch.mmax_ri)
                })
                .fold(0.0f64, f64::max);
            self.nodes[i].mmax_ri = mmax;
        }
    }

    /// Renders the GDS in the style of Figures 2 and 12: an indented tree
    /// with `(affinity)`, `max(Ri)` and `mmax(Ri)` annotations.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_rec(self.root(), 0, &mut out);
        out
    }

    fn pretty_rec(&self, id: GdsNodeId, indent: usize, out: &mut String) {
        let n = self.node(id);
        out.push_str(&" ".repeat(indent * 2));
        out.push_str(&format!(
            "{} ({:.2}) max={:.3} mmax={:.3}\n",
            n.label, n.affinity, n.max_ri, n.mmax_ri
        ));
        for &c in &n.children {
            self.pretty_rec(c, indent + 1, out);
        }
    }
}

/// Default display label for a join step.
fn default_label(db: &Database, sg: &SchemaGraph, join: &JoinSpec, to: TableId) -> String {
    let to_name = &db.table(to).schema.name;
    match join {
        JoinSpec::Root => to_name.clone(),
        JoinSpec::Step { .. } => to_name.clone(),
        JoinSpec::ViaJunction { junction, e_in, e_out, exclude_parent } => {
            if *exclude_parent {
                format!("Co{to_name}")
            } else if sg.edge(*e_in).to == sg.edge(*e_out).to {
                // Self M:N: disambiguate the orientation by column names.
                let jt = db.table(*junction);
                let in_col = &jt.schema.columns[sg.edge(*e_in).fk_col].name;
                let out_col = &jt.schema.columns[sg.edge(*e_out).fk_col].name;
                format!("{to_name}[{in_col}->{out_col}]")
            } else {
                to_name.clone()
            }
        }
    }
}

/// Average number of child tuples per parent tuple for a join step (the
/// cardinality input to the computed affinity model).
fn join_fanout(db: &Database, sg: &SchemaGraph, join: &JoinSpec) -> f64 {
    match join {
        JoinSpec::Root => 0.0,
        JoinSpec::Step { edge, dir } => match dir {
            Direction::Forward => 1.0,
            Direction::Backward => {
                let e = sg.edge(*edge);
                db.table(e.from).avg_fanout(e.fk_col)
            }
        },
        JoinSpec::ViaJunction { e_in, .. } => {
            let e = sg.edge(*e_in);
            db.table(e.from).avg_fanout(e.fk_col)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::AffinityModel;

    #[test]
    #[should_panic(expected = "at most GdsNodeId::LIMIT nodes")]
    fn a_gds_holds_at_most_its_id_range() {
        assert_eq!(GdsNodeId::at(GdsNodeId::LIMIT - 1), GdsNodeId(u16::MAX));
        GdsNodeId::at(GdsNodeId::LIMIT);
    }
    use sizel_datagen::dblp::{generate, DblpConfig};
    use sizel_datagen::tpch::{generate as tpch_generate, TpchConfig};

    fn dblp_author_cfg() -> GdsConfig {
        GdsConfig {
            affinity: AffinityModel::manual(
                &[
                    ("Author/Paper", 0.92),
                    ("Author/Paper/CoAuthor", 0.82),
                    ("Author/Paper/PaperCites", 0.77),
                    ("Author/Paper/PaperCitedBy", 0.77),
                    ("Author/Paper/Year", 0.83),
                    ("Author/Paper/Year/Conference", 0.78),
                ],
                0.5,
            ),
            labels: vec![
                ("Paper[citing_id->cited_id]".into(), "PaperCites".into()),
                ("Paper[cited_id->citing_id]".into(), "PaperCitedBy".into()),
            ],
            ..GdsConfig::default()
        }
    }

    #[test]
    fn dblp_author_gds_matches_figure_2() {
        let d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        let full = Gds::build(&d.db, &sg, &dblp_author_cfg(), d.author);
        let gds = full.restrict(0.7);
        // Figure 2: Author -> Paper -> {CoAuthor, PaperCites, PaperCitedBy,
        // Year -> Conference}: 7 nodes.
        assert_eq!(gds.len(), 7);
        let root = gds.node(gds.root());
        assert_eq!(root.label, "Author");
        assert_eq!(root.children.len(), 1);
        let paper = gds.node(root.children[0]);
        assert_eq!(paper.label, "Paper");
        assert!((paper.affinity - 0.92).abs() < 1e-12);
        let labels: Vec<&str> =
            paper.children.iter().map(|&c| gds.node(c).label.as_str()).collect();
        assert!(labels.contains(&"CoAuthor"));
        assert!(labels.contains(&"PaperCites"));
        assert!(labels.contains(&"PaperCitedBy"));
        assert!(labels.contains(&"Year"));
        let year = gds.find_label("Year").unwrap();
        let conf = gds.node(year).children.clone();
        assert_eq!(conf.len(), 1);
        assert_eq!(gds.node(conf[0]).label, "Conference");
    }

    #[test]
    fn coauthor_join_excludes_parent() {
        let d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        let gds = Gds::build(&d.db, &sg, &dblp_author_cfg(), d.author).restrict(0.7);
        let co = gds.node(gds.find_label("CoAuthor").unwrap());
        assert!(matches!(co.join, JoinSpec::ViaJunction { exclude_parent: true, .. }));
        assert_eq!(co.relation, d.author);
        // Paper under Author has exclude_parent = false.
        let paper = gds.node(gds.find_label("Paper").unwrap());
        assert!(matches!(paper.join, JoinSpec::ViaJunction { exclude_parent: false, .. }));
    }

    #[test]
    fn citation_orientations_are_distinct() {
        let d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        let gds = Gds::build(&d.db, &sg, &dblp_author_cfg(), d.author).restrict(0.7);
        let cites = gds.node(gds.find_label("PaperCites").unwrap());
        let cited = gds.node(gds.find_label("PaperCitedBy").unwrap());
        match (&cites.join, &cited.join) {
            (
                JoinSpec::ViaJunction { e_in: a_in, e_out: a_out, .. },
                JoinSpec::ViaJunction { e_in: b_in, e_out: b_out, .. },
            ) => {
                assert_eq!(a_in, b_out);
                assert_eq!(a_out, b_in);
            }
            other => panic!("unexpected joins: {other:?}"),
        }
    }

    #[test]
    fn tpch_customer_gds_theta_07_matches_section_2_1() {
        let t = tpch_generate(&TpchConfig::tiny());
        let sg = SchemaGraph::from_database(&t.db);
        let cfg = GdsConfig {
            affinity: AffinityModel::manual(
                &[
                    ("Customer/Nation", 0.97),
                    ("Customer/Nation/Region", 0.91),
                    ("Customer/Nation/Supplier", 0.52),
                    ("Customer/Orders", 0.95),
                    ("Customer/Orders/Lineitem", 0.87),
                    ("Customer/Orders/Lineitem/Partsupp", 0.77),
                    ("Customer/Orders/Lineitem/Partsupp/Part", 0.65),
                    ("Customer/Orders/Lineitem/Partsupp/Supplier", 0.65),
                ],
                0.5,
            ),
            ..GdsConfig::default()
        };
        let gds = Gds::build(&t.db, &sg, &cfg, t.customer).restrict(0.7);
        // Section 2.1: "Customer GDS(0.7) includes only Customer, Nation,
        // Region, Order, Lineitem and Partsupp relations".
        let mut labels: Vec<&str> = gds.iter().map(|(_, n)| n.label.as_str()).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["Customer", "Lineitem", "Nation", "Orders", "Partsupp", "Region"]);
    }

    #[test]
    fn computed_affinity_monotone_along_paths() {
        let d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        let cfg = GdsConfig::default();
        let gds = Gds::build(&d.db, &sg, &cfg, d.author);
        for (_, n) in gds.iter() {
            if let Some(p) = n.parent {
                assert!(
                    n.affinity <= gds.node(p).affinity + 1e-12,
                    "affinity must not increase with depth"
                );
            }
        }
    }

    #[test]
    fn set_stats_computes_max_and_mmax() {
        let d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        let mut gds = Gds::build(&d.db, &sg, &dblp_author_cfg(), d.author).restrict(0.7);
        // Synthetic per-relation max-global: relation index -> value.
        let mut per_rel = vec![0.0; d.db.table_count()];
        per_rel[d.author.index()] = 1.0;
        per_rel[d.paper.index()] = 10.0;
        per_rel[d.year.index()] = 2.0;
        per_rel[d.conference.index()] = 1.5;
        gds.set_stats(&per_rel);
        let paper = gds.node(gds.find_label("Paper").unwrap());
        assert!((paper.max_ri - 10.0 * 0.92).abs() < 1e-12);
        // Root mmax must cover the whole tree's max: Paper's 9.2.
        let root = gds.node(gds.root());
        assert!((root.mmax_ri - 9.2).abs() < 1e-9);
        // Leaves have mmax 0.
        let conf = gds.node(gds.find_label("Conference").unwrap());
        assert_eq!(conf.mmax_ri, 0.0);
        // Year's mmax is Conference's max.
        let year = gds.node(gds.find_label("Year").unwrap());
        assert!((year.mmax_ri - 1.5 * 0.78).abs() < 1e-12);
    }

    #[test]
    fn restrict_keeps_bfs_order_and_tree_shape() {
        let d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        let gds = Gds::build(&d.db, &sg, &dblp_author_cfg(), d.author).restrict(0.7);
        for (id, n) in gds.iter() {
            if let Some(p) = n.parent {
                assert!(p < id, "parents precede children");
                assert!(gds.node(p).children.contains(&id));
            }
            for &c in &n.children {
                assert_eq!(gds.node(c).parent, Some(id));
            }
        }
    }

    #[test]
    fn pretty_contains_annotations() {
        let d = generate(&DblpConfig::tiny());
        let sg = SchemaGraph::from_database(&d.db);
        let gds = Gds::build(&d.db, &sg, &dblp_author_cfg(), d.author).restrict(0.7);
        let s = gds.pretty();
        assert!(s.contains("Author (1.00)"));
        assert!(s.contains("Paper (0.92)"));
    }
}
