//! Example-4/5 style rendering of (size-l) OSs.
//!
//! Nodes print as `Label: attr, attr` with dot-indentation proportional to
//! depth; consecutive *leaf* siblings of the same GDS node collapse into a
//! single `Label(s): v1, v2` line, matching how the paper prints
//! `Co-Author(s): Michalis Faloutsos, Petros Faloutsos`.

use std::fmt::Write as _;

use sizel_graph::Gds;
use sizel_storage::Database;

use crate::os::{Os, OsNodeId};

/// Rendering options.
#[derive(Clone, Copy, Debug)]
pub struct RenderOptions {
    /// Append ` [im=..]` local-importance annotations.
    pub show_importance: bool,
    /// Collapse consecutive leaf siblings with the same label.
    pub group_siblings: bool,
    /// Cap on printed lines (`None` = all); a `(... N more tuples)` marker
    /// reports the cut.
    pub max_lines: Option<usize>,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions { show_importance: false, group_siblings: true, max_lines: None }
    }
}

/// Renders `os` to an indented text block.
pub fn render_os(db: &Database, gds: &Gds, os: &Os, opts: &RenderOptions) -> String {
    let mut out = String::new();
    let mut lines = 0usize;
    let mut truncated = 0usize;
    render_children(db, gds, os, os.root(), opts, &mut out, &mut lines, &mut truncated, true);
    if truncated > 0 {
        let _ = writeln!(out, "(... {truncated} more tuples)");
    }
    let _ = writeln!(out, "(Total {} tuples)", os.len());
    out
}

/// The one-line text of a node: `Label: display values`.
fn node_text(db: &Database, gds: &Gds, os: &Os, id: OsNodeId, opts: &RenderOptions) -> String {
    let n = os.node(id);
    let label = &gds.node(n.gds_node).label;
    let table = db.table(n.tuple.table);
    let mut vals = String::new();
    for (i, c) in table.schema.display_columns().enumerate() {
        if i > 0 {
            vals.push_str(", ");
        }
        let _ = write!(vals, "{}", table.value(n.tuple.row, c));
    }
    let mut line = format!("{label}: {vals}");
    if opts.show_importance {
        let _ = write!(line, " [im={:.3}]", n.weight);
    }
    line
}

/// The display values only (used when grouping siblings).
fn value_text(db: &Database, os: &Os, id: OsNodeId) -> String {
    let n = os.node(id);
    let table = db.table(n.tuple.table);
    let mut vals = String::new();
    for (i, c) in table.schema.display_columns().enumerate() {
        if i > 0 {
            vals.push_str(", ");
        }
        let _ = write!(vals, "{}", table.value(n.tuple.row, c));
    }
    vals
}

#[allow(clippy::too_many_arguments)]
fn render_children(
    db: &Database,
    gds: &Gds,
    os: &Os,
    id: OsNodeId,
    opts: &RenderOptions,
    out: &mut String,
    lines: &mut usize,
    truncated: &mut usize,
    is_root: bool,
) {
    let depth = os.node(id).depth as usize;
    let indent = ".".repeat(depth * 2);
    if is_root {
        emit(
            out,
            lines,
            truncated,
            opts,
            &format!("{}{}", indent, node_text(db, gds, os, id, opts)),
        );
    }
    let children = os.children(id);
    let mut i = 0;
    while i < children.len() {
        let c = children[i];
        let c_node = os.node(c);
        // Group a run of >= 2 consecutive leaf siblings of the same GDS node.
        if opts.group_siblings && os.child_count(c) == 0 {
            let mut j = i;
            while j < children.len()
                && os.node(children[j]).gds_node == c_node.gds_node
                && os.child_count(children[j]) == 0
            {
                j += 1;
            }
            if j - i >= 2 {
                let label = &gds.node(c_node.gds_node).label;
                let vals: Vec<String> =
                    children[i..j].iter().map(|&x| value_text(db, os, x)).collect();
                let child_indent = ".".repeat((depth + 1) * 2);
                emit(
                    out,
                    lines,
                    truncated,
                    opts,
                    &format!("{child_indent}{label}(s): {}", vals.join(", ")),
                );
                i = j;
                continue;
            }
        }
        let child_indent = ".".repeat((depth + 1) * 2);
        emit(
            out,
            lines,
            truncated,
            opts,
            &format!("{child_indent}{}", node_text(db, gds, os, c, opts)),
        );
        render_children(db, gds, os, c, opts, out, lines, truncated, false);
        i += 1;
    }
}

fn emit(
    out: &mut String,
    lines: &mut usize,
    truncated: &mut usize,
    opts: &RenderOptions,
    line: &str,
) {
    if let Some(cap) = opts.max_lines {
        if *lines >= cap {
            *truncated += 1;
            return;
        }
    }
    *lines += 1;
    out.push_str(line);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{SizeLAlgorithm, TopPath};
    use crate::osgen::generate_os;
    use crate::test_fixtures::dblp_fixture;

    #[test]
    fn renders_root_and_children_with_indentation() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let os = generate_os(&ctx, f.author_tds(0), None);
        let s = render_os(&f.dblp.db, &f.gds, &os, &RenderOptions::default());
        assert!(s.starts_with("Author: "), "root line first: {s}");
        assert!(s.contains("..Paper: "), "papers indented under the author");
        assert!(s.contains(&format!("(Total {} tuples)", os.len())));
    }

    #[test]
    fn grouping_collapses_coauthor_runs() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        // Find an author whose OS has a paper with >= 2 co-authors.
        for i in 0..10 {
            let os = generate_os(&ctx, f.author_tds(i), None);
            let s = render_os(&f.dblp.db, &f.gds, &os, &RenderOptions::default());
            if s.contains("CoAuthor(s): ") {
                assert!(s.contains(", "), "grouped line lists multiple names");
                return;
            }
        }
        panic!("no multi-coauthor paper found in the first 10 authors");
    }

    #[test]
    fn max_lines_truncates_with_marker() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let os = generate_os(&ctx, f.author_tds(0), None);
        let opts = RenderOptions { max_lines: Some(5), ..RenderOptions::default() };
        let s = render_os(&f.dblp.db, &f.gds, &os, &opts);
        assert!(s.lines().count() <= 7, "5 content lines + marker + total");
        assert!(s.contains("more tuples"));
    }

    #[test]
    fn renders_projected_size_l_os() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let os = generate_os(&ctx, f.author_tds(0), Some(14));
        let r = TopPath.compute(&os, 15);
        let sub = os.project(&r.selected);
        let s = render_os(&f.dblp.db, &f.gds, &sub.to_os(), &RenderOptions::default());
        assert!(s.contains("(Total 15 tuples)"));
    }

    #[test]
    fn importance_annotations() {
        let f = dblp_fixture();
        let ctx = f.ctx();
        let os = generate_os(&ctx, f.author_tds(3), Some(2));
        let opts = RenderOptions { show_importance: true, ..RenderOptions::default() };
        let s = render_os(&f.dblp.db, &f.gds, &os, &opts);
        assert!(s.contains("[im="));
    }
}
