//! "Further compaction" beneath frontier nodes (§4.2, Fig 10).
//!
//! Instead of holding each distinct content of a frontier node as a whole
//! `<T>` alternative, the contents of successive versions are *woven*
//! SCCS-style: the child subtrees form a sequence, a minimal diff (on
//! canonical forms) aligns the previous version's children with the new
//! ones, and each child carries its own timestamp. Elements that persist
//! across versions are stored once — Fig 10's `d` and `e` — while the parts
//! that differ (`f` vs `g`) get disjoint timestamps.
//!
//! This module reuses the Myers diff of `xarch-diff`, treating each child
//! subtree's canonical form as one "line".

use xarch_xml::canon::canonical;
use xarch_xml::NodeId;

use crate::archive::{ANodeId, Archive};
use crate::merge::{canonical_anode, copy_subtree, terminate, Version};
use crate::timeset::TimeSet;

/// Weaves the children of frontier version node `y` into the children of
/// frontier archive node `x`. `t_cur` is `time(x)` *including* the new
/// version `ver.i`.
pub(crate) fn weave_frontier(
    a: &mut Archive,
    x: ANodeId,
    ver: &Version<'_>,
    y: NodeId,
    t_cur: &TimeSet,
) {
    let (doc, i) = (ver.doc, ver.i);
    let mut t_old = t_cur.clone();
    t_old.remove(i);
    // The reference sequence is the content at the most recent version in
    // which x existed before i (x may have been absent for a while).
    let prev = t_old.max();

    let old_children = a.children(x).to_vec();
    let live: Vec<bool> = old_children
        .iter()
        .map(|&c| match prev {
            Some(p) => a.time(c).is_none_or(|t| t.contains(p)),
            None => false,
        })
        .collect();

    let x_canons: Vec<String> = old_children
        .iter()
        .zip(live.iter())
        .filter(|(_, &l)| l)
        .map(|(&c, _)| canonical_anode(a, c))
        .collect();
    let y_children = doc.children(y);
    let y_canons: Vec<String> = y_children.iter().map(|&c| canonical(doc, c)).collect();

    let x_refs: Vec<&str> = x_canons.iter().map(|s| s.as_str()).collect();
    let y_refs: Vec<&str> = y_canons.iter().map(|s| s.as_str()).collect();
    let script = xarch_diff::diff_lines(&x_refs, &y_refs);

    // Rebuild the child list, interleaving kept, terminated and new nodes:
    // a new node is appended to x's children and put in its place at the
    // end.
    let mut new_children: Vec<ANodeId> = Vec::with_capacity(old_children.len() + y_children.len());
    let mut live_idx = 0usize; // position among live children
    let mut y_pos = 0usize; // position in y_children
    let mut edits = script.edits.iter().peekable();

    let insert_ys = |a: &mut Archive, out: &mut Vec<ANodeId>, y_pos: &mut usize, count: usize| {
        for k in 0..count {
            let yc = y_children[*y_pos + k];
            let id = copy_subtree(a, ver, yc, x);
            a.set_time(id, TimeSet::from_version(i));
            out.push(id);
        }
        *y_pos += count;
    };

    for (idx, &c) in old_children.iter().enumerate() {
        if !live[idx] {
            // dormant child keeps its place and timestamp
            new_children.push(c);
            continue;
        }
        // pure insertions land before this live position
        while let Some(e) = edits.peek() {
            if e.a_start == live_idx && e.a_len == 0 {
                let count = e.b_lines.len();
                insert_ys(a, &mut new_children, &mut y_pos, count);
                edits.next();
            } else {
                break;
            }
        }
        if let Some(e) = edits.peek() {
            if e.a_start <= live_idx && live_idx < e.a_start + e.a_len {
                // deleted at version i
                terminate(a, c, t_cur, i);
                new_children.push(c);
                if live_idx == e.a_start + e.a_len - 1 {
                    let count = e.b_lines.len();
                    insert_ys(a, &mut new_children, &mut y_pos, count);
                    edits.next();
                }
                live_idx += 1;
                continue;
            }
        }
        // matched: the child also exists at version i
        a.augment_time(c, i);
        new_children.push(c);
        live_idx += 1;
        y_pos += 1;
    }
    // trailing insertions
    for e in edits {
        debug_assert_eq!(e.a_len, 0, "only trailing inserts may remain");
        let count = e.b_lines.len();
        insert_ys(a, &mut new_children, &mut y_pos, count);
    }
    debug_assert_eq!(y_pos, y_children.len());
    a.reorder_children(x, &new_children);
}
