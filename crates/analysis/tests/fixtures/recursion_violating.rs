//! Golden fixture: each tilde marker names the diagnostic the analyzer
//! must emit on that line. This file is analyzer input, not a compile
//! target.

pub fn depth(doc: &Doc, id: NodeId) -> usize { //~ recursion
    1 + doc.children(id).iter().map(|&c| depth(doc, c)).max().unwrap_or(0)
}

pub fn decode<'b, F: Fn(u8) -> bool>(buf: &'b [u8], pos: &mut usize, keep: F) -> Tree { //~ recursion
    let mut children = Vec::new();
    while *pos < buf.len() && keep(buf[*pos]) {
        children.push(decode(buf, pos, &keep));
    }
    Tree { children }
}

impl Walker {
    fn walk(&mut self, id: NodeId) { //~ recursion
        for &c in self.doc.children(id) {
            self.walk(c);
        }
    }

    fn visit(tree: &Tree) -> usize { //~ recursion
        tree.children.iter().map(Self::visit).sum::<usize>() + Self::visit(tree)
    }

    fn emit(&self, id: NodeId) { //~ recursion
        Self::emit(self, id)
    }
}

// an exemption that does not name its bound does not count, and is itself
// malformed
// xarch-allow: recursion -- the input is trusted //~ suppression
fn measure(doc: &Doc, id: NodeId) -> usize { //~ recursion
    doc.children(id).iter().map(|&c| measure(doc, c)).sum()
}
