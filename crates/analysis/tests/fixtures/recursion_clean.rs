//! Golden fixture: the recursion rule's known non-triggers. This file is
//! analyzer input, not a compile target.

/// An explicit stack: the depth of the input costs heap, not stack.
pub fn depth(doc: &Doc, root: NodeId) -> usize {
    let mut stack = vec![(root, 1)];
    let mut deepest = 0;
    while let Some((id, d)) = stack.pop() {
        deepest = deepest.max(d);
        stack.extend(doc.children(id).iter().map(|&c| (c, d + 1)));
    }
    deepest
}

impl Reader {
    /// A method delegating to the same-named method of another value, and
    /// calling a free function of its own name, is not recursion.
    fn len(&self) -> usize {
        self.inner.len() + len(&self.buf)
    }

    fn decode(&mut self) -> Result<Tree, Error> {
        self.parser.decode().map(|t| decode_tree(t))
    }
}

fn len(buf: &[u8]) -> usize {
    buf.len()
}

/// A declaration has no body to call itself from.
trait Sink {
    fn open(&mut self, tag: &str) -> Visit;
}

// xarch-allow: recursion -- bounded by MAX_DEPTH (the walker refuses deeper payloads)
fn measure(doc: &Doc, id: NodeId) -> usize {
    doc.children(id).iter().map(|&c| measure(doc, c)).sum()
}

fn copy(doc: &Doc, id: NodeId) -> usize { // xarch-allow: recursion -- bounded by xarch_xml::MAX_DEPTH
    doc.children(id).iter().map(|&c| copy(doc, c)).count()
}

#[cfg(test)]
mod tests {
    /// Test code may recurse: its inputs are its own.
    fn depth(t: &Tree) -> usize {
        1 + t.children.iter().map(depth).max().unwrap_or(0)
    }
}
