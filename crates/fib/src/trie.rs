//! Arena-based binary trie keyed by [`Prefix`].
//!
//! Every algorithm in the workspace — compression, RRC-ME, partitioning,
//! the update pipeline — operates on this structure. Nodes live in a `Vec`
//! arena with `u32` handles; removed nodes are recycled through a free
//! list, so long update storms do not leak arena slots.
//!
//! The trie maintains, per node, the number of values stored in its
//! subtree (`route_count`). That counter is what makes RRC-ME's
//! "shallowest route-free extension" query O(depth) instead of a subtree
//! walk.

use crate::prefix::{Bit, Prefix};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    prefix: Prefix,
    child: [u32; 2],
    parent: u32,
    value: Option<T>,
    /// Number of `Some` values stored in this node's subtree (inclusive).
    route_count: u32,
}

impl<T> Node<T> {
    fn new(prefix: Prefix, parent: u32) -> Self {
        Node {
            prefix,
            child: [NIL, NIL],
            parent,
            value: None,
            route_count: 0,
        }
    }
}

/// A binary trie mapping [`Prefix`]es to values.
///
/// # Examples
///
/// ```
/// use clue_fib::{Prefix, Trie};
///
/// let mut t = Trie::new();
/// t.insert("10.0.0.0/8".parse()?, 1u32);
/// t.insert("10.1.0.0/16".parse()?, 2u32);
///
/// // Longest-prefix match:
/// let (p, v) = t.lookup(0x0A01_0203).unwrap();
/// assert_eq!((p.to_string().as_str(), *v), ("10.1.0.0/16", 2));
/// let (p, v) = t.lookup(0x0A02_0304).unwrap();
/// assert_eq!((p.to_string().as_str(), *v), ("10.0.0.0/8", 1));
/// # Ok::<(), clue_fib::ParsePrefixError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trie<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    /// Index of the root node (always 0 once allocated).
    root: u32,
    len: usize,
}

impl<T> Default for Trie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Trie<T> {
    /// Creates an empty trie.
    #[must_use]
    pub fn new() -> Self {
        Trie {
            nodes: vec![Node::new(Prefix::root(), NIL)],
            free: Vec::new(),
            root: 0,
            len: 0,
        }
    }

    /// Number of stored values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie stores no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated (live) trie nodes, including internal ones.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// A read-only handle to the root node.
    #[must_use]
    pub fn root(&self) -> NodeRef<'_, T> {
        NodeRef {
            trie: self,
            idx: self.root,
        }
    }

    fn alloc(&mut self, prefix: Prefix, parent: u32) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node::new(prefix, parent);
            idx
        } else {
            self.nodes.push(Node::new(prefix, parent));
            (self.nodes.len() - 1) as u32
        }
    }

    /// Walks from the root to the node for `prefix`, creating path nodes
    /// as needed, and returns its index.
    fn ensure_node(&mut self, prefix: Prefix) -> u32 {
        self.descend(self.root, prefix)
    }

    /// Walks from node `from`, whose prefix contains `prefix`, down to the
    /// node for `prefix`, creating path nodes as needed, and returns its
    /// index.
    fn descend(&mut self, from: u32, prefix: Prefix) -> u32 {
        let mut cur = from;
        for depth in self.nodes[from as usize].prefix.len()..prefix.len() {
            let bit = Prefix::addr_bit(prefix.bits(), depth);
            let next = self.nodes[cur as usize].child[bit.index()];
            cur = if next == NIL {
                let child_prefix = self.nodes[cur as usize]
                    .prefix
                    .child(bit)
                    .expect("depth < prefix.len() <= 32");
                let idx = self.alloc(child_prefix, cur);
                self.nodes[cur as usize].child[bit.index()] = idx;
                idx
            } else {
                next
            };
        }
        cur
    }

    /// Finds the node index for `prefix` without creating anything.
    fn find_node(&self, prefix: Prefix) -> Option<u32> {
        let mut cur = self.root;
        for depth in 0..prefix.len() {
            let bit = Prefix::addr_bit(prefix.bits(), depth);
            let next = self.nodes[cur as usize].child[bit.index()];
            if next == NIL {
                return None;
            }
            cur = next;
        }
        Some(cur)
    }

    /// Fills in every node's `route_count` in one reverse sweep over the
    /// arena. Sound only while every node sits after its parent, as in
    /// an arena that has never recycled a slot, and only from all-zero
    /// counts.
    fn sweep_counts(&mut self) {
        debug_assert!(self.free.is_empty(), "recycled slots break the sweep");
        for idx in (0..self.nodes.len()).rev() {
            let n = &mut self.nodes[idx];
            n.route_count += u32::from(n.value.is_some());
            let (count, parent) = (n.route_count, n.parent);
            if parent != NIL {
                self.nodes[parent as usize].route_count += count;
            }
        }
    }

    fn bump_counts(&mut self, mut idx: u32, delta: i32) {
        loop {
            let n = &mut self.nodes[idx as usize];
            n.route_count = n.route_count.wrapping_add_signed(delta);
            if n.parent == NIL {
                break;
            }
            idx = n.parent;
        }
    }

    /// Inserts (or replaces) the value at `prefix`, returning the previous
    /// value if any.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let idx = self.ensure_node(prefix);
        let old = self.nodes[idx as usize].value.replace(value);
        if old.is_none() {
            self.len += 1;
            self.bump_counts(idx, 1);
        }
        old
    }

    /// Removes the value at `prefix`, pruning now-empty branches, and
    /// returns it.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let idx = self.find_node(prefix)?;
        let old = self.nodes[idx as usize].value.take()?;
        self.len -= 1;
        self.bump_counts(idx, -1);
        self.prune(idx);
        Some(old)
    }

    /// Frees `idx` and its now-useless ancestors: nodes with no value, no
    /// children, and a parent.
    fn prune(&mut self, mut idx: u32) {
        loop {
            let n = &self.nodes[idx as usize];
            if n.value.is_some() || n.child[0] != NIL || n.child[1] != NIL || n.parent == NIL {
                return;
            }
            let parent = n.parent;
            let bit = n.prefix.branch().expect("non-root node has a branch");
            self.nodes[parent as usize].child[bit.index()] = NIL;
            self.free.push(idx);
            idx = parent;
        }
    }

    /// Returns a reference to the value stored exactly at `prefix`.
    #[must_use]
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let idx = self.find_node(prefix)?;
        self.nodes[idx as usize].value.as_ref()
    }

    /// Returns a mutable reference to the value stored exactly at `prefix`.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut T> {
        let idx = self.find_node(prefix)?;
        self.nodes[idx as usize].value.as_mut()
    }

    /// Whether a value is stored exactly at `prefix`.
    #[must_use]
    pub fn contains_prefix(&self, prefix: Prefix) -> bool {
        self.get(prefix).is_some()
    }

    /// Longest-prefix match for `addr`.
    #[must_use]
    pub fn lookup(&self, addr: u32) -> Option<(Prefix, &T)> {
        self.lpm_node(addr)
            .map(|n| (n.prefix(), n.value().expect("lpm node has a value")))
    }

    /// Longest-prefix match, returning a node handle (used by RRC-ME).
    #[must_use]
    pub fn lpm_node(&self, addr: u32) -> Option<NodeRef<'_, T>> {
        let mut cur = self.root;
        let mut best = None;
        let mut depth = 0u8;
        loop {
            if self.nodes[cur as usize].value.is_some() {
                best = Some(cur);
            }
            if depth == 32 {
                break;
            }
            let bit = Prefix::addr_bit(addr, depth);
            let next = self.nodes[cur as usize].child[bit.index()];
            if next == NIL {
                break;
            }
            cur = next;
            depth += 1;
        }
        best.map(|idx| NodeRef { trie: self, idx })
    }

    /// A handle to the node storing `prefix` (value or internal), if present
    /// in the arena.
    #[must_use]
    pub fn node(&self, prefix: Prefix) -> Option<NodeRef<'_, T>> {
        self.find_node(prefix)
            .map(|idx| NodeRef { trie: self, idx })
    }

    /// Pre-order iterator over `(prefix, &value)` pairs.
    ///
    /// Visit order: a node, its 0-subtree, then its 1-subtree — i.e.
    /// ascending `(bits, len)`, the order a
    /// [`RouteTable`](crate::RouteTable) iterates in, and ascending
    /// address ranges for non-overlapping sets.
    #[must_use]
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            trie: self,
            stack: vec![self.root],
        }
    }

    /// Pre-order iterator over the subtree rooted at `prefix` (empty if
    /// the node does not exist).
    #[must_use]
    pub fn iter_subtree(&self, prefix: Prefix) -> Iter<'_, T> {
        let stack = self.find_node(prefix).into_iter().collect();
        Iter { trie: self, stack }
    }

    /// Removes every value (and node) except the root.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.nodes.push(Node::new(Prefix::root(), NIL));
        self.root = 0;
        self.len = 0;
    }
}

/// Builds the trie in one pass; later duplicates replace earlier ones.
///
/// Each prefix descends from the nearest ancestor of the previous one
/// instead of from the root, and the subtree route counts are filled in
/// by one reverse sweep at the end, so sorted input costs O(nodes). The
/// nodes, their arena order and every count come out exactly as
/// repeated [`Trie::insert`] would leave them, whatever the input order;
/// the arena is then trimmed to its nodes.
impl<T> FromIterator<(Prefix, T)> for Trie<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let mut t = Trie::new();
        let mut cur = t.root;
        for (prefix, value) in iter {
            while !t.nodes[cur as usize].prefix.contains(prefix) {
                cur = t.nodes[cur as usize].parent;
            }
            cur = t.descend(cur, prefix);
            if t.nodes[cur as usize].value.replace(value).is_none() {
                t.len += 1;
            }
        }
        t.sweep_counts();
        t.nodes.shrink_to_fit();
        t
    }
}

impl<T> Extend<(Prefix, T)> for Trie<T> {
    fn extend<I: IntoIterator<Item = (Prefix, T)>>(&mut self, iter: I) {
        for (p, v) in iter {
            self.insert(p, v);
        }
    }
}

/// A read-only handle to a trie node.
///
/// Handles expose the structural view (children, subtree route counts)
/// needed by the compression passes and RRC-ME without copying the trie.
#[derive(Debug)]
pub struct NodeRef<'a, T> {
    trie: &'a Trie<T>,
    idx: u32,
}

impl<T> Clone for NodeRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for NodeRef<'_, T> {}

impl<'a, T> NodeRef<'a, T> {
    fn node(&self) -> &'a Node<T> {
        &self.trie.nodes[self.idx as usize]
    }

    /// The prefix this node represents.
    #[must_use]
    pub fn prefix(&self) -> Prefix {
        self.node().prefix
    }

    /// The value stored at this node, if any.
    #[must_use]
    pub fn value(&self) -> Option<&'a T> {
        self.node().value.as_ref()
    }

    /// The child on branch `bit`, if allocated.
    #[must_use]
    pub fn child(&self, bit: Bit) -> Option<NodeRef<'a, T>> {
        let idx = self.node().child[bit.index()];
        (idx != NIL).then_some(NodeRef {
            trie: self.trie,
            idx,
        })
    }

    /// Number of values stored in this subtree, including this node.
    #[must_use]
    pub fn route_count(&self) -> u32 {
        self.node().route_count
    }

    /// Number of values stored strictly below this node.
    #[must_use]
    pub fn descendant_routes(&self) -> u32 {
        self.node().route_count - u32::from(self.node().value.is_some())
    }

    /// Whether this node is a leaf (no children allocated).
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        let n = self.node();
        n.child[0] == NIL && n.child[1] == NIL
    }
}

/// Pre-order iterator over a [`Trie`]; created by [`Trie::iter`].
pub struct Iter<'a, T> {
    trie: &'a Trie<T>,
    /// Nodes still to visit, the next on top.
    stack: Vec<u32>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(idx) = self.stack.pop() {
            let n = &self.trie.nodes[idx as usize];
            // The 1-subtree goes under the 0-subtree, so it pops later.
            for child in [n.child[1], n.child[0]] {
                if child != NIL {
                    self.stack.push(child);
                }
            }
            if let Some(v) = n.value.as_ref() {
                return Some((n.prefix, v));
            }
        }
        None
    }
}

impl<'a, T> IntoIterator for &'a Trie<T> {
    type Item = (Prefix, &'a T);
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn empty_trie_has_no_matches() {
        let t: Trie<u32> = Trie::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(0x0102_0304), None);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = Trie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 7), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&7));
        assert_eq!(t.insert(p("10.0.0.0/8"), 9), Some(7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(9));
        assert!(t.is_empty());
        assert_eq!(t.remove(p("10.0.0.0/8")), None);
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut t = Trie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        t.insert(p("10.1.2.0/24"), 3);
        assert_eq!(t.lookup(0x0A01_0203).map(|(_, v)| *v), Some(3));
        assert_eq!(t.lookup(0x0A01_0303).map(|(_, v)| *v), Some(2));
        assert_eq!(t.lookup(0x0A02_0203).map(|(_, v)| *v), Some(1));
        assert_eq!(t.lookup(0x0B00_0000).map(|(_, v)| *v), Some(0));
    }

    #[test]
    fn lpm_miss_without_default_route() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.lookup(0x0B00_0000), None);
    }

    #[test]
    fn host_route_matches_single_address() {
        let mut t = Trie::new();
        t.insert(p("1.2.3.4/32"), 1);
        assert_eq!(t.lookup(0x0102_0304).map(|(_, v)| *v), Some(1));
        assert_eq!(t.lookup(0x0102_0305), None);
    }

    #[test]
    fn pruning_frees_arena_slots() {
        let mut t = Trie::new();
        t.insert(p("10.1.2.0/24"), 1);
        let allocated = t.node_count();
        assert_eq!(allocated, 25); // root + 24 path nodes
        t.remove(p("10.1.2.0/24"));
        assert_eq!(t.node_count(), 1); // only root survives
                                       // Re-insertion recycles freed slots instead of growing the arena.
        t.insert(p("10.1.2.0/24"), 2);
        assert_eq!(t.nodes.len(), 25);
    }

    #[test]
    fn pruning_stops_at_valued_ancestor() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.2.0/24"), 2);
        t.remove(p("10.1.2.0/24"));
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&1));
        assert_eq!(t.node_count(), 9); // root + 8 path nodes to /8
    }

    #[test]
    fn iter_is_in_order() {
        let mut t = Trie::new();
        let prefixes = ["200.0.0.0/8", "10.0.0.0/8", "10.128.0.0/9", "128.0.0.0/1"];
        for (i, s) in prefixes.iter().enumerate() {
            t.insert(p(s), i);
        }
        let got: Vec<Prefix> = t.iter().map(|(px, _)| px).collect();
        // Pre-order: each ancestor before both of its branches.
        assert_eq!(
            got,
            vec![
                p("10.0.0.0/8"),
                p("10.128.0.0/9"),
                p("128.0.0.0/1"),
                p("200.0.0.0/8")
            ]
        );
    }

    #[test]
    fn iter_subtree_scopes_to_prefix() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        t.insert(p("11.0.0.0/8"), 3);
        let got: Vec<Prefix> = t.iter_subtree(p("10.0.0.0/8")).map(|(px, _)| px).collect();
        // Pre-order emits an ancestor before its subtree, as
        // `(bits, len)` order does.
        assert_eq!(got, vec![p("10.0.0.0/8"), p("10.1.0.0/16")]);
        assert_eq!(t.iter_subtree(p("12.0.0.0/8")).count(), 0);
    }

    #[test]
    fn route_counts_track_subtree_values() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        t.insert(p("10.1.2.0/24"), 3);
        let n = t.node(p("10.0.0.0/8")).unwrap();
        assert_eq!(n.route_count(), 3);
        assert_eq!(n.descendant_routes(), 2);
        t.remove(p("10.1.2.0/24"));
        let n = t.node(p("10.0.0.0/8")).unwrap();
        assert_eq!(n.route_count(), 2);
    }

    #[test]
    fn node_ref_children_and_leaf() {
        let mut t = Trie::new();
        t.insert(p("128.0.0.0/1"), 1);
        let root = t.root();
        assert!(root.child(Bit::Zero).is_none());
        let one = root.child(Bit::One).unwrap();
        assert_eq!(one.prefix(), p("128.0.0.0/1"));
        assert!(one.is_leaf());
        assert_eq!(one.value(), Some(&1));
    }

    #[test]
    fn from_iterator_and_extend() {
        let pairs = vec![(p("10.0.0.0/8"), 1), (p("11.0.0.0/8"), 2)];
        let mut t: Trie<i32> = pairs.into_iter().collect();
        assert_eq!(t.len(), 2);
        t.extend(vec![(p("12.0.0.0/8"), 3)]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn bulk_build_lays_out_the_arena_like_inserts() {
        let pairs: Vec<(Prefix, usize)> = [
            "10.0.0.0/8",
            "10.1.0.0/16",
            "128.0.0.0/1",
            "10.0.0.0/9",
            "200.0.0.0/8",
            "10.1.0.0/16",
        ]
        .iter()
        .enumerate()
        .map(|(i, s)| (p(s), i))
        .collect();
        let bulk: Trie<usize> = pairs.iter().copied().collect();
        let mut inserted = Trie::new();
        for &(px, v) in &pairs {
            inserted.insert(px, v);
        }
        let arena = |t: &Trie<usize>| {
            t.nodes
                .iter()
                .map(|n| (n.prefix, n.parent, n.child, n.value, n.route_count))
                .collect::<Vec<_>>()
        };
        assert_eq!(arena(&bulk), arena(&inserted));
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.lookup(0x0A00_0000), None);
    }

    #[test]
    fn lpm_node_exposes_structure() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.0.0.0/10"), 2);
        let n = t.lpm_node(0x0A80_0000).unwrap(); // 10.128.. → /8 is LPM
        assert_eq!(n.prefix(), p("10.0.0.0/8"));
        assert_eq!(n.descendant_routes(), 1);
    }
}
