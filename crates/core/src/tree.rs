//! Arena-backed binary tree and frontier for the divide-and-conquer
//! algorithms (Alg. 1 and Alg. 5 of the paper).
//!
//! Nodes are ranges `[b, e)` into a presentation-order pool of objects.
//! The frontier abstracts the queue discipline: the paper processes nodes
//! breadth-first (a FIFO queue whose left children are added first); a LIFO
//! variant is provided for the ablation benchmarks.

use std::collections::VecDeque;

pub(crate) const NO_NODE: u32 = u32::MAX;

/// One node of the execution tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Start of the range (inclusive), index into the pool.
    pub b: u32,
    /// End of the range (exclusive).
    pub e: u32,
    /// Parent node id, `NO_NODE` for roots.
    pub parent: u32,
    /// Sibling node id, `NO_NODE` for roots.
    pub sibling: u32,
    /// Paper's `checked` flag: true once one child answered *yes*.
    pub checked: bool,
    /// True once the node has been resolved (asked or substituted).
    pub done: bool,
}

impl Node {
    pub fn root(b: u32, e: u32) -> Self {
        Self {
            b,
            e,
            parent: NO_NODE,
            sibling: NO_NODE,
            checked: false,
            done: false,
        }
    }

    pub fn len(&self) -> u32 {
        self.e - self.b
    }

    pub fn is_root(&self) -> bool {
        self.parent == NO_NODE
    }
}

/// The set of pending nodes, in either queue (BFS, the paper's order) or
/// stack (DFS) discipline. Nodes removed out-of-band (the sibling
/// substitution of Alg. 1 line 12) are tombstoned and skipped on pop.
#[derive(Debug)]
pub(crate) enum Frontier {
    Fifo(VecDeque<u32>),
    Lifo(Vec<u32>),
}

impl Frontier {
    pub fn fifo() -> Self {
        Self::Fifo(VecDeque::new())
    }

    pub fn lifo() -> Self {
        Self::Lifo(Vec::new())
    }

    pub fn push(&mut self, id: u32) {
        match self {
            Self::Fifo(q) => q.push_back(id),
            Self::Lifo(s) => s.push(id),
        }
    }

    /// Pops the next non-tombstoned node id.
    pub fn pop(&mut self, removed: &[bool]) -> Option<u32> {
        let id = self.peek(removed)?;
        match self {
            Self::Fifo(q) => q.pop_front(),
            Self::Lifo(s) => s.pop(),
        };
        Some(id)
    }

    /// The next non-tombstoned node id, without popping it (tombstones in
    /// front of it are dropped).
    pub fn peek(&mut self, removed: &[bool]) -> Option<u32> {
        loop {
            let id = match self {
                Self::Fifo(q) => *q.front()?,
                Self::Lifo(s) => *s.last()?,
            };
            if !removed[id as usize] {
                return Some(id);
            }
            match self {
                Self::Fifo(q) => q.pop_front(),
                Self::Lifo(s) => s.pop(),
            };
        }
    }
}

/// Arena of tree nodes plus the tombstone set used by the frontier.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    pub nodes: Vec<Node>,
    pub removed: Vec<bool>,
}

impl Arena {
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cap),
            removed: Vec::with_capacity(cap),
        }
    }

    pub fn push(&mut self, node: Node) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.removed.push(false);
        id
    }

    /// Splits `[b, e)` as the paper does with inclusive indices and
    /// `mid = ⌊(i+j)/2⌋`: the left child receives `ceil(len/2)` objects.
    /// Returns `(left, right)` node ids; the children are linked to the
    /// parent and to each other.
    pub fn split(&mut self, parent_id: u32) -> (u32, u32) {
        let parent = self.nodes[parent_id as usize];
        debug_assert!(parent.len() > 1, "cannot split a singleton set");
        let mid = parent.b + parent.len().div_ceil(2);
        let left = self.push(Node {
            b: parent.b,
            e: mid,
            parent: parent_id,
            sibling: NO_NODE,
            checked: false,
            done: false,
        });
        let right = self.push(Node {
            b: mid,
            e: parent.e,
            parent: parent_id,
            sibling: left,
            checked: false,
            done: false,
        });
        self.nodes[left as usize].sibling = right;
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_gives_left_ceil_half() {
        let mut a = Arena::default();
        let root = a.push(Node::root(0, 5));
        let (l, r) = a.split(root);
        assert_eq!((a.nodes[l as usize].b, a.nodes[l as usize].e), (0, 3));
        assert_eq!((a.nodes[r as usize].b, a.nodes[r as usize].e), (3, 5));
        assert_eq!(a.nodes[l as usize].sibling, r);
        assert_eq!(a.nodes[r as usize].sibling, l);
        assert_eq!(a.nodes[l as usize].parent, root);
    }

    #[test]
    fn split_pair() {
        let mut a = Arena::default();
        let root = a.push(Node::root(10, 12));
        let (l, r) = a.split(root);
        assert_eq!(a.nodes[l as usize].len(), 1);
        assert_eq!(a.nodes[r as usize].len(), 1);
    }

    #[test]
    fn fifo_order_and_tombstones() {
        let mut f = Frontier::fifo();
        let removed = vec![false, true, false];
        f.push(0);
        f.push(1);
        f.push(2);
        assert_eq!(f.pop(&removed), Some(0));
        assert_eq!(f.pop(&removed), Some(2)); // 1 skipped
        assert_eq!(f.pop(&removed), None);
    }

    #[test]
    fn peek_skips_tombstones_without_popping() {
        let removed = vec![true, false, false];
        for (mut f, first) in [(Frontier::fifo(), 1), (Frontier::lifo(), 2)] {
            for id in 0..3 {
                f.push(id);
            }
            assert_eq!(f.peek(&removed), Some(first));
            assert_eq!(f.pop(&removed), Some(first));
        }
    }

    #[test]
    fn lifo_order() {
        let mut f = Frontier::lifo();
        let removed = vec![false; 3];
        f.push(0);
        f.push(1);
        f.push(2);
        assert_eq!(f.pop(&removed), Some(2));
        assert_eq!(f.pop(&removed), Some(1));
        assert_eq!(f.pop(&removed), Some(0));
    }
}
