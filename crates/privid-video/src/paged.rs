//! [`PagedVec`]: an append-only vector whose snapshots share structure.
//!
//! A live camera's [`Scene`](crate::Scene) is snapshotted on every appended
//! batch — sessions in flight keep the edge they resolved while the recording
//! grows — so "clone the recording" sits on the one path a deployment runs
//! forever. A `Vec` makes that clone (and the predecessor's drop) cost the
//! whole recording. `PagedVec` is the classic 32-way persistent vector
//! instead: elements live in 32-slot leaf pages under a trie of 32-way
//! branch pages, every page and every element behind an [`Arc`].
//!
//! * **Snapshot** (`clone`) is one reference-count bump.
//! * **Append / in-place update** copy only the pages on the path from the
//!   root to the touched slot, and only those a snapshot still shares
//!   ([`Arc::make_mut`]): at most `depth × 32` pointer copies, where depth is
//!   `⌈log₃₂ len⌉` (4 for a million elements). Pages nobody else holds are
//!   mutated in place, so bulk construction never copies.
//! * **Drop** frees only the pages this value alone owned.
//!
//! Elements are stored as `Arc<T>`, so a page copy never clones a `T`, and a
//! holder that needs an element to outlive the vector it came from (the
//! scene's time-bucket index points straight at its objects) shares the
//! allocation via [`PagedVec::iter_shared`].

use std::fmt;
use std::sync::Arc;

/// Index bits consumed per trie level.
const BITS: u32 = 5;
/// Slots per page.
const WIDTH: usize = 1 << BITS;
/// Selects one level's slot out of a shifted index.
const SLOT_MASK: usize = WIDTH - 1;

/// One page of the trie.
enum Node<T> {
    /// Up to [`WIDTH`] children, all of them full except possibly the last.
    Branch(Vec<Arc<Node<T>>>),
    /// Up to [`WIDTH`] elements.
    Leaf(Vec<Arc<T>>),
}

/// A page copy duplicates pointers, never elements. Written by hand so that
/// `T: Clone` is not required, and so that the copy has room for the append
/// that caused it (an exact-capacity copy would reallocate on its first push).
impl<T> Clone for Node<T> {
    fn clone(&self) -> Self {
        fn copy<U: Clone>(slots: &[U]) -> Vec<U> {
            let mut out = Vec::with_capacity(WIDTH);
            out.extend_from_slice(slots);
            out
        }
        match self {
            Node::Branch(children) => Node::Branch(copy(children)),
            Node::Leaf(items) => Node::Leaf(copy(items)),
        }
    }
}

impl<T> Node<T> {
    /// An empty page for the level whose slots are selected by `shift`.
    fn empty(shift: u32) -> Node<T> {
        if shift == 0 {
            Node::Leaf(Vec::with_capacity(WIDTH))
        } else {
            Node::Branch(Vec::with_capacity(WIDTH))
        }
    }

    /// Append `item` as element `index` (the current length), copying shared
    /// pages on the way down.
    fn push(&mut self, shift: u32, index: usize, item: Arc<T>) {
        match self {
            Node::Leaf(items) => items.push(item),
            Node::Branch(children) => {
                if (index >> shift) & SLOT_MASK == children.len() {
                    children.push(Arc::new(Node::empty(shift - BITS)));
                }
                if let Some(last) = children.last_mut() {
                    Arc::make_mut(last).push(shift - BITS, index, item);
                }
            }
        }
    }

    /// The slot holding element `index`, copying shared pages on the way down.
    fn slot_mut(&mut self, shift: u32, index: usize) -> Option<&mut Arc<T>> {
        match self {
            Node::Leaf(items) => items.get_mut(index & SLOT_MASK),
            Node::Branch(children) => {
                Arc::make_mut(children.get_mut((index >> shift) & SLOT_MASK)?).slot_mut(shift - BITS, index)
            }
        }
    }
}

/// An append-only vector with O(1) snapshots (see the module docs).
pub struct PagedVec<T> {
    len: usize,
    /// Shift selecting the root's slot: `BITS × (height − 1)`, 0 while the
    /// root is a single leaf.
    shift: u32,
    root: Arc<Node<T>>,
}

impl<T> PagedVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        PagedVec { len: 0, shift: 0, root: Arc::new(Node::empty(0)) }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append an element (pass a `T`, or an `Arc<T>` to share an allocation
    /// the caller keeps).
    pub fn push(&mut self, item: impl Into<Arc<T>>) {
        if self.len == WIDTH << self.shift {
            // Every page is full: the old root becomes the first child of a
            // new one, which adds a level.
            let full = std::mem::replace(&mut self.root, Arc::new(Node::empty(self.shift + BITS)));
            if let Node::Branch(children) = Arc::make_mut(&mut self.root) {
                children.push(full);
            }
            self.shift += BITS;
        }
        Arc::make_mut(&mut self.root).push(self.shift, self.len, item.into());
        self.len += 1;
    }

    /// The leaf page holding element `index` (empty when out of range).
    fn leaf_of(&self, index: usize) -> &[Arc<T>] {
        let mut node = &*self.root;
        let mut shift = self.shift;
        loop {
            match node {
                Node::Leaf(items) => return items,
                Node::Branch(children) => {
                    let Some(child) = children.get((index >> shift) & SLOT_MASK) else { return &[] };
                    node = child;
                    shift -= BITS;
                }
            }
        }
    }

    /// Element `index`, if in range.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        self.leaf_of(index).get(index & SLOT_MASK).map(|item| &**item)
    }

    /// Mutable access to element `index`. Pages — and the element itself —
    /// that a snapshot still shares are copied first, so no snapshot ever
    /// observes the mutation.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T>
    where
        T: Clone,
    {
        if index >= self.len {
            return None;
        }
        Arc::make_mut(&mut self.root).slot_mut(self.shift, index).map(Arc::make_mut)
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.get(self.len.checked_sub(1)?)
    }

    /// The elements in order, each behind the `Arc` the vector holds it by.
    pub fn iter_shared(&self) -> IterShared<'_, T> {
        IterShared { vec: self, next: 0, page: &[] }
    }

    /// The elements, in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter_shared().map(|item| &**item)
    }

    /// Copy the elements out into a plain `Vec`.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.iter().cloned().collect()
    }

    /// The leaf pages in order, for tests asserting structural sharing.
    #[cfg(test)]
    pub(crate) fn pages(&self) -> Vec<&[Arc<T>]> {
        (0..self.len).step_by(WIDTH).map(|first| self.leaf_of(first)).collect()
    }
}

/// Iterator over a [`PagedVec`]'s shared elements: one trie descent per
/// page, a slice walk within it.
pub struct IterShared<'a, T> {
    vec: &'a PagedVec<T>,
    next: usize,
    page: &'a [Arc<T>],
}

impl<'a, T> Iterator for IterShared<'a, T> {
    type Item = &'a Arc<T>;

    fn next(&mut self) -> Option<&'a Arc<T>> {
        if self.next >= self.vec.len {
            return None;
        }
        if self.next & SLOT_MASK == 0 {
            self.page = self.vec.leaf_of(self.next);
        }
        let item = self.page.get(self.next & SLOT_MASK)?;
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.vec.len - self.next;
        (left, Some(left))
    }
}

impl<T> Clone for PagedVec<T> {
    fn clone(&self) -> Self {
        PagedVec { len: self.len, shift: self.shift, root: Arc::clone(&self.root) }
    }
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        PagedVec::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for PagedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<T> for PagedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = PagedVec::new();
        for item in iter {
            out.push(item);
        }
        out
    }
}

impl<'a, T> IntoIterator for &'a PagedVec<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Map<IterShared<'a, T>, fn(&'a Arc<T>) -> &'a T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_shared().map(|item| &**item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter_across_three_levels() {
        // 32 × 32 + 40 elements: a root branch over branches over leaves.
        let n = WIDTH * WIDTH + 40;
        let mut v = PagedVec::new();
        assert!(v.is_empty() && v.last().is_none() && v.get(0).is_none());
        for i in 0..n {
            v.push(i);
            assert_eq!(v.len(), i + 1);
            assert_eq!(v.last(), Some(&i));
        }
        assert_eq!(v.shift, 2 * BITS);
        for i in (0..n).step_by(7) {
            assert_eq!(v.get(i), Some(&i));
        }
        assert_eq!(v.get(n), None);
        assert!(v.iter().copied().eq(0..n));
        assert!((&v).into_iter().copied().eq(0..n));
        assert_eq!(v.iter_shared().size_hint(), (n, Some(n)));
        assert_eq!(v.to_vec(), (0..n).collect::<Vec<_>>());
        assert_eq!((0..n).collect::<PagedVec<usize>>().to_vec(), v.to_vec());
    }

    #[test]
    fn snapshots_are_immutable_and_share_every_untouched_page() {
        let mut v: PagedVec<usize> = (0..WIDTH * 3 + 5).collect();
        let snapshot = v.clone();
        assert!(Arc::ptr_eq(&snapshot.root, &v.root), "a snapshot is one reference-count bump");
        v.push(1000);
        *v.get_mut(WIDTH + 1).unwrap() = 2000;
        // The snapshot still reads what it read when it was taken…
        assert_eq!(snapshot.len(), WIDTH * 3 + 5);
        assert!(snapshot.iter().copied().eq(0..WIDTH * 3 + 5));
        assert_eq!((v.last(), v.get(WIDTH + 1)), (Some(&1000), Some(&2000)));
        // …and only the two touched leaf pages (1: updated, 3: appended to)
        // were copied; within a copied page the other elements are shared.
        let (before, after) = (snapshot.pages(), v.pages());
        for page in [0, 2] {
            assert!(std::ptr::eq(before[page], after[page]), "page {page} is shared");
        }
        for page in [1, 3] {
            assert!(!std::ptr::eq(before[page], after[page]), "page {page} was copied");
        }
        assert!(Arc::ptr_eq(&before[1][0], &after[1][0]));
        assert!(!Arc::ptr_eq(&before[1][1], &after[1][1]));
    }

    #[test]
    fn unshared_pages_are_mutated_in_place() {
        let mut v: PagedVec<usize> = (0..WIDTH + 3).collect();
        let page = v.pages()[1].as_ptr();
        v.push(7);
        *v.get_mut(WIDTH).unwrap() = 9;
        assert_eq!(v.pages()[1].as_ptr(), page, "no snapshot holds the page: no copy");
        assert!(v.get_mut(WIDTH + 4).is_none());
    }
}
