//! Short lists kept inline, for the answers of per-instruction queries.
//!
//! The optimizer asks every instruction what it reads, writes and jumps
//! to, many times per phase and many phases per function. Almost every
//! answer has at most a handful of entries, so [`InlineVec`] keeps up to
//! `N` of them in place and only a longer list (a call with many register
//! arguments) moves to the heap.

use std::fmt;
use std::ops::{Deref, Index};

use crate::func::Label;
use crate::reg::Reg;

/// Registers an instruction reads or writes: inline up to six, which
/// covers every instruction but a call with more register arguments.
pub type RegList = InlineVec<Reg, 6>;

/// Block indices a block can branch to: a terminator has at most two
/// distinct targets, so this never spills.
pub type Succs = InlineVec<usize, 2>;

/// A list of `Copy` items that stores up to `N` (below 256) of them inline
/// and spills to a `Vec` past that. It dereferences to a slice.
#[derive(Clone)]
pub struct InlineVec<T: Copy, const N: usize>(Store<T, N>);

#[derive(Clone)]
enum Store<T: Copy, const N: usize> {
    Empty,
    Inline(u8, [T; N]),
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub const fn new() -> Self {
        InlineVec(Store::Empty)
    }

    /// Append `x`, moving the list to the heap when it outgrows `N`.
    #[inline]
    pub fn push(&mut self, x: T) {
        match &mut self.0 {
            Store::Inline(len, items) if usize::from(*len) < N => {
                items[usize::from(*len)] = x;
                *len += 1;
            }
            Store::Empty => self.0 = Store::Inline(1, [x; N]),
            _ => self.push_past_inline(x),
        }
    }

    #[cold]
    #[inline(never)]
    fn push_past_inline(&mut self, x: T) {
        match &mut self.0 {
            Store::Heap(v) => v.push(x),
            store => {
                let mut v = Vec::with_capacity(2 * N);
                v.extend_from_slice(store_slice(store));
                v.push(x);
                *store = Store::Heap(v);
            }
        }
    }

    /// Keep only the items `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Store::Empty => {}
            Store::Inline(len, items) => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if keep(&items[i]) {
                        items[kept] = items[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Store::Heap(v) => v.retain(keep),
        }
    }

    /// Has the list moved to the heap?
    pub fn spilled(&self) -> bool {
        matches!(self.0, Store::Heap(_))
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

fn store_slice<T: Copy, const N: usize>(store: &Store<T, N>) -> &[T] {
    match store {
        Store::Empty => &[],
        Store::Inline(len, items) => &items[..usize::from(*len)],
        Store::Heap(v) => v,
    }
}

impl<T: Copy, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        store_slice(&self.0)
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: Copy, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        iter.into_iter().for_each(|x| self.push(x));
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::new();
        list.extend(iter);
        list
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter {
            list: self,
            next: 0,
        }
    }
}

/// The items of an [`InlineVec`], by value.
#[derive(Debug, Clone)]
pub struct IntoIter<T: Copy, const N: usize> {
    list: InlineVec<T, N>,
    next: usize,
}

impl<T: Copy, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        let x = self.list.get(self.next).copied();
        self.next += usize::from(x.is_some());
        x
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len() - self.next;
        (left, Some(left))
    }
}

/// Lists of items for the keys `0..n`, all in one flat buffer: key `k`'s
/// list is `items[start[k]..start[k + 1]]`. Index it by key to get a
/// slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatLists<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> FlatLists<T> {
    /// Collect the `(key, item)` pairs that `each` passes to the function
    /// it is given, every key below `n`. `each` runs twice, so it must
    /// pass the same pairs both times; each key's list keeps their order.
    pub fn build(n: usize, each: impl Fn(&mut dyn FnMut(usize, T))) -> FlatLists<T> {
        // Count each key's items at `start[k]`, turn the counts into the
        // offsets where the lists begin, then fill each list, advancing
        // its offset to where the next list begins. Shifting by one
        // restores the starts.
        let mut start = Vec::with_capacity(n + 1);
        start.resize(n, 0);
        each(&mut |k, _| start[k] += 1);
        let mut sum = 0;
        for c in &mut start {
            (*c, sum) = (sum, sum + *c);
        }
        let mut items = vec![T::default(); sum];
        each(&mut |k, x| {
            items[start[k]] = x;
            start[k] += 1;
        });
        start.insert(0, 0);
        FlatLists { start, items }
    }
}

impl<T> FlatLists<T> {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Are there no keys?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every key's list, in key order.
    pub fn lists(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.start.windows(2).map(|w| &self.items[w[0]..w[1]])
    }
}

impl<T> Index<usize> for FlatLists<T> {
    type Output = [T];

    fn index(&self, k: usize) -> &[T] {
        &self.items[self.start[k]..self.start[k + 1]]
    }
}

/// Mutable references to a terminator's targets, taken target first.
#[derive(Debug)]
pub struct TargetsMut<'a>([Option<&'a mut Label>; 2]);

impl<'a> TargetsMut<'a> {
    pub(crate) fn new(first: Option<&'a mut Label>, second: Option<&'a mut Label>) -> Self {
        TargetsMut([first, second])
    }
}

impl<'a> IntoIterator for TargetsMut<'a> {
    type Item = &'a mut Label;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<&'a mut Label>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegClass;

    #[test]
    fn stays_inline_up_to_capacity_then_spills_in_order() {
        let regs: Vec<Reg> = (0..9).map(|i| Reg::virt(RegClass::Int, i)).collect();
        let mut list = RegList::new();
        assert!(list.is_empty());
        for (i, &r) in regs.iter().enumerate() {
            list.push(r);
            assert_eq!(list.spilled(), i >= 6, "after {} pushes", i + 1);
            assert_eq!(&list[..], &regs[..=i]);
        }
        assert_eq!(list.clone().into_iter().collect::<Vec<_>>(), regs);
    }

    #[test]
    fn retain_keeps_order_inline_and_spilled() {
        for n in [0, 4, 6, 9] {
            let mut list: InlineVec<u32, 6> = (0..n).collect();
            list.retain(|x| x % 2 == 1);
            let odd: Vec<u32> = (0..n).filter(|x| x % 2 == 1).collect();
            assert_eq!(list, odd, "{n} items");
            list.push(100);
            assert_eq!(list.last(), Some(&100));
        }
    }

    #[test]
    fn flat_lists_keep_each_keys_order() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (3, 'd'), (0, 'e')];
        let lists = FlatLists::build(5, |add| pairs.iter().for_each(|&(k, x)| add(k, x)));
        assert_eq!(lists.len(), 5);
        let want: [&[char]; 5] = [&['b', 'e'], &[], &['a', 'c'], &['d'], &[]];
        assert!(lists.lists().eq(want));
        assert_eq!(&lists[2], ['a', 'c']);
    }

    #[test]
    fn targets_mut_reaches_both_targets() {
        let (mut a, mut b) = (Label(1), Label(2));
        for l in TargetsMut::new(Some(&mut a), Some(&mut b)) {
            l.0 += 10;
        }
        assert_eq!((a, b), (Label(11), Label(12)));
    }
}
