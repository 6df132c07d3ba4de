//! Operation taxonomy and per-instance counters.
//!
//! Chameleon's trace profiler records, per collection instance, how many
//! times each operation was performed, including *interaction* operations —
//! when a collection is the **source** of an `addAll` or a copy constructor
//! it is credited a [`Op::CopiedInto`], which the rule engine uses to spot
//! temporary collections that exist only to be copied (§3.2.2, Table 2).

use std::fmt;

/// One kind of collection operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Op {
    /// `add(e)` / `put(k,v)`-style append or insert.
    Add,
    /// `add(i, e)` — positional insert into a list.
    AddIndexed,
    /// `addAll(c)` — bulk insert (this collection is the destination).
    AddAll,
    /// `addAll(i, c)` — positional bulk insert.
    AddAllIndexed,
    /// `get(Object)` — keyed lookup (map `get`).
    Get,
    /// `get(int)` — positional access into a list.
    GetIndexed,
    /// `set(i, e)` — positional replacement.
    SetIndexed,
    /// `contains(e)` / `containsKey(k)`.
    Contains,
    /// `remove(Object)` — remove by value/key.
    Remove,
    /// `remove(int)` — positional removal.
    RemoveIndexed,
    /// `removeFirst()` — head removal.
    RemoveFirst,
    /// `removeLast()` — tail removal.
    RemoveLast,
    /// `put(k, v)` that replaced an existing mapping.
    PutReplace,
    /// Iterator creation.
    IterNew,
    /// Iterator creation over an *empty* collection (the Table 2
    /// redundant-iterator signal).
    IterNewEmpty,
    /// Iterator step.
    IterNext,
    /// `clear()`.
    Clear,
    /// This collection was the source of an `addAll`/copy constructor.
    CopiedInto,
}

impl Op {
    /// All operations, in index order.
    pub const ALL: [Op; 18] = [
        Op::Add,
        Op::AddIndexed,
        Op::AddAll,
        Op::AddAllIndexed,
        Op::Get,
        Op::GetIndexed,
        Op::SetIndexed,
        Op::Contains,
        Op::Remove,
        Op::RemoveIndexed,
        Op::RemoveFirst,
        Op::RemoveLast,
        Op::PutReplace,
        Op::IterNew,
        Op::IterNewEmpty,
        Op::IterNext,
        Op::Clear,
        Op::CopiedInto,
    ];

    /// Dense index of this operation: its position in [`Op::ALL`], which
    /// lists the variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The metric name used by the rule language (e.g. `#get(int)`).
    pub fn metric_name(self) -> &'static str {
        match self {
            Op::Add => "add",
            Op::AddIndexed => "add(int,Object)",
            Op::AddAll => "addAll",
            Op::AddAllIndexed => "addAll(int,Collection)",
            Op::Get => "get(Object)",
            Op::GetIndexed => "get(int)",
            Op::SetIndexed => "set(int,Object)",
            Op::Contains => "contains",
            Op::Remove => "remove(Object)",
            Op::RemoveIndexed => "remove(int)",
            Op::RemoveFirst => "removeFirst",
            Op::RemoveLast => "removeLast",
            Op::PutReplace => "putReplace",
            Op::IterNew => "iterator",
            Op::IterNewEmpty => "iteratorEmpty",
            Op::IterNext => "iterNext",
            Op::Clear => "clear",
            Op::CopiedInto => "copied",
        }
    }

    /// Parses a rule-language operation name back into an `Op`.
    pub fn from_metric_name(name: &str) -> Option<Op> {
        Op::ALL.iter().copied().find(|o| o.metric_name() == name)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.metric_name())
    }
}

/// Dense per-instance (or per-context-average) operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    counts: [u64; Op::ALL.len()],
}

impl OpCounts {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `op` by one.
    pub fn record(&mut self, op: Op) {
        self.counts[op.index()] += 1;
    }

    /// Increments `op` by `n`.
    pub fn record_n(&mut self, op: Op, n: u64) {
        self.counts[op.index()] += n;
    }

    /// Count of `op`.
    pub fn get(&self, op: Op) -> u64 {
        self.counts[op.index()]
    }

    /// Total operations (`#allOps`): every recorded operation except pure
    /// size queries (not recorded at all) — iterator steps are included,
    /// matching the paper's "count of all possible collection operations".
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates `(op, count)` pairs with non-zero counts.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Op, u64)> + '_ {
        Op::ALL
            .iter()
            .copied()
            .filter_map(move |op| match self.get(op) {
                0 => None,
                n => Some((op, n)),
            })
    }

    /// Adds all counts of `other` into `self`.
    pub fn merge(&mut self, other: &OpCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Sum of *mutating* operation counts that justify a linked structure
    /// (the Table 2 LinkedList-overhead rule's left-hand side).
    pub fn linked_justifying(&self) -> u64 {
        self.get(Op::AddIndexed)
            + self.get(Op::AddAllIndexed)
            + self.get(Op::RemoveIndexed)
            + self.get(Op::RemoveFirst)
            + self.get(Op::RemoveLast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_dense_and_unique() {
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn metric_names_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::from_metric_name(op.metric_name()), Some(op));
        }
        assert_eq!(Op::from_metric_name("nonsense"), None);
    }

    #[test]
    fn record_and_total() {
        let mut c = OpCounts::new();
        c.record(Op::Add);
        c.record(Op::Add);
        c.record_n(Op::Contains, 5);
        assert_eq!(c.get(Op::Add), 2);
        assert_eq!(c.get(Op::Contains), 5);
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = OpCounts::new();
        a.record(Op::Get);
        let mut b = OpCounts::new();
        b.record_n(Op::Get, 3);
        b.record(Op::Clear);
        a.merge(&b);
        assert_eq!(a.get(Op::Get), 4);
        assert_eq!(a.get(Op::Clear), 1);
    }

    #[test]
    fn nonzero_iteration_skips_zeros() {
        let mut c = OpCounts::new();
        c.record(Op::IterNew);
        let v: Vec<_> = c.iter_nonzero().collect();
        assert_eq!(v, vec![(Op::IterNew, 1)]);
    }

    #[test]
    fn linked_justifying_ops() {
        let mut c = OpCounts::new();
        c.record(Op::AddIndexed);
        c.record(Op::RemoveFirst);
        c.record_n(Op::Get, 100); // irrelevant
        assert_eq!(c.linked_justifying(), 2);
    }
}
