//! Timestamps as compact interval sets (§2).
//!
//! A [`TimeSet`] is a set of version numbers stored as sorted, disjoint,
//! non-adjacent *closed* intervals — the paper's `t="1-3,5,7-9"` notation.
//! "Since changes to our database are largely accretive and an element is
//! likely to exist for a long time, we can compactly represent its
//! timestamp using time intervals rather than a sequence of version
//! numbers" (§1).

use std::fmt;
use std::hash::{Hash, Hasher};

/// A set of `u32` versions, run-length encoded as closed intervals.
///
/// A set of at most one run — most lifetimes in an accretive archive, and
/// every range row's window — holds it inline and owns no heap block;
/// more runs live in a vector. Equality, hashing and `Debug` read
/// [`TimeSet::intervals`], never which of the two holds them.
#[derive(Clone, Default)]
pub struct TimeSet {
    runs: Runs,
}

/// The sorted, disjoint, non-adjacent closed intervals `(lo, hi)` of a
/// [`TimeSet`]. `One` holds exactly one run; `Many` holds none, or two or
/// more.
#[derive(Clone)]
enum Runs {
    One((u32, u32)),
    Many(Vec<(u32, u32)>),
}

impl Default for Runs {
    fn default() -> Self {
        Runs::Many(Vec::new())
    }
}

impl PartialEq for TimeSet {
    fn eq(&self, other: &Self) -> bool {
        self.intervals() == other.intervals()
    }
}

impl Eq for TimeSet {}

impl Hash for TimeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.intervals().hash(state);
    }
}

impl fmt::Debug for TimeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeSet")
            .field("runs", &self.intervals())
            .finish()
    }
}

/// Error parsing the textual `1-3,5,7-9` form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeParseError(pub String);

impl fmt::Display for TimeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid timestamp: {}", self.0)
    }
}

impl std::error::Error for TimeParseError {}

impl TimeSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A singleton set `{v}`.
    pub fn from_version(v: u32) -> Self {
        Self::from_range(v, v)
    }

    /// The full range `lo..=hi` (empty if `lo > hi`).
    pub fn from_range(lo: u32, hi: u32) -> Self {
        if lo > hi {
            Self::new()
        } else {
            Self {
                runs: Runs::One((lo, hi)),
            }
        }
    }

    /// Adds the run `(lo, hi)`, which starts after every run held so far
    /// begins, coalescing it with the last run when they overlap or touch
    /// — how a union, a clamp and a decoder build a set in ascending
    /// order. A set that ends up one run never touches the heap.
    pub(crate) fn push_run(&mut self, (lo, hi): (u32, u32)) {
        match &mut self.runs {
            Runs::Many(runs) if runs.is_empty() => self.runs = Runs::One((lo, hi)),
            Runs::One(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
            Runs::One(last) => self.runs = Runs::Many(vec![*last, (lo, hi)]),
            Runs::Many(runs) => match runs.last_mut() {
                Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
                _ => runs.push((lo, hi)),
            },
        }
    }

    /// Holds a vector left with one run inline again.
    fn settle(&mut self) {
        if let Runs::Many(runs) = &self.runs {
            if let &[one] = runs.as_slice() {
                self.runs = Runs::One(one);
            }
        }
    }

    /// True if the set contains no versions.
    pub fn is_empty(&self) -> bool {
        self.intervals().is_empty()
    }

    /// Number of versions in the set.
    pub fn count(&self) -> u64 {
        (self.intervals().iter())
            .map(|&(lo, hi)| (hi - lo) as u64 + 1)
            .sum()
    }

    /// Number of intervals (the storage cost driver).
    pub fn run_count(&self) -> usize {
        self.intervals().len()
    }

    /// The intervals themselves.
    pub fn intervals(&self) -> &[(u32, u32)] {
        match &self.runs {
            Runs::One(one) => std::slice::from_ref(one),
            Runs::Many(runs) => runs,
        }
    }

    /// The set as a [`TimeRef`], the form an archive node's timestamp is
    /// read in.
    pub fn view(&self) -> TimeRef<'_> {
        TimeRef(self.intervals())
    }

    /// Smallest version, if any.
    pub fn min(&self) -> Option<u32> {
        self.intervals().first().map(|&(lo, _)| lo)
    }

    /// Largest version, if any.
    pub fn max(&self) -> Option<u32> {
        self.intervals().last().map(|&(_, hi)| hi)
    }

    /// Membership test (binary search over runs).
    pub fn contains(&self, v: u32) -> bool {
        self.view().contains(v)
    }

    /// Inserts one version, coalescing adjacent runs. A version inside or
    /// touching a set's one run extends it in place.
    pub fn insert(&mut self, v: u32) {
        match &mut self.runs {
            Runs::One((lo, hi)) if v.saturating_add(1) >= *lo && v <= hi.saturating_add(1) => {
                *lo = (*lo).min(v);
                *hi = (*hi).max(v);
            }
            Runs::One(run) => {
                let run = *run;
                let runs = match v < run.0 {
                    true => vec![(v, v), run],
                    false => vec![run, (v, v)],
                };
                self.runs = Runs::Many(runs);
            }
            Runs::Many(runs) if runs.is_empty() => self.runs = Runs::One((v, v)),
            Runs::Many(runs) => {
                insert_into(runs, v);
                self.settle();
            }
        }
    }

    /// Removes one version, splitting a run if needed. Taking an end off a
    /// set's one run shortens it in place.
    pub fn remove(&mut self, v: u32) {
        match &mut self.runs {
            Runs::One((lo, hi)) if v < *lo || v > *hi => {}
            Runs::One((lo, hi)) if *lo == *hi => self.runs = Runs::default(),
            Runs::One((lo, _)) if v == *lo => *lo = v + 1,
            Runs::One((_, hi)) if v == *hi => *hi = v - 1,
            Runs::One((lo, hi)) => self.runs = Runs::Many(vec![(*lo, v - 1), (v + 1, *hi)]),
            Runs::Many(runs) => {
                remove_from(runs, v);
                self.settle();
            }
        }
    }

    /// Set union.
    pub fn union(&self, other: &TimeSet) -> TimeSet {
        let mut out = TimeSet::new();
        let mut a = self.intervals().iter().peekable();
        let mut b = other.intervals().iter().peekable();
        while let Some(&next) = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y.0 < x.0 => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        } {
            out.push_run(next);
        }
        out
    }

    /// The subset of the set falling inside the closed window `lo..=hi` —
    /// the restriction a range query applies to an element's lifetime.
    pub fn clamp_range(&self, lo: u32, hi: u32) -> TimeSet {
        self.view().clamp_range(lo, hi)
    }

    /// True if `self ⊇ other` — the paper's archive invariant is that a
    /// node's timestamp is a superset of every descendant's.
    pub fn is_superset(&self, other: &TimeSet) -> bool {
        self.view().is_superset(other.view())
    }

    /// Iterates all versions in ascending order.
    pub fn versions(&self) -> impl Iterator<Item = u32> + '_ {
        self.intervals().iter().flat_map(|&(lo, hi)| lo..=hi)
    }

    /// Parses the paper's notation, e.g. `1-3,5,7-9`. An empty string is
    /// the empty set.
    pub fn parse(s: &str) -> Result<TimeSet, TimeParseError> {
        let mut out = TimeSet::new();
        let s = s.trim();
        if s.is_empty() {
            return Ok(out);
        }
        for part in s.split(',') {
            let part = part.trim();
            let (lo, hi) = match part.split_once('-') {
                Some((a, b)) => {
                    let lo = a
                        .trim()
                        .parse::<u32>()
                        .map_err(|_| TimeParseError(s.into()))?;
                    let hi = b
                        .trim()
                        .parse::<u32>()
                        .map_err(|_| TimeParseError(s.into()))?;
                    (lo, hi)
                }
                None => {
                    let v = part.parse::<u32>().map_err(|_| TimeParseError(s.into()))?;
                    (v, v)
                }
            };
            if lo > hi {
                return Err(TimeParseError(s.into()));
            }
            for v in lo..=hi {
                out.insert(v);
            }
        }
        Ok(out)
    }
}

impl fmt::Display for TimeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// A [`TimeSet`] borrowed from where it is stored — the runs of an archive
/// node's timestamp, inline in the node or in the archive's run pool, or
/// of a `TimeSet` ([`TimeSet::view`]). Equality, `Debug` and `Display`
/// read the runs, as `TimeSet`'s do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRef<'a>(&'a [(u32, u32)]);

impl<'a> TimeRef<'a> {
    /// Borrows runs that are sorted, disjoint and non-adjacent, as a
    /// `TimeSet` holds them.
    pub(crate) fn new(runs: &'a [(u32, u32)]) -> Self {
        Self(runs)
    }

    /// The intervals themselves.
    pub fn intervals(self) -> &'a [(u32, u32)] {
        self.0
    }

    /// Largest version, if any.
    pub fn max(self) -> Option<u32> {
        self.0.last().map(|&(_, hi)| hi)
    }

    /// Membership test (binary search over runs).
    #[inline]
    pub fn contains(self, v: u32) -> bool {
        self.0
            .binary_search_by(|&(lo, hi)| {
                if v < lo {
                    std::cmp::Ordering::Greater
                } else if v > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// True if `self ⊇ other`.
    pub fn is_superset(self, other: TimeRef<'_>) -> bool {
        other.0.iter().all(|&(lo, hi)| {
            // find run containing lo, check it extends to hi
            (self.0.iter()).any(|&(slo, shi)| slo <= lo && hi <= shi)
        })
    }

    /// The subset falling inside the closed window `lo..=hi`
    /// ([`TimeSet::clamp_range`]).
    pub fn clamp_range(self, lo: u32, hi: u32) -> TimeSet {
        let mut out = TimeSet::new();
        for &(a, b) in self.0 {
            let (a, b) = (a.max(lo), b.min(hi));
            if a <= b {
                out.push_run((a, b));
            }
        }
        out
    }

    /// An owned copy.
    pub fn to_set(self) -> TimeSet {
        let mut out = TimeSet::new();
        for &run in self.0 {
            out.push_run(run);
        }
        out
    }
}

impl fmt::Display for TimeRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &(lo, hi)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if lo == hi {
                write!(f, "{lo}")?;
            } else {
                write!(f, "{lo}-{hi}")?;
            }
        }
        Ok(())
    }
}

impl PartialEq<TimeSet> for TimeRef<'_> {
    fn eq(&self, other: &TimeSet) -> bool {
        self.0 == other.intervals()
    }
}

/// Inserts `v` into the runs of a set of more than one run, coalescing
/// adjacent runs.
fn insert_into(runs: &mut Vec<(u32, u32)>, v: u32) {
    // Find the first run with lo > v.
    let pos = runs.partition_point(|&(lo, _)| lo <= v);
    // Check the run before: may contain or be adjacent to v.
    if pos > 0 {
        let hi = runs[pos - 1].1;
        if v <= hi {
            return; // already present
        }
        if v == hi + 1 {
            runs[pos - 1].1 = v;
            // maybe coalesce with the following run
            if pos < runs.len() && runs[pos].0 == v + 1 {
                runs[pos - 1].1 = runs[pos].1;
                runs.remove(pos);
            }
            return;
        }
    }
    // Check the run after: v may extend it downwards.
    if pos < runs.len() && runs[pos].0 == v + 1 {
        runs[pos].0 = v;
        return;
    }
    runs.insert(pos, (v, v));
}

/// Removes `v` from the runs of a set of more than one run, splitting the
/// run that holds it if needed.
fn remove_from(runs: &mut Vec<(u32, u32)>, v: u32) {
    let pos = runs.partition_point(|&(_, hi)| hi < v);
    let Some(&(lo, hi)) = runs.get(pos).filter(|&&(lo, _)| lo <= v) else {
        return;
    };
    match (v == lo, v == hi) {
        (true, true) => {
            runs.remove(pos);
        }
        (true, false) => runs[pos].0 = v + 1,
        (false, true) => runs[pos].1 = v - 1,
        (false, false) => {
            runs[pos].1 = v - 1;
            runs.insert(pos + 1, (v + 1, hi));
        }
    }
}

impl FromIterator<u32> for TimeSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut t = TimeSet::new();
        for v in iter {
            t.insert(v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn paper_example_notation() {
        // "the time intervals [1-3,5,7-9] denotes the set {1,2,3,5,7,8,9}"
        let t = TimeSet::parse("1-3,5,7-9").unwrap();
        let got: Vec<u32> = t.versions().collect();
        assert_eq!(got, vec![1, 2, 3, 5, 7, 8, 9]);
        assert_eq!(t.to_string(), "1-3,5,7-9");
        assert_eq!(t.count(), 7);
        assert_eq!(t.run_count(), 3);
    }

    #[test]
    fn insert_coalesces() {
        let mut t = TimeSet::new();
        for v in [1, 3, 2] {
            t.insert(v);
        }
        assert_eq!(t.to_string(), "1-3");
        t.insert(5);
        assert_eq!(t.to_string(), "1-3,5");
        t.insert(4);
        assert_eq!(t.to_string(), "1-5");
        t.insert(4); // idempotent
        assert_eq!(t.to_string(), "1-5");
    }

    #[test]
    fn remove_splits() {
        let mut t = TimeSet::from_range(1, 5);
        t.remove(3);
        assert_eq!(t.to_string(), "1-2,4-5");
        t.remove(1);
        assert_eq!(t.to_string(), "2,4-5");
        t.remove(2);
        assert_eq!(t.to_string(), "4-5");
        t.remove(9); // absent: no-op
        assert_eq!(t.to_string(), "4-5");
    }

    #[test]
    fn contains_works_across_runs() {
        let t = TimeSet::parse("1-3,7,10-12").unwrap();
        for v in [1, 2, 3, 7, 10, 11, 12] {
            assert!(t.contains(v), "{v}");
        }
        for v in [0, 4, 6, 8, 9, 13] {
            assert!(!t.contains(v), "{v}");
        }
    }

    #[test]
    fn union_merges_and_coalesces() {
        let a = TimeSet::parse("1-3,8").unwrap();
        let b = TimeSet::parse("4-6,8,10").unwrap();
        assert_eq!(a.union(&b).to_string(), "1-6,8,10");
        assert_eq!(b.union(&a), a.union(&b));
        assert_eq!(a.union(&TimeSet::new()), a);
    }

    #[test]
    fn superset_relation() {
        let parent = TimeSet::parse("1-10").unwrap();
        let child = TimeSet::parse("2-4,7").unwrap();
        assert!(parent.is_superset(&child));
        assert!(!child.is_superset(&parent));
        assert!(parent.is_superset(&TimeSet::new()));
        let split = TimeSet::parse("1-4,6-10").unwrap();
        assert!(!split.is_superset(&TimeSet::parse("4-6").unwrap()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TimeSet::parse("x").is_err());
        assert!(TimeSet::parse("3-1").is_err());
        assert!(TimeSet::parse("1,,2").is_err());
        assert_eq!(TimeSet::parse("").unwrap(), TimeSet::new());
    }

    #[test]
    fn display_parse_round_trip() {
        for s in ["1", "1-2", "1-3,5,7-9", "2,4,6,8", ""] {
            let t = TimeSet::parse(s).unwrap();
            assert_eq!(TimeSet::parse(&t.to_string()).unwrap(), t);
        }
    }

    #[test]
    fn min_max() {
        let t = TimeSet::parse("3-5,9").unwrap();
        assert_eq!(t.min(), Some(3));
        assert_eq!(t.max(), Some(9));
        assert_eq!(TimeSet::new().max(), None);
    }

    /// Model-based check against BTreeSet over a deterministic op sequence.
    #[test]
    fn model_based_ops() {
        let mut t = TimeSet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..5000 {
            let v = (next() % 60) as u32;
            if next() % 3 == 0 {
                t.remove(v);
                model.remove(&v);
            } else {
                t.insert(v);
                model.insert(v);
            }
            // invariants
            for w in 0..60u32 {
                assert_eq!(t.contains(w), model.contains(&w));
            }
            assert_canonical(&t);
        }
        let got: Vec<u32> = t.versions().collect();
        let want: Vec<u32> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    /// Runs are canonical — sorted, disjoint, non-adjacent — and a set of
    /// exactly one run holds it inline.
    fn assert_canonical(t: &TimeSet) {
        for w in t.intervals().windows(2) {
            assert!(
                w[0].1 + 1 < w[1].0,
                "non-canonical runs: {:?}",
                t.intervals()
            );
        }
        assert_eq!(matches!(t.runs, Runs::One(_)), t.run_count() == 1, "{t:?}");
    }

    #[test]
    fn union_and_clamp_match_the_model() {
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n) as u32
        };
        for _ in 0..500 {
            let mut sets = [
                (TimeSet::new(), BTreeSet::new()),
                (TimeSet::new(), BTreeSet::new()),
            ];
            for (t, model) in &mut sets {
                let density = 1 + next(4);
                for v in 1..=40u32 {
                    if next(4) < density {
                        t.insert(v);
                        model.insert(v);
                    }
                }
            }
            let [(a, ma), (b, mb)] = &sets;
            let u = a.union(b);
            assert_canonical(&u);
            assert_eq!(u.versions().collect::<BTreeSet<u32>>(), ma | mb);
            let (lo, hi) = (next(45), next(45));
            let c = a.clamp_range(lo, hi);
            assert_canonical(&c);
            let want: BTreeSet<u32> = ma
                .iter()
                .copied()
                .filter(|v| (lo..=hi).contains(v))
                .collect();
            assert_eq!(c.versions().collect::<BTreeSet<u32>>(), want, "{lo}..={hi}");
        }
    }

    /// One run is held inline, none or several in a vector — and equality,
    /// hashing and `Debug` read the intervals, never the representation.
    #[test]
    fn a_one_run_set_compares_by_its_intervals() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let inline = TimeSet::from_range(1, 3);
        let spilled = TimeSet {
            runs: Runs::Many(vec![(1, 3)]),
        };
        assert!(matches!(inline.runs, Runs::One(_)));
        assert_eq!(inline, spilled);
        let hash = |t: &TimeSet| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&inline), hash(&spilled));
        assert_eq!(format!("{inline:?}"), format!("{spilled:?}"));
        assert_eq!(format!("{inline:?}"), "TimeSet { runs: [(1, 3)] }");
        assert_ne!(inline, TimeSet::new());
    }

    #[test]
    fn pushed_runs_coalesce_like_a_union() {
        let mut t = TimeSet::new();
        for run in [(1, 2), (3, 3), (5, 6), (6, 9), (12, 12)] {
            t.push_run(run);
            assert_canonical(&t);
        }
        assert_eq!(t.to_string(), "1-3,5-9,12");
        let mut one = TimeSet::new();
        one.push_run((4, 4));
        one.push_run((5, 8));
        assert_eq!(one, TimeSet::from_range(4, 8));
        assert_canonical(&one);
    }

    #[test]
    fn removal_splits_and_rejoins_one_run() {
        let mut t = TimeSet::from_range(1, 5);
        t.remove(3);
        assert_eq!(t.to_string(), "1-2,4-5");
        t.insert(3);
        assert_canonical(&t);
        assert_eq!(t, TimeSet::from_range(1, 5));
        t.remove(0);
        t.remove(6);
        assert_eq!(t, TimeSet::from_range(1, 5));
        for v in 1..=5 {
            t.remove(v);
            assert_canonical(&t);
        }
        assert!(t.is_empty());
    }
}
