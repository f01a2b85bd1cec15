//! Pattern index: dictionary-encoded deduplication of rows into distinct
//! value patterns.
//!
//! Categorical files have far fewer *distinct* protected-attribute patterns
//! than records — at most `Π_k c_k` (1568 for the paper's Adult selection of
//! 16 × 7 × 14 categories) regardless of row count. A [`PatternIndex`] maps
//! each row to the id of its distinct pattern and keeps, per pattern, the
//! codes, the multiplicity (how many rows currently carry it) and
//! per-attribute inverted postings. Any per-record computation whose result
//! depends only on the record's own values then costs `O(p)` pattern
//! evaluations plus an `O(n)` fan-out instead of `O(n)` full evaluations —
//! this is what turns the all-pairs `O(n²·a)` linkage scans of the metrics
//! crate into `O(n·a + p_m·p_o·a)` blocked scans.
//!
//! # Invariants
//!
//! * **Stable ids.** A pattern id, once assigned to a code tuple, is never
//!   reused for a different tuple — a pattern whose multiplicity drops to 0
//!   keeps its id (a tombstone, skipped by [`PatternIndex::iter_live`]) and
//!   revives with the same id when a row moves back onto it. Caches keyed by
//!   pattern id therefore stay valid across arbitrary [`PatternIndex::move_row`]
//!   sequences.
//! * **First-occurrence order.** Ids are assigned in order of first
//!   appearance, and [`PatternIndex::iter_live`] yields live patterns in id
//!   order. Consumers that must replay a row-order scan deterministically
//!   (e.g. bit-exact tie-breaking in record linkage) rely on this.
//! * **Exact multiplicities.** `Σ multiplicity(live patterns) == n_rows` at
//!   all times; [`PatternIndex::move_row`] maintains this incrementally in
//!   `O(a)` hash work per call.

use std::collections::HashMap;

use crate::{Code, DatasetError, Result, SubTable};

/// Id of a distinct pattern inside a [`PatternIndex`].
pub type PatternId = u32;

/// Distinct-row index over a [`SubTable`]: pattern dictionary, row → pattern
/// map, multiplicities and per-attribute inverted postings.
///
/// See the module docs for the id-stability and ordering invariants.
#[derive(Debug, Clone)]
pub struct PatternIndex {
    n_attrs: usize,
    /// Pattern codes, `n_attrs` per pattern: pattern `p` is
    /// `codes[p*n_attrs .. (p+1)*n_attrs]`.
    codes: Vec<Code>,
    /// Rows currently carrying each pattern (0 = tombstone).
    mult: Vec<u32>,
    /// Pattern id of each row.
    row_pid: Vec<PatternId>,
    /// Code tuple → pattern id.
    lookup: HashMap<Vec<Code>, PatternId>,
    /// `postings[k][v]` = ids of every pattern (live or tombstoned) whose
    /// attribute `k` carries code `v`. Append-only; filter by multiplicity.
    postings: Vec<Vec<Vec<PatternId>>>,
    /// Number of patterns with non-zero multiplicity.
    n_live: usize,
}

impl PatternIndex {
    /// Index every row of `sub`. `O(n·a)` expected time.
    pub fn build(sub: &SubTable) -> Self {
        let n = sub.n_rows();
        let a = sub.n_attrs();
        let postings = (0..a)
            .map(|k| vec![Vec::new(); sub.attr(k).n_categories()])
            .collect();
        let mut idx = PatternIndex {
            n_attrs: a,
            codes: Vec::new(),
            mult: Vec::new(),
            row_pid: Vec::with_capacity(n),
            lookup: HashMap::new(),
            postings,
            n_live: 0,
        };
        let mut buf = vec![0 as Code; a];
        for row in 0..n {
            sub.read_row(row, &mut buf);
            let pid = idx.intern(&buf);
            idx.mult[pid as usize] += 1;
            if idx.mult[pid as usize] == 1 {
                idx.n_live += 1;
            }
            idx.row_pid.push(pid);
        }
        idx
    }

    /// Rebuild an index from its serialized parts: the flat pattern
    /// dictionary (`n_attrs` codes per pattern), the per-pattern
    /// multiplicities and the row → pattern map. `cats[k]` is the
    /// dictionary size of attribute `k`, used to size the postings.
    ///
    /// The derived structures (`lookup`, `postings`, `n_live`) are rebuilt
    /// by visiting the patterns in id order — exactly the order
    /// [`PatternIndex::build`] interned them in — so the result is
    /// bit-identical to the index the parts were taken from, posting order
    /// included.
    ///
    /// # Errors
    /// [`DatasetError::SchemaMismatch`] when the parts are inconsistent:
    /// ragged dictionary, out-of-range codes or pattern ids, duplicate
    /// patterns, or multiplicities that do not sum over the rows.
    pub fn from_parts(
        n_attrs: usize,
        codes: Vec<Code>,
        mult: Vec<u32>,
        row_pid: Vec<PatternId>,
        cats: &[usize],
    ) -> Result<Self> {
        let err = |what: String| DatasetError::SchemaMismatch(format!("pattern index: {what}"));
        if n_attrs == 0 || cats.len() != n_attrs {
            return Err(err(format!(
                "{} category counts for {n_attrs} attributes",
                cats.len()
            )));
        }
        if codes.len() != mult.len() * n_attrs {
            return Err(err(format!(
                "{} codes for {} patterns of {n_attrs} attributes",
                codes.len(),
                mult.len()
            )));
        }
        let n_patterns = mult.len();
        let mut postings: Vec<Vec<Vec<PatternId>>> =
            cats.iter().map(|&c| vec![Vec::new(); c]).collect();
        let mut lookup = HashMap::with_capacity(n_patterns);
        for pid in 0..n_patterns {
            let tuple = &codes[pid * n_attrs..(pid + 1) * n_attrs];
            for (k, &v) in tuple.iter().enumerate() {
                if (v as usize) >= cats[k] {
                    return Err(err(format!(
                        "pattern {pid} carries code {v} on attribute {k} (dictionary size {})",
                        cats[k]
                    )));
                }
                postings[k][v as usize].push(pid as PatternId);
            }
            if lookup.insert(tuple.to_vec(), pid as PatternId).is_some() {
                return Err(err(format!("pattern {pid} duplicates an earlier tuple")));
            }
        }
        let mut counted = vec![0u32; n_patterns];
        for &pid in &row_pid {
            if (pid as usize) >= n_patterns {
                return Err(err(format!("row maps to unknown pattern {pid}")));
            }
            counted[pid as usize] += 1;
        }
        if counted != mult {
            return Err(err("multiplicities do not match the row map".into()));
        }
        let n_live = mult.iter().filter(|&&m| m > 0).count();
        Ok(PatternIndex {
            n_attrs,
            codes,
            mult,
            row_pid,
            lookup,
            postings,
            n_live,
        })
    }

    /// The serialized parts of the index, as
    /// [`PatternIndex::from_parts`] expects them back: the flat pattern
    /// dictionary, the multiplicities and the row → pattern map. The
    /// derived `lookup`/`postings` are not part of the tuple — they rebuild
    /// deterministically.
    pub fn raw_parts(&self) -> (&[Code], &[u32], &[PatternId]) {
        (&self.codes, &self.mult, &self.row_pid)
    }

    /// Approximate heap footprint in bytes: dictionary, multiplicities,
    /// row map, postings and the lookup table's keys.
    pub fn approx_bytes(&self) -> usize {
        let codes = self.codes.len() * std::mem::size_of::<Code>();
        let mult = self.mult.len() * std::mem::size_of::<u32>();
        let rows = self.row_pid.len() * std::mem::size_of::<PatternId>();
        let postings: usize = self
            .postings
            .iter()
            .flatten()
            .map(|p| p.len() * std::mem::size_of::<PatternId>())
            .sum();
        // lookup: one boxed code tuple plus table overhead per pattern
        let lookup = self.lookup.len()
            * (self.n_attrs * std::mem::size_of::<Code>() + std::mem::size_of::<usize>() * 2);
        codes + mult + rows + postings + lookup
    }

    /// Number of attributes per pattern.
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.row_pid.len()
    }

    /// Number of pattern ids ever assigned (live + tombstones). Caches keyed
    /// by pattern id should be sized by this.
    pub fn n_patterns(&self) -> usize {
        self.mult.len()
    }

    /// Number of patterns currently carried by at least one row.
    pub fn n_live(&self) -> usize {
        self.n_live
    }

    /// Pattern id of `row`.
    #[inline]
    pub fn pattern_of(&self, row: usize) -> PatternId {
        self.row_pid[row]
    }

    /// The code tuple of pattern `pid`.
    #[inline]
    pub fn codes_of(&self, pid: PatternId) -> &[Code] {
        let p = pid as usize * self.n_attrs;
        &self.codes[p..p + self.n_attrs]
    }

    /// How many rows currently carry pattern `pid` (0 for a tombstone).
    #[inline]
    pub fn multiplicity(&self, pid: PatternId) -> u32 {
        self.mult[pid as usize]
    }

    /// Live patterns as `(id, codes, multiplicity)`, in id order — which is
    /// first-occurrence order for ids assigned by [`PatternIndex::build`].
    pub fn iter_live(&self) -> impl Iterator<Item = (PatternId, &[Code], u32)> + '_ {
        self.mult
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > 0)
            .map(move |(p, &m)| (p as PatternId, self.codes_of(p as PatternId), m))
    }

    /// Ids of every pattern (live or dead) whose attribute `k` carries code
    /// `v` — the inverted posting list. Filter by [`PatternIndex::multiplicity`].
    pub fn postings(&self, k: usize, v: Code) -> &[PatternId] {
        &self.postings[k][v as usize]
    }

    /// Re-home `row` onto the pattern described by `new_codes` (its current
    /// values in the underlying sub-table). Returns `(old_pid, new_pid)`;
    /// the two are equal when the row's pattern did not actually change.
    /// `O(a)` expected time.
    pub fn move_row(&mut self, row: usize, new_codes: &[Code]) -> (PatternId, PatternId) {
        debug_assert_eq!(new_codes.len(), self.n_attrs);
        let old = self.row_pid[row];
        if self.codes_of(old) == new_codes {
            return (old, old);
        }
        let new = self.intern(new_codes);
        self.mult[old as usize] -= 1;
        if self.mult[old as usize] == 0 {
            self.n_live -= 1;
        }
        self.mult[new as usize] += 1;
        if self.mult[new as usize] == 1 {
            self.n_live += 1;
        }
        self.row_pid[row] = new;
        (old, new)
    }

    /// Look up (or create, with multiplicity 0) the id of a code tuple.
    fn intern(&mut self, codes: &[Code]) -> PatternId {
        if let Some(&pid) = self.lookup.get(codes) {
            return pid;
        }
        let pid = self.mult.len() as PatternId;
        self.codes.extend_from_slice(codes);
        self.mult.push(0);
        self.lookup.insert(codes.to_vec(), pid);
        for (k, &v) in codes.iter().enumerate() {
            self.postings[k][v as usize].push(pid);
        }
        pid
    }

    /// Check the internal invariants (test helper): multiplicities match the
    /// row map, every row's codes match its pattern, postings cover every
    /// pattern exactly once per attribute.
    pub fn check_consistent(&self, sub: &SubTable) {
        assert_eq!(self.n_rows(), sub.n_rows());
        let mut counts = vec![0u32; self.n_patterns()];
        let mut buf = vec![0 as Code; self.n_attrs];
        for row in 0..sub.n_rows() {
            let pid = self.row_pid[row];
            sub.read_row(row, &mut buf);
            assert_eq!(self.codes_of(pid), &buf[..], "row {row} codes drifted");
            counts[pid as usize] += 1;
        }
        assert_eq!(counts, self.mult, "multiplicities drifted");
        assert_eq!(
            self.n_live,
            self.mult.iter().filter(|&&m| m > 0).count(),
            "live count drifted"
        );
        for (k, per_code) in self.postings.iter().enumerate() {
            let mut seen = vec![0u32; self.n_patterns()];
            for (v, pids) in per_code.iter().enumerate() {
                for &pid in pids {
                    assert_eq!(self.codes_of(pid)[k], v as Code, "posting misfiled");
                    seen[pid as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "postings not a partition");
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{Attribute, Schema};

    fn sub(rows: &[[Code; 2]]) -> SubTable {
        let schema = Arc::new(
            Schema::new(vec![Attribute::ordinal("A", 5), Attribute::nominal("B", 4)]).unwrap(),
        );
        let cols = vec![
            rows.iter().map(|r| r[0]).collect(),
            rows.iter().map(|r| r[1]).collect(),
        ];
        SubTable::new(schema, vec![0, 1], cols).unwrap()
    }

    #[test]
    fn dedups_rows_into_first_occurrence_order() {
        let s = sub(&[[0, 1], [2, 3], [0, 1], [4, 0], [2, 3], [0, 1]]);
        let idx = PatternIndex::build(&s);
        assert_eq!(idx.n_rows(), 6);
        assert_eq!(idx.n_patterns(), 3);
        assert_eq!(idx.n_live(), 3);
        let live: Vec<_> = idx.iter_live().collect();
        assert_eq!(live[0], (0, &[0, 1][..], 3));
        assert_eq!(live[1], (1, &[2, 3][..], 2));
        assert_eq!(live[2], (2, &[4, 0][..], 1));
        assert_eq!(idx.pattern_of(4), 1);
        idx.check_consistent(&s);
    }

    #[test]
    fn postings_invert_the_dictionary() {
        let s = sub(&[[0, 1], [2, 3], [0, 3]]);
        let idx = PatternIndex::build(&s);
        assert_eq!(idx.postings(0, 0), &[0, 2]);
        assert_eq!(idx.postings(0, 2), &[1]);
        assert_eq!(idx.postings(1, 3), &[1, 2]);
        assert!(idx.postings(1, 0).is_empty());
    }

    #[test]
    fn move_row_keeps_ids_stable_and_revives_tombstones() {
        let mut s = sub(&[[0, 1], [2, 3], [0, 1]]);
        let mut idx = PatternIndex::build(&s);
        // move row 1 onto pattern [0,1]: [2,3] becomes a tombstone
        s.set(1, 0, 0);
        s.set(1, 1, 1);
        let (old, new) = idx.move_row(1, &[0, 1]);
        assert_eq!((old, new), (1, 0));
        assert_eq!(idx.multiplicity(1), 0);
        assert_eq!(idx.multiplicity(0), 3);
        assert_eq!(idx.n_live(), 1);
        assert_eq!(idx.n_patterns(), 2);
        idx.check_consistent(&s);
        // move it back: same id revives, no new pattern allocated
        s.set(1, 0, 2);
        s.set(1, 1, 3);
        let (old, new) = idx.move_row(1, &[2, 3]);
        assert_eq!((old, new), (0, 1));
        assert_eq!(idx.n_patterns(), 2);
        assert_eq!(idx.n_live(), 2);
        idx.check_consistent(&s);
    }

    #[test]
    fn move_to_same_pattern_is_a_noop() {
        let s = sub(&[[0, 1], [2, 3]]);
        let mut idx = PatternIndex::build(&s);
        let (old, new) = idx.move_row(0, &[0, 1]);
        assert_eq!(old, new);
        idx.check_consistent(&s);
    }

    #[test]
    fn incremental_moves_match_a_fresh_build() {
        // random walk: after arbitrary moves the partition equals a rebuild
        let mut s = sub(&[[0, 1], [1, 2], [2, 3], [3, 0], [4, 1], [0, 1]]);
        let mut idx = PatternIndex::build(&s);
        let moves: &[(usize, [Code; 2])] = &[
            (0, [1, 2]),
            (3, [0, 1]),
            (5, [4, 1]),
            (2, [2, 3]),
            (1, [0, 1]),
            (4, [3, 0]),
        ];
        for &(row, codes) in moves {
            s.set(row, 0, codes[0]);
            s.set(row, 1, codes[1]);
            idx.move_row(row, &codes);
            idx.check_consistent(&s);
        }
        let fresh = PatternIndex::build(&s);
        for row in 0..s.n_rows() {
            assert_eq!(
                idx.codes_of(idx.pattern_of(row)),
                fresh.codes_of(fresh.pattern_of(row))
            );
        }
        assert_eq!(idx.n_live(), fresh.n_live());
    }

    #[test]
    fn from_parts_round_trips_bit_identically() {
        let s = sub(&[[0, 1], [2, 3], [0, 1], [4, 0], [2, 3], [0, 1]]);
        let built = PatternIndex::build(&s);
        let (codes, mult, row_pid) = built.raw_parts();
        let rebuilt = PatternIndex::from_parts(
            built.n_attrs(),
            codes.to_vec(),
            mult.to_vec(),
            row_pid.to_vec(),
            &[5, 4],
        )
        .unwrap();
        rebuilt.check_consistent(&s);
        assert_eq!(rebuilt.n_live(), built.n_live());
        assert_eq!(rebuilt.n_patterns(), built.n_patterns());
        // postings rebuild in the same append order, element for element
        for k in 0..2 {
            for v in 0..s.attr(k).n_categories() as Code {
                assert_eq!(rebuilt.postings(k, v), built.postings(k, v));
            }
        }
        // tombstones survive the round trip with their ids: row 3 is the
        // only holder of pattern [4, 0] (pid 2), so moving it leaves a
        // zero-multiplicity entry
        let mut s2 = s.clone();
        let mut moved = built.clone();
        s2.set(3, 0, 0);
        s2.set(3, 1, 1);
        moved.move_row(3, &[0, 1]);
        let (codes, mult, row_pid) = moved.raw_parts();
        let rebuilt = PatternIndex::from_parts(
            moved.n_attrs(),
            codes.to_vec(),
            mult.to_vec(),
            row_pid.to_vec(),
            &[5, 4],
        )
        .unwrap();
        rebuilt.check_consistent(&s2);
        assert_eq!(rebuilt.multiplicity(2), 0, "tombstone survives");
        assert_eq!(rebuilt.n_live(), moved.n_live());
        assert_eq!(rebuilt.n_patterns(), moved.n_patterns());
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        let s = sub(&[[0, 1], [2, 3]]);
        let idx = PatternIndex::build(&s);
        let (codes, mult, row_pid) = idx.raw_parts();
        let (codes, mult, row_pid) = (codes.to_vec(), mult.to_vec(), row_pid.to_vec());
        // ragged dictionary
        assert!(PatternIndex::from_parts(
            2,
            codes[1..].to_vec(),
            mult.clone(),
            row_pid.clone(),
            &[5, 4]
        )
        .is_err());
        // out-of-range code
        let mut bad = codes.clone();
        bad[0] = 99;
        assert!(PatternIndex::from_parts(2, bad, mult.clone(), row_pid.clone(), &[5, 4]).is_err());
        // row mapped to unknown pattern
        let mut bad_rows = row_pid.clone();
        bad_rows[0] = 7;
        assert!(
            PatternIndex::from_parts(2, codes.clone(), mult.clone(), bad_rows, &[5, 4]).is_err()
        );
        // multiplicities out of sync with the row map
        let mut bad_mult = mult.clone();
        bad_mult[0] += 1;
        assert!(
            PatternIndex::from_parts(2, codes.clone(), bad_mult, row_pid.clone(), &[5, 4]).is_err()
        );
        // duplicate pattern tuple
        let mut dup_codes = codes.clone();
        dup_codes.extend_from_slice(&codes[0..2]);
        let mut dup_mult = mult.clone();
        dup_mult.push(0);
        assert!(PatternIndex::from_parts(2, dup_codes, dup_mult, row_pid, &[5, 4]).is_err());
    }

    #[test]
    fn approx_bytes_counts_all_components() {
        let s = sub(&[[0, 1], [2, 3], [0, 1]]);
        let idx = PatternIndex::build(&s);
        let floor = idx.n_patterns() * 2 * std::mem::size_of::<Code>()
            + idx.n_patterns() * std::mem::size_of::<u32>()
            + idx.n_rows() * std::mem::size_of::<PatternId>();
        assert!(idx.approx_bytes() > floor, "postings and lookup counted");
    }
}
