//! Document access interdependencies (§3.1).
//!
//! `p[i,j]` is the conditional probability that `D_j` is requested
//! within a window `T_w` of a request for `D_i`, estimated per client
//! from the server log. The paper distinguishes *embedding* dependencies
//! (`p = 1`: inline objects) from *traversal* dependencies (`p ≈ 1/k`:
//! one of a page's `k` anchors).
//!
//! `P*` is the closure: the probability of a **request sequence** from
//! `D_i` to `D_j` with every hop inside `T_w` of its predecessor. The
//! paper writes `P* = P^N`; taken literally over (+, ×) that sum can
//! exceed 1, so we compute the standard probabilistic reading — the
//! **max-product** path probability (the best chain), which is the
//! fixpoint of `P` over the (max, ×) semiring, keeps every entry in
//! `[0, 1]`, dominates `P` entrywise, and equals `P^N` on the chain
//! structures (embedding trees) the closure exists for.
//!
//! Both matrices are a [`DepMatrix`]: one compressed-row array whose rows
//! are kept most-probable-first, the order the server reads them in. A
//! request for `D_i` is answered with the `D_j` of `p*[i,j] ≥ T_p` — a
//! prefix of row `i` — and the closure search, which relaxes along rows
//! of `P`, stops at the first edge whose path falls below the floor.

use std::collections::{BTreeMap, HashMap, VecDeque};

use specweb_core::ids::{ClientId, DocId};
use specweb_core::stats::Histogram;
use specweb_core::time::Duration;
use specweb_core::units::Bytes;
use specweb_core::{CoreError, Result};
use specweb_trace::generator::Access;

/// A sparse conditional-probability matrix in compressed-row form.
///
/// Each row is stored the way it is read, probability-descending with
/// ids ascending on ties: the candidates of a policy threshold
/// (`p*[i,j] ≥ T_p`) or of a `TopK` cut are a *prefix* of the row, and a
/// closure relaxation stops at the first edge that falls below the
/// floor. The order is total (`f64::total_cmp`, then id), so equal
/// contents are equal matrices, and results never depend on hash
/// iteration order. The estimators reach it by sorting integer keys —
/// counts for `P` ([`DepMatrixBuilder::build`]), the high half of `p`'s
/// bits for `P*` and the aged blend, with ties on it sorted again —
/// which order a row exactly as the comparator does.
///
/// The entries are held split, their ids in one array and their
/// probabilities in another: 12 bytes an entry, where a `(DocId, f64)`
/// pair takes 16 with its padding. [`DepMatrix::row`] reads a row of
/// both as a [`Row`]. Every constructor yields entries in `(0, 1]`:
/// [`DepMatrixBuilder::build`] a quotient `min(n, occ) / occ`, the aged
/// blend a weighted mean capped at 1 with its zeros dropped, and the
/// closure products of such entries.
#[derive(Debug, Clone, PartialEq)]
pub struct DepMatrix {
    /// Row `i` is `starts[i.index()]..starts[i.index() + 1]` of `ids`
    /// and `ps`, for every id up to the largest that has a row.
    starts: Vec<usize>,
    /// The target `j` of every entry (`p > 0`), row after row.
    ids: Vec<DocId>,
    /// The `p` of every entry, at its `j`'s index in `ids`.
    ps: Vec<f64>,
    /// Rows of [`DepMatrix::closure`] that reach more than `4 ·
    /// max_row` documents (the safety valve), and so may under-report
    /// `P*` reach. Zero for directly-estimated matrices. Surfaced
    /// (never silently dropped) so sweeps can tell a pruned closure
    /// from a complete one.
    truncated_rows: u64,
}

/// One row of a [`DepMatrix`]: its `(j, p)` entries, most probable
/// first, ids ascending on ties.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    ids: &'a [DocId],
    ps: &'a [f64],
}

type RowIter<'a> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'a, DocId>>,
    std::iter::Copied<std::slice::Iter<'a, f64>>,
>;

impl<'a> Row<'a> {
    /// The entries in row order.
    pub fn iter(&self) -> RowIter<'a> {
        self.ids.iter().copied().zip(self.ps.iter().copied())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the row has no entry.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl<'a> IntoIterator for Row<'a> {
    type Item = (DocId, f64);
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl DepMatrix {
    /// An empty matrix (speculation finds no candidates).
    pub fn empty() -> Self {
        DepMatrix::from_entries(std::iter::empty())
    }

    /// A matrix with no row yet, for rows to be appended in ascending
    /// id order.
    fn no_rows() -> DepMatrix {
        DepMatrix {
            starts: Vec::new(),
            ids: Vec::new(),
            ps: Vec::new(),
            truncated_rows: 0,
        }
    }

    /// Makes the entries from `start` to the end row `i`, the row after
    /// the last one appended: ids in between have none.
    fn seal_row(&mut self, i: DocId, start: usize) {
        self.starts.resize(i.index() + 1, start);
    }

    /// Ends the last row. A store holds the matrix for a whole run, so
    /// the arrays give back what they grew past their length.
    fn finished(mut self) -> DepMatrix {
        self.starts.push(self.ids.len());
        self.starts.shrink_to_fit();
        self.ids.shrink_to_fit();
        self.ps.shrink_to_fit();
        self
    }

    /// Appends the rows of `part`, all of them past this one's, as
    /// another matrix under construction (its last row not ended) holds
    /// them.
    fn append(&mut self, part: DepMatrix) {
        let offset = self.ids.len();
        // `part.starts` is 0 up to its first row: those ids start where
        // this matrix's last row ends.
        let below = self.starts.len().min(part.starts.len());
        (self.starts).extend(part.starts[below..].iter().map(|&s| offset + s));
        self.ids.extend(part.ids);
        self.ps.extend(part.ps);
        self.truncated_rows += part.truncated_rows;
    }

    /// The matrix holding `entries` (`(i, j, p)`, each pair at most
    /// once), given in any order, each row put in row order by the
    /// comparator. [`DepMatrixBuilder::build`], [`DepMatrix::blend`] and
    /// the closure order their rows by integer keys instead, into the
    /// same order. The entries are walked twice and laid straight into
    /// arrays of exactly their number, with no copy in between — a
    /// `MatrixStore` holds one matrix pair per boundary for a whole run,
    /// and its peak is the estimate being built on top of them.
    pub(crate) fn from_entries(
        entries: impl Iterator<Item = (DocId, DocId, f64)> + Clone,
    ) -> DepMatrix {
        let starts = row_starts(entries.clone().map(|(i, _, _)| i));
        let (mut ids, mut ps) = by_row(&starts, entries);
        for row in starts.windows(2) {
            sort_row(&mut ids[row[0]..row[1]], &mut ps[row[0]..row[1]]);
        }
        DepMatrix {
            starts,
            ids,
            ps,
            truncated_rows: 0,
        }
    }

    /// The weighted mean of `parts`, `Σ w·p[i,j] / Σ w` capped at 1, each
    /// pair summed in the order the parts are given (a pair absent from
    /// a part adds nothing). Equal to [`DepMatrix::from_entries`] of
    /// those sums: rows are blended one at a time, in a table indexed by
    /// `j`, ordered by [`coarse_key`] and laid straight into the result.
    pub(crate) fn blend(parts: &[(f64, &DepMatrix)]) -> Self {
        let wsum = parts.iter().fold(0.0, |sum, (w, _)| sum + w);
        let n_rows = parts.iter().map(|(_, m)| m.starts.len().saturating_sub(1));
        let mut out = DepMatrix::no_rows();
        // `sums[j]` is `(i + 1, Σ w·p[i,j])`: the stamp of the row that
        // last touched it, so a new row starts every sum afresh (at
        // `0.0 + w * p`) without clearing the table. Once row `i` is
        // summed, the slot holds `p[i,j]`.
        let mut sums: Vec<(usize, f64)> = Vec::new();
        let (mut touched, mut keys) = (Vec::new(), Vec::new());
        for i in 0..n_rows.max().unwrap_or(0) {
            touched.clear();
            for &(w, m) in parts {
                for (j, p) in m.row(DocId::from(i)) {
                    if sums.len() <= j.index() {
                        sums.resize(j.index() + 1, (0, 0.0));
                    }
                    let sum = &mut sums[j.index()];
                    if sum.0 != i + 1 {
                        *sum = (i + 1, 0.0);
                        touched.push(j);
                    }
                    sum.1 += w * p;
                }
            }
            keys.clear();
            for &j in &touched {
                let p = &mut sums[j.index()].1;
                *p = (*p / wsum).min(1.0);
                if *p > 0.0 {
                    keys.push(coarse_key(j, *p));
                }
            }
            if !keys.is_empty() {
                let start = out.ids.len();
                push_row_by_coarse_key(&mut out, &mut keys, |j| sums[j.index()].1);
                out.seal_row(DocId::from(i), start);
            }
        }
        out.finished()
    }

    /// The probability `p[i,j]` (0 when absent).
    pub fn get(&self, i: DocId, j: DocId) -> f64 {
        let row = self.row(i);
        row.ids
            .iter()
            .position(|&d| d == j)
            .map_or(0.0, |k| row.ps[k])
    }

    /// The non-zero entries of row `i`, most probable first (ids
    /// ascending on ties).
    pub fn row(&self, i: DocId) -> Row<'_> {
        match self.starts.get(i.index()..i.index() + 2) {
            Some(&[a, b]) => Row {
                ids: &self.ids[a..b],
                ps: &self.ps[a..b],
            },
            _ => Row { ids: &[], ps: &[] },
        }
    }

    /// The ids that have a row, in ascending order.
    pub(crate) fn sources(&self) -> impl Iterator<Item = DocId> + '_ {
        let ids = (0..self.starts.len().saturating_sub(1)).map(DocId::from);
        ids.filter(|&i| !self.row(i).is_empty())
    }

    /// Number of non-empty rows.
    pub fn n_rows(&self) -> usize {
        self.sources().count()
    }

    /// Total number of stored entries.
    pub fn n_entries(&self) -> usize {
        self.ids.len()
    }

    /// The heap the matrix holds: its three arrays at their capacity.
    pub fn heap_bytes(&self) -> Bytes {
        vec_bytes(&self.starts) + vec_bytes(&self.ids) + vec_bytes(&self.ps)
    }

    /// Closure rows that reach more than `4 · max_row` documents (0 for
    /// direct matrices). A non-zero value means `P*` reach is
    /// under-reported for those sources; callers running sweeps should
    /// surface it.
    pub fn truncated_rows(&self) -> u64 {
        self.truncated_rows
    }

    /// Iterates over all `(i, j, p)` entries, row by row.
    pub fn entries(&self) -> impl Iterator<Item = (DocId, DocId, f64)> + '_ {
        self.sources()
            .flat_map(|i| self.row(i).iter().map(move |(j, p)| (i, j, p)))
    }

    /// Fig. 4: histogram of pair counts over `p[i,j]` ranges. Entries at
    /// exactly 1.0 (embedding dependencies) clamp into the top bin.
    pub fn probability_histogram(&self, nbins: usize) -> Histogram {
        let mut h = Histogram::new(0.0, 1.0, nbins);
        for (_, _, p) in self.entries() {
            h.push(p);
        }
        h
    }

    /// The max-product transitive closure `P*`, pruned: entries below
    /// `floor` are dropped (they can never pass a policy threshold
    /// `T_p ≥ floor`) and each row keeps its first `max_row` entries.
    ///
    /// Each source row is the fixpoint `best[j] = max_d best[d]·p[d,j]`
    /// from `best[src] = 1` over every document it reaches at or above
    /// the floor, put in row order by its coarse keys and cut to
    /// `max_row`: the row at one bound is a prefix of the row at any
    /// larger one. Path probabilities only decay, so the floor bounds
    /// the explored frontier tightly. Source rows are independent, so
    /// they are mapped in parallel on the process-default pool.
    ///
    /// A row that reaches more than `4 · max_row` documents hits the
    /// safety valve: it is **counted** in the result's
    /// [`DepMatrix::truncated_rows`] — the cap is never silent.
    pub fn closure(&self, floor: f64, max_row: usize) -> Result<DepMatrix> {
        self.closure_jobs(floor, max_row, specweb_core::par::default_jobs())
    }

    /// [`DepMatrix::closure`] with an explicit worker count. The output
    /// is byte-identical for every `jobs` value: each source row is a
    /// pure function of the matrix, and rows are assembled in source
    /// order.
    pub fn closure_jobs(&self, floor: f64, max_row: usize, jobs: usize) -> Result<DepMatrix> {
        self.closure_of(|_| true, floor, max_row, jobs)
    }

    /// The rows of [`DepMatrix::closure_jobs`] whose source is `wanted`,
    /// and no other: each one bit for bit as the full closure holds it,
    /// since the search from a source still walks every row of `P` it
    /// reaches. [`DepMatrix::truncated_rows`] counts the valve rows
    /// among them.
    pub(crate) fn closure_of(
        &self,
        wanted: impl Fn(DocId) -> bool,
        floor: f64,
        max_row: usize,
        jobs: usize,
    ) -> Result<DepMatrix> {
        if !(0.0 < floor && floor <= 1.0) {
            return Err(CoreError::invalid_config(
                "closure.floor",
                format!("must be in (0, 1], got {floor}"),
            ));
        }
        let _f = specweb_core::obs::profile::frame("deps.closure");
        // The search keeps one slot per id up to the largest and stamps
        // slots with `source + 1` in a `u32`.
        let largest = self.ids.iter().map(|j| j.index() + 1).max();
        let n_docs = largest
            .unwrap_or(0)
            .max(self.starts.len().saturating_sub(1));
        if u32::try_from(n_docs).is_err() {
            return Err(CoreError::invalid_config(
                "closure.matrix",
                format!("document ids must stay below {}", u32::MAX),
            ));
        }
        let srcs: Vec<DocId> = self.sources().filter(|&i| wanted(i)).collect();
        let pool = specweb_core::par::Pool::new(jobs);
        // A few chunks per worker balance uneven rows; each chunk owns
        // one `Search`, so its scratch is reused across the chunk's
        // sources instead of being rebuilt per source. A single worker
        // takes one chunk, whose rows then are the result as laid.
        let per_chunk = match pool.jobs() {
            1 => srcs.len(),
            jobs => srcs.len().div_ceil(jobs * 4),
        };
        let chunks: Vec<&[DocId]> = srcs.chunks(per_chunk.max(1)).collect();
        let parts = pool.map_indexed(&chunks, |_, chunk| {
            let mut search = Search::new(n_docs);
            let mut part = DepMatrix::no_rows();
            for &src in chunk.iter() {
                let start = part.ids.len();
                part.truncated_rows +=
                    u64::from(search.best_paths_from(self, src, floor, max_row, &mut part));
                if part.ids.len() > start {
                    part.seal_row(src, start);
                }
            }
            part
        });
        let mut parts = parts.into_iter();
        let mut out = parts.next().unwrap_or_else(DepMatrix::no_rows);
        for part in parts {
            out.append(part);
        }
        Ok(out.finished())
    }
}

#[cfg(test)]
impl DepMatrix {
    /// `(i, j, bits of p)` of every entry, in stored order: what the
    /// bit-for-bit tests of this crate compare.
    pub(crate) fn bits(&self) -> Vec<(DocId, DocId, u64)> {
        self.entries()
            .map(|(i, j, p)| (i, j, p.to_bits()))
            .collect()
    }

    /// Whether every row descends in probability, ids ascending on ties.
    pub(crate) fn rows_in_order(&self) -> bool {
        (self.sources()).all(|i| {
            let row: Vec<(DocId, f64)> = self.row(i).iter().collect();
            (row.windows(2)).all(|w| row_order(&w[0], &w[1]).is_lt())
        })
    }
}

/// The heap a vector holds at its capacity.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> Bytes {
    let bytes = v.capacity().saturating_mul(std::mem::size_of::<T>());
    Bytes::new(u64::try_from(bytes).unwrap_or(u64::MAX))
}

/// The order of a stored row: probability descending (`total_cmp`, so
/// a NaN has its place too), ids ascending on ties.
fn row_order(a: &(DocId, f64), b: &(DocId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Puts the row `ids`/`ps` (of one length) in row order by the
/// comparator.
fn sort_row(ids: &mut [DocId], ps: &mut [f64]) {
    if ids.len() < 2 {
        return;
    }
    let mut row: Vec<(DocId, f64)> = ids.iter().copied().zip(ps.iter().copied()).collect();
    row.sort_unstable_by(row_order);
    for ((id, p), (j, q)) in ids.iter_mut().zip(ps.iter_mut()).zip(row) {
        (*id, *p) = (j, q);
    }
}

/// The coarse key of a row entry: the high half of `p`'s bits,
/// inverted, above the id. On values with the sign bit clear the bits
/// rise as `total_cmp` does, so ascending keys are row order except
/// among entries whose `p`s differ only in their low 32 bits, which
/// [`push_row_by_coarse_key`] puts right.
fn coarse_key(j: DocId, p: f64) -> u64 {
    debug_assert!(p.is_sign_positive(), "no coarse key for p = {p}");
    (!(p.to_bits() >> 32)) << 32 | u64::from(j.raw())
}

/// The id a row key ([`coarse_key`], or the count key of
/// [`DepMatrixBuilder::build`]) holds in its low half.
fn key_id(key: u64) -> DocId {
    DocId::new(key as u32)
}

/// Appends to the entries of `out` the row of `keys`, the
/// [`coarse_key`]s of its entries in any order, reading each entry's `p`
/// from `p_of`. Ascending keys order the row by the high half of `p`,
/// ids ascending within a tie: row order, unless two entries whose `p`s
/// share the high half differ in the low one. Those sit next to each
/// other, and a row that holds such a pair is sorted again by
/// [`row_order`]. The order is total, so the row comes out as
/// [`DepMatrix::from_entries`] lays it, bit for bit.
fn push_row_by_coarse_key(out: &mut DepMatrix, keys: &mut [u64], p_of: impl Fn(DocId) -> f64) {
    keys.sort_unstable();
    let start = out.ids.len();
    out.ids.extend(keys.iter().map(|&k| key_id(k)));
    out.ps.extend(keys.iter().map(|&k| p_of(key_id(k))));
    let (ids, ps) = (&mut out.ids[start..], &mut out.ps[start..]);
    let (high, bits) = (|p: f64| p.to_bits() >> 32, f64::to_bits);
    if (ps.windows(2)).any(|w| high(w[0]) == high(w[1]) && bits(w[0]) != bits(w[1])) {
        sort_row(ids, ps);
    }
}

/// The bounds of rows holding entries from `sources`, given in any
/// order: row `i` is `starts[i]..starts[i + 1]`. The first half of a
/// counting sort by source; [`by_row`] is the second.
fn row_starts(sources: impl Iterator<Item = DocId>) -> Vec<usize> {
    // `starts[i + 1]` counts row `i`, then becomes its end.
    let mut starts = vec![0];
    for i in sources {
        if starts.len() < i.index() + 2 {
            starts.resize(i.index() + 2, 0);
        }
        starts[i.index() + 1] += 1;
    }
    for d in 1..starts.len() {
        starts[d] += starts[d - 1];
    }
    starts.shrink_to_fit();
    starts
}

/// The `j`s and values of `entries` (`(i, j, value)`) laid out row by
/// row within `starts` (which [`row_starts`] counted from the same
/// sources), each row in the order given.
fn by_row(
    starts: &[usize],
    entries: impl Iterator<Item = (DocId, DocId, f64)>,
) -> (Vec<DocId>, Vec<f64>) {
    let n = starts[starts.len() - 1];
    let (mut ids, mut ps) = (vec![DocId::default(); n], vec![0.0; n]);
    let mut next = starts.to_vec();
    for (i, j, p) in entries {
        let at = &mut next[i.index()];
        (ids[*at], ps[*at]) = (j, p);
        *at += 1;
    }
    (ids, ps)
}

/// What the pass from the current source knows about one document.
/// `seen` holds `source + 1` (0 = never touched), so moving to the next
/// source invalidates every slot without clearing any.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Best path probability found so far; valid iff `seen` is the
    /// current stamp.
    best: f64,
    seen: u32,
    /// The document waits in the worklist. Every pass drains the
    /// worklist, so this is clear between passes.
    queued: bool,
}

/// One worker's reusable state for [`Search::best_paths_from`].
struct Search {
    slots: Vec<Slot>,
    /// The documents reached from the current source, in the order the
    /// pass first reached them.
    reached: Vec<DocId>,
    queue: VecDeque<DocId>,
    /// The [`coarse_key`]s of the row: one per document at most, so
    /// sized once, like `slots`.
    keys: Vec<u64>,
}

impl Search {
    fn new(n_docs: usize) -> Search {
        Search {
            slots: vec![Slot::default(); n_docs],
            reached: Vec::new(),
            queue: VecDeque::new(),
            keys: Vec::with_capacity(n_docs),
        }
    }

    /// Appends to the entries of `out` the best path probability from
    /// `src` to every doc it reaches at or above `floor`, as a row of the
    /// closure: the whole row in row order, cut to its first `max_row`
    /// entries. Returns whether the row reaches more than `4 · max_row`
    /// documents (the safety valve).
    fn best_paths_from(
        &mut self,
        m: &DepMatrix,
        src: DocId,
        floor: f64,
        max_row: usize,
        out: &mut DepMatrix,
    ) -> bool {
        self.fixpoint(m, src, floor);
        // Every value lies in `[floor, 1]`, so it has a coarse key.
        let slots = &self.slots;
        let p_of = |j: DocId| slots[j.index()].best;
        self.keys.clear();
        (self.keys).extend(self.reached.iter().map(|&j| coarse_key(j, p_of(j))));
        let end = out.ids.len() + max_row.min(self.reached.len());
        push_row_by_coarse_key(out, &mut self.keys, p_of);
        out.ids.truncate(end);
        out.ps.truncate(end);
        self.reached.len() > max_row.saturating_mul(4)
    }

    /// The best paths from `src` as the fixpoint `best[j] = max_d
    /// best[d]·p[d,j]`, left in the slots of `self.reached`: a FIFO
    /// worklist re-relaxes a document whenever its value rises. Every
    /// rise is strict, and with every edge in `(0, 1]` no cycle raises a
    /// path, so each value ends at the best of finitely many simple-path
    /// products and the pass ends.
    fn fixpoint(&mut self, m: &DepMatrix, src: DocId, floor: f64) {
        let stamp = src.raw() + 1;
        self.reached.clear();
        let (mut d, mut p) = (src, 1.0);
        loop {
            for (j, pj) in m.row(d) {
                let cand = p * pj;
                if cand < floor {
                    // The row descends in probability and `p ≥ 0`, so
                    // every later candidate is below the floor too.
                    break;
                }
                if j == src {
                    continue;
                }
                let slot = &mut self.slots[j.index()];
                if slot.seen != stamp {
                    slot.seen = stamp;
                    slot.best = 0.0;
                }
                if cand > slot.best {
                    if slot.best == 0.0 {
                        // Reached for the first time: `cand ≥ floor > 0`
                        // (a NaN candidate never gets here).
                        self.reached.push(j);
                    }
                    slot.best = cand;
                    if !slot.queued {
                        slot.queued = true;
                        self.queue.push_back(j);
                    }
                }
            }
            let Some(next) = self.queue.pop_front() else {
                return;
            };
            let slot = &mut self.slots[next.index()];
            slot.queued = false;
            (d, p) = (next, slot.best);
        }
    }
}

/// Streaming estimator for `P` from a time-ordered access sequence.
///
/// For each occurrence of `D_i`, the set of *distinct* documents the
/// same client requests within the next `T_w` is recorded once; `p[i,j]`
/// is then `follows(i→j) / occurrences(i)`.
///
/// ```
/// use specweb_core::ids::{ClientId, DocId, ServerId};
/// use specweb_core::time::{Duration, SimTime};
/// use specweb_spec::deps::DepMatrixBuilder;
/// use specweb_trace::clients::Locality;
/// use specweb_trace::generator::Access;
///
/// let acc = |doc: u32, ms: u64| Access {
///     time: SimTime::from_millis(ms),
///     client: ClientId::new(0),
///     doc: DocId::new(doc),
///     server: ServerId::new(0),
///     locality: Locality::Remote,
///     session: 0,
/// };
/// // Doc 1 is always followed by doc 2 within the 5 s window.
/// let trace = vec![acc(1, 0), acc(2, 100), acc(1, 60_000), acc(2, 60_100)];
/// let p = DepMatrixBuilder::estimate(&trace, Duration::from_secs(5), 1);
/// assert_eq!(p.get(DocId::new(1), DocId::new(2)), 1.0);
/// assert_eq!(p.get(DocId::new(2), DocId::new(1)), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DepMatrixBuilder {
    window: Duration,
    /// Per-client recent accesses still inside the window, oldest
    /// first, indexed by client id (a trace's client ids are dense). An
    /// occurrence of `i` counts a follower `j` once however often `j`
    /// recurs, so `p[i,j]` is the fraction of `i`-occurrences followed
    /// by **at least one** `j` — not a raw pair count.
    pending: Vec<Vec<PendingAccess>>,
    /// The clients whose queue is not empty, for the daily sweep: it
    /// drops a queue it finds idle, and the queue's memory with it.
    active: Vec<ClientId>,
    /// Occurrences of each document, indexed by id (a trace's document
    /// ids are dense).
    occurrences: Vec<u64>,
    follows: HashMap<(DocId, DocId), u64, IdHashes>,
    /// The latest day an access was pushed for: crossing into a later
    /// day triggers the once-a-day housekeeping.
    today: u64,
    /// First day whose accesses count. An access or a follow event is
    /// counted iff the day of its *antecedent* is at or past this, which
    /// is exactly what a builder that was first fed on that day counts.
    window_start: u64,
    /// Days before this record what they add to the counts, for
    /// [`DepMatrixBuilder::retire_day`] to subtract.
    retire_before: u64,
    deltas: BTreeMap<u64, DayDelta>,
}

/// One not-yet-expired access of the streaming estimator.
#[derive(Debug, Clone, Copy)]
struct PendingAccess {
    time: specweb_core::time::SimTime,
    doc: DocId,
}

/// The hasher of the builder's follow counts: one multiply-rotate round
/// per id. The keys are a trace's own dense ids, not outside input, and
/// nothing is seeded, so a map iterates in the same order on every run.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(u32::from(b)));
    }
    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(id)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type IdHashes = std::hash::BuildHasherDefault<IdHasher>;

/// What one day's antecedents added to the counts, as sorted
/// `(key, count)` runs once [`DayDelta::coalesce`] has run; events
/// recorded since then sit behind them as `(key, 1)`.
#[derive(Debug, Clone, Default)]
struct DayDelta {
    docs: Vec<(DocId, u64)>,
    pairs: Vec<((DocId, DocId), u64)>,
    /// Whether events were recorded since the last coalesce.
    dirty: bool,
}

impl DayDelta {
    /// Sums the counts of equal keys: a day's events repeat few
    /// distinct pairs, and a retained day is held for `history_days`.
    fn coalesce(&mut self) {
        fn sum_runs<K: Ord + Copy>(v: &mut Vec<(K, u64)>) {
            v.sort_unstable_by_key(|&(k, _)| k);
            v.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 += later.1;
                }
                same
            });
            v.shrink_to_fit();
        }
        if std::mem::take(&mut self.dirty) {
            sum_runs(&mut self.docs);
            sum_runs(&mut self.pairs);
        }
    }
}

/// Subtracts `n` from `counts[key]`; a count that returns to 0 leaves
/// the map, as if the key had never been counted.
fn uncount(counts: &mut HashMap<(DocId, DocId), u64, IdHashes>, key: (DocId, DocId), n: u64) {
    if let std::collections::hash_map::Entry::Occupied(mut e) = counts.entry(key) {
        *e.get_mut() -= n;
        if *e.get() == 0 {
            e.remove();
        }
    }
}

impl DepMatrixBuilder {
    /// Creates a builder with dependency window `window` (`T_w`).
    pub fn new(window: Duration) -> Self {
        DepMatrixBuilder {
            window,
            pending: Vec::new(),
            active: Vec::new(),
            occurrences: Vec::new(),
            follows: Default::default(),
            today: 0,
            window_start: 0,
            retire_before: 0,
            deltas: BTreeMap::new(),
        }
    }

    /// Makes every day before `day` retirable: what its antecedents add
    /// to the counts is recorded until [`DepMatrixBuilder::retire_day`]
    /// takes it back out.
    pub(crate) fn retiring_before(mut self, day: u64) -> Self {
        self.retire_before = day;
        self
    }

    /// Moves the start of the counting window past `day`: subtracts what
    /// the day's antecedents added, and counts nothing of theirs from
    /// here on. Days retire in ascending order. The counts are then
    /// those of a builder first fed on `day + 1`: integers, so exactly.
    pub(crate) fn retire_day(&mut self, day: u64) {
        self.window_start = self.window_start.max(day + 1);
        let Some(delta) = self.deltas.remove(&day) else {
            return;
        };
        for (doc, n) in delta.docs {
            self.occurrences[doc.index()] -= n;
        }
        for (pair, n) in delta.pairs {
            uncount(&mut self.follows, pair, n);
        }
    }

    /// Feeds one access. Accesses must arrive in time order, as a
    /// server log has them.
    pub fn push(&mut self, access: &Access) {
        let day = access.time.day();
        if day > self.today {
            self.today = day;
            self.close_day(access.time);
        }
        let c = access.client.index();
        if self.pending.len() <= c {
            self.pending.resize_with(c + 1, Vec::new);
        }
        let q = &mut self.pending[c];
        if q.is_empty() {
            self.active.push(access.client);
        }
        // Retire accesses that fell out of the window, then record the
        // i→j pairs the new access completes (once per i-occurrence).
        // The queue holds every access newer than its oldest member, so
        // a pending `p` was already followed by this document iff a
        // request for it sits after `p`: the occurrences it newly
        // follows are those past the client's last request for it.
        let window = self.window;
        q.retain(|p| window.is_infinite() || access.time.since(p.time) < window);
        for p in q.iter().rev().take_while(|p| p.doc != access.doc) {
            let from = p.time.day();
            if from >= self.window_start {
                *self.follows.entry((p.doc, access.doc)).or_insert(0) += 1;
                if from < self.retire_before {
                    let delta = self.deltas.entry(from).or_default();
                    delta.pairs.push(((p.doc, access.doc), 1));
                    delta.dirty = true;
                }
            }
        }
        if day >= self.window_start {
            let d = access.doc.index();
            if self.occurrences.len() <= d {
                self.occurrences.resize(d + 1, 0);
            }
            self.occurrences[d] += 1;
            if day < self.retire_before {
                let delta = self.deltas.entry(day).or_default();
                delta.docs.push((access.doc, 1));
                delta.dirty = true;
            }
        }
        q.push(PendingAccess {
            time: access.time,
            doc: access.doc,
        });
    }

    /// Once per pushed day, before the first access at `now`: drops the
    /// queues of clients idle for a whole window — the client's next
    /// access would empty such a queue anyway, so the counts cannot
    /// tell, and the queues held stay bounded by the clients active
    /// within a window rather than by every client ever seen — and
    /// packs the deltas the closed days have grown.
    fn close_day(&mut self, now: specweb_core::time::SimTime) {
        let window = self.window;
        if !window.is_infinite() {
            let pending = &mut self.pending;
            self.active.retain(|c| {
                let q = &mut pending[c.index()];
                let live = q.last().is_some_and(|p| now.since(p.time) < window);
                if !live {
                    *q = Vec::new();
                }
                live
            });
        }
        for delta in self.deltas.values_mut() {
            delta.coalesce();
        }
    }

    /// Feeds a whole slice of accesses.
    pub fn push_all(&mut self, accesses: &[Access]) {
        let _f = specweb_core::obs::profile::frame("deps.push");
        for a in accesses {
            self.push(a);
        }
    }

    /// Finalizes into a `DepMatrix`. `min_support` drops pairs whose
    /// antecedent was seen fewer than that many times (tiny samples
    /// produce wild probabilities — the paper's curves are built from
    /// >50k accesses).
    ///
    /// `p[i,j] = min(n, occ) / occ` for the `n` follows of the pair and
    /// the `occ` occurrences of `i`, which a row shares (the cap keeps
    /// `p ≤ 1` whatever the counts). So within a row, `p` descends
    /// exactly as `occ − min(n, occ)` ascends, and a row is put in row
    /// order by sorting the integer keys `(occ − min(n, occ)) << 32 | j`,
    /// from which `p` is then computed, bit for bit the quotient of the
    /// counts. A count at or past `2³²` does not fit the key: the matrix
    /// is then sorted by the comparator.
    pub fn build(&self, min_support: u64) -> DepMatrix {
        let _f = specweb_core::obs::profile::frame("deps.build");
        let occurrences = |i: DocId| self.occurrences.get(i.index()).copied().unwrap_or(0);
        // lint:allow(G1): each row is put in row order below, a total
        // order, so the hash order cannot reach the returned matrix.
        let counted = self.follows.iter().filter_map(|(&(i, j), &n)| {
            let occ = occurrences(i);
            (occ >= min_support.max(1)).then_some((i, j, n.min(occ), occ))
        });
        if self.occurrences.iter().any(|&occ| occ >> 32 != 0) {
            let shares = counted.map(|(i, j, n, occ)| (i, j, n as f64 / occ as f64));
            return DepMatrix::from_entries(shares);
        }
        // Each row is laid out holding its follow counts (below 2³², so
        // exact) in place of its shares, then ordered by its keys and
        // given its shares.
        let starts = row_starts(counted.clone().map(|(i, ..)| i));
        let (mut ids, mut ps) = by_row(&starts, counted.map(|(i, j, n, _)| (i, j, n as f64)));
        let mut keys = Vec::new();
        for (i, row) in starts.windows(2).enumerate() {
            let occ = occurrences(DocId::from(i));
            let (ids, ps) = (&mut ids[row[0]..row[1]], &mut ps[row[0]..row[1]]);
            keys.clear();
            keys.extend(
                (ids.iter().zip(ps.iter()))
                    .map(|(&j, &n)| (occ - n as u64) << 32 | u64::from(j.raw())),
            );
            keys.sort_unstable();
            for ((j, p), &k) in ids.iter_mut().zip(ps.iter_mut()).zip(&keys) {
                (*j, *p) = (key_id(k), (occ - (k >> 32)) as f64 / occ as f64);
            }
        }
        DepMatrix {
            starts,
            ids,
            ps,
            truncated_rows: 0,
        }
    }

    /// [`DepMatrixBuilder::build`] with every row sorted by the
    /// comparator: what it must equal, bit for bit.
    #[cfg(test)]
    fn build_reference(&self, min_support: u64) -> DepMatrix {
        let counted = self.follows.iter().filter_map(|(&(i, j), &n)| {
            let occ = self.occurrences.get(i.index()).copied().unwrap_or(0);
            (occ >= min_support.max(1)).then(|| (i, j, (n as f64 / occ as f64).min(1.0)))
        });
        DepMatrix::from_entries(counted)
    }

    /// The documents counted, each with its count, ascending by id.
    #[cfg(test)]
    fn occurrence_counts(&self) -> Vec<(DocId, u64)> {
        let counts = self.occurrences.iter().enumerate();
        counts
            .filter(|&(_, &n)| n > 0)
            .map(|(d, &n)| (DocId::from(d), n))
            .collect()
    }

    /// Convenience: estimate `P` from a full access slice in one call.
    pub fn estimate(accesses: &[Access], window: Duration, min_support: u64) -> DepMatrix {
        let mut b = DepMatrixBuilder::new(window);
        b.push_all(accesses);
        b.build(min_support)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use specweb_core::ids::ServerId;
    use specweb_core::time::SimTime;
    use specweb_trace::clients::Locality;

    fn acc(client: u32, doc: u32, t_ms: u64) -> Access {
        Access {
            time: SimTime::from_millis(t_ms),
            client: ClientId::new(client),
            doc: DocId::new(doc),
            server: ServerId::new(0),
            locality: Locality::Remote,
            session: 0,
        }
    }

    const W: Duration = Duration::from_millis(5_000);

    #[test]
    fn embedding_dependency_is_probability_one() {
        // Doc 1 always followed by doc 2 within the window.
        let mut accesses = Vec::new();
        for k in 0..10 {
            accesses.push(acc(k, 1, 1_000_000 * u64::from(k)));
            accesses.push(acc(k, 2, 1_000_000 * u64::from(k) + 100));
        }
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        assert!((m.get(DocId(1), DocId(2)) - 1.0).abs() < 1e-12);
        assert_eq!(m.get(DocId(2), DocId(1)), 0.0);
    }

    #[test]
    fn traversal_dependency_is_fractional() {
        // Doc 1 followed by doc 2 half the time, doc 3 the other half.
        let mut accesses = Vec::new();
        for k in 0..20u32 {
            let t = 1_000_000 * u64::from(k);
            accesses.push(acc(k, 1, t));
            accesses.push(acc(k, if k % 2 == 0 { 2 } else { 3 }, t + 200));
        }
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        assert!((m.get(DocId(1), DocId(2)) - 0.5).abs() < 1e-12);
        assert!((m.get(DocId(1), DocId(3)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_cuts_dependencies() {
        let accesses = vec![acc(0, 1, 0), acc(0, 2, 6_000)]; // 6 s > 5 s window
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        assert_eq!(m.get(DocId(1), DocId(2)), 0.0);
        let m = DepMatrixBuilder::estimate(&accesses, Duration::from_secs(10), 1);
        assert!(m.get(DocId(1), DocId(2)) > 0.0);
    }

    #[test]
    fn cross_client_pairs_do_not_count() {
        let accesses = vec![acc(0, 1, 0), acc(1, 2, 100)];
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        assert_eq!(m.get(DocId(1), DocId(2)), 0.0);
    }

    #[test]
    fn duplicate_follow_in_one_window_counts_once_per_antecedent() {
        // i at t=0; j at 100 and 200 (both inside the window): one
        // occurrence of i followed by j ⇒ p[i,j] is exactly 1, not 2.
        let accesses = vec![acc(0, 1, 0), acc(0, 2, 100), acc(0, 2, 200)];
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        assert!((m.get(DocId(1), DocId(2)) - 1.0).abs() < 1e-12);

        // Two occurrences of i, only one followed by j ⇒ p = 0.5 even
        // though j appeared twice in the first window.
        let accesses = vec![
            acc(0, 1, 0),
            acc(0, 2, 100),
            acc(0, 2, 200),
            acc(0, 1, 1_000_000),
            acc(0, 3, 1_000_100),
        ];
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        assert!((m.get(DocId(1), DocId(2)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_repeated_antecedent_counts_only_the_followers_after_it() {
        // A B A C B on one client, inside one window.
        let (a, b, c) = (DocId(1), DocId(2), DocId(3));
        let mut builder = DepMatrixBuilder::new(W);
        builder.push_all(&[
            acc(0, 1, 0),
            acc(0, 2, 100),
            acc(0, 1, 200),
            acc(0, 3, 300),
            acc(0, 2, 400),
        ]);
        // The first A is followed by B and C, the second by C and the
        // last B; the first B by A and C (its own repeat is not a
        // follower); C by the last B, which nothing follows.
        let mut follows: Vec<_> = builder.follows.iter().map(|(&k, &n)| (k, n)).collect();
        follows.sort_unstable();
        assert_eq!(
            follows,
            [
                ((a, b), 2),
                ((a, c), 2),
                ((b, a), 1),
                ((b, c), 1),
                ((c, b), 1)
            ]
        );
        assert_eq!(builder.occurrence_counts(), [(a, 2), (b, 2), (c, 1)]);
    }

    #[test]
    fn min_support_filters_rare_antecedents() {
        let accesses = vec![acc(0, 1, 0), acc(0, 2, 100)];
        let m = DepMatrixBuilder::estimate(&accesses, W, 5);
        assert_eq!(m.get(DocId(1), DocId(2)), 0.0);
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        assert!(m.get(DocId(1), DocId(2)) > 0.0);
    }

    #[test]
    fn probabilities_are_bounded() {
        // Loops: 1→2→1→2… within windows could overcount; the cap holds.
        let mut accesses = Vec::new();
        for k in 0..40 {
            accesses.push(acc(0, 1 + (k % 2), u64::from(k) * 1_000));
        }
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        for (_, _, p) in m.entries() {
            assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
        }
    }

    #[test]
    fn closure_includes_transitive_chains() {
        // 1 →(1.0) 2 →(0.5) 3: closure must contain 1→3 at 0.5.
        let mut accesses = Vec::new();
        for k in 0..20u32 {
            let t = 1_000_000 * u64::from(k);
            accesses.push(acc(k, 1, t));
            accesses.push(acc(k, 2, t + 100));
            if k % 2 == 0 {
                // within window of doc 2 but NOT of doc 1
                accesses.push(acc(k, 3, t + 4_500));
            }
        }
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        assert!((m.get(DocId(1), DocId(2)) - 1.0).abs() < 1e-9);
        assert!((m.get(DocId(2), DocId(3)) - 0.5).abs() < 1e-9);
        // 3 arrives 4.5 s after 1 — still within T_w, so the direct pair
        // exists too; the closure keeps the max.
        let c = m.closure(0.01, 64).unwrap();
        assert!(c.get(DocId(1), DocId(3)) >= 0.5 - 1e-9);
    }

    #[test]
    fn closure_dominates_direct_matrix() {
        let mut accesses = Vec::new();
        for k in 0..30u32 {
            let t = 1_000_000 * u64::from(k);
            accesses.push(acc(k, 1, t));
            accesses.push(acc(k, if k % 3 == 0 { 2 } else { 3 }, t + 100));
            accesses.push(acc(k, 4, t + 300));
        }
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        let c = m.closure(0.001, 64).unwrap();
        for (i, j, p) in m.entries() {
            assert!(
                c.get(i, j) >= p - 1e-12,
                "closure lost mass at ({i},{j}): {p} → {}",
                c.get(i, j)
            );
        }
    }

    #[test]
    fn closure_entries_in_unit_interval_and_no_self() {
        let mut accesses = Vec::new();
        for k in 0..50 {
            accesses.push(acc(0, k % 5, u64::from(k) * 800));
        }
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        let c = m.closure(0.05, 16).unwrap();
        for (i, j, p) in c.entries() {
            assert!((0.0..=1.0).contains(&p));
            assert_ne!(i, j, "closure must not contain self-dependencies");
        }
    }

    #[test]
    fn closure_is_idempotent() {
        let mut accesses = Vec::new();
        for k in 0..20u32 {
            let t = 1_000_000 * u64::from(k);
            accesses.push(acc(k, 1, t));
            accesses.push(acc(k, 2, t + 100));
            accesses.push(acc(k, 3, t + 200));
        }
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        let c1 = m.closure(0.01, 64).unwrap();
        let c2 = c1.closure(0.01, 64).unwrap();
        for (i, j, p) in c1.entries() {
            assert!(
                (c2.get(i, j) - p).abs() < 1e-9,
                "closure not idempotent at ({i},{j})"
            );
        }
    }

    #[test]
    fn closure_floor_prunes() {
        let mut accesses = Vec::new();
        for k in 0..100u32 {
            let t = 1_000_000 * u64::from(k);
            accesses.push(acc(k, 1, t));
            accesses.push(acc(k, 2 + (k % 10), t + 100)); // p = 0.1 each
        }
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        let c = m.closure(0.5, 64).unwrap();
        assert_eq!(c.n_entries(), 0, "all entries below the floor");
        let c = m.closure(0.05, 64).unwrap();
        assert_eq!(c.row(DocId(1)).len(), 10);
    }

    #[test]
    fn closure_counts_safety_valve_truncations() {
        // A dense clique: every doc links to every other with a high
        // probability, so each source can settle far more than
        // `max_row * 4 + 1` nodes. With a tiny max_row the valve must
        // fire — and be *counted*, not silent.
        let n = 30u32;
        let clique: Vec<(u32, u32, f64)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j, 0.9)))
            .collect();
        let m = matrix_of(&clique);
        assert_eq!(m.truncated_rows(), 0, "direct matrix is never truncated");
        let c = m.closure(0.01, 2).unwrap();
        assert_eq!(
            c.truncated_rows(),
            u64::from(n),
            "every clique row should hit the valve"
        );
        // A generous max_row settles everything without the valve.
        let c = m.closure(0.01, 64).unwrap();
        assert_eq!(c.truncated_rows(), 0);
    }

    #[test]
    fn closure_parallel_is_identical_to_serial() {
        let mut accesses = Vec::new();
        for k in 0..60 {
            accesses.push(acc(k % 4, k % 11, u64::from(k) * 700));
        }
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        let serial = m.closure_jobs(0.01, 32, 1).unwrap();
        for jobs in [2, 4, 8] {
            let par = m.closure_jobs(0.01, 32, jobs).unwrap();
            assert_eq!(par.n_rows(), serial.n_rows());
            assert_eq!(par.n_entries(), serial.n_entries());
            assert_eq!(par.truncated_rows(), serial.truncated_rows());
            for (i, j, p) in serial.entries() {
                assert_eq!(
                    par.get(i, j).to_bits(),
                    p.to_bits(),
                    "({i},{j}) jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn closure_truncation_breaks_probability_ties_by_id() {
        // A star of embedding edges: row 0 reaches `r` documents, all
        // tied at 1.0. At every bound the row is the lowest ids, however
        // far past the valve it reaches, and it is counted as truncated
        // iff it reaches more than `4k` (`r` = 20, 21 and 22 straddle
        // `k` = 5).
        for r in [1usize, 5, 20, 21, 22, 100] {
            let m = DepMatrix::from_entries((1..=r).map(|j| (DocId(0), DocId::from(j), 1.0)));
            for k in 0..=r + 1 {
                let c = m.closure_jobs(0.5, k, 1).unwrap();
                let want: Vec<(DocId, f64)> =
                    (1..=r.min(k)).map(|j| (DocId::from(j), 1.0)).collect();
                assert_eq!(row_of(&c, 0), want, "k = {k}, r = {r}");
                assert_eq!(c.truncated_rows(), u64::from(r > 4 * k), "k = {k}, r = {r}");
            }
        }
    }

    #[test]
    fn the_fixpoint_gives_way_exactly_where_the_valve_cuts() {
        // A star of embedding edges: row 0 reaches `r` documents, all
        // tied at 1.0. The valve counts the row iff `r ≥ 4k + 1`. On
        // either side of it the fixpoint reaches all `r` documents, and
        // the row gives way only to the cut: its first `k` entries, the
        // lowest ids, as the heap-search reference keeps them.
        for k in [1, 2, 5] {
            let valve = 4 * k + 1;
            for r in [valve - 1, valve, valve + 1] {
                let star = (1..=r).map(|j| (DocId(0), DocId::from(j), 1.0));
                let m = DepMatrix::from_entries(star);
                let mut search = Search::new(r + 1);
                search.fixpoint(&m, DocId(0), 0.5);
                assert_eq!(search.reached.len(), r, "k = {k}, r = {r}");
                let c = m.closure_jobs(0.5, k, 1).unwrap();
                assert_eq!(
                    c.truncated_rows(),
                    u64::from(r >= valve),
                    "k = {k}, r = {r}"
                );
                assert_eq!(c.bits(), reference_closure(&m, 0.5, k).bits());
                let kept: Vec<DocId> = c.row(DocId(0)).iter().map(|(j, _)| j).collect();
                let want: Vec<DocId> = (1..=k).map(DocId::from).collect();
                assert_eq!(kept, want, "k = {k}, r = {r}");
            }
        }
    }

    #[test]
    fn a_pathological_matrix_ends_with_every_valve_row_counted() {
        // At a floor near 0, a 600-document chain of embedding edges and
        // a clique of them: a chain row reaches every document after its
        // source, a clique row the other 99, far past the small valves.
        let chain = (0..599u32).map(|i| (i, i + 1, 1.0));
        let clique = (1000..1100u32).flat_map(|i| (1000..1100).map(move |j| (i, j, 1.0)));
        let m = matrix_of(&chain.chain(clique).collect::<Vec<_>>());
        for k in [1usize, 8, 128] {
            let c = m.closure_jobs(1e-9, k, 2).unwrap();
            let chain_rows = (0..599).filter(|&i| 599 - i > 4 * k).count();
            let clique_rows = if 99 > 4 * k { 100 } else { 0 };
            assert_eq!(
                c.truncated_rows(),
                (chain_rows + clique_rows) as u64,
                "k = {k}"
            );
            for i in [0u32, 300, 598] {
                let want: Vec<(DocId, f64)> =
                    (i + 1..600).take(k).map(|j| (DocId(j), 1.0)).collect();
                assert_eq!(row_of(&c, i), want, "k = {k}, i = {i}");
            }
            let want: Vec<(DocId, f64)> = (1001..1100).take(k).map(|j| (DocId(j), 1.0)).collect();
            assert_eq!(row_of(&c, 1000), want, "k = {k}");
        }
    }

    #[test]
    fn an_entry_is_held_in_twelve_bytes() {
        let m = matrix_of(&[(0, 1, 0.5), (0, 2, 0.25), (3, 1, 1.0)]);
        let starts = std::mem::size_of::<usize>() * 5;
        assert_eq!(m.heap_bytes(), Bytes::new((starts + 3 * 12) as u64));
        // A closure laid at several workers holds its rows as tightly.
        let c = m.closure_jobs(0.01, 8, 3).unwrap();
        assert_eq!(c.heap_bytes(), Bytes::new((starts + 3 * 12) as u64));
    }

    #[test]
    fn closure_rejects_bad_floor() {
        let m = DepMatrix::empty();
        assert!(m.closure(0.0, 8).is_err());
        assert!(m.closure(1.5, 8).is_err());
    }

    #[test]
    fn histogram_shows_one_over_k_peaks() {
        // Build a synthetic log where pages have exactly 2 or 4 anchors
        // followed uniformly: the histogram must peak at 0.5 and 0.25.
        let mut accesses = Vec::new();
        let mut t = 0u64;
        for k in 0..400u32 {
            // page 1 (2 anchors: 10, 11), page 2 (4 anchors: 20..24).
            accesses.push(acc(k, 1, t));
            accesses.push(acc(k, 10 + (k % 2), t + 100));
            t += 1_000_000;
            accesses.push(acc(k, 2, t));
            accesses.push(acc(k, 20 + (k % 4), t + 100));
            t += 1_000_000;
        }
        let m = DepMatrixBuilder::estimate(&accesses, W, 1);
        let h = m.probability_histogram(20);
        let bins = h.bins();
        // p = 0.5 lands on the bin-10 boundary; p = 0.25 on bin 5.
        assert!(bins[10] >= 2, "no peak at 1/2: {bins:?}");
        assert!(bins[5] >= 4, "no peak at 1/4: {bins:?}");
    }

    #[test]
    fn empty_matrix_behaviour() {
        let m = DepMatrix::empty();
        assert_eq!(m.get(DocId(0), DocId(1)), 0.0);
        assert!(m.row(DocId(0)).is_empty());
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.n_entries(), 0);
        let c = m.closure(0.1, 8).unwrap();
        assert_eq!(c.n_entries(), 0);
    }

    #[test]
    fn infinite_window_links_whole_session() {
        let accesses = vec![acc(0, 1, 0), acc(0, 2, 10_000_000)];
        let m = DepMatrixBuilder::estimate(&accesses, Duration::INFINITE, 1);
        assert!(m.get(DocId(1), DocId(2)) > 0.0);
    }

    /// The closure kernel as it was before the CSR search: per-source
    /// hash maps, every edge scanned whatever the row order, documents
    /// settled best first by a heap. Kept as an independent reference
    /// the fixpoint is compared against: each row is every document the
    /// source reaches at or above the floor, sorted and cut to
    /// `max_row`, and counted as truncated iff it settled more than
    /// `4 · max_row` documents besides the source.
    fn reference_closure(m: &DepMatrix, floor: f64, max_row: usize) -> DepMatrix {
        reference_closure_of(m, |_| true, floor, max_row)
    }

    /// [`reference_closure`]'s rows of the sources in `wanted`.
    fn reference_closure_of(
        m: &DepMatrix,
        wanted: impl Fn(DocId) -> bool,
        floor: f64,
        max_row: usize,
    ) -> DepMatrix {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        struct Item(f64, DocId);
        impl PartialEq for Item {
            fn eq(&self, o: &Self) -> bool {
                self.0 == o.0 && self.1 == o.1
            }
        }
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Item {
            fn cmp(&self, o: &Self) -> Ordering {
                self.0.total_cmp(&o.0).then(self.1.cmp(&o.1))
            }
        }

        let mut entries = Vec::new();
        let mut truncated_rows = 0;
        for src in m.sources().filter(|&i| wanted(i)) {
            let mut best: HashMap<DocId, f64> = HashMap::new();
            let mut heap = BinaryHeap::new();
            heap.push(Item(1.0, src));
            let mut settled: HashMap<DocId, f64> = HashMap::new();
            while let Some(Item(p, d)) = heap.pop() {
                if settled.contains_key(&d) {
                    continue;
                }
                settled.insert(d, p);
                for (j, pj) in m.row(d) {
                    let cand = p * pj;
                    if cand < floor || j == src {
                        continue;
                    }
                    let e = best.entry(j).or_insert(0.0);
                    if cand > *e {
                        *e = cand;
                        heap.push(Item(cand, j));
                    }
                }
            }
            settled.remove(&src);
            truncated_rows += u64::from(settled.len() > max_row.saturating_mul(4));
            let mut row: Vec<(DocId, f64)> = settled.into_iter().collect();
            row.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            row.truncate(max_row);
            entries.extend(row.into_iter().map(|(j, p)| (src, j, p)));
        }
        DepMatrix {
            truncated_rows,
            ..DepMatrix::from_entries(entries.into_iter())
        }
    }

    /// Row `i` of `m`, as pairs.
    fn row_of(m: &DepMatrix, i: u32) -> Vec<(DocId, f64)> {
        m.row(DocId(i)).iter().collect()
    }

    /// A matrix from `(i, j, p)` edges (the last of a repeated pair
    /// wins, self-edges are dropped: an estimate never holds one).
    fn matrix_of(edges: &[(u32, u32, f64)]) -> DepMatrix {
        let mut cells: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        cells.extend(
            edges
                .iter()
                .filter(|e| e.0 != e.1)
                .map(|&(i, j, p)| ((i, j), p)),
        );
        let entries = cells
            .iter()
            .map(|(&(i, j), &p)| (DocId::new(i), DocId::new(j), p));
        DepMatrix::from_entries(entries)
    }

    /// The aged blend as it was before the row table: every part's
    /// entries added into one ordered map, part after part. Kept as the
    /// reference [`DepMatrix::blend`] is compared against.
    fn reference_blend(parts: &[(f64, DepMatrix)]) -> DepMatrix {
        let mut acc: BTreeMap<(DocId, DocId), f64> = BTreeMap::new();
        let mut wsum = 0.0f64;
        for (w, m) in parts {
            for (i, j, p) in m.entries() {
                *acc.entry((i, j)).or_insert(0.0) += w * p;
            }
            wsum += w;
        }
        DepMatrix::from_entries(acc.iter().filter_map(|(&(i, j), v)| {
            let p = (v / wsum).min(1.0);
            (p > 0.0).then_some((i, j, p))
        }))
    }

    /// Probabilities in eighths: many ties, and products that are exact
    /// in binary floating point whatever the order of multiplication.
    fn eighths() -> impl Strategy<Value = f64> {
        (1u32..=8).prop_map(|k| f64::from(k) / 8.0)
    }

    /// Probabilities in `(0, 1]` that tie or nearly tie: a few bases
    /// (`1.0` among them) moved down by 0, 1 or 2 ulps, or by an amount
    /// that still leaves the high half of the bits alone or just changes
    /// it — the entries a coarse key alone would misorder.
    fn near_ties() -> impl Strategy<Value = f64> {
        let base = prop_oneof![Just(1.0f64), eighths(), Just(0.3), Just(0.01)];
        let ulps = prop_oneof![0u64..3, Just(1 << 31), Just(1 << 32), 0u64..1 << 33];
        (base, ulps).prop_map(|(p, d)| f64::from_bits(p.to_bits() - d))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn closure_equals_the_hash_map_kernel_bit_for_bit(
            n in 2u32..40,
            tied in prop::collection::vec((0u32..40, 0u32..40, eighths()), 0..160),
            free in prop::collection::vec((0u32..40, 0u32..40, 0.001f64..1.0), 0..160),
            floor in prop_oneof![Just(1.0), Just(0.3), Just(0.01), Just(1e-6)],
            max_row in prop_oneof![Just(0usize), Just(1), Just(2), Just(5), Just(64)],
            jobs in 1usize..4,
        ) {
            let edges: Vec<(u32, u32, f64)> =
                tied.iter().chain(&free).map(|&(i, j, p)| (i % n, j % n, p)).collect();
            let m = matrix_of(&edges);
            let want = reference_closure(&m, floor, max_row);
            let got = m.closure_jobs(floor, max_row, jobs).unwrap();
            prop_assert_eq!(got.truncated_rows(), want.truncated_rows());
            prop_assert_eq!(got.bits(), want.bits());
            prop_assert!(got.rows_in_order(), "{:?}", got);
            // Equal contents are equal matrices, whatever built them.
            prop_assert_eq!(got, want);
        }

        #[test]
        fn closure_equals_the_hash_map_kernel_where_the_valve_cuts_a_tie_group(
            n in 6u32..40,
            chains in prop::collection::vec(
                (0u32..40, 2u32..16, prop_oneof![Just(true), Just(false)]),
                1..6,
            ),
            entries in prop::collection::vec((0u32..40, 0u32..40, eighths()), 0..30),
            floor in prop_oneof![Just(1.0), Just(0.3), Just(1e-6)],
            max_row in prop_oneof![Just(1usize), Just(2), Just(5)],
            jobs in 1usize..4,
        ) {
            // Embedding edges (`p = 1.0`) along each chain, its ids rising
            // or falling: a row that enters a chain reaches a tie group,
            // which the cut at `max_row` may split.
            let mut edges: Vec<(u32, u32, f64)> = Vec::new();
            for &(first, len, rising) in &chains {
                let at = |k: u32| if rising { (first + k) % n } else { (first + 16 * n - k) % n };
                edges.extend((0..len - 1).map(|k| (at(k), at(k + 1), 1.0)));
            }
            edges.extend(entries.iter().map(|&(i, j, p)| (i % n, j % n, p)));
            let m = matrix_of(&edges);
            let want = reference_closure(&m, floor, max_row);
            let got = m.closure_jobs(floor, max_row, jobs).unwrap();
            prop_assert_eq!(got.truncated_rows(), want.truncated_rows());
            prop_assert_eq!(got.bits(), want.bits());
        }

        #[test]
        fn the_closure_of_a_demand_is_the_full_closures_rows_of_it(
            n in 2u32..40,
            raw in (
                prop::collection::vec((0u32..40, 0u32..40, eighths()), 0..160),
                prop::collection::vec((0u32..40, 0u32..40, 0.001f64..1.0), 0..160),
            ),
            demand in prop::collection::vec(0u32..40, 0..20),
            floor in prop_oneof![Just(0.3), Just(0.01), Just(1e-6)],
            max_row in prop_oneof![Just(1usize), Just(2), Just(5), Just(64)],
            jobs in 1usize..4,
        ) {
            let (tied, free) = raw;
            let edges: Vec<(u32, u32, f64)> =
                tied.iter().chain(&free).map(|&(i, j, p)| (i % n, j % n, p)).collect();
            let m = matrix_of(&edges);
            let wanted = |i: DocId| demand.contains(&i.raw());
            let got = m.closure_of(wanted, floor, max_row, jobs).unwrap();
            // Each source's row is what the full closure holds for it…
            let full = m.closure_jobs(floor, max_row, jobs).unwrap();
            let kept: Vec<_> = full.bits().into_iter().filter(|&(i, ..)| wanted(i)).collect();
            prop_assert_eq!(got.bits(), kept);
            // …and the valve rows counted are those among the demand.
            let want = reference_closure_of(&m, wanted, floor, max_row);
            prop_assert_eq!(got.truncated_rows(), want.truncated_rows());
            prop_assert_eq!(got, want);
        }

        #[test]
        fn from_entries_is_permutation_invariant(
            tied in prop::collection::vec((0u32..12, 0u32..12, eighths()), 0..60),
            free in prop::collection::vec((0u32..12, 0u32..12, 0.001f64..1.0), 0..60),
            keys in prop::collection::vec(0u32..1_000, 120),
        ) {
            let edges: Vec<(u32, u32, f64)> = tied.into_iter().chain(free).collect();
            let m = matrix_of(&edges);
            let mut shuffled: Vec<_> = m.entries().zip(keys).collect();
            shuffled.sort_by_key(|&(_, key)| key);
            let again = DepMatrix::from_entries(shuffled.into_iter().map(|(e, _)| e));
            prop_assert!(m.rows_in_order(), "{:?}", m);
            prop_assert_eq!(again.bits(), m.bits());
            prop_assert_eq!(again, m);
        }

        #[test]
        fn coarse_keys_sort_a_row_as_the_comparator_does(
            row in prop::collection::vec((0u32..48, near_ties()), 0..96),
        ) {
            let p_of: BTreeMap<DocId, f64> = row.iter().map(|&(j, p)| (DocId(j), p)).collect();
            let mut want: Vec<(DocId, f64)> = p_of.iter().map(|(&j, &p)| (j, p)).collect();
            want.sort_unstable_by(row_order);
            // Keys in descending id order, the reverse of a sorted run.
            let mut keys: Vec<u64> = p_of.iter().rev().map(|(&j, &p)| coarse_key(j, p)).collect();
            let mut got = DepMatrix { ids: vec![DocId(99)], ps: vec![0.5], ..DepMatrix::no_rows() };
            push_row_by_coarse_key(&mut got, &mut keys, |j| p_of[&j]);
            let got: Vec<(DocId, f64)> = got.ids.into_iter().zip(got.ps).collect();
            let bits = |row: &[(DocId, f64)]| row.iter().map(|&(j, p)| (j, p.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got[1..]), bits(&want));
            prop_assert_eq!(got[0], (DocId(99), 0.5), "what `out` held stays");
        }

        #[test]
        fn closure_rows_of_near_ties_equal_the_hash_map_kernel(
            edges in prop::collection::vec((0u32..24, 0u32..24, near_ties()), 0..120),
            star in prop::collection::vec(near_ties(), 0..23),
            floor in prop_oneof![Just(0.3), Just(1e-6)],
            max_row in prop_oneof![Just(1usize), Just(3), Just(8), Just(64)],
        ) {
            // Row 0 reaches up to 23 documents directly: longer than
            // `max_row`, so the cut keeps a subset of near ties.
            let mut all: Vec<(u32, u32, f64)> = (1..).zip(star).map(|(j, p)| (0, j, p)).collect();
            all.extend(edges);
            let m = matrix_of(&all);
            let got = m.closure_jobs(floor, max_row, 1).unwrap();
            let want = reference_closure(&m, floor, max_row);
            prop_assert_eq!(got.truncated_rows(), want.truncated_rows());
            prop_assert_eq!(got.bits(), want.bits());
        }

        #[test]
        fn blend_equals_the_btree_definition_bit_for_bit(
            raw in prop::collection::vec(
                (
                    prop_oneof![
                        Just(1.0),
                        (1i32..40).prop_map(|k| 0.95f64.powi(k)),
                        Just(1e-4),
                        Just(1e-300),
                        // Sums a few ulps apart.
                        (0u64..3).prop_map(|d| f64::from_bits(0.5f64.to_bits() + d)),
                    ],
                    // `1e-30` under a `1e-300` weight blends to nothing
                    // beside a heavier part; ids 12.. are rows and
                    // targets only such entries reach.
                    prop::collection::vec(
                        prop_oneof![
                            (0u32..12, 0u32..12, eighths()),
                            (0u32..12, 0u32..12, 0.001f64..1.0),
                            (0u32..12, 0u32..12, near_ties()),
                            (0u32..16, 0u32..16, Just(1e-30)),
                        ],
                        0..40,
                    ),
                ),
                0..=6,
            ),
        ) {
            let parts: Vec<(f64, DepMatrix)> =
                raw.iter().map(|(w, edges)| (*w, matrix_of(edges))).collect();
            let want = reference_blend(&parts);
            let borrowed: Vec<(f64, &DepMatrix)> = parts.iter().map(|(w, m)| (*w, m)).collect();
            let got = DepMatrix::blend(&borrowed);
            prop_assert_eq!(got.bits(), want.bits());
            prop_assert!(got.rows_in_order(), "{:?}", got);
            // No trailing empty rows: equal contents are equal matrices.
            prop_assert_eq!(got, want);
        }

        #[test]
        fn closure_equals_brute_force_max_product_paths(
            n in 2usize..=12,
            raw in prop::collection::vec((0usize..12, 0usize..12, eighths()), 0..60),
            floor in prop_oneof![Just(1.0), Just(0.25), Just(0.01), Just(1e-9)],
        ) {
            let edges: Vec<(u32, u32, f64)> =
                raw.iter().map(|&(i, j, p)| ((i % n) as u32, (j % n) as u32, p)).collect();
            let m = matrix_of(&edges);
            // Floyd–Warshall over (max, ×): best[i][j] ends as the largest
            // product over all paths i → j.
            let mut best = vec![vec![0.0f64; n]; n];
            for (i, j, p) in m.entries() {
                best[i.index()][j.index()] = p;
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        best[i][j] = best[i][j].max(best[i][k] * best[k][j]);
                    }
                }
            }
            // Every prefix of a path is at least as probable as the path,
            // so pruning at the floor loses no entry at or above it. The
            // row at every bound `k` is the top `k` of the whole row,
            // counted as truncated iff the whole row is longer than `4k`.
            for k in 0..=n {
                let c = m.closure_jobs(floor, k, 1).unwrap();
                let mut truncated = 0;
                for (i, row) in best.iter().enumerate() {
                    let mut want: Vec<(DocId, f64)> = (row.iter().enumerate())
                        .filter(|&(j, &p)| i != j && p >= floor)
                        .map(|(j, &p)| (DocId::from(j), p))
                        .collect();
                    truncated += u64::from(want.len() > 4 * k);
                    want.sort_by(row_order);
                    want.truncate(k);
                    prop_assert_eq!(row_of(&c, i as u32), want, "i = {}, k = {}", i, k);
                }
                prop_assert_eq!(c.truncated_rows(), truncated, "k = {}", k);
            }
        }

        #[test]
        fn a_row_at_a_bound_is_a_prefix_of_the_row_at_any_larger_bound(
            n in 6u32..40,
            chains in prop::collection::vec((0u32..40, 2u32..16, prop_oneof![Just(true), Just(false)]), 0..6),
            entries in prop::collection::vec((0u32..40, 0u32..40, eighths()), 0..120),
            floor in prop_oneof![Just(0.3), Just(0.01), Just(1e-6)],
            jobs in 1usize..4,
        ) {
            // Chains of embedding edges put tie groups across the cuts.
            let mut edges: Vec<(u32, u32, f64)> = Vec::new();
            for &(first, len, rising) in &chains {
                let at = |k: u32| if rising { (first + k) % n } else { (first + 16 * n - k) % n };
                edges.extend((0..len - 1).map(|k| (at(k), at(k + 1), 1.0)));
            }
            edges.extend(entries.iter().map(|&(i, j, p)| (i % n, j % n, p)));
            let m = matrix_of(&edges);
            let bounds = [0usize, 1, 2, 3, 5, 8, 64];
            let cs: Vec<DepMatrix> =
                bounds.iter().map(|&k| m.closure_jobs(floor, k, jobs).unwrap()).collect();
            for (a, &k) in bounds.iter().enumerate() {
                for long in &cs[a..] {
                    prop_assert!(long.truncated_rows() <= cs[a].truncated_rows());
                    for i in m.sources() {
                        let (short, long) = (row_of(&cs[a], i.raw()), row_of(long, i.raw()));
                        prop_assert_eq!(short.len(), long.len().min(k));
                        prop_assert_eq!(&short[..], &long[..short.len()], "row {} at {}", i, k);
                    }
                }
            }
        }
    }

    #[test]
    fn closure_tolerates_sparse_ids() {
        let m = matrix_of(&[(0, 2, 0.5), (2, 900, 0.5), (900, 3, 1.0)]);
        let c = m.closure_jobs(0.01, 8, 1).unwrap();
        assert_eq!(c.bits(), reference_closure(&m, 0.01, 8).bits());
        assert_eq!(c.get(DocId(0), DocId(3)), 0.25);
        assert_eq!(c.get(DocId(0), DocId(1)), 0.0);
    }

    /// `P` by definition, with no streaming state: for every access to
    /// `i`, the distinct other documents its client requests within the
    /// window after it.
    fn reference_estimate(accesses: &[Access], window: Duration, min_support: u64) -> DepMatrix {
        let mut occurrences: BTreeMap<DocId, u64> = BTreeMap::new();
        let mut follows: BTreeMap<(DocId, DocId), u64> = BTreeMap::new();
        for (k, a) in accesses.iter().enumerate() {
            *occurrences.entry(a.doc).or_insert(0) += 1;
            let followers: std::collections::BTreeSet<DocId> = accesses[k + 1..]
                .iter()
                .take_while(|b| window.is_infinite() || b.time.since(a.time) < window)
                .filter(|b| b.client == a.client && b.doc != a.doc)
                .map(|b| b.doc)
                .collect();
            for j in followers {
                *follows.entry((a.doc, j)).or_insert(0) += 1;
            }
        }
        let entries = follows
            .iter()
            .filter(|((i, _), _)| occurrences[i] >= min_support.max(1))
            .map(|(&(i, j), &n)| (i, j, (n as f64 / occurrences[&i] as f64).min(1.0)));
        DepMatrix::from_entries(entries)
    }

    #[test]
    fn idle_clients_are_swept_once_a_day_and_the_matrix_cannot_tell() {
        // A population the size of a `--scale 100` run visits once on day
        // 0; a few regulars come back every day, two of them across
        // midnight inside the window.
        const CLIENTS: u32 = 60_000;
        const DAY: u64 = 86_400_000;
        let mut accesses = Vec::new();
        for c in 0..CLIENTS {
            let t = u64::from(c) * 1_000;
            accesses.push(acc(c, c % 50, t));
            accesses.push(acc(c, 50 + c % 7, t + 900));
        }
        for day in 1..4u64 {
            for c in 0..20u32 {
                let t = day * DAY + u64::from(c) * 10_000;
                accesses.push(acc(c, c % 50, t));
                accesses.push(acc(c, 50 + c % 3, t + 2_000));
            }
            accesses.push(acc(7, 1, (day + 1) * DAY - 1_000));
            accesses.push(acc(7, 2, (day + 1) * DAY + 1_000));
        }
        accesses.sort_by_key(|a| a.time);

        // A queue is held iff its client is active, and an idle one
        // gives its memory back.
        let held = |b: &DepMatrixBuilder| b.pending.iter().filter(|q| q.capacity() > 0).count();
        let mut b = DepMatrixBuilder::new(W);
        let mut peak = 0;
        for a in &accesses {
            b.push(a);
            peak = peak.max(b.active.len());
        }
        assert_eq!(peak, CLIENTS as usize, "day 0 holds every client");
        assert!(
            b.active.len() <= 21,
            "{} queues left for 20 active clients",
            b.active.len()
        );
        assert_eq!(held(&b), b.active.len());
        assert_eq!(
            b.build(2).bits(),
            reference_estimate(&accesses, W, 2).bits()
        );

        // An infinite window can still pair with any old access: no sweep.
        let mut b = DepMatrixBuilder::new(Duration::INFINITE);
        b.push_all(&accesses[..4_000]);
        b.push(accesses.last().unwrap());
        assert_eq!((b.active.len(), held(&b)), (2_000, 2_000));
    }

    /// A builder fed `raw` (`(client, doc, gap in ms)`), then with the
    /// follows of every pair multiplied by `scale(pair)`. A pushed trace
    /// never counts more follows than occurrences; a scaled one does,
    /// which is where `build` caps `p` at 1.
    fn builder_of(
        raw: &[(u32, u32, u64)],
        scale: impl Fn(DocId, DocId) -> u64,
    ) -> DepMatrixBuilder {
        let mut b = DepMatrixBuilder::new(W);
        let mut t = 0;
        for &(c, d, gap) in raw {
            t += gap;
            b.push(&acc(c, d, t));
        }
        for (&(i, j), n) in b.follows.iter_mut() {
            *n *= scale(i, j);
        }
        b
    }

    #[test]
    fn counts_past_the_key_width_are_sorted_by_the_comparator() {
        // Doc 1 occurs 2³² + 5 times, and its followers' counts differ:
        // `occ − n` does not fit the key's 32 bits.
        let raw = [
            (0, 1, 0),
            (0, 2, 10),
            (0, 3, 20),
            (0, 1, 30),
            (0, 3, 40),
            (0, 4, 50),
        ];
        let mut b = builder_of(
            &raw,
            |i, j| if i == DocId(1) { u64::from(j.raw()) } else { 1 },
        );
        b.occurrences[1] += 1 << 32;
        let m = b.build(1);
        assert_eq!(m, b.build_reference(1));
        let row: Vec<DocId> = m.row(DocId(1)).iter().map(|(j, _)| j).collect();
        assert_eq!(row, [DocId(4), DocId(3), DocId(2)]);
        assert!(m.rows_in_order());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn build_equals_the_comparator_build_bit_for_bit(
            raw in prop_oneof![
                prop::collection::vec((0u32..4, 0u32..14, 0u64..4_000), 0..300),
                prop::collection::vec((0u32..2, 0u32..4, 0u64..2_000), 0..300),
            ],
            loops in prop::collection::vec(1u64..4, 16),
            min_support in 1u64..=5,
        ) {
            // Some pairs followed more often than their source occurs.
            let scale = |i: DocId, j: DocId| loops[(i.index() * 3 + j.index()) % 16];
            let b = builder_of(&raw, scale);
            let (got, want) = (b.build(min_support), b.build_reference(min_support));
            prop_assert_eq!(got.bits(), want.bits());
            // `starts` included.
            prop_assert_eq!(got, want);
        }

        #[test]
        fn estimate_matches_the_definition(
            raw in prop_oneof![
                prop::collection::vec((0u32..5, 0u32..9, 0u64..40_000_000), 0..120),
                // Dense repeats: a re-request inside the window is the
                // common case, ties in time included.
                prop::collection::vec((0u32..2, 0u32..3, 0u64..3_000), 0..120),
            ],
            window in prop_oneof![
                Just(W), Just(Duration::from_days(2)), Just(Duration::INFINITE)
            ],
            min_support in 1u64..4,
        ) {
            let mut t = 0;
            let accesses: Vec<Access> = raw
                .iter()
                .map(|&(c, d, gap)| {
                    t += gap;
                    acc(c, d, t)
                })
                .collect();
            let got = DepMatrixBuilder::estimate(&accesses, window, min_support);
            prop_assert!(got.rows_in_order(), "{:?}", got);
            prop_assert_eq!(got.bits(), reference_estimate(&accesses, window, min_support).bits());
        }

        #[test]
        fn retiring_days_leaves_the_counts_of_a_later_start(
            raw in prop::collection::vec((0u32..4, 0u32..7, 0u64..30_000_000), 1..150),
            window in prop_oneof![
                Just(W), Just(Duration::from_days(2)), Just(Duration::INFINITE)
            ],
            retired in 1u64..6,
        ) {
            let mut t = 0;
            let accesses: Vec<Access> = raw
                .iter()
                .map(|&(c, d, gap)| {
                    t += gap;
                    acc(c, d, t)
                })
                .collect();
            // Slide: everything is pushed, then the first days retire —
            // half of them only after later days were counted.
            let mut slid = DepMatrixBuilder::new(window).retiring_before(retired);
            let early = retired / 2;
            for a in &accesses {
                if a.time.day() == retired && slid.window_start < early {
                    (0..early).for_each(|d| slid.retire_day(d));
                }
                slid.push(a);
            }
            (0..retired).for_each(|d| slid.retire_day(d));
            // From scratch: a builder that never saw the retired days.
            let mut fresh = DepMatrixBuilder::new(window);
            for a in accesses.iter().filter(|a| a.time.day() >= retired) {
                fresh.push(a);
            }
            prop_assert_eq!(slid.occurrence_counts(), fresh.occurrence_counts());
            prop_assert_eq!(&slid.follows, &fresh.follows);
            prop_assert!(slid.deltas.is_empty(), "retired days keep no delta");
        }
    }
}
