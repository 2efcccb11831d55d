//! Columnar core store: posting-list bitsets over interned property
//! columns, with an incrementally maintained surviving set.
//!
//! [`Explorer`](crate::Explorer) queries used to re-scan the full
//! [`CoreRecord`] list on every call, matching string-keyed `BTreeMap`
//! bindings core by core. At reuse-library scale (the paper's Fig. 1
//! promises libraries "maintained by IP providers", i.e. far larger than
//! the shipped 768-core crypto library) that scan dominates the
//! interactive decide/retract loop.
//!
//! The store turns the library into a struct-of-arrays index built once
//! at load time:
//!
//! * one **column** per bound property ([`Symbol`]-keyed), holding a
//!   `bound` bitset (which cores bind the property at all — compliance
//!   is lenient, so unbound cores survive any decision on it) and one
//!   **posting-list bitset** per distinct option value,
//! * one dense **merit column** (`f64` vector + presence bitset) per
//!   figure of merit.
//!
//! A session decision `P = v` then becomes a single AND-merge of u64
//! words: `surviving &= !bound(P) | posting(P, v)`. The surviving set is
//! maintained *incrementally* across `decide`/`retract` by a trail of
//! word-level deltas (mirroring the `analyze::solve` solver trail): each
//! decision records only the words it changed, and retracting restores
//! them — no recomputation from scratch.
//!
//! Value canonicalization replicates [`Value::matches`] exactly:
//! `Int`/`Real` collapse onto one numeric key (`-0.0` normalized onto
//! `0.0`), `NaN` matches nothing, and `Text`/`Flag` compare structurally
//! — so posting-list hits are bit-identical to the legacy scan's
//! verdicts. The scan survives as reference functions in
//! [`crate::scan_oracle`], which the differential suites call directly.

use std::collections::{BTreeMap, HashMap};

use dse::analyze::solve::Viability;
use dse::eval::FigureOfMerit;
use dse::hierarchy::Symbol;
use dse::value::Value;

use crate::core_record::CoreRecord;
use crate::reuse::ReuseLibrary;

/// Smallest core count worth fanning out on the `foundation::par` pool;
/// below it the per-chunk submission overhead exceeds the word merge
/// itself.
pub(crate) const PAR_MIN_CORES: usize = 256;

/// Words per parallel chunk when materializing survivors or folding
/// merit ranges (4096 cores per chunk).
const PAR_WORDS_PER_CHUNK: usize = 64;

// ---------------------------------------------------------------------
// Bitset
// ---------------------------------------------------------------------

/// A fixed-width bitset over core indices, stored as u64 words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// All-zeros set over `len` cores.
    pub fn empty(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones set over `len` cores (trailing bits of the last word
    /// stay zero).
    pub fn full(len: usize) -> Self {
        let mut s = BitSet::empty(len);
        for (i, w) in s.words.iter_mut().enumerate() {
            let remaining = len - i * 64;
            *w = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
        }
        s
    }

    /// Number of core slots (not set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Population count.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

// ---------------------------------------------------------------------
// Canonical posting keys
// ---------------------------------------------------------------------

/// A posting-list key canonicalizing [`Value::matches`] equivalence
/// classes: two values share a key iff they match each other.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PostingKey {
    /// `Int`/`Real` collapsed to the f64 bit pattern, `-0.0` → `0.0`.
    Num(u64),
    Text(String),
    Flag(bool),
}

/// The posting key for `value`, or `None` when the value matches
/// nothing (`NaN`) or is an unknown future variant.
fn posting_key(value: &Value) -> Option<PostingKey> {
    if let Some(f) = value.as_f64() {
        if f.is_nan() {
            return None; // NaN == NaN is false under `matches`.
        }
        // -0.0 == 0.0 numerically; fold onto one bit pattern.
        let f = if f == 0.0 { 0.0 } else { f };
        return Some(PostingKey::Num(f.to_bits()));
    }
    match value {
        Value::Text(s) => Some(PostingKey::Text(s.clone())),
        Value::Flag(b) => Some(PostingKey::Flag(*b)),
        // `Value` is non_exhaustive; a future non-numeric variant has no
        // posting list and is handled by the scan-compatible fallback
        // (it matches nothing stored today).
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Columns
// ---------------------------------------------------------------------

/// One property column: which cores bind it, and a posting list per
/// distinct bound value.
#[derive(Debug)]
struct Column {
    /// Cores that bind this property at all.
    bound: BitSet,
    /// Posting list per canonical value.
    postings: HashMap<PostingKey, BitSet>,
}

/// One merit column: dense values plus a presence bitset.
#[derive(Debug)]
struct MeritColumn {
    /// Cores recording this merit.
    present: BitSet,
    /// `values[i]` is meaningful iff `present.contains(i)`.
    values: Vec<f64>,
}

// ---------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------

/// The columnar index over a fixed roster of cores.
///
/// The store holds no references to the records themselves — it indexes
/// core *positions* in the roster it was built from, so it can be
/// shared (`Arc`) across server sessions while each
/// [`Explorer`](crate::Explorer) resolves positions back to records.
#[derive(Debug)]
pub struct CoreStore {
    len: usize,
    columns: HashMap<Symbol, Column>,
    merits: BTreeMap<FigureOfMerit, MeritColumn>,
}

/// The deduplicated roster over `libraries`: cores in concatenated
/// library order, keeping the **first** occurrence of each
/// `(vendor, name)` pair. Passing the same library twice therefore
/// yields union semantics, not doubled cores. Both the columnar engine
/// and the scan oracle iterate this roster, so their outputs stay
/// bit-identical.
pub fn roster<'a>(libraries: &[&'a ReuseLibrary]) -> Vec<&'a CoreRecord> {
    let total: usize = libraries.iter().map(|l| l.len()).sum();
    let mut seen: HashMap<(&str, &str), ()> = HashMap::with_capacity(total);
    let mut out = Vec::with_capacity(total);
    for lib in libraries {
        for core in lib.cores() {
            if seen.insert((core.vendor(), core.name()), ()).is_none() {
                out.push(core);
            }
        }
    }
    out
}

/// The same dedup as [`roster`], expressed as `(library, core)` index
/// pairs instead of borrowed records. The dedup hashes every
/// `(vendor, name)` pair, so callers that query a fixed library set
/// repeatedly (the server does, once per `surviving_cores` request)
/// should compute the indices once and rebuild the borrowed roster via
/// [`roster_from_indices`] — a plain index walk, no hashing.
pub fn roster_indices(libraries: &[&ReuseLibrary]) -> Vec<(u32, u32)> {
    let total: usize = libraries.iter().map(|l| l.len()).sum();
    let mut seen: HashMap<(&str, &str), ()> = HashMap::with_capacity(total);
    let mut out = Vec::with_capacity(total);
    for (li, lib) in libraries.iter().enumerate() {
        for (ci, core) in lib.cores().iter().enumerate() {
            if seen.insert((core.vendor(), core.name()), ()).is_none() {
                out.push((li as u32, ci as u32));
            }
        }
    }
    out
}

/// Materializes the borrowed roster from precomputed
/// [`roster_indices`] over the **same** library set, byte-identical to
/// what [`roster`] would return.
pub fn roster_from_indices<'a>(
    libraries: &[&'a ReuseLibrary],
    indices: &[(u32, u32)],
) -> Vec<&'a CoreRecord> {
    indices
        .iter()
        .map(|&(li, ci)| &libraries[li as usize].cores()[ci as usize])
        .collect()
}

impl CoreStore {
    /// Builds the index over `cores` (a roster as produced by
    /// [`roster`]). Build is sequential and deterministic; only queries
    /// fan out on the pool.
    pub fn build(cores: &[&CoreRecord]) -> CoreStore {
        let len = cores.len();
        let mut columns: HashMap<Symbol, Column> = HashMap::new();
        let mut merits: BTreeMap<FigureOfMerit, MeritColumn> = BTreeMap::new();
        for (i, core) in cores.iter().enumerate() {
            for (prop, value) in core.bindings() {
                let col = columns
                    .entry(Symbol::intern(prop))
                    .or_insert_with(|| Column {
                        bound: BitSet::empty(len),
                        postings: HashMap::new(),
                    });
                col.bound.set(i);
                if let Some(key) = posting_key(value) {
                    col.postings
                        .entry(key)
                        .or_insert_with(|| BitSet::empty(len))
                        .set(i);
                }
            }
            for (&merit, &v) in core.merits() {
                let col = merits.entry(merit).or_insert_with(|| MeritColumn {
                    present: BitSet::empty(len),
                    values: vec![0.0; len],
                });
                col.present.set(i);
                col.values[i] = v;
            }
        }
        CoreStore {
            len,
            columns,
            merits,
        }
    }

    /// Builds the store for `libraries` via the deduplicated [`roster`].
    pub fn for_libraries(libraries: &[&ReuseLibrary]) -> CoreStore {
        CoreStore::build(&roster(libraries))
    }

    /// Number of indexed cores.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store indexes no cores.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// ANDs the decision `property = want` into `surviving`, appending
    /// `(word index, previous word)` pairs for every changed word onto
    /// `saved` — the undo trail for [`Cursor::retract`].
    ///
    /// Semantics are the scan's lenient compliance: cores not binding
    /// `property` survive (`!bound | posting`), and a property no core
    /// binds is a no-op.
    fn apply_decision(
        &self,
        surviving: &mut BitSet,
        property: &str,
        want: &Value,
        saved: &mut Vec<(u32, u64)>,
    ) {
        let Some(col) = self.columns.get(property) else {
            return;
        };
        let posting = posting_key(want).and_then(|k| col.postings.get(&k));
        for (wi, word) in surviving.words.iter_mut().enumerate() {
            let mask = !col.bound.words[wi] | posting.map_or(0, |p| p.words[wi]);
            let next = *word & mask;
            if next != *word {
                saved.push((wi as u32, *word));
                *word = next;
            }
        }
    }

    /// Population count of `set` (survivor count).
    pub fn count(&self, set: &BitSet) -> usize {
        set.count()
    }

    /// Survivor indices ascending — identical to the order the scan
    /// filter yields. Fans out per word chunk past [`PAR_MIN_CORES`];
    /// chunks are concatenated in submission order, so the result is
    /// independent of `DSE_THREADS`.
    pub fn indices(&self, set: &BitSet) -> Vec<usize> {
        if self.len < PAR_MIN_CORES {
            return set.iter_ones().collect();
        }
        let chunks: Vec<(usize, Vec<u64>)> = set
            .words
            .chunks(PAR_WORDS_PER_CHUNK)
            .enumerate()
            .map(|(ci, ws)| (ci * PAR_WORDS_PER_CHUNK, ws.to_vec()))
            .collect();
        foundation::par::par_map(chunks, |(base_word, words)| {
            let mut out = Vec::new();
            for (wi, &w) in words.iter().enumerate() {
                let mut rest = w;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    out.push((base_word + wi) * 64 + bit);
                }
            }
            out
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// One page of survivor indices: skips `offset` set bits, returns at
    /// most `limit` — without materializing the full survivor list.
    pub fn page(&self, set: &BitSet, offset: usize, limit: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(limit.min(1024));
        let mut to_skip = offset;
        for (wi, &w) in set.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if to_skip >= ones {
                to_skip -= ones;
                continue;
            }
            let mut rest = w;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if to_skip > 0 {
                    to_skip -= 1;
                    continue;
                }
                out.push(wi * 64 + bit);
                if out.len() == limit {
                    return out;
                }
            }
        }
        out
    }

    /// `(min, max)` of `merit` over `set ∩ present(merit)` — the same
    /// fold [`dse::eval::EvaluationSpace::range`] performs over the
    /// survivors, without materializing them. Parallel past the size
    /// threshold; `f64::min`/`max` folds are order-insensitive, so the
    /// result is bit-identical at every thread count.
    pub fn range(&self, set: &BitSet, merit: &FigureOfMerit) -> Option<(f64, f64)> {
        let col = self.merits.get(merit)?;
        if self.len < PAR_MIN_CORES {
            return range_over_words(set.words(), col, 0);
        }
        let chunks: Vec<(usize, Vec<u64>)> = set
            .words
            .chunks(PAR_WORDS_PER_CHUNK)
            .enumerate()
            .map(|(ci, ws)| (ci * PAR_WORDS_PER_CHUNK, ws.to_vec()))
            .collect();
        let partial = foundation::par::par_map(chunks, |(base_word, words)| {
            range_over_words(&words, col, base_word)
        });
        partial
            .into_iter()
            .flatten()
            .reduce(|(alo, ahi), (blo, bhi)| (alo.min(blo), ahi.max(bhi)))
    }

    /// Survivor indices whose `merit` is at most `bound`, ascending.
    pub fn meeting(&self, set: &BitSet, merit: &FigureOfMerit, bound: f64) -> Vec<usize> {
        let Some(col) = self.merits.get(merit) else {
            return Vec::new();
        };
        self.indices(set)
            .into_iter()
            .filter(|&i| col.present.contains(i) && col.values[i] <= bound)
            .collect()
    }

    /// `(sum, count)` of `merit` over `set ∩ present(merit)`, summed
    /// sequentially in ascending core order — f64 addition is not
    /// associative, so this order is the bit-identity contract with the
    /// scan's `issue_impact` sums.
    pub fn merit_sum(&self, set: &BitSet, merit: &FigureOfMerit) -> (f64, usize) {
        let Some(col) = self.merits.get(merit) else {
            return (0.0, 0);
        };
        let mut sum = 0.0;
        let mut n = 0usize;
        for (wi, &w) in set.words.iter().enumerate() {
            let mut rest = w & col.present.words[wi];
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                sum += col.values[wi * 64 + bit];
                n += 1;
            }
        }
        (sum, n)
    }

    /// Like [`merit_sum`](Self::merit_sum), further intersected with the
    /// posting list of `property = option` — cores *strictly* binding
    /// the option (the `issue_impact` per-option population).
    pub fn option_merit_sum(
        &self,
        set: &BitSet,
        property: &str,
        option: &Value,
        merit: &FigureOfMerit,
    ) -> (f64, usize) {
        let Some(col) = self.columns.get(property) else {
            return (0.0, 0);
        };
        let Some(posting) = posting_key(option).and_then(|k| col.postings.get(&k)) else {
            return (0.0, 0);
        };
        let Some(mcol) = self.merits.get(merit) else {
            return (0.0, 0);
        };
        let mut sum = 0.0;
        let mut n = 0usize;
        for (wi, &w) in set.words.iter().enumerate() {
            let mut rest = w & posting.words[wi] & mcol.present.words[wi];
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                sum += mcol.values[wi * 64 + bit];
                n += 1;
            }
        }
        (sum, n)
    }

    /// ANDs out of `set` every core binding `property` to a value the
    /// solver proved non-viable — `analyze::solve` pruning the
    /// surviving-core bitset directly. Cores not binding the property
    /// are untouched (lenient compliance), matching the scan reference
    /// [`scan_oracle::solver_pruned_cores`](crate::scan_oracle::solver_pruned_cores).
    pub fn prune_non_viable(&self, set: &mut BitSet, property: &str, viability: &Viability) {
        if matches!(viability, Viability::Open) {
            return;
        }
        let Some(col) = self.columns.get(property) else {
            return;
        };
        // Allowed = union of postings whose representative value stays
        // viable; surviving &= !bound | allowed.
        let mut allowed = BitSet::empty(self.len);
        for (key, posting) in &col.postings {
            if posting_key_viable(key, viability) {
                for (wi, w) in allowed.words.iter_mut().enumerate() {
                    *w |= posting.words[wi];
                }
            }
        }
        for (wi, word) in set.words.iter_mut().enumerate() {
            *word &= !col.bound.words[wi] | allowed.words[wi];
        }
    }
}

/// Whether a stored binding (by posting key) survives `viability`.
/// Mirrors [`value_viable`] on the canonical representative.
fn posting_key_viable(key: &PostingKey, viability: &Viability) -> bool {
    let value = match key {
        PostingKey::Num(bits) => Value::Real(f64::from_bits(*bits)),
        PostingKey::Text(s) => Value::Text(s.clone()),
        PostingKey::Flag(b) => Value::Flag(*b),
    };
    value_viable(&value, viability)
}

/// Whether a core's bound `value` survives the solver's `viability`
/// verdict for its property. Shared with [`crate::scan_oracle`] so the
/// two prune identically.
pub(crate) fn value_viable(value: &Value, viability: &Viability) -> bool {
    match viability {
        Viability::Open => true,
        Viability::Empty => false,
        Viability::Values(vs) => vs.iter().any(|v| value.matches(v)),
        Viability::IntRange(lo, hi) => value
            .as_f64()
            .is_some_and(|f| f >= *lo as f64 && f <= *hi as f64),
        Viability::RealRange(lo, hi) => value.as_f64().is_some_and(|f| f >= *lo && f <= *hi),
    }
}

/// Min/max fold of one word chunk against a merit column.
fn range_over_words(words: &[u64], col: &MeritColumn, base_word: usize) -> Option<(f64, f64)> {
    let mut acc: Option<(f64, f64)> = None;
    for (wi, &w) in words.iter().enumerate() {
        let abs = base_word + wi;
        let mut rest = w & col.present.words[abs];
        while rest != 0 {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let v = col.values[abs * 64 + bit];
            acc = Some(match acc {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            });
        }
    }
    acc
}

// ---------------------------------------------------------------------
// Cursor: the incrementally maintained surviving set
// ---------------------------------------------------------------------

/// One decision frame on the cursor trail.
#[derive(Debug)]
struct Frame {
    property: String,
    value: Value,
    /// `(word index, word value before this decision)` — only words the
    /// decision actually changed.
    saved: Vec<(u32, u64)>,
}

/// The surviving-set cursor: a bitset kept in lock-step with a
/// session's decision log via trail-backed word deltas.
///
/// `decide` ANDs one posting mask in and records the changed words;
/// `retract` pops a frame and restores them. Synchronizing to an
/// arbitrary session log (undo, revise, resumed journals) is
/// retract-to-common-prefix + replay, exactly like the solver trail.
#[derive(Debug)]
pub struct Cursor {
    surviving: BitSet,
    trail: Vec<Frame>,
    /// Per-level merit-range memo; cleared whenever the set changes.
    ranges: BTreeMap<FigureOfMerit, Option<(f64, f64)>>,
}

impl Cursor {
    /// A cursor over the full store (no decisions yet).
    pub fn new(store: &CoreStore) -> Cursor {
        Cursor {
            surviving: BitSet::full(store.len()),
            trail: Vec::new(),
            ranges: BTreeMap::new(),
        }
    }

    /// The current surviving set.
    pub fn surviving(&self) -> &BitSet {
        &self.surviving
    }

    /// Current trail depth (number of applied decisions).
    pub fn depth(&self) -> usize {
        self.trail.len()
    }

    /// Applies one decision incrementally.
    pub fn decide(&mut self, store: &CoreStore, property: &str, value: &Value) {
        let mut saved = Vec::new();
        store.apply_decision(&mut self.surviving, property, value, &mut saved);
        self.trail.push(Frame {
            property: property.to_owned(),
            value: value.clone(),
            saved,
        });
        self.ranges.clear();
    }

    /// Retracts the most recent decision by restoring its word deltas.
    pub fn retract(&mut self) {
        if let Some(frame) = self.trail.pop() {
            for &(wi, old) in frame.saved.iter().rev() {
                self.surviving.words[wi as usize] = old;
            }
            self.ranges.clear();
        }
    }

    /// Re-synchronizes the cursor to `log`, a slice of
    /// `(property, value)` decisions: retracts to the longest common
    /// prefix, then replays the remainder. Handles `undo` (shorter
    /// log), `revise` (value changed in place) and fresh decisions with
    /// the minimum number of word merges.
    pub fn sync<'d>(
        &mut self,
        store: &CoreStore,
        log: impl ExactSizeIterator<Item = (&'d str, &'d Value)> + Clone,
    ) {
        let common = self
            .trail
            .iter()
            .zip(log.clone())
            .take_while(|(f, (p, v))| f.property == *p && f.value == **v)
            .count();
        while self.trail.len() > common {
            self.retract();
        }
        for (p, v) in log.skip(common) {
            self.decide(store, p, v);
        }
    }

    /// The memoized `(min, max)` of `merit` over the surviving set at
    /// the current trail depth.
    pub fn range(&mut self, store: &CoreStore, merit: &FigureOfMerit) -> Option<(f64, f64)> {
        if let Some(&memo) = self.ranges.get(merit) {
            return memo;
        }
        let r = store.range(&self.surviving, merit);
        self.ranges.insert(*merit, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(name: &str, style: &str, delay: f64) -> CoreRecord {
        CoreRecord::new(name, "t", "")
            .bind("Style", style)
            .merit(FigureOfMerit::DelayNs, delay)
    }

    #[test]
    fn bitset_full_and_page() {
        let full = BitSet::full(70);
        assert_eq!(full.count(), 70);
        assert!(full.contains(69));
        assert!(!full.contains(70));
        let store = CoreStore::build(&[]);
        assert!(store.is_empty());
        let s = BitSet::full(10);
        let fake = CoreStore {
            len: 10,
            columns: HashMap::new(),
            merits: BTreeMap::new(),
        };
        assert_eq!(fake.page(&s, 3, 4), vec![3, 4, 5, 6]);
        assert_eq!(fake.page(&s, 8, 4), vec![8, 9]);
        assert_eq!(fake.page(&s, 12, 4), Vec::<usize>::new());
    }

    #[test]
    fn decide_and_retract_round_trip() {
        let cores = [
            core("a", "hw", 1.0),
            core("b", "sw", 2.0),
            core("c", "hw", 3.0),
        ];
        let refs: Vec<&CoreRecord> = cores.iter().collect();
        let store = CoreStore::build(&refs);
        let mut cur = Cursor::new(&store);
        assert_eq!(store.count(cur.surviving()), 3);
        cur.decide(&store, "Style", &Value::from("hw"));
        assert_eq!(store.indices(cur.surviving()), vec![0, 2]);
        assert_eq!(cur.range(&store, &FigureOfMerit::DelayNs), Some((1.0, 3.0)));
        cur.retract();
        assert_eq!(store.count(cur.surviving()), 3);
        assert_eq!(cur.range(&store, &FigureOfMerit::DelayNs), Some((1.0, 3.0)));
    }

    #[test]
    fn numeric_postings_collapse_int_and_real() {
        let cores = [
            CoreRecord::new("i", "t", "").bind("W", 64),
            CoreRecord::new("r", "t", "").bind("W", 64.0),
            CoreRecord::new("z", "t", "").bind("W", -0.0),
        ];
        let refs: Vec<&CoreRecord> = cores.iter().collect();
        let store = CoreStore::build(&refs);
        let mut cur = Cursor::new(&store);
        cur.decide(&store, "W", &Value::Real(64.0));
        assert_eq!(store.indices(cur.surviving()), vec![0, 1]);
        cur.retract();
        cur.decide(&store, "W", &Value::Int(0));
        assert_eq!(store.indices(cur.surviving()), vec![2]);
        cur.retract();
        cur.decide(&store, "W", &Value::Real(f64::NAN));
        assert_eq!(store.count(cur.surviving()), 0);
    }

    #[test]
    fn unknown_property_is_a_no_op() {
        let cores = [core("a", "hw", 1.0)];
        let refs: Vec<&CoreRecord> = cores.iter().collect();
        let store = CoreStore::build(&refs);
        let mut cur = Cursor::new(&store);
        cur.decide(&store, "NoSuchProperty", &Value::from(1));
        assert_eq!(store.count(cur.surviving()), 1);
    }

    #[test]
    fn sync_follows_undo_and_revise() {
        let cores = [
            core("a", "hw", 1.0),
            core("b", "sw", 2.0),
            core("c", "mixed", 3.0),
        ];
        let refs: Vec<&CoreRecord> = cores.iter().collect();
        let store = CoreStore::build(&refs);
        let mut cur = Cursor::new(&store);
        let hw = ("Style", Value::from("hw"));
        let sw = ("Style", Value::from("sw"));
        let log1 = [hw.clone()];
        cur.sync(&store, log1.iter().map(|(p, v)| (*p, v)));
        assert_eq!(store.indices(cur.surviving()), vec![0]);
        // Revise in place: prefix diverges at index 0.
        let log2 = [sw.clone()];
        cur.sync(&store, log2.iter().map(|(p, v)| (*p, v)));
        assert_eq!(store.indices(cur.surviving()), vec![1]);
        // Undo everything.
        cur.sync(&store, [].iter().map(|(p, v): &(&str, Value)| (*p, v)));
        assert_eq!(store.count(cur.surviving()), 3);
    }

    #[test]
    fn roster_dedupes_vendor_name_pairs() {
        let mut lib = ReuseLibrary::new("lib");
        lib.push(core("a", "hw", 1.0));
        lib.push(core("b", "sw", 2.0));
        let r = roster(&[&lib, &lib]);
        assert_eq!(r.len(), 2);
        let mut other = ReuseLibrary::new("other");
        other.push(core("a", "hw", 9.0)); // same (vendor, name): first wins
        other.push(CoreRecord::new("a", "other-vendor", ""));
        let r = roster(&[&lib, &other]);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].merit_value(&FigureOfMerit::DelayNs), Some(1.0));
    }
}
