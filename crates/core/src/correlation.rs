//! §7.2 — engine correlation (Obs. 11, Figs. 11–12, Tables 4–8).
//!
//! The scan matrix `R` has one row per scan and one column per engine,
//! with entries in {1, 0, −1} (Eq. 1). For every pair of engine columns
//! we compute the Spearman correlation; pairs with ρ > 0.8 are *strongly
//! correlated*, and the connected components of the strong-pair graph
//! are the engine groups of Tables 4–8.
//!
//! Because each column takes only three values, we compute the exact
//! tie-corrected Spearman from the 3×3 contingency table of each pair —
//! O(n) per pair with no rank arrays — and verify the shortcut against
//! the general implementation in `vt-stats`.
//!
//! There is one kernel: [`Correlation`]'s table-only fold. It scans *S*
//! once and counts every scan row, bit-sliced, into the all-pairs
//! [`ScopeContingency`] of each scope it belongs to (the global scope
//! plus at most its own file type, so eight scopes cost one scan). The
//! tables are the whole partial: ρ is taken over every row of a scope,
//! and merging two partials adds their counts. Batch is the one-segment
//! case `finish(fold(ctx))`; `vtld serve` merges per-segment partials in
//! between. `analyze_impl` (test-only) is the serial reference the
//! kernel is verified against: one scope at a time, engine columns
//! materialized as `Vec<i8>`.

use crate::analysis::{Analysis, AnalysisCtx};
#[cfg(test)]
use crate::freshdyn::FreshDynamic;
#[cfg(test)]
use crate::records::SampleRecord;
use vt_model::{EngineId, FileType};

/// Correlation threshold for "strongly correlated" (the paper's 0.8).
pub const STRONG_RHO: f64 = 0.8;

/// Result of the correlation analysis for one scope.
#[derive(Debug, Clone)]
pub struct CorrelationAnalysis {
    /// Scope: `None` = all of *S* (Fig. 11); `Some(ft)` = one file type
    /// (Fig. 12, Tables 4–8).
    pub scope: Option<FileType>,
    /// Number of engines.
    pub engine_count: usize,
    /// Rows of `R`: every scan of the scope's samples in *S*.
    pub rows: u64,
    /// Full ρ matrix, row-major `engine_count × engine_count`; `NaN`
    /// where undefined (constant column).
    pub rho: Vec<f64>,
    /// Pairs with ρ > [`STRONG_RHO`], sorted by descending ρ.
    pub strong_pairs: Vec<(EngineId, EngineId, f64)>,
    /// Connected components of the strong-pair graph with ≥2 members,
    /// each sorted by engine index; components sorted by size then
    /// first member.
    pub groups: Vec<Vec<EngineId>>,
}

impl CorrelationAnalysis {
    /// ρ between two engines (NaN when undefined).
    pub fn rho_between(&self, a: EngineId, b: EngineId) -> f64 {
        self.rho[a.index() * self.engine_count + b.index()]
    }
}

/// Spearman ρ between two three-valued columns given their 3×3
/// contingency table. `counts[i][j]` counts rows with
/// `x = i as i8 - 1`, `y = j as i8 - 1`. Returns `None` when either
/// margin is constant.
pub fn spearman_from_contingency(counts: &[[u64; 3]; 3]) -> Option<f64> {
    let n: u64 = counts.iter().flatten().sum();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    // Margins.
    let mut row: [f64; 3] = [0.0; 3];
    let mut col: [f64; 3] = [0.0; 3];
    for i in 0..3 {
        for j in 0..3 {
            row[i] += counts[i][j] as f64;
            col[j] += counts[i][j] as f64;
        }
    }
    // Average ranks per value group (1-based fractional ranks).
    let rank_of = |margin: &[f64; 3]| -> [f64; 3] {
        let mut out = [0.0; 3];
        let mut below = 0.0;
        for v in 0..3 {
            out[v] = below + (margin[v] + 1.0) / 2.0;
            below += margin[v];
        }
        out
    };
    let rx = rank_of(&row);
    let ry = rank_of(&col);
    // Pearson over ranks. Mean rank is (n+1)/2 on both sides.
    let mean = (nf + 1.0) / 2.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for i in 0..3 {
        let dx = rx[i] - mean;
        sxx += row[i] * dx * dx;
        let dy = ry[i] - mean;
        syy += col[i] * dy * dy;
        for j in 0..3 {
            sxy += counts[i][j] as f64 * dx * (ry[j] - mean);
        }
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some((sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0))
}

/// All-pairs 3×3 contingency tables for one scope.
///
/// This is the kernel's accumulator: per-segment instances fill
/// independently and [`merge`](Self::merge) associatively (tables are
/// plain counts), so `fold → merge → ρ` is deterministic at every
/// worker count and segmentation. Only the four `{1,0}×{1,0}` cells
/// are stored per pair; the five cells involving −1 follow exactly from
/// the per-engine
/// margins and the row count, so [`table`](Self::table) reconstructs
/// the full 3×3 by exact `u64` subtraction. For the paper's 70-engine
/// roster one accumulator is 70·69/2 · 4 counts ≈ 77 KB — independent
/// of row count, unlike the reference path's `engines × rows` column
/// matrix: a fold's delta is as large as a whole accumulation, never
/// larger.
///
/// Rows are counted **bit-sliced**: up to 64 rows buffer as one bit per
/// row in two words per engine (`pos` = R is 1, `zero` = R is 0; unset
/// in both = −1). A full block flushes into the tables with 4
/// `AND`+`popcount`s per pair — ~an order of magnitude fewer operations
/// than incrementing per row × pair. All arithmetic is exact `u64`
/// counting, so block boundaries (and hence partitioning) never change
/// the resulting tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeContingency {
    /// Scope this accumulator counts (None = global).
    pub scope: Option<FileType>,
    /// Number of engines (columns of `R`).
    pub engine_count: usize,
    /// Rows accumulated so far.
    pub rows: u64,
    /// Flattened upper-triangle `{1,0}×{1,0}` cells: pair `(a, b)` with
    /// `a < b` at `pair_index(a, b) * 4 + x*2 + y`, where `x`/`y` is 1
    /// when the engine's R is 1 and 0 when it is 0.
    counts: Vec<u64>,
    /// Per-engine margins: rows where engine `e` has R = 1 / R = 0.
    pos_total: Vec<u64>,
    zero_total: Vec<u64>,
    /// Block buffer: bit `r` of `pos[e]` / `zero[e]` is engine `e`'s
    /// verdict for the `r`-th buffered row.
    pos: Vec<u64>,
    zero: Vec<u64>,
    /// Rows currently buffered (0..=64).
    buffered: u32,
}

impl ScopeContingency {
    /// A zeroed accumulator.
    pub fn new(scope: Option<FileType>, engine_count: usize) -> Self {
        let pairs = engine_count * engine_count.saturating_sub(1) / 2;
        Self {
            scope,
            engine_count,
            rows: 0,
            counts: vec![0; pairs * 4],
            pos_total: vec![0; engine_count],
            zero_total: vec![0; engine_count],
            pos: vec![0; engine_count],
            zero: vec![0; engine_count],
            buffered: 0,
        }
    }

    /// Position of pair `(a, b)`, `a < b`, in upper-triangle order.
    fn pair_index(&self, a: usize, b: usize) -> usize {
        debug_assert!(a < b && b < self.engine_count);
        a * (2 * self.engine_count - a - 1) / 2 + (b - a - 1)
    }

    /// The 3×3 table of pair `(a, b)`, `a < b`. Call
    /// [`finalize`](Self::finalize) first if rows were accumulated
    /// directly (the kernel does).
    ///
    /// Only the `{1,0}×{1,0}` cells are stored; the −1 row/column is
    /// reconstructed from the margins. Every subtraction is a sum of
    /// per-block non-negative terms, so the reconstruction is exact.
    pub fn table(&self, a: usize, b: usize) -> [[u64; 3]; 3] {
        debug_assert_eq!(self.buffered, 0, "finalize() before reading tables");
        let base = self.pair_index(a, b) * 4;
        let c11 = self.counts[base];
        let c12 = self.counts[base + 1];
        let c21 = self.counts[base + 2];
        let c22 = self.counts[base + 3];
        let (ma, ka) = (self.pos_total[a], self.zero_total[a]);
        let (mb, kb) = (self.pos_total[b], self.zero_total[b]);
        let c10 = ka - c12 - c11;
        let c01 = kb - c21 - c11;
        let c20 = ma - c22 - c21;
        let c02 = mb - c22 - c12;
        let c00 = (self.rows - ma - ka) - c01 - c02;
        [[c00, c01, c02], [c10, c11, c12], [c20, c21, c22]]
    }

    /// Counts one scan row given engine bitmaps (bit `e` of `pos[e/64]`
    /// set = engine `e` flagged; of `zero` = scanned clean; neither =
    /// undetected). It reads the report's native verdict bitmaps without
    /// materializing per-engine values.
    ///
    /// Instead of testing every engine's bit individually, each input
    /// word is walked by its *set* bits (`trailing_zeros` + clear-lowest),
    /// so a sparse row costs work proportional to the engines that
    /// actually scanned it, not the roster size. Bits at or beyond
    /// `engine_count` are masked off, and a bit set in both `pos` and
    /// `zero` counts as `pos` — the same precedence as the old
    /// per-engine `if`/`else if`.
    pub fn accumulate_masks(&mut self, pos: &[u64; 2], zero: &[u64; 2]) {
        let bit = 1u64 << self.buffered;
        for w in 0..2 {
            let roster = word_mask(self.engine_count, w);
            let base = w << 6;
            let mut p = pos[w] & roster;
            while p != 0 {
                self.pos[base + p.trailing_zeros() as usize] |= bit;
                p &= p - 1;
            }
            let mut z = zero[w] & roster & !pos[w];
            while z != 0 {
                self.zero[base + z.trailing_zeros() as usize] |= bit;
                z &= z - 1;
            }
        }
        self.rows += 1;
        self.buffered += 1;
        if self.buffered == 64 {
            self.flush_block();
        }
    }

    /// Folds the buffered block into the tables: per pair, a popcount of
    /// an `AND` for each of the four stored `{1,0}×{1,0}` cells, plus
    /// per-engine margin updates.
    fn flush_block(&mut self) {
        if self.buffered == 0 {
            return;
        }
        let mut base = 0usize;
        for a in 0..self.engine_count {
            let (pa, za) = (self.pos[a], self.zero[a]);
            self.pos_total[a] += pa.count_ones() as u64;
            self.zero_total[a] += za.count_ones() as u64;
            for b in (a + 1)..self.engine_count {
                let (pb, zb) = (self.pos[b], self.zero[b]);
                let t = &mut self.counts[base..base + 4];
                t[0] += (za & zb).count_ones() as u64;
                t[1] += (za & pb).count_ones() as u64;
                t[2] += (pa & zb).count_ones() as u64;
                t[3] += (pa & pb).count_ones() as u64;
                base += 4;
            }
        }
        self.pos.iter_mut().for_each(|w| *w = 0);
        self.zero.iter_mut().for_each(|w| *w = 0);
        self.buffered = 0;
    }

    /// Flushes any partially filled block. Must be called after the
    /// last row and before [`table`](Self::table) or
    /// [`merge`](Self::merge).
    pub fn finalize(&mut self) {
        self.flush_block();
    }

    /// Folds another partition's finalized accumulator into this one.
    /// Addition of counts is associative and commutative, so any merge
    /// tree yields the same tables.
    pub fn merge(&mut self, other: &ScopeContingency) {
        debug_assert_eq!(self.scope, other.scope);
        debug_assert_eq!(self.engine_count, other.engine_count);
        debug_assert_eq!(self.buffered, 0, "finalize() both sides before merging");
        debug_assert_eq!(other.buffered, 0, "finalize() both sides before merging");
        self.rows += other.rows;
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        for (m, o) in self.pos_total.iter_mut().zip(&other.pos_total) {
            *m += o;
        }
        for (k, o) in self.zero_total.iter_mut().zip(&other.zero_total) {
            *k += o;
        }
    }
}

/// Bits of verdict-bitmap word `w` that correspond to real engines
/// (`engine_count` total across the two words).
fn word_mask(engine_count: usize, w: usize) -> u64 {
    let lo = w * 64;
    if engine_count <= lo {
        0
    } else if engine_count >= lo + 64 {
        !0
    } else {
        (1u64 << (engine_count - lo)) - 1
    }
}

/// §7.2 correlation stage: run via [`Analysis::run`] with an
/// [`AnalysisCtx`]. Produces the global-scope analysis plus one
/// analysis per file type in [`Correlation::scopes`] (in order), all
/// from one scan of *S*.
#[derive(Debug, Clone, Copy)]
pub struct Correlation {
    /// File types given a dedicated per-type analysis alongside the
    /// global scope.
    pub scopes: &'static [FileType],
}

impl Default for Correlation {
    fn default() -> Self {
        Correlation {
            scopes: &crate::pipeline::CORRELATION_SCOPES,
        }
    }
}

impl Correlation {
    /// The scope list the stage analyzes: global first, then the
    /// configured per-type scopes in order.
    pub(crate) fn all_scopes(&self) -> Vec<Option<FileType>> {
        let mut all: Vec<Option<FileType>> = vec![None];
        all.extend(self.scopes.iter().map(|&ft| Some(ft)));
        all
    }
}

impl Analysis for Correlation {
    type Output = (CorrelationAnalysis, Vec<CorrelationAnalysis>);
    type Partial = CorrelationPartial;

    fn name(&self) -> &'static str {
        "correlation"
    }

    fn fold(&self, ctx: &AnalysisCtx) -> CorrelationPartial {
        // Table-only fold: scope membership compares dense type indices
        // and the verdict planes are read straight out of the table's
        // bitmap columns — no `SampleRecord`/`ScanReport` access, so the
        // zero-copy segment path feeds this fold without materializing
        // row structs.
        let scopes = self.all_scopes();
        let scope_idx: Vec<Option<usize>> = scopes
            .iter()
            .map(|s| s.map(|ft| ft.dense_index()))
            .collect();
        let table = ctx.table;
        let mut contingency: Vec<ScopeContingency> = scopes
            .iter()
            .map(|&scope| ScopeContingency::new(scope, ctx.engine_count()))
            .collect();
        for &idx in ctx.s_indices() {
            let ti = table.type_idx(idx);
            for row in table.rows(idx) {
                let active = table.active_words(row);
                let det = table.detected_words(row);
                let z = [active[0] & !det[0], active[1] & !det[1]];
                for (acc, scope) in contingency.iter_mut().zip(&scope_idx) {
                    if scope.map_or(true, |d| d == ti) {
                        acc.accumulate_masks(&det, &z);
                    }
                }
            }
        }
        for acc in &mut contingency {
            acc.finalize();
        }
        CorrelationPartial { contingency }
    }

    fn merge(&self, acc: &mut CorrelationPartial, next: &CorrelationPartial) {
        debug_assert_eq!(acc.contingency.len(), next.contingency.len());
        for (a, b) in acc.contingency.iter_mut().zip(&next.contingency) {
            a.merge(b);
        }
    }

    fn finish(&self, p: &CorrelationPartial) -> (CorrelationAnalysis, Vec<CorrelationAnalysis>) {
        let mut analyses: Vec<CorrelationAnalysis> = p
            .contingency
            .iter()
            .map(|acc| {
                finish_analysis(acc.scope, acc.engine_count, acc.rows, |a, b| {
                    acc.table(a, b)
                })
            })
            .collect();
        let global = analyses.remove(0);
        (global, analyses)
    }
}

/// Mergeable accumulator of the §7.2 fold ([`Correlation`]'s
/// [`Analysis::Partial`]): one finalized [`ScopeContingency`] per scope
/// (global first, then [`Correlation::scopes`] in order) over every row
/// the fold saw. Its size depends on the roster and the scope list,
/// never on the row count, and merging adds counts — exact `u64` sums
/// whose block boundaries never change the tables — so any merge tree
/// over segments yields the one-segment fold's tables, and hence its ρ,
/// strong pairs and groups, bit for bit.
#[derive(Debug, Clone)]
pub struct CorrelationPartial {
    contingency: Vec<ScopeContingency>,
}

/// Runs the correlation analysis over *S* (optionally restricted to one
/// file type) — the serial, column-materializing reference
/// implementation the kernel is verified against.
#[cfg(test)]
pub(crate) fn analyze_impl(
    records: &[SampleRecord],
    s: &FreshDynamic,
    engine_count: usize,
    scope: Option<FileType>,
) -> CorrelationAnalysis {
    let in_scope = |rec: &&SampleRecord| scope.map_or(true, |ft| rec.meta.file_type == ft);
    // Collect columns: one Vec<i8> per engine.
    let mut columns: Vec<Vec<i8>> = vec![Vec::new(); engine_count];
    let mut rows = 0u64;
    for rec in s.iter(records).filter(in_scope) {
        for rep in &rec.reports {
            for (e, col) in columns.iter_mut().enumerate() {
                col.push(rep.verdicts.get(EngineId::new(e)).r_value());
            }
            rows += 1;
        }
    }

    finish_analysis(scope, engine_count, rows, |a, b| {
        let mut counts = [[0u64; 3]; 3];
        for (&x, &y) in columns[a].iter().zip(&columns[b]) {
            counts[(x + 1) as usize][(y + 1) as usize] += 1;
        }
        counts
    })
}

/// Shared tail of both paths: pairwise ρ from contingency tables, then
/// the strong-pair list and connected-component groups.
fn finish_analysis(
    scope: Option<FileType>,
    engine_count: usize,
    rows: u64,
    mut pair_table: impl FnMut(usize, usize) -> [[u64; 3]; 3],
) -> CorrelationAnalysis {
    let mut rho = vec![f64::NAN; engine_count * engine_count];
    let mut strong_pairs = Vec::new();
    for a in 0..engine_count {
        rho[a * engine_count + a] = 1.0;
        for b in (a + 1)..engine_count {
            let counts = pair_table(a, b);
            let r = spearman_from_contingency(&counts).unwrap_or(f64::NAN);
            rho[a * engine_count + b] = r;
            rho[b * engine_count + a] = r;
            if r > STRONG_RHO {
                strong_pairs.push((EngineId::new(a), EngineId::new(b), r));
            }
        }
    }
    strong_pairs.sort_by(|x, y| y.2.partial_cmp(&x.2).expect("finite"));

    // Connected components over strong pairs (union-find).
    let mut parent: Vec<usize> = (0..engine_count).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(a, b, _) in &strong_pairs {
        let ra = find(&mut parent, a.index());
        let rb = find(&mut parent, b.index());
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let mut comp: std::collections::HashMap<usize, Vec<EngineId>> =
        std::collections::HashMap::new();
    for e in 0..engine_count {
        let root = find(&mut parent, e);
        comp.entry(root).or_default().push(EngineId::new(e));
    }
    let mut groups: Vec<Vec<EngineId>> = comp.into_values().filter(|g| g.len() >= 2).collect();
    for g in &mut groups {
        g.sort_by_key(|e| e.index());
    }
    groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].index().cmp(&b[0].index())));

    CorrelationAnalysis {
        scope,
        engine_count,
        rows,
        rho,
        strong_pairs,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshdyn;
    use proptest::prelude::*;
    use vt_model::time::{Date, Duration, Timestamp};
    use vt_model::{
        GroundTruth, ReportKind, SampleHash, SampleMeta, ScanReport, Verdict, VerdictVec,
    };

    #[test]
    fn contingency_matches_general_spearman() {
        // Deterministic mixed data.
        let xs: Vec<i8> = (0..200).map(|i| ((i * 7 + 3) % 3) as i8 - 1).collect();
        let ys: Vec<i8> = (0..200)
            .map(|i| {
                if i % 4 == 0 {
                    ((i * 5) % 3) as i8 - 1
                } else {
                    xs[i]
                }
            })
            .collect();
        let mut counts = [[0u64; 3]; 3];
        for (&x, &y) in xs.iter().zip(&ys) {
            counts[(x + 1) as usize][(y + 1) as usize] += 1;
        }
        let fast = spearman_from_contingency(&counts).unwrap();
        let xf: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
        let yf: Vec<f64> = ys.iter().map(|&v| v as f64).collect();
        let general = vt_stats::spearman(&xf, &yf).unwrap();
        assert!((fast - general).abs() < 1e-12, "{fast} vs {general}");
    }

    proptest! {
        #[test]
        fn contingency_shortcut_is_exact(
            data in proptest::collection::vec((0u8..3, 0u8..3), 2..300)
        ) {
            let mut counts = [[0u64; 3]; 3];
            for &(x, y) in &data {
                counts[x as usize][y as usize] += 1;
            }
            let fast = spearman_from_contingency(&counts);
            let xf: Vec<f64> = data.iter().map(|&(x, _)| x as f64).collect();
            let yf: Vec<f64> = data.iter().map(|&(_, y)| y as f64).collect();
            let general = vt_stats::spearman(&xf, &yf);
            match (fast, general) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b),
                (None, None) => {}
                (a, b) => prop_assert!(false, "disagree: {:?} vs {:?}", a, b),
            }
        }
    }

    #[test]
    fn bit_sliced_blocks_count_exactly() {
        // 150 rows crosses two full 64-row blocks plus a 22-row partial
        // flush; verdicts cycle through all 9 (x, y) combinations per
        // engine pair. The bit-sliced tables must equal a direct count.
        let engines = 5usize;
        let rows: Vec<Vec<i8>> = (0..150u64)
            .map(|r| {
                (0..engines)
                    .map(|e| ((r * 7 + e as u64 * 13 + r * r % 5) % 3) as i8 - 1)
                    .collect()
            })
            .collect();

        let mut by_masks = ScopeContingency::new(None, engines);
        let mut direct = vec![[[0u64; 3]; 3]; engines * (engines - 1) / 2];
        for vals in &rows {
            let mut pos = [0u64; 2];
            let mut zero = [0u64; 2];
            for (e, &v) in vals.iter().enumerate() {
                match v {
                    1 => pos[e >> 6] |= 1 << (e & 63),
                    0 => zero[e >> 6] |= 1 << (e & 63),
                    _ => {}
                }
            }
            by_masks.accumulate_masks(&pos, &zero);
            let mut p = 0;
            for a in 0..engines {
                for b in (a + 1)..engines {
                    direct[p][(vals[a] + 1) as usize][(vals[b] + 1) as usize] += 1;
                    p += 1;
                }
            }
        }
        by_masks.finalize();

        assert_eq!(by_masks.rows, 150);
        let mut p = 0;
        for a in 0..engines {
            for b in (a + 1)..engines {
                assert_eq!(by_masks.table(a, b), direct[p], "pair ({a},{b})");
                p += 1;
            }
        }
    }

    /// Two samples with 4 engines: engines 0 and 1 identical (copiers),
    /// engine 2 anti-correlated with 0, engine 3 independent-ish.
    fn fixture() -> (Vec<SampleRecord>, FreshDynamic) {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let first = window + Duration::days(5);
        let mut records = Vec::new();
        for i in 0..6u64 {
            let meta = SampleMeta {
                hash: SampleHash::from_ordinal(i),
                file_type: if i % 2 == 0 {
                    FileType::Win32Exe
                } else {
                    FileType::Pdf
                },
                origin: first,
                first_submission: first,
                truth: GroundTruth::Benign,
            };
            let reports: Vec<ScanReport> = (0..4)
                .map(|k| {
                    let bit = (i + k) % 2 == 0;
                    let mut verdicts = VerdictVec::new(4);
                    let v = |b: bool| {
                        if b {
                            Verdict::Malicious
                        } else {
                            Verdict::Benign
                        }
                    };
                    verdicts.set(EngineId(0), v(bit));
                    verdicts.set(EngineId(1), v(bit));
                    verdicts.set(EngineId(2), v(!bit));
                    verdicts.set(
                        EngineId(3),
                        if (i * 3 + k) % 3 == 0 {
                            Verdict::Undetected
                        } else {
                            v(k % 2 == 0)
                        },
                    );
                    ScanReport {
                        sample: meta.hash,
                        file_type: FileType::Pdf,
                        analysis_date: first + Duration::days(k as i64),
                        last_submission_date: first,
                        times_submitted: 1,
                        kind: ReportKind::Upload,
                        verdicts,
                    }
                })
                .collect();
            records.push(SampleRecord::new(meta, reports));
        }
        let s = freshdyn::build(&records, window);
        (records, s)
    }

    #[test]
    fn copier_pair_is_strong_and_grouped() {
        let (records, s) = fixture();
        assert!(!s.is_empty());
        let a = analyze_impl(&records, &s, 4, None);
        assert!(a.rho_between(EngineId(0), EngineId(1)) > 0.99);
        assert!(a.rho_between(EngineId(0), EngineId(2)) < -0.99);
        assert!(a
            .strong_pairs
            .iter()
            .any(|&(x, y, _)| (x, y) == (EngineId(0), EngineId(1))));
        // Anti-correlation is NOT a strong pair.
        assert!(!a
            .strong_pairs
            .iter()
            .any(|&(x, y, _)| (x, y) == (EngineId(0), EngineId(2))));
        assert!(a
            .groups
            .iter()
            .any(|g| g.contains(&EngineId(0)) && g.contains(&EngineId(1))));
        // Diagonal is 1.
        assert_eq!(a.rho_between(EngineId(3), EngineId(3)), 1.0);
    }

    #[test]
    fn scope_filters_rows() {
        let (records, s) = fixture();
        let all = analyze_impl(&records, &s, 4, None);
        let exe = analyze_impl(&records, &s, 4, Some(FileType::Win32Exe));
        assert!(exe.rows < all.rows);
        assert!(exe.rows > 0);
        assert_eq!(exe.scope, Some(FileType::Win32Exe));
        // Every scan row of S counts.
        assert_eq!(all.rows, s.reports);
    }

    fn assert_bit_identical(a: &CorrelationAnalysis, b: &CorrelationAnalysis, ctx: &str) {
        assert_eq!(a.scope, b.scope, "{ctx}: scope");
        assert_eq!(a.rows, b.rows, "{ctx}: rows");
        assert_eq!(a.rho.len(), b.rho.len(), "{ctx}: rho len");
        for (i, (x, y)) in a.rho.iter().zip(&b.rho).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: rho[{i}] {x} vs {y}");
        }
        assert_eq!(a.strong_pairs.len(), b.strong_pairs.len(), "{ctx}: pairs");
        for ((e1, e2, r1), (f1, f2, r2)) in a.strong_pairs.iter().zip(&b.strong_pairs) {
            assert_eq!((e1, e2), (f1, f2), "{ctx}: pair");
            assert_eq!(r1.to_bits(), r2.to_bits(), "{ctx}: pair rho");
        }
        assert_eq!(a.groups, b.groups, "{ctx}: groups");
    }

    /// `run` over a hand-built record set, as the flat
    /// `[global, scopes…]` list the reference is computed in.
    fn run_stage(
        stage: Correlation,
        records: &[SampleRecord],
        s: &FreshDynamic,
        fleet: &vt_engines::EngineFleet,
    ) -> Vec<CorrelationAnalysis> {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let table = crate::table::TrajectoryTable::build(records, window);
        let ctx = AnalysisCtx::new(records, &table, s, fleet, window);
        let (global, mut per_type) = stage.run(&ctx);
        per_type.insert(0, global);
        per_type
    }

    /// The kernel must reproduce the reference per-scope analyses bit
    /// for bit — ρ matrices, strong pairs and groups. Engines beyond the
    /// fixture's four read as undetected on both sides.
    #[test]
    fn stage_matches_reference_bit_for_bit() {
        let (records, s) = fixture();
        let fleet = vt_engines::EngineFleet::with_seed(1);
        // Html is an empty scope.
        let stage = Correlation {
            scopes: &[FileType::Win32Exe, FileType::Pdf, FileType::Html],
        };
        let reference: Vec<CorrelationAnalysis> = stage
            .all_scopes()
            .into_iter()
            .map(|sc| analyze_impl(&records, &s, fleet.engine_count(), sc))
            .collect();
        let got = run_stage(stage, &records, &s, &fleet);
        assert_eq!(got.len(), reference.len());
        for (f, r) in got.iter().zip(&reference) {
            assert_bit_identical(f, r, "fixture");
        }
    }

    /// A two-segment fold/merge/finish must stay bit-identical to the
    /// one-segment `run`.
    #[test]
    fn segmented_fold_equals_one_segment_run() {
        use crate::pipeline::Study;
        use crate::table::TrajectoryTable;
        use vt_sim::SimConfig;

        let study = Study::generate_with_workers(SimConfig::new(0xC011, 2_000), 2);
        let ws = study.sim().config().window_start();
        let records = study.records();
        let fleet = study.sim().fleet();
        let table = TrajectoryTable::build(records, ws);
        let s = freshdyn::build(records, ws);
        let ctx = AnalysisCtx::new(records, &table, &s, fleet, ws);

        // Two contiguous segments, folded independently and merged in
        // order.
        let mid = records.len() / 3;
        let (seg_a, seg_b) = records.split_at(mid);
        let (ta, tb) = (
            TrajectoryTable::build(seg_a, ws),
            TrajectoryTable::build(seg_b, ws),
        );
        let (sa, sb) = (freshdyn::build(seg_a, ws), freshdyn::build(seg_b, ws));
        let ctx_a = AnalysisCtx::new(seg_a, &ta, &sa, fleet, ws);
        let ctx_b = AnalysisCtx::new(seg_b, &tb, &sb, fleet, ws);

        let stage = Correlation {
            scopes: &[FileType::Win32Exe, FileType::Pdf],
        };
        let (g_run, per_run) = stage.run(&ctx);
        let mut merged = stage.fold(&ctx_a);
        stage.merge(&mut merged, &stage.fold(&ctx_b));
        let (g_seg, per_seg) = stage.finish(&merged);
        assert_eq!(g_seg.rows, s.reports, "every row of S, across segments");
        assert_bit_identical(&g_run, &g_seg, "segmented global");
        assert_eq!(per_run.len(), per_seg.len());
        for (r, f) in per_run.iter().zip(&per_seg) {
            assert_bit_identical(r, f, "segmented scope");
        }
    }

    // Random record sets: the kernel equals the column-materializing
    // reference, per scope.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn stage_equals_column_path(
            // Per sample: (file-type selector, per-scan verdict words).
            samples in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(0u32..81, 1..6)),
                1..20,
            ),
        ) {
            let engines = 4usize;
            let window = Timestamp::from_date(Date::new(2021, 5, 1));
            let first = window + Duration::days(5);
            let types = [FileType::Win32Exe, FileType::Pdf, FileType::Zip];
            let mut records = Vec::new();
            for (i, (ft, scans)) in samples.iter().enumerate() {
                let meta = SampleMeta {
                    hash: SampleHash::from_ordinal(i as u64),
                    file_type: types[*ft as usize],
                    origin: first,
                    first_submission: first,
                    truth: GroundTruth::Benign,
                };
                let reports: Vec<ScanReport> = scans
                    .iter()
                    .enumerate()
                    .map(|(k, &word)| {
                        // Decode the scan word as 4 base-3 verdicts.
                        let mut verdicts = VerdictVec::new(engines);
                        let mut w = word;
                        for e in 0..engines {
                            let v = match w % 3 {
                                0 => Verdict::Malicious,
                                1 => Verdict::Benign,
                                _ => Verdict::Undetected,
                            };
                            verdicts.set(EngineId::new(e), v);
                            w /= 3;
                        }
                        ScanReport {
                            sample: meta.hash,
                            file_type: meta.file_type,
                            analysis_date: first + Duration::days(k as i64),
                            last_submission_date: first,
                            times_submitted: 1,
                            kind: ReportKind::Upload,
                            verdicts,
                        }
                    })
                    .collect();
                records.push(SampleRecord::new(meta, reports));
            }
            // Hand-built S over every record (bypasses the freshness
            // filters — the kernel only contracts on S's indices).
            let s = FreshDynamic {
                indices: (0..records.len()).collect(),
                reports: records.iter().map(|r| r.reports.len() as u64).sum(),
            };
            let fleet = vt_engines::EngineFleet::with_seed(1);
            let stage = Correlation {
                scopes: &[FileType::Win32Exe, FileType::Pdf],
            };
            let got = run_stage(stage, &records, &s, &fleet);
            for (f, scope) in got.iter().zip(stage.all_scopes()) {
                let r = analyze_impl(&records, &s, fleet.engine_count(), scope);
                assert_bit_identical(f, &r, &format!("scope {scope:?}"));
            }
        }
    }
}
