//! Stage II — **LevelGrow**: growing each canonical diameter into the full
//! set of l-long δ-skinny patterns of its cluster.
//!
//! Every pattern reported by this stage shares the cluster's canonical
//! diameter; the growth adds twig vertices level by level and closing edges,
//! re-checking Constraints I–III locally on every candidate extension
//! (Algorithm 3).  Embedding lists are carried along and extended
//! incrementally, so the stage never performs a global subgraph-isomorphism
//! search — only "local examination of relevant candidates", which is what
//! the paper's Continuity property buys.
//!
//! Generated patterns are deduplicated up to isomorphism, which guarantees
//! each pattern of the cluster is reported exactly once even when it is
//! reachable through several growth orders.  The dedup runs on the
//! canonical-form funnel ([`skinny_graph::CanonSet`]): every admitted child
//! pays a cheap `O(V + E)` order-invariant fingerprint, and the full
//! minimum-DFS-code key is computed — by the early-abort scratch engine —
//! only when fingerprints collide.  Keys computed once are memoized behind
//! the pattern's interned [`skinny_graph::CanonId`] and reused by the
//! cross-cluster dedup ([`crate::miner`]), never recomputed.
//!
//! Candidates are evaluated on the extension index: one sweep per pattern
//! builds the inverted [`ExtensionTable`] (`candidate → supporting rows`);
//! each candidate is pruned by its free support upper bound, checked on
//! structure alone, and materialized by gathering exactly its supporting
//! rows ([`crate::ext_index`]).  The pre-index path — enumerate candidates
//! into an ordered set, then re-scan every embedding row once per
//! candidate — survives only as the test oracle behind
//! [`LevelGrow::reference`]; its output is byte-identical.
//!
//! Both explorations walk a pattern's candidates through one candidate pass,
//! on either engine.  Exhaustive exploration runs one pass per pattern and
//! admits every child into its worklist.  Closure jumping runs *greedy*
//! passes, which apply each support-preserving child in place, until a pass
//! advances no more; the children left over are its branches.

use crate::config::{Exploration, ReportMode, SkinnyMineConfig};
use crate::constraints::{check_extension, ConstraintViolation};
use crate::cycle::CyclePattern;
use crate::data::MiningData;
use crate::ext_index::{ExtensionTable, FULL_SUBSET_DEGREE};
use crate::grown::{Extension, GrowScratch, GrownPattern, StructScratch};
use crate::path_pattern::PathPattern;
use crate::result::SkinnyPattern;
use crate::stats::MiningStats;
use skinny_graph::{
    CanonSet, CsrSnapshot, DfsCode, EmbeddingSet, OccurrenceStore, SupportBatch, SupportMeasure,
    SupportScratch, VertexId, VertexMarks,
};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Raw tick source for the per-candidate phase attribution.  `Instant::now`
/// is a vDSO `clock_gettime` (~25 ns); with hundreds of thousands of
/// candidates per cluster, the phase boundaries of the evaluation hot path
/// would spend more time reading the clock than checking constraints.  On
/// x86-64 this is a single `rdtsc`; elsewhere it falls back to
/// `Instant`-derived nanoseconds.  Ticks are settled into wall-clock
/// durations once per cluster against the cluster's own `(Instant, ticks)`
/// calibration window ([`PhaseTicks::settle`]), so the attribution is exact
/// for any tick rate.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn phase_ticks() -> u64 {
    // SAFETY: `rdtsc` is unprivileged and available on every x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Non-x86-64 fallback of the tick source: nanoseconds since a process-wide
/// epoch.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub(crate) fn phase_ticks() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Per-cluster phase-tick accumulators, converted to wall-clock durations
/// exactly once per cluster — the hot path only ever adds tick deltas.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseTicks {
    candidates: u64,
    check: u64,
    support: u64,
    extend: u64,
    canon: u64,
}

impl PhaseTicks {
    /// Settles the accumulated ticks into `stats.grow_phases` using the
    /// cluster's own calibration window: `wall` wall-clock seconds elapsed
    /// over `ticks` raw ticks.
    fn settle(self, stats: &mut MiningStats, wall: Duration, ticks: u64) {
        let per = wall.as_secs_f64() / ticks.max(1) as f64;
        let d = |t: u64| Duration::from_secs_f64(t as f64 * per);
        stats.grow_phases.candidates += d(self.candidates);
        stats.grow_phases.check += d(self.check);
        stats.grow_phases.support += d(self.support);
        stats.grow_phases.extend += d(self.extend);
        stats.grow_phases.canon += d(self.canon);
    }
}

/// A Stage-I seed for Stage-II growth: a canonical-diameter path, or a
/// minimal odd cycle `C_{2l+1}` (which no path seed can reach), borrowed
/// from wherever the entry point keeps its seeds — a fresh Stage-I run, the
/// pre-computed index, or the incremental miner's re-grown clusters.
#[derive(Debug, Clone, Copy)]
pub enum Seed<'a> {
    /// A frequent simple path of admissible length.
    Path(&'a PathPattern),
    /// A frequent minimal odd cycle.
    Cycle(&'a CyclePattern),
}

impl<'a> Seed<'a> {
    /// Seed support under the chosen measure.
    pub fn support(self, measure: SupportMeasure) -> usize {
        match self {
            Seed::Path(p) => p.support(measure),
            Seed::Cycle(c) => c.support(measure),
        }
    }

    /// The seed's embedding rows.  Their count is the cost proxy the
    /// parallel scheduler uses to dispatch expensive clusters first.
    pub fn embeddings(self) -> &'a OccurrenceStore {
        match self {
            Seed::Path(p) => &p.embeddings,
            Seed::Cycle(c) => &c.embeddings,
        }
    }
}

/// The Stage-II grower.
#[derive(Debug, Clone)]
pub struct LevelGrow<'a> {
    data: Cow<'a, CsrSnapshot>,
    config: &'a SkinnyMineConfig,
    /// Evaluate candidates on the pre-index re-scan path (the test oracle).
    reference: bool,
}

/// Everything produced by growing one cluster.
#[derive(Debug, Clone, Default)]
pub struct ClusterOutcome {
    /// Reported patterns of the cluster (after the report-mode filter).
    pub patterns: Vec<SkinnyPattern>,
    /// Number of patterns examined in the cluster before filtering.
    pub examined: u64,
    /// Partial statistics counters to merge into the run's [`MiningStats`].
    pub stats: MiningStats,
}

impl<'a> LevelGrow<'a> {
    /// Creates a grower over `data` with the run configuration.
    /// Adjacency-list input is frozen into a CSR snapshot here, once;
    /// snapshot input is borrowed.
    pub fn new(data: MiningData<'a>, config: &'a SkinnyMineConfig) -> Self {
        LevelGrow { data: data.to_snapshot(), config, reference: false }
    }

    /// The parity oracle: a grower that evaluates every candidate on the
    /// pre-index path — enumerate the candidates into an ordered set
    /// ([`LevelGrow::candidate_extensions_reference`]), then re-scan every
    /// embedding row once per candidate.  Its reported patterns are
    /// byte-identical to [`LevelGrow::new`]'s, which the parity tests
    /// assert; the rejection counters in [`ClusterOutcome::stats`] differ,
    /// because it tests frequency before the constraints.  No entry point
    /// uses it.
    pub fn reference(data: MiningData<'a>, config: &'a SkinnyMineConfig) -> Self {
        LevelGrow { reference: true, ..Self::new(data, config) }
    }

    /// Grows the cluster seeded by one canonical diameter (a frequent path of
    /// admissible length) and returns all reported patterns of that cluster.
    pub fn grow_cluster(&self, seed: &PathPattern) -> ClusterOutcome {
        self.grow_cluster_with(seed, &mut GrowScratch::new())
    }

    /// [`LevelGrow::grow_cluster`] with caller-provided (typically
    /// per-worker) scratch tables.
    pub fn grow_cluster_with(&self, seed: &PathPattern, scratch: &mut GrowScratch) -> ClusterOutcome {
        self.grow_root(GrownPattern::from_path_pattern(seed), scratch)
    }

    /// Grows the cluster of any Stage-I seed — path or minimal cycle — with
    /// caller-provided (typically per-worker) scratch tables, reused across
    /// every cluster the worker grows.
    pub fn grow_seed_with(&self, seed: Seed<'_>, scratch: &mut GrowScratch) -> ClusterOutcome {
        match seed {
            Seed::Path(p) => self.grow_cluster_with(p, scratch),
            Seed::Cycle(c) => self.grow_cycle_cluster_with(c, scratch),
        }
    }

    /// Grows the cluster seeded by one minimal odd cycle `C_{2l+1}`, with
    /// caller-provided scratch.
    pub fn grow_cycle_cluster_with(&self, seed: &CyclePattern, scratch: &mut GrowScratch) -> ClusterOutcome {
        self.grow_root(GrownPattern::from_cycle(seed), scratch)
    }

    /// Grows a cluster from its level-0 pattern.
    fn grow_root(&self, root: GrownPattern, scratch: &mut GrowScratch) -> ClusterOutcome {
        match self.config.exploration {
            Exploration::Exhaustive => self.grow_cluster_exhaustive(root, scratch),
            Exploration::ClosureJump => self.grow_cluster_closure(root, scratch),
        }
    }

    /// Exhaustive exploration: every frequent constraint-satisfying pattern
    /// of the cluster is generated exactly once (canonical-form dedup via
    /// the fingerprint → memoized-key funnel).
    fn grow_cluster_exhaustive(&self, mut root: GrownPattern, scratch: &mut GrowScratch) -> ClusterOutcome {
        let mut outcome = ClusterOutcome::default();
        let wall0 = Instant::now();
        let tick0 = phase_ticks();
        let mut ticks = PhaseTicks::default();
        scratch.canon.reset();
        root.canon = scratch.canon.insert(&root.graph);
        debug_assert!(root.canon.is_some(), "the root is the first insert of a fresh set");
        let mut worklist: Vec<GrownPattern> = vec![root];

        while let Some(mut current) = worklist.pop() {
            outcome.examined += 1;
            let current_support = current.embeddings.support_with(self.config.support, &mut scratch.support);
            let mut is_maximal = true;
            let mut is_closed = true;
            // a frequent constraint-preserving child flips the flags and
            // enters the worklist once: a fresh fingerprint admits it with
            // no canonical-key work at all, and only fingerprint collisions
            // pay for (memoized) min-DFS keys
            let admit =
                |mut child: GrownPattern, support: usize, canon: &mut CanonSet, ticks: &mut PhaseTicks| {
                    is_maximal = false;
                    if support == current_support {
                        is_closed = false;
                    }
                    let t = phase_ticks();
                    let id = canon.insert(&child.graph);
                    ticks.canon += phase_ticks().wrapping_sub(t);
                    if let Some(id) = id {
                        child.canon = Some(id);
                        worklist.push(child);
                    }
                };
            let (stats, ticks) = (&mut outcome.stats, &mut ticks);
            self.candidate_pass(&mut current, current_support, false, scratch, stats, ticks, admit);

            let id = current.canon.expect("every worklist pattern is interned");
            let fp = scratch.canon.fingerprint_of(id);
            let key = scratch.canon.key_of(id).cloned();
            if let Some(p) = self.report(&current, current_support, is_closed, is_maximal, fp, key) {
                outcome.patterns.push(p);
            }
        }
        ticks.settle(&mut outcome.stats, wall0.elapsed(), phase_ticks().wrapping_sub(tick0));
        let canon_stats = scratch.canon.stats();
        outcome.stats.record_canon(canon_stats);
        outcome.stats.level_grow.patterns_out = outcome.patterns.len() as u64;
        outcome
    }

    /// Closure-jumping exploration: support-preserving extensions are applied
    /// eagerly so the search jumps straight to the closed pattern of each
    /// support level, and branching happens only on support-dropping
    /// extensions.  Reports the cluster's closed (and maximal) patterns
    /// without enumerating the exponentially many non-closed sub-patterns.
    fn grow_cluster_closure(&self, root: GrownPattern, scratch: &mut GrowScratch) -> ClusterOutcome {
        let mut outcome = ClusterOutcome::default();
        let wall0 = Instant::now();
        let tick0 = phase_ticks();
        let mut ticks = PhaseTicks::default();
        // worklist dedup and reported-pattern dedup both run on the
        // fingerprint → memoized-key funnel (two sets: branch children are
        // deduplicated against each other, closed patterns against each
        // other)
        scratch.canon.reset();
        scratch.canon_reported.reset();
        scratch.canon.insert(&root.graph);
        let mut worklist: Vec<GrownPattern> = vec![root];

        while let Some(mut closed) = worklist.pop() {
            outcome.examined += 1;
            // 1. closure: greedy passes apply support-preserving valid
            //    extensions until a pass advances no more; the result is a
            //    closed pattern of this support level.  Each pass applies
            //    every admissible extension of its enumerated candidate set
            //    instead of re-enumerating after every single application —
            //    the re-enumeration loop was quadratic in the closure length,
            //    dominating Stage II on large patterns.
            let closed_support = closed.embeddings.support_with(self.config.support, &mut scratch.support);
            // 2. the final (non-advancing) pass doubles as the branch step:
            //    every admissible child it hands over is a support-changing
            //    extension of the now-closed pattern (a support-preserving one
            //    would have advanced the closure), so it is exactly the
            //    branch set, with no separate re-enumeration.  A child
            //    branches whichever way the support moved (the stored MNI of
            //    a symmetric pattern can rise).
            let mut branches: Vec<GrownPattern> = Vec::new();
            loop {
                branches.clear();
                let branch = |child, _, _: &mut CanonSet, _: &mut PhaseTicks| branches.push(child);
                let (stats, ticks) = (&mut outcome.stats, &mut ticks);
                if !self.candidate_pass(&mut closed, closed_support, true, scratch, stats, ticks, branch) {
                    break;
                }
            }
            let is_maximal = branches.is_empty();
            for child in branches {
                let t = phase_ticks();
                let inserted = scratch.canon.insert(&child.graph).is_some();
                ticks.canon += phase_ticks().wrapping_sub(t);
                if inserted {
                    worklist.push(child);
                }
            }

            let t = phase_ticks();
            let reported_id = scratch.canon_reported.insert(&closed.graph);
            ticks.canon += phase_ticks().wrapping_sub(t);
            if let Some(id) = reported_id {
                let fp = scratch.canon_reported.fingerprint_of(id);
                let key = scratch.canon_reported.key_of(id).cloned();
                if let Some(p) = self.report(&closed, closed_support, true, is_maximal, fp, key) {
                    outcome.patterns.push(p);
                }
            }
        }
        ticks.settle(&mut outcome.stats, wall0.elapsed(), phase_ticks().wrapping_sub(tick0));
        let canon_stats = scratch.canon.stats().merged(scratch.canon_reported.stats());
        outcome.stats.record_canon(canon_stats);
        outcome.stats.level_grow.patterns_out = outcome.patterns.len() as u64;
        outcome
    }

    /// One pass over the candidate extensions of `pattern` (Algorithm 3's
    /// candidate loop), in engine order: the extension table on the indexed
    /// engine, the ordered reference set behind [`LevelGrow::reference`].
    /// Every admitted child is handed to `visit` with its support and the
    /// scratch's worklist funnel — except, in a greedy pass, the
    /// support-preserving children, which are applied to `pattern` in place.
    /// Returns whether the pattern advanced.
    ///
    /// A greedy pass keeps walking the pass-start enumeration after an
    /// application: pattern vertex ids are stable under extension, so the
    /// remaining descriptors stay valid, and on the indexed engine the table
    /// (which indexes the pass-start rows) is refiltered in place through the
    /// applied candidate's row expansion — no re-sweep of the data.
    // the per-cluster accumulators ride as arguments: the visitor borrows
    // the cluster's worklist state alongside them
    #[allow(clippy::too_many_arguments)]
    fn candidate_pass(
        &self,
        pattern: &mut GrownPattern,
        support: usize,
        greedy: bool,
        scratch: &mut GrowScratch,
        stats: &mut MiningStats,
        ticks: &mut PhaseTicks,
        mut visit: impl FnMut(GrownPattern, usize, &mut CanonSet, &mut PhaseTicks),
    ) -> bool {
        let GrowScratch { ext, row_marks, support: sort_buf, batch, gather, canon, structure, .. } = scratch;
        // in a greedy pass an earlier application may have already closed
        // a candidate pair
        let stale = |pattern: &GrownPattern, e: &Extension| {
            greedy
                && matches!(*e, Extension::ClosingEdge { u, v, .. }
                    if pattern.graph.has_edge(VertexId(u), VertexId(v)))
        };
        // applies a greedy pass's support-preserving child in place, hands
        // every other admitted child to the visitor; true when applied
        let mut advanced = false;
        let mut take =
            |pattern: &mut GrownPattern, child: GrownPattern, sup: usize, ticks: &mut PhaseTicks| {
                let apply = greedy && sup == support;
                if apply {
                    *pattern = child;
                    advanced = true;
                } else {
                    visit(child, sup, canon, ticks);
                }
                apply
            };
        if !self.reference {
            let t = phase_ticks();
            stats.pruned_support_bound +=
                ext.build(pattern, &self.data, self.config.delta, self.config.sigma) as u64;
            batch.invalidate();
            ticks.candidates += phase_ticks().wrapping_sub(t);
            let count = ext.table.candidate_count();
            for i in 0..count {
                if stale(pattern, ext.table.extension(i)) {
                    continue;
                }
                let result = self
                    .try_extension_indexed(pattern, &ext.table, i, stats, ticks, batch, gather, structure);
                let Some((child, sup)) = result else { continue };
                let parent_rows = pattern.embeddings.len();
                if take(pattern, child, sup, ticks) && i + 1 < count {
                    let t = phase_ticks();
                    ext.refilter(i, parent_rows);
                    batch.invalidate();
                    ticks.candidates += phase_ticks().wrapping_sub(t);
                }
            }
        } else {
            let t = phase_ticks();
            let cands = self.candidate_extensions_reference(pattern, ext);
            ticks.candidates += phase_ticks().wrapping_sub(t);
            for e in cands {
                if stale(pattern, &e) {
                    continue;
                }
                let result =
                    self.try_extension_reference(pattern, e, stats, ticks, row_marks, sort_buf, structure);
                if let Some((child, sup)) = result {
                    take(pattern, child, sup, ticks);
                }
            }
        }
        advanced
    }

    /// Records a constraint-check verdict in the statistics; `true` when the
    /// extension survives.
    fn record_verdict(verdict: Result<(), ConstraintViolation>, stats: &mut MiningStats) -> bool {
        match verdict {
            Err(ConstraintViolation::DiameterIncreased) => {
                stats.rejected_constraint_i += 1;
                false
            }
            Err(ConstraintViolation::HeadTailShortened) => {
                stats.rejected_constraint_ii += 1;
                false
            }
            Err(ConstraintViolation::SmallerDiameterCreated) => {
                stats.rejected_constraint_iii += 1;
                false
            }
            Err(ConstraintViolation::SkinninessExceeded) => {
                stats.rejected_constraint_skinniness += 1;
                false
            }
            Ok(()) => true,
        }
    }

    /// Evaluates the `i`-th candidate of the extension table: the free
    /// support upper bound first (the incidence count is the extended
    /// pattern's exact row count, so `< σ` candidates are dropped with no
    /// structural or data work), then the structure-only constraint checks —
    /// decided on the parent's maintained indices alone whenever
    /// [`crate::constraints::precheck_violation`] can — then the support
    /// measure, evaluated **batched** ([`SupportBatch`]) against the
    /// parent's shared rank tables so a frequency reject never gathers a
    /// child store.  The `O(n²)` structural extension is built for admitted
    /// children (and the rare candidates whose verdict needs it) and the row
    /// gather happens only once a child is admitted.  Returns the extended
    /// pattern and its support when the extension is admissible, recording
    /// statistics either way.
    // the "arguments" are the disjoint per-worker scratch pieces — bundling
    // them back into one struct would recreate the borrow conflicts the
    // destructured GrowScratch exists to avoid
    #[allow(clippy::too_many_arguments)]
    fn try_extension_indexed(
        &self,
        current: &GrownPattern,
        table: &ExtensionTable,
        i: usize,
        stats: &mut MiningStats,
        ticks: &mut PhaseTicks,
        batch: &mut SupportBatch,
        gather_buf: &mut OccurrenceStore,
        struct_scratch: &mut StructScratch,
    ) -> Option<(GrownPattern, usize)> {
        stats.level_grow.candidates_examined += 1;
        if table.support_upper_bound(i) < self.config.sigma {
            stats.pruned_support_bound += 1;
            return None;
        }
        let ext = table.extension(i);
        stats.constraint_checks += 1;
        // cheap structural rejects (skinniness / Constraint I / II) on the
        // parent's maintained indices: a structurally invalid extension
        // never touches the data
        let t0 = phase_ticks();
        let violation = crate::constraints::precheck_violation(current, ext, self.config.delta);
        let t1 = phase_ticks();
        ticks.check += t1.wrapping_sub(t0);
        if let Some(v) = violation {
            Self::record_verdict(Err(v), stats);
            return None;
        }
        // frequency next, straight off the index: the batched evaluator
        // scores the candidate's entry list against the parent's shared rank
        // tables, so a support reject never materializes a child store (no
        // gather, no arena copy — the reject path is entry-list reads only);
        // the pruned variant bails out of the column scans the moment the
        // verdict is decided, and is exact for every admitted candidate
        let adds_vertex = !matches!(ext, Extension::ClosingEdge { .. });
        let support = batch.support_extended_pruned(
            &current.embeddings,
            self.config.support,
            table.entries(i),
            adds_vertex,
            self.config.sigma,
        );
        let t2 = phase_ticks();
        ticks.support += t2.wrapping_sub(t1);
        if support < self.config.sigma {
            stats.rejected_infrequent += 1;
            return None;
        }
        // the O(n²) structural extension is built only here — for admitted
        // children and the rare candidates whose Constraint-III verdict
        // needs it — never for rejected candidates, and always into the
        // reused per-worker scratch (a rejected survivor allocates nothing)
        let structure_needed =
            crate::constraints::needs_structural_check(current, ext, self.config.constraint_check);
        current.apply_structure_with(ext, struct_scratch);
        let verdict = if structure_needed {
            let check = check_extension(
                current,
                ext,
                &struct_scratch.structure,
                self.config.delta,
                self.config.constraint_check,
            );
            if check.full_recomputation {
                stats.full_diameter_recomputations += 1;
            }
            check.verdict
        } else {
            Ok(())
        };
        let t3 = phase_ticks();
        ticks.check += t3.wrapping_sub(t2);
        if !Self::record_verdict(verdict, stats) {
            return None;
        }
        // the gather is paid for admitted children only
        table.gather_into(i, &current.embeddings, gather_buf);
        ticks.extend += phase_ticks().wrapping_sub(t3);
        let embeddings = std::mem::take(gather_buf);
        Some((current.assemble(ext.clone(), struct_scratch.structure.clone(), embeddings), support))
    }

    /// The reference evaluation of one candidate extension: the frequency
    /// test first (an incremental full re-scan over the parent's
    /// embeddings), then the constraint checks, which may require a full
    /// canonical-diameter recomputation.  The parity oracle of
    /// [`LevelGrow::try_extension_indexed`], reached only through
    /// [`LevelGrow::reference`].  Returns the
    /// extended pattern and its support when the extension is admissible,
    /// recording statistics either way.
    #[allow(clippy::too_many_arguments)]
    fn try_extension_reference(
        &self,
        current: &GrownPattern,
        ext: Extension,
        stats: &mut MiningStats,
        ticks: &mut PhaseTicks,
        row_marks: &mut VertexMarks,
        support_scratch: &mut SupportScratch,
        struct_scratch: &mut StructScratch,
    ) -> Option<(GrownPattern, usize)> {
        stats.level_grow.candidates_examined += 1;
        let t0 = phase_ticks();
        let embeddings = current.extend_embeddings_with(&self.data, &ext, row_marks);
        let t1 = phase_ticks();
        ticks.extend += t1.wrapping_sub(t0);
        let support = embeddings.support_with(self.config.support, support_scratch);
        let t2 = phase_ticks();
        ticks.support += t2.wrapping_sub(t1);
        if support < self.config.sigma {
            stats.rejected_infrequent += 1;
            return None;
        }
        stats.constraint_checks += 1;
        current.apply_structure_with(&ext, struct_scratch);
        let check = check_extension(
            current,
            &ext,
            &struct_scratch.structure,
            self.config.delta,
            self.config.constraint_check,
        );
        ticks.check += phase_ticks().wrapping_sub(t2);
        if check.full_recomputation {
            stats.full_diameter_recomputations += 1;
        }
        if !Self::record_verdict(check.verdict, stats) {
            return None;
        }
        Some((current.assemble(ext, struct_scratch.structure.clone(), embeddings), support))
    }

    /// Enumerates the candidate extensions of a pattern, derived directly
    /// from the data around its embeddings:
    ///
    /// * new twig vertices attached to any pattern vertex whose level is
    ///   still below δ;
    /// * multi-edge attachments of a new vertex that is adjacent to several
    ///   pattern images at once (subsets of its attachment edges), which
    ///   reach patterns whose single-edge intermediates all violate the
    ///   canonical-diameter invariant — e.g. cycle closures;
    /// * closing edges between non-adjacent pattern vertices whose images are
    ///   adjacent in the data.
    ///
    /// Per-embedding state lives in the scratch's epoch-stamped tables: the
    /// reverse image map is a dense O(1)-probe slot table, the attachment
    /// edges accumulate in one flat reused buffer that is sorted and grouped
    /// by outside vertex, and repeated probes of one row (several neighbors
    /// deriving the same descriptor) are deduplicated by an epoch-stamped
    /// key set before the ordered insert — no per-embedding hash map is ever
    /// built.  (The extension set itself is a `BTreeSet`, so candidate order
    /// — and with it the whole growth — is deterministic regardless of probe
    /// order.)
    pub fn candidate_extensions_reference(
        &self,
        pattern: &GrownPattern,
        scratch: &mut crate::ext_index::ExtensionScratch,
    ) -> BTreeSet<Extension> {
        let crate::ext_index::ExtensionScratch {
            images, attachments, run_edges, subset, probe_marks, ..
        } = scratch;
        let mut out = BTreeSet::new();
        let delta = self.config.delta;
        let n = pattern.graph.vertex_count();
        for e in pattern.embeddings.iter() {
            let g = self.data.graph(e.transaction);
            // reverse map: data vertex -> pattern vertex for this embedding
            images.reset();
            for (p, &d) in e.vertices.iter().enumerate() {
                images.set(d, p as u32);
            }
            attachments.clear();
            probe_marks.reset();
            for p in 0..n as u32 {
                let image = e.image(p as usize);
                for (w, el) in g.neighbors_at(image) {
                    match images.get(w) {
                        Some(q) => {
                            // a potential closing edge between pattern vertices p and q
                            if q <= p {
                                continue;
                            }
                            if pattern.graph.has_edge(VertexId(p), VertexId(q)) {
                                continue;
                            }
                            out.insert(Extension::ClosingEdge { u: p, v: q, edge_label: el });
                        }
                        None => {
                            // a potential new twig vertex attached at p
                            if pattern.level[p as usize] >= delta {
                                continue;
                            }
                            let vertex_label = g.label(w);
                            attachments.push((w, p, el));
                            // several same-labeled neighbors of one image
                            // re-derive the same descriptor; only the first
                            // probe per row pays the ordered insert
                            let key = ((p as u128) << 64) | ((vertex_label.0 as u128) << 32) | el.0 as u128;
                            if probe_marks.insert(key) {
                                out.insert(Extension::NewVertex { attach: p, vertex_label, edge_label: el });
                            }
                        }
                    }
                }
            }
            // multi-edge attachments: subsets (size >= 2) of each outside
            // vertex's attachment edge set, read off the sorted flat buffer
            // one same-vertex run at a time
            attachments.sort_unstable();
            let mut start = 0usize;
            while start < attachments.len() {
                let w = attachments[start].0;
                let mut end = start + 1;
                while end < attachments.len() && attachments[end].0 == w {
                    end += 1;
                }
                let run = &attachments[start..end];
                start = end;
                run_edges.clear();
                for &(_, p, el) in run {
                    if run_edges.last() != Some(&(p, el)) {
                        run_edges.push((p, el));
                    }
                }
                let k = run_edges.len();
                if k < 2 {
                    continue;
                }
                let vertex_label = g.label(w);
                if k <= FULL_SUBSET_DEGREE {
                    for mask in 1u32..(1 << k) {
                        if mask.count_ones() < 2 {
                            continue;
                        }
                        subset.clear();
                        subset.extend((0..k).filter(|i| mask & (1 << i) != 0).map(|i| run_edges[i]));
                        insert_multi(&mut out, vertex_label, subset);
                    }
                } else {
                    subset.clear();
                    subset.extend_from_slice(run_edges);
                    insert_multi(&mut out, vertex_label, subset);
                }
            }
        }
        out
    }

    /// Applies the skinniness bound and the report-mode filter and converts
    /// a grown pattern into a result pattern (its support counts every
    /// embedding; at most [`MAX_REPORTED_EMBEDDINGS`] of them are kept),
    /// carrying the canonical
    /// fingerprint and (when the dedup funnel already paid for it) the
    /// memoized canonical key so downstream cross-cluster dedup never
    /// recomputes either.
    ///
    /// The bound matters for cycle clusters: `C_{2l+1}` is
    /// `(l, ⌈l/2⌉)`-skinny, so its root (and possibly its descendants) can
    /// be wider than δ.  Such patterns are grown but never reported, because
    /// a chord can bring a descendant back within δ.
    fn report(
        &self,
        pattern: &GrownPattern,
        support: usize,
        closed: bool,
        maximal: bool,
        canon_fingerprint: u64,
        canon_key: Option<DfsCode>,
    ) -> Option<SkinnyPattern> {
        if pattern.max_level() > self.config.delta {
            return None;
        }
        let keep = match self.config.report {
            ReportMode::All => true,
            ReportMode::Closed => closed,
            ReportMode::Maximal => maximal,
        };
        if !keep {
            return None;
        }
        // reporting is the cold path: materialize the columnar rows (up to
        // the cap) as an owned embedding list for the result type
        let embeddings: EmbeddingSet =
            pattern.embeddings.iter().take(MAX_REPORTED_EMBEDDINGS).map(|r| r.to_embedding()).collect();
        Some(SkinnyPattern {
            graph: pattern.graph.clone(),
            diameter_len: pattern.diameter_len,
            diameter_labels: pattern.diameter_labels(),
            skinniness: pattern.max_level(),
            support,
            embeddings,
            closed,
            maximal,
            canon_fingerprint,
            canon_key,
        })
    }
}

/// Most embeddings a reported pattern carries ([`SkinnyPattern::embeddings`]);
/// the cap applies after the support check, so a pattern's support still
/// counts all of them.
const MAX_REPORTED_EMBEDDINGS: usize = 10_000;

/// Inserts a [`Extension::NewVertexMulti`] built from the reusable subset
/// buffer, moving the buffer into the set only when the extension is new: a
/// duplicate candidate (the common case — every embedding re-derives the same
/// extensions) hands the buffer straight back without touching the allocator.
fn insert_multi(
    out: &mut BTreeSet<Extension>,
    vertex_label: skinny_graph::Label,
    subset: &mut Vec<(u32, skinny_graph::Label)>,
) {
    let probe = Extension::NewVertexMulti { vertex_label, edges: std::mem::take(subset) };
    if out.contains(&probe) {
        if let Extension::NewVertexMulti { edges, .. } = probe {
            *subset = edges;
        }
    } else {
        out.insert(probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConstraintCheckMode, SkinnyMineConfig};
    use crate::diam_mine::DiamMine;
    use skinny_graph::{Label, LabeledGraph};

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// Two disjoint copies of: backbone a-b-c-d-e (labels 0..4) with a twig
    /// labeled 9 on the middle vertex c.
    fn data() -> LabeledGraph {
        let labels = vec![
            l(0),
            l(1),
            l(2),
            l(3),
            l(4),
            l(9), // copy 1: 0..4 backbone, 5 twig on 2
            l(0),
            l(1),
            l(2),
            l(3),
            l(4),
            l(9), // copy 2: 6..10 backbone, 11 twig on 8
        ];
        LabeledGraph::from_unlabeled_edges(
            &labels,
            [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (6, 7), (7, 8), (8, 9), (9, 10), (8, 11)],
        )
        .unwrap()
    }

    fn grow_with(config: &SkinnyMineConfig, g: &LabeledGraph) -> Vec<SkinnyPattern> {
        let data = MiningData::Single(g);
        let dm = DiamMine::new(data.clone(), config.sigma, config.support);
        let seeds = dm.mine_exact(config.length.min_len());
        let grower = LevelGrow::new(data, config);
        let mut out = Vec::new();
        for seed in &seeds {
            out.extend(grower.grow_cluster(seed).patterns);
        }
        out
    }

    #[test]
    fn grows_backbone_plus_twig() {
        let g = data();
        let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
        let patterns = grow_with(&config, &g);
        // expected patterns: the bare 5-vertex backbone and the backbone+twig
        assert_eq!(patterns.len(), 2);
        let sizes: Vec<usize> = patterns.iter().map(|p| p.vertex_count()).collect();
        assert!(sizes.contains(&5));
        assert!(sizes.contains(&6));
        for p in &patterns {
            assert_eq!(p.support, 2);
            assert_eq!(p.diameter_len, 4);
            // every reported pattern must genuinely satisfy the constraint
            assert!(crate::constraints::satisfies_skinny_spec(&p.graph, 4, 2, &p.diameter_labels));
            // embeddings must be genuine occurrences
            for e in p.embeddings.iter() {
                assert!(e.is_valid(&p.graph, &g));
            }
        }
    }

    #[test]
    fn closed_mode_drops_non_closed_backbone() {
        let g = data();
        let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::Closed);
        let patterns = grow_with(&config, &g);
        // the bare backbone has a same-support extension (the twig), so only
        // the backbone+twig pattern is closed
        assert_eq!(patterns.len(), 1);
        assert_eq!(patterns[0].vertex_count(), 6);
        assert!(patterns[0].closed);
        assert!(patterns[0].maximal);
    }

    #[test]
    fn maximal_mode_equals_closed_here() {
        let g = data();
        let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::Maximal);
        let patterns = grow_with(&config, &g);
        assert_eq!(patterns.len(), 1);
        assert_eq!(patterns[0].vertex_count(), 6);
    }

    #[test]
    fn delta_zero_only_reports_paths() {
        let g = data();
        let config = SkinnyMineConfig::new(4, 0, 2).with_report(ReportMode::All);
        let patterns = grow_with(&config, &g);
        assert_eq!(patterns.len(), 1);
        assert_eq!(patterns[0].vertex_count(), 5);
        assert_eq!(patterns[0].skinniness, 0);
    }

    #[test]
    fn fast_and_exact_modes_agree() {
        let g = data();
        let fast = SkinnyMineConfig::new(4, 2, 2)
            .with_report(ReportMode::All)
            .with_constraint_check(ConstraintCheckMode::Fast);
        let exact = fast.clone().with_constraint_check(ConstraintCheckMode::Exact);
        let pf = grow_with(&fast, &g);
        let pe = grow_with(&exact, &g);
        assert_eq!(pf.len(), pe.len());
        let mut sf: Vec<usize> = pf.iter().map(|p| p.edge_count()).collect();
        let mut se: Vec<usize> = pe.iter().map(|p| p.edge_count()).collect();
        sf.sort();
        se.sort();
        assert_eq!(sf, se);
    }

    #[test]
    fn infrequent_twig_not_grown() {
        // only one copy has the twig -> twig pattern support 1 < sigma 2
        let labels = vec![
            l(0),
            l(1),
            l(2),
            l(3),
            l(4),
            l(9), // copy 1 with twig
            l(0),
            l(1),
            l(2),
            l(3),
            l(4), // copy 2 without twig
        ];
        let g = LabeledGraph::from_unlabeled_edges(
            &labels,
            [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (6, 7), (7, 8), (8, 9), (9, 10)],
        )
        .unwrap();
        let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
        let patterns = grow_with(&config, &g);
        assert_eq!(patterns.len(), 1);
        assert_eq!(patterns[0].vertex_count(), 5);
    }

    #[test]
    fn level_two_twigs_grown_within_delta() {
        // twig chains of length 2 on the middle vertex of both copies
        let labels = vec![l(0), l(1), l(2), l(3), l(4), l(8), l(9), l(0), l(1), l(2), l(3), l(4), l(8), l(9)];
        let g = LabeledGraph::from_unlabeled_edges(
            &labels,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (2, 5),
                (5, 6),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (9, 12),
                (12, 13),
            ],
        )
        .unwrap();
        let all = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
        let patterns = grow_with(&all, &g);
        // the backbone cluster contributes: bare path, path+level1 twig,
        // path+level1+level2 chain (other length-4 paths through the twig
        // chain seed their own clusters and contribute further patterns)
        let backbone: Vec<_> =
            patterns.iter().filter(|p| p.diameter_labels == vec![l(0), l(1), l(2), l(3), l(4)]).collect();
        assert_eq!(backbone.len(), 3);
        let max = patterns.iter().map(|p| p.vertex_count()).max().unwrap();
        assert_eq!(max, 7);
        // every reported pattern genuinely satisfies the constraint
        for p in &patterns {
            assert!(crate::constraints::satisfies_skinny_spec(&p.graph, 4, 2, &p.diameter_labels));
        }
        // with delta = 1 the level-2 twig is out of reach
        let delta1 = SkinnyMineConfig::new(4, 1, 2).with_report(ReportMode::All);
        let patterns1 = grow_with(&delta1, &g);
        assert_eq!(patterns1.iter().map(|p| p.vertex_count()).max().unwrap(), 6);
    }

    #[test]
    fn closure_jump_reports_the_closed_patterns() {
        let g = data();
        let exhaustive = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::Closed);
        let closure = exhaustive.clone().with_exploration(crate::config::Exploration::ClosureJump);
        let pe = grow_with(&exhaustive, &g);
        let pc = grow_with(&closure, &g);
        // both report exactly the backbone+twig pattern
        assert_eq!(pe.len(), 1);
        assert_eq!(pc.len(), 1);
        assert_eq!(pe[0].vertex_count(), pc[0].vertex_count());
        assert_eq!(pe[0].support, pc[0].support);
        assert!(pc[0].closed);
        assert!(pc[0].maximal);
    }

    #[test]
    fn closure_jump_finds_large_injected_pattern_without_subset_blowup() {
        // backbone of length 6 with four twigs, two copies: the exhaustive
        // exploration would enumerate every twig subset (2^4 patterns per
        // copy); closure jumping must report just the full pattern while
        // examining far fewer candidates
        let mut labels = Vec::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for _ in 0..2 {
            let base = labels.len() as u32;
            labels.extend((0..7u32).map(l));
            for i in 0..6u32 {
                edges.push((base + i, base + i + 1));
            }
            // twigs labeled 10..13 on interior vertices 1,2,3,4
            for (k, pos) in [1u32, 2, 3, 4].iter().enumerate() {
                labels.push(l(10 + k as u32));
                let tv = labels.len() as u32 - 1;
                edges.push((base + pos, tv));
            }
        }
        let g = LabeledGraph::from_unlabeled_edges(&labels, edges).unwrap();
        let config = SkinnyMineConfig::new(6, 2, 2)
            .with_report(ReportMode::Closed)
            .with_exploration(crate::config::Exploration::ClosureJump);
        let data_view = MiningData::Single(&g);
        let dm = DiamMine::new(data_view.clone(), 2, config.support);
        let seeds = dm.mine_exact(6);
        let backbone_seed = seeds
            .iter()
            .find(|s| s.key.vertex_labels == (0..7).map(l).collect::<Vec<_>>())
            .expect("backbone path must be frequent");
        let grower = LevelGrow::new(data_view, &config);
        let outcome = grower.grow_cluster(backbone_seed);
        assert_eq!(outcome.patterns.len(), 1);
        assert_eq!(outcome.patterns[0].vertex_count(), 11);
        assert!(outcome.patterns[0].closed);
        // the exhaustive exploration of this cluster would examine >= 2^4
        // distinct patterns; closure jumping pops only the root
        assert!(outcome.examined <= 3, "examined {} patterns", outcome.examined);
    }

    #[test]
    fn reference_engine_matches_indexed() {
        let g = data();
        for exploration in [crate::config::Exploration::Exhaustive, crate::config::Exploration::ClosureJump] {
            let config =
                SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All).with_exploration(exploration);
            let data = MiningData::Single(&g);
            let seeds = DiamMine::new(data.clone(), config.sigma, config.support).mine_exact(4);
            assert!(!seeds.is_empty());
            let indexed = LevelGrow::new(data.clone(), &config);
            let reference = LevelGrow::reference(data.clone(), &config);
            for seed in &seeds {
                let (a, b) = (indexed.grow_cluster(seed), reference.grow_cluster(seed));
                assert_eq!(format!("{:?}", a.patterns), format!("{:?}", b.patterns));
                assert_eq!(a.examined, b.examined);
            }
        }
    }

    #[test]
    fn indexed_engine_prunes_by_support_bound() {
        // sigma 2 but the twig exists in only one copy: the indexed engine
        // must drop the twig candidate on the incidence count alone
        let labels = vec![l(0), l(1), l(2), l(3), l(4), l(9), l(0), l(1), l(2), l(3), l(4)];
        let g = LabeledGraph::from_unlabeled_edges(
            &labels,
            [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (6, 7), (7, 8), (8, 9), (9, 10)],
        )
        .unwrap();
        let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
        let data_view = MiningData::Single(&g);
        let dm = DiamMine::new(data_view.clone(), 2, config.support);
        let seeds = dm.mine_exact(4);
        let grower = LevelGrow::new(data_view, &config);
        let outcome = grower.grow_cluster(&seeds[0]);
        assert_eq!(outcome.patterns.len(), 1);
        assert!(outcome.stats.pruned_support_bound > 0, "the lone twig must be bound-pruned");
        assert_eq!(outcome.stats.rejected_infrequent, 0, "no candidate should reach the support measure");
    }

    #[test]
    fn cluster_outcome_counters_populated() {
        let g = data();
        let config = SkinnyMineConfig::new(4, 2, 2).with_report(ReportMode::All);
        let data_view = MiningData::Single(&g);
        let dm = DiamMine::new(data_view.clone(), 2, config.support);
        let seeds = dm.mine_exact(4);
        assert_eq!(seeds.len(), 1);
        let grower = LevelGrow::new(data_view, &config);
        let outcome = grower.grow_cluster(&seeds[0]);
        assert_eq!(outcome.patterns.len(), 2);
        assert!(outcome.examined >= 2);
        assert!(outcome.stats.constraint_checks > 0);
        assert!(outcome.stats.level_grow.candidates_examined > 0);
    }
}
