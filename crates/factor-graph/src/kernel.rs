//! The flat-arena belief-propagation kernel.
//!
//! [`CompiledGraph`] lowers a [`FactorGraph`] into contiguous CSR arrays —
//! one edge per (factor, scope-position) pair, factor tables laid out flat
//! (each row padded to a 32-byte boundary), and a variable→edge adjacency
//! index — so the message-passing loops touch only dense scalar slices.
//!
//! ## Message layout
//!
//! Messages are stored as `(p, 1-p)` *pairs*, so the two product chains a
//! Bernoulli message pass maintains (`p_t` and `p_f`) read one contiguous
//! pair per hop — a shape the autovectorizer turns into two-lane SIMD
//! multiplies. Factor→variable messages live in **variable-major** order
//! (grouped by target variable, via the `vslot` permutation), which makes
//! the inner loops of the variable→factor pass and the belief read-out walk
//! contiguous memory; variable→factor messages stay **factor-major** so the
//! factor pass reads its scope as one slice. Storing `1-p` next to `p` is
//! bit-neutral: the pre-pair kernel computed `1.0 - m` from the same stored
//! `m` at every read, which produces exactly the bits the pair caches at
//! write time.
//!
//! Message *storage* is generic over `BpPrecision`: `f64` (the default,
//! bit-for-bit identical to the historical solver) or opt-in `f32` —
//! halved message bandwidth while every product, normalization and damping
//! step still **accumulates in `f64`** (only the stored message is
//! rounded).
//!
//! A single core parameterized by the sum/max semiring serves both marginal
//! ([`CompiledGraph::solve`]) and MAP ([`CompiledGraph::solve_map`])
//! inference. It computes every message of a factor in one pass (see
//! below), with specialized paths for unary and pairwise factors and —
//! under the residual schedule only — an elimination path for wide factors.
//!
//! Two message schedules are provided (see [`BpSchedule`]):
//!
//! * **Sweep** — the classic synchronous two-phase sweep. This reproduces
//!   the pre-arena nested-`Vec` solver bit-for-bit: identical update order,
//!   identical floating-point accumulation order.
//! * **Residual** — residual belief propagation (Elidan et al., UAI 2006)
//!   on a bucketed coarse-residual queue; see the schedule notes below.
//!
//! The kernel also supports *stamped* solves: a compiled skeleton plus a
//! list of extra unary potentials supplied per solve. Stamped extras behave
//! exactly as if `Factor::unary` factors had been appended after every
//! skeleton factor, which is what lets callers cache a method's static
//! factor-graph skeleton and re-solve with fresh evidence without
//! recompiling (see `anek-core`'s incremental `ANEK-INFER`).
//!
//! Callers that solve many graphs in a row should reuse a [`Scratch`]
//! across solves ([`CompiledGraph::solve_stamped_scratch`]): all working
//! arrays — messages, candidates, residuals, the bucket queue, the
//! factor-message cache — are then recycled instead of reallocated
//! per solve.
//!
//! ## The bucketed residual schedule
//!
//! The residual schedule orders pending factor→variable updates by a
//! *coarse* residual: edges whose pending change shares a power-of-two
//! magnitude land in the same bucket (the bucket index is read straight
//! off the residual's exponent bits), buckets are drained
//! largest-magnitude-first, and within a bucket edges keep FIFO order. A
//! drained bucket is applied as one **batch** — every message in it is
//! committed against the same pre-batch state, and only then are the
//! affected variable→factor messages and candidate residuals recomputed,
//! each exactly once per batch rather than once per push.
//!
//! Queue entries are invalidated *lazily* by an epoch stamp per edge:
//! re-bucketing an edge bumps its epoch, and a popped entry whose stamp no
//! longer matches the edge's current epoch (or whose edge is no longer
//! queued at all) is simply skipped. There is no heap search and no
//! bit-matching of residual values against live state — an entry is
//! authoritative if and only if its `(edge, epoch)` pair matches, an O(1)
//! array probe. An edge whose residual changes *within* its current bucket
//! is not re-queued at all; its queue entry stays valid and the live
//! candidate is read from the side array at application time.
//!
//! Batch application is what keeps the residual schedule's fixed points
//! aligned with the sweep's: an evidence-free soft one-hot subgraph (the
//! model's exactly-one-kind factor groups) is perfectly symmetric, and its
//! symmetric BP fixed point is *unstable* under one-edge-at-a-time
//! asynchronous updates — the first applied message tips the component
//! into an arbitrary asymmetric corner, manufacturing a confident marginal
//! out of no evidence (the previous heap-based schedule did exactly this;
//! see the cross-schedule agreement tests). Symmetric edges always carry
//! bit-equal residuals, therefore share a bucket, therefore commit in the
//! same batch against the same state — the symmetry is preserved
//! inductively and the schedule converges to the same symmetric fixed
//! point the sweep finds. The update order across buckets still differs
//! from a pure max-residual heap; it is fully deterministic, and the
//! resulting marginals are pinned by the `figure3_residual` golden
//! fixture.
//!
//! ## Every message of a factor in one pass
//!
//! A factor of arity `n` sends one message per scope position, and walking
//! its table once per position costs `n · 2^n` cells of `n − 1` products
//! each, with a branch per operand. [`CompiledGraph::factor_messages`]
//! instead walks the table once and writes the raw `(t, f)` message of
//! every position. In each non-zero cell it picks every position's operand
//! by the cell's index bit (no branch), keeps a running prefix product
//! `pot · v₀ · … · v_{pos−1}` and finishes it per position over the
//! positions above, so each position's product is the same left fold, in
//! the same order, as a walk for that position alone; each position
//! accumulates in ascending cell order under either semiring. The result is
//! bit-identical to the historical per-edge walk, which the tests keep as
//! the oracle. The arity is a constant inside the cell loop, so its
//! per-cell loops unroll.
//!
//! * **Sweep** calls it once per factor in the factor pass and normalizes
//!   each position in order — the bit-frozen historical path, for every
//!   arity.
//! * **Residual** keeps the results in a per-factor cache inside
//!   [`Scratch`] until one of the factor's variable→factor messages is
//!   rewritten: a batch that changes one such message of an arity-`n`
//!   factor invalidates the candidates of its other `n − 1` edges, and
//!   they now share one pass. Each edge normalizes its own entry only when
//!   it consumes it, so guard events and update counts are exactly those
//!   of one message walk per candidate. For a factor of arity ≥
//!   [`WIDE_MIN_ARITY`] the pass is one divide-and-conquer variable
//!   elimination ([`eliminate`]) instead, about `4 · 2^n` branch-free
//!   multiply-adds for all `n` messages. Elimination sums in a different
//!   order than the walk (the `figure3_residual` fixture pins its bits);
//!   narrower factors, the symmetric one-hot selectors among them, keep the
//!   walk's bits under both schedules.

use crate::factor::{VarId, MAX_SCOPE};
use crate::graph::{BpOptions, BpPrecision, BpSchedule, FactorGraph, GuardEvents, Marginals};
use std::collections::VecDeque;

/// One stored message element: `f64` for exact/historical numerics, `f32`
/// for the compact opt-in representation. Products, normalizations and
/// damping always run in `f64`; only the store rounds.
trait MsgElem: Copy + Send + Sync + 'static {
    /// Rounds an `f64` into the stored representation.
    fn enc(x: f64) -> Self;
    /// Widens the stored representation back to `f64`.
    fn dec(self) -> f64;
    /// The canonical uniform message.
    fn half() -> Self;
}

impl MsgElem for f64 {
    #[inline(always)]
    fn enc(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn dec(self) -> f64 {
        self
    }
    #[inline(always)]
    fn half() -> f64 {
        0.5
    }
}

impl MsgElem for f32 {
    #[inline(always)]
    fn enc(x: f64) -> f32 {
        x as f32
    }
    #[inline(always)]
    fn dec(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn half() -> f32 {
        0.5
    }
}

/// Factor tables are padded so each row starts on a 32-byte boundary (4
/// `f64`s). Pad entries are zero potentials, which both semirings already
/// skip; the message loops additionally slice rows to their exact
/// `1 << arity` length, so padding is value- and bit-neutral.
const TABLE_ALIGN: usize = 4;

/// A [`FactorGraph`] compiled into flat arena form.
///
/// Compilation is cheap (one linear pass) but not free; callers that solve
/// the same graph repeatedly — possibly with different stamped extras —
/// should compile once and reuse (and hand the solver a recycled
/// [`Scratch`]).
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    n_vars: usize,
    /// Per factor: half-open edge range `f_off[fi]..f_off[fi+1]`.
    f_off: Vec<u32>,
    /// Per factor: offset of its table row in `tables`. Rows start on a
    /// [`TABLE_ALIGN`] boundary; the live row is the first `1 << arity`
    /// entries, the rest (up to the next row) is zero padding.
    t_off: Vec<u32>,
    /// All factor tables, concatenated (aligned rows, zero padding).
    tables: Vec<f64>,
    /// Per edge: the variable it connects.
    edge_var: Vec<u32>,
    /// Per edge: the factor that owns it.
    edge_factor: Vec<u32>,
    /// Per variable: half-open range into `v_edges`.
    v_off: Vec<u32>,
    /// Edge ids grouped by variable, ascending within each group (this is
    /// exactly the insertion order the nested solver used).
    v_edges: Vec<u32>,
    /// Per edge: its position in `v_edges` — the variable-major slot the
    /// factor→variable message for this edge is stored at (the inverse
    /// permutation of `v_edges`).
    vslot: Vec<u32>,
}

/// Arity floor for the residual schedule's wide-factor elimination path
/// ([`CompiledGraph::wide_messages`]). Narrower factors keep the table walk
/// of [`CompiledGraph::factor_messages`] under both schedules, so the
/// symmetric one-hot selector factors (arity ≤ 5) retain the exact
/// historical accumulation — the order the batch scheduler's
/// symmetric-fixed-point guarantee was validated against. Lowering it
/// changes bits.
const WIDE_MIN_ARITY: usize = 6;

/// The residual schedule's per-factor cache of raw factor→variable
/// messages.
///
/// One pass over a factor ([`CompiledGraph::factor_messages`], or
/// [`CompiledGraph::wide_messages`] from [`WIDE_MIN_ARITY`] up) yields the
/// raw `(t, f)` message of every scope position at once; the cache keeps
/// them until a variable→factor message of that factor is rewritten.
/// Factor `fi`'s entries are valid iff `stamp[fi] == gen`: rewriting every
/// `vf` message bumps `gen`, rewriting one of them resets its factor's
/// stamp. Messages are normalized (and guard events counted) only when an
/// edge consumes its entry, so the cache is invisible in every count and
/// every bit.
#[derive(Debug, Default)]
struct MsgCache {
    /// Raw `(t, f)` message per edge, factor-major.
    raw: Vec<f64>,
    /// Per factor: the generation its `raw` entries were computed at.
    stamp: Vec<u32>,
    /// The current generation; starts at 1 so a zero stamp is never valid.
    gen: u32,
    /// Elimination workspace (see [`eliminate`]).
    work: Vec<f64>,
}

impl MsgCache {
    /// Empties the cache for a solve over `ne` edges and `nf` factors.
    fn reset(&mut self, ne: usize, nf: usize) {
        self.raw.clear();
        self.raw.resize(2 * ne, 0.0);
        self.stamp.clear();
        self.stamp.resize(nf, 0);
        self.gen = 1;
    }

    /// Invalidates every factor: all variable→factor messages were rewritten.
    fn bump(&mut self) {
        self.gen += 1;
    }

    /// Invalidates factor `fi`: one of its variable→factor messages changed.
    fn invalidate(&mut self, fi: usize) {
        self.stamp[fi] = 0;
    }
}

/// Sums out every position but one, for every position at once, by
/// divide-and-conquer variable elimination.
///
/// `src` is a table over `k = local.len() / 2` scope positions (bit `j` of
/// the index is position `j`) and `local` holds their incoming `(t, f)`
/// message pairs. For each position `j`, writes the raw message
/// `(⊕_{bit_j = 1} …, ⊕_{bit_j = 0} …)` of `src ⊗ Π_{i≠j} m_i` to
/// `out[2j..2j + 2]`, where `⊕` is `max` under `MAX` and `+` otherwise.
///
/// The low half of the scope receives the table with the high half summed
/// out (one position at a time, from the top bit down), the high half the
/// table with the low half summed out (from bit 0 up), and each half
/// recurses. The top level costs about `2 · 2^k` branch-free
/// multiply-adds per half and the recursion adds lower-order terms, so all
/// `k` messages cost about `4 · 2^k` — against about `k² · 2^k` for `k`
/// dense walks. `work` must hold at least `2^(k+1)` entries.
fn eliminate<const MAX: bool, S: MsgElem>(
    src: &[f64],
    local: &[S],
    out: &mut [f64],
    work: &mut [f64],
) {
    #[inline(always)]
    fn plus<const MAX: bool>(a: f64, b: f64) -> f64 {
        if MAX {
            a.max(b)
        } else {
            a + b
        }
    }
    let k = local.len() / 2;
    if k == 1 {
        out[0] = src[1];
        out[1] = src[0];
        return;
    }
    let msg = |j: usize| (local[2 * j].dec(), local[2 * j + 1].dec());
    let mid = k / 2;
    let half = src.len() / 2;
    let (lo, rest) = work.split_at_mut(half);
    let (hi, rest) = rest.split_at_mut(half);
    // Low-half targets: sum out positions `mid..k`, top bit first.
    let (mt, mf) = msg(k - 1);
    for x in 0..half {
        lo[x] = plus::<MAX>(src[x] * mf, src[x + half] * mt);
    }
    let mut len = half;
    for j in (mid..k - 1).rev() {
        len /= 2;
        let (mt, mf) = msg(j);
        for x in 0..len {
            lo[x] = plus::<MAX>(lo[x] * mf, lo[x + len] * mt);
        }
    }
    // High-half targets: sum out positions `0..mid`, bit 0 first.
    let (mt, mf) = msg(0);
    for x in 0..half {
        hi[x] = plus::<MAX>(src[2 * x] * mf, src[2 * x + 1] * mt);
    }
    let mut len = half;
    for j in 1..mid {
        len /= 2;
        let (mt, mf) = msg(j);
        for x in 0..len {
            hi[x] = plus::<MAX>(hi[2 * x] * mf, hi[2 * x + 1] * mt);
        }
    }
    let (out_lo, out_hi) = out.split_at_mut(2 * mid);
    eliminate::<MAX, S>(&lo[..1 << mid], &local[..2 * mid], out_lo, rest);
    eliminate::<MAX, S>(&hi[..1 << (k - mid)], &local[2 * mid..], out_hi, rest);
}

/// The cell loop of [`CompiledGraph::factor_messages`] for arity `N ≥ 3`:
/// `sel[2j + b]` is position `j`'s operand in a cell whose bit `j` is `b`,
/// and `acc[2j + b]` accumulates position `j`'s message over those cells,
/// from `0.0` in ascending cell order.
///
/// Each non-zero cell gathers its `N` operands by index bit, then keeps a
/// running prefix `pot · v₀ · … · v_{pos−1}` and finishes it per position
/// over the positions above — the same left fold, skipping `v_pos`, that a
/// walk for that position alone computes. Zero-potential cells are
/// skipped, as that walk skipped them.
#[inline(always)]
fn walk_cells<const MAX: bool, const N: usize>(table: &[f64], sel: &[f64], acc: &mut [f64]) {
    for (idx, &pot) in table.iter().enumerate() {
        if pot == 0.0 {
            continue;
        }
        let v: [f64; N] = std::array::from_fn(|o| sel[2 * o + (idx >> o & 1)]);
        let mut pre = pot;
        for pos in 0..N {
            let mut w = pre;
            for &x in &v[pos + 1..] {
                w *= x;
            }
            let k = 2 * pos + (idx >> pos & 1);
            acc[k] = if MAX { acc[k].max(w) } else { acc[k] + w };
            pre *= v[pos];
        }
    }
}

/// Reusable per-solve working memory: message pair arrays (one pool per
/// stored precision), the stamped-extra index, and the residual schedule's
/// candidate/bucket state and factor-message cache.
///
/// A `Scratch` may be reused across solves of *different* graphs — every
/// buffer is (re)sized and reinitialized at the start of each solve, so a
/// fresh `Scratch` and a recycled one produce bit-identical results, and a
/// solve that panics leaves no state behind that could poison the next
/// one.
#[derive(Debug, Default)]
pub struct Scratch {
    // Message pools, `(p, 1-p)` interleaved; only the pool matching
    // `BpOptions::precision` is touched by a given solve.
    fv64: Vec<f64>,
    vf64: Vec<f64>,
    x64: Vec<f64>,
    fv32: Vec<f32>,
    vf32: Vec<f32>,
    x32: Vec<f32>,
    // Stamped-extra index (`ExtraIndex` borrows these).
    ps: Vec<f64>,
    x_off: Vec<u32>,
    x_idx: Vec<u32>,
    // Residual schedule state.
    cand: Vec<f64>,
    resid: Vec<f64>,
    epoch: Vec<u32>,
    queued: Vec<u8>,
    buckets: Vec<VecDeque<(u32, u32)>>,
    batch: Vec<u32>,
    affected_vars: Vec<u32>,
    changed_vf: Vec<u32>,
    touched: Vec<u32>,
    vmark: Vec<u8>,
    emark: Vec<u8>,
    msgs: MsgCache,
}

impl Scratch {
    /// A fresh, empty scratch. Buffers grow on first use and are retained
    /// across solves.
    pub fn new() -> Scratch {
        Scratch::default()
    }
}

/// Access to the per-precision message pools inside [`Scratch`]. The pools
/// are moved out for the duration of a solve (leaving empty `Vec`s behind)
/// and restored on completion, which keeps the borrow of the remaining
/// scratch fields independent.
trait MsgPool: MsgElem {
    fn take(s: &mut Scratch) -> (Vec<Self>, Vec<Self>, Vec<Self>);
    fn restore(s: &mut Scratch, fv: Vec<Self>, vf: Vec<Self>, x: Vec<Self>);
}

impl MsgPool for f64 {
    fn take(s: &mut Scratch) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (std::mem::take(&mut s.fv64), std::mem::take(&mut s.vf64), std::mem::take(&mut s.x64))
    }
    fn restore(s: &mut Scratch, fv: Vec<f64>, vf: Vec<f64>, x: Vec<f64>) {
        s.fv64 = fv;
        s.vf64 = vf;
        s.x64 = x;
    }
}

impl MsgPool for f32 {
    fn take(s: &mut Scratch) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        (std::mem::take(&mut s.fv32), std::mem::take(&mut s.vf32), std::mem::take(&mut s.x32))
    }
    fn restore(s: &mut Scratch, fv: Vec<f32>, vf: Vec<f32>, x: Vec<f32>) {
        s.fv32 = fv;
        s.vf32 = vf;
        s.x32 = x;
    }
}

/// Per-solve adjacency for stamped extra unary potentials: extras grouped
/// by variable, preserving stamp order within each variable. Borrows its
/// storage from [`Scratch`].
struct ExtraIndex<'a> {
    /// `p(true)` per extra, in stamp order.
    ps: &'a [f64],
    x_off: &'a [u32],
    x_idx: &'a [u32],
}

impl<'a> ExtraIndex<'a> {
    fn build(
        n_vars: usize,
        extras: &[(VarId, f64)],
        ps: &'a mut Vec<f64>,
        x_off: &'a mut Vec<u32>,
        x_idx: &'a mut Vec<u32>,
    ) -> ExtraIndex<'a> {
        x_off.clear();
        x_off.resize(n_vars + 1, 0);
        for (v, _) in extras {
            assert!((v.0 as usize) < n_vars, "stamped extra references unknown variable {v}");
            x_off[v.0 as usize + 1] += 1;
        }
        for i in 0..n_vars {
            x_off[i + 1] += x_off[i];
        }
        let mut cursor = x_off.clone();
        x_idx.clear();
        x_idx.resize(extras.len(), 0);
        for (i, (v, _)) in extras.iter().enumerate() {
            x_idx[cursor[v.0 as usize] as usize] = i as u32;
            cursor[v.0 as usize] += 1;
        }
        ps.clear();
        ps.extend(extras.iter().map(|&(_, p)| p));
        ExtraIndex { ps, x_off, x_idx }
    }

    #[inline]
    fn of(&self, v: usize) -> &[u32] {
        &self.x_idx[self.x_off[v] as usize..self.x_off[v + 1] as usize]
    }
}

/// Synchronous sweeps run before the residual schedule starts prioritizing
/// (see the warm-start note in the residual path).
const WARM_SWEEPS: usize = 2;

/// Residual buckets: bucket `b` holds residuals in `[2^-(b+1), 2^-b)`.
/// Bucket 0 additionally absorbs anything ≥ 0.5 and the last bucket
/// everything smaller than its lower edge (but still above tolerance).
const NUM_BUCKETS: usize = 48;

/// The bucket of a non-negative residual, read straight off its exponent
/// bits — no logarithm, no magnitude branch. Zero and subnormals clamp
/// into the last bucket (they never enqueue in practice: enqueue is gated
/// on `resid >= tolerance`).
#[inline]
fn bucket_of(r: f64) -> usize {
    let exp = ((r.to_bits() >> 52) & 0x7ff) as i32;
    (1022 - exp).clamp(0, NUM_BUCKETS as i32 - 1) as usize
}

#[inline]
fn damp(old: f64, new: f64, d: f64) -> f64 {
    d * old + (1.0 - d) * new
}

/// Whether the solve's wall-clock deadline (if any) has passed. Polled at
/// sweep/batch granularity only — never per message update.
#[inline]
fn deadline_passed(opts: &BpOptions) -> bool {
    opts.deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

/// Normalizes a two-point mass to `p(true)`, clamping degenerate masses to
/// the uniform message and counting the clamp in `ev`.
///
/// On healthy inputs (finite, positive mass) this is exactly the historical
/// `p_t / (p_t + p_f)` — bit-for-bit. Non-finite mass (a NaN or infinite
/// potential leaked into the products) and zero mass (all-zero factor rows,
/// fully underflowed products) both clamp to `0.5`; the former used to
/// produce `0.5` silently via NaN comparison semantics, and is now counted
/// so the solve can be reported as degraded.
#[inline]
fn normalize(p_t: f64, p_f: f64, ev: &mut GuardEvents) -> f64 {
    let z = p_t + p_f;
    if z > 0.0 && z.is_finite() {
        p_t / z
    } else {
        if z.is_finite() {
            ev.zero_sum += 1;
        } else {
            ev.non_finite += 1;
        }
        0.5
    }
}

/// Writes message `m` as an `(m, 1-m)` pair at pair-slot `i`.
#[inline(always)]
fn put<S: MsgElem>(buf: &mut [S], i: usize, m: f64) {
    buf[2 * i] = S::enc(m);
    buf[2 * i + 1] = S::enc(1.0 - m);
}

/// Reads the `p(true)` half of the pair at slot `i`.
#[inline(always)]
fn get_t<S: MsgElem>(buf: &[S], i: usize) -> f64 {
    buf[2 * i].dec()
}

/// Resets a pair buffer to `n` uniform messages.
fn reset_pairs<S: MsgElem>(buf: &mut Vec<S>, n: usize) {
    buf.clear();
    buf.resize(2 * n, S::half());
}

impl CompiledGraph {
    /// Lowers a graph into arena form.
    pub fn compile(g: &FactorGraph) -> CompiledGraph {
        let n_vars = g.num_vars();
        let factors = g.factors();
        let n_edges: usize = factors.iter().map(|f| f.scope().len()).sum();
        let mut f_off = Vec::with_capacity(factors.len() + 1);
        let mut t_off = Vec::with_capacity(factors.len() + 1);
        let mut edge_var = Vec::with_capacity(n_edges);
        let mut edge_factor = Vec::with_capacity(n_edges);
        let mut tables = Vec::new();
        f_off.push(0u32);
        t_off.push(0u32);
        for (fi, f) in factors.iter().enumerate() {
            for v in f.scope() {
                edge_var.push(v.0);
                edge_factor.push(fi as u32);
            }
            tables.extend_from_slice(f.table());
            // Pad the row to the alignment boundary with zero potentials
            // (sliced off / skipped by every consumer), so the next row
            // starts aligned.
            while tables.len() % TABLE_ALIGN != 0 {
                tables.push(0.0);
            }
            f_off.push(edge_var.len() as u32);
            t_off.push(tables.len() as u32);
        }
        // Counting sort: v_edges grouped by variable, ascending edge id —
        // the same order the nested solver's `var_edges` push loop produced.
        let mut v_off = vec![0u32; n_vars + 1];
        for &v in &edge_var {
            v_off[v as usize + 1] += 1;
        }
        for i in 0..n_vars {
            v_off[i + 1] += v_off[i];
        }
        let mut cursor = v_off.clone();
        let mut v_edges = vec![0u32; n_edges];
        let mut vslot = vec![0u32; n_edges];
        for (e, &v) in edge_var.iter().enumerate() {
            let slot = cursor[v as usize];
            v_edges[slot as usize] = e as u32;
            vslot[e] = slot;
            cursor[v as usize] += 1;
        }
        CompiledGraph { n_vars, f_off, t_off, tables, edge_var, edge_factor, v_off, v_edges, vslot }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of (factor, position) edges.
    pub fn num_edges(&self) -> usize {
        self.edge_var.len()
    }

    /// Sum-product inference (marginals).
    pub fn solve(&self, opts: &BpOptions) -> Marginals {
        self.solve_stamped(&[], opts)
    }

    /// Max-product inference (per-variable MAP beliefs).
    pub fn solve_map(&self, opts: &BpOptions) -> Marginals {
        self.solve_map_stamped(&[], opts)
    }

    /// Sum-product inference with extra unary potentials stamped onto the
    /// compiled skeleton. Equivalent — bit-for-bit under
    /// [`BpSchedule::Sweep`] with `BpPrecision::F64` — to appending
    /// `Factor::unary(var, p)` for each extra and solving the extended
    /// graph.
    pub fn solve_stamped(&self, extras: &[(VarId, f64)], opts: &BpOptions) -> Marginals {
        self.solve_stamped_scratch(extras, opts, &mut Scratch::new())
    }

    /// Max-product inference with stamped extras.
    pub fn solve_map_stamped(&self, extras: &[(VarId, f64)], opts: &BpOptions) -> Marginals {
        self.solve_map_stamped_scratch(extras, opts, &mut Scratch::new())
    }

    /// [`CompiledGraph::solve_stamped`] with caller-provided scratch
    /// buffers. Reusing one [`Scratch`] across many solves removes every
    /// per-solve allocation except the returned marginal vector; results
    /// are bit-identical to a fresh scratch.
    pub fn solve_stamped_scratch(
        &self,
        extras: &[(VarId, f64)],
        opts: &BpOptions,
        scratch: &mut Scratch,
    ) -> Marginals {
        match opts.precision {
            BpPrecision::F64 => self.run::<false, f64>(extras, opts, scratch),
            BpPrecision::F32 => self.run::<false, f32>(extras, opts, scratch),
        }
    }

    /// [`CompiledGraph::solve_map_stamped`] with caller-provided scratch.
    pub fn solve_map_stamped_scratch(
        &self,
        extras: &[(VarId, f64)],
        opts: &BpOptions,
        scratch: &mut Scratch,
    ) -> Marginals {
        match opts.precision {
            BpPrecision::F64 => self.run::<true, f64>(extras, opts, scratch),
            BpPrecision::F32 => self.run::<true, f32>(extras, opts, scratch),
        }
    }

    fn run<const MAX: bool, S: MsgPool>(
        &self,
        extras: &[(VarId, f64)],
        opts: &BpOptions,
        scratch: &mut Scratch,
    ) -> Marginals {
        match opts.schedule {
            BpSchedule::Sweep => self.sweep::<MAX, S>(extras, opts, scratch),
            BpSchedule::Residual => self.residual::<MAX, S>(extras, opts, scratch),
        }
    }

    #[inline]
    fn var_edges(&self, v: usize) -> &[u32] {
        &self.v_edges[self.v_off[v] as usize..self.v_off[v + 1] as usize]
    }

    /// The exclusive product over a variable's incoming message pairs: all
    /// factor→variable messages of `v` except local slot `skip` (pass
    /// `usize::MAX` to skip nothing, e.g. for beliefs), then all extras.
    ///
    /// `fv` is the variable-major pair array, so the hot loop walks one
    /// contiguous slice in ascending-edge order — exactly the historical
    /// accumulation order, now as two-lane multiplies the autovectorizer
    /// can keep in one register.
    #[inline]
    fn var_product<S: MsgElem>(
        &self,
        v: usize,
        skip: usize,
        fv: &[S],
        x_msg: &[S],
        extras: &ExtraIndex<'_>,
    ) -> (f64, f64) {
        let s0 = self.v_off[v] as usize;
        let s1 = self.v_off[v + 1] as usize;
        let pairs = &fv[2 * s0..2 * s1];
        let mut p_t = 1.0f64;
        let mut p_f = 1.0f64;
        for (j, pair) in pairs.chunks_exact(2).enumerate() {
            if j == skip {
                continue;
            }
            p_t *= pair[0].dec();
            p_f *= pair[1].dec();
        }
        for &x in extras.of(v) {
            p_t *= x_msg[2 * x as usize].dec();
            p_f *= x_msg[2 * x as usize + 1].dec();
        }
        (p_t, p_f)
    }

    /// The synchronous two-phase sweep schedule (bit-for-bit compatible
    /// with the historical nested-`Vec` solver under `f64` storage).
    fn sweep<const MAX: bool, S: MsgPool>(
        &self,
        extras_in: &[(VarId, f64)],
        opts: &BpOptions,
        scratch: &mut Scratch,
    ) -> Marginals {
        let ne = self.edge_var.len();
        let nf = self.f_off.len() - 1;
        let nx = extras_in.len();
        let d = opts.damping;
        let budget = opts.update_budget.unwrap_or(usize::MAX);
        let mut ev = GuardEvents::default();

        let (mut fv, mut vf, mut xm) = S::take(scratch);
        reset_pairs(&mut fv, ne);
        reset_pairs(&mut vf, ne);
        reset_pairs(&mut xm, nx);
        let Scratch { ps, x_off, x_idx, .. } = scratch;
        let extras = ExtraIndex::build(self.n_vars, extras_in, ps, x_off, x_idx);

        let mut beliefs = vec![0.5f64; self.n_vars];
        let mut iterations = 0;
        let mut converged = false;
        let mut updates = 0usize;
        let mut deadline_expired = false;

        for it in 0..opts.max_iterations {
            iterations = it + 1;

            // Variable → factor messages: product of incoming messages
            // except the target edge (extras always contribute; they have no
            // outgoing variable message of their own to exclude).
            for v in 0..self.n_vars {
                for (j, &e) in self.var_edges(v).iter().enumerate() {
                    let (p_t, p_f) = self.var_product(v, j, &fv, &xm, &extras);
                    let new = normalize(p_t, p_f, &mut ev);
                    let old = get_t(&vf, e as usize);
                    put(&mut vf, e as usize, damp(old, new, d));
                }
            }

            // Factor → variable messages, every position of a factor from
            // one table walk.
            let mut raw = [0.0f64; 2 * MAX_SCOPE];
            for fi in 0..nf {
                let e0 = self.f_off[fi] as usize;
                let e1 = self.f_off[fi + 1] as usize;
                let raw = &mut raw[..2 * (e1 - e0)];
                self.factor_messages::<MAX, S>(fi, &vf[2 * e0..2 * e1], raw);
                for pos in 0..(e1 - e0) {
                    let new = normalize(raw[2 * pos], raw[2 * pos + 1], &mut ev);
                    let slot = self.vslot[e0 + pos] as usize;
                    let old = get_t(&fv, slot);
                    put(&mut fv, slot, damp(old, new, d));
                }
            }
            // Stamped extras behave as unary factors appended after every
            // skeleton factor: constant normalized message, damped in.
            for (x, &p) in extras.ps.iter().enumerate() {
                let new = normalize(p, 1.0 - p, &mut ev);
                let old = get_t(&xm, x);
                put(&mut xm, x, damp(old, new, d));
            }
            updates += ne + nx;

            // Beliefs and convergence.
            let mut max_delta = 0.0f64;
            for (v, belief) in beliefs.iter_mut().enumerate() {
                let (p_t, p_f) = self.var_product(v, usize::MAX, &fv, &xm, &extras);
                let b = normalize(p_t, p_f, &mut ev);
                max_delta = max_delta.max((b - *belief).abs());
                *belief = b;
            }
            if max_delta < opts.tolerance {
                converged = true;
                break;
            }
            if updates >= budget {
                break;
            }
            // Wall-clock deadline, polled once per sweep: cheap relative to
            // the `ne + nx` message updates a sweep costs.
            if deadline_passed(opts) {
                deadline_expired = true;
                break;
            }
        }

        S::restore(scratch, fv, vf, xm);
        Marginals {
            probs: beliefs,
            iterations,
            converged,
            updates,
            guards: ev,
            deadline_expired,
            bucket_batches: Vec::new(),
        }
    }

    /// The variable→factor message for edge `e`, computed on demand from
    /// the current factor→variable messages (asynchronous form).
    fn vf_message<S: MsgElem>(
        &self,
        e: usize,
        fv: &[S],
        x_msg: &[S],
        extras: &ExtraIndex<'_>,
        ev: &mut GuardEvents,
    ) -> f64 {
        let v = self.edge_var[e] as usize;
        let j = (self.vslot[e] - self.v_off[v]) as usize;
        let (p_t, p_f) = self.var_product(v, j, fv, x_msg, extras);
        normalize(p_t, p_f, ev)
    }

    /// The damped candidate update for factor→variable message `e`, read
    /// from a cache of current variable→factor messages (`vf` pair slot `o`
    /// must hold [`CompiledGraph::vf_message`] of `o` for every edge `o` of
    /// `e`'s factor, and `cache` must have been invalidated for every factor
    /// whose `vf` slots changed since it was filled).
    fn candidate_cached<const MAX: bool, S: MsgElem>(
        &self,
        e: usize,
        fv: &[S],
        vf: &[S],
        d: f64,
        cache: &mut MsgCache,
        ev: &mut GuardEvents,
    ) -> f64 {
        let fi = self.edge_factor[e] as usize;
        if cache.stamp[fi] != cache.gen {
            let e0 = self.f_off[fi] as usize;
            let e1 = self.f_off[fi + 1] as usize;
            let local = &vf[2 * e0..2 * e1];
            let raw = &mut cache.raw[2 * e0..2 * e1];
            // Wide factors take elimination; everything else the sweep
            // kernel's walk, bit for bit.
            if e1 - e0 >= WIDE_MIN_ARITY {
                self.wide_messages::<MAX, S>(fi, local, raw, &mut cache.work);
            } else {
                self.factor_messages::<MAX, S>(fi, local, raw);
            }
            cache.stamp[fi] = cache.gen;
        }
        let new = normalize(cache.raw[2 * e], cache.raw[2 * e + 1], ev);
        damp(get_t(fv, self.vslot[e] as usize), new, d)
    }

    /// The raw (unnormalized) factor→variable messages of factor `fi` for
    /// every scope position, as `(t, f)` pairs in `out`, by one
    /// [`eliminate`] pass over its table.
    ///
    /// Accumulation is deterministic but sums in a different order than
    /// [`CompiledGraph::factor_messages`], which is why only the residual
    /// schedule dispatches here.
    fn wide_messages<const MAX: bool, S: MsgElem>(
        &self,
        fi: usize,
        local: &[S],
        out: &mut [f64],
        work: &mut Vec<f64>,
    ) {
        let n = local.len() / 2;
        let table = &self.tables[self.t_off[fi] as usize..][..1 << n];
        if work.len() < 2 << n {
            work.resize(2 << n, 0.0);
        }
        eliminate::<MAX, S>(table, local, out, work);
    }

    /// The raw (unnormalized) factor→variable messages of factor `fi` for
    /// every scope position, as `(t, f)` pairs in `out`, from one walk over
    /// its table. `local` holds the incoming variable→factor pairs (pair `j`
    /// for scope position `j`); `MAX` selects max-product, otherwise
    /// sum-product.
    ///
    /// Every message is bit-identical to a walk of the table for that
    /// position alone, the historical per-edge kernel (see [`walk_cells`]).
    /// Arities 1 and 2 keep that kernel's fast paths: they are faster than
    /// the walk, and their arithmetic differs from it on NaN and `-0.0`
    /// potentials (a NaN unary row must clamp as non-finite).
    fn factor_messages<const MAX: bool, S: MsgElem>(
        &self,
        fi: usize,
        local: &[S],
        out: &mut [f64],
    ) {
        let n = local.len() / 2;
        let table = &self.tables[self.t_off[fi] as usize..][..1 << n];
        // `x` and `1 - x` of each incoming pair.
        let m = |j: usize| (local[2 * j].dec(), local[2 * j + 1].dec());
        match n {
            1 => {
                out[0] = table[1];
                out[1] = table[0];
            }
            2 => {
                let (m0, om0) = m(0);
                let (m1, om1) = m(1);
                let raw = |lo: f64, hi: f64| if MAX { 0.0f64.max(lo).max(hi) } else { lo + hi };
                out[0] = raw(table[1] * om1, table[3] * m1);
                out[1] = raw(table[0] * om1, table[2] * m1);
                out[2] = raw(table[2] * om0, table[3] * m0);
                out[3] = raw(table[0] * om0, table[1] * m0);
            }
            _ => {
                let mut sel = [0.0f64; 2 * MAX_SCOPE];
                for j in 0..n {
                    (sel[2 * j + 1], sel[2 * j]) = m(j);
                }
                let mut acc = [0.0f64; 2 * MAX_SCOPE];
                let (sel, a) = (&sel, &mut acc);
                // The arity is a constant inside the walk, so its per-cell
                // loops unroll.
                match n {
                    3 => walk_cells::<MAX, 3>(table, sel, a),
                    4 => walk_cells::<MAX, 4>(table, sel, a),
                    5 => walk_cells::<MAX, 5>(table, sel, a),
                    6 => walk_cells::<MAX, 6>(table, sel, a),
                    7 => walk_cells::<MAX, 7>(table, sel, a),
                    8 => walk_cells::<MAX, 8>(table, sel, a),
                    9 => walk_cells::<MAX, 9>(table, sel, a),
                    10 => walk_cells::<MAX, 10>(table, sel, a),
                    11 => walk_cells::<MAX, 11>(table, sel, a),
                    12 => walk_cells::<MAX, 12>(table, sel, a),
                    13 => walk_cells::<MAX, 13>(table, sel, a),
                    14 => walk_cells::<MAX, 14>(table, sel, a),
                    15 => walk_cells::<MAX, 15>(table, sel, a),
                    16 => walk_cells::<MAX, 16>(table, sel, a),
                    _ => panic!("factor arity {n} exceeds {MAX_SCOPE}"),
                }
                for j in 0..n {
                    out[2 * j] = acc[2 * j + 1];
                    out[2 * j + 1] = acc[2 * j];
                }
            }
        }
    }

    /// Residual-prioritized belief propagation on the bucketed batch queue
    /// (see the module notes on the schedule's design and determinism).
    ///
    /// `max_iterations` bounds the *sweep-equivalent* work: the update
    /// budget is `max_iterations * num_edges`, so a `BpOptions` tuned for
    /// the sweep schedule spends at most comparable effort here.
    fn residual<const MAX: bool, S: MsgPool>(
        &self,
        extras_in: &[(VarId, f64)],
        opts: &BpOptions,
        scratch: &mut Scratch,
    ) -> Marginals {
        let ne = self.edge_var.len();
        let nf = self.f_off.len() - 1;
        let d = opts.damping;
        let mut ev = GuardEvents::default();

        let (mut fv, mut vf, mut xm) = S::take(scratch);
        reset_pairs(&mut fv, ne);
        reset_pairs(&mut vf, ne);
        // Extras are constant under the asynchronous schedule: install
        // their normalized value up front.
        xm.clear();
        xm.reserve(2 * extras_in.len());
        for &(_, p) in extras_in {
            let m = normalize(p, 1.0 - p, &mut ev);
            xm.push(S::enc(m));
            xm.push(S::enc(1.0 - m));
        }
        let Scratch {
            ps,
            x_off,
            x_idx,
            cand,
            resid,
            epoch,
            queued,
            buckets,
            batch,
            affected_vars,
            changed_vf,
            touched,
            vmark,
            emark,
            msgs,
            ..
        } = scratch;
        let extras = ExtraIndex::build(self.n_vars, extras_in, ps, x_off, x_idx);
        msgs.reset(ne, nf);

        let budget = opts
            .max_iterations
            .saturating_mul(ne.max(1))
            .min(opts.update_budget.unwrap_or(usize::MAX));
        let mut updates = 0usize;
        let mut deadline_expired = false;
        // Per-bucket batch counts, collected only on request
        // (`BpOptions::bucket_stats`): purely observational, never read by
        // the schedule itself.
        let mut bucket_batches: Vec<u32> =
            if opts.bucket_stats { vec![0; NUM_BUCKETS] } else { Vec::new() };

        // Warm start: a few synchronous (Jacobi) sweeps before any
        // prioritization, so all evidence propagates one hop before the
        // first greedy choice. The batch schedule already preserves
        // symmetric fixed points on its own; the warm sweeps additionally
        // keep early update counts comparable with the sweep schedule and
        // seed the residuals with informative values.
        for _ in 0..WARM_SWEEPS.min(opts.max_iterations) {
            if updates >= budget {
                break;
            }
            if deadline_passed(opts) {
                deadline_expired = true;
                break;
            }
            for e in 0..ne {
                let m = self.vf_message(e, &fv, &xm, &extras, &mut ev);
                put(&mut vf, e, m);
            }
            msgs.bump();
            // In-place is still Jacobi here: the factor message reads only
            // `vf`, and each edge's `fv` slot is read (for damping) only by
            // its own candidate.
            for e in 0..ne {
                let c = self.candidate_cached::<MAX, S>(e, &fv, &vf, d, msgs, &mut ev);
                put(&mut fv, self.vslot[e] as usize, c);
            }
            updates += ne;
        }

        // Live cached state: `vf[o]` is the variable→factor message along
        // `o`; `cand[e]`/`resid[e]` are the pending damped update of
        // factor→variable message `e` and its residual. `queued[e]` is
        // `bucket + 1` while `e` has an authoritative queue entry (0
        // otherwise), and that entry is the unique one stamped `epoch[e]`.
        for e in 0..ne {
            let m = self.vf_message(e, &fv, &xm, &extras, &mut ev);
            put(&mut vf, e, m);
        }
        msgs.bump();
        cand.clear();
        cand.resize(ne, 0.0);
        resid.clear();
        resid.resize(ne, 0.0);
        epoch.clear();
        epoch.resize(ne, 0);
        queued.clear();
        queued.resize(ne, 0);
        vmark.clear();
        vmark.resize(self.n_vars, 0);
        emark.clear();
        emark.resize(ne, 0);
        if buckets.len() < NUM_BUCKETS {
            buckets.resize_with(NUM_BUCKETS, VecDeque::new);
        }
        for q in buckets.iter_mut() {
            q.clear();
        }
        for e in 0..ne {
            cand[e] = self.candidate_cached::<MAX, S>(e, &fv, &vf, d, msgs, &mut ev);
            resid[e] = (cand[e] - get_t(&fv, self.vslot[e] as usize)).abs();
            if resid[e] >= opts.tolerance {
                let b = bucket_of(resid[e]);
                buckets[b].push_back((e as u32, 0));
                queued[e] = b as u8 + 1;
            }
        }

        let mut converged = true;
        // Highest-magnitude non-empty bucket; entirely drained as one
        // batch (stale entries — epoch mismatch or dequeued edge — are
        // skipped on pop).
        'solve: while let Some(b) = buckets.iter().position(|q| !q.is_empty()) {
            // Deadline polled once per batch: a batch is at most `ne`
            // updates, the same granularity as a sweep-schedule iteration.
            if deadline_expired || deadline_passed(opts) {
                deadline_expired = true;
                converged = false;
                break;
            }
            batch.clear();
            while let Some((e, ep)) = buckets[b].pop_front() {
                let eu = e as usize;
                if queued[eu] as usize != b + 1 || epoch[eu] != ep {
                    continue;
                }
                queued[eu] = 0;
                batch.push(e);
            }
            if batch.is_empty() {
                continue;
            }
            if opts.bucket_stats {
                bucket_batches[b] += 1;
            }

            // Phase 1: commit the whole batch against the pre-batch state.
            // Bit-equal residuals (symmetric edges) share a bucket, so they
            // are always applied together from identical inputs.
            for &e in batch.iter() {
                if updates >= budget {
                    converged = false;
                    break 'solve;
                }
                let eu = e as usize;
                put(&mut fv, self.vslot[eu] as usize, cand[eu]);
                resid[eu] = 0.0;
                updates += 1;
            }

            // Phase 2: recompute the variable→factor messages of every
            // variable the batch touched — once per variable, not once per
            // applied edge — and remember which ones actually changed.
            affected_vars.clear();
            for &e in batch.iter() {
                let v = self.edge_var[e as usize];
                if vmark[v as usize] == 0 {
                    vmark[v as usize] = 1;
                    affected_vars.push(v);
                }
            }
            changed_vf.clear();
            for &v in affected_vars.iter() {
                for &o in self.var_edges(v as usize) {
                    let m = self.vf_message(o as usize, &fv, &xm, &extras, &mut ev);
                    if S::enc(m).dec() != get_t(&vf, o as usize) {
                        put(&mut vf, o as usize, m);
                        msgs.invalidate(self.edge_factor[o as usize] as usize);
                        changed_vf.push(o);
                    }
                }
            }

            // Phase 3: recompute each candidate the batch invalidated,
            // exactly once — the applied edges themselves (their damping
            // base moved) and the co-scope edges of every changed
            // variable→factor message.
            touched.clear();
            for &e in batch.iter() {
                if emark[e as usize] == 0 {
                    emark[e as usize] = 1;
                    touched.push(e);
                }
            }
            for &o in changed_vf.iter() {
                let f2 = self.edge_factor[o as usize] as usize;
                for e3 in self.f_off[f2]..self.f_off[f2 + 1] {
                    if e3 != o && emark[e3 as usize] == 0 {
                        emark[e3 as usize] = 1;
                        touched.push(e3);
                    }
                }
            }
            for &e3 in touched.iter() {
                let eu = e3 as usize;
                cand[eu] = self.candidate_cached::<MAX, S>(eu, &fv, &vf, d, msgs, &mut ev);
                let r = (cand[eu] - get_t(&fv, self.vslot[eu] as usize)).abs();
                resid[eu] = r;
                if r >= opts.tolerance {
                    let nb = bucket_of(r) as u8 + 1;
                    // Same bucket → the existing entry stays authoritative
                    // (no churn); new bucket → bump the epoch (killing the
                    // old entry lazily) and enqueue.
                    if queued[eu] != nb {
                        epoch[eu] = epoch[eu].wrapping_add(1);
                        buckets[nb as usize - 1].push_back((e3, epoch[eu]));
                        queued[eu] = nb;
                    }
                } else {
                    // Below tolerance: dequeue lazily.
                    queued[eu] = 0;
                }
            }
            for &v in affected_vars.iter() {
                vmark[v as usize] = 0;
            }
            for &e in touched.iter() {
                emark[e as usize] = 0;
            }
        }

        let mut beliefs = vec![0.5f64; self.n_vars];
        for (v, belief) in beliefs.iter_mut().enumerate() {
            let (p_t, p_f) = self.var_product(v, usize::MAX, &fv, &xm, &extras);
            *belief = normalize(p_t, p_f, &mut ev);
        }
        let iterations = updates.div_ceil(ne.max(1)).max(1);
        S::restore(scratch, fv, vf, xm);
        Marginals {
            probs: beliefs,
            iterations,
            converged,
            updates,
            guards: ev,
            deadline_expired,
            bucket_batches,
        }
    }

    /// Decomposes the belief log-odds of `var` into one additive term per
    /// incoming message, read from the message state a solve left behind in
    /// `scratch`.
    ///
    /// The belief of a variable is the normalized product of its incoming
    /// factor→variable message pairs and stamped-extra messages, so its
    /// log-odds `ln(b / (1-b))` is *exactly* (up to floating-point
    /// association) the sum of `ln(m_t) - ln(m_f)` over those messages.
    /// That additive decomposition is what provenance reporting aggregates
    /// by constraint family.
    ///
    /// Must be called on the same `scratch` immediately after a solve of
    /// *this* graph with the same `precision` and the same stamped extras —
    /// the read-out is a pure function of the message pools and the extra
    /// index the solve persisted. Calling it against a stale or foreign
    /// scratch panics on a size mismatch rather than reading garbage.
    pub fn belief_terms(
        &self,
        var: VarId,
        precision: BpPrecision,
        scratch: &Scratch,
    ) -> Vec<BeliefTerm> {
        let v = var.0 as usize;
        assert!(v < self.n_vars, "belief_terms: unknown variable {var}");
        assert_eq!(
            scratch.x_off.len(),
            self.n_vars + 1,
            "belief_terms: scratch does not hold a solve of this graph"
        );
        match precision {
            BpPrecision::F64 => {
                self.belief_terms_from::<f64>(v, &scratch.fv64, &scratch.x64, scratch)
            }
            BpPrecision::F32 => {
                self.belief_terms_from::<f32>(v, &scratch.fv32, &scratch.x32, scratch)
            }
        }
    }

    /// The variables in factor `factor`'s scope, in scope order. Provenance
    /// reporting uses this to walk *through* equality-style factors from an
    /// annotation's variable to the upstream sources (protocol priors,
    /// stamped summaries) that fed it.
    pub fn factor_vars(&self, factor: u32) -> Vec<VarId> {
        let f = factor as usize;
        assert!(f + 1 < self.f_off.len(), "factor_vars: unknown factor {factor}");
        let e0 = self.f_off[f] as usize;
        let e1 = self.f_off[f + 1] as usize;
        self.edge_var[e0..e1].iter().map(|&v| VarId(v)).collect()
    }

    /// The raw sum-product factor→variable messages of factor `factor` for
    /// every scope position, as `(t, f)` pairs in `out`, given its incoming
    /// variable→factor messages as `(p, 1 - p)` pairs in `incoming` (scope
    /// order). This is one factor of the sweep schedule's factor pass,
    /// exposed so micro-benchmarks can time it alone.
    #[doc(hidden)]
    pub fn factor_messages_f64(&self, factor: u32, incoming: &[f64], out: &mut [f64]) {
        self.factor_messages::<false, f64>(factor as usize, incoming, out);
    }

    fn belief_terms_from<S: MsgElem>(
        &self,
        v: usize,
        fv: &[S],
        xm: &[S],
        scratch: &Scratch,
    ) -> Vec<BeliefTerm> {
        assert_eq!(
            fv.len(),
            2 * self.edge_var.len(),
            "belief_terms: message pool does not match this graph (wrong precision or no solve?)"
        );
        let s0 = self.v_off[v] as usize;
        let s1 = self.v_off[v + 1] as usize;
        let mut out = Vec::with_capacity(s1 - s0);
        for slot in s0..s1 {
            let e = self.v_edges[slot] as usize;
            let log_odds = fv[2 * slot].dec().ln() - fv[2 * slot + 1].dec().ln();
            out.push(BeliefTerm::Factor { factor: self.edge_factor[e], log_odds });
        }
        let x0 = scratch.x_off[v] as usize;
        let x1 = scratch.x_off[v + 1] as usize;
        for &x in &scratch.x_idx[x0..x1] {
            let log_odds = xm[2 * x as usize].dec().ln() - xm[2 * x as usize + 1].dec().ln();
            out.push(BeliefTerm::Extra { index: x, log_odds });
        }
        out
    }
}

/// One additive term of a variable's belief log-odds, attributed to its
/// source: a skeleton factor (by compile-order factor id) or a stamped
/// extra unary potential (by stamp index). See
/// [`CompiledGraph::belief_terms`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BeliefTerm {
    /// The message from skeleton factor `factor` contributed `log_odds`.
    Factor {
        /// Factor id in graph insertion order.
        factor: u32,
        /// `ln(m_t) - ln(m_f)` of the final factor→variable message.
        log_odds: f64,
    },
    /// The stamped extra at stamp index `index` contributed `log_odds`.
    Extra {
        /// Index into the `extras` slice the solve was stamped with.
        index: u32,
        /// `ln(m_t) - ln(m_f)` of the extra's installed message.
        log_odds: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::Factor;

    #[test]
    fn bucket_of_maps_magnitude_ranges() {
        assert_eq!(bucket_of(0.75), 0);
        assert_eq!(bucket_of(0.5), 0);
        assert_eq!(bucket_of(2.0), 0); // ≥ 0.5 clamps up
        assert_eq!(bucket_of(0.49), 1);
        assert_eq!(bucket_of(0.25), 1);
        assert_eq!(bucket_of(0.125), 2);
        assert_eq!(bucket_of(1e-300), NUM_BUCKETS - 1); // tiny clamps down
        assert_eq!(bucket_of(0.0), NUM_BUCKETS - 1);
    }

    /// The historical per-edge kernel, kept as the oracle
    /// [`CompiledGraph::factor_messages`] must match bit for bit: one
    /// factor→variable message of factor `fi` for target scope position
    /// `pos`, walking the whole table for that position alone
    /// (accumulation in ascending table-index order, unary/pairwise fast
    /// paths, zero-potential cells skipped), then normalized.
    fn per_edge_walk<const MAX: bool, S: MsgElem>(
        g: &CompiledGraph,
        fi: usize,
        pos: usize,
        local: &[S],
        ev: &mut GuardEvents,
    ) -> f64 {
        let n = local.len() / 2;
        let table = &g.tables[g.t_off[fi] as usize..][..1 << n];
        match n {
            1 => normalize(table[1], table[0], ev),
            2 => {
                let o = 1 - pos;
                let m = local[2 * o].dec();
                let om = local[2 * o + 1].dec();
                let (t_lo, t_hi, f_lo, f_hi) = if pos == 0 {
                    (table[1] * om, table[3] * m, table[0] * om, table[2] * m)
                } else {
                    (table[2] * om, table[3] * m, table[0] * om, table[1] * m)
                };
                let (p_t, p_f) = if MAX {
                    (0.0f64.max(t_lo).max(t_hi), 0.0f64.max(f_lo).max(f_hi))
                } else {
                    (t_lo + t_hi, f_lo + f_hi)
                };
                normalize(p_t, p_f, ev)
            }
            _ => {
                let mut acc_t = 0.0f64;
                let mut acc_f = 0.0f64;
                for (idx, &pot) in table.iter().enumerate() {
                    if pot == 0.0 {
                        continue;
                    }
                    let mut w = pot;
                    for opos in 0..n {
                        if opos == pos {
                            continue;
                        }
                        let bit = idx & (1 << opos) != 0;
                        w *= if bit { local[2 * opos].dec() } else { local[2 * opos + 1].dec() };
                    }
                    if idx & (1 << pos) != 0 {
                        acc_t = if MAX { acc_t.max(w) } else { acc_t + w };
                    } else {
                        acc_f = if MAX { acc_f.max(w) } else { acc_f + w };
                    }
                }
                normalize(acc_t, acc_f, ev)
            }
        }
    }

    fn loopy_fixture() -> FactorGraph {
        let mut g = FactorGraph::new();
        let xs: Vec<_> = (0..6).map(|i| g.add_var(format!("x{i}"))).collect();
        g.add_factor(Factor::unary(xs[0], 0.9));
        g.add_factor(Factor::unary(xs[3], 0.2));
        for i in 0..6 {
            let a = xs[i];
            let b = xs[(i + 1) % 6];
            g.add_factor(Factor::soft(vec![a, b], 0.8, |v| v[0] == v[1]));
        }
        g.add_factor(Factor::soft(xs[..3].to_vec(), 0.9, |a| {
            a.iter().filter(|b| **b).count() == 1
        }));
        // An arity-5 one-hot selector like the model's exactly-one-kind
        // factors, so residual solves also serve narrow factors from the
        // per-factor message cache.
        g.add_factor(Factor::soft(xs[1..].to_vec(), 0.85, |a| {
            a.iter().filter(|b| **b).count() == 1
        }));
        // One wide factor, so residual solves run the elimination path and
        // its per-factor cache.
        g.add_factor(Factor::soft(xs.clone(), 0.7, |a| {
            a[0] || a.iter().filter(|b| **b).count() >= 4
        }));
        g
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh() {
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        let mut h = FactorGraph::new();
        let ys: Vec<_> = (0..8).map(|i| h.add_var(format!("y{i}"))).collect();
        h.add_factor(Factor::unary(ys[2], 0.8));
        h.add_factor(Factor::soft(ys.clone(), 0.9, |a| a[2] == a[5]));
        h.add_factor(Factor::soft(ys[1..7].to_vec(), 0.6, |a| a[0] != a[3]));
        let other = CompiledGraph::compile(&h);
        for schedule in [BpSchedule::Sweep, BpSchedule::Residual] {
            let opts = BpOptions { schedule, damping: 0.1, ..BpOptions::default() };
            let extras = [(VarId(1), 0.7), (VarId(4), 0.3)];
            let mut scratch = Scratch::new();
            // Dirty the scratch with a different graph and a different
            // solve of this one first.
            let _ = other.solve_stamped_scratch(&[], &opts, &mut scratch);
            let _ = compiled.solve_stamped_scratch(&[], &opts, &mut scratch);
            let reused = compiled.solve_stamped_scratch(&extras, &opts, &mut scratch);
            let fresh = compiled.solve_stamped(&extras, &opts);
            assert_eq!(reused, fresh, "{schedule}");
        }
    }

    /// Checks [`CompiledGraph::wide_messages`] on factor 0 of `compiled`
    /// against the per-edge walk of every scope position.
    fn assert_elimination_matches_dense<const MAX: bool>(compiled: &CompiledGraph, local: &[f64]) {
        let n = local.len() / 2;
        let mut raw = vec![0.0; 2 * n];
        let mut work = Vec::new();
        compiled.wide_messages::<MAX, f64>(0, local, &mut raw, &mut work);
        let mut ev = GuardEvents::default();
        for pos in 0..n {
            let dense = per_edge_walk::<MAX, f64>(compiled, 0, pos, local, &mut ev);
            let elim = normalize(raw[2 * pos], raw[2 * pos + 1], &mut ev);
            assert!(
                (elim - dense).abs() <= 1e-12 * dense.abs().max(elim.abs()),
                "max={MAX} arity {n} pos {pos}: elimination {elim:e} vs dense {dense:e}"
            );
        }
        assert!(!ev.any(), "positive tables must not clamp");
    }

    #[test]
    fn wide_elimination_matches_dense_walk() {
        prng::forall("wide-elimination", 60, |rng| {
            let n = rng.gen_index(WIDE_MIN_ARITY..13);
            let mut g = FactorGraph::new();
            let scope: Vec<_> = (0..n).map(|i| g.add_var(format!("w{i}"))).collect();
            if rng.gen_bool(0.5) {
                // Two-valued, as `Factor::soft` builds them.
                let h = 0.55 + 0.44 * rng.gen_f64();
                let k = rng.gen_index(1..n);
                g.add_factor(Factor::soft(scope, h, move |a| {
                    a.iter().filter(|b| **b).count() == k
                }));
            } else {
                // Arbitrary positive values, with zero rows.
                let table: Vec<f64> = (0..1usize << n)
                    .map(|i| if i > 1 && rng.gen_bool(0.3) { 0.0 } else { 0.01 + rng.gen_f64() })
                    .collect();
                g.add_factor(Factor::from_raw_parts(scope, table));
            }
            let compiled = CompiledGraph::compile(&g);
            let local: Vec<f64> = (0..n)
                .flat_map(|_| {
                    let m = 0.001 + 0.998 * rng.gen_f64();
                    [m, 1.0 - m]
                })
                .collect();
            assert_elimination_matches_dense::<false>(&compiled, &local);
            assert_elimination_matches_dense::<true>(&compiled, &local);
        });
    }

    /// Normalizes every message [`CompiledGraph::factor_messages`] yields
    /// for factor 0 of `compiled` and compares each, bit for bit and with
    /// equal guard counts, against the per-edge walk of that position.
    fn assert_factor_messages_match_walk<const MAX: bool, S: MsgElem>(
        compiled: &CompiledGraph,
        ms: &[f64],
    ) {
        let n = ms.len();
        let mut local = Vec::new();
        reset_pairs::<S>(&mut local, n);
        for (j, &m) in ms.iter().enumerate() {
            put(&mut local, j, m);
        }
        let mut raw = vec![0.0; 2 * n];
        compiled.factor_messages::<MAX, S>(0, &local, &mut raw);
        let (mut ev_one, mut ev_walk) = (GuardEvents::default(), GuardEvents::default());
        for pos in 0..n {
            let one = normalize(raw[2 * pos], raw[2 * pos + 1], &mut ev_one);
            let walk = per_edge_walk::<MAX, S>(compiled, 0, pos, &local, &mut ev_walk);
            assert_eq!(
                one.to_bits(),
                walk.to_bits(),
                "max={MAX} arity {n} pos {pos}: one pass {one:e} vs per-edge walk {walk:e}"
            );
        }
        assert_eq!(ev_one, ev_walk, "max={MAX} arity {n}: guard events differ");
    }

    #[test]
    fn factor_messages_match_per_edge_walk_bitwise() {
        prng::forall("factor-messages-bitwise", 400, |rng| {
            let n = rng.gen_index(1..13);
            let mut g = FactorGraph::new();
            let scope: Vec<_> = (0..n).map(|i| g.add_var(format!("w{i}"))).collect();
            match rng.gen_index(0..3) {
                0 => {
                    // Two-valued, as `Factor::soft` builds them.
                    let h = 0.01 + 0.98 * rng.gen_f64();
                    let k = rng.gen_index(0..n + 1);
                    g.add_factor(Factor::soft(scope, h, move |a| {
                        a.iter().filter(|b| **b).count() == k
                    }));
                }
                1 => {
                    // Arbitrary values: zero, negative-zero and poisoned
                    // (NaN, ±inf) cells among positive ones.
                    let special = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                    let table: Vec<f64> = (0..1usize << n)
                        .map(|_| match rng.gen_index(0..10) {
                            0..=2 => 0.0,
                            3 => *rng.pick(&special),
                            _ => rng.gen_f64() * 10f64.powi(rng.gen_index(0..9) as i32 - 4),
                        })
                        .collect();
                    g.add_factor(Factor::from_raw_parts(scope, table));
                }
                _ => {
                    // Zero mass on one side of some position, or everywhere.
                    let j = rng.gen_index(0..n);
                    let all = rng.gen_bool(0.3);
                    let table: Vec<f64> = (0..1usize << n)
                        .map(|i| if all || i >> j & 1 == 1 { 0.0 } else { 0.1 + rng.gen_f64() })
                        .collect();
                    g.add_factor(Factor::from_raw_parts(scope, table));
                }
            }
            let compiled = CompiledGraph::compile(&g);
            // Incoming messages, exact 0 and 1 included.
            let ms: Vec<f64> = (0..n)
                .map(|_| match rng.gen_index(0..6) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_f64(),
                })
                .collect();
            assert_factor_messages_match_walk::<false, f64>(&compiled, &ms);
            assert_factor_messages_match_walk::<true, f64>(&compiled, &ms);
            assert_factor_messages_match_walk::<false, f32>(&compiled, &ms);
            assert_factor_messages_match_walk::<true, f32>(&compiled, &ms);
        });
    }

    #[test]
    fn residual_warm_sweeps_match_dense_jacobi_sweeps() {
        // With `max_iterations: 2` the residual solve stops right after its
        // warm sweeps, so its beliefs must equal two dense Jacobi sweeps:
        // a wide-factor cache entry that outlived a `vf` rewrite would leak
        // stale messages into the second sweep.
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        let d = 0.1;
        let opts = BpOptions {
            schedule: BpSchedule::Residual,
            max_iterations: WARM_SWEEPS,
            damping: d,
            ..BpOptions::default()
        };
        let solved = compiled.solve(&opts);
        assert_eq!(solved.updates, WARM_SWEEPS * compiled.num_edges());

        let ne = compiled.num_edges();
        let (mut ps, mut x_off, mut x_idx) = (Vec::new(), Vec::new(), Vec::new());
        let extras = ExtraIndex::build(compiled.n_vars, &[], &mut ps, &mut x_off, &mut x_idx);
        let mut ev = GuardEvents::default();
        let (mut fv, mut vf) = (Vec::new(), Vec::new());
        reset_pairs::<f64>(&mut fv, ne);
        reset_pairs::<f64>(&mut vf, ne);
        for _ in 0..WARM_SWEEPS {
            for e in 0..ne {
                let m = compiled.vf_message(e, &fv, &[], &extras, &mut ev);
                put(&mut vf, e, m);
            }
            for e in 0..ne {
                let fi = compiled.edge_factor[e] as usize;
                let (e0, e1) = (compiled.f_off[fi] as usize, compiled.f_off[fi + 1] as usize);
                let local = &vf[2 * e0..2 * e1];
                let new = per_edge_walk::<false, f64>(&compiled, fi, e - e0, local, &mut ev);
                let slot = compiled.vslot[e] as usize;
                let old = get_t(&fv, slot);
                put(&mut fv, slot, damp(old, new, d));
            }
        }
        for v in 0..compiled.num_vars() {
            let (p_t, p_f) = compiled.var_product(v, usize::MAX, &fv, &[], &extras);
            let expected = normalize(p_t, p_f, &mut ev);
            let got = solved.prob(VarId(v as u32));
            assert!((got - expected).abs() <= 1e-12, "var {v}: residual {got} vs dense {expected}");
        }
    }

    #[test]
    fn f32_precision_tracks_f64_closely() {
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        for schedule in [BpSchedule::Sweep, BpSchedule::Residual] {
            let o64 = BpOptions { schedule, damping: 0.1, ..BpOptions::default() };
            let o32 = BpOptions { precision: BpPrecision::F32, ..o64 };
            let m64 = compiled.solve(&o64);
            let m32 = compiled.solve(&o32);
            for (a, b) in m64.as_slice().iter().zip(m32.as_slice()) {
                assert!((a - b).abs() < 1e-4, "{schedule}: f64 {a} vs f32 {b}");
            }
        }
    }

    #[test]
    fn residual_batches_preserve_symmetric_fixed_points() {
        // An evidence-free soft one-hot group: all members must stay at
        // their common symmetric marginal instead of being tipped into an
        // arbitrary corner by asynchronous update order.
        let mut g = FactorGraph::new();
        let xs: Vec<_> = (0..4).map(|i| g.add_var(format!("k{i}"))).collect();
        g.add_factor(Factor::soft(xs.clone(), 0.9, |a| a.iter().filter(|b| **b).count() == 1));
        for schedule in [BpSchedule::Sweep, BpSchedule::Residual] {
            let m = g.solve(&BpOptions { schedule, ..BpOptions::default() });
            let p0 = m.prob(xs[0]);
            for &x in &xs {
                assert_eq!(m.prob(x).to_bits(), p0.to_bits(), "{schedule}: symmetry broken at {x}");
            }
        }
        // And the two schedules agree with each other.
        let sweep = g.solve(&BpOptions::default());
        let residual =
            g.solve(&BpOptions { schedule: BpSchedule::Residual, ..BpOptions::default() });
        for (a, b) in sweep.as_slice().iter().zip(residual.as_slice()) {
            assert!((a - b).abs() < 1e-4, "sweep {a} vs residual {b}");
        }
    }

    #[test]
    fn belief_terms_sum_to_belief_log_odds() {
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        let extras = [(VarId(1), 0.7), (VarId(4), 0.3)];
        for schedule in [BpSchedule::Sweep, BpSchedule::Residual] {
            let opts = BpOptions { schedule, damping: 0.1, ..BpOptions::default() };
            let mut scratch = Scratch::new();
            let m = compiled.solve_stamped_scratch(&extras, &opts, &mut scratch);
            for v in 0..compiled.num_vars() {
                let b = m.prob(VarId(v as u32));
                let terms = compiled.belief_terms(VarId(v as u32), opts.precision, &scratch);
                let sum: f64 = terms
                    .iter()
                    .map(|t| match t {
                        BeliefTerm::Factor { log_odds, .. }
                        | BeliefTerm::Extra { log_odds, .. } => *log_odds,
                    })
                    .sum();
                let expected = (b / (1.0 - b)).ln();
                assert!(
                    (sum - expected).abs() < 1e-9,
                    "{schedule} var {v}: terms sum {sum} vs belief log-odds {expected}"
                );
            }
            // Stamped variables carry an Extra term; others do not.
            let t1 = compiled.belief_terms(VarId(1), opts.precision, &scratch);
            assert!(t1.iter().any(|t| matches!(t, BeliefTerm::Extra { .. })), "{schedule}");
            let t0 = compiled.belief_terms(VarId(0), opts.precision, &scratch);
            assert!(t0.iter().all(|t| matches!(t, BeliefTerm::Factor { .. })), "{schedule}");
        }
    }

    #[test]
    fn bucket_stats_are_observational_only() {
        let g = loopy_fixture();
        let compiled = CompiledGraph::compile(&g);
        let base = BpOptions { schedule: BpSchedule::Residual, ..BpOptions::default() };
        let plain = compiled.solve(&base);
        let counted = compiled.solve(&BpOptions { bucket_stats: true, ..base });
        assert!(plain.bucket_batches.is_empty(), "disabled path must not allocate counts");
        assert_eq!(counted.bucket_batches.len(), NUM_BUCKETS);
        assert!(counted.bucket_batches.iter().any(|&c| c > 0), "residual solve drained no batch?");
        // Counting never perturbs the solve itself.
        for (a, b) in plain.as_slice().iter().zip(counted.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(plain.updates, counted.updates);
        // The sweep schedule has no buckets: counts stay empty even when
        // requested.
        let sweep = compiled.solve(&BpOptions { bucket_stats: true, ..BpOptions::default() });
        assert!(sweep.bucket_batches.is_empty());
    }
}
