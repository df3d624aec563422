//! Monte-Carlo accuracy evaluation over a cluster-table network.
//!
//! Algorithm 1 evaluates `QoR(Cir(si → T_{si,fi}))` thousands of
//! times. Rebuilding and re-simulating a gate-level netlist per probe
//! would dominate runtime, so — like the paper — we simulate at
//! *cluster granularity*: each subcircuit is represented by its
//! (possibly approximate) truth table and the whole circuit becomes a
//! DAG of table lookups. Swapping one cluster's table is O(1), and a
//! QoR probe only re-evaluates the clusters downstream of the swap.
//!
//! # Shared model + probe overlay
//!
//! The evaluator is split into an immutable shared model — the
//! [`TableNetwork`], the stimulus, the golden outputs, and the
//! *committed* cluster values — and a cheap per-thread [`ProbeState`]
//! overlay. A probe ([`Evaluator::qor_probe`]) never touches the
//! shared state: it recomputes the candidate's downstream cone into
//! the overlay and resolves every other signal from the committed
//! values. Because probing takes `&self`, any number of candidate
//! probes can run concurrently over one evaluator (the parallel
//! exploration sweep hands each worker thread its own `ProbeState`);
//! the borrow checker, not a save/restore dance, guarantees that a
//! probe performs no writes to shared committed values. Only
//! [`Evaluator::commit`] mutates the model.
//!
//! # The packed incremental QoR engine
//!
//! Accumulating a [`QorReport`] needs one
//! packed *value* per sample (all primary-output bits of that sample
//! assembled into a `u64`). Three layers keep that step proportional
//! to the probed cone, not the circuit:
//!
//! 1. **PO-cone caching** — [`TableNetwork::po_cone`] precomputes, per
//!    cluster, which primary outputs its fan-out cone can reach, and
//!    the evaluator caches the packed per-sample output values of the
//!    *committed* network (refreshed incrementally on
//!    [`Evaluator::commit`]). A probe recomputes only the cone POs'
//!    words and splices them into the cached values with a mask + OR
//!    patch — untouched outputs are never revisited.
//! 2. **64×64 bit-matrix transpose** — [`transpose64`] converts a
//!    block of 64 samples from per-output words to per-sample values
//!    in `O(64·log 64)` word operations, replacing the scalar
//!    per-lane/per-output bit extraction the accumulator used to do.
//! 3. **Bound-pruned probes** — [`Evaluator::qor_probe_bounded`]
//!    checks the accumulator's monotone partial value
//!    ([`QorAccumulator::partial_value`]) after every block and
//!    abandons the probe the moment the candidate provably cannot
//!    beat a caller-supplied bound. Block order is fixed, so pruning
//!    never changes which candidate wins — only how much losing
//!    candidates cost.
//!
//! Two storage-level layers keep the per-block work memory-bound
//! rather than dispatch-bound:
//!
//! * **Multi-word lanes** — the probe engine processes groups of
//!   `LANES` (4) ×u64 blocks = 256 samples per cone pass: per-cluster
//!   `Signal` dispatch, change-mask derivation, and input gathers are
//!   paid once per group and amortize over four words, with a ragged
//!   tail for block counts that are not a multiple of four. The
//!   commit/splice and recompute paths take the same group walk.
//! * **SoA layout** — the [`TableNetwork`] stores inputs, tables,
//!   cone order, and cone PO lists in flat CSR arrays, and committed
//!   values / probe overlays live in one flat `Vec<u64>` addressed by
//!   global output slot × block, so cone propagation walks contiguous
//!   memory instead of chasing `Vec<Vec<u64>>` indirection.
//!
//! The pre-incremental scalar path is retained verbatim as
//! [`Evaluator::qor_probe_reference`] /
//! [`Evaluator::qor_current_reference`]: it is the differential-
//! testing oracle (`tests/qor_differential.rs`) and the baseline the
//! `qor_bench` binary measures speedups against. Both paths push
//! identical sample values in identical order into the same
//! accumulator, so their reports are bit-identical.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use blasys_decomp::{cluster_truth_table, Partition};
use blasys_logic::{Netlist, NodeId, Simulator};

use std::sync::Arc;

use crate::obs::QorCounters;
use crate::qor::{QorAccumulator, QorMetric, QorReport};

/// In-place 64×64 bit-matrix transpose (Hacker's Delight §7-3, scaled
/// up): afterwards, bit `i` of `a[j]` is the former bit `j` of `a[i]`.
///
/// Viewing `a[o]` as "64 samples of output `o`", the transpose yields
/// `a[lane]` = "64 output bits of sample `lane`" — the packed value
/// the QoR accumulator consumes — in `O(64·log 64)` word operations
/// regardless of how many outputs are populated.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j: usize = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k: usize = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Where a cluster input or primary output takes its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Primary input `i` of the original netlist.
    Pi(usize),
    /// Output `out` of cluster `idx`.
    ClusterOut {
        /// Producing cluster index.
        idx: usize,
        /// Output position within the producer.
        out: usize,
    },
    /// A constant value.
    Const(bool),
}

/// Words processed per cone pass of the packed probe engine: 4×u64 =
/// 256 samples per group. Input gathers, change-mask derivation, and
/// the per-cluster `Signal` dispatch amortize across the group; block
/// counts that are not a multiple of `LANES` take a ragged tail
/// (`bw < LANES`) through the same code path.
const LANES: usize = 4;

/// The cluster-level table network of a decomposed circuit, stored as
/// a flat structure of arrays.
///
/// Per-cluster variable-length data (input signals, table rows,
/// downstream cone order, cone PO lists) lives in shared flat vectors
/// addressed by CSR-style offset tables, and per-cluster outputs map
/// to a global *output slot* space (`out_base`). Probe propagation
/// therefore walks contiguous memory — the cone order `down[..]` is
/// one sequential slice per cluster, topologically sorted, and every
/// value/overlay access is arithmetic on one flat `Vec<u64>` — with
/// no nested `Vec<Vec<…>>` pointer chasing on the hot path.
#[derive(Debug, Clone)]
pub struct TableNetwork {
    num_pis: usize,
    /// Number of clusters.
    n: usize,
    /// Flat input signals; cluster `i` owns
    /// `inputs[input_off[i]..input_off[i + 1]]`.
    inputs: Vec<Signal>,
    input_off: Vec<usize>,
    /// Flat table rows (`2^k` packed-output rows per cluster);
    /// cluster `i` owns `rows[row_off[i]..row_off[i + 1]]`.
    rows: Vec<u16>,
    row_off: Vec<usize>,
    /// Global output-slot base per cluster (`n + 1` prefix sums):
    /// output `o` of cluster `i` is slot `out_base[i] + o`, and
    /// `out_base[n]` is the total output-slot count.
    out_base: Vec<usize>,
    po_sigs: Vec<Signal>,
    /// Flat downstream cone order: cluster `i`'s cone (itself
    /// included) is `down[down_off[i]..down_off[i + 1]]`, ascending —
    /// which is topological, since cluster indices are.
    down: Vec<usize>,
    down_off: Vec<usize>,
    /// Bit `o` of `cone_mask[i]` set ⇔ primary output `o` is
    /// reachable from cluster `i`'s fan-out cone.
    cone_mask: Vec<u64>,
    /// Flat cone PO indices (ascending per cluster): cluster `i`'s
    /// cone POs are `cone_pos[cone_off[i]..cone_off[i + 1]]`.
    cone_pos: Vec<usize>,
    cone_off: Vec<usize>,
}

impl TableNetwork {
    /// Build the network from a netlist and its partition, installing
    /// every cluster's *exact* truth table.
    pub fn new(nl: &Netlist, partition: &Partition) -> TableNetwork {
        let signal_of = |node: NodeId| -> Signal {
            use blasys_logic::GateKind;
            match nl.node(node).kind() {
                GateKind::Input => {
                    let pos = nl
                        .inputs()
                        .iter()
                        .position(|&p| p == node)
                        .expect("input node registered");
                    Signal::Pi(pos)
                }
                GateKind::Const0 => Signal::Const(false),
                GateKind::Const1 => Signal::Const(true),
                _ => {
                    let ci = partition.cluster_of(node).expect("gate node placed");
                    let out = partition.clusters()[ci]
                        .outputs()
                        .iter()
                        .position(|&o| o == node)
                        .expect("producer must expose the signal");
                    Signal::ClusterOut { idx: ci, out }
                }
            }
        };

        let n = partition.clusters().len();
        let mut inputs = Vec::new();
        let mut input_off = Vec::with_capacity(n + 1);
        input_off.push(0);
        let mut rows = Vec::new();
        let mut row_off = Vec::with_capacity(n + 1);
        row_off.push(0);
        let mut out_base = Vec::with_capacity(n + 1);
        out_base.push(0usize);
        for c in partition.clusters() {
            assert!(
                c.outputs().len() <= 16,
                "cluster outputs must fit a u16 table row"
            );
            assert!(c.inputs().len() <= 16, "cluster row indices must fit a u16");
            let tt = cluster_truth_table(nl, c);
            rows.extend((0..tt.rows()).map(|r| tt.row_value(r) as u16));
            row_off.push(rows.len());
            inputs.extend(c.inputs().iter().map(|&node| signal_of(node)));
            input_off.push(inputs.len());
            out_base.push(out_base.last().unwrap() + c.outputs().len());
        }
        let po_sigs: Vec<Signal> = nl.outputs().iter().map(|o| signal_of(o.node())).collect();

        // Transitive downstream sets over the cluster DAG, flattened
        // in CSR form (ascending per cluster = topological).
        let mut direct_users: Vec<Vec<usize>> = vec![Vec::new(); n];
        for ci in 0..n {
            for sig in &inputs[input_off[ci]..input_off[ci + 1]] {
                if let Signal::ClusterOut { idx, .. } = sig {
                    if !direct_users[*idx].contains(&ci) {
                        direct_users[*idx].push(ci);
                    }
                }
            }
        }
        let mut down = Vec::new();
        let mut down_off = Vec::with_capacity(n + 1);
        down_off.push(0usize);
        let mut cone_mask = Vec::with_capacity(n);
        let mut cone_pos = Vec::new();
        let mut cone_off = Vec::with_capacity(n + 1);
        cone_off.push(0usize);
        for i in 0..n {
            let mut mark = vec![false; n];
            mark[i] = true;
            for j in i..n {
                if mark[j] {
                    for &u in &direct_users[j] {
                        mark[u] = true;
                    }
                }
            }
            down.extend((i..n).filter(|&j| mark[j]));
            down_off.push(down.len());

            let mut mask = 0u64;
            for (o, sig) in po_sigs.iter().enumerate() {
                if let Signal::ClusterOut { idx, .. } = sig {
                    if mark[*idx] {
                        mask |= 1u64 << o;
                        cone_pos.push(o);
                    }
                }
            }
            cone_mask.push(mask);
            cone_off.push(cone_pos.len());
        }

        TableNetwork {
            num_pis: nl.num_inputs(),
            n,
            inputs,
            input_off,
            rows,
            row_off,
            out_base,
            po_sigs,
            down,
            down_off,
            cone_mask,
            cone_pos,
            cone_off,
        }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the network has no clusters.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The current table of one cluster.
    pub fn table(&self, cluster: usize) -> &[u16] {
        &self.rows[self.row_off[cluster]..self.row_off[cluster + 1]]
    }

    /// Install a new table for a cluster.
    ///
    /// # Panics
    ///
    /// Panics if the row count differs from the installed table.
    pub fn set_table(&mut self, cluster: usize, rows: Vec<u16>) {
        let slice = &mut self.rows[self.row_off[cluster]..self.row_off[cluster + 1]];
        assert_eq!(
            rows.len(),
            slice.len(),
            "table shape must match the cluster window"
        );
        slice.copy_from_slice(&rows);
    }

    /// Clusters affected by a change to `cluster` (itself included),
    /// in topological order — one contiguous slice of the flat cone
    /// array.
    pub fn downstream(&self, cluster: usize) -> &[usize] {
        &self.down[self.down_off[cluster]..self.down_off[cluster + 1]]
    }

    /// Primary outputs reachable from `cluster`'s fan-out cone
    /// (ascending indices): the only outputs a QoR probe of this
    /// cluster has to recompute.
    pub fn po_cone(&self, cluster: usize) -> &[usize] {
        &self.cone_pos[self.cone_off[cluster]..self.cone_off[cluster + 1]]
    }

    /// Packed form of [`TableNetwork::po_cone`]: bit `o` set ⇔ output
    /// `o` is in the cone.
    pub fn po_cone_mask(&self, cluster: usize) -> u64 {
        self.cone_mask[cluster]
    }

    /// Number of primary inputs of the underlying circuit.
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// Number of primary outputs of the underlying circuit.
    pub fn num_pos(&self) -> usize {
        self.po_sigs.len()
    }

    /// Assert the SoA/CSR layout invariants the probe hot path relies
    /// on: consistent offset tables, `2^k` rows per cluster, strictly
    /// topological cone order, and every referenced signal in range.
    /// Called at the session's pristine-evaluator boundary in debug
    /// builds (and under `verify_ir`); a violation is a constructor or
    /// `set_table` bug, so this panics rather than returning.
    pub(crate) fn debug_verify(&self) {
        let n = self.n;
        let csr = [
            ("input_off", &self.input_off, self.inputs.len()),
            ("row_off", &self.row_off, self.rows.len()),
            ("down_off", &self.down_off, self.down.len()),
            ("cone_off", &self.cone_off, self.cone_pos.len()),
        ];
        for (name, off, flat_len) in csr {
            assert_eq!(off.len(), n + 1, "{name} must have n + 1 entries");
            assert_eq!(off[0], 0, "{name} must start at 0");
            assert!(off.windows(2).all(|w| w[0] <= w[1]), "{name} must ascend");
            assert_eq!(off[n], flat_len, "{name} must cover its flat array");
        }
        assert_eq!(
            self.out_base.len(),
            n + 1,
            "out_base must have n + 1 entries"
        );
        assert_eq!(self.out_base[0], 0, "out_base must start at 0");
        assert!(
            self.out_base.windows(2).all(|w| w[0] <= w[1]),
            "out_base must ascend"
        );
        assert_eq!(self.cone_mask.len(), n, "one cone mask per cluster");
        let check_signal = |sig: &Signal, user: usize| match *sig {
            Signal::Pi(i) => assert!(i < self.num_pis, "PI {i} out of range"),
            Signal::Const(_) => {}
            Signal::ClusterOut { idx, out } => {
                assert!(idx < user, "cluster {user} reads non-earlier cluster {idx}");
                let outputs = self.out_base[idx + 1] - self.out_base[idx];
                assert!(out < outputs, "output {out} out of range for cluster {idx}");
            }
        };
        for i in 0..n {
            let k = self.input_off[i + 1] - self.input_off[i];
            assert!(k <= 16, "cluster {i} has {k} inputs; rows index a u16");
            assert_eq!(
                self.row_off[i + 1] - self.row_off[i],
                1usize << k,
                "cluster {i} must hold 2^k table rows"
            );
            for sig in &self.inputs[self.input_off[i]..self.input_off[i + 1]] {
                check_signal(sig, i);
            }
            let down = &self.down[self.down_off[i]..self.down_off[i + 1]];
            assert_eq!(down.first(), Some(&i), "cone of {i} must start with itself");
            assert!(
                down.windows(2).all(|w| w[0] < w[1]) && down.iter().all(|&j| j < n),
                "cone of {i} must be strictly ascending cluster indices"
            );
            let cone = &self.cone_pos[self.cone_off[i]..self.cone_off[i + 1]];
            assert!(
                cone.windows(2).all(|w| w[0] < w[1])
                    && cone.iter().all(|&o| o < self.po_sigs.len()),
                "PO cone of {i} must be strictly ascending output indices"
            );
            for &o in cone {
                assert!(
                    o >= 64 || self.cone_mask[i] >> o & 1 == 1,
                    "cone_mask of {i} must cover PO {o}"
                );
            }
        }
        // PO references use `n` as the user index: any cluster may
        // drive a primary output.
        for sig in &self.po_sigs {
            check_signal(sig, n);
        }
    }

    /// Longest-path depth of the cluster DAG under per-cluster delays
    /// (`delays[cluster]`, ns). Primary inputs and constants arrive at
    /// time zero; a cluster's outputs arrive at the latest input
    /// arrival plus its own delay; the result is the latest primary-
    /// output arrival. Cluster indices ascend topologically, so one
    /// forward pass suffices — the walk order is fixed, which keeps
    /// the accumulated float bit-identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `delays.len()` differs from the cluster count.
    pub fn model_depth_ns(&self, delays: &[f64]) -> f64 {
        assert_eq!(delays.len(), self.n, "one delay per cluster");
        let mut arrive = vec![0.0f64; self.n];
        for ci in 0..self.n {
            let mut latest = 0.0f64;
            for sig in self.inputs_of(ci) {
                if let Signal::ClusterOut { idx, .. } = sig {
                    latest = latest.max(arrive[*idx]);
                }
            }
            arrive[ci] = latest + delays[ci];
        }
        let mut depth = 0.0f64;
        for sig in &self.po_sigs {
            if let Signal::ClusterOut { idx, .. } = sig {
                depth = depth.max(arrive[*idx]);
            }
        }
        depth
    }

    /// Input signals of one cluster.
    fn inputs_of(&self, cluster: usize) -> &[Signal] {
        &self.inputs[self.input_off[cluster]..self.input_off[cluster + 1]]
    }

    /// Number of outputs of one cluster.
    fn num_outputs_of(&self, cluster: usize) -> usize {
        self.out_base[cluster + 1] - self.out_base[cluster]
    }

    /// Global output-slot base of one cluster: output `o` of `cluster`
    /// occupies flat slot `out_base_of(cluster) + o`.
    fn out_base_of(&self, cluster: usize) -> usize {
        self.out_base[cluster]
    }

    /// Total output-slot count (the size of one block column of the
    /// flat value / overlay arrays).
    fn total_outputs(&self) -> usize {
        self.out_base[self.n]
    }
}

/// Monte-Carlo stimulus and evaluation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Number of random samples (rounded up to a multiple of 64).
    pub samples: usize,
    /// RNG seed (stimulus is deterministic per seed).
    pub seed: u64,
}

impl Default for McConfig {
    fn default() -> McConfig {
        McConfig {
            samples: 10_000,
            seed: 0xB1A5_1234,
        }
    }
}

/// Evaluate one cluster's 64-sample block: transpose the input signal
/// words into per-lane row indices, look every lane's table row up,
/// and transpose the rows back into per-output words. Both directions
/// are branchless [`transpose64`] passes — no per-bit set-bit loops.
fn eval_block(inputs: &[Signal], rows: &[u16], resolve: impl Fn(Signal) -> u64, out: &mut [u64]) {
    debug_assert!(inputs.len() <= 64, "window inputs fit one index word");
    let mut m = [0u64; 64];
    for (i, &sig) in inputs.iter().enumerate() {
        m[i] = resolve(sig);
    }
    transpose64(&mut m);
    // `m[lane]` is now lane's row index (input bits, LSB first); rows
    // above the input count were zero, so indices stay in range.
    for v in m.iter_mut() {
        *v = rows[*v as usize] as u64;
    }
    transpose64(&mut m);
    out.copy_from_slice(&m[..out.len()]);
}

/// Per-thread overlay for `&self` QoR probes.
///
/// Holds the recomputed downstream-cone values of the cluster being
/// probed plus reusable scratch; everything outside the cone is read
/// from the evaluator's shared committed values. Validity is tracked
/// with an epoch stamp, so starting a new probe is O(1) — no clearing,
/// no allocation. Build one per worker thread with
/// [`Evaluator::probe_state`] and reuse it across any number of
/// probes (and across commits: every probe re-derives its cone from
/// the then-current committed state).
#[derive(Debug, Clone)]
pub struct ProbeState {
    /// Current probe epoch; bumped at the start of every probe.
    epoch: u64,
    /// `valid[ci] == epoch` ⇔ cluster `ci`'s overlay slots hold this
    /// probe's values.
    valid: Vec<u64>,
    /// Flat overlay values, indexed like the evaluator's committed
    /// values: `overlay[(out_base_of(ci) + o) * blocks + block]`.
    overlay: Vec<u64>,
    /// Per-block cluster-output scratch (hoisted out of the probe
    /// loop; sized to the widest cluster on first use).
    out_scratch: Vec<u64>,
    /// Per-block primary-output scratch for the scalar reference
    /// accumulation ([`Evaluator::qor_probe_reference`]); the packed
    /// path works on fixed 64-word stack blocks instead.
    po_words: Vec<u64>,
    /// `changed[ci * LANES + w]` = lanes of word `w` of the current
    /// group where cluster `ci`'s probed value differs from its
    /// committed value. Written for every cone cluster before any cone
    /// consumer reads it (group loop, topological order), so no
    /// per-group reset is needed.
    changed: Vec<u64>,
    /// Scratch bitmap over the probed cluster's table rows: bit `r`
    /// set ⇔ the candidate's row `r` differs from the committed row.
    /// Combined with the evaluator's cached committed row indices it
    /// yields the root cluster's exact change mask per block.
    row_diff: Vec<u64>,
}

/// A reusable QoR evaluator: fixed stimulus, golden outputs from the
/// exact netlist, `&self` probes and `&mut self` commits.
///
/// `Clone` duplicates the full committed state (tables, caches)
/// without re-simulating anything, while the immutable sampled model
/// (stimulus, golden outputs) stays `Arc`-shared across clones — a
/// [`FlowSession`](crate::session::FlowSession) keeps one pristine
/// exact-tables evaluator and clones it per exploration, and beam
/// search clones one branch evaluator per committed frontier.
#[derive(Debug, Clone)]
pub struct Evaluator {
    network: TableNetwork,
    /// `stimulus[pi][block]`. The stimulus/golden model is immutable
    /// after construction and `Arc`-shared, so cloning an evaluator —
    /// per exploration, or per beam-search branch — duplicates only
    /// the committed-value state, never the sampled model.
    stimulus: Arc<Vec<Vec<u64>>>,
    /// Golden output value per sample (shared, see `stimulus`).
    golden: Arc<Vec<u64>>,
    /// Golden outputs in per-output word form, flat:
    /// `golden_words[po * blocks + block]` (shared, see `stimulus`).
    golden_words: Arc<Vec<u64>>,
    /// Cached cluster-output words of the *committed* network, flat
    /// over global output slots:
    /// `values[(out_base_of(ci) + o) * blocks + block]` — each
    /// output's blocks are contiguous, so group copies are
    /// `copy_from_slice` on one flat array.
    values: Vec<u64>,
    /// Cached packed per-sample output values of the *committed*
    /// network (`committed_po[sample]`), refreshed incrementally on
    /// commit. Probes splice their cone POs' recomputed bits into
    /// these values instead of re-deriving every output.
    committed_po: Vec<u64>,
    /// `committed_diff[po * blocks + block]` = committed PO word XOR
    /// golden word: the lanes where the committed network already errs
    /// on that output.
    committed_diff: Vec<u64>,
    /// `committed_mism[block]` = OR of `committed_diff` over every PO:
    /// the lanes where the committed network errs at all (drives the
    /// skip-correct fast path of [`Evaluator::qor_current`]).
    committed_mism: Vec<u64>,
    /// `outside_mism[cluster * blocks + block]` = OR of
    /// `committed_diff` over the POs *outside* the cluster's cone: the
    /// mismatching lanes a probe of that cluster inherits and cannot
    /// affect.
    outside_mism: Vec<u64>,
    /// `row_idx[cluster * samples + sample]` = the table row index
    /// cluster `cluster` looks up for `sample` under the *committed*
    /// input values (a free by-product of [`Evaluator::recompute_cluster`]'s
    /// first transpose). A probe's root cluster reads only committed
    /// inputs, so its probed outputs are `rows[row_idx[..]]` — the
    /// probe derives its true change mask from the candidate-vs-
    /// committed changed-row set instead of assuming every lane moved.
    row_idx: Vec<u16>,
    blocks: usize,
    samples: usize,
    output_bits: usize,
    /// Optional engine counters ([`QorCounters`]), shared by every
    /// clone of this evaluator so a session's explorations accumulate
    /// into one block. `None` (the default) keeps the probe path free
    /// of atomic traffic.
    counters: Option<Arc<QorCounters>>,
}

/// Per-probe counter tallies, accumulated in locals inside the block
/// loop and flushed to the shared [`QorCounters`] (if any) exactly
/// once per probe — a handful of atomic adds instead of one per
/// (cluster, block).
#[derive(Default)]
struct ProbeTally {
    cone_hits: u64,
    cone_misses: u64,
    lanes: u64,
}

impl ProbeTally {
    #[inline]
    fn flush(self, counters: Option<&QorCounters>, pruned: bool) {
        let Some(c) = counters else { return };
        c.probes.inc();
        if pruned {
            c.probes_pruned.inc();
        }
        c.cone_hits.add(self.cone_hits);
        c.cone_misses.add(self.cone_misses);
        c.lanes.add(self.lanes);
    }
}

// The parallel candidate sweep shares `&Evaluator` across worker
// threads. Compile-time guard: the shared model must stay `Sync`
// (no interior mutability may creep in).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TableNetwork>();
    assert_send_sync::<Evaluator>();
    assert_send_sync::<ProbeState>();
};

impl Evaluator {
    /// Build an evaluator with uniform random stimulus: simulates the
    /// exact netlist for golden outputs and seeds the table network
    /// with exact tables.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 64 outputs (output values
    /// must fit a `u64`).
    pub fn new(nl: &Netlist, partition: &Partition, cfg: &McConfig) -> Evaluator {
        let blocks = cfg.samples.div_ceil(64).max(1);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let stimulus: Vec<Vec<u64>> = (0..nl.num_inputs())
            .map(|_| (0..blocks).map(|_| rng.gen::<u64>()).collect())
            .collect();
        Evaluator::with_stimulus(nl, partition, stimulus)
    }

    /// Build an evaluator over caller-provided stimulus
    /// (`stimulus[input][block]`, 64 samples per block word). Use this
    /// when the workload's input distribution is not uniform — e.g.
    /// accumulator inputs of MAC/SAD drawn from accumulation traces.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 64 outputs, the stimulus is
    /// empty, or its shape does not match the input count.
    pub fn with_stimulus(
        nl: &Netlist,
        partition: &Partition,
        stimulus: Vec<Vec<u64>>,
    ) -> Evaluator {
        assert!(nl.num_outputs() <= 64, "outputs must fit a u64 value");
        assert_eq!(stimulus.len(), nl.num_inputs(), "one lane set per input");
        let blocks = stimulus.first().map(|s| s.len()).unwrap_or(0).max(1);
        assert!(
            stimulus.iter().all(|s| s.len() == blocks),
            "equal block count per input"
        );
        let samples = blocks * 64;
        let network = TableNetwork::new(nl, partition);

        // Golden outputs from gate-level simulation, kept in both
        // forms: per-output words and (via transpose) packed
        // per-sample values.
        let num_pos = nl.num_outputs();
        let mut golden = vec![0u64; samples];
        let mut golden_words = vec![0u64; num_pos * blocks];
        let mut sim = Simulator::new(nl);
        let mut words = vec![0u64; nl.num_inputs()];
        for b in 0..blocks {
            for (i, w) in words.iter_mut().enumerate() {
                *w = stimulus[i][b];
            }
            let out = sim.run(&words);
            for (o, &w) in out.iter().enumerate() {
                golden_words[o * blocks + b] = w;
            }
            let mut m = [0u64; 64];
            m[..out.len()].copy_from_slice(out);
            transpose64(&mut m);
            golden[b * 64..(b + 1) * 64].copy_from_slice(&m);
        }

        let num_clusters = network.len();
        let mut ev = Evaluator {
            values: vec![0u64; network.total_outputs() * blocks],
            network,
            stimulus: Arc::new(stimulus),
            golden: Arc::new(golden),
            golden_words: Arc::new(golden_words),
            committed_po: vec![0u64; samples],
            committed_diff: vec![0u64; num_pos * blocks],
            committed_mism: vec![0u64; blocks],
            outside_mism: vec![0u64; num_clusters * blocks],
            row_idx: vec![0u16; num_clusters * samples],
            blocks,
            samples,
            output_bits: num_pos,
            counters: None,
        };
        ev.recompute_all();
        let all: Vec<usize> = (0..ev.network.po_sigs.len()).collect();
        ev.patch_committed_po(&all, u64::MAX);
        ev
    }

    /// Number of samples in the fixed stimulus — the *actual*
    /// evaluated count: the requested [`McConfig::samples`] rounded up
    /// to a multiple of 64 (the stimulus packs 64 samples per machine
    /// word). Every [`QorReport::samples`] this evaluator produces
    /// equals this value; reports must never echo the requested count.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Immutable access to the table network.
    pub fn network(&self) -> &TableNetwork {
        &self.network
    }

    /// Attach engine counters (`qor.*`). Clones share the same block,
    /// so a session's pristine evaluator attaches once and every
    /// per-exploration clone accumulates into it. Probe-path cost with
    /// counters attached is a handful of atomic adds *per probe* (the
    /// per-block tallies are accumulated in locals); with `None` it is
    /// a single branch.
    pub fn set_counters(&mut self, counters: Arc<QorCounters>) {
        self.counters = Some(counters);
    }

    /// A probe overlay sized for this evaluator. Build one per thread
    /// and reuse it across probes; see [`ProbeState`].
    pub fn probe_state(&self) -> ProbeState {
        let max_out = (0..self.network.len())
            .map(|ci| self.network.num_outputs_of(ci))
            .max()
            .unwrap_or(0);
        ProbeState {
            epoch: 0,
            valid: vec![0; self.network.len()],
            overlay: vec![0u64; self.network.total_outputs() * self.blocks],
            out_scratch: Vec::with_capacity(max_out),
            po_words: Vec::with_capacity(self.network.po_sigs.len()),
            changed: vec![0; self.network.len() * LANES],
            row_diff: Vec::new(),
        }
    }

    /// Committed value of a signal at `block`.
    fn committed_word(&self, sig: Signal, block: usize) -> u64 {
        match sig {
            Signal::Pi(i) => self.stimulus[i][block],
            Signal::ClusterOut { idx, out } => {
                self.values[(self.network.out_base_of(idx) + out) * self.blocks + block]
            }
            Signal::Const(false) => 0,
            Signal::Const(true) => !0,
        }
    }

    /// Accumulate whole-circuit QoR with primary outputs resolved by
    /// `resolve`; `po_words` is caller-owned scratch.
    ///
    /// This is the **pre-incremental scalar accumulation**: every
    /// primary output's word is resolved for every block and the
    /// per-sample values are assembled bit by bit. It is retained
    /// verbatim as the reference the packed engine is differentially
    /// tested and benchmarked against — do not "optimize" it.
    fn qor_via(
        &self,
        po_words: &mut Vec<u64>,
        resolve: impl Fn(Signal, usize) -> u64,
    ) -> QorReport {
        po_words.clear();
        po_words.resize(self.network.po_sigs.len(), 0);
        let mut acc = QorAccumulator::new(self.output_bits);
        for b in 0..self.blocks {
            for (o, &sig) in self.network.po_sigs.iter().enumerate() {
                po_words[o] = resolve(sig, b);
            }
            for lane in 0..64 {
                let mut v = 0u64;
                for (o, w) in po_words.iter().enumerate() {
                    v |= (w >> lane & 1) << o;
                }
                acc.push(self.golden[b * 64 + lane], v);
            }
        }
        acc.finish()
    }

    /// QoR of the committed network state (read straight from the
    /// packed per-sample cache; blocks of error-free samples are
    /// batch-counted via the committed mismatch mask).
    pub fn qor_current(&self) -> QorReport {
        let mut acc = QorAccumulator::new(self.output_bits);
        for (b, &mism) in self.committed_mism.iter().enumerate() {
            acc.push_correct(64 - mism.count_ones() as usize);
            let mut w = mism;
            while w != 0 {
                let lane = w.trailing_zeros() as usize;
                w &= w - 1;
                let s = b * 64 + lane;
                acc.push(self.golden[s], self.committed_po[s]);
            }
        }
        acc.finish()
    }

    /// Scalar reference for [`Evaluator::qor_current`]: re-resolves
    /// every primary output from the committed cluster values and
    /// assembles sample values bit by bit, bypassing the packed
    /// cache. Bit-identical to `qor_current` by construction; kept
    /// for differential testing and benchmarking.
    pub fn qor_current_reference(&self) -> QorReport {
        let mut po_words = Vec::new();
        self.qor_via(&mut po_words, |sig, b| self.committed_word(sig, b))
    }

    /// Recompute the probed cluster's downstream cone into `state`'s
    /// overlay (shared prefix of every probe flavor).
    ///
    /// # Panics
    ///
    /// Panics if `state` was built for a different evaluator shape or
    /// `rows` does not match the cluster's table shape.
    fn probe_cone(&self, state: &mut ProbeState, cluster: usize, rows: &[u16]) {
        assert_eq!(
            state.valid.len(),
            self.network.len(),
            "probe state must be built by this evaluator"
        );
        assert_eq!(
            rows.len(),
            self.network.table(cluster).len(),
            "table shape must match the cluster window"
        );
        state.epoch += 1;
        let epoch = state.epoch;
        let blocks = self.blocks;
        let ProbeState {
            valid,
            overlay,
            out_scratch,
            ..
        } = state;
        for &ci in self.network.downstream(cluster) {
            let ins = self.network.inputs_of(ci);
            let m = self.network.num_outputs_of(ci);
            let base = self.network.out_base_of(ci);
            let use_rows: &[u16] = if ci == cluster {
                rows
            } else {
                self.network.table(ci)
            };
            out_scratch.clear();
            out_scratch.resize(m, 0);
            for b in 0..blocks {
                // The resolver reads the overlay immutably inside
                // `eval_block`; the writes land after it returns, and
                // a cluster never reads its own outputs
                // (combinational DAG), so `valid[ci]` being stale
                // during the fill is unobservable.
                eval_block(
                    ins,
                    use_rows,
                    |sig| match sig {
                        Signal::ClusterOut { idx, out } if valid[idx] == epoch => {
                            overlay[(self.network.out_base_of(idx) + out) * blocks + b]
                        }
                        other => self.committed_word(other, b),
                    },
                    out_scratch,
                );
                for (o, &w) in out_scratch.iter().enumerate() {
                    overlay[(base + o) * blocks + b] = w;
                }
            }
            valid[ci] = epoch;
        }
    }

    /// Probe: QoR if `cluster` used `rows`, without touching the
    /// shared committed state. Only the downstream cone of `cluster`
    /// is re-evaluated, into `state`'s overlay; everything else reads
    /// the committed values — accumulation splices the cone POs'
    /// recomputed bits into the cached committed sample values, so
    /// probe cost scales with the cone, not the circuit. Safe to call
    /// concurrently from many threads, each with its own `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` was built for a different evaluator shape or
    /// `rows` does not match the cluster's table shape.
    pub fn qor_probe(&self, state: &mut ProbeState, cluster: usize, rows: &[u16]) -> QorReport {
        self.qor_probe_bounded(state, cluster, rows, QorMetric::AvgRelative, f64::INFINITY)
            .expect("an unbounded probe never prunes")
    }

    /// Like [`Evaluator::qor_probe`], but abandons the probe — and
    /// returns `None` — as soon as the candidate's monotone partial
    /// error over `metric` exceeds `bound` (checked after every
    /// 64-sample block, in fixed block order).
    ///
    /// Pruning is sound for winner selection: a pruned candidate's
    /// final value is at least its partial value, hence strictly above
    /// `bound`; as long as `bound` is at least the eventual best
    /// candidate's value, no pruned candidate could have won or tied.
    /// Ties at exactly `bound` are never pruned (the comparison is
    /// strict), so index-based tie-breaks are preserved and greedy
    /// trajectories stay bit-identical with pruning on or off, at any
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if `state` was built for a different evaluator shape or
    /// `rows` does not match the cluster's table shape.
    pub fn qor_probe_bounded(
        &self,
        state: &mut ProbeState,
        cluster: usize,
        rows: &[u16],
        metric: QorMetric,
        bound: f64,
    ) -> Option<QorReport> {
        self.qor_probe_bounded_by(state, cluster, rows, metric, || bound)
    }

    /// Like [`Evaluator::qor_probe_bounded`], but re-reads the bound
    /// from `bound` before every block's prune check. In a concurrent
    /// candidate sweep the caller can hand every worker a view of a
    /// shared monotonically-decreasing bound (e.g. an atomic lowered
    /// as candidates complete), so in-flight probes benefit from
    /// tightening they could not have seen at launch. Soundness is
    /// unaffected as long as every value the closure returns is at
    /// least the eventual best candidate's final error.
    ///
    /// # Panics
    ///
    /// Same contract as [`Evaluator::qor_probe`].
    pub fn qor_probe_bounded_by(
        &self,
        state: &mut ProbeState,
        cluster: usize,
        rows: &[u16],
        metric: QorMetric,
        bound: impl Fn() -> f64,
    ) -> Option<QorReport> {
        assert_eq!(
            state.valid.len(),
            self.network.len(),
            "probe state must be built by this evaluator"
        );
        assert_eq!(
            rows.len(),
            self.network.table(cluster).len(),
            "table shape must match the cluster window"
        );
        state.epoch += 1;
        let epoch = state.epoch;
        let blocks = self.blocks;
        // Counter tallies stay in locals until the probe resolves; the
        // zero-observability path pays only the final `None` check.
        let mut tally = ProbeTally::default();
        let cone_clusters = self.network.downstream(cluster);
        let cone_pos = self.network.po_cone(cluster);
        let keep = !self.network.po_cone_mask(cluster);
        let mut acc = QorAccumulator::new(self.output_bits);
        let ProbeState {
            valid,
            overlay,
            changed,
            row_diff,
            ..
        } = state;
        // Candidate-vs-committed changed-row bitmap. The root
        // cluster's inputs are committed (its producers sit outside
        // its own cone), so its committed per-lane row indices are
        // still valid under the probe: a lane's output moves iff its
        // index hits a changed row. This replaces the old "assume
        // every root lane changed" full eval — a candidate close to
        // the committed table probes in near-zero time.
        let committed_rows = self.network.table(cluster);
        row_diff.clear();
        row_diff.resize(committed_rows.len().div_ceil(64), 0);
        let mut any_changed = false;
        for (r, (&new_r, &old_r)) in rows.iter().zip(committed_rows).enumerate() {
            if new_r != old_r {
                row_diff[r >> 6] |= 1u64 << (r & 63);
                any_changed = true;
            }
        }
        // Marking the whole cone valid up front is sound: the group
        // loop below writes a producer's group words before any
        // consumer (topological order) reads them, and nothing reads
        // other groups.
        for &ci in cone_clusters {
            valid[ci] = epoch;
        }
        let mut out = [0u64; 16];
        // Per-group active-input set for consumer clusters: input slot
        // indices whose diff words are non-zero this group, and those
        // diff words. At most 16 inputs per cluster (asserted by
        // `TableNetwork::new`).
        let mut nact = 0usize;
        let mut act = [0usize; 16];
        let mut dif4 = [[0u64; LANES]; 16];
        let mut g0 = 0usize;
        while g0 < blocks {
            // One cone pass covers a group of up to LANES words (256
            // samples): the per-cluster Signal dispatch, change-mask
            // derivation, and input gathers run once per group instead
            // of once per 64-sample block. A ragged tail (`bw < LANES`
            // when the block count is not a multiple of LANES) flows
            // through the same code with a shorter group. Group `g`
            // values depend only on group `g` inputs, so a pruned
            // probe abandons the remaining groups' cone work too, not
            // just their accumulation. Change propagation: a cone
            // cluster none of whose input words changed holds exactly
            // its committed values and is copied, not re-evaluated —
            // deep in the cone, probe cost tracks the lanes the
            // candidate actually flips.
            let bw = (blocks - g0).min(LANES);
            for &ci in cone_clusters {
                let m = self.network.num_outputs_of(ci);
                let base = self.network.out_base_of(ci);
                let mut dw = [0u64; LANES];
                if ci == cluster {
                    // Root cluster: exact change mask from the cached
                    // committed row indices × the changed-row bitmap.
                    if any_changed {
                        for (w, d) in dw[..bw].iter_mut().enumerate() {
                            let idxs =
                                &self.row_idx[cluster * self.samples + (g0 + w) * 64..][..64];
                            let mut dd = 0u64;
                            for (lane, &ix) in idxs.iter().enumerate() {
                                dd |= (row_diff[(ix >> 6) as usize] >> (ix & 63) & 1) << lane;
                            }
                            *d = dd;
                        }
                    }
                } else {
                    // Exact per-input diff words: only cone-internal
                    // producer outputs can move, and the consumed
                    // output's own diff is sharper than the producer's
                    // any-output `changed` rollup — lanes where only a
                    // sibling output flipped are not re-evaluated.
                    nact = 0;
                    for (i, &sig) in self.network.inputs_of(ci).iter().enumerate() {
                        if let Signal::ClusterOut { idx, out } = sig {
                            if valid[idx] == epoch {
                                let off = (self.network.out_base_of(idx) + out) * blocks + g0;
                                let mut dd = [0u64; LANES];
                                let mut nonzero = 0u64;
                                for (w, d) in dd[..bw].iter_mut().enumerate() {
                                    if changed[idx * LANES + w] != 0 {
                                        *d = overlay[off + w] ^ self.values[off + w];
                                        nonzero |= *d;
                                    }
                                }
                                if nonzero != 0 {
                                    act[nact] = i;
                                    dif4[nact] = dd;
                                    nact += 1;
                                }
                            }
                        }
                    }
                    for (w, d) in dw[..bw].iter_mut().enumerate() {
                        for df in &dif4[..nact] {
                            *d |= df[w];
                        }
                    }
                }
                if dw[..bw].iter().all(|&d| d == 0) {
                    // Whole group unchanged: nothing is copied —
                    // `changed == 0` tells every consumer (and the
                    // accumulation below) to read the committed words
                    // directly, which are bit-identical by definition.
                    tally.cone_hits += bw as u64;
                    changed[ci * LANES..ci * LANES + bw].fill(0);
                    continue;
                }
                if ci == cluster {
                    // Root cluster: no input resolution at all — lane
                    // row indices are the committed ones, so probed
                    // outputs are plain `rows[...]` lookups (sparse
                    // patch or one scatter transpose).
                    for (w, &delta) in dw[..bw].iter().enumerate() {
                        let b = g0 + w;
                        if delta == 0 {
                            tally.cone_hits += 1;
                            changed[ci * LANES + w] = 0;
                            continue;
                        }
                        tally.cone_misses += 1;
                        let cnt = delta.count_ones() as usize;
                        let idxs = &self.row_idx[cluster * self.samples + b * 64..][..64];
                        if cnt * (m + 2) < 448 {
                            tally.lanes += cnt as u64;
                            for (o, ow) in out[..m].iter_mut().enumerate() {
                                *ow = self.values[(base + o) * blocks + b];
                            }
                            let mut lw = delta;
                            while lw != 0 {
                                let lane = lw.trailing_zeros() as usize;
                                lw &= lw - 1;
                                let row = rows[idxs[lane] as usize] as u64;
                                for (o, ow) in out[..m].iter_mut().enumerate() {
                                    *ow = (*ow & !(1u64 << lane)) | ((row >> o & 1) << lane);
                                }
                            }
                        } else {
                            tally.lanes += 64;
                            let mut mm = [0u64; 64];
                            for (lane, &ix) in idxs.iter().enumerate() {
                                mm[lane] = rows[ix as usize] as u64;
                            }
                            transpose64(&mut mm);
                            out[..m].copy_from_slice(&mm[..m]);
                        }
                        let mut ch = 0u64;
                        for (o, &ov) in out[..m].iter().enumerate() {
                            let off = (base + o) * blocks + b;
                            overlay[off] = ov;
                            ch |= ov ^ self.values[off];
                        }
                        changed[ci * LANES + w] = ch;
                    }
                    continue;
                }
                let ins = self.network.inputs_of(ci);
                let use_rows: &[u16] = self.network.table(ci);
                for (w, &delta) in dw[..bw].iter().enumerate() {
                    let b = g0 + w;
                    if delta == 0 {
                        tally.cone_hits += 1;
                        changed[ci * LANES + w] = 0;
                        continue;
                    }
                    tally.cone_misses += 1;
                    let cnt = delta.count_ones() as usize;
                    if cnt * (nact + m + 2) < 448 {
                        tally.lanes += cnt as u64;
                        // Sparse update via cached committed row
                        // indices: a lane's probed index is the
                        // committed one with the active inputs' diff
                        // bits XORed in, so no input gather and no
                        // index rebuild — per lane cost is one table
                        // lookup plus `nact + m` bit ops. Start from
                        // the committed words and patch just the
                        // changed lanes.
                        for (o, ow) in out[..m].iter_mut().enumerate() {
                            *ow = self.values[(base + o) * blocks + b];
                        }
                        let idxs = &self.row_idx[ci * self.samples + b * 64..][..64];
                        let mut lw = delta;
                        while lw != 0 {
                            let lane = lw.trailing_zeros() as usize;
                            lw &= lw - 1;
                            let mut idx = idxs[lane] as usize;
                            for (j, df) in dif4[..nact].iter().enumerate() {
                                idx ^= ((df[w] >> lane & 1) as usize) << act[j];
                            }
                            let row = use_rows[idx] as u64;
                            for (o, ow) in out[..m].iter_mut().enumerate() {
                                *ow = (*ow & !(1u64 << lane)) | ((row >> o & 1) << lane);
                            }
                        }
                    } else {
                        tally.lanes += 64;
                        // Dense block: gather this word's input words
                        // (overlay only where the producer actually
                        // changed) and run the two-transpose full eval.
                        let mut mm = [0u64; 64];
                        for (i, &sig) in ins.iter().enumerate() {
                            mm[i] = match sig {
                                Signal::Pi(p) => self.stimulus[p][b],
                                Signal::ClusterOut { idx, out } => {
                                    let off = (self.network.out_base_of(idx) + out) * blocks + b;
                                    if valid[idx] == epoch && changed[idx * LANES + w] != 0 {
                                        overlay[off]
                                    } else {
                                        self.values[off]
                                    }
                                }
                                Signal::Const(false) => 0,
                                Signal::Const(true) => !0u64,
                            };
                        }
                        transpose64(&mut mm);
                        for v in mm.iter_mut() {
                            *v = use_rows[*v as usize] as u64;
                        }
                        transpose64(&mut mm);
                        out[..m].copy_from_slice(&mm[..m]);
                    }
                    let mut ch = 0u64;
                    for (o, &ov) in out[..m].iter().enumerate() {
                        let off = (base + o) * blocks + b;
                        overlay[off] = ov;
                        ch |= ov ^ self.values[off];
                    }
                    changed[ci * LANES + w] = ch;
                }
            }
            // Accumulate the group's blocks in ascending order —
            // exactly the reference push order: gather the cone POs'
            // patch words, find the lanes whose value differs from
            // golden (inherited out-of-cone mismatches ∪ fresh cone
            // mismatches), and batch-count the rest as correct.
            for b in g0..g0 + bw {
                let mut mism = self.outside_mism[cluster * blocks + b];
                let mut pw = [0u64; 64];
                for (slot, &o) in cone_pos.iter().enumerate() {
                    let Signal::ClusterOut { idx, out } = self.network.po_sigs[o] else {
                        unreachable!("cone POs are cluster-driven by construction");
                    };
                    let off = (self.network.out_base_of(idx) + out) * blocks + b;
                    // An unchanged driver's probed word equals its
                    // committed word, whose golden diff is cached.
                    if changed[idx * LANES + (b - g0)] != 0 {
                        let w = overlay[off];
                        pw[slot] = w;
                        mism |= w ^ self.golden_words[o * blocks + b];
                    } else {
                        pw[slot] = self.values[off];
                        mism |= self.committed_diff[o * blocks + b];
                    }
                }
                let wrong = mism.count_ones() as usize;
                acc.push_correct(64 - wrong);
                if wrong > 0 {
                    let width = cone_pos.len();
                    if wrong * width > 448 {
                        // Dense block: one word-level transpose beats
                        // per-lane bit gathering.
                        let mut m = [0u64; 64];
                        for (slot, &o) in cone_pos.iter().enumerate() {
                            m[o] = pw[slot];
                        }
                        transpose64(&mut m);
                        let mut w = mism;
                        while w != 0 {
                            let lane = w.trailing_zeros() as usize;
                            w &= w - 1;
                            let s = b * 64 + lane;
                            acc.push(self.golden[s], (self.committed_po[s] & keep) | m[lane]);
                        }
                    } else {
                        let mut w = mism;
                        while w != 0 {
                            let lane = w.trailing_zeros() as usize;
                            w &= w - 1;
                            let s = b * 64 + lane;
                            let mut v = self.committed_po[s] & keep;
                            for (slot, &o) in cone_pos.iter().enumerate() {
                                v |= (pw[slot] >> lane & 1) << o;
                            }
                            acc.push(self.golden[s], v);
                        }
                    }
                }
                // Prune at the same per-block granularity as before:
                // only the cone recompute coarsened to groups.
                let b_now = bound();
                if b_now.is_finite() && acc.partial_value(metric, self.samples) > b_now {
                    tally.flush(self.counters.as_deref(), true);
                    return None;
                }
            }
            g0 += bw;
        }
        tally.flush(self.counters.as_deref(), false);
        let report = acc.finish();
        debug_assert_eq!(report.samples, self.samples);
        Some(report)
    }

    /// Pre-incremental reference probe: recomputes the downstream
    /// cone like [`Evaluator::qor_probe`], then accumulates QoR by
    /// resolving **every** primary output per block and extracting
    /// sample values bit by bit — the hot path before the packed
    /// engine. Retained as the differential-testing oracle and the
    /// `qor_bench` baseline; bit-identical to `qor_probe` by
    /// construction (same sample values, same push order, same
    /// accumulator).
    ///
    /// # Panics
    ///
    /// Same contract as [`Evaluator::qor_probe`].
    pub fn qor_probe_reference(
        &self,
        state: &mut ProbeState,
        cluster: usize,
        rows: &[u16],
    ) -> QorReport {
        self.probe_cone(state, cluster, rows);
        let epoch = state.epoch;
        let blocks = self.blocks;
        let mut po_words = std::mem::take(&mut state.po_words);
        let report = self.qor_via(&mut po_words, |sig, b| match sig {
            Signal::ClusterOut { idx, out } if state.valid[idx] == epoch => {
                state.overlay[(self.network.out_base_of(idx) + out) * blocks + b]
            }
            other => self.committed_word(other, b),
        });
        state.po_words = po_words;
        report
    }

    /// Probe with a one-shot internal overlay. Convenience wrapper
    /// around [`Evaluator::qor_probe`] — hot loops should build a
    /// [`ProbeState`] once per thread and reuse it instead.
    pub fn qor_with(&self, cluster: usize, rows: &[u16]) -> QorReport {
        let mut state = self.probe_state();
        self.qor_probe(&mut state, cluster, rows)
    }

    /// Commit a table swap permanently (recomputes the committed
    /// values of the downstream cone and splices the cone POs'
    /// refreshed bits into the packed per-sample cache).
    pub fn commit(&mut self, cluster: usize, rows: Vec<u16>) {
        if let Some(c) = &self.counters {
            c.commits.inc();
        }
        self.network.set_table(cluster, rows);
        let affected: Vec<usize> = self.network.downstream(cluster).to_vec();
        for ci in affected {
            self.recompute_cluster(ci);
        }
        let pos: Vec<usize> = self.network.po_cone(cluster).to_vec();
        let mask = self.network.po_cone_mask(cluster);
        self.patch_committed_po(&pos, mask);
    }

    /// Recompute the committed packed values of the given POs, splice
    /// them into `committed_po` (bits outside `mask` are kept), and
    /// refresh the derived committed-vs-golden mismatch masks.
    fn patch_committed_po(&mut self, pos: &[usize], mask: u64) {
        let keep = !mask;
        let blocks = self.blocks;
        let Evaluator {
            network,
            stimulus,
            values,
            golden_words,
            committed_po,
            committed_diff,
            committed_mism,
            outside_mism,
            ..
        } = self;
        // Group pass (same LANES width as the probe path): each cone
        // PO's signal is dispatched once per group, its words land in
        // `pw[o]`, and the per-word transpose splices follow.
        let mut pw = [[0u64; LANES]; 64];
        let mut g0 = 0usize;
        while g0 < blocks {
            let bw = (blocks - g0).min(LANES);
            for &o in pos {
                match network.po_sigs[o] {
                    Signal::Pi(i) => pw[o][..bw].copy_from_slice(&stimulus[i][g0..g0 + bw]),
                    Signal::ClusterOut { idx, out } => {
                        let off = (network.out_base_of(idx) + out) * blocks + g0;
                        pw[o][..bw].copy_from_slice(&values[off..off + bw]);
                    }
                    Signal::Const(false) => pw[o][..bw].fill(0),
                    Signal::Const(true) => pw[o][..bw].fill(!0u64),
                }
                for (w, &v) in pw[o][..bw].iter().enumerate() {
                    let b = g0 + w;
                    committed_diff[o * blocks + b] = v ^ golden_words[o * blocks + b];
                }
            }
            // (`w` indexes the inner dimension of `pw`; iterating `pw`
            // itself would invert the o/w nesting.)
            #[allow(clippy::needless_range_loop)]
            for w in 0..bw {
                let b = g0 + w;
                let mut m = [0u64; 64];
                for &o in pos {
                    m[o] = pw[o][w];
                }
                transpose64(&mut m);
                for (lane, &v) in m.iter().enumerate() {
                    let s = b * 64 + lane;
                    committed_po[s] = (committed_po[s] & keep) | v;
                }
            }
            g0 += bw;
        }
        // Per-block mismatch rollups: over all POs (for the committed
        // QoR fast path) and over each cluster's *out-of-cone* POs
        // (the mismatches its probes inherit unchanged).
        let num_pos = network.po_sigs.len();
        for b in 0..blocks {
            let mut all = 0u64;
            for o in 0..num_pos {
                all |= committed_diff[o * blocks + b];
            }
            committed_mism[b] = all;
        }
        for ci in 0..network.len() {
            let cone_mask = network.po_cone_mask(ci);
            for b in 0..blocks {
                let mut out = 0u64;
                for o in 0..num_pos {
                    if cone_mask >> o & 1 == 0 {
                        out |= committed_diff[o * blocks + b];
                    }
                }
                outside_mism[ci * blocks + b] = out;
            }
        }
    }

    fn recompute_all(&mut self) {
        for ci in 0..self.network.len() {
            self.recompute_cluster(ci);
        }
    }

    fn recompute_cluster(&mut self, ci: usize) {
        let blocks = self.blocks;
        let samples = self.samples;
        let Evaluator {
            network,
            stimulus,
            values,
            row_idx,
            ..
        } = self;
        let ins = network.inputs_of(ci);
        let k = ins.len();
        let m = network.num_outputs_of(ci);
        let base = network.out_base_of(ci);
        let rows_ci = network.table(ci);
        let mut in4 = [[0u64; LANES]; 64];
        let mut g0 = 0usize;
        while g0 < blocks {
            let bw = (blocks - g0).min(LANES);
            for (i, &sig) in ins.iter().enumerate() {
                match sig {
                    Signal::Pi(p) => in4[i][..bw].copy_from_slice(&stimulus[p][g0..g0 + bw]),
                    Signal::ClusterOut { idx, out } => {
                        let off = (network.out_base_of(idx) + out) * blocks + g0;
                        in4[i][..bw].copy_from_slice(&values[off..off + bw]);
                    }
                    Signal::Const(false) => in4[i][..bw].fill(0),
                    Signal::Const(true) => in4[i][..bw].fill(!0u64),
                }
            }
            for w in 0..bw {
                let b = g0 + w;
                let mut mm = [0u64; 64];
                for (i, iw) in in4[..k].iter().enumerate() {
                    mm[i] = iw[w];
                }
                transpose64(&mut mm);
                // `mm[lane]` is now lane's committed row index: stash
                // it for the probe engine's root-cluster fast path
                // before the lookup consumes it.
                for (lane, &v) in mm.iter().enumerate() {
                    row_idx[ci * samples + b * 64 + lane] = v as u16;
                }
                for v in mm.iter_mut() {
                    *v = rows_ci[*v as usize] as u64;
                }
                transpose64(&mut mm);
                for o in 0..m {
                    values[(base + o) * blocks + b] = mm[o];
                }
            }
            g0 += bw;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_decomp::{decompose, DecompConfig};
    use blasys_logic::builder::{add, input_bus, mark_output_bus};

    fn adder(width: usize) -> Netlist {
        let mut nl = Netlist::new("add");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        nl
    }

    fn small_cfg() -> McConfig {
        McConfig {
            samples: 1024,
            seed: 7,
        }
    }

    #[test]
    fn exact_network_matches_golden() {
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let ev = Evaluator::new(&nl, &part, &small_cfg());
        let r = ev.qor_current();
        assert_eq!(r.avg_relative, 0.0, "exact tables must be error-free");
        assert_eq!(r.bit_error_rate, 0.0);
    }

    #[test]
    fn probing_does_not_mutate() {
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let ev = Evaluator::new(&nl, &part, &small_cfg());
        let zeros = vec![0u16; ev.network().table(0).len()];
        let probe = ev.qor_with(0, &zeros);
        assert!(probe.avg_relative > 0.0, "zeroing a cluster must hurt");
        let after = ev.qor_current();
        assert_eq!(after.avg_relative, 0.0, "probe must leave the model exact");
    }

    #[test]
    fn probe_writes_nothing_to_committed_state() {
        // `qor_probe` takes `&self`, so the type system already forbids
        // writes to the shared model; this guards the invariant
        // behaviorally against a future interior-mutability slip.
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let ev = Evaluator::new(&nl, &part, &small_cfg());
        let committed_values = ev.values.clone();
        let committed_tables: Vec<Vec<u16>> = (0..ev.network().len())
            .map(|c| ev.network().table(c).to_vec())
            .collect();
        let mut st = ev.probe_state();
        for cluster in 0..ev.network().len() {
            let zeros = vec![0u16; ev.network().table(cluster).len()];
            let _ = ev.qor_probe(&mut st, cluster, &zeros);
        }
        assert_eq!(ev.values, committed_values, "committed values untouched");
        for (c, rows) in committed_tables.iter().enumerate() {
            assert_eq!(
                ev.network().table(c),
                &rows[..],
                "committed tables untouched"
            );
        }
    }

    #[test]
    fn reused_probe_state_matches_fresh_state() {
        // One state reused across different clusters, interleaved with
        // commits, must report exactly what a fresh state reports.
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let mut ev = Evaluator::new(&nl, &part, &small_cfg());
        let mut reused = ev.probe_state();
        let n = ev.network().len();
        for cluster in 0..n {
            let zeros = vec![0u16; ev.network().table(cluster).len()];
            let with_reused = ev.qor_probe(&mut reused, cluster, &zeros);
            let with_fresh = ev.qor_with(cluster, &zeros);
            assert_eq!(with_reused, with_fresh, "cluster {cluster}");
        }
        // Commit a change, then keep probing with the same state: it
        // must pick up the new committed baseline.
        let zeros = vec![0u16; ev.network().table(0).len()];
        ev.commit(0, zeros);
        for cluster in 1..n {
            let zeros = vec![0u16; ev.network().table(cluster).len()];
            let with_reused = ev.qor_probe(&mut reused, cluster, &zeros);
            let with_fresh = ev.qor_with(cluster, &zeros);
            assert_eq!(with_reused, with_fresh, "post-commit cluster {cluster}");
        }
    }

    #[test]
    fn concurrent_probes_match_serial_probes() {
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let ev = Evaluator::new(&nl, &part, &small_cfg());
        let n = ev.network().len();
        let serial: Vec<QorReport> = (0..n)
            .map(|c| ev.qor_with(c, &vec![0u16; ev.network().table(c).len()]))
            .collect();
        let mut states: Vec<_> = (0..4).map(|_| ev.probe_state()).collect();
        let threaded = blasys_par::Pool::new(4).run_states(n, &mut states, |st, c| {
            ev.qor_probe(st, c, &vec![0u16; ev.network().table(c).len()])
        });
        assert_eq!(serial, threaded);
    }

    #[test]
    fn commit_applies_permanently() {
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let mut ev = Evaluator::new(&nl, &part, &small_cfg());
        let zeros = vec![0u16; ev.network().table(0).len()];
        let probe = ev.qor_with(0, &zeros);
        ev.commit(0, zeros);
        let now = ev.qor_current();
        assert_eq!(now, probe, "committed QoR must equal the probe");
    }

    #[test]
    fn downstream_sets_are_topological_and_reflexive() {
        let nl = adder(16);
        let part = decompose(&nl, &DecompConfig::default());
        let tn = TableNetwork::new(&nl, &part);
        for i in 0..tn.len() {
            let d = tn.downstream(i);
            assert_eq!(d.first().copied(), Some(i));
            assert!(d.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn transpose64_matches_naive_bit_extraction() {
        // Deterministic pseudo-random matrix.
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = (i as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32 * 7);
        }
        let orig = a;
        transpose64(&mut a);
        for (i, &row) in a.iter().enumerate() {
            for (j, &orow) in orig.iter().enumerate() {
                assert_eq!(row >> j & 1, orow >> i & 1, "bit ({i},{j}) after transpose");
            }
        }
        // Involution: transposing twice restores the matrix.
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn po_cones_cover_cluster_driven_outputs() {
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let tn = TableNetwork::new(&nl, &part);
        for ci in 0..tn.len() {
            let cone = tn.po_cone(ci);
            let mask = tn.po_cone_mask(ci);
            assert_eq!(
                mask,
                cone.iter().fold(0u64, |m, &o| m | 1 << o),
                "mask must pack the cone indices"
            );
            assert!(cone.windows(2).all(|w| w[0] < w[1]), "ascending");
            assert!(cone.iter().all(|&o| o < tn.num_pos()));
        }
        // Every cluster-driven PO is in its producer's own cone.
        let all: u64 = (0..tn.len()).fold(0, |m, ci| m | tn.po_cone_mask(ci));
        assert_ne!(all, 0, "an adder's sum bits are cluster-driven");
    }

    #[test]
    fn packed_probe_matches_scalar_reference() {
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let mut ev = Evaluator::new(&nl, &part, &small_cfg());
        let mut st = ev.probe_state();
        for cluster in 0..ev.network().len() {
            let zeros = vec![0u16; ev.network().table(cluster).len()];
            let packed = ev.qor_probe(&mut st, cluster, &zeros);
            let scalar = ev.qor_probe_reference(&mut st, cluster, &zeros);
            assert_eq!(packed, scalar, "cluster {cluster}");
        }
        assert_eq!(ev.qor_current(), ev.qor_current_reference());
        // Same after a commit perturbs the cached committed values.
        let zeros = vec![0u16; ev.network().table(0).len()];
        ev.commit(0, zeros);
        assert_eq!(ev.qor_current(), ev.qor_current_reference());
        for cluster in 1..ev.network().len() {
            let zeros = vec![0u16; ev.network().table(cluster).len()];
            let packed = ev.qor_probe(&mut st, cluster, &zeros);
            let scalar = ev.qor_probe_reference(&mut st, cluster, &zeros);
            assert_eq!(packed, scalar, "post-commit cluster {cluster}");
        }
    }

    #[test]
    fn bounded_probe_prunes_hopeless_candidates_only() {
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let ev = Evaluator::new(&nl, &part, &small_cfg());
        let mut st = ev.probe_state();
        let zeros = vec![0u16; ev.network().table(0).len()];
        let full = ev.qor_probe(&mut st, 0, &zeros);
        let err = full.avg_relative;
        assert!(err > 0.0);
        // Bound above the final error: never pruned, identical report.
        let kept = ev
            .qor_probe_bounded(&mut st, 0, &zeros, QorMetric::AvgRelative, err * 2.0)
            .expect("bound above final error must not prune");
        assert_eq!(kept, full);
        // Bound at exactly the final error: a tie, never pruned.
        let tied = ev
            .qor_probe_bounded(&mut st, 0, &zeros, QorMetric::AvgRelative, err)
            .expect("ties at the bound must survive for tie-breaking");
        assert_eq!(tied, full);
        // Bound well below: the candidate is abandoned.
        assert!(ev
            .qor_probe_bounded(&mut st, 0, &zeros, QorMetric::AvgRelative, err / 1e6)
            .is_none());
    }

    #[test]
    fn samples_are_rounded_up_to_block_multiples() {
        let nl = adder(6);
        let part = decompose(&nl, &DecompConfig::default());
        let ev = Evaluator::new(
            &nl,
            &part,
            &McConfig {
                samples: 1000,
                seed: 3,
            },
        );
        assert_eq!(ev.samples(), 1024, "1000 requested -> 1024 evaluated");
        // Every surfaced report carries the actual count.
        assert_eq!(ev.qor_current().samples, 1024);
        let zeros = vec![0u16; ev.network().table(0).len()];
        assert_eq!(ev.qor_with(0, &zeros).samples, 1024);
    }

    #[test]
    fn ragged_tail_probes_match_reference() {
        // Sample counts exercising every group shape: exactly one
        // block, a partial group (3 blocks), one full group + tail,
        // and a non-multiple-of-64 request rounded up to 16 blocks.
        for &samples in &[64usize, 192, 320, 448, 1000] {
            let nl = adder(6);
            let part = decompose(&nl, &DecompConfig::default());
            let mut ev = Evaluator::new(&nl, &part, &McConfig { samples, seed: 11 });
            let mut st = ev.probe_state();
            for cluster in 0..ev.network().len() {
                let zeros = vec![0u16; ev.network().table(cluster).len()];
                let packed = ev.qor_probe(&mut st, cluster, &zeros);
                let scalar = ev.qor_probe_reference(&mut st, cluster, &zeros);
                assert_eq!(packed, scalar, "samples {samples} cluster {cluster}");
            }
            // A commit perturbs the cached committed values; the tail
            // groups must stay consistent afterwards.
            let zeros = vec![0u16; ev.network().table(0).len()];
            ev.commit(0, zeros);
            assert_eq!(
                ev.qor_current(),
                ev.qor_current_reference(),
                "samples {samples}"
            );
            for cluster in 1..ev.network().len() {
                let zeros = vec![0u16; ev.network().table(cluster).len()];
                let packed = ev.qor_probe(&mut st, cluster, &zeros);
                let scalar = ev.qor_probe_reference(&mut st, cluster, &zeros);
                assert_eq!(
                    packed, scalar,
                    "post-commit samples {samples} cluster {cluster}"
                );
            }
        }
    }

    #[test]
    fn soa_offsets_are_consistent() {
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let tn = TableNetwork::new(&nl, &part);
        let mut total = 0;
        for ci in 0..tn.len() {
            assert_eq!(tn.out_base_of(ci), total, "output slots are prefix sums");
            total += tn.num_outputs_of(ci);
            assert!(tn.num_outputs_of(ci) <= 16, "rows pack into u16");
            assert!(!tn.table(ci).is_empty());
            assert_eq!(
                tn.table(ci).len(),
                1 << tn.inputs_of(ci).len(),
                "2^k rows per cluster"
            );
        }
        assert_eq!(tn.total_outputs(), total);
    }

    #[test]
    fn evaluator_is_deterministic_per_seed() {
        let nl = adder(6);
        let part = decompose(&nl, &DecompConfig::default());
        let e1 = Evaluator::new(&nl, &part, &small_cfg());
        let e2 = Evaluator::new(&nl, &part, &small_cfg());
        let zeros = vec![0u16; e1.network().table(0).len()];
        assert_eq!(e1.qor_with(0, &zeros), e2.qor_with(0, &zeros));
    }
}
