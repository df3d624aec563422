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
//!    *committed* network. A probe recomputes only the cone POs'
//!    words and splices them into the cached values with a mask + OR
//!    patch — untouched outputs are never revisited.
//! 2. **64×64 bit-matrix transpose** — [`transpose64`] converts a
//!    block of 64 samples from per-output words to per-sample values
//!    in `O(64·log 64)` word operations, replacing the scalar
//!    per-lane/per-output bit extraction the accumulator used to do.
//! 3. **Bound-pruned probes** — [`Evaluator::qor_probe_bounded`]
//!    checks a lower bound on the candidate's final error after every
//!    block and abandons the probe the moment the candidate provably
//!    cannot beat a caller-supplied bound. The bound is the
//!    accumulator's monotone partial value
//!    ([`QorAccumulator::partial_value`]) plus the *committed suffix*:
//!    the committed network's error on the not-yet-accumulated lanes
//!    the candidate cannot change (the root cluster's committed row is
//!    kept there, so the whole cone is). Without the suffix a loser
//!    carries the committed design's error like everyone else and is
//!    caught only near the end. Block order is fixed, so pruning never
//!    changes which candidate wins — only how much losing candidates
//!    cost.
//!
//! Two storage-level layers keep the per-block work memory-bound
//! rather than dispatch-bound:
//!
//! * **Multi-word lanes** — the probe engine processes groups of
//!   `LANES` (4) ×u64 blocks = 256 samples per cone pass: per-cluster
//!   `Signal` dispatch, change-mask derivation, and input gathers are
//!   paid once per group and amortize over four words, with a ragged
//!   tail for block counts that are not a multiple of four.
//! * **SoA layout** — the [`TableNetwork`] stores inputs, tables,
//!   cone order, and cone PO lists in flat CSR arrays, and committed
//!   values / probe overlays live in one flat `Vec<u64>` addressed by
//!   global output slot × block, so cone propagation walks contiguous
//!   memory instead of chasing `Vec<Vec<u64>>` indirection.
//!
//! # One cone pass, two consumers
//!
//! Probe and commit walk the candidate's downstream cone through the
//! same change-propagating group pass (`cone_group`): the root's
//! exact change mask comes from its changed-row bitmap and cached row
//! indices, every consumer sees only its inputs' non-zero diff words,
//! and a lane is re-simulated only where some input moved (sparsely
//! by XOR-ing diff bits into the cached row index, or densely by the
//! two-transpose lookup). After each group the *probe* accumulates
//! the cone POs' words into its [`QorReport`] and checks its prune
//! bound; the *commit* splices the words whose change mask is non-zero
//! into the committed values, writes the new row index of every
//! consumer lane whose input delta was non-zero (the root's inputs do
//! not move, so neither do its indices), and re-derives the committed
//! PO cache — `committed_po`, the per-PO golden diffs, the mismatch
//! rollups and the per-block error-term sums — only on blocks where a
//! cone PO's driver word changed. Commit cost therefore tracks the
//! lanes the winner flips, like a probe's; only [`Evaluator::new`]
//! simulates every cluster on every lane.
//!
//! # Cross-step reuse
//!
//! Algorithm 1 probes every remaining candidate again at every step,
//! yet one commit moves only a fraction of the lanes. The exploration
//! sweeps and annealing therefore keep a lane cache (`ProbeCache`, one per
//! exploration or beam branch) with one entry per window, for the
//! candidate rows that window was last probed with. It covers the
//! root-changed lanes (where the candidate row differs from the
//! committed row) of the blocks its probes evaluated. Per block it
//! keeps which of those lanes are still valid, the packed output the
//! probe pushed on each lane that differs from golden (in 16-bit
//! chunks; a lane matching golden needs no value), the error terms of
//! those lanes, and for each lane on which the probe moved the inputs
//! of some position of `downstream(d)` a *touched mask* of those
//! positions (16 bits, positions from 15 up sharing bit 15, which is
//! conservative). A lane that touched no position and matches golden
//! costs only its bits in the block's masks.
//!
//! A probe re-simulates only the root-changed lanes that are not
//! cached: the root's change words are masked before the cone pass,
//! and a group with nothing left skips the cone walk. The block loop
//! then settles only these fresh lanes: it stores their values in the
//! rebuilt entry and bounds the final error from below by their exact
//! terms plus the known ones — the committed terms off the
//! root-changed lanes and the cached lanes' terms, all counted from
//! block 0. A pruned probe's report is never needed, so it pushes
//! nothing into a `QorAccumulator`; a probe that survives every block
//! replays the accumulation in sample order from the rebuilt entry and
//! the committed outputs, which are the same values in the same order
//! as without the cache, so its report is bit-identical. The entry is
//! rebuilt for every block the probe evaluates; a pruned probe keeps
//! its older entries past the prune point.
//!
//! Committing window `w` ([`Evaluator::commit`] through the sweeps'
//! reusing commit) invalidates:
//!
//! * every cached lane on which any committed cluster value changed
//!   (the OR of the commit's per-cluster change masks);
//! * for every candidate `d ≠ w` whose cone holds `w`, the lanes whose
//!   touched mask has `w`'s position;
//! * `w`'s own entry, since its next candidate is another variant.
//!
//! Tracking committed-value changes alone is **unsound**: the commit
//! also swaps `w`'s table. On a lane where `d`'s probe moved `w`'s
//! inputs, `w` looks up a different row than the committed lane does,
//! and that row may have changed even though no committed value moved.
//! Every other cached lane is a function of unchanged committed values
//! and unchanged tables, so it still holds.
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

use std::sync::{Arc, Mutex, PoisonError};

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
    pub fn set_table(&mut self, cluster: usize, rows: &[u16]) {
        let slice = &mut self.rows[self.row_off[cluster]..self.row_off[cluster + 1]];
        assert_eq!(
            rows.len(),
            slice.len(),
            "table shape must match the cluster window"
        );
        slice.copy_from_slice(rows);
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
    /// builds; a violation is a constructor or `set_table` bug, so this
    /// panics rather than returning.
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
/// the then-current committed state). [`Evaluator::commit`] runs its
/// cone pass in one as well, so the evaluator itself keeps no pass
/// scratch; any state built for the same network shape will do.
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
    /// `root_changed[block]` = lanes where the probed cluster's
    /// candidate row differs from its committed row: the only lanes
    /// whose outputs can move. Derived at most once per probe and
    /// block, on demand: the group loop extends it group by group, and
    /// building `suffix` extends it to every block.
    root_changed: Vec<u64>,
    /// `suffix[block]` = sum, over blocks `≥ block`, of the committed
    /// error terms on lanes outside `root_changed` (`blocks + 1`
    /// entries, the last zero). Built lazily, once per probe, when the
    /// prune bound first turns finite.
    suffix: Vec<f64>,
    /// Commit pass only: `moved[ci * LANES + w]` = lanes of word `w`
    /// of the current group where some input of consumer `ci` changed,
    /// i.e. where its row index moves.
    moved: Vec<u64>,
    /// Commit pass only: `next_idx[(ci * LANES + w) * 64 + lane]` =
    /// consumer `ci`'s new row index on a lane of `moved`.
    next_idx: Vec<u16>,
    /// Reusing probes only: `touch[w]` = the lanes of word `w` of the
    /// current group on which the probe moved the inputs of some cone
    /// position, and `lane_touch[w * 64 + lane]` = those positions
    /// (bit `p` for `downstream(cluster)[p]`, positions from 15 up
    /// sharing bit 15).
    touch: [u64; LANES],
    lane_touch: [u16; LANES * 64],
    /// Reusing probes only: the lane cache entry being rebuilt.
    next_blocks: Vec<CachedBlock>,
    next_payload: Vec<u16>,
    /// Commit pass only: `delta[block]` = lanes where the last commit
    /// changed some committed cluster value.
    delta: Vec<u64>,
}

/// A 64-bit FNV-1a fingerprint of a candidate table, so a lane cache
/// entry can tell the rows it was probed with from others without
/// keeping a copy of them.
fn rows_key(rows: &[u16]) -> u64 {
    rows.iter().fold(0xCBF2_9CE4_8422_2325, |h, &r| {
        (h ^ u64::from(r)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The value of `chunks` little-endian 16-bit chunks at `payload[at..]`.
#[inline]
fn chunk_value(payload: &[u16], at: usize, chunks: usize) -> u64 {
    if chunks == 1 {
        return u64::from(payload[at]);
    }
    payload[at..at + chunks]
        .iter()
        .rev()
        .fold(0, |v, &c| v << 16 | u64::from(c))
}

/// Append `v` to `payload` as `chunks` little-endian 16-bit chunks.
#[inline]
fn push_value(payload: &mut Vec<u16>, v: u64, chunks: usize) {
    for k in 0..chunks {
        payload.push((v >> (16 * k)) as u16);
    }
}

/// One cached block of a [`LaneCache`] entry.
#[derive(Debug, Clone, Copy, Default)]
struct CachedBlock {
    /// Root-changed lanes whose cached output still holds.
    valid: u64,
    /// Lanes whose cached packed output differs from golden: only
    /// these carry a stored value (a lane matching golden needs none).
    wrong: u64,
    /// The lanes on which the probe moved the inputs of some cone
    /// position: these carry a touched mask.
    touched: u64,
    /// The entry metric's error terms summed over `valid & wrong`: what
    /// the cached lanes add to the prune bound's suffix.
    terms: f64,
}

impl CachedBlock {
    /// Payload length of the block, in 16-bit words.
    fn payload_len(&self, chunks: usize) -> usize {
        self.wrong.count_ones() as usize * chunks + self.touched.count_ones() as usize
    }

    /// Offset, within the block's payload, of `lane`'s value (a lane of
    /// `wrong`).
    fn value_at(&self, lane: usize, chunks: usize) -> usize {
        (self.wrong & ((1u64 << lane) - 1)).count_ones() as usize * chunks
    }

    /// Offset, within the block's payload, of `lane`'s touched mask (a
    /// lane of `touched`).
    fn touch_at(&self, lane: usize, chunks: usize) -> usize {
        self.wrong.count_ones() as usize * chunks
            + (self.touched & ((1u64 << lane) - 1)).count_ones() as usize
    }
}

/// One candidate's entry of a [`ProbeCache`]: what its last probes saw
/// on the root-changed lanes of the first `blocks.len()` blocks (the
/// blocks they evaluated).
///
/// `payload` holds, block by block, the packed outputs of the `wrong`
/// lanes in lane order, each as `chunks` little-endian 16-bit chunks
/// ([`Evaluator::value_chunks`]; a 16-bit output costs two bytes per
/// erring lane), then the touched mask of each `touched` lane in lane
/// order: bit `p` set ⇔ the probe moved the inputs of cone position
/// `p` on that lane, positions from 15 up sharing bit 15. An entry is
/// only read during a probe; the probe writes its rebuilt blocks to
/// scratch and [`LaneCache::finish`] installs them.
#[derive(Debug, Clone, Default)]
struct LaneCache {
    /// Fingerprint of the candidate rows of the last probe
    /// ([`rows_key`]) and the metric its block terms are in; `None`
    /// when nothing is cached.
    key: Option<(u64, QorMetric)>,
    blocks: Vec<CachedBlock>,
    payload: Vec<u16>,
}

impl LaneCache {
    /// Drop everything cached.
    fn clear(&mut self) {
        *self = LaneCache::default();
    }

    /// Get ready for a probe of `rows` under `metric`: an entry cached
    /// for other rows or another metric (or none) starts empty.
    fn start(&mut self, rows: &[u16], metric: QorMetric) {
        let key = Some((rows_key(rows), metric));
        if self.key != key {
            self.clear();
            self.key = key;
        }
    }

    /// Drop the lanes of `delta` and, when `swapped` is a cone
    /// position's touched-mask bit, the lanes on which the probe moved
    /// that position's inputs; re-sum the terms of a block that loses
    /// an erring lane.
    fn invalidate(&mut self, golden: &[u64], chunks: usize, delta: &[u64], swapped: Option<u16>) {
        let Some((_, metric)) = self.key else { return };
        let mut off = 0usize;
        for (b, c) in self.blocks.iter_mut().enumerate() {
            let payload = &self.payload[off..off + c.payload_len(chunks)];
            let mut valid = c.valid & !delta[b];
            if let Some(mask) = swapped {
                let mut lw = valid & c.touched;
                while lw != 0 {
                    let lane = lw.trailing_zeros() as usize;
                    lw &= lw - 1;
                    if payload[c.touch_at(lane, chunks)] & mask != 0 {
                        valid &= !(1u64 << lane);
                    }
                }
            }
            if (c.valid & !valid) & c.wrong != 0 {
                let mut terms = 0.0f64;
                let mut lw = valid & c.wrong;
                while lw != 0 {
                    let lane = lw.trailing_zeros() as usize;
                    lw &= lw - 1;
                    let v = chunk_value(payload, c.value_at(lane, chunks), chunks);
                    terms += metric.sample_term(golden[b * 64 + lane], v);
                }
                c.terms = terms;
            }
            c.valid = valid;
            off += c.payload_len(chunks);
        }
    }

    /// Block `b`, or an empty block past the covered ones.
    fn block(&self, b: usize) -> CachedBlock {
        self.blocks.get(b).copied().unwrap_or_default()
    }

    /// Whether some valid cached lane carries an error term.
    fn has_errors(&self) -> bool {
        self.blocks.iter().any(|c| c.valid & c.wrong != 0)
    }

    /// Install a probe's rebuilt blocks `..new_blocks.len()` (payload in
    /// `new_payload`), keeping the older blocks past them, whose payload
    /// starts at `payload[tail..]`.
    fn finish(
        &mut self,
        new_blocks: &mut Vec<CachedBlock>,
        new_payload: &mut Vec<u16>,
        tail: usize,
    ) {
        if let Some(old) = self.blocks.get(new_blocks.len()..) {
            new_blocks.extend_from_slice(old);
            new_payload.extend_from_slice(&self.payload[tail..]);
        }
        // Copied rather than swapped, so every entry keeps buffers
        // sized by its own payload, not by the largest one.
        self.blocks.clear();
        self.blocks.reserve_exact(new_blocks.len());
        self.blocks.extend_from_slice(new_blocks);
        self.payload.clear();
        self.payload.reserve_exact(new_payload.len());
        self.payload.extend_from_slice(new_payload);
    }
}

/// Cross-step lane cache of one exploration (or one beam branch): one
/// [`LaneCache`] entry per window, for the candidate rows that window
/// was last probed with. Probes through
/// [`Evaluator::qor_probe_reusing`] read and refresh it, and
/// [`Evaluator::commit_reusing`] invalidates it (see the [module
/// docs](self#cross-step-reuse)). Every entry sits behind its own
/// `Mutex`: in a candidate sweep each entry is locked by its own task
/// only, so the locks are never contended.
#[derive(Debug)]
pub(crate) struct ProbeCache {
    slots: Vec<Mutex<LaneCache>>,
}

impl Clone for ProbeCache {
    fn clone(&self) -> ProbeCache {
        ProbeCache {
            slots: self
                .slots
                .iter()
                .map(|s| Mutex::new(s.lock().unwrap_or_else(PoisonError::into_inner).clone()))
                .collect(),
        }
    }
}

impl ProbeCache {
    /// An empty cache for `evaluator`'s windows.
    pub(crate) fn new(evaluator: &Evaluator) -> ProbeCache {
        ProbeCache {
            slots: (0..evaluator.network.len())
                .map(|_| Mutex::new(LaneCache::default()))
                .collect(),
        }
    }

    /// Invalidate after committing window `w`, whose commit changed
    /// committed values on the lanes of `delta`.
    fn invalidate(&mut self, ev: &Evaluator, w: usize, delta: &[u64]) {
        let chunks = ev.value_chunks();
        for (d, slot) in self.slots.iter_mut().enumerate() {
            let entry = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            if d == w {
                entry.clear();
                continue;
            }
            // `w`'s table changed: on a lane where `d`'s probe moved
            // `w`'s inputs, `w` reads a row that may have changed even
            // where no committed value did.
            let swapped = ev
                .network
                .downstream(d)
                .binary_search(&w)
                .ok()
                .map(|p| 1u16 << p.min(15));
            entry.invalidate(&ev.golden, chunks, delta, swapped);
        }
    }
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
    /// `outside_mism[outside_class[cluster] * blocks + block]` = OR of
    /// `committed_diff` over the POs *outside* the cluster's cone: the
    /// mismatching lanes a probe of that cluster inherits and cannot
    /// affect. Stored once per distinct cone mask (`outside_masks`),
    /// since clusters sharing a cone mask share these words.
    outside_mism: Vec<u64>,
    /// Index of each cluster's cone mask in `outside_masks`.
    outside_class: Vec<usize>,
    /// The distinct PO-cone masks, in first-seen cluster order.
    outside_masks: Vec<u64>,
    /// `committed_terms[block][metric as usize]` = sum of the committed
    /// network's per-sample error terms ([`QorMetric::sample_term`])
    /// over that block, in lane order. Lanes a probe cannot change keep
    /// exactly these terms, which is what the committed-suffix lower
    /// bound of [`Evaluator::qor_probe_bounded`] sums.
    committed_terms: Vec<[f64; 3]>,
    /// `row_idx[cluster * samples + sample]` = the table row index
    /// cluster `cluster` looks up for `sample` under the *committed*
    /// input values (a by-product of the first transpose at
    /// construction, kept current by every commit's cone pass). A
    /// probe's root cluster reads only committed
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
    blocks: u64,
    cone_hits: u64,
    cone_misses: u64,
    lanes: u64,
    reused: u64,
}

impl ProbeTally {
    #[inline]
    fn flush(self, counters: Option<&QorCounters>, pruned: bool) {
        let Some(c) = counters else { return };
        c.probes.inc();
        if pruned {
            c.probes_pruned.inc();
        }
        c.blocks.add(self.blocks);
        c.cone_hits.add(self.cone_hits);
        c.cone_misses.add(self.cone_misses);
        c.lanes.add(self.lanes);
        c.lanes_reused.add(self.reused);
    }

    /// Flush a commit's cone pass: only its re-simulated lanes count,
    /// under their own counter, so the probe counters keep meaning
    /// probe work.
    #[inline]
    fn flush_commit(self, counters: Option<&QorCounters>) {
        let Some(c) = counters else { return };
        c.commits.inc();
        c.commit_lanes.add(self.lanes);
    }
}

/// Whether the committed-suffix lower bound proves a probe loses:
/// `partial + rest` (in [`QorMetric::sample_term`] units) exceeds
/// `bound` by more than a float-reordering margin. The lower bound sums
/// the same non-negative terms as the finished probe in another order,
/// so the two can differ by rounding; the margin (`1e-9` of the larger
/// of `bound` and the committed error) dwarfs that, so a candidate
/// whose final error is at most `bound` is never pruned by it.
fn suffix_prunes(
    acc: &QorAccumulator,
    metric: QorMetric,
    samples: usize,
    rest: f64,
    bound: f64,
    committed_err: f64,
) -> bool {
    let margin = 1e-9 * bound.max(committed_err);
    acc.partial_value_with(metric, samples, rest) > bound + margin
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
        let mut outside_masks: Vec<u64> = Vec::new();
        let outside_class: Vec<usize> = (0..num_clusters)
            .map(|ci| {
                let mask = network.po_cone_mask(ci);
                match outside_masks.iter().position(|&m| m == mask) {
                    Some(k) => k,
                    None => {
                        outside_masks.push(mask);
                        outside_masks.len() - 1
                    }
                }
            })
            .collect();
        let mut ev = Evaluator {
            values: vec![0u64; network.total_outputs() * blocks],
            network,
            stimulus: Arc::new(stimulus),
            golden: Arc::new(golden),
            golden_words: Arc::new(golden_words),
            committed_po: vec![0u64; samples],
            committed_diff: vec![0u64; num_pos * blocks],
            committed_mism: vec![0u64; blocks],
            outside_mism: vec![0u64; outside_masks.len() * blocks],
            outside_class,
            outside_masks,
            committed_terms: vec![[0.0; 3]; blocks],
            row_idx: vec![0u16; num_clusters * samples],
            blocks,
            samples,
            output_bits: num_pos,
            counters: None,
        };
        ev.recompute_all();
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
            root_changed: vec![0; self.blocks],
            suffix: vec![0.0; self.blocks + 1],
            moved: Vec::new(),
            next_idx: Vec::new(),
            touch: [0; LANES],
            next_blocks: Vec::new(),
            lane_touch: [0; LANES * 64],
            next_payload: Vec::new(),
            delta: vec![0; self.blocks],
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
    /// returns `None` — as soon as a lower bound on the candidate's
    /// final error over `metric` exceeds `bound` (checked before the
    /// first 64-sample block and after every block, in fixed block
    /// order).
    ///
    /// Two lower bounds are checked. The accumulator's partial value
    /// assumes every remaining sample is error-free. The committed
    /// suffix adds what the remaining samples provably contribute: on
    /// a lane where the candidate's row for the probed cluster equals
    /// the committed row, the probe outputs exactly the committed
    /// values, so that lane's error term is the committed one; every
    /// other lane's term is at least zero. The suffix is summed in a
    /// different order than the finished probe, so it prunes only past
    /// a float-reordering margin of `1e-9 × max(bound, committed
    /// error)`. From an error-free committed state the suffix is zero
    /// and is skipped.
    ///
    /// Pruning is sound for winner selection: a pruned candidate's
    /// final value is strictly above `bound`; as long as `bound` is at
    /// least the eventual best candidate's value, no pruned candidate
    /// could have won or tied. Ties at exactly `bound` are never pruned
    /// (the comparisons are strict), so index-based tie-breaks are
    /// preserved and greedy trajectories stay bit-identical with
    /// pruning on or off, at any worker count.
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
        self.probe(state, None, cluster, rows, metric, || bound)
    }

    /// Like [`Evaluator::qor_probe_bounded`], reusing what earlier
    /// probes of the same candidate left in `cache` (see the [module
    /// docs](self#cross-step-reuse)): root-changed lanes still valid
    /// in `cluster`'s entry take their packed output from the cache
    /// instead of the cone pass, their exact error terms join the
    /// lower bound from the first block on, and the entry is refreshed
    /// for every block the probe evaluates. The bound is checked after
    /// every block against the exact terms known so far; only a probe
    /// that is never pruned accumulates its report, in sample order.
    /// The report is bit-identical to [`Evaluator::qor_probe_bounded`]'s,
    /// and like it the probe prunes only a candidate whose final error
    /// exceeds the bound.
    ///
    /// The bound is re-read from `bound` before every block's prune
    /// check. In a concurrent candidate sweep the caller can hand every
    /// worker a view of a shared monotonically-decreasing bound (e.g.
    /// an atomic lowered as candidates complete), so in-flight probes
    /// benefit from tightening they could not have seen at launch.
    /// Soundness is unaffected as long as every value the closure
    /// returns is at least the eventual best candidate's final error
    /// (for beam search: the error of the last child it keeps). The
    /// committed suffix is built once, the first time the closure
    /// returns a finite value.
    ///
    /// # Panics
    ///
    /// Same contract as [`Evaluator::qor_probe`]; additionally panics if
    /// `cache` was built for a different evaluator shape.
    pub(crate) fn qor_probe_reusing(
        &self,
        state: &mut ProbeState,
        cache: &ProbeCache,
        cluster: usize,
        rows: &[u16],
        metric: QorMetric,
        bound: impl Fn() -> f64,
    ) -> Option<QorReport> {
        assert_eq!(
            cache.slots.len(),
            self.network.len(),
            "probe cache must be built for this evaluator"
        );
        let mut entry = cache.slots[cluster]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.probe(state, Some(&mut entry), cluster, rows, metric, bound)
    }

    /// The bounded probe behind [`Evaluator::qor_probe_bounded`]
    /// (`cache == None`) and [`Evaluator::qor_probe_reusing`].
    fn probe(
        &self,
        state: &mut ProbeState,
        mut cache: Option<&mut LaneCache>,
        cluster: usize,
        rows: &[u16],
        metric: QorMetric,
        bound: impl Fn() -> f64,
    ) -> Option<QorReport> {
        self.cone_begin(state, cluster, rows);
        let blocks = self.blocks;
        let chunks = self.value_chunks();
        // The entry is only read until the probe ends; its rebuilt
        // blocks collect in `state.next_blocks` / `state.next_payload`.
        if let Some(entry) = cache.as_deref_mut() {
            entry.start(rows, metric);
        }
        let entry = cache.as_deref();
        state.next_blocks.clear();
        state.next_payload.clear();
        // Counter tallies stay in locals until the probe resolves; the
        // zero-observability path pays only the final `None` check.
        let mut tally = ProbeTally::default();
        let cone_pos = self.network.po_cone(cluster);
        let keep = !self.network.po_cone_mask(cluster);
        let outside = &self.outside_mism[self.outside_class[cluster] * blocks..][..blocks];
        let mut acc = QorAccumulator::new(self.output_bits);
        // Suffix lower bound: lanes outside `root_changed` keep their
        // committed outputs, hence their committed error terms, and
        // valid cached lanes have known exact terms, so
        // `partial + suffix[b + 1]` bounds the final error from below
        // after block `b`. Built the first time the bound is finite;
        // from an error-free committed state with no erring cached
        // lane it is all zero and is never built.
        let use_suffix =
            self.committed_mism.iter().any(|&m| m != 0) || entry.is_some_and(LaneCache::has_errors);
        let mut committed_err: Option<f64> = None;
        let b_now = bound();
        if use_suffix && b_now.is_finite() {
            let committed = self.committed_suffix(
                cluster,
                metric,
                entry,
                &state.row_diff,
                &mut state.root_changed,
                &mut state.suffix,
            );
            committed_err = Some(committed);
            if suffix_prunes(
                &acc,
                metric,
                self.samples,
                state.suffix[0],
                b_now,
                committed,
            ) {
                tally.flush(self.counters.as_deref(), true);
                return None;
            }
        }
        // Offset of the entry's block `b` in its payload.
        let mut poff = 0usize;
        // With an entry, the block loop only settles the fresh lanes:
        // their exact terms (`fresh_sum`) plus the known ones
        // (`suffix[0]`: committed lanes outside `root_changed` and
        // valid cached lanes) bound the final error from below, and a
        // pruned probe's report is never needed. A probe that survives
        // replays the accumulation in sample order from the rebuilt
        // entry afterwards.
        let mut fresh_sum = 0.0f64;
        let mut pruned = false;
        let mut g0 = 0usize;
        'groups: while g0 < blocks {
            // Group `g` values depend only on group `g` inputs, so a
            // pruned probe abandons the remaining groups' cone work
            // too, not just their accumulation.
            let bw = (blocks - g0).min(LANES);
            let mut skip = [0u64; LANES];
            if let Some(e) = entry {
                for (w, s) in skip[..bw].iter_mut().enumerate() {
                    *s = e.block(g0 + w).valid;
                }
            }
            let skip = entry.map(|_| &skip[..bw]);
            self.cone_group::<false>(state, cluster, rows, g0, bw, skip, &mut tally);
            let ProbeState {
                overlay,
                changed,
                row_diff,
                root_changed,
                suffix,
                touch,
                lane_touch,
                next_blocks,
                next_payload,
                ..
            } = &mut *state;
            // Walk the group's blocks in ascending order and find the
            // lanes whose value differs from golden (committed
            // mismatches off the root-changed lanes ∪ erring cached
            // lanes ∪ fresh lanes whose probed cone POs or inherited
            // outputs err). Without an entry, push those in exactly the
            // reference order and batch-count the rest as correct.
            for b in g0..g0 + bw {
                let w = b - g0;
                let rc = root_changed[b];
                let old = entry.map(|e| e.block(b)).unwrap_or_default();
                let cached = old.valid;
                debug_assert_eq!(cached & !rc, 0, "cached lanes are root-changed");
                // Lanes outside `rc` keep their committed outputs, and
                // cached lanes take theirs from the cache; only fresh
                // lanes need the cone POs' probed words.
                let fresh = rc & !cached;
                let mut mism = (self.committed_mism[b] & !rc) | (cached & old.wrong);
                let mut pw = [0u64; 64];
                if fresh != 0 {
                    let mut fresh_mism = outside[b];
                    for (slot, &o) in cone_pos.iter().enumerate() {
                        let Signal::ClusterOut { idx, out } = self.network.po_sigs[o] else {
                            unreachable!("cone POs are cluster-driven by construction");
                        };
                        let off = (self.network.out_base_of(idx) + out) * blocks + b;
                        // An unchanged driver's probed word equals its
                        // committed word, whose golden diff is cached.
                        if changed[idx * LANES + w] != 0 {
                            let wd = overlay[off];
                            pw[slot] = wd;
                            fresh_mism |= wd ^ self.golden_words[o * blocks + b];
                        } else {
                            pw[slot] = self.values[off];
                            fresh_mism |= self.committed_diff[o * blocks + b];
                        }
                    }
                    mism |= fresh_mism & fresh;
                }
                tally.blocks += 1;
                tally.reused += u64::from(cached.count_ones());
                // The lanes whose probed value this block needs: every
                // erring one without an entry, only the fresh erring
                // ones with it.
                let need = if entry.is_some() { mism & fresh } else { mism };
                let width = cone_pos.len();
                // Dense block: one word-level transpose beats per-lane
                // bit gathering.
                let dense = (mism & fresh).count_ones() as usize * width > 448;
                let mut m = [0u64; 64];
                if dense {
                    for (slot, &o) in cone_pos.iter().enumerate() {
                        m[o] = pw[slot];
                    }
                    transpose64(&mut m);
                }
                let probed = |lane: usize| -> u64 {
                    let s = b * 64 + lane;
                    let bit = 1u64 << lane;
                    if rc & bit == 0 {
                        self.committed_po[s]
                    } else if dense {
                        (self.committed_po[s] & keep) | m[lane]
                    } else {
                        let mut v = self.committed_po[s] & keep;
                        for (slot, &o) in cone_pos.iter().enumerate() {
                            v |= (pw[slot] >> lane & 1) << o;
                        }
                        v
                    }
                };
                let Some(e) = entry else {
                    acc.push_correct(64 - mism.count_ones() as usize);
                    let mut lw = need;
                    while lw != 0 {
                        let lane = lw.trailing_zeros() as usize;
                        lw &= lw - 1;
                        acc.push(self.golden[b * 64 + lane], probed(lane));
                    }
                    // Prune at the same per-block granularity as
                    // before: only the cone recompute coarsened to
                    // groups.
                    let b_now = bound();
                    if b_now.is_finite() {
                        let mut lost = acc.partial_value(metric, self.samples) > b_now;
                        if !lost && use_suffix {
                            let committed = *committed_err.get_or_insert_with(|| {
                                self.committed_suffix(
                                    cluster,
                                    metric,
                                    None,
                                    row_diff,
                                    root_changed,
                                    suffix,
                                )
                            });
                            lost = suffix_prunes(
                                &acc,
                                metric,
                                self.samples,
                                suffix[b + 1],
                                b_now,
                                committed,
                            );
                        }
                        if lost {
                            pruned = true;
                            break 'groups;
                        }
                    }
                    continue;
                };
                // Rebuild the block: the erring root-changed lanes'
                // values, then the touched lanes' masks, each in lane
                // order — cached lanes keep theirs (the old payload
                // verbatim when no lane is fresh and none was dropped),
                // fresh lanes bring the cone pass's, and their terms.
                let old_payload = &e.payload[poff..poff + old.payload_len(chunks)];
                let kept = old.touched & cached;
                let nb = CachedBlock {
                    valid: rc,
                    wrong: mism & rc,
                    touched: kept | (touch[w] & fresh),
                    terms: old.terms,
                };
                let mut block_fresh = 0.0f64;
                if fresh == 0 && (old.wrong | old.touched) & !cached == 0 {
                    next_payload.extend_from_slice(old_payload);
                } else {
                    let mut lw = nb.wrong;
                    while lw != 0 {
                        let lane = lw.trailing_zeros() as usize;
                        lw &= lw - 1;
                        if cached >> lane & 1 == 1 {
                            let at = old.value_at(lane, chunks);
                            next_payload.extend_from_slice(&old_payload[at..at + chunks]);
                        } else {
                            let v = probed(lane);
                            block_fresh += metric.sample_term(self.golden[b * 64 + lane], v);
                            push_value(next_payload, v, chunks);
                        }
                    }
                    let mut lw = nb.touched;
                    while lw != 0 {
                        let lane = lw.trailing_zeros() as usize;
                        lw &= lw - 1;
                        next_payload.push(if cached >> lane & 1 == 1 {
                            old_payload[old.touch_at(lane, chunks)]
                        } else {
                            lane_touch[w * 64 + lane]
                        });
                    }
                }
                fresh_sum += block_fresh;
                next_blocks.push(CachedBlock {
                    terms: old.terms + block_fresh,
                    ..nb
                });
                poff += old.payload_len(chunks);
                let b_now = bound();
                if b_now.is_finite() {
                    let committed = *committed_err.get_or_insert_with(|| {
                        self.committed_suffix(
                            cluster,
                            metric,
                            entry,
                            row_diff,
                            root_changed,
                            suffix,
                        )
                    });
                    if suffix_prunes(
                        &acc,
                        metric,
                        self.samples,
                        suffix[0] + fresh_sum,
                        b_now,
                        committed,
                    ) {
                        pruned = true;
                        break 'groups;
                    }
                }
            }
            g0 += bw;
        }
        if let Some(e) = cache {
            if !pruned {
                // Replay the survivor's accumulation in sample order:
                // committed outputs off the root-changed lanes, the
                // rebuilt entry's values on them.
                let mut at = 0usize;
                for (b, nb) in state.next_blocks.iter().enumerate() {
                    let payload = &state.next_payload[at..at + nb.payload_len(chunks)];
                    let mism = (self.committed_mism[b] & !nb.valid) | nb.wrong;
                    acc.push_correct(64 - mism.count_ones() as usize);
                    let mut lw = mism;
                    while lw != 0 {
                        let lane = lw.trailing_zeros() as usize;
                        lw &= lw - 1;
                        let s = b * 64 + lane;
                        let bit = 1u64 << lane;
                        let v = if nb.valid & bit == 0 {
                            self.committed_po[s]
                        } else {
                            chunk_value(payload, nb.value_at(lane, chunks), chunks)
                        };
                        acc.push(self.golden[s], v);
                    }
                    at += nb.payload_len(chunks);
                }
            }
            e.finish(&mut state.next_blocks, &mut state.next_payload, poff);
        }
        tally.flush(self.counters.as_deref(), pruned);
        if pruned {
            return None;
        }
        let report = acc.finish();
        debug_assert_eq!(report.samples, self.samples);
        Some(report)
    }

    /// Number of 16-bit chunks a cached packed output value takes.
    fn value_chunks(&self) -> usize {
        self.output_bits.div_ceil(16).max(1)
    }

    /// Start a cone pass of `cluster` under candidate `rows`: bump the
    /// epoch, start the root change mask, and mark the whole cone
    /// valid. Marking it up front is sound: [`Evaluator::cone_group`]
    /// writes a producer's group words before any consumer
    /// (topological order) reads them, and nothing reads other groups.
    ///
    /// # Panics
    ///
    /// Panics if `state` was built for a different evaluator shape or
    /// `rows` does not match the cluster's table shape.
    fn cone_begin(&self, state: &mut ProbeState, cluster: usize, rows: &[u16]) {
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
        self.start_root_changes(cluster, rows, &mut state.row_diff, &mut state.root_changed);
        for &ci in self.network.downstream(cluster) {
            state.valid[ci] = state.epoch;
        }
    }

    /// One group of the cone pass shared by probe and commit: blocks
    /// `g0..g0 + bw` (up to `LANES` words, 256 samples) of every cone
    /// cluster of `cluster` under candidate `rows`, written to
    /// `state.overlay` where they move, with `state.changed` holding
    /// each cluster's per-word output change mask.
    ///
    /// The per-cluster `Signal` dispatch, change-mask derivation, and
    /// input gathers run once per group instead of once per 64-sample
    /// block; a ragged tail (`bw < LANES`) flows through the same code.
    /// Change propagation: a cone cluster none of whose input words
    /// changed holds exactly its committed values and is neither
    /// copied nor re-evaluated — deep in the cone, cost tracks the
    /// lanes the candidate actually flips. With `COMMIT`, the pass
    /// also records every consumer's input-delta lanes (`moved`) and
    /// their new row indices (`next_idx`) for
    /// [`Evaluator::splice_group`].
    ///
    /// With `skip` (a reusing probe: the cached lanes of the group's
    /// words), the root moves only on its root-changed lanes outside
    /// `skip`, every other lane of the cone stays at its committed
    /// value, and `state.touch` / `state.lane_touch` record the lanes on
    /// which the pass moved some cone position's inputs, and which
    /// positions. A group in which the root moves on no lane skips the
    /// cone walk.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn cone_group<const COMMIT: bool>(
        &self,
        state: &mut ProbeState,
        cluster: usize,
        rows: &[u16],
        g0: usize,
        bw: usize,
        skip: Option<&[u64]>,
        tally: &mut ProbeTally,
    ) {
        let blocks = self.blocks;
        let epoch = state.epoch;
        let ProbeState {
            valid,
            overlay,
            changed,
            row_diff,
            root_changed,
            moved,
            next_idx,
            touch,
            lane_touch,
            ..
        } = state;
        let mut out = [0u64; 16];
        // Per-cluster active-input set for consumer clusters: input
        // slot indices whose diff words are non-zero this group, and
        // those diff words. At most 16 inputs per cluster (asserted by
        // `TableNetwork::new`).
        let mut nact = 0usize;
        let mut act = [0usize; 16];
        let mut dif4 = [[0u64; LANES]; 16];
        let cone = self.network.downstream(cluster);
        for (p, &ci) in cone.iter().enumerate() {
            let m = self.network.num_outputs_of(ci);
            let base = self.network.out_base_of(ci);
            let mut dw = [0u64; LANES];
            if ci == cluster {
                self.extend_root_changes(cluster, row_diff, root_changed, g0 + bw);
                dw[..bw].copy_from_slice(&root_changed[g0..g0 + bw]);
                if let Some(skip) = skip {
                    for (d, &s) in dw[..bw].iter_mut().zip(skip) {
                        *d &= !s;
                    }
                }
                if dw[..bw].iter().all(|&d| d == 0) {
                    // Nothing in the cone can move in this group.
                    tally.cone_hits += (bw * cone.len()) as u64;
                    for &c in cone {
                        changed[c * LANES..c * LANES + bw].fill(0);
                        if COMMIT {
                            moved[c * LANES..c * LANES + bw].fill(0);
                        }
                    }
                    return;
                }
                if skip.is_some() {
                    touch.fill(0);
                    lane_touch[..bw * 64].fill(0);
                }
            } else {
                // Exact per-input diff words: only cone-internal
                // producer outputs can move, and the consumed output's
                // own diff is sharper than the producer's any-output
                // `changed` rollup — lanes where only a sibling output
                // flipped are not re-evaluated.
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
                if COMMIT {
                    moved[ci * LANES..ci * LANES + bw].copy_from_slice(&dw[..bw]);
                }
            }
            if dw[..bw].iter().all(|&d| d == 0) {
                // Whole group unchanged: nothing is copied —
                // `changed == 0` tells every consumer (and the
                // accumulation) to read the committed words directly,
                // which are bit-identical by definition.
                tally.cone_hits += bw as u64;
                changed[ci * LANES..ci * LANES + bw].fill(0);
                continue;
            }
            if ci == cluster {
                // Root cluster: no input resolution at all — lane row
                // indices are the committed ones, so probed outputs are
                // plain `rows[...]` lookups (sparse patch or one
                // scatter transpose).
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
                        // Lanes outside `delta` keep their committed
                        // words (cached lanes of a reusing probe).
                        for (o, ow) in out[..m].iter_mut().enumerate() {
                            let committed = self.values[(base + o) * blocks + b];
                            *ow = (mm[o] & delta) | (committed & !delta);
                        }
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
                if skip.is_some() {
                    touch[w] |= delta;
                    let lanes = &mut lane_touch[w * 64..][..64];
                    let mut lw = delta;
                    while lw != 0 {
                        lanes[lw.trailing_zeros() as usize] |= 1u16 << p.min(15);
                        lw &= lw - 1;
                    }
                }
                let cnt = delta.count_ones() as usize;
                let idx_at = (ci * LANES + w) * 64;
                if cnt * (nact + m + 2) < 448 {
                    tally.lanes += cnt as u64;
                    // Sparse update via cached committed row indices: a
                    // lane's new index is the committed one with the
                    // active inputs' diff bits XORed in, so no input
                    // gather and no index rebuild — per lane cost is
                    // one table lookup plus `nact + m` bit ops. Start
                    // from the committed words and patch just the
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
                        if COMMIT {
                            next_idx[idx_at + lane] = idx as u16;
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
                    if COMMIT {
                        for (ix, &v) in next_idx[idx_at..idx_at + 64].iter_mut().zip(&mm) {
                            *ix = v as u16;
                        }
                    }
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
    }

    /// Start a probe's root change mask: `row_diff` becomes the
    /// bitmap of rows where the candidate `rows` differ from
    /// `cluster`'s committed table, and `root_changed` is emptied —
    /// or, when no row differs, filled with zeros for every block.
    /// [`Evaluator::extend_root_changes`] then derives blocks on
    /// demand, so a probe pruned early never pays for the rest.
    fn start_root_changes(
        &self,
        cluster: usize,
        rows: &[u16],
        row_diff: &mut Vec<u64>,
        root_changed: &mut Vec<u64>,
    ) {
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
        root_changed.clear();
        if !any_changed {
            root_changed.resize(self.blocks, 0);
        }
    }

    /// Extend `root_changed` to cover blocks `..upto`: bit `lane` of
    /// `root_changed[block]` is set ⇔ `cluster`'s probed output can
    /// move on that lane. The root cluster's inputs are committed (its
    /// producers sit outside its own cone), so its cached committed
    /// per-lane row indices still hold under the probe: a lane's
    /// output moves iff its index hits a changed row of `row_diff`.
    fn extend_root_changes(
        &self,
        cluster: usize,
        row_diff: &[u64],
        root_changed: &mut Vec<u64>,
        upto: usize,
    ) {
        for b in root_changed.len()..upto {
            let idxs = &self.row_idx[cluster * self.samples + b * 64..][..64];
            let mut dd = 0u64;
            for (lane, &ix) in idxs.iter().enumerate() {
                dd |= (row_diff[(ix >> 6) as usize] >> (ix & 63) & 1) << lane;
            }
            root_changed.push(dd);
        }
    }

    /// Build `suffix[b]`: the committed error terms of `metric` summed
    /// over blocks `≥ b` and over the lanes outside `root_changed` —
    /// lanes a probe of `cluster` leaves at their committed values
    /// (the mask is first extended to every block) — plus the exact
    /// terms of the valid lanes cached in `cache`. Each block
    /// subtracts its changed lanes' terms from the cached block sum, or
    /// sums its unchanged lanes directly when those are fewer. Returns
    /// the committed network's `metric` value, which scales the
    /// float-reordering margin of [`suffix_prunes`].
    fn committed_suffix(
        &self,
        cluster: usize,
        metric: QorMetric,
        cache: Option<&LaneCache>,
        row_diff: &[u64],
        root_changed: &mut Vec<u64>,
        suffix: &mut Vec<f64>,
    ) -> f64 {
        self.extend_root_changes(cluster, row_diff, root_changed, self.blocks);
        let term = |s: usize| metric.sample_term(self.golden[s], self.committed_po[s]);
        let lanes_sum = |b: usize, mut w: u64| {
            let mut sum = 0.0f64;
            while w != 0 {
                sum += term(b * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
            sum
        };
        suffix.clear();
        suffix.resize(self.blocks + 1, 0.0);
        // First the cached lanes' exact terms per block (the entry's
        // metric is the probe's: `LaneCache::start`).
        if let Some(e) = cache {
            for (sb, c) in suffix.iter_mut().zip(&e.blocks) {
                *sb = c.terms;
            }
        }
        let mut total = 0.0f64;
        for b in (0..self.blocks).rev() {
            let block_sum = self.committed_terms[b][metric as usize];
            total += block_sum;
            let mism = self.committed_mism[b];
            let moved = mism & root_changed[b];
            let kept = mism & !moved;
            let unchanged = if moved == 0 {
                block_sum
            } else if kept.count_ones() <= moved.count_ones() {
                lanes_sum(b, kept)
            } else {
                (block_sum - lanes_sum(b, moved)).max(0.0)
            };
            suffix[b] += suffix[b + 1] + unchanged;
        }
        QorAccumulator::new(self.output_bits).partial_value_with(metric, self.samples, total)
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

    /// Commit a table swap permanently, working in the caller's probe
    /// overlay `state` (any state built for this evaluator's shape —
    /// the explorers pass one of their per-worker states).
    ///
    /// The candidate goes through the same change-propagating cone
    /// pass as a probe; instead of accumulating QoR, every group's
    /// changed words are spliced into the committed values, the
    /// consumers' moved row indices are rewritten, and the committed
    /// per-sample PO cache is re-derived on the blocks where a cone
    /// PO's driver changed (see the [module docs](self)). The result is
    /// bit-identical to re-simulating the whole network with the new
    /// table; a commit that changes no row touches nothing but the
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if `state` was built for a different evaluator shape or
    /// `rows` does not match the cluster's table shape.
    pub fn commit(&mut self, state: &mut ProbeState, cluster: usize, rows: &[u16]) {
        self.cone_begin(state, cluster, rows);
        let n = self.network.len();
        state.moved.resize(n * LANES, 0);
        state.next_idx.resize(n * LANES * 64, 0);
        state.delta.resize(self.blocks, 0);
        let pos = self.network.po_cone(cluster).to_vec();
        let mask = self.network.po_cone_mask(cluster);
        let mut tally = ProbeTally::default();
        let mut g0 = 0usize;
        while g0 < self.blocks {
            let bw = (self.blocks - g0).min(LANES);
            self.cone_group::<true>(state, cluster, rows, g0, bw, None, &mut tally);
            for w in 0..bw {
                state.delta[g0 + w] = self
                    .network
                    .downstream(cluster)
                    .iter()
                    .fold(0, |d, &c| d | state.changed[c * LANES + w]);
            }
            let dirty = self.splice_group(state, cluster, &pos, g0, bw);
            for w in 0..bw {
                if dirty >> w & 1 == 1 {
                    self.patch_block(g0 + w, &pos, mask);
                }
            }
            g0 += bw;
        }
        self.network.set_table(cluster, rows);
        tally.flush_commit(self.counters.as_deref());
    }

    /// [`Evaluator::commit`], then invalidate what the commit made
    /// stale in `cache` (see the [module docs](self#cross-step-reuse)).
    ///
    /// # Panics
    ///
    /// Same contract as [`Evaluator::commit`].
    pub(crate) fn commit_reusing(
        &mut self,
        state: &mut ProbeState,
        cache: &mut ProbeCache,
        cluster: usize,
        rows: &[u16],
    ) {
        self.commit(state, cluster, rows);
        cache.invalidate(self, cluster, &state.delta);
    }

    /// Commit consumer of one cone-pass group: copy every cone word
    /// whose change mask is non-zero from the overlay into `values`
    /// and every consumer lane's new row index into `row_idx`. Returns
    /// the group's dirty words (bit `w` set ⇔ block `g0 + w` has a PO
    /// of `pos` whose driver word changed).
    fn splice_group(
        &mut self,
        state: &ProbeState,
        cluster: usize,
        pos: &[usize],
        g0: usize,
        bw: usize,
    ) -> u32 {
        let blocks = self.blocks;
        let Evaluator {
            network,
            values,
            row_idx,
            samples,
            ..
        } = self;
        for &ci in network.downstream(cluster) {
            let base = network.out_base_of(ci);
            let m = network.num_outputs_of(ci);
            for w in 0..bw {
                let b = g0 + w;
                if state.changed[ci * LANES + w] != 0 {
                    for o in 0..m {
                        let off = (base + o) * blocks + b;
                        values[off] = state.overlay[off];
                    }
                }
                // The root's inputs do not move, so neither do its
                // row indices.
                if ci != cluster {
                    let src = &state.next_idx[(ci * LANES + w) * 64..][..64];
                    let dst = &mut row_idx[ci * *samples + b * 64..][..64];
                    let mut lw = state.moved[ci * LANES + w];
                    while lw != 0 {
                        let lane = lw.trailing_zeros() as usize;
                        lw &= lw - 1;
                        dst[lane] = src[lane];
                    }
                }
            }
        }
        let mut dirty = 0u32;
        for &o in pos {
            if let Signal::ClusterOut { idx, .. } = network.po_sigs[o] {
                for w in 0..bw {
                    if state.changed[idx * LANES + w] != 0 {
                        dirty |= 1 << w;
                    }
                }
            }
        }
        dirty
    }

    /// Re-derive block `b` of the committed PO cache from `values`:
    /// splice the words of the POs in `pos` (bits `mask` of each
    /// packed sample value) into `committed_po` and `committed_diff`,
    /// then refresh the block's rollups — `committed_mism`, the
    /// error-term sums `committed_terms` (over the block's mismatching
    /// lanes in lane order, so the f64 bits do not depend on which
    /// commit got here) and `outside_mism` once per distinct cone
    /// mask.
    fn patch_block(&mut self, b: usize, pos: &[usize], mask: u64) {
        let blocks = self.blocks;
        let mut m = [0u64; 64];
        for &o in pos {
            let w = self.committed_word(self.network.po_sigs[o], b);
            m[o] = w;
            self.committed_diff[o * blocks + b] = w ^ self.golden_words[o * blocks + b];
        }
        transpose64(&mut m);
        let keep = !mask;
        for (lane, &v) in m.iter().enumerate() {
            let s = b * 64 + lane;
            self.committed_po[s] = (self.committed_po[s] & keep) | v;
        }
        let num_pos = self.network.po_sigs.len();
        let diff = &self.committed_diff;
        let outside_of = |cone: u64| {
            (0..num_pos)
                .filter(|&o| cone >> o & 1 == 0)
                .fold(0u64, |acc, o| acc | diff[o * blocks + b])
        };
        let all = outside_of(0);
        for (k, &cone) in self.outside_masks.iter().enumerate() {
            self.outside_mism[k * blocks + b] = outside_of(cone);
        }
        let mut terms = [0.0f64; 3];
        let mut w = all;
        while w != 0 {
            let s = b * 64 + w.trailing_zeros() as usize;
            w &= w - 1;
            for (t, metric) in terms.iter_mut().zip(QorMetric::ALL) {
                *t += metric.sample_term(self.golden[s], self.committed_po[s]);
            }
        }
        self.committed_mism[b] = all;
        self.committed_terms[b] = terms;
    }

    /// Simulate every cluster on every lane and derive the whole
    /// committed PO cache from scratch: the construction path (and the
    /// oracle the incremental commit is tested against).
    fn recompute_all(&mut self) {
        for ci in 0..self.network.len() {
            self.recompute_cluster(ci);
        }
        let all: Vec<usize> = (0..self.network.po_sigs.len()).collect();
        for b in 0..self.blocks {
            self.patch_block(b, &all, u64::MAX);
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
    use std::collections::HashSet;

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
        let probe = ev.qor_probe(&mut ev.probe_state(), 0, &zeros);
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
            let with_fresh = ev.qor_probe(&mut ev.probe_state(), cluster, &zeros);
            assert_eq!(with_reused, with_fresh, "cluster {cluster}");
        }
        // Commit a change, then keep probing with the same state: it
        // must pick up the new committed baseline.
        let zeros = vec![0u16; ev.network().table(0).len()];
        ev.commit(&mut reused, 0, &zeros);
        for cluster in 1..n {
            let zeros = vec![0u16; ev.network().table(cluster).len()];
            let with_reused = ev.qor_probe(&mut reused, cluster, &zeros);
            let with_fresh = ev.qor_probe(&mut ev.probe_state(), cluster, &zeros);
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
            .map(|c| {
                ev.qor_probe(
                    &mut ev.probe_state(),
                    c,
                    &vec![0u16; ev.network().table(c).len()],
                )
            })
            .collect();
        let mut states: Vec<_> = (0..4).map(|_| ev.probe_state()).collect();
        let threaded = blasys_par::Pool::new(4).run_states(n, &mut states, None, |st, c| {
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
        let probe = ev.qor_probe(&mut ev.probe_state(), 0, &zeros);
        let mut st = ev.probe_state();
        ev.commit(&mut st, 0, &zeros);
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
        ev.commit(&mut st, 0, &zeros);
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

    /// A random live netlist from a seeded script of two-input gates.
    fn random_netlist(seed: u64) -> Netlist {
        random_netlist_with_dead_logic(seed).cleaned()
    }

    /// [`random_netlist`] before dead-logic removal: gates that reach no
    /// output stay, so some windows have an empty PO cone.
    fn random_netlist_with_dead_logic(seed: u64) -> Netlist {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut nl = Netlist::new("rand");
        let inputs = rng.gen_range(4usize..10);
        let mut nodes: Vec<_> = (0..inputs).map(|i| nl.add_input(format!("i{i}"))).collect();
        for _ in 0..rng.gen_range(30usize..120) {
            let a = nodes[rng.gen_range(0..nodes.len())];
            let b = nodes[rng.gen_range(0..nodes.len())];
            let g = match rng.gen_range(0u8..7) {
                0 => nl.and(a, b),
                1 => nl.or(a, b),
                2 => nl.xor(a, b),
                3 => nl.nand(a, b),
                4 => nl.nor(a, b),
                5 => nl.xnor(a, b),
                _ => nl.not(a),
            };
            nodes.push(g);
        }
        for o in 0..rng.gen_range(3usize..12) {
            let n = nodes[nodes.len() - 1 - (o * 5) % nodes.len().min(40)];
            nl.mark_output(format!("z{o}"), n);
        }
        nl
    }

    /// `cluster`'s committed table with each row replaced, with
    /// probability `p`, by a random row of the cluster's output width.
    fn perturbed_table(ev: &Evaluator, rng: &mut SmallRng, cluster: usize, p: f64) -> Vec<u16> {
        let mask = ((1u32 << ev.network.num_outputs_of(cluster)) - 1) as u16;
        ev.network
            .table(cluster)
            .iter()
            .map(|&r| {
                if rng.gen::<f64>() < p {
                    rng.gen::<u16>() & mask
                } else {
                    r
                }
            })
            .collect()
    }

    /// The suffix bound after every block, checked against the finished
    /// error: the probed per-sample outputs come from a clone with the
    /// candidate committed, pushed in block order. With `cache`, the
    /// bound also counts the exact terms of `cluster`'s valid cached
    /// lanes (when its entry is for `rows`), and a reusing probe at
    /// exactly the final error must not prune either.
    fn assert_suffix_bound_sound(
        ev: &Evaluator,
        cluster: usize,
        rows: &[u16],
        label: &str,
        cache: Option<&ProbeCache>,
    ) {
        let mut probed = ev.clone();
        let mut st = probed.probe_state();
        probed.commit(&mut st, cluster, rows);
        let (mut row_diff, mut root, mut suffix) = (Vec::new(), Vec::new(), Vec::new());
        ev.start_root_changes(cluster, rows, &mut row_diff, &mut root);
        let mut st = ev.probe_state();
        let entry = cache.map(|c| {
            let slot = c.slots[cluster].lock();
            slot.unwrap_or_else(PoisonError::into_inner).clone()
        });
        for metric in QorMetric::ALL {
            let fin = ev.qor_probe(&mut st, cluster, rows).value(metric);
            let own = entry
                .as_ref()
                .filter(|e| e.key == Some((rows_key(rows), metric)));
            let committed =
                ev.committed_suffix(cluster, metric, own, &row_diff, &mut root, &mut suffix);
            let margin = 1e-9 * fin.max(committed);
            let mut acc = QorAccumulator::new(ev.output_bits);
            let lb = acc.partial_value_with(metric, ev.samples, suffix[0]);
            assert!(
                lb <= fin + margin,
                "{label} {metric:?}: before block 0, {lb} > {fin}"
            );
            for b in 0..ev.blocks {
                for s in b * 64..(b + 1) * 64 {
                    acc.push(ev.golden[s], probed.committed_po[s]);
                }
                let lb = acc.partial_value_with(metric, ev.samples, suffix[b + 1]);
                assert!(
                    lb <= fin + margin,
                    "{label} {metric:?}: block {b}, {lb} > {fin}"
                );
            }
            assert_eq!(
                acc.finish().value(metric).to_bits(),
                fin.to_bits(),
                "{label}"
            );
            // A bound at exactly the final error is a tie: never pruned.
            let tied = ev
                .qor_probe_bounded(&mut st, cluster, rows, metric, fin)
                .unwrap_or_else(|| panic!("{label} {metric:?}: pruned at its own error {fin}"));
            assert_eq!(tied.value(metric).to_bits(), fin.to_bits(), "{label}");
            if let Some(cache) = cache {
                let tied = ev
                    .qor_probe_reusing(&mut st, &cache.clone(), cluster, rows, metric, || fin)
                    .unwrap_or_else(|| panic!("{label} {metric:?}: reusing probe pruned at {fin}"));
                assert_eq!(tied.value(metric).to_bits(), fin.to_bits(), "{label}");
            }
        }
    }

    #[test]
    fn prune_bound_suffix_is_sound() {
        for seed in 0..10u64 {
            let nl = random_netlist(seed);
            let part = decompose(&nl, &DecompConfig::default());
            let cfg = McConfig {
                samples: 448 + 64 * seed as usize,
                seed,
            };
            let mut ev = Evaluator::new(&nl, &part, &cfg);
            let exact = ev.clone();
            let n = ev.network().len();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xB0_0D);
            let mut st = ev.probe_state();
            // Several commits into a walk, so the committed state errs
            // and its error terms feed the suffix.
            for _ in 0..4 {
                let c = rng.gen_range(0..n);
                let rows = perturbed_table(&ev, &mut rng, c, 0.3);
                ev.commit(&mut st, c, &rows);
            }
            for c in 0..n {
                for p in [0.0, 0.05, 0.3, 1.0] {
                    let rows = perturbed_table(&ev, &mut rng, c, p);
                    let label = format!("seed {seed} c{c} p{p}");
                    assert_suffix_bound_sound(&ev, c, &rows, &label, None);
                }
            }
            // A candidate undoing the only erring commit finishes at
            // exactly 0.0 while the committed state errs: a 0.0 bound
            // must not prune it.
            let c = rng.gen_range(0..n);
            let mut one = exact.clone();
            one.commit(&mut st, c, &perturbed_table(&exact, &mut rng, c, 0.5));
            let restore = exact.network().table(c).to_vec();
            let label = format!("seed {seed} restore c{c}");
            assert_eq!(
                one.qor_probe(&mut one.probe_state(), c, &restore)
                    .avg_relative,
                0.0,
                "{label}"
            );
            assert_suffix_bound_sound(&one, c, &restore, &label, None);
        }
    }

    /// `ev`'s committed state rebuilt from scratch: every cache zeroed,
    /// every cluster re-simulated on every lane, the full PO patch.
    fn rebuilt(ev: &Evaluator) -> Evaluator {
        let mut fresh = ev.clone();
        fresh.values.fill(0);
        fresh.row_idx.fill(0);
        fresh.committed_po.fill(0);
        fresh.committed_diff.fill(0);
        fresh.committed_mism.fill(0);
        fresh.outside_mism.fill(0);
        fresh.committed_terms.fill([0.0; 3]);
        fresh.recompute_all();
        fresh
    }

    /// Every committed cache of `ev` equals a from-scratch rebuild of
    /// the same tables, bit for bit.
    fn assert_matches_rebuild(ev: &Evaluator, label: &str) {
        let fresh = rebuilt(ev);
        assert!(ev.values == fresh.values, "{label}: values");
        assert!(ev.row_idx == fresh.row_idx, "{label}: row_idx");
        assert!(
            ev.committed_po == fresh.committed_po,
            "{label}: committed_po"
        );
        assert!(
            ev.committed_diff == fresh.committed_diff,
            "{label}: committed_diff"
        );
        assert!(
            ev.committed_mism == fresh.committed_mism,
            "{label}: committed_mism"
        );
        assert!(
            ev.outside_mism == fresh.outside_mism,
            "{label}: outside_mism"
        );
        let bits = |e: &Evaluator| -> Vec<[u64; 3]> {
            e.committed_terms
                .iter()
                .map(|t| t.map(f64::to_bits))
                .collect()
        };
        assert!(bits(ev) == bits(&fresh), "{label}: committed_terms");
    }

    #[test]
    fn commit_incremental_matches_rebuild() {
        let mut empty_cone_commits = 0;
        for seed in 0..12u64 {
            // Dead logic kept, so some windows reach no output.
            let nl = random_netlist_with_dead_logic(seed);
            let part = decompose(&nl, &DecompConfig::default());
            if part.is_empty() {
                continue;
            }
            // 1..=8 blocks: every LANES tail shape, with and without a
            // full group before it.
            let blocks = 1 + seed as usize % 8;
            let cfg = McConfig {
                samples: 64 * blocks,
                seed,
            };
            let mut ev = Evaluator::new(&nl, &part, &cfg);
            let n = ev.network().len();
            let exact: Vec<Vec<u16>> = (0..n).map(|c| ev.network().table(c).to_vec()).collect();
            let empty_cone: Vec<usize> = (0..n)
                .filter(|&c| ev.network().po_cone(c).is_empty())
                .collect();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0_33);
            let mut st = ev.probe_state();
            let mut touched = Vec::new();
            for step in 0..12 {
                let (c, rows): (usize, Vec<u16>) = match step {
                    // No-op: the committed table itself.
                    3 => {
                        let c = rng.gen_range(0..n);
                        (c, ev.network().table(c).to_vec())
                    }
                    // Revert an earlier commit to the exact table.
                    7 => {
                        let c = touched[rng.gen_range(0..touched.len())];
                        (c, exact[c].clone())
                    }
                    // A window whose PO cone is empty.
                    9 if !empty_cone.is_empty() => {
                        empty_cone_commits += 1;
                        let c = empty_cone[rng.gen_range(0..empty_cone.len())];
                        (c, perturbed_table(&ev, &mut rng, c, 0.5))
                    }
                    _ => {
                        let c = rng.gen_range(0..n);
                        let p = [0.02, 0.1, 0.3, 1.0][step % 4];
                        (c, perturbed_table(&ev, &mut rng, c, p))
                    }
                };
                // A probe in between leaves the shared state dirty, as
                // in an exploration sweep.
                let _ = ev.qor_probe(&mut st, (c + 1) % n, &exact[(c + 1) % n]);
                ev.commit(&mut st, c, &rows);
                touched.push(c);
                assert_eq!(ev.network().table(c), &rows[..]);
                assert_matches_rebuild(&ev, &format!("seed {seed} step {step} cluster {c}"));
            }
        }
        assert!(
            empty_cone_commits > 0,
            "some walk must commit a window with an empty PO cone"
        );
    }

    /// A reusing probe of `cluster` with a fixed `bound`.
    fn reusing(
        ev: &Evaluator,
        st: &mut ProbeState,
        cache: &ProbeCache,
        cluster: usize,
        rows: &[u16],
        metric: QorMetric,
        bound: f64,
    ) -> Option<QorReport> {
        ev.qor_probe_reusing(st, cache, cluster, rows, metric, || bound)
    }

    #[test]
    fn reuse_table_swap_hazard_drops_touched_lanes() {
        // Committing `w` may change only table rows that no committed
        // lane looks up: no committed value moves, yet a candidate whose
        // cone holds `w` and whose probe moved `w`'s inputs onto such a
        // row must see the new row. A cache that drops only the lanes
        // where committed values changed would serve stale outputs here.
        let metric = QorMetric::AvgRelative;
        let mut hazards = 0;
        for seed in 0..16u64 {
            let nl = random_netlist(seed);
            let part = decompose(&nl, &DecompConfig::default());
            let cfg = McConfig {
                samples: 64 * (1 + seed as usize % 6),
                seed,
            };
            let ev = Evaluator::new(&nl, &part, &cfg);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5A_A5);
            let mut st = ev.probe_state();
            for d in 0..ev.network().len() {
                let rows = perturbed_table(&ev, &mut rng, d, 0.5);
                let before = ev.qor_probe(&mut st, d, &rows);
                let cache = ProbeCache::new(&ev);
                let cold = reusing(&ev, &mut st, &cache, d, &rows, metric, f64::INFINITY);
                assert_eq!(cold, Some(before), "seed {seed} d{d}: cold cache");
                for &w in &ev.network().downstream(d)[1..] {
                    // Flip every row of `w` that no committed lane reads.
                    let used: HashSet<u16> = ev.row_idx[w * ev.samples..][..ev.samples]
                        .iter()
                        .copied()
                        .collect();
                    let mask = ((1u32 << ev.network.num_outputs_of(w)) - 1) as u16;
                    let swapped: Vec<u16> = ev
                        .network()
                        .table(w)
                        .iter()
                        .enumerate()
                        .map(|(r, &v)| {
                            if used.contains(&(r as u16)) {
                                v
                            } else {
                                !v & mask
                            }
                        })
                        .collect();
                    let mut after = ev.clone();
                    let mut cache = cache.clone();
                    after.commit_reusing(&mut st, &mut cache, w, &swapped);
                    assert!(
                        st.delta.iter().all(|&dl| dl == 0),
                        "no committed value moves"
                    );
                    let fresh = after.qor_probe(&mut st, d, &rows);
                    let got = reusing(&after, &mut st, &cache, d, &rows, metric, f64::INFINITY);
                    assert_eq!(
                        got,
                        Some(fresh),
                        "seed {seed} d{d} w{w}: stale cached lanes"
                    );
                    if fresh != before {
                        hazards += 1;
                    }
                }
            }
        }
        assert!(hazards > 0, "some case must hit the table-swap hazard");
    }

    /// One committed frontier of a reuse walk: its evaluator, its lane
    /// cache and each window's current candidate rows.
    #[derive(Clone)]
    struct ReuseBranch {
        ev: Evaluator,
        cache: ProbeCache,
        cand: Vec<Vec<u16>>,
    }

    #[test]
    fn reuse_walks_match_fresh_probes() {
        let counters = Arc::new(QorCounters::register(&blasys_obs::Registry::new()));
        let (mut empty_cone_commits, mut pruned, mut reprobed) = (0, 0, 0);
        for seed in 0..12u64 {
            // Dead logic kept, so some windows reach no output.
            let nl = random_netlist_with_dead_logic(seed);
            let part = decompose(&nl, &DecompConfig::default());
            if part.is_empty() {
                continue;
            }
            // 1..=8 blocks: every LANES tail shape, with and without a
            // full group before it.
            let blocks = 1 + seed as usize % 8;
            let cfg = McConfig {
                samples: 64 * blocks,
                seed,
            };
            let mut pristine = Evaluator::new(&nl, &part, &cfg);
            pristine.set_counters(counters.clone());
            let n = pristine.network().len();
            let exact: Vec<Vec<u16>> = (0..n)
                .map(|c| pristine.network().table(c).to_vec())
                .collect();
            let empty_cone: Vec<usize> = (0..n)
                .filter(|&c| pristine.network().po_cone(c).is_empty())
                .collect();
            for (width, metric) in [1, 2, 3].into_iter().zip(QorMetric::ALL) {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0xCA_C4E ^ width as u64);
                let mut st = pristine.probe_state();
                let cand = (0..n)
                    .map(|c| perturbed_table(&pristine, &mut rng, c, 0.3))
                    .collect();
                let mut frontier = vec![ReuseBranch {
                    ev: pristine.clone(),
                    cache: ProbeCache::new(&pristine),
                    cand,
                }];
                let mut touched = Vec::new();
                for step in 0..10 {
                    for (bi, br) in frontier.iter().enumerate() {
                        for c in 0..n {
                            let label = format!("seed {seed} width {width} step {step} b{bi} c{c}");
                            let rows = &br.cand[c];
                            if (step + c) % 4 == 0 {
                                assert_suffix_bound_sound(&br.ev, c, rows, &label, Some(&br.cache));
                            }
                            let fresh = br.ev.qor_probe(&mut st, c, rows);
                            let oracle = br.ev.qor_probe_reference(&mut st, c, rows);
                            assert_eq!(fresh, oracle, "{label}: fresh vs reference");
                            // Bounds below the final error prune at
                            // varying blocks; the next probe of the
                            // candidate must still be exact.
                            let fin = fresh.value(metric);
                            let bound = [f64::INFINITY, fin * 0.5, fin * 0.95, fin][(step + c) % 4];
                            match reusing(&br.ev, &mut st, &br.cache, c, rows, metric, bound) {
                                Some(got) => assert_eq!(got, fresh, "{label}: cached vs fresh"),
                                None => {
                                    pruned += 1;
                                    assert!(fin > bound, "{label}: pruned at {bound} >= {fin}");
                                    if step % 2 == 0 {
                                        reprobed += 1;
                                        let again = reusing(
                                            &br.ev,
                                            &mut st,
                                            &br.cache,
                                            c,
                                            rows,
                                            metric,
                                            f64::INFINITY,
                                        );
                                        assert_eq!(again, Some(fresh), "{label}: re-probe");
                                    }
                                }
                            }
                        }
                    }
                    // Up to `width` children, each a copy of a random
                    // parent with one commit applied.
                    let mut next = Vec::new();
                    for _ in 0..width {
                        let mut child = frontier[rng.gen_range(0..frontier.len())].clone();
                        let c = match step {
                            // No-op: the committed table itself.
                            3 => {
                                let c = rng.gen_range(0..n);
                                let rows = child.ev.network().table(c).to_vec();
                                child.ev.commit_reusing(&mut st, &mut child.cache, c, &rows);
                                c
                            }
                            // Revert an earlier commit to the exact table.
                            7 if !touched.is_empty() => {
                                let c = touched[rng.gen_range(0..touched.len())];
                                child
                                    .ev
                                    .commit_reusing(&mut st, &mut child.cache, c, &exact[c]);
                                c
                            }
                            // A window whose PO cone is empty.
                            5 if !empty_cone.is_empty() => {
                                empty_cone_commits += 1;
                                let c = empty_cone[rng.gen_range(0..empty_cone.len())];
                                let rows = child.cand[c].clone();
                                child.ev.commit_reusing(&mut st, &mut child.cache, c, &rows);
                                c
                            }
                            _ => {
                                let c = rng.gen_range(0..n);
                                let rows = child.cand[c].clone();
                                child.ev.commit_reusing(&mut st, &mut child.cache, c, &rows);
                                c
                            }
                        };
                        let p = [0.02, 0.1, 0.3, 1.0][step % 4];
                        child.cand[c] = perturbed_table(&child.ev, &mut rng, c, p);
                        touched.push(c);
                        next.push(child);
                    }
                    frontier = next;
                }
            }
        }
        assert!(
            empty_cone_commits > 0,
            "some walk commits an empty-cone window"
        );
        assert!(
            pruned > 0 && reprobed > 0,
            "some probes prune and are re-probed"
        );
        assert!(
            counters.lanes_reused.get() > 0,
            "some lanes come from the cache"
        );
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
        assert_eq!(ev.qor_probe(&mut ev.probe_state(), 0, &zeros).samples, 1024);
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
            ev.commit(&mut st, 0, &zeros);
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
        assert_eq!(
            e1.qor_probe(&mut e1.probe_state(), 0, &zeros),
            e2.qor_probe(&mut e2.probe_state(), 0, &zeros)
        );
    }
}
