//! Execution-phase detection (§4.7 of the paper, Fig. 6).
//!
//! Temporal system call specialization installs a different (stricter)
//! filter for each phase of a program's execution. B-Side detects phases
//! statically: the CFG and the per-site system call sets are turned into a
//! Nondeterministic Finite Automaton in which edges leaving a
//! syscall-containing block are labeled with that site's system calls and
//! every other edge is an ε-transition; the standard powerset construction
//! yields a DFA; strongly-connected DFA states are merged into *phases*;
//! and (optionally, for seccomp's install-stricter-only rule) allowed sets
//! are back-propagated to predecessor phases.
//!
//! Everything runs on the CFG's dense block ids: block labels and PLT
//! flags are read by id, call strings are interned as a parent-pointer
//! trie that records each call's continuation block, and a
//! `(context, block)` node key is packed into one integer hashed by an
//! integer mixer, not SipHash. DFA states and ε-closures are fixed-width
//! bitsets over the expanded nodes plus a halt bit, so a state costs
//! about `nodes / 8` bytes; the states live as rows of one flat arena,
//! interned through hash chains, and the DFA's edges are one flat list
//! with per-state offsets, which the SCC pass walks directly. Each
//! phase's block set is built from one sorted list of ids. The stages
//! are `bside-obs` spans: `phases.expand`, `phases.powerset`,
//! `phases.merge`.
//!
//! The intuitive alternative — navigating the CFG and merging
//! highly-connected syscall nodes directly — is implemented in
//! [`detect_phases_naive`] for the cost comparison the paper reports
//! (41 s vs 700 s on a hello-world; automaton wins).

use bside_cfg::{BlockId, Cfg, EdgeKind};
use bside_obs as obs;
use bside_syscalls::{SyscallSet, Sysno};
use bside_x86::Op;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Options for phase detection.
#[derive(Debug, Clone)]
pub struct PhaseOptions {
    /// Upper bound on DFA states; construction truncates beyond it.
    pub max_dfa_states: usize,
    /// Call-string context depth for the NFA expansion. Return edges in
    /// the raw CFG are over-approximated (a shared helper's `ret` points
    /// at *every* caller's continuation), which fuses unrelated program
    /// regions into one phase; expanding blocks with a bounded call-string
    /// context restores precise returns. Calls nested deeper than the
    /// depth are stepped over (their sites drop out of the automaton), so
    /// shallow depths trade structure for size.
    pub context_depth: usize,
    /// Upper bound on expanded (context, block) nodes.
    pub max_expanded_nodes: usize,
}

impl Default for PhaseOptions {
    fn default() -> Self {
        PhaseOptions {
            max_dfa_states: 50_000,
            context_depth: 4,
            max_expanded_nodes: 500_000,
        }
    }
}

/// One detected phase: a merged set of DFA states.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase index within [`PhaseAutomaton::phases`].
    pub id: usize,
    /// The basic blocks composing the phase (union over its DFA states; a
    /// block can belong to several phases, as §5.4 notes).
    pub blocks: BTreeSet<u64>,
    /// Transitions: destination phase → system calls triggering it.
    /// `transitions[self.id]` holds the self-loop system calls.
    pub transitions: BTreeMap<usize, SyscallSet>,
    /// Total byte size of the phase's blocks (the "Size" column of
    /// Table 4 — a proxy for how long execution stays in the phase).
    pub code_bytes: u64,
}

impl Phase {
    /// Every system call allowed while in this phase (the union of all
    /// outgoing transition labels — the "Total" column of Table 4).
    pub fn allowed(&self) -> SyscallSet {
        let mut set = SyscallSet::new();
        for labels in self.transitions.values() {
            set.extend_from(labels);
        }
        set
    }
}

/// The phase automaton.
#[derive(Debug, Clone)]
pub struct PhaseAutomaton {
    /// The phases.
    pub phases: Vec<Phase>,
    /// Index of the initial phase.
    pub initial: usize,
    /// Number of DFA states before merging (cost metric).
    pub dfa_states: usize,
    /// `true` if construction hit [`PhaseOptions::max_dfa_states`].
    pub truncated: bool,
}

impl PhaseAutomaton {
    /// Average strictness gain of phase-based filtering vs. a
    /// whole-program allow-list: `1 - avg_phase_allowed / total`, weighted
    /// by phase code size (execution dwells in large phases, §5.4).
    pub fn strictness_gain(&self, whole_program: &SyscallSet) -> f64 {
        let total = whole_program.len() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let weight_sum: u64 = self.phases.iter().map(|p| p.code_bytes.max(1)).sum();
        let weighted: f64 = self
            .phases
            .iter()
            .map(|p| p.allowed().len() as f64 * p.code_bytes.max(1) as f64)
            .sum::<f64>()
            / weight_sum as f64;
        1.0 - weighted / total
    }

    /// Applies back-propagation (Fig. 6, right): every phase's allowed set
    /// absorbs the allowed sets of its transitively reachable successor
    /// phases. Needed when the runtime filter is seccomp, which can only
    /// install stricter rules as execution progresses.
    pub fn back_propagate(&mut self) {
        // Fixpoint over the phase graph (it is a DAG after SCC merging,
        // but a fixpoint is simpler and safe).
        loop {
            let mut changed = false;
            for i in 0..self.phases.len() {
                let succ_ids: Vec<usize> = self.phases[i].transitions.keys().copied().collect();
                let mut absorb = SyscallSet::new();
                for j in succ_ids {
                    if j != i {
                        absorb.extend_from(&self.phases[j].allowed());
                    }
                }
                let before = self.phases[i].allowed();
                if !absorb.is_subset(&before) {
                    let extra = absorb.difference(&before);
                    self.phases[i]
                        .transitions
                        .entry(i)
                        .or_default()
                        .extend_from(&extra);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// Per-block NFA labeling, by block id: a block's outgoing edges carry
/// the union of its sites' system call sets; blocks without sites emit ε.
fn block_labels(cfg: &Cfg, site_sets: &HashMap<u64, SyscallSet>) -> Vec<Option<SyscallSet>> {
    let mut labels: Vec<Option<SyscallSet>> = vec![None; cfg.block_count()];
    for (&site, set) in site_sets {
        let Some(id) = cfg.block_id_containing(site) else {
            continue;
        };
        if cfg.block_at(id).insns.iter().any(|i| i.addr == site) {
            let label = labels[id as usize].get_or_insert_with(SyscallSet::new);
            label.extend_from(set);
        }
    }
    labels
}

/// Mixes an integer key into a hash whose low bits depend on every key
/// bit (the MurmurHash3 finalizer). Hash tables pick buckets by the low
/// bits, and a multiply alone leaves a key's high half out of them.
fn mix(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// The hash of a DFA state's bitset row.
fn row_hash(row: &[u64]) -> u64 {
    row.iter().fold(0, |h, &w| mix(h ^ w))
}

/// Hashes the ids this module packs into keys: contexts, blocks and
/// nodes are dense ids the analyzer assigns, never addresses read from
/// the binary, so an unkeyed hash is safe.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("IdHasher hashes u64 keys only")
    }

    fn write_u64(&mut self, k: u64) {
        self.0 = mix(self.0 ^ k);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map from packed id pairs (see [`pack`]) to ids.
type IdMap = HashMap<u64, u32, BuildHasherDefault<IdHasher>>;

/// The pair `(hi, lo)` as one key.
fn pack(hi: u32, lo: BlockId) -> u64 {
    u64::from(hi) << 32 | u64::from(lo)
}

/// One node of the context-expanded NFA.
#[derive(Clone, Copy)]
struct Node<'a> {
    /// The underlying block.
    block: BlockId,
    /// The call-string context.
    ctx: u32,
    /// The block's label; `None` means ε edges.
    label: Option<&'a SyscallSet>,
}

/// The context-expanded NFA graph: nodes are `(call-string, block)` pairs
/// so that `ret` resolves to the matching caller's continuation instead
/// of every caller's (which would fuse unrelated phases).
struct Expanded<'a> {
    nodes: Vec<Node<'a>>,
    /// Successor node ids, flat: node `n`'s are
    /// `succ_edges[succ_offsets[n]..succ_offsets[n + 1]]`. Nodes are
    /// expanded in id order, so a truncated expansion leaves the
    /// unexpanded tail without an entry (no successors).
    succ_offsets: Vec<u32>,
    succ_edges: Vec<u32>,
    /// Entry node ids.
    entries: Vec<u32>,
    truncated: bool,
}

impl Expanded<'_> {
    fn succs(&self, n: usize) -> &[u32] {
        let range = self.succ_offsets.get(n..n + 2);
        range.map_or(&[], |r| &self.succ_edges[r[0] as usize..r[1] as usize])
    }
}

/// A call string, interned as a node of a parent-pointer trie: context 0
/// is the empty string, and any other is its `parent` followed by one
/// call, which returns to the block `cont`.
struct Context {
    parent: u32,
    cont: Option<BlockId>,
    depth: usize,
}

/// Breadth-first builder of [`Expanded`].
struct Expander<'a> {
    labels: &'a [Option<SyscallSet>],
    contexts: Vec<Context>,
    /// `(context, call block)` → context.
    ctx_ids: IdMap,
    /// `(context, block)` → node.
    node_ids: IdMap,
    graph: Expanded<'a>,
}

impl Expander<'_> {
    /// The context `ctx` extended by the call in block `call`, which
    /// returns to `cont`.
    fn push_ctx(&mut self, ctx: u32, call: BlockId, cont: Option<BlockId>) -> u32 {
        let next = self.contexts.len() as u32;
        *self.ctx_ids.entry(pack(ctx, call)).or_insert_with(|| {
            let depth = self.contexts[ctx as usize].depth + 1;
            self.contexts.push(Context {
                parent: ctx,
                cont,
                depth,
            });
            next
        })
    }

    /// The node `(ctx, block)`, created on first sight; nodes are
    /// expanded in creation order.
    fn node(&mut self, ctx: u32, block: BlockId) -> u32 {
        let next = self.graph.nodes.len() as u32;
        let id = *self.node_ids.entry(pack(ctx, block)).or_insert(next);
        if id == next {
            self.graph.nodes.push(Node {
                block,
                ctx,
                label: self.labels[block as usize].as_ref(),
            });
        }
        id
    }
}

fn expand<'a>(
    cfg: &Cfg,
    labels: &'a [Option<SyscallSet>],
    depth: usize,
    max_nodes: usize,
) -> Expanded<'a> {
    // Over the seed-1 and seed-3 corpora and the six profiles, nodes per
    // reachable block run 1.26 at the median, 1.68 at p90 and 3.11 at
    // most, and successor edges per node 1.03, 1.15 and 1.35.
    let hint = 2 * cfg.reached().iter().filter(|&&r| r).count();
    let mut x = Expander {
        labels,
        contexts: vec![Context {
            parent: 0,
            cont: None,
            depth: 0,
        }],
        ctx_ids: IdMap::default(),
        node_ids: IdMap::with_capacity_and_hasher(hint, Default::default()),
        graph: Expanded {
            nodes: Vec::with_capacity(hint),
            succ_offsets: Vec::with_capacity(hint + 1),
            succ_edges: Vec::with_capacity(hint),
            entries: Vec::new(),
            truncated: false,
        },
    };
    x.graph.succ_offsets.push(0);
    for &e in cfg.entries() {
        if let Some(b) = cfg.block_id_containing(e) {
            let id = x.node(0, b);
            x.graph.entries.push(id);
        }
    }

    let mut out: Vec<u32> = Vec::new();
    let mut id = 0;
    while id < x.graph.nodes.len() {
        if x.graph.nodes.len() > max_nodes {
            x.graph.truncated = true;
            break;
        }
        let Node { block: b, ctx, .. } = x.graph.nodes[id];
        id += 1;
        out.clear();
        let term = cfg.block_at(b).terminator();
        match term.op {
            Op::Call(_) => {
                let mut entered = false;
                let cont = cfg.block_id_containing(term.end());
                for &(to, kind) in cfg.succ_ids(b) {
                    if matches!(kind, EdgeKind::Call | EdgeKind::Indirect)
                        && !cfg.is_plt_stub(to)
                        && x.contexts[ctx as usize].depth < depth
                    {
                        let callee_ctx = x.push_ctx(ctx, b, cont);
                        out.push(x.node(callee_ctx, to));
                        entered = true;
                    }
                }
                if !entered {
                    // Depth-capped, external (PLT), or unresolved: step
                    // over the call.
                    for &(to, kind) in cfg.succ_ids(b) {
                        if kind == EdgeKind::FallThrough {
                            out.push(x.node(ctx, to));
                        }
                    }
                }
            }
            // Empty context: the entry function returned — halt.
            Op::Ret if ctx != 0 => {
                let Context { parent, cont, .. } = x.contexts[ctx as usize];
                if let Some(cont) = cont {
                    out.push(x.node(parent, cont));
                }
            }
            Op::Ret => {}
            _ => {
                for &(to, kind) in cfg.succ_ids(b) {
                    if matches!(
                        kind,
                        EdgeKind::Branch | EdgeKind::FallThrough | EdgeKind::Indirect
                    ) {
                        out.push(x.node(ctx, to));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        x.graph.succ_edges.extend_from_slice(&out);
        x.graph.succ_offsets.push(x.graph.succ_edges.len() as u32);
    }
    x.graph
}

/// A DFA state under construction: a fixed-width bitset over the expanded
/// nodes, with bit `halt` (one past the last node) for the synthetic halt
/// node that labelled dead ends lead to.
struct NodeSet<'a> {
    expanded: &'a Expanded<'a>,
    halt: usize,
    bits: Vec<u64>,
    stack: Vec<usize>,
}

impl NodeSet<'_> {
    fn insert(&mut self, n: usize) {
        let (w, b) = (n / 64, 1u64 << (n % 64));
        if self.bits[w] & b == 0 {
            self.bits[w] |= b;
            self.stack.push(n);
        }
    }

    /// Closes the set under ε-edges: edges leaving labelled nodes are not
    /// ε, and the halt node has none.
    fn close(&mut self) {
        while let Some(n) = self.stack.pop() {
            if n == self.halt || self.expanded.nodes[n].label.is_some() {
                continue;
            }
            for &to in self.expanded.succs(n) {
                self.insert(to as usize);
            }
        }
    }
}

/// The members of a bitset, in ascending order.
fn members(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

/// No state: the end of a hash chain.
const NIL: u32 = u32::MAX;

/// The DFA states: `width`-word bitset rows in one flat arena, interned
/// through hash chains: `heads` holds the first state of each bucket,
/// and `links` each state's hash and the next state in its bucket. The
/// arena grows with the states interned; only the chains are sized up
/// front.
struct States {
    width: usize,
    rows: Vec<u64>,
    links: Vec<(u64, u32)>,
    heads: Vec<u32>,
}

impl States {
    /// An empty set of `width`-word states, with chains for about
    /// `hint` of them.
    fn new(width: usize, hint: usize) -> States {
        States {
            width,
            rows: Vec::new(),
            links: Vec::with_capacity(hint),
            heads: vec![NIL; hint.next_power_of_two().max(16)],
        }
    }

    fn len(&self) -> usize {
        self.links.len()
    }

    fn row(&self, id: usize) -> &[u64] {
        &self.rows[id * self.width..(id + 1) * self.width]
    }

    /// The id of the state `row`, added if new.
    fn intern(&mut self, row: &[u64]) -> u32 {
        let hash = row_hash(row);
        let bucket = hash as usize & (self.heads.len() - 1);
        let mut at = self.heads[bucket];
        while at != NIL {
            let (h, next) = self.links[at as usize];
            if h == hash && self.row(at as usize) == row {
                return at;
            }
            at = next;
        }
        let id = self.len() as u32;
        self.rows.extend_from_slice(row);
        self.links.push((hash, self.heads[bucket]));
        self.heads[bucket] = id;
        if self.len() > self.heads.len() {
            // Keep chains short: a bucket per state, relinked.
            let mask = self.heads.len() * 2 - 1;
            self.heads = vec![NIL; mask + 1];
            for (s, (h, next)) in self.links.iter_mut().enumerate() {
                *next = self.heads[*h as usize & mask];
                self.heads[*h as usize & mask] = s as u32;
            }
        }
        id
    }
}

/// Per-state DFA edges, flat: state `s`'s `(sysno, state)` edges are
/// `edges[offsets[s]..offsets[s + 1]]`, by ascending system call. States
/// are expanded in id order, so a truncated construction leaves the
/// unexpanded tail without an entry (no edges).
struct DfaEdges {
    offsets: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

impl DfaEdges {
    fn of(&self, s: usize) -> &[(u32, u32)] {
        let range = self.offsets.get(s..s + 2);
        range.map_or(&[], |r| &self.edges[r[0] as usize..r[1] as usize])
    }
}

/// Builds the phase automaton from an analyzed binary's CFG and per-site
/// system call sets.
///
/// DFA states are numbered breadth first, visiting each state's symbols
/// in ascending order; that numbering fixes the SCC and phase ids.
pub fn detect_phases(
    cfg: &Cfg,
    site_sets: &HashMap<u64, SyscallSet>,
    options: &PhaseOptions,
) -> PhaseAutomaton {
    // ---- context-sensitive NFA expansion ----------------------------------------
    let span = obs::span("phases.expand");
    let labels = block_labels(cfg, site_sets);
    let expanded = expand(
        cfg,
        &labels,
        options.context_depth,
        options.max_expanded_nodes,
    );
    span.finish();

    // ---- powerset construction -------------------------------------------------
    let span = obs::span("phases.powerset");
    let halt = expanded.nodes.len();
    let width = (halt + 1).div_ceil(64);
    let mut set = NodeSet {
        expanded: &expanded,
        halt,
        bits: vec![0; width],
        stack: Vec::with_capacity(halt + 1),
    };
    for &e in &expanded.entries {
        set.insert(e as usize);
    }
    set.close();
    // Over the same inputs, states never outnumber the labelled nodes
    // plus one, and DFA edges per state run 1.29 at the median and 4.0
    // at p90. Only the chains and the edges are sized from this: the
    // rows are `width` words each.
    let hint = expanded.nodes.iter().filter(|n| n.label.is_some()).count() + 1;
    let mut states = States::new(width, hint);
    states.intern(&set.bits);
    let mut dfa = DfaEdges {
        offsets: Vec::with_capacity(hint + 1),
        edges: Vec::with_capacity(2 * hint),
    };
    dfa.offsets.push(0);
    let mut truncated = expanded.truncated;
    let mut labelled: Vec<(usize, &SyscallSet)> = Vec::new();

    // States are expanded in id order, which is breadth first.
    let mut sid = 0;
    while sid < states.len() {
        if states.len() > options.max_dfa_states {
            truncated = true;
            break;
        }
        labelled.clear();
        labelled.extend(
            members(states.row(sid))
                .filter(|&n| n != halt)
                .filter_map(|n| Some((n, expanded.nodes[n].label?))),
        );
        sid += 1;
        let mut symbols = SyscallSet::new();
        for &(_, label) in &labelled {
            symbols.extend_from(label);
        }
        // For each symbol: the ε-closure of the targets of labelled edges
        // from member nodes whose label contains the symbol.
        for sym in symbols.iter() {
            set.bits.fill(0);
            for &(n, label) in &labelled {
                if label.contains(sym) {
                    let succs = expanded.succs(n);
                    if succs.is_empty() {
                        set.insert(halt);
                    }
                    for &to in succs {
                        set.insert(to as usize);
                    }
                }
            }
            set.close();
            let next = states.intern(&set.bits);
            dfa.edges.push((sym.raw(), next));
        }
        dfa.offsets.push(dfa.edges.len() as u32);
    }
    let dfa_states = states.len();
    span.finish();

    // ---- merge highly-connected states: SCC condensation -----------------------
    let span = obs::span("phases.merge");
    let scc = tarjan_scc(dfa_states, &dfa);
    let phase_count = scc.iter().copied().max().map(|m| m + 1).unwrap_or(0);

    // Each phase's node set is the union of its states' sets.
    let mut phase_nodes = vec![0u64; phase_count * width];
    for (sid, &phase) in scc.iter().enumerate() {
        let union = &mut phase_nodes[phase * width..(phase + 1) * width];
        for (acc, &w) in union.iter_mut().zip(states.row(sid)) {
            *acc |= w;
        }
    }
    let mut ids: Vec<BlockId> = Vec::new();
    let mut phases: Vec<Phase> = phase_nodes
        .chunks_exact(width)
        .enumerate()
        .map(|(id, nodes)| {
            ids.clear();
            ids.extend(
                members(nodes)
                    .filter(|&n| n != halt)
                    .map(|n| expanded.nodes[n].block),
            );
            ids.sort_unstable();
            ids.dedup();
            let blocks = ids.iter().map(|&b| cfg.block_at(b));
            Phase {
                id,
                blocks: blocks.clone().map(|b| b.start).collect(),
                transitions: BTreeMap::new(),
                code_bytes: blocks.map(|b| b.byte_size()).sum(),
            }
        })
        .collect();
    for (sid, &from) in scc.iter().enumerate() {
        for &(sym, to_state) in dfa.of(sid) {
            let to = scc[to_state as usize];
            if let Some(sysno) = Sysno::new(sym) {
                phases[from]
                    .transitions
                    .entry(to)
                    .or_default()
                    .insert(sysno);
            }
        }
    }
    span.finish();

    let initial = if dfa_states > 0 { scc[0] } else { 0 };
    PhaseAutomaton {
        phases,
        initial,
        dfa_states,
        truncated,
    }
}

/// Tarjan's strongly-connected components of the DFA's `n` states, whose
/// state `v` has the successors `edges.of(v)` (in order); returns a
/// component id per state. Iterative to survive deep DFAs.
fn tarjan_scc(n: usize, edges: &DfaEdges) -> Vec<usize> {
    #[derive(Clone, Copy)]
    struct Node {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut nodes = vec![
        Node {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false
        };
        n
    ];
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    // Iterative DFS: each frame is a vertex and the cursor into its edges.
    let mut call: Vec<(usize, usize)> = Vec::with_capacity(n);

    for root in 0..n {
        if nodes[root].visited {
            continue;
        }
        call.push((root, 0));
        nodes[root].visited = true;
        nodes[root].index = next_index;
        nodes[root].lowlink = next_index;
        next_index += 1;
        stack.push(root);
        nodes[root].on_stack = true;

        while let Some((v, cursor)) = call.last_mut() {
            let v = *v;
            if let Some(&(_, w)) = edges.of(v).get(*cursor) {
                let w = w as usize;
                *cursor += 1;
                if !nodes[w].visited {
                    nodes[w].visited = true;
                    nodes[w].index = next_index;
                    nodes[w].lowlink = next_index;
                    next_index += 1;
                    stack.push(w);
                    nodes[w].on_stack = true;
                    call.push((w, 0));
                } else if nodes[w].on_stack {
                    nodes[v].lowlink = nodes[v].lowlink.min(nodes[w].index);
                }
            } else {
                call.pop();
                if nodes[v].lowlink == nodes[v].index {
                    loop {
                        let w = stack.pop().expect("stack invariant");
                        nodes[w].on_stack = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                if let Some(&(parent, _)) = call.last() {
                    nodes[parent].lowlink = nodes[parent].lowlink.min(nodes[v].lowlink);
                }
            }
        }
    }
    comp
}

/// The intuitive CFG-navigation phase detector the paper measures against
/// the automaton method (§4.7: "navigating the CFG to perform that
/// operation is a very costly operation that does not scale well").
///
/// The method merges highly-connected syscall nodes into phases by
/// repeatedly *re-navigating* the graph: in every round it checks each
/// pair of current clusters for mutual reachability that does not cross a
/// third cluster (one BFS per direction per pair), merges the first such
/// pair, and starts over — the quadratic-with-recomputation cost profile
/// that motivates the automaton construction.
pub fn detect_phases_naive(cfg: &Cfg, site_sets: &HashMap<u64, SyscallSet>) -> PhaseAutomaton {
    let labels = block_labels(cfg, site_sets);
    // Labelled blocks in id order, which is address order.
    let (syscall_blocks, syscall_labels): (Vec<BlockId>, Vec<&SyscallSet>) = (0..)
        .zip(&labels)
        .filter_map(|(id, label)| Some((id, label.as_ref()?)))
        .unzip();
    let n = syscall_blocks.len();

    // cluster id per syscall block.
    let mut cluster: Vec<usize> = (0..n).collect();
    // Per block id: its index among the syscall blocks, if labelled.
    let mut index_of: Vec<Option<usize>> = vec![None; cfg.block_count()];
    for (i, &b) in syscall_blocks.iter().enumerate() {
        index_of[b as usize] = Some(i);
    }

    // BFS: does `from` reach `to` without entering a syscall block of a
    // third cluster? Recomputed from scratch every time — the naive cost.
    let reaches = |from: usize, to: usize, cluster: &[usize]| -> bool {
        let (src, dst) = (syscall_blocks[from], syscall_blocks[to]);
        let allowed_cluster = (cluster[from], cluster[to]);
        let mut seen = vec![false; cfg.block_count()];
        let mut queue: VecDeque<BlockId> = VecDeque::new();
        queue.push_back(src);
        while let Some(b) = queue.pop_front() {
            for &(succ, _) in cfg.succ_ids(b) {
                if succ == dst {
                    return true;
                }
                if let Some(k) = index_of[succ as usize] {
                    let c = cluster[k];
                    if c != allowed_cluster.0 && c != allowed_cluster.1 {
                        continue; // a third cluster blocks the path
                    }
                }
                if !std::mem::replace(&mut seen[succ as usize], true) {
                    queue.push_back(succ);
                }
            }
        }
        false
    };

    // Agglomerative rounds: merge the first mutually-reachable pair and
    // restart the pair scan.
    loop {
        let mut merged = false;
        'pairs: for i in 0..n {
            for j in (i + 1)..n {
                if cluster[i] == cluster[j] {
                    continue;
                }
                if reaches(i, j, &cluster) && reaches(j, i, &cluster) {
                    let (keep, drop) = (cluster[i].min(cluster[j]), cluster[i].max(cluster[j]));
                    for c in cluster.iter_mut() {
                        if *c == drop {
                            *c = keep;
                        }
                    }
                    merged = true;
                    break 'pairs;
                }
            }
        }
        if !merged {
            break;
        }
    }

    // Compact cluster ids into phase ids.
    let mut remap: BTreeMap<usize, usize> = BTreeMap::new();
    for &c in &cluster {
        let next = remap.len();
        remap.entry(c).or_insert(next);
    }
    let phase_count = remap.len();
    let mut phases: Vec<Phase> = (0..phase_count)
        .map(|id| Phase {
            id,
            blocks: BTreeSet::new(),
            transitions: BTreeMap::new(),
            code_bytes: 0,
        })
        .collect();
    for (i, &b) in syscall_blocks.iter().enumerate() {
        let pid = remap[&cluster[i]];
        let block = cfg.block_at(b);
        phases[pid].blocks.insert(block.start);
        phases[pid].code_bytes += block.byte_size();
    }
    // Transitions: per source syscall block, the next syscall blocks
    // reachable without crossing a third block (one more navigation).
    for (i, &b) in syscall_blocks.iter().enumerate() {
        let from = remap[&cluster[i]];
        let label = syscall_labels[i];
        let mut seen = vec![false; cfg.block_count()];
        let mut queue: VecDeque<BlockId> = VecDeque::new();
        for &(succ, _) in cfg.succ_ids(b) {
            if !std::mem::replace(&mut seen[succ as usize], true) {
                queue.push_back(succ);
            }
        }
        while let Some(x) = queue.pop_front() {
            if let Some(k) = index_of[x as usize] {
                let to = remap[&cluster[k]];
                phases[from]
                    .transitions
                    .entry(to)
                    .or_default()
                    .extend_from(label);
                continue;
            }
            for &(succ, _) in cfg.succ_ids(x) {
                if !std::mem::replace(&mut seen[succ as usize], true) {
                    queue.push_back(succ);
                }
            }
        }
    }
    let initial = syscall_blocks
        .first()
        .map(|_| remap[&cluster[0]])
        .unwrap_or(0);
    PhaseAutomaton {
        phases,
        initial,
        dfa_states: n,
        truncated: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bside_cfg::{CfgOptions, FunctionSym};
    use bside_x86::{Assembler, Cond, Reg};

    /// A two-phase program: an init phase invoking `open`, then a serving
    /// loop invoking `read`/`write`, then `exit`.
    fn two_phase_program() -> (Cfg, HashMap<u64, SyscallSet>) {
        let mut a = Assembler::new(0x1000);
        let serve = a.new_label();
        let out = a.new_label();

        // init: open
        a.mov_reg_imm32(Reg::Rax, 2);
        let open_site = a.cursor();
        a.syscall();
        // serving loop: read; write; loop back unless rdi == 0
        a.bind(serve).unwrap();
        a.mov_reg_imm32(Reg::Rax, 0);
        let read_site = a.cursor();
        a.syscall();
        a.mov_reg_imm32(Reg::Rax, 1);
        let write_site = a.cursor();
        a.syscall();
        a.cmp_reg_imm32(Reg::Rdi, 0);
        a.jcc_label(Cond::E, out);
        a.jmp_label(serve);
        // exit
        a.bind(out).unwrap();
        a.mov_reg_imm32(Reg::Rax, 60);
        let exit_site = a.cursor();
        a.syscall();
        a.ret();

        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "_start".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let cfg = Cfg::build(&code, 0x1000, &[0x1000], &funcs, &CfgOptions::default());

        let site = |addr: u64, raw: u32| {
            (
                addr,
                [Sysno::new(raw).unwrap()]
                    .into_iter()
                    .collect::<SyscallSet>(),
            )
        };
        let sets: HashMap<u64, SyscallSet> = [
            site(open_site, 2),
            site(read_site, 0),
            site(write_site, 1),
            site(exit_site, 60),
        ]
        .into_iter()
        .collect();
        (cfg, sets)
    }

    #[test]
    fn phases_separate_init_from_serving_loop() {
        let (cfg, sets) = two_phase_program();
        let automaton = detect_phases(&cfg, &sets, &PhaseOptions::default());
        assert!(!automaton.truncated);
        assert!(automaton.phases.len() >= 2, "init and loop must separate");

        // The initial phase allows `open` but not `write`.
        let initial = &automaton.phases[automaton.initial];
        let allowed = initial.allowed();
        assert!(allowed.contains(Sysno::new(2).unwrap()), "{allowed}");
        assert!(
            !allowed.contains(Sysno::new(1).unwrap()),
            "init must not allow write: {allowed}"
        );

        // Some phase (the serving loop) allows read and write together
        // via self-transitions.
        assert!(automaton.phases.iter().any(|p| {
            let a = p.allowed();
            a.contains(Sysno::new(0).unwrap()) && a.contains(Sysno::new(1).unwrap())
        }));
    }

    #[test]
    fn loop_phase_has_self_transitions() {
        let (cfg, sets) = two_phase_program();
        let automaton = detect_phases(&cfg, &sets, &PhaseOptions::default());
        let looping = automaton
            .phases
            .iter()
            .find(|p| p.transitions.contains_key(&p.id))
            .expect("the serving loop merges into one phase with self-loops");
        let self_loop = &looping.transitions[&looping.id];
        assert!(self_loop.contains(Sysno::new(0).unwrap()));
        assert!(self_loop.contains(Sysno::new(1).unwrap()));
    }

    #[test]
    fn back_propagation_absorbs_successors() {
        let (cfg, sets) = two_phase_program();
        let mut automaton = detect_phases(&cfg, &sets, &PhaseOptions::default());
        let before = automaton.phases[automaton.initial].allowed();
        automaton.back_propagate();
        let after = automaton.phases[automaton.initial].allowed();
        assert!(before.is_subset(&after));
        // After back-propagation the initial phase allows everything any
        // later phase allows (seccomp can only tighten).
        for raw in [0u32, 1, 2, 60] {
            assert!(after.contains(Sysno::new(raw).unwrap()), "missing {raw}");
        }
    }

    #[test]
    fn strictness_gain_is_positive_for_phased_program() {
        let (cfg, sets) = two_phase_program();
        let automaton = detect_phases(&cfg, &sets, &PhaseOptions::default());
        let mut whole = SyscallSet::new();
        for s in sets.values() {
            whole.extend_from(s);
        }
        let gain = automaton.strictness_gain(&whole);
        assert!(
            gain > 0.0,
            "phases must be stricter than the whole-program list, gain={gain}"
        );
        assert!(gain < 1.0);
    }

    #[test]
    fn naive_method_agrees_on_phase_count_shape() {
        let (cfg, sets) = two_phase_program();
        let automaton = detect_phases(&cfg, &sets, &PhaseOptions::default());
        let naive = detect_phases_naive(&cfg, &sets);
        // Both must find at least an init phase and a loop phase.
        assert!(automaton.phases.len() >= 2);
        assert!(naive.phases.len() >= 2);
        // And the loop shows up as a self-transition in both.
        assert!(naive
            .phases
            .iter()
            .any(|p| p.transitions.contains_key(&p.id)));
    }

    /// The number of distinct low-16-bit buckets that `hashes` land in.
    fn low_buckets(hashes: impl Iterator<Item = u64>) -> usize {
        let mut seen = vec![false; 1 << 16];
        hashes
            .filter(|&h| !std::mem::replace(&mut seen[h as usize & 0xffff], true))
            .count()
    }

    #[test]
    fn id_hash_spreads_high_key_bits_over_the_low_buckets() {
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<IdHasher>::default();
        // Every context of one block: keys that differ only in their
        // high half, which a multiply alone would put in one bucket.
        for block in [0, 1, 68, BlockId::MAX] {
            let keys = (0..1 << 16).map(|ctx| pack(ctx, block));
            let spread = low_buckets(keys.map(|k| hasher.hash_one(k)));
            assert!(spread >= 1 << 15, "block {block}: {spread} buckets");
        }
        // One-word states that differ only in their high node bits.
        for low in [0u64, 1, 0b1011] {
            let rows = (0..1u64 << 16).map(|i| [low | i << 48]);
            let spread = low_buckets(rows.map(|row| row_hash(&row)));
            assert!(spread >= 1 << 15, "low bits {low:#b}: {spread} buckets");
        }
    }

    #[test]
    fn interned_states_keep_their_ids_across_growth() {
        let mut states = States::new(2, 0);
        let rows: Vec<[u64; 2]> = (0..100u64).map(|i| [i, i << 40]).collect();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(states.intern(row), i as u32);
        }
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(states.intern(row), i as u32, "interned once");
            assert_eq!(states.row(i), row);
        }
        assert_eq!(states.len(), 100);
    }

    #[test]
    fn state_arena_grows_with_the_states_interned() {
        // Rows as wide as the default node cap, and a hint of one state
        // per node: the arena holds the states interned, not a row per
        // hinted state.
        let width = 500_000usize.div_ceil(64);
        let mut states = States::new(width, 500_000);
        for i in 0..3 {
            let mut row = vec![0; width];
            row[i] = 1;
            states.intern(&row);
        }
        assert_eq!(states.len(), 3);
        assert!(states.rows.capacity() <= 4 * width);
    }

    #[test]
    fn many_labelled_nodes_with_few_states() {
        // Dispatch on rdi over `n` handlers, each `read` then `ret`: n
        // labelled nodes, but the entry's ε-closure reaches them all and
        // `read` leads every one of them to a `ret`, so two states.
        let n = 5_000;
        let mut a = Assembler::new(0x1000);
        let handlers: Vec<_> = (0..n).map(|_| a.new_label()).collect();
        for (i, &h) in handlers.iter().enumerate() {
            a.cmp_reg_imm32(Reg::Rdi, i as i32);
            a.jcc_label(Cond::E, h);
        }
        a.ret();
        let mut sites = Vec::new();
        for &h in &handlers {
            a.bind(h).unwrap();
            a.mov_reg_imm32(Reg::Rax, 0);
            sites.push(a.cursor());
            a.syscall();
            a.ret();
        }
        let code = a.finish().unwrap();
        let funcs = [FunctionSym {
            name: "_start".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let cfg = Cfg::build(&code, 0x1000, &[0x1000], &funcs, &CfgOptions::default());
        let read: SyscallSet = [Sysno::new(0).unwrap()].into_iter().collect();
        let sets: HashMap<u64, SyscallSet> = sites.iter().map(|&s| (s, read)).collect();
        let automaton = detect_phases(&cfg, &sets, &PhaseOptions::default());
        assert!(!automaton.truncated);
        assert_eq!(automaton.dfa_states, 2);
        assert_eq!(automaton.phases.len(), 2);
        let initial = &automaton.phases[automaton.initial];
        // Everything but the `ret` after each `read`.
        assert_eq!(initial.blocks.len(), cfg.block_count() - n);
    }

    #[test]
    fn empty_program_yields_empty_automaton() {
        let mut a = Assembler::new(0x1000);
        a.ret();
        let code = a.finish().unwrap();
        let cfg = Cfg::build(
            &code,
            0x1000,
            &[0x1000],
            &[FunctionSym {
                name: "f".into(),
                entry: 0x1000,
                size: 1,
            }],
            &CfgOptions::default(),
        );
        let automaton = detect_phases(&cfg, &HashMap::new(), &PhaseOptions::default());
        assert_eq!(automaton.phases.len(), 1, "just the initial ε-closure");
        assert!(automaton.phases[0].allowed().is_empty());
    }
}
