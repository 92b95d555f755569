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
//! Call strings are interned as a parent-pointer trie, and DFA states
//! and ε-closures are fixed-width bitsets over the expanded nodes plus a
//! halt bit, so a state costs about `nodes / 8` bytes. The stages are
//! `bside-obs` spans: `phases.expand`, `phases.powerset`, `phases.merge`.
//!
//! The intuitive alternative — navigating the CFG and merging
//! highly-connected syscall nodes directly — is implemented in
//! [`detect_phases_naive`] for the cost comparison the paper reports
//! (41 s vs 700 s on a hello-world; automaton wins).

use bside_cfg::{BasicBlock, Cfg};
use bside_obs as obs;
use bside_syscalls::{SyscallSet, Sysno};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

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

/// Per-block NFA labeling: a block's outgoing edges carry the union of
/// its sites' system call sets; blocks without sites emit ε.
fn block_labels(cfg: &Cfg, site_sets: &HashMap<u64, SyscallSet>) -> HashMap<u64, SyscallSet> {
    let mut labels: HashMap<u64, SyscallSet> = HashMap::new();
    for (&site, set) in site_sets {
        // Blocks partition the decoded instructions in address order, so
        // only the last block starting at or before a site can hold it.
        if let Some((&start, block)) = cfg.blocks().range(..=site).next_back() {
            if block.insns.iter().any(|i| i.addr == site) {
                labels.entry(start).or_default().extend_from(set);
            }
        }
    }
    labels
}

/// The context-expanded NFA graph: nodes are `(call-string, block)` pairs
/// so that `ret` resolves to the matching caller's continuation instead
/// of every caller's (which would fuse unrelated phases).
struct Expanded<'a> {
    /// Underlying block of each node.
    block: Vec<u64>,
    /// Each node's label, looked up once; `None` means ε edges.
    label: Vec<Option<&'a SyscallSet>>,
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

/// Breadth-first builder of [`Expanded`]. Call strings are interned as
/// a parent-pointer trie with `u32` ids: context 0 is the empty string,
/// and context `c > 0` is context `ctx_parent[c]` followed by the call
/// block `ctx_call[c]`.
struct Expander<'a> {
    labels: &'a HashMap<u64, SyscallSet>,
    ctx_parent: Vec<u32>,
    ctx_call: Vec<u64>,
    ctx_depth: Vec<usize>,
    ctx_ids: HashMap<(u32, u64), u32>,
    node_ids: HashMap<(u32, u64), u32>,
    node_ctx: Vec<u32>,
    graph: Expanded<'a>,
    queue: VecDeque<u32>,
}

impl Expander<'_> {
    /// The context `ctx` extended by the call in block `call`.
    fn push_ctx(&mut self, ctx: u32, call: u64) -> u32 {
        let next = self.ctx_parent.len() as u32;
        *self.ctx_ids.entry((ctx, call)).or_insert_with(|| {
            self.ctx_parent.push(ctx);
            self.ctx_call.push(call);
            self.ctx_depth.push(self.ctx_depth[ctx as usize] + 1);
            next
        })
    }

    /// The node `(ctx, b)`, created and queued on first sight.
    fn node(&mut self, ctx: u32, b: u64) -> u32 {
        let next = self.graph.block.len() as u32;
        let id = *self.node_ids.entry((ctx, b)).or_insert(next);
        if id == next {
            self.graph.block.push(b);
            self.graph.label.push(self.labels.get(&b));
            self.node_ctx.push(ctx);
            self.queue.push_back(id);
        }
        id
    }
}

fn expand<'a>(
    cfg: &'a Cfg,
    labels: &'a HashMap<u64, SyscallSet>,
    depth: usize,
    max_nodes: usize,
) -> Expanded<'a> {
    use bside_cfg::EdgeKind;
    use bside_x86::Op;

    let mut x = Expander {
        labels,
        ctx_parent: vec![0],
        ctx_call: vec![0],
        ctx_depth: vec![0],
        ctx_ids: HashMap::new(),
        node_ids: HashMap::with_capacity(cfg.reachable().len()),
        node_ctx: Vec::new(),
        graph: Expanded {
            block: Vec::new(),
            label: Vec::new(),
            succ_offsets: vec![0],
            succ_edges: Vec::new(),
            entries: Vec::new(),
            truncated: false,
        },
        queue: VecDeque::new(),
    };
    for &e in cfg.entries() {
        if let Some(b) = cfg.block_containing(e) {
            let id = x.node(0, b);
            x.graph.entries.push(id);
        }
    }

    let mut out: Vec<u32> = Vec::new();
    while let Some(id) = x.queue.pop_front() {
        if x.graph.block.len() > max_nodes {
            x.graph.truncated = true;
            break;
        }
        let (b, ctx) = (x.graph.block[id as usize], x.node_ctx[id as usize]);
        out.clear();
        match cfg.block(b).map(|bb| bb.terminator().op) {
            Some(Op::Call(_)) => {
                let mut entered = false;
                for &(to, kind) in cfg.succs(b) {
                    if matches!(kind, EdgeKind::Call | EdgeKind::Indirect)
                        && !cfg.plt_stubs().contains_key(&to)
                        && x.ctx_depth[ctx as usize] < depth
                    {
                        let callee_ctx = x.push_ctx(ctx, b);
                        out.push(x.node(callee_ctx, to));
                        entered = true;
                    }
                }
                if !entered {
                    // Depth-capped, external (PLT), or unresolved: step
                    // over the call.
                    for &(to, kind) in cfg.succs(b) {
                        if kind == EdgeKind::FallThrough {
                            out.push(x.node(ctx, to));
                        }
                    }
                }
            }
            // Empty context: the entry function returned — halt.
            Some(Op::Ret) if ctx != 0 => {
                let (call_block, caller_ctx) =
                    (x.ctx_call[ctx as usize], x.ctx_parent[ctx as usize]);
                let cont = cfg
                    .block(call_block)
                    .and_then(|cb| cfg.block_containing(cb.terminator().end()));
                if let Some(cont) = cont {
                    out.push(x.node(caller_ctx, cont));
                }
            }
            Some(Op::Ret) | None => {}
            Some(_) => {
                for &(to, kind) in cfg.succs(b) {
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
            if n == self.halt || self.expanded.label[n].is_some() {
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
    let halt = expanded.block.len();
    let width = (halt + 1).div_ceil(64);
    let mut set = NodeSet {
        expanded: &expanded,
        halt,
        bits: vec![0; width],
        stack: Vec::new(),
    };
    for &e in &expanded.entries {
        set.insert(e as usize);
    }
    set.close();
    let mut states: Vec<Rc<[u64]>> = vec![Rc::from(&set.bits[..])];
    let mut state_ids: HashMap<Rc<[u64]>, usize> = HashMap::new();
    state_ids.insert(states[0].clone(), 0);
    let mut dfa_edges: Vec<Vec<(u32, usize)>> = vec![Vec::new()]; // (sysno.raw, state), ascending
    let mut truncated = expanded.truncated;
    let mut queue: VecDeque<usize> = [0].into();
    let mut labelled: Vec<(usize, &SyscallSet)> = Vec::new();

    while let Some(sid) = queue.pop_front() {
        if dfa_edges.len() > options.max_dfa_states {
            truncated = true;
            break;
        }
        let state = states[sid].clone();
        labelled.clear();
        labelled.extend(
            members(&state)
                .filter(|&n| n != halt)
                .filter_map(|n| Some((n, expanded.label[n]?))),
        );
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
            let next_id = match state_ids.get(&set.bits[..]) {
                Some(&id) => id,
                None => {
                    let id = dfa_edges.len();
                    let state: Rc<[u64]> = Rc::from(&set.bits[..]);
                    state_ids.insert(state.clone(), id);
                    states.push(state);
                    dfa_edges.push(Vec::new());
                    queue.push_back(id);
                    id
                }
            };
            dfa_edges[sid].push((sym.raw(), next_id));
        }
    }
    let dfa_states = dfa_edges.len();
    span.finish();

    // ---- merge highly-connected states: SCC condensation -----------------------
    let span = obs::span("phases.merge");
    let scc = tarjan_scc(&dfa_edges);
    let phase_count = scc.iter().copied().max().map(|m| m + 1).unwrap_or(0);

    // Each phase's node set is the union of its states' sets.
    let mut phase_nodes = vec![0u64; phase_count * width];
    for (sid, state) in states.iter().enumerate() {
        let union = &mut phase_nodes[scc[sid] * width..(scc[sid] + 1) * width];
        for (acc, &w) in union.iter_mut().zip(state.iter()) {
            *acc |= w;
        }
    }
    let mut phases: Vec<Phase> = phase_nodes
        .chunks_exact(width)
        .enumerate()
        .map(|(id, nodes)| {
            let blocks: BTreeSet<u64> = members(nodes)
                .filter(|&n| n != halt)
                .map(|n| expanded.block[n])
                .collect();
            let code_bytes = blocks
                .iter()
                .map(|&b| cfg.block(b).map(BasicBlock::byte_size).unwrap_or(0))
                .sum();
            Phase {
                id,
                blocks,
                transitions: BTreeMap::new(),
                code_bytes,
            }
        })
        .collect();
    for (sid, edges) in dfa_edges.iter().enumerate() {
        let from = scc[sid];
        for &(sym, to_state) in edges {
            let to = scc[to_state];
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

/// Tarjan's strongly-connected components of the DFA, whose state `v`
/// has the successors `edges[v]` (in order); returns a component id per
/// state. Iterative to survive deep DFAs.
fn tarjan_scc(edges: &[Vec<(u32, usize)>]) -> Vec<usize> {
    #[derive(Clone, Copy)]
    struct Node {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let n = edges.len();
    let mut nodes = vec![
        Node {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false
        };
        n
    ];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    // Iterative DFS: each frame is a vertex and the cursor into its edges.
    let mut call: Vec<(usize, usize)> = Vec::new();

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
            if let Some(&(_, w)) = edges[v].get(*cursor) {
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
    let syscall_blocks: Vec<u64> = {
        let mut v: Vec<u64> = labels.keys().copied().collect();
        v.sort_unstable();
        v
    };
    let n = syscall_blocks.len();

    // cluster id per syscall block.
    let mut cluster: Vec<usize> = (0..n).collect();
    let index_of: HashMap<u64, usize> = syscall_blocks
        .iter()
        .enumerate()
        .map(|(i, &b)| (b, i))
        .collect();

    // BFS: does `from` reach `to` without entering a syscall block of a
    // third cluster? Recomputed from scratch every time — the naive cost.
    let reaches = |from: usize, to: usize, cluster: &[usize]| -> bool {
        let (src, dst) = (syscall_blocks[from], syscall_blocks[to]);
        let allowed_cluster = (cluster[from], cluster[to]);
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut queue: VecDeque<u64> = VecDeque::new();
        queue.push_back(src);
        while let Some(b) = queue.pop_front() {
            for &(succ, _) in cfg.succs(b) {
                if succ == dst {
                    return true;
                }
                if let Some(&k) = index_of.get(&succ) {
                    let c = cluster[k];
                    if c != allowed_cluster.0 && c != allowed_cluster.1 {
                        continue; // a third cluster blocks the path
                    }
                }
                if seen.insert(succ) {
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
        phases[pid].blocks.insert(b);
        phases[pid].code_bytes += cfg.block(b).map(BasicBlock::byte_size).unwrap_or(0);
    }
    // Transitions: per source syscall block, the next syscall blocks
    // reachable without crossing a third block (one more navigation).
    for (i, &b) in syscall_blocks.iter().enumerate() {
        let from = remap[&cluster[i]];
        let label = &labels[&b];
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut queue: VecDeque<u64> = VecDeque::new();
        for &(succ, _) in cfg.succs(b) {
            if seen.insert(succ) {
                queue.push_back(succ);
            }
        }
        while let Some(x) = queue.pop_front() {
            if let Some(&k) = index_of.get(&x) {
                let to = remap[&cluster[k]];
                phases[from]
                    .transitions
                    .entry(to)
                    .or_default()
                    .extend_from(label);
                continue;
            }
            for &(succ, _) in cfg.succs(x) {
                if seen.insert(succ) {
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
