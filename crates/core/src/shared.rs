//! Shared-library analysis and the *shared interface* (§4.5, step 3 of
//! Fig. 3).
//!
//! Analyzing `libc.so` once per dependent program would dominate every
//! run, so B-Side decouples the work: each library is analyzed **once**
//! into a JSON *shared interface* — for every exported function, the
//! system calls it can invoke directly plus the external functions it
//! calls — and the per-program pass merely resolves the executable's
//! imports through those interfaces. Cross-library calls are closed over
//! with a worklist fixpoint (the paper orders the library DAG with a
//! priority queue; the fixpoint computes the same closure and also
//! tolerates dependency cycles). The fixpoint depends only on the stored
//! interfaces, so it too runs once per store: [`LibraryStore::closure`]
//! memoizes it until the next [`LibraryStore::insert`].

use crate::{AnalysisError, Analyzer};
use bside_cfg::{BlockId, Cfg, EdgeKind};
use bside_elf::Elf;
use bside_syscalls::SyscallSet;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::OnceLock;

/// Per-export closed system call set and completeness flag.
type Closure = BTreeMap<String, (SyscallSet, bool)>;

/// Everything a consumer needs to know about one exported function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportInfo {
    /// System calls reachable from this export *within* the library.
    pub syscalls: SyscallSet,
    /// External (imported) functions this export can call; resolved
    /// against other libraries' interfaces at executable-analysis time.
    pub calls_out: BTreeSet<String>,
    /// `false` when a site under this export needed the conservative
    /// fallback.
    pub complete: bool,
}

/// The per-library analysis artifact (a JSON file in the paper, §4.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedInterface {
    /// Library name (`DT_NEEDED` spelling, e.g. `libc.so`).
    pub library: String,
    /// Exported functions and what they can invoke.
    pub exports: BTreeMap<String, ExportInfo>,
    /// Names of detected system call wrapper functions.
    pub wrappers: Vec<String>,
    /// Addresses taken within the library (item 3 of the paper's shared
    /// interface contents).
    pub addresses_taken: Vec<u64>,
    /// Function-level call graph (item 1): function → directly called
    /// functions, by name.
    pub function_cfg: BTreeMap<String, BTreeSet<String>>,
}

serde::impl_serde_struct!(ExportInfo {
    syscalls,
    calls_out,
    complete
});
serde::impl_serde_struct!(SharedInterface {
    library,
    exports,
    wrappers,
    addresses_taken,
    function_cfg,
});

impl SharedInterface {
    /// Serializes the interface to JSON (the on-disk format of §4.5).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("interface serializes")
    }

    /// Reads an interface back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// An in-memory collection of shared interfaces, indexed by library name.
#[derive(Debug, Clone, Default)]
pub struct LibraryStore {
    libs: BTreeMap<String, SharedInterface>,
    /// export name → owning library (first wins, mirroring link order).
    by_export: HashMap<String, String>,
    /// Memoized [`LibraryStore::closure`]; reset by every `insert`.
    closure: OnceLock<Closure>,
}

impl LibraryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a library's interface.
    pub fn insert(&mut self, interface: SharedInterface) {
        for name in interface.exports.keys() {
            self.by_export
                .entry(name.clone())
                .or_insert_with(|| interface.library.clone());
        }
        self.libs.insert(interface.library.clone(), interface);
        self.closure = OnceLock::new();
    }

    /// `true` if `library` has been analyzed into the store.
    pub fn contains(&self, library: &str) -> bool {
        self.libs.contains_key(library)
    }

    /// The stored interface for `library`.
    pub fn interface(&self, library: &str) -> Option<&SharedInterface> {
        self.libs.get(library)
    }

    /// Every stored interface, in library-name order — the deterministic
    /// iteration a content fingerprint of the whole library set needs
    /// (e.g. `bside-serve` mixes it into dynamic-binary store keys).
    pub fn interfaces(&self) -> impl Iterator<Item = &SharedInterface> {
        self.libs.values()
    }

    /// Number of stored libraries.
    pub fn len(&self) -> usize {
        self.libs.len()
    }

    /// `true` when no library is stored.
    pub fn is_empty(&self) -> bool {
        self.libs.is_empty()
    }

    /// Persists every stored interface as `<library>.interface.json`
    /// under `dir` — the on-disk shared-interface cache of §4.5 ("the
    /// first and computationally-expensive phase is done only once per
    /// library").
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_to_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, interface) in &self.libs {
            let path = dir.join(format!("{name}.interface.json"));
            std::fs::write(path, interface.to_json())?;
        }
        Ok(())
    }

    /// Loads every `*.interface.json` under `dir` into a store, in file
    /// name order, so an export-name collision resolves the same way on
    /// every filesystem (the name-order first library wins).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; malformed interface files are
    /// reported as `InvalidData`.
    pub fn load_from_dir(dir: &std::path::Path) -> std::io::Result<LibraryStore> {
        let mut paths = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".interface.json"))
            {
                paths.push(path);
            }
        }
        paths.sort_by(|a, b| a.file_name().cmp(&b.file_name()));
        let mut store = LibraryStore::new();
        for path in paths {
            let json = std::fs::read_to_string(&path)?;
            let interface = SharedInterface::from_json(&json).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            store.insert(interface);
        }
        Ok(store)
    }

    /// Computes the transitive closure of every export's system call set
    /// across all stored libraries: `closed(f) = own(f) ∪ ⋃ closed(g)`
    /// for every external `g` that `f` calls.
    ///
    /// Returns `(set, complete)` per export name. Unresolvable external
    /// names mark the export incomplete. A name exported by several
    /// libraries takes its set and its calls from the first inserted one
    /// (link order).
    ///
    /// The result depends only on the stored interfaces, so it is computed
    /// once per store and borrowed by every later call — concurrent
    /// callers included; [`LibraryStore::insert`] resets it.
    pub fn closure(&self) -> &BTreeMap<String, (SyscallSet, bool)> {
        self.closure.get_or_init(|| self.compute_closure())
    }

    fn compute_closure(&self) -> Closure {
        let mut state = Closure::new();
        for lib in self.libs.values() {
            for (name, info) in &lib.exports {
                if self.by_export.get(name) == Some(&lib.library) {
                    state.insert(name.clone(), (info.syscalls, info.complete));
                }
            }
        }
        // Worklist fixpoint over the cross-library call graph.
        let mut queue: VecDeque<String> = state.keys().cloned().collect();
        let mut enqueued: BTreeSet<String> = queue.iter().cloned().collect();
        while let Some(name) = queue.pop_front() {
            enqueued.remove(&name);
            let Some(lib_name) = self.by_export.get(&name) else {
                continue;
            };
            let info = &self.libs[lib_name].exports[&name];
            let mut merged = state[&name].0;
            let mut complete = state[&name].1;
            for callee in &info.calls_out {
                match state.get(callee) {
                    Some((set, c)) => {
                        merged.extend_from(set);
                        complete &= c;
                    }
                    None => complete = false, // unresolvable import
                }
            }
            if merged != state[&name].0 || complete != state[&name].1 {
                // Changed: re-examine everything that calls `name`.
                state.insert(name.clone(), (merged, complete));
                for lib in self.libs.values() {
                    for (caller, caller_info) in &lib.exports {
                        if caller_info.calls_out.contains(&name) && enqueued.insert(caller.clone())
                        {
                            queue.push_back(caller.clone());
                        }
                    }
                }
            }
        }
        state
    }

    /// Resolves one export of `module` (a dlopen-style loaded object)
    /// against the store, closing over its external calls.
    pub fn resolve_export_set(&self, _module: &SharedInterface, export: &ExportInfo) -> SyscallSet {
        let closure = self.closure();
        let mut set = export.syscalls;
        for callee in &export.calls_out {
            if let Some((s, _)) = closure.get(callee) {
                set.extend_from(s);
            }
        }
        set
    }
}

/// The external-call resolution result for a dynamic executable.
#[derive(Debug, Clone)]
pub struct ExternalResolution {
    /// System calls reachable through imported functions.
    pub syscalls: SyscallSet,
    /// `false` when an import could not be resolved or a library export
    /// was itself incomplete.
    pub complete: bool,
    /// Imported functions that were actually reachable from the program.
    pub resolved_imports: BTreeSet<String>,
}

/// Resolves the reachable imported calls of a dynamic executable through
/// the shared interfaces (steps J–M of Fig. 3).
pub(crate) fn resolve_external_calls(
    elf: &Elf,
    cfg: &Cfg,
    libs: &LibraryStore,
) -> Result<ExternalResolution, AnalysisError> {
    // GOT slot → imported symbol name, from .rela.plt.
    let mut slot_to_symbol: HashMap<u64, &str> = HashMap::new();
    for rela in elf.plt_relocations() {
        slot_to_symbol.insert(rela.r_offset, rela.symbol_name.as_str());
    }

    let closure = libs.closure();
    let mut out = ExternalResolution {
        syscalls: SyscallSet::new(),
        complete: true,
        resolved_imports: BTreeSet::new(),
    };

    let reached_stubs = (0..cfg.block_count() as BlockId)
        .filter(|&id| cfg.reached()[id as usize])
        .filter_map(|id| cfg.plt_slot(id));
    for got_slot in reached_stubs {
        let Some(&symbol) = slot_to_symbol.get(&got_slot) else {
            // A stub with no relocation: cannot name the import.
            out.complete = false;
            continue;
        };
        out.resolved_imports.insert(symbol.to_string());
        match closure.get(symbol) {
            Some((set, complete)) => {
                out.syscalls.extend_from(set);
                out.complete &= complete;
            }
            None => out.complete = false,
        }
    }
    Ok(out)
}

/// Analyzes a shared library into its [`SharedInterface`] (§4.5).
pub(crate) fn analyze_library(
    analyzer: &Analyzer,
    elf: &Elf,
    name: &str,
    exposed: Option<&[String]>,
) -> Result<SharedInterface, AnalysisError> {
    let mut exports: Vec<(String, u64)> = elf
        .exported_functions()
        .into_iter()
        .filter(|s| exposed.is_none_or(|names| names.iter().any(|n| n == &s.name)))
        .map(|s| (s.name.clone(), s.value))
        .collect();
    // Deterministic processing (and error-selection) order for the
    // parallel per-export fan-out below.
    exports.sort();
    if exports.is_empty() {
        return Err(AnalysisError::NoEntry);
    }
    let entries: Vec<u64> = exports.iter().map(|&(_, addr)| addr).collect();

    // Steps D–H rooted at the exposed functions.
    let analysis = analyzer.analyze_with_entries(elf, &entries, None)?;
    let cfg = &analysis.cfg;

    // Site → identified set, for per-export attribution. Wrapper sites
    // are excluded here: their set is the union over *every* caller in
    // the library (Fig. 2 B); attributing that union to each export would
    // be exactly the over-estimation B-Side avoids. They are re-queried
    // per export below, restricted to the export's reachable blocks.
    let wrapper_sites: std::collections::HashSet<u64> = analysis
        .wrappers
        .iter()
        .flat_map(|w| w.sites.iter().copied())
        .collect();
    let site_sets: HashMap<u64, &SyscallSet> = analysis
        .sites
        .iter()
        .filter(|s| !wrapper_sites.contains(&s.site))
        .map(|s| (s.site, &s.syscalls))
        .collect();
    let site_complete: HashMap<u64, bool> = analysis
        .sites
        .iter()
        .map(|s| {
            (
                s.site,
                !matches!(s.outcome, crate::SiteOutcome::ConservativeFallback),
            )
        })
        .collect();

    // GOT slot → import name for external call attribution.
    let mut slot_to_symbol: HashMap<u64, String> = HashMap::new();
    for rela in elf.plt_relocations() {
        slot_to_symbol.insert(rela.r_offset, rela.symbol_name.clone());
    }

    // Each export's attribution — block BFS plus restricted wrapper
    // re-queries — touches only shared read-only state; fan the exports
    // out across workers (cancelling on the first budget exhaustion) and
    // fold the results back in input order.
    let export_results = crate::par::run_indexed_ctx_fallible(
        analyzer.options().parallelism,
        &exports,
        bside_symex::SearchScratch::new,
        |scratch, _, (export_name, entry)| {
            analyze_one_export(
                analyzer,
                cfg,
                &analysis.wrappers,
                &site_sets,
                &site_complete,
                &slot_to_symbol,
                *entry,
                scratch,
            )
            .map(|info| (export_name.clone(), info))
        },
    )?;
    let mut export_infos: BTreeMap<String, ExportInfo> = BTreeMap::new();
    for (export_name, info) in export_results {
        export_infos.insert(export_name, info);
    }

    Ok(SharedInterface {
        library: name.to_string(),
        exports: export_infos,
        wrappers: analysis.wrappers.iter().map(|w| w.name.clone()).collect(),
        addresses_taken: cfg.addresses_taken().iter().copied().collect(),
        function_cfg: function_call_graph(cfg),
    })
}

/// The function-level call graph (item 1 of the interface contents):
/// each symbol whose entry lies in a block maps to the functions its
/// blocks call directly. One pass credits every `Call` edge to the entry
/// of its block's function, so symbols sharing an entry share the callee
/// set; a later symbol of the same name replaces an earlier one.
fn function_call_graph(cfg: &Cfg) -> BTreeMap<String, BTreeSet<String>> {
    let function_at = |id: BlockId| cfg.function_of(cfg.block_at(id).start);
    let mut callees: HashMap<u64, BTreeSet<String>> = HashMap::new();
    for id in 0..cfg.block_count() as BlockId {
        let Some(f) = function_at(id) else {
            continue;
        };
        for &(to, kind) in cfg.succ_ids(id) {
            if let (EdgeKind::Call, Some(g)) = (kind, function_at(to)) {
                callees.entry(f.entry).or_default().insert(g.name.clone());
            }
        }
    }
    let mut graph = BTreeMap::new();
    for f in cfg.functions() {
        if cfg.block_id_containing(f.entry).is_some() {
            let set = callees.get(&f.entry).cloned().unwrap_or_default();
            graph.insert(f.name.clone(), set);
        }
    }
    graph
}

/// Attributes one export: BFS over its reachable blocks collecting direct
/// site sets and outgoing PLT calls, then re-queries reachable wrapper
/// sites restricted to those blocks (§4.5). The per-worker unit of the
/// parallel per-export fan-out; `scratch` is the worker's reusable
/// search buffer.
#[allow(clippy::too_many_arguments)]
fn analyze_one_export(
    analyzer: &Analyzer,
    cfg: &Cfg,
    wrappers: &[crate::WrapperInfo],
    site_sets: &HashMap<u64, &SyscallSet>,
    site_complete: &HashMap<u64, bool>,
    slot_to_symbol: &HashMap<u64, String>,
    entry: u64,
    scratch: &mut bside_symex::SearchScratch,
) -> Result<ExportInfo, AnalysisError> {
    let mut info = ExportInfo {
        syscalls: SyscallSet::new(),
        calls_out: BTreeSet::new(),
        complete: true,
    };
    // Per-export reachability over the library CFG, in BFS order: `seen`
    // marks the ids `queue` lists.
    let Some(entry_block) = cfg.block_id_containing(entry) else {
        return Ok(info);
    };
    let mut seen = vec![false; cfg.block_count()];
    seen[entry_block as usize] = true;
    let mut queue = vec![entry_block];
    let mut next = 0;
    while let Some(&b) = queue.get(next) {
        next += 1;
        if let Some(slot) = cfg.plt_slot(b) {
            match slot_to_symbol.get(&slot) {
                Some(sym) => {
                    info.calls_out.insert(sym.clone());
                }
                None => info.complete = false,
            }
        }
        for insn in cfg.block_at(b).insns {
            if let Some(set) = site_sets.get(&insn.addr) {
                info.syscalls.extend_from(set);
                info.complete &= site_complete.get(&insn.addr).copied().unwrap_or(false);
            }
        }
        for &(to, kind) in cfg.succ_ids(b) {
            if kind != EdgeKind::Return && !std::mem::replace(&mut seen[to as usize], true) {
                queue.push(to);
            }
        }
    }
    // Wrapper sites reachable from this export: query the wrapper
    // parameter with the search universe restricted to the export's
    // blocks, so only numbers this export can pass are attributed.
    for w in wrappers {
        let Some(wb) = cfg.block_id_containing(w.entry) else {
            continue;
        };
        if !seen[wb as usize] {
            continue;
        }
        let (set, complete) =
            crate::identify::identify_wrapper(cfg, w, analyzer.options(), Some(&seen), scratch)?;
        info.syscalls.extend_from(&set);
        info.complete &= complete;
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bside_syscalls::well_known as wk;

    /// The call-graph loop `function_call_graph` replaced, kept as the
    /// reference: for each symbol, a rescan of every block.
    fn call_graph_by_rescan(cfg: &Cfg) -> BTreeMap<String, BTreeSet<String>> {
        let function_at = |id: BlockId| cfg.function_of(cfg.block_at(id).start);
        let mut graph = BTreeMap::new();
        for f in cfg.functions() {
            if cfg.block_id_containing(f.entry).is_none() {
                continue;
            }
            let mut callees = BTreeSet::new();
            for id in 0..cfg.block_count() as BlockId {
                if function_at(id).is_none_or(|g| g.entry != f.entry) {
                    continue;
                }
                for &(to, kind) in cfg.succ_ids(id) {
                    if kind == EdgeKind::Call {
                        if let Some(g) = function_at(to) {
                            callees.insert(g.name.clone());
                        }
                    }
                }
            }
            graph.insert(f.name.clone(), callees);
        }
        graph
    }

    #[test]
    fn call_graph_matches_the_rescan_on_generated_libraries() {
        use bside_gen::{ExportSpec, LibrarySpec, WrapperStyle};
        let demo = bside_gen::generate_library(&LibrarySpec {
            name: "libdemo.so".into(),
            exports: vec![
                ExportSpec {
                    name: "demo_read".into(),
                    syscalls: vec![0],
                    calls: vec![],
                },
                ExportSpec {
                    name: "demo_write_close".into(),
                    syscalls: vec![1, 3],
                    calls: vec!["demo_read".into()],
                },
            ],
            wrapper_style: WrapperStyle::Register,
            base: 0x7000_0000,
            libs: vec![],
        });
        let pool = bside_gen::corpus::corpus_with_size(bside_gen::corpus::DEFAULT_SEED, 0, 0, 6);
        let analyzer = Analyzer::new(crate::AnalyzerOptions::default());
        let mut edges = 0;
        for lib in std::iter::once(&demo).chain(&pool.libraries) {
            let entries: Vec<u64> = lib
                .elf
                .exported_functions()
                .iter()
                .map(|s| s.value)
                .collect();
            let analysis = analyzer
                .analyze_with_entries(&lib.elf, &entries, None)
                .expect("analyzes");
            let graph = function_call_graph(&analysis.cfg);
            assert_eq!(
                graph,
                call_graph_by_rescan(&analysis.cfg),
                "{}",
                lib.spec.name
            );
            edges += graph.values().map(BTreeSet::len).sum::<usize>();
        }
        assert!(edges > 0, "the libraries call functions");
    }

    #[test]
    fn call_graph_keeps_shared_entries_and_later_names() {
        use bside_cfg::{CfgOptions, FunctionSym};
        let mut a = bside_x86::Assembler::new(0x1000);
        let (f, g) = (a.new_label(), a.new_label());
        a.call_label(f);
        a.ret();
        let f_addr = a.cursor();
        a.bind(f).unwrap();
        a.call_label(g);
        a.ret();
        let g_addr = a.cursor();
        a.bind(g).unwrap();
        a.ret();
        let code = a.finish().unwrap();
        let sym = |name: &str, entry: u64, size: u64| FunctionSym {
            name: name.into(),
            entry,
            size,
        };
        let funcs = [
            sym("main", 0x1000, f_addr - 0x1000),
            // Shares main's entry, so it gets main's callees.
            sym("start", 0x1000, 0),
            sym("f", f_addr, g_addr - f_addr),
            sym("g", g_addr, 1),
            // A later `f` replaces the first one's callees with g's.
            sym("f", g_addr, 1),
            // In no block: stays absent and replaces nothing.
            sym("main", 0x9000, 0),
        ];
        let cfg = Cfg::build(&code, 0x1000, &[0x1000], &funcs, &CfgOptions::default());
        let graph = function_call_graph(&cfg);
        let callees = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
        let expected: BTreeMap<String, BTreeSet<String>> = [
            ("main".to_string(), callees(&["f"])),
            ("start".to_string(), callees(&["f"])),
            ("f".to_string(), callees(&[])),
            ("g".to_string(), callees(&[])),
        ]
        .into();
        assert_eq!(graph, expected);
        assert_eq!(call_graph_by_rescan(&cfg), expected);
    }

    fn export(syscalls: &[bside_syscalls::Sysno], calls: &[&str]) -> ExportInfo {
        ExportInfo {
            syscalls: syscalls.iter().copied().collect(),
            calls_out: calls.iter().map(|s| s.to_string()).collect(),
            complete: true,
        }
    }

    fn lib(name: &str, exports: Vec<(&str, ExportInfo)>) -> SharedInterface {
        SharedInterface {
            library: name.into(),
            exports: exports
                .into_iter()
                .map(|(n, e)| (n.to_string(), e))
                .collect(),
            wrappers: Vec::new(),
            addresses_taken: Vec::new(),
            function_cfg: BTreeMap::new(),
        }
    }

    #[test]
    fn closure_follows_cross_library_calls() {
        let mut store = LibraryStore::new();
        store.insert(lib(
            "liba.so",
            vec![("a_fn", export(&[wk::READ], &["b_fn"]))],
        ));
        store.insert(lib("libb.so", vec![("b_fn", export(&[wk::WRITE], &[]))]));
        let closure = store.closure();
        let (set, complete) = &closure["a_fn"];
        assert!(complete);
        assert!(set.contains(wk::READ) && set.contains(wk::WRITE));
        assert_eq!(closure["b_fn"].0.len(), 1);
    }

    #[test]
    fn closure_handles_cycles() {
        let mut store = LibraryStore::new();
        store.insert(lib(
            "liba.so",
            vec![("a_fn", export(&[wk::READ], &["b_fn"]))],
        ));
        store.insert(lib(
            "libb.so",
            vec![("b_fn", export(&[wk::WRITE], &["a_fn"]))],
        ));
        let closure = store.closure();
        for name in ["a_fn", "b_fn"] {
            let (set, _) = &closure[name];
            assert!(set.contains(wk::READ) && set.contains(wk::WRITE), "{name}");
        }
    }

    #[test]
    fn unresolvable_import_marks_incomplete() {
        let mut store = LibraryStore::new();
        store.insert(lib(
            "liba.so",
            vec![("a_fn", export(&[wk::READ], &["missing_fn"]))],
        ));
        let closure = store.closure();
        assert!(!closure["a_fn"].1);
    }

    #[test]
    fn interface_json_round_trip() {
        let interface = lib(
            "libc.so",
            vec![
                ("write", export(&[wk::WRITE], &[])),
                ("printf", export(&[wk::WRITE, wk::BRK], &["write"])),
            ],
        );
        let json = interface.to_json();
        let back = SharedInterface::from_json(&json).expect("parses");
        assert_eq!(interface, back);
        assert!(json.contains("\"library\""));
    }

    #[test]
    fn first_export_wins_on_name_collision() {
        let mut store = LibraryStore::new();
        store.insert(lib("liba.so", vec![("f", export(&[wk::READ], &[]))]));
        store.insert(lib("libb.so", vec![("f", export(&[wk::WRITE], &[]))]));
        // Resolution keyed by name uses liba's entry (link order), for
        // both the owner index and the closed set.
        assert_eq!(store.by_export["f"], "liba.so");
        assert_eq!(store.closure()["f"].0, [wk::READ].into_iter().collect());
    }

    #[test]
    fn colliding_exports_resolve_from_one_library() {
        // libb's `f` calls `g`; liba's `f` does not. The owner's set and
        // calls must be used together.
        let mut store = LibraryStore::new();
        store.insert(lib("liba.so", vec![("f", export(&[wk::READ], &[]))]));
        store.insert(lib(
            "libb.so",
            vec![("f", export(&[], &["g"])), ("g", export(&[wk::WRITE], &[]))],
        ));
        assert_eq!(
            store.closure()["f"],
            ([wk::READ].into_iter().collect(), true)
        );
    }

    #[test]
    fn load_from_dir_resolves_collisions_in_name_order() {
        let dir =
            std::env::temp_dir().join(format!("bside-store-collision-{}", std::process::id()));
        let mut saved = LibraryStore::new();
        // The saved store's own winner is libb (inserted first); the
        // loaded store's must be liba, the name-order first file.
        saved.insert(lib("libb.so", vec![("f", export(&[wk::WRITE], &[]))]));
        saved.insert(lib("liba.so", vec![("f", export(&[wk::READ], &[]))]));
        saved.save_to_dir(&dir).expect("saves");
        let loaded = LibraryStore::load_from_dir(&dir).expect("loads");
        std::fs::remove_dir_all(&dir).expect("cleans up");
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.by_export["f"], "liba.so");
        assert_eq!(loaded.closure()["f"].0, [wk::READ].into_iter().collect());
    }

    #[test]
    fn closure_is_memoized() {
        let mut store = LibraryStore::new();
        store.insert(lib("liba.so", vec![("a_fn", export(&[wk::READ], &[]))]));
        assert!(std::ptr::eq(store.closure(), store.closure()));
    }

    #[test]
    fn insert_invalidates_memoized_closure() {
        let mut store = LibraryStore::new();
        store.insert(lib(
            "liba.so",
            vec![("a_fn", export(&[wk::READ], &["b_fn"]))],
        ));
        assert!(!store.closure()["a_fn"].1, "b_fn not yet stored");
        store.insert(lib("libb.so", vec![("b_fn", export(&[wk::WRITE], &[]))]));
        let (set, complete) = &store.closure()["a_fn"];
        assert!(complete);
        assert_eq!(*set, [wk::READ, wk::WRITE].into_iter().collect());
    }

    #[test]
    fn concurrent_callers_share_one_closure() {
        let mut store = LibraryStore::new();
        store.insert(lib(
            "liba.so",
            vec![("a_fn", export(&[wk::READ], &["b_fn"]))],
        ));
        store.insert(lib("libb.so", vec![("b_fn", export(&[wk::WRITE], &[]))]));
        let store = &store;
        // All eight reach the still-empty cell together.
        let start = std::sync::Barrier::new(8);
        let closures: Vec<&Closure> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        store.closure()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        for closure in closures {
            assert!(std::ptr::eq(closure, store.closure()));
            assert_eq!(
                closure["a_fn"].0,
                [wk::READ, wk::WRITE].into_iter().collect()
            );
        }
    }
}
