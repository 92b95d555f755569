//! The Debian-like evaluation corpus (§5.2 of the paper).
//!
//! The paper measures precision at scale over 557 ELF executables pulled
//! from the Debian 10 repositories — 231 static, 326 dynamically compiled
//! with 59 shared library dependencies, compiled from C, C++, Haskell,
//! Go, etc. This module generates a corpus with the same composition from
//! a seed: binary sizes, wrapper styles ("languages"), dead-code volume,
//! function-pointer density and library fan-out are all drawn from a
//! deterministic RNG, and every binary carries its exact ground truth.

use crate::{
    generate, generate_library, ExportSpec, GeneratedLibrary, GeneratedProgram, LibrarySpec,
    ProgramSpec, Scenario, WrapperStyle,
};
use bside_elf::ElfKind;
use bside_syscalls::SyscallSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The default corpus seed; harnesses use it so every table regenerates
/// identically.
pub const DEFAULT_SEED: u64 = 0xB51D_E000;

/// `(name, path)` pairs of materialized on-disk artifacts (binaries or
/// libraries).
pub type MaterializedUnits = Vec<(String, std::path::PathBuf)>;

/// One corpus binary with its provenance.
#[derive(Debug, Clone)]
pub struct CorpusBinary {
    /// The generated program.
    pub program: GeneratedProgram,
    /// `true` for static executables (the 231-strong half of Table 2).
    pub is_static: bool,
    /// Names of the libraries the binary links against.
    pub lib_names: Vec<String>,
}

impl CorpusBinary {
    /// Full runtime ground truth against the corpus libraries.
    pub fn truth(&self, libs: &[GeneratedLibrary]) -> SyscallSet {
        self.program.truth_with_libs(libs)
    }

    /// Sound static superset against the corpus libraries.
    pub fn static_truth(&self, libs: &[GeneratedLibrary]) -> SyscallSet {
        self.program.static_truth_with_libs(libs)
    }
}

/// A generated corpus: shared libraries plus binaries.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The shared-library pool (59 in the full corpus).
    pub libraries: Vec<GeneratedLibrary>,
    /// The binaries (557 in the full corpus).
    pub binaries: Vec<CorpusBinary>,
}

impl Corpus {
    /// Writes every **static** binary of the corpus to `dir` as a
    /// standalone ELF file and returns `(name, path)` pairs in corpus
    /// order — the unit list an agent-backed corpus run consumes (its
    /// coordinator reads the inputs from disk and ships them to agents).
    ///
    /// File names are prefixed with the zero-padded corpus index so that
    /// lexicographic directory order equals corpus input order, keeping
    /// directory-driven runs deterministic.
    pub fn materialize_static(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<Vec<(String, std::path::PathBuf)>> {
        std::fs::create_dir_all(dir)?;
        let mut units = Vec::new();
        for (i, binary) in self.binaries.iter().filter(|b| b.is_static).enumerate() {
            let name = format!("{i:04}_{}", binary.program.spec.name);
            let path = dir.join(format!("{name}.elf"));
            std::fs::write(&path, &binary.program.image)?;
            units.push((name, path));
        }
        Ok(units)
    }

    /// Writes **every** binary of the corpus (static and dynamic) to
    /// `dir` — same `{index}_{name}.elf` naming as
    /// [`Corpus::materialize_static`], indexed over the whole corpus —
    /// and the shared-library pool to `dir/libs/<name>` (the `.so` files
    /// a `bside interface` pass turns into the §4.5 interface JSONs a
    /// policy daemon serves dynamic binaries from). Returns the binary
    /// `(name, path)` units in corpus order plus the library
    /// `(name, path)` pairs.
    pub fn materialize(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<(MaterializedUnits, MaterializedUnits)> {
        std::fs::create_dir_all(dir)?;
        let mut units = Vec::new();
        for (i, binary) in self.binaries.iter().enumerate() {
            let name = format!("{i:04}_{}", binary.program.spec.name);
            let path = dir.join(format!("{name}.elf"));
            std::fs::write(&path, &binary.program.image)?;
            units.push((name, path));
        }
        let lib_dir = dir.join("libs");
        let mut libs = Vec::new();
        if !self.libraries.is_empty() {
            std::fs::create_dir_all(&lib_dir)?;
            for library in &self.libraries {
                let path = lib_dir.join(&library.spec.name);
                std::fs::write(&path, &library.image)?;
                libs.push((library.spec.name.clone(), path));
            }
        }
        Ok((units, libs))
    }

    /// The libraries a binary needs, transitively closed over each
    /// library's own `DT_NEEDED` dependencies (the loader and the
    /// analyzer both load recursively, §4.5).
    pub fn libs_of(&self, binary: &CorpusBinary) -> Vec<&GeneratedLibrary> {
        let mut names: Vec<String> = binary.lib_names.clone();
        let mut out: Vec<&GeneratedLibrary> = Vec::new();
        let mut seen: Vec<String> = Vec::new();
        while let Some(name) = names.pop() {
            if seen.contains(&name) {
                continue;
            }
            seen.push(name.clone());
            if let Some(lib) = self.libraries.iter().find(|l| l.spec.name == name) {
                out.push(lib);
                names.extend(lib.spec.libs.iter().cloned());
            }
        }
        out.sort_by(|a, b| a.spec.name.cmp(&b.spec.name));
        out
    }
}

const POOLS: &[&[u32]] = &[
    &[0, 1, 2, 3, 5, 8, 16, 17, 18, 257, 262],      // file io
    &[41, 42, 43, 44, 45, 46, 49, 50, 54, 55, 288], // net
    &[9, 10, 11, 12, 25, 28],                       // mem
    &[232, 233, 291, 281, 7, 23],                   // epoll/poll
    &[35, 96, 201, 228, 229, 230],                  // time
    &[13, 14, 15, 131],                             // signal
    &[39, 56, 57, 61, 102, 104, 110, 186, 112],     // proc
    &[4, 6, 21, 79, 80, 82, 83, 87, 89, 90],        // fs meta
    &[202, 203, 204, 24, 273],                      // thread
    &[318, 302, 157, 158, 99, 63],                  // misc
];

fn pick_syscall(rng: &mut SmallRng) -> u32 {
    let pool = POOLS[rng.gen_range(0..POOLS.len())];
    pool[rng.gen_range(0..pool.len())]
}

fn pick_syscalls(rng: &mut SmallRng, n: usize) -> Vec<u32> {
    (0..n).map(|_| pick_syscall(rng)).collect()
}

fn pick_wrapper_style(rng: &mut SmallRng) -> WrapperStyle {
    // "Language" mix: C compiled without wrappers, glibc-style register
    // wrappers, Go/Haskell-style stack wrappers.
    match rng.gen_range(0..10) {
        0..=3 => WrapperStyle::None,
        4..=7 => WrapperStyle::Register,
        _ => WrapperStyle::Stack,
    }
}

fn random_scenario(rng: &mut SmallRng, allow_wrapper: bool) -> Scenario {
    match rng.gen_range(0..12) {
        0..=2 => {
            let n = rng.gen_range(1..5);
            Scenario::Direct(pick_syscalls(rng, n))
        }
        3 => Scenario::BranchJoin(pick_syscall(rng), pick_syscall(rng)),
        4 => Scenario::ThroughStack(pick_syscall(rng)),
        5 | 6 if allow_wrapper => {
            let n = rng.gen_range(1..6);
            Scenario::ViaWrapper(pick_syscalls(rng, n))
        }
        5 | 6 => Scenario::Direct(pick_syscalls(rng, 2)),
        7 => Scenario::IndirectHelper(pick_syscall(rng)),
        8 => Scenario::PopularHelper(pick_syscall(rng)),
        9 => {
            let n = rng.gen_range(2..4);
            let options = pick_syscalls(rng, n);
            let used = rng.gen_range(0..options.len());
            Scenario::DispatchTable { options, used }
        }
        10 => Scenario::TailCall(pick_syscall(rng)),
        _ => {
            let total = pick_syscall(rng);
            let base = rng.gen_range(0..=total);
            Scenario::ComputedAdd(base, total - base)
        }
    }
}

fn random_dead_code(rng: &mut SmallRng, is_static: bool) -> Vec<Scenario> {
    let n = rng.gen_range(2..8);
    let mut dead: Vec<Scenario> = (0..n)
        .map(|_| {
            let k = rng.gen_range(1..8);
            Scenario::Direct(pick_syscalls(rng, k))
        })
        .collect();
    // Static binaries embed their language runtime (libc, Go runtime, …)
    // whose code moves system call numbers through memory even when the
    // program itself never does: ~95 % of real static binaries carry such
    // sites, which is what breaks Chestnut's window scan on 227/231 of
    // the paper's static corpus.
    if is_static && rng.gen_bool(0.95) {
        dead.push(Scenario::ThroughStack(pick_syscall(rng)));
    }
    dead
}

/// Generates the shared-library pool.
fn generate_libraries(rng: &mut SmallRng, count: usize) -> Vec<GeneratedLibrary> {
    let mut specs: Vec<LibrarySpec> = Vec::new();
    for i in 0..count {
        let n_exports = rng.gen_range(4..16);
        let mut exports = Vec::new();
        for e in 0..n_exports {
            let mut calls = Vec::new();
            // Intra-library call to an earlier export.
            if e > 0 && rng.gen_bool(0.3) {
                calls.push(format!("lib{i}_fn{}", rng.gen_range(0..e)));
            }
            // Cross-library call to an earlier library (keeps the
            // dependency graph a DAG, like real link orders).
            if i > 0 && rng.gen_bool(0.2) {
                let j = rng.gen_range(0..i);
                let target_exports = specs[j].exports.len();
                calls.push(format!("lib{j}_fn{}", rng.gen_range(0..target_exports)));
            }
            exports.push(ExportSpec {
                name: format!("lib{i}_fn{e}"),
                syscalls: {
                    let k = rng.gen_range(0..6);
                    pick_syscalls(rng, k)
                },
                calls,
            });
        }
        let libs = {
            let mut deps: Vec<String> = exports
                .iter()
                .flat_map(|e| e.calls.iter())
                .filter_map(|c| {
                    let idx: usize = c.strip_prefix("lib")?.split('_').next()?.parse().ok()?;
                    (idx != i).then(|| format!("libgen{idx}.so"))
                })
                .collect();
            deps.sort();
            deps.dedup();
            deps
        };
        specs.push(LibrarySpec {
            name: format!("libgen{i}.so"),
            exports,
            wrapper_style: pick_wrapper_style(rng),
            base: 0x1000_0000 + (i as u64) * 0x100_0000,
            libs,
        });
    }
    specs.iter().map(generate_library).collect()
}

/// Generates a corpus of the given composition. The full Debian-like
/// corpus of Table 2 is [`debian_like_corpus`].
pub fn corpus_with_size(seed: u64, n_static: usize, n_dynamic: usize, n_libs: usize) -> Corpus {
    let mut rng = SmallRng::seed_from_u64(seed);
    let libraries = generate_libraries(&mut rng, n_libs);

    let mut binaries = Vec::with_capacity(n_static + n_dynamic);
    for i in 0..(n_static + n_dynamic) {
        let is_static = i < n_static;
        // ~2 % of "static" binaries are static-PIE (ET_DYN without
        // dynamic deps) — the one shape SysFilter's non-PIC restriction
        // accepts among static executables (Table 2 shows 1/231).
        let kind = if is_static {
            if rng.gen_bool(0.02) {
                ElfKind::PieExecutable
            } else {
                ElfKind::Executable
            }
        } else {
            ElfKind::PieExecutable
        };
        let wrapper_style = pick_wrapper_style(&mut rng);
        let allow_wrapper = wrapper_style != WrapperStyle::None;

        let n_scen = rng.gen_range(2..14);
        let mut scenarios: Vec<Scenario> = (0..n_scen)
            .map(|_| random_scenario(&mut rng, allow_wrapper))
            .collect();

        let mut imports = Vec::new();
        let mut lib_names = Vec::new();
        if !is_static && !libraries.is_empty() {
            let n_deps = rng.gen_range(1..=4.min(libraries.len()));
            let mut dep_idx: Vec<usize> = Vec::new();
            while dep_idx.len() < n_deps {
                let j = rng.gen_range(0..libraries.len());
                if !dep_idx.contains(&j) {
                    dep_idx.push(j);
                }
            }
            for &j in &dep_idx {
                lib_names.push(format!("libgen{j}.so"));
                let n_exports = libraries[j].spec.exports.len();
                let n_calls = rng.gen_range(1..=2.min(n_exports));
                for _ in 0..n_calls {
                    let e = rng.gen_range(0..n_exports);
                    let name = format!("lib{j}_fn{e}");
                    if !imports.contains(&name) {
                        imports.push(name.clone());
                        scenarios.push(Scenario::CallImport(name));
                    }
                }
            }
            // Transitive deps must be listed too for the analyzer's
            // DT_NEEDED check (real linkers record them on the binary
            // that uses them; our libraries carry their own DT_NEEDED).
        }

        let spec = ProgramSpec {
            name: format!("bin_{i:03}"),
            kind,
            wrapper_style,
            scenarios,
            dead_scenarios: random_dead_code(&mut rng, is_static),
            imports,
            libs: lib_names.clone(),
            serve_loop: None,
        };
        binaries.push(CorpusBinary {
            program: generate(&spec),
            is_static,
            lib_names,
        });
    }

    Corpus {
        libraries,
        binaries,
    }
}

/// The full Table 2 composition: 231 static + 326 dynamic binaries over
/// 59 shared libraries.
pub fn debian_like_corpus(seed: u64) -> Corpus {
    corpus_with_size(seed, 231, 326, 59)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_syscalls;

    #[test]
    fn composition_matches_request() {
        let corpus = corpus_with_size(1, 10, 15, 6);
        assert_eq!(corpus.libraries.len(), 6);
        assert_eq!(corpus.binaries.len(), 25);
        assert_eq!(corpus.binaries.iter().filter(|b| b.is_static).count(), 10);
    }

    #[test]
    fn materialize_static_preserves_corpus_order_and_bytes() {
        let corpus = corpus_with_size(3, 4, 2, 2);
        let dir =
            std::env::temp_dir().join(format!("bside_gen_materialize_{}", std::process::id()));
        let units = corpus.materialize_static(&dir).expect("materializes");
        assert_eq!(units.len(), 4, "only the static half is materialized");
        let statics: Vec<_> = corpus.binaries.iter().filter(|b| b.is_static).collect();
        let mut names: Vec<&String> = units.iter().map(|(n, _)| n).collect();
        let sorted = {
            let mut s = names.clone();
            s.sort();
            s
        };
        assert_eq!(names, sorted, "lexical order must equal corpus order");
        names.dedup();
        assert_eq!(names.len(), units.len(), "unit names are unique");
        for ((_, path), binary) in units.iter().zip(&statics) {
            assert_eq!(
                std::fs::read(path).expect("written file reads back"),
                binary.program.image
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn materialize_writes_dynamic_binaries_and_the_library_pool() {
        let corpus = corpus_with_size(9, 2, 3, 2);
        let dir = std::env::temp_dir().join(format!("bside_gen_mat_all_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (units, libs) = corpus.materialize(&dir).expect("materializes");
        assert_eq!(units.len(), 5, "static and dynamic binaries both land");
        assert_eq!(libs.len(), 2, "the whole library pool lands");
        for ((_, path), binary) in units.iter().zip(&corpus.binaries) {
            assert_eq!(std::fs::read(path).unwrap(), binary.program.image);
        }
        for (name, path) in &libs {
            assert!(path.starts_with(dir.join("libs")), "{}", path.display());
            let lib = corpus
                .libraries
                .iter()
                .find(|l| &l.spec.name == name)
                .expect("library exists");
            assert_eq!(std::fs::read(path).unwrap(), lib.image);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus_with_size(42, 5, 5, 4);
        let b = corpus_with_size(42, 5, 5, 4);
        for (x, y) in a.binaries.iter().zip(b.binaries.iter()) {
            assert_eq!(x.program.image, y.program.image);
        }
        for (x, y) in a.libraries.iter().zip(b.libraries.iter()) {
            assert_eq!(x.image, y.image);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = corpus_with_size(1, 3, 0, 0);
        let b = corpus_with_size(2, 3, 0, 0);
        assert!(a
            .binaries
            .iter()
            .zip(b.binaries.iter())
            .any(|(x, y)| x.program.image != y.program.image));
    }

    #[test]
    fn every_corpus_binary_traces_to_its_truth() {
        let corpus = corpus_with_size(7, 8, 12, 5);
        for binary in &corpus.binaries {
            let libs: Vec<_> = corpus.libs_of(binary).into_iter().cloned().collect();
            let traced = trace_syscalls(&binary.program, &libs);
            let truth = binary.truth(&libs);
            assert_eq!(traced, truth, "{}", binary.program.spec.name);
        }
    }

    #[test]
    fn dynamic_binaries_have_deps_and_static_have_none() {
        let corpus = corpus_with_size(3, 6, 6, 4);
        for binary in &corpus.binaries {
            if binary.is_static {
                assert!(binary.lib_names.is_empty());
            } else {
                assert!(!binary.lib_names.is_empty());
                assert!(!binary.program.elf.needed_libraries().is_empty());
            }
        }
    }

    #[test]
    fn truth_is_subset_of_static_truth() {
        let corpus = corpus_with_size(11, 5, 5, 4);
        for binary in &corpus.binaries {
            let libs: Vec<_> = corpus.libs_of(binary).into_iter().cloned().collect();
            assert!(binary.truth(&libs).is_subset(&binary.static_truth(&libs)));
        }
    }
}
