//! ELF64 emission.
//!
//! The builder produces well-formed ELF64 images for the three shapes the
//! B-Side evaluation needs (§5.2: 231 static executables, 326 dynamic
//! executables, 59 shared libraries):
//!
//! * [`ElfKind::Executable`] — non-PIC static executable (`ET_EXEC`); the
//!   shape SysFilter rejects (§5.2 "its failure is due to its lack of
//!   support for non-PIC binaries");
//! * [`ElfKind::PieExecutable`] — position-independent executable
//!   (`ET_DYN` + entry point);
//! * [`ElfKind::SharedObject`] — shared library (`ET_DYN`, exports).

use crate::types::*;
use crate::ElfError;

/// The flavour of image to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElfKind {
    /// Non-PIC static executable (`ET_EXEC`).
    Executable,
    /// Position-independent executable (`ET_DYN` with an entry point).
    PieExecutable,
    /// Shared library (`ET_DYN`).
    SharedObject,
}

/// A symbol to place in the emitted tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolSpec {
    /// Symbol name.
    pub name: String,
    /// Value (virtual address for functions).
    pub value: u64,
    /// Size in bytes.
    pub size: u64,
    /// ELF symbol type (`STT_FUNC`, `STT_OBJECT`, …).
    pub sym_type: u8,
    /// ELF binding (`STB_LOCAL` / `STB_GLOBAL`).
    pub binding: u8,
    /// Also export through `.dynsym` (shared-library interface).
    pub export: bool,
}

impl SymbolSpec {
    /// A local function symbol (appears in `.symtab` only).
    pub fn function(name: impl Into<String>, addr: u64, size: u64) -> Self {
        SymbolSpec {
            name: name.into(),
            value: addr,
            size,
            sym_type: STT_FUNC,
            binding: STB_LOCAL,
            export: false,
        }
    }

    /// A global function symbol exported through `.dynsym` as well — one
    /// entry of a shared library's public interface.
    pub fn exported_function(name: impl Into<String>, addr: u64, size: u64) -> Self {
        SymbolSpec {
            name: name.into(),
            value: addr,
            size,
            sym_type: STT_FUNC,
            binding: STB_GLOBAL,
            export: true,
        }
    }

    /// A data object symbol.
    pub fn object(name: impl Into<String>, addr: u64, size: u64) -> Self {
        SymbolSpec {
            name: name.into(),
            value: addr,
            size,
            sym_type: STT_OBJECT,
            binding: STB_LOCAL,
            export: false,
        }
    }
}

/// A PLT relocation to emit in `.rela.plt`: an imported function plus the
/// GOT slot its PLT stub jumps through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PltReloc {
    /// Virtual address of the GOT slot (`r_offset`).
    pub got_slot: u64,
    /// Name of the imported function.
    pub symbol: String,
}

/// Builder for ELF64 images. See the crate-level example.
///
/// The builder is non-consuming: configuration methods take and return
/// `&mut self`, and [`ElfBuilder::build`] borrows the builder, so one
/// builder can stamp out variants.
#[derive(Debug, Clone)]
pub struct ElfBuilder {
    kind: ElfKind,
    text: Vec<u8>,
    text_vaddr: u64,
    rodata: Vec<u8>,
    rodata_vaddr: u64,
    entry: u64,
    symbols: Vec<SymbolSpec>,
    needed: Vec<String>,
    plt_relocs: Vec<PltReloc>,
    got_vaddr: u64,
    got_size: u64,
}

const PAGE: u64 = 0x1000;

impl ElfBuilder {
    /// Creates a builder for the given image kind.
    pub fn new(kind: ElfKind) -> Self {
        ElfBuilder {
            kind,
            text: Vec::new(),
            text_vaddr: 0,
            rodata: Vec::new(),
            rodata_vaddr: 0,
            entry: 0,
            symbols: Vec::new(),
            needed: Vec::new(),
            plt_relocs: Vec::new(),
            got_vaddr: 0,
            got_size: 0,
        }
    }

    /// Sets the `.text` contents and its virtual address.
    pub fn text(&mut self, bytes: Vec<u8>, vaddr: u64) -> &mut Self {
        self.text = bytes;
        self.text_vaddr = vaddr;
        self
    }

    /// Sets the `.rodata` contents and its virtual address.
    pub fn rodata(&mut self, bytes: Vec<u8>, vaddr: u64) -> &mut Self {
        self.rodata = bytes;
        self.rodata_vaddr = vaddr;
        self
    }

    /// Sets the entry point.
    pub fn entry(&mut self, vaddr: u64) -> &mut Self {
        self.entry = vaddr;
        self
    }

    /// Adds a symbol.
    pub fn symbol(&mut self, spec: SymbolSpec) -> &mut Self {
        self.symbols.push(spec);
        self
    }

    /// Adds a `DT_NEEDED` dependency on a shared library.
    pub fn needed(&mut self, lib: impl Into<String>) -> &mut Self {
        self.needed.push(lib.into());
        self
    }

    /// Adds a PLT relocation for an imported function.
    pub fn plt_reloc(&mut self, reloc: PltReloc) -> &mut Self {
        self.plt_relocs.push(reloc);
        self
    }

    /// Places the `.got.plt` section (writable, zero-filled).
    pub fn got(&mut self, vaddr: u64, size: u64) -> &mut Self {
        self.got_vaddr = vaddr;
        self.got_size = size;
        self
    }

    fn is_dynamic(&self) -> bool {
        !self.needed.is_empty()
            || !self.plt_relocs.is_empty()
            || self.symbols.iter().any(|s| s.export)
    }

    /// Emits the image.
    ///
    /// # Errors
    ///
    /// Returns [`ElfError::Malformed`] when the configuration is
    /// inconsistent: an entry point outside `.text` on an executable, a GOT
    /// requested without an address, or overlapping section ranges.
    pub fn build(&self) -> Result<Vec<u8>, ElfError> {
        let is_exec = matches!(self.kind, ElfKind::Executable | ElfKind::PieExecutable);
        if is_exec {
            let end = self.text_vaddr + self.text.len() as u64;
            if self.entry < self.text_vaddr || self.entry >= end {
                return Err(ElfError::Malformed("entry point outside .text"));
            }
        }
        let has_got = !self.plt_relocs.is_empty() || self.got_size > 0;
        if has_got && self.got_vaddr == 0 {
            return Err(ElfError::Malformed("GOT requested without an address"));
        }
        if !self.rodata.is_empty() && self.rodata_vaddr < self.text_vaddr + self.text.len() as u64 {
            return Err(ElfError::Malformed(".rodata overlaps .text"));
        }

        let dynamic = self.is_dynamic();

        // ---- string tables -------------------------------------------------
        let mut strtab = StrTab::new();
        for s in &self.symbols {
            strtab.intern(&s.name);
        }
        let mut dynstr = StrTab::new();
        for lib in &self.needed {
            dynstr.intern(lib);
        }
        let mut dynsyms: Vec<&SymbolSpec> = Vec::new();
        let exported: Vec<&SymbolSpec> = self.symbols.iter().filter(|s| s.export).collect();
        // Imported functions referenced by PLT relocations come first so the
        // relocation entries can index them.
        let mut import_names: Vec<&str> = self
            .plt_relocs
            .iter()
            .map(|r| r.symbol.as_str())
            .collect::<Vec<_>>();
        import_names.dedup();
        for name in &import_names {
            dynstr.intern(name);
        }
        for s in &exported {
            dynstr.intern(&s.name);
            dynsyms.push(s);
        }

        // ---- layout ---------------------------------------------------------
        // File: ehdr | phdrs | pad | .text | .rodata | pad | .got.plt |
        //       non-alloc tables | shstrtab | shdrs
        let phnum: u16 = {
            let mut n = 1; // RX LOAD
            if has_got {
                n += 1; // RW LOAD
            }
            if dynamic {
                n += 1; // PT_DYNAMIC
            }
            n
        };
        let text_off = PAGE as usize;
        let rodata_off = text_off + self.text.len();
        let got_off = align_up(rodata_off + self.rodata.len(), PAGE as usize);
        let got_len = if has_got {
            self.got_size.max(self.plt_relocs.len() as u64 * 8) as usize
        } else {
            0
        };
        let mut cursor = got_off + got_len;

        // Symbol table bytes (.symtab): null + all symbols.
        let symtab_off = cursor;
        let symtab_bytes = encode_symbols(
            self.symbols.iter(),
            |name| strtab.offset_of(name),
            self.section_index_for_symbols(),
        );
        cursor += symtab_bytes.len();
        let strtab_off = cursor;
        cursor += strtab.bytes.len();

        // Dynamic symbol table (.dynsym): null + imports + exports.
        let mut dynsym_bytes = Vec::new();
        let mut rela_bytes = Vec::new();
        let mut dynamic_bytes = Vec::new();
        let (dynsym_off, dynstr_off, rela_off, dynamic_off);
        if dynamic {
            let imports: Vec<SymbolSpec> = import_names
                .iter()
                .map(|&name| SymbolSpec {
                    name: name.to_string(),
                    value: 0,
                    size: 0,
                    sym_type: STT_FUNC,
                    binding: STB_GLOBAL,
                    export: false,
                })
                .collect();
            let all: Vec<&SymbolSpec> = imports.iter().chain(dynsyms.iter().copied()).collect();
            dynsym_bytes = encode_symbols(
                all.iter().copied(),
                |name| dynstr.offset_of(name),
                self.section_index_for_symbols(),
            );
            // Imports keep shndx = 0 (SHN_UNDEF): patch them back.
            for (i, _) in imports.iter().enumerate() {
                let entry = 24 * (i + 1); // skip null symbol
                dynsym_bytes[entry + 6] = 0;
                dynsym_bytes[entry + 7] = 0;
            }

            for reloc in &self.plt_relocs {
                let sym_index = 1 + import_names
                    .iter()
                    .position(|&n| n == reloc.symbol)
                    .expect("import interned above") as u64;
                rela_bytes.extend_from_slice(&reloc.got_slot.to_le_bytes());
                let r_info = (sym_index << 32) | R_X86_64_JUMP_SLOT as u64;
                rela_bytes.extend_from_slice(&r_info.to_le_bytes());
                rela_bytes.extend_from_slice(&0i64.to_le_bytes());
            }

            for lib in &self.needed {
                push_dyn(&mut dynamic_bytes, DT_NEEDED, dynstr.offset_of(lib) as u64);
            }
            push_dyn(&mut dynamic_bytes, DT_PLTRELSZ, rela_bytes.len() as u64);
            push_dyn(&mut dynamic_bytes, DT_STRTAB, 0);
            push_dyn(&mut dynamic_bytes, DT_SYMTAB, 0);
            push_dyn(&mut dynamic_bytes, DT_NULL, 0);

            dynsym_off = cursor;
            cursor += dynsym_bytes.len();
            dynstr_off = cursor;
            cursor += dynstr.bytes.len();
            rela_off = cursor;
            cursor += rela_bytes.len();
            dynamic_off = cursor;
            cursor += dynamic_bytes.len();
        } else {
            dynsym_off = 0;
            dynstr_off = 0;
            rela_off = 0;
            dynamic_off = 0;
        }

        // Section name table.
        let mut shstrtab = StrTab::new();
        let mut section_names = vec![".text"];
        if !self.rodata.is_empty() {
            section_names.push(".rodata");
        }
        if has_got {
            section_names.push(".got.plt");
        }
        section_names.push(".symtab");
        section_names.push(".strtab");
        if dynamic {
            section_names.extend([".dynsym", ".dynstr", ".rela.plt", ".dynamic"]);
        }
        section_names.push(".shstrtab");
        for n in &section_names {
            shstrtab.intern(n);
        }
        let shstrtab_off = cursor;
        cursor += shstrtab.bytes.len();
        let shoff = align_up(cursor, 8);

        // ---- section headers -------------------------------------------------
        let mut shdrs: Vec<SectionHeader> = vec![SectionHeader {
            sh_name: 0,
            sh_type: SHT_NULL,
            sh_flags: 0,
            sh_addr: 0,
            sh_offset: 0,
            sh_size: 0,
            sh_link: 0,
            sh_info: 0,
            sh_entsize: 0,
        }];
        let mut index_of = std::collections::HashMap::new();
        let push_section = |shdrs: &mut Vec<SectionHeader>,
                            index_of: &mut std::collections::HashMap<&'static str, u32>,
                            name: &'static str,
                            sh: SectionHeader| {
            index_of.insert(name, shdrs.len() as u32);
            shdrs.push(sh);
        };

        push_section(
            &mut shdrs,
            &mut index_of,
            ".text",
            SectionHeader {
                sh_name: shstrtab.offset_of(".text") as u32,
                sh_type: SHT_PROGBITS,
                sh_flags: 2 | 4, // ALLOC | EXECINSTR
                sh_addr: self.text_vaddr,
                sh_offset: text_off as u64,
                sh_size: self.text.len() as u64,
                sh_link: 0,
                sh_info: 0,
                sh_entsize: 0,
            },
        );
        if !self.rodata.is_empty() {
            push_section(
                &mut shdrs,
                &mut index_of,
                ".rodata",
                SectionHeader {
                    sh_name: shstrtab.offset_of(".rodata") as u32,
                    sh_type: SHT_PROGBITS,
                    sh_flags: 2,
                    sh_addr: self.rodata_vaddr,
                    sh_offset: rodata_off as u64,
                    sh_size: self.rodata.len() as u64,
                    sh_link: 0,
                    sh_info: 0,
                    sh_entsize: 0,
                },
            );
        }
        if has_got {
            push_section(
                &mut shdrs,
                &mut index_of,
                ".got.plt",
                SectionHeader {
                    sh_name: shstrtab.offset_of(".got.plt") as u32,
                    sh_type: SHT_PROGBITS,
                    sh_flags: 2 | 1, // ALLOC | WRITE
                    sh_addr: self.got_vaddr,
                    sh_offset: got_off as u64,
                    sh_size: got_len as u64,
                    sh_link: 0,
                    sh_info: 0,
                    sh_entsize: 8,
                },
            );
        }
        let symtab_index_placeholder = shdrs.len() as u32;
        push_section(
            &mut shdrs,
            &mut index_of,
            ".symtab",
            SectionHeader {
                sh_name: shstrtab.offset_of(".symtab") as u32,
                sh_type: SHT_SYMTAB,
                sh_flags: 0,
                sh_addr: 0,
                sh_offset: symtab_off as u64,
                sh_size: symtab_bytes.len() as u64,
                sh_link: symtab_index_placeholder + 1, // .strtab follows
                sh_info: 1,
                sh_entsize: 24,
            },
        );
        push_section(
            &mut shdrs,
            &mut index_of,
            ".strtab",
            SectionHeader {
                sh_name: shstrtab.offset_of(".strtab") as u32,
                sh_type: SHT_STRTAB,
                sh_flags: 0,
                sh_addr: 0,
                sh_offset: strtab_off as u64,
                sh_size: strtab.bytes.len() as u64,
                sh_link: 0,
                sh_info: 0,
                sh_entsize: 0,
            },
        );
        if dynamic {
            let dynsym_index = shdrs.len() as u32;
            push_section(
                &mut shdrs,
                &mut index_of,
                ".dynsym",
                SectionHeader {
                    sh_name: shstrtab.offset_of(".dynsym") as u32,
                    sh_type: SHT_DYNSYM,
                    sh_flags: 2,
                    sh_addr: 0,
                    sh_offset: dynsym_off as u64,
                    sh_size: dynsym_bytes.len() as u64,
                    sh_link: dynsym_index + 1, // .dynstr follows
                    sh_info: 1,
                    sh_entsize: 24,
                },
            );
            push_section(
                &mut shdrs,
                &mut index_of,
                ".dynstr",
                SectionHeader {
                    sh_name: shstrtab.offset_of(".dynstr") as u32,
                    sh_type: SHT_STRTAB,
                    sh_flags: 2,
                    sh_addr: 0,
                    sh_offset: dynstr_off as u64,
                    sh_size: dynstr.bytes.len() as u64,
                    sh_link: 0,
                    sh_info: 0,
                    sh_entsize: 0,
                },
            );
            push_section(
                &mut shdrs,
                &mut index_of,
                ".rela.plt",
                SectionHeader {
                    sh_name: shstrtab.offset_of(".rela.plt") as u32,
                    sh_type: SHT_RELA,
                    sh_flags: 2,
                    sh_addr: 0,
                    sh_offset: rela_off as u64,
                    sh_size: rela_bytes.len() as u64,
                    sh_link: dynsym_index,
                    sh_info: 0,
                    sh_entsize: 24,
                },
            );
            push_section(
                &mut shdrs,
                &mut index_of,
                ".dynamic",
                SectionHeader {
                    sh_name: shstrtab.offset_of(".dynamic") as u32,
                    sh_type: SHT_DYNAMIC,
                    sh_flags: 2 | 1,
                    sh_addr: 0,
                    sh_offset: dynamic_off as u64,
                    sh_size: dynamic_bytes.len() as u64,
                    sh_link: dynsym_index + 1,
                    sh_info: 0,
                    sh_entsize: 16,
                },
            );
        }
        push_section(
            &mut shdrs,
            &mut index_of,
            ".shstrtab",
            SectionHeader {
                sh_name: shstrtab.offset_of(".shstrtab") as u32,
                sh_type: SHT_STRTAB,
                sh_flags: 0,
                sh_addr: 0,
                sh_offset: shstrtab_off as u64,
                sh_size: shstrtab.bytes.len() as u64,
                sh_link: 0,
                sh_info: 0,
                sh_entsize: 0,
            },
        );
        let shstrndx = (shdrs.len() - 1) as u16;

        // ---- serialize --------------------------------------------------------
        let mut out = Vec::with_capacity(shoff + shdrs.len() * 64);
        out.extend_from_slice(b"\x7fELF");
        out.push(2); // ELFCLASS64
        out.push(1); // little-endian
        out.push(1); // EV_CURRENT
        out.extend_from_slice(&[0u8; 9]);
        let e_type = match self.kind {
            ElfKind::Executable => ET_EXEC,
            ElfKind::PieExecutable | ElfKind::SharedObject => ET_DYN,
        };
        out.extend_from_slice(&e_type.to_le_bytes());
        out.extend_from_slice(&62u16.to_le_bytes()); // EM_X86_64
        out.extend_from_slice(&1u32.to_le_bytes()); // e_version
        out.extend_from_slice(&self.entry.to_le_bytes());
        out.extend_from_slice(&64u64.to_le_bytes()); // e_phoff
        out.extend_from_slice(&(shoff as u64).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // e_flags
        out.extend_from_slice(&64u16.to_le_bytes()); // e_ehsize
        out.extend_from_slice(&56u16.to_le_bytes()); // e_phentsize
        out.extend_from_slice(&phnum.to_le_bytes());
        out.extend_from_slice(&64u16.to_le_bytes()); // e_shentsize
        out.extend_from_slice(&(shdrs.len() as u16).to_le_bytes());
        out.extend_from_slice(&shstrndx.to_le_bytes());

        // Program headers.
        let put_phdr = |out: &mut Vec<u8>, ph: ProgramHeader| {
            out.extend_from_slice(&ph.p_type.to_le_bytes());
            out.extend_from_slice(&ph.p_flags.to_le_bytes());
            out.extend_from_slice(&ph.p_offset.to_le_bytes());
            out.extend_from_slice(&ph.p_vaddr.to_le_bytes());
            out.extend_from_slice(&ph.p_vaddr.to_le_bytes()); // p_paddr
            out.extend_from_slice(&ph.p_filesz.to_le_bytes());
            out.extend_from_slice(&ph.p_memsz.to_le_bytes());
            out.extend_from_slice(&PAGE.to_le_bytes()); // p_align
        };
        let rx_filesz = (rodata_off + self.rodata.len() - text_off) as u64;
        put_phdr(
            &mut out,
            ProgramHeader {
                p_type: PT_LOAD,
                p_flags: 5, // R+X
                p_offset: text_off as u64,
                p_vaddr: self.text_vaddr,
                p_filesz: rx_filesz,
                p_memsz: rx_filesz,
            },
        );
        if has_got {
            put_phdr(
                &mut out,
                ProgramHeader {
                    p_type: PT_LOAD,
                    p_flags: 6, // R+W
                    p_offset: got_off as u64,
                    p_vaddr: self.got_vaddr,
                    p_filesz: got_len as u64,
                    p_memsz: got_len as u64,
                },
            );
        }
        if dynamic {
            put_phdr(
                &mut out,
                ProgramHeader {
                    p_type: PT_DYNAMIC,
                    p_flags: 4,
                    p_offset: dynamic_off as u64,
                    p_vaddr: 0,
                    p_filesz: dynamic_bytes.len() as u64,
                    p_memsz: dynamic_bytes.len() as u64,
                },
            );
        }

        // Section bodies.
        pad_to(&mut out, text_off);
        out.extend_from_slice(&self.text);
        out.extend_from_slice(&self.rodata);
        pad_to(&mut out, got_off);
        out.resize(got_off + got_len, 0);
        out.extend_from_slice(&symtab_bytes);
        out.extend_from_slice(&strtab.bytes);
        if dynamic {
            out.extend_from_slice(&dynsym_bytes);
            out.extend_from_slice(&dynstr.bytes);
            out.extend_from_slice(&rela_bytes);
            out.extend_from_slice(&dynamic_bytes);
        }
        out.extend_from_slice(&shstrtab.bytes);
        pad_to(&mut out, shoff);

        for sh in &shdrs {
            out.extend_from_slice(&sh.sh_name.to_le_bytes());
            out.extend_from_slice(&sh.sh_type.to_le_bytes());
            out.extend_from_slice(&sh.sh_flags.to_le_bytes());
            out.extend_from_slice(&sh.sh_addr.to_le_bytes());
            out.extend_from_slice(&sh.sh_offset.to_le_bytes());
            out.extend_from_slice(&sh.sh_size.to_le_bytes());
            out.extend_from_slice(&sh.sh_link.to_le_bytes());
            out.extend_from_slice(&sh.sh_info.to_le_bytes());
            out.extend_from_slice(&1u64.to_le_bytes()); // sh_addralign
            out.extend_from_slice(&sh.sh_entsize.to_le_bytes());
        }

        Ok(out)
    }

    /// Section index assigned to defined symbols: `.text` is always
    /// section 1 in the emitted layout.
    fn section_index_for_symbols(&self) -> u16 {
        1
    }
}

fn align_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

fn pad_to(out: &mut Vec<u8>, offset: usize) {
    assert!(
        out.len() <= offset,
        "layout overflow: {} > {offset}",
        out.len()
    );
    out.resize(offset, 0);
}

fn push_dyn(bytes: &mut Vec<u8>, tag: i64, val: u64) {
    bytes.extend_from_slice(&tag.to_le_bytes());
    bytes.extend_from_slice(&val.to_le_bytes());
}

fn encode_symbols<'a>(
    symbols: impl Iterator<Item = &'a SymbolSpec>,
    offset_of: impl Fn(&str) -> usize,
    text_shndx: u16,
) -> Vec<u8> {
    let mut bytes = vec![0u8; 24]; // null symbol
    for s in symbols {
        bytes.extend_from_slice(&(offset_of(&s.name) as u32).to_le_bytes());
        bytes.push((s.binding << 4) | (s.sym_type & 0xf));
        bytes.push(0); // st_other
        bytes.extend_from_slice(&text_shndx.to_le_bytes());
        bytes.extend_from_slice(&s.value.to_le_bytes());
        bytes.extend_from_slice(&s.size.to_le_bytes());
    }
    bytes
}

#[derive(Debug, Default)]
struct StrTab {
    bytes: Vec<u8>,
    offsets: std::collections::HashMap<String, usize>,
}

impl StrTab {
    fn new() -> Self {
        StrTab {
            bytes: vec![0],
            offsets: std::collections::HashMap::new(),
        }
    }

    fn intern(&mut self, s: &str) -> usize {
        if let Some(&off) = self.offsets.get(s) {
            return off;
        }
        let off = self.bytes.len();
        self.bytes.extend_from_slice(s.as_bytes());
        self.bytes.push(0);
        self.offsets.insert(s.to_string(), off);
        off
    }

    fn offset_of(&self, s: &str) -> usize {
        self.offsets.get(s).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::Elf;

    #[test]
    fn static_executable_round_trip() {
        let image = ElfBuilder::new(ElfKind::Executable)
            .text(vec![0x90, 0x0f, 0x05, 0xc3], 0x401000)
            .entry(0x401001)
            .symbol(SymbolSpec::function("_start", 0x401000, 4))
            .build()
            .expect("build");
        let elf = Elf::parse(&image).expect("parse");
        assert_eq!(elf.header.e_type, ET_EXEC);
        assert!(!elf.is_pic());
        assert!(!elf.is_dynamic());
        assert_eq!(elf.entry_point(), 0x401001);
        assert_eq!(elf.text().unwrap().0, &[0x90, 0x0f, 0x05, 0xc3]);
        let syms = elf.function_symbols();
        assert_eq!(syms.len(), 1);
        assert_eq!(syms[0].name, "_start");
        assert_eq!(syms[0].value, 0x401000);
        assert_eq!(syms[0].size, 4);
    }

    #[test]
    fn dynamic_executable_round_trip() {
        let image = ElfBuilder::new(ElfKind::PieExecutable)
            .text(vec![0xc3; 16], 0x1000)
            .entry(0x1000)
            .needed("libfoo.so")
            .needed("libbar.so")
            .got(0x3000, 16)
            .plt_reloc(PltReloc {
                got_slot: 0x3000,
                symbol: "foo_read".into(),
            })
            .plt_reloc(PltReloc {
                got_slot: 0x3008,
                symbol: "bar_write".into(),
            })
            .build()
            .expect("build");
        let elf = Elf::parse(&image).expect("parse");
        assert!(elf.is_pic());
        assert!(elf.is_dynamic());
        assert_eq!(elf.needed_libraries(), &["libfoo.so", "libbar.so"]);
        let relocs = elf.plt_relocations();
        assert_eq!(relocs.len(), 2);
        assert_eq!(relocs[0].symbol_name, "foo_read");
        assert_eq!(relocs[0].r_offset, 0x3000);
        assert_eq!(relocs[0].r_type, R_X86_64_JUMP_SLOT);
        assert_eq!(relocs[1].symbol_name, "bar_write");
        // The imports are undefined dynsym entries.
        let undef: Vec<_> = elf
            .dynamic_symbols()
            .iter()
            .filter(|s| s.is_undefined() && !s.name.is_empty())
            .collect();
        assert_eq!(undef.len(), 2);
    }

    #[test]
    fn shared_object_exports() {
        let image = ElfBuilder::new(ElfKind::SharedObject)
            .text(vec![0xc3; 8], 0x1000)
            .symbol(SymbolSpec::exported_function("lib_write", 0x1000, 4))
            .symbol(SymbolSpec::exported_function("lib_read", 0x1004, 4))
            .symbol(SymbolSpec::function("internal", 0x1006, 2))
            .build()
            .expect("build");
        let elf = Elf::parse(&image).expect("parse");
        assert!(elf.is_pic());
        let exports = elf.exported_functions();
        let names: Vec<_> = exports.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["lib_write", "lib_read"]);
        // Internal symbol is in .symtab but not exported.
        assert_eq!(elf.function_symbols().len(), 3);
    }

    #[test]
    fn entry_outside_text_is_rejected() {
        let err = ElfBuilder::new(ElfKind::Executable)
            .text(vec![0xc3], 0x401000)
            .entry(0x500000)
            .build()
            .unwrap_err();
        assert!(matches!(err, ElfError::Malformed(_)));
    }

    #[test]
    fn shared_object_needs_no_entry() {
        let image = ElfBuilder::new(ElfKind::SharedObject)
            .text(vec![0xc3], 0x1000)
            .symbol(SymbolSpec::exported_function("f", 0x1000, 1))
            .build()
            .expect("build");
        let elf = Elf::parse(&image).expect("parse");
        assert_eq!(elf.entry_point(), 0);
    }

    #[test]
    fn rodata_round_trip() {
        let image = ElfBuilder::new(ElfKind::Executable)
            .text(vec![0xc3; 4], 0x401000)
            .rodata(vec![1, 2, 3], 0x401004)
            .entry(0x401000)
            .build()
            .expect("build");
        let elf = Elf::parse(&image).expect("parse");
        let ro = elf.section_by_name(".rodata").expect(".rodata");
        assert_eq!(ro.data, vec![1, 2, 3]);
        assert_eq!(ro.header.sh_addr, 0x401004);
    }

    #[test]
    fn rodata_overlapping_text_is_rejected() {
        let err = ElfBuilder::new(ElfKind::Executable)
            .text(vec![0xc3; 8], 0x401000)
            .rodata(vec![1], 0x401004)
            .entry(0x401000)
            .build()
            .unwrap_err();
        assert!(matches!(err, ElfError::Malformed(_)));
    }

    #[test]
    fn got_without_address_is_rejected() {
        let err = ElfBuilder::new(ElfKind::PieExecutable)
            .text(vec![0xc3], 0x1000)
            .entry(0x1000)
            .plt_reloc(PltReloc {
                got_slot: 0x3000,
                symbol: "f".into(),
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ElfError::Malformed(_)));
    }

    #[test]
    fn builder_is_reusable() {
        let mut b = ElfBuilder::new(ElfKind::Executable);
        b.text(vec![0xc3; 2], 0x401000).entry(0x401000);
        let a = b.build().expect("first");
        let c = b.build().expect("second");
        assert_eq!(a, c, "build is deterministic and non-consuming");
    }
}
