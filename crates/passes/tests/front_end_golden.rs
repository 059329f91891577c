//! Front-end golden suite: what the IR text layer and the profiler make of
//! every program state the daemon and the trainer see, pinned in
//! `golden/front_end.txt`.
//!
//! Programs: CHStone and 64 seeded corpus programs, each in its input
//! state, after each of the 45 passes alone, and after `o3_checked`. Per
//! state, one line pins `fingerprint_module`, the FNV-1a of
//! `print_module`, the FNV-1a of the `Debug` form of
//! `parse_module(print_module(m))` (so the parsed arenas, tombstones and
//! void-instruction slots included) and the `profile_module` report. Per
//! input text, about forty seeded mutations — truncations at fixed
//! fractions, single-byte substitutions, the CRLF form — each pin the
//! parser's error display or the parsed module's hash, so refused texts
//! keep their `(line, msg)` too.
//!
//! The file was written by the string-building printer and the line-split
//! parser; the direct-write printer and the byte-cursor parser must
//! reproduce it byte for byte. Regenerate only for an intended change of
//! the text syntax: `cargo test --release -p autophase-passes --test
//! front_end_golden -- --ignored`.

use autophase_benchmarks::suite;
use autophase_corpus::{build_corpus, CorpusConfig};
use autophase_hls::{profile_module, HlsConfig};
use autophase_ir::fingerprint::fingerprint_module;
use autophase_ir::parser::parse_module;
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use autophase_passes::checked::FuelBudget;
use autophase_passes::o3::o3_checked;
use autophase_passes::registry::{self, NUM_PASSES};
use std::fmt::Write;

const CORPUS_SEED: u64 = 0x0060_1DE2;
const CORPUS_PROGRAMS: usize = 64;
const MUTATION_SEED: u64 = 0x00F2_0E7D;
/// Truncation points, in tenths of the text.
const TRUNCATIONS: u64 = 9;
const SUBSTITUTIONS: usize = 30;
/// Bytes that mean something to the parser: separators, sigils, digits,
/// signs, brackets, whitespace and line ends.
const ALPHABET: &[u8] = b" ,%@[]()={}:;x-+09bgi\n\r\t_>";

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/front_end.txt")
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn programs() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.module))
        .collect();
    let corpus = build_corpus(&CorpusConfig {
        base_seed: CORPUS_SEED,
        target: CORPUS_PROGRAMS,
        ..CorpusConfig::default()
    });
    assert_eq!(corpus.programs.len(), CORPUS_PROGRAMS);
    out.extend(
        corpus
            .programs
            .into_iter()
            .map(|p| (format!("corpus{}", p.index), p.module)),
    );
    out
}

/// The input state, each pass alone, and `o3_checked`.
fn states(module: &Module) -> Vec<(String, Module)> {
    let mut out = vec![("input".to_string(), module.clone())];
    for pass in 0..NUM_PASSES {
        let mut m = module.clone();
        registry::apply(&mut m, pass);
        out.push((format!("pass{pass:02}{}", registry::pass_name(pass)), m));
    }
    let mut m = module.clone();
    o3_checked(&mut m, &FuelBudget::default());
    out.push(("o3".to_string(), m));
    out
}

/// What the parser makes of `text`: the hash of the parsed module's
/// `Debug` form, or the error's display (escaped, so a mutated line end
/// stays on one golden line).
fn parse_outcome(text: &str) -> String {
    match parse_module(text) {
        Ok(m) => format!("ok {:016x}", fnv1a(&format!("{m:?}"))),
        Err(e) => format!("err {:?}", e.to_string()),
    }
}

/// The seeded mutations of one printed program, as `(label, text)`.
fn mutations(text: &str, state: &mut u64) -> Vec<(String, String)> {
    assert!(text.is_ascii(), "printed IR is ASCII");
    let mut out = Vec::new();
    for k in 1..=TRUNCATIONS {
        let cut = text.len() * k as usize / (TRUNCATIONS as usize + 1);
        out.push((format!("trunc{k}"), text[..cut].to_string()));
    }
    for _ in 0..SUBSTITUTIONS {
        let at = (splitmix(state) % text.len() as u64) as usize;
        let byte = ALPHABET[(splitmix(state) % ALPHABET.len() as u64) as usize];
        let mut bytes = text.as_bytes().to_vec();
        bytes[at] = byte;
        let label = format!("sub@{at}={byte:02x}");
        out.push((label, String::from_utf8(bytes).expect("ASCII")));
    }
    out.push(("crlf".to_string(), text.replace('\n', "\r\n")));
    out
}

fn render() -> String {
    let hls = HlsConfig::default();
    let mut mutation_state = MUTATION_SEED;
    let mut out = String::new();
    for (name, module) in programs() {
        for (state, m) in states(&module) {
            let text = print_module(&m);
            let parsed = parse_module(&text);
            let profile = match profile_module(&m, &hls) {
                Ok(r) => format!(
                    "{} {} {} {} {} {} {}",
                    r.cycles,
                    r.total_states,
                    r.area.logic_units,
                    r.area.registers,
                    r.area.memory_bits,
                    r.area.fsm_states,
                    r.insts_executed
                ),
                Err(e) => format!("err {e}"),
            };
            writeln!(
                out,
                "{name} {state} fp={:016x} print={:016x} parse={:016x} profile={profile}",
                fingerprint_module(&m),
                fnv1a(&text),
                fnv1a(&format!("{parsed:?}")),
            )
            .unwrap();
        }
        let text = print_module(&module);
        for (label, mutated) in mutations(&text, &mut mutation_state) {
            writeln!(out, "{name} {label} {}", parse_outcome(&mutated)).unwrap();
        }
    }
    out
}

#[test]
fn front_end_matches_golden_file() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let got = render();
    let mut mismatches = Vec::new();
    for (want, have) in golden.lines().zip(got.lines()) {
        if want != have {
            mismatches.push(format!("  want {want}\n  have {have}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} golden lines differ, first:\n{}",
        mismatches.len(),
        golden.lines().count(),
        mismatches[..mismatches.len().min(8)].join("\n")
    );
    assert_eq!(golden.lines().count(), got.lines().count(), "line count");
}

#[test]
#[ignore = "overwrites the committed golden file; run only for an intended change of the text syntax"]
fn regenerate_golden_file() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, render()).unwrap();
}
