//! The assembled nine-benchmark suite.

use crate::kernels;
use autophase_ir::Module;

/// One benchmark: a name and its freshly built module.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name (matches the paper's Figure 7 labels).
    pub name: &'static str,
    /// The program, in unoptimized (`-O0`-like) form.
    pub module: Module,
}

/// Build the full suite, in the paper's order.
pub fn suite() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "adpcm",
            module: kernels::adpcm(),
        },
        Benchmark {
            name: "aes",
            module: kernels::aes(),
        },
        Benchmark {
            name: "blowfish",
            module: kernels::blowfish(),
        },
        Benchmark {
            name: "dhrystone",
            module: kernels::dhrystone(),
        },
        Benchmark {
            name: "gsm",
            module: kernels::gsm(),
        },
        Benchmark {
            name: "matmul",
            module: kernels::matmul(),
        },
        Benchmark {
            name: "mpeg2",
            module: kernels::mpeg2(),
        },
        Benchmark {
            name: "qsort",
            module: kernels::qsort(),
        },
        Benchmark {
            name: "sha",
            module: kernels::sha(),
        },
    ]
}

/// Look one benchmark up by name.
pub fn by_name(name: &str) -> Option<Module> {
    suite()
        .into_iter()
        .find(|b| b.name == name)
        .map(|b| b.module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::verify_module;

    #[test]
    fn all_benchmarks_verify_and_terminate() {
        for b in suite() {
            verify_module(&b.module).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let t = run_main(&b.module, 5_000_000).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(t.insts_executed > 500, "{} too trivial", b.name);
        }
    }

    #[test]
    fn checksums_are_deterministic_and_distinct() {
        let r1: Vec<Option<i64>> = suite()
            .iter()
            .map(|b| run_main(&b.module, 5_000_000).unwrap().return_value)
            .collect();
        let r2: Vec<Option<i64>> = suite()
            .iter()
            .map(|b| run_main(&b.module, 5_000_000).unwrap().return_value)
            .collect();
        assert_eq!(r1, r2);
        let mut distinct = r1.clone();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() >= 8,
            "checksums suspiciously collide: {r1:?}"
        );
    }

    #[test]
    fn suite_construction_is_deterministic() {
        let a = suite();
        let b = suite();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                autophase_ir::printer::print_module(&x.module),
                autophase_ir::printer::print_module(&y.module),
                "{} not deterministic",
                x.name
            );
        }
    }

    #[test]
    fn feature_profiles_are_realistic() {
        // Every kernel must look like a real program to the extractor:
        // loops (edges > blocks), memory traffic, and branches.
        for b in suite() {
            let f = autophase_features::extract(&b.module);
            assert!(f[50] >= 5, "{}: too few blocks", b.name);
            assert!(f[18] > f[50], "{}: no loops?", b.name);
            assert!(f[52] > 5, "{}: no memory traffic", b.name);
            assert!(f[15] >= 3, "{}: no branching", b.name);
            assert!(f[27] >= 1, "{}: no allocas (not -O0-like)", b.name);
        }
    }

    #[test]
    fn qsort_actually_sorts() {
        // The order-sensitive checksum differs from the unsorted one; as a
        // sanity check, run and make sure the loop terminated (not fuel).
        let m = by_name("qsort").unwrap();
        let t = run_main(&m, 5_000_000).unwrap();
        assert!(t.return_value.is_some());
    }

    #[test]
    fn o3_preserves_every_benchmark_and_reduces_work() {
        for b in suite() {
            let before = run_main(&b.module, 20_000_000).unwrap();
            let mut m = b.module.clone();
            autophase_passes::o3::o3_checked(&mut m, &Default::default());
            verify_module(&m).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let after = run_main(&m, 20_000_000).unwrap();
            assert_eq!(
                before.observable(),
                after.observable(),
                "{} changed behaviour under O3",
                b.name
            );
            assert!(
                after.insts_executed < before.insts_executed,
                "{}: O3 did not reduce dynamic work ({} -> {})",
                b.name,
                before.insts_executed,
                after.insts_executed
            );
        }
    }

    #[test]
    fn hls_cycles_improve_under_o3() {
        use autophase_hls::{profile::profile_module, HlsConfig};
        let cfg = HlsConfig::default();
        let mut improved = 0;
        let total = suite().len();
        for b in suite() {
            let c0 = profile_module(&b.module, &cfg).unwrap().cycles;
            let mut m = b.module.clone();
            autophase_passes::o3::o3_checked(&mut m, &Default::default());
            let c1 = profile_module(&m, &cfg).unwrap().cycles;
            if c1 < c0 {
                improved += 1;
            }
        }
        assert_eq!(improved, total, "O3 should speed up every benchmark");
    }

    #[test]
    fn suite_has_calls_and_tables() {
        // The kernels must exercise interprocedural and global passes.
        let with_calls = suite()
            .iter()
            .filter(|b| autophase_features::extract(&b.module)[33] > 0)
            .count();
        assert!(with_calls >= 4);
        let with_globals = suite()
            .iter()
            .filter(|b| b.module.global_ids().count() > 0)
            .count();
        assert!(with_globals >= 4);
    }
}
