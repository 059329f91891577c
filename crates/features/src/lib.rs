//! Static program features (the paper's Table 2).
//!
//! [`extract`](mod@extract) computes the exact 56 features of Table 2 from a module —
//! basic-block shape counts, instruction-class counts, constant
//! occurrences, CFG edges and critical edges, φ-node statistics. These
//! form the RL observation (the "program features" observation space) and
//! feed the random-forest importance analysis of §4.
//!
//! [`normalize`] implements §5.3's two techniques: ① elementwise
//! `log1p`, and ② division by feature 51 (total instruction count).
//! [`filter_features`] keeps the paper's reduced feature subset used by the
//! `filtered-*` configurations in §6.2.
//!
//! # Example
//!
//! ```
//! use autophase_features::{extract, normalize_to_inst_count, NUM_FEATURES};
//! use autophase_ir::{builder::FunctionBuilder, Module, Type, Value};
//!
//! let mut b = FunctionBuilder::new("main", vec![], Type::I32);
//! let p = b.alloca(Type::I32, 1);
//! b.store(p, Value::i32(7));
//! let v = b.load(Type::I32, p);
//! b.ret(Some(v));
//! let mut m = Module::new("demo");
//! m.add_function(b.finish());
//!
//! let features = extract(&m);
//! assert_eq!(features.len(), NUM_FEATURES);
//! assert_eq!(features[27], 1); // one alloca
//! assert_eq!(features[52], 2); // one load + one store
//! let dist = normalize_to_inst_count(&features);
//! assert!((dist[51] - 1.0).abs() < 1e-12);
//! ```
#![warn(missing_docs)]

pub mod extract;
pub mod incremental;
pub mod normalize;
pub mod structural;

pub use extract::{extract, extract_function, feature_names, FeatureVector, NUM_FEATURES};
pub use incremental::IncrementalFeatures;
pub use normalize::{
    filter_features, inst_count_filtered, log_normalize, normalize_to_inst_count, FILTERED_FEATURES,
};
pub use structural::{extract_structural, structural_feature_names, NUM_STRUCTURAL_FEATURES};
