//! Structure-aware features beyond Table 2's 56 counts.
//!
//! Table 2 is almost entirely *count*-shaped: how many blocks, how many
//! instructions of each class, how many φs. Two programs with very
//! different optimization headroom can share a Table-2 vector — a single
//! triply-nested loop and three disjoint flat loops have the same block
//! and branch counts, but respond very differently to `-loop-unroll`,
//! `-licm`-style motion, or `-loop-rotate`. DAPO (PAPERS.md) argues that
//! exactly this kind of *graph-shape* information is what closes the
//! unseen-program gap for learned HLS pass ordering.
//!
//! This module extracts [`NUM_STRUCTURAL_FEATURES`] shape features from
//! the CFG, the natural-loop forest, and the dominator tree:
//!
//! * a **loop-nest depth histogram** (loops at depth 1 / 2 / ≥3, plus the
//!   maximum nest depth) — unroll/rotate/LICM material;
//! * **loop anatomy** (blocks inside loops, exit and latch counts,
//!   multi-latch loops) — how canonical the loops already are;
//! * **branch fanout** (maximum successor count, blocks with ≥3
//!   successors) — switch-heaviness that `-simplifycfg`/`-jump-threading`
//!   act on;
//! * **dominator-tree shape** (height, leaf count, maximum branching
//!   factor) — how deep and how wide control dependence runs.
//!
//! Aggregation over functions is documented per feature: counts sum,
//! maxima take the module-wide max. The block is an extractor, not an
//! observation: the RL environment observes Table 2 only (EXPERIMENTS.md
//! records the ablation that found no gain from appending it).

use autophase_ir::Module;

/// Number of structural features (indices 0–13 of the extension block).
pub const NUM_STRUCTURAL_FEATURES: usize = 14;

/// Human-readable names of the structural features, in index order.
pub fn structural_feature_names() -> [&'static str; NUM_STRUCTURAL_FEATURES] {
    [
        "Number of natural loops",                   // sum
        "Number of loops at nest depth 1",           // sum
        "Number of loops at nest depth 2",           // sum
        "Number of loops at nest depth >= 3",        // sum
        "Maximum loop nest depth",                   // max
        "Number of blocks inside at least one loop", // sum
        "Total loop exit edges",                     // sum
        "Total back edges (loop latches)",           // sum
        "Number of loops with more than one latch",  // sum
        "Maximum successor count of any block",      // max
        "Number of blocks with >= 3 successors",     // sum
        "Dominator tree height",                     // max
        "Number of dominator tree leaves",           // sum
        "Maximum dominator tree branching factor",   // max
    ]
}

/// Whether a structural feature aggregates across functions by summing
/// (true) or by taking the module-wide maximum (false). Index order
/// matches [`structural_feature_names`].
pub const STRUCTURAL_SUMMED: [bool; NUM_STRUCTURAL_FEATURES] = [
    true, true, true, true, false, true, true, true, true, false, true, false, true, false,
];

/// Extract the structural feature block from a module.
///
/// Deterministic in the module: every underlying analysis (CFG
/// successor/predecessor lists, RPO, the loop list sorted by header RPO
/// index, dominator-tree walks over RPO) iterates in block order, never
/// over a `HashMap`.
pub fn extract_structural(m: &Module) -> [i64; NUM_STRUCTURAL_FEATURES] {
    let mut f = [0i64; NUM_STRUCTURAL_FEATURES];
    for fid in m.func_ids() {
        let func = m.func(fid);
        let facts = m.facts(fid);
        let (cfg, dt, loops) = (facts.cfg(), facts.dom(), facts.loops());

        // ---- Loop-nest depth histogram. A loop's depth is the number of
        // loops (itself included) whose block set contains its header;
        // nested loops appear as separate entries with overlapping block
        // sets, so containment counting recovers the nesting level.
        //
        // One pass over every loop's block list builds a dense per-block
        // containment-count tally, replacing the former
        // O(loops × blocks) membership scans (each of which re-walked
        // `Loop::blocks` per query): depth(l) = contain[l.header], and a
        // block is inside a loop iff its count is nonzero.
        let mut contain = vec![0i64; func.block_capacity()];
        for l in loops {
            for &bb in &l.blocks {
                contain[bb.index()] += 1;
            }
        }
        let mut blocks_in_loops = 0i64;
        for bb in func.block_ids() {
            if contain[bb.index()] != 0 {
                blocks_in_loops += 1;
            }
        }
        f[0] += loops.len() as i64;
        for l in loops {
            let depth = contain[l.header.index()];
            match depth {
                1 => f[1] += 1,
                2 => f[2] += 1,
                _ => f[3] += 1,
            }
            f[4] = f[4].max(depth);
            f[6] += l.exits.len() as i64;
            f[7] += l.latches.len() as i64;
            if l.latches.len() > 1 {
                f[8] += 1;
            }
        }
        f[5] += blocks_in_loops;

        // ---- Branch fanout.
        for bb in func.block_ids() {
            let succs = cfg.succs(bb).len() as i64;
            f[9] = f[9].max(succs);
            if succs >= 3 {
                f[10] += 1;
            }
        }

        // ---- Dominator-tree shape. Depth of a block = edges from the
        // entry along idom links; leaves are reachable blocks that
        // immediately dominate nothing.
        let mut max_children = 0i64;
        let mut height = 0i64;
        let mut leaves = 0i64;
        for bb in func.block_ids() {
            if !dt.is_reachable(bb) {
                continue;
            }
            let mut depth = 0i64;
            let mut cur = bb;
            while let Some(up) = dt.idom(cur) {
                depth += 1;
                cur = up;
            }
            height = height.max(depth);
            let kids = dt.children(bb).len() as i64;
            max_children = max_children.max(kids);
            if kids == 0 {
                leaves += 1;
            }
        }
        f[11] = f[11].max(height);
        f[12] += leaves;
        f[13] = f[13].max(max_children);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::{Type, Value};

    fn loop_module(depth: usize) -> Module {
        let mut m = Module::new("loops");
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        fn nest(b: &mut FunctionBuilder, depth: usize) {
            if depth == 0 {
                return;
            }
            b.counted_loop(Value::i32(4), |b, _| nest(b, depth - 1));
        }
        nest(&mut b, depth);
        b.ret(Some(Value::i32(0)));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn straightline_is_all_flat() {
        let mut m = Module::new("s");
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.ret(Some(Value::i32(0)));
        m.add_function(b.finish());
        let f = extract_structural(&m);
        assert_eq!(f[0], 0, "no loops");
        assert_eq!(f[4], 0, "no nest depth");
        assert_eq!(f[11], 0, "dom tree of one block has height 0");
        assert_eq!(f[12], 1, "entry is the only (leaf) block");
    }

    #[test]
    fn nest_depth_histogram() {
        let f = extract_structural(&loop_module(3));
        assert_eq!(f[0], 3, "three loops");
        assert_eq!(f[1], 1, "one top-level loop");
        assert_eq!(f[2], 1, "one depth-2 loop");
        assert_eq!(f[3], 1, "one depth-3 loop");
        assert_eq!(f[4], 3, "max nest depth");
        assert!(f[5] >= 3, "loop bodies counted");
        assert!(f[7] >= 3, "three back edges");
    }

    #[test]
    fn flat_loops_differ_from_nested_structurally_not_in_counts() {
        // The motivating case: same number of loops, different shape.
        let nested = loop_module(2);
        let mut flat = Module::new("flat");
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.counted_loop(Value::i32(4), |_, _| {});
        b.counted_loop(Value::i32(4), |_, _| {});
        b.ret(Some(Value::i32(0)));
        flat.add_function(b.finish());

        let sn = extract_structural(&nested);
        let sf = extract_structural(&flat);
        assert_eq!(sn[0], sf[0], "same loop count");
        assert_ne!(sn[4], sf[4], "different max nest depth");
        assert_eq!(sn[4], 2);
        assert_eq!(sf[4], 1);
        assert_eq!(sf[1], 2, "both flat loops are depth 1");
        assert_eq!(sn[1], 1);
    }

    #[test]
    fn fanout_and_dom_shape() {
        // entry -> {a, b} (fanout 2), a -> j, b -> j.
        let mut m = Module::new("d");
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(autophase_ir::CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(Value::i32(0)));
        m.add_function(b.finish());
        let f = extract_structural(&m);
        assert_eq!(f[9], 2, "max fanout is the cond_br");
        assert_eq!(f[10], 0, "no >=3-way branches");
        assert_eq!(f[11], 1, "entry immediately dominates all three");
        assert_eq!(f[13], 3, "entry has three dom children");
        assert_eq!(f[12], 3, "t, e, j are dom leaves");
    }

    #[test]
    fn names_cover_and_aggregation_table_is_consistent() {
        let names = structural_feature_names();
        assert_eq!(names.len(), NUM_STRUCTURAL_FEATURES);
        let mut uniq: Vec<&str> = names.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), NUM_STRUCTURAL_FEATURES);
        assert_eq!(STRUCTURAL_SUMMED.len(), NUM_STRUCTURAL_FEATURES);
    }

    #[test]
    fn multi_function_aggregation_sums_and_maxes() {
        // f: depth-2 nest; g: one flat loop. Counts sum, maxes max.
        let mut m = Module::new("mf");
        let mut b = FunctionBuilder::new("f", vec![], Type::I32);
        b.counted_loop(Value::i32(4), |b, _| {
            b.counted_loop(Value::i32(4), |_, _| {});
        });
        b.ret(Some(Value::i32(0)));
        m.add_function(b.finish());
        let mut b = FunctionBuilder::new("g", vec![], Type::I32);
        b.counted_loop(Value::i32(4), |_, _| {});
        b.ret(Some(Value::i32(0)));
        m.add_function(b.finish());
        let f = extract_structural(&m);
        assert_eq!(f[0], 3, "2 + 1 loops");
        assert_eq!(f[1], 2, "one top-level loop per function");
        assert_eq!(f[4], 2, "max depth across functions");
    }
}
