//! The program generator itself.

use crate::config::GenConfig;
use autophase_ir::builder::FunctionBuilder;
use autophase_ir::{BinOp, CastOp, CmpPred, FuncId, Global, Module, Type, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate one random module from a seed (no validity filtering).
pub fn generate(cfg: &GenConfig, seed: u64) -> Module {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00D1_5EA5_E5A1_F00D);
    let mut module = Module::new(format!("random_{seed}"));

    // Constant lookup table shared by expressions.
    let table: Vec<i64> = (0..16).map(|_| rng.gen_range(-64..64)).collect();
    let table_g = module.add_global(Global::constant("lut", Type::I32, table));
    // A mutable output buffer; its contents are checksummed into the
    // return value so stores stay observable.
    let out_len = rng.gen_range(4..=cfg.max_array);
    let out_g = module.add_global(Global::zeroed("out", Type::I32, out_len));

    // Helper functions first so main can call them.
    let n_helpers = rng.gen_range(0..=cfg.max_helpers);
    let mut helpers: Vec<FuncId> = Vec::new();
    for h in 0..n_helpers {
        let fid = gen_helper(&mut module, cfg, &mut rng, h, table_g);
        helpers.push(fid);
    }

    gen_main(
        &mut module,
        cfg,
        &mut rng,
        &helpers,
        table_g,
        out_g,
        out_len,
    );
    module
}

/// Generate a module that passes the paper's filters: it verifies, its
/// `main` terminates within the fuel budget, and the HLS scheduler accepts
/// it. Seeds are bumped deterministically until a valid program appears.
pub fn generate_valid(cfg: &GenConfig, seed: u64) -> Module {
    for attempt in 0..1000 {
        let m = generate(cfg, seed.wrapping_add(attempt * 0x9E37_79B9));
        if autophase_ir::verify::verify_module(&m).is_err() {
            continue;
        }
        match autophase_ir::interp::run_main(&m, cfg.filter_fuel) {
            Ok(trace) if trace.insts_executed > 10 => return m,
            _ => continue,
        }
    }
    unreachable!("generator failed to produce a valid program in 1000 attempts");
}

/// A deterministic batch of valid programs (the paper's 100-program
/// training set and 12,874-program test set are instances of this).
pub fn program_batch(cfg: &GenConfig, base_seed: u64, n: usize) -> Vec<Module> {
    (0..n)
        .map(|i| generate_valid(cfg, base_seed.wrapping_add(i as u64 * 7919)))
        .collect()
}

struct Scope {
    /// Pointers to scalar locals (allocas).
    locals: Vec<Value>,
    /// Readable values currently in scope (loop IVs, helper args...).
    readables: Vec<Value>,
    /// Pointer to the local array, with its length.
    array: Option<(Value, u32)>,
}

fn gen_helper(
    module: &mut Module,
    cfg: &GenConfig,
    rng: &mut StdRng,
    idx: usize,
    table_g: autophase_ir::GlobalId,
) -> FuncId {
    // All helpers take exactly three i32 parameters so call sites never
    // need to look up arity.
    let n_params = 3usize;
    let mut b = FunctionBuilder::new(format!("helper{idx}"), vec![Type::I32; n_params], Type::I32);
    let params: Vec<Value> = (0..n_params as u32).map(Value::Arg).collect();

    // Sometimes a guard (early return) so the partial inliner has targets.
    if rng.gen_bool(0.4) {
        let early = b.new_block();
        let rest = b.new_block();
        let c = b.icmp(CmpPred::Sle, params[0], Value::i32(0));
        b.cond_br(c, early, rest);
        b.switch_to(early);
        b.ret(Some(Value::i32(rng.gen_range(0..8))));
        b.switch_to(rest);
    }

    let mut scope = Scope {
        locals: Vec::new(),
        readables: params.clone(),
        array: None,
    };
    // One accumulator local.
    let acc = b.alloca(Type::I32, 1);
    b.store(acc, Value::i32(rng.gen_range(0..4)));
    scope.locals.push(acc);

    let n_stmts = rng.gen_range(1..=cfg.max_stmts.min(4));
    for _ in 0..n_stmts {
        gen_stmt(&mut b, cfg, rng, &mut scope, &[], table_g, 1);
    }

    let r = b.load(Type::I32, acc);
    let mixed = gen_expr(&mut b, cfg, rng, &scope, table_g, 1);
    let out = b.binary(BinOp::Add, r, mixed);
    b.ret(Some(out));
    module.add_function(b.finish())
}

#[allow(clippy::too_many_arguments)]
fn gen_main(
    module: &mut Module,
    cfg: &GenConfig,
    rng: &mut StdRng,
    helpers: &[FuncId],
    table_g: autophase_ir::GlobalId,
    out_g: autophase_ir::GlobalId,
    out_len: u32,
) {
    let mut b = FunctionBuilder::new("main", vec![], Type::I32);

    let mut scope = Scope {
        locals: Vec::new(),
        readables: Vec::new(),
        array: None,
    };
    for i in 0..cfg.num_locals {
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(rng.gen_range(-8..8) + i as i32));
        scope.locals.push(p);
    }
    let arr_len = rng.gen_range(4..=cfg.max_array);
    let arr = b.alloca(Type::I32, arr_len);
    // Init loop over the array (loop-idiom / unroll material).
    b.counted_loop(Value::i32(arr_len as i32), |b, i| {
        let p = b.gep(arr, i);
        b.store(p, i);
    });
    scope.array = Some((arr, arr_len));

    // Clamp so degenerate configs (max_stmts == 1) stay in the sampler's
    // domain instead of panicking; the drawn range is unchanged for every
    // config the clamp doesn't bite.
    let n_stmts = rng.gen_range(2..=cfg.max_stmts.max(2));
    for _ in 0..n_stmts {
        gen_stmt(&mut b, cfg, rng, &mut scope, helpers, table_g, 0);
    }

    // Checksum: locals, the local array, and the global out buffer fold
    // into the returned value.
    let acc = b.alloca(Type::I32, 1);
    b.store(acc, Value::i32(0));
    for &l in &scope.locals {
        let v = b.load(Type::I32, l);
        let c = b.load(Type::I32, acc);
        let x = b.binary(BinOp::Xor, c, v);
        let r = b.binary(BinOp::Mul, x, Value::i32(31));
        b.store(acc, r);
    }
    b.counted_loop(Value::i32(arr_len as i32), |b, i| {
        let p = b.gep(arr, i);
        let v = b.load(Type::I32, p);
        let c = b.load(Type::I32, acc);
        let s = b.binary(BinOp::Add, c, v);
        b.store(acc, s);
    });
    b.counted_loop(Value::i32(out_len as i32), |b, i| {
        let p = b.gep(Value::Global(out_g), i);
        let v = b.load(Type::I32, p);
        let c = b.load(Type::I32, acc);
        let s = b.binary(BinOp::Xor, c, v);
        b.store(acc, s);
    });
    let result = b.load(Type::I32, acc);
    b.ret(Some(result));
    module.add_function(b.finish());
    let _ = table_g;
}

/// Emit one statement at the current insertion point.
#[allow(clippy::too_many_arguments)]
fn gen_stmt(
    b: &mut FunctionBuilder,
    cfg: &GenConfig,
    rng: &mut StdRng,
    scope: &mut Scope,
    helpers: &[FuncId],
    table_g: autophase_ir::GlobalId,
    depth: usize,
) {
    let choices = if depth < cfg.max_loop_depth { 6 } else { 4 };
    match rng.gen_range(0..choices) {
        // Assign an expression to a local.
        0 | 1 => {
            let target = scope.locals[rng.gen_range(0..scope.locals.len())];
            let e = gen_expr(b, cfg, rng, scope, table_g, depth);
            b.store(target, e);
        }
        // If/else updating a local.
        2 => {
            let t = b.new_block();
            let e = b.new_block();
            let j = b.new_block();
            let lhs = gen_expr(b, cfg, rng, scope, table_g, depth);
            let rhs = gen_expr(b, cfg, rng, scope, table_g, depth);
            let pred =
                [CmpPred::Slt, CmpPred::Eq, CmpPred::Sgt, CmpPred::Ne][rng.gen_range(0..4usize)];
            let c = b.icmp(pred, lhs, rhs);
            b.cond_br(c, t, e);
            let target = scope.locals[rng.gen_range(0..scope.locals.len())];
            b.switch_to(t);
            let v1 = gen_expr(b, cfg, rng, scope, table_g, depth);
            b.store(target, v1);
            b.br(j);
            b.switch_to(e);
            if rng.gen_bool(0.5) {
                let v2 = gen_expr(b, cfg, rng, scope, table_g, depth);
                b.store(target, v2);
            }
            b.br(j);
            b.switch_to(j);
        }
        // Call a helper (if any) into a local.
        3 => {
            if helpers.is_empty() {
                let target = scope.locals[rng.gen_range(0..scope.locals.len())];
                let e = gen_expr(b, cfg, rng, scope, table_g, depth);
                b.store(target, e);
            } else {
                let callee = helpers[rng.gen_range(0..helpers.len())];
                let n_args = b_num_params(b, callee);
                let args: Vec<Value> = (0..n_args)
                    .map(|_| gen_expr(b, cfg, rng, scope, table_g, depth))
                    .collect();
                let r = b.call(callee, Type::I32, args);
                let target = scope.locals[rng.gen_range(0..scope.locals.len())];
                b.store(target, r);
            }
        }
        // Counted loop with a body of statements.
        4 | 5 => {
            let trip = rng.gen_range(4..=cfg.max_trip);
            // Pre-draw body statement plan to keep rng sequencing simple.
            let n_body = rng.gen_range(1..=3usize);
            let mut sub_rng = StdRng::seed_from_u64(rng.gen());
            b.counted_loop(Value::i32(trip as i32), |b, i| {
                scope.readables.push(i);
                for _ in 0..n_body {
                    // Array traffic inside loops: read/modify/write one slot.
                    if let (Some((arr, len)), true) = (scope.array, sub_rng.gen_bool(0.5)) {
                        let idx = b.binary(BinOp::URem, i, Value::i32(len as i32));
                        let p = b.gep(arr, idx);
                        let old = b.load(Type::I32, p);
                        let e = gen_expr(b, cfg, &mut sub_rng, scope, table_g, depth + 1);
                        let nv = b.binary(
                            [BinOp::Add, BinOp::Xor, BinOp::Sub][sub_rng.gen_range(0..3usize)],
                            old,
                            e,
                        );
                        b.store(p, nv);
                    } else {
                        gen_stmt(b, cfg, &mut sub_rng, scope, helpers, table_g, depth + 1);
                    }
                }
                scope.readables.pop();
            });
        }
        _ => unreachable!(),
    }
}

fn b_num_params(_b: &FunctionBuilder, _callee: FuncId) -> usize {
    // Every generated helper takes exactly three i32 parameters.
    3
}

/// Emit an expression tree, returns its value.
fn gen_expr(
    b: &mut FunctionBuilder,
    cfg: &GenConfig,
    rng: &mut StdRng,
    scope: &Scope,
    table_g: autophase_ir::GlobalId,
    depth: usize,
) -> Value {
    gen_expr_depth(b, cfg, rng, scope, table_g, depth, cfg.max_expr_depth)
}

#[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
fn gen_expr_depth(
    b: &mut FunctionBuilder,
    cfg: &GenConfig,
    rng: &mut StdRng,
    scope: &Scope,
    table_g: autophase_ir::GlobalId,
    stmt_depth: usize,
    budget: usize,
) -> Value {
    if budget == 0 || rng.gen_bool(0.3) {
        // Leaf.
        return match rng.gen_range(0..4) {
            0 => Value::i32(rng.gen_range(-16..17)),
            1 => {
                let p = scope.locals[rng.gen_range(0..scope.locals.len())];
                b.load(Type::I32, p)
            }
            2 if !scope.readables.is_empty() => {
                scope.readables[rng.gen_range(0..scope.readables.len())]
            }
            _ => {
                // Constant-table lookup.
                let idx = rng.gen_range(0..16);
                let p = b.gep(Value::Global(table_g), Value::i32(idx));
                b.load(Type::I32, p)
            }
        };
    }
    let lhs = gen_expr_depth(b, cfg, rng, scope, table_g, stmt_depth, budget - 1);
    let rhs = gen_expr_depth(b, cfg, rng, scope, table_g, stmt_depth, budget - 1);
    let ops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::AShr,
        BinOp::SDiv,
        BinOp::URem,
    ];
    let op = ops[rng.gen_range(0..ops.len())];
    let rhs = match op {
        // Bound shift amounts (semantics mask anyway; small shifts keep
        // values in interesting ranges).
        BinOp::Shl | BinOp::AShr => b.binary(BinOp::And, rhs, Value::i32(7)),
        _ => rhs,
    };
    let v = b.binary(op, lhs, rhs);
    if rng.gen_bool(0.1) {
        // Occasional narrowing round trip (cast material).
        let n = b.cast(CastOp::Trunc, Type::I16, v);
        b.cast(CastOp::SExt, Type::I32, n)
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::verify_module;

    #[test]
    fn deterministic_in_seed() {
        let cfg = GenConfig::default();
        let a = generate(&cfg, 7);
        let b = generate(&cfg, 7);
        assert_eq!(
            autophase_ir::printer::print_module(&a),
            autophase_ir::printer::print_module(&b)
        );
        let c = generate(&cfg, 8);
        assert_ne!(
            autophase_ir::printer::print_module(&a),
            autophase_ir::printer::print_module(&c)
        );
    }

    #[test]
    fn valid_programs_verify_and_terminate() {
        let cfg = GenConfig::default();
        for seed in 0..30 {
            let m = generate_valid(&cfg, seed);
            verify_module(&m).unwrap();
            let t = run_main(&m, cfg.filter_fuel).unwrap();
            assert!(t.insts_executed > 10);
        }
    }

    #[test]
    fn programs_have_optimization_material() {
        let cfg = GenConfig::default();
        let mut any_loop = 0;
        let mut any_mem = 0;
        let mut any_branch = 0;
        for seed in 0..20 {
            let m = generate_valid(&cfg, seed);
            let f = autophase_features::extract(&m);
            if f[50] > 3 {
                any_loop += 1;
            }
            if f[52] > 0 {
                any_mem += 1;
            }
            if f[15] > 0 {
                any_branch += 1;
            }
        }
        assert_eq!(any_mem, 20);
        assert_eq!(any_branch, 20);
        assert!(any_loop >= 18);
    }

    #[test]
    fn passes_preserve_random_program_semantics() {
        // The cornerstone integration property, sampled cheaply here (the
        // proptest suite drives it harder).
        let cfg = GenConfig::default();
        for seed in 0..10 {
            let m0 = generate_valid(&cfg, seed);
            let expect = run_main(&m0, cfg.filter_fuel).unwrap().observable();
            let mut m = m0.clone();
            autophase_passes::o3::o3_checked(&mut m, &Default::default());
            verify_module(&m).unwrap_or_else(|e| {
                panic!("seed {seed}: O3 broke verify: {e}");
            });
            let got = run_main(&m, cfg.filter_fuel).unwrap().observable();
            assert_eq!(got, expect, "seed {seed}: O3 changed behaviour");
        }
    }

    #[test]
    fn optimization_improves_random_programs_on_average() {
        use autophase_hls::{profile::profile_module, HlsConfig};
        let cfg = GenConfig::default();
        let hls = HlsConfig::default();
        let mut better = 0;
        let n = 15;
        for seed in 100..100 + n {
            let m0 = generate_valid(&cfg, seed);
            let c0 = profile_module(&m0, &hls).unwrap().cycles;
            let mut m = m0.clone();
            autophase_passes::o3::o3_checked(&mut m, &Default::default());
            let c1 = profile_module(&m, &hls).unwrap().cycles;
            if c1 < c0 {
                better += 1;
            }
        }
        assert!(better * 10 >= n * 8, "O3 helped only {better}/{n} programs");
    }

    #[test]
    fn batch_is_deterministic() {
        let cfg = GenConfig::default();
        let a = program_batch(&cfg, 1, 3);
        let b = program_batch(&cfg, 1, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                autophase_ir::printer::print_module(x),
                autophase_ir::printer::print_module(y)
            );
        }
    }
}
