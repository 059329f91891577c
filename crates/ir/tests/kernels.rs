//! Differential tests of the linear-time kernels against straightforward
//! references: the batched [`Rewrites`] sweep against the sequence of
//! `replace_all_uses` + `remove_inst` calls it replaces, and the dense
//! `Cfg` / `DomTree` / `find_loops` against textbook set-based versions on
//! random control-flow graphs (unreachable blocks and duplicate edges
//! included), and the edge edits of `autophase_ir::edges` (the terminator
//! edits `set_branch`, `end_with_branch` and `merge_block` among them)
//! against plain list edits on the same graphs with φs added.

use autophase_ir::cfg::Cfg;
use autophase_ir::dom::DomTree;
use autophase_ir::loops::find_loops;
use autophase_ir::{BlockId, Function, Inst, InstId, Opcode, Rewrites, Type, Value};
use autophase_progen::{generate_valid, GenConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// SplitMix64: every case is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// ------------------------------------------------------------ rewrites

/// A random batch over `f`: distinct value-producing instructions, each
/// forwarded to a constant, an argument, or another instruction. A target
/// is never an instruction an *earlier* entry retired (the sequential
/// reference would leave that use dangling) but may be retired *later*,
/// which makes chains `a → b`, `b → c`.
fn random_forwards(f: &Function, rng: &mut Rng) -> Vec<(InstId, Value)> {
    let mut candidates: Vec<InstId> = f
        .block_ids()
        .flat_map(|bb| f.block(bb).insts.clone())
        .filter(|&i| !f.inst(i).ty.is_void())
        .collect();
    let mut forwards: Vec<(InstId, Value)> = Vec::new();
    for _ in 0..rng.below(candidates.len().min(24) + 1) {
        let from = candidates.swap_remove(rng.below(candidates.len()));
        let to = match rng.below(4) {
            0 => Value::const_int(Type::I32, rng.next() as i64),
            1 => Value::Arg(rng.below(4) as u32),
            // Still a candidate: not retired so far, maybe later.
            _ if !candidates.is_empty() => Value::Inst(candidates[rng.below(candidates.len())]),
            _ => Value::Undef(Type::I32),
        };
        forwards.push((from, to));
    }
    forwards
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One operand sweep plus one `retain` per block equals the calls it
    /// replaces, φ operands and chains included.
    #[test]
    fn batched_rewrites_equal_sequential_calls(seed in 0u64..100_000) {
        let m = generate_valid(&GenConfig::default(), seed);
        let mut rng = Rng(seed);
        for fid in m.func_ids() {
            let forwards = random_forwards(m.func(fid), &mut rng);

            let mut sequential = m.func(fid).clone();
            for &(from, to) in &forwards {
                sequential.replace_all_uses(Value::Inst(from), to);
                let bb = sequential.block_of(from).expect("placed");
                sequential.remove_inst(bb, from);
            }

            let mut batched = m.func(fid).clone();
            let mut rw = Rewrites::new();
            for &(from, to) in &forwards {
                rw.replace(from, to);
            }
            prop_assert_eq!(rw.is_empty(), forwards.is_empty());
            batched.apply_rewrites(&rw);
            prop_assert!(batched == sequential, "seed {} diverged", seed);
            for &(from, _) in &forwards {
                prop_assert!(!batched.inst_exists(from));
                prop_assert_eq!(batched.count_uses(Value::Inst(from)), 0);
            }
        }
    }
}

// ------------------------------------------------------------ analyses

/// A random function that is nothing but control flow: `n` blocks, each
/// ending in `ret`, `br`, `condbr` (both arms may name the same block) or
/// `switch`. Nothing guarantees a block is reachable. As in any function
/// the builder or a pass produces, nothing branches to the entry block
/// (it cannot hold φs, so it is never a join).
fn random_cfg(rng: &mut Rng) -> Function {
    let n = 1 + rng.below(12);
    let mut f = Function::new("g", vec![Type::I32], Type::Void);
    for _ in 1..n {
        f.add_block();
    }
    let pick = |rng: &mut Rng| BlockId::from_index(1 + rng.below(n - 1));
    for i in 0..n {
        let op = match rng.below(if n == 1 { 1 } else { 8 }) {
            0 => Opcode::Ret { value: None },
            1..=2 => Opcode::Br { target: pick(rng) },
            3..=5 => Opcode::CondBr {
                cond: Value::Arg(0),
                then_bb: pick(rng),
                else_bb: pick(rng),
            },
            6 => {
                let twice = pick(rng);
                Opcode::CondBr {
                    cond: Value::Arg(0),
                    then_bb: twice,
                    else_bb: twice,
                }
            }
            _ => Opcode::Switch {
                value: Value::Arg(0),
                default: pick(rng),
                cases: (0..rng.below(4)).map(|k| (k as i64, pick(rng))).collect(),
            },
        };
        f.append_inst(BlockId::from_index(i), Inst::new(Type::Void, op));
    }
    f
}

/// Textbook analyses over ordered sets, quadratic and obviously right.
struct Reference {
    preds: BTreeMap<BlockId, Vec<BlockId>>,
    rpo: Vec<BlockId>,
    /// Dominator sets of the reachable blocks.
    dom: BTreeMap<BlockId, BTreeSet<BlockId>>,
}

impl Reference {
    fn new(f: &Function) -> Reference {
        let mut preds: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();
        for bb in f.block_ids() {
            preds.entry(bb).or_default();
            for s in f.successors(bb) {
                preds.entry(s).or_default().push(bb);
            }
        }
        // Recursive depth-first post-order, reversed.
        fn visit(f: &Function, bb: BlockId, seen: &mut BTreeSet<BlockId>, post: &mut Vec<BlockId>) {
            for s in f.successors(bb) {
                if seen.insert(s) {
                    visit(f, s, seen, post);
                }
            }
            post.push(bb);
        }
        let mut rpo = Vec::new();
        visit(f, f.entry, &mut BTreeSet::from([f.entry]), &mut rpo);
        rpo.reverse();

        // dom(entry) = {entry}; dom(b) = {b} ∪ ⋂ dom(reachable preds).
        let all: BTreeSet<BlockId> = rpo.iter().copied().collect();
        let mut dom: BTreeMap<BlockId, BTreeSet<BlockId>> =
            rpo.iter().map(|&b| (b, all.clone())).collect();
        dom.insert(f.entry, BTreeSet::from([f.entry]));
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut meet: Option<BTreeSet<BlockId>> = None;
                for p in preds[&b].iter().filter(|p| all.contains(p)) {
                    meet = Some(match meet {
                        None => dom[p].clone(),
                        Some(acc) => acc.intersection(&dom[p]).copied().collect(),
                    });
                }
                let mut new = meet.unwrap_or_default();
                new.insert(b);
                if new != dom[&b] {
                    dom.insert(b, new);
                    changed = true;
                }
            }
        }
        Reference { preds, rpo, dom }
    }

    fn reachable(&self, b: BlockId) -> bool {
        self.dom.contains_key(&b)
    }

    fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.reachable(a) && self.dom.get(&b).is_some_and(|d| d.contains(&a))
    }

    /// The strict dominator every other strict dominator dominates.
    fn idom(&self, b: BlockId) -> Option<BlockId> {
        let strict: Vec<BlockId> = self
            .dom
            .get(&b)?
            .iter()
            .copied()
            .filter(|&d| d != b)
            .collect();
        strict
            .iter()
            .copied()
            .find(|&c| strict.iter().all(|&d| self.dominates(d, c)))
    }

    /// DF(a) = blocks with a reachable predecessor `a` dominates that `a`
    /// does not strictly dominate.
    fn frontier(&self, a: BlockId) -> BTreeSet<BlockId> {
        self.rpo
            .iter()
            .copied()
            .filter(|&b| {
                self.preds[&b]
                    .iter()
                    .any(|&p| self.reachable(p) && self.dominates(a, p))
                    && !(a != b && self.dominates(a, b))
            })
            .collect()
    }

    /// Natural loops merged by header: header → (latches, body).
    fn loops(&self, f: &Function) -> BTreeMap<BlockId, (BTreeSet<BlockId>, BTreeSet<BlockId>)> {
        let mut out: BTreeMap<BlockId, (BTreeSet<BlockId>, BTreeSet<BlockId>)> = BTreeMap::new();
        for &u in &self.rpo {
            for h in f.successors(u) {
                if self.dominates(h, u) {
                    out.entry(h).or_default().0.insert(u);
                }
            }
        }
        for (&h, (latches, body)) in out.iter_mut() {
            body.insert(h);
            let mut work: Vec<BlockId> = latches.iter().copied().collect();
            while let Some(b) = work.pop() {
                if body.insert(b) {
                    work.extend(
                        self.preds[&b]
                            .iter()
                            .copied()
                            .filter(|&p| self.reachable(p)),
                    );
                }
            }
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn dense_analyses_agree_with_reference(seed in 0u64..1_000_000) {
        let f = random_cfg(&mut Rng(seed));
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let reference = Reference::new(&f);

        prop_assert_eq!(cfg.rpo(), reference.rpo.as_slice());
        let mut edges = 0;
        for bb in f.block_ids() {
            // Lists keep duplicates and production order: a double edge
            // shows twice in `preds`.
            prop_assert_eq!(cfg.succs(bb), f.successors(bb).as_slice());
            prop_assert_eq!(cfg.preds(bb), reference.preds[&bb].as_slice());
            edges += cfg.succs(bb).len();
            prop_assert_eq!(cfg.is_reachable(bb), reference.reachable(bb));
            prop_assert_eq!(dt.is_reachable(bb), reference.reachable(bb));
            prop_assert_eq!(
                cfg.rpo_index(bb),
                reference.rpo.iter().position(|&b| b == bb)
            );
            let idom = if bb == f.entry { None } else { reference.idom(bb) };
            prop_assert_eq!(dt.idom(bb), idom, "idom of b{}", bb.index());
            let children: Vec<BlockId> = f
                .block_ids()
                .filter(|&c| c != f.entry && reference.idom(c) == Some(bb))
                .collect();
            prop_assert_eq!(dt.children(bb), children.as_slice());
            for other in f.block_ids() {
                prop_assert_eq!(
                    dt.dominates(bb, other),
                    reference.dominates(bb, other),
                    "b{} dom b{}", bb.index(), other.index()
                );
            }
        }
        prop_assert_eq!(cfg.num_edges(), edges);

        let df = dt.dominance_frontiers(&cfg);
        for bb in f.block_ids() {
            let got: BTreeSet<BlockId> = df[bb.index()].iter().copied().collect();
            prop_assert_eq!(got.len(), df[bb.index()].len(), "duplicate frontier entry");
            let want = if reference.reachable(bb) { reference.frontier(bb) } else { BTreeSet::new() };
            prop_assert_eq!(got, want, "frontier of b{}", bb.index());
        }

        let loops = find_loops(&f, &cfg, &dt);
        let want = reference.loops(&f);
        prop_assert_eq!(loops.len(), want.len());
        for l in &loops {
            let (latches, body) = &want[&l.header];
            prop_assert_eq!(l.blocks[0], l.header);
            prop_assert_eq!(&l.latches.iter().copied().collect::<BTreeSet<_>>(), latches);
            prop_assert_eq!(&l.blocks.iter().copied().collect::<BTreeSet<_>>(), body);
            prop_assert_eq!(l.blocks.len(), body.len(), "duplicate loop block");
            let exits: BTreeSet<BlockId> = body
                .iter()
                .flat_map(|&b| f.successors(b))
                .filter(|s| !body.contains(s))
                .collect();
            prop_assert_eq!(&l.exits.iter().copied().collect::<BTreeSet<_>>(), &exits);
        }
        // Outer loops (earlier headers in RPO) first.
        let order: Vec<_> = loops.iter().map(|l| cfg.rpo_index(l.header)).collect();
        prop_assert!(order.windows(2).all(|w| w[0] <= w[1]));
    }
}

// ------------------------------------------------------------ edge edits

/// A random CFG (see [`random_cfg`]) whose non-entry blocks lead with up
/// to two φs. Each φ has one entry per predecessor edge, so a double edge
/// gives two entries from one block, and now and then a stray entry from a
/// block that is no predecessor; values are constants or earlier φs.
fn random_phi_cfg(rng: &mut Rng) -> Function {
    let f = random_cfg(rng);
    add_phis(f, rng)
}

/// `f` with the φs [`random_phi_cfg`] adds to a [`random_cfg`].
fn add_phis(mut f: Function, rng: &mut Rng) -> Function {
    let n = f.num_blocks();
    let cfg = Cfg::new(&f);
    let mut made: Vec<InstId> = Vec::new();
    for bb in (1..n).map(BlockId::from_index) {
        for k in 0..rng.below(3) {
            let value = |rng: &mut Rng| match rng.below(3) {
                0 if !made.is_empty() => Value::Inst(made[rng.below(made.len())]),
                _ => Value::const_int(Type::I32, rng.below(100) as i64),
            };
            let mut incoming: Vec<(BlockId, Value)> =
                cfg.preds(bb).iter().map(|&p| (p, value(rng))).collect();
            if rng.below(4) == 0 {
                incoming.push((BlockId::from_index(rng.below(n)), value(rng)));
            }
            let phi = Inst::new(Type::I32, Opcode::Phi { incoming });
            made.push(f.insert_inst(bb, k, phi));
        }
    }
    f
}

/// What the edge edits touch, per live block: its successor list and its
/// φs' incoming lists, both in order.
type Shape = BTreeMap<BlockId, (Vec<BlockId>, Vec<(InstId, Vec<(BlockId, Value)>)>)>;

fn shape(f: &Function) -> Shape {
    f.block_ids()
        .map(|bb| {
            let phis = f
                .insts_in(bb)
                .filter_map(|(id, inst)| match &inst.op {
                    Opcode::Phi { incoming } => Some((id, incoming.clone())),
                    _ => None,
                })
                .collect();
            (bb, (f.successors(bb), phis))
        })
        .collect()
}

/// The plain edits the helpers stand for, on a [`Shape`].
fn succs(s: &mut Shape, bb: BlockId) -> &mut Vec<BlockId> {
    &mut s.get_mut(&bb).expect("live block").0
}

fn phis(s: &mut Shape, bb: BlockId) -> &mut Vec<(InstId, Vec<(BlockId, Value)>)> {
    &mut s.get_mut(&bb).expect("live block").1
}

fn redirect(s: &mut Shape, pred: BlockId, from: BlockId, to: BlockId) {
    for t in succs(s, pred).iter_mut().filter(|t| **t == from) {
        *t = to;
    }
}

fn retarget(
    s: &mut Shape,
    bb: BlockId,
    old: BlockId,
    new: BlockId,
    value: impl Fn(Value) -> Value,
) {
    for (_, incoming) in phis(s, bb) {
        for (p, v) in incoming.iter_mut().filter(|(p, _)| *p == old) {
            (*p, *v) = (new, value(*v));
        }
    }
}

/// A value map the helpers' closures apply, so a wrong value shows.
fn bump(v: Value) -> Value {
    match v {
        Value::ConstInt(ty, c) => Value::const_int(ty, c + 1000),
        v => v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn edge_edits_agree_with_plain_list_edits(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let f = random_phi_cfg(&mut rng);
        let n = f.num_blocks();
        let before = shape(&f);
        let mut pick = || BlockId::from_index(rng.below(n));
        let (a, b, c) = (pick(), pick(), pick());

        let mut got = f.clone();
        got.redirect_branch(a, b, c);
        let mut want = before.clone();
        redirect(&mut want, a, b, c);
        prop_assert_eq!(shape(&got), want, "redirect_branch");

        let mut got = f.clone();
        got.retarget_phis_with(a, b, c, bump);
        let mut want = before.clone();
        retarget(&mut want, a, b, c, bump);
        prop_assert_eq!(shape(&got), want, "retarget_phis_with");

        let mut got = f.clone();
        got.remove_phi_edge(a, b);
        let mut want = before.clone();
        for (_, incoming) in phis(&mut want, a) {
            incoming.retain(|(p, _)| *p != b);
        }
        prop_assert_eq!(shape(&got), want, "remove_phi_edge");

        // Carry: preds `b` and `c` gain the new preds `c` and `a`.
        let new_pred = |p: BlockId| (p == b).then_some(c).or((p == c).then_some(a));
        let mut got = f.clone();
        got.carry_phi_edges(a, new_pred, bump);
        let mut want = before.clone();
        for (_, incoming) in phis(&mut want, a) {
            let carried: Vec<(BlockId, Value)> = incoming
                .iter()
                .filter_map(|&(p, v)| new_pred(p).map(|q| (q, bump(v))))
                .collect();
            incoming.extend(carried);
        }
        prop_assert_eq!(shape(&got), want, "carry_phi_edges");

        // Move: from {b, c} (or just b) onto up to three blocks, `from`
        // included now and then.
        let from: Vec<BlockId> = if seed % 2 == 0 { vec![b, c] } else { vec![b] };
        let to: Vec<BlockId> = (0..seed as usize % 4)
            .map(|k| BlockId::from_index((seed as usize + k) % n))
            .collect();
        let value = |phi: InstId, p: BlockId, v: Value| match v {
            Value::ConstInt(ty, x) => {
                Value::const_int(ty, x + 10 * p.index() as i64 + phi.index() as i64)
            }
            v => v,
        };
        let mut got = f.clone();
        got.move_phi_edges(a, &from, &to, value);
        let mut want = before.clone();
        for (phi, incoming) in phis(&mut want, a) {
            if let Some(&(_, v)) = incoming.iter().find(|(p, _)| from.contains(p)) {
                incoming.retain(|(p, _)| !from.contains(p));
                incoming.extend(to.iter().map(|&p| (p, value(*phi, p, v))));
            }
        }
        prop_assert_eq!(shape(&got), want, "move_phi_edges");

        // split_edge: a new block on every `a → b` edge.
        let mut got = f.clone();
        let mid = got.split_edge(a, b);
        prop_assert_eq!(mid, BlockId::from_index(f.block_capacity()));
        let mut want = before.clone();
        want.insert(mid, (vec![b], Vec::new()));
        redirect(&mut want, a, b, mid);
        retarget(&mut want, b, a, mid, |v| v);
        prop_assert_eq!(shape(&got), want, "split_edge");

        // split_block: anywhere up to and including the terminator.
        let at = rng.below(f.block(a).insts.len());
        let mut got = f.clone();
        let tail = got.split_block(a, at);
        prop_assert_eq!(tail, BlockId::from_index(f.block_capacity()));
        let mut want = before.clone();
        let kept = phis(&mut want, a);
        let moved = kept.split_off(at.min(kept.len()));
        let old_succs = std::mem::replace(succs(&mut want, a), vec![tail]);
        want.insert(tail, (old_succs.clone(), moved));
        for s in old_succs {
            retarget(&mut want, s, a, tail, |v| v);
        }
        prop_assert_eq!(shape(&got), want, "split_block");

        // clone_region: a random subset, in random order, into a copy.
        let mut region: Vec<BlockId> = f.block_ids().filter(|_| rng.below(2) == 0).collect();
        for i in (1..region.len()).rev() {
            region.swap(i, rng.below(i + 1));
        }
        let mut got = f.clone();
        let mut vmap = HashMap::new();
        let bmap = got.clone_region(&f, &region, &mut vmap);
        let mut want = before.clone();
        let block_of: HashMap<BlockId, BlockId> = region
            .iter()
            .enumerate()
            .map(|(k, &r)| (r, BlockId::from_index(f.block_capacity() + k)))
            .collect();
        let mut next_inst = f.inst_capacity();
        let mut inst_of: HashMap<Value, Value> = HashMap::new();
        for &r in &region {
            for &i in &f.block(r).insts {
                inst_of.insert(Value::Inst(i), Value::Inst(InstId::from_index(next_inst)));
                next_inst += 1;
            }
        }
        for &r in &region {
            let (old_succs, old_phis) = before[&r].clone();
            let map_block = |x: BlockId| *block_of.get(&x).unwrap_or(&x);
            let phis = old_phis
                .into_iter()
                .map(|(id, incoming)| {
                    let Value::Inst(id) = inst_of[&Value::Inst(id)] else { unreachable!() };
                    let incoming = incoming
                        .into_iter()
                        .map(|(p, v)| (map_block(p), *inst_of.get(&v).unwrap_or(&v)))
                        .collect();
                    (id, incoming)
                })
                .collect();
            want.insert(block_of[&r], (old_succs.into_iter().map(map_block).collect(), phis));
        }
        prop_assert_eq!(bmap, block_of);
        prop_assert_eq!(vmap, inst_of);
        prop_assert_eq!(shape(&got), want, "clone_region");
    }
}

/// A successor list naming blocks of `0..n`, `n` > 1, with repeats likely:
/// its entries come from a pool of at most three blocks.
fn repeating_targets(rng: &mut Rng, n: usize, len: usize) -> Vec<BlockId> {
    let pool: Vec<BlockId> = (0..1 + rng.below(3))
        .map(|_| BlockId::from_index(1 + rng.below(n - 1)))
        .collect();
    (0..len).map(|_| pool[rng.below(pool.len())]).collect()
}

/// The plain edit `set_branch` stands for: `bb`'s successors become
/// `new`, and every old successor `new` does not name loses all of `bb`'s
/// entries.
fn set_succs(s: &mut Shape, bb: BlockId, new: Vec<BlockId>) {
    let old = std::mem::replace(succs(s, bb), new.clone());
    for gone in old.into_iter().filter(|o| !new.contains(o)) {
        for (_, incoming) in phis(s, gone) {
            incoming.retain(|(p, _)| *p != bb);
        }
    }
}

/// Entries from `pred` in the φs of `bb`.
fn entries_from(s: &Shape, bb: BlockId, pred: BlockId) -> usize {
    s[&bb]
        .1
        .iter()
        .map(|(_, incoming)| incoming.iter().filter(|(p, _)| *p == pred).count())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn terminator_edits_agree_with_plain_list_edits(seed in 0u64..1_000_000) {
        let mut rng = Rng(seed);
        let f = random_phi_cfg(&mut rng);
        let n = f.num_blocks();
        prop_assume!(n > 1);
        let before = shape(&f);
        let bb = BlockId::from_index(rng.below(n));

        // set_branch: any terminator over any terminator, repeats included.
        let len = 1 + rng.below(5);
        let targets = repeating_targets(&mut rng, n, len);
        let op = match rng.below(3) {
            0 => Opcode::Br { target: targets[0] },
            1 => Opcode::CondBr {
                cond: Value::Arg(0),
                then_bb: targets[0],
                else_bb: *targets.last().unwrap(),
            },
            _ => Opcode::Switch {
                value: Value::Arg(0),
                default: targets[0],
                cases: targets[1..].iter().enumerate().map(|(k, &t)| (k as i64, t)).collect(),
            },
        };
        let mut got = f.clone();
        let term = got.terminator(bb);
        got.set_branch(bb, op.clone());
        prop_assert_eq!(got.terminator(bb), term, "the terminator keeps its slot");
        prop_assert_eq!(got.inst_capacity(), f.inst_capacity());
        let mut want = before.clone();
        set_succs(&mut want, bb, Inst::new(Type::Void, op).successors());
        prop_assert_eq!(shape(&got), want, "set_branch");

        // end_with_branch: cut anywhere up to and including the
        // terminator, then a new `br` in the next free slot.
        let at = rng.below(f.block(bb).insts.len());
        let target = targets[0];
        let mut got = f.clone();
        got.end_with_branch(bb, at, target);
        prop_assert_eq!(
            got.terminator(bb),
            Some(InstId::from_index(f.inst_capacity()))
        );
        let mut want = before.clone();
        set_succs(&mut want, bb, vec![target]);
        let kept = phis(&mut want, bb);
        kept.truncate(at.min(kept.len()));
        prop_assert_eq!(shape(&got), want, "end_with_branch");

        // A constant switch whose cases repeat a target, folded to the arm
        // it takes: each dropped successor loses every entry from `bb`, the
        // kept one keeps all of them.
        let mut g = random_cfg(&mut Rng(seed));
        let len = 2 + rng.below(5);
        let targets = repeating_targets(&mut rng, n, len);
        let cases: Vec<(i64, BlockId)> =
            targets[1..].iter().enumerate().map(|(k, &t)| (k as i64, t)).collect();
        let k = rng.below(cases.len() + 1) as i64;
        let taken = cases.iter().find(|(c, _)| *c == k).map_or(targets[0], |&(_, t)| t);
        let term = g.terminator(bb).expect("every block ends in a terminator");
        g.inst_mut(term).op = Opcode::Switch {
            value: Value::const_int(Type::I32, k),
            default: targets[0],
            cases,
        };
        let g = add_phis(g, &mut rng);
        let before = shape(&g);
        let mut got = g.clone();
        got.set_branch(bb, Opcode::Br { target: taken });
        let mut want = before.clone();
        set_succs(&mut want, bb, vec![taken]);
        prop_assert_eq!(shape(&got), want.clone(), "constant switch fold");
        prop_assert_eq!(entries_from(&want, taken, bb), entries_from(&before, taken, bb));
        for &t in targets.iter().filter(|&&t| t != taken) {
            prop_assert_eq!(entries_from(&want, t, bb), 0);
        }

        // merge_block: `a` ends in `br b`, `b` holds no φ; `b`'s
        // instructions move to `a`, its successors' φs name `a`, and `b`
        // goes.
        let a = BlockId::from_index(rng.below(n));
        let b = BlockId::from_index(1 + rng.below(n - 1));
        prop_assume!(a != b);
        let mut g = f.clone();
        let term = g.terminator(a).expect("every block ends in a terminator");
        g.inst_mut(term).op = Opcode::Br { target: b };
        g.block_mut(b).insts.retain(|&i| !f.inst(i).is_phi());
        let before = shape(&g);
        let a_insts = g.block(a).insts.len();
        let b_insts = g.block(b).insts.clone();
        let mut got = g.clone();
        got.merge_block(a, b);
        prop_assert!(!got.block_exists(b));
        prop_assert_eq!(&got.block(a).insts[a_insts - 1..], b_insts.as_slice());
        let mut want = before.clone();
        let b_succs = before[&b].0.clone();
        *succs(&mut want, a) = b_succs.clone();
        for s in b_succs {
            retarget(&mut want, s, b, a, |v| v);
        }
        want.remove(&b);
        prop_assert_eq!(shape(&got), want, "merge_block");
    }
}
