//! The loop-shape statement of `autophase_ir::loops`: induction
//! variables, exit tests, the counted exit of a single-block loop and its
//! trip simulation (checked against the interpreter on every predicate,
//! at two widths, with rising and falling steps), and dedicated exits.

use autophase_ir::builder::FunctionBuilder;
use autophase_ir::cfg::Cfg;
use autophase_ir::interp::run_main;
use autophase_ir::loops::{analyze_loops, Loop, Trip};
use autophase_ir::parser::parse_module;
use autophase_ir::{CmpPred, Function, Module, Type, Value};

/// `b1: i = φ(init, i + step); condbr (icmp pred (i + step), bound)`,
/// going round on `true` if `true_stays`; returns `i` from the exit.
fn counted(ty: &str, init: i64, step: i64, pred: CmpPred, bound: i64, true_stays: bool) -> Module {
    let (then_bb, else_bb) = if true_stays {
        ("b1", "b2")
    } else {
        ("b2", "b1")
    };
    let pred = format!("{pred:?}").to_lowercase();
    let text = format!(
        "; module t
define {ty} @main() {{
b0:
  br b1
b1:
  %1 = {ty} phi [{ty} {init}, b0], [%2, b1]
  %2 = {ty} add %1, {ty} {step}
  %3 = i1 icmp {pred} %2, {ty} {bound}
  br %3, {then_bb}, {else_bb}
b2:
  %4 = {ty} phi [%1, b1]
  ret %4
}}"
    );
    parse_module(&text).unwrap()
}

fn only_loop(m: &Module) -> (&Function, Cfg, Loop) {
    let f = m.func(m.main().unwrap());
    let (cfg, _, mut loops) = analyze_loops(f);
    assert_eq!(loops.len(), 1);
    (f, cfg, loops.remove(0))
}

const PREDS: [CmpPred; 10] = [
    CmpPred::Eq,
    CmpPred::Ne,
    CmpPred::Slt,
    CmpPred::Sle,
    CmpPred::Sgt,
    CmpPred::Sge,
    CmpPred::Ult,
    CmpPred::Ule,
    CmpPred::Ugt,
    CmpPred::Uge,
];

/// The simulation agrees with the interpreter on every predicate, both
/// branch polarities, rising and falling steps and both widths: the
/// same trip count and last value, or more than `cap` trips where the
/// interpreter runs out of fuel or past the cap.
#[test]
fn trip_matches_the_interpreter() {
    let cap = 1000;
    let mut counted_some = 0;
    for ty in ["i8", "i32"] {
        for pred in PREDS {
            for step in [1, 3, -1, -3] {
                for bound in [10, -10] {
                    for true_stays in [true, false] {
                        let m = counted(ty, 0, step, pred, bound, true_stays);
                        let (f, cfg, l) = only_loop(&m);
                        let cl = l.counted_exit(f, &cfg).expect("a counted exit");
                        assert_eq!((cl.step, cl.test.bound, cl.test.pred), (step, bound, pred));
                        let run = run_main(&m, 100_000);
                        let runs = run.as_ref().map(|t| t.count(m.main().unwrap(), l.header));
                        match cl.trip(cap) {
                            Some(trip) => {
                                counted_some += 1;
                                let t = run.unwrap();
                                assert_eq!(t.count(m.main().unwrap(), l.header) as i64, trip.count);
                                assert_eq!(t.return_value, Some(trip.last));
                                assert_eq!(trip.last_next, cl.test.iv.ty.wrap(trip.last + step));
                            }
                            None => assert!(runs.map_or(true, |n| n as i64 > cap)),
                        }
                    }
                }
            }
        }
    }
    assert!(counted_some > 40, "{counted_some}");
}

/// An ordered test reaches its exit side before the compared value wraps
/// exactly when walking the values at i8, without wrapping, meets the exit
/// side; and a loop that does so returns.
#[test]
fn exits_before_wrap_matches_a_walk_that_never_wraps() {
    let mut leaves = 0;
    for pred in &PREDS[2..] {
        let pred = *pred;
        let unsigned = matches!(
            pred,
            CmpPred::Ult | CmpPred::Ule | CmpPred::Ugt | CmpPred::Uge
        );
        let order = |v: i64| {
            if unsigned {
                v as u8 as i64
            } else {
                v as i8 as i64
            }
        };
        for init in [0, 100, -100, 127] {
            for step in [1, 2, 3, 127, -1, -2, -128] {
                for bound in [-128, -10, 0, 10, 126, 127] {
                    for true_stays in [true, false] {
                        let m = counted("i8", init, step, pred, bound, true_stays);
                        let (f, cfg, l) = only_loop(&m);
                        let cl = l.counted_exit(f, &cfg).expect("a counted exit");
                        let mut v = order(init + step);
                        let walked = loop {
                            if order(v) != v {
                                break false;
                            }
                            let holds = match pred {
                                CmpPred::Slt | CmpPred::Ult => v < order(bound),
                                CmpPred::Sle | CmpPred::Ule => v <= order(bound),
                                CmpPred::Sgt | CmpPred::Ugt => v > order(bound),
                                _ => v >= order(bound),
                            };
                            if holds != true_stays {
                                break true;
                            }
                            v += step;
                        };
                        let got = cl.test.exits_before_wrap(init, step);
                        assert_eq!(got, walked, "{pred:?} {init} {step} {bound} {true_stays}");
                        if got {
                            leaves += 1;
                            assert!(run_main(&m, 100_000).is_ok());
                        }
                    }
                }
            }
        }
    }
    assert!(leaves > 100, "{leaves}");
}

#[test]
fn trip_wraps_at_the_iv_width() {
    // i8: 100 -> 120 -> -116 (140 wraps), so `sgt 0` fails after two trips.
    let m = counted("i8", 100, 20, CmpPred::Sgt, 0, true);
    let (f, cfg, l) = only_loop(&m);
    let trip = l.counted_exit(f, &cfg).unwrap().trip(10).unwrap();
    assert_eq!(
        trip,
        Trip {
            count: 2,
            last: 120,
            last_next: -116
        }
    );
    // i32: the same two trips past i32::MAX.
    let m = counted("i32", i32::MAX as i64 - 7, 5, CmpPred::Sgt, 0, true);
    let (f, cfg, l) = only_loop(&m);
    let trip = l.counted_exit(f, &cfg).unwrap().trip(10).unwrap();
    assert_eq!((trip.count, trip.last_next), (2, i32::MIN as i64 + 2));
    // `ne` with an odd step reaches every i8 value: 3k = 10 (mod 256).
    let m = counted("i8", 0, 3, CmpPred::Ne, 10, true);
    let (f, cfg, l) = only_loop(&m);
    assert_eq!(
        l.counted_exit(f, &cfg).unwrap().trip(1000).unwrap().count,
        174
    );
}

#[test]
fn trip_past_the_cap_is_none() {
    let m = counted("i32", 0, 1, CmpPred::Slt, 1000, true);
    let (f, cfg, l) = only_loop(&m);
    let cl = l.counted_exit(f, &cfg).unwrap();
    assert_eq!(cl.trip(999), None);
    assert_eq!(cl.trip(1000).unwrap().count, 1000);
}

#[test]
fn top_tested_loop_has_no_counted_exit() {
    let mut b = FunctionBuilder::new("main", vec![], Type::I32);
    b.counted_loop(Value::i32(8), |_, _| {});
    b.ret(Some(Value::i32(0)));
    let mut m = Module::new("t");
    m.add_function(b.finish());
    let (f, cfg, l) = only_loop(&m);
    assert!(l.counted_exit(f, &cfg).is_none());
    // Its header test reads the φ itself: an exit test, offset 0.
    let [t] = &l.exit_tests(f, &cfg)[..] else {
        panic!("one exit test")
    };
    assert_eq!(
        (t.pred, t.bound, t.offset, t.true_stays),
        (CmpPred::Slt, 8, 0, true)
    );
    assert_eq!(t.compared, t.iv.phi);
    assert_eq!(t.iv.init, Value::i32(0));
    assert_eq!(t.iv.steps.len(), 1);
    assert_eq!(t.iv.steps[0].by, 1);
}

#[test]
fn compare_on_the_phi_has_no_counted_exit() {
    let text = "; module t
define i32 @main() {
b0:
  br b1
b1:
  %1 = i32 phi [i32 0, b0], [%2, b1]
  %2 = i32 add %1, i32 1
  %3 = i1 icmp slt %1, i32 10
  br %3, b1, b2
b2:
  ret i32 0
}";
    let m = parse_module(text).unwrap();
    let (f, cfg, l) = only_loop(&m);
    assert_eq!(l.exit_tests(f, &cfg).len(), 1);
    assert!(l.counted_exit(f, &cfg).is_none());
}

#[test]
fn shared_exit_is_not_dedicated() {
    // b0 branches to the loop's exit b2 as well as to the loop.
    let text = "; module t
define i32 @main(i32 %arg0) {
b0:
  %0 = i1 icmp eq %arg0, i32 0
  br %0, b2, b1
b1:
  %1 = i32 phi [i32 0, b0], [%2, b1]
  %2 = i32 add %1, i32 1
  %3 = i1 icmp slt %2, i32 10
  br %3, b1, b2
b2:
  ret i32 0
}";
    let m = parse_module(text).unwrap();
    let (f, cfg, l) = only_loop(&m);
    assert_eq!(l.exits.len(), 1);
    assert!(!l.is_dedicated_exit(&cfg, l.exits[0]));
    // The counted exit does not ask.
    assert!(l.counted_exit(f, &cfg).is_some());
    let m = counted("i32", 0, 1, CmpPred::Slt, 10, true);
    let (_, cfg, l) = only_loop(&m);
    assert!(l.is_dedicated_exit(&cfg, l.exits[0]));
}
