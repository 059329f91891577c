//! Loop passes that reason about when a loop leaves: `-indvars` rewrites
//! an `icmp ne` exit to `icmp slt`, and `-loop-deletion` deletes a loop it
//! proves terminates. Each reproducer here was answered wrongly because a
//! pass read one latch's step for the induction variable's, or an ordered
//! exit test's direction without its wrap-around. The interpreter is the
//! oracle.

use autophase_ir::interp::run_main;
use autophase_ir::parser::parse_module;
use autophase_ir::verify::assert_verified;
use autophase_passes::{indvars, loop_deletion};

/// A latch that carries a value past the bound (20, from `b4`) while
/// another steps by one: the loop leaves on `i != 10` only when the step
/// lands on it, which it never does from 20, so it returns 2 from
/// `i == 25`. `slt` would leave at 20 and return 1.
#[test]
fn indvars_keeps_ne_when_a_latch_does_not_step() {
    let text = "; module t
define i32 @main() {
b0:
  br b1
b1:
  %1 = i32 phi [i32 0, b0], [%5, b3], [i32 20, b4]
  %2 = i1 icmp ne %1, i32 10
  br %2, b2, b5
b2:
  %3 = i1 icmp eq %1, i32 25
  br %3, b6, b7
b3:
  %5 = i32 add %1, i32 1
  br b1
b4:
  br b1
b5:
  ret i32 1
b6:
  ret i32 2
b7:
  %4 = i1 icmp eq %1, i32 3
  br %4, b4, b3
}";
    let mut m = parse_module(text).unwrap();
    assert_verified(&m);
    assert_eq!(run_main(&m, 100_000).unwrap().return_value, Some(2));
    indvars::run(&mut m);
    assert_verified(&m);
    assert_eq!(run_main(&m, 100_000).unwrap().return_value, Some(2));
}

/// `i = 0; do i += 2; while (i < 127)` at i8: the even values go
/// 126 → −128 and never reach 127, so the loop never exits. Stopping at
/// 126 does reach the exit side: that loop goes.
#[test]
fn loop_deletion_keeps_an_ordered_loop_that_wraps_before_its_bound() {
    let text = "; module t
define i8 @main() {
b0:
  br b1
b1:
  %1 = i8 phi [i8 0, b0], [%2, b1]
  %2 = i8 add %1, i8 2
  %3 = i1 icmp slt %2, i8 127
  br %3, b1, b2
b2:
  ret i8 7
}";
    let mut m = parse_module(text).unwrap();
    assert!(run_main(&m, 100_000).is_err());
    assert!(!loop_deletion::run(&mut m));
    let mut m = parse_module(&text.replace("i8 127", "i8 126")).unwrap();
    assert!(loop_deletion::run(&mut m));
    assert_verified(&m);
    assert_eq!(run_main(&m, 100_000).unwrap().return_value, Some(7));
}

/// One latch steps `i` by one, the other resets it to 0 whenever `i + 1`
/// is 5, so `i + 1 < 10` never fails.
#[test]
fn loop_deletion_keeps_a_loop_whose_latch_resets_its_induction_variable() {
    let text = "; module t
define i32 @main() {
b0:
  br b1
b1:
  %1 = i32 phi [i32 0, b0], [%2, b2], [i32 0, b3]
  %2 = i32 add %1, i32 1
  %3 = i1 icmp slt %2, i32 10
  br %3, b2, b4
b2:
  %4 = i1 icmp eq %2, i32 5
  br %4, b3, b1
b3:
  br b1
b4:
  ret i32 7
}";
    let m = parse_module(text).unwrap();
    assert_verified(&m);
    assert!(run_main(&m, 100_000).is_err());
    assert!(!loop_deletion::run(&mut m.clone()));
}
