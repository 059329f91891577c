//! Steady-state allocation check for the scratch-buffer APIs.
//!
//! A counting global allocator wraps `System`; after one warm-up round,
//! `forward_one` and a whole minibatch round trip on two
//! networks (the policy and value pair an update trains) —
//! `forward_batch`, `backward_batch`, `step` — must not touch the heap
//! at all, at every kernel width (`V8`'s hand-off stages through the
//! `GradScratch`). This file holds exactly one `#[test]` so no sibling
//! test thread can allocate inside the measurement window.

use autophase_nn::{BatchWorkspace, GradScratch, KernelWidth, Mlp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_inference_and_training_do_not_allocate() {
    // `backward_batch` swaps its two delta buffers at every hand-off
    // between layers, so an odd and an even number of hand-offs leave the
    // wide buffer on different sides: both must be steady after one call.
    // The 256×256 pair is the serving policy's hidden shape.
    let cases = KernelWidth::all()
        .into_iter()
        .flat_map(|width| [&[64usize][..], &[64, 64], &[256, 256]].map(|hidden| (width, hidden)));
    for (width, hidden) in cases {
        let shape = |out: usize| [&[56][..], hidden, &[out]].concat();
        let mut nets = [Mlp::new(&shape(46), 5), Mlp::new(&shape(1), 6)];
        let inputs: Vec<Vec<f64>> = (0..8)
            .map(|b| {
                (0..56)
                    .map(|i| ((b * 56 + i) as f64 * 0.05).sin())
                    .collect()
            })
            .collect();
        let grads = [vec![0.25f64; 8 * 46], vec![-0.5f64; 8]];

        let mut one = BatchWorkspace::with_width(width);
        let mut bws = [
            BatchWorkspace::with_width(width),
            BatchWorkspace::with_width(width),
        ];
        let mut scratch = [
            GradScratch::with_width(width),
            GradScratch::with_width(width),
        ];

        let mut run = |backward_calls: usize| {
            let mut sum = 0.0;
            for x in &inputs {
                sum += nets[0].forward_one(x, &mut one)[0];
            }
            for (((net, bws), scratch), grads) in
                nets.iter_mut().zip(&mut bws).zip(&mut scratch).zip(&grads)
            {
                bws.begin(net);
                for x in &inputs {
                    bws.push_input(x);
                }
                net.forward_batch(bws);
                sum += bws.logits(7)[0];
                for _ in 0..backward_calls {
                    net.backward_batch(bws, grads, scratch);
                }
                net.step(1e-3);
            }
            sum
        };

        // Warm-up grows every scratch buffer to its steady-state capacity:
        // one `backward_batch` must be enough. The measured run makes two
        // per step, as A2C's chunking does.
        let warm = run(1);

        let before = ALLOCS.load(Ordering::SeqCst);
        let steady = run(2);
        let after = ALLOCS.load(Ordering::SeqCst);

        assert_ne!(warm, steady, "the step must have moved the weights");
        assert_eq!(
            after - before,
            0,
            "a steady-state minibatch round trip must not allocate ({width:?}, {hidden:?})"
        );
    }
}
