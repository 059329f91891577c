# Local CI gate. Run `make ci` before pushing; it is exactly what the
# repository expects to stay green.

CARGO ?= cargo

.PHONY: ci build test clippy doc fmt fmt-fix bench bench-smoke loc dead-pub telemetry chaos semcheck pass-golden perf-smoke serve-smoke trace-smoke durability-smoke online-smoke

ci: build test telemetry chaos semcheck pass-golden perf-smoke serve-smoke trace-smoke durability-smoke online-smoke bench-smoke clippy doc dead-pub fmt

build:
	$(CARGO) build --release

# Tier 1: every crate's unit, integration and doc tests plus the
# facade's, in debug (the workspace's `default-members`).
test:
	$(CARGO) test -q

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Rustdoc is part of the surface: a link to a deleted or private name
# fails here.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps --offline

fmt:
	$(CARGO) fmt --check

fmt-fix:
	$(CARGO) fmt

# The telemetry layer's own gates: instrument property/concurrency
# tests and the bounded memo map's suite (the crate is the map's home),
# the observational-only determinism suite (which also checks what the
# rollout engine records), and the release-mode overhead guard (enabled
# apply_sequence must stay within a generous bound of disabled).
telemetry:
	$(CARGO) test -q -p autophase-telemetry
	$(CARGO) test -q --test telemetry_determinism
	$(CARGO) test -q --release -p autophase-passes --test telemetry_overhead

# Chaos suite (DESIGN.md §4e): full PPO runs driven through seeded
# fault-injection plans — rollback, survival, episode containment, and
# quarantine — then the rollout pool's own panic tests (an episode that
# panics in its reset or mid-episode is retried in place, one that
# always panics is skipped). Release mode: the suite trains real agents
# (tier 1 runs it too, in debug).
chaos:
	$(CARGO) test -q --release --test chaos
	$(CARGO) test -q --release -p autophase-rl --lib rollout::

# The semantic-check sweep (DESIGN.md §4c): CHStone plus 2 000 generated
# programs compiled under one, two and four rounds of -O3. No finite score
# may come from a module whose result differs from its input's, and no
# result may differ: the mismatch counts per round count are printed and
# must read 0 / 0 / 0. Release, under a minute.
semcheck:
	$(CARGO) test -q --release -p autophase-core --test semcheck_sweep -- --nocapture

# The one benchmark (BENCHMARK.json, benchmark/README.md): two
# interleaved sets of runs per workload, medians and spreads against the
# bounds. Tens of minutes; writes only under target/benchmark.
bench:
	benchmark/repeat.sh

# Keep the frozen benchmark package building against the crates' public
# API and its outputs reproducible: its own tests, then the determinism
# check at smoke size. Writes only under benchmark/target.
bench-smoke:
	$(CARGO) test -q --release --offline --manifest-path benchmark/Cargo.toml
	$(CARGO) run -q --release --offline --manifest-path benchmark/Cargo.toml -- check-determinism --smoke

# The yardstick for ROADMAP item 3 ("line count drops"): non-blank,
# non-comment lines of Rust under the crates' and the facade's `src`
# (in-`src` unit tests included; integration tests, benches and
# `benchmark/` are not).
loc:
	@find crates/*/src src -name '*.rs' | xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l

# Public surface = what something calls: print every `pub fn` under the
# crates' and the facade's `src` whose name appears in no other `.rs`
# file of the workspace, its tests and examples, or the frozen benchmark
# package, and fail if there is one. A name match, not a resolver — it
# can miss a dead function that shares its name, never flag a live one.
# Make the function private (clippy's dead_code then says whether it
# goes) or delete it.
dead-pub:
	@mkdir -p target
	@grep -rHoE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' crates src tests examples benchmark/src benchmark/tests \
		| sort -u | cut -d: -f2 | sort | uniq -u > target/dead-pub.once
	@grep -rHoE --include='*.rs' '^\s*pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src src \
		| sed -E 's/:\s*pub fn /:/' | sort -u \
		| awk -F: 'NR==FNR { once[$$1]; next } $$2 in once { print; dead = 1 } END { exit dead }' target/dead-pub.once -

# Compile-service smoke (DESIGN.md §4g): a real daemon on a real socket
# under mixed warm/cold load — zero failed requests, store hits
# observed, chaos-injected policy faults degraded to baseline, clean
# shutdown, and the persistent store surviving a restart. Then the wire
# fuzz: arbitrary bytes, hostile headers and every cut of every request
# end in a request, EOF or a typed error, never past MAX_IR_LEN — in
# memory, then on a live daemon's connections, which must each end in
# well-formed replies and a close within a read timeout while the
# daemon keeps answering PING and COMPILE, and on one connection that
# interleaves store hits with refused frames, whose replies must each be
# the one its request earns alone. Then the IR sidecar: on
# CHStone + 200 corpus programs every IR hit is served from it, byte for
# byte a replay of its passes; a restarted daemon answers a recorded
# text's first request from its front memo, unparsed, seeded from the
# sidecar's request texts; and a lost or first-layout sidecar and a
# superseded entry each cost one memo miss or one replay that rebuilds
# the record. Then
# the wire golden (every message's bytes and every refusal's text) and
# the allocation gate: after warm-up, a numbers-only store hit allocates
# nothing anywhere in the process.
serve-smoke:
	$(CARGO) test -q --release -p autophase-serve --test smoke
	$(CARGO) test -q --release -p autophase-serve --test wire_fuzz
	$(CARGO) test -q --release -p autophase-serve --test ir_artifacts
	$(CARGO) test -q --release -p autophase-serve --test wire_golden
	$(CARGO) test -q --release -p autophase-serve --test hit_no_alloc

# Live-introspection smoke (DESIGN.md §4i): a chaos-armed daemon under
# mixed traffic, then STATS parsed over the wire (per-stage p50/p95/p99
# present and summing to end-to-end latency), TRACE returning
# well-formed trace JSONL, and the injected fault leaving a flight-dump
# artifact that names the faulting stage.
trace-smoke:
	$(CARGO) test -q --release -p autophase-serve --test trace_smoke

# Durability smoke (DESIGN.md §4j): the APSTORE2 crash-recovery
# property matrix plus live-daemon self-healing tests (a forward panic
# degrading one request, checkpoint armor, client retry), the disk-fault
# chaos suite (store, its IR sidecar's appends and a compaction rewrite
# that fails or tears, then a failed checkpoint save), the kill -9 drill
# (12 real SIGKILLs of a writer process, no acked record lost), and the
# reopen/compaction size pins at 10k entries: the store's, and its
# sidecar's after every entry was superseded once. Under a minute.
durability-smoke:
	$(CARGO) test -q --release -p autophase-serve --test durability
	$(CARGO) test -q --release -p autophase-serve --test faultfs_chaos
	$(CARGO) test -q --release -p autophase-rl --test checkpoint_faults
	$(CARGO) test -q --release -p autophase-serve --test kill_drill
	$(CARGO) test -q --release -p autophase-serve --test store_scale

# Online-learning smoke (DESIGN.md §4l): the end-to-end learner loop on
# a live daemon (train -> publish -> replay gate -> auto-promote), a
# live daemon whose replay gate refuses the learner's worse versions,
# admin-gated PROMOTE, the registry's manifest property tests, the
# corrupt/NaN candidate armor, the swap drill (20 promotions under
# four cold-compiling clients, no request dropped), and the promotion
# gate's unit tests: a NaN weight refused at boot, at swap and at
# auto-promotion (quarantined), and the replay gate over CHStone (a
# worse or equal candidate refused and left listed, a better one
# promoted). Seconds end to end.
online-smoke:
	$(CARGO) test -q --release -p autophase-rl --test registry_props
	$(CARGO) test -q --release -p autophase-serve --test online
	$(CARGO) test -q --release -p autophase-serve --lib non_finite
	$(CARGO) test -q --release -p autophase-serve --lib replay

# Pass-kernel output gate (DESIGN.md §4m): the printed IR of every pass,
# of -O3 and of 32 seeded orderings on CHStone + 64 corpus programs must
# hash to the committed golden file (generated before the kernels were
# rewritten); the pass matrix holds every pass safe on every benchmark
# and writing only the functions it changes (a write of an unchanged
# function costs a deep copy and that version's facts); and the batched
# rewrite primitive and the dense
# CFG/dominator/loop analyses must agree with their straightforward
# references on random inputs. The front-end golden (DESIGN.md §4o) holds
# the printer, parser, fingerprint and profiler to the file the
# string-building printer and line-split parser wrote, accepted and
# refused texts alike. Last, no pass edits a CFG edge, a terminator or a
# φ entry by hand: a branch target rewritten without its φ entries (or
# the reverse) was the bug behind three miscompiles, one of them in a
# whole-terminator rewrite, so those edits live only in
# `autophase_ir::edges`, whose helpers `kernels` checks, and the grep
# fails on any hand-written copy under crates/passes/src: an edge or φ
# list edited in place, a terminator popped off its block, or a branch
# written over an instruction's opcode. Nor does a pass restate a loop's
# shape: five private copies of what an induction variable is, when a
# loop exits and how often it runs had drifted apart (first versus last
# step, two simulation caps, a `ne` exit whose bound was never read), so
# `autophase_ir::loops` states them once, and the second grep fails on a
# hand-written trip simulation (`eval_icmp(pred`) or dedicated-exit test
# (`unique_preds(exit).iter().any(|p| !l.contains`) under crates/passes/src;
# `loop_shape` checks the trip simulation against the interpreter.
pass-golden:
	$(CARGO) test -q --release -p autophase-passes --test golden_outputs
	$(CARGO) test -q --release -p autophase-passes --test pass_matrix
	$(CARGO) test -q --release -p autophase-passes --test front_end_golden
	$(CARGO) test -q --release -p autophase-ir --test kernels
	$(CARGO) test -q --release -p autophase-ir --test loop_shape
	@! grep -rnE 'for_each_successor_mut|incoming\.(retain|remove)\(|\*incoming =|insts\.pop\(\)|\.op = Opcode::(Br|CondBr|Switch)\b' crates/passes/src
	@! grep -rnE 'eval_icmp\(pred|unique_preds\((exit|e)\)\.iter\(\)\.(any|all)\(\|p\| !?l\.contains' crates/passes/src

# What keeps the fast paths honest (DESIGN.md §4f, §4k, §4m): the
# differential suite proves the per-function caches are bit-invisible
# across every Table-1 pass and holds the fact-backed module fingerprint
# to the from-scratch fold of every function's and global's hash, the
# scaling guards keep the pass kernels,
# the block scheduler and parse + print linear in the size of their
# input, the trajectory golden holds the batched
# training kernels to the weights the per-sample backward and scalar
# Adam produced, private ≡ shared ≡ parallel rollouts keep the env's
# profile memo, shared or not, invisible in optimized code too, the env's
# trajectory golden holds every observation, reward, cycle count and
# sample count to the file the env wrote when it still kept a transition
# memo beside the profile memo, the ordering golden
# holds every checked (program, ordering) compilation, search and
# one-compilation inference to the numbers the unchecked evaluators and
# the env-driven inference printed (DESIGN.md §4e "One compilation"),
# and the three walkers of the one step (SIMD/incremental engine, scalar
# from-scratch reference, the trainer's env) agree at zero tolerance —
# a codegen property, so it is checked where the codegen differs. So do
# the nn kernels against their scalar references (forward, backward
# with its `gemm_rt` hand-off, Adam), in optimized code too, and the
# `tanh` port, its eight-lane body and libm on 10^8 seeded inputs.
# No wall-clock gates beyond the scaling ratios: what the fast paths
# cost is read from the benchmark's layer metrics (`make bench`).
perf-smoke:
	$(CARGO) test -q --release -p autophase-features --test incremental_diff
	$(CARGO) test -q --release -p autophase-passes --test scaling
	$(CARGO) test -q --release -p autophase-hls --test scaling
	$(CARGO) test -q --release -p autophase-ir --test scaling
	$(CARGO) test -q --release --test train_update_golden
	$(CARGO) test -q --release --test parallel_determinism
	$(CARGO) test -q --release -p autophase-core --test env_trajectory_golden
	$(CARGO) test -q --release -p autophase-core --test ordering_golden
	$(CARGO) test -q --release -p autophase-serve --test simd_rollout_diff
	$(CARGO) test -q --release -p autophase-nn --test simd_diff
