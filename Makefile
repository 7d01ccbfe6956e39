# Tier-1 verification and common chores. `make verify` is the gate a
# change must pass before it lands: release build, the full workspace
# test suite (including the exhaustive fail-point sweep and the
# baseline/leak-check proptests), clippy with warnings denied, the
# documentation gates (rustdoc warnings denied, doctests, doc links), the
# SMP stress, every example run to completion, the byte-identity gate over
# the evaluation and the repo benchmark's smoke pass. What each target
# does is said here, above it; docs/BENCHMARKS.md has the same in prose
# and every other document links there.

CARGO ?= cargo

.PHONY: verify build test clippy doc doctest doclinks leakcheck stress examples results-identity bench-repo-smoke bench-pair mutants loc clean

verify: build test clippy doc doctest doclinks stress examples results-identity bench-repo-smoke

build:
	$(CARGO) build --release

test:
	$(CARGO) test --workspace -q

# Warnings are errors, and since every crate's `pub` means "somebody
# else uses this" (docs/ARCHITECTURE.md, "The exported surface") that
# includes a function nobody calls (`dead_code` can see it) and an export
# nobody documented (`missing_docs` is on in every crate root).
clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Rustdoc must build clean: broken intra-doc links, missing docs on
# crates that deny them, and bad code fences all fail the gate.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps -q

# Runnable documentation examples are tests too.
doctest:
	$(CARGO) test --workspace --doc -q

# Markdown is documentation too: every relative link in README/docs
# must resolve and the README <-> ARCHITECTURE <-> OBSERVABILITY <->
# BENCHMARKS cross-reference web must stay intact.
doclinks:
	$(CARGO) test -q -p forkroad --test doc_links

# The fault-injection acceptance gate on its own: every fail point of
# every creation API and of the swap tier (slot alloc, swap-out,
# swap-in) must produce a clean error — or, for a swap-in I/O failure,
# kill only the faulting process — and leave an intact kernel. Its
# exhaustive sweeps (faultsweep, fork_fail_points) all run through one
# driver, fpr_faults::sweep: count an operation's crossings, then replay
# it on a fresh world once per crossing with that one failed; faultsweep
# pins, per creation path, the sites its counting run crosses, in order,
# and the cycles it charges, as one digest. The
# pressure proptests replay random swap/reclaim schedules under the
# same leak checks, and the SMP sweep (E17) repeats the exercise with
# injections landing concurrently on four real OS threads. Alongside:
# the per-API inheritance table (what each child does and does not
# receive), the vfork-borrower mmap regression, which ends in a leak
# check of its own, and the reference-model proptest: `AddressSpace`
# against a flat page map in every fork mode, THP on and off, pages swapped
# out and back in, a step in four under an injected failure whose refusal
# the flat model judges, ending with every frame and swap slot returned — and,
# under it, the buddy allocator against its `BTreeSet` reference, frame for
# frame (which frame an allocation gets decides every stamp and pfn in
# results/), with a `PhysMemory` arm holding a one-cell machine's
# allocations, pins, populates and batched frees to the same reference,
# however the cell draws its frames from the pool, and a two-cell arm
# holding two cells over one pool to frame conservation and a bound on
# what each holds back. fork_fail_points pins, as one digest per fork mode, what
# `fork_from` charges, counts, traces and — but for an eager fork, which the
# flat model judges — leaves behind at every one of its fail points, so
# that the walk may batch its per-entry work but not move a fail point
# unnoticed — the same again for a THP parent, per mode — and, a digest
# each, the same for fourteen slides of `slide_vma` and for `munmap`,
# `discard` and `mprotect` over ranges that cut a block, cover or straddle
# a node a fork shares and hold swap entries — and, in a digest of its own
# that folds the frame and demand-fill counters too, for `populate` over
# the holes of that space and over a file mapping, so that populate may go
# a node's run at a time but not move a fail point; fork_shape, in
# release, holds a 16 384-page populate within 16 fork(Cow)s of what it
# built and no dearer per page than at 1 024 pages, counts a FrameAlloc
# then a PtNodeAlloc crossing and a frame's charges per page, and holds the
# teardown of a COW child that wrote 256 of 4 096 pages one in 16 within 2x
# of one that wrote them side by side, at the same charge. alloc_census counts what a
# steady-state request of each creation path asks of the host allocator:
# the same on two runs, nothing of a page or more (page-table nodes are
# recycled), a warm-pool checkout within 24 allocations; it runs in
# release, the build whose allocations are the ones that cost. Above
# `AddressSpace`, process_table_reference drives create / exit / kill /
# waitpid scripts through the kernel and a flat process table with the
# PID rule written out, comparing every PID, parent, child list, zombie
# and wait verdict after each step. invariants_reference holds
# `check_invariants` to the per-PTE pass it was first written as, message
# for message, on seeded fork trees, THP, swap entries in shared nodes,
# image-cache pins, zombies and a vfork borrower, clean and with one
# corruption each; invariants_shape, in release, holds the check of a
# 16 384-page parent within 16 fork(Cow)s of it and no dearer per entry
# than at 1 024 pages.
leakcheck:
	$(CARGO) test -q -p fpr-api --test faultsweep
	$(CARGO) test -q -p fpr-api --test inheritance
	$(CARGO) test -q -p fpr-kernel --test proptest_faults
	$(CARGO) test -q -p fpr-kernel --test vfork_borrow
	$(CARGO) test -q -p fpr-kernel --test invariants_reference
	$(CARGO) test --release -q -p fpr-kernel --test invariants_shape
	$(CARGO) test -q -p fpr-mem --test proptest_faults
	$(CARGO) test -q -p fpr-mem --test proptest_reference
	$(CARGO) test -q -p fpr-mem --test buddy_reference
	$(CARGO) test -q -p fpr-mem --test fork_fail_points
	$(CARGO) test --release -q -p fpr-mem --test fork_shape
	$(CARGO) test --release -q -p fpr-api --test alloc_census
	$(CARGO) test -q -p forkroad-core --test process_table_reference
	$(CARGO) test -q -p forkroad-core --test pressure_property
	$(CARGO) test --release -q -p forkroad-core --test smp_faults

# The SMP gate on its own: four real OS threads hammer the shared
# machine with a seeded fork/vfork/spawn/exec storm, then every cell
# must pass check_invariants + leak_check and the shared frame pool
# must conserve; plus the determinism regressions — the single-threaded
# E15 service figure must replay byte-identical to the checked-in
# seed results, and one_cell_smp_is_an_os_boot_world: the single cell
# of a one-cell SMP machine, which parks the frames it frees, must match
# an Os::boot world PID for PID, cycle for cycle and in its baseline. smp_faults adds E17: the same storm under concurrent
# fault injection (all contained, no acquisition refused by the lock order) and a
# mid-storm cell fail-stop that must recover to a clean N-1 quiesce.
# vlock_contention holds the tally E16 reads to what real threads saw:
# eight threads take one VLock with virtual work inside, and the lock's
# stats() must equal the acquisitions across which a thread's clock
# jumped and the sum of those jumps. Release mode: the storms are the
# slow part.
stress:
	$(CARGO) test --release -q -p forkroad-core --test smp_stress
	$(CARGO) test --release -q -p forkroad-core --test smp_faults
	$(CARGO) test --release -q -p fpr-trace --test vlock_contention

# `cargo test` compiles examples/ but runs none of them. They are the only
# code that reaches the simulator through the `forkroad::` facade alone
# (so a missing re-export shows here and nowhere else), and zygote_server
# serves its burst through the same workload kit as E15: each must run to
# completion and exit 0.
EXAMPLES := $(basename $(notdir $(wildcard examples/*.rs)))

examples:
	@for e in $(EXAMPLES); do \
		$(CARGO) run --release -q --example $$e > /dev/null || { echo "example $$e failed"; exit 1; }; \
	done

# The repo benchmark (BENCHMARK.json) is a package of its own with path
# dependencies on crates/*: no workspace build or test compiles it, so a
# signature change under it would go unnoticed until the driver ran it.
# Its unit tests and a --smoke pass over all four workloads (output
# checks on) keep it building and serving. Both run --locked: a workspace
# change that would rewrite the tracked benchmark/Cargo.lock (a crate or
# a dependency added or removed) fails here instead of dirtying the file.
bench-repo-smoke:
	$(CARGO) test --offline --locked --manifest-path benchmark/Cargo.toml
	$(CARGO) run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- run --smoke

# The evaluation, mechanically: `run_all` runs every row of the catalogue
# (crates/bench/src/lib.rs, one run each), asserts each row's hard
# guarantees (zero OOM kills with shrinkers, the E11 ordering, THP's
# >=100x page-table term, ...) and regenerates every figure, table and
# trace into results/ and every BENCH_*.json snapshot at the repo root,
# reading each file back. The deterministic ones must come out
# byte-for-byte as committed — a cycle, a verdict string, a span or a
# sweep that moved without its file being regenerated in the same change
# fails here. So does a file it writes that was never committed: `git
# diff` cannot see an untracked file, so the gate also lists the untracked
# files under results/ and the untracked BENCH_*.json and fails on any.
# HOST_SCHEDULED names the outputs left out of both checks, in
# both directories, here and nowhere else: the two tables and two
# snapshots carrying host-scheduling counts (lock contention, ops after
# a cell failure) and the two fpr-native host-kernel timings. Every run
# rewrites them. FORKROAD_RESULTS=<dir> redirects all output for ad-hoc
# runs.
HOST_SCHEDULED := tab_smp_contention tab_cell_failure fig_cow_native fig1_native BENCH_smp BENCH_faults_smp

results-identity:
	$(CARGO) run --release -q -p fpr-bench --bin run_all
	git diff --exit-code -- results/ 'BENCH_*.json' $(HOST_SCHEDULED:%=':!*%.json')
	@untracked=$$(git ls-files --others -- results/ 'BENCH_*.json' $(HOST_SCHEDULED:%=':!*%.json')); \
	[ -z "$$untracked" ] || { echo "written but never committed:"; echo "$$untracked"; exit 1; }

# A perf change's before/after in one command (docs/BENCHMARKS.md):
#   make bench-pair BASE=<rev> [W="<workload> ..."] [PAIRS=3] [SEED=1]
# unpacks BASE's tree under target/bench-pair/base (a `git archive`, so
# there is no worktree to prune afterwards), builds its benchmark/ and this
# tree's, then for each workload of W — all four unless told otherwise: the
# rule a perf change is judged by is "no workload worse" — runs the
# untraced workload on both sides PAIRS times, pair i on seed SEED + i - 1,
# alternating which side goes first, and prints `compare` for each pair. A
# claim is confirmed on seeds the change was not tuned on: develop on the
# default seeds, confirm with another SEED. Fails if any
# pair of any workload reads `worse`; a *claimed* gain still needs the ten
# pairs of benchmark/README.md. After a workload's pairs, three
# `--trace 1 --seconds 8` runs a side on seed SEED, alternating, and each
# per-layer metric's median a side with the ratio of the two — one traced
# run can read 1.7x off on a noisy box —, which is where the PR notes'
# per-layer table comes from. That half is informational and fails
# nothing. Last, a
# summary a workload, read back from the pairs' reports — the numbers a perf
# claim quotes: for each host-timed end-to-end metric (setup_s,
# host_req_per_s, host_peak_rss_mib) each side's median with its quartiles,
# the pairs the change was better in, by the metric's own direction, and the
# ratio of the medians; then one line saying whether every virt_* metric and
# ok_ops_ratio came out equal on each seed, or on which they did not.
BASE ?= HEAD
W ?= svc_mix fork_big spawn_small cow_touch
PAIRS ?= 3
SEED ?= 1
PAIR_DIR := target/bench-pair
PAIR_BIN := benchmark/target/release/forkroad-benchmark
# Reads `parent change` per line, one line a pair, for metric `m`, better
# `higher` or `lower`; prints its summary line. Quartiles interpolate
# between the sorted runs.
PAIR_SUMMARY := function sorted(a, s,   i, j, t) { for (i = 1; i <= NR; i++) s[i] = a[i]; \
	for (i = 2; i <= NR; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t } } \
	function q(s, p,   h, i) { h = (NR - 1) * p; i = int(h); return i + 1 < NR ? s[i + 1] + (h - i) * (s[i + 2] - s[i + 1]) : s[NR] } \
	{ b[NR] = $$1; c[NR] = $$2; wins += better == "higher" ? $$2 > $$1 : $$2 < $$1 } \
	END { sorted(b, sb); sorted(c, sc); \
	printf "== %s, %s, median [quartiles] of %d pairs: parent %.6g [%.6g-%.6g], change %.6g [%.6g-%.6g]; change %s in %d of %d; medians %.3fx\n", \
	w, m, NR, q(sb, 0.5), q(sb, 0.25), q(sb, 0.75), q(sc, 0.5), q(sc, 0.25), q(sc, 0.75), better, wins, NR, q(sc, 0.5) / q(sb, 0.5) }
PAIR_EQUAL := virt_cycles_p50 virt_cycles_p99 virt_capacity_req_per_s virt_sojourn_p99_cycles ok_ops_ratio

bench-pair:
	rm -rf $(PAIR_DIR) && mkdir -p $(PAIR_DIR)/base
	git archive $(BASE) | tar -x -C $(PAIR_DIR)/base
	$(CARGO) build --release --offline --quiet --manifest-path $(PAIR_DIR)/base/benchmark/Cargo.toml
	$(CARGO) build --release --offline --quiet --manifest-path benchmark/Cargo.toml
	@worse=""; traced="--seed $(SEED) --trace 1 --seconds 8"; \
	side() { $$1/$(PAIR_BIN) run --workload $$3 $$5 --out $(PAIR_DIR)/$$2-$$3-$$4.json > /dev/null 2>&1; }; \
	val() { awk -v m="\"$$4\": [{]" '$$0 ~ m { getline; sub(/.*: */, ""); sub(/,.*/, ""); print; exit }' $(PAIR_DIR)/$$1-$$2-$$3.json; }; \
	for w in $(W); do for i in $$(seq 1 $(PAIRS)); do \
		plain="--seed $$((i + $(SEED) - 1)) --trace 0"; \
		if [ $$((i % 2)) -eq 1 ]; then side $(PAIR_DIR)/base base $$w $$i "$$plain" && side . change $$w $$i "$$plain"; \
		else side . change $$w $$i "$$plain" && side $(PAIR_DIR)/base base $$w $$i "$$plain"; fi \
			|| { echo "$$w pair $$i: a run failed; run it by hand to see why"; exit 1; }; \
		echo "== $$w, pair $$i of $(PAIRS), seed $$((i + $(SEED) - 1)): $(BASE) (parent) against the working tree (change)"; \
		$(PAIR_BIN) compare $(PAIR_DIR)/base-$$w-$$i.json $(PAIR_DIR)/change-$$w-$$i.json || worse="$$worse $$w"; \
	done; \
		for k in 1 2 3; do \
			if [ $$((k % 2)) -eq 1 ]; then side $(PAIR_DIR)/base base $$w traced$$k "$$traced" && side . change $$w traced$$k "$$traced"; \
			else side . change $$w traced$$k "$$traced" && side $(PAIR_DIR)/base base $$w traced$$k "$$traced"; fi \
				|| { echo "$$w: a traced run failed; run it by hand to see why"; exit 1; }; \
		done; \
		echo "== $$w, per layer (informational): median of three runs a side with $$traced"; \
		for k in 1 2 3; do for s in base change; do \
			awk -v s=$$s '/"per_layer": [{]/ { on = 1; next } /"detail":/ { on = 0 } \
				on && /": [{]/ { n = $$1; gsub(/[":]/, "", n) } on && /"value":/ { v = $$2; sub(/,$$/, "", v); print s, n, v }' \
				$(PAIR_DIR)/$$s-$$w-traced$$k.json; \
		done; done | awk '{ k = $$1 SUBSEP $$2; n[k]++; t[k] += $$3; names[$$2]; \
				if (n[k] == 1 || $$3 < lo[k]) lo[k] = $$3; if (n[k] == 1 || $$3 > hi[k]) hi[k] = $$3 } \
			END { for (m in names) { b = "base" SUBSEP m; c = "change" SUBSEP m; \
				pb = t[b] - lo[b] - hi[b]; pc = t[c] - lo[c] - hi[c]; \
				printf "%-40s parent %-12.6g change %-12.6g %s\n", m, pb, pc, pb != 0 ? sprintf("%.3fx", pc / pb) : "-" } }' | sort; \
		for m in setup_s:lower host_req_per_s:higher host_peak_rss_mib:lower; do \
			for i in $$(seq 1 $(PAIRS)); do echo "$$(val base $$w $$i $${m%:*}) $$(val change $$w $$i $${m%:*})"; done \
				| awk -v w=$$w -v m=$${m%:*} -v better=$${m#*:} '$(PAIR_SUMMARY)'; \
		done; \
		moved=""; for i in $$(seq 1 $(PAIRS)); do for m in $(PAIR_EQUAL); do \
			[ "$$(val base $$w $$i $$m)" = "$$(val change $$w $$i $$m)" ] || moved="$$moved seed $$((i + $(SEED) - 1)) $$m;"; \
		done; done; \
		echo "== $$w, virt_* and ok_ops_ratio, parent against change on each seed: $${moved:-equal on all $(PAIRS), seeds $(SEED) on}"; \
	done; \
	[ -z "$$worse" ] || { echo "worse on:$$worse"; exit 1; }

# Checked-in mutants: each mutants/NN-name.patch is a bug a test was once
# shown to catch, kept so that the suite goes on catching it. Its header
# says what it breaks and where it came from, and each `# kill:` line is
# a command that must fail with the patch applied. The target unpacks HEAD
# once under target/mutants/tree (a `git archive`, as bench-pair does) and
# builds it into one shared CARGO_TARGET_DIR; every kill command must pass
# there first. Then, for each patch, it restores the files the previous
# one touched, applies the patch — one that no longer applies fails the
# target, so a change that moves mutated code restates the mutant in the
# same change —, requires the tests of the packages its kill commands name
# (`-p <pkg>`, which every kill command gives) to compile, and requires
# every kill command to fail. Not part of `verify`: it rebuilds those
# packages' tests once a mutant.
MUTANT_DIR := target/mutants

mutants:
	rm -rf $(MUTANT_DIR)/tree && mkdir -p $(MUTANT_DIR)/tree
	git archive HEAD | tar -xm -C $(MUTANT_DIR)/tree
	@export CARGO_TARGET_DIR=$(CURDIR)/$(MUTANT_DIR)/target; tree=$(MUTANT_DIR)/tree; \
	kills=$(MUTANT_DIR)/kills; sed -n 's/^# kill: //p' mutants/*.patch | sort -u > $$kills; \
	while read -r cmd; do \
		(cd $$tree && $$cmd) > /dev/null 2>&1 || { echo "fails without a mutant: $$cmd"; exit 1; }; \
	done < $$kills; \
	survived=""; touched=""; \
	for m in mutants/*.patch; do \
		[ -z "$$touched" ] || git archive HEAD $$touched | tar -xm -C $$tree; \
		touched=$$(git apply --numstat $$m | cut -f3); \
		git apply --directory=$$tree $$m || { echo "$$m no longer applies: restate it"; exit 1; }; \
		sed -n 's/^# kill: //p' $$m > $$kills; \
		! grep -v -- ' -p ' $$kills || { echo "$$m: a kill command names no package"; exit 1; }; \
		pkgs=$$(grep -o -- '-p [^ ]*' $$kills | sort -u); \
		(cd $$tree && $(CARGO) test -q $$pkgs --no-run) > /dev/null 2>&1 || { echo "$$m does not compile"; exit 1; }; \
		while read -r cmd; do \
			if (cd $$tree && $$cmd) > /dev/null 2>&1; then echo "$$m survives: $$cmd"; survived="$$survived $$m"; \
			else echo "$$m killed by: $$cmd"; fi; \
		done < $$kills; \
	done; \
	[ -z "$$survived" ] || { echo "not killed:$$survived"; exit 1; }

# The size a simplicity change is judged by: per crate, then per file, the
# lines of crates/*/src that are neither blank nor a comment, counting each
# file only above its `#[cfg(test)]`; the last line is the workspace total.
loc:
	@for c in crates/*; do \
		find $$c/src -name '*.rs' | sort | xargs awk ' \
			FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } \
			!skip && !/^[[:space:]]*(\/\/|$$)/ { n[FILENAME]++; total++ } \
			END { printf "%6d  %s\n", total, "'$$c'"; for (f in n) printf "%6d    %s\n", n[f], f | "sort -k2"; }'; \
	done | awk '{ print } $$2 ~ /^crates\/[^\/]+$$/ { total += $$1 } END { printf "%6d  TOTAL\n", total }'

clean:
	$(CARGO) clean
