#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite.
#
#   scripts/check.sh               # the tier-1 gate from ROADMAP.md
#   scripts/check.sh --sanitize    # additionally run the concurrent tests
#                                  # (serve_test, util_test,
#                                  # engine_parallel_test, eval_cache_test,
#                                  # engine_golden_test, kernels_test,
#                                  # experiment_test, dfs_test)
#                                  # under TSan, and the zero-copy
#                                  # evaluation tests (engine_golden_test,
#                                  # linalg_test, kernels_test, ml_test)
#                                  # plus the state-file writers
#                                  # (file_test) under ASan+UBSan
#   scripts/check.sh --docs        # docs only (no build): every relative
#                                  # Markdown link resolves, every bench_*
#                                  # binary named in EXPERIMENTS.md exists,
#                                  # every DFS_* env knob read by the
#                                  # code is documented in EXPERIMENTS.md,
#                                  # every tools/ binary is mentioned
#                                  # in some Markdown file, every
#                                  # EngineOptions::<field> the docs name
#                                  # exists in src/core/engine.h,
#                                  # every option(DFS_*) is documented,
#                                  # and every BM_* row the docs name is
#                                  # registered in bench/*.cc
#   scripts/check.sh --bench-smoke [out.json]
#                                  # Release-build bench_micro and snapshot
#                                  # its gated rows (one uncached
#                                  # evaluation, eval-cache hit/miss, the
#                                  # MatVec/SquaredDistance kernels) to
#                                  # out.json (default BENCH_results.json),
#                                  # then the end-to-end benchmark's
#                                  # correctness smoke (bench/e2e)
#   scripts/check.sh --lint        # static gate (no test run): --analyze,
#                                  # then — when Clang tooling is on
#                                  # PATH — a -DDFS_ANALYZE=ON
#                                  # thread-safety build and clang-tidy
#                                  # over src/ (skipped with a notice on
#                                  # GCC-only hosts)
#   scripts/check.sh --analyze     # static contract analyzer (no test
#                                  # run): tools/dfs_analyze.py per-file
#                                  # rules + lock-order / hot-alloc /
#                                  # determinism passes over src/ and
#                                  # tools/, the committed
#                                  # docs/lock_order.dot drift check, and
#                                  # the analyzer self-test
#   scripts/check.sh --fuzz        # 80s libFuzzer smoke over the byte-level
#                                  # decoders (tests/fuzz/): Clang-only,
#                                  # skipped with a notice on GCC hosts
#                                  # (the fuzz.corpus_replay ctest entry
#                                  # still covers the corpus everywhere)
#   scripts/check.sh --stress [N]  # N (default 10) repeats of the
#                                  # thread-pool suites, engine_parallel_test,
#                                  # experiment_test, eval_cache_test and
#                                  # serve_test at
#                                  # DFS_THREADS=4, in a plain build and
#                                  # under TSan
#   scripts/check.sh --all         # tier-1 + --sanitize + --docs + --lint
#                                  # (which includes --analyze)
set -euo pipefail
cd "$(dirname "$0")/.."

run_analyze() {
  # Pure Python, no toolchain dependency: every rule and pass over src/
  # and tools/, the drift check of the committed lock-order artifact,
  # and the analyzer's own fixture self-test.
  python3 tools/dfs_analyze.py --check-dot docs/lock_order.dot
  python3 tests/analyze/dfs_analyze_test.py
}

run_lint() {
  # Leg 1 (always): the static contract analyzer and its self-test.
  run_analyze

  # Leg 2 (Clang only): promote the DFS_GUARDED_BY/DFS_REQUIRES
  # annotations to hard errors. The attributes are no-ops under GCC, so
  # on a host without clang++ this leg is skipped — loudly, never
  # silently passed off as run.
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-analyze -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DDFS_ANALYZE=ON
    cmake --build build-analyze -j
  else
    echo "check.sh: NOTICE: clang++ not found; skipping the" >&2
    echo "check.sh:   -DDFS_ANALYZE=ON thread-safety-analysis build" >&2
  fi

  # Leg 3 (Clang only): the curated .clang-tidy profile over src/. Uses
  # the compile database from a plain configure.
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    find src -name '*.cc' -print0 | \
      xargs -0 clang-tidy -p build --quiet
  else
    echo "check.sh: NOTICE: clang-tidy not found; skipping the" >&2
    echo "check.sh:   .clang-tidy sweep" >&2
  fi
}

run_fuzz_smoke() {
  # libFuzzer needs Clang; on a GCC-only host the corpus-replay ctest
  # entry (always built, every tree) is the standing coverage and this
  # smoke is skipped — loudly.
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "check.sh: NOTICE: clang++ not found; skipping the libFuzzer" >&2
    echo "check.sh:   smoke (fuzz.corpus_replay still covers the corpus)" >&2
    return 0
  fi
  cmake -B build-fuzz -S . -DCMAKE_CXX_COMPILER=clang++ -DDFS_FUZZ=ON
  cmake --build build-fuzz -j --target \
    fuzz_line_protocol fuzz_spill_decoder fuzz_arff fuzz_model_decoder
  corpus="$(mktemp -d)"
  trap 'rm -rf "$corpus"' RETURN
  python3 tests/fuzz/make_corpus.py "$corpus"
  # ~80s total: 20s per target, seeded from the committed generator so
  # the fuzzers start past the header checks.
  for target in line_protocol spill_decoder arff model_decoder; do
    "./build-fuzz/tests/fuzz/fuzz_${target}" \
      -max_total_time=20 -print_final_stats=1 "$corpus/${target}"
  done
}

run_stress() {
  # Repeats the shared-pool tests so real cores interleave their threads
  # many times over: once in the tier-1 build, once under TSan.
  local repeats="$1"
  local suites=(engine_parallel_test experiment_test eval_cache_test
                serve_test)
  local targets=(util_test "${suites[@]}")
  cmake -B build -S .
  cmake --build build -j --target "${targets[@]}"
  cmake -B build-tsan -S . -DDFS_SANITIZE=thread
  cmake --build build-tsan -j --target "${targets[@]}"
  for tree in build build-tsan; do
    DFS_THREADS=4 "./$tree/tests/util_test" \
      --gtest_filter='ThreadPoolTest.*:TaskGroupTest.*:ParallelForTest.*' \
      --gtest_repeat="$repeats" --gtest_brief=1
    for suite in "${suites[@]}"; do
      DFS_THREADS=4 "./$tree/tests/$suite" \
        --gtest_repeat="$repeats" --gtest_brief=1
    done
  done
}

if [[ "${1:-}" == "--stress" ]]; then
  repeats="${2:-10}"
  if ! [[ "$repeats" =~ ^[1-9][0-9]*$ ]]; then
    echo "check.sh: --stress takes a positive repeat count" >&2
    exit 2
  fi
  run_stress "$repeats"
  echo "check.sh: OK"
  exit 0
fi

if [[ "${1:-}" == "--docs" ]]; then
  python3 scripts/check_docs.py
  echo "check.sh: OK"
  exit 0
fi

if [[ "${1:-}" == "--lint" ]]; then
  run_lint
  echo "check.sh: OK"
  exit 0
fi

if [[ "${1:-}" == "--analyze" ]]; then
  run_analyze
  echo "check.sh: OK"
  exit 0
fi

if [[ "${1:-}" == "--fuzz" ]]; then
  run_fuzz_smoke
  echo "check.sh: OK"
  exit 0
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
  # Dedicated Release tree: committed snapshots must never come from a
  # debug build of this library. (The build/ tree's type is whatever the
  # developer last configured; build-bench is pinned.)
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-bench -j --target bench_micro
  # The gated rows: one uncached evaluation, the eval-cache hit and miss
  # paths, and the AVX2 kernel shapes. DFS_THREADS caps the budget so the
  # snapshot is reproducible on wide machines.
  out="${2:-BENCH_results.json}"
  DFS_THREADS="${DFS_THREADS:-4}" ./build-bench/bench/bench_micro \
    --benchmark_filter='EvaluateUncached|EvalCache|MatVec|SquaredDistanceSpan' \
    --benchmark_min_time=0.2 \
    --benchmark_out="$out" --benchmark_out_format=json
  # Note: the JSON's "library_build_type" describes the *system*
  # libbenchmark (Debian ships it non-NDEBUG, i.e. "debug" forever);
  # "dfs_build_type" is this library's own build and is the one gated.
  if ! grep -q '"dfs_build_type": "release"' "$out"; then
    echo "check.sh: FATAL: $out was produced by a non-Release build" >&2
    echo "check.sh: (context lacks '\"dfs_build_type\": \"release\"')" >&2
    exit 1
  fi
  echo "check.sh: wrote $out"
  # The end-to-end benchmark compiles against src/ internals, so a src/
  # change can break it or move its outputs: run its correctness smoke
  # (all three workloads at reduced scale, untraced and traced; fails on
  # a missing metric, a wrong output or a digest that differs between
  # the two runs).
  python3 bench/e2e/run.py --smoke
  echo "check.sh: OK"
  exit 0
fi

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

if [[ "${1:-}" == "--sanitize" || "${1:-}" == "--all" ]]; then
  # ThreadSanitizer build of the concurrency-heavy binaries in a separate
  # build tree, so the regular build/ stays clean. engine_golden_test rides
  # along: its byte-identical comparisons must hold when evaluations share
  # the engine's scratch pool across threads.
  cmake -B build-tsan -S . -DDFS_SANITIZE=thread
  cmake --build build-tsan -j --target serve_test util_test \
    engine_parallel_test eval_cache_test engine_golden_test kernels_test \
    experiment_test dfs_test
  ./build-tsan/tests/serve_test
  ./build-tsan/tests/util_test
  ./build-tsan/tests/engine_parallel_test
  ./build-tsan/tests/eval_cache_test
  ./build-tsan/tests/engine_golden_test
  ./build-tsan/tests/kernels_test
  # The study's scenario loop and SelectParallel's races share one pool
  # with their engines' batches (nested task groups).
  ./build-tsan/tests/experiment_test
  ./build-tsan/tests/dfs_test
  # ASan+UBSan sweep of the zero-copy evaluation path: the span kernels,
  # unchecked Matrix accessors, in-place gathers and batched predicts must
  # be clean under memory and UB checking (DFS_DCHECK bounds checks
  # compile out in Release; the sanitizers are the backstop). file_test
  # drives every state writer into a full device.
  cmake -B build-asan -S . -DDFS_SANITIZE=address,undefined
  cmake --build build-asan -j --target engine_golden_test linalg_test \
    kernels_test ml_test file_test fuzz_line_protocol_replay \
    fuzz_spill_decoder_replay fuzz_arff_replay fuzz_model_decoder_replay
  ./build-asan/tests/engine_golden_test
  ./build-asan/tests/linalg_test
  ./build-asan/tests/kernels_test
  ./build-asan/tests/ml_test
  ./build-asan/tests/file_test
  # Replay the generated fuzz corpus — including every historical crash
  # seed — through the decoders under ASan+UBSan (tests/fuzz/).
  python3 tests/fuzz/corpus_replay_test.py \
    ./build-asan/tests/fuzz/fuzz_line_protocol_replay \
    ./build-asan/tests/fuzz/fuzz_spill_decoder_replay \
    ./build-asan/tests/fuzz/fuzz_arff_replay \
    ./build-asan/tests/fuzz/fuzz_model_decoder_replay
fi

if [[ "${1:-}" == "--all" ]]; then
  python3 scripts/check_docs.py
  run_lint
fi

echo "check.sh: OK"
