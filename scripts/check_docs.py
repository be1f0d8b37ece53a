#!/usr/bin/env python3
"""Documentation consistency checks (scripts/check.sh --docs).

1. Every relative Markdown link in the top-level *.md files and docs/
   resolves to a file or directory in the repository.
2. Every `bench_*` binary named in EXPERIMENTS.md is declared in
   bench/CMakeLists.txt (no stale instructions for removed binaries),
   and every declared binary is named in EXPERIMENTS.md (no
   undocumented benchmarks).
3. Every `DFS_*` environment variable the code reads (any
   `getenv("DFS_...")` under src/, bench/ or tools/) is documented in
   EXPERIMENTS.md — env knobs must not be discoverable only by reading
   the source — and every `DFS_*` row of EXPERIMENTS.md's knob tables is
   read by such a getenv or is a root `option(DFS_*)`, so a removed knob
   cannot stay documented.
4. Every tool binary declared in tools/CMakeLists.txt (`dfs_*`) is
   mentioned in at least one top-level or docs/ Markdown file — a tool
   nobody can find from the docs is a tool nobody runs.
5. Every `cache.*` row of docs/PROTOCOL.md's instrument registry is
   registered (counter/gauge/histogram) under src/, so a removed
   instrument cannot stay documented. The other direction — every
   registered instrument is documented — is the analyzer's metric-name
   rule (tools/dfs_analyze.py).
6. The on-disk format version documented in docs/CACHE.md matches
   `kEvalCacheFormatVersion` in src/core/eval_cache.h, so the byte-level
   spec can never drift silently from the decoder.
7. The committed lock-order artifact (docs/lock_order.dot) is linked
   from at least one Markdown file, and every acquisition site its edge
   labels cite (`label="<file>:<line>"`) points at a file that still
   exists under src/. Exact line-level sync is `check.sh --analyze`'s
   job (it re-derives the graph); this keeps the artifact findable and
   its citations non-dangling even on docs-only runs.
8. Every `EngineOptions::<field>` named in a reference document (README,
   DESIGN, EXPERIMENTS, ROADMAP, docs/) is a field of `struct
   EngineOptions` in src/core/engine.h, and every `option(DFS_*)` in the
   root CMakeLists.txt is named in one of those documents. CHANGES.md is
   skipped on purpose: it is a history and names removed fields.
9. Every `BM_<Name>` micro-benchmark named in a reference document (the
   set rule 8 scans) is registered by a `BENCHMARK(BM_<Name>)` in
   bench/*.cc, so the docs cannot keep citing a deleted row.
"""

import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — stop at the first ')' so "(see [a](b))" parses; skip
# images the same way (the leading '!' does not change resolution rules).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def markdown_files():
    files = sorted(glob.glob(os.path.join(REPO, "*.md")))
    files += sorted(glob.glob(os.path.join(REPO, "docs", "**", "*.md"),
                              recursive=True))
    return files


def strip_code_blocks(text):
    """Removes fenced code blocks: link syntax inside them is example
    text, not navigation."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def check_links():
    errors = []
    for path in markdown_files():
        with open(path, encoding="utf-8") as handle:
            text = strip_code_blocks(handle.read())
        base = os.path.dirname(path)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]  # drop in-page anchors
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                errors.append(
                    f"{os.path.relpath(path, REPO)}: broken link "
                    f"'{match.group(1)}' -> {os.path.relpath(resolved, REPO)}"
                )
    return errors


def check_bench_binaries():
    # Binary names only — "bench_results" (the cache dir), "bench_common"
    # (the shared library), and "bench_diff" (the comparison script in
    # scripts/) are not benchmark binaries.
    with open(os.path.join(REPO, "EXPERIMENTS.md"), encoding="utf-8") as f:
        named = set(re.findall(r"\b(bench_[a-z0-9_]+)\b", f.read()))
    named -= {"bench_results", "bench_common", "bench_diff"}
    with open(os.path.join(REPO, "bench", "CMakeLists.txt"),
              encoding="utf-8") as f:
        declared = set(re.findall(r"\b(bench_[a-z0-9_]+)\b", f.read()))
    declared.discard("bench_common")  # the shared library, not a binary
    errors = [
        f"EXPERIMENTS.md names '{name}' but bench/CMakeLists.txt does not "
        f"declare it" for name in sorted(named - declared)
    ]
    # The reverse direction: a benchmark binary nobody can find from the
    # docs is a benchmark nobody runs.
    errors += [
        f"bench/CMakeLists.txt declares '{name}' but EXPERIMENTS.md does "
        f"not mention it" for name in sorted(declared - named)
    ]
    return errors


def table_rows(text, prefix):
    """Names in the first cell of Markdown table rows (`| `name` | ...`)
    that start with `prefix` (a regex)."""
    return set(re.findall(r"^\|\s*`(" + prefix + r"[A-Za-z0-9_.]+)`", text,
                          re.MULTILINE))


def root_build_options():
    with open(os.path.join(REPO, "CMakeLists.txt"), encoding="utf-8") as f:
        return set(re.findall(r"option\(\s*(DFS_[A-Z0-9_]+)", f.read()))


def check_env_knobs():
    getenv_re = re.compile(r"getenv\(\s*\"(DFS_[A-Z0-9_]+)\"")
    read = {}
    for root in ("src", "bench", "tools"):
        pattern = os.path.join(REPO, root, "**", "*.cc")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path, encoding="utf-8") as handle:
                for name in getenv_re.findall(handle.read()):
                    read.setdefault(name, os.path.relpath(path, REPO))
    with open(os.path.join(REPO, "EXPERIMENTS.md"), encoding="utf-8") as f:
        text = f.read()
    documented = set(re.findall(r"\b(DFS_[A-Z0-9_]+)\b", text))
    errors = [
        f"{path} reads '{name}' but EXPERIMENTS.md does not document it"
        for name, path in sorted(read.items()) if name not in documented
    ]
    errors += [
        f"EXPERIMENTS.md documents knob '{name}' but no getenv under src/, "
        f"bench/ or tools/ reads it and CMakeLists.txt declares no such "
        f"option" for name in sorted(table_rows(text, "DFS_") - set(read) -
                                     root_build_options())
    ]
    return errors


def check_tool_binaries():
    with open(os.path.join(REPO, "tools", "CMakeLists.txt"),
              encoding="utf-8") as f:
        declared = set(
            re.findall(r"add_executable\(\s*(dfs_[a-z0-9_]+)", f.read()))
    documented = set()
    for path in markdown_files():
        with open(path, encoding="utf-8") as handle:
            # Unlike links, code blocks count here: usage examples are
            # exactly how tools are documented.
            documented |= set(re.findall(r"\b(dfs_[a-z0-9_]+)\b",
                                         handle.read()))
    return [
        f"tools/CMakeLists.txt declares '{name}' but no Markdown file "
        f"mentions it" for name in sorted(declared - documented)
    ]


def check_cache_instruments():
    instrument_re = re.compile(
        r"\b(?:counter|gauge|histogram)\(\s*\"(cache\.[a-z0-9_.]+)\"")
    registered = set()
    pattern = os.path.join(REPO, "src", "**", "*.cc")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as handle:
            registered |= set(instrument_re.findall(handle.read()))
    with open(os.path.join(REPO, "docs", "PROTOCOL.md"),
              encoding="utf-8") as f:
        documented = table_rows(f.read(), r"cache\.")
    return [
        f"docs/PROTOCOL.md lists instrument '{name}' but nothing under src/ "
        f"registers it" for name in sorted(documented - registered)
    ]


def check_cache_format_version():
    with open(os.path.join(REPO, "src", "core", "eval_cache.h"),
              encoding="utf-8") as f:
        code = re.search(r"kEvalCacheFormatVersion\s*=\s*(\d+)", f.read())
    if code is None:
        return ["src/core/eval_cache.h no longer defines "
                "kEvalCacheFormatVersion (update check_docs.py)"]
    with open(os.path.join(REPO, "docs", "CACHE.md"), encoding="utf-8") as f:
        doc = re.search(r"\*\*Format version:\*\*\s*`?(\d+)`?", f.read())
    if doc is None:
        return ["docs/CACHE.md is missing its '**Format version:** `N`' "
                "line"]
    if code.group(1) != doc.group(1):
        return [
            f"docs/CACHE.md documents format version {doc.group(1)} but "
            f"src/core/eval_cache.h defines kEvalCacheFormatVersion = "
            f"{code.group(1)}"
        ]
    return []


def reference_docs():
    """The Markdown files that describe the tree as it is now."""
    top = [os.path.join(REPO, name) for name in
           ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")]
    docs = sorted(glob.glob(os.path.join(REPO, "docs", "**", "*.md"),
                            recursive=True))
    return [path for path in top if os.path.exists(path)] + docs


def check_engine_options_and_build_options():
    with open(os.path.join(REPO, "src", "core", "engine.h"),
              encoding="utf-8") as f:
        struct = re.search(r"struct EngineOptions \{(.*?)\n\};", f.read(),
                           re.DOTALL)
    if struct is None:
        return ["src/core/engine.h no longer defines struct EngineOptions "
                "(update check_docs.py)"]
    body = re.sub(r"//[^\n]*", "", struct.group(1))
    fields = set(re.findall(r"(\w+)\s*(?:=[^;]*)?;", body))
    options = root_build_options()
    errors = []
    named_options = set()
    for path in reference_docs():
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        # No leading \b: options are usually spelled -DDFS_<NAME>=ON.
        named_options |= set(re.findall(r"(DFS_[A-Z0-9_]+)\b", text))
        for field in sorted(set(re.findall(r"EngineOptions::(\w+)", text))):
            if field not in fields:
                errors.append(
                    f"{os.path.relpath(path, REPO)} names "
                    f"'EngineOptions::{field}' but struct EngineOptions in "
                    f"src/core/engine.h has no such field")
    errors += [
        f"CMakeLists.txt declares option '{name}' but no reference "
        f"document names it" for name in sorted(options - named_options)
    ]
    return errors


def check_lock_order_artifact():
    dot_path = os.path.join(REPO, "docs", "lock_order.dot")
    if not os.path.exists(dot_path):
        return ["docs/lock_order.dot is missing; regenerate it with "
                "`python3 tools/dfs_analyze.py --write-dot "
                "docs/lock_order.dot`"]
    referenced = any(
        "lock_order.dot" in open(path, encoding="utf-8").read()
        for path in markdown_files())
    errors = []
    if not referenced:
        errors.append("no Markdown file references docs/lock_order.dot — "
                      "the lock-order artifact is unfindable from the docs")
    with open(dot_path, encoding="utf-8") as handle:
        labels = re.findall(r'label="([^":]+):\d+"', handle.read())
    for cited in sorted(set(labels)):
        if not os.path.exists(os.path.join(REPO, "src", cited)):
            errors.append(
                f"docs/lock_order.dot cites acquisition site '{cited}' but "
                f"src/{cited} does not exist (stale artifact; regenerate "
                f"with --write-dot)")
    return errors


def check_micro_benchmarks():
    registered = set()
    for path in sorted(glob.glob(os.path.join(REPO, "bench", "*.cc"))):
        with open(path, encoding="utf-8") as handle:
            registered |= set(re.findall(r"\bBENCHMARK\(\s*(BM_\w+)",
                                         handle.read()))
    errors = []
    for path in reference_docs():
        with open(path, encoding="utf-8") as handle:
            named = set(re.findall(r"\b(BM_\w+)", handle.read()))
        errors += [
            f"{os.path.relpath(path, REPO)} names '{name}' but no "
            f"BENCHMARK({name}) is registered in bench/*.cc"
            for name in sorted(named - registered)
        ]
    return errors


def main():
    errors = (check_links() + check_bench_binaries() + check_env_knobs() +
              check_tool_binaries() + check_cache_instruments() +
              check_cache_format_version() + check_lock_order_artifact() +
              check_engine_options_and_build_options() +
              check_micro_benchmarks())
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {len(markdown_files())} Markdown files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
