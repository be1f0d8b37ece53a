#!/usr/bin/env python3
"""dfs_analyze — static contract analyzer (scripts/check.sh --analyze).

Enforces the repo-specific contracts the compiler cannot see (DESIGN.md
§2f, §2k). Per-file rules, one per documented contract:

  banned-symbol     §2d byte-identical-masks determinism: no ambient
                    randomness (std::rand, std::random_device) and no
                    wall-clock reads (time(), std::chrono::system_clock,
                    clock()) outside util/rng.cc and util/stopwatch.h —
                    everything random flows from a seeded util::Rng,
                    everything timed from Stopwatch's steady clock. Also
                    bans `volatile` (not a synchronization mechanism) and
                    raw `thread_local` (per-thread state is invisible to
                    the §2f lock discipline and the §2e scratch
                    accounting) unless justified with
                    '// DFS_THREAD_LOCAL_OK: <reason>'. src/linalg kernel
                    scaffolding is exempt from both.
  naked-mutex       All locking goes through the annotated wrappers in
                    util/mutex.h so the Clang thread-safety analysis sees
                    every capability: std::mutex, the std lock RAII
                    types, std::condition_variable, std::call_once /
                    once_flag and their headers are banned elsewhere.
  header-guard      Every header carries its canonical include guard
                    (DFS_<PATH>_H_) or #pragma once.
  include-order     A .cc file includes its own header first (proves the
                    header is self-contained); after it, <system>
                    includes precede "project" includes.
  dcheck-side-effect DFS_DCHECK compiles out under NDEBUG, so a mutating
                    argument (++/--/assignment/.insert-style calls) would
                    make Release behave differently from Debug.
  metric-name       Every literal instrument name registered on a
                    MetricsRegistry is documented in docs/PROTOCOL.md —
                    the metrics namespace is wire contract.
  naked-exemption   DFS_NO_THREAD_SAFETY_ANALYSIS needs a justification
                    comment on the same or preceding line.
  linalg-span       §2i kernel-layer API hygiene: linalg headers take
                    std::span<const double> (or pointer + length), never
                    const std::vector<double>&, so hot-path callers never
                    materialize a copy.

Whole-program passes over a call graph of the tree (§2k):

  lock-order        §2f mutex discipline: extracts the mutex-acquisition
                    graph from util::MutexLock scopes and DFS_REQUIRES /
                    DFS_ACQUIRE annotations, reports any cycle (a
                    potential deadlock) with both acquisition sites
                    named, and emits the graph as docs/lock_order.dot
                    (--write-dot / --check-dot keep the committed
                    artifact in sync).
  hot-alloc         §2e evaluation memory contract: functions annotated
                    DFS_HOT must not reach an allocating construct —
                    operator new, make_unique / make_shared, container
                    growth, std::string building — through any
                    transitive callee. DFS_ALLOC_BOUNDARY marks a
                    sanctioned allocating callee; `// DFS_ALLOC_OK:
                    <reason>` exempts a single line.
  determinism       §2d/§2i accumulation order: unordered-fp-order flags
                    iteration over an unordered container that feeds
                    floating-point accumulation or sequence building
                    (`// DFS_UNORDERED_OK: <reason>` exempts);
                    fp-accumulate bans std::accumulate / std::reduce over
                    floating-point values outside src/linalg/kernels*.

The extractor is textual (comment/literal stripping, brace-scope
tracking, function and member extraction): dependency-free and
deterministic on any host with Python. Every exemption marker needs a
reason; a bare marker is itself a violation.

Usage:
  tools/dfs_analyze.py                     # src/ and tools/ of this repo
  tools/dfs_analyze.py --root DIR          # another tree (test fixtures)
  tools/dfs_analyze.py --write-dot docs/lock_order.dot
  tools/dfs_analyze.py --check-dot docs/lock_order.dot

Exit status: 0 when clean, 1 when any rule fires or the DOT is stale.
"""

import argparse
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------------
# Source preprocessing

# One left-to-right scan, so whichever token starts first wins: in
# `'"'` the quote is a char literal, and in `"/*"` the comment opener is
# string content.
TOKEN_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/"
    r"|(?P<string>\"(?:[^\"\\\n]|\\.)*\")"
    r"|'(?:[^'\\\n]|\\.)*'", re.DOTALL)
PREPROC_RE = re.compile(r"^\s*#[^\n]*", re.MULTILINE)


def blank(match):
    return re.sub(r"[^\n]", " ", match.group(0))


def strip(text, keep_strings=False):
    """Blanks comments and char literals, and string literals unless
    `keep_strings`, preserving offsets so no rule fires on prose."""
    def replace(match):
        if keep_strings and match.group("string"):
            return match.group(0)
        return blank(match)
    return TOKEN_RE.sub(replace, text)


def strip_code(text):
    """strip() plus preprocessor lines, for the structural scans."""
    return PREPROC_RE.sub(blank, strip(text))


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


class Violation:
    def __init__(self, rel, line, rule, message):
        self.rel = rel
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


def exemption_lines(rel, raw_text, marker, rule, out):
    """Lines exempted by a justified `// <marker>: <reason>` on the same
    or the preceding line. A marker with no reason is itself a
    violation of `rule`."""
    marker_re = re.compile(r"//\s*" + marker + r":\s*(\S.*)?$")
    exempt = set()
    for number, line in enumerate(raw_text.splitlines(), start=1):
        match = marker_re.search(line)
        if not match:
            continue
        if match.group(1):
            exempt.update((number, number + 1))
        else:
            out.append(Violation(
                rel, number, rule,
                f"{marker} without a justification — exemptions are "
                f"allowed, silent ones are not"))
    return exempt


# ---------------------------------------------------------------------------
# Per-file rules

# Files allowed to hold what the rules ban, relative to the scanned root.
BANNED_SYMBOL_ALLOWLIST = {"util/rng.cc", "util/stopwatch.h"}
NAKED_MUTEX_ALLOWLIST = {"util/mutex.h", "util/thread_annotations.h"}

BANNED_SYMBOLS = [
    # (human name, regex). Word boundaries keep e.g. steady_clock and
    # Stopwatch's ElapsedSeconds out of the blast radius.
    ("std::rand/rand()",
     re.compile(r"(?<![\w:.])(?:std\s*::\s*)?s?rand\s*\(")),
    ("std::random_device", re.compile(r"\brandom_device\b")),
    ("std::chrono::system_clock", re.compile(r"\bsystem_clock\b")),
    ("time()/std::time()",
     re.compile(r"(?<![\w:.>])(?:std\s*::\s*)?time\s*\(")),
    ("clock()",
     re.compile(r"(?<![\w:.>])(?:std\s*::\s*)?clock\s*\(")),
]


# (rule, pattern, message, skip(rel)): fires on every stripped line the
# pattern matches; '{}' in the message is the matched text.
LINE_RULES = [
    ("banned-symbol", pattern,
     f"{name} breaks the §2d determinism contract; use util::Rng "
     f"(seeded) or util::Stopwatch (steady clock)",
     lambda rel: rel in BANNED_SYMBOL_ALLOWLIST)
    for name, pattern in BANNED_SYMBOLS
] + [
    ("banned-symbol", re.compile(r"\bvolatile\b"),
     "'volatile' is not a synchronization mechanism and has no place "
     "outside src/linalg; use util::Mutex or std::atomic (§2f)",
     lambda rel: rel.startswith("linalg/")),
    ("naked-mutex",
     re.compile(r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex"
                r"|shared_lock|lock_guard|unique_lock|scoped_lock"
                r"|condition_variable|condition_variable_any|call_once"
                r"|once_flag)\b"
                r"|#\s*include\s*<(mutex|condition_variable"
                r"|shared_mutex)>"),
     "'{}' bypasses the annotated util::Mutex/MutexLock/CondVar wrappers "
     "(util/mutex.h)", lambda rel: rel in NAKED_MUTEX_ALLOWLIST),
    # Return types and members are by value, so the const-ref spelling
    # only ever appears in parameter lists.
    ("linalg-span",
     re.compile(r"const\s+std::vector<\s*(?:double|float)\s*>\s*&"),
     "const std::vector<double>& parameter in a linalg header — take "
     "std::span<const double> (or pointer + length) so hot-path callers "
     "never copy (DESIGN.md §2i)",
     lambda rel: not (rel.startswith("linalg/") and rel.endswith(".h"))),
]

THREAD_LOCAL_RE = re.compile(r"\bthread_local\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^>"]+)[>"]')
METRIC_CALL_RE = re.compile(r"\.(counter|gauge|histogram)\(\s*\"([^\"]+)\"")
DCHECK_RE = re.compile(r"\bDFS_DCHECK\s*\(")
# Mutations inside a DCHECK argument: ++ / -- / plain assignment (not a
# comparison) / well-known mutating member calls.
DCHECK_MUTATION_RE = re.compile(
    r"\+\+|--|(?<![=!<>+\-*/%&|^])=(?![=])"
    r"|\.(push_back|emplace|emplace_back|insert|erase|pop_back|clear"
    r"|reset|release|store|fetch_add|fetch_sub)\s*\(")
EXEMPTION_RE = re.compile(r"\bDFS_NO_THREAD_SAFETY_ANALYSIS\b")


def guard_for(rel):
    """Canonical include-guard name: src/core/engine.h -> DFS_CORE_ENGINE_H_
    (rel is relative to the scanned root, which stands in for src/)."""
    stem = re.sub(r"\.h$", "", rel)
    return "DFS_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def check_header_guard(rel, code, out):
    if not rel.endswith(".h") or re.search(r"#\s*pragma\s+once\b", code):
        return
    guard = guard_for(rel)
    if re.search(r"#\s*ifndef\s+" + re.escape(guard), code) and \
            re.search(r"#\s*define\s+" + re.escape(guard), code):
        return
    out.append(Violation(
        rel, 1, "header-guard",
        f"missing '#pragma once' or canonical guard '{guard}'"))


def check_include_order(root, rel, code_with_strings, out):
    if not rel.endswith(".cc"):
        return
    includes = []  # (line number, kind, path)
    for number, line in enumerate(code_with_strings.splitlines(), start=1):
        match = INCLUDE_RE.match(line)
        if match:
            kind = "system" if match.group(1) == "<" else "project"
            includes.append((number, kind, match.group(2)))
    if not includes:
        return
    own_header = re.sub(r"\.cc$", ".h", rel)
    rest = includes
    if os.path.exists(os.path.join(root, own_header)):
        if includes[0][1] != "project" or includes[0][2] != own_header:
            out.append(Violation(
                rel, includes[0][0], "include-order",
                f"first include must be the file's own header "
                f"\"{own_header}\" (proves it is self-contained)"))
            return
        rest = includes[1:]
    seen_project = None
    for number, kind, path in rest:
        if kind == "project":
            seen_project = path
        elif seen_project is not None:
            out.append(Violation(
                rel, number, "include-order",
                f"<{path}> after \"{seen_project}\" — system includes "
                f"precede project includes"))
            return


def balanced_argument(code, start):
    """The parenthesized argument opening at `start`, or None if
    unbalanced."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[start + 1:i]
    return None


def check_dcheck_side_effects(rel, code, out):
    for match in DCHECK_RE.finditer(code):
        arg = balanced_argument(code, match.end() - 1)
        mutation = arg and DCHECK_MUTATION_RE.search(arg)
        if mutation:
            out.append(Violation(
                rel, line_of(code, match.start()), "dcheck-side-effect",
                f"DFS_DCHECK argument contains "
                f"'{mutation.group(0).strip()}' — DCHECK compiles out "
                f"under NDEBUG, so side effects change Release behavior"))


def check_metric_names(rel, code_with_strings, protocol_text, documented,
                       out):
    for match in METRIC_CALL_RE.finditer(code_with_strings):
        name = match.group(2)
        if name.endswith("."):
            # A dynamic name built by concatenation ("strategy." + label)
            # is documented with a placeholder: strategy.<label>.evaluations.
            if name + "<" in protocol_text:
                continue
        elif name in documented:
            continue
        out.append(Violation(
            rel, line_of(code_with_strings, match.start()), "metric-name",
            f"instrument '{name}' is not documented in docs/PROTOCOL.md "
            f"(the metrics namespace is wire contract, same policy as "
            f"DFS_* env knobs)"))


def check_naked_exemptions(rel, raw, code_lines, out):
    if rel in NAKED_MUTEX_ALLOWLIST:
        return  # the macro's own definition and docs
    lines = raw.splitlines()
    for index, line in enumerate(code_lines):
        if not EXEMPTION_RE.search(line):
            continue
        here = "//" in lines[index]
        above = index > 0 and lines[index - 1].lstrip().startswith("//")
        if not here and not above:
            out.append(Violation(
                rel, index + 1, "naked-exemption",
                "DFS_NO_THREAD_SAFETY_ANALYSIS without a justification "
                "comment on this or the preceding line"))


def per_file_rules(root, rel, raw, protocol_text, documented, out):
    code = strip(raw)
    code_lines = code.splitlines()
    code_with_strings = strip(raw, keep_strings=True)
    rules = [rule for rule in LINE_RULES if not rule[3](rel)]
    for number, line in enumerate(code_lines, start=1):
        for rule, pattern, message, _skip in rules:
            match = pattern.search(line)
            if match:
                out.append(Violation(rel, number, rule,
                                     message.format(match.group(0).strip())))
    if not rel.startswith("linalg/"):
        exempt = exemption_lines(rel, raw, "DFS_THREAD_LOCAL_OK",
                                 "banned-symbol", out)
        for number, line in enumerate(code_lines, start=1):
            if THREAD_LOCAL_RE.search(line) and number not in exempt:
                out.append(Violation(
                    rel, number, "banned-symbol",
                    "raw thread_local — per-thread state bypasses the §2f "
                    "lock discipline and the §2e scratch accounting; "
                    "justify with '// DFS_THREAD_LOCAL_OK: <reason>' on "
                    "this or the preceding line"))
    check_header_guard(rel, code, out)
    check_include_order(root, rel, code_with_strings, out)
    check_dcheck_side_effects(rel, code, out)
    check_metric_names(rel, code_with_strings, protocol_text, documented,
                       out)
    check_naked_exemptions(rel, raw, code_lines, out)


# ---------------------------------------------------------------------------
# Facts model

class Function:
    def __init__(self, cls, name, root, rel, header, body):
        self.cls = cls          # enclosing class name ('' for free functions)
        self.name = name
        self.file = (root, rel)  # key into Facts.files
        self.rel = rel          # file, relative to the scanned root
        self.header = header    # signature text (annotations included)
        self.body = body        # stripped body text (offsets match file)
        self.line = 0           # line of the body's '{'
        self.acquisitions = []  # [(mutex_id, pos, line, scope_end)]
        self.requires = []      # mutex ids from DFS_REQUIRES
        self.acquire_annot = []  # mutex ids from DFS_ACQUIRE
        self.calls = []         # [(receiver or None, name, pos, line)]
        self.blocks = []        # [(open_pos, close_pos)] within the body
        self.hot = False
        self.alloc_boundary = False

    @property
    def key(self):
        return (self.cls, self.name)

    def __repr__(self):
        scope = f"{self.cls}::" if self.cls else ""
        return f"{scope}{self.name}@{self.rel}:{self.line}"


class Facts:
    """Everything the whole-program passes need."""

    def __init__(self):
        self.functions = []           # [Function]
        self.mutex_members = {}       # class -> {member name}
        self.unordered_members = {}   # class -> {member name}
        self.member_types = {}        # class -> {member name -> type text}
        self.class_bases = {}         # class -> {base class name}
        self.hot_decls = set()        # (class, name) from declarations
        self.boundary_decls = set()   # (class, name)
        self.requires_decls = {}      # (class, name) -> [mutex expr]
        self.acquire_decls = {}       # (class, name) -> [mutex expr]
        self.files = {}               # (root, rel) -> (raw, stripped text)
        self.calls = {}               # Function -> resolve_calls result

    def ancestors(self, cls):
        """Transitive base classes of `cls` (by short name)."""
        seen = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop()
            for base in self.class_bases.get(current, ()):
                if base not in seen:
                    seen.add(base)
                    frontier.append(base)
        return seen

    def with_derived(self, classes):
        """`classes` plus every class transitively deriving from one of
        them — the dynamic types a base reference may dispatch to."""
        result = set(classes)
        changed = True
        while changed:
            changed = False
            for cls, bases in self.class_bases.items():
                if cls not in result and bases & result:
                    result.add(cls)
                    changed = True
        return result


# ---------------------------------------------------------------------------
# Extraction: structural C++ scan

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "do", "else", "try",
                    "catch", "return", "sizeof", "alignof", "decltype",
                    "static_assert", "new", "delete", "throw", "case"}

NON_CALL_NAMES = CONTROL_KEYWORDS | {
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "defined", "noexcept", "alignas", "assert", "typeid",
}

# The annotation macros carry parens but are not the parameter list.
ATTR_MACRO_RE = re.compile(r"\bDFS_[A-Z_]+\b")

CLASS_HEADER_RE = re.compile(
    r"\b(?:class|struct)\b(?!\s*\.\.\.)(?P<rest>[^;{]*)$")
NAMESPACE_HEADER_RE = re.compile(r"\bnamespace\s+([\w:]*)\s*$")
ENUM_HEADER_RE = re.compile(r"\benum\b")

MUTEX_MEMBER_RE = re.compile(
    r"\b(?:util::)?Mutex\s+(\w+)\s*(?:DFS_GUARDED_BY\([^)]*\))?\s*$")
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
MUTEXLOCK_RE = re.compile(
    r"\b(?:util::)?MutexLock\s+\w+\s*[({]\s*([^;)}]+?)\s*[)}]")
FOR_HEAD_RE = re.compile(r"\bfor\s*\(")
CALL_RE = re.compile(
    r"(?P<recv>\b[A-Za-z_]\w*(?:\[[^\]]*\])?\s*(?:\.|->)\s*)?"
    r"(?P<quals>(?:\b\w+\s*::\s*)*)"
    r"(?P<name>\b[A-Za-z_]\w*)\s*\(")
DECL_ANNOT_RE = re.compile(
    r"(?P<name>~?[A-Za-z_]\w*)\s*\("
    r"(?P<args>(?:[^;{}()]|\{[^{}]*\}|\([^()]*\))*)\)"
    r"\s*(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?(?:final\s*)?"
    r"(?P<annots>(?:DFS_[A-Z_]+\s*(?:\([^()]*\)\s*)?)+)")
# Attribute macros in leading position (before the return type):
#   DFS_HOT EvaluatedMask EvaluateUncached(...)
DECL_LEADING_RE = re.compile(
    r"\b(?P<macro>DFS_HOT|DFS_ALLOC_BOUNDARY)\b"
    r"(?P<mid>[^;{}()=]*?)(?P<name>[A-Za-z_]\w*)\s*\(")


def _scope_name_from_class_header(header):
    """Class name from a 'class/struct ...' header: the last identifier
    before the base clause, skipping attribute-macro invocations."""
    header = re.sub(r"\bDFS_[A-Z_]+\s*\([^)]*\)", " ", header)
    header = re.sub(r"\bDFS_[A-Z_]+\b", " ", header)
    header = header.split(":", 1)[0]  # drop base clause
    header = re.sub(r"\bfinal\b", " ", header)
    names = re.findall(r"[A-Za-z_]\w*", header)
    names = [n for n in names if n not in ("class", "struct", "public",
                                           "private", "protected",
                                           "template", "typename", "enum")]
    return names[-1] if names else ""


def _function_from_header(header):
    """(class_qualifier, name) if the header reads as a function
    definition signature, else None."""
    if re.search(r"(?<![=!<>+\-*/%&|^])=(?![=])", _mask_parens(header)):
        return None  # assignment / brace-init, not a signature
    # Find the parameter list: the first top-level paren group whose
    # preceding identifier is neither a control keyword nor an attribute
    # macro.  Walk top-level groups in order.
    depth = 0
    group_start = None
    pos = 0
    while pos < len(header):
        ch = header[pos]
        if ch == "(":
            if depth == 0:
                group_start = pos
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and group_start is not None:
                before = header[:group_start].rstrip()
                match = re.search(r"((?:\w+\s*::\s*)*)(~?[A-Za-z_]\w*)$",
                                  before)
                if match:
                    name = match.group(2)
                    quals = re.findall(r"\w+", match.group(1))
                    if (name not in CONTROL_KEYWORDS
                            and not ATTR_MACRO_RE.fullmatch(name)
                            and "operator" not in before.split()[-2:]):
                        cls = quals[-1] if quals else None
                        return (cls, name)
                group_start = None
        pos += 1
    return None


def _mask_parens(text):
    """Blanks the contents of every paren group (top-level scan helper)."""
    out = []
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
            out.append(ch)
        elif ch == ")":
            depth = max(0, depth - 1)
            out.append(ch)
        else:
            out.append(" " if depth > 0 and ch != "\n" else ch)
    return "".join(out)


def extract(files):
    """Brace-scope scan of [(root, rel, raw)] into the Facts model, with
    every function's calls resolved once for the whole-program passes."""
    facts = Facts()
    for root, rel, raw in files:
        stripped = strip_code(raw)
        facts.files[(root, rel)] = (raw, stripped)
        _scan_file(root, rel, stripped, facts)
    _scan_declarations(facts)
    for function in facts.functions:
        _scan_body(function)
    classes = known_classes(facts)
    for function in facts.functions:
        facts.calls[function] = resolve_calls(function, facts, classes)
    return facts


# -- structure -------------------------------------------------------------

def _scan_file(root, rel, code, facts):
    # Scope stack entries: (kind, name, open_pos). kind in
    # {namespace, class, function, block}.
    stack = []
    stmt_start = 0
    pos = 0
    paren_depth = 0
    length = len(code)
    while pos < length:
        ch = code[pos]
        if ch == "(":
            paren_depth += 1
        elif ch == ")":
            paren_depth = max(0, paren_depth - 1)
        elif ch == ";" and paren_depth == 0:
            stmt_start = pos + 1
        elif ch == "{" and paren_depth == 0:
            header = code[stmt_start:pos]
            kind, name = _classify(header, stack)
            if kind == "class":
                _record_bases(name, header, facts)
            stack.append((kind, name, pos, header))
            stmt_start = pos + 1
        elif ch == "{":
            # Brace inside an unbalanced paren context (lambda passed
            # as an argument). Treat as a block; the paren depth is
            # carried across it.
            stack.append(("block", "", pos, ""))
            stmt_start = pos + 1
        elif ch == "}":
            if stack:
                kind, name, open_pos, header = stack.pop()
                if kind == "class" and name:
                    body = code[open_pos + 1:pos]
                    _scan_class_body(name, body, facts)
                elif kind == "function":
                    cls, fname = name
                    function = Function(cls or "", fname, root, rel,
                                        header, code[open_pos + 1:pos])
                    function.line = line_of(code, open_pos)
                    _annotate_from_header(function, header)
                    facts.functions.append(function)
            stmt_start = pos + 1
        pos += 1


def _record_bases(cls, header, facts):
    """Base-class names from a class header's base clause. Each
    comma-separated base contributes its last identifier (namespaces
    and template arguments stripped)."""
    masked = _mask_parens(header)
    keyword = re.search(r"\b(?:class|struct)\b", masked)
    if not keyword:
        return
    tail = masked[keyword.end():]
    colon = re.search(r"(?<!:):(?!:)", tail)
    if not colon:
        return
    bases = set()
    for chunk in tail[colon.end():].split(","):
        chunk = re.sub(r"<[^<>]*>", " ", chunk)
        chunk = re.sub(r"\b(?:public|private|protected|virtual"
                       r"|final)\b", " ", chunk)
        names = re.findall(r"[A-Za-z_]\w*", chunk)
        if names:
            bases.add(names[-1])
    if bases:
        facts.class_bases.setdefault(cls, set()).update(bases)


def _classify(header, stack):
    in_function = any(kind == "function" for kind, *_ in stack)
    tail = header.strip()
    ns = NAMESPACE_HEADER_RE.search(tail)
    if ns and not in_function:
        return ("namespace", ns.group(1), )
    if ENUM_HEADER_RE.search(_mask_parens(tail)) and "(" not in tail:
        return ("block", "")
    cls = CLASS_HEADER_RE.search(_mask_parens(tail))
    if cls and not in_function:
        name = _scope_name_from_class_header(cls.group(0))
        if name:
            return ("class", name)
    if not in_function:
        fn = _function_from_header(tail)
        if fn:
            cls_qual, fname = fn
            if cls_qual is None:
                # Method defined inside a class body: inherit the
                # enclosing class.
                enclosing = [n for k, n, *_ in stack if k == "class"]
                cls_qual = enclosing[-1] if enclosing else ""
            first = _mask_parens(tail).split("(")[0]
            if not re.search(r"\b(?:if|for|while|switch|catch)\b",
                             first):
                return ("function", (cls_qual, fname))
    return ("block", "")


# -- class bodies ----------------------------------------------------------

def _scan_class_body(cls, body, facts):
    # Blank nested brace groups so member scans see only this class's
    # own declarations (nested classes were already scanned when their
    # closing brace popped).
    masked = []
    depth = 0
    for ch in body:
        if ch == "{":
            depth += 1
            masked.append(" ")
        elif ch == "}":
            depth = max(0, depth - 1)
            masked.append(" ")
        else:
            masked.append(ch if depth == 0 else
                          (" " if ch != "\n" else ch))
    for statement in re.split(r"[;]", "".join(masked)):
        mutex = MUTEX_MEMBER_RE.search(statement.strip())
        if mutex and "MutexLock" not in statement:
            facts.mutex_members.setdefault(cls, set()).add(
                mutex.group(1))
        if UNORDERED_DECL_RE.search(statement):
            member = re.search(r">\s+(\w+)\s*(?:DFS_GUARDED_BY"
                               r"\([^)]*\))?\s*(?:\{[^}]*\})?\s*$",
                               statement)
            if member:
                facts.unordered_members.setdefault(cls, set()).add(
                    member.group(1))
        _record_member_type(cls, statement, facts)


def _record_member_type(cls, statement, facts):
    """Member name -> declared type, for receiver-call resolution."""
    stmt = statement.strip()
    stmt = re.sub(r"\bDFS_[A-Z_]+\s*\([^)]*\)", " ", stmt)
    stmt = re.sub(r"\bDFS_[A-Z_]+\b", " ", stmt)
    if "(" in stmt or ")" in stmt:
        return  # method declaration, not a data member
    stmt = re.sub(r"=.*$", " ", stmt, flags=re.DOTALL)
    match = re.match(
        r"(?:mutable\s+|static\s+|constexpr\s+|inline\s+|const\s+)*"
        r"(.+?)\s+(\w+)(?:\s*\[[^\]]*\])?\s*$", stmt.strip(),
        re.DOTALL)
    if match:
        facts.member_types.setdefault(cls, {})[match.group(2)] = \
            match.group(1)


# -- declarations (annotations on prototypes) ------------------------------

def _scan_declarations(facts):
    for _raw, stripped in facts.files.values():
        for match in DECL_LEADING_RE.finditer(stripped):
            cls = _enclosing_class(stripped, match.start())
            key = (cls, match.group("name"))
            if match.group("macro") == "DFS_HOT":
                facts.hot_decls.add(key)
            else:
                facts.boundary_decls.add(key)
        for match in DECL_ANNOT_RE.finditer(stripped):
            annots = match.group("annots")
            name = match.group("name")
            cls = _enclosing_class(stripped, match.start())
            key = (cls, name)
            if re.search(r"\bDFS_HOT\b", annots):
                facts.hot_decls.add(key)
            if re.search(r"\bDFS_ALLOC_BOUNDARY\b", annots):
                facts.boundary_decls.add(key)
            for req in re.finditer(r"\bDFS_REQUIRES\s*\(([^)]*)\)",
                                   annots):
                facts.requires_decls.setdefault(key, []).extend(
                    part.strip() for part in req.group(1).split(","))
            for acq in re.finditer(r"\bDFS_ACQUIRE\s*\(([^)]*)\)",
                                   annots):
                facts.acquire_decls.setdefault(key, []).extend(
                    part.strip() for part in acq.group(1).split(","))


def _enclosing_class(code, pos):
    """Innermost class scope containing `pos` (re-scan; cheap enough
    for the handful of annotated declarations)."""
    stack = []
    paren = 0
    stmt_start = 0
    for i, ch in enumerate(code[:pos]):
        if ch == "(":
            paren += 1
        elif ch == ")":
            paren = max(0, paren - 1)
        elif ch == ";" and paren == 0:
            stmt_start = i + 1
        elif ch == "{":
            header = code[stmt_start:i] if paren == 0 else ""
            cls = CLASS_HEADER_RE.search(_mask_parens(header.strip()))
            if cls and paren == 0:
                stack.append(_scope_name_from_class_header(
                    cls.group(0)))
            else:
                stack.append(None)
            stmt_start = i + 1
        elif ch == "}":
            if stack:
                stack.pop()
            stmt_start = i + 1
    for name in reversed(stack):
        if name:
            return name
    return ""


# -- function bodies -------------------------------------------------------

def _annotate_from_header(function, header):
    if re.search(r"\bDFS_HOT\b", header):
        function.hot = True
    if re.search(r"\bDFS_ALLOC_BOUNDARY\b", header):
        function.alloc_boundary = True
    for req in re.finditer(r"\bDFS_REQUIRES\s*\(([^)]*)\)", header):
        function.requires.extend(
            part.strip() for part in req.group(1).split(","))
    for acq in re.finditer(r"\bDFS_ACQUIRE\s*\(([^)]*)\)", header):
        function.acquire_annot.extend(
            part.strip() for part in acq.group(1).split(","))


def _scan_body(function):
    body = function.body
    # Block structure (for acquisition scopes).
    opens = []
    depth_pairs = []
    for i, ch in enumerate(body):
        if ch == "{":
            opens.append(i)
        elif ch == "}" and opens:
            depth_pairs.append((opens.pop(), i))
    function.blocks = depth_pairs
    for match in MUTEXLOCK_RE.finditer(body):
        pos = match.start()
        scope_end = len(body)
        for open_pos, close_pos in depth_pairs:
            if open_pos < pos < close_pos and close_pos < scope_end:
                scope_end = close_pos
        function.acquisitions.append(
            (match.group(1).strip(), pos,
             line_of(body, pos) + function.line - 1, scope_end))
    for match in CALL_RE.finditer(body):
        name = match.group("name")
        if name in NON_CALL_NAMES:
            continue
        quals = re.findall(r"\w+", match.group("quals") or "")
        if quals and quals[0] == "std":
            continue
        recv = match.group("recv")
        recv_name = None
        if recv:
            recv_name = re.match(r"\s*([A-Za-z_]\w*)", recv).group(1)
        elif quals:
            recv_name = "::".join(quals)
        pos = match.start("name")
        function.calls.append(
            (recv_name, name, pos,
             line_of(body, pos) + function.line - 1))


# ---------------------------------------------------------------------------
# Mutex identity resolution

def resolve_mutex_id(expr, function, facts):
    """Normalizes a mutex expression to a stable node identity:
    'Class::member' when resolvable, else a function-local or raw id."""
    expr = expr.strip()
    expr = re.sub(r"^[*&]", "", expr)  # *mu_ / &mu_ -> mu_
    chain = re.split(r"\.|->", expr)
    chain = [part.strip() for part in chain if part.strip()]
    if not chain:
        return expr
    member = re.sub(r"[^\w:].*$", "", chain[-1])
    if len(chain) == 1:
        # Bare name: the enclosing class's member, or a local mutex.
        if member in facts.mutex_members.get(function.cls, set()):
            return f"{function.cls}::{member}"
        for cls, members in facts.mutex_members.items():
            if member in members and cls == function.cls:
                return f"{cls}::{member}"
        if re.search(r"\b(?:util::)?Mutex\s+" + re.escape(member) + r"\b",
                     function.body):
            return f"{function.cls or function.rel}::{function.name}" \
                   f"::{member}"
        # An unqualified member of the (sole) class declaring it.
        owners = [cls for cls, members in facts.mutex_members.items()
                  if member in members]
        if len(owners) == 1:
            return f"{owners[0]}::{member}"
        return member
    # obj.member / obj->member: resolve obj's type from params/body/members.
    obj = re.sub(r"[^\w].*$", "", chain[-2])
    search_space = function.header + "\n" + function.body
    type_match = re.search(
        r"\b([A-Za-z_][\w:]*)\s*[&*]?\s+" + re.escape(obj) + r"\b",
        search_space)
    if type_match:
        type_name = type_match.group(1).split("::")[-1]
        if member in facts.mutex_members.get(type_name, set()):
            return f"{type_name}::{member}"
    owners = [cls for cls, members in facts.mutex_members.items()
              if member in members]
    if len(owners) == 1:
        return f"{owners[0]}::{member}"
    return f"{obj}.{member}" if owners else member


# ---------------------------------------------------------------------------
# Call resolution

# Methods of std:: vocabulary types. When a receiver's type cannot be
# resolved, a call to one of these is assumed to be a container/std call
# rather than fanned out to every project class with that method name
# (project method style is CamelCase, so collisions are rare).
STD_METHOD_NAMES = {
    "size", "empty", "begin", "end", "cbegin", "cend", "rbegin", "rend",
    "clear", "find", "rfind", "count", "erase", "insert", "emplace",
    "emplace_back", "emplace_hint", "try_emplace", "push_back",
    "pop_back", "push_front", "pop_front", "push", "pop", "top", "front",
    "back", "at", "data", "reserve", "resize", "assign", "append",
    "substr", "c_str", "str", "get", "reset", "release", "swap",
    "contains", "load", "store", "exchange", "fetch_add", "fetch_sub",
    "compare_exchange_strong", "compare_exchange_weak", "value",
    "has_value", "value_or", "lock", "unlock", "try_lock", "join",
    "joinable", "detach", "wait", "wait_for", "wait_until", "notify_one",
    "notify_all", "length", "capacity", "shrink_to_fit", "merge",
    "extract", "bucket_count", "native_handle", "first", "second",
}

TYPE_DECL_TEMPLATE = (r"\b([A-Za-z_][\w:]*(?:\s*<[^;{{}}]*?>)?)\s*"
                      r"(?:const\s*)?[&*\s]+{recv}\b(?!\s*\()")


def known_classes(facts):
    classes = set(facts.mutex_members) | set(facts.member_types) | \
        set(facts.unordered_members)
    classes.update(f.cls for f in facts.functions if f.cls)
    classes.discard("")
    return classes


def _type_classes(type_str, classes):
    named = {part for part in re.findall(r"[A-Za-z_]\w*", type_str)}
    return {cls for cls in classes if cls in named}


def _declared_type(name, function, facts):
    """Declared type text of a member / param / local, or None."""
    type_str = facts.member_types.get(function.cls, {}).get(name)
    if type_str is not None:
        return type_str
    pattern = TYPE_DECL_TEMPLATE.format(recv=re.escape(name))
    match = re.search(pattern, function.header + "\n" + function.body)
    if match:
        type_str = match.group(1)
        if type_str.split("::")[-1].split("<")[0] not in (
                "auto", "return", "co_return"):
            return type_str
    return None


def receiver_classes(recv, function, facts, classes):
    """Project classes a receiver expression may denote, or None when the
    receiver's type could not be resolved at all (caller falls back to a
    filtered fan-out covering virtual dispatch)."""
    if recv in classes:
        return {recv}  # ClassName::Static(...)
    type_str = _declared_type(recv, function, facts)
    if type_str is None:
        # Range-for variable or structured binding: the element type is
        # named inside the container's declared type
        # (for (auto& [k, v] : counters_) -> v has counters_'s value type).
        for decl, expr, _start, _end, _head in range_for_loops(function):
            if recv not in re.findall(r"[A-Za-z_]\w*", decl):
                continue
            tail = re.search(r"([A-Za-z_]\w*)\s*(?:\(\s*\))?$",
                             expr.strip())
            if tail:
                type_str = _declared_type(tail.group(1), function, facts)
            if type_str is not None:
                break
    if type_str is None:
        # Member of exactly one known class (e.g. shard.resolved where
        # only Shard declares 'resolved'): use that member's own type.
        owners = [cls for cls, members in facts.member_types.items()
                  if recv in members]
        if len(owners) == 1:
            type_str = facts.member_types[owners[0]][recv]
    if type_str is None:
        return None
    return _type_classes(type_str, classes)


def resolve_calls(function, facts, classes):
    """Project functions a call may reach: receiver calls resolve the
    receiver's declared type (std-typed receivers are dropped; known
    classes bind to their methods); unresolvable receivers fan out to
    every class's method with that name — conservative for virtual
    dispatch — except for std vocabulary method names; receiverless
    calls bind same-class first, then free functions. `classes` is
    known_classes(facts)."""
    resolved = []
    for recv, name, pos, line in function.calls:
        if recv is None:
            targets = [f for f in facts.functions
                       if f.name == name and f.cls == function.cls]
            if not targets:
                targets = [f for f in facts.functions
                           if f.name == name and not f.cls]
        else:
            receiver_set = receiver_classes(recv, function, facts,
                                            classes)
            if receiver_set is None:
                if name in STD_METHOD_NAMES:
                    continue
                targets = [f for f in facts.functions if f.name == name]
            else:
                # Virtual dispatch: a base-typed receiver may run any
                # derived class's override.
                dispatch = facts.with_derived(receiver_set)
                targets = [f for f in facts.functions
                           if f.name == name and f.cls in dispatch]
        if targets:
            resolved.append((targets, pos, line))
    return resolved


# ---------------------------------------------------------------------------
# Pass 1: lock-order

def transitive_acquires(facts):
    """For each function key, the set of (mutex_id, site) it may acquire
    directly or through any resolvable callee."""
    direct = {}
    callees = {}
    for function in facts.functions:
        acquired = {}
        for expr, pos, line, _scope in function.acquisitions:
            mutex = resolve_mutex_id(expr, function, facts)
            acquired.setdefault(mutex, f"{function.rel}:{line}")
        for expr in function.acquire_annot + \
                facts.acquire_decls.get(function.key, []):
            mutex = resolve_mutex_id(expr, function, facts)
            acquired.setdefault(mutex, f"{function.rel}:{function.line}")
        slot = direct.setdefault(function.key, {})
        for mutex, site in acquired.items():
            if mutex not in slot or site < slot[mutex]:
                slot[mutex] = site
        callees.setdefault(function.key, set())
        for targets, _pos, _line in facts.calls[function]:
            for target in targets:
                callees[function.key].add(target.key)
    closure = {}

    def visit(key, active):
        if key in closure:
            return closure[key]
        if key in active:
            return direct.get(key, {})
        active.add(key)
        result = dict(direct.get(key, {}))
        for callee in sorted(callees.get(key, ())):
            for mutex, site in visit(callee, active).items():
                # Deterministic representative site (PYTHONHASHSEED must
                # not change the committed DOT): keep the smallest.
                if mutex not in result or site < result[mutex]:
                    result[mutex] = site
        active.discard(key)
        closure[key] = result
        return result

    for key in list(direct):
        visit(key, set())
    return closure


def lock_order_pass(facts, out):
    """Builds the held->acquired edge set; returns {(a, b): sites}."""
    closure = transitive_acquires(facts)
    edges = {}

    def add_edge(held, acquired, site):
        if held == acquired:
            return
        edges.setdefault((held, acquired), set()).add(site)

    for function in facts.functions:
        requires = [resolve_mutex_id(e, function, facts)
                    for e in function.requires +
                    facts.requires_decls.get(function.key, [])]
        resolved_calls = facts.calls[function]
        held_regions = []  # (mutex, start, end)
        for expr, pos, line, scope_end in function.acquisitions:
            mutex = resolve_mutex_id(expr, function, facts)
            held_regions.append((mutex, pos, scope_end,
                                 f"{function.rel}:{line}"))
        # While holding m (scoped or via REQUIRES), any further
        # acquisition is an ordering edge.
        for held, start, end, _site in held_regions:
            for expr, pos, line, _scope in function.acquisitions:
                if start < pos < end:
                    acquired = resolve_mutex_id(expr, function, facts)
                    add_edge(held, acquired, f"{function.rel}:{line}")
            for targets, pos, line in resolved_calls:
                if not (start < pos < end):
                    continue
                for target in targets:
                    for mutex, site in closure.get(target.key,
                                                   {}).items():
                        add_edge(held, mutex, site)
        for held in requires:
            for expr, pos, line, _scope in function.acquisitions:
                acquired = resolve_mutex_id(expr, function, facts)
                add_edge(held, acquired, f"{function.rel}:{line}")
            for targets, pos, line in resolved_calls:
                for target in targets:
                    for mutex, site in closure.get(target.key, {}).items():
                        add_edge(held, mutex, site)

    # Cycle detection over the edge graph.
    graph = {}
    for (a, b), sites in edges.items():
        graph.setdefault(a, set()).add(b)

    def find_cycle():
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in
                 set(graph) | {b for bs in graph.values() for b in bs}}
        parent = {}

        def dfs(node):
            color[node] = GRAY
            for succ in sorted(graph.get(node, ())):
                if color.get(succ, WHITE) == GRAY:
                    cycle = [succ, node]
                    current = node
                    while current != succ:
                        current = parent[current]
                        cycle.append(current)
                    cycle.reverse()
                    return cycle
                if color.get(succ, WHITE) == WHITE:
                    parent[succ] = node
                    found = dfs(succ)
                    if found:
                        return found
            color[node] = BLACK
            return None

        for node in sorted(graph):
            if color.get(node, WHITE) == WHITE:
                found = dfs(node)
                if found:
                    return found
        return None

    cycle = find_cycle()
    if cycle:
        hops = []
        for i in range(len(cycle) - 1):
            a, b = cycle[i], cycle[i + 1]
            sites = ", ".join(sorted(edges.get((a, b), {"?"})))
            hops.append(f"{a} -> {b} (acquired at {sites})")
        out.append(Violation(
            "(lock graph)", 0, "lock-order",
            "potential deadlock: mutex acquisition cycle " +
            "; ".join(hops)))
    return edges


def edges_to_dot(edges):
    lines = [
        "// Mutex acquisition order, regenerated by",
        "//   tools/dfs_analyze.py --write-dot docs/lock_order.dot",
        "// (scripts/check.sh --analyze diffs this artifact; do not edit).",
        "// Edge A -> B: some thread acquires B while holding A; the label",
        "// is every acquisition site that creates the edge. The graph",
        "// must stay acyclic (DESIGN.md §2k).",
        "digraph lock_order {",
        "  rankdir=LR;",
        "  node [shape=box, fontname=\"monospace\"];",
    ]
    for (a, b) in sorted(edges):
        sites = ",\\n".join(sorted(edges[(a, b)]))
        lines.append(f"  \"{a}\" -> \"{b}\" [label=\"{sites}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pass 2: hot-alloc

ALLOC_CONSTRUCTS = [
    ("operator new",
     re.compile(r"(?<![\w.])new\b(?!\s*\()")),
    ("std::make_unique/make_shared",
     re.compile(r"\bmake_(?:unique|shared)\s*<")),
    ("container growth",
     re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|emplace|insert"
                r"|try_emplace|push_front|append|assign)\s*\(")),
    ("capacity growth",
     re.compile(r"(?:\.|->)\s*(?:resize|reserve)\s*\(")),
    ("std::to_string", re.compile(r"\bto_string\s*\(")),
    ("std::string construction", re.compile(r"\bstd::string\s+\w+\s*[;({=]")),
    ("local std::vector construction",
     re.compile(r"\bstd::vector\s*<[^;>]*>\s+\w+\s*[({=]")),
]


def hot_alloc_pass(facts, out):
    # Annotations propagate to overrides: a function whose base class
    # declares the same name DFS_HOT / DFS_ALLOC_BOUNDARY inherits it.
    declared_hot = set(facts.hot_decls)
    declared_boundary = set(facts.boundary_decls)
    for function in facts.functions:
        if function.hot:
            declared_hot.add(function.key)
        if function.alloc_boundary:
            declared_boundary.add(function.key)

    def inherits(declared, function):
        if function.key in declared:
            return True
        return any((ancestor, function.name) in declared
                   for ancestor in facts.ancestors(function.cls))

    roots = [f for f in facts.functions if inherits(declared_hot, f)]
    boundary_keys = set(declared_boundary)
    for function in facts.functions:
        if inherits(declared_boundary, function):
            boundary_keys.add(function.key)

    # Pre-scan every function for allocating constructs (line exemptions
    # applied here so the walk only sees unjustified sites).
    alloc_sites = {}
    exempt_by_file = {
        (root, rel): exemption_lines(rel, raw, "DFS_ALLOC_OK", "hot-alloc",
                                     out)
        for (root, rel), (raw, _stripped) in facts.files.items()}
    for function in facts.functions:
        sites = []
        exempt = exempt_by_file[function.file]
        for label, pattern in ALLOC_CONSTRUCTS:
            for match in pattern.finditer(function.body):
                line = line_of(function.body, match.start()) + \
                    function.line - 1
                if line in exempt:
                    continue
                sites.append((label, line))
        if sites:
            alloc_sites[function.key] = (function, sites)

    reported = set()
    for root in roots:
        stack = [(root, [repr(root)])]
        visited = {root.key}
        while stack:
            function, chain = stack.pop()
            if function.key in alloc_sites:
                target, sites = alloc_sites[function.key]
                for label, line in sites:
                    if (root.key, target.key, line) in reported:
                        continue
                    reported.add((root.key, target.key, line))
                    via = "" if len(chain) == 1 else \
                        " via " + " -> ".join(chain)
                    out.append(Violation(
                        target.rel, line, "hot-alloc",
                        f"{label} reachable from DFS_HOT "
                        f"{root.cls + '::' if root.cls else ''}"
                        f"{root.name}{via} — the §2e warm path must "
                        f"not allocate (justify with '// DFS_ALLOC_OK: "
                        f"<reason>' if this only grows warm capacity, or "
                        f"mark a sanctioned callee DFS_ALLOC_BOUNDARY)"))
            for targets, _pos, _line in facts.calls[function]:
                for target in targets:
                    if target.key in visited:
                        continue
                    if target.key in boundary_keys:
                        continue
                    visited.add(target.key)
                    stack.append((target, chain + [repr(target)]))


# ---------------------------------------------------------------------------
# Pass 3: determinism dataflow

FP_ACCUM_RE = re.compile(r"\bstd::(accumulate|reduce)\s*\(")
FP_LITERAL_RE = re.compile(r"\b\d+\.\d*f?\b|\b\d+e[-+]?\d+\b|\(double\)"
                           r"|\bdouble\b|\bfloat\b")
COMPOUND_RE = re.compile(r"([A-Za-z_]\w*)\s*[+\-*]=")
SEQ_BUILD_RE = re.compile(
    r"(?:\.|->)\s*(?:push_back|emplace_back)\s*\(")
LOCAL_FP_DECL_RE = r"\b(?:double|float)\s+[\w\s=,.\[\]]*\b{name}\b" \
                   r"|\bauto\s+{name}\s*=\s*\d+\.\d*"


def range_for_loops(function):
    """(container_expr, body_start, body_end, header_end) for every
    range-based for in the body — brace blocks and single statements."""
    body = function.body
    loops = []
    for match in FOR_HEAD_RE.finditer(body):
        # Find the matching close paren of the for-header.
        depth = 1
        pos = match.end()
        while pos < len(body) and depth:
            if body[pos] == "(":
                depth += 1
            elif body[pos] == ")":
                depth -= 1
            pos += 1
        if depth:
            continue
        header = body[match.end():pos - 1]
        # Range-for: a top-level ':' (classic for has top-level ';').
        masked = _mask_parens(header)
        if ";" in masked or ":" not in masked.replace("::", "  "):
            continue
        colon = None
        offset = 0
        while offset < len(masked) - 1:
            if masked[offset] == ":" and masked[offset + 1] != ":" and \
                    (offset == 0 or masked[offset - 1] != ":"):
                colon = offset
                break
            offset += 1
        if colon is None:
            continue
        expr = header[colon + 1:].strip()
        # Body extent: brace block or single statement.
        cursor = pos
        while cursor < len(body) and body[cursor].isspace():
            cursor += 1
        decl = header[:colon].strip()
        if cursor < len(body) and body[cursor] == "{":
            end = len(body)
            for open_pos, close_pos in function.blocks:
                if open_pos == cursor:
                    end = close_pos
                    break
            loops.append((decl, expr, cursor, end, match.start()))
        else:
            end = body.find(";", cursor)
            if end < 0:
                end = len(body)
            loops.append((decl, expr, cursor, end, match.start()))
    return loops


def unordered_locals(function):
    names = set()
    for match in re.finditer(
            r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<",
            function.body):
        tail = function.body[match.end():]
        depth = 1
        pos = 0
        while pos < len(tail) and depth:
            if tail[pos] == "<":
                depth += 1
            elif tail[pos] == ">":
                depth -= 1
            pos += 1
        name = re.match(r"\s*&?\s*([A-Za-z_]\w*)", tail[pos:])
        if name:
            names.add(name.group(1))
    return names


def determinism_pass(facts, out):
    exempt_by_file = {
        (root, rel): exemption_lines(rel, raw, "DFS_UNORDERED_OK",
                                     "unordered-fp-order", out)
        for (root, rel), (raw, _stripped) in facts.files.items()}
    for function in facts.functions:
        exempt = exempt_by_file[function.file]
        local_unordered = unordered_locals(function)
        member_unordered = facts.unordered_members.get(function.cls, set())
        for _decl, expr, body_start, body_end, head_pos in \
                range_for_loops(function):
            tail_name = re.search(r"([A-Za-z_]\w*)\s*(?:\(\s*\))?$", expr)
            if not tail_name:
                continue
            container = tail_name.group(1)
            is_unordered = container in local_unordered or \
                container in member_unordered
            if not is_unordered:
                # obj.member / obj->member containers of a known class
                parts = re.split(r"\.|->", expr)
                if len(parts) >= 2:
                    member = re.sub(r"\W.*$", "", parts[-1].strip())
                    for members in facts.unordered_members.values():
                        if member in members:
                            is_unordered = True
                            break
            if not is_unordered:
                continue
            body = function.body[body_start:body_end]
            line = line_of(function.body, head_pos) + function.line - 1
            if line in exempt:
                continue
            offenses = []
            for compound in COMPOUND_RE.finditer(body):
                name = compound.group(1)
                decl_re = LOCAL_FP_DECL_RE.format(name=re.escape(name))
                if re.search(decl_re, function.body) or \
                        re.search(decl_re, function.header):
                    offenses.append(
                        f"floating-point accumulation into '{name}'")
            for seq in SEQ_BUILD_RE.finditer(body):
                offenses.append("order-dependent sequence building "
                                "(push_back/emplace_back)")
                break
            if offenses:
                out.append(Violation(
                    function.rel, line, "unordered-fp-order",
                    f"iteration over unordered container '{container}' "
                    f"feeds {offenses[0]} — hash-order-dependent results "
                    f"break the §2d determinism contract (iterate a "
                    f"sorted copy, or justify with '// DFS_UNORDERED_OK: "
                    f"<reason>')"))

    for (_root, rel), (_raw, stripped) in facts.files.items():
        if re.match(r"(?:src/)?linalg/kernels", rel):
            continue
        for match in FP_ACCUM_RE.finditer(stripped):
            tail = stripped[match.end():match.end() + 200]
            if not FP_LITERAL_RE.search(tail):
                continue  # integer fold: order-independent
            out.append(Violation(
                rel, line_of(stripped, match.start()), "fp-accumulate",
                f"std::{match.group(1)} over floating-point values — the "
                f"one canonical accumulation order lives in "
                f"src/linalg/kernels* (§2i); spell this reduction as "
                f"an explicit loop"))


# ---------------------------------------------------------------------------
# Driver

def gather_files(roots):
    """[(root, rel, raw)] for every .h/.cc under `roots`, in sorted
    order; rel is relative to its root, which stands in for src/."""
    files = []
    for root in roots:
        for dirpath, dirs, filenames in os.walk(root):
            dirs.sort()
            for filename in sorted(filenames):
                if not filename.endswith((".h", ".cc")):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as handle:
                    files.append((root, rel, handle.read()))
    return files


def run(files, protocol_text):
    violations = []
    documented = set(re.findall(r"[a-z][a-z0-9_.]*\.[a-z0-9_.]+",
                                protocol_text))
    for root, rel, raw in files:
        per_file_rules(root, rel, raw, protocol_text, documented, violations)
    facts = extract(files)
    edges = lock_order_pass(facts, violations)
    hot_alloc_pass(facts, violations)
    determinism_pass(facts, violations)
    return facts, violations, edges


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", default=None,
                        help="tree(s) to analyze (default: src/ and tools/)")
    parser.add_argument("--protocol", default=None,
                        help="PROTOCOL.md for the metric-name rule "
                             "(default: docs/PROTOCOL.md)")
    parser.add_argument("--write-dot", metavar="PATH",
                        help="write the lock-order graph as DOT")
    parser.add_argument("--check-dot", metavar="PATH",
                        help="regenerate the DOT and fail if PATH differs")
    args = parser.parse_args()

    roots = args.root or [os.path.join(REPO, "src"),
                          os.path.join(REPO, "tools")]
    protocol = args.protocol or os.path.join(REPO, "docs", "PROTOCOL.md")
    try:
        with open(protocol, encoding="utf-8") as handle:
            protocol_text = handle.read()
    except OSError:
        protocol_text = ""

    files = gather_files(roots)
    facts, violations, edges = run(files, protocol_text)

    status = 0
    if args.write_dot:
        with open(args.write_dot, "w", encoding="utf-8") as handle:
            handle.write(edges_to_dot(edges))
        print(f"dfs_analyze: wrote {args.write_dot} ({len(edges)} edges)")
    if args.check_dot:
        try:
            with open(args.check_dot, encoding="utf-8") as handle:
                committed = handle.read()
        except OSError:
            committed = None
        if committed != edges_to_dot(edges):
            print(f"dfs_analyze: {args.check_dot} is out of sync with the "
                  f"tree; regenerate with\n  tools/dfs_analyze.py "
                  f"--write-dot {args.check_dot}", file=sys.stderr)
            status = 1

    for violation in violations:
        print(f"dfs_analyze: {violation}", file=sys.stderr)
    if violations:
        print(f"dfs_analyze: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    if status == 0:
        print(f"dfs_analyze: OK ({len(facts.functions)} functions, "
              f"{len(edges)} lock edges, {len(files)} files)")
    return status


if __name__ == "__main__":
    sys.exit(main())
