#!/usr/bin/env python3
"""Self-test for tools/dfs_analyze.py. ctest runs it twice: lint.selftest
runs PerFileRulesTest, analyze.selftest runs GraphPassesTest; with no
arguments both run.

  1. Every rule fires on its known-bad fixture in tests/analyze/fixtures/
     and on no other fixture. A rule that stops firing silently stopped
     guarding its contract; cross-fire means a rule got too broad. One
     analyzer run over the fixture directory feeds every case.
  2. The real tree (src/, tools/) analyzes clean, the committed
     docs/lock_order.dot matches a fresh regeneration under any hash
     seed, a stale DOT fails with the regenerate hint, and the real lock
     graph covers the serve layer and stays acyclic.
"""

import functools
import os
import re
import subprocess
import sys
import tempfile
import unittest

TESTS_ANALYZE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(TESTS_ANALYZE))
DFS_ANALYZE = os.path.join(REPO, "tools", "dfs_analyze.py")
FIXTURES = os.path.join(TESTS_ANALYZE, "fixtures")
LOCK_ORDER_DOT = os.path.join(REPO, "docs", "lock_order.dot")

# rule -> fixture file(s) it must fire on (at least once on each). The
# include-order fixture's sibling header is a deliberate extra file and
# fires nothing itself.
PER_FILE_RULES = {
    "banned-symbol": ["banned_symbol.cc", "volatile.cc", "thread_local.cc",
                      "quote_literal.cc"],
    "naked-mutex": ["naked_mutex.cc"],
    "header-guard": ["bad_guard.h"],
    "include-order": ["bad_include_order.cc"],
    "dcheck-side-effect": ["bad_dcheck.cc"],
    "metric-name": ["bad_metric.cc"],
    "naked-exemption": ["bad_exemption.cc"],
    "linalg-span": ["linalg/bad_span.h"],
}

# The lock-order cycle reports against the synthetic "(lock graph)"
# location; hot_alloc.cc also carries the deliberate naked DFS_ALLOC_OK
# marker (same rule).
GRAPH_RULES = {
    "lock-order": ["(lock graph)"],
    "hot-alloc": ["hot_alloc.cc"],
    "unordered-fp-order": ["unordered_fp.cc"],
    "fp-accumulate": ["fp_accumulate.cc"],
}

VIOLATION_RE = re.compile(r"^dfs_analyze: (.+?):(\d+): \[([a-z-]+)\]")
DOT_EDGE_RE = re.compile(r'^\s*"([^"]+)"\s*->\s*"([^"]+)"')


@functools.lru_cache(maxsize=None)
def run_analyze(*args, seed="0"):
    return subprocess.run(
        [sys.executable, DFS_ANALYZE, *args],
        capture_output=True, text=True, check=False, cwd=REPO,
        env=dict(os.environ, PYTHONHASHSEED=seed))


def fixture_run():
    return run_analyze("--root", FIXTURES)


def real_tree_run(seed="0"):
    return run_analyze("--check-dot", LOCK_ORDER_DOT, seed=seed)


def fired():
    """(reported file, rule) pairs of the fixture run."""
    matches = map(VIOLATION_RE.match, fixture_run().stderr.splitlines())
    return {(match.group(1), match.group(3)) for match in matches if match}


class RuleHarness:
    RULES = {}

    def test_fixture_run_fails(self):
        self.assertEqual(fixture_run().returncode, 1, fixture_run().stderr)

    def test_each_rule_fires_on_its_fixture(self):
        for rule, fixtures in self.RULES.items():
            for fixture in fixtures:
                with self.subTest(rule=rule, fixture=fixture):
                    self.assertIn(
                        (fixture, rule), fired(),
                        f"rule [{rule}] did not fire on {fixture}; "
                        f"fired={sorted(fired())}")

    def test_no_rule_fires_on_a_foreign_fixture(self):
        allowed = {(fixture, rule) for rule, fixtures in self.RULES.items()
                   for fixture in fixtures}
        mine = {pair for pair in fired() if pair[1] in self.RULES}
        self.assertEqual(mine - allowed, set())

    def test_real_tree_is_clean(self):
        result = real_tree_run()
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)
        self.assertIn("dfs_analyze: OK", result.stdout)


class PerFileRulesTest(RuleHarness, unittest.TestCase):
    RULES = PER_FILE_RULES

    def test_protocol_flag_controls_metric_rule(self):
        # Pointing --protocol at a file that doesn't document the tree's
        # instruments must surface metric-name violations: proves the
        # cross-check really reads the contract it claims to.
        result = run_analyze("--protocol", os.devnull)
        self.assertEqual(result.returncode, 1)
        self.assertIn("[metric-name]", result.stderr)


class GraphPassesTest(RuleHarness, unittest.TestCase):
    RULES = GRAPH_RULES

    def test_lock_cycle_names_both_sites(self):
        # The deliberate Alpha::mu_ <-> Beta::mu_ cycle must be reported
        # as a deadlock with the acquisition site of each hop named, so
        # the report is actionable without re-running the analysis.
        cycle_lines = [line for line in fixture_run().stderr.splitlines()
                       if "[lock-order]" in line]
        self.assertEqual(len(cycle_lines), 1, fixture_run().stderr)
        report = cycle_lines[0]
        self.assertIn("Alpha::mu_", report)
        self.assertIn("Beta::mu_", report)
        self.assertRegex(report, r"lock_cycle_a\.cc:\d+")
        self.assertRegex(report, r"lock_cycle_b\.cc:\d+")

    def test_dot_is_hash_seed_stable(self):
        for seed in ("0", "1"):
            with self.subTest(seed=seed):
                result = real_tree_run(seed)
                self.assertEqual(result.returncode, 0,
                                 result.stdout + result.stderr)

    def test_same_path_under_two_roots_is_analyzed_twice(self):
        # Files are keyed by (root, relative path): an innocuous b/x.cc
        # must not shadow the fp-accumulate violation in a/x.cc.
        with open(os.path.join(FIXTURES, "fp_accumulate.cc"),
                  encoding="utf-8") as handle:
            bad = handle.read()
        innocuous = "namespace fixture {\n\nint Zero() { return 0; }\n\n" \
                    "}  // namespace fixture\n"
        with tempfile.TemporaryDirectory() as scratch:
            roots = []
            for name, source in (("a", bad), ("b", innocuous)):
                root = os.path.join(scratch, name)
                os.mkdir(root)
                with open(os.path.join(root, "x.cc"), "w",
                          encoding="utf-8") as handle:
                    handle.write(source)
                roots += ["--root", root]
            result = run_analyze(*roots)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertRegex(result.stderr, r"x\.cc:\d+: \[fp-accumulate\]")

    def test_stale_dot_fails_with_regenerate_hint(self):
        with open(LOCK_ORDER_DOT, encoding="utf-8") as handle:
            lines = handle.read().splitlines(keepends=True)
        first_edge = next(i for i, line in enumerate(lines)
                          if DOT_EDGE_RE.match(line))
        del lines[first_edge]
        with tempfile.TemporaryDirectory() as scratch:
            stale = os.path.join(scratch, "lock_order.dot")
            with open(stale, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
            result = run_analyze("--check-dot", stale)
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("out of sync", result.stderr)
        self.assertIn(f"--write-dot {stale}", result.stderr)

    def test_real_lock_graph_covers_serve_and_stays_acyclic(self):
        # Regression net for the cross-component path that motivated the
        # pass: the event-loop front end and the server core both feed
        # MetricsRegistry::mu_, and the committed graph must stay acyclic.
        with open(LOCK_ORDER_DOT, encoding="utf-8") as handle:
            dot = handle.read()
        edges = [DOT_EDGE_RE.match(line).groups()
                 for line in dot.splitlines() if DOT_EDGE_RE.match(line)]
        nodes = {n for edge in edges for n in edge}
        self.assertIn("EventLoopFrontEnd::mu_", nodes)
        self.assertIn("MetricsRegistry::mu_", nodes)
        self.assertTrue(any(n.startswith("DfsServer::") for n in nodes))

        graph = {}
        for a, b in edges:
            graph.setdefault(a, set()).add(b)
        WHITE, GREY, BLACK = 0, 1, 2
        color = {}

        def has_cycle(node):
            color[node] = GREY
            for succ in graph.get(node, ()):
                state = color.get(succ, WHITE)
                if state == GREY or (state == WHITE and has_cycle(succ)):
                    return True
            color[node] = BLACK
            return False

        for node in sorted(nodes):
            if color.get(node, WHITE) == WHITE:
                self.assertFalse(has_cycle(node),
                                 f"cycle through {node} in {LOCK_ORDER_DOT}")


if __name__ == "__main__":
    unittest.main()
