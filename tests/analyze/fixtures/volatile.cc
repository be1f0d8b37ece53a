// Known-bad fixture: `volatile` used as a poor man's synchronization
// flag. Never compiled; tests/analyze/dfs_analyze_test.py asserts the
// banned-symbol rule fires here.

namespace fixture {

volatile bool g_stop_requested = false;

void RequestStop() { g_stop_requested = true; }

}  // namespace fixture
