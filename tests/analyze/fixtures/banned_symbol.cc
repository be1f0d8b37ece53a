// Lint fixture: every line below must fire [banned-symbol]
// (tests/analyze/dfs_analyze_test.py). Never compiled.
#include <cstdlib>

int AmbientRandom() {
  std::srand(7);
  int a = std::rand();
  std::random_device rd;
  auto wall = std::chrono::system_clock::now();
  long t = time(nullptr);
  long c = clock();
  (void)wall;
  return a + static_cast<int>(rd() + t + c);
}
