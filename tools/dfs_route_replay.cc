// dfs_route_replay — verifies the router's determinism/replay contract.
//
//   dfs_route_replay --trace spans.jsonl --snapshot router.state
//   dfs_route_replay --self-check
//
// Verify mode re-derives every "router.decision" record of a trace file
// (dfs_serverd --trace-out) against a router snapshot (dfs_serverd
// --router-state, saved at shutdown) and byte-compares each re-derived
// record with the traced one (DESIGN.md §2g). Exit codes: 0 = every
// checked decision replayed byte-identically, 1 = at least one mismatch
// (or an I/O / parse error), 2 = nothing to check (no decision in the
// trace matches the snapshot's optimizer generation).
//
// --self-check runs a hermetic end-to-end exercise of the contract (used
// as the router.replay_selfcheck ctest entry): for each policy it routes
// synthetic traffic with the online loop enabled, snapshots, restores, and
// requires byte-identical replay.

#include <unistd.h>

#include <cstdio>
#include <string>

#include "router/replay.h"
#include "router/router.h"
#include "util/file.h"
#include "util/flags.h"

namespace dfs {
namespace {

struct ReplayOptions {
  std::string trace;     // TraceWriter JSONL file
  std::string snapshot;  // router snapshot (StrategyRouter::SaveToFile)
  bool self_check = false;
  bool help = false;
};

int RunVerify(const ReplayOptions& options) {
  router::StrategyRouter router;
  if (Status status = router.LoadFromFile(options.snapshot); !status.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", status.ToString().c_str());
    return 1;
  }
  auto trace = util::ReadFile(options.trace);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace.status().ToString().c_str());
    return 1;
  }

  auto report = router::VerifyTrace(router, *trace);
  if (!report.ok()) {
    std::fprintf(stderr, "verify: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "dfs_route_replay: checked=%llu skipped=%llu mismatched=%llu\n",
      static_cast<unsigned long long>(report->checked),
      static_cast<unsigned long long>(report->skipped),
      static_cast<unsigned long long>(report->mismatched));
  for (const std::string& diff : report->mismatches) {
    std::fprintf(stderr, "mismatch at %s\n", diff.c_str());
  }
  if (report->mismatched > 0) return 1;
  if (report->checked == 0) {
    std::fprintf(stderr,
                 "no replayable decision: every trace record belongs to a "
                 "different optimizer generation than the snapshot\n");
    return 2;
  }
  return 0;
}

int RealMain(int argc, char** argv) {
  ReplayOptions options;
  FlagParser parser(
      "dfs_route_replay — replays routing decisions from a trace against a "
      "router snapshot and verifies byte-identical determinism");
  parser.AddString("trace",
                   "JSONL trace file holding router.decision spans "
                   "(dfs_serverd --trace-out)",
                   &options.trace);
  parser.AddString("snapshot",
                   "router snapshot file (dfs_serverd --router-state)",
                   &options.snapshot);
  parser.AddBool("self-check",
                 "run the hermetic replay self-check instead of verifying "
                 "a trace",
                 &options.self_check);
  parser.AddBool("help", "print usage", &options.help);
  if (Status status = parser.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n\n%s", status.ToString().c_str(),
                 parser.Help().c_str());
    return 1;
  }
  if (options.help) {
    std::fputs(parser.Help().c_str(), stdout);
    return 0;
  }

  if (options.self_check) {
    // getpid() keeps concurrent ctest invocations off each other's files.
    const std::string prefix =
        "dfs_route_replay_selfcheck." + std::to_string(getpid());
    if (Status status = router::ReplaySelfCheck(prefix); !status.ok()) {
      std::fprintf(stderr, "self-check: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("dfs_route_replay --self-check: all policies replayed "
                "byte-identically\n");
    return 0;
  }

  if (options.trace.empty() || options.snapshot.empty()) {
    std::fprintf(stderr,
                 "need --trace and --snapshot (or --self-check)\n\n%s",
                 parser.Help().c_str());
    return 1;
  }
  return RunVerify(options);
}

}  // namespace
}  // namespace dfs

int main(int argc, char** argv) { return dfs::RealMain(argc, argv); }
