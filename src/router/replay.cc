#include "router/replay.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "data/synthetic.h"
#include "obs/trace.h"
#include "util/file.h"
#include "util/logging.h"

namespace dfs::router {
namespace {

std::string FormatProbability(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Extracts the "detail" string value of one flat-JSON trace line. The
/// details the router emits contain no quotes or backslashes, so a
/// backslash-aware scan to the closing quote is exact.
StatusOr<std::string> ExtractDetail(const std::string& line) {
  static const std::string kKey = "\"detail\":\"";
  const size_t pos = line.find(kKey);
  if (pos == std::string::npos) {
    return InvalidArgumentError("trace line has no detail field: " + line);
  }
  std::string out;
  for (size_t i = pos + kKey.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      out.push_back(line[++i]);
      continue;
    }
    if (c == '"') return out;
    out.push_back(c);
  }
  return InvalidArgumentError("unterminated detail field: " + line);
}

StatusOr<uint64_t> ParseU64(const std::string& text) {
  if (text.empty()) return InvalidArgumentError("empty integer field");
  char* end = nullptr;
  const uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return InvalidArgumentError("bad integer field: " + text);
  }
  return value;
}

}  // namespace

StatusOr<fs::StrategyId> StrategyFromIndex(int index) {
  if (index < 0 || index > static_cast<int>(fs::StrategyId::kTpeMrmr)) {
    return InvalidArgumentError("strategy index out of range: " +
                                std::to_string(index));
  }
  return static_cast<fs::StrategyId>(index);
}

std::string DecisionDetail(const RouteDecision& decision) {
  std::ostringstream out;
  out << "seq=" << decision.sequence << " gen=" << decision.generation
      << " fp=" << decision.fingerprint << " seed=" << decision.decision_seed
      << " policy=" << decision.policy
      << " feat=" << (decision.featurized ? 1 : 0)
      << " explored=" << (decision.explored ? 1 : 0)
      << " portfolio=" << (decision.portfolio ? 1 : 0)
      << " chosen=" << static_cast<int>(decision.chosen) << " members=";
  if (decision.members.empty()) {
    out << "-";
  } else {
    for (size_t i = 0; i < decision.members.size(); ++i) {
      if (i > 0) out << ",";
      out << static_cast<int>(decision.members[i]);
    }
  }
  out << " probs=";
  if (decision.probabilities.empty()) {
    out << "-";
  } else {
    for (size_t i = 0; i < decision.probabilities.size(); ++i) {
      if (i > 0) out << ",";
      out << static_cast<int>(decision.probabilities[i].first) << ":"
          << FormatProbability(decision.probabilities[i].second);
    }
  }
  return out.str();
}

StatusOr<TracedDecision> ParseDecisionDetail(const std::string& detail) {
  std::map<std::string, std::string> fields;
  std::istringstream in(detail);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("bad decision detail token: " + token);
    }
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  for (const char* required : {"seq", "gen", "fp", "seed", "feat"}) {
    if (fields.find(required) == fields.end()) {
      return InvalidArgumentError(std::string("decision detail is missing ") +
                                  required + ": " + detail);
    }
  }
  TracedDecision traced;
  DFS_ASSIGN_OR_RETURN(traced.sequence, ParseU64(fields["seq"]));
  DFS_ASSIGN_OR_RETURN(traced.generation, ParseU64(fields["gen"]));
  DFS_ASSIGN_OR_RETURN(traced.fingerprint, ParseU64(fields["fp"]));
  DFS_ASSIGN_OR_RETURN(traced.decision_seed, ParseU64(fields["seed"]));
  traced.featurized = fields["feat"] == "1";
  return traced;
}

StatusOr<ReplayReport> VerifyTrace(const StrategyRouter& router,
                                   const std::string& trace_jsonl) {
  const uint64_t generation = router.Stats().generation;
  ReplayReport report;
  std::istringstream in(trace_jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"span\":\"router.decision\"") == std::string::npos) {
      continue;
    }
    DFS_ASSIGN_OR_RETURN(const std::string detail, ExtractDetail(line));
    DFS_ASSIGN_OR_RETURN(const TracedDecision traced,
                         ParseDecisionDetail(detail));
    if (traced.generation != generation) {
      ++report.skipped;
      continue;
    }
    ++report.checked;
    auto decision = router.ReplayDecision(traced.fingerprint,
                                          traced.decision_seed,
                                          traced.featurized);
    std::string derived;
    if (decision.ok()) {
      // The sequence is history, not state: replay takes it from the trace.
      decision->sequence = traced.sequence;
      derived = DecisionDetail(*decision);
    } else {
      derived = "<" + decision.status().ToString() + ">";
    }
    if (derived != detail) {
      ++report.mismatched;
      if (report.mismatches.size() < 8) {
        report.mismatches.push_back("seq " + std::to_string(traced.sequence) +
                                    "\n  trace:  " + detail +
                                    "\n  replay: " + derived);
      }
    }
  }
  return report;
}

namespace {

Status SelfCheckOnePolicy(const std::string& policy,
                          const std::string& trace_path,
                          const data::Dataset& dataset,
                          const std::string& dataset_name) {
  // Two scenario shapes so the feature cache holds multiple fingerprints.
  constraints::ConstraintSet relaxed;
  relaxed.min_f1 = 0.0;
  relaxed.max_search_seconds = 10.0;
  constraints::ConstraintSet strict;
  strict.min_f1 = 0.2;
  strict.max_search_seconds = 10.0;
  strict.max_feature_fraction = 0.8;

  RouterOptions options;
  options.policy = policy;
  options.policy_options.epsilon = 0.5;
  // Force the low-confidence portfolio path once probabilities exist.
  options.policy_options.confidence_threshold = 0.99;
  options.refit_every = 6;
  options.replay_capacity = 64;
  options.seed = 21;
  options.exploration = {fs::StrategyId::kSfs, fs::StrategyId::kTpeChi2,
                         fs::StrategyId::kSbs};
  // Tiny landmark settings: the self-check exercises plumbing, not model
  // quality.
  options.optimizer_options.landmark_sample_size = 40;
  options.optimizer_options.landmark_folds = 2;

  DFS_RETURN_IF_ERROR(obs::TraceWriter::Open(trace_path));
  std::string snapshot;
  {
    StrategyRouter live(options);

    // Feed outcomes across three strategies (successes favor SFS) so the
    // refit trains a multi-candidate optimizer mid-stream.
    const fs::StrategyId cycle[] = {fs::StrategyId::kSfs,
                                    fs::StrategyId::kTpeChi2,
                                    fs::StrategyId::kSbs};
    for (int i = 0; i < 12; ++i) {
      const RouteDecision decision =
          live.Route(dataset, dataset_name, ml::ModelKind::kLogisticRegression,
                     i % 2 == 0 ? relaxed : strict);
      live.ReportOutcome(decision, cycle[i % 3], i % 3 == 0);
    }
    // Drain the refit pipeline before the snapshot so the tail decisions
    // below share its generation. Triggers coalesce, so wait for one
    // successful refit and then for quiescence rather than counting fires.
    if (live.Stats().outcomes >=
        static_cast<uint64_t>(options.refit_every)) {
      if (!live.WaitForRefits(1, 60.0) || !live.DrainRefits(60.0)) {
        obs::TraceWriter::Close();
        return InternalError("router refit did not complete in time");
      }
    }

    // Tail decisions at the final generation — these are the replayed ones.
    for (int i = 0; i < 8; ++i) {
      (void)live.Route(dataset, dataset_name,
                       ml::ModelKind::kLogisticRegression,
                       i % 2 == 0 ? relaxed : strict);
    }
    DFS_ASSIGN_OR_RETURN(snapshot, live.Serialize());
  }
  obs::TraceWriter::Close();

  DFS_ASSIGN_OR_RETURN(const std::string trace, util::ReadFile(trace_path));

  StrategyRouter restored;
  DFS_RETURN_IF_ERROR(restored.RestoreState(snapshot));
  DFS_ASSIGN_OR_RETURN(const ReplayReport report,
                       VerifyTrace(restored, trace));
  if (report.checked < 8) {
    return InternalError("policy " + policy + ": expected >= 8 replayable "
                         "decisions, checked " +
                         std::to_string(report.checked));
  }
  if (report.mismatched != 0) {
    std::string message = "policy " + policy + ": " +
                          std::to_string(report.mismatched) + "/" +
                          std::to_string(report.checked) +
                          " decisions did not replay byte-identically";
    for (const std::string& diff : report.mismatches) {
      message += "\n" + diff;
    }
    return InternalError(message);
  }
  DFS_LOG(INFO) << "replay self-check: policy " << policy << " checked "
                << report.checked << ", skipped " << report.skipped;
  return OkStatus();
}

}  // namespace

Status ReplaySelfCheck(const std::string& scratch_prefix) {
  data::SyntheticSpec spec;
  spec.name = "replay-selfcheck";
  spec.sensitive_attribute = "Group";
  spec.rows = 80;
  spec.informative_numeric = 3;
  spec.redundant_numeric = 1;
  spec.noise_numeric = 2;
  spec.proxy_features = 1;
  spec.categorical_attributes = 1;
  DFS_ASSIGN_OR_RETURN(const data::Dataset dataset,
                       data::GenerateDataset(spec, 11));

  for (const char* policy : {"static", "confidence", "epsilon-greedy"}) {
    const std::string trace_path =
        scratch_prefix + "." + policy + ".trace.jsonl";
    DFS_RETURN_IF_ERROR(
        SelfCheckOnePolicy(policy, trace_path, dataset, spec.name));
    std::remove(trace_path.c_str());
  }
  return OkStatus();
}

}  // namespace dfs::router
