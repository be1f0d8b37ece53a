#include "ml/classifier.h"

#include "ml/decision_tree.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"

namespace dfs::ml {

const char* ModelKindToString(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLogisticRegression:
      return "LR";
    case ModelKind::kNaiveBayes:
      return "NB";
    case ModelKind::kDecisionTree:
      return "DT";
    case ModelKind::kLinearSvm:
      return "SVM";
  }
  return "?";
}

void Classifier::PredictBatch(const linalg::Matrix& x,
                              std::vector<int>* out) const {
  DFS_CHECK(out != nullptr);
  const int n = x.rows();
  out->resize(n);  // DFS_ALLOC_OK: caller-owned capacity, warm after first use
  int* dst = out->data();
  for (int r = 0; r < n; ++r) dst[r] = Predict(x.RowSpan(r));
}

std::vector<int> Classifier::PredictBatch(const linalg::Matrix& x) const {
  std::vector<int> predictions;
  PredictBatch(x, &predictions);
  return predictions;
}

std::unique_ptr<Classifier> CreateClassifier(ModelKind kind,
                                             const Hyperparameters& params) {
  switch (kind) {
    case ModelKind::kLogisticRegression:
      return std::make_unique<LogisticRegression>(params);
    case ModelKind::kNaiveBayes:
      return std::make_unique<GaussianNaiveBayes>(params);
    case ModelKind::kDecisionTree:
      return std::make_unique<DecisionTree>(params);
    case ModelKind::kLinearSvm:
      return std::make_unique<LinearSvm>(params);
  }
  return nullptr;
}

}  // namespace dfs::ml
