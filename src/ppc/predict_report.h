#ifndef PPC_PPC_PREDICT_REPORT_H_
#define PPC_PPC_PREDICT_REPORT_H_

#include "plan/fingerprint.h"

namespace ppc {

/// One served plan prediction: the plan a template's predictor names at a
/// point (kNullPlanId when it abstains), how confident it is, and whether
/// that plan is resident in the shared plan cache. The framework's read
/// path answers with it (PpcFramework::PredictReport), and the wire
/// protocol carries it as it is (wire::Response::Predict), so a batch
/// prediction is written straight into its reply.
struct PredictReport {
  PlanId plan = kNullPlanId;
  double confidence = 0.0;
  bool cache_hit = false;
};

}  // namespace ppc

#endif  // PPC_PPC_PREDICT_REPORT_H_
