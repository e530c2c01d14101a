// Facade bundling the four dynamic factors (Fig. 3 of the paper). The
// diffusion engine talks to this class only; the individual factor models
// stay independently testable.
#ifndef IMDPP_PIN_DYNAMICS_H_
#define IMDPP_PIN_DYNAMICS_H_

#include "pin/association_model.h"
#include "pin/influence_model.h"
#include "pin/personal_item_network.h"
#include "pin/preference_model.h"

namespace imdpp::pin {

class Dynamics {
 public:
  Dynamics(const kg::RelevanceModel& relevance, const PerceptionParams& params)
      : params_(params),
        pin_(relevance, params_),
        preference_(pin_),
        influence_(params_),
        association_(params_) {}

  // Non-copyable: internal models hold references into this object.
  Dynamics(const Dynamics&) = delete;
  Dynamics& operator=(const Dynamics&) = delete;

  const PersonalItemNetwork& pin() const { return pin_; }
  const PreferenceModel& preference() const { return preference_; }
  const InfluenceModel& influence() const { return influence_; }
  const AssociationModel& association() const { return association_; }
  const PerceptionParams& params() const { return params_; }
  const kg::RelevanceModel& relevance() const { return pin_.relevance(); }

 private:
  PerceptionParams params_;
  PersonalItemNetwork pin_;
  PreferenceModel preference_;
  InfluenceModel influence_;
  AssociationModel association_;
};

}  // namespace imdpp::pin

#endif  // IMDPP_PIN_DYNAMICS_H_
