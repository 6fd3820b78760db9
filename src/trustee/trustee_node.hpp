// Trustee node (paper Section III-H). After the election it polls the BB
// subsystem until the cast information is published (majority read), then
// for every ballot submits: ZK response shares for the used part, opening
// shares for the unused part (or both parts when not voted), and finally
// its share of the opening of the homomorphic tally total.
//
// Invalid ballots (per the paper: both parts voted, or more than the
// allowed number of commitments marked voted) are discarded.
#pragma once

#include <optional>
#include <vector>

#include "core/messages.hpp"
#include "sim/runtime.hpp"

namespace ddemos::trustee {

struct TrusteeOptions {
  sim::Duration poll_interval_us = 200'000;
};

class TrusteeNode final : public sim::Process {
 public:
  using Options = TrusteeOptions;

  TrusteeNode(core::TrusteeInit init, std::vector<sim::NodeId> bb_ids,
              Options options = {});

  void on_start() override;
  void on_message(sim::NodeId from, const net::Buffer& payload) override;
  void on_timer(std::uint64_t token) override;

  bool submitted() const { return submitted_; }

 private:
  void poll_bbs();
  void submit_all(BytesView cast_info_payload);

  core::TrusteeInit init_;
  crypto::KeyPair signing_key_;  // pk derived once for every signature
  std::vector<sim::NodeId> bb_ids_;
  Options opt_;
  std::uint64_t poll_timer_ = 0;
  std::uint64_t request_seq_ = 0;  // id of the latest poll
  // Majority read state: each BB's latest cast-info answer, by index in
  // bb_ids_, kept across polls.
  std::vector<std::optional<Bytes>> answers_;
  bool submitted_ = false;
};

}  // namespace ddemos::trustee
