#include "probes.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

const char* const kLayerNames[kLayerCount] = {
    "stub", "front", "client_chain", "wire", "server_chain", "servant"};

}  // namespace

const char* layer_metric(Layer layer) {
  static const char* const kMetrics[kLayerCount] = {
      "orb.stub.self_ns",         "gateway.front.self_ns",
      "orb.client_chain.self_ns", "orb.wire.self_ns",
      "orb.server_chain.self_ns", "orb.servant.self_ns"};
  return kMetrics[static_cast<std::size_t>(layer)];
}

Ledger& Ledger::instance() {
  static Ledger ledger;
  return ledger;
}

void Ledger::begin(Layer base, int group) {
  if (!active_) return;
  in_call_ = true;
  base_ = base;
  group_ = group;
  stamps_.clear();
  t0_ = now_ns();
}

void Ledger::end(std::int64_t call_ns) {
  if (!in_call_) return;
  const std::int64_t t1 = now_ns();
  in_call_ = false;

  std::array<std::int64_t, kLayerCount> self{};
  std::array<bool, kLayerCount> stamped{};
  stack_.clear();
  stack_.push_back(base_);
  std::int64_t last = t0_;
  bool balanced = true;
  for (const Stamp& s : stamps_) {
    self[static_cast<std::size_t>(stack_.back())] += s.t - last;
    last = s.t;
    if (s.push) {
      stack_.push_back(s.layer);
      stamped[static_cast<std::size_t>(s.layer)] = true;
    } else if (stack_.size() > 1 && stack_.back() == s.layer) {
      stack_.pop_back();
    } else {
      balanced = false;
    }
  }
  self[static_cast<std::size_t>(stack_.back())] += t1 - last;
  if (!balanced || stack_.size() != 1) ++unbalanced_;

  const auto seen = [&](Layer l) { return stamped[static_cast<std::size_t>(l)]; };
  const bool reached_wire = seen(Layer::kWire);
  if (!seen(Layer::kClientChain) ||
      (reached_wire && (!seen(Layer::kServerChain) || !seen(Layer::kServant)))) {
    ++unstamped_;
  }

  std::int64_t segments = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    self_[i].record(self[i]);
    segments += self[i];
  }
  ++calls_;
  if (call_ns > 0) {
    gap_sum_ += std::fabs(static_cast<double>(call_ns - segments)) /
                static_cast<double>(call_ns);
  }
  if (retained_.size() < kRetain) {
    retained_.push_back(Retained{group_, t0_, t1, stamps_});
  }
}

double Ledger::median_self_ns(Layer layer) const {
  return self_[static_cast<std::size_t>(layer)].quantile(0.5);
}

bool Ledger::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < retained_.size(); ++i) {
    const Retained& r = retained_[i];
    std::fprintf(f, "{\"call\":%zu,\"group\":%d,\"duration_ns\":%lld,\"stamps\":[",
                 i, r.group, static_cast<long long>(r.t1 - r.t0));
    for (std::size_t j = 0; j < r.stamps.size(); ++j) {
      const Stamp& s = r.stamps[j];
      std::fprintf(f, "%s[%lld,\"%s\",\"%s\"]", j ? "," : "",
                   static_cast<long long>(s.t - r.t0),
                   kLayerNames[static_cast<std::size_t>(s.layer)],
                   s.push ? "enter" : "leave");
    }
    std::fprintf(f, "]}\n");
  }
  return std::fclose(f) == 0;
}

void ProbeSet::attach(maqs::orb::Orb& orb) {
  orb.register_client_interceptor(&client_outer_, kClientOuter);
  orb.register_client_interceptor(&client_inner_, kClientInner);
  orb.register_server_interceptor(&server_outer_, kServerOuter);
  orb.register_server_interceptor(&server_inner_, kServerInner);
}

void ProbeSet::detach(maqs::orb::Orb& orb) {
  orb.unregister_client_interceptor(&client_outer_);
  orb.unregister_client_interceptor(&client_inner_);
  orb.unregister_server_interceptor(&server_outer_);
  orb.unregister_server_interceptor(&server_inner_);
}

}  // namespace perfbench
