// The benchmark's Echo servants, implemented on the qidlc-generated
// skeleton of perf.qidl. The workloads call them through the generated
// EchoStub, so marshalling is the code every QIDL application gets. Each
// operation body stamps the traced run's servant segment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/qos_skeleton.hpp"
#include "perf_gen.hpp"
#include "perf_qidl_source.hpp"
#include "probes.hpp"

namespace perfbench {

using EchoStub = maqs_gen::perf::EchoStub;

class PlainEcho final : public maqs_gen::perf::EchoSkeleton {
 public:
  std::string echo(const std::string& s) override {
    ServantScope app;
    return s;
  }
  std::int32_t add(std::int32_t a, std::int32_t b) override {
    ServantScope app;
    return wrapping_add(a, b);
  }
  void set_value(std::int32_t v) override {
    ServantScope app;
    value_ = v;
  }
  std::int32_t value() override {
    ServantScope app;
    return value_;
  }
  std::vector<std::uint8_t> blob(const std::vector<std::uint8_t>& data) override {
    ServantScope app;
    return data;
  }

 private:
  std::int32_t value_ = 0;
};

/// The same operations behind the QoS skeleton base: the woven dispatch
/// hands each request to the generated skeleton's unmarshalling.
class WovenEcho final : public maqs::core::QosServantBase {
 public:
  const std::string& repo_id() const override { return app_.repo_id(); }

 protected:
  void dispatch_app(const std::string& operation, maqs::cdr::Decoder& args,
                    maqs::cdr::Encoder& out,
                    maqs::orb::ServerContext& ctx) override {
    app_.dispatch(operation, args, out, ctx);
  }

 private:
  PlainEcho app_;
};

}  // namespace perfbench
