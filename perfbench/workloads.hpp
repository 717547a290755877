// The benchmark workloads and the inputs their replays share.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/bytes.hpp"

namespace perfbench {

enum class Op : std::uint8_t { kAdd, kEcho, kSetValue, kValue, kBlob };
inline constexpr int kOpCount = 5;

/// QoS classes in the scheduler's order (default population classes).
inline constexpr int kGold = 0;
inline constexpr int kSilver = 1;
inline constexpr int kBestEffort = 2;
inline constexpr int kClassCount = 3;
const char* class_name(int cls);

/// One generated request: the operation, its arguments and its class.
struct Call {
  Op op = Op::kAdd;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::string s;
  std::shared_ptr<const maqs::util::Bytes> blob;
  int qos_class = -1;  ///< -1: no class tag
};

/// Text payload with tunable redundancy: `compressibility` in [0,1] is the
/// share of repeated-phrase content; the rest is seeded noise.
maqs::util::Bytes make_payload(std::size_t size, double compressibility,
                               std::uint64_t seed);

/// What a replay needs besides the calls: pending-event depth and queue
/// depth observed on the workload.
struct ReplayContext {
  std::size_t event_depth = 1;
  std::size_t queue_depth = 1;
};

/// Timed replays of the workload's own inputs through each layer's public
/// functions; appends every replay metric.
void run_replays(const std::vector<Call>& calls, const ReplayContext& ctx,
                 std::uint64_t seed, Outcome& out);

void run_rpc_small(const Options& opt, Outcome& out);
void run_woven_rw(const Options& opt, Outcome& out);
void run_gateway_http(const Options& opt, Outcome& out);

}  // namespace perfbench
