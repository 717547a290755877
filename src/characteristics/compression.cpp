#include "characteristics/compression.hpp"

#include <cstring>

#include "compress/lz77.hpp"
#include "orb/dii.hpp"

namespace maqs::characteristics {

namespace {

// Self-framing compressed payload: one marker octet (0 = raw, 1 =
// compressed) followed by the (possibly compressed) stream. Framing at the
// payload level keeps the two integration layers independent — mediator
// and module framing nest without coordination.
constexpr std::uint8_t kRaw = 0x00;
constexpr std::uint8_t kCompressed = 0x01;

std::unique_ptr<compress::Codec> codec_for(const std::string& name,
                                           std::int64_t level) {
  if (name == "lz77") {
    return std::make_unique<compress::Lz77Codec>(static_cast<int>(level));
  }
  return compress::make_codec(name);
}

/// `version` is the frame epoch to bind the codec under: the woven
/// channel version when the stage shares a wire channel with other
/// characteristics, else the agreement's own version.
void configure_from(const core::Agreement& agreement,
                    CompressionTransform& stage, std::int64_t version) {
  stage.set_algorithm(agreement.string_param_or("algorithm", "lz77"),
                      agreement.int_param_or("level", 32), version);
  stage.set_min_size(agreement.int_param_or("min_size", 64));
}

/// Demand at one lattice point: heavier algorithms burn more cpu (probe
/// depth) and more of the server's per-frame processing bandwidth.
core::ResourceDemand compression_demand(
    const std::map<std::string, cdr::Any>& params) {
  const auto algorithm_at = params.find("algorithm");
  const std::string algorithm = algorithm_at != params.end()
                                    ? algorithm_at->second.as_string()
                                    : "lz77";
  const auto level_at = params.find("level");
  const double level =
      level_at != params.end()
          ? static_cast<double>(level_at->second.as_integer())
          : 32.0;
  core::ResourceDemand demand;
  if (algorithm == "none") {
    demand["cpu"] = 1.0;
    demand["bandwidth"] = 4.0;
  } else if (algorithm == "rle") {
    demand["cpu"] = std::min(level, 8.0);
    demand["bandwidth"] = 16.0;
  } else {
    demand["cpu"] = level;
    demand["bandwidth"] = 48.0;
  }
  return demand;
}

}  // namespace

const std::string& compression_name() {
  static const std::string kName = "Compression";
  return kName;
}

const std::string& compression_module_name() {
  static const std::string kName = "compression";
  return kName;
}

core::CharacteristicDescriptor compression_descriptor() {
  return core::CharacteristicDescriptor(
      compression_name(), core::QosCategory::kBandwidth,
      {
          core::ParamDesc{"min_size", cdr::TypeCode::long_tc(),
                          cdr::Any::from_long(64), 0, 1 << 20},
          core::ParamDesc{"level", cdr::TypeCode::long_tc(),
                          cdr::Any::from_long(32), 1, 128},
      },
      {
          core::DimensionDesc{"algorithm",
                              {cdr::Any::from_string("lz77"),
                               cdr::Any::from_string("rle"),
                               cdr::Any::from_string("none")},
                              0},
      },
      {
          core::QosOpDesc{"qos_compression_ratio",
                          core::QosOpKind::kMechanism},
      });
}

// ---- streaming stage ----

CompressionTransform::CompressionTransform() {
  bindings_.push_back(
      VersionedCodec{0, "lz77", std::make_shared<compress::Lz77Codec>()});
}

const std::string& CompressionTransform::label() const {
  return compression_name();
}

const compress::Codec& CompressionTransform::codec() const noexcept {
  return *current().codec;
}

const std::string& CompressionTransform::algorithm() const noexcept {
  return current().algorithm;
}

std::int64_t CompressionTransform::current_version() const noexcept {
  return current().version;
}

const CompressionTransform::VersionedCodec& CompressionTransform::binding_for(
    std::int64_t version) const noexcept {
  if (version >= 0) {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->version == version) return *it;
    }
  }
  return current();
}

void CompressionTransform::set_codec(std::unique_ptr<compress::Codec> codec) {
  if (codec == nullptr) {
    throw compress::CodecError("compression: null codec");
  }
  current().algorithm = codec->name();
  current().codec = std::move(codec);
}

void CompressionTransform::set_algorithm(const std::string& algorithm,
                                         std::int64_t level,
                                         std::int64_t version) {
  std::shared_ptr<compress::Codec> codec;
  if (algorithm == "none") {
    // Passthrough point: every frame ships raw. Keep the previous codec
    // object so compressed frames of older versions still decode.
    codec = current().codec;
  } else {
    codec = codec_for(algorithm, level);
  }
  if (version == current().version) {
    current().algorithm = algorithm;
    current().codec = std::move(codec);
    return;
  }
  bindings_.push_back(VersionedCodec{version, algorithm, std::move(codec)});
  if (bindings_.size() > kMaxRetained) {
    bindings_.erase(bindings_.begin());
  }
}

void CompressionTransform::forward(core::ChainBuf& buf,
                                   const core::TransformContext& ctx) {
  (void)ctx;
  const std::size_t n = buf.size();
  fwd_in_ += n;
  const std::size_t reserve = buf.reserve_front();

  auto ship_raw = [&] {
    std::span<std::uint8_t> region = buf.arena().allocate(reserve + 1 + n);
    region[reserve] = kRaw;
    if (n != 0) std::memcpy(region.data() + reserve + 1, buf.view().data(), n);
    buf.adopt(region, reserve, 1 + n);
  };

  if (current().algorithm == "none" ||
      static_cast<std::int64_t>(n) < min_size_) {
    ship_raw();
    fwd_out_ += buf.size();
    return;
  }
  compress::Codec* codec = current().codec.get();
  const std::size_t bound = codec->max_compressed_size(n);
  if (bound == 0) {
    // Codec without an output bound (or empty input): cold one-shot path.
    const util::Bytes compressed = codec->compress(buf.view());
    if (compressed.size() >= n) {
      ship_raw();
    } else {
      std::span<std::uint8_t> region =
          buf.arena().allocate(reserve + 1 + compressed.size());
      region[reserve] = kCompressed;
      std::memcpy(region.data() + reserve + 1, compressed.data(),
                  compressed.size());
      buf.adopt(region, reserve, 1 + compressed.size());
    }
    fwd_out_ += buf.size();
    return;
  }
  // Hot path: compress directly into the arena region behind the marker.
  // The region is sized to also hold the raw payload so the
  // incompressible fallback needs no second allocation.
  std::span<std::uint8_t> region =
      buf.arena().allocate(reserve + 1 + std::max(bound, n));
  // Any output of n or more octets ships raw, so the codec may stop there.
  const std::size_t written = codec->compress_until(
      buf.view(), {region.data() + reserve + 1, bound}, n);
  if (written >= n) {
    // Incompressible: ship raw (bounded worst case), same decision as the
    // legacy frame() which compared compressed.size() >= payload.size().
    region[reserve] = kRaw;
    std::memcpy(region.data() + reserve + 1, buf.view().data(), n);
    buf.adopt(region, reserve, 1 + n);
  } else {
    region[reserve] = kCompressed;
    buf.adopt(region, reserve, 1 + written);
  }
  fwd_out_ += buf.size();
}

void CompressionTransform::reverse(core::ChainBuf& buf,
                                   const core::TransformContext& ctx) {
  rev_in_ += buf.size();
  if (buf.empty()) {
    throw compress::CodecError("compression: empty framed payload");
  }
  const std::uint8_t marker = buf.view()[0];
  if (marker == kRaw) {
    buf.drop_front(1);
  } else if (marker == kCompressed) {
    // Decode with the codec of the version the frame was sealed under
    // (published by the encryption stage); an agreed algorithm switch
    // must not corrupt frames already in flight.
    const VersionedCodec& binding = binding_for(ctx.frame_version);
    scratch_.clear();
    binding.codec->decompress_append(buf.view().subspan(1), scratch_);
    buf.adopt_bytes(scratch_);
  } else {
    throw compress::CodecError("compression: bad frame marker");
  }
  rev_out_ += buf.size();
}

// ---- application-centered ----

CompressionMediator::CompressionMediator()
    : core::Mediator(compression_name()) {
  chain_.add(&stage_);
}

void CompressionMediator::bind_agreement(const core::Agreement& agreement) {
  core::Mediator::bind_agreement(agreement);
  configure_from(agreement, stage_, effective_version(agreement));
}

void CompressionMediator::outbound(orb::RequestMessage& req,
                                   orb::ObjRef& target) {
  (void)target;
  chain_.run_forward(req.body, {req.request_id, false});
}

void CompressionMediator::inbound(const orb::RequestMessage& req,
                                  orb::ReplyMessage& rep) {
  if (rep.status != orb::ReplyStatus::kOk) return;  // exceptions ship raw
  chain_.run_reverse(rep.body, {req.request_id, true});
}

double CompressionMediator::compression_ratio() const {
  if (stage_.forward_bytes_in() == 0) return 1.0;
  return static_cast<double>(stage_.forward_bytes_out()) /
         static_cast<double>(stage_.forward_bytes_in());
}

cdr::Any CompressionMediator::qos_operation(
    const std::string& op, const std::vector<cdr::Any>& args) {
  if (op == "qos_compression_ratio") {
    return cdr::Any::from_double(compression_ratio());
  }
  return core::Mediator::qos_operation(op, args);
}

CompressionImpl::CompressionImpl() : core::QosImpl(compression_name()) {
  chain_.add(&stage_);
}

void CompressionImpl::bind_agreement(const core::Agreement& agreement) {
  core::QosImpl::bind_agreement(agreement);
  configure_from(agreement, stage_, effective_version(agreement));
}

util::Bytes CompressionImpl::transform_args(util::Bytes args,
                                            orb::ServerContext& ctx) {
  (void)ctx;
  chain_.run_reverse(args, {0, false});
  return args;
}

util::Bytes CompressionImpl::transform_result(util::Bytes result,
                                              orb::ServerContext& ctx) {
  (void)ctx;
  chain_.run_forward(result, {0, true});
  return result;
}

void CompressionImpl::dispatch_qos_op(const std::string& op,
                                      cdr::Decoder& args, cdr::Encoder& out,
                                      orb::ServerContext& ctx) {
  if (op == "qos_compression_ratio") {
    args.expect_end();
    // Server-side ratio: framed bytes in (args direction) vs framed bytes
    // out (result direction), matching the legacy counters.
    const double ratio =
        stage_.reverse_bytes_in() == 0
            ? 1.0
            : static_cast<double>(stage_.forward_bytes_out()) /
                  static_cast<double>(stage_.reverse_bytes_in());
    out.write_f64(ratio);
    return;
  }
  core::QosImpl::dispatch_qos_op(op, args, out, ctx);
}

// ---- network-centered ----

CompressionModule::CompressionModule()
    : core::QosModule(compression_module_name()) {
  chain_.add(&stage_);
}

void CompressionModule::transform_request(orb::RequestMessage& req) {
  chain_.run_forward(req.body, {req.request_id, false});
}

void CompressionModule::restore_request(orb::RequestMessage& req) {
  chain_.run_reverse(req.body, {req.request_id, false});
}

void CompressionModule::transform_reply(const orb::RequestMessage& req,
                                        orb::ReplyMessage& rep) {
  if (rep.status != orb::ReplyStatus::kOk) return;
  chain_.run_forward(rep.body, {req.request_id, true});
}

void CompressionModule::restore_reply(orb::ReplyMessage& rep) {
  if (rep.status != orb::ReplyStatus::kOk) return;
  chain_.run_reverse(rep.body, {rep.request_id, true});
}

cdr::Any CompressionModule::command(const std::string& op,
                                    const std::vector<cdr::Any>& args) {
  if (op == "set_codec") {
    // set_codec(algorithm, level[, version]) — "none" ships raw but keeps
    // the prior codec bound for decoding cross-version frames.
    if (args.size() < 2) {
      throw core::QosError(
          "compression module: set_codec(algorithm, level[, version])");
    }
    const std::int64_t version =
        args.size() > 2 ? args[2].as_integer() : stage_.current_version();
    stage_.set_algorithm(args[0].as_string(), args[1].as_integer(), version);
    return cdr::Any::make_void();
  }
  if (op == "set_min_size") {
    if (args.empty()) {
      throw core::QosError("compression module: set_min_size(n)");
    }
    stage_.set_min_size(args[0].as_integer());
    return cdr::Any::make_void();
  }
  if (op == "info") {
    return cdr::Any::from_string(stage_.algorithm() + "/min=" +
                                 std::to_string(stage_.min_size()));
  }
  return core::QosModule::command(op, args);
}

void register_compression_module() {
  auto& registry = core::ModuleFactoryRegistry::instance();
  if (!registry.contains(compression_module_name())) {
    registry.register_factory(compression_module_name(), [] {
      return std::make_unique<CompressionModule>();
    });
  }
}

core::CharacteristicProvider make_compression_provider() {
  core::CharacteristicProvider provider;
  provider.descriptor = compression_descriptor();
  provider.make_mediator = [](const core::Agreement&, orb::Orb&,
                              core::QosTransport&) {
    return std::make_shared<CompressionMediator>();
  };
  provider.make_impl = [](const core::Agreement&, orb::Orb&,
                          core::QosTransport&) {
    return std::make_shared<CompressionImpl>();
  };
  provider.resource_demand = compression_demand;
  return provider;
}

core::CharacteristicProvider make_compression_module_provider() {
  // Any side holding the provider may have to load the module.
  register_compression_module();
  core::CharacteristicProvider provider;
  provider.descriptor = compression_descriptor();
  provider.module = compression_module_name();
  provider.client_setup = [](const core::Agreement& agreement,
                             const orb::ObjRef& target, orb::Orb& orb,
                             core::QosTransport& transport) {
    register_compression_module();
    const std::vector<cdr::Any> config{
        cdr::Any::from_string(agreement.string_param_or("algorithm", "lz77")),
        cdr::Any::from_longlong(agreement.int_param_or("level", 32)),
        cdr::Any::from_longlong(agreement.version())};
    // Configure both ends of the relationship: the local module directly,
    // the server's via a module command over the wire (Fig. 3).
    transport.load_module(compression_module_name()).command("set_codec",
                                                             config);
    orb::send_command(orb, target.endpoint, compression_module_name(),
                      "set_codec", config);
    const std::vector<cdr::Any> min_size{
        cdr::Any::from_longlong(agreement.int_param_or("min_size", 64))};
    transport.find_module(compression_module_name())
        ->command("set_min_size", min_size);
    orb::send_command(orb, target.endpoint, compression_module_name(),
                      "set_min_size", min_size);
  };
  provider.resource_demand = compression_demand;
  return provider;
}

}  // namespace maqs::characteristics
