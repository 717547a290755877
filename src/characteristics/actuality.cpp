#include "characteristics/actuality.hpp"

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"

namespace maqs::characteristics {

const std::string& actuality_name() {
  static const std::string kName = "Actuality";
  return kName;
}

const std::string& actuality_timestamp_key() {
  static const std::string kKey = "qos.timestamp";
  return kKey;
}

core::CharacteristicDescriptor actuality_descriptor() {
  return core::CharacteristicDescriptor(
      actuality_name(), core::QosCategory::kActuality,
      {
          core::ParamDesc{"max_age_ms", cdr::TypeCode::long_tc(),
                          cdr::Any::from_long(100), 0, 1 << 30},
          core::ParamDesc{"cacheable_ops", cdr::TypeCode::string_tc(),
                          cdr::Any::from_string(""), {}, {}},
      },
      {
          core::DimensionDesc{"freshness",
                              {cdr::Any::from_string("tight"),
                               cdr::Any::from_string("normal"),
                               cdr::Any::from_string("loose")},
                              0},
      },
      {
          core::QosOpDesc{"qos_cache_hits", core::QosOpKind::kMechanism},
          core::QosOpDesc{"qos_timestamped", core::QosOpKind::kMechanism},
      });
}

std::int64_t freshness_scale(const std::string& freshness) {
  if (freshness == "normal") return 4;
  if (freshness == "loose") return 16;
  return 1;  // "tight" and anything unknown: serve the bound as agreed
}

// ---- mediator ----

ActualityMediator::ActualityMediator(sim::EventLoop& loop)
    : core::Mediator(actuality_name()), loop_(loop) {}

void ActualityMediator::bind_agreement(const core::Agreement& agreement) {
  core::Mediator::bind_agreement(agreement);
  max_age_ = agreement.int_param_or("max_age_ms", 100) *
             freshness_scale(agreement.string_param_or("freshness", "tight")) *
             sim::kMillisecond;
  cacheable_ops_.clear();
  for (const std::string& op :
       util::split(agreement.string_param_or("cacheable_ops", ""), ',')) {
    if (!op.empty()) cacheable_ops_.insert(op);
  }
  // A renegotiated freshness bound must not resurrect stale entries.
  cache_.clear();
}

bool ActualityMediator::cacheable(const std::string& operation) const {
  return cacheable_ops_.contains(operation);
}

std::string ActualityMediator::cache_key(const orb::RequestMessage& req) {
  return req.operation + "#" +
         std::to_string(util::fnv1a(req.body)) + ":" +
         std::to_string(req.body.size());
}

std::optional<orb::ReplyMessage> ActualityMediator::try_local(
    const orb::RequestMessage& req, const orb::ObjRef& target) {
  (void)target;
  if (!cacheable(req.operation)) return std::nullopt;
  std::string key = cache_key(req);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++misses_;
    note_pending(req.request_id, std::move(key));
    return std::nullopt;
  }
  const sim::Duration age = loop_.now() - it->second.server_timestamp;
  if (age > max_age_) {
    cache_.erase(it);
    ++misses_;
    note_pending(req.request_id, std::move(key));
    return std::nullopt;
  }
  ++hits_;
  last_staleness_ = age;
  orb::ReplyMessage rep = it->second.reply;
  rep.request_id = req.request_id;
  rep.context["qos.cache"] = util::to_bytes("hit");
  return rep;
}

void ActualityMediator::note_pending(std::uint64_t request_id,
                                     std::string key) {
  pending_.insert_or_assign(request_id, std::move(key));
  if (pending_.size() > kMaxPending) pending_.erase(pending_.begin());
}

void ActualityMediator::inbound(const orb::RequestMessage& req,
                                orb::ReplyMessage& rep) {
  if (rep.status != orb::ReplyStatus::kOk) {
    pending_.erase(req.request_id);
    return;
  }
  if (!cacheable(req.operation)) {
    // Writes invalidate: the server state may have changed.
    cache_.clear();
    return;
  }
  // `req` is the request as it left the client, after any later
  // mediator's transforms; the key is the plaintext one try_local() kept.
  auto pending = pending_.find(req.request_id);
  if (pending == pending_.end()) return;
  std::string key = std::move(pending->second);
  pending_.erase(pending);
  auto stamp = rep.context.find(actuality_timestamp_key());
  sim::TimePoint server_time = loop_.now();
  if (stamp != rep.context.end()) {
    cdr::Decoder dec{util::BytesView(stamp->second)};
    server_time = dec.read_i64();
  }
  cache_[std::move(key)] = CacheEntry{rep, server_time};
}

cdr::Any ActualityMediator::qos_operation(const std::string& op,
                                          const std::vector<cdr::Any>& args) {
  if (op == "qos_cache_hits") {
    return cdr::Any::from_longlong(static_cast<std::int64_t>(hits_));
  }
  return core::Mediator::qos_operation(op, args);
}

// ---- server impl ----

ActualityImpl::ActualityImpl(sim::EventLoop& loop)
    : core::QosImpl(actuality_name()), loop_(loop) {}

void ActualityImpl::epilog(orb::ServerContext& ctx) {
  cdr::Encoder enc;
  enc.write_i64(loop_.now());
  ctx.reply_context()[actuality_timestamp_key()] = enc.take();
  ++stamped_;
}

void ActualityImpl::dispatch_qos_op(const std::string& op,
                                    cdr::Decoder& args, cdr::Encoder& out,
                                    orb::ServerContext& ctx) {
  if (op == "qos_timestamped") {
    args.expect_end();
    out.write_i64(static_cast<std::int64_t>(stamped_));
    return;
  }
  core::QosImpl::dispatch_qos_op(op, args, out, ctx);
}

// ---- provider ----

core::CharacteristicProvider make_actuality_provider() {
  core::CharacteristicProvider provider;
  provider.descriptor = actuality_descriptor();
  provider.make_mediator = [](const core::Agreement&, orb::Orb& orb,
                              core::QosTransport&) {
    return std::make_shared<ActualityMediator>(orb.loop());
  };
  provider.make_impl = [](const core::Agreement&, orb::Orb& orb,
                          core::QosTransport&) {
    return std::make_shared<ActualityImpl>(orb.loop());
  };
  provider.resource_demand =
      [](const std::map<std::string, cdr::Any>& params) {
        // Tighter freshness means more server round trips.
        std::string freshness = "tight";
        if (auto it = params.find("freshness"); it != params.end()) {
          freshness = it->second.as_string();
        }
        const double cpu =
            freshness == "loose" ? 1.0 : (freshness == "normal" ? 2.0 : 4.0);
        return core::ResourceDemand{{"cpu", cpu}};
      };
  return provider;
}

}  // namespace maqs::characteristics
