// Actuality characteristic: freshness-bounded caching, server timestamps,
// write invalidation, traffic savings.
#include "characteristics/actuality.hpp"

#include <gtest/gtest.h>

#include "characteristics/compression.hpp"
#include "characteristics/encryption.hpp"

#include "core/negotiation.hpp"
#include "net/network.hpp"
#include "support/qos_echo.hpp"

namespace maqs::characteristics {
namespace {

using maqs::testing::EchoStub;
using maqs::testing::QosEchoImpl;

class ActualityTest : public ::testing::Test {
 protected:
  ActualityTest()
      : net_(loop_),
        server_(net_, "server", 9000),
        client_(net_, "client", 9001),
        server_transport_(server_),
        client_transport_(client_) {
    servant_ = std::make_shared<QosEchoImpl>();
    servant_->assign_characteristic(actuality_descriptor());
    orb::QosProfile profile;
    profile.characteristic = actuality_name();
    ref_ = server_.adapter().activate("echo-1", servant_, {profile});
    resources_.declare("cpu", 100.0);
  }

  /// Negotiates Actuality with `value` cacheable and the given bound.
  std::pair<EchoStub, std::shared_ptr<ActualityMediator>> make_cached_stub(
      core::Negotiator& negotiator, std::int32_t max_age_ms) {
    EchoStub stub(client_, ref_);
    negotiator.negotiate(
        stub, actuality_name(),
        {{"max_age_ms", cdr::Any::from_long(max_age_ms)},
         {"cacheable_ops", cdr::Any::from_string("value,echo,blob")}});
    auto composite =
        std::dynamic_pointer_cast<core::CompositeMediator>(stub.mediator());
    auto mediator = std::dynamic_pointer_cast<ActualityMediator>(
        composite->find(actuality_name()));
    return {stub, mediator};
  }

  sim::EventLoop loop_;
  net::Network net_;
  orb::Orb server_;
  orb::Orb client_;
  core::QosTransport server_transport_;
  core::QosTransport client_transport_;
  core::ResourceManager resources_;
  std::shared_ptr<QosEchoImpl> servant_;
  orb::ObjRef ref_;
};

TEST_F(ActualityTest, FreshReadsServedFromCache) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 1000);

  stub.set_value(42);
  EXPECT_EQ(stub.value(), 42);  // miss, fills cache
  const int calls_after_fill = servant_->calls;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(stub.value(), 42);  // hits
  }
  EXPECT_EQ(servant_->calls, calls_after_fill);  // server untouched
  EXPECT_EQ(mediator->cache_hits(), 10u);
}

TEST_F(ActualityTest, StaleEntriesRefetchedAfterBound) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 100);

  stub.set_value(1);
  EXPECT_EQ(stub.value(), 1);
  const int calls_after_fill = servant_->calls;
  loop_.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(stub.value(), 1);  // still fresh
  EXPECT_EQ(servant_->calls, calls_after_fill);
  loop_.run_for(200 * sim::kMillisecond);
  EXPECT_EQ(stub.value(), 1);  // stale -> refetch
  EXPECT_GT(servant_->calls, calls_after_fill);
}

TEST_F(ActualityTest, StalenessNeverExceedsBound) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  const std::int32_t bound_ms = 80;
  auto [stub, mediator] = make_cached_stub(negotiator, bound_ms);
  stub.value();
  for (int i = 0; i < 50; ++i) {
    loop_.run_for(13 * sim::kMillisecond);
    stub.value();
    EXPECT_LE(mediator->last_staleness(), bound_ms * sim::kMillisecond);
  }
}

TEST_F(ActualityTest, WritesInvalidateCache) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 10000);

  stub.set_value(1);
  EXPECT_EQ(stub.value(), 1);
  stub.set_value(2);  // write through the same stub invalidates
  EXPECT_EQ(stub.value(), 2);  // must NOT serve the cached 1
}

TEST_F(ActualityTest, DistinctArgumentsCachedSeparately) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 10000);

  EXPECT_EQ(stub.echo("a"), "a");
  EXPECT_EQ(stub.echo("b"), "b");
  const int calls = servant_->calls;
  EXPECT_EQ(stub.echo("a"), "a");  // hit
  EXPECT_EQ(stub.echo("b"), "b");  // hit
  EXPECT_EQ(servant_->calls, calls);
  EXPECT_EQ(mediator->cache_misses(), 2u);
  EXPECT_EQ(mediator->cache_hits(), 2u);
}

TEST_F(ActualityTest, ServerTimestampsStampedByEpilog) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 1000);
  (void)mediator;
  // Raw request shows the timestamp context entry.
  orb::RequestMessage req;
  req.object_key = "echo-1";
  req.operation = "value";
  orb::ReplyMessage rep = client_.invoke_plain(ref_.endpoint, std::move(req));
  EXPECT_TRUE(rep.context.contains(actuality_timestamp_key()));
}

TEST_F(ActualityTest, CacheHitsSaveTraffic) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 100000);
  stub.value();
  net_.reset_stats();
  for (int i = 0; i < 100; ++i) stub.value();
  EXPECT_EQ(net_.stats().messages_sent, 0u);
}

TEST_F(ActualityTest, QosOperationReportsHits) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 10000);
  stub.value();
  stub.value();
  EXPECT_EQ(mediator->qos_operation("qos_cache_hits", {}).as_longlong(), 1);
}

TEST_F(ActualityTest, RenegotiationClearsCache) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  EchoStub stub(client_, ref_);
  core::Agreement agreement = negotiator.negotiate(
      stub, actuality_name(),
      {{"max_age_ms", cdr::Any::from_long(10000)},
       {"cacheable_ops", cdr::Any::from_string("value")}});
  stub.set_value(9);
  stub.value();
  const int calls = servant_->calls;
  negotiator.renegotiate(stub, agreement,
                         {{"max_age_ms", cdr::Any::from_long(50)},
                          {"cacheable_ops", cdr::Any::from_string("value")}});
  stub.value();  // cache was cleared by rebinding
  EXPECT_GT(servant_->calls, calls);
}

TEST_F(ActualityTest, CacheKeysOnPlaintextUnderCompressionAndEncryption) {
  // The recommended weaving order: the payload transforms sit after the
  // cache, so the request leaves the client sealed under a nonce bound to
  // its request id. The reply must still be filed under the plaintext key.
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  providers.add(make_compression_provider());
  providers.add(make_encryption_psk_provider());
  resources_.declare("bandwidth", 1000.0);
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);

  auto servant = std::make_shared<QosEchoImpl>();
  std::vector<orb::QosProfile> profiles;
  for (const core::CharacteristicDescriptor& d :
       {actuality_descriptor(), compression_descriptor(),
        encryption_descriptor()}) {
    servant->assign_characteristic(d);
    orb::QosProfile profile;
    profile.characteristic = d.name();
    profiles.push_back(profile);
  }
  EchoStub stub(client_,
                server_.adapter().activate("woven", servant, profiles));
  negotiator.negotiate(
      stub, actuality_name(),
      {{"max_age_ms", cdr::Any::from_long(100000)},
       {"cacheable_ops", cdr::Any::from_string("value")}});
  negotiator.negotiate(stub, compression_name(),
                       {{"algorithm", cdr::Any::from_string("lz77")}});
  negotiator.negotiate(stub, encryption_name(),
                       {{"psk", cdr::Any::from_string("actuality-test")}});
  auto composite =
      std::dynamic_pointer_cast<core::CompositeMediator>(stub.mediator());
  ASSERT_EQ(composite->size(), 3u);
  auto cache = std::dynamic_pointer_cast<ActualityMediator>(
      composite->find(actuality_name()));
  ASSERT_NE(cache, nullptr);

  stub.set_value(7);
  EXPECT_EQ(stub.value(), 7);  // miss, fills the cache
  const std::int64_t hits_before =
      cache->qos_operation("qos_cache_hits", {}).as_longlong();
  const int calls_after_fill = servant->calls;
  net_.reset_stats();
  EXPECT_EQ(stub.value(), 7);  // served locally
  EXPECT_EQ(cache->qos_operation("qos_cache_hits", {}).as_longlong(),
            hits_before + 1);
  EXPECT_EQ(net_.stats().messages_sent, 0u);
  EXPECT_EQ(servant->calls, calls_after_fill);

  stub.set_value(8);  // a write invalidates
  EXPECT_EQ(stub.value(), 8);
  EXPECT_EQ(cache->cache_hits(), static_cast<std::uint64_t>(hits_before + 1));
  EXPECT_EQ(stub.value(), 8);  // refilled under the plaintext key
  EXPECT_EQ(cache->cache_hits(), static_cast<std::uint64_t>(hits_before + 2));
}

}  // namespace
}  // namespace maqs::characteristics
