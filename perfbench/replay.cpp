// Timed replays of a workload's own generated calls through each layer's
// public functions. Each replay runs whole passes over the inputs for a
// fixed time budget and reports the median pass, per item or per KiB.
#include <cstdio>
#include <span>

#include "cdr/any.hpp"
#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "compress/codec.hpp"
#include "crypto/mac.hpp"
#include "crypto/xtea.hpp"
#include "gateway/http.hpp"
#include "gateway/json.hpp"
#include "gateway/mtom.hpp"
#include "http_frames.hpp"
#include "load/shard.hpp"
#include "load/workload.hpp"
#include "net/network.hpp"
#include "orb/message.hpp"
#include "perf_qidl_source.hpp"
#include "qidl/generated_support.hpp"
#include "qidl/repository.hpp"
#include "sched/wfq.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace maqs;

namespace {

/// Keeps results observable so the timed work is not optimised away.
std::uint64_t g_sink = 0;

/// Runs `pass` (which processes `items` items) for at least kMinPasses
/// passes and kBudgetNs; returns the median nanoseconds per item.
template <typename Pass>
double per_item_ns(double items, Pass&& pass) {
  constexpr int kMinPasses = 5;
  constexpr std::int64_t kBudgetNs = 40'000'000;
  std::vector<double> samples;
  const std::int64_t start = now_ns();
  while (samples.size() < kMinPasses || now_ns() - start < kBudgetNs) {
    const std::int64_t t0 = now_ns();
    pass();
    samples.push_back(static_cast<double>(now_ns() - t0) / items);
  }
  return median(std::move(samples));
}

// Arguments and results are marshalled as the generated Echo stub and
// skeleton marshal them (qidl/generated_support.hpp).
using qidl::gen::read;
using qidl::gen::write;

util::Bytes encode_args(const Call& c) {
  cdr::Encoder enc;
  switch (c.op) {
    case Op::kAdd:
      write(enc, c.a);
      write(enc, c.b);
      break;
    case Op::kEcho:
      write(enc, c.s);
      break;
    case Op::kSetValue:
      write(enc, c.a);
      break;
    case Op::kValue:
      break;
    case Op::kBlob:
      write(enc, *c.blob);
      break;
  }
  return enc.take();
}

void decode_args(const Call& c, util::BytesView body) {
  cdr::Decoder dec(body);
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::string s;
  std::vector<std::uint8_t> data;
  switch (c.op) {
    case Op::kAdd:
      read(dec, a);
      read(dec, b);
      break;
    case Op::kEcho:
      read(dec, s);
      break;
    case Op::kSetValue:
      read(dec, a);
      break;
    case Op::kValue:
      break;
    case Op::kBlob:
      read(dec, data);
      break;
  }
  dec.expect_end();
  g_sink += static_cast<std::uint32_t>(a) + static_cast<std::uint32_t>(b) +
            s.size() + data.size();
}

/// The reply body the servant produces for `c` (value reads back c.a).
util::Bytes encode_result(const Call& c) {
  cdr::Encoder enc;
  switch (c.op) {
    case Op::kAdd:
      write(enc, wrapping_add(c.a, c.b));
      break;
    case Op::kEcho:
      write(enc, c.s);
      break;
    case Op::kSetValue:
      break;
    case Op::kValue:
      write(enc, c.a);
      break;
    case Op::kBlob:
      write(enc, *c.blob);
      break;
  }
  return enc.take();
}

cdr::Any result_any(const Call& c) {
  switch (c.op) {
    case Op::kAdd:
      return cdr::Any::from_long(wrapping_add(c.a, c.b));
    case Op::kEcho:
      return cdr::Any::from_string(c.s);
    case Op::kValue:
      return cdr::Any::from_long(c.a);
    default:
      return cdr::Any::make_void();
  }
}

void replay_cdr_giop(const std::vector<Call>& calls, Outcome& out) {
  const auto n = static_cast<double>(calls.size());
  std::vector<util::Bytes> args;
  std::vector<orb::RequestMessage> requests;
  std::vector<orb::ReplyMessage> replies;
  std::vector<util::Bytes> request_frames;
  std::vector<util::Bytes> reply_frames;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    args.push_back(encode_args(calls[i]));
    orb::RequestMessage req;
    req.request_id = i + 1;
    req.object_key = "echo";
    req.operation = op_name(calls[i].op);
    req.body = args.back();
    request_frames.push_back(req.encode());
    requests.push_back(std::move(req));
    orb::ReplyMessage rep;
    rep.request_id = i + 1;
    rep.body = encode_result(calls[i]);
    reply_frames.push_back(rep.encode());
    replies.push_back(std::move(rep));
  }

  out.add("cdr.encode_ns", per_item_ns(n, [&] {
            for (const Call& c : calls) g_sink += encode_args(c).size();
          }),
          "ns");
  out.add("cdr.decode_ns", per_item_ns(n, [&] {
            for (std::size_t i = 0; i < calls.size(); ++i) {
              decode_args(calls[i], args[i]);
            }
          }),
          "ns");
  out.add("orb.giop.request_encode_ns", per_item_ns(n, [&] {
            for (const auto& req : requests) g_sink += req.encode().size();
          }),
          "ns");
  out.add("orb.giop.request_decode_ns", per_item_ns(n, [&] {
            for (const auto& f : request_frames) {
              g_sink += orb::RequestMessage::decode(f).body.size();
            }
          }),
          "ns");
  out.add("orb.giop.reply_encode_ns", per_item_ns(n, [&] {
            for (const auto& rep : replies) g_sink += rep.encode().size();
          }),
          "ns");
  out.add("orb.giop.reply_decode_ns", per_item_ns(n, [&] {
            for (const auto& f : reply_frames) {
              g_sink += orb::ReplyMessage::decode(f).body.size();
            }
          }),
          "ns");

  // One send and its delivery on a zero-latency link.
  sim::EventLoop loop;
  net::Network network(loop);
  network.set_default_link(net::LinkParams{.latency = 0, .bandwidth_bps = 0});
  const net::Address from{"client", 9001};
  const net::Address to{"server", 9000};
  network.add_node(from.node);
  network.add_node(to.node);
  network.bind(to, [](const net::Address&, const util::Bytes& payload) {
    g_sink += payload.size();
  });
  out.add("net.send_deliver_ns", per_item_ns(n, [&] {
            for (const auto& f : request_frames) {
              network.send(from, to, f);
              loop.run_until_idle();
            }
          }),
          "ns");
  network.unbind(to);
}

/// One event scheduled and run with `depth` other timers pending.
double event_ns(std::size_t depth) {
  sim::EventLoop loop;
  for (std::size_t i = 0; i < depth; ++i) {
    loop.schedule(sim::kSecond * 3600 + static_cast<sim::Duration>(i), [] {});
  }
  constexpr int kEvents = 4096;
  return per_item_ns(kEvents, [&] {
    for (int i = 0; i < kEvents; ++i) {
      loop.schedule(0, [] { ++g_sink; });
      loop.run_for(0);
    }
  });
}

/// Payload bytes the transforms see: blob bodies, or the marshaled
/// arguments where a workload sends no blobs.
std::vector<util::Bytes> payloads(const std::vector<Call>& calls) {
  std::vector<util::Bytes> out;
  for (const Call& c : calls) {
    if (c.op == Op::kBlob) out.push_back(*c.blob);
  }
  if (out.empty()) {
    for (const Call& c : calls) out.push_back(encode_args(c));
  }
  return out;
}

void replay_codecs(const std::vector<util::Bytes>& inputs, Outcome& out) {
  std::size_t total = 0;
  for (const auto& p : inputs) total += p.size();
  const double kib = static_cast<double>(total) / 1024.0;

  for (const char* name : {"lz77", "rle"}) {
    const std::unique_ptr<compress::Codec> codec = compress::make_codec(name);
    std::vector<util::Bytes> compressed;
    std::size_t compressed_total = 0;
    for (const auto& p : inputs) {
      compressed.push_back(codec->compress(p));
      compressed_total += compressed.back().size();
    }
    util::Bytes scratch;
    const std::string prefix = std::string("compress.") + name;
    out.add(prefix + ".compress_ns_per_kib", per_item_ns(kib, [&] {
              for (const auto& p : inputs) {
                const std::size_t bound = codec->max_compressed_size(p.size());
                if (bound == 0) {
                  g_sink += codec->compress(p).size();
                  continue;
                }
                scratch.resize(bound);
                g_sink += codec->compress_into(p, std::span(scratch));
              }
            }),
            "ns/KiB");
    out.add(prefix + ".decompress_ns_per_kib", per_item_ns(kib, [&] {
              for (const auto& c : compressed) {
                scratch.clear();
                codec->decompress_append(c, scratch);
                g_sink += scratch.size();
              }
            }),
            "ns/KiB");
    out.add(prefix + ".ratio",
            static_cast<double>(compressed_total) / static_cast<double>(total),
            "ratio");
  }

  const crypto::Key128 key = crypto::derive_key(util::to_bytes("perfbench-psk"));
  std::vector<util::Bytes> work = inputs;
  out.add("crypto.xtea_ctr_ns_per_kib", per_item_ns(kib, [&] {
            std::uint64_t nonce = 0;
            for (auto& p : work) {
              crypto::XteaCtr(key, ++nonce).apply_in_place(std::span(p));
            }
          }),
          "ns/KiB");
  out.add("crypto.mac64_ns_per_kib", per_item_ns(kib, [&] {
            for (const auto& p : inputs) g_sink += crypto::mac64(0x5eed, p);
          }),
          "ns/KiB");
}

void replay_gateway(const std::vector<Call>& calls, Outcome& out) {
  const qidl::InterfaceRepository repo =
      qidl::InterfaceRepository::build(qidl::analyze(kEchoQidl));
  const qidl::InterfaceEntry* echo = repo.find_interface("Echo");

  std::vector<util::Bytes> frames;
  std::vector<std::string> json_docs;  // argument documents (blob: root)
  std::vector<const qidl::OperationSignature*> json_ops;
  std::vector<const Call*> json_calls;
  std::vector<util::Bytes> multipart_bodies;
  for (const Call& c : calls) {
    frames.push_back(http_request_frame(c));
    if (c.op == Op::kBlob) continue;
    json_docs.push_back(json_args(c));
    json_ops.push_back(echo->find_operation(op_name(c.op)));
    json_calls.push_back(&c);
  }
  // MTOM containers: the blobs, or the marshaled arguments as parts where
  // a workload sends no blobs.
  const std::string boundary = "perfbench-part";
  for (const util::Bytes& p : payloads(calls)) {
    gateway::MultipartBuilder multipart(boundary);
    multipart.add_json_root("{\"data\":{\"$blob\":\"cid:b0\"}}");
    multipart.add_blob_part("b0", p);
    multipart_bodies.push_back(multipart.finish());
  }

  const auto n = static_cast<double>(calls.size());
  out.add("gateway.http_parse_ns", per_item_ns(n, [&] {
            gateway::HttpParser parser;
            gateway::HttpRequest req;
            for (const auto& f : frames) {
              parser.feed(f);
              if (parser.poll(req) == gateway::HttpParser::Result::kRequest) {
                g_sink += req.body.size();
              }
            }
          }),
          "ns");

  const auto nj = static_cast<double>(std::max<std::size_t>(1, json_docs.size()));
  std::vector<gateway::JsonValue> parsed;
  for (const auto& doc : json_docs) parsed.push_back(gateway::parse_json(doc));
  out.add("gateway.json_parse_ns", per_item_ns(nj, [&] {
            for (const auto& doc : json_docs) {
              g_sink += gateway::parse_json(doc).is_object() ? 1 : 0;
            }
          }),
          "ns");
  out.add("gateway.json_to_any_ns", per_item_ns(nj, [&] {
            for (std::size_t i = 0; i < parsed.size(); ++i) {
              for (const auto& [name, type] : json_ops[i]->params) {
                const gateway::JsonValue* v = parsed[i].find(name);
                if (v != nullptr) {
                  g_sink += static_cast<std::uint64_t>(
                      gateway::json_to_any(*v, type).kind());
                }
              }
            }
          }),
          "ns");
  std::vector<cdr::Any> results;
  for (const Call* c : json_calls) results.push_back(result_any(*c));
  out.add("gateway.any_to_json_ns", per_item_ns(nj, [&] {
            for (const cdr::Any& a : results) {
              g_sink += gateway::write_json(gateway::any_to_json(a)).size();
            }
          }),
          "ns");
  out.add("gateway.mtom_parse_ns",
          per_item_ns(static_cast<double>(multipart_bodies.size()), [&] {
            for (const auto& body : multipart_bodies) {
              const auto container =
                  gateway::parse_multipart_related(body, boundary);
              g_sink += container.has_value() ? container->parts.size() : 0;
            }
          }),
          "ns");
  std::vector<gateway::HttpResponse> responses;
  for (const Call* c : json_calls) {
    gateway::HttpResponse resp;
    resp.set_header("content-type", "application/json");
    const std::string body = expected_json_body(*c);
    resp.body.assign(body.begin(), body.end());
    responses.push_back(std::move(resp));
  }
  out.add("gateway.response_encode_ns", per_item_ns(nj, [&] {
            for (const auto& resp : responses) g_sink += resp.encode().size();
          }),
          "ns");
}

void replay_sched_load(const std::vector<Call>& calls,
                       const ReplayContext& ctx, std::uint64_t seed,
                       Outcome& out) {
  std::vector<double> weights;
  for (const sched::ClassConfig& cls : load::default_classes()) {
    weights.push_back(cls.weight);
  }
  sched::WeightedFairQueue<std::uint64_t> queue(weights);
  const auto class_of = [&](std::size_t i) {
    const int cls = calls[i % calls.size()].qos_class;
    return static_cast<std::size_t>(cls < 0 ? kBestEffort : cls);
  };
  for (std::size_t i = 0; i < ctx.queue_depth; ++i) {
    queue.push(class_of(i), static_cast<sim::TimePoint>(i), i);
  }
  const auto n = static_cast<double>(calls.size());
  out.add("sched.wfq_push_pop_ns", per_item_ns(n, [&] {
            for (std::size_t i = 0; i < calls.size(); ++i) {
              queue.push(class_of(i), static_cast<sim::TimePoint>(i), i);
              g_sink += queue.pop().payload;
            }
          }),
          "ns");

  const std::vector<load::TenantSpec> tenants = load::default_tenants();
  util::Rng rng(seed);
  out.add("load.sample_ns", per_item_ns(n, [&] {
            for (std::size_t i = 0; i < calls.size(); ++i) {
              const load::TenantSpec& t = tenants[i % tenants.size()];
              g_sink += static_cast<std::uint64_t>(load::sample_op(t, rng));
              g_sink += static_cast<std::uint64_t>(t.think.sample(rng));
            }
          }),
          "ns");
}

}  // namespace

void run_replays(const std::vector<Call>& calls, const ReplayContext& ctx,
                 std::uint64_t seed, Outcome& out) {
  replay_cdr_giop(calls, out);
  out.add("sim.event_ns.shallow", event_ns(0), "ns");
  out.add("sim.event_ns.deep", event_ns(ctx.event_depth), "ns");
  replay_codecs(payloads(calls), out);
  replay_gateway(calls, out);
  replay_sched_load(calls, ctx, seed, out);
  // Printing the sink keeps every replayed result observable.
  std::printf("# replay sink %llu\n", static_cast<unsigned long long>(g_sink));
}

}  // namespace perfbench
