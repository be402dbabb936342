// The transport layer: Mailbox backpressure primitives, wire framing
// robustness (truncation, corruption, reassembly), the InProc/Tcp Transport
// implementations, and the end-to-end check that a CcmCluster split across
// three TCP transports computes byte-identical storage to the in-process
// runtime. Frame-corruption tests assert the failure contract: malformed
// input poisons the stream (drop the connection) and never crashes or
// delivers a partial message.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ccm/cluster.hpp"
#include "ccm/directory_client.hpp"
#include "ccm/remote_storage.hpp"
#include "ccm/storage.hpp"
#include "net/frame.hpp"
#include "net/mailbox.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"
#include "proto/dir_batch.hpp"
#include "sim/random.hpp"

namespace coop {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------- Mailbox ----

TEST(Mailbox, TrySendFailsWhenFullThenRecoversAfterDrain) {
  net::Mailbox<int> mb(2);
  EXPECT_TRUE(mb.try_send(1));
  EXPECT_TRUE(mb.try_send(2));
  EXPECT_FALSE(mb.try_send(3));  // full: dropped, not blocked
  EXPECT_EQ(mb.receive(), 1);
  EXPECT_TRUE(mb.try_send(4));
  mb.close();
  EXPECT_FALSE(mb.try_send(5));  // closed: dropped
}

TEST(Mailbox, SendForTimesOutAgainstAFullMailbox) {
  net::Mailbox<int> mb(1);
  ASSERT_TRUE(mb.try_send(1));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(mb.send_for(2, 30ms));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);
}

TEST(Mailbox, SendForSucceedsOnceAConsumerMakesRoom) {
  net::Mailbox<int> mb(1);
  ASSERT_TRUE(mb.try_send(1));
  std::thread consumer([&] {
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(mb.receive(), 1);
  });
  EXPECT_TRUE(mb.send_for(2, 5s));  // unblocks well before the deadline
  consumer.join();
  EXPECT_EQ(mb.receive(), 2);
}

TEST(Mailbox, ReceiveForTimesOutEmptyAndDeliversWhenFed) {
  net::Mailbox<int> mb;
  EXPECT_EQ(mb.receive_for(20ms), std::nullopt);
  ASSERT_TRUE(mb.try_send(7));
  EXPECT_EQ(mb.receive_for(20ms), 7);
  mb.close();
  EXPECT_EQ(mb.receive_for(20ms), std::nullopt);  // closed and drained
}

// ------------------------------------------------------------- framing ----

net::Envelope make_envelope(std::uint64_t seq, std::size_t payload = 0) {
  net::Envelope env;
  env.msg = proto::Message::barrier(/*from=*/1, /*home=*/0, /*phase=*/3);
  env.seq = seq;
  env.epoch = 42;
  if (payload > 0) {
    std::vector<std::byte> bytes(payload);
    for (std::size_t i = 0; i < payload; ++i) {
      bytes[i] = static_cast<std::byte>(i & 0xFF);
    }
    env.data = net::make_ready_block(std::move(bytes));
  }
  return env;
}

TEST(Frame, HandshakeRoundtripAndRejection) {
  const auto hs = net::encode_handshake(5);
  ASSERT_EQ(hs.size(), net::kHandshakeSize);
  const auto peer = net::decode_handshake(hs);
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(*peer, 5);

  auto bad_magic = hs;
  bad_magic[0] = std::byte{0xFF};
  EXPECT_FALSE(net::decode_handshake(bad_magic).has_value());

  auto bad_version = hs;
  bad_version[4] = std::byte{0xEE};
  EXPECT_FALSE(net::decode_handshake(bad_version).has_value());
}

TEST(Frame, RoundtripWithAndWithoutPayload) {
  net::FrameReader reader;
  const auto a = net::encode_frame(make_envelope(9), 1234, true);
  const auto b = net::encode_frame(make_envelope(10, 96), proto::kNoAge,
                                   false);
  ASSERT_TRUE(reader.feed(a));
  ASSERT_TRUE(reader.feed(b));

  auto fa = reader.next();
  ASSERT_TRUE(fa.has_value());
  EXPECT_EQ(fa->env.msg.kind, proto::MsgKind::kBarrier);
  EXPECT_EQ(fa->env.msg.from, 1);
  EXPECT_EQ(fa->env.msg.count, 3u);
  EXPECT_EQ(fa->env.seq, 9u);
  EXPECT_EQ(fa->env.epoch, 42u);
  EXPECT_EQ(fa->env.data, nullptr);
  EXPECT_EQ(fa->sender_age, 1234u);
  EXPECT_TRUE(fa->sender_full);

  auto fb = reader.next();
  ASSERT_TRUE(fb.has_value());
  ASSERT_NE(fb->env.data, nullptr);
  EXPECT_TRUE(fb->env.data->is_ready());  // wire decodes are always ready
  ASSERT_EQ(fb->env.data->bytes.size(), 96u);
  EXPECT_EQ(fb->env.data->bytes[95], std::byte{95});
  EXPECT_EQ(fb->sender_age, proto::kNoAge);
  EXPECT_FALSE(fb->sender_full);

  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.poisoned());
}

TEST(Frame, ReassemblesAcrossArbitraryReadBoundaries) {
  std::vector<std::byte> stream;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    const auto f =
        net::encode_frame(make_envelope(s, (s % 2) ? 33 : 0), s * 10, false);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  // Every chunk size from pathological (1 byte) past the header size.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}}) {
    net::FrameReader reader;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      ASSERT_TRUE(reader.feed({stream.data() + off, n}));
    }
    for (std::uint64_t s = 1; s <= 6; ++s) {
      auto f = reader.next();
      ASSERT_TRUE(f.has_value()) << "chunk=" << chunk << " frame=" << s;
      EXPECT_EQ(f->env.seq, s);
      EXPECT_EQ(f->sender_age, s * 10);
    }
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(Frame, TruncatedFrameIsHeldNotDelivered) {
  const auto f = net::encode_frame(make_envelope(1, 50), 0, false);
  net::FrameReader reader;
  ASSERT_TRUE(reader.feed({f.data(), f.size() - 10}));
  EXPECT_FALSE(reader.next().has_value());  // no partial delivery
  EXPECT_FALSE(reader.poisoned());          // just incomplete, not malformed
  EXPECT_GT(reader.buffered(), 0u);
  ASSERT_TRUE(reader.feed({f.data() + f.size() - 10, 10}));
  EXPECT_TRUE(reader.next().has_value());
}

TEST(Frame, CorruptLengthPrefixPoisons) {
  // Too-short length: below the fixed header size.
  {
    auto f = net::encode_frame(make_envelope(1), 0, false);
    f[0] = std::byte{1};
    f[1] = f[2] = f[3] = std::byte{0};
    net::FrameReader reader;
    EXPECT_FALSE(reader.feed(f));
    EXPECT_TRUE(reader.poisoned());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_FALSE(reader.feed(f));  // stays poisoned
  }
  // Absurd length: past the frame ceiling.
  {
    auto f = net::encode_frame(make_envelope(1), 0, false);
    f[0] = f[1] = f[2] = f[3] = std::byte{0xFF};
    net::FrameReader reader(/*max_frame_bytes=*/1 << 16);
    EXPECT_FALSE(reader.feed(f));
    EXPECT_TRUE(reader.poisoned());
    EXPECT_FALSE(reader.next().has_value());
  }
}

TEST(Frame, PayloadLengthDisagreementPoisons) {
  auto f = net::encode_frame(make_envelope(1, 16), 0, false);
  // payload_len lives at the end of the fixed header: after the u32 length
  // prefix, flags/age/seq/epoch and the proto message.
  const std::size_t payload_len_off = 4 + net::kFrameFixedSize - 4;
  f[payload_len_off] ^= std::byte{0x01};
  net::FrameReader reader;
  EXPECT_FALSE(reader.feed(f));
  EXPECT_TRUE(reader.poisoned());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Frame, GarbageMessageBytesPoisonWithoutDroppingEarlierFrames) {
  const auto good = net::encode_frame(make_envelope(1), 0, false);
  auto bad = net::encode_frame(make_envelope(2), 0, false);
  for (std::size_t i = 4 + 25; i < 4 + 25 + proto::kWireSize; ++i) {
    bad[i] = std::byte{0xFF};  // trash the proto message bytes
  }
  std::vector<std::byte> stream(good.begin(), good.end());
  stream.insert(stream.end(), bad.begin(), bad.end());
  net::FrameReader reader;
  EXPECT_FALSE(reader.feed(stream));
  // The valid frame ahead of the corruption still comes out; nothing after.
  auto f = reader.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->env.seq, 1u);
  EXPECT_TRUE(reader.poisoned());
  EXPECT_FALSE(reader.next().has_value());
}

/// A kDirBatchRequest envelope whose payload is a real encoded batch, the
/// way RemoteDirectory ships one.
net::Envelope make_batch_envelope(std::uint64_t seq, std::size_t items_n) {
  std::vector<proto::DirBatchItem> items;
  for (std::size_t i = 0; i < items_n; ++i) {
    items.push_back({static_cast<proto::DirBatchOp>(i %
                         proto::kDirBatchOpCount),
                     {static_cast<cache::FileId>(i / 4),
                      static_cast<std::uint32_t>(i % 4)},
                     0});
  }
  auto payload = proto::encode_dir_batch_request(2, items);
  net::Envelope env;
  env.msg = proto::Message::dir_batch_request(
      2, 0, static_cast<std::uint32_t>(items.size()), payload.size());
  env.seq = seq;
  env.epoch = 42;
  env.data = net::make_ready_block(std::move(payload));
  return env;
}

TEST(Frame, DirBatchPayloadSurvivesFraming) {
  net::FrameReader reader;
  ASSERT_TRUE(reader.feed(net::encode_frame(make_batch_envelope(5, 9), 0,
                                            false)));
  auto f = reader.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->env.msg.kind, proto::MsgKind::kDirBatchRequest);
  ASSERT_NE(f->env.data, nullptr);
  const auto req = proto::decode_dir_batch_request(f->env.data->bytes);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->node, 2);
  ASSERT_EQ(req->items.size(), 9u);
  EXPECT_EQ(req->items[3].op, proto::DirBatchOp::kValidate);
  EXPECT_EQ(req->items[5].block.file, 1u);
}

// Deterministic seeded fuzz of the reassembler: whatever arrives — bit
// flips, truncation, duplicated chunks, spliced garbage, arbitrary slice
// boundaries — the reader either delivers well-formed frames or poisons the
// stream. It never crashes, never loops, and never delivers past a poison.
// Dir-batch frames ride in the mix: whenever one survives reassembly, its
// payload goes through the strict batch decoder, which must reject or parse
// — never crash — whatever the mutations left behind.
TEST(Frame, SeededFuzzPoisonsButNeverCrashes) {
  sim::Rng rng(20260808);
  std::size_t poisoned_streams = 0;
  std::size_t delivered_frames = 0;
  std::size_t decoded_batches = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::byte> stream;
    const std::size_t frames = 1 + rng.uniform_int(4);
    for (std::size_t i = 0; i < frames; ++i) {
      net::Envelope env;
      if (rng.uniform_int(3) == 0) {
        env = make_batch_envelope(i + 1, 1 + rng.uniform_int(12));
      } else {
        const std::size_t payload =
            rng.uniform_int(3) == 0 ? 1 + rng.uniform_int(64) : 0;
        env = make_envelope(i + 1, payload);
      }
      const auto f = net::encode_frame(env, rng.uniform_int(1000),
                                       rng.uniform_int(2) == 1);
      stream.insert(stream.end(), f.begin(), f.end());
    }
    switch (rng.uniform_int(4)) {
      case 0:  // flip a few bytes anywhere (headers included)
        for (int k = 0; k < 3; ++k) {
          stream[rng.uniform_int(stream.size())] ^=
              static_cast<std::byte>(1 + rng.uniform_int(255));
        }
        break;
      case 1:  // truncate mid-frame
        stream.resize(1 + rng.uniform_int(stream.size()));
        break;
      case 2: {  // duplicate a chunk in place
        const std::size_t at = rng.uniform_int(stream.size());
        const std::size_t len =
            std::min(stream.size() - at,
                     static_cast<std::size_t>(1 + rng.uniform_int(40)));
        const std::vector<std::byte> chunk(
            stream.begin() + static_cast<std::ptrdiff_t>(at),
            stream.begin() + static_cast<std::ptrdiff_t>(at + len));
        stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at),
                      chunk.begin(), chunk.end());
        break;
      }
      default: {  // splice garbage bytes
        std::vector<std::byte> junk(1 + rng.uniform_int(64));
        for (auto& b : junk) {
          b = static_cast<std::byte>(rng.uniform_int(256));
        }
        const std::size_t at = rng.uniform_int(stream.size() + 1);
        stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at),
                      junk.begin(), junk.end());
        break;
      }
    }
    net::FrameReader reader;
    std::size_t off = 0;
    bool ok = true;
    while (off < stream.size() && ok) {
      const std::size_t n =
          std::min(stream.size() - off,
                   static_cast<std::size_t>(1 + rng.uniform_int(48)));
      ok = reader.feed(std::span<const std::byte>(stream).subspan(off, n));
      off += n;
      while (auto f = reader.next()) {
        ++delivered_frames;
        if (f->env.msg.kind == proto::MsgKind::kDirBatchRequest &&
            f->env.data != nullptr) {
          // Strict payload decode under fuzz: nullopt or a parse whose item
          // count matches its own header — never a crash or over-read.
          if (const auto req =
                  proto::decode_dir_batch_request(f->env.data->bytes)) {
            ++decoded_batches;
            EXPECT_LE(req->items.size(), proto::kDirBatchMaxItems);
          }
        }
      }
    }
    if (reader.poisoned()) {
      ++poisoned_streams;
      EXPECT_FALSE(reader.feed(stream));          // stays poisoned
      EXPECT_FALSE(reader.next().has_value());    // delivers nothing more
    }
  }
  // The sweep must exercise both outcomes, or it is not testing anything —
  // and some batch payloads must survive intact to prove the decode ran.
  EXPECT_GT(poisoned_streams, 0u);
  EXPECT_GT(delivered_frames, 0u);
  EXPECT_GT(decoded_batches, 0u);
}

// ---------------------------------------------------------- transports ----

/// Serves `transport`'s inbound queue, answering kBarrier with a granted
/// barrier_reply (echoing seq), until the transport closes.
void echo_server(net::Transport& transport, cache::NodeId node) {
  while (auto env = transport.receive(node)) {
    net::Envelope out;
    out.msg = proto::Message::barrier_reply(node, env->msg.from,
                                            env->msg.count, true);
    out.seq = env->seq;
    out.data = env->data;  // bounce any payload back
    transport.post(std::move(out));
  }
}

TEST(InProcTransport, CallRoundtripAndStats) {
  net::InProcTransport t(2);
  std::thread server([&] { echo_server(t, 1); });
  net::Envelope req;
  req.msg = proto::Message::barrier(0, 1, 7);
  const net::Envelope reply = t.call(std::move(req));
  EXPECT_EQ(reply.msg.kind, proto::MsgKind::kBarrierReply);
  EXPECT_EQ(reply.msg.count, 7u);
  EXPECT_EQ(t.stats().rpcs, 1u);
  t.close();
  server.join();
}

// ------------------------------------------------------ inline serving ----

/// A served handler answering kBarrier with a granted barrier_reply (count
/// echoed, plus `bump`), counting its runs and recording the thread of the
/// last one.
struct EchoHandler {
  cache::NodeId node;
  std::uint32_t bump = 0;
  std::atomic<int> runs{0};
  std::atomic<std::thread::id> ran_on{};

  net::Transport::Handler handler() {
    return [this](net::Envelope& req) {
      runs.fetch_add(1);
      ran_on.store(std::this_thread::get_id());
      net::Envelope out;
      out.msg = proto::Message::barrier_reply(node, req.msg.from,
                                              req.msg.count + bump, true);
      return out;
    };
  }
};

net::Envelope barrier_request(cache::NodeId from, cache::NodeId to,
                              std::uint32_t phase) {
  net::Envelope env;
  env.msg = proto::Message::barrier(from, to, phase);
  return env;
}

TEST(InProcTransport, ServedHandlerRunsOnTheCallersThread) {
  EchoHandler echo{1};  // outlives the transport that calls it
  net::InProcTransport t(2);
  t.serve(1, echo.handler());
  const net::Envelope reply = t.call(barrier_request(0, 1, 7));
  EXPECT_EQ(reply.msg.kind, proto::MsgKind::kBarrierReply);
  EXPECT_EQ(reply.msg.count, 7u);
  EXPECT_EQ(echo.ran_on.load(), std::this_thread::get_id());
  // A one-way post runs the handler inline too: it has run when post()
  // returns.
  ASSERT_TRUE(t.post(barrier_request(0, 1, 8)));
  EXPECT_EQ(echo.runs.load(), 2);
  // A served node has no queue to pull from, and is served once.
  EXPECT_THROW((void)t.receive(1), std::logic_error);
  EXPECT_THROW(t.serve(1, echo.handler()), std::logic_error);
  t.close();
}

TEST(InProcTransport, HandlersNestedCallCompletes) {
  // Node 1's handler asks node 0 before answering, on the same thread.
  EchoHandler inner{0, /*bump=*/10};
  net::InProcTransport t(2);
  t.serve(0, inner.handler());
  t.serve(1, [&](net::Envelope& req) {
    net::Envelope out = t.call(barrier_request(1, 0, req.msg.count));
    out.msg.to = req.msg.from;
    return out;
  });
  const net::Envelope reply = t.call(barrier_request(0, 1, 5));
  EXPECT_EQ(reply.msg.count, 15u);
  EXPECT_EQ(inner.ran_on.load(), std::this_thread::get_id());
  EXPECT_EQ(t.stats().rpcs, 2u);
  t.close();
}

TEST(InProcTransport, CallAfterCloseThrowsShutdown) {
  EchoHandler echo{1};
  net::InProcTransport t(2);
  t.serve(1, echo.handler());
  t.close();
  try {
    (void)t.call(barrier_request(0, 1, 1));
    ADD_FAILURE() << "a call into a closed transport must throw";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kShutdown);
  }
  EXPECT_FALSE(t.post(barrier_request(0, 1, 2)));
  EXPECT_EQ(echo.runs.load(), 0);
}

TEST(InProcTransport, InlineCountersAddUp) {
  // Each round trip counts its request and its reply as sent and received;
  // each one-way post counts once. Several callers at once: the counters
  // are lock-free.
  EchoHandler a{1}, b{2};
  net::InProcTransport t(3);
  t.serve(1, a.handler());
  t.serve(2, b.handler());
  constexpr int kThreads = 3, kCalls = 200, kPosts = 50;
  std::vector<std::thread> callers;
  for (int c = 0; c < kThreads; ++c) {
    callers.emplace_back([&, c] {
      const auto to = static_cast<cache::NodeId>(1 + c % 2);
      for (int i = 0; i < kCalls; ++i) {
        EXPECT_EQ(t.call(barrier_request(0, to, 3)).msg.count, 3u);
      }
      for (int i = 0; i < kPosts; ++i) {
        EXPECT_TRUE(t.post(barrier_request(0, to, 4)));
      }
    });
  }
  for (auto& c : callers) c.join();
  const net::TransportStats s = t.stats();
  const std::uint64_t calls = kThreads * kCalls, posts = kThreads * kPosts;
  EXPECT_EQ(s.rpcs, calls);
  EXPECT_EQ(s.sent, 2 * calls + posts);
  EXPECT_EQ(s.received, 2 * calls + posts);
  EXPECT_EQ(static_cast<std::uint64_t>(a.runs + b.runs), calls + posts);
  t.close();
}

/// A pass-through decorator shaped like a timing wrapper: it overrides
/// receive, post and call_impl but not serve, so it is served through the
/// default pull path over its inner transport's queues.
class PullOnlyDecorator final : public net::Transport {
 public:
  explicit PullOnlyDecorator(std::shared_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}
  bool post(net::Envelope env) override {
    ++posts;
    return inner_->post(std::move(env));
  }
  std::optional<net::Envelope> receive(cache::NodeId node) override {
    auto env = inner_->receive(node);
    if (env) ++received;
    return env;
  }
  void close() override { inner_->close(); }
  [[nodiscard]] net::TransportStats stats() const override {
    return inner_->stats();
  }
  std::atomic<int> posts{0};
  std::atomic<int> received{0};

 protected:
  net::Envelope call_impl(net::Envelope env) override {
    return inner_->call(std::move(env));
  }

 private:
  std::shared_ptr<net::Transport> inner_;
};

TEST(InProcTransport, PullOnlyDecoratorIsStillServed) {
  EchoHandler echo{1};
  PullOnlyDecorator t(std::make_shared<net::InProcTransport>(2));
  t.serve(1, echo.handler());  // the default: a pump thread
  const net::Envelope reply = t.call(barrier_request(0, 1, 9));
  EXPECT_EQ(reply.msg.count, 9u);
  // The pump pulled the request and posted the reply through the decorator.
  EXPECT_NE(echo.ran_on.load(), std::this_thread::get_id());
  EXPECT_EQ(t.received.load(), 1);
  EXPECT_EQ(t.posts.load(), 1);
  const net::TransportStats s = t.stats();
  EXPECT_EQ(s.rpcs, 1u);
  EXPECT_EQ(s.sent, 2u);
  EXPECT_EQ(s.received, 2u);
  t.shutdown();  // closes the inner transport and joins the pump
  EXPECT_THROW((void)t.call(barrier_request(0, 1, 10)), net::TransportError);
}

TEST(TcpTransport, PairConnectCallAndPayloadRoundtrip) {
  net::TcpConfig c0;
  c0.local_node = 0;
  c0.nodes = 2;
  net::TcpConfig c1 = c0;
  c1.local_node = 1;
  net::TcpTransport t0(c0), t1(c1);
  const std::vector<net::TcpPeer> peers = {{"127.0.0.1", t0.listen_port()},
                                           {"127.0.0.1", t1.listen_port()}};
  std::thread mesh0([&] { t0.connect_peers(peers); });
  t1.connect_peers(peers);
  mesh0.join();
  EXPECT_EQ(t0.connected_peers(), 1u);

  std::thread server([&] { echo_server(t1, 1); });
  net::Envelope req;
  req.msg = proto::Message::barrier(0, 1, 9);
  req.data = net::make_ready_block(
      std::vector<std::byte>(500, std::byte{0xAB}));
  const net::Envelope reply = t0.call(std::move(req));
  EXPECT_EQ(reply.msg.kind, proto::MsgKind::kBarrierReply);
  ASSERT_NE(reply.data, nullptr);
  EXPECT_EQ(reply.data->bytes.size(), 500u);
  EXPECT_EQ(reply.data->bytes[499], std::byte{0xAB});
  EXPECT_GE(t0.stats().bytes_sent, 500u);
  EXPECT_GE(t1.stats().bytes_received, 500u);

  t0.close();
  t1.close();
  server.join();
}

// Regression: an envelope whose payload latch is still closed must not stall
// the connection. The old writer waited wait_ready() inline, so traffic
// queued behind an unready block — including the very storage RPC that
// would fill it — deadlocked the connection.
TEST(TcpTransport, UnreadyPayloadDefersWithoutBlockingLaterTraffic) {
  net::TcpConfig c0;
  c0.local_node = 0;
  c0.nodes = 2;
  net::TcpConfig c1 = c0;
  c1.local_node = 1;
  net::TcpTransport t0(c0), t1(c1);
  const std::vector<net::TcpPeer> peers = {{"127.0.0.1", t0.listen_port()},
                                           {"127.0.0.1", t1.listen_port()}};
  std::thread mesh0([&] { t0.connect_peers(peers); });
  t1.connect_peers(peers);
  mesh0.join();
  std::thread server([&] { echo_server(t1, 1); });

  // Queue a one-way envelope whose payload is NOT ready yet...
  auto slow = std::make_shared<net::BlockData>();
  net::Envelope oneway;
  oneway.msg = proto::Message::barrier(0, 1, 1);
  oneway.data = slow;
  ASSERT_TRUE(t0.post(std::move(oneway)));

  // ...then an RPC behind it. It must complete while `slow` is still shut.
  net::Envelope req;
  req.msg = proto::Message::barrier(0, 1, 2);
  const net::Envelope reply = t0.call(std::move(req));
  EXPECT_EQ(reply.msg.count, 2u);
  EXPECT_FALSE(slow->is_ready());

  // Open the latch; the deferred envelope ships and echoes back.
  {
    std::scoped_lock lock(slow->m);
    slow->bytes.assign(64, std::byte{0x5C});
    slow->ready = true;
  }
  slow->cv.notify_all();
  net::Envelope req2;
  req2.msg = proto::Message::barrier(0, 1, 3);
  (void)t0.call(std::move(req2));  // any later RPC proves the writer lives

  t0.close();
  t1.close();
  server.join();
}

// Regression: a call pending on a connection that dies must fail with a
// transport error as soon as the death is detected — not sit out the full
// 30 s call deadline. The old call() parked the waiter with no wakeup when
// the peer closed (or its stream poisoned) underneath it.
TEST(TcpTransport, PendingCallFailsWhenPeerShutsDown) {
  net::TcpConfig c0;
  c0.local_node = 0;
  c0.nodes = 2;
  net::TcpConfig c1 = c0;
  c1.local_node = 1;
  net::TcpTransport t0(c0), t1(c1);
  const std::vector<net::TcpPeer> peers = {{"127.0.0.1", t0.listen_port()},
                                           {"127.0.0.1", t1.listen_port()}};
  std::thread mesh0([&] { t0.connect_peers(peers); });
  t1.connect_peers(peers);
  mesh0.join();

  // Nobody serves t1's queue; kill it while the call is in flight.
  std::thread killer([&t1] {
    std::this_thread::sleep_for(50ms);
    t1.close();
  });
  const auto t_start = std::chrono::steady_clock::now();
  try {
    net::Envelope req;
    req.msg = proto::Message::barrier(0, 1, 1);
    (void)t0.call(std::move(req));
    FAIL() << "a call into a dying peer must not succeed";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kPeerDown);
    EXPECT_TRUE(e.transient());  // the peer may come back — retryable
  }
  // Failed via connection-death detection, not the 30 s deadline.
  EXPECT_LT(std::chrono::steady_clock::now() - t_start, 10s);
  killer.join();
  t0.close();
}

// An alive-but-silent peer is bounded by the call deadline instead.
TEST(TcpTransport, UnansweredCallTimesOutAndCounts) {
  net::TcpConfig c0;
  c0.local_node = 0;
  c0.nodes = 2;
  c0.call_timeout = 100ms;
  net::TcpConfig c1 = c0;
  c1.local_node = 1;
  net::TcpTransport t0(c0), t1(c1);
  const std::vector<net::TcpPeer> peers = {{"127.0.0.1", t0.listen_port()},
                                           {"127.0.0.1", t1.listen_port()}};
  std::thread mesh0([&] { t0.connect_peers(peers); });
  t1.connect_peers(peers);
  mesh0.join();

  // t1 accepts the request but never answers it.
  try {
    net::Envelope req;
    req.msg = proto::Message::barrier(0, 1, 1);
    (void)t0.call(std::move(req));
    FAIL() << "an unanswered call must time out";
  } catch (const net::TransportError& e) {
    EXPECT_EQ(e.kind(), net::TransportError::Kind::kTimeout);
  }
  EXPECT_EQ(t0.stats().rpc_timeouts, 1u);
  t0.close();
  t1.close();
}

// ------------------------------------ cluster equality across runtimes ----

std::vector<std::byte> fill_pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed + i * 7) & 0xFF);
  }
  return out;
}

constexpr std::size_t kEqNodes = 3;
constexpr std::size_t kEqFiles = 12;
constexpr std::uint32_t kEqBlockBytes = 1024;
constexpr std::uint32_t kEqFileBlocks = 2;
constexpr std::uint32_t kEqFileBytes = kEqBlockBytes * kEqFileBlocks;
constexpr int kEqIters = 120;

ccm::CcmConfig equality_config() {
  ccm::CcmConfig cfg;
  cfg.nodes = kEqNodes;
  cfg.block_bytes = kEqBlockBytes;
  cfg.capacity_bytes = 8 * kEqBlockBytes;
  cfg.workers_per_node = 2;
  return cfg;
}

/// Driver `d` pinned to node `d`: mixed ops whose write targets are
/// partitioned per driver, so final storage bytes depend only on the RNG
/// streams (same determinism argument as bench/ccm_workload.hpp).
void equality_driver(ccm::CcmCluster& cluster, std::size_t d) {
  sim::Rng rng(7000 + d);
  const auto via = static_cast<cache::NodeId>(d);
  for (int i = 0; i < kEqIters; ++i) {
    const auto f = static_cast<cache::FileId>(rng.uniform_int(kEqFiles));
    const auto roll = rng.uniform_int(100);
    if (roll < 30) {
      constexpr std::size_t kPerDriver = kEqFiles / kEqNodes;
      const auto wf =
          static_cast<cache::FileId>((f % kPerDriver) * kEqNodes + d);
      const std::uint64_t off =
          rng.uniform_int(kEqFileBlocks) * kEqBlockBytes;
      cluster.write(via, wf, off,
                    fill_pattern(kEqBlockBytes,
                                 static_cast<std::uint8_t>(f + i)));
    } else if (roll < 34) {
      cluster.invalidate(f);
    } else {
      cluster.read(via, f);
    }
  }
}

std::vector<std::byte> storage_bytes(const ccm::Storage& storage) {
  std::vector<std::byte> all;
  for (std::size_t f = 0; f < storage.file_count(); ++f) {
    const auto file = static_cast<cache::FileId>(f);
    std::vector<std::byte> buf(storage.file_size(file));
    storage.read(file, 0, buf);
    all.insert(all.end(), buf.begin(), buf.end());
  }
  return all;
}

void seed_all(ccm::CcmCluster& cluster) {
  for (std::size_t f = 0; f < kEqFiles; ++f) {
    cluster.write(0, static_cast<cache::FileId>(f), 0,
                  fill_pattern(kEqFileBytes, static_cast<std::uint8_t>(f)));
  }
}

TEST(ClusterOverTcp, StorageBytesMatchInProcessRun) {
  // Reference: the whole cluster in-process on the InProcTransport.
  std::vector<std::byte> expected;
  {
    auto storage = std::make_shared<ccm::BufferStorage>(
        std::vector<std::uint32_t>(kEqFiles, kEqFileBytes));
    ccm::CcmCluster cluster(equality_config(), storage);
    seed_all(cluster);
    std::vector<std::thread> drivers;
    for (std::size_t d = 0; d < kEqNodes; ++d) {
      drivers.emplace_back([&, d] { equality_driver(cluster, d); });
    }
    for (auto& t : drivers) t.join();
    expected = storage_bytes(*storage);
  }

  // Same workload on three TCP transports, one hosted node each (the
  // loopback-cluster topology, minus the process boundaries).
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<net::TcpPeer> peers;
  for (std::size_t n = 0; n < kEqNodes; ++n) {
    net::TcpConfig tc;
    tc.local_node = static_cast<cache::NodeId>(n);
    tc.nodes = kEqNodes;
    transports.push_back(std::make_unique<net::TcpTransport>(tc));
    peers.push_back({"127.0.0.1", transports.back()->listen_port()});
  }
  {
    std::vector<std::thread> mesh;
    for (auto& t : transports) {
      mesh.emplace_back([&peers, &t] { t->connect_peers(peers); });
    }
    for (auto& t : mesh) t.join();
  }

  auto home_storage = std::make_shared<ccm::BufferStorage>(
      std::vector<std::uint32_t>(kEqFiles, kEqFileBytes));
  std::vector<std::unique_ptr<ccm::CcmCluster>> clusters(kEqNodes);
  for (std::size_t n = 0; n < kEqNodes; ++n) {
    const auto node = static_cast<cache::NodeId>(n);
    std::shared_ptr<net::Transport> transport(transports[n].get(),
                                              [](net::Transport*) {});
    ccm::CcmHosting hosting;
    hosting.transport = transport;
    hosting.local_nodes = {node};
    hosting.home = 0;
    std::shared_ptr<ccm::Storage> storage;
    if (n == 0) {
      storage = home_storage;
    } else {
      storage = std::make_shared<ccm::RemoteStorage>(
          transport, node, 0,
          std::vector<std::uint32_t>(kEqFiles, kEqFileBytes));
      hosting.directory =
          std::make_shared<ccm::RemoteDirectory>(transport, node, 0);
    }
    clusters[n] = std::make_unique<ccm::CcmCluster>(equality_config(),
                                                    storage, hosting);
  }

  seed_all(*clusters[0]);
  std::vector<std::thread> drivers;
  for (std::size_t d = 0; d < kEqNodes; ++d) {
    drivers.emplace_back([&, d] {
      const auto node = static_cast<cache::NodeId>(d);
      clusters[d]->barrier(node, 0);
      equality_driver(*clusters[d], d);
      clusters[d]->barrier(node, 1);
    });
  }
  for (auto& t : drivers) t.join();

  // Peers down first (their shutdown RPCs need home alive), then home.
  clusters[2].reset();
  clusters[1].reset();
  clusters[0].reset();

  EXPECT_EQ(storage_bytes(*home_storage), expected);

  // The zero-copy contract: every payload left each node as an iovec over
  // the shared BlockData — nothing was staged through an intermediate copy.
  for (std::size_t n = 0; n < kEqNodes; ++n) {
    EXPECT_EQ(transports[n]->stats().payload_copies, 0u) << "node " << n;
  }
}

// ------------------------------------------------- remote directory ----

/// Two TCP transports (nodes 0 and 1) meshed over loopback.
struct TcpPair {
  static net::TcpConfig config(cache::NodeId node) {
    net::TcpConfig c;
    c.local_node = node;
    c.nodes = 2;
    return c;
  }
  TcpPair() : t0(config(0)), t1(config(1)) {
    const std::vector<net::TcpPeer> peers = {{"127.0.0.1", t0.listen_port()},
                                             {"127.0.0.1", t1.listen_port()}};
    std::thread mesh0([&] { t0.connect_peers(peers); });
    t1.connect_peers(peers);
    mesh0.join();
  }
  net::TcpTransport t0, t1;
};

std::shared_ptr<net::Transport> borrow(net::Transport& t) {
  return {&t, [](net::Transport*) {}};
}

TEST(RemoteDirectory, BatchBackedSinglesMatchLocalDirectory) {
  // Every DirectoryClient op reaches a home over TCP as a one-item kDirBatch
  // trip. A LocalDirectory fed the same script must give the same answer at
  // every step and end in the same state. Hinted mode is the one that reads
  // claim_forwarded's forwarder.
  for (const auto mode :
       {cache::DirectoryMode::kPerfect, cache::DirectoryMode::kHinted}) {
    SCOPED_TRACE(mode == cache::DirectoryMode::kPerfect ? "perfect"
                                                         : "hinted");
    TcpPair pair;
    auto home_dir = std::make_shared<ccm::LocalDirectory>(2, mode, 1);
    ccm::CcmConfig cfg;
    cfg.nodes = 2;
    cfg.block_bytes = 1024;
    cfg.capacity_bytes = 8 * 1024;
    cfg.directory = mode;
    ccm::CcmHosting hosting;
    hosting.transport = borrow(pair.t0);
    hosting.directory = home_dir;
    hosting.local_nodes = {0};
    ccm::CcmCluster home(cfg,
                         std::make_shared<ccm::BufferStorage>(
                             std::vector<std::uint32_t>(4, 2048)),
                         hosting);
    ccm::RemoteDirectory remote(borrow(pair.t1), 1, 0);
    ccm::LocalDirectory local(2, mode, 1);

    // Node 1 reaches the home over TCP; node 0's own moves go straight to
    // the home's directory. Either way `local` replays the op and must
    // answer alike (void ops answer 0). RemoteDirectory only issues ops for
    // the nodes its process hosts: the reply is routed to the issuer.
    const auto alike = [&](ccm::DirectoryClient& d, const auto& op) {
      const auto r = op(d);
      EXPECT_EQ(r, op(static_cast<ccm::DirectoryClient&>(local)));
      return r;
    };
    const auto at_node1 = [&](const auto& op) { return alike(remote, op); };
    const auto at_node0 = [&](const auto& op) { return alike(*home_dir, op); };
    const cache::BlockId b{3, 1};
    const cache::FileId f = b.file;
    const auto lookup_for_read = [&] {
      const auto r = remote.lookup_for_read(1, b);
      const auto l = local.lookup_for_read(1, b);
      EXPECT_EQ(r.master, l.master);
      EXPECT_EQ(r.epoch, l.epoch);
      EXPECT_EQ(r.misdirected, l.misdirected);
      return r;
    };
    const auto lookup = [&] {
      return at_node1([&](ccm::DirectoryClient& d) { return d.lookup(b); });
    };
    const auto try_claim = [&] {
      return at_node1(
          [&](ccm::DirectoryClient& d) { return d.try_claim(b, 1); });
    };
    const auto read_cacheable = [&](std::uint64_t epoch) {
      return at_node1(
          [&](ccm::DirectoryClient& d) { return d.read_cacheable(f, epoch); });
    };
    const auto begin_forward = [&](cache::NodeId from) {
      return alike(from == 0 ? static_cast<ccm::DirectoryClient&>(*home_dir)
                             : static_cast<ccm::DirectoryClient&>(remote),
                   [&](ccm::DirectoryClient& d) {
                     return d.begin_forward(b, from);
                   });
    };

    // Nobody holds b: the claim is granted, and so is its at-least-once
    // re-ask.
    EXPECT_EQ(lookup_for_read().master, cache::kInvalidNode);
    EXPECT_TRUE(try_claim());
    EXPECT_TRUE(try_claim());
    EXPECT_EQ(lookup(), 1);
    EXPECT_TRUE(read_cacheable(0));

    // A write by node 1, the holder: in flight it blocks caching, and its
    // claim keeps the master but bumps the file epoch.
    at_node1([&](ccm::DirectoryClient& d) { d.write_begin(f); return 0; });
    EXPECT_FALSE(read_cacheable(0));
    EXPECT_EQ(at_node1([&](ccm::DirectoryClient& d) {
                return d.write_claim(b, 1);
              }),
              1);
    at_node1([&](ccm::DirectoryClient& d) { d.write_end(f); return 0; });
    EXPECT_EQ(lookup(), 1);
    const std::uint64_t epoch = lookup_for_read().epoch;
    EXPECT_GT(epoch, 0u);
    EXPECT_FALSE(read_cacheable(0));
    EXPECT_TRUE(read_cacheable(epoch));

    // A write by node 0 moves the master; node 1's drop is then a no-op.
    at_node0([&](ccm::DirectoryClient& d) {
      d.write_begin(f);
      const cache::NodeId previous = d.write_claim(b, 0);
      d.write_end(f);
      return previous;
    });
    at_node1([&](ccm::DirectoryClient& d) {
      d.master_dropped(b, 1);
      return 0;
    });
    EXPECT_EQ(lookup(), 0);
    EXPECT_FALSE(try_claim());

    // Forward 0 -> 1: only the holder may begin it; node 1's claim carries
    // the forwarder and the epoch, and its re-ask is granted again.
    EXPECT_EQ(begin_forward(1), std::nullopt);
    const auto forward_epoch = begin_forward(0);
    ASSERT_TRUE(forward_epoch.has_value());
    EXPECT_EQ(lookup(), cache::kInvalidNode);
    for (int ask = 0; ask < 2; ++ask) {
      EXPECT_TRUE(at_node1([&](ccm::DirectoryClient& d) {
        return d.claim_forwarded(b, 1, 0, *forward_epoch);
      }));
    }
    EXPECT_EQ(lookup_for_read().master, 1);
    // The forwarder learned where its master went (read in hinted mode).
    EXPECT_FALSE(at_node0([&](ccm::DirectoryClient& d) {
      return d.lookup_for_read(0, b).misdirected;
    }));

    // Forward 1 -> 0 fenced by a file invalidation: the claim loses and the
    // forwarder reports the rejection.
    const auto fenced_epoch = begin_forward(1);
    ASSERT_TRUE(fenced_epoch.has_value());
    at_node1([&](ccm::DirectoryClient& d) { d.invalidate_file(f); return 0; });
    EXPECT_FALSE(at_node0([&](ccm::DirectoryClient& d) {
      return d.claim_forwarded(b, 0, 1, *fenced_epoch);
    }));
    at_node1([&](ccm::DirectoryClient& d) {
      d.forward_rejected(b, 1);
      return 0;
    });
    EXPECT_EQ(lookup(), cache::kInvalidNode);

    // Crash fence: purging node 1 removes its master once; the re-ask
    // purges nothing more.
    EXPECT_TRUE(try_claim());
    for (const std::size_t purged : {1u, 0u}) {
      EXPECT_EQ(at_node1([&](ccm::DirectoryClient& d) {
                  return d.purge_node(1);
                }),
                purged);
    }
    EXPECT_EQ(lookup_for_read().master, cache::kInvalidNode);

    EXPECT_EQ(home_dir->hint_truth(b), local.hint_truth(b));
    EXPECT_EQ(home_dir->hint_accuracy(), local.hint_accuracy());
    EXPECT_EQ(home_dir->master_count(), local.master_count());
    const auto h = home_dir->ops();
    const auto l = local.ops();
    EXPECT_EQ(h.lookups, l.lookups);
    EXPECT_EQ(h.claims, l.claims);
    EXPECT_EQ(h.claim_conflicts, l.claim_conflicts);
    EXPECT_EQ(h.forwards_begun, l.forwards_begun);
    EXPECT_EQ(h.forward_claims, l.forward_claims);
    EXPECT_EQ(h.forward_rejects, l.forward_rejects);
    EXPECT_EQ(h.masters_dropped, l.masters_dropped);
    EXPECT_EQ(h.write_claims, l.write_claims);
    EXPECT_EQ(h.hint_misdirects, l.hint_misdirects);
    EXPECT_EQ(h.masters_purged, l.masters_purged);
    // One trip per op, every one a batch of one.
    EXPECT_EQ(remote.calls().batches, 0u);
    EXPECT_GT(remote.calls().singles, 0u);
  }
}

TEST(RemoteDirectory, WrongResultCountThrowsInsteadOfLooping) {
  // A home whose batch replies carry one result too many.
  TcpPair pair;
  std::atomic<int> served{0};
  std::thread home([&] {
    while (auto env = pair.t0.receive(0)) {
      served.fetch_add(1);
      const std::vector<proto::DirBatchResult> results(env->msg.count + 1);
      auto payload = proto::encode_dir_batch_reply(results);
      net::Envelope out;
      out.msg = proto::Message::dir_batch_reply(
          0, env->msg.from, static_cast<std::uint32_t>(results.size()),
          payload.size());
      out.seq = env->seq;
      out.data = net::make_ready_block(std::move(payload));
      pair.t0.post(std::move(out));
    }
  });
  ccm::RemoteDirectory remote(borrow(pair.t1), 1, 0);
  const auto expect_malformed = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "a malformed batch reply must throw";
    } catch (const net::TransportError& e) {
      ADD_FAILURE() << "transport failure instead: " << e.what();
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("home node 0"), std::string::npos)
          << e.what();
    }
  };
  expect_malformed([&] { (void)remote.try_claim({0, 0}, 1); });
  const std::vector<proto::DirBatchItem> items = {
      {proto::DirBatchOp::kLookupRead, {0, 0}},
      {proto::DirBatchOp::kValidate, {0, 1}}};
  expect_malformed([&] { (void)remote.batch(1, items); });
  EXPECT_EQ(served.load(), 2);  // one trip each: no retry, no fallback
  pair.t0.close();
  pair.t1.close();
  home.join();
}

/// Stands in for a home process: applies each kDirBatchRequest to `home`,
/// then fails the call as scripted — after the apply (an ambiguous failure:
/// the reply was lost) or before it (the request never left).
class ScriptedHomeTransport final : public net::Transport {
 public:
  struct Step {
    bool apply = true;
    std::optional<net::TransportError::Kind> fail;
  };
  ScriptedHomeTransport(proto::DirectoryService& home, std::vector<Step> script)
      : home_(home), script_(std::move(script)) {}

  bool post(net::Envelope) override { return false; }
  std::optional<net::Envelope> receive(cache::NodeId) override {
    return std::nullopt;
  }
  void close() override {}
  [[nodiscard]] net::TransportStats stats() const override { return {}; }
  int calls = 0;

 protected:
  net::Envelope call_impl(net::Envelope env) override {
    const Step step = calls < static_cast<int>(script_.size())
                          ? script_[static_cast<std::size_t>(calls)]
                          : Step{};
    ++calls;
    std::vector<proto::DirBatchResult> results;
    if (step.apply) {
      const auto req = proto::decode_dir_batch_request(env.data->bytes);
      home_.apply_batch(req->node, req->items, results);
    }
    if (step.fail) throw net::TransportError(*step.fail, "scripted failure");
    auto payload = proto::encode_dir_batch_reply(results);
    net::Envelope out;
    out.msg = proto::Message::dir_batch_reply(
        0, env.msg.from, static_cast<std::uint32_t>(results.size()),
        payload.size());
    out.data = net::make_ready_block(std::move(payload));
    return out;
  }

 private:
  proto::DirectoryService& home_;
  std::vector<Step> script_;
};

TEST(RemoteDirectory, OffNodeOpThrowsBeforeSending) {
  // The home routes a reply to the op's issuing node; a client asked to act
  // for a node its process does not host must refuse at once instead of
  // waiting out every retry for a reply that goes elsewhere.
  proto::DirectoryService home(2, cache::DirectoryMode::kPerfect, 1);
  auto transport = std::make_shared<ScriptedHomeTransport>(
      home, std::vector<ScriptedHomeTransport::Step>{});
  ccm::RemoteDirectory remote(transport, 1, 0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)remote.write_claim({0, 0}, 0), std::invalid_argument);
  EXPECT_THROW((void)remote.try_claim({0, 0}, 0), std::invalid_argument);
  const std::vector<proto::DirBatchItem> items = {
      {proto::DirBatchOp::kLookupRead, {0, 0}}};
  EXPECT_THROW((void)remote.batch(0, items), std::invalid_argument);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_EQ(transport->calls, 0);
  EXPECT_EQ(home.lookup({0, 0}), cache::kInvalidNode);
  // Its own node still goes through.
  EXPECT_TRUE(remote.try_claim({0, 0}, 1));
  EXPECT_EQ(transport->calls, 1);
}

TEST(RemoteDirectory, WriteOpIsNotResentAfterAnAmbiguousFailure) {
  using Kind = net::TransportError::Kind;
  const cache::FileId f = 2;
  const auto epoch_of = [&](proto::DirectoryService& d) {
    return d.lookup_for_read(0, {f, 0}).epoch;
  };
  for (const Kind kind : {Kind::kTimeout, Kind::kPeerDown}) {
    // The home applied write_begin, then the reply was lost. Re-sending
    // would open a second write span that no write_end ever closes.
    proto::DirectoryService home(2, cache::DirectoryMode::kPerfect, 1);
    auto transport = std::make_shared<ScriptedHomeTransport>(
        home, std::vector<ScriptedHomeTransport::Step>{{true, kind}});
    net::RetryStats retries;
    ccm::RemoteDirectory remote(transport, 1, 0, &retries);
    try {
      remote.write_begin(f);
      ADD_FAILURE() << "the ambiguous failure must surface";
    } catch (const net::TransportError& e) {
      EXPECT_EQ(e.kind(), kind);
    }
    EXPECT_EQ(transport->calls, 1);
    EXPECT_EQ(retries.retries.load(), 0u);
    EXPECT_EQ(retries.failures.load(), 1u);
    // The span was applied exactly once: one write_end closes it.
    EXPECT_FALSE(home.read_cacheable(f, epoch_of(home)));
    home.write_end(f);
    EXPECT_TRUE(home.read_cacheable(f, epoch_of(home)));
  }
  {
    // A request dropped before it left is re-sent, and lands once.
    proto::DirectoryService home(2, cache::DirectoryMode::kPerfect, 1);
    auto transport = std::make_shared<ScriptedHomeTransport>(
        home, std::vector<ScriptedHomeTransport::Step>{
                  {false, Kind::kInjected}});
    ccm::RemoteDirectory remote(transport, 1, 0);
    remote.write_begin(f);
    EXPECT_EQ(transport->calls, 2);
    home.write_end(f);
    EXPECT_TRUE(home.read_cacheable(f, epoch_of(home)));
  }
  {
    // A replay-safe op still rides out an ambiguous failure.
    proto::DirectoryService home(2, cache::DirectoryMode::kPerfect, 1);
    auto transport = std::make_shared<ScriptedHomeTransport>(
        home, std::vector<ScriptedHomeTransport::Step>{{true, Kind::kTimeout}});
    ccm::RemoteDirectory remote(transport, 1, 0);
    EXPECT_TRUE(remote.try_claim({f, 0}, 1));
    EXPECT_EQ(transport->calls, 2);
  }
}

}  // namespace
}  // namespace coop
