#include "net/transport.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>

#include "proto/dir_batch.hpp"

namespace coop::net {

// The telemetry registry indexes RPC slots by the raw kind byte; make sure
// the wire vocabulary still fits (this is the seam where the proto-agnostic
// obs layer meets the protocol).
static_assert(proto::kMsgKindCount <= obs::kMaxRpcKinds,
              "obs::kMaxRpcKinds must cover every proto::MsgKind");

Transport::~Transport() { join_pumps(); }

void Transport::serve(cache::NodeId node, Handler handler) {
  util::ScopedLock lock(pumps_mu_);
  pumps_.emplace_back([this, node, handler = std::move(handler)] {
    while (auto env = receive(node)) {
      Envelope reply = handler(*env);
      if (env->seq == 0) continue;  // one-way: nobody waits for the answer
      reply.seq = env->seq;  // correlates with the caller blocked in call()
      post(std::move(reply));
    }
  });
}

void Transport::shutdown() {
  close();
  join_pumps();
}

void Transport::join_pumps() {
  std::vector<std::thread> pumps;
  {
    util::ScopedLock lock(pumps_mu_);
    pumps.swap(pumps_);
  }
  for (auto& t : pumps) t.join();
}

Envelope Transport::call(Envelope env) {
  auto* m = metrics_.load(std::memory_order_acquire);
  if (m == nullptr) return call_impl(std::move(env));
  const auto kind = static_cast<std::uint8_t>(env.msg.kind);
  const std::uint64_t request_bytes = env.msg.bytes;
  const std::uint64_t t0 = obs::runtime_now_ns();
  try {
    Envelope reply = call_impl(std::move(env));
    m->record_rpc(kind, obs::runtime_now_ns() - t0,
                  request_bytes + reply.msg.bytes);
    return reply;
  } catch (...) {
    m->record_rpc_error(kind, obs::runtime_now_ns() - t0);
    throw;
  }
}

namespace {

/// May `env` be delivered twice? Only a directory batch carrying a write op
/// may not (proto::replay_safe).
bool replayable(const Envelope& env) {
  if (env.msg.kind != proto::MsgKind::kDirBatchRequest || !env.data) {
    return true;
  }
  env.data->wait_ready();  // built complete by RemoteDirectory
  return proto::dir_batch_replay_safe(env.data->bytes);
}

}  // namespace

Envelope call_with_retry(Transport& transport, const Envelope& env,
                         const RetryPolicy& policy,
                         RetryStats* retry_stats) {
  auto backoff = policy.backoff;
  for (int attempt = 1;; ++attempt) {
    try {
      // Fresh copy per attempt: call() stamps a new seq, and the previous
      // attempt's envelope was consumed (the payload pointer is shared, so
      // re-sends stay cheap).
      return transport.call(env);
    } catch (const TransportError& e) {
      // Only an injected drop is known to precede delivery; after any other
      // failure the peer may have applied the request already.
      const bool resend =
          e.transient() && attempt < policy.attempts &&
          (e.kind() == TransportError::Kind::kInjected || replayable(env));
      if (!resend) {
        if (retry_stats != nullptr) {
          retry_stats->failures.fetch_add(1, std::memory_order_relaxed);
        }
        throw;
      }
    }
    if (retry_stats != nullptr) {
      retry_stats->retries.fetch_add(1, std::memory_order_relaxed);
    }
    if (auto* m = transport.metrics()) {
      m->record_retry(static_cast<std::uint8_t>(env.msg.kind));
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(
        std::chrono::milliseconds(static_cast<std::int64_t>(
            static_cast<double>(backoff.count()) * policy.multiplier)),
        policy.max_backoff);
  }
}

InProcTransport::InProcTransport(std::size_t nodes, std::size_t capacity,
                                 std::chrono::milliseconds call_timeout)
    : call_timeout_(call_timeout),
      served_(std::make_unique<std::atomic<const Handler*>[]>(nodes)) {
  if (nodes == 0) throw std::invalid_argument("InProcTransport: 0 nodes");
  mailboxes_.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    mailboxes_.push_back(std::make_unique<Mailbox<Envelope>>(
        capacity, "net.inproc.mailbox[" + std::to_string(n) + "]"));
  }
}

void InProcTransport::serve(cache::NodeId node, Handler handler) {
  if (node >= mailboxes_.size()) {
    throw std::invalid_argument("InProcTransport: bad local node");
  }
  util::ScopedLock lock(mu_);
  if (served(node) != nullptr) {
    throw std::logic_error("InProcTransport: node " + std::to_string(node) +
                           " is already served");
  }
  handlers_.push_back(std::make_unique<Handler>(std::move(handler)));
  served_[node].store(handlers_.back().get(), std::memory_order_release);
}

Envelope InProcTransport::call_impl(Envelope env) {
  if (env.msg.to >= mailboxes_.size()) {
    throw std::invalid_argument("InProcTransport: bad destination node");
  }
  const Handler* handler = served(env.msg.to);
  if (handler == nullptr) return call_pulled(std::move(env));
  if (closed_.load(std::memory_order_acquire)) {
    throw TransportError(TransportError::Kind::kShutdown,
                         "transport is shut down");
  }
  // The destination's handler runs right here, on the caller's thread: the
  // request and its reply each count as one envelope sent and received.
  Envelope reply = (*handler)(env);
  assert(reply.msg.bytes == 0 || reply.data != nullptr);
  sent_.fetch_add(2, std::memory_order_relaxed);
  received_.fetch_add(2, std::memory_order_relaxed);
  rpcs_.fetch_add(1, std::memory_order_relaxed);
  return reply;
}

Envelope InProcTransport::call_pulled(Envelope env) {
  auto pending = std::make_shared<PendingCall>();
  {
    util::ScopedLock lock(mu_);
    if (closed_.load(std::memory_order_relaxed)) {
      throw TransportError(TransportError::Kind::kShutdown,
                           "transport is shut down");
    }
    env.seq = next_seq_++;
    pending_.emplace(env.seq, pending);
  }
  const std::uint64_t seq = env.seq;
  if (!post(std::move(env))) {
    util::ScopedLock lock(mu_);
    pending_.erase(seq);
    throw TransportError(TransportError::Kind::kShutdown,
                         "transport is shut down");
  }
  const auto deadline = std::chrono::steady_clock::now() + call_timeout_;
  util::UniqueLock lock(mu_);
  while (!pending->done && !closed_.load(std::memory_order_relaxed)) {
    if (pending->cv.wait_until(lock, deadline) == std::cv_status::timeout &&
        !pending->done) {
      pending_.erase(seq);
      rpc_timeouts_.fetch_add(1, std::memory_order_relaxed);
      throw TransportError(TransportError::Kind::kTimeout,
                           "call timed out after " +
                               std::to_string(call_timeout_.count()) + " ms");
    }
  }
  if (!pending->done) {
    pending_.erase(seq);
    throw TransportError(TransportError::Kind::kShutdown,
                         "transport is shut down");
  }
  rpcs_.fetch_add(1, std::memory_order_relaxed);
  return std::move(pending->reply);
}

bool InProcTransport::post(Envelope env) {
  if (env.msg.to >= mailboxes_.size()) {
    throw std::invalid_argument("InProcTransport: bad destination node");
  }
  // Zero-copy contract: a payload-bearing envelope always carries its bytes
  // as a shared BlockPtr handed over as is — never a fresh buffer cloned
  // from the sender's copy (payload_copies stays 0 by construction here).
  assert(env.msg.bytes == 0 || env.data != nullptr);
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (proto::is_reply(env.msg.kind) && env.seq != 0) {
    // Complete the caller blocked in call_pulled() directly — replies never
    // take the mailbox hop.
    std::shared_ptr<PendingCall> pending;
    {
      util::ScopedLock lock(mu_);
      received_.fetch_add(1, std::memory_order_relaxed);
      const auto it = pending_.find(env.seq);
      if (it == pending_.end()) return false;  // caller gave up (shutdown)
      pending = it->second;
      pending_.erase(it);
      pending->reply = std::move(env);
      pending->done = true;
    }
    pending->cv.notify_all();
    return true;
  }
  if (const Handler* handler = served(env.msg.to)) {
    if (closed_.load(std::memory_order_acquire)) return false;
    received_.fetch_add(1, std::memory_order_relaxed);
    (void)(*handler)(env);  // one-way: the reply is nobody's
    return true;
  }
  if (!mailboxes_[env.msg.to]->send(std::move(env))) return false;
  received_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::optional<Envelope> InProcTransport::receive(cache::NodeId node) {
  if (node >= mailboxes_.size()) {
    throw std::invalid_argument("InProcTransport: bad local node");
  }
  if (served(node) != nullptr) {
    throw std::logic_error("InProcTransport: node " + std::to_string(node) +
                           " is served inline; there is nothing to receive");
  }
  return mailboxes_[node]->receive();
}

void InProcTransport::close() {
  for (auto& mb : mailboxes_) mb->close();
  util::ScopedLock lock(mu_);
  closed_.store(true, std::memory_order_release);
  for (auto& [seq, pending] : pending_) pending->cv.notify_all();
  pending_.clear();
}

TransportStats InProcTransport::stats() const {
  TransportStats s;
  s.sent = sent_.load(std::memory_order_relaxed);
  s.received = received_.load(std::memory_order_relaxed);
  s.rpcs = rpcs_.load(std::memory_order_relaxed);
  s.rpc_timeouts = rpc_timeouts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace coop::net
