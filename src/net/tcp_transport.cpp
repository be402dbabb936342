#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace coop::net {

namespace {

/// Envelopes coalesced into one write syscall at most (bounds the latency a
/// huge backlog can add to the first message of a flush).
constexpr std::size_t kMaxBatch = 64;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Reads exactly `len` bytes; false on EOF/error.
bool read_exact(int fd, std::byte* out, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, out + got, len - got, 0);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes all of `buf`; false on error (peer gone).
bool write_all(int fd, const std::byte* buf, std::size_t len) {
  std::size_t put = 0;
  while (put < len) {
    const ssize_t n = ::send(fd, buf + put, len - put, MSG_NOSIGNAL);
    if (n <= 0) return false;
    put += static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes every iovec fully, advancing across partial writes; false on
/// error (peer gone). Mutates the iovec array as it advances.
bool writev_all(int fd, iovec* iov, std::size_t iovcnt) {
  std::size_t idx = 0;
  while (idx < iovcnt) {
    msghdr msg{};
    msg.msg_iov = iov + idx;
    msg.msg_iovlen = std::min(iovcnt - idx, static_cast<std::size_t>(IOV_MAX));
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) return false;
    std::size_t left = static_cast<std::size_t>(n);
    while (idx < iovcnt && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < iovcnt && left > 0) {
      iov[idx].iov_base = static_cast<std::byte*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
  }
  return true;
}

}  // namespace

TcpTransport::TcpTransport(const TcpConfig& config)
    : config_(config),
      inbound_(config.outbox_capacity, "net.tcp.inbound"),
      peer_age_(config.nodes),
      peer_full_(config.nodes) {
  if (config_.nodes == 0 || config_.local_node >= config_.nodes) {
    throw std::invalid_argument("TcpTransport: bad local node / node count");
  }
  for (std::size_t n = 0; n < config_.nodes; ++n) {
    peer_age_[n].store(proto::kNoAge, std::memory_order_relaxed);
    peer_full_[n].store(false, std::memory_order_relaxed);
  }
  conns_.resize(config_.nodes);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpTransport: socket failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(config_.listen_port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, static_cast<int>(config_.nodes) + 4) != 0) {
    close_fd(listen_fd_);
    throw std::runtime_error("TcpTransport: bind/listen failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  listen_port_ = ntohs(bound.sin_port);
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::set_summary_source(
    std::function<std::pair<std::uint64_t, bool>()> source) {
  summary_ = std::move(source);
}

std::optional<cache::NodeId> TcpTransport::handshake(int fd) {
  // Symmetric: both sides send first, then read (8 bytes — never fills the
  // socket buffer, so simultaneous sends cannot deadlock).
  const std::vector<std::byte> ours = encode_handshake(config_.local_node);
  if (!write_all(fd, ours.data(), ours.size())) return std::nullopt;
  std::array<std::byte, kHandshakeSize> theirs{};
  if (!read_exact(fd, theirs.data(), theirs.size())) return std::nullopt;
  return decode_handshake(theirs);
}

void TcpTransport::adopt_connection(int fd, cache::NodeId peer) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Reap a dead predecessor first: a peer that crashed and re-dialed still
  // owns a stale conns_ entry whose threads have exited (or are on their way
  // out through drop_connection). Extract it under the lock, join outside —
  // the reader/writer take mu_ themselves as they unwind, and adopt runs
  // only on the accept_loop / connect_peers threads, never on a reader or
  // writer, so the join cannot deadlock or self-join.
  std::unique_ptr<Connection> dead;
  {
    util::ScopedLock lock(mu_);
    Connection* existing = conns_[peer].get();
    if (existing != nullptr &&
        !existing->alive.load(std::memory_order_acquire)) {
      dead = std::move(conns_[peer]);
    }
  }
  if (dead != nullptr) {
    if (dead->reader.joinable()) dead->reader.join();
    if (dead->writer.joinable()) dead->writer.join();
    close_fd(dead->fd);
  }
  util::ScopedLock lock(mu_);
  if (closed_ || conns_[peer] != nullptr) {
    ::close(fd);  // duplicate live connection, or shutting down
    return;
  }
  auto conn = std::make_unique<Connection>(config_.outbox_capacity, peer);
  conn->fd = fd;
  conn->alive.store(true, std::memory_order_release);
  Connection* raw = conn.get();
  conns_[peer] = std::move(conn);
  raw->reader = std::thread([this, raw] { reader_loop(*raw); });
  raw->writer = std::thread([this, raw] { writer_loop(*raw); });
  mesh_cv_.notify_all();
}

void TcpTransport::connect_peers(const std::vector<TcpPeer>& peers) {
  if (peers.size() < config_.nodes) {
    throw std::invalid_argument("TcpTransport: peer table too small");
  }
  accept_thread_ = std::thread([this] { accept_loop(); });

  const auto deadline =
      std::chrono::steady_clock::now() + config_.connect_timeout;
  // Dial every lower-id peer, retrying until it listens.
  for (cache::NodeId peer = 0; peer < config_.local_node; ++peer) {
    while (true) {
      if (closed_) throw std::runtime_error("TcpTransport: closed");
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("TcpTransport: socket failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(peers[peer].port);
      if (::inet_pton(AF_INET, peers[peer].host.c_str(), &addr.sin_addr) !=
          1) {
        ::close(fd);
        throw std::invalid_argument("TcpTransport: bad peer host " +
                                    peers[peer].host);
      }
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        const auto got = handshake(fd);
        if (got && *got == peer) {
          adopt_connection(fd, peer);
          break;
        }
        ::close(fd);  // wrong node answered — fatal config error
        throw std::runtime_error("TcpTransport: handshake with peer " +
                                 std::to_string(peer) + " failed");
      }
      ::close(fd);
      if (std::chrono::steady_clock::now() >= deadline) {
        throw std::runtime_error("TcpTransport: timed out dialing peer " +
                                 std::to_string(peer));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  // Higher-id peers dial us; adopt_connection (and close) signal mesh_cv_.
  util::UniqueLock lock(mu_);
  while (live_peers_locked() + 1 < config_.nodes) {
    if (closed_) throw std::runtime_error("TcpTransport: closed");
    if (mesh_cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        live_peers_locked() + 1 < config_.nodes) {
      throw std::runtime_error("TcpTransport: timed out waiting for peers");
    }
  }
}

void TcpTransport::accept_loop() {
  while (!closed_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const auto peer = handshake(fd);
    // Accept only higher-id peers (they dial down); anything else is a
    // misconfigured or foreign client.
    if (!peer || *peer <= config_.local_node || *peer >= config_.nodes) {
      ::close(fd);
      continue;
    }
    adopt_connection(fd, *peer);
  }
}

void TcpTransport::reader_loop(Connection& conn) {
  FrameReader reader(config_.max_frame_bytes);
  std::vector<std::byte> buf(64 * 1024);
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf.data(), buf.size(), 0);
    if (n <= 0) {
      // EOF or error; bytes stranded mid-frame mean the stream was cut
      // inside a message — count it with the malformed frames.
      drop_connection(conn.peer, reader.buffered() > 0);
      return;
    }
    {
      util::ScopedLock lock(mu_);
      stats_.bytes_received += static_cast<std::uint64_t>(n);
    }
    if (!reader.feed(std::span<const std::byte>(
            buf.data(), static_cast<std::size_t>(n)))) {
      drop_connection(conn.peer, /*frame_error=*/true);
      return;
    }
    while (auto frame = reader.next()) {
      peer_age_[conn.peer].store(frame->sender_age,
                                 std::memory_order_relaxed);
      peer_full_[conn.peer].store(frame->sender_full,
                                  std::memory_order_relaxed);
      {
        util::ScopedLock lock(mu_);
        ++stats_.received;
      }
      route_incoming(std::move(frame->env));
    }
  }
}

void TcpTransport::route_incoming(Envelope env) {
  if (proto::is_reply(env.msg.kind) && env.seq != 0) {
    std::shared_ptr<PendingCall> pending;
    {
      util::ScopedLock lock(mu_);
      const auto it = pending_.find(env.seq);
      if (it == pending_.end()) return;  // caller gave up / duplicate
      pending = it->second;
      pending_.erase(it);
      pending->reply = std::move(env);
      pending->done = true;
    }
    pending->cv.notify_all();
    return;
  }
  // Blocking send: a full inbound queue backpressures this connection's
  // reader (and, through TCP flow control, the remote sender).
  inbound_.send(std::move(env));
}

void TcpTransport::writer_loop(Connection& conn) {
  // Envelopes whose payload latch is still closed. The writer must NEVER
  // block in wait_ready(): the producer filling the buffer can be a storage
  // RPC queued *behind* the envelope on this very connection (a peer serves
  // a remote read from a block it is still faulting in from home), so a
  // blocking wait wedges the connection against its own fill traffic.
  // Unready envelopes are parked here and retried; everything else flows
  // past them. Reordering is safe: replies correlate by seq, and requests
  // from concurrent threads carry no cross-message ordering guarantees.
  std::deque<Envelope> deferred;
  constexpr auto kDeferredPoll = std::chrono::milliseconds(1);
  while (true) {
    std::optional<Envelope> first =
        deferred.empty() ? conn.outbox.receive()
                         : conn.outbox.receive_for(kDeferredPoll);
    if (!first && deferred.empty()) return;  // closed and fully drained
    if (!first && conn.outbox.closed()) {
      // Shutdown with payloads still unready: their producers may be gone;
      // abandoning them here is the same as the connection dying mid-send.
      return;
    }
    std::vector<Envelope> batch;
    for (auto it = deferred.begin(); it != deferred.end();) {
      if (it->data && !it->data->is_ready()) {
        ++it;
      } else {
        batch.push_back(std::move(*it));
        it = deferred.erase(it);
      }
    }
    if (first) batch.push_back(std::move(*first));
    while (batch.size() < kMaxBatch) {
      auto more = conn.outbox.try_receive();
      if (!more) break;
      batch.push_back(std::move(*more));
    }
    std::uint64_t age = proto::kNoAge;
    bool full = false;
    if (summary_) std::tie(age, full) = summary_();
    // Scatter-gather framing: one fixed header buffer per envelope plus an
    // iovec pointing straight into the shared BlockData payload buffer.
    // Payload bytes never copy through an intermediate frame buffer
    // (TransportStats::payload_copies stays 0 — CI-asserted); `sendable`
    // keeps each BlockPtr alive until the writev completes.
    std::vector<Envelope> sendable;
    sendable.reserve(batch.size());
    for (auto& env : batch) {
      if (env.data && !env.data->is_ready()) {
        deferred.push_back(std::move(env));
        continue;
      }
      sendable.push_back(std::move(env));
    }
    if (sendable.empty()) continue;
    std::vector<FrameHeaderBytes> headers;
    headers.reserve(sendable.size());  // reserve: iovecs alias the elements
    std::vector<iovec> iov;
    iov.reserve(sendable.size() * 2);
    std::size_t total = 0;
    for (const Envelope& env : sendable) {
      headers.push_back(encode_frame_header(env, age, full));
      iov.push_back({headers.back().data(), headers.back().size()});
      total += headers.back().size();
      if (env.data && !env.data->bytes.empty()) {
        iov.push_back({const_cast<std::byte*>(env.data->bytes.data()),
                       env.data->bytes.size()});
        total += env.data->bytes.size();
      }
    }
    if (!writev_all(conn.fd, iov.data(), iov.size())) {
      drop_connection(conn.peer, /*frame_error=*/false);
      return;
    }
    util::ScopedLock lock(mu_);
    ++stats_.flushes;
    stats_.bytes_sent += total;
  }
}

void TcpTransport::drop_connection(cache::NodeId peer, bool frame_error) {
  {
    util::ScopedLock lock(mu_);
    Connection* conn = conns_[peer].get();
    if (conn == nullptr || !conn->alive.load(std::memory_order_acquire)) {
      return;  // already dropped
    }
    conn->alive.store(false, std::memory_order_release);
    if (frame_error) ++stats_.frame_errors;
    ::shutdown(conn->fd, SHUT_RDWR);  // unblocks the reader
    conn->outbox.close();             // unblocks the writer
  }
  fail_pending(peer);
}

void TcpTransport::fail_pending(cache::NodeId peer) {
  std::vector<std::shared_ptr<PendingCall>> failed;
  {
    util::ScopedLock lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (peer == cache::kInvalidNode || it->second->dest == peer) {
        it->second->failed = true;
        it->second->done = true;
        failed.push_back(it->second);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& p : failed) p->cv.notify_all();
}

Envelope TcpTransport::call_impl(Envelope env) {
  auto pending = std::make_shared<PendingCall>();
  pending->dest = env.msg.to;
  {
    util::ScopedLock lock(mu_);
    if (closed_) {
      throw TransportError(TransportError::Kind::kShutdown,
                           "transport is shut down");
    }
    env.seq = next_seq_++;
    pending_.emplace(env.seq, pending);
  }
  const std::uint64_t seq = env.seq;
  if (!post(std::move(env))) {
    bool was_closed = false;
    {
      util::ScopedLock lock(mu_);
      pending_.erase(seq);
      was_closed = closed_;
    }
    if (was_closed) {
      throw TransportError(TransportError::Kind::kShutdown,
                           "transport is shut down");
    }
    throw TransportError(TransportError::Kind::kPeerDown,
                         "peer " + std::to_string(pending->dest) +
                             " is unreachable");
  }
  const auto deadline =
      std::chrono::steady_clock::now() + config_.call_timeout;
  util::UniqueLock lock(mu_);
  while (!pending->done) {
    if (pending->cv.wait_until(lock, deadline) == std::cv_status::timeout &&
        !pending->done) {
      pending_.erase(seq);
      ++stats_.rpc_timeouts;
      throw TransportError(TransportError::Kind::kTimeout,
                           "call to peer " + std::to_string(pending->dest) +
                               " timed out after " +
                               std::to_string(config_.call_timeout.count()) +
                               " ms");
    }
  }
  if (pending->failed) {
    throw TransportError(TransportError::Kind::kPeerDown,
                         "peer " + std::to_string(pending->dest) +
                             " dropped while a call was pending");
  }
  ++stats_.rpcs;
  return std::move(pending->reply);
}

bool TcpTransport::post(Envelope env) {
  if (env.msg.to >= config_.nodes) {
    throw std::invalid_argument("TcpTransport: bad destination node");
  }
  if (env.msg.to == config_.local_node) return deliver_local(std::move(env));
  Connection* conn = nullptr;
  {
    util::ScopedLock lock(mu_);
    if (closed_) return false;
    conn = conns_[env.msg.to].get();
    if (conn == nullptr || !conn->alive.load(std::memory_order_acquire)) {
      return false;
    }
    ++stats_.sent;
  }
  const cache::NodeId to = env.msg.to;
  if (!conn->outbox.send_for(std::move(env), config_.send_timeout)) {
    // Stalled past the deadline (or already closing): treat the peer as
    // dead rather than wedging this sender forever.
    drop_connection(to, /*frame_error=*/false);
    return false;
  }
  return true;
}

bool TcpTransport::deliver_local(Envelope env) {
  {
    util::ScopedLock lock(mu_);
    if (closed_) return false;
    ++stats_.sent;
    ++stats_.received;
  }
  if (proto::is_reply(env.msg.kind) && env.seq != 0) {
    route_incoming(std::move(env));
    return true;
  }
  return inbound_.send(std::move(env));
}

std::optional<Envelope> TcpTransport::receive(cache::NodeId node) {
  if (node != config_.local_node) {
    throw std::invalid_argument("TcpTransport: receive for non-local node");
  }
  return inbound_.receive();
}

void TcpTransport::close() {
  if (closed_.exchange(true)) return;
  inbound_.close();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Mark every connection dead under the lock, then join outside it: the
  // reader/writer threads take mu_ themselves on their way out, and after
  // closed_ flips no adopt_connection can add entries, so the snapshot of
  // raw pointers stays valid.
  std::vector<Connection*> live;
  {
    util::ScopedLock lock(mu_);
    for (auto& conn : conns_) {
      if (!conn) continue;
      conn->alive.store(false, std::memory_order_release);
      ::shutdown(conn->fd, SHUT_RDWR);
      conn->outbox.close();
      live.push_back(conn.get());
    }
    mesh_cv_.notify_all();  // a connect_peers() still waiting gives up
  }
  for (Connection* conn : live) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    close_fd(conn->fd);
  }
  close_fd(listen_fd_);
  fail_pending(cache::kInvalidNode);
}

TransportStats TcpTransport::stats() const {
  util::ScopedLock lock(mu_);
  return stats_;
}

std::uint64_t TcpTransport::peer_oldest_age(cache::NodeId n) const {
  return peer_age_[n].load(std::memory_order_relaxed);
}

bool TcpTransport::peer_full(cache::NodeId n) const {
  return peer_full_[n].load(std::memory_order_relaxed);
}

std::size_t TcpTransport::connected_peers() const {
  util::ScopedLock lock(mu_);
  return live_peers_locked();
}

std::size_t TcpTransport::live_peers_locked() const {
  std::size_t live = 0;
  for (const auto& conn : conns_) {
    if (conn && conn->alive.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

}  // namespace coop::net
