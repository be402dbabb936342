// Real socket transport: one process hosts one CCM node; peers are other
// processes reached over TCP (127.0.0.1 in the loopback cluster).
//
// Topology: every process listens; the process with the higher node id
// dials the lower one, so each pair shares exactly one duplex connection.
// Each direction of a connection opens with a handshake (magic, protocol
// version, node id); anything else on the socket is length-prefixed frames
// (net/frame.hpp).
//
// Threads per connection: a reader (deframes and routes — replies complete
// pending call()s, requests land in the inbound mailbox that the default
// serve()'s pump thread drains) and a writer draining a bounded outbox.
// The writer batches: it sleeps until the outbox is non-empty, then drains
// everything queued into ONE buffer and one write syscall — control
// messages that arrive while a flush is in flight coalesce into the next
// one, amortizing syscalls under load without adding idle latency. Outbox
// enqueues use the deadline-bounded Mailbox::send_for as backpressure: a
// peer that stays stalled past the deadline is dropped rather than wedging
// the sender.
//
// Failure model: a malformed frame, a mid-frame EOF, or a stalled outbox
// drops that connection; RPCs pending against the dead peer fail promptly
// with TransportError (kPeerDown, or kTimeout if the peer simply never
// answers within call_timeout), everything else keeps flowing. A peer that
// re-dials after its connection died is adopted back in: adopt_connection
// reaps the dead connection's threads and installs the new socket, which is
// what lets a crashed node rejoin a live mesh.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/transport.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace coop::net {

/// Where to reach a peer node.
struct TcpPeer {
  std::string host;
  std::uint16_t port = 0;
};

struct TcpConfig {
  cache::NodeId local_node = 0;
  std::size_t nodes = 1;
  /// Listening port; 0 binds an ephemeral port (see listen_port()).
  std::uint16_t listen_port = 0;
  std::size_t max_frame_bytes = kDefaultMaxFrame;
  std::size_t outbox_capacity = 1024;
  std::chrono::milliseconds connect_timeout{20000};
  /// Outbox backpressure deadline (Mailbox::send_for).
  std::chrono::milliseconds send_timeout{10000};
  /// call() reply deadline: a call against a peer that stays silent fails
  /// with TransportError::kTimeout instead of blocking forever.
  std::chrono::milliseconds call_timeout{30000};
};

class TcpTransport final : public Transport {
 public:
  /// Binds the listening socket (so the actual port is known before peers
  /// dial) but accepts/dials nothing until connect_peers().
  explicit TcpTransport(const TcpConfig& config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  /// Establishes the full peer mesh: dials every lower-id peer (retrying
  /// until the peer listens), accepts every higher-id one. `peers` is
  /// indexed by node id; the local entry is ignored. Blocks until all
  /// nodes-1 connections are up; throws on timeout.
  void connect_peers(const std::vector<TcpPeer>& peers);

  /// Source of the local node's published cache summary (oldest age,
  /// full), piggybacked on every outgoing flush. Defaults to "unknown".
  void set_summary_source(
      std::function<std::pair<std::uint64_t, bool>()> source);

  bool post(Envelope env) override;
  std::optional<Envelope> receive(cache::NodeId node) override;
  void close() override;
  [[nodiscard]] TransportStats stats() const override;
  [[nodiscard]] std::uint64_t peer_oldest_age(cache::NodeId n) const override;
  [[nodiscard]] bool peer_full(cache::NodeId n) const override;

  /// Live peer connections.
  [[nodiscard]] std::size_t connected_peers() const;

 protected:
  Envelope call_impl(Envelope env) override;

 private:
  struct Connection {
    // fd/peer are set before the reader/writer threads start and are only
    // read afterwards; alive is the atomic liveness flag.
    int fd = -1;
    cache::NodeId peer = cache::kInvalidNode;
    Mailbox<Envelope> outbox;
    std::thread reader;
    std::thread writer;
    std::atomic<bool> alive{false};

    Connection(std::size_t outbox_capacity, cache::NodeId peer_id)
        : peer(peer_id),
          outbox(outbox_capacity,
                 "net.tcp.outbox[" + std::to_string(peer_id) + "]") {}
  };

  struct PendingCall {
    std::condition_variable_any cv;
    // done/failed/reply are written and read under the owning transport's
    // mu_ (inexpressible as GUARDED_BY from a nested struct); dest is set
    // once before the call is registered.
    bool done = false;
    bool failed = false;
    cache::NodeId dest = cache::kInvalidNode;
    Envelope reply;
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  void writer_loop(Connection& conn);
  /// Performs the handshake on a fresh socket; returns the peer's node id
  /// or nullopt (socket closed by the caller on failure).
  std::optional<cache::NodeId> handshake(int fd);
  /// Installs a handshaken socket and signals mesh_cv_.
  void adopt_connection(int fd, cache::NodeId peer);
  void drop_connection(cache::NodeId peer, bool frame_error);
  /// Fails every pending call addressed to `peer` (all peers when
  /// kInvalidNode).
  void fail_pending(cache::NodeId peer);
  bool deliver_local(Envelope env);
  [[nodiscard]] std::size_t live_peers_locked() const REQUIRES(mu_);
  void route_incoming(Envelope env);

  TcpConfig config_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> closed_{false};

  Mailbox<Envelope> inbound_;
  std::function<std::pair<std::uint64_t, bool>()> summary_;

  // Connections table, pending calls, counters. Ordered after the shard
  // locks (a pump thread RPCs through here with its shard held) and
  // before the outbox mailbox locks; never held across a blocking send,
  // a join, or a syscall.
  mutable util::Mutex mu_{"net.tcp.state"};
  std::vector<std::unique_ptr<Connection>> conns_
      GUARDED_BY(mu_);  // indexed by node id
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::map<std::uint64_t, std::shared_ptr<PendingCall>> pending_
      GUARDED_BY(mu_);
  TransportStats stats_ GUARDED_BY(mu_);
  /// Signalled (under mu_) when a connection is adopted or the transport
  /// closes; connect_peers() waits on it for the mesh to complete.
  std::condition_variable_any mesh_cv_;

  /// Piggybacked peer summaries, refreshed on every received frame.
  std::vector<std::atomic<std::uint64_t>> peer_age_;
  std::vector<std::atomic<bool>> peer_full_;
};

}  // namespace coop::net
