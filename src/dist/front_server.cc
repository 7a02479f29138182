#include "dist/front_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "net/protocol.h"
#include "net/server.h"

namespace dfdb {
namespace dist {

namespace {

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

FrontServer::FrontServer(Coordinator* coordinator, FrontServerOptions options)
    : coordinator_(coordinator), options_(std::move(options)) {
  DFDB_CHECK(coordinator != nullptr);
}

FrontServer::~FrontServer() { Stop(); }

Status FrontServer::Start() {
  if (started_) return Status::FailedPrecondition("front server started");
  DFDB_ASSIGN_OR_RETURN(listen_fd_,
                        net::ListenTcp(options_.host, options_.port,
                                       options_.backlog, &port_));
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FrontServer::Stop() {
  if (!started_) return;
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Closing the listen socket kicks accept(); shutting down connection fds
  // kicks their blocked recv() calls.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void FrontServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // Listen socket closed by Stop().
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void FrontServer::ServeConnection(int fd) {
  net::FrameReader reader(options_.max_frame_bytes);
  char buf[64 * 1024];
  bool alive = true;
  while (alive && !stopping_.load()) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    reader.Append(buf, static_cast<size_t>(n));
    for (;;) {
      auto next = reader.Next();
      if (!next.ok()) {
        alive = false;
        break;
      }
      if (!next->has_value()) break;
      const net::Frame& frame = **next;
      const uint32_t rid = frame.header.request_id;
      auto send_error = [&](net::WireError code, std::string_view message) {
        const net::ErrorMessage error{code, std::string(message)};
        return SendAll(fd, net::EncodeErrorFrame(rid, error));
      };
      switch (static_cast<net::Opcode>(frame.header.opcode)) {
        case net::Opcode::kPing:
          alive = SendAll(fd, net::EncodePongFrame(rid));
          break;
        case net::Opcode::kQuery: {
          auto query = net::DecodeQuery(Slice(frame.body));
          if (!query.ok()) {
            alive = send_error(net::WireError::kInvalidRequest,
                               query.status().message());
            break;
          }
          auto result = coordinator_->Execute(query->text);
          if (!result.ok()) {
            alive = send_error(net::StatusToWireError(result.status()),
                               result.status().message());
            break;
          }
          alive = SendAll(fd, net::EncodeSchemaFrame(rid, result->schema));
          const uint32_t width =
              static_cast<uint32_t>(result->schema.tuple_width());
          const size_t batch_bytes =
              std::max<size_t>(width, options_.max_frame_bytes / 2);
          for (size_t off = 0; alive && off < result->tuples.size();) {
            size_t take =
                std::min(batch_bytes, result->tuples.size() - off);
            take -= width == 0 ? 0 : take % width;
            net::RowsBatch batch;
            batch.tuple_width = width;
            batch.num_tuples =
                width == 0 ? 0 : static_cast<uint32_t>(take / width);
            batch.tuples = result->tuples.substr(off, take);
            alive = SendAll(fd, net::EncodeRowsFrame(rid, batch));
            off += take;
          }
          if (alive) {
            net::StatsMessage stats;
            stats.total_rows = result->num_tuples;
            stats.seconds = result->server_seconds;
            stats.counters = result->counters;
            alive = SendAll(fd, net::EncodeStatsFrame(rid, stats));
          }
          break;
        }
        default:
          alive = send_error(net::WireError::kInvalidRequest,
                             "unsupported opcode");
          break;
      }
      if (!alive) break;
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                  conn_fds_.end());
}

}  // namespace dist
}  // namespace dfdb
