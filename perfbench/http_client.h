// A blocking keep-alive HTTP/1.1 client connection: just enough of the
// protocol to drive net::HttpServer -- write one request, read one
// Content-Length-framed response -- with no allocation per request beyond
// growing its receive buffer to the largest response seen.

#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

namespace perfbench {

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Reads one response. Returns its HTTP status (-1 on a stream or framing
  /// error); body() then views the response body until the next call.
  int ReadResponse() {
    buf_.erase(0, consumed_);
    consumed_ = 0;
    body_ = {};
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return -1;
    }
    static constexpr std::string_view kLength = "Content-Length: ";
    const size_t clen = buf_.find(kLength);
    if (clen == std::string::npos || clen > head_end) return -1;
    const size_t body_len = static_cast<size_t>(
        std::strtoul(buf_.c_str() + clen + kLength.size(), nullptr, 10));
    const size_t total = head_end + 4 + body_len;
    while (buf_.size() < total) {
      if (!Fill()) return -1;
    }
    consumed_ = total;
    body_ = std::string_view(buf_).substr(head_end + 4, body_len);
    return std::atoi(buf_.c_str() + std::strlen("HTTP/1.1 "));
  }

  std::string_view body() const { return body_; }

 private:
  bool Fill() {
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
  size_t consumed_ = 0;
  std::string_view body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
