#include "util/socket.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

namespace autocat {

namespace {

/** Resolve the endpoint into a sockaddr_in; false for a bad host. */
bool
toSockaddr(const TcpEndpoint &endpoint, sockaddr_in &addr)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint.port);
    const std::string host =
        endpoint.host == "localhost" ? "127.0.0.1" : endpoint.host;
    return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

} // namespace

void
OwnedFd::reset()
{
    if (fd_ >= 0) {
        // Preserve errno: reset() runs on error paths whose errno the
        // caller is about to report.
        const int saved = errno;
        ::close(fd_);
        errno = saved;
        fd_ = -1;
    }
}

std::string
TcpEndpoint::toString() const
{
    return host + ":" + std::to_string(port);
}

TcpEndpoint
parseTcpEndpoint(const std::string &text)
{
    const std::size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= text.size()) {
        throw std::invalid_argument(
            "endpoint '" + text + "' is not of the form host:port");
    }
    TcpEndpoint ep;
    ep.host = text.substr(0, colon);
    const std::string port_text = text.substr(colon + 1);
    char *end = nullptr;
    errno = 0;
    const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
    if (errno != 0 || end == port_text.c_str() || *end != '\0' ||
        port > 65535) {
        throw std::invalid_argument("endpoint '" + text +
                                    "' has an invalid port");
    }
    ep.port = static_cast<std::uint16_t>(port);
    sockaddr_in probe;
    if (!toSockaddr(ep, probe))
        throw std::invalid_argument(
            "endpoint '" + text +
            "' host must be numeric IPv4 (or \"localhost\")");
    return ep;
}

OwnedFd
tcpListen(const TcpEndpoint &endpoint, std::uint16_t &bound_port,
          int backlog)
{
    sockaddr_in addr;
    if (!toSockaddr(endpoint, addr)) {
        errno = EINVAL;
        return OwnedFd();
    }
    OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return OwnedFd();
    const int one = 1;
    ::setsockopt(fd.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd.fd(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd.fd(), backlog) != 0) {
        return OwnedFd();
    }
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.fd(), reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0) {
        return OwnedFd();
    }
    bound_port = ntohs(bound.sin_port);
    return fd;
}

OwnedFd
tcpAccept(int listen_fd, int timeout_ms)
{
    if (!waitReadable(listen_fd, timeout_ms))
        return OwnedFd();
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0)
        return OwnedFd();
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return OwnedFd(fd);
}

OwnedFd
tcpConnect(const TcpEndpoint &endpoint, int timeout_ms, bool &refused)
{
    refused = false;
    sockaddr_in addr;
    if (!toSockaddr(endpoint, addr)) {
        errno = EINVAL;
        return OwnedFd();
    }
    // Close-on-exec: a local worker the scheduler spawns later must not
    // hold this connection open after the scheduler closes it.
    OwnedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid())
        return OwnedFd();
    // Non-blocking connect so the timeout is enforceable, restored to
    // blocking before handing the fd back.
    if (!setNonBlocking(fd.fd()))
        return OwnedFd();
    int rc = ::connect(fd.fd(), reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
        refused = errno == ECONNREFUSED;
        return OwnedFd();
    }
    if (rc != 0) {
        pollfd pfd{fd.fd(), POLLOUT, 0};
        do {
            rc = ::poll(&pfd, 1, timeout_ms);
        } while (rc < 0 && errno == EINTR);
        if (rc <= 0) {
            errno = rc == 0 ? ETIMEDOUT : errno;
            return OwnedFd();
        }
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd.fd(), SOL_SOCKET, SO_ERROR, &err, &len) !=
                0 ||
            err != 0) {
            errno = err != 0 ? err : errno;
            refused = err == ECONNREFUSED;
            return OwnedFd();
        }
    }
    const int flags = ::fcntl(fd.fd(), F_GETFL);
    if (flags < 0 ||
        ::fcntl(fd.fd(), F_SETFL, flags & ~O_NONBLOCK) != 0) {
        return OwnedFd();
    }
    const int one = 1;
    ::setsockopt(fd.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
sendAll(int fd, const void *data, std::size_t size)
{
    const char *p = static_cast<const char *>(data);
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::send(fd, p + off, size - off, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

long
recvSome(int fd, void *data, std::size_t size)
{
    for (;;) {
        const ssize_t n = ::recv(fd, data, size, 0);
        if (n < 0 && errno == EINTR)
            continue;
        return static_cast<long>(n);
    }
}

bool
waitReadable(int fd, int timeout_ms)
{
    pollfd pfd{fd, POLLIN, 0};
    // EINTR falls through as "not readable" deliberately: accept loops
    // use the early return to re-check their shutdown flags.
    const int rc = ::poll(&pfd, 1, timeout_ms);
    return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void
ignoreSigpipe()
{
    ::signal(SIGPIPE, SIG_IGN);
}

} // namespace autocat
