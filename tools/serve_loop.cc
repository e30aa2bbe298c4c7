#include "tools/serve_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "common/timer.h"
#include "tools/cli_commands.h"

namespace spidermine::cli {

namespace {

// ------------------------------------------------------------- JSON parse

/// Shared cursor of the line parser; every error reports the byte offset.
struct JsonCursor {
  std::string_view text;
  size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r' ||
            text[pos] == '\n')) {
      ++pos;
    }
  }
  bool AtEnd() {
    SkipWs();
    return pos >= text.size();
  }
  Status Fail(std::string_view what) const {
    return Status::InvalidArgument(
        StrCat("bad JSON request at byte ", pos, ": ", what));
  }
};

/// Parses a JSON string literal (cursor on the opening quote). Handles the
/// standard escapes including \uXXXX for BMP code points (encoded as
/// UTF-8); surrogate pairs are rejected — the serve protocol has no use
/// for astral-plane identifiers and the restriction keeps the parser
/// obviously correct.
Result<std::string> ParseString(JsonCursor* c) {
  if (c->pos >= c->text.size() || c->text[c->pos] != '"') {
    return c->Fail("expected '\"'");
  }
  ++c->pos;
  std::string out;
  while (true) {
    if (c->pos >= c->text.size()) return c->Fail("unterminated string");
    char ch = c->text[c->pos];
    if (ch == '"') {
      ++c->pos;
      return out;
    }
    if (static_cast<unsigned char>(ch) < 0x20) {
      return c->Fail("raw control character inside string");
    }
    if (ch != '\\') {
      out.push_back(ch);
      ++c->pos;
      continue;
    }
    ++c->pos;
    if (c->pos >= c->text.size()) return c->Fail("unterminated escape");
    char esc = c->text[c->pos];
    ++c->pos;
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (c->pos + 4 > c->text.size()) return c->Fail("truncated \\u escape");
        uint32_t code = 0;
        for (int i = 0; i < 4; ++i) {
          char h = c->text[c->pos + static_cast<size_t>(i)];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<uint32_t>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<uint32_t>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<uint32_t>(h - 'A' + 10);
          else return c->Fail("non-hex digit in \\u escape");
        }
        c->pos += 4;
        if (code >= 0xD800 && code <= 0xDFFF) {
          return c->Fail("surrogate-pair \\u escapes are not supported");
        }
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        return c->Fail(StrCat("unknown escape '\\", std::string(1, esc), "'"));
    }
  }
}

Result<JsonValue> ParseValue(JsonCursor* c) {
  c->SkipWs();
  if (c->pos >= c->text.size()) return c->Fail("expected a value");
  JsonValue value;
  char ch = c->text[c->pos];
  if (ch == '"') {
    SM_ASSIGN_OR_RETURN(value.string_value, ParseString(c));
    value.kind = JsonValue::Kind::kString;
    return value;
  }
  if (ch == '{' || ch == '[') {
    return c->Fail(
        "nested objects/arrays are not part of the serve request schema "
        "(flat key/value objects only; see docs/CLI.md)");
  }
  auto literal = [c](std::string_view word) {
    return c->text.substr(c->pos, word.size()) == word;
  };
  if (literal("true")) {
    c->pos += 4;
    value.kind = JsonValue::Kind::kBool;
    value.bool_value = true;
    return value;
  }
  if (literal("false")) {
    c->pos += 5;
    value.kind = JsonValue::Kind::kBool;
    value.bool_value = false;
    return value;
  }
  if (literal("null")) {
    c->pos += 4;
    value.kind = JsonValue::Kind::kNull;
    return value;
  }
  // Number. The token is matched against the JSON number grammar first —
  // strtod alone would also accept inf/nan/hex, which are not JSON and
  // would be echoed back as invalid response lines.
  const std::string_view text = c->text;
  size_t p = c->pos;
  auto digit = [&text](size_t i) {
    return i < text.size() && text[i] >= '0' && text[i] <= '9';
  };
  if (p < text.size() && text[p] == '-') ++p;
  const size_t int_begin = p;
  while (digit(p)) ++p;
  if (p == int_begin) return c->Fail("expected a value");
  if (p < text.size() && text[p] == '.') {
    ++p;
    const size_t frac_begin = p;
    while (digit(p)) ++p;
    if (p == frac_begin) return c->Fail("digits required after '.'");
  }
  if (p < text.size() && (text[p] == 'e' || text[p] == 'E')) {
    ++p;
    if (p < text.size() && (text[p] == '+' || text[p] == '-')) ++p;
    const size_t exp_begin = p;
    while (digit(p)) ++p;
    if (p == exp_begin) return c->Fail("digits required in exponent");
  }
  const std::string token(text.substr(c->pos, p - c->pos));
  double parsed = std::strtod(token.c_str(), nullptr);
  if (!std::isfinite(parsed)) return c->Fail("number out of range");
  c->pos = p;
  value.kind = JsonValue::Kind::kNumber;
  value.number_value = parsed;
  return value;
}

const JsonValue* Find(const JsonObject& object, std::string_view key) {
  auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

// ------------------------------------------------------------ JSON render

/// Renders a number the way the protocol echoes ids: integers without a
/// fraction, everything else with enough digits to round-trip.
std::string NumberToJson(double value) {
  if (value == std::floor(value) && std::abs(value) < 9.0e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ValueToJson(const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return value.bool_value ? "true" : "false";
    case JsonValue::Kind::kNumber: return NumberToJson(value.number_value);
    case JsonValue::Kind::kString:
      return StrCat("\"", EscapeJsonString(value.string_value), "\"");
  }
  return "null";
}

/// The response "id": the request's id verbatim, or null when the request
/// carried none (or did not parse far enough to have one). The fallback
/// is deliberately NOT the request sequence number — that could collide
/// with another request's explicit numeric id; the separate "line" field
/// is the always-unambiguous correlation key.
std::string RenderId(const JsonValue* id) {
  return id != nullptr ? ValueToJson(*id) : "null";
}

/// The response envelope shared by every response shape: the echoed id
/// plus the 1-based request line number.
std::string ResponseHead(const std::string& id_json, int64_t line) {
  return StrCat("{\"id\":", id_json, ",\"line\":", line);
}

std::string ErrorResponse(const std::string& id_json, int64_t line,
                          const Status& status) {
  return StrCat(ResponseHead(id_json, line), ",\"ok\":false,\"error\":\"",
                EscapeJsonString(status.ToString()), "\"}");
}

/// The deterministic middle of an "ok" response — everything between the
/// per-request envelope (id, line) and the per-request timing (seconds,
/// timed_out): the patterns array and its count. Byte-deterministic for a
/// given (query, Stage I artifact) pair, which is exactly what the result
/// cache stores and replays.
std::string OkBody(const QueryResult& result) {
  std::string body = ",\"ok\":true,\"patterns\":[";
  for (size_t i = 0; i < result.patterns.size(); ++i) {
    const MinedPattern& p = result.patterns[i];
    if (i > 0) body += ",";
    body += StrCat("{\"vertices\":", p.NumVertices(),
                   ",\"edges\":", p.NumEdges(), ",\"support\":", p.support,
                   ",\"pattern\":\"", EscapeJsonString(p.pattern.ToString()),
                   "\"}");
  }
  body += StrCat("],\"count\":", result.patterns.size());
  return body;
}

/// Assembles a full "ok" response line around a (possibly cached) body.
std::string OkResponseFromBody(const std::string& id_json,
                               int64_t request_line, const std::string& body,
                               double seconds, bool timed_out) {
  char seconds_text[32];
  std::snprintf(seconds_text, sizeof(seconds_text), "%.6f", seconds);
  return StrCat(ResponseHead(id_json, request_line), body,
                ",\"seconds\":", seconds_text,
                ",\"timed_out\":", timed_out ? "true" : "false", "}");
}

/// One executed request: the rendered response line and whether it is an
/// "ok" one.
struct Executed {
  std::string response;
  bool ok = false;
};

/// Runs one admitted query against the session, consulting \p cache
/// first. A hit replays the cached deterministic body (bypassing RunQuery
/// entirely); a miss computes, then caches the body unless the query
/// timed out (a truncated result is wall-clock-dependent, so replaying it
/// would pin one machine's bad luck forever).
Executed ExecuteQuery(const MiningSession& session, ResultCache* cache,
                      const TopKQuery& query, const std::string& id_json,
                      int64_t line) {
  WallTimer timer;
  const bool use_cache = cache != nullptr && cache->enabled();
  ResultCache::Key key;
  if (use_cache) {
    key.query_hash = query.CanonicalHash(session.config().min_support,
                                         session.graph().NumVertices());
    key.stage1_key = session.stage1_content_key();
    if (std::optional<std::string> hit = cache->Lookup(key)) {
      return Executed{OkResponseFromBody(id_json, line, *hit,
                                         timer.ElapsedSeconds(),
                                         /*timed_out=*/false),
                      /*ok=*/true};
    }
  }
  Result<QueryResult> result = session.RunQuery(query);
  const double seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    return Executed{ErrorResponse(id_json, line, result.status()), false};
  }
  std::string body = OkBody(*result);
  if (use_cache && !result->stats.timed_out) cache->Insert(key, body);
  return Executed{OkResponseFromBody(id_json, line, body, seconds,
                                     result->stats.timed_out),
                  /*ok=*/true};
}

/// The session's serving aggregate with the result cache's counters folded
/// in (the cache lives beside the session, so the session's own snapshot
/// leaves them at 0) — what every summary line renders.
SessionServingStats SnapshotWithCache(const MiningSession& session,
                                      const ResultCache* cache) {
  SessionServingStats snapshot = session.serving_stats();
  if (cache != nullptr) snapshot.cache = cache->stats();
  return snapshot;
}

}  // namespace

Result<JsonObject> ParseJsonObject(std::string_view line) {
  JsonCursor c{line};
  c.SkipWs();
  if (c.pos >= c.text.size() || c.text[c.pos] != '{') {
    return c.Fail("expected '{' (one JSON object per line)");
  }
  ++c.pos;
  JsonObject object;
  c.SkipWs();
  if (c.pos < c.text.size() && c.text[c.pos] == '}') {
    ++c.pos;
  } else {
    while (true) {
      c.SkipWs();
      SM_ASSIGN_OR_RETURN(std::string key, ParseString(&c));
      c.SkipWs();
      if (c.pos >= c.text.size() || c.text[c.pos] != ':') {
        return c.Fail("expected ':' after key");
      }
      ++c.pos;
      SM_ASSIGN_OR_RETURN(JsonValue value, ParseValue(&c));
      if (!object.emplace(std::move(key), std::move(value)).second) {
        return c.Fail("duplicate key");
      }
      c.SkipWs();
      if (c.pos >= c.text.size()) return c.Fail("unterminated object");
      if (c.text[c.pos] == ',') {
        ++c.pos;
        continue;
      }
      if (c.text[c.pos] == '}') {
        ++c.pos;
        break;
      }
      return c.Fail("expected ',' or '}'");
    }
  }
  if (!c.AtEnd()) return c.Fail("trailing garbage after object");
  return object;
}

std::string EscapeJsonString(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char ch : raw) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buffer;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

Result<TopKQuery> QueryFromJson(const JsonObject& request) {
  TopKQuery query;
  for (const auto& [key, value] : request) {
    if (key == "id" || key == "cmd") continue;  // the protocol envelope
    const QueryParam* param = FindQueryParam(key);
    if (param == nullptr) {
      return Status::InvalidArgument(
          StrCat("unknown request key \"", key,
                 "\" (see the serve schema in docs/CLI.md)"));
    }
    auto must_be = [&key](std::string_view what) {
      return Status::InvalidArgument(StrCat("\"", key, "\" must be ", what));
    };
    auto read = [&](auto member) -> Status {
      using T = std::remove_cvref_t<decltype(query.*member)>;
      T& field = query.*member;
      if constexpr (std::is_same_v<T, bool>) {
        if (value.kind != JsonValue::Kind::kBool) return must_be("a boolean");
        field = value.bool_value;
      } else if constexpr (std::is_same_v<T, SupportMeasureKind>) {
        if (value.kind != JsonValue::Kind::kString) return must_be("a string");
        SM_ASSIGN_OR_RETURN(field, ParseMeasure(value.string_value));
      } else if (value.kind != JsonValue::Kind::kNumber) {
        return must_be("a number");
      } else if constexpr (std::is_same_v<T, double>) {
        field = value.number_value;
      } else {
        // Integral numbers up to 9e15 are integers, so 1e3 means 1000.
        const double d = value.number_value;
        if (d != std::floor(d) || std::abs(d) > 9.0e15) {
          return must_be("an integer");
        }
        if constexpr (std::is_same_v<T, int32_t>) {
          SM_ASSIGN_OR_RETURN(
              field, CheckedInt32(static_cast<int64_t>(d), key, "\""));
        } else {
          field = static_cast<T>(static_cast<int64_t>(d));
        }
      }
      return Status::Ok();
    };
    SM_RETURN_NOT_OK(std::visit(read, param->member));
  }
  return query;
}

namespace {

// ------------------------------------------------------------- the server
//
// One event-loop thread owns every fd (listeners, connections, the wakeup
// pipe) and all connection state; max_inflight worker threads own nothing
// but the job they are executing. Workers hand finished responses back
// through a mutex-guarded completion vector and a self-pipe byte, so all
// writes happen on the loop thread — no fd is ever touched from two
// threads. The loop waits in poll(): it serves a handful of fds, and
// unlike epoll, poll() accepts a regular file (`serve < requests.jsonl`).

/// Sets O_NONBLOCK on \p fd. False when fcntl fails.
bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Binds + listens on a unix socket, replacing only a genuinely stale
/// *socket* at the path — a typo'd --socket pointing at a regular file
/// must not delete it.
Result<int> ListenUnix(const std::string& socket_path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(address.sun_path)) {
    return Status::InvalidArgument(
        StrCat("socket path is too long for sun_path (", socket_path.size(),
               " >= ", sizeof(address.sun_path), ")"));
  }
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  struct stat existing{};
  if (::lstat(socket_path.c_str(), &existing) == 0) {
    if (!S_ISSOCK(existing.st_mode)) {
      return Status::InvalidArgument(
          StrCat("refusing to replace ", socket_path,
                 ": it exists and is not a socket"));
    }
    ::unlink(socket_path.c_str());
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    return Status::IoError(StrCat("socket(): ", std::strerror(errno)));
  }
  if (::bind(listener, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listener, 64) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listener);
    return Status::IoError(StrCat("bind/listen(", socket_path, "): ", detail));
  }
  return listener;
}

/// Binds + listens on 127.0.0.1:\p port (0 = ephemeral) and reports the
/// actually bound port through \p bound_port.
Result<int> ListenTcp(int32_t port, int32_t* bound_port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    return Status::IoError(StrCat("socket(tcp): ", std::strerror(errno)));
  }
  const int reuse = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listener, 64) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listener);
    return Status::IoError(
        StrCat("bind/listen(127.0.0.1:", port, "): ", detail));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listener);
    return Status::IoError(StrCat("getsockname(): ", detail));
  }
  *bound_port = static_cast<int32_t>(ntohs(bound.sin_port));
  return listener;
}

/// Per-connection state, owned by the loop thread. `id` (not the fd) is
/// the identity completions carry back: fds are reused by the kernel the
/// moment a connection closes, ids never are.
struct ServerConnection {
  int in_fd = -1;            ///< requests are read here
  int out_fd = -1;           ///< responses are written here (a socket: in_fd)
  bool stream = false;       ///< the caller's fd pair, not an accepted socket
  std::string read_buffer;   ///< bytes received, not yet newline-framed
  std::string write_buffer;  ///< rendered responses; see write_offset
  size_t write_offset = 0;   ///< write_buffer bytes the kernel already took
  int64_t physical_line = 0; ///< 1-based request line counter (per conn)
  int64_t inflight = 0;      ///< this connection's executing queries
  bool read_open = true;     ///< false after EOF / read error / oversize /
                             ///< the shutdown line
  bool write_ok = true;      ///< false after a write error (EPIPE etc.)

  bool pending_output() const {
    return write_ok && write_offset < write_buffer.size();
  }
};

/// A request line longer than this is a protocol violation, answered once
/// and then the connection is dropped — an unframed client must not grow
/// the buffer without bound.
constexpr size_t kMaxRequestBytes = 1 << 20;

}  // namespace

Status RunServeServer(const MiningSession& session,
                      const ServeTransportOptions& transport,
                      std::ostream& err, const ServeOptions& options,
                      ServeStats* stats) {
  if (options.max_inflight < 1) {
    return Status::InvalidArgument(
        StrCat("max_inflight must be >= 1 (got ", options.max_inflight, ")"));
  }
  const bool has_stream = transport.stream_in_fd >= 0;
  if (has_stream != (transport.stream_out_fd >= 0)) {
    return Status::InvalidArgument(
        "the serve stream needs both an input and an output fd");
  }
  const bool has_listener =
      !transport.socket_path.empty() || transport.tcp_port >= 0;
  if (has_stream == has_listener) {
    return Status::InvalidArgument(
        "the serve server needs either a stream fd pair or listeners (a "
        "unix socket path and/or a TCP port), not both");
  }
  // A client that disconnects mid-response must surface as an EPIPE return
  // value on this connection, not kill the whole server.
  ::signal(SIGPIPE, SIG_IGN);

  int unix_listener = -1;
  int tcp_listener = -1;
  ServeEndpoints endpoints;
  auto close_listeners = [&] {
    for (int* listener : {&unix_listener, &tcp_listener}) {
      if (*listener >= 0) ::close(*listener);
      *listener = -1;
    }
  };
  auto unlink_socket = [&] {
    if (!transport.socket_path.empty()) {
      ::unlink(transport.socket_path.c_str());
    }
  };
  if (!transport.socket_path.empty()) {
    SM_ASSIGN_OR_RETURN(unix_listener, ListenUnix(transport.socket_path));
    endpoints.socket_path = transport.socket_path;
  }
  if (transport.tcp_port >= 0) {
    Result<int> tcp = ListenTcp(transport.tcp_port, &endpoints.tcp_port);
    if (!tcp.ok()) {
      close_listeners();
      unlink_socket();
      return tcp.status();
    }
    tcp_listener = *tcp;
  }
  for (int listener : {unix_listener, tcp_listener}) {
    if (listener >= 0) (void)SetNonBlocking(listener);
  }

  // Workers hand completions back through this pipe: one byte per batch is
  // enough (the loop drains the whole completion vector per wakeup).
  int wake_fds[2] = {-1, -1};
  if (::pipe(wake_fds) != 0) {
    const std::string detail = std::strerror(errno);
    close_listeners();
    unlink_socket();
    return Status::IoError(StrCat("pipe(): ", detail));
  }
  (void)SetNonBlocking(wake_fds[0]);
  (void)SetNonBlocking(wake_fds[1]);

  if (unix_listener >= 0 || tcp_listener >= 0) {
    err << "serve: listening on";
    if (unix_listener >= 0) err << " unix socket " << endpoints.socket_path;
    if (unix_listener >= 0 && tcp_listener >= 0) err << " and";
    if (tcp_listener >= 0) err << " tcp 127.0.0.1:" << endpoints.tcp_port;
    err << " (send {\"cmd\":\"shutdown\"} to stop)\n";
  }
  if (transport.on_ready) transport.on_ready(endpoints);

  // ----- worker pool: max_inflight threads, a job queue, a completion
  // vector. Admission happens on the loop thread: a socket query only
  // while fewer than max_inflight run in all, a stream query while fewer
  // than max_inflight of the stream's own run.
  struct ServerJob {
    int64_t conn_id = 0;
    int64_t line = 0;
    std::string id_json;
    TopKQuery query;
  };
  struct Completion {
    int64_t conn_id = 0;
    std::string response;
    bool ok = false;
  };
  std::deque<ServerJob> jobs;
  std::mutex jobs_mu;
  std::condition_variable jobs_cv;
  bool jobs_closed = false;
  std::vector<Completion> completions;
  std::mutex completions_mu;

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(options.max_inflight));
  for (int32_t w = 0; w < options.max_inflight; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        ServerJob job;
        {
          std::unique_lock<std::mutex> lock(jobs_mu);
          jobs_cv.wait(lock, [&] { return !jobs.empty() || jobs_closed; });
          if (jobs.empty()) return;  // closed and drained
          job = std::move(jobs.front());
          jobs.pop_front();
        }
        Executed executed = ExecuteQuery(session, options.cache, job.query,
                                         job.id_json, job.line);
        {
          std::lock_guard<std::mutex> lock(completions_mu);
          completions.push_back(Completion{job.conn_id,
                                           std::move(executed.response),
                                           executed.ok});
        }
        // EAGAIN means a wakeup byte is already pending — good enough.
        ssize_t n;
        do {
          n = ::write(wake_fds[1], "x", 1);
        } while (n < 0 && errno == EINTR);
      }
    });
  }

  // ----- loop state (loop-thread-only; no locks needed).
  std::unordered_map<int64_t, ServerConnection> connections;
  int64_t next_conn_id = 1;
  int64_t global_inflight = 0;
  bool shutting_down = false;
  bool shutdown_acked = false;
  int64_t shutdown_conn = -1;
  std::string shutdown_id_json = "null";
  int64_t shutdown_line = 0;
  WallTimer timer;
  WallTimer drain_timer;  // restarted when the shutdown ack is emitted
  ServeStats local;
  Status status = Status::Ok();

  if (has_stream) {
    // The stream fds stay as the caller set them (blocking, normally):
    // poll() reports input before each single read, and a blocking write
    // holds the loop until the caller's reader takes the response.
    ServerConnection stream;
    stream.in_fd = transport.stream_in_fd;
    stream.out_fd = transport.stream_out_fd;
    stream.stream = true;
    connections.emplace(next_conn_id++, std::move(stream));
  }

  auto find_conn = [&](int64_t conn_id) -> ServerConnection* {
    auto it = connections.find(conn_id);
    return it == connections.end() ? nullptr : &it->second;
  };

  // Pushes queued bytes out until the fd would block. A write failure
  // (EPIPE after SIG_IGN, ECONNRESET) kills the write side only; close
  // bookkeeping happens in maybe_close.
  auto flush_writes = [](ServerConnection& conn) {
    while (conn.pending_output()) {
      const ssize_t n =
          ::write(conn.out_fd, conn.write_buffer.data() + conn.write_offset,
                  conn.write_buffer.size() - conn.write_offset);
      if (n > 0) {
        conn.write_offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      conn.write_ok = false;
    }
    conn.write_buffer.clear();
    conn.write_offset = 0;
  };

  /// Queues one response line on a connection (dropped silently when the
  /// connection died first — the counters still record the outcome).
  auto emit = [&](ServerConnection* conn, const std::string& response,
                  bool answered) {
    ++(answered ? local.answered : local.errors);
    if (conn == nullptr || !conn->write_ok) return;
    conn->write_buffer.append(response);
    conn->write_buffer.push_back('\n');
    flush_writes(*conn);
  };

  /// Forgets a connection once nothing more can happen on it: the write
  /// side is dead, or the client is gone and every admitted query has been
  /// answered and flushed. Only accepted sockets are closed; the stream
  /// fds stay the caller's.
  auto maybe_close = [&](int64_t conn_id) {
    auto it = connections.find(conn_id);
    if (it == connections.end()) return;
    const ServerConnection& conn = it->second;
    if (conn.inflight > 0) return;
    if (conn_id == shutdown_conn && !shutdown_acked) return;  // ack owed
    if (conn.write_ok && (conn.read_open || conn.pending_output())) return;
    if (!conn.stream) ::close(conn.in_fd);
    connections.erase(it);
  };

  /// The "overloaded" hint: the session's observed mean query latency in
  /// milliseconds (clamped to [10ms, 60s]; 100ms before any history).
  auto retry_after_ms = [&] {
    SessionServingStats snapshot = session.serving_stats();
    double mean_seconds =
        snapshot.queries_run > 0
            ? snapshot.query_totals.total_seconds /
                  static_cast<double>(snapshot.queries_run)
            : 0.1;
    return std::clamp<int64_t>(static_cast<int64_t>(mean_seconds * 1000.0),
                               10, 60000);
  };

  /// Handles one framed request line of one connection, whatever its
  /// transport. Returns false for the shutdown line: it is the last line
  /// read from its connection.
  auto process_line = [&](int64_t conn_id, ServerConnection& conn,
                          std::string_view text) {
    ++conn.physical_line;
    if (StripAsciiWhitespace(text).empty()) return true;
    ++local.requests;
    auto reply_error = [&](const std::string& id_json, const Status& error) {
      emit(&conn, ErrorResponse(id_json, conn.physical_line, error), false);
    };
    Result<JsonObject> request = ParseJsonObject(text);
    if (!request.ok()) {
      reply_error("null", request.status());
      return true;
    }
    const std::string id_json = RenderId(Find(*request, "id"));
    if (const JsonValue* cmd = Find(*request, "cmd")) {
      if (cmd->kind != JsonValue::Kind::kString ||
          cmd->string_value != "shutdown") {
        reply_error(id_json, Status::InvalidArgument(
                                 "unknown \"cmd\" (only \"shutdown\" exists)"));
        return true;
      }
      if (shutting_down) {
        reply_error(id_json,
                    Status::InvalidArgument("shutdown already in progress"));
        return true;
      }
      // Stop accepting (listeners close now, so new connects fail fast),
      // drain every in-flight query, then acknowledge — the ack is the
      // requester's final line.
      shutting_down = true;
      local.shutdown_requested = true;
      shutdown_conn = conn_id;
      shutdown_id_json = id_json;
      shutdown_line = conn.physical_line;
      close_listeners();
      return false;
    }
    Result<TopKQuery> query = QueryFromJson(*request);
    if (!query.ok()) {
      reply_error(id_json, query.status());
      return true;
    }
    if (shutting_down) {
      reply_error(id_json,
                  Status::InvalidArgument("server is shutting down"));
      return true;
    }
    if (!conn.stream && global_inflight >= options.max_inflight) {
      // The socket admission gate: reject instead of queueing, so a burst
      // can never build an unbounded backlog and the client learns to
      // back off immediately. (The stream never gets here at the cap: it
      // stops framing instead.)
      ++local.rejected;
      emit(&conn,
           StrCat(ResponseHead(id_json, conn.physical_line),
                  ",\"ok\":false,\"error\":\"overloaded\","
                  "\"retry_after_ms\":", retry_after_ms(), "}"),
           false);
      return true;
    }
    ++global_inflight;
    ++conn.inflight;
    {
      std::lock_guard<std::mutex> lock(jobs_mu);
      jobs.push_back(ServerJob{conn_id, conn.physical_line, id_json,
                               *std::move(query)});
    }
    jobs_cv.notify_one();
    return true;
  };

  /// Whether \p conn may frame (and read) its next line now: not once its
  /// output is dead (nobody would read the answers); the stream waits while
  /// max_inflight of its queries run, sockets never wait.
  auto may_frame = [&](const ServerConnection& conn) {
    return conn.write_ok &&
           (!conn.stream || conn.inflight < options.max_inflight);
  };

  /// Processes every complete line buffered on a connection, and after
  /// EOF a final unterminated one too (as std::getline would).
  auto frame_lines = [&](int64_t conn_id, ServerConnection& conn) {
    size_t start = 0;
    while (may_frame(conn) && start < conn.read_buffer.size()) {
      size_t end = conn.read_buffer.find('\n', start);
      if (end == std::string::npos) {
        if (conn.read_open) break;
        end = conn.read_buffer.size();
      }
      const std::string_view text =
          std::string_view(conn.read_buffer).substr(start, end - start);
      start = end + 1;
      if (!process_line(conn_id, conn, text)) {
        conn.read_open = false;
        conn.read_buffer.clear();
        return;
      }
    }
    conn.read_buffer.erase(0, std::min(start, conn.read_buffer.size()));
  };

  /// One read per readiness event. EOF (or a read error, or an oversize
  /// line) closes the read side; queries already admitted still complete
  /// and flush before the connection is forgotten.
  auto handle_readable = [&](int64_t conn_id, ServerConnection& conn) {
    char buffer[1 << 16];
    ssize_t n;
    do {
      n = ::read(conn.in_fd, buffer, sizeof(buffer));
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      conn.read_buffer.append(buffer, static_cast<size_t>(n));
      if (conn.read_buffer.size() > kMaxRequestBytes &&
          conn.read_buffer.find('\n') == std::string::npos) {
        ++conn.physical_line;
        ++local.requests;
        emit(&conn,
             ErrorResponse("null", conn.physical_line,
                           Status::InvalidArgument(StrCat(
                               "request line exceeds ", kMaxRequestBytes,
                               " bytes"))),
             false);
        conn.read_open = false;
        conn.read_buffer.clear();
      }
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      conn.read_open = false;  // EOF, or ECONNRESET and friends
    }
    frame_lines(conn_id, conn);
  };

  /// Accepts every pending connection on a listener (level-triggered:
  /// accept until EAGAIN).
  auto handle_accept = [&](int listener) {
    for (;;) {
      int fd;
      do {
        fd = ::accept(listener, nullptr, nullptr);
      } while (fd < 0 && errno == EINTR);
      if (fd < 0) break;  // EAGAIN, or a transient accept error: retry later
      if (!SetNonBlocking(fd)) {
        ::close(fd);
        continue;
      }
      ServerConnection conn;
      conn.in_fd = fd;
      conn.out_fd = fd;
      connections.emplace(next_conn_id++, std::move(conn));
    }
  };

  /// Applies finished queries: write their responses, release admission
  /// slots, resume a stream that waited for one. Loop thread only.
  auto drain_completions = [&] {
    char discard[64];
    ssize_t n;
    do {
      n = ::read(wake_fds[0], discard, sizeof(discard));
    } while (n > 0 || (n < 0 && errno == EINTR));
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completions_mu);
      batch.swap(completions);
    }
    for (Completion& completion : batch) {
      --global_inflight;
      ServerConnection* conn = find_conn(completion.conn_id);
      if (conn != nullptr) --conn->inflight;
      emit(conn, completion.response, completion.ok);
      if (conn != nullptr) frame_lines(completion.conn_id, *conn);
      maybe_close(completion.conn_id);
    }
  };

  // ----- the event loop. Interest is rebuilt from connection state each
  // round: a connection with output the kernel has not taken waits to
  // write and reads nothing, which bounds every write buffer.
  std::vector<pollfd> fds;
  std::vector<int64_t> owners;  // per fds entry: conn id; 0 wake; -1 listener
  auto watch = [&](int fd, short events, int64_t owner) {
    fds.push_back(pollfd{fd, events, 0});
    owners.push_back(owner);
  };
  while (status.ok()) {
    // Shutdown completes in two steps: ack once the last in-flight query
    // finished, then exit once every connection's responses are flushed
    // (for sockets bounded by a drain deadline, so one stuck client can't
    // wedge exit; the stream is the caller's own pipe and is never cut).
    if (shutting_down && !shutdown_acked && global_inflight == 0) {
      shutdown_acked = true;
      emit(find_conn(shutdown_conn),
           StrCat(ResponseHead(shutdown_id_json, shutdown_line),
                  ",\"ok\":true,\"shutdown\":true}"),
           true);
      maybe_close(shutdown_conn);
      drain_timer.Restart();
    }
    if (shutdown_acked) {
      const bool pending =
          std::any_of(connections.begin(), connections.end(),
                      [](const auto& entry) {
                        return entry.second.pending_output();
                      });
      if (!pending || (!has_stream && drain_timer.ElapsedSeconds() > 5.0)) {
        break;
      }
    } else if (unix_listener < 0 && tcp_listener < 0 && connections.empty()) {
      break;  // the stream reached EOF and was answered in full
    }

    fds.clear();
    owners.clear();
    watch(wake_fds[0], POLLIN, 0);
    for (int listener : {unix_listener, tcp_listener}) {
      if (listener >= 0) watch(listener, POLLIN, -1);
    }
    for (const auto& [conn_id, conn] : connections) {
      if (conn.pending_output()) {
        watch(conn.out_fd, POLLOUT, conn_id);
      } else if (conn.read_open && may_frame(conn)) {
        watch(conn.in_fd, POLLIN, conn_id);
      }
    }
    int n;
    do {
      n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                 shutdown_acked ? 50 : -1);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      status = Status::IoError(StrCat("poll(): ", std::strerror(errno)));
      break;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const int64_t owner = owners[i];
      if (owner == 0) {
        drain_completions();
      } else if (owner < 0) {
        if (!shutting_down) handle_accept(fds[i].fd);
      } else if (ServerConnection* conn = find_conn(owner)) {
        // A hangup or error reports through the regular read/write path.
        if (fds[i].events == POLLOUT) {
          flush_writes(*conn);
        } else {
          handle_readable(owner, *conn);
        }
        maybe_close(owner);
      }
    }
  }

  // ----- teardown: stop the workers, close every socket (never the
  // stream fds), free the path.
  {
    std::lock_guard<std::mutex> lock(jobs_mu);
    jobs_closed = true;
  }
  jobs_cv.notify_all();
  for (std::thread& worker : workers) worker.join();
  for (auto& [conn_id, conn] : connections) {
    if (!conn.stream) ::close(conn.in_fd);
  }
  connections.clear();
  close_listeners();
  ::close(wake_fds[0]);
  ::close(wake_fds[1]);
  unlink_socket();

  local.wall_seconds = timer.ElapsedSeconds();
  if (options.summary) {
    err << "serve: " << local.requests << " requests in "
        << local.wall_seconds << "s (" << local.answered << " answered, "
        << local.errors << " errors";
    if (local.rejected > 0) err << ", " << local.rejected << " rejected";
    err << "); session total: "
        << SnapshotWithCache(session, options.cache).ToString() << "\n";
  }
  if (stats != nullptr) *stats = local;
  return status;
}

}  // namespace spidermine::cli
