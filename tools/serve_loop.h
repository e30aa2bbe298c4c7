#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "spidermine/result_cache.h"
#include "spidermine/session.h"

/// \file serve_loop.h
/// The long-lived query server behind `spidermine serve`: one resident
/// `MiningSession`, newline-delimited JSON requests in, newline-delimited
/// JSON responses out, up to `max_inflight` queries executing
/// concurrently on the session (RunQuery is const and thread-safe; see
/// spidermine/session.h and docs/SERVING.md). One poll() event loop
/// serves every transport — a stdin/stdout-style fd pair, a unix socket,
/// TCP — through one request state machine. Protocol (full schema with
/// examples in docs/CLI.md):
///
///   request:  {"id": 1, "k": 5, "dmax": 4, "seed": 7}
///   response: {"id":1,"line":1,"ok":true,"patterns":[{"vertices":..,
///              "edges":..,"support":..,"pattern":".."}],"seconds":..,
///              "timed_out":false}
///   error:    {"id":1,"line":1,"ok":false,"error":"..."}
///   shutdown: {"cmd": "shutdown"}   (drains in-flight queries, then exits;
///             the acknowledgment is the final response line, and the
///             shutdown line is the last line read from its connection)
///
/// Concurrent queries complete out of order, so every response carries
/// two correlation keys: "id" echoes the request's id verbatim (null when
/// the request had none or did not parse), and "line" is the 1-based
/// PHYSICAL input line number (blank lines advance it; they just get no
/// response) — always present and always unambiguous, even when
/// client-chosen ids collide.

namespace spidermine::cli {

/// A parsed flat JSON value: the serve protocol needs null/bool/number/
/// string only; nested containers are rejected at parse time.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
};

/// A flat JSON object (string keys, scalar values), in key order.
using JsonObject = std::map<std::string, JsonValue>;

/// Parses one request line as a flat JSON object. kInvalidArgument (with
/// the offending position/context) on malformed input, nested
/// objects/arrays, duplicate keys, or trailing garbage.
Result<JsonObject> ParseJsonObject(std::string_view line);

/// Escapes \p raw for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string EscapeJsonString(std::string_view raw);

/// Builds a TopKQuery from a parsed request object. The keys are the rows
/// of the query parameter table (QueryParams() in tools/cli_commands.h;
/// schema in docs/CLI.md): each flag name with '-' spelled '_', plus the
/// serve-only "seed_count". Omitted keys keep their TopKQuery{} defaults;
/// "id" and "cmd" are protocol keys and ignored here. kInvalidArgument on
/// unknown keys, wrong value types, non-integral values for integer
/// fields, and out-of-range int32 values (other range errors surface
/// later, from QueryConfig::Validate / RunQuery, so the error texts stay
/// identical to the CLI's).
Result<TopKQuery> QueryFromJson(const JsonObject& request);

/// Options of one server.
struct ServeOptions {
  /// Queries allowed to execute concurrently on the session (the worker
  /// count of the server). Must be >= 1. The stream fd pair applies it as
  /// back-pressure (it stops reading while max_inflight of its queries
  /// run); socket/TCP connections apply it as an admission gate (excess
  /// requests are rejected immediately with "overloaded" +
  /// retry_after_ms).
  int32_t max_inflight = 1;
  /// Print the end-of-serve aggregate line (requests, errors, latency,
  /// session serving stats) to the error stream.
  bool summary = true;
  /// Optional result cache (borrowed; outlives the server). A repeated
  /// query whose canonical hash + Stage I content key match a cached
  /// entry is answered from the cache without touching RunQuery — the
  /// response is byte-identical to a recomputation except for its
  /// "seconds" field (results are deterministic; see result_cache.h).
  /// null (or a cache with a 0 cap) disables caching.
  ResultCache* cache = nullptr;
};

/// Counters of one server, filled when it exits.
struct ServeStats {
  int64_t requests = 0;       ///< request lines read (incl. malformed)
  int64_t answered = 0;       ///< responses with "ok":true
  int64_t errors = 0;         ///< responses with "ok":false (incl. rejected)
  int64_t rejected = 0;       ///< admission-gate "overloaded" rejections
  double wall_seconds = 0.0;  ///< server duration
  bool shutdown_requested = false;  ///< exited via {"cmd":"shutdown"}
};

/// What a server actually bound: the socket path verbatim and the real
/// TCP port (the ephemeral one when tcp_port was 0); -1 / empty = that
/// transport is off.
struct ServeEndpoints {
  std::string socket_path;
  int32_t tcp_port = -1;
};

/// What a server serves: either the stream fd pair, or listeners (a
/// non-empty socket_path and/or tcp_port >= 0) — exactly one of the two.
struct ServeTransportOptions {
  /// The stream connection: request lines are read from stream_in_fd and
  /// responses written to stream_out_fd (`serve` passes stdin/stdout when
  /// neither --socket nor --tcp is set). -1 = no stream; set both or
  /// neither. Either may be a pipe, a tty, a socket or a regular file.
  /// The server never closes them nor changes their flags; a blocking
  /// output fd makes the server wait for its reader, as a pipe should.
  int stream_in_fd = -1;
  int stream_out_fd = -1;
  /// Unix-domain socket path; empty = no unix listener. A stale socket
  /// file at the path is replaced; an existing path that is NOT a socket
  /// is refused with kInvalidArgument, never deleted.
  std::string socket_path;
  /// TCP port, bound to 127.0.0.1 only (serving is a local-trust
  /// protocol; fronting it to a network is a proxy's job). -1 = no TCP
  /// listener; 0 = pick an ephemeral port (reported via on_ready).
  int32_t tcp_port = -1;
  /// Invoked once on the serving thread after every listener is bound and
  /// before the first request is read — the only way to learn an
  /// ephemeral TCP port. Tests connect from here (or from another thread
  /// afterwards).
  std::function<void(const ServeEndpoints&)> on_ready;
};

/// Runs the serve server: a poll() event loop multiplexing the stream fd
/// pair and any number of concurrent socket connections, with
/// `options.max_inflight` worker threads executing admitted queries on
/// \p session. Per connection, exactly one response line per non-blank
/// request line, in completion order; "line" is the 1-based physical
/// line number within that connection. Malformed requests produce an
/// "ok":false response and never abort the server. Across connections:
///
///   - admission: the stream stops framing lines while max_inflight of
///     its queries run, so it waits instead of being rejected. A socket
///     query arriving while max_inflight queries are already executing
///     is rejected immediately with
///     {"id":..,"line":..,"ok":false,"error":"overloaded",
///      "retry_after_ms":N} — N is derived from the session's observed
///     mean query latency. A slow or idle client never stalls the others.
///   - output: a connection whose responses the kernel has not yet taken
///     is not read until they are, which bounds every write buffer. A
///     connection whose output failed (EPIPE) reads and admits nothing
///     more; it is forgotten once its in-flight queries finish.
///   - shutdown: {"cmd":"shutdown"} from any connection stops admission
///     ("server is shutting down" errors on other connections), drains
///     every in-flight query, acknowledges the requester with its final
///     response line, flushes all connections and exits (sockets get 5 s
///     after the ack to take their output; the stream is always flushed
///     in full). Nothing after the shutdown line on its connection is
///     read.
///   - exit: also once no listener and no connection remain — for the
///     stream alone, once its input reached EOF and every query it sent
///     has been answered.
///   - robustness: SIGPIPE is ignored process-wide (a mid-response
///     disconnect surfaces as EPIPE and closes that connection only);
///     accept/read/write retry on EINTR.
///
/// kInvalidArgument for invalid \p options or \p transport, kIoError on
/// listener setup failures; per-connection I/O errors close that
/// connection and never abort the server.
Status RunServeServer(const MiningSession& session,
                      const ServeTransportOptions& transport,
                      std::ostream& err, const ServeOptions& options,
                      ServeStats* stats = nullptr);

}  // namespace spidermine::cli
