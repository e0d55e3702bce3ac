//===- serve/Protocol.h - predictord request/response schema ----*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON payloads carried by serve/Frame.h, specified in
/// docs/SERVING.md. Requests name a method (ping, predict, analyze,
/// stats, shutdown) plus the VL source and per-request knobs; responses
/// carry a status (ok, error, shed), the rendered payload, and — for
/// failures — the same structured category/site/message triple the rest
/// of the pipeline uses (support/Status.h).
///
/// Parsing is a small, strict, dependency-free scanner over exactly the
/// shapes we emit. Keys may appear in any order; unknown keys with scalar
/// values are skipped so the protocol can grow without breaking older
/// peers; any structural violation rejects the whole message (the
/// transport then answers with a protocol error rather than guessing).
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SERVE_PROTOCOL_H
#define VRP_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>

namespace vrp::serve {

/// One client request. Defaults mirror predictor_tool's single-file
/// mode so `predict` on a bare source is bitwise-identical to
/// `predictor_tool file.vl`.
struct Request {
  uint64_t Id = 0;            ///< Client-chosen; echoed in the response.
  /// ping | predict | analyze | stats | health | shutdown. health is
  /// the supervisor's heartbeat: answered from resident state with the
  /// worker's {"pid":N}, bypassing admission.
  std::string Method;
  std::string Source;         ///< VL program text (predict/analyze).
  std::string Predictor = "vrp"; ///< vrp | ball-larus | 90-50 | random.
  bool DumpRanges = false;    ///< predict: append the value-range dump.
  uint64_t StepLimit = 0;     ///< Propagation step budget (0 = unlimited).
  uint64_t DeadlineMs = 0;    ///< Per-request wall-clock budget (0 = none).
};

/// How the request ended.
enum class RespStatus {
  Ok,    ///< Served; Payload holds the result.
  Error, ///< Failed; Category/Site/Message explain.
  Shed,  ///< Rejected by admission control without being attempted.
};

struct Response {
  uint64_t Id = 0;
  RespStatus Status = RespStatus::Ok;
  /// True when any function fell back to the Ball–Larus heuristic —
  /// budget exhaustion, deadline expiry, or admission-forced degradation
  /// all surface here the same way.
  bool Degraded = false;
  std::string Payload;
  std::string Category; ///< errorCategoryName() (error responses).
  std::string Site;     ///< Failing stage or "admission" (error/shed).
  std::string Message;  ///< Human-readable reason (error/shed).
};

std::string serializeRequest(const Request &R);
std::string serializeResponse(const Response &R);

/// Strict parses; on failure return false and, when \p Err is non-null,
/// say why. \p Out is default-initialized first, so absent optional keys
/// land on their documented defaults.
bool parseRequest(const std::string &Json, Request &Out,
                  std::string *Err = nullptr);
bool parseResponse(const std::string &Json, Response &Out,
                   std::string *Err = nullptr);

const char *respStatusName(RespStatus S);

} // namespace vrp::serve

#endif // VRP_SERVE_PROTOCOL_H
