//===- serve/Protocol.cpp - predictord request/response schema -------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/Format.h"

using namespace vrp;
using namespace vrp::serve;

const char *serve::respStatusName(RespStatus S) {
  switch (S) {
  case RespStatus::Ok:
    return "ok";
  case RespStatus::Error:
    return "error";
  case RespStatus::Shed:
    return "shed";
  }
  return "unknown";
}

std::string serve::serializeRequest(const Request &R) {
  std::string Out = "{\"id\":" + std::to_string(R.Id);
  Out += ",\"method\":\"" + jsonEscape(R.Method) + "\"";
  if (!R.Source.empty())
    Out += ",\"source\":\"" + jsonEscape(R.Source) + "\"";
  if (R.Predictor != "vrp")
    Out += ",\"predictor\":\"" + jsonEscape(R.Predictor) + "\"";
  if (R.DumpRanges)
    Out += ",\"ranges\":true";
  if (R.StepLimit != 0)
    Out += ",\"step_limit\":" + std::to_string(R.StepLimit);
  if (R.DeadlineMs != 0)
    Out += ",\"deadline_ms\":" + std::to_string(R.DeadlineMs);
  Out += "}";
  return Out;
}

std::string serve::serializeResponse(const Response &R) {
  std::string Out = "{\"id\":" + std::to_string(R.Id);
  Out += ",\"status\":\"";
  Out += respStatusName(R.Status);
  Out += "\"";
  if (R.Degraded)
    Out += ",\"degraded\":true";
  if (!R.Payload.empty())
    Out += ",\"payload\":\"" + jsonEscape(R.Payload) + "\"";
  if (!R.Category.empty())
    Out += ",\"category\":\"" + jsonEscape(R.Category) + "\"";
  if (!R.Site.empty())
    Out += ",\"site\":\"" + jsonEscape(R.Site) + "\"";
  if (!R.Message.empty())
    Out += ",\"message\":\"" + jsonEscape(R.Message) + "\"";
  Out += "}";
  return Out;
}

namespace {

/// Strict scanner over one flat JSON object: enough JSON for the shapes
/// we emit, nothing more (no nested containers — the protocol keeps
/// payloads as strings precisely so this stays flat).
class Cursor {
public:
  explicit Cursor(const std::string &S) : S(S) {}

  bool fail(std::string_view Why) {
    if (Error.empty())
      Error = Why;
    return false;
  }
  const std::string &error() const { return Error; }

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool expect(char C) {
    skipWs();
    if (Pos >= S.size() || S[Pos] != C)
      return fail(std::string("expected '") + C + "'");
    ++Pos;
    return true;
  }

  bool peek(char C) {
    skipWs();
    return Pos < S.size() && S[Pos] == C;
  }

  bool atEnd() {
    skipWs();
    return Pos >= S.size();
  }

  bool parseString(std::string &Out) {
    if (!expect('"'))
      return false;
    Out.clear();
    while (Pos < S.size()) {
      char C = S[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= S.size())
        return fail("dangling escape");
      char E = S[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'u': {
        if (Pos + 4 > S.size())
          return fail("truncated \\u escape");
        unsigned V = 0;
        for (int I = 0; I < 4; ++I) {
          char H = S[Pos++];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        if (V > 0xff)
          return fail("\\u escape beyond latin-1");
        Out += static_cast<char>(V);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseUint(uint64_t &Out) {
    skipWs();
    if (Pos >= S.size() || S[Pos] < '0' || S[Pos] > '9')
      return fail("expected number");
    Out = 0;
    while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9') {
      uint64_t Digit = static_cast<uint64_t>(S[Pos] - '0');
      if (Out > (UINT64_MAX - Digit) / 10)
        return fail("number overflows");
      Out = Out * 10 + Digit;
      ++Pos;
    }
    return true;
  }

  bool parseBool(bool &Out) {
    skipWs();
    if (S.compare(Pos, 4, "true") == 0) {
      Pos += 4;
      Out = true;
      return true;
    }
    if (S.compare(Pos, 5, "false") == 0) {
      Pos += 5;
      Out = false;
      return true;
    }
    return fail("expected bool");
  }

  /// Skips an unknown key's scalar value (string, number, bool, null).
  bool skipScalar() {
    skipWs();
    if (Pos >= S.size())
      return fail("expected value");
    char C = S[Pos];
    if (C == '"') {
      std::string Dropped;
      return parseString(Dropped);
    }
    if (C == 't' || C == 'f') {
      bool Dropped;
      return parseBool(Dropped);
    }
    if (S.compare(Pos, 4, "null") == 0) {
      Pos += 4;
      return true;
    }
    if (C == '-' || (C >= '0' && C <= '9')) {
      ++Pos;
      while (Pos < S.size() &&
             ((S[Pos] >= '0' && S[Pos] <= '9') || S[Pos] == '.' ||
              S[Pos] == 'e' || S[Pos] == 'E' || S[Pos] == '+' ||
              S[Pos] == '-' || S[Pos] == 'x' ||
              (S[Pos] >= 'a' && S[Pos] <= 'f') ||
              (S[Pos] >= 'A' && S[Pos] <= 'F') || S[Pos] == 'p' ||
              S[Pos] == 'P'))
        ++Pos;
      return true;
    }
    return fail("unknown key holds a non-scalar value");
  }

private:
  const std::string &S;
  size_t Pos = 0;
  std::string Error;
};

/// Drives the shared object-scan loop; \p Field dispatches one known key
/// (returning false on a malformed value) and leaves unknown keys to the
/// loop's scalar skip, so the protocol can grow fields without breaking
/// older peers.
bool scanObject(const std::string &Json, std::string *Err,
                       bool (*Field)(Cursor &, const std::string &, bool &,
                                     void *),
                       void *Ctx) {
  Cursor C(Json);
  auto fail = [&](const std::string &Why) {
    if (Err)
      *Err = Why.empty() ? "malformed message" : Why;
    return false;
  };
  if (!C.expect('{'))
    return fail(C.error());
  bool First = true;
  while (!C.peek('}')) {
    if (!First && !C.expect(','))
      return fail("expected ',' or '}'");
    First = false;
    std::string Key;
    if (!C.parseString(Key) || !C.expect(':'))
      return fail(C.error());
    bool Known = false;
    if (!Field(C, Key, Known, Ctx))
      return fail(C.error());
    if (!Known && !C.skipScalar())
      return fail(C.error());
  }
  if (!C.expect('}'))
    return fail(C.error());
  if (!C.atEnd())
    return fail("trailing bytes after object");
  return true;
}

} // namespace

bool serve::parseRequest(const std::string &Json, Request &Out,
                         std::string *Err) {
  Out = Request();
  auto Field = [](Cursor &C, const std::string &Key, bool &Known,
                  void *Ctx) -> bool {
    Request &R = *static_cast<Request *>(Ctx);
    Known = true;
    if (Key == "id")
      return C.parseUint(R.Id);
    if (Key == "method")
      return C.parseString(R.Method);
    if (Key == "source")
      return C.parseString(R.Source);
    if (Key == "predictor")
      return C.parseString(R.Predictor);
    if (Key == "ranges")
      return C.parseBool(R.DumpRanges);
    if (Key == "step_limit")
      return C.parseUint(R.StepLimit);
    if (Key == "deadline_ms")
      return C.parseUint(R.DeadlineMs);
    Known = false;
    return true;
  };
  if (!scanObject(Json, Err, Field, &Out))
    return false;
  if (Out.Method.empty()) {
    if (Err)
      *Err = "request lacks a method";
    return false;
  }
  return true;
}

bool serve::parseResponse(const std::string &Json, Response &Out,
                          std::string *Err) {
  Out = Response();
  std::string StatusName = "ok";
  struct Ctx {
    Response *R;
    std::string *StatusName;
  } Context{&Out, &StatusName};
  auto Field = [](Cursor &C, const std::string &Key, bool &Known,
                  void *Raw) -> bool {
    Ctx &X = *static_cast<Ctx *>(Raw);
    Known = true;
    if (Key == "id")
      return C.parseUint(X.R->Id);
    if (Key == "status")
      return C.parseString(*X.StatusName);
    if (Key == "degraded")
      return C.parseBool(X.R->Degraded);
    if (Key == "payload")
      return C.parseString(X.R->Payload);
    if (Key == "category")
      return C.parseString(X.R->Category);
    if (Key == "site")
      return C.parseString(X.R->Site);
    if (Key == "message")
      return C.parseString(X.R->Message);
    Known = false;
    return true;
  };
  if (!scanObject(Json, Err, Field, &Context))
    return false;
  if (StatusName == "ok")
    Out.Status = RespStatus::Ok;
  else if (StatusName == "error")
    Out.Status = RespStatus::Error;
  else if (StatusName == "shed")
    Out.Status = RespStatus::Shed;
  else {
    if (Err)
      *Err = "unknown response status '" + StatusName + "'";
    return false;
  }
  return true;
}
