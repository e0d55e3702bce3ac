//===- vrpbench/Harness.cpp - Shared pieces of the vrpbench harness -------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/CallGraph.h"
#include "analysis/PersistentCache.h"
#include "ir/Verifier.h"
#include "irgen/IRGen.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "ssa/SSAVerifier.h"
#include "support/ResultStore.h"
#include "support/Telemetry.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace vrp;

namespace vrpbench {

void RunResult::fail(const std::string &Why, uint64_t N) {
  Failed += N;
  if (Problems.size() < 10)
    Problems.push_back(Why);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

int Tracer::begin(std::string Name, uint64_t Request) {
  Span S;
  S.Name = std::move(Name);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Request = Request == 0 && S.Parent >= 0 ? Spans[S.Parent].Request
                                            : Request;
  int Id = static_cast<int>(Spans.size());
  S.StartUs = std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
                  .count();
  Spans.push_back(std::move(S));
  Open.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  Span &S = Spans[Id];
  S.EndUs = std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
                .count();
  S.Last = static_cast<int>(Spans.size()) - 1;
  // Spans close innermost-first; anything still open above Id is a bug in
  // the caller, so close the stack down to Id regardless.
  while (!Open.empty() && Open.back() != Id)
    Open.pop_back();
  if (!Open.empty())
    Open.pop_back();
}

double Tracer::durationMs(int Id) const {
  return (Spans[Id].EndUs - Spans[Id].StartUs) / 1e3;
}

std::map<std::string, double> Tracer::selfTimes(int Root) const {
  std::map<std::string, double> Self;
  for (int I = Root; I <= Spans[Root].Last; ++I)
    Self[Spans[I].Name] += durationMs(I);
  for (int I = Root + 1; I <= Spans[Root].Last; ++I)
    Self[Spans[Spans[I].Parent].Name] -= durationMs(I);
  return Self;
}

bool Tracer::writeJson(const std::string &Path) const {
  std::ofstream OS(Path);
  OS << "{\"spans\":[\n";
  char Buf[128];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,"
                  "\"request\":%llu}",
                  S.StartUs, S.EndUs, S.Parent,
                  static_cast<unsigned long long>(S.Request));
    OS << (I ? ",\n" : "") << "{\"name\":\"" << S.Name << Buf;
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

//===----------------------------------------------------------------------===//
// LayerAccumulator
//===----------------------------------------------------------------------===//

void LayerAccumulator::addOp(const std::map<std::string, double> &Self,
                             double OpMs) {
  for (const auto &[Name, Ms] : Self)
    SumMs[Name] += Ms;
  OpMsSum += OpMs;
  ++Ops;
}

void LayerAccumulator::addValues(uint64_t Key,
                                 const std::map<std::string, double> &V) {
  ValuesByKey.emplace(Key, V);
}

LayerReport LayerAccumulator::finish(double UntracedOpMs) const {
  LayerReport R;
  R.TracedOps = Ops;
  R.UntracedOpMs = UntracedOpMs;
  if (Ops == 0)
    return R;
  for (const auto &[Name, Ms] : SumMs)
    R.SelfMs[Name] = Ms / Ops;
  R.TracedOpMs = OpMsSum / Ops;
  for (const auto &[Key, Values] : ValuesByKey)
    for (const auto &[Name, V] : Values)
      R.Values[Name] += V / ValuesByKey.size();
  return R;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // Linux reports KiB.
}

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Index = P * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Index);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Index - Lo);
}

double mean(const std::vector<double> &Values) {
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Values.empty() ? 0.0 : Sum / Values.size();
}

//===----------------------------------------------------------------------===//
// Pipeline replay
//===----------------------------------------------------------------------===//

VRPOptions benchOptions() {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = 1;
  return Opts;
}

bool compileTraced(Tracer &T, std::string_view Source, Compiled &Out,
                   std::string &Err) {
  DiagnosticEngine Diags;
  {
    Tracer::Scope S(T, "lang.parse");
    Out.AST = parseVL(Source, Diags);
  }
  if (Diags.hasErrors()) {
    Err = "parse: " + Diags.firstError();
    return false;
  }
  {
    Tracer::Scope S(T, "lang.sema");
    if (!runSema(*Out.AST, Diags)) {
      Err = "sema: " + Diags.firstError();
      return false;
    }
  }
  {
    Tracer::Scope S(T, "irgen.generate");
    Out.IR = generateIR(*Out.AST, Diags);
  }
  if (!Out.IR) {
    Err = "irgen: " + Diags.firstError();
    return false;
  }
  {
    Tracer::Scope S(T, "ssa.construct");
    constructSSA(*Out.IR);
  }
  {
    Tracer::Scope S(T, "ssa.assert");
    insertAssertions(*Out.IR);
  }
  Tracer::Scope S(T, "ir.verify");
  std::vector<std::string> Problems;
  if (!verifyModule(*Out.IR, Problems, /*ExpectPhis=*/true) ||
      !verifySSA(*Out.IR, Problems)) {
    Err = "verify: " + (Problems.empty() ? std::string("failed")
                                         : Problems.front());
    return false;
  }
  return true;
}

std::unique_ptr<CompiledProgram> compileOrReport(std::string_view Source,
                                                 std::string &Err) {
  DiagnosticEngine Diags;
  auto C = compileProgram(Source, Diags, benchOptions());
  if (!C.ok()) {
    Err = C.error().str();
    return nullptr;
  }
  return C.takeValue();
}

uint64_t fingerprint(const Module &M, const ModuleVRPResult &R) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const auto &F : M.functions())
    if (const FunctionVRPResult *FR = R.forFunction(F.get()))
      H = store::fnv1a64(PersistentCache::serialize(*FR), H);
  return H;
}

uint64_t instructionCount(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &B : F->blocks())
      N += B->instructions().size();
  return N;
}

void probeModule(Tracer &T, const Module &M) {
  {
    Tracer::Scope S(T, "probe.alias");
    for (const auto &F : M.functions())
      (void)AliasInfo::analyze(*F);
  }
  {
    Tracer::Scope S(T, "probe.callgraph");
    CallGraph CG(M);
    (void)CG.numWaves();
  }
  VRPOptions Intra = benchOptions();
  Intra.Interprocedural = false;
  Tracer::Scope S(T, "probe.intra");
  (void)runModuleVRP(M, Intra);
}

void splitModuleSpan(std::map<std::string, double> &Self,
                     const std::map<std::string, double> &Probe,
                     double AliasCalls, const std::string &SpanName) {
  auto probe = [&](const char *Name) {
    auto It = Probe.find(Name);
    return It == Probe.end() ? 0.0 : It->second;
  };
  double Module = Self[SpanName];
  Self.erase(SpanName);
  double Alias = probe("probe.alias"), CallGraph = probe("probe.callgraph"),
         Intra = probe("probe.intra"), RoundTrip = probe("probe.roundtrip");
  Self["analysis.alias"] += Alias * AliasCalls;
  Self["analysis.callgraph"] += CallGraph;
  Self["vrp.self"] += Intra - Alias;
  if (RoundTrip > 0)
    Self["pcache.roundtrip"] += RoundTrip;
  Self["interproc.self"] +=
      Module - Intra - CallGraph - RoundTrip - Alias * (AliasCalls - 1);
}

uint64_t propagationRuns() {
  return telemetry::snapshot().counter(telemetry::Counter::PropagationRuns);
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

namespace {

using telemetry::Counter;

/// Telemetry counters reported per operation, under their metric names.
/// Names starting with '_' only feed the ratios below.
const std::pair<Counter, const char *> ReportedCounters[] = {
    {Counter::ExprEvaluations, "vrp.expr_evals"},
    {Counter::SubRangeOps, "vrp.subrange_ops"},
    {Counter::PropagationRuns, "vrp.propagation_runs"},
    {Counter::InterprocSweeps, "interproc.sweeps"},
    {Counter::InterprocWaves, "interproc.waves"},
    {Counter::InterprocFunctionsReanalyzed, "interproc.reanalyzed"},
    {Counter::IncrementalFunctionsReused, "interproc.reused"},
    {Counter::PersistentCacheBytesWritten, "pcache.bytes_written"},
    {Counter::RangeOpMemoHits, "_memo_hits"},
    {Counter::RangeKernelFastPath, "_kernel_fast"},
    {Counter::RangeKernelSlowPath, "_kernel_slow"},
    {Counter::RangeInternHits, "_intern_hits"},
    {Counter::RangeInternMisses, "_intern_misses"},
    {Counter::AnalysisCacheHits, "_acache_hits"},
    {Counter::AnalysisCacheMisses, "_acache_misses"},
    {Counter::PersistentCacheHits, "_pcache_hits"},
    {Counter::PersistentCacheMisses, "_pcache_misses"},
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace

void resetCounters() { telemetry::reset(); }

std::map<std::string, double> readCounters() {
  telemetry::Snapshot S = telemetry::snapshot();
  std::map<std::string, double> V;
  for (const auto &[C, Name] : ReportedCounters)
    V[Name] = static_cast<double>(S.counter(C));
  double Kernel = V["_kernel_fast"] + V["_kernel_slow"];
  V["vrp.memo_hit_rate"] = ratio(V["_memo_hits"], V["_memo_hits"] + Kernel);
  V["vrp.kernel_slow_frac"] = ratio(V["_kernel_slow"], Kernel);
  V["vrp.intern_hit_rate"] =
      ratio(V["_intern_hits"], V["_intern_hits"] + V["_intern_misses"]);
  V["analysis.cache_hit_rate"] =
      ratio(V["_acache_hits"], V["_acache_hits"] + V["_acache_misses"]);
  V["pcache.hit_rate"] =
      ratio(V["_pcache_hits"], V["_pcache_hits"] + V["_pcache_misses"]);
  for (auto It = V.begin(); It != V.end();)
    It = It->first[0] == '_' ? V.erase(It) : std::next(It);
  return V;
}

} // namespace vrpbench
