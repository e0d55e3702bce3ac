//===- vrpbench/vrpbench.cpp - The benchmark binary -----------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Usage:
//   vrpbench --workload=<suite_eval|module_cold|module_incremental|
//                        serve_mixed> [--seed=N] [--seconds=S] [--trace]
//            [--smoke] [--workdir=DIR]
//
// Runs one workload and prints its metrics, one per line with unit, then
// a final JSON line {"correct", "attempted", "failed", "metrics"}. An
// untraced run reports the end-to-end metrics; a --trace run reports the
// per-layer metrics. Exits 1 when any output was wrong. run.py in this
// directory builds the binary and is the command to use.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace vrpbench;

namespace {

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// Per-layer metrics, in report order. Span metrics are mean self times
/// per operation; the rest are per-operation counts and ratios.
struct LayerMetric {
  const char *Name;
  const char *Unit;
  const char *Span; ///< Span whose self time this is; null for values.
};

const LayerMetric LayerMetrics[] = {
    {"lang.parse_ms", "ms", "lang.parse"},
    {"lang.sema_ms", "ms", "lang.sema"},
    {"irgen.generate_ms", "ms", "irgen.generate"},
    {"ssa.construct_ms", "ms", "ssa.construct"},
    {"ssa.assert_ms", "ms", "ssa.assert"},
    {"ir.verify_ms", "ms", "ir.verify"},
    {"analysis.callgraph_ms", "ms", "analysis.callgraph"},
    {"analysis.alias_ms", "ms", "analysis.alias"},
    {"vrp.self_ms", "ms", "vrp.self"},
    {"interproc.self_ms", "ms", "interproc.self"},
    {"driver.finalize_ms", "ms", "driver.finalize"},
    {"trace.residual_ms", "ms", "op"},
    {"trace.overhead_ms", "ms", nullptr},
    {"irgen.instructions", "count", nullptr},
    {"vrp.expr_evals", "count", nullptr},
    {"vrp.subrange_ops", "count", nullptr},
    {"vrp.propagation_runs", "count", nullptr},
    {"vrp.memo_hit_rate", "ratio", nullptr},
    {"vrp.intern_hit_rate", "ratio", nullptr},
    {"vrp.kernel_slow_frac", "ratio", nullptr},
    {"analysis.cache_hit_rate", "ratio", nullptr},
    {"interproc.sweeps", "count", nullptr},
    {"interproc.waves", "count", nullptr},
    {"interproc.reanalyzed", "count", nullptr},
    {"interproc.reused", "count", nullptr},
    {"pcache.hit_rate", "ratio", nullptr},
    {"pcache.bytes_written", "bytes", nullptr},
    {"profile.steps", "count", nullptr},
    {"serve.memo_hit_rate", "ratio", nullptr},
    {"eval.vrp_err_pp", "pp", nullptr},
    {"eval.vrp_werr_pp", "pp", nullptr},
};

std::vector<Metric> endToEnd(const RunResult &R) {
  return {
      {"latency_ms", percentile(R.OpMs, 0.5), "ms"},
      {"throughput_per_s",
       R.Throughput > 0 ? R.Throughput : 1e3 / mean(R.OpMs), "1/s"},
      {"setup_s", percentile(R.SetupSeconds, 0.5), "s"},
      {"peak_rss_mb", R.PeakRssMb, "MB"},
  };
}

std::vector<Metric> perLayer(const LayerReport &L) {
  std::vector<Metric> Out;
  for (const LayerMetric &M : LayerMetrics) {
    double V;
    if (M.Span) {
      auto It = L.SelfMs.find(M.Span);
      V = It == L.SelfMs.end() ? 0.0 : It->second;
    } else if (std::strcmp(M.Name, "trace.overhead_ms") == 0) {
      V = L.TracedOpMs - L.UntracedOpMs;
    } else {
      auto It = L.Values.find(M.Name);
      V = It == L.Values.end() ? 0.0 : It->second;
    }
    Out.push_back({M.Name, V, M.Unit});
  }
  return Out;
}

/// The whole self-time breakdown, including workload-specific layers.
void printBreakdown(const LayerReport &L) {
  std::vector<std::pair<double, std::string>> Rows;
  double Sum = 0.0;
  for (const auto &[Name, Ms] : L.SelfMs) {
    Rows.push_back({Ms, Name});
    if (Name != "op")
      Sum += Ms;
  }
  std::sort(Rows.rbegin(), Rows.rend());
  std::printf("self time per operation, %u traced operations:\n",
              L.TracedOps);
  for (const auto &[Ms, Name] : Rows)
    std::printf("  %-24s %12.4f ms %6.1f%%\n",
                Name == "op" ? "(residual)" : Name.c_str(), Ms,
                L.TracedOpMs > 0 ? 100.0 * Ms / L.TracedOpMs : 0.0);
  std::printf("  layers sum %.4f ms; traced operation %.4f ms; untraced "
              "operation %.4f ms; layers/untraced %.3f; trace overhead "
              "%.4f ms\n",
              Sum, L.TracedOpMs, L.UntracedOpMs,
              L.UntracedOpMs > 0 ? Sum / L.UntracedOpMs : 0.0,
              L.TracedOpMs - L.UntracedOpMs);
}

void printJson(const RunResult &R, const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 && R.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(),
                std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0,
                Metrics[I].Unit);
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: vrpbench --workload=<suite_eval|module_cold|"
               "module_incremental|serve_mixed> [--seed=N] [--seconds=S] "
               "[--trace] [--smoke] [--workdir=DIR]\n"
               "       vrpbench --stamp\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto value = [&](const char *Flag) -> const char * {
      size_t N = std::strlen(Flag);
      return A.compare(0, N, Flag) == 0 ? A.c_str() + N : nullptr;
    };
    if (const char *V = value("--workload="))
      Cfg.Workload = V;
    else if (const char *V = value("--seed="))
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    else if (const char *V = value("--seconds="))
      Cfg.Seconds = std::atof(V);
    else if (const char *V = value("--workdir="))
      Cfg.WorkDir = V;
    else if (A == "--trace")
      Cfg.Trace = true;
    else if (A == "--smoke")
      Cfg.Smoke = true;
    else if (A == "--stamp") {
      std::printf("{\"compiler\": \"%s\", \"build\": \"%s\", \"nproc\": %u}\n",
                  VRPBENCH_COMPILER, VRPBENCH_BUILD,
                  std::thread::hardware_concurrency());
      return 0;
    } else
      return usage();
  }
  if (Cfg.Seconds <= 0)
    return usage();

  RunResult R;
  if (Cfg.Workload == "suite_eval")
    R = runSuiteEval(Cfg);
  else if (Cfg.Workload == "module_cold")
    R = runModuleCold(Cfg);
  else if (Cfg.Workload == "module_incremental")
    R = runModuleIncremental(Cfg);
  else if (Cfg.Workload == "serve_mixed")
    R = runServeMixed(Cfg);
  else
    return usage();

  if (R.OpMs.empty())
    R.fail("no operation completed");
  std::printf("vrpbench %s seed=%llu seconds=%g trace=%d%s\n",
              Cfg.Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
              Cfg.Seconds, Cfg.Trace ? 1 : 0, Cfg.Smoke ? " smoke" : "");
  for (const std::string &N : R.Notes)
    std::printf("  %s\n", N.c_str());
  std::printf("operations: %zu timed, %llu checked, %llu failed\n",
              R.OpMs.size(), static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  std::printf("latency percentiles: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n",
              percentile(R.OpMs, 0.5), percentile(R.OpMs, 0.9),
              percentile(R.OpMs, 0.99));
  for (const std::string &P : R.Problems)
    std::printf("FAILED: %s\n", P.c_str());

  std::vector<Metric> Metrics;
  if (Cfg.Trace) {
    printBreakdown(R.Layers);
    Metrics = perLayer(R.Layers);
  } else {
    Metrics = endToEnd(R);
  }
  for (const Metric &M : Metrics)
    std::printf("%-26s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
  printJson(R, Metrics);
  return R.Failed == 0 ? 0 : 1;
}
