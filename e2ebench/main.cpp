// End-to-end benchmark of the cldpc stack (see README.md here).
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--inject-mismatch]
//
// Workloads: engine_c2_4p2db, engine_c2_3p0db, serve_c2_steps,
// shard_small_ckpt. With --trace 0 the run reports the end-to-end
// metrics; with --trace 1 a separate traced run reports the per-layer
// metrics and writes its spans to .bench_out/trace-<workload>.json.
// Run it from the repository root (it reads BENCHMARK.json there).
// The last line of stdout is the JSON result. The exit code is 0 only
// when every correctness gate held.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "ldpc/core/dispatch.hpp"
#include "workloads.hpp"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--inject-mismatch]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject-mismatch") {
      options.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else {
      return Usage(("unknown option " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  try {
    e2ebench::Report report(e2ebench::kSpecPath, options.trace);
    e2ebench::Tracer tracer(options.trace);
    std::filesystem::create_directories(e2ebench::kOutDir);
    report.Attr("workload", options.workload);
    report.Attr("seed", std::to_string(options.seed));
    report.Attr("seconds", std::to_string(options.seconds));
    report.Attr("isa", cldpc::ldpc::core::IsaName(
                           cldpc::ldpc::core::DetectIsa()));
    if (options.workload == "engine_c2_4p2db") {
      e2ebench::RunEngineWorkload(options, 4.2, false, tracer, report);
    } else if (options.workload == "engine_c2_3p0db") {
      e2ebench::RunEngineWorkload(options, 3.0, true, tracer, report);
    } else if (options.workload == "serve_c2_steps") {
      e2ebench::RunServeWorkload(options, tracer, report);
    } else if (options.workload == "shard_small_ckpt") {
      e2ebench::RunShardWorkload(options, tracer, report);
    } else {
      return Usage(("unknown workload '" + options.workload + "'").c_str());
    }
    if (options.trace) {
      tracer.WriteChromeJson(std::string(e2ebench::kOutDir) + "/trace-" +
                             options.workload + ".json");
      report.Attr("spans", std::to_string(tracer.size()));
    }
    report.Print();
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
