// qobench: the benchmark every performance or simplicity change to the
// advisor is judged by. README.md documents the workloads and metrics.
//
//   qobench [--workload offline|serve_hot|serve_mixed|all] [--seed N]
//           [--scale X | --seconds S] [--trace OUT.json]
//
// Each workload runs in a child process of its own (fresh caches, its own
// peak RSS) with QO_METRICS=0 and reports the end-to-end metrics. --trace
// adds a second child per workload with QO_METRICS=1; its registry deltas
// and qobench's own call timings give the per-layer metrics, which go
// to OUT.json together with trace_overhead_pct (untraced vs traced qps).
//
// Correctness runs in the same command. Every call's Status counts toward
// `failed`. Each child replays a prefix of its workload at 1 thread on
// fresh state and compares output digests, and for seed 2022 the full-run
// digest must match expected/<workload>.txt when that file has an entry for
// the run's size. Any mismatch marks every call failed and exits 1.
//
// The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"qps": {"value": 1.0, "unit": "calls/s"}, ...}}
// For --workload all the metric keys are "<metric>@<workload>".
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "measure.h"
#include "workloads.h"

extern char** environ;

namespace qobench {
namespace {

struct WorkloadSpec {
  const char* name;
  WorkloadResult (*run)(const WorkloadOptions&);
  /// Timed-phase length at scale 1 on the reference host (4-core x86-64
  /// VM); --seconds S runs at scale S / nominal_seconds.
  double nominal_seconds;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"offline", RunOffline, 20.0},
    {"serve_hot", RunServeHot, 10.0},
    {"serve_mixed", RunServeMixed, 10.0},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"jobs_per_s", "jobs/s"},  {"qps", "calls/s"},
    {"req_p50_us", "us"},      {"req_p99_us", "us"},
    {"compile_p99_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"scope.parse_ms", "ms"},
    {"scope.parses", "count"},
    {"optimizer.optimize_ms", "ms"},
    {"optimizer.optimizes", "count"},
    {"optimizer.memo_hit_ratio", "fraction"},
    {"cache.probe_ms", "ms"},
    {"cache.fe_hit_ratio", "fraction"},
    {"cache.l2_hit_ratio", "fraction"},
    {"cache.l2_evictions", "count"},
    {"exec.execute_ms", "ms"},
    {"exec.prepare_ms", "ms"},
    {"exec.runs", "count"},
    {"exec.profile_reuse_ratio", "fraction"},
    {"bandit.rank_ms", "ms"},
    {"bandit.ranks", "count"},
    {"bandit.reward_ms", "ms"},
    {"bandit.retrain_ms", "ms"},
    {"bandit.retrains", "count"},
    {"core.feature_gen_ms", "ms"},
    {"core.recommend_ms", "ms"},
    {"core.validate_ms", "ms"},
    {"core.hint_gen_ms", "ms"},
    {"flighting.flight_ms", "ms"},
    {"flighting.flights", "count"},
    {"flighting.success_ratio", "fraction"},
    {"experiments.build_day_view_ms", "ms"},
    {"service.compile_ms", "ms"},
    {"service.compile_calls", "count"},
    {"service.rank_ms", "ms"},
    {"service.reward_ms", "ms"},
    {"service.publish_ms", "ms"},
    {"service.publishes", "count"},
    {"service.upload_ms", "ms"},
    {"sis.upload_accept_ratio", "fraction"},
    {"sis.active_hints", "count"},
    {"runtime.worker_util", "fraction"},
    {"pipeline.day_ms_p50", "ms"},
    {"pipeline.day_ms_p95", "ms"},
    {"pipeline.pnhours_saved_pct", "%"},
    {"trace_overhead_pct", "%"},
};

constexpr uint64_t kGoldenSeed = 2022;

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "qobench: %s\n"
               "usage: qobench [--workload offline|serve_hot|serve_mixed|all]"
               " [--seed N] [--scale X | --seconds S] [--trace OUT.json]\n",
               error);
  std::exit(2);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Child side: run one workload in this process and report it on stdout as
// "@ <kind> ..." lines; anything else is a human-readable note.
// ---------------------------------------------------------------------------

int RunChild(const WorkloadSpec& spec, const WorkloadOptions& options) {
  WorkloadResult r = spec.run(options);
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::printf("@ calls %llu %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("@ digest %s %s\n", Hex(r.digest).c_str(), r.size_key.c_str());
  std::printf("@ replay %d %s\n", r.replay_ok ? 1 : 0, r.replay_note.c_str());
  for (const Metric& m : r.end_to_end) {
    std::printf("@ e2e %s %.17g\n", m.name.c_str(), m.value);
  }
  for (const Metric& m : r.layers) {
    std::printf("@ layer %s %.17g\n", m.name.c_str(), m.value);
  }
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------------

/// How a child's lines are labelled: "offline" or "offline (traced)".
std::string Tag(const std::string& workload, bool traced) {
  return traced ? workload + " (traced)" : workload;
}

struct ChildReport {
  bool exited_ok = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string digest;
  std::string size_key;
  bool replay_ok = false;
  std::string replay_note;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
};

/// Runs this binary as `--child` for one workload with QO_METRICS set as
/// given, echoing its notes and parsing its "@" lines. Waits for it to end.
ChildReport SpawnChild(const std::string& workload, const WorkloadOptions& o,
                       bool traced) {
  std::vector<std::string> args = {"qobench",  "--child",
                                   workload,   "--seed",
                                   std::to_string(o.seed), "--scale"};
  char scale[64];
  std::snprintf(scale, sizeof(scale), "%.17g", o.scale);
  args.emplace_back(scale);
  if (traced) args.emplace_back("--layers");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  ChildReport report;
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("qobench: pipe");
    return report;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  setenv("QO_METRICS", traced ? "1" : "0", 1);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    std::fprintf(stderr, "qobench: spawn failed: %s\n", std::strerror(spawned));
    close(fds[0]);
    return report;
  }

  FILE* in = fdopen(fds[0], "r");
  char* line = nullptr;
  size_t cap = 0;
  const std::string tag = Tag(workload, traced);
  while (getline(&line, &cap, in) > 0) {
    std::string text(line);
    while (!text.empty() && text.back() == '\n') text.pop_back();
    if (text.rfind("@ ", 0) != 0) {
      std::printf("[%s] %s\n", tag.c_str(), text.c_str());
      continue;
    }
    std::istringstream fields(text.substr(2));
    std::string kind;
    fields >> kind;
    if (kind == "calls") {
      fields >> report.attempted >> report.failed;
    } else if (kind == "digest") {
      fields >> report.digest >> std::ws;
      std::getline(fields, report.size_key);
    } else if (kind == "replay") {
      int ok = 0;
      fields >> ok >> std::ws;
      report.replay_ok = ok == 1;
      std::getline(fields, report.replay_note);
    } else if (kind == "e2e" || kind == "layer") {
      std::string name;
      double value = 0.0;
      fields >> name >> value;
      (kind == "e2e" ? report.e2e : report.layers)[name] = value;
    }
  }
  std::free(line);
  std::fclose(in);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  report.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return report;
}

/// The golden digest for (workload, size) from expected/<workload>.txt:
/// lines of "<size key> <digest>"; '#' starts a comment. Empty when the
/// file has no entry for this size.
std::string GoldenDigest(const std::string& workload,
                         const std::string& size_key) {
  std::ifstream file(std::string(QOBENCH_EXPECTED_DIR) + "/" + workload +
                     ".txt");
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space != std::string::npos && line.substr(0, space) == size_key) {
      return line.substr(space + 1);
    }
  }
  return "";
}

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// name -> value, in kEndToEnd (untraced) or kPerLayer (traced) order.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Checks one child's outputs; prints why a check failed.
bool ChildCorrect(const std::string& workload, bool traced,
                  const WorkloadOptions& o, const ChildReport& r) {
  const std::string tag = Tag(workload, traced);
  const char* t = tag.c_str();
  bool ok = r.exited_ok;
  if (!r.exited_ok) std::printf("[%s] child process failed\n", t);
  std::printf("[%s] digest %s (%s)\n", t, r.digest.c_str(),
              r.size_key.c_str());
  std::printf("[%s] replay check (%s): %s\n", t, r.replay_note.c_str(),
              r.replay_ok ? "match" : "MISMATCH");
  ok = ok && r.replay_ok;
  if (o.seed == kGoldenSeed) {
    const std::string golden = GoldenDigest(workload, r.size_key);
    if (golden.empty()) {
      std::printf("[%s] golden: no entry for this size\n", t);
    } else {
      std::printf("[%s] golden %s: %s\n", t, golden.c_str(),
                  golden == r.digest ? "match" : "MISMATCH");
      ok = ok && golden == r.digest;
    }
  }
  return ok;
}

Outcome RunWorkload(const WorkloadSpec& spec, WorkloadOptions o,
                    double seconds, bool trace) {
  if (seconds > 0) o.scale = seconds / spec.nominal_seconds;
  const std::string name = spec.name;
  Outcome out;
  ChildReport plain = SpawnChild(name, o, /*traced=*/false);
  out.correct = ChildCorrect(name, /*traced=*/false, o, plain);
  out.attempted = plain.attempted;
  out.failed = plain.failed;
  for (const MetricSpec& m : kEndToEnd) {
    const double value = plain.e2e.count(m.name) ? plain.e2e.at(m.name) : NAN;
    std::printf("[%s] %-16s %14.4f %s\n", spec.name, m.name, value, m.unit);
    if (!trace) out.metrics.emplace_back(m.name, value);
  }
  if (trace) {
    ChildReport traced = SpawnChild(name, o, /*traced=*/true);
    out.correct =
        ChildCorrect(name, /*traced=*/true, o, traced) && out.correct;
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    traced.layers["trace_overhead_pct"] =
        100.0 * (Ratio(plain.e2e["qps"], traced.e2e["qps"]) - 1.0);
    for (const MetricSpec& m : kPerLayer) {
      const double value =
          traced.layers.count(m.name) ? traced.layers.at(m.name) : NAN;
      std::printf("[%s] %-30s %14.4f %s\n", spec.name, m.name, value, m.unit);
      out.metrics.emplace_back(m.name, value);
    }
  }
  // A wrong output makes every call a failed one.
  if (!out.correct) out.failed = out.attempted;
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* UnitOf(const std::string& name) {
  const std::string base = name.substr(0, name.find('@'));
  for (const MetricSpec& m : kEndToEnd) {
    if (base == m.name) return m.unit;
  }
  for (const MetricSpec& m : kPerLayer) {
    if (base == m.name) return m.unit;
  }
  return "";
}

std::string MetricsJson(
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].first + "\": {\"value\": " +
            JsonNumber(metrics[i].second) + ", \"unit\": \"" +
            UnitOf(metrics[i].first) + "\"}";
  }
  return json + "}";
}

struct Args {
  std::string workload = "all";
  WorkloadOptions options;
  double seconds = 0.0;
  std::string trace_path;
  bool child = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) Usage("missing value");
    return argv[++i];
  };
  auto number = [](const std::string& text) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !(v > 0) || !std::isfinite(v)) {
      Usage("expected a positive number");
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      args.workload = value(i);
    } else if (flag == "--child") {
      args.child = true;
      args.workload = value(i);
    } else if (flag == "--seed") {
      const std::string text = value(i);
      char* end = nullptr;
      args.options.seed = std::strtoull(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') Usage("bad --seed");
    } else if (flag == "--scale") {
      args.options.scale = number(value(i));
    } else if (flag == "--seconds") {
      args.seconds = number(value(i));
    } else if (flag == "--trace") {
      args.trace_path = value(i);
    } else if (flag == "--layers") {
      args.options.traced = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "all" && FindWorkload(args.workload) == nullptr) {
    Usage("unknown workload");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.child) {
    if (args.workload == "all") Usage("--child takes one workload");
    return RunChild(*FindWorkload(args.workload), args.options);
  }

  std::vector<const WorkloadSpec*> selected;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == "all" || args.workload == w.name) {
      selected.push_back(&w);
    }
  }
  const bool trace = !args.trace_path.empty();
  Outcome total;
  std::string trace_json = "{";
  for (const WorkloadSpec* spec : selected) {
    Outcome out = RunWorkload(*spec, args.options, args.seconds, trace);
    total.correct = total.correct && out.correct;
    total.attempted += out.attempted;
    total.failed += out.failed;
    if (trace) {
      if (trace_json.size() > 1) trace_json += ", ";
      trace_json += '"';
      trace_json += spec->name;
      trace_json += "\": ";
      trace_json += MetricsJson(out.metrics);
    }
    for (auto& [name, value] : out.metrics) {
      total.metrics.emplace_back(
          selected.size() == 1 ? name : name + "@" + spec->name, value);
    }
  }
  if (trace) {
    std::ofstream file(args.trace_path);
    file << trace_json << "}\n";
    if (!file) {
      std::fprintf(stderr, "qobench: cannot write %s\n",
                   args.trace_path.c_str());
      return 1;
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      total.correct ? "true" : "false",
      static_cast<unsigned long long>(total.attempted),
      static_cast<unsigned long long>(total.failed),
      MetricsJson(total.metrics).c_str());
  return total.correct && total.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qobench

int main(int argc, char** argv) { return qobench::Main(argc, argv); }
