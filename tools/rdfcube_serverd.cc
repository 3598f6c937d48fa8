// rdfcube_serverd: the long-lived relationship server daemon.
//
//   rdfcube_serverd <corpus.(ttl|bin)> [options]
//       --port=<n>            listen port (default 0 = ephemeral; the bound
//                             port is printed as "serving on port <n>")
//       --workers=<n>         event loops; each new connection goes to the
//                             loop serving the fewest (default 2)
//       --queue=<n>           decoded requests one loop holds per wakeup;
//                             more are shed with retry-after (default 64)
//       --retry-after-ms=<n>  backoff hint on shed responses (default 50)
//       --default-deadline=<seconds>  deadline when a request asks for none
//       --max-deadline=<seconds>      clamp on client-requested deadlines
//       --build-deadline=<seconds>    budget for the initial snapshot build
//       --slowlog=<n>         slowlog ring capacity (default 64)
//       --log-json            emit JSON log lines instead of key=value text
//
// SIGINT/SIGTERM drain and exit; SIGHUP re-reads the corpus file and swaps
// the snapshot copy-on-write (a failed reload keeps serving the last-good
// snapshot — watch for "reload failed" log lines). All diagnostics go
// through obs::Log (structured, rate-limited; DESIGN.md §5d); only the
// machine-parsed "serving on port <n>" line stays on stdout.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "rdfcube/rdfcube.h"

using namespace rdfcube;

namespace {

volatile sig_atomic_t g_stop = 0;
volatile sig_atomic_t g_reload = 0;

void OnStopSignal(int) { g_stop = 1; }
void OnReloadSignal(int) { g_reload = 1; }

int Fail(const Status& status) {
  obs::LogError("serverd", "fatal", {obs::Field("status", status.ToString())});
  return 1;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Result<qb::Corpus> LoadCorpus(const std::string& path) {
  if (EndsWith(path, ".bin")) return qb::LoadCorpusBinary(path);
  rdf::TripleStore store;
  RDFCUBE_RETURN_IF_ERROR(rdf::ParseTurtleFile(path, &store));
  return qb::LoadCorpusFromRdf(store);
}

void Usage() {
  // Usage text is CLI output, not logging: it stays on raw stderr.
  std::fputs(
      "usage: rdfcube_serverd <corpus.(ttl|bin)> [--port=N] [--workers=N]\n"
      "       [--queue=N] [--retry-after-ms=N] [--default-deadline=S]\n"
      "       [--max-deadline=S] [--build-deadline=S] [--slowlog=N]\n"
      "       [--log-json]\n",
      stderr);  // lint:allow(no-raw-stderr)
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string path = argv[1];
  server::ServerOptions options;
  double build_deadline_seconds = 0.0;  // 0 = unlimited
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    // Plain pre-initialized locals: gcc-12 trips maybe-uninitialized on the
    // Result<T> optional payload otherwise.
    uint64_t u64_value = 0;
    double dbl_value = 0.0;
    bool has_u64 = false;
    bool has_dbl = false;
    if (!value.empty()) {
      const Result<uint64_t> u64 = ParseU64(value);
      if (u64.ok()) {
        has_u64 = true;
        u64_value = u64.value();
      }
      const Result<double> dbl = ParseDouble(value);
      if (dbl.ok()) {
        has_dbl = true;
        dbl_value = dbl.value();
      }
    }
    if (key == "--port" && has_u64) {
      options.port = static_cast<uint16_t>(u64_value);
    } else if (key == "--workers" && has_u64) {
      options.num_workers = static_cast<std::size_t>(u64_value);
    } else if (key == "--queue" && has_u64) {
      options.max_queue = static_cast<std::size_t>(u64_value);
    } else if (key == "--retry-after-ms" && has_u64) {
      options.retry_after_ms = static_cast<uint32_t>(u64_value);
    } else if (key == "--default-deadline" && has_dbl) {
      options.default_deadline_seconds = dbl_value;
    } else if (key == "--max-deadline" && has_dbl) {
      options.max_deadline_seconds = dbl_value;
    } else if (key == "--build-deadline" && has_dbl) {
      build_deadline_seconds = dbl_value;
    } else if (key == "--slowlog" && has_u64) {
      options.slowlog_capacity = static_cast<std::size_t>(u64_value);
    } else if (key == "--log-json") {
      obs::Logger::Global().SetJsonLines(true);
    } else {
      obs::LogError("serverd", "bad option", {obs::Field("arg", arg)});
      Usage();
      return 1;
    }
  }

  Result<qb::Corpus> corpus = LoadCorpus(path);
  if (!corpus.ok()) return Fail(corpus.status());

  core::RelationshipSnapshot::BuildOptions build;
  build.version = 1;
  if (build_deadline_seconds > 0.0) {
    build.deadline = Deadline(build_deadline_seconds);
  }
  Result<server::SnapshotPtr> snap =
      core::RelationshipSnapshot::Build(std::move(corpus).value(), build);
  if (!snap.ok()) return Fail(snap.status());
  obs::LogInfo("serverd", "snapshot built",
               {obs::Field("version", snap.value()->version()),
                obs::Field("observations",
                           static_cast<uint64_t>(
                               snap.value()->num_observations())),
                obs::Field("full",
                           static_cast<uint64_t>(snap.value()->num_full())),
                obs::Field("partial",
                           static_cast<uint64_t>(snap.value()->num_partial())),
                obs::Field("complementary",
                           static_cast<uint64_t>(
                               snap.value()->num_complementary()))});

  server::Server srv(options);
  const Status started = srv.Start(std::move(snap).value());
  if (!started.ok()) return Fail(started);
  std::printf("serving on port %u\n", srv.port());
  std::fflush(stdout);

  struct sigaction sa = {};
  sa.sa_handler = OnStopSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sa.sa_handler = OnReloadSignal;
  sigaction(SIGHUP, &sa, nullptr);

  while (g_stop == 0) {
    if (g_reload != 0) {
      g_reload = 0;
      Result<qb::Corpus> fresh = LoadCorpus(path);
      Status reloaded =
          fresh.ok() ? srv.Reload(std::move(fresh).value(),
                                  build_deadline_seconds > 0.0
                                      ? Deadline(build_deadline_seconds)
                                      : Deadline())
                     : fresh.status();
      if (reloaded.ok()) {
        obs::LogInfo("serverd", "reloaded",
                     {obs::Field("version",
                                 srv.store().Current()->version())});
      } else {
        obs::LogWarn(
            "serverd", "reload failed; keeping last-good snapshot",
            {obs::Field("status", reloaded.ToString()),
             obs::Field("failures", srv.store().reload_failures())});
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  obs::LogInfo("serverd", "draining");
  srv.Stop();
  obs::LogInfo("serverd", "drained",
               {obs::Field("requests", srv.requests_total()),
                obs::Field("shed", srv.shed_total()),
                obs::Field("deadline_expired", srv.deadline_expired_total())});
  return 0;
}
