// rdfcube command-line tool: validate, analyze and relate RDF Data Cube
// files without writing C++.
//
//   rdfcube_cli stats    <file.ttl> [--report]   corpus overview; --report
//                                               additionally runs the engine
//                                               and prints the observability
//                                               run report (phases, metrics)
//   rdfcube_cli validate <file.ttl>             QB well-formedness report
//   rdfcube_cli relate   <file.ttl> [options]   compute relationships
//       --method=baseline|clustering|masking|hybrid  (default masking)
//       --types=full,partial,compl              (default all)
//       --out=<relationships.nt>                materialize as RDF
//       --timeout=<seconds>
//   rdfcube_cli skyline  <file.ttl>             containment skyline IRIs
//   rdfcube_cli explore  <file.ttl> <obs-iri>   neighbours of one observation
//   rdfcube_cli rollup   <file.ttl> <dim-iri>=<code> [...]
//                                               aggregate the contained
//                                               observations at a coordinate
//   rdfcube_cli serve    <file.ttl> [--port=N --workers=N --queue=N]
//                                               run a relationship server
//                                               until SIGINT/SIGTERM
//   rdfcube_cli query    <host:port> <op> [obs-id] [--min-degree=D]
//                                               [--limit=N]   query a server
//       op: ping|containers|contained|complements|partial|scan|stats
//       (scan pages through every relationship; --limit=N asks for one
//       page of at most N records)

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/aggregate.h"
#include "core/explorer.h"
#include "core/relationship_rdf.h"
#include "rdfcube/rdfcube.h"
#include "util/string_util.h"

using namespace rdfcube;

// Several commands name an ObservationSet local `obs`, which shadows the
// rdfcube::obs namespace; alias it so the observability types stay reachable.
namespace obx = rdfcube::obs;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<qb::Corpus> LoadFile(const std::string& path) {
  rdf::TripleStore store;
  RDFCUBE_RETURN_IF_ERROR(rdf::ParseTurtleFile(path, &store));
  return qb::LoadCorpusFromRdf(store);
}

int CmdStats(const std::string& path, const std::vector<std::string>& args) {
  bool want_report = false;
  for (const std::string& arg : args) {
    if (arg == "--report") {
      want_report = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 1;
    }
  }
  auto corpus = LoadFile(path);
  if (!corpus.ok()) return Fail(corpus.status());
  const qb::ObservationSet& observations = *corpus->observations;
  const qb::CubeSpace& space = *corpus->space;
  std::printf("observations: %zu\n", observations.size());
  std::printf("datasets:     %zu\n", observations.num_datasets());
  for (qb::DatasetId d = 0; d < observations.num_datasets(); ++d) {
    std::printf("  %-40s %zu observations\n", observations.dataset(d).iri.c_str(),
                observations.dataset(d).observations.size());
  }
  std::printf("dimensions:   %zu\n", space.num_dimensions());
  for (qb::DimId d = 0; d < space.num_dimensions(); ++d) {
    std::printf("  %-40s %zu codes, depth %u\n",
                space.dimension_iri(d).c_str(), space.code_list(d).size(),
                space.code_list(d).max_level());
  }
  std::printf("measures:     %zu\n", space.num_measures());
  const core::Lattice lattice(observations);
  std::printf("lattice:      %zu populated cubes (%.4f per observation)\n",
              lattice.num_cubes(),
              observations.size() ? static_cast<double>(lattice.num_cubes()) /
                               static_cast<double>(observations.size())
                         : 0.0);
  if (!want_report) return 0;

  // --report: run the default engine under the observability layer and
  // print the merged run report (phase timings, engine stats, metrics).
  obx::MetricsRegistry::Global().ResetAll();
  obx::TraceCollector::Global().Enable();
  core::EngineReport engine_report;
  uint64_t root_id = 0;
  {
    obx::TraceSpan root("cli/stats");
    root_id = root.id();
    core::CountingSink sink;
    const core::EngineOptions options;
    const Status st =
        core::ComputeRelationships(observations, options, &sink, &engine_report);
    if (!st.ok()) return Fail(st);
  }
  obx::TraceCollector::Global().Disable();
  obx::RunReport run_report("cli_stats");
  core::FillRunReport(engine_report, &run_report);
  run_report.CaptureMetrics();
  run_report.CapturePhases(root_id);
  std::printf("\n%s", run_report.ToText().c_str());
  return 0;
}

int CmdValidate(const std::string& path) {
  auto corpus = LoadFile(path);
  if (!corpus.ok()) return Fail(corpus.status());
  const qb::ValidationReport report = qb::ValidateCorpus(*corpus);
  std::fputs(qb::FormatReport(report).c_str(), stdout);
  return report.ok() ? 0 : 2;
}

int CmdRelate(const std::string& path, const std::vector<std::string>& args) {
  core::EngineOptions options;
  std::string out_path;
  for (const std::string& arg : args) {
    if (StartsWith(arg, "--method=")) {
      const std::string m = arg.substr(9);
      if (m == "baseline") {
        options.method = core::Method::kBaseline;
      } else if (m == "clustering") {
        options.method = core::Method::kClustering;
      } else if (m == "masking") {
        options.method = core::Method::kCubeMasking;
      } else if (m == "hybrid") {
        options.method = core::Method::kHybrid;
      } else {
        std::fprintf(stderr, "unknown method: %s\n", m.c_str());
        return 1;
      }
    } else if (StartsWith(arg, "--types=")) {
      options.selector = core::RelationshipSelector{false, false, false, false};
      for (const std::string& t : Split(arg.substr(8), ',')) {
        if (t == "full") {
          options.selector.full_containment = true;
        } else if (t == "partial") {
          options.selector.partial_containment = true;
        } else if (t == "compl") {
          options.selector.complementarity = true;
        } else {
          std::fprintf(stderr, "unknown relationship type: %s\n", t.c_str());
          return 1;
        }
      }
    } else if (StartsWith(arg, "--out=")) {
      out_path = arg.substr(6);
    } else if (StartsWith(arg, "--timeout=")) {
      Result<double> seconds = ParseDouble(arg.substr(10));
      if (!seconds.ok() || seconds.value() < 0.0) {
        std::fprintf(stderr, "--timeout expects a non-negative number: %s\n",
                     arg.substr(10).c_str());
        return 1;
      }
      options.deadline = rdfcube::Deadline(seconds.value());
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 1;
    }
  }
  auto corpus = LoadFile(path);
  if (!corpus.ok()) return Fail(corpus.status());
  const qb::ObservationSet& observations = *corpus->observations;

  core::EngineReport report;
  Status st;
  if (out_path.empty()) {
    core::CountingSink sink;
    st = core::ComputeRelationships(observations, options, &sink, &report);
    if (!st.ok()) return Fail(st);
    std::printf("full containment:    %zu\n", sink.full());
    std::printf("partial containment: %zu\n", sink.partial());
    std::printf("complementarity:     %zu\n", sink.complementary());
  } else {
    rdf::TripleStore out_store;
    core::RdfMaterializingSink sink(&observations, &out_store);
    st = core::ComputeRelationships(observations, options, &sink, &report);
    if (!st.ok()) return Fail(st);
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << rdf::WriteNTriples(out_store);
    std::printf("materialized %zu triples to %s\n", sink.triples_written(),
                out_path.c_str());
  }
  std::printf("method: %s, %.3f s\n", core::MethodName(options.method),
              report.elapsed_seconds);
  return 0;
}

int CmdSkyline(const std::string& path) {
  auto corpus = LoadFile(path);
  if (!corpus.ok()) return Fail(corpus.status());
  const qb::ObservationSet& observations = *corpus->observations;
  const core::Lattice lattice(observations);
  const auto skyline = core::ComputeSkyline(observations, lattice);
  for (qb::ObsId id : skyline) {
    std::printf("%s\n", observations.obs(id).iri.c_str());
  }
  std::fprintf(stderr, "%zu of %zu observations on the skyline\n",
               skyline.size(), observations.size());
  return 0;
}

int CmdExplore(const std::string& path, const std::string& obs_iri) {
  auto corpus = LoadFile(path);
  if (!corpus.ok()) return Fail(corpus.status());
  const qb::ObservationSet& observations = *corpus->observations;
  qb::ObsId id = 0;
  bool found = false;
  for (qb::ObsId i = 0; i < observations.size(); ++i) {
    if (observations.obs(i).iri == obs_iri) {
      id = i;
      found = true;
      break;
    }
  }
  if (!found) {
    std::fprintf(stderr, "observation not found: %s\n", obs_iri.c_str());
    return 1;
  }
  const core::CubeExplorer explorer(&observations);
  std::printf("containers (roll-up):\n");
  for (qb::ObsId o : explorer.Containers(id)) {
    std::printf("  %s\n", observations.obs(o).iri.c_str());
  }
  std::printf("contained (drill-down):\n");
  for (qb::ObsId o : explorer.ContainedBy(id)) {
    std::printf("  %s\n", observations.obs(o).iri.c_str());
  }
  std::printf("complements:\n");
  for (qb::ObsId o : explorer.Complements(id)) {
    std::printf("  %s\n", observations.obs(o).iri.c_str());
  }
  std::printf("partially contains (degree >= 0.5):\n");
  for (const auto& match : explorer.PartiallyContained(id, 0.5)) {
    std::printf("  %s (%.2f)\n", observations.obs(match.other).iri.c_str(),
                match.degree);
  }
  return 0;
}

int CmdRollup(const std::string& path, const std::vector<std::string>& args) {
  auto corpus = LoadFile(path);
  if (!corpus.ok()) return Fail(corpus.status());
  const qb::ObservationSet& observations = *corpus->observations;
  const qb::CubeSpace& space = *corpus->space;

  std::vector<std::pair<qb::DimId, hierarchy::CodeId>> target;
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "expected <dim-iri>=<code>, got %s\n", arg.c_str());
      return 1;
    }
    auto dim = space.FindDimension(arg.substr(0, eq));
    if (!dim.has_value()) {
      std::fprintf(stderr, "unknown dimension: %s\n",
                   arg.substr(0, eq).c_str());
      return 1;
    }
    auto code = space.code_list(*dim).Find(arg.substr(eq + 1));
    if (!code.has_value()) {
      std::fprintf(stderr, "unknown code: %s\n", arg.substr(eq + 1).c_str());
      return 1;
    }
    target.emplace_back(*dim, *code);
  }

  const core::Lattice lattice(observations);
  auto result = core::RollUp(observations, lattice, target);
  if (!result.ok()) return Fail(result.status());
  std::printf("coordinate:");
  for (qb::DimId d = 0; d < space.num_dimensions(); ++d) {
    std::printf(" %s",
                std::string(IriLocalName(
                    space.code_list(d).name(result->coordinate[d]))).c_str());
  }
  std::printf("\ncontained observations: %zu\n", result->contained.size());
  for (const auto& m : result->measures) {
    std::printf("  sum(%s) = %g  (%zu contributors)\n",
                space.measure_iri(m.measure).c_str(), m.value,
                m.contributors);
  }
  return 0;
}

volatile sig_atomic_t g_serve_stop = 0;

void OnServeSignal(int) { g_serve_stop = 1; }

int CmdServe(const std::string& path, const std::vector<std::string>& args) {
  server::ServerOptions options;
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    Result<uint64_t> u64 =
        eq == std::string::npos
            ? Result<uint64_t>(Status::InvalidArgument("no value"))
            : ParseU64(arg.substr(eq + 1));
    if (key == "--port" && u64.ok()) {
      options.port = static_cast<uint16_t>(u64.value());
    } else if (key == "--workers" && u64.ok()) {
      options.num_workers = static_cast<std::size_t>(u64.value());
    } else if (key == "--queue" && u64.ok()) {
      options.max_queue = static_cast<std::size_t>(u64.value());
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 1;
    }
  }
  auto corpus = LoadFile(path);
  if (!corpus.ok()) return Fail(corpus.status());
  core::RelationshipSnapshot::BuildOptions build;
  build.version = 1;
  auto snap =
      core::RelationshipSnapshot::Build(std::move(corpus).value(), build);
  if (!snap.ok()) return Fail(snap.status());

  server::Server srv(options);
  const Status started = srv.Start(std::move(snap).value());
  if (!started.ok()) return Fail(started);
  std::printf("serving on port %u\n", srv.port());
  std::fflush(stdout);

  struct sigaction sa = {};
  sa.sa_handler = OnServeSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  srv.Stop();
  std::printf("drained: %llu requests, %llu shed\n",
              static_cast<unsigned long long>(srv.requests_total()),
              static_cast<unsigned long long>(srv.shed_total()));
  return 0;
}

int CmdQuery(const std::string& hostport,
             const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fputs(
        "usage: rdfcube_cli query <host:port> "
        "<ping|containers|contained|complements|partial|scan|stats|"
        "metrics|slowlog|tracez> "
        "[obs-id] [--min-degree=D] [--limit=N]\n"
        "(scan: without --limit pages through every relationship; "
        "--limit=N returns one page of at most N records)\n"
        "(tracez: --limit=N is the capture window in ms, default 100)\n",
        stderr);
    return 1;
  }
  server::ClientOptions options;
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "expected <host:port>, got %s\n", hostport.c_str());
    return 1;
  }
  options.host = hostport.substr(0, colon);
  Result<uint64_t> port = ParseU64(hostport.substr(colon + 1));
  if (!port.ok()) return Fail(port.status());
  options.port = static_cast<uint16_t>(port.value());

  const std::string op = args[0];
  qb::ObsId target = 0;
  double min_degree = 0.0;
  uint32_t limit = 0;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--min-degree=", 0) == 0) {
      Result<double> d = ParseDouble(arg.substr(13));
      if (!d.ok()) return Fail(d.status());
      min_degree = d.value();
    } else if (arg.rfind("--limit=", 0) == 0) {
      Result<uint64_t> n = ParseU64(arg.substr(8));
      if (!n.ok()) return Fail(n.status());
      limit = static_cast<uint32_t>(n.value());
    } else {
      Result<uint64_t> id = ParseU64(arg);
      if (!id.ok()) return Fail(id.status());
      target = static_cast<qb::ObsId>(id.value());
    }
  }

  server::Client client(options);
  if (op == "ping") {
    auto version = client.Ping();
    if (!version.ok()) return Fail(version.status());
    std::printf("ok, snapshot v%llu\n",
                static_cast<unsigned long long>(version.value()));
    return 0;
  }
  if (op == "containers" || op == "contained" || op == "complements") {
    auto ids = op == "containers"  ? client.Containers(target)
               : op == "contained" ? client.Contained(target)
                                   : client.Complements(target);
    if (!ids.ok()) return Fail(ids.status());
    for (qb::ObsId id : ids.value()) std::printf("%u\n", id);
    std::printf("(%zu results)\n", ids.value().size());
    return 0;
  }
  if (op == "partial") {
    auto matches = client.Partial(target, min_degree);
    if (!matches.ok()) return Fail(matches.status());
    for (const auto& [id, degree] : matches.value()) {
      std::printf("%u %.4f\n", id, degree);
    }
    std::printf("(%zu results)\n", matches.value().size());
    return 0;
  }
  if (op == "scan") {
    // Without --limit, follow the cursor page by page until the last one.
    server::ScanCursor cursor;
    std::size_t total = 0;
    uint64_t version = 0;
    for (bool first = true;; first = false) {
      auto page = client.ScanPage(cursor, limit);
      if (!page.ok()) return Fail(page.status());
      if (!first && page->snapshot_version != version) {
        std::fprintf(stderr,
                     "note: snapshot reloaded mid-scan (v%llu -> v%llu)\n",
                     static_cast<unsigned long long>(version),
                     static_cast<unsigned long long>(page->snapshot_version));
      }
      version = page->snapshot_version;
      for (const auto& rec : page->records) {
        std::printf("%c %u %u %.4f\n", static_cast<char>(rec.kind), rec.a,
                    rec.b, rec.degree);
      }
      total += page->records.size();
      cursor = page->cursor;
      if (limit != 0 || !page->more) break;
    }
    std::printf("(%zu records)\n", total);
    return 0;
  }
  if (op == "stats") {
    auto stats = client.Stats();
    if (!stats.ok()) return Fail(stats.status());
    const auto& s = stats.value();
    std::printf("observations:     %llu\n"
                "full:             %llu\n"
                "partial:          %llu\n"
                "complementary:    %llu\n"
                "requests:         %llu\n"
                "shed:             %llu\n"
                "deadline expired: %llu\n"
                "reloads:          %llu\n"
                "reload failures:  %llu\n",
                static_cast<unsigned long long>(s[server::kStatsObservations]),
                static_cast<unsigned long long>(s[server::kStatsFull]),
                static_cast<unsigned long long>(s[server::kStatsPartial]),
                static_cast<unsigned long long>(
                    s[server::kStatsComplementary]),
                static_cast<unsigned long long>(s[server::kStatsRequests]),
                static_cast<unsigned long long>(s[server::kStatsShed]),
                static_cast<unsigned long long>(
                    s[server::kStatsDeadlineExpired]),
                static_cast<unsigned long long>(s[server::kStatsReloads]),
                static_cast<unsigned long long>(
                    s[server::kStatsReloadFailures]));
    return 0;
  }
  if (op == "metrics") {
    auto text = client.Metrics();
    if (!text.ok()) return Fail(text.status());
    std::fputs(text.value().c_str(), stdout);
    return 0;
  }
  if (op == "slowlog") {
    auto text = client.Slowlog();
    if (!text.ok()) return Fail(text.status());
    std::printf("%s\n", text.value().c_str());
    return 0;
  }
  if (op == "tracez") {
    auto text = client.TraceDump(limit);
    if (!text.ok()) return Fail(text.status());
    std::printf("%s\n", text.value().c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown query op: %s\n", op.c_str());
  return 1;
}

void Usage() {
  std::fputs(
      "usage: rdfcube_cli <command> <file.ttl|host:port> [args]\n"
      "commands: stats [--report] | validate | relate | skyline | "
      "explore <obs-iri> | rollup |\n"
      "          serve [--port=N --workers=N --queue=N] | "
      "query <op> [obs-id]\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    Usage();
    return 1;
  }
  const std::string command = argv[1];
  const std::string path = argv[2];
  std::vector<std::string> rest;
  for (int i = 3; i < argc; ++i) rest.emplace_back(argv[i]);

  if (command == "serve") return CmdServe(path, rest);
  if (command == "query") return CmdQuery(path, rest);
  if (command == "stats") return CmdStats(path, rest);
  if (command == "validate") return CmdValidate(path);
  if (command == "relate") return CmdRelate(path, rest);
  if (command == "skyline") return CmdSkyline(path);
  if (command == "rollup") return CmdRollup(path, rest);
  if (command == "explore") {
    if (rest.empty()) {
      Usage();
      return 1;
    }
    return CmdExplore(path, rest[0]);
  }
  Usage();
  return 1;
}
