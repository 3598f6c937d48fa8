#include "perfbench/serving.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

using rdfcube::Status;

server::Request PointRequest(std::size_t i, qb::ObsId target) {
  static constexpr server::Op kOps[] = {
      server::Op::kContainers, server::Op::kContained,
      server::Op::kComplements, server::Op::kPartial};
  server::Request req;
  req.op = kOps[i % 4];
  req.target = target;
  if (req.op == server::Op::kPartial) req.min_degree = 0.5;
  return req;
}

server::Request ScanRequest(uint32_t limit) {
  server::Request req;
  req.op = server::Op::kScan;
  req.limit = limit;
  return req;
}

const char* ClientSpan(server::Op op) {
  switch (op) {
    case server::Op::kContainers: return "server.client.containers";
    case server::Op::kContained: return "server.client.contained";
    case server::Op::kComplements: return "server.client.complements";
    case server::Op::kPartial: return "server.client.partial";
    default: return "server.client.scan";
  }
}

namespace {

// Degrees enter digests quantized, like RecordKey, so equal answers from
// two engines cannot differ in the last ulp.
uint64_t Digest(std::vector<std::pair<qb::ObsId, double>> answer) {
  std::sort(answer.begin(), answer.end());
  uint64_t h = Mix64(answer.size());
  for (const auto& [id, degree] : answer) {
    h = Mix64(h ^ id);
    h = Mix64(h ^ static_cast<uint64_t>(std::llround(degree * 1048575.0)));
  }
  return h;
}

}  // namespace

uint64_t AnswerDigest(const server::Response& resp) {
  std::vector<std::pair<qb::ObsId, double>> answer;
  answer.reserve(resp.ids.size());
  for (std::size_t i = 0; i < resp.ids.size(); ++i) {
    answer.emplace_back(resp.ids[i],
                        i < resp.degrees.size() ? resp.degrees[i] : 0.0);
  }
  return Digest(std::move(answer));
}

uint64_t ExpectedDigest(const core::CubeExplorer& explorer,
                        const server::Request& req) {
  std::vector<std::pair<qb::ObsId, double>> answer;
  auto plain = [&answer](const std::vector<qb::ObsId>& ids) {
    for (qb::ObsId id : ids) answer.emplace_back(id, 0.0);
  };
  switch (req.op) {
    case server::Op::kContainers:
      plain(explorer.Containers(req.target));
      break;
    case server::Op::kContained:
      plain(explorer.ContainedBy(req.target));
      break;
    case server::Op::kComplements:
      plain(explorer.Complements(req.target));
      break;
    default:
      for (const auto& m :
           explorer.PartiallyContained(req.target, req.min_degree)) {
        answer.emplace_back(m.other, m.degree);
      }
      break;
  }
  return Digest(std::move(answer));
}

std::vector<uint64_t> PageKeys(const server::Response& resp, bool* distinct) {
  std::vector<uint64_t> keys;
  keys.reserve(resp.records.size());
  for (const server::ScanRecord& r : resp.records) {
    keys.push_back(
        RecordKey(static_cast<char>(r.kind), r.a, r.b, r.degree));
  }
  std::sort(keys.begin(), keys.end());
  *distinct = std::adjacent_find(keys.begin(), keys.end()) == keys.end();
  return keys;
}

bool PageWithin(const std::vector<uint64_t>& page,
                const std::vector<uint64_t>& all) {
  return std::includes(all.begin(), all.end(), page.begin(), page.end());
}

Status ServerHandle::Start(server::SnapshotPtr snapshot) {
  server_ = std::make_unique<server::Server>(server::ServerOptions{});
  Status st = server_->Start(std::move(snapshot));
  if (!st.ok()) return st;
  server::ClientOptions options;
  options.port = server_->port();
  client_ = std::make_unique<server::Client>(options);
  const rdfcube::Result<uint64_t> ping = client_->Ping();
  return ping.ok() ? Status::OK() : ping.status();
}

void ServerHandle::Stop() {
  if (client_ != nullptr) client_->Disconnect();
  if (server_ != nullptr) server_->Stop();
}

bool Succeeded(const rdfcube::Result<server::Response>& resp) {
  return resp.ok() && resp.value().code == server::RespCode::kOk;
}

}  // namespace perfbench
