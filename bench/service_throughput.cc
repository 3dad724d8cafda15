// Multi-client throughput of the query service (DESIGN.md §11): the same
// Fig. 16(a)-style selection workload driven through TossService::Run by 1
// client thread and by `max_inflight + queue` worth of concurrent clients.
//
// What this measures (and records into the bench report):
//   service_throughput/single_query_ms   median per-query latency, 1 client
//   service_throughput/multi_query_ms    median per-query latency, N clients
//   service_throughput/qps_1client       completed queries/s, 1 client
//   service_throughput/qps_multi        completed queries/s, N clients
//   service_throughput/queue_wait_p_ms   mean reported queue wait, N clients
// plus, via the atexit metrics merge, the service instruments themselves
// (service.inflight / service.shed / service.deadline_exceeded /
// service.queue_wait_ns). The shed and deadline counters are exercised by
// two deterministic epilogues: a saturated max_inflight=1/max_queue=0
// service, and a request whose deadline has already expired.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "service/toss_service.h"

using namespace toss;

namespace {

std::vector<service::QueryRequest> MakeWorkload(const data::BibWorld& world,
                                                size_t rounds) {
  std::vector<service::QueryRequest> out;
  for (size_t r = 0; r < rounds; ++r) {
    for (const auto& venue : world.venues) {
      out.push_back(service::QueryRequest::Select(
          "dblp",
          data::MakeScalabilitySelectionPattern(venue.short_name,
                                                venue.category),
          {1}));
    }
  }
  return out;
}

/// Runs every request in `reqs` through `svc`, appending each query's
/// latency to `lat_ms` and queue wait to `wait_ms` (both pre-sized by the
/// caller; `base` is this client's slot).
void RunClient(service::TossService& svc,
               const std::vector<service::QueryRequest>& reqs,
               std::vector<double>& lat_ms, std::vector<double>& wait_ms,
               size_t base) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    Timer t;
    service::QueryResponse resp = svc.Run(reqs[i]);
    bench::CheckOk(resp.status, "service Run");
    lat_ms[base + i] = t.ElapsedMillis();
    wait_ms[base + i] = resp.queue_wait_ms;
  }
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const size_t kPapers = smoke ? 150 : 800;
  const size_t kRounds = smoke ? 2 : 8;
  const size_t kClients = 4;

  data::BibConfig cfg;
  cfg.seed = 19;
  cfg.num_people = smoke ? 30 : 120;
  cfg.num_papers = kPapers;
  data::BibWorld world = data::GenerateWorld(cfg);

  store::Database db;
  bench::CheckOk(
      data::LoadIntoCollection(&db, "dblp",
                               data::EmitDblp(world, 0, kPapers, cfg)),
      "load dblp");
  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  core::Seo seo = bench::BuildSeo(
      {bench::CollectionOntology(db, "dblp", data::DblpContentTags())},
      "levenshtein", 3.0);

  service::ServiceOptions options;
  options.max_inflight = kClients;
  service::TossService svc(&db, &seo, &types, options);

  const std::vector<service::QueryRequest> reqs = MakeWorkload(world, kRounds);

  // 1 client, sequential.
  std::vector<double> lat1(reqs.size()), wait1(reqs.size());
  Timer t1;
  RunClient(svc, reqs, lat1, wait1, 0);
  double wall1_ms = t1.ElapsedMillis();

  // kClients concurrent clients, each running the full workload.
  std::vector<double> latn(kClients * reqs.size());
  std::vector<double> waitn(kClients * reqs.size());
  Timer tn;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      RunClient(svc, reqs, latn, waitn, c * reqs.size());
    });
  }
  for (auto& th : clients) th.join();
  double walln_ms = tn.ElapsedMillis();

  double mean_wait = 0;
  for (double w : waitn) mean_wait += w;
  mean_wait /= static_cast<double>(waitn.size());

  // Deterministic shed: a single-slot, zero-queue service occupied by a
  // slow join sheds everything else with ResourceExhausted.
  service::ServiceOptions tiny;
  tiny.max_inflight = 1;
  tiny.max_queue = 0;
  service::TossService tiny_svc(&db, &seo, &types, tiny);
  std::atomic<size_t> shed{0};
  {
    std::thread holder([&] {
      service::QueryRequest req = reqs.front();
      for (size_t i = 0; i < 50 && shed.load() == 0; ++i) {
        // The prober can win the only slot and shed THIS thread instead:
        // that is equally a saturation observation.
        Status st = tiny_svc.Run(req).status;
        if (st.IsResourceExhausted()) {
          shed.fetch_add(1);
          break;
        }
        bench::CheckOk(st, "holder Run");
      }
    });
    std::thread prober([&] {
      for (size_t i = 0; i < 2000 && shed.load() == 0; ++i) {
        if (tiny_svc.Run(reqs.front()).status.IsResourceExhausted()) {
          shed.fetch_add(1);
        }
      }
    });
    holder.join();
    prober.join();
  }

  // Deterministic deadline: a request whose budget is already spent fails
  // with DeadlineExceeded before (or during) admission.
  CancelToken expired = CancelToken::AfterMillis(0);
  service::QueryRequest late = reqs.front();
  late.cancel = &expired;
  size_t deadline_hits =
      svc.Run(late).status.IsDeadlineExceeded() ? size_t{1} : size_t{0};

  const double qps1 =
      wall1_ms > 0 ? 1000.0 * static_cast<double>(reqs.size()) / wall1_ms : 0;
  const double qpsn =
      walln_ms > 0 ? 1000.0 * static_cast<double>(latn.size()) / walln_ms : 0;

  std::printf("Service throughput (%zu-query selection workload, "
              "max_inflight=%zu)\n",
              reqs.size(), options.max_inflight);
  std::printf("%10s %12s %12s %12s\n", "clients", "median-ms", "qps",
              "mean-wait");
  std::printf("%10d %12.3f %12.1f %12.3f\n", 1, bench::Median(lat1), qps1,
              0.0);
  std::printf("%10zu %12.3f %12.1f %12.3f\n", kClients, bench::Median(latn),
              qpsn, mean_wait);
  std::printf("\nshed responses (ResourceExhausted): %zu\n", shed.load());
  std::printf("expired-deadline responses (DeadlineExceeded): %zu\n",
              deadline_hits);

  bench::RecordBenchMs("service_throughput/single_query_ms",
                       bench::Median(lat1));
  bench::RecordBenchMs("service_throughput/multi_query_ms",
                       bench::Median(latn));
  bench::RecordBenchMs("service_throughput/qps_1client", qps1);
  bench::RecordBenchMs("service_throughput/qps_multi", qpsn);
  bench::RecordBenchMs("service_throughput/queue_wait_mean_ms", mean_wait);
  std::printf(
      "\nExpected shape: multi-client qps approaches 1-client qps on one\n"
      "hardware thread (time-sliced) and exceeds it on real cores; per-\n"
      "query latency rises with queue wait, which admission control bounds.\n");
  return 0;
}
