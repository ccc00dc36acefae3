/**
 * @file
 * capuserve throughput harness: cold vs warm requests/sec and latency.
 *
 * Phase 1 (cold) sends one request per tenant — every one a cache miss
 * that runs a full measured planning session. Phase 2 (warm) repeats the
 * mix 64 times over — every one a cache hit answered by forking the
 * cached template session, no re-measurement. A third phase runs one
 * guided iteration on each warm fork to show the fork is a *live*
 * session, not just a stored plan. Two hard gates:
 *
 *  - identity: every warm response's plan digest equals the digest of the
 *    cold measured plan for its key (plan_io digests hash every field of
 *    every item, so equal digests mean bit-identical plans);
 *  - speedup: warm requests/sec must be >= 10x cold requests/sec — the
 *    capuserve acceptance floor. The ratio is host-time based but
 *    self-relative (both phases run on the same machine in the same
 *    process), so no calibration normalization is needed.
 *
 * An eviction-churn stress follows: a service capped at 2 cache entries
 * is driven round-robin over the 4 tenants, so every request misses and
 * every insert evicts. Each re-measured plan must digest-match the first
 * plan ever built for its key — determinism under churn — and the cache
 * must stay at its capacity floor with live eviction counts.
 *
 * Planning sessions run on the default P100 with 4 admission tokens.
 *
 * Exit status: 0 ok; 1 gate failure; 2 usage error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "serve/request_queue.hh"
#include "serve/service.hh"
#include "support/logging.hh"

using namespace capu;
using namespace capu::serve;

namespace
{

struct ServeTenant
{
    const char *model;
    std::int64_t batch;
};

/** The zoo request mix: four tenants across model families, batches kept
 *  modest so a cold planning session stays in the hundreds of ms. */
constexpr ServeTenant kTenants[] = {
    {"resnet50", 192},
    {"vgg16", 96},
    {"densenet", 96},
    {"inceptionv3", 128},
};
constexpr std::size_t kTenantCount = std::size(kTenants);
constexpr std::size_t kWarmRequests = 64;
constexpr int kChurnRounds = 3;

/** Nearest-rank percentile over a copy of `v` (p in [0, 1]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

/**
 * Round-robin request stream over the tenants: every tenant appears once
 * per cycle, so `count >= kTenantCount` guarantees full coverage and the
 * stream is deterministic without a seed.
 */
std::vector<PlanRequest>
requestMix(std::size_t count, int warm_iters)
{
    std::vector<PlanRequest> reqs;
    reqs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const ServeTenant &t = kTenants[i % kTenantCount];
        PlanRequest r;
        r.model = t.model;
        r.batch = t.batch;
        r.warmIterations = warm_iters;
        reqs.push_back(std::move(r));
    }
    return reqs;
}

/** One timed drain of a request batch through the queue. */
struct PhaseResult
{
    std::size_t requests = 0;
    int errors = 0;
    double wallMs = 0;
    double reqPerSec = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    std::vector<PlanResponse> responses;
};

PhaseResult
runPhase(RequestQueue &queue, const std::vector<PlanRequest> &reqs)
{
    for (const PlanRequest &r : reqs)
        queue.enqueue(r);
    auto t0 = std::chrono::steady_clock::now();
    PhaseResult res;
    res.responses = queue.drain();
    auto t1 = std::chrono::steady_clock::now();
    res.requests = res.responses.size();
    res.wallMs = std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::vector<double> lat;
    lat.reserve(res.responses.size());
    for (const PlanResponse &r : res.responses) {
        if (!r.ok)
            ++res.errors;
        lat.push_back(r.latencyMs);
    }
    res.reqPerSec = res.wallMs > 0
                        ? static_cast<double>(res.requests) * 1e3 / res.wallMs
                        : 0.0;
    res.p50Ms = percentile(lat, 0.50);
    res.p99Ms = percentile(lat, 0.99);
    return res;
}

/**
 * Record the first digest seen per (model, batch) tag and flag any later
 * disagreement — the warm/cold bit-identity check. identical() stays true
 * while all phases agree.
 */
class DigestLedger
{
  public:
    void
    observe(const std::vector<PlanRequest> &reqs,
            const std::vector<PlanResponse> &resps)
    {
        for (std::size_t i = 0; i < resps.size() && i < reqs.size(); ++i) {
            if (!resps[i].ok)
                continue;
            std::string tag =
                reqs[i].model + "@" + std::to_string(reqs[i].batch);
            auto it = first_.find(tag);
            if (it == first_.end())
                first_.emplace(std::move(tag), resps[i].digest);
            else if (it->second != resps[i].digest)
                identical_ = false;
        }
    }

    bool identical() const { return identical_; }

  private:
    std::unordered_map<std::string, std::uint64_t> first_;
    bool identical_ = true;
};

void
usage()
{
    std::cout << "usage: serve_throughput [options]\n"
                 "  --json FILE       write machine-readable results here\n";
}

double
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::atof(buf);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                return 2;
            }
            json = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
            return 2;
        }
    }
    setLogEnabled(false);

    try {
        PlanServiceConfig cfg;
        obs::MetricsRegistry metrics;
        metrics.setEnabled(true);
        PlanService service(cfg, &metrics);
        RequestQueue queue(service);

        bool ok = true;
        DigestLedger ledger;

        // ---- phase 1: cold (every request measures and plans) -----------
        std::vector<PlanRequest> cold_reqs =
            requestMix(kTenantCount, /*warm_iters=*/0);
        PhaseResult cold = runPhase(queue, cold_reqs);
        ledger.observe(cold_reqs, cold.responses);

        // ---- phase 2: warm (every request forks the cached template) ----
        std::vector<PlanRequest> warm_reqs =
            requestMix(kWarmRequests, /*warm_iters=*/0);
        PhaseResult warm = runPhase(queue, warm_reqs);
        ledger.observe(warm_reqs, warm.responses);

        // ---- phase 3: warm fork + 1 guided iteration (reported only) ----
        std::vector<PlanRequest> run_reqs =
            requestMix(kTenantCount, /*warm_iters=*/1);
        PhaseResult forkrun = runPhase(queue, run_reqs);
        ledger.observe(run_reqs, forkrun.responses);

        const PlanCacheStats &cs = service.cacheStats();
        double speedup =
            cold.reqPerSec > 0 ? warm.reqPerSec / cold.reqPerSec : 0.0;

        std::cout << "capuserve throughput (" << kTenantCount
                  << " tenants, device p100)\n";
        std::cout << "  cold: " << cold.requests << " req, "
                  << cold.reqPerSec << " req/s, p50 " << cold.p50Ms
                  << " ms, p99 " << cold.p99Ms << " ms\n";
        std::cout << "  warm: " << warm.requests << " req, "
                  << warm.reqPerSec << " req/s, p50 " << warm.p50Ms
                  << " ms, p99 " << warm.p99Ms << " ms\n";
        std::cout << "  fork+run: " << forkrun.requests << " req, p50 "
                  << forkrun.p50Ms << " ms (1 guided iteration each)\n";
        std::cout << "  speedup: " << speedup << "x warm over cold; cache "
                  << cs.hits << " hits / " << cs.misses << " misses, "
                  << service.templateSessions() << " template sessions\n";

        int errors = cold.errors + warm.errors + forkrun.errors;
        if (errors) {
            std::cerr << "SERVE ERRORS: " << errors
                      << " requests failed\n";
            ok = false;
        }
        if (!ledger.identical()) {
            std::cerr << "SERVE DIGEST MISMATCH: a warm response disagrees "
                         "with the cold plan for its key\n";
            ok = false;
        }
        if (cs.misses != kTenantCount ||
            cs.hits != warm.requests + forkrun.requests) {
            std::cerr << "SERVE CACHE ACCOUNTING OFF: " << cs.hits
                      << " hits / " << cs.misses << " misses, expected "
                      << warm.requests + forkrun.requests << " / "
                      << kTenantCount << "\n";
            ok = false;
        }
        if (speedup < 10.0) {
            std::cerr << "SERVE WARM SPEEDUP " << speedup
                      << "x BELOW 10x COLD\n";
            ok = false;
        }

        // ---- eviction-churn stress ---------------------------------------
        PlanServiceConfig ccfg = cfg;
        ccfg.cacheEntries = 2; // 4 tenants round-robin: always evicting
        ccfg.coldIterations = 2;
        obs::MetricsRegistry cmetrics;
        cmetrics.setEnabled(true);
        PlanService churn_svc(ccfg, &cmetrics);
        RequestQueue churn_queue(churn_svc);
        DigestLedger churn_ledger;
        std::size_t churn_requests = 0;
        for (int round = 0; round < kChurnRounds; ++round) {
            std::vector<PlanRequest> reqs =
                requestMix(kTenantCount, /*warm_iters=*/0);
            PhaseResult res = runPhase(churn_queue, reqs);
            churn_ledger.observe(reqs, res.responses);
            churn_requests += res.requests;
            if (res.errors) {
                std::cerr << "CHURN ERRORS in round " << round << "\n";
                ok = false;
            }
        }
        const PlanCacheStats &ccs = churn_svc.cacheStats();
        bool churn_identical = churn_ledger.identical();
        std::cout << "  churn: " << churn_requests
                  << " req over capacity-2 cache, " << ccs.evictions
                  << " evictions, " << churn_svc.cacheEntries()
                  << " resident, re-measured plans identical: "
                  << (churn_identical ? "yes" : "NO") << "\n";
        if (!churn_identical) {
            std::cerr << "CHURN DIGEST MISMATCH: a re-measured plan "
                         "differs from the first plan for its key\n";
            ok = false;
        }
        if (ccs.evictions == 0 || churn_svc.cacheEntries() > 2) {
            std::cerr << "CHURN DID NOT EVICT (evictions=" << ccs.evictions
                      << ", entries=" << churn_svc.cacheEntries() << ")\n";
            ok = false;
        }
        if (churn_svc.templateSessions() > churn_svc.cacheEntries()) {
            std::cerr << "TEMPLATE SESSION LEAK: "
                      << churn_svc.templateSessions() << " sessions for "
                      << churn_svc.cacheEntries() << " cache entries\n";
            ok = false;
        }

        if (!json.empty()) {
            std::ofstream js(json);
            js << "{\n  \"schema\": \"capu-serve-v1\",\n"
               << "  \"tenants\": " << kTenantCount << ",\n"
               << "  \"cold\": {\"requests\": " << cold.requests
               << ", \"req_per_sec\": " << jsonNum(cold.reqPerSec)
               << ", \"p50_ms\": " << jsonNum(cold.p50Ms)
               << ", \"p99_ms\": " << jsonNum(cold.p99Ms) << "},\n"
               << "  \"warm\": {\"requests\": " << warm.requests
               << ", \"req_per_sec\": " << jsonNum(warm.reqPerSec)
               << ", \"p50_ms\": " << jsonNum(warm.p50Ms)
               << ", \"p99_ms\": " << jsonNum(warm.p99Ms) << "},\n"
               << "  \"fork_run_p50_ms\": " << jsonNum(forkrun.p50Ms)
               << ",\n"
               << "  \"warm_speedup\": " << jsonNum(speedup) << ",\n"
               << "  \"identical\": "
               << (ledger.identical() ? "true" : "false") << ",\n"
               << "  \"hits\": " << cs.hits << ",\n"
               << "  \"misses\": " << cs.misses << ",\n"
               << "  \"churn\": {\"requests\": " << churn_requests
               << ", \"evictions\": " << ccs.evictions
               << ", \"identical\": "
               << (churn_identical ? "true" : "false") << "}\n}\n";
            std::cout << "  wrote " << json << "\n";
        }

        if (!ok) {
            std::cout << "SERVE THROUGHPUT FAILED (see messages above)\n";
            return 1;
        }
        return 0;
    } catch (const FatalError &e) {
        std::cerr << "serve_throughput: " << e.what() << "\n";
        return 1;
    } catch (const PanicError &e) {
        std::cerr << "serve_throughput: " << e.what() << "\n";
        return 1;
    }
}
