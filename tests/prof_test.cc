/**
 * @file
 * capuprof tests: bucket-attribution conservation across the zoo x policy
 * grid, diff-of-identical-runs emptiness, replayed-vs-executed profile
 * bit-identity, critical-path sanity, per-tensor accounting invariants,
 * profile JSON round-trip, and Chrome-trace import round-trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "faults/fault_spec.hh"
#include "models/workload.hh"
#include "models/zoo.hh"
#include "obs/chrome_trace.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/vdnn_policy.hh"
#include "prof/diff.hh"
#include "prof/profile.hh"
#include "prof/report.hh"
#include "prof/trace_io.hh"

using namespace capu;

namespace
{

struct ZooCase
{
    const char *name;
    ModelKind kind;
    std::int64_t batch;
};

const ZooCase kZoo[] = {
    {"vgg16", ModelKind::Vgg16, 230},
    {"resnet50", ModelKind::ResNet50, 200},
    {"bert", ModelKind::BertBase, 64},
};

std::unique_ptr<MemoryPolicy>
makePolicy(const std::string &name)
{
    if (name == "capuchin")
        return makeCapuchinPolicy();
    if (name == "vdnn")
        return std::make_unique<VdnnPolicy>();
    return std::make_unique<CheckpointingPolicy>(
        CheckpointingPolicy::Mode::Memory);
}

ExecConfig
tracedConfig()
{
    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Full;
    return cfg;
}

prof::Profile
runAndProfile(ModelKind kind, std::int64_t batch, const std::string &policy,
              int iters, ExecConfig cfg = tracedConfig())
{
    Session s(buildModel(kind, batch), cfg, makePolicy(policy));
    SessionResult r = s.run(iters);
    EXPECT_FALSE(r.oom) << r.oomMessage;
    return prof::buildProfile(s.executor().obs().tracer,
                              traceNames(s.graph()));
}

std::string
tempPath(const char *stem)
{
    return testing::TempDir() + stem;
}

} // namespace

// --- conservation: the acceptance gate ---------------------------------

TEST(ProfConservation, ZooPolicySweepBucketsSumToWall)
{
    for (const auto &zc : kZoo) {
        for (const char *policy : {"capuchin", "vdnn", "checkpointing"}) {
            SCOPED_TRACE(std::string(zc.name) + "/" + policy);
            prof::Profile p = runAndProfile(zc.kind, zc.batch, policy, 4);
            ASSERT_GT(p.events, 0u);
            ASSERT_GT(p.wallTicks, 0u);
            // Exact by construction; the CI gate's "within 1%" is slack.
            EXPECT_EQ(p.conservationError(), 0u)
                << "buckets " << p.buckets.total() << " wall " << p.wallTicks;
            EXPECT_EQ(p.iterations.size(), 4u);
            for (const auto &it : p.iterations) {
                EXPECT_EQ(it.buckets.total(), it.end - it.begin)
                    << "iteration " << it.iteration;
                EXPECT_NE(it.digest, 0u);
            }
            EXPECT_GT(p.buckets.compute, 0u);
            EXPECT_GT(p.peakBytes, 0u);
        }
    }
}

// --- per-tensor accounting ---------------------------------------------

TEST(ProfAccounting, CapuchinChargesOverheadToMovedTensors)
{
    prof::Profile p =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 4);
    ASSERT_FALSE(p.tensors.empty());

    std::uint64_t out_bytes = 0, in_bytes = 0;
    Tick stall = 0, recompute = 0;
    bool relief = false;
    for (const auto &t : p.tensors) {
        EXPECT_GE(t.tensor, 0);
        EXPECT_FALSE(t.name.empty());
        EXPECT_EQ(t.overheadTicks, t.stallTicks + t.recomputeTicks);
        out_bytes += t.swapOutBytes;
        in_bytes += t.swapInBytes;
        stall += t.stallTicks;
        recompute += t.recomputeTicks;
        relief = relief || t.reliefByteTicks > 0;
    }
    // vgg16@230 under capuchin must actually move memory.
    EXPECT_GT(out_bytes, 0u);
    EXPECT_GT(in_bytes, 0u);
    EXPECT_TRUE(relief);
    // Tensor-charged time is bounded by the bucketed totals.
    EXPECT_LE(recompute, p.buckets.recompute);
    (void)stall;

    // Ranking is by overhead, heaviest first.
    auto ranked = prof::rankTensors(p);
    ASSERT_EQ(ranked.size(), p.tensors.size());
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GE(ranked[i - 1]->overheadTicks, ranked[i]->overheadTicks);
}

TEST(ProfAccounting, PrefetchTimelinessCountsTransfers)
{
    prof::Profile p =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 4);
    int swap_ins = 0, timeliness = 0;
    for (const auto &t : p.tensors) {
        swap_ins += t.swapInCount;
        timeliness += t.prefetch.total();
    }
    // Every H2D transfer lands in exactly one timeliness class.
    EXPECT_EQ(timeliness, swap_ins);
    EXPECT_GT(swap_ins, 0);
}

// --- critical path ------------------------------------------------------

TEST(ProfCriticalPath, SaneOnCapuchinRun)
{
    prof::Profile p =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 3);
    ASSERT_TRUE(p.critical.valid);
    EXPECT_GT(p.critical.makespan, 0u);
    EXPECT_GT(p.critical.events, 0u);
    EXPECT_GT(p.critical.edges, 0u);
    EXPECT_GE(p.critical.zeroSlack, 1u);
    ASSERT_FALSE(p.critical.steps.empty());
    EXPECT_GE(p.critical.pathLength, p.critical.steps.size());
    // Steps are chronological and inside the session window.
    for (std::size_t i = 1; i < p.critical.steps.size(); ++i)
        EXPECT_GE(p.critical.steps[i].start,
                  p.critical.steps[i - 1].start);
    // The observed critical path can never exceed the traced makespan.
    EXPECT_LE(p.critical.onPathTransfer + p.critical.onPathRecompute,
              p.critical.makespan);
}

// --- differential profiling ---------------------------------------------

TEST(ProfDiff, IdenticalRunsDiffEmpty)
{
    for (const char *policy : {"capuchin", "vdnn", "checkpointing"}) {
        SCOPED_TRACE(policy);
        prof::Profile a =
            runAndProfile(ModelKind::ResNet50, 200, policy, 4);
        prof::Profile b =
            runAndProfile(ModelKind::ResNet50, 200, policy, 4);
        prof::ProfileDiff d = prof::diffProfiles(a, b);
        EXPECT_TRUE(d.identical);
        EXPECT_EQ(d.wallDelta, 0);
        EXPECT_TRUE(d.buckets.zero());
        EXPECT_EQ(d.firstDivergingIteration, -1);
        EXPECT_EQ(d.firstDivergingOp, -1);
        EXPECT_EQ(d.firstDivergingTensor, -1);
        EXPECT_TRUE(d.tensors.empty());
        EXPECT_TRUE(d.ops.empty());
    }
}

TEST(ProfDiff, DifferentPoliciesLocalize)
{
    prof::Profile a =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 3);
    prof::Profile b = runAndProfile(ModelKind::Vgg16, 230, "vdnn", 3);
    prof::ProfileDiff d = prof::diffProfiles(a, b);
    EXPECT_FALSE(d.identical);
    // Digest alignment must localize the divergence to the very first
    // iteration: the policies schedule different transfers from the start.
    EXPECT_EQ(d.firstDivergingIteration, 0);
    EXPECT_GE(d.firstDivergingTensor, 0);

    // Rendering must not crash in any format.
    for (auto fmt : {prof::ReportFormat::Text, prof::ReportFormat::Markdown,
                     prof::ReportFormat::Json}) {
        std::ostringstream os;
        prof::renderDiff(os, a, b, d, fmt);
        EXPECT_FALSE(os.str().empty());
    }
}

TEST(ProfDiff, ExtraIterationsDivergeAtCommonLength)
{
    prof::Profile a =
        runAndProfile(ModelKind::ResNet50, 200, "capuchin", 3);
    prof::Profile b =
        runAndProfile(ModelKind::ResNet50, 200, "capuchin", 5);
    prof::ProfileDiff d = prof::diffProfiles(a, b);
    EXPECT_FALSE(d.identical);
    EXPECT_EQ(d.firstDivergingIteration, 3);
}

// --- replayed vs executed (satellite: event_adapter on synthesized
// timelines) ------------------------------------------------------------

TEST(ProfReplay, Replayed100IterProfileBitIdenticalToExecuted)
{
    constexpr int kIters = 100;
    ExecConfig on = tracedConfig();
    on.replay.enabled = true;
    ExecConfig off = tracedConfig();
    off.replay.enabled = false;

    Session son(buildModel(ModelKind::Vgg16, 230), on,
                makeCapuchinPolicy());
    Session soff(buildModel(ModelKind::Vgg16, 230), off,
                 makeCapuchinPolicy());
    SessionResult ron = son.run(kIters);
    SessionResult roff = soff.run(kIters);
    ASSERT_FALSE(ron.oom) << ron.oomMessage;
    ASSERT_FALSE(roff.oom) << roff.oomMessage;
    ASSERT_GT(ron.replay.replayed, 0);

    prof::Profile pon = prof::buildProfile(son.executor().obs().tracer,
                                           traceNames(son.graph()));
    prof::Profile poff = prof::buildProfile(soff.executor().obs().tracer,
                                            traceNames(soff.graph()));
    ASSERT_EQ(pon.iterations.size(), static_cast<std::size_t>(kIters));

    // The replay track is excluded from attribution, so a mostly
    // synthesized session must profile bit-identically to the fully
    // executed one: same digests, buckets, tensor accounts, everything.
    prof::ProfileDiff d = prof::diffProfiles(pon, poff);
    EXPECT_TRUE(d.identical)
        << "first diverging iteration " << d.firstDivergingIteration
        << ", op " << d.firstDivergingOpName << ", tensor "
        << d.firstDivergingTensorName;
    EXPECT_EQ(pon.buckets.compute, poff.buckets.compute);
    EXPECT_EQ(pon.buckets.swapStall, poff.buckets.swapStall);
    for (std::size_t i = 0; i < pon.iterations.size(); ++i)
        EXPECT_EQ(pon.iterations[i].digest, poff.iterations[i].digest)
            << "iteration " << i;
}

// --- persistence round-trips --------------------------------------------

TEST(ProfRoundTrip, ProfileJson)
{
    prof::Profile p =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 3);
    std::string path = tempPath("prof_roundtrip.json");
    ASSERT_TRUE(prof::writeProfileJsonFile(path, p));

    prof::Profile loaded;
    std::string err;
    ASSERT_TRUE(prof::loadProfileJson(path, loaded, &err)) << err;
    std::remove(path.c_str());

    prof::ProfileDiff d = prof::diffProfiles(p, loaded);
    EXPECT_TRUE(d.identical);
    EXPECT_EQ(loaded.wallTicks, p.wallTicks);
    EXPECT_EQ(loaded.peakBytes, p.peakBytes);
    EXPECT_EQ(loaded.critical.makespan, p.critical.makespan);
    EXPECT_EQ(loaded.tensors.size(), p.tensors.size());
    EXPECT_EQ(loaded.meta, p.meta);
}

TEST(ProfRoundTrip, ChromeTraceImportMatchesLiveRing)
{
    // One input per family of labels: plain capuchin (kernels, swaps,
    // spans, plan and trigger decisions), a chaos plan (failed transfers,
    // fault and recovery labels), a dynamic workload (drift markers),
    // vDNN (blocking syncs) and a replay-armed run (replay markers and
    // re-numbered iteration markers).
    struct Case
    {
        const char *name;
        std::function<Session()> make;
        int iters;
        std::function<bool(const obs::TraceEvent &)> family;
    };
    auto capu = [] { return makeCapuchinPolicy(); };
    auto vgg = [] { return buildModel(ModelKind::Vgg16, 230); };
    DynamicWorkload dw =
        buildWorkload(WorkloadKind::Varlen, "bert", 48, /*seed=*/7);
    std::vector<Case> cases = {
        {"capuchin", [&] { return Session(vgg(), tracedConfig(), capu()); },
         3,
         [](const obs::TraceEvent &ev) {
             return ev.label == obs::Label::PlanBuild;
         }},
        {"chaos",
         [&] {
             ExecConfig cfg = tracedConfig();
             cfg.faults = faults::parseFaultSpec(
                 "hostcap:4GiB;hostfail:p=0.05;swapfail:p=0.05,retries=3");
             cfg.seed = 42;
             return Session(vgg(), cfg, capu());
         },
         4,
         [](const obs::TraceEvent &ev) { return ev.failed; }},
        {"drift",
         [&] {
             ExecConfig cfg = tracedConfig();
             cfg.variantSchedule = dw.schedule;
             return Session(Graph(dw.graph), cfg, capu());
         },
         12,
         [](const obs::TraceEvent &ev) {
             return ev.label == obs::Label::DriftClass;
         }},
        {"vdnn",
         [&] {
             return Session(vgg(), tracedConfig(), makePolicy("vdnn"));
         },
         3,
         [](const obs::TraceEvent &ev) {
             return ev.label == obs::Label::BlockingSwap;
         }},
        {"replay",
         [&] {
             ExecConfig cfg = tracedConfig();
             cfg.replay.enabled = true;
             return Session(vgg(), cfg, capu());
         },
         20,
         [](const obs::TraceEvent &ev) {
             return ev.label == obs::Label::ReplayIter;
         }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        Session s = c.make();
        SessionResult r = s.run(c.iters);
        ASSERT_FALSE(r.oom) << r.oomMessage;
        const obs::Tracer &tracer = s.executor().obs().tracer;
        ASSERT_EQ(tracer.dropped(), 0u);
        const auto &live_events = tracer.chronological();
        EXPECT_TRUE(std::any_of(live_events.begin(), live_events.end(),
                                c.family))
            << "input lacks the label family it stands for";

        obs::Names names = traceNames(s.graph());
        std::string path = tempPath("prof_trace.json");
        ASSERT_TRUE(obs::writeChromeTraceFile(path, tracer, names));
        prof::TraceBundle bundle;
        std::string err;
        ASSERT_TRUE(prof::importChromeTrace(path, bundle, &err)) << err;
        std::remove(path.c_str());
        EXPECT_EQ(bundle.unknown, 0u);
        EXPECT_EQ(bundle.meta, tracer.meta());
        // Every label parses back to the event it was formatted from.
        ASSERT_EQ(bundle.events.size(), live_events.size());
        for (std::size_t i = 0; i < live_events.size(); ++i)
            ASSERT_TRUE(bundle.events[i] == live_events[i]) << "event " << i;

        // The export is lossless, so the profile built from the file must
        // be bit-identical to the one built from the live ring.
        prof::ProfileOptions popts;
        popts.droppedEvents = bundle.dropped;
        popts.meta = bundle.meta;
        prof::Profile from_file =
            prof::buildProfile(bundle.events, bundle.names, popts);
        prof::Profile live = prof::buildProfile(tracer, names);
        prof::ProfileDiff d = prof::diffProfiles(live, from_file);
        EXPECT_TRUE(d.identical)
            << "first diverging iteration " << d.firstDivergingIteration;
        EXPECT_EQ(from_file.peakBytes, live.peakBytes);
        EXPECT_EQ(from_file.critical.makespan, live.critical.makespan);
        ASSERT_EQ(from_file.iterations.size(), live.iterations.size());
        for (std::size_t i = 0; i < live.iterations.size(); ++i)
            EXPECT_EQ(from_file.iterations[i].digest,
                      live.iterations[i].digest)
                << "iteration " << i;
    }
}

TEST(ProfRoundTrip, EveryLabelFormatsAndParsesBack)
{
    // Names with colons, like the zoo's "relu_1:out", must survive the
    // Phase form's split at the last colon.
    obs::Names names;
    names.tensors = {"t0", "relu_1:out"};
    names.ops = {"conv_1", "add_grad:relu_1:out"};
    for (std::size_t i = 0; i < std::size(obs::kLabels); ++i) {
        for (bool failed : {false, true}) {
            obs::TraceEvent ev;
            ev.label = static_cast<obs::Label>(i);
            if (failed && ev.kind() != obs::EventKind::Transfer)
                continue;
            ev.tensor = 1;
            ev.op = 1;
            ev.number = 17;
            ev.failed = failed;
            std::string text;
            obs::formatLabel(text, ev, names);
            SCOPED_TRACE(text);

            obs::TraceEvent back;
            std::string_view name;
            ASSERT_TRUE(prof::parseLabel(
                text, obs::eventKindName(ev.kind()), back, name));
            EXPECT_EQ(back.label, ev.label);
            EXPECT_EQ(back.failed, failed);
            switch (obs::labelInfo(ev.label).form) {
              case obs::LabelForm::Plain:
                EXPECT_EQ(name, "");
                break;
              case obs::LabelForm::Number:
                EXPECT_EQ(back.number, 17);
                EXPECT_EQ(name, "");
                break;
              case obs::LabelForm::Tensor:
              case obs::LabelForm::Phase:
                EXPECT_EQ(name, "relu_1:out");
                break;
              case obs::LabelForm::Op:
                EXPECT_EQ(name, "add_grad:relu_1:out");
                break;
            }
        }
    }
}

TEST(ProfRoundTrip, UnknownLabelsAreSkipped)
{
    // A label no table row produces, a known label under the wrong
    // category, a Number label without a number, a known label with the
    // wrong phase and a tensor id no integer holds are each skipped and
    // counted; the rest imports.
    std::string path = tempPath("prof_unknown.json");
    {
        std::ofstream os(path);
        os << R"({"traceEvents":[
{"name":"mystery.event","cat":"marker","tid":0,"ts":1,"ph":"i"},
{"name":"stall:x","cat":"recovery","tid":7,"ts":2,"ph":"X","dur":1},
{"name":"iter:abc","cat":"marker","tid":0,"ts":3,"ph":"i"},
{"name":"oom.raise","cat":"oom","tid":0,"ts":4,"ph":"e","id":1},
{"name":"stall:x","cat":"stall","tid":0,"ts":6,"ph":"X","dur":1,
 "args":{"tensor":1e300}},
{"name":"iter:3","cat":"marker","tid":0,"ts":5,"ph":"i"}
],"otherData":{"recorded":5,"dropped":0}})";
    }
    prof::TraceBundle bundle;
    std::string err;
    ASSERT_TRUE(prof::importChromeTrace(path, bundle, &err)) << err;
    std::remove(path.c_str());
    EXPECT_EQ(bundle.unknown, 5u);
    ASSERT_EQ(bundle.events.size(), 1u);
    EXPECT_EQ(bundle.events[0].label, obs::Label::IterBegin);
    EXPECT_EQ(bundle.events[0].number, 3);
    EXPECT_EQ(bundle.events[0].ts, 5000u);
}

// --- rendering ----------------------------------------------------------

TEST(ProfReport, AllFormatsRenderNonEmpty)
{
    prof::Profile p =
        runAndProfile(ModelKind::Vgg16, 230, "capuchin", 3);
    for (auto fmt : {prof::ReportFormat::Text, prof::ReportFormat::Markdown,
                     prof::ReportFormat::Json}) {
        std::ostringstream os;
        prof::renderProfile(os, p, fmt);
        EXPECT_FALSE(os.str().empty());
    }
    std::ostringstream os;
    prof::renderProfile(os, p, prof::ReportFormat::Text);
    EXPECT_NE(os.str().find("compute"), std::string::npos);
    EXPECT_NE(os.str().find("critical path"), std::string::npos);
}
