// Hot-path microbenchmarks (google-benchmark): RS(544,514) codec, Palomar
// reconfiguration, mirror noise draws, one circuit's alignment, slice
// install, one applied churn batch, scheduler allocation, WAL scan, wire
// codec, BER evaluation, and the collective/flow simulators.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fec/concatenated.h"
#include "core/scheduler.h"
#include "ctrl/messages.h"
#include "fec/reed_solomon.h"
#include "journal/file_storage.h"
#include "journal/storage.h"
#include "journal/wal.h"
#include "ocs/palomar.h"
#include "phy/ber_model.h"
#include "core/topology_engineer.h"
#include "ocs/camera.h"
#include "ocs/optical_core.h"
#include "phy/equalizer.h"
#include "sim/collective.h"
#include "sim/traffic.h"
#include "svc/command.h"
#include "svc/fleet_service.h"
#include "tpu/routing.h"
#include "sim/llm_model.h"
#include "tpu/superpod.h"

using namespace lightwave;

static void BM_RsEncode(benchmark::State& state) {
  const auto rs = fec::ReedSolomon::Kp4();
  common::Rng rng(1);
  std::vector<fec::Gf1024::Element> data(static_cast<std::size_t>(rs.k()));
  for (auto& s : data) s = static_cast<fec::Gf1024::Element>(rng.UniformInt(1024));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Encode(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * rs.k() * 10 / 8);
}
BENCHMARK(BM_RsEncode);

static void BM_RsEncodeInto(benchmark::State& state) {
  // Scratch-API variant: caller-owned codeword buffer, zero allocations per
  // call (the contrast with BM_RsEncode is the per-call vector).
  const auto rs = fec::ReedSolomon::Kp4();
  common::Rng rng(1);
  std::vector<fec::Gf1024::Element> data(static_cast<std::size_t>(rs.k()));
  for (auto& s : data) s = static_cast<fec::Gf1024::Element>(rng.UniformInt(1024));
  std::vector<fec::Gf1024::Element> codeword(static_cast<std::size_t>(rs.n()));
  for (auto _ : state) {
    rs.EncodeInto(data, codeword);
    benchmark::DoNotOptimize(codeword.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * rs.k() * 10 / 8);
}
BENCHMARK(BM_RsEncodeInto);

static void BM_RsDecode(benchmark::State& state) {
  const auto rs = fec::ReedSolomon::Kp4();
  common::Rng rng(2);
  std::vector<fec::Gf1024::Element> data(static_cast<std::size_t>(rs.k()));
  for (auto& s : data) s = static_cast<fec::Gf1024::Element>(rng.UniformInt(1024));
  auto codeword = rs.Encode(data);
  const int errors = static_cast<int>(state.range(0));
  for (int e = 0; e < errors; ++e) {
    codeword[static_cast<std::size_t>((e * 37 + 5) % rs.n())] ^=
        static_cast<fec::Gf1024::Element>(0x111 + e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Decode(codeword));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * rs.n() * 10 / 8);
}
BENCHMARK(BM_RsDecode)->Arg(0)->Arg(4)->Arg(15);

static void BM_RsDecodeInPlace(benchmark::State& state) {
  // Scratch-API variant: reusable decode workspace, zero allocations per
  // call once the scratch is warm.
  const auto rs = fec::ReedSolomon::Kp4();
  common::Rng rng(2);
  std::vector<fec::Gf1024::Element> data(static_cast<std::size_t>(rs.k()));
  for (auto& s : data) s = static_cast<fec::Gf1024::Element>(rng.UniformInt(1024));
  auto codeword = rs.Encode(data);
  const int errors = static_cast<int>(state.range(0));
  for (int e = 0; e < errors; ++e) {
    codeword[static_cast<std::size_t>((e * 37 + 5) % rs.n())] ^=
        static_cast<fec::Gf1024::Element>(0x111 + e);
  }
  fec::ReedSolomon::Scratch scratch;
  std::vector<fec::Gf1024::Element> word(codeword.size());
  for (auto _ : state) {
    std::copy(codeword.begin(), codeword.end(), word.begin());
    benchmark::DoNotOptimize(rs.DecodeInPlace(word, scratch));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * rs.n() * 10 / 8);
}
BENCHMARK(BM_RsDecodeInPlace)->Arg(0)->Arg(4)->Arg(15);

static void BM_PalomarReconfigure(benchmark::State& state) {
  ocs::PalomarSwitch ocs(3);
  std::map<int, int> even, odd;
  for (int i = 0; i < 128; ++i) {
    even[i] = i;
    odd[i] = (i + 1) % 128;
  }
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ocs.Reconfigure(flip ? even : odd));
    flip = !flip;
  }
}
BENCHMARK(BM_PalomarReconfigure);

// One normal draw: a circuit's alignment physics takes about 42 of them,
// two per 2-D mirror noise draw.
static void BM_Gaussian(benchmark::State& state) {
  common::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Gaussian());
  }
}
BENCHMARK(BM_Gaussian);

// One circuit's optical physics: open-loop actuation of both mirrors, then
// each mirror's closed alignment loop. Every circuit a switch programs runs
// this once.
static void BM_EstablishPath(benchmark::State& state) {
  ocs::OpticalCore core(common::Rng(3));
  common::Rng ports(4);
  const auto port_count = static_cast<std::uint64_t>(core.port_count());
  for (auto _ : state) {
    const int north = static_cast<int>(ports.UniformInt(port_count));
    const int south = static_cast<int>(ports.UniformInt(port_count));
    benchmark::DoNotOptimize(core.EstablishPath(north, south));
  }
}
BENCHMARK(BM_EstablishPath);

// Installs and removes one slice on an otherwise empty pod. Args: pod cubes,
// OCSes per torus dimension (16: the 48-OCS production pod; 2: a 6-OCS
// pod), slice cubes. An install programs every OCS, one circuit per slice
// cube on each, so its cost grows with OCSes x slice cubes; each call
// commits on its own, and from 192 circuits on (a 4-cube slice on the
// 48-OCS pod) the commit programs the OCSes in parallel.
static void BM_SliceInstall(benchmark::State& state) {
  tpu::Superpod pod(4, static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  const int slice_cubes = static_cast<int>(state.range(2));
  const std::map<int, tpu::SliceShape> shapes = {
      {1, {1, 1, 1}}, {4, {1, 2, 2}}, {8, {2, 2, 2}}, {16, {2, 2, 4}}, {64, {4, 4, 4}}};
  std::vector<int> cubes;
  for (int i = 0; i < slice_cubes; ++i) cubes.push_back(i);
  auto topology = tpu::SliceTopology::Create(shapes.at(slice_cubes), cubes).value();
  for (auto _ : state) {
    auto id = pod.InstallSlice(topology).value();
    benchmark::DoNotOptimize(id);
    (void)pod.RemoveSlice(id);
  }
}
BENCHMARK(BM_SliceInstall)
    ->ArgNames({"pod_cubes", "ocs_per_dim", "slice_cubes"})
    ->Args({64, 16, 1})
    ->Args({64, 16, 4})
    ->Args({64, 16, 16})
    ->Args({64, 16, 64})
    ->Args({16, 2, 1})
    ->Args({16, 2, 4})
    ->Args({16, 2, 8});

// Applies one 32-command churn batch through FleetService::ApplyJournaled on
// the 64-cube, 48-OCS pod: 16 releases of the previous batch's jobs, then 16
// admits cycling through perfbench churn's size menu (1, 1, 2, 2, 4, 4, 8
// and 16 cubes; the last admit of each batch finds the pod full). The pod
// programs the batch's teardowns and installs in one commit. Journaling is
// off, so no WAL is written. Items are commands.
static void BM_ApplyChurnBatch(benchmark::State& state) {
  constexpr std::uint64_t kJobs = 16;
  const tpu::SliceShape shapes[] = {{1, 1, 1}, {1, 1, 1}, {1, 1, 2}, {1, 1, 2},
                                    {1, 2, 2}, {1, 2, 2}, {2, 2, 2}, {2, 2, 4}};
  tpu::Superpod pod(8);
  journal::MemStorage wal;
  journal::MemStorage snapshots;
  svc::FleetService service(pod, core::AllocationPolicy::kReconfigurable, wal, snapshots,
                            svc::FleetServiceOptions{.snapshot_interval = 0, .journaling = false});
  if (!service.Recover().ok()) {
    state.SkipWithError("recovery of empty media failed");
    return;
  }
  // Round r admits jobs r * kJobs + 1.. and releases round r - 1's; round
  // 1's releases name jobs that never ran and are rejected.
  std::vector<svc::SliceCommand> batch(2 * kJobs);
  std::uint64_t round = 1;
  std::uint64_t command_id = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 2 * kJobs; ++i) {
      svc::SliceCommand& cmd = batch[i];
      const bool release = i < kJobs;
      cmd.command_id = ++command_id;
      cmd.kind = release ? svc::CommandKind::kRelease : svc::CommandKind::kAdmit;
      cmd.job_id = (release ? round - 1 : round) * kJobs + i % kJobs + 1;
      cmd.shape = shapes[i % std::size(shapes)];
    }
    benchmark::DoNotOptimize(service.ApplyJournaled(batch, 0));
    ++round;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * kJobs);
  state.counters["admitted_per_batch"] =
      static_cast<double>(service.stats().admitted) / static_cast<double>(round - 1);
}
BENCHMARK(BM_ApplyChurnBatch)->Unit(benchmark::kMicrosecond);

static void BM_SchedulerAllocate(benchmark::State& state) {
  tpu::Superpod pod(5);
  core::SliceScheduler scheduler(pod, core::AllocationPolicy::kReconfigurable);
  for (auto _ : state) {
    auto id = scheduler.Allocate(tpu::SliceShape{2, 2, 2}).value();
    (void)scheduler.Release(id);
  }
}
BENCHMARK(BM_SchedulerAllocate);

// Rejects a one-cube slice on a full pod: the cube pick finds no free
// healthy cube, so no switch is touched. Args: pod cubes, OCSes per torus
// dimension (16/2: the perfbench flood pod; 64/16: the churn pod).
static void BM_SchedulerReject(benchmark::State& state) {
  tpu::Superpod pod(6, static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  core::SliceScheduler scheduler(pod, core::AllocationPolicy::kReconfigurable);
  if (!scheduler.Allocate(tpu::SliceShape{1, 1, pod.cube_count()}).ok()) {
    state.SkipWithError("could not fill the pod");
    return;
  }
  for (auto _ : state) {
    auto rejected = scheduler.Allocate(tpu::SliceShape{1, 1, 1});
    benchmark::DoNotOptimize(rejected);
  }
}
BENCHMARK(BM_SchedulerReject)
    ->ArgNames({"pod_cubes", "ocs_per_dim"})
    ->Args({16, 2})
    ->Args({64, 16});

// Scans one recover-workload shard log: 3072 journaled slice commands, a
// churn of one-cube to eight-cube admits and their releases. Arg file:0
// scans a MemStorage, file:1 a FileStorage in a temporary directory. Items
// are records.
static void BM_WalScan(benchmark::State& state) {
  constexpr int kRecords = 3072;
  const tpu::SliceShape shapes[] = {{1, 1, 1}, {1, 1, 2}, {1, 2, 2}, {2, 2, 2}};
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < kRecords; ++i) {
    svc::SliceCommand cmd;
    cmd.command_id = static_cast<std::uint64_t>(i + 1);
    cmd.kind = i % 2 == 0 ? svc::CommandKind::kAdmit : svc::CommandKind::kRelease;
    cmd.job_id = static_cast<std::uint64_t>(i / 2 + 1);
    if (cmd.kind == svc::CommandKind::kAdmit) cmd.shape = shapes[(i / 2) % 4];
    payloads.push_back(cmd.Encode());
  }
  journal::MemStorage mem;
  std::unique_ptr<journal::FileStorage> file;
  std::string dir;
  if (state.range(0) != 0) {
    std::string tmpl = (std::filesystem::temp_directory_path() / "lw_walscan_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      state.SkipWithError("mkdtemp failed");
      return;
    }
    dir = tmpl;
    auto opened = journal::FileStorage::Open(dir + "/wal.log");
    if (!opened.ok()) {
      std::filesystem::remove_all(dir);
      state.SkipWithError("opening the log file failed");
      return;
    }
    file = std::move(opened.value());
  }
  journal::Storage& storage = file ? static_cast<journal::Storage&>(*file) : mem;
  {
    journal::Wal wal(storage);
    (void)wal.AppendBatch(payloads);
  }
  for (auto _ : state) {
    auto scan = journal::Wal::Scan(storage);
    benchmark::DoNotOptimize(scan.records.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRecords);
  state.counters["log_bytes"] = static_cast<double>(storage.size());
  file.reset();
  if (!dir.empty()) std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalScan)->ArgName("file")->Arg(0)->Arg(1);

static void BM_WireReconfigureRoundTrip(benchmark::State& state) {
  ctrl::ReconfigureRequest request;
  request.transaction_id = 42;
  for (int i = 0; i < 128; ++i) request.target[i] = 127 - i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl::DecodeReconfigureRequest(ctrl::Encode(request)));
  }
}
BENCHMARK(BM_WireReconfigureRoundTrip);

static void BM_BerEvaluation(benchmark::State& state) {
  const phy::BerModel model(optics::Modulation::kPam4, common::DbmPower{-9.5});
  double p = -12.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PreFecBer(common::DbmPower{p}, common::Decibel{-32.0}));
    p = p >= -6.0 ? -12.0 : p + 0.01;
  }
}
BENCHMARK(BM_BerEvaluation);

static void BM_TorusAllReduceSim(benchmark::State& state) {
  const tpu::SliceShape shape{4, 4, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::SimulateTorusAllReduce(shape, 256e6));
  }
}
BENCHMARK(BM_TorusAllReduceSim);

static void BM_LlmShapeSearch(benchmark::State& state) {
  const sim::LlmPerfModel model;
  const auto spec = sim::Llm1();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.RankShapes(spec, 64));
  }
}
BENCHMARK(BM_LlmShapeSearch);

static void BM_MatchingDecomposition(benchmark::State& state) {
  common::Rng rng(6);
  const auto demand = sim::HotspotTraffic(64, 30000.0, 8, 0.5, rng);
  const auto alloc = core::AllocateTrunks(demand, 128, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::DecomposeToMatchings(alloc, 128));
  }
}
BENCHMARK(BM_MatchingDecomposition);

static void BM_TorusRoute(benchmark::State& state) {
  const tpu::TorusRouter router(tpu::SliceShape{4, 4, 4});
  int i = 0;
  for (auto _ : state) {
    const tpu::SliceChipCoord src{i % 16, (i / 16) % 16, (i / 256) % 16};
    const tpu::SliceChipCoord dst{15 - src.x, 15 - src.y, 15 - src.z};
    benchmark::DoNotOptimize(router.ComputeRoute(src, dst));
    ++i;
  }
}
BENCHMARK(BM_TorusRoute);

static void BM_CameraCentroid(benchmark::State& state) {
  common::Rng rng(7);
  const ocs::CameraSpec spec;
  const auto image = ocs::RenderSpot(spec, 3e-4, -2e-4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ocs::ExtractCentroid(spec, image));
  }
}
BENCHMARK(BM_CameraCentroid);

static void BM_EqualizerSymbol(benchmark::State& state) {
  phy::AdaptiveEqualizer eq(7, 2, 2e-3);
  double x = 0.1;
  for (auto _ : state) {
    const double out = eq.Equalize(x);
    eq.Adapt(out > 0 ? 1.0 : -1.0);
    eq.PushDecision(out > 0 ? 1.0 : -1.0);
    benchmark::DoNotOptimize(out);
    x = -x;
  }
}
BENCHMARK(BM_EqualizerSymbol);

static void BM_RsDecodeWithErasures(benchmark::State& state) {
  const auto rs = fec::ReedSolomon::Kp4();
  common::Rng rng(8);
  std::vector<fec::Gf1024::Element> data(static_cast<std::size_t>(rs.k()));
  for (auto& sym : data) sym = static_cast<fec::Gf1024::Element>(rng.UniformInt(1024));
  auto codeword = rs.Encode(data);
  std::vector<int> erasures;
  for (int i = 0; i < 20; ++i) {
    const int pos = (i * 23 + 1) % rs.n();
    erasures.push_back(pos);
    codeword[static_cast<std::size_t>(pos)] ^= 0x155;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.DecodeWithErasures(codeword, erasures));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * rs.n() * 10 / 8);
}
BENCHMARK(BM_RsDecodeWithErasures);

static void BM_RsEncodeMany(benchmark::State& state) {
  // Batch SoA kernel over one full tile of codewords (fec/rs_batch.h);
  // contrast bytes_per_second with BM_RsEncodeInto for the vectorization
  // win. The ISSUE acceptance bar is >= 3x per codeword.
  const auto rs = fec::ReedSolomon::Kp4();
  common::Rng rng(1);
  const int count = fec::batch::kLaneWidth;
  std::vector<fec::Gf1024::Element> data(static_cast<std::size_t>(count * rs.k()));
  for (auto& s : data) s = static_cast<fec::Gf1024::Element>(rng.UniformInt(1024));
  std::vector<fec::Gf1024::Element> words(static_cast<std::size_t>(count * rs.n()));
  fec::ReedSolomon::BatchScratch scratch;
  for (auto _ : state) {
    rs.EncodeMany(data, words, scratch);
    benchmark::DoNotOptimize(words.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * count * rs.k() * 10 / 8);
}
BENCHMARK(BM_RsEncodeMany);

static void BM_RsDecodeMany(benchmark::State& state) {
  // Batch decode of a full tile; Arg = errors per codeword (0 stays on the
  // all-vectorized syndrome sweep, >0 adds the per-lane scalar BM tail).
  const auto rs = fec::ReedSolomon::Kp4();
  common::Rng rng(2);
  const int count = fec::batch::kLaneWidth;
  std::vector<fec::Gf1024::Element> data(static_cast<std::size_t>(rs.k()));
  std::vector<fec::Gf1024::Element> clean(static_cast<std::size_t>(count * rs.n()));
  for (int w = 0; w < count; ++w) {
    for (auto& s : data) s = static_cast<fec::Gf1024::Element>(rng.UniformInt(1024));
    std::span<fec::Gf1024::Element> word(clean.data() + static_cast<std::size_t>(w) * rs.n(),
                                         static_cast<std::size_t>(rs.n()));
    std::copy(data.begin(), data.end(), word.begin());
    rs.EncodeInto(word.first(static_cast<std::size_t>(rs.k())), word);
    const int errors = static_cast<int>(state.range(0));
    for (int e = 0; e < errors; ++e) {
      word[static_cast<std::size_t>((e * 37 + 5 + w) % rs.n())] ^=
          static_cast<fec::Gf1024::Element>(0x111 + e);
    }
  }
  std::vector<fec::Gf1024::Element> words(clean.size());
  std::vector<int> corrected(static_cast<std::size_t>(count));
  fec::ReedSolomon::BatchScratch scratch;
  for (auto _ : state) {
    std::copy(clean.begin(), clean.end(), words.begin());
    rs.DecodeMany(words, corrected, scratch);
    benchmark::DoNotOptimize(corrected.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * count * rs.n() * 10 / 8);
}
BENCHMARK(BM_RsDecodeMany)->Arg(0)->Arg(4)->Arg(15);

static void BM_FerSweep(benchmark::State& state) {
  // The end-to-end Monte-Carlo harness: batch kernels + interleaver +
  // geometric-gap BSC + parallel reduce, 256 frames per call at an
  // operating point (4e-3) with a real scalar-decode tail.
  const fec::ConcatenatedFec fecc;
  for (auto _ : state) {
    common::Rng rng(5);
    benchmark::DoNotOptimize(fecc.MeasureFrameErrorRate(4e-3, false, 256, rng));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 256 * 544 * 10 / 8);
}
BENCHMARK(BM_FerSweep);

// Same --json=<path> contract as the plain bench binaries (see
// bench_json.h): translated into google-benchmark's JSON file reporter so
// scripts/collect_bench.py can aggregate every binary uniformly.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  for (auto& arg : args) {
    if (arg.rfind("--json=", 0) == 0) {
      const std::string path = arg.substr(7);
      arg = "--benchmark_out=" + path;
      args.push_back("--benchmark_out_format=json");
      break;
    }
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& arg : args) argv2.push_back(arg.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
