// Benchmark harness: drives the program's library entry points for one
// perfbench workload and prints its raw measurements as one JSON object on
// stdout. perfbench/run.py turns them into metrics and checks the outputs.
//
//   perfbench_harness gen --length L --coverage C --seed S
//                         --genome G.fa --reads R.fa
//   perfbench_harness run --reads R.fa --shards N --threads T --devices D
//                         [--isolate --devd BIN]
//                         [--fault-variation V --fault-seed F --recovery M]
//                         --seconds S --min-ops N --out DIR [--trace]
//
// Every flag without brackets is required. `run` uses k = kK and sets up
// (reads loaded, device built) kSetupReps times, then runs
// whole assemblies (core::run_pipeline) until the next one would end past
// --seconds, but at least --min-ops. Every assembly's contigs, per-stage
// DeviceStats and FaultStats must equal the first one's; the first one's
// contigs go to DIR/contigs.fa. With --trace it then runs one assembly
// with span tracing and metrics on (DIR/trace.json, DIR/metrics.json) and
// times each layer on its own.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "assembly/contig.hpp"
#include "core/degree.hpp"
#include "core/pim_hash_table.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_detail.hpp"
#include "dna/fasta.hpp"
#include "dna/genome.hpp"
#include "dram/isa.hpp"
#include "net/json.hpp"
#include "runtime/recovery.hpp"
#include "runtime/shard.hpp"
#include "telemetry/session.hpp"

namespace {

using namespace pima;
using net::Json;
using Clock = std::chrono::steady_clock;

/// k-mer length of every workload; perfbench/run.py's K must match.
constexpr std::size_t kK = 22;
/// Set-ups per run, reported individually so run.py can take a median.
constexpr int kSetupReps = 21;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + key);
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
        values_[key] = argv[++i];
      else
        values_[key] = "1";
    }
  }
  bool has(const std::string& k) const { return values_.count(k) > 0; }
  std::string str(const std::string& k) const {
    const auto it = values_.find(k);
    if (it == values_.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
  std::size_t size(const std::string& k) const { return std::stoull(str(k)); }
  double num(const std::string& k) const { return std::stod(str(k)); }

 private:
  std::map<std::string, std::string> values_;
};

/// The device geometry `pima_asm pim-run` and `serve` use by default.
dram::Geometry cli_geometry() {
  dram::Geometry geom;
  geom.rows = 512;
  geom.columns = 256;
  geom.subarrays_per_mat = 16;
  geom.mats_per_bank = 4;
  geom.banks = 2;
  return geom;
}

std::vector<dna::Sequence> load_reads(const std::string& path) {
  std::vector<dna::Sequence> reads;
  for (auto& r : dna::read_fasta_file(path)) reads.push_back(std::move(r.seq));
  return reads;
}

int cmd_gen(const Args& a) {
  dna::GenomeParams gp;
  gp.length = a.size("length");
  // Repeat-free: planted repeats land at seed-dependent positions and make
  // contig N50 swing between seeds (perfbench/README.md).
  gp.repeat_count = 0;
  gp.seed = a.size("seed");
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.read_length = 101;
  rp.coverage = a.num("coverage");
  rp.seed = gp.seed ^ 0x9e3779b97f4a7c15ULL;
  const auto reads = dna::sample_reads(genome, rp);
  dna::write_fasta_file(a.str("genome"), {{"genome", genome}});
  std::vector<dna::Record> records;
  records.reserve(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i)
    records.push_back({"read_" + std::to_string(i), reads[i]});
  dna::write_fasta_file(a.str("reads"), records);
  return 0;
}

core::PipelineOptions pipeline_options(const Args& a) {
  core::PipelineOptions opt;
  opt.k = kK;
  opt.hash_shards = a.size("shards");
  opt.euler_contigs = false;  // unitigs, as `pima_asm pim-run` by default
  opt.threads = a.size("threads");
  opt.devices = a.size("devices");
  opt.isolate = a.has("isolate");
  if (opt.isolate) opt.isolate_opts.devd_path = a.str("devd");
  if (a.has("fault-variation")) {
    opt.fault.variation = a.num("fault-variation");
    opt.fault.seed = a.size("fault-seed");
    const auto mode = runtime::parse_recovery_mode(a.str("recovery"));
    if (!mode) throw std::runtime_error("bad --recovery");
    opt.recovery.mode = *mode;
  }
  return opt;
}

bool same_run(const core::PipelineResult& x, const core::PipelineResult& y) {
  return x.contigs == y.contigs && x.hashmap.device == y.hashmap.device &&
         x.debruijn.device == y.debruijn.device &&
         x.traverse.device == y.traverse.device &&
         x.fault_stats == y.fault_stats &&
         x.distinct_kmers == y.distinct_kmers;
}

void write_contigs(const std::string& path,
                   const std::vector<dna::Sequence>& contigs) {
  std::vector<dna::Record> records;
  for (std::size_t i = 0; i < contigs.size(); ++i)
    records.push_back({"contig_" + std::to_string(i), contigs[i]});
  dna::write_fasta_file(path, records);
}

void put_result(Json& j, const core::PipelineResult& r) {
  const dram::DeviceStats total = r.total();
  j.set("sim_time_ns", r.hashmap.device.time_ns + r.debruijn.device.time_ns +
                           r.traverse.device.time_ns);
  j.set("sim_energy_pj", total.energy_pj);
  j.set("sim_commands", total.commands);
  j.set("distinct_kmers", r.distinct_kmers);
  j.set("contigs", r.contig_stats.count);
  j.set("n50", r.contig_stats.n50);
  j.set("total_length", r.contig_stats.total_length);
  const auto& f = r.fault_stats;
  Json fault = Json::object();
  fault.set("injected", f.injected);
  fault.set("detected", f.detected);
  fault.set("retried", f.retried);
  fault.set("remapped", f.remapped);
  fault.set("host_fallback", f.host_fallbacks);
  fault.set("escaped", f.escaped);
  fault.set("vote_corrections", f.vote_corrections);
  j.set("fault", std::move(fault));
}

// ---- Per-layer timings (traced runs only) ----

/// ns per command of a program that issues `n` commands of one kind on
/// sub-array 0; median of three executions on a fresh device.
double ns_per_command(dram::CommandKind kind, std::size_t n,
                      const dram::FaultConfig* faults) {
  const dram::Geometry geom = cli_geometry();
  const std::size_t x = geom.data_rows();  // first computation row
  dram::Instruction inst;
  inst.subarray = 0;
  switch (kind) {
    case dram::CommandKind::kRowRead:
      inst.op = dram::Opcode::kRowRead;
      break;
    case dram::CommandKind::kRowWrite:
      inst.op = dram::Opcode::kRowWrite;
      inst.payload = BitVector(geom.columns);
      break;
    case dram::CommandKind::kAapCopy:
      inst.op = dram::Opcode::kAapCopy;
      inst.dst = x;
      break;
    case dram::CommandKind::kAapTwoRow:
      inst.op = dram::Opcode::kAapXnor;
      inst.src1 = x;
      inst.src2 = x + 1;
      inst.dst = x + 2;
      break;
    case dram::CommandKind::kAapTra:
      inst.op = dram::Opcode::kAapTra;
      inst.src1 = x;
      inst.src2 = x + 1;
      inst.src3 = x + 2;
      inst.dst = x + 3;
      break;
    case dram::CommandKind::kSumCycle:
      inst.op = dram::Opcode::kSum;
      inst.src1 = x;
      inst.src2 = x + 1;
      inst.dst = x + 3;
      break;
    case dram::CommandKind::kDpuReduce:
      inst.op = dram::Opcode::kDpuPopcount;
      inst.width = geom.columns;
      break;
    case dram::CommandKind::kLatchReset:
      inst.op = dram::Opcode::kResetLatch;
      break;
  }
  const dram::Program program(n, inst);
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    dram::Device device(geom);
    if (faults != nullptr) device.enable_faults(*faults);
    const auto t0 = Clock::now();
    (void)dram::execute(device, program);
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
  }
  return median(samples);
}

struct HashTiming {
  double ns_per_insert = 0.0;
  double cmds_per_insert = 0.0;
};

/// PimHashTable::insert_or_increment over (a prefix of) the workload's
/// k-mer stream, one thread, with the workload's fault/recovery setting.
HashTiming hash_timing(const std::vector<dna::Sequence>& reads,
                       const core::PipelineOptions& opt,
                       std::size_t max_inserts) {
  dram::Device device(cli_geometry());
  device.enable_faults(opt.fault);
  std::unique_ptr<runtime::RecoveryManager> recovery;
  if (opt.fault.enabled() || opt.recovery.mode != runtime::RecoveryMode::kOff)
    recovery = std::make_unique<runtime::RecoveryManager>(device, opt.recovery);
  core::PimHashTable table(device, opt.hash_shards);
  table.bind_key_length(opt.k);
  table.attach_recovery(recovery.get());
  std::vector<assembly::Kmer> stream;
  for (const auto& read : reads) {
    if (read.size() < opt.k) continue;
    for (std::size_t i = 0; i + opt.k <= read.size(); ++i)
      stream.push_back(assembly::Kmer::from_sequence(read, i, opt.k));
    if (stream.size() >= max_inserts) break;
  }
  const auto t0 = Clock::now();
  for (const auto& km : stream) table.insert_or_increment(km);
  const double s = seconds_since(t0);
  HashTiming t;
  const double n = static_cast<double>(stream.size());
  t.ns_per_insert = s * 1e9 / n;
  t.cmds_per_insert = static_cast<double>(device.roll_up().commands) / n;
  return t;
}

void put_layers(Json& j, const core::PipelineResult& first,
                const std::vector<dna::Sequence>& reads,
                const core::PipelineOptions& opt) {
  using K = dram::CommandKind;
  constexpr std::size_t kCmds = 20000;
  Json ns = Json::object();
  for (const K kind : {K::kRowRead, K::kRowWrite, K::kAapCopy, K::kAapTwoRow,
                       K::kAapTra, K::kSumCycle, K::kDpuReduce})
    ns.set(std::string(dram::to_string(kind)),
           ns_per_command(kind, kCmds, nullptr));
  dram::FaultConfig faulty;
  faulty.variation = 0.10;
  for (const K kind : {K::kAapTwoRow, K::kAapTra})
    ns.set(std::string(dram::to_string(kind)) + ".faulty",
           ns_per_command(kind, kCmds, &faulty));
  j.set("ns_per_cmd", std::move(ns));

  const HashTiming h = hash_timing(reads, opt, 200000);
  j.set("hash_ns_per_insert", h.ns_per_insert);
  j.set("hash_cmds_per_insert", h.cmds_per_insert);

  // Degree kernel on the workload's graph and partition, at the workload's
  // device and channel count (in-process, as the pipeline's pool path).
  const dram::Geometry geom = cli_geometry();
  const auto partition =
      core::detail::partition_fitting(first.graph, geom, 0);
  std::size_t kernels = 0;
  for (const auto& b : partition.blocks)
    if (!b.edges.empty()) kernels += 2;  // in- and out-degree kernels
  {
    dram::Device device(geom);
    runtime::DevicePool pool(device, opt.devices);
    runtime::EngineOptions eo;
    eo.channels = opt.threads;
    eo.queue_capacity = opt.queue_capacity;
    runtime::PoolRunner runner(pool, eo);
    const auto t0 = Clock::now();
    (void)core::pim_degrees(pool, first.graph, partition, &runner);
    const double s = seconds_since(t0);
    j.set("degree_s", s);
    j.set("degree_blocks", kernels);
  }

  std::vector<double> walk;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const auto contigs = assembly::contigs_from_unitigs(first.graph);
    walk.push_back(seconds_since(t0));
    if (contigs.size() != first.contigs.size())
      throw std::runtime_error("host walk disagrees with the pipeline");
  }
  j.set("host_walk_s", median(walk));
}

/// This process's memory high-water mark. Worker processes are left out:
/// a child forked from a large controller inherits its resident pages
/// until it execs, so its own maxrss would count the controller's.
double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

int cmd_run(const Args& a) {
  const std::string reads_path = a.str("reads");
  const std::string out = a.str("out");
  const double budget_s = a.num("seconds");
  const std::size_t min_ops = a.size("min-ops");
  const core::PipelineOptions opt = pipeline_options(a);

  // Set-up: reads parsed and the device built, repeated for a median.
  Json setup_s = Json::array();
  std::vector<dna::Sequence> reads;
  std::unique_ptr<dram::Device> device;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    reads = load_reads(reads_path);
    device = std::make_unique<dram::Device>(cli_geometry());
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> op_s;
  std::vector<std::string> errors;
  std::optional<core::PipelineResult> first;
  bool identical = true;
  const auto loop_start = Clock::now();
  for (;;) {
    const double elapsed = seconds_since(loop_start);
    const std::size_t attempted = op_s.size() + errors.size();
    if (attempted >= min_ops &&
        (op_s.empty() || elapsed + median(op_s) > budget_s))
      break;
    const auto t0 = Clock::now();
    try {
      core::PipelineResult r = core::run_pipeline(*device, reads, opt);
      op_s.push_back(seconds_since(t0));
      if (!first) {
        write_contigs(out + "/contigs.fa", r.contigs);
        first = std::move(r);
      } else if (!same_run(*first, r)) {
        identical = false;
      }
    } catch (const std::exception& e) {
      errors.push_back(e.what());
    }
  }
  const double loop_s = seconds_since(loop_start);

  Json j = Json::object();
  j.set("k", kK);
  j.set("setup_s", std::move(setup_s));
  Json ops = Json::array();
  for (const double s : op_s) ops.push_back(s);
  j.set("op_s", std::move(ops));
  j.set("loop_s", loop_s);
  j.set("failed", errors.size());
  j.set("error", errors.empty() ? std::string() : errors.front());
  j.set("identical", identical);
  j.set("peak_rss_kb", peak_rss_kb());
  if (first) {
    put_result(j, *first);
    if (opt.isolate) {
      // Same input in-process on the same device count: contigs and stage
      // statistics must not depend on process isolation.
      core::PipelineOptions inproc = opt;
      inproc.isolate = false;
      dram::Device d(cli_geometry());
      j.set("inproc_match",
            same_run(*first, core::run_pipeline(d, reads, inproc)));
    }
    if (a.has("trace")) {
      auto& session = telemetry::TelemetrySession::instance();
      session.tracer().enable(1 << 19);
      session.enable_metrics();
      const auto t0 = Clock::now();
      const core::PipelineResult traced =
          core::run_pipeline(*device, reads, opt);
      const double traced_s = seconds_since(t0);
      session.tracer().disable();
      session.disable_metrics();
      std::ofstream(out + "/trace.json") << session.tracer().chrome_json();
      std::ofstream(out + "/metrics.json")
          << telemetry::metrics().json_snapshot();
      j.set("traced_s", traced_s);
      j.set("traced_match", same_run(*first, traced));
      j.set("dropped_events", session.tracer().dropped_count());
      put_layers(j, *first, reads, opt);
    }
  }
  std::printf("%s\n", j.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness gen|run [--flags]\n");
    return 2;
  }
  try {
    const Args args(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "run") return cmd_run(args);
    std::fprintf(stderr, "perfbench_harness: unknown command %s\n", argv[1]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
