/// A small command-line experiment runner over the public API: pick a
/// dataset, algorithm, partition, and round budget; optionally export the
/// per-round metrics as CSV and checkpoint the trained server model. The
/// fault flags drive the comm::FaultPlan, so any experiment can be rerun
/// under seeded packet loss, corruption, latency, stragglers, and scripted
/// mid-round crashes; --state-chain/--resume-last-good exercise
/// federation-level crash-resume.
///
/// Every flag is one row of the option table in options(); `--help` prints
/// it. Setters write straight into the library structs the run is built
/// from, and the cross-flag rules in rules() reject combinations that would
/// silently do nothing.
///
/// --threads T runs the round engine on T lanes (0 = one per hardware
/// thread). Results are bitwise identical for every T; only wall-clock
/// changes.
///
/// Round modes: sync (default) is the barrier round everyone knows;
/// semisync aggregates whatever arrived by --deadline-ms (required);
/// async buffers uploads and aggregates every K arrivals (--buffer-k,
/// default half the cohort) with staleness discount 1/(1+tau)^beta
/// (--staleness-beta, default 0.5) and wakes idle clients every
/// --wake-interval-ms of simulated time. --deadline-ms and --quorum are
/// sync/semisync concepts and are rejected in async mode; --buffer-k,
/// --staleness-beta and --wake-interval-ms are async-only.
///
/// Scale: --population P > 0 switches to the virtual-client pool
/// (build_virtual_federation): P clients exist as derivable specs,
/// --clients N becomes the per-round cohort size, and --warm-cache W bounds
/// the LRU of hydrated clients (0 = 4*N). --partition shards maps to
/// classes_per_client = K in virtual mode; other partitions fall back to
/// IID shards. --edge-aggregators E > 1 pre-combines surviving uploads into
/// E contiguous edge groups before the server step (works in both modes).
/// Per-round pool counters appear in the run log as pool[hit=... ...].
///
/// Durability (see DESIGN.md §15): --state-chain STEM checkpoints into a
/// generation chain (STEM.1, STEM.2, … + STEM.manifest, atomic writes,
/// CRC32 footers, --state-generations kept). --resume-last-good loads the
/// newest generation that verifies, falling back past torn/corrupt files.
/// --supervise runs the experiment in a child process and on nonzero exit
/// auto-resumes it from last-good, up to --max-restarts times with
/// exponential --restart-backoff-ms backoff. FEDPKD_CRASH_AT=<point>[@K]
/// (see --list-crash-points) aborts the process at the K-th hit of a named
/// crash point — the crash-at-every-point sweep supervises one such run per
/// point and compares --final-state (the sealed end-of-run federation state,
/// full stitched history) bitwise against an uninterrupted run.
/// --io-enospc-after simulates a disk filling up after BYTES checkpoint
/// bytes; the run fails cleanly and the chain keeps its last good state.
///
/// Examples:
///   ./build/examples/experiment_cli --algorithm FedPKD --partition dirichlet
///       --alpha 0.1 --rounds 8 --csv fedpkd.csv --checkpoint server.bin
///   ./build/examples/experiment_cli --algorithm FedPKD --rounds 8
///       --drop 0.2 --corrupt 0.05 --straggler 0:8 --crash 3:upload:2
///       --deadline-ms 500 --quorum 0.5
///   ./build/examples/experiment_cli --algorithm FedAvg --rounds 12
///       --round-mode async --buffer-k 3 --staleness-beta 0.5
///       --straggler 0:6 --straggler 1:9 --csv async.csv
///   ./build/examples/experiment_cli --algorithm FedAvg --rounds 10
///       --state-chain run.ckpt --state-every 5   # then, after a crash:
///   ./build/examples/experiment_cli --algorithm FedAvg --rounds 10
///       --state-chain run.ckpt --resume-last-good
///   FEDPKD_CRASH_AT=round:after_aggregate ./build/examples/experiment_cli
///       --algorithm FedAvg --rounds 10 --supervise --state-chain run.ckpt
///       --state-every 1 --final-state final.bin

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>

#include "fedpkd/core/fedpkd.hpp"
#include "fedpkd/core/fedproto.hpp"
#include "fedpkd/fl/checkpoint.hpp"
#include "fedpkd/fl/supervisor.hpp"
#include "fedpkd/fl/dsfl.hpp"
#include "fedpkd/fl/fedavg.hpp"
#include "fedpkd/fl/feddf.hpp"
#include "fedpkd/fl/fedet.hpp"
#include "fedpkd/fl/fedmd.hpp"
#include "fedpkd/fl/fedprox.hpp"

namespace {

using namespace fedpkd;

/// One run's configuration. The option table writes straight into these
/// fields and library structs; `given` records which flags appeared, so the
/// cross-flag rules ask "was it given", never "does it differ from the
/// default".
struct Args {
  std::string dataset = "synth10";
  std::string algorithm = "FedPKD";
  std::string partition = "dirichlet";
  double alpha = 0.3;
  std::size_t k = 3;
  std::size_t rounds = 6;
  bool hetero = false;
  /// num_clients doubles as the per-round cohort of a virtual federation.
  fl::FederationConfig federation{
      .num_clients = 6, .client_defaults = {}, .robust = {}};
  std::size_t population = 0;  // > 0 switches to the virtual-client pool
  std::size_t warm_cache = 0;  // virtual pool only; 0 derives 4 * cohort
  std::string csv;
  std::string checkpoint;
  std::string final_state;
  /// Engaged by the first fault flag: installing a plan reseeds the fault
  /// dice, which are part of the checkpointed state.
  std::optional<comm::FaultPlan> faults;
  fl::RoundPolicy policy;
  robust::AttackPlan attacks;
  std::string state_chain;
  std::size_t state_every = 1;
  std::size_t state_generations = 3;
  bool resume_last_good = false;
  bool supervise_run = false;
  bool verify_chain = false;
  fl::durable::SuperviseOptions supervise;
  fl::durable::IoFaultPlan io;
  std::set<std::string> given;

  bool has(const std::string& flag) const { return given.count(flag) > 0; }
  bool async() const { return policy.mode == fl::RoundMode::kAsync; }
  comm::FaultPlan& fault_plan() { return faults ? *faults : faults.emplace(); }
};

/// Parses all of `text` as a T. Rejects empty and non-numeric text,
/// trailing characters, out-of-range values and, for unsigned T, any sign —
/// so "3x" is not 3 and "-1" never wraps to 2^64-1. Like every setter
/// error, the message omits the flag; the parser prefixes it.
template <typename T>
T number(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw std::invalid_argument(
        std::string("wants ") +
        (std::is_unsigned_v<T> ? "a non-negative integer" : "a number") +
        ", got '" + text + "'");
  }
  return value;
}

using Value = const std::string&;
using Setter = std::function<void(Value)>;

/// A setter that stores the flag's value in `field` (strings verbatim,
/// numbers through number<T>); with `ok`, a value failing it is rejected
/// with `requirement`.
template <typename T>
Setter to(T& field, bool (*ok)(std::type_identity_t<T>) = nullptr,
          const char* requirement = nullptr) {
  return [&field, ok, requirement](Value v) {
    T value{};
    if constexpr (std::is_same_v<T, std::string>) {
      value = v;
    } else {
      value = number<T>(v);
    }
    if (ok != nullptr && !ok(value)) {
      throw std::invalid_argument(std::string(requirement) + ", got " + v);
    }
    field = value;
  };
}

/// A setter for a switch: the flag alone turns `field` on.
Setter on(bool& field) {
  return [&field](Value) { field = true; };
}

Setter at_least_one(std::size_t& field) {
  return to(field, [](std::size_t n) { return n >= 1; }, "must be >= 1");
}

Setter positive(double& field) {
  return to(field, [](double x) { return x > 0.0; }, "must be > 0");
}

comm::RoundStage parse_stage(const std::string& s) {
  if (s == "broadcast") return comm::RoundStage::kBroadcast;
  if (s == "upload") return comm::RoundStage::kUpload;
  if (s == "download") return comm::RoundStage::kDownload;
  throw std::invalid_argument("unknown crash stage '" + s +
                              "' (broadcast|upload|download)");
}

/// Splits a colon-separated flag value into between `min` and `max`
/// fields; `shape` names the expected form in the error.
std::vector<std::string> fields(Value v, std::size_t min, std::size_t max,
                                const char* shape) {
  std::vector<std::string> out(1);
  for (const char c : v) {
    if (c == ':') out.emplace_back();
    else out.back() += c;
  }
  if (out.size() < min || out.size() > max) {
    throw std::invalid_argument(std::string("wants ") + shape + ", got " + v);
  }
  return out;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) out += (out.empty() ? "" : "|") + item;
  return out;
}

/// The spellings of enumerators 0..last, from the library's to_string.
template <typename Enum>
std::vector<std::string> spellings(Enum last) {
  std::vector<std::string> out;
  for (int e = 0; e <= static_cast<int>(last); ++e) {
    out.emplace_back(to_string(static_cast<Enum>(e)));
  }
  return out;
}

using AlgorithmFactory =
    std::function<std::unique_ptr<fl::Algorithm>(fl::Federation&)>;

/// A factory for `Algo` with fixed options, whether the driver is built
/// from (federation, options) or from options alone.
template <typename Algo>
AlgorithmFactory preset(typename Algo::Options options) {
  return [options](fl::Federation& fed) -> std::unique_ptr<fl::Algorithm> {
    if constexpr (std::is_constructible_v<Algo, fl::Federation&,
                                          typename Algo::Options>) {
      return std::make_unique<Algo>(fed, options);
    } else {
      return std::make_unique<Algo>(options);
    }
  };
}

/// Every algorithm the CLI runs, by name, with its preset hyperparameters.
const std::map<std::string, AlgorithmFactory>& algorithms() {
  static const std::map<std::string, AlgorithmFactory> presets = {
      {"FedAvg", preset<fl::FedAvg>({.local_epochs = 2, .proximal_mu = {}})},
      {"FedProx", preset<fl::FedProx>({.local_epochs = 2, .mu = 0.01f})},
      {"FedMD", preset<fl::FedMd>({.local_epochs = 2,
                                   .digest_epochs = 4,
                                   .distill_temperature = 1.0f})},
      {"DS-FL", preset<fl::DsFl>({.local_epochs = 2,
                                  .digest_epochs = 4,
                                  .sharpen_temperature = 0.5f})},
      {"FedDF", preset<fl::FedDf>({.local_epochs = 6,
                                   .server_epochs = 1,
                                   .distill_batch = 32,
                                   .distill_temperature = 1.0f})},
      {"FedET", preset<fl::FedEt>({.local_epochs = 2,
                                   .server_epochs = 2,
                                   .client_digest_epochs = 1,
                                   .server_arch = "resmlp56",
                                   .distill_batch = 32})},
      {"FedProto", preset<core::FedProto>(
                       {.local_epochs = 2, .prototype_weight = 0.5f})},
      {"FedPKD", preset<core::FedPkd>({.local_epochs = 3,
                                       .public_epochs = 2,
                                       .server_epochs = 8,
                                       .server_arch = "resmlp56"})},
  };
  return presets;
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : algorithms()) names.push_back(name);
  return names;
}

/// One command-line flag. A row with neither metavar nor choices is a
/// switch; every other row consumes the next argument as its value.
struct Option {
  const char* flag;
  const char* metavar;  // "" for switches and choice rows
  const char* help;
  Setter set;
  std::vector<std::string> choices = {};  // accepted values; empty = any

  bool takes_value() const { return *metavar != '\0' || !choices.empty(); }
};

void print_help();

/// The option table, with every setter bound to a field of `a`; the rows
/// must not outlive `a`.
std::vector<Option> options(Args& a) {
  using Plan = comm::FaultPlan;
  // Fault flags write through Args::fault_plan, engaging the plan.
  const auto fault = [&a](auto member) -> Setter {
    return [&a, member](Value v) {
      auto& field = a.fault_plan().*member;
      field = number<std::remove_reference_t<decltype(field)>>(v);
    };
  };
  fl::FederationConfig& f = a.federation;
  robust::RobustPolicy& r = a.federation.robust;
  fl::RoundPolicy& p = a.policy;
  return {
      // Task and federation.
      {"--dataset", "", "synthetic task (default synth10)", to(a.dataset),
       {"synth10", "synth100"}},
      {"--algorithm", "", "algorithm preset (default FedPKD)", to(a.algorithm),
       algorithm_names()},
      {"--partition", "", "client data split (default dirichlet)",
       to(a.partition), {"iid", "dirichlet", "shards"}},
      {"--alpha", "A", "Dirichlet concentration (default 0.3)", to(a.alpha)},
      {"--k", "K", "classes per client under shards (default 3)", to(a.k)},
      {"--clients", "N", "clients, or the per-round cohort (default 6)",
       to(f.num_clients)},
      {"--rounds", "R", "communication rounds (default 6)",
       at_least_one(a.rounds)},
      {"--hetero", "", "resmlp11/20/29 clients, not resmlp20", on(a.hetero)},
      {"--threads", "T", "engine lanes, 0 = all cores", to(f.num_threads)},
      {"--seed", "S", "data and federation seed (default 7)", to(f.seed)},
      {"--population", "P", "virtual clients, 0 = resident", to(a.population)},
      {"--warm-cache", "W", "virtual pool LRU bound, 0 = 4 * cohort",
       to(a.warm_cache)},
      {"--edge-aggregators", "E", "edge groups before the server step",
       to(f.edge_aggregators)},
      {"--csv", "PATH", "write per-round metrics as CSV", to(a.csv)},
      {"--checkpoint", "PATH", "write the server model", to(a.checkpoint)},
      {"--final-state", "PATH", "write the sealed end-of-run state",
       to(a.final_state)},
      // Transport faults (comm::FaultPlan).
      {"--drop", "P", "frame drop probability", fault(&Plan::drop_probability)},
      {"--corrupt", "P", "frame corruption probability",
       fault(&Plan::corrupt_probability)},
      {"--latency-ms", "L", "link latency", fault(&Plan::latency_ms)},
      {"--jitter-ms", "J", "link latency jitter", fault(&Plan::jitter_ms)},
      {"--retries", "N", "transport retry budget", fault(&Plan::max_retries)},
      {"--fault-seed", "S", "seed of the fault dice", fault(&Plan::seed)},
      {"--straggler", "ID:FACTOR", "slow node ID's links (repeatable)",
       [&a](Value v) {
         const auto s = fields(v, 2, 2, "ID:FACTOR");
         a.fault_plan().stragglers.emplace_back(number<comm::NodeId>(s[0]),
                                                number<double>(s[1]));
       }},
      {"--crash", "ROUND:STAGE:ID",
       "crash ID at broadcast|upload|download (repeatable)", [&a](Value v) {
         const auto s = fields(v, 3, 3, "ROUND:STAGE:ID");
         a.fault_plan().crashes.push_back(
             comm::CrashEvent{number<std::size_t>(s[0]), parse_stage(s[1]),
                              number<comm::NodeId>(s[2])});
       }},
      // Round engine (fl::RoundPolicy).
      {"--round-mode", "", "round engine (default sync)",
       [&p](Value v) { p.mode = fl::parse_round_mode(v); },
       spellings(fl::RoundMode::kAsync)},
      {"--deadline-ms", "D", "sync/semisync upload deadline",
       positive(p.upload_deadline_ms)},
      {"--quorum", "F", "participant fraction needed to aggregate",
       to(p.quorum_fraction, [](double x) { return x >= 0.0 && x <= 1.0; },
          "must be in [0, 1]")},
      {"--buffer-k", "K", "async: flush every K arrivals",
       at_least_one(p.buffer_k)},
      {"--staleness-beta", "B", "async: discount 1/(1+tau)^B (default 0.5)",
       to(p.staleness_beta, [](double x) { return x >= 0.0; },
          "must be >= 0")},
      {"--wake-interval-ms", "W", "async: ms per wake (default 100)",
       positive(p.wake_interval_ms)},
      {"--max-weight-norm", "X", "reject uploads above this norm, 0 = off",
       to(p.validation.max_weights_norm)},
      {"--adaptive-norm", "", "norm bound from accepted history",
       on(p.validation.adaptive_weights_norm)},
      // Robust aggregation (robust::RobustPolicy) and attacks.
      {"--robust", "", "Byzantine-robust aggregation (default none)",
       [&r](Value v) { r.rule = robust::parse_robust_aggregation(v); },
       spellings(robust::RobustAggregation::kGeometricMedian)},
      {"--robust-f", "N", "assumed adversary count", to(r.assumed_adversaries)},
      {"--robust-m", "M", "multi-krum selection size", to(r.multi_krum_m)},
      {"--robust-clip", "X", "clip bound, 0 = median norm", to(r.clip_norm)},
      {"--anomaly-theta", "T", "filter clients above median + T*MAD",
       [&r](Value v) {
         r.anomaly_filter = true;
         r.anomaly_theta = number<double>(v);
       }},
      {"--anomaly-max-exclude", "F", "most clients the filter may drop",
       to(r.anomaly_max_exclude_fraction)},
      {"--attack", "TYPE:NODE[:SCALE]",
       "make NODE adversarial, SCALE 10 (repeatable); TYPE is sign-flip|"
       "scaled-boost|label-flip|free-rider|prototype-shift",
       [&a](Value v) {
         const auto s = fields(v, 2, 3, "TYPE:NODE[:SCALE]");
         robust::AdversarialClient adv;
         adv.type = robust::parse_attack_type(s[0]);
         adv.node = number<comm::NodeId>(s[1]);
         if (s.size() == 3) adv.scale = number<double>(s[2]);
         a.attacks.adversaries.push_back(adv);
       }},
      {"--attack-start", "R", "first attack round", to(a.attacks.start_round)},
      {"--attack-seed", "S", "prototype-shift seed", to(a.attacks.seed)},
      // Durable state.
      {"--state-chain", "STEM", "checkpoint into STEM.1, STEM.2, ...",
       to(a.state_chain)},
      {"--state-every", "N", "checkpoint every N rounds (default 1)",
       at_least_one(a.state_every)},
      {"--state-generations", "K", "generations kept (default 3)",
       at_least_one(a.state_generations)},
      {"--resume-last-good", "", "resume from the newest good generation",
       on(a.resume_last_good)},
      {"--supervise", "", "run in a child; restart it from the chain",
       on(a.supervise_run)},
      {"--max-restarts", "N", "supervisor restart budget (default 5)",
       to(a.supervise.max_restarts)},
      {"--restart-backoff-ms", "B", "base restart backoff (default 100)",
       to(a.supervise.backoff_ms)},
      {"--verify-chain", "", "audit the chain and exit", on(a.verify_chain)},
      {"--io-enospc-after", "BYTES", "fail checkpoint writes after BYTES",
       to(a.io.enospc_after_bytes)},
      {"--list-crash-points", "", "print FEDPKD_CRASH_AT points and exit",
       [](Value) {
         for (const std::string& name : fl::durable::crash_point_names()) {
           std::cout << name << "\n";
         }
         std::exit(0);
       }},
      {"--help", "", "print this help and exit", [](Value) {
         print_help();
         std::exit(0);
       }},
  };
}

void print_help() {
  Args defaults;
  std::cout << "usage: experiment_cli [flag...]\n";
  for (const Option& o : options(defaults)) {
    std::string usage = o.flag;
    if (!o.choices.empty()) usage += " " + join(o.choices);
    if (*o.metavar != '\0') usage += std::string(" ") + o.metavar;
    if (usage.size() > 30) usage += "\n" + std::string(32, ' ');
    std::cout << "  " << std::left << std::setw(30) << usage << "  " << o.help
              << "\n";
  }
}

/// A combination that would silently do nothing, and what to say about it.
struct Rule {
  bool (*broken)(const Args&);
  const char* message;
};

const Rule kRules[] = {
    {[](const Args& a) { return !a.async() && a.has("--buffer-k"); },
     "--buffer-k only applies to --round-mode async"},
    {[](const Args& a) { return !a.async() && a.has("--staleness-beta"); },
     "--staleness-beta only applies to --round-mode async"},
    {[](const Args& a) { return !a.async() && a.has("--wake-interval-ms"); },
     "--wake-interval-ms only applies to --round-mode async"},
    {[](const Args& a) { return a.async() && a.has("--deadline-ms"); },
     "--deadline-ms is a sync/semisync deadline; async rounds flush on "
     "--buffer-k arrivals instead"},
    {[](const Args& a) { return a.async() && a.has("--quorum"); },
     "--quorum has no meaning in async mode (no barrier to miss)"},
    {[](const Args& a) {
       return a.policy.mode == fl::RoundMode::kSemiSync &&
              !a.has("--deadline-ms");
     },
     "--round-mode semisync needs a finite --deadline-ms to aggregate at"},
    {[](const Args& a) { return a.resume_last_good && a.state_chain.empty(); },
     "--resume-last-good needs --state-chain"},
    {[](const Args& a) { return a.supervise_run && a.state_chain.empty(); },
     "--supervise needs --state-chain (restarts resume from the chain's "
     "last good generation)"},
    {[](const Args& a) { return a.verify_chain && a.state_chain.empty(); },
     "--verify-chain needs --state-chain"},
};

Args parse(int argc, char** argv) {
  Args args;
  const std::vector<Option> table = options(args);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto option = std::ranges::find(table, flag, &Option::flag);
    if (option == table.end()) {
      throw std::invalid_argument("unknown flag " + flag);
    }
    std::string value;
    if (option->takes_value()) {
      if (++i >= argc) throw std::invalid_argument("missing value for " + flag);
      value = argv[i];
    }
    try {
      const auto& choices = option->choices;
      if (!choices.empty() && !std::ranges::count(choices, value)) {
        throw std::invalid_argument("wants one of " + join(choices) +
                                    ", got '" + value + "'");
      }
      option->set(value);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(flag + " " + e.what());
    }
    args.given.insert(flag);
  }
  for (const Rule& rule : kRules) {
    if (rule.broken(args)) throw std::invalid_argument(rule.message);
  }
  return args;
}

/// One full experiment run (the body of a non-supervised invocation, and the
/// child of a supervised one). Builds the federation, resumes from the
/// generation chain when asked, runs, and writes the CSV / model checkpoint
/// / sealed final state.
int run_once(const Args& args) {
  // Honor FEDPKD_CRASH_AT in every run path (supervised children inherit it
  // through the environment; the supervisor unsets it after the first exit
  // so injected faults are one-shot).
  fl::durable::arm_crash_points_from_env();

  const std::uint64_t seed = args.federation.seed;
  const data::SyntheticVisionConfig config =
      args.dataset == "synth100" ? data::SyntheticVisionConfig::synth100(seed)
                                 : data::SyntheticVisionConfig::synth10(seed);
  fl::FederationConfig fed_config = args.federation;
  fed_config.client_archs =
      args.hetero
          ? std::vector<std::string>{"resmlp11", "resmlp20", "resmlp29"}
          : std::vector<std::string>{"resmlp20"};

  std::unique_ptr<fl::Federation> fed;
  if (args.population > 0) {
    // Virtual-client pool: the population is a number, `--clients` becomes
    // the per-round cohort, and shards are hydrated lazily on demand.
    fl::VirtualFederationConfig vconfig;
    vconfig.task = config;
    vconfig.population = args.population;
    vconfig.cohort_size = fed_config.num_clients;
    vconfig.warm_capacity = args.warm_cache;
    vconfig.client_archs = fed_config.client_archs;
    if (args.partition == "shards") vconfig.classes_per_client = args.k;
    vconfig.seed = seed;
    vconfig.num_threads = fed_config.num_threads;
    vconfig.robust = fed_config.robust;
    vconfig.edge_aggregators = fed_config.edge_aggregators;
    fed = fl::build_virtual_federation(vconfig);
  } else {
    const data::SyntheticVision task(config);
    const auto bundle = task.make_bundle(3000, 1500, 800);

    fl::PartitionSpec spec = fl::PartitionSpec::dirichlet(args.alpha);
    if (args.partition == "iid") spec = fl::PartitionSpec::iid();
    if (args.partition == "shards") {
      spec = fl::PartitionSpec::shards(
          args.k, 3000 / (fed_config.num_clients * 20), 20);
    }
    fed = fl::build_federation(bundle, spec, fed_config);
  }

  // Fault plan and round policy are run *configuration*: a resumed run must
  // re-apply them identically before restoring checkpointed state.
  if (args.faults) fed->channel.set_fault_plan(*args.faults);
  fed->policy = args.policy;
  if (!args.attacks.adversaries.empty()) fed->set_attack_plan(args.attacks);

  auto algo = algorithms().at(args.algorithm)(*fed);
  fl::RunOptions run;
  run.rounds = args.rounds;
  run.log = &std::cout;

  fl::durable::IoFaultInjector io;
  io.set_plan(args.io);
  fl::durable::GenerationChain chain(args.state_chain, args.state_generations,
                                     args.io.any() ? &io : nullptr);
  if (!args.state_chain.empty()) {
    run.checkpoint_chain = &chain;
    run.checkpoint_every = args.state_every;
  }

  fl::RunHistory prior;
  if (args.resume_last_good) {
    // An empty chain is not an error: the first supervised attempt starts
    // fresh, every later one resumes from whatever the crash left behind.
    if (const auto resumed =
            fl::load_federation_checkpoint(chain, *algo, *fed)) {
      run.start_round = resumed->resume.next_round;
      prior = resumed->resume.history;
      std::cout << "resumed " << args.state_chain << " generation "
                << resumed->generation << " at round "
                << resumed->resume.next_round
                << " (fallbacks=" << resumed->fallbacks
                << (resumed->manifest_recovered ? ", manifest recovered" : "")
                << ")\n";
    }
  }

  fl::RunHistory history = fl::run_federation(*algo, *fed, run);
  // Stitch the interrupted run's rounds in front: the CSV, summary, and
  // sealed final state all describe the whole run.
  history.rounds.insert(history.rounds.begin(), prior.rounds.begin(),
                        prior.rounds.end());
  if (const char* restarts = std::getenv("FEDPKD_RESTART_COUNT")) {
    history.recoveries = std::strtoull(restarts, nullptr, 10);
  }

  std::cout << "\nbest: ";
  if (algo->server_model() != nullptr) {
    std::cout << "S_acc=" << history.best_server_accuracy() << " ";
  }
  std::cout << "C_acc=" << history.best_client_accuracy() << " traffic="
            << comm::Meter::to_mb(history.final_round().cumulative_bytes)
            << "MB\n";

  // Totals over the stitched history. Stage times are wall-clock and are
  // not checkpointed, so rounds restored from a chain carry none.
  fl::StageTimes stages;
  fl::RoundFaultStats faults;
  std::size_t timed = 0, flushes = 0, aggregated = 0, max_stale = 0;
  for (const fl::RoundMetrics& r : history.rounds) {
    if (r.stage_seconds) {
      stages += *r.stage_seconds;
      ++timed;
    }
    if (r.fault_stats) faults += *r.fault_stats;
    if (r.engine_stats) {
      flushes += r.engine_stats->buffer_flushes;
      aggregated += r.engine_stats->aggregated_uploads;
      max_stale = std::max(max_stale, r.engine_stats->max_staleness);
    }
  }
  if (timed > 0) {
    std::cout << "stage totals over " << timed
              << " round(s): train=" << stages.local_update_seconds
              << "s upload=" << stages.upload_seconds
              << "s server=" << stages.server_step_seconds
              << "s download=" << stages.download_seconds
              << "s apply=" << stages.apply_seconds << "s\n";
  }
  if (faults.any() || args.faults) {
    std::cout << "fault totals: attempts=" << faults.send_attempts
              << " retries=" << faults.retries
              << " dropped=" << faults.frames_dropped
              << " corrupt=" << faults.corrupt_frames
              << " lost=" << faults.bundles_lost
              << " stragglers=" << faults.stragglers_excluded
              << " rejected=" << faults.rejected_contributions
              << " crashed=" << faults.clients_crashed
              << " quorum_misses=" << faults.quorum_misses
              << " max_latency=" << faults.max_upload_latency_ms << "ms\n";
  }
  if (!args.attacks.adversaries.empty() || fed->robust.active()) {
    std::cout << "robust totals: rule=" << robust::to_string(fed->robust.rule)
              << " attacks=" << faults.attacks_injected
              << " anomaly_excluded=" << faults.anomaly_excluded
              << " clipped=" << faults.clipped_contributions << "\n";
  }
  if (!history.rounds.empty() && history.rounds.back().engine_stats) {
    std::cout << "simulated: makespan="
              << history.rounds.back().engine_stats->round_end_ms
              << "ms flushes=" << flushes << " aggregated=" << aggregated
              << " max_staleness=" << max_stale << "\n";
  }

  if (!args.csv.empty()) {
    fl::export_history_csv(history, args.csv);
    std::cout << "wrote " << args.csv << "\n";
  }
  if (!args.checkpoint.empty()) {
    if (algo->server_model() == nullptr) {
      std::cerr << args.algorithm << " has no server model to checkpoint\n";
    } else {
      fl::save_checkpoint(*algo->server_model(), args.checkpoint);
      std::cout << "wrote " << args.checkpoint << "\n";
    }
  }
  if (!args.final_state.empty()) {
    // Sealed end-of-run federation state with the full stitched history:
    // byte-identical across an uninterrupted run and a crashed-and-
    // supervised one, which is exactly what the crash sweep compares.
    std::vector<std::byte> state = fl::encode_federation_checkpoint(
        *algo, *fed, args.rounds, history);
    fl::durable::append_footer(state);
    fl::durable::atomic_write_file(args.final_state, state);
    std::cout << "wrote " << args.final_state << "\n";
  }
  if (history.recoveries > 0) {
    std::cout << "recoveries: " << history.recoveries << "\n";
  }
  return 0;
}

/// One supervised attempt: fork, run the experiment in the child, reap it.
/// Children after the first resume from the chain's last good generation.
int supervised_attempt(const Args& args, std::size_t attempt) {
  std::cout.flush();
  std::cerr.flush();
  ::setenv("FEDPKD_RESTART_COUNT", std::to_string(attempt).c_str(), 1);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "supervisor: fork failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  if (pid == 0) {
    int rc = 1;
    try {
      Args child = args;
      child.supervise_run = false;
      child.resume_last_good = true;
      rc = run_once(child);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      rc = 1;
    }
    std::cout.flush();
    std::cerr.flush();
    std::_Exit(rc);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    std::cerr << "supervisor: waitpid failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  // Injected crash points are one-shot: the first child consumed the fault,
  // restarted children must not inherit it.
  ::unsetenv("FEDPKD_CRASH_AT");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse(argc, argv);

  if (args.verify_chain) {
    // Footer-level chain audit, no federation needed: exit 0 when a
    // generation verifies, 3 when nothing on disk is loadable.
    const fl::durable::GenerationChain chain(args.state_chain,
                                             args.state_generations);
    const auto loaded = chain.load();
    if (!loaded) {
      std::cerr << "chain " << args.state_chain
                << ": no loadable generation\n";
      return 3;
    }
    std::cout << "chain " << args.state_chain << ": generation "
              << loaded->generation << " verified (" << loaded->payload.size()
              << " bytes, fallbacks=" << loaded->fallbacks
              << (loaded->manifest_recovered ? ", manifest recovered" : "")
              << ")\n";
    return 0;
  }

  if (args.supervise_run) {
    fl::durable::SuperviseOptions options = args.supervise;
    options.sleep_ms = [](std::uint64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
    options.log = [](const std::string& line) {
      std::cerr << line << "\n";
    };
    const fl::durable::SuperviseResult result = fl::durable::supervise(
        [&](std::size_t attempt) { return supervised_attempt(args, attempt); },
        options);
    if (result.restarts > 0 || result.budget_exhausted) {
      std::cerr << "supervisor: " << (result.budget_exhausted
                                          ? "gave up after "
                                          : "recovered after ")
                << result.restarts << " restart(s)\n";
    }
    return result.exit_status;
  }

  return run_once(args);
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
