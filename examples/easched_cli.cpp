// easched_cli — the downstream-user entry point: read a task trace, pick a
// scheduler and platform, and emit the schedule, a Gantt chart, and energy
// statistics.
//
//   ./easched_cli trace.csv --cores 4 --alpha 3 --p0 0.1 --scheduler f2
//   ./easched_cli trace.csv --ladder xscale --out plan.csv
//   ./easched_cli --demo --scheduler optimal --gantt
//   ./easched_cli run trace.csv --policy cc+dpm --acet-ratio 0.5
//   ./easched_cli run --demo --policy la --acet-ratio 0.4 --migrate
//   ./easched_cli serve --data-dir /tmp/fleet --clients 4 --requests 200 --fmax 1.0
//   ./easched_cli serve --data-dir /tmp/fleet --planner exact --plan-budget-ms 5
//       --faults "seed=7;solver_stall:p=1"
//   ./easched_cli serve --shards 4 --data-dir /tmp/fleet --brownout
//       --faults "seed=7;kill:shard.submit@9;restart_after=5"
//   ./easched_cli serve --listen 7411 --shards 2 --data-dir /tmp/fleet
//
// Schedulers: f1, f2 (paper heuristics), optimal (convex solver),
// ipm (interior point), yds (uniprocessor), online (rolling-horizon F2).
//
// The `run` subcommand plans a trace and then *executes* the plan through
// the event-driven online runtime: jobs draw actual execution times below
// their WCET budget (or take them from the trace's acet column), and the
// chosen policy reclaims the slack — cc/la recompute DVFS speeds at
// decision points, +dpm adds break-even sleep states, --migrate adds
// consolidation. It reports realized vs planned energy, the full energy
// breakdown, and every decision-point counter.
//
// The `serve` subcommand runs a supervised shard fleet, each shard a
// journaled SchedulerService under --data-dir. Without --listen it drives
// the fleet with a synthetic arrival stream (retrying unavailable, overload
// and dropped decisions with the same rid and jittered backoff), and the
// run ends with a no-lost-acks audit, an executed-plan check and a metrics
// dump. Re-running on the same --data-dir resumes the committed state. With
// --listen the fleet is served over TCP instead.

#include <chrono>
#include <csignal>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "easched/common/cli.hpp"
#include "easched/easched.hpp"

namespace {

using namespace easched;

/// SIGINT/SIGTERM latch for the network server's main wait loop. A signal
/// is treated exactly like a client's kShutdown op: drain, audit, exit.
volatile std::sig_atomic_t g_stop_signal = 0;

void handle_stop_signal(int) { g_stop_signal = 1; }

/// `--trace <path>`: records spans from construction until `write()`, then
/// writes them as a Chrome trace_event JSON. Inert without a path.
class TraceFile {
 public:
  explicit TraceFile(std::string path) : path_(std::move(path)) {
    if (path_.empty()) return;
    tracer_.emplace();
    scope_.emplace(*tracer_);
  }

  void write() {
    if (!tracer_) return;
    scope_.reset();
    write_file(path_, tracer_->chrome_trace_json());
    std::cout << "trace written to " << path_ << " (" << tracer_->records().size()
              << " span(s))\n";
  }

 private:
  std::string path_;
  std::optional<obs::Tracer> tracer_;
  std::optional<obs::TraceScope> scope_;
};

/// The fleet both `serve` paths run, from the shared flags. A bad flag is
/// reported on stderr and yields nullopt.
std::optional<SupervisorOptions> fleet_options(const CliParser& args) {
  const std::string planner = args.get("planner");
  if (planner != "f2" && planner != "exact") {
    std::cerr << "unknown --planner (use: f2, exact)\n";
    return std::nullopt;
  }
  const std::string metrics_format = args.get("metrics-format");
  if (metrics_format != "text" && metrics_format != "prometheus") {
    std::cerr << "unknown --metrics-format (use: text, prometheus)\n";
    return std::nullopt;
  }
  SupervisorOptions sup;
  sup.shards = static_cast<std::size_t>(args.get_int("shards", 1));
  sup.data_dir = args.get("data-dir");
  if (sup.data_dir.empty()) {
    std::cerr << "serve needs --data-dir for the per-shard journals\n";
    return std::nullopt;
  }
  std::filesystem::create_directories(sup.data_dir);
  const double fmax = args.get_double("fmax");
  sup.service.cores = args.get_int("cores");
  sup.service.f_max = fmax > 0.0 ? fmax : kInf;
  sup.service.exact_first = planner == "exact";
  sup.service.plan_budget = std::chrono::milliseconds(std::max(0, args.get_int("plan-budget-ms")));
  // A forced ladder walk and the pressure-driven ladder would fight (the
  // ladder releases a forced level as soon as pressure looks calm), so the
  // walk runs with observation off.
  sup.brownout_enabled = args.get_switch("brownout") && !args.get_switch("brownout-walk");
  sup.watchdog_deadline = std::chrono::milliseconds(std::max(0, args.get_int("watchdog-ms")));
  return sup;
}

/// Bring every down shard back up (a kill with a long restart_after may
/// have left one down), so an audit reads live state.
void recover_all(Supervisor& supervisor) {
  for (int round = 0; round < 8; ++round) {
    bool all_up = true;
    for (std::size_t k = 0; k < supervisor.shard_count(); ++k) {
      if (!supervisor.shard(k).up() && !supervisor.shard(k).restart_now()) all_up = false;
    }
    if (all_up) break;
  }
}

/// `serve --listen <port>`: expose the supervised fleet over TCP instead of
/// driving it with a synthetic in-process stream. Runs until a client sends
/// the protocol's shutdown op or the process receives SIGINT/SIGTERM, then
/// sweeps every shard back up and audits that no acked admit was lost.
/// Exit codes: 0 clean, 3 when the audit finds a lost ack.
int run_network_serve(const CliParser& args, const SupervisorOptions& sup,
                      const PowerModel& power) {
  TraceFile trace(args.get("trace"));
  Supervisor supervisor(power, sup);

  net::FrontEndOptions fe;
  fe.bind_address = args.get("listen-host");
  fe.port = static_cast<std::uint16_t>(args.get_int("listen"));
  fe.workers = static_cast<std::size_t>(std::max(1, args.get_int("net-workers")));
  fe.rate_limit_per_s = std::max(0.0, args.get_double("rate-limit"));
  fe.rate_limit_burst = std::max(1.0, args.get_double("rate-burst"));
  fe.outbox_watermark_bytes =
      static_cast<std::size_t>(std::max(0, args.get_int("outbox-watermark-kb"))) * 1024;
  fe.outbox_max_bytes =
      static_cast<std::size_t>(std::max(0, args.get_int("outbox-max-kb"))) * 1024;
  net::FrontEnd front_end(supervisor, fe);
  front_end.start();

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  // Scripts parse this line for the (possibly ephemeral) port; flush it
  // before blocking.
  std::cout << "serving on " << fe.bind_address << ":" << front_end.port() << " (" << sup.shards
            << " shard(s), " << fe.workers << " worker(s))" << std::endl;

  // Main wait loop: watchdog sweeps keep unrouted-to dead shards honest
  // while the event loop and workers do all request work.
  std::size_t watchdog_restarts = 0;
  while (g_stop_signal == 0 &&
         !front_end.wait_shutdown_requested(std::chrono::milliseconds(100))) {
    watchdog_restarts += supervisor.check_watchdogs();
  }
  // Grace: let the shutdown ack (and any in-flight responses) flush before
  // connections are torn down.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  front_end.stop();
  recover_all(supervisor);

  const net::FrontEndStats net_stats = front_end.stats();
  std::cout << "front-end: " << net_stats.connections_accepted << " connection(s), "
            << net_stats.frames_received << " frame(s) in / " << net_stats.frames_sent
            << " out, " << net_stats.admits << " admit(s), " << net_stats.admit_batches
            << " batch(es)/" << net_stats.admit_batch_items << " item(s), " << net_stats.quotes
            << " quote(s), " << net_stats.completes + net_stats.cancels << " task op(s), "
            << net_stats.bad_requests << " bad request(s), " << net_stats.protocol_errors
            << " protocol error(s)\n";
  const double coalesce = net_stats.writev_calls > 0
                              ? static_cast<double>(net_stats.writev_frames) /
                                    static_cast<double>(net_stats.writev_calls)
                              : 0.0;
  std::cout << "backpressure: " << net_stats.rate_limited << " rate-limited, "
            << net_stats.outbox_pauses << " outbox pause(s), " << net_stats.outbox_overflows
            << " outbox overflow(s), " << std::fixed << std::setprecision(2) << coalesce
            << std::defaultfloat << " frame(s)/writev\n";

  const SupervisorStats stats = supervisor.stats();
  std::cout << "supervision: " << stats.crashes_contained << " crash(es) contained, "
            << stats.restarts << " restart(s) (" << watchdog_restarts << " by watchdog), "
            << stats.unavailable_rejects << " unavailable reject(s), " << stats.brownout_sheds
            << " brownout shed(s), max brownout level " << stats.max_brownout_level << ", "
            << stats.shards_up << "/" << sup.shards << " shard(s) up\n";

  // Server-side no-lost-acks audit over every admit the wire acknowledged.
  const std::size_t lost_acks = front_end.audit_lost_acks();
  std::cout << "audit: " << front_end.acked_admits() << " acked admit(s), " << lost_acks
            << " lost\n";

  if (args.get("metrics-format") == "prometheus") {
    std::cout << "\n" << supervisor.prometheus();
  }
  trace.write();
  return lost_acks == 0 ? 0 : 3;
}

/// `serve` without `--listen`: drive the fleet with a synthetic arrival
/// stream, retrying with the same rid, then audit that every acked admit is
/// still committed and check the executed plans. Re-running on the same
/// `--data-dir` resumes the committed state. Exit codes: 0 clean, 3 when
/// the audit finds a lost ack.
int run_supervised_serve(const CliParser& args, const SupervisorOptions& sup,
                         const PowerModel& power) {
  TraceFile trace(args.get("trace"));
  Supervisor supervisor(power, sup);
  if (const std::size_t recovered = supervisor.committed_total(); recovered > 0) {
    std::cout << "recovered " << recovered << " committed task(s) from " << sup.data_dir << "\n";
  }
  // Synthetic arrival stream (paper Section VI generator), fixed into
  // arrival order by replaying the releases through the event engine.
  const auto requests = static_cast<std::size_t>(args.get_int("requests"));
  const auto tenants = static_cast<std::size_t>(std::max(1, args.get_int("clients")));
  Rng rng(Rng::seed_of("easched-serve", static_cast<std::uint64_t>(args.get_int("seed"))));
  WorkloadConfig config;
  config.task_count = requests;
  config.release_hi = args.get_double("horizon");
  const TaskSet stream = generate_workload(config, rng);
  std::vector<Task> ordered;
  ordered.reserve(stream.size());
  SimulationEngine arrivals;
  for (const Task& t : stream) {
    arrivals.schedule_at(t.release, [&ordered, t](SimulationEngine&) { ordered.push_back(t); });
  }
  arrivals.run();

  // Brownout pressure: arrival-burst depth, the number of releases inside
  // the trailing 5% of the horizon at each task's own release. Bursty
  // streams push the ladder up; sparse ones leave it at level 0. Computed
  // from the stream itself so the run is deterministic.
  std::vector<std::size_t> pressure(ordered.size(), 0);
  const double burst_window = std::max(1e-9, config.release_hi * 0.05);
  for (std::size_t i = 0, j = 0; i < ordered.size(); ++i) {
    while (ordered[j].release < ordered[i].release - burst_window) ++j;
    pressure[i] = i - j + 1;
  }

  const bool walk = args.get_switch("brownout-walk");
  const int retries = std::max(0, args.get_int("retries"));
  const auto backoff_base =
      std::chrono::microseconds(std::max(1, args.get_int("retry-backoff-us")));
  const auto backoff_cap = backoff_base * 64;
  Rng backoff_rng(Rng::seed_of("easched-serve-backoff", 0,
                               static_cast<std::uint64_t>(args.get_int("seed"))));

  std::size_t admitted = 0, deduplicated = 0, rejected = 0, retried = 0, gave_up = 0;
  std::size_t watchdog_restarts = 0;
  // Every acknowledged admit, keyed by rid: the post-run audit checks each
  // one still exists on its shard after all crashes and recoveries.
  struct AckedAdmit {
    std::size_t shard = 0;
    TaskId id = -1;
  };
  std::unordered_map<std::string, AckedAdmit> acked;

  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (walk) {
      // Force the ladder through 0 -> 1 -> 2 -> 3 at stream quarters so a
      // CI run exercises (and exposes, via the brownout_level gauge) every
      // degradation level.
      const int quarter = static_cast<int>(i * 4 / ordered.size());
      if (supervisor.max_brownout_level() != quarter) supervisor.force_brownout_level(quarter);
    }
    const std::string tenant = "tenant-" + std::to_string(i % tenants);
    const std::string rid = "req-" + std::to_string(i);
    auto wait = backoff_base;
    bool decided = false;
    for (int attempt = 0; attempt <= retries && !decided; ++attempt) {
      if (attempt > 0) {
        wait = decorrelated_backoff(backoff_rng, backoff_base, wait, backoff_cap);
        // The shard's advertised brownout level stretches the backoff:
        // degraded shards see retry pressure back off harder.
        std::this_thread::sleep_for(wait * (1 + supervisor.max_brownout_level()));
        ++retried;
      }
      const ServiceDecision decision = supervisor.submit(tenant, ordered[i], rid, pressure[i]);
      if (decision.error_kind == AdmissionErrorKind::kUnavailable ||
          decision.error_kind == AdmissionErrorKind::kOverload ||
          decision.error_kind == AdmissionErrorKind::kDropped) {
        continue;  // retryable: the same rid keeps the retry idempotent
      }
      decided = true;
      if (decision.admission.admitted) {
        ++admitted;
        if (decision.deduplicated) ++deduplicated;
        acked[rid] = AckedAdmit{supervisor.route(tenant), decision.id};
      } else {
        ++rejected;
      }
    }
    if (!decided) ++gave_up;
    if (i % 16 == 15) watchdog_restarts += supervisor.check_watchdogs();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  recover_all(supervisor);

  std::cout << "served " << requests << " request(s) across " << sup.shards << " shard(s) ("
            << tenants << " tenant(s)) in " << format_fixed(wall_s, 3) << " s: " << admitted
            << " admitted (" << deduplicated << " deduplicated), " << rejected << " rejected, "
            << retried << " retried, " << gave_up << " gave up\n";

  const SupervisorStats stats = supervisor.stats();
  std::cout << "supervision: " << stats.crashes_contained << " crash(es) contained, "
            << stats.restarts << " restart(s) (" << watchdog_restarts << " by watchdog), "
            << stats.unavailable_rejects << " unavailable reject(s), " << stats.brownout_sheds
            << " brownout shed(s), " << stats.compactions << " compaction(s), max brownout level "
            << stats.max_brownout_level << ", " << stats.shards_up << "/" << sup.shards
            << " shard(s) up\n";

  // No-lost-acks audit: every acknowledged admit must still be committed on
  // its shard — across every contained crash, restart, and replay.
  std::size_t lost_acks = 0;
  std::vector<std::unordered_set<TaskId>> committed(supervisor.shard_count());
  for (std::size_t k = 0; k < supervisor.shard_count(); ++k) {
    for (const TaskId id : supervisor.shard(k).committed_ids()) committed[k].insert(id);
  }
  for (const auto& [rid, ack] : acked) {
    if (committed[ack.shard].count(ack.id) == 0) {
      ++lost_acks;
      std::cout << "LOST ACK: " << rid << " (task " << ack.id << " on shard " << ack.shard
                << ") vanished across recovery\n";
    }
  }
  std::cout << "audit: " << acked.size() << " acked admit(s), " << lost_acks << " lost\n";

  // Executed-plan check: every shard's committed set must meet every
  // deadline under its plan.
  double energy = 0.0;
  std::size_t misses = 0;
  std::string validation = "OK";
  for (std::size_t k = 0; k < supervisor.shard_count(); ++k) {
    ServiceShard& shard = supervisor.shard(k);
    const TaskSet committed_set = shard.committed_task_set();
    if (committed_set.empty()) continue;
    const Schedule plan = shard.current_plan();
    const ValidationReport report = plan.validate(committed_set, 1e-5);
    if (!report.ok && validation == "OK") validation = report.violations.front();
    misses += execute_schedule(committed_set, plan, power_function(power)).missed_deadline_count();
    energy += shard.current_energy();
  }
  if (supervisor.committed_total() > 0) {
    std::cout << "committed plan: energy " << format_fixed(energy, 4) << ", validation "
              << validation << ", deadline misses " << misses << "\n";
  }

  if (args.get("metrics-format") == "prometheus") {
    std::cout << "\n" << supervisor.prometheus();
  } else {
    MetricsRegistry dump_registry;
    const MetricsSnapshot merged = supervisor.metrics_snapshot();
    for (const auto& [name, value] : merged.counters) dump_registry.set_counter(name, value);
    for (const auto& [name, value] : merged.gauges) dump_registry.set_gauge(name, value);
    std::cout << "\n" << dump_registry.dump();
  }
  trace.write();
  return lost_acks == 0 ? 0 : 3;
}

int run_serve(const CliParser& args) {
  const bool listen = args.get_int("listen", -1, 65535) >= 0;
  const std::optional<SupervisorOptions> sup = fleet_options(args);
  if (!sup) return 1;
  const PowerModel power(args.get_double("alpha"), args.get_double("p0"));
  return listen ? run_network_serve(args, *sup, power) : run_supervised_serve(args, *sup, power);
}


int run_online(const CliParser& args) {
  // --- Workload (trace acet column becomes the ground truth) --------------
  TaskTrace trace;
  if (args.get_switch("demo")) {
    Rng rng(Rng::seed_of("easched-cli-demo", static_cast<std::uint64_t>(args.get_int("seed"))));
    WorkloadConfig config;
    config.task_count = static_cast<std::size_t>(args.get_int("tasks"));
    trace.tasks = generate_workload(config, rng);
  } else if (const auto path = args.positional("subcommand-arg")) {
    trace = read_task_trace(*path);
  } else {
    std::cerr << "run: need a trace file or --demo (see --help)\n";
    return 1;
  }
  const TaskSet& tasks = trace.tasks;
  const int cores = args.get_int("cores");
  const PowerModel power(args.get_double("alpha"), args.get_double("p0"));

  // --- Policy -------------------------------------------------------------
  RuntimeOptions options;
  std::string policy_name = args.get("policy");
  if (const auto plus = policy_name.rfind("+dpm");
      plus != std::string::npos && plus + 4 == policy_name.size()) {
    options.dpm = true;
    policy_name.resize(plus);
  }
  const std::optional<RuntimePolicy> policy = parse_policy(policy_name);
  if (!policy) {
    std::cerr << "unknown --policy (use: static, cc, la, cc+dpm, la+dpm)\n";
    return 1;
  }
  options.policy = *policy;
  options.migrate = args.get_switch("migrate");
  options.acet.ratio = args.get_double("acet-ratio");
  options.acet.jitter = args.get_double("acet-jitter");
  options.acet.seed = static_cast<std::uint64_t>(args.get_int("acet-seed"));
  options.explicit_acet = trace.acet;  // empty unless the trace has the column
  options.la_expectation = args.get_double("la-expectation");
  options.dvfs_switch_energy = args.get_double("switch-energy");
  const double idle_power = args.get_double("idle-power");
  options.dpm_config.idle_power = idle_power < 0.0 ? power.static_power() : idle_power;
  options.dpm_config.sleep_power = args.get_double("sleep-power");
  options.dpm_config.wake_latency = args.get_double("wake-latency");
  options.dpm_config.wake_energy = args.get_double("wake-energy");

  // --- Plan, then execute the plan online ---------------------------------
  const std::string scheduler = args.get("scheduler");
  if (scheduler != "f1" && scheduler != "f2") {
    std::cerr << "run: --scheduler must be f1 or f2\n";
    return 1;
  }
  TraceFile trace_file(args.get("trace"));

  const PipelineResult planned = run_pipeline(tasks, cores, power);
  const MethodResult& method = scheduler == "f1" ? planned.even : planned.der;
  const WorkloadStats stats = describe_workload(tasks, cores);
  std::cout << "workload: " << stats.task_count << " tasks, horizon "
            << format_fixed(stats.horizon, 2) << ", utilization "
            << format_fixed(stats.utilization, 3)
            << (trace.has_acet() ? ", acet column present" : "") << "\n";
  std::cout << "plan (" << scheduler << "): energy " << format_fixed(method.final_energy, 4)
            << ", segments " << method.final_schedule.segments().size() << "\n";

  const RuntimeReport report = run_runtime(tasks, method.final_schedule, power, options);

  std::cout << "policy " << args.get("policy") << ": acet "
            << (trace.has_acet()
                    ? std::string("from trace")
                    : format_fixed(options.acet.ratio, 2) + " +/- " +
                          format_fixed(options.acet.jitter, 2) + " x WCET (seed " +
                          std::to_string(options.acet.seed) + ")")
            << (options.migrate ? ", migration on" : "") << "\n";
  std::cout << "realized energy " << format_fixed(report.energy.total(), 4) << " ("
            << format_fixed(report.energy.total() / std::max(report.planned_energy, 1e-12), 3)
            << "x plan): busy " << format_fixed(report.energy.busy(), 4) << " (dynamic "
            << format_fixed(report.energy.busy_dynamic, 4) << " + static "
            << format_fixed(report.energy.busy_static, 4) << "), idle "
            << format_fixed(report.energy.idle, 4) << ", sleep "
            << format_fixed(report.energy.sleep, 4) << ", wake "
            << format_fixed(report.energy.wake, 4) << ", dvfs "
            << format_fixed(report.energy.dvfs_switch, 4) << "\n";
  std::cout << "decision points: " << report.events << " events, " << report.dispatches
            << " dispatches, " << report.completions << " completions ("
            << report.early_completions << " early), " << report.reclamations
            << " reclamations freeing " << format_fixed(report.reclaimed_total, 3) << ", "
            << report.sleeps << " sleeps totalling " << format_fixed(report.sleep_time_total, 3)
            << ", " << report.wakes << " wakes, " << report.migrations << " migrations, "
            << report.dvfs_switches << " dvfs switches\n";
  const std::size_t missed = report.missed_deadlines();
  std::cout << "deadlines: "
            << (missed == 0 ? "all met" : std::to_string(missed) + " MISSED") << "\n";

  if (const std::string out = args.get("out"); !out.empty()) {
    write_schedule(out, report.realized);
    std::cout << "realized schedule written to " << out << "\n";
  }
  trace_file.write();
  return missed == 0 ? 0 : 2;
}

int run(const CliParser& args) {
  // Deterministic fault injection: armed for the whole command, idle (one
  // atomic load per hook) when --faults is not given.
  std::optional<FaultInjector> injector;
  std::optional<faults::FaultScope> fault_scope;
  if (const std::string spec = args.get("faults"); !spec.empty()) {
    injector.emplace(FaultPlan::parse(spec));
    fault_scope.emplace(*injector);
    std::cout << "fault plan: " << injector->plan().to_string() << "\n";
  }

  if (args.positional("trace") == std::optional<std::string>("serve")) {
    const int rc = run_serve(args);
    if (injector) {
      std::cout << "faults fired:";
      for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
        const auto site = static_cast<FaultSite>(s);
        std::cout << " " << site_name(site) << "=" << injector->fired(site) << "/"
                  << injector->occurrences(site);
      }
      std::cout << "\n";
    }
    return rc;
  }
  if (args.positional("trace") == std::optional<std::string>("run")) {
    return run_online(args);
  }

  // --- Workload -----------------------------------------------------------
  TaskSet tasks;
  if (args.get_switch("demo")) {
    Rng rng(Rng::seed_of("easched-cli-demo", static_cast<std::uint64_t>(args.get_int("seed"))));
    WorkloadConfig config;
    config.task_count = static_cast<std::size_t>(args.get_int("tasks"));
    tasks = generate_workload(config, rng);
  } else if (const auto path = args.positional("trace")) {
    tasks = read_task_set(*path);
  } else {
    std::cerr << "need a trace file or --demo (see --help)\n";
    return 1;
  }
  const int cores = args.get_int("cores");

  // --- Platform -----------------------------------------------------------
  std::optional<DiscreteLevels> ladder;
  PowerModel power(args.get_double("alpha"), args.get_double("p0"));
  if (args.get("ladder") == "xscale") {
    ladder = DiscreteLevels::intel_xscale();
    power = fit_power_model(*ladder).model();
    std::cout << "platform: Intel XScale ladder, fitted p(f) = " << power.gamma() << "*f^"
              << power.alpha() << " + " << power.static_power() << "\n";
  } else if (args.get("ladder") != "none") {
    std::cerr << "unknown --ladder (use: none, xscale)\n";
    return 1;
  }

  const WorkloadStats stats = describe_workload(tasks, cores);
  std::cout << "workload: " << stats.task_count << " tasks, horizon "
            << format_fixed(stats.horizon, 2) << ", utilization "
            << format_fixed(stats.utilization, 3) << ", heavy fraction "
            << format_fixed(stats.heavy_time_fraction, 2) << "\n";

  // --- Scheduler ----------------------------------------------------------
  const std::string scheduler = args.get("scheduler");
  Schedule plan;
  double energy = 0.0;
  if (scheduler == "f1" || scheduler == "f2") {
    const SubintervalDecomposition subs(tasks);
    const IdealCase ideal(tasks, power);
    const auto method =
        scheduler == "f1" ? AllocationMethod::kEven : AllocationMethod::kDer;
    const MethodResult result = schedule_with_method(tasks, subs, cores, power, ideal, method);
    if (ladder) {
      const DiscretePlan discrete = plan_on_ladder(tasks, subs, cores, result, *ladder);
      plan = discrete.schedule;
      energy = discrete.energy;
      if (discrete.miss_count() > 0) {
        std::cout << "WARNING: " << discrete.miss_count()
                  << " task(s) cannot meet their deadline on this ladder\n";
      }
    } else {
      plan = result.final_schedule;
      energy = result.final_energy;
    }
  } else if (scheduler == "optimal" || scheduler == "ipm") {
    const SubintervalDecomposition subs(tasks);
    PlanBudget budget;
    if (const int budget_ms = args.get_int("plan-budget-ms"); budget_ms > 0) {
      budget = PlanBudget::within(std::chrono::milliseconds(budget_ms));
    }
    SolverResult solution;
    if (scheduler == "optimal") {
      SolverOptions solver_options;
      solver_options.budget = budget;
      solution = solve_optimal_allocation(tasks, subs, cores, power, solver_options);
    } else {
      InteriorPointOptions ipm_options;
      ipm_options.budget = budget;
      solution = solve_optimal_interior_point(tasks, subs, cores, power, ipm_options).solution;
    }
    if (!solution.converged) {
      // The iterate is the solver's best-so-far; materialize and validate
      // it honestly rather than pretending it is optimal.
      std::cout << "WARNING: " << scheduler << " solver did not converge ("
                << solver_status_name(solution.status) << " after " << solution.iterations
                << " iteration(s)); schedule below is best-effort\n";
    }
    plan = materialize_optimal_schedule(tasks, subs, cores, solution);
    energy = solution.energy;
  } else if (scheduler == "yds") {
    if (cores != 1) {
      std::cerr << "yds is a uniprocessor scheduler (--cores 1)\n";
      return 1;
    }
    plan = yds_schedule(tasks).schedule;
    energy = plan.energy(power);
  } else if (scheduler == "online") {
    const OnlineResult result = schedule_online(tasks, cores, power);
    plan = result.schedule;
    energy = result.energy;
  } else {
    std::cerr << "unknown --scheduler (use: f1, f2, optimal, ipm, yds, online)\n";
    return 1;
  }

  // --- Validate, report, emit ---------------------------------------------
  const ValidationReport report = plan.validate(tasks, 1e-5);
  std::cout << "scheduler " << scheduler << ": energy " << format_fixed(energy, 4)
            << ", segments " << plan.segments().size() << ", validation "
            << (report.ok ? "OK" : report.violations.front()) << "\n";

  if (args.get_switch("nec")) {
    const double optimum = solve_optimal_allocation(tasks, cores, power).energy;
    std::cout << "NEC vs continuous optimum: " << format_fixed(energy / optimum, 4) << "\n";
  }
  const TransitionStats transitions = count_transitions(plan);
  std::cout << "DVFS switches: " << transitions.frequency_switches << ", wakeups "
            << transitions.wakeups << "\n";

  if (args.get_switch("stats")) {
    const ScheduleStats metrics = compute_schedule_stats(tasks, plan);
    std::cout << "makespan " << format_fixed(metrics.makespan, 3) << ", busy utilization "
              << format_fixed(metrics.utilization, 3) << ", mean frequency "
              << format_fixed(metrics.mean_frequency, 3) << " [" << format_fixed(metrics.min_frequency, 3)
              << ", " << format_fixed(metrics.max_frequency, 3) << "], splits " << metrics.splits
              << ", migrations " << metrics.migrations << "\n";
    const PowerFunction pf =
        ladder ? power_function(*ladder) : power_function(power);
    const PowerTrace trace(plan, pf);
    std::cout << "peak power " << format_fixed(trace.peak_power(), 3) << ", average power "
              << format_fixed(trace.average_power(), 3) << "\n";
  }
  if (const std::string trace_out = args.get("power-trace"); !trace_out.empty()) {
    const PowerFunction pf =
        ladder ? power_function(*ladder) : power_function(power);
    write_file(trace_out, PowerTrace(plan, pf).to_csv());
    std::cout << "power trace written to " << trace_out << "\n";
  }

  if (args.get_switch("gantt")) {
    GanttOptions options;
    options.frequency_legend = tasks.size() <= 12;
    std::cout << "\n" << render_gantt(tasks, plan, options);
  }
  if (const std::string out = args.get("out"); !out.empty()) {
    write_schedule(out, plan);
    std::cout << "schedule written to " << out << "\n";
  }
  return report.ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace easched;
  CliParser args("easched_cli",
                 "energy-aware scheduling of aperiodic task traces (ICPP'14 reproduction)");
  args.add_positional("trace", "CSV with columns release,deadline,work, or 'run' / 'serve'");
  args.add_positional("subcommand-arg", "run: trace CSV (release,deadline,work[,acet])");
  args.add_option("scheduler", "f2", "f1 | f2 | optimal | ipm | yds | online");
  args.add_option("cores", "4", "number of DVFS cores");
  args.add_option("alpha", "3.0", "dynamic power exponent (continuous platform)");
  args.add_option("p0", "0.1", "static power (continuous platform)");
  args.add_option("ladder", "none", "discrete frequency ladder: none | xscale");
  args.add_option("out", "", "write the schedule CSV here");
  args.add_option("power-trace", "", "write the piecewise power profile CSV here");
  args.add_switch("stats", "print makespan/utilization/frequency statistics");
  args.add_option("tasks", "12", "task count for --demo");
  args.add_option("seed", "1", "seed for --demo");
  args.add_switch("demo", "generate a demo workload instead of reading a trace");
  args.add_switch("gantt", "print an ASCII Gantt chart");
  args.add_switch("nec", "also compute the exact optimum and report NEC");
  args.add_option("policy", "static",
                  "run: online policy: static | cc | la | cc+dpm | la+dpm");
  args.add_option("acet-ratio", "1.0", "run: mean ACET/WCET ratio of the drawn jobs");
  args.add_option("acet-jitter", "0.0", "run: half-width of the uniform ACET ratio spread");
  args.add_option("acet-seed", "1", "run: seed of the ACET draws");
  args.add_option("la-expectation", "0",
                  "run: prior ACET/WCET ratio for look-ahead (0 = adapt from completions)");
  args.add_option("idle-power", "-1", "run: awake-idle power (negative = use p0)");
  args.add_option("sleep-power", "0", "run: sleep-state power");
  args.add_option("wake-latency", "0", "run: sleep->active transition time");
  args.add_option("wake-energy", "0", "run: sleep->active transition energy");
  args.add_option("switch-energy", "0", "run: energy charged per DVFS switch");
  args.add_switch("migrate", "run: consolidate idle cores' queues onto busier cores");
  args.add_option("clients", "4", "serve: tenant count of the synthetic stream");
  args.add_option("requests", "200", "serve: synthetic admission requests to submit");
  args.add_option("fmax", "0", "serve: admission frequency ceiling (0 = unbounded)");
  args.add_option("horizon", "200", "serve: release window of the synthetic stream");
  args.add_option("plan-budget-ms", "0",
                  "wall-clock budget per planning pass / exact solve (0 = unlimited)");
  args.add_option("planner", "f2", "serve: top planning rung: f2 | exact (budgeted, falls back)");
  args.add_option("faults", "",
                  "deterministic fault plan, e.g. seed=7;solver_stall:p=1;kill:journal.admit.post@3");
  args.add_option("retries", "2",
                  "serve: client retries of unavailable/overload/dropped decisions");
  args.add_option("retry-backoff-us", "200",
                  "serve: base client retry backoff (decorrelated jitter, capped at 64x)");
  args.add_option("shards", "1", "serve: shard fleet size (>= 1)");
  args.add_option("data-dir", "",
                  "serve: directory for per-shard journals + snapshots (required; re-running "
                  "on it resumes)");
  args.add_switch("brownout", "serve: enable the pressure-driven brownout ladder per shard");
  args.add_switch("brownout-walk",
                  "serve: force the ladder through levels 0..3 at stream quarters (CI)");
  args.add_option("watchdog-ms", "250", "serve: restart a down shard idle longer than this");
  args.add_option("listen", "-1",
                  "serve: expose the fleet over TCP on this port (0 = ephemeral; -1 = off)");
  args.add_option("listen-host", "127.0.0.1", "serve: bind address for --listen");
  args.add_option("net-workers", "2", "serve: op-handler threads behind the event loop");
  args.add_option("rate-limit", "0",
                  "serve: per-connection admit tokens per second (0 disables; over-limit "
                  "admits are answered kOverload, not dropped)");
  args.add_option("rate-burst", "64", "serve: token-bucket burst size for --rate-limit");
  args.add_option("outbox-watermark-kb", "256",
                  "serve: per-connection outbox bytes (KiB) past which the connection "
                  "stops being read until it drains (0 disables)");
  args.add_option("outbox-max-kb", "4096",
                  "serve: per-connection outbox hard cap (KiB); past it the connection "
                  "is closed and counted (0 disables)");
  args.add_option("trace", "", "serve: write a Chrome trace_event JSON of the run here");
  args.add_option("metrics-format", "text",
                  "serve: metrics exposition at exit: text | prometheus");

  if (!args.parse(argc, argv)) {
    std::cerr << args.error() << "\n\n" << args.help();
    return 1;
  }
  if (args.help_requested()) {
    std::cout << args.help();
    return 0;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
