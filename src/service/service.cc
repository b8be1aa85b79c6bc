#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>

#include "datalog/parser.h"
#include "qos/scheduler.h"
#include "storage/durable_store.h"
#include "util/timer.h"

namespace whyprov {

namespace dl = whyprov::datalog;

/// The shared per-request state behind a `Ticket`: the request itself,
/// the streaming sink, the cancellation source whose token the execution
/// polls, the queue-wait clock, and the completion slot.
struct Ticket::State {
  std::uint64_t id = 0;
  Request request;
  std::shared_ptr<MemberSink> sink;
  util::CancellationSource cancel;
  util::Timer submit_timer;  ///< starts at admission; measures queue wait
  /// QoS: the cost charged at admission, refunded once at completion
  /// (success, failure, or cancellation alike — refund-on-cancel is the
  /// same code path).
  double estimated_cost = 0;
  std::size_t shard = 0;  ///< the shard a read was routed to

  mutable util::Mutex mutex;
  util::CondVar cv;
  bool done GUARDED_BY(mutex) = false;
  Response response GUARDED_BY(mutex);
};

namespace {

RequestKind KindOf(const Request& request) {
  switch (request.op.index()) {
    case 0:
      return RequestKind::kEnumerate;
    case 1:
      return RequestKind::kDecide;
    case 2:
      return RequestKind::kExplain;
    default:
      return RequestKind::kApplyDelta;
  }
}

}  // namespace

// --- MemberStream --------------------------------------------------------

bool MemberStream::OnMember(std::vector<dl::Fact> member) {
  const util::MutexLock lock(mutex_);
  // Backpressure: block the producing worker until the consumer pops or
  // abandons the stream. This is what keeps memory bounded by `capacity_`
  // instead of the family size.
  while (!closed_ && buffer_.size() >= capacity_) producer_cv_.Wait(mutex_);
  if (closed_) return false;
  buffer_.push_back(std::move(member));
  consumer_cv_.NotifyOne();
  return true;
}

void MemberStream::OnComplete(const util::Status& status) {
  {
    const util::MutexLock lock(mutex_);
    complete_ = true;
    status_ = status;
  }
  consumer_cv_.NotifyAll();
}

std::optional<std::vector<dl::Fact>> MemberStream::Pop() {
  const util::MutexLock lock(mutex_);
  while (buffer_.empty() && !complete_ && !closed_) consumer_cv_.Wait(mutex_);
  if (!buffer_.empty()) {
    std::vector<dl::Fact> member = std::move(buffer_.front());
    buffer_.pop_front();
    producer_cv_.NotifyOne();
    return member;
  }
  return std::nullopt;
}

void MemberStream::Close() {
  {
    const util::MutexLock lock(mutex_);
    closed_ = true;
    buffer_.clear();  // an abandoned stream keeps no members alive
  }
  producer_cv_.NotifyAll();
  consumer_cv_.NotifyAll();
}

bool MemberStream::finished() const {
  const util::MutexLock lock(mutex_);
  return complete_ || closed_;
}

util::Status MemberStream::final_status() const {
  const util::MutexLock lock(mutex_);
  return status_;
}

// --- MemberMerge ---------------------------------------------------------

std::optional<std::vector<dl::Fact>> MemberMerge::Pop() {
  while (current_ < parts_.size()) {
    // Drains part `current_` to completion before touching the next —
    // the stable ordering contract. Later parts keep producing into
    // their own bounded buffers meanwhile (or block on them: that is
    // their backpressure, not ours).
    if (auto member = parts_[current_].stream->Pop()) return member;
    ++current_;
  }
  return std::nullopt;
}

void MemberMerge::Close() {
  for (Part& part : parts_) part.stream->Close();
}

void MemberMerge::Wait() const {
  for (const Part& part : parts_) part.ticket.Wait();
}

util::Status MemberMerge::final_status() const {
  for (const Part& part : parts_) {
    util::Status status = part.stream->final_status();
    if (!status.ok()) return status;
  }
  return util::Status::Ok();
}

// --- Ticket --------------------------------------------------------------

std::uint64_t Ticket::id() const { return shared_ ? shared_->id : 0; }

bool Ticket::done() const {
  if (!shared_) return true;
  const util::MutexLock lock(shared_->mutex);
  return shared_->done;
}

void Ticket::Cancel() {
  if (!shared_) return;
  shared_->cancel.Cancel();
  // A producer blocked on a full stream polls no token; wake it so the
  // enumeration observes the cancel promptly.
  if (shared_->sink) shared_->sink->OnCancel();
}

const Response& Ticket::Wait() const {
  static const Response kEmpty;
  if (!shared_) return kEmpty;
  const util::MutexLock lock(shared_->mutex);
  while (!shared_->done) shared_->cv.Wait(shared_->mutex);
  return shared_->response;
}

Response Ticket::Take() {
  if (!shared_) return Response();
  const util::MutexLock lock(shared_->mutex);
  while (!shared_->done) shared_->cv.Wait(shared_->mutex);
  Response response = std::move(shared_->response);
  // Keep the terminal scalars observable through later Wait() calls; only
  // the heavy payloads move out.
  shared_->response.status = response.status;
  shared_->response.kind = response.kind;
  shared_->response.members_emitted = response.members_emitted;
  shared_->response.model_version = response.model_version;
  return response;
}

bool Ticket::WaitFor(double seconds) const {
  if (!shared_) return true;
  const util::MutexLock lock(shared_->mutex);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (!shared_->done) {
    if (shared_->cv.WaitUntil(shared_->mutex, deadline)) break;
  }
  return shared_->done;
}

// --- the shard worker ----------------------------------------------------

/// One shard of a Service: an engine and the read execution against it.
/// Shards own no queue, store, or admission state — the Service routes
/// each read to one, runs it on the shared pool, and finishes it.
class Service::Shard {
 public:
  Shard(Service& owner, Engine engine_in)
      : engine(std::move(engine_in)), owner_(owner) {}

  /// Prices a read for scheduling and admission: peeks the plan cache (a
  /// cached plan prices near the floor). Never compiles anything.
  double EstimateCost(const Request& request) const;

  /// Executes one routed read and finishes its ticket.
  void Execute(const std::shared_ptr<Ticket::State>& state);

  Engine engine;
  std::atomic<std::uint64_t> deltas_applied{0};
  std::atomic<std::uint64_t> deltas_skipped{0};

 private:
  void ExecuteEnumerate(const std::shared_ptr<Ticket::State>& state,
                        Response& response);

  /// Cache-through Prepare for a request's (target, acyclicity): pins the
  /// snapshot the execution serves, so Response::model_version is exact.
  util::Result<PreparedQuery> PrepareFor(
      dl::FactId target, const std::string& target_text,
      std::optional<provenance::AcyclicityEncoding> acyclicity) const;

  Service& owner_;
};

double Service::Shard::EstimateCost(const Request& request) const {
  const PlanCostPeek peek = std::visit(
      [this](const auto& op) {
        using Op = std::decay_t<decltype(op)>;
        if constexpr (std::is_same_v<Op, DeltaRequest>) {
          return PlanCostPeek{};  // deltas are priced by the lane
        } else {
          return engine.PeekPlanCost(op.target, op.target_text, op.acyclicity);
        }
      },
      request.op);
  qos::CostSignals signals;
  signals.plan_cached = peek.plan_cached;
  signals.closure_facts = peek.closure_facts;
  signals.cnf_clauses = peek.cnf_clauses;
  signals.cnf_variables = peek.cnf_variables;
  signals.database_facts = peek.database_facts;
  return qos::CostEstimator::Query(signals);
}

util::Result<PreparedQuery> Service::Shard::PrepareFor(
    dl::FactId target, const std::string& target_text,
    std::optional<provenance::AcyclicityEncoding> acyclicity) const {
  PrepareRequest prepare;
  prepare.target = target;
  prepare.target_text = target_text;
  prepare.acyclicity = acyclicity;
  return engine.Prepare(prepare);
}

void Service::Shard::ExecuteEnumerate(
    const std::shared_ptr<Ticket::State>& state, Response& response) {
  EnumerateRequest request = std::get<EnumerateRequest>(state->request.op);
  request.cancellation = state->cancel.token();
  util::Result<Enumeration> enumeration = engine.Enumerate(request);
  if (!enumeration.ok()) {
    response.status = enumeration.status();
    return;
  }
  response.model_version = enumeration.value().model_version();
  // Snapshot GC: a slow (typically streaming) consumer keeps this
  // enumeration's snapshot pinned while deltas stack newer versions on
  // top. With a lag bound configured, cut the pin once the gap exceeds
  // it instead of retaining an unbounded COW chain.
  const std::size_t max_lag = engine.options().max_snapshot_lag;
  bool sink_stopped = false;
  bool evicted = false;
  for (std::optional<std::vector<dl::Fact>> member =
           enumeration.value().Next();
       member.has_value(); member = enumeration.value().Next()) {
    if (max_lag > 0 &&
        engine.model_version() > response.model_version + max_lag) {
      evicted = true;
      break;
    }
    if (state->sink != nullptr) {
      if (!state->sink->OnMember(std::move(*member))) {
        sink_stopped = true;
        break;
      }
    } else {
      response.members.push_back(std::move(*member));
    }
    ++response.members_emitted;
  }
  response.exhausted = enumeration.value().exhausted();
  response.incomplete = enumeration.value().incomplete();
  response.hit_member_cap = enumeration.value().hit_member_cap();
  response.hit_timeout = enumeration.value().hit_timeout();
  response.status = enumeration.value().interruption_status();
  if (response.status.ok() && evicted) {
    response.status = util::Status::ResourceExhausted(
        "snapshot GC: the request's pinned model version trailed the "
        "engine by more than max_snapshot_lag deltas");
    const util::MutexLock lock(owner_.stats_mutex_);
    ++owner_.stats_.snapshot_evictions;
  }
  if (response.status.ok() && sink_stopped) {
    // The consumer closed its stream: the client stopped wanting the
    // answer, which is a cancellation in all but the signal path.
    response.status =
        util::Status::Cancelled("the member sink stopped the enumeration");
  }
}

void Service::Shard::Execute(const std::shared_ptr<Ticket::State>& state) {
  {
    const util::MutexLock lock(owner_.stats_mutex_);
    ++owner_.started_;
    ++owner_.shard_counters_[state->shard].started;
  }
  Response response;
  response.kind = KindOf(state->request);
  response.queue_seconds = state->submit_timer.ElapsedSeconds();
  const util::CancellationToken token = state->cancel.token();
  util::Timer exec_timer;

  if (token.ShouldStop()) {
    // Cancelled or expired while queued: never touches the engine, so a
    // dead request cannot add load (and releases no snapshot — it never
    // pinned one).
    response.status = token.InterruptionStatus();
    response.model_version = engine.model_version();
    response.exec_seconds = exec_timer.ElapsedSeconds();
    owner_.Finish(state, std::move(response));
    return;
  }

  switch (response.kind) {
    case RequestKind::kEnumerate:
      ExecuteEnumerate(state, response);
      break;
    case RequestKind::kDecide: {
      DecideRequest request = std::get<DecideRequest>(state->request.op);
      request.cancellation = token;
      if (request.tree_class == provenance::TreeClass::kUnambiguous) {
        // Execute through a prepared plan: it pins one snapshot, so the
        // reported model_version is exactly the version the verdict was
        // computed against even if a delta lands mid-request.
        util::Result<PreparedQuery> prepared = PrepareFor(
            request.target, request.target_text, request.acyclicity);
        if (!prepared.ok()) {
          response.status = prepared.status();
          break;
        }
        response.model_version = prepared.value().model_version();
        util::Result<bool> verdict = prepared.value().Decide(request);
        if (verdict.ok()) {
          response.member = verdict.value();
        } else {
          response.status = verdict.status();
        }
        break;
      }
      // The exhaustive reference classes deliberately skip Prepare (no
      // plan wanted), so there is no pinned handle to report a version
      // from: best effort, read the version the engine serves right now.
      response.model_version = engine.model_version();
      util::Result<bool> verdict = engine.Decide(request);
      if (verdict.ok()) {
        response.member = verdict.value();
      } else {
        response.status = verdict.status();
      }
      break;
    }
    case RequestKind::kExplain: {
      ExplainRequest request = std::get<ExplainRequest>(state->request.op);
      request.cancellation = token;
      // As for Decide: the prepared plan pins the snapshot the proof tree
      // is reconstructed from, making the reported version exact.
      util::Result<PreparedQuery> prepared = PrepareFor(
          request.target, request.target_text, request.acyclicity);
      if (!prepared.ok()) {
        response.status = prepared.status();
        break;
      }
      response.model_version = prepared.value().model_version();
      util::Result<Explanation> explanation =
          prepared.value().Explain(request);
      if (explanation.ok()) {
        response.explanation = std::move(explanation).value();
      } else {
        response.status = explanation.status();
      }
      break;
    }
    case RequestKind::kApplyDelta:
      break;  // never routed here: deltas run on the lane
  }
  response.exec_seconds = exec_timer.ElapsedSeconds();
  owner_.Finish(state, std::move(response));
}

// --- construction --------------------------------------------------------

namespace {

/// The worker pool: the configured fair scheduler as the queue
/// discipline, or the plain FIFO when QoS fair queueing is disabled.
util::Executor::Options ExecutorOptionsFor(const ServiceOptions& options) {
  util::Executor::Options exec;
  exec.num_threads = options.num_threads;
  exec.queue_capacity = options.queue_capacity == 0 ? 1
                                                    : options.queue_capacity;
  if (options.qos.fair_queueing) {
    exec.queue = std::make_shared<qos::FairScheduler>(options.qos);
  }
  return exec;
}

/// The partition of a service over one given engine: a single fact-range
/// shard, which ShardMap::Build cannot refuse.
ShardMap SingleShard(const dl::Program& program) {
  util::Result<ShardMap> map =
      ShardMap::Build(program, 1, ShardPolicy::kByFactRange);
  if (!map.ok()) std::abort();
  return std::move(map).value();
}

/// The options of a service over one given engine. That constructor
/// cannot build replicas, so a request for more shards is a caller
/// error: Service::Create honours num_shards.
ServiceOptions OneShardOptions(ServiceOptions options) {
  assert(options.num_shards <= 1 &&
         "Service(Engine) serves one shard; use Service::Create");
  return options;
}

std::vector<Engine> OneEngine(Engine engine) {
  std::vector<Engine> engines;
  engines.push_back(std::move(engine));
  return engines;
}

}  // namespace

// Braced delegation: the arguments evaluate left to right, so the map is
// built from `engine` before OneEngine moves it.
Service::Service(Engine engine, ServiceOptions options)
    : Service{SingleShard(engine.program()), OneEngine(std::move(engine)),
              OneShardOptions(std::move(options))} {}

Service::Service(ShardMap map, std::vector<Engine> engines,
                 ServiceOptions options)
    : map_(std::move(map)),
      options_(std::move(options)),
      admission_(options_.qos),
      executor_(ExecutorOptionsFor(options_)) {
  options_.num_shards = map_.num_shards();
  options_.policy = map_.policy();
  shard_counters_.resize(engines.size());
  shards_.reserve(engines.size());
  for (Engine& engine : engines) {
    shards_.push_back(std::make_unique<Shard>(*this, std::move(engine)));
  }
  OpenDurability();
}

Service::~Service() {
  // Drains every admitted request and lane task (their tickets complete)
  // and joins, before any shard or the lane state the tasks capture dies.
  executor_.Shutdown();
}

util::Result<std::unique_ptr<Service>> Service::Create(
    const dl::Program& program, const dl::Database& database,
    dl::PredicateId answer_predicate, ServiceOptions options,
    EngineOptions engine_options) {
  return Replicate(Engine::FromParts(program, database, answer_predicate,
                                     std::move(engine_options)),
                   std::move(options));
}

util::Result<std::unique_ptr<Service>> Service::FromText(
    std::string_view program_text, std::string_view database_text,
    std::string_view answer_predicate, ServiceOptions options,
    EngineOptions engine_options) {
  util::Result<Engine> lead =
      Engine::FromText(program_text, database_text, answer_predicate,
                       std::move(engine_options));
  if (!lead.ok()) return lead.status();
  return Replicate(std::move(lead).value(), std::move(options));
}

util::Result<std::unique_ptr<Service>> Service::Replicate(
    Engine lead, ServiceOptions options) {
  util::Result<ShardMap> map =
      ShardMap::Build(lead.program(), options.num_shards, options.policy);
  if (!map.ok()) return map.status();
  std::vector<Engine> engines;
  engines.reserve(map.value().num_shards());
  engines.push_back(std::move(lead));
  // Every shard evaluates the same parts: deterministic evaluation from
  // identical inputs gives identical models *and identical fact-id
  // spaces*, which is what makes sharded answers bit-identical to the
  // one-shard service's — fact ids drive the CNF variable layout, so
  // even the enumeration order is preserved. (Under by-predicate the
  // partition lives in the routing and the delta fan-out, not in the
  // storage: a shard that skips a delta goes stale only on predicates
  // outside its owned dependency closures, which its reads never touch.)
  // The replicas share the lead's symbol table, so they must share its
  // parse mutex — otherwise two shards parsing fact text concurrently
  // would race on the table.
  const Engine& reference = engines.front();
  EngineOptions replica_options = reference.options();
  replica_options.parse_mutex = reference.PinSnapshot()->parse_mutex;
  for (std::size_t s = 1; s < map.value().num_shards(); ++s) {
    engines.push_back(Engine::FromParts(reference.program(),
                                        reference.database(),
                                        reference.answer_predicate(),
                                        replica_options));
  }
  return std::unique_ptr<Service>(new Service(
      std::move(map).value(), std::move(engines), std::move(options)));
}

void Service::OpenDurability() {
  const EngineOptions& engine_options = engine().options();
  if (engine_options.data_dir.empty()) return;
  const bool replicas = map_.policy() == ShardPolicy::kByFactRange;
  storage::DurabilityOptions durability;
  durability.data_dir = engine_options.data_dir;
  durability.wal_fsync = engine_options.wal_fsync;
  durability.wal_group_commit = engine_options.wal_group_commit;
  // By-predicate shards apply diverging splits of the deltas, so no
  // single engine holds "the" logical state a checkpoint could pin; the
  // WAL (never compacted) is the whole story there and recovery replays
  // it end to end.
  durability.checkpoint_interval =
      replicas ? engine_options.checkpoint_interval : 0;
  util::Result<std::unique_ptr<storage::DurableStore>> opened =
      storage::DurableStore::Open(durability);
  if (!opened.ok()) {
    durability_status_ = opened.status();
    return;
  }
  store_ = std::move(opened).value();

  if (replicas && store_->has_checkpoint()) {
    // One decode, adopted by every replica under the same version, so the
    // fact-id spaces stay lockstep; the last replica takes the decoded
    // model itself. A checkpoint that fails to decode is recoverable —
    // the folded sequence stays 0 and the full log replays below.
    util::Result<storage::RecoveredCheckpoint> recovered =
        store_->RestoreCheckpoint(engine().PinSnapshot()->model.symbols_ptr());
    if (recovered.ok()) {
      storage::RecoveredCheckpoint checkpoint = std::move(recovered).value();
      for (std::size_t s = 0; s + 1 < shards_.size(); ++s) {
        shards_[s]->engine.AdoptRecovered(checkpoint.model.Clone(),
                                          checkpoint.model_version);
      }
      shards_.back()->engine.AdoptRecovered(std::move(checkpoint.model),
                                            checkpoint.model_version);
    }
  }
  std::uint64_t replayed = 0;
  for (const storage::WalRecord& record : store_->TailRecords()) {
    DeltaRequest delta;
    delta.added_fact_texts = record.added;
    delta.removed_fact_texts = record.removed;
    // A record that fails to plan or apply failed identically when it
    // was first logged (replay is deterministic): log-then-apply admits
    // records whose apply was later refused, and replay must skip them
    // the same way rather than abort recovery.
    util::Result<std::vector<std::size_t>> targets = DeltaTargets(delta);
    if (targets.ok()) (void)ApplyToTargets(delta, targets.value());
    ++replayed;
  }
  store_->FinishRecovery(replayed);
}

const Engine& Service::engine() const { return shards_.front()->engine; }

// --- admission -----------------------------------------------------------

namespace {

/// Syntactic predicate name of a fact text like "path(a, b)" — enough to
/// route without parsing (parsing interns constants, which routing must
/// not do on a shard that will never see the request).
std::string PredicateNameOf(const std::string& text) {
  const std::size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return std::string();
  const std::size_t end = text.find_first_of("( \t\r\n", begin);
  return text.substr(begin,
                     (end == std::string::npos ? text.size() : end) - begin);
}

/// The (target, target_text) pair every read op carries.
struct TargetRef {
  dl::FactId* target = nullptr;
  std::string* text = nullptr;
};

TargetRef TargetOf(Request& request) {
  return std::visit(
      [](auto& op) -> TargetRef {
        using Op = std::decay_t<decltype(op)>;
        if constexpr (std::is_same_v<Op, DeltaRequest>) {
          return TargetRef{};
        } else {
          return TargetRef{&op.target, &op.target_text};
        }
      },
      request.op);
}

}  // namespace

util::Result<std::size_t> Service::RouteRead(Request& request) const {
  if (shards_.size() == 1) return std::size_t{0};
  const TargetRef target = TargetOf(request);

  if (map_.policy() == ShardPolicy::kByFactRange) {
    if (*target.target != dl::kInvalidFact) {
      return map_.OwnerOfFact(*target.target);
    }
    if (!target.text->empty()) {
      // Canonicalise on the reference replica: the resolved id is valid
      // on every shard (lockstep), so the owner never re-parses and the
      // same target always routes to the same shard however its text is
      // spelled.
      util::Result<dl::FactId> id = engine().FactIdOf(*target.text);
      if (id.ok()) {
        *target.target = id.value();
        target.text->clear();
        return map_.OwnerOfFact(id.value());
      }
      // Unresolvable: any shard reproduces the engine's own error
      // through the ticket; spread by text hash.
      return std::hash<std::string>{}(*target.text) % shards_.size();
    }
    return std::size_t{0};  // "no target" — the shard surfaces the error
  }

  // By-predicate: route on the target's predicate, read syntactically off
  // the text (no interning on the router).
  if (!target.text->empty()) {
    const std::string name = PredicateNameOf(*target.text);
    const std::shared_ptr<const EngineState> state = engine().PinSnapshot();
    const util::MutexLock lock(*state->parse_mutex);
    util::Result<dl::PredicateId> predicate =
        state->model.symbols().FindPredicate(name);
    if (!predicate.ok()) return std::size_t{0};  // shard surfaces the error
    return map_.OwnerOfPredicate(predicate.value());
  }
  if (*target.target != dl::kInvalidFact) {
    return util::Status::InvalidArgument(
        "by-predicate sharding routes reads by target text: fact ids are "
        "shard-local, so a bare id cannot name its owner");
  }
  return std::size_t{0};
}

util::Result<Ticket> Service::Submit(Request request,
                                     std::shared_ptr<MemberSink> sink) {
  const bool write = KindOf(request) == RequestKind::kApplyDelta;
  auto state = std::make_shared<Ticket::State>();
  if (!write) {
    util::Result<std::size_t> shard = RouteRead(request);
    if (!shard.ok()) return shard.status();
    state->shard = shard.value();
  }
  state->request = std::move(request);
  state->sink = std::move(sink);
  const double deadline = state->request.deadline_seconds > 0
                              ? state->request.deadline_seconds
                              : options_.default_deadline_seconds;
  // The deadline clock starts at admission: queue wait counts against it,
  // exactly like a client-side deadline would.
  if (deadline > 0) state->cancel.SetTimeout(deadline);

  // QoS: price the request, then run cost-based admission before it can
  // occupy a queue slot. The charge is refunded exactly once, in Finish
  // (cancellation included — refund-on-cancel is the same path).
  const qos::QosClass lane = state->request.qos_class;
  const std::string& tenant = state->request.tenant;
  if (write) {
    const DeltaRequest& delta = std::get<DeltaRequest>(state->request.op);
    qos::CostSignals signals;
    signals.delta_facts =
        delta.added_facts.size() + delta.added_fact_texts.size() +
        delta.removed_facts.size() + delta.removed_fact_texts.size();
    signals.database_facts = engine().database_size();
    state->estimated_cost = qos::CostEstimator::Delta(signals);
  } else {
    state->estimated_cost =
        shards_[state->shard]->EstimateCost(state->request);
  }
  if (util::Status priced = admission_.Admit(tenant, state->estimated_cost);
      !priced.ok()) {
    {
      const util::MutexLock lock(stats_mutex_);
      ++stats_.rejected;
    }
    tenants_.RecordRejected(tenant, lane);
    return priced;
  }

  // Count the submission (and stamp the id) before the task can run, so
  // no observer ever sees completed > submitted; roll back on rejection.
  {
    const util::MutexLock lock(stats_mutex_);
    ++stats_.submitted;
    state->id = ++next_id_;
    if (!write) ++shard_counters_[state->shard].submitted;
  }
  util::TaskTag tag;
  tag.lane = static_cast<std::uint8_t>(lane);
  tag.tenant = tenant;
  tag.shard = state->shard;
  tag.cost = state->estimated_cost;
  util::Status queued;
  if (write) {
    // The fan-out decision happens at admission (under fact-range it is
    // trivially "all shards"); the lane then executes deltas one at a
    // time in admission order.
    util::Result<std::vector<std::size_t>> targets =
        DeltaTargets(std::get<DeltaRequest>(state->request.op));
    if (!targets.ok()) {
      // A malformed text fact fails the whole delta through the ticket,
      // exactly like the engine's own delta parsing. It never queued,
      // but it did charge: pair the queue/complete records so the gauges
      // balance and the refund lands.
      {
        const util::MutexLock lock(stats_mutex_);
        ++started_;
      }
      tenants_.RecordQueued(tenant, lane);
      Response response;
      response.kind = RequestKind::kApplyDelta;
      response.status = targets.status();
      response.queue_seconds = state->submit_timer.ElapsedSeconds();
      Finish(state, std::move(response));
      return Ticket(state);
    }
    queued = EnqueueDelta(
        [this, state, targets = std::move(targets).value()] {
          ExecuteDelta(state, targets);
        },
        tag);
  } else {
    queued = executor_.TrySubmit(
        [this, state] { shards_[state->shard]->Execute(state); }, tag);
  }
  if (!queued.ok()) {
    {
      const util::MutexLock lock(stats_mutex_);
      --stats_.submitted;
      ++stats_.rejected;
      if (!write) --shard_counters_[state->shard].submitted;
    }
    admission_.Release(tenant, state->estimated_cost);
    tenants_.RecordRejected(tenant, lane);
    return queued;
  }
  tenants_.RecordQueued(tenant, lane);
  return Ticket(state);
}

util::Result<std::pair<Ticket, std::shared_ptr<MemberStream>>>
Service::Stream(EnumerateRequest request, std::size_t stream_capacity,
                double deadline_seconds) {
  auto stream = std::make_shared<MemberStream>(stream_capacity);
  Request unified;
  unified.op = std::move(request);
  unified.deadline_seconds = deadline_seconds;
  util::Result<Ticket> ticket = Submit(std::move(unified), stream);
  if (!ticket.ok()) return ticket.status();
  return std::make_pair(std::move(ticket).value(), std::move(stream));
}

util::Result<std::shared_ptr<MemberMerge>> Service::StreamMany(
    std::vector<EnumerateRequest> requests, std::size_t stream_capacity,
    double deadline_seconds) {
  std::vector<MemberMerge::Part> parts;
  parts.reserve(requests.size());
  for (EnumerateRequest& request : requests) {
    auto streamed =
        Stream(std::move(request), stream_capacity, deadline_seconds);
    if (!streamed.ok()) {
      // Abort the scatter instead of riding the refusal out: parts
      // already admitted may be blocked on their full streams, which only
      // the (not yet existing) consumer could drain, so waiting here
      // could deadlock.
      for (MemberMerge::Part& part : parts) {
        part.ticket.Cancel();
        part.stream->Close();
      }
      return streamed.status();
    }
    auto [ticket, stream] = std::move(streamed).value();
    parts.push_back(MemberMerge::Part{std::move(ticket), std::move(stream)});
  }
  return std::make_shared<MemberMerge>(std::move(parts));
}

void Service::Finish(const std::shared_ptr<Ticket::State>& state,
                     Response response) {
  admission_.Release(state->request.tenant, state->estimated_cost);
  const bool cancelled =
      response.status.code() == util::StatusCode::kCancelled ||
      response.status.code() == util::StatusCode::kDeadlineExceeded;
  tenants_.RecordCompleted(state->request.tenant, state->request.qos_class,
                           cancelled, state->estimated_cost,
                           response.queue_seconds);
  {
    const util::MutexLock lock(stats_mutex_);
    ++stats_.completed;
    switch (response.status.code()) {
      case util::StatusCode::kOk:
        ++stats_.succeeded;
        break;
      case util::StatusCode::kCancelled:
        ++stats_.cancelled;
        break;
      case util::StatusCode::kDeadlineExceeded:
        ++stats_.deadline_exceeded;
        break;
      default:
        ++stats_.failed;
        break;
    }
    stats_.members_delivered += response.members_emitted;
    if (response.kind != RequestKind::kApplyDelta) {
      ShardCounters& counters = shard_counters_[state->shard];
      ++counters.completed;
      if (response.status.ok()) ++counters.succeeded;
    }
  }
  // Complete the sink *before* publishing the response: a consumer woken
  // by the ticket must find its stream already terminal.
  if (state->sink) state->sink->OnComplete(response.status);
  {
    const util::MutexLock lock(state->mutex);
    state->response = std::move(response);
    state->done = true;
  }
  state->cv.NotifyAll();
}

// --- the write path: ordered delta lane ----------------------------------

util::Status Service::ParseDeltaTexts(DeltaRequest& delta) {
  const std::shared_ptr<const EngineState> state = engine().PinSnapshot();
  const util::MutexLock lock(*state->parse_mutex);
  for (auto [texts, facts] :
       {std::make_pair(&delta.added_fact_texts, &delta.added_facts),
        std::make_pair(&delta.removed_fact_texts, &delta.removed_facts)}) {
    for (const std::string& text : *texts) {
      util::Result<dl::Fact> fact =
          dl::Parser::ParseFact(state->model.symbols_ptr(), text);
      if (!fact.ok()) return fact.status();
      facts->push_back(std::move(fact).value());
    }
    texts->clear();
  }
  return util::Status::Ok();
}

bool Service::CoveredByAnyShard(dl::PredicateId predicate) const {
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    if (map_.Covers(shard, predicate)) return true;
  }
  return false;
}

util::Status Service::EnqueueDelta(std::function<void()> task,
                                   const util::TaskTag& tag) {
  const util::MutexLock lock(lane_mutex_);
  // The write path honours the same admission bound as the read path: a
  // drain in progress must not let the lane grow without limit.
  const std::size_t capacity =
      std::max<std::size_t>(1, options_.queue_capacity);
  if (lane_.size() >= capacity) {
    return util::Status::ResourceExhausted(
        "the delta lane is full (" + std::to_string(capacity) +
        " pending deltas)");
  }
  lane_.push_back(std::move(task));
  if (!lane_draining_) {
    // The drain is scheduled under the tag of the delta that starts it;
    // deltas queued behind it ride along in admission order.
    const util::Status submitted =
        executor_.TrySubmit([this] { DrainDeltaLane(); }, tag);
    if (!submitted.ok()) {
      lane_.pop_back();
      return submitted;
    }
    lane_draining_ = true;
  }
  return util::Status::Ok();
}

void Service::DrainDeltaLane() {
  while (true) {
    std::function<void()> task;
    {
      const util::MutexLock lock(lane_mutex_);
      if (lane_.empty()) {
        lane_draining_ = false;
        break;
      }
      task = std::move(lane_.front());
      lane_.pop_front();
    }
    task();
  }
}

util::Result<std::vector<std::size_t>> Service::DeltaTargets(
    DeltaRequest& delta) {
  if (map_.policy() == ShardPolicy::kByFactRange) {
    return map_.ShardsForDelta({});
  }
  // By-predicate routing needs every fact's predicate, so text facts
  // are parsed once here (the shards then never re-parse).
  if (util::Status parsed = ParseDeltaTexts(delta); !parsed.ok()) {
    return parsed;
  }
  std::vector<dl::PredicateId> predicates;
  for (const std::vector<dl::Fact>* facts :
       {&delta.added_facts, &delta.removed_facts}) {
    for (const dl::Fact& fact : *facts) predicates.push_back(fact.predicate);
  }
  std::sort(predicates.begin(), predicates.end());
  predicates.erase(std::unique(predicates.begin(), predicates.end()),
                   predicates.end());
  std::vector<std::size_t> targets = map_.ShardsForDelta(predicates);
  // Facts over predicates outside every shard's partition (predicates
  // no rule mentions) still belong in the logical database; they land
  // on shard 0, where predicate routing also defaults — so a client
  // that writes them can read them back.
  bool orphans = false;
  for (const dl::PredicateId predicate : predicates) {
    orphans = orphans || !CoveredByAnyShard(predicate);
  }
  if (orphans &&
      std::find(targets.begin(), targets.end(), std::size_t{0}) ==
          targets.end()) {
    targets.insert(targets.begin(), 0);
  }
  return targets;
}

void Service::ExecuteDelta(const std::shared_ptr<Ticket::State>& state,
                           const std::vector<std::size_t>& targets) {
  {
    const util::MutexLock lock(stats_mutex_);
    ++started_;
  }
  Response response;
  response.kind = RequestKind::kApplyDelta;
  response.queue_seconds = state->submit_timer.ElapsedSeconds();
  util::Timer exec_timer;
  const util::CancellationToken token = state->cancel.token();

  if (token.ShouldStop()) {
    // Cancelled or expired while queued in the lane: no shard applied
    // anything (and nothing was logged), so the abort is trivially
    // all-or-nothing.
    response.status = token.InterruptionStatus();
    response.model_version = engine().model_version();
  } else {
    // The evaluation itself is not interruptible: a delta is either
    // applied or not, never half-propagated.
    util::Result<DeltaStats> applied =
        LogAndApply(std::get<DeltaRequest>(state->request.op), targets);
    if (applied.ok()) {
      DeltaStats stats = applied.value();
      stats.total_seconds = exec_timer.ElapsedSeconds();
      response.model_version = stats.model_version;
      response.delta = stats;
    } else {
      response.status = applied.status();
    }
  }
  response.exec_seconds = exec_timer.ElapsedSeconds();
  // Group commit: a delta that leaves the lane empty closes its burst, so
  // the one coalesced fsync covering the burst runs before this delta is
  // acknowledged. A delta with others queued behind it is acknowledged
  // first; the drain that runs them syncs at the burst's end. A no-op
  // outside group-commit mode.
  if (store_ != nullptr) {
    bool burst_ends = false;
    {
      const util::MutexLock lock(lane_mutex_);
      burst_ends = lane_.empty();
    }
    if (burst_ends) (void)store_->SyncWal();
  }
  Finish(state, std::move(response));
}

util::Result<DeltaStats> Service::LogAndApply(
    const DeltaRequest& delta, const std::vector<std::size_t>& targets) {
  if (store_ == nullptr) return ApplyToTargets(delta, targets);
  // The WAL stores the text form only: render any parsed facts so a
  // replaying process (with a different fact-id space) reconstructs the
  // identical delta. By-predicate admission parses every text into the
  // fact vectors, so rendering covers that path too.
  std::vector<std::string> added = delta.added_fact_texts;
  for (const dl::Fact& fact : delta.added_facts) {
    added.push_back(engine().FactToText(fact));
  }
  std::vector<std::string> removed = delta.removed_fact_texts;
  for (const dl::Fact& fact : delta.removed_facts) {
    removed.push_back(engine().FactToText(fact));
  }
  // The lane already serialises deltas; the order mutex additionally
  // keeps checkpoint writes and group-commit syncs out of the
  // append -> apply -> checkpoint window.
  const util::MutexLock order(store_->order_mutex());
  if (util::Status logged = store_->AppendDelta(added, removed);
      !logged.ok()) {
    // Never apply what was not durably logged — refusing the delta keeps
    // the log a superset of the applied history.
    return logged;
  }
  util::Result<DeltaStats> applied = ApplyToTargets(delta, targets);
  if (store_->ShouldCheckpoint()) {
    // Fact-range replicas are lockstep, so the lead replica's pinned
    // snapshot IS the logical state (under by-predicate the store's
    // checkpoint interval is 0 and this never fires). A failed write is
    // not fatal: the WAL still holds the full history, and the next
    // interval retries.
    const std::shared_ptr<const EngineState> state = engine().PinSnapshot();
    (void)store_->WriteCheckpoint(state->model, state->model_version,
                                  *state->parse_mutex);
  }
  return applied;
}

namespace {

/// Merges one shard's delta outcome into the logical view: replicas (and
/// overlapping closures) apply the same base facts on several shards, so
/// fact counters take the max (the logical counts, or an upper bound of
/// them) while the per-shard plan-cache counters genuinely add up.
void MergeDeltaStats(const DeltaStats& shard_stats, bool first,
                     DeltaStats& merged) {
  if (first) {
    merged = shard_stats;
    return;
  }
  merged.model_version =
      std::max(merged.model_version, shard_stats.model_version);
  merged.facts_added = std::max(merged.facts_added, shard_stats.facts_added);
  merged.facts_removed =
      std::max(merged.facts_removed, shard_stats.facts_removed);
  merged.facts_derived =
      std::max(merged.facts_derived, shard_stats.facts_derived);
  merged.facts_deleted =
      std::max(merged.facts_deleted, shard_stats.facts_deleted);
  merged.facts_rederived =
      std::max(merged.facts_rederived, shard_stats.facts_rederived);
  merged.facts_touched =
      std::max(merged.facts_touched, shard_stats.facts_touched);
  merged.plans_retained += shard_stats.plans_retained;
  merged.plans_invalidated += shard_stats.plans_invalidated;
  merged.eval_seconds = std::max(merged.eval_seconds, shard_stats.eval_seconds);
}

}  // namespace

util::Result<DeltaStats> Service::ApplyToTargets(
    const DeltaRequest& delta, const std::vector<std::size_t>& targets) {
  if (targets.empty()) {
    // The delta intersects no shard's partition: an applied no-op.
    DeltaStats stats;
    for (const auto& shard : shards_) {
      stats.model_version =
          std::max(stats.model_version, shard->engine.model_version());
      shard->deltas_skipped.fetch_add(1, std::memory_order_relaxed);
    }
    return stats;
  }
  DeltaStats merged;
  bool first = true;
  const auto merge = [&](std::size_t shard,
                         const util::Result<DeltaStats>& applied) {
    if (!applied.ok()) return applied.status();
    shards_[shard]->deltas_applied.fetch_add(1, std::memory_order_relaxed);
    MergeDeltaStats(applied.value(), first, merged);
    first = false;
    return util::Status::Ok();
  };
  if (map_.policy() == ShardPolicy::kByFactRange) {
    // Evaluate once on the lead replica, adopt everywhere: N shards pay
    // one semi-naive propagation plus N cheap snapshot publishes (each
    // with its own selective plan invalidation), and their fact-id
    // spaces stay lockstep. The last replica takes the evaluated model
    // by move; the others publish clones of it.
    util::Result<EvaluatedDelta> evaluated =
        shards_[targets.front()]->engine.EvaluateDelta(delta);
    if (!evaluated.ok()) return evaluated.status();
    for (std::size_t i = 0; i + 1 < targets.size(); ++i) {
      Engine& replica = shards_[targets[i]]->engine;
      util::Status adopted =
          merge(targets[i], replica.AdoptDelta(evaluated.value()));
      if (!adopted.ok()) return adopted;
    }
    Engine& last = shards_[targets.back()]->engine;
    util::Status adopted =
        merge(targets.back(), last.AdoptDelta(std::move(evaluated).value()));
    if (!adopted.ok()) return adopted;
    return merged;
  }
  // By-predicate: each intersecting shard applies its split of the
  // delta (facts its dependency closure covers; shard 0 additionally
  // takes the facts no partition covers); the others are skipped
  // outright and keep serving their current version.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (std::find(targets.begin(), targets.end(), s) == targets.end()) {
      shards_[s]->deltas_skipped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const DeltaRequest split = SplitDeltaFor(s, delta, /*take_orphans=*/s == 0);
    util::Status applied = merge(s, shards_[s]->engine.ApplyDelta(split));
    if (!applied.ok()) return applied;
  }
  return merged;
}

DeltaRequest Service::SplitDeltaFor(std::size_t shard,
                                    const DeltaRequest& delta,
                                    bool take_orphans) const {
  // Texts were normalised into the fact vectors at admission.
  const auto wanted = [&](const dl::Fact& fact) {
    return map_.Covers(shard, fact.predicate) ||
           (take_orphans && !CoveredByAnyShard(fact.predicate));
  };
  DeltaRequest sub;
  for (const dl::Fact& fact : delta.added_facts) {
    if (wanted(fact)) sub.added_facts.push_back(fact);
  }
  for (const dl::Fact& fact : delta.removed_facts) {
    if (wanted(fact)) sub.removed_facts.push_back(fact);
  }
  return sub;
}

// --- stats ---------------------------------------------------------------

PlanCacheStats Service::AggregatePlanCacheStats() const {
  PlanCacheStats total;
  for (const auto& shard : shards_) {
    const PlanCacheStats stats = shard->engine.plan_cache_stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.evictions += stats.evictions;
    total.invalidated += stats.invalidated;
    total.size += stats.size;
    total.capacity += stats.capacity;
    total.plans_simplified += stats.plans_simplified;
    total.simplify_vars_removed += stats.simplify_vars_removed;
    total.simplify_clauses_removed += stats.simplify_clauses_removed;
    total.simplify_micros += stats.simplify_micros;
  }
  return total;
}

ServiceStats Service::stats() const {
  ServiceStats total;
  std::vector<ShardCounters> counters;
  {
    const util::MutexLock lock(stats_mutex_);
    total = stats_;
    total.queue_depth = static_cast<std::size_t>(stats_.submitted - started_);
    total.in_flight = static_cast<std::size_t>(started_ - stats_.completed);
    counters = shard_counters_;
  }
  total.tenants = tenants_.Snapshot();
  const PlanCacheStats plans = AggregatePlanCacheStats();
  total.plans_simplified = plans.plans_simplified;
  total.simplify_vars_removed = plans.simplify_vars_removed;
  total.simplify_clauses_removed = plans.simplify_clauses_removed;
  total.simplify_micros = plans.simplify_micros;
  if (store_ != nullptr) {
    const storage::DurabilityCounters durability = store_->counters();
    total.wal_appends = durability.wal_appends;
    total.wal_bytes = durability.wal_bytes;
    total.checkpoints_written = durability.checkpoints_written;
    total.recovery_replayed_deltas = durability.recovery_replayed_deltas;
    total.wal_syncs = durability.wal_syncs;
  }
  const double uptime = uptime_.ElapsedSeconds();
  const auto per_second = [uptime](std::uint64_t completed) {
    return uptime > 0 ? static_cast<double>(completed) / uptime : 0;
  };
  total.queries_per_second = per_second(total.completed);

  std::uint64_t min_version = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Engine& shard_engine = shards_[s]->engine;
    const std::uint64_t version = shard_engine.model_version();
    const SnapshotStats snapshots = shard_engine.snapshot_stats();
    const std::size_t alarm_bytes = shard_engine.options().snapshot_alarm_bytes;
    total.retained_snapshots += snapshots.retained_snapshots;
    total.retained_snapshot_bytes += snapshots.approx_bytes;
    total.snapshot_alarm =
        total.snapshot_alarm ||
        (alarm_bytes > 0 && snapshots.approx_bytes > alarm_bytes);
    min_version = std::min(min_version, version);
    total.model_version = std::max(total.model_version, version);
    if (shards_.size() == 1) continue;  // one shard reports no rows

    const ShardCounters& c = counters[s];
    ShardStats row;
    row.queue_depth = static_cast<std::size_t>(c.submitted - c.started);
    row.in_flight = static_cast<std::size_t>(c.started - c.completed);
    row.submitted = c.submitted;
    row.completed = c.completed;
    row.succeeded = c.succeeded;
    row.queries_per_second = per_second(c.completed);
    row.model_version = version;
    row.deltas_applied =
        shards_[s]->deltas_applied.load(std::memory_order_relaxed);
    row.deltas_skipped =
        shards_[s]->deltas_skipped.load(std::memory_order_relaxed);
    row.retained_snapshots = snapshots.retained_snapshots;
    row.retained_snapshot_bytes = snapshots.approx_bytes;
    total.shards.push_back(row);
  }
  total.version_skew = total.model_version - min_version;
  return total;
}

// --- blocking batches ----------------------------------------------------

std::vector<Ticket> Service::SubmitAll(const std::vector<Request>& requests,
                                       std::vector<util::Status>& refused) {
  std::vector<Ticket> tickets(requests.size());
  refused.assign(requests.size(), util::Status::Ok());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    while (true) {
      util::Result<Ticket> ticket = Submit(requests[i]);
      if (ticket.ok()) {
        tickets[i] = std::move(ticket).value();
        break;
      }
      if (ticket.status().code() != util::StatusCode::kResourceExhausted) {
        refused[i] = ticket.status();
        break;
      }
      bool waited = false;
      for (std::size_t j = 0; j < i && !waited; ++j) {
        if (tickets[j].valid() && !tickets[j].done()) {
          tickets[j].WaitFor(0.01);
          waited = true;
        }
      }
      if (!waited) {
        // The backlog is someone else's traffic; back off and retry.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  return tickets;
}

namespace {

/// The aggregate tail both batch flavours share.
template <typename Outcome>
void FillBatchStats(const std::vector<Outcome>& outcomes,
                    const PlanCacheStats& before, const PlanCacheStats& after,
                    double wall_seconds, BatchStats& stats) {
  for (const Outcome& outcome : outcomes) {
    ++(outcome.status.ok() ? stats.succeeded : stats.failed);
  }
  stats.requests = outcomes.size();
  stats.wall_seconds = wall_seconds;
  stats.queries_per_second =
      wall_seconds > 0 ? static_cast<double>(outcomes.size()) / wall_seconds
                       : 0;
  stats.plan_cache_hits = after.hits - before.hits;
  stats.plan_cache_misses = after.misses - before.misses;
}

}  // namespace

BatchEnumerateResult Service::EnumerateBatch(
    const std::vector<EnumerateRequest>& requests) {
  const PlanCacheStats before = AggregatePlanCacheStats();
  util::Timer timer;
  std::vector<Request> unified(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) unified[i].op = requests[i];
  std::vector<util::Status> refused;
  std::vector<Ticket> tickets = SubmitAll(unified, refused);
  BatchEnumerateResult result;
  result.outcomes.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    BatchEnumerateOutcome& outcome = result.outcomes[i];
    if (!tickets[i].valid()) {
      outcome.status = refused[i];
      continue;
    }
    Response response = tickets[i].Take();  // move the members, not copy
    outcome.status = std::move(response.status);
    outcome.members = std::move(response.members);
    outcome.exhausted = response.exhausted;
    outcome.incomplete = response.incomplete;
    outcome.hit_member_cap = response.hit_member_cap;
    outcome.hit_timeout = response.hit_timeout;
    outcome.seconds = response.exec_seconds;
    if (outcome.status.ok()) {
      result.stats.members_emitted += outcome.members.size();
    }
  }
  FillBatchStats(result.outcomes, before, AggregatePlanCacheStats(),
                 timer.ElapsedSeconds(), result.stats);
  return result;
}

BatchDecideResult Service::DecideBatch(
    const std::vector<DecideRequest>& requests) {
  const PlanCacheStats before = AggregatePlanCacheStats();
  util::Timer timer;
  std::vector<Request> unified(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) unified[i].op = requests[i];
  std::vector<util::Status> refused;
  std::vector<Ticket> tickets = SubmitAll(unified, refused);
  BatchDecideResult result;
  result.outcomes.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    BatchDecideOutcome& outcome = result.outcomes[i];
    if (!tickets[i].valid()) {
      outcome.status = refused[i];
      continue;
    }
    const Response& response = tickets[i].Wait();
    outcome.status = response.status;
    outcome.member = response.member;
    outcome.seconds = response.exec_seconds;
  }
  FillBatchStats(result.outcomes, before, AggregatePlanCacheStats(),
                 timer.ElapsedSeconds(), result.stats);
  return result;
}

}  // namespace whyprov
