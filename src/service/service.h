#ifndef WHYPROV_SERVICE_SERVICE_H_
#define WHYPROV_SERVICE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "engine/engine.h"
#include "qos/cost.h"
#include "qos/qos.h"
#include "qos/tenant_registry.h"
#include "shard/shard_map.h"
#include "util/cancellation.h"
#include "util/executor.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace whyprov {

namespace storage {
class DurableStore;  // storage/durable_store.h (service.cc only)
}  // namespace storage

/// Which operation a service `Request` carries (mirrors the variant's
/// alternatives; also reported back in the `Response`).
enum class RequestKind { kEnumerate, kDecide, kExplain, kApplyDelta };

/// The unified submission unit of the service: one of the engine's typed
/// operations plus the request-scoped serving policy (deadline). The
/// per-operation structs are exactly the engine's — the service adds
/// admission, scheduling, streaming, and interruption around them, not a
/// second request vocabulary. Leave each op's `cancellation` field empty:
/// the service installs the ticket's own token on execution.
struct Request {
  std::variant<EnumerateRequest, DecideRequest, ExplainRequest, DeltaRequest>
      op;
  /// Wall-clock budget measured from Submit — queue wait counts, as it
  /// must in a serving system (a client's deadline does not pause while
  /// the request sits in line). <= 0 means no deadline (the service's
  /// `default_deadline_seconds` may still apply).
  double deadline_seconds = 0;
  /// QoS identity (multi-tenant serving). The defaults — interactive
  /// lane, the "" tenant — are what every pre-QoS caller implicitly
  /// sent, and requests carrying them are scheduled exactly like the
  /// old FIFO (architecture invariant 6).
  qos::QosClass qos_class = qos::QosClass::kInteractive;
  std::string tenant;
};

/// Outcome of one submitted request, delivered through its `Ticket`.
/// `status` is Ok, a per-operation failure, or the interruption verdicts:
/// kCancelled (Ticket::Cancel, or a streaming consumer that closed its
/// stream), kDeadlineExceeded, kResourceExhausted (never stored here —
/// admission rejections fail Submit itself).
struct Response {
  util::Status status;
  RequestKind kind = RequestKind::kEnumerate;

  // Enumerate: the materialised members — empty when the request streamed
  // through a MemberSink (then `members_emitted` still counts them).
  std::vector<std::vector<datalog::Fact>> members;
  std::size_t members_emitted = 0;
  bool exhausted = false;
  bool incomplete = false;
  bool hit_member_cap = false;
  bool hit_timeout = false;

  bool member = false;  ///< Decide verdict (meaningful when status.ok())
  std::optional<Explanation> explanation;  ///< Explain payload
  std::optional<DeltaStats> delta;         ///< ApplyDelta payload

  double queue_seconds = 0;  ///< admission -> execution start
  double exec_seconds = 0;   ///< execution wall-clock
  /// The model version the request was served from (reads) or produced
  /// (deltas). In-flight tickets keep their snapshot across deltas, so
  /// two concurrent responses may legitimately report different versions.
  std::uint64_t model_version = 0;
};

/// Streaming consumer of enumeration members: the service calls
/// `OnMember` once per member, in emission order, from the worker thread
/// executing the request. Implementations may block — that is the
/// backpressure mechanism bounding the service's memory — and return
/// false to stop the enumeration early. `OnComplete` is called exactly
/// once, after the final member (or failure/interruption); `OnCancel` may
/// be called from any thread by `Ticket::Cancel` and must unblock a
/// producer waiting inside `OnMember`.
class MemberSink {
 public:
  virtual ~MemberSink() = default;

  /// One member of the family. Return false to stop the enumeration
  /// (reported as kCancelled).
  virtual bool OnMember(std::vector<datalog::Fact> member) = 0;

  /// Terminal notification with the request's final status.
  virtual void OnComplete(const util::Status& status) { (void)status; }

  /// The ticket was cancelled; unblock any producer stuck in OnMember.
  virtual void OnCancel() {}
};

/// A bounded member queue bridging the worker (producer) and a consumer
/// thread: the pull flavour of `MemberSink`. Holding at most `capacity`
/// members, `OnMember` blocks once the buffer is full until the consumer
/// pops — so a slow reader stalls the SAT enumeration instead of
/// ballooning a result vector; memory stays O(capacity), never O(family).
/// `Pop` blocks until a member arrives or the enumeration finishes;
/// `Close` abandons the stream from the consumer side (the producer's
/// next OnMember returns false and the request ends kCancelled).
class MemberStream final : public MemberSink {
 public:
  explicit MemberStream(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  bool OnMember(std::vector<datalog::Fact> member) override;
  void OnComplete(const util::Status& status) override;
  void OnCancel() override { Close(); }

  /// The next member, or nullopt once the stream finished (drained after
  /// completion) or was closed. Single consumer.
  std::optional<std::vector<datalog::Fact>> Pop();

  /// Consumer-side abandonment: wakes a blocked producer, whose OnMember
  /// then returns false.
  void Close();

  /// True once the producer finished (status available) or Close ran.
  bool finished() const;

  /// The request's final status (Ok until OnComplete).
  util::Status final_status() const;

 private:
  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  util::CondVar producer_cv_;
  util::CondVar consumer_cv_;
  std::deque<std::vector<datalog::Fact>> buffer_ GUARDED_BY(mutex_);
  util::Status status_ GUARDED_BY(mutex_);
  bool complete_ GUARDED_BY(mutex_) = false;
  bool closed_ GUARDED_BY(mutex_) = false;
};

/// A future-style handle on one submitted request. Copyable (shares the
/// underlying state); the service keeps a reference until the request
/// finished, so dropping every Ticket does not abandon the work — call
/// Cancel() for that. All methods are thread-safe.
class Ticket {
 public:
  /// The shared per-request state (defined in service.cc; not part of
  /// the API).
  struct State;

  /// An empty ticket (valid() == false); Submit returns connected ones.
  Ticket() = default;

  bool valid() const { return shared_ != nullptr; }

  /// Monotonic per-service request id (1-based submission order).
  std::uint64_t id() const;

  /// True once the response is available.
  bool done() const;

  /// Requests cooperative cancellation: raises the token the solver loop
  /// polls and unblocks a streaming producer. The response arrives with
  /// kCancelled unless the request already finished (Cancel never
  /// un-finishes a response). Idempotent.
  void Cancel();

  /// Blocks until the response is available, then returns it. The
  /// reference stays valid for the ticket's lifetime.
  const Response& Wait() const;

  /// Blocks like Wait(), then moves the response out — for consumers that
  /// want the member vectors without a deep copy. Single-shot: later
  /// Wait()/Take() calls on any copy of this ticket see a hollowed-out
  /// response (status and scalars intact, payloads gone).
  Response Take();

  /// Waits up to `seconds`; true iff the response became available.
  bool WaitFor(double seconds) const;

 private:
  friend class Service;
  explicit Ticket(std::shared_ptr<State> shared)
      : shared_(std::move(shared)) {}

  std::shared_ptr<State> shared_;
};

/// Ordered gather over several member streams: the pull side of the
/// scatter/gather read path. Each part is one enumeration (a ticket plus
/// its bounded `MemberStream`); `Pop` yields every member of part 0, then
/// every member of part 1, and so on — *stable member ordering* in
/// request order, independent of which worker (or, under sharding, which
/// shard) produced what and how the executions interleaved. Backpressure
/// is the parts' own: each sub-stream's bounded buffer blocks its
/// producer, so total buffered memory is O(parts × capacity) regardless
/// of family sizes. Single consumer, like MemberStream.
class MemberMerge {
 public:
  struct Part {
    Ticket ticket;
    std::shared_ptr<MemberStream> stream;
  };

  explicit MemberMerge(std::vector<Part> parts) : parts_(std::move(parts)) {}

  /// The next member in request order, or nullopt once every part
  /// finished (or Close ran). Blocks on the current part's stream.
  std::optional<std::vector<datalog::Fact>> Pop();

  /// Abandons the whole gather mid-flight: closes every sub-stream, so
  /// each producer's next OnMember returns false and its request ends
  /// kCancelled — one call cancels the full scatter.
  void Close();

  /// Blocks until every part's response is available.
  void Wait() const;

  /// First non-ok final status across the parts (Ok while clean).
  util::Status final_status() const;

  const std::vector<Part>& parts() const { return parts_; }

 private:
  std::vector<Part> parts_;
  std::size_t current_ = 0;  ///< single consumer, like MemberStream::Pop
};

/// Serving-policy knobs of a Service.
struct ServiceOptions {
  /// Worker threads executing requests (0 = one per hardware thread).
  std::size_t num_threads = 0;
  /// Admitted-but-unstarted requests the service will hold; Submit
  /// refuses with kResourceExhausted beyond it (admission control). The
  /// write lane holds up to as many pending deltas again.
  std::size_t queue_capacity = 256;
  /// Deadline applied to requests that carry none (<= 0 = none).
  double default_deadline_seconds = 0;
  /// Multi-tenant QoS policy: scheduling lanes/weights and cost-based
  /// admission. The default is fair queueing with no per-tenant limits,
  /// under which default-class traffic behaves exactly like the pre-QoS
  /// FIFO.
  qos::QosOptions qos;
  /// Shard engines the model is partitioned across, and how (see
  /// ShardPolicy). Honoured by Service::Create/FromText, which build the
  /// engines; the Service(Engine) constructor serves its one engine and
  /// requires num_shards <= 1.
  std::size_t num_shards = 1;
  ShardPolicy policy = ShardPolicy::kAuto;
};

/// Aggregated throughput statistics of one blocking batch call.
struct BatchStats {
  std::size_t requests = 0;   ///< batch size
  std::size_t succeeded = 0;  ///< requests that completed without error
  std::size_t failed = 0;     ///< requests that returned an error status
  std::size_t members_emitted = 0;  ///< total members (enumerate batches)
  double wall_seconds = 0;          ///< end-to-end batch wall-clock
  double queries_per_second = 0;    ///< requests / wall_seconds
  std::size_t plan_cache_hits = 0;    ///< cache hits during the batch
  std::size_t plan_cache_misses = 0;  ///< cache misses during the batch
};

/// Per-request outcome of Service::EnumerateBatch: the materialised
/// members (subject to the request budgets) plus the handle flags.
struct BatchEnumerateOutcome {
  util::Status status;  ///< per-request failure (target resolution, backend)
  std::vector<std::vector<datalog::Fact>> members;
  bool exhausted = false;
  bool incomplete = false;
  bool hit_member_cap = false;
  bool hit_timeout = false;
  double seconds = 0;  ///< execution wall-clock of this request
};

struct BatchEnumerateResult {
  std::vector<BatchEnumerateOutcome> outcomes;  ///< parallel to the requests
  BatchStats stats;
};

/// Per-request outcome of Service::DecideBatch.
struct BatchDecideOutcome {
  util::Status status;
  bool member = false;  ///< meaningful only when status.ok()
  double seconds = 0;
};

struct BatchDecideResult {
  std::vector<BatchDecideOutcome> outcomes;  ///< parallel to the requests
  BatchStats stats;
};

/// One shard's row inside a multi-shard service's `ServiceStats` — the
/// per-shard serving health a fleet dashboard needs: its share of the
/// (shared) queue, its throughput, the model version it currently serves
/// (versions legitimately skew when delta fan-out prunes a shard), its
/// delta fan-out counters, and its snapshot retention.
struct ShardStats {
  std::size_t queue_depth = 0;   ///< this shard's admitted, unstarted
  std::size_t in_flight = 0;     ///< executing on this shard right now
  std::uint64_t submitted = 0;   ///< requests routed to this shard
  std::uint64_t completed = 0;
  std::uint64_t succeeded = 0;
  double queries_per_second = 0;  ///< completed / seconds since start
  std::uint64_t model_version = 0;  ///< version this shard serves now
  std::uint64_t deltas_applied = 0;  ///< deltas whose fan-out included it
  std::uint64_t deltas_skipped = 0;  ///< deltas pruned before this shard
  std::size_t retained_snapshots = 0;  ///< live model versions (pinned)
  std::size_t retained_snapshot_bytes = 0;  ///< approximate, COW-chunk based
};

/// Point-in-time serving counters (cumulative since construction).
struct ServiceStats {
  std::uint64_t submitted = 0;   ///< requests admitted
  std::uint64_t rejected = 0;    ///< Submit refusals (queue full)
  std::uint64_t completed = 0;   ///< responses delivered (any status)
  std::uint64_t succeeded = 0;   ///< responses with an Ok status
  std::uint64_t cancelled = 0;   ///< responses with kCancelled
  std::uint64_t deadline_exceeded = 0;  ///< responses with kDeadlineExceeded
  std::uint64_t failed = 0;      ///< responses with any other error
  std::uint64_t members_delivered = 0;  ///< members streamed + materialised
  std::size_t queue_depth = 0;   ///< admitted, unstarted right now
  std::size_t in_flight = 0;     ///< executing right now
  double queries_per_second = 0;  ///< completed / seconds since start
  std::uint64_t model_version = 0;  ///< newest version served (max shard)
  /// Snapshot retention (ROADMAP "Snapshot GC & memory observability"):
  /// live model versions — the published one plus those pinned by
  /// in-flight tickets — and their approximate bytes from the COW chunk
  /// stats, summed over shards.
  std::size_t retained_snapshots = 0;
  std::size_t retained_snapshot_bytes = 0;
  /// Requests failed by the snapshot GC policy because their pinned
  /// version trailed the engine by more than
  /// EngineOptions::max_snapshot_lag deltas (they end kResourceExhausted).
  std::uint64_t snapshot_evictions = 0;
  /// True while retained_snapshot_bytes exceeds the engine's
  /// EngineOptions::snapshot_alarm_bytes threshold (any shard's). Always
  /// false when the threshold is 0.
  bool snapshot_alarm = false;
  /// Spread between the newest and oldest model version across shards
  /// (non-zero when delta fan-out pruning lets untouched shards keep
  /// serving an older version), and one row per shard. Zero / empty on a
  /// one-shard service.
  std::uint64_t version_skew = 0;
  /// Durability tier (ROADMAP "Durability"): activity of the stack's
  /// write-ahead delta log and snapshot checkpoints. All zero when the
  /// engine options carry no data_dir (memory-only serving).
  std::uint64_t wal_appends = 0;  ///< delta records logged this process
  std::uint64_t wal_bytes = 0;    ///< framed WAL bytes appended
  std::uint64_t checkpoints_written = 0;
  /// WAL-tail records replayed during recovery at construction.
  std::uint64_t recovery_replayed_deltas = 0;
  /// Group-commit fsyncs (EngineOptions::wal_group_commit): one per
  /// burst of deltas, each issued before the burst's last delta is
  /// acknowledged. Not carried by the C ABI or the wire.
  std::uint64_t wal_syncs = 0;
  /// Plan-time CNF inprocessing (EngineOptions::plan_simplify), summed
  /// over the shards' plan caches. All zero when the knob is off.
  std::uint64_t plans_simplified = 0;
  std::uint64_t simplify_vars_removed = 0;
  std::uint64_t simplify_clauses_removed = 0;
  std::uint64_t simplify_micros = 0;
  std::vector<ShardStats> shards;
  /// Multi-tenant QoS: one row per (tenant, lane) that ever submitted,
  /// sorted by tenant then lane.
  std::vector<qos::TenantStats> tenants;
};

/// The serving front door: submission-based, non-blocking, and streaming
/// — the API shape a system answering heavy interactive traffic needs,
/// where the engine's blocking calls that materialise full result
/// vectors do not fit. One logical model, served by N >= 1 shard engines
/// (N = 1 unless built by Create/FromText with more).
///
///   * `Submit` admits a unified `Request` (Enumerate / Decide / Explain
///     / ApplyDelta) and returns a `Ticket` immediately; a full queue
///     refuses with kResourceExhausted instead of buffering unboundedly.
///   * One worker pool (`util::Executor`, with the QoS fair scheduler as
///     its queue) executes requests for every shard; results arrive
///     through `Ticket::Wait` or, for enumerations, stream
///     member-by-member through a `MemberSink`/`MemberStream` with
///     backpressure — bounded memory regardless of family size.
///   * Every request carries a deadline (measured from Submit, queue wait
///     included) and a cancellation token; both are polled between
///     members *and* inside the SAT search, so `Ticket::Cancel` or an
///     expired deadline stops a long solve promptly with kCancelled /
///     kDeadlineExceeded — without blocking other in-flight requests.
///   * Reads route to the shard owning their target (by predicate, or by
///     fact-range striping over lockstep replicas — see ShardPolicy); with
///     one shard routing is the identity.
///   * Writes (`ApplyDelta`) go through one ordered delta lane: deltas
///     execute one at a time in admission order, logged to the write-ahead
///     log first when the engine options name a data_dir. Each delta
///     reaches only the shards its facts intersect — evaluated once and
///     adopted by every replica under fact-range — while in-flight reads
///     keep serving the snapshot they started on, so a delta never waits
///     for (or tears) running enumerations.
///
/// Equivalence guarantee: for any sequence of requests where each delta
/// is awaited before dependent reads, results are bit-identical for every
/// shard count and both policies (tests/test_shard.cc holds this across
/// the scenario generators). Thread-safe; create once, share freely.
/// Destruction drains admitted requests (their tickets complete) before
/// joining the workers.
class Service {
 public:
  /// Serves `engine` as the only shard, opening (and recovering from) the
  /// durability tier its options name. Requires `options.num_shards` <= 1
  /// (asserted in debug builds; `policy` is moot for one shard): replicas
  /// are built from parsed inputs by Create.
  explicit Service(Engine engine, ServiceOptions options = ServiceOptions());

  /// Builds `options.num_shards` engines from one parsed program/database
  /// and serves them: every shard evaluates the same parts, so the
  /// replicas start with identical models and fact-id spaces (the
  /// bit-identity invariant); the partition lives in the routing and the
  /// delta fan-out.
  static util::Result<std::unique_ptr<Service>> Create(
      const datalog::Program& program, const datalog::Database& database,
      datalog::PredicateId answer_predicate,
      ServiceOptions options = ServiceOptions(),
      EngineOptions engine_options = EngineOptions());

  /// Parses program/database text and resolves the answer predicate (as
  /// Engine::FromText), then serves like Create.
  static util::Result<std::unique_ptr<Service>> FromText(
      std::string_view program_text, std::string_view database_text,
      std::string_view answer_predicate,
      ServiceOptions options = ServiceOptions(),
      EngineOptions engine_options = EngineOptions());

  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admits `request`: reads are routed to their owning shard, writes to
  /// the ordered delta lane. `sink` (optional) streams Enumerate members;
  /// the other kinds only call its OnComplete, just before the ticket
  /// completes. Refuses with kResourceExhausted
  /// when the queue is full — the client should back off and retry. With
  /// N >= 2 by-predicate shards, reads must name their target by text
  /// (fact ids are shard-local there).
  util::Result<Ticket> Submit(Request request,
                              std::shared_ptr<MemberSink> sink = nullptr);

  /// Convenience: submit an enumeration streaming into a fresh bounded
  /// `MemberStream` of `stream_capacity` members; returns the ticket and
  /// the stream to pull from.
  util::Result<std::pair<Ticket, std::shared_ptr<MemberStream>>> Stream(
      EnumerateRequest request, std::size_t stream_capacity = 8,
      double deadline_seconds = 0);

  /// Submits every enumeration with its own bounded stream and returns a
  /// `MemberMerge` gathering them in request order (stable member
  /// ordering; per-part backpressure). Fails — cancelling the parts
  /// already admitted — if admission refuses a part; size the queue for
  /// the fan-out.
  util::Result<std::shared_ptr<MemberMerge>> StreamMany(
      std::vector<EnumerateRequest> requests, std::size_t stream_capacity = 8,
      double deadline_seconds = 0);

  /// Blocking batches: submit every request (fed as the queue drains
  /// rather than rejected), wait for every ticket, and gather the
  /// outcomes positionally — stable ordering regardless of which worker
  /// or shard ran what. They interleave with any other traffic.
  BatchEnumerateResult EnumerateBatch(
      const std::vector<EnumerateRequest>& requests);
  BatchDecideResult DecideBatch(const std::vector<DecideRequest>& requests);

  /// The reference engine (shard 0) for views and id/answer bookkeeping.
  /// Under fact-range it is a full replica whose fact ids are valid on
  /// every shard; under by-predicate with N >= 2 it only holds shard 0's
  /// slice — use target texts there. Route mutations through Submit.
  const Engine& engine() const;

  ServiceStats stats() const;
  const ShardMap& shard_map() const { return map_; }
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t num_threads() const { return executor_.num_threads(); }
  const ServiceOptions& options() const { return options_; }

  /// Durability health: Ok when the engine options carry no data_dir or
  /// the store opened (and recovered) cleanly; the open error otherwise.
  /// A service with a failed store serves memory-only — callers that
  /// must not accept silent non-durability should check after
  /// construction (whyprov_service_create does).
  util::Status durability_status() const { return durability_status_; }

 private:
  /// One shard worker: an engine plus the read execution against it.
  class Shard;

  /// Request counters of one shard's reads (guarded by stats_mutex_).
  struct ShardCounters {
    std::uint64_t submitted = 0;
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t succeeded = 0;
  };

  Service(ShardMap map, std::vector<Engine> engines, ServiceOptions options);

  /// The multi-engine half of Create/FromText: builds the shard map over
  /// `lead`'s program and the replicas from the same parsed inputs.
  static util::Result<std::unique_ptr<Service>> Replicate(
      Engine lead, ServiceOptions options);

  /// Opens the DurableStore named by the engine options' data_dir (one
  /// for all shards; no-op when empty) and recovers: under fact-range,
  /// restore the checkpoint into every replica, then replay the WAL tail
  /// through the normal write path; under by-predicate, replay the full
  /// log (no checkpoints — shard models diverge, so no single engine
  /// holds "the" state). Runs in the constructor, before serving starts.
  void OpenDurability();

  /// Picks the owning shard for a read request, canonicalising the target
  /// (under fact-range, text targets are resolved to portable fact ids on
  /// the reference replica so the owner never re-parses). Routing errors
  /// that a single engine would also report (unparsable/unknown targets)
  /// are left for the owning shard to surface through the ticket.
  util::Result<std::size_t> RouteRead(Request& request) const;

  /// The fan-out decision of the write path: normalises text facts into
  /// the fact vectors (by-predicate needs every fact's predicate) and
  /// returns the shards whose partition the delta intersects, including
  /// shard 0 for orphaned predicates. Shared by admission and recovery
  /// replay, so a replayed delta fans out exactly like the original.
  util::Result<std::vector<std::size_t>> DeltaTargets(DeltaRequest& delta);

  /// Parses a delta's text-form facts into its fact vectors (one parse at
  /// the router instead of one per shard); fails exactly like the
  /// engine's own delta parsing would.
  util::Status ParseDeltaTexts(DeltaRequest& delta);

  /// The facts of `delta` whose predicate `shard`'s partition covers;
  /// with `take_orphans`, also the facts no shard's partition covers
  /// (predicates outside every dependency closure land on shard 0, which
  /// is also where predicate routing defaults — read-your-writes holds).
  DeltaRequest SplitDeltaFor(std::size_t shard, const DeltaRequest& delta,
                             bool take_orphans) const;

  /// True iff some shard's partition covers `predicate`.
  bool CoveredByAnyShard(datalog::PredicateId predicate) const;

  /// Enqueues `task` on the delta lane (bounded by the queue capacity —
  /// admission control for the write path too), submitting a drain task
  /// under `tag` when none is running.
  util::Status EnqueueDelta(std::function<void()> task,
                            const util::TaskTag& tag);

  /// Runs lane tasks one at a time until the lane is empty.
  void DrainDeltaLane();

  /// The lane task: WAL append (when durable) + apply, then — when no
  /// delta waits behind it — the group-commit fsync, then Finish.
  void ExecuteDelta(const std::shared_ptr<Ticket::State>& state,
                    const std::vector<std::size_t>& targets);

  /// WAL append -> ApplyToTargets -> checkpoint under the store's order
  /// mutex (just ApplyToTargets when no store is open).
  util::Result<DeltaStats> LogAndApply(const DeltaRequest& delta,
                                       const std::vector<std::size_t>& targets);

  /// The apply core: evaluate-once/adopt-everywhere (fact-range) or
  /// split-and-apply per intersecting shard (by-predicate). Shared by
  /// the lane and recovery replay.
  util::Result<DeltaStats> ApplyToTargets(
      const DeltaRequest& delta, const std::vector<std::size_t>& targets);

  /// The single terminal point of every admitted request: refunds the
  /// admission charge, records the tenant completion, counts the outcome,
  /// and completes the ticket.
  void Finish(const std::shared_ptr<Ticket::State>& state,
              Response response);

  /// Submits every request, riding out kResourceExhausted by waiting on
  /// the oldest outstanding ticket (draining the queue frees a slot).
  /// Tickets are positional; a request refused for any other reason
  /// leaves an invalid ticket and its status in `refused`.
  std::vector<Ticket> SubmitAll(const std::vector<Request>& requests,
                                std::vector<util::Status>& refused);

  /// Plan-cache counters summed across the shards.
  PlanCacheStats AggregatePlanCacheStats() const;

  ShardMap map_;
  ServiceOptions options_;
  util::Timer uptime_;  ///< denominator of queries_per_second
  mutable util::Mutex stats_mutex_;
  ServiceStats stats_ GUARDED_BY(stats_mutex_);
  /// Requests whose execution began.
  std::uint64_t started_ GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t next_id_ GUARDED_BY(stats_mutex_) = 0;
  std::vector<ShardCounters> shard_counters_ GUARDED_BY(stats_mutex_);

  // The ordered delta lane: tasks run FIFO on the executor, one at a
  // time — every shard observes the same write order (lockstep for
  // replicas) while each delta only touches its target shards' engines.
  mutable util::Mutex lane_mutex_;
  std::deque<std::function<void()>> lane_ GUARDED_BY(lane_mutex_);
  bool lane_draining_ GUARDED_BY(lane_mutex_) = false;

  /// QoS: per-(tenant, lane) observability and cost-based admission, one
  /// of each for the whole service.
  qos::TenantRegistry tenants_;
  qos::AdmissionController admission_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// The durability tier (null = memory-only), one for all shards.
  std::unique_ptr<storage::DurableStore> store_;
  util::Status durability_status_;  ///< set once in OpenDurability
  /// Declared last: workers touch everything above, so the pool must be
  /// drained and joined first.
  util::Executor executor_;
};

}  // namespace whyprov

#endif  // WHYPROV_SERVICE_SERVICE_H_
