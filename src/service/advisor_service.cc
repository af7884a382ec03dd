#include "service/advisor_service.h"

#include <limits>
#include <optional>
#include <utility>

namespace qo::service {

namespace {

/// When the service owns retrain cadence, the learner's inline
/// retrain-on-interval is disabled: models advance only through
/// TrainAndPublish, which trains outside the tenant mutex.
TenantConfig WithRetrainOwnership(TenantConfig cfg) {
  if (cfg.service_owns_retrain) {
    cfg.personalizer.retrain_interval = std::numeric_limits<size_t>::max();
  }
  return cfg;
}

}  // namespace

uint64_t ServiceSnapshot::Fingerprint(const ServiceSnapshot& snap) {
  uint64_t h = 0x9e3779b97f4a7c15ULL * (snap.sequence + 1);
  h ^= 0xbf58476d1ce4e5b9ULL * (snap.model_generation + 1);
  h ^= 0x94d049bb133111ebULL * (static_cast<uint64_t>(snap.model_updates) + 1);
  if (snap.hints != nullptr) {
    h ^= 0xd6e8feb86659fd93ULL *
         (static_cast<uint64_t>(snap.hints->version()) + 1);
    h ^= 0xa0761d6478bd642fULL *
         (static_cast<uint64_t>(snap.hints->active_hints()) + 1);
  }
  return h;
}

AdvisorService::TenantState::TenantState(std::string tenant_name,
                                         TenantConfig cfg,
                                         const AdvisorOptions& options)
    : name(std::move(tenant_name)),
      config(WithRetrainOwnership(std::move(cfg))),
      owned_engine(config.engine != nullptr
                       ? nullptr
                       : std::make_unique<engine::ScopeEngine>(
                             opt::OptimizerOptions{}, exec::ClusterConfig{},
                             options.compile_cache)),
      engine(config.engine != nullptr ? config.engine : owned_engine.get()),
      sis(config.sis),
      personalizer(config.personalizer) {}

AdvisorService::AdvisorService(AdvisorOptions options)
    : options_(std::move(options)),
      rank_requests_(&obs::Registry::Get().counter("service.rank_requests")),
      reward_requests_(
          &obs::Registry::Get().counter("service.reward_requests")),
      compile_requests_(
          &obs::Registry::Get().counter("service.compile_requests")),
      hint_uploads_(&obs::Registry::Get().counter("service.hint_uploads")),
      publications_(
          &obs::Registry::Get().counter("service.snapshot_publications")),
      rank_ns_(&obs::Registry::Get().histogram("service.rank_ns")),
      reward_ns_(&obs::Registry::Get().histogram("service.reward_ns")),
      compile_ns_(&obs::Registry::Get().histogram("service.compile_ns")),
      request_ns_(&obs::Registry::Get().histogram("service.request_ns")) {
  if (options_.retrain_period_ms > 0) {
    StartBackgroundTrainer(
        std::chrono::milliseconds(options_.retrain_period_ms));
  }
}

AdvisorService::~AdvisorService() { StopBackgroundTrainer(); }

Result<TenantSession> AdvisorService::OpenTenant(const std::string& tenant,
                                                 TenantConfig config) {
  if (tenant.empty()) {
    return Status::InvalidArgument("tenant name must be non-empty");
  }
  std::unique_lock<std::shared_mutex> lock(tenants_mu_);
  auto [it, inserted] = tenants_.try_emplace(tenant, nullptr);
  if (!inserted) {
    return Status::AlreadyExists("tenant already open: " + tenant);
  }
  it->second =
      std::make_unique<TenantState>(tenant, std::move(config), options_);
  TenantState& t = *it->second;
  // Sequence 1: cold model, empty hint view. Published before the tenant is
  // visible to any API call, so readers never observe a null snapshot.
  std::lock_guard<std::mutex> tenant_lock(t.mu);
  PublishLocked(t);
  return TenantSession(this, tenant);
}

Result<TenantSession> AdvisorService::Session(const std::string& tenant) {
  if (FindTenant(tenant) == nullptr) {
    return Status::NotFound("unknown tenant: " + tenant);
  }
  return TenantSession(this, tenant);
}

AdvisorService::TenantState* AdvisorService::FindTenant(
    const std::string& tenant) const {
  std::shared_lock<std::shared_mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  return it != tenants_.end() ? it->second.get() : nullptr;
}

void AdvisorService::PublishLocked(TenantState& t) {
  auto snap = std::make_shared<ServiceSnapshot>();
  snap->sequence = ++t.publications;
  snap->model_generation = t.model_generation;
  snap->model_updates = t.personalizer.model().updates();
  snap->hints = t.sis.BuildSnapshotView();
  snap->checksum = ServiceSnapshot::Fingerprint(*snap);
  t.snapshot.store(std::shared_ptr<const ServiceSnapshot>(std::move(snap)));
  publications_->Add();
}

Result<RankResponse> AdvisorService::Rank(const RankRequest& request) {
  const uint64_t start = obs::MetricsEnabled() ? obs::MonotonicNowNs() : 0;
  TenantState* t = FindTenant(request.tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant: " + request.tenant);
  }
  bandit::RankRequest rank;
  rank.event_id = request.event_id;
  rank.context = request.context;
  rank.actions = request.actions;
  rank.explore_uniform = request.explore_uniform;
  RankResponse resp;
  {
    std::lock_guard<std::mutex> lock(t->mu);
    // Scores the live model, which only changes under this lock.
    auto ranked = t->personalizer.Rank(rank);
    if (!ranked.ok()) return ranked.status();
    // Publications are stored under this lock too, so this is the sequence
    // of the snapshot current while the live model scored.
    resp.snapshot_sequence = t->publications;
    resp.event_id = std::move(ranked->event_id);
    resp.event = ranked->event;
    resp.chosen_index = ranked->chosen_index;
    resp.chosen_action_id = std::move(ranked->chosen_action_id);
    resp.probability = ranked->probability;
  }
  rank_requests_->Add();
  if (start != 0) {
    const uint64_t d = obs::MonotonicNowNs() - start;
    rank_ns_->Record(d);
    request_ns_->Record(d);
  }
  return resp;
}

Result<RewardResponse> AdvisorService::Reward(const RewardRequest& request) {
  const uint64_t start = obs::MetricsEnabled() ? obs::MonotonicNowNs() : 0;
  TenantState* t = FindTenant(request.tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant: " + request.tenant);
  }
  RewardResponse resp;
  {
    std::lock_guard<std::mutex> lock(t->mu);
    Status s = t->personalizer.Reward(request.event, request.reward);
    if (!s.ok()) return s;
    resp.rewarded_events = t->personalizer.rewarded_events();
  }
  reward_requests_->Add();
  if (start != 0) {
    const uint64_t d = obs::MonotonicNowNs() - start;
    reward_ns_->Record(d);
    request_ns_->Record(d);
  }
  return resp;
}

Result<CompileResponse> AdvisorService::Compile(const CompileRequest& request) {
  const uint64_t start = obs::MetricsEnabled() ? obs::MonotonicNowNs() : 0;
  TenantState* t = FindTenant(request.tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant: " + request.tenant);
  }
  // No tenant lock anywhere on this path: hints come from the immutable
  // snapshot view, and the engine (compile cache included) is internally
  // synchronized.
  std::shared_ptr<const ServiceSnapshot> snap = t->snapshot.load();
  CompileResponse resp;
  resp.sis_version = snap->hints->version();
  opt::RuleConfig config = opt::RuleConfig::Default();
  if (request.apply_hints) {
    if (auto hint = snap->hints->LookupHint(request.job.template_name)) {
      config = hint->ToConfig();
      resp.hint_applied = true;
      resp.rule_id = hint->rule_id;
    }
  }
  auto compiled = t->engine->CompileShared(request.job, config);
  if (!compiled.ok()) return compiled.status();
  resp.compilation = *compiled;
  compile_requests_->Add();
  if (start != 0) {
    const uint64_t d = obs::MonotonicNowNs() - start;
    compile_ns_->Record(d);
    request_ns_->Record(d);
  }
  return resp;
}

Result<UploadHintsResponse> AdvisorService::UploadHints(
    const UploadHintsRequest& request) {
  TenantState* t = FindTenant(request.tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant: " + request.tenant);
  }
  UploadHintsResponse resp;
  {
    std::lock_guard<std::mutex> lock(t->mu);
    auto version = t->sis.UploadHintFile(request.file);
    if (!version.ok()) return version.status();
    resp.version = *version;
    resp.active_hints = t->sis.active_hints();
    // Republish immediately: the new hints become visible to concurrent
    // Compile calls the moment this store lands.
    PublishLocked(*t);
    resp.snapshot_sequence = t->publications;
  }
  hint_uploads_->Add();
  return resp;
}

std::shared_ptr<const ServiceSnapshot> AdvisorService::CurrentSnapshot(
    const std::string& tenant) const {
  TenantState* t = FindTenant(tenant);
  if (t == nullptr) return nullptr;
  return t->snapshot.load();
}

bool AdvisorService::TrainAndPublish(const std::string& tenant) {
  TenantState* t = FindTenant(tenant);
  if (t == nullptr) return false;
  std::lock_guard<std::mutex> train_lock(t->train_mu);
  std::optional<bandit::PersonalizerService::TrainTicket> ticket;
  {
    std::lock_guard<std::mutex> lock(t->mu);
    ticket = t->personalizer.BeginTrain();
    if (!ticket.has_value()) return false;
  }
  // The expensive step runs with no lock held: readers keep ranking against
  // the live model and rewarding into the next pending batch.
  ticket->model.Train(ticket->batch);
  {
    std::lock_guard<std::mutex> lock(t->mu);
    t->personalizer.FinishTrain(std::move(*ticket));
    ++t->model_generation;
    PublishLocked(*t);
  }
  return true;
}

size_t AdvisorService::TrainAndPublishAll() {
  size_t published = 0;
  for (const std::string& tenant : tenants()) {
    if (TrainAndPublish(tenant)) ++published;
  }
  return published;
}

void AdvisorService::StartBackgroundTrainer(std::chrono::milliseconds period) {
  if (trainer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(trainer_mu_);
    trainer_stop_ = false;
  }
  trainer_ = std::thread(&AdvisorService::TrainerLoop, this, period);
}

void AdvisorService::StopBackgroundTrainer() {
  if (!trainer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(trainer_mu_);
    trainer_stop_ = true;
  }
  trainer_cv_.notify_all();
  trainer_.join();
}

void AdvisorService::TrainerLoop(std::chrono::milliseconds period) {
  std::unique_lock<std::mutex> lock(trainer_mu_);
  while (!trainer_stop_) {
    trainer_cv_.wait_for(lock, period, [this] { return trainer_stop_; });
    if (trainer_stop_) break;
    lock.unlock();
    TrainAndPublishAll();
    lock.lock();
  }
}

Result<advisor::PipelineDayReport> AdvisorService::RunPipelineDay(
    const std::string& tenant, const telemetry::WorkloadView& view) {
  TenantState* t = FindTenant(tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant: " + tenant);
  }
  std::lock_guard<std::mutex> lock(t->mu);
  if (t->pipeline == nullptr) {
    advisor::PipelineConfig config = t->config.pipeline;
    // The service is the single env-snapshot authority: thread the captured
    // options in, overriding whatever the PipelineConfig defaults read.
    config.runtime = options_.runtime;
    config.guard = options_.guard;
    t->pipeline = std::make_unique<advisor::QoAdvisorPipeline>(
        t->engine, &t->sis, config, /*runtime=*/nullptr, &t->personalizer);
  }
  auto report = t->pipeline->RunDay(view);
  // The day may have uploaded hints and advanced the learner — republish so
  // serving traffic sees the post-day state.
  if (report.ok()) PublishLocked(*t);
  return report;
}

std::vector<std::string> AdvisorService::tenants() const {
  std::shared_lock<std::shared_mutex> lock(tenants_mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) names.push_back(name);
  return names;
}

// --- TenantSession -------------------------------------------------------

Result<RankResponse> TenantSession::Rank(RankRequest request) {
  request.tenant = tenant_;
  return service_->Rank(request);
}

Result<RewardResponse> TenantSession::Reward(RewardRequest request) {
  request.tenant = tenant_;
  return service_->Reward(request);
}

Result<CompileResponse> TenantSession::Compile(CompileRequest request) {
  request.tenant = tenant_;
  return service_->Compile(request);
}

Result<UploadHintsResponse> TenantSession::UploadHints(
    UploadHintsRequest request) {
  request.tenant = tenant_;
  return service_->UploadHints(request);
}

Result<RewardResponse> TenantSession::Reward(bandit::EventId event,
                                             double reward) {
  RewardRequest request;
  request.tenant = tenant_;
  request.event = event;
  request.reward = reward;
  return service_->Reward(request);
}

Result<CompileResponse> TenantSession::Compile(
    const workload::JobInstance& job, bool apply_hints) {
  CompileRequest request;
  request.tenant = tenant_;
  request.job = job;
  request.apply_hints = apply_hints;
  return service_->Compile(request);
}

Result<UploadHintsResponse> TenantSession::UploadHints(
    const sis::HintFile& file) {
  UploadHintsRequest request;
  request.tenant = tenant_;
  request.file = file;
  return service_->UploadHints(request);
}

Result<advisor::PipelineDayReport> TenantSession::RunPipelineDay(
    const telemetry::WorkloadView& view) {
  return service_->RunPipelineDay(tenant_, view);
}

bool TenantSession::TrainAndPublish() {
  return service_->TrainAndPublish(tenant_);
}

std::shared_ptr<const ServiceSnapshot> TenantSession::snapshot() const {
  return service_->CurrentSnapshot(tenant_);
}

const engine::ScopeEngine& TenantSession::engine() const {
  return *service_->FindTenant(tenant_)->engine;
}

const sis::StatsInsightService& TenantSession::sis() const {
  return service_->FindTenant(tenant_)->sis;
}

const bandit::PersonalizerService& TenantSession::personalizer() const {
  return service_->FindTenant(tenant_)->personalizer;
}

advisor::QoAdvisorPipeline* TenantSession::pipeline() const {
  return service_->FindTenant(tenant_)->pipeline.get();
}

}  // namespace qo::service
