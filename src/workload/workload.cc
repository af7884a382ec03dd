#include "workload/workload.h"

#include "obs/span.h"

namespace qo::workload {

WorkloadDriver::WorkloadDriver(WorkloadConfig config) : config_(config) {
  TemplateGenerator gen(config_.seed);
  templates_ = gen.Generate(config_.num_templates);
}

std::vector<JobInstance> WorkloadDriver::DayJobs(int day) const {
  QO_OBS_SPAN("day_jobs");
  Rng rng(config_.seed ^ (0x5851f42d4c957f2dULL *
                          static_cast<uint64_t>(day + 1)));
  std::vector<JobInstance> jobs;
  jobs.reserve(static_cast<size_t>(config_.jobs_per_day));
  // One-off jobs reuse the generator with day-scoped ids so they never
  // repeat across days.
  TemplateGenerator oneoff_gen(config_.seed ^ 0x9e3779b97f4a7c15ULL ^
                               static_cast<uint64_t>(day));
  int oneoff_id = 1000000 + day * 10000;
  for (int i = 0; i < config_.jobs_per_day; ++i) {
    if (rng.Bernoulli(config_.recurring_fraction) && !templates_.empty()) {
      size_t idx = rng.Zipf(templates_.size(), config_.template_skew);
      jobs.push_back(Instantiate(templates_[idx], day, i, &rng));
    } else {
      JobTemplate t = oneoff_gen.GenerateOne(oneoff_id++);
      t.recurring = false;
      jobs.push_back(Instantiate(t, day, i, &rng));
    }
  }
  return jobs;
}

}  // namespace qo::workload
