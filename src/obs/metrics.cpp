#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "common/assert.hpp"

namespace wfc::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  WFC_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                  std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                      bounds_.end(),
              "Histogram: bounds must be strictly increasing");
}

void Histogram::observe(std::uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

const std::vector<std::uint64_t>& latency_bounds_us() {
  static const std::vector<std::uint64_t> bounds = {
      10,      50,      100,     500,       1'000,     5'000,
      10'000,  50'000,  100'000, 500'000,   1'000'000, 5'000'000,
      10'000'000};
  return bounds;
}

const std::vector<std::uint64_t>& size_bounds() {
  static const std::vector<std::uint64_t> bounds = {
      1,       10,        100,        1'000,      10'000,
      100'000, 1'000'000, 10'000'000, 100'000'000};
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& labels,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_add(Kind::kCounter, false, name, labels, help).counter;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<std::uint64_t>& bounds,
                                      const std::string& labels,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = find_or_add(Kind::kHistogram, false, name, labels, help);
  if (s.histogram == nullptr) s.histogram = std::make_unique<Histogram>(bounds);
  return *s.histogram;
}

void MetricsRegistry::counter_view(const std::string& name,
                                   const std::string& labels,
                                   const std::string& help, ViewFn read) {
  add_view(Kind::kCounter, name, labels, help, std::move(read));
}

void MetricsRegistry::gauge_view(const std::string& name,
                                 const std::string& labels,
                                 const std::string& help, ViewFn read) {
  add_view(Kind::kGauge, name, labels, help, std::move(read));
}

void MetricsRegistry::add_view(Kind kind, const std::string& name,
                               const std::string& labels,
                               const std::string& help, ViewFn read) {
  WFC_REQUIRE(read != nullptr, "MetricsRegistry: view without a source: " +
                                   name);
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = find_or_add(kind, true, name, labels, help);
  if (s.view == nullptr) {
    s.view = std::move(read);
  } else {
    s.view = [first = std::move(s.view), second = std::move(read)] {
      return first() + second();
    };
  }
}

MetricsRegistry::Series& MetricsRegistry::find_or_add(
    Kind kind, bool view, const std::string& name, const std::string& labels,
    const std::string& help) {
  for (Series& s : series_) {
    if (s.name == name && s.labels == labels) {
      WFC_REQUIRE(s.kind == kind,
                  "MetricsRegistry: series re-registered with another kind: " +
                      name);
      WFC_REQUIRE((s.view != nullptr) == view,
                  "MetricsRegistry: " + name +
                      (view ? " is owned; it cannot become a view"
                            : " is a view; it owns no instrument"));
      return s;
    }
  }
  series_.emplace_back();
  Series& s = series_.back();
  s.kind = kind;
  s.name = name;
  s.labels = labels;
  s.help = help;
  return s;
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Group series into families (same name) so HELP/TYPE render once, in the
  // order families were first registered.
  std::vector<const Series*> ordered;
  ordered.reserve(series_.size());
  for (const Series& s : series_) ordered.push_back(&s);
  std::map<std::string, std::vector<const Series*>> families;
  std::vector<std::string> family_order;
  for (const Series* s : ordered) {
    auto [it, fresh] = families.try_emplace(s->name);
    if (fresh) family_order.push_back(s->name);
    it->second.push_back(s);
  }

  auto with_labels = [](const Series& s, const std::string& extra = "") {
    std::string body = s.labels;
    if (!extra.empty()) body += (body.empty() ? "" : ",") + extra;
    return body.empty() ? s.name : s.name + "{" + body + "}";
  };

  for (const std::string& name : family_order) {
    const std::vector<const Series*>& members = families[name];
    const Series& head = *members.front();
    if (!head.help.empty()) {
      out << "# HELP " << name << " " << head.help << "\n";
    }
    const char* type = head.kind == Kind::kCounter   ? "counter"
                       : head.kind == Kind::kGauge   ? "gauge"
                                                     : "histogram";
    out << "# TYPE " << name << " " << type << "\n";
    for (const Series* s : members) {
      switch (s->kind) {
        case Kind::kCounter:
        case Kind::kGauge:
          out << with_labels(*s) << " "
              << (s->view ? s->view() : s->counter.value()) << "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *s->histogram;
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += h.bucket(i);
            out << s->name << "_bucket{"
                << (s->labels.empty() ? "" : s->labels + ",")
                << "le=\"" << h.bounds()[i] << "\"} " << cumulative << "\n";
          }
          cumulative += h.bucket(h.bounds().size());
          out << s->name << "_bucket{"
              << (s->labels.empty() ? "" : s->labels + ",") << "le=\"+Inf\"} "
              << cumulative << "\n";
          out << s->name << "_sum"
              << (s->labels.empty() ? "" : "{" + s->labels + "}") << " "
              << h.sum() << "\n";
          out << s->name << "_count"
              << (s->labels.empty() ? "" : "{" + s->labels + "}") << " "
              << h.count() << "\n";
          break;
        }
      }
    }
  }
}

}  // namespace wfc::obs
