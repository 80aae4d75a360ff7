#include "support/args.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/error.hpp"

namespace bstc {

Args::Args(int argc, const char* const* argv) {
  BSTC_REQUIRE(argc >= 1, "argv must contain the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--flag" followed by a value, or a bare boolean flag when the next
    // token is another option / absent.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "true";
    }
  }
}

void Args::query(const std::string& key) const {
  if (sealed_ && queried_.count(key) == 0) {
    throw Error("option --" + key + " is read but was not declared");
  }
  queried_[key] = true;
}

void Args::seal() const { sealed_ = true; }

bool Args::has(const std::string& key) const {
  query(key);
  return options_.count(key) > 0;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  query(key);
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  query(key);
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  BSTC_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
               "option --" + key + " expects an integer, got '" +
                   it->second + "'");
  return v;
}

double Args::get_double(const std::string& key, double fallback) const {
  query(key);
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  BSTC_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
               "option --" + key + " expects a number, got '" + it->second +
                   "'");
  return v;
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  query(key);
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  if (it->second == "true" || it->second == "1" || it->second == "yes") {
    return true;
  }
  if (it->second == "false" || it->second == "0" || it->second == "no") {
    return false;
  }
  throw Error("option --" + key + " expects a boolean, got '" + it->second +
              "'");
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : options_) {
    (void)value;
    if (!queried_.count(key)) out.push_back(key);
  }
  return out;
}

std::vector<std::string> Args::known() const {
  std::vector<std::string> out;
  out.reserve(queried_.size());
  for (const auto& [key, value] : queried_) {
    (void)value;
    out.push_back(key);
  }
  return out;
}

namespace {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Classic two-row Levenshtein; flag names are short so this is cheap.
  std::vector<std::size_t> prev(b.size() + 1), curr(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, subst});
    }
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

}  // namespace

std::string Args::nearest_flag(const std::string& key,
                               const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_distance = 0;
  for (const std::string& candidate : candidates) {
    const std::size_t d = edit_distance(key, candidate);
    if (best.empty() || d < best_distance) {
      best = candidate;
      best_distance = d;
    }
  }
  // Only suggest plausible typos: within 3 edits or half the key length.
  const std::size_t limit = std::max<std::size_t>(3, key.size() / 2);
  return best_distance <= limit ? best : std::string();
}

void Args::reject_unknown() const {
  const std::vector<std::string> bad = unused();
  if (bad.empty()) return;
  const std::vector<std::string> candidates = known();
  std::string message;
  for (const std::string& key : bad) {
    if (!message.empty()) message += "; ";
    message += "unknown option --" + key;
    const std::string suggestion = nearest_flag(key, candidates);
    if (!suggestion.empty()) {
      message += " (did you mean --" + suggestion + "?)";
    }
  }
  throw Error(message);
}

}  // namespace bstc
