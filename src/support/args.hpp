#pragma once

/// \file args.hpp
/// Minimal command-line argument parsing for the tools and benches:
/// `--key value` / `--key=value` options plus positional arguments, with
/// typed accessors and an auto-generated usage string.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bstc {

/// Parsed command line.
class Args {
 public:
  /// Parse argv. Throws bstc::Error on a malformed option (`--key` with
  /// no value at the end).
  Args(int argc, const char* const* argv);

  const std::string& program() const { return program_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& key) const;

  /// Typed accessors with defaults; throw bstc::Error if the value does
  /// not parse.
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Keys that were provided but never queried — typo detection.
  std::vector<std::string> unused() const;

  /// All keys queried so far — the de-facto known-flag set.
  std::vector<std::string> known() const;

  /// Throw bstc::Error if any provided option was never queried,
  /// naming each unknown flag and suggesting the nearest known one
  /// ("unknown option --densty (did you mean --density?)"). Call after
  /// all flags have been read (or after querying a declared flag table
  /// with has()); a typo then fails loudly instead of silently falling
  /// back to the default.
  void reject_unknown() const;

  /// Freeze the known-flag set: from now on, querying a key that was not
  /// queried before throws bstc::Error. A tool that declares its flags
  /// up front (has() on each) and then seals finds any read of a flag
  /// its declaration misses.
  void seal() const;

  /// Edit-distance-nearest candidate to `key`, or "" when nothing is
  /// plausibly close. Exposed for tests.
  static std::string nearest_flag(const std::string& key,
                                  const std::vector<std::string>& candidates);

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  /// Mark `key` queried; throws when sealed and `key` is new.
  void query(const std::string& key) const;

  mutable std::map<std::string, bool> queried_;
  mutable bool sealed_ = false;
  std::vector<std::string> positional_;
};

}  // namespace bstc
