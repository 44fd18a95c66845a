// Tiny command-line flag parser for the benchmark/example binaries.
//
// Syntax: --name=value or --name value; bare --flag sets a bool to true,
// and a bool flag followed by a literal true/false token consumes it
// (--csv false). Unknown flags, bare "--", and out-of-range numeric values
// are errors so that typos in sweep scripts fail loudly. Every binary's
// main is a function-try-block that hands a FlagError to
// flag_error_exit(): a bad command line exits 2 with a message, and
// --help prints the usage and exits 0.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace tahoe {

/// A command line the flags reject: an unknown flag, or a value of the
/// wrong type or out of range. It is a ContractError, so callers that
/// catch those still do, but flag_error_exit() handles only this type, so
/// a broken invariant still aborts. `--help` is one too, marked help().
class FlagError : public ContractError {
 public:
  /// `usage` is the rejecting flag set's usage text ("" when unknown).
  FlagError(const std::string& what, std::string usage, bool help = false)
      : ContractError(what), usage_(std::move(usage)), help_(help) {}

  const std::string& usage() const noexcept { return usage_; }
  /// The command line asked for the usage (--help) instead of a run.
  bool help() const noexcept { return help_; }

 private:
  std::string usage_;
  bool help_;
};

/// The guard around every binary's main. For help() it prints the usage to
/// stdout and returns 0; otherwise it prints "<binary>: <error>" and the
/// usage to stderr and returns 2. `argv0` names the binary.
int flag_error_exit(const char* argv0, const FlagError& error);

class Flags {
 public:
  /// Register flags with defaults before parsing.
  void define_int(const std::string& name, std::int64_t def,
                  const std::string& help);
  void define_double(const std::string& name, double def,
                     const std::string& help);
  void define_bool(const std::string& name, bool def, const std::string& help);
  void define_string(const std::string& name, const std::string& def,
                     const std::string& help);

  /// Parse argv. Throws FlagError on unknown flags or bad values, and on
  /// `--help` (unless a flag of that name is defined). Returns positional
  /// (non-flag) arguments.
  std::vector<std::string> parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  /// An int flag that counts or sizes something. Throws FlagError naming
  /// the flag when the value is negative or above `max`, so it can never
  /// wrap around when narrowed or scaled.
  std::uint64_t get_uint(
      const std::string& name,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

  /// Render a usage string from the registered flags.
  std::string usage(const std::string& program) const;

  /// Throw a FlagError carrying this set's usage unless `ok`: how code that
  /// checks a parsed value rejects the command line.
  void require_flag(bool ok, const std::string& what) const;

 private:
  enum class Kind { Int, Double, Bool, String };
  struct Entry {
    Kind kind;
    std::string value;  // canonical textual value
    std::string def;
    std::string help;
  };

  const Entry& lookup(const std::string& name, Kind kind) const;

  std::map<std::string, Entry> entries_;
  std::string program_ = "program";  ///< argv[0] of the last parse
};

}  // namespace tahoe
