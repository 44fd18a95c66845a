// Tiny command-line flag parser for the benchmark/example binaries.
//
// Syntax: --name=value or --name value; bare --flag sets a bool to true,
// and a bool flag followed by a literal true/false token consumes it
// (--csv false). Unknown flags, bare "--", and out-of-range numeric values
// are errors so that typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace tahoe {

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

  /// Parse argv. Throws ContractError on unknown flags or bad values.
  /// Returns positional (non-flag) arguments.
  std::vector<std::string> parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  /// An int flag that counts or sizes something. Throws ContractError
  /// naming the flag when the value is negative or above `max`, so it can
  /// never wrap around when narrowed or scaled.
  std::uint64_t get_uint(
      const std::string& name,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

  /// Render a usage string from the registered flags.
  std::string usage(const std::string& program) const;

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
};

}  // namespace tahoe
