#include "common/flags.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string_view>

#include "common/assert.hpp"

namespace tahoe {

int flag_error_exit(const char* argv0, const FlagError& error) {
  if (error.help()) {
    std::cout << error.usage();
    return 0;
  }
  const std::string_view path = argv0 != nullptr ? argv0 : "";
  const std::string_view binary = path.substr(path.rfind('/') + 1);
  std::cerr << binary << ": " << error.what() << '\n' << error.usage();
  return 2;
}

namespace {

const char* kind_name(int k) {
  switch (k) {
    case 0: return "int";
    case 1: return "double";
    case 2: return "bool";
    case 3: return "string";
  }
  return "?";
}

}  // namespace

void Flags::define_int(const std::string& name, std::int64_t def,
                       const std::string& help) {
  entries_[name] = Entry{Kind::Int, std::to_string(def), std::to_string(def), help};
}

void Flags::define_double(const std::string& name, double def,
                          const std::string& help) {
  std::ostringstream os;
  os << def;
  entries_[name] = Entry{Kind::Double, os.str(), os.str(), help};
}

void Flags::define_bool(const std::string& name, bool def,
                        const std::string& help) {
  const std::string v = def ? "true" : "false";
  entries_[name] = Entry{Kind::Bool, v, v, help};
}

void Flags::define_string(const std::string& name, const std::string& def,
                          const std::string& help) {
  entries_[name] = Entry{Kind::String, def, def, help};
}

void Flags::require_flag(bool ok, const std::string& what) const {
  if (!ok) throw FlagError(what, usage(program_));
}

std::vector<std::string> Flags::parse(int argc, const char* const* argv) {
  if (argc > 0 && argv[0] != nullptr) program_ = argv[0];
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    require_flag(!name.empty(),
                 "bare '--' is not a flag; expected --name or --name=value");
    auto it = entries_.find(name);
    if (it == entries_.end() && name == "help") {
      throw FlagError("--help", usage(program_), /*help=*/true);
    }
    require_flag(it != entries_.end(), "unknown flag --" + name);
    Entry& e = it->second;
    if (!has_value) {
      if (e.kind == Kind::Bool) {
        // Bare --flag means true, but a following true/false token belongs
        // to the flag (the two-token form) rather than the positionals.
        const std::string_view next = i + 1 < argc ? argv[i + 1] : "";
        if (next == "true" || next == "false") {
          value = argv[++i];
        } else {
          value = "true";
        }
      } else {
        require_flag(i + 1 < argc, "flag --" + name + " needs a value");
        value = argv[++i];
      }
    }
    // Validate by round-tripping through the typed getters' parsers.
    if (e.kind == Kind::Int) {
      char* end = nullptr;
      errno = 0;
      (void)std::strtoll(value.c_str(), &end, 10);
      require_flag(end != nullptr && *end == '\0' && !value.empty() &&
                       errno != ERANGE,
                   "flag --" + name + " expects an integer, got '" + value + "'");
    } else if (e.kind == Kind::Double) {
      char* end = nullptr;
      errno = 0;
      const double parsed = std::strtod(value.c_str(), &end);
      // ERANGE covers overflow (±HUGE_VAL) and underflow; only overflow is
      // a lie worth rejecting — underflow to (sub)normal zero is benign.
      require_flag(end != nullptr && *end == '\0' && !value.empty() &&
                       !(errno == ERANGE && std::isinf(parsed)),
                   "flag --" + name + " expects a number, got '" + value + "'");
    } else if (e.kind == Kind::Bool) {
      require_flag(value == "true" || value == "false",
                   "flag --" + name + " expects true/false");
    }
    e.value = value;
  }
  return positional;
}

const Flags::Entry& Flags::lookup(const std::string& name, Kind kind) const {
  auto it = entries_.find(name);
  TAHOE_REQUIRE(it != entries_.end(), "flag --" + name + " was never defined");
  TAHOE_REQUIRE(it->second.kind == kind,
                "flag --" + name + " is not of type " +
                    kind_name(static_cast<int>(kind)));
  return it->second;
}

std::int64_t Flags::get_int(const std::string& name) const {
  return std::strtoll(lookup(name, Kind::Int).value.c_str(), nullptr, 10);
}

std::uint64_t Flags::get_uint(const std::string& name,
                              std::uint64_t max) const {
  const std::int64_t value = get_int(name);
  require_flag(value >= 0 && static_cast<std::uint64_t>(value) <= max,
               "flag --" + name + " expects an integer in [0, " +
                   std::to_string(max) + "], got " + std::to_string(value));
  return static_cast<std::uint64_t>(value);
}

double Flags::get_double(const std::string& name) const {
  return std::strtod(lookup(name, Kind::Double).value.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name) const {
  return lookup(name, Kind::Bool).value == "true";
}

const std::string& Flags::get_string(const std::string& name) const {
  return lookup(name, Kind::String).value;
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, e] : entries_) {
    os << "  --" << name << " (" << kind_name(static_cast<int>(e.kind))
       << ", default " << e.def << "): " << e.help << '\n';
  }
  return os.str();
}

}  // namespace tahoe
