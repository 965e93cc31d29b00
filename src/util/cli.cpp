#include "util/cli.hpp"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/check.hpp"

namespace optimus::util {

namespace {

[[noreturn]] void bad_value(const std::string& name, const char* type, const std::string& text) {
  throw CheckError("flag --" + name + " expects " + type + ", got '" + text + "'");
}

long long parse_integer(const std::string& name, const std::string& text, long long lo,
                        long long hi) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    bad_value(name, "an integer", text);
  }
  return v;
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  OPT_CHECK(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    OPT_CHECK(arg.rfind("--", 0) == 0, "expected --flag, got '" << arg << "'");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> Cli::raw(const std::string& name, std::string default_text) {
  if (consumed_.insert(name).second) seen_.emplace_back(name, std::move(default_text));
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

int Cli::get_int(const std::string& name, int default_value) {
  const auto v = raw(name, std::to_string(default_value));
  if (!v) return default_value;
  return static_cast<int>(parse_integer(name, *v, INT_MIN, INT_MAX));
}

long long Cli::get_i64(const std::string& name, long long default_value) {
  const auto v = raw(name, std::to_string(default_value));
  if (!v) return default_value;
  return parse_integer(name, *v, LLONG_MIN, LLONG_MAX);
}

double Cli::get_double(const std::string& name, double default_value) {
  std::ostringstream def;
  def << default_value;
  const auto v = raw(name, def.str());
  if (!v) return default_value;
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(v->c_str(), &end);
  if (v->empty() || *end != '\0' || errno == ERANGE) bad_value(name, "a number", *v);
  return d;
}

std::string Cli::get_string(const std::string& name, const std::string& default_value) {
  const auto v = raw(name, "'" + default_value + "'");
  return v ? *v : default_value;
}

bool Cli::get_bool(const std::string& name, bool default_value) {
  const auto v = raw(name, default_value ? "true" : "false");
  if (!v) return default_value;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  bad_value(name, "true or false", *v);
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

void Cli::finish() const {
  if (values_.count("help") > 0) {
    std::ostringstream usage;
    usage << "usage: " << program_ << " [--flag=value ...]\n";
    for (const auto& [name, default_text] : seen_) {
      usage << "  --" << name << " (default " << default_text << ")\n";
    }
    throw CliHelp(usage.str());
  }
  for (const auto& [name, value] : values_) {
    OPT_CHECK(consumed_.count(name) > 0,
              "unknown flag --" << name << "=" << value << " for " << program_);
  }
}

int guarded_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const CliHelp& help) {
    std::cout << help.what();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (...) {
    std::cerr << "error: non-standard exception\n";
    return 2;
  }
}

}  // namespace optimus::util
