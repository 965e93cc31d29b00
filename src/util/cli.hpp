#pragma once

// Tiny command-line flag parser for the example binaries and benches.
//
//   int main(int argc, char** argv) {
//     return util::guarded_main([&] {
//       util::Cli cli(argc, argv);
//       const int steps = cli.get_int("steps", 100);
//       const std::string mode = cli.get_string("engine", "optimus");
//       cli.finish();  // rejects unknown flags; answers --help
//       ...
//       return 0;
//     });
//   }
//
// Flags are written --name=value or --name value. Boolean flags accept bare
// --name as true. A value that does not parse as the flag's type is a
// CheckError naming the flag.

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace optimus::util {

/// Thrown by Cli::finish() when --help was given; what() is the usage text.
class CliHelp : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Cli {
 public:
  Cli(int argc, char** argv);

  int get_int(const std::string& name, int default_value);
  long long get_i64(const std::string& name, long long default_value);
  double get_double(const std::string& name, double default_value);
  std::string get_string(const std::string& name, const std::string& default_value);
  bool get_bool(const std::string& name, bool default_value);

  /// True if the flag appeared on the command line at all.
  bool has(const std::string& name) const;

  /// Throws CliHelp listing every flag read so far (with its default) if
  /// --help was given; otherwise throws if any supplied flag was never
  /// consumed (catches typos).
  void finish() const;

 private:
  std::optional<std::string> raw(const std::string& name, std::string default_text);

  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
  std::vector<std::pair<std::string, std::string>> seen_;  // (flag, default), first-read order
  std::string program_;
};

/// Runs a program's body and returns its exit code. --help (CliHelp) prints
/// the usage and returns 0; any other exception prints "error: <what>" to
/// stderr and returns 2, instead of ending in std::terminate.
int guarded_main(const std::function<int()>& body);

}  // namespace optimus::util
