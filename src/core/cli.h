// Tiny declarative flag parser for example/bench binaries.
//
//   fdet::core::Cli cli("bench_table2");
//   int frames = 8;
//   cli.flag("frames", frames, "frames per trailer");
//   cli.parse(argc, argv);   // accepts --frames=16 or --frames 16
//
// Unknown flags are reported and parse() returns false (callers typically
// print usage and exit). Flags consumed by google-benchmark (--benchmark_*)
// are passed through untouched.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace fdet::core {

/// Whole-token number parsers: true and `out` set only when every
/// character of `text` belongs to the number ("4junk", "1e3" as an int,
/// " 0.05", "+1", hex and "" are rejected). Flag values and the serving
/// layer's plan and mix specs parse through these.
bool parse_int(std::string_view text, int& out);
bool parse_double(std::string_view text, double& out);

class Cli {
 public:
  explicit Cli(std::string program) : program_(std::move(program)) {}

  void flag(std::string name, int& value, std::string help);
  void flag(std::string name, double& value, std::string help);
  void flag(std::string name, bool& value, std::string help);
  void flag(std::string name, std::string& value, std::string help);

  /// Parses argv; prints a diagnostic and returns false on unknown flags or
  /// malformed values. `--help` prints usage and also returns false.
  /// Diagnostics name the offending token, the expected value type, and —
  /// for unknown flags — the closest registered flag name.
  bool parse(int argc, char** argv);

  /// Like parse(), but unknown flags and positionals are collected into
  /// `remaining` (argv order, argv[0] first) instead of being an error.
  /// For binaries that hand leftover arguments to another parser, e.g.
  /// google-benchmark. `--help` still prints usage and returns false.
  bool parse_known(int argc, char** argv, std::vector<std::string>& remaining);

  std::string usage() const;

  /// The diagnostic of the most recent parse()/parse_known() failure
  /// (empty after a success or `--help`). The same text goes to stderr;
  /// this accessor exists so callers and tests can assert on it.
  const std::string& last_error() const { return last_error_; }

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::string default_repr;
    std::string type_name;  ///< "int" | "double" | "bool" | "string"
    std::function<bool(std::string_view)> set;
  };

  void add(std::string name, std::string help, std::string default_repr,
           std::string type_name, std::function<bool(std::string_view)> set);

  /// Records the diagnostic in last_error_ and prints it to stderr.
  bool fail(const std::string& message);

  /// Shared loop: `remaining == nullptr` makes unknown arguments an error
  /// (parse), otherwise they are collected (parse_known).
  bool parse_impl(int argc, char** argv, std::vector<std::string>* remaining);

  std::string program_;
  std::vector<Flag> flags_;
  std::string last_error_;
};

}  // namespace fdet::core
