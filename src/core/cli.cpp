#include "core/cli.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>

namespace fdet::core {

bool parse_int(std::string_view text, int& out) {
  const auto* end = text.data() + text.size();
  int value = 0;
  const auto result = std::from_chars(text.data(), end, value);
  if (result.ec != std::errc() || result.ptr != end) {
    return false;
  }
  out = value;
  return true;
}

bool parse_double(std::string_view text, double& out) {
  // from_chars, unlike strtod, skips no leading space and reads no hex.
  const auto* end = text.data() + text.size();
  double value = 0.0;
  const auto result = std::from_chars(text.data(), end, value);
  if (result.ec != std::errc() || result.ptr != end) {
    return false;
  }
  out = value;
  return true;
}

namespace {

bool parse_bool(std::string_view text, bool& out) {
  if (text == "1" || text == "true" || text == "yes" || text.empty()) {
    out = true;
    return true;
  }
  if (text == "0" || text == "false" || text == "no") {
    out = false;
    return true;
  }
  return false;
}

/// Levenshtein distance, for "did you mean" flag suggestions. Flag names
/// are short, so the quadratic table is negligible.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) {
    row[j] = j;
  }
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

}  // namespace

void Cli::add(std::string name, std::string help, std::string default_repr,
              std::string type_name, std::function<bool(std::string_view)> set) {
  flags_.push_back({std::move(name), std::move(help), std::move(default_repr),
                    std::move(type_name), std::move(set)});
}

void Cli::flag(std::string name, int& value, std::string help) {
  add(std::move(name), std::move(help), std::to_string(value), "int",
      [&value](std::string_view text) { return parse_int(text, value); });
}

void Cli::flag(std::string name, double& value, std::string help) {
  add(std::move(name), std::move(help), std::to_string(value), "double",
      [&value](std::string_view text) { return parse_double(text, value); });
}

void Cli::flag(std::string name, bool& value, std::string help) {
  add(std::move(name), std::move(help), value ? "true" : "false", "bool",
      [&value](std::string_view text) { return parse_bool(text, value); });
}

void Cli::flag(std::string name, std::string& value, std::string help) {
  add(std::move(name), std::move(help), value, "string",
      [&value](std::string_view text) {
        value = std::string(text);
        return true;
      });
}

bool Cli::fail(const std::string& message) {
  last_error_ = message;
  std::fputs(message.c_str(), stderr);
  return false;
}

bool Cli::parse(int argc, char** argv) {
  return parse_impl(argc, argv, nullptr);
}

bool Cli::parse_known(int argc, char** argv,
                      std::vector<std::string>& remaining) {
  remaining.clear();
  remaining.push_back(argc > 0 ? argv[0] : program_.c_str());
  return parse_impl(argc, argv, &remaining);
}

bool Cli::parse_impl(int argc, char** argv,
                     std::vector<std::string>* remaining) {
  last_error_.clear();
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--benchmark_", 0) == 0) {
      if (remaining != nullptr) {
        remaining->push_back(argv[i]);
      }
      continue;  // owned by google-benchmark
    }
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stderr);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      if (remaining != nullptr) {
        remaining->push_back(argv[i]);
        continue;
      }
      return fail(program_ + ": unexpected positional argument '" + argv[i] +
                  "' (flags are --name=value or --name value)\n" + usage());
    }
    arg.remove_prefix(2);
    std::string_view name = arg;
    std::string_view value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    Flag* match = nullptr;
    for (auto& flag : flags_) {
      if (flag.name == name) {
        match = &flag;
        break;
      }
    }
    if (match == nullptr) {
      if (remaining != nullptr) {
        // Unknown flags pass through verbatim; a detached value would be
        // ambiguous, so foreign flags should use --flag=value form.
        remaining->push_back(argv[i]);
        continue;
      }
      std::string message = program_ + ": unknown flag '--" +
                            std::string(name) + "'";
      const Flag* closest = nullptr;
      std::size_t best = 3;  // suggest only close misspellings
      for (const auto& flag : flags_) {
        const std::size_t distance = edit_distance(name, flag.name);
        if (distance < best) {
          best = distance;
          closest = &flag;
        }
      }
      if (closest != nullptr) {
        message += " (did you mean '--" + closest->name + "'?)";
      }
      return fail(message + "\n" + usage());
    }
    if (!has_value && i + 1 < argc && argv[i + 1][0] != '-') {
      value = argv[++i];
      has_value = true;
    }
    if (!has_value && match->type_name != "bool") {
      // Without this check the empty value would fall through to the
      // parser and report a confusing "bad value: ''".
      return fail(program_ + ": flag '--" + match->name + "' needs a " +
                  match->type_name + " value: use --" + match->name +
                  "=<" + match->type_name + "> or --" + match->name +
                  " <" + match->type_name + ">\n");
    }
    if (!match->set(value)) {
      return fail(program_ + ": bad value for '--" + match->name + "': '" +
                  std::string(value) + "' (expected " + match->type_name +
                  ", default " + match->default_repr + ")\n");
    }
  }
  return true;
}

std::string Cli::usage() const {
  std::ostringstream out;
  out << "usage: " << program_ << " [flags]\n";
  for (const auto& flag : flags_) {
    out << "  --" << flag.name << " (default " << flag.default_repr << ")  "
        << flag.help << "\n";
  }
  return out.str();
}

}  // namespace fdet::core
