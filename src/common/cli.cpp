#include "common/cli.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <iostream>

#include "common/config.hpp"

namespace fifer {

namespace {

/// The flag as it appears in usage: `--flag N` (required value),
/// `--flag[=SCALE]` (optional value), or bare `--flag` (boolean).
std::string spelling(const CliFlag& f) {
  if (f.takes_value) {
    return f.flag + " " + (f.value_name.empty() ? "VALUE" : f.value_name);
  }
  if (!f.value_name.empty()) return f.flag + "[=" + f.value_name + "]";
  return f.flag;
}

}  // namespace

std::string usage_text(const std::vector<CliFlag>& flags) {
  // Align help at two past the widest spelling (floor keeps short tables
  // from looking cramped).
  std::size_t column = 20;
  for (const CliFlag& f : flags) {
    column = std::max(column, spelling(f).size() + 2);
  }

  std::string out;
  for (const CliFlag& f : flags) {
    std::string line = "  " + spelling(f);
    if (f.help.empty()) {
      out += line + "\n";
      continue;
    }
    line.append(2 + column - line.size(), ' ');
    std::size_t start = 0;
    bool first = true;
    do {
      const std::size_t nl = f.help.find('\n', start);
      const std::string part = f.help.substr(
          start, nl == std::string::npos ? std::string::npos : nl - start);
      if (first) {
        out += line + part + "\n";
        first = false;
      } else {
        out += std::string(2 + column, ' ') + part + "\n";
      }
      start = nl == std::string::npos ? std::string::npos : nl + 1;
    } while (start != std::string::npos);
  }
  return out;
}

std::vector<std::string> canonicalize_flags(int argc, const char* const* argv,
                                            const std::vector<CliFlag>& flags) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];

    const CliFlag* match = nullptr;
    std::string inline_value;
    bool has_inline = false;
    for (const CliFlag& f : flags) {
      if (arg == f.flag) {
        match = &f;
        break;
      }
      if (arg.size() > f.flag.size() + 1 && arg.compare(0, f.flag.size(), f.flag) == 0 &&
          arg[f.flag.size()] == '=') {
        match = &f;
        inline_value = arg.substr(f.flag.size() + 1);
        has_inline = true;
        break;
      }
    }

    if (match != nullptr) {
      if (has_inline) {
        out.push_back(match->key + "=" + inline_value);
      } else if (match->takes_value) {
        if (i + 1 >= argc) {
          throw CliError("flag " + match->flag + " expects a value");
        }
        out.push_back(match->key + "=" + std::string(argv[++i]));
      } else {
        out.push_back(match->key + "=" + match->implicit_value);
      }
      continue;
    }

    // `--flag=` with an empty value never matched above (size guard), and
    // any other dashed token is a typo; both are bad invocations.
    if (!arg.empty() && arg.front() == '-') {
      throw CliError("unknown flag: " + arg);
    }
    if (arg.find('=') == std::string::npos) {
      throw CliError("malformed argument (expected key=value): " + arg);
    }
    out.push_back(arg);
  }
  return out;
}

void exit_on_unknown_keys(const Config& cfg, const std::string& usage) {
  const std::vector<std::string> unused = cfg.unused_keys();
  if (unused.empty()) return;
  std::cerr << "error: unknown option(s):";
  for (const std::string& key : unused) std::cerr << ' ' << key;
  std::cerr << '\n' << usage << std::flush;
  std::exit(2);
}

}  // namespace fifer
