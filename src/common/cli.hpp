#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace fifer {

class Config;

/// A user error on the command line: an unrecognized flag, a flag missing
/// its required value, or a bare word that is neither a flag nor key=value.
/// CLIs catch this at the top level, print their usage string, and exit with
/// status 2 — the conventional "bad invocation" code, distinct from the
/// status-1 runtime failures.
class CliError : public std::runtime_error {
 public:
  explicit CliError(const std::string& what) : std::runtime_error(what) {}
};

/// One recognized long flag and the `key=value` token it canonicalizes to.
/// The same table renders the flag section of `--help` via `usage_text()`,
/// so a flag can never be accepted but missing from usage (or vice versa).
struct CliFlag {
  std::string flag;         ///< The spelling, e.g. "--jobs".
  std::string key;          ///< Config key it maps to, e.g. "jobs".
  bool takes_value = true;  ///< Accepts `--flag N` in addition to `--flag=N`.
  /// Value substituted when a value-optional flag (takes_value = false)
  /// appears bare, e.g. `--live` -> `live=100`. An explicit `--flag=V`
  /// always wins.
  std::string implicit_value;
  /// Usage metadata. `value_name` is the placeholder shown in usage ("N",
  /// "PREFIX", "SCALE"); empty on a value-optional flag means the flag is
  /// pure boolean and renders bare. `help` is the description; embedded
  /// newlines continue on aligned lines.
  std::string value_name;
  std::string help;
};

/// Renders the flag table as the aligned flag section of a usage message:
///
///   --jobs N            sweep worker threads
///   --live[=SCALE]      run on the live runtime...
///
/// one line per flag (plus continuation lines for multi-line help), in
/// table order, each ending in '\n'. CLIs compose their usage string from a
/// hand-written synopsis plus this, so the flag listing is generated from
/// the exact table `canonicalize_flags` matches against.
std::string usage_text(const std::vector<CliFlag>& flags);

/// Rewrites argv (excluding argv[0]) into Config-ready `key=value` tokens.
/// Known `--flag` spellings are canonicalized through `flags`; plain
/// `key=value` tokens pass through untouched. Everything else fails fast
/// with CliError: an unrecognized `-`/`--` token, a flag with a required
/// value missing, or a bare word with no `=`. Typos die here with usage and
/// exit code 2 instead of surfacing as a half-configured run.
std::vector<std::string> canonicalize_flags(int argc, const char* const* argv,
                                            const std::vector<CliFlag>& flags);

/// Typo rejection for a `main`: when some `key=value` argument of `cfg` was
/// never read, prints "error: unknown option(s): ..." (followed by `usage`,
/// if given) to stderr and exits with status 2. Call it once every knob has
/// been read and before the work starts, so a typo'd parameter fails fast
/// instead of silently running the default experiment.
void exit_on_unknown_keys(const Config& cfg, const std::string& usage = "");

}  // namespace fifer
