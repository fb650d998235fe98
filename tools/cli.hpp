// The `dsml` command-line driver, as a library so it is directly testable.
//
// usage() (`dsml help`) lists every command and the flags each one reads.
// Every command honours the library's environment knobs (DSML_CACHE_DIR).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dsml::cli {

/// Runs the CLI. `args` excludes the program name. Output goes to `out`,
/// diagnostics to `err`; request input (`dsml serve`) is read from
/// std::cin. Returns a process exit code.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

/// As above with an explicit input stream, so tests can feed `dsml serve`
/// request lines without touching the process's stdin.
int run(const std::vector<std::string>& args, std::istream& in,
        std::ostream& out, std::ostream& err);

/// Usage text.
std::string usage();

}  // namespace dsml::cli
