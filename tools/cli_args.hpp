// Command-line value parsing shared by relkit_cli and relkit_serve.
//
// Every parser reads `--flag V` or `--flag=V`. A missing or malformed
// value prints "invalid argument: ..." and the binary's usage text, then
// exits 4, the invalid-argument exit code of both binaries.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace relkit::cli {

using UsageFn = void (*)();

/// True when `arg` is `flag` or `flag=...`.
inline bool matches(const char* arg, const char* flag) {
  const std::size_t len = std::strlen(flag);
  return std::strncmp(arg, flag, len) == 0 &&
         (arg[len] == '\0' || arg[len] == '=');
}

[[noreturn]] inline void reject(UsageFn usage) {
  usage();
  std::exit(4);
}

/// The value of `--flag V` / `--flag=V` at argv[i]; advances i past a
/// separate-word value.
inline const char* flag_value(int argc, char** argv, int& i,
                              const char* flag, UsageFn usage) {
  const std::size_t flag_len = std::strlen(flag);
  if (argv[i][flag_len] == '=') return argv[i] + flag_len + 1;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "invalid argument: %s needs a value\n", flag);
    reject(usage);
  }
  return argv[++i];
}

/// Parses the flag's value as a long in [lo, hi].
inline long parse_count(int argc, char** argv, int& i, const char* flag,
                        long lo, long hi, UsageFn usage) {
  const char* value = flag_value(argc, argv, i, flag, usage);
  char* rest = nullptr;
  const long parsed = std::strtol(value, &rest, 10);
  if (rest == value || *rest != '\0' || parsed < lo || parsed > hi) {
    std::fprintf(stderr,
                 "invalid argument: %s needs an integer in [%ld, %ld], got "
                 "'%s'\n",
                 flag, lo, hi, value);
    reject(usage);
  }
  return parsed;
}

/// Parses the flag's value as a double in [lo, hi].
inline double parse_fraction(int argc, char** argv, int& i, const char* flag,
                             double lo, double hi, UsageFn usage) {
  const char* value = flag_value(argc, argv, i, flag, usage);
  char* rest = nullptr;
  const double parsed = std::strtod(value, &rest);
  if (rest == value || *rest != '\0' || !(parsed >= lo) || !(parsed <= hi)) {
    std::fprintf(stderr,
                 "invalid argument: %s needs a number in [%g, %g], got "
                 "'%s'\n",
                 flag, lo, hi, value);
    reject(usage);
  }
  return parsed;
}

/// Appends the values of `--time t1 t2 ...` at argv[i] to `times`: every
/// following word up to the next `--` flag, so a negative time is read
/// (and rejected) rather than mistaken for a flag. Each must be a finite
/// number >= 0.
inline void parse_times(int argc, char** argv, int& i,
                        std::vector<double>& times, UsageFn usage) {
  while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
    const char* value = argv[++i];
    char* rest = nullptr;
    const double t = std::strtod(value, &rest);
    if (rest == value || *rest != '\0' || !std::isfinite(t) || t < 0.0) {
      std::fprintf(stderr,
                   "invalid argument: --time needs finite numbers >= 0, got "
                   "'%s'\n",
                   value);
      reject(usage);
    }
    times.push_back(t);
  }
}

}  // namespace relkit::cli
