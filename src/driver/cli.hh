/**
 * @file
 * Minimal command-line parsing shared by the bench binaries and
 * examples: `--key=value` options plus boolean flags.
 */

#ifndef TSS_DRIVER_CLI_HH
#define TSS_DRIVER_CLI_HH

#include <map>
#include <string>

namespace tss
{

/** Parsed command line. */
class CliArgs
{
  public:
    CliArgs(int argc, char **argv);

    bool has(const std::string &flag) const;
    std::string get(const std::string &key,
                    const std::string &fallback) const;

    /**
     * Numeric values. The whole value must parse as the target type:
     * trailing characters and out-of-range values are fatal() errors
     * naming the flag.
     */
    double getDouble(const std::string &key, double fallback) const;
    long getLong(const std::string &key, long fallback) const;
    unsigned getUnsigned(const std::string &key, unsigned fallback) const;

    /**
     * Benchmark scale preset: --quick selects a CI-sized run,
     * --full the paper-sized run; --scale=X overrides both.
     */
    double scale(double quick, double full, double fallback) const;

  private:
    std::map<std::string, std::string> values;
};

} // namespace tss

#endif // TSS_DRIVER_CLI_HH
