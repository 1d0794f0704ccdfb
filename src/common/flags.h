// Tiny command-line flag parser for the benchmark and example binaries.
//
//   FlagParser parser;
//   int threads = 8;
//   parser.AddInt("threads", &threads, "worker thread count");
//   parser.Parse(argc, argv);   // accepts --threads=4 and --threads 4
//
// Unknown flags abort with usage text; positional arguments are collected.

#ifndef SGXBOUNDS_SRC_COMMON_FLAGS_H_
#define SGXBOUNDS_SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sgxb {

// Strict unsigned decimal: one or more digits and nothing else (no sign,
// whitespace or base prefix), no larger than UINT64_MAX. Returns false on
// anything else and then leaves *out unchanged.
bool ParseUint(const std::string& text, uint64_t* out);

// Strict comma-separated list: at least one item and no empty item (",,",
// or a leading or trailing comma). Returns false on anything else and then
// leaves *out unchanged. Every list-valued flag splits through this.
bool SplitCsv(const std::string& csv, std::vector<std::string>* out);

// A SplitCsv list of ParseUint values, each >= `min`. Replaces *out only on
// success.
bool ParseUintList(const std::string& csv, uint64_t min, std::vector<uint64_t>* out);

class FlagParser {
 public:
  void AddInt(const std::string& name, int64_t* target, const std::string& help);
  // A ParseUint value; values below `min` are rejected like malformed ones.
  void AddUint(const std::string& name, uint64_t* target, const std::string& help,
               uint64_t min = 0);
  void AddDouble(const std::string& name, double* target, const std::string& help);
  void AddBool(const std::string& name, bool* target, const std::string& help);
  void AddString(const std::string& name, std::string* target, const std::string& help);

  // Enum-valued string flag: the value must be one of `choices`; anything
  // else is a hard startup error listing the valid spellings.
  void AddChoice(const std::string& name, std::string* target,
                 std::vector<std::string> choices, const std::string& help);

  // Custom-parsed flag: `parse` receives the raw value and returns false to
  // reject it (same error path as a malformed int). `default_display` is
  // shown in --help. When `choices` is non-empty the rejection error lists
  // them (the parser itself still decides validity).
  void AddCallback(const std::string& name, std::function<bool(const std::string&)> parse,
                   const std::string& help, const std::string& default_display,
                   std::vector<std::string> choices = {});

  // Returns positional (non-flag) arguments. Exits on --help or parse errors.
  std::vector<std::string> Parse(int argc, char** argv);

  std::string Usage(const std::string& program) const;

 private:
  enum class Kind { kInt, kUint, kDouble, kBool, kString, kChoice, kCallback };
  struct Flag {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
    std::string default_value;
    std::function<bool(const std::string&)> parse{};
    std::vector<std::string> choices{};
    uint64_t min = 0;  // kUint only
  };

  const Flag* Find(const std::string& name) const;
  static bool SetValue(const Flag& flag, const std::string& value);

  std::vector<Flag> flags_;
};

}  // namespace sgxb

#endif  // SGXBOUNDS_SRC_COMMON_FLAGS_H_
