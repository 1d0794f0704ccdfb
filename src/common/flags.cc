#include "src/common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace sgxb {

namespace {

std::string DefaultToString(FlagParser* unused, const void* target, int kind_index) {
  (void)unused;
  std::ostringstream os;
  switch (kind_index) {
    case 0:
      os << *static_cast<const int64_t*>(target);
      break;
    case 1:
      os << *static_cast<const uint64_t*>(target);
      break;
    case 2:
      os << *static_cast<const double*>(target);
      break;
    case 3:
      os << (*static_cast<const bool*>(target) ? "true" : "false");
      break;
    case 4:
      os << *static_cast<const std::string*>(target);
      break;
    default:
      break;
  }
  return os.str();
}

}  // namespace

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

bool SplitCsv(const std::string& csv, std::vector<std::string>* out) {
  std::vector<std::string> items;
  size_t pos = 0;
  while (true) {
    const size_t comma = csv.find(',', pos);
    std::string item = csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (item.empty()) {
      return false;
    }
    items.push_back(std::move(item));
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  *out = std::move(items);
  return true;
}

bool ParseUintList(const std::string& csv, uint64_t min, std::vector<uint64_t>* out) {
  std::vector<std::string> items;
  if (!SplitCsv(csv, &items)) {
    return false;
  }
  std::vector<uint64_t> values(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (!ParseUint(items[i], &values[i]) || values[i] < min) {
      return false;
    }
  }
  *out = std::move(values);
  return true;
}

void FlagParser::AddInt(const std::string& name, int64_t* target, const std::string& help) {
  flags_.push_back({name, Kind::kInt, target, help, DefaultToString(this, target, 0)});
}

void FlagParser::AddUint(const std::string& name, uint64_t* target, const std::string& help,
                         uint64_t min) {
  flags_.push_back(
      {name, Kind::kUint, target, help, DefaultToString(this, target, 1), nullptr, {}, min});
}

void FlagParser::AddDouble(const std::string& name, double* target, const std::string& help) {
  flags_.push_back({name, Kind::kDouble, target, help, DefaultToString(this, target, 2)});
}

void FlagParser::AddBool(const std::string& name, bool* target, const std::string& help) {
  flags_.push_back({name, Kind::kBool, target, help, DefaultToString(this, target, 3)});
}

void FlagParser::AddString(const std::string& name, std::string* target, const std::string& help) {
  flags_.push_back({name, Kind::kString, target, help, DefaultToString(this, target, 4)});
}

void FlagParser::AddChoice(const std::string& name, std::string* target,
                           std::vector<std::string> choices, const std::string& help) {
  flags_.push_back({name, Kind::kChoice, target, help, DefaultToString(this, target, 4), nullptr,
                    std::move(choices)});
}

void FlagParser::AddCallback(const std::string& name,
                             std::function<bool(const std::string&)> parse,
                             const std::string& help, const std::string& default_display,
                             std::vector<std::string> choices) {
  flags_.push_back({name, Kind::kCallback, nullptr, help, default_display, std::move(parse),
                    std::move(choices)});
}

const FlagParser::Flag* FlagParser::Find(const std::string& name) const {
  for (const auto& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

bool FlagParser::SetValue(const Flag& flag, const std::string& value) {
  char* end = nullptr;
  switch (flag.kind) {
    case Kind::kInt: {
      const long long v = std::strtoll(value.c_str(), &end, 0);
      if (end == nullptr || *end != '\0') {
        return false;
      }
      *static_cast<int64_t*>(flag.target) = v;
      return true;
    }
    case Kind::kUint: {
      uint64_t v = 0;
      if (!ParseUint(value, &v) || v < flag.min) {
        return false;
      }
      *static_cast<uint64_t*>(flag.target) = v;
      return true;
    }
    case Kind::kDouble: {
      const double v = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return false;
      }
      *static_cast<double*>(flag.target) = v;
      return true;
    }
    case Kind::kBool: {
      if (value == "true" || value == "1" || value.empty()) {
        *static_cast<bool*>(flag.target) = true;
        return true;
      }
      if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.target) = false;
        return true;
      }
      return false;
    }
    case Kind::kString: {
      *static_cast<std::string*>(flag.target) = value;
      return true;
    }
    case Kind::kChoice: {
      for (const std::string& choice : flag.choices) {
        if (value == choice) {
          *static_cast<std::string*>(flag.target) = value;
          return true;
        }
      }
      return false;
    }
    case Kind::kCallback:
      return flag.parse(value);
  }
  return false;
}

std::vector<std::string> FlagParser::Parse(int argc, char** argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage(argv[0]).c_str(), stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const Flag* flag = Find(name);
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(), Usage(argv[0]).c_str());
      std::exit(2);
    }
    if (!has_value && flag->kind != Kind::kBool) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s expects a value\n", name.c_str());
        std::exit(2);
      }
      value = argv[++i];
      has_value = true;
    }
    if (!SetValue(*flag, value)) {
      if (!flag->choices.empty()) {
        std::string valid;
        for (const std::string& choice : flag->choices) {
          if (!valid.empty()) {
            valid += "|";
          }
          valid += choice;
        }
        std::fprintf(stderr, "invalid value '%s' for flag --%s (valid: %s)\n", value.c_str(),
                     name.c_str(), valid.c_str());
      } else {
        std::fprintf(stderr, "invalid value '%s' for flag --%s\n", value.c_str(), name.c_str());
      }
      std::exit(2);
    }
  }
  return positional;
}

std::string FlagParser::Usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& flag : flags_) {
    os << "  --" << flag.name << "  " << flag.help;
    if (!flag.choices.empty()) {
      os << " (one of: ";
      for (size_t i = 0; i < flag.choices.size(); ++i) {
        os << (i == 0 ? "" : "|") << flag.choices[i];
      }
      os << ")";
    }
    os << " (default: " << flag.default_value << ")\n";
  }
  return os.str();
}

}  // namespace sgxb
