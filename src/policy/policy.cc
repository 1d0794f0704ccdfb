// The scheme registry's single name<->id table (registry.h).
//
// Everything that used to switch on PolicyKind or hard-code the four scheme
// names - PolicyName, --policy/--policies flag parsing, trace headers, JSON
// keys, RIPE dispatch - reads the descriptor table built here from
// scheme_list.h. There is exactly one list of schemes in the repo.

#include "src/policy/registry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/policy/scheme_list.h"

namespace sgxb {

const std::vector<const SchemeDescriptor*>& AllSchemes() {
  static const std::vector<const SchemeDescriptor*>* all = [] {
    auto* v = new std::vector<const SchemeDescriptor*>();
    SchemePolicies::ForEach([&]<typename P>() {
      const SchemeDescriptor& d = P::Descriptor();
      CHECK(d.kind == P::kKind);
      CHECK(d.id[0] != '\0');
      v->push_back(&d);
      return false;  // visit every scheme
    });
    CHECK_EQ(v->size(), static_cast<size_t>(kPolicyKindCount));
    return v;
  }();
  return *all;
}

const std::vector<const SchemeDescriptor*>& PaperSchemes() {
  static const std::vector<const SchemeDescriptor*>* paper = [] {
    auto* v = new std::vector<const SchemeDescriptor*>();
    for (const SchemeDescriptor* d : AllSchemes()) {
      if (d->in_paper_suite) {
        v->push_back(d);
      }
    }
    return v;
  }();
  return *paper;
}

const SchemeDescriptor& SchemeOf(PolicyKind kind) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    if (d->kind == kind) {
      return *d;
    }
  }
  std::fprintf(stderr, "unregistered PolicyKind %u\n", static_cast<unsigned>(kind));
  std::abort();
}

const char* PolicyName(PolicyKind kind) { return SchemeOf(kind).name; }

const SchemeDescriptor* FindScheme(const std::string& id_or_alias) {
  for (const SchemeDescriptor* d : AllSchemes()) {
    if (id_or_alias == d->id) {
      return d;
    }
    for (const char* alias : d->aliases) {
      if (id_or_alias == alias) {
        return d;
      }
    }
  }
  return nullptr;
}

std::vector<std::string> PolicyChoices() {
  std::vector<std::string> ids;
  for (const SchemeDescriptor* d : AllSchemes()) {
    ids.emplace_back(d->id);
  }
  return ids;
}

namespace {

std::string JoinChoices() {
  std::string out;
  for (const SchemeDescriptor* d : AllSchemes()) {
    if (!out.empty()) {
      out += "|";
    }
    out += d->id;
  }
  return out;
}

}  // namespace

PolicyKind ParsePolicyKind(const std::string& s) {
  const SchemeDescriptor* d = FindScheme(s);
  if (d == nullptr) {
    std::fprintf(stderr, "invalid policy '%s' (valid: %s)\n", s.c_str(),
                 JoinChoices().c_str());
    std::exit(2);
  }
  return d->kind;
}

std::vector<PolicyKind> ParsePolicyList(const std::string& csv, std::string* error) {
  std::vector<PolicyKind> kinds;
  if (csv == "paper" || csv.empty()) {
    for (const SchemeDescriptor* d : PaperSchemes()) {
      kinds.push_back(d->kind);
    }
    return kinds;
  }
  if (csv == "all") {
    for (const SchemeDescriptor* d : AllSchemes()) {
      kinds.push_back(d->kind);
    }
    return kinds;
  }
  std::vector<std::string> ids;
  if (!SplitCsv(csv, &ids)) {
    if (error != nullptr) {
      *error = "invalid policy list '" + csv + "': empty item (valid: " + JoinChoices() +
               ", or the shorthands 'paper'/'all')";
    }
    return {};
  }
  for (const std::string& id : ids) {
    const SchemeDescriptor* d = FindScheme(id);
    if (d == nullptr) {
      if (error != nullptr) {
        *error = "invalid policy '" + id + "' (valid: " + JoinChoices() +
                 ", or the shorthands 'paper'/'all')";
      }
      return {};
    }
    kinds.push_back(d->kind);
  }
  return kinds;
}

}  // namespace sgxb
