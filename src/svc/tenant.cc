#include "src/svc/tenant.h"

#include <algorithm>

namespace cvm::svc {

bool ValidTenantId(const std::string& id) {
  if (id.empty() || id.size() > 32) {
    return false;
  }
  return std::all_of(id.begin(), id.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '-';
  });
}

std::string TenantMetricName(const std::string& tenant, const std::string& suffix) {
  return "tenant." + tenant + "." + suffix;
}

}  // namespace cvm::svc
