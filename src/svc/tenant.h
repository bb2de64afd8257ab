// Tenancy primitives for the always-on DSM service (docs/SERVICE.md).
//
// A *tenant* is a named client of the service. Every workload runs on its
// own fresh fabric, so a tenant's reports name only its own allocations and
// match what a dedicated process would print; tenants are told apart only
// in metric names and trace tracks.
#ifndef CVM_SVC_TENANT_H_
#define CVM_SVC_TENANT_H_

#include <string>

namespace cvm::svc {

// Valid tenant ids keep metric names, trace track labels, and CSV columns
// printable: 1-32 chars from [A-Za-z0-9_-].
bool ValidTenantId(const std::string& id);

// "tenant.<id>.<suffix>" — the per-tenant metrics namespace.
std::string TenantMetricName(const std::string& tenant, const std::string& suffix);

}  // namespace cvm::svc

#endif  // CVM_SVC_TENANT_H_
