// Catalog of the bundled evaluation applications, keyed by the lower-case
// names the command-line tools use (fft, sor, tsp, water, lu). One place
// turns an (app, size, seed) request into a fresh ParallelApp instance so
// cvm_run, the DSM service (src/svc/), and the benches agree on what
// "--app=fft --size=64" means.
#ifndef CVM_APPS_APP_CATALOG_H_
#define CVM_APPS_APP_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"

namespace cvm {

struct CatalogRequest {
  std::string app;            // fft | sor | tsp | water | lu.
  int64_t size = -1;          // App scale knob; <= 0 keeps the historical default.
  uint64_t seed = 0;          // Workload input seed; 0 keeps the app default.
  uint64_t page_size = 4096;  // Apps pad shared arrays to this.
  bool fix_water_bug = false; // Water only: repaired virial update.
};

// True iff `name` is a catalog app.
bool KnownCatalogApp(const std::string& name);

// The catalog names, in canonical order.
const std::vector<std::string>& CatalogAppNames();

// Builds a fresh instance for the request; nullptr for an unknown app name.
// seed == 0 keeps each app's historical default input, so requests without
// an explicit seed behave like older versions of the tools.
std::unique_ptr<ParallelApp> MakeCatalogApp(const CatalogRequest& request);

// Lock ids the requested app uses; 0 for an unknown app or one that
// synchronizes only with barriers. Water's count grows with its molecule
// count, so callers size DsmOptions::num_locks to at least this.
int CatalogLocksNeeded(const CatalogRequest& request);

}  // namespace cvm

#endif  // CVM_APPS_APP_CATALOG_H_
