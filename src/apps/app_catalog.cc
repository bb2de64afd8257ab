#include "src/apps/app_catalog.h"

#include "src/apps/fft.h"
#include "src/apps/lu.h"
#include "src/apps/sor.h"
#include "src/apps/tsp.h"
#include "src/apps/water.h"

namespace cvm {

namespace {

int WaterMolecules(const CatalogRequest& request) {
  return request.size > 0 ? static_cast<int>(request.size) : 125;
}

}  // namespace

const std::vector<std::string>& CatalogAppNames() {
  static const std::vector<std::string> kNames = {"fft", "sor", "tsp", "water", "lu"};
  return kNames;
}

bool KnownCatalogApp(const std::string& name) {
  for (const std::string& known : CatalogAppNames()) {
    if (known == name) {
      return true;
    }
  }
  return false;
}

std::unique_ptr<ParallelApp> MakeCatalogApp(const CatalogRequest& request) {
  const int64_t size = request.size;
  if (request.app == "fft") {
    FftApp::Params params;
    params.rows = size > 0 ? static_cast<int>(size) : 64;
    params.cols = params.rows;
    return std::make_unique<FftApp>(params);
  }
  if (request.app == "sor") {
    SorApp::Params params;
    params.rows = size > 0 ? static_cast<int>(size) + 2 : 130;
    params.cols = size > 0 ? static_cast<int>(size) : 128;
    params.iters = 4;
    params.page_size = request.page_size;
    return std::make_unique<SorApp>(params);
  }
  if (request.app == "tsp") {
    TspApp::Params params;
    params.num_cities = size > 0 ? static_cast<int>(size) : 12;
    params.page_size = request.page_size;
    if (request.seed != 0) {
      params.seed = request.seed;
    }
    return std::make_unique<TspApp>(params);
  }
  if (request.app == "water") {
    WaterApp::Params params;
    params.molecules = WaterMolecules(request);
    params.iters = 3;
    params.fix_virial_bug = request.fix_water_bug;
    params.page_size = request.page_size;
    if (request.seed != 0) {
      params.seed = request.seed;
    }
    return std::make_unique<WaterApp>(params);
  }
  if (request.app == "lu") {
    LuApp::Params params;
    params.n = size > 0 ? static_cast<int>(size) : 64;
    params.block = 8;
    if (request.seed != 0) {
      params.seed = request.seed;
    }
    return std::make_unique<LuApp>(params);
  }
  return nullptr;
}

int CatalogLocksNeeded(const CatalogRequest& request) {
  if (request.app == "water") {
    return WaterApp::LocksNeeded(WaterMolecules(request));
  }
  if (request.app == "tsp") {
    return TspApp::LocksNeeded();
  }
  return 0;
}

}  // namespace cvm
