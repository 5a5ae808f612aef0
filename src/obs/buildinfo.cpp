#include "obs/buildinfo.hpp"

#include "common/json_escape.hpp"

#ifndef ADRES_VERSION
#define ADRES_VERSION "0.0.0"
#endif
#ifndef ADRES_GIT_DESCRIBE
#define ADRES_GIT_DESCRIBE "unknown"
#endif
#ifndef ADRES_BUILD_TYPE
#define ADRES_BUILD_TYPE ""
#endif
#ifndef ADRES_SANITIZE_FLAGS
#define ADRES_SANITIZE_FLAGS ""
#endif

namespace adres::obs {
namespace {

std::string compilerId() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& buildInfo() {
  static const BuildInfo info{ADRES_VERSION, ADRES_GIT_DESCRIBE,
                              ADRES_BUILD_TYPE, ADRES_SANITIZE_FLAGS,
                              compilerId()};
  return info;
}

void writeBuildInfoJson(std::ostream& os) {
  const BuildInfo& b = buildInfo();
  os << "{\n  \"schema\": \"adres.buildinfo.v1\",\n"
     << "  \"version\": \"" << json::escape(b.version) << "\",\n"
     << "  \"git_describe\": \"" << json::escape(b.gitDescribe) << "\",\n"
     << "  \"build_type\": \"" << json::escape(b.buildType) << "\",\n"
     << "  \"sanitize\": \"" << json::escape(b.sanitize) << "\",\n"
     << "  \"compiler\": \"" << json::escape(b.compiler) << "\"\n}\n";
}

}  // namespace adres::obs
