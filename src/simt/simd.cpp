#include "simt/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace sttsv::simt {

namespace {

CpuFeatures probe_cpu() {
  CpuFeatures f;
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  f.sse2 = __builtin_cpu_supports("sse2") != 0;
  f.avx = __builtin_cpu_supports("avx") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
  return f;
}

bool env_disables_simd() {
  const char* v = std::getenv("STTSV_SIMD");
  if (v == nullptr) return false;
  return std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
         std::strcmp(v, "scalar") == 0;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> enabled{!env_disables_simd()};
  return enabled;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe_cpu();
  return f;
}

std::string cpu_features_string() {
  const CpuFeatures& f = cpu_features();
  std::string s;
  const auto add = [&s](bool have, const char* name) {
    if (!have) return;
    if (!s.empty()) s += ' ';
    s += name;
  };
  add(f.sse2, "sse2");
  add(f.avx, "avx");
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.avx512f, "avx512f");
  return s.empty() ? "none" : s;
}

const char* isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool simd_compiled() {
#ifdef STTSV_HAVE_AVX2_KERNELS
  return true;
#else
  return false;
#endif
}

void set_simd_enabled(bool enabled) {
  enabled_flag().store(enabled, std::memory_order_relaxed);
}

bool simd_enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}

KernelIsa dispatch_isa(KernelIsa requested, const CpuFeatures& host) {
  // Every SIMD tier fuses its multiply-adds (DESIGN.md §13.1).
  if (!simd_compiled() || requested == KernelIsa::kScalar || !host.avx2 ||
      !host.fma) {
    return KernelIsa::kScalar;
  }
#ifdef STTSV_HAVE_AVX512_KERNELS
  if (requested == KernelIsa::kAvx512 && host.avx512f) {
    return KernelIsa::kAvx512;
  }
#endif
  return KernelIsa::kAvx2;
}

KernelIsa preferred_isa() {
  if (!simd_enabled()) return KernelIsa::kScalar;
  return dispatch_isa(KernelIsa::kAvx512, cpu_features());
}

}  // namespace sttsv::simt
