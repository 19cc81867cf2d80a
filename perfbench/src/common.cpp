#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

bool Spans::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                  "\"parent\":%u}}",
                  i == 0 ? "" : ",\n", s.name, us_between(origin_, s.t0),
                  us_between(s.t0, s.t1), s.id, s.parent);
    os << buf;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

void Report::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  notes[key] = buf;
}

void Report::fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  ++failed;
  correct = false;
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

CpuTimes cpu_times() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  long long v[8] = {};  // user nice system idle iowait irq softirq steal
  CpuTimes t;
  if (!(is >> cpu) || cpu != "cpu") return t;
  for (long long& x : v) {
    if (!(is >> x)) return t;
    t.total += x;
  }
  t.steal = v[7];
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  const long long total = b.total - a.total;
  return total > 0 ? static_cast<double>(b.steal - a.steal) / total : 0.0;
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  return line;
}

}  // namespace

std::map<std::string, std::string> run_identity() {
  std::map<std::string, std::string> id;
  std::string model = "unknown";
  std::set<std::string> simd;
  {
    static const char* const kSimd[] = {
        "sse4_2",   "avx",         "avx2",        "fma",        "f16c",
        "avx512f",  "avx512bw",    "avx512vl",    "avx512_vnni", "avx512_bf16",
        "amx_tile", "amx_bf16",    "amx_int8",    "neon",       "asimd",
        "sve"};
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string key = line.substr(0, colon);
      key.erase(key.find_last_not_of(" \t") + 1);
      const std::string value =
          colon + 2 <= line.size() ? line.substr(colon + 2) : "";
      if (key == "model name" && model == "unknown") model = value;
      if (key == "flags" || key == "Features") {
        std::istringstream flags(value);
        std::string f;
        while (flags >> f) {
          for (const char* s : kSimd) {
            if (f == s) simd.insert(f);
          }
        }
      }
    }
  }
  std::string simd_list;
  for (const std::string& f : simd) {
    simd_list += (simd_list.empty() ? "" : " ") + f;
  }
  id["cpu_model"] = model;
  id["simd"] = simd_list;
  id["nproc"] = std::to_string(nproc());
  // Cache sizes as sysfs reports them for cpu0 (per-core L2, shared LLC).
  std::string l2 = "unknown", llc = "unknown";
  int llc_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_first_line(dir + "level");
    if (level.empty()) continue;
    const std::string type = read_first_line(dir + "type");
    const std::string size = read_first_line(dir + "size");
    if (type == "Instruction") continue;
    const int lv = std::atoi(level.c_str());
    if (lv == 2) l2 = size;
    if (lv >= llc_level) {
      llc_level = lv;
      llc = "L" + level + " " + size;
    }
  }
  id["l2"] = l2;
  id["llc"] = llc;
#ifdef PERFBENCH_FLAGS
  id["compiler_flags"] = PERFBENCH_FLAGS;
#else
  id["compiler_flags"] = "unknown";
#endif
  // Results are comparable only within one box class: same CPU model,
  // SIMD set and CPU count.
  id["box_class"] = model + " | " + simd_list + " | nproc " + id["nproc"];
  return id;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
