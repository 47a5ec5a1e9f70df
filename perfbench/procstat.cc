// Process/thread accounting, quantiles, free ports and the JSON writer.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/assert.h"
#include "perfbench.h"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects it as not finite
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::num(const std::string& key, double v) { fields_.emplace_back(key, json_number(v)); }

void Report::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, json_string(v));
}

void Report::nums(const std::string& key, const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += json_number(v[i]);
  }
  fields_.emplace_back(key, out + "]");
}

std::string Report::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ',';
    out += json_string(fields_[i].first) + ':' + fields_[i].second;
  }
  return out + "}";
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

Usage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_us = static_cast<double>(ru.ru_utime.tv_sec) * 1e6 + static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_us = static_cast<double>(ru.ru_stime.tv_sec) * 1e6 + static_cast<double>(ru.ru_stime.tv_usec);
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxrss_kb = static_cast<double>(ru.ru_maxrss);
  return u;
}

std::map<int, std::uint64_t> thread_cpu_ns() {
  std::map<int, std::uint64_t> out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream f(std::string("/proc/self/task/") + e->d_name + "/schedstat");
    std::uint64_t on_cpu = 0;
    if (f >> on_cpu) out[std::atoi(e->d_name)] = on_cpu;
  }
  closedir(d);
  return out;
}

std::vector<std::uint16_t> free_loopback_ports(std::uint32_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::uint32_t i = 0; i < n; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    PARIS_CHECK_MSG(fd >= 0, "socket() failed");
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    a.sin_port = 0;
    PARIS_CHECK_MSG(bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) == 0,
                    "bind to a loopback port 0 failed");
    socklen_t len = sizeof(a);
    PARIS_CHECK(getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) == 0);
    ports.push_back(ntohs(a.sin_port));
    fds.push_back(fd);  // held until all are chosen, so the n ports differ
  }
  for (int fd : fds) close(fd);
  return ports;
}

double hist_quantile(const paris::stats::Histogram& h, double q) {
  const auto cdf = h.cdf();
  if (cdf.empty()) return 0;
  double prev_v = static_cast<double>(h.min());
  double prev_c = 0;
  for (const auto& [v, c] : cdf) {
    if (c >= q) {
      const double vv = std::min(static_cast<double>(v), static_cast<double>(h.max()));
      const double lo = std::min(prev_v, vv);
      return c > prev_c ? lo + (vv - lo) * (q - prev_c) / (c - prev_c) : vv;
    }
    prev_v = static_cast<double>(v);
    prev_c = c;
  }
  return static_cast<double>(h.max());
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (v[i + 1] - v[i]) * (pos - static_cast<double>(i));
}

}  // namespace perfbench
