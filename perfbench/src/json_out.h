// Minimal JSON object writer for the one-line round results.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonOut {
 public:
  JsonOut() : s_("{") {}

  void field(const std::string& key, const std::string& v) {
    name(key);
    quote(v);
  }
  void field(const std::string& key, std::uint64_t v) {
    name(key);
    s_ += std::to_string(v);
  }
  void field(const std::string& key, bool v) {
    name(key);
    s_ += v ? "true" : "false";
  }
  void field(const std::string& key, double v) {
    name(key);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s_ += buf;
  }
  void string_list(const std::string& key, const std::vector<std::string>& v) {
    name(key);
    s_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) s_ += ',';
      quote(v[i]);
    }
    s_ += ']';
  }
  void begin_object(const std::string& key) {
    name(key);
    s_ += '{';
    first_ = true;
  }
  void end_object() {
    s_ += '}';
    first_ = false;
  }
  std::string finish() { return s_ + "}"; }

 private:
  void name(const std::string& key) {
    if (!first_) s_ += ',';
    first_ = false;
    quote(key);
    s_ += ':';
  }
  void quote(const std::string& v) {
    s_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        s_ += '\\';
        s_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        s_ += ' ';
      } else {
        s_ += c;
      }
    }
    s_ += '"';
  }

  std::string s_;
  bool first_ = true;
};

}  // namespace perfbench
