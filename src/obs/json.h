// Minimal JSON document model: parse, navigate, build, serialize.
//
// The observability layer emits JSON in several places (metrics snapshots,
// trace exports, the QoS report) and the regression tooling must *read* it
// back (the committed BENCH_qos_baseline.json). This is the smallest value
// type that closes that loop without an external dependency: numbers are
// doubles (every quantity we serialize — ticks, counts, rates — fits a
// double exactly up to 2^53), objects preserve key order by sorting
// (std::map), and parse errors throw with a byte offset.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace hds::obs {

class Json;

class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)), offset_(offset) {}
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Json {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double n) : type_(Type::kNumber), num_(n) {}
  // One constrained template covers every integral width (int, int64_t,
  // uint64_t, size_t, ...) without the LP64 duplicate-overload trap.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Json(T n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(Array a) : type_(Type::kArray), arr_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), obj_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  // Typed reads; throw std::logic_error on a type mismatch.
  [[nodiscard]] bool boolean() const;
  [[nodiscard]] double number() const;
  [[nodiscard]] std::int64_t integer() const;  // number(), truncated
  [[nodiscard]] const std::string& str() const;
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& fields() const;

  // Object lookup without creation; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;
  // Convenience: find(key)->number() with a fallback for absent keys.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key, std::string fallback) const;

  // Mutating builders: first use on a null value materializes the container.
  Json& operator[](const std::string& key);  // object field
  void push_back(Json v);                    // array append

  // Serialization. indent < 0: compact one-line; otherwise pretty-printed
  // with `indent` spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  // Strict parser (no comments, no trailing commas). Throws JsonParseError.
  static Json parse(const std::string& text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

// File round-trip helpers shared by every JSON-speaking CLI tool
// (hds_chaos repros, hds_report baselines, hds_node configs), so "read the
// whole file / write it back / fail with the path in the message" exists
// exactly once. All three throw std::runtime_error naming the path;
// load_json_file lets JsonParseError (a runtime_error) propagate so callers
// can distinguish an unreadable file from malformed JSON.
std::string read_text_file(const std::string& path);
void write_text_file(const std::string& path, const std::string& text);
Json load_json_file(const std::string& path);

}  // namespace hds::obs
