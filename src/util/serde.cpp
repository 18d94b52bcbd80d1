#include "util/serde.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace gdelay::util {

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::raw(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

void ByteWriter::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void ByteWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (std::uint64_t x : v) u64(x);
}

ByteReader::ByteReader(const void* data, std::size_t n)
    : p_(static_cast<const unsigned char*>(data)),
      end_(static_cast<const unsigned char*>(data) + n) {}

ByteReader::ByteReader(const std::string& bytes)
    : ByteReader(bytes.data(), bytes.size()) {}

namespace {
[[noreturn]] void truncated(const char* what) {
  throw std::runtime_error(std::string("serde: truncated read (") + what +
                           ")");
}
}  // namespace

std::uint8_t ByteReader::u8() {
  if (remaining() < 1) truncated("u8");
  return *p_++;
}

std::uint32_t ByteReader::u32() {
  if (remaining() < 4) truncated("u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p_++) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  if (remaining() < 8) truncated("u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(*p_++) << (8 * i);
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

void ByteReader::raw(void* out, std::size_t n) {
  if (remaining() < n) truncated("raw");
  std::memcpy(out, p_, n);
  p_ += n;
}

std::vector<double> ByteReader::vec_f64() {
  const std::uint64_t n = u64();
  if (n > remaining() / 8) truncated("vec_f64");
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
  return v;
}

std::vector<std::uint64_t> ByteReader::vec_u64() {
  const std::uint64_t n = u64();
  if (n > remaining() / 8) truncated("vec_u64");
  std::vector<std::uint64_t> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(u64());
  return v;
}

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace gdelay::util
