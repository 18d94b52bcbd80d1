#include "util/serde.h"

#include <bit>
#include <stdexcept>

namespace gdelay::util {

namespace {

// Little-endian octets through shifts, so the bytes do not depend on the
// host. Unrolled, GCC merges the eight byte stores (loads) into one word
// access.
void store_le64(char* p, std::uint64_t v) {
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v = 0;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void ByteWriter::u32(std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  buf_.append(b, 4);
}

void ByteWriter::u64(std::uint64_t v) {
  char b[8];
  store_le64(b, v);
  buf_.append(b, 8);
}

void ByteWriter::raw(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

void ByteWriter::u64_at(std::size_t at, std::uint64_t v) {
  if (at > buf_.size() || buf_.size() - at < 8)
    throw std::out_of_range("ByteWriter: u64_at past the end");
  store_le64(buf_.data() + at, v);
}

// The count, then every element's 8 octets into a buffer grown once.
template <class T>
void ByteWriter::vec(std::span<const T> v) {
  u64(v.size());
  const std::size_t at = buf_.size();
  buf_.resize(at + 8 * v.size());
  char* p = buf_.data() + at;
  for (const T x : v) {
    store_le64(p, std::bit_cast<std::uint64_t>(x));
    p += 8;
  }
}

void ByteWriter::vec_f64(std::span<const double> v) { vec(v); }

void ByteWriter::vec_u64(std::span<const std::uint64_t> v) { vec(v); }

ByteReader::ByteReader(const void* data, std::size_t n)
    : p_(static_cast<const unsigned char*>(data)),
      end_(static_cast<const unsigned char*>(data) + n) {}

ByteReader::ByteReader(std::string_view bytes)
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
  const std::uint32_t v = load_le32(p_);
  p_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (remaining() < 8) truncated("u64");
  const std::uint64_t v = load_le64(p_);
  p_ += 8;
  return v;
}

template <class T>
void ByteReader::append_vec(std::vector<T>& out, const char* what) {
  const std::uint64_t n = u64();
  // Checked before growing the vector, so a hostile count never allocates.
  if (n > remaining() / 8) truncated(what);
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n));
  const unsigned char* p = p_;
  for (T* x = out.data() + at; x != out.data() + out.size(); ++x, p += 8)
    *x = std::bit_cast<T>(load_le64(p));
  p_ = p;
}

void ByteReader::append_vec_f64(std::vector<double>& out) {
  append_vec(out, "vec_f64");
}

void ByteReader::append_vec_u64(std::vector<std::uint64_t>& out) {
  append_vec(out, "vec_u64");
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

namespace {

constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kP2, 31) * kP1;
}

std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ xxh_round(0, acc)) * kP1 + kP4;
}

}  // namespace

// XXH64 with seed 0, as the xxHash specification defines it: four lanes
// over 32-byte stripes (independent multiply chains, so they overlap),
// the merge rounds, the 8-, 4- and 1-byte tails, then the avalanche.
std::uint64_t xxh64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h = kP5;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (const unsigned char* last = end - 32; p <= last; p += 32) {
      v1 = xxh_round(v1, load_le64(p));
      v2 = xxh_round(v2, load_le64(p + 8));
      v3 = xxh_round(v3, load_le64(p + 16));
      v4 = xxh_round(v4, load_le64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(h, v1);
    h = xxh_merge(h, v2);
    h = xxh_merge(h, v3);
    h = xxh_merge(h, v4);
  }
  h += n;
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ xxh_round(0, load_le64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = std::rotl(h ^ load_le32(p) * kP1, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ *p * kP5, 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace gdelay::util
