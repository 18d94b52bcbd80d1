// Binary serialization primitives for checkpoint state.
//
// The campaign orchestrator persists partial accumulators (per-unit
// record sets) so extreme-statistics runs can be sharded, killed, resumed
// and merged. Everything here is byte-exact and host-independent:
// integers are packed little-endian by shifts, doubles travel as their
// IEEE-754 bit pattern, and a reader that runs past the end of its buffer
// throws instead of fabricating state. Each record is copied once per
// hop: the writer can be reserved for a whole checkpoint frame, so a
// save encodes its records into the buffer it writes out; the writer
// takes a span, so a save of only the records added since the last one
// writes that tail of a vector in place; and the reader decodes a vector
// straight onto the end of the caller's vector, after checking the count
// against the bytes left, so a hostile count never grows it. A vector's
// bytes are its u64 count followed by each element's 8 octets, a double
// as its IEEE-754 bit pattern. Round-trip identity —
// save(load(save(x))) == save(x) — is the contract the checkpoint tests
// pin. Two hashes live here: xxh64 checks checkpoint frames, whose
// payloads run to hundreds of kilobytes, and fnv1a64 makes the pinned
// fingerprints and state hashes, whose values must not move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gdelay::util {

/// Append-only little-endian byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(const void* data, std::size_t n);
  /// Overwrites the 8 bytes at `at` (std::out_of_range past the end): a
  /// length field written before the bytes it counts.
  void u64_at(std::size_t at, std::uint64_t v);
  /// Grows the capacity to `n` bytes, so writes up to that size never
  /// move the bytes already written.
  void reserve(std::size_t n) { buf_.reserve(n); }

  /// Length-prefixed vectors (u64 count, then elements). A span, so a
  /// caller can write the tail of a vector without copying it.
  void vec_f64(std::span<const double> v);
  void vec_u64(std::span<const std::uint64_t> v);

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <class T>
  void vec(std::span<const T> v);

  std::string buf_;
};

/// Bounds-checked little-endian reader over a borrowed buffer. Any read
/// past the end throws std::runtime_error("serde: truncated ...") — a
/// truncated checkpoint can never deserialize into plausible state.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t n);
  explicit ByteReader(std::string_view bytes);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();

  /// Length-prefixed vectors, decoded onto the end of `out`. The count
  /// is checked against the bytes left before `out` grows, so a count
  /// past the buffer throws a truncated read and leaves `out` as it was.
  void append_vec_f64(std::vector<double>& out);
  void append_vec_u64(std::vector<std::uint64_t>& out);

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool at_end() const { return p_ == end_; }

 private:
  template <class T>
  void append_vec(std::vector<T>& out, const char* what);

  const unsigned char* p_;
  const unsigned char* end_;
};

/// FNV-1a 64-bit hash: the campaign spec fingerprint and the pinned
/// state and output digests. One dependent multiply per byte.
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/// XXH64 (xxHash specification) with seed 0, words read little-endian
/// so the value does not depend on the host: the checkpoint frames'
/// payload checksum. Its four lanes are independent multiply chains, so
/// per byte it costs a fraction of fnv1a64's one dependent multiply.
std::uint64_t xxh64(const void* data, std::size_t n);

}  // namespace gdelay::util
