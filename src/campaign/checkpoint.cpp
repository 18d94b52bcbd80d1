#include "campaign/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "util/serde.h"

namespace gdelay::campaign {

namespace {
constexpr std::size_t kSizeAt = 4 + 4 + 4;  // magic, version, kind
constexpr std::size_t kHeaderBytes = kSizeAt + 8;
constexpr std::size_t kTrailerBytes = 8;
}  // namespace

void begin_frame(util::ByteWriter& w, std::uint32_t kind,
                 std::size_t payload_bytes) {
  w.reserve(kHeaderBytes + payload_bytes + kTrailerBytes);
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u32(kind);
  w.u64(0);  // the payload size, stored by seal_frame()
}

std::string seal_frame(util::ByteWriter& w) {
  const std::size_t size = w.size() - kHeaderBytes;
  w.u64_at(kSizeAt, size);
  w.u64(util::xxh64(w.bytes().data() + kHeaderBytes, size));
  return w.take();
}

std::string_view unframe(std::string_view bytes, std::uint32_t expect_kind) {
  util::ByteReader r(bytes);
  if (r.remaining() < kHeaderBytes)
    throw std::runtime_error("checkpoint: truncated frame header");
  if (r.u32() != kCheckpointMagic)
    throw std::runtime_error("checkpoint: bad magic (not a GDCK frame)");
  const std::uint32_t version = r.u32();
  if (version != kCheckpointVersion)
    throw std::runtime_error(
        "checkpoint: unsupported frame version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kCheckpointVersion) +
        "); delete the checkpoint directory and restart the campaign");
  const std::uint32_t kind = r.u32();
  if (kind != expect_kind)
    throw std::runtime_error("checkpoint: frame kind mismatch");
  const std::uint64_t size = r.u64();
  if (r.remaining() < kTrailerBytes || size > r.remaining() - kTrailerBytes)
    throw std::runtime_error("checkpoint: truncated payload");
  const std::string_view payload =
      bytes.substr(kHeaderBytes, static_cast<std::size_t>(size));
  util::ByteReader trailer(payload.data() + payload.size(),
                           r.remaining() - payload.size());
  if (trailer.u64() != util::xxh64(payload.data(), payload.size()))
    throw std::runtime_error("checkpoint: payload checksum mismatch");
  if (!trailer.at_end())
    throw std::runtime_error("checkpoint: trailing bytes after frame");
  return payload;
}

std::size_t whole_frame_size(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes + kTrailerBytes) return 0;
  util::ByteReader r(bytes.data() + kSizeAt, 8);
  const std::uint64_t size = r.u64();
  // Compared with what is left, so a size near 2^64 cannot wrap.
  if (size > bytes.size() - kHeaderBytes - kTrailerBytes) return 0;
  return kHeaderBytes + static_cast<std::size_t>(size) + kTrailerBytes;
}

void append_file(const std::string& path, std::string_view bytes) {
  // Checkpoint directories are part of the spec, not pre-existing state.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) throw std::runtime_error("checkpoint: cannot open " + path);
  const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (n != bytes.size() || !flushed || !closed)
    throw std::runtime_error("checkpoint: short write to " + path);
}

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  // One read into a string of the file's size (0 where it has none, as a
  // directory, whose read then fails); the loop reads on to the end, so a
  // file that grew since is read whole.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string out(ec ? 0 : static_cast<std::size_t>(size), '\0');
  out.resize(std::fread(out.data(), 1, out.size(), f));
  char buf[1 << 12];
  for (std::size_t n;
       !std::ferror(f) && (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    out.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw std::runtime_error("checkpoint: cannot read " + path);
  return out;
}

bool remove_file(const std::string& path) {
  return std::remove(path.c_str()) == 0;
}

}  // namespace gdelay::campaign
