#include "campaign/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "util/serde.h"

namespace gdelay::campaign {

std::string frame(std::uint32_t kind, const std::string& payload) {
  util::ByteWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u32(kind);
  w.u64(payload.size());
  w.raw(payload.data(), payload.size());
  w.u64(util::xxh64(payload.data(), payload.size()));
  return w.take();
}

std::string unframe(const std::string& bytes, std::uint32_t expect_kind) {
  util::ByteReader r(bytes);
  if (r.remaining() < 4 + 4 + 4 + 8)
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
  if (r.remaining() < 8 || size > r.remaining() - 8)
    throw std::runtime_error("checkpoint: truncated payload");
  std::string payload(static_cast<std::size_t>(size), '\0');
  r.raw(payload.data(), payload.size());
  const std::uint64_t sum = r.u64();
  if (sum != util::xxh64(payload.data(), payload.size()))
    throw std::runtime_error("checkpoint: payload checksum mismatch");
  if (!r.at_end())
    throw std::runtime_error("checkpoint: trailing bytes after frame");
  return payload;
}

void write_file_atomic(const std::string& path, const std::string& bytes) {
  // Checkpoint directories are part of the spec, not pre-existing state.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw std::runtime_error("checkpoint: cannot open " + tmp);
  const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (n != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename into " + path);
  }
}

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool remove_file(const std::string& path) {
  return std::remove(path.c_str()) == 0;
}

}  // namespace gdelay::campaign
