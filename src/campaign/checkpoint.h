// Checkpoint framing and atomic file persistence.
//
// Every shard checkpoint travels inside one frame:
//
//   u32 magic 'GDCK'   u32 version 2   u32 kind   u64 payload size
//   payload bytes      u64 XXH64(payload), seed 0
//
// All fields are little-endian. unframe() validates the envelope fields
// plus the checksum before handing the payload back, so a truncated or
// bit-flipped checkpoint is rejected up front instead of deserializing
// into plausible state. Only version 2 is read: version 1 (the same
// layout with an FNV-1a64 trailer) is rejected with a message that says
// to delete the checkpoint directory and restart, since checkpoints are
// the working files of a running campaign, not an archive. Files are
// written via temp-file + rename so a crash mid-write can never leave a
// half-frame at the checkpoint path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace gdelay::campaign {

inline constexpr std::uint32_t kCheckpointMagic = 0x4b434447u;  // "GDCK"
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Frame payload kinds.
inline constexpr std::uint32_t kFrameShardState = 1;

std::string frame(std::uint32_t kind, const std::string& payload);

/// Returns the payload; throws std::runtime_error when the magic,
/// version, kind, size, or checksum does not check out.
std::string unframe(const std::string& bytes, std::uint32_t expect_kind);

/// Writes bytes to `path` atomically (temp file + rename). Throws
/// std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& bytes);

/// Whole-file read; std::nullopt when the file does not exist.
std::optional<std::string> read_file(const std::string& path);

/// Deletes a file if present; returns whether it existed.
bool remove_file(const std::string& path);

}  // namespace gdelay::campaign
