// Checkpoint framing and append-only file persistence.
//
// A shard's checkpoint file is a log: a sequence of frames, one per save,
// each holding only the records added since the previous save. Every
// frame has the same envelope:
//
//   u32 magic 'GDCK'   u32 version 3   u32 kind   u64 payload size
//   payload bytes      u64 XXH64(payload), seed 0
//
// All fields are little-endian. unframe() validates the envelope fields
// plus the checksum before handing the payload back, so a bit-flipped
// frame is rejected up front instead of deserializing into plausible
// state. Only version 3 is read: versions 1 (an FNV-1a64 trailer) and 2
// (the same envelope around a whole-state payload) are rejected with a
// message that says to delete the checkpoint directory and restart,
// since checkpoints are the working files of a running campaign, not an
// archive. A save appends one frame to the end of the file, so a crash
// mid-save leaves at most a torn last frame: whole_frame_size() tells it
// from a whole one, and the loader cuts it off before the shard runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gdelay::campaign {

inline constexpr std::uint32_t kCheckpointMagic = 0x4b434447u;  // "GDCK"
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Frame payload kinds.
inline constexpr std::uint32_t kFrameShardState = 1;

std::string frame(std::uint32_t kind, const std::string& payload);

/// Returns the payload of the one frame `bytes` holds; throws
/// std::runtime_error when the magic, version, kind, size, or checksum
/// does not check out, or when bytes follow the frame.
std::string unframe(std::string_view bytes, std::uint32_t expect_kind);

/// Length of the frame at the start of `bytes` as its header declares it
/// (header, payload and trailer), or 0 when fewer than a header's bytes
/// remain or the declared frame runs past the end: the torn tail of a
/// save that did not finish. Reads only the size field; unframe() checks
/// the rest.
std::size_t whole_frame_size(std::string_view bytes);

/// Appends bytes to `path` (one write, then a flush), creating the file
/// and its parent directories as needed. Throws std::runtime_error on a
/// short write or a failed flush, which can leave a torn tail.
void append_file(const std::string& path, const std::string& bytes);

/// Whole-file read; std::nullopt when the file does not exist. Throws
/// std::runtime_error naming the path when a read fails, so a failed
/// read is never taken for a short file.
std::optional<std::string> read_file(const std::string& path);

/// Deletes a file if present; returns whether it existed.
bool remove_file(const std::string& path);

}  // namespace gdelay::campaign
