// Checkpoint framing and append-only file persistence.
//
// A shard's checkpoint file is a log: a sequence of frames, one per save,
// each holding only the records added since the previous save. Every
// frame has the same envelope:
//
//   u32 magic 'GDCK'   u32 version 3   u32 kind   u64 payload size
//   payload bytes      u64 XXH64(payload), seed 0
//
// All fields are little-endian. A frame is built in one buffer, the one
// its payload is encoded into: begin_frame() writes the header with the
// size still 0, the caller writes the payload after it, and seal_frame()
// stores the size and appends the checksum. A save therefore copies each
// record once, into the buffer append_file() writes. unframe() validates
// the envelope fields plus the checksum and hands back a view of the
// payload inside the bytes it was given, so a resume decodes the records
// from the bytes read_file() read, and a bit-flipped frame is rejected up
// front instead of deserializing into plausible state. Only version 3 is
// read: versions 1 (an FNV-1a64 trailer) and 2 (the same envelope around
// a whole-state payload) are rejected with a message that says to delete
// the checkpoint directory and restart, since checkpoints are the working
// files of a running campaign, not an archive. A save appends one frame
// to the end of the file, so a crash mid-save leaves at most a torn last
// frame: whole_frame_size() tells it from a whole one, and the loader
// cuts it off before the shard runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gdelay::util {
class ByteWriter;
}  // namespace gdelay::util

namespace gdelay::campaign {

inline constexpr std::uint32_t kCheckpointMagic = 0x4b434447u;  // "GDCK"
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Frame payload kinds.
inline constexpr std::uint32_t kFrameShardState = 1;

/// Starts a frame of `kind` in the empty writer `w`: reserves the whole
/// frame for a payload of `payload_bytes` (a size hint; a longer payload
/// only regrows the buffer) and writes the header with the size field 0.
/// The caller then writes the payload to `w`.
void begin_frame(util::ByteWriter& w, std::uint32_t kind,
                 std::size_t payload_bytes);

/// Ends the frame begin_frame() started in `w`: stores the size of the
/// bytes written since the header in its size field, appends their XXH64,
/// and returns the frame, moved out of `w`.
std::string seal_frame(util::ByteWriter& w);

/// The payload of the one frame `bytes` holds, as a view into `bytes`;
/// throws std::runtime_error when the magic, version, kind, size, or
/// checksum does not check out, or when bytes follow the frame.
std::string_view unframe(std::string_view bytes, std::uint32_t expect_kind);

/// Length of the frame at the start of `bytes` as its header declares it
/// (header, payload and trailer), or 0 when fewer than a header's bytes
/// remain or the declared frame runs past the end: the torn tail of a
/// save that did not finish. Reads only the size field; unframe() checks
/// the rest.
std::size_t whole_frame_size(std::string_view bytes);

/// Appends bytes to `path` (one write, then a flush), creating the file
/// and its parent directories as needed. Throws std::runtime_error on a
/// short write or a failed flush, which can leave a torn tail.
void append_file(const std::string& path, std::string_view bytes);

/// Whole-file read, into a string sized once from the file's size (a
/// file that grew since is still read to its end); std::nullopt when the
/// file does not exist. Throws std::runtime_error naming the path when a
/// read fails, so a failed read is never taken for a short file.
std::optional<std::string> read_file(const std::string& path);

/// Deletes a file if present; returns whether it existed.
bool remove_file(const std::string& path);

}  // namespace gdelay::campaign
