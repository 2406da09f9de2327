// On-disk format primitives for the durability subsystem (serve/persist).
//
// Every persisted file — a checkpoint, a journal segment — is built from
// the same three pieces:
//
//  * A 16-byte file header: kFileMagic, a file-kind tag and
//    kFormatVersion. Readers refuse another kind or version up front
//    rather than mis-parsing a misplaced file or another layout.
//  * CRC32-checksummed *sections*: a section is [u32 tag] [u32 byte_len]
//    [payload] [u32 crc32(payload)]. Readers validate the checksum before
//    handing the payload out, so a torn or bit-rotted file is detected as
//    such instead of deserializing garbage. Section payloads use the same
//    bounds-checked little-endian primitives as the wire protocol
//    (rpc::WireWriter / rpc::WireReader) — one encoding discipline for
//    bytes that leave the process, whether over a socket or to disk.
//  * Atomic whole-file replacement: WriteFileAtomic writes to
//    "<path>.tmp", optionally fsyncs, and rename()s over the target, so a
//    crash mid-write leaves either the old file or the new one, never a
//    half-written hybrid. (A same-directory rename is atomic on POSIX.)
#ifndef QP_SERVE_PERSIST_FORMAT_H_
#define QP_SERVE_PERSIST_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace qp::serve::persist {

/// First 8 bytes of every persist file ("QPPERS" + 2 spare).
inline constexpr uint64_t kFileMagic = 0x0000535245505051ULL;  // "QPPERS\0\0"
/// Bumped on incompatible layout changes; readers reject other versions.
/// Version 2 dropped the item classes and the valuation order from the
/// shard state. Version 3 writes each item-indexed f64 vector dense or
/// sparse, whichever is shorter, with its length fixed to the shard's
/// item count (serve/persist/state_io.h). Version 4 writes a checkpoint
/// as one file (manifest section, then every shard's sections) and opens
/// journal segments with this header, their records being sections.
/// Version 5 drops the fields a checkpoint held twice or always as 0 (the
/// book's copy of the reprice stats, the reprice generation, the meta
/// section's edge count, every wall-clock seconds field) and stores the
/// seller-delta history as one last value per edited cell plus the
/// number of deltas applied.
inline constexpr uint32_t kFormatVersion = 5;
/// Bytes of the file header (magic, kind, version).
inline constexpr size_t kFileHeaderBytes = 16;

/// CRC-32/ISO-HDLC — the zlib/PNG/IEEE 802.3 CRC: reflected polynomial
/// 0xEDB88320, init and xorout 0xFFFFFFFF, check value 0xCBF43926 for
/// "123456789" — over `size` bytes, seeded with `seed` so checksums can
/// be chained across buffers (Crc32(b, Crc32(a)) == Crc32(a + b)). On
/// x86-64 CPUs with PCLMULQDQ and SSE4.1 (checked once at run time),
/// inputs of 64 bytes or more are folded 64 bytes per step with carry-
/// less multiplies (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel 2009); the last
/// size % 16 bytes, shorter inputs and every other CPU take slicing-by-8
/// (eight bytes per step through eight 256-entry tables). Every path
/// returns the same value as the bitwise definition on every input, so
/// the kernel is not part of the format: files written under one path
/// read back under any other.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);
inline uint32_t Crc32(const std::vector<uint8_t>& data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

/// The little-endian u32 at `p`; the caller bounds the read.
inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

/// Appends one checksummed section ([tag][len][payload][crc]) to `out`.
void AppendSection(uint32_t tag, const std::vector<uint8_t>& payload,
                   std::vector<uint8_t>* out);

/// One decoded section; `payload` aliases the reader's buffer.
struct Section {
  uint32_t tag = 0;
  const uint8_t* payload = nullptr;
  size_t size = 0;
};

/// Iterates the sections of a persist file body, validating each
/// section's CRC as it is pulled.
class SectionReader {
 public:
  SectionReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit SectionReader(const std::vector<uint8_t>& data)
      : SectionReader(data.data(), data.size()) {}

  bool AtEnd() const { return pos_ == size_; }

  /// Pulls the next section. Fails (kDataLoss-shaped Internal status) on
  /// a truncated header/payload or a CRC mismatch.
  Status Next(Section* out);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Prepends the file header (magic, kind tag, format version) to `out`.
void AppendFileHeader(uint32_t file_kind, std::vector<uint8_t>* out);

/// Validates the header and returns the offset of the first section
/// (kFileHeaderBytes). `expected_kind` distinguishes checkpoints from
/// journal segments so a misplaced rename cannot cross-load them.
Result<size_t> CheckFileHeader(const std::vector<uint8_t>& data,
                               uint32_t expected_kind);

// --- file IO -------------------------------------------------------------

/// Reads a whole file into memory. NotFound when it does not exist.
Result<std::vector<uint8_t>> ReadFile(const std::string& path);

/// Writes `data` to "<path>.tmp" and atomically rename()s it over
/// `path`. With `fsync_file`, the tmp file (and its directory) are
/// fsync'd before/after the rename — required for durability across OS
/// crashes; a plain process kill (SIGKILL) never loses renamed data, so
/// tests and benches skip the sync cost.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& data, bool fsync_file);

/// fsyncs a directory so a rename within it is durable across OS crashes.
Status SyncDir(const std::string& dir);

}  // namespace qp::serve::persist

#endif  // QP_SERVE_PERSIST_FORMAT_H_
