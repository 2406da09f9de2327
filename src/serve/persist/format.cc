#include "serve/persist/format.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "serve/rpc/wire.h"

namespace qp::serve::persist {
namespace {

// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table, and
// kCrcTables[k][b] is the CRC state after byte b followed by k zero bytes,
// so one step folds eight input bytes with eight independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

#if defined(__x86_64__) && defined(__GNUC__)

__m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// `lane` carried ahead by the fold distance of `k` and added to `next`:
// the lane's low and high 64-bit halves are carry-less multiplied by
// the low and high constants of `k`.
__attribute__((target("pclmul,sse4.1"))) __m128i Fold(__m128i lane,
                                                       __m128i k,
                                                       __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

// Folds `size` bytes — a multiple of 16, at least 64 — into the inverted
// CRC state `c` and returns the new state. Four 128-bit lanes absorb 64
// bytes per step; they are then folded into one lane, which absorbs the
// remaining 16-byte blocks, and the lane is reduced to 32 bits by one
// 64-bit fold and a Barrett reduction. The constants are the bit-
// reflected ones for P = 0x104C11DB7 from the end of the paper, as zlib
// and Chromium use them: x^(4*128+32) and x^(4*128-32) mod P fold a lane
// 512 bits ahead, x^(128+32) and x^(128-32) mod P fold it 128 bits,
// x^64 mod P folds 64 into 32 bits, then P itself and the Barrett
// constant mu = floor(x^64 / P).
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32Clmul(
    const uint8_t* data, size_t size, uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(data), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(data + 16);
  __m128i x3 = Load128(data + 32);
  __m128i x4 = Load128(data + 48);
  data += 64;
  size -= 64;
  for (; size >= 64; data += 64, size -= 64) {
    x1 = Fold(x1, k1k2, Load128(data));
    x2 = Fold(x2, k1k2, Load128(data + 16));
    x3 = Fold(x3, k1k2, Load128(data + 32));
    x4 = Fold(x4, k1k2, Load128(data + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; size >= 16; data += 16, size -= 16) {
    x1 = Fold(x1, k3k4, Load128(data));
  }

  // 128 -> 64 bits, then 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool CpuHasClmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // __x86_64__ && __GNUC__

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__) && defined(__GNUC__)
  if (size >= 64 && CpuHasClmul()) {
    const size_t folded = size & ~size_t{15};
    c = Crc32Clmul(data, folded, c);
    data += folded;
    size -= folded;
  }
#endif
  const CrcTables& t = kCrcTables;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = LoadLe32(data) ^ c;
    const uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void AppendSection(uint32_t tag, const std::vector<uint8_t>& payload,
                   std::vector<uint8_t>* out) {
  rpc::WireWriter w(out);
  w.U32(tag);
  w.U32(static_cast<uint32_t>(payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
  w.U32(Crc32(payload));
}

Status SectionReader::Next(Section* out) {
  if (size_ - pos_ < 8) {
    return Status::Internal("persist: truncated section header");
  }
  const uint8_t* header = data_ + pos_;
  out->tag = LoadLe32(header);
  const uint32_t len = LoadLe32(header + 4);
  pos_ += 8;
  if (size_ - pos_ < static_cast<size_t>(len) + 4) {
    return Status::Internal("persist: truncated section payload");
  }
  out->payload = data_ + pos_;
  out->size = len;
  pos_ += len;
  const uint8_t* trailer = data_ + pos_;
  pos_ += 4;
  if (Crc32(out->payload, out->size) != LoadLe32(trailer)) {
    return Status::Internal("persist: section checksum mismatch");
  }
  return Status::OK();
}

void AppendFileHeader(uint32_t file_kind, std::vector<uint8_t>* out) {
  rpc::WireWriter w(out);
  w.U64(kFileMagic);
  w.U32(file_kind);
  w.U32(kFormatVersion);
}

Result<size_t> CheckFileHeader(const std::vector<uint8_t>& data,
                               uint32_t expected_kind) {
  if (data.size() < kFileHeaderBytes) {
    return Status::Internal("persist: file too short");
  }
  rpc::WireReader r(data.data(), kFileHeaderBytes);
  if (r.U64() != kFileMagic) {
    return Status::Internal("persist: bad file magic");
  }
  uint32_t kind = r.U32();
  if (kind != expected_kind) {
    return Status::Internal("persist: unexpected file kind " +
                            std::to_string(kind));
  }
  uint32_t version = r.U32();
  if (version != kFormatVersion) {
    return Status::Internal("persist: unsupported format version " +
                            std::to_string(version));
  }
  return kFileHeaderBytes;
}

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::Internal("open(" + path +
                            ") failed: " + std::strerror(errno));
  }
  // Read straight into a buffer sized by fstat. The loop still ends
  // only at EOF: it absorbs short reads, and a file that grew or shrank
  // since fstat reads back whole through `spill` or is cut to the bytes
  // read.
  struct stat st;
  if (fstat(fd, &st) != 0) {
    const int err = errno;
    close(fd);
    return Status::Internal("fstat(" + path + ") failed: " +
                            std::strerror(err));
  }
  std::vector<uint8_t> out(st.st_size > 0 ? static_cast<size_t>(st.st_size)
                                          : 0);
  size_t got = 0;
  uint8_t spill[4096];
  for (;;) {
    const bool full = got == out.size();
    ssize_t n = full ? read(fd, spill, sizeof(spill))
                     : read(fd, out.data() + got, out.size() - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      close(fd);
      return Status::Internal("read(" + path +
                              ") failed: " + std::strerror(err));
    }
    if (full) out.insert(out.end(), spill, spill + n);
    got += static_cast<size_t>(n);
  }
  close(fd);
  out.resize(got);
  return out;
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& data, bool fsync_file) {
  const std::string tmp = path + ".tmp";
  int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("open(" + tmp +
                            ") failed: " + std::strerror(errno));
  }
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      close(fd);
      unlink(tmp.c_str());
      return Status::Internal("write(" + tmp +
                              ") failed: " + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  if (fsync_file && fsync(fd) != 0) {
    close(fd);
    unlink(tmp.c_str());
    return Status::Internal("fsync(" + tmp +
                            ") failed: " + std::strerror(errno));
  }
  close(fd);
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    unlink(tmp.c_str());
    return Status::Internal("rename(" + tmp + " -> " + path +
                            ") failed: " + std::strerror(errno));
  }
  if (fsync_file) {
    size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    QP_RETURN_IF_ERROR(SyncDir(dir));
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("open dir(" + dir +
                            ") failed: " + std::strerror(errno));
  }
  int rc = fsync(fd);
  close(fd);
  if (rc != 0) {
    return Status::Internal("fsync dir(" + dir +
                            ") failed: " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace qp::serve::persist
