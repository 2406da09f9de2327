#include "serve/persist/format.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

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

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  const CrcTables& t = kCrcTables;
  uint32_t c = seed ^ 0xFFFFFFFFu;
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
  rpc::WireReader r(data_ + pos_, 8);
  out->tag = r.U32();
  uint32_t len = r.U32();
  pos_ += 8;
  if (size_ - pos_ < static_cast<size_t>(len) + 4) {
    return Status::Internal("persist: truncated section payload");
  }
  out->payload = data_ + pos_;
  out->size = len;
  pos_ += len;
  rpc::WireReader crc_reader(data_ + pos_, 4);
  uint32_t stored = crc_reader.U32();
  pos_ += 4;
  if (Crc32(out->payload, out->size) != stored) {
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
  if (data.size() < 16) return Status::Internal("persist: file too short");
  rpc::WireReader r(data.data(), 16);
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
  return size_t{16};
}

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::Internal("open(" + path +
                            ") failed: " + std::strerror(errno));
  }
  std::vector<uint8_t> out;
  uint8_t buf[64 * 1024];
  for (;;) {
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      close(fd);
      return Status::Internal("read(" + path +
                              ") failed: " + std::strerror(errno));
    }
    out.insert(out.end(), buf, buf + n);
  }
  close(fd);
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
