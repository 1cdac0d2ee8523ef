#include "logstore/record.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>

namespace lingxi::logstore {

Status write_file(const std::string& path, const std::vector<unsigned char>& bytes) {
  // Write-to-temp, fsync, close-with-check, rename: the destination is never
  // observable half-written, and a crash at any stage leaves the previous
  // file intact (see record.h). POSIX fds rather than ofstream because the
  // durability point (fsync) has no iostream equivalent and ofstream's
  // destructor close silently discards errors.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Error::io("cannot open for write: " + tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Error::io("write failed: " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Error::io("fsync failed: " + tmp);
  }
  if (::close(fd) != 0) {
    // A deferred write error surfacing at close: the temp file's contents are
    // not trustworthy, so the commit must not happen.
    ::unlink(tmp.c_str());
    return Error::io("close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Error::io("rename failed: " + tmp + " -> " + path);
  }
  return {};
}

Status fsync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Error::io("cannot open directory for fsync: " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Error::io("directory fsync failed: " + dir);
  return {};
}

Expected<std::vector<unsigned char>> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Error::io("cannot open: " + path);
  return std::vector<unsigned char>((std::istreambuf_iterator<char>(f)),
                                    std::istreambuf_iterator<char>());
}

}  // namespace lingxi::logstore
