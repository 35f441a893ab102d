#include "vfs.h"

#include <algorithm>
#include <cerrno>
#include <chrono>

namespace perfbench {

namespace io = cloudrepro::io;

class MemFile final : public io::WritableFile {
 public:
  MemFile(MemVfs& vfs, MemVfs::Content content)
      : vfs_(vfs), content_(std::move(content)) {}

  void append(std::string_view data) override {
    if (!content_) throw io::IoError{"append to closed file", EBADF};
    std::lock_guard<std::mutex> lock{vfs_.mu_};
    content_->append(data);
  }
  void sync() override {
    if (!content_) throw io::IoError{"sync of closed file", EBADF};
  }
  void close() override { content_.reset(); }

 private:
  MemVfs& vfs_;
  MemVfs::Content content_;
};

std::uintmax_t MemVfs::bytes() const {
  std::lock_guard<std::mutex> lock{mu_};
  std::uintmax_t total = 0;
  for (const auto& [path, content] : files_) total += content->size();
  return total;
}

std::unique_ptr<io::WritableFile> MemVfs::open_write(const std::filesystem::path& path,
                                                     io::WriteMode mode) {
  std::lock_guard<std::mutex> lock{mu_};
  const auto parent = path.parent_path();
  if (!parent.empty() && !dirs_.count(parent)) {
    throw io::IoError{"open " + path.string(), ENOENT};
  }
  if (dirs_.count(path)) throw io::IoError{"open " + path.string(), EISDIR};
  auto it = files_.find(path);
  if (it != files_.end() && mode == io::WriteMode::kExclusive) {
    throw io::IoError{"open " + path.string(), EEXIST};
  }
  if (it == files_.end()) {
    it = files_.emplace(path, std::make_shared<std::string>()).first;
  } else if (mode == io::WriteMode::kTruncate) {
    it->second->clear();
  }
  return std::make_unique<MemFile>(*this, it->second);
}

std::optional<std::string> MemVfs::read_file(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock{mu_};
  const auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return *it->second;
}

bool MemVfs::exists(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock{mu_};
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

std::uintmax_t MemVfs::file_size(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock{mu_};
  const auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second->size();
}

void MemVfs::rename(const std::filesystem::path& from, const std::filesystem::path& to) {
  std::lock_guard<std::mutex> lock{mu_};
  const auto it = files_.find(from);
  if (it == files_.end()) {
    throw io::IoError{"rename " + from.string() + " -> " + to.string(), ENOENT};
  }
  if (!dirs_.count(to.parent_path())) {
    throw io::IoError{"rename " + from.string() + " -> " + to.string(), ENOENT};
  }
  Content content = it->second;
  files_.erase(it);
  files_[to] = std::move(content);
}

bool MemVfs::remove(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock{mu_};
  if (files_.erase(path) > 0) return true;
  if (!dirs_.count(path)) return false;
  const auto child = [&](const std::filesystem::path& p) { return p.parent_path() == path; };
  if (std::any_of(files_.begin(), files_.end(), [&](const auto& f) { return child(f.first); }) ||
      std::any_of(dirs_.begin(), dirs_.end(), child)) {
    throw io::IoError{"remove " + path.string(), ENOTEMPTY};
  }
  dirs_.erase(path);
  return true;
}

std::uintmax_t MemVfs::remove_all(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock{mu_};
  const auto under = [&](const std::filesystem::path& p) {
    const auto rel = p.lexically_relative(path);
    return !rel.empty() && *rel.begin() != "..";
  };
  std::uintmax_t removed = 0;
  std::erase_if(files_, [&](const auto& entry) {
    const bool hit = under(entry.first);
    removed += hit;
    return hit;
  });
  std::erase_if(dirs_, [&](const auto& dir) {
    const bool hit = under(dir);
    removed += hit;
    return hit;
  });
  return removed;
}

void MemVfs::create_directories(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock{mu_};
  for (auto p = path; !p.empty() && p != p.parent_path(); p = p.parent_path()) {
    if (files_.count(p)) throw io::IoError{"create_directories " + path.string(), ENOTDIR};
    dirs_.insert(p);
  }
}

std::vector<std::filesystem::path> MemVfs::list_dir(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock{mu_};
  std::vector<std::filesystem::path> out;
  for (const auto& [p, content] : files_) {
    if (p.parent_path() == path) out.push_back(p);
  }
  for (const auto& p : dirs_) {
    if (p.parent_path() == path) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MemVfs::truncate(const std::filesystem::path& path, std::uintmax_t size) {
  std::lock_guard<std::mutex> lock{mu_};
  const auto it = files_.find(path);
  if (it == files_.end()) throw io::IoError{"truncate " + path.string(), ENOENT};
  it->second->resize(size);
}

void MemVfs::sync_dir(const std::filesystem::path& path) {
  std::lock_guard<std::mutex> lock{mu_};
  if (!dirs_.count(path)) throw io::IoError{"open dir " + path.string(), ENOENT};
}

// --- CountingVfs -----------------------------------------------------------

IoCounts IoCounts::operator-(const IoCounts& base) const {
  return {appends - base.appends, syncs - base.syncs, reads - base.reads,
          busy_s - base.busy_s};
}

template <typename Op>
auto CountingVfs::timed(std::atomic<std::uint64_t>* counter, Op&& op) {
  if (counter) counter->fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  struct Charge {
    std::atomic<std::uint64_t>& busy;
    std::chrono::steady_clock::time_point start;
    ~Charge() {
      busy.fetch_add(static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count()),
                     std::memory_order_relaxed);
    }
  } charge{busy_ns_, start};
  return op();
}

class CountingFile final : public io::WritableFile {
 public:
  CountingFile(CountingVfs& vfs, std::unique_ptr<io::WritableFile> inner)
      : vfs_(vfs), inner_(std::move(inner)) {}

  void append(std::string_view data) override {
    vfs_.timed(&vfs_.appends_, [&] { inner_->append(data); });
  }
  void sync() override {
    vfs_.timed(&vfs_.syncs_, [&] { inner_->sync(); });
  }
  void close() override { inner_->close(); }

 private:
  CountingVfs& vfs_;
  std::unique_ptr<io::WritableFile> inner_;
};

IoCounts CountingVfs::counts() const {
  return {appends_.load(), syncs_.load(), reads_.load(),
          static_cast<double>(busy_ns_.load()) * 1e-9};
}

std::unique_ptr<io::WritableFile> CountingVfs::open_write(const std::filesystem::path& path,
                                                          io::WriteMode mode) {
  return std::make_unique<CountingFile>(
      *this, timed(nullptr, [&] { return inner_.open_write(path, mode); }));
}
std::optional<std::string> CountingVfs::read_file(const std::filesystem::path& path) {
  return timed(&reads_, [&] { return inner_.read_file(path); });
}
bool CountingVfs::exists(const std::filesystem::path& path) {
  return timed(nullptr, [&] { return inner_.exists(path); });
}
std::uintmax_t CountingVfs::file_size(const std::filesystem::path& path) {
  return timed(nullptr, [&] { return inner_.file_size(path); });
}
void CountingVfs::rename(const std::filesystem::path& from, const std::filesystem::path& to) {
  timed(nullptr, [&] { inner_.rename(from, to); });
}
bool CountingVfs::remove(const std::filesystem::path& path) {
  return timed(nullptr, [&] { return inner_.remove(path); });
}
std::uintmax_t CountingVfs::remove_all(const std::filesystem::path& path) {
  return timed(nullptr, [&] { return inner_.remove_all(path); });
}
void CountingVfs::create_directories(const std::filesystem::path& path) {
  timed(nullptr, [&] { inner_.create_directories(path); });
}
std::vector<std::filesystem::path> CountingVfs::list_dir(const std::filesystem::path& path) {
  return timed(nullptr, [&] { return inner_.list_dir(path); });
}
void CountingVfs::truncate(const std::filesystem::path& path, std::uintmax_t size) {
  timed(nullptr, [&] { inner_.truncate(path, size); });
}
void CountingVfs::sync_dir(const std::filesystem::path& path) {
  timed(&syncs_, [&] { inner_.sync_dir(path); });
}

}  // namespace perfbench
