// MemEnv: an in-memory store::Env for the benchmark's durable database.
//
// The durable write path runs unchanged on top of it -- snapshot Save,
// OpenDurable's log replay, group-commit append, and one SyncFile per
// batch before any acknowledgement -- but the bytes live in a map instead
// of a filesystem, the way they would on a RAM-backed tmpfs where fsync
// returns at once. That keeps block-device latency, whose spread on shared
// disks dwarfs the program's own write cost, out of the measurement, and
// keeps the benchmark from writing anywhere outside its own process.
//
// Directories are implicit path prefixes plus an explicit set (so empty
// directories exist and list). Thread-safe: one mutex around everything.

#ifndef PERFBENCH_MEM_ENV_H_
#define PERFBENCH_MEM_ENV_H_

#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "store/env.h"

namespace perfbench {

class MemEnv : public toss::store::Env {
 public:
  using Status = toss::Status;

  Status CreateDirs(const std::string& dir) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::filesystem::path p = Norm(dir); !p.empty() && p != p.parent_path();
         p = p.parent_path()) {
      dirs_.insert(p.string());
    }
    return Status::OK();
  }

  toss::Result<std::string> ReadFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(Norm(path));
    if (it == files_.end()) return Status::IOError("no such file: " + path);
    std::string out;
    for (const std::string& chunk : it->second) out += chunk;
    return out;
  }

  Status WriteFile(const std::string& path, std::string_view content) override {
    std::lock_guard<std::mutex> lock(mu_);
    files_[Norm(path)] = {std::string(content)};
    return Status::OK();
  }

  Status AppendFile(const std::string& path,
                    std::string_view content) override {
    std::lock_guard<std::mutex> lock(mu_);
    // One chunk per append: appending never copies what the file holds.
    files_[Norm(path)].emplace_back(content);
    return Status::OK();
  }

  Status SyncFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(Norm(path)) ? Status::OK()
                                    : Status::IOError("sync: no file " + path);
  }

  Status SyncDir(const std::string&) override { return Status::OK(); }

  Status RenameFile(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string src = Norm(from);
    const std::string dst = Norm(to);
    if (auto it = files_.find(src); it != files_.end()) {
      files_[dst] = std::move(it->second);
      files_.erase(it);
      return Status::OK();
    }
    if (!dirs_.count(src)) return Status::IOError("rename: no " + from);
    EraseTree(dst);
    MoveTree(src, dst);
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    files_.erase(Norm(path));
    return Status::OK();
  }

  Status RemoveAll(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    EraseTree(Norm(path));
    return Status::OK();
  }

  toss::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string d = Norm(dir);
    if (!dirs_.count(d)) return Status::IOError("cannot list " + dir);
    std::set<std::string> names;
    auto collect = [&](const std::string& path) {
      if (path.size() > d.size() + 1 && path.compare(0, d.size(), d) == 0 &&
          path[d.size()] == '/') {
        const std::string rest = path.substr(d.size() + 1);
        names.insert(rest.substr(0, rest.find('/')));
      }
    };
    for (const auto& p : dirs_) collect(p);
    for (const auto& [p, bytes] : files_) collect(p);
    return std::vector<std::string>(names.begin(), names.end());
  }

  bool FileExists(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string p = Norm(path);
    return files_.count(p) > 0 || dirs_.count(p) > 0;
  }

  void SleepForMicros(uint64_t micros) override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }

 private:
  using File = std::vector<std::string>;  ///< contents, one chunk per write

  static std::string Norm(const std::string& path) {
    std::string p = std::filesystem::path(path).lexically_normal().string();
    while (p.size() > 1 && p.back() == '/') p.pop_back();
    return p;
  }

  static bool InTree(const std::string& path, const std::string& root) {
    return path == root || (path.size() > root.size() &&
                            path.compare(0, root.size(), root) == 0 &&
                            path[root.size()] == '/');
  }

  void EraseTree(const std::string& root) {
    std::erase_if(dirs_, [&](const std::string& p) { return InTree(p, root); });
    std::erase_if(files_, [&](const auto& kv) { return InTree(kv.first, root); });
  }

  /// Re-roots every directory and file under `from` at `to`.
  void MoveTree(const std::string& from, const std::string& to) {
    std::set<std::string> dirs;
    std::map<std::string, File> files;
    for (auto it = dirs_.begin(); it != dirs_.end();) {
      if (InTree(*it, from)) {
        dirs.insert(to + it->substr(from.size()));
        it = dirs_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = files_.begin(); it != files_.end();) {
      if (InTree(it->first, from)) {
        files[to + it->first.substr(from.size())] = std::move(it->second);
        it = files_.erase(it);
      } else {
        ++it;
      }
    }
    dirs_.merge(dirs);
    files_.merge(files);
  }

  mutable std::mutex mu_;
  std::set<std::string> dirs_;
  std::map<std::string, File> files_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEM_ENV_H_
