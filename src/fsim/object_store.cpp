#include "fsim/object_store.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace bitio::fsim {

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      if (!cur.empty()) parts.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) parts.push_back(std::move(cur));
  return parts;
}

namespace {

/// True when `path` is already in canonical form and can key the path
/// index as is.
bool is_canonical(const std::string& path) {
  return !path.empty() && path.front() != '/' && path.back() != '/' &&
         path.find("//") == std::string::npos;
}

/// The first `n` components of a split path, joined by '/'.
std::string join_parts(const std::vector<std::string>& parts, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i) out += '/';
    out += parts[i];
  }
  return out;
}

}  // namespace

std::string canonical_path(const std::string& path) {
  if (is_canonical(path)) return path;
  const auto parts = split_path(path);
  return join_parts(parts, parts.size());
}

std::string parent_path(const std::string& path) {
  const std::string canonical = canonical_path(path);
  const auto slash = canonical.rfind('/');
  return slash == std::string::npos ? "" : canonical.substr(0, slash);
}

std::string base_name(const std::string& path) {
  const std::string canonical = canonical_path(path);
  if (canonical.empty()) throw UsageError("base_name: empty path");
  return canonical.substr(canonical.rfind('/') + 1);
}

ObjectStore::ObjectStore(int ost_count, bool store_data,
                         StripeSettings default_stripe)
    : ost_count_(ost_count), store_data_(store_data) {
  if (ost_count <= 0) throw UsageError("ObjectStore: need at least one OST");
  root_.path = "";
  root_.default_stripe = default_stripe;
  root_.has_explicit_stripe = true;
}

DirNode& ObjectStore::mkdirs(const std::string& path) {
  const auto parts = split_path(path);
  return mkdirs(parts, parts.size());
}

DirNode& ObjectStore::mkdirs(const std::vector<std::string>& parts,
                             std::size_t depth) {
  DirNode* node = &root_;
  for (std::size_t i = 0; i < depth; ++i) {
    const std::string& part = parts[i];
    if (node->files.count(part))
      throw IoError("mkdirs: '" + join_parts(parts, i + 1) + "' is a file");
    auto& slot = node->dirs[part];
    if (!slot) {
      slot = std::make_unique<DirNode>();
      slot->path = join_parts(parts, i + 1);
      // Inherit striping from the parent, Lustre-style.
      slot->default_stripe = node->default_stripe;
    }
    node = slot.get();
  }
  return *node;
}

const DirNode* ObjectStore::find_dir(const std::string& path) const {
  const DirNode* node = &root_;
  for (const auto& part : split_path(path)) {
    auto it = node->dirs.find(part);
    if (it == node->dirs.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

DirNode* ObjectStore::find_dir(const std::string& path) {
  return const_cast<DirNode*>(
      static_cast<const ObjectStore*>(this)->find_dir(path));
}

bool ObjectStore::dir_exists(const std::string& path) const {
  return find_dir(path) != nullptr;
}

FileId ObjectStore::lookup(const std::string& path) const {
  const auto it = is_canonical(path) ? by_path_.find(path)
                                     : by_path_.find(canonical_path(path));
  return it == by_path_.end() ? kNoFile : it->second;
}

bool ObjectStore::file_exists(const std::string& path) const {
  return lookup(path) != kNoFile;
}

void ObjectStore::set_dir_stripe(const std::string& path,
                                 StripeSettings settings) {
  if (settings.stripe_count <= 0 || settings.stripe_size == 0)
    throw UsageError("setstripe: count and size must be positive");
  if (settings.stripe_count > ost_count_)
    throw UsageError("setstripe: stripe count " +
                     std::to_string(settings.stripe_count) + " exceeds " +
                     std::to_string(ost_count_) + " OSTs");
  DirNode& dir = mkdirs(path);
  dir.default_stripe = settings;
  dir.has_explicit_stripe = true;
}

StripeSettings ObjectStore::dir_stripe(const std::string& path) const {
  const DirNode* dir = find_dir(path);
  if (!dir) throw IoError("dir_stripe: no such directory '" + path + "'");
  return dir->default_stripe;
}

StripeLayout ObjectStore::make_layout(StripeSettings settings) {
  StripeLayout layout;
  layout.settings = settings;
  layout.stripe_offset = next_ost_;
  for (int i = 0; i < settings.stripe_count; ++i) {
    layout.ost_indices.push_back((next_ost_ + i) % ost_count_);
    layout.object_ids.push_back(next_object_id_);
    next_object_id_ += 0x15263;  // arbitrary stride, purely cosmetic
  }
  // Lustre allocates the next file's first object on a different OST to
  // balance load; emulate with a simple rotation.
  next_ost_ = (next_ost_ + settings.stripe_count) % ost_count_;
  return layout;
}

FileNode& ObjectStore::create_file(
    const std::string& path, std::optional<StripeSettings> stripe_override) {
  const auto parts = split_path(path);
  if (parts.empty()) throw UsageError("create_file: empty path");
  DirNode& dir = mkdirs(parts, parts.size() - 1);
  const std::string& name = parts.back();
  if (dir.dirs.count(name))
    throw IoError("create_file: '" + path + "' is a directory");
  if (!dir.files.try_emplace(name, files_.size()).second)
    throw IoError("create_file: '" + path + "' exists");

  auto node = std::make_unique<FileNode>();
  node->id = files_.size();
  node->path = path;
  node->layout =
      make_layout(stripe_override ? *stripe_override : dir.default_stripe);
  node->create_order = next_create_order_++;
  by_path_.emplace(join_parts(parts, parts.size()), node->id);
  files_.push_back(std::move(node));
  return *files_.back();
}

FileNode& ObjectStore::file(const std::string& path) {
  const FileId id = lookup(path);
  if (id == kNoFile) throw IoError("file: no such file '" + path + "'");
  return *files_[id];
}

const FileNode& ObjectStore::file(const std::string& path) const {
  return const_cast<ObjectStore*>(this)->file(path);
}

FileNode& ObjectStore::file_by_id(FileId id) {
  if (id >= files_.size() || !files_[id])
    throw IoError("file_by_id: bad id " + std::to_string(id));
  return *files_[id];
}

const FileNode& ObjectStore::file_by_id(FileId id) const {
  return const_cast<ObjectStore*>(this)->file_by_id(id);
}

void ObjectStore::unlink(const std::string& path) {
  if (lookup(path) == kNoFile)
    throw IoError("unlink: no such file '" + path + "'");
  // The FileNode stays alive (only the namespace entry goes away) so that
  // trace replay can still resolve layouts of files written before unlink.
  find_dir(parent_path(path))->files.erase(base_name(path));
  by_path_.erase(canonical_path(path));
}

void ObjectStore::rename(const std::string& from, const std::string& to) {
  const FileId id = lookup(from);
  if (id == kNoFile) throw IoError("rename: no such file '" + from + "'");
  DirNode& dst_dir = mkdirs(parent_path(to));
  const std::string dst_name = base_name(to);
  if (dst_dir.dirs.count(dst_name))
    throw IoError("rename: '" + to + "' is a directory");
  find_dir(parent_path(from))->files.erase(base_name(from));
  by_path_.erase(canonical_path(from));
  dst_dir.files[dst_name] = id;  // replaces any existing entry, like POSIX
  by_path_[canonical_path(to)] = id;
  files_[id]->path = to;
}

namespace {
void collect(const DirNode& dir,
             const std::vector<std::unique_ptr<FileNode>>& files,
             std::vector<const FileNode*>& out) {
  for (const auto& [name, id] : dir.files) {
    (void)name;
    if (files[id]) out.push_back(files[id].get());
  }
  for (const auto& [name, sub] : dir.dirs) {
    (void)name;
    collect(*sub, files, out);
  }
}
}  // namespace

std::vector<const FileNode*> ObjectStore::list_recursive(
    const std::string& path) const {
  const DirNode* dir = find_dir(path);
  if (!dir) throw IoError("list_recursive: no such directory '" + path + "'");
  std::vector<const FileNode*> out;
  collect(*dir, files_, out);
  std::sort(out.begin(), out.end(),
            [](const FileNode* a, const FileNode* b) {
              return a->create_order < b->create_order;
            });
  return out;
}

std::vector<const FileNode*> ObjectStore::all_files() const {
  return list_recursive("");
}

void ObjectStore::pwrite(FileNode& node, std::uint64_t offset,
                         const std::uint8_t* data, std::uint64_t n) {
  node.size = std::max(node.size, offset + n);
  if (!store_data_) return;
  if (node.data.size() < offset + n) node.data.resize(offset + n, 0);
  std::memcpy(node.data.data() + offset, data, n);
}

std::uint64_t ObjectStore::pread(const FileNode& node, std::uint64_t offset,
                                 std::uint8_t* out, std::uint64_t n) const {
  if (!store_data_)
    throw IoError("pread: store was configured without data retention");
  if (offset >= node.size) return 0;
  const std::uint64_t avail = std::min(n, node.size - offset);
  std::memcpy(out, node.data.data() + offset, avail);
  return avail;
}

void ObjectStore::truncate(FileNode& node, std::uint64_t size) {
  node.size = size;
  if (store_data_) node.data.resize(size, 0);
}

}  // namespace bitio::fsim
