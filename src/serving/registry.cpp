#include "serving/registry.hpp"

#include "sparse/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace bitgb::serving {

namespace {

constexpr const char* kManifestMagic = "bitgb-manifest-v1";

std::string fp_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return std::string(buf);
}

std::string snapshot_filename(std::uint64_t fp) {
  return "snap-" + fp_hex(fp) + ".bgbs";
}

}  // namespace

const char* recovery_status_name(RecoveryStatus s) {
  switch (s) {
    case RecoveryStatus::kRecovered: return "recovered";
    case RecoveryStatus::kMissing: return "missing";
    case RecoveryStatus::kQuarantined: return "quarantined";
  }
  return "?";
}

GraphRef GraphRegistry::add(std::string name, gb::Graph g,
                            gb::FormatSet warm) {
  // Re-add dedup: an identical graph (by content fingerprint) already
  // registered under this name keeps its prewarmed format caches; only
  // the slot (generation, memos, breaker state) is replaced.  The
  // fingerprint is two CRC passes over the CSR — noise next to the
  // prewarm it saves.
  std::shared_ptr<const gb::Graph> graph;
  const GraphRef existing = lookup(name);
  if (existing && existing->graph().num_vertices() == g.num_vertices() &&
      existing->graph().num_edges() == g.num_edges() &&
      (existing->graph().formats() & warm) == warm &&
      existing->graph().fingerprint() == g.fingerprint()) {
    graph = existing->shared_graph();
    dedup_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Prewarm before publication: materialization is the expensive
    // part, so it runs outside the lock and no query ever observes a
    // cold slot.
    g.prewarm(warm);
    graph = std::make_shared<const gb::Graph>(std::move(g));
  }

  // Publish: the generation and the map entry change in one lock hold,
  // so the latest generation is always the one registered.
  const MutexLock lk(m_);
  auto slot = std::make_shared<const GraphSlot>(name, next_generation_++,
                                                std::move(graph));
  for (auto& [n, s] : slots_) {
    if (n == name) {
      s = slot;  // replace: the old slot drains via its in-flight refs
      return slot;
    }
  }
  slots_.emplace_back(std::move(name), slot);
  return slot;
}

bool GraphRegistry::remove(std::string_view name) {
  const MutexLock lk(m_);
  const auto it = std::find_if(slots_.begin(), slots_.end(),
                               [&](const auto& p) { return p.first == name; });
  if (it == slots_.end()) return false;
  slots_.erase(it);
  return true;
}

GraphRef GraphRegistry::lookup(std::string_view name) const {
  const SharedLock lk(m_);
  const auto it = std::find_if(slots_.begin(), slots_.end(),
                               [&](const auto& p) { return p.first == name; });
  return it == slots_.end() ? nullptr : it->second;
}

std::vector<std::string> GraphRegistry::names() const {
  const SharedLock lk(m_);
  std::vector<std::string> out;
  out.reserve(slots_.size());
  for (const auto& [n, s] : slots_) out.push_back(n);
  return out;
}

std::size_t GraphRegistry::size() const {
  const SharedLock lk(m_);
  return slots_.size();
}

void GraphRegistry::save_all(const std::string& dir, gb::FormatSet formats,
                             FaultInjector* fault) const {
  // Stable view: persisting is slow (it may prewarm), so it runs on a
  // snapshot of the map, not under the lock.  A concurrent add/remove
  // changes what a LATER save_all captures, exactly like any other
  // point-in-time backup.
  std::vector<std::pair<std::string, GraphRef>> view;
  {
    const SharedLock lk(m_);
    view = slots_;
  }
  for (const auto& [name, slot] : view) {
    if (name.find('\n') != std::string::npos) {
      throw snap::SnapshotError(
          snap::SnapshotError::Kind::kMalformed,
          "registration name contains a newline; cannot be manifested");
    }
    (void)slot;
  }

  std::filesystem::create_directories(dir);

  // One snapshot file per distinct graph content (deduped slots share a
  // fingerprint and therefore a file), then the manifest — written LAST
  // so a crash anywhere above leaves the old manifest naming only files
  // that were already durably renamed.
  std::ostringstream manifest;
  manifest << kManifestMagic << '\n';
  std::vector<std::uint64_t> written;
  for (const auto& [name, slot] : view) {
    const gb::Graph& g = slot->graph();
    const std::uint64_t fp = g.fingerprint();
    const std::string file = snapshot_filename(fp);
    if (std::find(written.begin(), written.end(), fp) == written.end()) {
      g.save((std::filesystem::path(dir) / file).string(), formats, fault);
      written.push_back(fp);
    }
    // Name goes last: it is the one field that may contain spaces.
    manifest << file << ' ' << fp_hex(fp) << ' ' << name << '\n';
  }

  const std::string text = manifest.str();
  std::vector<std::byte> bytes(text.size());
  if (!text.empty()) std::memcpy(bytes.data(), text.data(), text.size());
  snap::atomic_write_file(
      (std::filesystem::path(dir) / kManifestFile).string(), bytes, fault);
}

RecoveryReport GraphRegistry::recover(const std::string& dir,
                                      gb::FormatSet warm) {
  RecoveryReport report;
  const auto manifest_path = std::filesystem::path(dir) / kManifestFile;
  std::ifstream in(manifest_path, std::ios::binary);
  if (!in) return report;  // nothing was ever saved — an empty restart

  std::string line;
  if (!std::getline(in, line) || line != kManifestMagic) {
    throw snap::SnapshotError(snap::SnapshotError::Kind::kMalformed,
                              "unrecognized manifest header in " +
                                  manifest_path.string());
  }

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    RecoveryEntry entry;
    // `<file> <fp-hex16> <name...>` — name last, spaces allowed.
    const auto sp1 = line.find(' ');
    const auto sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos || sp2 + 1 >= line.size()) {
      entry.file = line;
      entry.status = RecoveryStatus::kQuarantined;
      entry.error = "malformed manifest line";
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      report.entries.push_back(std::move(entry));
      continue;
    }
    entry.file = line.substr(0, sp1);
    const std::string fp_str = line.substr(sp1 + 1, sp2 - sp1 - 1);
    entry.name = line.substr(sp2 + 1);
    std::uint64_t want_fp = 0;
    bool fp_ok = fp_str.size() == 16;
    for (const char c : fp_str) {
      const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
      if (!hex) { fp_ok = false; break; }
      want_fp = (want_fp << 4) |
                static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
    }

    const auto snap_path = std::filesystem::path(dir) / entry.file;
    std::error_code ec;
    if (!fp_ok) {
      entry.status = RecoveryStatus::kQuarantined;
      entry.error = "malformed fingerprint in manifest";
    } else if (!std::filesystem::exists(snap_path, ec)) {
      entry.status = RecoveryStatus::kMissing;
      entry.error = "snapshot file does not exist";
    } else {
      try {
        gb::Graph g = gb::Graph::load(snap_path.string());
        if (g.fingerprint() != want_fp) {
          throw snap::SnapshotError(
              snap::SnapshotError::Kind::kInvalidStructure,
              "snapshot fingerprint disagrees with the manifest");
        }
        add(entry.name, std::move(g), warm);
        entry.status = RecoveryStatus::kRecovered;
      } catch (const std::exception& e) {
        // Quarantine, never crash: the snapshot stays on disk for
        // forensics and every OTHER entry still recovers.
        entry.status = RecoveryStatus::kQuarantined;
        entry.error = e.what();
      }
    }
    if (entry.status == RecoveryStatus::kRecovered) {
      recovered_.fetch_add(1, std::memory_order_relaxed);
    } else {
      quarantined_.fetch_add(1, std::memory_order_relaxed);
    }
    report.entries.push_back(std::move(entry));
  }
  return report;
}

}  // namespace bitgb::serving
