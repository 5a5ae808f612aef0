// Crash-safe file replacement for every persisted artefact (checkpoints,
// cell summaries, postmortem bundles, counter dumps): the bytes go to
// `<path>.tmp` and are renamed over `path` only once fully written, so a
// reader sees the previous file or the complete new one, never a torn write.
#pragma once

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

namespace adres {

/// Writes `path` atomically: `fn(std::ostream&)` fills `<path>.tmp`, the
/// stream is checked once closed, and the tmp file is renamed over `path`.
/// Returns false — leaving no tmp file behind and `path` untouched — when
/// the tmp file cannot be opened or written or the rename fails.  If `fn`
/// throws, the tmp file is removed and the exception propagates.
template <class Fn>
bool writeFileAtomic(const std::string& path, Fn&& fn) {
  const std::string tmp = path + ".tmp";
  bool ok = false;
  try {
    std::ofstream os(tmp, std::ios::trunc);
    if (os) {
      fn(os);
      os.close();
      ok = !os.fail();
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

}  // namespace adres
